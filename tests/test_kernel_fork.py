"""Tests for fork() and copy-on-write sharing."""

import pytest

from repro.core.audit import audit_kernel_invariants
from repro.hw.physmem import PAGE_SIZE
from repro.kernel import paging
from repro.via.machine import Machine


@pytest.fixture
def family(kernel):
    parent = kernel.create_task(name="parent")
    va = parent.mmap(4)
    for i in range(4):
        parent.write(va + i * PAGE_SIZE, f"inherit-{i}".encode())
    child = kernel.fork_task(parent)
    return kernel, parent, child, va


class TestFork:
    def test_child_sees_parent_data(self, family):
        kernel, parent, child, va = family
        for i in range(4):
            assert child.read(va + i * PAGE_SIZE, 9) == \
                f"inherit-{i}".encode()

    def test_pages_shared_not_copied(self, family):
        kernel, parent, child, va = family
        assert parent.physical_pages(va, 4) == child.physical_pages(va, 4)
        for frame in parent.physical_pages(va, 4):
            assert kernel.pagemap.table.counts[frame] == 2
            assert kernel.pagemap.table.cow_shares[frame] == 2

    def test_child_write_breaks_cow(self, family):
        kernel, parent, child, va = family
        child.write(va, b"child version")
        assert parent.read(va, 9) == b"inherit-0"
        assert child.read(va, 13) == b"child version"
        assert parent.physical_pages(va, 1) != child.physical_pages(va, 1)
        audit_kernel_invariants(kernel)

    def test_parent_write_preserves_child_view(self, family):
        kernel, parent, child, va = family
        parent.write(va, b"parent v2")
        assert child.read(va, 9) == b"inherit-0"

    def test_unshared_page_regains_write_in_place(self, family):
        kernel, parent, child, va = family
        child.write(va, b"break")            # copy made for child
        frame_parent = parent.physical_pages(va, 1)[0]
        parent.write(va, b"parent again")    # last sharer: reuse in place
        assert parent.physical_pages(va, 1)[0] == frame_parent
        audit_kernel_invariants(kernel)

    def test_shared_pages_not_swapped(self, family):
        kernel, parent, child, va = family
        assert paging.swap_out(kernel, 8) == 0
        assert any(e["reason"] == "cow_shared"
                   for e in kernel.trace.of_kind("swap_skip"))

    def test_fork_faults_swapped_pages_back(self, kernel):
        parent = kernel.create_task()
        va = parent.mmap(2)
        parent.write(va, b"before swap")
        paging.swap_out(kernel, 2)
        assert parent.resident_pages() == 0
        child = kernel.fork_task(parent)
        assert child.read(va, 11) == b"before swap"

    def test_child_exit_releases_shares(self, family):
        kernel, parent, child, va = family
        frames = parent.physical_pages(va, 4)
        kernel.exit_task(child)
        for frame in frames:
            assert kernel.pagemap.table.counts[frame] == 1
        # Parent can write again (in place, via the count==1 fast path).
        parent.write(va, b"post-exit")
        assert parent.read(va, 9) == b"post-exit"
        audit_kernel_invariants(kernel)

    def test_grandchild_shares_three_ways(self, family):
        kernel, parent, child, va = family
        grandchild = kernel.fork_task(child)
        frame = parent.physical_pages(va, 1)[0]
        assert kernel.pagemap.table.counts[frame] == 3
        assert kernel.pagemap.table.cow_shares[frame] == 3
        assert grandchild.read(va, 9) == b"inherit-0"

    def test_fork_copies_capabilities_and_vmas(self, kernel):
        parent = kernel.create_task(uid=1000)
        parent.capabilities.add("CAP_IPC_LOCK")
        va = parent.mmap(2, name="data")
        parent.touch_pages(va, 2)
        child = kernel.fork_task(parent, name="kid")
        assert child.capabilities == {"CAP_IPC_LOCK"}
        assert child.uid == 1000
        assert [(a.start_vpn, a.end_vpn, a.name) for a in child.vmas] == \
            [(a.start_vpn, a.end_vpn, a.name) for a in parent.vmas]

    def test_registered_memory_in_parent_unaffected_by_fork(self, kernel):
        """Fork + COW must not disturb a kiobuf registration: the pinned
        frames stay valid for the NIC even while shared."""
        parent = kernel.create_task()
        va = parent.mmap(2)
        parent.touch_pages(va, 2)
        kio = kernel.map_user_kiobuf(parent, va, 2 * PAGE_SIZE)
        child = kernel.fork_task(parent)
        # Parent writes: with COW the parent could get a *new* frame and
        # the NIC would write to the old one — the classic fork-vs-RDMA
        # hazard.  Here we only assert accounting stays sound and the
        # kiobuf's frames remain alive.
        parent.write(va, b"x")
        for frame in kio.frames:
            assert kernel.pagemap.table.counts[frame] >= 1
        audit_kernel_invariants(kernel)
        del child


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="known fork hazard: the parent's first write after fork "
           "breaks copy-on-write onto a new frame, while the TPT keeps "
           "naming the old one, which now belongs to the child")
@pytest.mark.parametrize("backend", ["kiobuf", "mlock", "pageflags", "odp"])
def test_nic_translation_follows_the_parent_after_fork(backend):
    """The paper's promise: a registered page keeps its frame.  After a
    fork and one parent write, the NIC must still reach the frame the
    parent reads and writes."""
    machine = Machine(backend=backend)
    parent = machine.spawn("parent")
    va = parent.mmap(4)
    parent.touch_pages(va, 4)
    reg = machine.user_agent(parent).register_mem(va, 4 * PAGE_SIZE,
                                                  rdma_write=True)

    def nic_frame() -> int:
        [(addr, _)] = machine.nic._tpt_translate(
            reg.handle, va, 1, reg.region.prot_tag, rdma_write=True)
        return addr // PAGE_SIZE

    # One NIC touch before the fork: odp maps a page on first touch.
    assert nic_frame() == parent.physical_pages(va, 1)[0]
    machine.kernel.fork_task(parent)
    parent.write(va, b"x")
    assert nic_frame() == parent.physical_pages(va, 1)[0]
