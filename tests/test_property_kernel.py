"""Property-based tests: kernel accounting invariants under random
operation sequences.

A stateful Hypothesis machine drives the simulated kernel with an
arbitrary interleaving of mmap/touch/munmap/swap-pressure/mlock/kiobuf
operations and checks, after every step, that the accounting invariants
of :func:`repro.core.audit.audit_kernel_invariants` hold and that data
written through a task's address space reads back intact.
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, precondition, rule,
)

from repro.core.audit import audit_kernel_invariants
from repro.errors import OutOfMemory
from repro.hw.physmem import PAGE_SIZE
from repro.kernel import paging
from repro.kernel.kernel import Kernel
from repro.sim.costs import FREE


class KernelOps(RuleBasedStateMachine):
    """Random interleavings of memory-management operations."""

    def __init__(self) -> None:
        super().__init__()
        self.kernel = Kernel(num_frames=96, swap_slots=1024, costs=FREE,
                             min_free_pages=4)
        self.tasks = []
        self.regions = []      # (task, va, npages, stamp)
        self.kiobufs = []      # live kiobufs
        self.stamp = 0

    # -- setup -----------------------------------------------------------

    @initialize()
    def boot(self) -> None:
        for i in range(2):
            self.tasks.append(self.kernel.create_task(name=f"t{i}"))

    # -- operations --------------------------------------------------------

    @rule(task_i=st.integers(0, 1), npages=st.integers(1, 6))
    def mmap_region(self, task_i: int, npages: int) -> None:
        task = self.tasks[task_i]
        va = task.mmap(npages)
        self.regions.append([task, va, npages, None])

    @precondition(lambda self: self.regions)
    @rule(idx=st.integers(0, 10**6), data=st.binary(min_size=1,
                                                    max_size=64))
    def write_region(self, idx: int, data: bytes) -> None:
        task, va, npages, _ = self.regions[idx % len(self.regions)]
        self.stamp += 1
        stamped = data + self.stamp.to_bytes(4, "little")
        try:
            task.write(va, stamped)
        except OutOfMemory:
            return   # legal when everything else is pinned
        self.regions[idx % len(self.regions)][3] = stamped

    @precondition(lambda self: self.regions)
    @rule(idx=st.integers(0, 10**6))
    def read_back(self, idx: int) -> None:
        task, va, npages, stamped = self.regions[idx % len(self.regions)]
        if stamped is None:
            return
        try:
            got = task.read(va, len(stamped))
        except OutOfMemory:
            return
        assert got == stamped, "data lost through swap round-trip"

    @rule(want=st.integers(1, 8))
    def pressure(self, want: int) -> None:
        paging.swap_out(self.kernel, want)

    @rule(budget=st.integers(1, 32))
    def cache_pressure(self, budget: int) -> None:
        paging.shrink_mmap(self.kernel, budget)

    @precondition(lambda self: self.regions)
    @rule(idx=st.integers(0, 10**6))
    def map_kiobuf(self, idx: int) -> None:
        task, va, npages, _ = self.regions[idx % len(self.regions)]
        try:
            kio = self.kernel.map_user_kiobuf(task, va,
                                              npages * PAGE_SIZE)
        except OutOfMemory:
            return
        self.kiobufs.append(kio)

    @precondition(lambda self: self.kiobufs)
    @rule(idx=st.integers(0, 10**6))
    def unmap_kiobuf(self, idx: int) -> None:
        kio = self.kiobufs.pop(idx % len(self.kiobufs))
        self.kernel.unmap_kiobuf(kio)

    @precondition(lambda self: self.regions)
    @rule(idx=st.integers(0, 10**6))
    def mlock_region(self, idx: int) -> None:
        task, va, npages, _ = self.regions[idx % len(self.regions)]
        try:
            self.kernel.do_mlock(task, va, npages * PAGE_SIZE)
        except OutOfMemory:
            return

    @precondition(lambda self: self.regions)
    @rule(idx=st.integers(0, 10**6))
    def munlock_region(self, idx: int) -> None:
        task, va, npages, _ = self.regions[idx % len(self.regions)]
        self.kernel.do_munlock(task, va, npages * PAGE_SIZE)

    @precondition(lambda self: self.regions)
    @rule(idx=st.integers(0, 10**6))
    def munmap_region(self, idx: int) -> None:
        i = idx % len(self.regions)
        task, va, npages, _ = self.regions.pop(i)
        # Kiobufs over this region keep their frames alive legally; the
        # invariant checker accepts unmapped-but-pinned frames.
        task.munmap(va, npages)

    @rule()
    def add_cache_page(self) -> None:
        try:
            self.kernel.add_page_cache_page()
        except OutOfMemory:
            pass

    # -- invariants -------------------------------------------------------------

    @invariant()
    def accounting_holds(self) -> None:
        audit_kernel_invariants(self.kernel)

    @invariant()
    def frame_conservation(self) -> None:
        """Every frame is either free or has a positive refcount, and
        the free count never exceeds the installed total."""
        pm = self.kernel.pagemap
        assert 0 <= pm.free_count <= pm.num_frames
        in_use = sum(1 for pd in pm if pd.count > 0)
        assert in_use + pm.free_count == pm.num_frames

    @invariant()
    def pinned_pages_resident(self) -> None:
        """A pinned page can never be on the swap device: no PTE that is
        swapped may correspond to a live kiobuf's pages."""
        for kio in self.kiobufs:
            for frame in kio.frames:
                assert self.kernel.pagemap.page(frame).count > 0


TestKernelOps = KernelOps.TestCase
TestKernelOps.settings = settings(max_examples=40,
                                  stateful_step_count=60,
                                  deadline=None)


@pytest.mark.parametrize("seed", range(5))
def test_heavy_churn_preserves_data_and_invariants(seed):
    """Deterministic heavy-churn scenario: two tasks write stamped pages
    while pressure and kiobuf pinning interleave; everything must read
    back and invariants must hold at every checkpoint."""
    kernel = Kernel(num_frames=128, swap_slots=2048, costs=FREE)
    tasks = [kernel.create_task(name=f"w{i}") for i in range(3)]
    regions = []
    for i, t in enumerate(tasks):
        va = t.mmap(16)
        for p in range(16):
            t.write(va + p * PAGE_SIZE, f"{i}-{p}-{seed}".encode())
        regions.append((t, va))
    kio = kernel.map_user_kiobuf(tasks[0], regions[0][1], 16 * PAGE_SIZE)
    for round_ in range(6):
        paging.swap_out(kernel, 32)
        audit_kernel_invariants(kernel)
        for i, (t, va) in enumerate(regions):
            for p in range(0, 16, 5):
                expect = f"{i}-{p}-{seed}".encode()
                assert t.read(va + p * PAGE_SIZE, len(expect)) == expect
    # Pinned task-0 pages never moved.
    assert tasks[0].physical_pages(regions[0][1], 16) == kio.frames
    kernel.unmap_kiobuf(kio)
    audit_kernel_invariants(kernel)
