"""Tests for mlock/munlock and the capability machinery (Sec. 3.2)."""

import pytest

from repro.errors import InvalidArgument, PermissionDenied
from repro.hw.physmem import PAGE_SIZE
from repro.kernel.capabilities import CAP_IPC_LOCK, capable


def _locked_pages(task) -> int:
    """Pages inside the task's VM_LOCKED areas."""
    return sum(area.npages for area in task.vmas if area.locked)


class TestCapabilityGate:
    def test_plain_user_denied(self, kernel):
        t = kernel.create_task(uid=1000)
        va = t.mmap(2)
        with pytest.raises(PermissionDenied):
            kernel.sys_mlock(t, va, 2 * PAGE_SIZE)

    def test_root_allowed(self, kernel):
        t = kernel.create_task(uid=0)
        va = t.mmap(2)
        kernel.sys_mlock(t, va, 2 * PAGE_SIZE)
        assert _locked_pages(t) == 2

    def test_capability_holder_allowed(self, kernel):
        t = kernel.create_task(uid=1000)
        t.capabilities.add(CAP_IPC_LOCK)
        va = t.mmap(1)
        kernel.sys_mlock(t, va, PAGE_SIZE)
        assert _locked_pages(t) == 1

    def test_capable_semantics(self, kernel):
        root = kernel.create_task(uid=0)
        user = kernel.create_task(uid=1000)
        assert capable(root, CAP_IPC_LOCK)
        assert not capable(user, CAP_IPC_LOCK)

    def test_user_dma_patch_path_skips_check(self, kernel):
        """do_mlock directly — the rewritten-do_mlock variant."""
        t = kernel.create_task(uid=1000)
        va = t.mmap(1)
        kernel.do_mlock(t, va, PAGE_SIZE)   # no PermissionDenied
        assert _locked_pages(t) == 1

    def test_cap_dance_locks_and_restores(self, kernel):
        t = kernel.create_task(uid=1000)
        va = t.mmap(1)
        kernel.mlock_with_cap_dance(t, va, PAGE_SIZE)
        assert _locked_pages(t) == 1
        assert CAP_IPC_LOCK not in t.capabilities   # reclaimed

    def test_cap_dance_preserves_existing_capability(self, kernel):
        t = kernel.create_task(uid=1000)
        t.capabilities.add(CAP_IPC_LOCK)
        va = t.mmap(1)
        kernel.mlock_with_cap_dance(t, va, PAGE_SIZE)
        assert CAP_IPC_LOCK in t.capabilities


class TestMlockSemantics:
    def test_mlock_makes_pages_present(self, kernel):
        t = kernel.create_task(uid=0)
        va = t.mmap(4)
        assert t.resident_pages() == 0
        kernel.sys_mlock(t, va, 4 * PAGE_SIZE)
        assert t.resident_pages() == 4

    def test_mlock_splits_vmas(self, kernel):
        t = kernel.create_task(uid=0)
        va = t.mmap(10)
        kernel.sys_mlock(t, va + 2 * PAGE_SIZE, 4 * PAGE_SIZE)
        areas = [(a.start_vpn - t.vpn_of(va), a.end_vpn - t.vpn_of(va),
                  a.locked) for a in t.vmas]
        assert areas == [(0, 2, False), (2, 6, True), (6, 10, False)]

    def test_munlock_merges_back(self, kernel):
        t = kernel.create_task(uid=0)
        va = t.mmap(10)
        kernel.sys_mlock(t, va + 2 * PAGE_SIZE, 4 * PAGE_SIZE)
        kernel.do_munlock(t, va + 2 * PAGE_SIZE, 4 * PAGE_SIZE)
        assert len(t.vmas) == 1
        assert _locked_pages(t) == 0

    def test_mlock_does_not_nest(self, kernel):
        """The drawback the paper highlights: 'a single unlock operation
        annuls multiple lock operations on the same address'."""
        t = kernel.create_task(uid=0)
        va = t.mmap(2)
        kernel.sys_mlock(t, va, 2 * PAGE_SIZE)
        kernel.sys_mlock(t, va, 2 * PAGE_SIZE)   # lock twice
        kernel.do_munlock(t, va, 2 * PAGE_SIZE)  # unlock ONCE
        assert _locked_pages(t) == 0         # ... and it is all gone

    def test_mlock_range_with_hole_rejected(self, kernel):
        t = kernel.create_task(uid=0)
        va1 = t.mmap(2)
        t.mmap(2)  # separate area, with the guard gap between
        with pytest.raises(InvalidArgument):
            kernel.sys_mlock(t, va1, 4 * PAGE_SIZE)

    def test_mlock_zero_bytes_rejected(self, kernel):
        t = kernel.create_task(uid=0)
        va = t.mmap(1)
        with pytest.raises(InvalidArgument):
            kernel.sys_mlock(t, va, 0)

    def test_partial_bytes_round_to_pages(self, kernel):
        t = kernel.create_task(uid=0)
        va = t.mmap(4)
        kernel.sys_mlock(t, va + 100, PAGE_SIZE)  # straddles 2 pages
        assert _locked_pages(t) == 2
