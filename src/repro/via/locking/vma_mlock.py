"""VMA-based locking via ``do_mlock`` — Section 3.2.

The Kernel Agent raises ``CAP_IPC_LOCK`` on the calling task, goes
through the checked ``mlock`` path, and lowers the capability again
(the paper's second circumvention of the super-user restriction).

Two flavours, selected by ``track_ranges``:

* **naive** (``track_ranges=False``) — register locks, deregister
  unlocks.  Because "mlock calls do not nest", the first deregistration
  of a multiply-registered range unlocks it for everyone: reliability is
  silently lost (benchmark E2).
* **tracked** (``track_ranges=True``) — "the driver must keep track of
  which address ranges are registered how often ... It must unlock the
  memory only upon the last deregistration."  We keep a per-(pid, vpn)
  lock count and munlock only pages whose count reaches zero.

Both flavours must still call ``virt_to_phys`` to fill the TPT — the
page-table walk mainline policy forbids drivers ("I will NOT allow
anything that walks page tables", Sec. 4.1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.hw.physmem import PAGE_SIZE
from repro.via.locking.base import LockingBackend, LockResult, range_vpns

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.kernel.task import Task


class MlockLocking(LockingBackend):
    """``do_mlock``/``do_munlock`` with optional range bookkeeping."""

    walks_page_tables = True
    reliable = True

    def __init__(self, track_ranges: bool = True) -> None:
        self.track_ranges = track_ranges
        self.name = "mlock" if track_ranges else "mlock_naive"
        self.supports_multiple_registration = track_ranges
        #: per-(pid, vpn) registration counts (tracked flavour only)
        self._lock_counts: dict[tuple[int, int], int] = {}

    # -- interface -----------------------------------------------------------

    def lock(self, kernel: "Kernel", task: "Task", va: int,
             nbytes: int) -> LockResult:
        kernel.clock.charge(kernel.costs.syscall_ns, "register")
        start_vpn, end_vpn = range_vpns(va, nbytes)
        kernel.mlock_with_cap_dance(task, va, nbytes)
        # do_mlock made the pages present; now the driver must learn
        # their physical addresses the only way it can:
        frames = [
            kernel.virt_to_phys(task, vpn * PAGE_SIZE) // PAGE_SIZE
            for vpn in range(start_vpn, end_vpn)
        ]
        if self.track_ranges:
            for vpn in range(start_vpn, end_vpn):
                key = (task.pid, vpn)
                self._lock_counts[key] = self._lock_counts.get(key, 0) + 1
        kernel.trace.emit("lock_mlock", pid=task.pid, va=va,
                          npages=len(frames), tracked=self.track_ranges)
        return LockResult(
            frames=frames,
            cookie=("mlock", task.pid, start_vpn, end_vpn))

    def unlock(self, kernel: "Kernel", cookie: object) -> None:
        kind, pid, start_vpn, end_vpn = cookie  # type: ignore[misc]
        assert kind == "mlock"
        kernel.clock.charge(kernel.costs.syscall_ns, "register")
        task = kernel.find_task(pid)
        if not self.track_ranges:
            # Naive: one munlock over the whole range — annuls every
            # other registration of these pages.
            kernel.do_munlock(task, start_vpn * PAGE_SIZE,
                              (end_vpn - start_vpn) * PAGE_SIZE)
            return
        # Tracked: munlock only pages whose count drops to zero, page by
        # page (contiguous zero-count runs are batched).
        run_start: int | None = None
        for vpn in range(start_vpn, end_vpn + 1):
            release = False
            if vpn < end_vpn:
                key = (task.pid, vpn)
                count = self._lock_counts.get(key, 0)
                if count <= 1:
                    self._lock_counts.pop(key, None)
                    release = True
                else:
                    self._lock_counts[key] = count - 1
            if release:
                if run_start is None:
                    run_start = vpn
            else:
                if run_start is not None:
                    kernel.do_munlock(task, run_start * PAGE_SIZE,
                                      (vpn - run_start) * PAGE_SIZE)
                    run_start = None
