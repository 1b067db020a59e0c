"""Page-flag locking — Giganet cLAN style.

Section 3.1: "More recent versions of the Giganet driver set the
PG_locked resp. the PG_reserved bit in addition to that.  However, even
this cannot be regarded a clean solution since they do not check if the
page is possibly already locked by the kernel.  On deregistration the
counter is decremented again and ... the PG_locked flag is reset
regardless of the counter state."

Reliable *while the single registration lasts*, but:

* deregistering clears the flags **unconditionally**, so an overlapping
  second registration — or a page the kernel itself locked for I/O —
  silently loses its protection (benchmark E6 quantifies this);
* setting ``PG_reserved`` on a user page hides it from memory accounting
  entirely ("risky and unclean").
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.kernel.fault import handle_fault
from repro.kernel.flags import PG_LOCKED, PG_RESERVED
from repro.via.locking.base import LockingBackend, LockResult, range_vpns

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.kernel.task import Task


class PageFlagLocking(LockingBackend):
    """refcount + PG_locked/PG_reserved, cleared unconditionally."""

    name = "pageflags"
    reliable = True                          # while registered, once
    supports_multiple_registration = False   # the flag is a single bit
    walks_page_tables = True

    def lock(self, kernel: "Kernel", task: "Task", va: int,
             nbytes: int) -> LockResult:
        kernel.clock.charge(kernel.costs.syscall_ns, "register")
        start_vpn, end_vpn = range_vpns(va, nbytes)
        flags = kernel.pagemap.table.flags
        frames: list[int] = []
        for vpn in range(start_vpn, end_vpn):
            pte = task.page_table.lookup(vpn)
            if pte is None or not pte.present:
                handle_fault(kernel, task, vpn, write=True)
                pte = task.page_table.lookup(vpn)
            kernel.clock.charge(kernel.costs.pagetable_walk_ns, "register")
            # This backend pokes the frame table from driver context on
            # purpose — that unaudited mutation *is* the historical
            # mechanism the paper critiques.
            kernel.pagemap.get_page(pte.frame)  # repro-lint: allow(kernel-mutation)
            # No check whether the page is already locked — the hazard
            # the paper calls out.
            flags[pte.frame] |= PG_LOCKED | PG_RESERVED  # repro-lint: allow(kernel-mutation)
            kernel.clock.charge(2 * kernel.costs.page_lock_ns, "register")
            frames.append(pte.frame)
        kernel.trace.emit("lock_pageflags", pid=task.pid, va=va,
                          npages=len(frames))
        return LockResult(frames=frames, cookie=("pageflags", frames))

    def unlock(self, kernel: "Kernel", cookie: object) -> None:
        kind, frames = cookie  # type: ignore[misc]
        assert kind == "pageflags"
        kernel.clock.charge(kernel.costs.syscall_ns, "register")
        flags = kernel.pagemap.table.flags
        for frame in frames:
            # Cleared regardless of who else holds the lock:
            flags[frame] &= ~(PG_LOCKED | PG_RESERVED)  # repro-lint: allow(kernel-mutation)
            kernel.clock.charge(2 * kernel.costs.page_lock_ns, "register")
            kernel.pagemap.put_page(frame)  # repro-lint: allow(kernel-mutation)
