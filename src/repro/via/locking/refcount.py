"""Refcount-only "locking" — Berkeley-VIA / M-VIA style.

Section 3.1: "Berkeley-VIA and M-VIA simply increment the reference
counter of the pages. ... We have conducted some experiments that show
that pages are swapped out even when their reference counters are bigger
than one."

This backend is **deliberately broken**: it is the faithful model of the
flawed approach the paper demonstrates against.  It faults pages in,
walks the page tables for their physical addresses, and takes a bare
``get_page`` reference — which the reclaim path ignores.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import PageAccountingError, ViaError
from repro.kernel.fault import handle_fault
from repro.via.locking.base import LockingBackend, LockResult, range_vpns

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.kernel.task import Task


class RefcountLocking(LockingBackend):
    """Increment page reference counters; nothing more."""

    name = "refcount"
    reliable = False
    supports_multiple_registration = True   # counters nest — that part works
    walks_page_tables = True

    def lock(self, kernel: "Kernel", task: "Task", va: int,
             nbytes: int) -> LockResult:
        kernel.clock.charge(kernel.costs.syscall_ns, "register")
        start_vpn, end_vpn = range_vpns(va, nbytes)
        frames: list[int] = []
        for vpn in range(start_vpn, end_vpn):
            pte = task.page_table.lookup(vpn)
            if pte is None or not pte.present:
                handle_fault(kernel, task, vpn, write=True)
                pte = task.page_table.lookup(vpn)
            kernel.clock.charge(kernel.costs.pagetable_walk_ns, "register")
            # Bare refcount bump from driver context — the deliberately
            # broken mechanism this backend models (§3.1).
            kernel.pagemap.get_page(pte.frame)  # repro-lint: allow(kernel-mutation)
            frames.append(pte.frame)
        kernel.trace.emit("lock_refcount", pid=task.pid, va=va,
                          npages=len(frames))
        # The third cookie element makes the cookie one-shot: releasing
        # it twice (an exit path racing an explicit deregister) must not
        # silently drop references it never took.
        return LockResult(frames=frames,
                          cookie=("refcount", frames, {"released": False}))

    def unlock(self, kernel: "Kernel", cookie: object) -> None:
        kind, frames, state = cookie  # type: ignore[misc]
        assert kind == "refcount"
        if state["released"]:
            raise ViaError(
                "refcount lock cookie already released "
                "(double deregistration)", status="VIP_INVALID_MEMORY")
        state["released"] = True
        kernel.clock.charge(kernel.costs.syscall_ns, "register")
        for frame in frames:
            count = kernel.pagemap.table.counts[frame]
            if count <= 0:
                raise PageAccountingError(
                    f"refcount unlock would drive frame {frame} below "
                    f"zero (count={count})")
            # If the page was orphaned by swap_out in the meantime, this
            # put is the last reference and quietly frees the orphan —
            # "system stability is not affected by this lapse".
            kernel.pagemap.put_page(frame)  # repro-lint: allow(kernel-mutation)
