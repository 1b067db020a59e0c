"""On-demand-paging "locking" — no pin at registration at all.

The other four backends answer the paper's question — *how do we keep
registered pages resident?* — at registration time.  This backend
refuses the premise, the way NP-RDMA ("Using Commodity RDMA without
Pinning Memory") and Psistakis' virtual-address RDMA fault handling do:
registration records only the *shape* of the region, every TPT entry
starts with its valid bit clear, and pages are faulted in and pinned
just-in-time when a DMA actually touches them.  Under memory pressure
the inverse runs: reclaim may take resident pages back after their TPT
entries are invalidated, turning the paper's §3.1 hazard (a DMA landing
on a stolen frame) into a handled suspend/fault/resume event.

The pin bookkeeping lives in the :class:`OdpCookie`: each resident page
holds exactly one (reference, pin) pair taken through the kernel's
audited ``pin_user_page`` entry point.  A page is *committed* to the
cookie the moment it is pinned, before any crash point can fire — so
when the owner dies mid-fault-service, the exit path's ordinary
``backend.unlock(cookie)`` finds and releases every pin taken so far
and nothing leaks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.hw.physmem import PAGE_SIZE
from repro.errors import ViaError
from repro.via.locking.base import LockingBackend, LockResult, range_vpns
from repro.via.tpt import INVALID_FRAME

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.kernel.task import Task


@dataclass
class OdpCookie:
    """Backend-private state of one ODP registration."""

    pid: int
    va: int
    npages: int
    #: region-relative page index → pinned frame, for every page that is
    #: currently resident; the single source of truth the exit path,
    #: the eviction path, and deregistration all release from
    resident: dict[int, int] = field(default_factory=dict)
    released: bool = False

    @property
    def start_vpn(self) -> int:
        return self.va // PAGE_SIZE


class OdpLocking(LockingBackend):
    """Register now, pin on first touch, evict under pressure."""

    name = "odp"
    #: reliable in the ODP sense: a DMA never lands on a stale frame —
    #: not because pages cannot move, but because every move is fenced
    #: by a TPT invalidate and repaired by a fault service
    reliable = True
    supports_multiple_registration = True
    walks_page_tables = False

    def lock(self, kernel: "Kernel", task: "Task", va: int,
             nbytes: int) -> LockResult:
        """O(1) registration: no faulting, no pinning, no frames.

        Every returned frame is the :data:`INVALID_FRAME` sentinel; the
        TPT installs them with the valid bit clear and the fault service
        patches real frames in later.
        """
        kernel.clock.charge(kernel.costs.syscall_ns, "register")
        start_vpn, end_vpn = range_vpns(va, nbytes)
        npages = end_vpn - start_vpn
        kernel.trace.emit("lock_odp", pid=task.pid, va=va, npages=npages)
        return LockResult(
            frames=[INVALID_FRAME] * npages,
            cookie=OdpCookie(pid=task.pid, va=va, npages=npages))

    def unlock(self, kernel: "Kernel", cookie: object) -> None:
        """Release every just-in-time pin the registration still holds."""
        assert isinstance(cookie, OdpCookie)
        if cookie.released:
            raise ViaError(
                "odp lock cookie already released (double deregistration)",
                status="VIP_INVALID_MEMORY")
        cookie.released = True
        kernel.clock.charge(kernel.costs.syscall_ns, "register")
        for frame in cookie.resident.values():
            kernel.unpin_user_page(frame, cookie.pid)
        cookie.resident.clear()

    # -- ODP-specific operations (driven by the KernelAgent) ----------------

    def fault_in(self, kernel: "Kernel", task: "Task", cookie: OdpCookie,
                 pages: tuple[int, ...]) -> dict[int, int]:
        """Fault + pin the given region-relative pages just-in-time.

        Returns page index → frame for every page now resident.  Each
        page is committed to ``cookie.resident`` immediately after its
        pin, so a kill landing anywhere downstream is cleaned up by the
        exit path's ``unlock`` — never leaked, never double-freed.  If a
        page cannot be pinned (``OutOfMemory``, say), the pins this call
        took are released before the error propagates: no TPT entry will
        ever name them.
        """
        patched: dict[int, int] = {}
        taken: list[int] = []
        try:
            for index in pages:
                if index in cookie.resident:
                    # Lost a race with a concurrent fault on this extent.
                    patched[index] = cookie.resident[index]
                    continue
                frame = kernel.pin_user_page(task, cookie.start_vpn + index)
                cookie.resident[index] = frame
                taken.append(index)
                patched[index] = frame
        except Exception:
            for index in taken:
                kernel.unpin_user_page(cookie.resident.pop(index), cookie.pid)
            raise
        return patched

    def evict_frame(self, kernel: "Kernel", cookie: OdpCookie,
                    frame: int) -> tuple[int, ...]:
        """Drop the pins this registration holds on ``frame`` (pressure
        path); returns the page indices that went non-resident."""
        indices = tuple(i for i, f in cookie.resident.items() if f == frame)
        for index in indices:
            del cookie.resident[index]
            kernel.unpin_user_page(frame, cookie.pid)
        return indices
