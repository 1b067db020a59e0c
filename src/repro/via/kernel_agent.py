"""The VI Kernel Agent — the device driver.

"The Kernel Agent is a kernel-level device driver that performs
operations that require kernel calls (e.g. memory registration)."

It owns protection-tag allocation, memory registration (delegating the
pinning itself to a pluggable :class:`~repro.via.locking.base.
LockingBackend` and the translation bookkeeping to the NIC's TPT), VI
creation, and connection setup.
"""

from __future__ import annotations

import itertools
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.events import (
    DEREGISTER, FAULT_COALESCED, FAULT_SERVICE, FENCE, FORGET_REGISTRATION,
    ODP_EVICT, RECLAIM_REGISTRATION, REGISTER,
)
from repro.errors import (
    InvalidArgument, NotRegistered, ProcessKilled, ViaError,
)
from repro.hw.physmem import PAGE_SIZE
from repro.sim.faults import crash_if_due
from repro.via.constants import VIP_ERROR_RESOURCE, ReliabilityLevel
from repro.via.cq import CompletionQueue
from repro.via.locking import make_backend
from repro.via.locking.base import LockingBackend
from repro.via.locking.odp import OdpCookie, OdpLocking
from repro.via.tenancy import TenantService
from repro.via.tpt import INVALID_FRAME, FrameList, MemoryRegion
from repro.via.vi import VirtualInterface

#: Bound on the in-flight/recently-served fault table: real ODP NICs
#: track a fixed number of outstanding page requests; ours additionally
#: uses the table to coalesce duplicate requests for the same extent.
ODP_FAULT_TABLE_ENTRIES = 64

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.kernel.task import Task
    from repro.sim.faults import FaultPlan
    from repro.via.nic import VIANic

_tags = itertools.count(0x100)


@dataclass
class Registration:
    """Driver-side record of one memory registration."""

    region: MemoryRegion
    pid: int
    va: int
    nbytes: int
    backend_name: str
    #: owning tenant; -1 only for records predating uid tracking
    uid: int = -1

    @property
    def handle(self) -> int:
        return self.region.handle


class KernelAgent:
    """Driver instance binding one NIC to one kernel."""

    def __init__(self, kernel: "Kernel", nic: "VIANic",
                 backend: LockingBackend | str = "kiobuf",
                 tenants: TenantService | None = None,
                 tenant_quota_pages: int | None = None,
                 host_pin_ceiling_pages: int | None = None) -> None:
        self.kernel = kernel
        self.nic = nic
        self.backend: LockingBackend = (
            make_backend(backend) if isinstance(backend, str) else backend)
        #: the multi-tenant registration service: per-uid pinned-page
        #: budgets and the host pin ceiling, consulted before every pin.
        #: Defaults to a fully open service (no quota, no ceiling).
        self.tenants: TenantService = (
            tenants if tenants is not None else TenantService(
                kernel, default_quota_pages=tenant_quota_pages,
                host_ceiling_pages=host_pin_ceiling_pages))
        #: protection tag per pid ("usually, a process uses a unique
        #: protection tag which is created after opening the VIA
        #: environment")
        self._tags: dict[int, int] = {}
        #: live registrations by handle
        self.registrations: dict[int, Registration] = {}
        #: the same records grouped by owner: pid → {handle: reg}, in
        #: registration order (kept in step by _record/_unrecord)
        self._by_owner: dict[int, dict[int, Registration]] = {}
        #: owner_pages()'s answer, derived from _by_owner; dropped
        #: whenever the registration set changes
        self._owner_pages: (
            list[tuple[int, list[int], list[list[int]]]] | None) = None
        #: registered_frames()'s answer and the FrameList epoch it was
        #: built at; dropped with _owner_pages
        self._frame_array: tuple[array, int] | None = None
        #: the frames of every registration deregister_memory has
        #: dropped the record of but whose backend is still unpinning,
        #: innermost last; they explain those pins to the pin-leak audit
        self.releasing: list[list[int]] = []
        self.fault_plan: "FaultPlan | None" = None
        # The driver owns per-process state (VIs, registrations, pins),
        # so it must hear about exits, munmaps and evictions: a process
        # dying with live registrations must not leak pinned frames,
        # unmapping a registered range must not leave stale TPT entries,
        # and reclaim asks before skipping a pinned frame.
        kernel.notifiers.append(self)
        # ODP plumbing: the NIC forwards translation faults here.
        nic.fault_service = self.service_translation_fault
        #: frame → {(handle, page_index)}: which ODP registrations hold
        #: a just-in-time pin on each frame (try_evict_frame's index)
        self._odp_resident: dict[int, set[tuple[int, int]]] = {}
        #: bounded (handle, pages) → completion-time table; a duplicate
        #: fault request landing while its pages are already valid is
        #: *coalesced* — counted, but not re-serviced
        self._fault_table: OrderedDict[tuple, int] = OrderedDict()
        self.odp_faults_serviced = 0
        self.odp_faults_coalesced = 0
        self.odp_pages_evicted = 0

    # ---------------------------------------------------------------- open

    def open_nic(self, task: "Task") -> int:
        """Open the NIC for ``task``; allocates (once) and returns its
        protection tag."""
        self.kernel.clock.charge(self.kernel.costs.syscall_ns, "via_setup")
        tag = self._tags.get(task.pid)
        if tag is None:
            tag = next(_tags)
            self._tags[task.pid] = tag
        self.tenants.note_task(task)
        return tag

    def prot_tag(self, task: "Task") -> int:
        """The task's protection tag (must have opened the NIC)."""
        tag = self._tags.get(task.pid)
        if tag is None:
            raise InvalidArgument(
                f"{task.name} has not opened NIC {self.nic.name}")
        return tag

    # ---------------------------------------------------------- registration

    def register_memory(self, task: "Task", va: int, nbytes: int,
                        rdma_write: bool = False,
                        rdma_read: bool = False,
                        rdma_atomic: bool = False) -> Registration:
        """Register ``[va, va+nbytes)``: pin via the backend, record the
        physical pages in the TPT under the task's protection tag.

        The VIA spec "explicitly allows memory regions to be registered
        several times"; whether that actually *works* depends on the
        backend (see :mod:`repro.via.locking`).
        """
        if nbytes <= 0:
            raise InvalidArgument(f"cannot register {nbytes} bytes")
        tag = self.prot_tag(task)
        plan = self.fault_plan
        crash_if_due(plan, self.kernel, task, "register.start")
        if plan is not None and plan.take_registration_failure():
            # Driver-level failure (TPT exhaustion, transient driver
            # error) before any pin is taken — nothing to clean up.
            self.kernel.trace.emit("fault_registration", pid=task.pid,
                                   va=va, nbytes=nbytes)
            raise ViaError("injected registration failure",
                           status=VIP_ERROR_RESOURCE)
        if plan is not None and plan.take_pin_failure():
            # Backend-level failure: the locking mechanism could not pin
            # the range (memory pressure, kiobuf allocation failure).
            self.kernel.trace.emit("fault_pin", pid=task.pid, va=va,
                                   nbytes=nbytes,
                                   backend=self.backend.name)
            raise ViaError("injected pin failure",
                           status=VIP_ERROR_RESOURCE)
        # Admission control, before any pin is taken: the tenant budget
        # and the host ceiling see the same page-aligned count the
        # backend is about to pin.  A rejection here needs no cleanup.
        npages = ((va + nbytes - 1) // PAGE_SIZE) - (va // PAGE_SIZE) + 1
        self.tenants.admit(task, npages)
        result = self.backend.lock(self.kernel, task, va, nbytes)
        # Crash here = the process died pinned-but-uninstalled; the exit
        # path's kiobuf sweep (or the reaper) must release the pin.
        crash_if_due(plan, self.kernel, task, "register.pinned")
        try:
            crash_if_due(plan, self.kernel, task, "register.install")
            region = self.nic.tpt.install(
                va_base=va, nbytes=nbytes, prot_tag=tag,
                frames=result.frames, rdma_write=rdma_write,
                rdma_read=rdma_read, rdma_atomic=rdma_atomic,
                lock_cookie=result.cookie,
                odp=isinstance(self.backend, OdpLocking))
        except ProcessKilled:
            # The registering process died here: the kill's exit path has
            # already released the backend's state (the kiobuf sweep, the
            # address-space teardown).  Compensating via backend.unlock
            # would double-release — and its failure would mask the
            # ProcessKilled we must propagate.
            raise
        except Exception:
            self.backend.unlock(self.kernel, result.cookie)
            raise
        self.kernel.clock.charge(
            len(result.frames) * self.kernel.costs.tpt_update_ns,
            "register")
        reg = Registration(region=region, pid=task.pid, va=va,
                           nbytes=nbytes, backend_name=self.backend.name,
                           uid=task.uid)
        self._record(reg)
        # Charge while the record exists: a crash at register.installed
        # runs the exit path's deregistration, whose credit must find
        # the charge already booked.
        self.tenants.charge(reg)
        if self.kernel.events.active:
            # An ODP registration has no resident frames yet; the invalid
            # sentinels never reach the analysis stream.
            self.kernel.events.emit(
                REGISTER, handle=region.handle, pid=task.pid,
                frames=tuple(f for f in result.frames
                             if f != INVALID_FRAME),
                backend=self.backend.name,
                first_vpn=region.first_vpn, npages=region.npages,
                uid=task.uid,
                quota_pages=self.tenants.default_quota_pages)
        self.kernel.trace.emit(REGISTER, pid=task.pid, va=va,
                               nbytes=nbytes, handle=region.handle,
                               backend=self.backend.name)
        # Crash here = died with a fully recorded registration; the
        # "drivers" release deregisters it like any other.
        crash_if_due(plan, self.kernel, task, "register.installed")
        return reg

    def deregister_memory(self, handle: int) -> None:
        """Deregister a region: drop the TPT entries, release the pin."""
        reg = self._unrecord(handle)
        if reg is None:
            raise NotRegistered(f"no registration with handle {handle}")
        # Credit follows the record: it is gone as of the pop above,
        # even if the unlock below fails (that leak is the reaper's).
        self.tenants.credit(reg)
        # DEREGISTER is recorded before the backend unlocks: the unlock's
        # own records (an mlock backend's MUNLOCK) must be attributable
        # to a *dead* registration, or the sanitizer's §3.2 nesting check
        # could not tell a legitimate last-unlock from an annulment.
        self.kernel.events.record(DEREGISTER, handle=handle,
                                  backend=self.backend.name, pid=reg.pid)
        # Until the unlock returns, the dropped record's frames still
        # explain its pins: a watchdog sample fired by a charge below
        # (the TPT update, an ODP unpin) must not report them leaked.
        self.releasing.append(reg.region.frames)
        try:
            region = self.nic.tpt.remove(handle)
            self.kernel.clock.charge(
                region.npages * self.kernel.costs.tpt_update_ns,
                "register")
            self._purge_odp_index(handle, region.lock_cookie)
            self.backend.unlock(self.kernel, region.lock_cookie)
        finally:
            self.releasing.pop()

    def registrations_of(self, pid: int) -> list[Registration]:
        """All live registrations of one process, in registration
        order."""
        return list(self._by_owner.get(pid, {}).values())

    def owners(self) -> list[int]:
        """Pids holding at least one live registration."""
        return list(self._by_owner)

    def owner_pages(self) -> list[tuple[int, list[int], list[list[int]]]]:
        """``(pid, vpns, frame lists)`` per owner: the virtual page
        number of every registered page, in registration order, and the
        registrations' recorded frame lists themselves, whose
        concatenation lines up with ``vpns``.

        The answer is one cached list, shared by every caller and not
        to be mutated; it is rebuilt only when the registration set
        changes.  The frames are the live lists, so an in-place write to
        ``region.frames`` is seen by the next reader.
        """
        if self._owner_pages is None:
            self._owner_pages = []
            for pid, regs in self._by_owner.items():
                regions = [reg.region for reg in regs.values()]
                self._owner_pages.append((
                    pid,
                    [vpn for region in regions
                     for vpn in range(region.first_vpn,
                                      region.first_vpn + region.npages)],
                    [region.frames for region in regions]))
        return self._owner_pages

    def registered_frames(self) -> array:
        """The recorded frame of every registered page, as one
        ``array('q')`` in :meth:`owner_pages` order — the pin-leak
        audit's input.

        Cached like :meth:`owner_pages` and also rebuilt after any
        in-place write to a :class:`~repro.via.tpt.FrameList`
        (:attr:`~repro.via.tpt.FrameList.epoch`).  Not to be mutated.
        """
        cached = self._frame_array
        if cached is not None and cached[1] == FrameList.epoch[0]:
            return cached[0]
        frames = array("q", itertools.chain.from_iterable(
            lst for _pid, _vpns, lists in self.owner_pages()
            for lst in lists))
        self._frame_array = (frames, FrameList.epoch[0])
        return frames

    def _record(self, reg: Registration) -> None:
        self.registrations[reg.handle] = reg
        self._by_owner.setdefault(reg.pid, {})[reg.handle] = reg
        self._owner_pages = None
        self._frame_array = None

    def _unrecord(self, handle: int) -> Registration | None:
        reg = self.registrations.pop(handle, None)
        if reg is not None:
            owned = self._by_owner[reg.pid]
            del owned[handle]
            if not owned:
                del self._by_owner[reg.pid]
            self._owner_pages = None
            self._frame_array = None
        return reg

    def reclaim_registration(self, handle: int) -> None:
        """Teardown-ordering variant of :meth:`deregister_memory` for
        the reaper: release the pin *first*, so a backend failure leaves
        the registration record (and TPT entry) intact for a retry, then
        drop the TPT entries and the driver record."""
        reg = self.registrations.get(handle)
        if reg is None:
            raise NotRegistered(f"no registration with handle {handle}")
        # Same ordering rationale as deregister_memory: announce the
        # registration dead before the unlock's side effects.  (If the
        # unlock fails the record stays for a retry, which re-announces;
        # the sanitizer tolerates a teardown of an unknown handle.)
        self.kernel.events.record(RECLAIM_REGISTRATION, handle=handle,
                                  pid=reg.pid, backend=self.backend.name)
        self._purge_odp_index(handle, reg.region.lock_cookie)
        self.backend.unlock(self.kernel, reg.region.lock_cookie)
        self._unrecord(handle)
        self.tenants.credit(reg)
        region = self.nic.tpt.remove(handle)
        self.kernel.clock.charge(
            region.npages * self.kernel.costs.tpt_update_ns, "register")

    def forget_registration(self, handle: int) -> Registration:
        """Last-resort teardown: drop the TPT entries and the driver
        record even though the backend could not (or will not) release
        the pin.  The leaked pin becomes the unexplained-pin scan's
        problem; the stale translation is gone, which is the part the
        hardware would otherwise DMA through."""
        reg = self._unrecord(handle)
        if reg is None:
            raise NotRegistered(f"no registration with handle {handle}")
        self.tenants.credit(reg)
        self.kernel.events.record(FORGET_REGISTRATION, handle=handle,
                                  pid=reg.pid, backend=self.backend.name)
        self.nic.tpt.remove(handle)
        # The pins leak with the record (that is this method's contract),
        # so the eviction index must forget them too — a later eviction
        # must not dereference a dropped registration.
        self._purge_odp_index(handle, reg.region.lock_cookie)
        return reg

    # -------------------------------------------------- on-demand paging

    def _purge_odp_index(self, handle: int, cookie: object) -> None:
        """Drop a dying registration's entries from the eviction index
        (must run while the cookie still lists its resident pages)."""
        if not isinstance(cookie, OdpCookie):
            return
        for index, frame in cookie.resident.items():
            owners = self._odp_resident.get(frame)
            if owners is not None:
                owners.discard((handle, index))
                if not owners:
                    del self._odp_resident[frame]
        self._fault_table = OrderedDict(
            (k, v) for k, v in self._fault_table.items() if k[0] != handle)

    def service_translation_fault(self, handle: int,
                                  pages: tuple[int, ...],
                                  token: int | None = None
                                  ) -> dict[int, int]:
        """Handle a NIC translation fault: fault the pages in, pin them,
        patch the TPT, and let the NIC resume the suspended transfer.

        Duplicate requests coalesce: a request whose pages are already
        valid, arriving no later than the completion time of the service
        that made them valid, is counted and answered from the TPT
        without re-running the fault path.  Returns page index → frame.
        """
        reg = self.registrations.get(handle)
        if reg is None:
            raise NotRegistered(
                f"fault service: no registration with handle {handle}")
        cookie = reg.region.lock_cookie
        if not isinstance(cookie, OdpCookie) \
                or not isinstance(self.backend, OdpLocking):
            raise ViaError(
                f"fault service: handle {handle} is not an ODP "
                "registration", status="VIP_INVALID_MEMORY")
        kernel = self.kernel
        key = (handle, pages)
        done_ns = self._fault_table.get(key)
        frames = reg.region.frames
        if done_ns is not None and kernel.clock.now_ns <= done_ns \
                and all(frames[i] != INVALID_FRAME for i in pages):
            self.odp_faults_coalesced += 1
            self._fault_table.move_to_end(key)
            kernel.events.record(
                FAULT_COALESCED, handle=handle, pages=len(pages),
                pid=reg.pid, frames=tuple(frames[i] for i in pages),
                token=token, actor="fault_service")
            return {i: frames[i] for i in pages}

        task = kernel.find_task(reg.pid)
        crash_if_due(self.fault_plan, kernel, task, "odp_fault.start")
        kernel.clock.charge(kernel.costs.odp_fault_service_base_ns, "odp")
        patched = self.backend.fault_in(kernel, task, cookie, pages)
        crash_if_due(self.fault_plan, kernel, task, "odp_fault.pinned")
        self.nic.tpt.patch(handle, patched)
        kernel.clock.charge(
            len(patched) * kernel.costs.tpt_update_ns, "odp")
        for index, frame in patched.items():
            self._odp_resident.setdefault(frame, set()).add((handle, index))
        while len(self._fault_table) >= ODP_FAULT_TABLE_ENTRIES:
            self._fault_table.popitem(last=False)
        self._fault_table[key] = kernel.clock.now_ns
        self.odp_faults_serviced += 1
        kernel.events.record(
            FAULT_SERVICE, handle=handle, pages=len(pages), pid=reg.pid,
            frames=tuple(patched[i] for i in pages), token=token,
            actor="fault_service")
        crash_if_due(self.fault_plan, kernel, task, "odp_fault.patched")
        return patched

    def try_evict_frame(self, frame: int) -> None:
        """Release this driver's ODP pins on ``frame`` — the ``"evict"``
        invalidation reclaim sends for a pinned frame it met.

        Fence the NIC first (invalidate the TPT entries, flushing cached
        translations), then release the pins — the inverse of the fault
        service.  Reclaim steals the frame if that left it unpinned.
        """
        owners = self._odp_resident.pop(frame, None)
        if not owners:
            return
        kernel = self.kernel
        by_handle: dict[int, list[int]] = {}
        for handle, index in owners:
            by_handle.setdefault(handle, []).append(index)
        for handle, indices in sorted(by_handle.items()):
            reg = self.registrations.get(handle)
            if reg is None:
                continue
            # Fence before unpin: the NIC must stop translating through
            # the frame before the pin that kept it resident goes away.
            # The FENCE release is keyed by handle so a later fault
            # service of this region is ordered after the invalidation.
            if kernel.events.active:
                kernel.events.emit(FENCE, handle=handle, frame=frame,
                                   pages=tuple(sorted(indices)),
                                   actor="agent")
            self.nic.tpt.invalidate_pages(handle, sorted(indices))
            assert isinstance(self.backend, OdpLocking)
            self.backend.evict_frame(kernel, reg.region.lock_cookie, frame)
            self.odp_pages_evicted += len(indices)
            kernel.events.record(ODP_EVICT, handle=handle, frame=frame,
                                 pages=len(indices), pid=reg.pid,
                                 actor="agent")

    # ---------------------------------------------------- kernel notifier

    def release(self, task: "Task", phase: str) -> None:
        """Exit-path reclamation (phase ``"drivers"``): walk this
        driver's per-pid state.

        Order matters — VIs first (peers complete with CONN_LOST and the
        victim's descriptors flush before the memory they name is
        unpinned), then registrations (through the active locking
        strategy, so pin refcounts actually reach zero; removing a TPT
        entry also invalidates the NIC's translation LRU), then the
        protection tag.
        """
        if phase != "drivers":
            return
        pid = task.pid
        vis = descriptors = 0
        for vi in [v for v in self.nic.vis.values() if v.owner_pid == pid]:
            descriptors += self.nic.teardown_vi(vi.vi_id,
                                                reason="owner_exit")
            vis += 1
        regs = 0
        for reg in self.registrations_of(pid):
            self.deregister_memory(reg.handle)
            regs += 1
        self._tags.pop(pid, None)
        if vis or regs or descriptors:
            self.kernel.trace.emit("via_task_teardown", pid=pid, vis=vis,
                                   registrations=regs,
                                   descriptors=descriptors)

    def invalidate_range(self, task: "Task", start_vpn: int,
                         end_vpn: int, cause: str) -> None:
        """``"evict"``: offer the range's frames to :meth:`try_evict_frame`.
        ``"unmap"``: force-deregister registrations overlapping the range;
        else the frames are freed (or recycled) while the NIC keeps
        DMA-ing through stale TPT entries.
        """
        if cause == "evict":
            for vpn in range(start_vpn, end_vpn):
                self.try_evict_frame(task.page_table.lookup(vpn).frame)
            return
        for reg in self.registrations_of(task.pid):
            r_first = reg.va // PAGE_SIZE
            r_last = (reg.va + reg.nbytes - 1) // PAGE_SIZE
            if r_first < end_vpn and r_last >= start_vpn:
                self.kernel.trace.emit(
                    "via_munmap_deregister", pid=task.pid,
                    handle=reg.handle, va=reg.va, nbytes=reg.nbytes)
                self.deregister_memory(reg.handle)

    # -------------------------------------------------------------------- VIs

    def create_vi(self, task: "Task",
                  reliability: ReliabilityLevel =
                  ReliabilityLevel.RELIABLE_DELIVERY,
                  send_cq: CompletionQueue | None = None,
                  recv_cq: CompletionQueue | None = None
                  ) -> VirtualInterface:
        """Create a VI for ``task`` under its protection tag."""
        self.kernel.clock.charge(self.kernel.costs.syscall_ns, "via_setup")
        tag = self.prot_tag(task)
        return self.nic.create_vi(task.pid, tag, reliability=reliability,
                                  send_cq=send_cq, recv_cq=recv_cq)
