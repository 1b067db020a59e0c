"""The kernel facade: boots the machine, owns all subsystems, and exposes
the syscall surface the experiments use.

Construction parameters size the machine; the defaults give a small box
(4 MiB RAM, 16 MiB swap) on which memory pressure is easy to create —
the simulated analogue of the paper's test machine once the *allocator*
process "allocates as much memory as possible forcing a large amount of
pages to be swapped out".
"""

from __future__ import annotations

from repro.analysis.events import MUNMAP, PIN, TASK_EXIT, UNPIN, EventHub
from repro.errors import InvalidArgument, OutOfMemory, SegmentationFault
from repro.hw.dma import DMAEngine
from repro.hw.physmem import PAGE_SIZE, PhysicalMemory
from repro.hw.swapdev import SwapDevice
from repro.kernel import paging
from repro.kernel.fault import fault_in, handle_fault
from repro.kernel.flags import (
    PG_LOCKED, PG_PAGECACHE, VM_READ, VM_WRITE,
)
from repro.kernel.kiobuf import Kiobuf, map_user_kiobuf, unmap_kiobuf
from repro.kernel.mlock import (
    do_mlock, do_munlock, mlock_with_cap_dance, sys_mlock, sys_munlock,
)
from repro.kernel.page import PageDescriptor
from repro.kernel.pagemap import PageMap
from repro.kernel.task import Task
from repro.kernel.vma import VMArea
from repro.sim.clock import SimClock
from repro.sim.costs import CostModel
from repro.sim.trace import Trace


class Kernel:
    """One booted simulated machine."""

    def __init__(self,
                 num_frames: int = 1024,
                 swap_slots: int = 4096,
                 costs: CostModel | None = None,
                 min_free_pages: int = 8,
                 reserved_frames: int = 4,
                 clock: SimClock | None = None,
                 trace: Trace | None = None) -> None:
        self.costs = costs if costs is not None else CostModel()
        # A clock and a trace (with the metrics it feeds) may be shared
        # across several machines: a cluster measures end-to-end latency
        # on one timeline and rolls its metrics into one snapshot.
        self.clock = clock if clock is not None else SimClock()
        self.trace = trace if trace is not None else Trace(self.clock)
        self.obs = self.trace.obs
        # The analysis event stream is always per-kernel (frame numbers
        # and pids are host-local, so a shared hub would alias them);
        # a Machine relabels ``events.host`` with its own name.  The
        # hub writes the trace records of the facts it publishes.
        self.events = EventHub(self.clock, self.trace)
        #: the installed FaultPlan, if any (see repro.sim.faults.install);
        #: kernel-internal crash points (kiobuf pinning) consult it
        self.fault_plan: object | None = None
        self.phys = PhysicalMemory(num_frames)
        self.swap = SwapDevice(swap_slots, self.clock, self.costs)
        self.pagemap = PageMap(num_frames, self.clock, self.costs,
                               self.trace, reserved_frames=reserved_frames)
        self.dma = DMAEngine(self.phys, self.clock, self.costs, self.trace,
                             name="host-dma", events=self.events)
        #: live tasks in creation order (reclaim's victim order)
        self.tasks: list[Task] = []
        #: pid → live task, kept in step with ``tasks``
        self.tasks_by_pid: dict[int, Task] = {}
        self.min_free_pages = min_free_pages
        #: simulated page/buffer cache: set of frames
        self.page_cache: set[int] = set()
        #: live kiobufs by id
        self.kiobufs: dict[int, Kiobuf] = {}
        #: the frames of every kiobuf map_user_kiobuf has pinned pages
        #: for but not yet recorded, innermost last; they explain those
        #: pins to the pin-leak audit
        self.pinning: list[list[int]] = []
        self._next_pid = 1
        self._next_kiobuf_id = 1
        self._clock_hand = 0                    # shrink_mmap clock position
        self._swap_cnt: dict[int, int] = {}     # swap_out victim counters
        self._task_swap_hand: dict[int, int] = {}
        #: VM→driver notifiers (Linux's ``mmu_notifier``), walked as a
        #: copy.  ``invalidate_range(task, start_vpn, end_vpn, cause)``
        #: runs before translations drop: ``"unmap"`` from ``sys_munmap``
        #: (not on the exit path), ``"evict"`` from ``swap_out`` per
        #: pinned page (an owner may fence and unpin; reclaim rereads
        #: ``pinned``).  ``release(task, phase)`` runs on exit:
        #: ``"drivers"`` on a clean exit while the task is findable and
        #: mapped, ``"teardown"`` on every exit once the task is gone.
        self.notifiers: list = []
        #: the orphan reaper, once attached (see repro.kernel.reaper);
        #: try_to_free_pages drafts it when ordinary reclaim falls short
        self.reaper = None

    # ------------------------------------------------------------------ tasks

    def create_task(self, uid: int = 1000, name: str = "") -> Task:
        """Spawn a new task with an empty address space."""
        task = Task(self, self._next_pid, uid=uid, name=name)
        self._next_pid += 1
        self.tasks.append(task)
        self.tasks_by_pid[task.pid] = task
        return task

    def find_task(self, pid: int) -> Task:
        """Look a task up by pid."""
        task = self.tasks_by_pid.get(pid)
        if task is None:
            raise InvalidArgument(f"no task with pid {pid}")
        return task

    def fork_task(self, parent: Task, name: str = "") -> Task:
        """``fork()``: clone the parent's address space copy-on-write.

        Every resident page becomes shared read-only between parent and
        child; the first write by either side triggers the COW break the
        paper mentions as a ``get_free_pages`` client ("for instance to
        execute a copy-on-write operation").

        Simplification (irrelevant to the paper's mechanisms): pages
        currently in swap are faulted back in before sharing — the real
        kernel shares swap entries through the swap cache instead.
        """
        child = self.create_task(uid=parent.uid,
                                 name=name or f"{parent.name}-child")
        child.capabilities = set(parent.capabilities)
        child.mmap_hint_vpn = parent.mmap_hint_vpn
        for area in parent.vmas:
            child.vmas.insert(VMArea(area.start_vpn, area.end_vpn,
                                     area.flags, name=area.name))
        for vpn in sorted(parent.page_table._entries):
            pte = parent.page_table.lookup(vpn)
            if pte.swapped:
                handle_fault(self, parent, vpn, write=False)
                pte = parent.page_table.lookup(vpn)
            if not pte.present:
                continue
            pd = self.pagemap.get_page(pte.frame)
            # First share establishes two sharers; later forks add one.
            pd.cow_shares = (pd.cow_shares + 1) if pd.cow_shares \
                else 2
            pte.writable = False
            pte.cow = True
            cpte = child.page_table.set_mapping(vpn, pte.frame,
                                                writable=False)
            cpte.cow = True
            self.clock.charge(self.costs.pagetable_walk_ns, "fork")
        self.clock.charge(self.costs.syscall_ns, "fork")
        self.trace.emit("fork", parent=parent.pid, child=child.pid)
        return child

    def exit_task(self, task: Task) -> None:
        """Tear a task down cleanly: release the drivers (VIs torn
        down, registrations dropped, pins released), unmap everything,
        free frames and swap."""
        self.trace.emit("task_exit", pid=task.pid, name=task.name)
        self._teardown_task(task, cleanup=True)

    def kill(self, pid: int, *, cleanup: bool = True) -> Task:
        """Kill a task by pid (fatal signal / crash).

        With ``cleanup=True`` this is ``exit_task``: the exit path
        releases the drivers so no pinned frame or TPT entry outlives the
        process.  ``cleanup=False`` models a *buggy* teardown — the
        address space is still freed (the core kernel always does that)
        but the drivers are never released, leaking what they held; the
        orphan reaper exists to converge that state.  Returns the dead
        task so callers can inspect its (now unmapped) identity.
        """
        task = self.find_task(pid)
        self.trace.emit("task_kill", pid=pid, name=task.name,
                        cleanup=cleanup)
        self._teardown_task(task, cleanup=cleanup)
        return task

    def _teardown_task(self, task: Task, cleanup: bool) -> None:
        if cleanup:
            # Drivers go first, while the task is still findable: locking
            # backends that need the victim's page tables (the mlock
            # family) must unlock before the address space goes.
            for notifier in list(self.notifiers):
                notifier.release(task, "drivers")
            # Kiobufs the drivers did not release (a crash mid-registration
            # pins pages before any registration record exists).
            for kio in [k for k in self.kiobufs.values()
                        if k.pid == task.pid and k.mapped]:
                unmap_kiobuf(self, kio)
        for area in list(task.vmas):
            # During a clean exit the drivers already dropped every
            # registration, so an "unmap" invalidation is pointless;
            # during a buggy teardown (cleanup=False) skipping it is
            # the bug being modelled.
            self.sys_munmap(task, area.start_vpn * PAGE_SIZE, area.npages,
                            notify=False)
        task.alive = False
        self.tasks.remove(task)
        del self.tasks_by_pid[task.pid]
        self._swap_cnt.pop(task.pid, None)
        self._task_swap_hand.pop(task.pid, None)
        for notifier in list(self.notifiers):
            notifier.release(task, "teardown")
        if self.events.active:
            self.events.emit(TASK_EXIT, pid=task.pid, cleanup=cleanup)

    # ------------------------------------------------------- frame allocation

    def alloc_frame(self, tag: str = "") -> PageDescriptor:
        """Allocate one frame, invoking reclaim when the free list runs
        low — the ``get_free_pages → try_to_free_pages`` loop."""
        if self.pagemap.free_count <= self.min_free_pages:
            paging.try_to_free_pages(
                self, self.min_free_pages - self.pagemap.free_count + 4)
        try:
            return self.pagemap.alloc(tag=tag)
        except OutOfMemory:
            freed = paging.try_to_free_pages(self, 4)
            if freed == 0:
                raise OutOfMemory(
                    "out of memory: reclaim freed nothing "
                    f"(free={self.pagemap.free_count})") from None
            return self.pagemap.alloc(tag=tag)

    def apply_pressure(self) -> int:
        """Force reclaim of one frame more than is free — a direct
        handle for tests that want pressure without an allocator task."""
        return paging.try_to_free_pages(self, self.pagemap.free_count + 1)

    # ------------------------------------------------------------- mmap/munmap

    def sys_mmap(self, task: Task, npages: int, writable: bool = True,
                 name: str = "") -> int:
        """Map ``npages`` of anonymous memory; returns the base address.

        Demand-paged: no frames are allocated until the task touches the
        pages (step 1 of the experiment exists precisely to defeat this).
        """
        self.clock.charge(self.costs.syscall_ns, "syscall")
        if npages <= 0:
            raise InvalidArgument(f"cannot map {npages} pages")
        flags = VM_READ | (VM_WRITE if writable else 0)
        start_vpn = task.mmap_hint_vpn
        task.mmap_hint_vpn += npages + 1   # guard page gap
        task.vmas.insert(VMArea(start_vpn, start_vpn + npages, flags,
                                name=name or "anon"))
        return start_vpn * PAGE_SIZE

    def sys_munmap(self, task: Task, va: int, npages: int, *,
                   notify: bool = True) -> None:
        """Unmap ``npages`` at ``va``: drop VMAs, PTEs, frames, swap
        slots.

        The ``"unmap"`` invalidation (drivers force-deregistering
        overlapping registrations) runs *before* anything is dropped, so
        pins are released while the frames still exist; ``notify=False``
        is the exit path's internal opt-out.
        """
        self.clock.charge(self.costs.syscall_ns, "syscall")
        if va % PAGE_SIZE:
            raise InvalidArgument("munmap address must be page-aligned")
        start_vpn = va // PAGE_SIZE
        end_vpn = start_vpn + npages
        if notify:
            for notifier in list(self.notifiers):
                notifier.invalidate_range(task, start_vpn, end_vpn, "unmap")
        if self.events.active:
            self.events.emit(MUNMAP, pid=task.pid, start_vpn=start_vpn,
                             end_vpn=end_vpn)
        task.vmas.remove_range(start_vpn, end_vpn)
        for vpn in range(start_vpn, end_vpn):
            pte = task.page_table.lookup(vpn)
            if pte is None:
                continue
            if pte.present:
                pd = self.pagemap.page(pte.frame)
                if pd.mapping == (task.pid, vpn):
                    pd.mapping = None
                if pte.cow and pd.cow_shares > 0:
                    pd.cow_shares -= 1
                self.pagemap.put_page(pte.frame)
            elif pte.swapped:
                self.swap.free_slot(pte.swap_slot)
            task.page_table.clear(vpn)

    # ------------------------------------------------------------- user access

    def _resolve_for_access(self, task: Task, vpn: int, write: bool) -> int:
        """Fault ``vpn`` in as needed for an access; returns the frame."""
        pte = task.page_table.lookup(vpn)
        if (pte is None or not pte.present
                or (write and not pte.writable)):
            frame = handle_fault(self, task, vpn, write=write)
            pte = task.page_table.lookup(vpn)
        else:
            frame = pte.frame
        pte.accessed = True
        if write:
            pte.dirty = True
        return frame

    def user_write(self, task: Task, va: int, data: bytes) -> None:
        """Store ``data`` at ``va`` on behalf of ``task`` (CPU store)."""
        self.clock.charge(self.costs.memcpy_ns(len(data)), "cpu_copy")
        pos = 0
        while pos < len(data):
            vpn = (va + pos) // PAGE_SIZE
            offset = (va + pos) % PAGE_SIZE
            n = min(len(data) - pos, PAGE_SIZE - offset)
            frame = self._resolve_for_access(task, vpn, write=True)
            self.phys.write(frame, offset, data[pos:pos + n])
            pos += n

    def user_read(self, task: Task, va: int, length: int) -> bytes:
        """Load ``length`` bytes from ``va`` on behalf of ``task``."""
        self.clock.charge(self.costs.memcpy_ns(length), "cpu_copy")
        out = bytearray()
        pos = 0
        while pos < length:
            vpn = (va + pos) // PAGE_SIZE
            offset = (va + pos) % PAGE_SIZE
            n = min(length - pos, PAGE_SIZE - offset)
            frame = self._resolve_for_access(task, vpn, write=False)
            out += self.phys.read(frame, offset, n)
            pos += n
        return bytes(out)

    def virt_to_phys(self, task: Task, va: int) -> int:
        """Walk the page tables: flat physical address backing ``va``.

        Raises SegmentationFault if the page is not resident.  This is
        the operation mainline policy forbids drivers from doing — the
        refcount-style locking backends call it anyway, as their real
        counterparts did.
        """
        self.clock.charge(self.costs.pagetable_walk_ns, "mm")
        vpn = va // PAGE_SIZE
        pte = task.page_table.lookup(vpn)
        if pte is None or not pte.present:
            raise SegmentationFault(
                f"virt_to_phys: vpn {vpn} of {task.name} not resident")
        return pte.frame * PAGE_SIZE + (va % PAGE_SIZE)

    # --------------------------------------------------------- mlock interface

    def sys_mlock(self, task: Task, va: int, nbytes: int) -> None:
        """``mlock(2)`` — see :mod:`repro.kernel.mlock`."""
        sys_mlock(self, task, va, nbytes)

    def sys_munlock(self, task: Task, va: int, nbytes: int) -> None:
        """``munlock(2)`` — see :mod:`repro.kernel.mlock`."""
        sys_munlock(self, task, va, nbytes)

    def do_mlock(self, task: Task, va: int, nbytes: int) -> None:
        """Unchecked ``do_mlock`` (User-DMA-patch path)."""
        do_mlock(self, task, va, nbytes)

    def do_munlock(self, task: Task, va: int, nbytes: int) -> None:
        """Unchecked ``do_munlock``."""
        do_munlock(self, task, va, nbytes)

    def mlock_with_cap_dance(self, task: Task, va: int, nbytes: int) -> None:
        """cap_raise → sys_mlock → cap_lower (Sec. 3.2 variant 2)."""
        mlock_with_cap_dance(self, task, va, nbytes)

    # --------------------------------------------------------- kiobuf interface

    def map_user_kiobuf(self, task: Task, va: int, nbytes: int,
                        write: bool = True) -> Kiobuf:
        """Map a user range into a kiobuf — see
        :mod:`repro.kernel.kiobuf`."""
        return map_user_kiobuf(self, task, va, nbytes, write=write)

    def unmap_kiobuf(self, kio: Kiobuf) -> None:
        """Unmap a kiobuf."""
        unmap_kiobuf(self, kio)

    # ----------------------------------------------- get/pin_user_pages

    def pin_user_page(self, task: Task, vpn: int, write: bool = True) -> int:
        """Fault one user page in and pin it — the audited
        ``pin_user_pages``-style entry point the ODP fault service uses.

        Unlike :meth:`map_user_kiobuf` there is no record object: the
        caller owns the (reference, pin) pair and must release it with
        :meth:`unpin_user_page`.  Returns the backing frame.
        """
        pte = task.page_table.lookup(vpn)
        if pte is None or not pte.present or (write and not pte.writable):
            pte = fault_in(self, task, vpn, write=write)
        pd = self.pagemap.get_page(pte.frame)
        pd.pin()
        self.clock.charge(self.costs.page_lock_ns, "odp")
        if self.events.active:
            self.events.emit(PIN, frames=(pte.frame,), pid=task.pid)
        return pte.frame

    def unpin_user_page(self, frame: int, pid: int) -> None:
        """Drop one (reference, pin) pair taken by :meth:`pin_user_page`."""
        pd = self.pagemap.page(frame)
        pd.unpin()
        self.clock.charge(self.costs.page_lock_ns, "odp")
        self.pagemap.put_page(frame)
        if self.events.active:
            self.events.emit(UNPIN, frames=(frame,), pid=pid)

    # -------------------------------------------------- page cache (for E6 etc.)

    def add_page_cache_page(self) -> PageDescriptor:
        """Allocate a frame into the simulated page/buffer cache (it
        becomes a shrink_mmap reclaim candidate)."""
        pd = self.alloc_frame(tag="pagecache")
        pd.set_flag(PG_PAGECACHE)
        self.page_cache.add(pd.frame)
        return pd

    def lock_page(self, frame: int) -> None:
        """Kernel-side ``lock_page``: set PG_locked for an I/O in flight."""
        self.clock.charge(self.costs.page_lock_ns, "mm")
        self.pagemap.page(frame).set_flag(PG_LOCKED)

    def unlock_page(self, frame: int) -> None:
        """Kernel-side ``unlock_page``."""
        self.clock.charge(self.costs.page_lock_ns, "mm")
        self.pagemap.page(frame).clear_flag(PG_LOCKED)

    # ----------------------------------------------------------------- stats

    @property
    def free_pages(self) -> int:
        """Frames currently on the free list."""
        return self.pagemap.free_count

    def memory_stats(self) -> dict:
        """Snapshot of memory accounting for reports."""
        resident = sum(t.resident_pages() for t in self.tasks)
        return {
            "total_frames": self.pagemap.num_frames,
            "free_frames": self.pagemap.free_count,
            "resident_task_pages": resident,
            "page_cache_pages": len(self.page_cache),
            "swap_slots_in_use": self.swap.slots_in_use,
            "swap_writes": self.swap.writes,
            "swap_reads": self.swap.reads,
            "orphan_frames": sum(
                1 for frame in self.pagemap.table.orphan_candidates
                if self.pagemap.table.counts[frame] > 0),
        }
