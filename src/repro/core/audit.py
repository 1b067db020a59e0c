"""Consistency audits.

The hardware cannot detect a stale TPT ("the NIC will use wrong memory
addresses for its DMA operations.  Communication fails, the system
stability, however, is not affected") — so the *experimenter* needs an
oracle.  These audits are that oracle: they compare the NIC's recorded
translations against the owning process's live page tables, and check
the kernel's own accounting invariants.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import asdict, dataclass
from itertools import chain
from operator import is_
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.errors import (
    InvalidArgument, InvariantViolation, PageAccountingError,
)
from repro.via.machine import hosts_of
from repro.via.tpt import INVALID_FRAME, FrameList

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.kernel.kiobuf import Kiobuf
    from repro.kernel.pagemap import PageMap
    from repro.via.kernel_agent import KernelAgent


@dataclass(frozen=True)
class StaleEntry:
    """One TPT page entry that no longer matches the owner's mapping."""

    handle: int
    pid: int
    vpn: int
    tpt_frame: int
    actual_frame: int | None    #: None ⇔ page not resident


def audit_tpt_consistency(agent: "KernelAgent") -> list[StaleEntry]:
    """Compare every live registration's recorded frames against the
    owning task's current page table.

    Returns the stale entries (empty ⇔ the NIC and the MMU agree — the
    correctness criterion for a locking mechanism).

    The check runs per owner, not per registration: one task lookup,
    then the owner's registered vpns (from the agent's owner index)
    zipped against its recorded frames, read live.  Only when a page
    disagrees does the per-registration walk run, which builds the
    report (and skips not-yet-translated ODP entries).
    """
    find_task = agent.kernel.find_task
    for pid, vpns, frame_lists in agent.owner_pages():
        try:
            task = find_task(pid)
        except InvalidArgument:
            # Owner exited; its registrations dangle by definition.
            # Only the lookup failure is absorbed — a broad except here
            # would swallow ProcessKilled from a crash point firing
            # inside an audited callback.
            continue
        pte_of = task.page_table._entries.get
        for vpn, tpt_frame in zip(vpns, chain.from_iterable(frame_lists)):
            pte = pte_of(vpn)
            if pte is None or not pte.present or pte.frame != tpt_frame:
                return _stale_entries(agent)
    return []


def _stale_entries(agent: "KernelAgent") -> list[StaleEntry]:
    """The per-entry walk behind :func:`audit_tpt_consistency`."""
    kernel = agent.kernel
    stale: list[StaleEntry] = []
    for reg in agent.registrations.values():
        try:
            task = kernel.find_task(reg.pid)
        except InvalidArgument:
            continue
        first_vpn = reg.region.first_vpn
        for i, tpt_frame in enumerate(reg.region.frames):
            if reg.region.odp and tpt_frame == INVALID_FRAME:
                # Not-yet-translated ODP entry: the NIC suspends and
                # fault-services instead of DMAing through it, so it
                # cannot be stale — there is nothing to be stale *from*.
                continue
            vpn = first_vpn + i
            pte = task.page_table.lookup(vpn)
            actual = pte.frame if (pte is not None and pte.present) else None
            if actual != tpt_frame:
                stale.append(StaleEntry(
                    handle=reg.handle, pid=reg.pid, vpn=vpn,
                    tpt_frame=tpt_frame, actual_frame=actual))
    return stale


@dataclass(frozen=True)
class LeakedPin:
    """A frame holding more pins than live registrations explain."""

    frame: int
    pin_count: int
    expected: int


def _registered_frames(agents: "Iterable[KernelAgent]") -> array:
    """Every page's recorded frame across ``agents``, one
    ``array('q')``: an agent's own cached array when there is one
    agent, their concatenation otherwise."""
    arrays = [agent.registered_frames() for agent in agents]
    return arrays[0] if len(arrays) == 1 else sum(arrays, array("q"))


def _in_flight_frames(agents: "Iterable[KernelAgent]",
                      kiobufs: "Iterable[Kiobuf]") -> Iterator[list[int]]:
    """The frame lists whose pins live state explains beyond the
    recorded registrations: every registration an agent is still
    deregistering (:attr:`~repro.via.kernel_agent.KernelAgent.releasing`:
    record dropped, pins not yet), every kiobuf the agents' kernels are
    still building (:attr:`~repro.kernel.kernel.Kernel.pinning`: pins
    taken, record not yet), then every *mapped* kiobuf in
    ``kiobufs``."""
    kernels: list = []
    for agent in agents:
        yield from agent.releasing
        if agent.kernel not in kernels:
            kernels.append(agent.kernel)
    for kernel in kernels:
        yield from kernel.pinning
    for kio in kiobufs:
        if kio.mapped:
            yield kio.frames


def _explaining_frames(agents: "Iterable[KernelAgent]",
                       kiobufs: "Iterable[Kiobuf]" = ()) -> Iterator[int]:
    """Every frame that live state explains one pin on, with
    repetition: each page of every registration recorded in
    ``agents``, then each page of :func:`_in_flight_frames`."""
    agents = list(agents)
    registered = chain.from_iterable(
        frame_lists
        for agent in agents
        for _pid, _vpns, frame_lists in agent.owner_pages())
    return chain.from_iterable(
        chain(registered, _in_flight_frames(agents, kiobufs)))


def explained_pins(agents: "Iterable[KernelAgent]",
                   kiobufs: "Iterable[Kiobuf]" = ()) -> Counter[int]:
    """How many pins live state explains on each frame: one per page of
    every registration recorded in ``agents`` or being deregistered by
    one, one per frame pinned so far by a kiobuf their kernels are
    building, plus one per frame of every *mapped* kiobuf in
    ``kiobufs``."""
    return Counter(_explaining_frames(agents, kiobufs))


def audit_pin_leaks(kernel: "Kernel", *agents: "KernelAgent",
                    count_kiobufs: bool = False) -> list[LeakedPin]:
    """Find frames whose pin count exceeds what live registrations
    explain — the leak signature of an error path that dropped a
    registration record without releasing its pin.

    Each live registration of a pin-based backend (the paper's kiobuf
    proposal) holds exactly one pin per page of its range.  Pins held by
    non-VIA users (raw I/O in flight) are accounted the same way only if
    their owner is passed in, so call this at quiesce points: after a
    chaos run has completed or failed every transfer and released its
    buffers, every remaining pin must be explained by a registration
    still recorded in some agent.  Backends that do not pin
    (refcount-only) vacuously pass.

    ``count_kiobufs=True`` additionally accepts pins held by live
    (mapped) kiobufs — required when sampling at arbitrary points (the
    invariant watchdog's cadence), where a registration may legitimately
    be halfway built: pinned by its kiobuf but not yet recorded.

    Cost model: the common, clean case is one
    :meth:`~repro.kernel.page.FrameTable.pins_exceed` pass — a
    ``bincount`` of the registered frames compared with the whole
    ``pin_counts`` column, C-level, a few µs at a thousand frames.  The
    registered frames are each agent's cached
    :meth:`~repro.via.kernel_agent.KernelAgent.registered_frames`
    array, so a sample between registration changes builds nothing.
    Only if a frame is short are the in-flight frames added (the
    registrations an agent is deregistering, the kiobufs being built,
    and the mapped kiobufs)
    and the pass repeated, and only if a frame is still short does the
    per-frame walk over the whole ``pin_counts`` column build the
    report.
    """
    table = kernel.pagemap.table
    registered = _registered_frames(agents)
    if not table.pins_exceed(registered):
        return []
    kiobufs = kernel.kiobufs.values() if count_kiobufs else ()
    in_flight = array("q", chain.from_iterable(
        _in_flight_frames(agents, kiobufs)))
    if in_flight and not table.pins_exceed(registered + in_flight):
        return []
    return _unexplained(kernel.pagemap, explained_pins(agents, kiobufs))


def _unexplained(pagemap: "PageMap",
                 expected: Counter[int]) -> list[LeakedPin]:
    """Every frame holding more pins than ``expected`` explains.  The
    walk reads the whole column, not the pinned set: a pin count
    written behind the set's back is a leak too."""
    return [LeakedPin(frame=frame, pin_count=pins,
                      expected=expected.get(frame, 0))
            for frame, pins in enumerate(pagemap.table.pin_counts)
            if pins > expected.get(frame, 0)]


def audit_kernel_invariants(kernel: "Kernel") -> None:
    """Raise :class:`~repro.errors.PageAccountingError` if any kernel
    accounting invariant is violated.

    Invariants:

    1. the free list is well-formed (no duplicates, refcount 0),
    2. no present PTE maps a free or reserved-for-kernel frame,
    3. a frame mapped by a present PTE has refcount ≥ 1,
    4. every swap slot is referenced by at most one PTE,
    5. pinned frames are in use (pin without reference is impossible),
       and the frame table's pinned set is exactly the frames with pins,
    6. each page table's resident counter equals its present PTEs.

    Invariant 5 visits only the frame table's pinned set, where every
    frame must have pins, and compares its size with the ``pin_counts``
    column's nonzero count; the negative-counter check reads the
    counters' sign bytes straight out of the columns.  Only a hit there
    walks the columns to name the frame.
    """
    kernel.pagemap.check_free_list()
    _audit_page_tables(kernel)
    _audit_frame_counters(kernel)


def _audit_page_tables(kernel: "Kernel") -> None:
    """Invariants 2, 3, 4 and 6: one walk over every task's PTEs.

    It reads the task list, each page table's entries (``present``,
    ``frame``, ``swap_slot``) and resident counter, and the frame
    table's ``counts`` and ``tags`` columns."""
    slot_owner: dict[int, tuple[int, int]] = {}
    table = kernel.pagemap.table
    counts = table.counts
    tags = table.tags
    for task in kernel.tasks:
        page_table = task.page_table
        entries = page_table._entries
        present = 0
        for vpn in page_table._sorted():
            pte = entries[vpn]
            if pte.present:
                present += 1
                if counts[pte.frame] < 1:
                    raise PageAccountingError(
                        f"pid {task.pid} vpn {vpn} maps free frame "
                        f"{pte.frame}")
                if tags[pte.frame] == "kernel-image":
                    raise PageAccountingError(
                        f"pid {task.pid} vpn {vpn} maps kernel frame "
                        f"{pte.frame}")
            elif pte.swapped:
                if pte.swap_slot in slot_owner:
                    other = slot_owner[pte.swap_slot]
                    raise PageAccountingError(
                        f"swap slot {pte.swap_slot} referenced by both "
                        f"{other} and {(task.pid, vpn)}")
                slot_owner[pte.swap_slot] = (task.pid, vpn)
        if page_table.resident_count() != present:
            raise PageAccountingError(
                f"pid {task.pid} resident counter "
                f"{page_table.resident_count()} != {present} present PTEs")


def _audit_frame_counters(kernel: "Kernel") -> None:
    """Invariant 5, a walk over the pinned set, and the counters' signs.

    It reads the pinned set and the ``counts`` and ``pin_counts``
    columns."""
    table = kernel.pagemap.table
    counts = table.counts
    pin_counts = table.pin_counts
    for frame in table.pinned:
        if counts[frame] == 0:
            raise PageAccountingError(
                f"frame {frame} pinned ({pin_counts[frame]}) but free")
        if pin_counts[frame] == 0:
            raise PageAccountingError(
                f"frame {frame} is in the pinned set with no pins")
    if table.any_negative_counter():
        for frame in range(table.num_frames):
            if pin_counts[frame] < 0 or counts[frame] < 0:
                raise PageAccountingError(
                    f"frame {frame} has negative counters")
    # No count is negative and every listed frame has pins, so equal
    # sizes mean the listed frames are exactly the nonzero ones.
    if len(table.pinned) + pin_counts.count(0) != len(pin_counts):
        for frame, pins in enumerate(pin_counts):
            if pins and frame not in table.pinned:
                raise PageAccountingError(
                    f"frame {frame} has {pins} pins but is missing "
                    f"from the pinned set")


class _WalkedState:
    """An exact fingerprint of everything a daemon sample reads, taken
    at a clean sample.  While :meth:`holds`, the sample would pass
    again, so it is skipped.

    Every fingerprint covers what the watchdog's audits read —
    :func:`~repro.kernel.pagemap.PageMap.check_free_list`,
    :func:`_audit_page_tables`, :func:`_audit_frame_counters`,
    :func:`audit_tpt_consistency` and the first pass of
    :func:`audit_pin_leaks`:

    * Tasks: the identity of every task and of its page table, in
      order, with the table's :attr:`~repro.kernel.pagetable.PageTable.gen`
      (bumped by every write of ``present``, ``frame`` or ``swap_slot``
      and by every entry removed) and its resident counter by value.
    * Frame columns: copies of ``counts``, ``pin_counts``, ``tags``
      and the pinned set, compared with the live ones at C level, so a
      direct write such as ``table.counts[f] = 0`` is seen.
    * Free list: a copy of ``PageMap._free`` and the size of the free
      set.
    * Agents: each agent's cached :meth:`owner_pages` list, compared by
      identity (the reference held here keeps the identity from being
      reused), which changes with the registration set; and
      :attr:`FrameList.epoch <repro.via.tpt.FrameList.epoch>`, which
      changes with any in-place write to a registration's frames.
    * ``pins_clean``: whether the registered frames alone explained
      every pin.  Only then is the pin-leak verdict kept; a state that
      needed the in-flight frames (a kiobuf being built, a registration
      being released) re-runs that audit at every sample.  The
      in-flight lists themselves need no copy: each starts with a pin
      or a record dropped and ends with a pin released or a kiobuf
      recorded, which the fields above see.

    The orphan reaper's fingerprint (``reaper=True``) also copies what
    only its scan phases read: the kernel's ``kiobufs`` dict, each
    agent's NIC ``vis`` dict and protection ``_tags``, and the frame
    table's ``orphan_candidates`` and ``mappings``.  The copies are made
    once, here, and compared with the live objects at each scan.
    """

    __slots__ = ("tasks", "counts", "pin_counts", "tags", "pinned",
                 "free", "free_set_len", "owner_pages", "epoch",
                 "pins_clean", "kiobufs", "vis", "agent_tags", "orphans",
                 "mappings")

    def __init__(self, kernel: "Kernel", agents: "list[KernelAgent]",
                 reaper: bool) -> None:
        pagemap = kernel.pagemap
        table = pagemap.table
        self.tasks = _task_generations(kernel)
        self.counts = table.counts[:]
        self.pin_counts = table.pin_counts[:]
        self.tags = table.tags[:]
        self.pinned = set(table.pinned)
        self.free = pagemap._free[:]
        self.free_set_len = len(pagemap._free_set)
        self.owner_pages = [agent.owner_pages() for agent in agents]
        self.epoch = FrameList.epoch[0]
        self.pins_clean = not table.pins_exceed(_registered_frames(agents))
        self.kiobufs = self.vis = self.agent_tags = None
        self.orphans = self.mappings = None
        if reaper:
            self.kiobufs = dict(kernel.kiobufs)
            self.vis = [dict(agent.nic.vis) for agent in agents]
            self.agent_tags = [dict(agent._tags) for agent in agents]
            self.orphans = set(table.orphan_candidates)
            self.mappings = table.mappings[:]

    @classmethod
    def take(cls, kernel: "Kernel", agents: "list[KernelAgent]", *,
             reaper: bool = False) -> "_WalkedState | None":
        """The fingerprint of the state now; for the reaper, None unless
        the pin-leak verdict is kept."""
        state = cls(kernel, agents, reaper)
        if reaper and not state.pins_clean:
            return None
        return state

    def holds(self, kernel: "Kernel", agents: "list[KernelAgent]") -> bool:
        """Would the sample read exactly what it read at the clean
        sample this fingerprint was taken at?"""
        pagemap = kernel.pagemap
        table = pagemap.table
        return (self.epoch == FrameList.epoch[0]
                and self.tasks == _task_generations(kernel)
                and self.counts == table.counts
                and self.pin_counts == table.pin_counts
                and self.tags == table.tags
                and self.pinned == table.pinned
                and self.free == pagemap._free
                and self.free_set_len == len(pagemap._free_set)
                and all(map(is_, self.owner_pages,
                            [agent.owner_pages() for agent in agents]))
                and (self.kiobufs is None
                     or (self.kiobufs == kernel.kiobufs
                         and self.orphans == table.orphan_candidates
                         and self.mappings == table.mappings
                         and self.vis == [agent.nic.vis for agent in agents]
                         and self.agent_tags == [agent._tags
                                                 for agent in agents])))


def _task_generations(kernel: "Kernel") -> list[tuple]:
    return [(task, task.page_table, task.page_table.gen,
             task.page_table._resident) for task in kernel.tasks]


class InvariantWatchdog:
    """``core.audit`` as a continuously-running checker.

    Armed on a :class:`~repro.via.machine.Machine` or
    :class:`~repro.via.machine.Cluster` (or a raw ``(kernel, agents)``
    pair), the watchdog samples all three audits on a sim-clock cadence
    — a self-rescheduling calendar event per clock, like the reaper —
    and at every task-teardown boundary.  A failed audit raises
    :class:`~repro.errors.InvariantViolation` carrying a structured
    snapshot, so the violation surfaces at the operation that caused it
    instead of at the end of the run.

    A sample re-runs its audits exactly when their inputs changed.  A
    sample that passes stores a :class:`_WalkedState` per armed pair, an
    exact fingerprint of everything the audits read: the free list,
    every task's PTEs, the frame columns and the pinned set, and every
    registration's TPT frames.  While it still holds, the next sample
    costs one fingerprint compare and keeps the clean verdict instead
    of running the free-list check, the walks and the TPT check.  The
    pin-leak verdict is kept too, but only when the registered frames
    alone explained every pin; a state that needed the in-flight frames
    (a kiobuf being built, a registration being released) runs the
    pin-leak audit at every sample.  Any violation drops the
    fingerprint, so the sample after one audits again.  ``checks_run``
    counts every sample; ``walks_run`` counts those that audited.

    Cadence catch-up follows the calendar's fire-once semantics: a
    charge that jumps several intervals yields one sample, and the next
    deadline realigns from the current time.
    """

    def __init__(self, *, interval_ns: int = 1_000_000) -> None:
        self.interval_ns = interval_ns
        self.checks_run = 0
        self.walks_run = 0
        self.violations = 0
        self.armed = False
        self._pairs: list[tuple] = []     #: (kernel, [agents])
        #: pair index → the fingerprint of its last clean sample
        self._clean: dict[int, _WalkedState] = {}
        self._in_check = False
        #: one ``(clock, cell)`` per cadence chain; the mutable cell
        #: holds the chain's pending event
        self._cadences: list[tuple] = []

    # --------------------------------------------------------------- arming

    def arm(self, target) -> "InvariantWatchdog":
        """Arm on a Machine, a Cluster, or a ``(kernel, agents)`` pair."""
        pairs = hosts_of(target)
        self._pairs.extend(pairs)
        self.armed = True
        # The first sample's column passes need numpy: load it now,
        # while the system is being built, not inside a timed operation.
        import numpy  # noqa: F401
        clocks = {id(k.clock): k.clock for k, _ in pairs}
        for clock in clocks.values():
            # First cadence sample is one interval out, not immediately;
            # each chain reschedules itself.
            self._start_cadence(clock)
        for kernel, _ in pairs:
            kernel.notifiers.append(self)
        return self

    def _start_cadence(self, clock) -> None:
        cell: list = [None]

        def fire(now_ns: int) -> None:
            if not self.armed:
                return
            # Reschedule before checking: a violation raised out of the
            # check must not silence future samples.  Fire-once
            # catch-up — the next deadline realigns from now.
            cell[0] = clock.schedule_after(
                self.interval_ns, fire, name="watchdog.cadence")
            self.check(boundary="cadence")

        cell[0] = clock.schedule_after(
            self.interval_ns, fire, name="watchdog.cadence")
        self._cadences.append((clock, cell))

    def disarm(self) -> None:
        """Stop all sampling."""
        for clock, cell in self._cadences:
            if cell[0] is not None:
                clock.cancel(cell[0])
        self._cadences.clear()
        for kernel, _ in self._pairs:
            while self in kernel.notifiers:
                kernel.notifiers.remove(self)
        self.armed = False

    def release(self, task, phase: str) -> None:
        """Kernel notifier: the teardown boundary, once the task is gone."""
        if phase == "teardown":
            self.check(boundary=f"teardown pid {task.pid}")

    def invalidate_range(self, task, start_vpn, end_vpn, cause) -> None:
        """Kernel notifier: range invalidations are not a boundary."""

    # -------------------------------------------------------------- checking

    def check(self, boundary: str = "manual") -> None:
        """Run all three audits over every armed pair now."""
        if self._in_check:
            return
        self._in_check = True
        try:
            for index, (kernel, agents) in enumerate(self._pairs):
                self._check_one(index, kernel, agents, boundary)
        finally:
            self._in_check = False

    def _check_one(self, index: int, kernel, agents,
                   boundary: str) -> None:
        self.checks_run += 1
        # Popped, not read: only a sample that passes puts one back.
        clean = self._clean.pop(index, None)
        if clean is None or not clean.holds(kernel, agents):
            self.walks_run += 1
            self._audit(kernel, agents, boundary)
            clean = _WalkedState.take(kernel, agents)
        elif not clean.pins_clean:
            self._audit_pins(kernel, agents, boundary)
        if clean is not None:
            self._clean[index] = clean

    def _audit(self, kernel, agents, boundary: str) -> None:
        """Every audit, in order: the free list, the walks, the TPT and
        the pin leaks."""
        try:
            kernel.pagemap.check_free_list()
            _audit_page_tables(kernel)
            _audit_frame_counters(kernel)
        except PageAccountingError as exc:
            raise self._violation(
                "kernel", kernel, boundary, str(exc)) from exc
        for agent in agents:
            stale = audit_tpt_consistency(agent)
            if stale:
                raise self._violation(
                    "stale_tpt", kernel, boundary,
                    f"{len(stale)} stale TPT entries",
                    stale=[asdict(s) for s in stale])
        self._audit_pins(kernel, agents, boundary)

    def _audit_pins(self, kernel, agents, boundary: str) -> None:
        # count_kiobufs: a cadence sample can land mid-registration,
        # where the pin exists but the record does not yet.
        leaks = audit_pin_leaks(kernel, *agents, count_kiobufs=True)
        if leaks:
            raise self._violation(
                "pin_leak", kernel, boundary,
                f"{len(leaks)} leaked pins",
                leaks=[asdict(leak) for leak in leaks])

    def _violation(self, kind: str, kernel, boundary: str,
                   detail: str, **extra) -> InvariantViolation:
        self.violations += 1
        snapshot = {
            "kind": kind,
            "boundary": boundary,
            "now_ns": kernel.clock.now_ns,
            "checks_run": self.checks_run,
            "memory": kernel.memory_stats(),
            # The full metrics/span snapshot: with observability enabled
            # a violation arrives with the quantitative history (swap
            # activity, retransmits, cache churn) attached.
            "metrics": kernel.obs.snapshot(),
            **extra,
        }
        kernel.trace.emit("invariant_violation", violation=kind,
                          boundary=boundary, detail=detail)
        return InvariantViolation(
            f"invariant violation ({kind}) at {boundary}: {detail}",
            kind=kind, snapshot=snapshot)
