"""The orphan reaper: a periodic kernel daemon converging leaked state.

A clean process exit reclaims everything through the drivers' release
— but teardown can be buggy (``Kernel.kill(pid, cleanup=False)``), a
crash can land between a pin and its registration record, and a backend
can transiently fail to unlock.  The reaper is the backstop: like
``paging.try_to_free_pages`` it runs periodically (as a calendar event
on the sim clock, rescheduling itself every ``interval_ns`` — or
drafted directly by ``try_to_free_pages`` when ordinary reclaim falls
short) and scans for

* registrations whose owning pid is dead (stale TPT entries included),
* kiobufs pinning pages for a dead pid with no backing registration,
* VIs owned by a dead pid (peers complete ``VIP_ERROR_CONN_LOST``),
* pinned frames no live registration or kiobuf explains,
* orphan frames (swap_out's unmapped-but-referenced leftovers) that no
  live registration explains — after the pin phase, so an orphan whose
  leaked pin that phase released is freed by the same scan.

Every reclaim attempt is retried with exponential backoff; after
:attr:`OrphanReaper.max_attempts` failures the reaper escalates to
force-dropping the record
(:meth:`~repro.via.kernel_agent.KernelAgent.forget_registration`) so
even a permanently failing backend converges to a clean TPT.  Each
scan produces a :class:`ReaperReport` of what it found and freed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Callable

from repro.analysis.events import PIN_RELEASED
from repro.core.audit import _WalkedState, audit_pin_leaks, explained_pins
from repro.errors import ReproError
from repro.sim.clock import ScheduledEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.via.kernel_agent import KernelAgent

_pid = attrgetter("pid")


@dataclass
class ReaperReport:
    """What one reaper scan found and reclaimed."""

    scan_index: int = 0
    now_ns: int = 0
    registrations_reclaimed: int = 0
    registrations_forced: int = 0        #: forget_registration escalations
    kiobufs_reclaimed: int = 0
    vis_reclaimed: int = 0
    orphan_frames_freed: int = 0
    pins_force_released: int = 0
    frames_freed: int = 0                #: net frames returned to the free list
    failures: int = 0                    #: reclaim attempts that raised
    deferred: int = 0                    #: items still in their backoff window
    notes: list[str] = field(default_factory=list)
    #: reclaimed items by owning pid (items with an identifiable owner:
    #: registrations, kiobufs, VIs)
    reclaimed_by_pid: dict[int, int] = field(default_factory=dict)
    #: the same, attributed to the owning tenant's uid — so obs and the
    #: soak harness can tell *which tenant's* debris the reaper is
    #: cleaning up
    reclaimed_by_uid: dict[int, int] = field(default_factory=dict)

    @property
    def reclaimed_total(self) -> int:
        return (self.registrations_reclaimed + self.registrations_forced
                + self.kiobufs_reclaimed + self.vis_reclaimed
                + self.orphan_frames_freed
                + self.pins_force_released)

    def attribute(self, pid: int | None, uid: int | None,
                  n: int = 1) -> None:
        """Charge ``n`` reclaimed items to their owner.  Items with no
        identifiable owner (orphan frames, unexplained pins) pass None
        and stay unattributed."""
        if n <= 0:
            return
        if pid is not None:
            self.reclaimed_by_pid[pid] = (
                self.reclaimed_by_pid.get(pid, 0) + n)
        if uid is not None:
            self.reclaimed_by_uid[uid] = (
                self.reclaimed_by_uid.get(uid, 0) + n)


@dataclass
class _Backoff:
    """Per-item retry state."""

    attempts: int = 0
    next_due_ns: int = 0


class OrphanReaper:
    """Periodic scanner reclaiming state leaked past a process's death.

    A scan re-runs its five phases exactly when their inputs changed.
    After a scan that reclaimed, deferred and failed nothing, with no
    item in backoff, the reaper stores a
    :class:`~repro.core.audit._WalkedState` taken with ``reaper=True``:
    the watchdog's fingerprint (tasks, frame columns, free list, owner
    index, and a clean first pin-leak pass) plus copies of what only
    the phases read — ``kernel.kiobufs``, each NIC's ``vis``, each
    agent's ``_tags``, ``orphan_candidates`` and ``mappings``.  While it
    holds, a scan skips the phases, whose finding would again be
    nothing, but still charges ``syscall_ns``, sets ``last_report`` and
    feeds the same obs counters, so the simulated clock and every
    digest are the same.  ``scans`` counts every scan; ``sweeps_run``
    counts those that ran the phases.
    """

    #: failed attempts (or sightings of an unexplained pin) before the
    #: reaper escalates to force-dropping the item
    max_attempts = 3
    #: the first retry's backoff; each further failure doubles it
    backoff_base_ns = 10_000

    def __init__(self, kernel: "Kernel",
                 agents: "list[KernelAgent] | tuple[KernelAgent, ...]" = (),
                 *,
                 interval_ns: int = 1_000_000) -> None:
        self.kernel = kernel
        self.agents = list(agents)
        self.interval_ns = interval_ns
        self.scans = 0
        self.sweeps_run = 0
        self.last_report: ReaperReport | None = None
        #: the fingerprint of the last scan that found nothing
        self._clean: _WalkedState | None = None
        self._backoff: dict[tuple, _Backoff] = {}
        self._next_due_ns = 0
        self._in_scan = False
        #: pending calendar event, if any; :meth:`stop` cancels exactly
        #: this one, so one host's teardown on a shared cluster clock
        #: never touches another host's daemon
        self._event: ScheduledEvent | None = None
        # try_to_free_pages drafts the attached reaper directly.
        kernel.reaper = self

    # ------------------------------------------------------------- scheduling

    def start(self) -> "OrphanReaper":
        """Run as a daemon: scan every ``interval_ns`` of simulated time.

        Rides the clock's event calendar: one pending event at a time,
        rescheduled after each firing.  (The legacy per-charge
        ``clock.subscribe`` cadence was retired once E18 established the
        A/B baseline — the calendar is the only model now.)
        """
        # The first scan's column passes need numpy: load it now, while
        # the system is being built, not inside a timed operation.
        import numpy  # noqa: F401
        if self._event is None or not self._event.pending:
            self._event = self.kernel.clock.schedule_after(
                self.interval_ns, self._on_event, name="reaper.cadence")
        return self

    def stop(self) -> None:
        """Stop the periodic scans (manual ``scan()`` still works)."""
        if self._event is not None:
            self.kernel.clock.cancel(self._event)
            self._event = None

    def _on_event(self, now_ns: int) -> None:
        """Calendar-event cadence with fire-once catch-up semantics.

        A single large charge that jumps past several intervals delivers
        one firing, possibly well past the deadline; the daemon scans
        once and realigns the next deadline from *now* rather than
        replaying the missed intervals.  If ``try_to_free_pages``
        drafted a scan since this event was scheduled (pushing
        ``_next_due_ns`` into the future), the firing is a no-op and the
        event realigns to that deadline instead of scanning early.
        """
        self._event = None
        clock = self.kernel.clock
        if not self._in_scan and clock.now_ns >= self._next_due_ns:
            self.scan()     # sets _next_due_ns = now + interval_ns
        deadline = max(self._next_due_ns, clock.now_ns + 1)
        self._event = clock.schedule_at(
            deadline, self._on_event, name="reaper.cadence")

    # ------------------------------------------------------------------ scan

    def scan(self) -> ReaperReport:
        """One reaper pass; returns what it found and reclaimed.  The
        phases are skipped while the last clean scan's fingerprint
        holds."""
        kernel = self.kernel
        report = ReaperReport(scan_index=self.scans,
                              now_ns=kernel.clock.now_ns)
        self.scans += 1
        self._in_scan = True
        free_before = kernel.pagemap.free_count
        # Taken, not read: only a scan that finds nothing puts one back.
        clean, self._clean = self._clean, None
        try:
            if clean is None or not clean.holds(kernel, self.agents):
                self.sweeps_run += 1
                self._reap_dead_registrations(report)
                self._reap_dead_kiobufs(report)
                self._reap_dead_vis(report)
                self._reap_unexplained_pins(report)
                self._reap_orphan_frames(report)
                # Only a scan that attempted nothing is a fingerprint of
                # its own finding: an attempt can charge the clock and
                # run callbacks mid-scan, which change what the phases
                # read.
                clean = None
                if not (report.reclaimed_total or report.failures
                        or report.deferred or self._backoff):
                    clean = _WalkedState.take(kernel, self.agents,
                                              reaper=True)
        finally:
            self._in_scan = False
        self._clean = clean
        kernel.clock.charge(kernel.costs.syscall_ns, "reaper")
        self._next_due_ns = kernel.clock.now_ns + self.interval_ns
        report.frames_freed = max(
            0, kernel.pagemap.free_count - free_before)
        self.last_report = report
        obs = kernel.obs
        if obs.enabled:
            metrics = obs.metrics
            metrics.counter("kernel.reaper.scans").inc()
            metrics.counter("kernel.reaper.reclaimed").inc(
                report.reclaimed_total)
            metrics.counter("kernel.reaper.frames_freed").inc(
                report.frames_freed)
            metrics.counter("kernel.reaper.failures").inc(report.failures)
            metrics.counter("kernel.reaper.deferred").inc(report.deferred)
            metrics.counter("kernel.reaper.forced").inc(
                report.registrations_forced)
            for uid, n in report.reclaimed_by_uid.items():
                metrics.counter(
                    f"kernel.reaper.tenant.{uid}.reclaimed").inc(n)
        if report.reclaimed_total or report.failures:
            kernel.trace.emit("reaper_scan", scan=report.scan_index,
                              reclaimed=report.reclaimed_total,
                              frames_freed=report.frames_freed,
                              failures=report.failures,
                              deferred=report.deferred)
        return report

    # -------------------------------------------------------------- helpers

    def _alive(self, pid: int) -> bool:
        return pid in self.kernel.tasks_by_pid

    def _uid_of(self, pid: int) -> int | None:
        """Resolve a (possibly dead) pid to its tenant uid through the
        agents' tenant services, which keep pid→uid past death exactly
        for this posthumous attribution."""
        for agent in self.agents:
            uid = agent.tenants.uid_of(pid)
            if uid is not None:
                return uid
        return None

    def _reg_uid(self, reg) -> int | None:
        """A registration's tenant (falling back to the pid map for
        records predating uid tracking)."""
        return reg.uid if reg.uid >= 0 else self._uid_of(reg.pid)

    def _attempt(self, key: tuple, action: Callable[[], None],
                 report: ReaperReport) -> bool:
        """Run one reclaim action under retry accounting.

        Failures are recorded with exponential backoff
        (``base * 2**(attempts-1)``); while an item is inside its backoff
        window it is deferred, not retried.  Returns True iff the action
        succeeded (clearing any backoff state for the item).
        """
        state = self._backoff.get(key)
        now = self.kernel.clock.now_ns
        if state is not None and now < state.next_due_ns:
            report.deferred += 1
            return False
        try:
            action()
        except ReproError as exc:
            if state is None:
                state = self._backoff[key] = _Backoff()
            state.attempts += 1
            delay = self.backoff_base_ns * (2 ** (state.attempts - 1))
            state.next_due_ns = now + delay
            report.failures += 1
            report.notes.append(f"{key}: {exc}")
            self.kernel.trace.emit("reaper_retry", item=str(key),
                                   attempts=state.attempts,
                                   backoff_ns=delay, error=str(exc))
            return False
        self._backoff.pop(key, None)
        return True

    def _attempts_of(self, key: tuple) -> int:
        state = self._backoff.get(key)
        return state.attempts if state is not None else 0

    # ---------------------------------------------------------- scan phases

    def _reap_dead_registrations(self, report: ReaperReport) -> None:
        """TPT entries whose owning pid is dead.

        The agent's owner index names the dead owners; only an agent
        with one has its registrations walked.
        """
        alive = self.kernel.tasks_by_pid
        for agent in self.agents:
            if all(map(alive.__contains__, agent.owners())):
                continue
            for reg in list(agent.registrations.values()):
                if self._alive(reg.pid):
                    continue
                key = ("reg", id(agent), reg.handle)
                if self._attempts_of(key) >= self.max_attempts:
                    # The backend keeps failing: force the stale TPT
                    # entry out and let the pin scans mop up.
                    agent.forget_registration(reg.handle)
                    self._backoff.pop(key, None)
                    report.registrations_forced += 1
                    report.attribute(reg.pid, self._reg_uid(reg))
                    report.notes.append(
                        f"forced handle {reg.handle} of dead pid "
                        f"{reg.pid} after {self.max_attempts} attempts")
                    continue
                handle = reg.handle
                if self._attempt(key,
                                 lambda a=agent, h=handle:
                                 a.reclaim_registration(h),
                                 report):
                    report.registrations_reclaimed += 1
                    report.attribute(reg.pid, self._reg_uid(reg))

    def _reap_dead_kiobufs(self, report: ReaperReport) -> None:
        """Kiobufs pinning pages for a dead pid.

        A kiobuf still referenced as some recorded registration's lock
        cookie is skipped — the registration phase owns it (unmapping it
        underneath would corrupt that deregistration's retry).  The
        registration cross-reference is built only once some kiobuf's
        owner is found dead.
        """
        owners = set(map(_pid, self.kernel.kiobufs.values()))
        if not owners.difference(self.kernel.tasks_by_pid):
            return
        referenced = {id(reg.region.lock_cookie)
                      for agent in self.agents
                      for reg in agent.registrations.values()}
        for kio in list(self.kernel.kiobufs.values()):
            if not kio.mapped or self._alive(kio.pid):
                continue
            if id(kio) in referenced:
                continue
            key = ("kio", kio.kiobuf_id)
            if self._attempt(key,
                             lambda k=kio: self.kernel.unmap_kiobuf(k),
                             report):
                report.kiobufs_reclaimed += 1
                report.attribute(kio.pid, self._uid_of(kio.pid))

    def _reap_dead_vis(self, report: ReaperReport) -> None:
        """VIs owned by a dead pid; also drops its protection tag."""
        for agent in self.agents:
            nic = agent.nic
            for vi in list(nic.vis.values()):
                if self._alive(vi.owner_pid):
                    continue
                key = ("vi", nic.name, vi.vi_id)
                if self._attempt(key,
                                 lambda n=nic, v=vi.vi_id:
                                 n.teardown_vi(v, reason="reaper"),
                                 report):
                    report.vis_reclaimed += 1
                    report.attribute(vi.owner_pid,
                                     self._uid_of(vi.owner_pid))
            for pid in [p for p in agent._tags if not self._alive(p)]:
                agent._tags.pop(pid, None)

    def _reap_orphan_frames(self, report: ReaperReport) -> None:
        """swap_out's orphans — unmapped frames kept alive by leaked
        references — that no recorded registration still explains.

        Frames a recorded registration names are left alone: its
        eventual deregistration will drop the reference itself, and
        freeing underneath it would underflow.
        """
        table = self.kernel.pagemap.table
        if not table.orphan_candidates:
            return
        explained = explained_pins(self.agents)
        # Candidate-set sweep: only frames whose tag is "orphan" are in
        # the set, so this is O(orphans) instead of O(frames).
        for frame in sorted(table.orphan_candidates):
            if (table.counts[frame] <= 0
                    or table.pin_counts[frame] > 0
                    or table.mappings[frame] is not None
                    or frame in explained):
                continue
            key = ("orphan", frame)
            if self._attempt(key,
                             lambda f=frame:
                             self._free_orphan(f),
                             report):
                report.orphan_frames_freed += 1

    def _free_orphan(self, frame: int) -> None:
        pagemap = self.kernel.pagemap
        # Every remaining reference is leaked by definition (unmapped,
        # unpinned, unregistered): drop them all.
        while pagemap.table.counts[frame] > 0:
            if pagemap.put_page(frame):
                break
        self.kernel.trace.emit("reaper_orphan_freed", frame=frame)

    def _reap_unexplained_pins(self, report: ReaperReport) -> None:
        """Pinned frames with no backing registration or kiobuf.

        A pin only the leak created keeps the frame unreclaimable
        forever, so after :attr:`max_attempts` consecutive sightings (spaced
        by the backoff schedule — a transiently in-flight pin must not
        be stripped) the excess pins are force-released.

        When the pin-leak audit finds nothing and no frame is mid-backoff
        the sweep below would change nothing, so it is skipped.
        """
        kernel = self.kernel
        if not any(key[0] == "pin" for key in self._backoff) \
                and not audit_pin_leaks(kernel, *self.agents,
                                        count_kiobufs=True):
            return
        pagemap = kernel.pagemap
        pin_counts = pagemap.table.pin_counts
        expected = explained_pins(self.agents, kernel.kiobufs.values())
        now = kernel.clock.now_ns
        excess_frames: set[int] = set()
        # Pinned-set sweep: frames with zero pins can never have excess,
        # so only the incrementally maintained pinned set is visited.
        for frame in pagemap.pinned_frames():
            excess = pin_counts[frame] - expected.get(frame, 0)
            if excess <= 0:
                self._backoff.pop(("pin", frame), None)
                continue
            excess_frames.add(frame)
            key = ("pin", frame)
            state = self._backoff.get(key)
            if state is None:
                state = self._backoff[key] = _Backoff()
            if now < state.next_due_ns:
                report.deferred += 1
                continue
            state.attempts += 1
            if state.attempts < self.max_attempts:
                state.next_due_ns = now + self.backoff_base_ns * (
                    2 ** (state.attempts - 1))
                report.deferred += 1
                continue
            for _ in range(excess):
                pagemap.table.decr_pin(frame)
            self.kernel.events.record(
                PIN_RELEASED, frame=frame, excess=excess,
                sightings=state.attempts, frames=(frame,) * excess,
                actor="reaper")
            self._backoff.pop(key, None)
            excess_frames.discard(frame)
            report.pins_force_released += excess
        # A frame unpinned since its last sighting leaves the pinned set
        # without passing through the excess<=0 branch above; drop its
        # stale backoff so a future, unrelated leak starts fresh.
        for key in [k for k in self._backoff
                    if k[0] == "pin" and k[1] not in excess_frames]:
            self._backoff.pop(key)
