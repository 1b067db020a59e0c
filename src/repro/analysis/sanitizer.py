"""PinSanitizer — a lockdep/TSAN analog for pinned communication memory.

The sanitizer subscribes to one or more kernels'
:class:`~repro.analysis.events.EventHub` streams and maintains per-frame
and per-range state machines that mechanically check the orderings the
paper's locking mechanisms exist to guarantee.  The violation catalog:

``dma-unpinned-frame``
    a frame's pin count reached zero while a DMA window on it was open —
    the NP-RDMA / page-fault-during-RDMA hazard.
``dma-swapped-frame``
    a frame was stolen by ``swap_out`` while inside an open DMA window.
``mlock-nesting``
    a ``munlock`` annulled a range still covered by a live mlock-family
    registration — the §3.2 non-nesting bug, detected from the event
    stream instead of asserted by a test.
``pin-underflow``
    an unpin with no matching pin outstanding (double release).
``tpt-use-after-invalidate``
    a translation served through a handle after its region was removed.
``registration-leak``
    a process exited through the *clean* teardown path with live
    registrations left behind.
``swap-registered``
    a registered page was swapped out — the §3.1 locktest failure
    signature (only the deliberately broken refcount backend lets the
    reclaim path do this).
``quota-breach``
    a registration pushed its tenant past the pinned-page quota the
    driver reported for it — admission control and the accounting it
    relies on have diverged (the event stream is the ground truth the
    budget books are checked against).
``atomic-nonatomic-overlap``
    a plain DMA write touched a registered word the adapter has served
    remote atomics on (or an atomic landed inside an open plain-write
    window).  Adapter RMWs are atomic only with respect to *other
    adapter RMWs* — a plain RDMA/DMA write to the same word is a data
    race that can tear a compare-and-swap, so the two access classes
    must never mix on one word while its registration is live.
``odp-dangling-suspension``
    a DMA suspension was never repaired: either the NIC resumed a
    parked transfer as OK without any fault-service event for its
    token, or a suspension was still open when the sanitizer
    disarmed.  Suspending on a translation fault is only safe because
    the agent is guaranteed to fault, pin, and patch before the
    resume — a resume with no service replays the transfer through a
    still-invalid translation.

The handlers understand the on-demand-paging backend's *sanctioned*
transitions: ``FAULT_SERVICE`` frames join a registration's tracked
set and ``ODP_EVICT`` removes them again, so a pressure eviction
followed by swap-out of the (now unpinned, invalidated) frame is not
misread as ``swap-registered`` or ``dma-swapped-frame``.  Per-page
``TPT_PAGE_INVALIDATE`` never marks a handle dead — the region stays
registered, unlike ``TPT_INVALIDATE`` — so a later fault-service and
translate through the same handle is not
``tpt-use-after-invalidate``.  What stays a violation is the dangling
suspension above: the repair must actually happen.

Each violation carries a happens-before trail: the recent events that
share a frame, pid, or handle with the trigger, in emission order.

The lifecycle is the one every checker shares
(:class:`~repro.analysis.events.StreamChecker`)::

    san = PinSanitizer(strict=True).arm(machine)     # or cluster/kernel
    ... workload ...
    san.disarm()
    assert not san.violations

In *strict* mode a violation raises
:class:`~repro.errors.SanitizerViolation` at the offending operation;
otherwise violations accumulate on :attr:`PinSanitizer.violations`.
Individual checks can be suppressed, and ``expect()`` captures
violations a chaos test *wants* to happen without raising.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.analysis import events as ev
from repro.analysis.events import StreamChecker, trail_lines
from repro.errors import SanitizerViolation
from repro.sim.trace import TraceEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.obs import Observability

#: Every check the sanitizer can report, in catalog order.
CHECKS: tuple[str, ...] = (
    "dma-unpinned-frame",
    "dma-swapped-frame",
    "mlock-nesting",
    "pin-underflow",
    "tpt-use-after-invalidate",
    "registration-leak",
    "swap-registered",
    "quota-breach",
    "atomic-nonatomic-overlap",
    "odp-dangling-suspension",
)

#: DMA window ops that are plain (non-atomic) writes to memory, for the
#: ``atomic-nonatomic-overlap`` check.  The ``"atomic"`` window an RMW
#: opens over its own word is deliberately absent.
_PLAIN_WRITE_OPS: frozenset[str] = frozenset({"write", "write_scatter"})

#: Backends whose registrations are guarded by VM_LOCKED, and therefore
#: annulled by any munlock over their range (§3.2).
MLOCK_BACKENDS: frozenset[str] = frozenset({"mlock", "mlock_naive"})


@dataclass(frozen=True)
class Violation:
    """One detected ordering violation."""

    check: str                      #: entry of :data:`CHECKS`
    host: str                       #: machine the trigger came from
    message: str
    event: TraceEvent               #: the triggering event
    trail: tuple[TraceEvent, ...]   #: happens-before context (trigger last)

    def format(self) -> str:
        """Human-readable report: message plus the event trail."""
        lines = [f"[{self.check}] on {self.host}: {self.message}"]
        lines += trail_lines(self.trail, self.event, "  ")
        return "\n".join(lines)


@dataclass
class _Registration:
    """Sanitizer-side shadow of one driver registration."""

    handle: int
    pid: int
    frames: tuple[int, ...]
    backend: str
    first_vpn: int
    end_vpn: int
    uid: int | None = None      #: owning tenant, when the event said


class PinSanitizer(StreamChecker):
    """Event-stream checker for the pin-safety violation catalog."""

    KINDS = CHECKS
    ERROR = SanitizerViolation

    def __init__(self, **options: Any) -> None:
        super().__init__(**options)
        self._collectors: list[tuple["Observability", Callable]] = []
        # -- per-(scope, ...) state machines --
        #: believed pin count per (scope, frame)
        self._pins: dict[tuple[Any, int], int] = {}
        #: open DMA windows per (scope, frame)
        self._dma: dict[tuple[Any, int], int] = {}
        #: live registrations by (scope, handle)
        self._regs: dict[tuple[Any, int], _Registration] = {}
        #: live handles per (scope, pid)
        self._regs_by_pid: dict[tuple[Any, int], set[int]] = {}
        #: live handles covering each (scope, frame)
        self._reg_frames: dict[tuple[Any, int], set[int]] = {}
        #: TPT handles seen invalidated, per (scope, handle)
        self._tpt_dead: set[tuple[Any, int]] = set()
        #: pinned pages per (scope, uid), from REGISTER/DEREGISTER
        self._uid_pages: dict[tuple[Any, int], int] = {}
        #: last quota each (scope, uid) was registered under
        self._uid_quota: dict[tuple[Any, int], int] = {}
        #: word offsets adapter atomics have hit, per (scope, frame);
        #: cleared when the frame loses its last live registration
        self._atomic_words: dict[tuple[Any, int], set[int]] = {}
        #: open plain-write DMA spans as (offset, nbytes), per
        #: (scope, frame)
        self._write_spans: dict[tuple[Any, int], list[tuple[int, int]]] = {}
        #: open DMA suspensions by (scope, token) → the suspend event
        self._suspensions: dict[tuple[Any, int], TraceEvent] = {}
        #: suspension tokens a FAULT_SERVICE has answered
        self._serviced: set[tuple[Any, int]] = set()
        self._handlers: dict[str, Callable[[TraceEvent, Any], None]] = {
            ev.PIN: self._on_pin,
            ev.UNPIN: self._on_unpin,
            ev.PIN_RELEASED: self._on_unpin,
            ev.DMA_BEGIN: self._on_dma_begin,
            ev.DMA_END: self._on_dma_end,
            ev.SWAP_OUT: self._on_swap_out,
            ev.MUNLOCK: self._on_munlock,
            ev.TPT_INVALIDATE: self._on_tpt_invalidate,
            ev.TPT_TRANSLATE: self._on_tpt_translate,
            ev.ATOMIC_RMW: self._on_atomic_rmw,
            ev.REGISTER: self._on_register,
            ev.DEREGISTER: self._on_deregister,
            ev.RECLAIM_REGISTRATION: self._on_deregister,
            ev.FORGET_REGISTRATION: self._on_deregister,
            ev.TASK_EXIT: self._on_task_exit,
            # TPT_PAGE_INVALIDATE is deliberately absent: a per-page
            # invalidation leaves the region registered, so it must not
            # feed the tpt-use-after-invalidate handle graveyard.
            ev.DMA_SUSPEND: self._on_dma_suspend,
            ev.DMA_RESUME: self._on_dma_resume,
            ev.FAULT_SERVICE: self._on_fault_service,
            ev.FAULT_COALESCED: self._on_fault_service,
            ev.ODP_EVICT: self._on_odp_evict,
        }

    @property
    def violations(self) -> list[Violation]:
        """Violations recorded so far, in order."""
        return self.findings

    # ----------------------------------------------------------------- arming

    def _arm_kernel(self, kernel: "Kernel", agents: list,
                    scope: int) -> None:
        """Snapshot the kernel's current pin counts (so an unpin of a
        pre-existing pin is not misread as underflow), seed the
        registration shadow from ``agents`` (so pre-existing
        registrations are tracked too), and attach the obs collector."""
        pin_counts = kernel.pagemap.table.pin_counts
        for frame in kernel.pagemap.pinned_frames():
            self._pins[(scope, frame)] = pin_counts[frame]
        for agent in agents:
            for reg in agent.registrations.values():
                uid = reg.uid if reg.uid >= 0 else None
                # ODP regions hold the INVALID_FRAME (-1) sentinel for
                # pages not yet faulted in; only real frames are tracked.
                self._track_registration(
                    scope, handle=reg.handle, pid=reg.pid,
                    frames=tuple(f for f in reg.region.frames if f >= 0),
                    backend=reg.backend_name,
                    first_vpn=reg.region.first_vpn,
                    end_vpn=reg.region.first_vpn + reg.region.npages,
                    uid=uid,
                    quota_pages=(agent.tenants.default_quota_pages
                                 if uid is not None else None))
        self._attach_collector(kernel.obs)

    def _on_disarm(self) -> None:
        """Detach collectors; any suspension still open now is a
        dangling suspension — a transfer the NIC parked and nobody ever
        fixed up — and is reported before the checker lets go."""
        for obs, collector in self._collectors:
            obs.remove_collector(collector)
        self._collectors.clear()
        dangling, self._suspensions = self._suspensions, {}
        self._serviced.clear()
        for (scope, token), suspend in dangling.items():
            self._report(
                "odp-dangling-suspension", suspend, scope,
                f"DMA suspension token {token} on handle "
                f"{suspend['handle']} still open at disarm — the parked "
                f"transfer was never resumed",
                handle=suspend["handle"])

    # ------------------------------------------------------------- obs bridge

    def _attach_collector(self, obs: "Observability") -> None:
        if any(existing is obs for existing, _ in self._collectors):
            return
        collector = self._collect_into
        obs.add_collector(collector)
        self._collectors.append((obs, collector))

    def _collect_into(self, obs: "Observability") -> None:
        """Snapshot-time collector: fold sanitizer counters into the
        metrics registry (see the Observability snapshot pipeline)."""
        metrics = obs.metrics
        metrics.gauge("analysis.san.events_observed").set(self.events_seen)
        metrics.gauge("analysis.san.violations_total").set(
            sum(self._counts.values()))
        for check, count in self._counts.items():
            name = "analysis.san.violations." + check.replace("-", "_")
            metrics.gauge(name).set(count)

    # ------------------------------------------------------------------- feed

    def _observe(self, event: TraceEvent, scope: Any) -> None:
        self._remember((scope, event))
        handler = self._handlers.get(event.kind)
        if handler is not None:
            handler(event, scope)

    # -------------------------------------------------------------- reporting

    def _report(self, check: str, event: TraceEvent, scope: Any,
                message: str, *, frames: Iterable[int] = (),
                pid: int | None = None,
                handle: int | None = None) -> None:
        if check in self.suppressed:
            return              # before the trail walk, not just in _file
        self._file(check, Violation(
            check=check, host=event.host, message=message, event=event,
            trail=self._trail(event, scope, frozenset(frames), pid,
                              handle)))

    def _trail(self, trigger: TraceEvent, scope: Any,
               frames: frozenset[int], pid: int | None,
               handle: int | None) -> tuple[TraceEvent, ...]:
        related: list[TraceEvent] = []
        for e_scope, e in self._ring:
            if e_scope != scope and e is not trigger:
                continue
            if e is trigger or self._related(e, frames, pid, handle):
                related.append(e)
        return tuple(related[-self.TRAIL_REPORT:])

    @staticmethod
    def _related(e: TraceEvent, frames: frozenset[int], pid: int | None,
                 handle: int | None) -> bool:
        f = e.detail
        if frames:
            if f.get("frame") in frames:
                return True
            ef = f.get("frames")
            if ef and not frames.isdisjoint(ef):
                return True
        if pid is not None and f.get("pid") == pid:
            return True
        if handle is not None and f.get("handle") == handle:
            return True
        return False

    # ----------------------------------------------------- state transitions

    def _track_registration(self, scope: Any, *, handle: int, pid: int,
                            frames: tuple[int, ...], backend: str,
                            first_vpn: int, end_vpn: int,
                            uid: int | None = None,
                            quota_pages: int | None = None) -> None:
        reg = _Registration(handle=handle, pid=pid, frames=frames,
                            backend=backend, first_vpn=first_vpn,
                            end_vpn=end_vpn, uid=uid)
        self._regs[(scope, handle)] = reg
        self._regs_by_pid.setdefault((scope, pid), set()).add(handle)
        for frame in frames:
            self._reg_frames.setdefault((scope, frame), set()).add(handle)
        if uid is not None:
            key = (scope, uid)
            self._uid_pages[key] = self._uid_pages.get(key, 0) + len(frames)
            if quota_pages is not None:
                self._uid_quota[key] = quota_pages

    def _untrack_registration(self, scope: Any, handle: int) -> None:
        reg = self._regs.pop((scope, handle), None)
        if reg is None:
            return   # registered before arming; nothing tracked
        if reg.uid is not None:
            key = (scope, reg.uid)
            remaining = self._uid_pages.get(key, 0) - len(reg.frames)
            if remaining > 0:
                self._uid_pages[key] = remaining
            else:
                self._uid_pages.pop(key, None)
        pid_key = (scope, reg.pid)
        handles = self._regs_by_pid.get(pid_key)
        if handles is not None:
            handles.discard(handle)
            if not handles:
                del self._regs_by_pid[pid_key]
        for frame in reg.frames:
            frame_key = (scope, frame)
            owners = self._reg_frames.get(frame_key)
            if owners is not None:
                owners.discard(handle)
                if not owners:
                    del self._reg_frames[frame_key]
                    # A frame with no live registration can be reused
                    # for anything; its atomic-word history is moot.
                    self._atomic_words.pop(frame_key, None)

    # -- handlers ------------------------------------------------------------

    def _on_pin(self, event: TraceEvent, scope: Any) -> None:
        for frame in event["frames"]:
            key = (scope, frame)
            self._pins[key] = self._pins.get(key, 0) + 1

    def _on_unpin(self, event: TraceEvent, scope: Any) -> None:
        for frame in event["frames"]:
            key = (scope, frame)
            current = self._pins.get(key, 0)
            if current <= 0:
                self._report(
                    "pin-underflow", event, scope,
                    f"unpin of frame {frame} with no pin outstanding "
                    f"(double release)",
                    frames=(frame,), pid=event.get("pid"))
                continue
            current -= 1
            if current:
                self._pins[key] = current
            else:
                del self._pins[key]
                if self._dma.get(key, 0) > 0:
                    self._report(
                        "dma-unpinned-frame", event, scope,
                        f"pin count of frame {frame} reached zero inside "
                        f"an open DMA window",
                        frames=(frame,), pid=event.get("pid"))

    def _on_dma_begin(self, event: TraceEvent, scope: Any) -> None:
        for frame in event["frames"]:
            key = (scope, frame)
            self._dma[key] = self._dma.get(key, 0) + 1
        spans = event.get("spans")
        if spans and event.get("op") in _PLAIN_WRITE_OPS:
            for frame, offset, n in spans:
                key = (scope, frame)
                for word in self._atomic_words.get(key, ()):
                    if word < offset + n and word + 8 > offset:
                        self._report(
                            "atomic-nonatomic-overlap", event, scope,
                            f"plain DMA {event.get('op')} over "
                            f"[{offset}, {offset + n}) of frame {frame} "
                            f"hits word {word}, which the adapter serves "
                            f"remote atomics on — a plain write can tear "
                            f"a concurrent RMW",
                            frames=(frame,))
                self._write_spans.setdefault(key, []).append((offset, n))

    def _on_dma_end(self, event: TraceEvent, scope: Any) -> None:
        for frame in event["frames"]:
            key = (scope, frame)
            current = self._dma.get(key, 0)
            if current <= 1:
                self._dma.pop(key, None)
            else:
                self._dma[key] = current - 1
        spans = event.get("spans")
        if spans and event.get("op") in _PLAIN_WRITE_OPS:
            for frame, offset, n in spans:
                key = (scope, frame)
                open_spans = self._write_spans.get(key)
                if open_spans is None:
                    continue
                try:
                    open_spans.remove((offset, n))
                except ValueError:
                    pass
                if not open_spans:
                    del self._write_spans[key]

    def _on_atomic_rmw(self, event: TraceEvent, scope: Any) -> None:
        frame, offset = event["frame"], event["offset"]
        key = (scope, frame)
        for span_off, span_n in self._write_spans.get(key, ()):
            if span_off < offset + 8 and span_off + span_n > offset:
                self._report(
                    "atomic-nonatomic-overlap", event, scope,
                    f"atomic RMW on word {offset} of frame {frame} "
                    f"landed inside an open plain-write window over "
                    f"[{span_off}, {span_off + span_n})",
                    frames=(frame,))
        self._atomic_words.setdefault(key, set()).add(offset)

    def _on_swap_out(self, event: TraceEvent, scope: Any) -> None:
        frame = event["frame"]
        key = (scope, frame)
        if self._dma.get(key, 0) > 0:
            self._report(
                "dma-swapped-frame", event, scope,
                f"frame {frame} stolen by swap_out inside an open DMA "
                f"window",
                frames=(frame,), pid=event.get("pid"))
        owners = self._reg_frames.get(key)
        if owners:
            handle = min(owners)
            backend = self._regs[(scope, handle)].backend
            self._report(
                "swap-registered", event, scope,
                f"frame {frame} of live registration handle {handle} "
                f"(backend {backend!r}) swapped out — the §3.1 failure",
                frames=(frame,), pid=event.get("pid"), handle=handle)

    def _on_munlock(self, event: TraceEvent, scope: Any) -> None:
        pid = event["pid"]
        start_vpn, end_vpn = event["start_vpn"], event["end_vpn"]
        for handle in sorted(self._regs_by_pid.get((scope, pid), ())):
            reg = self._regs[(scope, handle)]
            if (reg.backend in MLOCK_BACKENDS
                    and reg.first_vpn < end_vpn
                    and reg.end_vpn > start_vpn):
                self._report(
                    "mlock-nesting", event, scope,
                    f"munlock of vpns [{start_vpn}, {end_vpn}) annulled "
                    f"VM_LOCKED under live registration handle {handle} "
                    f"of pid {pid} (vpns [{reg.first_vpn}, {reg.end_vpn}))"
                    f" — mlock does not nest (§3.2)",
                    pid=pid, handle=handle)

    def _on_tpt_invalidate(self, event: TraceEvent, scope: Any) -> None:
        self._tpt_dead.add((scope, event["handle"]))

    def _on_tpt_translate(self, event: TraceEvent, scope: Any) -> None:
        handle = event["handle"]
        if (scope, handle) in self._tpt_dead:
            self._report(
                "tpt-use-after-invalidate", event, scope,
                f"translation served through handle {handle} after its "
                f"region was invalidated",
                handle=handle)

    def _on_register(self, event: TraceEvent, scope: Any) -> None:
        uid = event.get("uid")
        quota = event.get("quota_pages")
        self._track_registration(
            scope, handle=event["handle"], pid=event["pid"],
            frames=tuple(event["frames"]), backend=event["backend"],
            first_vpn=event["first_vpn"],
            end_vpn=event["first_vpn"] + event["npages"],
            uid=uid, quota_pages=quota)
        if uid is None:
            return
        key = (scope, uid)
        limit = self._uid_quota.get(key)
        total = self._uid_pages.get(key, 0)
        if limit is not None and total > limit:
            self._report(
                "quota-breach", event, scope,
                f"registration handle {event['handle']} pushed uid {uid} "
                f"to {total} pinned pages, past its quota of {limit} — "
                f"admission control and tenant accounting disagree",
                pid=event["pid"], handle=event["handle"])

    def _on_deregister(self, event: TraceEvent, scope: Any) -> None:
        self._untrack_registration(scope, event["handle"])

    def _on_task_exit(self, event: TraceEvent, scope: Any) -> None:
        pid = event["pid"]
        if not event["cleanup"]:
            # Buggy teardown being modelled: leaked registrations are
            # the reaper's job, not a sanitizer violation.
            return
        handles = sorted(self._regs_by_pid.get((scope, pid), ()))
        if handles:
            self._report(
                "registration-leak", event, scope,
                f"pid {pid} exited through the clean teardown path with "
                f"live registrations {handles}",
                pid=pid, handle=handles[0])
        for handle in handles:
            self._untrack_registration(scope, handle)

    # -- on-demand paging ----------------------------------------------------

    def _on_dma_suspend(self, event: TraceEvent, scope: Any) -> None:
        self._suspensions[(scope, event["token"])] = event

    def _on_fault_service(self, event: TraceEvent, scope: Any) -> None:
        token = event.get("token")
        if token is not None:
            self._serviced.add((scope, token))
        reg = self._regs.get((scope, event["handle"]))
        if reg is None:
            return   # registered before arming; nothing tracked
        handle = reg.handle
        for frame in event["frames"]:
            owners = self._reg_frames.setdefault((scope, frame), set())
            if handle in owners:
                continue       # coalesced / already-resident page
            owners.add(handle)
            reg.frames = reg.frames + (frame,)
            if reg.uid is not None:
                key = (scope, reg.uid)
                self._uid_pages[key] = self._uid_pages.get(key, 0) + 1

    def _on_dma_resume(self, event: TraceEvent, scope: Any) -> None:
        token = event["token"]
        key = (scope, token)
        suspend = self._suspensions.pop(key, None)
        serviced = key in self._serviced
        self._serviced.discard(key)
        if not event["ok"]:
            return   # error unwind: the transfer completes in error
        if suspend is not None and not serviced:
            self._report(
                "odp-dangling-suspension", event, scope,
                f"suspended DMA (token {token}, handle {event['handle']})"
                f" resumed OK without a fault-service event — the "
                f"transfer would replay through a still-invalid "
                f"translation",
                handle=event["handle"])

    def _on_odp_evict(self, event: TraceEvent, scope: Any) -> None:
        handle, frame = event["handle"], event["frame"]
        key = (scope, frame)
        owners = self._reg_frames.get(key)
        if owners is not None:
            owners.discard(handle)
            if not owners:
                del self._reg_frames[key]
                self._atomic_words.pop(key, None)
        reg = self._regs.get((scope, handle))
        if reg is None or frame not in reg.frames:
            return
        dropped = reg.frames.count(frame)
        reg.frames = tuple(f for f in reg.frames if f != frame)
        if reg.uid is not None:
            ukey = (scope, reg.uid)
            remaining = self._uid_pages.get(ukey, 0) - dropped
            if remaining > 0:
                self._uid_pages[ukey] = remaining
            else:
                self._uid_pages.pop(ukey, None)
