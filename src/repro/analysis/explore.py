"""Schedule exploration: run one scenario over many legal schedules.

The race engine (:mod:`repro.analysis.races`) finds conflicting
accesses with no ordering edge — but only among the events one run
actually dispatches.  The explorer turns that into systematic coverage:
it re-runs a scenario over *K* permuted same-deadline dispatch orders
(via :meth:`SimClock.set_tiebreak`) and over every instrumented
crash-point placement, feeding each run through a fresh
:class:`RaceDetector` and a fresh (non-strict)
:class:`~repro.analysis.sanitizer.PinSanitizer`, and folds the verdicts
into one :class:`ExploreReport`.

DPOR-lite pruning
-----------------

:func:`tiebreak_key` is a pure function of ``(seed, seq)``, so the
permutation a candidate seed induces on the identity run's recorded tie
groups can be *predicted* without running it.  A candidate is pruned
when

* its predicted schedule equals one already executed (different seeds
  often hash to the same small permutation), or
* its first divergence from the identity schedule only swaps events
  whose recorded location sets are disjoint — reordering
  non-conflicting events cannot change the race verdict (the classic
  partial-order-reduction argument, applied at tie-group granularity).

This is deliberately *lite*: location sets come from the identity run,
so a permutation that makes an event touch new locations could in
principle be pruned wrongly; scenarios whose callbacks touch a fixed
working set (all of ours) are exact.

Scenario contract
-----------------

A :class:`Scenario` wraps a build function receiving one
:class:`ExploreRun`.  The build function constructs its world, calls
:meth:`ExploreRun.attach` on the Machine / Cluster / Kernel (arming the
detector + sanitizer and installing the run's tie-break seed on the
clock), runs the workload — consulting :attr:`ExploreRun.crash_point`
to place a :class:`~repro.sim.faults.FaultPlan` — and handles its own
teardown of expected kills.  ``ProcessKilled`` escaping the build is
recorded as outcome ``"killed"``; other :class:`ReproError`s as
``"error:<Type>"``; anything else propagates (a scenario bug).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ProcessKilled, ReproError
from repro.sim.clock import SimClock, tiebreak_key

from .races import RaceDetector, RaceViolation
from .sanitizer import PinSanitizer, Violation


@dataclass(frozen=True)
class Scenario:
    """One explorable workload."""

    name: str
    build: Callable[["ExploreRun"], Any]
    #: crash points the explorer places (one run per point)
    crash_points: tuple[str, ...] = ()
    #: race kinds this scenario *seeds* on purpose: the explorer must
    #: find exactly these across all schedules (and none on identity)
    expect_races: tuple[str, ...] = ()
    description: str = ""


class ExploreRun:
    """Per-run handle passed to a scenario's build function."""

    def __init__(self, seed: int | None, crash_point: str | None) -> None:
        self.tiebreak_seed = seed
        self.crash_point = crash_point
        self.detector = RaceDetector(strict=False)
        self.sanitizer = PinSanitizer(strict=False)
        self._clocks: list[SimClock] = []

    def attach(self, target: Any) -> Any:
        """Arm the race detector and sanitizer on ``target`` (Machine,
        Cluster, or Kernel) and install this run's tie-break seed on
        every reachable clock.  Returns ``target`` for chaining."""
        # repro.via imports this package
        # repro-lint: allow(local-import) -- import cycle
        from repro.via.machine import hosts_of
        self.detector.arm(target)
        self.sanitizer.arm(target)
        for kernel, _agents in hosts_of(target):
            clock = kernel.clock
            if clock not in self._clocks:
                clock.set_tiebreak(self.tiebreak_seed)
                self._clocks.append(clock)
        return target

    def detach(self) -> None:
        """Disarm both checkers and restore FIFO tie-break order."""
        for checker in (self.detector, self.sanitizer):
            if checker.armed:
                checker.disarm()
        for clock in self._clocks:
            clock.set_tiebreak(None)


@dataclass
class ScheduleResult:
    """Verdict of one (schedule, crash point) execution."""

    seed: int | None               #: tie-break seed (None = identity/FIFO)
    crash_point: str | None
    outcome: str                   #: "ok" | "killed" | "error:<Type>"
    races: list[RaceViolation] = field(default_factory=list)
    san_violations: list[Violation] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.races and not self.san_violations

    def to_payload(self) -> dict:
        """JSON-able summary of this run's verdict."""
        return {
            "seed": self.seed,
            "crash_point": self.crash_point,
            "outcome": self.outcome,
            "races": [{"race": r.race, "location": list(r.location),
                       "prior_actor": r.prior_actor,
                       "current_actor": r.current_actor,
                       "message": r.message} for r in self.races],
            "sanitizer": [{"check": v.check, "message": v.message}
                          for v in self.san_violations],
        }


@dataclass
class ExploreConfig:
    """Knobs for one exploration."""

    #: total schedules to attempt, identity included (before pruning)
    schedules: int = 8
    #: run every crash point under every surviving seed, not just FIFO
    crash_with_schedules: bool = False
    #: enable DPOR-lite pruning of predicted-equivalent seeds
    dpor: bool = True
    #: first candidate seed (seeds are consecutive integers)
    seed_base: int = 1


@dataclass
class ExploreReport:
    """Everything one exploration learned."""

    scenario: str
    results: list[ScheduleResult]
    pruned: int                    #: candidate seeds skipped by DPOR-lite
    #: identity run's tie groups: (deadline, [(seq, locations), ...])
    groups: list = field(default_factory=list)

    @property
    def schedules_run(self) -> int:
        return len(self.results)

    @property
    def race_kinds_found(self) -> set[str]:
        return {r.race for res in self.results for r in res.races}

    @property
    def identity_result(self) -> ScheduleResult:
        return self.results[0]

    def to_payload(self) -> dict:
        """JSON-able summary (the ``RACE_REPORT.json`` artifact)."""
        return {
            "scenario": self.scenario,
            "schedules_run": self.schedules_run,
            "pruned": self.pruned,
            "tie_groups": len(self.groups),
            "race_kinds_found": sorted(self.race_kinds_found),
            "identity_clean": self.identity_result.clean,
            "results": [r.to_payload() for r in self.results],
        }


def run_one(scenario: Scenario, seed: int | None = None,
            crash_point: str | None = None) -> tuple[ScheduleResult,
                                                     ExploreRun]:
    """Execute ``scenario`` once under one (seed, crash point) pair."""
    run = ExploreRun(seed, crash_point)
    outcome = "ok"
    try:
        scenario.build(run)
    except ProcessKilled:
        outcome = "killed"
    except ReproError as exc:
        outcome = f"error:{type(exc).__name__}"
    finally:
        run.detach()
    result = ScheduleResult(
        seed=seed, crash_point=crash_point, outcome=outcome,
        races=list(run.detector.races),
        san_violations=list(run.sanitizer.violations))
    return result, run


def _predicted_signature(groups: list, seed: int) -> tuple:
    """The per-group dispatch orders ``seed`` would induce."""
    return tuple(
        tuple(seq for seq in sorted(
            (s for s, _locs in members), key=lambda s: tiebreak_key(seed, s)))
        for _deadline, members in groups)


def _first_divergence_conflicts(groups: list, predicted: tuple,
                                identity: tuple) -> bool:
    """Does the first group where ``predicted`` differs from
    ``identity`` reorder at least one pair of location-overlapping
    events?"""
    for (_deadline, members), pred, ident in zip(groups, predicted,
                                                 identity):
        if pred == ident:
            continue
        locs = {seq: frozenset(l) for seq, l in members}
        ident_pos = {seq: i for i, seq in enumerate(ident)}
        pred_pos = {seq: i for i, seq in enumerate(pred)}
        for i, a in enumerate(ident):
            for b in ident[i + 1:]:
                inverted = (pred_pos[a] > pred_pos[b]) != (
                    ident_pos[a] > ident_pos[b])
                if inverted and locs[a] & locs[b]:
                    return True
        return False
    return False


def explore(scenario: Scenario,
            config: ExploreConfig | None = None) -> ExploreReport:
    """Run ``scenario`` over permuted schedules and crash placements."""
    config = config if config is not None else ExploreConfig()
    results: list[ScheduleResult] = []
    pruned = 0

    identity, identity_run = run_one(scenario)
    results.append(identity)
    groups = identity_run.detector.dispatch_groups()
    identity_sig = tuple(tuple(seq for seq, _l in members)
                         for _deadline, members in groups)

    executed_sigs = {identity_sig}
    surviving_seeds: list[int] = []
    for seed in range(config.seed_base,
                      config.seed_base + max(0, config.schedules - 1)):
        if config.dpor and groups:
            sig = _predicted_signature(groups, seed)
            if sig in executed_sigs:
                pruned += 1
                continue
            if not _first_divergence_conflicts(groups, sig, identity_sig):
                pruned += 1
                continue
            executed_sigs.add(sig)
        surviving_seeds.append(seed)
        result, _run = run_one(scenario, seed=seed)
        results.append(result)

    for point in scenario.crash_points:
        result, _run = run_one(scenario, crash_point=point)
        results.append(result)
        if config.crash_with_schedules:
            for seed in surviving_seeds:
                result, _run = run_one(scenario, seed=seed,
                                       crash_point=point)
                results.append(result)

    return ExploreReport(scenario=scenario.name, results=results,
                         pruned=pruned, groups=groups)
