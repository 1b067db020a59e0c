"""Correctness tooling: the pin-safety sanitizer and the repo linter.

The paper's claim is that pinning is only *reliable* when the kernel can
prove invariants the driver cannot.  This package is the mechanical
check of those invariants:

* :mod:`repro.analysis.events` — a structured event stream (pin/unpin,
  mlock/munlock, DMA windows, swap traffic, TPT lifecycle, registration
  lifecycle, process exit) published by the locking backends, the DMA
  engines, the reclaim path, and the Kernel Agent; its hub also writes
  the trace record of every fact it publishes.  Its
  :class:`~repro.analysis.events.StreamChecker` is the lifecycle both
  checkers below share: arming, scopes, suppression, ``expect()``,
  trails, counting, and the strict raise.
* :mod:`repro.analysis.sanitizer` — :class:`PinSanitizer`, a
  TSAN/lockdep analog that subscribes to that stream and maintains
  per-frame/per-range state machines detecting typed violations, each
  with a happens-before event trail.
* :mod:`repro.analysis.lint` — ``repro-lint``, an AST checker enforcing
  the repo's own coding invariants (no swallowed control-flow
  exceptions, no wall-clock time or unseeded randomness, guarded
  instrumentation hot paths, audited kernel-state mutation, validated
  fault-plan knobs, frame-column views kept in the frame table).
* :mod:`repro.analysis.races` — :class:`RaceDetector`, a vector-clock
  happens-before engine over the same stream: conflicting frame/TPT
  accesses with no synchronization edge become typed
  :class:`RaceViolation`s even when the schedule that ran was harmless.
* :mod:`repro.analysis.explore` — the schedule explorer: re-runs a
  scenario over permuted same-deadline dispatch orders and crash-point
  placements (DPOR-lite pruned), feeding every run through the race
  engine and the sanitizer.
"""

from __future__ import annotations

from repro.analysis.events import EVENT_KINDS, EventHub
from repro.analysis.explore import (
    ExploreConfig, ExploreReport, Scenario, ScheduleResult, explore,
)
from repro.analysis.races import RACE_KINDS, RaceDetector, RaceViolation
from repro.analysis.sanitizer import CHECKS, PinSanitizer, Violation

__all__ = [
    "EVENT_KINDS", "EventHub",
    "CHECKS", "PinSanitizer", "Violation",
    "RACE_KINDS", "RaceDetector", "RaceViolation",
    "ExploreConfig", "ExploreReport", "Scenario", "ScheduleResult",
    "explore",
]
