"""Shared fixtures for the test suite, plus the post-hoc invariant
audit: every kernel built during a test is checked for accounting
violations after the test body finishes, so a test that silently
corrupts kernel state fails even if its own assertions pass.  Tests
that corrupt state *on purpose* opt out with
``@pytest.mark.no_posthoc_audit``.

With ``REPRO_SANITIZE`` set in the environment, every kernel built
during a test is additionally armed with a
:class:`~repro.analysis.sanitizer.PinSanitizer`
(``REPRO_SANITIZE=strict`` raises at the offending operation; any
other value accumulates and fails the test at teardown).  Tests that
*provoke* violations — the paper's broken mechanisms doing what the
paper says they do — scope them out with
``@pytest.mark.san_suppress("check", ...)``; with no arguments the
marker skips suite-level arming for that test entirely (for tests
that manage their own sanitizer or hand-feed event streams).

``REPRO_RACE`` works the same way for the happens-before race engine:
every kernel built during a test is armed with a
:class:`~repro.analysis.races.RaceDetector` (``strict`` raises
:class:`~repro.errors.RaceDetected` at the access that closes a race;
any other value accumulates and fails at teardown), opted out per race
kind — or entirely, with no arguments — via
``@pytest.mark.race_suppress(...)``."""

from __future__ import annotations

import os

import pytest

from repro.analysis.events import StreamChecker
from repro.analysis.races import RaceDetector
from repro.analysis.sanitizer import PinSanitizer
from repro.core.audit import audit_kernel_invariants
from repro.kernel.kernel import Kernel
from repro.sim import costs as costs_mod

_live_kernels: list[Kernel] = []
_original_kernel_init = Kernel.__init__

#: (checker class, mode from its env var, opt-out marker, teardown
#: label) per suite-level checker
_CHECKERS = (
    (PinSanitizer, os.environ.get("REPRO_SANITIZE", ""), "san_suppress",
     "pin sanitizer recorded {n} violation(s)"),
    (RaceDetector, os.environ.get("REPRO_RACE", ""), "race_suppress",
     "race detector recorded {n} race(s)"),
)
#: the suite-level checkers armed for the current test, with their labels
_suite_checkers: list[tuple[StreamChecker, str]] = []


def _recording_init(self, *args, **kwargs):
    _original_kernel_init(self, *args, **kwargs)
    _live_kernels.append(self)
    # Armed at construction: a fresh kernel has no pins and no
    # registrations, so the arming baseline is trivially right even
    # though a Machine may relabel the hub's host afterwards.
    for checker, _label in _suite_checkers:
        checker.arm(self)


Kernel.__init__ = _recording_init


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_setup(item):
    _live_kernels.clear()
    _suite_checkers.clear()
    for cls, mode, marker_name, label in _CHECKERS:
        if not mode:
            continue
        marker = item.get_closest_marker(marker_name)
        if marker is None or marker.args:
            checker = cls(strict=mode == "strict")
            for kind in marker.args if marker is not None else ():
                checker.suppress(kind)
            _suite_checkers.append((checker, label))
    yield


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_teardown(item, nextitem):
    # Hookwrapper so a failing audit cannot abort pytest's own
    # fixture/finalizer teardown (which runs inside the yield).
    yield
    kernels, _live_kernels[:] = list(_live_kernels), []
    checkers, _suite_checkers[:] = list(_suite_checkers), []
    for checker, label in checkers:
        checker.disarm()
        if checker.findings:
            raise AssertionError(
                label.format(n=len(checker.findings))
                + ":\n\n"
                + "\n\n".join(f.format() for f in checker.findings))
    if item.get_closest_marker("no_posthoc_audit") is not None:
        return
    for kernel in kernels:
        audit_kernel_invariants(kernel)


@pytest.fixture
def kernel() -> Kernel:
    """A small machine: 256 frames (1 MiB), plenty of swap."""
    return Kernel(num_frames=256, swap_slots=2048)


@pytest.fixture
def tiny_kernel() -> Kernel:
    """A very small machine (64 frames) where pressure is trivial."""
    return Kernel(num_frames=64, swap_slots=1024)


@pytest.fixture
def free_kernel() -> Kernel:
    """A machine with a zero-cost model, for pure-correctness tests."""
    return Kernel(num_frames=256, swap_slots=2048, costs=costs_mod.FREE)
