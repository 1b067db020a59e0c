"""The lifecycle both event-stream checkers share (``StreamChecker``):
typo-checked suppression, the strict raise, one scope per armed kernel,
a clean unsubscribe, and unmet ``expect()`` blocks — run against the
pin sanitizer and the race detector alike, each on its own golden feed.
"""

from typing import NamedTuple

import pytest

# Every test here arms or feeds its own checker and asserts on the hubs'
# subscriber state, which suite-level arming would change.
pytestmark = [pytest.mark.san_suppress, pytest.mark.race_suppress]

from repro.analysis import events as ev
from repro.analysis.races import RaceDetector
from repro.analysis.sanitizer import PinSanitizer
from repro.errors import RaceDetected, SanitizerViolation, UnmetExpectation
from repro.via.machine import Cluster


class Case(NamedTuple):
    cls: type
    golden: list          #: its last event closes exactly one finding
    kind: str             #: that finding's kind
    error: type           #: the class's strict error


@pytest.fixture(params=[
    pytest.param(Case(PinSanitizer, [
        (ev.PIN, dict(frames=(5,), pid=1)),
        (ev.DMA_BEGIN, dict(frames=(5,), op="read")),
        (ev.UNPIN, dict(frames=(5,), pid=1)),
    ], "dma-unpinned-frame", SanitizerViolation), id="sanitizer"),
    pytest.param(Case(RaceDetector, [
        (ev.PIN, {"frames": (7,), "actor": "a"}),
        (ev.UNPIN, {"frames": (7,), "actor": "a"}),
        (ev.DMA_BEGIN, {"frames": (7,), "actor": "b"}),
    ], "unpin-vs-dma", RaceDetected), id="races"),
])
def case(request) -> Case:
    return request.param


def test_suppress_rejects_typos(case):
    checker = case.cls()
    with pytest.raises(ValueError, match="unknown"):
        checker.suppress("typo")
    with pytest.raises(ValueError, match="unknown"):
        with checker.expect("typo"):
            pass


def test_strict_raises_own_error_at_the_offending_event(case):
    checker = case.cls(strict=True)
    checker.feed(case.golden[:-1])
    assert checker.findings == []
    with pytest.raises(case.error) as exc:
        checker.feed(case.golden[-1:])
    assert exc.value.violation is checker.findings[0]
    assert checker.counts[case.kind] == 1


def test_cluster_arms_one_scope_per_kernel(case):
    cluster = Cluster(2)
    checker = case.cls().arm(cluster)
    assert checker.armed
    hubs = [m.kernel.events for m in cluster.machines]
    assert [len(hub._subs) for hub in hubs] == [1, 1]
    for hub in hubs:
        hub.emit("probe")
    scopes = [entry[0] for entry in checker._ring]
    assert len(scopes) == 2 and len(set(scopes)) == 2
    assert checker.events_seen == 2
    checker.disarm()


def test_disarm_restores_the_record_fast_path(case):
    cluster = Cluster(2)
    checker = case.cls().arm(cluster)
    kernels = [m.kernel for m in cluster.machines]
    assert all(k.events.record != k.trace.emit for k in kernels)
    checker.disarm()
    assert not checker.armed
    for k in kernels:
        assert k.events.record == k.trace.emit
        assert not k.events.active


def test_unmet_expect_raises_at_disarm(case):
    checker = case.cls().arm(Cluster(1))
    with checker.expect(case.kind) as captured:
        pass
    assert captured == []
    with pytest.raises(UnmetExpectation, match=case.kind):
        checker.disarm()


def test_met_expect_captures_instead_of_recording(case):
    checker = case.cls(strict=True)
    with checker.expect(case.kind) as captured:
        checker.feed(case.golden)
    assert len(captured) == 1
    assert checker.findings == []
    assert checker.counts[case.kind] == 0
    checker.disarm()
