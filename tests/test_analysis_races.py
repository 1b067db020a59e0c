"""Golden tests for the vector-clock happens-before race engine.

The feed-mode tests hand-author event streams with explicit ``actor``
fields — each distinct actor is its own context, concurrent unless a
sync edge orders it — and pin down every race class, every sync edge,
and the directional/windowed conflict rules one at a time.  The
live-mode tests arm a real kernel and prove the execution-context
model: the same two calendar callbacks are race-clean in the protocol
order and a reported race in the reversed order.
"""

from __future__ import annotations

import pytest

# Every test here manages its own detector (and provokes races on
# purpose); suite-level arming would double-report and fail teardown.
pytestmark = [pytest.mark.san_suppress, pytest.mark.race_suppress]

from repro.analysis import events as ev
from repro.analysis.races import RACE_KINDS, RaceDetector, RaceViolation
from repro.errors import RaceDetected
from repro.hw.physmem import PAGE_SIZE
from repro.kernel.kernel import Kernel


def detect(events, **kwargs) -> RaceDetector:
    det = RaceDetector(**kwargs)
    det.feed(events)
    return det


def kinds(det: RaceDetector) -> list[str]:
    return [r.race for r in det.races]


# ------------------------------------------------------------- feed mode

class TestDirectionalConflicts:
    def test_unpin_then_dma_races(self):
        det = detect([
            (ev.PIN, {"frames": (7,), "actor": "a"}),
            (ev.UNPIN, {"frames": (7,), "actor": "a"}),
            (ev.DMA_BEGIN, {"frames": (7,), "actor": "b"}),
        ])
        assert kinds(det) == ["unpin-vs-dma"]

    def test_dma_then_unpin_window_open_races(self):
        det = detect([
            (ev.DMA_BEGIN, {"frames": (7,), "actor": "a"}),
            (ev.UNPIN, {"frames": (7,), "actor": "b"}),
        ])
        assert kinds(det) == ["unpin-vs-dma"]

    def test_dma_then_unpin_window_closed_is_teardown(self):
        det = detect([
            (ev.DMA_BEGIN, {"frames": (7,), "actor": "a"}),
            (ev.DMA_END, {"frames": (7,), "actor": "a"}),
            (ev.UNPIN, {"frames": (7,), "actor": "b"}),
        ])
        assert det.races == []

    def test_swap_then_dma_races(self):
        det = detect([
            (ev.SWAP_OUT, {"frame": 3, "actor": "reclaim"}),
            (ev.DMA_BEGIN, {"frames": (3,), "actor": "nic"}),
        ])
        assert kinds(det) == ["swap-vs-dma"]

    def test_invalidate_then_translate_races(self):
        det = detect([
            (ev.TPT_PAGE_INVALIDATE, {"handle": 5, "actor": "a"}),
            (ev.TPT_TRANSLATE, {"handle": 5, "actor": "b"}),
        ])
        assert kinds(det) == ["invalidate-vs-translate"]

    def test_translate_then_invalidate_is_teardown(self):
        det = detect([
            (ev.TPT_TRANSLATE, {"handle": 5, "actor": "a"}),
            (ev.TPT_INVALIDATE, {"handle": 5, "actor": "b"}),
        ])
        assert det.races == []

    def test_service_then_evict_races(self):
        det = detect([
            (ev.FAULT_SERVICE, {"handle": 5, "frames": (9,), "actor": "a"}),
            (ev.ODP_EVICT, {"frame": 9, "actor": "b"}),
        ])
        assert kinds(det) == ["fault-service-vs-evict"]

    def test_evict_then_service_is_refault(self):
        det = detect([
            (ev.ODP_EVICT, {"frame": 9, "actor": "a"}),
            (ev.FAULT_SERVICE, {"handle": 5, "frames": (9,), "actor": "b"}),
        ])
        assert det.races == []

    def test_concurrent_unpin_unpin_is_pin_ledger(self):
        det = detect([
            (ev.UNPIN, {"frames": (2,), "actor": "a"}),
            (ev.UNPIN, {"frames": (2,), "actor": "b"}),
        ])
        assert kinds(det) == ["pin-ledger"]

    def test_pin_then_unpin_concurrent_is_pin_ledger(self):
        det = detect([
            (ev.PIN, {"frames": (2,), "actor": "a"}),
            (ev.UNPIN, {"frames": (2,), "actor": "b"}),
        ])
        assert kinds(det) == ["pin-ledger"]

    def test_same_actor_is_always_ordered(self):
        det = detect([
            (ev.UNPIN, {"frames": (2,), "actor": "a"}),
            (ev.DMA_BEGIN, {"frames": (2,), "actor": "a"}),
            (ev.PIN, {"frames": (2,), "actor": "a"}),
            (ev.UNPIN, {"frames": (2,), "actor": "a"}),
        ])
        assert det.races == []

    def test_distinct_locations_never_conflict(self):
        det = detect([
            (ev.UNPIN, {"frames": (1,), "actor": "a"}),
            (ev.DMA_BEGIN, {"frames": (2,), "actor": "b"}),
            (ev.TPT_PAGE_INVALIDATE, {"handle": 1, "actor": "a"}),
            (ev.TPT_TRANSLATE, {"handle": 2, "actor": "b"}),
        ])
        assert det.races == []


class TestSyncEdges:
    def test_doorbell_completion_orders_contexts(self):
        det = detect([
            (ev.PIN, {"frames": (4,), "actor": "app"}),
            (ev.DMA_BEGIN, {"frames": (4,), "actor": "nic"}),
            (ev.DMA_END, {"frames": (4,), "actor": "nic"}),
            (ev.DOORBELL, {"token": 1, "actor": "nic"}),
            (ev.COMPLETION, {"token": 1, "actor": "app"}),
            (ev.UNPIN, {"frames": (4,), "actor": "app"}),
        ])
        assert det.races == []

    def test_unpin_without_completion_races_open_window(self):
        det = detect([
            (ev.PIN, {"frames": (4,), "actor": "app"}),
            (ev.DMA_BEGIN, {"frames": (4,), "actor": "nic"}),
            (ev.UNPIN, {"frames": (4,), "actor": "app"}),
        ])
        assert kinds(det) == ["unpin-vs-dma"]

    def test_completion_of_other_token_does_not_order(self):
        det = detect([
            (ev.PIN, {"frames": (4,), "actor": "app"}),
            (ev.UNPIN, {"frames": (4,), "actor": "app"}),
            (ev.DOORBELL, {"token": 1, "actor": "app"}),
            (ev.COMPLETION, {"token": 2, "actor": "nic"}),
            (ev.DMA_BEGIN, {"frames": (4,), "actor": "nic"}),
        ])
        assert kinds(det) == ["unpin-vs-dma"]

    def test_fault_suspend_service_resume_chain(self):
        # suspend releases; service acquires it and releases its own
        # work; resume acquires the service — the full ODP protocol is
        # one happens-before chain across three contexts.
        det = detect([
            (ev.DMA_SUSPEND, {"handle": 5, "token": 9, "actor": "nic"}),
            (ev.FAULT_SERVICE, {"handle": 5, "token": 9, "frames": (6,),
                                "actor": "agent"}),
            (ev.DMA_RESUME, {"handle": 5, "token": 9, "actor": "nic"}),
            (ev.ODP_EVICT, {"frame": 6, "actor": "agent"}),
        ])
        assert det.races == []

    def test_fence_orders_eviction_before_service(self):
        det = detect([
            (ev.FAULT_SERVICE, {"handle": 5, "frames": (6,),
                                "actor": "agent"}),
            (ev.FENCE, {"handle": 5, "frame": 6, "actor": "agent"}),
            (ev.ODP_EVICT, {"frame": 6, "actor": "evictor"}),
        ])
        # service then evict by another actor *would* race, but here
        # there is no edge from agent to evictor, so it still does:
        assert kinds(det) == ["fault-service-vs-evict"]
        det = detect([
            (ev.FENCE, {"handle": 5, "frame": 6, "actor": "evictor"}),
            (ev.ODP_EVICT, {"frame": 6, "actor": "evictor"}),
            (ev.FAULT_SERVICE, {"handle": 5, "frames": (6,),
                                "actor": "agent"}),
            (ev.ODP_EVICT, {"frame": 6, "actor": "evictor2"}),
        ])
        # ...whereas a service that acquired the fence is ordered after
        # the evictor; the second evictor saw nothing and still races.
        assert kinds(det) == ["fault-service-vs-evict"]
        assert det.races[0].current_actor == "evictor2"

    def test_feed_actor_fallbacks(self):
        det = detect([
            (ev.PIN, {"frames": (1,), "pid": 42}),
            (ev.UNPIN, {"frames": (1,), "pid": 42}),
            (ev.DMA_BEGIN, {"frames": (1,), "engine": "dma0"}),
        ])
        assert kinds(det) == ["unpin-vs-dma"]
        assert det.races[0].prior_actor == "task:42"
        assert det.races[0].current_actor == "dma0"


class TestReporting:
    RACY = [
        (ev.PIN, {"frames": (7,), "actor": "a"}),
        (ev.UNPIN, {"frames": (7,), "actor": "a"}),
        (ev.DMA_BEGIN, {"frames": (7,), "actor": "b"}),
    ]

    def test_violation_carries_both_trails(self):
        det = detect(self.RACY)
        race = det.races[0]
        assert isinstance(race, RaceViolation)
        assert race.location == ("frame", 7)
        assert race.prior.kind == ev.UNPIN
        assert race.current.kind == ev.DMA_BEGIN
        assert [e.kind for e in race.prior_trail] == [ev.PIN, ev.UNPIN]
        assert [e.kind for e in race.current_trail] == [ev.DMA_BEGIN]
        text = race.format()
        assert "unpin-vs-dma" in text
        assert "prior access by a" in text
        assert "current access by b" in text
        assert "=>" in text

    def test_strict_raises_at_the_closing_access(self):
        det = RaceDetector(strict=True)
        with pytest.raises(RaceDetected) as exc_info:
            det.feed(self.RACY)
        assert exc_info.value.violation.race == "unpin-vs-dma"

    def test_duplicate_pairs_report_once(self):
        det = detect(self.RACY + [
            (ev.DMA_BEGIN, {"frames": (7,), "actor": "b"}),
        ])
        assert kinds(det) == ["unpin-vs-dma"]

    def test_counts_cover_all_kinds(self):
        det = detect(self.RACY)
        assert set(det.counts) == set(RACE_KINDS)
        assert det.counts["unpin-vs-dma"] == 1
        assert det.counts["swap-vs-dma"] == 0

    def test_suppress_and_unsuppress(self):
        det = RaceDetector(suppress=("unpin-vs-dma",))
        det.feed(self.RACY)
        assert det.races == []
        det.unsuppress("unpin-vs-dma")
        det.feed([(ev.DMA_BEGIN, {"frames": (7,), "actor": "c"})])
        assert kinds(det) == ["unpin-vs-dma"]

    def test_suppress_checks_spelling(self):
        with pytest.raises(ValueError, match="unknown race kind"):
            RaceDetector(suppress=("unpin_vs_dma",))


# ------------------------------------------------------------- live mode

def _pinned_kernel() -> tuple[Kernel, int, int]:
    kernel = Kernel(num_frames=64)
    task = kernel.create_task(name="app")
    va = task.mmap(1)
    task.write(va, b"x")
    frame = kernel.pin_user_page(task, va // PAGE_SIZE)
    return kernel, frame, task.pid


class TestLiveCalendarContexts:
    def test_protocol_order_is_clean(self):
        kernel, frame, pid = _pinned_kernel()
        det = RaceDetector().arm(kernel)
        kernel.clock.schedule_after(
            100, lambda now: kernel.dma.read(frame * PAGE_SIZE, 16),
            name="dma")
        kernel.clock.schedule_after(
            100, lambda now: kernel.unpin_user_page(frame, pid),
            name="unpin")
        kernel.clock.charge(100, "test")
        det.disarm()
        assert det.races == []
        assert det.events_seen > 0

    def test_reversed_order_races(self):
        kernel, frame, pid = _pinned_kernel()
        det = RaceDetector().arm(kernel)
        kernel.clock.schedule_after(
            100, lambda now: kernel.unpin_user_page(frame, pid),
            name="unpin")
        kernel.clock.schedule_after(
            100, lambda now: kernel.dma.read(frame * PAGE_SIZE, 16),
            name="dma")
        kernel.clock.charge(100, "test")
        det.disarm()
        assert kinds(det) == ["unpin-vs-dma"]
        race = det.races[0]
        assert "ev" in race.prior_actor and "unpin" in race.prior_actor
        assert "dma" in race.current_actor

    def test_sequential_deadlines_are_ordered(self):
        kernel, frame, pid = _pinned_kernel()
        det = RaceDetector().arm(kernel)
        kernel.clock.schedule_after(
            100, lambda now: kernel.unpin_user_page(frame, pid),
            name="unpin")
        kernel.clock.schedule_after(
            200, lambda now: kernel.dma.read(frame * PAGE_SIZE, 16),
            name="dma")
        kernel.clock.charge(200, "test")
        det.disarm()
        # different deadlines: the unpin firing happens-before the DMA
        # firing through the completed-frontier join — teardown order,
        # not a race (the sanitizer owns flagging the stale DMA itself).
        assert det.races == []

    def test_main_is_ordered_after_callbacks(self):
        kernel, frame, pid = _pinned_kernel()
        det = RaceDetector().arm(kernel)
        kernel.clock.schedule_after(
            100, lambda now: kernel.unpin_user_page(frame, pid),
            name="unpin")
        kernel.clock.charge(100, "test")
        kernel.dma.read(frame * PAGE_SIZE, 16)   # main, after the fold
        det.disarm()
        assert det.races == []

    def test_live_transfer_emits_doorbell_and_completion(self):
        from repro.via.descriptor import Descriptor
        from repro.via.machine import connected_pair

        cluster, ua_s, ua_r, vi_s, vi_r = connected_pair("kiobuf")
        cq = ua_r.create_cq()
        vi_r2 = ua_r.create_vi(recv_cq=cq)
        vi_s2 = ua_s.create_vi()
        cluster.connect(vi_s2, cluster[0], vi_r2, cluster[1])
        det = RaceDetector().arm(cluster)
        seen: list = []
        unsubs = [m.kernel.events.subscribe(seen.append)
                  for m in cluster.machines]

        va = ua_r.task.mmap(1)
        reg_r = ua_r.register_mem(va, PAGE_SIZE)
        ua_r.post_recv(vi_r2, Descriptor.recv([ua_r.segment(reg_r)]))
        va_s = ua_s.task.mmap(1)
        ua_s.task.write(va_s, b"hello")
        reg_s = ua_s.register_mem(va_s, PAGE_SIZE)
        ua_s.post_send(vi_s2, Descriptor.send([ua_s.segment(reg_s)]))
        completion = cq.poll()
        assert completion is not None

        for unsub in unsubs:
            unsub()
        det.disarm()
        assert det.races == []
        # tokens count per NIC, so key by (host, token): the posting
        # doorbell and the observing completion share both
        doorbells = {(e.host, e.get("token"))
                     for e in seen if e.kind == ev.DOORBELL}
        completions = [e for e in seen if e.kind == ev.COMPLETION]
        assert len(doorbells) >= 2          # the recv and the send post
        assert completions and all(
            (c.host, c.get("token")) in doorbells for c in completions)

    def test_dispatch_groups_record_ties_and_locations(self):
        kernel, frame, pid = _pinned_kernel()
        det = RaceDetector().arm(kernel)
        kernel.clock.schedule_after(
            100, lambda now: kernel.dma.read(frame * PAGE_SIZE, 16),
            name="dma")
        kernel.clock.schedule_after(
            100, lambda now: kernel.unpin_user_page(frame, pid),
            name="unpin")
        kernel.clock.schedule_after(
            300, lambda now: None, name="lone")
        kernel.clock.charge(300, "test")
        det.disarm()
        groups = det.dispatch_groups()
        assert len(groups) == 1                  # lone event: no tie
        _deadline, members = groups[0]
        assert len(members) == 2
        assert all(("frame", frame) in locs for _seq, locs in members)
