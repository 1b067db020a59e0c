"""The SimClock event calendar: ordering, cancellation, freezing,
reset, catch-up semantics, and shim equivalence."""

import pytest

from repro.core.audit import InvariantWatchdog
from repro.kernel.reaper import OrphanReaper
from repro.sim.clock import SimClock


class TestCalendarBasics:
    def test_event_fires_during_the_charge_that_crosses_its_deadline(self):
        clock = SimClock()
        fired = []
        clock.schedule_after(100, fired.append)
        clock.charge(99)
        assert fired == []
        clock.charge(1)
        assert fired == [100]

    def test_callback_receives_now_possibly_past_the_deadline(self):
        clock = SimClock()
        fired = []
        clock.schedule_at(100, fired.append)
        clock.charge(250)
        assert fired == [250]

    def test_deadline_at_or_before_now_fires_on_next_charge(self):
        clock = SimClock()
        clock.charge(500)
        fired = []
        clock.schedule_at(100, fired.append)
        # Never synchronously inside schedule_at.
        assert fired == []
        clock.charge(1)
        assert fired == [501]

    def test_deadline_ties_fire_fifo_by_schedule_order(self):
        clock = SimClock()
        order = []
        for label in "abcde":
            clock.schedule_at(100, lambda now, lbl=label: order.append(lbl))
        clock.charge(100)
        assert order == list("abcde")

    def test_events_across_deadlines_fire_in_deadline_order(self):
        clock = SimClock()
        order = []
        clock.schedule_at(300, lambda now: order.append(300))
        clock.schedule_at(100, lambda now: order.append(100))
        clock.schedule_at(200, lambda now: order.append(200))
        clock.charge(1000)
        assert order == [100, 200, 300]

    def test_negative_deadline_and_delay_rejected(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.schedule_at(-1, lambda now: None)
        with pytest.raises(ValueError):
            clock.schedule_after(-1, lambda now: None)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        clock = SimClock()
        fired = []
        event = clock.schedule_after(100, fired.append)
        assert event.pending
        assert clock.cancel(event)
        assert not event.pending
        clock.charge(1000)
        assert fired == []

    def test_cancel_is_idempotent_and_reports_first_win(self):
        clock = SimClock()
        event = clock.schedule_after(100, lambda now: None)
        assert clock.cancel(event)
        assert not clock.cancel(event)
        clock.charge(1000)
        # A fired event cannot be cancelled either.
        other = clock.schedule_after(10, lambda now: None)
        clock.charge(10)
        assert not other.pending
        assert not clock.cancel(other)

    def test_mass_cancellation_compacts_without_losing_events(self):
        clock = SimClock()
        fired = []
        events = [clock.schedule_at(i + 1, fired.append)
                  for i in range(100)]
        for event in events[::2]:
            clock.cancel(event)
        assert clock.pending_events() == 50
        clock.charge(200)
        assert len(fired) == 50

    def test_compaction_during_dispatch_fires_each_event_once(self):
        # A callback that cancels most of the calendar compacts it while
        # the dispatch pass is still popping from it.
        clock = SimClock()
        fired = []
        later = [clock.schedule_at(10, fired.append) for _ in range(40)]

        def cancel_most(now_ns):
            for event in later[:30]:
                clock.cancel(event)

        clock.schedule_at(5, cancel_most)
        clock.charge(10)
        clock.charge(10)
        assert len(fired) == 10
        assert clock.pending_events() == 0


class TestDaemonCancellation:
    """The reaper and the watchdog cancel through :meth:`SimClock.cancel`,
    so the calendar counts their tombstones and compacts them away."""

    def test_reaper_stop_start_cycles_keep_the_calendar_small(self, kernel):
        reaper = OrphanReaper(kernel, interval_ns=1_000).start()
        for _ in range(1_000):
            reaper.stop()
            reaper.start()
        assert kernel.clock.pending_events() == 1
        assert len(kernel.clock._events) <= 40
        reaper.stop()

    def test_watchdog_arm_disarm_cycles_keep_the_calendar_small(
            self, kernel):
        for _ in range(1_000):
            InvariantWatchdog(interval_ns=1_000).arm((kernel, [])).disarm()
        assert kernel.clock.pending_events() == 0
        assert len(kernel.clock._events) <= 40

    def test_stopped_daemons_leave_no_tombstone_debt(self, kernel):
        reaper = OrphanReaper(kernel, interval_ns=1_000).start()
        watchdog = InvariantWatchdog(interval_ns=1_000).arm((kernel, []))
        reaper.stop()
        watchdog.disarm()
        kernel.clock.charge(10_000)    # both tombstones surface
        assert reaper.scans == 0 and watchdog.checks_run == 0
        assert kernel.clock._tombstones == 0
        assert kernel.clock._events == []


class TestDispatchReentrancy:
    def test_callback_may_reschedule_itself(self):
        clock = SimClock()
        fired = []

        def tick(now_ns):
            fired.append(now_ns)
            if len(fired) < 3:
                clock.schedule_after(100, tick)

        clock.schedule_after(100, tick)
        for _ in range(5):
            clock.charge(100)
        assert fired == [100, 200, 300]

    def test_event_made_due_inside_dispatch_fires_in_same_pass(self):
        clock = SimClock()
        fired = []

        def first(now_ns):
            fired.append("first")
            # Already due: must fire before this charge() returns.
            clock.schedule_at(now_ns, lambda now: fired.append("second"))

        clock.schedule_after(10, first)
        clock.charge(10)
        assert fired == ["first", "second"]

    def test_callback_charges_do_not_recurse_into_dispatch(self):
        clock = SimClock()
        depth = []

        def cb(now_ns):
            depth.append(len(depth))
            clock.charge(1_000)   # would re-trigger dispatch if reentrant

        clock.schedule_after(10, cb)
        clock.schedule_after(20, cb)
        clock.charge(10)
        # Both fired exactly once, sequentially (no recursion blow-up).
        assert depth == [0, 1]


class TestFrozenInteraction:
    def test_no_events_fire_while_frozen(self):
        clock = SimClock()
        fired = []
        clock.schedule_after(10, fired.append)
        with clock.frozen():
            clock.charge(1_000_000)
        assert fired == []
        assert clock.now_ns == 0
        clock.charge(10)
        assert fired == [10]


class TestReset:
    def test_reset_cancels_pending_events(self):
        clock = SimClock()
        fired = []
        event = clock.schedule_after(10, fired.append)
        clock.reset()
        assert not event.pending
        assert clock.pending_events() == 0
        clock.charge(1_000)
        assert fired == []
        # Cancelling a stale handle after reset is a harmless no-op.
        assert not clock.cancel(event)

    def test_back_to_back_phases_do_not_inherit_cadence(self):
        """Regression: a daemon left scheduled across reset() used to
        misfire into the next benchmark phase with stale deadlines."""
        clock = SimClock()
        fired = []

        def tick(now_ns):
            fired.append(now_ns)
            clock.schedule_after(100, tick)

        clock.schedule_after(100, tick)
        clock.charge(250)          # phase 1: fires once (catch-up)
        assert fired == [250]
        clock.reset()
        clock.charge(99)           # phase 2: fresh timeline, no daemon
        assert fired == [250]
        # Restarting the daemon binds it to the new timeline.
        clock.schedule_after(100, tick)
        clock.charge(100)
        assert fired == [250, 199]

    def test_reset_still_zeroes_time_and_categories(self):
        clock = SimClock()
        clock.charge(123, "dma")
        clock.reset()
        assert clock.now_ns == 0
        assert clock.categories() == {}


class TestCadenceCatchUp:
    """Satellite: one large charge jumping several intervals fires a
    periodic daemon once, with the next deadline realigned from now —
    not once per missed interval."""

    def test_calendar_daemon_fires_once_per_large_jump(self):
        clock = SimClock()
        fired = []

        def tick(now_ns):
            fired.append(now_ns)
            clock.schedule_after(100, tick)

        clock.schedule_after(100, tick)
        clock.charge(1_000)        # crosses 10 would-be intervals
        assert fired == [1_000]
        clock.charge(99)
        assert fired == [1_000]
        clock.charge(1)            # realigned: next fire at 1_000 + 100
        assert fired == [1_000, 1_100]

    def test_reaper_catch_up_fires_one_scan_and_realigns(self, kernel):
        reaper = OrphanReaper(kernel, interval_ns=1_000).start()
        assert reaper.scans == 0
        kernel.clock.charge(5_500)         # 5.5 intervals in one charge
        assert reaper.scans == 1
        before = kernel.clock.now_ns
        # Next scan is one interval after the catch-up scan completed
        # (the scan itself charges syscall time), not at a stale
        # multiple of the original phase.
        assert reaper._next_due_ns >= before
        kernel.clock.charge(reaper._next_due_ns - kernel.clock.now_ns)
        assert reaper.scans == 2
        reaper.stop()

    def test_reaper_start_is_idempotent(self, kernel):
        # The legacy per-charge subscriber arm is retired: start() always
        # rides the calendar, and calling it twice must not double-book
        # the cadence event.
        reaper = OrphanReaper(kernel, interval_ns=1_000).start()
        reaper.start()
        assert kernel.clock.pending_events() == 1
        kernel.clock.charge(1_000)
        assert reaper.scans == 1
        reaper.stop()

    def test_stopped_reaper_fires_no_more_events(self, kernel):
        reaper = OrphanReaper(kernel, interval_ns=1_000).start()
        reaper.stop()
        kernel.clock.charge(10_000)
        assert reaper.scans == 0
        assert kernel.clock.pending_events() == 0


class TestTieBreakPermutation:
    """The seeded tie-break hook (satellite of the race-explorer PR):
    identity seed preserves FIFO exactly, integer seeds permute ties
    deterministically, and determinism survives reset()."""

    @staticmethod
    def _run_ties(clock, labels, deadline=100):
        order = []
        for label in labels:
            clock.schedule_at(deadline, lambda now, l=label: order.append(l))
        clock.charge(deadline)
        return order

    def test_identity_seed_preserves_fifo(self):
        clock = SimClock()
        assert clock.set_tiebreak(None) is None
        assert self._run_ties(clock, "abcdef") == list("abcdef")

    def test_fifo_determinism_across_reset(self):
        # Same schedule replayed after reset() dispatches identically,
        # with and without the identity seed installed.
        clock = SimClock()
        first = self._run_ties(clock, "abcdef")
        clock.reset()
        clock.set_tiebreak(None)
        second = self._run_ties(clock, "abcdef")
        assert first == second == list("abcdef")

    def test_seeded_permutation_is_deterministic(self):
        runs = []
        for _ in range(2):
            clock = SimClock()
            clock.set_tiebreak(7)
            runs.append(self._run_ties(clock, "abcdefgh"))
        assert runs[0] == runs[1]
        assert sorted(runs[0]) == list("abcdefgh")

    def test_seed_survives_reset(self):
        clock = SimClock()
        clock.set_tiebreak(7)
        first = self._run_ties(clock, "abcdefgh")
        clock.reset()
        assert clock.tiebreak_seed == 7
        assert self._run_ties(clock, "abcdefgh") == first

    def test_different_seeds_reach_different_orders(self):
        # Not every pair of seeds differs, but across a handful at
        # least one must deviate from FIFO — otherwise the hook is
        # inert and the explorer explores nothing.
        orders = set()
        for seed in range(1, 8):
            clock = SimClock()
            clock.set_tiebreak(seed)
            orders.add(tuple(self._run_ties(clock, "abcdefgh")))
        assert len(orders) > 1 or tuple("abcdefgh") not in orders

    def test_deadline_order_never_violated(self):
        clock = SimClock()
        clock.set_tiebreak(12345)
        order = []
        for deadline in (300, 100, 200):
            for label in "xy":
                clock.schedule_at(
                    deadline,
                    lambda now, l=f"{deadline}{label}": order.append(l))
        clock.charge(300)
        assert [o[:3] for o in order] == ["100", "100", "200", "200",
                                          "300", "300"]

    def test_tiebreak_key_is_pure(self):
        from repro.sim.clock import tiebreak_key
        assert tiebreak_key(3, 17) == tiebreak_key(3, 17)
        assert tiebreak_key(3, 17) != tiebreak_key(4, 17)
        # Seed 0 is a real seed, not the identity.
        assert tiebreak_key(0, 1) != 0


class TestCalendarHooks:
    def test_hooks_observe_schedule_and_dispatch(self):
        from repro.sim.clock import CalendarHook

        class Recorder(CalendarHook):
            def __init__(self):
                self.log = []

            def scheduled(self, event):
                self.log.append(("sched", event.name))

            def pass_begin(self):
                self.log.append(("pass",))

            def fire_begin(self, event):
                self.log.append(("begin", event.name))

            def fire_end(self, event):
                self.log.append(("end", event.name))

        clock = SimClock()
        rec = Recorder()
        remove = clock.add_calendar_hook(rec)
        clock.schedule_at(10, lambda now: None, name="a")
        clock.schedule_at(10, lambda now: None, name="b")
        clock.charge(10)
        assert rec.log == [("sched", "a"), ("sched", "b"), ("pass",),
                           ("begin", "a"), ("end", "a"),
                           ("begin", "b"), ("end", "b")]
        remove()
        clock.schedule_at(20, lambda now: None, name="c")
        clock.charge(10)
        assert ("begin", "c") not in rec.log

    def test_current_firing_names_the_running_callback(self):
        from repro.sim.clock import CalendarHook

        clock = SimClock()
        clock.add_calendar_hook(CalendarHook())
        seen = []

        def cb(now):
            seen.append(clock.current_firing.name)

        clock.schedule_at(5, cb, name="probe")
        assert clock.current_firing is None
        clock.charge(5)
        assert seen == ["probe"]
        assert clock.current_firing is None

    def test_fire_end_runs_even_when_callback_raises(self):
        from repro.sim.clock import CalendarHook

        class Recorder(CalendarHook):
            def __init__(self):
                self.ended = []

            def fire_end(self, event):
                self.ended.append(event.name)

        clock = SimClock()
        rec = Recorder()
        clock.add_calendar_hook(rec)

        def boom(now):
            raise RuntimeError("callback failed")

        clock.schedule_at(5, boom, name="boom")
        with pytest.raises(RuntimeError):
            clock.charge(5)
        assert rec.ended == ["boom"]
        assert clock.current_firing is None
