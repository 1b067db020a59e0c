"""PinSanitizer: golden sequences per check, runtime integration per
backend, the §3.1/§3.2 detections, and the observability bridge."""

from collections import Counter

import numpy as np
import pytest

# Every test here manages its own sanitizer (or hand-feeds events), so
# suite-level arming would double-count and double-raise — and several
# tests assert the hub has no subscribers at all, which suite-level
# race-detector arming would also break.
pytestmark = [pytest.mark.san_suppress, pytest.mark.race_suppress]

from repro.analysis.events import (
    ATOMIC_RMW, DEREGISTER, DMA_BEGIN, DMA_END, PIN, REGISTER, SWAP_OUT,
    TASK_EXIT, TPT_INVALIDATE, TPT_TRANSLATE, UNPIN, EventHub, MUNLOCK,
)
from repro.analysis.sanitizer import CHECKS, MLOCK_BACKENDS, PinSanitizer
from repro.core.locktest import LocktestExperiment
from repro.errors import SanitizerViolation, UnmetExpectation
from repro.hw.physmem import PAGE_SIZE
from repro.kernel.kiobuf import map_user_kiobuf, unmap_kiobuf
from repro.msg.endpoint import make_pair
from repro.msg.protocols import (
    EagerProtocol, RendezvousCopyProtocol, RendezvousZeroCopyProtocol,
)
from repro.via.descriptor import DataSegment, Descriptor
from repro.via.machine import Cluster, Machine
from repro.workloads.allocator import MemoryHog
from tests.pairs import connected_pair


def reg_event(handle=1, pid=10, frames=(3, 4), backend="kiobuf",
              first_vpn=100, npages=2):
    return (REGISTER, dict(handle=handle, pid=pid, frames=frames,
                           backend=backend, first_vpn=first_vpn,
                           npages=npages))


def only(san, check):
    """Assert exactly one violation, of ``check``; return it."""
    assert [v.check for v in san.violations] == [check]
    counts = san.counts
    assert counts[check] == 1
    assert sum(counts.values()) == 1
    return san.violations[0]


# ------------------------------------------------- golden sequences per check

class TestGoldenSequences:
    """One hand-fed event sequence per catalog entry."""

    def test_dma_unpinned_frame(self):
        san = PinSanitizer()
        san.feed([
            (PIN, dict(frames=(5,), pid=1)),
            (DMA_BEGIN, dict(frames=(5,), op="read")),
            (UNPIN, dict(frames=(5,), pid=1)),
        ])
        v = only(san, "dma-unpinned-frame")
        assert "frame 5" in v.message and "DMA window" in v.message

    def test_dma_unpinned_only_when_count_reaches_zero(self):
        san = PinSanitizer()
        san.feed([
            (PIN, dict(frames=(5,), pid=1)),
            (PIN, dict(frames=(5,), pid=1)),       # second registration
            (DMA_BEGIN, dict(frames=(5,), op="read")),
            (UNPIN, dict(frames=(5,), pid=1)),     # one pin remains
        ])
        assert san.violations == []

    def test_dma_swapped_frame(self):
        san = PinSanitizer()
        san.feed([
            (DMA_BEGIN, dict(frames=(7,), op="write")),
            (SWAP_OUT, dict(pid=1, vpn=10, frame=7)),
        ])
        v = only(san, "dma-swapped-frame")
        assert "swap_out" in v.message

    def test_dma_end_closes_the_window(self):
        san = PinSanitizer()
        san.feed([
            (DMA_BEGIN, dict(frames=(7,), op="write")),
            (DMA_END, dict(frames=(7,), op="write")),
            (SWAP_OUT, dict(pid=1, vpn=10, frame=7)),
        ])
        assert san.violations == []

    def test_mlock_nesting(self):
        san = PinSanitizer()
        san.feed([
            reg_event(backend="mlock_naive"),
            (MUNLOCK, dict(pid=10, start_vpn=100, end_vpn=102)),
        ])
        v = only(san, "mlock-nesting")
        assert "does not nest" in v.message and "§3.2" in v.message

    def test_mlock_nesting_needs_overlap_pid_and_backend(self):
        san = PinSanitizer()
        san.feed([
            reg_event(handle=1, backend="mlock"),
            reg_event(handle=2, pid=11, backend="mlock", first_vpn=500),
            reg_event(handle=3, backend="kiobuf"),
            # Disjoint range / other pid / non-mlock backend: all clean.
            (MUNLOCK, dict(pid=10, start_vpn=400, end_vpn=402)),
            (MUNLOCK, dict(pid=12, start_vpn=100, end_vpn=102)),
        ])
        assert san.violations == []
        # A dead registration no longer trips it either.
        san.feed([
            (DEREGISTER, dict(handle=1, pid=10)),
            (MUNLOCK, dict(pid=10, start_vpn=100, end_vpn=102)),
        ])
        assert san.violations == []

    def test_pin_underflow(self):
        san = PinSanitizer()
        san.feed([(UNPIN, dict(frames=(9,), pid=1))])
        v = only(san, "pin-underflow")
        assert "double release" in v.message

    def test_tpt_use_after_invalidate(self):
        san = PinSanitizer()
        san.feed([
            (TPT_TRANSLATE, dict(handle=2, va=0, length=64)),  # live: fine
            (TPT_INVALIDATE, dict(handle=2)),
            (TPT_TRANSLATE, dict(handle=2, va=0, length=64)),
        ])
        v = only(san, "tpt-use-after-invalidate")
        assert "handle 2" in v.message

    def test_registration_leak(self):
        san = PinSanitizer()
        san.feed([
            reg_event(handle=4),
            (TASK_EXIT, dict(pid=10, cleanup=True)),
        ])
        v = only(san, "registration-leak")
        assert "clean teardown" in v.message and "[4]" in v.message

    def test_no_leak_without_cleanup_or_registrations(self):
        san = PinSanitizer()
        san.feed([
            reg_event(handle=4),
            # Modelled-buggy teardown: the reaper's problem, not ours.
            (TASK_EXIT, dict(pid=10, cleanup=False)),
            (TASK_EXIT, dict(pid=99, cleanup=True)),
        ])
        assert san.violations == []

    def test_swap_registered(self):
        san = PinSanitizer()
        san.feed([
            reg_event(frames=(3,), backend="refcount", npages=1),
            (SWAP_OUT, dict(pid=10, vpn=100, frame=3)),
        ])
        v = only(san, "swap-registered")
        assert "§3.1" in v.message and "refcount" in v.message

    def test_deregister_ends_swap_registered_liability(self):
        san = PinSanitizer()
        san.feed([
            reg_event(frames=(3,), backend="refcount", npages=1),
            (DEREGISTER, dict(handle=1, pid=10)),
            (SWAP_OUT, dict(pid=10, vpn=100, frame=3)),
        ])
        assert san.violations == []


# ----------------------------------------------------------------- the trail

class TestTrail:
    def test_trail_is_related_events_with_trigger_last(self):
        san = PinSanitizer()
        san.feed([
            (PIN, dict(frames=(5,), pid=1)),
            (PIN, dict(frames=(6,), pid=2)),       # unrelated frame/pid
            (DMA_BEGIN, dict(frames=(5,), op="read")),
            (UNPIN, dict(frames=(5,), pid=1)),
        ])
        [v] = san.violations
        assert v.event is v.trail[-1]
        kinds = [e.kind for e in v.trail]
        assert kinds == [PIN, DMA_BEGIN, UNPIN]
        assert all(5 in e.get("frames", ()) or e.get("pid") == 1
                   for e in v.trail)

    def test_format_marks_the_trigger(self):
        san = PinSanitizer()
        san.feed([(UNPIN, dict(frames=(9,), pid=1))])
        report = san.violations[0].format()
        assert report.startswith("[pin-underflow] on test:")
        assert "=> " in report and "unpin" in report

    def test_trail_is_bounded(self):
        san = PinSanitizer()
        san.TRAIL_MAXLEN = 64
        san.TRAIL_REPORT = 8
        san.feed([(PIN, dict(frames=(5,), pid=1))] * 200)
        san.feed([(DMA_BEGIN, dict(frames=(5,), op="read"))])
        san.feed([(UNPIN, dict(frames=(5,), pid=1))] * 200)
        assert san.violations            # eventually underflows
        assert len(san.violations[0].trail) <= 8


# ------------------------------------------------- strict / suppress / expect

class TestModes:
    def test_strict_raises_at_the_offending_operation(self):
        san = PinSanitizer(strict=True)
        with pytest.raises(SanitizerViolation) as err:
            san.feed([(UNPIN, dict(frames=(9,), pid=1))])
        assert err.value.violation.check == "pin-underflow"
        assert "pin-underflow" in str(err.value)

    def test_suppress_silences_one_check(self):
        san = PinSanitizer(strict=True).suppress("pin-underflow")
        san.feed([(UNPIN, dict(frames=(9,), pid=1))])
        assert san.violations == []
        assert san.counts["pin-underflow"] == 0

    def test_suppress_rejects_typos(self):
        with pytest.raises(ValueError, match="unknown check"):
            PinSanitizer().suppress("pin-underfow")
        with pytest.raises(ValueError, match="unknown check"):
            PinSanitizer().expect("dma-unpined").__enter__()

    def test_expect_captures_instead_of_recording(self):
        san = PinSanitizer(strict=True)
        with san.expect("pin-underflow") as got:
            san.feed([(UNPIN, dict(frames=(9,), pid=1))])
        assert [v.check for v in got] == ["pin-underflow"]
        assert san.violations == [] and sum(san.counts.values()) == 0
        # Outside the window, strict raises again.
        with pytest.raises(SanitizerViolation):
            san.feed([(UNPIN, dict(frames=(9,), pid=1))])

    def test_expect_with_no_args_captures_everything(self):
        san = PinSanitizer(strict=True)
        with san.expect() as got:
            san.feed([
                (UNPIN, dict(frames=(9,), pid=1)),
                (DMA_BEGIN, dict(frames=(7,), op="read")),
                (SWAP_OUT, dict(pid=1, vpn=0, frame=7)),
            ])
        assert {v.check for v in got} == {"pin-underflow",
                                         "dma-swapped-frame"}

    def test_unmet_expectation_raises_at_disarm(self):
        # Regression: an expect() block whose violation never fires used
        # to pass silently — the assertion on the capture list becomes
        # vacuous when the scenario stops exercising the hazard.
        san = PinSanitizer().arm(Machine(num_frames=32))
        with san.expect("pin-underflow") as got:
            pass                                # hazard never provoked
        assert got == []
        with pytest.raises(UnmetExpectation, match="pin-underflow"):
            san.disarm()
        # the unmet list is consumed: a second disarm is quiet
        san.disarm()

    def test_met_expectation_disarms_quietly(self):
        san = PinSanitizer().arm(Machine(num_frames=32))
        with san.expect("pin-underflow") as got:
            san.feed([(UNPIN, dict(frames=(9,), pid=1))])
        assert [v.check for v in got] == ["pin-underflow"]
        san.disarm()
        assert san.violations == []

    def test_exception_in_expect_block_is_not_masked(self):
        # An exception unwinding through the block is the usual reason
        # nothing fired; the expectation must not pile on top of it.
        san = PinSanitizer().arm(Machine(num_frames=32))
        with pytest.raises(RuntimeError, match="workload died"):
            with san.expect("pin-underflow"):
                raise RuntimeError("workload died")
        san.disarm()

    def test_unmet_expectation_is_an_assertion_failure(self):
        # UnmetExpectation doubles as AssertionError so test harnesses
        # report it as a plain failure, not an error.
        assert issubclass(UnmetExpectation, AssertionError)


# --------------------------------------------------------- runtime integration

#: Zero-copy transfers start here; the copy protocols stay below it.
ZERO_COPY_MIN = 32 * 1024


def pump_transfers(cluster, rounds=12, pages=16):
    """Drive verified transfers across ``cluster``: each round sends one
    eager (below 4 KiB) or rendezvous-copy (below :data:`ZERO_COPY_MIN`)
    message, then one uncached zero-copy message of at least
    :data:`ZERO_COPY_MIN` bytes, which registers and deregisters both
    user buffers."""
    s, r = make_pair(cluster)
    eager, rcopy = EagerProtocol(), RendezvousCopyProtocol()
    zcopy = RendezvousZeroCopyProtocol(use_cache=False)
    src = s.task.mmap(pages)
    s.task.touch_pages(src, pages)
    dst = r.task.mmap(pages)
    r.task.touch_pages(dst, pages)
    rng = np.random.default_rng(1)
    for i in range(rounds):
        small = int(rng.integers(64, ZERO_COPY_MIN - 64))
        large = int(rng.integers(ZERO_COPY_MIN, pages * PAGE_SIZE - 64))
        for size, protocol in ((small, eager if small < 4 * 1024
                                else rcopy), (large, zcopy)):
            payload = bytes(rng.integers(0, 256, size, dtype=np.uint8))
            s.task.write(src, payload)
            result = protocol.transfer(s, r, src, dst, size)
            assert result.ok and not result.degraded
            assert r.task.read(dst, size) == payload


class KindCountingSanitizer(PinSanitizer):
    """A pin sanitizer that also tallies the event kinds it consumed."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.kinds = Counter()

    def handle(self, event, scope=None):
        self.kinds[event.kind] += 1
        super().handle(event, scope)


class TestRuntimeClean:
    """Armed strict, the reliable mechanisms run real workloads with
    zero violations — the sanitizer's false-positive budget is zero."""

    @pytest.mark.parametrize("backend", ["kiobuf", "mlock", "mlock_naive",
                                         "pageflags"])
    def test_locktest_under_pressure_is_clean(self, backend):
        exp = LocktestExperiment(backend, buffer_pages=16,
                                 num_frames=192)
        san = exp.machine.arm_sanitizer(strict=True)
        result = exp.run()
        assert result.registration_survived
        assert san.events_seen > 0
        assert sum(san.counts.values()) == 0
        san.disarm()

    def test_cluster_messaging_with_churn_is_clean(self):
        cluster = Cluster(2, num_frames=512, backend="kiobuf")
        san = KindCountingSanitizer(strict=True).arm(cluster)
        hogs = [MemoryHog(m.kernel, "churner") for m in cluster.machines]
        for hog, m in zip(hogs, cluster.machines):
            hog.grow(m.kernel.pagemap.num_frames * 9 // 10)
        pump_transfers(cluster)
        for hog in hogs:
            hog.churn()
        before = san.kinds.copy()
        writes = [m.kernel.swap.writes for m in cluster.machines]
        pump_transfers(cluster, rounds=4)
        # The transfers ran under memory pressure: both hosts swapped
        # while they pinned, used and released their buffers.
        assert all(m.kernel.swap.writes > w
                   for m, w in zip(cluster.machines, writes))
        # Every zero-copy transfer after the churn registered and then
        # deregistered both of its user buffers under the sanitizer.
        churned = san.kinds - before
        assert churned[DEREGISTER] == 2 * 4
        assert churned[REGISTER] >= churned[DEREGISTER]
        # Both hosts' streams were observed, under their machine names.
        hosts = {e.host for _scope, e in san._ring}
        assert hosts == {"m0", "m1"}
        assert sum(san.counts.values()) == 0
        san.disarm()
        seen = san.events_seen
        pump_transfers(cluster, rounds=2)
        assert san.events_seen == seen   # disarm really unsubscribed

    def test_clean_exit_with_live_registrations_is_not_a_leak(self):
        # The driver's exit release deregisters before TASK_EXIT fires, so
        # dying with live registrations is *clean* teardown, not a leak.
        m = Machine("m0", backend="kiobuf")
        san = m.arm_sanitizer(strict=True)
        t = m.spawn("app")
        ua = m.user_agent(t)
        va = t.mmap(8)
        ua.register_mem(va, 8 * PAGE_SIZE)
        m.kernel.exit_task(t)
        assert sum(san.counts.values()) == 0
        san.disarm()


class TestRuntimeDetections:
    """The sanitizer catches the paper's two failure modes live."""

    def test_section_3_1_refcount_swap_registered(self):
        exp = LocktestExperiment("refcount", buffer_pages=16,
                                 num_frames=192)
        san = exp.machine.arm_sanitizer(strict=True)
        with san.expect("swap-registered") as got:
            exp.run()
        assert got, "pressure never swapped a registered page"
        v = got[0]
        assert "§3.1" in v.message and "refcount" in v.message
        # The trail ends at the triggering swap_out of that frame.
        assert v.trail[-1] is v.event
        assert v.event.kind == SWAP_OUT
        san.disarm()

    def test_section_3_2_naive_mlock_nesting(self):
        m = Machine("m0", backend="mlock_naive", num_frames=256)
        san = m.arm_sanitizer(strict=True)
        t = m.spawn("app")
        ua = m.user_agent(t)
        va = t.mmap(8)
        r1 = ua.register_mem(va, 8 * PAGE_SIZE)
        r2 = ua.register_mem(va, 8 * PAGE_SIZE)
        with san.expect("mlock-nesting") as got:
            ua.deregister_mem(r1)       # annuls r2's VM_LOCKED (§3.2)
        assert [v.check for v in got] == ["mlock-nesting"]
        v = got[0]
        assert f"handle {r2.handle}" in v.message
        assert v.event.kind == MUNLOCK
        # The trail shows the surviving registration then the munlock.
        kinds = [e.kind for e in v.trail]
        assert REGISTER in kinds and kinds[-1] == MUNLOCK
        ua.deregister_mem(r2)
        assert sum(san.counts.values()) == 0
        san.disarm()

    def test_tracked_mlock_backend_does_not_trip_nesting(self):
        m = Machine("m0", backend="mlock", num_frames=256)
        san = m.arm_sanitizer(strict=True)
        t = m.spawn("app")
        ua = m.user_agent(t)
        va = t.mmap(8)
        r1 = ua.register_mem(va, 8 * PAGE_SIZE)
        r2 = ua.register_mem(va, 8 * PAGE_SIZE)
        ua.deregister_mem(r1)           # tracked: r2 stays VM_LOCKED
        ua.deregister_mem(r2)
        assert sum(san.counts.values()) == 0
        san.disarm()


class TestArming:
    def test_arm_baselines_preexisting_pins(self, kernel):
        t = kernel.create_task(name="app")
        va = t.mmap(4)
        t.touch_pages(va, 4)
        kio = map_user_kiobuf(kernel, t, va, 4 * PAGE_SIZE)
        san = PinSanitizer(strict=True).arm(kernel)
        # Releasing a pin taken before arming must not read as underflow.
        unmap_kiobuf(kernel, kio)
        assert sum(san.counts.values()) == 0
        san.disarm()

    def test_arm_seeds_preexisting_registrations(self):
        m = Machine("m0", backend="mlock_naive", num_frames=256)
        t = m.spawn("app")
        ua = m.user_agent(t)
        va = t.mmap(8)
        r1 = ua.register_mem(va, 8 * PAGE_SIZE)
        r2 = ua.register_mem(va, 8 * PAGE_SIZE)
        san = m.arm_sanitizer()         # arms *after* both registrations
        with san.expect("mlock-nesting") as got:
            ua.deregister_mem(r1)
        assert got, "seeded registration was not tracked"
        ua.deregister_mem(r2)
        san.disarm()

    def test_machine_and_cluster_arm_helpers(self):
        m = Machine("m0")
        san = m.arm_sanitizer()
        assert san.armed and m.kernel.events.active
        san.disarm()
        assert not m.kernel.events.active
        cluster = Cluster(2)
        san = cluster.arm_sanitizer(strict=True)
        assert all(mm.kernel.events.active for mm in cluster.machines)
        san.disarm()


# ------------------------------------------------------------------ obs bridge

class TestObsBridge:
    def test_counts_land_in_the_metrics_snapshot(self):
        m = Machine("m0", backend="kiobuf")
        san = m.arm_sanitizer()
        san.feed([(UNPIN, dict(frames=(9,), pid=1))])   # one underflow
        snap = m.obs.snapshot()
        metrics = snap["metrics"]
        assert metrics["analysis.san.events_observed"]["value"] == \
            san.events_seen
        assert metrics["analysis.san.violations_total"]["value"] == 1
        assert metrics["analysis.san.violations.pin_underflow"][
            "value"] == 1
        assert metrics["analysis.san.violations.mlock_nesting"][
            "value"] == 0
        san.disarm()
        # After disarm the collector is detached: new snapshots no
        # longer refresh, but the last values persist in the registry.
        san.feed([(UNPIN, dict(frames=(9,), pid=1))])
        snap2 = m.obs.snapshot()
        assert snap2["metrics"]["analysis.san.violations_total"][
            "value"] == 1

    def test_event_hub_counts_emissions(self):
        m = Machine("m0")
        hub: EventHub = m.kernel.events
        assert hub.events_emitted == 0
        t = m.spawn("app")
        ua = m.user_agent(t)
        va = t.mmap(2)
        # No subscribers: emission sites skip entirely.
        ua.register_mem(va, 2 * PAGE_SIZE)
        assert hub.events_emitted == 0
        san = m.arm_sanitizer()
        ua.register_mem(va, 2 * PAGE_SIZE)
        assert hub.events_emitted > 0
        san.disarm()


class TestAtomicNonatomicOverlap:
    """A word the adapter serves remote atomics on must never be hit by
    a plain (non-atomic) DMA write while its registration lives."""

    def test_plain_write_over_atomic_word(self):
        san = PinSanitizer()
        san.feed([
            reg_event(frames=(3,), npages=1),
            (ATOMIC_RMW, dict(frame=3, offset=64)),
            (DMA_BEGIN, dict(frames=(3,), op="write",
                             spans=[(3, 0, 128)])),
        ])
        v = only(san, "atomic-nonatomic-overlap")
        assert "word 64" in v.message and "tear" in v.message

    def test_atomic_inside_open_write_window(self):
        san = PinSanitizer()
        san.feed([
            reg_event(frames=(3,), npages=1),
            (DMA_BEGIN, dict(frames=(3,), op="write_scatter",
                             spans=[(3, 0, 72)])),
            (ATOMIC_RMW, dict(frame=3, offset=64)),
        ])
        only(san, "atomic-nonatomic-overlap")

    def test_disjoint_write_and_closed_window_are_clean(self):
        san = PinSanitizer()
        san.feed([
            reg_event(frames=(3,), npages=1),
            (ATOMIC_RMW, dict(frame=3, offset=64)),
            # byte-disjoint plain write: [0, 64) never touches word 64
            (DMA_BEGIN, dict(frames=(3,), op="write",
                             spans=[(3, 0, 64)])),
            (DMA_END, dict(frames=(3,), op="write",
                           spans=[(3, 0, 64)])),
            # a *read* over the word is fine — only writes can tear
            (DMA_BEGIN, dict(frames=(3,), op="read",
                             spans=[(3, 0, 128)])),
            # window above closed before this RMW, so no overlap either
            (ATOMIC_RMW, dict(frame=3, offset=0)),
        ])
        assert san.violations == []

    def test_deregistration_clears_the_word_history(self):
        san = PinSanitizer()
        san.feed([
            reg_event(handle=1, frames=(3,), npages=1),
            (ATOMIC_RMW, dict(frame=3, offset=64)),
            (DEREGISTER, dict(handle=1, pid=10)),
            # frame recycled: plain writes are legitimate again
            (DMA_BEGIN, dict(frames=(3,), op="write",
                             spans=[(3, 0, 128)])),
        ])
        assert [v.check for v in san.violations] == []

    def test_runtime_rdma_write_over_atomic_word(self):
        cluster, ua_s, ua_r, vi_s, vi_r = connected_pair("kiobuf")
        san = cluster.arm_sanitizer(strict=True)
        rva = ua_r.task.mmap(1)
        ua_r.task.touch_pages(rva, 1)
        rreg = ua_r.register_mem(rva, PAGE_SIZE, rdma_write=True,
                                 rdma_atomic=True)
        lva = ua_s.task.mmap(1)
        lreg = ua_s.register_mem(lva, PAGE_SIZE)
        ua_s.atomic_fetchadd(vi_s, lreg, rreg.handle, rva, 1)
        with san.expect("atomic-nonatomic-overlap") as got:
            desc = Descriptor.rdma_write(
                [DataSegment(lreg.handle, lva, 16)], rreg.handle, rva)
            ua_s.post_send(vi_s, desc)
        assert [v.check for v in got] == ["atomic-nonatomic-overlap"]
        # a plain write elsewhere in the region stays clean
        desc = Descriptor.rdma_write(
            [DataSegment(lreg.handle, lva, 16)], rreg.handle, rva + 256)
        ua_s.post_send(vi_s, desc)
        assert sum(san.counts.values()) == 0
        san.disarm()


def test_check_catalog_is_exact():
    """The catalog the docs/metrics promise, in order."""
    assert CHECKS == (
        "dma-unpinned-frame", "dma-swapped-frame", "mlock-nesting",
        "pin-underflow", "tpt-use-after-invalidate", "registration-leak",
        "swap-registered", "quota-breach", "atomic-nonatomic-overlap",
        "odp-dangling-suspension")
    assert MLOCK_BACKENDS == {"mlock", "mlock_naive"}
