"""The on-demand-paging backend: suspend/fault/resume instead of pins.

Four layers of coverage:

* the backend contract (lazy lock, just-in-time ``fault_in``, pressure
  ``evict_frame``, one-shot unlock);
* the driver's fault service (coalescing window, bounded fault table,
  pressure eviction through the ``"evict"`` invalidation, re-fault after
  eviction);
* the races — concurrent faults on one extent, a process kill at every
  instrumented point of the fault path, retransmission after a
  suspend/resume staying exactly-once — and unservable faults (no
  free frame) completing typed on either side;
* the sanitizer's ``odp`` mode (fault-service pairing, dangling
  suspensions, eviction bookkeeping).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.analysis.events import (
    DMA_RESUME, DMA_SUSPEND, FAULT_SERVICE, ODP_EVICT, REGISTER,
    TPT_PAGE_INVALIDATE, TPT_TRANSLATE,
)
from repro.analysis.sanitizer import PinSanitizer
from repro.core.audit import (
    audit_kernel_invariants, audit_pin_leaks, audit_tpt_consistency,
)
from repro.errors import InvalidArgument, ProcessKilled, ViaError
from repro.hw.physmem import PAGE_SIZE
from repro.msg.endpoint import make_pair
from repro.sim.costs import FREE
from repro.sim.faults import FaultPlan, ODP_CRASH_POINTS
from repro.via.constants import (
    VIP_ERROR_RESOURCE, VIP_NOT_DONE, VIP_SUCCESS, ViState,
)
from repro.via.descriptor import Descriptor
from repro.via.kernel_agent import ODP_FAULT_TABLE_ENTRIES
from repro.via.locking import make_backend
from repro.via.machine import Cluster, Machine, connected_pair
from repro.via.tpt import INVALID_FRAME

SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


def _assert_converged(machine):
    assert audit_tpt_consistency(machine.agent) == []
    assert audit_pin_leaks(machine.kernel, machine.agent) == []
    audit_kernel_invariants(machine.kernel)


# --------------------------------------------------------- backend contract

class TestOdpBackend:
    @pytest.fixture
    def setup(self, kernel):
        t = kernel.create_task(name="app")
        va = t.mmap(8)
        return kernel, t, va

    def test_lock_is_lazy(self, setup):
        """Registration resolves no frames and faults nothing in."""
        kernel, t, va = setup
        be = make_backend("odp")
        res = be.lock(kernel, t, va, 8 * PAGE_SIZE)
        assert res.frames == [INVALID_FRAME] * 8
        assert t.resident_pages() == 0
        be.unlock(kernel, res.cookie)

    def test_fault_in_pins_and_commits(self, setup):
        kernel, t, va = setup
        be = make_backend("odp")
        res = be.lock(kernel, t, va, 8 * PAGE_SIZE)
        patched = be.fault_in(kernel, t, res.cookie, (0, 3))
        assert set(patched) == {0, 3}
        for index, frame in patched.items():
            assert kernel.pagemap.page(frame).pin_count == 1
            assert res.cookie.resident[index] == frame
        be.unlock(kernel, res.cookie)
        for frame in patched.values():
            assert kernel.pagemap.page(frame).pin_count == 0

    def test_fault_in_is_idempotent(self, setup):
        """A page that lost the race to a concurrent fault is reused,
        not double-pinned."""
        kernel, t, va = setup
        be = make_backend("odp")
        res = be.lock(kernel, t, va, 4 * PAGE_SIZE)
        first = be.fault_in(kernel, t, res.cookie, (0, 1))
        again = be.fault_in(kernel, t, res.cookie, (0, 1))
        assert first == again
        for frame in first.values():
            assert kernel.pagemap.page(frame).pin_count == 1
        be.unlock(kernel, res.cookie)

    def test_evict_frame_releases_pin(self, setup):
        kernel, t, va = setup
        be = make_backend("odp")
        res = be.lock(kernel, t, va, 4 * PAGE_SIZE)
        patched = be.fault_in(kernel, t, res.cookie, (2,))
        frame = patched[2]
        assert be.evict_frame(kernel, res.cookie, frame) == (2,)
        assert res.cookie.resident == {}
        assert kernel.pagemap.page(frame).pin_count == 0
        be.unlock(kernel, res.cookie)

    def test_double_unlock_raises(self, setup):
        kernel, t, va = setup
        be = make_backend("odp")
        res = be.lock(kernel, t, va, PAGE_SIZE)
        be.unlock(kernel, res.cookie)
        with pytest.raises(ViaError):
            be.unlock(kernel, res.cookie)


# ------------------------------------------------------ driver fault service

class TestOdpFaultService:
    def test_registration_installs_invalid_entries(self):
        m = Machine(backend="odp", num_frames=256)
        t = m.spawn("app")
        ua = m.user_agent(t)
        va = t.mmap(8)
        reg = ua.register_mem(va, 8 * PAGE_SIZE)
        assert reg.region.odp
        assert all(f == INVALID_FRAME for f in reg.region.frames)
        assert t.resident_pages() == 0          # still nothing faulted
        ua.deregister_mem(reg)
        _assert_converged(m)

    def test_service_patches_tpt_and_pins(self):
        m = Machine(backend="odp", num_frames=256)
        t = m.spawn("app")
        ua = m.user_agent(t)
        va = t.mmap(8)
        reg = ua.register_mem(va, 8 * PAGE_SIZE)
        patched = m.agent.service_translation_fault(reg.handle, (0, 1, 2))
        assert sorted(patched) == [0, 1, 2]
        for index, frame in patched.items():
            assert reg.region.frames[index] == frame
            assert m.kernel.pagemap.page(frame).pin_count == 1
        assert m.agent.odp_faults_serviced == 1
        ua.deregister_mem(reg)
        _assert_converged(m)

    def test_service_unknown_or_non_odp_handle(self):
        m = Machine(backend="odp")
        with pytest.raises(Exception):
            m.agent.service_translation_fault(999, (0,))
        m2 = Machine(backend="kiobuf")
        t = m2.spawn("app")
        ua = m2.user_agent(t)
        va = t.mmap(1)
        t.touch_pages(va, 1)
        reg = ua.register_mem(va, PAGE_SIZE)
        with pytest.raises(ViaError):
            m2.agent.service_translation_fault(reg.handle, (0,))

    def test_duplicate_fault_coalesces(self):
        """Two fault requests for the same extent inside one service
        window (two DMA channels hitting the same pages, as the
        sequential simulator models concurrency) run the fault path
        once; the duplicate is answered from the TPT."""
        m = Machine(backend="odp", costs=FREE)
        t = m.spawn("app")
        ua = m.user_agent(t)
        va = t.mmap(4)
        reg = ua.register_mem(va, 4 * PAGE_SIZE)
        first = m.agent.service_translation_fault(reg.handle, (0, 1))
        second = m.agent.service_translation_fault(reg.handle, (0, 1))
        assert first == second
        assert m.agent.odp_faults_serviced == 1
        assert m.agent.odp_faults_coalesced == 1
        # The frames hold exactly one pin: coalescing did not re-pin.
        for frame in first.values():
            assert m.kernel.pagemap.page(frame).pin_count == 1
        assert m.kernel.trace.count("odp_fault_coalesced") == 1

    def test_coalescing_window_expires(self):
        """Past the completion time of the original service, a repeat
        request re-runs the fault path (it would re-pin had the pages
        been evicted meanwhile)."""
        m = Machine(backend="odp", costs=FREE)
        t = m.spawn("app")
        ua = m.user_agent(t)
        va = t.mmap(2)
        reg = ua.register_mem(va, 2 * PAGE_SIZE)
        m.agent.service_translation_fault(reg.handle, (0, 1))
        m.kernel.clock.charge(1, "test")        # leave the window
        m.agent.service_translation_fault(reg.handle, (0, 1))
        assert m.agent.odp_faults_serviced == 2
        assert m.agent.odp_faults_coalesced == 0

    def test_fault_table_is_bounded(self):
        npages = ODP_FAULT_TABLE_ENTRIES + 8
        m = Machine(backend="odp", num_frames=4 * npages)
        t = m.spawn("app")
        ua = m.user_agent(t)
        va = t.mmap(npages)
        reg = ua.register_mem(va, npages * PAGE_SIZE)
        for i in range(npages):
            m.agent.service_translation_fault(reg.handle, (i,))
        assert len(m.agent._fault_table) <= ODP_FAULT_TABLE_ENTRIES

    def test_pressure_evicts_and_refault_repairs(self):
        """The reclaim inverse: a memory hog evicts ODP-resident frames
        (fence, unpin, steal), and the next fault service repairs the
        translations with fresh pins."""
        m = Machine(backend="odp", num_frames=128)
        t = m.spawn("app")
        ua = m.user_agent(t)
        va = t.mmap(8)
        reg = ua.register_mem(va, 8 * PAGE_SIZE)
        m.agent.service_translation_fault(reg.handle, tuple(range(8)))
        assert reg.region.invalid_pages(va, 8 * PAGE_SIZE) == ()

        hog = m.spawn("hog")
        hog_va = hog.mmap(256)
        for i in range(256):
            hog.write(hog_va + i * PAGE_SIZE, b"HOG")
        assert m.agent.odp_pages_evicted > 0
        assert m.kernel.trace.count("odp_evict") > 0
        invalid = reg.region.invalid_pages(va, 8 * PAGE_SIZE)
        assert invalid                           # entries fenced off
        # No pin survived the eviction, so nothing is leaked mid-cycle.
        assert audit_pin_leaks(m.kernel, m.agent) == []

        patched = m.agent.service_translation_fault(reg.handle, invalid)
        assert set(patched) == set(invalid)
        assert reg.region.invalid_pages(va, 8 * PAGE_SIZE) == ()
        ua.deregister_mem(reg)
        _assert_converged(m)


# ------------------------------------------------------- end-to-end transfers

class TestOdpTransfers:
    def test_first_touch_send_suspends_and_delivers(self):
        """A send over never-touched ODP registrations suspends on both
        NICs, fault-services, resumes, and delivers byte-identical."""
        cluster, ua_s, ua_r, vi_s, vi_r = connected_pair("odp")
        dst = ua_r.task.mmap(2)
        reg_r = ua_r.register_mem(dst, 2 * PAGE_SIZE)
        desc_r = Descriptor.recv([ua_r.segment(reg_r)])
        ua_r.post_recv(vi_r, desc_r)
        src = ua_s.task.mmap(2)
        reg_s = ua_s.register_mem(src, 2 * PAGE_SIZE)
        payload = bytes(range(256)) * 16
        desc_s = ua_s.send_bytes(vi_s, reg_s, payload)
        assert desc_s.status == VIP_SUCCESS
        assert desc_r.status == VIP_SUCCESS
        assert ua_r.recv_bytes(vi_r, desc_r) == payload
        assert cluster[0].nic.dma_suspensions > 0
        assert cluster[0].agent.odp_faults_serviced > 0
        assert cluster[1].agent.odp_faults_serviced > 0
        for m in cluster.machines:
            _assert_converged(m)

    def test_retransmit_after_resume_stays_exactly_once(self):
        """Packet loss forces retransmission while ODP suspends and
        repairs translations underneath; every chunk arrives exactly
        once, byte-identical, and nothing leaks."""
        cluster = Cluster(2, backend="odp", num_frames=2048)
        s, r = make_pair(cluster)
        cluster.inject_faults(FaultPlan(seed=SEED + 17, loss_rate=0.25))
        rng = np.random.default_rng(SEED + 5)
        for i in range(32):
            data = bytes(rng.integers(0, 256, 1024 + i, dtype=np.uint8))
            s.send_chunk(data)
            got, _ = r.recv_chunk()
            assert got == data, f"transfer {i} not byte-identical"
        assert r.try_recv_chunk() is None        # no duplicate delivery
        assert cluster.trace.count("via_retransmit") > 0
        assert sum(m.agent.odp_faults_serviced
                   for m in cluster.machines) > 0
        for m in cluster.machines:
            audit_kernel_invariants(m.kernel)
            assert audit_tpt_consistency(m.agent) == []
            assert audit_pin_leaks(m.kernel, m.agent) == []


# ------------------------------------------------------------ kill sweep

class TestOdpKillSweep:
    @pytest.mark.parametrize("point", ODP_CRASH_POINTS)
    def test_kill_during_fault_service(self, point):
        """Dying before, between, and after the pin and the TPT patch
        leaks nothing: pins committed so far are released by the exit
        path, the registration and its TPT entries are gone."""
        m = Machine(backend="odp")
        task = m.spawn("victim")
        ua = m.user_agent(task)
        va = task.mmap(4)
        reg = ua.register_mem(va, 4 * PAGE_SIZE)
        m.inject_faults(FaultPlan(seed=SEED, crash_point=point,
                                  crash_pid=task.pid))
        with pytest.raises(ProcessKilled) as exc_info:
            m.agent.service_translation_fault(reg.handle, (0, 1, 2, 3))
        assert exc_info.value.point == point
        with pytest.raises(InvalidArgument):
            m.kernel.find_task(task.pid)
        assert m.agent.registrations == {}
        assert m.agent._odp_resident == {}
        _assert_converged(m)

    @pytest.mark.parametrize("point", ODP_CRASH_POINTS)
    def test_kill_mid_transfer_fault(self, point):
        """Same sweep through the NIC: the suspended transfer is resumed
        in error (never left parked) and both machines converge."""
        cluster, ua_s, ua_r, vi_s, vi_r = connected_pair("odp")
        dst = ua_r.task.mmap(2)
        reg_r = ua_r.register_mem(dst, 2 * PAGE_SIZE)
        ua_r.post_recv(vi_r, Descriptor.recv([ua_r.segment(reg_r)]))
        src = ua_s.task.mmap(2)
        reg_s = ua_s.register_mem(src, 2 * PAGE_SIZE)
        victim_pid = ua_s.task.pid
        cluster.inject_faults(FaultPlan(seed=SEED, crash_point=point,
                                        crash_pid=victim_pid))
        with pytest.raises(ProcessKilled):
            ua_s.send_bytes(vi_s, reg_s, b"x" * 64)
        sender_machine = cluster[0]
        with pytest.raises(InvalidArgument):
            sender_machine.kernel.find_task(victim_pid)
        assert sender_machine.agent.registrations_of(victim_pid) == []
        # The NIC unwound the suspension rather than leaving it parked.
        assert sender_machine.nic.dma_suspensions > 0
        resumes = sender_machine.kernel.trace.of_kind("odp_dma_resume")
        assert any(not e["ok"] for e in resumes)
        for m in cluster.machines:
            _assert_converged(m)


# -------------------------------------------------- unservable fault service

def _drain_free_list(kernel, leave=0):
    """Take free frames straight off the free list until ``leave``
    remain, so the next allocation finds nothing reclaimable."""
    held = []
    while kernel.pagemap.free_count > leave:
        held.append(kernel.pagemap.alloc(tag="drain").frame)
    return held


@pytest.mark.san_suppress
class TestOdpUnservableFault:
    """A fault service that cannot get a frame completes the descriptor
    with ``VIP_ERROR_RESOURCE`` through the NIC's error path: the engine
    is unparked, no pin is left behind, and nothing escapes untyped."""

    def _setup(self, recv_pages=2):
        cluster, ua_s, ua_r, vi_s, vi_r = connected_pair("odp")
        san = cluster.arm_sanitizer(strict=True)
        dst = ua_r.task.mmap(recv_pages)
        reg_r = ua_r.register_mem(dst, recv_pages * PAGE_SIZE)
        desc_r = Descriptor.recv([ua_r.segment(reg_r)])
        ua_r.post_recv(vi_r, desc_r)
        src = ua_s.task.mmap(2)
        reg_s = ua_s.register_mem(src, 2 * PAGE_SIZE)
        return cluster, san, ua_s, vi_s, vi_r, reg_s, desc_r

    def _assert_clean(self, cluster, san, drained):
        kernel, frames = drained
        for frame in frames:
            kernel.pagemap.put_page(frame)
        for m in cluster.machines:
            _assert_converged(m)
        san.disarm()
        assert san.violations == []

    def test_responder_oom_completes_both_sides(self):
        """First touch of the receive buffer finds no frame: the receive
        completes in error and the reliable connection breaks, so the
        sender's descriptor completes too."""
        cluster, san, ua_s, vi_s, vi_r, reg_s, desc_r = self._setup()
        drained = _drain_free_list(cluster[1].kernel)
        desc_s = ua_s.send_bytes(vi_s, reg_s, b"x" * 64)
        assert desc_s.status == VIP_ERROR_RESOURCE
        assert desc_r.status == VIP_ERROR_RESOURCE
        assert vi_s.state == ViState.ERROR
        assert vi_r.state == ViState.ERROR
        self._assert_clean(cluster, san, (cluster[1].kernel, drained))

    def test_local_oom_completes_send(self):
        """Posting from a never-touched ODP buffer with no free frame on
        the sender: the send completes in error before anything reaches
        the wire."""
        cluster, san, ua_s, vi_s, vi_r, reg_s, desc_r = self._setup()
        drained = _drain_free_list(cluster[0].kernel)
        desc_s = Descriptor.send([ua_s.segment(reg_s)])
        ua_s.post_send(vi_s, desc_s)
        assert desc_s.status == VIP_ERROR_RESOURCE
        assert desc_r.status == VIP_NOT_DONE
        assert vi_s.state == ViState.ERROR
        assert vi_r.state == ViState.CONNECTED
        self._assert_clean(cluster, san, (cluster[0].kernel, drained))

    def test_partial_fault_in_releases_its_pins(self):
        """One free frame for a two-page receive: the first page pins,
        the second cannot, and the first page's pin is released rather
        than left where neither the TPT nor the eviction index names
        it."""
        cluster, san, ua_s, vi_s, vi_r, reg_s, desc_r = self._setup()
        ua_s.task.touch_pages(reg_s.va, 2)
        drained = _drain_free_list(cluster[1].kernel, leave=1)
        desc_s = ua_s.send_bytes(vi_s, reg_s, b"x" * (2 * PAGE_SIZE))
        assert desc_s.status == VIP_ERROR_RESOURCE
        assert desc_r.status == VIP_ERROR_RESOURCE
        assert vi_s.state == ViState.ERROR
        assert vi_r.state == ViState.ERROR
        self._assert_clean(cluster, san, (cluster[1].kernel, drained))


# ------------------------------------------------------------ sanitizer mode

class TestOdpSanitizerMode:
    def _reg(self, handle=1, pid=10):
        return (REGISTER, dict(handle=handle, pid=pid, frames=(),
                               backend="odp", first_vpn=100, npages=4))

    def test_suspend_service_resume_is_clean(self):
        san = PinSanitizer()
        san.feed([
            self._reg(),
            (DMA_SUSPEND, dict(handle=1, pages=(0,), token=7, va=0,
                               length=64)),
            (FAULT_SERVICE, dict(handle=1, pages=(0,), frames=(5,),
                                 pid=10, token=7, coalesced=False)),
            (DMA_RESUME, dict(handle=1, token=7, ok=True)),
        ])
        assert san.violations == []
        san.disarm()
        assert san.violations == []

    def test_resume_without_service_is_dangling(self):
        san = PinSanitizer()
        san.feed([
            self._reg(),
            (DMA_SUSPEND, dict(handle=1, pages=(0,), token=7, va=0,
                               length=64)),
            (DMA_RESUME, dict(handle=1, token=7, ok=True)),
        ])
        assert [v.check for v in san.violations] == \
            ["odp-dangling-suspension"]

    def test_error_resume_needs_no_service(self):
        san = PinSanitizer()
        san.feed([
            self._reg(),
            (DMA_SUSPEND, dict(handle=1, pages=(0,), token=7, va=0,
                               length=64)),
            (DMA_RESUME, dict(handle=1, token=7, ok=False)),
        ])
        assert san.violations == []
        san.disarm()
        assert san.violations == []

    def test_open_suspension_at_disarm_is_dangling(self):
        san = PinSanitizer()
        san.feed([
            self._reg(),
            (DMA_SUSPEND, dict(handle=1, pages=(0,), token=9, va=0,
                               length=64)),
        ])
        assert san.violations == []
        san.disarm()
        assert [v.check for v in san.violations] == \
            ["odp-dangling-suspension"]
        assert "never resumed" in san.violations[0].message

    def test_page_invalidate_keeps_region_registered(self):
        """TPT_PAGE_INVALIDATE fences single pages of a *live* ODP
        region — translating the region afterwards is the expected
        repair path, not tpt-use-after-invalidate."""
        san = PinSanitizer()
        san.feed([
            self._reg(),
            (FAULT_SERVICE, dict(handle=1, pages=(0,), frames=(5,),
                                 pid=10, token=None, coalesced=False)),
            (TPT_PAGE_INVALIDATE, dict(handle=1, pages=(0,), frames=(5,))),
            (ODP_EVICT, dict(handle=1, frame=5, pages=(0,), pid=10)),
            (TPT_TRANSLATE, dict(handle=1, va=100 * PAGE_SIZE,
                                 length=64)),
        ])
        assert san.violations == []

    def test_evicted_frame_may_be_swapped(self):
        """After ODP_EVICT the frame is no longer a registered frame —
        reclaim stealing it is the design, not swap-registered."""
        from repro.analysis.events import SWAP_OUT
        san = PinSanitizer()
        san.feed([
            self._reg(),
            (FAULT_SERVICE, dict(handle=1, pages=(0,), frames=(5,),
                                 pid=10, token=None, coalesced=False)),
            (ODP_EVICT, dict(handle=1, frame=5, pages=(0,), pid=10)),
            (SWAP_OUT, dict(pid=10, vpn=100, frame=5)),
        ])
        assert san.violations == []

    def test_swap_of_resident_odp_frame_still_reported(self):
        """Without the eviction fence, stealing a fault-serviced frame
        is exactly the paper's §3.1 hazard and must still be flagged."""
        from repro.analysis.events import SWAP_OUT
        san = PinSanitizer()
        san.feed([
            self._reg(),
            (FAULT_SERVICE, dict(handle=1, pages=(0,), frames=(5,),
                                 pid=10, token=None, coalesced=False)),
            (SWAP_OUT, dict(pid=10, vpn=100, frame=5)),
        ])
        assert [v.check for v in san.violations] == ["swap-registered"]

    @pytest.mark.san_suppress
    def test_armed_pressure_cycle_is_clean(self):
        """System-level: register → fault-in → pressure-evict → re-fault
        → deregister under an armed strict sanitizer, zero violations."""
        m = Machine(backend="odp", num_frames=128)
        t = m.spawn("app")
        ua = m.user_agent(t)
        va = t.mmap(8)
        san = m.arm_sanitizer()
        reg = ua.register_mem(va, 8 * PAGE_SIZE)
        m.agent.service_translation_fault(reg.handle, tuple(range(8)))
        hog = m.spawn("hog")
        hog_va = hog.mmap(256)
        for i in range(256):
            hog.write(hog_va + i * PAGE_SIZE, b"HOG")
        assert m.agent.odp_pages_evicted > 0
        invalid = reg.region.invalid_pages(va, 8 * PAGE_SIZE)
        if invalid:
            m.agent.service_translation_fault(reg.handle, invalid)
        ua.deregister_mem(reg)
        san.disarm()
        assert san.violations == []
        _assert_converged(m)
