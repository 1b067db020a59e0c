"""The multi-tenant registration service: accounting, quotas, the
admission degrade ladder, typed denials, regcache shards, the sanitizer
quota-breach check, and a smoke-scale churn soak."""

from __future__ import annotations

import pytest

from repro.analysis.events import DEREGISTER, REGISTER
from repro.analysis.sanitizer import PinSanitizer
from repro.errors import (
    AdmissionError, PinCeilingExceeded, QuotaExceeded, ViaError,
)
from repro.hw.physmem import PAGE_SIZE
from repro.via.constants import VIP_ERROR_RESOURCE
from repro.via.machine import Cluster, Machine
from repro.via.tenancy import audit_tenant_accounting


def _register(machine, task, npages, ua=None):
    ua = ua if ua is not None else machine.user_agent(task)
    va = task.mmap(npages)
    task.touch_pages(va, npages)
    return ua, va, ua.register_mem(va, npages * PAGE_SIZE)


class TestAccounting:
    def test_register_charges_and_deregister_credits(self):
        m = Machine(backend="kiobuf")
        task = m.spawn("app", uid=1001)
        ua, _va, reg = _register(m, task, 4)
        acct = m.tenants.account(1001)
        assert acct.pinned_pages == 4
        assert acct.registrations == 1
        assert m.tenants.total_pinned_pages == 4
        assert reg.uid == 1001
        assert audit_tenant_accounting(m.agent) == []
        ua.deregister_mem(reg)
        assert acct.pinned_pages == 0
        assert acct.registrations == 0
        assert m.tenants.total_pinned_pages == 0
        assert audit_tenant_accounting(m.agent) == []

    def test_tenants_are_kept_apart(self):
        m = Machine(backend="kiobuf")
        a = m.spawn("a", uid=1001)
        b = m.spawn("b", uid=1002)
        _register(m, a, 3)
        _register(m, b, 5)
        assert m.tenants.account(1001).pinned_pages == 3
        assert m.tenants.account(1002).pinned_pages == 5
        assert m.tenants.total_pinned_pages == 8
        assert audit_tenant_accounting(m.agent) == []

    def test_exit_path_credits_automatically(self):
        m = Machine(backend="kiobuf")
        task = m.spawn("app", uid=1001)
        _register(m, task, 4)
        m.kernel.exit_task(task)
        assert m.tenants.account(1001).pinned_pages == 0
        assert m.tenants.total_pinned_pages == 0

    def test_reaper_credits_after_dirty_kill(self):
        """A buggy kill leaves the record (and the charge); the reaper's
        reclamation deregisters through the agent, so the credit follows
        the record — the tenant's budget is not held by a dead pid."""
        m = Machine(backend="kiobuf")
        task = m.spawn("victim", uid=1001)
        _register(m, task, 4)
        m.kernel.kill(task.pid, cleanup=False)
        assert m.tenants.account(1001).pinned_pages == 4
        m.start_reaper().scan()
        assert m.tenants.account(1001).pinned_pages == 0
        assert audit_tenant_accounting(m.agent) == []

    def test_peaks_are_recorded(self):
        m = Machine(backend="kiobuf")
        task = m.spawn("app", uid=1001)
        ua, _va, reg = _register(m, task, 6)
        ua.deregister_mem(reg)
        assert m.tenants.account(1001).peak_pinned_pages == 6
        assert m.tenants.peak_total_pinned_pages == 6


class TestQuotas:
    def test_default_quota_denies_with_typed_error(self):
        m = Machine(backend="kiobuf", tenant_quota_pages=4)
        task = m.spawn("app", uid=1001)
        _register(m, task, 3)
        with pytest.raises(QuotaExceeded) as exc_info:
            _register(m, task, 2)
        exc = exc_info.value
        assert exc.status == VIP_ERROR_RESOURCE
        assert isinstance(exc, AdmissionError)
        assert isinstance(exc, ViaError)
        assert exc.uid == 1001
        assert exc.requested_pages == 2
        assert exc.limit_pages == 4
        assert exc.pinned_pages == 3
        acct = m.tenants.account(1001)
        assert acct.denied == 1
        # The denial left no partial state behind.
        assert acct.pinned_pages == 3
        assert audit_tenant_accounting(m.agent) == []

    def test_quota_is_per_uid(self):
        m = Machine(backend="kiobuf", tenant_quota_pages=4)
        big = m.spawn("big", uid=1002)
        _register(m, big, 4)
        small = m.spawn("small", uid=1001)
        _register(m, small, 3)           # 1002's pages are not 1001's
        with pytest.raises(QuotaExceeded):
            _register(m, small, 2)
        assert m.tenants.account(1002).pinned_pages == 4
        assert m.tenants.account(1001).pinned_pages == 3

    def test_host_ceiling_denies_across_tenants(self):
        m = Machine(backend="kiobuf", host_pin_ceiling_pages=8)
        a = m.spawn("a", uid=1001)
        _register(m, a, 6)
        b = m.spawn("b", uid=1002)
        with pytest.raises(PinCeilingExceeded) as exc_info:
            _register(m, b, 4)
        assert exc_info.value.limit_pages == 8
        assert exc_info.value.pinned_pages == 6
        assert m.tenants.account(1002).denied == 1

    def test_no_budgets_means_no_gate(self):
        m = Machine(backend="kiobuf")
        task = m.spawn("app", uid=1001)
        _register(m, task, 64)
        assert m.tenants.account(1001).accepted == 1
        assert m.tenants.account(1001).denied == 0


class TestDegradeLadder:
    def test_admission_sheds_tenant_cache(self):
        """Quota pressure evicts the tenant's own unused cached
        registrations instead of denying."""
        from repro.core.regcache import RegistrationCache
        m = Machine(backend="kiobuf", tenant_quota_pages=8)
        task = m.spawn("app", uid=1001)
        m.user_agent(task)               # open the NIC
        cache = RegistrationCache(m.agent, task)
        va = task.mmap(6)
        task.touch_pages(va, 6)
        cache.acquire(va, 6 * PAGE_SIZE)
        cache.release(va, 6 * PAGE_SIZE)  # cached, unused: sheddable
        assert m.tenants.account(1001).pinned_pages == 6
        before_ns = m.kernel.clock.now_ns
        _register(m, task, 4)            # 6 + 4 > 8: must shed first
        acct = m.tenants.account(1001)
        assert acct.pinned_pages == 4
        assert acct.degraded == 1
        assert acct.denied == 0
        assert acct.wait_ns > 0
        assert m.kernel.clock.now_ns > before_ns
        assert cache.stats.evictions == 1
        assert audit_tenant_accounting(m.agent) == []

    def test_host_pressure_drafts_reaper(self):
        """A ceiling shortage caused by a dead pid's leaked registration
        resolves via the drafted reaper, not a denial."""
        m = Machine(backend="kiobuf", host_pin_ceiling_pages=8)
        m.start_reaper()
        victim = m.spawn("victim", uid=1001)
        _register(m, victim, 6)
        m.kernel.kill(victim.pid, cleanup=False)
        survivor = m.spawn("app", uid=1002)
        _register(m, survivor, 4)        # 6 + 4 > 8 until the reaper runs
        acct = m.tenants.account(1002)
        assert acct.degraded == 1
        assert m.tenants.account(1001).pinned_pages == 0
        assert m.tenants.total_pinned_pages == 4
        assert audit_tenant_accounting(m.agent) == []

    def test_exhausted_ladder_still_denies(self):
        """When nothing is sheddable the ladder runs out and the typed
        denial fires after MAX_ADMISSION_ATTEMPTS backoffs."""
        m = Machine(backend="kiobuf", tenant_quota_pages=4)
        task = m.spawn("app", uid=1001)
        _register(m, task, 4)            # live, not cached: unsheddable
        before_ns = m.kernel.clock.now_ns
        with pytest.raises(QuotaExceeded):
            _register(m, task, 1)
        acct = m.tenants.account(1001)
        assert acct.denied == 1
        assert acct.wait_ns > 0          # it did try, in simulated time
        assert m.kernel.clock.now_ns > before_ns


class TestObservability:
    def test_gauges_and_counters_published(self):
        m = Machine(backend="kiobuf", tenant_quota_pages=4)
        m.obs.enable()
        task = m.spawn("app", uid=1001)
        ua, _va, reg = _register(m, task, 3)
        metrics = m.obs.metrics
        assert metrics.gauge("tenant.1001.pinned_pages").value == 3
        assert metrics.gauge("via.tenancy.total_pinned_pages").value == 3
        with pytest.raises(QuotaExceeded):
            _register(m, task, 3, ua=ua)
        assert metrics.counter("via.admission.accepted").value == 1
        assert metrics.counter("via.admission.denied").value == 1
        assert metrics.histogram("via.admission.wait_ns").count == 2
        ua.deregister_mem(reg)
        assert metrics.gauge("tenant.1001.pinned_pages").value == 0

    @staticmethod
    def _gauges(cluster, uid):
        metrics = cluster.obs.metrics
        return (metrics.gauge(f"tenant.{uid}.pinned_pages").value,
                metrics.gauge("via.tenancy.total_pinned_pages").value)

    def test_shared_facade_gauges_sum_over_machines(self):
        """A cluster shares one facade: the pinned-page gauges report
        the sum over its machines, not whichever machine wrote last."""
        cluster = Cluster(2, backend="kiobuf")
        cluster.obs.enable()
        m0, m1 = cluster.machines
        _, _, reg0 = _register(m0, m0.spawn("a", uid=1001), 6)
        ua1, _, reg1 = _register(m1, m1.spawn("b", uid=1001), 2)
        assert self._gauges(cluster, 1001) == (8, 8)
        _register(m1, m1.spawn("c", uid=1002), 3)
        assert self._gauges(cluster, 1001) == (8, 11)
        assert self._gauges(cluster, 1002) == (3, 11)
        ua1.deregister_mem(reg1)
        assert self._gauges(cluster, 1001) == (6, 9)

    def test_gauges_count_pins_taken_before_enable(self):
        cluster = Cluster(2, backend="kiobuf")
        m0, m1 = cluster.machines
        _register(m0, m0.spawn("a", uid=1001), 6)
        cluster.obs.enable()
        ua1, _, reg1 = _register(m1, m1.spawn("b", uid=1001), 2)
        assert self._gauges(cluster, 1001) == (8, 8)
        ua1.deregister_mem(reg1)
        assert self._gauges(cluster, 1001) == (6, 6)


class TestSanitizerQuotaBreach:
    # Hand-fed sequences; suite-level arming would double-count.
    pytestmark = pytest.mark.san_suppress

    def _reg(self, handle, frames, uid, quota):
        return (REGISTER, dict(handle=handle, pid=10, frames=frames,
                               backend="kiobuf", first_vpn=100 + handle,
                               npages=len(frames), uid=uid,
                               quota_pages=quota))

    def test_breach_detected(self):
        san = PinSanitizer()
        san.feed([
            self._reg(1, (3, 4), uid=7, quota=3),
            self._reg(2, (5, 6), uid=7, quota=3),   # 4 > 3: breach
        ])
        assert [v.check for v in san.violations] == ["quota-breach"]
        assert "uid 7" in san.violations[0].message

    def test_within_quota_is_silent(self):
        san = PinSanitizer()
        san.feed([
            self._reg(1, (3, 4), uid=7, quota=4),
            self._reg(2, (5, 6), uid=7, quota=4),
        ])
        assert san.violations == []

    def test_deregister_frees_budget(self):
        san = PinSanitizer()
        san.feed([
            self._reg(1, (3, 4), uid=7, quota=3),
            (DEREGISTER, dict(handle=1, pid=10)),
            self._reg(2, (5, 6), uid=7, quota=3),
        ])
        assert san.violations == []

    def test_untagged_registrations_are_exempt(self):
        """Events without uid/quota (single-tenant setups) never trip
        the check."""
        san = PinSanitizer()
        san.feed([
            (REGISTER, dict(handle=1, pid=10, frames=(3, 4),
                            backend="kiobuf", first_vpn=100, npages=2)),
        ])
        assert san.violations == []

    def test_runtime_breach_impossible_through_agent(self):
        """End-to-end: with admission in front, a strict sanitizer never
        sees a quota breach from the real registration path."""
        m = Machine(backend="kiobuf", tenant_quota_pages=4)
        san = PinSanitizer(strict=True).arm(m)
        task = m.spawn("app", uid=1001)
        _register(m, task, 4)
        with pytest.raises(QuotaExceeded):
            _register(m, task, 1)
        san.disarm()
        assert san.violations == []


class TestSoakSmoke:
    def test_tiny_soak_holds_budgets(self):
        from repro.workloads.soak import SoakConfig, run_soak
        config = SoakConfig(tenants=3, sim_seconds=45.0, num_frames=1024,
                            host_ceiling_pages=150,
                            mean_gap_ns=250_000_000, hog_max_pages=128,
                            seed=11)
        rep = run_soak(config)
        assert rep.sim_ns >= 45.0 * 1e9
        assert rep.sanitizer_violations == 0
        assert rep.leaked_pins == 0
        assert rep.notes == []
        assert rep.max_host_pinned_pages <= 150
        assert rep.max_tenant_pinned_pages <= config.tenant_quota_pages
        assert rep.transfers_ok > 0
        assert rep.kills_clean + rep.kills_dirty > 0
