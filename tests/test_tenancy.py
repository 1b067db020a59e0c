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

    def test_per_tenant_quota_overrides_default(self):
        m = Machine(backend="kiobuf", tenant_quota_pages=4)
        m.tenants.set_quota(1002, 16)
        big = m.spawn("big", uid=1002)
        _register(m, big, 10)
        small = m.spawn("small", uid=1001)
        with pytest.raises(QuotaExceeded):
            _register(m, small, 5)
        assert m.tenants.quota_of(1002) == 16
        assert m.tenants.quota_of(1001) == 4

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


class TestQuotaHotReload:
    def test_lowering_below_usage_marks_over_budget(self):
        m = Machine(backend="kiobuf")
        m.obs.enable()
        task = m.spawn("app", uid=1001)
        ua, _va, reg = _register(m, task, 6)
        deficit = m.tenants.set_quota(1001, 4)
        assert deficit == 2
        acct = m.tenants.account(1001)
        assert acct.over_budget is True
        assert acct.quota_reloads == 1
        assert m.obs.metrics.gauge("tenant.1001.over_budget").value == 1
        # live registrations were not revoked
        assert acct.pinned_pages == 6
        # the next admission hits the ladder and denies, typed
        with pytest.raises(QuotaExceeded):
            _register(m, task, 2, ua=ua)
        # draining under budget clears the flag through credit()
        ua.deregister_mem(reg)
        assert acct.over_budget is False
        assert acct.pinned_pages == 0
        assert m.obs.metrics.gauge("tenant.1001.over_budget").value == 0
        assert m.kernel.trace.count("quota_reload") == 1
        assert m.kernel.trace.count("quota_recovered") == 1
        assert audit_tenant_accounting(m.agent) == []

    def test_raising_the_quota_clears_the_deficit(self):
        m = Machine(backend="kiobuf")
        task = m.spawn("app", uid=1001)
        _register(m, task, 6)
        assert m.tenants.set_quota(1001, 4) == 2
        assert m.tenants.set_quota(1001, 8) == 0
        acct = m.tenants.account(1001)
        assert acct.over_budget is False
        assert acct.quota_reloads == 2
        # back to the service default (here: unlimited)
        assert m.tenants.set_quota(1001, None) == 0
        assert m.tenants.quota_of(1001) is None

    def test_shed_true_reclaims_cached_pages_immediately(self):
        from repro.core.regcache import RegistrationCache
        m = Machine(backend="kiobuf")
        task = m.spawn("app", uid=1001)
        m.user_agent(task)
        cache = RegistrationCache(m.agent, task)
        va = task.mmap(6)
        task.touch_pages(va, 6)
        cache.acquire(va, 6 * PAGE_SIZE)
        cache.release(va, 6 * PAGE_SIZE)   # cached, unused: sheddable
        deficit = m.tenants.set_quota(1001, 2, shed=True)
        assert deficit == 0
        assert cache.stats.evictions == 1
        acct = m.tenants.account(1001)
        assert acct.over_budget is False
        assert acct.pinned_pages == 0
        assert audit_tenant_accounting(m.agent) == []

    def test_reload_under_churn_stays_consistent(self):
        """Flip the quota while registrations come and go; accounting
        and the flag must converge every time."""
        m = Machine(backend="kiobuf")
        task = m.spawn("app", uid=1001)
        ua = m.user_agent(task)
        live = []
        for round_no in range(6):
            quota = 4 if round_no % 2 else 12
            m.tenants.set_quota(1001, quota)
            acct = m.tenants.account(1001)
            assert acct.over_budget == (acct.pinned_pages > quota)
            try:
                _ua, _va, reg = _register(m, task, 3, ua=ua)
                live.append(reg)
            except QuotaExceeded:
                pass
            if len(live) > 2:
                ua.deregister_mem(live.pop(0))
            assert audit_tenant_accounting(m.agent) == []
        for reg in live:
            ua.deregister_mem(reg)
        acct = m.tenants.account(1001)
        assert acct.pinned_pages == 0
        assert acct.over_budget is False
        assert acct.quota_reloads == 6

    def test_negative_quota_rejected(self):
        m = Machine(backend="kiobuf")
        with pytest.raises(ValueError, match=">= 0"):
            m.tenants.set_quota(1001, -1)


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

    def test_over_budget_holds_while_any_machine_is_over(self):
        """m0 over budget, then m1 reloads within budget: the shared
        gauge stays 1 until m0 itself drains under its budget."""
        cluster = Cluster(2, backend="kiobuf")
        cluster.obs.enable()
        m0, m1 = cluster.machines
        ua0, _, reg0 = _register(m0, m0.spawn("a", uid=1001), 6)
        _register(m1, m1.spawn("b", uid=1001), 2)
        gauge = cluster.obs.metrics.gauge("tenant.1001.over_budget")
        assert m0.tenants.set_quota(1001, 4) == 2
        assert gauge.value == 1
        assert m1.tenants.set_quota(1001, 4) == 0
        assert gauge.value == 1
        ua0.deregister_mem(reg0)
        assert gauge.value == 0

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
