"""Unit tests for the fault-injection framework (repro.sim.faults)."""

from __future__ import annotations

import pytest

from repro.sim.faults import FaultPlan, FaultStats, install
from repro.via.machine import Cluster, Machine


class TestFaultPlanDecisions:
    def test_zero_rates_inject_nothing(self):
        plan = FaultPlan(seed=1)
        for _ in range(100):
            assert not plan.should_drop()
            assert not plan.should_duplicate()
            assert not plan.should_corrupt()
            assert plan.delay() == 0
            assert not plan.should_fail_dma()
        assert plan.stats == FaultStats()

    def test_full_rates_inject_always(self):
        plan = FaultPlan(seed=1, loss_rate=1.0, dma_fail_rate=1.0)
        assert all(plan.should_drop() for _ in range(10))
        assert all(plan.should_fail_dma() for _ in range(10))
        assert plan.stats.drops == 10
        assert plan.stats.dma_failures == 10

    def test_same_seed_same_decisions(self):
        def run(seed):
            plan = FaultPlan(seed=seed, loss_rate=0.5, corrupt_rate=0.3)
            return [(plan.should_drop(), plan.should_corrupt())
                    for _ in range(200)]
        assert run(42) == run(42)
        assert run(42) != run(43)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(loss_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(corrupt_rate=-0.1)

    def test_negative_delay_ns_rejected(self):
        """Regression: ``__post_init__`` validated the rates but not
        ``delay_ns`` — a negative delay moved packets back in time."""
        with pytest.raises(ValueError, match="delay_ns"):
            FaultPlan(delay_ns=-1)
        assert FaultPlan(delay_ns=0).delay_ns == 0

    def test_negative_crash_pid_rejected(self):
        with pytest.raises(ValueError, match="crash_pid"):
            FaultPlan(crash_pid=-5)
        assert FaultPlan(crash_pid=None).crash_pid is None
        assert FaultPlan(crash_pid=0).crash_pid == 0

    def test_negative_nic_reset_at_ns_rejected(self):
        with pytest.raises(ValueError, match="nic_reset_at_ns"):
            FaultPlan(nic_reset_at_ns=-100)
        assert FaultPlan(nic_reset_at_ns=0).nic_reset_at_ns == 0

    def test_corrupt_flips_exactly_one_byte(self):
        plan = FaultPlan(seed=3)
        payload = bytes(range(64))
        corrupted = plan.corrupt(payload)
        assert len(corrupted) == len(payload)
        diffs = [i for i, (a, b) in enumerate(zip(payload, corrupted))
                 if a != b]
        assert len(diffs) == 1
        assert corrupted[diffs[0]] == payload[diffs[0]] ^ 0xFF

    def test_corrupt_empty_payload_is_noop(self):
        assert FaultPlan(seed=3).corrupt(b"") == b""

    def test_delay_returns_configured_ns(self):
        plan = FaultPlan(seed=0, delay_rate=1.0, delay_ns=1234)
        assert plan.delay() == 1234
        assert plan.stats.delays == 1


class TestFaultBudgets:
    def test_registration_failure_budget_is_consumed(self):
        plan = FaultPlan(registration_failures=2)
        assert plan.take_registration_failure()
        assert plan.take_registration_failure()
        assert not plan.take_registration_failure()
        assert plan.stats.registration_failures == 2

    def test_pin_failure_budget_is_consumed(self):
        plan = FaultPlan(pin_failures=1)
        assert plan.take_pin_failure()
        assert not plan.take_pin_failure()
        assert plan.stats.pin_failures == 1


class TestNicResetSchedule:
    def test_reset_fires_once_at_time(self):
        plan = FaultPlan(nic_reset_at_ns=1000)
        assert not plan.nic_reset_due(999, "m0.nic0")
        assert plan.nic_reset_due(1000, "m0.nic0")
        # one-shot: never again, on any NIC
        assert not plan.nic_reset_due(2000, "m0.nic0")
        assert not plan.nic_reset_due(2000, "m1.nic0")
        assert plan.stats.nic_resets == 1

    def test_reset_name_filter(self):
        plan = FaultPlan(nic_reset_at_ns=0, nic_reset_name="m1.nic0")
        assert not plan.nic_reset_due(5000, "m0.nic0")
        assert plan.nic_reset_due(5000, "m1.nic0")

    def test_no_schedule_never_fires(self):
        plan = FaultPlan()
        assert not plan.nic_reset_due(10**12, "m0.nic0")


class TestInstall:
    def test_install_on_cluster_wires_every_layer(self):
        cluster = Cluster(2)
        plan = FaultPlan(seed=5)
        assert install(plan, cluster) is plan
        assert cluster.fabric.fault_plan is plan
        for m in cluster.machines:
            assert m.nic.fault_plan is plan
            assert m.nic.dma.fault_plan is plan
            assert m.agent.fault_plan is plan

    def test_install_none_uninstalls(self):
        cluster = Cluster(2)
        cluster.inject_faults(FaultPlan())
        cluster.inject_faults(None)
        assert cluster.fabric.fault_plan is None
        assert cluster[0].nic.fault_plan is None
        assert cluster[0].agent.fault_plan is None

    def test_install_on_machine(self):
        m = Machine()
        plan = m.inject_faults(FaultPlan(seed=2))
        assert m.fabric.fault_plan is plan
        assert m.nic.fault_plan is plan

    def test_install_on_fabric_covers_attached_nics(self):
        m = Machine()
        plan = FaultPlan()
        install(plan, m.fabric)
        assert m.fabric.fault_plan is plan
        assert m.nic.fault_plan is plan
        assert m.nic.dma.fault_plan is plan

    def test_install_rejects_other_targets(self):
        with pytest.raises(TypeError):
            install(FaultPlan(), object())
