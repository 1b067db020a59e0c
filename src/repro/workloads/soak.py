"""Multi-tenant churn soak: sim-hours of registration-service abuse.

The tentpole workload for the tenancy layer: N tenants (distinct uids)
share a two-machine cluster, each running one connected endpoint pair,
and a seeded op mix churns them for simulated hours — zero-copy
transfers (which degrade to copy under admission pressure), direct
registrations sampled for latency SLOs, ``munmap`` of still-registered
ranges, process kills (a configurable fraction through the *buggy*
teardown path), and swap pressure from a memory hog — all under a
:class:`~repro.sim.faults.FaultPlan` of wire/DMA chaos with the pin
sanitizer armed strict.

Throughout the run the harness asserts the budget invariants the
service promises: per-tenant pinned pages never exceed the quota, total
pinned pages never exceed the host ceiling, and the service's books
match the driver's registration records.  At the end it quiesces
(clean exits, cache purge, reaper convergence) and requires a
zero-leak final audit.  :class:`SoakReport` carries the SLO percentiles
and admission counters the benchmark folds into BENCH.json.

Simulated hours are cheap: the loop *charges* an exponential
inter-arrival gap to the shared clock between ops, so two sim-hours of
churn is thousands of ops, not billions of ticks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.sanitizer import PinSanitizer
from repro.core.audit import (
    audit_kernel_invariants, audit_pin_leaks, audit_tpt_consistency,
)
from repro.errors import AdmissionError, ViaError
from repro.hw.physmem import PAGE_SIZE
from repro.msg.endpoint import Endpoint, connect_endpoints
from repro.msg.protocols import RendezvousZeroCopyProtocol
from repro.sim.faults import FaultPlan
from repro.sim.rng import make_rng
from repro.via.constants import ViState
from repro.via.machine import Cluster
from repro.via.tenancy import audit_tenant_accounting
from repro.workloads.allocator import MemoryHog


@dataclass
class SoakConfig:
    """Knobs of one soak run (all simulated-time; fully seeded)."""

    tenants: int = 8
    sim_seconds: float = 7200.0          #: soak duration (2 sim-hours)
    seed: int = 0
    # -- machine shape --
    num_frames: int = 2048
    swap_slots: int = 16384
    tpt_entries: int = 8192
    # -- budgets --
    tenant_quota_pages: int = 96         #: RLIMIT_MEMLOCK-style, per uid
    host_ceiling_pages: int = 400        #: physical-pin ceiling, per host
    cache_max_pages: int = 48            #: per-endpoint regcache budget
    # -- endpoints / buffers --
    bounce_slots: int = 8
    buffer_pages: int = 24               #: per-tenant transfer buffer
    max_live_scratch: int = 2            #: direct registrations kept live
    # -- op mix (weights, normalized) --
    w_transfer: float = 0.62
    w_register: float = 0.18
    w_munmap: float = 0.08
    w_kill: float = 0.04
    w_pressure: float = 0.08
    dirty_kill_fraction: float = 0.4     #: kills through buggy teardown
    # -- pacing --
    mean_gap_ns: int = 800_000_000       #: mean inter-op idle gap
    reaper_interval_ns: int = 2_000_000_000
    hog_max_pages: int = 512
    # -- chaos --
    loss_rate: float = 0.02
    duplicate_rate: float = 0.01
    corrupt_rate: float = 0.005
    delay_rate: float = 0.02
    dma_fail_rate: float = 0.001
    # -- consistency sampling --
    audit_every_ops: int = 200           #: full invariant audit cadence

    def __post_init__(self) -> None:
        if self.tenants < 1:
            raise ValueError(f"need at least one tenant, got {self.tenants}")
        if self.sim_seconds <= 0:
            raise ValueError(
                f"sim_seconds must be > 0, got {self.sim_seconds}")
        weights = (self.w_transfer + self.w_register + self.w_munmap
                   + self.w_kill + self.w_pressure)
        if weights <= 0:
            raise ValueError("op-mix weights sum to zero")


@dataclass
class SoakReport:
    """What a soak run did, observed, and promised."""

    sim_ns: int = 0
    ops: dict[str, int] = field(default_factory=dict)
    transfers_ok: int = 0
    transfers_degraded: int = 0
    transfers_failed: int = 0            #: honest ViaError (then rebuilt)
    endpoint_rebuilds: int = 0
    kills_clean: int = 0
    kills_dirty: int = 0
    respawns_denied: int = 0             #: respawn refused by admission
    registrations_sampled: int = 0
    registrations_denied: int = 0
    reg_latency_ns: list[int] = field(default_factory=list)
    transfer_ns: list[int] = field(default_factory=list)
    max_host_pinned_pages: int = 0
    max_tenant_pinned_pages: int = 0
    admission: dict = field(default_factory=dict)   #: per-machine snapshot
    reaper_reclaimed: int = 0
    reaper_by_uid: dict[int, int] = field(default_factory=dict)
    sanitizer_violations: int = 0
    leaked_pins: int = 0                 #: at final audit (must be 0)
    notes: list[str] = field(default_factory=list)

    @staticmethod
    def _percentile(values: list[int], q: float) -> int:
        if not values:
            return 0
        ordered = sorted(values)
        index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
        return int(ordered[index])

    def latency_slo(self) -> dict:
        """p50/p90/p99 of sampled registration latency and transfer
        time, in simulated ns — the SLO block BENCH.json publishes."""
        return {
            "register_p50_ns": self._percentile(self.reg_latency_ns, 0.50),
            "register_p90_ns": self._percentile(self.reg_latency_ns, 0.90),
            "register_p99_ns": self._percentile(self.reg_latency_ns, 0.99),
            "transfer_p50_ns": self._percentile(self.transfer_ns, 0.50),
            "transfer_p99_ns": self._percentile(self.transfer_ns, 0.99),
            "register_samples": len(self.reg_latency_ns),
            "transfer_samples": len(self.transfer_ns),
        }


class _Tenant:
    """One tenant: a sender rank on m0, a receiver rank on m1."""

    def __init__(self, uid: int, index: int) -> None:
        self.uid = uid
        self.index = index
        self.sender: Endpoint | None = None
        self.receiver: Endpoint | None = None
        self.src_va = 0
        self.dst_va = 0
        self.scratch: list[tuple[int, int, object]] = []  # (va, npages, reg)
        self.down = False


class SoakHarness:
    """Drives one :class:`SoakConfig` to a :class:`SoakReport`."""

    def __init__(self, config: SoakConfig) -> None:
        self.config = config
        self.report = SoakReport()
        self.rng = make_rng(config.seed)
        self.cluster = Cluster(
            2, num_frames=config.num_frames, swap_slots=config.swap_slots,
            seed=config.seed, backend="kiobuf",
            tpt_entries=config.tpt_entries,
            tenant_quota_pages=config.tenant_quota_pages,
            host_pin_ceiling_pages=config.host_ceiling_pages)
        self.cluster.obs.enable()
        self.reapers = self.cluster.start_reapers(
            interval_ns=config.reaper_interval_ns)
        self.sanitizer: PinSanitizer = self.cluster.arm_sanitizer(
            strict=True)
        self.protocol = RendezvousZeroCopyProtocol(use_cache=True)
        self.tenants = [_Tenant(uid=2000 + i, index=i)
                        for i in range(config.tenants)]
        for tenant in self.tenants:
            self._spawn_pair(tenant)
            if tenant.down:
                raise AssertionError(
                    f"soak setup: tenant uid {tenant.uid} did not fit "
                    f"its quota — shrink endpoints or raise budgets")
        # Chaos armed after setup, like the chaos suite: faults hit the
        # churn, not pool construction.
        self.plan = FaultPlan(
            seed=config.seed, loss_rate=config.loss_rate,
            duplicate_rate=config.duplicate_rate,
            corrupt_rate=config.corrupt_rate,
            delay_rate=config.delay_rate,
            dma_fail_rate=config.dma_fail_rate)
        self.cluster.inject_faults(self.plan)
        self.hogs: dict[int, MemoryHog] = {}
        self.hog_pages: dict[int, int] = {}

    # ------------------------------------------------------------- lifecycle

    def _spawn_pair(self, tenant: _Tenant) -> None:
        """(Re)build a tenant's endpoint pair; marks the tenant down
        (instead of raising) when admission refuses the pool."""
        config = self.config
        made: list[Endpoint] = []
        try:
            for machine in (self.cluster[0], self.cluster[1]):
                task = machine.spawn(f"t{tenant.uid}", uid=tenant.uid)
                made.append(Endpoint(machine, task,
                                     bounce_slots=config.bounce_slots,
                                     cache_max_pages=config.cache_max_pages))
        except AdmissionError:
            # Not enough budget to come back up yet (a predecessor's
            # debris is still being reaped): tear down whatever half
            # got built and retry on a later visit.
            for ep in made:
                ep.machine.kernel.exit_task(ep.task)
            for machine in self.cluster.machines:
                machine.tenants.purge_dead_caches()
            tenant.down = True
            self.report.respawns_denied += 1
            return
        sender, receiver = made
        connect_endpoints(self.cluster, sender, receiver)
        pages = config.buffer_pages
        tenant.src_va = sender.task.mmap(pages, name="soak_src")
        sender.task.touch_pages(tenant.src_va, pages)
        tenant.dst_va = receiver.task.mmap(pages, name="soak_dst")
        receiver.task.touch_pages(tenant.dst_va, pages)
        tenant.sender, tenant.receiver = sender, receiver
        tenant.scratch = []
        tenant.down = False

    def _teardown_pair(self, tenant: _Tenant, *,
                       kill_side: int | None = None,
                       dirty: bool = False) -> None:
        """End both ranks — one possibly through the buggy kill path —
        and purge the dead caches so the budget is freed for respawn."""
        pair = (tenant.sender, tenant.receiver)
        for side, endpoint in enumerate(pair):
            if endpoint is None:
                continue
            kernel = endpoint.machine.kernel
            if side == kill_side:
                kernel.kill(endpoint.task.pid, cleanup=not dirty)
                if dirty:
                    self.report.kills_dirty += 1
                else:
                    self.report.kills_clean += 1
            elif any(t.pid == endpoint.task.pid for t in kernel.tasks):
                kernel.exit_task(endpoint.task)
        tenant.sender = tenant.receiver = None
        tenant.scratch = []
        tenant.down = True
        for machine in self.cluster.machines:
            machine.tenants.purge_dead_caches()

    # ------------------------------------------------------------------- ops

    def _op_transfer(self, tenant: _Tenant) -> None:
        sender, receiver = tenant.sender, tenant.receiver
        assert sender is not None and receiver is not None
        nbytes = int(self.rng.integers(
            1, self.config.buffer_pages * PAGE_SIZE + 1))
        payload = self.rng.integers(0, 256, min(nbytes, 512),
                                    dtype="uint8").tobytes()
        sender.task.write(tenant.src_va, payload)
        try:
            result = self.protocol.transfer(
                sender, receiver, tenant.src_va, tenant.dst_va, nbytes)
        except ViaError:
            # Honest failure under chaos (conn lost, NIC error): the VI
            # pair is dead — recycle the tenant through a clean restart.
            self.report.transfers_failed += 1
            self._teardown_pair(tenant)
            self.report.endpoint_rebuilds += 1
            self._spawn_pair(tenant)
            return
        if result.ok:
            self.report.transfers_ok += 1
            self.report.transfer_ns.append(result.sim_ns)
        else:
            self.report.transfers_failed += 1
        if result.degraded:
            self.report.transfers_degraded += 1
        if (sender.vi.state is ViState.ERROR
                or receiver.vi.state is ViState.ERROR):
            self._teardown_pair(tenant)
            self.report.endpoint_rebuilds += 1
            self._spawn_pair(tenant)

    def _op_register(self, tenant: _Tenant) -> None:
        """Direct register/deregister churn, sampled for the SLO."""
        sender = tenant.sender
        assert sender is not None
        npages = int(self.rng.integers(1, 9))
        va = sender.task.mmap(npages, name="soak_scratch")
        sender.task.touch_pages(va, npages)
        clock = self.cluster.clock
        try:
            with clock.measure() as span:
                reg = sender.ua.register_mem(va, npages * PAGE_SIZE)
        except AdmissionError:
            self.report.registrations_denied += 1
            sender.task.munmap(va, npages)
            return
        self.report.registrations_sampled += 1
        self.report.reg_latency_ns.append(span.elapsed_ns)
        tenant.scratch.append((va, npages, reg))
        while len(tenant.scratch) > self.config.max_live_scratch:
            old_va, old_npages, old_reg = tenant.scratch.pop(0)
            sender.ua.deregister_mem(old_reg)
            sender.task.munmap(old_va, old_npages)

    def _op_munmap(self, tenant: _Tenant) -> None:
        """munmap a still-registered range: the driver's ``"unmap"``
        invalidation must force-deregister it (no stale TPT entries,
        budget credited)."""
        if not tenant.scratch:
            self._op_register(tenant)
            return
        sender = tenant.sender
        assert sender is not None
        index = int(self.rng.integers(0, len(tenant.scratch)))
        va, npages, _reg = tenant.scratch.pop(index)
        sender.task.munmap(va, npages)

    def _op_kill(self, tenant: _Tenant) -> None:
        side = int(self.rng.integers(0, 2))
        dirty = float(self.rng.random()) < self.config.dirty_kill_fraction
        self._teardown_pair(tenant, kill_side=side, dirty=dirty)
        self._spawn_pair(tenant)

    def _op_pressure(self) -> None:
        machine = self.cluster.machines[
            int(self.rng.integers(0, len(self.cluster.machines)))]
        hog = self.hogs.get(id(machine))
        if hog is None:
            hog = self.hogs[id(machine)] = MemoryHog(
                machine.kernel, name=f"hog.{machine.name}")
        held = self.hog_pages.get(id(machine), 0)
        if held and float(self.rng.random()) < 0.3:
            hog.release()
            self.hog_pages[id(machine)] = 0
            return
        grow = min(int(self.rng.integers(32, 129)),
                   self.config.hog_max_pages - held)
        if grow <= 0:
            hog.churn()
        else:
            hog.grow(grow)
            self.hog_pages[id(machine)] = held + grow

    # ------------------------------------------------------------ invariants

    def _check_budgets(self, op_index: int) -> None:
        config = self.config
        report = self.report
        for machine in self.cluster.machines:
            service = machine.tenants
            total = service.total_pinned_pages
            report.max_host_pinned_pages = max(
                report.max_host_pinned_pages, total)
            if total > config.host_ceiling_pages:
                raise AssertionError(
                    f"op {op_index}: {machine.name} has {total} pinned "
                    f"pages, over the host ceiling of "
                    f"{config.host_ceiling_pages}")
            quota = service.default_quota_pages
            for uid, acct in service.accounts.items():
                report.max_tenant_pinned_pages = max(
                    report.max_tenant_pinned_pages, acct.pinned_pages)
                if quota is not None and acct.pinned_pages > quota:
                    raise AssertionError(
                        f"op {op_index}: uid {uid} on {machine.name} has "
                        f"{acct.pinned_pages} pinned pages, over its "
                        f"quota of {quota}")

    def _deep_audit(self, op_index: int) -> None:
        for machine in self.cluster.machines:
            problems = audit_tenant_accounting(machine.agent)
            if problems:
                raise AssertionError(
                    f"op {op_index}: tenant accounting diverged on "
                    f"{machine.name}: " + "; ".join(problems))
            audit_kernel_invariants(machine.kernel)

    # ------------------------------------------------------------------ run

    def run(self) -> SoakReport:
        """Churn until the configured sim-duration elapses, then
        quiesce and final-audit; returns the filled report."""
        config = self.config
        report = self.report
        clock = self.cluster.clock
        end_ns = clock.now_ns + int(config.sim_seconds * 1e9)
        weights = [config.w_transfer, config.w_register, config.w_munmap,
                   config.w_kill, config.w_pressure]
        total_weight = sum(weights)
        cumulative = []
        acc = 0.0
        for w in weights:
            acc += w / total_weight
            cumulative.append(acc)
        op_names = ("transfer", "register", "munmap", "kill", "pressure")
        op_index = 0
        while clock.now_ns < end_ns:
            clock.charge(int(self.rng.exponential(config.mean_gap_ns)) + 1,
                         "soak_idle")
            op_index += 1
            tenant = self.tenants[
                int(self.rng.integers(0, len(self.tenants)))]
            if tenant.down:
                # Budget permitting, the tenant comes back before its op.
                self._spawn_pair(tenant)
                if tenant.down:
                    continue
            roll = float(self.rng.random())
            op = op_names[next(i for i, edge in enumerate(cumulative)
                               if roll <= edge)]
            report.ops[op] = report.ops.get(op, 0) + 1
            if op == "transfer":
                self._op_transfer(tenant)
            elif op == "register":
                self._op_register(tenant)
            elif op == "munmap":
                self._op_munmap(tenant)
            elif op == "kill":
                self._op_kill(tenant)
            else:
                self._op_pressure()
            self._check_budgets(op_index)
            if op_index % config.audit_every_ops == 0:
                self._deep_audit(op_index)
        report.sim_ns = clock.now_ns
        self._quiesce()
        self._final_audit()
        return report

    # -------------------------------------------------------------- teardown

    def _quiesce(self) -> None:
        """Clean exits, hog release, cache purge, reaper convergence."""
        # Chaos off for teardown: quiesce must converge, and the
        # invariants it checks are about the *system*, not the wire.
        self.cluster.inject_faults(None)
        for tenant in self.tenants:
            self._teardown_pair(tenant)
        for hog in self.hogs.values():
            hog.release()
            hog.kernel.exit_task(hog.task)
        clock = self.cluster.clock
        quiet_rounds = 0
        for _ in range(64):
            busy = False
            for reaper in self.reapers:
                scan = reaper.scan()
                if scan.reclaimed_total or scan.failures or scan.deferred:
                    busy = True
            # Step past the backoff windows of anything deferred.
            clock.charge(self.config.reaper_interval_ns, "soak_quiesce")
            quiet_rounds = 0 if busy else quiet_rounds + 1
            if quiet_rounds >= 2:
                break
        else:
            self.report.notes.append("reaper did not converge in 64 rounds")

    def _final_audit(self) -> None:
        report = self.report
        for machine in self.cluster.machines:
            kernel, agent = machine.kernel, machine.agent
            leaks = audit_pin_leaks(kernel, agent, count_kiobufs=True)
            report.leaked_pins += len(leaks)
            if leaks:
                report.notes.append(
                    f"{machine.name}: {len(leaks)} leaked pins at final "
                    f"audit: {leaks[:4]}")
            audit_kernel_invariants(kernel)
            stale = audit_tpt_consistency(agent)
            if stale:
                report.notes.append(
                    f"{machine.name}: stale TPT entries: {stale[:4]}")
            if agent.registrations:
                report.notes.append(
                    f"{machine.name}: {len(agent.registrations)} "
                    f"registrations outlived quiesce")
            problems = audit_tenant_accounting(agent)
            if problems:
                report.notes.append(
                    f"{machine.name}: accounting: {problems}")
            service = machine.tenants
            report.admission[machine.name] = service.snapshot()
        # Lifetime reaper totals (quiesce scans alone would miss what
        # the daemon already reclaimed mid-run on clock ticks).
        obs = self.cluster.obs
        if obs.enabled:
            report.reaper_reclaimed = obs.metrics.counter(
                "kernel.reaper.reclaimed").value
            for tenant in self.tenants:
                reclaimed = obs.metrics.counter(
                    f"kernel.reaper.tenant.{tenant.uid}.reclaimed").value
                if reclaimed:
                    report.reaper_by_uid[tenant.uid] = reclaimed
        self.sanitizer.disarm()
        report.sanitizer_violations = len(self.sanitizer.violations)


def run_soak(config: SoakConfig | None = None) -> SoakReport:
    """Run one churn soak; returns its :class:`SoakReport`.

    Raises :class:`AssertionError` the moment a budget invariant breaks
    and :class:`~repro.errors.SanitizerViolation` at the first ordering
    violation (the sanitizer is armed strict) — a completed run *is* the
    acceptance signal, and the report carries the SLO numbers.
    """
    return SoakHarness(config if config is not None else SoakConfig()).run()
