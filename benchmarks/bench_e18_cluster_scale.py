"""E18 — simulator core scale-out.

PR 7 rebuilt the simulator core around three mechanisms: the SimClock
event calendar (daemons ride a lazy min-heap instead of fanning out on
every charge), the vectorized frame table (columnar counters plus
incremental pinned/orphan index sets, so audits stop walking the whole
table), and the batched NIC fast path (``post_*_many`` amortizes the
doorbell/fetch charges; ``drain_batch`` empties a CQ in one call).

This experiment measures what the three buy *together* on a soak-shaped
cluster: two machines, ``TENANTS`` tenants each running a connected VI
pair, with an orphan reaper per machine and one cluster watchdog
sampling invariants on a short cadence.

The pre-rebuild core's arms (per-charge clock subscribers and
whole-table audit walks, driven by one-at-a-time posting and reaping)
have been deleted; their numbers, measured
before the deletion at the full configuration on a 2-vCPU Intel Xeon
VM (Python 3.11), are recorded below and in EXPERIMENTS.md.  The gates
are absolute bounds against that record:

1. whole-cluster throughput (messages/sec of host time) is at least 3x
   the recorded legacy throughput;
2. host seconds burned per simulated second stay below the recorded
   legacy figure;
3. the speedup is not skipped work — the watchdog and the reapers
   sample at their nominal cadence per simulated second (fire-once
   catch-up may lose a little, never gain).
"""

import os
import time

import pytest

from repro.bench.harness import print_table, record
from repro.hw.physmem import PAGE_SIZE
from repro.kernel.reaper import OrphanReaper
from repro.via.constants import VIP_SUCCESS
from repro.via.descriptor import DataSegment, Descriptor
from repro.via.machine import Cluster

TENANTS = int(os.environ.get("REPRO_E18_TENANTS", "8"))
ROUNDS = int(os.environ.get("REPRO_E18_ROUNDS", "30"))
BATCH = int(os.environ.get("REPRO_E18_BATCH", "16"))
FRAMES = int(os.environ.get("REPRO_E18_FRAMES", "8192"))
TIMING_ROUNDS = int(os.environ.get("REPRO_E18_TIMING_ROUNDS", "3"))
PAYLOAD = 256                 #: bytes per message
REAPER_NS = 50_000            #: reaper cadence (short: soak-shaped)
WATCHDOG_NS = 20_000          #: invariant sampling cadence
MACHINES = 2

#: The deleted legacy arm at the full configuration (8 tenants, 30
#: rounds, 16-message batches, 8192 frames), measured on a 2-vCPU Intel
#: Xeon VM (Python 3.11) before the arm was removed.
LEGACY_OPS_PER_SEC = 131.77
LEGACY_HOST_S_PER_SIM_S = 408.81


class Tenant:
    """One tenant: a task per machine and a connected VI pair, with
    ``BATCH`` registered buffers on each side reused every round."""

    def __init__(self, cluster: Cluster, index: int):
        sender = cluster[0].spawn(f"tenant{index}.s")
        receiver = cluster[1].spawn(f"tenant{index}.r")
        self.ua_s = cluster[0].user_agent(sender)
        self.ua_r = cluster[1].user_agent(receiver)
        self.cq = self.ua_r.create_cq()
        self.vi_s = self.ua_s.create_vi()
        self.vi_r = self.ua_r.create_vi(recv_cq=self.cq)
        cluster.connect(self.vi_s, cluster[0], self.vi_r, cluster[1])
        self.recv_regs = []
        for _ in range(BATCH):
            va = self.ua_r.task.mmap(1)
            self.recv_regs.append(self.ua_r.register_mem(va, PAGE_SIZE))
        self.send_bufs = []
        for i in range(BATCH):
            va = self.ua_s.task.mmap(1)
            reg = self.ua_s.register_mem(va, PAGE_SIZE)
            self.ua_s.task.write(va, bytes([index % 251]) * PAYLOAD)
            self.send_bufs.append((reg, va))

    def round_batched(self) -> int:
        """One round: batch-post, batch-drain."""
        rdescs = [Descriptor.recv([self.ua_r.segment(reg)])
                  for reg in self.recv_regs]
        sdescs = [Descriptor.send([DataSegment(reg.handle, va, PAYLOAD)])
                  for reg, va in self.send_bufs]
        self.ua_r.post_recv_many(self.vi_r, rdescs)
        self.ua_s.post_send_many(self.vi_s, sdescs)
        comps = self.cq.drain_batch()
        assert len(comps) == BATCH
        assert all(c.descriptor.status == VIP_SUCCESS for c in comps)
        return BATCH


def run_soak() -> dict:
    """Build the cluster, run the soak, return its metrics."""
    cluster = Cluster(MACHINES, num_frames=FRAMES, backend="kiobuf")
    reapers = [OrphanReaper(m.kernel, agents=[m.agent],
                            interval_ns=REAPER_NS)
               for m in cluster.machines]
    for reaper in reapers:
        reaper.start()
    watchdog = cluster.arm_watchdog(interval_ns=WATCHDOG_NS)
    tenants = [Tenant(cluster, i) for i in range(TENANTS)]

    def soak() -> int:
        ops = 0
        for _ in range(ROUNDS):
            for tenant in tenants:
                ops += tenant.round_batched()
        return ops

    soak()                                   # warm caches and code paths
    sim0 = cluster.clock.now_ns
    checks0, scans0 = watchdog.checks_run, sum(r.scans for r in reapers)
    best = float("inf")
    ops = 0
    for _ in range(TIMING_ROUNDS):
        t0 = time.perf_counter()
        ops = soak()
        best = min(best, time.perf_counter() - t0)
    sim_s = (cluster.clock.now_ns - sim0) / 1e9 / TIMING_ROUNDS
    result = {
        "ops_per_sec": ops / best,
        "host_s_per_sim_s": best / sim_s,
        "sim_s": sim_s,
        "watchdog_checks": (watchdog.checks_run - checks0) / TIMING_ROUNDS,
        "reaper_scans": (sum(r.scans for r in reapers) - scans0)
        / TIMING_ROUNDS,
    }
    watchdog.disarm()
    for reaper in reapers:
        reaper.stop()
    return result


@pytest.fixture(scope="module")
def soak():
    return run_soak()


def test_e18_cluster_ops_speedup(soak, report):
    """The headline gate: >= 3x the recorded legacy msgs/sec."""
    if report("E18: simulator core scale-out"):
        print_table(
            f"E18a — {TENANTS}-tenant soak, {ROUNDS}x{BATCH} msgs/tenant, "
            f"{FRAMES} frames",
            ["core", "msgs/s (host)", "host s / sim s",
             "watchdog checks", "reaper scans"],
            [["legacy (recorded)", LEGACY_OPS_PER_SEC,
              LEGACY_HOST_S_PER_SIM_S, "", ""],
             ["current", soak["ops_per_sec"], soak["host_s_per_sim_s"],
              soak["watchdog_checks"], soak["reaper_scans"]]])
    ratio = soak["ops_per_sec"] / LEGACY_OPS_PER_SEC
    record("metrics", "E18 cluster scale-out",
           tenants=TENANTS, rounds=ROUNDS, batch=BATCH, frames=FRAMES,
           legacy_ops_per_sec=LEGACY_OPS_PER_SEC,
           events_ops_per_sec=soak["ops_per_sec"],
           speedup=ratio,
           legacy_host_s_per_sim_s=LEGACY_HOST_S_PER_SIM_S,
           events_host_s_per_sim_s=soak["host_s_per_sim_s"])
    assert ratio >= 3.0, (
        f"calendar + vectorized + batched core must deliver >= 3x the "
        f"recorded legacy cluster throughput (got {ratio:.2f}x)")


def test_e18_host_time_per_sim_second(soak):
    """The simulator must burn fewer host seconds per simulated second
    than the recorded legacy core."""
    assert soak["host_s_per_sim_s"] < LEGACY_HOST_S_PER_SIM_S


def test_e18_daemons_keep_their_cadence(soak):
    """Honesty check: the speedup must not come from skipped samples.
    Per simulated second the watchdog samples every machine once per
    interval and each reaper scans once per interval, less what
    fire-once catch-up loses when a charge overshoots a deadline."""
    nominal = {"watchdog_checks": MACHINES * 1e9 / WATCHDOG_NS,
               "reaper_scans": MACHINES * 1e9 / REAPER_NS}
    for key, expected in nominal.items():
        rate = soak[key] / soak["sim_s"]
        assert 0.75 * expected <= rate <= expected, (
            f"{key}: {rate:.0f}/sim-s against a nominal {expected:.0f}")


def test_e18_batched_soak_round(benchmark):
    """Host time of one tenant round on the batched path."""
    cluster = Cluster(MACHINES, num_frames=FRAMES, backend="kiobuf")
    cluster.start_reapers(interval_ns=REAPER_NS)
    cluster.arm_watchdog(interval_ns=WATCHDOG_NS)
    tenant = Tenant(cluster, 0)
    tenant.round_batched()           # warm
    benchmark(tenant.round_batched)
