"""E13 — the fast-path data plane.

The paper's argument is that translation and pinning must stay off the
communication fast path.  This experiment measures what the simulator's
own fast path buys once translations are extent-coalesced and cached and
DMA bursts are merged across adjacent frames:

1. host-time throughput of a multi-page rendezvous-zero-copy transfer
   loop — the simulator itself must run "as fast as the hardware
   allows";
2. simulated latency of the same loop (fewer DMA engine set-ups and
   cached TPT lookups also shrink *simulated* latency);
3. registration-cache acquire-hit cost as the number of cached entries
   grows — the interval index keeps a hit O(1), so per-hit host time
   must stay flat instead of growing with the entry count.

The legacy per-page data plane (per-page TPT walk, no translation
cache, one DMA setup per segment) has been deleted.  Its numbers,
measured before the deletion on a 2-vCPU Intel Xeon VM (Python 3.11),
are recorded below and in EXPERIMENTS.md, and (1) and (2) are gated as
absolute bounds against them.
"""

import time

import pytest

from repro.bench.harness import print_series, print_table, record
from repro.core.regcache import RegistrationCache
from repro.hw.physmem import PAGE_SIZE
from repro.msg.endpoint import make_pair
from repro.msg.protocols import RendezvousZeroCopyProtocol
from repro.via.machine import Cluster, Machine

NBYTES = 1 << 20          #: 256 pages — a genuinely multi-page transfer
LOOP = 30                 #: transfers per timed loop
QUICK_SIZES = [1 << 14, 1 << 17, 1 << 20]

#: The deleted legacy data plane, warm 1 MiB loop: host MB/s and
#: simulated µs per transfer by size (2-vCPU Intel Xeon VM, Python 3.11).
LEGACY_HOST_MB_S = 263.94
LEGACY_SIM_US = {1 << 14: 342.99, 1 << 17: 1981.31, 1 << 20: 12725.51}


def build_pair(nbytes: int = NBYTES):
    """A connected endpoint pair with a touched source and destination
    buffer of ``nbytes``."""
    cluster = Cluster(2, num_frames=4096, backend="kiobuf")
    s, r = make_pair(cluster)
    pages = nbytes // PAGE_SIZE + 2
    src = s.task.mmap(pages)
    s.task.touch_pages(src, pages)
    dst = r.task.mmap(pages)
    r.task.touch_pages(dst, pages)
    s.task.write(src, b"\xa5" * nbytes)
    return cluster, s, r, src, dst


def timed_loop(proto, s, r, src, dst, nbytes, loops=LOOP, rounds=3):
    """Best-of-``rounds`` host seconds for ``loops`` transfers."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(loops):
            res = proto.transfer(s, r, src, dst, nbytes)
            assert res.ok
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.fixture(scope="module")
def fastpath_row():
    cluster, s, r, src, dst = build_pair()
    proto = RendezvousZeroCopyProtocol(use_cache=True)
    warm = proto.transfer(s, r, src, dst, NBYTES)   # warm the caches
    assert warm.ok
    res = proto.transfer(s, r, src, dst, NBYTES)
    host_s = timed_loop(proto, s, r, src, dst, NBYTES)
    mb_s = NBYTES * LOOP / host_s / 1e6
    tpt = s.machine.nic.tpt
    return [res.sim_ns / 1000.0, host_s / LOOP * 1e3, mb_s,
            tpt.cache_hits, s.machine.nic.dma.bursts_issued]


def test_e13_host_throughput_speedup(fastpath_row, report):
    if report("E13: fast-path data plane"):
        print_table(
            "E13a — 1 MiB rendezvous-zero-copy loop",
            ["data plane", "sim us/transfer", "host MB/s",
             "tpt cache hits", "dma bursts"],
            [["legacy (recorded)", LEGACY_SIM_US[NBYTES],
              LEGACY_HOST_MB_S, "", ""],
             ["current", fastpath_row[0], fastpath_row[2],
              fastpath_row[3], fastpath_row[4]]])
    ratio = fastpath_row[2] / LEGACY_HOST_MB_S
    record("metric", "E13 host-throughput speedup", ratio=ratio)
    # 1.5x, not the 2.5-3.2x measured on the recording VM: host speed
    # on a shared VM moves between levels about 1.7x apart.
    assert ratio >= 1.5, (
        f"data plane must run at least 1.5x the recorded legacy host "
        f"throughput (got {ratio:.2f}x of {LEGACY_HOST_MB_S} MB/s)")
    # Fewer DMA engine set-ups and cached translations also shorten
    # *simulated* time.
    assert fastpath_row[0] < LEGACY_SIM_US[NBYTES]


def test_e13_sim_ns_sweep(report):
    series: dict[str, list] = {"legacy (recorded)": [], "current": []}
    cluster, s, r, src, dst = build_pair()
    proto = RendezvousZeroCopyProtocol(use_cache=True)
    for size in QUICK_SIZES:
        proto.transfer(s, r, src, dst, size)         # warm
        res = proto.transfer(s, r, src, dst, size)
        assert res.ok
        series["current"].append((size, res.sim_ns / 1000.0))
        series["legacy (recorded)"].append((size, LEGACY_SIM_US[size]))
    if report("E13b: simulated latency against the recorded legacy"):
        print_series("E13b — zero-copy transfer latency", "bytes",
                     series, ylabel="sim us")
    for size, sim_us in series["current"]:
        assert sim_us < LEGACY_SIM_US[size], \
            f"data plane slower in sim than the legacy one at {size} bytes"


def test_e13_regcache_hit_is_o1(report):
    """Per-hit host time must not grow with the number of cached
    entries (the old linear scan did)."""
    m = Machine(num_frames=8192, backend="kiobuf", tpt_entries=8192)
    t = m.spawn("mpi")
    m.user_agent(t)     # allocates the protection tag
    rows = []
    per_hit: list[float] = []
    for entries in (16, 256):
        cache = RegistrationCache(m.agent, t)
        base = t.mmap(entries + 1)
        for i in range(entries):
            cache.acquire(base + i * PAGE_SIZE, PAGE_SIZE)
            cache.release(base + i * PAGE_SIZE, PAGE_SIZE)
        # hit the *coldest* entry — a linear scan would walk everything
        target = base
        hits = 20_000
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(hits):
                cache.acquire(target, PAGE_SIZE)
                cache.release(target, PAGE_SIZE)
            best = min(best, time.perf_counter() - t0)
        per_hit.append(best / hits * 1e9)
        rows.append([entries, per_hit[-1], cache.stats.hits])
    if report("E13c: regcache acquire-hit cost vs cached entries"):
        print_table("E13c — per-hit host ns as the cache grows",
                    ["cached entries", "ns/hit", "total hits"], rows)
    record("metric", "E13 regcache hit scaling",
           ratio=per_hit[1] / per_hit[0])
    # 16x more entries must not make a hit anywhere near 16x slower;
    # allow generous noise but reject linear scaling.
    assert per_hit[1] < per_hit[0] * 4.0, \
        f"acquire hit scales with cache size: {per_hit} ns"


def test_e13_fastpath_transfer(benchmark):
    """Host time of one fast-path 1 MiB zero-copy transfer."""
    cluster, s, r, src, dst = build_pair()
    proto = RendezvousZeroCopyProtocol(use_cache=True)
    proto.transfer(s, r, src, dst, NBYTES)   # warm

    def xfer():
        res = proto.transfer(s, r, src, dst, NBYTES)
        assert res.ok

    benchmark(xfer)
