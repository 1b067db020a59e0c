"""The four benchmark workloads.

Each workload is a class with the same shape:

* ``generate(seed, n_ops)`` builds every input up front from the seed --
  the operation list, the payload pools and any chaos seed.  The system
  under test only ever sees these generated inputs.
* the constructor builds the simulated system from those inputs (this is
  what ``setup_s`` times) and warms it;
* ``prepare(op)`` / ``check(op)`` write the op's payload and verify what
  arrived, with the simulated clock frozen so the harness's own reads and
  writes cost no simulated time;
* ``execute(op)`` runs one operation in a closed loop with one caller
  and returns ``(simulated_ns, payload_bytes)``.

Op mixes are stratified: the share of every op class is fixed and the
seed chooses the order and jitters a continuous size, so two seeds run
different op lists with the same mix.  Every op's simulated latency
carries a continuous size term, so a simulated percentile never lands on
the same value for every seed.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.core.audit import (  # noqa: E402
    audit_kernel_invariants, audit_pin_leaks, audit_tpt_consistency,
)
from repro.errors import PageAccountingError, ViaError  # noqa: E402
from repro.hw.physmem import PAGE_SIZE  # noqa: E402
from repro.mpi import MpiWorld  # noqa: E402
from repro.msg.endpoint import make_pair  # noqa: E402
from repro.msg.protocols import RendezvousZeroCopyProtocol  # noqa: E402
from repro.sim.faults import FaultPlan  # noqa: E402
from repro.via.constants import VIP_SUCCESS  # noqa: E402
from repro.via.descriptor import DataSegment, Descriptor  # noqa: E402
from repro.via.machine import Cluster  # noqa: E402
from repro.workloads.allocator import MemoryHog  # noqa: E402


class IncorrectOutput(Exception):
    """An operation completed but its output is wrong."""


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}/{seed}")


def _stratified(rng: random.Random, n: int) -> list[float]:
    """``n`` values in [0, 1): one uniform draw inside each of ``n``
    equal strata, shuffled -- the same distribution for every seed, a
    different sequence for each."""
    values = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(values)
    return values


class Workload:
    """Common plumbing; subclasses define the op list and the op."""

    name = ""
    why = ""
    #: operations in the measured window at ``--scale 1``
    base_ops = 0
    #: how closely this workload's host time follows the reference
    #: loop's when the host slows down: a chunk's time is scaled by
    #: ``(REF_NOMINAL_S / reference time) ** ref_exponent``
    ref_exponent = 1.0

    #: set by subclasses' constructors
    clock = None
    machines: list = []

    @classmethod
    def generate(cls, seed: int, n_ops: int) -> dict:
        raise NotImplementedError

    def prepare(self, op) -> None:
        """Write the op's input payload (clock frozen)."""

    def execute(self, op) -> tuple[int, int]:
        raise NotImplementedError

    def check(self, op) -> None:
        """Verify the op's output (clock frozen)."""

    # -- public counters the metrics are derived from --------------------

    caches: list = []
    endpoints: list = []
    cqs: list = []
    watchdog = None
    reapers: list = []
    degraded = 0

    def pinned_pages(self) -> int:
        return sum(len(m.kernel.pagemap.pinned_frames())
                   for m in self.machines)

    def audit(self) -> list[str]:
        """Post-run correctness gates on every machine; returns the
        problems found (empty = clean)."""
        problems = []
        for m in self.machines:
            leaks = audit_pin_leaks(m.kernel, m.agent)
            if leaks:
                problems.append(f"{m.name}: {len(leaks)} leaked pins")
            stale = audit_tpt_consistency(m.agent)
            if stale:
                problems.append(f"{m.name}: {len(stale)} stale TPT entries")
            try:
                audit_kernel_invariants(m.kernel)
            except PageAccountingError as exc:
                problems.append(f"{m.name}: kernel invariant: {exc}")
        return problems


def _expect(got: bytes, want: bytes, what: str) -> None:
    if got != want:
        first = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b) \
            if len(got) == len(want) else min(len(got), len(want))
        raise IncorrectOutput(f"{what}: payload differs at byte {first} "
                              f"of {len(want)}")


# --------------------------------------------------------------------------
# netpipe -- E9-style MPI ping-pong
# --------------------------------------------------------------------------

class Netpipe(Workload):
    """MPI ping-pong on two ranks; sizes log-uniform over 64 B .. 1 MiB."""

    name = "netpipe"
    why = ("MPI ping-pong, 64 B-1 MiB: data plane, eager copies, regcache "
           "hits and cached TPT translation; registration idle after warm-up")
    base_ops = 4000
    # Much of netpipe's host time is C-level copies and compares of
    # payloads up to 1 MiB, which slow less than the interpreter-bound
    # reference loop on a contended host.
    ref_exponent = 0.8
    EAGER_THRESHOLD = 16 * 1024
    MIN_LOG2, MAX_LOG2 = 6, 20
    MAX_BYTES = 1 << MAX_LOG2
    POOL = 2 * MAX_BYTES

    @classmethod
    def generate(cls, seed: int, n_ops: int) -> dict:
        rng = _rng(cls.name, seed)
        span = cls.MAX_LOG2 - cls.MIN_LOG2
        ops = []
        for u in _stratified(rng, n_ops):
            size = min(cls.MAX_BYTES, int(2 ** (cls.MIN_LOG2 + span * u)))
            ops.append((size, rng.randrange(cls.POOL - size + 1),
                        rng.randrange(cls.POOL - size + 1)))
        return {"seed": seed, "ops": ops,
                "pool_a": rng.randbytes(cls.POOL),
                "pool_b": rng.randbytes(cls.POOL)}

    def __init__(self, inputs: dict) -> None:
        self.pool_a, self.pool_b = inputs["pool_a"], inputs["pool_b"]
        self.world = MpiWorld(2, num_frames=4096,
                              eager_threshold=self.EAGER_THRESHOLD,
                              seed=inputs["seed"])
        self.clock = self.world.clock
        self.machines = self.world.cluster.machines
        self.r0, self.r1 = self.world.rank(0), self.world.rank(1)
        pages = self.MAX_BYTES // PAGE_SIZE + 1
        self.bufs = []
        for rank in (self.r0, self.r1):
            tx = rank.task.mmap(pages, name="tx")
            rank.task.touch_pages(tx, pages)
            rx = rank.task.mmap(pages, name="rx")
            rank.task.touch_pages(rx, pages)
            self.bufs.append((tx, rx))
        self.endpoints = [self.r0.endpoints[1], self.r1.endpoints[0]]
        self.caches = [ep.cache for ep in self.endpoints]
        # One warm ping-pong per power of two, largest first, so the
        # registration cache holds one covering entry per buffer and
        # every measured rendezvous is a cache hit.
        for k in range(self.MAX_LOG2, self.MIN_LOG2 - 1, -1):
            op = (1 << k, 0, 0)
            self.prepare(op)
            self.execute(op)
            self.check(op)

    def prepare(self, op) -> None:
        size, off_a, off_b = op
        with self.clock.frozen():
            self.r0.task.write(self.bufs[0][0], self.pool_a[off_a:off_a + size])
            self.r1.task.write(self.bufs[1][0], self.pool_b[off_b:off_b + size])

    def execute(self, op) -> tuple[int, int]:
        size = op[0]
        (a_tx, a_rx), (b_tx, b_rx) = self.bufs
        with self.clock.measure() as span:
            ping = self.r0.isend(1, 1, a_tx, size)
            self.r1.recv(0, 1, b_rx, size)
            pong = self.r1.isend(0, 2, b_tx, size)
            self.r0.recv(1, 2, a_rx, size)
            ping.wait()
            pong.wait()
        return span.elapsed_ns, 2 * size

    def check(self, op) -> None:
        size, off_a, off_b = op
        with self.clock.frozen():
            _expect(self.r1.task.read(self.bufs[1][1], size),
                    self.pool_a[off_a:off_a + size], "ping")
            _expect(self.r0.task.read(self.bufs[0][1], size),
                    self.pool_b[off_b:off_b + size], "pong")


# --------------------------------------------------------------------------
# reg_churn -- nested registration churn (E3/E4)
# --------------------------------------------------------------------------

class RegChurn(Workload):
    """Nested register/deregister of 1-64 page ranges; half the ops then
    send an uncached zero-copy message of about one page."""

    name = "reg_churn"
    why = ("nested kiobuf register/deregister of 1-64 pages, half with an "
           "uncached zero-copy send: agent, locking, kernel VM, TPT install")
    base_ops = 8000
    RANGE_PAGES = (1, 4, 16, 64)
    MAX_NEST = 4
    REGION_PAGES = 256
    #: the message is one page less a seeded 0-63 byte trim
    SEND_BYTES = PAGE_SIZE
    #: while registered, the caller stores a header of this many bytes
    HEADER_BYTES = (8, 64)
    POOL = 64 * 1024

    @classmethod
    def generate(cls, seed: int, n_ops: int) -> dict:
        rng = _rng(cls.name, seed)
        classes = [(npages, nest, send) for npages in cls.RANGE_PAGES
                   for nest in range(1, cls.MAX_NEST + 1)
                   for send in (False, True)]
        ops = []
        while len(ops) < n_ops:
            block = list(classes)
            rng.shuffle(block)
            for npages, nest, send in block:
                order = list(range(nest))
                rng.shuffle(order)
                header = rng.randint(*cls.HEADER_BYTES)
                header_at = (rng.randrange(npages) * PAGE_SIZE
                             + rng.randrange(PAGE_SIZE - header + 1))
                size = cls.SEND_BYTES - rng.randrange(64) if send else 0
                ops.append((npages, tuple(order),
                            rng.randrange(cls.REGION_PAGES - npages + 1),
                            header_at, header, size,
                            rng.randrange(cls.POOL - PAGE_SIZE)))
        return {"seed": seed, "ops": ops[:n_ops],
                "pool": rng.randbytes(cls.POOL)}

    def __init__(self, inputs: dict) -> None:
        self.pool = inputs["pool"]
        self.cluster = Cluster(2, num_frames=2048, backend="kiobuf",
                               seed=inputs["seed"])
        self.clock = self.cluster.clock
        self.machines = self.cluster.machines
        self.sender, self.receiver = make_pair(self.cluster)
        self.endpoints = [self.sender, self.receiver]
        self.caches = [ep.cache for ep in self.endpoints]
        task = self.sender.task
        self.region = task.mmap(self.REGION_PAGES, name="churn")
        task.touch_pages(self.region, self.REGION_PAGES)
        self.src = task.mmap(1, name="src")
        task.touch_pages(self.src, 1)
        self.dst = self.receiver.task.mmap(1, name="dst")
        self.receiver.task.touch_pages(self.dst, 1)
        self.protocol = RendezvousZeroCopyProtocol(use_cache=False)
        self._regs: list = []
        for npages in self.RANGE_PAGES:
            op = (npages, tuple(range(self.MAX_NEST)), 0, 0, 64,
                  self.SEND_BYTES, 0)
            self.prepare(op)
            self.execute(op)
            self.check(op)

    def prepare(self, op) -> None:
        size, off = op[5], op[6]
        if size:
            with self.clock.frozen():
                self.sender.task.write(self.src, self.pool[off:off + size])

    def execute(self, op) -> tuple[int, int]:
        npages, order, page, header_at, header, size, off = op
        ua = self.sender.ua
        va = self.region + page * PAGE_SIZE
        with self.clock.measure() as span:
            regs = [ua.register_mem(va, npages * PAGE_SIZE) for _ in order]
            # The caller fills part of the pinned buffer while it is
            # registered; check() reads it back through the TPT's frames.
            self.sender.task.write(va + header_at,
                                   self.pool[off:off + header])
            for j in order:
                ua.deregister_mem(regs[j])
            if size:
                result = self.protocol.transfer(
                    self.sender, self.receiver, self.src, self.dst, size)
                if not result.ok:
                    raise IncorrectOutput(f"transfer not ok: {result.notes}")
        self._regs = regs
        return span.elapsed_ns, size

    def check(self, op) -> None:
        npages, _, page, header_at, header, size, off = op
        task = self.sender.task
        resident = task.physical_pages(self.region + page * PAGE_SIZE, npages)
        agent = self.machines[0].agent
        phys = self.machines[0].kernel.phys
        for reg in self._regs:
            if list(reg.region.frames) != resident:
                raise IncorrectOutput(
                    f"registration {reg.handle} recorded frames that do not "
                    f"back its range")
            if reg.handle in agent.registrations or reg.region.valid:
                raise IncorrectOutput(
                    f"registration {reg.handle} outlived its deregistration")
            frame = reg.region.frames[header_at // PAGE_SIZE]
            _expect(phys.read(frame, header_at % PAGE_SIZE, header),
                    self.pool[off:off + header], "header through the TPT")
        if size:
            with self.clock.frozen():
                _expect(self.receiver.task.read(self.dst, size),
                        self.pool[off:off + size], "zero-copy send")


# --------------------------------------------------------------------------
# odp_pressure -- the E20 first-touch cliff
# --------------------------------------------------------------------------

class OdpPressure(Workload):
    """Cached zero-copy transfers on the ODP backend while a memory hog
    keeps reclaim busy."""

    name = "odp_pressure"
    why = ("ODP zero-copy 16-128 KiB under a 0.75xRAM hog, regcache budget "
           "below the working set: reclaim, swap, fault service, TPT patch")
    base_ops = 1000
    FRAMES = 512
    HOG_SHARE = 0.75
    BUFFERS = 8
    MIN_BYTES, MAX_BYTES = 16 * 1024, 128 * 1024
    CACHE_PAGES = 64
    #: the hog re-touches its memory before one op in this many
    CHURN_EVERY = 4
    POOL = 512 * 1024

    @classmethod
    def generate(cls, seed: int, n_ops: int) -> dict:
        # Which buffer each op uses, how many pages it moves and which ops
        # follow a churn are the same for every seed: together they decide
        # which pages reclaim takes, and a seeded schedule would move the
        # latency tail by whole disk reads.  The seed trims each transfer
        # inside its last page and draws the payloads.
        pattern = random.Random(f"{cls.name}/schedule")
        buffers: list[int] = []
        while len(buffers) < n_ops:
            block = list(range(cls.BUFFERS))
            pattern.shuffle(block)
            buffers += block
        churn = [i % cls.CHURN_EVERY == cls.CHURN_EVERY - 1
                 for i in range(n_ops)]
        lo, hi = cls.MIN_BYTES // PAGE_SIZE, cls.MAX_BYTES // PAGE_SIZE
        draws = {flag: iter(_stratified(pattern, churn.count(flag)))
                 for flag in (False, True)}
        pages = [lo + int(next(draws[flag]) * (hi - lo + 1))
                 for flag in churn]
        rng = _rng(cls.name, seed)
        ops = []
        for i in range(n_ops):
            size = pages[i] * PAGE_SIZE - rng.randrange(PAGE_SIZE)
            ops.append((buffers[i], size, churn[i],
                        rng.randrange(cls.POOL - size + 1)))
        return {"seed": seed, "ops": ops, "pool": rng.randbytes(cls.POOL)}

    def __init__(self, inputs: dict) -> None:
        self.pool = inputs["pool"]
        self.cluster = Cluster(2, num_frames=self.FRAMES,
                               swap_slots=8 * self.FRAMES, backend="odp",
                               seed=inputs["seed"])
        self.clock = self.cluster.clock
        self.machines = self.cluster.machines
        self.sender, self.receiver = make_pair(
            self.cluster, cache_max_pages=self.CACHE_PAGES)
        self.endpoints = [self.sender, self.receiver]
        self.caches = [ep.cache for ep in self.endpoints]
        pages = self.MAX_BYTES // PAGE_SIZE
        self.src, self.dst = [], []
        for ep, bufs in ((self.sender, self.src), (self.receiver, self.dst)):
            for _ in range(self.BUFFERS):
                va = ep.task.mmap(pages, name="buffer")
                ep.task.touch_pages(va, pages)
                bufs.append(va)
        self.hogs = [MemoryHog(m.kernel, name="hog") for m in self.machines]
        for hog in self.hogs:
            hog.grow(int(self.FRAMES * self.HOG_SHARE))
        self.protocol = RendezvousZeroCopyProtocol(use_cache=True)
        for b in range(self.BUFFERS):
            op = (b, self.MAX_BYTES // 2, False, 0)
            self.prepare(op)
            self.execute(op)
            self.check(op)

    def prepare(self, op) -> None:
        b, size, _, off = op
        with self.clock.frozen():
            self.sender.task.write(self.src[b], self.pool[off:off + size])

    def execute(self, op) -> tuple[int, int]:
        b, size, churn, _ = op
        if churn:
            # Background pressure: charged to the simulated clock, but
            # not part of the transfer's latency.
            for hog in self.hogs:
                hog.churn()
        with self.clock.measure() as span:
            result = self.protocol.transfer(
                self.sender, self.receiver, self.src[b], self.dst[b], size)
        if not result.ok:
            raise IncorrectOutput(f"transfer not ok: {result.notes}")
        self.degraded += result.degraded
        return span.elapsed_ns, size

    def check(self, op) -> None:
        b, size, _, off = op
        with self.clock.frozen():
            _expect(self.receiver.task.read(self.dst[b], size),
                    self.pool[off:off + size], "zero-copy transfer")


# --------------------------------------------------------------------------
# tenant_soak -- E18-shaped multi-tenant soak under chaos
# --------------------------------------------------------------------------

class _Tenant:
    """One tenant: a task per machine, a connected VI pair, and one
    registered page per message slot on each side."""

    def __init__(self, cluster: Cluster, index: int, slots: int) -> None:
        sender = cluster[0].spawn(f"tenant{index}.s")
        receiver = cluster[1].spawn(f"tenant{index}.r")
        self.ua_s = cluster[0].user_agent(sender)
        self.ua_r = cluster[1].user_agent(receiver)
        self.cq = self.ua_r.create_cq()
        self.vi_s = self.ua_s.create_vi()
        self.vi_r = self.ua_r.create_vi(recv_cq=self.cq)
        cluster.connect(self.vi_s, cluster[0], self.vi_r, cluster[1])
        self.send, self.recv = [], []
        for ua, bufs in ((self.ua_s, self.send), (self.ua_r, self.recv)):
            for _ in range(slots):
                va = ua.task.mmap(1)
                bufs.append((ua.register_mem(va, PAGE_SIZE), va))


class TenantSoak(Workload):
    """Tenants take turns posting a batch of small sends and draining the
    completions, with daemons running and a lossy fabric."""

    name = "tenant_soak"
    why = ("8 tenants x 16 batched ~256 B sends, reaper and watchdog "
           "daemons, chaos-lossy fabric: batched post/drain, retransmit")
    base_ops = 1000
    TENANTS = 8
    BATCH = 16
    #: message sizes are uniform in [MIN_BYTES, MAX_BYTES] (mean 256 B)
    MIN_BYTES, MAX_BYTES = 224, 288
    REAPER_NS = 50_000
    WATCHDOG_NS = 20_000
    CHAOS = dict(loss_rate=0.02, duplicate_rate=0.01, corrupt_rate=0.005,
                 delay_rate=0.02)
    POOL = 64 * 1024

    @classmethod
    def generate(cls, seed: int, n_ops: int) -> dict:
        rng = _rng(cls.name, seed)
        ops = []
        for i in range(n_ops):
            msgs = tuple(
                (rng.randint(cls.MIN_BYTES, cls.MAX_BYTES),
                 rng.randrange(cls.POOL - cls.MAX_BYTES))
                for _ in range(cls.BATCH))
            ops.append((i % cls.TENANTS, msgs))
        return {"seed": seed, "ops": ops, "pool": rng.randbytes(cls.POOL),
                "chaos_seed": rng.randrange(2 ** 31)}

    def __init__(self, inputs: dict) -> None:
        self.pool = inputs["pool"]
        self.cluster = Cluster(2, num_frames=1024, backend="kiobuf",
                               seed=inputs["seed"])
        self.clock = self.cluster.clock
        self.machines = self.cluster.machines
        self.tenants = [_Tenant(self.cluster, i, self.BATCH)
                        for i in range(self.TENANTS)]
        self.cqs = [t.cq for t in self.tenants]
        warm = tuple((self.MAX_BYTES, 0) for _ in range(self.BATCH))
        for i in range(self.TENANTS):
            op = (i, warm)
            self.prepare(op)
            self.execute(op)
            self.check(op)
        # Daemons and chaos start once every registration is in place: a
        # watchdog sample landing inside a multi-page registration would
        # see pins whose record does not exist yet.
        self.reapers = self.cluster.start_reapers(interval_ns=self.REAPER_NS)
        self.watchdog = self.cluster.arm_watchdog(
            interval_ns=self.WATCHDOG_NS)
        self.cluster.inject_faults(
            FaultPlan(seed=inputs["chaos_seed"], **self.CHAOS))

    def prepare(self, op) -> None:
        tenant = self.tenants[op[0]]
        with self.clock.frozen():
            for (_, va), (size, off) in zip(tenant.send, op[1]):
                tenant.ua_s.task.write(va, self.pool[off:off + size])

    def execute(self, op) -> tuple[int, int]:
        tenant = self.tenants[op[0]]
        msgs = op[1]
        rdescs = [Descriptor.recv([DataSegment(reg.handle, va, PAGE_SIZE)])
                  for reg, va in tenant.recv]
        sdescs = [Descriptor.send([DataSegment(reg.handle, va, size)])
                  for (reg, va), (size, _) in zip(tenant.send, msgs)]
        with self.clock.measure() as span:
            tenant.ua_r.post_recv_many(tenant.vi_r, rdescs)
            tenant.ua_s.post_send_many(tenant.vi_s, sdescs)
            completions = tenant.cq.drain_batch()
        sent = [tenant.ua_s.send_done(tenant.vi_s) for _ in sdescs]
        if len(completions) != self.BATCH:
            raise IncorrectOutput(f"{len(completions)} of {self.BATCH} "
                                  f"receives completed")
        for desc in sent + [c.descriptor for c in completions]:
            if desc.status != VIP_SUCCESS:
                raise ViaError(f"descriptor completed {desc.status}",
                               status=desc.status)
        for comp, (size, _) in zip(completions, msgs):
            if comp.descriptor.length_transferred != size:
                raise IncorrectOutput(
                    f"received {comp.descriptor.length_transferred} of "
                    f"{size} bytes")
        return span.elapsed_ns, sum(size for size, _ in msgs)

    def check(self, op) -> None:
        tenant = self.tenants[op[0]]
        with self.clock.frozen():
            for (_, va), (size, off) in zip(tenant.recv, op[1]):
                _expect(tenant.ua_r.task.read(va, size),
                        self.pool[off:off + size], "tenant message")


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Netpipe, RegChurn, OdpPressure, TenantSoak)}
