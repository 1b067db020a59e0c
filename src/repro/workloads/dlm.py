"""Crash-tolerant distributed lock manager on VIA remote atomics.

The tentpole workload for the atomic-verb data plane: N client
processes spread over a cluster contend for locks living in one pinned,
``rdma_atomic``-enabled page on machine ``m0``, increment a protected
data word under each lock, and get killed at instrumented crash points
*while holding*.  Three lock designs sit behind one :class:`LockClient`
API:

``server``
    server-centric queue: clients send ``A:<lock>`` / ``R:<lock>``
    messages to a lock-server process on m0, which grants FIFO with
    ``G:<lock>`` replies.  The server detects a dead holder through its
    server-side VI entering ERROR (``VIP_ERROR_CONN_LOST``) or through
    lease expiry, reclaims, and grants the next waiter.
``spin``
    client-bypass spin lock: one 8-byte word per lock, compare-and-swap
    from 0 to ``(cookie << 48) | lease_expiry_us``.  Holder identity
    and lease live in the *same* word, so a failed CAS hands every
    waiter exactly what it needs to decide expiry; reclaim is
    ``CAS(observed_value -> 0)``.  Waiters back off exponentially
    (bounded) between attempts.
``declock``
    DecLock-style ticket lock: ``FETCH_ADD`` on a ticket word issues
    turns, a serving word says whose turn it is, waiters advertise
    themselves in a ring and poll a per-client grant word the releaser
    RDMA-writes.  A *janitor* process on m0 (its own VI pair, atomics
    only on the atomic words) advances the serving counter over dead
    holders.

Every design is lease-based crash-recoverable: a holder killed at any
``dlm.*`` crash point (see :data:`repro.sim.faults.DLM_CRASH_POINTS`)
is detected — by connection loss or lease expiry — and its lock is
force-reclaimed, attributed in the trace (``dlm_reclaim`` with ``by=``)
and in ``workload.dlm.*`` obs counters.  A :class:`LockOracle` checks
the invariants the whole exercise is about: mutual exclusion (a reclaim
must never steal from a *live* holder), no lost wakeups (every live
waiter eventually acquires), a fairness bypass bound (0 for the FIFO
designs), the protected word's final value equals the count of
completed increments, and recovery latency stays within one lease plus
slack.

Word-class discipline keeps the ``atomic-nonatomic-overlap`` sanitizer
check quiet by construction: lock/ticket/serving words only ever see
adapter atomics; data, ring, and grant words only ever see plain RDMA.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.audit import (
    audit_kernel_invariants, audit_pin_leaks, audit_tpt_consistency,
)
from repro.errors import ProcessKilled, QueueEmpty, ViaError
from repro.hw.physmem import PAGE_SIZE
from repro.sim.faults import FaultPlan, crash_if_due
from repro.via.constants import VIP_SUCCESS, ViState
from repro.via.descriptor import DataSegment, Descriptor
from repro.via.machine import Cluster, Machine
from repro.via.vi import VirtualInterface

#: the three designs, in the order the benchmark sweeps them
DESIGNS: tuple[str, ...] = ("server", "spin", "declock")

_MASK48 = (1 << 48) - 1
_WORD = 8

# Per-lock slot layout, in words (shared by all designs so a config is
# design-agnostic): the lock/serving word, the ticket word, the data
# word, then the declock waiter ring (one word per client).
_W_LOCK = 0
_W_TICKET = 1
_W_DATA = 2
_W_RING = 3


@dataclass
class DLMConfig:
    """Knobs of one DLM run (fully seeded, all simulated-time)."""

    design: str = "spin"                 #: one of :data:`DESIGNS`
    n_clients: int = 4
    n_locks: int = 2
    cs_per_client: int = 6               #: critical sections per client
    backend: str = "kiobuf"
    seed: int = 0
    n_machines: int = 3                  #: m0 hosts the lock memory
    num_frames: int = 1024
    # -- leases / pacing --
    lease_ns: int = 20_000_000           #: holder lease (20 sim-ms)
    hold_ns: int = 40_000                #: dwell inside the CS
    step_gap_ns: int = 8_000             #: per-scheduler-step idle charge
    backoff_base_ns: int = 20_000        #: spin backoff, doubled per miss
    backoff_max_ns: int = 320_000        #: ... bounded here
    recovery_slack_ns: int = 2_000_000   #: allowed on top of one lease
    # -- chaos --
    crash_point: str | None = None       #: a ``dlm.*`` point, or None
    loss_rate: float = 0.0
    duplicate_rate: float = 0.0
    # -- safety bounds --
    max_steps: int = 60_000              #: scheduler steps before "stuck"
    sanitize: bool = True                #: arm a strict PinSanitizer
    janitor: bool = True                 #: run the reclaim daemon (the
    #: client-bypass designs recover by lease expiry alone without it)

    def __post_init__(self) -> None:
        if self.design not in DESIGNS:
            raise ValueError(
                f"unknown design {self.design!r}; choose one of {DESIGNS}")
        if not 2 <= self.n_clients <= 48:
            raise ValueError(
                f"n_clients must be in [2, 48] (message slots share one "
                f"page), got {self.n_clients}")
        if self.n_locks < 1:
            raise ValueError(f"need at least 1 lock, got {self.n_locks}")
        if not self.janitor and self.design == "declock":
            raise ValueError(
                "declock needs the janitor: waiters cannot advance the "
                "serving counter over a dead holder themselves")
        if self.n_machines < 2:
            raise ValueError(
                f"need at least 2 machines, got {self.n_machines}")
        # The lease must outlast the worst-case critical-section *span*:
        # the CS is 4 sub-steps, one per scheduler pass, and every pass
        # also runs each rival's step (up to one full backoff charge
        # apiece).  A lease shorter than that steals from live holders.
        cs_span = (6 * self.n_clients
                   * (self.step_gap_ns + self.backoff_max_ns)
                   + self.hold_ns)
        if self.lease_ns <= cs_span:
            raise ValueError(
                f"lease_ns ({self.lease_ns}) must exceed the worst-case "
                f"critical-section span (~{cs_span} ns with "
                f"{self.n_clients} clients backing off up to "
                f"{self.backoff_max_ns} ns) or live holders expire "
                f"mid-CS")

    # -- lock-memory layout ---------------------------------------------------

    @property
    def slot_words(self) -> int:
        return _W_RING + self.n_clients

    def lock_off(self, lock: int) -> int:
        """Byte offset of lock ``lock``'s slot."""
        return lock * self.slot_words * _WORD

    def word_off(self, lock: int, word: int) -> int:
        """Byte offset of ``word`` within lock ``lock``'s slot."""
        return self.lock_off(lock) + word * _WORD

    def ring_off(self, lock: int, ticket: int) -> int:
        """Byte offset of the ring cell that ``ticket`` maps to."""
        return self.word_off(lock, _W_RING + ticket % self.n_clients)

    def grant_off(self, lock: int, idx: int) -> int:
        """Byte offset of client ``idx``'s grant mailbox for ``lock``."""
        base = self.n_locks * self.slot_words
        return (base + lock * self.n_clients + idx) * _WORD

    @property
    def lockmem_pages(self) -> int:
        total = (self.n_locks * self.slot_words
                 + self.n_locks * self.n_clients) * _WORD
        return max(1, -(-total // PAGE_SIZE))


@dataclass
class DLMReport:
    """What one DLM run did and proved."""

    design: str = ""
    acquisitions: int = 0
    releases: int = 0
    increments: int = 0
    crashes: int = 0
    conn_failures: int = 0               #: clients lost to wire chaos
    reclaims: int = 0
    reclaims_by: dict[str, int] = field(default_factory=dict)
    recovery_ns: list[int] = field(default_factory=list)
    max_bypass: int = 0
    steps: int = 0
    sim_ns: int = 0
    data_final: dict[int, int] = field(default_factory=dict)
    data_expected: dict[int, int] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    sanitizer_violations: int = 0
    leaked_pins: int = 0
    reaper_post_reclaimed: int = 0       #: must be 0 — teardown got it all
    notes: list[str] = field(default_factory=list)

    @staticmethod
    def percentile(values: list[int], q: float) -> int:
        if not values:
            return 0
        ordered = sorted(values)
        index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
        return int(ordered[index])


class LockOracle:
    """Invariant checker fed by the harness as lock events happen.

    Violations accumulate as strings in :attr:`violations`; the harness
    folds them into the report and the tests assert the list is empty.
    """

    def __init__(self, config: DLMConfig) -> None:
        self.config = config
        self.violations: list[str] = []
        #: lock -> holder name (None = free)
        self.holder: dict[int, str | None] = {
            lock: None for lock in range(config.n_locks)}
        #: lock -> arrival-ordered live waiters (name, wait_start_ns)
        self.waiters: dict[int, list[tuple[str, int]]] = {
            lock: [] for lock in range(config.n_locks)}
        #: lock -> sim time its holder died while holding
        self.crash_ns: dict[int, int] = {}
        self.increments: dict[int, int] = {
            lock: 0 for lock in range(config.n_locks)}
        self.alive: set[str] = set()
        self.recovery_ns: list[int] = []
        self.max_bypass = 0

    # -- events ---------------------------------------------------------------

    def on_wait(self, lock: int, client: str, now_ns: int) -> None:
        """Record that ``client`` started waiting on ``lock``."""
        self.waiters[lock].append((client, now_ns))

    def on_acquire(self, lock: int, client: str, now_ns: int) -> None:
        """Check mutual exclusion, recovery bound, and FIFO fairness."""
        held_by = self.holder[lock]
        if held_by is not None:
            if held_by in self.alive:
                self.violations.append(
                    f"mutual exclusion: {client} acquired lock {lock} "
                    f"while live holder {held_by} still held it")
            elif lock not in self.crash_ns:
                self.violations.append(
                    f"lock {lock}: dead holder {held_by} was never "
                    f"reported crashed")
        if lock in self.crash_ns:
            recovery = now_ns - self.crash_ns.pop(lock)
            self.recovery_ns.append(recovery)
            bound = self.config.lease_ns + self.config.recovery_slack_ns
            if recovery > bound:
                self.violations.append(
                    f"lock {lock}: recovery took {recovery} ns, over the "
                    f"lease+slack bound of {bound} ns")
        # Fairness: live waiters that arrived before this client and are
        # still waiting were bypassed.  FIFO designs must never do this.
        my_start = None
        bypassed = 0
        queue = self.waiters[lock]
        for name, start in queue:
            if name == client:
                my_start = start
                break
        if my_start is not None:
            bypassed = sum(1 for name, start in queue
                           if name != client and name in self.alive
                           and start < my_start)
        self.max_bypass = max(self.max_bypass, bypassed)
        if bypassed and self.config.design in ("server", "declock"):
            self.violations.append(
                f"fairness: {client} bypassed {bypassed} earlier live "
                f"waiter(s) on lock {lock} under FIFO design "
                f"{self.config.design!r}")
        self.waiters[lock] = [(n, s) for n, s in queue if n != client]
        self.holder[lock] = client

    def on_increment(self, lock: int, client: str) -> None:
        """Count a data-word increment; flag it if ``client`` lacks the lock."""
        if self.holder[lock] != client:
            self.violations.append(
                f"lost update: {client} incremented lock {lock}'s data "
                f"word while holder is {self.holder[lock]!r}")
        self.increments[lock] += 1

    def on_release(self, lock: int, client: str) -> None:
        """Record a release; flag it if ``client`` was not the holder."""
        if self.holder[lock] != client:
            self.violations.append(
                f"release: {client} released lock {lock} held by "
                f"{self.holder[lock]!r}")
        self.holder[lock] = None

    def on_crash(self, client: str, now_ns: int,
                 holding: int | None) -> None:
        """Mark ``client`` dead and start the recovery clock if it held a lock."""
        self.alive.discard(client)
        if holding is not None and self.holder[holding] == client:
            self.crash_ns[holding] = now_ns
        for lock, queue in self.waiters.items():
            self.waiters[lock] = [(n, s) for n, s in queue if n != client]

    def on_reclaim(self, lock: int, by: str) -> None:
        """Validate a lease reclaim: the holder must really be dead."""
        held_by = self.holder[lock]
        if held_by is None:
            self.violations.append(
                f"reclaim by {by}: lock {lock} was not held")
        elif held_by in self.alive:
            self.violations.append(
                f"reclaim by {by}: lock {lock}'s holder {held_by} is "
                f"still alive — the lease lied")
        self.holder[lock] = None

    def finish(self, data_final: dict[int, int],
               stuck_waiters: list[str]) -> None:
        """Check final data words against the oracle's increment counts."""
        for lock, value in data_final.items():
            expected = self.increments[lock]
            if value != expected:
                self.violations.append(
                    f"lock {lock}: data word is {value}, oracle counted "
                    f"{expected} completed increments")
        for name in stuck_waiters:
            self.violations.append(
                f"lost wakeup: live client {name} never finished")


class _LockMem:
    """The lock memory and its owner process on m0."""

    def __init__(self, machine: Machine, config: DLMConfig) -> None:
        self.machine = machine
        self.config = config
        self.task = machine.spawn("lockd", uid=4000)
        self.ua = machine.user_agent(self.task)
        pages = config.lockmem_pages
        self.va = self.task.mmap(pages, name="dlm_lockmem")
        self.task.touch_pages(self.va, pages)
        self.reg = self.ua.register_mem(
            self.va, pages * PAGE_SIZE, rdma_write=True, rdma_read=True,
            rdma_atomic=True)

    def read_word(self, off: int) -> int:
        """Host-side read of one lock-memory word (final audits only —
        the data path goes through the NIC)."""
        return int.from_bytes(self.task.read(self.va + off, _WORD),
                              "little")


class LockClient:
    """One lock-manager client: a process, a VI pair to m0, and a
    design-specific acquire/release state machine driven by
    :meth:`step`.

    The critical section itself is design-agnostic and shared: read the
    protected word, write it +1, dwell, release — with a ``dlm.*``
    crash point between every two sub-steps.
    """

    def __init__(self, harness: "DLMHarness", idx: int,
                 machine: Machine) -> None:
        config = harness.config
        self.harness = harness
        self.config = config
        self.idx = idx
        self.name = f"c{idx}"
        self.machine = machine
        self.task = machine.spawn(self.name, uid=4100 + idx)
        self.ua = machine.user_agent(self.task)
        self.vi = self.ua.create_vi()
        lockmem = harness.lockmem
        self.server_vi: VirtualInterface = lockmem.ua.create_vi()
        harness.cluster.connect(self.vi, machine, self.server_vi,
                                lockmem.machine)
        self.scratch_va = self.task.mmap(1, name=f"dlm_{self.name}")
        self.task.touch_pages(self.scratch_va, 1)
        self.reg = self.ua.register_mem(self.scratch_va, PAGE_SIZE)
        self.h_mem = lockmem.reg.handle
        self.mem_va = lockmem.va
        self.alive = True
        self.completed = 0
        self.state = "idle"
        self.lock: int = 0               #: lock currently targeted
        self.holding: int | None = None
        self.data_value = 0              #: CS-read value in flight
        # design-specific protocol state
        self.spin_val = 0                #: exact word the spin CAS installed
        self.spin_misses = 0
        self.ticket = 0
        if config.design == "server":
            self._post_msg_recvs()

    # -- raw verbs ------------------------------------------------------------

    def _finish_send(self) -> Descriptor:
        done = self.ua.send_done(self.vi)
        if done.status != VIP_SUCCESS:
            raise ViaError(
                f"{self.name}: {done.dtype.value} failed with "
                f"{done.status}")
        return done

    def _cas(self, off: int, compare: int, swap: int) -> int:
        self.ua.atomic_cmpswap(self.vi, self.reg, self.h_mem,
                               self.mem_va + off, compare, swap)
        done = self._finish_send()
        assert done.atomic_original_value is not None
        return done.atomic_original_value

    def _fadd(self, off: int, add: int) -> int:
        self.ua.atomic_fetchadd(self.vi, self.reg, self.h_mem,
                                self.mem_va + off, add)
        done = self._finish_send()
        assert done.atomic_original_value is not None
        return done.atomic_original_value

    def _read_word(self, off: int) -> int:
        seg = DataSegment(self.reg.handle, self.reg.va + 8, _WORD)
        self.ua.post_send(self.vi, Descriptor.rdma_read(
            [seg], self.h_mem, self.mem_va + off))
        self._finish_send()
        return int.from_bytes(self.task.read(self.reg.va + 8, _WORD),
                              "little")

    def _write_word(self, off: int, value: int) -> None:
        self.task.write(self.reg.va + 16, value.to_bytes(_WORD, "little"))
        seg = DataSegment(self.reg.handle, self.reg.va + 16, _WORD)
        self.ua.post_send(self.vi, Descriptor.rdma_write(
            [seg], self.h_mem, self.mem_va + off))
        self._finish_send()

    # -- server-design messaging ----------------------------------------------

    _MSG_SLOTS = (256, 320)
    _MSG_LEN = 32

    def _post_msg_recvs(self) -> None:
        for slot in self._MSG_SLOTS:
            self._post_one_recv(slot)

    def _post_one_recv(self, slot: int) -> None:
        seg = DataSegment(self.reg.handle, self.reg.va + slot,
                          self._MSG_LEN)
        self.ua.post_recv(self.vi, Descriptor.recv([seg]))

    def _send_msg(self, text: str) -> None:
        self.ua.send_bytes(self.vi, self.reg, text.encode(), offset=384)
        self._finish_send()

    def _poll_msg(self) -> str | None:
        try:
            done = self.ua.recv_done(self.vi)
        except QueueEmpty:
            return None
        if done.status != VIP_SUCCESS:
            raise ViaError(f"{self.name}: recv failed with {done.status}")
        text = self.ua.recv_bytes(self.vi, done).decode()
        slot = done.segments[0].va - self.reg.va
        self._post_one_recv(slot)
        return text

    # -- crash points ---------------------------------------------------------

    def _crash(self, point: str) -> None:
        crash_if_due(self.machine.kernel.fault_plan, self.machine.kernel,
                     self.task, point)

    # -- the step machine -----------------------------------------------------

    @property
    def done(self) -> bool:
        return self.completed >= self.config.cs_per_client

    def step(self) -> None:
        """Advance by one protocol action (the harness round-robins
        these, charging a think gap per visit)."""
        config = self.config
        clock = self.harness.clock
        clock.charge(config.step_gap_ns, "dlm_step")
        state = self.state
        if state == "idle":
            self.lock = (self.idx + self.completed) % config.n_locks
            self.harness.oracle.on_wait(self.lock, self.name,
                                        clock.now_ns)
            self.spin_misses = 0
            self.state = {"server": "msg_acquire", "spin": "spin_cas",
                          "declock": "take_ticket"}[config.design]
        elif state == "msg_acquire":
            self._send_msg(f"A:{self.lock}")
            self.state = "wait_grant"
        elif state == "wait_grant":
            msg = self._poll_msg()
            if msg == f"G:{self.lock}":
                self._acquired()
        elif state == "spin_cas":
            self._spin_acquire_step()
        elif state == "take_ticket":
            self.ticket = self._fadd(
                config.word_off(self.lock, _W_TICKET), 1)
            self._write_word(config.ring_off(self.lock, self.ticket),
                             self.idx + 1)
            self.state = "poll_turn"
        elif state == "poll_turn":
            self._declock_poll_step()
        elif state == "cs_acquired":
            self._crash("dlm.acquired")
            self.data_value = self._read_word(
                config.word_off(self.lock, _W_DATA))
            self.state = "cs_read"
        elif state == "cs_read":
            self._crash("dlm.cs_read")
            self._write_word(config.word_off(self.lock, _W_DATA),
                             self.data_value + 1)
            self.harness.oracle.on_increment(self.lock, self.name)
            self.harness.report.increments += 1
            self.state = "cs_write"
        elif state == "cs_write":
            self._crash("dlm.cs_write")
            clock.charge(config.hold_ns, "dlm_hold")
            self.state = "cs_release"
        elif state == "cs_release":
            self._crash("dlm.before_release")
            self._release()
            self.harness.oracle.on_release(self.lock, self.name)
            self.harness.report.releases += 1
            self.holding = None
            self.completed += 1
            self.state = "idle"
        else:  # pragma: no cover - state machine is closed
            raise AssertionError(f"unknown client state {state!r}")

    def _acquired(self) -> None:
        self.holding = self.lock
        self.harness.oracle.on_acquire(self.lock, self.name,
                                       self.harness.clock.now_ns)
        self.harness.report.acquisitions += 1
        self.harness.cluster.obs.inc("workload.dlm.acquires")
        self.state = "cs_acquired"

    # -- spin design ----------------------------------------------------------

    def _spin_value(self) -> int:
        expiry_us = (self.harness.clock.now_ns
                     + self.config.lease_ns) // 1000
        return ((self.idx + 1) << 48) | (expiry_us & _MASK48)

    def _spin_acquire_step(self) -> None:
        config = self.config
        off = config.word_off(self.lock, _W_LOCK)
        my_val = self._spin_value()
        old = self._cas(off, 0, my_val)
        if old == 0:
            self.spin_val = my_val
            self._acquired()
            return
        # The failed CAS's original value is the holder's cookie+lease:
        # everything a waiter needs to decide the holder is dead.
        expiry_us = old & _MASK48
        if self.harness.clock.now_ns // 1000 > expiry_us:
            if self._cas(off, old, 0) == old:
                self.harness.note_reclaim(self.lock, by="waiter")
            return   # retry the acquire CAS on the next visit
        self.spin_misses += 1
        backoff = min(config.backoff_base_ns * (2 ** (self.spin_misses - 1)),
                      config.backoff_max_ns)
        self.harness.clock.charge(backoff, "dlm_backoff")

    def _spin_release(self) -> None:
        off = self.config.word_off(self.lock, _W_LOCK)
        if self._cas(off, self.spin_val, 0) != self.spin_val:
            # Reclaimed out from under a live holder — the oracle will
            # have flagged the mutual-exclusion breach already; record
            # the symptom too.
            self.harness.report.notes.append(
                f"{self.name}: release CAS on lock {self.lock} missed "
                f"(word changed while held)")

    # -- declock design -------------------------------------------------------

    def _declock_poll_step(self) -> None:
        config = self.config
        grant = self._read_word(config.grant_off(self.lock, self.idx))
        if grant == self.ticket + 1:
            self._acquired()
            return
        serving = self._read_word(config.word_off(self.lock, _W_LOCK))
        if serving == self.ticket:
            self._acquired()
        elif serving > self.ticket:
            raise ViaError(
                f"{self.name}: serving counter {serving} passed my "
                f"ticket {self.ticket} on lock {self.lock} — turn lost")

    def _declock_release(self) -> None:
        config = self.config
        old = self._fadd(config.word_off(self.lock, _W_LOCK), 1)
        nxt = old + 1
        waiter = self._read_word(config.ring_off(self.lock, nxt))
        if waiter:
            self._write_word(config.grant_off(self.lock, waiter - 1),
                             nxt + 1)

    def _release(self) -> None:
        design = self.config.design
        if design == "server":
            self._send_msg(f"R:{self.lock}")
        elif design == "spin":
            self._spin_release()
        else:
            self._declock_release()


class _LockServer:
    """The server-centric design's grant engine, running as the lockd
    process: FIFO queues, leases, and death detection through the
    server-side VIs."""

    def __init__(self, harness: "DLMHarness") -> None:
        self.harness = harness
        config = harness.config
        lockmem = harness.lockmem
        self.ua = lockmem.ua
        self.task = lockmem.task
        self.scratch_va = self.task.mmap(1, name="dlm_serverbuf")
        self.task.touch_pages(self.scratch_va, 1)
        self.reg = self.ua.register_mem(self.scratch_va, PAGE_SIZE)
        #: lock -> FIFO of waiting client indices
        self.queues: dict[int, list[int]] = {
            lock: [] for lock in range(config.n_locks)}
        #: lock -> (holder idx, grant sim-time)
        self.grants: dict[int, tuple[int, int]] = {}
        self.dead: set[int] = set()
        # Two pre-posted receives per client VI (request + release can
        # be in flight together), each in its own slot of the server's
        # scratch page.
        for client in harness.clients:
            for k in (0, 1):
                slot = 256 + (client.idx * 2 + k) * LockClient._MSG_LEN
                seg = DataSegment(self.reg.handle, self.reg.va + slot,
                                  LockClient._MSG_LEN)
                self.ua.post_recv(client.server_vi,
                                  Descriptor.recv([seg]))

    def step(self) -> None:
        """Drain queued requests/releases and hand out FIFO grants."""
        harness = self.harness
        clients = harness.clients
        for client in clients:
            if (client.idx not in self.dead
                    and client.server_vi.state is ViState.ERROR):
                self._on_death(client.idx)
            self._drain(client)
        # Lease backstop: a grant outliving its lease means the holder
        # is gone (a live holder releases orders of magnitude sooner).
        now = harness.clock.now_ns
        for lock, (idx, granted_ns) in list(self.grants.items()):
            if now - granted_ns > harness.config.lease_ns:
                self._reclaim(lock, f"lease expiry of c{idx}")

    def _drain(self, client: LockClient) -> None:
        vi = client.server_vi
        while vi.recv_done:
            done = vi.recv_done.popleft()
            if done.status != VIP_SUCCESS:
                continue
            text = self.ua.recv_bytes(vi, done).decode()
            seg = done.segments[0]
            self.ua.post_recv(vi, Descriptor.recv(
                [DataSegment(seg.mem_handle, seg.va, client._MSG_LEN)]))
            kind, lock_str = text.split(":", 1)
            lock = int(lock_str)
            if kind == "A":
                self.queues[lock].append(client.idx)
                self._grant_next(lock)
            elif kind == "R":
                holder = self.grants.get(lock)
                if holder is not None and holder[0] == client.idx:
                    del self.grants[lock]
                    self._grant_next(lock)

    def _on_death(self, idx: int) -> None:
        self.dead.add(idx)
        for lock, queue in self.queues.items():
            if idx in queue:
                self.queues[lock] = [i for i in queue if i != idx]
        for lock, (holder, _granted) in list(self.grants.items()):
            if holder == idx:
                self._reclaim(lock, f"conn lost to c{idx}")

    def _reclaim(self, lock: int, why: str) -> None:
        del self.grants[lock]
        self.harness.note_reclaim(lock, by="server", why=why)
        self._grant_next(lock)

    def _grant_next(self, lock: int) -> None:
        if lock in self.grants:
            return
        queue = self.queues[lock]
        while queue:
            idx = queue[0]
            client = self.harness.clients[idx]
            if (idx in self.dead
                    or client.server_vi.state is not ViState.CONNECTED):
                queue.pop(0)
                continue
            self.ua.send_bytes(client.server_vi, self.reg,
                               f"G:{lock}".encode())
            sent = self.ua.send_done(client.server_vi)
            if sent.status != VIP_SUCCESS:
                # The wire died mid-grant; the VI is now ERROR and the
                # next step's death scan will reroute the lock.
                queue.pop(0)
                continue
            queue.pop(0)
            self.grants[lock] = (idx, self.harness.clock.now_ns)
            return


class _Janitor:
    """Reclaim daemon for the client-bypass designs: its own process on
    m0 with a VI pair into the lock memory, speaking only atomics to the
    atomic words (so the ``atomic-nonatomic-overlap`` check stays quiet)
    and plain RDMA to the ring/grant words."""

    def __init__(self, harness: "DLMHarness") -> None:
        self.harness = harness
        config = harness.config
        lockmem = harness.lockmem
        machine = lockmem.machine
        self.task = machine.spawn("janitor", uid=4001)
        self.ua = machine.user_agent(self.task)
        self.vi = self.ua.create_vi()
        self.peer_vi = lockmem.ua.create_vi()
        machine.connect_loopback(self.vi, self.peer_vi)
        self.scratch_va = self.task.mmap(1, name="dlm_janitor")
        self.task.touch_pages(self.scratch_va, 1)
        self.reg = self.ua.register_mem(self.scratch_va, PAGE_SIZE)
        self.h_mem = lockmem.reg.handle
        self.mem_va = lockmem.va
        #: declock: lock -> (last serving value, first seen at ns)
        self._serving_seen: dict[int, tuple[int, int]] = {}

    # -- verbs (janitor-side mirrors of the client helpers) -------------------

    def _cas(self, off: int, compare: int, swap: int) -> int:
        self.ua.atomic_cmpswap(self.vi, self.reg, self.h_mem,
                               self.mem_va + off, compare, swap)
        done = self.ua.send_done(self.vi)
        if done.status != VIP_SUCCESS:
            raise ViaError(f"janitor: CAS failed with {done.status}")
        assert done.atomic_original_value is not None
        return done.atomic_original_value

    def _fadd(self, off: int, add: int) -> int:
        self.ua.atomic_fetchadd(self.vi, self.reg, self.h_mem,
                                self.mem_va + off, add)
        done = self.ua.send_done(self.vi)
        if done.status != VIP_SUCCESS:
            raise ViaError(f"janitor: FETCH_ADD failed with {done.status}")
        assert done.atomic_original_value is not None
        return done.atomic_original_value

    def _read_word(self, off: int) -> int:
        seg = DataSegment(self.reg.handle, self.reg.va, _WORD)
        self.ua.post_send(self.vi, Descriptor.rdma_read(
            [seg], self.h_mem, self.mem_va + off))
        done = self.ua.send_done(self.vi)
        if done.status != VIP_SUCCESS:
            raise ViaError(f"janitor: read failed with {done.status}")
        return int.from_bytes(self.task.read(self.reg.va, _WORD), "little")

    def _write_word(self, off: int, value: int) -> None:
        self.task.write(self.reg.va + 16,
                        value.to_bytes(_WORD, "little"))
        seg = DataSegment(self.reg.handle, self.reg.va + 16, _WORD)
        self.ua.post_send(self.vi, Descriptor.rdma_write(
            [seg], self.h_mem, self.mem_va + off))
        done = self.ua.send_done(self.vi)
        if done.status != VIP_SUCCESS:
            raise ViaError(f"janitor: write failed with {done.status}")

    # -- the sweep ------------------------------------------------------------

    def step(self) -> None:
        """Scan every lock once and reclaim any whose lease has expired."""
        design = self.harness.config.design
        for lock in range(self.harness.config.n_locks):
            if design == "spin":
                self._sweep_spin(lock)
            else:
                self._sweep_declock(lock)

    def _client_dead(self, idx: int) -> bool:
        clients = self.harness.clients
        if not 0 <= idx < len(clients):
            return False
        return clients[idx].server_vi.state is ViState.ERROR

    def _sweep_spin(self, lock: int) -> None:
        config = self.harness.config
        off = config.word_off(lock, _W_LOCK)
        old = self._read_word(off)
        if old == 0:
            return
        cookie, expiry_us = old >> 48, old & _MASK48
        expired = self.harness.clock.now_ns // 1000 > expiry_us
        if self._client_dead(cookie - 1) or expired:
            if self._cas(off, old, 0) == old:
                why = ("conn lost" if self._client_dead(cookie - 1)
                       else "lease expiry")
                self.harness.note_reclaim(
                    lock, by="janitor", why=f"{why} of c{cookie - 1}")

    def _sweep_declock(self, lock: int) -> None:
        config = self.harness.config
        harness = self.harness
        serving = self._read_word(config.word_off(lock, _W_LOCK))
        ticket = self._read_word(config.word_off(lock, _W_TICKET))
        now = harness.clock.now_ns
        last, since = self._serving_seen.get(lock, (None, now))
        if last != serving:
            self._serving_seen[lock] = (serving, now)
            since = now
        if serving >= ticket:
            return   # free (nobody has an unserved ticket)
        holder_word = self._read_word(config.ring_off(lock, serving))
        if holder_word == 0:
            return   # holder hasn't advertised yet
        idx = holder_word - 1
        dead = self._client_dead(idx)
        stuck = now - since > config.lease_ns
        if not (dead or stuck):
            return
        advanced = self._fadd(config.word_off(lock, _W_LOCK), 1)
        if advanced != serving:
            # Raced a genuine release between read and advance: undo is
            # impossible (counters only go up), but the turn we consumed
            # belongs to a holder that just started — this cannot happen
            # for a dead holder, so treat it as a harness bug loudly.
            raise AssertionError(
                f"janitor: serving moved {advanced - serving} turns "
                f"under the sweep of lock {lock}")
        why = f"{'conn lost' if dead else 'serving stuck'} of c{idx}"
        self.harness.note_reclaim(lock, by="janitor", why=why)
        nxt = serving + 1
        waiter = self._read_word(config.ring_off(lock, nxt))
        if waiter:
            self._write_word(config.grant_off(lock, waiter - 1), nxt + 1)


class DLMHarness:
    """Drives one :class:`DLMConfig` to a :class:`DLMReport`.

    Clients (and the lock server / janitor) are cooperative step
    machines round-robined on one simulated clock — deterministic
    interleaving, seeded chaos, and a kill at any ``dlm.*`` crash point
    unwinds through :class:`~repro.errors.ProcessKilled` exactly like a
    fatal signal mid-syscall.
    """

    def __init__(self, config: DLMConfig) -> None:
        self.config = config
        self.report = DLMReport(design=config.design)
        self.cluster = Cluster(config.n_machines, backend=config.backend,
                               num_frames=config.num_frames,
                               seed=config.seed)
        self.clock = self.cluster.clock
        self.cluster.obs.enable()
        self.sanitizer = (self.cluster.arm_sanitizer(strict=True)
                          if config.sanitize else None)
        self.lockmem = _LockMem(self.cluster[0], config)
        self.oracle = LockOracle(config)
        self.clients: list[LockClient] = []
        for idx in range(config.n_clients):
            machine = self.cluster[1 + idx % (config.n_machines - 1)]
            client = LockClient(self, idx, machine)
            self.clients.append(client)
            self.oracle.alive.add(client.name)
        self.server = (_LockServer(self)
                       if config.design == "server" else None)
        self.janitor = (_Janitor(self)
                        if config.design != "server" and config.janitor
                        else None)
        # Chaos armed after setup so faults hit the protocol, not pool
        # construction.
        self.plan: FaultPlan | None = None
        if (config.crash_point is not None or config.loss_rate
                or config.duplicate_rate):
            self.plan = FaultPlan(seed=config.seed,
                                  loss_rate=config.loss_rate,
                                  duplicate_rate=config.duplicate_rate,
                                  crash_point=config.crash_point)
            self.cluster.inject_faults(self.plan)

    # -- reclaim attribution --------------------------------------------------

    def note_reclaim(self, lock: int, *, by: str, why: str = "") -> None:
        """One forced reclaim happened: oracle check, tally, and the
        ``dlm_reclaim`` record (which the counter table counts)."""
        self.oracle.on_reclaim(lock, by)
        report = self.report
        report.reclaims += 1
        report.reclaims_by[by] = report.reclaims_by.get(by, 0) + 1
        self.cluster.trace.emit("dlm_reclaim", design=self.config.design,
                                lock=lock, by=by, why=why)

    # -- failure paths --------------------------------------------------------

    def _on_crash(self, client: LockClient) -> None:
        client.alive = False
        self.report.crashes += 1
        self.oracle.on_crash(client.name, self.clock.now_ns,
                             client.holding)
        self.cluster.obs.inc("workload.dlm.crashes")

    def _on_conn_failure(self, client: LockClient,
                         exc: ViaError) -> None:
        """Wire chaos broke the client's connection: it can't make
        progress, so it exits cleanly (the death signal every design
        watches for) and the oracle treats it like a crash."""
        client.alive = False
        self.report.conn_failures += 1
        self.report.notes.append(f"{client.name}: {exc}")
        kernel = client.machine.kernel
        if any(t.pid == client.task.pid for t in kernel.tasks):
            kernel.exit_task(client.task)
        self.oracle.on_crash(client.name, self.clock.now_ns,
                             client.holding)

    # -- run ------------------------------------------------------------------

    def run(self) -> DLMReport:
        """Drive the workload to completion and return the report."""
        config = self.config
        report = self.report
        steps = 0
        while (any(c.alive and not c.done for c in self.clients)
               and steps < config.max_steps):
            steps += 1
            for client in self.clients:
                if not client.alive or client.done:
                    continue
                try:
                    client.step()
                except ProcessKilled:
                    self._on_crash(client)
                except ViaError as exc:
                    self._on_conn_failure(client, exc)
            if self.server is not None:
                self.server.step()
            if self.janitor is not None:
                self.janitor.step()
        report.steps = steps
        stuck = [c.name for c in self.clients if c.alive and not c.done]
        self._quiesce()
        data_final: dict[int, int] = {}
        for lock in range(config.n_locks):
            data_final[lock] = self.lockmem.read_word(
                config.word_off(lock, _W_DATA))
        report.data_final = data_final
        report.data_expected = dict(self.oracle.increments)
        self.oracle.finish(data_final, stuck)
        report.recovery_ns = list(self.oracle.recovery_ns)
        report.max_bypass = self.oracle.max_bypass
        report.violations = list(self.oracle.violations)
        report.sim_ns = self.clock.now_ns
        self._teardown_and_audit()
        return report

    # -- quiesce / audit ------------------------------------------------------

    def _locks_free(self) -> bool:
        config = self.config
        if self.server is not None:
            return (not self.server.grants
                    and not any(self.server.queues.values()))
        for lock in range(config.n_locks):
            if config.design == "spin":
                if self.lockmem.read_word(
                        config.word_off(lock, _W_LOCK)):
                    return False
            else:
                serving = self.lockmem.read_word(
                    config.word_off(lock, _W_LOCK))
                ticket = self.lockmem.read_word(
                    config.word_off(lock, _W_TICKET))
                if serving < ticket:
                    return False
        return True

    def _quiesce(self) -> None:
        """Chaos off, then let the reclaim machinery (server or
        janitor, plus lease expiry) drain every lock a corpse still
        holds — survivors are gone, so only forced reclaim can free
        them."""
        self.cluster.inject_faults(None)
        if (self.janitor is None and self.server is None
                and not self._locks_free()):
            # Ran janitor-less (pure lease-expiry recovery) and the last
            # crash left a lock held with no waiter to reclaim it: the
            # operator's cleanup pass is a janitor started late.
            self.janitor = _Janitor(self)
        rounds = 0
        while not self._locks_free() and rounds < 200:
            rounds += 1
            if self.server is not None:
                self.server.step()
            if self.janitor is not None:
                self.janitor.step()
            self.clock.charge(self.config.lease_ns // 8, "dlm_quiesce")
        if not self._locks_free():
            self.report.violations.append(
                "quiesce: locks still held after 200 reclaim rounds")

    def _teardown_and_audit(self) -> None:
        report = self.report
        for client in self.clients:
            kernel = client.machine.kernel
            if any(t.pid == client.task.pid for t in kernel.tasks):
                kernel.exit_task(client.task)
        m0 = self.cluster[0]
        if self.janitor is not None:
            m0.kernel.exit_task(self.janitor.task)
        m0.kernel.exit_task(self.lockmem.task)
        for machine in self.cluster.machines:
            reaper = machine.start_reaper()
            scan = reaper.scan()
            report.reaper_post_reclaimed += scan.reclaimed_total
            leaks = audit_pin_leaks(machine.kernel, machine.agent)
            report.leaked_pins += len(leaks)
            if leaks:
                report.notes.append(
                    f"{machine.name}: leaked pins {leaks[:4]}")
            stale = audit_tpt_consistency(machine.agent)
            if stale:
                report.notes.append(
                    f"{machine.name}: stale TPT entries {stale[:4]}")
            audit_kernel_invariants(machine.kernel)
        if self.sanitizer is not None:
            self.sanitizer.disarm()
            report.sanitizer_violations = len(self.sanitizer.violations)


def run_dlm(config: DLMConfig | None = None) -> DLMReport:
    """Run one DLM workload; returns its :class:`DLMReport`.

    A clean run has ``violations == []``, ``leaked_pins == 0``,
    ``reaper_post_reclaimed == 0``, and the protected words equal to the
    oracle's increment counts — the tests and the E19 benchmark assert
    exactly that.
    """
    return DLMHarness(config if config is not None else DLMConfig()).run()

