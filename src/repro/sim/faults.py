"""Deterministic, seeded fault injection.

The paper's argument is that unreliable pinning corrupts VIA transfers
*silently*; demonstrating that the rest of the stack keeps its
invariants requires injecting failures systematically, not waiting for
them.  A :class:`FaultPlan` is a seeded schedule of misbehaviour that
the fabric, NICs, DMA engines, and the Kernel Agent consult at their
fault points:

* **wire faults** — drop, duplicate, corrupt, or delay fabric packets
  (probabilities per packet, one shared RNG so a seed fully determines
  a run);
* **DMA faults** — a transfer fails mid-flight, as a real bus-master
  would on a parity error or PCI abort;
* **registration faults** — the next N registration or pin attempts
  fail with ``VIP_ERROR_RESOURCE``, modelling TPT exhaustion or a
  locking backend that cannot pin under memory pressure;
* **NIC reset** — at a scheduled simulated time a NIC resets: every
  active VI transitions to ``ERROR`` and outstanding descriptors
  complete with ``VIP_ERROR_CONN_LOST``.

Wire a plan into a running system with :func:`install`::

    plan = FaultPlan(seed=7, loss_rate=0.2, corrupt_rate=0.05)
    install(plan, cluster)          # or a single Machine / Fabric

Every decision the plan takes is counted in :class:`FaultStats`, so
chaos tests can assert both that faults actually fired and that the
stack survived them.

The rolls are one stream of uniforms from the plan's PCG64 generator,
drawn :attr:`FaultPlan.ROLL_BLOCK` at a time: one ``random(n)`` call
yields the same doubles as n scalar ``random()`` calls, at a fraction
of the host cost.  :meth:`FaultPlan.corrupt` draws an ``integers``
index from the same generator, so it first cuts the block: it restores
the state saved before the block was drawn, re-draws the uniforms the
rolls used, and drops the rest.  Every verdict and flipped byte is
therefore the one scalar draws would give.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from repro.errors import ProcessKilled
from repro.sim.rng import make_rng

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

#: Default extra latency of a delayed packet (one disk-seek-ish stall).
DEFAULT_DELAY_NS = 20_000

#: Crash points inside the driver's registration path, in execution
#: order: before the backend pins, after the pin but before the TPT
#: install, inside the TPT install window, and after the registration is
#: fully recorded.
REGISTRATION_CRASH_POINTS: tuple[str, ...] = (
    "register.start",
    "register.pinned",
    "register.install",
    "register.installed",
)

#: Crash points inside the kernel itself (backend-specific, so not part
#: of the backend-agnostic registration sweep): mid-pin in
#: ``map_user_kiobuf``, after a page was pinned but before the kiobuf
#: record exists; and inside the capability dance, after ``cap_raise``
#: granted CAP_IPC_LOCK but before ``mlock`` ran — the window where a
#: death must not leave the capability behind.
KERNEL_CRASH_POINTS: tuple[str, ...] = (
    "kiobuf.pin",
    "mlock.cap_raised",
)

#: Crash points inside a rendezvous zero-copy transfer, mapping each
#: point to the rank that dies there (the *other* rank must then observe
#: VIP_ERROR_CONN_LOST instead of hanging).
TRANSFER_CRASH_POINTS: dict[str, str] = {
    "xfer.rts_sent": "sender",
    "xfer.rts_received": "receiver",
    "xfer.dst_registered": "receiver",
    "xfer.cts_received": "sender",
    "xfer.src_registered": "sender",
    "xfer.rdma_done": "sender",
    "xfer.fin_sent": "sender",
    "xfer.fin_received": "receiver",
}

#: Crash points inside a distributed-lock-manager critical section, in
#: execution order: right after the lock is acquired, between the read
#: and the write of the protected word, after the write, and on the
#: verge of releasing.  Each one leaves the lock *held by a corpse* —
#: the recovery path (lease expiry or connection-loss detection, then
#: forced reclaim) is what the DLM chaos sweep exercises.
DLM_CRASH_POINTS: tuple[str, ...] = (
    "dlm.acquired",
    "dlm.cs_read",
    "dlm.cs_write",
    "dlm.before_release",
)

#: Crash points inside the ODP fault-service path, in execution order:
#: after the fault request is accepted but before any page work, after
#: the pages are faulted in and pinned but before the TPT is patched,
#: and after the patch but before the NIC is resumed.  Each one kills
#: the owner while a DMA sits suspended on its registration — the exit
#: path must release every just-in-time pin and the NIC must complete
#: the suspended descriptor in error, leaking nothing.
ODP_CRASH_POINTS: tuple[str, ...] = (
    "odp_fault.start",
    "odp_fault.pinned",
    "odp_fault.patched",
)

#: Every crash point a plan may name.
CRASH_POINTS: tuple[str, ...] = (
    REGISTRATION_CRASH_POINTS + KERNEL_CRASH_POINTS
    + tuple(TRANSFER_CRASH_POINTS) + DLM_CRASH_POINTS + ODP_CRASH_POINTS)


@dataclass
class FaultStats:
    """How many faults of each kind a plan has injected."""

    drops: int = 0
    duplicates: int = 0
    corruptions: int = 0
    delays: int = 0
    dma_failures: int = 0
    registration_failures: int = 0
    pin_failures: int = 0
    nic_resets: int = 0
    crashes: int = 0

@dataclass
class FaultPlan:
    """A seeded schedule of injected failures.

    Rates are per-decision probabilities in ``[0, 1]``; budgets
    (``registration_failures``, ``pin_failures``) are consumed
    first-come-first-served; the NIC reset is a one-shot scheduled at a
    simulated time.  All draws come from one RNG, so the same seed and
    the same workload replay the same faults.
    """

    seed: int = 0
    #: probability a fabric packet (or its ACK) is dropped in flight
    loss_rate: float = 0.0
    #: probability a delivered packet is delivered a second time
    duplicate_rate: float = 0.0
    #: probability a packet's payload is corrupted in flight
    corrupt_rate: float = 0.0
    #: probability a packet is delayed by ``delay_ns`` extra wire time
    delay_rate: float = 0.0
    delay_ns: int = DEFAULT_DELAY_NS
    #: probability any single DMA transfer faults
    dma_fail_rate: float = 0.0
    #: fail the next N memory registrations (driver/TPT level)
    registration_failures: int = 0
    #: fail the next N pin attempts (locking-backend level)
    pin_failures: int = 0
    #: reset a NIC at this simulated time (None = never)
    nic_reset_at_ns: int | None = None
    #: restrict the reset to one NIC by name (None = every NIC checks)
    nic_reset_name: str | None = None
    #: kill a process when execution reaches this crash point (one-shot;
    #: see CRASH_POINTS for the instrumented locations)
    crash_point: str | None = None
    #: restrict the crash to this pid (None = first process to reach
    #: the crash point dies)
    crash_pid: int | None = None

    stats: FaultStats = field(default_factory=FaultStats)

    #: uniforms :meth:`_roll` draws from the generator at a time
    ROLL_BLOCK = 256

    def __post_init__(self) -> None:
        # Every public knob is validated here — a typo'd or out-of-range
        # fault plan must fail at construction, not half-way through a
        # chaos run (repro-lint's faultplan-validation rule enforces
        # that this stays true as knobs are added).
        if self.seed < 0:
            raise ValueError(
                f"seed must be >= 0, got {self.seed} "
                f"(the RNG rejects negative seeds)")
        rolls = False
        for attr in ("loss_rate", "duplicate_rate", "corrupt_rate",
                     "delay_rate", "dma_fail_rate"):
            rate = getattr(self, attr)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{attr} must be in [0, 1], got {rate}")
            rolls = rolls or rate > 0.0
        for attr in ("registration_failures", "pin_failures"):
            budget = getattr(self, attr)
            if budget < 0:
                raise ValueError(
                    f"{attr} must be >= 0, got {budget} "
                    f"(a negative failure budget can never be consumed)")
        if (self.nic_reset_name is not None
                and not isinstance(self.nic_reset_name, str)):
            raise ValueError(
                f"nic_reset_name must be a NIC name or None, "
                f"got {self.nic_reset_name!r}")
        if (self.crash_point is not None
                and self.crash_point not in CRASH_POINTS):
            raise ValueError(
                f"unknown crash point {self.crash_point!r}; "
                f"choose one of {sorted(CRASH_POINTS)}")
        # Signs: a negative delay would deliver packets in the past
        # (breaking clock monotonicity); pids and deadlines are
        # non-negative by construction everywhere else in the simulator.
        if self.delay_ns < 0:
            raise ValueError(
                f"delay_ns must be >= 0, got {self.delay_ns} "
                f"(a negative delay would move packets back in time)")
        if self.crash_pid is not None and self.crash_pid < 0:
            raise ValueError(
                f"crash_pid must be >= 0, got {self.crash_pid}")
        if self.nic_reset_at_ns is not None and self.nic_reset_at_ns < 0:
            raise ValueError(
                f"nic_reset_at_ns must be >= 0, got {self.nic_reset_at_ns}")
        self._reset_fired = False
        self._crash_fired = False
        #: the undrawn rest of the current block of uniforms, last
        #: first, and the generator state the block was drawn from
        self._block = array("d")
        self._block_state: dict | None = None
        if rolls:
            # A plan that rolls makes its stream, and loads numpy, now,
            # while the system is being built: first imported in the
            # middle of a run, numpy slowed the ops after it too
            # (EXPERIMENTS.md, E18).
            self._rng

    @cached_property
    def _rng(self) -> np.random.Generator:
        """The roll stream, made from ``seed``: at construction by a
        plan with a rate above zero, else by a direct :meth:`corrupt`.
        A plan that rolls nothing never loads numpy."""
        return make_rng(self.seed)

    # -- wire faults --------------------------------------------------------

    def _roll(self, rate: float) -> bool:
        """One Bernoulli draw: the next uniform of the stream is below
        ``rate``.  A rate of zero draws nothing."""
        if rate <= 0.0:
            return False
        block = self._block
        if not block:
            rng = self._rng
            self._block_state = rng.bit_generator.state
            # Reversed, so that pop() takes the uniforms in order.  An
            # array of doubles keeps no float object per uniform, which
            # a list of 256 would spread over the heap.
            block = self._block = array(
                "d", rng.random(self.ROLL_BLOCK)[::-1].tobytes())
        return block.pop() < rate

    def _cut_block(self) -> None:
        """Rewind the generator to just after the last uniform a roll
        used, and drop the rest of the block, so that a draw of another
        kind comes next in the stream, as with scalar draws."""
        block = self._block
        if not block:
            return
        rng = self._rng
        rng.bit_generator.state = self._block_state
        rng.random(self.ROLL_BLOCK - len(block))
        del block[:]

    def should_drop(self) -> bool:
        """Drop this packet (or this ACK)?"""
        if self._roll(self.loss_rate):
            self.stats.drops += 1
            return True
        return False

    def should_duplicate(self) -> bool:
        """Deliver this packet a second time?"""
        if self._roll(self.duplicate_rate):
            self.stats.duplicates += 1
            return True
        return False

    def should_corrupt(self, flippable: bool = True) -> bool:
        """Corrupt this packet's payload in flight?

        The roll is taken even for a packet with no byte to flip
        (``flippable=False``, an empty payload), so the random stream
        does not depend on payload sizes; such a packet is never
        corrupted, and nothing is counted."""
        if self._roll(self.corrupt_rate) and flippable:
            self.stats.corruptions += 1
            return True
        return False

    def corrupt(self, payload: bytes) -> bytes:
        """Flip one deterministic byte of ``payload`` (empty payloads
        come back empty — there is nothing to corrupt)."""
        if not payload:
            return payload
        self._cut_block()
        index = int(self._rng.integers(0, len(payload)))
        out = bytearray(payload)
        out[index] ^= 0xFF
        return bytes(out)

    def delay(self) -> int:
        """Extra wire nanoseconds for this packet (0 = on time)."""
        if self._roll(self.delay_rate):
            self.stats.delays += 1
            return self.delay_ns
        return 0

    # -- DMA faults ---------------------------------------------------------

    def should_fail_dma(self) -> bool:
        """Fault this DMA transfer?"""
        if self._roll(self.dma_fail_rate):
            self.stats.dma_failures += 1
            return True
        return False

    # -- registration faults ------------------------------------------------

    def take_registration_failure(self) -> bool:
        """Consume one registration-failure budget slot (False = none
        left; the registration proceeds normally)."""
        if self.registration_failures > 0:
            self.registration_failures -= 1
            self.stats.registration_failures += 1
            return True
        return False

    def take_pin_failure(self) -> bool:
        """Consume one pin-failure budget slot."""
        if self.pin_failures > 0:
            self.pin_failures -= 1
            self.stats.pin_failures += 1
            return True
        return False

    # -- NIC reset ----------------------------------------------------------

    def nic_reset_due(self, now_ns: int, nic_name: str) -> bool:
        """One-shot: has the scheduled reset time arrived for this NIC?"""
        if (self._reset_fired or self.nic_reset_at_ns is None
                or now_ns < self.nic_reset_at_ns):
            return False
        if (self.nic_reset_name is not None
                and nic_name != self.nic_reset_name):
            return False
        self._reset_fired = True
        self.stats.nic_resets += 1
        return True

    # -- process crashes ----------------------------------------------------

    def take_crash(self, point: str, pid: int) -> bool:
        """One-shot: does the process ``pid`` die at ``point``?"""
        if self._crash_fired or self.crash_point != point:
            return False
        if self.crash_pid is not None and pid != self.crash_pid:
            return False
        self._crash_fired = True
        self.stats.crashes += 1
        return True


def crash_if_due(plan: FaultPlan | None, kernel, task, point: str) -> None:
    """Instrumentation hook for crash points.

    If ``plan`` schedules a crash for ``task`` at ``point``, kill the
    task through the kernel (running the full exit-path reclamation) and
    raise :class:`~repro.errors.ProcessKilled` so the interrupted
    operation unwinds like a syscall aborted by a fatal signal.
    """
    if plan is None or task is None:
        return
    if not plan.take_crash(point, task.pid):
        return
    kernel.trace.emit("crash_point", point=point, pid=task.pid)
    kernel.kill(task.pid)
    raise ProcessKilled(
        f"pid {task.pid} killed at crash point {point!r}",
        pid=task.pid, point=point)


def install(plan: FaultPlan | None, target) -> FaultPlan | None:
    """Wire ``plan`` into every fault point reachable from ``target``.

    ``target`` may be a :class:`~repro.via.machine.Cluster`, a
    :class:`~repro.via.machine.Machine`, or a bare
    :class:`~repro.via.fabric.Fabric` (which covers its attached NICs).
    Passing ``plan=None`` uninstalls fault injection again.  Returns the
    plan for chaining.
    """
    # Local imports: the via layer imports this module, and sim must
    # stay importable without it.
    # repro-lint: allow(local-import) -- import cycle
    from repro.via.fabric import Fabric
    # repro-lint: allow(local-import) -- import cycle
    from repro.via.machine import Cluster, Machine

    if isinstance(target, Cluster):
        target.fabric.fault_plan = plan
        for machine in target.machines:
            _install_machine(plan, machine)
    elif isinstance(target, Machine):
        target.fabric.fault_plan = plan
        _install_machine(plan, target)
    elif isinstance(target, Fabric):
        target.fault_plan = plan
        for nic in target.nics.values():
            nic.fault_plan = plan
            nic.dma.fault_plan = plan
    else:
        raise TypeError(
            f"cannot install a FaultPlan on {type(target).__name__}")
    return plan


def _install_machine(plan: FaultPlan | None, machine) -> None:
    machine.nic.fault_plan = plan
    machine.nic.dma.fault_plan = plan
    machine.agent.fault_plan = plan
    # Kernel-internal crash points (kiobuf pinning) read the plan off
    # the kernel itself — the kiobuf layer knows nothing about drivers.
    machine.kernel.fault_plan = plan
    _schedule_nic_reset(plan, machine.nic)


def _schedule_nic_reset(plan: FaultPlan | None, nic) -> None:
    """Put a scheduled NIC reset on the clock's event calendar.

    Legacy behaviour made the reset depend on the victim happening to
    poll ``check_faults()`` at a doorbell after the deadline; the
    calendar event guarantees a wake-up at the deadline itself.  The
    event just calls ``check_faults()`` — idempotent, one-shot through
    ``nic_reset_due``, and still polled at every post — so uninstalling
    the plan before the deadline turns the event into a no-op.
    """
    if plan is None or plan.nic_reset_at_ns is None:
        return
    if plan.nic_reset_name is not None and nic.name != plan.nic_reset_name:
        return
    clock = nic.kernel.clock
    clock.schedule_at(max(plan.nic_reset_at_ns, clock.now_ns),
                      lambda now_ns: nic.check_faults(),
                      name=f"nic-reset:{nic.name}")
