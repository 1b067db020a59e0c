"""Machines and clusters: convenient top-level assembly.

A :class:`Machine` is one host — a kernel plus one VIA NIC and its
Kernel Agent, with a chosen locking backend.  A :class:`Cluster` builds
several machines sharing one simulated clock and one fabric, so
end-to-end latencies are measured on a single timeline.
"""

from __future__ import annotations

from repro.kernel.kernel import Kernel
from repro.kernel.task import Task
from repro.obs import Observability
from repro.sim.clock import SimClock
from repro.sim.costs import CostModel
from repro.sim.trace import Trace
from repro.via.constants import ReliabilityLevel
from repro.via.fabric import Fabric
from repro.via.kernel_agent import KernelAgent
from repro.via.locking.base import LockingBackend
from repro.via.nic import VIANic
from repro.via.user_agent import UserAgent
from repro.via.vi import VirtualInterface


class Machine:
    """One host: kernel + NIC + Kernel Agent."""

    def __init__(self, name: str = "m0",
                 num_frames: int = 1024,
                 swap_slots: int = 8192,
                 costs: CostModel | None = None,
                 backend: LockingBackend | str = "kiobuf",
                 tpt_entries: int = 8192,
                 clock: SimClock | None = None,
                 trace: Trace | None = None,
                 fabric: Fabric | None = None,
                 min_free_pages: int = 8,
                 tenant_quota_pages: int | None = None,
                 host_pin_ceiling_pages: int | None = None) -> None:
        self.name = name
        self.kernel = Kernel(num_frames=num_frames, swap_slots=swap_slots,
                             costs=costs, clock=clock, trace=trace,
                             min_free_pages=min_free_pages)
        # Analysis events carry the machine name: frame numbers and pids
        # are host-local, so a cluster-wide sanitizer needs the label to
        # keep its per-host state machines apart.
        self.kernel.events.host = name
        self.nic = VIANic(f"{name}.nic0", self.kernel,
                          tpt_entries=tpt_entries)
        self.agent = KernelAgent(
            self.kernel, self.nic, backend=backend,
            tenant_quota_pages=tenant_quota_pages,
            host_pin_ceiling_pages=host_pin_ceiling_pages)
        self.fabric = fabric if fabric is not None else Fabric()
        self.fabric.attach(self.nic)

    @property
    def tenants(self):
        """The machine's tenant registration service (quota/admission)."""
        return self.agent.tenants

    @property
    def backend(self) -> LockingBackend:
        """The machine's locking backend."""
        return self.agent.backend

    @property
    def obs(self) -> Observability:
        """The machine's observability facade (possibly cluster-shared)."""
        return self.kernel.obs

    def inject_faults(self, plan):
        """Wire a :class:`~repro.sim.faults.FaultPlan` (or None to
        disarm) into this machine's fabric, NIC, DMA engine, and driver."""
        from repro.sim.faults import install
        return install(plan, self)

    def spawn(self, name: str = "", uid: int = 1000) -> Task:
        """Create a task on this machine."""
        return self.kernel.create_task(uid=uid, name=name)

    def user_agent(self, task: Task) -> UserAgent:
        """Open the NIC for ``task`` and return its user agent."""
        return UserAgent(self.agent, task)

    def connect_loopback(self, vi_a: VirtualInterface,
                         vi_b: VirtualInterface) -> None:
        """Connect two VIs of this machine's own NIC (loopback)."""
        self.fabric.connect(self.nic, vi_a.vi_id, self.nic, vi_b.vi_id)

    def arm_watchdog(self, **kwargs):
        """Arm an :class:`~repro.core.audit.InvariantWatchdog` on this
        machine and return it."""
        from repro.core.audit import InvariantWatchdog
        return InvariantWatchdog(**kwargs).arm(self)

    def arm_sanitizer(self, **kwargs):
        """Arm a :class:`~repro.analysis.sanitizer.PinSanitizer` on this
        machine and return it."""
        from repro.analysis.sanitizer import PinSanitizer
        return PinSanitizer(**kwargs).arm(self)

    def start_reaper(self, **kwargs):
        """Start an :class:`~repro.kernel.reaper.OrphanReaper` for this
        machine (installed as ``kernel.reaper``) and return it."""
        from repro.kernel.reaper import OrphanReaper
        reaper = OrphanReaper(self.kernel, agents=[self.agent], **kwargs)
        reaper.start()
        return reaper


class Cluster:
    """Several machines on one fabric with one shared clock.

    ``seed`` selects nothing: every random draw comes from a
    :class:`~repro.sim.faults.FaultPlan` or a workload's own generator.
    It is accepted because workload drivers pass their seed through.
    """

    def __init__(self, n: int = 2,
                 num_frames: int = 1024,
                 swap_slots: int = 8192,
                 costs: CostModel | None = None,
                 seed: int = 0,
                 backend: LockingBackend | str = "kiobuf",
                 tpt_entries: int = 8192,
                 min_free_pages: int = 8,
                 tenant_quota_pages: int | None = None,
                 host_pin_ceiling_pages: int | None = None) -> None:
        self.clock = SimClock()
        self.trace = Trace(self.clock)
        self.obs = self.trace.obs
        self.fabric = Fabric()
        self.machines: list[Machine] = []
        for i in range(n):
            # Each machine gets its own backend instance (driver state is
            # per host) but shares the clock, trace, fabric, and
            # observability (one metrics snapshot covers the cluster).
            from repro.via.locking import make_backend
            be = (make_backend(backend) if isinstance(backend, str)
                  else backend)
            self.machines.append(Machine(
                name=f"m{i}", num_frames=num_frames, swap_slots=swap_slots,
                costs=costs, backend=be,
                tpt_entries=tpt_entries, clock=self.clock,
                trace=self.trace, fabric=self.fabric,
                min_free_pages=min_free_pages,
                tenant_quota_pages=tenant_quota_pages,
                host_pin_ceiling_pages=host_pin_ceiling_pages))

    def inject_faults(self, plan):
        """Wire a :class:`~repro.sim.faults.FaultPlan` (or None to
        disarm) into the whole cluster."""
        from repro.sim.faults import install
        return install(plan, self)

    def arm_watchdog(self, **kwargs):
        """Arm one :class:`~repro.core.audit.InvariantWatchdog` over
        every machine in the cluster and return it."""
        from repro.core.audit import InvariantWatchdog
        return InvariantWatchdog(**kwargs).arm(self)

    def arm_sanitizer(self, **kwargs):
        """Arm one :class:`~repro.analysis.sanitizer.PinSanitizer` over
        every machine in the cluster and return it."""
        from repro.analysis.sanitizer import PinSanitizer
        return PinSanitizer(**kwargs).arm(self)

    def start_reapers(self, **kwargs):
        """Start one :class:`~repro.kernel.reaper.OrphanReaper` per
        machine; returns them in machine order."""
        return [m.start_reaper(**kwargs) for m in self.machines]

    def __getitem__(self, i: int) -> Machine:
        return self.machines[i]

    def __len__(self) -> int:
        return len(self.machines)

    def connect(self, vi_a: VirtualInterface, machine_a: Machine,
                vi_b: VirtualInterface, machine_b: Machine) -> None:
        """Connect a VI on one machine to a VI on another."""
        self.fabric.connect(machine_a.nic, vi_a.vi_id,
                            machine_b.nic, vi_b.vi_id)


def hosts_of(target) -> list[tuple[Kernel, list[KernelAgent]]]:
    """``(kernel, agents)`` for each host of an armed target: a
    :class:`Cluster`, a :class:`Machine`, a ready ``(kernel, agents)``
    pair, or a bare Kernel (no agents) — the one target dispatch every
    checker's ``arm`` uses."""
    if isinstance(target, Cluster):
        return [(m.kernel, [m.agent]) for m in target.machines]
    if isinstance(target, Machine):
        return [(target.kernel, [target.agent])]
    if isinstance(target, tuple):
        kernel, agents = target
        return [(kernel, list(agents))]
    return [(target, [])]


def connected_pair(backend: LockingBackend | str = "kiobuf",
                   reliability: ReliabilityLevel =
                   ReliabilityLevel.RELIABLE_DELIVERY,
                   num_frames: int = 1024,
                   **kwargs) -> tuple["Cluster", UserAgent, UserAgent,
                                      VirtualInterface, VirtualInterface]:
    """Test/bench helper: a two-machine cluster with one task per machine
    and one connected VI pair.  Returns
    ``(cluster, ua_sender, ua_receiver, vi_sender, vi_receiver)``."""
    cluster = Cluster(2, backend=backend, num_frames=num_frames, **kwargs)
    sender = cluster[0].spawn("sender")
    receiver = cluster[1].spawn("receiver")
    ua_s = cluster[0].user_agent(sender)
    ua_r = cluster[1].user_agent(receiver)
    vi_s = ua_s.create_vi(reliability=reliability)
    vi_r = ua_r.create_vi(reliability=reliability)
    cluster.connect(vi_s, cluster[0], vi_r, cluster[1])
    return cluster, ua_s, ua_r, vi_s, vi_r
