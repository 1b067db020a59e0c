"""Host-time spans around the simulator's public entry points.

:func:`install` wraps every entry point named in :func:`layer_table`
with a span recorder.  It must run before the system is built: the
kernel agent binds ``service_translation_fault`` and ``try_evict_frame``
as callbacks at construction.  A wrapper records only while an op is
current (``Tracer.op`` is set), so set-up and the harness's own payload
checks pass straight through.

Per layer the tracer aggregates, online, its *self* time (span duration
minus the time its child spans cover) and its call count.  Full span
records -- name, layer, both clocks at start and end, parent span and op
id -- are kept for the first :attr:`Tracer.KEEP_OPS` ops and exported as
a Chrome trace.
"""

from __future__ import annotations

import fnmatch
import inspect
from time import perf_counter_ns

import workloads  # noqa: F401  (puts src/ on the import path)
from repro.core.audit import InvariantWatchdog
from repro.core.regcache import RegistrationCache
from repro.hw.dma import DMAEngine
from repro.hw.swapdev import SwapDevice
from repro.kernel import paging
from repro.kernel.kernel import Kernel
from repro.kernel.reaper import OrphanReaper
from repro.mpi.rank import MpiRank
from repro.msg.endpoint import Endpoint
from repro.msg.protocols import Protocol
from repro.via.cq import CompletionQueue
from repro.via.fabric import Fabric
from repro.via.kernel_agent import KernelAgent
from repro.via.locking import BACKENDS
from repro.via.nic import VIANic
from repro.via.tpt import TranslationProtectionTable
from repro.via.user_agent import UserAgent

#: the span whose simulated duration feeds ``register_sim_p50/p99_us``
REGISTER_SPAN = "KernelAgent.register_memory"


def _backend_classes() -> list[type]:
    classes = []
    for factory in BACKENDS.values():
        cls = factory if isinstance(factory, type) else type(factory())
        if cls not in classes:
            classes.append(cls)
    return classes


def layer_table() -> list[tuple[str, object, tuple[str, ...]]]:
    """``(layer, owner, name patterns)``: the entry points each layer's
    spans wrap.  Layers are named after the modules that own them."""
    table = [
        ("mpi", MpiRank, ("isend", "recv")),
        ("msg", Protocol, ("transfer",)),
        ("msg", Endpoint, ("send_chunk", "recv_chunk")),
        ("core.regcache", RegistrationCache, ("acquire", "release")),
        ("via.user_agent", UserAgent,
         ("register_mem", "deregister_mem", "post_*", "*_done")),
        ("via.kernel_agent", KernelAgent,
         ("register_memory", "deregister_memory",
          "service_translation_fault", "try_evict_frame")),
    ]
    table += [("via.locking", cls, ("lock", "unlock"))
              for cls in _backend_classes()]
    table += [
        ("kernel", Kernel,
         ("user_read", "user_write", "sys_mmap", "sys_munmap",
          "map_user_kiobuf", "unmap_kiobuf", "pin_user_page",
          "unpin_user_page", "alloc_frame")),
        ("kernel.paging", paging, ("try_to_free_pages",)),
        ("hw.swapdev", SwapDevice, ("write_page", "read_page")),
        ("via.tpt", TranslationProtectionTable,
         ("translate", "install", "remove", "patch", "invalidate_*")),
        ("hw.dma", DMAEngine, ("read*", "write*", "atomic_rmw")),
        ("via.fabric", Fabric, ("transmit", "attempt_delivery")),
        ("via.nic", VIANic, ("post_*", "deliver")),
        ("via.cq", CompletionQueue, ("post", "poll", "drain_batch")),
        ("core.audit", InvariantWatchdog, ("check",)),
        ("kernel.reaper", OrphanReaper, ("scan",)),
    ]
    return table


LAYERS: tuple[str, ...] = tuple(dict.fromkeys(
    layer for layer, _, _ in layer_table()))


class Tracer:
    """Online per-layer aggregation plus full records for early ops."""

    KEEP_OPS = 100

    def __init__(self) -> None:
        #: the simulated clock of the system under test (set after build)
        self.clock = None
        #: id of the op in flight, or None outside ops
        self.op: int | None = None
        self.stack: list[list] = []
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.calls = dict.fromkeys(LAYERS, 0)
        #: host ns covered by spans with no parent (all ops)
        self.top_ns = 0
        self.register_sim_ns: list[int] = []
        #: (span id, parent id, name, layer, op, host start/end, sim
        #: start/end) for ops below KEEP_OPS
        self.records: list[tuple] = []
        self._next_id = 1

    def begin_op(self, op: int) -> None:
        self.op = op

    def end_op(self, start_ns: int, end_ns: int, sim_start: int,
               sim_end: int) -> None:
        if self.op < self.KEEP_OPS:
            self.records.append((0, None, "op", "op", self.op, start_ns,
                                 end_ns, sim_start, sim_end))
        self.op = None

    def wrap(self, fn, layer: str, name: str):
        tracer = self
        is_register = name == REGISTER_SPAN

        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            stack = tracer.stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][3] if stack else None
            sim0 = tracer.clock.now_ns
            frame = [perf_counter_ns(), sim0, 0, span_id]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - frame[0]
                tracer.self_ns[layer] += dur - frame[2]
                tracer.calls[layer] += 1
                if stack:
                    stack[-1][2] += dur
                else:
                    tracer.top_ns += dur
                sim1 = tracer.clock.now_ns
                if is_register:
                    tracer.register_sim_ns.append(sim1 - sim0)
                if tracer.op < tracer.KEEP_OPS:
                    tracer.records.append((span_id, parent, name, layer,
                                           tracer.op, frame[0], end, sim0,
                                           sim1))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def chrome_trace(self) -> dict:
        """The kept spans as a Chrome trace: process 1 on the host
        clock, process 2 on the simulated clock (both in µs)."""
        if not self.records:
            return {"traceEvents": []}
        origin = min(r[5] for r in self.records)
        events = [
            {"ph": "M", "name": "process_name", "pid": 1,
             "args": {"name": "host clock"}},
            {"ph": "M", "name": "process_name", "pid": 2,
             "args": {"name": "simulated clock"}},
        ]
        for span_id, parent, name, layer, op, h0, h1, s0, s1 in self.records:
            args = {"op": op, "span": span_id, "parent": parent}
            events.append({"ph": "X", "name": name, "cat": layer, "pid": 1,
                           "tid": 1, "ts": (h0 - origin) / 1000,
                           "dur": (h1 - h0) / 1000, "args": args})
            events.append({"ph": "X", "name": name, "cat": layer, "pid": 2,
                           "tid": 1, "ts": s0 / 1000, "dur": (s1 - s0) / 1000,
                           "args": args})
        return {"traceEvents": events, "displayTimeUnit": "ns"}


def install(tracer: Tracer):
    """Wrap every entry point of :func:`layer_table`; returns a function
    that restores the originals."""
    originals: list[tuple[object, str, object]] = []
    for layer, owner, patterns in layer_table():
        for attr, value in list(vars(owner).items()):
            if not inspect.isfunction(value):
                continue
            if not any(fnmatch.fnmatchcase(attr, p) for p in patterns):
                continue
            label = f"{getattr(owner, '__name__', owner)}.{attr}"
            if inspect.ismodule(owner):
                label = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
            originals.append((owner, attr, value))
            setattr(owner, attr, tracer.wrap(value, layer, label))

    def uninstall() -> None:
        for owner, attr, value in reversed(originals):
            setattr(owner, attr, value)
    return uninstall
