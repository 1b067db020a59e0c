"""repro — reproduction of Seifert & Rehm, "Proposing a Mechanism for
Reliably Locking VIA Communication Memory in Linux" (2000).

The package simulates, in pure Python, the full stack the paper reasons
about:

* :mod:`repro.hw` — physical memory, swap device, DMA engines;
* :mod:`repro.kernel` — a Linux-2.2/2.4-style virtual-memory subsystem
  (page map, page tables, VMAs, demand paging, the reclaim path,
  kiobufs, mlock, capabilities);
* :mod:`repro.via` — a Virtual Interface Architecture stack (TPT,
  protection tags, VIs, descriptors, doorbells, completion queues, NIC,
  fabric) with four pluggable memory-locking backends reproducing
  Berkeley-VIA/M-VIA, Giganet cLAN, VMA/mlock, and the paper's
  kiobuf-based proposal;
* :mod:`repro.core` — what sits on top of the mechanism (the
  registration cache, the Sec. 3.1 locktest experiment, consistency
  audits);
* :mod:`repro.msg` — zero-copy message-passing protocols exercising
  dynamic registration the way MPI implementations do.

Quickstart::

    from repro import Machine
    m = Machine(num_frames=512)
    task = m.spawn("app")
    ua = m.user_agent(task)
    # ... see examples/quickstart.py
"""

from repro.errors import ReproError
from repro.sim.clock import SimClock
from repro.sim.costs import CostModel
from repro.kernel.kernel import Kernel

__version__ = "1.0.0"

__all__ = [
    "ReproError", "SimClock", "CostModel", "Kernel", "Machine",
    "__version__",
]


def __getattr__(name):
    # Machine lives in repro.via.machine; imported lazily to keep the
    # kernel layer importable on its own.
    if name == "Machine":
        # repro-lint: allow(local-import) -- the package's lazy attribute
        from repro.via.machine import Machine
        return Machine
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
