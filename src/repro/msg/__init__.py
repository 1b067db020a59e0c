"""Zero-copy message passing over VIA — the workload that motivates the
paper's mechanism.

"The networking hardware must transfer the data directly from and to the
user buffers, the addresses of which are given to the communication
library, e.g. MPI.  Since any arbitrary user space address can be used,
MPI cannot predict it.  Neither is it possible to register the whole
user space in advance due to resource limitation.  Hence, the buffers
must be registered on the fly."

* :mod:`repro.msg.endpoint` — per-rank endpoint with preregistered
  bounce buffers and a connected VI;
* :mod:`repro.msg.protocols` — eager, rendezvous-copy, and
  rendezvous-zero-copy protocols (the latter with an optional
  registration cache).

The size-based protocol switch lives in :mod:`repro.mpi`: eager up to
the world's ``eager_threshold``, rendezvous zero-copy above it.
"""

from repro.msg.endpoint import Endpoint, connect_endpoints
from repro.msg.protocols import (
    EagerProtocol, PioProtocol, Protocol, RendezvousCopyProtocol,
    RendezvousZeroCopyProtocol, TransferResult,
)

__all__ = [
    "Endpoint", "connect_endpoints", "Protocol", "EagerProtocol",
    "PioProtocol", "RendezvousCopyProtocol",
    "RendezvousZeroCopyProtocol", "TransferResult",
]
