"""A compact MPI-style library over the VIA stack — the paper's
motivating consumer.

"The networking hardware must transfer the data directly from and to
the user buffers, the addresses of which are given to the communication
library, e.g. MPI" — this package is that library: an MPI-1-flavoured
subset (point-to-point with tag/source matching incl. wildcards,
non-blocking requests, and the common collectives) implemented on
dedicated VI pairs per rank pair ("two VI's are connected between each
couple of MPI tasks"), with eager and rendezvous-zero-copy protocols
and dynamic registration through the registration cache.

Co-simulation note: ranks live in one Python thread, so blocking
operations drive their peers' progress engines directly, and
collectives execute a deterministic per-rank schedule — the message
traffic, registrations, copies, and costs are all real.
"""

from repro.mpi.constants import ANY_SOURCE, ANY_TAG, MAX_TAG
from repro.mpi.persistent import PersistentRequest
from repro.mpi.requests import Request, Status
from repro.mpi.rank import MpiRank
from repro.mpi.world import MpiWorld

__all__ = [
    "ANY_SOURCE", "ANY_TAG", "MAX_TAG", "Request", "Status", "MpiRank",
    "MpiWorld", "PersistentRequest",
]
