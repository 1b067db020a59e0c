"""VIA constants: status codes, enums, limits.

Names follow the Virtual Interface Architecture Specification V1.0
(Intel/Compaq/Microsoft, Dec 1997) and Intel's VIPL implementation guide,
which the paper and its companion articles cite.
"""

from __future__ import annotations

import enum

# -- VIP status codes ---------------------------------------------------------

VIP_SUCCESS = "VIP_SUCCESS"
VIP_NOT_DONE = "VIP_NOT_DONE"
VIP_INVALID_PARAMETER = "VIP_INVALID_PARAMETER"
VIP_ERROR_RESOURCE = "VIP_ERROR_RESOURCE"
VIP_PROTECTION_ERROR = "VIP_PROTECTION_ERROR"
VIP_INVALID_MEMORY = "VIP_INVALID_MEMORY"
VIP_INVALID_STATE = "VIP_INVALID_STATE"
VIP_ERROR_CONN_LOST = "VIP_ERROR_CONN_LOST"
VIP_DESCRIPTOR_ERROR = "VIP_DESCRIPTOR_ERROR"
VIP_ERROR_NIC = "VIP_ERROR_NIC"


class DescriptorType(enum.Enum):
    """The VIA data-transfer operations."""

    SEND = "send"
    RECV = "recv"
    RDMA_WRITE = "rdma_write"
    RDMA_READ = "rdma_read"
    ATOMIC_CMPSWAP = "atomic_cmpswap"
    ATOMIC_FETCHADD = "atomic_fetchadd"


#: The remote-atomic descriptor types (compare-and-swap, fetch-and-add).
#: A tuple, not a set: ``in`` tests identity first, where a set would
#: call the Python-level ``Enum.__hash__`` on every descriptor.
ATOMIC_TYPES = (DescriptorType.ATOMIC_CMPSWAP,
                DescriptorType.ATOMIC_FETCHADD)


class ReliabilityLevel(enum.Enum):
    """VI connection reliability levels (VIA spec §2.4)."""

    UNRELIABLE = "unreliable"
    RELIABLE_DELIVERY = "reliable_delivery"
    RELIABLE_RECEPTION = "reliable_reception"


class ViState(enum.Enum):
    """VI connection state machine (simplified to the states the
    experiments exercise)."""

    IDLE = "idle"
    CONNECTED = "connected"
    ERROR = "error"


#: Maximum scatter/gather segments per descriptor (typical HW limit).
MAX_SEGMENTS = 8

#: Maximum bytes of immediate data a descriptor can carry (VIA spec: the
#: descriptor's ImmediateData field is 32 bits).
IMMEDIATE_DATA_BYTES = 4

#: Remote atomics operate on one naturally-aligned 64-bit word.
ATOMIC_OPERAND_BYTES = 8

#: Atomic operands and target words are 64-bit; FETCH_ADD wraps mod 2^64.
ATOMIC_OPERAND_MASK = (1 << 64) - 1

#: Responder-side atomic responses cached per VI for retransmit dedup.
#: The reliable request/response exchange is synchronous (one atomic in
#: flight per VI), so only the most recent sequence numbers can ever be
#: replayed; a small bound keeps the cache O(1).
ATOMIC_RESPONSE_CACHE = 32

#: Default TPT capacity, in page entries.
DEFAULT_TPT_ENTRIES = 8192

#: Default capacity of the NIC's translation cache, in cached spans.
DEFAULT_TRANSLATION_CACHE_ENTRIES = 1024

#: Retransmission attempts a RELIABLE VI makes before declaring the
#: connection lost (the original transmission is not counted).
MAX_RETRANSMITS = 7
