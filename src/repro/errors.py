"""Exception hierarchy for the repro package.

The hierarchy mirrors the layering of the simulated system:

* :class:`ReproError` — root of everything raised by this package.
* :class:`HardwareError` — physical-memory / swap-device / DMA faults.
* :class:`KernelError` — simulated-kernel failures (bad syscall arguments,
  resource exhaustion, permission checks).
* :class:`ViaError` — VIA-layer failures; carries a ``VIP_*`` status code so
  the user-agent API can report errors the way the VIPL specification does.

Keeping hardware, kernel, and VIA failures in distinct branches lets tests
assert precisely *which layer* rejected an operation — an important part of
reproducing the paper's protection arguments (e.g. a DMA protection-tag
mismatch must surface as a :class:`ProtectionError`, never as a Python
``IndexError`` leaking from the frame array).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SanitizerViolation(ReproError):
    """The pin-safety sanitizer caught an ordering violation in strict
    mode.

    Deliberately a direct :class:`ReproError` subclass — not a kernel,
    hardware, or VIA error — so no layer's recovery path can swallow it:
    a sanitizer report must always reach the test harness.  ``violation``
    is the structured :class:`~repro.analysis.sanitizer.Violation`,
    including its happens-before event trail."""

    def __init__(self, message: str, violation=None):
        super().__init__(message)
        self.violation = violation


class RaceDetected(ReproError):
    """The happens-before race engine found two conflicting accesses with
    no synchronization edge between them, in strict mode.

    Like :class:`SanitizerViolation`, a direct :class:`ReproError`
    subclass so no layer's recovery path can swallow it.  ``violation``
    is the structured :class:`~repro.analysis.races.RaceViolation`,
    carrying both access trails."""

    def __init__(self, message: str, violation=None):
        super().__init__(message)
        self.violation = violation


class UnmetExpectation(ReproError, AssertionError):
    """A ``PinSanitizer.expect()`` block completed without the expected
    violation ever firing, and ``disarm()`` was reached.

    Doubles as an :class:`AssertionError` so test harnesses report it as
    a plain failure: an expectation that never fires is a test bug (the
    scenario stopped exercising the hazard), not a sanitizer escape."""


# ---------------------------------------------------------------------------
# Hardware layer
# ---------------------------------------------------------------------------

class HardwareError(ReproError):
    """Base class for simulated-hardware failures."""


class BadPhysicalAddress(HardwareError):
    """A physical (frame, offset) address is outside installed memory."""


class OutOfMemory(HardwareError):
    """No free page frame is available and reclaim could not make one."""


class SwapFull(HardwareError):
    """The swap device has no free slots left."""


class BadSwapSlot(HardwareError):
    """A swap slot index is invalid or not currently in use."""


class DMAFault(HardwareError):
    """A DMA transfer touched an invalid physical address."""


# ---------------------------------------------------------------------------
# Kernel layer
# ---------------------------------------------------------------------------

class KernelError(ReproError):
    """Base class for simulated-kernel failures."""


class SegmentationFault(KernelError):
    """A task touched a virtual address with no VMA, or violated VMA
    protection bits."""


class InvalidArgument(KernelError):
    """EINVAL — a syscall was handed arguments it cannot act on."""


class PermissionDenied(KernelError):
    """EPERM — the calling task lacks the capability for this operation
    (e.g. ``mlock`` without ``CAP_IPC_LOCK``)."""


class PageAccountingError(KernelError):
    """An internal page-accounting invariant was violated (refcount
    underflow, freeing a mapped page, unlocking an unlocked page...).

    The real kernel would oops; the simulator raises so tests can detect
    the corruption the paper warns about (Giganet's unconditional flag
    clears)."""


class KiobufError(KernelError):
    """A kiobuf operation failed (unmapping twice, mapping an unfaultable
    range, ...)."""


class ProcessKilled(KernelError):
    """A task was killed at a fault-injection crash point.

    Raised *after* the kernel has torn the task down, so the code that
    was running on the victim's behalf unwinds the way a fatal signal
    unwinds a real syscall: the operation never completes, and any state
    it had built is already reclaimed (or deliberately leaked, when the
    crash models a buggy teardown)."""

    def __init__(self, message: str, pid: int | None = None,
                 point: str | None = None):
        super().__init__(message)
        self.pid = pid
        self.point = point


class InvariantViolation(KernelError):
    """The invariant watchdog caught a broken system invariant.

    ``kind`` names which audit tripped (``"kernel"``, ``"stale_tpt"``,
    ``"pin_leak"``) and ``snapshot`` is a structured dump of what the
    watchdog saw, so a chaos run that dies here can be diagnosed from
    the exception alone."""

    def __init__(self, message: str, kind: str = "invariant",
                 snapshot: dict | None = None):
        super().__init__(message)
        self.kind = kind
        self.snapshot = snapshot if snapshot is not None else {}


# ---------------------------------------------------------------------------
# VIA layer
# ---------------------------------------------------------------------------

class ViaError(ReproError):
    """Base class for VIA-layer failures.

    ``status`` carries the ``VIP_*`` code from :mod:`repro.via.constants`.
    """

    def __init__(self, message: str, status: str = "VIP_ERROR"):
        super().__init__(message)
        self.status = status


class ProtectionError(ViaError):
    """A memory access failed the protection-tag or RDMA-enable check."""

    def __init__(self, message: str):
        super().__init__(message, status="VIP_PROTECTION_ERROR")


class NotRegistered(ViaError):
    """A descriptor referenced memory that is not registered in the TPT
    (or, with ``VIP_ERROR_RESOURCE``, whose ODP fault could not get a
    frame)."""

    def __init__(self, message: str, status: str = "VIP_INVALID_MEMORY"):
        super().__init__(message, status=status)


class TranslationFault(ViaError):
    """A TPT lookup hit an ODP region whose pages are not yet resident.

    This is the NIC-internal signal of the on-demand-paging design: the
    region *is* registered and the protection checks all passed, but one
    or more entries still carry the invalid sentinel because no frame has
    been pinned behind them yet (or pressure evicted them).  The NIC
    catches this, suspends the transfer, and asks the kernel agent to
    fault the pages in; it must never escape to the VIPL API.

    ``pages`` are the region-relative page indices that need service.
    """

    def __init__(self, message: str, handle: int = -1, va: int = 0,
                 length: int = 0, pages: tuple[int, ...] = ()):
        super().__init__(message, status="VIP_ERROR_NOT_RESIDENT")
        self.handle = handle
        self.va = va
        self.length = length
        self.pages = pages


class DescriptorError(ViaError):
    """A malformed descriptor was posted."""

    def __init__(self, message: str):
        super().__init__(message, status="VIP_INVALID_PARAMETER")


class ViaConnectionError(ViaError):
    """VI connection management failed (already connected, peer missing,
    reliability-mode mismatch...)."""

    def __init__(self, message: str):
        super().__init__(message, status="VIP_INVALID_STATE")


class AdmissionError(ViaError):
    """Admission control rejected a registration before any pin was
    taken.

    Carries ``VIP_ERROR_RESOURCE`` deliberately: the stack already knows
    how to survive resource pressure (the registration cache evicts and
    retries, the rendezvous protocol degrades to copy), and an admission
    rejection must flow down exactly those paths rather than inventing a
    parallel recovery story.  ``uid``/``requested_pages``/``limit_pages``
    /``pinned_pages`` say which budget was short and by how much.
    """

    def __init__(self, message: str, uid: int | None = None,
                 requested_pages: int = 0, limit_pages: int | None = None,
                 pinned_pages: int = 0):
        super().__init__(message, status="VIP_ERROR_RESOURCE")
        self.uid = uid
        self.requested_pages = requested_pages
        self.limit_pages = limit_pages
        self.pinned_pages = pinned_pages


class QuotaExceeded(AdmissionError):
    """A tenant's ``RLIMIT_MEMLOCK``-style pinned-page budget is
    exhausted and eviction pressure could not free enough of it."""


class PinCeilingExceeded(AdmissionError):
    """The host-wide physical-pin ceiling is exhausted — admitting the
    registration would let pinned pages crowd out reclaimable memory."""


class QueueEmpty(ViaError):
    """A receive arrived (or a poll was attempted) with no posted
    descriptor.  Under ``RELIABLE_DELIVERY`` the VIA spec breaks the
    connection in this situation."""

    def __init__(self, message: str):
        super().__init__(message, status="VIP_NOT_DONE")
