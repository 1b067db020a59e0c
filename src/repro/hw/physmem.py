"""Physical memory: an array of byte-addressable page frames.

This is the lowest layer of the simulation.  It knows nothing about
processes, page tables, or pinning — it is "the RAM chips".  Both the CPU
(through the kernel's page tables) and the NIC (through physical addresses
in its TPT) read and write here, which is what makes TPT staleness
*observable*: a DMA write through a stale frame number lands in RAM that
no page table maps any more.

Addresses are ``(frame_number, offset)`` pairs or flat byte addresses
``frame_number * PAGE_SIZE + offset``; both forms are accepted.
"""

from __future__ import annotations

import mmap

from repro.errors import BadPhysicalAddress

#: Page size of the simulated machine — 4 KiB, the x86 page size the paper
#: assumes throughout ("4kB since the primary target system is a x86 one").
PAGE_SIZE = 4096

#: one page of zeros, the source of every frame clear and tail pad
_ZERO_PAGE = memoryview(bytes(PAGE_SIZE))


class PhysicalMemory:
    """``num_frames`` page frames of :data:`PAGE_SIZE` bytes each.

    Storage is one private anonymous memory mapping; frame ``i``
    occupies bytes ``[i*PAGE_SIZE, (i+1)*PAGE_SIZE)``.  The host OS
    zero-fills the mapping and commits a host page only when a frame is
    first written, so host memory follows the frames the simulation
    touches rather than the frames installed — the same demand paging
    the simulated kernel models.  ``MAP_PRIVATE`` keeps a host ``fork``
    from sharing simulated RAM.  Every slice assignment here is
    equal-length, as a mapping requires.  No access policy lives here —
    policy is the kernel's and the NIC's job.
    """

    def __init__(self, num_frames: int) -> None:
        if num_frames <= 0:
            raise ValueError("need at least one page frame")
        self.num_frames = num_frames
        self._mem = mmap.mmap(-1, num_frames * PAGE_SIZE,
                              flags=mmap.MAP_PRIVATE)

    # -- validation ---------------------------------------------------------

    def _check_frame(self, frame: int) -> None:
        if not (0 <= frame < self.num_frames):
            raise BadPhysicalAddress(
                f"frame {frame} outside installed memory "
                f"(0..{self.num_frames - 1})")

    def _check_span(self, frame: int, offset: int, length: int) -> None:
        self._check_frame(frame)
        if length < 0:
            raise BadPhysicalAddress(f"negative length {length}")
        if not (0 <= offset <= PAGE_SIZE):
            raise BadPhysicalAddress(f"offset {offset} outside page")
        if offset + length > PAGE_SIZE:
            raise BadPhysicalAddress(
                f"span [{offset}, {offset + length}) crosses the frame "
                f"boundary; physical spans must stay within one frame")

    # -- whole-frame access ---------------------------------------------------

    def read_frame(self, frame: int) -> bytes:
        """Return the full contents of ``frame``."""
        self._check_frame(frame)
        base = frame * PAGE_SIZE
        return self._mem[base:base + PAGE_SIZE]

    def write_frame(self, frame: int, data: bytes) -> None:
        """Overwrite the full contents of ``frame``.

        ``data`` shorter than a page is zero-padded; longer is an error.
        """
        self._check_frame(frame)
        if len(data) > PAGE_SIZE:
            raise BadPhysicalAddress(
                f"{len(data)} bytes do not fit in one {PAGE_SIZE}-byte frame")
        base = frame * PAGE_SIZE
        self._mem[base:base + len(data)] = data
        if len(data) < PAGE_SIZE:
            self._mem[base + len(data):base + PAGE_SIZE] = \
                _ZERO_PAGE[len(data):]

    def zero_frame(self, frame: int) -> None:
        """Clear ``frame`` to all-zero bytes (demand-zero fault path)."""
        self._check_frame(frame)
        base = frame * PAGE_SIZE
        self._mem[base:base + PAGE_SIZE] = _ZERO_PAGE

    def copy_frame(self, src: int, dst: int) -> None:
        """Copy frame ``src`` over frame ``dst`` (COW fault path)."""
        self._check_frame(src)
        self._check_frame(dst)
        sbase = src * PAGE_SIZE
        dbase = dst * PAGE_SIZE
        self._mem[dbase:dbase + PAGE_SIZE] = self._mem[sbase:sbase + PAGE_SIZE]

    # -- sub-frame access ------------------------------------------------------

    def read(self, frame: int, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at ``(frame, offset)``; must not cross the
        frame boundary."""
        self._check_span(frame, offset, length)
        base = frame * PAGE_SIZE + offset
        return self._mem[base:base + length]

    def write(self, frame: int, offset: int, data: bytes) -> None:
        """Write ``data`` at ``(frame, offset)``; must not cross the frame
        boundary."""
        self._check_span(frame, offset, len(data))
        base = frame * PAGE_SIZE + offset
        self._mem[base:base + len(data)] = data

    # -- iovec access (zero-copy DMA fast path) ------------------------------

    def _check_flat_span(self, addr: int, length: int) -> None:
        """Validate a flat physical span; unlike :meth:`_check_span` it
        may cross frame boundaries (physical memory is contiguous from
        the bus's point of view)."""
        if length < 0:
            raise BadPhysicalAddress(f"negative length {length}")
        if addr < 0 or addr + length > self.size_bytes:
            raise BadPhysicalAddress(
                f"span [{addr:#x}, {addr + length:#x}) outside installed "
                f"memory (0..{self.size_bytes:#x})")

    def read_iovec(self, iovec: list[tuple[int, int]]) -> bytes:
        """Gather-read ``(addr, length)`` spans into one ``bytes``.

        Spans may cross frame boundaries.  The single-span case (a fully
        coalesced DMA burst) costs exactly one copy; multi-span gathers
        assemble through a preallocated buffer with no per-span
        intermediate ``bytes`` objects.
        """
        if len(iovec) == 1:
            addr, length = iovec[0]
            self._check_flat_span(addr, length)
            return self._mem[addr:addr + length]
        total = sum(length for _, length in iovec)
        out = bytearray(total)
        mv_out = memoryview(out)
        mv_mem = memoryview(self._mem)
        pos = 0
        for addr, length in iovec:
            self._check_flat_span(addr, length)
            mv_out[pos:pos + length] = mv_mem[addr:addr + length]
            pos += length
        return bytes(out)

    def write_iovec(self, iovec: list[tuple[int, int]], data) -> None:
        """Scatter-write ``data`` across ``(addr, length)`` spans.

        ``data`` may be any buffer (bytes, bytearray, memoryview); it is
        consumed through a memoryview, so no per-span slices are
        materialized.  Span lengths must sum to ``len(data)``.
        """
        mv = memoryview(data)
        total = sum(length for _, length in iovec)
        if total != len(mv):
            raise BadPhysicalAddress(
                f"iovec covers {total} bytes, data is {len(mv)}")
        mv_mem = memoryview(self._mem)
        pos = 0
        for addr, length in iovec:
            self._check_flat_span(addr, length)
            mv_mem[addr:addr + length] = mv[pos:pos + length]
            pos += length

    # -- flat addressing (DMA engines think in flat physical bytes) ----------

    @staticmethod
    def split_phys(phys_addr: int) -> tuple[int, int]:
        """Split a flat physical byte address into ``(frame, offset)``."""
        return phys_addr // PAGE_SIZE, phys_addr % PAGE_SIZE

    @staticmethod
    def join_phys(frame: int, offset: int = 0) -> int:
        """Join ``(frame, offset)`` into a flat physical byte address."""
        return frame * PAGE_SIZE + offset

    @property
    def size_bytes(self) -> int:
        """Total installed memory in bytes."""
        return self.num_frames * PAGE_SIZE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PhysicalMemory({self.num_frames} frames, "
                f"{self.size_bytes // 1024} KiB)")
