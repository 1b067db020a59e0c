"""RAW I/O — the subsystem kiobufs were invented for.

Section 4.2: "The RAW I/O mechanism was introduced to the Linux kernel
by Stephen C. Tweedie of RedHat in order to accelerate SCSI disk
accesses.  Traditional implementations first read data from disk to
kernel buffers and then copy it to the user buffer."

This module provides both paths over a simulated block device, so the
repository contains the mechanism's *original* consumer alongside the
paper's new one (VIA registration) — and so the cost difference the
kiobuf design exists for is measurable:

* :func:`buffered_read` / :func:`buffered_write` — the traditional path:
  disk ↔ a page-cache buffer ↔ CPU copy ↔ user memory;
* :func:`raw_read` / :func:`raw_write` — the kiobuf path: map the user
  buffer with ``map_user_kiobuf`` and DMA the disk transfer **directly**
  into the pinned user pages, zero copies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import InvalidArgument
from repro.hw.physmem import PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.kernel.task import Task


class BlockDevice:
    """A page-granular simulated disk (the "SCSI device")."""

    def __init__(self, kernel: "Kernel", num_blocks: int = 1024) -> None:
        self.kernel = kernel
        self.num_blocks = num_blocks
        self._blocks: dict[int, bytes] = {}
        self.reads = 0
        self.writes = 0

    def _check(self, block: int) -> None:
        if not (0 <= block < self.num_blocks):
            raise InvalidArgument(
                f"block {block} outside device (0..{self.num_blocks - 1})")

    def read_block(self, block: int) -> bytes:
        """Read one block (charges disk I/O)."""
        self._check(block)
        self.kernel.clock.charge(self.kernel.costs.disk_io_page_ns,
                                 "disk_io")
        self.reads += 1
        return self._blocks.get(block, bytes(PAGE_SIZE))

    def write_block(self, block: int, data: bytes) -> None:
        """Write one block (charges disk I/O)."""
        self._check(block)
        if len(data) > PAGE_SIZE:
            raise InvalidArgument("block write exceeds block size")
        self.kernel.clock.charge(self.kernel.costs.disk_io_page_ns,
                                 "disk_io")
        self.writes += 1
        self._blocks[block] = bytes(data).ljust(PAGE_SIZE, b"\x00")


def _block_range(va: int, nbytes: int) -> int:
    if nbytes <= 0 or nbytes % PAGE_SIZE or va % PAGE_SIZE:
        raise InvalidArgument(
            "raw I/O requires page-aligned address and length")
    return nbytes // PAGE_SIZE


# ---------------------------------------------------------------------------
# Traditional buffered path
# ---------------------------------------------------------------------------

def buffered_read(kernel: "Kernel", task: "Task", dev: BlockDevice,
                  block: int, va: int, nbytes: int) -> None:
    """disk → page-cache buffer → CPU copy → user memory."""
    kernel.clock.charge(kernel.costs.syscall_ns, "rawio")
    nblocks = _block_range(va, nbytes)
    for i in range(nblocks):
        buf = kernel.add_page_cache_page()
        data = dev.read_block(block + i)
        kernel.phys.write_frame(buf, data)
        # The copy the kiobuf path eliminates:
        task.write(va + i * PAGE_SIZE, data)
        kernel.page_cache.discard(buf)
        kernel.pagemap.put_page(buf)
    kernel.trace.emit("buffered_read", pid=task.pid, blocks=nblocks)


def buffered_write(kernel: "Kernel", task: "Task", dev: BlockDevice,
                   block: int, va: int, nbytes: int) -> None:
    """user memory → CPU copy → page-cache buffer → disk."""
    kernel.clock.charge(kernel.costs.syscall_ns, "rawio")
    nblocks = _block_range(va, nbytes)
    for i in range(nblocks):
        buf = kernel.add_page_cache_page()
        data = task.read(va + i * PAGE_SIZE, PAGE_SIZE)
        kernel.phys.write_frame(buf, data)
        dev.write_block(block + i, kernel.phys.read_frame(buf))
        kernel.page_cache.discard(buf)
        kernel.pagemap.put_page(buf)
    kernel.trace.emit("buffered_write", pid=task.pid, blocks=nblocks)


# ---------------------------------------------------------------------------
# RAW (kiobuf) path
# ---------------------------------------------------------------------------

def raw_read(kernel: "Kernel", task: "Task", dev: BlockDevice,
             block: int, va: int, nbytes: int) -> None:
    """disk → DMA → pinned user pages; zero CPU copies.

    While the transfer is in flight the pages are locked (a kiobuf pin),
    so the reclaim path cannot steal them mid-DMA — the same guarantee
    the paper wants for VIA communication memory.
    """
    kernel.clock.charge(kernel.costs.syscall_ns, "rawio")
    nblocks = _block_range(va, nbytes)
    kio = kernel.map_user_kiobuf(task, va, nbytes, write=True)
    try:
        for i in range(nblocks):
            data = dev.read_block(block + i)
            # The device bus-masters straight into the pinned frame; the
            # transfer itself is part of the disk-I/O charge above, so
            # the byte movement here is cost-free.
            kernel.phys.write_frame(kio.frames[i], data)
    finally:
        kernel.unmap_kiobuf(kio)
    kernel.trace.emit("raw_read", pid=task.pid, blocks=nblocks)


def raw_write(kernel: "Kernel", task: "Task", dev: BlockDevice,
              block: int, va: int, nbytes: int) -> None:
    """pinned user pages → DMA → disk; zero CPU copies."""
    kernel.clock.charge(kernel.costs.syscall_ns, "rawio")
    nblocks = _block_range(va, nbytes)
    kio = kernel.map_user_kiobuf(task, va, nbytes, write=False)
    try:
        for i in range(nblocks):
            data = kernel.phys.read_frame(kio.frames[i])
            dev.write_block(block + i, data)
    finally:
        kernel.unmap_kiobuf(kio)
    kernel.trace.emit("raw_write", pid=task.pid, blocks=nblocks)
