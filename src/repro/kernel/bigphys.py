"""The Bigphysarea approach — static reserved communication memory.

Before kiobufs, the group's SCI drivers used "the so-called
Bigphysarea-Patch ... an extension to the Linux memory management.
With this patch it is possible to reserve an amount of dedicated
consecutive memory locations for special purposes — such as memory to
export into SCI space" (Trams et al., this collection).

Its two documented problems, both reproduced here:

* it **wastes memory** — the reservation is carved out at boot and is
  unavailable to everyone else "if it is not really exported later";
* applications must allocate communication buffers with a **special
  malloc** from the reserved region, "but this violates a major goal of
  the MPI standard: Architecture Independence" — arbitrary user buffers
  cannot be registered at all.

The region's frames are ``PG_reserved``, so reclaim never touches them:
within its constraints the approach is perfectly reliable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import InvalidArgument, OutOfMemory
from repro.hw.physmem import PAGE_SIZE
from repro.kernel.flags import PG_RESERVED, VM_READ, VM_WRITE
from repro.kernel.vma import VMArea

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.kernel.task import Task


class BigPhysArea:
    """A boot-time contiguous reservation with a bump/free-list
    allocator (``bigphysarea_alloc_pages``)."""

    def __init__(self, kernel: "Kernel", npages: int) -> None:
        if npages <= 0:
            raise InvalidArgument("reservation must be positive")
        if npages > kernel.pagemap.free_count:
            raise OutOfMemory(
                f"cannot reserve {npages} pages: only "
                f"{kernel.pagemap.free_count} free")
        self.kernel = kernel
        self.frames: list[int] = []
        for _ in range(npages):
            frame = kernel.pagemap.alloc(tag="bigphysarea")
            kernel.pagemap.table.flags[frame] |= PG_RESERVED
            self.frames.append(frame)
        self.frames.sort()
        self._free: list[int] = list(self.frames)
        #: (task pid, base vpn) → list of frames, for freeing
        self._grants: dict[tuple[int, int], list[int]] = {}

    # -- allocator ----------------------------------------------------------

    def contains(self, frame: int) -> bool:
        """True iff ``frame`` belongs to the reservation."""
        return frame in self._frame_set

    @property
    def _frame_set(self) -> set[int]:
        cached = getattr(self, "_frame_set_cache", None)
        if cached is None:
            cached = set(self.frames)
            self._frame_set_cache = cached
        return cached

    # -- the "special malloc" ---------------------------------------------------

    def alloc(self, task: "Task", npages: int,
              name: str = "bigphys") -> int:
        """``bigphys_malloc``: map ``npages`` of reserved memory into
        ``task``; returns the base virtual address.

        The pages are resident immediately (they are real reserved
        frames) and can never be swapped (``PG_reserved``)."""
        if npages <= 0:
            raise InvalidArgument(f"cannot allocate {npages} pages")
        if npages > len(self._free):
            raise OutOfMemory(
                f"bigphysarea exhausted: {npages} requested, "
                f"{len(self._free)} free")
        frames = [self._free.pop(0) for _ in range(npages)]
        start_vpn = task.mmap_hint_vpn
        task.mmap_hint_vpn += npages + 1
        task.vmas.insert(VMArea(start_vpn, start_vpn + npages,
                                VM_READ | VM_WRITE, name=name))
        for i, frame in enumerate(frames):
            self.kernel.pagemap.get_page(frame)
            self.kernel.pagemap.table.mappings[frame] = (task.pid,
                                                         start_vpn + i)
            self.kernel.phys.zero_frame(frame)
            task.page_table.set_mapping(start_vpn + i, frame,
                                        writable=True)
        self._grants[(task.pid, start_vpn)] = frames
        return start_vpn * PAGE_SIZE

    def free(self, task: "Task", va: int) -> None:
        """``bigphys_free``: unmap and return a grant to the pool."""
        key = (task.pid, va // PAGE_SIZE)
        frames = self._grants.pop(key, None)
        if frames is None:
            raise InvalidArgument(
                f"va {va:#x} is not a bigphys grant of {task.name}")
        start_vpn = va // PAGE_SIZE
        task.vmas.remove_range(start_vpn, start_vpn + len(frames))
        for i, frame in enumerate(frames):
            task.page_table.clear(start_vpn + i)
            self.kernel.pagemap.table.mappings[frame] = None
            # Drop the mapping ref; a PG_reserved frame is never freed.
            self.kernel.pagemap.put_page(frame)
        self._free.extend(frames)
        self._free.sort()
