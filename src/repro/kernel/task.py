"""Simulated tasks (processes).

A task owns a virtual address space: a :class:`~repro.kernel.vma.VMAList`
and a :class:`~repro.kernel.pagetable.PageTable`.  All memory operations
go through the :class:`~repro.kernel.kernel.Kernel` facade; the task
object itself is pure state plus convenience wrappers, so tests can
construct precise scenarios.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.hw.physmem import PAGE_SIZE
from repro.kernel.pagetable import PageTable
from repro.kernel.vma import VMAList

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel


class Task:
    """One simulated process."""

    def __init__(self, kernel: "Kernel", pid: int, uid: int = 1000,
                 name: str = "") -> None:
        self._kernel = kernel
        self.pid = pid
        self.uid = uid
        self.name = name or f"task{pid}"
        self.capabilities: set[str] = set()
        self.page_table = PageTable()
        self.vmas = VMAList()
        #: next mmap placement hint, in vpns (grows upward)
        self.mmap_hint_vpn = 0x1000
        #: cleared by the kernel when the task is torn down
        self.alive = True
        #: statistics
        self.minor_faults = 0
        self.major_faults = 0

    # -- address helpers -------------------------------------------------------

    @staticmethod
    def vpn_of(va: int) -> int:
        """Virtual page number of byte address ``va``."""
        return va // PAGE_SIZE

    # -- convenience wrappers over kernel syscalls -------------------------------

    def mmap(self, npages: int, writable: bool = True, name: str = "") -> int:
        """Map ``npages`` anonymous pages; returns the base virtual
        address.  See :meth:`repro.kernel.kernel.Kernel.sys_mmap`."""
        return self._kernel.sys_mmap(self, npages, writable=writable,
                                     name=name)

    def munmap(self, va: int, npages: int) -> None:
        """Unmap ``npages`` starting at ``va``."""
        self._kernel.sys_munmap(self, va, npages)

    def exit(self) -> None:
        """Terminate this task (see
        :meth:`repro.kernel.kernel.Kernel.exit_task`)."""
        self._kernel.exit_task(self)

    def write(self, va: int, data: bytes) -> None:
        """Store ``data`` at ``va`` (faulting pages in as needed)."""
        self._kernel.user_write(self, va, data)

    def read(self, va: int, length: int) -> bytes:
        """Load ``length`` bytes from ``va`` (faulting pages in)."""
        return self._kernel.user_read(self, va, length)

    def touch_pages(self, va: int, npages: int, fill: bytes = b"") -> None:
        """Write one byte (or ``fill``) to each page of the range — the
        paper's way to "make sure each virtual page is mapped to a
        distinct physical page" (step 1 of the experiment)."""
        for i in range(npages):
            payload = fill if fill else bytes([i & 0xFF])
            self.write(va + i * PAGE_SIZE, payload)

    def resident_pages(self) -> int:
        """Current RSS in pages."""
        return self.page_table.resident_count()

    def physical_pages(self, va: int, npages: int) -> list[int | None]:
        """The frame numbers currently backing each page of the range;
        ``None`` for non-resident pages.  This is the probe the paper's
        experiment uses in steps 2 and 6 ("the physical addresses of all
        pages are derived from the page tables again and compared")."""
        out: list[int | None] = []
        for i in range(npages):
            pte = self.page_table.lookup(self.vpn_of(va) + i)
            out.append(pte.frame if pte is not None and pte.present else None)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Task(pid={self.pid}, uid={self.uid}, name={self.name!r})"
