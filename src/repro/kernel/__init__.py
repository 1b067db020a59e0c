"""Simulated Linux (2.2/2.4-era) kernel memory management.

Faithfully reproduces the mechanisms the paper analyses in Section 2
("The Linux swapping mechanism"):

* a **page map** (``mem_map[]``): a frame table with one column per
  field — reference counter, the ``PG_locked`` / ``PG_reserved`` flags,
  kiobuf pin count — indexed by frame number,
* per-task **page tables** and **VM-area lists** with ``VM_LOCKED``,
* **demand paging** with copy-on-write and swap-in,
* the **reclaim path**: ``try_to_free_pages`` → ``shrink_mmap`` (clock
  algorithm) → ``swap_out`` (per-process VMA walk),
* the **kiobuf** subsystem (``map_user_kiobuf`` / ``unmap_kiobuf``),
* ``mlock``/``do_mlock`` and the capability machinery around them.
"""

from repro.kernel.flags import (
    PG_LOCKED, PG_RESERVED, PG_REFERENCED,
    VM_READ, VM_WRITE, VM_LOCKED, VM_IO,
)
from repro.kernel.page import FrameTable
from repro.kernel.pagemap import PageMap
from repro.kernel.pagetable import PTE, PageTable
from repro.kernel.vma import VMArea, VMAList
from repro.kernel.task import Task
from repro.kernel.kiobuf import Kiobuf
from repro.kernel.kernel import Kernel

__all__ = [
    "PG_LOCKED", "PG_RESERVED", "PG_REFERENCED",
    "VM_READ", "VM_WRITE", "VM_LOCKED", "VM_IO",
    "FrameTable", "PageMap", "PTE", "PageTable",
    "VMArea", "VMAList", "Task", "Kiobuf", "Kernel",
]
