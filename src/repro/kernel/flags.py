"""Page (frame-table ``flags`` column) and VM-area flag bits.

Named after their Linux counterparts so the code reads like the kernel
sources the paper cites (``mm/vmscan.c``, ``mm/filemap.c``).
"""

from __future__ import annotations

# -- per-page flags (mem_map_t.flags) ---------------------------------------

#: Page is locked for I/O; reclaim must leave it alone
#: ("Pages with the PG_locked bit set are left untouched").
PG_LOCKED = 1 << 0

#: Page is not available to the system at all — "not even counted to the
#: total amount of available memory".
PG_RESERVED = 1 << 1

#: Recently referenced — used by the shrink_mmap clock algorithm to give
#: pages a second chance.
PG_REFERENCED = 1 << 2

#: Page belongs to the page/buffer cache (simulated kernel I/O buffers),
#: i.e. it is a shrink_mmap candidate rather than a swap_out candidate.
PG_PAGECACHE = 1 << 3

PAGE_FLAG_NAMES = {
    PG_LOCKED: "PG_locked",
    PG_RESERVED: "PG_reserved",
    PG_REFERENCED: "PG_referenced",
    PG_PAGECACHE: "PG_pagecache",
}

# -- per-VMA flags (vm_area_struct.vm_flags) ---------------------------------

VM_READ = 1 << 0
VM_WRITE = 1 << 1

#: VMA is locked against swapping; ``swap_out_vma`` skips it
#: ("VMAs with the VM_LOCKED bit set are skipped").
VM_LOCKED = 1 << 3

#: Device/IO mapping (doorbell pages); never swapped, never COWed.
VM_IO = 1 << 4

VMA_FLAG_NAMES = {
    VM_READ: "VM_READ",
    VM_WRITE: "VM_WRITE",
    VM_LOCKED: "VM_LOCKED",
    VM_IO: "VM_IO",
}


def describe_flags(flags: int, names: dict[int, str]) -> str:
    """Render a flag word as ``"PG_locked|PG_referenced"`` for messages."""
    parts = [name for bit, name in names.items() if flags & bit]
    return "|".join(parts) if parts else "0"
