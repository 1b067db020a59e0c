"""Fixture: PTE fields written around the page table (3 findings).

Flagged under any ``repro/`` relpath but ``repro/kernel/pagetable.py``,
the frame table's ``repro/kernel/page.py`` included.
"""


def hand_swap(page_table, vpn, slot):
    pte = page_table.lookup(vpn)
    pte.present = False                     # <- finding
    pte.frame = -1                          # <- finding
    pte.swap_slot = slot                    # <- finding
    # Fields no audit reads stay writable in place.
    pte.accessed = True
    pte.writable = False
