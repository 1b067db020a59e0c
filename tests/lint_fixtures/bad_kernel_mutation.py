"""Fixture: driver-layer code poking kernel state (9 findings).

Only meaningful when linted under a ``repro/via/`` (or msg/mpi)
relpath — the rule is scoped to the layers above the kernel.
"""


def poke_attributes(obj):
    obj.pin_counts = None                   # <- finding (whole column)
    obj.flags |= 4                          # <- finding (aug-assign)


def call_mutators(kernel, pte):
    kernel.pagemap.get_page(pte.frame)      # <- finding


def poke_frame_table(kernel, table, f):
    kernel.pagemap.table.pin_counts[f] = 0  # <- finding
    table.flags[f] |= 4                     # <- finding (aug-assign)
    mappings = table.mappings
    mappings[f] = None                      # <- finding (column alias)
    table.decr_pin(f)                       # <- finding
    table.set_pin_count(f, 0)               # <- finding
    table.set_tag(f, "")                    # <- finding
