"""Fixture: column passes through FrameTable methods (0 findings)."""

import numpy as np  # repro-lint: allow(eager-numpy)


def free_list_ok(pagemap):
    # The view is taken, used and dropped inside FrameTable.all_free.
    return pagemap.table.all_free(pagemap._free)


def explained(table, frames):
    # Building an array from values copies; nothing pins a buffer.
    return np.bincount(np.fromiter(frames, dtype=np.int64))


def payload(raw):
    # repro-lint: allow(column-view) -- immutable bytes, not a column
    return np.frombuffer(raw, dtype=np.float64).copy()


def lookalike(buffers):
    # A method merely named frombuffer resolves to its receiver.
    return buffers.frombuffer(b"")
