"""Fixture: repro modules imported inside function bodies (5 findings)."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ViaError               # module level: fine

if TYPE_CHECKING:
    from repro.via.nic import VIANic


def complete(vi, desc):
    from repro.via.cq import Completion         # <- finding
    return Completion(vi.vi_id, "send", desc)


class Endpoint:
    def poll(self):
        import repro.msg.endpoint               # <- finding
        return repro.msg.endpoint

    def reduce(self, values):
        import numpy as np                      # not a repro module
        return np.add.reduce(values)

    def nested(self):
        def inner():
            from . import sibling               # <- finding (relative)
            return sibling
        if TYPE_CHECKING:
            from repro.via.vi import VirtualInterface
        else:
            from repro.via.vi import Doorbell   # <- finding (runs)
        return inner, Doorbell


def arm(target):
    # repro-lint: allow(local-import) -- import cycle
    from repro.via.machine import hosts_of
    try:
        from repro.kernel import reaper         # <- finding
    except ImportError:
        raise ViaError("no reaper")
    return hosts_of(target), reaper
