"""A two-machine cluster with one connected VI pair, for tests that post
descriptors by hand."""

from __future__ import annotations

from repro.via.constants import ReliabilityLevel
from repro.via.locking.base import LockingBackend
from repro.via.machine import Cluster
from repro.via.user_agent import UserAgent
from repro.via.vi import VirtualInterface


def connected_pair(backend: LockingBackend | str = "kiobuf",
                   reliability: ReliabilityLevel =
                   ReliabilityLevel.RELIABLE_DELIVERY,
                   num_frames: int = 1024,
                   **kwargs) -> tuple[Cluster, UserAgent, UserAgent,
                                      VirtualInterface, VirtualInterface]:
    """A two-machine cluster with one task per machine and one connected
    VI pair.  Returns
    ``(cluster, ua_sender, ua_receiver, vi_sender, vi_receiver)``."""
    cluster = Cluster(2, backend=backend, num_frames=num_frames, **kwargs)
    sender = cluster[0].spawn("sender")
    receiver = cluster[1].spawn("receiver")
    ua_s = cluster[0].user_agent(sender)
    ua_r = cluster[1].user_agent(receiver)
    vi_s = ua_s.create_vi(reliability=reliability)
    vi_r = ua_r.create_vi(reliability=reliability)
    cluster.connect(vi_s, cluster[0], vi_r, cluster[1])
    return cluster, ua_s, ua_r, vi_s, vi_r
