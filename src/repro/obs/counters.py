"""The counter table: which trace records count toward which counters.

A counted fact is written once, as a trace record.  While observability
is enabled, :meth:`Observability.count <repro.obs.Observability.count>`
applies the rules of each record's kind.  A rule names its counter,
possibly as a template over detail fields; adds 1 or the value of one
detail field; and may hold only when a predicate over the detail does.
A counter name lives here or at a call site, never both.
"""

from __future__ import annotations

from typing import Callable, NamedTuple


class CounterRule(NamedTuple):
    """One trace kind feeding one counter."""

    kind: str
    #: counter name; ``{field}`` placeholders are filled from the detail
    name: str
    #: detail field whose value is added (None adds 1)
    amount: str | None = None
    #: count only records whose detail satisfies this (None: all)
    when: Callable[[dict], bool] | None = None


#: Every counter derived from the trace.
TRACE_COUNTERS: tuple[CounterRule, ...] = (
    CounterRule("cache_reclaim", "kernel.paging.cache_reclaims"),
    CounterRule("swap_skip", "kernel.paging.swap_skips.{reason}"),
    CounterRule("swap_out", "kernel.paging.swap_outs"),
    CounterRule("swap_out", "kernel.paging.orphaned_frames",
                when=lambda d: not d["freed"]),
    CounterRule("reclaim_done", "kernel.paging.reclaim_runs"),
    CounterRule("reclaim_done", "kernel.paging.frames_freed", amount="freed"),
    CounterRule("reclaim_done", "kernel.paging.reclaim_shortfalls",
                when=lambda d: d["freed"] < d["target"]),
    CounterRule("cow_underflow", "kernel.fault.cow_underflows"),
    CounterRule("dma_read", "hw.dma.bytes_read", amount="length"),
    CounterRule("dma_write", "hw.dma.bytes_written", amount="length"),
    CounterRule("dma_atomic", "hw.dma.atomics"),
    CounterRule("packet_nack", "via.fabric.packets_nacked"),
    CounterRule("packet_delayed", "via.fabric.packets_delayed"),
    CounterRule("packet_lost", "via.fabric.packets_dropped"),
    CounterRule("packet_corrupted", "via.fabric.packets_corrupted"),
    CounterRule("packet_duplicated", "via.fabric.packets_duplicated"),
    CounterRule("ack_lost", "via.fabric.acks_dropped"),
    CounterRule("nic_reset", "via.nic.resets"),
    CounterRule("via_send_error", "via.nic.protection_faults"),
    CounterRule("via_recv_error", "via.nic.protection_faults"),
    CounterRule("via_rdma_protfault", "via.nic.protection_faults"),
    CounterRule("via_atomic_reject", "via.nic.protection_faults",
                when=lambda d: d["reason"] == "protection"),
    CounterRule("via_dma_fault", "via.nic.dma_faults"),
    CounterRule("odp_dma_suspend", "via.nic.dma_suspensions"),
    CounterRule("via_retransmit", "via.nic.retransmits"),
    CounterRule("via_retransmit_timeout", "via.nic.backoff_wait_ns",
                amount="waited_ns"),
    CounterRule("via_conn_lost", "via.nic.conn_lost"),
    CounterRule("via_duplicate", "via.nic.duplicates_dropped"),
    CounterRule("via_atomic_replay", "via.nic.duplicates_dropped"),
    CounterRule("via_recv_drop", "via.nic.recv_drops"),
    CounterRule("via_atomic_replay", "via.atomic.replays"),
    CounterRule("via_atomic_reject", "via.atomic.rejects"),
    CounterRule("protocol_fallback", "msg.transfers_degraded"),
    CounterRule("msg_transfer_done", "msg.transfers.{protocol}"),
    CounterRule("msg_transfer_done", "msg.bytes_transferred",
                amount="nbytes"),
    CounterRule("msg_transfer_done", "msg.transfers_corrupt",
                when=lambda d: d["corrupt"]),
    CounterRule("dlm_reclaim", "workload.dlm.reclaims"),
    CounterRule("dlm_reclaim", "workload.dlm.reclaims.{by}"),
)

#: trace kind → its rules, in table order
RULES_BY_KIND: dict[str, list[CounterRule]] = {}
for _rule in TRACE_COUNTERS:
    RULES_BY_KIND.setdefault(_rule.kind, []).append(_rule)
