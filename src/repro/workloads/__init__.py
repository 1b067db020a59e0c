"""Workload generators: memory hogs, message-traffic patterns, churn
soaks, and the distributed lock manager."""

from repro.workloads.allocator import MemoryHog, apply_memory_pressure
from repro.workloads.dlm import (
    DESIGNS, DLMConfig, DLMHarness, DLMReport, LockClient, LockOracle,
    run_dlm,
)
from repro.workloads.patterns import buffer_reuse_trace
from repro.workloads.soak import SoakConfig, SoakReport, run_soak

__all__ = [
    "MemoryHog", "apply_memory_pressure", "buffer_reuse_trace",
    "SoakConfig", "SoakReport", "run_soak",
    "DESIGNS", "DLMConfig", "DLMHarness", "DLMReport", "LockClient",
    "LockOracle", "run_dlm",
]
