"""The four benchmark workloads, run briefly inside the test suite.

``bench/workloads.py`` is loaded from its file, unchanged, and each
workload runs about thirty operations through the same ``prepare`` /
``execute`` / ``check`` loop the benchmark times, then passes its
post-run audits.  Run with ``REPRO_SANITIZE=strict REPRO_RACE=strict``,
the suite arms the pin sanitizer and the race detector on every kernel
the workloads build, so the benchmark's own paths are checked too.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "bench" \
    / "workloads.py"
OPS = 30


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _load_workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_correct_and_audit_clean(name):
    cls = WORKLOADS[name]
    inputs = cls.generate(0, OPS)
    workload = cls(inputs)
    for op in inputs["ops"]:
        workload.prepare(op)
        elapsed_ns, _nbytes = workload.execute(op)
        workload.check(op)
        assert elapsed_ns > 0
    assert workload.audit() == []
    if workload.watchdog is not None:
        assert workload.watchdog.violations == 0
        assert workload.watchdog.checks_run > 0
