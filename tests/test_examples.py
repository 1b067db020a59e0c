"""Smoke tests: every example must run to completion and produce its
key output lines."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"
#: the examples import ``repro`` from the source tree, installed or not
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


def run_example(name: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True, text=True, timeout=300, env=ENV)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "hello, VIA!" in out
        assert "RDMA payload" in out
        assert "simulated time" in out

    def test_locktest_swapping(self):
        out = run_example("locktest_swapping.py")
        assert "refcount" in out
        assert "64/64" in out           # all pages moved
        assert "1 of 6 mechanisms fail" in out

    def test_zero_copy_messaging(self):
        out = run_example("zero_copy_messaging.py")
        assert "Bandwidth under memory pressure" in out
        assert "payload correct: False" in out   # the silent corruption

    def test_registration_cache(self):
        out = run_example("registration_cache.py")
        assert "caching speedup" in out
        assert "hit rate" in out

    def test_raw_io(self):
        out = run_example("raw_io.py")
        assert "RAW vs buffered" in out
        assert "survive reclaim: True" in out

    def test_parallel_sort(self):
        out = run_example("parallel_sort.py")
        assert "globally sorted: True" in out

    def test_halo_exchange(self):
        out = run_example("halo_exchange.py")
        assert "bit-identical to reference: True" in out
