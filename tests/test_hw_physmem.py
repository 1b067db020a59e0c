"""Tests for simulated physical memory."""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.errors import BadPhysicalAddress
from repro.hw.physmem import PAGE_SIZE, PhysicalMemory


class TestPhysicalMemory:
    def test_page_size_is_4k(self):
        assert PAGE_SIZE == 4096

    def test_initially_zeroed(self):
        pm = PhysicalMemory(4)
        assert pm.read_frame(0) == bytes(PAGE_SIZE)

    def test_write_and_read_frame(self):
        pm = PhysicalMemory(4)
        pm.write_frame(2, b"hello")
        data = pm.read_frame(2)
        assert data[:5] == b"hello"
        assert data[5:] == bytes(PAGE_SIZE - 5)

    def test_write_frame_clears_tail(self):
        pm = PhysicalMemory(2)
        pm.write_frame(0, b"\xff" * PAGE_SIZE)
        pm.write_frame(0, b"ab")
        assert pm.read_frame(0) == b"ab" + bytes(PAGE_SIZE - 2)

    def test_write_frame_too_big(self):
        pm = PhysicalMemory(1)
        with pytest.raises(BadPhysicalAddress):
            pm.write_frame(0, b"x" * (PAGE_SIZE + 1))

    def test_zero_frame(self):
        pm = PhysicalMemory(1)
        pm.write_frame(0, b"junk")
        pm.zero_frame(0)
        assert pm.read_frame(0) == bytes(PAGE_SIZE)

    def test_copy_frame(self):
        pm = PhysicalMemory(3)
        pm.write_frame(0, b"payload")
        pm.copy_frame(0, 2)
        assert pm.read_frame(2) == pm.read_frame(0)

    def test_subframe_read_write(self):
        pm = PhysicalMemory(2)
        pm.write(1, 100, b"xyz")
        assert pm.read(1, 100, 3) == b"xyz"
        assert pm.read(1, 99, 1) == b"\x00"

    def test_span_cannot_cross_frame(self):
        pm = PhysicalMemory(2)
        with pytest.raises(BadPhysicalAddress):
            pm.read(0, PAGE_SIZE - 2, 4)
        with pytest.raises(BadPhysicalAddress):
            pm.write(0, PAGE_SIZE - 1, b"ab")

    def test_bad_frame_rejected(self):
        pm = PhysicalMemory(2)
        with pytest.raises(BadPhysicalAddress):
            pm.read_frame(2)
        with pytest.raises(BadPhysicalAddress):
            pm.read_frame(-1)

    def test_negative_length_rejected(self):
        pm = PhysicalMemory(1)
        with pytest.raises(BadPhysicalAddress):
            pm.read(0, 0, -1)

    def test_flat_address_helpers(self):
        assert PhysicalMemory.split_phys(PAGE_SIZE * 3 + 17) == (3, 17)
        assert PhysicalMemory.join_phys(3, 17) == PAGE_SIZE * 3 + 17
        assert PhysicalMemory.join_phys(5) == PAGE_SIZE * 5

    def test_size_bytes(self):
        assert PhysicalMemory(8).size_bytes == 8 * PAGE_SIZE

    def test_zero_frames_rejected(self):
        with pytest.raises(ValueError):
            PhysicalMemory(0)


class TestIovec:
    def test_read_iovec_single_span_crosses_frames(self):
        """Unlike `read`, an iovec span may cross frame boundaries —
        physically-contiguous frames are one flat run of bytes."""
        pm = PhysicalMemory(2)
        pm.write(0, PAGE_SIZE - 2, b"ab")
        pm.write(1, 0, b"cd")
        assert pm.read_iovec([(PAGE_SIZE - 2, 4)]) == b"abcd"

    def test_read_iovec_gathers_in_order(self):
        pm = PhysicalMemory(3)
        pm.write(2, 0, b"XX")
        pm.write(0, 5, b"YY")
        assert pm.read_iovec([(2 * PAGE_SIZE, 2), (5, 2)]) == b"XXYY"

    def test_write_iovec_scatters(self):
        pm = PhysicalMemory(3)
        pm.write_iovec([(2 * PAGE_SIZE, 2), (5, 2)], b"XXYY")
        assert pm.read(2, 0, 2) == b"XX"
        assert pm.read(0, 5, 2) == b"YY"

    def test_write_iovec_span_crosses_frames(self):
        pm = PhysicalMemory(2)
        pm.write_iovec([(PAGE_SIZE - 2, 4)], b"abcd")
        assert pm.read(0, PAGE_SIZE - 2, 2) == b"ab"
        assert pm.read(1, 0, 2) == b"cd"

    def test_write_iovec_length_mismatch_rejected(self):
        pm = PhysicalMemory(1)
        with pytest.raises(BadPhysicalAddress):
            pm.write_iovec([(0, 3)], b"toolong")

    def test_iovec_out_of_ram_rejected(self):
        pm = PhysicalMemory(1)
        with pytest.raises(BadPhysicalAddress):
            pm.read_iovec([(PAGE_SIZE - 1, 2)])
        with pytest.raises(BadPhysicalAddress):
            pm.write_iovec([(PAGE_SIZE - 1, 2)], b"ab")


class TestHostMemory:
    """Simulated RAM costs host memory only once it is written."""

    def test_installed_frames_commit_no_host_memory(self):
        # A fresh interpreter, so the peak RSS is this test's alone.
        script = textwrap.dedent("""
            import resource
            from repro.hw.physmem import PhysicalMemory
            def rss_kib():
                return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            before = rss_kib()
            pm = PhysicalMemory(65536)          # 256 MiB installed
            for frame in range(0, 65536, 4096):
                pm.write_frame(frame, b"x" * 4096)
            print(rss_kib() - before)
        """)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert int(out.stdout) < 32 * 1024

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_does_not_share_frames(self):
        pm = PhysicalMemory(2)
        pm.write_frame(1, b"parent")
        pid = os.fork()
        if pid == 0:   # child: scribble over the frame and leave at once
            pm.write_frame(1, b"child!")
            os._exit(0 if pm.read(1, 0, 6) == b"child!" else 1)
        _, status = os.waitpid(pid, 0)
        assert os.WEXITSTATUS(status) == 0
        assert pm.read(1, 0, 6) == b"parent"

    def test_unwritten_frames_read_as_zeros(self):
        pm = PhysicalMemory(4)
        pm.write_frame(1, b"\xff" * PAGE_SIZE)
        zeros = bytes(PAGE_SIZE)
        for frame in (0, 2, 3):
            assert pm.read_frame(frame) == zeros
            assert pm.read(frame, 10, 20) == bytes(20)
        assert pm.read_iovec([(2 * PAGE_SIZE, 2 * PAGE_SIZE)]) == zeros * 2
        assert pm.read_iovec([(0, 8), (3 * PAGE_SIZE + 5, 8)]) == bytes(16)
