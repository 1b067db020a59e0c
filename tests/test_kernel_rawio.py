"""Tests for the RAW I/O subsystem (kiobufs' original consumer)."""

import pytest

from repro.errors import InvalidArgument
from repro.hw.physmem import PAGE_SIZE
from repro.kernel import paging
from repro.kernel.rawio import (
    BlockDevice, buffered_read, buffered_write, raw_read, raw_write,
)


@pytest.fixture
def setup(kernel):
    dev = BlockDevice(kernel, num_blocks=64)
    t = kernel.create_task()
    va = t.mmap(8)
    t.touch_pages(va, 8)
    return kernel, dev, t, va


class TestBlockDevice:
    def test_roundtrip(self, setup):
        kernel, dev, t, va = setup
        dev.write_block(3, b"disk data")
        data = dev.read_block(3)
        assert data[:9] == b"disk data"
        assert len(data) == PAGE_SIZE

    def test_unwritten_block_reads_zero(self, setup):
        kernel, dev, t, va = setup
        assert dev.read_block(0) == bytes(PAGE_SIZE)

    def test_bounds(self, setup):
        kernel, dev, t, va = setup
        with pytest.raises(InvalidArgument):
            dev.read_block(64)
        with pytest.raises(InvalidArgument):
            dev.write_block(-1, b"x")

    def test_io_charges_disk_cost(self, setup):
        kernel, dev, t, va = setup
        before = kernel.clock.category_ns("disk_io")
        dev.read_block(0)
        assert kernel.clock.category_ns("disk_io") > before


class TestPathsAgree:
    @pytest.mark.parametrize("read_fn,write_fn", [
        (buffered_read, buffered_write),
        (raw_read, raw_write),
    ], ids=["buffered", "raw"])
    def test_write_then_read_roundtrip(self, setup, read_fn, write_fn):
        kernel, dev, t, va = setup
        payload = bytes(range(256)) * 16 * 2   # 2 pages
        t.write(va, payload)
        write_fn(kernel, t, dev, 10, va, 2 * PAGE_SIZE)
        t.write(va, bytes(2 * PAGE_SIZE))      # wipe
        read_fn(kernel, t, dev, 10, va, 2 * PAGE_SIZE)
        assert t.read(va, len(payload)) == payload

    def test_cross_path_roundtrip(self, setup):
        """Data written raw must read back buffered and vice versa."""
        kernel, dev, t, va = setup
        t.write(va, b"via-raw")
        raw_write(kernel, t, dev, 0, va, PAGE_SIZE)
        buffered_read(kernel, t, dev, 0, va + PAGE_SIZE, PAGE_SIZE)
        assert t.read(va + PAGE_SIZE, 7) == b"via-raw"


class TestRawSemantics:
    def test_raw_read_does_no_cpu_copies(self, setup):
        kernel, dev, t, va = setup
        before = kernel.clock.category_ns("cpu_copy")
        raw_read(kernel, t, dev, 0, va, 4 * PAGE_SIZE)
        assert kernel.clock.category_ns("cpu_copy") == before

    def test_buffered_read_pays_cpu_copies(self, setup):
        kernel, dev, t, va = setup
        before = kernel.clock.category_ns("cpu_copy")
        buffered_read(kernel, t, dev, 0, va, 4 * PAGE_SIZE)
        copied = kernel.clock.category_ns("cpu_copy") - before
        assert copied >= kernel.costs.memcpy_ns(4 * PAGE_SIZE)

    def test_raw_faster_than_buffered(self, setup):
        """Same transfer, simulated time: raw must win (the kiobuf
        mechanism's raison d'être)."""
        kernel, dev, t, va = setup
        with kernel.clock.measure() as raw_span:
            raw_read(kernel, t, dev, 0, va, 4 * PAGE_SIZE)
        with kernel.clock.measure() as buf_span:
            buffered_read(kernel, t, dev, 0, va, 4 * PAGE_SIZE)
        assert raw_span.elapsed_ns < buf_span.elapsed_ns

    def test_pages_unpinned_after_raw_io(self, setup):
        kernel, dev, t, va = setup
        raw_read(kernel, t, dev, 0, va, 2 * PAGE_SIZE)
        for frame in t.physical_pages(va, 2):
            assert kernel.pagemap.table.pin_counts[frame] == 0

    def test_raw_io_to_swapped_buffer_faults_it_in(self, setup):
        kernel, dev, t, va = setup
        dev.write_block(5, b"from disk")
        paging.swap_out(kernel, kernel.pagemap.num_frames)
        assert t.resident_pages() == 0
        raw_read(kernel, t, dev, 5, va, PAGE_SIZE)
        assert t.read(va, 9) == b"from disk"

    def test_alignment_enforced(self, setup):
        kernel, dev, t, va = setup
        with pytest.raises(InvalidArgument):
            raw_read(kernel, t, dev, 0, va + 1, PAGE_SIZE)
        with pytest.raises(InvalidArgument):
            raw_write(kernel, t, dev, 0, va, 100)

    def test_buffered_leaves_no_cache_residue(self, setup):
        kernel, dev, t, va = setup
        buffered_read(kernel, t, dev, 0, va, 2 * PAGE_SIZE)
        assert kernel.page_cache == set()
