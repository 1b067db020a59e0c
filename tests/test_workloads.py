"""Tests for the workload generators."""

from repro.hw.physmem import PAGE_SIZE
from repro.workloads.allocator import MemoryHog, apply_memory_pressure
from repro.workloads.patterns import buffer_reuse_trace


class TestMemoryHog:
    def test_grow_consumes_frames(self, kernel):
        hog = MemoryHog(kernel)
        free0 = kernel.pagemap.free_count
        hog.grow(16)
        assert (kernel.pagemap.free_count
                <= free0 - 16 + kernel.min_free_pages + 4)
        assert hog.pages_touched == 16

    def test_grow_beyond_ram_forces_swap(self, tiny_kernel):
        hog = MemoryHog(tiny_kernel)
        hog.grow(tiny_kernel.pagemap.num_frames * 2)
        assert tiny_kernel.swap.writes > 0

    def test_release_returns_memory(self, kernel):
        hog = MemoryHog(kernel)
        free0 = kernel.pagemap.free_count
        hog.grow(16)
        hog.release()
        assert kernel.pagemap.free_count == free0

    def test_churn_retouches(self, tiny_kernel):
        hog = MemoryHog(tiny_kernel)
        hog.grow(tiny_kernel.pagemap.num_frames)
        writes0 = tiny_kernel.swap.writes
        hog.churn(2)
        # Sustained churn keeps pushing pages out.
        assert tiny_kernel.swap.writes > writes0

    def test_apply_memory_pressure_helper(self, kernel):
        victim = kernel.create_task()
        va = victim.mmap(8)
        victim.touch_pages(va, 8)
        hog = apply_memory_pressure(kernel, factor=1.5)
        # Reclaim ran and stole something (victim or hog pages).
        assert kernel.trace.count("swap_out") > 0
        hog.release()


class TestBufferReuseTrace:
    def test_deterministic(self):
        a = buffer_reuse_trace(seed=3)
        b = buffer_reuse_trace(seed=3)
        assert a == b
        assert a != buffer_reuse_trace(seed=4)

    def test_ops_within_buffers(self):
        trace = buffer_reuse_trace(num_buffers=4, buffer_pages=8,
                                   operations=100)
        assert len(trace) == 100
        for op in trace:
            assert 0 <= op.buffer_index < 4
            assert op.offset % PAGE_SIZE == 0
            assert op.nbytes % PAGE_SIZE == 0
            assert op.offset + op.nbytes <= 8 * PAGE_SIZE

    def test_hot_buffers_dominate(self):
        trace = buffer_reuse_trace(num_buffers=8, hot_fraction=0.25,
                                   hot_probability=0.8, operations=400)
        hot_ops = sum(1 for op in trace if op.buffer_index < 2)
        assert hot_ops > 0.6 * len(trace)
