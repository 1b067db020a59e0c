"""Tests for the Section 3.1 locktest experiment — the paper's central
empirical claim, reproduced end to end."""

import pytest

from repro.core.locktest import (
    DMA_STAMP, LocktestExperiment, run_matrix,
)


@pytest.mark.san_suppress("swap-registered")
class TestRefcountFailure:
    """The negative result: refcount-only registration fails."""

    @pytest.fixture(scope="class")
    def result(self):
        return LocktestExperiment("refcount", buffer_pages=32,
                                  num_frames=256).run()

    def test_all_pages_relocated(self, result):
        """'In most cases we observed ... all physical addresses had
        changed.'"""
        assert result.pages_relocated == result.npages

    def test_dma_write_invisible(self, result):
        """'The first page still contained its original value' — the
        DMA stamp landed in the orphaned frame."""
        assert not result.dma_write_visible

    def test_process_data_survives(self, result):
        """The *process* loses nothing — its data went to swap and came
        back; only the NIC's view is stale."""
        assert result.process_data_intact

    def test_frames_orphaned_not_freed(self, result):
        """'The page is not really released ... it is still in use.'"""
        assert result.orphan_frames_during == result.npages

    def test_orphans_freed_on_deregistration(self, result):
        """'System stability is not affected by this lapse.'"""
        assert result.orphan_frames_after == 0

    def test_tpt_fully_stale(self, result):
        assert result.stale_tpt_entries == result.npages

    def test_failure_caused_by_swap_out(self, result):
        """The causal chain: every registered page was stolen by
        swap_out."""
        assert result.registered_pages_swapped == result.npages

    def test_not_survived(self, result):
        assert not result.registration_survived


class TestReliableBackends:
    @pytest.mark.parametrize("backend", ["pageflags", "mlock_naive",
                                         "mlock", "kiobuf"])
    def test_registration_survives_pressure(self, backend):
        result = LocktestExperiment(backend, buffer_pages=32,
                                    num_frames=256).run()
        assert result.registration_survived
        assert result.pages_relocated == 0
        assert result.dma_write_visible
        assert result.stale_tpt_entries == 0
        assert result.orphan_frames_during == 0
        assert result.registered_pages_swapped == 0
        assert result.process_data_intact


class TestExperimentMechanics:
    @pytest.mark.san_suppress("swap-registered")
    def test_matrix_runs_all_backends(self):
        results = run_matrix(["refcount", "kiobuf"], buffer_pages=16,
                             num_frames=192)
        assert [r.backend for r in results] == ["refcount", "kiobuf"]
        assert not results[0].registration_survived
        assert results[1].registration_survived

    def test_pressure_actually_happened(self):
        r = LocktestExperiment("kiobuf", buffer_pages=16,
                               num_frames=192).run()
        assert "swapped" in r.notes[0]
        # the allocator must have pushed something out
        assert int(r.notes[0].split()[4]) > 0

    @pytest.mark.san_suppress("swap-registered")
    def test_two_runs_with_the_same_arguments_agree(self):
        a = LocktestExperiment("refcount", buffer_pages=16,
                               num_frames=192).run()
        b = LocktestExperiment("refcount", buffer_pages=16,
                               num_frames=192).run()
        assert a == b

    def test_timings_recorded(self):
        r = LocktestExperiment("kiobuf", buffer_pages=16,
                               num_frames=192).run()
        assert r.register_ns > 0
        assert r.deregister_ns > 0

    def test_dma_stamp_constant_sane(self):
        assert 0 < len(DMA_STAMP) < 64
