"""Integration tests for the pipeline-facing value-prediction schemes."""

import pytest

from repro.core import DlvpConfig
from repro.core.dlvp import DlvpStats
from repro.pipeline import (
    DlvpScheme,
    RecoveryMode,
    TournamentScheme,
    VtageScheme,
    simulate,
)
from repro.pipeline.schemes import TournamentStats
from repro.predictors import CapConfig
from repro.predictors.base import PredictorStats
from repro.workloads import build_workload, build_workload_columnar


@pytest.fixture(scope="module")
def trace():
    return build_workload("vortex", 6000)


class TestDlvpScheme:
    def test_result_stats_type(self, trace):
        r = simulate(trace, scheme=DlvpScheme())
        assert isinstance(r.scheme_stats, DlvpStats)

    def test_loads_accounted(self, trace):
        r = simulate(trace, scheme=DlvpScheme())
        assert r.scheme_stats.loads_seen == r.loads

    def test_value_counts_consistent(self, trace):
        r = simulate(trace, scheme=DlvpScheme())
        stats = r.scheme_stats
        assert stats.value_predictions == r.value_predictions
        assert stats.value_predictions <= stats.address_predictions

    def test_probe_counts_consistent(self, trace):
        r = simulate(trace, scheme=DlvpScheme())
        stats = r.scheme_stats
        assert stats.probes == stats.probe_hits + stats.probe_misses
        assert stats.value_predictions <= stats.probe_hits

    def test_cap_variant(self, trace):
        scheme = DlvpScheme(use_cap=True,
                            cap_config=CapConfig(confidence_threshold=24))
        r = simulate(trace, scheme=scheme)
        assert r.scheme_name == "cap"
        assert isinstance(r.scheme_stats, DlvpStats)

    def test_storage_bits_include_way_field(self, trace):
        scheme = DlvpScheme()
        simulate(trace, scheme=scheme)
        assert scheme.predictor_storage_bits() == 1024 * 69   # 67 + 2-bit way


class TestVtageScheme:
    def test_result_stats_type(self, trace):
        r = simulate(trace, scheme=VtageScheme())
        assert isinstance(r.scheme_stats, PredictorStats)

    def test_accuracy_high(self, trace):
        r = simulate(trace, scheme=VtageScheme())
        if r.value_predictions > 50:
            assert r.value_accuracy > 0.95


class TestTournamentScheme:
    def test_combined_stats_structure(self, trace):
        r = simulate(trace, scheme=TournamentScheme())
        assert isinstance(r.scheme_stats, dict)
        assert isinstance(r.scheme_stats["tournament"], TournamentStats)
        assert isinstance(r.scheme_stats["dlvp"], DlvpStats)
        assert isinstance(r.scheme_stats["vtage"], PredictorStats)

    def test_breakdown_sums_to_final(self, trace):
        r = simulate(trace, scheme=TournamentScheme())
        t = r.scheme_stats["tournament"]
        assert t.final_by_dlvp + t.final_by_vtage == t.final_predictions
        assert t.final_predictions <= t.loads

    def test_tournament_coverage_at_least_best_single(self, trace):
        dlvp = simulate(trace, scheme=DlvpScheme())
        tourney = simulate(trace, scheme=TournamentScheme())
        # Coverage overlap: combined should be >= DLVP alone - small slack.
        assert tourney.value_coverage >= dlvp.value_coverage - 0.05

    def test_storage_is_sum_of_parts(self, trace):
        scheme = TournamentScheme()
        simulate(trace, scheme=scheme)
        total = scheme.predictor_storage_bits()
        assert total > scheme.dlvp.predictor_storage_bits()
        assert total > scheme.vtage.predictor_storage_bits()


class TestPaqConservation:
    """Every PAQ entry is serviced or dropped in the fetch call that
    pushed it, so the queue is empty between loads, a flush never finds
    an entry, and ``enqueued == serviced + dropped``."""

    @pytest.mark.parametrize("recovery", list(RecoveryMode), ids=lambda r: r.value)
    @pytest.mark.parametrize("workload", ["storeflood", "perlbmk"])
    @pytest.mark.parametrize("drop_cycles", [None, 1])
    @pytest.mark.parametrize("scheme_id", ["dlvp", "cap", "tournament"])
    def test_queue_drains_in_the_pushing_fetch(
        self, scheme_id, drop_cycles, workload, recovery
    ):
        config = None if drop_cycles is None else DlvpConfig(
            paq_drop_cycles=drop_cycles
        )
        scheme = {
            "dlvp": lambda: DlvpScheme(config),
            "cap": lambda: DlvpScheme(config, use_cap=True),
            "tournament": lambda: TournamentScheme(dlvp_config=config),
        }[scheme_id]()
        result = simulate(_conservation_trace(workload), scheme=scheme,
                          recovery=recovery)
        paq = scheme_engine(scheme).paq
        assert len(paq) == 0
        assert paq.flushed == 0
        assert paq.enqueued > 0
        assert paq.enqueued == paq.serviced + paq.dropped
        if drop_cycles is None:
            assert paq.serviced > 0
        else:
            # The probe issues two cycles after fetch: past a one-cycle
            # drop window, every entry ages out.
            assert paq.dropped == paq.enqueued
        assert result.flushes.value + result.flushes.branch > 0


_CONSERVATION_TRACES: dict = {}


def _conservation_trace(workload):
    trace = _CONSERVATION_TRACES.get(workload)
    if trace is None:
        # Long enough for CAP (confidence 24, 48-load update lag) to
        # predict on both workloads.
        trace = _CONSERVATION_TRACES[workload] = build_workload_columnar(
            workload, 12_000
        )
    return trace


def scheme_engine(scheme):
    """The DLVP engine of a dlvp/cap scheme or of a tournament's DLVP side."""
    return getattr(scheme, "dlvp", scheme).engine
