"""Tests for the experiment runners (small suite subsets for speed)."""

import weakref

import pytest

from repro.experiments import SuiteRunner, arithmetic_mean, geometric_mean
from repro.experiments import (
    fig1_conflicts,
    fig2_repeatability,
    fig4_address_prediction,
    fig5_prefetch,
    fig6_value_prediction,
    fig7_vtage_flavors,
    fig8_tournament,
    fig9_selected,
    fig10_recovery,
    tables,
)
from repro.pipeline import DlvpScheme
from repro.runtime import Runtime

SMALL = ["perlbmk", "gzip", "nat", "vortex"]


@pytest.fixture(scope="module")
def runner():
    return SuiteRunner(n_instructions=3000, names=SMALL)


@pytest.fixture
def watch_builds(monkeypatch):
    """Weak references to every trace built (to its ``pc`` column: a
    trace holds its columns), each build first asserting that every
    trace built before it is dead."""
    from repro.runtime import jobs

    build = jobs.build_workload_columnar
    built = []

    def checked_build(name, n_instructions):
        held = [held_name for held_name, ref in built if ref() is not None]
        assert not held, f"building {name} while holding {held}"
        trace = build(name, n_instructions)
        built.append((name, weakref.ref(trace.pc)))
        return trace

    monkeypatch.setattr(jobs, "build_workload_columnar", checked_build)
    return built


class TestRunnerMachinery:
    def test_traces_drops_each_trace_before_the_next(self, watch_builds):
        """SuiteRunner.traces keeps no trace: each one is dead before
        the next is built."""
        runner = SuiteRunner(n_instructions=500, names=["gzip", "nat", "mcf"])
        names = []
        for name, trace in runner.traces():
            assert trace.name == name and trace.verdicts is not None
            names.append(name)
            del trace
        assert names == ["gzip", "nat", "mcf"]
        assert len(watch_builds) == 3

    def test_traces_come_from_the_trace_cache(self, tmp_path, watch_builds):
        runtime = Runtime(jobs=1, cache_dir=tmp_path)
        runner = SuiteRunner(n_instructions=500, names=["gzip"], runtime=runtime)
        (_, built), = runner.traces()
        (_, cached), = runner.traces()
        assert len(watch_builds) == 1
        assert cached == built and cached.verdicts == built.verdicts
        assert len(list((tmp_path / "traces").glob("*.trace"))) == 1

    def test_baselines_cached(self, runner):
        assert runner.baselines() is runner.baselines()

    def test_speedups_keys(self, runner):
        runs = runner.run_scheme(DlvpScheme)
        sp = runner.speedups(runs)
        assert set(sp) == set(SMALL)

    def test_means(self):
        assert arithmetic_mean([1.0, 3.0]) == 2.0
        assert geometric_mean([0.0, 0.0]) == pytest.approx(0.0)
        assert geometric_mean([]) == 0.0
        assert arithmetic_mean([]) == 0.0

    def test_geometric_mean_skips_nonpositive_factors(self):
        # a speedup of -100% (or worse) has a factor <= 0, for which the
        # geometric mean is undefined; it must warn and skip, not raise
        with pytest.warns(RuntimeWarning, match="non-positive"):
            assert geometric_mean([-1.0]) == 0.0
        with pytest.warns(RuntimeWarning, match="non-positive"):
            assert geometric_mean([-1.5]) == 0.0
        with pytest.warns(RuntimeWarning, match="non-positive"):
            assert geometric_mean([-2.0, 0.1]) == pytest.approx(0.1)

    def test_geometric_mean_no_warning_for_valid_factors(self):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert geometric_mean([0.1, -0.5]) == pytest.approx(
                ((1.1 * 0.5) ** 0.5) - 1.0
            )

    def test_scheme_id_matches_legacy_factory(self, runner):
        """The runtime job path and the in-process factory path agree."""
        by_id = runner.run_scheme("dlvp")
        by_factory = runner.run_scheme(DlvpScheme)
        assert by_id == by_factory


@pytest.mark.parametrize("read_traces", [
    fig1_conflicts.run,
    fig2_repeatability.run,
    lambda r: fig4_address_prediction.run(r, cap_confidences=(8,)),
    lambda r: r.run_scheme(DlvpScheme),
], ids=["fig1", "fig2", "fig4", "factory-scheme"])
def test_trace_readers_hold_one_workload_at_a_time(watch_builds, read_traces):
    read_traces(SuiteRunner(n_instructions=500, names=["gzip", "nat", "mcf"]))
    assert len(watch_builds) == 3


class TestFig1(object):
    def test_runs_and_renders(self, runner):
        res = fig1_conflicts.run(runner)
        assert set(res.profiles) == set(SMALL)
        assert 0.0 <= res.average_conflict_fraction <= 1.0
        assert 0.0 <= res.average_committed_share <= 1.0
        assert "Figure 1" in res.render()

    def test_perlbmk_conflicts_committed(self, runner):
        res = fig1_conflicts.run(runner)
        p = res.profiles["perlbmk"]
        assert p.fraction_committed > 0.1


class TestFig2:
    def test_series_monotone(self, runner):
        res = fig2_repeatability.run(runner)
        series = list(res.series("address").values())
        assert all(a >= b for a, b in zip(series, series[1:]))
        assert "Figure 2" in res.render()

    def test_fractions_bounded(self, runner):
        res = fig2_repeatability.run(runner)
        assert 0.0 <= res.address_ge8 <= 1.0
        assert 0.0 <= res.value_ge64 <= 1.0


class TestFig4:
    def test_pap_accuracy_high(self, runner):
        res = fig4_address_prediction.run(runner, cap_confidences=(8,))
        assert res.pap.accuracy > 0.97
        assert 0.0 < res.pap.coverage < 1.0
        assert "Figure 4" in res.render()

    def test_cap_coverage_drops_with_confidence(self):
        r = SuiteRunner(n_instructions=4000, names=["gzip", "vortex", "nat"])
        res = fig4_address_prediction.run(r, cap_confidences=(3, 64))
        assert res.cap_by_confidence[64].coverage <= \
            res.cap_by_confidence[3].coverage + 0.01


class TestFig5:
    def test_runs(self, runner):
        res = fig5_prefetch.run(runner)
        assert set(res.prefetch_fraction) == set(SMALL)
        assert all(0.0 <= f <= 1.0 for f in res.prefetch_fraction.values())
        assert "Figure 5" in res.render()


class TestFig6:
    def test_runs_and_aggregates(self, runner):
        res = fig6_value_prediction.run(runner)
        for scheme in ("cap", "vtage", "dlvp"):
            assert 0.0 <= res.average_coverage(scheme) <= 1.0
            assert 0.0 <= res.average_accuracy(scheme) <= 1.0
            assert res.average_energy(scheme) > 0.5
        name, best = res.max_speedup("dlvp")
        assert name in SMALL
        assert "Figure 6" in res.render()

    def test_dlvp_beats_vtage_here(self, runner):
        res = fig6_value_prediction.run(runner)
        assert res.average_speedup("dlvp") > res.average_speedup("vtage")


class TestFig7:
    def test_all_six_configs(self, runner):
        res = fig7_vtage_flavors.run(runner)
        assert len(res.results) == 6
        assert "Figure 7" in res.render()


class TestFig8:
    def test_breakdown_fractions(self, runner):
        res = fig8_tournament.run(runner)
        d, v = res.prediction_breakdown()
        assert 0.0 <= d <= 1.0 and 0.0 <= v <= 1.0
        assert "Figure 8" in res.render()


class TestFig9:
    def test_selected_set(self):
        runner = SuiteRunner(n_instructions=2000)
        res = fig9_selected.run(runner)
        assert set(res.dlvp) == set(fig9_selected.SELECTED)
        assert "Figure 9" in res.render()


class TestFig10:
    def test_replay_never_worse(self, runner):
        res = fig10_recovery.run(runner)
        for scheme in ("cap", "vtage", "dlvp"):
            assert res.delta(scheme) >= -0.01
        assert "Figure 10" in res.render()


class TestTables:
    def test_table1_budgets(self):
        res = tables.table1()
        assert res.armv7_bits == 50
        assert res.armv8_bits == 67
        assert "Table 1" in res.render()

    def test_table2(self):
        assert "Table 2" in tables.table2().render()

    def test_table3_counts(self):
        res = tables.table3()
        assert res.total == 78
        assert "Table 3" in res.render()

    def test_table4_budgets(self):
        res = tables.table4()
        assert res.pap_bits == 1024 * 67
        assert res.pap_bits_v7 == 1024 * 50
        assert 60_000 < res.vtage_bits < 65_000
        assert "Table 4" in res.render()
