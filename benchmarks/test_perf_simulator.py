"""Throughput microbenchmarks of the simulator itself.

Unlike the figure benches (one-shot row generators), these use real
pytest-benchmark statistics (multiple rounds) and act as performance
regression guards for the hot paths, one layer per test:

* ``test_perf_trace_generation`` — ``build_workload_columnar``: the
  column builder plus the trace's one verdict pass;
* ``test_perf_branch_verdicts`` — the verdict pass alone (the default
  TAGE, ITTAGE and RAS over the control rows), on a trace without
  verdicts, so a front-end slowdown shows here;
* ``test_perf_simulation`` — the columnar ``simulate()`` loop, once per
  registered scheme.  It reuses one trace whose verdicts were resolved
  when it was built, so it times the loop and the scheme only, as
  every run, sweep and farm cell pays them;
* ``test_perf_standalone_pap`` / ``test_perf_conflict_profiler`` — the
  standalone analyses.

The simulation cells run gzip, where every value predictor has warmed
up and predicts within the first 4,000 instructions, so the guards time
the prediction paths and not only the table lookups.
"""

import pytest

from repro.branch import resolve_verdicts
from repro.pipeline import simulate
from repro.runtime.registry import get_scheme
from repro.trace import ColumnarTrace
from repro.workloads import build_workload_columnar

N = 4000
SCHEMES = ("baseline", "dlvp", "cap", "vtage", "dvtage", "tournament")


@pytest.fixture(scope="module")
def trace():
    return build_workload_columnar("gzip", N)


@pytest.fixture(scope="module")
def object_trace():
    return build_workload_columnar("vortex", N).to_trace()


def test_perf_trace_generation(benchmark):
    trace = benchmark(build_workload_columnar, "vortex", N)
    assert len(trace) >= N * 0.9
    assert trace.verdicts is not None


def test_perf_branch_verdicts(benchmark, trace):
    bare = ColumnarTrace.from_trace(trace.to_trace())
    assert bare.verdicts is None
    verdicts = benchmark(resolve_verdicts, bare)
    assert verdicts == trace.verdicts and any(verdicts)


@pytest.mark.parametrize("scheme_id", SCHEMES)
def test_perf_simulation(benchmark, trace, scheme_id):
    spec = get_scheme(scheme_id)
    result = benchmark(lambda: simulate(trace, scheme=spec.build()))
    assert result.cycles > 0
    if scheme_id != "baseline":
        assert result.value_predictions > 0


def test_perf_standalone_pap(benchmark, object_trace):
    from repro.experiments.fig4_address_prediction import evaluate_pap
    stats = benchmark(evaluate_pap, object_trace)
    assert stats.loads_seen > 0


def test_perf_conflict_profiler(benchmark, object_trace):
    from repro.trace import load_store_conflicts
    profile = benchmark(load_store_conflicts, object_trace)
    assert profile.total_loads > 0
