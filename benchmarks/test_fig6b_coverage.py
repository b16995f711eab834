"""Figure 6b — coverage of CAP, VTAGE and DLVP.

Paper: DLVP 31.1%, VTAGE 29.6%, CAP 23.8% (DLVP's in-pipeline coverage
is below standalone PAP's 37% because the LSCD filters conflict-prone
loads).
"""

from conftest import emit

from repro.experiments.fig4_address_prediction import evaluate_pap
from repro.predictors.base import PredictorStats


def test_fig6b_coverage(benchmark, fig6_result, suite_runner):
    result = fig6_result

    def standalone_pap_coverage():
        total = PredictorStats()
        for _, trace in suite_runner.traces():
            total = total.merge(evaluate_pap(trace))
        return total.coverage

    pap_cov = benchmark.pedantic(standalone_pap_coverage, rounds=1, iterations=1)
    emit(result)
    dlvp_cov = result.average_coverage("dlvp")
    print(f"standalone PAP coverage: {pap_cov:.1%} vs in-pipeline DLVP "
          f"{dlvp_cov:.1%} (LSCD + PVT filtering; paper: 37% -> 31.1%)")

    # Shapes that reproduce: DLVP covers more loads than VTAGE, LSCD
    # filtering keeps DLVP's in-pipeline coverage at or below standalone
    # PAP's, and both headline predictors stay above 99% accuracy.
    # (Known small-scale deviation, see EXPERIMENTS.md: CAP-based DLVP
    # can out-cover PAP-based DLVP at short trace lengths because CAP's
    # per-load confidence trains once per static load while PAP trains
    # per (PC, path) context.)
    assert dlvp_cov > result.average_coverage("vtage")
    assert dlvp_cov <= pap_cov + 0.02
    assert result.average_accuracy("dlvp") > 0.99
    assert result.average_accuracy("vtage") > 0.99
