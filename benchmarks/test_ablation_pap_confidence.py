"""Ablation — PAP confidence threshold sweep.

The paper's design-space exploration (Section 5.1) picked an expected
threshold of ~8 observations (a 2-bit FPC with vector {1, 1/2, 1/4}).
Sweeping the FPC vector trades coverage against accuracy.
"""

from conftest import subset_runner  # noqa: F401

from repro.experiments.fig4_address_prediction import evaluate_pap
from repro.experiments.runner import format_table
from repro.predictors import PapConfig
from repro.predictors.base import PredictorStats

VECTORS = {
    2: (1.0, 1.0),
    4: (1.0, 0.5, 0.5),
    8: (1.0, 0.5, 0.25),
    16: (1.0, 0.5, 0.25, 0.125),
    32: (1.0, 0.5, 0.25, 0.125, 0.0625),
}


def test_ablation_pap_confidence(benchmark, subset_runner):
    def sweep():
        out = {threshold: PredictorStats() for threshold in VECTORS}
        for _, trace in subset_runner.traces():
            instructions = list(trace)
            for threshold, vector in VECTORS.items():
                out[threshold] = out[threshold].merge(
                    evaluate_pap(instructions, PapConfig(fpc_vector=vector))
                )
        return out

    result = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print("Ablation — PAP confidence threshold (expected observations)")
    rows = [
        [f"~{t}", f"{s.coverage:6.1%}", f"{s.accuracy:7.2%}"]
        for t, s in result.items()
    ]
    print(format_table(["threshold", "coverage", "accuracy"], rows))

    # Coverage falls and accuracy rises as the threshold climbs.
    assert result[2].coverage >= result[32].coverage
    assert result[32].accuracy >= result[2].accuracy - 0.001
    # The paper's chosen point already clears 99% accuracy.
    assert result[8].accuracy > 0.99
