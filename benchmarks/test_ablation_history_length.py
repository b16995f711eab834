"""Ablation — load-path history length sweep (Table 4 uses 16 bits).

Short histories under-distinguish contexts (aliasing between paths);
long histories split contexts so finely that each trains too slowly —
the classic history-length trade-off.
"""

from conftest import subset_runner  # noqa: F401

from repro.experiments.fig4_address_prediction import evaluate_pap
from repro.experiments.runner import format_table
from repro.predictors import PapConfig
from repro.predictors.base import PredictorStats

LENGTHS = (2, 4, 8, 16, 32)


def test_ablation_history_length(benchmark, subset_runner):
    def sweep():
        out = {bits: PredictorStats() for bits in LENGTHS}
        for _, trace in subset_runner.traces():
            instructions = list(trace)
            for bits in LENGTHS:
                out[bits] = out[bits].merge(
                    evaluate_pap(instructions, PapConfig(history_bits=bits))
                )
        return out

    result = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print("Ablation — load-path history length")
    rows = [
        [str(b), f"{s.coverage:6.1%}", f"{s.accuracy:7.2%}"]
        for b, s in result.items()
    ]
    print(format_table(["history bits", "coverage", "accuracy"], rows))

    # Every point keeps PAP's hallmark high accuracy.
    for bits, stats in result.items():
        assert stats.accuracy > 0.97, bits
    # Very long histories must not beat the paper's 16-bit choice by a
    # wide margin at these trace lengths (context-splitting cost).
    assert result[32].coverage <= result[16].coverage + 0.05
