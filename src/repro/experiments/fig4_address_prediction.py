"""Figure 4 — standalone address-prediction coverage and accuracy:
PAP (confidence 8) versus CAP at confidences 3..64.

Paper headline: at equal confidence (8), PAP wins on both coverage
(37% vs 29.5%) and accuracy (99.1% vs 97.7%); CAP needs confidence 64
to match PAP's accuracy, at which point its coverage drops to 24%.

The standalone drivers replicate exactly the front-end conditions the
predictors would see in the pipeline — fetch-group slotting for PAP's
FGA-keyed APT, speculative load-path history updates — but train on
every load with no LSCD filtering, which is what "standalone address
predictor" means in Section 5.1 (that is why PAP's standalone coverage,
37%, exceeds DLVP's in-pipeline coverage, 31.1%).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.experiments.runner import SuiteRunner, format_table
from repro.isa import Instruction, OpClass, fetch_group_address
from repro.predictors import CapConfig, CapPredictor, PapConfig, PapPredictor
from repro.predictors.base import PredictorStats


def evaluate_pap(
    trace: Iterable[Instruction], config: PapConfig | None = None
) -> PredictorStats:
    """Drive a standalone PAP over one trace's instructions; returns
    coverage/accuracy."""
    pap = PapPredictor(config)
    prev_pc: int | None = None
    current_group = -1
    loads_in_group = 0
    for inst in trace:
        if inst.pc != (prev_pc + 4 if prev_pc is not None else None) or (
            fetch_group_address(inst.pc) != current_group
        ):
            current_group = fetch_group_address(inst.pc)
            loads_in_group = 0
        prev_pc = inst.pc
        if inst.op != OpClass.LOAD:
            continue
        assert inst.mem_addr is not None
        slot = loads_in_group
        loads_in_group += 1
        if slot >= 2:
            pap.stats.loads_seen += 1
            pap.history.push_load(inst.pc)
            continue
        key_pc = fetch_group_address(inst.pc) | (slot << 2)
        index, tag = pap.compute_key(key_pc)
        prediction = pap.predict(index, tag)
        pap.history.push_load(inst.pc)
        pap.record_outcome(prediction, inst.mem_addr)
        pap.train(index, tag, inst.mem_addr, inst.mem_size, None)
    return pap.stats


def evaluate_cap(
    trace: Iterable[Instruction], config: CapConfig | None = None
) -> PredictorStats:
    """Drive a standalone CAP over one trace's instructions."""
    cap = CapPredictor(config)
    for inst in trace:
        if inst.op != OpClass.LOAD:
            continue
        assert inst.mem_addr is not None
        prediction = cap.predict_pc(inst.pc)
        cap.record_outcome(prediction, inst.mem_addr)
        cap.train(inst.pc, inst.mem_addr)
    return cap.stats


@dataclass(frozen=True)
class Fig4Result:
    """Coverage/accuracy per predictor configuration, suite-aggregated."""

    pap: PredictorStats
    cap_by_confidence: dict[int, PredictorStats]

    def rows(self) -> list[tuple[str, float, float]]:
        rows = [("PAP (conf 8)", self.pap.coverage, self.pap.accuracy)]
        rows.extend(
            (f"CAP (conf {c})", s.coverage, s.accuracy)
            for c, s in sorted(self.cap_by_confidence.items())
        )
        return rows

    def render(self) -> str:
        rows = [
            [name, f"{cov:6.1%}", f"{acc:7.2%}"] for name, cov, acc in self.rows()
        ]
        table = format_table(["predictor", "coverage", "accuracy"], rows)
        return (
            "Figure 4 — standalone address prediction "
            "(paper: PAP 37%/99.1%, CAP@8 29.5%/97.7%, CAP@64 24%/99%)\n" + table
        )


def run(
    runner: SuiteRunner,
    cap_confidences: tuple[int, ...] = (3, 8, 16, 24, 32, 64),
) -> Fig4Result:
    """Drive standalone PAP and a CAP confidence sweep over the suite.

    Each workload's instructions are taken out of its trace once, as a
    list, for all the passes: iterating a columnar trace builds an
    ``Instruction`` view per row on every pass.  The list is dropped
    before the next workload's trace is fetched.
    """
    pap_total = PredictorStats()
    cap_totals = {c: PredictorStats() for c in cap_confidences}
    for _, trace in runner.traces():
        instructions = list(trace)
        del trace
        pap_total = pap_total.merge(evaluate_pap(instructions))
        for c in cap_confidences:
            cap_totals[c] = cap_totals[c].merge(
                evaluate_cap(instructions, CapConfig(confidence_threshold=c))
            )
        del instructions
    return Fig4Result(pap=pap_total, cap_by_confidence=cap_totals)
