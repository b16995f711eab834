"""repro — a from-scratch reproduction of *Load Value Prediction via
Path-based Address Prediction* (Sheikh, Cain, Damodaran; MICRO 2017).

Quickstart::

    from repro import build_workload, simulate, DlvpScheme

    trace = build_workload("perlbmk", n_instructions=20_000)
    baseline = simulate(trace)
    dlvp = simulate(trace, scheme=DlvpScheme())
    print(f"DLVP speedup: {dlvp.speedup_over(baseline):+.1%}")

Layout:

* :mod:`repro.predictors` — PAP (the paper's contribution), CAP, VTAGE,
  LVP, stride, tournament chooser.
* :mod:`repro.core` — the DLVP engine (PAQ, LSCD, PVT/VPE, probing).
* :mod:`repro.pipeline` — the Table 4 out-of-order core timing model.
* :mod:`repro.workloads` — the 78-workload synthetic suite.
* :mod:`repro.memory`, :mod:`repro.branch`, :mod:`repro.mdp` — substrates.
* :mod:`repro.energy` — Table 2 / Figure 6c/6d area-energy models.
* :mod:`repro.experiments` — one runner per paper table/figure.
"""

from repro.isa import Instruction, OpClass
from repro.trace import Trace, load_store_conflicts, repeatability
from repro.workloads import build_workload, workload_names, SUITE
from repro.predictors import (
    PapConfig,
    PapPredictor,
    CapConfig,
    CapPredictor,
    VtageConfig,
    VtagePredictor,
    OpcodeFilterMode,
)
from repro.core import DlvpConfig, DlvpEngine
from repro.pipeline import (
    CoreConfig,
    RecoveryMode,
    SimResult,
    DlvpScheme,
    DvtageScheme,
    VtageScheme,
    TournamentScheme,
    simulate,
)
from repro.energy import pvt_design_table, predictor_cost_table, normalized_core_energy

__version__ = "1.0.0"

__all__ = [
    "Instruction",
    "OpClass",
    "Trace",
    "load_store_conflicts",
    "repeatability",
    "build_workload",
    "workload_names",
    "SUITE",
    "PapConfig",
    "PapPredictor",
    "CapConfig",
    "CapPredictor",
    "VtageConfig",
    "VtagePredictor",
    "OpcodeFilterMode",
    "DlvpConfig",
    "DlvpEngine",
    "CoreConfig",
    "RecoveryMode",
    "SimResult",
    "DlvpScheme",
    "DvtageScheme",
    "VtageScheme",
    "TournamentScheme",
    "simulate",
    "pvt_design_table",
    "predictor_cost_table",
    "normalized_core_energy",
    "__version__",
]
