"""Address and value predictors.

This package holds the paper's primary contribution — the Path-based
Address Predictor (PAP, Section 3.1) — together with every comparison
point the evaluation uses:

* :class:`PapPredictor` — APT indexed by (load PC xor folded load-path
  history), 2-bit forward-probabilistic confidence, Policy-2 allocation,
  optional way-prediction field.
* :class:`CapPredictor` — the Correlated Address Predictor of Bekerman
  et al. (per-static-load address history + link table), the paper's
  address-prediction baseline.
* :class:`VtagePredictor` — Perais & Seznec's VTAGE value predictor,
  plus the static/dynamic opcode filters the paper adds for the ARM
  multi-destination-load problem (Section 5.2.2).
* :class:`LastValuePredictor` — the classical last-value predictor,
  whose stale values after a conflicting store motivate the paper.
* :class:`TournamentChooser` — the PC-indexed 2-bit chooser used to
  combine DLVP and VTAGE (Figure 8).
"""

from repro.predictors.confidence import ForwardProbabilisticCounter, SaturatingCounter
from repro.predictors.history import LoadPathHistory
from repro.predictors.base import AddressPrediction, PredictorStats
from repro.predictors.pap import PapConfig, PapPredictor, AptEntryLayout
from repro.predictors.cap import CapConfig, CapPredictor
from repro.predictors.vtage import (
    VtageConfig,
    VtagePredictor,
    OpcodeFilterMode,
    instruction_type,
)
from repro.predictors.dvtage import DvtageConfig, DvtagePredictor
from repro.predictors.lvp import LastValuePredictor
from repro.predictors.tournament import TournamentChooser

__all__ = [
    "ForwardProbabilisticCounter",
    "SaturatingCounter",
    "LoadPathHistory",
    "AddressPrediction",
    "PredictorStats",
    "PapConfig",
    "PapPredictor",
    "AptEntryLayout",
    "CapConfig",
    "CapPredictor",
    "VtageConfig",
    "VtagePredictor",
    "OpcodeFilterMode",
    "instruction_type",
    "DvtageConfig",
    "DvtagePredictor",
    "LastValuePredictor",
    "TournamentChooser",
]
