"""DLVP — Decoupled Load Value Prediction (Section 3.2.2).

The paper's microarchitecture: PAP predicts load addresses in the first
fetch stage; predicted addresses travel to the out-of-order engine
through the Predicted Address Queue (PAQ); on load-store lane bubbles
the L1 data cache is speculatively probed; a hit delivers the value(s)
to the Value Prediction Engine (VPE) by rename, a miss can launch a
prefetch.  The Load-Store Conflict Detector (LSCD) keeps loads that
race in-flight stores out of the scheme, and way prediction keeps the
probe's energy to one cache way.
"""

from repro.core.config import DlvpConfig
from repro.core.paq import PredictedAddressQueue, PaqEntry
from repro.core.lscd import LoadStoreConflictDetector
from repro.core.vpe import PredictedValuesTable, ValuePredictionEngine
from repro.core.dlvp import DlvpEngine, DlvpStats

__all__ = [
    "DlvpConfig",
    "PredictedAddressQueue",
    "PaqEntry",
    "LoadStoreConflictDetector",
    "PredictedValuesTable",
    "ValuePredictionEngine",
    "DlvpEngine",
    "DlvpStats",
]
