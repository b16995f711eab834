"""Trace-driven out-of-order core timing model.

The model follows the paper's baseline (Table 4): a 4-wide in-order
front-end, an 8-wide out-of-order engine with 2 load-store and 6
generic execution lanes, a 224-entry ROB (and 72/56-entry LDQ/STQ),
13-cycle fetch-to-execute depth, TAGE/ITTAGE/RAS branch prediction, a
store-sets MDP and a three-level cache hierarchy with stride
prefetchers.

It is a dependency-driven scheduler over a sliding instruction window —
not RTL — chosen so that the first-order effects value prediction
trades in (load-use chains, flush costs, lane/width/window contention,
in-flight-store conflicts) are modelled while whole-suite sweeps remain
tractable in Python.
"""

from repro.pipeline.config import CoreConfig
from repro.pipeline.recovery import RecoveryMode
from repro.pipeline.stats import SimResult
from repro.pipeline.schemes import (
    Scheme,
    DlvpScheme,
    DvtageScheme,
    VtageScheme,
    TournamentScheme,
)
from repro.pipeline.core_model import simulate

__all__ = [
    "CoreConfig",
    "RecoveryMode",
    "SimResult",
    "Scheme",
    "DlvpScheme",
    "DvtageScheme",
    "VtageScheme",
    "TournamentScheme",
    "simulate",
]
