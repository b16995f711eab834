"""Branch-prediction substrate.

The baseline core (Table 4) uses a 32KB TAGE conditional-branch
predictor, a 32KB ITTAGE indirect predictor and a 16-entry return
address stack.  Branch mispredictions set the flush-cost context in
which value prediction operates, and VTAGE borrows TAGE's global
branch history as its value-prediction context.  Because that front
end depends on the trace alone, its mispredictions are resolved once
per trace (:func:`resolve_verdicts`) rather than in every simulation.
"""

from repro.branch.history import GlobalHistory, fold_history
from repro.branch.tage import Tage, TageConfig
from repro.branch.ittage import Ittage, IttageConfig
from repro.branch.ras import ReturnAddressStack
from repro.branch.unit import BranchUnit, BranchUnitStats
from repro.branch.verdicts import resolve_verdicts

__all__ = [
    "GlobalHistory",
    "fold_history",
    "Tage",
    "TageConfig",
    "Ittage",
    "IttageConfig",
    "ReturnAddressStack",
    "BranchUnit",
    "BranchUnitStats",
    "resolve_verdicts",
]
