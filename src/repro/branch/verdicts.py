"""Branch verdicts: the front end's mispredictions, resolved once per trace.

The baseline front end (the TAGE, ITTAGE and RAS of Table 4) trains on
*resolved* control instructions, in program order, and is never
rewound: a pipeline flush (branch or value misprediction) redirects
fetch but leaves every predictor table and history register as it
was, and the value-prediction schemes only ever *read* the raw global
branch history.  ``simulate()`` always builds the front end with its
defaults.  Whether a control instruction mispredicts is therefore a
function of the trace alone, not of the scheme or the timing.

:func:`resolve_verdicts` runs that front end once over a trace's
control rows and records, per row, whether it mispredicts — the row's
*verdict*.  The columnar ``simulate()`` loop reads the verdicts instead
of running a branch predictor in every cell; this function is the only
place the columnar path predicts branches.  The object loop still
resolves branches live, and the golden suite pins both to the same
outcomes.
"""

from __future__ import annotations

from array import array
from itertools import compress

from repro.branch.unit import BranchUnit
from repro.isa import OpClass, is_branch_op
from repro.trace.columnar import F_TAKEN, F_TAKEN_KNOWN, F_TARGET, OPCLASS_BY_VALUE

_BRANCH = int(OpClass.BRANCH)

# bytes.translate table: opcode byte -> 1 for control instructions.
_IS_CONTROL = bytes(
    1 if v < len(OPCLASS_BY_VALUE) and is_branch_op(OPCLASS_BY_VALUE[v]) else 0
    for v in range(256)
)


def resolve_verdicts(trace) -> array:
    """Per-row branch verdicts of a :class:`~repro.trace.ColumnarTrace`.

    Returns an ``array("B")`` with one entry per row: 1 where the
    default :class:`BranchUnit` mispredicts that control instruction
    (direction or target), 0 elsewhere.  Conditional branches go
    through the fused TAGE closure — with the numpy key batch when
    :mod:`repro.pipeline.batch` can build one, else with the live
    folded histories — and jumps, calls, returns and indirects through
    :meth:`BranchUnit.resolve_fields`, exactly as the columnar loop
    resolved them inline before verdicts existed.
    """
    # Imported here: repro.pipeline imports this package.
    from repro.pipeline import batch as key_batch

    n = len(trace)
    verdicts = array("B", bytes(n))
    unit = BranchUnit()
    tage_batch = key_batch.tage_key_batch(trace, unit.tage)
    if tage_batch is not None:
        unit.tage.bind_key_batch(tage_batch)
    resolve_conditional = unit.make_resolve_conditional()
    resolve_fields = unit.resolve_fields
    ops = trace.op
    pcs = trace.pc
    flags = trace.flags
    targets = trace.target
    for i in compress(range(n), bytes(ops).translate(_IS_CONTROL)):
        fl = flags[i]
        taken = bool(fl & F_TAKEN) if fl & F_TAKEN_KNOWN else None
        op = ops[i]
        if op == _BRANCH:
            mispredicted = resolve_conditional(pcs[i], taken)
        else:
            target = targets[i] if fl & F_TARGET else None
            mispredicted = resolve_fields(op, pcs[i], taken, target)
        if mispredicted:
            verdicts[i] = 1
    return verdicts
