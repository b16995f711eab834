"""Front-end branch unit combining TAGE, ITTAGE and the RAS.

:meth:`BranchUnit.resolve` predicts one control instruction, trains the
predictors, and reports whether the front-end would have fetched down
the wrong path (a flush-and-refill event).  The object timing loop
calls it per control instruction; the columnar path resolves a whole
trace once, through the scalar :meth:`BranchUnit.resolve_fields` and
the fused conditional and call closures (see
:mod:`repro.branch.verdicts`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa import Instruction, OpClass, INSTRUCTION_BYTES
from repro.branch.tage import Tage, TageConfig
from repro.branch.ittage import Ittage, IttageConfig
from repro.branch.ras import ReturnAddressStack

_BRANCH = int(OpClass.BRANCH)
_JUMP = int(OpClass.JUMP)
_CALL = int(OpClass.CALL)
_RETURN = int(OpClass.RETURN)
_INDIRECT = int(OpClass.INDIRECT)


@dataclass
class BranchUnitStats:
    conditional: int = 0
    conditional_mispredicted: int = 0
    indirect: int = 0
    indirect_mispredicted: int = 0
    returns: int = 0
    returns_mispredicted: int = 0
    calls: int = 0
    jumps: int = 0

    @property
    def branches(self) -> int:
        return self.conditional + self.indirect + self.returns + self.calls + self.jumps

    @property
    def mispredictions(self) -> int:
        return (
            self.conditional_mispredicted
            + self.indirect_mispredicted
            + self.returns_mispredicted
        )


class BranchUnit:
    """Complete baseline branch-prediction front-end."""

    def __init__(
        self,
        tage_config: TageConfig | None = None,
        ittage_config: IttageConfig | None = None,
        ras_depth: int = 16,
    ) -> None:
        self.tage = Tage(tage_config)
        self.ittage = Ittage(ittage_config)
        self.ras = ReturnAddressStack(ras_depth)
        self.stats = BranchUnitStats()
        # The TAGE global branch history (VTAGE's context source).  A
        # plain attribute, not a property: the value-prediction schemes
        # alias this object at bind() and read .value once per load, so
        # the reference must be stable for the lifetime of the unit
        # (Tage never rebinds its history register).
        self.global_history = self.tage.history

    def resolve(self, inst: Instruction) -> bool:
        """Predict + train on one control instruction.

        Returns True if the branch was mispredicted (direction or
        target), i.e. the pipeline must flush and refetch.
        """
        if inst.op is OpClass.BRANCH:
            self.stats.conditional += 1
            assert inst.taken is not None
            mispredicted = self.tage.update(inst.pc, inst.taken)
            self.tage.update_history(inst.taken)
            if mispredicted:
                self.stats.conditional_mispredicted += 1
            return mispredicted

        if inst.op is OpClass.JUMP:
            self.stats.jumps += 1
            return False

        if inst.op is OpClass.CALL:
            self.stats.calls += 1
            self.ras.push(inst.pc + INSTRUCTION_BYTES)
            self.tage.update_history(True)
            return False

        if inst.op is OpClass.RETURN:
            self.stats.returns += 1
            predicted = self.ras.pop()
            mispredicted = predicted != inst.target
            if mispredicted:
                self.stats.returns_mispredicted += 1
            return mispredicted

        if inst.op is OpClass.INDIRECT:
            self.stats.indirect += 1
            assert inst.target is not None
            mispredicted = self.ittage.update(inst.pc, inst.target)
            self.ittage.update_history(inst.target)
            if mispredicted:
                self.stats.indirect_mispredicted += 1
            return mispredicted

        raise ValueError(f"not a control instruction: {inst.op!r}")

    def make_fused_resolvers(self):
        """The BRANCH and CALL arms of :meth:`resolve_fields`, fused, for
        the verdict pass.

        Returns ``(resolve_conditional, resolve_call)``:
        ``resolve_conditional(pc, taken) -> mispredicted`` is TAGE's
        packed-register closure (see :meth:`Tage.make_update_fused`);
        ``resolve_call(pc)`` pushes the call's return address and its
        history bit through that same closure.  Same predictor updates,
        same results as ``resolve_fields`` for those opcodes, but
        neither counts into :attr:`stats`: the verdict pass reads only
        the results.  The closure owns TAGE's global history once
        built, so every later conditional and call must go through
        these two.
        """
        update = self.tage.make_update_fused()
        ras_push = self.ras.push

        def resolve_call(pc: int) -> None:
            ras_push(pc + INSTRUCTION_BYTES)
            update(None, True)

        return update, resolve_call

    def resolve_fields(
        self, op: int, pc: int, taken: bool | None, target: int | None
    ) -> bool:
        """Scalar-field twin of :meth:`resolve` for the verdict pass.

        ``op`` is the plain integer opcode class — the verdict pass
        resolves branches straight from the trace columns without
        materializing an :class:`Instruction`.  Same predictor updates,
        same return value, pinned together by the golden-equivalence
        suite.
        """
        if op == _BRANCH:
            self.stats.conditional += 1
            assert taken is not None
            mispredicted = self.tage.update(pc, taken)
            self.tage.update_history(taken)
            if mispredicted:
                self.stats.conditional_mispredicted += 1
            return mispredicted

        if op == _JUMP:
            self.stats.jumps += 1
            return False

        if op == _CALL:
            self.stats.calls += 1
            self.ras.push(pc + INSTRUCTION_BYTES)
            self.tage.update_history(True)
            return False

        if op == _RETURN:
            self.stats.returns += 1
            predicted = self.ras.pop()
            mispredicted = predicted != target
            if mispredicted:
                self.stats.returns_mispredicted += 1
            return mispredicted

        if op == _INDIRECT:
            self.stats.indirect += 1
            assert target is not None
            mispredicted = self.ittage.update(pc, target)
            self.ittage.update_history(target)
            if mispredicted:
                self.stats.indirect_mispredicted += 1
            return mispredicted

        raise ValueError(f"not a control instruction: op={op}")
