"""Trace container and summary statistics."""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from repro.isa import Instruction, OpClass


@dataclass(frozen=True)
class TraceSummary:
    """Aggregate counts over a trace."""

    name: str
    instructions: int
    loads: int
    stores: int
    branches: int
    multi_dest_loads: int
    vector_loads: int
    static_loads: int
    atomics: int = 0

    @property
    def load_fraction(self) -> float:
        return self.loads / self.instructions if self.instructions else 0.0


class Trace:
    """An ordered sequence of dynamic instructions.

    Traces are produced by the workload generators
    (:mod:`repro.workloads`) and consumed by the timing model, the
    predictors' standalone drivers, and the trace profilers.
    """

    def __init__(self, name: str, instructions: Iterable[Instruction]) -> None:
        self.name = name
        self.instructions: list[Instruction] = list(instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    def summary(self) -> TraceSummary:
        loads = stores = branches = multi = vec = atomics = 0
        static_load_pcs: set[int] = set()
        for inst in self.instructions:
            if inst.op == OpClass.LOAD:
                loads += 1
                static_load_pcs.add(inst.pc)
                if len(inst.dests) > 1:
                    multi += 1
                if inst.is_vector:
                    vec += 1
            elif inst.op == OpClass.STORE:
                stores += 1
            elif inst.op == OpClass.ATOMIC:
                # is_memory_op() counts atomics as memory traffic; the
                # summary must too, or ATOMIC-bearing traces under-report
                # their memory-op totals.
                atomics += 1
            elif inst.is_branch:
                branches += 1
        return TraceSummary(
            name=self.name,
            instructions=len(self.instructions),
            loads=loads,
            stores=stores,
            branches=branches,
            multi_dest_loads=multi,
            vector_loads=vec,
            static_loads=len(static_load_pcs),
            atomics=atomics,
        )
