"""Bytecode census: interpreter work per simulated instruction, by pass.

Counts the bytecodes the interpreter executes (``sys.settrace`` opcode
events) in each pass a run takes over a trace: the trace build, the
branch-verdict pass, and ``simulate`` under each of the six schemes,
on fixed cells of ``N`` instructions.  Prints one table per workload:
every pass's bytecodes per instruction, then the functions that
executed at least ``MIN_SHARE`` of that pass's bytecodes.

    PYTHONPATH=src python benchmarks/bytecodes.py

The count repeats exactly run to run on one Python minor version (the
compiler's output differs between versions), so it compares two
versions of the per-row code without timing noise.  It is a count, not
a speed: a bytecode that calls into C can cost far more than one that
does not, so fewer bytecodes need not mean less time.  Takes about 40 s
on a 2-core host.
"""

from __future__ import annotations

import sys
from collections import Counter

WORKLOADS = ("gzip", "perlbmk")
N = 20_000
SCHEMES = ("baseline", "dlvp", "cap", "vtage", "dvtage", "tournament")
MIN_SHARE = 0.02


def count_bytecodes(run) -> tuple[Counter, object]:
    """Bytecodes ``run()`` executes, per code object, and its result."""
    cells: dict = {}            # code object -> [count]
    tracers: dict = {}          # code object -> its opcode tracer

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        code = frame.f_code
        tracer = tracers.get(code)
        if tracer is None:
            # One tracer per code object, counting into its own cell:
            # hashing the code object per opcode would dominate the run.
            cell = cells[code] = [0]

            def tracer(frame, event, arg):
                if event == "opcode":
                    cell[0] += 1
                return tracer

            tracers[code] = tracer
        return tracer

    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(None)
    return Counter({code: cell[0] for code, cell in cells.items()}), result


def _where(code) -> str:
    module = code.co_filename.replace("\\", "/").rsplit("/repro/", 1)[-1]
    name = getattr(code, "co_qualname", code.co_name)
    return f"{module}:{name}"


def census(workload: str, n: int) -> list[tuple[str, float, list[tuple[str, float]]]]:
    """``(pass, bytecodes per instruction, [(function, per instruction)])`` rows."""
    from repro.branch import resolve_verdicts
    from repro.pipeline.core_model import simulate
    from repro.runtime.registry import get_scheme
    from repro.workloads.suite import SUITE

    rows = []

    def add(name: str, counts: Counter) -> None:
        total = sum(counts.values())
        per_function: Counter = Counter()
        for code, count in counts.items():
            per_function[_where(code)] += count
        top = [(where, count / n) for where, count in per_function.most_common()
               if count >= MIN_SHARE * total]
        rows.append((name, total / n, top))

    counts, trace = count_bytecodes(lambda: SUITE[workload].build_columnar(n))
    add("build", counts)
    counts, verdicts = count_bytecodes(lambda: resolve_verdicts(trace))
    add("verdicts", counts)
    trace.verdicts = verdicts
    for scheme_id in SCHEMES:
        scheme = None if scheme_id == "baseline" else get_scheme(scheme_id).build()
        counts, _ = count_bytecodes(lambda: simulate(trace, scheme))
        add(f"simulate {scheme_id}", counts)
    return rows


def main() -> int:
    print(f"Python {sys.version_info.major}.{sys.version_info.minor}: "
          f"bytecodes executed per instruction, {N:,}-instruction cells")
    for workload in WORKLOADS:
        print(f"\n{workload} x {N:,}")
        for name, per_inst, top in census(workload, N):
            print(f"  {name:<22} {per_inst:9.1f}")
            for where, share in top:
                print(f"      {share:9.1f}  {where}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
