"""Chrome trace export — load a simulation in ``chrome://tracing``.

Emits the Trace Event Format's JSON object form
(``{"traceEvents": [...]}``) from a finished
:class:`repro.observe.RunRecord`.  Cycle numbers map directly onto the
microsecond timestamp axis (1 cycle = 1 us on screen):

* thread-name metadata (phase ``"M"``);
* ``run_start`` and ``run_end`` instants (phase ``"i"``) on the core
  lane;
* ``commit`` instants, sampled (default 1 in 64) from the record's
  commit cycles — one per committed instruction would drown every
  other track and bloat the file ~20x;
* ``recovery`` instants, one per flush, on their own lane;
* per-interval counter tracks (phase ``"C"``): ipc, coverage, accuracy
  and probes, each sample placed at its interval's first cycle.
"""

from __future__ import annotations

import json

# Trace-viewer "thread ids": one lane per event family.
_TID_CORE = 0
_TID_RECOVERY = 1
_THREAD_NAMES = {_TID_CORE: "core", _TID_RECOVERY: "recovery"}
_COUNTERS = ("ipc", "coverage", "accuracy", "probes")


def _instant(name: str, tid: int, ts: int, **args) -> dict:
    return {"ph": "i", "name": name, "pid": 1, "tid": tid, "ts": ts,
            "s": "t", "args": args}


def chrome_events(record, commit_sample: int = 64) -> list[dict]:
    """The trace events of the finished run ``record`` holds."""
    if commit_sample <= 0:
        raise ValueError("commit_sample must be positive")
    result = record.result
    events = [
        {"ph": "M", "name": "thread_name", "pid": 1, "tid": tid,
         "args": {"name": name}}
        for tid, name in _THREAD_NAMES.items()
    ]
    events.append(_instant(
        "run_start", _TID_CORE, 0, trace=record.trace_name,
        scheme=record.scheme_name, instructions=record.instructions,
    ))
    cycles = record.commit_cycles
    for index in range(0, record.instructions, commit_sample):
        events.append(_instant("commit", _TID_CORE, cycles[index], index=index))
    for index, cycle, kind, pc in record.flushes:
        events.append(_instant(
            "recovery", _TID_RECOVERY, cycle, index=index, reason=kind, pc=pc,
        ))
    start_cycle = 0
    for row in result.intervals:
        for name in _COUNTERS:
            events.append({"ph": "C", "name": name, "pid": 1,
                           "tid": _TID_CORE, "ts": start_cycle,
                           "args": {name: row[name]}})
        start_cycle += row["cycles"]
    events.append(_instant(
        "run_end", _TID_CORE, result.cycles, cycles=result.cycles,
        instructions=result.instructions,
    ))
    return events


def write_chrome_trace(events: list[dict], path) -> None:
    """Write ``events`` as a ``chrome://tracing``-loadable JSON file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
