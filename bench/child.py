"""Runtime grids in a fresh interpreter; results as JSON on stdout.

Started by ``run.py`` with a JSON spec as its only argument::

    {"grids": [[schemes, workloads], ...], "n": 40000, "jobs": 2,
     "recovery": "flush", "cache_dir": "...",
     "trace": false, "replay": null}

It uses only ``Runtime`` as users get it: default trace format, default
retries, a fresh cache directory.  With ``"trace": true`` the layer
wrappers of ``layers.py`` record spans around the run, and ``"replay"``
(a workload name) adds the component replays on that workload's trace.
The ``__main__`` guard matters: the runtime's forkserver pool imports
this script in its workers.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import sys
import time


def main() -> None:
    spec = json.loads(sys.argv[1])
    import repro
    from repro.pipeline import RecoveryMode
    from repro.runtime import Runtime

    tracer = None
    if spec["trace"]:
        import layers
        from spans import Tracer

        tracer = Tracer()
        layers.install(tracer)
    runtime = Runtime(jobs=spec["jobs"], cache_dir=spec["cache_dir"])
    cells = []
    wall = 0.0
    for schemes, workloads in spec["grids"]:
        started = time.time()
        t0 = time.perf_counter()
        grid = runtime.run_grid(schemes, workloads, spec["n"],
                                recovery=RecoveryMode(spec["recovery"]))
        elapsed = time.perf_counter() - t0
        wall += elapsed
        # a cell's latency: from submitting the grid to its journaled
        # settlement (cache hits settle without a job_finished event)
        settled = {e["key"]: e["ts"] - started for e in runtime.journal.events
                   if e["event"] == "job_finished"}
        for (scheme, workload), outcome in grid.cells.items():
            cells.append({
                "scheme": scheme,
                "workload": workload,
                "status": outcome.status,
                "error": outcome.error,
                "latency": settled.get(outcome.job.key, elapsed),
                "payload": outcome.result.to_dict() if outcome.ok else None,
            })
    if tracer is not None:
        tracer.restore()

    events = runtime.journal.events
    finished = [e for e in events if e["event"] == "job_finished"]
    out = {
        "repro_file": repro.__file__,
        "wall": wall,
        "cells": cells,
        "job_started": sum(e["event"] == "job_started" for e in events),
        "job_finished": len(finished),
        "busy_s": sum(e.get("duration", 0.0) for e in finished),
        "trace_built": sum(e["event"] == "trace_built" for e in events),
        "trace_sources": [e.get("trace_source") for e in finished],
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        out["spans"] = [dataclasses.astuple(s) for s in tracer.spans]
    if spec.get("replay"):
        import layers

        out["replays"] = layers.component_replays(spec["replay"], spec["n"])
    sys.stdout.write(json.dumps(out) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
