"""run_traced — one simulation, recorded.

Runs ``simulate`` with a :class:`RunRecord`, writes the Chrome trace
of a finished run, and on failure persists the flight-recorder tail —
to a dump file beside the requested trace output and, when a journal
is given, as a ``flight_recorder_dump`` journal event — before
re-raising.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.observe.chrome import chrome_events, write_chrome_trace
from repro.observe.flight import DEFAULT_CAPACITY, FaultTripwire, flight_tail
from repro.observe.interval import DEFAULT_INTERVAL
from repro.observe.record import RunRecord
from repro.pipeline.core_model import simulate


class TracedRun:
    """The record of one traced simulation plus its outcome."""

    def __init__(
        self,
        interval: int = DEFAULT_INTERVAL,
        flight_capacity: int = DEFAULT_CAPACITY,
        tripwire: FaultTripwire | None = None,
    ) -> None:
        if flight_capacity <= 0:
            raise ValueError("flight_capacity must be positive")
        self.record = RunRecord(interval=interval, tripwire=tripwire)
        self.flight_capacity = flight_capacity
        self.result = None


def run_traced(
    trace,
    scheme=None,
    *,
    recovery=None,
    interval: int = DEFAULT_INTERVAL,
    flight_capacity: int = DEFAULT_CAPACITY,
    tripwire: FaultTripwire | None = None,
    out: str | Path | None = None,
    journal=None,
) -> TracedRun:
    """Simulate ``trace`` with a record attached.

    Returns the :class:`TracedRun` whose ``result`` carries interval
    rows; with ``out`` the Chrome trace is written there.  When the run
    dies (any exception, including an injected
    :class:`repro.faults.FaultInjected` from ``tripwire``), the flight
    recorder tail is written to ``<out>.flight.json`` (when ``out`` is
    given) and journaled as a ``flight_recorder_dump`` event (when
    ``journal`` is given); the exception then propagates.
    """
    run = TracedRun(
        interval=interval, flight_capacity=flight_capacity, tripwire=tripwire
    )
    kwargs = {"scheme": scheme, "record": run.record}
    if recovery is not None:
        kwargs["recovery"] = recovery
    try:
        run.result = simulate(trace, **kwargs)
    except BaseException as exc:
        seen, tail = flight_tail(run.record, run.flight_capacity)
        dump_path = None
        if out is not None:
            dump_path = Path(out).with_suffix(".flight.json")
            with open(dump_path, "w", encoding="utf-8") as fh:
                json.dump({"events_seen": seen,
                           "capacity": run.flight_capacity, "tail": tail},
                          fh, indent=2, default=str)
        if journal is not None:
            journal.event(
                "flight_recorder_dump",
                trace=trace.name,
                scheme=scheme.name if scheme is not None else "baseline",
                error=f"{type(exc).__name__}: {exc}",
                events_seen=seen,
                dump_path=str(dump_path) if dump_path is not None else None,
                tail=tail[-32:],
            )
        raise
    if out is not None:
        write_chrome_trace(chrome_events(run.record), out)
    return run
