"""repro.observe — traced runs, recorded on the production loop.

A traced run is an ordinary ``simulate()`` with a :class:`RunRecord`
passed as ``record`` (see :mod:`repro.observe.record` for what the
loop hands it).  Nothing per instruction changes, so the traced result
is the untraced one plus interval rows, and what is observed is the
code every run executes.  Everything else is a function of the record:

* :func:`interval_rows` — per-10k-instruction coverage/accuracy/IPC/
  probe/recovery rows, attached as ``SimResult.intervals``;
* :func:`chrome_events` — ``chrome://tracing``-loadable JSON: commit
  and recovery instants plus per-interval counter tracks;
* :func:`flight_tail` — the last N commits and recoveries before a run
  died, dumped on failure;
* :class:`FaultTripwire` — deterministic mid-run ``raise`` faults
  bridging :mod:`repro.faults` into traced simulations;
* :func:`run_traced` — one recorded ``simulate`` with its artifacts;
* :class:`EventStream` / :class:`Subscription` — bounded live pub/sub
  over journal-style events, the multiplexer behind :mod:`repro.serve`
  progress streaming (see :mod:`repro.observe.stream`).
"""

from repro.observe.chrome import chrome_events, write_chrome_trace
from repro.observe.flight import DEFAULT_CAPACITY, FaultTripwire, flight_tail
from repro.observe.interval import DEFAULT_INTERVAL, interval_rows, render_report
from repro.observe.record import RunRecord
from repro.observe.run import TracedRun, run_traced
from repro.observe.stream import EventStream, Subscription

__all__ = [
    "DEFAULT_CAPACITY",
    "DEFAULT_INTERVAL",
    "EventStream",
    "FaultTripwire",
    "RunRecord",
    "Subscription",
    "TracedRun",
    "chrome_events",
    "flight_tail",
    "interval_rows",
    "render_report",
    "run_traced",
    "write_chrome_trace",
]
