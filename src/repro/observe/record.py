"""RunRecord — what one traced ``simulate()`` run records.

A record rides along one run of the simulate loop, which treats it
through three calls and one list (``pipeline`` never imports this
package):

* ``start(trace_name, scheme_name, instructions, commit_cycles)`` before
  the first instruction.  The record keeps the loop's ``commit_cycles``
  list — positive and non-decreasing over the committed prefix, 0 after
  it — and returns the extra positions short of the run's end where the
  loop must end a snapshot window: every multiple of ``interval``, and
  the instruction after a tripwire's.
* ``snapshot(end, last_commit_cycle, loads, scheme)`` at every window
  end, passing counters the loop keeps anyway.  The record reads the
  scheme's value-prediction counters and, for DLVP, CAP and the
  tournament, the DLVP engine's probe and PAQ counters.
* ``flushes``: the loop appends ``(index, cycle, kind, pc)`` in its two
  flush branches (``kind`` is ``"branch"`` or ``"value"``).
* ``finish(result)`` after the run, which fills ``result.intervals``.

Interval rows (:mod:`repro.observe.interval`), the Chrome trace
(:mod:`repro.observe.chrome`) and the flight recorder's tail
(:mod:`repro.observe.flight`) are functions of the record.  Nothing in
the loop changes per instruction, so a recorded run simulates exactly
what an untraced one does.
"""

from __future__ import annotations

from repro.observe.interval import DEFAULT_INTERVAL, interval_rows

# One snapshot: (end, cycle, loads, value_predictions, value_correct,
# probes, probe_hits, paq_enqueued), cumulative from the run's start.
_ORIGIN = (0, 0, 0, 0, 0, 0, 0, 0)


def _dlvp_engine(scheme):
    """The DLVP engine whose probes a snapshot counts: dlvp's and cap's
    own, the tournament's DLVP side's, or None."""
    return getattr(getattr(scheme, "dlvp", scheme), "engine", None)


class RunRecord:
    """Snapshots, flushes and commit cycles of one ``simulate()`` run.

    Args:
        interval: Committed instructions per interval row.
        tripwire: An optional :class:`repro.observe.FaultTripwire`,
            checked at every snapshot.
    """

    def __init__(self, interval: int = DEFAULT_INTERVAL, tripwire=None) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self.tripwire = tripwire
        self.trace_name = ""
        self.scheme_name = "baseline"
        self.instructions = 0
        self.commit_cycles: list[int] = []
        self.snapshots: list[tuple] = [_ORIGIN]
        self.flushes: list[tuple] = []
        self.result = None

    def start(
        self,
        trace_name: str,
        scheme_name: str,
        instructions: int,
        commit_cycles: list[int],
    ) -> list[int]:
        """Reset for a run; returns the window ends the record needs."""
        self.trace_name = trace_name
        self.scheme_name = scheme_name
        self.instructions = instructions
        self.commit_cycles = commit_cycles
        self.snapshots = [_ORIGIN]
        self.flushes = []
        self.result = None
        ends = list(range(self.interval, instructions, self.interval))
        if self.tripwire is not None:
            end = self.tripwire.arm(instructions) + 1
            if end < instructions:
                ends.append(end)
        return ends

    def snapshot(self, end: int, cycle: int, loads: int, scheme) -> None:
        """Counters at the end of the window that ends at ``end``."""
        predictions = correct = probes = hits = enqueued = 0
        if scheme is not None:
            vpe = scheme.vpe.stats
            predictions = vpe.value_predictions
            correct = vpe.value_correct
            engine = _dlvp_engine(scheme)
            if engine is not None:
                probes = engine.stats.probes
                hits = engine.stats.probe_hits
                enqueued = engine.paq.enqueued
        self.snapshots.append(
            (end, cycle, loads, predictions, correct, probes, hits, enqueued)
        )
        if self.tripwire is not None:
            self.tripwire.check(end, self.commit_cycles)

    def finish(self, result) -> None:
        """The run finished: keep its result and attach interval rows."""
        self.result = result
        result.intervals = interval_rows(self)

    def committed(self) -> int:
        """Instructions committed: all of them for a finished run, else
        the failure point (the first 0 in ``commit_cycles``)."""
        if self.result is not None:
            return self.instructions
        cycles = self.commit_cycles
        index = self.snapshots[-1][0]
        while index < len(cycles) and cycles[index]:
            index += 1
        return index
