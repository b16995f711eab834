"""Interval metrics — per-N-instruction time series of a traced run.

The paper's aggregate coverage/accuracy tables hide warm-up dynamics:
the FPC confidence ramp means DLVP predicts almost nothing for the
first few thousand instructions of a phase, then coverage climbs as
counters saturate.  Binning metrics per 10k committed instructions
makes that ramp (and phase changes in ``mixed_phases`` workloads)
visible; the rows land in ``SimResult.intervals`` and survive the
result cache round-trip.  They are windowed differences of the
counters a :class:`repro.observe.RunRecord` snapshots at every
interval boundary.
"""

from __future__ import annotations

DEFAULT_INTERVAL = 10_000


def interval_rows(record) -> list[dict]:
    """One JSON-safe row per ``record.interval`` committed instructions
    (the last row may be shorter)::

        {"start": int, "end": int, "cycles": int, "ipc": float,
         "loads": int, "value_predictions": int, "value_correct": int,
         "coverage": float, "accuracy": float,
         "probes": int, "probe_hits": int,
         "paq_peak_occupancy": int, "paq_flushes": int,
         "recoveries_branch": int, "recoveries_value": int}

    ``paq_peak_occupancy`` is 1 when the row enqueued a predicted
    address and 0 otherwise: every PAQ entry is serviced or dropped in
    the fetch call that pushed it, so the queue never holds two.  For
    the same reason no flush ever finds an entry, and ``paq_flushes``
    is 0.
    """
    interval = record.interval
    by_end = {snap[0]: snap for snap in record.snapshots}
    bounds = [*range(interval, record.instructions, interval)]
    if record.instructions:
        bounds.append(record.instructions)
    rows = []
    prev = by_end[0]
    for end in bounds:
        snap = by_end[end]
        cycles = snap[1] - prev[1]
        loads = snap[2] - prev[2]
        predictions = snap[3] - prev[3]
        correct = snap[4] - prev[4]
        rows.append({
            "start": prev[0],
            "end": end,
            "cycles": cycles,
            "ipc": (end - prev[0]) / cycles if cycles else 0.0,
            "loads": loads,
            "value_predictions": predictions,
            "value_correct": correct,
            "coverage": predictions / loads if loads else 0.0,
            "accuracy": correct / predictions if predictions else 1.0,
            "probes": snap[5] - prev[5],
            "probe_hits": snap[6] - prev[6],
            "paq_peak_occupancy": 1 if snap[7] > prev[7] else 0,
            "paq_flushes": 0,
            "recoveries_branch": 0,
            "recoveries_value": 0,
        })
        prev = snap
    for index, _, kind, _ in record.flushes:
        rows[index // interval][f"recoveries_{kind}"] += 1
    return rows


def render_report(intervals: list[dict]) -> str:
    """Plain-text table of interval rows (for ``repro observe report``)."""
    if not intervals:
        return "(no interval data)"
    header = (
        f"{'insts':>14}  {'ipc':>6}  {'loads':>7}  {'cov%':>6}  "
        f"{'acc%':>6}  {'probes':>7}  {'paq^':>5}  {'flush':>5}"
    )
    lines = [header, "-" * len(header)]
    for row in intervals:
        span = f"{row['start']}-{row['end']}"
        lines.append(
            f"{span:>14}  {row['ipc']:>6.3f}  {row['loads']:>7}  "
            f"{row['coverage'] * 100:>6.2f}  {row['accuracy'] * 100:>6.2f}  "
            f"{row['probes']:>7}  {row['paq_peak_occupancy']:>5}  "
            f"{row['paq_flushes']:>5}"
        )
    return "\n".join(lines)
