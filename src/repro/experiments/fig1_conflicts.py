"""Figure 1 — fraction of dynamic loads consuming a value produced by a
store since the prior instance of that load, split committed/in-flight.

Paper headline: a substantial fraction of loads conflict, and ~67% of
the conflicts are with *committed* stores — the ones DLVP neutralises.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.runner import SuiteRunner, arithmetic_mean, format_table
from repro.trace import ConflictProfile, load_store_conflicts


@dataclass(frozen=True)
class Fig1Result:
    profiles: dict[str, ConflictProfile]

    def rows(self) -> list[tuple[str, float, float]]:
        """(workload, committed-conflict fraction, in-flight fraction)."""
        return [
            (name, p.fraction_committed, p.fraction_inflight)
            for name, p in sorted(self.profiles.items())
        ]

    @property
    def average_committed_share(self) -> float:
        """Share of conflicts that involve committed stores (paper ~0.67)."""
        shares = [p.committed_share for p in self.profiles.values() if p.conflicts]
        return arithmetic_mean(shares)

    @property
    def average_conflict_fraction(self) -> float:
        return arithmetic_mean(p.fraction_conflicting for p in self.profiles.values())

    def render(self) -> str:
        rows = [
            [name, f"{c:6.1%}", f"{i:6.1%}"]
            for name, c, i in self.rows()
        ]
        table = format_table(["workload", "committed", "in-flight"], rows)
        summary = (
            f"\naverage conflicting-load fraction: {self.average_conflict_fraction:.1%}"
            f"\ncommitted share of conflicts:      {self.average_committed_share:.1%}"
            f"  (paper: ~67%)"
        )
        return "Figure 1 — load-store conflict breakdown\n" + table + summary


def run(runner: SuiteRunner, window: int = 64) -> Fig1Result:
    """Profile every workload's load-store conflicts.

    The default window is the *typical in-flight span* — commit lag
    (~16-40 cycles) times IPC (~0.5-2.5) is a few dozen instructions —
    rather than the 224-entry ROB capacity bound, which only binds when
    the machine is fully backed up.  Pass ``window=224`` for the
    capacity-bound classification.
    """
    profiles = {}
    for name, trace in runner.traces():
        profiles[name] = load_store_conflicts(trace, window=window)
        del trace
    return Fig1Result(profiles=profiles)
