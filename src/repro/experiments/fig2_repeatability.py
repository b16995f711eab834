"""Figure 2 — breakdown of dynamic loads by how often their address or
value repeats for that static load.

Paper headlines: values repeat slightly more often than addresses
overall, but 91% of loads have addresses repeating >= 8 times while
only 80% have values repeating >= 64 times — the asymmetry that lets an
address predictor run at a far lower confidence threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.runner import SuiteRunner, arithmetic_mean, format_table
from repro.trace import RepeatabilityProfile, repeatability

THRESHOLDS = (1, 2, 4, 8, 16, 32, 64, 128)


@dataclass(frozen=True)
class Fig2Result:
    profiles: dict[str, RepeatabilityProfile]

    def average_fraction(self, kind: str, at_least: int) -> float:
        return arithmetic_mean(
            p.fraction_repeating(kind, at_least) for p in self.profiles.values()
        )

    def series(self, kind: str) -> dict[int, float]:
        """The Figure 2 cumulative series averaged over the suite."""
        return {t: self.average_fraction(kind, t) for t in THRESHOLDS}

    @property
    def address_ge8(self) -> float:
        """Paper: 91%."""
        return self.average_fraction("address", 8)

    @property
    def value_ge64(self) -> float:
        """Paper: 80%."""
        return self.average_fraction("value", 64)

    def render(self) -> str:
        addr = self.series("address")
        value = self.series("value")
        rows = [
            [f">={t}", f"{addr[t]:6.1%}", f"{value[t]:6.1%}"] for t in THRESHOLDS
        ]
        table = format_table(["repeats", "address", "value"], rows)
        summary = (
            f"\naddresses repeating >= 8:  {self.address_ge8:.1%}  (paper: 91%)"
            f"\nvalues repeating >= 64:    {self.value_ge64:.1%}  (paper: 80%)"
        )
        return "Figure 2 — address/value repeatability\n" + table + summary


def run(runner: SuiteRunner) -> Fig2Result:
    """Profile address/value repeatability over the suite."""
    profiles = {}
    for name, trace in runner.traces():
        profiles[name] = repeatability(trace)
        del trace
    return Fig2Result(profiles=profiles)
