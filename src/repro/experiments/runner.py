"""Shared experiment machinery.

:class:`SuiteRunner` is the experiments' front door to the
:mod:`repro.runtime` subsystem: every scheme run over the suite becomes
a grid of content-hashed jobs submitted through a
:class:`~repro.runtime.Runtime`, which supplies result caching,
parallel fan-out and the run journal.  Schemes are addressed by
registered id (``"dlvp"``, ``"vtage"``, ...); passing a factory
callable is still supported for ad-hoc schemes, and runs in-process
without result caching (a closure has no content hash).

The trace-only figures (1, 2 and 4) and factory schemes read the
suite's traces through :meth:`SuiteRunner.traces`, one
:class:`~repro.trace.ColumnarTrace` at a time, from the runtime's trace
cache or built and cached just as a simulation job's trace is.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable, Iterable, Iterator

from repro.pipeline import RecoveryMode, Scheme, SimResult, simulate
from repro.runtime import GridResult, RunInterrupted, Runtime
from repro.runtime.jobs import cached_trace
from repro.trace import ColumnarTrace
from repro.workloads import workload_names


def arithmetic_mean(values: Iterable[float]) -> float:
    """Plain average; 0.0 for an empty sequence."""
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def geometric_mean(speedups: Iterable[float]) -> float:
    """Geometric mean of (1 + speedup) factors, returned as a speedup.

    A speedup of -100% or worse makes its factor non-positive, for
    which the geometric mean is undefined; such entries are skipped
    with a warning rather than poisoning the whole aggregate.
    """
    factors = [1.0 + s for s in speedups]
    positive = [f for f in factors if f > 0.0]
    if len(positive) != len(factors):
        warnings.warn(
            f"geometric_mean: skipped {len(factors) - len(positive)} "
            "non-positive speedup factor(s) (speedup <= -100%)",
            RuntimeWarning,
            stacklevel=2,
        )
    if not positive:
        return 0.0
    return math.exp(sum(math.log(f) for f in positive) / len(positive)) - 1.0


class SuiteRunner:
    """Experiment driver over one suite selection and trace length.

    Args:
        n_instructions: Trace length per workload.
        names: Workload subset (default: the whole suite).
        runtime: The scheduling runtime.  The default is serial and
            uncached, which keeps library/test usage free of disk
            side effects; the CLI passes a cached, parallel runtime.
    """

    def __init__(
        self,
        n_instructions: int = 12_000,
        names: list[str] | None = None,
        runtime: Runtime | None = None,
    ) -> None:
        self.names = names if names is not None else workload_names()
        self.n_instructions = n_instructions
        self.runtime = runtime if runtime is not None else Runtime(
            jobs=1, use_cache=False
        )
        self._baselines: dict[str, SimResult] | None = None

    def traces(self) -> Iterator[tuple[str, ColumnarTrace]]:
        """Yield ``(name, trace)`` for each workload, one at a time.

        Each trace comes from the runtime's trace cache, or is built
        (and cached, when the runtime has a cache), as a simulation
        job's trace is.  Nothing is kept: the runner drops each trace
        before it fetches the next, so a caller that does the same
        (``del trace`` at the end of its loop body, since a loop
        variable outlives its iteration) holds one workload's trace at
        a time.
        """
        for name in self.names:
            trace, _ = cached_trace(name, self.n_instructions, self.runtime.cache)
            yield name, trace
            del trace

    def baselines(self) -> dict[str, SimResult]:
        """Baseline (no value prediction) run per workload, cached."""
        if self._baselines is None:
            grid = self.runtime.run_grid(
                ["baseline"], self.names, self.n_instructions
            )
            self._baselines = self._complete(grid).scheme_results("baseline")
        return self._baselines

    @staticmethod
    def _complete(grid: GridResult) -> GridResult:
        """Pass the grid through, unless Ctrl-C/SIGTERM cut it short.

        An interrupted grid raises :class:`RunInterrupted` carrying the
        partial results, so figure code never renders a half-grid as if
        it were the real thing and the CLI can print a partial report
        (with a ``--resume`` hint) instead of a stack trace.
        """
        if not grid.complete:
            raise RunInterrupted(grid)
        return grid

    def run_scheme(
        self,
        scheme: str | Callable[[], Scheme] | None,
        recovery: RecoveryMode = RecoveryMode.FLUSH,
    ) -> dict[str, SimResult]:
        """Run one scheme over the suite.

        ``scheme`` is a registered scheme id (cached, parallelizable),
        a factory callable (in-process, uncached), or None for the
        baseline.
        """
        if scheme is None:
            return self.baselines()
        if isinstance(scheme, str):
            grid = self.runtime.run_grid(
                [scheme], self.names, self.n_instructions, recovery=recovery
            )
            return self._complete(grid).scheme_results(scheme)
        results = {}
        for name, trace in self.traces():
            results[name] = simulate(trace, scheme=scheme(), recovery=recovery)
            del trace
        return results

    def speedups(self, results: dict[str, SimResult]) -> dict[str, float]:
        """Per-workload speedup of ``results`` over the cached baselines."""
        baselines = self.baselines()
        return {
            name: result.speedup_over(baselines[name])
            for name, result in results.items()
        }


def format_table(headers: list[str], rows: list[list[str]]) -> str:
    """Plain-text table rendering used by every experiment's render()."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)
