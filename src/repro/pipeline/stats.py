"""Per-run results of the timing model.

:class:`SimResult` is also the unit of exchange for the runtime layer:
results round-trip through :meth:`SimResult.to_dict` /
:meth:`SimResult.from_dict` as schema-versioned, JSON-safe dicts so the
on-disk cache (:mod:`repro.runtime.cache`) never needs pickles.
Scheme-shaped ``scheme_stats`` payloads are serialized as tagged dicts;
stats dataclasses register themselves via :func:`register_stats_type`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.core.dlvp import DlvpStats
from repro.predictors.base import PredictorStats

RESULT_SCHEMA_VERSION = 3

# Older schemas this build can still read.  v1 payloads predate the
# way-predicted-probe energy split and the PAQ flush counter; both load
# as zero via dataclass defaults, which matches the old accounting.
# v2 payloads predate the optional ``intervals`` field (interval
# metrics from traced runs), which loads as ``None``.
_COMPATIBLE_SCHEMA_VERSIONS = frozenset({1, 2, RESULT_SCHEMA_VERSION})

_STATS_TYPES: dict[str, type] = {}


def register_stats_type(cls: type) -> type:
    """Register a stats dataclass for tagged (de)serialization.

    Any dataclass a scheme returns from ``result_stats()`` must be
    registered here (directly or as a dict value) for cached results to
    round-trip.  Returns ``cls`` so it can be used as a decorator.
    """
    _STATS_TYPES[cls.__name__] = cls
    return cls


def stats_to_dict(stats: object | None) -> object | None:
    """Serialize a ``scheme_stats`` payload to a JSON-safe tagged value."""
    if stats is None:
        return None
    if isinstance(stats, dict):
        return {
            "__kind__": "dict",
            "items": {str(k): stats_to_dict(v) for k, v in stats.items()},
        }
    cls = type(stats)
    if cls.__name__ not in _STATS_TYPES or not dataclasses.is_dataclass(stats):
        raise TypeError(
            f"cannot serialize scheme stats of type {cls.__name__}; "
            "register a dataclass via repro.pipeline.stats.register_stats_type"
        )
    payload = {f.name: getattr(stats, f.name) for f in dataclasses.fields(stats)}
    payload["__kind__"] = cls.__name__
    return payload


def stats_from_dict(data: object | None) -> object | None:
    """Inverse of :func:`stats_to_dict`."""
    if data is None:
        return None
    if not isinstance(data, dict) or "__kind__" not in data:
        raise ValueError(f"malformed scheme stats payload: {data!r}")
    kind = data["__kind__"]
    if kind == "dict":
        return {k: stats_from_dict(v) for k, v in data["items"].items()}
    try:
        cls = _STATS_TYPES[kind]
    except KeyError:
        raise ValueError(f"unknown scheme stats type: {kind!r}") from None
    fields = {k: v for k, v in data.items() if k != "__kind__"}
    return cls(**fields)


@dataclass
class FlushStats:
    branch: int = 0
    value: int = 0

    @property
    def total(self) -> int:
        return self.branch + self.value


@dataclass
class EnergyEvents:
    """Raw event counts the energy model converts to joules-equivalents."""

    cycles: int = 0
    instructions: int = 0
    l1d_accesses: int = 0
    l1d_probes: int = 0
    l1d_probes_way_predicted: int = 0
    l2_accesses: int = 0
    l3_accesses: int = 0
    predictor_reads: int = 0
    predictor_writes: int = 0
    predictor_bits: int = 0
    pvt_reads: int = 0
    pvt_writes: int = 0


@dataclass
class SimResult:
    """Everything a simulation run reports.

    ``scheme_stats`` is scheme-shaped: a :class:`DlvpStats` for DLVP
    runs, a :class:`PredictorStats` for VTAGE runs, a dict for
    tournaments, ``None`` for the baseline.
    """

    trace_name: str
    scheme_name: str
    instructions: int
    cycles: int
    flushes: FlushStats = field(default_factory=FlushStats)
    branch_mispredictions: int = 0
    value_predictions: int = 0
    value_mispredictions: int = 0
    loads: int = 0
    l1d_hit_rate: float = 0.0
    tlb_miss_rate: float = 0.0
    energy: EnergyEvents = field(default_factory=EnergyEvents)
    scheme_stats: object | None = None
    # Per-interval metric rows (list of JSON-safe dicts) filled in from
    # a repro.observe.RunRecord; ``None`` for untraced runs.
    intervals: list | None = None

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def speedup_over(self, baseline: "SimResult") -> float:
        """Relative speedup vs a baseline run of the same trace."""
        if baseline.trace_name != self.trace_name:
            raise ValueError(
                f"speedup across different traces: {baseline.trace_name} vs {self.trace_name}"
            )
        if not self.cycles:
            return 0.0
        return baseline.cycles / self.cycles - 1.0

    @property
    def value_coverage(self) -> float:
        """Fraction of dynamic loads that were value predicted."""
        return self.value_predictions / self.loads if self.loads else 0.0

    @property
    def value_accuracy(self) -> float:
        if not self.value_predictions:
            return 1.0
        return 1.0 - self.value_mispredictions / self.value_predictions

    def to_dict(self) -> dict:
        """JSON-safe, schema-versioned representation of this result."""
        return {
            "schema": RESULT_SCHEMA_VERSION,
            "trace_name": self.trace_name,
            "scheme_name": self.scheme_name,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "flushes": {"branch": self.flushes.branch, "value": self.flushes.value},
            "branch_mispredictions": self.branch_mispredictions,
            "value_predictions": self.value_predictions,
            "value_mispredictions": self.value_mispredictions,
            "loads": self.loads,
            "l1d_hit_rate": self.l1d_hit_rate,
            "tlb_miss_rate": self.tlb_miss_rate,
            "energy": dataclasses.asdict(self.energy),
            "scheme_stats": stats_to_dict(self.scheme_stats),
            "intervals": self.intervals,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimResult":
        """Rebuild a result serialized by :meth:`to_dict`."""
        schema = data.get("schema")
        if schema not in _COMPATIBLE_SCHEMA_VERSIONS:
            raise ValueError(
                f"unsupported SimResult schema {schema!r} "
                f"(compatible: {sorted(_COMPATIBLE_SCHEMA_VERSIONS)})"
            )
        return cls(
            trace_name=data["trace_name"],
            scheme_name=data["scheme_name"],
            instructions=data["instructions"],
            cycles=data["cycles"],
            flushes=FlushStats(**data["flushes"]),
            branch_mispredictions=data["branch_mispredictions"],
            value_predictions=data["value_predictions"],
            value_mispredictions=data["value_mispredictions"],
            loads=data["loads"],
            l1d_hit_rate=data["l1d_hit_rate"],
            tlb_miss_rate=data["tlb_miss_rate"],
            energy=EnergyEvents(**data["energy"]),
            scheme_stats=stats_from_dict(data["scheme_stats"]),
            intervals=data.get("intervals"),
        )


register_stats_type(DlvpStats)
register_stats_type(PredictorStats)
