"""Value-prediction schemes as the pipeline sees them.

A scheme is the glue between the timing model and the predictors: the
simulate loop asks the scheme for a prediction at fetch
(``flat_fetch``), decides admission (PVT capacity, recovery mode), and
reports back at execute (``flat_execute``) so the scheme can train.
Both calls take raw column scalars, never an
:class:`~repro.isa.Instruction`.  Three schemes reproduce the paper's
three value predictors — DLVP (PAP-based), the CAP variant of DLVP, and
VTAGE — plus the DLVP+VTAGE tournament of Figure 8 and D-VTAGE.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.branch import GlobalHistory
from repro.core import DlvpConfig, DlvpEngine, ValuePredictionEngine
from repro.isa import OpClass
from repro.memory import MemoryHierarchy, MemoryImage
from repro.predictors.cap import CapConfig, CapPredictor
from repro.pipeline.stats import register_stats_type
from repro.predictors.tournament import ChooserStats, TournamentChooser
from repro.predictors.dvtage import DvtageConfig, DvtagePredictor
from repro.predictors.vtage import VtageConfig, VtagePredictor
from repro.trace.columnar import F_VECTOR

_MASK64 = (1 << 64) - 1
_LOAD = int(OpClass.LOAD)

# ChooserStats lives in repro.predictors (import-order-safe to register here;
# predictors cannot depend on the pipeline package).
register_stats_type(ChooserStats)


class Scheme(abc.ABC):
    """Base class for value-prediction schemes driven by the pipeline.

    The protocol is three calls, all on raw column scalars:
    ``flat_prepare(trace)`` once per run after :meth:`bind`, then per
    fetched instruction ``flat_fetch`` and, when it returned a tuple,
    ``flat_execute``.  ``values`` are the architectural (trace) values
    of the instruction; ``predicted`` is what ``flat_fetch`` returned.
    """

    name: str = "scheme"

    # True when flat_fetch() is a guaranteed no-op for non-load
    # instructions (no prediction AND no side effects).  The timing
    # model uses it to skip the call entirely on the hot path; schemes
    # that predict non-loads (e.g. VTAGE with loads_only=False) must
    # leave it False.
    fetch_loads_only: bool = False
    # False when the scheme never reads the global branch history: the
    # timing model then binds None and pushes no branch outcome.
    reads_history: bool = True

    def __init__(self, pvt_entries: int = 32) -> None:
        self.vpe = ValuePredictionEngine(pvt_entries=pvt_entries)

    def bind(
        self,
        hierarchy: MemoryHierarchy,
        image: MemoryImage,
        history: GlobalHistory,
    ) -> None:
        """Attach per-run substrate objects before simulation starts.

        ``history`` is the global branch-history register: the raw
        outcome bits of the front end's TAGE history, the only branch
        state a scheme may read (VTAGE's context source), or None for a
        scheme that declares ``reads_history = False``.  Schemes never
        write it.
        """
        self.hierarchy = hierarchy
        self.image = image
        self.history = history

    def flat_prepare(self, trace) -> None:
        """Per-run hook after bind(), with the full trace, before the
        loop starts: the place to build per-run closures.  No-op by
        default."""

    @abc.abstractmethod
    def flat_fetch(
        self, pc, op, mem_addr, mem_size, flags, ndests, values,
        fetch_cycle, load_slot, probe_cycle,
    ) -> tuple | None:
        """Attempt a prediction as the instruction is fetched.

        ``load_slot`` is 0/1 for the first two loads of a fetch group
        and None beyond that (the per-cycle prediction limit).  Returns
        None when this scheme has nothing to do for the instruction,
        else ``(values, correct, handle, registers)``: the predicted
        values (None: no prediction), whether they match the trace, a
        scheme-private handle for :meth:`flat_execute` and the PVT
        entries the prediction would need.
        """

    @abc.abstractmethod
    def flat_execute(
        self, pc, op, mem_addr, mem_size, flags, ndests, values,
        handle, predicted, way, value_predicted,
    ) -> tuple[bool, bool]:
        """Validate and train once the instruction executes.

        ``way`` is the L1 way the block occupies after the demand access
        (None for non-memory instructions); returns ``(value_predicted,
        value_correct)``.
        """

    def on_value_flush(self) -> None:
        """A value misprediction flushed the pipeline."""
        self.vpe.flush()

    def way_predicted_probes(self) -> int:
        """L1 probes issued as single-way (way-predicted) reads.

        Feeds :attr:`EnergyEvents.l1d_probes_way_predicted`; schemes
        without a probing engine report zero.
        """
        return 0

    @abc.abstractmethod
    def result_stats(self) -> object:
        """Scheme-shaped statistics for :class:`SimResult`."""

    @abc.abstractmethod
    def predictor_storage_bits(self) -> int:
        """Prediction-table budget (energy model input)."""

    @abc.abstractmethod
    def access_counts(self) -> tuple[int, int]:
        """Approximate (reads, writes) of the prediction tables."""


class DlvpScheme(Scheme):
    """DLVP proper (PAP), or the paper's "CAP" comparison point when
    constructed with ``use_cap=True``."""

    fetch_loads_only = True
    # PAP's context is its own load-path history, CAP's none.
    reads_history = False
    # flat_prepare() installs the engine's fused per-run closures as
    # these two instance attributes.
    flat_fetch = flat_execute = None

    def __init__(
        self,
        config: DlvpConfig | None = None,
        use_cap: bool = False,
        cap_config: CapConfig | None = None,
    ) -> None:
        super().__init__(pvt_entries=(config or DlvpConfig()).pvt_entries)
        self.config = config or DlvpConfig()
        self.use_cap = use_cap
        self.cap_config = cap_config
        self.name = "cap" if use_cap else "dlvp"
        self.engine: DlvpEngine | None = None

    def bind(self, hierarchy, image, history) -> None:
        super().bind(hierarchy, image, history)
        address_predictor = (
            CapPredictor(self.cap_config or CapConfig(confidence_threshold=24))
            if self.use_cap
            else None
        )
        self.engine = DlvpEngine(
            config=self.config,
            hierarchy=hierarchy,
            image=image,
            address_predictor=address_predictor,
        )
        # Drop fused closures from any previous run: they captured the
        # previous engine.  flat_prepare() rebuilds them for this one.
        self.__dict__.pop("flat_fetch", None)
        self.__dict__.pop("flat_execute", None)

    def flat_prepare(self, trace) -> None:
        """Build the engine's per-run closures: flat_fetch/flat_execute
        with every hot attribute captured as a cell, and PAP's load-path
        history kept in the fetch closure."""
        engine = self.engine
        self.flat_fetch = engine.make_flat_fetch()
        self.flat_execute = engine.make_flat_execute()

    def way_predicted_probes(self) -> int:
        assert self.engine is not None
        return self.engine.stats.probes_way_predicted

    def result_stats(self):
        assert self.engine is not None
        # The PAQ keeps its own flush counter; mirror it into the
        # result-facing stats so cached/serialized runs carry it.
        self.engine.stats.paq_flushed = self.engine.paq.flushed
        return self.engine.stats

    def predictor_storage_bits(self) -> int:
        assert self.engine is not None
        predictor = self.engine.predictor
        if isinstance(predictor, CapPredictor):
            return predictor.storage_bits()
        return predictor.storage_bits(include_way=self.config.way_prediction)

    def access_counts(self) -> tuple[int, int]:
        assert self.engine is not None
        loads = self.engine.stats.loads_seen
        return loads, loads


class VtageScheme(Scheme):
    """VTAGE driven by the core's global branch history."""

    def __init__(self, config: VtageConfig | None = None) -> None:
        super().__init__()
        self.config = config or VtageConfig()
        self.name = "vtage"
        self.predictor = VtagePredictor(self.config)
        self.fetch_loads_only = self.config.loads_only

    def bind(self, hierarchy, image, history) -> None:
        super().bind(hierarchy, image, history)
        # Hot-path aliases for the per-load flat calls.
        self._loads_only = self.config.loads_only
        self._begin = self.predictor.begin_flat
        self._finish = self.predictor.finish_flat

    def flat_fetch(
        self, pc, op, mem_addr, mem_size, flags, ndests, values,
        fetch_cycle, load_slot, probe_cycle,
    ):
        if not ndests or not values:
            return None
        if self._loads_only and op != _LOAD:
            return None
        is_vector = flags & F_VECTOR != 0
        handle = self._begin(pc, op, ndests, is_vector, values, self.history.value)
        if handle is None:
            return None
        registers = (2 * ndests) if is_vector else ndests
        predicted = handle[0]
        if predicted is None or (op == _LOAD and load_slot is None):
            # Nothing confident, or past the per-cycle prediction ports.
            return (None, False, handle, registers)
        if is_vector:
            correct = predicted == values
        elif len(values) == 1:
            correct = predicted == (values[0] & _MASK64,)
        else:
            correct = predicted == tuple(v & _MASK64 for v in values)
        return (predicted, correct, handle, registers)

    def flat_execute(
        self, pc, op, mem_addr, mem_size, flags, ndests, values,
        handle, predicted, way, value_predicted,
    ):
        return value_predicted, self._finish(
            handle, op, ndests, flags & F_VECTOR != 0, values
        )

    def result_stats(self):
        return self.predictor.stats

    def predictor_storage_bits(self) -> int:
        return self.predictor.storage_bits()

    def access_counts(self) -> tuple[int, int]:
        loads = self.predictor.stats.loads_seen
        tables = len(self.config.history_lengths)
        return tables * loads, loads


class DvtageScheme(Scheme):
    """D-VTAGE (differential VTAGE) driven by the global branch history.

    An extension beyond the paper's evaluated set: Section 2.1 discusses
    D-VTAGE's trade-offs (adder on the critical path, speculative
    last-value window) without evaluating it; this scheme measures its
    coverage and speedup on the same workloads, charging neither cost
    (see :mod:`repro.predictors.dvtage`).
    """

    fetch_loads_only = True

    def __init__(self, config: DvtageConfig | None = None) -> None:
        super().__init__()
        self.config = config or DvtageConfig()
        self.name = "dvtage"
        self.predictor = DvtagePredictor(self.config)

    def bind(self, hierarchy, image, history) -> None:
        super().bind(hierarchy, image, history)
        self._predict = self.predictor.predict_flat
        self._train = self.predictor.train_flat

    def flat_fetch(
        self, pc, op, mem_addr, mem_size, flags, ndests, values,
        fetch_cycle, load_slot, probe_cycle,
    ):
        if op != _LOAD:
            return None
        handle = self._predict(
            pc, op, ndests, flags & F_VECTOR != 0, self.history.value
        )
        if handle is None or load_slot is None or handle[0] is None:
            return (None, False, handle, ndests)
        prediction = handle[0]
        correct = len(values) == 1 and prediction == values[0] & _MASK64
        return ((prediction,), correct, handle, ndests)

    def flat_execute(
        self, pc, op, mem_addr, mem_size, flags, ndests, values,
        handle, predicted, way, value_predicted,
    ):
        # Correctness of what the predictor would have supplied, even
        # past the prediction ports (used only when value_predicted).
        prediction = self._train(handle, op, values)
        correct = (
            prediction is not None and len(values) == 1
            and prediction == values[0] & _MASK64
        )
        return value_predicted, correct

    def result_stats(self):
        return self.predictor.stats

    def predictor_storage_bits(self) -> int:
        return self.predictor.storage_bits()

    def access_counts(self) -> tuple[int, int]:
        loads = self.predictor.stats.loads_seen
        tables = 1 + len(self.config.history_lengths)
        return tables * loads, loads


@register_stats_type
@dataclass
class TournamentStats:
    """Figure 8 material."""

    loads: int = 0
    final_predictions: int = 0
    final_by_dlvp: int = 0
    final_by_vtage: int = 0

    @property
    def coverage(self) -> float:
        return self.final_predictions / self.loads if self.loads else 0.0

    @property
    def dlvp_share(self) -> float:
        """Fraction of loads whose final prediction came from DLVP."""
        return self.final_by_dlvp / self.loads if self.loads else 0.0

    @property
    def vtage_share(self) -> float:
        return self.final_by_vtage / self.loads if self.loads else 0.0


class TournamentScheme(Scheme):
    """DLVP and VTAGE running concurrently with a 2-bit chooser.

    The fetch-side handle is ``(dlvp, vtage, final_is_dlvp, index)``:
    each sub-scheme's flat fetch tuple (or None), which side made the
    final prediction, and the chooser counter index computed at fetch.
    """

    fetch_loads_only = True

    def __init__(
        self,
        dlvp_config: DlvpConfig | None = None,
        vtage_config: VtageConfig | None = None,
        chooser_entries: int = 1024,
    ) -> None:
        super().__init__()
        self.name = "tournament"
        self.dlvp = DlvpScheme(dlvp_config)
        self.vtage = VtageScheme(vtage_config)
        self.chooser = TournamentChooser(entries=chooser_entries)
        self.stats = TournamentStats()

    def bind(self, hierarchy, image, history) -> None:
        super().bind(hierarchy, image, history)
        self.dlvp.bind(hierarchy, image, history)
        self.vtage.bind(hierarchy, image, history)
        # Sub-scheme flat entry points, aliased for the per-load calls
        # (DLVP's are per-run closures, aliased by flat_prepare).
        self._vtage_flat_fetch = self.vtage.flat_fetch
        self._vtage_flat_execute = self.vtage.flat_execute
        self._chooser_lookup = self.chooser.lookup
        self._chooser_update = self.chooser.update_at

    def flat_prepare(self, trace) -> None:
        self.dlvp.flat_prepare(trace)
        self._dlvp_flat_fetch = self.dlvp.flat_fetch
        self._dlvp_flat_execute = self.dlvp.flat_execute

    def flat_fetch(
        self, pc, op, mem_addr, mem_size, flags, ndests, values,
        fetch_cycle, load_slot, probe_cycle,
    ):
        """The final prediction: the chooser's pick when that side
        predicted, else whichever side did (DLVP first)."""
        if op != _LOAD:
            return None
        d = self._dlvp_flat_fetch(
            pc, op, mem_addr, mem_size, flags, ndests, values,
            fetch_cycle, load_slot, probe_cycle,
        )
        v = self._vtage_flat_fetch(
            pc, op, mem_addr, mem_size, flags, ndests, values,
            fetch_cycle, load_slot, probe_cycle,
        )
        stats = self.stats
        stats.loads += 1
        index, prefer_dlvp = self._chooser_lookup(pc)
        d_values = d[0] if d is not None else None
        v_values = v[0] if v is not None else None
        if d_values is None and v_values is None:
            return (None, False, (d, v, prefer_dlvp, index), ndests)
        if d_values is not None and (prefer_dlvp or v_values is None):
            final_is_dlvp, chosen = True, d
            stats.final_by_dlvp += 1
        else:
            final_is_dlvp, chosen = False, v
            stats.final_by_vtage += 1
        self.chooser.record_choice(final_is_dlvp)
        stats.final_predictions += 1
        return (chosen[0], chosen[1], (d, v, final_is_dlvp, index), chosen[3])

    def flat_execute(
        self, pc, op, mem_addr, mem_size, flags, ndests, values,
        handle, predicted, way, value_predicted,
    ):
        """Train both sides and the chooser (with each side's fetch-time
        verdict); the result is the final prediction's."""
        d, v, final_is_dlvp, index = handle
        d_correct = v_correct = False
        if d is not None:
            d_correct = self._dlvp_flat_execute(
                pc, op, mem_addr, mem_size, flags, ndests, values,
                d[2], d[0], way, value_predicted and final_is_dlvp,
            )[1]
        if v is not None:
            v_correct = self._vtage_flat_execute(
                pc, op, mem_addr, mem_size, flags, ndests, values,
                v[2], v[0], way, False,
            )[1]
        self._chooser_update(
            index,
            d[1] if d is not None and d[0] is not None else None,
            v[1] if v is not None and v[0] is not None else None,
        )
        if not value_predicted:
            return False, False
        return True, d_correct if final_is_dlvp else v_correct

    def on_value_flush(self) -> None:
        super().on_value_flush()
        self.dlvp.on_value_flush()
        self.vtage.on_value_flush()

    def way_predicted_probes(self) -> int:
        return self.dlvp.way_predicted_probes()

    def result_stats(self):
        return {
            "tournament": self.stats,
            "dlvp": self.dlvp.result_stats(),
            "vtage": self.vtage.result_stats(),
            "chooser": self.chooser.stats,
        }

    def predictor_storage_bits(self) -> int:
        return (
            self.dlvp.predictor_storage_bits()
            + self.vtage.predictor_storage_bits()
            + self.chooser.storage_bits()
        )

    def access_counts(self) -> tuple[int, int]:
        dr, dw = self.dlvp.access_counts()
        vr, vw = self.vtage.access_counts()
        return dr + vr, dw + vw
