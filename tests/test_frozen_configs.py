"""Frozen references for the predictor configurations the goldens skip.

The golden suite pins every scheme at its default configuration.  The
experiments also run non-default ones on the real path — Figure 7's six
VTAGE flavours, D-VTAGE without its static filter, and DLVP-with-CAP
across Figure 4's confidence range and without the update delay — and
engine agreement cannot pin those, because every engine drives the same
predictor methods.  This suite freezes their ``SimResult.to_dict()``
under both recovery models, plus the standalone ``evaluate_cap`` stats
at the same CAP settings, on the workloads whose loads exercise the
odd cases:

* eon — 128-bit vector loads and multi-register LDMs;
* iirflt — two-destination LDP loads;
* storeflood — loads that conflict with in-flight stores.

5,000 instructions span three 2,048-instruction snapshot windows of the
columnar loop.  At that length no VTAGE flavour predicts a vector or
multi-register load, so a seeded synthetic stream of scalar, LDP, LDM,
vector, ALU and store instructions also drives VTAGE (every flavour,
with a fast FPC) and D-VTAGE (both filter settings) through their flat
fetch/execute methods and freezes what they predicted.

Only regenerate after a *deliberate* model change::

    PYTHONPATH=src python tests/test_frozen_configs.py --regen
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from collections.abc import Callable
from pathlib import Path

import pytest

from repro.experiments import fig7_vtage_flavors
from repro.experiments.fig4_address_prediction import evaluate_cap
from repro.isa import OpClass
from repro.pipeline import DlvpScheme, DvtageScheme, RecoveryMode, VtageScheme, simulate
from repro.predictors import CapConfig, DvtageConfig, DvtagePredictor, VtagePredictor
from repro.workloads import build_workload_columnar

FROZEN_PATH = Path(__file__).parent / "frozen_configs.json"
INSTRUCTIONS = 5_000
WORKLOADS = ("eon", "iirflt", "storeflood")
RECOVERIES = (RecoveryMode.FLUSH, RecoveryMode.ORACLE_REPLAY)

CAP_CONFIGS = {
    "conf3": CapConfig(confidence_threshold=3),
    "conf64": CapConfig(confidence_threshold=64),
    "delay0": CapConfig(confidence_threshold=24, update_delay=0),
}


def _schemes() -> dict[str, Callable[[], object]]:
    schemes: dict[str, Callable[[], object]] = {
        f"vtage/{name}": (lambda config=config: VtageScheme(config))
        for name, config in fig7_vtage_flavors.CONFIGS.items()
    }
    schemes["dvtage/unfiltered"] = lambda: DvtageScheme(
        DvtageConfig(static_filter=False)
    )
    for name, config in CAP_CONFIGS.items():
        schemes[f"cap/{name}"] = (
            lambda config=config: DlvpScheme(use_cap=True, cap_config=config)
        )
    return schemes


SCHEMES = _schemes()
_TRACES: dict[str, object] = {}


def _trace(workload: str):
    trace = _TRACES.get(workload)
    if trace is None:
        trace = _TRACES[workload] = build_workload_columnar(workload, INSTRUCTIONS)
    return trace


def simulate_cell(workload: str, scheme: str, recovery: RecoveryMode) -> dict:
    return simulate(
        _trace(workload), SCHEMES[scheme](), recovery=recovery
    ).to_dict()


def evaluate_cap_cell(workload: str, cap: str) -> dict:
    stats = evaluate_cap(_trace(workload).to_trace(), CAP_CONFIGS[cap])
    return dataclasses.asdict(stats)


# Synthetic stream: (pc, op, dests, mem_size, is_vector) per static
# instruction; values repeat, stride or change at random.
STREAM_LENGTH = 4_000
_STREAM_KINDS = (
    (0x1000, OpClass.LOAD, (1,), 8, False),
    (0x1010, OpClass.LOAD, (1, 2), 8, False),
    (0x1020, OpClass.LOAD, (1, 2, 3), 4, False),
    (0x1030, OpClass.LOAD, (4,), 16, True),
    (0x1040, OpClass.LOAD, (4, 5), 16, True),
    (0x1050, OpClass.ALU, (6,), 0, False),
    (0x1060, OpClass.STORE, (), 8, False),
)
_FAST_FPC = (1.0, 0.5)


def _stream():
    """Seeded ``((pc, op, ndests, is_vector, values), branch history)``
    pairs."""
    rng = random.Random(7)
    values: dict[int, tuple[int, ...]] = {}
    for _ in range(STREAM_LENGTH):
        kind = rng.randrange(len(_STREAM_KINDS))
        pc, op, dests, size, vector = _STREAM_KINDS[kind]
        width = 128 if vector else 64
        current = values.get(kind)
        roll = rng.random()
        if current is None or roll < 0.03:
            current = tuple(rng.getrandbits(width) for _ in dests or (0,))
        elif roll < 0.3:
            current = tuple((v + 8) % (1 << width) for v in current)
        values[kind] = current
        yield (pc, int(op), len(dests), vector, current), rng.choice(
            (0, 0b1011, 0x1F3A, 0x7FFF)
        )


def _stream_predictors() -> dict[str, Callable[[], object]]:
    predictors: dict[str, Callable[[], object]] = {
        f"vtage/{name}": (
            lambda config=config: VtagePredictor(dataclasses.replace(
                config, fpc_vector=_FAST_FPC, dynamic_filter_warmup=16,
            ))
        )
        for name, config in fig7_vtage_flavors.CONFIGS.items()
    }
    for name, static in (("filtered", True), ("unfiltered", False)):
        predictors[f"dvtage/{name}"] = (
            lambda static=static: DvtagePredictor(
                DvtageConfig(static_filter=static, fpc_vector=_FAST_FPC)
            )
        )
    return predictors


STREAM_PREDICTORS = _stream_predictors()


def _vtage_predict(predictor, pc, op, ndests, vector, values, history):
    """What a fetch would predict, without counting the load."""
    loads_seen = predictor.stats.loads_seen
    handle = predictor.begin_flat(pc, op, ndests, vector, values, history)
    predictor.stats.loads_seen = loads_seen
    return None if handle is None else handle[0]


def _vtage_train(predictor, pc, op, ndests, vector, values, history):
    """Fetch then execute under one history; the prediction made."""
    handle = predictor.begin_flat(pc, op, ndests, vector, values, history)
    if handle is None:
        return None
    predictor.finish_flat(handle, op, ndests, vector, values)
    return handle[0]


def _dvtage_train(predictor, pc, op, ndests, vector, values, history):
    handle = predictor.predict_flat(pc, op, ndests, vector, history)
    return predictor.train_flat(handle, op, values)


def stream_cell(name: str) -> dict:
    """Drive one predictor over the stream, alternating a fetch+execute
    pair with a side-effect-free peek at the fetch-time prediction
    followed by the fetch and execute entry points called apart."""
    predictor = STREAM_PREDICTORS[name]()
    is_vtage = isinstance(predictor, VtagePredictor)
    made = []
    for i, (fields, history) in enumerate(_stream()):
        pc, op, ndests, vector, values = fields
        if i % 2:
            train = _vtage_train if is_vtage else _dvtage_train
            made.append(train(predictor, *fields, history))
        elif is_vtage:
            made.append(_vtage_predict(predictor, *fields, history))
            handle = predictor.begin_flat(pc, op, ndests, vector, values, history)
            if handle is not None:
                made.append(
                    predictor.finish_flat(handle, op, ndests, vector, values)
                )
        else:
            handle = predictor.predict_flat(pc, op, ndests, vector, history)
            made.append(None if handle is None else handle[0])
            _dvtage_train(predictor, *fields, history)
    cell = {
        "predictions": hashlib.sha256(repr(made).encode()).hexdigest(),
        "stats": dataclasses.asdict(predictor.stats),
    }
    if is_vtage:
        cell["slot_predictions"] = predictor.slot_predictions
        cell["slot_correct"] = predictor.slot_correct
        cell["type_accuracy"] = predictor.type_accuracy_report()
    return cell


def _sim_cells() -> list[tuple[str, str, RecoveryMode]]:
    return [
        (workload, scheme, recovery)
        for workload in WORKLOADS
        for scheme in SCHEMES
        for recovery in RECOVERIES
    ]


def _cap_cells() -> list[tuple[str, str]]:
    return [(workload, cap) for workload in WORKLOADS for cap in CAP_CONFIGS]


def _sim_key(workload: str, scheme: str, recovery: RecoveryMode) -> str:
    return f"{workload}/{scheme}/{recovery.value}"


@pytest.fixture(scope="module")
def frozen() -> dict:
    assert FROZEN_PATH.exists(), (
        f"{FROZEN_PATH} missing — regenerate with "
        f"`python {Path(__file__).name} --regen`"
    )
    return json.loads(FROZEN_PATH.read_text())


def test_frozen_covers_every_cell(frozen):
    assert frozen["instructions"] == INSTRUCTIONS
    assert set(frozen["simulate"]) == {_sim_key(*cell) for cell in _sim_cells()}
    assert set(frozen["evaluate_cap"]) == {f"{w}/{c}" for w, c in _cap_cells()}
    assert set(frozen["streams"]) == set(STREAM_PREDICTORS)


@pytest.mark.parametrize(
    "workload,scheme,recovery", _sim_cells(),
    ids=[_sim_key(*cell) for cell in _sim_cells()],
)
def test_simresult_matches_frozen(frozen, workload, scheme, recovery):
    expected = frozen["simulate"][_sim_key(workload, scheme, recovery)]
    assert simulate_cell(workload, scheme, recovery) == expected


@pytest.mark.parametrize(
    "workload,cap", _cap_cells(), ids=[f"{w}/{c}" for w, c in _cap_cells()]
)
def test_evaluate_cap_matches_frozen(frozen, workload, cap):
    expected = frozen["evaluate_cap"][f"{workload}/{cap}"]
    assert evaluate_cap_cell(workload, cap) == expected


@pytest.mark.parametrize("name", sorted(STREAM_PREDICTORS))
def test_stream_matches_frozen(frozen, name):
    assert stream_cell(name) == frozen["streams"][name]


def _regen() -> None:
    sim = {}
    for cell in _sim_cells():
        sim[_sim_key(*cell)] = simulate_cell(*cell)
        print(f"  {_sim_key(*cell)}")
    cap = {f"{w}/{c}": evaluate_cap_cell(w, c) for w, c in _cap_cells()}
    streams = {name: stream_cell(name) for name in STREAM_PREDICTORS}
    FROZEN_PATH.write_text(json.dumps(
        {"instructions": INSTRUCTIONS, "simulate": sim, "evaluate_cap": cap,
         "streams": streams},
        indent=1, sort_keys=True,
    ) + "\n")
    print(f"wrote {FROZEN_PATH} ({len(sim)} simulate cells, {len(cap)} CAP "
          f"cells, {len(streams)} streams)")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
