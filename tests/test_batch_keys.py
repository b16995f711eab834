"""Batched predictor-key precomputation (repro.pipeline.batch).

Two contracts guard the numpy fast path:

* **Fallback equivalence** — with numpy forced off (``batch.np = None``)
  the columnar engine must still reproduce the committed goldens bit
  for bit: the batch layer is an optional accelerator, never a
  semantic dependency.
* **Key equivalence** — the vectorized APT and TAGE key pipelines must
  emit exactly the keys the live incremental folded registers would,
  over random streams and across chunk-carry boundaries (including the
  >64-bit TAGE history windows split into lo/hi columns).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.isa import Instruction, OpClass
from repro.isa.fetch import FETCH_GROUP_BYTES
from repro.pipeline import batch
from repro.pipeline.core_model import simulate
from repro.runtime.registry import get_scheme
from repro.trace import ColumnarTrace
from repro.workloads import build_workload

GOLDEN_PATH = Path(__file__).parent / "golden_simresults.json"

numpy_required = pytest.mark.skipif(
    not batch.numpy_available(), reason="numpy not importable"
)


# ---------------------------------------------------------------------------
# no-numpy fallback reproduces the goldens
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheme_id", ["dlvp", "tournament"])
def test_no_numpy_columnar_matches_goldens(monkeypatch, scheme_id):
    """Golden smoke with the batch layer disabled at the module gate."""
    monkeypatch.setattr(batch, "np", None)
    goldens = json.loads(GOLDEN_PATH.read_text())
    trace = ColumnarTrace.from_trace(build_workload("mcf", 3_000))
    result = simulate(trace, get_scheme(scheme_id).build()).to_dict()
    assert result == goldens["cells"][f"mcf/{scheme_id}"]


# ---------------------------------------------------------------------------
# PapKeyBatch == sequential compute_key over the live load-path folds
# ---------------------------------------------------------------------------


def _pap_batch(trace, chunk_loads: int):
    from repro.predictors.pap import PapPredictor

    predictor = PapPredictor()
    return predictor, batch.PapKeyBatch(
        trace,
        load_op=int(OpClass.LOAD),
        history_bits=predictor.config.history_bits,
        index_bits=predictor._index_bits,
        tag_bits=predictor.config.tag_bits,
        tag_shift=predictor._tag_shift,
        fetch_group_bytes=FETCH_GROUP_BYTES,
        chunk_loads=chunk_loads,
    )


def _mixed_stream(seed: int, loads: int, load_share: float) -> list[Instruction]:
    """``loads`` loads at random PCs, with ALU rows and stores between them."""
    rng = random.Random(seed)
    insts = []
    while loads:
        pc = rng.randrange(1 << 48) * 4
        r = rng.random()
        if r < load_share:
            insts.append(Instruction(pc=pc, op=OpClass.LOAD, dests=(1,), values=(0,),
                                     mem_addr=pc, mem_size=4))
            loads -= 1
        elif r < (1 + load_share) / 2:
            insts.append(Instruction(pc=pc, op=OpClass.STORE, srcs=(1, 2), values=(0,),
                                     mem_addr=pc, mem_size=4))
        else:
            insts.append(Instruction(pc=pc, op=OpClass.ALU, srcs=(1,), dests=(2,)))
    return insts


def _assert_pap_batch_matches_live(insts) -> None:
    # 37-load chunks: many chunks, history carries and row blocks
    predictor, kb = _pap_batch(ColumnarTrace("rand-loads", insts), 37)
    pcs = [inst.pc for inst in insts if inst.op is OpClass.LOAD]
    got: list[tuple[int, int, int, int]] = []
    while len(got) < len(pcs):
        start, idx0, tag0, idx1, tag1 = kb.next_chunk()
        assert start == len(got)
        got.extend(zip(idx0, tag0, idx1, tag1))
    fga_mask = ~(FETCH_GROUP_BYTES - 1)
    for pc, (i0, t0, i1, t1) in zip(pcs, got):
        fga = pc & fga_mask
        # the scheme keys FGA | (slot << 2) *before* pushing this load
        assert (i0, t0) == predictor.compute_key(fga)
        assert (i1, t1) == predictor.compute_key(fga | 4)
        predictor.history.push_load(pc)
    with pytest.raises(RuntimeError):
        kb.next_chunk()


@numpy_required
def test_pap_key_batch_matches_sequential():
    """Streams of loads only, and streams where loads are 30% and 2% of
    the rows: the batch's row cursor finds exactly the loads."""
    for load_share in (1.0, 0.3, 0.02):
        _assert_pap_batch_matches_live(_mixed_stream(0x5EED, 500, load_share))


@numpy_required
def test_pap_key_batch_keeps_nothing_per_load():
    """Between chunks the batch holds the same arrays over 400 loads as
    over 20,000: it selects each chunk's loads from a row cursor."""
    sizes = []
    for loads in (400, 20_000):
        _, kb = _pap_batch(ColumnarTrace("loads", _mixed_stream(7, loads, 0.3)), 64)
        kb.next_chunk()
        kb.next_chunk()
        sizes.append(sorted(
            (slot, getattr(kb, slot).nbytes) for slot in batch.PapKeyBatch.__slots__
            if isinstance(getattr(kb, slot), batch.np.ndarray)
        ))
    assert sizes[0] == sizes[1]


# ---------------------------------------------------------------------------
# TageKeyBatch == sequential Tage._keys over the live global-history folds
# ---------------------------------------------------------------------------


def _random_control_stream(seed: int, n: int = 800) -> list[Instruction]:
    rng = random.Random(seed)
    insts = []
    for _ in range(n):
        pc = rng.randrange(1 << 30) * 4
        r = rng.random()
        if r < 0.5:
            insts.append(Instruction(pc=pc, op=OpClass.BRANCH,
                                     taken=rng.random() < 0.5))
        elif r < 0.75:
            insts.append(Instruction(pc=pc, op=OpClass.CALL, target=64))
        else:
            insts.append(Instruction(pc=pc, op=OpClass.ALU))
    return insts


def _assert_tage_batch_matches_live(insts, tage, chunk: int) -> None:
    """Every batched key set equals the live folds' keys, across chunks."""
    kb = batch.tage_key_batch(ColumnarTrace("rand-branches", insts), tage)
    assert kb is not None
    kb._chunk = chunk         # cross chunk carries incl. the hi window
    branches = sum(1 for inst in insts if inst.op is OpClass.BRANCH)
    got: list = []
    while len(got) < branches:
        start, keys = kb.next_chunk()
        assert start == len(got)
        got.extend(keys)      # call-only chunks contribute nothing

    j = 0
    for inst in insts:
        if inst.op is OpClass.BRANCH:
            assert list(got[j]) == tage._keys(inst.pc), f"branch {j}"
            tage.history.push(1 if inst.taken else 0)
            j += 1
        elif inst.op is OpClass.CALL:
            tage.history.push(1)
    assert j == branches == len(got)
    with pytest.raises(RuntimeError):
        kb.next_chunk()


def _sparse_control_stream(seed: int) -> list[Instruction]:
    """The random control stream with up to 60 ALU rows after each row."""
    rng = random.Random(seed)
    insts = []
    for inst in _random_control_stream(seed, 300):
        insts.append(inst)
        insts.extend(Instruction(pc=rng.randrange(1 << 30) * 4, op=OpClass.ALU)
                     for _ in range(rng.randrange(60)))
    return insts


@numpy_required
def test_tage_key_batch_matches_sequential():
    """A stream of mostly control rows, and one where they are a few
    percent of the rows: the batch's row cursor finds exactly the
    events, scanning several blocks per chunk in the sparse one."""
    from repro.branch.tage import Tage

    _assert_tage_batch_matches_live(_random_control_stream(0x7A6E), Tage(), 50)
    _assert_tage_batch_matches_live(_sparse_control_stream(0x5CA7), Tage(), 16)


@numpy_required
@pytest.mark.parametrize("max_history,lengths", [
    (1, (1,)), (7, (2, 7)), (40, (5, 13, 40)), (64, (4, 16, 64)),
    (65, (5, 65)), (100, (3, 9, 33, 65, 100)),
])
def test_tage_key_batch_matches_sequential_at_other_history_lengths(
    max_history, lengths
):
    """History registers shorter than 64 bits, exactly 64, and between
    64 and 128 (a partial hi word) window the same bits as the live
    register."""
    from repro.branch.tage import Tage, TageConfig

    tage = Tage(TageConfig(history_lengths=lengths, max_history=max_history))
    _assert_tage_batch_matches_live(_random_control_stream(max_history, 600), tage, 37)


@numpy_required
def test_tage_key_batch_keeps_nothing_per_branch():
    """Between chunks the batch holds the same arrays over 400 branches
    as over 20,000: it finds each chunk's events from a row cursor."""
    from repro.branch.tage import Tage

    sizes = []
    for n in (800, 40_000):
        kb = batch.tage_key_batch(
            ColumnarTrace("branches", _random_control_stream(11, n)), Tage())
        kb._chunk = 64
        kb.next_chunk()
        kb.next_chunk()
        sizes.append(sorted(
            (slot, getattr(kb, slot).nbytes) for slot in batch.TageKeyBatch.__slots__
            if isinstance(getattr(kb, slot, None), batch.np.ndarray)
        ))
    assert sizes[0] == sizes[1]


@numpy_required
def test_tage_key_batch_builder_guards():
    """tage_key_batch declines predictors it cannot serve exactly."""
    from repro.branch.tage import Tage

    trace = ColumnarTrace("empty")
    warm = Tage()
    warm.history.push(1)
    assert batch.tage_key_batch(trace, warm) is None     # non-zero history
    trained = Tage()
    trained.update(0x40, True)
    assert batch.tage_key_batch(trace, trained) is None  # already predicting
    assert batch.tage_key_batch(trace, Tage()) is not None
