"""Predictor keys: the one key path of each predictor against its reference.

* **TAGE** — the verdict pass's closure (:meth:`Tage.make_update_fused`)
  packs every fold register of one width into the lanes of one int.
  Over random push streams its per-table (index, tag) must equal
  :meth:`Tage._keys`, which reads one
  :class:`~repro.branch.history.FoldedHistory` per register, and its
  training must equal :meth:`Tage.update` + :meth:`Tage.update_history`
  — return values, every table entry and the allocation draws.
* **PAP** — DLVP's fetch closure keeps the load-path history as raw
  bits and folds them at each lookup.  Over random load streams,
  blocked and beyond-slot loads included, its APT keys must equal
  :meth:`PapPredictor.compute_key` under a live
  :class:`~repro.predictors.history.LoadPathHistory`.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.branch.tage import Tage, TageConfig
from repro.core import DlvpConfig, DlvpEngine
from repro.core.dlvp import _FLAT_BLOCKED
from repro.isa import OpClass
from repro.isa.fetch import FETCH_GROUP_BYTES
from repro.predictors import PapConfig

# The shipped geometry; history registers shorter than 64 bits, exactly
# 64, between 64 and 128 and above 128; and tag widths whose second tag
# fold (tag_bits - 1) is not the index width: 13 (folds of 10, 13 and
# 12 bits), 10 (the tag fold is then the index fold) and 8 on 64-entry
# tables (folds of 6, 8 and 7 bits, two tables of one history length).
GEOMETRIES = {
    "default": TageConfig(),
    "h1": TageConfig(history_lengths=(1,), max_history=1),
    "h7": TageConfig(history_lengths=(2, 7), max_history=7),
    "h40": TageConfig(history_lengths=(5, 13, 40), max_history=40),
    "h64": TageConfig(history_lengths=(4, 16, 64), max_history=64),
    "h65": TageConfig(history_lengths=(5, 65), max_history=65),
    "h100": TageConfig(history_lengths=(3, 9, 33, 65, 100), max_history=100),
    "h200": TageConfig(history_lengths=(6, 24, 96, 200), max_history=200),
    "tag13": TageConfig(tag_bits=13),
    "tag10": TageConfig(tag_bits=10),
    "tag8-small": TageConfig(tagged_entries=64, tag_bits=8,
                             history_lengths=(3, 3, 17, 50), max_history=60),
}

# (is_call, pc word, taken), a call for one event in four; calls push
# a 1 and look nothing up.  At least 260 events, so even the 200-bit
# history pushes bits out of every table.
_EVENTS = st.lists(
    st.tuples(st.sampled_from((False, False, False, True)),
              st.integers(0, (1 << 30) - 1), st.booleans()),
    min_size=260, max_size=500,
)


def _entries(tage: Tage) -> list[tuple[int, int, int]]:
    return [(e.tag, e.ctr, e.useful) for rows in tage._tables for e in rows]


@pytest.mark.parametrize("geometry", GEOMETRIES.values(), ids=GEOMETRIES.keys())
@settings(max_examples=12, deadline=None)
@given(events=_EVENTS, warmup=st.lists(st.booleans(), max_size=150))
def test_packed_tage_lanes_match_the_folded_history_reference(geometry, events, warmup):
    """Keys and training of the packed closure against the reference,
    from an empty history and from one pushed beforehand."""
    reference = Tage(geometry)
    packed = Tage(geometry)
    for bit in warmup:
        reference.update_history(bit)
        packed.update_history(bit)
    update = packed.make_update_fused()
    for is_call, word, taken in events:
        pc = word << 2
        if is_call:
            update(None, True)
            reference.update_history(True)
            continue
        assert update.keys(pc) == reference._keys(pc)
        assert update(pc, taken) == reference.update(pc, taken)
        reference.update_history(taken)
    assert _entries(packed) == _entries(reference)
    assert packed._base == reference._base
    assert packed._rng.getstate() == reference._rng.getstate()


def test_packed_tage_closure_leaves_the_tage_history_alone():
    tage = Tage()
    tage.update_history(True)
    before = (tage.history.value, [f.value for f in tage.history._folds])
    update = tage.make_update_fused()
    for pc in range(0, 4000, 4):
        update(pc, pc % 12 == 0)
    update(None, True)
    assert (tage.history.value, [f.value for f in tage.history._folds]) == before


def test_tage_geometry_must_mask_its_index():
    with pytest.raises(ValueError):
        TageConfig(tagged_entries=1000)
    with pytest.raises(ValueError):
        TageConfig(tag_bits=1)


# ---------------------------------------------------------------------------
# PAP: the fetch closure's keys == compute_key over a live history
# ---------------------------------------------------------------------------

_LOAD = int(OpClass.LOAD)
_BLOCKED_PCS = (0x1000, 0x2004, 0x3008, 0x400C)
# (pc word, load slot or None for a load beyond the per-group limit,
# which LSCD-blocked PC to use instead, if below 4).  At least 40 loads,
# so the 32-bit history fills.
_LOADS = st.lists(
    st.tuples(st.integers(0, (1 << 44) - 1), st.sampled_from((0, 1, None)),
              st.integers(0, 9)),
    min_size=40, max_size=300,
)


@pytest.mark.parametrize("history_bits", (2, 16, 32))
@settings(max_examples=40, deadline=None)
@given(loads=_LOADS)
def test_pap_closure_keys_match_compute_key(history_bits, loads):
    engine = DlvpEngine(DlvpConfig(pap=PapConfig(history_bits=history_bits)))
    for pc in _BLOCKED_PCS:
        engine.lscd.insert(pc)
    reference = engine.predictor
    fetch = engine.make_flat_fetch()
    fga_mask = ~(FETCH_GROUP_BYTES - 1)
    for word, slot, pick in loads:
        pc = _BLOCKED_PCS[pick] if pick < len(_BLOCKED_PCS) else word << 2
        blocked = pc in _BLOCKED_PCS and slot is not None
        expected = (
            None if slot is None or blocked
            else reference.compute_key((pc & fga_mask) | (slot << 2))
        )
        got = fetch(pc, _LOAD, pc, 8, 0, 1, (0,), 0, slot, 2)
        if slot is None:
            assert got is None
        elif blocked:
            assert got[2] is _FLAT_BLOCKED
        else:
            assert got[2] == (*expected, None)
        # every load walks the path, blocked and beyond-slot ones too
        reference.history.push_load(pc)
