"""Frozen renders of the trace-only figures: 1, 2 and 4.

Figures 1 (load-store conflicts), 2 (address/value repeatability) and
4 (standalone PAP against CAP) are computed from traces alone, through
``SuiteRunner.traces``, the trace profilers and the standalone
predictor drivers.  This file pins each figure's ``render()`` text for
``test_experiments.py``'s small workload set at 3,000 instructions, so
any change to how the figures read their traces that moves a number, a
row or a label shows up here.  Regenerate only after a deliberate change
to a workload generator, a profiler or a standalone predictor::

    PYTHONPATH=src python tests/test_frozen_figures.py --regen
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

from repro.experiments import SuiteRunner

FROZEN_PATH = Path(__file__).parent / "frozen_figures.json"
# test_experiments.py's SMALL set.
WORKLOADS = ["perlbmk", "gzip", "nat", "vortex"]
N_INSTRUCTIONS = 3_000
FIGURES = {
    "1": "fig1_conflicts",
    "2": "fig2_repeatability",
    "4": "fig4_address_prediction",
}


def render(figure: str) -> str:
    """Figure ``figure``'s rendered table over the small set."""
    module = importlib.import_module(f"repro.experiments.{FIGURES[figure]}")
    runner = SuiteRunner(n_instructions=N_INSTRUCTIONS, names=WORKLOADS)
    return module.run(runner).render()


@pytest.fixture(scope="module")
def frozen() -> dict:
    assert FROZEN_PATH.exists(), (
        f"{FROZEN_PATH} missing — regenerate with "
        f"`python {Path(__file__).name} --regen`"
    )
    return json.loads(FROZEN_PATH.read_text())


def test_frozen_figures_cover_the_trace_only_figures(frozen):
    assert frozen["workloads"] == WORKLOADS
    assert frozen["n_instructions"] == N_INSTRUCTIONS
    assert set(frozen["figures"]) == set(FIGURES)


@pytest.mark.parametrize("figure", sorted(FIGURES))
def test_figure_render_matches_frozen(frozen, figure):
    assert render(figure) == frozen["figures"][figure]


def _regen() -> None:
    figures = {figure: render(figure) for figure in sorted(FIGURES)}
    FROZEN_PATH.write_text(json.dumps(
        {"workloads": WORKLOADS, "n_instructions": N_INSTRUCTIONS,
         "figures": figures},
        indent=1, sort_keys=True,
    ) + "\n")
    print(f"wrote {FROZEN_PATH} ({len(figures)} figures)")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
