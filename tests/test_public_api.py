"""Public API surface tests."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro


class TestApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_snippet(self):
        from repro import build_workload, simulate, DlvpScheme
        trace = build_workload("perlbmk", n_instructions=2000)
        baseline = simulate(trace)
        dlvp = simulate(trace, scheme=DlvpScheme())
        assert isinstance(dlvp.speedup_over(baseline), float)

    def test_subpackages_importable(self):
        for mod in ("repro.isa", "repro.trace", "repro.workloads",
                    "repro.memory", "repro.branch", "repro.mdp",
                    "repro.predictors", "repro.core", "repro.pipeline",
                    "repro.energy", "repro.experiments"):
            importlib.import_module(mod)

    def test_experiment_modules_importable(self):
        for mod in ("fig1_conflicts", "fig2_repeatability",
                    "fig4_address_prediction", "fig5_prefetch",
                    "fig6_value_prediction", "fig7_vtage_flavors",
                    "fig8_tournament", "fig9_selected", "fig10_recovery",
                    "tables", "runner"):
            importlib.import_module(f"repro.experiments.{mod}")


_NUMPY_PROBE = """
import sys
import repro, repro.__main__, repro.runtime, repro.serve, repro.observe, repro.experiments
from repro.pipeline import simulate
from repro.runtime.registry import get_scheme
from repro.workloads import build_workload_columnar

trace = build_workload_columnar("perlbmk", 3_000)
for scheme in ("baseline", "dlvp", "cap", "vtage", "dvtage", "tournament"):
    simulate(trace, get_scheme(scheme).build())
print("numpy" in sys.modules)
"""


def test_no_code_path_imports_numpy():
    """The package is stdlib-only: with numpy installed, importing every
    entry point and simulating every scheme leaves it unimported."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import pytest

    pytest.importorskip("numpy")
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.split() == ["False"]
