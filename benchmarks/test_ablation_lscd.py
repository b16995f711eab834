"""Ablation — LSCD on/off (Section 3.2.2).

Without the 4-entry Load-Store Conflict Detector, loads racing in-flight
stores keep getting value-predicted from stale cache contents and flush
the pipe; the in-flight-conflict-heavy workloads quantify the damage.
"""

from conftest import bench_cache, make_runner  # noqa: F401  (fixture re-export)

from repro.core import DlvpConfig
from repro.experiments.runner import arithmetic_mean, format_table
from repro.pipeline import DlvpScheme

CONFLICT_HEAVY = ["puwmod", "fbital", "queueing", "avmshell", "gcc",
                  "perlbench", "sunspider"]


def test_ablation_lscd(benchmark, bench_cache):
    runner = make_runner(bench_cache, CONFLICT_HEAVY)

    def sweep():
        out = {}
        for entries in (0, 4):
            cfg = DlvpConfig(lscd_entries=entries)
            runs = runner.run_scheme(lambda cfg=cfg: DlvpScheme(cfg))
            out[entries] = {
                "speedup": arithmetic_mean(runner.speedups(runs).values()),
                "flushes": sum(r.flushes.value for r in runs.values()),
                "accuracy": arithmetic_mean(r.value_accuracy for r in runs.values()),
            }
        return out

    result = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print("Ablation — LSCD (conflict-heavy workloads)")
    rows = [
        [("off" if e == 0 else f"{e} entries"), f"{v['speedup']:+7.2%}",
         str(v["flushes"]), f"{v['accuracy']:7.2%}"]
        for e, v in result.items()
    ]
    print(format_table(["lscd", "avg speedup", "value flushes", "accuracy"], rows))

    # The filter's whole purpose: far fewer value flushes, better or
    # equal accuracy and performance.
    assert result[4]["flushes"] < result[0]["flushes"]
    assert result[4]["accuracy"] >= result[0]["accuracy"]
    assert result[4]["speedup"] >= result[0]["speedup"] - 0.002
