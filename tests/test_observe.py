"""Tests for repro.observe: records, their projections, CLI integration.

The two properties that matter most:

* **Zero semantic overhead** — a record rides the production loop and
  changes nothing per instruction, so a recorded run's result is the
  untraced one bit for bit (plus interval rows).
* **Event fidelity** — the interval rows must reconcile with the
  aggregate counters the simulation reports anyway.
"""

import json

import pytest

from repro.__main__ import main
from repro.faults import FaultInjected, FaultPlan
from repro.observe import (
    FaultTripwire,
    RunRecord,
    chrome_events,
    flight_tail,
    render_report,
    run_traced,
    write_chrome_trace,
)
from repro.pipeline import SimResult, simulate
from repro.runtime import Runtime
from repro.runtime.registry import get_scheme
from repro.workloads import build_workload

SCHEME_IDS = ("dlvp", "cap", "vtage", "dvtage", "tournament")


def _trace(n=3000, name="aifirf"):
    return build_workload(name, n)


def _recorded(n, scheme_id="dlvp", **record_kwargs):
    """A finished record of ``scheme_id`` on ``n`` aifirf instructions."""
    record = RunRecord(**record_kwargs)
    simulate(_trace(n), scheme=get_scheme(scheme_id).build(), record=record)
    return record


class TestZeroOverheadContract:
    @pytest.mark.parametrize("scheme_id", (None,) + SCHEME_IDS)
    def test_traced_run_bit_identical(self, scheme_id):
        trace = _trace()
        build = (lambda: None) if scheme_id is None else get_scheme(scheme_id).build
        untraced = simulate(trace, scheme=build())
        traced = simulate(trace, scheme=build(), record=RunRecord(interval=700))
        u, t = untraced.to_dict(), traced.to_dict()
        assert u.pop("intervals") is None
        assert t.pop("intervals")
        assert u == t


class TestIntervalMetrics:
    def test_rows_reconcile_with_aggregates(self):
        record = RunRecord(interval=1000)
        result = simulate(_trace(6000), scheme=get_scheme("dlvp").build(),
                          record=record)
        rows = result.intervals
        assert rows is not None and len(rows) == 6
        assert rows[0]["start"] == 0
        assert rows[-1]["end"] == result.instructions
        assert all(rows[i]["end"] == rows[i + 1]["start"]
                   for i in range(len(rows) - 1))
        assert sum(r["cycles"] for r in rows) == result.cycles
        assert sum(r["value_predictions"] for r in rows) == \
            result.value_predictions
        assert sum(r["value_correct"] for r in rows) == \
            result.value_predictions - result.value_mispredictions
        assert sum(r["recoveries_value"] for r in rows) == \
            result.flushes.value
        assert sum(r["recoveries_branch"] for r in rows) == \
            result.flushes.branch
        assert sum(r["loads"] for r in rows) == result.loads
        assert sum(r["probes"] for r in rows) == result.scheme_stats.probes

    def test_confidence_ramp_visible(self):
        # The FPC confidence ramp: early intervals must show lower
        # coverage than late ones on a DLVP-friendly workload.
        result = _recorded(24000, interval=8000).result
        rows = result.intervals
        assert rows[0]["coverage"] < rows[-1]["coverage"]

    def test_intervals_survive_serialization(self):
        result = _recorded(3000, interval=1000).result
        round_tripped = SimResult.from_dict(result.to_dict())
        assert round_tripped.intervals == result.intervals

    def test_render_report(self):
        result = _recorded(2000, interval=1000).result
        text = render_report(result.intervals)
        assert "cov%" in text and "0-1000" in text
        assert render_report([]) == "(no interval data)"

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            RunRecord(interval=0)


class TestSchemaVersioning:
    def test_v3_roundtrip(self):
        result = simulate(_trace(1000))
        data = result.to_dict()
        assert data["schema"] == 3
        assert "intervals" in data
        assert SimResult.from_dict(data).to_dict() == data

    def test_v2_payload_still_loads(self):
        data = simulate(_trace(1000)).to_dict()
        data.pop("intervals")
        data["schema"] = 2
        loaded = SimResult.from_dict(data)
        assert loaded.intervals is None
        assert loaded.cycles == data["cycles"]

    def test_unknown_schema_rejected(self):
        data = simulate(_trace(1000)).to_dict()
        data["schema"] = 99
        with pytest.raises(ValueError):
            SimResult.from_dict(data)


class TestChromeTrace:
    def test_export_loads_as_trace_event_json(self, tmp_path):
        record = _recorded(6000, interval=1000)
        out = tmp_path / "out.trace.json"
        write_chrome_trace(chrome_events(record), out)
        payload = json.loads(out.read_text())
        events = payload["traceEvents"]
        assert isinstance(events, list) and events
        phases = {e["ph"] for e in events}
        assert "i" in phases          # instant events
        assert "C" in phases          # per-interval counter tracks
        assert "M" in phases          # thread-name metadata
        for e in events:
            assert {"ph", "name", "pid", "tid"} <= set(e)
            if e["ph"] != "M":
                assert isinstance(e["ts"], int)
        names = {e["name"] for e in events}
        assert {"run_start", "commit", "recovery", "run_end", "ipc",
                "coverage", "accuracy", "probes"} <= names
        counters = [e for e in events if e["name"] == "coverage"]
        assert len(counters) == 6     # one per interval row
        recoveries = [e for e in events if e["name"] == "recovery"]
        assert len(recoveries) == len(record.flushes)
        assert {e["args"]["reason"] for e in recoveries} <= {"branch", "value"}

    def test_commit_sampling_bounds_size(self):
        record = _recorded(3000)
        dense = chrome_events(record, commit_sample=1)
        sparse = chrome_events(record, commit_sample=64)
        dense_commits = sum(1 for e in dense if e["name"] == "commit")
        sparse_commits = sum(1 for e in sparse if e["name"] == "commit")
        assert dense_commits == 3000
        assert dense_commits > sparse_commits * 32
        cycles = [e["ts"] for e in dense if e["name"] == "commit"]
        assert cycles == sorted(cycles) and cycles[0] > 0


class TestFlightRecorder:
    def test_ring_keeps_last_n(self):
        record = _recorded(3000)
        seen, tail = flight_tail(record, capacity=16)
        assert len(tail) == 16
        assert seen > 16
        assert seen == 3000 + len(record.flushes) + 2   # + run_start/_end
        assert tail[-1]["kind"] == "run_end"
        assert tail[-2] == {"kind": "commit", "index": 2999,
                            "cycle": record.result.cycles}
        _, whole = flight_tail(record, capacity=10_000)
        assert whole[0]["kind"] == "run_start"
        assert len(whole) == seen

    def test_tripwire_raises_mid_run(self):
        plan = FaultPlan.parse("raise@aifirf/dlvp")
        rule = plan.rule_for("aifirf", "dlvp", 1, "key")
        tripwire = FaultTripwire(rule)
        record = RunRecord(tripwire=tripwire)
        with pytest.raises(FaultInjected, match="instruction 1500") as info:
            simulate(_trace(3000), scheme=get_scheme("dlvp").build(),
                     record=record)
        assert tripwire.tripped
        # The failure point: instruction 1500 committed, 1501 did not.
        assert record.committed() == 1501
        _, tail = flight_tail(record, capacity=8)
        assert tail[-1]["kind"] == "commit" and tail[-1]["index"] == 1500
        assert str(info.value).endswith(
            f"at instruction 1500, cycle {tail[-1]['cycle']}"
        )

    def test_tripwire_at_the_last_instruction_and_past_the_end(self):
        rule = FaultPlan.parse("raise@aifirf/dlvp").rules[0]
        trace = _trace(2000)
        n = len(trace)
        last = FaultTripwire(rule, trip_at=n - 1)
        with pytest.raises(FaultInjected, match=f"at instruction {n - 1}, "):
            simulate(trace, scheme=get_scheme("dlvp").build(),
                     record=RunRecord(tripwire=last))
        beyond = FaultTripwire(rule, trip_at=n)
        record = RunRecord(tripwire=beyond)
        simulate(trace, scheme=get_scheme("dlvp").build(), record=record)
        assert not beyond.tripped and record.committed() == n

    def test_tripwire_requires_raise_rule(self):
        plan = FaultPlan.parse("crash@*/*")
        with pytest.raises(ValueError):
            FaultTripwire(plan.rules[0])

    def test_run_traced_dumps_flight_on_fault(self, tmp_path):
        plan = FaultPlan.parse("raise@aifirf/dlvp")
        rule = plan.rule_for("aifirf", "dlvp", 1, "key")
        out = tmp_path / "run.trace.json"

        class MemoryJournal:
            def __init__(self):
                self.events = []

            def event(self, kind, **fields):
                self.events.append((kind, fields))

        journal = MemoryJournal()
        with pytest.raises(FaultInjected):
            run_traced(_trace(3000), scheme=get_scheme("dlvp").build(),
                       tripwire=FaultTripwire(rule), out=out, journal=journal)
        dump_path = tmp_path / "run.trace.flight.json"
        assert dump_path.exists()
        dump = json.loads(dump_path.read_text())
        assert set(dump) == {"events_seen", "capacity", "tail"}
        assert dump["tail"] and dump["events_seen"] > 0
        assert len(dump["tail"]) == dump["capacity"] == 256
        assert dump["tail"][-1] == {"kind": "commit", "index": 1500,
                                    "cycle": dump["tail"][-1]["cycle"]}
        kinds = [k for k, _ in journal.events]
        assert kinds == ["flight_recorder_dump"]
        fields = journal.events[0][1]
        assert set(fields) == {"trace", "scheme", "error", "events_seen",
                               "dump_path", "tail"}
        assert fields["trace"] == "aifirf" and fields["scheme"] == "dlvp"
        assert "FaultInjected" in fields["error"]
        assert fields["events_seen"] == dump["events_seen"]
        assert fields["dump_path"] == str(dump_path)
        assert fields["tail"] == dump["tail"][-32:]
        assert not out.exists()       # no chrome trace for a dead run

    def test_run_traced_success_writes_chrome_trace(self, tmp_path):
        out = tmp_path / "ok.trace.json"
        run = run_traced(_trace(2000), scheme=get_scheme("dlvp").build(),
                         out=out)
        assert run.result is not None and run.result.intervals
        assert json.loads(out.read_text())["traceEvents"]


class TestRuntimeIntegration:
    def test_traced_jobs_write_artifacts(self, tmp_path):
        runtime = Runtime(jobs=1, cache_dir=tmp_path / "cache",
                          trace_dir=tmp_path / "traces")
        grid = runtime.run_grid(["baseline", "dlvp"], ["aifirf"], 2000)
        assert grid.result("dlvp", "aifirf").intervals
        assert (tmp_path / "traces" / "aifirf-dlvp.trace.json").exists()
        assert (tmp_path / "traces" / "aifirf-baseline.trace.json").exists()

    def test_traced_jobs_bypass_cache_reads(self, tmp_path):
        # warm the cache untraced...
        Runtime(jobs=1, cache_dir=tmp_path / "c").run_grid(
            ["dlvp"], ["aifirf"], 2000
        )
        # ...then a traced run of the same cell must still execute (the
        # artifacts are the point of tracing)
        runtime = Runtime(jobs=1, cache_dir=tmp_path / "c",
                          trace_dir=tmp_path / "t")
        runtime.run_grid(["dlvp"], ["aifirf"], 2000)
        assert runtime.journal.count("cache_hit") == 0
        assert (tmp_path / "t" / "aifirf-dlvp.trace.json").exists()


class TestCli:
    @pytest.fixture(autouse=True)
    def isolated_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        self.tmp_path = tmp_path

    def test_trace_command(self, capsys):
        out = self.tmp_path / "t.trace.json"
        assert main(["trace", "aifirf", "--scheme", "dlvp",
                     "--out", str(out), "--instructions", "3000",
                     "--interval", "1000"]) == 0
        printed = capsys.readouterr()
        assert "cov%" in printed.out
        events = json.loads(out.read_text())["traceEvents"]
        assert {"commit", "recovery"} <= {
            e["name"] for e in events if e["ph"] == "i"
        }
        assert any(e["ph"] == "C" for e in events)

    def test_trace_unknown_scheme(self):
        assert main(["trace", "aifirf", "--scheme", "bogus"]) == 2

    def test_observe_report_after_trace(self, capsys):
        out = self.tmp_path / "t.trace.json"
        assert main(["trace", "aifirf", "--out", str(out),
                     "--instructions", "3000", "--interval", "1000"]) == 0
        capsys.readouterr()
        assert main(["observe", "report"]) == 0
        report = capsys.readouterr().out
        assert "aifirf/dlvp" in report and "cov%" in report

    def test_observe_report_no_journal(self, capsys):
        assert main(["observe", "report",
                     "--journal", str(self.tmp_path / "missing.jsonl")]) == 2

    def test_trace_with_raise_fault(self, capsys):
        out = self.tmp_path / "f.trace.json"
        assert main(["trace", "aifirf", "--out", str(out),
                     "--instructions", "3000",
                     "--fault", "raise@aifirf/dlvp"]) == 1
        err = capsys.readouterr().err
        assert "flight recorder tail" in err
        assert (self.tmp_path / "f.trace.flight.json").exists()

    def test_run_with_trace_flag(self, capsys):
        traces = self.tmp_path / "traces"
        assert main(["run", "aifirf", "--instructions", "2000",
                     "--trace", str(traces)]) == 0
        assert (traces / "aifirf-dlvp.trace.json").exists()
