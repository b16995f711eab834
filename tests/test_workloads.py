"""Tests for the workload suite and its generators."""

import pytest

from repro.isa import OpClass
from repro.memory import MemoryImage
from repro.workloads import (
    PAPER_GROUPS,
    SUITE,
    SUITE_GROUPS,
    build_workload,
    workload_names,
)


class TestSuiteRegistry:
    def test_registry_size(self):
        # 78 paper benchmarks + the adversarial stress workloads
        assert len(SUITE) == 80
        assert len(workload_names()) == 78

    def test_groups_cover_paper_suites(self):
        assert set(SUITE_GROUPS) == {
            "spec2k", "spec2k6", "eembc", "other", "adversarial",
        }
        assert set(PAPER_GROUPS) == set(SUITE_GROUPS) - {"adversarial"}

    def test_default_names_exclude_adversarial(self):
        default = set(workload_names())
        assert "storeflood" not in default
        assert set(workload_names("adversarial")) == {
            "storeflood", "storeflood_lite",
        }
        assert default | set(workload_names("adversarial")) == set(SUITE)

    def test_paper_headliners_present(self):
        for name in ("perlbmk", "nat", "aifirf", "bzip2", "pdfjs", "gcc",
                     "soplex", "avmshell", "h264ref"):
            assert name in SUITE

    def test_workload_names_filtering(self):
        assert len(workload_names("eembc")) == 30
        assert set(workload_names("eembc")) <= set(workload_names())

    def test_unknown_group_raises(self):
        with pytest.raises(KeyError):
            workload_names("bogus")

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError, match="unknown workload"):
            build_workload("nope")


class TestDeterminism:
    def test_same_seed_same_trace(self):
        a = build_workload("gzip", 2000)
        b = build_workload("gzip", 2000)
        assert a.instructions == b.instructions

    def test_different_workloads_differ(self):
        a = build_workload("gzip", 2000)
        b = build_workload("parser", 2000)
        assert a.instructions != b.instructions


class TestBudget:
    @pytest.mark.parametrize("name", ["perlbmk", "mcf", "nat", "h264ref",
                                      "sunspider", "linpack", "tblook",
                                      "puwmod", "gcc"])
    def test_length_near_budget(self, name):
        trace = build_workload(name, 4000)
        assert 3600 <= len(trace) <= 4800

    def test_instruction_mix_sane(self):
        for name in ("perlbmk", "gzip", "vortex"):
            s = build_workload(name, 4000).summary()
            assert s.loads > 0.08 * s.instructions
            assert s.stores > 0
            assert s.branches > 0


class TestValueConsistency:
    """The critical invariant: replaying a trace's stores through a fresh
    MemoryImage must reproduce every load's values — this is what makes
    DLVP's cache probes meaningful."""

    @pytest.mark.parametrize("name", ["perlbmk", "gzip", "nat", "mcf",
                                      "vortex", "aifirf", "avmshell",
                                      "h264ref", "puwmod", "octane"])
    def test_loads_match_replayed_image(self, name):
        trace = build_workload(name, 3000)
        image = MemoryImage()
        for inst in trace:
            if inst.op == OpClass.STORE:
                image.write(inst.mem_addr, inst.mem_size, inst.values[0])
            elif inst.op == OpClass.LOAD:
                for k, value in enumerate(inst.values):
                    got = image.read(inst.mem_addr + k * inst.mem_size,
                                     inst.mem_size)
                    assert got == value, (
                        f"{name}: load at {inst.pc:#x} addr "
                        f"{inst.mem_addr:#x} slot {k}"
                    )


class TestCharacteristics:
    def test_vector_workload_has_vector_loads(self):
        s = build_workload("h264ref", 4000).summary()
        assert s.vector_loads > 0
        assert s.multi_dest_loads > 0

    def test_ldp_workload_has_pairs(self):
        s = build_workload("milc", 4000).summary()
        assert s.multi_dest_loads > 0

    def test_interpreter_has_indirect_branches(self):
        trace = build_workload("avmshell", 4000)
        assert any(i.op == OpClass.INDIRECT for i in trace)

    def test_call_workload_has_calls_and_returns(self):
        trace = build_workload("gcc", 4000)
        ops = {i.op for i in trace}
        assert OpClass.CALL in ops and OpClass.RETURN in ops

    def test_cold_code_present(self):
        from repro.workloads.base import _COLD_CODE_BASE
        trace = build_workload("gzip", 6000)
        cold = sum(1 for i in trace if i.pc >= _COLD_CODE_BASE)
        assert 0.02 * len(trace) < cold < 0.25 * len(trace)

    def test_producer_consumer_has_inflight_conflicts(self):
        from repro.trace import load_store_conflicts
        trace = build_workload("puwmod", 4000)
        profile = load_store_conflicts(trace)
        assert profile.fraction_inflight > 0.05

    def test_committed_conflicts_exist(self):
        from repro.trace import load_store_conflicts
        trace = build_workload("perlbmk", 8000)     # flag-ring rewrites
        # Window 64 = the typical in-flight span (commit lag x IPC),
        # matching the Figure 1 experiment's default.
        profile = load_store_conflicts(trace, window=64)
        assert profile.conflict_committed > 0
        assert profile.committed_share > 0.5


class TestMixedPhases:
    def test_unknown_phase_rejected(self):
        from repro.workloads.base import WorkloadBuilder
        from repro.workloads.kernels import mixed_phases
        with pytest.raises(ValueError, match="unknown phases"):
            mixed_phases(WorkloadBuilder("x"), 100, weights={"bogus": 1.0})

    def test_malformed_phase_param_rejected(self):
        from repro.workloads.base import WorkloadBuilder
        from repro.workloads.kernels import mixed_phases
        with pytest.raises(ValueError, match="malformed"):
            mixed_phases(WorkloadBuilder("x"), 100,
                         weights={"hash": 1.0}, bogus_=1)
