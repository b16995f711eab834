"""Synthetic workload suite.

The paper evaluates on SPEC2K, SPEC2K6, EEMBC and a set of JS/media
workloads compiled for ARM — none of which can ship here.  Instead,
each benchmark name maps to a deterministic, seeded generator built
from a dozen kernel families whose load/store behaviour reproduces the
statistics the paper's mechanisms key on: address/value repeatability
(Figure 2), committed vs in-flight load-store conflicts (Figure 1),
multi-destination-load frequency (Section 5.2.2), and path-correlated
addresses (PAP vs CAP).

Every generator executes against a real :class:`repro.memory.MemoryImage`,
so loaded values are genuinely produced by prior stores — conflicts are
real, not annotated.
"""

from repro.workloads.base import WorkloadBuilder, WorkloadSpec
from repro.workloads.suite import (
    PAPER_GROUPS,
    SUITE,
    SUITE_GROUPS,
    workload_names,
    build_workload,
    build_workload_columnar,
)

__all__ = [
    "WorkloadBuilder",
    "WorkloadSpec",
    "PAPER_GROUPS",
    "SUITE",
    "SUITE_GROUPS",
    "workload_names",
    "build_workload",
    "build_workload_columnar",
]
