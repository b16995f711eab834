"""Baseline core configuration (Table 4)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CoreConfig:
    """Parameters of the modelled core, Skylake-like per the paper."""

    fetch_width: int = 4              # fetch through rename: 4 instr/cycle
    issue_width: int = 8              # issue through commit: 8 instr/cycle
    ls_lanes: int = 2                 # execution lanes supporting load-store
    generic_lanes: int = 6
    rob_entries: int = 224
    iq_entries: int = 97
    ldq_entries: int = 72
    stq_entries: int = 56
    physical_registers: int = 348
    fetch_to_execute: int = 13        # cycles from fetch to earliest execute
    rename_depth: int = 10            # fetch -> rename (predicted values must
                                      # reach the VPE by this point)
    commit_width: int = 8
    branch_resolution_latency: int = 1
    value_validation_penalty: int = 1  # exposed only on a value mispredict
    store_forward_latency: int = 1

    def __post_init__(self) -> None:
        if self.fetch_width <= 0 or self.issue_width <= 0:
            raise ValueError("pipeline widths must be positive")
        if self.rename_depth >= self.fetch_to_execute:
            raise ValueError("rename must precede earliest execute")
        if self.ls_lanes + self.generic_lanes != self.issue_width:
            raise ValueError("execution lanes must sum to the issue width")
        if min(self.rob_entries, self.ldq_entries, self.stq_entries) <= 0:
            raise ValueError("ROB, LDQ and STQ sizes must be positive")
