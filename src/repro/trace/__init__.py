"""Dynamic instruction traces and trace-level analyses.

The paper's Figures 1 and 2 are properties of the workloads themselves
(load-store conflict mix and address/value repeatability); they are
computed here directly from traces, independent of any predictor.

Two trace containers share one read surface: :class:`Trace` (a list of
:class:`~repro.isa.Instruction` objects) and :class:`ColumnarTrace`
(struct-of-arrays, the simulator's fast path).  Conversion between them
is lossless; serialization writes and reads the v4 binary columnar
format.
"""

from repro.trace.trace import Trace, TraceSummary
from repro.trace.columnar import ColumnarTrace
from repro.trace.profiling import (
    ConflictProfile,
    RepeatabilityProfile,
    load_store_conflicts,
    repeatability,
)
from repro.trace.serialization import (
    iter_trace_chunks,
    load_trace,
    load_trace_columnar,
    map_v4_columns,
    save_trace,
    v4_bytes,
)
from repro.trace.share import (
    TraceHandle,
    TraceStore,
    attach,
    gc_orphans,
    shm_available,
)

__all__ = [
    "Trace",
    "TraceSummary",
    "ColumnarTrace",
    "ConflictProfile",
    "RepeatabilityProfile",
    "load_store_conflicts",
    "repeatability",
    "iter_trace_chunks",
    "load_trace",
    "load_trace_columnar",
    "map_v4_columns",
    "save_trace",
    "v4_bytes",
    "TraceHandle",
    "TraceStore",
    "attach",
    "gc_orphans",
    "shm_available",
]
