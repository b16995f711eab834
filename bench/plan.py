"""Benchmark workloads: what each one runs, generated from ``--seed``.

The program under test only ever receives the names generated here.
Seed 0 gives the documented lists (see README.md); any other seed draws
replacements deterministically from the same pools.

Pools are chosen so that a seed changes *which* inputs run but not how
much host work they cost: a grid slot's pool holds workloads of the
same kernel family whose serial host cost (trace build plus all six
schemes at 20k instructions) was within 8% of the seed-0 workload's at
the seed commit.  Slots whose workload has no such sibling keep it for
every seed.  That keeps the run-to-run spread of a metric a measure of
the host, not of the draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ALL_SCHEMES = ("baseline", "dlvp", "cap", "vtage", "dvtage", "tournament")

# grid-cold: one pool per slot; the first entry is the seed-0 name.
GRID_COLD_POOLS = (
    ("gzip", "conven", "text_eembc", "bzip2_2k", "parser", "bitmnp", "bzip2"),
    ("perlbmk",),
    ("nat", "routelookup"),
    ("mcf", "mcf6", "pntrch"),
    ("aifirf", "tblook", "espresso", "sjeng", "rspeed", "ttsprk", "canrdr"),
    ("avmshell", "dromaeo", "v8_richards", "sunspider"),
)

# conflict-replay: the two adversarial store floods plus the paper's two
# conflict-heavy programs (perlbmk's spill/reload conflicts, avmshell's
# stack conflicts).  Nothing else in the suite has these patterns, so
# every seed runs the same four names.
CONFLICT_POOLS = (("storeflood",), ("storeflood_lite",), ("perlbmk",),
                  ("avmshell",))

# farm-mixed: a fixed set of 48 paper workloads (the first 48 in
# registry order).  The seed permutes which of them are shared between
# tenants, fresh, or repeated, so every seed simulates the same set.
FARM_POOL = (
    "gzip", "vpr", "gcc", "mcf", "crafty", "parser", "perlbmk", "gap",
    "vortex", "twolf", "eon", "bzip2_2k", "perlbench", "bzip2", "gcc6",
    "mcf6", "gobmk", "hmmer", "sjeng", "libquantum", "h264ref", "omnetpp",
    "astar", "xalancbmk", "soplex", "namd", "lbm", "milc", "povray",
    "sphinx3", "a2time", "aifftr", "aifirf", "aiifft", "basefp", "bitmnp",
    "cacheb", "canrdr", "idctrn", "iirflt", "matrix_eembc", "pntrch",
    "puwmod", "rspeed", "tblook", "ttsprk", "dither", "rotate",
)
FARM_TENANTS = (
    ("alice", ("baseline", "dlvp", "vtage")),
    ("bob", ("baseline", "dlvp", "cap")),
)
FARM_GRIDS = 16


@dataclass(frozen=True)
class Plan:
    """Everything one benchmark workload runs.

    ``kind`` is ``"runtime"`` (one ``Runtime.run_grid`` per round) or
    ``"farm"`` (a ``repro serve`` gateway fed by two tenants).  For a
    farm, ``grids`` lists the rounds of concurrent submissions: one
    ``{tenant: workloads}`` dict per round, and ``schemes`` is unused.
    """

    name: str
    kind: str
    n: int
    jobs: int
    recovery: str = "flush"
    schemes: tuple[str, ...] = ()
    workloads: tuple[str, ...] = ()
    grids: tuple[dict, ...] = ()
    setup_spawns: int = 7

    @property
    def first_workload(self) -> str:
        if self.kind == "farm":
            return self.grids[0][FARM_TENANTS[0][0]][0]
        return self.workloads[0]

    def runtime_grids(self) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
        """(schemes, workloads) grids that simulate every cell of the plan.

        A farm's cells become one grid per tenant: run one after the
        other on one cache, the second tenant's cells in common with the
        first are cache hits, so each unique cell simulates once, as it
        does in the farm.
        """
        if self.kind == "runtime":
            return [(self.schemes, self.workloads)]
        return [(schemes, tuple(dict.fromkeys(
                    w for grid in self.grids for w in grid[tenant])))
                for tenant, schemes in FARM_TENANTS]

    def all_schemes(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(
            s for schemes, _ in self.runtime_grids() for s in schemes))

    def cells_per_round(self) -> int:
        if self.kind == "farm":
            schemes = dict(FARM_TENANTS)
            return sum(len(schemes[t]) * len(ws)
                       for grid in self.grids for t, ws in grid.items())
        return len(self.schemes) * len(self.workloads)


def _draw(pools: tuple[tuple[str, ...], ...], seed: int) -> tuple[str, ...]:
    if seed == 0:
        return tuple(pool[0] for pool in pools)
    rng = random.Random(seed)
    return tuple(rng.choice(pool) for pool in pools)


def farm_grids(seed: int, grids: int = FARM_GRIDS) -> tuple[dict, ...]:
    """Per-round workloads for each tenant.

    Round ``i`` gives both tenants one workload in common (submitted at
    the same moment, so one execution serves both), one workload of
    their own never seen before, and -- from round 2 on -- their own
    fresh workload from round ``i - 2`` again, which the cache answers.
    """
    names = list(FARM_POOL)
    if seed != 0:
        random.Random(seed).shuffle(names)
    (first, _), (second, _) = FARM_TENANTS
    shared = names[:grids]
    fresh = {first: names[grids:2 * grids],
             second: names[2 * grids:3 * grids]}
    rounds = []
    for i in range(grids):
        rounds.append({
            tenant: (shared[i], fresh[tenant][i])
            + ((fresh[tenant][i - 2],) if i >= 2 else ())
            for tenant in (first, second)
        })
    return tuple(rounds)


def make_plan(name: str, seed: int = 0, smoke: bool = False) -> Plan:
    """The plan for benchmark workload ``name`` under ``seed``.

    Sizes are set so one round takes 7-13 s on a 2-core host and a 20 s
    run holds two or three rounds, whose median is the run's value:
    host speed on a shared machine drifts by 5-10% between rounds.
    ``smoke`` shrinks every size so all four workloads run in seconds;
    it exists for the benchmark's own tests, never for measurement.
    """
    spawns = 2 if smoke else 7
    if name == "grid-cold":
        return Plan(name, "runtime", n=2_000 if smoke else 20_000, jobs=2,
                    schemes=ALL_SCHEMES,
                    workloads=_draw(GRID_COLD_POOLS, seed),
                    setup_spawns=spawns)
    if name == "long-trace":
        return Plan(name, "runtime", n=20_000 if smoke else 500_000, jobs=1,
                    schemes=("baseline", "dlvp"), workloads=("perlbmk",),
                    setup_spawns=spawns)
    if name == "conflict-replay":
        return Plan(name, "runtime", n=2_000 if smoke else 60_000, jobs=2,
                    recovery="oracle_replay",
                    schemes=("baseline", "dlvp", "vtage", "tournament"),
                    workloads=_draw(CONFLICT_POOLS, seed),
                    setup_spawns=spawns)
    if name == "farm-mixed":
        return Plan(name, "farm", n=2_000 if smoke else 12_000, jobs=2,
                    grids=farm_grids(seed, 3 if smoke else FARM_GRIDS),
                    setup_spawns=spawns)
    raise KeyError(f"unknown workload {name!r}")
