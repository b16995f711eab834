"""Three-level memory hierarchy with TLB and stride prefetching.

Latency model: an access that misses at level N pays N's latency and
continues downward; the total is the sum of latencies down to the first
hitting level (memory on a full miss).  Fills propagate back up so the
block is resident at every level afterwards — an inclusive hierarchy,
the simplest arrangement consistent with the paper's configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.memory.cache import Cache, CacheConfig
from repro.memory.prefetcher import StridePrefetcher
from repro.memory.tlb import Tlb, TlbConfig


@dataclass(frozen=True)
class HierarchyConfig:
    """Table 4 memory-hierarchy parameters."""

    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            name="l1d", size_bytes=64 * 1024, associativity=4, block_bytes=64, latency=2
        )
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            name="l2", size_bytes=512 * 1024, associativity=8, block_bytes=128, latency=16
        )
    )
    l3: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            name="l3", size_bytes=8 * 1024 * 1024, associativity=16, block_bytes=128, latency=32
        )
    )
    memory_latency: int = 200
    tlb: TlbConfig = field(default_factory=TlbConfig)
    prefetch: bool = True


class AccessResult:
    """Outcome of one demand access.

    A ``__slots__`` plain class rather than a dataclass: one is built
    per demand access on the simulator hot path.
    """

    __slots__ = ("latency", "l1_hit", "tlb_hit", "way")

    def __init__(self, latency: int, l1_hit: bool, tlb_hit: bool, way: int) -> None:
        self.latency = latency
        self.l1_hit = l1_hit
        self.tlb_hit = tlb_hit
        self.way = way


class MemoryHierarchy:
    """L1D + L2 + L3 + memory, with TLB and an L1 stride prefetcher."""

    def __init__(self, config: HierarchyConfig | None = None) -> None:
        self.config = config or HierarchyConfig()
        self.l1d = Cache(self.config.l1d)
        self.l2 = Cache(self.config.l2)
        self.l3 = Cache(self.config.l3)
        self.tlb = Tlb(self.config.tlb)
        self.prefetcher = StridePrefetcher() if self.config.prefetch else None
        self.demand_accesses = 0
        self.prefetch_fills = 0
        self._l1_latency = self.config.l1d.latency
        # The TLB's backing cache array and miss penalty, resolved once:
        # every demand access and every DLVP probe translates, so the
        # Tlb.access wrapper call was pure hot-path overhead.  The cache
        # internals aliased below are created once by Cache.__init__ and
        # only ever mutated in place, so the references stay valid.
        self._tlb_array = self.tlb._array
        self._tlb_penalty = self.tlb.config.miss_penalty
        tlb_array = self._tlb_array
        self._tlb_shift = tlb_array._set_shift
        self._tlb_mask = tlb_array._set_mask
        self._tlb_where = tlb_array._where
        self._tlb_lru = tlb_array._lru
        self._tlb_stats = tlb_array.stats
        l1 = self.l1d
        self._l1_shift = l1._set_shift
        self._l1_mask = l1._set_mask
        self._l1_where = l1._where
        self._l1_lru = l1._lru
        self._l1_stats = l1.stats

    def access(self, pc: int, addr: int, is_store: bool = False) -> AccessResult:
        """Demand load/store; returns latency and placement information.

        The TLB and L1 hit paths are inlined copies of
        :meth:`Cache.access` — one demand access per memory instruction
        makes this the hottest hierarchy entry point.
        """
        self.demand_accesses += 1
        block = addr >> self._tlb_shift
        set_idx = block & self._tlb_mask
        way = self._tlb_where[set_idx].get(block)
        if way is not None:
            lru = self._tlb_lru[set_idx]
            if lru[0] != way:
                lru.remove(way)
                lru.insert(0, way)
            self._tlb_stats.hits += 1
            tlb_hit = True
            latency = self._l1_latency
        else:
            self._tlb_stats.misses += 1
            self._tlb_array.fill(addr)
            tlb_hit = False
            latency = self._l1_latency + self._tlb_penalty
        block = addr >> self._l1_shift
        set_idx = block & self._l1_mask
        way = self._l1_where[set_idx].get(block)
        if way is not None:
            lru = self._l1_lru[set_idx]
            if lru[0] != way:
                lru.remove(way)
                lru.insert(0, way)
            self._l1_stats.hits += 1
            l1_hit = True
        else:
            self._l1_stats.misses += 1
            way = self.l1d.fill(addr)
            l1_hit = False
            latency += self._fill_from_below(addr)
        if self.prefetcher is not None and not is_store:
            for target in self.prefetcher.observe(pc, addr):
                self.prefetch_fill(target)
        return AccessResult(latency, l1_hit, tlb_hit, way)

    def probe_l1(self, addr: int) -> tuple[bool, int | None]:
        """DLVP speculative probe: L1 residency check, non-allocating
        for the cache but translated through the TLB — probing twice per
        predicted load perturbs TLB contents, the second-order effect
        behind the paper's Figure 9 bzip2/avmshell anomalies.

        TLB access and L1 probe bodies inlined, as in :meth:`access`.
        """
        block = addr >> self._tlb_shift
        set_idx = block & self._tlb_mask
        way = self._tlb_where[set_idx].get(block)
        if way is not None:
            lru = self._tlb_lru[set_idx]
            if lru[0] != way:
                lru.remove(way)
                lru.insert(0, way)
            self._tlb_stats.hits += 1
        else:
            self._tlb_stats.misses += 1
            self._tlb_array.fill(addr)
        block = addr >> self._l1_shift
        way = self._l1_where[block & self._l1_mask].get(block)
        if way is not None:
            self._l1_stats.probe_hits += 1
            return True, way
        self._l1_stats.probe_misses += 1
        return False, None

    def prefetch_fill(self, addr: int) -> None:
        """Bring ``addr`` into L1 (checking L1 first, as the paper's
        L1 prefetcher does) without counting as a demand access."""
        hit, _ = self.l1d.probe(addr)
        if hit:
            return
        self._fill_from_below(addr)
        self.prefetch_fills += 1

    def _fill_from_below(self, addr: int) -> int:
        """Walk L2 -> L3 -> memory; fill upward.  Returns added latency."""
        latency = self.config.l2.latency
        l2_hit, _ = self.l2.access(addr)
        if not l2_hit:
            latency += self.config.l3.latency
            l3_hit, _ = self.l3.access(addr)
            if not l3_hit:
                latency += self.config.memory_latency
        self.l1d.fill(addr)
        return latency
