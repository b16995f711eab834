"""Committed architectural memory contents.

The image stores values at 4-byte-word granularity.  Reads of words that
were never written return a deterministic pseudo-random "background"
value derived from the word index, so that probing a *wrong* address
yields a stable value that essentially never coincides with the correct
one (mirroring real memory holding unrelated data).
"""

from __future__ import annotations

_WORD_BYTES = 4
_WORD_MASK = (1 << 32) - 1
_VALUE_MASK = (1 << 64) - 1


def _background(word_index: int) -> int:
    """Deterministic filler contents for never-written words.

    Real process images are zero-heavy (bss, calloc'd heaps, padding),
    so a quarter of the background words read as zero; the rest get a
    SplitMix64-style mix of their index.  The zero mass matters to the
    Figure 2 reproduction: repeated *values* across distinct addresses
    are what give value predictors their slight repeatability edge.
    """
    z = (word_index * 0x9E3779B97F4A7C15) & _VALUE_MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _VALUE_MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _VALUE_MASK
    z = (z ^ (z >> 31)) & _WORD_MASK
    if z & 0b11 == 0:
        return 0
    return z


class MemoryImage:
    """Sparse word-granular memory with deterministic background."""

    def __init__(self) -> None:
        self._words: dict[int, int] = {}
        # Union view: explicit writes plus memoized _background() values
        # (recomputing the SplitMix64 mix for every probed never-written
        # word was a measurable slice of the simulate() hot path).  One
        # dict probe resolves a word; writes update both maps.  Bounded
        # by the workload's address footprint, not trace length.
        self._all: dict[int, int] = {}
        # Background of never-written 8-byte pairs (words 2p and 2p + 1)
        # that 8-byte-aligned reads fetched whole, one entry per pair:
        # half the entries, and half the probes, of memoizing the words
        # one by one.  A write drops the pairs it touches.
        self._pairs: dict[int, int] = {}

    def write(self, addr: int, size: int, value: int) -> None:
        """Store ``size`` bytes of ``value`` at ``addr``.

        ``size`` must be a positive multiple of 4 and ``addr`` 4-byte
        aligned; the workload generators only emit aligned accesses,
        matching the paper's compiled ARM binaries.
        """
        if size <= 0 or size % _WORD_BYTES:
            raise ValueError(f"size must be a positive multiple of 4, got {size}")
        if addr % _WORD_BYTES:
            raise ValueError(f"address must be 4-byte aligned, got {addr:#x}")
        word = addr // _WORD_BYTES
        end = word + size // _WORD_BYTES
        words = self._words
        all_words = self._all
        for w in range(word, end):
            # one key object for both maps
            words[w] = all_words[w] = value & _WORD_MASK
            value >>= 32
        pairs = self._pairs
        if pairs:                   # drop the memoized pairs it overwrote
            for p in range(word >> 1, (end + 1) >> 1):
                pairs.pop(p, None)

    def read(self, addr: int, size: int) -> int:
        """Read ``size`` bytes at ``addr`` as a little-endian integer."""
        all_words = self._all
        if size == 4 and not addr & 3:
            # Fast path: single-word read, the overwhelmingly common case.
            word = addr >> 2
            chunk = all_words.get(word)
            if chunk is None:
                chunk = all_words[word] = _background(word)
            return chunk
        if size <= 0 or size % _WORD_BYTES:
            raise ValueError(f"size must be a positive multiple of 4, got {size}")
        if addr % _WORD_BYTES:
            raise ValueError(f"address must be 4-byte aligned, got {addr:#x}")
        # Accumulate high to low: each chunk shifts the running value
        # once, avoiding a per-chunk variable shift amount.
        value = 0
        if not (addr | size) & 7:
            # Whole 8-byte pairs: a pair neither of whose words was ever
            # written or read alone is fetched and memoized as one entry.
            pairs = self._pairs
            pair = addr >> 3
            for p in range(pair + (size >> 3) - 1, pair - 1, -1):
                chunk = pairs.get(p)
                if chunk is None:
                    w = p << 1
                    lo = all_words.get(w)
                    hi = all_words.get(w + 1)
                    if lo is None and hi is None:
                        chunk = pairs[p] = _background(w + 1) << 32 | _background(w)
                    else:
                        if lo is None:
                            lo = all_words[w] = _background(w)
                        if hi is None:
                            hi = all_words[w + 1] = _background(w + 1)
                        chunk = hi << 32 | lo
                value = (value << 64) | chunk
            return value
        word = addr // _WORD_BYTES
        for w in range(word + size // _WORD_BYTES - 1, word - 1, -1):
            chunk = all_words.get(w)
            if chunk is None:
                chunk = all_words[w] = _background(w)
            value = (value << 32) | chunk
        return value

    def is_written(self, addr: int, size: int) -> bool:
        """True if every word in the range has been explicitly written."""
        word = addr // _WORD_BYTES
        return all(word + i in self._words for i in range(max(1, size // _WORD_BYTES)))

    def __len__(self) -> int:
        return len(self._words)
