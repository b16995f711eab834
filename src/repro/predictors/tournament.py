"""Tournament chooser for combining DLVP and VTAGE (Section 5.2.3,
Figure 8).

Both predictors run concurrently; a PC-indexed table of 2-bit counters
tracks which one performs better per static load and selects who makes
the final prediction.  Counter convention: high values favour the first
predictor ("A", DLVP in the paper's experiment), low values favour the
second ("B", VTAGE).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ChooserStats:
    chose_a: int = 0
    chose_b: int = 0

    @property
    def total(self) -> int:
        return self.chose_a + self.chose_b

    @property
    def a_share(self) -> float:
        return self.chose_a / self.total if self.total else 0.0


class TournamentChooser:
    """PC-indexed 2-bit chooser."""

    def __init__(self, entries: int = 1024, initial: int | None = None) -> None:
        """``initial=None`` (default) initializes counters unbiased: a
        2-bit counter has no midpoint, so entries alternate between the
        two weak states — shared loads start evenly split between the
        predictors until evidence moves them."""
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        if initial is not None and not 0 <= initial <= 3:
            raise ValueError("initial counter value must be in [0, 3]")
        self.entries = entries
        self._bits = entries.bit_length() - 1
        if initial is None:
            self._counters = [1 + (i & 1) for i in range(entries)]
        else:
            self._counters = [initial] * entries
        self.stats = ChooserStats()

    def lookup(self, pc: int) -> tuple[int, bool]:
        """``(counter index, prefer A)`` for the load at ``pc``.

        The index is computed once at fetch and handed back to
        :meth:`update_at` when the load executes.
        """
        word = pc >> 2
        # Fold high PC bits so regularly-strided code does not collapse
        # onto a handful of counters.
        index = (word ^ (word >> self._bits) ^ (word >> (2 * self._bits))) & (
            self.entries - 1
        )
        return index, self._counters[index] >= 2

    def choose_a(self, pc: int) -> bool:
        """True if predictor A should make the final prediction."""
        return self.lookup(pc)[1]

    def record_choice(self, chose_a: bool) -> None:
        if chose_a:
            self.stats.chose_a += 1
        else:
            self.stats.chose_b += 1

    def update(self, pc: int, a_correct: bool | None, b_correct: bool | None) -> None:
        """:meth:`update_at` the counter of ``pc``."""
        self.update_at(self.lookup(pc)[0], a_correct, b_correct)

    def update_at(
        self, index: int, a_correct: bool | None, b_correct: bool | None
    ) -> None:
        """Train with each predictor's outcome (None = did not predict).

        The chooser only matters when *both* predictors offer a value —
        a lone prediction wins by default — so abstentions carry no
        routing signal and leave the counter alone, and so does
        abstain-versus-correct.  What moves it is a *misprediction*: a
        predictor that was wrong loses to one that was right or stayed
        silent.
        """
        if a_correct is not None and not a_correct:
            if b_correct is None or b_correct:
                self._counters[index] = max(0, self._counters[index] - 1)
        elif b_correct is not None and not b_correct:
            self._counters[index] = min(3, self._counters[index] + 1)

    def storage_bits(self) -> int:
        return self.entries * 2
