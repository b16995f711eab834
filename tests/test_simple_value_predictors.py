"""Tests for LVP and the tournament chooser."""

from repro.isa import Instruction, OpClass
from repro.predictors import LastValuePredictor, TournamentChooser


def load(pc=0x1000, dests=(1,), values=(42,)):
    return Instruction(pc=pc, op=OpClass.LOAD, dests=dests, mem_addr=0x2000,
                       mem_size=8, values=values)


class TestLvp:
    def test_learns_stable_value(self):
        lvp = LastValuePredictor()
        pred = None
        for _ in range(600):
            pred = lvp.train(load())
            if pred is not None:
                break
        assert pred == (42,)

    def test_changing_value_never_predicts(self):
        lvp = LastValuePredictor()
        for i in range(300):
            assert lvp.train(load(values=(i,))) is None

    def test_conflicting_store_scenario(self):
        """The Figure 1 motivation: a store changing the value forces
        LVP to mispredict once and then retrain from scratch."""
        lvp = LastValuePredictor()
        while lvp.train(load()) is None:
            pass
        pred = lvp.train(load(values=(77,)))       # value changed by a store
        assert pred == (42,)                        # stale prediction
        assert lvp.stats.mispredictions >= 1
        assert lvp.train(load(values=(77,))) is None   # retraining

    def test_non_load_ignored(self):
        lvp = LastValuePredictor()
        alu = Instruction(pc=0, op=OpClass.ALU, dests=(1,), values=(5,))
        assert lvp.train(alu) is None
        assert lvp.stats.loads_seen == 0

    def test_multi_dest_requires_all_slots(self):
        lvp = LastValuePredictor()
        inst = load(dests=(1, 2), values=(10, 20))
        pred = None
        for _ in range(800):
            pred = lvp.train(inst)
            if pred is not None:
                break
        assert pred == (10, 20)

    def test_storage_positive(self):
        assert LastValuePredictor().storage_bits() > 0


class TestTournamentChooser:
    def test_initial_preference(self):
        assert TournamentChooser(initial=2).choose_a(0x1000)
        assert not TournamentChooser(initial=1).choose_a(0x1000)

    def test_update_moves_toward_winner(self):
        ch = TournamentChooser(initial=2)
        for _ in range(4):
            ch.update(0x1000, a_correct=False, b_correct=True)
        assert not ch.choose_a(0x1000)

    def test_abstention_is_neutral(self):
        ch = TournamentChooser(initial=2)
        ch.update(0x1000, a_correct=None, b_correct=None)
        assert ch.choose_a(0x1000)

    def test_correct_vs_abstain_is_neutral(self):
        # A lone prediction wins by default, so abstain-vs-correct
        # carries no routing signal.
        ch = TournamentChooser(initial=0)
        for _ in range(4):
            ch.update(0x1000, a_correct=True, b_correct=None)
        assert not ch.choose_a(0x1000)

    def test_abstain_beats_wrong(self):
        ch = TournamentChooser(initial=3)
        for _ in range(4):
            ch.update(0x1000, a_correct=False, b_correct=None)
        assert not ch.choose_a(0x1000)

    def test_unbiased_default_initialization(self):
        ch = TournamentChooser(entries=8)
        prefs = {ch.choose_a(pc) for pc in range(0, 64, 4)}
        assert prefs == {True, False}

    def test_per_pc_counters(self):
        ch = TournamentChooser(initial=2)
        for _ in range(4):
            ch.update(0x1000, a_correct=False, b_correct=True)
        assert ch.choose_a(0x1004)        # untouched PC keeps default
        assert not ch.choose_a(0x1000)

    def test_choice_stats(self):
        ch = TournamentChooser()
        ch.record_choice(True)
        ch.record_choice(False)
        ch.record_choice(True)
        assert ch.stats.total == 3
        assert ch.stats.a_share == 2 / 3

    def test_storage(self):
        assert TournamentChooser(entries=1024).storage_bits() == 2048
