import math

import numpy as np
import pytest

from dynastop.bayes_stop import StopOutcome
from dynastop.metrics import (
    CSV_COLUMNS,
    DecisionCounts,
    MetricsRow,
    count_decisions,
    f_score,
    itr,
    precision,
    recall,
    specificity,
    spm,
    tally_decisions,
)
from oracles import pooled


def outcome(stopped_at, forced=False):
    return StopOutcome(stopped_at, 0, forced)


class TestCountDecisions:
    def test_stop_after_correct_windows(self):
        counts = count_decisions(outcome(2), [True, True, True])
        assert (counts.tp, counts.fp, counts.tn, counts.fn) == (1, 0, 0, 2)

    def test_immediate_wrong_stop(self):
        counts = count_decisions(outcome(0), [False])
        assert (counts.tp, counts.fp, counts.tn, counts.fn) == (0, 1, 0, 0)

    def test_forced_stop_all_wrong(self):
        k = 5
        counts = count_decisions(outcome(k - 1, forced=True), [False] * k)
        assert (counts.tp, counts.fp, counts.tn, counts.fn) == (0, 1, k - 1, 0)

    def test_forced_excluded_when_configured(self):
        counts = count_decisions(
            outcome(3, forced=True), [True] * 4, include_forced=False
        )
        assert counts == DecisionCounts()

    def test_mixed_negatives(self):
        counts = count_decisions(outcome(3), [False, True, False, True])
        assert (counts.tp, counts.fp, counts.tn, counts.fn) == (1, 0, 2, 1)

    def test_single_positive_decision_per_trial(self):
        counts = count_decisions(outcome(4), [True] * 5)
        assert counts.tp + counts.fp == 1

    def test_flags_must_cover_stop(self):
        with pytest.raises(ValueError, match="cover"):
            count_decisions(outcome(2), [True, True])

    def test_matches_window_loop(self, rng):
        for _ in range(200):
            flags = rng.random(rng.integers(1, 12)) < 0.5
            stop = int(rng.integers(0, flags.size))
            want = DecisionCounts()
            for w in range(stop):
                want.fn += int(flags[w])
                want.tn += int(not flags[w])
            want.tp, want.fp = int(flags[stop]), int(not flags[stop])
            for given_flags in (flags, flags.tolist()):
                assert count_decisions(outcome(stop), given_flags) == want

    @pytest.mark.parametrize("include_forced", [True, False])
    def test_tally_matches_trial_sum(self, rng, include_forced):
        for _ in range(100):
            n_trials, n_windows = rng.integers(1, 8), rng.integers(1, 12)
            correct = rng.random((n_trials, n_windows)) < 0.5
            stops = rng.integers(0, n_windows, n_trials)
            forced = rng.random(n_trials) < 0.3
            want = pooled([count_decisions(outcome(int(stop), bool(was_forced)), flags,
                                           include_forced)
                           for flags, stop, was_forced in zip(correct, stops, forced)])
            got = tally_decisions(correct, stops, forced, include_forced)
            assert got == want
            assert all(type(v) is int for v in (got.tp, got.fp, got.tn, got.fn))

    def test_tally_of_no_trials(self):
        assert tally_decisions(np.zeros((0, 3), bool), [], []) == DecisionCounts()

    def test_tally_rejects_stop_past_flags(self):
        with pytest.raises(ValueError, match="cover"):
            tally_decisions([[True, False]], [2], [False])


class TestRatios:
    def test_textbook_values(self):
        assert precision(DecisionCounts(tp=3, fp=1)) == pytest.approx(0.75)
        assert recall(DecisionCounts(tp=3, fn=3)) == pytest.approx(0.5)
        assert specificity(DecisionCounts(tn=9, fp=1)) == pytest.approx(0.9)

    def test_f_score_harmonic_mean(self):
        counts = DecisionCounts(tp=1, fp=1, fn=1)
        assert precision(counts) == recall(counts) == 0.5
        assert f_score(counts) == pytest.approx(0.5)

    def test_zero_denominators_flagged(self):
        empty = DecisionCounts()
        assert precision(empty) == 0.0
        assert recall(empty) == 0.0
        assert specificity(empty) == 0.0
        assert f_score(empty) == 0.0

    def test_ranges(self, rng):
        for _ in range(100):
            c = DecisionCounts(*rng.integers(0, 20, 4).tolist())
            for metric in (precision, recall, specificity, f_score):
                assert 0.0 <= metric(c) <= 1.0


class TestItr:
    def test_perfect_36_class_selection(self):
        # log2(36) * 60 / 2 computed directly.
        assert itr(1.0, 36, 2.0) == pytest.approx(math.log2(36) * 30)
        assert itr(1.0, 36, 2.0) == pytest.approx(155.09775004326936)

    def test_chance_level_is_zero(self):
        assert itr(1 / 36, 36, 1.0) == 0.0
        assert itr(0.5, 2, 1.0) == 0.0
        assert itr(0.2, 36, 1.0) > 0.0

    def test_monotone_in_accuracy_and_time(self):
        values = [itr(p, 36, 1.0) for p in np.linspace(1 / 36, 1.0, 30)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert itr(0.9, 36, 1.0) > itr(0.9, 36, 2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            itr(0.5, 1, 1.0)
        with pytest.raises(ValueError):
            itr(0.5, 2, 0.0)
        with pytest.raises(ValueError):
            itr(1.5, 2, 1.0)


class TestSpm:
    def test_values(self):
        assert spm(2.0) == pytest.approx(30.0)
        assert spm(1.05, 2.0) == pytest.approx(60.0 / 3.05)
        assert spm(1.05, 2.0) == pytest.approx(19.672131147540984)
        assert spm(60.0) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            spm(0.0)


def test_csv_columns_cover_row_fields():
    # The row's fields, in order, are the CSV's columns, and nothing else is.
    assert CSV_COLUMNS == tuple(MetricsRow.__dataclass_fields__)
