import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynastop.baselines import (
    BetaPolicy,
    BoundaryPolicy,
    DecodingCurve,
    FixedLengthPolicy,
    MarginCandidates,
    MarginPolicy,
    apply_policy,
    beta_cdf,
    decoding_curve,
    deserialize_policy,
    fit_margin,
    serialize_policy,
    static_max_accuracy,
    static_max_itr,
    static_targeted_accuracy,
    stratified_folds,
)
from dynastop.bayes_stop import StopOutcome, calibrate, run_trial
from dynastop.decoding import TrialStatistics, fit_cca, score_trace
from dynastop.evaluation import window_grid
from dynastop.simulate import SimConfig, make_dataset, resolve_config


def simpson_beta_cdf(x, a, b, n=20001):
    """Quadrature oracle: composite Simpson over the Beta density."""
    t = np.linspace(1e-12, x, n)
    ln_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    density = np.exp((a - 1) * np.log(t) + (b - 1) * np.log1p(-t) - ln_beta)
    h = t[1] - t[0]
    weights = np.ones(n)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(h / 3.0 * np.sum(weights * density))


def window_decide(policy, scores, window_index):
    """Reference per-window rule: the label a policy emits at one window, or
    None to wait."""
    if isinstance(policy, FixedLengthPolicy):
        return int(np.argmax(scores)) if window_index >= policy.stop_window else None
    if isinstance(policy, BoundaryPolicy):
        accepted = np.flatnonzero(scores > policy.eta[window_index])
        return int(accepted[np.argmax(scores[accepted])]) if accepted.size else None
    if isinstance(policy, MarginPolicy):
        top_two = np.partition(scores, scores.size - 2)[-2:]
        if top_two[1] - top_two[0] >= policy.thresholds[window_index]:
            return int(np.argmax(scores))
        return None
    return policy.decide(scores, window_index)


def apply_policy_loop(policy, trace):
    """Reference apply_policy: the per-window rule run window by window."""
    trace = np.asarray(trace, dtype=float)
    for w in range(trace.shape[0]):
        label = window_decide(policy, trace[w], w)
        if label is not None:
            return StopOutcome(w, int(label), False)
    return StopOutcome(trace.shape[0] - 1, int(np.argmax(trace[-1])), True)


def fit_margin_loop(traces, labels, theta):
    """Reference thresholds: every distinct margin of a window tried in
    increasing order."""
    traces = np.asarray(traces, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n_classes = traces.shape[2]
    top_two = np.partition(traces, n_classes - 2, axis=2)[:, :, -2:]
    margins = top_two[:, :, 1] - top_two[:, :, 0]
    correct = np.argmax(traces, axis=2) == labels[:, None]
    thresholds = np.full(traces.shape[1], np.inf)
    for w in range(traces.shape[1]):
        for candidate in np.unique(margins[:, w]):
            chosen = margins[:, w] >= candidate
            if correct[chosen, w].mean() >= theta:
                thresholds[w] = candidate
                break
    return thresholds


# Small integers make ties between scores, margins and thresholds common.
LEVELS = st.sampled_from([-np.inf, -1.0, 0.0, 1.0, 2.0, 3.0, np.inf])


@st.composite
def integer_traces(draw, max_trials=1, max_windows=6, max_classes=5):
    n_trials = draw(st.integers(1, max_trials))
    n_windows = draw(st.integers(1, max_windows))
    n_classes = draw(st.integers(2, max_classes))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    traces = rng.integers(-3, 4, (n_trials, n_windows, n_classes)).astype(float)
    return traces, rng.integers(0, n_classes, n_trials), rng


class TestFirstCrossingOracle:
    @settings(max_examples=200, deadline=None)
    @given(case=integer_traces(), kind=st.sampled_from(["fixed", "boundary", "margin"]),
           data=st.data())
    def test_matches_window_loop(self, case, kind, data):
        traces, _, rng = case
        trace = traces[0]
        n_windows = trace.shape[0]
        if kind == "fixed":
            policy = FixedLengthPolicy(data.draw(st.integers(-2, n_windows + 2)))
        else:
            levels = data.draw(st.lists(LEVELS, min_size=n_windows, max_size=n_windows))
            policy = (BoundaryPolicy if kind == "boundary" else MarginPolicy)(levels)
        assert apply_policy(policy, trace) == apply_policy_loop(policy, trace)

    def test_random_traces_match_window_loop(self, rng):
        for _ in range(200):
            trace = np.clip(rng.standard_normal((8, 6)).round(1) / 3.0, -1.0, 1.0)
            levels = np.where(rng.random(8) < 0.2, rng.choice([-np.inf, np.inf], 8),
                              rng.standard_normal(8).round(1) / 3.0)
            for policy in (BoundaryPolicy(levels), MarginPolicy(np.abs(levels)),
                           FixedLengthPolicy(rng.integers(-1, 10)),
                           BetaPolicy(rng.choice([0.5, 0.9, 0.999]))):
                assert apply_policy(policy, trace) == apply_policy_loop(policy, trace)


class TestFitMarginOracle:
    @settings(max_examples=200, deadline=None)
    @given(case=integer_traces(max_trials=30), theta_kind=st.sampled_from(["0", "1", "random"]))
    def test_matches_candidate_loop(self, case, theta_kind):
        traces, labels, rng = case
        theta = {"0": 0.0, "1": 1.0}.get(theta_kind, float(rng.random()))
        shared = MarginCandidates(traces, labels)
        # Accuracies k/n land exactly on a theta of that form as well.
        for value in (theta, 2 / 3, 0.5):
            expected = fit_margin_loop(traces, labels, value)
            np.testing.assert_array_equal(fit_margin(traces, labels, value).thresholds, expected)
            np.testing.assert_array_equal(shared.table(value).thresholds, expected)

    def test_continuous_traces_match_candidate_loop(self, rng):
        traces = rng.standard_normal((144, 42, 36))
        labels = rng.integers(0, 36, 144)
        traces[np.arange(144), :, labels] += np.linspace(0.0, 3.0, 42)
        shared = MarginCandidates(traces, labels)
        for theta in (0.1, 0.3, 0.5, 0.7, 0.9, 0.98):
            expected = fit_margin_loop(traces, labels, theta)
            np.testing.assert_array_equal(fit_margin(traces, labels, theta).thresholds, expected)
            table = shared.table(theta)
            np.testing.assert_array_equal(table.thresholds, expected)
            assert table.target_accuracy == theta


class TestApplyPolicy:
    def test_always_stops_at_last(self, rng):
        trace = rng.standard_normal((5, 4))
        out = apply_policy(FixedLengthPolicy(99), trace)
        assert out.stopped_at == 4
        assert out.forced

    def test_single_positive_decision(self, rng):
        trace = rng.standard_normal((6, 3))
        out = apply_policy(FixedLengthPolicy(2), trace)
        assert out.stopped_at == 2
        assert not out.forced


class TestFixedLengthPolicy:
    def test_first_and_last_window(self, rng):
        trace = rng.standard_normal((4, 3))
        first = apply_policy(FixedLengthPolicy(0), trace)
        assert first.stopped_at == 0
        assert first.label == int(np.argmax(trace[0]))
        last = apply_policy(FixedLengthPolicy(3), trace)
        assert last.stopped_at == 3
        assert last.label == int(np.argmax(trace[3]))

    def test_constant_stopping_time(self, rng):
        policy = FixedLengthPolicy(1)
        stops = [apply_policy(policy, rng.standard_normal((4, 3))).stopped_at for _ in range(10)]
        assert set(stops) == {1}


class TestBoundaryPolicy:
    def test_matches_run_trial(self, small_sim):
        cfg, sim, trials = small_sim
        model = fit_cca(trials[:20], sim.structures)
        grid = window_grid(100, 1.05, cfg.fs)
        stopping = calibrate(model, trials[:20], grid, zeta=1.0)
        policy = BoundaryPolicy(stopping.eta)
        for trial in trials[20:]:
            direct = run_trial(stopping, model, trial)
            trace = score_trace(model, trial, grid, "inner")
            via_policy = apply_policy(policy, trace)
            assert direct.stopped_at == via_policy.stopped_at
            assert direct.label == via_policy.label
            assert direct.forced == via_policy.forced


class TestMarginPolicy:
    def test_infinite_thresholds_force_last(self, rng):
        trace = rng.standard_normal((4, 3))
        out = apply_policy(MarginPolicy([math.inf] * 4), trace)
        assert out.forced and out.stopped_at == 3

    def test_zero_thresholds_stop_first(self, rng):
        trace = rng.standard_normal((4, 3))
        out = apply_policy(MarginPolicy([0.0] * 4), trace)
        assert out.stopped_at == 0 and not out.forced

    def test_scripted_crossing(self):
        trace = np.array(
            [[0.5, 0.4, 0.1], [0.6, 0.4, 0.1], [0.9, 0.4, 0.1], [1.5, 0.4, 0.1]]
        )
        out = apply_policy(MarginPolicy([0.4, 0.4, 0.4, 0.4]), trace)
        assert out.stopped_at == 2  # margin 0.5 >= 0.4 first met at window 2
        assert out.label == 0
        assert not out.forced

    def test_stopping_time_monotone_in_thresholds(self, rng):
        for _ in range(20):
            trace = rng.standard_normal((6, 4))
            loose = np.abs(rng.standard_normal(6))
            tight = loose + np.abs(rng.standard_normal(6))
            early = apply_policy(MarginPolicy(loose), trace).stopped_at
            late = apply_policy(MarginPolicy(tight), trace).stopped_at
            assert early <= late


class TestFitMargin:
    @staticmethod
    def traces_with_margins(margins, correct_flags):
        """One window; trial k scores (m_k, 0) with argmax 0. The true label is
        0 where the trial should count as correct, 1 otherwise."""
        margins = np.asarray(margins, dtype=float)
        traces = np.zeros((margins.size, 1, 2))
        traces[:, 0, 0] = margins
        labels = np.where(np.asarray(correct_flags), 0, 1)
        return traces, labels

    def test_enumerated_hand_example(self):
        traces, labels = self.traces_with_margins(
            [0.1, 0.2, 0.3, 0.4], [False, True, True, True]
        )
        table = fit_margin(traces, labels, theta=0.99)
        assert table.thresholds[0] == pytest.approx(0.2)

    def test_all_correct_gives_minimum_margin(self):
        traces, labels = self.traces_with_margins([0.3, 0.1, 0.7], [True, True, True])
        table = fit_margin(traces, labels, theta=0.99)
        assert table.thresholds[0] == pytest.approx(0.1)

    def test_unreachable_target_gives_infinity(self):
        traces, labels = self.traces_with_margins([0.1, 0.2], [False, False])
        table = fit_margin(traces, labels, theta=0.5)
        assert table.thresholds[0] == math.inf

    def test_theta_zero_gives_minimum_observed(self, rng):
        traces = rng.standard_normal((12, 3, 4))
        labels = rng.integers(0, 4, 12)
        table = fit_margin(traces, labels, theta=0.0)
        top_two = np.sort(traces, axis=2)[:, :, -2:]
        margins = top_two[:, :, 1] - top_two[:, :, 0]
        np.testing.assert_allclose(table.thresholds, margins.min(axis=0))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            fit_margin(np.zeros((0, 2, 3)), [], 0.5)


class TestBetaPolicy:
    def test_uniform_outlier_stops(self):
        # Mapped non-max scores {0.2113, 0.7887} fit Beta(1, 1) by moments;
        # the mapped maximum 0.999 has CDF 0.999 >= 0.95.
        d = 1 / math.sqrt(12)
        scores = np.array([2 * (0.5 - d) - 1, 2 * (0.5 + d) - 1, 0.998])
        policy = BetaPolicy(0.95)
        assert policy.decide(scores, 0) == 2

    def test_max_within_rest_spread_continues(self):
        # The best score sits just above the others, well inside the fitted
        # distribution: CDF 0.91 < 0.95, so the trial waits for more data.
        mapped_rest = np.linspace(0.1, 0.6, 10)
        scores = np.concatenate([2 * mapped_rest - 1, [2 * 0.58 - 1]])
        policy = BetaPolicy(0.95)
        assert policy.decide(scores, 0) is None

    def test_zero_variance_rest_skips(self):
        scores = np.array([0.2, 0.2, 0.9])
        policy = BetaPolicy(0.95)
        assert policy.decide(scores, 0) is None

    def test_ties_at_maximum_excluded(self):
        scores = np.array([0.9, 0.9, 0.1, 0.2, 0.15])
        policy = BetaPolicy(0.5)
        label = policy.decide(scores, 0)
        assert label in (0, None)
        if label is not None:
            assert label == 0

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            BetaPolicy(1.0)

    def test_forced_at_last_window(self, rng):
        trace = np.clip(rng.normal(0, 0.05, (3, 8)), -1, 1)
        out = apply_policy(BetaPolicy(0.999999), trace)
        assert out.forced and out.stopped_at == 2


class TestBetaCdf:
    def test_uniform_identity(self):
        assert beta_cdf(0.3, 1.0, 1.0) == pytest.approx(0.3, abs=1e-12)

    def test_symmetric_midpoint(self):
        assert beta_cdf(0.5, 2.0, 2.0) == pytest.approx(0.5, abs=1e-12)

    def test_binomial_closed_form(self):
        # I_x(2, 5) = 1 - (1-x)^6 - 6 x (1-x)^5 for integer shapes.
        x = 0.2
        expected = 1.0 - (1 - x) ** 6 - 6 * x * (1 - x) ** 5
        assert expected == pytest.approx(0.34464)
        assert beta_cdf(x, 2.0, 5.0) == pytest.approx(expected, abs=1e-10)
        assert simpson_beta_cdf(x, 2.0, 5.0) == pytest.approx(expected, abs=1e-8)

    def test_against_quadrature(self):
        # Simpson handles smooth densities; adaptive quadrature covers the
        # integrable endpoint singularities of shape parameters below one.
        from scipy.integrate import quad

        for a, b, x in [(1.5, 3.2, 0.4), (5.0, 1.3, 0.85), (2.5, 2.5, 0.5)]:
            assert beta_cdf(x, a, b) == pytest.approx(
                simpson_beta_cdf(x, a, b), abs=1e-7
            )
        for a, b, x in [(0.7, 3.2, 0.4), (0.4, 0.6, 0.3)]:
            ln_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
            expected, _ = quad(
                lambda t: math.exp(
                    (a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - ln_beta
                ),
                0.0,
                x,
                epsabs=1e-12,
                limit=200,
            )
            assert beta_cdf(x, a, b) == pytest.approx(expected, abs=1e-10)

    def test_reflection_identity(self, rng):
        for _ in range(200):
            a = rng.uniform(0.2, 30)
            b = rng.uniform(0.2, 30)
            x = rng.uniform(0, 1)
            assert beta_cdf(x, a, b) == pytest.approx(
                1.0 - beta_cdf(1.0 - x, b, a), abs=1e-10
            )

    def test_monotone_and_endpoints(self, rng):
        a, b = 2.3, 0.8
        xs = np.linspace(0, 1, 101)
        values = [beta_cdf(x, a, b) for x in xs]
        assert values[0] == 0.0 and values[-1] == 1.0
        assert all(v2 >= v1 - 1e-14 for v1, v2 in zip(values, values[1:]))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            beta_cdf(0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            beta_cdf(1.5, 1.0, 1.0)


class TestStaticSelectors:
    @staticmethod
    def curve(accuracies, seconds=None, n_classes=6):
        accuracies = np.asarray(accuracies, dtype=float)
        if seconds is None:
            seconds = np.arange(1, accuracies.size + 1) * 0.5
        from dynastop.metrics import itr

        itrs = np.array(
            [itr(a, n_classes, s) for a, s in zip(accuracies, seconds)]
        )
        return DecodingCurve(np.asarray(seconds, dtype=float), accuracies, itrs)

    def test_max_accuracy_earliest(self):
        assert static_max_accuracy(self.curve([0.2, 0.9, 0.9])) == 1
        assert static_max_accuracy(self.curve([0.1, 0.5, 0.9])) == 2
        assert static_max_accuracy(self.curve([0.4, 0.4, 0.4])) == 0

    def test_targeted_accuracy(self):
        c = self.curve([0.3, 0.6, 0.8])
        assert static_targeted_accuracy(c, 0.5) == 1
        assert static_targeted_accuracy(c, 0.99) == 2  # fallback to max accuracy
        assert static_targeted_accuracy(c, 0.1) == 0
        with pytest.raises(ValueError):
            static_targeted_accuracy(c, 0.0)

    def test_max_itr_prefers_speed_at_equal_accuracy(self):
        c = self.curve([1.0, 1.0], seconds=[1.0, 2.0], n_classes=36)
        assert static_max_itr(c) == 0

    def test_chance_curve_gives_zero_itr(self):
        c = self.curve([1 / 6] * 4, n_classes=6)
        assert np.all(c.itr == 0.0)
        assert static_max_itr(c) == 0

    def test_returned_index_maximizes_itr(self, rng):
        for _ in range(10):
            c = self.curve(rng.uniform(0, 1, 8))
            idx = static_max_itr(c)
            assert c.itr[idx] == c.itr.max()


class TestDecodingCurve:
    def test_high_snr_reaches_perfect_late_windows(self):
        cfg = SimConfig(n_classes=6, n_channels=2, sigma=0.3, seed=31)
        sim = resolve_config(cfg)
        trials = make_dataset(cfg, 5, resolved=sim)
        grid = window_grid(100, 1.05, cfg.fs)
        curve = decoding_curve(
            TrialStatistics(trials, sim.structures).fit, trials, grid, cfg.n_classes
        )
        assert np.all((0.0 <= curve.accuracy) & (curve.accuracy <= 1.0))
        assert curve.accuracy[-1] == 1.0
        assert curve.window_seconds[-1] == pytest.approx(1.05)

    def test_pure_noise_sits_at_chance(self):
        cfg = SimConfig(n_classes=36, n_channels=2, alpha=0.0, sigma=1.0, seed=32)
        sim = resolve_config(cfg)
        trials = make_dataset(cfg, 3, resolved=sim)
        grid = window_grid(200, 1.05, cfg.fs)
        curve = decoding_curve(
            TrialStatistics(trials, sim.structures).fit, trials, grid, cfg.n_classes
        )
        # 108 trials x 6 windows of chance-level decisions.
        p = curve.accuracy.mean()
        se = math.sqrt((1 / 36) * (35 / 36) / (108 * grid.size))
        assert abs(p - 1 / 36) < 5 * se + 0.02

    def test_reduces_folds_with_warning(self, small_sim):
        cfg, sim, trials = small_sim
        few = trials[:3]
        with pytest.warns(RuntimeWarning, match="reducing"):
            curve = decoding_curve(
                TrialStatistics(few, sim.structures).fit,
                few,
                [12, 126],
                cfg.n_classes,
                n_folds=5,
            )
        assert curve.accuracy.shape == (2,)


class TestStratifiedFolds:
    def test_partition_and_balance(self):
        labels = np.repeat(np.arange(4), 5)
        folds = stratified_folds(labels, 5)
        together = np.concatenate(folds)
        assert sorted(together.tolist()) == list(range(20))
        for fold in folds:
            counts = np.bincount(labels[fold], minlength=4)
            assert counts.max() - counts.min() <= 1

    def test_deterministic(self):
        labels = [0, 1, 0, 1, 2, 2, 0, 1]
        a = stratified_folds(labels, 2)
        b = stratified_folds(labels, 2)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_rejects_single_fold(self):
        with pytest.raises(ValueError):
            stratified_folds([0, 1], 1)


class TestPolicySerialization:
    def test_fixed_roundtrip(self):
        env = serialize_policy(FixedLengthPolicy(3))
        assert env["kind"] == "fixed"
        back = deserialize_policy(env)
        assert isinstance(back, FixedLengthPolicy) and back.stop_window == 3

    def test_margin_roundtrip_with_infinity(self):
        env = serialize_policy(MarginPolicy([0.5, math.inf]))
        back = deserialize_policy(env)
        assert back.thresholds[0] == 0.5 and back.thresholds[1] == math.inf

    def test_margin_table_keeps_target_accuracy(self):
        from dynastop.baselines import MarginTable

        table = MarginTable(thresholds=np.array([0.2, math.inf]), target_accuracy=0.9)
        env = serialize_policy(table)
        assert env["kind"] == "margin"
        assert env["target_accuracy"] == 0.9
        assert env["thresholds"] == [0.2, "inf"]
        back = deserialize_policy(env)
        assert isinstance(back, MarginPolicy)
        assert back.thresholds[1] == math.inf

    def test_beta_roundtrip(self):
        back = deserialize_policy(serialize_policy(BetaPolicy(0.9)))
        assert isinstance(back, BetaPolicy) and back.target_accuracy == 0.9

    def test_bds_roundtrip(self, small_sim):
        cfg, sim, trials = small_sim
        model = fit_cca(trials, sim.structures)
        stopping = calibrate(model, trials, [12, 126], zeta=3.0)
        env = serialize_policy(stopping)
        assert env["kind"] == "bds"
        back = deserialize_policy(env)
        np.testing.assert_allclose(back.eta, stopping.eta)
        assert back.zeta == stopping.zeta

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown policy kind"):
            deserialize_policy({"kind": "mystery"})
