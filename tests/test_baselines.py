import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynastop.baselines import (
    BetaPolicy,
    DecodingCurve,
    FixedLengthPolicy,
    MarginCandidates,
    MarginPolicy,
    apply_policy,
    beta_cdf,
    decoding_curve,
    deserialize_policy,
    fit_margin,
    fold_splits,
    serialize_policy,
    static_max_accuracy,
    static_max_itr,
    static_targeted_accuracy,
    stratified_folds,
)
from dynastop.bayes_stop import StopOutcome, StoppingModel, WindowParams, calibrate, run_trial
from dynastop.decoding import TrialStatistics, fit_cca, score_traces
from dynastop.evaluation import window_grid
from dynastop.simulate import SimConfig, make_dataset, resolve_config
from oracles import apply_policy_loop, first_stops_loop, stratified_folds_loop


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


def boundary_model(eta):
    """A StoppingModel that runs the given boundaries, one window per sample."""
    grid = np.arange(1, len(eta) + 1)
    return StoppingModel(alpha=1.0, sigma=1.0, zeta=1.0, n_classes=2, grid=grid,
                         windows=[WindowParams(1.0, 0.0, 1.0, 1.0, int(w)) for w in grid],
                         eta=np.asarray(eta, dtype=float))


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
    @settings(max_examples=300, deadline=None)
    @given(case=integer_traces(max_trials=6),
           kind=st.sampled_from(["fixed", "boundary", "margin"]), data=st.data())
    def test_matches_window_loop(self, case, kind, data):
        traces, _, rng = case
        n_windows = traces.shape[1]
        if kind == "fixed":
            policy = FixedLengthPolicy(data.draw(st.integers(-2, n_windows + 2)))
        else:
            levels = data.draw(st.lists(LEVELS, min_size=n_windows, max_size=n_windows))
            policy = (boundary_model if kind == "boundary" else MarginPolicy)(levels)
        assert policy.first_stops(traces).tolist() == first_stops_loop(policy, traces)

    def test_random_traces_match_window_loop(self, rng):
        for _ in range(200):
            traces = np.clip(rng.standard_normal((3, 8, 6)).round(1) / 3.0, -1.0, 1.0)
            levels = np.where(rng.random(8) < 0.2, rng.choice([-np.inf, np.inf], 8),
                              rng.standard_normal(8).round(1) / 3.0)
            beta = BetaPolicy(rng.choice([0.5, 0.9, 0.999]))
            for policy in (boundary_model(levels), MarginPolicy(np.abs(levels)),
                           FixedLengthPolicy(rng.integers(-1, 10)), beta):
                assert policy.first_stops(traces).tolist() == first_stops_loop(policy, traces)
            for trace in traces:
                assert apply_policy(beta, trace) == apply_policy_loop(beta, trace)


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
            np.testing.assert_array_equal(shared.table(theta).thresholds, expected)


# Correlation scores on which the Beta rule waits (the rest has no spread)
# and fires (the rest fits Beta(1, 1), the maximum maps to CDF 0.999).
BETA_WAITS = [0.2, 0.2, 0.9]
BETA_FIRES = [2 * (0.5 - 1 / math.sqrt(12)) - 1, 2 * (0.5 + 1 / math.sqrt(12)) - 1, 0.998]


class TestApplyPolicy:
    def test_always_stops_at_last(self):
        out = apply_policy(BetaPolicy(0.95), np.array([BETA_WAITS] * 5))
        assert out == StopOutcome(4, 2, True)

    def test_single_positive_decision(self):
        trace = np.array([BETA_WAITS] * 2 + [BETA_FIRES] * 4)
        assert apply_policy(BetaPolicy(0.95), trace) == StopOutcome(2, 2, False)


class TestFixedLengthPolicy:
    def test_first_and_last_window(self, rng):
        traces = rng.standard_normal((2, 4, 3))
        for window in (0, 3):
            policy = FixedLengthPolicy(window)
            assert policy.first_stops(traces).tolist() == [window] * 2
            assert first_stops_loop(policy, traces) == [window] * 2

    def test_constant_stopping_time(self, rng):
        stops = FixedLengthPolicy(1).first_stops(rng.standard_normal((10, 4, 3)))
        assert set(stops.tolist()) == {1}


class TestBoundaryPolicy:
    def test_matches_run_trial(self, small_sim):
        cfg, sim, trials = small_sim
        model = fit_cca(trials[:20], sim.structures)
        grid = window_grid(100, 1.05, cfg.fs)
        stopping = calibrate(model, trials[:20], grid, zeta=1.0)
        traces = score_traces(model, trials[20:], grid, "inner")
        assert stopping.first_stops(traces).tolist() == first_stops_loop(stopping, traces)
        for trial, trace in zip(trials[20:], traces):
            assert run_trial(stopping, model, trial) == apply_policy_loop(stopping, trace)


class TestMarginPolicy:
    def test_infinite_thresholds_force_last(self, rng):
        traces = rng.standard_normal((3, 4, 3))
        assert MarginPolicy([math.inf] * 4).first_stops(traces).tolist() == [-1] * 3

    def test_zero_thresholds_stop_first(self, rng):
        traces = rng.standard_normal((3, 4, 3))
        assert MarginPolicy([0.0] * 4).first_stops(traces).tolist() == [0] * 3

    def test_scripted_crossing(self):
        trace = np.array(
            [[0.5, 0.4, 0.1], [0.6, 0.4, 0.1], [0.9, 0.4, 0.1], [1.5, 0.4, 0.1]]
        )
        policy = MarginPolicy([0.4, 0.4, 0.4, 0.4])
        # margin 0.5 >= 0.4 first met at window 2
        assert policy.first_stops(trace[None]).tolist() == [2]
        assert apply_policy_loop(policy, trace) == StopOutcome(2, 0, False)

    def test_stopping_time_monotone_in_thresholds(self, rng):
        traces = rng.standard_normal((20, 6, 4))
        loose = np.abs(rng.standard_normal(6))
        tight = loose + np.abs(rng.standard_normal(6))
        # A trial that never stops (-1) stops after every window that does.
        early, late = (np.where(s < 0, 6, s) for s in
                       (MarginPolicy(loose).first_stops(traces),
                        MarginPolicy(tight).first_stops(traces)))
        assert np.all(early <= late)


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
        assert policy.fires(scores) and np.argmax(scores) == 2

    def test_max_within_rest_spread_continues(self):
        # The best score sits just above the others, well inside the fitted
        # distribution: CDF 0.91 < 0.95, so the trial waits for more data.
        mapped_rest = np.linspace(0.1, 0.6, 10)
        scores = np.concatenate([2 * mapped_rest - 1, [2 * 0.58 - 1]])
        policy = BetaPolicy(0.95)
        assert not policy.fires(scores)

    def test_zero_variance_rest_skips(self):
        scores = np.array([0.2, 0.2, 0.9])
        policy = BetaPolicy(0.95)
        assert not policy.fires(scores)

    def test_ties_at_maximum_excluded(self):
        # Both tied maxima (mapped 0.8) leave the fit, so the tight rest
        # {0.5, 0.55, 0.525} puts the maximum at CDF ~1 >= 0.99. Keeping one
        # tied maximum in the moments widens the fit to CDF 0.964 < 0.99.
        scores = np.array([0.6, 0.6, 0.0, 0.1, 0.05])
        kept_one = (scores[1:] + 1.0) / 2.0
        mean, var = kept_one.mean(), kept_one.var()
        common = mean * (1.0 - mean) / var - 1.0
        assert beta_cdf(0.8, mean * common, (1.0 - mean) * common) < 0.99
        policy = BetaPolicy(0.99)
        assert policy.fires(scores)
        # A firing rule emits the lowest tied index.
        assert apply_policy(policy, scores[None, :]) == StopOutcome(0, 0, False)

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

    def test_against_scipy_in_stated_range(self, rng):
        # The docstring's bound, 1e-10 for 0.01 <= a, b with a + b <= 3e4,
        # with x mostly within three standard deviations of the mean, where
        # the continued fraction needs the most terms.
        from scipy.special import betainc

        for _ in range(500):
            a, b = np.exp(rng.uniform(math.log(0.01), math.log(1.5e4), 2))
            sd = math.sqrt(a * b / (a + b + 1)) / (a + b)
            x = float(np.clip(a / (a + b) + rng.normal(0.0, 3.0 * sd), 1e-9, 1 - 1e-9))
            assert beta_cdf(x, a, b) == pytest.approx(betainc(a, b, x), abs=1e-10), (a, b, x)

    @pytest.mark.parametrize("x", [0.4999, 0.5, 0.5001])
    def test_large_shapes_converge(self, deadline, x):
        # Near the mean at a = b = 4e6 the continued fraction needs about 820
        # terms; the log-gamma prefactor leaves an error of a few 1e-9.
        from scipy.special import betainc

        with deadline(10):
            value = beta_cdf(x, 4e6, 4e6)
        assert value == pytest.approx(betainc(4e6, 4e6, x), abs=1e-8)

    @pytest.mark.parametrize("shape", [1e8, 1e12, 1e14, 1e16])
    def test_large_symmetric_shapes_against_scipy(self, deadline, shape):
        # Within three standard deviations of the mean, where the log-gamma
        # prefactor cancelled to 0.7998 at x = 0.5, a = b = 1e14. Checked
        # against high-precision quadrature, scipy's error reaches about 1e-9
        # above the mean at these shapes, hence the bound; below it scipy is
        # read through the reflection, since its direct value is off there
        # (0.0364 for 0.1587 at x = 0.5 - sd, a = b = 1e16).
        from scipy.special import betainc

        sd = 0.5 / math.sqrt(2.0 * shape + 1.0)
        with deadline(2):
            for k in (-3.0, -1.0, -0.3, 0.0, 0.3, 1.0, 3.0):
                x = 0.5 + k * sd
                want = betainc(shape, shape, x) if x >= 0.5 else 1 - betainc(shape, shape, 1 - x)
                assert beta_cdf(x, shape, shape) == pytest.approx(want, abs=1e-8), (k, x)
            assert beta_cdf(0.5, shape, shape) == pytest.approx(0.5, abs=1e-15)
        if shape == 1e16:
            assert beta_cdf(0.5 + 1e-8, shape, shape) == pytest.approx(0.99766113261, abs=1e-10)

    @pytest.mark.parametrize("shape", [1e12, 1e14, 1e16])
    def test_large_symmetric_shapes_match_normal_limit(self, shape):
        # Beta(v, v) has mean 1/2, variance 1 / (4 (2v + 1)) and excess
        # kurtosis below 1e-11 here, so its CDF is the normal one to 1e-12.
        sd = 0.5 / math.sqrt(2.0 * shape + 1.0)
        for k in (-4.0, -2.5, -1.0, -0.2, 0.7, 1.5, 3.0):
            x = 0.5 + k * sd
            normal = 0.5 * math.erfc(-(x - 0.5) / (sd * math.sqrt(2.0)))
            assert beta_cdf(x, shape, shape) == pytest.approx(normal, abs=1e-12), (k, x)

    def test_large_asymmetric_shapes_against_scipy(self, rng, deadline):
        # Past a + b = 3e4: near the mean with both shapes large, away from
        # it, and with one shape small; every call does bounded work.
        from scipy.special import betainc

        with deadline(10):
            for _ in range(300):
                total = 10 ** rng.uniform(4.5, 16.3)
                p = 10 ** rng.uniform(-6, 0) if rng.random() < 0.3 else rng.uniform(0.01, 0.99)
                a, b = total * p, total * (1 - p)
                sd = math.sqrt(a * b / (total + 1)) / total
                x = float(np.clip(p + rng.normal(0.0, 4.0 * sd), 1e-12, 1 - 1e-12))
                assert beta_cdf(x, a, b) == pytest.approx(betainc(a, b, x), abs=1e-8), (a, b, x)

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
            TrialStatistics(trials, sim.structures).fit_many, trials, grid, cfg.n_classes
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
            TrialStatistics(trials, sim.structures).fit_many, trials, grid, cfg.n_classes
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
                TrialStatistics(few, sim.structures).fit_many,
                few,
                [12, 126],
                cfg.n_classes,
            )
        assert curve.accuracy.shape == (2,)

    @pytest.mark.parametrize("similarity", ["inner", "correlation"])
    def test_folds_fitted_together_match_one_fit_per_fold(self, small_sim, similarity):
        cfg, sim, trials = small_sim
        stats = TrialStatistics(trials, sim.structures)
        grid = window_grid(100, 1.05, cfg.fs)
        together = decoding_curve(stats.fit_many, trials, grid, cfg.n_classes,
                                  similarity=similarity)
        one_by_one = decoding_curve(lambda sets: [stats.fit(s) for s in sets], trials, grid,
                                    cfg.n_classes, similarity=similarity)
        assert together.accuracy.tobytes() == one_by_one.accuracy.tobytes()


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

    @settings(max_examples=60, deadline=None)
    @given(labels=st.lists(st.integers(-3, 40), min_size=1, max_size=200),
           n_folds=st.integers(2, 12))
    def test_matches_round_robin_loop(self, labels, n_folds):
        # The folds, and fold_splits' training splits, of the one-trial-at-a-
        # time deal, empty folds included.
        expected = stratified_folds_loop(labels, n_folds)
        folds = stratified_folds(labels, n_folds)
        assert len(folds) == n_folds
        for got, want in zip(folds, expected):
            assert (got.dtype, got.tolist()) == (want.dtype, want.tolist())
        everyone = np.arange(len(labels))
        splits = fold_splits(labels, n_folds)
        assert [fold.tolist() for fold, _ in splits] == [f.tolist() for f in expected if f.size]
        for fold, train in splits:
            want = np.setdiff1d(everyone, fold)
            assert (train.dtype, train.tolist()) == (want.dtype, want.tolist())

    def test_fold_count_past_the_trials_is_leave_one_out(self, deadline):
        labels = np.repeat(np.arange(36), 5)
        with deadline(1):
            splits = fold_splits(labels, 10**6)
        assert [fold.tolist() for fold, _ in splits] == [[i] for i in range(180)]
        assert all(train.size == 179 for _, train in splits)


class TestPolicySerialization:
    def test_bds_roundtrip(self, small_sim):
        cfg, sim, trials = small_sim
        model = fit_cca(trials, sim.structures)
        stopping = calibrate(model, trials, [12, 126], zeta=3.0)
        env = serialize_policy(stopping)
        assert env["kind"] == "bds"
        back = deserialize_policy(json.loads(json.dumps(env)))
        np.testing.assert_array_equal(back.eta, stopping.eta)
        assert back.zeta == stopping.zeta
        # The model read back is the bds policy itself.
        traces = score_traces(model, trials, [12, 126], "inner")
        np.testing.assert_array_equal(back.first_stops(traces), stopping.first_stops(traces))

    def test_unknown_kind_rejected(self):
        # bds is the one kind a model is written as.
        for kind in ("mystery", "fixed", "margin", "beta"):
            with pytest.raises(ValueError, match="unknown policy kind"):
                deserialize_policy({"kind": kind})
        with pytest.raises(ValueError, match="JSON object"):
            deserialize_policy(["bds"])
