import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dynastop.baselines import deserialize_policy, serialize_policy
from dynastop.bayes_stop import (
    StopOutcome,
    StoppingModel,
    WindowParams,
    _gram_params,
    _window_grams,
    calibrate,
    decision_boundary,
    estimate_scaling_and_noise,
    run_trial,
    window_params,
)
from dynastop.decoding import DecoderModel, Trial, fit_cca, score_traces
from dynastop.evaluation import window_grid
from dynastop.simulate import SimConfig, make_dataset, resolve_config
from oracles import log_likelihood_ratio, prefix_scores


def window_run_trial(stopping, model, trial):
    """Reference controller: every window's prefix scored from sample 0."""
    if trial.data.shape[1] < stopping.t_star:
        raise ValueError("trial shorter than the maximum trial length")
    last = stopping.grid.size - 1
    for idx, w in enumerate(stopping.grid):
        scores = prefix_scores(model, trial, w, "inner")
        accepted = np.flatnonzero(scores > stopping.eta[idx])
        if accepted.size:
            label = int(accepted[np.argmax(scores[accepted])])
            return StopOutcome(idx, label, False)
        if idx == last:
            return StopOutcome(idx, int(np.argmax(scores)), True)
    raise AssertionError("unreachable: grid is never empty")


def window_calibrate(model, trials, grid, zeta):
    """Reference calibration: the template Gram of every window recomputed
    from its whole prefix by window_params."""
    t_star = int(grid[-1])
    pairs = [(model.spatial_filter @ t.data[:, :t_star], model.templates[t.label, :t_star])
             for t in trials]
    alpha, sigma = estimate_scaling_and_noise(pairs)
    windows = [window_params(model.templates[:, :w], alpha, sigma) for w in grid]
    n_classes = model.templates.shape[0]
    eta = np.array([decision_boundary(p, alpha, zeta, n_classes) for p in windows])
    return alpha, sigma, windows, eta


def llr_boundary(params, alpha, zeta, n_classes):
    """Reference boundary: the closed-form root polished by Newton steps on
    log_likelihood_ratio itself."""
    threshold = math.log((n_classes - 1) * zeta)
    v1 = params.s1 * params.s1
    v0 = params.s0 * params.s0
    a = v1 - v0
    b = -2.0 * alpha * (v1 * params.b0 - v0 * params.b1)
    c = (
        -(alpha * alpha) * (v0 * params.b1 ** 2 - v1 * params.b0 ** 2)
        + 2.0 * v0 * v1 * (math.log(params.s0 / params.s1) - threshold)
    )
    if a != 0.0:
        disc = b * b - 4.0 * a * c
        if disc <= 0.0:
            return -math.inf if a > 0.0 else math.inf
        sq = math.sqrt(disc)
        eta = 2.0 * c / (-b - sq) if b >= 0.0 else (-b + sq) / (2.0 * a)
    else:
        if b == 0.0:
            return -math.inf if c > 0.0 else math.inf
        if b < 0.0:
            return math.inf
        eta = -c / b
    if not math.isfinite(eta):
        return math.inf if eta > 0 else -math.inf
    for _ in range(2):
        gap = log_likelihood_ratio(eta, params, alpha) - threshold
        slope = (2.0 * a * eta + b) / (2.0 * v0 * v1)
        if slope <= 0.0 or not math.isfinite(slope):
            break
        eta -= gap / slope
    return float(eta)


def log_normal_pdf(x, mean, std):
    return -math.log(std * math.sqrt(2 * math.pi)) - 0.5 * ((x - mean) / std) ** 2


def random_params(rng, separated=True):
    b0 = rng.uniform(-2, 2)
    b1 = b0 + rng.uniform(0.05, 3) if separated else rng.uniform(-2, 2)
    s0 = rng.uniform(0.05, 3)
    s1 = rng.uniform(0.05, 3)
    return WindowParams(b1=b1, b0=b0, s1=s1, s0=s0, window_samples=10)


class TestScalingAndNoise:
    def test_exact_multiple_floors_sigma(self, rng):
        t = rng.standard_normal(500)
        with pytest.warns(RuntimeWarning, match="floor"):
            alpha, sigma = estimate_scaling_and_noise([(2.0 * t, t)])
        assert alpha == pytest.approx(2.0)
        assert sigma == pytest.approx(1e-9 * np.sqrt(np.mean(t * t)), rel=1e-9)

    def test_known_noise_level_recovered(self, rng):
        t = rng.standard_normal(20000)
        noise = rng.normal(0.0, 0.5, t.size)
        alpha, sigma = estimate_scaling_and_noise([(t + noise, t)])
        assert alpha == pytest.approx(1.0, abs=0.02)
        assert sigma == pytest.approx(0.5, rel=0.05)

    def test_concatenation_invariance(self, rng):
        x = rng.standard_normal(400)
        t = rng.standard_normal(400)
        whole = estimate_scaling_and_noise([(x, t)])
        split = estimate_scaling_and_noise([(x[:150], t[:150]), (x[150:], t[150:])])
        assert whole == pytest.approx(split)

    def test_population_std_convention(self):
        x = np.array([1.0, 1.0, 1.0, 5.0])
        t = np.array([1.0, 1.0, 1.0, 1.0])
        alpha, sigma = estimate_scaling_and_noise([(x, t)])
        assert alpha == pytest.approx(2.0)
        residual = x - alpha * t
        assert sigma == pytest.approx(np.sqrt(np.mean((residual - residual.mean()) ** 2) + residual.mean() ** 2))
        assert sigma == pytest.approx(residual.std())

    def test_zero_template_rejected(self):
        with pytest.raises(ValueError, match="all zero"):
            estimate_scaling_and_noise([(np.ones(4), np.zeros(4))])
        with pytest.raises(ValueError, match="pair"):
            estimate_scaling_and_noise([])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_signal_rejected(self, rng, value):
        # Once a silent (nan, nan) for a NaN, and only a numpy warning for an
        # infinity; now an error naming both, and no warning on the way.
        t = rng.standard_normal(50)
        x = 2.0 * t + rng.standard_normal(50)
        x[7] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"alpha=.* or noise level sigma=.* is not finite"):
                estimate_scaling_and_noise([(t, t), (x, t)])


class TestWindowParams:
    def test_two_orthonormal_templates(self):
        templates = np.eye(2)
        p = window_params(templates, alpha=1.0, sigma=0.1)
        assert p.b1 == pytest.approx(1.0)
        assert p.b0 == pytest.approx(0.0)
        assert p.s1 == pytest.approx(0.1)
        assert p.s0 == pytest.approx(0.1)

    def test_matches_direct_summation(self, rng):
        templates = rng.standard_normal((3, 12))
        alpha, sigma = 1.7, 0.4
        p = window_params(templates, alpha, sigma)
        n = 3
        b1 = sum(templates[i] @ templates[i] for i in range(n)) / n
        b0 = sum(
            templates[i] @ templates[j] for i in range(n) for j in range(n) if i != j
        ) / (n * n - n)
        s1_sq = sigma**2 * b1 + sum(
            (alpha * templates[i] @ templates[i] - alpha * b1) ** 2 for i in range(n)
        ) / n
        s0_sq = sigma**2 * b1 + sum(
            (alpha * templates[i] @ templates[j] - alpha * b0) ** 2
            for i in range(n)
            for j in range(n)
            if i != j
        ) / (n * n - n)
        assert p.b1 == pytest.approx(b1)
        assert p.b0 == pytest.approx(b0)
        assert p.s1 == pytest.approx(math.sqrt(s1_sq))
        assert p.s0 == pytest.approx(math.sqrt(s0_sq))

    def test_template_scaling_consistency(self, rng):
        templates = rng.standard_normal((4, 10))
        alpha, sigma, c = 1.3, 0.2, 2.5
        p1 = window_params(templates, alpha, sigma)
        p2 = window_params(c * templates, alpha, sigma)
        assert p2.b1 == pytest.approx(c**2 * p1.b1)
        assert p2.b0 == pytest.approx(c**2 * p1.b0)
        spread1 = p1.s1**2 - sigma**2 * p1.b1
        spread2 = p2.s1**2 - sigma**2 * p2.b1
        assert spread2 == pytest.approx(c**4 * spread1)

    def test_validation(self, rng):
        with pytest.raises(ValueError, match="two classes"):
            window_params(rng.standard_normal((1, 5)), 1.0, 0.1)


class TestLogLikelihoodRatio:
    def test_matches_density_difference(self, rng):
        for _ in range(2000):
            p = random_params(rng)
            alpha = rng.uniform(0.1, 4)
            f = rng.normal(0, 5)
            expected = log_normal_pdf(f, alpha * p.b1, p.s1) - log_normal_pdf(
                f, alpha * p.b0, p.s0
            )
            assert log_likelihood_ratio(f, p, alpha) == pytest.approx(
                expected, abs=1e-10
            )

    def test_symmetric_case_value(self):
        # b0 = -b1, equal stds: the ratio at the target mean is 2 a^2 b1^2 / s^2.
        b1, s, alpha = 0.8, 0.4, 1.9
        p = WindowParams(b1=b1, b0=-b1, s1=s, s0=s, window_samples=4)
        expected = 2 * alpha**2 * b1**2 / s**2
        assert log_likelihood_ratio(alpha * b1, p, alpha) == pytest.approx(expected)

    def test_midpoint_is_zero_for_equal_stds(self, rng):
        for _ in range(50):
            p = random_params(rng)
            p = WindowParams(b1=p.b1, b0=p.b0, s1=p.s1, s0=p.s1, window_samples=4)
            alpha = rng.uniform(0.1, 3)
            mid = alpha * (p.b0 + p.b1) / 2
            assert log_likelihood_ratio(mid, p, alpha) == pytest.approx(0.0, abs=1e-12)

    def test_vectorized(self, rng):
        p = random_params(rng)
        f = rng.normal(0, 2, size=7)
        out = log_likelihood_ratio(f, p, 1.1)
        assert out.shape == (7,)
        assert out[3] == pytest.approx(log_likelihood_ratio(float(f[3]), p, 1.1))


class TestDecisionBoundary:
    def test_equal_variance_midpoint(self):
        p = WindowParams(b1=1.3, b0=0.2, s1=0.7, s0=0.7, window_samples=5)
        eta = decision_boundary(p, alpha=1.7, zeta=1.0, n_classes=2)
        assert eta == pytest.approx(1.7 * (1.3 + 0.2) / 2, abs=1e-12)

    def test_boundary_sits_on_threshold(self, rng):
        checked = 0
        for _ in range(500):
            p = random_params(rng)
            alpha = rng.uniform(0.1, 4)
            zeta = 10 ** rng.uniform(-6, 6)
            n = int(rng.integers(2, 40))
            eta = decision_boundary(p, alpha, zeta, n)
            if math.isfinite(eta):
                checked += 1
                assert log_likelihood_ratio(eta, p, alpha) == pytest.approx(
                    math.log((n - 1) * zeta), abs=1e-9
                )
        assert checked > 100

    def test_monotone_in_zeta_and_classes(self, rng):
        for _ in range(200):
            p = random_params(rng)
            alpha = rng.uniform(0.1, 3)
            etas = [decision_boundary(p, alpha, z, 2) for z in (0.1, 1.0, 10.0)]
            finite = [e for e in etas if math.isfinite(e)]
            assert all(a <= b + 1e-9 for a, b in zip(etas, etas[1:])) or not finite
            by_n = [decision_boundary(p, alpha, 1.0, n) for n in (2, 6, 24)]
            assert all(a <= b + 1e-9 for a, b in zip(by_n, by_n[1:]))

    def test_huge_cost_ratio_unreachable(self, rng):
        # In the regime where stopping is actually contested (near-equal
        # variances, separation up to ~2.5 sigma) a 1e10 cost ratio pushes the
        # boundary far beyond the target distribution.
        for _ in range(100):
            alpha = rng.uniform(0.5, 2)
            s1 = rng.uniform(0.1, 1.5)
            s0 = s1 / rng.uniform(0.95, 1.05)
            b1 = rng.uniform(0.5, 3.0)
            b0 = b1 - rng.uniform(0.2, 2.5) * s1 / alpha
            p = WindowParams(b1=b1, b0=b0, s1=s1, s0=s0, window_samples=10)
            eta = decision_boundary(p, alpha, 1e10, 36)
            assert eta > alpha * p.b1 + 6 * p.s1

    def test_degenerate_sentinels(self):
        flat = WindowParams(b1=0.5, b0=0.5, s1=0.3, s0=0.3, window_samples=2)
        # Equal distributions: the ratio is identically zero.
        assert decision_boundary(flat, 1.0, 2.0, 2) == math.inf
        assert decision_boundary(flat, 1.0, 0.5, 2) == -math.inf

    def test_no_real_crossing_sentinels(self):
        # s1 > s0 keeps the ratio above any negative threshold everywhere.
        wide = WindowParams(b1=1.0, b0=0.9, s1=1.0, s0=0.2, window_samples=2)
        assert decision_boundary(wide, 1.0, 1e-12, 2) == -math.inf
        # s1 < s0 keeps it below a huge threshold everywhere.
        narrow = WindowParams(b1=1.0, b0=0.9, s1=0.2, s0=1.0, window_samples=2)
        assert decision_boundary(narrow, 1.0, 1e12, 2) == math.inf

    def test_matches_log_likelihood_ratio_polish(self, rng):
        infinite = 0
        for _ in range(300):
            p = random_params(rng, separated=bool(rng.integers(2)))
            alpha = rng.uniform(-3, 3)
            n = int(rng.integers(2, 40))
            for zeta in (1e-12, 1e-4, 0.5, 1.0, 30.0, 1e8, 1e12):
                eta = decision_boundary(p, alpha, zeta, n)
                assert eta == llr_boundary(p, alpha, zeta, n)
                infinite += math.isinf(eta)
        assert infinite > 0

    def test_input_validation(self):
        p = WindowParams(b1=1.0, b0=0.0, s1=0.5, s0=0.5, window_samples=2)
        with pytest.raises(ValueError):
            decision_boundary(p, 1.0, 0.0, 2)
        with pytest.raises(ValueError):
            decision_boundary(p, 1.0, math.nan, 2)
        with pytest.raises(ValueError):
            decision_boundary(p, 1.0, 1.0, 1)


def bisect_rising_crossing(params, alpha, threshold, eta):
    """The crossing of log_likelihood_ratio with threshold where the ratio
    rises, by bisection. The bracket runs from the ratio's turning point along
    its rising side (around eta when the ratio is linear) and doubles in width
    until the ratio changes sign across it. Returns None when the ratio at the
    turning point is too close to the threshold for its sign to be trusted."""
    def gap(f):
        return log_likelihood_ratio(f, params, alpha) - threshold

    v1, v0 = params.s1 ** 2, params.s0 ** 2
    width = 1.0 + abs(eta)
    if v1 == v0:
        def bracket(w):
            return eta - w, eta + w
    else:
        vertex = alpha * (v1 * params.b0 - v0 * params.b1) / (v1 - v0)
        if abs(gap(vertex)) < 1e-6 or (gap(vertex) < 0.0) != (v1 > v0):
            return None
        width += abs(eta - vertex)

        def bracket(w):
            return (vertex, vertex + w) if v1 > v0 else (vertex - w, vertex)
    for _ in range(1100):
        lo, hi = bracket(width)
        if gap(lo) < 0.0 < gap(hi):
            break
        width *= 2.0
    else:
        raise AssertionError("the ratio never crosses the threshold on its rising side")
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if gap(mid) < 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


class TestDecisionBoundaryBisection:
    @settings(max_examples=500, deadline=None)
    @given(
        b1=st.floats(0.01, 100.0),
        b0_share=st.floats(-1.0, 1.0),
        s1=st.floats(1e-3, 10.0),
        s0_ratio=st.sampled_from([1.0]) | st.floats(0.2, 5.0),
        alpha=st.floats(1e-3, 3.0) | st.floats(-3.0, -1e-3),
        log10_zeta=st.floats(-8.0, 8.0),
        n_classes=st.integers(2, 64),
    )
    def test_finite_boundary_is_the_bisected_crossing(self, b1, b0_share, s1, s0_ratio,
                                                       alpha, log10_zeta, n_classes):
        p = WindowParams(b1=b1, b0=b0_share * b1, s1=s1, s0=s1 * s0_ratio, window_samples=4)
        zeta = 10.0 ** log10_zeta
        eta = decision_boundary(p, alpha, zeta, n_classes)
        assume(math.isfinite(eta))
        root = bisect_rising_crossing(p, alpha, math.log((n_classes - 1) * zeta), eta)
        assume(root is not None)
        scale = abs(alpha) * b1 + p.s1 + p.s0
        assert eta == pytest.approx(root, rel=1e-9, abs=1e-9 * scale)


def symmetric_two_class_model():
    """Two orthogonal equal-energy templates behind a unit spatial filter."""
    templates = np.zeros((2, 8))
    templates[0, 0::2] = 1.0
    templates[1, 1::2] = 1.0
    return DecoderModel(
        spatial_filter=np.array([1.0]),
        response=np.zeros(2),
        templates=templates,
        fs=8.0,
        canonical_correlation=1.0,
    )


class TestCalibrate:
    def test_noiseless_boundary_between_means(self):
        model = symmetric_two_class_model()
        trials = [
            Trial(model.templates[label][None, :], label, 8.0) for label in (0, 1, 0, 1)
        ]
        with pytest.warns(RuntimeWarning, match="floor"):
            stopping = calibrate(model, trials, grid=[2, 4, 8], zeta=1.0)
        for p, eta in zip(stopping.windows, stopping.eta):
            low = stopping.alpha * p.b0
            high = stopping.alpha * p.b1
            assert low < eta < high

    def test_deterministic(self, small_sim):
        cfg, sim, trials = small_sim
        model = fit_cca(trials, sim.structures)
        grid = [12, 60, 126]
        a = calibrate(model, trials, grid, zeta=2.0)
        b = calibrate(model, trials, grid, zeta=2.0)
        assert json.dumps(serialize_policy(a)) == json.dumps(serialize_policy(b))

    def test_single_window_matches_last_of_larger_grid(self, small_sim):
        cfg, sim, trials = small_sim
        model = fit_cca(trials, sim.structures)
        big = calibrate(model, trials, [12, 60, 126], zeta=1.0)
        small = calibrate(model, trials, [126], zeta=1.0)
        assert small.windows[0] == big.windows[-1]
        assert small.eta[0] == pytest.approx(big.eta[-1])
        assert small.alpha == pytest.approx(big.alpha)
        assert small.sigma == pytest.approx(big.sigma)

    def test_with_cost_ratio_matches_direct_calibration(self, small_sim):
        cfg, sim, trials = small_sim
        model = fit_cca(trials, sim.structures)
        base = calibrate(model, trials, [12, 60, 126], zeta=1.0)
        derived = base.with_cost_ratio(50.0)
        direct = calibrate(model, trials, [12, 60, 126], zeta=50.0)
        np.testing.assert_allclose(derived.eta, direct.eta)
        assert derived.zeta == direct.zeta

    @pytest.mark.parametrize("grid_ms", [100.0, 30.0, 1.0])
    def test_windows_equal_one_window_at_a_time(self, small_sim, grid_ms):
        cfg, sim, trials = small_sim
        model = fit_cca(trials, sim.structures)
        grid = window_grid(grid_ms, cfg.trial_seconds, cfg.fs)
        stopping = calibrate(model, trials, grid, zeta=1.0)
        alone = [_gram_params(gram[None], [w], stopping.alpha, stopping.sigma)[0]
                 for w, gram in zip(grid, _window_grams(model.templates, grid))]
        assert stopping.windows == alone

    @pytest.mark.parametrize("grid_ms", [100.0, 30.0, 1.0])
    def test_matches_window_gram_oracle(self, small_sim, grid_ms):
        cfg, sim, trials = small_sim
        model = fit_cca(trials, sim.structures)
        grid = window_grid(grid_ms, cfg.trial_seconds, cfg.fs)
        base = calibrate(model, trials, grid, zeta=1.0)
        infinite = 0
        for zeta in (1e-8, 1e-2, 1.0, 1e2, 1e8, 1e16):
            stopping = base.with_cost_ratio(zeta)
            alpha, sigma, windows, eta = window_calibrate(model, trials, grid, zeta)
            assert stopping.alpha == alpha
            assert stopping.sigma == sigma
            for got, want in zip(stopping.windows, windows):
                assert got.window_samples == want.window_samples
                for name in ("b0", "b1", "s0", "s1"):
                    assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-10)
            np.testing.assert_array_equal(np.isinf(stopping.eta), np.isinf(eta))
            finite = np.isfinite(eta)
            np.testing.assert_array_equal(stopping.eta[~finite], eta[~finite])
            np.testing.assert_allclose(stopping.eta[finite], eta[finite], rtol=1e-10)
            infinite += np.count_nonzero(~finite)
        assert infinite > 0

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_trial_is_named(self, small_sim, value):
        # Such a trial once gave alpha = sigma = NaN and every boundary -inf,
        # so every trial stopped at its first window.
        cfg, sim, trials = small_sim
        model = fit_cca(trials, sim.structures)
        grid = [12, 60, 126]
        bad = list(trials)
        for i in (4, 9):
            data = bad[i].data.copy()
            data[1, 40] = value
            bad[i] = Trial(data, bad[i].label, bad[i].fs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                calibrate(model, bad, grid)
        assert str(err.value) == f"trial 4 (label {bad[4].label}) contains non-finite values"
        # Samples past the last window are never read.
        stopping = calibrate(model, bad, [12, 39])
        assert json.dumps(serialize_policy(stopping)) == json.dumps(
            serialize_policy(calibrate(model, trials, [12, 39])))
        # A model that is not finite has no trial to name.
        broken = replace(model, spatial_filter=np.full_like(model.spatial_filter, np.nan))
        with pytest.raises(ValueError, match="alpha=nan or noise level sigma=nan is not finite"):
            calibrate(broken, trials, grid)

    @pytest.mark.parametrize("label", [-1, 6])
    def test_label_outside_the_templates_is_named(self, small_sim, monkeypatch, label):
        # A label of -1 once calibrated against the last template, and one
        # equal to the class count raised a bare IndexError. Both are named
        # before any trial is filtered.
        cfg, sim, trials = small_sim
        model = fit_cca(trials, sim.structures)
        assert model.templates.shape[0] == 6
        bad = list(trials)
        bad[9] = Trial(bad[9].data, label, bad[9].fs)
        monkeypatch.setattr("dynastop.bayes_stop.estimate_scaling_and_noise", None)
        with pytest.raises(ValueError) as err:
            calibrate(model, bad, [12, 60, 126])
        assert str(err.value) == (f"trial 9 (label {label}) is not a class of the "
                                  "model's 6 templates")

    def test_grid_validation(self, small_sim):
        cfg, sim, trials = small_sim
        model = fit_cca(trials, sim.structures)
        with pytest.raises(ValueError, match="empty"):
            calibrate(model, trials, [])
        with pytest.raises(ValueError, match="increasing"):
            calibrate(model, trials, [12, 12])
        with pytest.raises(ValueError, match="templates"):
            calibrate(model, trials, [12, 500])


class TestRunTrial:
    @staticmethod
    def scripted_stopping(eta_values):
        model = symmetric_two_class_model()
        return StoppingModel(
            alpha=1.0,
            sigma=0.1,
            zeta=1.0,
            n_classes=2,
            grid=np.array([2, 4, 6, 8]),
            windows=[
                WindowParams(1.0, 0.0, 0.1, 0.1, w) for w in (2, 4, 6, 8)
            ],
            eta=np.asarray(eta_values, dtype=float),
        ), model

    def test_minus_inf_boundary_stops_immediately(self):
        stopping, model = self.scripted_stopping([-math.inf] * 4)
        trial = Trial(np.zeros((1, 8)), None, 8.0)
        out = run_trial(stopping, model, trial)
        assert out.stopped_at == 0
        assert not out.forced

    def test_plus_inf_boundary_forces_at_last(self):
        stopping, model = self.scripted_stopping([math.inf] * 4)
        trial = Trial(model.templates[1][None, :] * 2.0, None, 8.0)
        out = run_trial(stopping, model, trial)
        assert out.stopped_at == 3
        assert out.forced
        assert out.label == 1

    def test_scripted_crossing_window(self):
        # Boundaries high everywhere except window 2, where class 1 crosses.
        stopping, model = self.scripted_stopping([math.inf, math.inf, 2.5, math.inf])
        trial = Trial(model.templates[1][None, :], None, 8.0)
        # At window 6 samples, score for class 1 is three ones -> 3 > 2.5.
        out = run_trial(stopping, model, trial)
        assert out.stopped_at == 2
        assert out.label == 1
        assert not out.forced

    def test_timeout_emits_best_class(self):
        stopping, model = self.scripted_stopping([math.inf] * 4)
        trial = Trial(model.templates[0][None, :], None, 8.0)
        out = run_trial(stopping, model, trial)
        assert out.forced
        assert out.label == 0

    def test_short_trial_rejected(self):
        stopping, model = self.scripted_stopping([0.0] * 4)
        with pytest.raises(ValueError, match="shorter"):
            run_trial(stopping, model, Trial(np.zeros((1, 4)), None, 8.0))

    def test_accepted_tie_prefers_highest_score(self):
        stopping, model = self.scripted_stopping([0.5, math.inf, math.inf, math.inf])
        data = 0.8 * model.templates[0] + 0.7 * model.templates[1]
        out = run_trial(stopping, model, Trial(data[None, :], None, 8.0))
        assert out.stopped_at == 0
        assert out.label == 0


class TestRunTrialOracle:
    def test_calibrated_trials_match_window_loop(self, small_sim):
        cfg, sim, trials = small_sim
        model = fit_cca(trials[:20], sim.structures)
        for grid_ms in (100.0, 30.0):
            grid = window_grid(grid_ms, cfg.trial_seconds, cfg.fs)
            base = calibrate(model, trials[:20], grid, zeta=1.0)
            stops = set()
            for zeta in (1e-4, 1e-2, 1.0, 1e2, 1e4):
                stopping = base.with_cost_ratio(zeta)
                for trial in trials:
                    outcome = run_trial(stopping, model, trial)
                    assert outcome == window_run_trial(stopping, model, trial)
                    stops.add((outcome.stopped_at, outcome.forced))
            assert len(stops) > 3  # early, late and forced stops all occur

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_classes=st.integers(2, 5),
        n_samples=st.integers(1, 24),
        levels=st.lists(st.sampled_from([-math.inf, -4.0, -1.0, 0.0, 1.0, 3.0, 8.0, math.inf]),
                        min_size=24, max_size=24),
    )
    def test_integer_trials_match_window_loop(self, seed, n_classes, n_samples, levels):
        # Small integers keep every partial sum exact, so both controllers see
        # the same scores bit for bit and ties with the boundaries are common.
        rng = np.random.default_rng(seed)
        model = DecoderModel(
            spatial_filter=rng.integers(-2, 3, 2).astype(float),
            response=np.zeros(2),
            templates=rng.integers(-1, 2, (n_classes, n_samples)).astype(float),
            fs=10.0,
            canonical_correlation=1.0,
        )
        grid = np.unique(rng.integers(1, n_samples + 1, rng.integers(1, n_samples + 1)))
        grid[-1] = n_samples
        grid = np.unique(grid)
        stopping = StoppingModel(
            alpha=1.0, sigma=1.0, zeta=1.0, n_classes=n_classes, grid=grid,
            windows=[WindowParams(1.0, 0.0, 1.0, 1.0, int(w)) for w in grid],
            eta=np.asarray(levels[: grid.size]),
        )
        trial = Trial(rng.integers(-2, 3, (2, n_samples + 2)).astype(float), None, 10.0)
        outcome = run_trial(stopping, model, trial)
        assert outcome == window_run_trial(stopping, model, trial)
        trace = np.array([prefix_scores(model, trial, w, "inner") for w in grid])
        first = -1 if outcome.forced else outcome.stopped_at
        assert stopping.first_stops(trace[None]).tolist() == [first]

    def test_paper_length_session_matches_window_loop(self):
        cfg = SimConfig(n_classes=36, n_channels=8, trial_seconds=4.2, sigma=3.0, seed=23)
        sim = resolve_config(cfg)
        trials = make_dataset(cfg, 2, resolved=sim)
        model = fit_cca(trials[:36], sim.structures)
        grid = window_grid(100.0, cfg.trial_seconds, cfg.fs)
        base = calibrate(model, trials[:36], grid, zeta=1.0)
        for zeta in (1e-2, 1.0, 1e2):
            stopping = base.with_cost_ratio(zeta)
            for trial in trials[36:]:
                assert run_trial(stopping, model, trial) == window_run_trial(
                    stopping, model, trial)

    def test_small_sim_matches_model_first_stops(self, small_sim):
        # The online controller and the model's batched rule stop every trial
        # at the same window and emit the argmax there.
        cfg, sim, trials = small_sim
        model = fit_cca(trials[:20], sim.structures)
        grid = window_grid(100.0, cfg.trial_seconds, cfg.fs)
        traces = score_traces(model, trials, grid, "inner")
        base = calibrate(model, trials[:20], grid, zeta=1.0)
        for zeta in (1e-4, 1e-2, 1.0, 1e2, 1e4):
            stopping = base.with_cost_ratio(zeta)
            first = stopping.first_stops(traces)
            for trial, trace, stop in zip(trials, traces, first):
                want = StopOutcome(grid.size - 1 if stop < 0 else int(stop),
                                   int(np.argmax(trace[stop])), bool(stop < 0))
                assert run_trial(stopping, model, trial) == want


class TestStoppingModelJson:
    def test_roundtrip_with_infinities(self, small_sim):
        cfg, sim, trials = small_sim
        model = fit_cca(trials, sim.structures)
        stopping = calibrate(model, trials, [12, 60, 126], zeta=1e10)
        stopping.eta[0] = math.inf
        stopping.eta[1] = -math.inf
        text = json.dumps(serialize_policy(stopping))
        assert '"inf"' in text and '"-inf"' in text
        back = deserialize_policy(json.loads(text))
        assert back.zeta == stopping.zeta
        assert back.n_classes == stopping.n_classes
        np.testing.assert_array_equal(back.grid, stopping.grid)
        np.testing.assert_array_equal(back.eta, stopping.eta)
        assert back.windows == stopping.windows

    def test_rejects_inconsistent_documents(self):
        doc = {
            "kind": "bds",
            "alpha": 1.0,
            "sigma": 0.1,
            "zeta": 1.0,
            "n_classes": 2,
            "t_star": 8,
            "grid": [2, 8],
            "windows": [
                {"b0": 0.0, "b1": 1.0, "s0": 0.1, "s1": 0.1, "eta": 0.5}
            ],
        }
        with pytest.raises(ValueError, match="window entry"):
            deserialize_policy(doc)
        doc["t_star"] = 9
        doc["windows"].append({"b0": 0.0, "b1": 1.0, "s0": 0.1, "s1": 0.1, "eta": 0.5})
        with pytest.raises(ValueError, match="t_star"):
            deserialize_policy(doc)
        doc["t_star"] = 8
        doc["grid"] = [8, 2]
        with pytest.raises(ValueError, match="increasing"):
            deserialize_policy(doc)
        # A 0-sample first window would stop on scores of no data.
        doc["grid"] = [0, 8]
        with pytest.raises(ValueError, match="positive"):
            deserialize_policy(doc)

    @pytest.mark.parametrize("path, value, named", [
        (("alpha",), None, "alpha"), (("sigma",), "1.0", "sigma"), (("zeta",), True, "zeta"),
        (("zeta",), "nan", "zeta"), (("n_classes",), 2.0, "n_classes"),
        (("n_classes",), None, "n_classes"), (("t_star",), "8", "t_star"),
        (("grid",), 8, "grid"), (("grid", 0), 2.5, "grid"), (("windows",), {}, "windows"),
        (("windows", 1), [0.5], "windows"), (("windows", 0, "b1"), None, "b1"),
        (("windows", 1, "s0"), False, "s0"), (("windows", 1, "eta"), "Infinity", "eta"),
        # Out of domain: a NaN alpha would make every boundary -inf.
        (("alpha",), math.nan, "alpha"), (("alpha",), "inf", "alpha"),
        (("windows", 0, "b0"), math.nan, "b0"), (("windows", 1, "b1"), "-inf", "b1"),
        (("sigma",), 0.0, "sigma"), (("sigma",), -1.0, "sigma"), (("sigma",), "inf", "sigma"),
        (("windows", 0, "s0"), 0, "s0"), (("windows", 1, "s1"), -0.1, "s1"),
        (("windows", 1, "s1"), math.nan, "s1"), (("zeta",), 0.0, "zeta"),
        (("zeta",), "inf", "zeta"), (("n_classes",), 1, "n_classes"),
        (("windows", 0, "eta"), math.nan, "eta"),
    ])
    def test_missing_or_mistyped_field_is_named(self, path, value, named):
        doc = {"kind": "bds", "alpha": 1.0, "sigma": 0.1, "zeta": 1.0, "n_classes": 2,
               "t_star": 8, "grid": [2, 8],
               "windows": [{"b0": 0.0, "b1": 1.0, "s0": 0.1, "s1": 0.1, "eta": "-inf"},
                           {"b0": 0.0, "b1": 1.0, "s0": 0.1, "s1": 0.1, "eta": 0.5}]}
        assert deserialize_policy(doc).eta[0] == -math.inf
        *outer, last = path
        target = doc
        for key in outer:
            target = target[key]
        if value is None:
            del target[last]
        else:
            target[last] = value
        with pytest.raises(ValueError, match=f"policy field '{named}'"):
            deserialize_policy(doc)
