import numpy as np
import pytest

from dynastop.codes import structure_matrices
from dynastop.decoding import predict_templates
from dynastop.simulate import SimConfig, default_response, make_dataset, resolve_config
from oracles import effective_noise_std, oracle_scores


def tiny_config(**overrides):
    base = dict(n_classes=4, n_channels=1, sigma=1.0, seed=9,
                spatial_pattern=np.array([1.0]))
    base.update(overrides)
    return SimConfig(**base)


class TestResolveConfig:
    def test_default_codebook_size(self):
        sim = resolve_config(SimConfig(n_classes=36, n_channels=3, sigma=1.0))
        assert sim.codes.shape == (36, 126)
        assert sim.templates.shape == (36, 126)
        assert len(sim.structures) == 36

    @pytest.mark.parametrize("n_classes, trial_seconds", [(36, 1.05), (36, 4.2), (65, 1.05)])
    def test_kept_rows_equal_a_build_of_the_kept_codes(self, n_classes, trial_seconds):
        # The subset's matrices and templates are rows of the full family's;
        # they must be the bytes a build from the kept codes alone gives.
        cfg = SimConfig(n_classes=n_classes, trial_seconds=trial_seconds)
        sim = resolve_config(cfg)
        structures = structure_matrices(sim.codes, cfg.fs, cfg.rate_hz, sim.n_samples,
                                        sim.response.size // 2)
        templates = predict_templates(sim.response, structures)
        assert len(sim.structures) == n_classes
        for got, want in zip(sim.structures, structures):
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                              want.tobytes())
        assert (sim.templates.dtype, sim.templates.shape) == (templates.dtype, templates.shape)
        assert sim.templates.tobytes() == templates.tobytes()

    def test_paper_length_family_is_never_held_dense(self, traced_peak):
        # The 65 codes' dense matrices at 4.2 s would take 18.9 MB; their
        # onset trains take 0.56 MB, and one matrix is built at a time.
        sim, peak = traced_peak(lambda: resolve_config(SimConfig(n_classes=36,
                                                                 trial_seconds=4.2)))
        assert len(sim.structures) == 36
        assert peak < 4e6

    def test_custom_response_length_must_be_even(self):
        with pytest.raises(ValueError, match="even"):
            resolve_config(tiny_config(response=np.ones(7)))

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            resolve_config(tiny_config(sigma=0.0))

    def test_default_response_two_blocks(self):
        r = default_response(10)
        assert r.size == 20
        assert not np.array_equal(r[:10], r[10:])


class TestMakeDataset:
    def test_noiseless_identity(self):
        cfg = tiny_config(sigma=1e-12, alpha=1.7)
        sim = resolve_config(cfg)
        trials = make_dataset(cfg, 1, resolved=sim)
        for trial in trials:
            np.testing.assert_allclose(
                trial.data[0], 1.7 * sim.templates[trial.label], atol=1e-9
            )

    def test_balanced_and_ordered_labels(self):
        cfg = tiny_config()
        trials = make_dataset(cfg, 3)
        labels = [t.label for t in trials]
        assert labels == [0, 1, 2, 3] * 3
        assert len(trials) == 12

    def test_seed_reproducibility(self):
        cfg = tiny_config(seed=123)
        a = make_dataset(cfg, 2)
        b = make_dataset(cfg, 2)
        for ta, tb in zip(a, b):
            np.testing.assert_array_equal(ta.data, tb.data)
        c = make_dataset(tiny_config(seed=124), 2)
        assert any(not np.array_equal(ta.data, tc.data) for ta, tc in zip(a, c))

    def test_noise_level_within_two_percent(self):
        cfg = tiny_config(n_channels=4, sigma=0.8, alpha=0.0,
                          spatial_pattern=np.ones(4), trial_seconds=4.2)
        trials = make_dataset(cfg, 13)
        samples = np.concatenate([t.data.ravel() for t in trials])
        assert samples.size > 1e5
        assert samples.std() == pytest.approx(0.8, rel=0.02)

    def test_doubling_alpha_doubles_target_mean_not_noise(self):
        base = tiny_config(alpha=1.0, sigma=0.5, seed=55)
        double = tiny_config(alpha=2.0, sigma=0.5, seed=55)
        sim = resolve_config(base)
        t1 = make_dataset(base, 20, resolved=sim)
        t2 = make_dataset(double, 20, resolved=resolve_config(double))
        s1 = oracle_scores(base, t1, sim.n_samples, resolved=sim)
        s2 = oracle_scores(double, t2, sim.n_samples, resolved=sim)
        labels = np.array([t.label for t in t1])
        idx = np.arange(len(t1))
        m1 = s1[idx, labels].mean()
        m2 = s2[idx, labels].mean()
        assert m2 == pytest.approx(2 * m1, rel=0.02)
        # Same seed stream: the noise realization is identical.
        np.testing.assert_allclose(
            t2[0].data - t1[0].data, sim.templates[t1[0].label][None, :], atol=1e-9
        )

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            make_dataset(tiny_config(), 0)


class TestOracleScores:
    def test_zero_noise_scores_equal_gram(self):
        cfg = tiny_config(sigma=1e-12, alpha=1.3)
        sim = resolve_config(cfg)
        trials = make_dataset(cfg, 1, resolved=sim)
        scores = oracle_scores(cfg, trials, 50, resolved=sim)
        templ = sim.templates[:, :50]
        for i, trial in enumerate(trials):
            np.testing.assert_allclose(
                scores[i], 1.3 * (templ @ templ[trial.label]), atol=1e-6
            )

    def test_standardized_scores_pass_normality_check(self):
        cfg = tiny_config(n_classes=8, sigma=2.0, seed=31)
        sim = resolve_config(cfg)
        trials = make_dataset(cfg, 160, resolved=sim)  # 1280 trials x 8 classes
        window = 60
        scores = oracle_scores(cfg, trials, window, resolved=sim)
        templ = sim.templates[:, :window]
        gram = templ @ templ.T
        norms = np.linalg.norm(templ, axis=1)
        labels = np.array([t.label for t in trials])
        z = (scores - cfg.alpha * gram[labels]) / (cfg.sigma * norms[None, :])
        z = z.ravel()
        assert z.size >= 10_000
        skew = np.mean(z**3) / np.mean(z**2) ** 1.5
        kurt = np.mean(z**4) / np.mean(z**2) ** 2 - 3.0
        assert abs(skew) < 0.2
        assert abs(kurt) < 0.2

    def test_effective_noise_std(self):
        cfg = tiny_config(n_channels=4, spatial_pattern=np.array([2.0, 0.0, 0.0, 0.0]))
        assert effective_noise_std(cfg) == pytest.approx(cfg.sigma / 2.0)

    def test_window_validation(self):
        cfg = tiny_config()
        sim = resolve_config(cfg)
        trials = make_dataset(cfg, 1, resolved=sim)
        with pytest.raises(ValueError):
            oracle_scores(cfg, trials, 0, resolved=sim)
        with pytest.raises(ValueError):
            oracle_scores(cfg, trials, sim.n_samples + 1, resolved=sim)
