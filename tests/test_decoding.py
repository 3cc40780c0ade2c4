import collections
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dynastop.baselines import stratified_folds
from dynastop.bayes_stop import calibrate, run_trial
from dynastop.codes import StructureMatrices, modulate, structure_matrices
from dynastop.decoding import (
    RIDGE,
    DecoderModel,
    Trial,
    TrialStatistics,
    _inverse_sqrt,
    correlation_score,
    fit_cca,
    predict_templates,
    score,
    score_trace,
    score_traces,
)
from dynastop.evaluation import ExperimentConfig, evaluate_store, window_grid
from dynastop.simulate import SimConfig, make_dataset, resolve_config
from oracles import (
    centred_design_m2,
    class_loop_statistics,
    dense_design_moments,
    prefix_scores,
    solve_cca,
    svd_fit,
)


def dense_fit_cca(trials, structures):
    """Reference fit: the straightforward dense-design reconvolution CCA.

    Concatenates the trials and their label's structure matrices into one
    data and one design matrix and takes their centred covariances directly.
    """
    if len(trials) < 2:
        raise ValueError("need at least two training trials")
    labels = [t.label for t in trials]
    if any(label is None for label in labels):
        raise ValueError("all training trials must be labeled")
    if len(set(labels)) < 2:
        raise ValueError("need at least two distinct labels")
    shapes = {t.data.shape for t in trials}
    if len(shapes) != 1:
        raise ValueError(f"trial shapes differ: {sorted(shapes)}")
    rates = {float(t.fs) for t in trials}
    if len(rates) != 1:
        raise ValueError(f"trial sampling rates differ: {sorted(rates)}")
    n_samples = trials[0].data.shape[1]
    for i, matrix in enumerate(structures):
        if matrix.shape[1] < n_samples:
            raise ValueError(f"structure {i} shorter than the trials")

    data = np.concatenate([np.asarray(t.data, dtype=float) for t in trials], axis=1)
    design = np.concatenate(
        [np.asarray(structures[t.label], dtype=float)[:, :n_samples] for t in trials],
        axis=1,
    )
    finite = [bool(np.isfinite(t.data).all()) for t in trials]
    if not all(finite):
        bad = finite.index(False)
        raise ValueError(f"trial {bad} (label {labels[bad]}) contains non-finite values")

    data_c = data - data.mean(axis=1, keepdims=True)
    design_c = design - design.mean(axis=1, keepdims=True)
    n = data.shape[1]
    cov_xx = (data_c @ data_c.T) / (n - 1)
    cov_dd = (design_c @ design_c.T) / (n - 1)
    cov_xd = (data_c @ design_c.T) / (n - 1)
    cov_xx += RIDGE * np.mean(np.diag(cov_xx)) * np.eye(cov_xx.shape[0])
    cov_dd += RIDGE * np.mean(np.diag(cov_dd)) * np.eye(cov_dd.shape[0])

    isq_x = _inverse_sqrt(cov_xx, "channel")
    isq_d = _inverse_sqrt(cov_dd, "design")
    left, singulars, right_t = np.linalg.svd(isq_x @ cov_xd @ isq_d)
    spatial = isq_x @ left[:, 0]
    response = isq_d @ right_t[0]
    spatial = spatial / np.linalg.norm(spatial)
    lead = np.flatnonzero(np.abs(spatial) > 1e-12 * np.abs(spatial).max())
    if lead.size and spatial[lead[0]] < 0:
        spatial = -spatial
        response = -response
    return DecoderModel(
        spatial_filter=spatial,
        response=response,
        templates=predict_templates(response, structures),
        fs=trials[0].fs,
        canonical_correlation=float(singulars[0]),
    )


def loop_templates(response, structures):
    """Reference templates: the response times each structure matrix, one
    vector-matrix product per class."""
    return np.vstack([response @ np.asarray(matrix, dtype=float) for matrix in structures])


def window_trace(model, trial, grid, similarity):
    """Reference trace: every decision window scored on its own."""
    return np.vstack([prefix_scores(model, trial, w, similarity) for w in grid])


def extended_correlation_trace(model, trial, grid, filter_width=None):
    """Reference Pearson trace in np.longdouble, every window on its own.

    It scores the float64 filtered signal that the path under test scores:
    one filtering of the first filter_width samples, as score_traces makes
    it, or (None) a filtering of each window's prefix, as prefix_scores
    makes it. At a 1e3 offset a filtered sample's rounding, near 1e-13
    against unit-size variations, moves a short window's score by a few
    1e-12, and the two filterings round apart; scoring each path's own
    filtered samples compares only the windowed arithmetic.
    """
    templates = model.templates.astype(np.longdouble)
    trace = np.zeros((len(grid), templates.shape[0]))
    for k, window in enumerate(grid):
        width = window if filter_width is None else filter_width
        x = (model.spatial_filter @ trial.data[:, :width])[:window].astype(np.longdouble)
        x -= x.mean()
        t = templates[:, :window] - templates[:, :window].mean(axis=1, keepdims=True)
        norms = np.sqrt((t * t).sum(axis=1) * (x @ x))
        degenerate = norms == 0
        trace[k] = np.where(degenerate, 0.0, (t @ x) / np.where(degenerate, 1.0, norms))
    return trace


def per_trial_score_trace(model, trial, grid, similarity):
    """Reference trace: one trial scored from its own running sums, with the
    template sums recomputed for every trial."""
    grid = np.asarray(grid).astype(int)
    longest = int(grid.max())
    ends = grid - 1
    filtered = model.spatial_filter @ trial.data[:, :longest]
    templates = model.templates[:, :longest]
    if similarity == "inner":
        return np.cumsum(templates * filtered, axis=1)[:, ends].T
    x = filtered - filtered[0]
    t = templates - templates[:, :1]
    length = grid.astype(float)
    sum_x = np.cumsum(x)[ends]
    sum_t = np.cumsum(t, axis=1)[:, ends]
    var_x = np.cumsum(x * x)[ends] - sum_x * sum_x / length
    var_t = np.cumsum(t * t, axis=1)[:, ends] - sum_t * sum_t / length
    cov = np.cumsum(t * x, axis=1)[:, ends] - sum_t * sum_x / length

    def constant_run(rows):
        changed = rows != rows[:, :1]
        return np.where(changed.any(axis=1), changed.argmax(axis=1), rows.shape[1])

    degenerate = (
        (grid <= constant_run(filtered[None, :])[:, None])
        | (grid <= constant_run(templates)[:, None])
        | (var_x <= 0.0)
        | (var_t <= 0.0)
    )
    denom = np.sqrt(np.where(degenerate, 1.0, var_x * var_t))
    return np.where(degenerate, 0.0, cov / denom).T


def per_trial_fit(stats, indices):
    """Reference subset fit: the design side from the dense centred class
    matrices, its mean taken over each member trial's class row, and the
    design covariance whitened on every call."""
    indices = np.asarray(indices, dtype=int)
    groups = stats.groups[indices]
    n_samples = stats.n_samples
    n = indices.size * n_samples
    design_means, design_gram = dense_design_moments(stats.structures, stats.classes, n_samples)
    mean_x = stats.means[indices]
    mean_x = mean_x - mean_x.mean(axis=0)
    mean_d = design_means[groups]
    mean_d = mean_d - mean_d.mean(axis=0)
    counts = np.bincount(groups, minlength=design_gram.shape[0]).astype(float)
    m2_xx = stats.channel_gram[indices].sum(axis=0) + n_samples * (mean_x.T @ mean_x)
    m2_dd = np.tensordot(counts, design_gram, axes=1) + n_samples * (mean_d.T @ mean_d)
    m2_xd = stats.cross[indices].sum(axis=0) + n_samples * (mean_x.T @ mean_d)
    cov_xx = m2_xx / (n - 1)
    cov_dd = m2_dd / (n - 1)
    cov_xx += RIDGE * np.mean(np.diag(cov_xx)) * np.eye(cov_xx.shape[0])
    cov_dd += RIDGE * np.mean(np.diag(cov_dd)) * np.eye(cov_dd.shape[0])
    spatial, response, correlation = solve_cca(
        _inverse_sqrt(cov_xx, "channel"), _inverse_sqrt(cov_dd, "design"), m2_xd / (n - 1)
    )
    return DecoderModel(spatial_filter=spatial, response=response,
                        templates=predict_templates(response, stats.structures),
                        fs=stats.fs, canonical_correlation=correlation)


def static_curve_subsets(labels, n_folds=5):
    """Training indices of a static baseline's fits: each outer fold's
    training split, then the training splits of its inner folds."""
    subsets = []
    for fold in stratified_folds(labels, n_folds):
        outer = np.setdiff1d(np.arange(labels.size), fold)
        subsets.append(outer)
        for inner in stratified_folds(labels[outer], n_folds):
            subsets.append(outer[np.setdiff1d(np.arange(outer.size), inner)])
    return subsets


def stacked_statistics(trials, structures):
    """Reference statistics: every trial stacked into one array at once, the
    cross-products taken with the uncentred design."""
    labels = [t.label for t in trials]
    classes, groups = np.unique(labels, return_inverse=True)
    n_samples = trials[0].data.shape[1]
    data = np.stack([np.asarray(t.data, dtype=float) for t in trials])
    means = data.mean(axis=2)
    data -= means[:, :, None]
    channel_gram = data @ data.transpose(0, 2, 1)
    design_means = []
    cross = np.empty(data.shape[:2] + structures[classes[0]].shape[:1])
    for group, label in enumerate(classes):
        design = np.asarray(structures[label], dtype=float)[:, :n_samples]
        design_means.append(design.mean(axis=1))
        members = groups == group
        cross[members] = data[members] @ design.T
    return {"means": means, "channel_gram": channel_gram, "cross": cross,
            "design_means": np.stack(design_means)}


def assert_same_model(model, reference, rtol=1e-10):
    """Every fitted quantity within rtol of the reference, relative to the
    largest magnitude of that quantity."""
    for name in ("spatial_filter", "response", "templates"):
        got = getattr(model, name)
        want = getattr(reference, name)
        assert np.abs(got - want).max() <= rtol * np.abs(want).max(), name
    assert model.canonical_correlation == pytest.approx(
        reference.canonical_correlation, rel=rtol
    )


def assert_same_inner_trace(trace, model, trial, grid):
    """Inner traces within 1e-12 of the per-window loop, relative to the
    Cauchy-Schwarz bound of each entry."""
    reference = window_trace(model, trial, grid, "inner")
    filtered = model.spatial_filter @ trial.data
    scale = np.array(
        [np.linalg.norm(model.templates[:, :w], axis=1) * np.linalg.norm(filtered[:w])
         for w in grid]
    )
    assert np.all(np.abs(trace - reference) <= 1e-12 * scale)


def two_class_structures(rng, n_samples=60, response_samples=8):
    codes = modulate(rng.integers(0, 2, (2, n_samples // 2)).astype(np.uint8))
    return structure_matrices(codes, 1, 1, n_samples, response_samples)


def toy_model(templates, fs=100.0):
    """Single-channel model with given templates; handy for score tests."""
    templates = np.asarray(templates, dtype=float)
    return DecoderModel(
        spatial_filter=np.array([1.0]),
        response=np.zeros(2),
        templates=templates,
        fs=fs,
        canonical_correlation=1.0,
    )


class TestFitCca:
    def test_perfect_single_channel_fixed_point(self, rng):
        structures = two_class_structures(rng)
        true_response = rng.standard_normal(structures[0].shape[0])
        trials = [
            Trial((true_response @ structures[label])[None, :], label, 100.0)
            for label in (0, 1, 0, 1)
        ]
        model = fit_cca(trials, structures)
        assert model.canonical_correlation > 0.999
        r_corr = abs(np.corrcoef(model.response, true_response)[0, 1])
        assert r_corr > 0.999

    def test_planted_filter_and_response_recovered(self):
        cfg = SimConfig(n_classes=6, n_channels=4, sigma=1.0, seed=5)
        sim = resolve_config(cfg)
        trials = make_dataset(cfg, 6, resolved=sim)
        model = fit_cca(trials, sim.structures)
        w_corr = abs(np.corrcoef(model.spatial_filter, sim.spatial_pattern)[0, 1])
        r_corr = abs(np.corrcoef(model.response, sim.response)[0, 1])
        assert w_corr > 0.95
        assert r_corr > 0.95

    def test_shuffled_labels_reduce_correlation(self, small_sim, rng):
        cfg, sim, trials = small_sim
        model = fit_cca(trials, sim.structures)
        labels = np.array([t.label for t in trials])
        shuffled = labels.copy()
        while np.array_equal(shuffled, labels):
            rng.shuffle(shuffled)
        broken = [Trial(t.data, int(l), t.fs) for t, l in zip(trials, shuffled)]
        worse = fit_cca(broken, sim.structures)
        assert worse.canonical_correlation < model.canonical_correlation

    def test_channel_permutation_invariance(self, small_sim):
        cfg, sim, trials = small_sim
        model = fit_cca(trials, sim.structures)
        perm = np.array([1, 0])
        permuted = [Trial(t.data[perm], t.label, t.fs) for t in trials]
        model_p = fit_cca(permuted, sim.structures)
        np.testing.assert_allclose(model_p.templates, model.templates, atol=1e-8)
        np.testing.assert_allclose(
            model_p.spatial_filter, model.spatial_filter[perm], atol=1e-8
        )

    def test_canonical_correlation_beats_fixed_pairs(self, small_sim, rng):
        cfg, sim, trials = small_sim
        model = fit_cca(trials, sim.structures)
        data = np.concatenate([t.data for t in trials], axis=1)
        design = np.concatenate([sim.structures[t.label] for t in trials], axis=1)
        for _ in range(5):
            w = rng.standard_normal(data.shape[0])
            r = rng.standard_normal(design.shape[0])
            rho = abs(np.corrcoef(w @ data, r @ design)[0, 1])
            assert rho <= model.canonical_correlation + 1e-9

    def test_unit_norm_and_sign_convention(self, small_sim):
        cfg, sim, trials = small_sim
        model = fit_cca(trials, sim.structures)
        assert np.linalg.norm(model.spatial_filter) == pytest.approx(1.0)
        lead = np.flatnonzero(
            np.abs(model.spatial_filter) > 1e-12 * np.abs(model.spatial_filter).max()
        )
        assert model.spatial_filter[lead[0]] > 0

    def test_deterministic(self, small_sim):
        cfg, sim, trials = small_sim
        a = fit_cca(trials, sim.structures)
        b = fit_cca(trials, sim.structures)
        np.testing.assert_array_equal(a.spatial_filter, b.spatial_filter)
        np.testing.assert_array_equal(a.templates, b.templates)

    def test_validation_errors(self, rng):
        structures = two_class_structures(rng)
        t = Trial(rng.standard_normal((2, 60)), 0, 100.0)
        with pytest.raises(ValueError, match="two training trials"):
            fit_cca([t], structures)
        with pytest.raises(ValueError, match="distinct labels"):
            fit_cca([t, Trial(t.data, 0, 100.0)], structures)
        with pytest.raises(ValueError, match="labeled"):
            fit_cca([t, Trial(t.data, None, 100.0)], structures)
        other = Trial(rng.standard_normal((3, 60)), 1, 100.0)
        with pytest.raises(ValueError, match="shapes differ"):
            fit_cca([t, other], structures)

    def test_all_zero_data_rejected(self, rng):
        structures = two_class_structures(rng)
        trials = [Trial(np.zeros((2, 60)), label, 100.0) for label in (0, 1)]
        with pytest.raises(ValueError, match="rank deficient"):
            fit_cca(trials, structures)

    def test_data_uncorrelated_with_design_rejected(self):
        # The design varies only where the data is zero, so the cross
        # covariance is exactly zero and no canonical pair exists. Both
        # classes have one short flash at sample 0 and a one-sample response.
        trains = np.zeros((2, 2, 6))
        trains[:, 0, 0] = 1.0
        trials = [Trial(np.array([[0.0, 0.0, 1.0, -1.0, 0.0, 0.0]]) * scale, label, 100.0)
                  for label, scale in ((0, 1.0), (1, 2.0), (0, 3.0))]
        with pytest.raises(ValueError, match="do not correlate with their design"):
            fit_cca(trials, StructureMatrices(trains, 6))


class TestPredictTemplates:
    def test_zero_structure_gives_zero_template(self, rng):
        out = predict_templates(rng.standard_normal(6), [np.zeros((6, 9))])
        assert out.shape == (1, 9)
        assert not out.any()

    def test_single_short_event_selects_response_segment(self, rng):
        response = rng.standard_normal(8)
        structure = np.zeros((8, 4))
        for j in range(4):
            structure[j, j] = 1.0  # short event at sample 0
        out = predict_templates(response, [structure])
        np.testing.assert_allclose(out[0], response[:4])

    def test_identical_structures_identical_templates(self, rng):
        s = rng.integers(0, 2, (6, 10)).astype(float)
        out = predict_templates(rng.standard_normal(6), [s, s.copy()])
        np.testing.assert_array_equal(out[0], out[1])

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="rows"):
            predict_templates(rng.standard_normal(6), [np.zeros((5, 9))])


class TestScores:
    def setup_method(self):
        base = np.array(
            [[1.0, 0.0, -1.0, 0.5], [0.0, 1.0, 0.5, -1.0], [0.5, 0.5, 0.5, 0.5]]
        )
        self.model = toy_model(base)

    def test_self_inner_product_is_max(self):
        t = self.model.templates
        trial = Trial(t[1][None, :], None, 100.0)
        scores = score(self.model, trial, 4)
        assert scores.shape == (3,)
        assert scores[1] == pytest.approx(t[1] @ t[1])
        assert np.argmax(scores) == 1

    def test_orthogonal_trial_scores_zero(self):
        x = np.array([0.0, 0.0, 0.0, 0.0])
        scores = score(self.model, Trial(x[None, :], None, 100.0), 4)
        np.testing.assert_array_equal(scores, 0.0)

    def test_noiseless_scores_match_gram(self):
        alpha = 2.5
        t = self.model.templates
        trial = Trial((alpha * t[0])[None, :], None, 100.0)
        scores = score(self.model, trial, 4)
        np.testing.assert_allclose(scores, alpha * (t @ t[0]))

    def test_scale_invariance_of_classify(self, rng):
        x = rng.standard_normal(4)
        a = score(self.model, Trial(x[None, :], None, 100.0), 4)
        b = score(self.model, Trial((7.3 * x)[None, :], None, 100.0), 4)
        assert np.argmax(a) == np.argmax(b)

    def test_window_validation(self):
        trial = Trial(np.zeros((1, 4)), None, 100.0)
        with pytest.raises(ValueError):
            score(self.model, trial, 0)
        with pytest.raises(ValueError):
            score(self.model, trial, 9)

    def test_correlation_score_endpoints(self):
        t = self.model.templates
        up = correlation_score(self.model, Trial(t[0][None, :], None, 100.0), 4)
        down = correlation_score(self.model, Trial(-t[0][None, :], None, 100.0), 4)
        assert up[0] == pytest.approx(1.0)
        assert down[0] == pytest.approx(-1.0)
        assert np.all(np.abs(up) <= 1.0 + 1e-12)

    def test_correlation_degeneracy_flag(self):
        const = Trial(np.ones((1, 4)), None, 100.0)
        np.testing.assert_array_equal(correlation_score(self.model, const, 4), 0.0)
        # template 2 is constant: degenerate against any input
        varying = Trial(np.array([[1.0, -1.0, 2.0, 0.0]]), None, 100.0)
        scores = correlation_score(self.model, varying, 4)
        assert scores[2] == 0.0
        assert np.all(scores[:2] != 0.0)

    def test_noiseless_trials_classify_to_their_label(self):
        # Full-window self-energy beats every cross product on generated
        # codebooks, so noiseless trials decode perfectly.
        cfg = SimConfig(n_classes=36, n_channels=1, sigma=1e-12, seed=3,
                        spatial_pattern=np.array([1.0]))
        sim = resolve_config(cfg)
        model = toy_model(sim.templates)
        for label in range(36):
            trial = Trial(sim.templates[label][None, :], label, cfg.fs)
            assert np.argmax(score(model, trial, sim.templates.shape[1])) == label

    def test_score_trace_shapes_and_consistency(self):
        trial = Trial(np.array([[1.0, 0.5, -0.5, 2.0]]), None, 100.0)
        trace = score_trace(self.model, trial, [1, 2, 4], "inner")
        assert trace.shape == (3, 3)
        np.testing.assert_allclose(trace[2], score(self.model, trial, 4))
        with pytest.raises(ValueError, match="similarity"):
            score_trace(self.model, trial, [1], "cosine")


@pytest.fixture(scope="module")
def paper_sim():
    """Paper-length trials (4.2 s, 504 samples) of the full 36-class set."""
    cfg = SimConfig(n_classes=36, n_channels=8, trial_seconds=4.2, sigma=3.0, seed=11)
    sim = resolve_config(cfg)
    return cfg, sim, make_dataset(cfg, 3, resolved=sim)


def with_offset(trials, offset):
    return [Trial(t.data + offset, t.label, t.fs) for t in trials]


class TestTrialStatistics:
    def test_full_fit_matches_dense_oracle(self, small_sim, paper_sim):
        for _, sim, trials in (small_sim, paper_sim):
            reference = dense_fit_cca(trials, sim.structures)
            assert_same_model(fit_cca(trials, sim.structures), reference)
            assert_same_model(TrialStatistics(trials, sim.structures).fit(), reference)

    def test_statistics_equal_stacked_oracle(self, small_sim, paper_sim):
        _, sim, trials = paper_sim
        bad = Trial(trials[3].data.copy(), trials[3].label, trials[3].fs)
        bad.data[2, 7] = np.nan
        for trial_set, structures in ((small_sim[2], small_sim[1].structures),
                                      (trials, sim.structures)):
            stats = TrialStatistics(trial_set, structures)
            for name, value in stacked_statistics(trial_set, structures).items():
                assert np.array_equal(getattr(stats, name), value), name
        with pytest.raises(ValueError, match="trial 3 .* contains non-finite values"):
            TrialStatistics(trials[:3] + [bad] + trials[4:], sim.structures)

    def test_statistics_match_class_loop_bytes(self, small_sim, paper_sim, rng):
        # One class-sorted stack for all the trials must give each trial the
        # bytes of the per-class loop, whatever the class sizes, the trial
        # order and the trials' precision.
        unequal = TestDesignCache.unequal_shuffled(small_sim[2], rng)
        assert np.unique(np.bincount([t.label for t in unequal])).size > 1
        shuffled = [paper_sim[2][i] for i in rng.permutation(len(paper_sim[2]))]
        for (trial_set, structures), dtype in itertools.product(
                ((small_sim[2], small_sim[1].structures), (unequal, small_sim[1].structures),
                 (shuffled, paper_sim[1].structures)), (np.float64, np.float32)):
            trial_set = [Trial(t.data.astype(dtype), t.label, t.fs) for t in trial_set]
            stats = TrialStatistics(trial_set, structures)
            for name, value in class_loop_statistics(trial_set, structures).items():
                got = getattr(stats, name)
                assert (got.dtype, got.shape) == (value.dtype, value.shape), name
                assert got.tobytes() == value.tobytes(), name

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_first_non_finite_trial_by_index(self, small_sim, dtype):
        # Reversed, the trials run from the highest label to the lowest, so
        # the class-sorted stack meets the last bad trial first; the error
        # still names the one with the lowest index, as the loop oracle does.
        _, sim, trials = small_sim
        trials = [Trial(t.data.astype(dtype), t.label, t.fs) for t in reversed(trials)]
        low, high = 2, len(trials) - 3
        assert trials[low].label > trials[high].label
        for i, value in ((low, np.nan), (high, np.inf)):
            data = trials[i].data.copy()
            data[1, 7] = value
            trials[i] = Trial(data, trials[i].label, trials[i].fs)
        message = f"trial {low} (label {trials[low].label}) contains non-finite values"
        for build in (TrialStatistics, class_loop_statistics):
            with pytest.raises(ValueError) as err:
                build(trials, sim.structures)
            assert str(err.value) == message

    def test_fold_fits_match_dense_oracle(self, paper_sim):
        _, sim, trials = paper_sim
        stats = TrialStatistics(trials, sim.structures)
        labels = np.array([t.label for t in trials])
        for fold in stratified_folds(labels, 5):
            train = np.setdiff1d(np.arange(len(trials)), fold)
            reference = dense_fit_cca([trials[i] for i in train], sim.structures)
            assert_same_model(stats.fit(train), reference)

    def test_inner_fold_fits_match_dense_oracle(self, small_sim):
        # The nested split of the CV harness: inner folds of an outer split.
        _, sim, trials = small_sim
        stats = TrialStatistics(trials, sim.structures)
        labels = np.array([t.label for t in trials])
        outer = np.setdiff1d(np.arange(len(trials)), stratified_folds(labels, 5)[0])
        for fold in stratified_folds(labels[outer], 5):
            inner = np.setdiff1d(np.arange(outer.size), fold)
            reference = dense_fit_cca([trials[i] for i in outer[inner]], sim.structures)
            assert_same_model(stats.fit(outer[inner]), reference)

    def test_dc_offset_matches_dense_oracle(self, paper_sim):
        _, sim, trials = paper_sim
        shifted = with_offset(trials, 1e3)
        reference = dense_fit_cca(shifted, sim.structures)
        assert_same_model(fit_cca(shifted, sim.structures), reference)
        train = np.arange(0, len(trials), 2)
        assert_same_model(
            TrialStatistics(shifted, sim.structures).fit(train),
            dense_fit_cca([shifted[i] for i in train], sim.structures),
        )

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        offset=st.sampled_from([0.0, -3.0, 1e3]),
        size=st.integers(2, 30),
    )
    def test_random_subsets_match_dense_oracle(self, small_sim, seed, offset, size):
        _, sim, trials = small_sim
        rng = np.random.default_rng(seed)
        trials = with_offset(trials, offset)
        subset = rng.choice(len(trials), size=size, replace=False)
        chosen = [trials[i] for i in subset]
        stats = TrialStatistics(trials, sim.structures)
        if len({t.label for t in chosen}) < 2:
            with pytest.raises(ValueError, match="need at least two distinct labels"):
                stats.fit(subset)
            return
        assert_same_model(stats.fit(subset), dense_fit_cca(chosen, sim.structures))

    def test_subset_errors_match_dense_oracle(self, small_sim):
        _, sim, trials = small_sim
        stats = TrialStatistics(trials, sim.structures)
        labels = np.array([t.label for t in trials])
        same_label = np.flatnonzero(labels == labels[0])
        mixed = np.flatnonzero(labels != labels[3])[:4]
        cases = (
            ([0], "need at least two training trials"),
            (same_label, "need at least two distinct labels"),
        )
        for subset, message in cases:
            with pytest.raises(ValueError, match=message) as oracle:
                dense_fit_cca([trials[i] for i in subset], sim.structures)
            with pytest.raises(ValueError) as fast:
                stats.fit(subset)
            assert str(fast.value) == str(oracle.value)
            with pytest.raises(ValueError) as together:
                stats.fit_many([mixed, subset])
            assert str(together.value) == str(oracle.value)
        # A non-finite trial is rejected when the statistics are built, so
        # no subset, with or without it, is ever fitted around it.
        bad = list(trials)
        bad[3] = Trial(np.where(np.arange(bad[3].data.shape[1]) == 7, np.nan, bad[3].data),
                       bad[3].label, bad[3].fs)
        with pytest.raises(ValueError) as oracle:
            dense_fit_cca(bad, sim.structures)
        with pytest.raises(ValueError) as built:
            TrialStatistics(bad, sim.structures)
        assert str(built.value) == str(oracle.value)
        assert str(built.value) == f"trial 3 (label {labels[3]}) contains non-finite values"

    def test_lowest_non_finite_trial_is_named(self, small_sim):
        # Trial 5 has the highest label and trial 6 the lowest, so a scan
        # in class order would name trial 6. Every entry point names trial 5.
        _, sim, trials = small_sim
        bad = list(trials)
        assert (bad[5].label, bad[6].label) == (5, 0)
        for i, value in ((5, np.inf), (6, np.nan)):
            data = bad[i].data.copy()
            data[1, 40] = value
            bad[i] = Trial(data, bad[i].label, bad[i].fs)
        model = fit_cca(trials, sim.structures)
        config = ExperimentConfig(method="fixed", hyperparams=[0.5], folds=2)
        message = "trial 5 (label 5) contains non-finite values"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: TrialStatistics(bad, sim.structures),
                         lambda: fit_cca(bad, sim.structures),
                         lambda: evaluate_store(bad, sim.structures, config),
                         lambda: calibrate(model, bad, np.arange(12, 127, 12))):
                with pytest.raises(ValueError) as err:
                    call()
                assert str(err.value) == message

    @pytest.mark.parametrize("label", [-1, 6])
    def test_label_outside_the_structures_is_named(self, small_sim, monkeypatch, label):
        # A label of -1 once fitted silently against the last class, and one
        # equal to the class count raised a bare IndexError. Both are named
        # before any structure is read.
        _, sim, trials = small_sim
        bad = list(trials)
        bad[4] = Trial(bad[4].data, label, bad[4].fs)
        config = ExperimentConfig(method="fixed", hyperparams=[0.5], folds=2)

        def unread(*args):
            raise AssertionError("structures read before the labels were checked")

        monkeypatch.setattr(StructureMatrices, "__getitem__", unread)
        monkeypatch.setattr(StructureMatrices, "lag_products", unread)
        message = f"trial 4 (label {label}) is not a class of the 6 structure matrices"
        for call in (lambda: TrialStatistics(bad, sim.structures),
                     lambda: fit_cca(bad, sim.structures),
                     lambda: evaluate_store(bad, sim.structures, config)):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == message

    def test_structures_must_be_structure_matrices(self, small_sim):
        # The design side is read off the onset trains, which a list of
        # dense matrices does not carry; templates still come from any.
        _, sim, trials = small_sim
        matrices = list(sim.structures)
        for call in (lambda: TrialStatistics(trials, matrices),
                     lambda: fit_cca(trials, matrices)):
            with pytest.raises(TypeError, match="structures must be a StructureMatrices, not list"):
                call()
        response = np.arange(matrices[0].shape[0], dtype=float)
        assert (predict_templates(response, matrices).tobytes()
                == predict_templates(response, sim.structures).tobytes())

    def test_fit_cca_errors_match_dense_oracle(self, rng):
        structures = two_class_structures(rng)
        t0 = Trial(rng.standard_normal((2, 60)), 0, 100.0)
        t1 = Trial(rng.standard_normal((2, 60)), 1, 100.0)
        nan = t1.data.copy()
        nan[1, 5] = np.inf
        cases = [
            ([t0], structures),
            ([t0, Trial(t1.data, None, 100.0)], structures),
            ([t0, Trial(t1.data, 0, 100.0)], structures),
            ([t0, Trial(rng.standard_normal((3, 60)), 1, 100.0)], structures),
            ([t0, Trial(t1.data, 1, 50.0)], structures),
            ([t0, t1], StructureMatrices(structures.trains[:, :, :-20], 40)),
            ([t0, Trial(nan, 1, 100.0)], structures),
            ([Trial(np.zeros((2, 60)), label, 100.0) for label in (0, 1)], structures),
        ]
        messages = set()
        for case_trials, case_structures in cases:
            with pytest.raises(ValueError) as oracle:
                dense_fit_cca(case_trials, case_structures)
            with pytest.raises(ValueError) as fast:
                fit_cca(case_trials, case_structures)
            assert str(fast.value) == str(oracle.value)
            messages.add(str(oracle.value))
        assert len(messages) == len(cases)  # each case trips a different check


class TestDesignCache:
    @staticmethod
    def unequal_shuffled(trials, rng):
        """The trials in a random order with seven of them dropped."""
        order = rng.permutation(len(trials))[:-7]
        return [trials[i] for i in order]

    def test_static_curve_fits_match_per_trial_oracle(self, small_sim, rng):
        _, sim, trials = small_sim
        unequal = self.unequal_shuffled(trials, rng)
        assert np.unique(np.bincount([t.label for t in unequal])).size > 1
        for trial_set in (trials, unequal):
            stats = TrialStatistics(trial_set, sim.structures)
            subsets = static_curve_subsets(np.array([t.label for t in trial_set]))
            assert len(subsets) == 30
            for subset in subsets:
                assert_same_model(stats.fit(subset), per_trial_fit(stats, subset), rtol=1e-12)

    @pytest.mark.parametrize("method, designs, channels",
                             [("static_max_itr", 6, 30), ("fixed", 1, 5)])
    def test_design_whitened_once_per_class_counts(self, small_sim, monkeypatch,
                                                   method, designs, channels):
        # Five trials of each of six classes over five folds: every outer
        # training split has the same counts, and the inner splits of one
        # have five different count vectors. The design covariance is
        # factored by one solve per count vector, and each fit's channel
        # covariance is whitened as one matrix of a stack.
        _, sim, trials = small_sim
        names, solves = [], []
        solve = np.linalg.solve

        def whitening(covs, name):
            names.extend([name] * len(covs))
            return _inverse_sqrt(covs, name)

        def solving(a, b):
            solves.append(a.shape)
            return solve(a, b)

        monkeypatch.setattr("dynastop.decoding._inverse_sqrt", whitening)
        monkeypatch.setattr(np.linalg, "solve", solving)
        hyperparams = [0.5] if method == "fixed" else []
        config = ExperimentConfig(method=method, hyperparams=hyperparams, folds=5)
        evaluate_store(trials, sim.structures, config)
        assert solves == [(sim.structures.shape[1],) * 2] * designs
        assert names == ["channel"] * channels

    def test_zero_data_with_cached_design_is_rank_deficient(self, small_sim):
        # The same classes twice, once with all-zero data: the zero copy's
        # fit finds its design side cached and must still reject the data.
        _, sim, trials = small_sim
        zeros = [Trial(np.zeros_like(t.data), t.label, t.fs) for t in trials]
        stats = TrialStatistics(trials + zeros, sim.structures)
        real = np.arange(len(trials))
        stats.fit(real)
        with pytest.raises(ValueError, match="channel covariance is rank deficient"):
            stats.fit(real + len(trials))
        assert len(stats._designs) == 1


class TestExactDesign:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_codes=st.integers(2, 5),
        structure_samples=st.integers(2, 90),
        lag_share=st.floats(0.0, 1.0),
        length_share=st.floats(0.0, 1.0),
        rate_hz=st.sampled_from([0.25, 0.5, 1.0, 2.0]),
        weights=st.lists(st.integers(0, 6), min_size=5, max_size=5),
    )
    @example(seed=0, n_codes=2, structure_samples=90, lag_share=1.0, length_share=0.0,
             rate_hz=0.5, weights=[0, 3, 0, 0, 0])
    def test_design_covariance_is_exact(self, seed, n_codes, structure_samples, lag_share,
                                        length_share, rate_hz, weights):
        # Random codes, response lengths up to the structures' length,
        # trials up to that long, and class weights with zeros: the design
        # covariance is the integer Gram and row sums of the dense matrices
        # less one rounded division, to the bit, and within 1e-12 of the
        # centred BLAS products.
        rng = np.random.default_rng(seed)
        response_samples = 1 + int(lag_share * (structure_samples - 1))
        n_samples = 2 + int(length_share * (structure_samples - 2))
        bits = rng.integers(0, 2, (n_codes, int(rng.integers(1, 12)))).astype(np.uint8)
        structures = structure_matrices(modulate(bits), 1.0, rate_hz, structure_samples,
                                        response_samples)
        trials = [Trial(rng.standard_normal((2, n_samples)), label, 1.0)
                  for label in range(n_codes)]
        stats = TrialStatistics(trials, structures)
        counts = np.array(weights[:n_codes])
        assume(counts.any())

        dense = np.stack([np.asarray(m)[:, :n_samples] for m in structures]).astype(np.int64)
        gram = np.tensordot(counts, dense @ dense.transpose(0, 2, 1), axes=1)
        sums = counts @ dense.sum(axis=2)
        total = int(counts.sum()) * n_samples
        expected = (gram - np.outer(sums, sums) / total) / (total - 1)
        expected += RIDGE * np.mean(np.diag(expected)) * np.eye(expected.shape[0])
        if not np.trace(expected) > 0.0:
            with pytest.raises(ValueError, match="no design row varies"):
                stats._design(counts)
            return
        spread, cov_dd = stats._design(counts)
        assert cov_dd.tobytes() == expected.tobytes()

        means, centred = dense_design_moments(structures, stats.classes, n_samples)
        assert spread.tobytes() == (means - counts @ means / counts.sum()).tobytes()
        reference = centred_design_m2(means, centred, counts, n_samples) / (total - 1)
        reference += RIDGE * np.mean(np.diag(reference)) * np.eye(reference.shape[0])
        assert np.abs(cov_dd - reference).max() <= 1e-12 * np.abs(reference).max()


class TestFitMany:
    def test_matches_one_fit_per_subset(self, small_sim, paper_sim, rng):
        unequal = TestDesignCache.unequal_shuffled(small_sim[2], rng)
        for trial_set, structures in ((small_sim[2], small_sim[1].structures),
                                      (unequal, small_sim[1].structures),
                                      (paper_sim[2], paper_sim[1].structures)):
            stats = TrialStatistics(trial_set, structures)
            subsets = static_curve_subsets(np.array([t.label for t in trial_set]))
            # As the harness calls it: the five outer training splits, then
            # the five inner splits of each.
            calls = [subsets[::6]] + [subsets[k + 1:k + 6] for k in range(0, len(subsets), 6)]
            for sets in calls:
                models = stats.fit_many(sets)
                for model, reference in zip(models, [stats.fit(s) for s in sets], strict=True):
                    for name in ("spatial_filter", "response"):
                        assert getattr(model, name).tobytes() == getattr(reference, name).tobytes()
                    assert model.canonical_correlation == reference.canonical_correlation
                    assert model.fs == reference.fs
                    gap = np.abs(model.templates - reference.templates).max()
                    assert gap <= 1e-14 * np.abs(reference.templates).max()
            assert stats.fit_many([]) == []

    def test_single_fit_templates_are_the_template_loop_bytes(self, small_sim, paper_sim):
        # A model read back rebuilds its templates from the response with
        # predict_templates, so a single fit must give those bytes.
        for _, sim, trials in (small_sim, paper_sim):
            stats = TrialStatistics(trials, sim.structures)
            for model in (fit_cca(trials, sim.structures),
                          stats.fit(np.arange(0, len(trials), 2))):
                rebuilt = predict_templates(model.response, sim.structures)
                assert rebuilt.tobytes() == model.templates.tobytes()
                assert loop_templates(model.response, sim.structures).tobytes() == rebuilt.tobytes()


class TestBatchedSolve:
    @staticmethod
    def draw_subsets(groups, n_subsets, rng):
        """n_subsets random subsets of at least two trials of two classes;
        they share a few class-count vectors, so one solve serves several."""
        members = [np.flatnonzero(groups == g) for g in range(groups.max() + 1)]
        vectors = []
        while len(vectors) < rng.integers(1, n_subsets + 1):
            counts = [rng.integers(0, m.size + 1) for m in members]
            if np.count_nonzero(counts) >= 2:
                vectors.append(counts)
        return [np.concatenate([rng.choice(m, size=c, replace=False)
                                for m, c in zip(members, vectors[rng.integers(len(vectors))])])
                for _ in range(n_subsets)]

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        offset=st.sampled_from([0.0, -3.0, 1e3]),
        n_subsets=st.integers(1, 30),
    )
    @example(seed=0, offset=1e3, n_subsets=30)
    def test_matches_svd_oracle_and_single_fits(self, small_sim, seed, offset, n_subsets):
        _, sim, trials = small_sim
        rng = np.random.default_rng(seed)
        trials = with_offset(TestDesignCache.unequal_shuffled(trials, rng), offset)
        stats = TrialStatistics(trials, sim.structures)
        assert np.unique(np.bincount(stats.groups)).size > 1
        subsets = self.draw_subsets(stats.groups, n_subsets, rng)
        models = stats.fit_many(subsets)
        for subset, model in zip(subsets, models, strict=True):
            assert_same_model(model, svd_fit(stats, subset), rtol=1e-12)
            single = stats.fit(subset)
            for name in ("spatial_filter", "response"):
                assert getattr(model, name).tobytes() == getattr(single, name).tobytes()
            assert model.canonical_correlation == single.canonical_correlation

    def test_zero_structures_name_the_design(self, small_sim):
        _, sim, trials = small_sim
        zeros = StructureMatrices(np.zeros_like(sim.structures.trains), sim.structures.n_samples)
        with pytest.raises(ValueError, match="design covariance is rank deficient"):
            fit_cca(trials, zeros)


class TestStructureReads:
    @pytest.fixture
    def builds(self, monkeypatch):
        """Counts of the matrices StructureMatrices builds, by code index."""
        counts = collections.Counter()
        read = StructureMatrices.__getitem__

        def counted(self, index):
            if isinstance(index, (int, np.integer)):
                counts[int(index)] += 1
            return read(self, index)

        monkeypatch.setattr(StructureMatrices, "__getitem__", counted)
        return counts

    def test_each_matrix_built_once_per_use(self, paper_sim, small_sim, builds):
        _, sim, trials = paper_sim
        stats = TrialStatistics(trials, sim.structures)
        assert builds == collections.Counter(range(36))
        for index_sets in ([None], [None, np.arange(0, len(trials), 2), np.arange(50)]):
            builds.clear()
            stats.fit_many(index_sets)
            assert builds == collections.Counter(range(36))
        # Only the classes with trials are read for the statistics.
        _, sim, trials = small_sim
        builds.clear()
        TrialStatistics([t for t in trials if t.label in (1, 4)], sim.structures)
        assert builds == collections.Counter([1, 4])

    @pytest.mark.parametrize("method, hyperparams", [
        ("static_max_accuracy", []), ("static_targeted_accuracy", [0.5, 0.9]), ("fixed", [0.5]),
    ])
    def test_command_builds_each_matrix_twice(self, small_sim, builds, method, hyperparams):
        # Once for the statistics and once for the templates of the one
        # fit_many call, which fits a static method's 30 decoders together.
        _, sim, trials = small_sim
        config = ExperimentConfig(method=method, hyperparams=hyperparams, folds=5)
        evaluate_store(trials, sim.structures, config)
        assert builds == collections.Counter(2 * list(range(len(sim.structures))))

    def test_paper_length_setup_memory(self, paper_sim, traced_peak):
        # Structures, statistics and one fit at 4.2 s: the 36 dense matrices
        # alone would take 10.4 MB.
        cfg, sim, trials = paper_sim

        def set_up():
            structures = structure_matrices(sim.codes, cfg.fs, cfg.rate_hz, sim.n_samples,
                                            sim.response.size // 2)
            return TrialStatistics(trials, structures).fit()

        model, peak = traced_peak(set_up)
        assert model.templates.shape == (36, 504)
        assert peak < 10e6


class TestScoreTraceOracle:
    def test_inner_matches_window_loop(self, paper_sim):
        _, sim, trials = paper_sim
        model = fit_cca(trials, sim.structures)
        grid = np.arange(12, 505, 12)
        for trial in trials[:10] + with_offset(trials[10:15], 1e3):
            trace = score_trace(model, trial, grid, "inner")
            assert trace.shape == (grid.size, len(sim.structures))
            assert_same_inner_trace(trace, model, trial, grid)

    def test_correlation_matches_window_loop(self, paper_sim):
        _, sim, trials = paper_sim
        model = fit_cca(trials, sim.structures)
        grid = np.arange(12, 505, 12)
        for trial in trials[:10] + with_offset(trials[10:15], 1e3):
            trace = score_trace(model, trial, grid, "correlation")
            np.testing.assert_allclose(
                trace, window_trace(model, trial, grid, "correlation"), rtol=0, atol=1e-12
            )

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_samples=st.integers(2, 80),
        offset=st.sampled_from([0.0, 0.5, -40.0, 1e3]),
        similarity=st.sampled_from(["inner", "correlation"]),
    )
    # Short windows far from their row's longest-window mean, which cancelled
    # when the template rows (first case) or the trial (second) were centred
    # on that mean.
    @example(seed=16344578, n_samples=39, offset=0.0, similarity="correlation")
    @example(seed=2721926448, n_samples=64, offset=0.0, similarity="correlation")
    # The two float64 paths 3.9e-12 apart, each about 2e-12 from a reference
    # that filters in extended precision too.
    @example(seed=2976035981, n_samples=30, offset=1e3, similarity="correlation")
    def test_random_traces_match_window_loop(self, seed, n_samples, offset, similarity):
        rng = np.random.default_rng(seed)
        templates = rng.standard_normal((5, n_samples)) + rng.normal(0.0, 3.0, (5, 1))
        model = toy_model(templates)
        model.spatial_filter = rng.standard_normal(3)
        trial = Trial(rng.standard_normal((3, n_samples)) + offset, None, 100.0)
        grid = np.unique(rng.integers(1, n_samples + 1, size=rng.integers(1, 8)))
        trace = score_trace(model, trial, grid, similarity)
        if similarity == "inner":
            assert_same_inner_trace(trace, model, trial, grid)
            return
        for path, filter_width in ((trace, int(grid.max())),
                                   (window_trace(model, trial, grid, similarity), None)):
            np.testing.assert_allclose(
                path, extended_correlation_trace(model, trial, grid, filter_width),
                rtol=0, atol=1e-12,
            )

    def test_zero_variance_prefixes_score_zero(self):
        templates = np.array(
            [
                [0.0, 0.0, 0.0, 1.0, -2.0, 0.5, 1.5, -1.0],
                [1.0, -1.0, 2.0, 0.0, 0.5, 1.0, -0.5, 0.0],
                [2.0, 2.0, 2.0, 2.0, 2.0, 1.0, -1.0, 3.0],
            ]
        )
        model = toy_model(templates)
        grid = np.arange(1, 9)
        # Non-dyadic tails make the running sums of a constant prefix round
        # to a small nonzero variance; the scores must still be exactly 0.
        tails = ([1.0, -2.0, 0.25, 3.0], [0.1, -2.3, 0.7, 3.1], [1 / 3, 0.2, -0.9, 2.6])
        for prefix, tail in itertools.product((0.0, 2.0, -4.0), tails):
            data = np.array([[prefix] * 4 + tail])
            trial = Trial(data, None, 100.0)
            trace = score_trace(model, trial, grid, "correlation")
            reference = window_trace(model, trial, grid, "correlation")
            np.testing.assert_array_equal(trace[:4], 0.0)  # constant trial prefix
            np.testing.assert_array_equal(trace[:5, 2], 0.0)  # constant template prefix
            np.testing.assert_array_equal(trace[:3, 0], 0.0)
            np.testing.assert_array_equal(reference[trace == 0.0], 0.0)
            np.testing.assert_allclose(trace, reference, rtol=0, atol=1e-12)

    def test_window_validation(self):
        model = toy_model(np.ones((2, 4)))
        trial = Trial(np.zeros((1, 4)), None, 100.0)
        for similarity in ("inner", "correlation"):
            with pytest.raises(ValueError, match="positive"):
                score_trace(model, trial, [0, 2], similarity)
            with pytest.raises(ValueError, match="exceeds"):
                score_trace(model, trial, [2, 5], similarity)
            with pytest.raises(ValueError, match="empty"):
                score_trace(model, trial, [], similarity)


class TestScoreTracesBatch:
    @staticmethod
    def assert_matches_per_trial(model, trials, grid, similarity):
        traces = score_traces(model, trials, grid, similarity)
        assert traces.shape == (len(trials), len(grid), model.templates.shape[0])
        for trace, trial in zip(traces, trials):
            reference = per_trial_score_trace(model, trial, grid, similarity)
            scale = np.abs(reference).max() if similarity == "inner" else 1.0
            np.testing.assert_allclose(trace, reference, rtol=0, atol=1e-12 * scale)
            np.testing.assert_array_equal(trace == 0.0, reference == 0.0)

    @pytest.mark.parametrize("similarity", ["inner", "correlation"])
    def test_paper_length_matches_per_trial(self, paper_sim, similarity):
        _, sim, trials = paper_sim
        model = fit_cca(trials, sim.structures)
        grid = np.arange(12, 505, 12)
        batch = trials[:20] + with_offset(trials[20:30], 1e3)
        self.assert_matches_per_trial(model, batch, grid, similarity)
        np.testing.assert_array_equal(
            score_trace(model, batch[-1], grid, similarity),
            score_traces(model, batch, grid, similarity)[-1],
        )

    def test_constant_prefixes_match_per_trial(self):
        templates = np.array(
            [
                [0.0, 0.0, 0.0, 1.0, -2.0, 0.5, 1.5, -1.0],
                [2.0, 2.0, 2.0, 2.0, 2.0, 1.0, -1.0, 3.0],
                [1.0, -1.0, 2.0, 0.0, 0.5, 1.0, -0.5, 0.0],
                # Its constant prefix leaves a rounding-sized variance at window 3.
                [0.3, 0.3, 0.3, 0.3, 0.3, 0.1, -0.7, 2.9],
            ]
        )
        model = toy_model(templates)
        trials = [
            Trial(np.array([[prefix] * 4 + [1 / 3, 0.2, -0.9, 2.6]]), None, 100.0)
            for prefix in (0.0, 2.0, -4.0, 1e3)
        ] + [
            Trial(np.array([[0.5, -1.2, 2.0, 0.1, 1 / 3, 0.2, -0.9, 2.6]]), None, 100.0),
            Trial(np.full((1, 8), 7.0), None, 100.0),
        ]
        for similarity in ("inner", "correlation"):
            self.assert_matches_per_trial(model, trials, np.arange(1, 9), similarity)
        traces = score_traces(model, trials, np.arange(1, 9), "correlation")
        np.testing.assert_array_equal(traces[:-2, :4], 0.0)
        np.testing.assert_array_equal(traces[:, :5, 3], 0.0)
        np.testing.assert_array_equal(traces[-1], 0.0)

    @pytest.mark.parametrize("grid", [
        window_grid(30, 4.2, 120.0),  # segments of 3 and 4 samples
        # One-sample segments. From 3 samples on: the correlation of a
        # 2-sample window carries 1.6e-12 of running-sum cancellation here.
        np.concatenate([np.arange(3, 25), [40, 41, 42, 300, 301, 504]]),
        window_grid(30, 2.0, 120.0),  # t* shorter than the trials
    ])
    @pytest.mark.parametrize("similarity", ["inner", "correlation"])
    def test_uneven_grids_match_window_loop(self, paper_sim, grid, similarity):
        _, sim, trials = paper_sim
        model = fit_cca(trials, sim.structures)
        batch = trials[:6] + with_offset(trials[6:9], 1e3)
        traces = score_traces(model, batch, grid, similarity)
        for trace, trial in zip(traces, batch):
            if similarity == "inner":
                assert_same_inner_trace(trace, model, trial, grid)
            else:
                np.testing.assert_allclose(
                    trace, window_trace(model, trial, grid, similarity), rtol=0, atol=1e-12)
            np.testing.assert_array_equal(score_trace(model, trial, grid, similarity), trace)

    def test_empty_batch_and_validation(self):
        model = toy_model(np.ones((2, 4)))
        assert score_traces(model, [], [1, 4], "correlation").shape == (0, 2, 2)
        short = [Trial(np.zeros((1, 4)), None, 100.0), Trial(np.zeros((1, 3)), None, 100.0)]
        with pytest.raises(ValueError, match="exceeds"):
            score_traces(model, short, [2, 4], "inner")
        with pytest.raises(ValueError, match="similarity"):
            score_traces(model, short, [2], "cosine")
        # Each window would score from the previous window's end: 30 of
        # [60, 30, 126] would differ from 30 of [30, 60, 126].
        for grid in ([4, 2], [2, 2, 4]):
            with pytest.raises(ValueError, match="grid"):
                score_traces(model, short[:1], grid, "inner")


@pytest.fixture(scope="module")
def paper_batch():
    """A decoder and 144 paper-length trials: the training split of a
    five-fold evaluation of 180 trials."""
    cfg = SimConfig(n_classes=36, n_channels=8, trial_seconds=4.2, sigma=3.0, seed=11)
    sim = resolve_config(cfg)
    trials = make_dataset(cfg, 4, resolved=sim)
    return fit_cca(trials, sim.structures), trials


class TestBatchSizeInvariance:
    # One trial (a leave-one-out fold, scored over a padded zero row), two,
    # an inner fold (29), an outer fold (36) and a training split (144).
    SIZES = (1, 2, 29, 36, 144)

    @pytest.mark.parametrize("grid", [
        np.arange(12, 505, 12),
        # One-sample segments, then segments of 16, 258 and 203 samples: a
        # segment past _GEMM_DEPTH is summed in pieces.
        np.concatenate([np.arange(1, 25), [40, 41, 42, 300, 301, 504]]),
    ])
    @pytest.mark.parametrize("similarity", ["inner", "correlation"])
    def test_rows_equal_each_trial_scored_alone(self, paper_batch, grid, similarity):
        model, trials = paper_batch
        alone = np.stack([score_traces(model, [trial], grid, similarity)[0] for trial in trials])
        for size in self.SIZES:
            batch = score_traces(model, trials[:size], grid, similarity)
            assert batch.shape == (size, grid.size, 36)
            assert batch.tobytes() == alone[:size].tobytes(), f"batch of {size}"


class TestFloat32Trials:
    """A store hands its trials out as float32. Every kernel reads them
    through float64 arithmetic, and float64 holds each float32 exactly, so
    float32 trials and their float64 copies give the same bytes."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_classes=st.integers(2, 5),
        n_channels=st.integers(1, 4),
        trial_seconds=st.sampled_from([0.5, 1.05]),
        sigma=st.floats(0.1, 10.0),
        alpha=st.floats(-3.0, 3.0),
        offset=st.floats(-1e3, 1e3),
        per_class=st.integers(2, 4),
        zeta=st.sampled_from([1e-4, 1.0, 1e4]),
    )
    def test_kernels_match_float64_copies(self, seed, n_classes, n_channels, trial_seconds,
                                          sigma, alpha, offset, per_class, zeta):
        cfg = SimConfig(n_classes=n_classes, n_channels=n_channels, trial_seconds=trial_seconds,
                        sigma=sigma, alpha=alpha, seed=seed)
        sim = resolve_config(cfg)
        single = [Trial((t.data + offset).astype(np.float32), t.label, t.fs)
                  for t in make_dataset(cfg, per_class, resolved=sim)]
        double = [Trial(t.data.astype(float), t.label, t.fs) for t in single]
        grid = window_grid(100.0, trial_seconds, cfg.fs)

        def same(a, b):
            a, b = np.asarray(a), np.asarray(b)
            return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())

        stats = [TrialStatistics(trials, sim.structures) for trials in (single, double)]
        for field in ("means", "channel_gram", "cross", "design_means", "classes", "groups"):
            assert same(getattr(stats[0], field), getattr(stats[1], field)), field
        subsets = [None, np.arange(1, len(single)), np.arange(n_classes, len(single))]
        fits = [s.fit_many(subsets) for s in stats]
        for model32, model64 in zip(*fits):
            for field in ("spatial_filter", "response", "templates", "canonical_correlation"):
                assert same(getattr(model32, field), getattr(model64, field)), field

        model = fits[1][0]
        for similarity in ("inner", "correlation"):
            assert same(score_traces(model, single, grid, similarity),
                        score_traces(model, double, grid, similarity)), similarity
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # noise-floor clamp
            stopping = [calibrate(model, trials, grid, zeta=zeta) for trials in (single, double)]
        assert (stopping[0].alpha, stopping[0].sigma) == (stopping[1].alpha, stopping[1].sigma)
        assert same(stopping[0].eta, stopping[1].eta)
        for trial32, trial64 in zip(single, double):
            assert run_trial(stopping[1], model, trial32) == run_trial(stopping[1], model, trial64)
