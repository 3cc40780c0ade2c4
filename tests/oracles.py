"""Reference implementations the tests check the package against: the
structure matrices built up front as a list, the fit's per-trial moments one
class at a time, the design side of the fit from dense centred matrices
and one class-count vector at a time from the onset trains,
the per-subset SVD fit of the decoder, one window's scores from its own
prefix, the likelihood ratio the boundary solver inverts, scores against
the simulator's planted templates, the Beta outlier probability through
numpy's clip, mean and var, and the per-window run of every stopping
rule."""

import math

import numpy as np

from dynastop.baselines import _BETA_EPSILON, _MAX_SHAPES, beta_cdf
from dynastop.bayes_stop import StopOutcome
from dynastop.decoding import RIDGE, DecoderModel, predict_templates
from dynastop.metrics import DecisionCounts
from dynastop.simulate import resolve_config


def structure_matrices_list(codes, fs, rate_hz, n_samples, response_samples):
    """Reference structure_matrices: every code's dense (2 * response_samples,
    n_samples) matrix built up front, one array per code, from the same
    zero-led onset trains."""
    n_samples = int(n_samples)
    response_samples = int(response_samples)
    codes = np.atleast_2d(np.asarray(codes, dtype=np.uint8))
    n_codes, n_bits = codes.shape
    bits_needed = int(math.ceil(n_samples * rate_hz / fs))
    cycle_starts = n_bits * np.arange(max(1, int(math.ceil(bits_needed / n_bits))))
    edges = np.diff(codes.astype(np.int8), axis=1, prepend=0, append=0)
    owner, starts = np.nonzero(edges == 1)
    lengths = np.nonzero(edges == -1)[1] - starts
    onset_bits = (cycle_starts[:, None] + starts).ravel().astype(np.float64)
    onsets = np.floor(onset_bits * fs / rate_hz + 0.5).astype(np.int64)
    inside = onsets < n_samples
    trains = np.zeros((2 * n_codes, response_samples - 1 + n_samples))
    trains[np.tile(2 * owner + lengths - 1, cycle_starts.size)[inside],
           onsets[inside] + response_samples - 1] = 1.0
    lagged = np.lib.stride_tricks.sliding_window_view(trains, n_samples, axis=1)[:, ::-1]
    return [lagged[k:k + 2].copy().reshape(-1, n_samples) for k in range(0, 2 * n_codes, 2)]


def inverse_sqrt(cov, name):
    """Symmetric inverse square root of one covariance by eigendecomposition;
    ValueError naming it when rank deficient."""
    evals, evecs = np.linalg.eigh(cov)
    tol = max(evals[-1], 0.0) * 1e-12
    if evals[0] <= tol:
        raise ValueError(
            f"{name} covariance is rank deficient after regularization "
            f"(min eigenvalue {evals[0]:.3e})"
        )
    return (evecs / np.sqrt(evals)) @ evecs.T


def solve_cca(isq_x, isq_d, cov_xd):
    """Unit-norm spatial filter, event response and canonical correlation
    from the whitening matrices and the cross-covariance: the leading
    singular pair of the whitened cross-covariance, signed so the filter's
    first nonzero element is positive."""
    left, singulars, right_t = np.linalg.svd(isq_x @ cov_xd @ isq_d)
    spatial = isq_x @ left[:, 0]
    response = isq_d @ right_t[0]

    norm = np.linalg.norm(spatial)
    if norm == 0.0:
        raise ValueError("degenerate spatial filter")
    spatial = spatial / norm
    lead = np.flatnonzero(np.abs(spatial) > 1e-12 * np.abs(spatial).max())
    if lead.size and spatial[lead[0]] < 0:
        spatial = -spatial
        response = -response
    return spatial, response, float(singulars[0])


def dense_design_moments(structures, classes, n_samples):
    """Reference design side of a TrialStatistics: each class's dense matrix
    cut to n_samples columns, its row means, and the BLAS Gram of the matrix
    centred on them, shapes (n_classes, rows) and (n_classes, rows, rows)."""
    means, grams = [], []
    for label in classes:
        design = np.asarray(structures[label], dtype=float)[:, :n_samples]
        means.append(design.mean(axis=1))
        design = design - means[-1][:, None]
        grams.append(design @ design.T)
    return np.stack(means), np.stack(grams)


def class_loop_statistics(trials, structures):
    """Reference per-trial moments of a TrialStatistics: one class at a time,
    each class's trials cast into a float64 buffer that the classes share,
    after a finiteness check of every trial in index order. A dict of the
    trial-order means, channel_gram and cross, and the classes' design_means
    from their dense matrices."""
    labels = [t.label for t in trials]
    for i, trial in enumerate(trials):
        if not np.isfinite(trial.data).all():
            raise ValueError(f"trial {i} (label {labels[i]}) contains non-finite values")
    classes, groups = np.unique(labels, return_inverse=True)
    n_channels, n_samples = trials[0].data.shape
    means = np.empty((len(trials), n_channels))
    channel_gram = np.empty((len(trials), n_channels, n_channels))
    cross = np.empty((len(trials), n_channels, structures.shape[1]))
    trial_buffer = np.empty((np.bincount(groups).max(), n_channels, n_samples))
    for group, label in enumerate(classes):
        members = np.flatnonzero(groups == group)
        data = trial_buffer[:members.size]
        np.stack([trials[i].data for i in members], out=data)
        class_means = data.mean(axis=2)
        data -= class_means[:, :, None]
        means[members] = class_means
        channel_gram[members] = data @ data.transpose(0, 2, 1)
        cross[members] = data @ structures[label][:, :n_samples].T
    return {"means": means, "channel_gram": channel_gram, "cross": cross,
            "design_means": dense_design_moments(structures, classes, n_samples)[0]}


def centred_design_m2(design_means, design_gram, counts, n_samples):
    """Reference design second moment of a subset with these class counts:
    the counts-weighted centred class Grams plus the spread of the class
    means about the subset's grand mean (the pairwise update)."""
    weights = np.asarray(counts, dtype=float)
    spread = design_means - weights @ design_means / weights.sum()
    return (np.tensordot(weights, design_gram, axes=1)
            + n_samples * (spread.T @ (weights[:, None] * spread)))


def lag_gram(lags, weights):
    """Reference :meth:`LagProducts.gram` of one weight vector, shape (2R,
    2R): the lag recurrence run for that vector alone."""
    heads = np.tensordot(weights, lags.heads, axes=1)
    n_lags = heads.shape[2]
    ends = (lags.ends.T @ (weights[:, None] * lags.ends)).reshape(2, n_lags, 2, n_lags)
    gram = np.empty((2, n_lags, 2, n_lags))
    gram[:, 0] = heads
    gram[:, :, :, 0] = heads.transpose(1, 2, 0)
    for i in range(1, n_lags):
        np.subtract(gram[:, i - 1, :, :-1], ends[:, i - 1, :, :-1], out=gram[:, i, :, 1:])
    return gram.reshape(2 * n_lags, 2 * n_lags)


def count_design(stats, counts):
    """Reference design side of a TrialStatistics fit for one class-count
    vector, taken one vector at a time: the class design means less the
    subset's grand mean, and the ridge-regularised design covariance, the
    :func:`lag_gram` less u u^T / (N n) for the weighted row sums u, N
    trials and n samples a trial. ValueError when no design row varies."""
    weights = np.asarray(counts, dtype=float)
    total = weights.sum() * stats.n_samples
    spread = stats.design_means - weights @ stats.design_means / weights.sum()
    sums = weights @ stats._lags.sums
    cov_dd = (lag_gram(stats._lags, weights) - np.outer(sums, sums) / total) / (total - 1)
    cov_dd = cov_dd + RIDGE * np.mean(np.diag(cov_dd)) * np.eye(cov_dd.shape[0])
    if not np.trace(cov_dd) > 0.0:
        raise ValueError("design covariance is rank deficient after regularization "
                         "(no design row varies)")
    return spread, cov_dd


def svd_fit(stats, indices=None):
    """Reference subset fit of a TrialStatistics: the subset's moments summed
    on their own, both covariances whitened by eigendecomposition on every
    call, and the pair from the SVD of the whitened cross-covariance
    (:func:`solve_cca`)."""
    if indices is None:
        indices = np.arange(stats.groups.size)
    indices = np.asarray(indices, dtype=int)
    groups = stats.groups[indices]
    n_samples = stats.n_samples
    n = indices.size * n_samples
    design_means, design_gram = dense_design_moments(stats.structures, stats.classes, n_samples)
    weights = np.bincount(groups, minlength=len(design_means)).astype(float)
    spread = design_means - weights @ design_means / weights.sum()
    mean_x = stats.means[indices]
    mean_x = mean_x - mean_x.mean(axis=0)
    m2_xx = stats.channel_gram[indices].sum(axis=0) + n_samples * (mean_x.T @ mean_x)
    m2_dd = centred_design_m2(design_means, design_gram, weights, n_samples)
    m2_xd = stats.cross[indices].sum(axis=0) + n_samples * (mean_x.T @ spread[groups])
    cov_xx = m2_xx / (n - 1)
    cov_dd = m2_dd / (n - 1)
    cov_xx += RIDGE * np.mean(np.diag(cov_xx)) * np.eye(cov_xx.shape[0])
    cov_dd += RIDGE * np.mean(np.diag(cov_dd)) * np.eye(cov_dd.shape[0])
    spatial, response, correlation = solve_cca(
        inverse_sqrt(cov_xx, "channel"), inverse_sqrt(cov_dd, "design"), m2_xd / (n - 1)
    )
    return DecoderModel(spatial_filter=spatial, response=response,
                        templates=predict_templates(response, stats.structures),
                        fs=stats.fs, canonical_correlation=correlation)


def prefix_scores(model, trial, window, similarity):
    """Reference scores of one decision window, shape (n_classes,): the
    trial's first `window` samples filtered and scored against every template
    truncated to them, by inner product ("inner") or Pearson correlation
    ("correlation"; 0 where the filtered prefix or a template prefix has zero
    variance)."""
    window = int(window)
    if window <= 0:
        raise ValueError("window_samples must be positive")
    if window > trial.data.shape[1] or window > model.templates.shape[1]:
        raise ValueError(f"window of {window} samples exceeds the available data")
    filtered = model.spatial_filter @ trial.data[:, :window]
    if similarity == "inner":
        return model.templates[:, :window] @ filtered
    filtered = filtered - filtered.mean()
    x_norm = np.linalg.norm(filtered)

    templ = model.templates[:, :window]
    templ = templ - templ.mean(axis=1, keepdims=True)
    t_norms = np.linalg.norm(templ, axis=1)

    degenerate = (t_norms == 0.0) | (x_norm == 0.0)
    denom = np.where(degenerate, 1.0, t_norms * x_norm)
    return np.where(degenerate, 0.0, (templ @ filtered) / denom)


def stratified_folds_loop(labels, n_folds):
    """Reference stratified_folds: each class's trials dealt round-robin
    over the folds in index order, one trial at a time."""
    labels = np.asarray(labels)
    folds = [[] for _ in range(n_folds)]
    counter = 0
    for label in np.unique(labels):
        for idx in np.flatnonzero(labels == label):
            folds[counter % n_folds].append(int(idx))
            counter += 1
    return [np.array(sorted(f), dtype=int) for f in folds]


def log_likelihood_ratio(f, params, alpha):
    """Log ratio of the target over the non-target score density at score f.

    Expanded quadratic form of the difference of the two Gaussian
    log-densities N(alpha*b1, s1) and N(alpha*b0, s0); vectorized over f.
    """
    f = np.asarray(f, dtype=float)
    v1 = params.s1 * params.s1
    v0 = params.s0 * params.s0
    quad = (v1 - v0) * f * f
    lin = -2.0 * alpha * (v1 * params.b0 - v0 * params.b1) * f
    const = -(alpha * alpha) * (v0 * params.b1 ** 2 - v1 * params.b0 ** 2)
    out = math.log(params.s0 / params.s1) + (quad + lin + const) / (2.0 * v0 * v1)
    return float(out) if out.ndim == 0 else out


def effective_noise_std(cfg, resolved=None):
    """Noise level seen by the pattern-matched projection of oracle_scores."""
    sim = resolved or resolve_config(cfg)
    return cfg.sigma / float(np.linalg.norm(sim.spatial_pattern))


def oracle_scores(cfg, trials, window_samples, resolved=None):
    """Per-trial scores against the true planted templates, bypassing decoding.

    Trials are projected onto the spatial pattern (normalized so the source
    passes with unit gain) and scored by inner product with the true templates
    truncated to the window, a matrix of shape (n_trials, n_classes). Used to
    check the predicted score distributions without decoder estimation error.
    """
    sim = resolved or resolve_config(cfg)
    window = int(window_samples)
    if not 1 <= window <= sim.n_samples:
        raise ValueError("window outside the trial length")
    pattern = sim.spatial_pattern
    projector = pattern / float(pattern @ pattern)
    templ = sim.templates[:, :window]
    out = np.empty((len(trials), cfg.n_classes))
    for i, trial in enumerate(trials):
        virtual = projector @ trial.data[:, :window]
        out[i] = templ @ virtual
    return out


def window_decide(rule, levels, scores, window_index):
    """Reference per-window rule: the label a rule emits at one window, or
    None to wait. levels holds the rule's per-window levels: the boundaries
    eta of "bds" and the margin thresholds of "margin"; for "fixed" it is
    the stop window and for "beta" the target accuracy."""
    if rule == "fixed":
        return int(np.argmax(scores)) if window_index >= levels else None
    if rule == "bds":
        accepted = np.flatnonzero(scores > levels[window_index])
        return int(accepted[np.argmax(scores[accepted])]) if accepted.size else None
    if rule == "margin":
        top_two = np.partition(scores, scores.size - 2)[-2:]
        if top_two[1] - top_two[0] >= levels[window_index]:
            return int(np.argmax(scores))
        return None
    return int(np.argmax(scores)) if outlier_probability(scores) >= levels else None


def outlier_probability(scores):
    """Reference Beta outlier probability of one window's scores: the Beta
    CDF at the mapped top score under the moment fit to the rest, through
    np.clip, ndarray.mean and ndarray.var; -inf where no Beta fits."""
    mapped = np.clip((np.asarray(scores) + 1.0) / 2.0, _BETA_EPSILON, 1.0 - _BETA_EPSILON)
    top = mapped.max()
    rest = mapped[mapped < top]
    if rest.size < 2:
        return -math.inf
    mean = rest.mean()
    var = rest.var()
    if var <= 0.0 or var >= mean * (1.0 - mean):
        return -math.inf
    common = mean * (1.0 - mean) / var - 1.0
    a = mean * common
    b = (1.0 - mean) * common
    if a <= 0.0 or b <= 0.0 or a + b > _MAX_SHAPES:
        return -math.inf
    return beta_cdf(top, a, b)


def best_class_loop(scores):
    """Reference emitted class: the first best score that is not NaN, class
    0 when every score is NaN."""
    numbers = [k for k in range(len(scores)) if not math.isnan(scores[k])]
    return max(numbers, key=lambda k: scores[k], default=0)


def apply_policy_loop(rule, levels, trace):
    """Reference run of any stopping rule over one trace: the per-window rule
    run window by window, forced to the last window when it never fires."""
    trace = np.asarray(trace, dtype=float)
    for w in range(trace.shape[0]):
        label = window_decide(rule, levels, trace[w], w)
        if label is not None:
            return StopOutcome(w, int(label), False)
    return StopOutcome(trace.shape[0] - 1, best_class_loop(trace[-1]), True)


def first_stops_loop(rule, levels, traces):
    """Reference first stops: each trial's window-loop stop, -1 when forced."""
    outcomes = [apply_policy_loop(rule, levels, trace) for trace in traces]
    return [-1 if o.forced else o.stopped_at for o in outcomes]


def pooled(counts):
    """Field-wise sum of DecisionCounts."""
    return DecisionCounts(*(sum(getattr(c, k) for c in counts)
                            for k in ("tp", "fp", "tn", "fn")))
