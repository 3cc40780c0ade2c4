"""Reconvolution CCA decoder: joint estimation of a spatial filter and a
temporal event response, template prediction, and per-class similarity scores
over growing decision windows.
"""

from dataclasses import dataclass

import numpy as np

from .codes import StructureMatrices

# Ridge factor of both CCA autocovariances, relative to their mean diagonal.
RIDGE = 1e-6


@dataclass
class Trial:
    """One multi-channel recording segment.

    Attributes
    ----------
    data: np.ndarray
        Real matrix of shape (n_channels, n_samples): float32 from a store
        (:func:`dynastop.store.load_store` keeps the blob's precision) or
        float64. Every kernel computes in float64, which holds each float32
        exactly, so a float32 trial and its float64 copy give the same bytes.
    label: int or None
        Class index of the attended stimulus, None when unknown.
    fs: float
        Sampling rate in Hz.
    """

    data: np.ndarray
    label: int | None
    fs: float


@dataclass
class DecoderModel:
    """Fitted decoder: spatial filter, event response, and class templates.

    templates[i] is the predicted single-channel response to stimulus i,
    obtained by passing the event response through structure matrix i.
    """

    spatial_filter: np.ndarray
    response: np.ndarray
    templates: np.ndarray
    fs: float
    canonical_correlation: float


def _inverse_sqrt(covs, name):
    """Symmetric inverse square root of each covariance of a (..., n, n)
    stack, from one stacked eigendecomposition. ValueError naming the
    covariance when one's smallest eigenvalue is not above 1e-12 of its
    largest (the first such one's is shown)."""
    evals, evecs = np.linalg.eigh(covs)
    deficient = evals[..., 0] <= np.maximum(evals[..., -1], 0.0) * 1e-12
    if deficient.any():
        raise ValueError(
            f"{name} covariance is rank deficient after regularization "
            f"(min eigenvalue {evals[..., 0][deficient].flat[0]:.3e})"
        )
    return (evecs / np.sqrt(evals)[..., None, :]) @ np.swapaxes(evecs, -1, -2)


def _regularised(cov):
    """A covariance plus RIDGE times its mean diagonal on the diagonal."""
    return cov + RIDGE * np.mean(np.diag(cov)) * np.eye(cov.shape[0])


def predict_templates(response, structures):
    """Predict the template of each structure matrix from an event response
    (a fitted model's, or a canonical one): :func:`_templates_from_responses`
    of that one response, a matrix of shape (len(structures), n_samples).

    Works for stimulation sequences unseen during fitting, as long as the
    structure matrices have one row per response sample.
    """
    return _templates_from_responses(np.asarray(response, dtype=float)[None], structures)[0]


def _shapes(structures):
    """(rows, columns) of each structure matrix: the metadata of a
    StructureMatrices, which builds none of them, or each array's shape."""
    if isinstance(structures, StructureMatrices):
        return [structures.shape[1:]] * len(structures)
    return [np.shape(matrix) for matrix in structures]


def _templates_from_responses(responses, structures):
    """Templates of every row of `responses`, shape (n_responses,
    len(structures), n_samples): one product per structure matrix for all
    the responses, so each matrix is built and read once."""
    templates = np.empty((responses.shape[0], len(structures), _shapes(structures)[0][1]))
    for i, matrix in enumerate(structures):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape[0] != responses.shape[1]:
            raise ValueError(
                f"structure {i} has {matrix.shape[0]} rows, expected {responses.shape[1]}"
            )
        templates[:, i] = responses @ matrix
    return templates


class TrialStatistics:
    """Per-trial sufficient statistics of the reconvolution CCA fit.

    The fit needs three covariances of the trials concatenated channel-wise
    against their labels' structure matrices concatenated column-wise. Each
    follows from per-trial moments: the trial's centred channel Gram, its
    centred data's products with its class's structure matrix, and its
    channel means. The centred data sums to zero over its samples, so the
    products need no centred design. A fit on any subset of the trials adds
    its members' moments and corrects for the spread of their means (the
    pairwise update of Chan, Golub and LeVeque), so cross-validation folds
    share one pass over the data and no fit builds the concatenated design
    matrix. The moments come from one float64 stack of all the trials,
    sorted by class: one finiteness check, one centring and one batched
    channel-Gram product for every trial, and one cross-product per class
    on its contiguous slice of the stack, each scattered back to trial order.

    The design side of a fit depends only on the subset's class counts, so
    subsets with equal counts share it. It comes from the onset trains
    (:meth:`StructureMatrices.lag_products`), not from the matrices: the
    classes' row sums and zero-lag Gram rows, taken once here, and per
    count vector the weighted Gram by its lag recurrence, less the
    weighted row sums' outer product over the sample count. Every step
    before that last division is on integers, so the design covariance is
    exact to the last bit.

    Parameters
    ----------
    trials: list of Trial
        At least two labeled trials with two distinct labels, each label
        the index of a structure matrix, equal shapes, equal sampling rates
        and finite data. A label outside the structures, and then the first
        trial holding a NaN or an infinity, raises ValueError naming the
        trial's index and label, before any moment is computed, so no fit
        ever reads such a trial.
    structures: StructureMatrices
        One structure matrix per class, at least as long as the trials;
        anything else raises TypeError. Each class's matrix is built once
        here, for its class's slice of the stacked trials, and once per
        :meth:`fit_many` call.
    """

    def __init__(self, trials, structures):
        if not isinstance(structures, StructureMatrices):
            raise TypeError(
                f"structures must be a StructureMatrices, not {type(structures).__name__}")
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
        for i, label in enumerate(labels):
            if not 0 <= label < len(structures):
                raise ValueError(f"trial {i} (label {label}) is not a class of the "
                                 f"{len(structures)} structure matrices")
        n_samples = trials[0].data.shape[1]
        if structures.n_samples < n_samples:
            # The matrices share one shape, so the first is named.
            raise ValueError("structure 0 shorter than the trials")
        self.classes, self.groups = np.unique(labels, return_inverse=True)
        # Every trial in one stack, sorted by class so that each class is a
        # contiguous slice; the stack is freed when the constructor returns.
        order = np.argsort(self.groups, kind="stable")
        n_channels = trials[0].data.shape[0]
        data = np.empty((len(trials), n_channels, n_samples))
        np.stack([trials[i].data for i in order], out=data)  # casts float32 exactly
        finite = np.isfinite(data).all(axis=(1, 2))
        if not finite.all():
            bad = order[~finite].min()
            raise ValueError(f"trial {bad} (label {labels[bad]}) contains non-finite values")

        self.structures = structures
        self.fs = trials[0].fs
        self.n_samples = n_samples
        self._lags = structures[self.classes].lag_products(n_samples)
        self.design_means = self._lags.sums / n_samples

        self.means = np.empty((len(trials), n_channels))
        self.channel_gram = np.empty((len(trials), n_channels, n_channels))
        self.cross = np.empty((len(trials), n_channels, structures.shape[1]))
        means = data.mean(axis=2)
        data -= means[:, :, None]
        self.means[order] = means
        self.channel_gram[order] = data @ data.transpose(0, 2, 1)
        start = 0
        for label, stop in zip(self.classes, np.cumsum(np.bincount(self.groups))):
            self.cross[order[start:stop]] = data[start:stop] @ structures[label][:, :n_samples].T
            start = stop
        self._designs = {}

    def fit(self, indices=None):
        """Fit the decoder on the trials at `indices` (default: all of them),
        as :func:`fit_cca` describes: :meth:`fit_many` of that one subset."""
        return self.fit_many([indices])[0]

    def fit_many(self, index_sets):
        """One decoder per subset of trial indices (None: all the trials),
        each the fit :func:`fit_cca` describes, all solved in one pass.

        Each subset sums its own trials' moments, so its model does not
        depend on the other subsets of the call. The canonical pair is the
        leading eigenpair of the (channels, channels) matrix
        M = C_xx^-1/2 C_xd C_dd^-1 C_dx C_xx^-1/2: its eigenvalue is the
        squared canonical correlation rho^2, the filter is C_xx^-1/2 u for its
        eigenvector u, and the response is C_dd^-1 C_dx w / rho for that
        filter w. The channel whitenings and the eigenproblems of all the
        subsets are one stacked eigendecomposition each. C_dd depends only
        on the class counts, so C_dd^-1 C_dx comes from one solve per count
        vector, the right-hand sides of its subsets side by side. The
        templates of all the models then come from one product per class,
        the stacked responses times that class's structure matrix, so each
        structure matrix is read once for every model. The models'
        responses, like their templates, are rows of one shared array.

        Returns
        -------
        models: list of DecoderModel
            One per index set, in order.
        """
        subsets = [self._members(indices) for indices in index_sets]
        if not subsets:
            return []
        covs_xx, covs_xd, by_counts = [], [], {}
        for k, indices in enumerate(subsets):
            groups = self.groups[indices]
            counts = np.bincount(groups, minlength=len(self.design_means))
            spread, cov_dd = self._design(counts)
            by_counts.setdefault(counts.tobytes(), (cov_dd, []))[1].append(k)
            n = indices.size * self.n_samples
            mean_x = self.means[indices]
            mean_x = mean_x - mean_x.mean(axis=0)
            m2_xx = self.channel_gram[indices].sum(axis=0) + self.n_samples * (mean_x.T @ mean_x)
            m2_xd = self.cross[indices].sum(axis=0) + self.n_samples * (mean_x.T @ spread[groups])
            covs_xx.append(_regularised(m2_xx / (n - 1)))
            covs_xd.append(m2_xd / (n - 1))
        isq_x = _inverse_sqrt(np.stack(covs_xx), "channel")
        cov_xd = np.stack(covs_xd)
        n_rows = cov_xd.shape[2]
        projected = np.empty((len(subsets), n_rows, cov_xd.shape[1]))  # C_dd^-1 C_dx
        for cov_dd, members in by_counts.values():
            rhs = cov_xd[members].transpose(2, 0, 1).reshape(n_rows, -1)
            solution = np.linalg.solve(cov_dd, rhs).reshape(n_rows, len(members), -1)
            projected[members] = solution.transpose(1, 0, 2)
        evals, evecs = np.linalg.eigh(isq_x @ (cov_xd @ projected) @ isq_x)
        if not np.all(evals[:, -1] > 0.0):
            raise ValueError("the trials do not correlate with their design")
        correlations = np.sqrt(evals[:, -1])
        filters = isq_x @ evecs[:, :, -1:]
        responses = (projected @ filters)[:, :, 0] / correlations[:, None]

        spatials = []
        for spatial, response in zip(filters[:, :, 0], responses):
            spatial = spatial / np.linalg.norm(spatial)
            # Signed so the filter's first nonzero element is positive.
            lead = np.flatnonzero(np.abs(spatial) > 1e-12 * np.abs(spatial).max())[0]
            if spatial[lead] < 0:
                spatial = -spatial
                response *= -1.0
            spatials.append(spatial)
        templates = _templates_from_responses(responses, self.structures)
        return [
            DecoderModel(spatial_filter=spatial, response=response, templates=model_templates,
                         fs=self.fs, canonical_correlation=float(correlation))
            for spatial, response, model_templates, correlation
            in zip(spatials, responses, templates, correlations)
        ]

    def _members(self, indices):
        """The trial indices of one subset (None: all the trials) as an
        integer array, checked for two trials and two labels. Its data need
        no check: the constructor rejected every trial that is not finite."""
        if indices is None:
            indices = np.arange(self.groups.size)
        indices = np.asarray(indices, dtype=int)
        if indices.size < 2:
            raise ValueError("need at least two training trials")
        if np.unique(self.groups[indices]).size < 2:
            raise ValueError("need at least two distinct labels")
        return indices

    def _design(self, counts):
        """Class design means less the subset's grand mean, and the
        ridge-regularised design covariance: functions of the class counts
        alone, so computed once per count vector and shared by every fit
        with those counts. The second moment is the counts-weighted Gram of
        the classes' matrices less u u^T / (N n), for the weighted row sums
        u, N trials and n samples a trial; only that division rounds. The
        ridge makes the covariance positive definite unless no design row
        varies, which raises ValueError."""
        key = counts.tobytes()
        if key not in self._designs:
            weights = counts.astype(float)
            total = weights.sum() * self.n_samples
            spread = self.design_means - weights @ self.design_means / weights.sum()
            sums = weights @ self._lags.sums
            m2_dd = self._lags.gram(weights) - np.outer(sums, sums) / total
            cov_dd = _regularised(m2_dd / (total - 1))
            if not np.trace(cov_dd) > 0.0:
                raise ValueError("design covariance is rank deficient after regularization "
                                 "(no design row varies)")
            self._designs[key] = spread, cov_dd
        return self._designs[key]


def fit_cca(trials, structures):
    """Fit the reconvolution CCA decoder on labeled trials.

    Treats the trials as one recording, concatenated channel-wise, against
    their label's structure matrices concatenated column-wise, and finds the
    spatial filter and event response whose projections correlate maximally.
    Both autocovariances carry the relative ridge term RIDGE for rank
    safety, and the pair is the leading eigenpair of the whitened channel-side
    problem (:meth:`TrialStatistics.fit_many`), which is the leading singular
    pair of the whitened cross-covariance. The covariances come from
    :class:`TrialStatistics`, so this is the fit of that class on all the
    given trials.

    The solution is normalized so the spatial filter has unit norm and its
    first nonzero element is positive; the templates follow that convention.

    Parameters
    ----------
    trials: list of Trial
        At least two labeled trials with two distinct labels, equal shapes
        and finite data; :class:`TrialStatistics` names the first trial whose
        label has no structure matrix, then the first that is not finite.
    structures: StructureMatrices
        One structure matrix per class, at least as long as the trials. The
        design covariance comes exactly from their onset trains; a plain
        list of matrices raises TypeError.

    Returns
    -------
    model: DecoderModel
    """
    return TrialStatistics(trials, structures).fit()


# perfbench/run.py traces this name (PASS_LAYERS); nothing in the package calls it.
def score(model, trial, window_samples):
    """Inner-product similarity of a trial prefix with every class template:
    :func:`score_traces` of that trial at that one window, shape (n_classes,)."""
    return score_traces(model, [trial], [window_samples], "inner")[0, 0]


# perfbench/run.py traces this name (PASS_LAYERS); nothing in the package calls it.
def correlation_score(model, trial, window_samples):
    """Pearson-correlation similarity of a trial prefix with every template:
    :func:`score_traces` of that trial at that one window, shape (n_classes,)."""
    return score_traces(model, [trial], [window_samples], "correlation")[0, 0]


# perfbench/run.py traces this name (PASS_LAYERS); nothing in the package calls it.
def score_trace(model, trial, grid, similarity="inner"):
    """Scores of one trial at every decision window: :func:`score_traces` on
    that trial alone, a matrix of shape (len(grid), n_classes)."""
    return score_traces(model, [trial], grid, similarity)[0]


def score_traces(model, trials, grid, similarity="inner"):
    """Scores of every trial at every decision window.

    The grid cuts the longest window into segments [grid[k-1], grid[k]).
    Every trial is spatially filtered once; per segment, one gemm of the
    batch's filtered segments with the template segments gives each trial's
    per-class contribution, and a running sum over the segments turns those
    into window scores. A trial scores the same bytes in any batch, alone
    too: :func:`_window_products` pads a one-trial batch with a zero row,
    which keeps numpy from taking gemv. Pearson scores take the xt term from
    the same products of the signals and templates less their first samples,
    with running sums of x, x^2, t and t^2. A first sample lies in every
    window, so a window far from its row's overall level does not cancel
    away its variance. The template terms depend only on the model and the
    grid, so they are computed once. A window whose filtered prefix or
    template prefix is constant scores 0.

    Parameters
    ----------
    trials: sequence of Trial
    grid: sequence of int
        Decision window lengths in samples, strictly increasing.
    similarity: str
        "inner" for raw inner products, "correlation" for Pearson scores.

    Returns
    -------
    traces: np.ndarray
        Array of shape (len(trials), len(grid), n_classes).
    """
    if similarity not in ("inner", "correlation"):
        raise ValueError(f"unknown similarity {similarity!r}")
    grid = np.asarray(grid).astype(int)
    if grid.size == 0:
        raise ValueError("grid must not be empty")
    if grid.min() <= 0:
        raise ValueError("window_samples must be positive")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    longest = int(grid[-1])
    if longest > model.templates.shape[1] or any(
        longest > trial.data.shape[1] for trial in trials
    ):
        raise ValueError(f"window of {longest} samples exceeds the available data")
    templates = model.templates[:, :longest]
    x = np.empty((len(trials), longest))
    for i, trial in enumerate(trials):
        x[i] = model.spatial_filter @ trial.data[:, :longest]
    if similarity == "inner":
        return _window_products(x, templates, grid)

    ends = grid - 1
    length = grid.astype(float)
    t = templates - templates[:, :1]
    sum_t, var_t = _window_moments(t, ends, length)
    degenerate = ((grid <= _constant_run(templates)[:, None]) | (var_t <= 0.0)).T
    # (windows, classes) copies, read in order by the full-size products below.
    sum_t, var_t = np.ascontiguousarray(sum_t.T), np.ascontiguousarray(var_t.T)
    constant_x = grid <= _constant_run(x)[:, None]
    x -= x[:, :1]
    sum_x, var_x = _window_moments(x, ends, length)
    degenerate = degenerate | (constant_x | (var_x <= 0.0))[:, :, None]

    traces = _window_products(x, t, grid)
    # One buffer holds the mean term, then the denominator.
    buffer = sum_x[:, :, None] * sum_t
    buffer /= length[:, None]
    traces -= buffer
    np.multiply(var_x[:, :, None], var_t, out=buffer)
    buffer[degenerate] = 1.0
    traces /= np.sqrt(buffer, out=buffer)
    traces[degenerate] = 0.0
    return traces


# Deepest gemm of the scoring kernel, in samples. On an AVX-512 host,
# OpenBLAS sums a gemm 32 or more samples deep in another order when it has
# few rows (its small-matrix kernel), so a row's bytes would depend on the
# batch size; a longer segment is scored in pieces instead.
_GEMM_DEPTH = 16


def _window_products(x, templates, grid):
    """Inner products of every row of x with every template over every grid
    window, shape (n_rows, n_windows, n_classes).

    Each grid segment is one (n_rows, segment) @ (segment, n_classes) gemm
    for all the rows (one per _GEMM_DEPTH samples of a longer segment), added
    to the running sum over the segments before it. numpy hands a product
    with a one-row side to gemv, whose sums run in another order than gemm's,
    so a single row is scored with a zero row under it: a row then gets the
    same bytes in a batch of any size."""
    n_rows = x.shape[0]
    if n_rows == 1:
        x = np.concatenate([x, np.zeros_like(x)])
    products = np.empty((x.shape[0], grid.size, templates.shape[0]))
    # The running sum and each segment's share, contiguous for the gemm and the add.
    total = np.empty((x.shape[0], templates.shape[0]))
    segment = np.empty_like(total)
    start = 0
    for k, end in enumerate(grid):
        share = segment if k else total
        cut = min(start + _GEMM_DEPTH, end)
        np.matmul(x[:, start:cut], templates[:, start:cut].T, out=share)
        for piece in range(cut, end, _GEMM_DEPTH):
            cut = min(piece + _GEMM_DEPTH, end)
            share += x[:, piece:cut] @ templates[:, piece:cut].T
        if k:
            total += segment
        products[:, k] = total
        start = end
    return products[:n_rows]


def _window_moments(rows, ends, length):
    """Sum and sum of squared deviations of each row of a 2-D array over
    every window [0, end], from running sums: two arrays of shape (n_rows,
    len(ends))."""
    squares = rows * rows
    sums = np.cumsum(rows, axis=1)[:, ends]
    return sums, np.cumsum(squares, axis=1, out=squares)[:, ends] - sums * sums / length


def _constant_run(rows):
    """Length of the constant leading run of each row of a 2-D array."""
    changed = rows != rows[:, :1]
    return np.where(changed.any(axis=1), changed.argmax(axis=1), rows.shape[1])
