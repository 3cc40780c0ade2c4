"""Risk-minimizing dynamic stopping.

Calibrates Gaussian target/non-target score distributions per decision window
from training data, turns a false-positive/false-negative cost ratio into a
per-window score boundary via a likelihood ratio test, and runs the online
stop/continue controller.
"""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class WindowParams:
    """Gaussian score-distribution parameters for one decision window.

    b1 and b0 are the mean inner-product scales of the attended (target) and
    unattended (non-target) classes; s1 and s0 the matching standard
    deviations. The means of the score distributions are alpha * b1 and
    alpha * b0 for the model's scaling alpha.
    """

    b1: float
    b0: float
    s1: float
    s0: float
    window_samples: int


@dataclass
class StopOutcome:
    """Result of running the controller on one trial.

    stopped_at is the grid index of the single stop decision; every earlier
    window continued. label is the best-scoring class at the stop. forced
    marks a stop that happened only because the maximum trial length was
    reached.
    """

    stopped_at: int
    label: int
    forced: bool


def _first(fired):
    """Index of the first True flag along the last axis, -1 where there is none."""
    return np.where(fired.any(axis=-1), np.argmax(fired, axis=-1), -1)


@dataclass
class StoppingModel:
    """Calibrated stopping model: score scaling, noise level, per-window
    distribution parameters, and decision boundaries for one cost ratio.

    As a policy it stops at the first window where any score exceeds the
    window's boundary; the best-scoring class is then accepted too.
    first_stops gives each trial's first firing window, -1 where none fires.
    """

    alpha: float
    sigma: float
    zeta: float
    n_classes: int
    grid: np.ndarray
    windows: list
    eta: np.ndarray

    @property
    def t_star(self):
        """The maximum trial length in samples: the last grid window."""
        return int(self.grid[-1])

    def with_cost_ratio(self, zeta):
        """Same calibration, boundaries recomputed for a new cost ratio."""
        eta = np.array(
            [decision_boundary(p, self.alpha, zeta, self.n_classes) for p in self.windows]
        )
        return replace(self, zeta=float(zeta), eta=eta)

    def first_stops(self, traces):
        return _first((traces > self.eta[: traces.shape[1], None]).any(axis=2))


def estimate_scaling_and_noise(pairs):
    """Least-squares scaling and residual noise level of filtered trials.

    All (signal, template) pairs are concatenated as if they were one long
    trial; the scaling is the least-squares coefficient of the signal on the
    template and the noise level is the population standard deviation of the
    residuals.

    Parameters
    ----------
    pairs: list of (np.ndarray, np.ndarray)
        Spatially filtered single-channel signals with their true templates,
        aligned sample by sample.

    Returns
    -------
    alpha, sigma: float
        sigma is floored at 1e-9 times the template RMS (with a warning) so
        noiseless synthetic data does not produce a degenerate model. A NaN
        or an infinity in the pairs that leaves either one not finite raises
        ValueError naming both, with no numpy warning on the way.
    """
    if not pairs:
        raise ValueError("need at least one (signal, template) pair")
    signal = np.concatenate([np.asarray(x, dtype=float).ravel() for x, _ in pairs])
    template = np.concatenate([np.asarray(t, dtype=float).ravel() for _, t in pairs])
    if signal.shape != template.shape:
        raise ValueError("signals and templates must align sample by sample")
    # Not BLAS dot products: a long one is split over the BLAS threads, and
    # its last bits would then depend on the thread count.
    with np.errstate(invalid="ignore", over="ignore"):
        energy = float(np.sum(template * template))
        if energy == 0.0:
            raise ValueError("template concatenation is all zero")
        alpha = float(np.sum(template * signal)) / energy
        residual = signal - alpha * template
        sigma = float(residual.std())
    if not (math.isfinite(alpha) and math.isfinite(sigma)):
        raise ValueError(f"scaling alpha={alpha} or noise level sigma={sigma} is not finite")
    floor = 1e-9 * math.sqrt(energy / template.size)
    if sigma < floor:
        warnings.warn(
            "residual noise level below floor; clamping (noiseless data?)",
            RuntimeWarning,
            stacklevel=2,
        )
        sigma = floor
    return alpha, sigma


# perfbench/run.py traces this name (PASS_LAYERS); nothing in the package calls it.
def window_params(templates, alpha, sigma):
    """Target and non-target score-distribution parameters for one window.

    Parameters
    ----------
    templates: np.ndarray
        Class templates truncated to the window, shape (n_classes, window).
    alpha, sigma: float
        Scaling and noise level from :func:`estimate_scaling_and_noise`.

    Returns
    -------
    params: WindowParams
        b1: mean template energy; b0: mean cross-template inner product;
        s1/s0: noise contribution sigma^2 * b1 plus the spread of the scaled
        inner products around their respective means.
    """
    templates = np.asarray(templates, dtype=float)
    if templates.shape[1] < 1:
        raise ValueError("window must span at least one sample")
    gram = templates @ templates.T
    return _gram_params(gram[None], [templates.shape[1]], alpha, sigma)[0]


def _gram_params(grams, windows, alpha, sigma):
    """:func:`window_params` of every window from its template Gram matrix,
    grams of shape (n_windows, n_classes, n_classes). Each term is one numpy
    reduction over the last axis of a C-contiguous array for all windows,
    which sums every window's entries in the same order as the reduction of
    that window alone."""
    n = grams.shape[1]
    if n < 2:
        raise ValueError("need at least two classes")
    flat = np.ascontiguousarray(grams).reshape(len(grams), n * n)
    diag = np.ascontiguousarray(flat[:, :: n + 1])
    b1 = diag.mean(axis=1)
    n_off = n * n - n
    b0 = (flat.sum(axis=1) - diag.sum(axis=1)) / n_off

    noise_var = sigma * sigma * b1
    spread1 = np.mean((alpha * diag - (alpha * b1)[:, None]) ** 2, axis=1)
    off = np.ascontiguousarray(flat[:, ~np.eye(n, dtype=bool).ravel()])
    spread0 = np.sum((alpha * off - (alpha * b0)[:, None]) ** 2, axis=1) / n_off

    params = []
    for k, window in enumerate(windows):
        floor = 1e-12 * max(1.0, abs(alpha) * float(b1[k]))
        s1 = max(math.sqrt(noise_var[k] + spread1[k]), floor)
        s0 = max(math.sqrt(noise_var[k] + spread0[k]), floor)
        params.append(WindowParams(b1=float(b1[k]), b0=float(b0[k]), s1=s1, s0=s0,
                                   window_samples=int(window)))
    return params


_GRAM_BLOCK = 32


def _window_grams(templates, grid):
    """Template Gram matrix of every grid window, accumulated from window to
    window: whole blocks of _GRAM_BLOCK samples add to one running sum, and
    each window adds its samples past the last whole block on top. A window's
    Gram thus depends on its length alone, not on the grid that reached it."""
    running = np.zeros((templates.shape[0],) * 2)
    done = 0
    for w in grid:
        while done + _GRAM_BLOCK <= w:
            block = templates[:, done:done + _GRAM_BLOCK]
            running = running + block @ block.T
            done += _GRAM_BLOCK
        rest = templates[:, done:w]
        yield running + rest @ rest.T if w > done else running


def decision_boundary(params, alpha, zeta, n_classes):
    """Score boundary where the likelihood ratio test switches to accept.

    Solves log(N(f; alpha*b1, s1) / N(f; alpha*b0, s0)) = log((n_classes - 1)
    * zeta), the target over the non-target log density ratio expanded as a
    quadratic in f, for the crossing where the ratio rises with f, i.e. where
    growing scores move from reject to accept; the accept region is f > eta.
    Returns +inf when the ratio never reaches the threshold (never stop at
    this window) and -inf when it always exceeds it.
    """
    if not zeta > 0:
        raise ValueError(f"cost ratio must be positive, got {zeta!r}")
    if n_classes < 2:
        raise ValueError("need at least two classes")
    threshold = math.log((n_classes - 1) * zeta)

    v1 = params.s1 * params.s1
    v0 = params.s0 * params.s0
    a = v1 - v0
    b = -2.0 * alpha * (v1 * params.b0 - v0 * params.b1)
    const = -(alpha * alpha) * (v0 * params.b1 ** 2 - v1 * params.b0 ** 2)
    scale = 2.0 * v0 * v1
    log_ratio = math.log(params.s0 / params.s1)
    c = const + scale * (log_ratio - threshold)

    if a != 0.0:
        disc = b * b - 4.0 * a * c
        if disc <= 0.0:
            # No proper crossing: the parabola stays on one side.
            return -math.inf if a > 0.0 else math.inf
        sq = math.sqrt(disc)
        # Rising root (-b + sq) / (2a), evaluated without cancellation.
        eta = 2.0 * c / (-b - sq) if b >= 0.0 else (-b + sq) / (2.0 * a)
    else:
        if b == 0.0:
            return -math.inf if c > 0.0 else math.inf
        if b < 0.0:
            # Only a falling crossing exists; with the one-sided f > eta
            # convention the safe reading is to never stop here.
            return math.inf
        eta = -c / b

    if not math.isfinite(eta):
        return math.inf if eta > 0 else -math.inf
    # Newton polish against the exact ratio to pin the crossing tightly.
    for _ in range(2):
        gap = log_ratio + (a * eta * eta + b * eta + const) / scale - threshold
        slope = (2.0 * a * eta + b) / scale
        if slope <= 0.0 or not math.isfinite(slope):
            break
        eta -= gap / slope
    return float(eta)


def calibrate(model, trials, grid, zeta=1.0):
    """Calibrate a stopping model from a fitted decoder and labeled trials.

    Runs the calibration chain: templates from the decoder, per-window
    template inner products (a Gram matrix accumulated from window to window),
    least-squares scaling and residual noise from the spatially filtered
    training trials, per-window distribution parameters, and decision
    boundaries for the given cost ratio.

    Parameters
    ----------
    model: DecoderModel
        Fitted decoder whose templates cover the last grid window.
    trials: list of Trial
        Labeled training trials, each label the index of a model template,
        at least as long as the last grid window and finite over it. A label
        outside the templates, and then a NaN or an infinity, raises
        ValueError naming the first such trial by its index and label; the
        labels are checked before any trial is filtered.
    grid: sequence of int
        Decision window lengths in samples, strictly increasing; the last
        entry is the maximum trial length.
    zeta: float (default: 1.0)
        False-positive over false-negative cost ratio.

    Returns
    -------
    stopping: StoppingModel
    """
    grid = np.asarray(grid, dtype=int)
    if grid.size == 0:
        raise ValueError("grid must not be empty")
    if grid[0] < 1 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be positive and strictly increasing")
    t_star = int(grid[-1])
    if t_star > model.templates.shape[1]:
        raise ValueError("grid extends past the model templates")

    n_classes = model.templates.shape[0]
    for i, trial in enumerate(trials):
        if trial.label is None:
            raise ValueError("calibration trials must be labeled")
        if not 0 <= trial.label < n_classes:
            raise ValueError(f"trial {i} (label {trial.label}) is not a class of the "
                             f"model's {n_classes} templates")
        if trial.data.shape[1] < t_star:
            raise ValueError("calibration trial shorter than the last grid window")
    # A NaN or an infinity in a trial makes the estimate raise; the invalid
    # operations of its filtering need no warning of their own.
    with np.errstate(invalid="ignore", over="ignore"):
        pairs = [(model.spatial_filter @ trial.data[:, :t_star],
                  model.templates[trial.label, :t_star]) for trial in trials]
    try:
        alpha, sigma = estimate_scaling_and_noise(pairs)
    except ValueError:
        # A trial that is not finite is the cause to name.
        for i, trial in enumerate(trials):
            if not np.isfinite(trial.data[:, :t_star]).all():
                raise ValueError(
                    f"trial {i} (label {trial.label}) contains non-finite values") from None
        raise

    grams = np.stack(list(_window_grams(model.templates, grid)))
    windows = _gram_params(grams, grid, alpha, sigma)
    eta = [decision_boundary(params, alpha, zeta, n_classes) for params in windows]
    return StoppingModel(
        alpha=alpha,
        sigma=sigma,
        zeta=float(zeta),
        n_classes=n_classes,
        grid=grid,
        windows=windows,
        eta=np.asarray(eta, dtype=float),
    )


def run_trial(stopping, model, trial):
    """Run the stop/continue controller over one trial.

    At each grid window the per-class inner-product scores are compared with
    the window's boundary; the first window where any score exceeds it stops
    the trial. Reaching the last window without a crossing forces the stop
    there. Either way the trial emits its best-scoring class: a score above
    the boundary puts the maximum above it too. The scores are running sums:
    each window adds the templates' products with the segment filtered since
    the previous window, so a trial that stops at window k costs k segment
    products.
    """
    if trial.data.shape[1] < stopping.t_star:
        raise ValueError("trial shorter than the maximum trial length")
    if model.templates.shape[1] < stopping.t_star:
        raise ValueError("model templates shorter than the maximum trial length")
    last = stopping.grid.size - 1
    scores = np.zeros(model.templates.shape[0])
    start = 0
    for idx, w in enumerate(stopping.grid):
        scores += model.templates[:, start:w] @ (model.spatial_filter @ trial.data[:, start:w])
        start = w
        fired = (scores > stopping.eta[idx]).any()
        if fired or idx == last:
            return StopOutcome(idx, int(np.argmax(scores)), not fired)
    raise AssertionError("unreachable: grid is never empty")
