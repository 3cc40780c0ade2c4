"""Comparison stopping strategies and what each is calibrated from: the
cross-validated decoding curve that the three static selectors pick one
window from, the score-margin thresholds, and the Beta-distribution outlier
rule, whose strictest target runs once per trace to fill the outlier
probabilities every target is compared with; plus the cross-validation
folds and the JSON codec of the calibrated bds model. The harness in
evaluation.py turns each into stop windows.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import metrics
from .bayes_stop import StopOutcome, StoppingModel, WindowParams, _best_class
from .decoding import score_traces


def apply_policy(policy, trace):
    """Run a per-window rule (a BetaPolicy: any object with fires(scores))
    over one (n_windows, n_classes) score trace to its StopOutcome; forced is
    True when only the final window produced it."""
    trace = np.asarray(trace, dtype=float)
    stop = next((w for w, scores in enumerate(trace) if policy.fires(scores)), None)
    forced = stop is None
    if forced:
        stop = trace.shape[0] - 1
    return StopOutcome(stop, _best_class(trace[stop]), forced)


def _top_two_gap(traces):
    """Best minus second-best score along the last axis."""
    top_two = np.partition(traces, traces.shape[-1] - 2, axis=-1)[..., -2:]
    return top_two[..., 1] - top_two[..., 0]


# Mapped scores are kept this far inside (0, 1), where the Beta CDF is defined.
_BETA_EPSILON = 1e-6


class BetaPolicy:
    """Stop when the best correlation is an outlier among the others.

    Correlation scores are mapped from [-1, 1] into (0, 1), a Beta
    distribution is fit by method of moments on all mapped scores except the
    maximum (ties at the maximum excluded), and the trial stops when the Beta
    CDF at the mapped maximum, the window's outlier probability, reaches the
    target accuracy. Only meaningful for bounded (correlation) scores.

    fires keeps each probability it computes, in order, in `probabilities`:
    the harness runs only the strictest target through apply_policy, once
    per trace, and compares every target with what that run kept.
    """

    def __init__(self, target_accuracy):
        self.target_accuracy = float(target_accuracy)
        self.probabilities = []

    def fires(self, scores):
        """Whether the rule fires on one window's scores."""
        self.probabilities.append(_outlier_probability(scores))
        return self.probabilities[-1] >= self.target_accuracy


def _outlier_probability(scores):
    """The Beta CDF at one window's mapped top score under the fit to the
    rest; -inf where no Beta fits the rest, or only one with a + b past
    :func:`beta_cdf`'s range (a mapped sd of the rest below about 0.003)."""
    # np.clip, .mean() and .var() by hand: the same element-wise operations
    # and pairwise sums, without numpy's Python-level wrappers.
    mapped = (np.asarray(scores) + 1.0) / 2.0
    np.maximum(mapped, _BETA_EPSILON, out=mapped)
    np.minimum(mapped, 1.0 - _BETA_EPSILON, out=mapped)
    top = mapped.max()
    rest = mapped[mapped < top]
    if rest.size < 2:
        return -math.inf
    mean = np.add.reduce(rest) / rest.size
    d = rest - mean
    var = np.add.reduce(d * d) / rest.size
    if var <= 0.0 or var >= mean * (1.0 - mean):
        return -math.inf
    common = mean * (1.0 - mean) / var - 1.0
    a = mean * common
    b = (1.0 - mean) * common
    if a <= 0.0 or b <= 0.0 or a + b > _MAX_SHAPES:
        return -math.inf
    return beta_cdf(top, a, b)


# The largest a + b that beta_cdf takes. A Beta fit to one window's mapped
# correlations over n samples has a + b near n, far below this.
_MAX_SHAPES = 3e4


def _betacf(a, b, x, eps=1e-15):
    # Continued fraction for the incomplete beta (modified Lentz iteration).
    # Near the mean it needs more terms as a + b grows, so the cap grows as
    # the root of a + b (473 terms at _MAX_SHAPES).
    max_iter = 300 + int(math.sqrt(a + b))
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise RuntimeError(f"incomplete beta continued fraction stalled for a={a}, b={b}, x={x}")


def beta_cdf(x, a, b):
    """Regularized incomplete beta function I_x(a, b).

    Continued-fraction evaluation with a log-gamma prefactor, using the
    symmetry I_x(a, b) = 1 - I_(1-x)(b, a) on the slow-converging side.
    Absolute error is below 1e-10 for 0.01 <= a, b with a + b <= 3e4; past
    that a + b it raises ValueError, since the log-gamma prefactor cancels.
    """
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"shape parameters must be positive, got a={a!r}, b={b!r}")
    if a + b > _MAX_SHAPES:
        raise ValueError(f"a + b must be <= {_MAX_SHAPES:g}, got {a + b!r}")
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(ln_front) * _betacf(a, b, x) / a
    return 1.0 - math.exp(ln_front) * _betacf(b, a, 1.0 - x) / b


@dataclass
class DecodingCurve:
    """Cross-validated accuracy and information transfer rate per window."""

    window_seconds: np.ndarray
    accuracy: np.ndarray
    itr: np.ndarray


def stratified_folds(labels, n_folds):
    """Deterministic label-stratified fold assignment.

    Trials of each class are dealt round-robin over the folds in index order.

    Returns
    -------
    folds: list of np.ndarray
        Trial indices per fold.
    """
    # The trials by class, then index: the k-th of them goes to fold k % n_folds.
    order = np.argsort(np.asarray(labels), kind="stable")
    return [np.sort(order[k::n_folds]) for k in range(n_folds)]


def fold_splits(labels, n_folds):
    """(fold, train_idx) of every non-empty :func:`stratified_folds` fold of
    `labels`: the fold's trial indices and the indices of all the others.
    Past one fold per trial every further fold is empty, so the deal stops
    at labels.size folds and any fold count costs at most leave-one-out."""
    labels = np.asarray(labels)
    splits = []
    for fold in stratified_folds(labels, min(n_folds, labels.size)):
        if fold.size:
            train = np.ones(labels.size, dtype=bool)
            train[fold] = False
            splits.append((fold, np.flatnonzero(train)))
    return splits


def curve_folds(n_trials):
    """Folds of a :func:`decoding_curve` over n_trials: five, or one per
    trial below five trials."""
    return min(5, n_trials)


def held_out_traces(fit, trials, n_folds, grid, similarity):
    """Cross-validated score traces over the :func:`fold_splits` of
    `trials`. One call fit(train_sets) maps the training indices of every
    non-empty fold to its DecoderModel, in order; per fold this yields
    (fold, train_idx, model, traces), the traces being the :func:`score_traces`
    of the fold's trials at every window of `grid`."""
    splits = fold_splits([t.label for t in trials], n_folds)
    for (fold, train_idx), model in zip(splits, fit([train_idx for _, train_idx in splits])):
        yield fold, train_idx, model, score_traces(model, [trials[i] for i in fold], grid,
                                                   similarity)


def decoding_curve(fit, trials, grid, n_classes, similarity="inner"):
    """Estimate accuracy and ITR per decision window by 5-fold inner
    cross-validation (one fold per trial, with a warning, below five trials:
    :func:`curve_folds`).

    Parameters
    ----------
    fit: callable
        The fit of :func:`held_out_traces`, which gives the folds, e.g. the
        bound :meth:`TrialStatistics.fit_many` of statistics built once over
        `trials`, which fits the folds together, or a lookup of models fitted
        before.
    trials: list of Trial
        Labeled training trials.
    grid: sequence of int
        Decision window lengths in samples.
    n_classes: int
        Number of stimulus classes (for the ITR).
    similarity: str
        Score used for classification, "inner" or "correlation".

    Returns
    -------
    curve: DecodingCurve
        Fold-averaged accuracy per window and the matching ITR in bits/min.
    """
    if not trials:
        raise ValueError("no training trials")
    n_folds = curve_folds(len(trials))
    if n_folds < 5:
        warnings.warn(f"only {len(trials)} trials: reducing 5 folds to {n_folds}",
                      RuntimeWarning, stacklevel=2)
    grid = np.asarray(grid, dtype=int)
    labels = np.array([t.label for t in trials])
    fold_accuracy = [
        np.count_nonzero(np.argmax(traces, axis=2) == labels[fold, None], axis=0) / fold.size
        for fold, _, _, traces in held_out_traces(fit, trials, n_folds, grid, similarity)
    ]

    accuracy = np.mean(fold_accuracy, axis=0)
    window_seconds = grid / trials[0].fs
    itr = np.array(
        [metrics.itr(acc, n_classes, sec) for acc, sec in zip(accuracy, window_seconds)]
    )
    return DecodingCurve(window_seconds=window_seconds, accuracy=accuracy, itr=itr)


def static_max_accuracy(curve):
    """Earliest window attaining the curve's maximum accuracy."""
    if curve.accuracy.size == 0:
        raise ValueError("empty decoding curve")
    return int(np.argmax(curve.accuracy))


def static_targeted_accuracy(curve, theta):
    """Earliest window reaching the targeted accuracy, falling back to the
    maximum-accuracy window when the target is never met."""
    reached = np.flatnonzero(curve.accuracy >= theta)
    if reached.size:
        return int(reached[0])
    return static_max_accuracy(curve)


def static_max_itr(curve):
    """Earliest window attaining the curve's maximum information transfer rate."""
    if curve.itr.size == 0:
        raise ValueError("empty decoding curve")
    return int(np.argmax(curve.itr))


# perfbench/run.py traces this name (PASS_LAYERS); nothing in the package calls it.
def fit_margin(traces, labels, theta):
    """Learn per-window margin thresholds reaching a targeted accuracy.

    For each window the threshold is the smallest observed margin m such that
    the trials whose margin is at least m are classified correctly at rate
    theta or better; +inf when no margin achieves that (never stop there).

    Parameters
    ----------
    traces: np.ndarray
        Training score traces, shape (n_trials, n_windows, n_classes).
    labels: sequence of int
        True class per trial.
    theta: float
        Targeted accuracy in [0, 1].

    Returns
    -------
    thresholds: np.ndarray
        One per window; a trial stops at the first window whose top-two gap
        reaches it.
    """
    return MarginCandidates(traces, labels).table(theta)


class MarginCandidates:
    """The candidate margin thresholds of a set of training traces, sorted
    once per window, with the training accuracy each would give; every
    targeted accuracy reads its :func:`fit_margin` thresholds from them."""

    def __init__(self, traces, labels):
        traces = np.asarray(traces, dtype=float)
        if traces.ndim != 3 or traces.shape[0] == 0:
            raise ValueError("need a non-empty (n_trials, n_windows, n_classes) trace array")
        labels = np.asarray(labels, dtype=int)
        n_trials = traces.shape[0]

        # Per window, sort the trials by margin; the trials whose margin is at
        # least the k-th smallest are the suffix from the first copy of that value.
        margins = _top_two_gap(traces)
        order = np.argsort(margins, axis=0, kind="stable")
        self.margins = np.take_along_axis(margins, order, axis=0)
        correct = np.argmax(traces, axis=2) == labels[:, None]
        correct = np.take_along_axis(correct, order, axis=0)
        suffix_correct = np.cumsum(correct[::-1], axis=0)[::-1]
        self.accuracy = suffix_correct / np.arange(n_trials, 0, -1)[:, None]
        self.first = np.ones_like(correct)
        self.first[1:] = self.margins[1:] != self.margins[:-1]

    def table(self, theta):
        """The :func:`fit_margin` thresholds for targeted accuracy theta."""
        reached = self.first & (self.accuracy >= theta)
        k = np.argmax(reached, axis=0)
        windows = np.arange(self.margins.shape[1])
        return np.where(reached.any(axis=0), self.margins[k, windows], np.inf)


# The WindowParams fields a "bds" envelope carries per window, next to its eta.
_WINDOW_FIELDS = ("b0", "b1", "s0", "s1")

# The domain of each number field of a "bds" envelope, as tested and as shown.
_FINITE = (math.isfinite, "finite")
_POSITIVE = (lambda v: math.isfinite(v) and v > 0, "finite and > 0")
_DOMAINS = {"alpha": _FINITE, "b0": _FINITE, "b1": _FINITE, "sigma": _POSITIVE,
            "s0": _POSITIVE, "s1": _POSITIVE, "zeta": _POSITIVE,
            "eta": (lambda v: not math.isnan(v), "a number or an infinity"),
            "n_classes": (lambda v: v >= 2, ">= 2")}


def _encode(value):
    """A float for JSON; the infinities become the strings "inf" and "-inf"."""
    value = float(value)
    return ("inf" if value > 0 else "-inf") if math.isinf(value) else value


def _read(value, key, kind):
    """A JSON value of policy field key as kind: float (a number, or "inf" or
    "-inf" for the infinities), int, list or dict, in the field's domain;
    None is a missing field. ValueError naming the field otherwise."""
    if kind is float and value in ("inf", "-inf"):
        value = float(value)
    elif isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        problem = "is missing" if value is None else f"has type {type(value).__name__}"
        raise ValueError(f"policy field {key!r} {problem}")
    value = kind(value)
    if key in _DOMAINS and not _DOMAINS[key][0](value):
        raise ValueError(f"policy field {key!r} must be {_DOMAINS[key][1]}, got {value!r}")
    return value


def serialize_policy(stopping):
    """JSON-ready envelope of a calibrated StoppingModel: the kind tag "bds"
    plus its parameters. Infinite boundaries are written as "inf"/"-inf"."""
    return {
        "kind": "bds",
        "alpha": _encode(stopping.alpha),
        "sigma": _encode(stopping.sigma),
        "zeta": _encode(stopping.zeta),
        "n_classes": int(stopping.n_classes),
        "t_star": stopping.t_star,
        "grid": [int(w) for w in stopping.grid],
        "windows": [{**{k: _encode(getattr(p, k)) for k in _WINDOW_FIELDS}, "eta": _encode(e)}
                    for p, e in zip(stopping.windows, stopping.eta)],
    }


def deserialize_policy(envelope):
    """Rebuild the StoppingModel of a :func:`serialize_policy` envelope,
    checked for a positive, strictly increasing grid that ends at t_star, one
    window entry per window, at least two classes and each float in its
    domain. A missing, mistyped, out-of-domain or inconsistent field raises
    ValueError naming it."""
    if not isinstance(envelope, dict):
        raise ValueError(f"a policy envelope is a JSON object, not {type(envelope).__name__}")
    kind = envelope.get("kind")
    if kind != "bds":
        raise ValueError(f"unknown policy kind {kind!r}")
    grid = [_read(w, "grid", int) for w in _read(envelope.get("grid"), "grid", list)]
    if not grid or grid[0] < 1 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be non-empty, positive and strictly increasing")
    if grid[-1] != _read(envelope.get("t_star"), "t_star", int):
        raise ValueError("last grid window must equal t_star")
    entries = [_read(e, "windows", dict) for e in _read(envelope.get("windows"), "windows", list)]
    if len(entries) != len(grid):
        raise ValueError("one window entry per grid point required")
    return StoppingModel(
        **{k: _read(envelope.get(k), k, float) for k in ("alpha", "sigma", "zeta")},
        n_classes=_read(envelope.get("n_classes"), "n_classes", int),
        grid=np.asarray(grid, dtype=int),
        windows=[WindowParams(**{k: _read(e.get(k), k, float) for k in _WINDOW_FIELDS})
                 for e in entries],
        eta=np.array([_read(e.get("eta"), "eta", float) for e in entries]),
    )
