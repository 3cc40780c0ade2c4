"""Comparison stopping strategies behind one policy interface: fixed trial
length, three static selectors driven by a cross-validated decoding curve, the
score-margin rule, and the Beta-distribution outlier rule.
"""

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import metrics
from .bayes_stop import StopOutcome, StoppingModel
from .decoding import score_traces


class StoppingPolicy:
    """Stopping rule over a whole (n_windows, n_classes) score trace.

    first_stop returns the first window at which the rule fires, or None when
    it never does. Policies never handle the forced case or choose the label
    themselves: apply_policy emits the best-scoring class at the stop, and
    stops at the last window when no rule fired.
    """

    def first_stop(self, trace):
        raise NotImplementedError


def apply_policy(policy, trace):
    """Run a policy over a (n_windows, n_classes) score trace.

    Returns
    -------
    outcome: StopOutcome
        forced is True when only the final window produced the emission.
    """
    trace = np.asarray(trace, dtype=float)
    stop = policy.first_stop(trace)
    forced = stop is None
    if forced:
        stop = trace.shape[0] - 1
    return StopOutcome(stop, int(np.argmax(trace[stop])), forced)


def _first(fired):
    """Index of the first True flag, None when there is none."""
    return int(np.argmax(fired)) if fired.any() else None


class FixedLengthPolicy(StoppingPolicy):
    """Always stop at one predeclared window with the best-scoring class."""

    def __init__(self, stop_window):
        self.stop_window = int(stop_window)

    def first_stop(self, trace):
        return max(self.stop_window, 0) if self.stop_window < trace.shape[0] else None


class BoundaryPolicy(StoppingPolicy):
    """Stop when any score exceeds its window's boundary and emit the
    highest-scoring class, which is then accepted too. Drives a calibrated
    StoppingModel inside the shared evaluation harness."""

    def __init__(self, eta):
        self.eta = np.asarray(eta, dtype=float)

    def first_stop(self, trace):
        return _first((trace > self.eta[: trace.shape[0], None]).any(axis=1))


def _top_two_gap(traces):
    """Best minus second-best score along the last axis."""
    top_two = np.partition(traces, traces.shape[-1] - 2, axis=-1)[..., -2:]
    return top_two[..., 1] - top_two[..., 0]


class MarginPolicy(StoppingPolicy):
    """Stop once the margin between the two best scores reaches the window's
    learned threshold."""

    def __init__(self, thresholds):
        self.thresholds = np.asarray(thresholds, dtype=float)

    def first_stop(self, trace):
        return _first(_top_two_gap(trace) >= self.thresholds[: trace.shape[0]])


class BetaPolicy(StoppingPolicy):
    """Stop when the best correlation is an outlier among the others.

    Correlation scores are mapped from [-1, 1] into (0, 1), a Beta
    distribution is fit by method of moments on all mapped scores except the
    maximum (ties at the maximum excluded), and the trial stops when the Beta
    CDF at the mapped maximum reaches the target accuracy. Only meaningful for
    bounded (correlation) scores. Windows are tested one at a time, because
    the rule usually fires at the first.
    """

    def __init__(self, target_accuracy, epsilon=1e-6):
        if not 0.0 < target_accuracy < 1.0:
            raise ValueError("target accuracy must be in (0, 1)")
        self.target_accuracy = float(target_accuracy)
        self.epsilon = float(epsilon)

    def first_stop(self, trace):
        return next((w for w, s in enumerate(trace) if self.decide(s, w) is not None), None)

    def decide(self, scores, window_index):
        """The best-scoring class when the rule fires on one window's
        scores, else None."""
        mapped = np.clip((np.asarray(scores) + 1.0) / 2.0, self.epsilon, 1.0 - self.epsilon)
        top = mapped.max()
        rest = mapped[mapped < top]
        if rest.size < 2:
            return None
        mean = rest.mean()
        var = rest.var()
        if var <= 0.0 or var >= mean * (1.0 - mean):
            return None
        common = mean * (1.0 - mean) / var - 1.0
        a = mean * common
        b = (1.0 - mean) * common
        if a <= 0.0 or b <= 0.0:
            return None
        if beta_cdf(top, a, b) >= self.target_accuracy:
            return int(np.argmax(scores))
        return None


def _betacf(a, b, x, max_iter=300, eps=1e-15):
    # Continued fraction for the incomplete beta (modified Lentz iteration).
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
    Absolute error is well below 1e-10 across sane shape parameters.
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError("shape parameters must be positive")
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
    labels = np.asarray(labels)
    if n_folds < 2:
        raise ValueError("need at least two folds")
    folds = [[] for _ in range(n_folds)]
    counter = 0
    for label in np.unique(labels):
        for idx in np.flatnonzero(labels == label):
            folds[counter % n_folds].append(int(idx))
            counter += 1
    return [np.array(sorted(f), dtype=int) for f in folds]


def decoding_curve(fit, trials, grid, n_classes, similarity="inner", n_folds=5):
    """Estimate accuracy and ITR per decision window by inner cross-validation.

    Parameters
    ----------
    fit: callable
        Model-fitting procedure mapping the indices of an inner fold's
        training trials (into `trials`) to a DecoderModel, e.g. the bound
        :meth:`TrialStatistics.fit` of statistics built once over `trials`.
    trials: list of Trial
        Labeled training trials.
    grid: sequence of int
        Decision window lengths in samples.
    n_classes: int
        Number of stimulus classes (for the ITR).
    similarity: str
        Score used for classification, "inner" or "correlation".
    n_folds: int (default: 5)
        Reduced with a warning when fewer trials are available.

    Returns
    -------
    curve: DecodingCurve
        Fold-averaged accuracy per window and the matching ITR in bits/min.
    """
    if not trials:
        raise ValueError("no training trials")
    if len(trials) < n_folds:
        warnings.warn(
            f"only {len(trials)} trials: reducing {n_folds} folds to {len(trials)}",
            RuntimeWarning,
            stacklevel=2,
        )
        n_folds = len(trials)
    grid = np.asarray(grid, dtype=int)
    labels = np.array([t.label for t in trials])
    folds = stratified_folds(labels, n_folds)
    fs = trials[0].fs

    fold_accuracy = []
    for fold in folds:
        if fold.size == 0:
            continue
        mask = np.ones(len(trials), dtype=bool)
        mask[fold] = False
        traces = score_traces(fit(np.flatnonzero(mask)), [trials[i] for i in fold], grid,
                              similarity)
        hits = np.count_nonzero(np.argmax(traces, axis=2) == labels[fold, None], axis=0)
        fold_accuracy.append(hits / fold.size)

    accuracy = np.mean(fold_accuracy, axis=0)
    window_seconds = grid / fs
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
    if not 0.0 < theta < 1.0:
        raise ValueError("targeted accuracy must be in (0, 1)")
    reached = np.flatnonzero(curve.accuracy >= theta)
    if reached.size:
        return int(reached[0])
    return static_max_accuracy(curve)


def static_max_itr(curve):
    """Earliest window attaining the curve's maximum information transfer rate."""
    if curve.itr.size == 0:
        raise ValueError("empty decoding curve")
    return int(np.argmax(curve.itr))


@dataclass
class MarginTable:
    """Per-window margin thresholds targeting a training accuracy."""

    thresholds: np.ndarray
    target_accuracy: float


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
    table: MarginTable
    """
    return MarginCandidates(traces, labels).table(theta)


class MarginCandidates:
    """The candidate margin thresholds of a set of training traces, sorted
    once per window, with the training accuracy each would give; every
    targeted accuracy reads its :func:`fit_margin` table from them."""

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
        """The :func:`fit_margin` table for targeted accuracy theta."""
        reached = self.first & (self.accuracy >= theta)
        k = np.argmax(reached, axis=0)
        windows = np.arange(self.margins.shape[1])
        thresholds = np.where(reached.any(axis=0), self.margins[k, windows], np.inf)
        return MarginTable(thresholds=thresholds, target_accuracy=float(theta))


def serialize_policy(policy):
    """JSON-ready envelope for a stopping policy: a kind tag plus parameters."""
    if isinstance(policy, StoppingModel):
        return {"kind": "bds", **json.loads(policy.to_json())}
    if isinstance(policy, FixedLengthPolicy):
        return {"kind": "fixed", "stop_window": policy.stop_window}
    if isinstance(policy, (MarginPolicy, MarginTable)):
        envelope = {
            "kind": "margin",
            "thresholds": ["inf" if math.isinf(t) else float(t) for t in policy.thresholds],
        }
        if isinstance(policy, MarginTable):
            envelope["target_accuracy"] = policy.target_accuracy
        return envelope
    if isinstance(policy, BetaPolicy):
        return {"kind": "beta", "target_accuracy": policy.target_accuracy}
    raise TypeError(f"cannot serialize {type(policy).__name__}")


def deserialize_policy(envelope):
    """Rebuild a policy from :func:`serialize_policy` output.

    The "bds" kind returns the StoppingModel; wrap its boundaries in a
    BoundaryPolicy to run it against score traces.
    """
    kind = envelope.get("kind")
    if kind == "bds":
        return StoppingModel.from_json(json.dumps(envelope))
    if kind == "fixed":
        return FixedLengthPolicy(envelope["stop_window"])
    if kind == "margin":
        thresholds = [math.inf if t == "inf" else float(t) for t in envelope["thresholds"]]
        return MarginPolicy(thresholds)
    if kind == "beta":
        return BetaPolicy(envelope["target_accuracy"])
    raise ValueError(f"unknown policy kind {kind!r}")
