"""Comparison stopping strategies behind one policy interface: fixed trial
length, three static selectors driven by a cross-validated decoding curve, the
score-margin rule, and the Beta-distribution outlier rule; plus the JSON codec
of the calibrated bds model.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import metrics
from .bayes_stop import StopOutcome, StoppingModel, WindowParams, _first
from .decoding import score_traces


def apply_policy(policy, trace):
    """Run a per-trace policy (a BetaPolicy) over one (n_windows, n_classes)
    score trace to its StopOutcome; forced is True when only the final window
    produced it."""
    trace = np.asarray(trace, dtype=float)
    stop = policy.first_stop(trace)
    forced = stop is None
    if forced:
        stop = trace.shape[0] - 1
    return StopOutcome(stop, int(np.argmax(trace[stop])), forced)


class FixedLengthPolicy:
    """Always stop at one predeclared window with the best-scoring class."""

    def __init__(self, stop_window):
        self.stop_window = int(stop_window)

    def first_stops(self, traces):
        stop = max(self.stop_window, 0) if self.stop_window < traces.shape[1] else -1
        return np.full(traces.shape[0], stop)


def _top_two_gap(traces):
    """Best minus second-best score along the last axis."""
    top_two = np.partition(traces, traces.shape[-1] - 2, axis=-1)[..., -2:]
    return top_two[..., 1] - top_two[..., 0]


class MarginPolicy:
    """Stop once the margin between the two best scores reaches the window's
    learned threshold."""

    def __init__(self, thresholds):
        self.thresholds = np.asarray(thresholds, dtype=float)

    def first_stops(self, traces):
        return _first(_top_two_gap(traces) >= self.thresholds[: traces.shape[1]])


# Mapped scores are kept this far inside (0, 1), where the Beta CDF is defined.
_BETA_EPSILON = 1e-6


class BetaPolicy:
    """Stop when the best correlation is an outlier among the others.

    Correlation scores are mapped from [-1, 1] into (0, 1), a Beta
    distribution is fit by method of moments on all mapped scores except the
    maximum (ties at the maximum excluded), and the trial stops when the Beta
    CDF at the mapped maximum, the window's outlier probability, reaches the
    target accuracy. Only meaningful for bounded (correlation) scores.

    The outlier probability does not depend on the target, so the policies
    of a sweep may share one dict `table` from a window's score bytes to it,
    filled as windows are first met; without a table every window is
    computed and nothing is kept. Windows are tested one at a time, because
    the rule usually fires at the first, and first_stops runs apply_policy on
    each trace.
    """

    def __init__(self, target_accuracy, table=None):
        self.target_accuracy = float(target_accuracy)
        self.table = table

    def first_stops(self, traces):
        outcomes = [apply_policy(self, trace) for trace in traces]
        return np.array([-1 if o.forced else o.stopped_at for o in outcomes], dtype=int)

    def first_stop(self, trace):
        return next((w for w, s in enumerate(trace) if self.fires(s)), None)

    def fires(self, scores):
        """Whether the rule fires on one window's scores."""
        if self.table is None:
            return _outlier_probability(scores) >= self.target_accuracy
        key = np.asarray(scores, dtype=float).tobytes()
        if (probability := self.table.get(key)) is None:
            probability = self.table[key] = _outlier_probability(scores)
        return probability >= self.target_accuracy


def _outlier_probability(scores):
    """The Beta CDF at one window's mapped top score under the fit to the
    rest; -inf where no Beta fits the rest."""
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
    if a <= 0.0 or b <= 0.0:
        return -math.inf
    return beta_cdf(top, a, b)


# Past this a + b, beta_cdf takes the large-shape path (_large_shape_cdf).
_LARGE_SHAPES = 3e4
_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)


def _betacf(a, b, x, eps=1e-15):
    # Continued fraction for the incomplete beta (modified Lentz iteration).
    # Near the mean it needs more terms as a + b grows, so the cap grows as
    # the root of a + b up to _LARGE_SHAPES. Past that it runs only away from
    # the mean or with a shape of at most 100, where tens of terms do.
    max_iter = 300 + int(math.sqrt(min(a + b, _LARGE_SHAPES)))
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
    Absolute error is below 1e-10 for 0.01 <= a, b with a + b <= 3e4.
    Larger shapes take :func:`_large_shape_cdf`, whose work is bounded and
    whose absolute error stays below 1e-12 up to a + b = 2e16.
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError("shape parameters must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    if a + b > _LARGE_SHAPES:
        return _large_shape_cdf(x, a, b)
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


def _large_shape_cdf(x, a, b):
    """beta_cdf past a + b = _LARGE_SHAPES, where lgamma(a + b) - lgamma(a) -
    lgamma(b) would cancel away the prefactor's digits.

    The prefactor x^a (1-x)^b / B(a, b) comes from Stirling-series
    differences instead (DiDonato and Morris, ACM TOMS 708, brcomp), through
    lam = a - (a + b) x, (a + b) times the distance of x below the mean,
    correctly rounded. Near the mean with both shapes above 100 the
    asymptotic expansion :func:`_basym` gives the tail; elsewhere the
    continued fraction does, in tens of terms.
    """
    lam = _distance_below_mean(x, a, b)
    # f = -ln((x / x0)^a (y / y0)^b) for the mean x0 = a / (a + b), y0 = 1 - x0.
    f = a * _rlog1(-lam / a) + b * _rlog1(lam / b)
    if f > 700.0:  # the nearer tail is below 1e-290
        return 0.0 if lam > 0.0 else 1.0
    if min(a, b) > 100.0 and abs(lam) <= 0.03 * min(a, b):
        return _basym(a, b, f) if lam >= 0.0 else 1.0 - _basym(b, a, f)
    front = math.exp(-_HALF_LN_2PI + 0.5 * math.log(a * b / (a + b)) - f - _bcorr(a, b))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _distance_below_mean(x, a, b):
    """a - (a + b) x, correctly rounded: the products are split exactly
    (Dekker) after scaling the shapes by a power of two, so the splits
    cannot overflow."""
    scale = math.frexp(max(a, b))[1]
    a, b = math.ldexp(a, -scale), math.ldexp(b, -scale)
    xh, xl = _split(x)
    terms = [a]
    for shape in (a, b):
        product = shape * x
        sh, sl = _split(shape)
        terms += [-product, -(((sh * xh - product) + sh * xl + sl * xh) + sl * xl)]
    return math.ldexp(math.fsum(terms), scale)


def _split(u):
    """u as high + low, each with at most 26 significant bits."""
    c = 134217729.0 * u
    high = c - (c - u)
    return high, u - high


def _rlog1(e):
    """e - ln(1 + e), without cancellation for small e."""
    if abs(e) > 0.1:
        return e - math.log1p(e)
    # ln(1 + e) = 2 atanh(t) with t = e / (2 + e), and e - 2t = e^2 / (2 + e).
    t = e / (2.0 + e)
    t2 = t * t
    series = 0.0
    for k in range(17, 1, -2):
        series = series * t2 + 1.0 / k
    return e * e / (2.0 + e) - 2.0 * t * t2 * series


def _stirling_rest(z):
    """lgamma(z) - ((z - 1/2) ln z - z + ln(2 pi) / 2)."""
    if z < 10.0:
        return math.lgamma(z) - (z - 0.5) * math.log(z) + z - _HALF_LN_2PI
    w = 1.0 / (z * z)
    return (1 / 12 + w * (-1 / 360 + w * (1 / 1260 + w * (-1 / 1680 + w * (
        1 / 1188 - w * 691 / 360360))))) / z


def _bcorr(a, b):
    """ln B(a, b) less its Stirling approximation."""
    return _stirling_rest(a) + _stirling_rest(b) - _stirling_rest(a + b)


def _basym(a, b, f, terms=20):
    """I_x(a, b) for x below the mean and large a and b, from f (see
    :func:`_large_shape_cdf`): the asymptotic expansion of DiDonato and
    Morris (ACM TOMS 708, basym), a normal tail plus terms in powers of
    1 / min(a, b), summed to a relative 1e-15."""
    e0 = 2.0 / math.sqrt(math.pi)
    e1 = 2.0 ** -1.5
    z0 = math.sqrt(f)
    z = z0 / e1 * 0.5
    z2 = f + f
    if a < b:
        h = a / b
        r1 = (b - a) / b
        w0 = 1.0 / math.sqrt(a * (h + 1.0))
    else:
        h = b / a
        r1 = (b - a) / a
        w0 = 1.0 / math.sqrt(b * (h + 1.0))
    r0 = 1.0 / (h + 1.0)
    a0, b0, c, d = ([0.0] * (terms + 1) for _ in range(4))
    a0[0] = r1 * 2.0 / 3.0
    c[0] = -0.5 * a0[0]
    d[0] = -c[0]
    j0 = 0.5 / e0 * math.exp(f) * math.erfc(z0)
    j1 = e1
    total = j0 + d[0] * w0 * j1
    s, h2, hn, w, znm1, zn = 1.0, h * h, 1.0, w0, z, z2
    for n in range(2, terms + 1, 2):
        hn *= h2
        a0[n - 1] = 2.0 * r0 * (h * hn + 1.0) / (n + 2.0)
        s += hn
        a0[n] = 2.0 * r1 * s / (n + 3.0)
        for i in (n, n + 1):
            r = -0.5 * (i + 1.0)
            b0[0] = r * a0[0]
            for m in range(2, i + 1):
                bsum = sum((j * r - (m - j)) * a0[j - 1] * b0[m - j - 1] for j in range(1, m))
                b0[m - 1] = r * a0[m - 1] + bsum / m
            c[i - 1] = b0[i - 1] / (i + 1.0)
            d[i - 1] = -(sum(d[i - j - 1] * c[j - 1] for j in range(1, i)) + c[i - 1])
        j0 = e1 * znm1 + (n - 1.0) * j0
        j1 = e1 * zn + n * j1
        znm1 *= z2
        zn *= z2
        w *= w0
        t0 = d[n - 1] * w * j0
        w *= w0
        t1 = d[n] * w * j1
        total += t0 + t1
        if abs(t0) + abs(t1) <= 1e-15 * total:
            break
    return e0 * math.exp(-f - _bcorr(a, b)) * total


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
    policy: MarginPolicy
    """
    return MarginCandidates(traces, labels).table(theta)


class MarginCandidates:
    """The candidate margin thresholds of a set of training traces, sorted
    once per window, with the training accuracy each would give; every
    targeted accuracy reads its :func:`fit_margin` policy from them."""

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
        """The :func:`fit_margin` policy for targeted accuracy theta."""
        reached = self.first & (self.accuracy >= theta)
        k = np.argmax(reached, axis=0)
        windows = np.arange(self.margins.shape[1])
        thresholds = np.where(reached.any(axis=0), self.margins[k, windows], np.inf)
        return MarginPolicy(thresholds)


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
        windows=[WindowParams(**{k: _read(e.get(k), k, float) for k in _WINDOW_FIELDS},
                              window_samples=w) for e, w in zip(entries, grid)],
        eta=np.array([_read(e.get("eta"), "eta", float) for e in entries]),
    )
