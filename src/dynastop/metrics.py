"""Performance accounting: decision-level true/false positive/negative
counting, relevance metrics, information transfer rate, symbols per minute,
and the results row schema.
"""

import math
from dataclasses import dataclass, fields

import numpy as np


@dataclass
class DecisionCounts:
    """Stop/continue decisions classified by argmax correctness.

    Every window before the stop contributes one negative decision (false
    negative when the best score already pointed at the true class, true
    negative otherwise); the stop itself is the single positive decision of a
    trial (true positive when the best score was correct).
    """

    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0


def tally_decisions(argmax_correct, stops, forced, include_forced=True):
    """Pooled DecisionCounts of trials with (n_trials, n_windows) correctness
    flags, a stop window and a forced flag each (with include_forced False,
    forced trials count none); negatives come from the cumulative count of
    correct windows before each stop."""
    correct = np.asarray(argmax_correct, dtype=bool)
    stops = np.asarray(stops, dtype=int)
    if stops.size and (stops.min() < 0 or stops.max() >= correct.shape[1]):
        raise ValueError("correctness flags must cover every window up to the stop")
    kept = ~np.asarray(forced, dtype=bool) | include_forced
    trial = np.arange(stops.size)
    at_stop = correct[trial, stops]
    fn = int((np.cumsum(correct, axis=1)[trial, stops] - at_stop)[kept].sum())
    tp = int(np.count_nonzero(at_stop & kept))
    return DecisionCounts(tp=tp, fp=int(np.count_nonzero(kept)) - tp,
                          tn=int(stops[kept].sum()) - fn, fn=fn)


# perfbench/run.py traces this name (PASS_LAYERS); nothing in the package calls it.
def count_decisions(outcome, argmax_correct, include_forced=True):
    """One trial's :func:`tally_decisions`, from its StopOutcome and flags."""
    return tally_decisions([argmax_correct], [outcome.stopped_at], [outcome.forced],
                           include_forced)


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def precision(counts):
    """Fraction of true positives among all positive decisions (0 when none)."""
    return _ratio(counts.tp, counts.tp + counts.fp)


def recall(counts):
    """Fraction of true positives among all detectable instances (0 when none)."""
    return _ratio(counts.tp, counts.tp + counts.fn)


def specificity(counts):
    """True negative rate (0 when no negatives of either kind exist)."""
    return _ratio(counts.tn, counts.tn + counts.fp)


def f_score(counts):
    """Harmonic mean of precision and recall (0 when both vanish)."""
    p = precision(counts)
    r = recall(counts)
    return _ratio(2.0 * p * r, p + r)


def itr(p, n_classes, seconds):
    """Information transfer rate in bits per minute (Wolpaw definition).

    Bits per selection are log2(n) + p log2(p) + (1-p) log2((1-p)/(n-1)) with
    0 log2 0 read as 0, clamped at zero below chance level.
    """
    if n_classes < 2:
        raise ValueError("need at least two classes")
    if seconds <= 0:
        raise ValueError("selection time must be positive")
    if not 0.0 <= p <= 1.0:
        raise ValueError("accuracy must lie in [0, 1]")
    if p <= 1.0 / n_classes:
        return 0.0
    bits = math.log2(n_classes)
    if p > 0.0:
        bits += p * math.log2(p)
    if p < 1.0:
        bits += (1.0 - p) * math.log2((1.0 - p) / (n_classes - 1))
    return max(bits, 0.0) * 60.0 / seconds


def spm(select_seconds, overhead_seconds=0.0):
    """Symbols per minute for a selection time plus fixed per-trial overhead."""
    if select_seconds <= 0:
        raise ValueError("selection time must be positive")
    return 60.0 / (select_seconds + overhead_seconds)


@dataclass
class MetricsRow:
    """One evaluation result of a subject/method/hyperparameter combination;
    its fields, in order, are the results CSV's columns."""

    subject: str
    method: str
    hyperparam: float | None
    similarity: str
    accuracy: float
    mean_stop_s: float
    itr: float
    spm: float
    precision: float
    recall: float
    specificity: float
    f_score: float


CSV_COLUMNS = tuple(f.name for f in fields(MetricsRow))
