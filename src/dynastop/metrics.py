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

    def __add__(self, other):
        return DecisionCounts(
            self.tp + other.tp, self.fp + other.fp, self.tn + other.tn, self.fn + other.fn
        )

    @property
    def total(self):
        return self.tp + self.fp + self.tn + self.fn


def count_decisions(outcome, argmax_correct, include_forced=True):
    """Classify the decisions of one trial.

    Parameters
    ----------
    outcome: StopOutcome
        Controller outcome; the positive decision sits at outcome.stopped_at.
    argmax_correct: sequence of bool
        Whether the best score matched the true class, for every window up to
        and including the stop.
    include_forced: bool (default: True)
        When False, trials that only stopped because the maximum length was
        reached are dropped from the counts entirely.
    """
    if len(argmax_correct) < outcome.stopped_at + 1:
        raise ValueError("correctness flags must cover every window up to the stop")
    if outcome.forced and not include_forced:
        return DecisionCounts()
    stop = outcome.stopped_at
    fn = int(np.count_nonzero(argmax_correct[:stop]))
    tp = int(bool(argmax_correct[stop]))
    return DecisionCounts(tp=tp, fp=1 - tp, tn=stop - fn, fn=fn)


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


def metric_flags(counts):
    """Which relevance metrics sat on a zero denominator and were reported as 0."""
    return {
        "precision": counts.tp + counts.fp == 0,
        "recall": counts.tp + counts.fn == 0,
        "specificity": counts.tn + counts.fp == 0,
        "f_score": precision(counts) + recall(counts) == 0.0,
    }


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
    if overhead_seconds < 0:
        raise ValueError("overhead must be non-negative")
    return 60.0 / (select_seconds + overhead_seconds)


NUMERIC_FIELDS = (
    "accuracy",
    "mean_stop_s",
    "itr",
    "spm",
    "precision",
    "recall",
    "specificity",
    "f_score",
)

CSV_COLUMNS = (
    "subject",
    "method",
    "hyperparam",
    "similarity",
    *NUMERIC_FIELDS,
    *(f"ci_{name}" for name in NUMERIC_FIELDS),
)


@dataclass
class MetricsRow:
    """One evaluation result: a subject/method/hyperparameter combination.

    ci_* fields hold 95% confidence half-widths. The evaluation harness
    writes single-subject rows, where they stay 0; the columns keep the CSV
    schema fixed, and ``dynastop report`` draws a band from them when a CSV
    carries nonzero values.
    """

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
    ci_accuracy: float = 0.0
    ci_mean_stop_s: float = 0.0
    ci_itr: float = 0.0
    ci_spm: float = 0.0
    ci_precision: float = 0.0
    ci_recall: float = 0.0
    ci_specificity: float = 0.0
    ci_f_score: float = 0.0


def row_fields(row):
    """Row values keyed by CSV column, in schema order."""
    return {f.name: getattr(row, f.name) for f in fields(row)}
