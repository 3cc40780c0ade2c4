"""Cross-validated evaluation harness: fits the decoder and the requested
stopping policy per fold, runs every held-out trial to its stopping decision,
and pools accuracy, timing, and decision-level metrics into result rows.
"""

import math
from functools import cached_property

import numpy as np

from . import metrics
from .baselines import (
    BetaPolicy,
    FixedLengthPolicy,
    MarginCandidates,
    decoding_curve,
    static_max_accuracy,
    static_max_itr,
    static_targeted_accuracy,
    stratified_folds,
)
from .bayes_stop import calibrate
from .decoding import TrialStatistics, score_traces

# Each method's hyperparameter domain as shown and as tested; None: takes none.
METHODS = {
    "fixed": ("seconds > 0", lambda h: h > 0),
    "static_max_accuracy": None,
    "static_targeted_accuracy": ("theta in (0, 1)", lambda h: 0 < h < 1),
    "static_max_itr": None,
    "margin": ("theta in [0, 1]", lambda h: 0 <= h <= 1),
    "beta": ("theta in (0, 1)", lambda h: 0 < h < 1),
    "bds": ("zeta > 0", lambda h: h > 0),
}


class HyperparamError(ValueError):
    """A hyperparameter that is not finite or lies outside its method's domain."""


def window_grid(grid_ms, t_star_s, fs):
    """Decision windows in samples: every grid_ms from grid_ms up to t_star.

    A step shorter than one sample gives a window at every sample.
    """
    if not (math.isfinite(grid_ms) and grid_ms > 0):
        raise ValueError(f"grid step must be a positive number of ms, got {grid_ms!r}")
    if not math.isfinite(t_star_s):
        raise ValueError(f"t_star must be finite, got {t_star_s!r}")
    t_star = int(round(t_star_s * fs))
    if t_star < 1:
        raise ValueError("t_star shorter than one sample")
    step = grid_ms * fs / 1000.0
    if step <= 1.0:
        return np.arange(1, t_star + 1)
    windows = []
    k = 1
    while (w := int(round(k * step))) < t_star:
        windows.append(w)
        k += 1
    return np.asarray(windows + [t_star], dtype=int)


def check_method(method, similarity, hyperparams):
    """Validate a method/similarity/hyperparameter combination; every
    hyperparameter must be finite and lie in the method's domain."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {', '.join(METHODS)}")
    if method == "beta" and similarity != "correlation":
        raise ValueError("the beta method does not support the inner product")
    if method == "bds" and similarity != "inner":
        raise ValueError("bds scores are inner products; correlation is not supported")
    if METHODS[method] and not hyperparams:
        raise ValueError(f"method {method!r} needs a hyperparameter")
    if not METHODS[method] and hyperparams:
        raise ValueError(f"method {method!r} takes no hyperparameter")
    for h in hyperparams:
        domain, inside = METHODS[method]
        if not (math.isfinite(h) and inside(h)):
            raise HyperparamError(f"{method} needs a finite value with {domain}, got {h:g}")


def _nearest_window(grid, fs, seconds):
    return int(np.argmin(np.abs(grid / fs - seconds)))


class _FoldPolicies:
    """Per-fold policy factory that shares the expensive calibration products
    (decoder, training traces, decoding curve, stopping calibration) across
    the hyperparameter sweep. Every decoder it needs, outer and inner-CV, is
    fitted from the statistics of the whole evaluation set."""

    def __init__(self, method, similarity, stats, trials, train_idx, grid):
        self.method = method
        self.similarity = similarity
        self.stats = stats
        self.train_idx = train_idx
        self.train = [trials[i] for i in train_idx]
        self.grid = grid
        self.model = stats.fit(train_idx)
        self.fs = self.train[0].fs
        self.n_classes = len(stats.structures)

    @cached_property
    def curve(self):
        return decoding_curve(
            lambda inner: self.stats.fit(self.train_idx[inner]),
            self.train,
            self.grid,
            self.n_classes,
            similarity=self.similarity,
        )

    @cached_property
    def train_traces(self):
        return score_traces(self.model, self.train, self.grid, self.similarity)

    @cached_property
    def margin_candidates(self):
        return MarginCandidates(self.train_traces, [t.label for t in self.train])

    @cached_property
    def base_stopping(self):
        return calibrate(self.model, self.train, self.grid, zeta=1.0)

    def make(self, hyperparam):
        if self.method == "bds":
            return self.base_stopping.with_cost_ratio(hyperparam)
        if self.method == "fixed":
            return FixedLengthPolicy(_nearest_window(self.grid, self.fs, hyperparam))
        if self.method == "static_max_accuracy":
            return FixedLengthPolicy(static_max_accuracy(self.curve))
        if self.method == "static_max_itr":
            return FixedLengthPolicy(static_max_itr(self.curve))
        if self.method == "static_targeted_accuracy":
            return FixedLengthPolicy(static_targeted_accuracy(self.curve, hyperparam))
        if self.method == "margin":
            return self.margin_candidates.table(hyperparam)
        if self.method == "beta":
            return BetaPolicy(hyperparam)
        raise ValueError(f"unknown method {self.method!r}")


def evaluate_store(trials, structures, config, subject="s01"):
    """Outer cross-validated evaluation of one method on one set of trials.

    Per fold the decoder and the stopping policy are calibrated on the
    training split and every held-out trial runs to its stopping decision;
    decisions pool across folds into one row per hyperparameter value
    (duplicates evaluated once).

    Parameters
    ----------
    trials: list of Trial
        Labeled trials; every trial is tested in exactly one fold.
    structures: list of np.ndarray
        Structure matrices per class, at least t_star samples long.
    config: ExperimentConfig
        Method, similarity, hyperparameter list, folds, grid step, maximum
        trial length (defaults to the full trial), and overhead.
    subject: str
        Subject tag for the result rows.

    Returns
    -------
    rows: list of MetricsRow
        One per distinct hyperparameter, in first-seen order.
    """
    if not trials:
        raise ValueError("no trials to evaluate")
    check_method(config.method, config.similarity, config.hyperparams)
    hyperparams = list(dict.fromkeys(config.hyperparams)) or [None]

    fs = trials[0].fs
    t_star_s = config.t_star_s
    if t_star_s is None:
        t_star_s = trials[0].data.shape[1] / fs
    grid = window_grid(config.grid_ms, t_star_s, fs)
    labels = np.array([t.label for t in trials])
    folds = stratified_folds(labels, config.folds)

    stats = TrialStatistics(trials, structures)
    fold_stops, fold_correct = [], []
    for fold in folds:
        if fold.size == 0:
            continue
        mask = np.ones(len(trials), dtype=bool)
        mask[fold] = False
        policies = _FoldPolicies(
            config.method, config.similarity, stats, trials, np.flatnonzero(mask), grid
        )
        traces = score_traces(policies.model, [trials[i] for i in fold], grid,
                              config.similarity)
        fold_stops.append(np.stack([policies.make(h).first_stops(traces) for h in hyperparams]))
        fold_correct.append(np.argmax(traces, axis=2) == labels[fold, None])

    # One column per trial in fold order; a trial no rule stopped is forced
    # to the last window.
    first = np.concatenate(fold_stops, axis=1)
    forced = first < 0
    stops = np.where(forced, grid.size - 1, first)
    correct = np.concatenate(fold_correct)
    rows = []
    for h, h_stops, h_forced in zip(hyperparams, stops, forced):
        c = metrics.tally_decisions(correct, h_stops, h_forced)
        # Every trial makes one positive decision, so tp counts the hits.
        accuracy = c.tp / h_stops.size
        mean_stop = float(np.mean(grid[h_stops] / fs))
        rows.append(metrics.MetricsRow(
            subject=subject, method=config.method, hyperparam=h,
            similarity=config.similarity, accuracy=accuracy, mean_stop_s=mean_stop,
            itr=metrics.itr(accuracy, len(structures), mean_stop + config.overhead_s),
            spm=metrics.spm(mean_stop, config.overhead_s),
            precision=metrics.precision(c), recall=metrics.recall(c),
            specificity=metrics.specificity(c), f_score=metrics.f_score(c),
        ))
    return rows
