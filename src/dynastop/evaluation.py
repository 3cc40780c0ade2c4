"""Cross-validated evaluation harness: fits the decoder and the requested
stopping policy per fold, runs every held-out trial to its stopping decision,
and pools accuracy, timing, and decision-level metrics into result rows.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import metrics
from .baselines import (
    BetaPolicy,
    MarginCandidates,
    _top_two_gap,
    apply_policy,
    curve_folds,
    decoding_curve,
    fold_splits,
    held_out_traces,
    static_max_accuracy,
    static_max_itr,
    static_targeted_accuracy,
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


class ConfigError(ValueError):
    """A setting outside its domain; field names the ExperimentConfig field at fault."""

    def __init__(self, field, message):
        super().__init__(message)
        self.field = field


def _is_real(value):
    """Whether value is a real number; a bool, an int subclass, is not."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _finite(value):
    """Whether value is a finite real number."""
    return _is_real(value) and math.isfinite(value)


def _check_grid(grid_ms, t_star_s):
    """The rules of a decision grid that hold whatever the sampling rate;
    t_star_s None stands for the whole trial."""
    if not (_finite(grid_ms) and grid_ms > 0):
        raise ConfigError("grid_ms", f"grid step must be finite and > 0 ms, got {grid_ms!r}")
    if t_star_s is not None and not (_finite(t_star_s) and t_star_s > 0):
        raise ConfigError("t_star_s", f"t_star must be finite and > 0 s, got {t_star_s!r}")


def window_grid(grid_ms, t_star_s, fs):
    """Decision windows in samples: every grid_ms from grid_ms up to t_star.

    A step shorter than one sample gives a window at every sample.
    """
    _check_grid(grid_ms, t_star_s)
    if not math.isfinite(t_star_s * fs):
        raise ConfigError("t_star_s", f"t_star {t_star_s!r} s at {fs!r} Hz is too long")
    t_star = int(round(t_star_s * fs))
    if t_star < 1:
        raise ConfigError("t_star_s", f"t_star {t_star_s!r} s is shorter than one sample")
    step = grid_ms * fs / 1000.0
    if step <= 1.0:
        return np.arange(1, t_star + 1)
    if step >= t_star:  # also an infinite step, which round() cannot take
        return np.array([t_star])
    windows = []
    k = 1
    while (w := int(round(k * step))) < t_star:
        windows.append(w)
        k += 1
    return np.asarray(windows + [t_star], dtype=int)


def check_method(method, similarity, hyperparams):
    """Validate a method/similarity/hyperparameter combination; every
    hyperparameter must be a finite real number in the method's domain."""
    if method not in METHODS:
        raise ConfigError("method",
                          f"unknown method {method!r}; expected one of {', '.join(METHODS)}")
    if similarity not in ("inner", "correlation"):
        raise ConfigError("similarity", f"unknown similarity {similarity!r}")
    if method == "beta" and similarity != "correlation":
        raise ConfigError("similarity", "the beta method does not support the inner product")
    if method == "bds" and similarity != "inner":
        raise ConfigError("similarity", "bds scores are inner products, not correlations")
    if METHODS[method] and not hyperparams:
        raise ConfigError("hyperparams", f"method {method!r} needs a hyperparameter")
    if not METHODS[method] and hyperparams:
        raise ConfigError("hyperparams", f"method {method!r} takes no hyperparameter")
    for h in hyperparams:
        if not _is_real(h):
            raise ConfigError("hyperparams", f"{method} needs real numbers, got {h!r}")
        domain, inside = METHODS[method]
        if not (math.isfinite(h) and inside(h)):
            raise ConfigError("hyperparams",
                              f"{method} needs a finite value with {domain}, got {h:g}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Evaluation settings for one method on one store, checked once on
    construction: a setting outside its domain raises ConfigError. Whether
    t_star_s fits the trials is checked by decision_grid."""

    method: str
    similarity: str = "inner"
    hyperparams: tuple = ()
    folds: int = 5
    grid_ms: float = 100.0
    t_star_s: float | None = None
    overhead_s: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "hyperparams", tuple(self.hyperparams))
        check_method(self.method, self.similarity, self.hyperparams)
        # A bool is an int below 2.
        if not isinstance(self.folds, (int, np.integer)) or self.folds < 2:
            raise ConfigError("folds", f"folds must be an integer >= 2, got {self.folds!r}")
        _check_grid(self.grid_ms, self.t_star_s)
        if not (_finite(self.overhead_s) and self.overhead_s >= 0):
            raise ConfigError(
                "overhead_s", f"overhead_s must be finite and >= 0, got {self.overhead_s!r}"
            )

    def decision_grid(self, fs, n_samples):
        """window_grid for trials of n_samples at fs; t_star_s None is the
        whole trial, and a t_star_s past the trials raises ConfigError before
        any window is built."""
        if self.t_star_s is None:
            return window_grid(self.grid_ms, n_samples / fs, fs)
        # Clipped before rounding, so a product that overflows to inf is past too.
        if round(min(self.t_star_s * fs, n_samples + 1.0)) > n_samples:
            raise ConfigError("t_star_s", f"t_star must lie within the {n_samples / fs:g} s "
                                          f"trials, got {self.t_star_s!r}")
        return window_grid(self.grid_ms, self.t_star_s, fs)


def _first_stops(rule, levels, traces):
    """First firing window of each row of `levels` in each (n_windows,
    n_classes) trace, shape (len(levels), n_trials), -1 where none fires. A
    "bds" row holds each window's eta, which some score must exceed; a
    "margin" row each window's threshold, which the top-two gap must reach;
    a "fixed" row is the one window where every trace stops; a "beta" level
    one θ, which (n_trials, n_windows) outlier probabilities must reach."""
    levels = np.asarray(levels)
    if rule == "fixed":
        return np.repeat(levels[:, None], traces.shape[0], axis=1)
    if rule == "bds":
        # fmax skips a NaN score, as run_trial's test does, so a window fires
        # exactly when any score exceeds eta.
        fired = np.fmax.reduce(traces, axis=2) > levels[:, None]
    elif rule == "beta":
        fired = traces >= levels[:, None, None]
    else:
        fired = _top_two_gap(traces) >= levels[:, None]
    return np.where(fired.any(axis=2), np.argmax(fired, axis=2), -1)


def _fold_stops(config, hyperparams, fit, trials, train_idx, model, grid, traces):
    """:func:`_first_stops` of each hyperparameter on one fold's held-out
    traces. What they share is made once: the stopping calibration, the
    margin candidates, the decoding curve (its inner decoders `fit` gives
    from index sets into `trials`), or the Beta outlier probabilities."""
    train = [trials[i] for i in train_idx]
    if config.method == "beta":
        # A lower θ fires no later than the strictest, whose one run per trace
        # computes every probability any θ reads; past its stop they are -inf.
        probabilities = np.full(traces.shape[:2], -np.inf)
        for row, trace in zip(probabilities, traces):
            apply_policy(policy := BetaPolicy(max(hyperparams)), trace)
            row[:len(policy.probabilities)] = policy.probabilities
        return _first_stops("beta", hyperparams, probabilities)
    if config.method == "bds":
        base = calibrate(model, train, grid, zeta=1.0)
        return _first_stops("bds", [base.with_cost_ratio(h).eta for h in hyperparams], traces)
    if config.method == "margin":
        candidates = MarginCandidates(score_traces(model, train, grid, config.similarity),
                                      [t.label for t in train])
        return _first_stops("margin", [candidates.table(h) for h in hyperparams], traces)
    if config.method == "fixed":
        seconds = grid / train[0].fs
        return _first_stops("fixed", [np.argmin(np.abs(seconds - h)) for h in hyperparams],
                            traces)
    curve = decoding_curve(
        lambda inner_sets: fit([train_idx[i] for i in inner_sets]),
        train, grid, model.templates.shape[0], similarity=config.similarity,
    )
    if config.method == "static_targeted_accuracy":
        return _first_stops("fixed", [static_targeted_accuracy(curve, h) for h in hyperparams],
                            traces)
    select = static_max_accuracy if config.method == "static_max_accuracy" else static_max_itr
    return _first_stops("fixed", [select(curve)] * len(hyperparams), traces)


def _static_fits(stats, labels, n_folds):
    """The decoders of a static method's two levels of cross-validation,
    fitted in one :meth:`TrialStatistics.fit_many` call: the training split
    of every outer fold, and the :func:`decoding_curve` training splits
    inside each. Returns a fit that looks the models up by index set."""
    index_sets = []
    for _, train_idx in fold_splits(labels, n_folds):
        index_sets.append(train_idx)
        index_sets += [train_idx[inner] for _, inner
                       in fold_splits(labels[train_idx], curve_folds(train_idx.size))]
    models = dict(zip((s.tobytes() for s in index_sets), stats.fit_many(index_sets)))
    return lambda sets: [models[np.asarray(s, dtype=int).tobytes()] for s in sets]


def evaluate_store(trials, structures, config, subject="s01"):
    """Outer cross-validated evaluation of one method on one set of trials.

    Per fold the decoder and the stopping policy are calibrated on the
    training split and every held-out trial runs to its stopping decision;
    decisions pool across folds into one row per hyperparameter value
    (duplicates evaluated once).

    Parameters
    ----------
    trials: list of Trial
        Labeled trials, each label the index of a structure matrix; every
        trial is tested in exactly one fold.
    structures: StructureMatrices
        Structure matrices per class, at least as long as the trials (see
        :class:`TrialStatistics`).
    config: ExperimentConfig
        Checked settings; a t_star_s past the trials raises ConfigError.
    subject: str
        Subject tag for the result rows.

    Returns
    -------
    rows: list of MetricsRow
        One per distinct hyperparameter, in first-seen order.
    """
    if not trials:
        raise ValueError("no trials to evaluate")
    hyperparams = list(dict.fromkeys(config.hyperparams)) or [None]

    fs = trials[0].fs
    grid = config.decision_grid(fs, trials[0].data.shape[1])
    labels = np.array([t.label for t in trials])

    stats = TrialStatistics(trials, structures)
    # Every method fits all its decoders in one fit_many call.
    fit = stats.fit_many
    if config.method.startswith("static"):
        fit = _static_fits(stats, labels, config.folds)
    fold_stops, fold_correct = [], []
    for fold, train_idx, model, traces in held_out_traces(
        fit, trials, config.folds, grid, config.similarity
    ):
        fold_stops.append(_fold_stops(config, hyperparams, fit, trials, train_idx, model,
                                      grid, traces))
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
