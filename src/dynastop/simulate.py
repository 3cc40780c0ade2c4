"""Forward-model simulator: multi-channel trials built as a spatial pattern
times a scaled class template plus white Gaussian noise, so every stage of the
pipeline is testable without recorded data.
"""

import math
from dataclasses import dataclass

import numpy as np

from .codes import (StructureMatrices, flash_response_samples, make_gold_codes, modulate,
                    select_subset, structure_matrices)
from .decoding import Trial, predict_templates


@dataclass
class SimConfig:
    """Simulation settings; None fields resolve to deterministic defaults.

    The default stimulus set is the degree-6 Gold family, modulated and
    greedily reduced to n_classes codes by template correlation. The default
    event response is two decaying sinusoid bumps (distinct shapes for the
    short and the long flash), spanning 0.3 s.
    """

    n_classes: int = 36
    n_channels: int = 8
    fs: float = 120.0
    trial_seconds: float = 1.05
    alpha: float = 1.0
    sigma: float = 1.0
    seed: int = 1234
    rate_hz: float = 120.0
    spatial_pattern: np.ndarray | None = None
    codes: np.ndarray | None = None
    response: np.ndarray | None = None


@dataclass
class ResolvedSim:
    """Concrete arrays derived from a SimConfig."""

    codes: np.ndarray
    spatial_pattern: np.ndarray
    response: np.ndarray
    structures: StructureMatrices
    templates: np.ndarray
    n_samples: int


def default_response(event_samples):
    """Canonical per-event response: a decaying 3-cycle bump for short flashes
    followed by a slower, smaller bump for long flashes."""
    j = np.arange(int(event_samples))
    phase = j / max(1, event_samples)
    short = np.sin(2 * np.pi * 3.0 * phase) * np.exp(-3.0 * phase)
    long_ = 0.8 * np.sin(2 * np.pi * 2.0 * phase + 0.6) * np.exp(-2.5 * phase)
    return np.concatenate([short, long_])


def default_pattern(n_channels):
    """Smooth, all-positive default spatial pattern."""
    return np.cos(np.linspace(0.0, np.pi / 2, int(n_channels))) + 0.25


def resolve_config(cfg):
    """Materialize codes, pattern, response, structures, and true templates;
    a setting outside its domain raises ValueError naming the field."""
    for name, low in (("n_classes", 2), ("n_channels", 1), ("seed", 0)):
        if getattr(cfg, name) < low:
            raise ValueError(f"{name} must be >= {low}, got {getattr(cfg, name)!r}")
    for name in ("fs", "trial_seconds", "rate_hz", "sigma"):
        value = getattr(cfg, name)
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    if not math.isfinite(cfg.alpha):
        raise ValueError(f"alpha must be finite, got {cfg.alpha!r}")
    samples = cfg.trial_seconds * cfg.fs
    if not math.isfinite(samples):
        raise ValueError(f"trial_seconds must be a finite number of samples at fs={cfg.fs!r}, "
                         f"got trial_seconds={cfg.trial_seconds!r}")
    n_samples = int(round(samples))
    max_bytes = np.iinfo(np.intp).max
    if n_samples * cfg.n_channels * 8 > max_bytes:
        longest = max_bytes / (8 * cfg.n_channels) / cfg.fs
        raise ValueError(f"trial_seconds must be at most {longest:.6g} s, so that a trial of "
                         f"{cfg.n_channels} channels at fs={cfg.fs!r} fits in {max_bytes} bytes, "
                         f"got {cfg.trial_seconds!r}")
    if n_samples < 1:
        raise ValueError("trial_seconds too short for the sampling rate")

    response = cfg.response
    if response is None and flash_response_samples(cfg.fs) < 1:
        raise ValueError(f"fs must be > 5/3 Hz to sample the 0.3 s flash response, got {cfg.fs!r}")
    if response is None:
        response = default_response(flash_response_samples(cfg.fs))
    response = np.asarray(response, dtype=float)
    if response.size % 2:
        raise ValueError("response length must be even (short + long block)")
    event_samples = response.size // 2

    if cfg.codes is None:
        codes = modulate(make_gold_codes())
        if cfg.n_classes > codes.shape[0]:
            raise ValueError(
                f"{cfg.n_classes} classes exceed the {codes.shape[0]} default codes"
            )
    else:
        codes = np.atleast_2d(np.asarray(cfg.codes, dtype=np.uint8))
        if codes.shape[0] != cfg.n_classes:
            raise ValueError("codes row count must equal n_classes")

    pattern = cfg.spatial_pattern
    if pattern is None:
        pattern = default_pattern(cfg.n_channels)
    pattern = np.asarray(pattern, dtype=float)
    if pattern.size != cfg.n_channels or np.linalg.norm(pattern) == 0.0:
        raise ValueError("spatial pattern must have n_channels entries and nonzero norm")

    structures = structure_matrices(codes, cfg.fs, cfg.rate_hz, n_samples, event_samples)
    templates = predict_templates(response, structures)
    if codes.shape[0] > cfg.n_classes:
        kept = select_subset(codes, templates, cfg.n_classes)
        codes, templates, structures = codes[kept], templates[kept], structures[kept]
    return ResolvedSim(
        codes=codes,
        spatial_pattern=pattern,
        response=response,
        structures=structures,
        templates=templates,
        n_samples=n_samples,
    )


def _trial_rng(seed, trial_index):
    # Per-trial seed stream: hashing (seed, index) keeps trial generation
    # order-independent and reproducible.
    return np.random.default_rng([int(seed), int(trial_index)])


def make_dataset(cfg, trials_per_class, resolved=None):
    """Generate a labeled synthetic dataset.

    Per trial of class y the single-source signal is alpha times template y;
    the channels carry that source scaled by the spatial pattern plus i.i.d.
    Gaussian noise of standard deviation sigma. Labels are counterbalanced:
    every repetition block presents each class once, in class order.

    Parameters
    ----------
    cfg: SimConfig
    trials_per_class: int
        Repetitions per class; the dataset holds n_classes * trials_per_class
        trials.
    resolved: ResolvedSim (optional)
        Pass to reuse an already materialized configuration.

    Returns
    -------
    trials: list of Trial
    """
    if trials_per_class < 1:
        raise ValueError("trials_per_class must be >= 1")
    sim = resolved or resolve_config(cfg)
    trials = []
    index = 0
    for _ in range(trials_per_class):
        for label in range(cfg.n_classes):
            rng = _trial_rng(cfg.seed, index)
            source = cfg.alpha * sim.templates[label]
            noise = rng.normal(0.0, cfg.sigma, size=(cfg.n_channels, sim.n_samples))
            data = sim.spatial_pattern[:, None] * source[None, :] + noise
            trials.append(Trial(data=data, label=label, fs=cfg.fs))
            index += 1
    return trials
