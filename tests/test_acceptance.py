"""Acceptance suite: one test per release criterion, each printing a pass line
with the measured figure next to its budget.

Criteria:
 1. boundary oracle            7. decoder recovery
 2. analytic midpoint          8. Gold code properties
 3. likelihood-ratio identity  9. incomplete beta accuracy
 4. distribution fidelity     10. baseline selectors
 5. cost-ratio monotonicity   11. decision accounting
 6. end-to-end decoding       12. CLI determinism
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import dynastop
from dynastop.baselines import (
    BoundaryPolicy,
    DecodingCurve,
    apply_policy,
    beta_cdf,
    fit_margin,
    static_max_accuracy,
    static_max_itr,
    static_targeted_accuracy,
    stratified_folds,
)
from dynastop.bayes_stop import (
    StopOutcome,
    WindowParams,
    calibrate,
    decision_boundary,
    log_likelihood_ratio,
)
from dynastop.decoding import fit_cca, score_trace
from dynastop.evaluation import window_grid
from dynastop.metrics import DecisionCounts, count_decisions, itr, precision
from dynastop.simulate import (
    SimConfig,
    effective_noise_std,
    make_dataset,
    oracle_scores,
    resolve_config,
)


def report(number, text):
    print(f"criterion {number:02d}: PASS - {text}")


def sharp_response(event_samples):
    """Fast-decaying event response: keeps template energies uniform so the
    high-signal-to-noise store decodes almost perfectly from early windows."""
    j = np.arange(event_samples)
    phase = j / event_samples
    short = np.sin(2 * np.pi * 2.0 * phase) * np.exp(-6.0 * phase)
    long_ = 0.7 * np.sin(2 * np.pi * 1.5 * phase + 0.4) * np.exp(-5.0 * phase)
    return np.concatenate([short, long_])


def run_lengths(bits):
    """Length of every maximal run of ones, counted one bit at a time."""
    lengths, run = [], 0
    for bit in [*bits, 0]:
        if bit:
            run += 1
        elif run:
            lengths.append(run)
            run = 0
    return lengths


def log_normal_pdf(x, mean, std):
    return -math.log(std * math.sqrt(2 * math.pi)) - 0.5 * ((x - mean) / std) ** 2


def bds_cross_validation(trials, structures, zetas, fs, folds=5, grid_ms=100.0):
    """Full pipeline per cost ratio: decoder fit and stopping calibration per
    fold, held-out trials run to their stopping decision."""
    t_star_s = trials[0].data.shape[1] / fs
    grid = window_grid(grid_ms, t_star_s, fs)
    labels = np.array([t.label for t in trials])
    results = {z: {"hits": [], "stops": [], "forced": [], "counts": DecisionCounts()}
               for z in zetas}
    for fold in stratified_folds(labels, folds):
        mask = np.ones(len(trials), dtype=bool)
        mask[fold] = False
        train = [trials[i] for i in np.flatnonzero(mask)]
        model = fit_cca(train, structures)
        base = calibrate(model, train, grid, zeta=1.0)
        policies = {z: BoundaryPolicy(base.with_cost_ratio(z).eta) for z in zetas}
        for idx in fold:
            trace = score_trace(model, trials[idx], grid, "inner")
            correct = np.argmax(trace, axis=1) == trials[idx].label
            for z in zetas:
                outcome = apply_policy(policies[z], trace)
                bucket = results[z]
                bucket["hits"].append(outcome.label == trials[idx].label)
                bucket["stops"].append(grid[outcome.stopped_at] / fs)
                bucket["forced"].append(outcome.forced)
                bucket["counts"] = bucket["counts"] + count_decisions(outcome, correct)
    summary = {}
    for z in zetas:
        bucket = results[z]
        summary[z] = {
            "accuracy": float(np.mean(bucket["hits"])),
            "mean_stop_s": float(np.mean(bucket["stops"])),
            "forced_fraction": float(np.mean(bucket["forced"])),
            "precision": precision(bucket["counts"]),
        }
    return summary, grid


def test_criterion_01_boundary_oracle():
    rng = np.random.default_rng(12345)
    start = time.perf_counter()
    checked = 0
    worst = 0.0
    while checked < 1000:
        b0 = rng.uniform(-2, 2)
        b1 = b0 + rng.uniform(0.05, 3)
        s0 = rng.uniform(0.05, 3)
        s1 = rng.uniform(0.05, 3)
        alpha = rng.uniform(0.1, 4)
        zeta = 10 ** rng.uniform(-8, 8)
        n = int(rng.integers(2, 40))
        params = WindowParams(b1=b1, b0=b0, s1=s1, s0=s0, window_samples=10)
        eta = decision_boundary(params, alpha, zeta, n)
        if not math.isfinite(eta):
            continue
        checked += 1
        gap = abs(log_likelihood_ratio(eta, params, alpha) - math.log((n - 1) * zeta))
        worst = max(worst, gap)
        assert gap < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"1000 boundaries on threshold, worst gap {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_analytic_midpoint():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(200):
        b0 = rng.uniform(-2, 2)
        b1 = b0 + rng.uniform(0.05, 3)
        s = rng.uniform(0.05, 3)
        alpha = rng.uniform(0.1, 4)
        params = WindowParams(b1=b1, b0=b0, s1=s, s0=s, window_samples=4)
        eta = decision_boundary(params, alpha, 1.0, 2)
        gap = abs(eta - alpha * (b0 + b1) / 2)
        worst = max(worst, gap)
        assert gap < 1e-12
    report(2, f"equal-variance midpoint exact, worst error {worst:.2e}")


def test_criterion_03_llr_identity():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(10_000):
        b0 = rng.uniform(-2, 2)
        b1 = b0 + rng.uniform(0.05, 3)
        s0 = rng.uniform(0.05, 3)
        s1 = rng.uniform(0.05, 3)
        alpha = rng.uniform(0.1, 4)
        f = rng.normal(0, 5)
        params = WindowParams(b1=b1, b0=b0, s1=s1, s0=s0, window_samples=4)
        direct = log_normal_pdf(f, alpha * b1, s1) - log_normal_pdf(f, alpha * b0, s0)
        gap = abs(log_likelihood_ratio(f, params, alpha) - direct)
        worst = max(worst, gap)
        assert gap < 1e-10
    report(3, f"expansion equals density difference at 1e4 points, worst {worst:.2e}")


def test_criterion_04_distribution_fidelity():
    start = time.perf_counter()
    cfg = SimConfig(
        n_classes=36, n_channels=1, sigma=1.0, alpha=1.3, seed=2024,
        spatial_pattern=np.array([1.0]),
    )
    sim = resolve_config(cfg)
    trials = make_dataset(cfg, 56, resolved=sim)
    assert len(trials) >= 2000
    sigma_eff = effective_noise_std(cfg, resolved=sim)
    labels = np.array([t.label for t in trials])
    from dynastop.bayes_stop import window_params

    worst = 0.0
    for window in (12, 60, 126):
        params = window_params(sim.templates[:, :window], cfg.alpha, sigma_eff)
        scores = oracle_scores(cfg, trials, window, resolved=sim)
        target_mask = np.zeros_like(scores, dtype=bool)
        target_mask[np.arange(len(trials)), labels] = True
        target = scores[target_mask]
        nontarget = scores[~target_mask]
        checks = [
            (target.mean(), cfg.alpha * params.b1),
            (target.std(), params.s1),
            (nontarget.mean(), cfg.alpha * params.b0),
            (nontarget.std(), params.s0),
        ]
        for empirical, predicted in checks:
            rel = abs(empirical - predicted) / abs(predicted)
            worst = max(worst, rel)
            assert rel < 0.05
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(4, f"score moments within {100 * worst:.2f}% of predictions, {elapsed:.1f}s")


def test_criterion_05_cost_ratio_monotonicity():
    cfg = SimConfig(n_classes=36, n_channels=8, sigma=3.0, seed=42)
    sim = resolve_config(cfg)
    trials = make_dataset(cfg, 10, resolved=sim)
    assert len(trials) == 360
    zetas = [1e-10, 1e-4, 1.0, 1e4, 1e10]
    summary, grid = bds_cross_validation(trials, sim.structures, zetas, cfg.fs)
    step_s = 0.1
    for a, b in zip(zetas, zetas[1:]):
        assert summary[a]["mean_stop_s"] <= summary[b]["mean_stop_s"] + step_s
        assert summary[a]["precision"] <= summary[b]["precision"] + 0.02
    assert summary[1e10]["forced_fraction"] == 1.0
    stops = [f"{summary[z]['mean_stop_s']:.2f}" for z in zetas]
    precisions = [f"{summary[z]['precision']:.2f}" for z in zetas]
    report(5, f"stops {stops} and precisions {precisions} non-decreasing; "
              "1e10 all forced")


def test_criterion_06_end_to_end_decoding():
    start = time.perf_counter()
    response = sharp_response(12)
    high = SimConfig(n_classes=36, n_channels=8, sigma=0.3, seed=42,
                     response=response)
    sim = resolve_config(high)
    trials = make_dataset(high, 10, resolved=sim)
    summary, grid = bds_cross_validation(trials, sim.structures, [1.0], high.fs)
    t_star_s = grid[-1] / high.fs
    accuracy = summary[1.0]["accuracy"]
    mean_stop = summary[1.0]["mean_stop_s"]
    assert accuracy >= 0.95
    assert mean_stop < 0.5 * t_star_s

    noise = SimConfig(n_classes=36, n_channels=8, alpha=0.0, sigma=1.0, seed=43,
                      response=response)
    sim_n = resolve_config(noise)
    trials_n = make_dataset(noise, 10, resolved=sim_n)
    chance, _ = bds_cross_validation(trials_n, sim_n.structures, [1.0], noise.fs)
    p = 1.0 / 36.0
    half_width = 2.576 * math.sqrt(p * (1 - p) / len(trials_n))
    assert abs(chance[1.0]["accuracy"] - p) <= half_width
    assert chance[1.0]["forced_fraction"] >= 0.95
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(6, f"high SNR: {accuracy:.3f} accuracy at {mean_stop:.2f}s stop; "
              f"noise: {chance[1.0]['accuracy']:.3f} accuracy, "
              f"{100 * chance[1.0]['forced_fraction']:.0f}% forced; {elapsed:.0f}s")


def test_criterion_07_decoder_recovery():
    cfg = SimConfig(n_classes=36, n_channels=8, sigma=2.0, seed=11)
    sim = resolve_config(cfg)
    train = make_dataset(cfg, 5, resolved=sim)
    model = fit_cca(train, sim.structures)

    test_cfg = SimConfig(n_classes=36, n_channels=8, sigma=2.0, seed=99)
    held_out = make_dataset(test_cfg, 2, resolved=sim)
    window = sim.templates.shape[1]
    hits = [
        int(np.argmax(score_trace(model, t, [window], "inner")[0]) == t.label)
        for t in held_out
    ]
    accuracy = float(np.mean(hits))
    assert accuracy >= 0.90

    w_corr = abs(np.corrcoef(model.spatial_filter, sim.spatial_pattern)[0, 1])
    r_corr = abs(np.corrcoef(model.response, sim.response)[0, 1])
    assert w_corr > 0.95
    assert r_corr > 0.95
    report(7, f"single-trial accuracy {accuracy:.3f}; |corr| filter {w_corr:.3f}, "
              f"response {r_corr:.3f}")


def test_criterion_08_gold_code_properties():
    from dynastop.codes import make_gold_codes, modulate

    start = time.perf_counter()
    codes = make_gold_codes()
    assert codes.shape == (65, 63)
    modulated = modulate(codes)
    assert modulated.shape == (65, 126)
    for row in modulated:
        # Every run of ones is a short (one-bit) or a long (two-bit) flash.
        assert set(run_lengths(row)) <= {1, 2}

    bipolar = (1 - 2 * codes.astype(np.int64))
    observed = set()
    for shift in range(63):
        corr = bipolar @ np.roll(bipolar, shift, axis=1).T
        off_diagonal = corr[~np.eye(65, dtype=bool)]
        observed.update(np.unique(off_diagonal).tolist())
    assert observed <= {-1, -17, 15}
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(8, f"65 codes, 126-bit modulation, cross-correlations {sorted(observed)}, "
              f"{elapsed:.2f}s")


def test_criterion_09_beta_cdf_accuracy():
    from scipy.integrate import quad

    shapes = [0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0]
    xs = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    worst_quad = 0.0
    worst_reflect = 0.0
    for a in shapes:
        for b in shapes:
            ln_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

            def density(t, a=a, b=b, ln_beta=ln_beta):
                return math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - ln_beta)

            for x in xs:
                expected, _ = quad(density, 0.0, x, epsabs=1e-13, epsrel=1e-13, limit=300)
                gap = abs(beta_cdf(x, a, b) - expected)
                worst_quad = max(worst_quad, gap)
                assert gap < 1e-8
                reflect = abs(beta_cdf(x, a, b) - (1.0 - beta_cdf(1.0 - x, b, a)))
                worst_reflect = max(worst_reflect, reflect)
                assert reflect < 1e-10
    report(9, f"900-point grid: quadrature gap {worst_quad:.1e}, "
              f"reflection gap {worst_reflect:.1e}")


def test_criterion_10_baseline_selectors():
    def curve(accuracies, seconds):
        accuracies = np.asarray(accuracies, dtype=float)
        itrs = np.array([itr(a, 36, s) for a, s in zip(accuracies, seconds)])
        return DecodingCurve(np.asarray(seconds, dtype=float), accuracies, itrs)

    rising = curve([0.2, 0.9, 0.9], [0.5, 1.0, 1.5])
    monotone = curve([0.1, 0.5, 0.7, 0.95], [0.5, 1.0, 1.5, 2.0])
    flat_perfect = curve([1.0, 1.0], [1.0, 2.0])

    assert static_max_accuracy(rising) == 1
    assert static_max_accuracy(monotone) == 3
    assert static_max_accuracy(flat_perfect) == 0
    assert static_targeted_accuracy(monotone, 0.5) == 1
    assert static_targeted_accuracy(monotone, 0.99) == 3  # unreachable: fallback
    assert static_targeted_accuracy(rising, 0.1) == 0
    assert static_max_itr(flat_perfect) == 0
    assert static_max_itr(monotone) == np.argmax(monotone.itr)

    margins = np.array([0.1, 0.2, 0.3, 0.4])
    traces = np.zeros((4, 1, 2))
    traces[:, 0, 0] = margins
    labels = np.array([1, 0, 0, 0])  # first trial misclassified
    table = fit_margin(traces, labels, theta=0.99)
    assert table.thresholds[0] == pytest.approx(0.2)
    report(10, "static selectors and margin threshold match hand enumeration")


def test_criterion_11_decision_accounting():
    def outcome(stopped_at, forced=False):
        return StopOutcome(stopped_at, 0, forced)

    counts = count_decisions(outcome(2), [True, True, True])
    assert (counts.tp, counts.fp, counts.tn, counts.fn) == (1, 0, 0, 2)
    counts = count_decisions(outcome(0), [False])
    assert (counts.tp, counts.fp, counts.tn, counts.fn) == (0, 1, 0, 0)
    # Never-stop policy forced at the last of five windows, argmax wrong
    # everywhere: four true negatives plus the one false positive.
    counts = count_decisions(outcome(4, forced=True), [False] * 5)
    assert (counts.tp, counts.fp, counts.tn, counts.fn) == (0, 1, 4, 0)
    counts = count_decisions(outcome(3), [False, True, False, True])
    assert (counts.tp, counts.fp, counts.tn, counts.fn) == (1, 0, 2, 1)

    cfg = SimConfig(n_classes=6, n_channels=2, sigma=1.5, seed=21)
    sim = resolve_config(cfg)
    trials = make_dataset(cfg, 5, resolved=sim)
    summary, grid = bds_cross_validation(trials, sim.structures, [1.0], cfg.fs)
    labels = np.array([t.label for t in trials])
    total = DecisionCounts()
    for fold in stratified_folds(labels, 5):
        mask = np.ones(len(trials), dtype=bool)
        mask[fold] = False
        train = [trials[i] for i in np.flatnonzero(mask)]
        model = fit_cca(train, sim.structures)
        stopping = calibrate(model, train, grid, zeta=1.0)
        policy = BoundaryPolicy(stopping.eta)
        for idx in fold:
            trace = score_trace(model, trials[idx], grid, "inner")
            correct = np.argmax(trace, axis=1) == trials[idx].label
            total = total + count_decisions(apply_policy(policy, trace), correct)
    assert total.tp + total.fp == len(trials)
    report(11, f"four-outcome semantics verified; {total.tp + total.fp} positive "
               f"decisions for {len(trials)} trials")


CLI_SCRIPT = [
    ("codes", ["codes", "--subset-k", "8", "--out", "codes.txt"]),
    ("simulate", ["simulate", "--config", "sim.json", "--out", "store"]),
    ("calibrate", ["calibrate", "--store", "store", "--zeta", "2.0",
                   "--out-model", "model.json"]),
    ("evaluate", ["evaluate", "--store", "store", "--method", "bds",
                  "--hyperparam", "1.0", "--folds", "2", "--out-csv", "eval.csv"]),
    ("sweep", ["sweep", "--store", "store", "--method", "margin",
               "--hyperparam-list", "0.4,0.8", "--similarity", "correlation",
               "--folds", "2", "--out-csv", "sweep.csv"]),
    ("report", ["report", "--csv", "sweep.csv", "--x", "mean_stop_s",
                "--y", "accuracy", "--out-svg", "plot.svg"]),
]

CLI_OUTPUTS = {
    "codes": ["codes.txt"],
    "simulate": ["store/manifest.json", "store/eeg.f32", "store/codebook.txt"],
    "calibrate": ["model.json"],
    "evaluate": ["eval.csv"],
    "sweep": ["sweep.csv"],
    "report": ["plot.svg"],
}


def test_criterion_12_cli_determinism(tmp_path):
    sim_config = {"n_classes": 6, "n_channels": 2, "trials_per_class": 3,
                  "sigma": 1.5, "seed": 17}
    # The subprocesses run from tmp_path, where a relative PYTHONPATH entry
    # such as ``src`` does not resolve; put the directory holding the package
    # this process imported first, so the CLI runs the code under test.
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(dynastop.__file__)))
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, inherited])))
    captured = {}
    for run_name in ("run_a", "run_b"):
        workdir = tmp_path / run_name
        workdir.mkdir()
        (workdir / "sim.json").write_text(json.dumps(sim_config))
        for command, args in CLI_SCRIPT:
            proc = subprocess.run(
                [sys.executable, "-m", "dynastop", *args],
                cwd=workdir,
                env=env,
                capture_output=True,
                timeout=240,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            key = (run_name, command)
            captured[key] = {"stdout": proc.stdout}
            for rel in CLI_OUTPUTS[command]:
                captured[key][rel] = (workdir / rel).read_bytes()
    for command, _ in CLI_SCRIPT:
        a = captured[("run_a", command)]
        b = captured[("run_b", command)]
        assert a.keys() == b.keys()
        for key in a:
            assert a[key] == b[key], f"{command}: {key} differs between runs"
    report(12, f"{len(CLI_SCRIPT)} subcommands byte-identical across two runs")
