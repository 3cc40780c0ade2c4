"""The risk-minimizing stopping rule, inside out: calibrate the per-window
target/non-target score distributions, inspect how the decision boundary moves
with the false-positive/false-negative cost ratio, and watch single trials
stop early or run to the limit.

Run:  python3 demos/03_risk_stopping.py
"""

import numpy as np

from dynastop import SimConfig, calibrate, fit_cca, make_dataset, resolve_config, run_trial
from dynastop.evaluation import window_grid

cfg = SimConfig(n_classes=36, n_channels=8, sigma=2.0, seed=31)
sim = resolve_config(cfg)
trials = make_dataset(cfg, 8, resolved=sim)
train, test = trials[:216], trials[216:]

model = fit_cca(train, sim.structures)
grid = window_grid(100, 1.05, cfg.fs)
stopping = calibrate(model, train, grid, zeta=1.0)
print(f"calibration: alpha={stopping.alpha:.4f} sigma={stopping.sigma:.4f} "
      f"over {stopping.grid.size} decision windows")

# The two Gaussian score distributions drift apart as the window grows; the
# equal-cost boundary tracks their intersection region.
print("\n window |  target mean +- sd   | non-target mean +- sd |  boundary")
for params, eta in zip(stopping.windows, stopping.eta):
    mu1 = stopping.alpha * params.b1
    mu0 = stopping.alpha * params.b0
    print(f"  {params.window_samples / cfg.fs:4.2f} s | {mu1:8.2f} +- {params.s1:6.2f} "
          f"| {mu0:8.2f} +- {params.s0:6.2f}  | {eta:9.2f}")

# Stopping behaviour across cost ratios: expensive false positives push the
# boundary right, trading speed for precision.
print("\n  zeta  | mean stop | accuracy | forced")
for zeta in (1e-4, 1.0, 1e2, 1e6):
    tuned = stopping.with_cost_ratio(zeta)
    stops, hits, forced = [], 0, 0
    for trial in test:
        outcome = run_trial(tuned, model, trial)
        stops.append(grid[outcome.stopped_at] / cfg.fs)
        hits += int(outcome.label == trial.label)
        forced += int(outcome.forced)
    print(f" {zeta:6.0e} |  {np.mean(stops):5.2f} s  |  {hits / len(test):5.3f}   "
          f"| {forced}/{len(test)}")

# One trial in detail at equal costs.
outcome = run_trial(stopping, model, test[0])
status = "forced" if outcome.forced else "confident"
print(f"\nfirst test trial: true class {test[0].label}, emitted {outcome.label} "
      f"({status}) after {grid[outcome.stopped_at] / cfg.fs:.2f} s")
print(f"decision record: {'.' * outcome.stopped_at}S")
