"""Head-to-head stopping-policy comparison on one synthetic store: sweep each
method's hyperparameter under cross-validation, collect the results CSV, and
emit accuracy-versus-time and precision-versus-time charts.

Run:  python3 demos/04_policy_comparison.py
Outputs land in demos/out/.
"""

import os

from dynastop import ExperimentConfig, SimConfig, evaluate_store, make_dataset, resolve_config
from dynastop.store import write_results_csv
from dynastop.cli import main as cli_main

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

cfg = SimConfig(n_classes=36, n_channels=8, sigma=2.5, seed=57)
sim = resolve_config(cfg)
trials = make_dataset(cfg, 8, resolved=sim)
print(f"store: {len(trials)} trials, {cfg.n_classes} classes, {cfg.n_channels} channels")

sweeps = [
    ("bds", "inner", [1e-8, 1e-4, 1e-2, 1.0, 1e2, 1e4, 1e8]),
    ("margin", "inner", [0.1, 0.3, 0.5, 0.7, 0.9, 0.98]),
    ("margin", "correlation", [0.1, 0.3, 0.5, 0.7, 0.9, 0.98]),
    ("beta", "correlation", [0.1, 0.3, 0.5, 0.7, 0.9, 0.98]),
    ("fixed", "inner", [0.2, 0.4, 0.6, 0.8, 1.05]),
    ("static_targeted_accuracy", "inner", [0.1, 0.5, 0.9, 0.98]),
]

rows = []
for method, similarity, values in sweeps:
    config = ExperimentConfig(
        method=method, similarity=similarity, hyperparams=values, folds=5
    )
    batch = evaluate_store(trials, sim.structures, config, subject="sim")
    rows.extend(batch)
    span = f"{min(r.mean_stop_s for r in batch):.2f}-{max(r.mean_stop_s for r in batch):.2f}s"
    accs = f"{min(r.accuracy for r in batch):.2f}-{max(r.accuracy for r in batch):.2f}"
    print(f"  {method:>24s}/{similarity:<11s} stop {span:>12s}  accuracy {accs}")

csv_path = os.path.join(OUT, "comparison.csv")
write_results_csv(csv_path, rows)
print(f"\nwrote {len(rows)} rows to {csv_path}")

for y in ("accuracy", "precision"):
    svg_path = os.path.join(OUT, f"{y}_vs_time.svg")
    cli_main(["report", "--csv", csv_path, "--x", "mean_stop_s", "--y", y,
              "--out-svg", svg_path])
