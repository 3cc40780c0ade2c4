"""Template decoding on simulated recordings: fit the joint spatial filter and
event response, check that both match what the simulator planted, and trace
classification accuracy as the decision window grows.

Run:  python3 demos/02_decoder_templates.py
"""

import numpy as np

from dynastop import SimConfig, fit_cca, make_dataset, resolve_config
from dynastop.decoding import score_traces
from dynastop.evaluation import window_grid

# 36 classes, 8 channels, roughly one-cycle trials at 120 Hz. sigma is the
# per-channel noise standard deviation; the planted source has unit scale.
cfg = SimConfig(n_classes=36, n_channels=8, sigma=2.0, seed=11)
sim = resolve_config(cfg)
train = make_dataset(cfg, 5, resolved=sim)
print(f"training set: {len(train)} trials of {sim.n_samples} samples")

model = fit_cca(train, sim.structures)
w_corr = abs(np.corrcoef(model.spatial_filter, sim.spatial_pattern)[0, 1])
r_corr = abs(np.corrcoef(model.response, sim.response)[0, 1])
print(f"canonical correlation on training data: {model.canonical_correlation:.3f}")
print(f"recovered spatial filter |corr| vs planted pattern:  {w_corr:.3f}")
print(f"recovered event response |corr| vs planted response: {r_corr:.3f}")

# Fresh trials from the same model, classified at growing window lengths with
# both similarity scores.
test_cfg = SimConfig(n_classes=36, n_channels=8, sigma=2.0, seed=99)
test = make_dataset(test_cfg, 2, resolved=sim)
grid = window_grid(100, 1.05, cfg.fs)
labels = np.array([trial.label for trial in test])
accuracy = {similarity: np.mean(np.argmax(score_traces(model, test, grid, similarity), axis=2)
                                == labels[:, None], axis=0)
            for similarity in ("inner", "correlation")}
print(f"\n window | inner-product acc | correlation acc   ({len(test)} trials)")
for w_idx, window in enumerate(grid):
    print(f"  {window / cfg.fs:4.2f} s |       {accuracy['inner'][w_idx]:5.3f}       "
          f"|      {accuracy['correlation'][w_idx]:5.3f}")
