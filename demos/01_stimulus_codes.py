"""Stimulus codes from scratch: m-sequences, the Gold family, flash
modulation, and picking a low-interference subset for a 6x6 speller.

Run:  python3 demos/01_stimulus_codes.py
"""

import numpy as np

from dynastop import (
    make_gold_codes,
    make_m_sequence,
    modulate,
    periodic_crosscorrelation,
    predict_templates,
    select_subset,
    structure_matrices,
)
from dynastop.simulate import default_response

# A maximal-length sequence from the degree-6 register x^6 + x + 1: 63 bits,
# 32 of them ones, and every cyclic shift distinct.
mls = make_m_sequence(0b1000011)
print(f"m-sequence: {mls.size} bits, {mls.sum()} ones")
print(" ", "".join(map(str, mls.tolist())))

# The Gold family built from the preferred pair (x^6+x+1, x^6+x^5+x^2+x+1):
# 65 codes whose pairwise periodic cross-correlations take only three values.
gold = make_gold_codes()
print(f"\nGold family: {gold.shape[0]} codes x {gold.shape[1]} bits")
values = set()
for j in range(1, 6):
    values |= set(periodic_crosscorrelation(gold[0], gold[j]).tolist())
print(f"cross-correlation values against code 0 (first five codes): {sorted(values)}")

# Modulation doubles the rate and xors a bit-clock, leaving only one- and
# two-bit flashes (8.33 ms and 16.67 ms at 120 Hz). Each run of ones is one
# flash; its length in bits tells a short from a long one.
modulated = modulate(gold)
edges = np.diff(modulated[7].astype(np.int8), prepend=0, append=0)
runs = np.flatnonzero(edges == -1) - np.flatnonzero(edges == 1)
print(f"\nmodulated code 7: {modulated.shape[1]} bits, {runs.size} flashes "
      f"({np.count_nonzero(runs == 1)} short, {np.count_nonzero(runs == 2)} long)")

# Subset selection: predict a template response per code with the canonical
# event response, then greedily drop codes from the worst-correlated pairs.
response = default_response(36)
structures = structure_matrices(modulated, 120, 120, 126, 36)
templates = predict_templates(response, structures)
kept = select_subset(modulated, templates, 36)
corr = np.abs(np.corrcoef(templates))
np.fill_diagonal(corr, 0)
sub = corr[np.ix_(kept, kept)]
print(f"\nkept {kept.size} of {modulated.shape[0]} codes for the speller grid")
print(f"max template correlation: all 65 codes {corr.max():.3f} -> subset {sub.max():.3f}")
