"""Windowing a temporal graph signal and labeling corrupted copies.

Builds a small ring-graph signal, cuts it into sliding windows, then
redraws a random subset of nodes in each window's final snapshot.  The
label is the fraction of nodes left untouched.
"""

from collections import Counter

import numpy as np

from tgsim.data import TemporalGraphSignal, node_bounds
from tgsim.noise import NoiseSpec, bucketize, inject_noise, write_labeled_buckets, load_labeled_buckets

n, s = 8, 60
rng = np.random.default_rng(42)
edges = [(i, (i + 1) % n) for i in range(n)] + [((i + 1) % n, i) for i in range(n)]
t = np.arange(s)[:, None]
feats = (np.sin(2 * np.pi * (t / 12 + np.arange(n)[None, :] / n)) + rng.normal(0, 0.05, (s, n)))[:, :, None]
signal = TemporalGraphSignal(name="ring", num_nodes=n, edges=tuple(edges), weights=None, features=feats)

buckets = bucketize(signal, 6)
print(f"{signal.num_snapshots} snapshots -> {len(buckets)} windows of length 6 (stride 1)")

bounds = node_bounds(signal)
spec = NoiseSpec(corrupt_probability=0.5, seed=7)
labeled = inject_noise(buckets, bounds, spec)

hit = [lb for lb in labeled if lb.perturbed]
print(f"{len(hit)}/{len(labeled)} windows got corrupted (coin with p=0.5)")
print("labels seen:", sorted(Counter(round(lb.label, 3) for lb in labeled).items()))

# Redrawn values always stay inside the per-node range seen across the
# whole signal, and only the final snapshot is ever touched.
example = next(lb for lb in labeled if len(lb.perturbed) >= 3)
print(f"\nwindow at t={example.bucket.start}: nodes {sorted(example.perturbed)} redrawn, "
      f"label {example.label:.3f}")
for node in sorted(example.perturbed):
    low, high = bounds.mins[node, 0], bounds.maxs[node, 0]
    value = example.candidate[node, 0]
    print(f"  node {node}: {example.bucket.candidate[node, 0]:+.3f} -> {value:+.3f} "
          f"(range [{low:+.3f}, {high:+.3f}])")

write_labeled_buckets(labeled, "ring_buckets.json", spec)
back, recorded = load_labeled_buckets("ring_buckets.json", signal)
assert all(a.label == b.label for a, b in zip(labeled, back))
assert recorded == spec
print("\nround-trip through ring_buckets.json preserved all labels and the noise spec")
