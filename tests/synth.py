"""Deterministic synthetic corpora shaped like the published benchmark tables.

Each generator produces quiet per-node activity around a resting level with a
brief recorded surge near the start of the window.  The surges pin the
per-node bounds far above the resting band, so values redrawn uniformly from
those bounds sit well away from anything a clean candidate row would show,
while the resting traces themselves stay featureless.  Surges live in the
first few snapshots only: with stride-1 bucketing those rows appear in
histories but never as a candidate row.
"""

import numpy as np

from tgsim.data import TemporalGraphSignal


def county_graph(n, pairs, rng):
    """A connected undirected graph as a directed edge list (both arcs)."""
    chosen = set()
    for i in range(1, n):
        chosen.add((int(rng.integers(0, i)), i))
    while len(chosen) < pairs:
        a, b = rng.integers(0, n, 2)
        if a == b:
            continue
        chosen.add((min(int(a), int(b)), max(int(a), int(b))))
    directed = []
    for a, b in sorted(chosen):
        directed += [(a, b), (b, a)]
    return tuple(directed)


def resting_traces(n, s, rng, base, innov, surge_window):
    """S x N x 1 features: mean-reverting jitter plus one early surge per node."""
    delta = np.zeros(n)
    rows = []
    for t in range(s):
        delta = 0.3 * delta + rng.normal(0, innov, n)
        rows.append(base + delta)
    feats = np.array(rows)
    for node in range(n):
        feats[int(rng.integers(0, surge_window)), node] = rng.uniform(0.9, 1.0)
    return feats[:, :, None]


def chickenpox_like(seed=93):
    rng = np.random.default_rng(seed)
    edges = county_graph(20, 51, rng)
    return TemporalGraphSignal(name="chickenpox", num_nodes=20, edges=edges,
                               weights=None, features=resting_traces(20, 520, rng, 0.10, 0.006, 9))


def diffusion_like(seed=24):
    """A chickenpox-shaped signal whose traces live on the graph (ROADMAP item 24).

    P is the graph's row-normalised A + I and S = P^3.  Each step's shock
    z_t = S e_t, e_t ~ N(0, I), is divided per node by its exact std, the
    root of diag(S S^T); then x_t = 0.5 x_{t-1} + sqrt(0.75) z_t has unit
    variance at every node, and the features are 0.5 + 0.1 x_t plus
    N(0, 0.005^2) noise.  Every node has about the same marginal, so only a
    node's neighbours give a swap or a lag away.  No surges.
    """
    n, s = 20, 520
    rng = np.random.default_rng(seed)
    edges = county_graph(n, 51, rng)
    p = np.eye(n)
    p[tuple(np.array(edges).T)] = 1.0
    p /= p.sum(axis=1, keepdims=True)
    smooth = np.linalg.matrix_power(p, 3)
    smooth /= np.sqrt((smooth * smooth).sum(axis=1, keepdims=True))
    x, rows = np.zeros(n), []
    for _ in range(s):
        x = 0.5 * x + np.sqrt(0.75) * (smooth @ rng.normal(size=n))
        rows.append(0.5 + 0.1 * x + rng.normal(0, 0.005, n))
    return TemporalGraphSignal(name="diffusion", num_nodes=n, edges=edges, weights=None,
                               features=np.array(rows)[:, :, None])


def pedalme_like_raw(seed=29):
    n, s = 15, 30
    rng = np.random.default_rng(seed)
    edges = [[i, j] for i in range(n) for j in range(n)]
    weights = [round(float(rng.uniform(0.2, 1.0)), 6) if i != j else 1.0
               for i in range(n) for j in range(n)]
    features = resting_traces(n, s, rng, 0.3, 0.01, 5)[:, :, 0]
    return {"edges": edges, "weights": weights,
            "X": [[round(float(v), 6) for v in row] for row in features]}


# (nodes, directed arcs) of the published datasets, from the tables of
# PyTorch Geometric Temporal (Rozemberczki et al., arXiv:2104.07788)
DATASET_SHAPES = {"chickenpox": (20, 102), "metrala": (207, 1722), "montevideobus": (678, 690),
                  "wikimath": (1068, 27079)}


def published_arcs(name, seed=0):
    """Distinct random arcs without self-loops at the named dataset's counts.

    Returns the sorted sources, their destinations and integer weights 1 to 5.
    """
    n, arcs = DATASET_SHAPES[name]
    rng = np.random.default_rng([seed, n])
    pick = np.sort(rng.choice(n * (n - 1), size=arcs, replace=False))
    src, rest = np.divmod(pick, n - 1)
    dst = rest + (rest >= src)
    return src, dst, rng.integers(1, 6, arcs).astype(np.float64)


def published_signal(name, snapshots=20, seed=0):
    """A one-channel signal on `published_arcs(name, seed)` with uniform features."""
    src, dst, weights = published_arcs(name, seed)
    n = DATASET_SHAPES[name][0]
    features = np.random.default_rng([seed, n, 1]).uniform(size=(snapshots, n, 1))
    return TemporalGraphSignal(name, n, tuple(zip(src.tolist(), dst.tolist())), weights, features)
