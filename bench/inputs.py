"""Synthetic inputs shaped like three published temporal-graph datasets.

Every generator takes the run's seed and nothing else, so one seed always
gives the same inputs. The shapes follow the published tables of PyTorch
Geometric Temporal (Rozemberczki et al., arXiv:2104.07788); the values are
made up here and nothing is downloaded. This module does not import `tgsim`:
the arrays it returns are what the benchmark later compares the program's
outputs against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

BUCKET_LENGTH = 10

CHICKENPOX_NODES, CHICKENPOX_PAIRS, CHICKENPOX_SNAPSHOTS = 20, 51, 520
WIKIMATH_NODES, WIKIMATH_EDGES = 1068, 27079
METRALA_NODES, METRALA_EDGES, METRALA_SNAPSHOTS = 207, 1722, 3224
METRALA_DROPOUTS = 8


@dataclass(frozen=True)
class Corpus:
    """One generated graph signal: directed edges, weights and S x N x F features."""

    name: str
    edges: list
    weights: np.ndarray | None
    features: np.ndarray
    frequency: str

    @property
    def num_nodes(self) -> int:
        return self.features.shape[1]


def derived_seed(seed: int, stream: int) -> int:
    """A nonnegative 32-bit seed for one named use of the run's seed."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def _tree_plus_chords(n: int, pairs: int, rng) -> list:
    """A connected undirected graph with `pairs` pairs, as both directed arcs."""
    order = rng.permutation(n)
    chosen = {tuple(sorted((int(order[i]), int(order[rng.integers(0, i)])))) for i in range(1, n)}
    while len(chosen) < pairs:
        a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
        chosen.add((min(a, b), max(a, b)))
    return [arc for a, b in sorted(chosen) for arc in ((a, b), (b, a))]


def _quiet_activity(steps: int, n: int, rng, level, period: float, swing: float,
                    jitter: float) -> np.ndarray:
    """steps x n: a per-node level, a seasonal wave and mean-reverting jitter."""
    phase = rng.uniform(0.0, 2.0 * np.pi, n)
    wave = swing * np.sin(2.0 * np.pi * np.arange(steps)[:, None] / period + phase)
    noise = np.empty((steps, n))
    drift = np.zeros(n)
    for t in range(steps):
        drift = 0.4 * drift + rng.normal(0.0, jitter, n)
        noise[t] = drift
    return level + wave + noise


def _early_surges(values: np.ndarray, rng, low: float, high: float) -> None:
    """One surge per node inside the first L-1 snapshots.

    Those rows sit in histories only, never in a candidate, and they stretch
    every node's range far above its quiet band, so a corrupted candidate row
    redrawn within that range stands out.
    """
    n = values.shape[1]
    rows = rng.integers(0, BUCKET_LENGTH - 1, n)
    values[rows, np.arange(n)] = rng.uniform(low, high, n)


def chickenpox_corpus(seed: int) -> Corpus:
    """20 counties, 51 undirected borders (102 arcs), 520 weekly case counts."""
    rng = np.random.default_rng([seed, 1])
    edges = _tree_plus_chords(CHICKENPOX_NODES, CHICKENPOX_PAIRS, rng)
    level = rng.uniform(0.08, 0.14, CHICKENPOX_NODES)
    values = _quiet_activity(CHICKENPOX_SNAPSHOTS, CHICKENPOX_NODES, rng, level,
                             period=52.0, swing=0.01, jitter=0.005)
    _early_surges(values, rng, 0.85, 1.0)
    return Corpus("chickenpox", edges, None, values[:, :, None], "weekly")


def wikimath_corpus(seed: int, snapshots: int) -> Corpus:
    """1068 pages, 27079 weighted links, `snapshots` days of visit counts."""
    rng = np.random.default_rng([seed, 2])
    n = WIKIMATH_NODES
    chosen: set = set()
    while len(chosen) < WIKIMATH_EDGES:
        src = rng.integers(0, n, 2 * WIKIMATH_EDGES)
        dst = rng.integers(0, n, 2 * WIKIMATH_EDGES)
        for s, d in zip(src.tolist(), dst.tolist()):
            if s != d:
                chosen.add((s, d))
                if len(chosen) == WIKIMATH_EDGES:
                    break
    edges = sorted(chosen)
    weights = rng.integers(1, 6, len(edges)).astype(np.float64)
    level = rng.uniform(0.2, 0.4, n)
    values = _quiet_activity(snapshots, n, rng, level, period=7.0, swing=0.02, jitter=0.01)
    _early_surges(values, rng, 2.0, 3.0)
    return Corpus("wikimath", edges, weights, values[:, :, None], "daily")


def metrala_corpus(seed: int) -> tuple[Corpus, list]:
    """207 road sensors, 1722 weighted arcs, 3224 five-minute speed readings.

    Arcs join each sensor to its nearest neighbours on a random map and
    carry a Gaussian distance kernel. Speeds sit near a per-sensor free-flow
    level with two daily rush-hour dips. A few snapshots after the first
    window drop a share of the sensors to 0 (a dead-sensor reading), which
    gives the detector something to flag. Returns the corpus and those
    snapshot indices.
    """
    rng = np.random.default_rng([seed, 3])
    n, s = METRALA_NODES, METRALA_SNAPSHOTS
    points = rng.uniform(0.0, 1.0, (n, 2))
    dist = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    flat = np.argsort(dist, axis=None, kind="stable")[:METRALA_EDGES]
    src, dst = np.unravel_index(flat, dist.shape)
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    chosen = dist[src, dst]
    weights = np.exp(-((chosen / chosen.std()) ** 2))
    edges = [(int(a), int(b)) for a, b in zip(src, dst)]

    free_flow = rng.uniform(55.0, 70.0, n)
    steps_per_day = 288.0
    clock = (np.arange(s)[:, None] % steps_per_day) / steps_per_day
    depth_am = rng.uniform(8.0, 25.0, n)
    depth_pm = rng.uniform(8.0, 25.0, n)
    rush = (depth_am * np.exp(-(((clock - 0.33) / 0.04) ** 2))
            + depth_pm * np.exp(-(((clock - 0.72) / 0.05) ** 2)))
    values = _quiet_activity(s, n, rng, free_flow, period=steps_per_day, swing=1.0,
                             jitter=1.0) - rush
    dropouts = sorted(int(t) for t in rng.choice(
        np.arange(4 * BUCKET_LENGTH, s), size=METRALA_DROPOUTS, replace=False))
    for t in dropouts:
        dead = rng.choice(n, size=int(rng.integers(n // 3, 2 * n // 3)), replace=False)
        values[t, dead] = 0.0
    return Corpus("metrala", edges, weights, values[:, :, None], "5min"), dropouts


def write_metrala_raw(corpus: Corpus, path) -> None:
    """The published metrala JSON layout: 'edges', 'weights' and 'X' (S x N).

    Written one row at a time so that building the file never holds the
    whole document as Python objects; every float is written with `repr`
    precision, so reading it back gives the same float64 values.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"edges":')
        fh.write(json.dumps([list(e) for e in corpus.edges], separators=(",", ":")))
        fh.write(',"weights":')
        fh.write(json.dumps(corpus.weights.tolist(), separators=(",", ":")))
        fh.write(',"X":[')
        for t, row in enumerate(corpus.features[:, :, 0]):
            if t:
                fh.write(",")
            fh.write(json.dumps(row.tolist(), separators=(",", ":")))
        fh.write("]}")
