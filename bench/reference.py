"""A numpy-only A3T-GCN scorer, kept apart from `tgsim.model`.

It recomputes the similarity score of each window from the published
formulas and the checkpoint's parameters, so the benchmark can check the
program's scores against values it did not produce. For a window of L
snapshots X_1..X_L (N x F, min-max normalized with the checkpoint's feature
bounds) on a graph with renormalized adjacency

    A_hat = D^-1/2 (A + I) D^-1/2        (Kipf & Welling, arXiv:1609.02907)

the score is built in four stages:

1. graph convolution (two GCN layers, the f(A, X) of T-GCN):
       E_t = ReLU(A_hat X_t W_in + b_in),   G_t = ReLU(A_hat E_t W_g)
2. T-GCN gated recurrence (Zhao et al., arXiv:1811.05320), H_0 = 0:
       u_t = sigmoid([G_t, H_{t-1}] W_u + b_u)
       r_t = sigmoid([G_t, H_{t-1}] W_r + b_r)
       c_t = tanh([G_t, r_t * H_{t-1}] W_c + b_c)
       H_t = u_t * H_{t-1} + (1 - u_t) * c_t
3. temporal attention (A3T-GCN, Bai et al., arXiv:2006.11583), per node:
       e_t = tanh(H_t W_a + b_a) v_a,   alpha = softmax_t(e),
       C = sum_t alpha_t * H_t
4. head: p = mean over nodes of C, then
       score = sigmoid(ReLU(ReLU(p W_1 + b_1) W_2 + b_2) W_3 + b_3)
   with widths d -> 32 -> 64 -> 1.

G_t depends on snapshot t alone, so it is computed once per snapshot and
shared by every window that holds it; the recurrence then runs over a block
of windows at once. Only float64 numpy is used.

TOLERANCE is the largest absolute difference between a program score and
the reference score that the benchmark accepts. Reassociating float64 sums
moves a score by about 1e-15; any change to the formulas moves it by far
more than 1e-6.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

TOLERANCE = 1e-6

# floats held by one block of recurrent states; bounds the scorer's memory
_BLOCK_FLOATS = 1 << 21


class ReferenceModel:
    """Parameters and feature bounds of one A3T-GCN checkpoint, as plain arrays."""

    def __init__(self, params: dict, mins, maxs):
        self.p = {name: np.asarray(value, dtype=np.float64) for name, value in params.items()}
        self.mins = None if mins is None else np.asarray(mins, dtype=np.float64)
        self.maxs = None if maxs is None else np.asarray(maxs, dtype=np.float64)

    @classmethod
    def from_file(cls, path) -> "ReferenceModel":
        """Read the checkpoint JSON directly: config, flat row-major params, bounds."""
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        if doc["config"]["cell_kind"] != "a3tgcn":
            raise ValueError(f"reference covers a3tgcn only, got {doc['config']['cell_kind']!r}")
        params = {
            name: np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
            for name, entry in doc["params"].items()
        }
        bounds = doc.get("feature_bounds")
        if bounds is None:
            return cls(params, None, None)
        return cls(params, bounds["mins"], bounds["maxs"])

    @classmethod
    def from_checkpoint(cls, checkpoint) -> "ReferenceModel":
        """Copy the arrays out of an in-memory checkpoint object."""
        if checkpoint.config.cell_kind != "a3tgcn":
            raise ValueError(f"reference covers a3tgcn only, got {checkpoint.config.cell_kind!r}")
        params = {name: tensor.value.copy() for name, tensor in checkpoint.params.items()}
        bounds = checkpoint.feature_bounds
        if bounds is None:
            return cls(params, None, None)
        return cls(params, bounds.mins, bounds.maxs)

    def normalize(self, features: np.ndarray) -> np.ndarray:
        """(x - min) / (max - min) per node and channel; 0 where max == min."""
        if self.mins is None:
            return np.asarray(features, dtype=np.float64)
        span = self.maxs - self.mins
        out = np.zeros(np.shape(features))
        np.divide(features - self.mins, span, out=out, where=span > 0)
        return out

    def scores(self, features: np.ndarray, a_hat: np.ndarray, starts, length: int,
               candidates=None) -> np.ndarray:
        """Score of every window [start, start + length) of an S x N x F feature array.

        `candidates`, when given, holds one N x F snapshot per window that
        replaces the window's last snapshot.
        """
        starts = np.asarray(list(starts), dtype=np.intp)
        conv = self._conv(self.normalize(features), a_hat)
        last = None if candidates is None else self._conv(self.normalize(candidates), a_hat)
        n, d = conv.shape[1], conv.shape[2]
        block = max(1, _BLOCK_FLOATS // (n * d * length))
        out = np.empty(len(starts))
        for at in range(0, len(starts), block):
            part = slice(at, at + block)
            out[part] = self._window_scores(
                conv, starts[part], length, None if last is None else last[part])
        return out

    def _conv(self, x: np.ndarray, a_hat: np.ndarray) -> np.ndarray:
        """G_t for every snapshot t of x, computed a block of snapshots at a time."""
        p = self.p
        conv = np.empty(x.shape[:2] + (p["w_g"].shape[1],))
        step = max(1, _BLOCK_FLOATS // (x.shape[1] * conv.shape[2]))
        for at in range(0, len(x), step):
            embedded = np.maximum(a_hat @ x[at:at + step] @ p["w_in"] + p["b_in"], 0.0)
            conv[at:at + step] = np.maximum(a_hat @ embedded @ p["w_g"], 0.0)
        return conv

    def _window_scores(self, conv, starts, length, last) -> np.ndarray:
        p = self.p
        b, n, d = len(starts), conv.shape[1], conv.shape[2]
        # gate weights split by the [G, H] halves they multiply
        w_ur = np.concatenate([p["w_u"], p["w_r"]], axis=1)
        b_ur = np.concatenate([p["b_u"], p["b_r"]], axis=1)
        h = np.zeros((b * n, d))
        states, energies = [], []
        for k in range(length):
            g = conv[starts + k] if last is None or k < length - 1 else last
            g = g.reshape(b * n, d)
            ur = _sigmoid(np.concatenate([g, h], axis=1) @ w_ur + b_ur)
            u, r = ur[:, :d], ur[:, d:]
            c = np.tanh(np.concatenate([g, r * h], axis=1) @ p["w_c"] + p["b_c"])
            h = u * h + (1.0 - u) * c
            states.append(h)
            energies.append((np.tanh(h @ p["w_a"] + p["b_a"]) @ p["v_a"])[:, 0])
        e = np.stack(energies)  # L x (B N)
        alpha = np.exp(e - e.max(axis=0))
        alpha /= alpha.sum(axis=0)
        context = sum(alpha[k][:, None] * states[k] for k in range(length))
        pooled = context.reshape(b, n, d).mean(axis=1)  # B x d
        hidden = np.maximum(pooled @ p["w_head1"] + p["b_head1"], 0.0)
        hidden = np.maximum(hidden @ p["w_head2"] + p["b_head2"], 0.0)
        return _sigmoid(hidden @ p["w_head3"] + p["b_head3"])[:, 0]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic function 1 / (1 + e^-x), written to stay finite for any x."""
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def renormalized_adjacency(num_nodes: int, edges, weights=None) -> np.ndarray:
    """D^-1/2 (A + I) D^-1/2 of the undirected reading of a weighted edge list.

    Each arc is folded into both directions by the larger weight, repeated
    arcs add up, and the identity fills in only a missing diagonal entry.
    """
    adj = np.zeros((num_nodes, num_nodes))
    pairs = np.asarray(list(edges), dtype=np.intp).reshape(-1, 2)
    w = np.ones(len(pairs)) if weights is None else np.asarray(weights, dtype=np.float64)
    np.add.at(adj, (pairs[:, 0], pairs[:, 1]), w)
    adj = np.maximum(adj, adj.T)
    diag = np.diagonal(adj).copy()
    np.fill_diagonal(adj, np.where(diag == 0.0, 1.0, diag))
    scale = 1.0 / np.sqrt(adj.sum(axis=1))
    return scale[:, None] * adj * scale[None, :]
