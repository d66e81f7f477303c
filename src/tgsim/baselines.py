"""Comparison scorers: the uniform-random guess and per-node trend regression.

Both guess a bucket's similarity in [0, 1] without looking at the graph,
which is exactly what makes them useful yardsticks for the learned model.
`baseline_report` is the one entry point: it scores labeled buckets with
either method and reports them in the same form as a model's folds.
"""

import numpy as np

from .errors import ContractError
from .training import FoldResult, MetricsReport

BASELINE_METHODS = ("random", "tsr")


def _tsr_score(window) -> float:
    """Mean trend score of the N x F series of one L x N x F window, L >= 3.

    Each series is min-max scaled over all L points (a constant series
    scales to zeros, which extrapolates perfectly), a least-squares line is
    fit through the first L - 1 scaled points, and its score is
    1 - |last - predicted|, clamped into [0, 1].  The scaling range includes
    the final point, so a candidate that stretches the range shifts the
    whole series; this mirrors how the method is defined, leak and all.
    """
    window = np.asarray(window, dtype=np.float64)
    size = window.shape[0]
    if size < 3:
        raise ContractError(f"trend regression needs buckets of length >= 3, got {size}")
    # one row per node and channel, in that order; time contiguous, so each
    # row reduces exactly as a lone series does
    series = np.ascontiguousarray(np.moveaxis(window, 0, -1))
    low = series.min(axis=-1, keepdims=True)
    span = series.max(axis=-1, keepdims=True) - low
    scaled = np.zeros_like(series)
    np.divide(series - low, span, out=scaled, where=span != 0.0)
    t = np.arange(size - 1, dtype=np.float64)
    v = scaled[..., :-1]
    t_mean = t.mean()
    v_mean = v.mean(axis=-1)
    slope = np.mean((t - t_mean) * (v - v_mean[..., None]), axis=-1) / np.mean((t - t_mean) ** 2)
    predicted = slope * (size - 1) + (v_mean - slope * t_mean)
    return float(np.mean(np.clip(1.0 - np.abs(scaled[..., -1] - predicted), 0.0, 1.0)))


def baseline_report(labeled, method: str, seed: int = 0, extra: dict | None = None) -> MetricsReport:
    """Run a baseline over labeled buckets and wrap it like a model report.

    "random" guesses one uniform(0, 1) draw of `seed`'s stream per bucket,
    in bucket order; "tsr" scores each bucket's window, corrupted candidate
    included, with the trend regression of `_tsr_score`.  Baselines do not
    train, so everything lands in a single fold.  `extra` entries are
    merged into the config echo (protocol metadata, mostly).  `seed` must be
    a nonnegative integer, as `NoiseSpec` requires.
    """
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ContractError(f"seed must be a nonnegative integer, got {seed!r}")
    labeled = list(labeled)
    if not labeled:
        raise ContractError("need at least one bucket")
    if method == "random":
        scores = np.random.default_rng(seed).random(len(labeled))
    elif method == "tsr":
        scores = [_tsr_score(item.snapshots) for item in labeled]
    else:
        raise ContractError(
            f"unknown baseline method {method!r}, expected one of {BASELINE_METHODS}"
        )
    fold = FoldResult(scores, [item.label for item in labeled],
                      [item.bucket.start for item in labeled])
    return MetricsReport(dataset=labeled[0].bucket.signal.name, model=method, folds=(fold,),
                         config={"method": method, "seed": seed, **(extra or {})})
