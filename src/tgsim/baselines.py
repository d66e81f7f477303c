"""Comparison scorers: the uniform-random guess and per-node trend regression.

Both produce a bucket-level similarity guess in [0, 1] without looking at
the graph, which is exactly what makes them useful yardsticks for the
learned model.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .training import MetricsReport, fold_result

BASELINE_METHODS = ("random", "tsr")


@dataclass(frozen=True)
class BaselinePrediction:
    method: str
    score: float
    start: int

    def __post_init__(self):
        if self.method not in BASELINE_METHODS:
            raise ContractError(
                f"unknown baseline method {self.method!r}, expected one of {BASELINE_METHODS}"
            )
        if not math.isfinite(self.score) or not (0.0 <= self.score <= 1.0):
            raise ContractError(f"baseline score must lie in [0, 1], got {self.score!r}")


def _start(bucket) -> int:
    return bucket.bucket.start if hasattr(bucket, "bucket") else bucket.start


def random_baseline(buckets, seed: int) -> list[BaselinePrediction]:
    """One independent uniform(0, 1) draw per bucket, in bucket order."""
    rng = np.random.default_rng(seed)
    return [
        BaselinePrediction(method="random", score=float(rng.random()), start=_start(b))
        for b in buckets
    ]


def _fit_lines(t, v):
    """Least-squares slope and intercept of every row of v (..., T) against t (T,)."""
    t_mean = t.mean()
    v_mean = v.mean(axis=-1)
    variance = np.mean((t - t_mean) ** 2)
    if variance == 0.0:
        raise ContractError("cannot fit a line when every time is equal")
    slope = np.mean((t - t_mean) * (v - v_mean[..., None]), axis=-1) / variance
    return slope, v_mean - slope * t_mean


def _extrapolation_scores(series):
    """`extrapolation_score` of every row of series (..., T), T >= 3."""
    size = series.shape[-1]
    slope, intercept = _fit_lines(np.arange(size - 1, dtype=np.float64), series[..., :-1])
    predicted = slope * (size - 1) + intercept
    return np.clip(1.0 - np.abs(series[..., -1] - predicted), 0.0, 1.0)


def _tsr_scores(series):
    """`tsr_series_score` of every row of series (..., T), T >= 3."""
    low = series.min(axis=-1, keepdims=True)
    span = series.max(axis=-1, keepdims=True) - low
    scaled = np.zeros_like(series)
    np.divide(series - low, span, out=scaled, where=span != 0.0)
    return _extrapolation_scores(scaled)


def _flat_series(series) -> np.ndarray:
    s = np.asarray(series, dtype=np.float64)
    if s.ndim != 1 or s.size < 3:
        raise ContractError(f"need a flat series of at least 3 points, got shape {s.shape}")
    return s


def ols_fit(times, values) -> tuple[float, float]:
    """Closed-form least squares line through (times, values).

    Returns (slope, intercept).  Constant values are fine (slope 0);
    constant times are not (the slope is undefined).
    """
    t = np.asarray(times, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    if t.ndim != 1 or t.shape != v.shape:
        raise ContractError(f"times and values must be flat and equal-length, got {t.shape} and {v.shape}")
    if t.size < 2:
        raise ContractError(f"need at least 2 points to fit a line, got {t.size}")
    slope, intercept = _fit_lines(t, v)
    return float(slope), float(intercept)


def extrapolation_score(series) -> float:
    """Fit a line to all but the last point, score how well it lands.

    The series is taken as already scaled; the per-point score is
    1 - |last - predicted|, clamped into [0, 1].
    """
    return float(_extrapolation_scores(_flat_series(series)))


def tsr_series_score(series) -> float:
    """Extrapolation score after bucket-local min-max scaling of the series.

    A constant series scales to all zeros, which extrapolates perfectly.
    Note the scaling range includes the final point, so a candidate that
    stretches the range shifts the whole series; this mirrors how the
    method is defined, leak and all.
    """
    return float(_tsr_scores(_flat_series(series)))


def tsr_baseline(bucket) -> float:
    """Mean per-node-and-channel trend score for one bucket.

    All N x F series are scored at once, each along its own time row.
    """
    window = np.asarray(bucket.snapshots, dtype=np.float64)
    length = window.shape[0]
    if length < 3:
        raise ContractError(f"trend regression needs buckets of length >= 3, got {length}")
    # one row per node and channel, in that order; time contiguous, so each
    # row reduces exactly as a lone series does
    series = np.ascontiguousarray(np.moveaxis(window, 0, -1))
    return float(np.mean(_tsr_scores(series)))


def tsr_predictions(buckets) -> list[BaselinePrediction]:
    return [
        BaselinePrediction(method="tsr", score=tsr_baseline(b), start=_start(b))
        for b in buckets
    ]


def baseline_report(labeled, method: str, seed: int = 0, extra: dict | None = None) -> MetricsReport:
    """Run a baseline over labeled buckets and wrap it like a model report.

    Baselines do not train, so everything lands in a single fold.  `extra`
    entries are merged into the config echo (protocol metadata, mostly).
    """
    labeled = list(labeled)
    if not labeled:
        raise ContractError("need at least one bucket")
    if method == "random":
        predictions = random_baseline(labeled, seed)
    elif method == "tsr":
        predictions = tsr_predictions(labeled)
    else:
        raise ContractError(
            f"unknown baseline method {method!r}, expected one of {BASELINE_METHODS}"
        )
    fold = fold_result(
        [p.score for p in predictions],
        [b.label for b in labeled],
        [p.start for p in predictions],
    )
    config = {"method": method, "seed": seed}
    if extra:
        config.update(extra)
    return MetricsReport(
        dataset=labeled[0].bucket.signal.name,
        model=method,
        folds=(fold,),
        config=config,
    )
