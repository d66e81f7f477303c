"""Streaming anomaly flags on top of a trained similarity checkpoint.

score_stream scores every window of a recorded signal in one batched call
of `model.score_windows`, which embeds each snapshot once however many
windows hold it; detect turns the score series into discrete events under
one of two policies. The model itself is unchanged here, so detection
quality is exactly similarity quality.
"""

import csv
import json
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .data import TemporalGraphSignal
from .errors import ConfigError, ContractError
from .model import Checkpoint, score_windows

ALARM_MODES = ("fixed", "zscore")


def _canonical_mode(mode: str) -> str:
    flat = mode.lower().replace("-", "").replace("_", "") if isinstance(mode, str) else mode
    if flat == "zscore":
        return "zscore"
    if flat == "fixed":
        return "fixed"
    raise ConfigError(f"unknown alarm mode {mode!r}, expected one of {ALARM_MODES}")


@dataclass(frozen=True)
class AlarmPolicy:
    """When to fire: a flat threshold, or a dip below the trailing mean.

    In zscore mode the trail holds the last `window` accepted scores;
    fired scores never enter it, so one deep dip cannot hide the next.
    """

    mode: str = "fixed"
    threshold: float = 0.7
    window: int = 20
    multiplier: float = 3.0

    def __post_init__(self):
        object.__setattr__(self, "mode", _canonical_mode(self.mode))
        if not (0.0 < self.threshold < 1.0):
            raise ConfigError(f"threshold must lie strictly inside (0, 1), got {self.threshold!r}")
        if not isinstance(self.window, int) or isinstance(self.window, bool) or self.window < 3:
            raise ConfigError(f"window must be an integer >= 3, got {self.window!r}")
        if not (self.multiplier > 0):
            raise ConfigError(f"multiplier must be positive, got {self.multiplier!r}")


@dataclass(frozen=True)
class AnomalyEvent:
    index: int
    score: float
    rule: str
    trailing_mean: float | None = None
    trailing_std: float | None = None


def score_stream(signal: TemporalGraphSignal, checkpoint: Checkpoint, length: int) -> list[float]:
    """Similarity score for every window of `length` snapshots, one per end index.

    The first score covers snapshots [0, length); the last ends at the final
    snapshot.  Entry i corresponds to the window ending at snapshot
    i + length - 1.
    """
    if not isinstance(length, int) or isinstance(length, bool) or length < 2:
        raise ContractError(f"window length must be an integer >= 2, got {length!r}")
    if signal.num_snapshots < length:
        raise ContractError(
            f"signal has {signal.num_snapshots} snapshots, need at least {length}"
        )
    starts = range(signal.num_snapshots - length + 1)
    return score_windows(signal, checkpoint, starts, length).tolist()


def detect_with_thresholds(scores, policy: AlarmPolicy, index_offset: int = 0):
    """Run a policy over a score series; returns (events, threshold per index).

    Thresholds are None where the policy is still warming up.  Indices in
    the events are shifted by `index_offset` so callers can report absolute
    snapshot positions.
    """
    scores = [float(s) for s in scores]
    for i, s in enumerate(scores):
        if not math.isfinite(s):
            raise ContractError(f"score at position {i} is not finite: {s!r}")
    events: list[AnomalyEvent] = []
    thresholds: list[float | None] = []
    if policy.mode == "fixed":
        for i, s in enumerate(scores):
            thresholds.append(policy.threshold)
            if s < policy.threshold:
                events.append(AnomalyEvent(
                    index=index_offset + i,
                    score=s,
                    rule=f"score {s:.6g} < threshold {policy.threshold:.6g}",
                ))
        return events, thresholds

    if len(scores) < policy.window:
        raise ContractError(
            f"zscore mode needs at least {policy.window} scores, got {len(scores)}"
        )
    trail: deque = deque(maxlen=policy.window)
    for i, s in enumerate(scores):
        if len(trail) < policy.window:
            # warm-up: everything is accepted, nothing can fire yet
            thresholds.append(None)
            trail.append(s)
            continue
        mean = float(np.mean(trail))
        std = float(np.std(trail))
        bound = mean - policy.multiplier * std
        thresholds.append(bound)
        if s < bound:
            events.append(AnomalyEvent(
                index=index_offset + i,
                score=s,
                rule=f"score {s:.6g} < trailing mean {mean:.6g} - {policy.multiplier:g} * std {std:.6g}",
                trailing_mean=mean,
                trailing_std=std,
            ))
        else:
            trail.append(s)
    return events, thresholds


def detect(scores, policy: AlarmPolicy, index_offset: int = 0) -> list[AnomalyEvent]:
    events, _ = detect_with_thresholds(scores, policy, index_offset)
    return events


def write_events(events, path) -> None:
    doc = [
        {
            "index": e.index,
            "score": e.score,
            "rule": e.rule,
            "trailing_mean": e.trailing_mean,
            "trailing_std": e.trailing_std,
        }
        for e in events
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_scores_csv(scores, thresholds, path, index_offset: int = 0) -> None:
    """index, score, threshold rows; threshold is blank during warm-up."""
    scores = list(scores)
    thresholds = list(thresholds)
    if len(scores) != len(thresholds):
        raise ContractError(f"{len(scores)} scores vs {len(thresholds)} thresholds")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["index", "score", "threshold"])
        for i, (score, bound) in enumerate(zip(scores, thresholds)):
            writer.writerow([index_offset + i, score, "" if bound is None else bound])
