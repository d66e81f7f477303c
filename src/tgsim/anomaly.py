"""Streaming anomaly flags on top of a trained similarity checkpoint.

score_stream scores every window of a recorded signal with one
`model.score_windows` call, which embeds each snapshot once however many
windows hold it and splits a long stream into one contiguous part per
worker of the fork pool (`_pool`, one BLAS thread per worker); the scores
are bitwise those of one serial call under one BLAS thread.
detect_with_thresholds turns the score series into discrete events under
one of two policies. The model itself is unchanged here, so detection
quality is exactly similarity quality.

Windows overlap: a snapshot sits at the end of one window and in the
history of the L - 1 windows after it, so one corrupted snapshot pulls
down L consecutive scores. In either mode only the first of them fires;
the next L - 1 windows (the `index_offset` that places score_stream's
entries on snapshots) are muted echoes, listed on the event that owns
them and, in zscore mode, kept out of the trailing statistics.
"""

import csv
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .data import TemporalGraphSignal, write_json
from .errors import ConfigError, ContractError
from .model import Checkpoint, score_windows

ALARM_MODES = ("fixed", "zscore")

# zscore mode's floor on the trailing std. Saturated models score every
# window within 1e-12 of 1.0 and, unfloored, fire on about one window in
# 18 of that round-off; the acceptance streams' trails have std 0.017 and
# up, and their planted dips lie 3 x 0.098 or more below the trailing mean
MIN_STD = 1e-4


@dataclass(frozen=True)
class AlarmPolicy:
    """When to fire: a flat threshold, or a dip below the trailing mean.

    Fixed mode fires below `threshold` from the first score on.  In
    zscore mode the trail holds the last `window` accepted scores; fired
    scores never enter it, so one deep dip cannot hide the next.  In both
    modes the `index_offset` windows after each fire (L - 1 for
    score_stream output) are muted echoes: they raise no event and stay
    out of the trail too.  See detect_with_thresholds.

    The threshold uses max(trailing std, MIN_STD), so a trail of
    near-equal scores (a saturated model's round-off) cannot set a
    threshold within round-off of its mean.  Events report the trail's own
    std; their rule names the floor when it was used.
    """

    mode: str = "fixed"
    threshold: float = 0.7
    window: int = 20
    multiplier: float = 3.0

    def __post_init__(self):
        if self.mode not in ALARM_MODES:
            raise ConfigError(f"unknown alarm mode {self.mode!r}, expected one of {ALARM_MODES}")
        for name in ("threshold", "multiplier"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{name} must be a number, got {value!r}")
        if not (0.0 < self.threshold < 1.0):
            raise ConfigError(f"threshold must lie strictly inside (0, 1), got {self.threshold!r}")
        if not isinstance(self.window, int) or isinstance(self.window, bool) or self.window < 3:
            raise ConfigError(f"window must be an integer >= 3, got {self.window!r}")
        if not (0 < self.multiplier < math.inf):
            raise ConfigError(f"multiplier must be positive and finite, got {self.multiplier!r}")


@dataclass(frozen=True)
class AnomalyEvent:
    """One fired window, at absolute index `index`.

    `echo_indices` lists the absolute indices of the windows muted after
    it; it is empty for index_offset 0 and for a fire on the last score.
    A second real anomaly within L - 1 snapshots of this one is listed
    here, not raised as an event of its own.  The trailing statistics are
    None in fixed mode.
    """

    index: int
    score: float
    rule: str
    trailing_mean: float | None = None
    trailing_std: float | None = None
    echo_indices: tuple[int, ...] = ()


def score_stream(signal: TemporalGraphSignal, checkpoint: Checkpoint) -> list[float]:
    """Similarity score for every window of the checkpoint's length L, one per end index.

    The first score covers snapshots [0, L); the last ends at the final
    snapshot.  Entry i corresponds to the window ending at snapshot
    i + L - 1.

    The windows are scored by one score_windows call, which splits a long
    stream across the fork pool.
    """
    length = checkpoint.provenance.recipe.bucket_length
    if signal.num_snapshots < length:
        raise ContractError(
            f"signal has {signal.num_snapshots} snapshots, need at least {length}"
        )
    return score_windows(signal, checkpoint, range(signal.num_snapshots - length + 1)).tolist()


def detect_with_thresholds(scores, policy: AlarmPolicy, index_offset: int = 0):
    """Run a policy over a score series; returns (events, threshold per index).

    Thresholds are None where the policy is still warming up (the first
    `window` scores in zscore mode; fixed mode has no warm-up).  Indices in
    the events are shifted by `index_offset` so callers can report absolute
    snapshot positions.  For the output of score_stream, whose entry i ends
    at snapshot i + L - 1, pass index_offset = L - 1.

    That same L - 1 is the number of later windows whose history still
    holds the end snapshot of a fired window, so it is also the mute
    length in both modes: after a fire, the next `index_offset` windows
    raise no event, whatever their score, and their scores do not enter
    the trail.  Their thresholds are still reported, and their absolute
    indices go to the firing event's `echo_indices`.  The trade-off: a
    second real anomaly within L - 1 snapshots of a fired one shows up in
    that event's echo_indices, not as its own event.  With index_offset 0
    nothing is muted.

    The threshold is `threshold` in fixed mode and trailing mean -
    multiplier * max(trailing std, MIN_STD) in zscore mode.
    """
    scores = [float(s) for s in scores]
    for i, s in enumerate(scores):
        if not math.isfinite(s):
            raise ContractError(f"score at position {i} is not finite: {s!r}")
    fixed = policy.mode == "fixed"
    if not fixed and len(scores) < policy.window:
        raise ContractError(
            f"zscore mode needs at least {policy.window} scores, got {len(scores)}"
        )
    events: list[AnomalyEvent] = []
    thresholds: list[float | None] = []
    trail: deque = deque(maxlen=policy.window)
    muted_through = -1
    for i, s in enumerate(scores):
        if fixed:
            mean = std = None
            bound = policy.threshold
        elif len(trail) < policy.window:
            # warm-up: everything is accepted, nothing can fire yet
            thresholds.append(None)
            trail.append(s)
            continue
        else:
            # np.mean and np.std's own arithmetic, bit for bit, without
            # their dispatch (8.5 against 30 us a window)
            values = np.array(trail)
            mean = float(np.add.reduce(values)) / policy.window
            deviation = values - mean
            std = math.sqrt(float(np.add.reduce(deviation * deviation)) / policy.window)
            bound = mean - policy.multiplier * max(std, MIN_STD)
        thresholds.append(bound)
        if i <= muted_through:
            continue
        if s < bound:
            muted_through = min(i + index_offset, len(scores) - 1)
            if fixed:
                rule = f"score {s:.6g} < threshold {bound:.6g}"
            else:
                spread = f"std {std:.6g}"
                if std < MIN_STD:
                    spread = f"min_std {MIN_STD:g} (std {std:.6g})"
                rule = (f"score {s:.6g} < trailing mean {mean:.6g}"
                        f" - {policy.multiplier:g} * {spread}")
            events.append(AnomalyEvent(
                index=index_offset + i,
                score=s,
                rule=rule,
                trailing_mean=mean,
                trailing_std=std,
                echo_indices=tuple(range(index_offset + i + 1, index_offset + muted_through + 1)),
            ))
        else:
            trail.append(s)
    return events, thresholds


def write_events(events, path) -> None:
    doc = [
        {
            "index": e.index,
            "score": e.score,
            "rule": e.rule,
            "trailing_mean": e.trailing_mean,
            "trailing_std": e.trailing_std,
            "echo_indices": list(e.echo_indices),
        }
        for e in events
    ]
    write_json(doc, path)


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
