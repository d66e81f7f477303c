"""Command-line surface: reproducible experiment runs as flat-file artifacts.

Every command resolves its arguments, writes them as run_config.json next
to its outputs, and can be replayed from that file with --config, which
refuses stored arguments the command does not take.  Errors
leave a single JSON line on stderr; exit codes are 0 (ok), 1 (usage),
2 (bad data or config), 3 (training or evaluation failure).

`train` fits its folds, `eval` scores them and `detect` scores its
stream in the fork pool of `_pool`, one BLAS thread per worker.  Their
outputs are byte-identical to a serial run under one BLAS thread, and an
error raised in a worker reaches the caller as it would serially.
"""

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, _pool
from .adapters import DATASET_KINDS, adapt_dataset
from .anomaly import ALARM_MODES, AlarmPolicy, detect_with_thresholds, score_stream, write_events, write_scores_csv
from .baselines import BASELINE_METHODS, baseline_report
from .data import adjacency_operator, load_canonical, node_bounds, read_json, write_json
from .errors import ContractError, ParseError, TgsimError, TrainingError
from .model import CELL_KINDS, ModelConfig, load_checkpoint, save_checkpoint
from .noise import NoiseSpec, bucketize, inject_noise, load_labeled_buckets, write_labeled_buckets
from .training import (
    MetricsReport,
    TrainConfig,
    config_echo,
    evaluate,
    kfold_split,
    load_report,
    run_folds,
    write_report,
    write_report_csv,
)

OUTPUT_ROOT_VAR = "TGSIM_OUTPUT_ROOT"

# config-echo keys that must agree before reports may be merged
PROTOCOL_KEYS = ("bucket_length", "noise_probability", "noise_seed")


class UsageError(TgsimError):
    """Bad command line: unknown flag, missing argument, wrong subcommand."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    """A resolved invocation: enough to replay the command exactly."""

    command: str
    version: str
    arguments: dict


def save_run_config(out_dir, command: str, args: argparse.Namespace) -> RunConfig:
    arguments = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("func", "config")
    }
    config = RunConfig(command=command, version=__version__, arguments=arguments)
    write_json(asdict(config), Path(out_dir) / "run_config.json")
    return config


def load_run_config(path) -> RunConfig:
    doc = read_json(path)
    try:
        return RunConfig(
            command=doc["command"], version=doc["version"], arguments=dict(doc["arguments"]),
        )
    except (KeyError, TypeError) as exc:
        raise ParseError(f"{path}: malformed run config ({exc})") from None


def _resolve_out_dir(args, command: str) -> Path:
    chosen = args.out_dir
    if chosen is None:
        root = os.environ.get(OUTPUT_ROOT_VAR, "tgsim-runs")
        chosen = str(Path(root) / command)
    out_dir = Path(chosen)
    out_dir.mkdir(parents=True, exist_ok=True)
    args.out_dir = str(out_dir)
    return out_dir


def _noise_metadata(spec: NoiseSpec) -> dict:
    return {"noise_probability": spec.corrupt_probability, "noise_seed": spec.seed}


def _cmd_convert(args) -> int:
    out_dir = _resolve_out_dir(args, "convert")
    out_path = out_dir / f"{args.kind.lower()}.json"
    signal = adapt_dataset(args.input, args.kind, out=out_path,
                           check_counts=not args.lenient_counts)
    save_run_config(out_dir, "convert", args)
    print(f"wrote {signal.name}: {signal.num_nodes} nodes, "
          f"{signal.num_snapshots} snapshots -> {out_path}")
    return 0


def _cmd_prepare(args) -> int:
    out_dir = _resolve_out_dir(args, "prepare")
    signal = load_canonical(args.dataset)
    buckets = bucketize(signal, args.bucket_length, args.stride)
    spec = NoiseSpec(corrupt_probability=args.corrupt_probability, seed=args.seed)
    labeled = inject_noise(buckets, node_bounds(signal), spec)
    out_path = out_dir / "buckets.json"
    write_labeled_buckets(labeled, out_path, spec=spec)
    save_run_config(out_dir, "prepare", args)
    print(f"wrote {len(labeled)} labeled buckets -> {out_path}")
    return 0


def _train_configs(args, signal) -> tuple[TrainConfig, ModelConfig]:
    config = TrainConfig(
        epochs=args.epochs,
        learning_rate=args.learning_rate,
        bucket_length=args.bucket_length,
        folds=args.folds,
        seed=args.seed,
    )
    model_config = ModelConfig(
        args.cell,
        input_channels=signal.num_channels,
        embed_dim=args.embed_dim,
        attention_dim=args.attention_dim,
    )
    return config, model_config


def _resampler_for(signal, probability, seed):
    """run_folds' resample_for: fresh corruption of a fold's clean windows each epoch."""
    bounds = node_bounds(signal)

    def resample_for(fold_index, train_buckets):
        clean = [b.bucket for b in train_buckets]

        def resample(epoch):
            derived = int(
                np.random.SeedSequence([seed, 4, fold_index, epoch]).generate_state(1)[0]
            )
            return inject_noise(clean, bounds, NoiseSpec(probability, derived))

        return resample

    return resample_for


def _cmd_train(args) -> int:
    out_dir = _resolve_out_dir(args, "train")
    signal = load_canonical(args.dataset)
    labeled, spec = load_labeled_buckets(args.buckets, signal)
    config, model_config = _train_configs(args, signal)
    pairs = kfold_split(labeled, config.folds, config.seed, shuffle=not args.no_shuffle_folds)

    resample_for = None
    if args.redraw_noise:
        resample_for = _resampler_for(signal, spec.corrupt_probability, config.seed)
    runs = run_folds(pairs, config, model_config, resample_for=resample_for, score=False)
    histories = []
    for index, (checkpoint, history, _) in enumerate(runs):
        save_checkpoint(checkpoint, out_dir / f"checkpoint_fold_{index}.json")
        histories.append(history)

    write_json(
        {"test_starts": [[b.bucket.start for b in test] for _, test in pairs]},
        out_dir / "folds.json",
    )
    write_json({"per_fold": histories}, out_dir / "losses.json")
    save_run_config(out_dir, "train", args)
    final = ", ".join(f"{h[-1]:.4f}" for h in histories)
    print(f"trained {len(pairs)} folds ({config.epochs} epochs), final losses: {final}")
    return 0


def _cmd_eval(args) -> int:
    run_dir = Path(args.run_dir)
    run_config = load_run_config(run_dir / "run_config.json")
    if run_config.command != "train":
        raise ParseError(
            f"{run_dir}: expected a train run, found {run_config.command!r}"
        )
    stored = argparse.Namespace(**run_config.arguments)
    if args.out_dir is None:
        # keep the train run's own run_config.json intact
        args.out_dir = str(run_dir / "eval")
    out_dir = _resolve_out_dir(args, "eval")

    try:
        dataset_path = args.dataset or stored.dataset
        buckets_path = args.buckets or stored.buckets
        shuffle = not stored.no_shuffle_folds
        signal = load_canonical(dataset_path)
        config, model_config = _train_configs(stored, signal)
    except AttributeError as exc:
        raise ParseError(f"{run_dir}/run_config.json is missing a field: {exc}") from None
    labeled, spec = load_labeled_buckets(buckets_path, signal)
    pairs = kfold_split(labeled, config.folds, config.seed, shuffle=shuffle)

    recorded = read_json(run_dir / "folds.json")
    if not isinstance(recorded, dict):
        raise ParseError(f"{run_dir}/folds.json: expected an object with 'test_starts'")
    starts = [[b.bucket.start for b in test] for _, test in pairs]
    if recorded.get("test_starts") != starts:
        raise ParseError(
            f"{run_dir}/folds.json does not match the recomputed fold assignment; "
            "was the bucket file changed since training?"
        )

    def fold(index):
        checkpoint = load_checkpoint(run_dir / f"checkpoint_fold_{index}.json")
        return evaluate(checkpoint, pairs[index][1]).folds[0]

    adjacency_operator(signal)  # built here, the one every forked fold inherits
    folds = _pool.run_jobs(partial(fold, index) for index in range(len(pairs)))

    echo = config_echo(config, model_config)
    echo.update(_noise_metadata(spec))
    report = MetricsReport(
        dataset=signal.name, model=model_config.cell_kind,
        folds=tuple(folds), config=echo,
    )
    write_report(report, out_dir / "metrics.json")
    write_report_csv(report, out_dir / "metrics.csv")
    save_run_config(out_dir, "eval", args)
    print(f"mean mse {report.mean_mse:.4f}, mae {report.mean_mae:.4f}, "
          f"rmse {report.mean_rmse:.4f} over {len(folds)} folds")
    return 0


def _cmd_baseline(args) -> int:
    out_dir = _resolve_out_dir(args, "baseline")
    signal = load_canonical(args.dataset)
    labeled, spec = load_labeled_buckets(args.buckets, signal)
    if not labeled:
        raise ContractError(f"{args.buckets}: no buckets to score")
    extra = {"bucket_length": labeled[0].bucket.length}
    extra.update(_noise_metadata(spec))
    for method in BASELINE_METHODS:
        report = baseline_report(labeled, method, seed=args.seed, extra=extra)
        write_report(report, out_dir / f"baseline_{method}.json")
        write_report_csv(report, out_dir / f"baseline_{method}.csv")
        print(f"{method}: mse {report.mean_mse:.4f} over {report.total_samples} buckets")
    save_run_config(out_dir, "baseline", args)
    return 0


def _cmd_detect(args) -> int:
    out_dir = _resolve_out_dir(args, "detect")
    signal = load_canonical(args.dataset)
    checkpoint = load_checkpoint(args.checkpoint)
    scores = score_stream(signal, checkpoint, args.bucket_length)
    policy = AlarmPolicy(
        mode=args.mode, threshold=args.threshold,
        window=args.window, multiplier=args.multiplier,
    )
    offset = args.bucket_length - 1
    events, thresholds = detect_with_thresholds(scores, policy, index_offset=offset)
    write_events(events, out_dir / "events.json")
    write_scores_csv(scores, thresholds, out_dir / "scores.csv", index_offset=offset)
    save_run_config(out_dir, "detect", args)
    print(f"{len(events)} events over {len(scores)} scored snapshots")
    return 0


def _check_protocol(reports, paths) -> None:
    for key in ("dataset",) + PROTOCOL_KEYS:
        values = {}
        for report, path in zip(reports, paths):
            value = report.dataset if key == "dataset" else report.config.get(key)
            values.setdefault(repr(value), []).append(str(path))
        if len(values) > 1:
            detail = "; ".join(f"{v} in {', '.join(ps)}" for v, ps in sorted(values.items()))
            raise ParseError(
                f"reports disagree on {key}: {detail} (pass --allow-mixed to merge anyway)"
            )


def _cmd_report(args) -> int:
    out_dir = _resolve_out_dir(args, "report")
    reports = [load_report(path) for path in args.inputs]
    if not args.allow_mixed:
        _check_protocol(reports, args.inputs)
    out_path = out_dir / "comparison.csv"
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["dataset", "model", "mse", "mae", "rmse", "sample_count"])
        for report in reports:
            writer.writerow([
                report.dataset, report.model,
                report.mean_mse, report.mean_mae, report.mean_rmse,
                report.total_samples,
            ])
    save_run_config(out_dir, "report", args)
    print(f"wrote {len(reports)} rows -> {out_path}")
    return 0


def _add_common(parser) -> None:
    parser.add_argument("--out-dir", default=None,
                        help=f"artifact directory (default: ${OUTPUT_ROOT_VAR}/<command>)")
    parser.add_argument("--config", default=None,
                        help="load argument defaults from a saved run_config.json")


def build_parser() -> tuple[_Parser, dict]:
    parser = _Parser(prog="tgsim", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"tgsim {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")
    commands = {}

    p = commands["convert"] = sub.add_parser(
        "convert", help="turn a published dataset file into the canonical format")
    p.add_argument("--input", required=True, help="raw dataset file")
    p.add_argument("--kind", required=True, choices=sorted(DATASET_KINDS),
                   help="which published layout to expect")
    p.add_argument("--lenient-counts", action="store_true",
                   help="skip the published node/edge/snapshot count check")
    p.set_defaults(func=_cmd_convert)

    p = commands["prepare"] = sub.add_parser(
        "prepare", help="window a canonical signal and inject labeled corruption")
    p.add_argument("--dataset", required=True, help="canonical signal file")
    p.add_argument("-L", "--bucket-length", type=int, default=10)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("-p", "--corrupt-probability", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_prepare)

    p = commands["train"] = sub.add_parser(
        "train", help="fit one model per cross-validation fold")
    p.add_argument("--dataset", required=True)
    p.add_argument("--buckets", required=True, help="prepared bucket file")
    p.add_argument("--cell", default="a3tgcn", choices=CELL_KINDS)
    p.add_argument("--embed-dim", type=int, default=32)
    p.add_argument("--attention-dim", type=int, default=32)
    # the training recipe's defaults are TrainConfig's
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--learning-rate", type=float, default=TrainConfig.learning_rate)
    p.add_argument("-L", "--bucket-length", type=int, default=TrainConfig.bucket_length)
    p.add_argument("--folds", type=int, default=TrainConfig.folds)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--no-shuffle-folds", action="store_true",
                   help="use contiguous temporal blocks instead of a shuffled split")
    p.add_argument("--redraw-noise", action="store_true",
                   help="re-inject corruption with fresh draws every epoch, "
                        "at the bucket file's recorded probability")
    p.set_defaults(func=_cmd_train)

    p = commands["eval"] = sub.add_parser(
        "eval", help="score a train run's held-out folds into a metrics report")
    p.add_argument("--run-dir", required=True, help="directory written by train")
    p.add_argument("--dataset", default=None, help="override the recorded dataset path")
    p.add_argument("--buckets", default=None, help="override the recorded bucket file")
    p.set_defaults(func=_cmd_eval)

    p = commands["baseline"] = sub.add_parser(
        "baseline", help="score the random and trend-regression baselines")
    p.add_argument("--dataset", required=True)
    p.add_argument("--buckets", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_baseline)

    p = commands["detect"] = sub.add_parser(
        "detect", help="stream a recorded signal through a checkpoint and flag dips")
    p.add_argument("--dataset", required=True, help="canonical signal to scan")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("-L", "--bucket-length", type=int, default=10)
    p.add_argument("--mode", default="fixed", choices=ALARM_MODES)
    p.add_argument("--threshold", type=float, default=0.7)
    p.add_argument("--window", type=int, default=20)
    p.add_argument("--multiplier", type=float, default=3.0)
    p.set_defaults(func=_cmd_detect)

    p = commands["report"] = sub.add_parser(
        "report", help="merge metric reports into one comparison table")
    p.add_argument("--inputs", nargs="+", required=True, help="report JSON files")
    p.add_argument("--allow-mixed", action="store_true",
                   help="merge even when bucket length or noise settings disagree")
    p.set_defaults(func=_cmd_report)

    for command in commands.values():
        _add_common(command)
    return parser, commands


def _peek_config(argv) -> str | None:
    for i, token in enumerate(argv):
        if token == "--config":
            if i + 1 >= len(argv):
                raise UsageError("--config needs a file path")
            return argv[i + 1]
        if token.startswith("--config="):
            return token.split("=", 1)[1]
    return None


def _fail(code: int, exc: Exception) -> int:
    line = json.dumps({"error": type(exc).__name__, "message": str(exc)})
    print(line, file=sys.stderr)
    return code


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser, commands = build_parser()
        config_path = _peek_config(argv)
        if config_path is not None:
            stored = load_run_config(config_path)
            if not argv or argv[0].startswith("-"):
                raise UsageError("--config must follow a subcommand")
            if argv[0] != stored.command:
                raise UsageError(
                    f"config file is for {stored.command!r}, command line says {argv[0]!r}"
                )
            subparser = commands[stored.command]
            # `command` is the top-level parser's; anything else must be the subcommand's
            known = {action.dest for action in subparser._actions} | {"command"}
            unknown = sorted(set(stored.arguments) - known)
            if unknown:
                raise ParseError(
                    f"{config_path}: {stored.command} takes no argument "
                    f"{', '.join(map(repr, unknown))}"
                )
            subparser.set_defaults(**stored.arguments)
            # a stored value satisfies flags argparse would otherwise insist on
            for action in subparser._actions:
                if action.required and action.dest in stored.arguments:
                    action.required = False
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            raise UsageError("a subcommand is required (see tgsim --help)")
        # keep stderr to the one diagnostic line; non-finite values are
        # caught and reported by the trainer itself
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except UsageError as exc:
        return _fail(1, exc)
    except TrainingError as exc:
        return _fail(3, exc)
    except TgsimError as exc:
        return _fail(2, exc)
    except OSError as exc:
        return _fail(2, exc)


if __name__ == "__main__":
    sys.exit(main())
