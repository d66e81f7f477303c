"""Command-line surface: reproducible experiment runs as flat-file artifacts.

Every command resolves its arguments, writes them as run_config.json next
to its outputs, and can be replayed from that file with --config, which
refuses stored arguments the command does not take.  Errors
leave a single JSON line on stderr; exit codes are 0 (ok), 1 (usage),
2 (bad data or config), 3 (training or evaluation failure).

Each checkpoint `train` writes is its fold's one record: model, recipe (fold
split and noise redraw included) and the bucket file's SHA-256.  `eval`
re-derives each fold's test windows from the recipe, scores them and echoes
the recipe from the checkpoints; it reads only input paths from
run_config.json.

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
from dataclasses import asdict, dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, _pool
from .adapters import DATASET_KINDS, adapt_dataset
from .anomaly import ALARM_MODES, AlarmPolicy, detect_with_thresholds, score_stream, write_events, write_scores_csv
from .baselines import BASELINE_METHODS, baseline_report
from .data import (adjacency_operator, file_sha256, load_canonical, node_bounds, read_json,
                   write_json)
from .errors import ConfigError, ParseError, TgsimError, TrainingError
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


def save_run_config(args: argparse.Namespace) -> None:
    """Write a finished run's resolved arguments as run_config.json in its output directory."""
    arguments = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("func", "config")
    }
    config = RunConfig(command=args.command, version=__version__, arguments=arguments)
    write_json(asdict(config), Path(args.out_dir) / "run_config.json")


def load_run_config(path) -> RunConfig:
    """A saved run of a known command whose arguments have the types its flags parse to.

    An argument no flag of the command takes is left to the caller:
    `--config` refuses it, `eval` ignores it.
    """
    doc = read_json(path)
    commands = build_parser()[1]
    try:
        config = RunConfig(command=doc["command"], version=doc["version"],
                           arguments=doc["arguments"])
        flags = {action.dest: action for action in commands[config.command]._actions}
        stored = config.arguments.items()  # an AttributeError unless an object
    except (AttributeError, KeyError, TypeError) as exc:
        raise ParseError(f"{path}: malformed run config ({exc!r})") from None
    for dest, value in stored:
        if dest in flags and not _fits(flags[dest], value):
            raise ParseError(f"{path}: stored {dest} {value!r} is not what its flag takes")
    return config


def _fits(action, value) -> bool:
    """Whether `value` has the type argparse gives `action` from a command line."""
    if value is None:
        return action.default is None and not action.required
    if action.nargs == "+":
        return isinstance(value, list) and bool(value) and all(isinstance(v, str) for v in value)
    kind = bool if action.nargs == 0 else action.type or str
    # to isinstance a bool is an int, and an int is a fine float
    return isinstance(value, (int, float) if kind is float else kind) and (
        kind is bool or not isinstance(value, bool))


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


def _cmd_convert(args) -> None:
    out_dir = _resolve_out_dir(args, "convert")
    out_path = out_dir / f"{args.kind}.json"
    signal = adapt_dataset(args.input, args.kind, out=out_path,
                           check_counts=not args.lenient_counts)
    print(f"wrote {signal.name}: {signal.num_nodes} nodes, "
          f"{signal.num_snapshots} snapshots -> {out_path}")


def _cmd_prepare(args) -> None:
    out_dir = _resolve_out_dir(args, "prepare")
    signal = load_canonical(args.dataset)
    buckets = bucketize(signal, args.bucket_length, args.stride)
    spec = NoiseSpec(corrupt_probability=args.corrupt_probability, seed=args.seed)
    labeled = inject_noise(buckets, node_bounds(signal), spec)
    out_path = out_dir / "buckets.json"
    write_labeled_buckets(labeled, out_path, spec=spec)
    print(f"wrote {len(labeled)} labeled buckets -> {out_path}")


def _cmd_train(args) -> None:
    out_dir = _resolve_out_dir(args, "train")
    signal = load_canonical(args.dataset)
    labeled, spec = load_labeled_buckets(args.buckets, signal)
    if args.bucket_length is None:
        args.bucket_length = labeled[0].bucket.length
    digest = file_sha256(args.buckets).hex()
    config = TrainConfig(
        epochs=args.epochs, learning_rate=args.learning_rate, bucket_length=args.bucket_length,
        folds=args.folds, seed=args.seed, shuffle_folds=not args.no_shuffle_folds,
        redraw_probability=spec.corrupt_probability if args.redraw_noise else None)
    model_config = ModelConfig(args.cell, input_channels=signal.num_channels,
                               embed_dim=args.embed_dim, attention_dim=args.attention_dim)
    runs = run_folds(labeled, config, model_config, score=False)
    histories = []
    for index, (checkpoint, history, _) in enumerate(runs):
        provenance = replace(checkpoint.provenance, buckets_sha256=digest)
        save_checkpoint(replace(checkpoint, provenance=provenance),
                        out_dir / f"checkpoint_fold_{index}.json")
        histories.append(history)

    write_json({"per_fold": histories}, out_dir / "losses.json")
    final = ", ".join(f"{h[-1]:.4f}" for h in histories)
    print(f"trained {len(runs)} folds ({config.epochs} epochs), final losses: {final}")


def _recorded_folds(run_dir, labeled, buckets_path) -> list:
    """(checkpoint, test buckets) of a train run's folds 0 to K - 1, K from fold 0's recipe:
    one model and recipe, trained on `labeled`'s file, in order, tests split by the recipe."""
    first = load_checkpoint(run_dir / "checkpoint_fold_0.json")
    checkpoints = [first] + [load_checkpoint(run_dir / f"checkpoint_fold_{index}.json")
                             for index in range(1, first.provenance.recipe.folds)]
    for what, values in (("models", {c.config for c in checkpoints}),
                         ("recipes", {c.provenance.recipe for c in checkpoints})):
        if len(values) > 1:
            raise ParseError(f"{run_dir}: the folds' checkpoints hold different {what}: "
                             f"{sorted(map(repr, values))}")
    digest = file_sha256(buckets_path).hex()
    if {c.provenance.buckets_sha256 for c in checkpoints} != {digest}:
        raise ParseError(f"{run_dir}: the folds were trained on another bucket file "
                         f"than {buckets_path} (SHA-256 {digest})")
    folds = [c.provenance.fold for c in checkpoints]
    if folds != list(range(len(checkpoints))):
        raise ParseError(f"{run_dir}: the checkpoints record folds {folds}, out of order")
    recipe = first.provenance.recipe
    pairs = kfold_split(labeled, recipe.folds, recipe.seed, shuffle=recipe.shuffle_folds)
    return [(c, test) for c, (_, test) in zip(checkpoints, pairs)]


def _cmd_eval(args) -> None:
    run_dir = Path(args.run_dir)
    run_config = load_run_config(run_dir / "run_config.json")
    if run_config.command != "train":
        raise ParseError(
            f"{run_dir}: expected a train run, found {run_config.command!r}"
        )
    if args.out_dir is None:
        # keep the train run's own run_config.json intact
        args.out_dir = str(run_dir / "eval")
    out_dir = _resolve_out_dir(args, "eval")

    try:
        dataset_path = args.dataset or run_config.arguments["dataset"]
        buckets_path = args.buckets or run_config.arguments["buckets"]
    except KeyError as exc:
        raise ParseError(f"{run_dir}/run_config.json is missing a field: {exc}") from None
    signal = load_canonical(dataset_path)
    labeled, spec = load_labeled_buckets(buckets_path, signal)
    folds = _recorded_folds(run_dir, labeled, buckets_path)

    adjacency_operator(signal)  # built here, the one every forked fold inherits
    scored = _pool.run_jobs(partial(evaluate, checkpoint, test) for checkpoint, test in folds)

    model_config, recipe = folds[0][0].config, folds[0][0].provenance.recipe
    echo = config_echo(recipe, model_config)
    echo.update(_noise_metadata(spec))
    report = MetricsReport(dataset=signal.name, model=model_config.cell_kind,
                           folds=tuple(one.folds[0] for one in scored), config=echo)
    write_report(report, out_dir / "metrics.json")
    write_report_csv(report, out_dir / "metrics.csv")
    print(f"mean mse {report.mean_mse:.4f}, mae {report.mean_mae:.4f}, "
          f"rmse {report.mean_rmse:.4f} over {len(folds)} folds")


def _cmd_baseline(args) -> None:
    out_dir = _resolve_out_dir(args, "baseline")
    signal = load_canonical(args.dataset)
    labeled, spec = load_labeled_buckets(args.buckets, signal)
    extra = {"bucket_length": labeled[0].bucket.length}
    extra.update(_noise_metadata(spec))
    # every report is built before any is written: a refused method leaves no files
    reports = [baseline_report(labeled, method, seed=args.seed, extra=extra)
               for method in BASELINE_METHODS]
    for method, report in zip(BASELINE_METHODS, reports):
        write_report(report, out_dir / f"baseline_{method}.json")
        write_report_csv(report, out_dir / f"baseline_{method}.csv")
        print(f"{method}: mse {report.mean_mse:.4f} over {report.total_samples} buckets")


def _cmd_detect(args) -> None:
    out_dir = _resolve_out_dir(args, "detect")
    signal = load_canonical(args.dataset)
    checkpoint = load_checkpoint(args.checkpoint)
    length = checkpoint.provenance.recipe.bucket_length
    if args.bucket_length not in (None, length):
        raise ConfigError(f"-L {args.bucket_length}: the checkpoint's windows are {length} long")
    args.bucket_length = length
    scores = score_stream(signal, checkpoint)
    policy = AlarmPolicy(
        mode=args.mode, threshold=args.threshold,
        window=args.window, multiplier=args.multiplier,
    )
    offset = length - 1
    events, thresholds = detect_with_thresholds(scores, policy, index_offset=offset)
    write_events(events, out_dir / "events.json")
    write_scores_csv(scores, thresholds, out_dir / "scores.csv", index_offset=offset)
    print(f"{len(events)} events over {len(scores)} scored snapshots")


def _check_protocol(reports, paths) -> None:
    # baselines train nothing and carry no fold split, so the split is
    # compared only across the reports that carry one
    for key in ("dataset",) + PROTOCOL_KEYS + ("shuffle_folds",):
        values = {}
        for report, path in zip(reports, paths):
            if key == "shuffle_folds" and key not in report.config:
                continue
            value = report.dataset if key == "dataset" else report.config.get(key)
            values.setdefault(repr(value), []).append(str(path))
        if len(values) > 1:
            detail = "; ".join(f"{v} in {', '.join(ps)}" for v, ps in sorted(values.items()))
            raise ParseError(
                f"reports disagree on {key}: {detail} (pass --allow-mixed to merge anyway)"
            )


def _cmd_report(args) -> None:
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
    print(f"wrote {len(reports)} rows -> {out_path}")


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
    p.add_argument("-L", "--bucket-length", type=int, help="must be the bucket file's window length")
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
    p.add_argument("--run-dir", required=True,
                   help="directory written by train: each fold's recipe and test windows "
                        "come from its checkpoint, the input paths from run_config.json")
    p.add_argument("--dataset", default=None, help="override the recorded dataset path")
    p.add_argument("--buckets", default=None, help="the recorded bucket file at another path")
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
    p.add_argument("-L", "--bucket-length", type=int, help="must be the checkpoint's window length")
    p.add_argument("--mode", default="fixed", choices=ALARM_MODES)
    p.add_argument("--threshold", type=float, default=0.7)
    p.add_argument("--window", type=int, default=20)
    p.add_argument("--multiplier", type=float, default=3.0)
    p.set_defaults(func=_cmd_detect)

    p = commands["report"] = sub.add_parser(
        "report", help="merge metric reports into one comparison table")
    p.add_argument("--inputs", nargs="+", required=True, help="report JSON files")
    p.add_argument("--allow-mixed", action="store_true",
                   help="merge even when bucket length, noise settings or fold split disagree")
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
            args.func(args)
        # a refused command raised above, so only a finished run leaves a record
        save_run_config(args)
        return 0
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
