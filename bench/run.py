"""Benchmark for tgsim: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload cv-chickenpox --seed 1 --seconds 12 --trace 0

`--trace 0` times the workload untouched and prints the end-to-end metrics;
`--trace 1` also runs it with spans around the calls into `tgsim` and prints
the per-layer metrics. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. A record of the run
(environment, rounds, output digests, check results) is written under
`.bench_out/`. See bench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(".bench_out")

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("train_windows_per_s", "windows/s"),
    ("score_windows_per_s", "windows/s"),
    ("peak_rss_mb", "MB"),
]


def _cpus() -> int:
    return len(os.sched_getaffinity(0))


def _blas_info() -> dict:
    """BLAS library, version and live thread count as numpy reports them."""
    import ctypes
    import numpy as np

    info = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(blas=blas.get("name"), blas_version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["blas_threads"] = getter()
                return info
    return info


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _rounds(workload, inputs, seconds: float, tracer=None) -> list:
    """Whole rounds until `seconds` have passed; stops early on a failed round."""
    from workloads import Round

    rounds = []
    began = time.perf_counter()
    while True:
        # each round starts without the previous round's uncollected garbage
        gc.collect()
        cpu, started = os.times(), time.perf_counter()
        try:
            result = workload.run_round(inputs, tracer)
        except Exception:  # the round's operations all count as failed
            traceback.print_exc()
            count = workload.attempts_per_round(inputs)
            result = Round(wall_s=time.perf_counter() - started, attempted=count, failed=count)
        now = os.times()
        result.notes["cpu_s"] = (now.user + now.system) - (cpu.user + cpu.system)
        rounds.append(result)
        if result.failed or time.perf_counter() - began >= seconds:
            return rounds


def main(argv=None) -> int:
    args = _parse(argv)
    os.chdir(ROOT)
    if not (ROOT / "src" / "tgsim" / "__init__.py").is_file():
        print(f"error: no tgsim sources under {ROOT / 'src'}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    # BLAS gets one thread per CPU this process may run on, unless told otherwise
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, str(_cpus()))
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

    import tgsim
    from spans import Tracer, layer_metrics, per_layer_names
    from workloads import WORKLOADS

    if Path(tgsim.__file__).resolve().parent != ROOT / "src" / "tgsim":
        print(f"error: imported tgsim from {tgsim.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed, OUT)
    setup_times = []
    for _ in range(workload.setup_repeats):
        began = time.perf_counter()
        inputs = workload.setup()
        setup_times.append(time.perf_counter() - began)

    rounds = _rounds(workload, inputs, 0 if args.trace else args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced = []
    if args.trace:
        setup_tracer, round_tracer = Tracer(), Tracer()
        with setup_tracer.installed():
            inputs = workload.setup()
        with round_tracer.installed():
            traced = _rounds(workload, inputs, args.seconds, round_tracer)

    done = [r for r in rounds + traced if not r.failed]
    if not done or (args.trace and not [r for r in traced if not r.failed]):
        print("error: no round of the workload completed", file=sys.stderr)
        return 1
    try:
        failures, quality = workload.check(inputs, done[0].outputs)
    except Exception:  # a check that cannot run counts as a failed check
        failures, quality = ["check raised:\n" + traceback.format_exc()], {}
    digests = sorted({r.digest for r in done})
    if len(digests) > 1:
        failures.append(f"rounds of one run wrote {len(digests)} different outputs")
    for line in failures:
        print(f"check failed: {line}", file=sys.stderr)
    for name, holds in quality.items():
        if holds is False:
            print(f"property not met (recorded, not gating correct): {name}", file=sys.stderr)

    attempted = sum(r.attempted for r in rounds + traced)
    failed = sum(r.failed for r in rounds + traced)
    if args.trace:
        wall = statistics.median(r.wall_s for r in rounds if not r.failed)
        traced_wall = statistics.median(r.wall_s for r in traced if not r.failed)
        windows = workload.windows_per_round(inputs)
        values = layer_metrics([(setup_tracer, 1), (round_tracer, len(traced))], windows,
                               traced_wall - wall)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in per_layer_names()}
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(r.wall_s for r in done),
            "train_windows_per_s": statistics.median(r.train_windows / r.train_s for r in done),
            "score_windows_per_s": statistics.median(r.score_windows / r.score_s for r in done),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    record_dir = OUT / "records"
    record_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {"cpus": _cpus(), "python": sys.version.split()[0], **_blas_info()},
        "setup_s": setup_times,
        "rounds": [
            {"wall_s": r.wall_s, "traced": traced_flag, "attempted": r.attempted,
             "failed": r.failed, "train_s": r.train_s, "score_s": r.score_s,
             "digest": r.digest, **r.notes}
            for rs, traced_flag in ((rounds, False), (traced, True)) for r in rs
        ],
        "attempted": attempted,
        "failed": failed,
        "check_failures": failures,
        "quality": quality,
        "metrics": metrics,
    }
    if args.trace:
        record["missing_trace_points"] = setup_tracer.missing
        round_tracer.save(record_dir / f"{stem}-spans.npz")
    (record_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
