"""Alternated pairs of benchmark runs on a parent and a change checkout.

For every workload and seed, runs

    python3 bench/run.py --workload W --seed S --seconds <run_seconds> --trace 0

once in the parent checkout and once in the change checkout, one run at a
time, alternating which side goes first from one pair to the next. The
command, the workloads, the run length and each metric's direction and
bound come from the change checkout's `BENCHMARK.json`. Writes
`BENCH_<label>.json` at the root of the repository this script sits in,
again after every pair, so an interrupted series keeps its finished pairs:

- every run's metrics, `correct`, attempted and failed counts and its
  rounds' output digests (from the run's record under `.bench_out/`);
- per workload and metric, each side's median and quartiles, the pairs
  the change won and lost (ties count for neither), the ratio of the
  medians, and whether the gain rule holds: at least nine tenths of the
  pairs won and the medians apart by more than the parent's quartile
  spread; and whether the change is past the metric's bound: its median
  worse than the parent's by more than `bound`, a share of the parent's
  median (the rule the benchmark's regression check applies);
- per workload, how many pairs wrote the same output digests on both sides;
- per workload that times its commands (`command_s` in a round's record,
  as `cli-metrala` does), each side's median seconds per command: the
  median over the pairs of each run's median over its rounds;
- the CPU count, Python, numpy and BLAS of each side, from the records;
- each side's net `src/` line count, the lines of its Python files as
  `wc -l` counts them.

    python3 scripts/bench_pairs.py --parent ../parent --label adjacency_from_arcs \\
        --seeds 1 2 3 4 5 6 7 8 9 10
"""

import argparse
import json
import re
import subprocess
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def run_once(checkout: Path, command, workload, seed, seconds):
    """One benchmark run: its last JSON line, with the record's digests and environment."""
    args = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    proc = subprocess.run(args, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "returncode": proc.returncode,
                "stderr_tail": proc.stderr[-2000:]}
    record_path = checkout / ".bench_out" / "records" / f"{workload}-seed{seed}-trace0.json"
    record = json.loads(record_path.read_text(encoding="utf-8"))
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "returncode": proc.returncode,
        "metrics": {name: metric["value"] for name, metric in result["metrics"].items()},
        "digests": sorted({r["digest"] for r in record["rounds"]}),
        "command_s": medians(r.get("command_s", {}) for r in record["rounds"]),
        "environment": record["environment"],
    }


def src_lines(checkout: Path) -> int:
    """The newlines in every Python file under the checkout's `src/`."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src").rglob("*.py"))


def summarize(pairs, metrics):
    """Per metric: each side's quartiles, pairs won and lost, the gain rule and the bound."""
    summary = {}
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        values = {side: [p[side]["metrics"][name] for p in pairs if "metrics" in p[side]]
                  for side in SIDES}
        if not all(values.values()):
            continue
        entry = {}
        for side in SIDES:
            q1, median, q3 = np.percentile(values[side], [25, 50, 75])
            entry[side] = {"median": median, "q1": q1, "q3": q3}
        won = lost = 0
        for p in pairs:
            if "metrics" in p["parent"] and "metrics" in p["change"]:
                diff = p["change"]["metrics"][name] - p["parent"]["metrics"][name]
                won += diff < 0 if lower else diff > 0
                lost += diff > 0 if lower else diff < 0
        parent, change = entry["parent"]["median"], entry["change"]["median"]
        gain = parent - change if lower else change - parent
        bound = spec.get("bound")
        entry.update(
            pairs=len(pairs), won=won, lost=lost, bound=bound,
            change_over_parent=change / parent,
            gain_rule_met=bool(won >= 0.9 * len(pairs)
                               and gain > entry["parent"]["q3"] - entry["parent"]["q1"]),
            past_bound=bound is not None and bool(-gain > bound * parent),
        )
        summary[name] = entry
    return summary


def medians(timings):
    """Per key of the {command: seconds} mappings `timings`, the median of its values."""
    values = {}
    for timing in timings:
        for command, seconds in timing.items():
            values.setdefault(command, []).append(seconds)
    return {command: float(np.median(v)) for command, v in values.items()}


def command_medians(pairs):
    """Per command: each side's median over the pairs of its runs' seconds, and their ratio."""
    sides = {side: medians(p[side].get("command_s", {}) for p in pairs) for side in SIDES}
    summary = {}
    for command in dict.fromkeys(c for side in SIDES for c in sides[side]):
        entry = summary[command] = {side: sides[side][command] for side in SIDES
                                    if command in sides[side]}
        if len(entry) == len(SIDES):
            entry["change_over_parent"] = entry["change"] / entry["parent"]
    return summary


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, default=ROOT, help="checkout of the change")
    parser.add_argument("--label", required=True, help="names the output, BENCH_<label>.json")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", help="default: every workload of BENCHMARK.json")
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", args.label):
        parser.error("--label takes letters, digits, '_', '.' and '-' only")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in checkouts.items():
        if not (checkout / "bench" / "run.py").is_file():
            parser.error(f"--{side} {checkout} has no bench/run.py")
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads or known
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        parser.error(f"unknown workloads {unknown}; BENCHMARK.json has {known}")

    out = ROOT / f"BENCH_{args.label}.json"
    report = {"label": args.label, "command": spec["command"], "seconds": spec["run_seconds"],
              "seeds": args.seeds, "environment": {}, "workloads": {},
              "src_lines": {side: src_lines(checkout) for side, checkout in checkouts.items()}}
    index = 0
    for workload in workloads:
        pairs = []
        entry = report["workloads"][workload] = {"summary": {}, "command_s": {},
                                                 "digests_equal": 0, "pairs": pairs}
        for seed in args.seeds:
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            index += 1
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                run = run_once(checkouts[side], spec["command"], workload, seed,
                               spec["run_seconds"])
                environment = run.pop("environment", None)
                if environment and environment not in report["environment"].setdefault(side, []):
                    report["environment"][side].append(environment)
                pair[side] = run
                print(f"{workload} seed {seed} {side}: correct={run['correct']} "
                      f"{json.dumps(run.get('metrics'))}", flush=True)
            pairs.append(pair)
            entry["summary"] = summarize(pairs, spec["end_to_end"])
            entry["command_s"] = command_medians(pairs)
            entry["digests_equal"] = sum(
                "digests" in p["parent"] and p["parent"]["digests"] == p["change"].get("digests")
                for p in pairs)
            out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        past = [name for name, summary in entry["summary"].items() if summary["past_bound"]]
        print(f"{workload}: past their bound: {', '.join(past) or 'none'}", flush=True)
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
