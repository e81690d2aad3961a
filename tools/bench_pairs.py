"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload train-paper \\
        --pairs 10 --first-seed 801 --out BENCH_<n>.json

PARENT and CHANGE are repository roots. Pair i runs
`perfbench/run.py --workload W --seed FIRST_SEED + i --seconds T` once in
each checkout, one after the other: the parent first in even pairs, the
change first in odd ones, so that a drift of the host does not favour
either side. The runs are not traced. --seconds defaults to the
run_seconds of the change's BENCHMARK.json.

The output file maps each workload to its report; a run adds or
replaces its workload's entry and keeps the others. A report holds the
host the runs shared (the CPUs this process may use, and the Python and
numpy versions), each side's commit as the run starts (HEAD, and
whether and how the tree differs from it), every pair's end-to-end
metrics and operation walls (run.py's "operation walls" line, where a
cost paid once per process shows in the first) for both sides and, per
metric, the medians and quartiles of each side, the number of pairs the
change wins (a strictly better value in the direction BENCHMARK.json
gives), the median difference (change minus parent) and the parent's
interquartile spread. A run that fails or prints no result is recorded
with its error and its pair is left out of the summary.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _git(root: Path, *args) -> str:
    return subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                          text=True, check=True).stdout


def _commit(root: Path):
    """root's HEAD and whether its tree differs from it: {"head", "dirty",
    "diff_sha256"}, the last the sha256 of `git diff HEAD` (None when
    clean), so that an uncommitted change is not filed under its parent's
    hash. None if root is not a git checkout."""
    try:
        head = _git(root, "rev-parse", "HEAD").strip()
        dirty = bool(_git(root, "status", "--porcelain"))
        diff = _git(root, "diff", "HEAD", "--binary")
    except (OSError, subprocess.CalledProcessError):
        return None
    return {"head": head, "dirty": dirty,
            "diff_sha256": (hashlib.sha256(diff.encode()).hexdigest()
                            if dirty else None)}


def _host() -> dict:
    """The CPUs this process may run on, which the runs inherit, and the
    Python and numpy versions of this interpreter, which runs them."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
    return {"cpus": cpus, "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy")}


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced benchmark run in root: {"metrics": {name: value},
    "correct": bool, "walls": [seconds per operation, in run order]} or
    {"error": message}."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}"}
    walls = next((line.split(":", 1)[1].split() for line in lines
                  if line.startswith("# operation walls")), [])
    return {"correct": result["correct"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "walls": [float(w) for w in walls]}


def summarize(pairs, better: dict) -> dict:
    """Per metric: each side's median and quartiles over the pairs where
    both runs gave a result, the change's wins, the median difference and
    the parent's interquartile spread."""
    done = [p for p in pairs if all("metrics" in p[s] for s in SIDES)]
    summary = {}
    for name in sorted({k for p in done for k in p["change"]["metrics"]}):
        values = {s: [p[s]["metrics"].get(name) for p in done] for s in SIDES}
        if any(v is None for s in SIDES for v in values[s]):
            continue
        sign = 1.0 if better.get(name, "higher") == "higher" else -1.0
        wins = sum(sign * (c - p) > 0
                   for p, c in zip(values["parent"], values["change"]))
        entry = {"better": better.get(name), "pairs": len(done),
                 "change_wins": wins}
        for s in SIDES:
            q1, q3 = _quartiles(values[s])
            entry[s] = {"median": statistics.median(values[s]), "q1": q1,
                        "q3": q3}
        entry["median_diff"] = (entry["change"]["median"]
                                - entry["parent"]["median"])
        entry["parent_iqr"] = entry["parent"]["q3"] - entry["parent"]["q1"]
        entry["median_gain"] = (entry["median_diff"] / entry["parent"]["median"]
                                if entry["parent"]["median"] else None)
        summary[name] = entry
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec.get("end_to_end", [])}
    seconds = args.seconds or spec["run_seconds"]

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    commits = {s: _commit(roots[s]) for s in SIDES}
    pairs = []
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(roots[side], args.workload, seed, seconds)
            shown = pair[side].get("metrics", pair[side])
            print(f"pair {i} seed {seed} {side}: {json.dumps(shown)}",
                  flush=True)
        pairs.append(pair)

    report = {
        "host": _host(),
        "seconds": seconds,
        "first_seed": args.first_seed,
        "commits": commits,
        "pairs": pairs,
        "summary": summarize(pairs, better),
    }
    reports = (json.loads(args.out.read_text(encoding="utf-8"))
               if args.out.exists() else {})
    reports[args.workload] = report
    args.out.write_text(json.dumps(reports, indent=2) + "\n",
                        encoding="utf-8")
    for name, e in report["summary"].items():
        print(f"{name}: parent {e['parent']['median']:.6g} change "
              f"{e['change']['median']:.6g}, change wins {e['change_wins']}/"
              f"{e['pairs']}, median diff {e['median_diff']:.6g}, parent IQR "
              f"{e['parent_iqr']:.6g}")
    failed = [p["seed"] for p in pairs
              if not all(p[s].get("correct") for s in SIDES)]
    if failed:
        print(f"runs failed or incorrect at seeds {failed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
