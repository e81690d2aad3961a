"""Time perfbench's pipeline-tokens pipeline as six command-line processes,
for a given checkout, the way a user runs it: each command pays its own
interpreter start-up and `import ss3m`.

    python3 tools/cli_processes.py CHECKOUT [--repeats N]

CHECKOUT is a repository root; its `src/` is run and its
perfbench/run.py gives the pipeline: PIPELINE_CONFIG and the argv of
generate, preprocess, train, train mc3m, evaluate and summarize for
benchmark seed 501's first corpus (generate and preprocess seed 3006,
sampler seed 0). Each repeat runs the six as `python -m ss3m.cli`, one
after the other, in a fresh temporary directory, with BLAS pinned to one
thread as the benchmark does. The script prints each command's median
wall time over the repeats and the median of the repeats' totals. It
only reports; it checks no output beyond each command's exit status.
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from cli_digest import perfbench_module

BENCH_SEED = 501


def run_once(bench, src: Path, work: Path) -> dict:
    """Wall seconds of each command of one pipeline run into work."""
    workload = bench.PipelineTokens(None, BENCH_SEED)
    workload.config = work / "pipeline.cfg"
    workload.config.write_text(bench.PIPELINE_CONFIG, encoding="utf-8")
    argv = workload._argv(work, workload.corpora * BENCH_SEED)
    env = dict(os.environ, PYTHONPATH=str(src))
    walls = {}
    for cmd in workload.COMMANDS:
        t = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "ss3m.cli", *argv[cmd]],
                              cwd=work, env=env, capture_output=True,
                              text=True)
        walls[cmd] = time.perf_counter() - t
        if proc.returncode != 0:
            raise SystemExit(f"{cmd} exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-500:]}")
    return walls


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    checkout = args.checkout.resolve()
    bench = perfbench_module(checkout)
    runs = []
    for _ in range(args.repeats):
        with tempfile.TemporaryDirectory(prefix="cli-processes-") as tmp:
            runs.append(run_once(bench, checkout / "src", Path(tmp)))
    print(f"# {checkout}  repeats {args.repeats}  median wall (s)")
    for cmd in bench.PipelineTokens.COMMANDS:
        print(f"{cmd:<12} {statistics.median(r[cmd] for r in runs):8.3f}")
    print(f"{'total':<12} "
          f"{statistics.median(sum(r.values()) for r in runs):8.3f}")


if __name__ == "__main__":
    main()
