"""Check that the benchmark is steady: run each workload on several
seeds and report every end-to-end metric's spread.

Usage (from the repository root)::

    python3 perfbench/steady.py --seeds 10 [--first-seed 1000]
        [--workloads kernels serve-node]

The spread is the distance between the first and third quartiles of
the per-seed values (``statistics.quantiles(values, n=4)``) over their
median.  A metric is steady when its spread stays below a third of its
bound in ``BENCHMARK.json``; ``setup_s`` is reported but not held to
that.  Results go to ``perfbench/out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args(argv)

    report = {}
    steady = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=200)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode or not result["correct"]:
                print(f"{workload} seed {seed}: WRONG OUTPUT\n{proc.stderr}")
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        report[workload] = {}
        for metric in bench["end_to_end"]:
            series = values[metric["name"]]
            q1, med, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / statistics.median(series)
            ok = metric["name"] == "setup_s" or spread < metric["bound"] / 3
            steady &= ok
            report[workload][metric["name"]] = {
                "median": statistics.median(series), "spread": spread,
                "bound": metric["bound"], "values": series}
            print(f"{workload:<20} {metric['name']:<26} "
                  f"median {statistics.median(series):>14.6g}  spread "
                  f"{spread:6.3f}  bound {metric['bound']:.2f}"
                  f"{'' if ok else '  NOT STEADY'}", flush=True)
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "steady.json").write_text(json.dumps(report, indent=1))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
