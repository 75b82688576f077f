"""The repository benchmark: one workload, one seed, every metric.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-node --seed 7 \\
        --seconds 20 --trace 0

Each repetition runs in a fresh process (``rep.py``), so set-up time is
measured from process start to the first simulated cycle, caches --
modelled and host -- start cold, and peak memory belongs to one
repetition.  With ``--trace 0`` the run repeats the workload until
``--seconds`` have passed and prints the end-to-end metrics: host-side
rates and set-up time as medians over repetitions, and the simulated
statistics, which must be identical in every repetition.  With
``--trace 1`` it runs the workload plain, then once with spans around
every call into the program, then once under cProfile, and prints the
per-layer metrics; the spans and the layer fold are written under
``perfbench/out/``.  A workload with a sharded twin (``serve-mesh``)
also runs its inputs on the sharded engine: once in a timed run, and
traced in a traced run, where it gives the ``parallel.*`` and
``persist.*`` figures.

Every repetition checks its outputs (``rep.py``), and every
repetition of a run -- on either engine -- must simulate exactly the
same run.  The last line of standard output is the JSON result; the
exit code is nonzero when any output is wrong.

``--tiny`` shrinks every workload to a few dozen requests; only the
self-test (``selftest.py``) uses it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from layers import LAYERS, STDLIB  # noqa: E402

#: a run always makes at least this many timed repetitions
MIN_REPS = 3
#: no repetition starts once a run has used this many seconds, so a run
#: ends well inside its 180-second limit
RUN_BUDGET_S = 150
REP_TIMEOUT_S = 120


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def provenance(workload: str, seed: int, load_start) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload, "seed": seed,
        "commit": commit, "src_sha256": digest.hexdigest(),
        "cpu_model": cpu, "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "python": platform.python_version(),
    }


def run_rep(workload: str, seed: int, mode: str, tiny: bool,
            sharded: bool = False) -> dict:
    command = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
               "--seed", str(seed), "--mode", mode]
    command += ["--sharded"] * sharded + ["--tiny"] * tiny
    t0 = time.monotonic()
    proc = subprocess.run(command + ["--t0", repr(t0)], cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} {mode} repetition failed "
                           f"(exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def check_reps(reps: list[dict]) -> list[str]:
    """Problems across repetitions: each one's own output checks, then
    determinism and engine equality -- every repetition, on either
    engine, must simulate exactly the same run."""
    problems = [f"{r['mode']}: {p}" for r in reps for p in r["problems"]]
    reference = reps[0]["sim"]
    for r in reps[1:]:
        if r["sim"] != reference:
            engine = "sharded" if r["sharded"] else "lockstep"
            problems.append(f"{engine} {r['mode']} repetition simulated "
                            f"{r['sim']}, expected {reference}")
    return problems


def end_to_end(reps: list[dict]) -> dict:
    sim = reps[0]["sim"]
    return {
        "setup_s": median([r["setup_s"] for r in reps]),
        "requests_per_s": median([r["sim"]["completed"] / r["drive_s"]
                                  for r in reps]),
        "sim_bundles_per_s": median([r["sim"]["bundles"] / r["drive_s"]
                                     for r in reps]),
        "sim_cycles_per_s": median([r["sim"]["cycles"] / r["drive_s"]
                                    for r in reps]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        "sim_latency_p50_cycles": sim["latency_p50"],
        "sim_latency_p99_cycles": sim["latency_p99"],
        "sim_throughput_rpk": 1000.0 * sim["completed"] / sim["cycles"],
        "sim_ipc": sim["bundles"] / sim["cycles"],
    }


def engine_layer(spans: dict | None, profile: dict | None,
                 lockstep: dict) -> dict:
    """The sharded engine's figures, from its twin's traced repetitions
    (zero for a workload without a sharded twin)."""
    if spans is None:
        return {name: 0.0 for name in ENGINE_METRICS}
    fold = profile["fold"]
    words = spans["words_at_capture"]
    capture = spans["layer"]["persist.capture_s"]
    return {
        "parallel.start_s": spans["stages"]["start_s"],
        "parallel.slowdown": spans["drive_s"] / lockstep["drive_s"],
        "parallel.messages": fold["messages"],
        "parallel.messages_per_window": (fold["messages"] / fold["windows"]
                                         if fold["windows"] else 0.0),
        "parallel.wait_s": fold["wait_s"],
        "parallel.pickle_s": fold["pickle_s"],
        "persist.capture_s": capture,
        "persist.capture_us_per_word_in_use": (capture * 1e6 / words
                                               if words else 0.0),
    }


ENGINE_METRICS = ("parallel.start_s", "parallel.slowdown",
                  "parallel.messages", "parallel.messages_per_window",
                  "parallel.wait_s", "parallel.pickle_s",
                  "persist.capture_s", "persist.capture_us_per_word_in_use")


def per_layer(plain: list[dict], spans: dict, profile: dict,
              twin_spans: dict | None, twin_profile: dict | None) -> dict:
    fold = profile["fold"]
    total = fold["total_s"]
    out = {}
    for layer in LAYERS:
        name = "host.stdlib_" if layer == STDLIB else f"{layer}."
        out[f"{name}self_s"] = fold["layers"][layer]
        out[f"{name}share"] = fold["layers"][layer] / total if total else 0.0
    out.update(spans["layer"])
    out.update({
        "service.schedule_s": spans["stages"]["schedule_s"],
        "service.install_s": spans["stages"]["install_s"],
        "sim.latency_samples": spans["sim"]["latency_count"],
        "trace.overhead": profile["drive_s"] / median(
            [r["drive_s"] for r in plain]),
        "trace.profiled_s": total,
    })
    out.update(engine_layer(twin_spans, twin_profile, spans))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no simulator source under {ROOT / 'src'}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        return fail("--seconds must be positive")

    load_start = os.getloadavg()
    start = time.monotonic()
    window = args.seconds if args.trace == 0 else args.seconds / 3
    plain = []
    while True:
        plain.append(run_rep(args.workload, args.seed, "plain", args.tiny))
        elapsed = time.monotonic() - start
        enough = len(plain) >= (1 if args.tiny or args.trace else MIN_REPS)
        if enough and elapsed >= window:
            break
        if elapsed * (len(plain) + 1) / len(plain) > RUN_BUDGET_S:
            break
    reps = list(plain)
    twin = args.workload in workloads.SHARDED
    twin_spans = twin_profile = None
    if args.trace:
        spans = run_rep(args.workload, args.seed, "spans", args.tiny)
        profile = run_rep(args.workload, args.seed, "profile", args.tiny)
        reps += [spans, profile]
        if twin:
            twin_spans = run_rep(args.workload, args.seed, "spans",
                                 args.tiny, sharded=True)
            twin_profile = run_rep(args.workload, args.seed, "profile",
                                   args.tiny, sharded=True)
            reps += [twin_spans, twin_profile]
    elif twin:
        reps.append(run_rep(args.workload, args.seed, "plain", args.tiny,
                            sharded=True))
    problems = check_reps(reps)
    correct = not problems
    for p in problems:
        print(f"perfbench: WRONG OUTPUT: {p}", file=sys.stderr)

    if args.trace:
        values = per_layer(plain, spans, profile, twin_spans, twin_profile)
        declared = spec["per_layer"]
    else:
        values = end_to_end(plain)
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if not correct and not failed:
        failed = attempted   # a run that broke determinism counts whole

    prov = provenance(args.workload, args.seed, load_start)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    record = {"provenance": prov, "correct": correct, "problems": problems,
              "metrics": metrics,
              "reps": [{k: v for k, v in r.items() if k != "spans"}
                       for r in reps]}
    if args.trace:
        stem += "-trace"
        record["spans"] = spans["spans"]
        if twin:
            record["sharded_spans"] = twin_spans["spans"]
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print("provenance " + json.dumps(prov))
    sim = plain[0]["sim"]
    print(f"{args.workload}: {len(plain)} timed repetitions, "
          f"{sim['latency_count']} latency samples per repetition")
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
