"""Benchmark of the cqap analysis pipeline: one workload, one JSON line.

Run from the repository root:

    python3 perfbench/run.py --workload reach_tradeoffs --seed 1 --seconds 10 --trace 0

Every measurement runs in a fresh interpreter under a hard timeout.  First a
few interpreters only import the program, to time set-up; then one worker
runs timed passes of the workload until --seconds have elapsed (at least
one pass) and checks every output against perfbench/references.json.  A
worker that hits the timeout is killed and counted as did-not-finish.  The
worker's string hash seed is --seed, so a run repeats exactly and different
seeds also check that hash order never changes a result.

With --trace 0 the result holds the end-to-end metrics; with --trace 1 the
per-layer metrics of a traced run, whose spans are also written to
perfbench/out/.  The last line of standard output is

    {"correct": bool, "attempted": int, "failed": int, "metrics": {name: {"value", "unit"}}}

and the exit code is 0 only when every output was correct.  See
perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("reach_tradeoffs", "rule_enumeration", "set_disjointness")
SETUP_PROBES = 2  # import-only interpreters; the worker's own start is one more sample
DEADLINE_S = 170  # the whole run, set-up probes included
PROBE_TIMEOUT_S = 30

END_TO_END_UNITS = {
    "setup_s": "s",
    "analysis_s": "s",
    "certified_ratio": "ratio",
    "peak_rss_mb": "MB",
}


class WorkerFailed(Exception):
    pass


def _spawn(extra: list[str], timeout: float, hash_seed: int = 0) -> dict:
    """Run one worker in a fresh interpreter; its last stdout line as JSON.

    Raises WorkerFailed when it crashes or outlives `timeout`, in which case
    it has been killed and reaped.
    """
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed % 2**32))
    cmd = [sys.executable, str(WORKER), *extra, "--spawned-at", ""]
    cmd[-1] = repr(time.monotonic())
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"did not finish within {timeout:.0f} s and was killed")
    if done.returncode != 0:
        raise WorkerFailed(f"exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(setup: list[float], work: dict) -> dict[str, float]:
    certified = work["sides_certified"] / work["sides"] if work["sides"] else 1.0
    return {
        "setup_s": statistics.median(setup),
        "analysis_s": statistics.median(work["analysis_s"]),
        "certified_ratio": certified,
        "peak_rss_mb": work["peak_rss_mb"],
    }


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
    )


def _report(args, setup, work, values) -> None:
    passes = len(work["analysis_s"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {passes}")
    print(f"outputs digest {work['digest']} (the same under every seed)")
    for msg in work["failures"][:20]:
        print(f"MISMATCH {msg}")
    if args.trace:
        for req, counts in work["requests"].items():
            print(f"  {req}: " + " ".join(f"{k}={v}" for k, v in counts.items()))
        for key, value in values.items():
            print(f"  {key:34s} {value:.6g}")
        print(f"spans written to {work['trace_file']}")
        return
    print(f"setup_s          {values['setup_s']:.4f} s  median of {len(setup)} fresh interpreters")
    print(f"analysis_s       {values['analysis_s']:.4f} s  median of {passes} pass(es)")
    print(
        f"certified_ratio  {values['certified_ratio']:.4f}  "
        f"{work['sides_certified']} of {work['sides']} proof sides certified, "
        f"{work['sides'] - work['sides_certified']} uncertified"
    )
    print(f"peak_rss_mb      {values['peak_rss_mb']:.1f} MB")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    needed = [ROOT / "src" / "cqap" / "__init__.py", ROOT / "corpus" / "queries", WORKER]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"cannot benchmark: missing {', '.join(missing)}", file=sys.stderr)
        return 2

    started = time.monotonic()
    try:
        setup = [_spawn(["--setup-only"], PROBE_TIMEOUT_S)["setup_s"] for _ in range(SETUP_PROBES)]
        work = _spawn(
            [
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            DEADLINE_S - (time.monotonic() - started),
            hash_seed=args.seed,
        )
    except WorkerFailed as exc:
        print(f"{args.workload}: worker {exc}")
        print(result_line(False, 1, 1, {}, {}))
        return 1
    setup.append(work["setup_s"])

    if args.trace:
        values, units = work["layers"], work["units"]
    else:
        values, units = end_to_end(setup, work), END_TO_END_UNITS
    failed = len(work["failures"])
    _report(args, setup, work, values)
    print(result_line(failed == 0, work["attempted"], failed, values, units))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
