"""One benchmark process: import the program, run a workload, report as JSON.

`run.py` starts this script in a fresh interpreter and passes the
`time.monotonic()` reading it took just before starting it; on Linux that
clock is shared by all processes, so the difference at the end of the
imports is the set-up time of a fresh interpreter.

    worker.py --spawned-at T --setup-only
    worker.py --spawned-at T --workload W --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_program() -> float:
    """Import every analysis module and scipy's solvers; return the clock."""
    sys.path.insert(0, str(ROOT / "src"))
    import scipy.optimize  # noqa: F401  (exactlp imports it lazily on first use)

    from cqap import decompose, exactlp, proofs, queries, rules, shannon, tradeoffs  # noqa: F401

    return time.monotonic()


def main() -> int:
    ready = _import_program()
    import argparse
    import hashlib
    import json
    import resource
    import statistics

    parser = argparse.ArgumentParser()
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    setup_s = ready - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import layers
    import spans
    import workloads

    corpus = ROOT / "corpus"
    reference = json.loads((HERE / "references.json").read_text())[args.workload]
    tds = {
        name: workloads.count_tds(corpus, name)
        for name, ref in reference.items()
        if isinstance(ref, dict) and "tds" in ref
    }
    # timed passes until --seconds have elapsed, at least one
    runs = []
    started = time.perf_counter()
    while not runs or time.perf_counter() - started < args.seconds:
        tracer = spans.Tracer() if args.trace else None
        if tracer is not None:
            layers.install(tracer)
        try:
            seconds, outputs = workloads.run_pass(args.workload, corpus, args.seed, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        runs.append((seconds, outputs, tracer))

    # every reference comparison and proof re-validation is one operation,
    # and so is each pass's comparison with the first pass
    attempted, failures = 0, []
    first = json.dumps(runs[0][1], sort_keys=True)
    for i, (_, outputs, _) in enumerate(runs):
        checked, bad = workloads.check(outputs, reference, tds)
        attempted += checked + 1
        failures += bad
        if json.dumps(outputs, sort_keys=True) != first:
            failures.append(f"pass {i} outputs differ from pass 0")
    sides = [s for out in runs[0][1].values() for s in out.get("sides", ())]
    result = {
        "setup_s": setup_s,
        "analysis_s": [r[0] for r in runs],
        "attempted": attempted,
        "failures": failures,
        "sides": len(sides),
        "sides_certified": sum(s["certified"] for s in sides),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": hashlib.sha256(first.encode()).hexdigest()[:16],
    }
    if args.trace:
        per_pass = [layers.metrics(tr, seconds) for seconds, _, tr in runs]
        result["layers"] = {
            key: statistics.median(m[key] for m in per_pass) for key in layers.METRICS
        }
        result["units"] = layers.METRICS
        tracer = runs[0][2]
        result["requests"] = {
            req: {key: counts[key] for key in layers.REQUEST_COUNTS}
            for req, counts in tracer.counts.items()
            if req
        }
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        doc = {"workload": args.workload, "seed": args.seed, **tracer.to_json()}
        trace_file.write_text(json.dumps(doc))
        result["trace_file"] = str(trace_file.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
