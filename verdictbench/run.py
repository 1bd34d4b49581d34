"""Benchmark entry point: run one workload, check every output, print metrics.

    python3 verdictbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs in its own single-threaded worker process.  With
``--trace 0`` the run also starts set-up-only workers and prints the
end-to-end metrics; with ``--trace 1`` it prints the per-layer metrics of
a fixed op list traced from outside (see tracing.py).  Outputs are
checked by check.py in this process, which never imports gring.  Times
are the workers' CPU time in reference seconds (see calibrate.py); the
plain CPU and wall-clock figures go to the result file for reference.  The last line of stdout is the result
object; the full record goes to ``verdictbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("ideal_calculus", "properness", "certify", "module_arith")
SETUP_PROBES = 8  # set-up-only workers per run, besides the measured one
DEADLINE_S = 170  # every worker ends within this many seconds of the start

sys.path.insert(0, HERE)
from check import check_records  # noqa: E402


def start_worker(workload, seed, seconds, mode, started):
    t0 = time.monotonic()
    remaining = DEADLINE_S - (t0 - started)
    proc = subprocess.run(
        [sys.executable, WORKER, workload, str(seed), str(seconds), mode, repr(t0)],
        capture_output=True,
        text=True,
        timeout=max(remaining, 1),
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker failed:\n{proc.stderr[-4000:]}")
    records, summary = [], None
    for line in proc.stdout.splitlines():
        item = json.loads(line)
        if "record" in item:
            records.append(item["record"])
        else:
            summary = item["summary"]
    return records, summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()

    if not os.path.isfile(os.path.join(ROOT, "src", "gring", "__init__.py")):
        print(f"gring sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    mode = "trace" if args.trace else "run"
    probes = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probes.append(start_worker(args.workload, args.seed, 0, "setup", started)[1])
    records, summary = start_worker(args.workload, args.seed, args.seconds, mode, started)
    probes.append(summary)
    setups = [p["setup_s"] for p in probes]

    failures = check_records(args.workload, records, args.seed)
    times = summary["op_times"]
    if args.trace:
        measured = summary["trace"]["metrics"]
        wanted = spec["per_layer"]
    else:
        measured = {
            "verdicts_per_s": len(records) / sum(times),
            "verdict_s.p50": statistics.median(times),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": summary["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": not failures,
        "attempted": len(times),
        "failed": len(summary["failures"]),
        "metrics": metrics,
    }

    os.makedirs(RESULTS, exist_ok=True)
    detail = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        kernel=summary["kernel"],
        python=summary["python"],
        cpu_count=summary["cpu_count"],
        setup_samples=setups,
        unnormalized={
            clock: {
                "verdicts_per_s": len(records) / sum(summary[f"op_{clock}"]),
                "verdict_s.p50": statistics.median(summary[f"op_{clock}"]),
                "setup_s": statistics.median(p[f"setup_{clock}_s"] for p in probes),
            }
            for clock in ("cpu", "wall")
        },
        check_failures=failures[:50],
        op_failures=summary["failures"][:10],
        trace_detail=summary.get("trace"),
    )
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS, name), "w") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    for msg in failures[:10]:
        print("CHECK FAILED:", msg)
    if args.trace:
        print("untraced hooks:", summary["trace"]["untraced"] or "none")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
