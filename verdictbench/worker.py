"""One workload in one single-threaded process.

Usage (started by run.py):

    python3 worker.py WORKLOAD SEED SECONDS MODE T0

MODE is ``setup`` (stop before the first operation), ``run`` (time whole
rounds until their operations have taken SECONDS of wall time) or
``trace`` (run a fixed list of rounds untraced, then again under the
tracer).  T0 is the parent's ``time.monotonic()`` just before it started
this process.

Times are this process's CPU time (``time.process_time``): the worker is
single-threaded and does no I/O between the start of its interpreter and
the end of its last operation, so its CPU time is its wall time less the
time the host kept the virtual CPU from it.  Set-up time is the CPU time
from process creation, so it covers interpreter start.  After set-up, and
in ``run`` mode between operations, the worker also measures the machine's
current speed with calibrate.py's reference blocks, and reports times in
reference seconds (see calibrate.py); CPU and wall times are reported
alongside.

Each operation's output record is written to stdout as one JSON line
after the operation, outside its timed interval; the last line is the
summary.
"""

from __future__ import annotations

import json
import os
import random
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402


def emit(kind, payload):
    sys.stdout.write(json.dumps({kind: payload}) + "\n")


class Timings:
    """Per-op CPU and wall time, failures, and (when calibrated) the CPU
    time and count of the reference blocks run after each op."""

    def __init__(self, calibrated=False):
        self.calibrator = calibrate.Calibrator() if calibrated else None
        self.cpu, self.wall, self.failures = [], [], []
        self.cal_cpu, self.cal_blocks = [], []

    def run_ops(self, ops, run=lambda call: call()):
        """Time each operation; returns their outputs (None if failed)."""
        outs = []
        for op in ops:
            wall, start = time.perf_counter(), time.process_time()
            try:
                out = run(op.call)
            except Exception:  # a failed operation is counted, not fatal
                out = None
                self.failures.append(traceback.format_exc(limit=3))
            cpu = time.process_time() - start
            self.wall.append(time.perf_counter() - wall)
            self.cpu.append(cpu)
            outs.append(out)
            if self.calibrator:
                spent, blocks = self.calibrator.after(cpu)
                self.cal_cpu.append(spent)
                self.cal_blocks.append(blocks)
        return outs


def emit_records(ops, outs):
    for op, out in zip(ops, outs):
        if out is not None:
            emit("record", op.record(out))


def main(argv):
    workload, seed, seconds, mode, t0 = argv
    seconds, t0 = float(seconds), float(t0)

    import gring
    from workloads import ROUNDS, TRACE_ROUNDS, ring_setup

    rng = random.Random(int(seed))
    make_round = ROUNDS[workload](rng)
    ring_setup()
    ops = make_round(first=True)
    setup_cpu, setup_wall = time.process_time(), time.monotonic() - t0
    block_s = calibrate.measure(calibrate.SETUP_BLOCKS) / calibrate.SETUP_BLOCKS
    summary = {
        "setup_s": setup_cpu * calibrate.REF_BLOCK_S / block_s,
        "setup_cpu_s": setup_cpu,
        "setup_wall_s": setup_wall,
        "kernel": gring.kernel_backend(),
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
    }
    timings = Timings(calibrated=mode == "run")
    if mode == "run":
        while True:
            emit_records(ops, timings.run_ops(ops))
            # The run length is wall time, so a run's duration does not
            # depend on how much CPU the host grants it.
            if sum(timings.wall) >= seconds:
                break
            ops = make_round()
        summary["op_times"] = calibrate.normalize(
            timings.cpu, timings.cal_cpu, timings.cal_blocks)
    elif mode == "trace":
        from tracing import Tracer

        for _ in range(TRACE_ROUNDS[workload] - 1):
            ops = ops + make_round()
        plain_outs = timings.run_ops(ops)
        plain_s = sum(timings.cpu)
        tracer = Tracer()
        tracer.install()
        try:
            traced_outs = timings.run_ops(ops, tracer.run_op)
        finally:
            tracer.uninstall()
        emit_records(ops, plain_outs)
        emit_records(ops, traced_outs)
        metrics = tracer.metrics()
        metrics["trace.overhead_ratio"] = (sum(timings.cpu) - plain_s) / plain_s
        summary["trace"] = {"metrics": metrics, "untraced": tracer.untraced}
        summary["op_times"] = timings.cpu
    else:
        summary["op_times"] = []
    summary.update(
        op_cpu=timings.cpu,
        op_wall=timings.wall,
        failures=timings.failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    emit("summary", summary)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
