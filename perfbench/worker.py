"""One workload in one process: set up, say READY, run the timed
closed loop, check, and print a JSON result as the last stdout line:
the files holding the raw and scaled latency of every operation
(common.stash), failures, peak memory and, with --trace 1, the per-layer metrics of a traced pass over a
fixed amount of work (the workload's `traced_ops` operations from
operation 0), so per-layer totals compare across commits.

Started by run.py with the pinned environment; with --setup-only it
exits right after READY, so run.py can time several set-ups.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from array import array
from pathlib import Path

from common import CAL_SEGMENT_S, stash


def _workload(name: str):
    if name == "judge":
        from judge import Judge as cls
    elif name == "grow":
        from grow import Grow as cls
    else:
        from clirun import CliRun as cls
    return cls


def timed_loop(workload, seconds: float, first: int = 0, count: int | None = None):
    """Closed loop, one client: the next operation starts when the last
    one is done. Stops at the first window boundary past the deadline,
    so every run covers whole windows, or, given `count`, after exactly
    that many operations. A calibration runs after every CAL_SEGMENT_S
    of operations (and once before the first). Returns raw latencies
    (array of ns), the same latencies scaled to the reference speed,
    failures and the next operation index."""
    clock = time.perf_counter_ns
    raw = array("q")
    ends: list[int] = []  # index one past each segment's last op
    calibrations = [workload.calibrate()]
    failed = 0
    i = first
    deadline = time.perf_counter() + seconds
    segment_end = clock() + int(CAL_SEGMENT_S * 1e9)
    while True:
        start = clock()
        out = workload.op(i)
        raw.append(clock() - start)
        if not workload.check(i, out):
            failed += 1
        i += 1
        if count is not None:
            done = i - first == count
        else:
            done = (not workload.window or i % workload.window == 0) and time.perf_counter() >= deadline
        if done or clock() >= segment_end:
            ends.append(len(raw))
            calibrations.append(workload.calibrate())
            segment_end = clock() + int(CAL_SEGMENT_S * 1e9)
            if done:
                return raw, _scaled(raw, ends, calibrations, workload.cal_ref_ns), failed, i


def _scaled(raw, ends: list[int], calibrations: list[int], ref_ns: int) -> array:
    """Segment k lies between calibrations k and k+1; its latencies are
    scaled by the reference time over the mean of those two."""
    scaled = array("q")
    begin = 0
    for k, end in enumerate(ends):
        factor = 2 * ref_ns / (calibrations[k] + calibrations[k + 1])
        scaled.extend(round(ns * factor) for ns in raw[begin:end])
        begin = end
    return scaled


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("judge", "grow", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--part", type=int, default=0,
                        help="index of this measuring process; it starts part * stride ops in")
    parser.add_argument("--final", action="store_true",
                        help="also run the workload's closing checks")
    args = parser.parse_args()

    root = Path.cwd()
    workload = _workload(args.workload)(root, args.seed)
    workload.setup()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    untraced_s = args.seconds / 2 if args.trace else args.seconds
    raw, scaled, failed, _ = timed_loop(workload, untraced_s, args.part * workload.stride)
    checks, lines = workload.verify() if args.final else ([], [])
    result = {
        "raw": stash(root, "raw", raw),
        "scaled": stash(root, "scaled", scaled),
        "failed": failed,
        "peak_rss_mb": workload.peak_rss_mb(),
        "checks": checks,
        "lines": lines,
        "window": workload.window,
    }
    if args.trace:
        from tracer import Tracer, install

        tracer = Tracer()
        workload.install(tracer, install)
        _, traced, traced_failed, _ = timed_loop(workload, 0, 0, workload.traced_ops)
        traced_checks, layer = workload.traced_extras(tracer)
        result["traced"] = stash(root, "traced", traced)
        result["failed"] += traced_failed
        result["checks"] += traced_checks
        result["layer"] = layer
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
