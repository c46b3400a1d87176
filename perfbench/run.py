"""rrlang benchmark: one workload, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload judge|grow|cli --seed N --seconds S --trace 0|1

Builds nothing: the package is pure Python and runs from src/. Each run
warms the bytecode cache, times SETUP_SAMPLES set-ups of the workload in
fresh processes (the measuring workers among them), measures, and
prints the metrics with their units, then one JSON line: with --trace 0
the end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics. See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import (
    CAL_REF_NS, SPAWN_REF_NS, calibrate, describe_env, latency_summary, pinned_env, scratch,
    spawn_ns, unstash,
)

SETUP_SAMPLES = 9
MEASURE_PROCESSES = 4
WORKER_TIMEOUT_S = 150
HERE = Path(__file__).resolve().parent


class BenchError(Exception):
    pass


def spawn_worker(root: Path, args, seconds: float, *flags: str) -> tuple[float, str]:
    """Start a worker, time it from spawn to READY, and return that time
    with the rest of its stdout."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--trace", str(args.trace), *flags,
    ]
    start = time.perf_counter()
    with subprocess.Popen(
        cmd, cwd=root, env=pinned_env(root), stdout=subprocess.PIPE, text=True
    ) as proc:
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{args.workload} worker ran past {WORKER_TIMEOUT_S} s")
        if ready.strip() != "READY" or proc.returncode != 0:
            raise BenchError(f"{args.workload} worker failed (exit {proc.returncode})")
    return setup_s, rest


def measure(root: Path, args) -> tuple[float, float, list[dict]]:
    """Time SETUP_SAMPLES set-ups and run the measuring workers: one
    traced worker, or MEASURE_PROCESSES untraced ones sharing the run's
    seconds, the last of which also runs the closing checks. Each set-up
    is scaled by a calibration taken right before it: the pure-Python
    one plus a bare interpreter child, since a set-up starts a process.
    Returns the scaled and raw median set-up time and the workers'
    results."""
    measuring = 1 if args.trace else MEASURE_PROCESSES
    env = pinned_env(root)
    scaled: list[float] = []
    raw: list[float] = []
    results: list[dict] = []
    for k in range(SETUP_SAMPLES):
        part = k - (SETUP_SAMPLES - measuring)
        if part < 0:
            flags, seconds = ["--setup-only"], args.seconds
        else:
            flags = ["--part", str(part)] + (["--final"] if part == measuring - 1 else [])
            seconds = args.seconds / measuring
        factor = (CAL_REF_NS + SPAWN_REF_NS) / (calibrate() + spawn_ns(env))
        setup_s, output = spawn_worker(root, args, seconds, *flags)
        raw.append(setup_s)
        scaled.append(setup_s * factor)
        if part >= 0:
            result = json.loads(output.strip().splitlines()[-1])
            for key in ("raw", "scaled", "traced"):
                if key in result:
                    result[key] = unstash(result[key])
            results.append(result)
    return statistics.median(scaled), statistics.median(raw), results


def warm_bytecode(root: Path) -> None:
    done = subprocess.run(
        [sys.executable, "-c", "import rrlang.cli"],
        cwd=root, env=pinned_env(root), capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        raise BenchError(f"cannot import rrlang from src/: {done.stderr.strip()}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("judge", "grow", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "rrlang" / "cli.py").is_file():
        print("perfbench: run from the root of an rrlang checkout (no src/rrlang here)",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    (scratch(root) / "tmp").mkdir(parents=True, exist_ok=True)
    warm_bytecode(root)
    setup_s, raw_setup_s, results = measure(root, args)
    window = results[0]["window"]
    summary = latency_summary([r["scaled"] for r in results], window)
    raw = latency_summary([r["raw"] for r in results], window)
    failed = sum(r["failed"] for r in results)
    checks = [check for r in results for check in r["checks"]]
    attempted = summary["ops"] + len(checks) + (len(results[0]["traced"]) if args.trace else 0)
    failed += sum(1 for _, ok, _ in checks if not ok)
    peak_rss_mb = max(r["peak_rss_mb"] for r in results)

    mode = "traced" if args.trace else "untraced"
    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s, {mode}")
    print(f"env: {describe_env(root)}")
    print(f"timings scaled to the reference speed (raw wall-clock figures in brackets); "
          f"{len(results)} measuring process(es)")
    print(f"setup_s       {setup_s:.4f} s    [{raw_setup_s:.4f}]  median of {SETUP_SAMPLES} set-ups")
    print(f"ops_per_s     {summary['ops_per_s']:.2f} 1/s  [{raw['ops_per_s']:.2f}]"
          f"  {summary['ops']} ops, median over {summary['windows']} windows")
    print(f"op_p50_ms     {summary['op_p50_ms']:.4f} ms   [{raw['op_p50_ms']:.4f}]"
          "  mean of the 45th-55th percentile band")
    print(f"op_tail_ms    {summary['op_tail_ms']:.4f} ms   [{raw['op_tail_ms']:.4f}]"
          f"  p{summary['tail_pct']:g} of each window ({summary['tail_beyond']} samples beyond),"
          " median over windows")
    print(f"error_ratio   {failed / attempted:g}      ({failed} failed of {attempted} attempted)")
    print(f"peak_rss_mb   {peak_rss_mb:.1f} MB")
    for line in results[-1]["lines"]:
        print(line)
    for name, ok, detail in checks:
        if not ok:
            print(f"CHECK FAILED: {name} {detail}")
    print(f"checks: {sum(ok for _, ok, _ in checks)} of {len(checks)} passed")

    if args.trace:
        traced = latency_summary([results[0]["traced"]], window)
        overhead = summary["ops_per_s"] / traced["ops_per_s"] - 1
        print(f"tracing overhead: {summary['ops_per_s']:.2f} ops/s untraced, "
              f"{traced['ops_per_s']:.2f} traced ({overhead:+.1%})")
        metrics = {name: tuple(value) for name, value in results[0]["layer"].items()}
        metrics["tracing.overhead_pct"] = (overhead * 100, "%")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (summary["ops_per_s"], "1/s"),
            "op_p50_ms": (summary["op_p50_ms"], "ms"),
            "op_tail_ms": (summary["op_tail_ms"], "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    differ = set(metrics) ^ {entry["name"] for entry in wanted}
    if differ:
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(differ)}")
    for entry in wanted:
        value, unit = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise BenchError(f"{entry['name']} measured in {unit}, BENCHMARK.json says {entry['unit']}")
        if args.trace:
            print(f"  {entry['name']:<42} {value:.6g} {unit}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            entry["name"]: {"value": metrics[entry["name"]][0], "unit": entry["unit"]}
            for entry in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
