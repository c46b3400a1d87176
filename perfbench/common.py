"""Helpers shared by the orchestrator, the worker and the workloads."""

from __future__ import annotations

import gc
import math
import os
import resource
import subprocess
import sys
import time
from array import array
from pathlib import Path

# Percentiles op_tail_ms may report, highest first. The tail is the
# highest of these with at least TAIL_BEYOND samples above it.
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
TAIL_BEYOND = 10

# Host contention on a shared box moves plain wall times by +-30% over
# tens of seconds. Timings are therefore scaled to a reference speed:
# a fixed pure-Python calibration runs between segments of operations,
# and each latency is multiplied by CAL_REF_NS / (mean of the two
# calibration times around its segment). CAL_REF_NS is the
# calibration's time on a quiet 2-core x86-64 box with CPython 3.11, so
# scaled figures read as that box's milliseconds. Raw figures are
# printed alongside.
CAL_REF_NS = 12_000_000
CAL_SEGMENT_S = 0.25

# Process start-up moves with host load differently from pure-Python
# work. Where the timed thing is a whole process (a cli operation, a
# set-up), the calibration adds the wall time of a bare interpreter
# child (`python -c pass`, nothing of rrlang). In a 240-child probe,
# cli child times over this combined calibration varied a third as
# much as over the pure-Python one alone. SPAWN_REF_NS is the bare
# child's time on the reference box, taken as three times the
# calibration, the ratio measured there.
SPAWN_REF_NS = 36_000_000


def scratch(root: Path) -> Path:
    """Everything a run writes lives here, inside the checkout."""
    return root / ".bench_build" / "perfbench"


def pinned_env(root: Path) -> dict[str, str]:
    """Environment for every Python process the benchmark starts.

    The package is not installed, so children find it on PYTHONPATH.
    Bytecode caching is on, under a benchmark-owned prefix that set-up
    warms, because a user's installed copy has warm caches; an exported
    PYTHONDONTWRITEBYTECODE would otherwise make every import compile.
    Temporary files (`rrlang run` traces) land in the scratch directory.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONPYCACHEPREFIX"] = str(scratch(root) / "pycache")
    env["TMPDIR"] = str(scratch(root) / "tmp")
    return env


def describe_env(root: Path) -> str:
    rel = lambda p: os.path.relpath(p, root)
    env = pinned_env(root)
    return (
        f"python={sys.executable} ({sys.version.split()[0]}) "
        f"PYTHONPATH={rel(env['PYTHONPATH'])} "
        f"PYTHONPYCACHEPREFIX={rel(env['PYTHONPYCACHEPREFIX'])} "
        f"TMPDIR={rel(env['TMPDIR'])} PYTHONDONTWRITEBYTECODE=unset"
    )


def stash(root: Path, name: str, latencies: array) -> str:
    """Hand latencies to the orchestrator through a file, which
    `unstash` reads and deletes. As a JSON list they would cost the
    worker memory in proportion to its operation count, and so move
    its peak_rss_mb with throughput."""
    path = scratch(root) / "tmp" / f"{os.getpid()}-{name}.q"
    with open(path, "wb") as handle:
        latencies.tofile(handle)
    return str(path)


def unstash(path: str) -> array:
    latencies = array("q")
    latencies.frombytes(Path(path).read_bytes())
    Path(path).unlink()
    return latencies


def tail(latencies_ns: list[int]) -> tuple[float, float]:
    """(percentile, latency in ms) at the highest ladder percentile that
    leaves at least TAIL_BEYOND samples above it; nearest-rank."""
    ordered = sorted(latencies_ns)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100 * n)
        if n - rank >= TAIL_BEYOND:
            return pct, ordered[rank - 1] / 1e6
    return 50.0, ordered[math.ceil(n / 2) - 1] / 1e6


def central_ms(latencies_ns) -> float:
    """Median latency, smoothed: the mean of the 45th-55th percentile
    band. judge's fixed mix puts the plain median on a step between two
    clusters of cells, where it jumps by 10% on noise alone."""
    ordered = sorted(latencies_ns)
    n = len(ordered)
    band = ordered[int(0.45 * n):max(int(0.45 * n) + 1, math.ceil(0.55 * n))]
    return sum(band) / len(band) / 1e6


def latency_summary(runs: list[list[int]], window: int | None) -> dict:
    """Summary of the latencies of one or more worker processes.

    Each process's operations are cut into windows of `window` (None:
    all processes pooled form one window); throughput and tail are
    taken per window and reported as the median over windows, so a
    burst of outside load or one unlucky process moves one window, not
    the run. The central latency is taken over all operations."""
    import statistics  # here, not at the top: the cli worker stays small
    if window:
        windows = [
            run[i:i + window] for run in runs for i in range(0, len(run) - window + 1, window)
        ]
    else:
        windows = [[ns for run in runs for ns in run]]
    tails = [tail(w) for w in windows]
    pct = tails[0][0]
    size = len(windows[0])
    return {
        "ops": sum(len(run) for run in runs),
        "windows": len(windows),
        "ops_per_s": statistics.median(len(w) / (sum(w) / 1e9) for w in windows),
        "op_p50_ms": central_ms([ns for run in runs for ns in run]),
        "op_tail_ms": statistics.median(ms for _, ms in tails),
        "tail_pct": pct,
        "tail_beyond": size - math.ceil(pct / 100 * size),
    }


class _Node:
    __slots__ = ("kind", "kids", "val")

    def __init__(self, kind, kids, val):
        self.kind, self.kids, self.val = kind, kids, val


def _build(depth: int, i: int) -> _Node:
    if depth == 0:
        return _Node("leaf", (), i)
    return _Node("add" if i % 2 else "mul", (_build(depth - 1, i + 1), _build(depth - 1, i + 2)), None)


def _evaluate(node: _Node, env: dict) -> int:
    if node.kind == "leaf":
        return env.get(node.val % 7, 1)
    a, b = _evaluate(node.kids[0], env), _evaluate(node.kids[1], env)
    return (a + b) % 1_000_003 if node.kind == "add" else (a * b) % 1_000_003


def calibrate() -> int:
    """Time a fixed piece of interpreter-bound work (tree building and
    walking, dict and string churn), with the collector off so the
    caller's heap does not change it. Nothing of rrlang runs here."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        env = {i: i + 2 for i in range(7)}
        acc = 0
        for i in range(30):
            acc += _evaluate(_build(9, i), env)
            names = {f"k{j}": [j, str(j)] for j in range(200)}
            acc += sum(len(v[1]) for v in names.values())
        return time.perf_counter_ns() - start
    finally:
        if enabled:
            gc.enable()


def spawn_ns(env: dict[str, str]) -> int:
    """Wall time of a bare interpreter child with the given environment."""
    start = time.perf_counter_ns()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, capture_output=True)
    return time.perf_counter_ns() - start


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident memory of this process, or the largest of its
    waited-for children's.

    Linux carries ru_maxrss across exec, so a process's ru_maxrss also
    holds the resident size of whoever spawned it: a worker's would
    hold the orchestrator's, which grows with the results it has read.
    A process's own peak is therefore VmHWM, which starts afresh at
    exec. Children only have ru_maxrss, so theirs reads at least their
    spawner's peak: the cli worker keeps its imports light (no hashlib,
    no statistics) to stay below an rrlang child, and prints its own
    peak as the floor.
    """
    if not children:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024  # kB
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is KiB on Linux
