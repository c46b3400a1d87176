"""Calls per operation of every function and closure in interpreter.py.

Usage, from the root of a checkout:

    python tools/closure_calls.py [--seed N]

Sets up perfbench's judge and grow workloads in this process, through
their own `Judge` and `Grow` classes, then runs one judge sweep (each
cell of its shuffled sweep once) and one grow cycle (EPISODES episodes
into an empty knowledge base) under cProfile. Set-up, with its warm-up,
runs before the profiler starts. For each workload it prints the
profiled calls per operation over every function, then the calls per
operation of each function and closure of src/rrlang/interpreter.py
that ran, keyed `name:line` (the line of its `def`), since closures
share names. Call counts do not depend on the host's speed, so two
commits compare on one seed. An operation whose workload check fails
is counted and makes the exit status 1; the tool gates nothing else.
"""

from __future__ import annotations

import argparse
import cProfile
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
INTERPRETER = str(ROOT / "src" / "rrlang" / "interpreter.py")


def profile(workload, ops: int) -> tuple[Counter, int]:
    """Calls of each (file, line, name) over ops operations from operation
    0, and how many of them failed the workload's own check. Each
    record's __init__ is named after its class (``IntExpr.__init__``), so
    the copies of one ``ir._inits`` template count apart."""
    failed = 0
    profiler = cProfile.Profile()
    for i in range(ops):
        profiler.enable()
        out = workload.op(i)
        profiler.disable()
        failed += not workload.check(i, out)
    calls: Counter = Counter()
    for entry in profiler.getstats():
        code = entry.code
        key = ("~", 0, code) if isinstance(code, str) else (
            code.co_filename, code.co_firstlineno, code.co_name
        )
        calls[key] += entry.callcount
    return calls, failed


def report(name: str, calls: Counter, ops: int, failed: int) -> None:
    total = sum(calls.values())
    print(f"{name}: {ops} operations, {failed} failed, {total / ops:.1f} calls per operation")
    rows = sorted(
        (n / ops, f"{func}:{line}") for (path, line, func), n in calls.items() if path == INTERPRETER
    )
    for per_op, key in reversed(rows):
        print(f"  {per_op:10.1f}  {key}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from grow import EPISODES, Grow
    from judge import Judge

    failures = 0
    judge = Judge(ROOT, args.seed)
    judge.setup()
    calls, failed = profile(judge, len(judge.sweep))
    report("judge", calls, len(judge.sweep), failed)
    failures += failed
    grow = Grow(ROOT, args.seed)
    grow.setup()
    calls, failed = profile(grow, EPISODES)
    report("grow", calls, EPISODES, failed)
    failures += failed
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
