"""Line coverage of src/rrlang under the test suite, with the stdlib only.

Usage, from the root of a checkout:

    python tools/line_coverage.py [pytest arguments...]

Runs pytest in this process (default arguments: -q -p no:cacheprovider
--hypothesis-seed=0 tests) under a sys.settrace line tracer, then
prints, for each module of src/rrlang, how many of its executable lines
never ran and which. The fixed seed makes hypothesis draw the same
inputs every run, so counts from two commits can be compared.
A line is executable when the compiled module maps some instruction to
it. The tracer is installed before rrlang is imported, so module-level
lines count. The tool gates nothing: its exit status is pytest's, and CI
fails the step when the total exceeds the limit its workflow sets.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rrlang"


def executable_lines(path: Path) -> set[int]:
    """Every line some instruction of the module's code objects maps to."""
    lines: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(lines: list[int]) -> str:
    """'3, 7-9, 12' for [3, 7, 8, 9, 12]."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(PACKAGE) + "/"
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def start(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        hits.setdefault(filename, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(start)
    sys.settrace(start)
    try:
        status = pytest.main(
            argv or ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", str(ROOT / "tests")]
        )
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed_total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - hits.get(str(path), set()))
        total += len(lines)
        missed_total += len(missed)
        print(f"{path.name}: {len(missed)} of {len(lines)} lines never ran")
        if missed:
            print(f"    {ranges(missed)}")
    print(f"total: {missed_total} of {total} lines never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
