"""cli: one `rrlang` process at a time, as a shell user runs it.

One operation is one child `python -m rrlang.cli ...`, timed from spawn
to exit, drawn from a seeded mix of `run`, `trace`, `matrix --diff`,
`parse <fixture>` and `verbalize <E3 unit>` against the built-in
fixtures. Every invocation imports the package and, except `parse`,
parses the canonical fixture chain, so import and small parses
dominate: the opposite use of dsl from grow's thousands of parses in
one process.

Checks per command:
- run: the outcome line matches the reference table, and the trace
  file it leaves has the frozen digest of `rrlang trace` for that cell
  (so it equals the trace output); the file is then deleted;
- trace: stdout has the frozen digest;
- matrix --diff: exit 0 and the "matches golden" line;
- parse: stdout reproduces the fixture byte for byte;
- verbalize: stdout has the frozen digest.
Every command must exit 0 with empty stderr.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from pathlib import Path

import reference
from common import CAL_REF_NS, SPAWN_REF_NS, calibrate, peak_rss_mb, pinned_env, spawn_ns

# Commands per block of 20; each block is shuffled, so every run has
# the same mix and only the order depends on the seed.
MIX = {"run": 5, "trace": 5, "matrix": 3, "parse": 4, "verbalize": 3}
MIX_BLOCKS = 10
MIX_LENGTH = MIX_BLOCKS * sum(MIX.values())
POOL_CELLS = 10  # run/trace cells, drawn from the digest sample
TRACED_BLOCKS = 2  # the traced pass: the first two blocks of the mix
CHILD_TIMEOUT_S = 60


class CliRun:
    cal_ref_ns = CAL_REF_NS + SPAWN_REF_NS

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.window = None  # a run is too few children to split
        self.stride = MIX_LENGTH // 4  # measuring processes go on through the mix
        self.traced_ops = TRACED_BLOCKS * sum(MIX.values())

    def setup(self) -> None:
        rng = random.Random(self.seed)
        cells = rng.sample(sorted(reference.TRACE_SHA256), POOL_CELLS)
        fixtures = sorted((self.root / "src" / "rrlang" / "fixtures").glob("*.rr"))
        self.fixture_bytes = {
            str(path.relative_to(self.root)): path.read_bytes() for path in fixtures
        }
        kinds = []
        for _ in range(MIX_BLOCKS):
            block = [kind for kind, n in MIX.items() for _ in range(n)]
            rng.shuffle(block)
            kinds += block
        self.commands = []
        for kind in kinds:
            if kind in ("run", "trace"):
                key = rng.choice(cells)
                task, level, seed = key
                argv = [kind, "--task", task, "--level", level, "--seed", str(seed)]
            elif kind == "matrix":
                key, argv = None, ["matrix", "--diff"]
            elif kind == "parse":
                key = rng.choice(sorted(self.fixture_bytes))
                argv = ["parse", key]
            else:
                key = rng.choice(sorted(reference.VERBALIZE_SHA256))
                argv = ["verbalize", key]
            self.commands.append((kind, key, argv))
        self.env = pinned_env(self.root)
        self.tmp = Path(self.env["TMPDIR"])
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.tracer = None
        warm, _ = self._spawn(["matrix", "--diff"])
        if warm.returncode != 0:
            raise RuntimeError(f"warm-up child failed: {warm.stderr.decode(errors='replace')}")

    def calibrate(self) -> int:
        return calibrate() + spawn_ns(self.env)

    def op(self, i: int):
        return self._spawn(self.commands[i % len(self.commands)][2])

    def _spawn(self, argv: list[str]):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "rrlang.cli", *argv]
        else:
            cmd = [sys.executable, str(Path(__file__).with_name("cli_shim.py")), str(self.stats), *argv]
        start = time.perf_counter_ns()
        proc = subprocess.run(
            cmd, cwd=self.root, env=self.env, capture_output=True, timeout=CHILD_TIMEOUT_S
        )
        return proc, time.perf_counter_ns() - start

    def check(self, i: int, out) -> bool:
        proc, wall_ns = out
        if self.tracer is not None:
            self._collect(wall_ns)
        kind, key, _ = self.commands[i % len(self.commands)]
        if proc.returncode != 0 or proc.stderr:
            return False
        if kind == "run":
            return self._check_run(key, proc.stdout.decode())
        if kind == "trace":
            return reference.sha256(proc.stdout) == reference.TRACE_SHA256[key]
        if kind == "matrix":
            return proc.stdout.decode() == reference.MATRIX_DIFF_STDOUT
        if kind == "parse":
            return proc.stdout == self.fixture_bytes[key]
        return reference.sha256(proc.stdout) == reference.VERBALIZE_SHA256[key]

    def _check_run(self, key, stdout: str) -> bool:
        task, level, seed = key
        lines = stdout.splitlines()
        if len(lines) != 2 or not lines[1].startswith("trace: "):
            return False
        path = Path(lines[1][len("trace: "):])
        if path.parent.resolve() != self.tmp.resolve():
            return False  # never touch a file outside the benchmark's TMPDIR
        try:
            written = path.read_bytes()
        except OSError:
            return False
        finally:
            path.unlink(missing_ok=True)
        verdict = f"{task} at {level} (seed {seed}): {reference.expected_outcome(task, level, seed)}"
        return (
            (lines[0] == verdict or lines[0].startswith(verdict + " ("))
            and path.name.startswith(f"rr-{task}-{level}-")
            and path.suffix == ".tsv"
            and reference.sha256(written) == reference.TRACE_SHA256[key]
        )

    def verify(self):
        leftovers = sorted(p.name for p in self.tmp.glob("rr-*.tsv"))
        checks = [("run leaves no trace files behind", not leftovers, " ".join(leftovers[:3]))]
        lines = [
            "mix per 20 commands: " + " ".join(f"{k}={n}" for k, n in MIX.items()),
            f"cli worker's own peak {peak_rss_mb():.1f} MB, the floor of peak_rss_mb",
        ]
        return checks, lines

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(children=True)

    # -- traced run ----------------------------------------------------

    def install(self, tracer, install) -> None:
        """Traced children are the shim, which installs the tracer in
        the child and reports its spans through a stats file."""
        self.tracer = tracer
        self.stats = self.tmp / "shim-stats.json"
        self.traced_children = 0
        self.import_ms: list[float] = []
        self.spawn_ms: list[float] = []

    def _collect(self, wall_ns: int) -> None:
        self.traced_children += 1
        try:
            stats = json.loads(self.stats.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        finally:
            self.stats.unlink(missing_ok=True)
        self.tracer.merge(stats["state"])
        self.import_ms.append(stats["import_ns"] / 1e6)
        self.spawn_ms.append((wall_ns - stats["import_ns"] - stats["main_ns"]) / 1e6)

    def traced_extras(self, tracer):
        import statistics

        reported = len(self.import_ms)
        checks = [(
            "every traced child reported its spans",
            reported == self.traced_children,
            f"{reported} of {self.traced_children}",
        )]
        layer = tracer.metrics()
        layer["cli.import_ms"] = (statistics.median(self.import_ms), "ms")
        layer["cli.spawn_ms"] = (statistics.median(self.spawn_ms), "ms")
        return checks, layer
