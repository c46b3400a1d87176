"""judge: score the canonical knowledge base on the task battery.

One operation is `tasks.build_task(t, seed)` plus `tasks.run_task` on
one level slice of `KnowledgeBase.canonical()`. A sweep covers the 9
tasks x 4 levels x SEED_BLOCKS blocks of 17 consecutive seeds, each
block starting at a base drawn from the workload seed; 17 consecutive
seeds cover every T3 size (4-20), T4 size (2-16) and T5 banana count
(4-11), and several blocks average out how the seed's random order
changes the cost of a cell. The sweep is shuffled once and repeated
until the run's time is up.

This is where the interpreter is hot: a handful of units are executed
thousands of times, while dsl parses only the three driver fixtures
and kb and redescription stay idle.
"""

from __future__ import annotations

import contextlib
import io
import random
from pathlib import Path

import reference
from common import CAL_REF_NS, calibrate, peak_rss_mb

SEEDS_PER_BLOCK = 17
SEED_BLOCKS = 3
SWEEPS_PER_WINDOW = 4  # 7344 operations: enough for a p99 with 10 beyond


class Judge:
    calibrate = staticmethod(calibrate)
    cal_ref_ns = CAL_REF_NS

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed

    def setup(self) -> None:
        from rrlang import kb, tasks

        self.tasks = tasks
        rng = random.Random(self.seed)
        self.bases = bases = [rng.randrange(1_000_000) for _ in range(SEED_BLOCKS)]
        slices = kb.KnowledgeBase.canonical().kb_by_level()
        self.slices = {level.name: units for level, units in slices.items()}
        self.sweep = [
            (task, level, seed)
            for task in reference.TASKS
            for level in reference.LEVELS
            for base in bases
            for seed in range(base, base + SEEDS_PER_BLOCK)
        ]
        rng.shuffle(self.sweep)
        self.window = self.stride = SWEEPS_PER_WINDOW * len(self.sweep)
        self.traced_ops = self.window  # the traced pass is one window
        self.expected = [reference.expected_outcome(*cell) for cell in self.sweep]
        # Warm-up: every (task, level) once, which also loads the three
        # driver fixtures the task runners parse on first use.
        for task in reference.TASKS:
            for level in reference.LEVELS:
                tasks.run_task(tasks.build_task(task, bases[0]), self.slices[level])

    def op(self, i: int):
        task, level, seed = self.sweep[i % len(self.sweep)]
        tasks = self.tasks
        return tasks.run_task(tasks.build_task(task, seed), self.slices[level])

    def check(self, i: int, outcome) -> bool:
        return outcome.kind == self.expected[i % len(self.expected)]

    def verify(self):
        """Trace bytes of the frozen sample cells, through the public CLI
        entry point in this process."""
        from rrlang import cli

        checks = []
        for (task, level, seed), digest in reference.TRACE_SHA256.items():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["trace", "--task", task, "--level", level, "--seed", str(seed)])
            ok = code == 0 and reference.sha256(out.getvalue().encode()) == digest
            checks.append((f"trace {task}/{level}/{seed}", ok, f"exit {code}"))
        exceptions = sum(
            1 for task, level, seed in self.sweep
            if task == "T5" and level in ("E2", "E3") and seed % 8 == 4
        )
        lines = [
            f"sweep: {len(self.sweep)} cells over seeds "
            + ", ".join(f"{b}..{b + SEEDS_PER_BLOCK - 1}" for b in self.bases)
            + f"; {exceptions} T5 exception cells (E2/E3, seed % 8 == 4, expected Failed)"
        ]
        return checks, lines

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def install(self, tracer, install) -> None:
        install(tracer)

    def traced_extras(self, tracer):
        """One canonical knowledge base and its level slices, the work
        set-up does before the tracer is installed."""
        from rrlang import kb

        kb.KnowledgeBase.canonical().kb_by_level()
        return [], tracer.metrics()
