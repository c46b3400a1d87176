"""Level by task capability matrix, plus a verbalizer for the level
that can talk about itself.

The golden matrix records which of the nine tasks each level of the
canonical counting chain handles. It was produced by running the
harness on the fixture knowledge bases, audited by hand, and then
frozen; compare_expected reports any drift.
"""

from __future__ import annotations

import re
from typing import Mapping, Sequence

from . import ir, tasks
from .tasks import Outcome

DEFAULT_SEEDS: tuple[int, ...] = (0, 1, 2)


class MissingLevel(Exception):
    """A matrix needs units for every level of the chain."""


class NotE3(Exception):
    """Only fully public units can be rendered as language."""


def _expand(rows: Mapping[str, tuple[str, ...]]) -> dict[tuple[str, str], str]:
    cells = {}
    for level_name, row in rows.items():
        for task_id, kind in zip(tasks.TASK_IDS, row):
            cells[(level_name, task_id)] = kind
    return cells


_S, _F, _N = "Solved", "Failed", "Inaccessible"

# Frozen expectation: one row per level, one column per task T1..T9.
GOLDEN: dict[tuple[str, str], str] = _expand({
    "I":  (_S, _F, _F, _N, _N, _N, _N, _F, _N),
    "E1": (_S, _S, _S, _N, _N, _N, _N, _F, _N),
    "E2": (_S, _S, _S, _S, _S, _S, _N, _F, _F),
    "E3": (_S, _S, _S, _S, _S, _S, _S, _S, _S),
})


@ir.record
class CapabilityMatrix:
    cells: dict[tuple[ir.Level, str], Outcome]
    seeds_used: tuple[int, ...]


def build_matrix(
    kb_by_level: Mapping[ir.Level, Sequence[ir.ConceptUnit]],
    seeds: Sequence[int] = DEFAULT_SEEDS,
) -> CapabilityMatrix:
    """Run every task at every level; a cell is Solved only when every
    seed solves it, and otherwise carries the first shortfall."""
    for level in ir.LEVELS:
        if not kb_by_level.get(level):
            raise MissingLevel(f"no units supplied for level {level.name}")
    ordered_seeds = tuple(sorted(set(seeds)))
    cells: dict[tuple[ir.Level, str], Outcome] = {}
    for level in ir.LEVELS:
        units = kb_by_level[level]
        for task_id in tasks.TASK_IDS:
            outcomes = [
                tasks.run_task(tasks.build_task(task_id, seed), units)
                for seed in ordered_seeds
            ]
            shortfall = next((o for o in outcomes if o.kind != "Solved"), None)
            cells[(level, task_id)] = shortfall or Outcome.solved()
    return CapabilityMatrix(cells, ordered_seeds)


def compare_expected(matrix: CapabilityMatrix) -> list[str]:
    """Diff a matrix against the frozen expectation; empty means match."""
    diffs = []
    for level in ir.LEVELS:
        for task_id in tasks.TASK_IDS:
            expected = GOLDEN[(level.name, task_id)]
            got = matrix.cells.get((level, task_id))
            if got is None:
                diffs.append(f"{level.name} {task_id}: missing cell, expected {expected}")
            elif got.kind != expected:
                diffs.append(f"{level.name} {task_id}: got {got.kind}, expected {expected}")
    return diffs


def render_tsv(matrix: CapabilityMatrix) -> str:
    lines = [
        f"{level.name}\t{task_id}\t{matrix.cells[(level, task_id)].kind}"
        for level in ir.LEVELS
        for task_id in tasks.TASK_IDS
        if (level, task_id) in matrix.cells
    ]
    return "\n".join(lines) + "\n"


def render_text(matrix: CapabilityMatrix) -> str:
    width = max(len(k) for k in (_S, _F, _N)) + 2
    header = "level ".ljust(7) + "".join(t.ljust(width) for t in tasks.TASK_IDS)
    lines = [header.rstrip()]
    for level in ir.LEVELS:
        row = level.name.ljust(7)
        for task_id in tasks.TASK_IDS:
            cell = matrix.cells.get((level, task_id))
            row += (cell.kind if cell else "?").ljust(width)
        lines.append(row.rstrip())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Verbalization

def _humanize(name: str) -> str:
    words = []
    for chunk in name.split("_"):
        spaced = re.sub(r"(?<=[a-z0-9])(?=[A-Z])", " ", chunk)
        words.extend(w.lower() for w in spaced.split())
    return " ".join(words)


def verbalize(unit: ir.ConceptUnit) -> str:
    """Render a fully public unit as declarative sentences. Lower
    levels cannot be reported this way and raise NotE3."""
    if unit.level is not ir.Level.E3:
        raise NotE3(f"{unit.name} is at level {unit.level.name}; only E3 can be told")
    lines = [f"{unit.name} is a fully public concept of the {unit.domain} domain."]
    scalar_names = [
        _humanize(a.name)
        for a in unit.attributes
        if not a.is_const and ir.type_kind(a.type_ref) in ("int", "Boolean")
    ]
    for attr in unit.attributes:
        spoken = _humanize(attr.name)
        if isinstance(attr.const, tuple):
            seq = attr.const
            lines.append(
                f"It fixes the {spoken} as the ordered sequence {seq[0]} through {seq[-1]}."
            )
        elif attr.const == "NO_OBLIGATORY":
            lines.append(f"It does not require that {spoken}.")
        elif attr.const == "NO_IMPORTANT":
            lines.append(f"It does not care about {spoken}.")
            if "arrangement" in spoken and scalar_names:
                lines.append(
                    f"Its {scalar_names[0]} does not change when only the arrangement changes."
                )
        elif attr.is_const:
            lines.append(f"It names a fixed {_humanize(attr.type_ref)} {attr.name}.")
        elif ir.is_collection_type(attr.type_ref):
            lines.append(f"It keeps an ordered collection called {attr.name}.")
        elif ir.type_kind(attr.type_ref) == "agent":
            lines.append(f"It acts through a {_humanize(attr.type_ref)} called {attr.name}.")
        elif ir.type_kind(attr.type_ref) in ("int", "Boolean"):
            lines.append(f"It tracks a number called the {spoken}.")
        else:
            lines.append(f"It holds a {_humanize(attr.type_ref)} called {attr.name}.")
    declared = [op for op in unit.operations if not op.implicit]
    if declared:
        for op in declared:
            params = ", ".join(f"{p.type_ref} {p.name}" for p in op.params)
            if op.returns in (None, "void"):
                lines.append(f"It can {op.name}({params}).")
            else:
                lines.append(f"It can {op.name}({params}), returning {op.returns}.")
    else:
        lines.append("It declares no operations of its own.")
    return "\n".join(lines) + "\n"
