"""Nine benchmark scenes probing what a knowledge base can count,
fetch, compare, and conserve.

Each task is one row of the table `_TASKS`, keyed by task id: its
description, a seed -> world builder, the domain the request comes
from, the query, the check that judges a run, and the runner. The
runner resolves the best available route for the knowledge it is
given: a class operation when one is accessible, otherwise a recorded
episode that fits the scene. It stops early by raising `_Stop` with an
Outcome, which `run` returns, or hands the trace, value and world after
to the row's check, which `Task.success` applies to the same world.
Driver units for the errand, bus, and conservation scenarios are task
apparatus; they are injected at run time and never stored in a
knowledge base.

Outcome separates two failure modes. Inaccessible means the knowledge
base could not even be applied: the needed operation is missing,
access is denied, or the scene's objects are nominally rejected while
binding. Failed means the attempt ran and went wrong.
"""

from __future__ import annotations

from typing import Callable, Sequence

from . import dsl, interpreter as itp, ir
from .interpreter import (
    EntityVal,
    ExecResult,
    IntVal,
    SeqVal,
    TraceEvent,
    World,
)
from .ir import record

# Sizes for the candy-heap comparison; the scenario only fixes that
# they differ slightly.
T9_HEAP_SIZES: tuple[int, int] = (7, 8)


class UnknownTaskId(ValueError):
    pass


@record
class Outcome:
    kind: str  # Solved | Failed | Inaccessible
    reason: str = ""

    @staticmethod
    def solved() -> "Outcome":
        return Outcome("Solved", "")

    @staticmethod
    def failed(reason: str) -> "Outcome":
        return Outcome("Failed", reason)

    @staticmethod
    def inaccessible(reason: str = "") -> "Outcome":
        return Outcome("Inaccessible", reason)


@record
class PrincipleReport:
    one_to_one: bool
    stable_order: bool
    cardinality: bool


@record
class Task:
    id: str
    seed: int
    description: str
    world: World
    caller_domain: str
    query: tuple[str, str, tuple[str, ...]]  # target unit, operation, argument hints

    def success(
        self, trace: Sequence[TraceEvent], value: object, world_after: World | None
    ) -> bool:
        """Whether a run that left (trace, value, world after) solves
        this task in its own world; the runner judges by the same check."""
        return _TASKS[self.id].check(self.world, trace, value, world_after)[0]


# ---------------------------------------------------------------------------
# Worlds

def _world(
    seed: int,
    arrangement: str,
    *groups: tuple[str, str, int],
    room: bool = True,
) -> World:
    """A scene holding each (kind, container, count) group in turn, all
    in one arrangement. Ids number on across groups of the same kind."""
    entities: dict[str, tuple[str, str | None]] = {
        "ME": ("Person", None),
        "HAND": ("Hand", None),
    }
    if room:
        entities["ROOM1"] = ("Room", None)
        entities["TABLE1"] = ("Table", None)
    containers: dict[str, tuple[str, ...]] = {}
    numbered: dict[str, int] = {}
    for kind, container, count in groups:
        start = numbered.get(kind, 0) + 1
        ids = tuple(f"{kind.upper()}{i}" for i in range(start, start + count))
        for eid in ids:
            entities[eid] = (kind, container)
        containers[container] = ids
        numbered[kind] = start + count - 1
    return World(entities, dict.fromkeys(containers, arrangement), containers, seed)


def training_world() -> World:
    """The fixed scene every counting episode was recorded in."""
    return _world(0, "Line", ("Apple", "apples", 3))


def _not_apples(seed: int) -> World:
    kind, container = ("Pencil", "pencils") if seed % 2 == 0 else ("Cup", "cups")
    return _world(seed, "Line", (kind, container, 2 + seed % 15))


def _bananas(seed: int) -> World:
    count = (5, 7, 9, 11, 4, 6, 8, 10)[seed % 8]
    return _world(seed, "Scattered", ("Banana", "Bananaset", count), room=False)


# ---------------------------------------------------------------------------
# Principles

def check_principles(trace: Sequence[TraceEvent], world: World) -> PrincipleReport:
    """Read the counting principles off one trace.

    The targets are the world's first container. Order and object
    irrelevance have no flag of their own: they are these three flags
    holding over runs that differ in order or in object kind."""
    targets = next(iter(world.containers.values()), ())
    pointed = [e.arg for e in trace if e.verb == "PointedTo"]
    said = [e.arg for e in trace if e.verb == "Said"]
    one_to_one = sorted(pointed) == sorted(targets)
    stripped = said[:-1] if len(said) >= 2 and said[-1] == said[-2] else said
    stable_order = stripped == list(ir.NUMERALS[: len(stripped)])
    cardinality = bool(
        said and targets and len(targets) <= len(ir.NUMERALS)
        and said[-1] == ir.NUMERALS[len(targets) - 1]
    )
    return PrincipleReport(
        one_to_one=one_to_one,
        stable_order=stable_order,
        cardinality=cardinality,
    )


# ---------------------------------------------------------------------------
# Checks. Each takes (world, trace, value, world after), returns
# (ok, reason), and never raises; the world is the task's own.

def _count_check(world: World, trace, value, world_after) -> tuple[bool, str]:
    targets = next(iter(world.containers.values()), ())
    report = check_principles(trace, world)
    if not report.one_to_one:
        return False, "did not point at each object exactly once"
    if not report.stable_order:
        return False, "count words were out of order"
    if not report.cardinality:
        return False, "did not state the total"
    if (
        value is not None
        and not isinstance(value, itp.Nothing)
        and value != IntVal(len(targets))
    ):
        return False, "returned the wrong count"
    return True, ""


def _fetch_check(world: World, trace, value, world_after) -> tuple[bool, str]:
    if any(e.verb == "Said" and e.arg == "ERROR" for e in trace):
        return False, "announced an error instead of fetching"
    took = [e.arg for e in trace if e.verb == "TookAway"]
    if len(took) != 5 or len(set(took)) != 5:
        return False, f"fetched {len(took)} bananas instead of 5"
    before = len(world.containers["Bananaset"])
    after = (
        len(world_after.containers.get("Bananaset", ()))
        if world_after is not None
        else -1
    )
    if after != before - 5:
        return False, "the heap does not reflect the fetch"
    return True, ""


def _figures_check(world: World, trace, value, world_after) -> tuple[bool, str]:
    if not trace:
        return False, "nothing was fetched to compare"
    if any(e.verb == "Said" and e.arg == "ERROR" for e in trace):
        return False, "gave up while fetching"
    from_a = set(world.containers["group_a"])
    from_b = set(world.containers["group_b"])
    took_a = sum(1 for e in trace if e.verb == "TookAway" and e.arg in from_a)
    took_b = sum(1 for e in trace if e.verb == "TookAway" and e.arg in from_b)
    if (took_a, took_b) != (5, 7):
        return False, "fetched the wrong amounts"
    return True, ""


def _seats_check(world: World, trace, value, world_after) -> tuple[bool, str]:
    seats = world.containers["Seats_of_Car"]
    passengers = set(world.containers["Passengers"])
    if value != IntVal(len(seats)):
        return False, "misjudged how many can sit"
    if any(e.verb == "PointedTo" and e.arg in passengers for e in trace):
        return False, "recounted the passengers one by one"
    return True, ""


def _conservation_check(world: World, trace, value, world_after) -> tuple[bool, str]:
    moved = [e.seq for e in trace if e.verb == "Moved"]
    if not moved:
        return False, "never registered the rearrangement"
    last_move = moved[-1]
    if any(e.verb == "PointedTo" and e.seq > last_move for e in trace):
        return False, "recounted after the rearrangement"
    if value != IntVal(len(world.containers["apples"])):
        return False, "lost track of the total"
    return True, ""


def _heaps_check(world: World, trace, value, world_after) -> tuple[bool, str]:
    heap_a = world.containers["heap_a"]
    heap_b = world.containers["heap_b"]
    quiet_bound = min(len(heap_a), len(heap_b))
    saids = sum(1 for e in trace if e.verb == "Said")
    if saids >= quiet_bound:
        return False, "counted the heaps aloud instead of matching"
    surplus = [e.arg for e in trace if e.verb == "PointedTo"]
    if not surplus:
        return False, "judged the heaps equal"
    if all(arg in heap_b for arg in surplus):
        bigger = "heap_b"
    elif all(arg in heap_a for arg in surplus):
        bigger = "heap_a"
    else:
        return False, "pointed across both heaps"
    truth = "heap_b" if len(heap_b) > len(heap_a) else "heap_a"
    if bigger != truth:
        return False, "picked the smaller heap"
    return True, ""


def _judged(task: Task, trace, value=None, world_after=None):
    """The task's check on what a run left behind, as an Outcome with
    the trace it judged. The only place a check becomes an Outcome."""
    ok, reason = _TASKS[task.id].check(task.world, trace, value, world_after)
    return (Outcome.solved() if ok else Outcome.failed(reason)), trace


# ---------------------------------------------------------------------------
# Route plumbing

_DRIVER_FIXTURES = {
    "FetchErrand": "fetch_objects",
    "BusBoarding": "bus_seats",
    "NumberConservation": "conservation",
}
_driver_cache: dict[str, ir.ConceptUnit] = {}


def _driver(name: str) -> ir.ConceptUnit:
    unit = _driver_cache.get(name)
    if unit is None:
        for candidate in dsl.load_fixture(_DRIVER_FIXTURES[name]):
            _driver_cache[candidate.name] = candidate
        unit = _driver_cache[name]
    return unit


def _class_with_op(kb: Sequence[ir.ConceptUnit], op_name: str) -> ir.ConceptUnit | None:
    for unit in kb:
        if unit.kind is ir.UnitKind.CLASS and unit.name != ir.GLOBALS_UNIT:
            for op in unit.operations:
                if op.name == op_name:
                    return unit
    return None


def _unit_named(kb: Sequence[ir.ConceptUnit], name: str) -> ir.ConceptUnit | None:
    for unit in kb:
        if unit.name == name:
            return unit
    return None


class _Stop(Exception):
    """A runner's early end, raised as _Stop(outcome, trace so far). Only
    `run` catches it, and returns the pair."""


def _callable(task: Task, cls: ir.ConceptUnit, op_name: str) -> ir.ConceptUnit:
    """cls, when the task's caller may call op_name on it; otherwise stop
    Inaccessible with the access reason."""
    access = ir.check_access(task.caller_domain, f"<{task.caller_domain}>", cls, op_name)
    if not access:
        raise _Stop(Outcome.inaccessible(access.reason), ())
    return cls


def _offering(
    task: Task, kb: Sequence[ir.ConceptUnit], op_name: str, missing: str
) -> ir.ConceptUnit:
    """The first class with op_name, which the task's caller must be
    allowed to call; with none, stop Inaccessible saying what is missing."""
    cls = _class_with_op(kb, op_name)
    if cls is None:
        raise _Stop(Outcome.inaccessible(missing), ())
    return _callable(task, cls, op_name)


def _attempt(
    run: Callable[..., ExecResult], *args, so_far: Sequence[TraceEvent] = ()
) -> ExecResult:
    """Call run (itp.execute or itp.replay_instance) on args, stopping
    with the trace so far on an error. Access and binding problems mean
    the knowledge does not apply here; anything past that point is a
    failed attempt."""
    try:
        return run(*args)
    except (itp.AccessViolation, itp.BindingMismatch) as exc:
        raise _Stop(Outcome.inaccessible(str(exc)), _shift_trace(so_far)) from None
    except itp.ExecError as exc:
        raise _Stop(Outcome.failed(str(exc)), _shift_trace(so_far)) from None


def _replay_candidate(
    kb: Sequence[ir.ConceptUnit], world: World
) -> ir.ConceptUnit | None:
    """A recording applies when every entity it names is in the scene."""
    for unit in kb:
        if unit.kind is not ir.UnitKind.INSTANCE:
            continue
        needed = [
            attr.const.value
            for attr in unit.attributes
            if attr.is_const
            and attr.const.is_symbol
            and attr.type_ref not in ir.TOKEN_TYPES
            and attr.type_ref not in ir.SCALAR_TYPES
            and not ir.is_collection_type(attr.type_ref)
        ]
        if all(eid in world.entities for eid in needed):
            return unit
    return None


def _count_once(
    task: Task, kb: Sequence[ir.ConceptUnit], world: World, so_far: Sequence[TraceEvent] = ()
) -> ExecResult:
    """Produce a count of the world's first container by whatever the
    knowledge base offers: a counting operation, or a fitting replay.
    A recount repeats lookups that passed on the same entities, so only
    its attempt can stop, with the trace so far."""
    unit = _class_with_op(kb, "Counting")
    if unit is not None:
        _callable(task, unit, "Counting")
        return _attempt(
            itp.execute, kb, unit, "Counting", [], world, task.caller_domain, so_far=so_far
        )
    instance = _replay_candidate(kb, world)
    if instance is None:
        raise _Stop(Outcome.inaccessible("no concept or recording covers this scene"), ())
    return _attempt(itp.replay_instance, kb, instance, world, so_far=so_far)


def _shift_trace(
    base: Sequence[TraceEvent], *parts: Sequence[TraceEvent] | str
) -> tuple[TraceEvent, ...]:
    """Concatenate traces, renumbering; a bare verb string becomes a
    harness-inserted event."""
    events = list(base)
    for part in parts:
        if isinstance(part, str):
            events.append(TraceEvent(len(events) + 1, part, None))
        else:
            for e in part:
                events.append(TraceEvent(len(events) + 1, e.verb, e.arg))
    return tuple(events)


# ---------------------------------------------------------------------------
# Runners. Each takes (task, units), raises _Stop when the knowledge does
# not apply or the attempt raised, and otherwise ends in _judged.

def _run_driver(task: Task, kb: Sequence[ir.ConceptUnit]):
    """Run the driver unit and operation the task's query names,
    injected beside the knowledge base."""
    name, op, _ = task.query
    driver = _driver(name)
    result = _attempt(
        itp.execute, [*kb, driver], driver, op, [], task.world, task.caller_domain
    )
    return _judged(task, result.trace, result.value, result.world)


def _run_count(task: Task, kb: Sequence[ir.ConceptUnit]):
    result = _count_once(task, kb, task.world)
    return _judged(task, result.trace, result.value, result.world)


def _fetch_args(
    kb: Sequence[ir.ConceptUnit], cls: ir.ConceptUnit, world: World, container: str, k: int
) -> list[itp.Value]:
    op = cls.operation("FetchObjects")
    p0 = op.params[0].type_ref if len(op.params) == 2 else None
    if p0 in ir.SET_TYPES:
        members = world.containers[container]
        return [SeqVal([EntityVal(e) for e in members]), IntVal(k)]
    if p0 == "Set" and _unit_named(kb, "Set") is not None:
        return [itp.build_unit_value(kb, "Set", world, container), IntVal(k)]
    raise _Stop(Outcome.inaccessible("the fetch routine takes foreign arguments"), ())


def _run_fetch_five(task: Task, kb: Sequence[ir.ConceptUnit]):
    cls = _offering(task, kb, "FetchObjects", "no fetch routine at this level")
    op = cls.operation("FetchObjects")
    if op.params and op.params[0].type_ref == "Set" and _unit_named(kb, "Set"):
        return _run_driver(task, kb)
    args = _fetch_args(kb, cls, task.world, "Bananaset", 5)
    result = _attempt(
        itp.execute, kb, cls, "FetchObjects", args, task.world, task.caller_domain
    )
    return _judged(task, result.trace, result.value, result.world)


def _run_compare_figures(task: Task, kb: Sequence[ir.ConceptUnit]):
    # Direct route: a public numeral order answers without fetching.
    ordinal = _unit_named(kb, "OrdinalNumber")
    if ordinal is not None:
        access = ir.check_access(
            task.caller_domain, f"<{task.caller_domain}>", ordinal, "numlist"
        )
        attr = ordinal.attribute("numlist") if access else None
        if attr is not None and attr.is_const and attr.const.is_symbols:
            order = attr.const.value
            if "FIVE" in order and "SEVEN" in order:
                if order.index("SEVEN") > order.index("FIVE"):
                    return Outcome.solved(), ()
                raise _Stop(Outcome.failed("picked the smaller figure"), ())
    cls = _offering(task, kb, "FetchObjects", "no way to weigh figures at this level")
    args_a = _fetch_args(kb, cls, task.world, "group_a", 5)
    first = _attempt(
        itp.execute, kb, cls, "FetchObjects", args_a, task.world, task.caller_domain
    )
    args_b = _fetch_args(kb, cls, first.world, "group_b", 7)
    second = _attempt(
        itp.execute, kb, cls, "FetchObjects", args_b, first.world, task.caller_domain,
        so_far=first.trace,
    )
    return _judged(task, _shift_trace(first.trace, second.trace))


def _run_seat_match(task: Task, kb: Sequence[ir.ConceptUnit]):
    if _class_with_op(kb, "Can_Match_Discretely") is None or _unit_named(kb, "Set") is None:
        raise _Stop(
            Outcome.inaccessible("discrete matching needs the decomposed concepts"), ()
        )
    return _run_driver(task, kb)


def _run_conservation(task: Task, kb: Sequence[ir.ConceptUnit]):
    if _unit_named(kb, "Set") is not None and _class_with_op(kb, "Counting") is not None:
        return _run_driver(task, kb)
    # No conservation knowledge: count, watch the rearrangement, and see
    # whether the answer survives without a recount.
    first = _count_once(task, kb, task.world)
    moved = _shift_trace(first.trace, "Moved")
    w = task.world
    rearranged = World(w.entities, {"apples": "Circle"}, w.containers, w.rng_seed)
    second = _count_once(task, kb, rearranged, so_far=moved)
    return _judged(task, _shift_trace(moved, second.trace), second.value, second.world)


def _with_primary(world: World, container: str) -> World:
    reordered = {container: world.containers[container]}
    for name, members in world.containers.items():
        if name != container:
            reordered[name] = members
    return World(world.entities, world.arrangements, reordered, world.rng_seed)


def _run_heap_compare(task: Task, kb: Sequence[ir.ConceptUnit]):
    mapper = _class_with_op(kb, "OneToOneMap")
    if (
        mapper is not None
        and _unit_named(kb, "Set") is not None
        and [p.type_ref for p in mapper.operation("OneToOneMap").params] == ["Set", "Set"]
    ):
        _callable(task, mapper, "OneToOneMap")
        set_a = itp.build_unit_value(kb, "Set", task.world, "heap_a")
        set_b = itp.build_unit_value(kb, "Set", task.world, "heap_b")
        trace = _attempt(
            itp.execute, kb, mapper, "OneToOneMap", [set_a, set_b], task.world,
            task.caller_domain,
        ).trace
    else:
        counter = _offering(task, kb, "Counting", "no concept can compare heaps yet")
        first = _attempt(
            itp.execute, kb, counter, "Counting", [], _with_primary(task.world, "heap_a"),
            task.caller_domain,
        )
        second = _attempt(
            itp.execute, kb, counter, "Counting", [], _with_primary(task.world, "heap_b"),
            task.caller_domain, so_far=first.trace,
        )
        trace = _shift_trace(first.trace, second.trace)
    return _judged(task, trace)


# ---------------------------------------------------------------------------
# The battery

@record
class _Row:
    """One task: its description, a seed -> world builder, the caller
    domain (None: the name of the world's first container), the query,
    the check (world, trace, value, world after) -> (ok, reason), and
    the runner (task, units) -> (Outcome, trace), which may raise _Stop."""

    description: str
    build_world: Callable[[int], World]
    caller_domain: str | None
    query: tuple[str, str, tuple[str, ...]]
    check: Callable
    runner: Callable


_TASKS: dict[str, _Row] = {
    "T1": _Row(
        "count the three apples from training, lined up as always",
        lambda seed: training_world(),
        "apples", ("Counting", "Counting", ()), _count_check, _run_count,
    ),
    "T2": _Row(
        "count the same three apples after they are scattered",
        lambda seed: _world(seed, "Scattered", ("Apple", "apples", 3)),
        "apples", ("Counting", "Counting", ()), _count_check, _run_count,
    ),
    "T3": _Row(
        "count a line of apples of unfamiliar size",
        lambda seed: _world(seed, "Line", ("Apple", "apples", 4 + seed % 17)),
        "apples", ("Counting", "Counting", ()), _count_check, _run_count,
    ),
    "T4": _Row(
        "count objects that are not apples",
        _not_apples,
        None, ("Counting", "Counting", ()), _count_check, _run_count,
    ),
    "T5": _Row(
        "bring exactly five bananas",
        _bananas,
        "tasks", ("FetchErrand", "BringFive", ()), _fetch_check, _run_fetch_five,
    ),
    "T6": _Row(
        "say which is more, five or seven",
        lambda seed: _world(
            seed, "Scattered", ("Marble", "group_a", 8), ("Marble", "group_b", 9),
            room=False,
        ),
        "tasks", ("OrdinalNumber", "numlist", ("FIVE", "SEVEN")),
        _figures_check, _run_compare_figures,
    ),
    "T7": _Row(
        "decide whether every passenger can get a seat",
        lambda seed: _world(
            seed, "Line", ("Seat", "Seats_of_Car", 10), ("Child", "Passengers", 10),
            room=False,
        ),
        "tasks", ("BusBoarding", "HowManyCanSit", ()), _seats_check, _run_seat_match,
    ),
    "T8": _Row(
        "recognize that rearranging sixteen apples does not change their number",
        lambda seed: _world(seed, "Square", ("Apple", "apples", 16)),
        "apples", ("NumberConservation", "SumAfterRearrange", ()),
        _conservation_check, _run_conservation,
    ),
    "T9": _Row(
        "judge which candy heap is bigger without counting aloud",
        lambda seed: _world(
            seed, "Scattered",
            ("Candy", "heap_a", T9_HEAP_SIZES[0]), ("Candy", "heap_b", T9_HEAP_SIZES[1]),
            room=False,
        ),
        "tasks", ("Counting", "OneToOneMap", ("heap_a", "heap_b")),
        _heaps_check, _run_heap_compare,
    ),
}

TASK_IDS: tuple[str, ...] = tuple(_TASKS)


def build_task(task_id: str, seed: int = 0) -> Task:
    """Deterministic task from (id, seed); T1 ignores the seed so its
    world stays bit for bit the training scene."""
    row = _TASKS.get(task_id)
    if row is None:
        raise UnknownTaskId(f"unknown task id {task_id!r}")
    world = row.build_world(seed)
    caller_domain = row.caller_domain or next(iter(world.containers))
    return Task(task_id, seed, row.description, world, caller_domain, row.query)


def run(
    task: Task,
    kb: Sequence[ir.ConceptUnit],
    level: ir.Level | None = None,
) -> tuple[Outcome, tuple[TraceEvent, ...]]:
    """Attempt one task and judge the result, returning the outcome and
    the trace it was judged on. With a level given, only that level's
    slice of kb (``ir.kb_by_level``) is consulted."""
    units = list(kb) if level is None else ir.kb_by_level(kb)[level]
    try:
        outcome, trace = _TASKS[task.id].runner(task, units)
    except _Stop as stop:
        outcome, trace = stop.args
    return outcome, tuple(trace)


def run_task(
    task: Task,
    kb: Sequence[ir.ConceptUnit],
    level: ir.Level | None = None,
) -> Outcome:
    """Attempt one task and judge the result; `run` without the trace."""
    return run(task, kb, level)[0]
