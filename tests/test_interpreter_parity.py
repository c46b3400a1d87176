"""Compiled bodies reproduce the frozen tree-walker results.

interpreter_parity.tsv holds, for every (task, level) at seeds 0-16,
the outcome kind, the reason, the sha256 of the trace and the steps of
each `execute` the run made. It was generated by the tree-walking
interpreter before tiered execution existed, so it is the reference
compiled bodies are held to. Regenerate it only for an intended change
of behaviour:

    PYTHONPATH=src python tests/test_interpreter_parity.py

Every cell runs twice on the same fresh copies of the canonical units:
the first run compiles each body on its first call, the second runs
the compiled bodies throughout. The tree walker itself is gone; its
frozen outcomes below and in the TSV stay the reference.
"""

from __future__ import annotations

import copy
import hashlib
import random
import sys
from pathlib import Path

import pytest

from rrlang import interpreter as itp, ir, kb as kbmod, tasks

DATA = Path(__file__).with_name("interpreter_parity.tsv")
TASK_IDS = ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "T9")
LEVELS = ("I", "E1", "E2", "E3")
SEEDS = range(17)
HEADER = (
    "# Frozen tree-walker results: one line per (task, level, seed).\n"
    "# Generated by the tree-walking interpreter at commit 9004fef, before\n"
    "# tiered execution, with: PYTHONPATH=src python tests/test_interpreter_parity.py\n"
    "# Columns: task, level, seed, outcome kind, sha256 of the TSV trace,\n"
    "# steps of each execute in call order (!Error for a raising call), reason.\n"
)


def fresh(units):
    """Copies of units that have never run: no Operation holds a compiled
    body, no statement a kept closure and no name a kept reader."""
    return copy.deepcopy(list(units))


def record(task_id, seed, units):
    """Run one cell, noting the steps (or error) of every execute."""
    steps = []
    real = itp.execute

    def counting_execute(*args, **kwargs):
        try:
            result = real(*args, **kwargs)
        except itp.ExecError as exc:
            steps.append("!" + type(exc).__name__)
            raise
        steps.append(str(result.steps))
        return result

    itp.execute = counting_execute  # replay_instance calls it through the module too
    try:
        outcome, trace = tasks.run(tasks.build_task(task_id, seed), units)
    finally:
        itp.execute = real
    digest = hashlib.sha256(itp.format_trace(trace).encode()).hexdigest()
    return outcome.kind, digest, ",".join(steps) or "-", outcome.reason


def load_frozen():
    rows = {}
    for line in DATA.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            continue
        task, level, seed, kind, digest, steps, reason = line.split("\t")
        rows[task, level, int(seed)] = (kind, digest, steps, reason)
    return rows


@pytest.fixture(scope="module")
def slices(kb_by_level):
    return {level.name: units for level, units in kb_by_level.items()}


def test_frozen_data_covers_every_cell():
    frozen = load_frozen()
    assert len(frozen) == len(TASK_IDS) * len(LEVELS) * len(SEEDS)
    assert {kind for kind, *_ in frozen.values()} == {"Solved", "Failed", "Inaccessible"}


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("task_id", TASK_IDS)
def test_both_tiers_match_frozen_walker(task_id, level, slices):
    frozen = load_frozen()
    for seed in SEEDS:
        units = fresh(slices[level])
        walked = record(task_id, seed, units)
        compiled = record(task_id, seed, units)
        expected = frozen[task_id, level, seed]
        assert walked == expected, (task_id, level, seed, "first run")
        assert compiled == expected, (task_id, level, seed, "second run")


def _counting_case(slices, level, size):
    units = slices[level]
    target = next(
        u for u in units
        if u.kind is ir.UnitKind.CLASS and any(op.name == "Counting" for op in u.operations)
    )
    domain = "apples" if level == "E1" else "pencils"
    kind, prefix = ("Apple", "APPLE") if level == "E1" else ("Pencil", "PENCIL")
    entities = {"ME": ("Person", None), "HAND": ("Hand", None)}
    ids = tuple(f"{prefix}{i}" for i in range(1, size + 1))
    for eid in ids:
        entities[eid] = (kind, "objects")
    world = itp.World(entities, {"objects": "Line"}, {"objects": ids}, size)
    return units, target.name, world, domain


def _run_counting(units, target_name, world, domain, **kwargs):
    target = next(u for u in units if u.name == target_name)
    return itp.execute(units, target, "Counting", [], world, domain, **kwargs)


@pytest.mark.parametrize("level", ("E1", "E2", "E3"))
def test_step_limit_boundary_on_both_tiers(level, slices):
    for size in range(2, 21):
        units, name, world, domain = _counting_case(slices, level, size)
        steps = _run_counting(fresh(units), name, world, domain).steps

        # first calls: every check on operations that have never run
        assert _run_counting(fresh(units), name, world, domain, step_limit=steps).steps == steps
        with pytest.raises(itp.StepLimitExceeded):
            _run_counting(fresh(units), name, world, domain, step_limit=steps - 1)

        # compiled: the same operations, already run once
        warm = fresh(units)
        _run_counting(warm, name, world, domain)
        counting = next(u for u in warm if u.name == name).operation("Counting")
        result = _run_counting(warm, name, world, domain, step_limit=steps)
        assert itp.compiled_body(counting) is not None
        assert result.steps == steps
        with pytest.raises(itp.StepLimitExceeded):
            _run_counting(warm, name, world, domain, step_limit=steps - 1)


def _probe(raises, body, *, attrs=(), extra_ops=(), others=(), params=()):
    """A unit Probe whose Run executes body, and the name of the error
    Run raises (None when it returns)."""
    run = ir.Operation("Run", tuple(params), None, ir.Visibility.PUBLIC, tuple(body))
    probe = ir.ConceptUnit(
        "Probe", ir.UnitKind.CLASS, ir.Level.E3, "numbers",
        attributes=tuple(attrs), operations=(run, *extra_ops),
    )
    return raises, [probe, *others]


def _attr(name, type_ref, const=None):
    return ir.Attribute(name, type_ref, ir.Visibility.PUBLIC, const)


def _op(name, *body, params=(), visibility=ir.Visibility.PUBLIC):
    return ir.Operation(name, tuple(params), None, visibility, tuple(body))


def _takes(type_ref, arg, **kwargs):
    """A probe whose Run passes arg to Takes(p: type_ref)."""
    return _probe(
        "TypeMismatch",
        [ir.CallStmt(None, "Takes", (arg,))],
        extra_ops=[_op("Takes", params=[ir.Param("p", type_ref)])],
        **kwargs,
    )


_I, _B, _N = ir.IntExpr, ir.BoolExpr, ir.NameExpr
_SECRET = ir.ConceptUnit(
    "Other", ir.UnitKind.CLASS, ir.Level.E3, "elsewhere",
    operations=(_op("Secret", visibility=ir.Visibility.PRIVATE),),
)
_X = _attr("x", "int")
_HIDING_GLOBALS = ir.ConceptUnit(
    ir.GLOBALS_UNIT, ir.UnitKind.CLASS, ir.Level.E3, "elsewhere",
    attributes=(ir.Attribute("secret", "int", ir.Visibility.PRIVATE),),
)
_HOLD = ir.ConceptUnit(
    "Hold", ir.UnitKind.CLASS, ir.Level.E3, "numbers",
    attributes=(_attr("k", "int", 3),), operations=(_op("Get", ir.ReturnStmt(_N("k"))),),
)
_SHARING_GLOBALS = ir.ConceptUnit(
    ir.GLOBALS_UNIT, ir.UnitKind.CLASS, ir.Level.E3, "elsewhere",
    attributes=(
        _attr("words", "intList", ("one", "two")),
        _attr("one", "Sound", "one"),
        _attr("A", "Apple", "APPLE1"),
    ),
)
PROBES = {
    "if-not-boolean": _probe("TypeMismatch", [ir.IfStmt(_I(1), (), ())]),
    "while-not-boolean": _probe("TypeMismatch", [ir.WhileStmt(_I(1), ())]),
    "not-not-boolean": _probe("TypeMismatch", [ir.ReturnStmt(ir.NotExpr(_I(1)))]),
    "plus-not-integer": _probe(
        "TypeMismatch", [ir.ReturnStmt(ir.BinExpr("+", _I(1), _B(True)))]
    ),
    "less-than-nothing": _probe(
        "TypeMismatch", [ir.ReturnStmt(ir.BinExpr("<", ir.NullExpr(), _I(1)))]
    ),
    "unknown-operator": _probe("TypeMismatch", [ir.ReturnStmt(ir.BinExpr("*", _I(2), _I(3)))]),
    "assign-constant": _probe(
        "TypeMismatch", [ir.AssignStmt(_N("K"), _I(2))], attrs=[_attr("K", "int", 1)]
    ),
    "assign-unbound": _probe("UnboundName", [ir.AssignStmt(_N("nowhere"), _I(2))]),
    "read-unbound": _probe("UnboundName", [ir.ReturnStmt(_N("nowhere"))]),
    "field-of-int": _probe("TypeMismatch", [ir.ReturnStmt(ir.FieldExpr(_I(1), "x"))]),
    "set-field-of-int": _probe("TypeMismatch", [ir.AssignStmt(ir.FieldExpr(_I(1), "x"), _I(2))]),
    "call-unknown-unit": _probe("UnboundName", [ir.CallStmt("Nobody", "Op", ())]),
    "call-on-int": _probe("UnboundName", [ir.ReturnStmt(ir.CallExpr(_I(1), "Op", ()))]),
    "call-shadowed-unit": _probe(
        "UnboundName",
        [ir.CallStmt("Other", "Secret", ())], attrs=[_attr("Other", "int")], others=[_SECRET]
    ),
    "call-missing-operation": _probe("UnboundName", [ir.CallStmt(None, "Missing", ())]),
    "call-private": _probe(
        "AccessViolation", [ir.CallStmt("Other", "Secret", ())], others=[_SECRET]
    ),
    "call-arity": _probe(
        "TypeMismatch",
        [ir.ReturnStmt(ir.CallExpr(None, "Takes", (_I(1),)))], extra_ops=[_op("Takes")]
    ),
    "call-param-type": _probe(
        "TypeMismatch",
        [ir.CallStmt(None, "Takes", (_B(True),))],
        extra_ops=[_op("Takes", params=[ir.Param("n", "int")])],
    ),
    # one rejection per parameter type that _check_param distinguishes
    "param-boolean": _takes("Boolean", _I(1)),
    "param-token": _takes("Sound", _I(1)),
    "param-agent-of-another-kind": _takes("Person", _N("A"), attrs=[_attr("A", "APPLE", "APPLE1")]),
    "param-element-not-entity": _takes("APPLE", _I(1)),
    "param-set-not-collection": _takes("APP_Set", _I(1)),
    "param-token-list-of-entities": _takes("intList", ir.ListExpr(("APPLE1",))),
    "param-set-of-tokens": _takes("APP_Set", ir.ListExpr(("one",))),
    "param-set-of-another-kind": _takes("APP_Set", ir.ListExpr(("ME",))),
    "param-unit-of-another-class": _takes(
        "Other", _N("o"), attrs=[_attr("o", "Hiding")],
        others=[_SECRET, ir.replace(_HIDING_GLOBALS, name="Hiding")],
    ),
    "param-unknown-type": _takes("Gizmo", _I(1)),
    "primitive-without-receiver": _probe(
        "TypeMismatch", [ir.ReturnStmt(ir.CallExpr(None, "Next", ()))]
    ),
    "point-to-int": _probe("TypeMismatch", [ir.ActionStmt("PointTo", _I(0), (_I(1),))]),
    "point-to-ghost": _probe(
        "UnboundName",
        [ir.ActionStmt("PointTo", _I(0), (_N("G"),))], attrs=[_attr("G", "APPLE", "GHOST")]
    ),
    "read-private-global": _probe(
        "AccessViolation", [ir.ReturnStmt(_N("secret"))], others=[_HIDING_GLOBALS]
    ),
    "read-private-field": _probe(
        "AccessViolation",
        [ir.ReturnStmt(ir.FieldExpr(_N("o"), "secret"))],
        attrs=[_attr("o", "Hiding")],
        others=[ir.replace(_HIDING_GLOBALS, name="Hiding")],
    ),
    "read-missing-field": _probe(
        "UnboundName",
        [ir.ReturnStmt(ir.FieldExpr(_N("o"), "nowhere"))],
        attrs=[_attr("o", "Hiding")],
        others=[ir.replace(_HIDING_GLOBALS, name="Hiding")],
    ),
    "say-int": _probe("TypeMismatch", [ir.ActionStmt("Say", _I(0), (_I(1),))]),
    "say-nothing": _probe("NumeralsExhausted", [ir.ActionStmt("Say", _I(0), (ir.NullExpr(),))]),
    "next-of-int": _probe("TypeMismatch", [ir.ReturnStmt(ir.CallExpr(_I(0), "Next", ()))]),
    "append-to-int": _probe("TypeMismatch", [ir.ActionStmt("Append", _I(0), (_I(1),))]),
    "first-of-empty": _probe(
        "EmptyCollection", [ir.ReturnStmt(ir.CallExpr(ir.ListExpr(()), "First", ()))]
    ),
    "select-from-empty": _probe(
        "EmptyCollection",
        [ir.ReturnStmt(ir.CallExpr(ir.ListExpr(()), "SelectOneRandom", ()))]
    ),
    "unknown-primitive-statement": _probe(
        "TypeMismatch", [ir.ActionStmt("Juggle", ir.ListExpr(()), ())]
    ),
    "endless-loop": _probe("StepLimitExceeded", [ir.WhileStmt(_B(True), ())]),
    # one probe per primitive error the probes above leave open
    "take-away-uncontained": _probe(
        "UnboundName",
        [ir.ActionStmt("TakeAway", _I(0), (_N("M"),))], attrs=[_attr("M", "Person", "ME")]
    ),
    "take-away-ghost": _probe(
        "UnboundName",
        [ir.ActionStmt("TakeAway", _I(0), (_N("G"),))], attrs=[_attr("G", "APPLE", "GHOST")]
    ),
    "empty-of-int": _probe("TypeMismatch", [ir.ReturnStmt(ir.CallExpr(_I(0), "Empty", ()))]),
    "first-of-int": _probe("TypeMismatch", [ir.ReturnStmt(ir.CallExpr(_I(0), "First", ()))]),
    "delete-from-int": _probe("TypeMismatch", [ir.ActionStmt("Delete", _I(0), (_I(1),))]),
    "select-from-int": _probe(
        "TypeMismatch", [ir.ReturnStmt(ir.CallExpr(_I(0), "SelectOneRandom", ()))]
    ),
    "append-two": _probe(
        "TypeMismatch", [ir.ActionStmt("Append", ir.ListExpr(()), (_I(1), _I(2)))]
    ),
    "delete-two": _probe(
        "TypeMismatch", [ir.ActionStmt("Delete", ir.ListExpr(()), (_I(1), _I(2)))]
    ),
    "next-as-statement": _probe(
        None, [ir.ActionStmt("Next", ir.ListExpr(("APPLE1",)), ())]
    ),
    # compiled-tier paths that no other test runs
    "move-with-two-arguments": _probe(None, [ir.ActionStmt("Move", _I(0), (_I(1), _I(2)))]),
    "bare-return": _probe(
        None, [ir.ReturnStmt(None), ir.ActionStmt("Move", _I(0), ())]
    ),
    "return-inside-while": _probe(
        None, [ir.WhileStmt(_B(True), (ir.ReturnStmt(_I(3)),)), ir.ReturnStmt(_I(4))]
    ),
    "assign-parameter": _probe(
        None,
        [ir.ReturnStmt(ir.CallExpr(None, "Bump", (_I(4),)))],
        extra_ops=[_op(
            "Bump",
            ir.AssignStmt(_N("n"), ir.BinExpr("+", _N("n"), _I(1))),
            ir.ReturnStmt(_N("n")),
            params=[ir.Param("n", "int")],
        )],
    ),
    "not-equal-values": _probe(None, [ir.ReturnStmt(ir.BinExpr("!=", _I(1), _I(2)))]),
    "call-on-attribute": _probe(
        "UnboundName",
        [ir.ReturnStmt(ir.CallExpr(_N("Other"), "Secret", ()))],
        attrs=[_attr("Other", "int")], others=[_SECRET],
    ),
    # the unit value and call errors of a member of the other kind
    "read-operation-as-field": _probe(
        "UnboundName",
        [ir.ReturnStmt(ir.FieldExpr(_N("o"), "Get"))],
        attrs=[_attr("o", "Hold")], others=[_HOLD],
    ),
    "assign-constant-field": _probe(
        "TypeMismatch",
        [ir.AssignStmt(ir.FieldExpr(_N("o"), "k"), _I(2))],
        attrs=[_attr("o", "Hold")], others=[_HOLD],
    ),
    "call-attribute-as-operation": _probe(
        "UnboundName", [ir.CallStmt("Hold", "k", ())], others=[_HOLD]
    ),
    "boolean-local-default": _probe(
        None, [ir.LocalDecl("b", "Boolean"), ir.ReturnStmt(_N("b"))]
    ),
    # a name assigned as an attribute, then declared and assigned as a local
    "late-local-shadows-attribute": _probe(
        None,
        [
            ir.AssignStmt(_N("x"), _I(5)),
            ir.CallStmt(None, "Bump", ()),
            ir.LocalDecl("x", "int"),
            ir.AssignStmt(_N("x"), ir.BinExpr("+", _N("x"), _I(7))),
            ir.ReturnStmt(ir.BinExpr("-", ir.CallExpr(None, "Read", ()), _N("x"))),
        ],
        attrs=[_X],
        extra_ops=[
            _op("Bump", ir.AssignStmt(_N("x"), ir.BinExpr("+", _N("x"), _I(1)))),
            _op("Read", ir.ReturnStmt(_N("x"))),
        ],
    ),
    # a primitive's receiver, then its argument, read as a local that
    # shadows an attribute, a Globals const and a private Globals member
    "receiver-local-shadows-attribute": _probe(
        None,
        [
            ir.LocalDecl("xs", "intList"),
            ir.ActionStmt("Append", _N("xs"), (_I(7),)),
            ir.ReturnStmt(ir.CallExpr(_N("xs"), "First", ())),
        ],
        attrs=[_attr("xs", "intList", ("one", "two"))],
    ),
    "receiver-global-const": _probe(
        None,
        [
            ir.ActionStmt("Next", _N("words"), ()),
            ir.ReturnStmt(ir.CallExpr(_N("words"), "Next", ())),
        ],
        others=[_SHARING_GLOBALS],
    ),
    "receiver-private-global": _probe(
        "AccessViolation",
        [ir.ActionStmt("Append", _N("secret"), (_I(1),))], others=[_HIDING_GLOBALS],
    ),
    "argument-local-shadows-attribute": _probe(
        None,
        [
            ir.LocalDecl("n", "int"),
            ir.ActionStmt("Append", _N("xs"), (_N("n"),)),
            ir.ReturnStmt(ir.CallExpr(_N("xs"), "First", ())),
        ],
        attrs=[_attr("n", "int", 5), _attr("xs", "intList")],
    ),
    "argument-global-const": _probe(
        None,
        [ir.ActionStmt("PointTo", _I(0), (_N("A"),)), ir.ActionStmt("Say", _I(0), (_N("one"),))],
        others=[_SHARING_GLOBALS],
    ),
    "argument-private-global": _probe(
        "AccessViolation", [ir.ActionStmt("Say", _I(0), (_N("secret"),))], others=[_HIDING_GLOBALS]
    ),
    "setup-names-global-const": _probe(
        None,
        [ir.SetupStmt("In", ("ME", "A"))],
        attrs=[_attr("ME", "Person", "ME")], others=[_SHARING_GLOBALS],
    ),
}


# Each probe's outcome, frozen from the tree walker (probes added after it
# was deleted, from the compiled tier): the error class and message, or
# the value's repr, the steps and the TSV trace.
_HIDDEN = "private member of {} (domain 'elsewhere') is hidden from Probe (domain 'numbers')"
PROBE_OUTCOMES = {
    "append-to-int": ("TypeMismatch", "Append needs an ordered collection receiver"),
    "append-two": ("TypeMismatch", "Append takes one element"),
    "argument-global-const": (None, "Nothing", 2, "1\tPointedTo\tAPPLE1\n2\tSaid\tone\n"),
    "argument-local-shadows-attribute": (None, "IntVal(value=0)", 3, ""),
    "argument-private-global": ("AccessViolation", _HIDDEN.format("Globals")),
    "assign-constant": ("TypeMismatch", "Probe.K is constant"),
    "assign-constant-field": ("TypeMismatch", "Hold.k is constant"),
    "assign-parameter": (None, "IntVal(value=5)", 3, ""),
    "assign-unbound": ("UnboundName", "'nowhere' is not assignable in Probe"),
    "bare-return": (None, "Nothing", 1, ""),
    "boolean-local-default": (None, "BoolVal(value=False)", 2, ""),
    "call-arity": ("TypeMismatch", "Probe.Takes takes 0 arguments, got 1"),
    "call-attribute-as-operation": ("UnboundName", "Hold has no operation 'k'"),
    "call-missing-operation": ("UnboundName", "Probe has no member 'Missing'"),
    "call-on-attribute": ("UnboundName", "operation 'Secret' needs a unit receiver"),
    "call-on-int": ("UnboundName", "operation 'Op' needs a unit receiver"),
    "call-param-type": ("TypeMismatch", "Probe.Takes(n: int) does not accept BoolVal"),
    "call-private": ("AccessViolation", _HIDDEN.format("Other")),
    "call-shadowed-unit": ("UnboundName", "unknown unit 'Other'"),
    "call-unknown-unit": ("UnboundName", "unknown unit 'Nobody'"),
    "delete-from-int": ("TypeMismatch", "Delete needs an ordered collection receiver"),
    "delete-two": ("TypeMismatch", "Delete takes one element"),
    "empty-of-int": ("TypeMismatch", "Empty needs an ordered collection receiver"),
    "endless-loop": ("StepLimitExceeded", "exceeded 50 steps"),
    "field-of-int": ("TypeMismatch", "field 'x' needs a unit value receiver"),
    "first-of-empty": ("EmptyCollection", "First on an empty collection"),
    "first-of-int": ("TypeMismatch", "First needs an ordered collection receiver"),
    "if-not-boolean": ("TypeMismatch", "if needs a Boolean condition"),
    "late-local-shadows-attribute": (None, "IntVal(value=-1)", 7, ""),
    "less-than-nothing": ("TypeMismatch", "< needs integer operands"),
    "move-with-two-arguments": (None, "Nothing", 1, "1\tMoved\t\n"),
    "next-as-statement": (None, "Nothing", 1, ""),
    "next-of-int": ("TypeMismatch", "Next needs an ordered collection receiver"),
    "not-equal-values": (None, "BoolVal(value=True)", 1, ""),
    "not-not-boolean": ("TypeMismatch", "! needs a Boolean operand"),
    "param-agent-of-another-kind": (
        "TypeMismatch", "Probe.Takes(p: Person) does not accept a Apple entity"
    ),
    "param-boolean": ("TypeMismatch", "Probe.Takes(p: Boolean) does not accept IntVal"),
    "param-element-not-entity": ("TypeMismatch", "Probe.Takes(p: APPLE) does not accept IntVal"),
    "param-set-not-collection": ("TypeMismatch", "Probe.Takes(p: APP_Set) does not accept IntVal"),
    "param-set-of-another-kind": (
        "TypeMismatch",
        "Probe.Takes(p: APP_Set) does not accept a collection holding Person entities",
    ),
    "param-set-of-tokens": (
        "TypeMismatch", "Probe.Takes(p: APP_Set) does not accept a collection of non-entities"
    ),
    "param-token": ("TypeMismatch", "Probe.Takes(p: Sound) does not accept IntVal"),
    "param-token-list-of-entities": (
        "TypeMismatch", "Probe.Takes(p: intList) does not accept a collection of non-tokens"
    ),
    "param-unit-of-another-class": (
        "TypeMismatch", "Probe.Takes(p: Other) does not accept UnitVal"
    ),
    "param-unknown-type": ("TypeMismatch", "Probe.Takes(p: Gizmo): unknown parameter type"),
    "plus-not-integer": ("TypeMismatch", "+ needs integer operands"),
    "point-to-ghost": ("UnboundName", "PointTo: unknown entity 'GHOST'"),
    "point-to-int": ("TypeMismatch", "PointTo takes one entity"),
    "primitive-without-receiver": ("TypeMismatch", "Next needs a receiver"),
    "read-missing-field": ("UnboundName", "Hiding has no member 'nowhere'"),
    "read-operation-as-field": ("UnboundName", "Hold has no field 'Get'"),
    "read-private-field": ("AccessViolation", _HIDDEN.format("Hiding")),
    "read-private-global": ("AccessViolation", _HIDDEN.format("Globals")),
    "read-unbound": ("UnboundName", "'nowhere' is not bound in Probe"),
    "receiver-global-const": (None, "TokenVal(token='two')", 2, ""),
    "receiver-local-shadows-attribute": (None, "IntVal(value=7)", 3, ""),
    "receiver-private-global": ("AccessViolation", _HIDDEN.format("Globals")),
    "return-inside-while": (None, "IntVal(value=3)", 3, ""),
    "say-int": ("TypeMismatch", "Say takes one sound token"),
    "say-nothing": ("NumeralsExhausted", "the numerals ran out: Say has no count word left"),
    "select-from-empty": ("EmptyCollection", "SelectOneRandom on an empty collection"),
    "select-from-int": (
        "TypeMismatch", "SelectOneRandom needs an ordered collection receiver"
    ),
    "set-field-of-int": ("TypeMismatch", "field 'x' needs a unit value receiver"),
    "setup-names-global-const": (None, "Nothing", 1, ""),
    "take-away-ghost": ("UnboundName", "TakeAway: unknown entity 'GHOST'"),
    "take-away-uncontained": ("UnboundName", "'ME' is not in any container"),
    "unknown-operator": ("TypeMismatch", "unknown operator '*'"),
    "unknown-primitive-statement": ("TypeMismatch", "unknown primitive 'Juggle'"),
    "while-not-boolean": ("TypeMismatch", "while needs a Boolean condition"),
}


@pytest.mark.parametrize("name", sorted(PROBES))
def test_probe_outcomes_match_between_tiers(name):
    """Odd and ill-typed bodies: the first run and the compiled second
    run both report the frozen outcome, to the message and the step."""
    raises, units = PROBES[name]
    units = fresh(units)
    probe = units[0]
    world = itp.World({"ME": ("Person", None), "APPLE1": ("Apple", "a")}, {"a": "Line"},
                      {"a": ("APPLE1",)}, 0)
    outcomes = []
    for _ in range(2):
        try:
            r = itp.execute(units, probe, "Run", [], world, "numbers", step_limit=50)
        except itp.ExecError as exc:
            outcomes.append((type(exc).__name__, str(exc)))
        else:
            outcomes.append((None, repr(r.value), r.steps, itp.format_trace(r.trace)))
    assert itp.compiled_body(probe.operation("Run")) is not None
    assert outcomes[0][0] == raises
    assert outcomes[0] == outcomes[1]
    assert outcomes[0] == PROBE_OUTCOMES[name]


_SCRIPT_WORLD = itp.World(
    {
        "ME": ("Person", None),
        "HAND": ("Hand", None),
        "ROOM1": ("Room", None),
        "TABLE1": ("Table", None),
        "APPLE1": ("Apple", "a"),
        "APPLE2": ("Apple", "a"),
        "PENCIL1": ("Pencil", "p"),
    },
    {"a": "Line", "p": "Square"},
    {"a": ("APPLE1", "APPLE2"), "p": ("PENCIL1",)},
    0,
)
_SCRIPT_ATTRS = (
    _attr("one", "Sound", "one"),
    _attr("ME", "Person", "ME"),
    _attr("ROOM1", "Room", "ROOM1"),
    _attr("TABLE1", "Table", "TABLE1"),
    _attr("APPLE1", "Apple", "APPLE1"),
    _attr("APPLE2", "Apple", "APPLE2"),
    _attr("PENCIL1", "Pencil", "PENCIL1"),
    _attr("GHOST", "Apple", "GHOST"),
    _attr("HAND", "Hand", "HAND"),
)


def _script(*body, attrs=(), params=(), others=()):
    """A script probe: a body of setup facts and actions over named
    scene entities, the shape of a level I recording."""
    return _probe(
        None, body, attrs=_SCRIPT_ATTRS + tuple(attrs), params=params, others=others
    )[1]


def _act(verb, *args, recv="ME"):
    return ir.ActionStmt(verb, _N(recv), tuple(_N(a) for a in args))


def _moves(count):
    return _script(*(_act("Move", "HAND") for _ in range(count)))


SCRIPT_PROBES = {
    "episode": _script(
        ir.SetupStmt("In", ("ME", "ROOM1")),
        ir.SetupStmt("On", ("APPLE1", "TABLE1")),
        ir.SetupStmt("InLine", ("APPLE1", "APPLE2")),
        _act("Move", "HAND"),
        _act("PointTo", "APPLE1"),
        _act("Say", "one"),
        _act("TakeAway", "APPLE2"),
    ),
    "in-non-entity": _script(ir.SetupStmt("In", ("one", "ROOM1"))),
    "on-missing-entity": _script(ir.SetupStmt("On", ("GHOST", "TABLE1"))),
    "inline-out-of-order": _script(ir.SetupStmt("InLine", ("APPLE2", "APPLE1"))),
    "inline-not-a-line": _script(ir.SetupStmt("InLine", ("PENCIL1",))),
    "action-on-unbound-receiver": _script(_act("PointTo", "APPLE1", recv="nobody")),
    "action-on-unbound-argument": _script(_act("PointTo", "nobody")),
    "step-limit-reached": _moves(50),
    "step-limit-exceeded": _moves(51),
    "move-without-argument": _script(_act("Move")),
    "say-entity": _script(_act("Say", "APPLE1")),
    "point-to-token": _script(_act("PointTo", "one")),
    "point-to-parameter": _script(_act("PointTo", "a"), params=[ir.Param("a", "APPLE")]),
    "setup-on-parameter": _script(
        ir.SetupStmt("In", ("who", "ROOM1")), params=[ir.Param("who", "Person")]
    ),
    # an operand other than a name
    "say-next-word": _script(
        *(ir.ActionStmt("Say", _N("ME"), (ir.CallExpr(_N("words"), "Next", ()),)),) * 2,
        attrs=[_attr("words", "intList", ("one", "two"))],
    ),
    # every argument of a fact is type-checked before any is looked up
    # in the scene, so GHOST's absence loses to one's type
    "on-non-entity": _script(ir.SetupStmt("On", ("APPLE1", "one"))),
    "on-missing-before-non-entity": _script(ir.SetupStmt("On", ("GHOST", "one"))),
    "in-missing-entity": _script(ir.SetupStmt("In", ("ME", "GHOST"))),
    "in-one-argument": _script(ir.SetupStmt("In", ("ME",))),
    "in-three-arguments": _script(ir.SetupStmt("In", ("ME", "ROOM1", "GHOST"))),
    "inline-non-entity": _script(ir.SetupStmt("InLine", ("APPLE1", "one"))),
    "setup-private-global": _script(
        ir.SetupStmt("In", ("ME", "secret")), others=[_HIDING_GLOBALS]
    ),
}

# The arguments Run takes in the script probes that declare parameters.
SCRIPT_ARGS = {
    "point-to-parameter": [itp.EntityVal("APPLE2")],
    "setup-on-parameter": [itp.EntityVal("ME")],
}

# Each script probe's outcome, frozen from the tree walker.
SCRIPT_OUTCOMES = {
    "episode": (
        None, "Nothing", 7, "1\tMoved\t\n2\tPointedTo\tAPPLE1\n3\tSaid\tone\n4\tTookAway\tAPPLE2\n"
    ),
    "in-non-entity": ("SetupMismatch", "In: 'one' is not an entity"),
    "on-missing-entity": ("SetupMismatch", "On: 'GHOST' is not in the scene"),
    "inline-out-of-order": (
        "SetupMismatch", "InLine: container 'a' does not hold exactly these entities in order"
    ),
    "inline-not-a-line": ("SetupMismatch", "InLine: group 'p' is not arranged in a line"),
    "action-on-unbound-receiver": ("UnboundName", "'nobody' is not bound in Probe"),
    "action-on-unbound-argument": ("UnboundName", "'nobody' is not bound in Probe"),
    "step-limit-reached": (None, "Nothing", 50, "".join(f"{i}\tMoved\t\n" for i in range(1, 51))),
    "step-limit-exceeded": ("StepLimitExceeded", "exceeded 50 steps"),
    "move-without-argument": (None, "Nothing", 1, "1\tMoved\t\n"),
    "say-entity": ("TypeMismatch", "Say takes one sound token"),
    "point-to-token": ("TypeMismatch", "PointTo takes one entity"),
    "point-to-parameter": (None, "Nothing", 1, "1\tPointedTo\tAPPLE2\n"),
    "setup-on-parameter": (None, "Nothing", 1, ""),
    "say-next-word": (None, "Nothing", 2, "1\tSaid\tone\n2\tSaid\ttwo\n"),
    "on-non-entity": ("SetupMismatch", "On: 'one' is not an entity"),
    "on-missing-before-non-entity": ("SetupMismatch", "On: 'one' is not an entity"),
    "in-missing-entity": ("SetupMismatch", "In: 'GHOST' is not in the scene"),
    "in-one-argument": (None, "Nothing", 1, ""),
    "in-three-arguments": ("SetupMismatch", "In: 'GHOST' is not in the scene"),
    "inline-non-entity": ("SetupMismatch", "InLine: 'one' is not an entity"),
    "setup-private-global": ("AccessViolation", _HIDDEN.format("Globals")),
}


def _outcome(run):
    try:
        r = run()
    except itp.ExecError as exc:
        return type(exc).__name__, str(exc)
    return None, repr(r.value), r.steps, itp.format_trace(r.trace)


@pytest.mark.parametrize("name", sorted(SCRIPT_PROBES))
def test_script_outcomes_match_between_tiers(name):
    """Scripts: the first run, which compiles, and the second, which
    reuses the compiled body, both report the walker's frozen outcome."""
    units = fresh(SCRIPT_PROBES[name])
    probe = units[0]
    run = probe.operation("Run")
    args = SCRIPT_ARGS.get(name, [])
    outcomes = []
    for _ in range(2):
        outcomes.append(_outcome(
            lambda: itp.execute(units, probe, "Run", args, _SCRIPT_WORLD, "numbers", step_limit=50)
        ))
        assert itp.compiled_body(run) is not None
    assert outcomes[0] == outcomes[1] == SCRIPT_OUTCOMES[name]


_GROW_DOMAINS = {
    "apples": "Apple", "pencils": "Pencil", "cups": "Cup",
    "marbles": "Marble", "candies": "Candy", "bananas": "Banana",
}


def _grow_episode(rng):
    """A counting demonstration of grow's shape; about one in five
    takes away an entity the scene lacks, which the recorder refuses,
    and about one in five is replayed on a scene without one of the
    counted objects."""
    domain = rng.choice(sorted(_GROW_DOMAINS))
    size = rng.randint(2, 20)
    kind = _GROW_DOMAINS[domain]
    entities = {
        "ME": ("Person", None),
        "HAND": ("Hand", None),
        "ROOM1": ("Room", None),
        "TABLE1": ("Table", None),
    }
    ids = tuple(f"{kind.upper()}{i}" for i in range(1, size + 1))
    for eid in ids:
        entities[eid] = (kind, domain)
    world = itp.World(entities, {domain: "Line"}, {domain: ids}, rng.randrange(1 << 30))
    events = []
    for eid, numeral in zip(ids, ir.NUMERALS[:size]):
        events += [("Moved", None), ("PointedTo", eid), ("Said", numeral)]
    events.append(("Said", ir.NUMERALS[size - 1]))
    if rng.random() < 0.2:
        events.insert(rng.randrange(len(events) + 1), ("TookAway", "GHOST"))
    if rng.random() < 0.2:
        events.append(("TookAway", rng.choice(ids)))
    trace = tuple(itp.TraceEvent(i, verb, arg) for i, (verb, arg) in enumerate(events, 1))
    replay_world = world
    if rng.random() < 0.2:
        gone = rng.choice(ids)
        replay_world = itp.World(
            {e: v for e, v in entities.items() if e != gone},
            world.arrangements,
            {domain: tuple(e for e in ids if e != gone)},
            world.rng_seed,
        )
    return domain, world, trace, replay_world


# sha256 over the repr of both replays' outcomes of every recording in
# test_recordings_replay_to_frozen_outcomes, in order, frozen from the
# tree walker (first replay) and the closure tier (second replay).
_RECORDINGS_DIGEST = "2016ec2ded665d1d9017d9f65320659e2c8d923671da3c049bb9cb1a94ce3411"


def test_recordings_replay_to_frozen_outcomes():
    """200 recorded episodes, each replayed twice: both replays give the
    same result or the same error, and together they hash to the frozen
    digest. An episode that names an entity outside its scene is
    refused when recorded."""
    rng = random.Random(20)
    kb = kbmod.KnowledgeBase()
    kinds = set()
    digest = hashlib.sha256()
    for _ in range(200):
        domain, world, trace, replay_world = _grow_episode(rng)
        if any(event.arg == "GHOST" for event in trace):
            with pytest.raises(kbmod.KbError, match="'GHOST' is not in the scene"):
                kb.record_instance(trace, world, domain)
            kinds.add("KbError")
            continue
        unit = kb.record_instance(trace, world, domain)
        op = unit.operations[0]
        outcomes = []
        for _ in range(2):
            try:
                r = itp.replay_instance((unit,), unit, replay_world)
            except itp.ExecError as exc:
                outcomes.append((type(exc).__name__, str(exc)))
            else:
                outcomes.append((None, r.trace, r.value, r.steps, r.world))
            digest.update(repr(outcomes[-1]).encode())
        assert itp.compiled_body(op) is not None
        assert outcomes[0] == outcomes[1], unit.name
        kinds.add(outcomes[0][0])
    assert kinds == {None, "KbError", "SetupMismatch"}
    assert digest.hexdigest() == _RECORDINGS_DIGEST


def test_every_body_compiles_on_its_first_call(monkeypatch):
    """A script and a branching body both compile on their first call.
    A second recording in the same knowledge base compiles no statement
    of its own: it reuses the closures kept on the nodes it shares with
    the first."""
    _, script = _probe(None, [ir.ActionStmt("Move", _I(0), ())])
    _, branching = _probe(None, [ir.IfStmt(_B(False), (), ())])
    world = itp.World({"ME": ("Person", None)}, {}, {}, 0)
    for units in (script, branching):
        run = units[0].operation("Run")
        assert itp.compiled_body(run) is None
        itp.execute(units, units[0], "Run", [], world, "numbers")
        assert itp.compiled_body(run) is not None

    compiled = []
    for name in ("_compile_primitive", "_compile_setup"):
        real = getattr(itp, name)
        monkeypatch.setattr(
            itp, name, lambda *args, real=real: compiled.append(args) or real(*args)
        )
    kb = kbmod.KnowledgeBase()
    domain, world, trace, _ = _grow_episode(random.Random(3))
    first = kb.record_instance(trace, world, domain)
    second = kb.record_instance(trace, world, domain)
    assert itp.replay_instance((first,), first, world).trace == trace
    assert len(compiled) == len(set(first.operations[0].body))
    compiled.clear()
    assert itp.replay_instance((second,), second, world).trace == trace
    assert compiled == []
    assert itp.compiled_body(second.operations[0]) is not None


def test_shared_operation_rechecks_access_for_a_new_caller():
    """Two units share one Operation object. The access decision its
    compiled body remembers for one caller is not reused for the other."""
    shared = ir.ConceptUnit(
        ir.GLOBALS_UNIT, ir.UnitKind.CLASS, ir.Level.E3, "numbers",
        attributes=(ir.Attribute("guarded", "int", ir.Visibility.PROTECTED),),
    )
    peek = _op("Peek", ir.ReturnStmt(_N("guarded")))
    outsider = ir.ConceptUnit(
        "Outsider", ir.UnitKind.CLASS, ir.Level.E3, "elsewhere", operations=(peek,)
    )
    calls = [ir.CallStmt(None, "Peek", ()), ir.CallStmt(None, "Peek", ())]
    _, (insider,) = _probe(None, [*calls, ir.CallStmt("Outsider", "Peek", ())], extra_ops=[peek])
    world = itp.World({"ME": ("Person", None)}, {}, {}, 0)
    with pytest.raises(itp.AccessViolation, match="hidden from Outsider"):
        itp.execute([insider, outsider, shared], insider, "Run", [], world, "numbers")
    assert itp.compiled_body(peek) is not None
    _, (insider,) = _probe(None, calls, extra_ops=[peek])
    assert itp.execute([insider, shared], insider, "Run", [], world, "numbers").steps == 4


def _regenerate() -> None:
    by_level = kbmod.KnowledgeBase.canonical().kb_by_level()
    slices = {level.name: units for level, units in by_level.items()}

    lines = []
    for task_id in TASK_IDS:
        for level in LEVELS:
            for seed in SEEDS:
                kind, digest, steps, reason = record(task_id, seed, fresh(slices[level]))
                lines.append("\t".join((task_id, level, str(seed), kind, digest, steps, reason)))
    DATA.write_text(HEADER + "\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines)} cells to {DATA}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
