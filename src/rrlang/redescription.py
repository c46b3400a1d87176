"""Rewrites recorded behavior into progressively more shareable units.

Three passes, each consuming the previous stage's output:

* antiunify_instances folds several recorded episodes of the same
  routine into one class with a loop, replacing object constants by an
  iterated collection and sound constants by a numeral succession;
  this is the only pass that derives its output from its input;
* generalize_to_e2 checks that its input is a counting class, then
  emits the fixed listing in fixtures/counting_e2.rr under the input's
  base name, together with a Globals unit holding the input's numerals;
* decompose_to_e3 checks that its input is a counting class, then
  emits the three classes of fixtures/counting_e3.rr with the counting
  class under the input's name and the numeral list taken from the
  shared Globals unit when one is given.

Passes return the new units plus a PhaseReport of the rewrite rules
and of everything dropped along the way. Phase 1's rules describe what
it did; phases 2 and 3 report the same list of rules for every input,
naming the rewrites that their listings embody.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from . import dsl, ir
from .ir import (
    ActionStmt,
    AssignStmt,
    Attribute,
    BinExpr,
    CallExpr,
    ConceptUnit,
    IntExpr,
    Level,
    LocalDecl,
    NameExpr,
    NullExpr,
    Operation,
    ReturnStmt,
    SetupStmt,
    Stmt,
    UnitKind,
    Visibility,
    WhileStmt,
    record,
)

class RedescriptionError(Exception):
    """A pass could not apply to its input."""


class DomainMismatch(RedescriptionError):
    pass


class NoCommonSkeleton(RedescriptionError):
    pass


class TooFewInstances(RedescriptionError):
    def __init__(self, have: int):
        super().__init__(
            f"needs >=2 level-I instances (have {have}); record more episodes first"
        )
        self.have = have


@record
class PhaseReport:
    phase: int
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    rules_applied: tuple[tuple[str, str], ...]
    dropped: tuple[str, ...] = ()


def format_report(report: PhaseReport) -> str:
    lines = [f"phase\t{report.phase}"]
    lines += [f"input\t{name}" for name in report.inputs]
    lines += [f"output\t{name}" for name in report.outputs]
    lines += [f"rule\t{rule}\t{detail}" for rule, detail in report.rules_applied]
    lines += [f"dropped\t{item}" for item in report.dropped]
    return "\n".join(lines) + "\n"


def _check(what: str, diagnostics: Sequence[ir.Diagnostic]) -> None:
    """Refuse a pass's output that breaks level discipline; `what` is
    the subject and verb of the refusal, such as "generated class breaks"."""
    if diagnostics:
        raise RedescriptionError(
            f"{what} level discipline: " + "; ".join(str(d) for d in diagnostics)
        )


# ---------------------------------------------------------------------------
# Loop rolling

_MAX_PERIOD = 5  # the longest block phase 1 rolls into a loop


def repeat_period(items: Sequence) -> int | None:
    """The shortest period p <= _MAX_PERIOD at which items are one block
    repeated at least twice from the first item, or None."""
    n = len(items)
    for period in range(1, min(_MAX_PERIOD, n // 2) + 1):
        if n % period == 0 and items[period:] == items[:-period]:
            return period
    return None


def _title(domain: str) -> str:
    return domain[:1].upper() + domain[1:]


def base_name(unit_name: str, domain: str) -> str:
    """The concept a unit of a domain's chain carries, shorn of the
    recording ordinal and of the domain suffix phase 1 appends. Phase 1
    names its class by the first recording's base name and the domain,
    and the E2 and E3 units of the chain take this name."""
    name = unit_name
    if f"_{domain}_" in name:
        name = name.split("_", 1)[0]
    title = _title(domain)
    if name.endswith(title) and len(name) > len(title):
        name = name[: -len(title)]
    return name


# ---------------------------------------------------------------------------
# Pass one: several episodes into one looped class

# The built-in type of each kind over one entity kind (ir.TYPES read
# backwards); a kind with no such type takes its unconstrained one.
_TYPE_OVER = {(kind, elem): name for name, (kind, elem, _) in ir.TYPES.items()}


def antiunify_instances(
    instances: Sequence[ConceptUnit],
) -> tuple[ConceptUnit, PhaseReport]:
    """Fold level-I recordings of the same routine into one E1 class."""
    if len(instances) < 2:
        raise TooFewInstances(len(instances))
    for unit in instances:
        if unit.level is not Level.I or unit.kind is not UnitKind.INSTANCE:
            raise ValueError(f"{unit.name} is not a level-I instance")
    domains = sorted({unit.domain for unit in instances})
    if len(domains) > 1:
        raise DomainMismatch("instances span domains: " + ", ".join(domains))
    domain = domains[0]

    scripts = [_instance_script(unit) for unit in instances]

    # Each episode is read once: every action's operand names, receiver
    # first, and its shape, the verb with those operands' types.
    rows = []
    templates = set()
    for unit, (_, actions, _) in zip(instances, scripts):
        # the first declaration of a name wins, as in unit.attribute
        types = {attr.name: attr.type_ref for attr in reversed(unit.attributes)}
        row, shapes = [], []
        for action in actions:
            operands = _stmt_names(action)
            for name in operands:
                if name not in types:
                    raise NoCommonSkeleton(f"{unit.name}: {name!r} is not a recorded constant")
            row.append(operands)
            shapes.append((action.verb, tuple(types[name] for name in operands)))
        period = repeat_period(shapes)
        if period is None:
            raise NoCommonSkeleton(f"{unit.name}: script is not one repeated routine")
        rows.append(row)
        templates.add(tuple(shapes[:period]))
    if len(templates) > 1:  # blocks of another length or of other actions
        raise NoCommonSkeleton("episodes repeat different routines")
    template = templates.pop()
    period = len(template)

    def column(pos: int, slot: int) -> list[list[str]]:
        # slot 0 is the receiver, 1.. are arguments; one list per episode
        return [[operands[slot] for operands in row[pos::period]] for row in rows]

    # The agent: every action's receiver must be the same Person constant.
    agent = None
    for pos, (_, types) in enumerate(template):
        performers = {name for col in column(pos, 0) for name in col}
        if len(performers) != 1:
            raise NoCommonSkeleton("actions switch between performers")
        if ir.type_kind(types[0]) != "agent":
            raise NoCommonSkeleton("actions are not performed by an agent")
        name = performers.pop()
        if agent not in (None, name):
            raise NoCommonSkeleton("actions switch between performers")
        agent = name

    # Each argument is a constant, the numeral succession or the item.
    item_kind = None
    carried: dict[str, str] = {}  # constants kept, in order of first use
    referenced = {agent}
    loop_body: list[Stmt] = []
    for pos, (verb, types) in enumerate(template):
        args = []
        for slot, kind in enumerate(types[1:], 1):
            cols = column(pos, slot)
            names = {name for col in cols for name in col}
            referenced |= names
            if len(names) == 1:
                name = names.pop()
                carried.setdefault(name, kind)
                args.append(NameExpr(name))
            elif ir.type_kind(kind) == "token":
                if any(tuple(col) != ir.NUMERALS[: len(col)] for col in cols):
                    raise NoCommonSkeleton("sounds do not follow the shared numeral order")
                args.append(CallExpr(NameExpr("numlist"), "Next", ()))
            else:
                if any(len(set(col)) != len(col) for col in cols):
                    raise NoCommonSkeleton("an object is pointed at twice in one pass")
                if item_kind not in (None, kind):
                    raise NoCommonSkeleton("more than one varying object kind")
                item_kind = kind
                args.append(NameExpr("item"))
        loop_body.append(ActionStmt(verb, NameExpr("p"), tuple(args)))
    if item_kind is None:
        raise NoCommonSkeleton("no varying objects to collect")

    set_type = _TYPE_OVER.get(("set", item_kind), "objectSet")
    elem_type = _TYPE_OVER.get(("element", item_kind), "OBJECT")
    set_name = _set_attr_name(set_type)

    attributes = [Attribute("numlist", "intList", Visibility.PRIVATE, ir.NUMERALS)]
    attributes += [Attribute(n, t, Visibility.PRIVATE, n) for n, t in carried.items()]
    attributes += [
        Attribute("p", "Person", Visibility.PRIVATE),
        Attribute(set_name, set_type, Visibility.PRIVATE),
        Attribute("result", "int", Visibility.PRIVATE),
    ]

    loop_body += [
        AssignStmt(NameExpr("result"), BinExpr("+", NameExpr("result"), IntExpr(1))),
        AssignStmt(NameExpr("item"), CallExpr(NameExpr(set_name), "Next", ())),
    ]

    counting = Operation(
        "Counting", (), "int", Visibility.PROTECTED,
        (
            AssignStmt(NameExpr("result"), IntExpr(0)),
            LocalDecl("item", elem_type),
            AssignStmt(NameExpr("item"), CallExpr(NameExpr(set_name), "First", ())),
            WhileStmt(BinExpr("!=", NameExpr("item"), NullExpr()), tuple(loop_body)),
            ReturnStmt(NameExpr("result")),
        ),
    )

    unit = ConceptUnit(
        name=base_name(instances[0].name, domain) + _title(domain),
        kind=UnitKind.CLASS,
        level=Level.E1,
        domain=domain,
        attributes=tuple(attributes),
        operations=(counting,),
    )
    _check("generated class breaks", ir.validate(unit))

    unused = [attr for attr in instances[0].attributes if attr.name not in referenced]
    rules = [
        (
            "loop_roll",
            f"period={period} counts=" + "/".join(str(len(row) // period) for row in rows),
        ),
        ("bind_agent", f"{agent} -> p"),
        ("bind_items", f"{item_kind} -> {set_type} {set_name}"),
        ("bind_numerals", "Sound succession -> numlist.Next()"),
    ]
    stripped = sum(stripped for _, _, stripped in scripts)
    if stripped:
        rules.insert(0, ("strip_confirmation", f"removed the repeated final Say in {stripped} episode(s)"))
    if unused:
        rules.append(("drop_occasional", ", ".join(attr.name for attr in unused)))

    dropped = [f"const {attr.type_ref} {attr.name}" for attr in unused]
    dropped += [f"{s.pred}({', '.join(s.args)})" for s in scripts[0][0]]
    report = PhaseReport(
        phase=1,
        inputs=tuple(u.name for u in instances),
        outputs=(unit.name,),
        rules_applied=tuple(rules),
        dropped=tuple(dropped),
    )
    return unit, report


def _instance_script(unit: ConceptUnit) -> tuple[tuple[SetupStmt, ...], list[ActionStmt], bool]:
    """A recording's setup facts, its actions, and whether a repeated
    final Say was stripped from them."""
    try:
        op = unit.operation(ir.IMPLICIT_OP)
    except ir.UnknownMember:
        raise NoCommonSkeleton(f"{unit.name} has no recorded script") from None
    setup = tuple(s for s in op.body if isinstance(s, SetupStmt))
    actions = [s for s in op.body if isinstance(s, ActionStmt)]
    if len(actions) >= 2:
        last, prev = actions[-1], actions[-2]
        if (
            last.verb == "Say"
            and prev.verb == "Say"
            and _stmt_names(last) == _stmt_names(prev)
        ):
            return setup, actions[:-1], True
    return setup, actions, False


def _stmt_names(action: ActionStmt) -> tuple[str, ...]:
    names = []
    for expr in (action.recv, *action.args):
        if not isinstance(expr, NameExpr):
            raise NoCommonSkeleton("recorded actions must reference bound constants")
        names.append(expr.name)
    return tuple(names)


def _set_attr_name(set_type: str) -> str:
    if "_" in set_type:
        return set_type.split("_")[0].lower() + "_set"
    return set_type[: -len("Set")].lower() + "_set"


# ---------------------------------------------------------------------------
# Pass two: one class into shared, callable parts

def generalize_to_e2(
    unit: ConceptUnit,
) -> tuple[tuple[ConceptUnit, ConceptUnit], PhaseReport]:
    """Emit the E2 counting listing for a counting class.

    Returns the counting_e2.rr class under the input's base name plus
    the Globals unit that now owns the input's numeral list."""
    if unit.level is not Level.E1 or unit.kind is not UnitKind.CLASS:
        raise ValueError(f"{unit.name} is not a level-E1 class")
    numlist, item_element = _counting_roles(unit)

    base = base_name(unit.name, unit.domain)

    decls = [s for s in ir.iter_statements(unit) if isinstance(s, LocalDecl)]
    widened = sorted(
        f"{t} -> {ir.widen_type(t)}"
        for t in {a.type_ref for a in unit.attributes} | {d.type_ref for d in decls}
        if ir.is_collection_type(t) and ir.widen_type(t) != t
    )

    globals_unit = ConceptUnit(
        name=ir.GLOBALS_UNIT,
        kind=UnitKind.CLASS,
        level=Level.E2,
        domain="numbers",
        attributes=(
            Attribute("numlist", "intList", Visibility.PUBLIC, numlist.const),
        ),
    )
    e2_unit = _renamed(dsl.load_fixture("counting_e2")[0], base)
    _check("generalized class breaks", ir.validate(e2_unit) + ir.validate(globals_unit))

    dropped = [
        f"local {decl.type_ref} {decl.name}"
        for decl in decls
        if ir.is_collection_type(decl.type_ref)
        and ir.collection_element(decl.type_ref) == item_element
    ]
    report = PhaseReport(
        phase=2,
        inputs=(unit.name,),
        outputs=(e2_unit.name, globals_unit.name),
        rules_applied=(
            ("widen_collection_type", ", ".join(widened) or "already widened"),
            ("hoist_numlist_global", f"{numlist.name} now lives in {ir.GLOBALS_UNIT}"),
            ("befriend_globals", f"friend {ir.GLOBALS_UNIT}"),
            ("split_index", "Index(object_set)"),
            ("split_one_to_one_map", "OneToOneMap(object_list)"),
            ("split_get_result", "GetResult()"),
            ("emit_driver", f"{base}() = Index; OneToOneMap; GetResult"),
            ("publicize_operations", "every operation now Public"),
            ("protect_attributes", "attributes now Protected"),
            ("synthesize_fetch_objects", "FetchObjects(from_set, k)"),
        ),
        dropped=tuple(dropped),
    )
    return (e2_unit, globals_unit), report


def _counting_roles(unit: ConceptUnit) -> tuple[Attribute, str | None]:
    """A counting class's numeral list and the element kind of its object
    collection; it must also hold an agent and an int result."""
    numlist = agent = collection = result = None
    for attr in unit.attributes:
        if (
            isinstance(attr.const, tuple)
            and ir.is_collection_type(attr.type_ref)
            and ir.collection_element(attr.type_ref) == ir.TOKEN_ELEM
        ):
            numlist = numlist or attr
        elif not attr.is_const and ir.type_kind(attr.type_ref) == "agent":
            agent = agent or attr
        elif not attr.is_const and ir.type_kind(attr.type_ref) == "set":
            collection = collection or attr
        elif not attr.is_const and attr.type_ref == "int":
            result = result or attr
    missing = [
        label
        for label, attr in (
            ("a numeral list", numlist),
            ("an agent", agent),
            ("an object collection", collection),
            ("an int result", result),
        )
        if attr is None
    ]
    if missing:
        raise RedescriptionError(
            f"{unit.name} is not a counting class (missing {', '.join(missing)})"
        )
    if not _says_successive_numerals(unit, numlist.name):
        raise RedescriptionError(
            f"{unit.name} is not a counting class (no loop says successive numerals)"
        )
    return numlist, ir.collection_element(collection.type_ref)


def _says_successive_numerals(unit: ConceptUnit, numlist_name: str) -> bool:
    """Whether unit points at things and says `numlist_name.Next()`."""
    next_numeral = CallExpr(NameExpr(numlist_name), "Next", ())
    says = points = False
    for stmt in ir.iter_statements(unit):
        if not isinstance(stmt, ActionStmt):
            continue
        if stmt.verb == "PointTo":
            points = True
        if stmt.verb == "Say" and stmt.args == (next_numeral,):
            says = True
    return says and points


def _renamed(template: ConceptUnit, name: str) -> ConceptUnit:
    """A template class under `name`, its same-named operation renamed too."""
    ops = tuple(
        ir.replace(op, name=name) if op.name == template.name else op
        for op in template.operations
    )
    return ir.replace(template, name=name, operations=ops)


# ---------------------------------------------------------------------------
# Pass three: one class into cooperating concepts

def decompose_to_e3(
    unit: ConceptUnit,
    shared: ConceptUnit | None = None,
) -> tuple[tuple[ConceptUnit, ConceptUnit, ConceptUnit], PhaseReport]:
    """Emit the E3 ordinal, set, and counting classes for a counting class.

    The counting class takes the input's name. `shared` supplies the
    numeral list (normally the Globals unit); without it the listing's
    standard succession is kept."""
    if unit.level is not Level.E2 or unit.kind is not UnitKind.CLASS:
        raise ValueError(f"{unit.name} is not a level-E2 class")
    has_collection = any(
        not a.is_const and ir.is_collection_type(a.type_ref) for a in unit.attributes
    )
    if not has_collection or not _says_successive_numerals(unit, "numlist"):
        raise RedescriptionError(f"{unit.name} is not a counting class")

    ordinal, set_cls, counting = dsl.load_fixture("counting_e3")
    if shared is not None:
        try:
            attr = shared.attribute("numlist")
        except ir.UnknownMember:
            attr = None
        if attr is not None and isinstance(attr.const, tuple):
            ordinal = ir.replace(ordinal, attributes=tuple(
                ir.replace(a, const=attr.const) if a.name == "numlist" else a
                for a in ordinal.attributes
            ))
    units = (ordinal, set_cls, _renamed(counting, unit.name))
    _check(
        "decomposed units break",
        [d for u in units for d in ir.validate(u)] + ir.validate_set(list(units)),
    )

    inputs = (unit.name,) if shared is None else (unit.name, shared.name)
    report = PhaseReport(
        phase=3,
        inputs=inputs,
        outputs=tuple(u.name for u in units),
        rules_applied=(
            ("extract_successor_knowledge", "GetPre/GetNext/GetCurrent over numlist"),
            ("reify_collection_concept", "Set: objlist plus cardinalSum"),
            (
                "declare_item_flags",
                "type NO_OBLIGATORY, sequence NO_IMPORTANT, arrangement NO_IMPORTANT",
            ),
            ("rewire_counting_via_ordinals", "Say(OrdinalNumber.GetNext())"),
            ("generalize_map_to_two_sets", "OneToOneMap(Set, Set) points the surplus"),
            ("cache_cardinal_sum", "counting stores set1.cardinalSum"),
            ("publicize_everything", "every member Public"),
        ),
    )
    return units, report


# ---------------------------------------------------------------------------
# Mastery

def mastery_check(records: Iterable[tuple[str, object]], threshold: int = 3) -> bool:
    """Ready to redescribe once enough distinct tasks are solved.

    records holds (task_id, outcome) pairs in time order; only each
    task's latest outcome counts. An outcome may be a string kind or
    anything with a .kind attribute."""
    latest: dict[str, str] = {}
    for task_id, outcome in records:
        kind = getattr(outcome, "kind", outcome)
        latest[task_id] = str(kind)
    return sum(1 for kind in latest.values() if kind == "Solved") >= threshold
