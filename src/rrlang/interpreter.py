"""Executes concept-unit operations against a simulated world.

The world holds entities, their spatial arrangement by group, and named
ordered containers. Execution runs operation bodies, enforces member
visibility between units, emits a trace of observable events, and
returns the result value plus a fresh world. The input world is never
changed: a run reads the world's entities and arrangements in place,
since no verb writes them, and copies only its containers, which
TakeAway writes. The fresh world passes the same entity and arrangement
maps on.

Binding rules, applied when a unit's attribute frame materializes, by
the kind its type has in ir.TYPES:

* a const attribute takes its bound literal, a symbol as an entity when
  ir.names_entity says so. The value is built on its first binding and
  kept on the Attribute node, so later runs, and recordings sharing the
  node, reuse it: a scalar binds as that one frozen object, and a
  symbol list binds as a fresh sequence (own items, fresh cursor) over
  the kept tokens;
* a set-typed variable snapshots the world's first container, and the
  container's entities must all match the declared element kind;
* a list-typed variable starts empty;
* an agent-typed variable binds the world's first entity of its kind;
* a unit-typed variable binds the container matching its own name, or
  the next unused container in insertion order. Unit values built from
  the same container are shared within one execution, so two units
  naming the same container see the same object.

Sequences pass by value at operation calls (fresh cursor, own items);
unit values pass by reference, with their list fields' cursors reset
at entry so every operation gets a fresh view of the collections.

Each primitive verb has one definition, a function in `_PRIMITIVES`
(see "Primitive verbs" below), and every way of running a verb calls
it. Every operation body runs as Python closures, compiled on its
first call (see "Closures" below). Node kinds and verb definitions
are settled at compile time; a name is resolved when it runs, first
among the locals, then the unit's own attributes, then Globals, and
every operand site reads a name in place, in its own closure, as do
the loop tests `x != NULL` and `!x.Empty()`. Results of +, - and `n++`
in -1..64 are IntVals shared from one table built at import, as the
two Boolean values are. The compiled body is kept on the Operation
object itself, the closure of a setup fact or an action on its
statement node, and a name's Globals reader, with its access decision,
on the NameExpr node, so all live and die with the program they run:
no global cache holds knowledge bases alive.
Recordings in one knowledge base share their statement and name nodes
(see kb.py), so a recording's first replay mostly reuses closures that
earlier recordings compiled.

`eval_primitive` runs one verb in isolation, through the same table.
The random generator of a run is built from the world's seed on its
first draw, so a run that never draws builds none. SelectOneRandom
draws the index `random.Random(seed).choice` would, from the
generator's `getrandbits`.
"""

from __future__ import annotations

import random
from typing import Mapping, Sequence

from . import ir
from .ir import (
    ActionStmt,
    AssignStmt,
    BinExpr,
    BlockStmt,
    BoolExpr,
    CallExpr,
    CallStmt,
    ConceptUnit,
    Expr,
    FieldExpr,
    IfStmt,
    IntExpr,
    ListExpr,
    LocalDecl,
    NameExpr,
    NotExpr,
    NullExpr,
    ReturnStmt,
    SetupStmt,
    Stmt,
    WhileStmt,
    record,
)

ARRANGEMENTS = ("Line", "Square", "Circle", "Scattered")

DEFAULT_STEP_LIMIT = 10_000
_CALL_DEPTH_LIMIT = 128


# ---------------------------------------------------------------------------
# World

@record
class World:
    """Immutable scene snapshot.

    entities maps id to (kind, group or None); arrangements maps group
    to one of ARRANGEMENTS; containers maps name to an ordered entity
    id tuple. Container insertion order is meaningful: the first
    container is the default binding target.
    """

    entities: Mapping[str, tuple[str, str | None]]
    arrangements: Mapping[str, str]
    containers: Mapping[str, tuple[str, ...]]
    rng_seed: int = 0


def validate_world(world: World) -> list[str]:
    """What is wrong with a world built by hand: containers holding
    unknown entities, arrangements of unknown groups or of unknown
    shapes. Public API with no caller in src/: nothing here builds a
    world it has to check, and callers outside the package may."""
    problems = []
    for cname, members in world.containers.items():
        for eid in members:
            if eid not in world.entities:
                problems.append(f"container {cname!r} holds unknown entity {eid!r}")
    groups = {group for (_, group) in world.entities.values() if group is not None}
    for group, arrangement in world.arrangements.items():
        if group not in groups:
            problems.append(f"arrangement for unknown group {group!r}")
        if arrangement not in ARRANGEMENTS:
            problems.append(f"unknown arrangement {arrangement!r} for group {group!r}")
    return problems


# ---------------------------------------------------------------------------
# Values

@record
class IntVal:
    value: int


@record
class BoolVal:
    value: bool


@record
class TokenVal:
    token: str


@record
class EntityVal:
    entity: str


class SeqVal:
    """Ordered collection with one implicit cursor, which the Next and
    First verbs move (see "Primitive verbs")."""

    __slots__ = ("items", "pos")

    def __init__(self, items: list | None = None):
        self.items = items if items is not None else []
        self.pos = 0

    def copy(self) -> "SeqVal":
        return SeqVal(list(self.items))

    def __repr__(self) -> str:
        return f"SeqVal({self.items!r}, pos={self.pos})"


class UnitVal:
    """Reference-semantics instance of a class unit (its field record)."""

    __slots__ = ("cls", "fields")

    def __init__(self, cls: str, fields: dict):
        self.cls = cls
        self.fields = fields

    def __repr__(self) -> str:
        return f"UnitVal({self.cls}, {sorted(self.fields)})"


class Nothing:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Nothing"


NOTHING = Nothing()
_TRUE = BoolVal(True)
_FALSE = BoolVal(False)
# One IntVal per small integer, shared as _TRUE and _FALSE are: the
# table is built at import and never grows, and IntVals compare by
# value, so no run can tell a shared one from a fresh one.
_INTS = tuple([IntVal(i) for i in range(-1, 65)])


def _int(n: int) -> IntVal:
    """n's value: the shared one for -1 <= n <= 64, else a fresh one."""
    return _INTS[n + 1] if -1 <= n <= 64 else IntVal(n)


# The language's == and != and the Delete verb compare values with
# Python's ==: a record equals one of its own kind with the same payload,
# so a cross-kind comparison is False, not an error, and `item != NULL`
# holds for every entity. Collections and unit values compare by
# identity, and Nothing is a singleton.
Value = IntVal | BoolVal | TokenVal | EntityVal | SeqVal | UnitVal | Nothing


# A type name's entry in ir.TYPES when it names a class or an entity kind.
_NO_TYPE = (None, None, None)
# The one value class an argument of each built-in kind must be.
_VALUE_CLASSES = {
    "int": IntVal, "Boolean": BoolVal, "token": TokenVal, "agent": EntityVal,
    "element": EntityVal, "set": SeqVal, "list": SeqVal,
}


def _default_value(type_ref: str) -> Value:
    """The starting value of a declared slot that binds nothing else."""
    if type_ref == "int":
        return _INTS[1]
    if type_ref == "Boolean":
        return _FALSE
    return NOTHING


# ---------------------------------------------------------------------------
# Trace and results

@record
class TraceEvent:
    seq: int
    verb: str  # PointedTo | Said | Moved | TookAway
    arg: str | None = None


def format_trace(trace: Sequence[TraceEvent]) -> str:
    lines = [f"{e.seq}\t{e.verb}\t{e.arg if e.arg is not None else ''}" for e in trace]
    return "\n".join(lines) + ("\n" if lines else "")


@record
class ExecResult:
    trace: tuple[TraceEvent, ...]
    value: Value
    steps: int
    world: World  # post-execution snapshot; the input world is untouched


# ---------------------------------------------------------------------------
# Errors

class ExecError(Exception):
    """Base of all execution failures."""


class AccessViolation(ExecError):
    pass


class UnboundName(ExecError):
    pass


class TypeMismatch(ExecError):
    pass


class BindingMismatch(TypeMismatch):
    """Nominal rejection while binding a unit's frame to the world."""


class SetupMismatch(ExecError):
    pass


class StepLimitExceeded(ExecError):
    pass


class EmptyCollection(ExecError):
    pass


class NumeralsExhausted(ExecError):
    """Say was handed Nothing: the count ran past the last numeral."""


# ---------------------------------------------------------------------------
# Machine

_VALUE_ATTR = "_value"  # a const Attribute's slot for its bound value


class _Frame:
    """One operation activation: the running unit, its locals, and the
    unit's attribute frame, bound once at call entry."""

    __slots__ = ("unit", "locals", "attrs")

    def __init__(self, unit: ConceptUnit, locals_map: dict, attrs: dict):
        self.unit = unit
        self.locals = locals_map
        self.attrs = attrs


class _Machine:
    def __init__(
        self,
        kb: Sequence[ConceptUnit],
        world: World,
        step_limit: int,
    ):
        self.units: dict[str, ConceptUnit] = {u.name: u for u in kb}
        # Read in place: no verb writes entities or arrangements. The
        # containers are copied, since TakeAway writes them.
        self.entities = world.entities
        self.arrangements = world.arrangements
        self.containers = {name: list(members) for name, members in world.containers.items()}
        self.rng_seed = world.rng_seed
        self.rng = None  # the generator's getrandbits, built on the first draw
        self.step_limit = step_limit
        self.steps = 0
        self.trace: list[TraceEvent] = []
        self.frames: dict[str, dict] = {}
        self.container_vals: dict[str, UnitVal] = {}
        self.call_depth = 0

    # -- bookkeeping

    def snapshot_world(self) -> World:
        return World(
            self.entities,
            self.arrangements,
            {name: tuple(members) for name, members in self.containers.items()},
            self.rng_seed,
        )

    def tick(self) -> None:
        self.steps += 1
        if self.steps > self.step_limit:
            raise StepLimitExceeded(f"exceeded {self.step_limit} steps")

    # -- frame binding

    def unit_frame(self, unit: ConceptUnit) -> dict:
        frame = self.frames.get(unit.name)
        if frame is None:
            frame = {}
            self.frames[unit.name] = frame
            used: set[str] = set()
            for attr in unit.attributes:
                # a const's kept value, unless unset or a symbol list's tokens
                value = getattr(attr, _VALUE_ATTR, None) if attr.const is not None else None
                if value is None or value.__class__ is tuple:
                    value = self._bind_attribute(unit, attr, used)
                frame[attr.name] = value
        return frame

    def _literal_value(self, attr: ir.Attribute) -> Value:
        """The const attr's bound literal, built on its first binding and
        kept on the node (see "Binding rules"); a symbol list is kept as
        its tokens and binds as a fresh sequence over them."""
        value = getattr(attr, _VALUE_ATTR, None)
        if value is None:
            lit = attr.const
            if isinstance(lit, int):
                value = IntVal(lit)
            elif isinstance(lit, tuple):
                value = tuple([TokenVal(sym) for sym in lit])
            elif ir.names_entity(attr):
                value = EntityVal(lit)
            else:
                value = TokenVal(lit)
            object.__setattr__(attr, _VALUE_ATTR, value)
        if value.__class__ is tuple:
            return SeqVal(list(value))
        return value

    def _bind_attribute(self, unit: ConceptUnit, attr: ir.Attribute, used: set[str]):
        if attr.const is not None:
            return self._literal_value(attr)
        t = attr.type_ref
        kind, elem, _ = ir.TYPES.get(t, _NO_TYPE)
        if kind == "set":
            if not self.containers:
                raise BindingMismatch(f"{unit.name}.{attr.name}: no container to bind")
            cname = next(iter(self.containers))
            members = self.containers[cname]
            if elem is not None:
                for eid in members:
                    ekind = self.entities.get(eid, ("?", None))[0]
                    if ekind != elem:
                        raise BindingMismatch(
                            f"{unit.name}.{attr.name}: container {cname!r} holds "
                            f"{ekind} entities, not {elem}"
                        )
            return SeqVal([EntityVal(eid) for eid in members])
        if kind == "list":
            return SeqVal([])
        if kind == "agent":
            for eid, (ekind, _) in self.entities.items():
                if ekind == elem:
                    return EntityVal(eid)
            raise BindingMismatch(f"{unit.name}.{attr.name}: world has no {elem}")
        if kind in ("int", "Boolean", "token"):
            return _default_value(t)
        if t in self.units:
            cls = self.units[t]
            cname = None
            if attr.name in self.containers and attr.name not in used:
                cname = attr.name
            else:
                for candidate in self.containers:
                    if candidate not in used:
                        cname = candidate
                        break
            if cname is None:
                return self.build_unit_value(cls, ())
            used.add(cname)
            return self.container_unit_value(cls, cname)
        raise BindingMismatch(f"{unit.name}.{attr.name}: cannot bind type {t!r}")

    def container_unit_value(self, cls: ConceptUnit, container: str) -> UnitVal:
        val = self.container_vals.get(container)
        if val is None:
            val = self.build_unit_value(cls, tuple(self.containers[container]))
            self.container_vals[container] = val
        return val

    def build_unit_value(self, cls: ConceptUnit, members: tuple[str, ...]) -> UnitVal:
        fields: dict = {}
        for attr in cls.attributes:
            if attr.is_const:
                fields[attr.name] = self._literal_value(attr)
            elif ir.is_collection_type(attr.type_ref):
                fields[attr.name] = SeqVal([EntityVal(eid) for eid in members])
            else:
                fields[attr.name] = _default_value(attr.type_ref)
        return UnitVal(cls.name, fields)

    # -- name resolution
    #
    # A `site` argument is the one-entry memo of a compiled access point:
    # a one-element list holding what last passed the check there, the
    # (caller, target) pair for a read, the writing unit for an
    # attribute write. A decision depends only on the units and the
    # member, and the member is fixed per site.

    def shared_value(self, frame: _Frame, name: str, site: list | None = None) -> Value:
        """A name that is neither local nor an own attribute: Globals data."""
        globals_unit = self.units.get(ir.GLOBALS_UNIT)
        if globals_unit is not None and frame.unit.name != ir.GLOBALS_UNIT:
            shared = self.unit_frame(globals_unit)
            if name in shared:
                self._require_access(frame.unit, globals_unit, name, site)
                return shared[name]
        raise UnboundName(f"{name!r} is not bound in {frame.unit.name}")

    def assign(self, frame: _Frame, name: str, value: Value, site: list | None = None) -> None:
        if name in frame.attrs:
            if frame.unit.attribute(name).is_const:
                raise TypeMismatch(f"{frame.unit.name}.{name} is constant")
            frame.attrs[name] = value
            if site is not None:
                site[0] = frame.unit
            return
        raise UnboundName(f"{name!r} is not assignable in {frame.unit.name}")

    def _require_access(
        self,
        caller: ConceptUnit,
        target: ConceptUnit,
        member: str,
        site: list | None = None,
    ) -> None:
        try:
            denied = ir.access_denied(caller.domain, caller.name, target, member)
        except ir.UnknownMember as exc:
            raise UnboundName(exc.args[0]) from exc
        if denied is not None:
            raise AccessViolation(denied)
        if site is not None:
            site[0] = (caller, target)

    # -- expressions

    def _list_element(self, frame: _Frame, n: str) -> Value:
        loc, attrs, read = frame.locals, frame.attrs, self.shared_value
        try:
            return loc[n] if n in loc else attrs[n] if n in attrs else read(frame, n)
        except UnboundName:
            if n in self.entities:
                return EntityVal(n)
            return TokenVal(n)

    def field_of(self, frame: _Frame, recv: Value, name: str, site: list | None = None) -> Value:
        if not isinstance(recv, UnitVal):
            raise TypeMismatch(f"field {name!r} needs a unit value receiver")
        cls = self.units.get(recv.cls)
        if cls is not None:
            self._require_access(frame.unit, cls, name, site)
        if name not in recv.fields:
            raise UnboundName(f"{recv.cls} has no field {name!r}")
        return recv.fields[name]

    def assign_field(self, frame: _Frame, recv: Value, name: str, value: Value) -> None:
        self.field_of(frame, recv, name)
        cls = self.units.get(recv.cls)
        if cls is not None and cls.attribute(name).is_const:
            raise TypeMismatch(f"{recv.cls}.{name} is constant")
        recv.fields[name] = value

    # -- operation calls

    def resolve_call(
        self, caller: ConceptUnit | None, target: ConceptUnit, op_name: str
    ) -> ir.Operation:
        if caller is not None:
            self._require_access(caller, target, op_name)
        try:
            return target.operation(op_name)
        except ir.UnknownMember as exc:
            raise UnboundName(exc.args[0]) from exc

    def invoke(self, target: ConceptUnit, op: ir.Operation, args: list[Value]) -> Value:
        """Bind args and run op's compiled body."""
        if len(args) != len(op.params):
            raise TypeMismatch(
                f"{target.name}.{op.name} takes {len(op.params)} arguments, got {len(args)}"
            )
        attrs = self.frames.get(target.name)
        if attrs is None:
            attrs = self.unit_frame(target)
        locals_map: dict = {}
        if args:
            for param, value in zip(op.params, args):
                self._check_param(target, op.name, param, value)
                if isinstance(value, SeqVal):
                    value = value.copy()
                elif isinstance(value, UnitVal):
                    for fval in value.fields.values():
                        if isinstance(fval, SeqVal):
                            fval.pos = 0
                locals_map[param.name] = value
        stmts = _compiled(op)
        depth = self.call_depth + 1
        if depth > _CALL_DEPTH_LIMIT:
            raise StepLimitExceeded("operation call depth exceeded")
        self.call_depth = depth
        try:
            value = _run(stmts, self, _Frame(target, locals_map, attrs))
        finally:
            self.call_depth = depth - 1
        return NOTHING if value is None else value

    def _check_param(self, target: ConceptUnit, op_name: str, param: ir.Param, value: Value) -> None:
        t = param.type_ref
        got = None  # what a refused argument is; the message is built only then
        kind, elem, _ = ir.TYPES.get(t, _NO_TYPE)
        if kind is not None:
            if not isinstance(value, _VALUE_CLASSES[kind]):
                got = type(value).__name__
            elif kind == "agent" or kind == "element":
                ekind = self.entities.get(value.entity, ("?", None))[0]
                if elem is not None and ekind != elem:
                    got = f"a {ekind} entity"
            elif elem == ir.TOKEN_ELEM:
                if any(not isinstance(item, TokenVal) for item in value.items):
                    got = "a collection of non-tokens"
            elif elem is not None:  # a set or list of one entity kind
                for item in value.items:
                    if not isinstance(item, EntityVal):
                        got = "a collection of non-entities"
                        break
                    ekind = self.entities.get(item.entity, ("?", None))[0]
                    if ekind != elem:
                        got = f"a collection holding {ekind} entities"
                        break
        elif t in self.units:
            if not isinstance(value, UnitVal) or value.cls != t:
                got = type(value).__name__
        else:
            raise TypeMismatch(f"{target.name}.{op_name}({param.name}: {t}): unknown parameter type")
        if got is not None:
            raise TypeMismatch(f"{target.name}.{op_name}({param.name}: {t}) does not accept {got}")


# ---------------------------------------------------------------------------
# Primitive verbs
#
# Each primitive verb is one function (machine, receiver, argument
# values) -> Value, defined here and nowhere else: compiled bodies and
# eval_primitive both call it through _PRIMITIVES. A function takes the
# well-typed case first and raises its own error otherwise. The
# arguments come as a tuple.

def _move(m, recv, args):
    trace = m.trace
    trace.append(TraceEvent(len(trace) + 1, "Moved", None))
    return NOTHING


def _point_to(m, recv, args):
    if len(args) == 1 and args[0].__class__ is EntityVal:
        eid = args[0].entity
        if eid in m.entities:
            trace = m.trace
            trace.append(TraceEvent(len(trace) + 1, "PointedTo", eid))
            return NOTHING
        raise UnboundName(f"PointTo: unknown entity {eid!r}")
    raise TypeMismatch("PointTo takes one entity")


def _say(m, recv, args):
    if len(args) == 1:
        word = args[0]
        if word.__class__ is TokenVal:
            trace = m.trace
            trace.append(TraceEvent(len(trace) + 1, "Said", word.token))
            return NOTHING
        if word is NOTHING:
            raise NumeralsExhausted("the numerals ran out: Say has no count word left")
    raise TypeMismatch("Say takes one sound token")


def _take_away(m, recv, args):
    if len(args) == 1 and args[0].__class__ is EntityVal:
        eid = args[0].entity
        if eid not in m.entities:
            raise UnboundName(f"TakeAway: unknown entity {eid!r}")
        for members in m.containers.values():
            if eid in members:
                members.remove(eid)
                trace = m.trace
                trace.append(TraceEvent(len(trace) + 1, "TookAway", eid))
                return NOTHING
        raise UnboundName(f"{eid!r} is not in any container")
    raise TypeMismatch("TakeAway takes one entity")


def _empty(m, recv, args):
    if recv.__class__ is SeqVal:
        return _FALSE if recv.items else _TRUE
    raise TypeMismatch("Empty needs an ordered collection receiver")


def _first(m, recv, args):
    """Reset the cursor past the front and return the first element."""
    if recv.__class__ is SeqVal:
        if recv.items:
            recv.pos = 1
            return recv.items[0]
        raise EmptyCollection("First on an empty collection")
    raise TypeMismatch("First needs an ordered collection receiver")


def _next(m, recv, args):
    """Return the element under the cursor and advance, or Nothing at
    the end, where the cursor stays put (a != NULL loop test ends)."""
    if recv.__class__ is SeqVal:
        pos = recv.pos
        items = recv.items
        if pos < len(items):
            recv.pos = pos + 1
            return items[pos]
        return NOTHING
    raise TypeMismatch("Next needs an ordered collection receiver")


def _append(m, recv, args):
    if recv.__class__ is SeqVal:
        if len(args) == 1:
            recv.items.append(args[0])
            return NOTHING
        raise TypeMismatch("Append takes one element")
    raise TypeMismatch("Append needs an ordered collection receiver")


def _delete(m, recv, args):
    """Remove the first element equal to the argument, if any, keeping
    the cursor on the element it was on."""
    if recv.__class__ is SeqVal:
        if len(args) == 1:
            try:
                i = recv.items.index(args[0])
            except ValueError:
                return NOTHING
            del recv.items[i]
            if i < recv.pos:
                recv.pos -= 1
            return NOTHING
        raise TypeMismatch("Delete takes one element")
    raise TypeMismatch("Delete needs an ordered collection receiver")


def _select_one_random(m, recv, args):
    """Draw the element random.Random(seed).choice would: the rejection
    loop of its _randbelow, run here over the generator's getrandbits."""
    if recv.__class__ is SeqVal:
        items = recv.items
        if items:
            bits = m.rng
            if bits is None:
                bits = m.rng = random.Random(m.rng_seed).getrandbits
            n = len(items)
            k = n.bit_length()
            r = bits(k)
            while r >= n:
                r = bits(k)
            return items[r]
        raise EmptyCollection("SelectOneRandom on an empty collection")
    raise TypeMismatch("SelectOneRandom needs an ordered collection receiver")


class _VerbTable(dict):
    """Verb name -> definition. An unknown verb looks up a function that
    raises, so it fails once its operands are evaluated."""

    def __missing__(self, verb: str):
        def unknown(m, recv, args):
            raise TypeMismatch(f"unknown primitive {verb!r}")

        return unknown


_PRIMITIVES = _VerbTable(
    Move=_move,
    PointTo=_point_to,
    Say=_say,
    TakeAway=_take_away,
    Empty=_empty,
    First=_first,
    Next=_next,
    Append=_append,
    Delete=_delete,
    SelectOneRandom=_select_one_random,
)


# ---------------------------------------------------------------------------
# Closures
#
# An operation's body is compiled into a tuple of statement closures on
# its first call (see _compiled), which _run plays. Every closure takes
# (machine, frame). A statement closure returns None to fall through
# and a Value to return from the operation, so `return` needs no
# exception. Node kinds are dispatched once, at compile time, and a
# primitive call looks its verb's one definition up then; the machine's
# own helpers raise the same errors after the same steps. Every operand
# site reads a name in place, with no closure of its own (see _operand):
# a primitive's receiver and arguments, a setup fact's operands (it
# checks its facts itself, see _compile_setup), both operands of a
# binary operator, a field's receiver and the operand of the loop tests
# `x != NULL` and `!x.Empty()`, which the loop's own closure makes (see
# _compile_while). A primitive's value has three sinks (see
# _compile_primitive): a statement drops it, an expression yields it,
# and `x = r.Verb()` stores it from the verb's own closure. `n++` on an
# int local or own writable int attribute reads, adds and writes in one
# closure (see _compile_assign), and +, - and `n++` take a result in
# -1..64 from the shared table _INTS. No closure depends on the body it
# sits in, so a setup fact or an action keeps its closure on its own
# node, a name its Globals reader, and every body sharing that node
# reuses it, compiling only its other statements.

_BODY_ATTR = "_compiled_body"
_KEPT_ATTR = "_compiled"
_READER_ATTR = "_shared"  # a NameExpr's slot for its Globals reader


def _compiled(op: ir.Operation):
    """op's compiled body, compiled on the first call and kept in the
    Operation's own slot, so it lives and dies with the operation."""
    stmts = getattr(op, _BODY_ATTR, None)
    if stmts is None:
        stmts = _compile_body(op.body)
        object.__setattr__(op, _BODY_ATTR, stmts)
    return stmts


def compiled_body(op: ir.Operation):
    """The compiled body of op: None until its first call."""
    return getattr(op, _BODY_ATTR, None)


def _compile_body(body: Sequence[Stmt]) -> tuple:
    # A setup fact or an action met before brings its kept closure.
    return tuple([getattr(s, _KEPT_ATTR, None) or _compile_stmt(s) for s in body])


def _run(stmts: tuple, m: _Machine, f: _Frame):
    """Play compiled statements, one step each, up to a returned Value."""
    for stmt in stmts:
        if m.steps < m.step_limit:
            m.steps += 1
        else:
            m.tick()
        out = stmt(m, f)
        if out is not None:
            return out
    return None


def _compile_stmt(stmt: Stmt):
    kind = type(stmt)
    if kind is ActionStmt or kind is SetupStmt:  # kept on the node
        if kind is ActionStmt:
            code = _compile_primitive(stmt.verb, stmt.recv, stmt.args, None)
        else:
            code = _compile_setup(stmt.pred, stmt.args)
        object.__setattr__(stmt, _KEPT_ATTR, code)
        return code
    if kind is AssignStmt:
        return _compile_assign(stmt)
    if kind is CallStmt:
        return _compile_call(stmt.recv, stmt.op, stmt.args, None)
    if kind is WhileStmt:
        return _compile_while(stmt)
    if kind is IfStmt:
        cond = _compile_expr(stmt.cond)
        then = _compile_body(stmt.then)
        orelse = _compile_body(stmt.orelse)

        def if_(m, f):
            c = cond(m, f)
            if c.__class__ is not BoolVal:
                raise TypeMismatch("if needs a Boolean condition")
            return _run(then, m, f) if c.value else _run(orelse, m, f)

        return if_
    if kind is LocalDecl:
        name = stmt.name
        if ir.is_collection_type(stmt.type_ref):
            def declare_seq(m, f):
                f.locals[name] = SeqVal([])

            return declare_seq
        initial = _default_value(stmt.type_ref)

        def declare(m, f):
            f.locals[name] = initial

        return declare
    if kind is ReturnStmt:
        if stmt.value is None:
            return lambda m, f: NOTHING
        return _compile_expr(stmt.value)  # a Value is never None
    if kind is BlockStmt:
        stmts = _compile_body(stmt.body)
        return lambda m, f: _run(stmts, m, f)
    return _raising(TypeMismatch, f"cannot execute {stmt!r}")


def _compile_setup(pred: str, args: tuple[str, ...]):
    """A setup fact reads each operand in place, by _operand's line with
    the machine's Globals lookup for the rest, and checks that every
    operand is an entity before it looks any up in the scene (In, On) or
    in its container (InLine). The closure is kept on the SetupStmt, so
    it must not hold the node."""
    def setup(m, f):
        loc, attrs = f.locals, f.attrs
        ids = []
        for n in args:
            value = loc[n] if n in loc else attrs[n] if n in attrs else m.shared_value(f, n)
            if value.__class__ is not EntityVal:
                raise SetupMismatch(f"{pred}: {n!r} is not an entity")
            ids.append(value.entity)
        if pred in ("In", "On"):
            for eid in ids:
                if eid not in m.entities:
                    raise SetupMismatch(f"{pred}: {eid!r} is not in the scene")
            return
        # InLine holds only for the whole container, in order, arranged in a line
        if not ids:
            raise SetupMismatch("InLine needs entities")
        home = None
        for cname, members in m.containers.items():
            if ids[0] in members:
                home = cname
                break
        if home is None:
            raise SetupMismatch(f"InLine: {ids[0]!r} is not in any container")
        if ids != m.containers[home]:
            raise SetupMismatch(
                f"InLine: container {home!r} does not hold exactly these entities in order"
            )
        group = m.entities[ids[0]][1]
        if group is None or m.arrangements.get(group) != "Line":
            raise SetupMismatch(f"InLine: group {group!r} is not arranged in a line")

    return setup


def _compile_while(stmt: WhileStmt):
    """A loop whose test reads one operand in place (see _operand) in the
    loop's own closure: `x != NULL` ends the loop on Nothing, `!x.Empty()`
    on an empty collection, with Empty's own error on anything else, and
    any other condition is a closure whose value must be a Boolean."""
    body = _compile_body(stmt.body)
    cond = stmt.cond
    if type(cond) is BinExpr and cond.op == "!=" and type(cond.right) is NullExpr:
        shape, (n, read) = NullExpr, _operand(cond.left)
    elif (
        type(cond) is NotExpr and type(cond.operand) is CallExpr
        and cond.operand.op == "Empty" and cond.operand.recv is not None
        and not cond.operand.args
    ):
        shape, (n, read) = SeqVal, _operand(cond.operand.recv)
    else:
        shape, n, read = BoolVal, None, _compile_expr(cond)

    def while_(m, f):
        loc, attrs, limit = f.locals, f.attrs, m.step_limit
        while True:
            if m.steps < limit:
                m.steps += 1
            else:
                m.tick()
            v = loc[n] if n in loc else attrs[n] if n in attrs else read(m, f)
            if shape is NullExpr:
                if v is NOTHING:
                    return None
            elif v.__class__ is shape:
                if not (v.value if shape is BoolVal else v.items):
                    return None
            elif shape is BoolVal:
                raise TypeMismatch("while needs a Boolean condition")
            else:
                _empty(m, v, ())
            for s in body:
                if m.steps < limit:
                    m.steps += 1
                else:
                    m.tick()
                out = s(m, f)
                if out is not None:
                    return out

    return while_


def _compile_assign(stmt: AssignStmt):
    target, expr = stmt.target, stmt.value
    if type(target) is NameExpr and type(expr) is CallExpr and not expr.args:
        if expr.op in ir.PRIMITIVE_VERBS and expr.recv is not None:
            return _compile_primitive(expr.op, expr.recv, (), target.name)
    value = _compile_expr(expr)
    if type(target) is not NameExpr:
        recv = _compile_expr(target.recv)
        field = target.name

        def set_field(m, f):
            v = value(m, f)
            m.assign_field(f, recv(m, f), field, v)

        return set_field
    name = target.name
    site = [None]  # the unit last seen to own a writable `name`

    def set_name(m, f):
        v = value(m, f)
        if name in f.locals:
            f.locals[name] = v
        elif name in f.attrs and site[0] is f.unit:
            f.attrs[name] = v
        else:
            m.assign(f, name, v, site)

    if expr != BinExpr("+", target, IntExpr(1)):
        return set_name

    def increment(m, f):
        """`name++` in place on an int local or an own writable int
        attribute; anything else takes the general assignment."""
        scope = f.locals
        if name not in scope:
            scope = f.attrs
            if site[0] is not f.unit or name not in scope:
                return set_name(m, f)
        v = scope[name]
        if v.__class__ is not IntVal:
            return set_name(m, f)
        v = v.value + 1
        scope[name] = _INTS[v + 1] if -1 <= v <= 64 else IntVal(v)

    return increment


def _compile_expr(expr: Expr):
    kind = type(expr)
    if kind is NameExpr:
        return _compile_name(expr)
    if kind is CallExpr:
        if expr.op in ir.PRIMITIVE_VERBS:
            if expr.recv is not None:
                return _compile_primitive(expr.op, expr.recv, expr.args, NOTHING)
            return _raising(TypeMismatch, f"{expr.op} needs a receiver")
        if expr.recv is None or type(expr.recv) is NameExpr:
            recv = None if expr.recv is None else expr.recv.name
            return _compile_call(recv, expr.op, expr.args, NOTHING)
        return _raising(UnboundName, f"operation {expr.op!r} needs a unit receiver")
    elif kind is FieldExpr:
        return _compile_field(expr)
    elif kind is BinExpr:
        return _compile_binop(expr)
    elif kind is IntExpr:
        constant = IntVal(expr.value)
        return lambda m, f: constant
    elif kind is BoolExpr:
        constant = _TRUE if expr.value else _FALSE
        return lambda m, f: constant
    elif kind is NullExpr:
        return lambda m, f: NOTHING
    elif kind is NotExpr:
        operand = _compile_expr(expr.operand)

        def not_(m, f):
            v = operand(m, f)
            if v.__class__ is BoolVal:
                return _FALSE if v.value else _TRUE
            raise TypeMismatch("! needs a Boolean operand")

        return not_
    elif kind is ListExpr:
        names = expr.names
        return lambda m, f: SeqVal([m._list_element(f, name) for name in names])
    return _raising(TypeMismatch, f"cannot evaluate {expr!r}")


def _raising(error: type[ExecError], message: str):
    """The closure of a node that cannot run: it raises a fresh error on
    each call, before any operand is evaluated."""
    def fail(m, f):
        raise error(message)

    return fail


def _operand(expr: Expr):
    """(n, rest) for reading expr in place, by the one rule for names: a
    local (a parameter, or a declaration that has run), else an own
    attribute, else Globals through rest, the name's reader:

        loc[n] if n in loc else attrs[n] if n in attrs else rest(m, f)

    Any other expression gives (None, its closure): None is never a key.
    A reader holds its site's access decision and is kept on the NameExpr
    node, so every body sharing the node shares it."""
    if type(expr) is not NameExpr:
        return None, _compile_expr(expr)
    name = expr.name
    reader = getattr(expr, _READER_ATTR, None)
    if reader is None:
        site = [(None, None)]

        def reader(m, f):
            shared = m.frames.get(ir.GLOBALS_UNIT)
            if shared is not None and name in shared:
                k = site[0]
                if k[0] is f.unit and k[1] is m.units.get(ir.GLOBALS_UNIT):
                    return shared[name]
            return m.shared_value(f, name, site)

        object.__setattr__(expr, _READER_ATTR, reader)
    return name, reader


def _compile_name(expr: NameExpr):
    """A name read by a closure of its own, by _operand's line."""
    n, rest = _operand(expr)

    def load(m, f):
        loc, attrs = f.locals, f.attrs
        return loc[n] if n in loc else attrs[n] if n in attrs else rest(m, f)

    return load


def _compile_field(expr: FieldExpr):
    rn, recv = _operand(expr.recv)
    name = expr.name
    site = [(None, None)]

    def field(m, f):
        loc, attrs = f.locals, f.attrs
        r = loc[rn] if rn in loc else attrs[rn] if rn in attrs else recv(m, f)
        if r.__class__ is UnitVal:
            k = site[0]
            if k[0] is f.unit and k[1] is m.units.get(r.cls):
                fields = r.fields
                if name in fields:
                    return fields[name]
        return m.field_of(f, r, name, site)

    return field


def _compile_binop(expr: BinExpr):
    """Both operands are read in place (see _operand), left first. ==
    and != compare any two values, the others two integers."""
    op = expr.op
    compute = _INT_OPS.get(op)
    if compute is None:
        left, right = _compile_expr(expr.left), _compile_expr(expr.right)
        return lambda m, f: _binop_error(op, left(m, f), right(m, f))
    ln, left = _operand(expr.left)
    if op in ("==", "!=") and type(expr.right) is NullExpr:
        # x == NULL holds exactly when x is Nothing, which equals only itself
        hit, miss = (_TRUE, _FALSE) if op == "==" else (_FALSE, _TRUE)

        def null_test(m, f):
            loc, attrs = f.locals, f.attrs
            a = loc[ln] if ln in loc else attrs[ln] if ln in attrs else left(m, f)
            return hit if a is NOTHING else miss

        return null_test
    rn, right = _operand(expr.right)
    other = compute if op in ("==", "!=") else lambda a, b: _binop_error(op, a, b)

    def binop(m, f):
        loc, attrs = f.locals, f.attrs
        a = loc[ln] if ln in loc else attrs[ln] if ln in attrs else left(m, f)
        b = loc[rn] if rn in loc else attrs[rn] if rn in attrs else right(m, f)
        if a.__class__ is IntVal and b.__class__ is IntVal:
            return compute(a.value, b.value)
        return other(a, b)

    return binop


def _binop_error(op: str, left: Value, right: Value):
    """Raise the error of an operator that no closure computed: an
    unknown one, or an integer one on other operands."""
    if isinstance(left, IntVal) and isinstance(right, IntVal):
        raise TypeMismatch(f"unknown operator {op!r}")
    raise TypeMismatch(f"{op} needs integer operands")


_INT_OPS = {
    "==": lambda a, b: _TRUE if a == b else _FALSE,
    "!=": lambda a, b: _FALSE if a == b else _TRUE,
    "+": lambda a, b: _int(a + b),
    "-": lambda a, b: _int(a - b),
    "<": lambda a, b: _TRUE if a < b else _FALSE,
    ">": lambda a, b: _TRUE if a > b else _FALSE,
    "<=": lambda a, b: _TRUE if a <= b else _FALSE,
    ">=": lambda a, b: _TRUE if a >= b else _FALSE,
}


def _compile_primitive(verb: str, recv_expr: Expr, arg_exprs, done):
    """A primitive call through its verb's one definition, with one
    closure per arity that reads each operand in place (see _operand).
    done is the sink of the verb's value: None for a statement, which
    yields None, NOTHING for an expression, which yields the value, and,
    for a verb without arguments, a target name, which the closure
    assigns the value to after the verb ran, as _compile_assign would."""
    run = _PRIMITIVES[verb]
    rn, recv = _operand(recv_expr)
    if not arg_exprs:
        site = [None]  # a target name's writing unit, as in _compile_assign

        def primitive(m, f):
            loc, attrs = f.locals, f.attrs
            r = loc[rn] if rn in loc else attrs[rn] if rn in attrs else recv(m, f)
            value = run(m, r, ())
            if done is NOTHING:
                return value
            if done in loc:  # a statement's done, None, is never a key
                loc[done] = value
            elif done in attrs and site[0] is f.unit:
                attrs[done] = value
            elif done is not None:
                m.assign(f, done, value, site)
    elif len(arg_exprs) == 1:
        an, arg = _operand(arg_exprs[0])

        def primitive(m, f):
            loc, attrs = f.locals, f.attrs
            r = loc[rn] if rn in loc else attrs[rn] if rn in attrs else recv(m, f)
            a = loc[an] if an in loc else attrs[an] if an in attrs else arg(m, f)
            value = run(m, r, (a,))
            return value if done is NOTHING else None
    else:
        args = tuple([_operand(a) for a in arg_exprs])

        def primitive(m, f):
            loc, attrs = f.locals, f.attrs
            r = loc[rn] if rn in loc else attrs[rn] if rn in attrs else recv(m, f)
            value = run(m, r, tuple([
                loc[n] if n in loc else attrs[n] if n in attrs else a(m, f) for n, a in args
            ]))
            return value if done is NOTHING else None

    return primitive


def _compile_call(recv_name: str | None, op_name: str, arg_exprs, done):
    """An operation call by a statement (done is None) or an expression;
    a receiver name that is bound as a local or attribute, or names no
    unit, is reported before any argument is evaluated."""
    args = tuple(_compile_expr(a) for a in arg_exprs)
    site = [(None, None, None)]  # (caller, target, operation) last resolved here

    def call(m, f):
        caller = f.unit
        if recv_name is None:
            target = caller
        else:
            target = m.units.get(recv_name)
            if target is None or recv_name in f.attrs or recv_name in f.locals:
                if done is None:
                    raise UnboundName(f"unknown unit {recv_name!r}")
                raise UnboundName(f"operation {op_name!r} needs a unit receiver")
        values = [a(m, f) for a in args]
        k = site[0]
        if k[0] is caller and k[1] is target:
            op = k[2]
        else:
            op = m.resolve_call(caller, target, op_name)
            site[0] = (caller, target, op)
        value = m.invoke(target, op, values)
        return value if done is NOTHING else None

    return call


# ---------------------------------------------------------------------------
# Public entry points

def execute(
    kb: Sequence[ConceptUnit],
    target: ConceptUnit,
    op: str,
    args: Sequence[Value],
    world: World,
    caller_domain: str,
    step_limit: int = DEFAULT_STEP_LIMIT,
    *,
    caller_unit: str | None = None,
) -> ExecResult:
    """Run target.op(args) against a copy of the world.

    caller_unit defaults to a synthetic outsider in caller_domain;
    passing the target's own name models a unit activating itself,
    which is how a recorded instance replays.
    """
    if step_limit <= 0:
        raise ValueError("step_limit must be positive")
    machine = _Machine(kb, world, step_limit)
    if target.name not in machine.units:
        machine.units[target.name] = target
    caller_name = caller_unit if caller_unit is not None else f"<{caller_domain}>"
    try:
        denied = ir.access_denied(caller_domain, caller_name, target, op)
    except ir.UnknownMember as exc:
        raise UnboundName(exc.args[0]) from exc
    if denied is not None:
        raise AccessViolation(denied)
    value = machine.invoke(target, machine.resolve_call(None, target, op), list(args))
    return ExecResult(tuple(machine.trace), value, machine.steps, machine.snapshot_world())


def replay_instance(
    kb: Sequence[ConceptUnit],
    instance: ConceptUnit,
    world: World,
    step_limit: int = DEFAULT_STEP_LIMIT,
) -> ExecResult:
    """Self-activate a recorded instance on a world."""
    return execute(
        kb,
        instance,
        ir.IMPLICIT_OP,
        [],
        world,
        caller_domain=instance.domain,
        step_limit=step_limit,
        caller_unit=instance.name,
    )


def eval_primitive(
    verb: str,
    recv: Value,
    args: Sequence[Value],
    world: World,
) -> tuple[TraceEvent | None, Value]:
    """Run one primitive in isolation; the world is only consulted, and
    TakeAway mutates a throwaway copy. Collection receivers mutate in
    place. The draw sequence restarts from world.rng_seed each call."""
    machine = _Machine((), world, DEFAULT_STEP_LIMIT)
    value = _PRIMITIVES[verb](machine, recv, tuple(args))
    event = machine.trace[0] if machine.trace else None
    return event, value


def build_unit_value(
    kb: Sequence[ConceptUnit],
    cls_name: str,
    world: World,
    container: str,
) -> UnitVal:
    """Construct a unit value over one named container, outside any run."""
    for unit in kb:
        if unit.name == cls_name:
            members = world.containers.get(container)
            if members is None:
                raise UnboundName(f"world has no container {container!r}")
            machine = _Machine(kb, world, DEFAULT_STEP_LIMIT)
            return machine.build_unit_value(unit, tuple(members))
    raise UnboundName(f"no class {cls_name!r} in the knowledge base")
