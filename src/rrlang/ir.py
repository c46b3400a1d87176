"""Core data model for leveled concept units.

A concept unit is an instance or class with attributes, operations, and
friend declarations. Units sit on a four-step representational ladder
(I, E1, E2, E3); each level carries a structural discipline that
``validate`` checks. ``access_denied`` decides member visibility between
units. Every value type of the package, from syntax nodes to the units
themselves, is a frozen slotted record built by ``record`` and copied
with changes by ``replace``; the closed vocabularies (``Level``,
``Visibility``, ``UnitKind``) are frozen singletons of ``Vocabulary``.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Sequence


# ---------------------------------------------------------------------------
# Records

class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a record."""


def _refuse_assignment(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def record(cls):
    """Rebuild cls as a frozen, slotted record of its annotated fields.

    Fields are the annotated names, in order, with class-level values
    as defaults; a defaulted field must not come before a plain one.
    Assignment and deletion are refused with ``FrozenInstanceError``;
    equality and hashing go by type plus fields; the repr is
    ``Name(field=value, ...)``; ``__match_args__`` lists the fields;
    ``copy``, ``deepcopy`` and ``pickle`` rebuild a record from its
    fields positionally.
    Every record has one ``__init__``, and the class may not write its
    own. It is the template of ``_inits`` for the record's field count,
    its parameters renamed to the fields and the trailing defaults set,
    so Python's own argument binding takes the fields positionally or
    by keyword and raises every ``TypeError``. Its body fills each slot
    through the slot descriptor's ``__set__``, which skips the lookup of
    ``object.__setattr__`` and its name argument. Nothing is generated
    or compiled, which keeps importing the package cheap.
    Names the class lists in ``__slots__`` become extra slots outside
    the fields: no ``__init__``, equality, hash, repr, copy, ``pickle``
    or ``replace`` sees them, and they start unset. The interpreter
    keeps what it derives from a node there, once per node: the
    compiled body of an ``Operation``, the closure of a ``SetupStmt``
    or ``ActionStmt``, the Globals reader of a ``NameExpr`` and the
    bound value of a const ``Attribute``.
    """
    names = tuple(cls.__dict__.get("__annotations__", {}))
    ns = dict(cls.__dict__)
    if "__init__" in ns:
        raise TypeError(f"record {cls.__qualname__} may not write its own __init__")
    defaults = {name: ns.pop(name) for name in names if name in ns}
    if tuple(defaults) != names[len(names) - len(defaults):]:
        raise TypeError(f"record {cls.__qualname__} has a plain field after a defaulted one")
    extra = tuple(ns.pop("__slots__", ()))
    for name in extra:
        del ns[name]  # the original class's slot descriptor
    ns.pop("__dict__", None)
    ns.pop("__weakref__", None)
    if len(names) == 1:
        get = attrgetter(names[0])  # compares one field without a 1-tuple
        key = lambda self: (get(self),)
    elif names:
        key = get = attrgetter(*names)
    else:
        key = get = lambda self: ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return get(self) == get(other)
        return NotImplemented

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, key(self)))
        return f"{self.__class__.__qualname__}({shown})"

    ns.update(
        __slots__=names + extra,
        __match_args__=names,
        __setattr__=_refuse_assignment,
        __delattr__=_refuse_deletion,
        __eq__=__eq__,
        __hash__=lambda self: hash(key(self)),
        __repr__=__repr__,
        __reduce__=lambda self: (self.__class__, key(self)),
    )
    built = type(cls)(cls.__name__, cls.__bases__, ns)
    setters = [built.__dict__[name].__set__ for name in names]
    init = _inits(*setters, *[None] * (7 - len(names)))[len(names)]
    # its own co_name, so a profile keys each record's init apart
    init.__code__ = init.__code__.replace(
        co_name=f"{cls.__qualname__}.__init__", co_varnames=("self", *names)
    )
    init.__name__, init.__qualname__ = "__init__", f"{cls.__qualname__}.__init__"
    init.__defaults__ = tuple(defaults.values())
    built.__init__ = init
    return built


def replace(obj, /, **changes):
    """A copy of record obj with the named fields changed; naming a
    field obj lacks raises TypeError. Extra slots are not copied."""
    values = [changes.pop(name, getattr(obj, name)) for name in obj.__match_args__]
    if changes:
        raise TypeError(f"{type(obj).__qualname__} has no field {next(iter(changes))!r}")
    return type(obj)(*values)


def _inits(a, b, c, d, e, f, g):
    """One ``__init__`` template per field count, 0 to 7, each filling
    its slots with the first of the slot setters a to g. ``record``
    renames a template's parameters to the fields."""

    def init0(self):
        pass

    def init1(self, _a):
        a(self, _a)

    def init2(self, _a, _b):
        a(self, _a)
        b(self, _b)

    def init3(self, _a, _b, _c):
        a(self, _a)
        b(self, _b)
        c(self, _c)

    def init4(self, _a, _b, _c, _d):
        a(self, _a)
        b(self, _b)
        c(self, _c)
        d(self, _d)

    def init5(self, _a, _b, _c, _d, _e):
        a(self, _a)
        b(self, _b)
        c(self, _c)
        d(self, _d)
        e(self, _e)

    def init6(self, _a, _b, _c, _d, _e, _f):
        a(self, _a)
        b(self, _b)
        c(self, _c)
        d(self, _d)
        e(self, _e)
        f(self, _f)

    def init7(self, _a, _b, _c, _d, _e, _f, _g):
        a(self, _a)
        b(self, _b)
        c(self, _c)
        d(self, _d)
        e(self, _e)
        f(self, _f)
        g(self, _g)

    return init0, init1, init2, init3, init4, init5, init6, init7


class _VocabularyType(type):
    """The type of a vocabulary: it turns each public name the class
    spells into a member, iterates the members in declaration order and
    finds one by name (``Level["E1"]``). It has no ``__getattr__``."""

    def __new__(meta, name, bases, ns):
        spelled = [(key, ns.pop(key)) for key in list(ns) if not key.startswith("_")]
        cls = super().__new__(meta, name, bases, {"__slots__": (), **ns})
        members = []
        for rank, (key, value) in enumerate(spelled):
            member = object.__new__(cls)
            for setter, field in zip(_MEMBER_SETTERS, (key, value, rank)):
                setter(member, field)
            setattr(cls, key, member)
            members.append(member)
        cls._members = tuple(members)
        cls._by_name = {member.name: member for member in cls._members}
        cls._by_value = {member.value: member for member in cls._members}
        return cls

    def __iter__(cls):
        return iter(cls._members)

    def __getitem__(cls, name: str):
        return cls._by_name[name]


class Vocabulary(metaclass=_VocabularyType):
    """A closed set of named constants, one frozen singleton each.

    A subclass spells its members as class attributes, ``NAME =
    "value"``; each becomes an instance with the slots ``name``,
    ``value`` and ``rank`` (its place in declaration order). A member
    is found by name with ``Cls["NAME"]`` and by spelled value with
    ``Cls("value")``; the class iterates its members in order. Repr and
    str are Enum's (``<Level.E1: 'E1'>``, ``Level.E1``), assignment and
    deletion are refused with ``FrozenInstanceError``, and ``copy``,
    ``deepcopy`` and ``pickle`` return the same member, so members
    compare, hash and test with ``is`` by identity.

    It replaces ``enum.Enum``, whose type has a ``__getattr__`` on
    CPython 3.10 and 3.11 (``EnumMeta``/``EnumType``) that sends every
    class attribute read, ``Level.I`` included, through a Python-level
    hook: 97 ns against 21 ns here (3.11.7, timeit, BENCH_19.json), and
    whose ``.name`` and ``.value`` are Python properties: 118 ns against
    9 ns for a slot. ``validate`` alone reads about 40 members per
    recording. 3.12 and later have no such hook, so the gain there is
    smaller: only the slots count.
    """

    __slots__ = ("name", "value", "rank")
    __setattr__ = _refuse_assignment
    __delattr__ = _refuse_deletion

    def __new__(cls, value):
        try:
            return cls._by_value[value]
        except KeyError:
            raise ValueError(f"{value!r} is not a valid {cls.__qualname__}") from None

    def __reduce__(self):
        return self.__class__, (self.value,)

    def __repr__(self) -> str:
        return f"<{self.__class__.__qualname__}.{self.name}: {self.value!r}>"

    def __str__(self) -> str:
        return f"{self.__class__.__qualname__}.{self.name}"


_MEMBER_SETTERS = tuple(Vocabulary.__dict__[name].__set__ for name in Vocabulary.__slots__)


class Level(Vocabulary):
    """The representational ladder, bottom up; ``rank`` orders it."""

    I = "I"
    E1 = "E1"
    E2 = "E2"
    E3 = "E3"


LEVELS: tuple[Level, ...] = tuple(Level)


class Visibility(Vocabulary):
    PRIVATE = "private"
    PROTECTED = "protected"
    PUBLIC = "public"


class UnitKind(Vocabulary):
    INSTANCE = "instance"
    CLASS = "class"


# ---------------------------------------------------------------------------
# Types

# Type references are nominal tags resolved against a flat registry.
TypeRef = str

TOKEN_ELEM = "@token"

# What each built-in type name means: (kind, element, widened). The kind
# is int, Boolean, token, agent, element, set or list; a name not listed
# is a class or an entity kind. The element is the entity kind an agent,
# element or collection type holds (None for any kind, TOKEN_ELEM for
# tokens); the widened name is the type it takes outside its home field.
TYPES: dict[str, tuple[str, str | None, TypeRef]] = {
    "int": ("int", None, "int"),
    "Boolean": ("Boolean", None, "Boolean"),
    "Sound": ("token", None, "Sound"),
    "Person": ("agent", "Person", "Person"),
    "APPLE": ("element", "Apple", "OBJECT"),
    "OBJECT": ("element", None, "OBJECT"),
    "APP_Set": ("set", "Apple", "objectSet"),
    "objectSet": ("set", None, "objectSet"),
    "APP_List": ("list", "Apple", "objectList"),
    "objectList": ("list", None, "objectList"),
    "intList": ("list", TOKEN_ELEM, "intList"),
}
_KINDS = {name: kind for name, (kind, _, _) in TYPES.items()}
# The built-in types whose const literal is a value, not an entity's id.
_NOT_ENTITY = frozenset(n for n, kind in _KINDS.items() if kind not in ("agent", "element"))

SETUP_PREDICATES = frozenset({"In", "On", "InLine"})
ACTION_VERBS = frozenset({"Move", "PointTo", "Say", "TakeAway"})
COLLECTION_VERBS = frozenset(
    {"SelectOneRandom", "Append", "Delete", "Empty", "First", "Next"}
)
PRIMITIVE_VERBS = ACTION_VERBS | COLLECTION_VERBS

GLOBALS_UNIT = "Globals"

# The count-word succession every numeral list draws from, in order.
NUMERALS: tuple[str, ...] = (
    "ONE", "TWO", "THREE", "FOUR", "FIVE",
    "SIX", "SEVEN", "EIGHT", "NINE", "TEN",
    "ELEVEN", "TWELVE", "THIRTEEN", "FOURTEEN", "FIFTEEN",
    "SIXTEEN", "SEVENTEEN", "EIGHTEEN", "NINETEEN", "TWENTY",
)


def type_kind(type_ref: TypeRef) -> str | None:
    """A built-in type's kind; None for a class or an entity kind."""
    return _KINDS.get(type_ref)


def is_collection_type(type_ref: TypeRef) -> bool:
    return _KINDS.get(type_ref) in ("set", "list")


def collection_element(type_ref: TypeRef) -> str | None:
    """Declared element kind of a collection type, None for unconstrained."""
    if not is_collection_type(type_ref):
        raise KeyError(type_ref)
    return TYPES[type_ref][1]


def widen_type(type_ref: TypeRef) -> TypeRef:
    return TYPES[type_ref][2] if type_ref in TYPES else type_ref


def names_entity(attr: Attribute) -> bool:
    """Whether a const attribute's literal is the id of a scene entity: a
    symbol of an agent or element type, a class or an entity kind."""
    return attr.const.__class__ is str and attr.type_ref not in _NOT_ENTITY


# ---------------------------------------------------------------------------
# Expressions

@record
class IntExpr:
    value: int


@record
class BoolExpr:
    value: bool


@record
class NullExpr:
    pass


@record
class NameExpr:
    # The interpreter keeps the name's Globals reader here (see
    # interpreter._operand), shared by every body holding the node.
    __slots__ = ("_shared",)

    name: str


@record
class ListExpr:
    names: tuple[str, ...]


@record
class FieldExpr:
    recv: "Expr"
    name: str


@record
class CallExpr:
    """Method-style call in expression position; recv None means self."""

    recv: "Expr | None"
    op: str
    args: tuple["Expr", ...]


@record
class NotExpr:
    operand: "Expr"


@record
class BinExpr:
    op: str  # one of == != < > <= >= + -
    left: "Expr"
    right: "Expr"


Expr = (
    IntExpr
    | BoolExpr
    | NullExpr
    | NameExpr
    | ListExpr
    | FieldExpr
    | CallExpr
    | NotExpr
    | BinExpr
)


# ---------------------------------------------------------------------------
# Statements

@record
class SetupStmt:
    """Scene fact recorded in a level-I body, checked against the world."""

    # The interpreter keeps the statement's compiled closure here (see
    # interpreter._compile_body), shared by every body holding the node.
    __slots__ = ("_compiled",)

    pred: str
    args: tuple[str, ...]


@record
class ActionStmt:
    """Primitive action or collection manipulation in statement position."""

    __slots__ = ("_compiled",)  # the compiled closure, as on SetupStmt

    verb: str
    recv: Expr
    args: tuple[Expr, ...]


@record
class AssignStmt:
    target: NameExpr | FieldExpr
    value: Expr


@record
class LocalDecl:
    name: str
    type_ref: TypeRef


@record
class WhileStmt:
    cond: Expr
    body: tuple["Stmt", ...]


@record
class IfStmt:
    cond: Expr
    then: tuple["Stmt", ...]
    orelse: tuple["Stmt", ...]


@record
class CallStmt:
    """Operation call in statement position; recv None means self."""

    recv: str | None
    op: str
    args: tuple[Expr, ...]


@record
class ReturnStmt:
    value: Expr | None


@record
class BlockStmt:
    """Inline labeled block, the E1 shape of a not-yet-split operation."""

    label: str
    args: tuple[str, ...]
    body: tuple["Stmt", ...]


Stmt = (
    SetupStmt
    | ActionStmt
    | AssignStmt
    | LocalDecl
    | WhileStmt
    | IfStmt
    | CallStmt
    | ReturnStmt
    | BlockStmt
)


# ---------------------------------------------------------------------------
# Members and units

@record
class Attribute:
    """Named member datum. ``const`` holds a const's literal as written:
    an int, a symbol (a self-named const holds its own name) or a tuple
    of symbols; a var holds None."""

    # The interpreter keeps the value it binds a const to here from its
    # first binding on (see interpreter._Machine._literal_value), so it
    # lives and dies with the node; every run and every recording
    # sharing the node binds the same one. A var never sets it.
    __slots__ = ("_value",)

    name: str
    type_ref: TypeRef
    visibility: Visibility
    const: int | str | tuple[str, ...] | None = None

    @property
    def is_const(self) -> bool:
        return self.const is not None


@record
class Param:
    name: str
    type_ref: TypeRef


IMPLICIT_OP = "Replay"


@record
class Operation:
    # The interpreter keeps the operation's compiled body here, from
    # its first call on (see interpreter._compiled), so it lives and
    # dies with the operation.
    __slots__ = ("_compiled_body",)

    name: str
    params: tuple[Param, ...]
    returns: TypeRef | None  # None prints as void
    visibility: Visibility
    body: tuple[Stmt, ...]
    implicit: bool = False  # bare recorded script of an instance


@record
class ConceptUnit:
    name: str
    kind: UnitKind
    level: Level
    domain: str
    attributes: tuple[Attribute, ...] = ()
    operations: tuple[Operation, ...] = ()
    friends: tuple[str, ...] = ()

    def attribute(self, name: str) -> Attribute:
        for attr in self.attributes:
            if attr.name == name:
                return attr
        raise UnknownMember(f"{self.name} has no attribute {name!r}")

    def operation(self, name: str) -> Operation:
        for op in self.operations:
            if op.name == name:
                return op
        raise UnknownMember(f"{self.name} has no operation {name!r}")

    def member_visibility(self, name: str) -> Visibility:
        for attr in self.attributes:
            if attr.name == name:
                return attr.visibility
        for op in self.operations:
            if op.name == name:
                return op.visibility
        raise UnknownMember(f"{self.name} has no member {name!r}")


class UnknownMember(KeyError):
    """Lookup of a member name the unit does not declare."""


# ---------------------------------------------------------------------------
# Validation

@record
class Diagnostic:
    rule: str
    message: str
    unit: str
    member: str | None = None

    def __str__(self) -> str:
        where = f"{self.unit}.{self.member}" if self.member else self.unit
        return f"[{self.rule}] {where}: {self.message}"


def walk(body: Iterable[Stmt]):
    """Every statement of body, nested bodies included, in source order."""
    for stmt in body:
        yield stmt
        kind = stmt.__class__  # statement records have no subclasses
        if kind is WhileStmt or kind is BlockStmt:
            yield from walk(stmt.body)
        elif kind is IfStmt:
            yield from walk(stmt.then)
            yield from walk(stmt.orelse)


# The straight-line shape of a level I recording: setup facts and
# atomic actions only.
_SCRIPT_STATEMENTS = frozenset((SetupStmt, ActionStmt))


def iter_statements(unit: ConceptUnit):
    for op in unit.operations:
        yield from walk(op.body)


def loop_count(unit: ConceptUnit) -> int:
    return sum(1 for s in iter_statements(unit) if isinstance(s, WhileStmt))


_NAME = attrgetter("name")
# The literal a const of a built-in type takes: an integer for int, a
# list of symbols for a collection type, and a symbol for Boolean and the
# token, agent and element types. A class or an entity kind is not checked.
_LITERAL_FORMS = {
    name: int if kind == "int" else tuple if kind in ("set", "list") else str
    for name, kind in _KINDS.items()
}
_FORM_NAMES = {int: "an integer", tuple: "a list of symbols", str: "a symbol"}


def validate(unit: ConceptUnit) -> list[Diagnostic]:
    """Check one unit against the shared rules and its level discipline.

    Returns an empty list when the unit is well formed. The synthetic
    Globals unit has its own shape (const public data, no operations)
    and skips the per-level rules.
    """
    out: list[Diagnostic] = []

    def bad(rule: str, message: str, member: str | None = None) -> None:
        out.append(Diagnostic(rule, message, unit.name, member))

    seen: set[str] = set()
    for attr in unit.attributes:
        name = attr.name
        if name in seen:
            bad("duplicate-member", "attribute name reused", name)
        seen.add(name)
        if attr.const is not None:
            form = _LITERAL_FORMS.get(attr.type_ref)
            if form is not None and not isinstance(attr.const, form):
                bad("const-type", f"a const {attr.type_ref} takes {_FORM_NAMES[form]}", name)
    # Whether each operation is a level I script: none of the walk's
    # rules below can fire on a body of setup facts and actions only.
    level_i = unit.level is Level.I
    scripts = []
    for op in unit.operations:
        script = level_i and _SCRIPT_STATEMENTS.issuperset(map(type, op.body))
        scripts.append(script)
        if op.name in seen:
            bad("duplicate-member", "operation name reuses a member name", op.name)
        seen.add(op.name)
        if len(set(map(_NAME, op.params))) != len(op.params):
            bad("duplicate-param", "parameter names must be distinct", op.name)
        for stmt in () if script else walk(op.body):
            kind = stmt.__class__
            if kind is ActionStmt:  # no rule below concerns an action
                continue
            if kind is ReturnStmt and stmt.value is not None:
                if op.returns is None:
                    bad("return-in-void", "returns a value from a void operation", op.name)
            elif kind is WhileStmt and not stmt.body:
                bad("empty-loop", "loop body is empty", op.name)
            elif kind is SetupStmt and unit.level is not Level.I:
                bad("setup-above-i", "setup facts belong to level I recordings", op.name)
            elif kind is BlockStmt and unit.level is not Level.E1:
                bad("block-outside-e1", "inline labeled blocks are an E1-only form", op.name)

    if unit.friends and unit.level.rank < Level.E2.rank:
        bad("friends-below-e2", "friend declarations appear first at E2")

    if unit.name == GLOBALS_UNIT:
        if unit.operations:
            bad("globals-shape", "shared constants carry no operations")
        for attr in unit.attributes:
            if not attr.is_const:
                bad("globals-shape", "shared data must be constant", attr.name)
            if attr.visibility is not Visibility.PUBLIC:
                bad("globals-shape", "shared constants are public", attr.name)
        return out

    if unit.level is Level.I:
        if unit.kind is not UnitKind.INSTANCE:
            bad("i-kind", "level I units are recorded instances")
        private = Visibility.PRIVATE
        for attr in unit.attributes:
            if attr.const is None:
                bad("i-const", "level I attributes are bound constants", attr.name)
            if attr.visibility is not private:
                bad("i-private", "level I members are private", attr.name)
        for op, script in zip(unit.operations, scripts):
            if op.visibility is not Visibility.PRIVATE:
                bad("i-private", "level I members are private", op.name)
            if op.params or op.returns is not None:
                bad("i-script", "a recording takes no parameters and returns nothing", op.name)
            if not script:
                bad(
                    "i-straight-line",
                    "recordings hold only setup facts and atomic actions",
                    op.name,
                )
    elif unit.level is Level.E1:
        if unit.kind is not UnitKind.CLASS:
            bad("e1-kind", "level E1 units are classes")
        for op in unit.operations:
            if op.visibility is Visibility.PUBLIC:
                bad("e1-op-visibility", "E1 operations stay at most protected", op.name)
        if not any(not a.is_const for a in unit.attributes):
            bad("e1-var", "an E1 class abstracts at least one attribute into a variable")
        if loop_count(unit) < 1:
            bad("e1-loop", "an E1 class compresses repetition into at least one loop")
    elif unit.level is Level.E2:
        if unit.kind is not UnitKind.CLASS:
            bad("e2-kind", "level E2 units are classes")
        for op in unit.operations:
            if op.visibility is not Visibility.PUBLIC:
                bad("e2-op-visibility", "E2 operations are public", op.name)
        for attr in unit.attributes:
            if attr.visibility is Visibility.PUBLIC:
                bad("e2-attr-visibility", "E2 attributes stay at most protected", attr.name)
        if len({op.name for op in unit.operations}) < 2:
            bad("e2-modularity", "an E2 class splits its work into at least two operations")
    elif unit.level is Level.E3:
        for attr in unit.attributes:
            if attr.visibility is not Visibility.PUBLIC:
                bad("e3-public", "E3 members are public", attr.name)
        for op in unit.operations:
            if op.visibility is not Visibility.PUBLIC:
                bad("e3-public", "E3 members are public", op.name)

    return out


def validate_set(units: Sequence[ConceptUnit]) -> list[Diagnostic]:
    """Cross-unit checks: key uniqueness, friend resolution, E3 cooperation."""
    out: list[Diagnostic] = []
    keys: set[tuple[str, Level]] = set()
    names = {u.name for u in units}
    for unit in units:
        key = (unit.name, unit.level)
        if key in keys:
            out.append(Diagnostic("duplicate-unit", "unit key (name, level) reused", unit.name))
        keys.add(key)
        for friend in unit.friends:
            if friend not in names:
                out.append(
                    Diagnostic("unknown-friend", f"friend {friend!r} is not in the set", unit.name)
                )
    by_domain: dict[str, list[ConceptUnit]] = {}
    for unit in units:
        if unit.level is Level.E3 and unit.name != GLOBALS_UNIT:
            by_domain.setdefault(unit.domain, []).append(unit)
    for domain, members in sorted(by_domain.items()):
        if len(members) < 2:
            out.append(
                Diagnostic(
                    "e3-cooperation",
                    f"an E3 concept decomposes into cooperating units; domain {domain!r} has one",
                    members[0].name,
                )
            )
    return out


# ---------------------------------------------------------------------------
# Level slices

def kb_by_level(units: Iterable[ConceptUnit]) -> dict[Level, list[ConceptUnit]]:
    """The units of each level, in their given order. From E2 up, a
    level with no Globals unit of its own gets the most redescribed
    one appended."""
    units = list(units)
    slices = {level: [u for u in units if u.level is level] for level in LEVELS}
    found = [u for u in units if u.name == GLOBALS_UNIT]
    if found:
        shared = max(found, key=lambda u: u.level.rank)
        for level, members in slices.items():
            if level.rank >= Level.E2.rank and all(u.name != GLOBALS_UNIT for u in members):
                members.append(shared)
    return slices


# ---------------------------------------------------------------------------
# Access control

def access_denied(
    caller_domain: str,
    caller_unit: str,
    target: ConceptUnit,
    member: str,
) -> str | None:
    """Why caller may not touch target.member, or None when it may.

    Private admits the owner and the owner's declared friends. Protected
    additionally admits units sharing the owner's domain tag. Public admits
    everyone. Raises UnknownMember for names the target does not declare.
    """
    visibility = target.member_visibility(member)
    if (
        visibility is Visibility.PUBLIC
        or caller_unit == target.name
        or caller_unit in target.friends
        or (visibility is Visibility.PROTECTED and caller_domain == target.domain)
    ):
        return None
    return (
        f"{visibility.value} member of {target.name} "
        f"(domain {target.domain!r}) is hidden from {caller_unit} (domain {caller_domain!r})"
    )

