"""Concrete syntax for concept units.

Grammar sketch:

    file    := (annotation annotation unit | const_attr)*
    unit    := ("instance" | "class") NAME "{" section* "}"
    section := ("private" | "protected" | "public") ":" member*
    member  := "friend" NAME ";" | attr | operation | statement
    attr    := ["const"] TYPE NAME ("," NAME)* ["=" literal] ";"

Explicit units carry @level(..) and @domain(..) annotations. Top-level
const attributes outside any unit collect into one synthetic public
unit named Globals. A const attribute without an initializer is bound
to the symbol spelled like its own name.

``parse`` never returns partial results; malformed input raises
ParseFailure carrying ParseError diagnostics, and units that parse but
break their level discipline are rejected the same way. Comments
(``/* ... */``) are discarded, so canonical fixtures carry none. One
regular expression lexes the whole text into plain (kind, text, line,
column) tuples before parsing starts, so a stray character is reported
ahead of an earlier syntax error. Nesting is bounded for blocks,
statements and expressions inside expressions: input nested too deep
is refused before Python's stack runs out.
``print_canonical`` emits the single layout the fixtures are stored
in; what it writes parses back to the same units.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Callable, NoReturn, Sequence, TypeVar

from . import ir
from .ir import (
    ActionStmt,
    AssignStmt,
    Attribute,
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
    Level,
    ListExpr,
    LocalDecl,
    NameExpr,
    NotExpr,
    NullExpr,
    Operation,
    Param,
    ReturnStmt,
    SetupStmt,
    Stmt,
    UnitKind,
    Visibility,
    WhileStmt,
    record,
)


@record
class SourceText:
    text: str
    origin: str = "<memory>"


@record
class ParseError:
    line: int
    column: int
    expected: str
    found: str

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: expected {self.expected}, found {self.found}"


class ParseFailure(Exception):
    """Parsing or discipline checking failed; carries the diagnostics."""

    def __init__(self, errors: Sequence[ParseError], origin: str = "<memory>"):
        self.errors = list(errors)
        self.origin = origin
        super().__init__("; ".join(f"{origin}:{e}" for e in self.errors))


# ---------------------------------------------------------------------------
# Lexer

# A token is a plain (kind, text, line, column) tuple. Its kind is
# "ident", "int", "eof", or the punctuation lexeme itself.
_Tok = tuple[str, str, int, int]

# The alternatives are tried in order, so a two-character operator wins
# over its first character, and every character matches one of them.
_TOKEN = re.compile(
    r"""
      (?P<newline> \n )
    | (?P<space> [ \t\r]+ )  # skipped
    | (?P<comment> /\*.*?\*/ )
    | (?P<unclosed> /\* )
    | (?P<ident> [A-Za-z_][A-Za-z0-9_]* )
    | (?P<int> [0-9]+ )
    | (?P<punct> \+\+ | == | != | <= | >= | [{}()\[\],;:.=!<>+\-@] )
    | (?P<other> . )
    """,
    re.VERBOSE | re.DOTALL,
)


def _lex(src: SourceText) -> list[_Tok]:
    """Tokens of the whole text, ending in three eof tokens so the
    parser can look two tokens ahead of any position unchecked. Columns
    count characters from the start of the line, a tab as one."""
    tokens = []
    line = 1
    line_start = 0
    for match in _TOKEN.finditer(src.text):
        group = match.lastgroup
        text = match.group()
        column = match.start() - line_start + 1
        if group == "ident" or group == "int":
            tokens.append((group, text, line, column))
        elif group == "punct":
            tokens.append((text, text, line, column))
        elif group == "newline":
            line += 1
            line_start = match.end()
        elif group == "comment":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = match.start() + text.rfind("\n") + 1
        elif group == "unclosed":
            raise ParseFailure([ParseError(line, column, "closing */", "end of input")], src.origin)
        elif group == "other":
            raise ParseFailure([ParseError(line, column, "a token", repr(text))], src.origin)
    eof = ("eof", "", line, len(src.text) - line_start + 1)
    tokens.extend((eof, eof, eof))
    return tokens


# ---------------------------------------------------------------------------
# Parser

_MAX_DEPTH = 200
_COMPARE_OPS = ("==", "!=", "<", ">", "<=", ">=")
_LEVEL_NAMES = {lv.value for lv in ir.LEVELS}

_T = TypeVar("_T")


def _nested(parse: Callable[..., _T]) -> Callable[..., _T]:
    """The nesting guard: each call of parse is a level deeper. Past
    _MAX_DEPTH levels the whole parse fails, so no level is given back."""

    def guarded(self: _Parser, *args: object) -> _T:
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            self.fail("shallower nesting")
        out = parse(self, *args)
        self.depth -= 1
        return out

    return guarded


class _Parser:
    """Recursive descent over the tokens of ``_lex``. The cursor never
    moves past the first eof token, and two more follow it, so a
    lookahead of up to two tokens needs no bounds check."""

    def __init__(self, tokens: list[_Tok], origin: str):
        self.tokens = tokens
        self.pos = 0
        self.origin = origin
        self.depth = 0
        # Per unit parsed, in order: (line, column) of each member's name
        # token, and of the unit's keyword under the key None.
        self.spots: list[dict[str | None, tuple[int, int]]] = []

    def peek(self, ahead: int = 0) -> _Tok:
        return self.tokens[self.pos + ahead]

    def at(self, kind: str, ahead: int = 0) -> bool:
        return self.tokens[self.pos + ahead][0] == kind

    def at_word(self, word: str, ahead: int = 0) -> bool:
        # Only an identifier's text spells a word.
        return self.tokens[self.pos + ahead][1] == word

    def take(self) -> _Tok:
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def fail(self, expected: str, tok: _Tok | None = None) -> NoReturn:
        kind, text, line, column = tok or self.peek()
        found = text if kind != "eof" else "end of input"
        raise ParseFailure([ParseError(line, column, expected, found)], self.origin)

    def expect(self, kind: str, expected: str | None = None) -> _Tok:
        if not self.at(kind):
            self.fail(expected or f"'{kind}'")
        return self.take()

    def ident(self, what: str = "an identifier") -> str:
        if not self.at("ident"):
            self.fail(what)
        return self.take()[1]

    def member_name(self, spots: dict, what: str) -> str:
        """An identifier naming a member; its position goes into spots."""
        _, _, line, column = self.peek()
        name = self.ident(what)
        spots[name] = (line, column)
        return name

    def listed(self, open_: str, close: str, item: Callable[[], _T]) -> tuple[_T, ...]:
        """``open [item ("," item)*] close``, each item read by item()."""
        self.expect(open_)
        out: list[_T] = []
        if not self.at(close):
            out.append(item())
            while self.at(","):
                self.take()
                out.append(item())
        self.expect(close)
        return tuple(out)

    def names(self, open_: str, close: str, what: str) -> tuple[str, ...]:
        return self.listed(open_, close, lambda: self.ident(what))

    # -- file level

    def parse_file(self) -> tuple[ConceptUnit, ...]:
        units: list[ConceptUnit] = []
        shared: list[Attribute] = []
        shared_spots: dict[str | None, tuple[int, int]] = {}
        pending: dict[str, str] = {}
        while not self.at("eof"):
            if self.at("@"):
                self.take()
                key_tok = self.peek()
                key = self.ident("'level' or 'domain'")
                if key not in ("level", "domain"):
                    self.fail("'level' or 'domain'", key_tok)
                self.expect("(")
                value_tok = self.peek()
                value = self.ident("an annotation value")
                if key == "level" and value not in _LEVEL_NAMES:
                    self.fail("one of I, E1, E2, E3", value_tok)
                self.expect(")")
                pending[key] = value
            elif self.at_word("const"):
                if pending:
                    self.fail("'instance' or 'class' after annotations")
                shared_spots.setdefault(None, self.peek()[2:])
                shared.extend(self.parse_attr(Visibility.PUBLIC, shared_spots))
            elif self.at_word("instance") or self.at_word("class"):
                units.append(self.parse_unit(pending))
                pending = {}
            else:
                self.fail("'instance', 'class', an annotation, or a shared constant")
        if pending:
            self.fail("'instance' or 'class' after annotations")
        if shared:
            units.append(
                ConceptUnit(
                    ir.GLOBALS_UNIT, UnitKind.CLASS, Level.E2, "numbers", tuple(shared), (), ()
                )
            )
            self.spots.append(shared_spots)
        return tuple(units)

    def parse_unit(self, pending: dict[str, str]) -> ConceptUnit:
        head = self.take()
        if "level" not in pending:
            self.fail("a preceding @level annotation", head)
        if "domain" not in pending:
            self.fail("a preceding @domain annotation", head)
        spots: dict[str | None, tuple[int, int]] = {None: head[2:]}
        name = self.ident("a unit name")
        self.expect("{")
        attrs: list[Attribute] = []
        ops: list[Operation] = []
        friends: list[str] = []
        bare_body: list[Stmt] = []
        bare_vis: Visibility | None = None
        while not self.at("}"):
            if self.at("eof"):
                self.fail("'}'")
            if not (self._at_section_header()):
                self.fail("'private:', 'protected:', or 'public:'")
            vis = Visibility(self.take()[1])
            self.take()  # the colon
            while not self.at("}") and not self._at_section_header():
                if self.at("eof"):
                    self.fail("'}'")
                if self.at_word("friend"):
                    self.take()
                    friends.append(self.ident("a friend unit name"))
                    self.expect(";")
                elif self.at_word("const") or self._declares((";", ",", "=")):
                    attrs.extend(self.parse_attr(vis, spots))
                elif self._declares(("(",)):
                    ops.append(self.parse_operation(vis, spots))
                else:
                    if bare_vis is None:
                        bare_vis = vis
                        # The implicit operation is placed at its first statement.
                        bare_spot = self.peek()[2:]
                    bare_body.append(self.parse_stmt())
        self.take()  # closing brace
        if bare_body:
            vis = bare_vis or Visibility.PRIVATE
            ops.append(Operation(ir.IMPLICIT_OP, (), None, vis, tuple(bare_body), True))
            spots[ir.IMPLICIT_OP] = bare_spot
        self.spots.append(spots)
        return ConceptUnit(
            name,
            UnitKind.INSTANCE if head[1] == "instance" else UnitKind.CLASS,
            Level(pending["level"]),
            pending["domain"],
            tuple(attrs),
            tuple(ops),
            tuple(friends),
        )

    def _at_section_header(self) -> bool:
        return self.peek()[1] in ("private", "protected", "public") and self.at(":", 1)

    def _declares(self, follows: tuple[str, ...]) -> bool:
        """A type name (`void` among them, `return` not: it opens a
        statement), then a name, then a token of one of the follows kinds."""
        return (
            self.at("ident")
            and not self.at_word("return")
            and self.at("ident", 1)
            and self.peek(2)[0] in follows
        )

    # -- members

    def parse_attr(self, vis: Visibility, spots: dict) -> list[Attribute]:
        is_const = False
        if self.at_word("const"):
            self.take()
            is_const = True
        type_ref = self.ident("a type name")
        names = [self.member_name(spots, "an attribute name")]
        while self.at(","):
            self.take()
            names.append(self.member_name(spots, "an attribute name"))
        literal = None
        if self.at("="):
            eq = self.peek()
            if not is_const:
                self.fail("';' (an initializer requires const)", eq)
            if len(names) > 1:
                self.fail("';' (one initializer per declaration)", eq)
            self.take()
            literal = self.parse_literal()
        self.expect(";")
        out = []
        for nm in names:
            bound = literal if literal is not None else (nm if is_const else None)
            out.append(Attribute(nm, type_ref, vis, bound))
        return out

    def parse_literal(self) -> int | str | tuple[str, ...]:
        if self.at("int"):
            return int(self.take()[1])
        if self.at("["):
            return self.names("[", "]", "a symbol")
        if self.at("ident"):
            return self.take()[1]
        self.fail("a literal")

    def parse_operation(self, vis: Visibility, spots: dict) -> Operation:
        if self.at_word("void"):
            self.take()
            returns = None
        else:
            returns = self.ident("a return type")
        name = self.member_name(spots, "an operation name")
        params = self.listed("(", ")", self.parse_param)
        return Operation(name, params, returns, vis, self.parse_block(), False)

    def parse_param(self) -> Param:
        type_ref = self.ident("a parameter type")
        return Param(self.ident("a parameter name"), type_ref)

    # -- statements

    def parse_block(self) -> tuple[Stmt, ...]:
        self.expect("{")
        return self.parse_block_body()

    @_nested
    def parse_block_body(self) -> tuple[Stmt, ...]:
        """A block's statements and closing '}', a level deeper than its '{'."""
        out: list[Stmt] = []
        while not self.at("}"):
            if self.at("eof"):
                self.fail("'}'")
            out.append(self.parse_stmt())
        self.take()
        return tuple(out)

    @_nested
    def parse_stmt(self) -> Stmt:
        if self.at_word("while") and self.at("(", 1):
            self.take()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            return WhileStmt(cond, self.parse_block())
        if self.at_word("if") and self.at("(", 1):
            self.take()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then = self.parse_block()
            orelse: tuple[Stmt, ...] = ()
            if self.at_word("else"):
                self.take()
                orelse = self.parse_block() if self.at("{") else (self.parse_stmt(),)
            return IfStmt(cond, then, orelse)
        if self.at_word("return"):
            self.take()
            if self.at(";"):
                self.take()
                return ReturnStmt(None)
            value = self.parse_expr()
            self.expect(";")
            return ReturnStmt(value)
        if self._declares((";",)):
            type_ref = self.take()[1]
            name = self.take()[1]
            self.take()
            return LocalDecl(name, type_ref)
        if self.at("ident") and self.at("++", 1):
            name = self.take()[1]
            self.take()
            self.expect(";")
            return AssignStmt(NameExpr(name), BinExpr("+", NameExpr(name), IntExpr(1)))
        if self.peek()[1] in ir.SETUP_PREDICATES and self.at("(", 1):
            start = self.take()
            pred = start[1]
            args = self.names("(", ")", "an entity name")
            self.expect(";")
            if pred == "InLine" and not args:
                self.fail("an entity name for InLine", start)
            if pred != "InLine" and len(args) != 2:
                self.fail(f"two entity names for {pred}", start)
            return SetupStmt(pred, args)
        if self.at("ident") and self.at("(", 1) and self._block_follows_call():
            label = self.take()[1]
            return BlockStmt(label, self.names("(", ")", "a name"), self.parse_block())
        start = self.peek()
        expr = self.parse_expr()
        if self.at("="):
            if not isinstance(expr, (NameExpr, FieldExpr)):
                self.fail("a name or field on the left of '='", start)
            self.take()
            value = self.parse_expr()
            self.expect(";")
            return AssignStmt(expr, value)
        self.expect(";", "'=' or ';'")
        if isinstance(expr, CallExpr):
            if expr.op in ir.PRIMITIVE_VERBS:
                if expr.recv is None:
                    self.fail("a receiver for a primitive action", start)
                return ActionStmt(expr.op, expr.recv, expr.args)
            if expr.recv is None:
                return CallStmt(None, expr.op, expr.args)
            if isinstance(expr.recv, NameExpr):
                return CallStmt(expr.recv.name, expr.op, expr.args)
            self.fail("a unit or self receiver for an operation call", start)
        self.fail("a statement", start)

    def _block_follows_call(self) -> bool:
        # Scan past the balanced argument list; a '{' after it marks a
        # labeled block rather than a call statement.
        k = self.pos + 1
        depth = 0
        while True:
            kind = self.tokens[k][0]
            if kind == "(":
                depth += 1
            elif kind == ")":
                depth -= 1
                if depth == 0:
                    return self.tokens[k + 1][0] == "{"
            elif kind == "eof":
                return False
            k += 1

    # -- expressions

    @_nested
    def parse_expr(self) -> Expr:
        left = self.parse_addsub()
        if self.peek()[0] in _COMPARE_OPS:
            op = self.take()[0]
            return BinExpr(op, left, self.parse_addsub())
        return left

    def parse_addsub(self) -> Expr:
        left = self.parse_unary()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            right = self.parse_unary()
            left = BinExpr(op, left, right)
        return left

    def parse_unary(self) -> Expr:
        bangs = 0
        while self.at("!"):
            self.take()
            bangs += 1
        expr = self.parse_postfix()
        for _ in range(bangs):
            expr = NotExpr(expr)
        return expr

    def parse_postfix(self) -> Expr:
        expr = self.parse_primary()
        while self.at("."):
            self.take()
            name = self.ident("a member name")
            expr = self.parse_call(expr, name) if self.at("(") else FieldExpr(expr, name)
        return expr

    # An argument list and a parenthesised expression are each a level too:
    # an expression inside another costs several Python frames a level.

    @_nested
    def parse_call(self, recv: Expr | None, op: str) -> CallExpr:
        return CallExpr(recv, op, self.listed("(", ")", self.parse_expr))

    @_nested
    def parse_paren(self) -> Expr:
        self.take()
        expr = self.parse_expr()
        self.expect(")")
        return expr

    def parse_primary(self) -> Expr:
        kind, text = self.peek()[:2]
        if kind == "int":
            self.take()
            return IntExpr(int(text))
        if kind == "ident":
            self.take()
            if text == "NULL":
                return NullExpr()
            if text == "TRUE":
                return BoolExpr(True)
            if text == "FALSE":
                return BoolExpr(False)
            return self.parse_call(None, text) if self.at("(") else NameExpr(text)
        if kind == "(":
            return self.parse_paren()
        if kind == "[":
            return ListExpr(self.names("[", "]", "a symbol"))
        self.fail("an expression")


def parse(src: SourceText | str) -> tuple[ConceptUnit, ...]:
    """Parse source text into validated concept units.

    Raises ParseFailure on syntax errors and on units that violate
    their declared level discipline. A discipline error that names a
    member points at the member's name, any other at its unit's keyword.
    """
    if isinstance(src, str):
        src = SourceText(src)
    parser = _Parser(_lex(src), src.origin)
    units = parser.parse_file()
    expected = "a unit meeting its level discipline"
    problems = [
        ParseError(*spots.get(d.member, spots[None]), expected, str(d))
        for unit, spots in zip(units, parser.spots)
        for d in ir.validate(unit)
    ]
    if problems:
        raise ParseFailure(problems, src.origin)
    return units


# ---------------------------------------------------------------------------
# Canonical printer

_INDENT = "    "


def _literal_text(lit: int | str | tuple[str, ...]) -> str:
    if isinstance(lit, tuple):
        return "[" + ", ".join(lit) + "]"
    return str(lit)


def _attr_line(attr: Attribute, depth: int) -> str:
    pad = _INDENT * depth
    decl = f"{attr.type_ref} {attr.name}"
    if attr.is_const:
        if attr.const == attr.name:
            return f"{pad}const {decl};"
        return f"{pad}const {decl} = {_literal_text(attr.const)};"
    return f"{pad}{decl};"


def _expr_prec(expr: Expr) -> int:
    if isinstance(expr, BinExpr):
        return 1 if expr.op in _COMPARE_OPS else 2
    if isinstance(expr, NotExpr):
        return 3
    return 4


def _expr_text(expr: Expr, min_prec: int = 0) -> str:
    if isinstance(expr, IntExpr):
        body = str(expr.value)
    elif isinstance(expr, BoolExpr):
        body = "TRUE" if expr.value else "FALSE"
    elif isinstance(expr, NullExpr):
        body = "NULL"
    elif isinstance(expr, NameExpr):
        body = expr.name
    elif isinstance(expr, ListExpr):
        body = "[" + ", ".join(expr.names) + "]"
    elif isinstance(expr, FieldExpr):
        body = f"{_expr_text(expr.recv, 4)}.{expr.name}"
    elif isinstance(expr, CallExpr):
        args = ", ".join(_expr_text(a) for a in expr.args)
        if expr.recv is None:
            body = f"{expr.op}({args})"
        else:
            body = f"{_expr_text(expr.recv, 4)}.{expr.op}({args})"
    elif isinstance(expr, NotExpr):
        body = f"!{_expr_text(expr.operand, 3)}"
    elif isinstance(expr, BinExpr):
        # Both operands of a comparison are sums, and a sum's left operand may be one.
        left = _expr_text(expr.left, 2)
        right = _expr_text(expr.right, _expr_prec(expr) + 1)
        body = f"{left} {expr.op} {right}"
    else:
        raise TypeError(f"unknown expression {expr!r}")
    if _expr_prec(expr) < min_prec:
        return f"({body})"
    return body


def _is_increment(stmt: AssignStmt) -> bool:
    return (
        isinstance(stmt.target, NameExpr)
        and isinstance(stmt.value, BinExpr)
        and stmt.value.op == "+"
        and stmt.value.left == NameExpr(stmt.target.name)
        and stmt.value.right == IntExpr(1)
    )


def _stmt_lines(stmt: Stmt, depth: int) -> list[str]:
    pad = _INDENT * depth
    if isinstance(stmt, SetupStmt):
        return [f"{pad}{stmt.pred}({', '.join(stmt.args)});"]
    if isinstance(stmt, ActionStmt):
        args = ", ".join(_expr_text(a) for a in stmt.args)
        return [f"{pad}{_expr_text(stmt.recv, 4)}.{stmt.verb}({args});"]
    if isinstance(stmt, AssignStmt):
        if _is_increment(stmt):
            assert isinstance(stmt.target, NameExpr)
            return [f"{pad}{stmt.target.name}++;"]
        return [f"{pad}{_expr_text(stmt.target)} = {_expr_text(stmt.value)};"]
    if isinstance(stmt, LocalDecl):
        return [f"{pad}{stmt.type_ref} {stmt.name};"]
    if isinstance(stmt, WhileStmt):
        return _braced(f"while ({_expr_text(stmt.cond)})", stmt.body, depth)
    if isinstance(stmt, IfStmt):
        lines = _braced(f"if ({_expr_text(stmt.cond)})", stmt.then, depth)
        if stmt.orelse:
            lines[-1:] = _braced("} else", stmt.orelse, depth)
        return lines
    if isinstance(stmt, CallStmt):
        args = ", ".join(_expr_text(a) for a in stmt.args)
        recv = f"{stmt.recv}." if stmt.recv is not None else ""
        return [f"{pad}{recv}{stmt.op}({args});"]
    if isinstance(stmt, ReturnStmt):
        if stmt.value is None:
            return [f"{pad}return;"]
        return [f"{pad}return {_expr_text(stmt.value)};"]
    if isinstance(stmt, BlockStmt):
        return _braced(f"{stmt.label}({', '.join(stmt.args)})", stmt.body, depth)
    raise TypeError(f"unknown statement {stmt!r}")


def _body_lines(body: Sequence[Stmt], depth: int) -> list[str]:
    return [line for stmt in body for line in _stmt_lines(stmt, depth)]


def _braced(head: str, body: Sequence[Stmt], depth: int) -> list[str]:
    """``head {``, the body a level deeper, then ``}``."""
    pad = _INDENT * depth
    return [f"{pad}{head} {{", *_body_lines(body, depth + 1), f"{pad}}}"]


def _unit_lines(unit: ConceptUnit) -> list[str]:
    if unit.name == ir.GLOBALS_UNIT:
        return [_attr_line(a, 0) for a in unit.attributes]
    lines = [
        f"@level({unit.level.value})",
        f"@domain({unit.domain})",
        f"{unit.kind.value} {unit.name} {{",
    ]
    friends = list(unit.friends)
    for vis in (Visibility.PRIVATE, Visibility.PROTECTED, Visibility.PUBLIC):
        attrs = [a for a in unit.attributes if a.visibility is vis]
        named = [o for o in unit.operations if o.visibility is vis and not o.implicit]
        bare = [o for o in unit.operations if o.visibility is vis and o.implicit]
        if not (attrs or named or bare):
            continue
        lines.append(f"{_INDENT}{vis.value}:")
        for friend in friends:
            lines.append(f"{_INDENT * 2}friend {friend};")
        friends = []
        for attr in attrs:
            lines.append(_attr_line(attr, 2))
        for op in named:
            ret = op.returns if op.returns is not None else "void"
            params = ", ".join(f"{p.type_ref} {p.name}" for p in op.params)
            lines += _braced(f"{ret} {op.name}({params})", op.body, 2)
        for op in bare:
            lines += _body_lines(op.body, 2)
    if friends:
        lines.append(f"{_INDENT}public:")
        for friend in friends:
            lines.append(f"{_INDENT * 2}friend {friend};")
    lines.append("}")
    return lines


def print_canonical(units: Sequence[ConceptUnit]) -> SourceText:
    """Render units in the one fixed layout used by the fixtures."""
    lines: list[str] = []
    for i, unit in enumerate(units):
        if i:
            lines.append("")
        lines.extend(_unit_lines(unit))
    text = "\n".join(lines)
    if text:
        text += "\n"
    return SourceText(text)


# ---------------------------------------------------------------------------
# Fixtures

FIXTURE_NAMES = (
    "counting_apples_i",
    "counting_apples_e1",
    "globals",
    "counting_e2",
    "counting_e3",
    "fetch_objects",
    "bus_seats",
    "conservation",
)


def fixtures_dir() -> Path:
    return Path(__file__).resolve().parent / "fixtures"


def fixture_source(name: str) -> SourceText:
    stem = name[:-3] if name.endswith(".rr") else name
    path = fixtures_dir() / f"{stem}.rr"
    if not path.is_file():
        raise KeyError(name)
    return SourceText(path.read_text(encoding="utf-8"), str(path))


def load_fixture(name: str) -> tuple[ConceptUnit, ...]:
    return parse(fixture_source(name))
