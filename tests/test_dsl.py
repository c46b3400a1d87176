"""Parser and canonical printer: round trips, diagnostics, totality."""

import hashlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rrlang import dsl, interpreter as itp, ir

ROUND_TRIP_SOURCE = """\
@level(E1)
@domain(apples)
class Tally {
    private:
        Person p;
        APP_Set app_set;
        int result;
    protected:
        int Counting() {
            APPLE item;
            item = app_set.First();
            while (item != NULL) {
                p.PointTo(item);
                result++;
                item = app_set.Next();
            }
            return result;
        }
}
"""


class TestFixtures:
    def test_all_fixtures_round_trip_byte_exactly(self):
        for name in dsl.FIXTURE_NAMES:
            source = dsl.fixture_source(name)
            units = dsl.parse(source)
            printed = dsl.print_canonical(units)
            assert printed.text == source.text, name

    def test_load_fixture_unit_counts(self):
        assert len(dsl.load_fixture("counting_apples_i")) == 1
        assert len(dsl.load_fixture("counting_e3")) == 3
        assert len(dsl.load_fixture("globals")) == 1

    def test_unknown_fixture(self):
        with pytest.raises(KeyError):
            dsl.load_fixture("nope")

# sha256 over one line per input of the error-position corpus below:
# "line<TAB>column<TAB>expected<TAB>found" for each diagnostic of an
# input that fails, "ok<TAB><unit count>" for one that parses. Frozen
# from the character-loop lexer the single-pattern scanner replaced, then
# recomputed twice: when level-discipline errors left 1:1 for the member
# they name (only the two inputs that break a discipline moved), and
# when `return` stopped parsing as a type name among a unit's members
# (only counting_e2.rr with a '}' at offset 1023 moved: its stray
# `return GetResult();` now parses as a bare statement, so the error is
# the `void` after the class at 39:9, not a missing '{' at 37:31).
ERROR_POSITIONS_SHA256 = "d37cf2bed84ae3dd2daaff32d22e9f0e69661eaadbfb9fd31893ba0efb3bdc50"

# sha256 over `repr(units)` and then the canonical print of those units,
# for each input of the same corpus that parses (131 of its 772), so the
# trees the parser builds and the text the printer writes are pinned
# beyond the fixtures.
PARSED_TREES_SHA256 = "57df2e6726616d900e181a85cfdf1ab09b10abfb6a681cfeefd6ea0c8e984771"

SUBSTITUTES = " ;{}()=+@/*#\t\r\n"
SUBSTITUTION_STRIDE = 11

HAND_CASES = (
    "/* one\ntwo */ class /* three\nfour */ x /* never closed\n",  # unclosed after multi-line
    "@level(E1) /",  # a lone slash
    "@level(E1)\n@domain(apples)\nclass Tall\u00e9 { }",  # a Unicode letter in a name
    "const int x = \u0663;",  # a Unicode digit
    "@level(E1)\n\f@domain(apples)",  # a form feed
    "@level(E1)\r\n@domain(apples)\r\nclass T {\r\n\tprivate:\r\n\t\tint ;\r\n}\r\n",
    "class { } #",  # a bad character after an earlier syntax error
    "\t\r @level(E1) @domain(a) class T { private: int x; int 9; }",
)


def error_position_corpus():
    """Every fixture with one character replaced, at every
    SUBSTITUTION_STRIDE-th offset, cycling through SUBSTITUTES; then
    the hand cases."""
    k = 0
    for name in dsl.FIXTURE_NAMES:
        text = dsl.fixture_source(name).text
        for pos in range(0, len(text), SUBSTITUTION_STRIDE):
            ch = SUBSTITUTES[k % len(SUBSTITUTES)]
            k += 1
            yield text[:pos] + ch + text[pos + 1:]
    yield from HAND_CASES


class TestErrorPositions:
    def test_error_positions_are_frozen(self):
        digest = hashlib.sha256()
        for text in error_position_corpus():
            try:
                lines = [f"ok\t{len(dsl.parse(text))}"]
            except dsl.ParseFailure as exc:
                lines = [f"{e.line}\t{e.column}\t{e.expected}\t{e.found}" for e in exc.errors]
            digest.update("".join(line + "\n" for line in lines).encode())
        assert digest.hexdigest() == ERROR_POSITIONS_SHA256

    def test_parsed_trees_and_their_prints_are_frozen(self):
        digest = hashlib.sha256()
        parsed = 0
        for text in error_position_corpus():
            try:
                units = dsl.parse(text)
            except dsl.ParseFailure:
                continue
            parsed += 1
            digest.update(repr(units).encode())
            digest.update(dsl.print_canonical(units).text.encode())
        assert parsed == 131
        assert digest.hexdigest() == PARSED_TREES_SHA256

    @pytest.mark.parametrize(
        "text, position",
        [
            (HAND_CASES[0], (3, 11, "closing */", "end of input")),
            (HAND_CASES[1], (1, 12, "a token", "'/'")),
            (HAND_CASES[2], (3, 11, "a token", "'\u00e9'")),
            (HAND_CASES[3], (1, 15, "a token", "'\u0663'")),
            (HAND_CASES[4], (2, 1, "a token", "'\\x0c'")),
            (HAND_CASES[5], (5, 3, "a statement", "int")),
            (HAND_CASES[6], (1, 11, "a token", "'#'")),
        ],
    )
    def test_errors_point_at_the_offending_token(self, text, position):
        with pytest.raises(dsl.ParseFailure) as exc:
            dsl.parse(text)
        error = exc.value.errors[0]
        assert (error.line, error.column, error.expected, error.found) == position


# One const of each literal form: an int, a self-named symbol, a symbol
# and a symbol list. No fixture holds an int const.
LITERALS_SOURCE = """\
@level(E3)
@domain(numbers)
class Hold {
    public:
        const int k = 3;
        const Sound ONE;
        const Boolean flag = NO_IMPORTANT;
        const intList numlist = [ONE, TWO];
        int Get() {
            return k;
        }
}
"""


class TestRoundTrip:
    def test_canonical_is_idempotent(self):
        units = dsl.parse(ROUND_TRIP_SOURCE)
        once = dsl.print_canonical(units)
        twice = dsl.print_canonical(dsl.parse(once))
        assert once.text == twice.text

    def test_increment_spelling_is_canonical(self):
        plain = ROUND_TRIP_SOURCE.replace("result++;", "result = result + 1;")
        units = dsl.parse(plain)
        assert "result++;" in dsl.print_canonical(units).text

    def test_every_literal_form_prints_back_and_binds(self):
        units = dsl.parse(LITERALS_SOURCE)
        assert dsl.print_canonical(units).text == LITERALS_SOURCE
        world = itp.World({}, {}, {}, 0)
        result = itp.execute(units, units[0], "Get", [], world, "numbers")
        assert result.value == itp.IntVal(3)


class TestDiagnostics:
    def test_syntax_error_carries_position(self):
        with pytest.raises(dsl.ParseFailure) as exc:
            dsl.parse("class {")
        error = exc.value.errors[0]
        assert error.line == 1
        assert error.column >= 1

    def test_missing_annotations_rejected(self):
        with pytest.raises(dsl.ParseFailure):
            dsl.parse("class Tally { }")

    def test_discipline_violations_fail_parse(self):
        # A class annotated I: recordings are instances, not classes.
        bad = ROUND_TRIP_SOURCE.replace("@level(E1)", "@level(I)")
        with pytest.raises(dsl.ParseFailure):
            dsl.parse(bad)

    def test_e1_public_operation_fails_parse(self):
        bad = ROUND_TRIP_SOURCE.replace("protected:", "public:")
        with pytest.raises(dsl.ParseFailure):
            dsl.parse(bad)

    def test_discipline_errors_point_at_the_member_or_the_unit(self):
        e3 = dsl.fixture_source("counting_e3").text
        relabelled = e3.replace("@level(E3)", "@level(E1)", 1)
        with pytest.raises(dsl.ParseFailure) as exc:
            dsl.parse(relabelled)
        spots = {e.found.split()[1].rstrip(":"): (e.line, e.column) for e in exc.value.errors}
        assert spots["OrdinalNumber.GetPre"] == (9, 13)
        assert spots["OrdinalNumber"] == (3, 1)  # e1-loop names no member: the class keyword

    def test_the_implicit_operation_is_placed_at_its_first_statement(self):
        bare = (
            "@level(E1)\n@domain(a)\nclass T {\n"
            "    private:\n        int x;\n        return 1;\n}\n"
        )
        with pytest.raises(dsl.ParseFailure) as exc:
            dsl.parse(bare)
        assert [(e.line, e.column) for e in exc.value.errors] == [(6, 9), (3, 1)]
        assert "T.Replay" in exc.value.errors[0].found

    @pytest.mark.parametrize("statement", ["return x;", "return G();"])
    def test_a_return_among_members_is_a_statement(self, statement):
        text = f"@level(E1) @domain(a) class T {{ private: int x; {statement} }}"
        with pytest.raises(dsl.ParseFailure) as exc:
            dsl.parse(text)
        error = exc.value.errors[0]
        assert (error.line, error.column) == (1, 49)
        assert error.found.startswith("[return-in-void] T.Replay:")

    def test_origin_is_reported(self):
        with pytest.raises(dsl.ParseFailure) as exc:
            dsl.parse(dsl.SourceText("junk", origin="episode.rr"))
        assert "episode.rr" in str(exc.value)


def e3_class(members):
    """An E3 class T in domain numbers opened on the member lines; the
    caller adds the closing '}' or leaves it out."""
    return "@level(E3)\n@domain(numbers)\nclass T {\n    public:\n" + members


def i_instance(facts):
    """A level I instance T in domain apples whose private section
    declares ME and then holds the given statement lines."""
    return (
        "@level(I)\n@domain(apples)\ninstance T {\n    private:\n"
        "        const Person ME;\n" + facts + "}\n"
    )


NESTED = "        int F() {\n" + "if (TRUE) {\n" * 120 + "}\n" * 120 + "return 1;\n}\n}\n"
# An else-if chain 300 deep: each `else if` nests one statement further.
ELSE_IF_CHAIN = "        int F() {\n" + "if (TRUE) {\n} else " * 300 + "{\n}\nreturn 1;\n}\n}\n"


class TestRareForms:
    """Forms no fixture holds: each refusal with its first diagnostic,
    and each accepted form printed back. None is in the error-position
    corpus, so its digest stays as it is."""

    @pytest.mark.parametrize(
        "text, position",
        [
            (e3_class(NESTED), (105, 5, "shallower nesting", "TRUE")),
            (e3_class(ELSE_IF_CHAIN), (204, 12, "shallower nesting", "TRUE")),
            ("@level(E9)\n", (1, 8, "one of I, E1, E2, E3", "E9")),
            (
                "@level(E1)\nconst int x;\n",
                (2, 1, "'instance' or 'class' after annotations", "const"),
            ),
            ("@level(E1)\n", (2, 1, "'instance' or 'class' after annotations", "end of input")),
            ("@level(E1)\nclass T {\n}\n", (2, 1, "a preceding @domain annotation", "class")),
            ("@level(E1)\n@domain(a)\nclass T {\n", (4, 1, "'}'", "end of input")),
            (e3_class("        int F() {\n"), (6, 1, "'}'", "end of input")),
            (
                e3_class("        const int a, b = 3;\n}\n"),
                (5, 24, "';' (one initializer per declaration)", "="),
            ),
            (
                e3_class("        void F() {\n            Say(ONE);\n        }\n}\n"),
                (6, 13, "a receiver for a primitive action", "Say"),
            ),
            (
                e3_class("        void F() {\n            a.b.F();\n        }\n}\n"),
                (6, 13, "a unit or self receiver for an operation call", "a"),
            ),

            # a setup fact's arity is checked after its ';', at its predicate
            (i_instance("        In(ME);\n"), (6, 9, "two entity names for In", "In")),
            (
                i_instance("        On(ME, ME, ME);\n"),
                (6, 9, "two entity names for On", "On"),
            ),
            (i_instance("        InLine();\n"), (6, 9, "an entity name for InLine", "InLine")),
            (i_instance("        In(ME)\n"), (7, 1, "';'", "}")),
        ],
        ids=[
            "too-deep", "else-if-too-deep", "unknown-level", "const-after-annotation",
            "annotation-at-end", "no-domain", "end-after-brace", "end-in-block",
            "two-names-one-initializer", "action-without-receiver", "call-on-a-field",
            "in-one-name", "on-three-names", "inline-no-name", "arity-after-semicolon",
        ],
    )
    def test_refusal(self, text, position):
        with pytest.raises(dsl.ParseFailure) as exc:
            dsl.parse(text)
        error = exc.value.errors[0]
        assert (error.line, error.column, error.expected, error.found) == position

    @pytest.mark.parametrize(
        "members",
        [
            "        void F() {\n            return;\n        }\n",
            "        int F() {\n            return 1 - (2 + 3);\n        }\n",
            "        void F() {\n            s = [ONE, TWO];\n        }\n",
            "        friend Globals;\n",
            "        Boolean F() {\n            return (1 == 2) == FALSE;\n        }\n",
        ],
        ids=[
            "bare-return", "parenthesised", "symbol-list", "friends-only",
            "comparison-left-of-comparison",
        ],
    )
    def test_accepted_form_prints_back(self, members):
        text = e3_class(members + "}\n")
        assert dsl.print_canonical(dsl.parse(text)).text == text

    def test_one_declaration_of_two_names_is_two_attributes(self):
        (unit,) = dsl.parse(e3_class("        int a, b;\n}\n"))
        assert unit.attributes == (
            ir.Attribute("a", "int", ir.Visibility.PUBLIC),
            ir.Attribute("b", "int", ir.Visibility.PUBLIC),
        )

    @pytest.mark.parametrize(
        "body, message",
        [
            (("junk",), "unknown statement 'junk'"),
            ((ir.ReturnStmt("junk"),), "unknown expression 'junk'"),
        ],
        ids=["statement", "expression"],
    )
    def test_the_printer_refuses_a_foreign_node(self, body, message):
        op = ir.Operation("F", (), "int", ir.Visibility.PUBLIC, body)
        unit = ir.ConceptUnit("T", ir.UnitKind.CLASS, ir.Level.E3, "numbers", (), (op,))
        with pytest.raises(TypeError) as exc:
            dsl.print_canonical([unit])
        assert str(exc.value) == message


# Expressions nested inside expressions, as (opening, innermost, closing)
# text repeated around the innermost, with the column of the `return`
# line (line 6) each is refused at and the token found there.
DEEP_EXPRESSIONS = {
    "parens": (("(", "1", ")"), 119, "("),
    "calls": (("G(", "1", ")"), 218, "G"),
    "method-calls": (("a.G(", "1", ")"), 416, "a"),
    "fields": (("(", "a", ").b"), 119, "("),
}


class TestTotality:
    @pytest.mark.parametrize("levels", [300, 5000])
    @pytest.mark.parametrize("shape", DEEP_EXPRESSIONS)
    def test_deep_expressions_are_refused_before_the_stack_runs_out(self, shape, levels):
        (opening, innermost, closing), column, found = DEEP_EXPRESSIONS[shape]
        expr = opening * levels + innermost + closing * levels
        text = e3_class(f"        int F() {{\n            return {expr};\n        }}\n}}\n")
        with pytest.raises(dsl.ParseFailure) as exc:
            dsl.parse(text)
        error = exc.value.errors[0]
        assert (error.line, error.column, error.expected, error.found) == (
            6, column, "shallower nesting", found
        )

    @given(st.text(max_size=2048))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text_parses_or_diagnoses(self, text):
        try:
            units = dsl.parse(text)
        except dsl.ParseFailure:
            return
        for unit in units:
            assert ir.validate(unit) == []

    @given(st.binary(max_size=4096))
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    def test_arbitrary_bytes_never_crash(self, blob):
        text = blob.decode("utf-8", errors="replace")
        try:
            dsl.parse(text)
        except dsl.ParseFailure:
            pass

    def test_large_input_stays_bounded(self):
        big = ROUND_TRIP_SOURCE * 2600  # roughly 1MB of source
        assert len(big) > 1_000_000
        # No hang and no non-ParseFailure crash on large input.
        units = dsl.parse(big)
        assert len(units) == 2600


class TestMutants:
    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_mutated_fixture_text_is_total(self, data):
        name = data.draw(st.sampled_from(dsl.FIXTURE_NAMES))
        text = dsl.fixture_source(name).text
        pos = data.draw(st.integers(min_value=0, max_value=len(text) - 1))
        replacement = data.draw(st.sampled_from(list(" ;{}()=+abcZ9@\n")))
        mutated = text[:pos] + replacement + text[pos + 1:]
        try:
            units = dsl.parse(mutated)
        except dsl.ParseFailure:
            return
        printed = dsl.print_canonical(units)
        assert dsl.print_canonical(dsl.parse(printed)).text == printed.text
