"""Structure, level discipline, access control, and chain growth."""

from collections import Counter

import pytest

from rrlang import dsl, ir


def _unit(**overrides):
    base = dict(
        name="Probe",
        kind=ir.UnitKind.CLASS,
        level=ir.Level.E1,
        domain="apples",
        attributes=(
            ir.Attribute("p", "Person", ir.Visibility.PRIVATE),
            ir.Attribute("app_set", "APP_Set", ir.Visibility.PRIVATE),
            ir.Attribute("result", "int", ir.Visibility.PRIVATE),
        ),
        operations=(
            ir.Operation(
                "Counting",
                params=(),
                returns="int",
                visibility=ir.Visibility.PROTECTED,
                body=(
                    ir.LocalDecl("item", "APPLE"),
                    ir.AssignStmt(
                        ir.NameExpr("item"),
                        ir.CallExpr(ir.NameExpr("app_set"), "First", ()),
                    ),
                    ir.WhileStmt(
                        ir.BinExpr(
                            "!=", ir.NameExpr("item"), ir.NullExpr()
                        ),
                        (
                            ir.ActionStmt(
                                "PointTo", ir.NameExpr("p"), (ir.NameExpr("item"),)
                            ),
                            ir.AssignStmt(
                                ir.NameExpr("result"),
                                ir.BinExpr("+", ir.NameExpr("result"), ir.IntExpr(1)),
                            ),
                            ir.AssignStmt(
                                ir.NameExpr("item"),
                                ir.CallExpr(ir.NameExpr("app_set"), "Next", ()),
                            ),
                        ),
                    ),
                    ir.ReturnStmt(ir.NameExpr("result")),
                ),
            ),
        ),
    )
    base.update(overrides)
    return ir.ConceptUnit(**base)


class TestLiteral:
    def test_kinds(self):
        assert ir.Literal(3).is_int
        assert ir.Literal("APPLE1").is_symbol
        assert ir.Literal(("ONE", "TWO")).is_symbols
        assert not ir.Literal(3).is_symbol


class TestTypeRegistry:
    def test_collections(self):
        assert ir.is_collection_type("APP_Set")
        assert ir.is_collection_type("objectList")
        assert not ir.is_collection_type("APPLE")
        assert ir.collection_element("APP_Set") == "Apple"
        assert ir.collection_element("objectSet") is None

    def test_collection_element_rejects_scalars(self):
        with pytest.raises(KeyError):
            ir.collection_element("int")

    def test_widening(self):
        assert ir.widen_type("APP_Set") == "objectSet"
        assert ir.widen_type("APPLE") == "OBJECT"
        assert ir.widen_type("int") == "int"


class TestMemberLookup:
    def test_unknown_member(self):
        unit = _unit()
        with pytest.raises(ir.UnknownMember):
            unit.attribute("nope")
        with pytest.raises(ir.UnknownMember):
            unit.operation("nope")
        assert unit.member_visibility("Counting") is ir.Visibility.PROTECTED


def _rules(unit):
    return {d.rule for d in ir.validate(unit)}


def _with_op(unit, **changes):
    """unit with its first operation changed."""
    first, *rest = unit.operations
    return ir.replace(unit, operations=(ir.replace(first, **changes), *rest))


def _with_attr(unit, **changes):
    """unit with its first attribute changed."""
    first, *rest = unit.attributes
    return ir.replace(unit, attributes=(ir.replace(first, **changes), *rest))


# Each case tampers with the first unit of a fixture so that validate
# reports exactly one rule.
_BROKEN = [
    pytest.param("counting_apples_e1", lambda u: ir.replace(
        u, attributes=u.attributes + u.attributes[-1:]),
        "duplicate-member", id="duplicate-member-attribute"),
    pytest.param("counting_e2", lambda u: ir.replace(
        u, operations=u.operations + u.operations[-1:]),
        "duplicate-member", id="duplicate-member-operation"),
    pytest.param("counting_e2", lambda u: _with_op(
        u, params=u.operations[0].params * 2),
        "duplicate-param", id="duplicate-param"),
    pytest.param("counting_e2", lambda u: _with_op(
        u, body=(ir.replace(u.operations[0].body[0], body=()),)),
        "empty-loop", id="empty-loop"),
    pytest.param("counting_e2", lambda u: _with_op(
        u, body=(ir.SetupStmt("In", ("p", "ROOM1")), *u.operations[0].body)),
        "setup-above-i", id="setup-above-i"),
    pytest.param("counting_apples_e1", lambda u: ir.replace(
        u, friends=(ir.GLOBALS_UNIT,)),
        "friends-below-e2", id="friends-below-e2"),
    pytest.param("globals", lambda u: ir.replace(u, operations=_unit().operations),
        "globals-shape", id="globals-shape-operations"),
    pytest.param("globals", lambda u: _with_attr(u, const=None),
        "globals-shape", id="globals-shape-variable"),
    pytest.param("globals", lambda u: _with_attr(u, visibility=ir.Visibility.PROTECTED),
        "globals-shape", id="globals-shape-hidden"),
    pytest.param("counting_apples_i", lambda u: _with_attr(
        u, visibility=ir.Visibility.PUBLIC),
        "i-private", id="i-private-attribute"),
    pytest.param("counting_apples_e1", lambda u: ir.replace(
        u, kind=ir.UnitKind.INSTANCE),
        "e1-kind", id="e1-kind"),
    pytest.param("counting_e2", lambda u: ir.replace(u, kind=ir.UnitKind.INSTANCE),
        "e2-kind", id="e2-kind"),
    pytest.param("counting_e2", lambda u: _with_op(u, visibility=ir.Visibility.PROTECTED),
        "e2-op-visibility", id="e2-op-visibility"),
    pytest.param("counting_e2", lambda u: ir.replace(u, operations=u.operations[:1]),
        "e2-modularity", id="e2-modularity"),
    pytest.param("counting_e3", lambda u: _with_op(u, visibility=ir.Visibility.PROTECTED),
        "e3-public", id="e3-public-operation"),
]


class TestLevelDiscipline:
    def test_fixtures_validate(self, fixture_units):
        for name, units in fixture_units.items():
            for unit in units:
                assert ir.validate(unit) == [], (name, unit.name)

    @pytest.mark.parametrize("fixture, tamper, rule", _BROKEN)
    def test_each_rule_names_itself(self, fixture_units, fixture, tamper, rule):
        assert _rules(tamper(fixture_units[fixture][0])) == {rule}

    def test_e1_needs_a_loop(self):
        unit = _unit(operations=(
            ir.Operation(
                "Counting", (), "int", ir.Visibility.PROTECTED,
                (ir.ReturnStmt(ir.IntExpr(0)),),
            ),
        ))
        assert _rules(unit) == {"e1-loop"}

    def test_e1_rejects_public_operations(self):
        bad = _with_op(_unit(), visibility=ir.Visibility.PUBLIC)
        assert _rules(bad) == {"e1-op-visibility"}

    def test_e1_needs_a_variable_attribute(self):
        bad = _unit(attributes=(
            ir.Attribute("k", "Sound", ir.Visibility.PRIVATE, ir.Literal("K")),
        ))
        assert _rules(bad) == {"e1-var"}

    def test_instance_rejects_loops(self):
        bad = _unit(
            kind=ir.UnitKind.INSTANCE,
            level=ir.Level.I,
            attributes=(
                ir.Attribute("ME", "Person", ir.Visibility.PRIVATE, ir.Literal("ME")),
            ),
            operations=_unit().operations,
        )
        assert _rules(bad) == {"i-private", "i-script", "i-straight-line"}

    def test_e2_attributes_at_most_protected(self, fixture_units):
        e2 = fixture_units["counting_e2"][0]
        bad = ir.replace(
            e2,
            attributes=tuple(
                ir.replace(a, visibility=ir.Visibility.PUBLIC)
                for a in e2.attributes
            ),
        )
        assert _rules(bad) == {"e2-attr-visibility"}

    def test_e3_everything_public(self, e3_units):
        bad = _with_attr(e3_units["Set"], visibility=ir.Visibility.PROTECTED)
        assert _rules(bad) == {"e3-public"}


class TestValidateSet:
    def test_duplicate_key(self, fixture_units):
        unit = fixture_units["counting_e2"][0]
        diags = ir.validate_set([unit, unit])
        assert any(d.rule == "duplicate-unit" for d in diags)

    def test_unknown_friend(self, fixture_units):
        unit = fixture_units["counting_e2"][0]
        assert unit.friends
        diags = ir.validate_set([unit])
        assert any(d.rule == "unknown-friend" for d in diags)

    def test_e3_needs_cooperation(self, e3_units):
        diags = ir.validate_set([e3_units["Set"]])
        assert any(d.rule == "e3-cooperation" for d in diags)

    def test_full_e3_set_is_clean(self, fixture_units, globals_unit):
        units = list(fixture_units["counting_e3"]) + [globals_unit]
        assert ir.validate_set(units) == []


class TestAccess:
    def test_public_is_open(self, e3_units):
        access = ir.check_access("zoology", "<zoology>", e3_units["Counting"], "Counting")
        assert access
        assert bool(access) is True

    def test_protected_needs_same_domain(self, fixture_units):
        e1 = fixture_units["counting_apples_e1"][0]
        assert ir.check_access("apples", "<apples>", e1, "Counting")
        denied = ir.check_access("pencils", "<pencils>", e1, "Counting")
        assert not denied
        assert "pencils" in denied.reason

    def test_private_admits_owner_and_friends(self, fixture_units):
        e1 = fixture_units["counting_apples_e1"][0]
        assert e1.member_visibility("numlist") is ir.Visibility.PRIVATE
        assert ir.check_access("apples", "apples-peer", e1, "numlist").allowed is False
        assert ir.check_access("anything", e1.name, e1, "numlist")

    def test_declared_friend_may_touch_private(self, fixture_units):
        e2 = fixture_units["counting_e2"][0]
        assert "Globals" in e2.friends
        assert ir.check_access("zoology", "Globals", e2, "result")

    def test_unknown_member_raises(self, e3_units):
        with pytest.raises(ir.UnknownMember):
            ir.check_access("apples", "<apples>", e3_units["Set"], "nope")


def visibilities(units):
    """How many members of units have each visibility."""
    return Counter(m.visibility for u in units for m in (*u.attributes, *u.operations))


def public_fraction(units):
    counts = visibilities(units)
    return counts[ir.Visibility.PUBLIC] / sum(counts.values())


class TestChainMetrics:
    def test_visibility_shifts_toward_public(self, kb_by_level, levels):
        privates = []
        publics = []
        for level in levels:
            counts = visibilities(kb_by_level[level])
            privates.append(counts[ir.Visibility.PRIVATE] / sum(counts.values()))
            publics.append(public_fraction(kb_by_level[level]))
        assert privates == sorted(privates, reverse=True)
        assert publics == sorted(publics)

    def test_each_pass_moves_some_visibility(self, kb_by_level, levels):
        for lower, higher in zip(levels, levels[1:]):
            a, b = kb_by_level[lower], kb_by_level[higher]
            assert (
                visibilities(b)[ir.Visibility.PRIVATE] < visibilities(a)[ir.Visibility.PRIVATE]
                or public_fraction(b) > public_fraction(a)
            )

    def test_episodic_residue_shrinks(self, kb_by_level, levels):
        # Constants bound to world entities: neither tokens, scalars nor collections.
        counts = [
            sum(
                1
                for u in kb_by_level[level]
                for a in u.attributes
                if a.is_const
                and a.type_ref not in ir.TOKEN_TYPES | ir.SCALAR_TYPES
                and not ir.is_collection_type(a.type_ref)
            )
            for level in levels
        ]
        assert counts[0] > 0
        assert counts == sorted(counts, reverse=True)

    def test_structure_grows(self, kb_by_level, levels):
        units = [len(kb_by_level[level]) for level in levels]
        ops = [sum(len(u.operations) for u in kb_by_level[level]) for level in levels]
        assert units == sorted(units)
        assert ops == sorted(ops)


class TestComparison:
    def test_member_changes_are_visible(self, fixture_units):
        unit = fixture_units["counting_apples_i"][0]
        poked = ir.replace(
            unit,
            attributes=unit.attributes[:-1]
            + (ir.replace(unit.attributes[-1], type_ref="Foot"),),
        )
        assert poked != unit


class TestIterStatements:
    def test_walks_into_loops(self, fixture_units):
        e1 = fixture_units["counting_apples_e1"][0]
        kinds = {type(stmt).__name__ for stmt in ir.iter_statements(e1)}
        assert "WhileStmt" in kinds
        assert "ActionStmt" in kinds
