"""Structure, level discipline, access control, and metrics."""

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


class TestLevelDiscipline:
    def test_fixtures_validate(self, fixture_units):
        for name, units in fixture_units.items():
            for unit in units:
                assert ir.validate(unit) == [], (name, unit.name)

    def test_e1_needs_a_loop(self):
        unit = _unit(operations=(
            ir.Operation(
                "Counting", (), "int", ir.Visibility.PROTECTED,
                (ir.ReturnStmt(ir.IntExpr(0)),),
            ),
        ))
        assert any(d.rule == "e1-loop" or "loop" in d.message for d in ir.validate(unit))

    def test_e1_rejects_public_operations(self):
        bad = _unit(operations=(
            ir.replace(_unit().operations[0], visibility=ir.Visibility.PUBLIC),
        ))
        assert ir.validate(bad)

    def test_e1_needs_a_variable_attribute(self):
        bad = _unit(attributes=(
            ir.Attribute("k", "Sound", ir.Visibility.PRIVATE, ir.Literal("K")),
        ))
        assert ir.validate(bad)

    def test_instance_rejects_loops(self):
        bad = _unit(
            kind=ir.UnitKind.INSTANCE,
            level=ir.Level.I,
            attributes=(
                ir.Attribute("ME", "Person", ir.Visibility.PRIVATE, ir.Literal("ME")),
            ),
            operations=_unit().operations,
        )
        assert ir.validate(bad)

    def test_e2_attributes_at_most_protected(self, fixture_units):
        e2 = fixture_units["counting_e2"][0]
        bad = ir.replace(
            e2,
            attributes=tuple(
                ir.replace(a, visibility=ir.Visibility.PUBLIC)
                for a in e2.attributes
            ),
        )
        assert ir.validate(bad)

    def test_e3_everything_public(self, e3_units):
        unit = e3_units["Set"]
        bad = ir.replace(
            unit,
            attributes=(
                ir.replace(
                    unit.attributes[0], visibility=ir.Visibility.PROTECTED
                ),
            ) + unit.attributes[1:],
        )
        assert ir.validate(bad)


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


class TestChainMetrics:
    def test_visibility_shifts_toward_public(self, kb_by_level, levels):
        privates = []
        publics = []
        for level in levels:
            metrics = ir.level_metrics(kb_by_level[level])
            histogram = metrics.visibility_histogram
            total = sum(histogram.values())
            privates.append(histogram.get(ir.Visibility.PRIVATE, 0) / total)
            publics.append(metrics.public_fraction())
        assert privates == sorted(privates, reverse=True)
        assert publics == sorted(publics)

    def test_each_pass_moves_some_visibility(self, kb_by_level, levels):
        for lower, higher in zip(levels, levels[1:]):
            a = ir.level_metrics(kb_by_level[lower])
            b = ir.level_metrics(kb_by_level[higher])
            assert (
                b.private_count() < a.private_count()
                or b.public_fraction() > a.public_fraction()
            )

    def test_episodic_residue_shrinks(self, kb_by_level, levels):
        counts = [ir.entity_const_count(kb_by_level[level]) for level in levels]
        assert counts[0] > 0
        assert counts == sorted(counts, reverse=True)

    def test_structure_grows(self, kb_by_level, levels):
        units = [len(kb_by_level[level]) for level in levels]
        ops = [
            ir.level_metrics(kb_by_level[level]).operation_count for level in levels
        ]
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

    def test_call_graph_names_cross_unit_calls(self, fixture_units, globals_unit):
        units = list(fixture_units["counting_e3"]) + [globals_unit]
        graph = ir.call_graph(units)
        assert any(
            caller == "Counting" and callee == "OrdinalNumber" and op == "GetNext"
            for caller, _, callee, op in graph
        )


class TestIterStatements:
    def test_walks_into_loops(self, fixture_units):
        e1 = fixture_units["counting_apples_e1"][0]
        kinds = {type(stmt).__name__ for stmt in ir.iter_statements(e1)}
        assert "WhileStmt" in kinds
        assert "ActionStmt" in kinds
