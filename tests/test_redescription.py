"""Redescription passes: anti-unification, generalization, decomposition."""

import pytest
from hypothesis import given, settings, strategies as st

from rrlang import dsl, interpreter as itp, ir, redescription as rd

FOUR_APPLE_EPISODE = """\
@level(I)
@domain(apples)
instance CountingApples {
    private:
        const Sound ONE;
        const Sound TWO;
        const Sound THREE;
        const Sound FOUR;
        const Person ME;
        const Room ROOM1;
        const Table TABLE1;
        const Apple APPLE1;
        const Apple APPLE2;
        const Apple APPLE3;
        const Apple APPLE4;
        const Hand HAND;
        In(ME, ROOM1);
        On(APPLE1, TABLE1);
        On(APPLE2, TABLE1);
        On(APPLE3, TABLE1);
        On(APPLE4, TABLE1);
        InLine(APPLE1, APPLE2, APPLE3, APPLE4);
        ME.Move(HAND);
        ME.PointTo(APPLE1);
        ME.Say(ONE);
        ME.Move(HAND);
        ME.PointTo(APPLE2);
        ME.Say(TWO);
        ME.Move(HAND);
        ME.PointTo(APPLE3);
        ME.Say(THREE);
        ME.Move(HAND);
        ME.PointTo(APPLE4);
        ME.Say(FOUR);
        ME.Say(FOUR);
}
"""


def apples_world(n, seed=0):
    entities = {
        "ME": ("Person", None),
        "HAND": ("Hand", None),
        "ROOM1": ("Room", None),
        "TABLE1": ("Table", None),
    }
    ids = tuple(f"APPLE{i}" for i in range(1, n + 1))
    for eid in ids:
        entities[eid] = ("Apple", "apples")
    return itp.World(entities, {"apples": "Line"}, {"apples": ids}, seed)


@pytest.fixture(scope="module")
def instances():
    return [dsl.load_fixture("counting_apples_i")[0], dsl.parse(FOUR_APPLE_EPISODE)[0]]


@pytest.fixture(scope="module")
def generated_e1(instances):
    unit, _ = rd.antiunify_instances(instances)
    return unit


class TestAntiUnify:
    def test_yields_a_valid_e1_class(self, instances):
        unit, report = rd.antiunify_instances(instances)
        assert unit.name == "CountingApples"
        assert unit.level is ir.Level.E1
        assert ir.validate(unit) == []
        assert report.phase == 1

    def test_scene_scaffolding_is_dropped(self, instances):
        _, report = rd.antiunify_instances(instances)
        assert any("ROOM1" in item for item in report.dropped)
        assert any("TABLE1" in item for item in report.dropped)

    def test_rules_cover_rolling_and_confirmation(self, instances):
        _, report = rd.antiunify_instances(instances)
        names = [rule for rule, _ in report.rules_applied]
        assert "loop_roll" in names
        assert "strip_confirmation" in names

    def test_generalized_class_counts_unseen_cardinality(self, generated_e1):
        res = itp.execute(
            [generated_e1], generated_e1, "Counting", [], apples_world(5, seed=2),
            caller_domain="apples",
        )
        assert res.value == itp.IntVal(5)
        assert [e.arg for e in res.trace if e.verb == "Said"] == list(ir.NUMERALS[:5])
        assert sorted(e.arg for e in res.trace if e.verb == "PointedTo") == [
            f"APPLE{i}" for i in range(1, 6)
        ]

    def test_projection_onto_training_episode(self, instances, generated_e1):
        # On each training scene the class must reproduce what happened.
        for inst, n in zip(instances, (3, 4)):
            replay = itp.replay_instance([inst], inst, apples_world(n))
            run = itp.execute(
                [generated_e1], generated_e1, "Counting", [], apples_world(n),
                caller_domain="apples",
            )
            for verb in ("PointedTo", "Said"):
                recorded = [e.arg for e in replay.trace if e.verb == verb]
                if verb == "Said":
                    recorded = recorded[:-1]  # recorded episodes restate the total
                produced = [e.arg for e in run.trace if e.verb == verb]
                assert sorted(produced) == sorted(recorded)

    def test_needs_two_instances(self, instances):
        with pytest.raises(rd.TooFewInstances) as exc:
            rd.antiunify_instances(instances[:1])
        assert "record more episodes" in str(exc.value)

    def test_rejects_mixed_domains(self, instances):
        other = ir.replace(instances[1], domain="pears")
        with pytest.raises(rd.DomainMismatch):
            rd.antiunify_instances([instances[0], other])

    def test_rejects_unrelated_scripts(self, instances):
        src = FOUR_APPLE_EPISODE.replace("        ME.Move(HAND);\n", "")
        trimmed = dsl.parse(src)[0]
        with pytest.raises(rd.NoCommonSkeleton):
            rd.antiunify_instances([instances[0], trimmed])


class TestGeneralize:
    def test_e2_matches_reference_listing_byte_for_byte(self):
        e1 = dsl.load_fixture("counting_apples_e1")[0]
        (e2, globals_unit), report = rd.generalize_to_e2(e1)
        assert dsl.print_canonical([e2]).text == dsl.fixture_source("counting_e2").text
        assert dsl.print_canonical([globals_unit]).text == dsl.fixture_source("globals").text
        assert report.phase == 2
        assert report.dropped == ("local APP_List app_list",)

    def test_same_output_from_the_rolled_shape(self, generated_e1):
        (e2, _), report = rd.generalize_to_e2(generated_e1)
        assert dsl.print_canonical([e2]).text == dsl.fixture_source("counting_e2").text
        assert report.dropped == ()

    def test_report_names_each_rewrite(self):
        e1 = dsl.load_fixture("counting_apples_e1")[0]
        _, report = rd.generalize_to_e2(e1)
        names = [rule for rule, _ in report.rules_applied]
        assert names == [
            "widen_collection_type",
            "hoist_numlist_global",
            "befriend_globals",
            "split_index",
            "split_one_to_one_map",
            "split_get_result",
            "emit_driver",
            "publicize_operations",
            "protect_attributes",
            "synthesize_fetch_objects",
        ]

    def test_class_and_its_entry_operation_take_the_input_base_name(self):
        e1 = ir.replace(dsl.load_fixture("counting_apples_e1")[0], name="TallyApples")
        (e2, _), report = rd.generalize_to_e2(e1)
        want = dsl.fixture_source("counting_e2").text.replace("Counting", "Tally")
        assert dsl.print_canonical([e2]).text == want
        assert report.outputs == ("Tally", ir.GLOBALS_UNIT)

    def test_saying_another_list_is_not_counting(self):
        said = "p.Say(numlist.Next());"
        source = dsl.fixture_source("counting_apples_e1").text
        assert said in source
        (e1,) = dsl.parse(source.replace(said, "p.Say(app_list.Next());"))
        with pytest.raises(rd.RedescriptionError, match="no loop says successive numerals"):
            rd.generalize_to_e2(e1)


class TestDecompose:
    def test_e3_matches_reference_listing_byte_for_byte(self):
        e1 = dsl.load_fixture("counting_apples_e1")[0]
        (e2, globals_unit), _ = rd.generalize_to_e2(e1)
        units, report = rd.decompose_to_e3(e2, globals_unit)
        assert dsl.print_canonical(list(units)).text == dsl.fixture_source("counting_e3").text
        assert report.phase == 3

    def test_e3_set_validates_with_cooperation(self):
        e1 = dsl.load_fixture("counting_apples_e1")[0]
        (e2, globals_unit), _ = rd.generalize_to_e2(e1)
        units, _ = rd.decompose_to_e3(e2, globals_unit)
        assert ir.validate_set(list(units)) == []

    def test_counting_class_takes_the_input_name(self):
        e1 = ir.replace(dsl.load_fixture("counting_apples_e1")[0], name="TallyApples")
        (e2, globals_unit), _ = rd.generalize_to_e2(e1)
        units, report = rd.decompose_to_e3(e2, globals_unit)
        want = dsl.fixture_source("counting_e3").text.replace("Counting", "Tally")
        assert dsl.print_canonical(list(units)).text == want
        assert report.outputs == ("OrdinalNumber", "Set", "Tally")

    def test_shared_numerals_replace_the_ordinal_list(self):
        e1 = dsl.load_fixture("counting_apples_e1")[0]
        (e2, globals_unit), _ = rd.generalize_to_e2(e1)
        ten = ir.Literal(ir.NUMERALS[:10])
        shared = ir.replace(
            globals_unit,
            attributes=(ir.replace(globals_unit.attribute("numlist"), const=ten),),
        )
        units, _ = rd.decompose_to_e3(e2, shared)
        assert units[0].name == "OrdinalNumber"
        assert units[0].attribute("numlist").const == ten
        assert ir.validate_set(list(units)) == []

    def test_without_shared_numerals_the_listing_keeps_twenty(self):
        e1 = dsl.load_fixture("counting_apples_e1")[0]
        (e2, _), _ = rd.generalize_to_e2(e1)
        units, report = rd.decompose_to_e3(e2)
        numlist = units[0].attribute("numlist").const
        assert numlist == ir.Literal(ir.NUMERALS)
        assert len(numlist.value) == 20
        assert report.inputs == (e2.name,)


def brute_force_roll(items, max_period=5):
    n = len(items)
    best = None
    for period in range(1, min(max_period, n // 2) + 1):
        for start in range(0, n - 2 * period + 1):
            count = 1
            while (
                start + (count + 1) * period <= n
                and items[start + count * period: start + (count + 1) * period]
                == items[start: start + period]
            ):
                count += 1
            if count >= 2:
                key = (count * period, -period, -start)
                if best is None or key > best[0]:
                    best = (key, (start, period, count))
    return best[1] if best else None


class TestLoopRoll:
    @given(st.lists(st.sampled_from("ab"), max_size=14))
    @settings(max_examples=400, deadline=None)
    def test_matches_brute_force(self, items):
        roll = rd.loop_roll(items)
        got = (roll.start, roll.period, roll.count) if roll else None
        assert got == brute_force_roll(items)

    @given(st.lists(st.sampled_from("abc"), max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_reported_region_truly_repeats(self, items):
        roll = rd.loop_roll(items)
        if roll is None:
            return
        block = items[roll.start: roll.start + roll.period]
        for rep in range(roll.count):
            lo = roll.start + rep * roll.period
            assert items[lo: lo + roll.period] == block
        assert roll.count >= 2
        assert roll.covered == roll.period * roll.count

    def test_nothing_repeats(self):
        assert rd.loop_roll(["a", "b", "c"]) is None


class TestMastery:
    def test_latest_outcome_per_task_counts(self):
        records = [("T1", "Solved"), ("T2", "Solved"), ("T3", "Failed"), ("T3", "Solved")]
        assert rd.mastery_check(records)

    def test_repeats_of_one_task_do_not_stack(self):
        records = [("T1", "Solved"), ("T1", "Solved"), ("T2", "Solved")]
        assert not rd.mastery_check(records)

    def test_later_failure_revokes(self):
        records = [
            ("T1", "Solved"), ("T2", "Solved"), ("T3", "Solved"), ("T3", "Failed"),
        ]
        assert not rd.mastery_check(records)

    def test_threshold_is_tunable(self):
        records = [("T1", "Solved"), ("T2", "Solved")]
        assert rd.mastery_check(records, threshold=2)
        assert not rd.mastery_check(records, threshold=3)

    def test_outcome_objects_are_accepted(self):
        class Verdict:
            def __init__(self, kind):
                self.kind = kind

        records = [("T1", Verdict("Solved")), ("T2", Verdict("Solved"))]
        assert rd.mastery_check(records, threshold=2)


class TestReport:
    def test_format_is_tab_separated(self, instances):
        _, report = rd.antiunify_instances(instances)
        text = rd.format_report(report)
        lines = text.splitlines()
        assert text.endswith("\n")
        assert lines[0] == "phase\t1"
        kinds = {line.split("\t")[0] for line in lines}
        assert kinds <= {"phase", "input", "output", "rule", "dropped"}
