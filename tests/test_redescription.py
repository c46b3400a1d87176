"""Redescription passes: anti-unification, generalization, decomposition."""

import hashlib
import random
import re

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



def episode(*actions, consts=(), name="CountingApples", domain="apples"):
    """A level-I recording with three apples, three sounds, ME and HAND,
    plus `consts`, playing `actions` (one statement per string)."""
    declared = [
        "Sound ONE", "Sound TWO", "Sound THREE", "Person ME",
        "Apple APPLE1", "Apple APPLE2", "Apple APPLE3", "Hand HAND", *consts,
    ]
    body = [f"const {c};" for c in declared] + list(actions)
    lines = "".join(f"        {line}\n" for line in body)
    return dsl.parse(
        f"@level(I)\n@domain({domain})\ninstance {name} {{\n    private:\n{lines}}}\n"
    )[0]


def counting_script(*blocks):
    """One Move/PointTo/Say block per (object, sound) pair."""
    return [
        line
        for obj, sound in blocks
        for line in ("ME.Move(HAND);", f"ME.PointTo({obj});", f"ME.Say({sound});")
    ]


THREE_APPLES = (("APPLE1", "ONE"), ("APPLE2", "TWO"), ("APPLE3", "THREE"))


class TestPhaseOneRefusals:
    """Each way phase 1 refuses its input, with the message it gives."""

    def refusal(self, *units):
        with pytest.raises(rd.RedescriptionError) as exc:
            rd.antiunify_instances(units)
        return str(exc.value)

    def test_the_plain_script_is_accepted(self, instances):
        unit, _ = rd.antiunify_instances([instances[0], episode(*counting_script(*THREE_APPLES))])
        assert unit.name == "CountingApples"

    def test_a_block_cut_short_at_the_end(self, instances):
        cut = episode(*counting_script(*THREE_APPLES), "ME.Move(HAND);", "ME.PointTo(APPLE1);")
        assert self.refusal(instances[0], cut) == (
            "CountingApples: script is not one repeated routine"
        )

    def test_an_extra_action_before_the_first_block(self, instances):
        extra = episode("ME.Move(HAND);", *counting_script(*THREE_APPLES))
        assert self.refusal(instances[0], extra) == (
            "CountingApples: script is not one repeated routine"
        )

    def test_same_period_different_routines(self, instances):
        swapped = episode(*[
            line
            for obj, sound in THREE_APPLES
            for line in (f"ME.PointTo({obj});", "ME.Move(HAND);", f"ME.Say({sound});")
        ])
        assert self.refusal(instances[0], swapped) == "episodes repeat different routines"

    def test_a_class_is_not_an_episode(self, instances):
        e1 = dsl.load_fixture("counting_apples_e1")[0]
        with pytest.raises(ValueError) as exc:
            rd.antiunify_instances([instances[0], e1])
        assert str(exc.value) == f"{e1.name} is not a level-I instance"

    def test_an_instance_with_no_script(self, instances):
        bare = ir.replace(instances[1], name="Bare", operations=())
        assert self.refusal(instances[0], bare) == "Bare has no recorded script"

    def test_an_operand_that_is_not_a_name(self, instances):
        op = instances[1].operation(ir.IMPLICIT_OP)
        body = tuple(
            ir.ActionStmt("Say", s.recv, (ir.IntExpr(1),))
            if isinstance(s, ir.ActionStmt) and s.verb == "Say" else s
            for s in op.body
        )
        odd = ir.replace(instances[1], operations=(ir.replace(op, body=body),))
        assert self.refusal(instances[0], odd) == (
            "recorded actions must reference bound constants"
        )

    def test_performers_switch_within_a_step(self, instances):
        script = counting_script(*THREE_APPLES)
        script[4] = "YOU.PointTo(APPLE2);"
        switched = episode(*script, consts=("Person YOU",))
        assert self.refusal(instances[0], switched) == "actions switch between performers"

    def test_performers_switch_between_steps(self, instances):
        script = [line.replace("ME.Say", "YOU.Say") for line in counting_script(*THREE_APPLES)]
        switched = episode(*script, consts=("Person YOU",))
        assert self.refusal(switched, switched) == "actions switch between performers"

    def test_a_receiver_that_is_not_an_agent(self):
        script = [line.replace("ME.", "HAND.") for line in counting_script(*THREE_APPLES)]
        handed = episode(*script)
        assert self.refusal(handed, handed) == "actions are not performed by an agent"

    def test_numerals_out_of_order(self):
        shuffled = episode(*counting_script(
            ("APPLE1", "TWO"), ("APPLE2", "ONE"), ("APPLE3", "THREE"),
        ))
        assert self.refusal(shuffled, shuffled) == (
            "sounds do not follow the shared numeral order"
        )

    def test_an_object_pointed_at_twice_in_one_pass(self):
        twice = episode(*counting_script(
            ("APPLE1", "ONE"), ("APPLE2", "TWO"), ("APPLE1", "THREE"),
        ))
        assert self.refusal(twice, twice) == "an object is pointed at twice in one pass"

    def test_two_varying_kinds(self):
        pears = ("Pear PEAR1", "Pear PEAR2", "Pear PEAR3")
        script = [
            line
            for (obj, sound), pear in zip(THREE_APPLES, ("PEAR1", "PEAR2", "PEAR3"))
            for line in (f"ME.PointTo({obj});", f"ME.PointTo({pear});", f"ME.Say({sound});")
        ]
        both = episode(*script, consts=pears)
        assert self.refusal(both, both) == "more than one varying object kind"

    def test_no_varying_objects(self):
        same = episode(*counting_script(
            ("APPLE1", "ONE"), ("APPLE1", "TWO"), ("APPLE1", "THREE"),
        ))
        assert self.refusal(same, same) == "no varying objects to collect"

    def test_an_undeclared_constant(self, instances):
        script = counting_script(*THREE_APPLES)
        script[4] = "ME.PointTo(GHOST);"
        ghostly = episode(*script, name="Counting_apples_2")
        assert self.refusal(instances[0], ghostly) == (
            "Counting_apples_2: 'GHOST' is not a recorded constant"
        )

    def test_a_hand_named_result_breaks_level_discipline(self):
        # ME.Move(result) makes the hand an attribute named like the count.
        moves = [
            episode(
                *[line.replace("HAND", "result") for line in counting_script(*THREE_APPLES[:n])],
                consts=("Hand result",),
            )
            for n in (2, 3)
        ]
        assert self.refusal(*moves) == (
            "generated class breaks level discipline: "
            "[duplicate-member] CountingApples.result: attribute name reused"
        )

    def test_pencils_collect_into_an_object_set(self):
        pencils = [
            episode(
                *counting_script(*[(f"PENCIL{i}", s) for i, s in enumerate(sounds, 1)]),
                consts=tuple(f"Pencil PENCIL{i}" for i in range(1, len(sounds) + 1)),
                name="CountingPencils", domain="pencils",
            )
            for sounds in (("ONE", "TWO"), ("ONE", "TWO", "THREE"))
        ]
        unit, report = rd.antiunify_instances(pencils)
        assert unit.name == "CountingPencils"
        assert unit.attribute("object_set").type_ref == "objectSet"
        (item,) = [s for s in ir.iter_statements(unit) if isinstance(s, ir.LocalDecl)]
        assert (item.name, item.type_ref) == ("item", "OBJECT")
        assert ("bind_items", "Pencil -> objectSet object_set") in report.rules_applied


# sha256 over one entry per drawn episode set of
# test_phase_one_is_frozen_on_drawn_episode_sets: the printed E1 class
# and its report, or "<refusal type>: <message>", each followed by NUL.
PHASE_ONE_SHA256 = "45ef0bc22e887a517a080bb14528bc76970b370465ff122e853a104a68c14ed9"

PHASE_ONE_REFUSALS = {
    "{} has no recorded script",
    "recorded actions must reference bound constants",
    "{}: script is not one repeated routine",
    "episodes repeat different routines",
    "actions switch between performers",
    "actions are not performed by an agent",
    "sounds do not follow the shared numeral order",
    "an object is pointed at twice in one pass",
    "more than one varying object kind",
    "no varying objects to collect",
}

DRAWN_KINDS = (("apples", "Apple", "APPLE"), ("pencils", "Pencil", "PENCIL"))
DRAWN_BLOCKS = (("Move", "PointTo", "Say"), ("PointTo", "Say"))


def drawn_recording(rng, kind, block):
    """One counting recording of 1-6 objects: a dict of its consts
    ({name: type}, in declaration order), setup facts and actions
    ([verb, receiver, [args]]), to be mutated and then rendered."""
    _, entity, prefix = kind
    size = 1 if rng.random() < 0.1 else rng.randint(2, 6)
    objects = [f"{prefix}{i}" for i in range(1, size + 1)]
    consts = {sound: "Sound" for sound in ir.NUMERALS[:size]}
    consts.update({"ME": "Person", "HAND": "Hand"} if "Move" in block else {"ME": "Person"})
    consts.update((name, entity) for name in objects)
    setup = []
    if rng.random() < 0.5:
        consts["ROOM1"] = "Room"
        setup.append("In(ME, ROOM1)")
    if size > 1 and rng.random() < 0.5:
        setup.append(f"InLine({', '.join(objects)})")
    operand = {"Move": lambda i: "HAND", "PointTo": objects.__getitem__,
               "Say": ir.NUMERALS.__getitem__}
    actions = [[verb, "ME", [operand[verb](i)]] for i in range(size) for verb in block]
    if rng.random() < 0.3:  # the total restated
        actions.append(copied(actions[-1]))
    return {"consts": consts, "setup": setup, "actions": actions, "script": True}


def copied(action):
    verb, recv, args = action
    return [verb, recv, list(args)]


def mutate(rng, recs, period):
    """Apply one drawn mutation to one recording or to a whole column
    of every recording; a mutation that finds no action to change does
    nothing."""
    one = [rng.choice(recs)]
    scope = rng.choice((one, recs))
    pos = rng.randrange(period)
    column = lambda rec: rec["actions"][pos::period]
    what = rng.choice((
        "receiver", "constant", "swap", "repeat", "drop_last", "extra_first",
        "confirm", "non_name", "second_kind", "no_script", "reshape",
    ))
    actions = one[0]["actions"]
    if not actions and what in ("drop_last", "extra_first", "confirm", "non_name"):
        return
    if what == "receiver":
        name, kind = rng.choice((("YOU", "Person"), ("HAND", "Hand")))
        for rec in scope:
            rec["consts"].setdefault(name, kind)
            steps = column(rec)
            if not steps:
                continue
            for action in steps if scope is recs else [rng.choice(steps)]:
                action[1] = name
    elif what in ("constant", "swap", "repeat", "second_kind"):
        for rec in scope:
            steps = column(rec)
            if not steps:
                continue
            i, j = rng.randrange(len(steps)), rng.randrange(len(steps))
            if what == "constant":
                for action in steps:
                    action[2] = list(steps[0][2])
            elif what == "swap":
                steps[i][2], steps[j][2] = steps[j][2], steps[i][2]
            elif what == "repeat":
                steps[j][2] = list(steps[i][2])
            else:
                for k, action in enumerate(steps, 1):
                    rec["consts"].setdefault(f"PEAR{k}", "Pear")
                    action[2] = [f"PEAR{k}"]
    elif what == "drop_last":
        actions.pop()
    elif what == "extra_first":
        actions.insert(0, copied(rng.choice(actions)))
    elif what == "confirm":
        actions.append(copied(actions[-1]))
    elif what == "non_name":
        action = rng.choice(actions)
        if rng.random() < 0.5:
            action[1] = "1"
        else:
            action[2] = ["1"]
    elif what == "no_script":
        one[0]["script"] = False
    else:  # another block shape
        rec = one[0]
        verbs = {action[0] for action in rec["actions"]}
        if "Move" in verbs:
            rec["actions"] = [action for action in rec["actions"] if action[0] != "Move"]
        else:
            rec["consts"].setdefault("HAND", "Hand")
            rec["actions"] = [
                moved
                for action in rec["actions"]
                for moved in (
                    [["Move", "ME", ["HAND"]], action] if action[0] == "PointTo" else [action]
                )
            ]


def rendered(rec, name, domain):
    lines = [f"const {kind} {const};" for const, kind in rec["consts"].items()]
    lines += [f"{fact};" for fact in rec["setup"]]
    lines += [f"{recv}.{verb}({', '.join(args)});" for verb, recv, args in rec["actions"]]
    body = "".join(f"        {line}\n" for line in lines)
    unit = dsl.parse(f"@level(I)\n@domain({domain})\ninstance {name} {{\n    private:\n{body}}}\n")[0]
    return unit if rec["script"] else ir.replace(unit, operations=())


def drawn_episode_sets(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        kind, block = rng.choice(DRAWN_KINDS), rng.choice(DRAWN_BLOCKS)
        recs = [drawn_recording(rng, kind, block) for _ in range(rng.randint(2, 3))]
        for _ in range(rng.choice((0, 1, 1, 2))):
            mutate(rng, recs, len(block))
        domain = kind[0]
        yield [rendered(rec, f"Counting_{domain}_{i}", domain) for i, rec in enumerate(recs, 1)]


def test_phase_one_is_frozen_on_drawn_episode_sets():
    """1,000 drawn episode sets, each with up to two mutations, fold to
    the frozen E1 classes and reports or refuse with the frozen texts;
    the draws reach every refusal of phase 1 and both optional rules."""
    digest = hashlib.sha256()
    refusals, rules = set(), set()
    for units in drawn_episode_sets(1000, seed=1):
        try:
            unit, report = rd.antiunify_instances(units)
        except rd.RedescriptionError as exc:
            entry = f"{type(exc).__name__}: {exc}"
            if isinstance(exc, rd.NoCommonSkeleton):
                refusals.add(re.sub(r"^\w+( has |: )", r"{}\1", str(exc)))
        else:
            entry = dsl.print_canonical([unit]).text + rd.format_report(report)
            rules.update(rule for rule, _ in report.rules_applied)
        digest.update(entry.encode() + b"\0")
    assert refusals == PHASE_ONE_REFUSALS
    assert {"strip_confirmation", "drop_occasional"} <= rules
    assert digest.hexdigest() == PHASE_ONE_SHA256


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


    def test_a_list_const_of_an_entity_kind_is_not_the_numeral_list(self):
        source = dsl.fixture_source("counting_apples_e1").text
        picks = "        const Apple picks = [APPLE1, APPLE2];\n"
        (e1,) = dsl.parse(source.replace("    private:\n", "    private:\n" + picks, 1))
        assert ir.validate(e1) == []
        (e2, _), report = rd.generalize_to_e2(e1)
        assert dsl.print_canonical([e2]).text == dsl.fixture_source("counting_e2").text
        assert report.dropped == ("local APP_List app_list",)

    def test_a_unit_below_e1_is_refused(self, instances):
        with pytest.raises(ValueError) as exc:
            rd.generalize_to_e2(instances[0])
        assert type(exc.value) is ValueError
        assert str(exc.value) == "CountingApples is not a level-E1 class"

    def test_a_class_without_an_agent_is_not_counting(self):
        e1 = dsl.load_fixture("counting_apples_e1")[0]
        agentless = ir.replace(e1, attributes=tuple(a for a in e1.attributes if a.name != "p"))
        with pytest.raises(rd.RedescriptionError) as exc:
            rd.generalize_to_e2(agentless)
        assert str(exc.value) == "CountingApples is not a counting class (missing an agent)"

    def test_a_base_name_that_names_an_operation_breaks_level_discipline(self):
        e1 = ir.replace(dsl.load_fixture("counting_apples_e1")[0], name="IndexApples")
        with pytest.raises(rd.RedescriptionError) as exc:
            rd.generalize_to_e2(e1)
        assert str(exc.value) == (
            "generalized class breaks level discipline: "
            "[duplicate-member] Index.Index: operation name reuses a member name"
        )


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
        ten = ir.NUMERALS[:10]
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
        assert numlist == ir.NUMERALS
        assert len(numlist) == 20
        assert report.inputs == (e2.name,)


    def test_a_unit_other_than_e2_is_refused(self):
        e1 = dsl.load_fixture("counting_apples_e1")[0]
        with pytest.raises(ValueError) as exc:
            rd.decompose_to_e3(e1)
        assert type(exc.value) is ValueError
        assert str(exc.value) == "CountingApples is not a level-E2 class"

    def test_a_class_without_a_collection_is_not_counting(self):
        (e2, _), _ = rd.generalize_to_e2(dsl.load_fixture("counting_apples_e1")[0])
        kept = tuple(a for a in e2.attributes if a.name not in ("object_set", "object_list"))
        with pytest.raises(rd.RedescriptionError) as exc:
            rd.decompose_to_e3(ir.replace(e2, attributes=kept))
        assert str(exc.value) == "Counting is not a counting class"

    def test_shared_data_without_numerals_keeps_twenty(self):
        (e2, globals_unit), _ = rd.generalize_to_e2(dsl.load_fixture("counting_apples_e1")[0])
        units, report = rd.decompose_to_e3(e2, ir.replace(globals_unit, attributes=()))
        assert units[0].attribute("numlist").const == ir.NUMERALS
        assert report.inputs == ("Counting", "Globals")

    def test_a_counting_class_named_like_a_part_breaks_level_discipline(self):
        (e2, globals_unit), _ = rd.generalize_to_e2(dsl.load_fixture("counting_apples_e1")[0])
        with pytest.raises(rd.RedescriptionError) as exc:
            rd.decompose_to_e3(ir.replace(e2, name="Set"), globals_unit)
        assert str(exc.value) == (
            "decomposed units break level discipline: "
            "[duplicate-unit] Set: unit key (name, level) reused"
        )


def brute_force_roll(items, max_period=5):
    """The best repeated block anywhere in items, by trying every start
    and period: (start, period, count), preferring more covered items,
    then a shorter period, then an earlier start; None if nothing repeats."""
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


def whole_script_period(items):
    """brute_force_roll's period when its roll starts at the first item
    and covers every item, else None."""
    roll = brute_force_roll(items)
    if roll is None:
        return None
    start, period, count = roll
    return period if start == 0 and period * count == len(items) else None


class TestLoopRoll:
    @given(st.one_of(
        st.lists(st.sampled_from("ab"), max_size=14),
        st.builds(
            lambda block, times, tail: block * times + tail,
            st.lists(st.sampled_from("abc"), min_size=1, max_size=6),
            st.integers(1, 4),
            st.lists(st.sampled_from("abc"), max_size=2),
        ),
    ))
    @settings(max_examples=600, deadline=None)
    def test_matches_brute_force(self, items):
        assert rd.repeat_period(items) == whole_script_period(items)

    @given(st.lists(st.sampled_from("abc"), max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_reported_region_truly_repeats(self, items):
        period = rd.repeat_period(items)
        if period is None:
            return
        block = items[:period]
        assert len(items) >= 2 * period
        for lo in range(0, len(items), period):
            assert items[lo: lo + period] == block

    def test_nothing_repeats(self):
        assert rd.repeat_period(["a", "b", "c"]) is None

    @pytest.mark.parametrize("items", [
        list("ababa"),  # the last block is cut short
        list("cabab"),  # an extra item before the first block
        list("ababcc"),  # a repeated block followed by another
        list("abcdef") * 2,  # a block longer than the cap
    ])
    def test_a_partial_repeat_has_no_period(self, items):
        assert rd.repeat_period(items) is None

    def test_the_shortest_period_wins(self):
        assert rd.repeat_period(list("aaaa")) == 1
        assert rd.repeat_period(list("abababab")) == 2


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
