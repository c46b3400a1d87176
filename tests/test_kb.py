"""Knowledge base: storage, episodic recording, advancement, persistence."""

import gc
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from rrlang import dsl, interpreter as itp, ir, kb as kbmod, redescription as rd, tasks

Level = ir.Level


def four_apple_world():
    entities = {
        "ME": ("Person", None),
        "HAND": ("Hand", None),
        "ROOM1": ("Room", None),
        "TABLE1": ("Table", None),
    }
    ids = tuple(f"APPLE{i}" for i in range(1, 5))
    for eid in ids:
        entities[eid] = ("Apple", "apples")
    return itp.World(entities, {"apples": "Line"}, {"apples": ids}, 0)


def fresh_kb_with_episode():
    """A kb holding the training recording plus one fresh 4-apple episode."""
    kb = kbmod.KnowledgeBase()
    instance = dsl.load_fixture("counting_apples_i")[0]
    kb.add_unit(instance)
    world = four_apple_world()
    replayed = replay_four_apples(instance)
    kb.record_instance(replayed, world, "apples")
    return kb


def replay_four_apples(template):
    events = []
    seq = 0
    for i, numeral in enumerate(ir.NUMERALS[:4], start=1):
        for verb, arg in (("Moved", None), ("PointedTo", f"APPLE{i}"), ("Said", numeral)):
            seq += 1
            events.append(itp.TraceEvent(seq, verb, arg))
    events.append(itp.TraceEvent(seq + 1, "Said", ir.NUMERALS[3]))
    return tuple(events)


class TestStore:
    def test_canonical_holds_the_reference_concepts(self, canonical_kb):
        assert len(canonical_kb) == 7
        assert canonical_kb.validate() == []
        names = {u.name for u in canonical_kb}
        assert {"CountingApples", "Counting", "OrdinalNumber", "Set", "Globals"} <= names

    def test_task_apparatus_is_not_knowledge(self, canonical_kb):
        names = {u.name for u in canonical_kb}
        assert not names & {"FetchErrand", "BusBoarding", "NumberConservation"}

    def test_unit_lookup_prefers_the_most_redescribed(self, canonical_kb):
        assert canonical_kb.unit("Counting").level is Level.E3
        assert canonical_kb.unit("Counting", Level.E2).level is Level.E2
        assert canonical_kb.unit("Missing") is None

    def test_domains_exclude_shared_data(self, canonical_kb):
        domains = canonical_kb.domains()
        assert domains == tuple(sorted(domains))
        assert "apples" in domains and "numbers" in domains

    def test_level_slices_carry_globals_upward(self, canonical_kb):
        slices = canonical_kb.kb_by_level()
        for level in (Level.I, Level.E1):
            assert all(u.name != ir.GLOBALS_UNIT for u in slices[level])
        for level in (Level.E2, Level.E3):
            assert any(u.name == ir.GLOBALS_UNIT for u in slices[level])

    def test_the_most_redescribed_globals_fills_a_slice_without_one(self, globals_unit):
        at_e3 = ir.replace(globals_unit, level=Level.E3)
        slices = ir.kb_by_level([at_e3, globals_unit])
        assert slices[Level.E2] == [globals_unit]
        assert slices[Level.E3] == [at_e3]
        assert ir.kb_by_level([globals_unit])[Level.E3] == [globals_unit]

    def test_duplicate_units_are_rejected(self, canonical_kb):
        with pytest.raises(kbmod.DuplicateUnit):
            canonical_kb.add_unit(dsl.load_fixture("counting_e2")[0])

    def test_invalid_units_are_rejected(self):
        kb = kbmod.KnowledgeBase()
        e1 = dsl.load_fixture("counting_apples_e1")[0]
        op = e1.operation("Counting")
        loud = ir.replace(op, visibility=ir.Visibility.PUBLIC)
        ops = tuple(loud if o.name == op.name else o for o in e1.operations)
        with pytest.raises(kbmod.InvalidUnit):
            kb.add_unit(ir.replace(e1, operations=ops))


class TestRecording:
    def test_recorded_episode_matches_the_reference_shape(self):
        kb = kbmod.KnowledgeBase()
        instance = dsl.load_fixture("counting_apples_i")[0]
        world = tasks.training_world()
        res = itp.replay_instance([instance], instance, world)
        recorded = kb.record_instance(res.trace, world, "apples")
        assert recorded.name == "Counting_apples_1"
        assert recorded.level is Level.I
        assert ir.replace(recorded, name=instance.name) == instance

    def test_ordinals_count_existing_recordings(self):
        kb = kbmod.KnowledgeBase.canonical()
        world = tasks.training_world()
        instance = kb.unit("CountingApples", Level.I)
        res = itp.replay_instance([instance], instance, world)
        recorded = kb.record_instance(res.trace, world, "apples")
        assert recorded.name == "Counting_apples_2"

    def test_ordinals_survive_interleaving_and_a_reload(self, tmp_path):
        kb = kbmod.KnowledgeBase.canonical()  # holds one apples recording

        def record(domain):
            kind = {"apples": "Apple", "pencils": "Pencil", "cups": "Cup"}[domain]
            ids = tuple(f"{kind.upper()}{i}" for i in range(1, 4))
            entities = {"ME": ("Person", None), "HAND": ("Hand", None)}
            entities.update((eid, (kind, domain)) for eid in ids)
            world = itp.World(entities, {domain: "Line"}, {domain: ids}, 0)
            events = [("PointedTo", eid) for eid in ids] + [("Said", "THREE")]
            trace = tuple(itp.TraceEvent(i, v, a) for i, (v, a) in enumerate(events, 1))
            return kb.record_instance(trace, world, domain).name

        names = [record(d) for d in ("apples", "pencils", "apples", "cups", "pencils")]
        kb = kbmod.KnowledgeBase.load(kb.save(tmp_path / "kb"))
        names += [record(d) for d in ("cups", "apples", "pencils")]
        assert names == [
            "Counting_apples_2", "Counting_pencils_1", "Counting_apples_3",
            "Counting_cups_1", "Counting_pencils_2",
            "Counting_cups_2", "Counting_apples_4", "Counting_pencils_3",
        ]

    def test_recording_then_replaying_is_a_fixpoint(self):
        kb = kbmod.KnowledgeBase()
        instance = dsl.load_fixture("counting_apples_i")[0]
        world = tasks.training_world()
        first = kb.record_instance(
            itp.replay_instance([instance], instance, world).trace, world, "apples"
        )
        second = kb.record_instance(
            itp.replay_instance([first], first, world).trace, world, "apples"
        )
        assert ir.replace(first, name=second.name) == second

    @pytest.mark.parametrize("verb", ["PointedTo", "TookAway"])
    def test_an_entity_outside_the_scene_is_refused(self, verb):
        kb = kbmod.KnowledgeBase()
        trace = replay_four_apples(None)
        ghost = (*trace, itp.TraceEvent(len(trace) + 1, verb, "GHOST"))
        with pytest.raises(kbmod.KbError, match=f"event 14: {verb} 'GHOST' is not in the scene"):
            kb.record_instance(ghost, four_apple_world(), "apples")
        assert len(kb) == 0 and kb._nodes == {}
        assert kb.record_instance(trace, four_apple_world(), "apples").name == "Counting_apples_1"

    def test_an_event_no_action_codes_is_refused_before_sharing(self):
        kb = kbmod.KnowledgeBase()
        events = [("PointedTo", "APPLE1"), ("Said", "ONE"), ("Jumped", None)]
        trace = tuple(itp.TraceEvent(i, v, a) for i, (v, a) in enumerate(events, 1))
        with pytest.raises(kbmod.KbError, match="^cannot code a Jumped event into an episode$"):
            kb.record_instance(trace, four_apple_world(), "apples")
        assert len(kb) == 0 and kb._nodes == {}

    def test_a_scene_without_an_agent_is_refused_before_sharing(self):
        kb = kbmod.KnowledgeBase()
        world = four_apple_world()
        entities = {eid: kind for eid, kind in world.entities.items() if eid != "ME"}
        world = itp.World(entities, world.arrangements, world.containers, 0)
        with pytest.raises(
            kbmod.KbError, match="^the scene lacks an agent to attribute the actions to$"
        ):
            kb.record_instance(replay_four_apples(None), world, "apples")
        assert len(kb) == 0 and kb._nodes == {}

    def test_an_entity_taken_away_unpointed_is_bound_and_replays(self):
        kb = kbmod.KnowledgeBase()
        entities = {"ME": ("Person", None), "HAND": ("Hand", None), "TABLE1": ("Table", None)}
        entities.update({"APPLE1": ("Apple", "apples"), "APPLE2": ("Apple", "apples")})
        world = itp.World(entities, {"apples": "Line"}, {"apples": ("APPLE1", "APPLE2")}, 0)
        events = [("PointedTo", "APPLE1"), ("Said", "ONE"), ("TookAway", "APPLE2")]
        trace = tuple(itp.TraceEvent(i, v, a) for i, (v, a) in enumerate(events, 1))
        unit = kb.record_instance(trace, world, "apples")
        consts = [attr.name for attr in unit.attributes]
        assert consts.index("APPLE2") == consts.index("APPLE1") + 1
        replayed = itp.replay_instance((unit,), unit, world)
        assert replayed.trace == trace
        assert replayed.world.containers["apples"] == ("APPLE1",)
        again = kb.record_instance(replayed.trace, world, "apples")
        assert ir.replace(unit, name=again.name) == again

    def test_every_member_of_the_line_is_bound_and_replays(self):
        kb = kbmod.KnowledgeBase()
        world = tasks.training_world()
        events = [("PointedTo", "APPLE1"), ("Said", "ONE"), ("PointedTo", "APPLE2"), ("Said", "TWO")]
        trace = tuple(itp.TraceEvent(i, v, a) for i, (v, a) in enumerate(events, 1))
        unit = kb.record_instance(trace, world, "apples")
        consts = [attr.name for attr in unit.attributes]
        assert consts[consts.index("APPLE1"):] == ["APPLE1", "APPLE2", "APPLE3", "HAND"]
        assert itp.replay_instance((unit,), unit, world).trace == trace

    def test_empty_trace_is_no_episode(self):
        kb = kbmod.KnowledgeBase()
        with pytest.raises(kbmod.EmptyTrace):
            kb.record_instance((), tasks.training_world(), "apples")

    def test_outcome_log_ticks_monotonically(self):
        kb = kbmod.KnowledgeBase()
        kb.record_outcome("CountingApples", "T1", tasks.Outcome.solved())
        kb.record_outcome("CountingApples", "T2", "Failed")
        assert [e.tick for e in kb.log] == [1, 2]
        assert kb.log[0].outcome == "Solved"
        assert kb.log[1].outcome == "Failed"


def counting_scene(size, domain="apples", kind="Apple", move=True, restate=True):
    """A world of size objects in a line and a demonstration over it:
    move (unless not move), point and say the next numeral per object,
    then the total (unless not restate)."""
    entities = {
        "ME": ("Person", None),
        "HAND": ("Hand", None),
        "ROOM1": ("Room", None),
        "TABLE1": ("Table", None),
    }
    ids = tuple(f"{kind.upper()}{i}" for i in range(1, size + 1))
    entities.update((eid, (kind, domain)) for eid in ids)
    world = itp.World(entities, {domain: "Line"}, {domain: ids}, 0)
    events = []
    for eid, numeral in zip(ids, ir.NUMERALS):
        events += [("Moved", None)] * move + [("PointedTo", eid), ("Said", numeral)]
    events += [("Said", ir.NUMERALS[size - 1])] * restate
    return world, tuple(itp.TraceEvent(i, v, a) for i, (v, a) in enumerate(events, 1))


def recorded_nodes(unit):
    """Every attribute, statement and name a recording holds."""
    (op,) = unit.operations
    nodes = list(unit.attributes) + list(op.body)
    for stmt in op.body:
        if isinstance(stmt, ir.ActionStmt):
            nodes += [stmt.recv, *stmt.args]
    return nodes


class TestSharedNodes:
    """Recordings in one knowledge base share their immutable nodes and
    never their operations or units."""

    def test_same_scene_twice_shares_every_member(self):
        kb = kbmod.KnowledgeBase()
        world, trace = counting_scene(4)
        first = kb.record_instance(trace, world, "apples")
        second = kb.record_instance(trace, world, "apples")
        pairs = list(zip(recorded_nodes(first), recorded_nodes(second), strict=True))
        assert pairs and all(a is b for a, b in pairs)

    def test_operations_and_units_stay_distinct(self):
        # An Operation holds its compiled body, so each recording
        # compiles its own on its first replay; only the statement
        # closures kept on the shared nodes are reused.
        kb = kbmod.KnowledgeBase()
        world, trace = counting_scene(4)
        first = kb.record_instance(trace, world, "apples")
        second = kb.record_instance(trace, world, "apples")
        assert first is not second
        assert first.operations[0] is not second.operations[0]
        for _ in range(2):
            itp.replay_instance([first], first, world)
        assert itp.compiled_body(first.operations[0]) is not None
        assert itp.compiled_body(second.operations[0]) is None

    def test_two_knowledge_bases_share_no_node(self):
        world, trace = counting_scene(4)
        one = kbmod.KnowledgeBase().record_instance(trace, world, "apples")
        other = kbmod.KnowledgeBase().record_instance(trace, world, "apples")
        assert one == other
        assert not {id(n) for n in recorded_nodes(one)} & {id(n) for n in recorded_nodes(other)}

    def test_recording_known_scenes_builds_almost_nothing(self):
        scenes = [
            (domain, *counting_scene(size, domain, kind))
            for domain, kind in (("apples", "Apple"), ("cups", "Cup"))
            for size in range(2, 9)
        ]
        kb = kbmod.KnowledgeBase()
        for domain, world, trace in scenes:
            kb.record_instance(trace, world, domain)
        gc.collect()
        before = len(gc.get_objects())
        for i in range(200):
            domain, world, trace = scenes[i % len(scenes)]
            kb.record_instance(trace, world, domain)
        gc.collect()
        assert (len(gc.get_objects()) - before) / 200 < 20

    def test_a_loaded_knowledge_base_shares_its_nodes(self, tmp_path):
        kb = kbmod.KnowledgeBase()
        world, trace = counting_scene(4)
        for _ in range(2):
            kb.record_instance(trace, world, "apples")
        loaded = kbmod.KnowledgeBase.load(kb.save(tmp_path / "kb"))
        first, second = (loaded.unit(f"Counting_apples_{i}") for i in (1, 2))
        third = loaded.record_instance(trace, world, "apples")
        assert first == kb.unit("Counting_apples_1")
        for other in (second, third):
            pairs = list(zip(recorded_nodes(first), recorded_nodes(other), strict=True))
            assert pairs and all(a is b for a, b in pairs)
        assert first.operations[0] is not second.operations[0]

    def test_loading_keeps_a_constant_bound_to_another_name(self, tmp_path):
        text = (
            "@level(I)\n@domain(apples)\ninstance Counting_apples_1 {\n"
            "    private:\n        const Person ME;\n        const Apple A = APPLE1;\n"
            "        const Apple APPLE1;\n        ME.PointTo(A);\n        ME.PointTo(APPLE1);\n}\n"
        )
        (tmp_path / "Counting_apples_1_I.rr").write_text(text, encoding="utf-8")
        (tmp_path / kbmod.MANIFEST).write_text(
            "unit\tCounting_apples_1\tI\tapples\tCounting_apples_1_I.rr\n", encoding="utf-8"
        )
        unit = kbmod.KnowledgeBase.load(tmp_path).unit("Counting_apples_1")
        assert unit.attribute("A").const == "APPLE1"
        assert unit.attribute("APPLE1").const == "APPLE1"
        world, _ = counting_scene(1)
        pointed = [e.arg for e in itp.replay_instance([unit], unit, world).trace]
        assert pointed == ["APPLE1", "APPLE1"]

    def test_each_key_builds_its_node_once_for_recording_and_loading(self, tmp_path):
        kb = kbmod.KnowledgeBase()
        nodes = kb._nodes
        keys = {
            "ME": ir.NameExpr("ME"),
            ("APPLE1", "Apple"): ir.Attribute("APPLE1", "Apple", ir.Visibility.PRIVATE, "APPLE1"),
            ("On", ("APPLE1", "TABLE1")): ir.SetupStmt("On", ("APPLE1", "TABLE1")),
            ("PointTo", "ME", "APPLE1"): ir.ActionStmt(
                "PointTo", ir.NameExpr("ME"), (ir.NameExpr("APPLE1"),)
            ),
        }
        for key, node in keys.items():
            assert nodes[key] == node and nodes[key] is nodes[key]
        action = nodes["PointTo", "ME", "APPLE1"]
        assert action.recv is nodes["ME"] and action.args == (nodes["APPLE1"],)
        assert len(nodes) == 5  # the action built the name APPLE1 too

        def holds(unit, table):
            """Whether unit holds, for each key, the node table[key]."""
            (op,) = unit.operations
            members = [*unit.attributes, *op.body, op.body[-1].recv]
            return all(any(m is table[key] for m in members) for key in keys)

        # a recording and a unit loaded from disk take their nodes from
        # the table of the knowledge base that holds them
        built = {key: nodes[key] for key in keys}
        world, trace = counting_scene(1)
        recorded = kb.record_instance(trace, world, "apples")
        assert holds(recorded, built)
        loaded = kbmod.KnowledgeBase.load(kb.save(tmp_path / "kb"))
        first = loaded.unit("Counting_apples_1")
        assert first == recorded and holds(first, loaded._nodes)
        assert holds(loaded.record_instance(trace, world, "apples"), loaded._nodes)
        assert loaded._nodes.keys() == nodes.keys()

    def test_a_shared_action_reads_each_units_own_operand(self):
        # One ActionStmt node, compiled once, runs in two units: in one
        # its argument X is the unit's own constant, in the other a
        # Globals constant bound to another entity.
        kb = kbmod.KnowledgeBase()
        action = kb._nodes["PointTo", "ME", "X"]

        def unit(name, *attrs):
            op = ir.Operation(ir.IMPLICIT_OP, (), None, ir.Visibility.PRIVATE, (action,), True)
            return ir.ConceptUnit(
                name, ir.UnitKind.INSTANCE, Level.I, "apples",
                (kb._nodes["ME", "Person"], *attrs), (op,),
            )

        own = unit("Own", ir.Attribute("X", "Apple", ir.Visibility.PRIVATE, "APPLE1"))
        borrowing = unit("Borrowing")
        shared = ir.ConceptUnit(
            ir.GLOBALS_UNIT, ir.UnitKind.CLASS, Level.E3, "numbers",
            (ir.Attribute("X", "Apple", ir.Visibility.PUBLIC, "APPLE2"),),
        )
        world, _ = counting_scene(2)
        units = [own, borrowing, shared]
        pointed = [
            itp.replay_instance(units, u, world).trace[0].arg
            for u in (own, borrowing, own, borrowing)
        ]
        assert pointed == ["APPLE1", "APPLE2", "APPLE1", "APPLE2"]

    def test_a_compiled_action_holds_few_objects(self):
        # Actions over names shared as the node table shares them: each
        # compiles to one closure that reads its operands in place, and
        # the names' Globals readers are kept once per name node.
        kb = kbmod.KnowledgeBase()
        actions = tuple(
            ir.ActionStmt("PointTo", kb._nodes["ME"], (kb._nodes[f"APPLE{i % 20}"],))
            for i in range(200)
        )
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            compiled = itp._compile_body(actions)
            after = len(gc.get_objects())
        finally:
            gc.enable()
        assert len(set(compiled)) == 200
        assert (after - before) / 200 <= 10  # 16 when each name had a closure of its own

    def test_replayed_recordings_are_freed_by_reference_counting(self):
        # No closure kept on a shared node holds that node, a unit or an
        # operation, so dropping the knowledge base frees everything
        # without the cycle collector.
        scenes = [counting_scene(size) for size in (2, 3, 5)]
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            kb = kbmod.KnowledgeBase()
            for i in range(30):
                world, trace = scenes[i % len(scenes)]
                unit = kb.record_instance(trace, world, "apples")
                itp.replay_instance([unit], unit, world)
            del kb, unit, world, trace
            after = len(gc.get_objects())
        finally:
            gc.enable()
        assert after == before


def push_to_mastery(kb, unit_name):
    for task_id in ("T1", "T2", "T3"):
        kb.record_outcome(unit_name, task_id, "Solved")


class TestAdvance:
    def test_ladder_fires_one_phase_per_call(self):
        kb = fresh_kb_with_episode()
        push_to_mastery(kb, "CountingApples")

        first = kb.advance()
        assert [r.phase for r in first] == [1]
        assert kb.unit("CountingApples", Level.E1) is not None

        push_to_mastery(kb, "CountingApples")
        second = kb.advance()
        assert [r.phase for r in second] == [2]
        assert kb.unit("Counting", Level.E2) is not None
        assert kb.globals_unit is not None

        push_to_mastery(kb, "Counting")
        third = kb.advance()
        assert [r.phase for r in third] == [3]
        assert kb.unit("Counting", Level.E3) is not None
        assert kb.unit("Set", Level.E3) is not None
        assert kb.unit("OrdinalNumber", Level.E3) is not None

        push_to_mastery(kb, "Counting")
        assert kb.advance() == []

    @pytest.mark.parametrize("domain", ["candy_heaps", "cups2b"])
    def test_a_domain_that_title_case_changes_climbs_to_e3(self, domain):
        kb = kbmod.KnowledgeBase()
        for size in (3, 4):
            entities = {"ME": ("Person", None), "HAND": ("Hand", None)}
            ids = tuple(f"CANDY{i}" for i in range(1, size + 1))
            entities.update({eid: ("Candy", domain) for eid in ids})
            world = itp.World(entities, {domain: "Line"}, {domain: ids}, 0)
            events = []
            for eid, numeral in zip(ids, ir.NUMERALS):
                events += [("Moved", None), ("PointedTo", eid), ("Said", numeral)]
            trace = tuple(itp.TraceEvent(i, v, a) for i, (v, a) in enumerate(events, 1))
            kb.record_instance(trace, world, domain)
        fresh = [f"Counting_{domain}_1"]
        for phase in (1, 2, 3):
            for name in fresh:
                push_to_mastery(kb, name)
            reports = kb.advance()
            assert [r.phase for r in reports] == [phase]
            fresh = list(reports[0].outputs)
        assert kb.unit("Counting", Level.E3) is not None
        assert kb.advance() == []

    def test_a_refused_chain_stays_and_the_others_climb(self):
        # One apple shows no repeated routine, so phase 1 refuses apples.
        kb = kbmod.KnowledgeBase()
        for domain, kind, sizes in (("apples", "Apple", (1, 3)), ("pencils", "Pencil", (3, 4))):
            for size in sizes:
                world, trace = counting_scene(size, domain, kind)
                kb.record_instance(trace, world, domain)
        for unit in list(kb):
            push_to_mastery(kb, unit.name)
        apples = [u for u in kb if u.domain == "apples"]
        refusal = rd.PhaseReport(
            1, ("Counting_apples_1", "Counting_apples_2"), (), (),
            ("NoCommonSkeleton: Counting_apples_1: script is not one repeated routine",),
        )

        first = kb.advance()
        assert first[0] == refusal
        assert [(r.phase, r.outputs) for r in first[1:]] == [(1, ("CountingPencils",))]
        assert kb.unit("CountingPencils", Level.E1) is not None
        assert [u for u in kb if u.domain == "apples"] == apples

        for phase in (2, 3):
            reports = kb.advance()
            assert reports[0] == refusal
            assert [r.phase for r in reports[1:]] == [phase]
        assert kb.unit("Counting", Level.E3) is not None

        size = len(kb)
        assert kb.advance() == [refusal]
        assert len(kb) == size
        assert [u for u in kb if u.domain == "apples"] == apples

    def test_without_mastery_nothing_moves(self):
        kb = fresh_kb_with_episode()
        kb.record_outcome("CountingApples", "T1", "Solved")
        kb.record_outcome("CountingApples", "T2", "Failed")
        assert kb.advance() == []

    def test_threshold_is_respected(self):
        kb = fresh_kb_with_episode()
        push_to_mastery(kb, "CountingApples")
        assert kb.advance(threshold=5) == []
        assert kb.advance(threshold=3) != []

    def test_single_episode_cannot_generalize(self):
        kb = kbmod.KnowledgeBase()
        kb.add_unit(dsl.load_fixture("counting_apples_i")[0])
        push_to_mastery(kb, "CountingApples")
        assert kb.advance() == []

    def test_experience_is_retained_through_the_chain(self):
        kb = fresh_kb_with_episode()
        for _ in range(3):
            push_to_mastery(kb, "CountingApples")
            push_to_mastery(kb, "Counting")
            kb.advance()
        instances = [u for u in kb.units_at(Level.I)]
        assert len(instances) == 2
        res = itp.replay_instance(instances, instances[0], tasks.training_world())
        assert [e.arg for e in res.trace if e.verb == "Said"] == [
            "ONE", "TWO", "THREE", "THREE",
        ]

    def test_grown_kb_reaches_the_reference_capability(self):
        kb = fresh_kb_with_episode()
        for _ in range(3):
            push_to_mastery(kb, "CountingApples")
            push_to_mastery(kb, "Counting")
            kb.advance()
        from rrlang import capability as cap

        assert cap.compare_expected(cap.build_matrix(kb.kb_by_level())) == []

    def test_generated_units_match_fixtures_byte_for_byte(self):
        kb = fresh_kb_with_episode()
        for _ in range(3):
            push_to_mastery(kb, "CountingApples")
            push_to_mastery(kb, "Counting")
            kb.advance()
        e2 = kb.unit("Counting", Level.E2)
        assert dsl.print_canonical([e2]).text == dsl.fixture_source("counting_e2").text
        e3 = [kb.unit(n, Level.E3) for n in ("OrdinalNumber", "Set", "Counting")]
        assert dsl.print_canonical(e3).text == dsl.fixture_source("counting_e3").text


def push_all_to_mastery(kb):
    for unit in list(kb):
        push_to_mastery(kb, unit.name)


# Domain names include the shared "numbers" the later levels move into
# and two that title-case differently from their object kind.
_CLIMB_KINDS = {
    "apples": "Apple", "pencils": "Pencil", "candy_heaps": "Candy",
    "numbers": "Marble", "tasks": "Cup",
}
_episodes = st.lists(
    st.tuples(
        st.sampled_from(sorted(_CLIMB_KINDS)),
        st.integers(1, 20),
        st.booleans(),  # Move before each point
        st.booleans(),  # the total restated
    ),
    min_size=1,
    max_size=8,
)


class TestClimbProperty:
    # Each example is a whole climb, so the test draws half the loaded
    # profile's budget: 50 by default, more under CI's "ci" profile.
    @seed(3)
    @settings(max_examples=settings.default.max_examples // 2, deadline=None)
    @given(_episodes)
    def test_any_episode_set_climbs_and_persists(self, episodes):
        kb = kbmod.KnowledgeBase()
        for domain, size, move, restate in episodes:
            world, trace = counting_scene(size, domain, _CLIMB_KINDS[domain], move, restate)
            unit = kb.record_instance(trace, world, domain)
            replayed = itp.replay_instance((unit,), unit, world)
            assert [(e.verb, e.arg) for e in replayed.trace] == [
                (e.verb, e.arg) for e in trace
            ]

        # Each chain fires at most three phases, one per advance.
        for _ in range(4):
            push_all_to_mastery(kb)
            if not any(report.outputs for report in kb.advance()):
                break
        else:
            pytest.fail("advance still fires after three phases per chain")

        with tempfile.TemporaryDirectory() as tmp:
            first = kb.save(Path(tmp) / "first")
            loaded = kbmod.KnowledgeBase.load(first)
            second = loaded.save(Path(tmp) / "second")
            listing = lambda root: {p.name: p.read_bytes() for p in root.iterdir()}
            assert listing(second) == listing(first)

        push_all_to_mastery(loaded)
        size = len(loaded)
        loaded.advance()
        assert len(loaded) == size


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        kb = kbmod.KnowledgeBase.canonical()
        kb.record_outcome("Counting", "T5", "Solved")
        root = kb.save(tmp_path / "kb")
        assert (root / kbmod.MANIFEST).is_file()
        loaded = kbmod.KnowledgeBase.load(root)
        assert len(loaded) == len(kb)
        for unit in kb:
            twin = loaded.unit(unit.name, unit.level)
            assert twin is not None
            assert unit == twin
        assert loaded.log[-1].task == "T5"

    def test_saved_files_are_canonical_listings(self, tmp_path):
        kb = kbmod.KnowledgeBase.canonical()
        root = kb.save(tmp_path / "kb")
        text = (root / "Counting_E2.rr").read_text(encoding="utf-8")
        assert text == dsl.fixture_source("counting_e2").text

    def test_mid_chain_reload_continues_the_ladder(self, tmp_path):
        kb = fresh_kb_with_episode()
        push_to_mastery(kb, "CountingApples")
        kb.advance()
        push_to_mastery(kb, "CountingApples")
        kb.advance()
        root = kb.save(tmp_path / "kb")

        resumed = kbmod.KnowledgeBase.load(root)
        push_to_mastery(resumed, "Counting")
        reports = resumed.advance()
        assert [r.phase for r in reports] == [3]
        assert resumed.unit("Set", Level.E3) is not None

    def test_empty_directory_loads_empty(self, tmp_path):
        empty = tmp_path / "kb"
        empty.mkdir()
        kb = kbmod.KnowledgeBase.load(empty)
        assert len(kb) == 0

    def test_missing_directory_is_io_failure(self, tmp_path):
        with pytest.raises(kbmod.IoFailure):
            kbmod.KnowledgeBase.load(tmp_path / "absent")

    def test_tampered_manifest_is_rejected(self, tmp_path):
        root = kbmod.KnowledgeBase.canonical().save(tmp_path / "kb")
        manifest = root / kbmod.MANIFEST
        lines = manifest.read_text(encoding="utf-8").splitlines(True)
        lines[0] = lines[0].replace("\tapples\t", "\tpears\t")
        manifest.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(kbmod.ManifestError):
            kbmod.KnowledgeBase.load(root)

    def test_unknown_manifest_rows_are_rejected(self, tmp_path):
        root = kbmod.KnowledgeBase.canonical().save(tmp_path / "kb")
        manifest = root / kbmod.MANIFEST
        manifest.write_text(
            manifest.read_text(encoding="utf-8") + "gossip\tx\n", encoding="utf-8"
        )
        with pytest.raises(kbmod.ManifestError):
            kbmod.KnowledgeBase.load(root)

    def test_blank_manifest_lines_are_skipped(self, tmp_path):
        kb = kbmod.KnowledgeBase.canonical()
        root = kb.save(tmp_path / "kb")
        manifest = root / kbmod.MANIFEST
        rows = manifest.read_text(encoding="utf-8").splitlines()
        manifest.write_text("\n".join([rows[0], "", " \t", *rows[1:]]) + "\n", encoding="utf-8")
        loaded = kbmod.KnowledgeBase.load(root)
        assert len(loaded) == len(kb)
        assert all(loaded.unit(unit.name, unit.level) == unit for unit in kb)

    def test_missing_unit_file_is_io_failure(self, tmp_path):
        root = kbmod.KnowledgeBase.canonical().save(tmp_path / "kb")
        (root / "Counting_E2.rr").unlink()
        with pytest.raises(kbmod.IoFailure, match="Counting_E2.rr"):
            kbmod.KnowledgeBase.load(root)

    def test_unreadable_manifest_is_io_failure(self, tmp_path):
        (tmp_path / "kb" / kbmod.MANIFEST).mkdir(parents=True)
        with pytest.raises(kbmod.IoFailure, match="cannot read"):
            kbmod.KnowledgeBase.load(tmp_path / "kb")

    @pytest.mark.parametrize("tamper, complaint", [
        (lambda rows: [rows[0].replace("\tCountingApples\t", "\tCountingPears\t"), *rows[1:]],
         "CountingApples_I.rr does not define unit 'CountingPears'"),
        (lambda rows: [rows[0].replace("\tI\t", "\tE1\t"), *rows[1:]],
         "CountingApples_I.rr disagrees with the manifest about 'CountingApples'"),
        (lambda rows: [*rows, rows[0]], "CountingApples at I already stored"),
        (lambda rows: [*rows, "log\tX\tT1\tSolved\tsoon"], "line 8: tick 'soon' is not an integer"),
        (lambda rows: [rows[0].replace("\tCountingApples_I.rr", "\t/etc/hostname"), *rows[1:]],
         "line 1: file '/etc/hostname' is not a plain name inside the knowledge base"),
        (lambda rows: [rows[0].replace("\tCountingApples_I.rr", "\tkb/CountingApples_I.rr"),
                       *rows[1:]],
         "line 1: file 'kb/CountingApples_I.rr' is not a plain name"),
        (lambda rows: [*rows[:2], rows[2].replace("\tCounting_E2.rr", "\t.."), *rows[3:]],
         "line 3: file '..' is not a plain name"),
    ], ids=["unit-not-defined", "level-mismatch", "duplicate-unit", "tick-not-integer",
            "absolute-file", "file-in-a-subdirectory", "file-is-the-parent"])
    def test_inconsistent_manifest_names_the_fault(self, tmp_path, tamper, complaint):
        root = kbmod.KnowledgeBase.canonical().save(tmp_path / "kb")
        manifest = root / kbmod.MANIFEST
        rows = tamper(manifest.read_text(encoding="utf-8").splitlines())
        manifest.write_text("\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(kbmod.ManifestError, match=complaint):
            kbmod.KnowledgeBase.load(root)

    def test_invalid_kb_is_not_saved(self, tmp_path):
        kb = kbmod.KnowledgeBase()
        kb.add_unit(dsl.load_fixture("counting_e2")[0])  # its friend Globals is missing
        with pytest.raises(kbmod.InvalidUnit, match="friend 'Globals' is not in the set"):
            kb.save(tmp_path / "kb")
        assert not (tmp_path / "kb").exists()

    def test_failed_write_is_io_failure(self, tmp_path):
        (tmp_path / "kb").write_text("not a directory", encoding="utf-8")
        with pytest.raises(kbmod.IoFailure, match="cannot write"):
            kbmod.KnowledgeBase.canonical().save(tmp_path / "kb")
