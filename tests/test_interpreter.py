"""Execution semantics: replay, leveled counting, errands, failure modes."""

import copy
import pickle
import random

import pytest

from rrlang import dsl, interpreter as itp, ir, tasks

NUMERALS = ir.NUMERALS


def apples_world(n, arrangement="Line", seed=0, scene=True):
    entities = {"ME": ("Person", None), "HAND": ("Hand", None)}
    if scene:
        entities["ROOM1"] = ("Room", None)
        entities["TABLE1"] = ("Table", None)
    ids = tuple(f"APPLE{i}" for i in range(1, n + 1))
    for eid in ids:
        entities[eid] = ("Apple", "apples")
    return itp.World(entities, {"apples": arrangement}, {"apples": ids}, seed)


def banana_world(n, seed=0):
    entities = {"ME": ("Person", None), "HAND": ("Hand", None)}
    ids = tuple(f"BANANA{i}" for i in range(1, n + 1))
    for eid in ids:
        entities[eid] = ("Banana", "Bananaset")
    return itp.World(entities, {"Bananaset": "Scattered"}, {"Bananaset": ids}, seed)


def heaps_world(sizes=(7, 8), seed=0):
    entities = {"ME": ("Person", None), "HAND": ("Hand", None)}
    a = tuple(f"CANDY{i}" for i in range(1, sizes[0] + 1))
    b = tuple(f"CANDY{i}" for i in range(sizes[0] + 1, sizes[0] + sizes[1] + 1))
    for eid in a:
        entities[eid] = ("Candy", "heap_a")
    for eid in b:
        entities[eid] = ("Candy", "heap_b")
    return itp.World(
        entities,
        {"heap_a": "Scattered", "heap_b": "Scattered"},
        {"heap_a": a, "heap_b": b},
        seed,
    )


def verbs(trace, verb):
    return [e.arg for e in trace if e.verb == verb]


@pytest.fixture(scope="module")
def instance():
    return dsl.load_fixture("counting_apples_i")[0]


@pytest.fixture(scope="module")
def e1():
    return dsl.load_fixture("counting_apples_e1")[0]


@pytest.fixture(scope="module")
def e2_kb():
    return [dsl.load_fixture("counting_e2")[0], dsl.load_fixture("globals")[0]]


@pytest.fixture(scope="module")
def e3_kb():
    return list(dsl.load_fixture("counting_e3")) + [dsl.load_fixture("globals")[0]]


@pytest.fixture(scope="module")
def e3_counting(e3_kb):
    return next(u for u in e3_kb if u.name == "Counting")


class TestWorld:
    def test_validate_world_accepts_scene(self):
        assert itp.validate_world(apples_world(3)) == []

    def test_validate_world_flags_unknown_entity(self):
        w = apples_world(2)
        bad = itp.World(w.entities, w.arrangements, {"apples": ("APPLE1", "GHOST")}, 0)
        assert any("GHOST" in p for p in itp.validate_world(bad))

    def test_validate_world_flags_bad_arrangement(self):
        w = apples_world(2)
        bad = itp.World(w.entities, {"apples": "Heap"}, w.containers, 0)
        assert any("Heap" in p for p in itp.validate_world(bad))


class TestReplay:
    def test_training_episode_replays_verbatim(self, instance):
        res = itp.replay_instance([instance], instance, apples_world(3))
        assert verbs(res.trace, "Said") == ["ONE", "TWO", "THREE", "THREE"]
        assert verbs(res.trace, "PointedTo") == ["APPLE1", "APPLE2", "APPLE3"]
        assert sum(1 for e in res.trace if e.verb == "Moved") == 3
        assert res.value is itp.NOTHING

    def test_replay_is_bit_identical_across_runs(self, instance):
        a = itp.replay_instance([instance], instance, apples_world(3))
        b = itp.replay_instance([instance], instance, apples_world(3))
        assert itp.format_trace(a.trace) == itp.format_trace(b.trace)

    def test_scattered_scene_rejected(self, instance):
        with pytest.raises(itp.SetupMismatch):
            itp.replay_instance([instance], instance, apples_world(3, arrangement="Scattered"))

    def test_extra_apples_rejected(self, instance):
        # InLine pins the whole container in recorded order.
        with pytest.raises(itp.SetupMismatch):
            itp.replay_instance([instance], instance, apples_world(5))


class TestE1Counting:
    def test_counts_five(self, e1):
        res = itp.execute([e1], e1, "Counting", [], apples_world(5, seed=7), caller_domain="apples")
        assert res.value == itp.IntVal(5)
        assert verbs(res.trace, "Said") == list(NUMERALS[:5])
        assert sorted(verbs(res.trace, "PointedTo")) == [f"APPLE{i}" for i in range(1, 6)]
        assert not any(e.verb == "Moved" for e in res.trace)

    def test_same_seed_same_trace(self, e1):
        runs = [
            itp.execute([e1], e1, "Counting", [], apples_world(5, seed=7), caller_domain="apples")
            for _ in range(2)
        ]
        assert itp.format_trace(runs[0].trace) == itp.format_trace(runs[1].trace)

    def test_seed_shuffles_selection_order(self, e1):
        orders = {
            tuple(
                verbs(
                    itp.execute(
                        [e1], e1, "Counting", [], apples_world(5, seed=s), caller_domain="apples"
                    ).trace,
                    "PointedTo",
                )
            )
            for s in range(6)
        }
        assert len(orders) > 1

    def test_cross_domain_caller_denied(self, e1):
        with pytest.raises(itp.AccessViolation) as exc:
            itp.execute([e1], e1, "Counting", [], apples_world(3), caller_domain="tasks")
        assert "hidden" in str(exc.value)

    def test_foreign_kind_rejected_by_binding(self, e1):
        pw = itp.World(
            {
                "ME": ("Person", None),
                "HAND": ("Hand", None),
                "PENCIL1": ("Pencil", "pencils"),
                "PENCIL2": ("Pencil", "pencils"),
            },
            {"pencils": "Line"},
            {"pencils": ("PENCIL1", "PENCIL2")},
            0,
        )
        with pytest.raises(itp.BindingMismatch):
            itp.execute([e1], e1, "Counting", [], pw, caller_domain="apples")


class TestE2Counting:
    def test_counts_any_kind(self, e2_kb):
        e2 = e2_kb[0]
        res = itp.execute(e2_kb, e2, "Counting", [], apples_world(4, seed=3), caller_domain="apples")
        assert res.value == itp.IntVal(4)
        assert verbs(res.trace, "Said") == list(NUMERALS[:4])

    def test_counts_pencils_too(self, e2_kb):
        e2 = e2_kb[0]
        pw = itp.World(
            {"ME": ("Person", None), "PENCIL1": ("Pencil", "pencils"), "PENCIL2": ("Pencil", "pencils")},
            {"pencils": "Scattered"},
            {"pencils": ("PENCIL1", "PENCIL2")},
            1,
        )
        res = itp.execute(e2_kb, e2, "Counting", [], pw, caller_domain="pencils")
        assert res.value == itp.IntVal(2)

    def test_fetch_takes_exactly_five(self, e2_kb):
        e2 = e2_kb[0]
        bw = banana_world(7, seed=1)
        seq = itp.SeqVal([itp.EntityVal(e) for e in bw.containers["Bananaset"]])
        res = itp.execute(e2_kb, e2, "FetchObjects", [seq, itp.IntVal(5)], bw, caller_domain="tasks")
        took = verbs(res.trace, "TookAway")
        assert len(took) == 5 and len(set(took)) == 5
        assert len(res.world.containers["Bananaset"]) == 2
        assert "ERROR" not in verbs(res.trace, "Said")

    def test_fetch_announces_error_when_short(self, e2_kb):
        e2 = e2_kb[0]
        bw = banana_world(4, seed=4)
        seq = itp.SeqVal([itp.EntityVal(e) for e in bw.containers["Bananaset"]])
        res = itp.execute(e2_kb, e2, "FetchObjects", [seq, itp.IntVal(5)], bw, caller_domain="tasks")
        assert verbs(res.trace, "Said")[-1] == "ERROR"
        assert not verbs(res.trace, "TookAway")


class TestE3:
    def test_counting(self, e3_kb, e3_counting):
        res = itp.execute(
            e3_kb, e3_counting, "Counting", [], apples_world(6, seed=2), caller_domain="apples"
        )
        assert res.value == itp.IntVal(6)
        assert verbs(res.trace, "Said") == list(NUMERALS[:6])

    def test_bring_five_errand(self, e3_kb):
        errand = dsl.load_fixture("fetch_objects")[0]
        kb = e3_kb + [errand]
        res = itp.execute(kb, errand, "BringFive", [], banana_world(9, seed=0), caller_domain="tasks")
        took = verbs(res.trace, "TookAway")
        assert len(took) == 5 and len(set(took)) == 5
        assert verbs(res.trace, "Said")[:9] == list(NUMERALS[:9])
        assert len(res.world.containers["Bananaset"]) == 4

    def test_bus_boarding_matches_without_counting_children(self, e3_kb):
        bus = dsl.load_fixture("bus_seats")[0]
        seats = tuple(f"SEAT{i}" for i in range(1, 11))
        kids = tuple(f"CHILD{i}" for i in range(1, 11))
        entities = {"ME": ("Person", None), "HAND": ("Hand", None)}
        for eid in seats:
            entities[eid] = ("Seat", "Seats_of_Car")
        for eid in kids:
            entities[eid] = ("Child", "Passengers")
        world = itp.World(
            entities,
            {"Seats_of_Car": "Line", "Passengers": "Line"},
            {"Seats_of_Car": seats, "Passengers": kids},
            1,
        )
        res = itp.execute(e3_kb + [bus], bus, "HowManyCanSit", [], world, caller_domain="tasks")
        assert res.value == itp.IntVal(10)
        assert all(not p.startswith("CHILD") for p in verbs(res.trace, "PointedTo"))

    def test_conservation_keeps_sum_without_recount(self, e3_kb):
        cons = dsl.load_fixture("conservation")[0]
        world = apples_world(16, arrangement="Square", seed=2)
        res = itp.execute(e3_kb + [cons], cons, "SumAfterRearrange", [], world, caller_domain="apples")
        moved_at = [e.seq for e in res.trace if e.verb == "Moved"]
        assert res.value == itp.IntVal(16)
        assert len(moved_at) == 1
        assert not [e for e in res.trace if e.verb == "PointedTo" and e.seq > moved_at[-1]]

    def test_one_to_one_map_points_surplus_silently(self, e3_kb, e3_counting):
        hw = heaps_world()
        sa = itp.build_unit_value(e3_kb, "Set", hw, "heap_a")
        sb = itp.build_unit_value(e3_kb, "Set", hw, "heap_b")
        res = itp.execute(e3_kb, e3_counting, "OneToOneMap", [sa, sb], hw, caller_domain="tasks")
        assert res.value == itp.IntVal(7)
        assert verbs(res.trace, "PointedTo") == ["CANDY15"]
        assert verbs(res.trace, "Said") == []

    def test_discrete_match_verdicts(self, e3_kb, e3_counting):
        hw = heaps_world()
        sa = itp.build_unit_value(e3_kb, "Set", hw, "heap_a")
        sb = itp.build_unit_value(e3_kb, "Set", hw, "heap_b")
        res = itp.execute(
            e3_kb, e3_counting, "Can_Match_Discretely", [sa, sb], hw, caller_domain="tasks"
        )
        assert res.value == itp.BoolVal(False)
        even = itp.World(
            hw.entities,
            hw.arrangements,
            {"heap_a": hw.containers["heap_a"], "heap_b": hw.containers["heap_b"][:7]},
            0,
        )
        sa2 = itp.build_unit_value(e3_kb, "Set", even, "heap_a")
        sb2 = itp.build_unit_value(e3_kb, "Set", even, "heap_b")
        res = itp.execute(
            e3_kb, e3_counting, "Can_Match_Discretely", [sa2, sb2], even, caller_domain="tasks"
        )
        assert res.value == itp.BoolVal(True)


class TestIsolation:
    def test_input_world_never_mutates(self, e3_kb):
        errand = dsl.load_fixture("fetch_objects")[0]
        world = banana_world(6, seed=0)
        before = copy.deepcopy(world)
        res = itp.execute(e3_kb + [errand], errand, "BringFive", [], world, caller_domain="tasks")
        assert [e.verb for e in res.trace].count("TookAway") == 5
        assert world.entities == before.entities
        assert world.arrangements == before.arrangements
        assert world.containers == before.containers
        # a run writes only containers
        assert res.world.containers != world.containers
        assert res.world.entities == world.entities
        assert res.world.arrangements == world.arrangements

    def test_a_target_outside_the_kb_runs_as_one_inside_it(self, e3_kb):
        errand = dsl.load_fixture("fetch_objects")[0]
        world = banana_world(6, seed=0)
        inside = itp.execute(e3_kb + [errand], errand, "BringFive", [], world, caller_domain="tasks")
        outside = itp.execute(e3_kb, errand, "BringFive", [], world, caller_domain="tasks")
        assert outside.trace == inside.trace
        assert outside.value == inside.value
        assert outside.steps == inside.steps
        assert outside.world == inside.world

    def test_result_world_is_a_fresh_snapshot(self, e2_kb):
        e2 = e2_kb[0]
        bw = banana_world(7, seed=1)
        seq = itp.SeqVal([itp.EntityVal(e) for e in bw.containers["Bananaset"]])
        res = itp.execute(e2_kb, e2, "FetchObjects", [seq, itp.IntVal(5)], bw, caller_domain="tasks")
        assert res.world is not bw
        assert len(bw.containers["Bananaset"]) == 7


class TestPrimitives:
    def test_say_emits_token(self):
        w = banana_world(1)
        ev, val = itp.eval_primitive("Say", itp.EntityVal("ME"), [itp.TokenVal("ONE")], w)
        assert ev is not None and ev.verb == "Said" and ev.arg == "ONE"
        assert val is itp.NOTHING

    def test_random_draws_restart_per_call(self):
        w = banana_world(1, seed=9)
        s = itp.SeqVal([itp.EntityVal("A"), itp.EntityVal("B"), itp.EntityVal("C")])
        _, v1 = itp.eval_primitive("SelectOneRandom", s, [], w)
        _, v2 = itp.eval_primitive("SelectOneRandom", s, [], w)
        assert v1 == v2

    def test_random_draws_follow_the_standard_choice(self):
        """For seeds 0-199, SelectOneRandom draws the element that
        random.Random(seed).choice would, draw after draw, over list sizes
        1-40, which pass the powers of two, then 1, 2, 32 and 33 again."""
        select = itp._PRIMITIVES["SelectOneRandom"]
        lists = [[itp.TokenVal(str(i)) for i in range(size)] for size in range(1, 41)]
        lists += [lists[0], lists[1], lists[31], lists[32]]
        for seed in range(200):
            machine = itp._Machine((), banana_world(1, seed=seed), itp.DEFAULT_STEP_LIMIT)
            reference = random.Random(seed)
            for items in lists:
                for _ in range(3):
                    drawn = select(machine, itp.SeqVal(items), ())
                    assert drawn is reference.choice(items), (seed, len(items))

    def test_collection_receiver_mutates_in_place(self):
        w = banana_world(1)
        s = itp.SeqVal([itp.EntityVal("A"), itp.EntityVal("B")])
        itp.eval_primitive("Delete", s, [itp.EntityVal("A")], w)
        _, empt = itp.eval_primitive("Empty", s, [], w)
        assert empt == itp.BoolVal(False)
        assert len(s.items) == 1

    def test_first_on_empty_collection(self):
        w = banana_world(1)
        with pytest.raises(itp.EmptyCollection):
            itp.eval_primitive("First", itp.SeqVal([]), [], w)

    def test_unknown_verb(self):
        w = banana_world(1)
        with pytest.raises(itp.TypeMismatch):
            itp.eval_primitive("Juggle", itp.SeqVal([]), [], w)

    def test_every_primitive_verb_has_a_definition(self):
        w = banana_world(1)
        for verb in sorted(ir.PRIMITIVE_VERBS):
            try:
                itp.eval_primitive(verb, itp.SeqVal([]), [], w)
            except itp.ExecError as exc:
                assert "unknown primitive" not in str(exc), verb


def equality_groups():
    """Fresh values of every kind, grouped so that two values are equal
    exactly when they sit in the same group: scalars by kind and
    payload, collections and unit values by identity."""
    seq = lambda: itp.SeqVal([itp.EntityVal("A")])
    unit = lambda: itp.UnitVal("Set", {"result": itp.IntVal(0)})
    return [
        [itp.IntVal(1), itp.IntVal(1)],
        [itp.IntVal(0)],
        [itp.BoolVal(True), itp.BoolVal(True)],
        [itp.BoolVal(False)],
        [itp.TokenVal("A"), itp.TokenVal("A")],
        [itp.EntityVal("A"), itp.EntityVal("A")],
        [seq()],
        [seq()],
        [unit()],
        [unit()],
        [itp.NOTHING, itp.Nothing()],
    ]


_EQUALITY_PROBE = """@level(E2)
@domain(numbers)
class Eq {
    private:
        const Sound S = APPLE1;
        const Apple E = APPLE1;
        const Apple F = APPLE1;
        objectList a;
        objectList b;
    public:
        Boolean IntVsBool() {
            return 1 == TRUE;
        }
        Boolean IntVsBoolDiffer() {
            return 1 != TRUE;
        }
        Boolean IntVsInt() {
            return 1 == 1;
        }
        Boolean TokenVsEntity() {
            return S == E;
        }
        Boolean EntityVsEntity() {
            return E == F;
        }
        Boolean EntityVsNothing() {
            return E != NULL;
        }
        Boolean SeqVsSeq() {
            return a == b;
        }
        Boolean SeqVsItself() {
            return a == a;
        }
}
"""


class TestValueEquality:
    def test_equal_exactly_within_a_group(self):
        groups = equality_groups()
        for i, group in enumerate(groups):
            for a in group:
                for j, others in enumerate(groups):
                    for b in others:
                        assert (a == b) is (i == j), (a, b)
                        assert (a != b) is (i != j), (a, b)

    @pytest.mark.parametrize("op, expected", [
        ("IntVsBool", False),
        ("IntVsBoolDiffer", True),
        ("IntVsInt", True),
        ("TokenVsEntity", False),
        ("EntityVsEntity", True),
        ("EntityVsNothing", True),
        ("SeqVsSeq", False),
        ("SeqVsItself", True),
    ])
    def test_the_language_compares_alike(self, op, expected):
        unit = dsl.parse(_EQUALITY_PROBE)[0]
        world = apples_world(1)
        res = itp.execute([unit], unit, op, [], world, caller_domain="numbers")
        assert res.value == itp.BoolVal(expected)


_ARITHMETIC_PROBE = """@level(E3)
@domain(numbers)
class Sum {
    public:
        int n;
        int Add(int a, int b) {
            return a + b;
        }
        int Sub(int a, int b) {
            return a - b;
        }
        int IncLocal(int a) {
            a++;
            return a;
        }
        int IncAttribute(int a) {
            n = a;
            n++;
            return n;
        }
}
"""


class TestSmallIntegers:
    """+, - and n++ take results in -1..64 from one shared table; at and
    past both ends of it a result is the same as a fresh IntVal."""

    TOP = itp._INTS[-1].value

    @pytest.mark.parametrize("result", [-2, -1, 0, TOP, TOP + 1])
    def test_results_at_the_edges_equal_fresh_values(self, result):
        unit = dsl.parse(_ARITHMETIC_PROBE)[0]
        world = apples_world(1)
        calls = [
            ("Add", [result - 1, 1]),
            ("Sub", [result + 1, 1]),
            ("IncLocal", [result - 1]),
            ("IncAttribute", [result - 1]),
        ]
        for _ in range(2):  # the second run reaches n++ on the attribute in place
            for op, args in calls:
                args = [itp.IntVal(a) for a in args]
                value = itp.execute([unit], unit, op, args, world, "numbers").value
                fresh = itp.IntVal(result)
                assert value == fresh and hash(value) == hash(fresh), op
                assert repr(value) == repr(fresh) == f"IntVal(value={result})", op


class TestDelete:
    def delete(self, seq, value):
        _, out = itp.eval_primitive("Delete", seq, [value], banana_world(1))
        assert out is itp.NOTHING

    def test_an_equal_element_that_is_another_object_goes(self):
        s = itp.SeqVal([itp.EntityVal("A"), itp.EntityVal("B")])
        self.delete(s, itp.EntityVal("B"))
        assert s.items == [itp.EntityVal("A")]

    def test_only_the_first_of_two_equal_elements_goes(self):
        first, second = itp.TokenVal("A"), itp.TokenVal("A")
        s = itp.SeqVal([first, itp.TokenVal("B"), second])
        self.delete(s, itp.TokenVal("A"))
        assert s.items == [itp.TokenVal("B"), itp.TokenVal("A")]
        assert s.items[1] is second

    def test_another_kind_with_the_same_payload_stays(self):
        s = itp.SeqVal([itp.EntityVal("A"), itp.IntVal(1)])
        self.delete(s, itp.TokenVal("A"))
        self.delete(s, itp.BoolVal(True))
        assert s.items == [itp.EntityVal("A"), itp.IntVal(1)]

    def test_collections_go_by_identity(self):
        inner = itp.SeqVal([itp.EntityVal("A")])
        s = itp.SeqVal([inner])
        self.delete(s, itp.SeqVal([itp.EntityVal("A")]))
        assert s.items == [inner]
        self.delete(s, inner)
        assert s.items == []

    def cursor_after_two(self):
        s = itp.SeqVal([itp.EntityVal(e) for e in "ABCD"])
        w = banana_world(1)
        itp.eval_primitive("First", s, [], w)
        itp.eval_primitive("Next", s, [], w)
        assert s.pos == 2  # on C
        return s

    @pytest.mark.parametrize("gone, pos, following", [
        ("A", 1, "C"), ("B", 1, "C"), ("C", 2, "D"), ("D", 2, "C"),
    ])
    def test_the_cursor_moves_back_only_past_a_removed_element(self, gone, pos, following):
        s = self.cursor_after_two()
        self.delete(s, itp.EntityVal(gone))
        assert s.pos == pos
        _, value = itp.eval_primitive("Next", s, [], banana_world(1))
        assert value == itp.EntityVal(following)

    def test_no_match_changes_nothing(self):
        s = self.cursor_after_two()
        before = list(s.items)
        self.delete(s, itp.EntityVal("Z"))
        assert s.items == before and s.pos == 2


class TestLimits:
    def test_unknown_operation_is_unbound(self, e1):
        with pytest.raises(itp.UnboundName):
            itp.execute([e1], e1, "Sort", [], apples_world(3), caller_domain="apples")

    def test_step_limit_caps_runs(self, e1):
        with pytest.raises(itp.StepLimitExceeded):
            itp.execute(
                [e1], e1, "Counting", [], apples_world(5), caller_domain="apples", step_limit=5
            )

    def test_step_limit_must_be_positive(self, e1):
        with pytest.raises(ValueError):
            itp.execute(
                [e1], e1, "Counting", [], apples_world(3), caller_domain="apples", step_limit=0
            )

    def test_runaway_recursion_stops(self):
        src = (
            "@level(E2)\n@domain(numbers)\nclass Spiral {\n    public:\n"
            "        int Collapse() {\n            return Rebound();\n        }\n"
            "        int Rebound() {\n            return Collapse();\n        }\n}\n"
        )
        unit = dsl.parse(src)[0]
        with pytest.raises(itp.StepLimitExceeded):
            itp.execute([unit], unit, "Collapse", [], banana_world(1), caller_domain="numbers")

    def test_steps_are_reported(self, e1):
        res = itp.execute([e1], e1, "Counting", [], apples_world(3), caller_domain="apples")
        assert 0 < res.steps < 200


class TestNumerals:
    """The numeral list ends at TWENTY; a count past it fails by name."""

    @staticmethod
    def _counting(level, e1, e2_kb, e3_kb):
        if level == "E1":
            return [e1], e1, "apples"
        units = e2_kb if level == "E2" else e3_kb
        return units, next(u for u in units if u.name == "Counting"), "numbers"

    @pytest.mark.parametrize("level", ("E1", "E2", "E3"))
    def test_twenty_objects_still_count(self, level, e1, e2_kb, e3_kb):
        units, target, domain = self._counting(level, e1, e2_kb, e3_kb)
        for _ in range(2):  # the first call compiles, the second reuses it
            r = itp.execute(units, target, "Counting", [], apples_world(20), domain)
            assert r.value == itp.IntVal(20)
            assert verbs(r.trace, "Said") == list(NUMERALS)

    @pytest.mark.parametrize("level", ("E1", "E2", "E3"))
    def test_twenty_one_objects_run_out_of_numerals(self, level, e1, e2_kb, e3_kb):
        units, target, domain = self._counting(level, e1, e2_kb, e3_kb)
        for _ in range(2):
            with pytest.raises(itp.NumeralsExhausted, match="numerals ran out"):
                itp.execute(units, target, "Counting", [], apples_world(21), domain)

    def test_saying_nothing_is_judged_failed(self, kb_by_level):
        task = ir.replace(
            tasks.build_task("T3", 16), world=apples_world(21, seed=16)
        )
        outcome = tasks.run_task(task, kb_by_level[ir.Level.E3])
        assert outcome.kind == "Failed"
        assert "numerals ran out" in outcome.reason

    def test_a_token_other_than_nothing_is_still_a_type_error(self):
        w = banana_world(1)
        with pytest.raises(itp.TypeMismatch, match="one sound token"):
            itp.eval_primitive("Say", itp.NOTHING, [itp.EntityVal("BANANA1")], w)


class TestTraceFormat:
    def test_tsv_lines(self, instance):
        res = itp.replay_instance([instance], instance, apples_world(3))
        text = itp.format_trace(res.trace)
        lines = text.splitlines()
        assert text.endswith("\n")
        assert lines[0].split("\t")[0] == "1"
        assert all(len(line.split("\t")) == 3 for line in lines)


def probe_unit(attrs):
    """An E2 class with the given attribute lines whose operation Go
    returns 0, so a call only binds its frame."""
    return dsl.parse(
        "@level(E2)\n@domain(numbers)\nclass Probe {\n    private:\n"
        + "".join(f"        {line}\n" for line in attrs)
        + "    public:\n        int Go() {\n            return Zero();\n        }\n"
        + "        int Zero() {\n            return 0;\n        }\n}\n"
    )[0]


def with_body(instance, *stmts):
    """The recorded instance with its script replaced by stmts."""
    (op,) = instance.operations
    return ir.replace(instance, operations=(ir.replace(op, body=stmts),))


class TestBindingErrors:
    def test_a_set_attribute_needs_a_container(self):
        unit = probe_unit(["objectSet items;"])
        world = itp.World({"ME": ("Person", None)}, {}, {}, 0)
        with pytest.raises(itp.BindingMismatch) as err:
            itp.execute([unit], unit, "Go", [], world, caller_domain="numbers")
        assert type(err.value) is itp.BindingMismatch
        assert str(err.value) == "Probe.items: no container to bind"

    def test_an_agent_attribute_needs_a_person(self):
        unit = probe_unit(["Person p;"])
        world = itp.World({"HAND": ("Hand", None)}, {}, {}, 0)
        with pytest.raises(itp.BindingMismatch) as err:
            itp.execute([unit], unit, "Go", [], world, caller_domain="numbers")
        assert type(err.value) is itp.BindingMismatch
        assert str(err.value) == "Probe.p: world has no Person"

    def test_an_empty_inline_fact_is_refused(self, instance):
        unit = with_body(instance, ir.SetupStmt("InLine", ()))
        with pytest.raises(itp.SetupMismatch) as err:
            itp.replay_instance([unit], unit, apples_world(3))
        assert type(err.value) is itp.SetupMismatch
        assert str(err.value) == "InLine needs entities"

    def test_an_inline_fact_outside_every_container_is_refused(self, instance):
        unit = with_body(instance, ir.SetupStmt("InLine", ("APPLE1", "APPLE2")))
        world = apples_world(3)
        world = itp.World(world.entities, world.arrangements, {"apples": ("APPLE2", "APPLE3")}, 0)
        with pytest.raises(itp.SetupMismatch) as err:
            itp.replay_instance([unit], unit, world)
        assert type(err.value) is itp.SetupMismatch
        assert str(err.value) == "InLine: 'APPLE1' is not in any container"

    def test_build_unit_value_needs_the_container(self, e3_kb):
        with pytest.raises(itp.UnboundName) as err:
            itp.build_unit_value(e3_kb, "Set", heaps_world(), "heap_c")
        assert type(err.value) is itp.UnboundName
        assert str(err.value) == "world has no container 'heap_c'"

    def test_build_unit_value_needs_the_class(self, e3_kb):
        with pytest.raises(itp.UnboundName) as err:
            itp.build_unit_value(e3_kb, "Heap", heaps_world(), "heap_a")
        assert type(err.value) is itp.UnboundName
        assert str(err.value) == "no class 'Heap' in the knowledge base"


    def test_a_globals_variable_needs_a_container(self):
        # validate allows only constants in Globals; a variable put there
        # by hand fails its own binding when a unit reads Globals.
        shared = ir.ConceptUnit(
            ir.GLOBALS_UNIT, ir.UnitKind.CLASS, ir.Level.E2, "numbers",
            (ir.Attribute("s", "objectSet", ir.Visibility.PUBLIC),),
        )
        (reader,) = dsl.parse(
            "@level(E3)\n@domain(numbers)\nclass Reader {\n    public:\n"
            "        int Go() {\n            return s;\n        }\n}\n"
        )
        world = itp.World({"ME": ("Person", None)}, {}, {}, 0)
        with pytest.raises(itp.BindingMismatch) as err:
            itp.execute([shared, reader], reader, "Go", [], world, caller_domain="numbers")
        assert type(err.value) is itp.BindingMismatch
        assert str(err.value) == "Globals.s: no container to bind"


def run_body(*body):
    """The error text of running an E3 operation with body, built by
    hand, so the body may hold what no parse gives."""
    op = ir.Operation("F", (), "int", ir.Visibility.PUBLIC, body)
    unit = ir.ConceptUnit("T", ir.UnitKind.CLASS, ir.Level.E3, "numbers", (), (op,))
    with pytest.raises(itp.ExecError) as err:
        itp.execute([unit], unit, "F", [], itp.World({}, {}, {}), "numbers")
    return f"{type(err.value).__name__}: {err.value}"


@pytest.mark.parametrize(
    "build, expected",
    [
        (
            lambda: itp.validate_world(
                itp.World({"APPLE1": ("Apple", "apples")}, {"pears": "Line"}, {})
            ),
            ["arrangement for unknown group 'pears'"],
        ),
        (
            lambda: repr(itp.UnitVal("Set", {"result": itp.IntVal(0), "objlist": itp.SeqVal()})),
            "UnitVal(Set, ['objlist', 'result'])",
        ),
        (lambda: run_body("junk"), "TypeMismatch: cannot execute 'junk'"),
        (lambda: run_body(ir.ReturnStmt("junk")), "TypeMismatch: cannot evaluate 'junk'"),
    ],
    ids=["arrangement-for-unknown-group", "unit-value-repr", "foreign-statement",
         "foreign-expression"],
)
def test_rare_outputs(build, expected):
    """Reports no other test reaches, each with its exact text."""
    assert build() == expected


class TestKeptValues:
    """A const's bound value is kept on its Attribute node; a symbol list
    binds as a fresh sequence over the kept tokens each time."""

    def test_consecutive_runs_each_count_from_one(self, kb_by_level):
        units = kb_by_level[ir.Level.E3]
        counting = next(u for u in units if u.name == "Counting")
        runs = [
            itp.execute(units, counting, "Counting", [], apples_world(5, seed=4), caller_domain="apples")
            for _ in range(2)
        ]
        assert runs[0].trace == runs[1].trace
        assert verbs(runs[0].trace, "Said") == list(NUMERALS[:5])

    def test_a_list_binding_moves_alone(self, e3_kb):
        ordinal = next(u for u in e3_kb if u.name == "OrdinalNumber")
        world = apples_world(1)
        machine = itp._Machine(e3_kb, world, itp.DEFAULT_STEP_LIMIT)
        first = machine.build_unit_value(ordinal, ())
        moved = first.fields["numlist"]
        itp.eval_primitive("Next", moved, [], world)
        itp.eval_primitive("Delete", moved, [itp.TokenVal("TWO")], world)
        second = machine.build_unit_value(ordinal, ()).fields["numlist"]
        assert (moved.pos, len(moved.items)) == (1, 19)
        assert (second.pos, len(second.items)) == (0, 20)
        assert second.items[:2] == [itp.TokenVal("ONE"), itp.TokenVal("TWO")]
        assert second.items[0] is moved.items[0]

    def test_a_scalar_const_binds_to_one_object_across_runs(self, instance):
        frames = [
            itp._Machine([instance], apples_world(3), itp.DEFAULT_STEP_LIMIT).unit_frame(instance)
            for _ in range(2)
        ]
        assert frames[0]["ME"] == itp.EntityVal("ME")
        assert frames[0]["ME"] is frames[1]["ME"]
        assert frames[0]["ONE"] is frames[1]["ONE"]

    def test_a_replaced_literal_binds_anew(self, instance):
        machine = itp._Machine([instance], apples_world(3), itp.DEFAULT_STEP_LIMIT)
        one = instance.attribute("ONE")
        assert machine._literal_value(one) == itp.TokenVal("ONE")
        two = ir.replace(one, const="TWO")
        assert machine._literal_value(two) == itp.TokenVal("TWO")
        assert machine._literal_value(one) == itp.TokenVal("ONE")
        assert not hasattr(copy.copy(one), "_value")
        assert not hasattr(pickle.loads(pickle.dumps(one)), "_value")

    def test_the_generator_is_built_on_the_first_draw(self, instance, e1):
        world = apples_world(3, seed=5)
        replay = itp._Machine([instance], world, itp.DEFAULT_STEP_LIMIT)
        replay.invoke(instance, instance.operation(ir.IMPLICIT_OP), [])
        assert len(replay.trace) == 10 and replay.rng is None
        count = itp._Machine([e1], world, itp.DEFAULT_STEP_LIMIT)
        count.invoke(e1, e1.operation("Counting"), [])
        assert count.rng is not None


def unit_of(name, domain, attrs=(), ops=()):
    return ir.ConceptUnit(
        name, ir.UnitKind.CLASS, ir.Level.E3, domain,
        attributes=tuple(attrs), operations=tuple(ops),
    )


def public_op(name, *body):
    return ir.Operation(name, (), "int", ir.Visibility.PUBLIC, tuple(body))


class TestSiteMemos:
    """A compiled access site keeps what last passed its check. The same
    nodes compiled against one knowledge base, where the member is
    visible, and run against another, where it is private to another
    domain, must be checked again."""

    PRIVATE = ir.Visibility.PRIVATE
    HIDDEN = "private member of {} (domain 'elsewhere') is hidden from Probe (domain 'numbers')"

    def run_twice(self, probe, visible, hidden):
        world = apples_world(1)
        first = itp.execute([probe, visible], probe, "Run", [], world, "numbers")
        with pytest.raises(itp.AccessViolation) as caught:
            itp.execute([probe, hidden], probe, "Run", [], world, "numbers")
        return first.value, str(caught.value)

    def test_the_call_site_checks_a_new_target(self):
        probe = unit_of("Probe", "numbers", ops=[
            public_op("Run", ir.ReturnStmt(ir.CallExpr(ir.NameExpr("Other"), "Get", ()))),
        ])
        get = public_op("Get", ir.ReturnStmt(ir.IntExpr(1)))
        visible = unit_of("Other", "elsewhere", ops=[get])
        hidden = unit_of("Other", "elsewhere", ops=[ir.replace(get, visibility=self.PRIVATE)])
        assert self.run_twice(probe, visible, hidden) == (
            itp.IntVal(1), self.HIDDEN.format("Other")
        )

    def test_the_field_site_checks_a_new_class(self):
        read = ir.ReturnStmt(ir.FieldExpr(ir.NameExpr("o"), "secret"))
        probe = unit_of(
            "Probe", "numbers",
            attrs=[ir.Attribute("o", "Hiding", ir.Visibility.PUBLIC)],
            ops=[public_op("Run", read)],
        )
        secret = ir.Attribute("secret", "int", ir.Visibility.PUBLIC)
        visible = unit_of("Hiding", "elsewhere", attrs=[secret])
        hidden = unit_of("Hiding", "elsewhere", attrs=[ir.replace(secret, visibility=self.PRIVATE)])
        assert self.run_twice(probe, visible, hidden) == (
            itp.IntVal(0), self.HIDDEN.format("Hiding")
        )

    def test_the_globals_reader_checks_a_new_globals_unit(self):
        # `shown` materializes the Globals frame first, so the read of
        # `secret` reaches its reader's kept decision.
        probe = unit_of("Probe", "numbers", attrs=[ir.Attribute("x", "int", ir.Visibility.PUBLIC)],
                        ops=[public_op(
                            "Run",
                            ir.AssignStmt(ir.NameExpr("x"), ir.NameExpr("shown")),
                            ir.ReturnStmt(ir.NameExpr("secret")),
                        )])
        shown = ir.Attribute("shown", "int", ir.Visibility.PUBLIC)
        secret = ir.Attribute("secret", "int", ir.Visibility.PUBLIC)
        visible = unit_of(ir.GLOBALS_UNIT, "elsewhere", attrs=[shown, secret])
        hidden = unit_of(
            ir.GLOBALS_UNIT, "elsewhere", attrs=[shown, ir.replace(secret, visibility=self.PRIVATE)]
        )
        assert self.run_twice(probe, visible, hidden) == (
            itp.IntVal(0), self.HIDDEN.format(ir.GLOBALS_UNIT)
        )
