"""Task battery: worlds, principle checks, success judgments, routing."""

import hashlib

import pytest
from hypothesis import HealthCheck, assume, given, seed, settings, strategies as st

from rrlang import dsl, interpreter as itp, ir, tasks

IntVal = itp.IntVal
TraceEvent = itp.TraceEvent

# sha256 over repr((id, seed, description, caller_domain, query, world))
# of every task for the seeds 0-16 of tests/interpreter_parity.tsv, one
# line each, frozen from the nine-branch builder the task table replaced.
BUILT_TASKS_SHA256 = "ad8b6954b83624a0e08d223e1f7863ee7ec5a6050f50a0a88fd0f43308f6dd05"


def make_trace(*events):
    return tuple(TraceEvent(i + 1, verb, arg) for i, (verb, arg) in enumerate(events))


class TestBuild:
    @pytest.mark.parametrize("task_id", tasks.TASK_IDS)
    @pytest.mark.parametrize("seed", [0, 1, 2, 11])
    def test_every_task_builds_a_sound_world(self, task_id, seed):
        task = tasks.build_task(task_id, seed)
        assert task.id == task_id
        assert task.seed == seed
        assert itp.validate_world(task.world) == []
        assert task.description

    def test_unknown_id_rejected(self):
        with pytest.raises(tasks.UnknownTaskId):
            tasks.build_task("T10")
        with pytest.raises(tasks.UnknownTaskId):
            tasks.build_task("t1")

    def test_t1_world_ignores_the_seed(self):
        worlds = [tasks.build_task("T1", s).world for s in (0, 3, 99)]
        assert worlds[0] == worlds[1] == worlds[2]
        assert worlds[0] == tasks.training_world()

    def test_builders_are_deterministic(self):
        for task_id in tasks.TASK_IDS:
            a = tasks.build_task(task_id, 5)
            b = tasks.build_task(task_id, 5)
            assert a.world == b.world
            assert a.query == b.query

    def test_t3_size_tracks_the_seed(self):
        sizes = {len(tasks.build_task("T3", s).world.containers["apples"]) for s in range(6)}
        assert len(sizes) > 1
        assert all(4 <= n <= 20 for n in sizes)

    def test_t4_is_never_about_apples(self):
        for seed in range(4):
            task = tasks.build_task("T4", seed)
            kinds = {kind for kind, _ in task.world.entities.values()}
            assert "Apple" not in kinds
            assert task.caller_domain in task.world.containers

    def test_built_tasks_match_the_frozen_digest(self):
        digest = hashlib.sha256()
        for task_id in tasks.TASK_IDS:
            for seed in range(17):
                t = tasks.build_task(task_id, seed)
                fields = (t.id, t.seed, t.description, t.caller_domain, t.query, t.world)
                digest.update((repr(fields) + "\n").encode())
        assert digest.hexdigest() == BUILT_TASKS_SHA256

    def test_t9_heaps_differ_slightly(self):
        task = tasks.build_task("T9", 0)
        a = len(task.world.containers["heap_a"])
        b = len(task.world.containers["heap_b"])
        assert abs(a - b) == 1


class TestPrinciples:
    def world(self, n=3):
        entities = {"ME": ("Person", None)}
        ids = tuple(f"APPLE{i}" for i in range(1, n + 1))
        for eid in ids:
            entities[eid] = ("Apple", "apples")
        return itp.World(entities, {"apples": "Line"}, {"apples": ids}, 0)

    def good_trace(self):
        return make_trace(
            ("PointedTo", "APPLE1"), ("Said", "ONE"),
            ("PointedTo", "APPLE2"), ("Said", "TWO"),
            ("PointedTo", "APPLE3"), ("Said", "THREE"),
        )

    def test_clean_count_satisfies_all(self):
        report = tasks.check_principles(self.good_trace(), self.world())
        assert report.one_to_one and report.stable_order and report.cardinality

    def test_restated_total_still_counts(self):
        trace = self.good_trace() + (TraceEvent(7, "Said", "THREE"),)
        report = tasks.check_principles(trace, self.world())
        assert report.stable_order and report.cardinality

    def test_double_point_breaks_one_to_one(self):
        trace = make_trace(
            ("PointedTo", "APPLE1"), ("Said", "ONE"),
            ("PointedTo", "APPLE1"), ("Said", "TWO"),
            ("PointedTo", "APPLE3"), ("Said", "THREE"),
        )
        assert not tasks.check_principles(trace, self.world()).one_to_one

    def test_skipped_object_breaks_one_to_one(self):
        trace = make_trace(
            ("PointedTo", "APPLE1"), ("Said", "ONE"),
            ("PointedTo", "APPLE2"), ("Said", "TWO"),
        )
        assert not tasks.check_principles(trace, self.world()).one_to_one

    def test_scrambled_numerals_break_stable_order(self):
        trace = make_trace(
            ("PointedTo", "APPLE1"), ("Said", "ONE"),
            ("PointedTo", "APPLE2"), ("Said", "THREE"),
            ("PointedTo", "APPLE3"), ("Said", "TWO"),
        )
        report = tasks.check_principles(trace, self.world())
        assert not report.stable_order
        assert not report.cardinality

    def test_wrong_final_numeral_breaks_cardinality(self):
        trace = make_trace(
            ("PointedTo", "APPLE1"), ("Said", "ONE"),
            ("PointedTo", "APPLE2"), ("Said", "TWO"),
            ("PointedTo", "APPLE3"), ("Said", "THREE"),
            ("Said", "FOUR"),
        )
        report = tasks.check_principles(trace, self.world())
        assert not report.cardinality

    def test_empty_trace_claims_nothing(self):
        report = tasks.check_principles((), self.world())
        assert not report.one_to_one
        assert not report.cardinality


class TestSuccessJudges:
    @pytest.mark.parametrize("task_id", tasks.TASK_IDS)
    @pytest.mark.parametrize(
        "trace,value,world_after",
        [((), None, None), (make_trace(("Said", "BLUE")), object(), None)],
    )
    def test_total_on_degenerate_inputs(self, task_id, trace, value, world_after):
        task = tasks.build_task(task_id, 0)
        assert task.success(trace, value, world_after) is False

    def test_t1_accepts_a_real_count(self, kb_by_level):
        task = tasks.build_task("T1", 0)
        e2 = next(u for u in kb_by_level[ir.Level.E2] if u.name == "Counting")
        res = itp.execute(
            list(kb_by_level[ir.Level.E2]), e2, "Counting", [], task.world,
            caller_domain="apples",
        )
        assert task.success(res.trace, res.value, res.world) is True

    def test_success_agrees_with_the_runner_on_a_replaced_world(self, kb_by_level):
        world = tasks.build_task("T3", 1).world  # five apples; seed 0 has four
        task = ir.replace(tasks.build_task("T3", 0), world=world)
        e3 = kb_by_level[ir.Level.E3]
        counting = next(u for u in e3 if u.name == "Counting")
        res = itp.execute(list(e3), counting, "Counting", [], world, caller_domain="apples")
        assert tasks.run_task(task, e3, ir.Level.E3) == tasks.Outcome.solved()
        assert task.success(res.trace, res.value, res.world) is True

    def test_t8_rejects_recounting_after_the_move(self):
        task = tasks.build_task("T8", 0)
        said_all = [("Said", n) for n in ir.NUMERALS[:16]]
        pointed_all = [("PointedTo", f"APPLE{i}") for i in range(1, 17)]
        base = [ev for pair in zip(pointed_all, said_all) for ev in pair]
        ok = make_trace(*base, ("Moved", None))
        assert task.success(ok, IntVal(16), None) is True
        recount = make_trace(*base, ("Moved", None), ("PointedTo", "APPLE1"))
        assert task.success(recount, IntVal(16), None) is False
        no_move = make_trace(*base)
        assert task.success(no_move, IntVal(16), None) is False

    def test_t8_rejects_a_changed_total(self):
        task = tasks.build_task("T8", 0)
        trace = make_trace(("Moved", None))
        assert task.success(trace, IntVal(15), None) is False

    def test_t9_rejects_counting_aloud(self):
        task = tasks.build_task("T9", 0)
        noisy = make_trace(*[("Said", n) for n in ir.NUMERALS[:7]], ("PointedTo", "CANDY15"))
        assert task.success(noisy, None, None) is False

    def test_t9_accepts_silent_surplus_point(self):
        task = tasks.build_task("T9", 0)
        quiet = make_trace(("PointedTo", "CANDY15"))
        assert task.success(quiet, None, None) is True

    def test_t9_rejects_pointing_across_heaps(self):
        task = tasks.build_task("T9", 0)
        mixed = make_trace(("PointedTo", "CANDY1"), ("PointedTo", "CANDY15"))
        assert task.success(mixed, None, None) is False

    def test_t9_rejects_judging_equal(self):
        task = tasks.build_task("T9", 0)
        assert task.success((), None, None) is False

    def test_t5_checks_the_world_reflects_the_fetch(self):
        task = tasks.build_task("T5", 0)
        took = make_trace(*[("TookAway", f"BANANA{i}") for i in range(1, 6)])
        w = task.world
        shrunk = itp.World(
            w.entities, w.arrangements,
            {"Bananaset": w.containers["Bananaset"][:-5]}, w.rng_seed,
        )
        assert task.success(took, None, shrunk) is True
        assert task.success(took, None, w) is False
        assert task.success(took, None, None) is False


def _count(n, said=None):
    """Point at APPLE1..n, saying the given words (default ONE..n)."""
    said = ir.NUMERALS[:n] if said is None else said
    pointed = [("PointedTo", f"APPLE{i}") for i in range(1, n + 1)]
    return [ev for pair in zip(pointed, [("Said", w) for w in said]) for ev in pair]


def _took(prefix, first, last):
    return [("TookAway", f"{prefix}{i}") for i in range(first, last + 1)]


def _shrunk_bananas():
    w = tasks.build_task("T5", 0).world
    return itp.World(w.entities, w.arrangements, {"Bananaset": ()}, w.rng_seed)


# Every reason each row's check can give, with a hand-built run that
# gives it; seed 0 worlds (three apples, five bananas, marbles 1-8 and
# 9-17, ten seats and ten children, sixteen apples, candies 1-7 and 8-15).
CHECK_REASONS = [
    ("T1", _count(3), IntVal(3), None, ""),
    ("T1", _count(3)[:-2], None, None, "did not point at each object exactly once"),
    ("T1", _count(3, ("TWO", "ONE", "THREE")), None, None, "count words were out of order"),
    ("T1", [*_count(2), ("PointedTo", "APPLE3")], None, None, "did not state the total"),
    ("T1", _count(3), IntVal(4), None, "returned the wrong count"),
    ("T5", _took("BANANA", 1, 5), None, "shrunk", ""),
    ("T5", [*_took("BANANA", 1, 5), ("Said", "ERROR")], None, "shrunk",
     "announced an error instead of fetching"),
    ("T5", _took("BANANA", 1, 4), None, "shrunk", "fetched 4 bananas instead of 5"),
    ("T5", _took("BANANA", 1, 5), None, None, "the heap does not reflect the fetch"),
    ("T6", [*_took("MARBLE", 1, 5), *_took("MARBLE", 9, 15)], None, None, ""),
    ("T6", [], None, None, "nothing was fetched to compare"),
    ("T6", [*_took("MARBLE", 1, 5), ("Said", "ERROR")], None, None, "gave up while fetching"),
    ("T6", _took("MARBLE", 1, 5), None, None, "fetched the wrong amounts"),
    ("T7", [("PointedTo", "SEAT1")], IntVal(10), None, ""),
    ("T7", [], IntVal(9), None, "misjudged how many can sit"),
    ("T7", [("PointedTo", "CHILD1")], IntVal(10), None, "recounted the passengers one by one"),
    ("T8", [*_count(16), ("Moved", None)], IntVal(16), None, ""),
    ("T8", _count(16), IntVal(16), None, "never registered the rearrangement"),
    ("T8", [("Moved", None), ("PointedTo", "APPLE1")], IntVal(16), None,
     "recounted after the rearrangement"),
    ("T8", [("Moved", None)], IntVal(15), None, "lost track of the total"),
    ("T9", [("PointedTo", "CANDY15")], None, None, ""),
    ("T9", [("Said", w) for w in ir.NUMERALS[:7]], None, None,
     "counted the heaps aloud instead of matching"),
    ("T9", [], None, None, "judged the heaps equal"),
    ("T9", [("PointedTo", "CANDY1"), ("PointedTo", "CANDY15")], None, None,
     "pointed across both heaps"),
    ("T9", [("PointedTo", "CANDY7")], None, None, "picked the smaller heap"),
]


class TestCheckReasons:
    @pytest.mark.parametrize(
        "task_id,events,value,world_after,reason", CHECK_REASONS,
        ids=[f"{row[0]}-{row[4] or 'solved'}" for row in CHECK_REASONS],
    )
    def test_each_reason_is_frozen(self, task_id, events, value, world_after, reason):
        task = tasks.build_task(task_id, 0)
        trace = make_trace(*events)
        after = _shrunk_bananas() if world_after == "shrunk" else world_after
        got = tasks._TASKS[task_id].check(task.world, trace, value, after)
        assert got == (not reason, reason)
        assert task.success(trace, value, after) is (not reason)


class TestRouting:
    def test_training_task_is_solved_by_replay_alone(self, kb_by_level):
        task = tasks.build_task("T1", 0)
        outcome = tasks.run_task(task, kb_by_level[ir.Level.I], ir.Level.I)
        assert outcome.kind == "Solved"

    def test_scattered_apples_defeat_the_recording(self, kb_by_level):
        outcome = tasks.run_task(
            tasks.build_task("T2", 0), kb_by_level[ir.Level.I], ir.Level.I
        )
        assert outcome.kind == "Failed"
        assert "not arranged in a line" in outcome.reason

    def test_pencils_cannot_reach_the_apple_concept(self, kb_by_level):
        outcome = tasks.run_task(
            tasks.build_task("T4", 0), kb_by_level[ir.Level.E1], ir.Level.E1
        )
        assert outcome.kind == "Inaccessible"
        assert "hidden" in outcome.reason

    def test_nothing_at_level_i_covers_pencils(self, kb_by_level):
        outcome = tasks.run_task(
            tasks.build_task("T4", 0), kb_by_level[ir.Level.I], ir.Level.I
        )
        assert outcome.kind == "Inaccessible"
        assert outcome.reason == "no concept or recording covers this scene"

    def test_conservation_defeats_e2(self, kb_by_level):
        outcome = tasks.run_task(
            tasks.build_task("T8", 0), kb_by_level[ir.Level.E2], ir.Level.E2
        )
        assert outcome.kind == "Failed"
        assert "recounted" in outcome.reason

    def test_conservation_yields_at_e3(self, kb_by_level):
        outcome = tasks.run_task(
            tasks.build_task("T8", 0), kb_by_level[ir.Level.E3], ir.Level.E3
        )
        assert outcome.kind == "Solved"

    def test_seat_matching_needs_decomposition(self, kb_by_level):
        outcome = tasks.run_task(
            tasks.build_task("T7", 0), kb_by_level[ir.Level.E2], ir.Level.E2
        )
        assert outcome.kind == "Inaccessible"
        assert "decomposed" in outcome.reason

    def test_a_call_to_an_undeclared_operation_fails_the_cell(self, kb_by_level):
        def broken(unit):
            if unit.name != "Counting":
                return unit
            ops = tuple(
                ir.replace(op, body=(ir.CallStmt(None, "Missing", ()),))
                if op.name == "Counting" else op
                for op in unit.operations
            )
            return ir.replace(unit, operations=ops)

        units = [broken(u) for u in kb_by_level[ir.Level.E3]]
        outcome = tasks.run_task(tasks.build_task("T1", 0), units, ir.Level.E3)
        assert outcome.kind == "Failed"
        assert outcome.reason == "Counting has no member 'Missing'"

    def test_a_reversed_numeral_order_picks_the_smaller_figure(self, kb_by_level):
        def reversed_order(unit):
            if unit.name != "OrdinalNumber":
                return unit
            attrs = tuple(
                ir.replace(a, const=a.const[::-1])
                if a.name == "numlist" else a
                for a in unit.attributes
            )
            return ir.replace(unit, attributes=attrs)

        units = [reversed_order(u) for u in kb_by_level[ir.Level.E3]]
        outcome, trace = tasks.run(tasks.build_task("T6", 0), units)
        assert outcome == tasks.Outcome.failed("picked the smaller figure")
        assert trace == ()

    def test_without_a_numeral_order_t6_fetches_a_set_value(self, kb_by_level, monkeypatch):
        # With no OrdinalNumber to answer directly, T6 fetches through the
        # E3 FetchObjects(Set, int), whose first argument is a Set unit
        # value; the fetch then fails inside Counting.
        built = []
        real = itp.build_unit_value

        def spy(kb, cls_name, world, container):
            built.append((cls_name, container))
            return real(kb, cls_name, world, container)

        monkeypatch.setattr(itp, "build_unit_value", spy)
        units = [u for u in kb_by_level[ir.Level.E3] if u.name != "OrdinalNumber"]
        for seed in range(3):
            outcome, trace = tasks.run(tasks.build_task("T6", seed), units)
            assert outcome == tasks.Outcome.failed("operation 'GetNext' needs a unit receiver")
        assert built == [("Set", "group_a")] * 3

    @pytest.mark.parametrize("level", ir.LEVELS, ids=lambda lv: lv.name)
    @pytest.mark.parametrize("task_id", tasks.TASK_IDS)
    def test_level_filter_is_the_matrix_slice(self, canonical_kb, kb_by_level, task_id, level):
        for seed in range(3):
            task = tasks.build_task(task_id, seed)
            via_filter = tasks.run(task, list(canonical_kb), level)
            assert via_filter == tasks.run(task, kb_by_level[level])

    def test_unfiltered_run_uses_everything(self, canonical_kb):
        outcome = tasks.run_task(tasks.build_task("T8", 0), list(canonical_kb))
        assert outcome.kind == "Solved"

    def test_outcomes_are_reproducible(self, kb_by_level):
        for task_id in tasks.TASK_IDS:
            task = tasks.build_task(task_id, 1)
            first = tasks.run_task(task, kb_by_level[ir.Level.E2], ir.Level.E2)
            second = tasks.run_task(task, kb_by_level[ir.Level.E2], ir.Level.E2)
            assert first == second


def _one_member_short(units):
    """(label, knowledge base) for each unit of units with one attribute
    or operation removed, where the shorter unit still validates."""
    for i, unit in enumerate(units):
        for field in ("attributes", "operations"):
            members = getattr(unit, field)
            for k, member in enumerate(members):
                mutant = ir.replace(unit, **{field: members[:k] + members[k + 1:]})
                if not ir.validate(mutant):
                    label = f"{unit.name} without {member.name}"
                    yield label, [*units[:i], mutant, *units[i + 1:]]


def test_judging_stays_total_on_a_unit_missing_one_member(canonical_kb):
    """Every task at every level gives an Outcome, at seed 0, on each
    canonical knowledge base with one member removed that validates."""
    runs = []
    for label, units in _one_member_short(list(canonical_kb)):
        for task_id in tasks.TASK_IDS:
            for level in ir.LEVELS:
                outcome, _ = tasks.run(tasks.build_task(task_id, 0), units, level)
                assert outcome.kind in ("Solved", "Failed", "Inaccessible"), label
                runs.append((label, task_id, level))
    assert len(runs) == 1656


def _named_types(units):
    """Every type units name, the units themselves included."""
    found = {u.name for u in units}
    for unit in units:
        found.update(a.type_ref for a in unit.attributes)
        for op in unit.operations:
            found.update(p.type_ref for p in op.params)
            if op.returns is not None:
                found.add(op.returns)
    return sorted(found)


def _without(body, j):
    """(body without the statement ir.walk yields j-th, j less the
    statements walked); a negative j means the statement is gone."""
    out = []
    for stmt in body:
        j -= 1
        if j == -1:
            continue
        kind = stmt.__class__
        if j >= 0 and (kind is ir.WhileStmt or kind is ir.BlockStmt):
            inner, j = _without(stmt.body, j)
            stmt = ir.replace(stmt, body=inner)
        elif j >= 0 and kind is ir.IfStmt:
            then, j = _without(stmt.then, j)
            orelse, j = _without(stmt.orelse, j)
            stmt = ir.replace(stmt, then=then, orelse=orelse)
        out.append(stmt)
    return tuple(out), j


@st.composite
def _mutated(draw, units):
    """(label, units) with one unit changed in one way: a member's type
    (an attribute's, or what an operation returns), a member's
    visibility, or one statement of an operation deleted."""
    i = draw(st.integers(0, len(units) - 1))
    unit = units[i]
    members = (*unit.attributes, *unit.operations)
    bodies = [op for op in unit.operations if op.body]
    how = draw(st.sampled_from(("type", "visibility", "statement")))
    if how == "statement":
        assume(bodies)
        op = draw(st.sampled_from(bodies))
        j = draw(st.integers(0, sum(1 for _ in ir.walk(op.body)) - 1))
        new = ir.replace(op, body=_without(op.body, j)[0])
        label = f"{unit.name}.{op.name} without statement {j}"
    else:
        member = draw(st.sampled_from(members))
        if how == "type":
            field = "type_ref" if isinstance(member, ir.Attribute) else "returns"
            value = draw(st.sampled_from(_named_types(units)))
        else:
            field, value = "visibility", draw(st.sampled_from(tuple(ir.Visibility)))
        assume(getattr(member, field) != value)
        new = ir.replace(member, **{field: value})
        label = f"{unit.name}.{member.name} with {field} {value}"
    group = "attributes" if isinstance(new, ir.Attribute) else "operations"
    changed = tuple(new if m.name == new.name else m for m in getattr(unit, group))
    mutant = ir.replace(unit, **{group: changed})
    assume(not ir.validate(mutant))
    return label, [*units[:i], mutant, *units[i + 1:]]


# Each example judges 36 cells, so tier-1 draws a fifth of the loaded
# profile's budget: 20 by default, 200 under CI's "ci" profile.
@seed(5)
@settings(
    max_examples=settings.default.max_examples // 5,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(data=st.data())
def test_judging_stays_total_on_a_mutated_unit(canonical_kb, data):
    """Every task at every level gives an Outcome, at seed 0, on the
    canonical knowledge base with one unit changed in one way that
    still validates."""
    label, units = data.draw(_mutated(list(canonical_kb)), label="mutant")
    for task_id in tasks.TASK_IDS:
        for level in ir.LEVELS:
            outcome, _ = tasks.run(tasks.build_task(task_id, 0), units, level)
            assert outcome.kind in ("Solved", "Failed", "Inaccessible"), label
