"""End-to-end acceptance battery.

Each test covers one numbered criterion and prints a PASS marker so a
teed log shows the tally at a glance.
"""

import random
import time

from rrlang import (
    capability as cap,
    cli,
    dsl,
    interpreter as itp,
    ir,
    kb as kbmod,
    redescription as rd,
    tasks,
)

Level = ir.Level


def apples_world(n, seed=0, arrangement="Line"):
    entities = {
        "ME": ("Person", None),
        "HAND": ("Hand", None),
        "ROOM1": ("Room", None),
        "TABLE1": ("Table", None),
    }
    ids = tuple(f"APPLE{i}" for i in range(1, n + 1))
    for eid in ids:
        entities[eid] = ("Apple", "apples")
    return itp.World(entities, {"apples": arrangement}, {"apples": ids}, seed)


def kinded_world(kind, group, n, seed=0):
    entities = {"ME": ("Person", None), "HAND": ("Hand", None)}
    ids = tuple(f"{kind.upper()}{i}" for i in range(1, n + 1))
    for eid in ids:
        entities[eid] = (kind, group)
    return itp.World(entities, {group: "Scattered"}, {group: ids}, seed)


def demonstration_trace(n):
    """A teacher counting n apples aloud, restating the total."""
    events = []
    seq = 0
    for i, numeral in enumerate(ir.NUMERALS[:n], start=1):
        for verb, arg in (("Moved", None), ("PointedTo", f"APPLE{i}"), ("Said", numeral)):
            seq += 1
            events.append(itp.TraceEvent(seq, verb, arg))
    events.append(itp.TraceEvent(seq + 1, "Said", ir.NUMERALS[n - 1]))
    return tuple(events)


def episode_pool():
    """The recorded 3-apple fixture plus a freshly recorded 4-apple run."""
    kb = kbmod.KnowledgeBase()
    kb.add_unit(dsl.load_fixture("counting_apples_i")[0])
    kb.record_instance(demonstration_trace(4), apples_world(4), "apples")
    return kb


def test_1_fixture_fidelity():
    started = time.perf_counter()
    for name in dsl.FIXTURE_NAMES:
        source = dsl.fixture_source(name)
        units = dsl.parse(source)  # parsing validates level discipline
        for unit in units:
            assert ir.validate(unit) == [], name
        assert dsl.print_canonical(units).text == source.text, name
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"round-trip took {elapsed:.2f}s"
    print("[criterion 1] PASS")


def test_2_induced_class_reproduces_and_generalizes():
    started = time.perf_counter()
    kb = episode_pool()
    instances = list(kb.units_at(Level.I))
    induced, _ = rd.antiunify_instances(instances)

    assert induced.level is Level.E1
    assert ir.validate(induced) == []

    # The class must replay each training episode's visible behavior.
    for instance, n in zip(instances, (3, 4)):
        world = apples_world(n)
        recorded = itp.replay_instance(instances, instance, world).trace
        produced = itp.execute(
            [induced], induced, "Counting", [], world, caller_domain="apples"
        ).trace
        rec_said = [e.arg for e in recorded if e.verb == "Said"]
        assert rec_said[-1] == rec_said[-2]  # episodes restate the total
        assert [e.arg for e in produced if e.verb == "Said"] == rec_said[:-1]
        assert [e.arg for e in produced if e.verb == "PointedTo"] == [
            e.arg for e in recorded if e.verb == "PointedTo"
        ]

    correct = 0
    for n in range(1, 21):
        for seed in (0, 1, 2):
            res = itp.execute(
                [induced], induced, "Counting", [], apples_world(n, seed),
                caller_domain="apples",
            )
            report = tasks.check_principles(res.trace, apples_world(n, seed))
            if res.value == itp.IntVal(n) and report.one_to_one and report.cardinality:
                correct += 1
    assert correct == 60, f"{correct}/60"

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"generalization took {elapsed:.2f}s"
    print("[criterion 2] PASS")


def test_3_later_phases_match_reference_structures():
    kb = episode_pool()
    induced, _ = rd.antiunify_instances(list(kb.units_at(Level.I)))
    (e2, shared), _ = rd.generalize_to_e2(induced)
    e3_units, _ = rd.decompose_to_e3(e2, shared)

    want_e2 = dsl.load_fixture("counting_e2")[0]
    want_shared = dsl.load_fixture("globals")[0]
    want_e3 = dsl.load_fixture("counting_e3")

    pairs = list(zip((e2, shared, *e3_units), (want_e2, want_shared, *want_e3)))
    for got, want in pairs:
        assert got.name == want.name
        assert len(got.attributes) == len(want.attributes)
        assert len(got.operations) == len(want.operations)
        assert [a.visibility for a in got.attributes] == [
            a.visibility for a in want.attributes
        ]
        assert [o.visibility for o in got.operations] == [
            o.visibility for o in want.operations
        ]

    # Stronger than an empty structural diff: identical listings.
    assert dsl.print_canonical([e2]).text == dsl.fixture_source("counting_e2").text
    assert dsl.print_canonical([shared]).text == dsl.fixture_source("globals").text
    assert dsl.print_canonical(list(e3_units)).text == dsl.fixture_source("counting_e3").text
    print("[criterion 3] PASS")


def test_4_capability_matrix_is_golden(capsys, kb_by_level):
    assert cli.main(["matrix", "--diff"]) == 0
    capsys.readouterr()

    matrix = cap.build_matrix(kb_by_level)
    assert cap.compare_expected(matrix) == []

    flips = {"Solved": "Failed", "Failed": "Solved", "Inaccessible": "Solved"}
    for key, outcome in matrix.cells.items():
        cells = dict(matrix.cells)
        cells[key] = tasks.Outcome(flips[outcome.kind], "flip")
        flipped = ir.replace(matrix, cells=cells)
        assert cap.compare_expected(flipped), f"flip at {key} went unnoticed"
    print("[criterion 4] PASS")


def test_5_counting_principles_hold(kb_by_level):
    e1 = next(u for u in kb_by_level[Level.E1] if u.name == "CountingApples")
    slices = {lv: list(kb_by_level[lv]) for lv in (Level.E1, Level.E2, Level.E3)}
    counting = {
        lv: next(u for u in slices[lv] if u.name.startswith("Counting"))
        for lv in slices
    }

    rng = random.Random(5)
    runs = []
    for _ in range(100):
        level = rng.choice((Level.E1, Level.E2, Level.E3))
        n = rng.randrange(1, 21)
        seed = rng.randrange(1000)
        if level is Level.E1:
            world, caller = apples_world(n, seed), "apples"
        else:
            kind, group = rng.choice((("Apple", "apples"), ("Pencil", "pencils"), ("Cup", "cups")))
            world, caller = kinded_world(kind, group, n, seed), group
        res = itp.execute(
            slices[level], counting[level], "Counting", [], world, caller_domain=caller
        )
        assert res.value == itp.IntVal(n)
        runs.append((res.trace, world))
    reports = [tasks.check_principles(trace, world) for trace, world in runs]
    assert all(r.one_to_one and r.stable_order and r.cardinality for r in reports)
    assert len(runs) == 100

    # Order irrelevance: permuted selection seeds must not change the verdict.
    orders = set()
    permuted = []
    for seed in range(6):
        world = apples_world(8, seed)
        res = itp.execute([e1], e1, "Counting", [], world, caller_domain="apples")
        assert res.value == itp.IntVal(8)
        orders.add(tuple(e.arg for e in res.trace if e.verb == "PointedTo"))
        permuted.append((res.trace, world))
    assert len(orders) > 1, "seeds never permuted the selection order"
    reports = [tasks.check_principles(trace, world) for trace, world in permuted]
    assert all(r.one_to_one and r.cardinality for r in reports)

    # Object irrelevance: apples versus non-apples from E2 up.
    for level in (Level.E2, Level.E3):
        for seed in (0, 1):
            apples = tasks.run_task(tasks.build_task("T3", seed), slices[level], level)
            others = tasks.run_task(tasks.build_task("T4", seed), slices[level], level)
            assert apples.kind == "Solved"
            assert others.kind == "Solved"
    print("[criterion 5] PASS")


def test_6_conservation_splits_e2_from_e3(kb_by_level):
    for seed in (0, 1, 2):
        task = tasks.build_task("T8", seed)
        outcome, trace = tasks.run(task, kb_by_level[Level.E3], Level.E3)
        assert outcome.kind == "Solved", outcome
        moved = [e.seq for e in trace if e.verb == "Moved"]
        assert moved
        after = [e for e in trace if e.verb == "PointedTo" and e.seq > moved[-1]]
        assert after == []

        at_e2 = tasks.run_task(task, kb_by_level[Level.E2], Level.E2)
        assert at_e2.kind != "Solved"
    print("[criterion 6] PASS")


def test_7_visibility_is_enforced(canonical_kb):
    foreign = {"apples": "pencils", "numbers": "pears", "pencils": "apples"}
    static_pool = []
    for unit in canonical_kb:
        caller_domain = foreign.get(unit.domain, "pencils")
        for member in (*unit.attributes, *unit.operations):
            static_pool.append((unit, member, caller_domain))

    runtime_cases = [
        # (target name, level, op, caller domain, world, public?)
        ("CountingApples", Level.I, "Replay", "pencils", apples_world(3), False),
        ("CountingApples", Level.E1, "Counting", "pencils", apples_world(3), False),
        ("CountingApples", Level.E1, "Counting", "tasks", apples_world(3), False),
        ("Counting", Level.E2, "Counting", "pencils", kinded_world("Pencil", "pencils", 2), True),
        ("Counting", Level.E3, "Counting", "cups", kinded_world("Cup", "cups", 3), True),
        ("OrdinalNumber", Level.E3, "GetCurrent", "pears", kinded_world("Cup", "cups", 1), True),
    ]

    rng = random.Random(7)
    cases = rng.sample(static_pool, 50 - len(runtime_cases)) + runtime_cases
    assert len(cases) == 50

    units = list(canonical_kb)
    nonpublic_total = nonpublic_denied = 0
    public_violations = 0
    for case in cases:
        if len(case) == 3:
            unit, member, caller_domain = case
            access = ir.check_access(caller_domain, f"<{caller_domain}>", unit, member.name)
            if member.visibility is ir.Visibility.PUBLIC:
                if not access:
                    public_violations += 1
            else:
                nonpublic_total += 1
                if not access:
                    nonpublic_denied += 1
        else:
            name, level, op, caller_domain, world, is_public = case
            target = canonical_kb.unit(name, level)
            raised = False
            try:
                itp.execute(units, target, op, [], world, caller_domain=caller_domain)
            except itp.AccessViolation:
                raised = True
            if is_public:
                if raised:
                    public_violations += 1
            else:
                nonpublic_total += 1
                if raised:
                    nonpublic_denied += 1

    assert nonpublic_denied == nonpublic_total, "a guarded member leaked"
    assert public_violations == 0, "a public member was blocked"
    print("[criterion 7] PASS")


def test_8_redescription_retains_and_publicizes():
    kb = episode_pool()
    before = {level: len(kb.units_at(level)) for level in Level}

    for _ in range(3):
        for unit_name in ("CountingApples", "Counting"):
            for task_id in ("T1", "T2", "T3"):
                kb.record_outcome(unit_name, task_id, "Solved")
        kb.advance()

    after = {level: len(kb.units_at(level)) for level in Level}
    for level in Level:
        assert after[level] >= before[level]
    assert after[Level.E3] >= 3

    instances = list(kb.units_at(Level.I))
    assert len(instances) == before[Level.I]
    replayed = itp.replay_instance(instances, instances[0], apples_world(3))
    assert [e.arg for e in replayed.trace if e.verb == "Said"] == [
        "ONE", "TWO", "THREE", "THREE",
    ]

    fractions = []
    for level in Level:
        members = [m for u in kb.units_at(level) for m in (*u.attributes, *u.operations)]
        public = sum(m.visibility is ir.Visibility.PUBLIC for m in members)
        fractions.append(public / len(members))
    assert fractions == sorted(fractions), fractions
    assert fractions[0] == 0.0
    assert fractions[-1] == 1.0
    print("[criterion 8] PASS")


def test_9_harness_runs_are_byte_identical(capsys):
    outputs = []
    for _ in range(2):
        assert cli.main(["matrix", "--output", "tsv"]) == 0
        matrix_text = capsys.readouterr().out
        assert cli.main(["trace", "--task", "T3", "--level", "E2", "--seed", "5"]) == 0
        trace_a = capsys.readouterr().out
        assert cli.main(["trace", "--task", "T9", "--level", "E3", "--seed", "1"]) == 0
        trace_b = capsys.readouterr().out
        outputs.append(matrix_text + trace_a + trace_b)
    assert outputs[0] == outputs[1]
    assert "\t" in outputs[0]
    print("[criterion 9] PASS")
