"""Frozen slotted records (ir.record) behave as frozen dataclasses do."""

import copy
import cProfile
import dataclasses
import inspect
import os
import pickle
import pstats
import subprocess
import sys
from pathlib import Path

import pytest

from rrlang import capability, cli, dsl, interpreter as itp, ir, kb as kbmod, redescription, tasks

MODULES = (ir, itp, dsl, tasks, redescription, kbmod, cli, capability)
DEFINED = {
    obj
    for module in MODULES
    for obj in vars(module).values()
    if inspect.isclass(obj) and obj.__module__ == module.__name__
}
RECORDS = {cls for cls in DEFINED if hasattr(cls, "__match_args__")}
# The records whose fields have defaults; no other has one.
DEFAULTS = {
    ir.Attribute: {"const": None},
    ir.ConceptUnit: {"attributes": (), "operations": (), "friends": ()},
    ir.Diagnostic: {"member": None},
    ir.Operation: {"implicit": False},
    tasks.Outcome: {"reason": ""},
    redescription.PhaseReport: {"dropped": ()},
    dsl.SourceText: {"origin": "<memory>"},
    itp.TraceEvent: {"arg": None},
    itp.World: {"rng_seed": 0},
}

SAMPLES = [
    itp.IntVal(3),
    itp.BoolVal(True),
    itp.TokenVal("ONE"),
    itp.EntityVal("APPLE1"),
    itp.TraceEvent(1, "Said", "ONE"),
    itp.World({"ME": ("Person", None)}, {}, {}, 7),
    ir.NameExpr("x"),
    ir.BinExpr("+", ir.IntExpr(1), ir.NameExpr("x")),
    ir.SetupStmt("InLine", ("APPLE1", "APPLE2")),
    ir.ActionStmt("Say", ir.NameExpr("ME"), (ir.NameExpr("ONE"),)),
    ir.NullExpr(),
    ir.Diagnostic("rule", "message", "Unit"),
    tasks.Outcome("Failed", "why"),
    kbmod.LogEntry("Unit", "T1", "Solved", 1),
    ir.ConceptUnit(
        "Counting", ir.UnitKind.CLASS, ir.Level.E1, "apples",
        (ir.Attribute("p", "Person", ir.Visibility.PRIVATE),),
    ),
    ir.Operation(
        "Count", (ir.Param("n", "int"),), "int", ir.Visibility.PUBLIC,
        (ir.ReturnStmt(ir.NameExpr("n")),),
    ),
]


def _fields(record):
    return record.__match_args__


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
class TestFrozen:
    def test_fields_cannot_be_assigned_or_deleted(self, record):
        for name in (*_fields(record), "other"):
            with pytest.raises(ir.FrozenInstanceError):
                setattr(record, name, 1)
            with pytest.raises(ir.FrozenInstanceError):
                delattr(record, name)

    def test_no_instance_dict(self, record):
        assert not hasattr(record, "__dict__")

    def test_repr_matches_a_frozen_dataclass(self, record):
        cls = type(record)
        twin = dataclasses.make_dataclass(cls.__qualname__, _fields(record), frozen=True)
        values = [getattr(record, name) for name in _fields(record)]
        assert repr(record) == repr(twin(*values))

    @pytest.mark.parametrize(
        "duplicate",
        [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copy_and_pickle_rebuild_an_equal_record(self, record, duplicate):
        twin = duplicate(record)
        assert type(twin) is type(record)
        assert twin == record

    def test_equal_copies_hash_alike(self, record):
        copy = type(record)(*(getattr(record, name) for name in _fields(record)))
        assert copy == record and copy is not record
        if not isinstance(record, itp.World):  # its mappings are unhashable
            assert hash(copy) == hash(record)


class TestEquality:
    def test_type_is_part_of_identity(self):
        assert itp.IntVal(1) != itp.BoolVal(True)
        assert ir.NameExpr("x") != itp.TokenVal("x")
        assert ir.IntExpr(1) != itp.IntVal(1)
        assert len({itp.IntVal(1), itp.BoolVal(True), itp.IntVal(1)}) == 2

    def test_fields_are_compared(self):
        assert itp.TraceEvent(1, "Said", "ONE") != itp.TraceEvent(1, "Said", "TWO")
        assert ir.NullExpr() == ir.NullExpr()
        assert hash(ir.Param("n", "int")) == hash(ir.Param("n", "int"))

    def test_match_args(self):
        match ir.FieldExpr(ir.NameExpr("o"), "x"):
            case ir.FieldExpr(ir.NameExpr(name), field):
                assert (name, field) == ("o", "x")
            case _:
                pytest.fail("no match")


class TestConstruction:
    def test_keywords_and_defaults(self):
        assert ir.Diagnostic(rule="r", message="m", unit="U").member is None
        assert itp.TraceEvent(seq=2, verb="Moved").arg is None
        assert itp.World({}, {}, {}).rng_seed == 0
        assert ir.Param("n", type_ref="int") == ir.Param("n", "int")

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ir.Param("n"),  # missing
            lambda: ir.Param("n", "int", "extra"),  # extra positional
            lambda: ir.Param("n", "int", shape="?"),  # unknown keyword
            lambda: ir.Param("n", "int", name="m"),  # repeated
            lambda: ir.Diagnostic("r", "m"),
            lambda: itp.IntVal(),
            lambda: itp.IntVal(1, 2),
            lambda: itp.TraceEvent(1, "Said", seq=2),
            lambda: ir.NullExpr(1),
        ],
    )
    def test_bad_arguments_raise_type_error(self, build):
        with pytest.raises(TypeError):
            build()

    @pytest.mark.parametrize(
        "cls", sorted(RECORDS, key=lambda c: c.__qualname__), ids=lambda c: c.__qualname__
    )
    def test_the_signature_lists_the_fields_and_their_defaults(self, cls):
        params = inspect.signature(cls).parameters.values()
        assert tuple(p.name for p in params) == cls.__match_args__
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
        defaults = {p.name: p.default for p in params if p.default is not p.empty}
        assert defaults == DEFAULTS.get(cls, {})
        assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"

    def test_a_profile_counts_each_record_init_apart(self):
        # IntExpr and BoolExpr share _inits' one-field template
        profiler = cProfile.Profile()
        profiler.enable()
        ir.IntExpr(1)
        ir.BoolExpr(True)
        profiler.disable()
        inits = [name for _, _, name in pstats.Stats(profiler).stats if name.endswith("__init__")]
        assert sorted(inits) == ["BoolExpr.__init__", "IntExpr.__init__"]

    def test_the_hot_records_build_by_keyword_with_their_extra_slot_unset(self):
        name = ir.NameExpr(name="ME")
        setup = ir.SetupStmt(args=("APPLE1",), pred="On")
        action = ir.ActionStmt(verb="Say", recv=name, args=(ir.NameExpr("ONE"),))
        assert (name, setup, action) == (
            ir.NameExpr("ME"),
            ir.SetupStmt("On", ("APPLE1",)),
            ir.ActionStmt("Say", ir.NameExpr("ME"), (ir.NameExpr("ONE"),)),
        )
        for node, slot in ((name, "_shared"), (setup, "_compiled"), (action, "_compiled")):
            assert not hasattr(node, slot)
        assert itp.TraceEvent(arg="ONE", verb="Said", seq=1) == itp.TraceEvent(1, "Said", "ONE")
        assert (itp.IntVal(value=3), itp.BoolVal(value=True)) == (itp.IntVal(3), itp.BoolVal(True))
        assert (itp.TokenVal(token="ONE"), itp.EntityVal(entity="A")) == (
            itp.TokenVal("ONE"), itp.EntityVal("A"),
        )


class TestDecoration:
    def test_a_class_that_writes_its_own_init_is_refused(self):
        class Own:
            x: int

            def __init__(self, x):
                pass

        with pytest.raises(TypeError, match="may not write its own __init__"):
            ir.record(Own)

    def test_a_default_before_a_plain_field_is_refused(self):
        class Early:
            x: int = 0
            y: int

        with pytest.raises(TypeError, match="plain field after a defaulted one"):
            ir.record(Early)


class TestReplace:
    def test_changes_the_named_fields_only(self):
        attr = ir.Attribute("n", "int", ir.Visibility.PRIVATE)
        assert ir.replace(attr, type_ref="Boolean") == ir.Attribute(
            "n", "Boolean", ir.Visibility.PRIVATE
        )
        assert ir.replace(attr) == attr and ir.replace(attr) is not attr

    def test_unknown_field_is_a_type_error(self):
        with pytest.raises(TypeError, match="shape"):
            ir.replace(ir.Param("n", "int"), shape="?")

    def test_a_copy_does_not_carry_the_compiled_body(self):
        op = ir.Operation("Run", (), "int", ir.Visibility.PUBLIC, (ir.ReturnStmt(ir.IntExpr(1)),))
        unit = ir.ConceptUnit(
            "Probe", ir.UnitKind.CLASS, ir.Level.E3, "numbers", operations=(op,)
        )
        world = itp.World({"ME": ("Person", None)}, {}, {}, 0)
        for _ in range(2):
            assert itp.execute([unit], unit, "Run", [], world, "numbers").value == itp.IntVal(1)
        assert itp.compiled_body(op) is not None
        assert itp.compiled_body(ir.replace(op)) is None
        for duplicate in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
            assert itp.compiled_body(duplicate(op)) is None


def test_every_class_is_a_record():
    assert not any(dataclasses.is_dataclass(cls) for cls in DEFINED)
    assert len(RECORDS) == 39
    assert all("__dict__" not in vars(cls) for cls in RECORDS)


def test_importing_the_cli_leaves_dataclasses_out():
    src = Path(__file__).resolve().parent.parent / "src"
    probe = "import sys, rrlang.cli; print('dataclasses' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.strip() == "False"
