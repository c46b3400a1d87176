"""Command line surface: exit codes, output shapes, kb plumbing."""

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from rrlang import cli, dsl, interpreter as itp, ir, kb as kbmod


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cleanup_trace(out):
    for line in out.splitlines():
        if line.startswith("trace: "):
            path = line.split(" ", 1)[1]
            if os.path.exists(path):
                os.unlink(path)


@pytest.fixture()
def kb_dir(tmp_path):
    return str(kbmod.KnowledgeBase.canonical().save(tmp_path / "kb"))


def episode_kb(tmp_path, sizes, solved=("T1", "T2", "T3")):
    """A saved knowledge base of apple counting episodes, one per size,
    with the solved tasks logged on the first episode."""
    kb = kbmod.KnowledgeBase()
    for size in sizes:
        ids = tuple(f"APPLE{i}" for i in range(1, size + 1))
        entities = {"ME": ("Person", None), "HAND": ("Hand", None)}
        entities.update((eid, ("Apple", "apples")) for eid in ids)
        world = itp.World(entities, {"apples": "Line"}, {"apples": ids}, 0)
        events = []
        for eid, numeral in zip(ids, ir.NUMERALS):
            events += [("Moved", None), ("PointedTo", eid), ("Said", numeral)]
        trace = tuple(itp.TraceEvent(i, v, a) for i, (v, a) in enumerate(events, 1))
        kb.record_instance(trace, world, "apples")
    for task_id in solved:
        kb.record_outcome("Counting_apples_1", task_id, "Solved")
    return str(kb.save(tmp_path / "episodes"))


class TestParse:
    def test_fixture_listing_echoes_canonically(self, capsys):
        path = str(dsl.fixtures_dir() / "counting_e2.rr")
        code, out, err = run_cli(capsys, "parse", path)
        assert code == 0
        assert out == dsl.fixture_source("counting_e2").text
        assert err == ""

    def test_broken_listing_reports_position(self, capsys, tmp_path):
        bad = tmp_path / "bad.rr"
        bad.write_text("@level(E1)\n@domain(x)\nclass {\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "parse", str(bad))
        assert code == 1
        assert re.search(r"bad\.rr:\d+:\d+:", err)

    def test_missing_file_is_io_trouble(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "parse", str(tmp_path / "ghost.rr"))
        assert code == 3
        assert err


class TestMatrix:
    def test_diff_against_golden_is_clean(self, capsys):
        code, out, _ = run_cli(capsys, "matrix", "--diff")
        assert code == 0
        assert out.strip() == "matrix matches golden (36 cells)"

    def test_tsv_output_has_36_rows(self, capsys):
        code, out, _ = run_cli(capsys, "matrix", "--output", "tsv")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 36
        assert all(len(line.split("\t")) == 3 for line in lines)

    def test_text_output_is_a_table(self, capsys):
        code, out, _ = run_cli(capsys, "matrix")
        assert code == 0
        assert "T9" in out.splitlines()[0]

    def test_two_runs_are_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, "matrix", "--output", "tsv")
        _, second, _ = run_cli(capsys, "matrix", "--output", "tsv")
        assert first == second

    def test_respects_rr_kb_env(self, capsys, monkeypatch, kb_dir):
        monkeypatch.setenv("RR_KB", kb_dir)
        code, out, _ = run_cli(capsys, "matrix", "--diff")
        assert code == 0
        assert "matches golden" in out

    def test_incomplete_kb_cannot_fill_the_matrix(self, capsys, tmp_path):
        kb = kbmod.KnowledgeBase()
        kb.add_unit(dsl.load_fixture("counting_apples_i")[0])
        root = kb.save(tmp_path / "kb")
        code, _, err = run_cli(capsys, "matrix", "--kb", str(root))
        assert code == 1
        assert err

    def test_missing_kb_directory_is_io_trouble(self, capsys, tmp_path):
        missing = tmp_path / "no-such-kb"
        code, _, err = run_cli(capsys, "matrix", "--kb", str(missing))
        assert code == 3
        assert err.strip() == f"no knowledge base at {missing}"

    def test_diff_lists_the_cells_that_drift(self, capsys, tmp_path):
        kb = kbmod.KnowledgeBase()
        for unit in kbmod.KnowledgeBase.canonical():
            if unit.name != "OrdinalNumber":
                kb.add_unit(unit)
        root = kb.save(tmp_path / "kb")
        code, out, err = run_cli(capsys, "matrix", "--diff", "--kb", str(root))
        assert code == 1
        assert out == ""
        assert "E3 T1: got Failed, expected Solved" in err.splitlines()


class TestRun:
    def test_solved_task_reports_and_saves_a_trace(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--task", "T1", "--level", "E2")
        assert code == 0
        assert out.splitlines()[0] == "T1 at E2 (seed 0): Solved"
        trace_line = out.splitlines()[1]
        assert trace_line.startswith("trace: ")
        path = trace_line.split(" ", 1)[1]
        assert os.path.isfile(path)
        with open(path, encoding="utf-8") as fh:
            assert fh.read().count("\n") > 0
        cleanup_trace(out)

    def test_failed_task_still_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--task", "T2", "--level", "I")
        assert code == 0
        first = out.splitlines()[0]
        assert first.startswith("T2 at I (seed 0): Failed (")
        assert "not arranged in a line" in first
        cleanup_trace(out)

    def test_seed_is_echoed(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--task", "T3", "--level", "E3", "--seed", "4")
        assert code == 0
        assert out.splitlines()[0].startswith("T3 at E3 (seed 4):")
        cleanup_trace(out)

    def test_unwritable_trace_is_io_trouble(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
        code, out, err = run_cli(capsys, "run", "--task", "T1", "--level", "E2")
        assert code == 3
        assert out == "T1 at E2 (seed 0): Solved\n"
        assert err.startswith("cannot write trace: ")

    def test_unknown_task_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "run", "--task", "T99", "--level", "I")
        assert code == 2
        assert err


class TestTrace:
    def test_emits_tab_separated_events(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--task", "T1", "--level", "E3")
        assert code == 0
        lines = out.splitlines()
        assert lines
        assert all(len(line.split("\t")) == 3 for line in lines)
        assert lines[0].split("\t")[0] == "1"

    def test_same_seed_same_bytes(self, capsys):
        _, first, _ = run_cli(capsys, "trace", "--task", "T3", "--level", "E2", "--seed", "7")
        _, second, _ = run_cli(capsys, "trace", "--task", "T3", "--level", "E2", "--seed", "7")
        assert first == second


class TestVerbalize:
    def test_e3_concept_is_told_in_sentences(self, capsys):
        code, out, _ = run_cli(capsys, "verbalize", "Set")
        assert code == 0
        assert out.startswith("Set is a fully public concept")

    def test_lower_level_concepts_cannot_be_told(self, capsys):
        code, _, err = run_cli(capsys, "verbalize", "CountingApples")
        assert code == 1
        assert "only E3 can be told" in err

    def test_unknown_unit(self, capsys):
        code, _, err = run_cli(capsys, "verbalize", "Nonsense")
        assert code == 1
        assert "no unit named 'Nonsense'" in err


class TestRedescribe:
    def test_auto_with_nothing_to_do(self, capsys):
        code, out, _ = run_cli(capsys, "redescribe", "--auto")
        assert code == 0
        assert "nothing to redescribe" in out

    def test_phase_one_needs_episodes(self, capsys):
        code, _, err = run_cli(capsys, "redescribe", "--phase", "1")
        assert code == 1
        assert "record more episodes" in err

    def test_phase_two_prints_report_and_units(self, capsys):
        code, out, _ = run_cli(capsys, "redescribe", "--phase", "2")
        assert code == 0
        assert out.startswith("phase\t2")
        assert "class Counting {" in out
        assert "const intList numlist" in out

    def test_phase_three_prints_three_units(self, capsys):
        code, out, _ = run_cli(capsys, "redescribe", "--phase", "3")
        assert code == 0
        assert out.startswith("phase\t3")
        for name in ("OrdinalNumber", "Set", "Counting"):
            assert f"class {name} {{" in out

    def test_out_directory_receives_the_new_units(self, capsys, tmp_path, kb_dir):
        out_dir = tmp_path / "next"
        code, out, _ = run_cli(
            capsys, "redescribe", "--phase", "3", "--kb", kb_dir, "--out", str(out_dir)
        )
        assert code == 0
        loaded = kbmod.KnowledgeBase.load(out_dir)
        assert loaded.unit("Set") is not None

    def test_auto_fires_and_prints_its_report(self, capsys, tmp_path):
        kb_dir = episode_kb(tmp_path, (3, 4))
        code, out, _ = run_cli(capsys, "redescribe", "--auto", "--kb", kb_dir)
        assert code == 0
        assert out.splitlines() == [
            "phase\t1",
            "input\tCounting_apples_1",
            "input\tCounting_apples_2",
            "output\tCountingApples",
            "rule\tloop_roll\tperiod=3 counts=3/4",
            "rule\tbind_agent\tME -> p",
            "rule\tbind_items\tApple -> APP_Set app_set",
            "rule\tbind_numerals\tSound succession -> numlist.Next()",
            "dropped\tInLine(APPLE1, APPLE2, APPLE3)",
        ]

    def test_auto_accepts_a_lower_threshold(self, capsys, tmp_path):
        kb_dir = episode_kb(tmp_path, (3, 4), solved=("T1", "T2"))
        _, out, _ = run_cli(capsys, "redescribe", "--auto", "--kb", kb_dir)
        assert "nothing to redescribe" in out
        code, out, _ = run_cli(capsys, "redescribe", "--auto", "--threshold", "2", "--kb", kb_dir)
        assert code == 0
        assert "output\tCountingApples" in out.splitlines()

    def test_auto_with_only_a_refusal_has_nothing_to_redescribe(self, capsys, tmp_path):
        kb_dir = episode_kb(tmp_path, (1, 3))
        code, out, _ = run_cli(capsys, "redescribe", "--auto", "--kb", kb_dir)
        assert code == 0
        lines = out.splitlines()
        assert "dropped\tNoCommonSkeleton: Counting_apples_1: script is not one repeated routine" in lines
        assert lines[-1].startswith("nothing to redescribe")

    def test_auto_refuses_an_undeclared_constant(self, capsys, tmp_path):
        kb = kbmod.KnowledgeBase.load(episode_kb(tmp_path, (3,)))
        text = dsl.print_canonical([kb.unit("Counting_apples_1")]).text
        text = text.replace("Counting_apples_1", "Counting_apples_2")
        kb.add_unit(dsl.parse(text.replace("ME.PointTo(APPLE2);", "ME.PointTo(GHOST);"))[0])
        kb_dir = str(kb.save(tmp_path / "ghost"))
        code, out, err = run_cli(capsys, "redescribe", "--auto", "--kb", kb_dir)
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "phase\t1",
            "input\tCounting_apples_1",
            "input\tCounting_apples_2",
            "dropped\tNoCommonSkeleton: Counting_apples_2: 'GHOST' is not a recorded constant",
            "nothing to redescribe: mastery not reached, chain complete or refused",
        ]

    def test_auto_refuses_an_e1_name_another_domain_took(self, capsys, tmp_path):
        # apples and Apples both name their E1 CountingApples; Apples
        # climbs first, apples is refused, and pencils climbs on.
        kb = kbmod.KnowledgeBase()
        for domain, kind in (("apples", "Apple"), ("Apples", "Apple"), ("pencils", "Pencil")):
            for size in (3, 4):
                ids = tuple(f"{kind.upper()}{i}" for i in range(1, size + 1))
                entities = {"ME": ("Person", None), "HAND": ("Hand", None)}
                entities.update((eid, (kind, domain)) for eid in ids)
                world = itp.World(entities, {domain: "Line"}, {domain: ids}, 0)
                events = []
                for eid, numeral in zip(ids, ir.NUMERALS):
                    events += [("Moved", None), ("PointedTo", eid), ("Said", numeral)]
                trace = tuple(itp.TraceEvent(i, v, a) for i, (v, a) in enumerate(events, 1))
                unit = kb.record_instance(trace, world, domain)
                for task_id in ("T1", "T2", "T3"):
                    kb.record_outcome(unit.name, task_id, "Solved")
        kb_dir = str(kb.save(tmp_path / "collide"))
        code, out, err = run_cli(capsys, "redescribe", "--auto", "--kb", kb_dir)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        refused = lines.index("input\tCounting_apples_1")
        assert lines[refused - 1:refused + 3] == [
            "phase\t1",
            "input\tCounting_apples_1",
            "input\tCounting_apples_2",
            "dropped\tDuplicateUnit: CountingApples at E1 already stored",
        ]
        assert lines[refused + 3:] == [
            "phase\t1",
            "input\tCounting_pencils_1",
            "input\tCounting_pencils_2",
            "output\tCountingPencils",
            "rule\tloop_roll\tperiod=3 counts=3/4",
            "rule\tbind_agent\tME -> p",
            "rule\tbind_items\tPencil -> objectSet object_set",
            "rule\tbind_numerals\tSound succession -> numlist.Next()",
            "dropped\tInLine(PENCIL1, PENCIL2, PENCIL3)",
        ]

    def test_phase_one_folds_the_episodes(self, capsys, tmp_path):
        kb_dir = episode_kb(tmp_path, (3, 4), solved=())
        code, out, _ = run_cli(capsys, "redescribe", "--phase", "1", "--kb", kb_dir)
        assert code == 0
        assert out.startswith("phase\t1\n")
        assert "\nclass CountingApples {\n" in out

    def test_out_directory_stores_a_unit_the_kb_lacked(self, capsys, tmp_path):
        kb_dir = episode_kb(tmp_path, (3, 4), solved=())
        out_dir = tmp_path / "next"
        code, _, _ = run_cli(
            capsys, "redescribe", "--phase", "1", "--kb", kb_dir, "--out", str(out_dir)
        )
        assert code == 0
        assert kbmod.KnowledgeBase.load(kb_dir).unit("CountingApples") is None
        loaded = kbmod.KnowledgeBase.load(out_dir)
        assert loaded.unit("CountingApples", ir.Level.E1) is not None
        assert len(loaded) == 3

    @pytest.mark.parametrize("phase, complaint", [
        ("2", "no E1 class to generalize"), ("3", "no E2 class to decompose"),
    ])
    def test_a_phase_without_its_input_class(self, capsys, tmp_path, phase, complaint):
        kb_dir = episode_kb(tmp_path, (3, 4), solved=())
        code, out, err = run_cli(capsys, "redescribe", "--phase", phase, "--kb", kb_dir)
        assert (code, out, err) == (1, "", complaint + "\n")

    def test_phase_and_auto_exclude_each_other(self, capsys):
        code, _, err = run_cli(capsys, "redescribe", "--phase", "1", "--auto")
        assert code == 2
        assert err


class TestUsage:
    def test_no_arguments(self, capsys):
        assert run_cli(capsys, )[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "meditate")[0] == 2

    def test_run_requires_a_task(self, capsys):
        assert run_cli(capsys, "run", "--level", "I")[0] == 2

    def test_run_has_no_step_limit_option(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--task", "T1", "--level", "I", "--step-limit", "0"
        )
        assert code == 2
        assert "unrecognized arguments: --step-limit 0" in err

    def test_threshold_below_one_is_usage(self, capsys):
        code, _, err = run_cli(capsys, "redescribe", "--auto", "--threshold", "0")
        assert code == 2
        assert "must be at least 1" in err


class TestClosedStdout:
    """A reader that goes away before rrlang writes is an I/O error,
    reported by the exit code alone, whether stdout is buffered or not."""

    @pytest.mark.parametrize("unbuffered", [True, False])
    @pytest.mark.parametrize(
        "argv",
        [("trace", "--task", "T1", "--level", "E1"), ("verbalize", "Counting")],
        ids=["trace", "verbalize"],
    )
    def test_exits_as_io_trouble_without_a_traceback(self, argv, unbuffered):
        src = Path(__file__).resolve().parent.parent / "src"
        env = {k: v for k, v in os.environ.items() if k not in ("PYTHONUNBUFFERED", "RR_KB")}
        env["PYTHONPATH"] = str(src)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "rrlang.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (3, b"")

    @pytest.mark.parametrize("buffering", [1, -1], ids=["line-buffered", "block-buffered"])
    def test_in_process_stdout_is_pointed_at_devnull(self, capsys, monkeypatch, buffering):
        """The same in this process, with sys.stdout on a pipe whose read
        end is closed: main returns the I/O exit code, writes nothing to
        stderr, and leaves the descriptor writing to devnull, so a later
        flush of the same stream succeeds."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        with os.fdopen(write_end, "w", buffering=buffering) as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            code = cli.main(["verbalize", "Counting"])
            monkeypatch.undo()
            stdout.write("read by nobody\n")
            stdout.flush()
        assert code == 3
        assert capsys.readouterr().err == ""
