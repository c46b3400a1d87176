"""Capability matrix derivation, rendering, and concept verbalization."""

import pytest

from rrlang import capability as cap, dsl, ir, tasks


@pytest.fixture(scope="module")
def matrix(kb_by_level):
    return cap.build_matrix(kb_by_level)


class TestBuildMatrix:
    def test_covers_every_level_and_task(self, matrix):
        assert len(matrix.cells) == len(ir.LEVELS) * len(tasks.TASK_IDS)

    def test_matches_the_frozen_expectation(self, matrix):
        assert cap.compare_expected(matrix) == []

    def test_cells_carry_reasons_when_not_solved(self, matrix):
        for (level, task_id), outcome in matrix.cells.items():
            if outcome.kind != "Solved":
                assert outcome.reason, (level, task_id)

    def test_solved_set_grows_with_level(self, matrix):
        by_rank = sorted(ir.LEVELS, key=lambda lv: lv.rank)
        for lo, hi in zip(by_rank, by_rank[1:]):
            solved_lo = {
                t for t in tasks.TASK_IDS if matrix.cells[(lo, t)].kind == "Solved"
            }
            solved_hi = {
                t for t in tasks.TASK_IDS if matrix.cells[(hi, t)].kind == "Solved"
            }
            assert solved_lo <= solved_hi

    def test_everything_is_solved_at_e3(self, matrix):
        for task_id in tasks.TASK_IDS:
            assert matrix.cells[(ir.Level.E3, task_id)].kind == "Solved"

    def test_seed_order_is_irrelevant(self, kb_by_level):
        shuffled = cap.build_matrix(kb_by_level, seeds=(2, 0, 1, 1))
        reference = cap.build_matrix(kb_by_level, seeds=(0, 1, 2))
        assert shuffled.cells == reference.cells
        assert shuffled.seeds_used == (0, 1, 2)

    def test_missing_level_is_an_error(self, kb_by_level):
        partial = {k: v for k, v in kb_by_level.items() if k is not ir.Level.E3}
        with pytest.raises(cap.MissingLevel):
            cap.build_matrix(partial)

    def test_empty_level_is_an_error(self, kb_by_level):
        hollow = dict(kb_by_level)
        hollow[ir.Level.E1] = ()
        with pytest.raises(cap.MissingLevel):
            cap.build_matrix(hollow)


class TestCompareExpected:
    def test_weakened_kb_shows_up_as_diffs(self, kb_by_level):
        crippled = dict(kb_by_level)
        crippled[ir.Level.E3] = tuple(
            u for u in kb_by_level[ir.Level.E3] if u.name != "Set"
        )
        diffs = cap.compare_expected(cap.build_matrix(crippled))
        assert diffs
        assert all("expected" in d for d in diffs)
        assert any(d.startswith("E3") for d in diffs)

    def test_missing_cell_is_reported(self, matrix):
        cells = dict(matrix.cells)
        del cells[(ir.Level.I, "T1")]
        gappy = ir.replace(matrix, cells=cells)
        diffs = cap.compare_expected(gappy)
        assert any("missing cell" in d for d in diffs)

    def test_golden_table_is_internally_monotone(self):
        order = ("I", "E1", "E2", "E3")
        for task_id in tasks.TASK_IDS:
            kinds = [cap.GOLDEN[(level, task_id)] for level in order]
            first_solved = kinds.index("Solved") if "Solved" in kinds else len(kinds)
            assert all(k == "Solved" for k in kinds[first_solved:])


class TestRendering:
    def test_tsv_shape(self, matrix):
        text = cap.render_tsv(matrix)
        lines = text.splitlines()
        assert text.endswith("\n")
        assert len(lines) == 36
        assert all(len(line.split("\t")) == 3 for line in lines)
        assert lines[0].startswith("I\tT1\t")

    def test_tsv_is_stable_across_builds(self, kb_by_level):
        a = cap.render_tsv(cap.build_matrix(kb_by_level))
        b = cap.render_tsv(cap.build_matrix(kb_by_level))
        assert a == b

    def test_text_table_lists_all_tasks(self, matrix):
        text = cap.render_text(matrix)
        header = text.splitlines()[0]
        for task_id in tasks.TASK_IDS:
            assert task_id in header
        for level in ir.LEVELS:
            assert any(line.startswith(level.name) for line in text.splitlines())

    def test_text_table_has_no_trailing_blanks(self, matrix):
        for line in cap.render_text(matrix).splitlines():
            assert line == line.rstrip()


class TestVerbalize:
    def test_ordinal_number_tells_its_sequence(self, e3_units):
        text = cap.verbalize(e3_units["OrdinalNumber"])
        assert "OrdinalNumber is a fully public concept of the numbers domain." in text
        assert "ONE through TWENTY" in text
        assert "GetNext(), returning Sound." in text

    def test_set_spells_out_its_indifference(self, e3_units):
        text = cap.verbalize(e3_units["Set"])
        assert "cardinal sum" in text
        assert "does not care about" in text
        assert "does not change when only the arrangement changes" in text

    def test_counting_lists_signatures(self, e3_units):
        text = cap.verbalize(e3_units["Counting"])
        assert "OneToOneMap(Set set1, Set set2), returning int." in text

    def test_lower_levels_cannot_be_told(self):
        e1 = dsl.load_fixture("counting_apples_e1")[0]
        with pytest.raises(cap.NotE3) as exc:
            cap.verbalize(e1)
        assert "E1" in str(exc.value)

    def test_shared_data_cannot_be_told(self, globals_unit):
        with pytest.raises(cap.NotE3):
            cap.verbalize(globals_unit)

    def test_every_sentence_ends_with_a_period(self, e3_units):
        for unit in e3_units.values():
            for line in cap.verbalize(unit).splitlines():
                assert line.endswith(".")
