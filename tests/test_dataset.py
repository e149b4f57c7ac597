import pytest
from hypothesis import given
from hypothesis import strategies as st

from microexp.dataset import (DEFAULT_NONOBJECTIVE_TABLE, DEFAULT_OBJECTIVE_TABLE,
                              IndexFormatError, MappingTable, NonObjectiveClass,
                              ObjectiveClass, SampleRecord, coder_reliability, format_aus,
                              load_index, nonobjective_label, objective_label, parse_aus,
                              save_index)

HEADER = "subject,sample,onset,apex,offset,aus,objective,nonobjective"


def _write_index(tmp_path, rows):
    path = tmp_path / "index.csv"
    path.write_text("\n".join([HEADER] + rows) + "\n", encoding="utf-8")
    return path


class TestIndex:
    def test_single_row_round_trip(self, tmp_path):
        path = _write_index(tmp_path, ["01,1_1,5,8,14,1+2,Surprise,Surprise"])
        records = load_index(path)
        assert len(records) == 1
        rec = records[0]
        assert rec.subject_id == "01"
        assert rec.sample_id == "1_1"
        assert rec.aus == frozenset({1, 2})
        assert (rec.onset, rec.apex, rec.offset) == (5, 8, 14)
        assert rec.objective_label is ObjectiveClass.SURPRISE

    def test_offset_before_onset_rejected(self, tmp_path):
        path = _write_index(tmp_path, ["01,1_1,10,10,5,4,Anger,Negative"])
        with pytest.raises(IndexFormatError, match="row 2"):
            load_index(path)

    def test_three_rows_order_preserved(self, tmp_path):
        rows = [
            "01,1_1,0,2,4,6+12,Happiness,Positive",
            "02,2_1,1,3,5,4,Anger,Negative",
            "01,1_2,2,4,6,,Others,Others",
        ]
        records = load_index(_write_index(tmp_path, rows))
        assert [r.sample_id for r in records] == ["1_1", "2_1", "1_2"]
        assert records[2].aus == frozenset()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "index.csv"
        path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        with pytest.raises(IndexFormatError):
            load_index(path)

    def test_save_load_byte_identical(self, tmp_path):
        rows = [
            "01,1_1,5,8,14,1+2,Surprise,Surprise",
            "02,2_3,0,1,9,4+5+7,Anger,Negative",
        ]
        path = _write_index(tmp_path, rows)
        records = load_index(path)
        out = tmp_path / "copy.csv"
        save_index(records, out)
        assert out.read_text(encoding="utf-8").rstrip() == path.read_text(encoding="utf-8").rstrip()

    def test_bad_au_token(self):
        with pytest.raises(IndexFormatError):
            parse_aus("1+x")
        with pytest.raises(IndexFormatError):
            parse_aus("0")

    def test_format_aus_sorted(self):
        assert format_aus({7, 4, 5}) == "4+5+7"


class TestRecordInvariants:
    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            SampleRecord("01", "s", -1, 0, 1, frozenset(), ObjectiveClass.OTHERS,
                         NonObjectiveClass.OTHERS)

    def test_apex_outside_window_rejected(self):
        with pytest.raises(ValueError):
            SampleRecord("01", "s", 3, 2, 5, frozenset(), ObjectiveClass.OTHERS,
                         NonObjectiveClass.OTHERS)


class TestLabeling:
    def test_objective_happiness(self):
        assert objective_label({6, 12}) is ObjectiveClass.HAPPINESS

    def test_objective_surprise(self):
        assert objective_label({1, 2}) is ObjectiveClass.SURPRISE

    def test_objective_fallback(self):
        assert objective_label(set()) is ObjectiveClass.OTHERS

    def test_nonobjective_surprise_exact_and_superset(self):
        assert nonobjective_label({1, 2}) is NonObjectiveClass.SURPRISE
        assert nonobjective_label({2}) is NonObjectiveClass.SURPRISE

    def test_nonobjective_fallback(self):
        assert nonobjective_label(set()) is NonObjectiveClass.OTHERS

    def test_nonobjective_negative(self):
        assert nonobjective_label({4}) is NonObjectiveClass.NEGATIVE
        assert nonobjective_label({4, 5, 7}) is NonObjectiveClass.NEGATIVE

    def test_totality_over_random_sets(self):
        # every AU set maps to some class in both taxonomies
        for aus in [set(), {1}, {2, 26}, {4, 9, 17}, {99}, {1, 2, 25, 26}]:
            assert objective_label(aus) in ObjectiveClass
            assert nonobjective_label(aus) in NonObjectiveClass

    def test_rule_order_first_match_wins(self):
        table = MappingTable.from_text("A: 1+2\nB: >=1\n")
        assert table.classify({1, 2}) == "A"
        assert table.classify({1, 3}) == "B"

    def test_default_tables_parse(self):
        assert len(DEFAULT_OBJECTIVE_TABLE.rules) == 5 + 6 + 5 + 3 + 10
        # the printed rows are read literally
        assert objective_label({9}) is ObjectiveClass.SADNESS
        assert any(r.at_least for r in DEFAULT_NONOBJECTIVE_TABLE.rules)


class TestReliability:
    def test_identical_sets(self):
        assert coder_reliability({1, 2}, {1, 2}) == 1.0

    def test_partial_agreement(self):
        assert coder_reliability({4}, {4, 7}) == 2 / 3

    def test_disjoint(self):
        assert coder_reliability({4}, {9}) == 0.0

    def test_both_empty_rejected(self):
        with pytest.raises(ValueError):
            coder_reliability(set(), set())

    @given(st.sets(st.integers(1, 40)), st.sets(st.integers(1, 40)))
    def test_symmetry_and_bounds(self, a, b):
        if not a and not b:
            return
        r = coder_reliability(a, b)
        assert r == coder_reliability(b, a)
        assert 0.0 <= r <= 1.0
        assert (r == 1.0) == (a == b)
        assert (r == 0.0) == (not a & b)
