"""Parsers, serializers, and the invariants of the shared domain types."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankforge.data import (
    ContrastiveInstance,
    Qrels,
    Ranking,
    RunEntry,
    TeacherRanking,
    parse_corpus,
    parse_path,
    parse_qrels,
    parse_queries,
    parse_run,
    parse_teacher,
    write_run,
)
from rankforge.errors import DataError, ParseError


class TestParseCorpus:
    def test_single_line(self):
        corpus = parse_corpus("d1\thello world\n")
        assert corpus.size == 1
        assert corpus.get("d1").text == "hello world"

    def test_empty_stream(self):
        assert parse_corpus("").size == 0

    def test_duplicate_id_rejected(self):
        with pytest.raises(ParseError, match="d1"):
            parse_corpus("d1\ta\nd1\tb\n")

    def test_missing_tab_rejected_with_line_number(self):
        with pytest.raises(ParseError) as exc:
            parse_corpus("d1\ta\nbroken line\n")
        assert exc.value.line == 2

    def test_text_may_contain_tabs(self):
        # only the first tab separates id from text
        corpus = parse_corpus("d1\ta\tb\n")
        assert corpus.get("d1").text == "a\tb"

    def test_membership_and_iteration(self):
        corpus = parse_corpus("d1\ta\nd2\tb\n")
        assert "d1" in corpus and "d9" not in corpus
        assert [d.id for d in corpus] == ["d1", "d2"]
        assert len(corpus) == 2

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError, match="d9"):
            parse_corpus("d1\ta\n").get("d9")

    @pytest.mark.parametrize("ident", ["", "d 1", "d1 ", " d1", "d\u00a01", "d\u20031"])
    def test_bad_id_rejected_with_line_number(self, ident):
        # a TREC run line holding this id would not split into 6 fields
        with pytest.raises(ParseError, match="is empty or holds whitespace") as exc:
            parse_corpus(f"d0\ta\n{ident}\tcat dog\n")
        assert exc.value.line == 2


class TestParseQueries:
    def test_basic(self):
        queries = parse_queries("q1\twhat is a cat\nq2\tdog\n")
        assert [q.id for q in queries] == ["q1", "q2"]
        assert queries[0].text == "what is a cat"

    def test_duplicate_id_rejected(self):
        with pytest.raises(ParseError, match="q1"):
            parse_queries("q1\ta\nq1\tb\n")

    @pytest.mark.parametrize("text, line", [("q 1\tcat\n", 1), ("q1\tcat\n\tdog\n", 2)],
                             ids=["whitespace", "empty"])
    def test_bad_id_rejected_with_line_number(self, text, line):
        with pytest.raises(ParseError, match="query id") as exc:
            parse_queries(text)
        assert exc.value.line == line


class TestParseQrels:
    def test_basic(self):
        assert parse_qrels("q1 0 d3 2\n").judgments == {("q1", "d3"): 2}

    def test_duplicate_pair_rejected(self):
        with pytest.raises(ParseError, match="q1"):
            parse_qrels("q1 0 d3 2\nq1 0 d3 1\n")

    def test_negative_grade_rejected(self):
        with pytest.raises(ParseError):
            parse_qrels("q1 0 d3 -1\n")

    def test_non_integer_grade_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_qrels("q1 0 d3 two\n")
        assert exc.value.line == 1

    def test_wrong_field_count_rejected(self):
        with pytest.raises(ParseError):
            parse_qrels("q1 0 d3\n")

    def test_docs_for(self):
        qrels = parse_qrels("q1 0 d1 1\nq1 0 d2 0\nq2 0 d1 3\n")
        assert qrels.docs_for("q1") == {"d1": 1, "d2": 0}
        assert qrels.docs_for("q3") == {}

    def test_docs_for_keeps_judgment_order_and_returns_a_copy(self):
        qrels = Qrels({("q1", "d9"): 2, ("q2", "d1"): 1, ("q1", "d3"): 0, ("q1", "d5"): 1})
        assert list(qrels.docs_for("q1").items()) == [("d9", 2), ("d3", 0), ("d5", 1)]
        qrels.docs_for("q1")["d9"] = 0
        qrels.docs_for("q3")["d1"] = 1
        assert qrels.docs_for("q1")["d9"] == 2
        assert qrels.docs_for("q3") == {}


class TestRankingInvariants:
    def test_rank_gap_rejected(self):
        with pytest.raises(ValueError, match="rank sequence"):
            Ranking("q1", (RunEntry("d1", 1, 2.0), RunEntry("d2", 3, 1.0)))

    def test_duplicate_doc_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Ranking("q1", (RunEntry("d1", 1, 2.0), RunEntry("d1", 2, 1.0)))

    def test_score_increase_rejected(self):
        with pytest.raises(ValueError, match="score increases"):
            Ranking("q1", (RunEntry("d1", 1, 1.0), RunEntry("d2", 2, 2.0)))

    def test_non_finite_score_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            Ranking("q1", (RunEntry("d1", 1, float("nan")),))

    def test_score_ties_allowed(self):
        r = Ranking("q1", (RunEntry("d1", 1, 1.0), RunEntry("d2", 2, 1.0)))
        assert r.depth == 2

    def test_from_scores_assigns_ranks(self):
        # input must already be in final (non-increasing score) order
        r = Ranking.from_scores("q1", [("d2", 2.0), ("d3", 1.0), ("d1", 0.5)])
        assert r.doc_ids() == ["d2", "d3", "d1"]
        assert [e.rank for e in r.entries] == [1, 2, 3]

    def test_from_scores_rejects_unsorted(self):
        with pytest.raises(ValueError, match="score increases"):
            Ranking.from_scores("q1", [("d1", 0.5), ("d2", 2.0)])

    def test_from_scores_tie_keeps_input_order(self):
        r = Ranking.from_scores("q1", [("b", 1.0), ("a", 1.0)])
        assert r.doc_ids() == ["b", "a"]

    @pytest.mark.parametrize("ids, scores, message", [
        ("d1 d2 d1", [3.0, 2.0, 1.0], "duplicate doc 'd1'"),
        ("d1 d2", [1.0, float("inf")], "non-finite score at rank 2"),
        ("d1 d2", [float("nan"), 1.0], "non-finite score at rank 1"),
        ("d1 d2 d3", [2.0, 1.0, 1.5], "score increases at rank 3 (1.5 > 1.0)"),
        # the first violating position decides, as the entries are checked in order
        ("d1 d2 d2 d4", [1.0, 2.0, 0.5, float("nan")], "score increases at rank 2 (2.0 > 1.0)"),
        ("d1 d2 d2", [2.0, 1.0, float("nan")], "duplicate doc 'd2'"),
        ("d1 d2 d3", [1.0, float("nan"), 2.0], "non-finite score at rank 2"),
    ])
    def test_from_scores_rejects_with_entry_messages(self, ids, scores, message):
        ids = ids.split()
        entries = tuple(RunEntry(d, i + 1, s) for i, (d, s) in enumerate(zip(ids, scores)))
        with pytest.raises(ValueError) as by_entries:
            Ranking("q1", entries)
        with pytest.raises(ValueError) as by_arrays:
            Ranking.from_scores("q1", ids, np.array(scores))
        assert str(by_entries.value) == str(by_arrays.value) == f"query q1: {message}"

    def test_rank_break_after_other_violation(self):
        with pytest.raises(ValueError, match="duplicate doc 'd1'"):
            Ranking("q1", (RunEntry("d1", 1, 2.0), RunEntry("d1", 2, 1.0), RunEntry("d3", 5, 0.5)))
        with pytest.raises(ValueError, match="rank sequence broken at position 1"):
            Ranking("q1", (RunEntry("d1", 1, 2.0), RunEntry("d2", 3, 1.0), RunEntry("d2", 3, 1.0)))

    def test_from_scores_equals_entries_form(self):
        entries = (RunEntry("d2", 1, 2.0), RunEntry("d3", 2, 1.0), RunEntry("d1", 3, 1.0))
        r = Ranking.from_scores("q1", ["d2", "d3", "d1"], np.array([2.0, 1.0, 1.0]))
        assert r == Ranking("q1", entries)
        assert r == Ranking.from_scores("q1", [("d2", 2.0), ("d3", 1.0), ("d1", 1.0)])
        assert r.entries == entries
        assert r.ids == ("d2", "d3", "d1") and r.depth == 3
        assert r.scores.dtype == np.float64 and not r.scores.flags.writeable
        assert r != Ranking.from_scores("q1", ["d2", "d3", "d1"], [2.0, 1.0, 0.5])
        assert r != Ranking.from_scores("q2", ["d2", "d3", "d1"], [2.0, 1.0, 1.0])
        assert r != Ranking.from_scores("q1", ["d2", "d1", "d3"], [2.0, 1.0, 1.0])
        with pytest.raises(AttributeError):
            r.ids = ("d1",)

    def test_from_scores_length_mismatch(self):
        with pytest.raises(ValueError, match="2 doc ids but 3 scores"):
            Ranking.from_scores("q1", ["d1", "d2"], [3.0, 2.0, 1.0])


class TestRunRoundTrip:
    def test_parse_two_lines(self):
        runs = parse_run("q1 Q0 d1 1 2.000000 x\nq1 Q0 d2 2 1.000000 x\n")
        assert len(runs) == 1
        assert runs[0].depth == 2

    def test_rank_gap_error(self):
        with pytest.raises(ParseError):
            parse_run("q1 Q0 d1 1 2.0 x\nq1 Q0 d2 3 1.0 x\n")

    def test_score_monotonicity_error(self):
        with pytest.raises(ParseError):
            parse_run("q1 Q0 d1 1 1.0 x\nq1 Q0 d2 2 2.0 x\n")

    def test_duplicate_doc_error(self):
        with pytest.raises(ParseError):
            parse_run("q1 Q0 d1 1 2.0 x\nq1 Q0 d1 2 1.0 x\n")

    def test_non_contiguous_lines_grouped(self):
        text = (
            "q1 Q0 d1 1 2.0 x\n"
            "q2 Q0 d9 1 5.0 x\n"
            "q1 Q0 d2 2 1.0 x\n"
        )
        runs = {r.query_id: r for r in parse_run(text)}
        assert runs["q1"].doc_ids() == ["d1", "d2"]
        assert runs["q2"].doc_ids() == ["d9"]

    def test_write_run_exact_format(self):
        r = Ranking("q1", (RunEntry("d1", 1, 0.5),))
        assert write_run([r], "x") == "q1 Q0 d1 1 0.500000 x\n"

    def test_write_run_empty(self):
        assert write_run([], "x") == ""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random(self, data):
        """parse_run(write_run(r)) reproduces ids, ranks, printed scores."""
        n_queries = data.draw(st.integers(1, 4))
        rankings = []
        for qi in range(n_queries):
            depth = data.draw(st.integers(1, 8))
            scores = sorted(
                data.draw(
                    st.lists(
                        st.floats(-100, 100, allow_nan=False),
                        min_size=depth,
                        max_size=depth,
                    )
                ),
                reverse=True,
            )
            # printed precision is 6 decimals; quantize so equality is exact
            scores = [round(s, 6) for s in scores]
            entries = tuple(
                RunEntry(f"d{i}", i + 1, scores[i]) for i in range(depth)
            )
            rankings.append(Ranking(f"q{qi}", entries))
        parsed = parse_run(write_run(rankings, "tag"))
        assert len(parsed) == len(rankings)
        by_id = {r.query_id: r for r in parsed}
        for original in rankings:
            got = by_id[original.query_id]
            assert got.doc_ids() == original.doc_ids()
            assert [e.rank for e in got.entries] == [e.rank for e in original.entries]
            for ge, oe in zip(got.entries, original.entries):
                assert ge.score == pytest.approx(oe.score, abs=5e-7)


class TestParseTeacher:
    def test_basic(self):
        teachers = parse_teacher('{"qid":"q1","ranked":["d2","d1"]}\n')
        assert teachers[0].query_id == "q1"
        assert teachers[0].doc_ids == ("d2", "d1")

    def test_duplicate_doc_rejected(self):
        with pytest.raises(ParseError, match="q1"):
            parse_teacher('{"qid":"q1","ranked":["d2","d2"]}\n')

    def test_too_short_rejected(self):
        with pytest.raises(ParseError, match="q1"):
            parse_teacher('{"qid":"q1","ranked":["d2"]}\n')

    def test_duplicate_qid_rejected(self):
        line = '{"qid":"q1","ranked":["d1","d2"]}\n'
        with pytest.raises(ParseError, match="q1"):
            parse_teacher(line + line)

    def test_texts_accepted(self):
        # a texts key is accepted and ignored, like any other extra key
        teachers = parse_teacher(
            '{"qid":"q1","ranked":["d1","d2"],"texts":["a","b"]}\n'
        )
        assert teachers == [TeacherRanking("q1", ("d1", "d2"))]

    def test_malformed_json_rejected_with_line(self):
        with pytest.raises(ParseError) as exc:
            parse_teacher('{"qid":"q1","ranked":["d1","d2"]}\nnot json\n')
        assert exc.value.line == 2


class TestInstanceInvariants:
    def test_positive_among_negatives_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            ContrastiveInstance("q1", "d1", ("d1", "d2"))

    def test_duplicate_negatives_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ContrastiveInstance("q1", "d1", ("d2", "d2"))

    def test_teacher_ranking_needs_two(self):
        with pytest.raises(ValueError, match=">= 2"):
            TeacherRanking("q1", ("d1",))

    def test_teacher_duplicate_docs_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            TeacherRanking("q1", ("d1", "d1"))


class TestParsePath:
    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            parse_path(tmp_path / "nope.tsv", parse_corpus)

    def test_parse_error_names_file(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("no tab here\n", encoding="utf-8")
        with pytest.raises(ParseError, match="bad.tsv"):
            parse_path(bad, parse_corpus)

    def test_undecodable_file_named(self, tmp_path):
        bad = tmp_path / "latin1.tsv"
        bad.write_bytes(b"d1\tcaf\xe9\n")
        with pytest.raises(DataError, match=r"cannot read .*latin1\.tsv: 'utf-8' codec"):
            parse_path(bad, parse_corpus)

    def test_success(self, tmp_path):
        good = tmp_path / "c.tsv"
        good.write_text("d1\thello\n", encoding="utf-8")
        assert parse_path(good, parse_corpus).size == 1
