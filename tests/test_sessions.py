import io
import json
import re

import pytest

from currank.sessions import (
    Document,
    Interaction,
    SessionLogError,
    build_contexts,
    negative_window_pool,
    parse_sessions,
    read_contexts,
    read_documents,
    read_sessions,
    write_contexts,
    write_documents,
    write_sessions,
)


def record(session_id, position, query, candidates, clicked):
    return json.dumps(
        {
            "session_id": session_id,
            "query_position": position,
            "query_text": query,
            "candidates": [
                {
                    "doc_id": doc_id,
                    "title": title,
                    "rank": rank,
                    "clicked": doc_id in clicked,
                }
                for rank, (doc_id, title) in enumerate(candidates, start=1)
            ],
        }
    )


class TestParseSessions:
    def test_single_record(self):
        line = record(
            "s1", 1, "clay aiken",
            [("c1", "clay aiken fansite"), ("c2", "pottery"), ("c3", "news")],
            clicked={"c1"},
        )
        sessions, documents = parse_sessions([line])
        assert len(sessions) == 1
        assert len(sessions[0].interactions) == 1
        inter = sessions[0].interactions[0]
        assert inter.query_tokens == ("clay", "aiken")
        assert inter.clicked_doc_ids == frozenset({"c1"})
        assert set(documents) == {"c1", "c2", "c3"}

    def test_empty_stream(self):
        sessions, documents = parse_sessions([])
        assert sessions == []
        assert documents == {}

    def test_overlapping_documents_deduplicated(self):
        # 2 sessions x 2 queries; 5 distinct titles across 8 candidate slots
        lines = [
            record("s1", 1, "q one", [("a", "alpha beta"), ("b", "beta gamma")], {"a"}),
            record("s1", 2, "q two", [("b", "beta gamma"), ("c", "gamma delta")], {"c"}),
            record("s2", 1, "q three", [("a", "alpha beta"), ("d", "delta eps")], {"d"}),
            record("s2", 2, "q four", [("c", "gamma delta"), ("e", "eps zeta")], {"e"}),
        ]
        sessions, documents = parse_sessions(lines)
        assert len(sessions) == 2
        assert len(documents) == 5

    def test_malformed_json_reports_line(self):
        with pytest.raises(SessionLogError, match="line 2"):
            parse_sessions([record("s1", 1, "q", [("a", "t")], set()), "{nope"])

    def test_zero_candidates_rejected(self):
        bad = json.dumps(
            {"session_id": "s1", "query_position": 1, "query_text": "q",
             "candidates": []}
        )
        with pytest.raises(SessionLogError, match="zero candidates"):
            parse_sessions([bad])

    def test_duplicate_position_rejected(self):
        lines = [
            record("s1", 1, "q", [("a", "t")], set()),
            record("s1", 1, "q again", [("b", "u")], set()),
        ]
        with pytest.raises(SessionLogError, match="duplicate"):
            parse_sessions(lines)

    def test_conflicting_titles_rejected(self):
        lines = [
            record("s1", 1, "q", [("a", "one title")], set()),
            record("s1", 2, "q", [("a", "another title")], set()),
        ]
        with pytest.raises(SessionLogError, match="conflicting"):
            parse_sessions(lines)


    def test_titles_that_tokenize_alike_agree(self):
        lines = [
            record("s1", 1, "q", [("a", "Clay Aiken")], set()),
            record("s1", 2, "q", [("a", "clay, aiken!"), ("b", "Clay Aiken")], set()),
        ]
        _, documents = parse_sessions(lines)
        assert documents["a"].title_tokens == documents["b"].title_tokens == ("clay", "aiken")

    @pytest.mark.parametrize("field, value", [
        ("title", ["a"]), ("title", 5), ("query_text", ["a"]),
    ], ids=["list-title", "integer-title", "list-query"])
    def test_non_string_text_rejected(self, field, value):
        rec = json.loads(record("s1", 2, "q", [("a", "t")], set()))
        if field == "title":
            rec["candidates"][0]["title"] = value
        else:
            rec["query_text"] = value
        lines = [record("s1", 1, "q", [("a", "t")], set()), json.dumps(rec)]
        with pytest.raises(SessionLogError,
                           match=re.escape(f"line 2: {field} {value!r} is not a string")):
            parse_sessions(lines)


class TestBuildContexts:
    def test_first_query_has_no_history(self, tiny_documents):
        session = _session("s1", [("clay aiken", ["d1", "d3"], {"d1"})], tiny_documents)
        contexts, skipped = build_contexts([session], tiny_documents)
        assert skipped == 0
        assert len(contexts) == 1
        assert contexts[0].context_tokens == ("clay", "aiken")
        assert contexts[0].positive_doc_id == "d1"

    def test_multi_click_duplicates_context(self, tiny_documents):
        session = _session(
            "s1",
            [("clay", ["d1", "d3"], {"d1"}),
             ("aiken", ["d3", "d4", "d1"], {"d3", "d4"})],
            tiny_documents,
        )
        contexts, _ = build_contexts([session], tiny_documents)
        assert len(contexts) == 3
        q2 = [c for c in contexts if c.position == 2]
        assert len(q2) == 2
        assert q2[0].context_tokens == q2[1].context_tokens
        # history: q1, clicked title of q1, then q2
        assert q2[0].context_tokens == (
            "clay", "|", "clay", "aiken", "fansite", "|", "aiken"
        )

    def test_clickless_session_yields_skip_count(self, tiny_documents):
        session = _session(
            "s1", [("clay", ["d1"], set()), ("aiken", ["d4"], set())],
            tiny_documents,
        )
        contexts, skipped = build_contexts([session], tiny_documents)
        assert contexts == []
        assert skipped == 2

    def test_positive_never_in_negative_pool(self, tiny_contexts):
        for ctx in tiny_contexts:
            assert ctx.positive_doc_id not in ctx.negative_pool

    def test_count_equals_click_pairs(self, tiny_documents):
        session = _session(
            "s1",
            [("clay", ["d1", "d3"], {"d1", "d3"}), ("aiken", ["d4"], set())],
            tiny_documents,
        )
        contexts, _ = build_contexts([session], tiny_documents)
        assert len(contexts) == 2


class TestNegativeWindowPool:
    def _interaction(self, candidates, clicked):
        return Interaction(
            query_id="s:1",
            query_tokens=("q",),
            clicked_doc_ids=frozenset(clicked),
            candidate_doc_ids=tuple(candidates),
        )

    def test_adjacent_window(self):
        inter = self._interaction(list("abcde"), {"c"})
        assert negative_window_pool(inter, "c", 1) == ["b", "d"]

    def test_window_exceeding_list(self):
        inter = self._interaction(list("abc"), {"a"})
        assert negative_window_pool(inter, "a", 5) == ["b", "c"]

    def test_excludes_other_clicks(self):
        inter = self._interaction(list("abcdefghij"), {"e", "f"})
        assert negative_window_pool(inter, "e", 3) == ["b", "c", "d", "g", "h"]

    def test_unknown_click_rejected(self):
        inter = self._interaction(list("abc"), {"a"})
        with pytest.raises(ValueError):
            negative_window_pool(inter, "z", 1)

    def test_subset_of_unclicked_for_any_window(self):
        inter = self._interaction(list("abcdefgh"), {"c", "g"})
        unclicked = set("abdefh")
        for window in range(1, 10):
            assert set(negative_window_pool(inter, "c", window)) <= unclicked


class TestRoundTrip:
    def test_bundle_round_trip(self, tiny_session, tiny_documents, tiny_contexts):
        buf = io.StringIO()
        write_sessions([tiny_session], buf)
        assert read_sessions(io.StringIO(buf.getvalue())) == [tiny_session]

        buf = io.StringIO()
        write_documents(tiny_documents, buf)
        assert read_documents(io.StringIO(buf.getvalue())) == tiny_documents

        buf = io.StringIO()
        write_contexts(tiny_contexts, buf)
        assert read_contexts(io.StringIO(buf.getvalue())) == tiny_contexts


def _session(session_id, specs, documents):
    from currank.bm25 import tokenize

    interactions = []
    for position, (query, candidates, clicked) in enumerate(specs, start=1):
        interactions.append(
            Interaction(
                query_id=f"{session_id}:{position}",
                query_tokens=tuple(tokenize(query)),
                clicked_doc_ids=frozenset(clicked),
                candidate_doc_ids=tuple(candidates),
            )
        )
    from currank.sessions import Session

    return Session(session_id, tuple(interactions))
