import io
import json
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from currank import sessions as sessions_module
from currank.sessions import (
    Interaction,
    SearchContext,
    Session,
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
from currank.synth import write_labels, write_session_log

import oracles


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
        with pytest.raises(ValueError, match="line 2"):
            parse_sessions([record("s1", 1, "q", [("a", "t")], set()), "{nope"])

    def test_zero_candidates_rejected(self):
        bad = json.dumps(
            {"session_id": "s1", "query_position": 1, "query_text": "q",
             "candidates": []}
        )
        with pytest.raises(ValueError, match="zero candidates"):
            parse_sessions([bad])

    def test_duplicate_position_rejected(self):
        lines = [
            record("s1", 1, "q", [("a", "t")], set()),
            record("s1", 1, "q again", [("b", "u")], set()),
        ]
        with pytest.raises(ValueError, match="duplicate"):
            parse_sessions(lines)

    def test_conflicting_titles_rejected(self):
        lines = [
            record("s1", 1, "q", [("a", "one title")], set()),
            record("s1", 2, "q", [("a", "another title")], set()),
        ]
        with pytest.raises(ValueError, match="conflicting"):
            parse_sessions(lines)


    def test_titles_that_tokenize_alike_agree(self):
        lines = [
            record("s1", 1, "q", [("a", "Clay Aiken")], set()),
            record("s1", 2, "q", [("a", "clay, aiken!"), ("b", "Clay Aiken")], set()),
        ]
        _, documents = parse_sessions(lines)
        assert documents["a"] == documents["b"] == ("clay", "aiken")

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
        with pytest.raises(ValueError,
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


# Quotes, backslashes, control characters, non-ASCII and a line separator,
# each of which JSON escapes; and any text at all.
TEXT = st.text(st.sampled_from('ab "\\/\x00\x1f\x7f\n\té€\u2028😀'), max_size=5) | st.text(max_size=5)
IDS = TEXT.filter(bool)
TOKENS = st.lists(TEXT, max_size=4).map(tuple)  # empty tuples included


@st.composite
def bundles(draw):
    """(documents, sessions, contexts, labels) over a few shared doc ids, so
    that ids, tokens and (doc, rank, clicked) candidates repeat; no session,
    and no context's (session id, position, positive doc id), repeats."""
    doc_ids = draw(st.lists(IDS, min_size=1, max_size=5, unique=True))
    documents = {d: draw(TOKENS) for d in doc_ids}
    doc = st.sampled_from(doc_ids)
    sessions = []
    for session_id in draw(st.lists(IDS, max_size=3, unique=True)):
        interactions = []
        for _ in range(draw(st.integers(1, 3))):
            candidates = draw(st.lists(doc, min_size=1, max_size=4, unique=True))
            clicked = draw(st.sets(st.sampled_from(candidates)))
            interactions.append(Interaction(draw(IDS), draw(TOKENS), frozenset(clicked),
                                            tuple(candidates)))
        sessions.append(Session(session_id, tuple(interactions)))
    contexts = draw(st.lists(
        st.builds(SearchContext, IDS, st.integers(-2**70, 2**70), TOKENS, doc,
                  st.lists(doc, max_size=3).map(tuple)),  # one-entry pools included
        max_size=4, unique_by=lambda c: (c.session_id, c.position, c.positive_doc_id)))
    return documents, sessions, contexts, draw(st.dictionaries(IDS, st.integers()))


class TestWritersMatchDictOracles:
    @settings(max_examples=300, deadline=None)
    @given(bundle=bundles())
    def test_every_writer_writes_the_oracle_bytes(self, bundle):
        documents, sessions, contexts, labels = bundle
        for write, oracle, args in [
            (write_documents, oracles.dict_write_documents, (documents,)),
            (write_sessions, oracles.dict_write_sessions, (sessions,)),
            (write_contexts, oracles.dict_write_contexts, (contexts,)),
            (write_labels, oracles.dict_write_labels, (labels,)),
            (write_session_log, oracles.dict_write_session_log, (sessions, documents)),
        ]:
            got, want = io.StringIO(), io.StringIO()
            write(*args, got)
            oracle(*args, want)
            assert got.getvalue() == want.getvalue(), write.__name__



# A bundle file's fields a corruption may strike ("a.b": field b of an entry of a).
READ_FIELDS = {
    "sessions": ["session_id", "interactions", "interactions.query_id",
                 "interactions.query_tokens", "interactions.clicked_doc_ids",
                 "interactions.candidate_doc_ids"],
    "contexts": ["session_id", "position", "context_tokens", "positive_doc_id",
                 "negative_pool"],
}
ODD = st.sampled_from([None, 5, -1, True, 1.5, "", "d", [], [5], [None], [["w"]], [{}], {},
                       {"w": 1}])


def corrupt_line(lines: list[str], kind: str, data) -> None:
    """Change one field, or one entry of a list field, of one record in `lines`,
    or repeat the record."""
    i = data.draw(st.integers(0, len(lines) - 1), label="record")
    how = data.draw(st.sampled_from(["drop", "replace", "entry", "repeat"]), label="how")
    if how == "repeat":
        lines.insert(data.draw(st.integers(0, len(lines)), label="at"), lines[i])
        return
    record = holder = json.loads(lines[i])
    *parents, key = data.draw(st.sampled_from(READ_FIELDS[kind]), label="field").split(".")
    for parent in parents:
        if not holder[parent]:
            return
        holder = holder[parent][data.draw(st.integers(0, len(holder[parent]) - 1))]
    if how == "drop":
        del holder[key]
    elif how == "entry" and type(holder[key]) is list and holder[key]:
        holder[key][data.draw(st.integers(0, len(holder[key]) - 1))] = data.draw(ODD)
    else:
        holder[key] = data.draw(ODD, label="value")
    lines[i] = json.dumps(record)


def outcome(read, text: str, *args):
    """What `read` makes of `text`: its result, or its exception's type and message."""
    try:
        return read(io.StringIO(text), *args)
    except Exception as e:  # noqa: BLE001 -- compared, not handled
        return type(e), str(e)


class TestSplitReads:
    """read_sessions(fp, keep) builds objects only for the sessions `keep`
    accepts, but refuses what the object-building reader refuses, with its
    message, wherever the record lies; records are read in chunks."""

    @settings(max_examples=200, deadline=None)
    @given(bundle=bundles(), data=st.data())
    @pytest.mark.parametrize("chunk", [1, 2, 256])
    def test_equals_the_object_reader_filtered(self, chunk, bundle, data):
        _, sessions, contexts, _ = bundle
        texts = {}
        for kind, write, records in [("sessions", write_sessions, sessions),
                                     ("contexts", write_contexts, contexts)]:
            buf = io.StringIO()
            write(records, buf)
            lines = buf.getvalue().split("\n")[:-1]
            if lines and data.draw(st.booleans(), label=f"corrupt {kind}"):
                corrupt_line(lines, kind, data)
            texts[kind] = "".join(line + "\n" for line in lines)
        ids = {s.session_id for s in sessions}
        kept = data.draw(st.sets(st.sampled_from(sorted(ids)))) if ids else set()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sessions_module, "_CHUNK", chunk)
            want = outcome(oracles.object_read_sessions, texts["sessions"])
            assert outcome(read_sessions, texts["sessions"]) == want
            assert outcome(read_sessions, texts["sessions"], kept.__contains__) == (
                [s for s in want if s.session_id in kept] if type(want) is list else want)
            assert outcome(read_contexts, texts["contexts"]) == \
                outcome(oracles.object_read_contexts, texts["contexts"])

    def test_keep_sees_only_checked_string_ids(self, tiny_session):
        buf = io.StringIO()
        write_sessions([tiny_session, tiny_session], buf)
        first, second = buf.getvalue().splitlines()
        bad = json.loads(second)
        bad["session_id"] = {}
        seen = []
        with pytest.raises(ValueError, match=re.escape("session_id {} is not a string")):
            read_sessions(io.StringIO(f"{first}\n{json.dumps(bad)}\n"), seen.append)
        assert seen == []

    def test_equal_strings_are_one_object_per_read(self, tiny_session, tiny_contexts):
        buf = io.StringIO()
        write_sessions([replace(tiny_session, session_id=f"s{i}") for i in range(3)], buf)
        interactions = [i for s in read_sessions(io.StringIO(buf.getvalue()))
                        for i in s.interactions]
        buf = io.StringIO()
        write_contexts([replace(c, position=c.position + 10 * i)
                        for i in range(3) for c in tiny_contexts], buf)
        contexts = read_contexts(io.StringIO(buf.getvalue()))
        for strings in [
            [t for i in interactions
             for t in (*i.query_tokens, *i.clicked_doc_ids, *i.candidate_doc_ids)],
            [t for c in contexts
             for t in (c.session_id, *c.context_tokens, c.positive_doc_id, *c.negative_pool)],
        ]:
            assert len(strings) > len(set(strings))
            assert len({id(s) for s in strings}) == len(set(strings))


class TestSharedStrings:
    def test_parse_sessions_equal_ids_and_tokens_are_one_object(self):
        lines = [
            record("s1", 1, "clay aiken", [("a", "clay pottery"), ("b", "aiken news")], {"a"}),
            record("s1", 2, "aiken clay", [("b", "aiken news"), ("c", "clay")], {"b"}),
            record("s2", 1, "news", [("c", "clay"), ("a", "clay pottery")], {"c"}),
        ]
        sessions, documents = parse_sessions(lines)
        strings = [t for s in sessions for i in s.interactions
                   for t in (*i.query_tokens, *i.clicked_doc_ids, *i.candidate_doc_ids)]
        strings += [t for doc_id, title in documents.items() for t in (doc_id, *title)]
        assert len(strings) > len(set(strings))
        assert len({id(s) for s in strings}) == len(set(strings))


class TestCollidingContextIds:
    """Distinct contexts whose ids join to one string are refused, naming both."""

    MESSAGE = ("context id 'a:1:2:x' is shared by (session, position, doc) "
               "('a', 1, '2:x') and ('a:1', 2, 'x')")

    def test_build_contexts(self):
        documents = {d: ("t",) for d in ("2:x", "x", "y", "n")}
        sessions = [_session("a", [("q", ["2:x", "n"], {"2:x"})], documents),
                    _session("a:1", [("q", ["y", "n"], {"y"}), ("q", ["x", "n"], {"x"})],
                             documents)]
        with pytest.raises(ValueError, match=re.escape(self.MESSAGE)):
            build_contexts(sessions, documents)

    def test_read_contexts(self):
        buf = io.StringIO()
        write_contexts([SearchContext("a", 1, ("q",), "2:x", ("n",)),
                        SearchContext("a:1", 2, ("q",), "x", ("n",))], buf)
        with pytest.raises(ValueError, match=re.escape(self.MESSAGE)):
            read_contexts(io.StringIO(buf.getvalue()))


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
