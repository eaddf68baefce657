"""Session log data model: ingestion, context building and negative pools.

A session is an ordered list of logged query interactions. From each
interaction with at least one click we derive one training context per
clicked document: the flattened history of earlier queries and their
clicked titles, followed by the current query.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, islice
from operator import itemgetter
from typing import IO, Callable, Iterable, Iterator

from .bm25 import tokenize

# Segment separator inserted between queries/documents in flattened
# context token sequences. `tokenize` never emits it, so it can not
# collide with corpus terms and contributes nothing to BM25 scores.
SEP_TOKEN = "|"

# Default symmetric rank window for negative pools.
DEFAULT_NEGATIVE_WINDOW = 3


@dataclass(frozen=True)
class Interaction:
    """Its clicked documents are candidates (parse_sessions and read_sessions check)."""

    query_id: str
    query_tokens: tuple[str, ...]
    clicked_doc_ids: frozenset[str]
    candidate_doc_ids: tuple[str, ...]


@dataclass(frozen=True)
class Session:
    """A session has interactions (parse_sessions and read_sessions check)."""

    session_id: str
    interactions: tuple[Interaction, ...]


@dataclass(frozen=True)
class SearchContext:
    """One positive training pair: flattened history + current query,
    the clicked document, and a pool of unclicked negatives."""

    session_id: str
    position: int  # 1-based query index within the session
    context_tokens: tuple[str, ...]
    positive_doc_id: str
    negative_pool: tuple[str, ...]

    @property
    def context_id(self) -> str:
        return f"{self.session_id}:{self.position}:{self.positive_doc_id}"


# A held-out slate: (query id, context tokens, logged candidates, clicked set).
EvalSlate = tuple[str, tuple[str, ...], tuple[str, ...], frozenset[str]]


def _candidate_rank(cand: dict) -> int:
    rank = cand["rank"]
    if type(rank) is not int:  # also rejects bool, a subclass of int
        raise ValueError(f"rank {rank!r} is not an integer")
    return rank


def parse_sessions(
    stream: Iterable[str],
) -> tuple[list[Session], dict[str, tuple[str, ...]]]:
    """Parse a line-delimited session log.

    Each line is a JSON record with fields
    ``{session_id, query_position, query_text, candidates}`` where
    ``candidates`` is a list of ``{doc_id, title, rank, clicked}``.
    Returns time-ordered sessions plus a document table: each doc id's title tokens.
    Equal doc ids and tokens share one string.
    """
    documents: dict[str, tuple[str, ...]] = {}
    tokens_of: dict[str, tuple[str, ...]] = {}  # each distinct text tokenized once
    shared = _Shared()
    # session_id -> {position -> Interaction}
    by_session: dict[str, dict[int, Interaction]] = {}

    def tokens(text, field: str) -> tuple[str, ...]:
        if type(text) is not str:
            raise ValueError(f"line {lineno}: {field} {text!r} is not a string")
        if text not in tokens_of:
            tokens_of[text] = tuple(map(shared.__getitem__, tokenize(text)))
        return tokens_of[text]

    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise ValueError(f"line {lineno}: invalid JSON ({e.msg})")
        try:
            sid = rec["session_id"]
            position = rec["query_position"]
            query_text = rec["query_text"]
            candidates = rec["candidates"]
        except (KeyError, TypeError) as e:
            raise ValueError(f"line {lineno}: missing or bad field ({e})")
        if type(sid) is not str or not sid:
            raise ValueError(f"line {lineno}: session_id {sid!r} is "
                             + ("empty" if sid == "" else "not a string"))
        if type(position) is not int:  # also rejects bool, a subclass of int
            raise ValueError(f"line {lineno}: query_position {position!r} is not an integer")
        query_tokens = tokens(query_text, "query_text")
        if not candidates:
            raise ValueError(f"line {lineno}: interaction has zero candidates")
        interactions = by_session.setdefault(sid, {})
        if position in interactions:
            raise ValueError(f"line {lineno}: duplicate (session {sid!r}, position {position})")

        try:
            ordered = sorted(candidates, key=_candidate_rank)
        except (KeyError, TypeError, ValueError) as e:
            raise ValueError(f"line {lineno}: missing or bad candidate rank ({e})")
        cand_ids = []
        clicked = set()
        for cand in ordered:
            try:
                doc_id = cand["doc_id"]
                title = cand["title"]
                is_clicked = cand["clicked"]
            except (KeyError, TypeError) as e:
                raise ValueError(f"line {lineno}: bad candidate ({e})")
            if type(doc_id) is not str or not doc_id:
                raise ValueError(f"line {lineno}: doc_id {doc_id!r} is "
                                 + ("empty" if doc_id == "" else "not a string"))
            if type(is_clicked) is not bool:
                raise ValueError(f"line {lineno}: clicked {is_clicked!r} is not a boolean")
            doc_id = shared[doc_id]
            if doc_id in cand_ids:
                raise ValueError(
                    f"line {lineno}: doc {doc_id!r} appears twice among the candidates")
            title_tokens = tokens(title, "title")
            if documents.setdefault(doc_id, title_tokens) != title_tokens:
                raise ValueError(f"line {lineno}: doc {doc_id!r} has conflicting titles")
            cand_ids.append(doc_id)
            if is_clicked:
                clicked.add(doc_id)
        interactions[position] = Interaction(
            query_id=f"{sid}:{position}",
            query_tokens=query_tokens,
            clicked_doc_ids=frozenset(clicked),
            candidate_doc_ids=tuple(cand_ids),
        )

    sessions = [
        Session(sid, tuple(inter[p] for p in sorted(inter)))
        for sid, inter in sorted(by_session.items())
    ]
    return sessions, documents


def _walk(
    sessions: Iterable[Session], documents: dict[str, tuple[str, ...]]
) -> Iterator[tuple[str, int, Interaction, tuple[str, ...]]]:
    """Yield (session_id, 1-based position, interaction, context tokens)
    for every interaction. The context is the flattened history of earlier
    queries and their clicked titles, then the current query."""
    for session in sessions:
        history: list[str] = []
        for position, inter in enumerate(session.interactions, start=1):
            if history:
                history.append(SEP_TOKEN)
            history.extend(inter.query_tokens)
            yield session.session_id, position, inter, tuple(history)
            # Clicked titles join the history for later queries.
            for doc_id in sorted(inter.clicked_doc_ids):
                history.append(SEP_TOKEN)
                history.extend(documents[doc_id])


def build_contexts(
    sessions: Iterable[Session],
    documents: dict[str, tuple[str, ...]],
    window: int = DEFAULT_NEGATIVE_WINDOW,
) -> tuple[list[SearchContext], int]:
    """Expand sessions into per-click training contexts.

    One context is emitted per (interaction, clicked document) pair,
    ordered by (session_id, position, doc_id). Interactions without
    clicks yield no contexts and are tallied in the returned skip count.
    """
    contexts: list[SearchContext] = []
    skipped = 0
    for session_id, position, inter, ctx_tokens in _walk(sessions, documents):
        if not inter.clicked_doc_ids:
            skipped += 1
        for doc_id in sorted(inter.clicked_doc_ids):
            pool = negative_window_pool(inter, doc_id, window)
            contexts.append(
                SearchContext(
                    session_id=session_id,
                    position=position,
                    context_tokens=ctx_tokens,
                    positive_doc_id=doc_id,
                    negative_pool=tuple(pool),
                )
            )
    contexts.sort(key=lambda c: (c.session_id, c.position, c.positive_doc_id))
    _check_context_ids(contexts)
    return contexts, skipped


def _check_context_ids(contexts: list[SearchContext]) -> None:
    """Distinct contexts must have distinct ids. An id joins session id,
    position and doc id with ':', so two can be equal only if a session id
    holds ':': (session a, query 1, doc 2:x) and (session a:1, query 2, doc x)
    both give a:1:2:x."""
    if not any(":" in c.session_id for c in contexts):
        return
    first: dict[str, SearchContext] = {}
    for ctx in contexts:
        if (other := first.setdefault(ctx.context_id, ctx)) is not ctx:
            a, b = ((c.session_id, c.position, c.positive_doc_id) for c in (other, ctx))
            raise ValueError(f"context id {ctx.context_id!r} is shared by "
                             f"(session, position, doc) {a!r} and {b!r}")


def negative_window_pool(
    interaction: Interaction, clicked_doc_id: str, window: int
) -> list[str]:
    """Unclicked candidates within `window` rank positions of the click.

    Preserves logged order and never returns any clicked document.
    """
    center = interaction.candidate_doc_ids.index(clicked_doc_id)
    return [
        doc_id
        for i, doc_id in enumerate(interaction.candidate_doc_ids)
        if abs(i - center) <= window
        and doc_id not in interaction.clicked_doc_ids
    ]


def build_eval_items(
    sessions: list[Session],
    documents: dict[str, tuple[str, ...]],
) -> list[EvalSlate]:
    """One evaluation slate per interaction with at least one click. The
    query id is session_id:<1-based index of the interaction>, as _walk
    counts it, not the log's query_position, which may have gaps. Every
    candidate (so every click) must be in `documents`."""
    candidates = [(s.session_id, i.candidate_doc_ids) for s in sessions for i in s.interactions]
    if set(chain.from_iterable(map(itemgetter(1), candidates))) - documents.keys():
        session_id, doc_id = next((s, d) for s, ids in candidates for d in ids
                                  if d not in documents)
        raise ValueError(f"session {session_id}: document {doc_id} is not in the corpus")
    return [(f"{session_id}:{position}", ctx_tokens, inter.candidate_doc_ids,
             inter.clicked_doc_ids)
            for session_id, position, inter, ctx_tokens in _walk(sessions, documents)
            if inter.clicked_doc_ids]


# ---------------------------------------------------------------------------
# Bundle serialization (line-delimited JSON, deterministic field order)


# Built once, not per call; NaN and infinity refused, as by checkpoint.strict_json.
_dumps = json.JSONEncoder(sort_keys=True, allow_nan=False, separators=(",", ":")).encode


class _JsonText(dict):
    """Each string's JSON text, made once: writers join it into `_dumps(record)`'s bytes."""

    def __missing__(self, s: str) -> str:
        self[s] = text = _dumps(s)
        return text

    def array(self, strings: Iterable[str]) -> str:
        return f"[{','.join(map(self.__getitem__, strings))}]"


_decode = json.JSONDecoder().raw_decode
_CHUNK = 256  # records a reader holds at a time, decoded but not yet checked


def _record(line: str) -> dict:
    rec, end = _decode(line)  # json.loads less its per-call checks
    if end < len(line):
        raise json.JSONDecodeError("Extra data", line, end)
    return rec


def _record_chunks(fp: Iterable[str]) -> Iterator[list[dict]]:
    """The records of `fp`'s non-blank lines, in lists of up to _CHUNK."""
    records = map(_record, filter(None, map(str.strip, fp)))
    return iter(lambda: list(islice(records, _CHUNK)), [])


class _Shared(dict):
    """One string per distinct value: `shared[s]` is the first string equal to s."""

    def __missing__(self, s: str) -> str:
        self[s] = s
        return s


def _strings(rec: dict, key: str) -> list:
    """Field `key` of `rec`, a JSON list (`_check_types` checks its entries)."""
    value = rec[key]
    if type(value) is not list:
        raise ValueError(f"{key} {value!r} is not a list")
    return value


def _check_column(what: str, column: list, kind: type) -> None:
    """Refuse the first value in `column` whose type is not `kind` (a bool is
    not an int). One set of types per column: no branch per value."""
    if set(map(type, column)) - {kind}:
        bad = next(v for v in column if type(v) is not kind)
        raise ValueError(f"{what} {bad!r} is not {'a string' if kind is str else 'an integer'}")


def _check_types(rows: list[tuple], fields: dict[str, type]) -> None:
    """_check_column on each column of `rows`, tuples that start with `fields`;
    each entry of a list field must be a string."""
    for (field, kind), column in zip(fields.items(), zip(*rows)):
        if kind is list:
            field, column, kind = f"{field} entry", list(chain.from_iterable(column)), str
        _check_column(field, column, kind)


def _add_unique(seen: set, keys: list, what: str) -> None:
    """Add `keys`, one chunk's, to `seen`, those of the read so far: each must be new."""
    new = set(keys)
    if len(new) < len(keys) or not seen.isdisjoint(new):
        repeat = next(k for k in keys if k in seen or seen.add(k))  # add returns None
        raise ValueError(f"{what} {repeat!r} is listed more than once")
    seen |= new


def write_documents(documents: dict[str, tuple[str, ...]], fp: IO[str]) -> None:
    text = _JsonText()
    for doc_id in sorted(documents):
        fp.write(f'{{"doc_id":{_dumps(doc_id)},'
                 f'"title_tokens":{text.array(documents[doc_id])}}}\n')


def read_documents(fp: Iterable[str]) -> dict[str, tuple[str, ...]]:
    """The document table of `fp`: each doc id, non-empty and listed once, to its title."""
    rows = [(r["doc_id"], _strings(r, "title_tokens")) for c in _record_chunks(fp) for r in c]
    _check_types(rows, {"doc_id": str, "title_tokens": list})
    if not all(map(itemgetter(0), rows)):
        raise ValueError("doc_id must be non-empty")
    _add_unique(set(), list(map(itemgetter(0), rows)), "doc_id")
    return {doc_id: tuple(tokens) for doc_id, tokens in rows}


def write_sessions(sessions: Iterable[Session], fp: IO[str]) -> None:
    text = _JsonText()
    for session in sessions:
        interactions = ",".join(
            f'{{"candidate_doc_ids":{text.array(i.candidate_doc_ids)},'
            f'"clicked_doc_ids":{text.array(sorted(i.clicked_doc_ids))},'
            f'"query_id":{_dumps(i.query_id)},"query_tokens":{text.array(i.query_tokens)}}}'
            for i in session.interactions)
        fp.write(f'{{"interactions":[{interactions}],"session_id":{_dumps(session.session_id)}}}\n')


def read_sessions(fp: Iterable[str], keep: Callable[[str], bool] | None = None) -> list[Session]:
    """The sessions of `fp`, or those whose id `keep` accepts: every record is checked, a
    chunk at a time, before `keep` sees its id, and only kept sessions become objects.
    Equal tokens and doc ids share one string; query ids are unique."""
    sessions, shared, seen = [], _Shared().__getitem__, set()
    for chunk in _record_chunks(fp):
        rows = [(rec["session_id"], [
            (i["query_id"], _strings(i, "query_tokens"), _strings(i, "candidate_doc_ids"),
             _strings(i, "clicked_doc_ids")) for i in rec["interactions"]]) for rec in chunk]
        queries = list(chain.from_iterable(map(itemgetter(1), rows)))
        for query_id, _, cands, clicked in queries:
            if not set(cands).issuperset(clicked):
                raise ValueError(f"{query_id}: clicked documents must be candidates")
        if not all(map(itemgetter(1), rows)):
            raise ValueError(f"session {next(s for s, q in rows if not q)} has no interactions")
        _check_types(rows, {"session_id": str})  # before `keep` hashes it
        # Clicks are candidates (checked above), so strings too.
        _check_types(queries, {"query_id": str, "query_tokens": list, "candidate_doc_ids": list})
        _add_unique(seen, list(map(itemgetter(0), rows)), "session_id")
        sessions += [
            Session(shared(sid), tuple(
                Interaction(q, tuple(map(shared, tokens)), frozenset(map(shared, clicked)),
                            tuple(map(shared, cands))) for q, tokens, cands, clicked in inters))
            for sid, inters in rows if keep is None or keep(sid)]
    return sessions


def write_contexts(contexts: Iterable[SearchContext], fp: IO[str]) -> None:
    text = _JsonText()
    for ctx in contexts:
        fp.write(f'{{"context_tokens":{text.array(ctx.context_tokens)},'
                 f'"negative_pool":{text.array(ctx.negative_pool)},"position":{ctx.position:d},'
                 f'"positive_doc_id":{text[ctx.positive_doc_id]},'
                 f'"session_id":{_dumps(ctx.session_id)}}}\n')


def read_contexts(fp: Iterable[str]) -> list[SearchContext]:
    """The contexts of `fp`; equal tokens and ids share one string."""
    contexts, shared, seen = [], _Shared().__getitem__, set()
    for chunk in _record_chunks(fp):
        rows = [(rec["session_id"], rec["position"], _strings(rec, "context_tokens"),
                 rec["positive_doc_id"], _strings(rec, "negative_pool")) for rec in chunk]
        _check_types(rows, {"session_id": str, "position": int, "context_tokens": list,
                            "positive_doc_id": str, "negative_pool": list})
        _add_unique(seen, list(map(itemgetter(0, 1, 3), rows)),
                    "(session_id, position, positive_doc_id)")
        contexts += [SearchContext(shared(sid), position, tuple(map(shared, tokens)),
                                   shared(doc_id), tuple(map(shared, pool)))
                     for sid, position, tokens, doc_id, pool in rows]
    _check_context_ids(contexts)
    return contexts
