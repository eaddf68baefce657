"""Session log data model: ingestion, context building and negative pools.

A session is an ordered list of logged query interactions. From each
interaction with at least one click we derive one training context per
clicked document: the flattened history of earlier queries and their
clicked titles, followed by the current query.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Iterable, Iterator

# Segment separator inserted between queries/documents in flattened
# context token sequences. `tokenize` never emits it, so it can not
# collide with corpus terms and contributes nothing to BM25 scores.
SEP_TOKEN = "|"

# Default symmetric rank window for negative pools.
DEFAULT_NEGATIVE_WINDOW = 3


class SessionLogError(ValueError):
    """Malformed session log input."""


@dataclass(frozen=True)
class Document:
    doc_id: str
    title_tokens: tuple[str, ...]

    def __post_init__(self):
        if not self.doc_id:
            raise ValueError("doc_id must be non-empty")


@dataclass(frozen=True)
class Interaction:
    query_id: str
    query_tokens: tuple[str, ...]
    clicked_doc_ids: frozenset[str]
    candidate_doc_ids: tuple[str, ...]

    def __post_init__(self):
        if not self.clicked_doc_ids <= set(self.candidate_doc_ids):
            raise ValueError(
                f"{self.query_id}: clicked documents must be candidates"
            )


@dataclass(frozen=True)
class Session:
    session_id: str
    interactions: tuple[Interaction, ...]

    def __post_init__(self):
        if not self.interactions:
            raise ValueError(f"session {self.session_id} has no interactions")


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


@dataclass
class CorpusStats:
    doc_count: int
    total_token_count: int
    doc_freq: dict[str, int]
    avg_doc_length: float


def compute_corpus_stats(documents: dict[str, Document]) -> CorpusStats:
    doc_freq: dict[str, int] = {}
    total = 0
    for doc in documents.values():
        total += len(doc.title_tokens)
        for term in set(doc.title_tokens):
            doc_freq[term] = doc_freq.get(term, 0) + 1
    n = len(documents)
    return CorpusStats(
        doc_count=n,
        total_token_count=total,
        doc_freq=doc_freq,
        avg_doc_length=total / n if n else 0.0,
    )


def _candidate_rank(cand: dict) -> int:
    rank = cand["rank"]
    if type(rank) is not int:  # also rejects bool, a subclass of int
        raise ValueError(f"rank {rank!r} is not an integer")
    return rank


def parse_sessions(
    stream: Iterable[str],
) -> tuple[list[Session], dict[str, Document]]:
    """Parse a line-delimited session log.

    Each line is a JSON record with fields
    ``{session_id, query_position, query_text, candidates}`` where
    ``candidates`` is a list of ``{doc_id, title, rank, clicked}``.
    Returns time-ordered sessions plus a deduplicated document table.
    """
    from .bm25 import tokenize

    documents: dict[str, Document] = {}
    # session_id -> {position -> Interaction}
    by_session: dict[str, dict[int, Interaction]] = {}

    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise SessionLogError(f"line {lineno}: invalid JSON ({e.msg})")
        try:
            sid = str(rec["session_id"])
            position = int(rec["query_position"])
            query_text = rec["query_text"]
            candidates = rec["candidates"]
        except (KeyError, TypeError, ValueError) as e:
            raise SessionLogError(f"line {lineno}: missing or bad field ({e})")
        if not candidates:
            raise SessionLogError(
                f"line {lineno}: interaction has zero candidates"
            )
        interactions = by_session.setdefault(sid, {})
        if position in interactions:
            raise SessionLogError(
                f"line {lineno}: duplicate (session {sid!r}, position {position})"
            )

        try:
            ordered = sorted(candidates, key=_candidate_rank)
        except (KeyError, TypeError, ValueError) as e:
            raise SessionLogError(f"line {lineno}: missing or bad candidate rank ({e})")
        cand_ids = []
        clicked = set()
        for cand in ordered:
            try:
                doc_id = str(cand["doc_id"])
                title = cand["title"]
                is_clicked = bool(cand["clicked"])
            except (KeyError, TypeError) as e:
                raise SessionLogError(f"line {lineno}: bad candidate ({e})")
            if doc_id in cand_ids:
                raise SessionLogError(
                    f"line {lineno}: doc {doc_id!r} appears twice among the candidates"
                )
            tokens = tuple(tokenize(title))
            prev = documents.get(doc_id)
            if prev is not None and prev.title_tokens != tokens:
                raise SessionLogError(
                    f"line {lineno}: doc {doc_id!r} has conflicting titles"
                )
            documents[doc_id] = Document(doc_id, tokens)
            cand_ids.append(doc_id)
            if is_clicked:
                clicked.add(doc_id)
        interactions[position] = Interaction(
            query_id=f"{sid}:{position}",
            query_tokens=tuple(tokenize(query_text)),
            clicked_doc_ids=frozenset(clicked),
            candidate_doc_ids=tuple(cand_ids),
        )

    sessions = [
        Session(sid, tuple(inter[p] for p in sorted(inter)))
        for sid, inter in sorted(by_session.items())
    ]
    return sessions, documents


def _walk(
    sessions: Iterable[Session], documents: dict[str, Document]
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
                history.extend(documents[doc_id].title_tokens)


def build_contexts(
    sessions: Iterable[Session],
    documents: dict[str, Document],
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
    return contexts, skipped


def negative_window_pool(
    interaction: Interaction, clicked_doc_id: str, window: int
) -> list[str]:
    """Unclicked candidates within `window` rank positions of the click.

    Preserves logged order and never returns any clicked document.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    try:
        center = interaction.candidate_doc_ids.index(clicked_doc_id)
    except ValueError:
        raise ValueError(
            f"{clicked_doc_id!r} is not a candidate of {interaction.query_id}"
        )
    return [
        doc_id
        for i, doc_id in enumerate(interaction.candidate_doc_ids)
        if abs(i - center) <= window
        and doc_id not in interaction.clicked_doc_ids
    ]


def build_eval_items(
    sessions: Iterable[Session],
    documents: dict[str, Document],
) -> list[tuple[SearchContext, tuple[str, ...], frozenset[str]]]:
    """One evaluation slate per interaction with at least one click:
    (context, logged candidate list, clicked set)."""
    items = []
    for session_id, position, inter, ctx_tokens in _walk(sessions, documents):
        if inter.clicked_doc_ids:
            ctx = SearchContext(
                session_id=session_id,
                position=position,
                context_tokens=ctx_tokens,
                positive_doc_id=min(inter.clicked_doc_ids),
                negative_pool=tuple(
                    d for d in inter.candidate_doc_ids
                    if d not in inter.clicked_doc_ids
                ),
            )
            items.append((ctx, inter.candidate_doc_ids, inter.clicked_doc_ids))
    return items


# ---------------------------------------------------------------------------
# Bundle serialization (line-delimited JSON, deterministic field order)


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _records(fp: Iterable[str]) -> Iterator[dict]:
    for line in fp:
        line = line.strip()
        if line:
            yield json.loads(line)


def write_documents(documents: dict[str, Document], fp: IO[str]) -> None:
    for doc_id in sorted(documents):
        doc = documents[doc_id]
        fp.write(_dumps({"doc_id": doc.doc_id, "title_tokens": list(doc.title_tokens)}) + "\n")


def read_documents(fp: Iterable[str]) -> dict[str, Document]:
    return {
        rec["doc_id"]: Document(rec["doc_id"], tuple(rec["title_tokens"]))
        for rec in _records(fp)
    }


def write_sessions(sessions: Iterable[Session], fp: IO[str]) -> None:
    for session in sessions:
        rec = {
            "session_id": session.session_id,
            "interactions": [
                {
                    "query_id": i.query_id,
                    "query_tokens": list(i.query_tokens),
                    "clicked_doc_ids": sorted(i.clicked_doc_ids),
                    "candidate_doc_ids": list(i.candidate_doc_ids),
                }
                for i in session.interactions
            ],
        }
        fp.write(_dumps(rec) + "\n")


def read_sessions(fp: Iterable[str]) -> list[Session]:
    return [
        Session(
            rec["session_id"],
            tuple(
                Interaction(
                    query_id=i["query_id"],
                    query_tokens=tuple(i["query_tokens"]),
                    clicked_doc_ids=frozenset(i["clicked_doc_ids"]),
                    candidate_doc_ids=tuple(i["candidate_doc_ids"]),
                )
                for i in rec["interactions"]
            ),
        )
        for rec in _records(fp)
    ]


def write_contexts(contexts: Iterable[SearchContext], fp: IO[str]) -> None:
    for ctx in contexts:
        rec = {
            "session_id": ctx.session_id,
            "position": ctx.position,
            "context_tokens": list(ctx.context_tokens),
            "positive_doc_id": ctx.positive_doc_id,
            "negative_pool": list(ctx.negative_pool),
        }
        fp.write(_dumps(rec) + "\n")


def read_contexts(fp: Iterable[str]) -> list[SearchContext]:
    return [
        SearchContext(
            session_id=rec["session_id"],
            position=rec["position"],
            context_tokens=tuple(rec["context_tokens"]),
            positive_doc_id=rec["positive_doc_id"],
            negative_pool=tuple(rec["negative_pool"]),
        )
        for rec in _records(fp)
    ]
