"""Synthetic session-log generator with a planted topical intent.

Each session gets a hidden topic. Queries sample that topic's terms and
the clicked candidate comes from the topic's document pool, so it shares
strictly more topic terms with the session intent than the cross-topic
distractors. With probability noise_rate the click lands on a distractor
instead. The hidden topic labels are returned separately (sidecar file)
and never stored on the session objects themselves.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import IO

from .sessions import Document, Interaction, Session, _dumps, _records

MIN_TERMS_PER_TOPIC = 4
_QUERY_TERMS = 2
_TITLE_TERMS = 3


@dataclass(frozen=True)
class SynthSpec:
    n_sessions: int
    vocab_size: int = 400
    n_topics: int = 20
    queries_per_session: int = 3
    candidates_per_query: int = 10
    noise_rate: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name in ("n_sessions", "vocab_size", "n_topics",
                     "queries_per_session", "candidates_per_query"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 <= self.noise_rate < 1.0:
            raise ValueError("noise_rate must be in [0, 1)")
        if self.vocab_size < self.n_topics * MIN_TERMS_PER_TOPIC:
            raise ValueError(
                f"vocab_size must be >= n_topics * {MIN_TERMS_PER_TOPIC}"
            )


def generate_synthetic(
    spec: SynthSpec,
) -> tuple[list[Session], dict[str, Document], dict[str, int]]:
    """Returns (sessions, document table, hidden session->topic labels)."""
    rng = random.Random(spec.seed)
    terms_per_topic = spec.vocab_size // spec.n_topics
    topic_terms = [
        [f"w{t * terms_per_topic + j:05d}" for j in range(terms_per_topic)]
        for t in range(spec.n_topics)
    ]

    # A fixed per-topic document pool keeps the corpus desk-sized.
    pool_size = max(2 * spec.candidates_per_query, 12)
    documents: dict[str, Document] = {}
    pools: list[list[str]] = []
    for t in range(spec.n_topics):
        pool = []
        for j in range(pool_size):
            doc_id = f"d{t:03d}_{j:04d}"
            title = tuple(rng.sample(topic_terms[t], min(_TITLE_TERMS, terms_per_topic)))
            documents[doc_id] = Document(doc_id, title)
            pool.append(doc_id)
        pools.append(pool)

    sessions: list[Session] = []
    labels: dict[str, int] = {}
    used_docs: set[str] = set()
    for s in range(spec.n_sessions):
        session_id = f"s{s:06d}"
        topic = rng.randrange(spec.n_topics)
        labels[session_id] = topic
        interactions = []
        for position in range(1, spec.queries_per_session + 1):
            query = tuple(
                rng.sample(topic_terms[topic], min(_QUERY_TERMS, terms_per_topic))
            )
            relevant = rng.choice(pools[topic])
            distractors = []
            while len(distractors) < spec.candidates_per_query - 1:
                other = rng.randrange(spec.n_topics)
                if other == topic and spec.n_topics > 1:
                    continue
                candidate = rng.choice(pools[other])
                if candidate != relevant and candidate not in distractors:
                    distractors.append(candidate)
            candidates = distractors + [relevant]
            rng.shuffle(candidates)
            if distractors and rng.random() < spec.noise_rate:
                clicked = rng.choice([c for c in candidates if c != relevant])
            else:
                clicked = relevant
            used_docs.update(candidates)
            interactions.append(
                Interaction(
                    query_id=f"{session_id}:{position}",
                    query_tokens=query,
                    clicked_doc_ids=frozenset({clicked}),
                    candidate_doc_ids=tuple(candidates),
                )
            )
        sessions.append(Session(session_id, tuple(interactions)))

    table = {d: documents[d] for d in sorted(used_docs)}
    return sessions, table, labels


def write_labels(labels: dict[str, int], fp: IO[str]) -> None:
    for session_id in sorted(labels):
        fp.write(_dumps({"session_id": session_id, "topic_id": labels[session_id]}) + "\n")


def read_labels(fp) -> dict[str, int]:
    return {rec["session_id"]: rec["topic_id"] for rec in _records(fp)}


def write_session_log(sessions: list[Session], documents: dict[str, Document], fp: IO[str]) -> None:
    """Emit sessions in the external line-delimited log format."""
    for session in sessions:
        for position, inter in enumerate(session.interactions, start=1):
            rec = {
                "session_id": session.session_id,
                "query_position": position,
                "query_text": " ".join(inter.query_tokens),
                "candidates": [
                    {
                        "doc_id": doc_id,
                        "title": " ".join(documents[doc_id].title_tokens),
                        "rank": rank,
                        "clicked": doc_id in inter.clicked_doc_ids,
                    }
                    for rank, doc_id in enumerate(inter.candidate_doc_ids, start=1)
                ],
            }
            fp.write(_dumps(rec) + "\n")
