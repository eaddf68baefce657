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

from .sessions import Interaction, Session, _dumps

MIN_TERMS_PER_TOPIC = 4  # above the terms a query or a title samples from its topic
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
) -> tuple[list[Session], dict[str, tuple[str, ...]], dict[str, int]]:
    """Returns (sessions, document table, hidden session->topic labels). Each index below n
    is drawn as random.Random's choice, randrange and shuffle draw one, getrandbits(
    n.bit_length()) until it is below n: their corpus, from far fewer calls."""
    rng = random.Random(spec.seed)
    bits = rng.getrandbits
    terms_per_topic = spec.vocab_size // spec.n_topics
    topic_terms = [
        [f"w{t * terms_per_topic + j:05d}" for j in range(terms_per_topic)]
        for t in range(spec.n_topics)
    ]

    # A fixed per-topic document pool keeps the corpus desk-sized.
    pool_size = max(2 * spec.candidates_per_query, 12)
    pools = [[f"d{t:03d}_{j:04d}" for j in range(pool_size)] for t in range(spec.n_topics)]
    documents = {doc_id: tuple(rng.sample(topic_terms[t], _TITLE_TERMS))
                 for t, pool in enumerate(pools) for doc_id in pool}

    n_topics, n_other = spec.n_topics, spec.candidates_per_query - 1
    topic_bits, pool_bits, other_bits = (n.bit_length() for n in (n_topics, pool_size, n_other))
    swaps = [(i, (i + 1).bit_length()) for i in range(n_other, 0, -1)]  # shuffle's x[i], x[j <= i]
    sessions: list[Session] = []
    labels: dict[str, int] = {}
    used_docs: set[str] = set()
    for s in range(spec.n_sessions):
        session_id = f"s{s:06d}"
        while (topic := bits(topic_bits)) >= n_topics: pass
        labels[session_id] = topic
        interactions = []
        for position in range(1, spec.queries_per_session + 1):
            query = tuple(rng.sample(topic_terms[topic], _QUERY_TERMS))
            while (j := bits(pool_bits)) >= pool_size: pass
            relevant = pools[topic][j]
            distractors = []
            while len(distractors) < n_other:
                while (other := bits(topic_bits)) >= n_topics: pass
                if other == topic and n_topics > 1:
                    continue
                while (j := bits(pool_bits)) >= pool_size: pass
                candidate = pools[other][j]
                if candidate != relevant and candidate not in distractors:
                    distractors.append(candidate)
            candidates = distractors + [relevant]
            for i, k in swaps:
                while (j := bits(k)) > i: pass
                candidates[i], candidates[j] = candidates[j], candidates[i]
            clicked = relevant
            if distractors and rng.random() < spec.noise_rate:
                while (j := bits(other_bits)) >= n_other: pass
                clicked = [c for c in candidates if c != relevant][j]
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
        fp.write(f'{{"session_id":{_dumps(session_id)},"topic_id":{labels[session_id]:d}}}\n')


def write_session_log(sessions: list[Session], documents: dict[str, tuple[str, ...]],
                      fp: IO[str]) -> None:
    """Emit sessions in the external log format; each (doc, rank, clicked) is serialized once."""
    titles = {doc_id: " ".join(title) for doc_id, title in documents.items()}
    candidates: dict[tuple[str, int, bool], str] = {}
    for session in sessions:
        for position, inter in enumerate(session.interactions, start=1):
            keys = [(doc_id, rank, doc_id in inter.clicked_doc_ids)
                    for rank, doc_id in enumerate(inter.candidate_doc_ids, start=1)]
            for key in keys:
                if key not in candidates:
                    doc_id, rank, clicked = key
                    candidates[key] = _dumps({"doc_id": doc_id, "title": titles[doc_id],
                                              "rank": rank, "clicked": clicked})
            fp.write(f'{{"candidates":[{",".join(map(candidates.__getitem__, keys))}],'
                     f'"query_position":{position:d},'
                     f'"query_text":{_dumps(" ".join(inter.query_tokens))},'
                     f'"session_id":{_dumps(session.session_id)}}}\n')
