"""Okapi BM25 lexical scoring over title-token documents.

The idf uses the +1-inside-log form, ln(1 + (N - df + 0.5)/(df + 0.5)),
which is never negative, so difficulty orderings derived from these
scores stay stable.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter
from dataclasses import dataclass
from math import log

import numpy as np

from .sessions import CorpusStats, Document, compute_corpus_stats

_TOKEN_RE = re.compile(r"[a-z0-9]+")

INDEX_FORMAT_VERSION = 1


def tokenize(text: str) -> list[str]:
    """Lowercase and split on whitespace/punctuation, dropping punctuation."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self):
        if self.k1 < 0:
            raise ValueError("k1 must be >= 0")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError("b must be in [0, 1]")


@dataclass
class LexicalIndex:
    stats: CorpusStats
    doc_ids: list[str]  # sorted; positions index the arrays below
    doc_index: dict[str, int]
    doc_lengths: np.ndarray  # int64, len == doc_count
    # term -> (doc positions, term frequencies), parallel int64 arrays
    postings: dict[str, tuple[np.ndarray, np.ndarray]]

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(f"v{INDEX_FORMAT_VERSION}".encode())
        for doc_id, length in zip(self.doc_ids, self.doc_lengths):
            h.update(f"{doc_id}\x00{length}\n".encode())
        for term in sorted(self.postings):
            pos, tfs = self.postings[term]
            h.update(term.encode())
            h.update(pos.tobytes())
            h.update(tfs.tobytes())
        return h.hexdigest()


def build_index(documents: dict[str, Document]) -> LexicalIndex:
    if not documents:
        raise ValueError("cannot index an empty document table")
    doc_ids = sorted(documents)
    doc_index = {d: i for i, d in enumerate(doc_ids)}
    lengths = np.array(
        [len(documents[d].title_tokens) for d in doc_ids], dtype=np.int64
    )
    raw: dict[str, list[tuple[int, int]]] = {}
    for i, doc_id in enumerate(doc_ids):
        for term, tf in Counter(documents[doc_id].title_tokens).items():
            raw.setdefault(term, []).append((i, tf))
    postings = {
        term: (
            np.array([p for p, _ in pairs], dtype=np.int64),
            np.array([tf for _, tf in pairs], dtype=np.int64),
        )
        for term, pairs in raw.items()
    }
    return LexicalIndex(
        stats=compute_corpus_stats(documents),
        doc_ids=doc_ids,
        doc_index=doc_index,
        doc_lengths=lengths,
        postings=postings,
    )


def idf(index: LexicalIndex, term: str) -> float:
    df = index.stats.doc_freq.get(term, 0)
    n = index.stats.doc_count
    return log(1.0 + (n - df + 0.5) / (df + 0.5))


def score(
    index: LexicalIndex,
    params: Bm25Params,
    query_tokens: list[str] | tuple[str, ...],
    doc_id: str,
) -> float:
    """BM25 score of one document; additive over query token occurrences."""
    if doc_id not in index.doc_index:
        raise KeyError(f"unknown doc_id {doc_id!r}")
    pos = index.doc_index[doc_id]
    dl = float(index.doc_lengths[pos])
    avgdl = index.stats.avg_doc_length
    total = 0.0
    for term in query_tokens:
        entry = index.postings.get(term)
        if entry is None:
            continue
        positions, tfs = entry
        hit = np.searchsorted(positions, pos)
        if hit >= len(positions) or positions[hit] != pos:
            continue
        tf = float(tfs[hit])
        denom = tf + params.k1 * (1.0 - params.b + params.b * dl / avgdl)
        total += idf(index, term) * tf * (params.k1 + 1.0) / denom
    return total


def score_all(
    index: LexicalIndex,
    params: Bm25Params,
    query_tokens: list[str] | tuple[str, ...],
) -> np.ndarray:
    """BM25 scores of every indexed document for one query (float64)."""
    scores = np.zeros(index.stats.doc_count, dtype=np.float64)
    avgdl = index.stats.avg_doc_length
    norm = params.k1 * (1.0 - params.b + params.b * index.doc_lengths / avgdl)
    for term, count in Counter(query_tokens).items():
        entry = index.postings.get(term)
        if entry is None:
            continue
        positions, tfs = entry
        tf = tfs.astype(np.float64)
        contrib = idf(index, term) * tf * (params.k1 + 1.0) / (tf + norm[positions])
        scores[positions] += count * contrib
    return scores
