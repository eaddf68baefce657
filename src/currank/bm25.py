"""Okapi BM25 lexical scoring over title-token documents.

The idf uses the +1-inside-log form, ln(1 + (N - df + 0.5)/(df + 0.5)),
which is never negative, so difficulty orderings derived from these
scores stay stable.

A query's score vector is the sum, over its distinct terms in first-
occurrence (`Counter`) order, of count × the term's weight vector, added
into zeros one term at a time. Floating-point addition does not
associate, so that order is part of the scores' bits: every scorer and
the ledgers built from them rely on it staying fixed.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter
from dataclasses import dataclass
from math import log
from typing import Sequence

import numpy as np

from .sessions import Document

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
    doc_ids: list[str]  # sorted; positions index the arrays below
    doc_lengths: np.ndarray  # int64, one per document
    avg_doc_length: float
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
        doc_ids=doc_ids,
        doc_lengths=lengths,
        avg_doc_length=int(lengths.sum()) / len(doc_ids),
        postings=postings,
    )


def idf(n: int, df: int) -> float:
    """idf of a term that occurs in df of the n indexed documents."""
    return log(1.0 + (n - df + 0.5) / (df + 0.5))


def term_weights(index: LexicalIndex, params: Bm25Params) -> dict:
    """term -> (doc positions, the term's BM25 weight idf · tf · (k1 + 1)
    / (tf + norm) at each), parallel arrays computed once for all queries."""
    n = len(index.doc_ids)
    norm = params.k1 * (1.0 - params.b + params.b * index.doc_lengths / index.avg_doc_length)
    weights = {}
    for term, (positions, tfs) in index.postings.items():
        tf = tfs.astype(np.float64)
        contrib = idf(n, len(positions)) * tf * (params.k1 + 1.0) / (tf + norm[positions])
        weights[term] = (positions, contrib)
    return weights


def score_all(weights: dict, n_docs: int, query_tokens: Sequence[str]) -> np.ndarray:
    """BM25 scores of all n_docs indexed documents for one query (float64)."""
    scores = np.zeros(n_docs, dtype=np.float64)
    for term, count in Counter(query_tokens).items():
        entry = weights.get(term)
        if entry is not None:
            positions, contrib = entry
            scores[positions] += count * contrib
    return scores
