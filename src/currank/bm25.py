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
from itertools import chain, repeat
from math import inf, log
from typing import Sequence

import numpy as np

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
        if not 0 <= self.k1 < inf:  # NaN too
            raise ValueError("k1 must be >= 0 and finite")
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


def build_index(documents: dict[str, tuple[str, ...]]) -> LexicalIndex:
    if not documents:
        raise ValueError("cannot index an empty document table")
    doc_ids = sorted(documents)
    lengths = np.array([len(documents[d]) for d in doc_ids], dtype=np.int64)
    raw: dict[str, list[tuple[int, int]]] = {}
    for i, doc_id in enumerate(doc_ids):
        for term, tf in Counter(documents[doc_id]).items():
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


def term_weights(index: LexicalIndex, params: Bm25Params) -> tuple:
    """Every term's BM25 weights idf · tf · (k1 + 1) / (tf + norm), computed once
    for all queries, as (term ids, ptr, positions, weights): the term with id i
    weighs doc positions[ptr[i]:ptr[i + 1]] by that slice of weights."""
    n = len(index.doc_ids)
    norm = params.k1 * (1.0 - params.b + params.b * index.doc_lengths / index.avg_doc_length)
    postings = index.postings.values()
    df = [len(pos) for pos, _ in postings]
    positions, tfs = map(np.concatenate, zip((np.zeros(0, np.int64),) * 2, *postings))
    tf = tfs.astype(np.float64)
    idfs = np.repeat([idf(n, k) for k in df], df)  # math.log: np.log may differ in a last bit
    return (dict(zip(index.postings, range(len(df)))), np.cumsum([0, *df]), positions,
            idfs * tf * (params.k1 + 1.0) / (tf + norm[positions]))


def score_all(weights: tuple, n_docs: int, queries: Sequence[Sequence[str]]) -> np.ndarray:
    """BM25 scores (float64) of all n_docs indexed documents, one row per
    token sequence of `queries`. np.bincount adds into zeros in input order,
    and its input is in (query, `Counter` term, posting) order: each cell
    gets the additions of `scores[positions] += count * contrib`, term by term."""
    term_id, ptr, positions, contrib = weights  # see term_weights
    n_terms, lengths = len(term_id), np.fromiter(map(len, queries), np.intp, len(queries))
    terms = np.fromiter(map(term_id.get, chain.from_iterable(queries), repeat(n_terms)),
                        np.intp, lengths.sum())
    keys = np.repeat(np.arange(len(queries)) * n_terms, lengths) + terms
    keys, first, count = np.unique(keys[terms < n_terms], return_index=True, return_counts=True)
    order = np.argsort(first)  # each query's terms in first-occurrence order
    query, term = np.divmod(keys[order], n_terms)
    start, size = ptr[term], np.diff(ptr)[term]
    at = np.repeat(start - np.cumsum(size) + size, size) + np.arange(size.sum())
    scores = np.bincount(np.repeat(query * n_docs, size) + positions[at],
                         np.repeat(count[order], size) * contrib[at],
                         minlength=len(queries) * n_docs)
    # np.bincount gives int64 zeros for a block without one known token.
    return scores.astype(np.float64, copy=False).reshape(len(queries), n_docs)
