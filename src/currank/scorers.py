"""Frozen relevance scorers that feed the difficulty functions.

Every scorer has one surface: `doc_ids` is the corpus order (the
sorted doc ids), `score_corpus` scores a context against every document
in that order, and `digest` identifies the frozen scorer. The ledger
reads a context's positive (whose rank needs the whole corpus) and its
negatives out of one such array.
"""

from __future__ import annotations

import hashlib
from typing import Protocol, Sequence

import numpy as np

from . import bm25, towers
from .sessions import Document
from .towers import DualEncoderParams, Vocab


class ScoreSource(Protocol):
    doc_ids: list[str]

    def score_corpus(self, context_tokens: Sequence[str]) -> np.ndarray: ...

    def digest(self) -> str: ...


class Bm25Scorer:
    def __init__(self, index: bm25.LexicalIndex, params: bm25.Bm25Params):
        self.index = index
        self.params = params
        self.doc_ids = index.doc_ids

    def score_corpus(self, context_tokens: Sequence[str]) -> np.ndarray:
        return bm25.score_all(self.index, self.params, context_tokens)

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(f"bm25:k1={self.params.k1!r}:b={self.params.b!r}:".encode())
        h.update(self.index.digest().encode())
        return h.hexdigest()


class DenseScorer:
    def __init__(
        self,
        params: DualEncoderParams,
        vocab: Vocab,
        documents: dict[str, Document],
    ):
        self.params = params
        self.vocab = vocab
        self.doc_ids = sorted(documents)
        doc_rows = towers.token_rows(
            vocab.encode(documents[d].title_tokens) for d in self.doc_ids
        )
        self._doc_enc, _ = towers.encode_batch(params, doc_rows, "document")

    def score_corpus(self, context_tokens: Sequence[str]) -> np.ndarray:
        c = towers.encode(
            self.params, self.vocab.encode(context_tokens), "context"
        )
        return self._doc_enc @ c

    def digest(self) -> str:
        h = hashlib.sha256(b"dense:")
        h.update(np.ascontiguousarray(self.params.flat, dtype="<f8").tobytes())
        for tok in self.vocab.tokens:
            h.update(tok.encode())
            h.update(b"\x00")
        return h.hexdigest()
