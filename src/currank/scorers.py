"""Frozen relevance scorers that feed the difficulty functions.

Every scorer has one surface: `doc_ids` is the corpus order (the
sorted doc ids), `score_corpus` scores a block of SearchContexts against
every document in that order, one row per context, and `digest`
identifies the frozen scorer. The ledger reads a context's positive
(whose rank needs the whole corpus) and its negatives out of its row.
"""

from __future__ import annotations

import hashlib
from typing import Protocol, Sequence

import numpy as np

from . import bm25, towers
from .sessions import SearchContext
from .towers import DualEncoderParams, EncodedCorpus, Vocab


class ScoreSource(Protocol):
    doc_ids: list[str]

    def score_corpus(self, ctxs: Sequence[SearchContext]) -> np.ndarray: ...

    def digest(self) -> str: ...


class Bm25Scorer:
    def __init__(self, index: bm25.LexicalIndex, params: bm25.Bm25Params):
        self.index = index
        self.params = params
        self.doc_ids = index.doc_ids
        self._weights = bm25.term_weights(index, params)

    def score_corpus(self, ctxs: Sequence[SearchContext]) -> np.ndarray:
        return bm25.score_all(self._weights, len(self.doc_ids), [c.context_tokens for c in ctxs])

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(f"bm25:k1={self.params.k1!r}:b={self.params.b!r}:".encode())
        h.update(self.index.digest().encode())
        return h.hexdigest()


class DenseScorer:
    """Scores the contexts and documents of `corpus`, which `vocab` encoded,
    from one forward pass per tower. `fit_losses` are the epoch losses of
    the fit that produced `params`, if this run fitted them."""

    def __init__(self, params: DualEncoderParams, vocab: Vocab, corpus: EncodedCorpus,
                 fit_losses: list[float] | None = None):
        self.params = params
        self.vocab = vocab
        self.fit_losses = fit_losses
        self.doc_ids = sorted(corpus.doc_row)
        self._context_row = corpus.context_row
        self._ctx_enc, _ = towers.encode_batch(params, corpus.contexts, "context")
        doc_enc, _ = towers.encode_batch(params, corpus.docs, "document")
        self._doc_enc = doc_enc[[corpus.doc_row[d] for d in self.doc_ids]]

    def score_corpus(self, ctxs: Sequence[SearchContext]) -> np.ndarray:
        # A mat-vec per context: a matrix product's bits may depend on a row's place.
        block = np.empty((len(ctxs), len(self.doc_ids)), dtype=self._doc_enc.dtype)
        for row, c in zip(block, ctxs):
            np.matmul(self._doc_enc, self._ctx_enc[self._context_row[c.context_id]], out=row)
        return block

    def digest(self) -> str:
        h = hashlib.sha256(b"dense:")
        h.update(np.ascontiguousarray(self.params.flat, dtype="<f8").tobytes())
        for tok in self.vocab.tokens:
            h.update(tok.encode())
            h.update(b"\x00")
        return h.hexdigest()
