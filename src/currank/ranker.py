"""Trainable context-aware ranking model.

Same two-tower family as the dense scorer but independently
parameterized, with a temperature on the dot product and a listwise
softmax cross-entropy loss over one positive and m sampled negatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import towers
from .sessions import Document
from .towers import DualEncoderParams, TokenRows, Vocab, token_rows


@dataclass
class RankerParams:
    encoder: DualEncoderParams
    tau: float = 1.0  # temperature; fixed during training

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be > 0")


@dataclass
class LossReport:
    loss: float
    grads: DualEncoderParams  # congruent with encoder parameters
    grad_tau: float
    positive_ranks: list[int]  # 1-based rank of d+ within each item's slate


def init_ranker(
    vocab_size: int,
    d_emb: int,
    hidden: int,
    rng: np.random.Generator,
    tau: float = 1.0,
) -> RankerParams:
    return RankerParams(
        encoder=towers.init_params(vocab_size, d_emb, hidden, rng), tau=tau
    )


def loss_and_grad(
    params: RankerParams, ctx_rows: TokenRows, doc_rows: TokenRows
) -> LossReport:
    """Mean listwise cross-entropy over a batch with exact gradients.

    Rows as EncodedCorpus.batch_rows lays them out: item i's slate is its
    positive then its m negatives. The softmax subtracts the row max.
    """
    n = len(ctx_rows)
    if not n or len(doc_rows) % n:
        raise ValueError("need a non-empty batch with m negatives in every item")
    width = len(doc_rows) // n
    c_enc, c_cache = towers.encode_batch(params.encoder, ctx_rows, "context")
    d_enc, d_cache = towers.encode_batch(params.encoder, doc_rows, "document")
    d_enc3 = d_enc.reshape(n, width, -1)
    dots = np.einsum("nd,nwd->nw", c_enc, d_enc3)
    scores = dots / params.tau
    if not np.all(np.isfinite(scores)):
        raise FloatingPointError("non-finite ranker scores")
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    loss = float(-np.mean(np.log(probs[:, 0])))
    positive_ranks = (
        1 + np.count_nonzero(scores[:, 1:] > scores[:, :1], axis=1)
    ).tolist()

    dscores = probs.copy()
    dscores[:, 0] -= 1.0
    dscores /= n
    ddots = dscores / params.tau
    grad_tau = float(-(dscores * dots).sum() / params.tau**2)
    grads = params.encoder.like(np.zeros_like(params.encoder.flat))
    gc = np.einsum("nw,nwd->nd", ddots, d_enc3)
    gd = (ddots[:, :, None] * c_enc[:, None, :]).reshape(n * width, -1)
    towers.backward_batch(params.encoder, [(c_cache, gc), (d_cache, gd)], grads)
    return LossReport(
        loss=loss, grads=grads, grad_tau=grad_tau, positive_ranks=positive_ranks
    )


def rank_slate(
    params: RankerParams,
    vocab: Vocab,
    context_tokens: Sequence[str],
    candidate_doc_ids: Sequence[str],
    documents: dict[str, Document],
) -> list[tuple[str, float]]:
    """Rank a candidate slate: score descending, ties by doc id ascending."""
    if not candidate_doc_ids:
        raise ValueError("candidate list must be non-empty")
    c = towers.encode(params.encoder, vocab.encode(context_tokens), "context")
    doc_rows = token_rows(vocab.encode(documents[d].title_tokens) for d in candidate_doc_ids)
    d_enc, _ = towers.encode_batch(params.encoder, doc_rows, "document")
    return order_slate(candidate_doc_ids, np.einsum("ij,j->i", d_enc, c) / params.tau)


def order_slate(
    doc_ids: Sequence[str], scores: np.ndarray
) -> list[tuple[str, float]]:
    """(doc id, score) pairs by score descending, ties by doc id ascending."""
    s = scores.tolist()
    order = sorted(range(len(doc_ids)), key=lambda i: (-s[i], doc_ids[i]))
    return [(doc_ids[i], s[i]) for i in order]
