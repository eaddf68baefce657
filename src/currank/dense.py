"""Trainable dual-encoder relevance scorer.

Scores a (context, document) pair as the dot product of the two tower
encodings. Training uses softmax cross-entropy with in-batch negatives:
within a batch of positive pairs, each context's own document is the
positive and every other document in the batch is a negative.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import towers
from .towers import DualEncoderParams, Vocab


def dense_score(
    params: DualEncoderParams,
    vocab: Vocab,
    context_tokens: Sequence[str],
    doc_tokens: Sequence[str],
) -> float:
    c = towers.encode(params, vocab.encode(context_tokens), "context")
    d = towers.encode(params, vocab.encode(doc_tokens), "document")
    return float(c @ d)


def in_batch_loss_and_grad(
    params: DualEncoderParams,
    ctx_token_ids: Sequence[Sequence[int]],
    doc_token_ids: Sequence[Sequence[int]],
) -> tuple[float, DualEncoderParams]:
    """Mean in-batch softmax cross-entropy and its exact gradient.

    Row i of the score matrix holds context i against every document in
    the batch; the diagonal entry is the positive.
    """
    n = len(ctx_token_ids)
    if n != len(doc_token_ids):
        raise ValueError("context/document batch size mismatch")
    if n < 2:
        raise ValueError("in-batch negatives need a batch of at least 2")
    c_enc, c_cache = towers.encode_batch(params, ctx_token_ids, "context")
    d_enc, d_cache = towers.encode_batch(params, doc_token_ids, "document")
    scores = c_enc @ d_enc.T
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    loss = float(-np.mean(np.log(probs[np.arange(n), np.arange(n)])))
    dscores = probs.copy()
    dscores[np.arange(n), np.arange(n)] -= 1.0
    dscores /= n
    grads = towers.zero_grads(params)
    towers.backward_batch(params, c_cache, dscores @ d_enc, grads)
    towers.backward_batch(params, d_cache, dscores.T @ c_enc, grads)
    return loss, grads


def train_in_batch(
    params: DualEncoderParams,
    vocab: Vocab,
    pairs: Sequence[tuple[Sequence[str], Sequence[str]]],
    batch_size: int,
    epochs: int,
    learning_rate: float,
    seed: int,
) -> list[float]:
    """SGD fine-tuning on (context tokens, positive doc tokens) pairs.

    Updates `params` in place and returns the mean loss per epoch.
    Deterministic under a fixed seed.
    """
    if batch_size < 2:
        raise ValueError("batch_size must be >= 2 for in-batch negatives")
    if len(pairs) < 2:
        raise ValueError("need at least 2 positive pairs")
    ctx_ids = [vocab.encode(c) for c, _ in pairs]
    doc_ids = [vocab.encode(d) for _, d in pairs]
    rng = np.random.default_rng(seed)
    arrays = towers.param_arrays(params)
    epoch_losses = []
    for _ in range(epochs):
        order = rng.permutation(len(pairs))
        losses = []
        for start in range(0, len(order), batch_size):
            batch = order[start : start + batch_size]
            if len(batch) < 2:
                continue  # a trailing singleton has no in-batch negatives
            loss, grads = in_batch_loss_and_grad(
                params,
                [ctx_ids[i] for i in batch],
                [doc_ids[i] for i in batch],
            )
            for p, g in zip(arrays, towers.param_arrays(grads)):
                p -= learning_rate * g
            losses.append(loss)
        epoch_losses.append(float(np.mean(losses)))
    return epoch_losses
