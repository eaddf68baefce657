"""Trainable dual-encoder relevance scorer.

Scores a (context, document) pair as the dot product of the two tower
encodings. Training uses softmax cross-entropy with in-batch negatives:
within a batch of positive pairs, each context's own document is the
positive and every other document in the batch is a negative.
"""

from __future__ import annotations

import numpy as np

from . import towers
from .towers import DualEncoderParams, TokenRows


def in_batch_loss_and_grad(
    params: DualEncoderParams, ctx_rows: TokenRows, doc_rows: TokenRows
) -> tuple[float, DualEncoderParams]:
    """Mean in-batch softmax cross-entropy and its exact gradient.

    Row i of the score matrix holds context i against every document of
    the batch, n >= 2 rows on each side; the diagonal entry is the positive.
    """
    n = len(ctx_rows)
    c_enc, c_cache = towers.encode_batch(params, ctx_rows, "context")
    d_enc, d_cache = towers.encode_batch(params, doc_rows, "document")
    scores = c_enc @ d_enc.T
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    loss = float(-np.mean(np.log(probs[np.arange(n), np.arange(n)])))
    dscores = probs.copy()
    dscores[np.arange(n), np.arange(n)] -= 1.0
    dscores /= n
    grads = params.like(np.zeros_like(params.flat))
    towers.backward_batch(
        params, [(c_cache, dscores @ d_enc), (d_cache, dscores.T @ c_enc)], grads)
    return loss, grads


def train_in_batch(
    params: DualEncoderParams,
    ctx_rows: TokenRows,
    doc_rows: TokenRows,
    batch_size: int,
    epochs: int,
    learning_rate: float,
    seed: int,
) -> list[float]:
    """SGD fine-tuning on positive pairs: context row i with document row i.

    Updates `params` in place and returns the mean loss per epoch.
    Deterministic under a fixed seed.
    """
    if batch_size < 2:
        raise ValueError("batch_size must be >= 2 for in-batch negatives")
    if len(ctx_rows) < 2 or len(doc_rows) != len(ctx_rows):
        raise ValueError("need at least 2 positive pairs, one document row per context row")
    rng = np.random.default_rng(seed)
    epoch_losses = []
    for _ in range(epochs):
        order = rng.permutation(len(ctx_rows))
        losses = []
        for start in range(0, len(order), batch_size):
            batch = order[start : start + batch_size]
            if len(batch) < 2:
                continue  # a trailing singleton has no in-batch negatives
            loss, grads = in_batch_loss_and_grad(
                params, ctx_rows.take(batch), doc_rows.take(batch)
            )
            params.flat[...] -= learning_rate * grads.flat
            losses.append(loss)
        epoch_losses.append(float(np.mean(losses)))
    return epoch_losses
