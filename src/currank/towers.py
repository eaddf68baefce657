"""Two-tower mean-pooling encoder with exact hand-written gradients.

Both the relevance scorer and the trainable ranker use this family:
a shared token embedding table feeding one feed-forward tower for
contexts and one for documents:

    encode(tokens) = W2 @ tanh(W1 @ mean(emb[tokens]) + b1) + b2

Gradients are implemented by hand so they can be validated against
central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

PAD_TOKEN = "<pad>"  # reserved embedding used for empty token lists
UNK_TOKEN = "<unk>"

# Instrumentation: number of single-sequence encodes performed.
ENCODE_CALLS = 0


class Vocab:
    """Token-to-id map with reserved pad (empty) and unknown ids."""

    def __init__(self, tokens: Iterable[str]):
        uniq = sorted(set(tokens) - {PAD_TOKEN, UNK_TOKEN})
        self.tokens = [PAD_TOKEN, UNK_TOKEN] + uniq
        self.index = {t: i for i, t in enumerate(self.tokens)}

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, tokens: Sequence[str]) -> list[int]:
        idx = self.index
        return [idx.get(t, 1) for t in tokens]


@dataclass
class Tower:
    w1: np.ndarray  # (hidden, d_emb)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (d_emb, hidden)
    b2: np.ndarray  # (d_emb,)


@dataclass
class DualEncoderParams:
    emb: np.ndarray  # (vocab, d_emb), shared by both towers
    ctx_tower: Tower
    doc_tower: Tower

    @property
    def d_emb(self) -> int:
        return self.emb.shape[1]

    @property
    def hidden(self) -> int:
        return self.ctx_tower.w1.shape[0]

    def tower(self, which: str) -> Tower:
        if which == "context":
            return self.ctx_tower
        if which == "document":
            return self.doc_tower
        raise ValueError(f"unknown tower {which!r}")


def init_params(
    vocab_size: int, d_emb: int, hidden: int, rng: np.random.Generator
) -> DualEncoderParams:
    def tower() -> Tower:
        return Tower(
            w1=rng.normal(0.0, 0.2, size=(hidden, d_emb)),
            b1=np.zeros(hidden),
            w2=rng.normal(0.0, 0.2, size=(d_emb, hidden)),
            b2=np.zeros(d_emb),
        )

    emb = rng.normal(0.0, 0.2, size=(vocab_size, d_emb))
    return DualEncoderParams(emb=emb, ctx_tower=tower(), doc_tower=tower())


def zero_grads(params: DualEncoderParams) -> DualEncoderParams:
    def zt(t: Tower) -> Tower:
        return Tower(
            np.zeros_like(t.w1), np.zeros_like(t.b1),
            np.zeros_like(t.w2), np.zeros_like(t.b2),
        )

    return DualEncoderParams(
        emb=np.zeros_like(params.emb),
        ctx_tower=zt(params.ctx_tower),
        doc_tower=zt(params.doc_tower),
    )


def encode(
    params: DualEncoderParams, token_ids: Sequence[int], tower: str
) -> np.ndarray:
    """Encode one token-id sequence through the named tower."""
    global ENCODE_CALLS
    ENCODE_CALLS += 1
    t = params.tower(tower)
    if token_ids:
        pooled = params.emb[list(token_ids)].mean(axis=0)
    else:
        pooled = params.emb[0]
    h = np.tanh(t.w1 @ pooled + t.b1)
    return t.w2 @ h + t.b2


@dataclass
class ForwardCache:
    tower: str
    token_ids: list[list[int]]
    pooled: np.ndarray  # (n, d_emb)
    hidden: np.ndarray  # (n, hidden), post-tanh


def encode_batch(
    params: DualEncoderParams, sequences: Sequence[Sequence[int]], tower: str
) -> tuple[np.ndarray, ForwardCache]:
    """Encode many sequences; returns (n, d_emb) outputs plus a cache
    for the backward pass."""
    global ENCODE_CALLS
    ENCODE_CALLS += len(sequences)
    t = params.tower(tower)
    pooled = np.empty((len(sequences), params.d_emb))
    for i, ids in enumerate(sequences):
        if len(ids):
            pooled[i] = params.emb[list(ids)].mean(axis=0)
        else:
            pooled[i] = params.emb[0]
    hidden = np.tanh(pooled @ t.w1.T + t.b1)
    out = hidden @ t.w2.T + t.b2
    cache = ForwardCache(
        tower=tower,
        token_ids=[list(ids) for ids in sequences],
        pooled=pooled,
        hidden=hidden,
    )
    return out, cache


def backward_batch(
    params: DualEncoderParams,
    cache: ForwardCache,
    grad_out: np.ndarray,
    grads: DualEncoderParams,
) -> None:
    """Accumulate parameter gradients for encode_batch outputs.

    grad_out has shape (n, d_emb); accumulation order is fixed so
    repeated runs produce bit-identical gradients.
    """
    t = params.tower(cache.tower)
    gt = grads.tower(cache.tower)
    gt.w2 += grad_out.T @ cache.hidden
    gt.b2 += grad_out.sum(axis=0)
    ghidden = grad_out @ t.w2
    gz = ghidden * (1.0 - cache.hidden**2)
    gt.w1 += gz.T @ cache.pooled
    gt.b1 += gz.sum(axis=0)
    gpooled = gz @ t.w1
    for i, ids in enumerate(cache.token_ids):
        if ids:
            share = gpooled[i] / len(ids)
            for tok in ids:
                grads.emb[tok] += share
        else:
            grads.emb[0] += gpooled[i]


# ---------------------------------------------------------------------------
# Flat-vector views used by finite-difference checks and SGD updates.


# Checkpoint array names of the param_arrays entries, in the same order.
PARAM_NAMES = (
    "emb",
    "ctx.w1", "ctx.b1", "ctx.w2", "ctx.b2",
    "doc.w1", "doc.b1", "doc.w2", "doc.b2",
)


def param_arrays(params: DualEncoderParams) -> list[np.ndarray]:
    return [
        params.emb,
        params.ctx_tower.w1, params.ctx_tower.b1,
        params.ctx_tower.w2, params.ctx_tower.b2,
        params.doc_tower.w1, params.doc_tower.b1,
        params.doc_tower.w2, params.doc_tower.b2,
    ]


def pack(params: DualEncoderParams) -> np.ndarray:
    return np.concatenate([a.ravel() for a in param_arrays(params)])


def unpack_into(vec: np.ndarray, params: DualEncoderParams) -> None:
    offset = 0
    for a in param_arrays(params):
        n = a.size
        a[...] = vec[offset : offset + n].reshape(a.shape)
        offset += n
    if offset != vec.size:
        raise ValueError("parameter vector size mismatch")
