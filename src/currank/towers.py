"""Two-tower mean-pooling encoder with exact hand-written gradients.

Both the relevance scorer and the trainable ranker use this family:
a shared token embedding table feeding one feed-forward tower for
contexts and one for documents:

    encode(tokens) = W2 @ tanh(W1 @ mean(emb[tokens]) + b1) + b2

Gradients are implemented by hand so they can be validated against
central finite differences. encode_corpus turns contexts and titles into
TokenRows once per command, for the ranker's training data, its held-out
slates and the dense scorer alike.

All parameters live in one float64 vector, DualEncoderParams.flat, with
the embedding table and each tower's weights as reshaped views of it.
Gradients and momentum use the same layout, so an optimizer step, a
checkpoint's parameter block and a digest each touch one vector. The
dataclasses are frozen: updates write into the views (`w[...] += g`).

Batches are TokenRows: ids padded with -1, the index of a zero row
appended to emb. Summation order matches per-sequence pooling bit for
bit: the pool adds token positions in sequence, as emb[ids].mean(axis=0)
does, then divides by the length. Both towers' embedding gradient is one
np.bincount keyed by token_id * d_emb + column, over the passes in order,
each in row-major (sequence, token) order, so each bin sums from zero as
np.add.at would; np.add.reduceat or a sparse matmul would change the order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .sessions import Document

if TYPE_CHECKING:
    from .curriculum import TrainingBatch

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


@dataclass(frozen=True)
class TokenRows:
    """Id sequences padded with -1; an empty one is [0], pooling to emb[0]."""

    ids: np.ndarray  # (n, width), int32
    lengths: np.ndarray  # (n,), each >= 1

    def __len__(self) -> int:
        return len(self.lengths)

    def take(self, rows) -> "TokenRows":
        lengths = self.lengths[rows]
        return TokenRows(self.ids[rows, : lengths.max()], lengths)


def token_rows(sequences: Iterable[Sequence[int]]) -> TokenRows:
    sequences = [s if len(s) else [0] for s in sequences]
    lengths = np.array([len(s) for s in sequences], dtype=np.intp)
    ids = np.full((len(sequences), lengths.max(initial=1)), -1, dtype=np.int32)
    ids[np.arange(ids.shape[1]) < lengths[:, None]] = np.fromiter(
        chain.from_iterable(sequences), np.int32, lengths.sum())
    return TokenRows(ids, lengths)


@dataclass
class EncodedCorpus:
    """Context and document token rows, encoded once and looked up by the
    caller's context key and by doc id."""

    contexts: TokenRows
    context_row: dict[str, int]
    docs: TokenRows
    doc_row: dict[str, int]

    def batch_rows(self, batch: TrainingBatch) -> tuple[TokenRows, TokenRows]:
        """The batch's context rows, and its document rows slate by slate."""
        return self.contexts.take(batch.contexts), self.docs.take(batch.docs.ravel())


def encode_corpus(
    vocab: Vocab, documents: dict[str, Document], contexts: dict[str, Sequence[str]]
) -> EncodedCorpus:
    """Encode the token sequences `contexts`, keyed by the caller's ids
    (context ids, or query ids for held-out slates), and `documents`;
    documents with identical titles share a row, so one encoding."""
    titles: dict[tuple[str, ...], int] = {}
    doc_row = {d: titles.setdefault(doc.title_tokens, len(titles))
               for d, doc in documents.items()}
    return EncodedCorpus(
        contexts=token_rows(vocab.encode(tokens) for tokens in contexts.values()),
        context_row={cid: i for i, cid in enumerate(contexts)},
        docs=token_rows(vocab.encode(t) for t in titles),
        doc_row=doc_row,
    )


@dataclass(frozen=True)
class Tower:
    w1: np.ndarray  # (hidden, d_emb)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (d_emb, hidden)
    b2: np.ndarray  # (d_emb,)


# Checkpoint array names, in the order of their blocks in the flat vector.
PARAM_NAMES = (
    "emb",
    "ctx.w1", "ctx.b1", "ctx.w2", "ctx.b2",
    "doc.w1", "doc.b1", "doc.w2", "doc.b2",
)


def param_shapes(vocab_size: int, d_emb: int, hidden: int) -> list[tuple[int, ...]]:
    """The shapes of the PARAM_NAMES arrays."""
    tower = [(hidden, d_emb), (hidden,), (d_emb, hidden), (d_emb,)]
    return [(vocab_size, d_emb), *tower, *tower]


@dataclass(frozen=True)
class DualEncoderParams:
    """`emb` and the towers are reshaped views of `flat`, the arrays in
    PARAM_NAMES order (see the module docstring). Built by params_of."""

    flat: np.ndarray
    emb: np.ndarray  # (vocab, d_emb), shared by both towers
    ctx_tower: Tower
    doc_tower: Tower

    @property
    def d_emb(self) -> int:
        return self.emb.shape[1]

    @property
    def hidden(self) -> int:
        return self.ctx_tower.w1.shape[0]

    @property
    def shapes(self) -> list[tuple[int, ...]]:
        return param_shapes(len(self.emb), self.d_emb, self.hidden)

    def like(self, flat: np.ndarray) -> "DualEncoderParams":
        """Parameters shaped like these, backed by `flat`."""
        return params_of(flat, self.shapes)

    def named(self, prefix: str = "") -> dict[str, np.ndarray]:
        """Each array as a view of `flat`, keyed by prefix + its PARAM_NAMES name."""
        names = (prefix + name for name in PARAM_NAMES)
        return dict(zip(names, split_flat(self.flat, self.shapes)))

    def tower(self, which: str) -> Tower:
        if which == "context":
            return self.ctx_tower
        if which == "document":
            return self.doc_tower
        raise ValueError(f"unknown tower {which!r}")


def split_flat(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """`flat` as consecutive arrays of `shapes`, each a view of it."""
    bounds = [0, *accumulate(map(math.prod, shapes))]
    return [flat[a:b].reshape(s) for a, b, s in zip(bounds, bounds[1:], shapes)]


def params_of(flat: np.ndarray, shapes) -> DualEncoderParams:
    """Parameters viewing `flat` as consecutive arrays of `shapes`, the
    PARAM_NAMES arrays' shapes in order."""
    emb, *tower = split_flat(flat, shapes)
    return DualEncoderParams(flat, emb, Tower(*tower[:4]), Tower(*tower[4:]))


def init_params(
    vocab_size: int, d_emb: int, hidden: int, rng: np.random.Generator
) -> DualEncoderParams:
    shapes = param_shapes(vocab_size, d_emb, hidden)
    params = params_of(np.zeros(sum(map(math.prod, shapes))), shapes)
    c, d = params.ctx_tower, params.doc_tower
    for weights in (params.emb, c.w1, c.w2, d.w1, d.w2):  # drawn in this order
        weights[...] = rng.normal(0.0, 0.2, size=weights.shape)
    return params


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
    rows: TokenRows
    pooled: np.ndarray  # (n, d_emb)
    hidden: np.ndarray  # (n, hidden), post-tanh


def encode_batch(
    params: DualEncoderParams, rows: TokenRows, tower: str
) -> tuple[np.ndarray, ForwardCache]:
    """Encode many token rows; returns (n, d_emb) outputs plus a cache for
    the backward pass."""
    global ENCODE_CALLS
    ENCODE_CALLS += len(rows)
    t = params.tower(tower)
    table = np.vstack([params.emb, np.zeros(params.d_emb)])  # row -1 is the pad
    pooled = table[rows.ids[:, 0]]
    for j in range(1, rows.ids.shape[1]):
        pooled += table[rows.ids[:, j]]
    pooled /= rows.lengths[:, None]
    hidden = np.tanh(pooled @ t.w1.T + t.b1)
    out = hidden @ t.w2.T + t.b2
    return out, ForwardCache(tower=tower, rows=rows, pooled=pooled, hidden=hidden)


def backward_batch(
    params: DualEncoderParams,
    passes: Sequence[tuple[ForwardCache, np.ndarray]],
    grads: DualEncoderParams,
) -> None:
    """Accumulate parameter gradients for encode_batch outputs, given
    each pass's (cache, grad_out (n, d_emb)), in a fixed order so repeated
    runs produce bit-identical gradients (see the module docstring)."""
    tokens, shares = [], []
    for cache, grad_out in passes:
        t = params.tower(cache.tower)
        gt = grads.tower(cache.tower)
        gt.w2[...] += grad_out.T @ cache.hidden
        gt.b2[...] += grad_out.sum(axis=0)
        gz = (grad_out @ t.w2) * (1.0 - cache.hidden**2)
        gt.w1[...] += gz.T @ cache.pooled
        gt.b1[...] += gz.sum(axis=0)
        gpooled = gz @ t.w1
        rows = cache.rows
        tokens.append(rows.ids[rows.ids >= 0])
        shares.append(np.repeat(gpooled / rows.lengths[:, None], rows.lengths, axis=0))
    keys = np.concatenate(tokens)[:, None] * params.d_emb + np.arange(params.d_emb)
    grads.emb[...] += np.bincount(keys.ravel(), np.concatenate(shares).ravel(),
                                  minlength=grads.emb.size).reshape(grads.emb.shape)
