"""Dual curriculum: difficulty functions, pacing functions, batch sampler.

Positive pairs are sorted easy-to-hard by a rank-dominated difficulty
and exposed through an expanding prefix; per-context negatives are
sorted hard-to-easy by raw scorer value and exposed through a shrinking
prefix. A batch draws positives uniformly from the positive prefix and,
for each, m distinct negatives uniformly from that context's prefix.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, replace
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from .checkpoint import write_atomic
from .scorers import ScoreSource
from .sessions import SearchContext

LEDGER_FORMAT_VERSION = 1


@dataclass(frozen=True)
class PacingParams:
    delta: float = 0.3
    eta: float = 0.7
    alpha: float = 0.5
    beta: float = 0.5
    k: float = 2.0
    T: int = 1

    def __post_init__(self):
        # delta/eta admit 1.0 as a curriculum-disabling sentinel.
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must be in (0, 1]")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must be in (0, 1]")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must be in (0, 1)")
        if self.k < 1.0:
            raise ValueError("k must be >= 1")
        # T = 0 is allowed as a no-op training budget.
        if self.T < 0:
            raise ValueError("T must be >= 0")


def pacing_positive(params: PacingParams, t: float) -> float:
    """Expanding eligible fraction for positives: starts at delta,
    reaches 1 at alpha*T and stays clamped there."""
    if not 0 <= t <= params.T:
        raise ValueError(f"step {t} outside [0, {params.T}]")
    if t == 0:
        return params.delta
    dk = params.delta**params.k
    inner = t * (1.0 - dk) / (params.alpha * params.T) + dk
    return min(1.0, inner ** (1.0 / params.k))


def pacing_negative(params: PacingParams, t: float) -> float:
    """Shrinking eligible fraction for negatives: starts at 1,
    reaches eta at beta*T and stays clamped there."""
    if not 0 <= t <= params.T:
        raise ValueError(f"step {t} outside [0, {params.T}]")
    if t == 0:
        return 1.0
    ek = params.eta**params.k
    inner = t * (1.0 - ek) / (params.beta * params.T) + ek
    return max(params.eta, 1.0 + params.eta - inner ** (1.0 / params.k))


def difficulty_positive(
    score: float, rank: int, corpus_max_score: float
) -> float:
    """rank + (1 - score/corpus_max): rank dominates, the normalized
    score only separates pairs ranked at the same position."""
    if corpus_max_score <= 0.0:
        raise ValueError("degenerate scorer: max positive score <= 0")
    if rank < 1:
        raise ValueError("rank is 1-based")
    return rank + (1.0 - score / corpus_max_score)


def difficulty_negative(score: float) -> float:
    """The raw scorer value: a high-scoring unclicked document is hard."""
    return score


def rank_of_positive(corpus_scores: np.ndarray, pos: int) -> int:
    """1-based rank of the positive, the document at corpus position
    `pos`, among all corpus documents; ties broken by corpus position
    (doc id ascending)."""
    s = corpus_scores[pos]
    better = int(np.count_nonzero(corpus_scores > s))
    tied_before = int(np.count_nonzero(corpus_scores[:pos] == s))
    return better + tied_before + 1


@dataclass
class DifficultyLedger:
    """What ledger.json holds: (context id, positive doc id, d_p) by
    ascending d_p, ties by context id, and each context's (doc id, d_n)
    negatives by descending d_n."""

    positives: list[tuple[str, str, float]]
    negatives: dict[str, list[tuple[str, float]]]
    pos_scorer_digest: str = ""
    neg_scorer_digest: str = ""


@dataclass(frozen=True)
class LedgerColumns:
    """The ledger as row arrays, positives in d_p order: positive i's
    context id (its context row is i) and positive doc row, and its
    negatives' doc rows by descending d_n at
    neg_rows[neg_start[i]:neg_start[i] + neg_len[i]]."""

    context_ids: list[str]
    positive_rows: np.ndarray
    neg_rows: np.ndarray
    neg_start: np.ndarray
    neg_len: np.ndarray

    def halved(self, keep: str) -> LedgerColumns:
        """Each negative list's hard or easy half, split at its median:
        an offset view of the same arrays."""
        half = (self.neg_len + 1) // 2
        skip = 0 if keep == "hard" else self.neg_len - half
        return replace(self, neg_start=self.neg_start + skip, neg_len=half)


def ledger_columns(
    ledger: DifficultyLedger, contexts: dict[str, SearchContext], doc_row: dict[str, int]
) -> LedgerColumns:
    """`ledger` over `contexts`, keyed by context id, and the document rows
    `doc_row` gives. Each positive must name a distinct context of
    `contexts` and that context's positive document, and have distinct
    negatives, all from the context's negative pool. Positives must
    ascend in (d_p, context id) and each context's negatives descend in
    d_n, ties by ascending doc id, as build_ledger writes them. A ledger
    that breaks this is refused with a ValueError."""
    ids = list(map(itemgetter(0), ledger.positives))
    negs = list(map(ledger.negatives.get, ids))
    unique = set(ids)
    if not (unique <= contexts.keys() and len(unique) == len(ids) and all(negs)):
        for what, bad in [
            ("references unknown contexts", [cid for cid in ids if cid not in contexts]),
            ("lists contexts more than once", [c for c, k in Counter(ids).items() if k > 1]),
            ("has no negatives for contexts", [cid for cid, n in zip(ids, negs) if not n]),
        ]:
            if bad:
                raise ValueError(f"ledger {what}: {bad[:5]}")
    d_p = np.fromiter(map(itemgetter(2), ledger.positives), np.float64, len(ids))
    late = [*np.flatnonzero(d_p[1:] < d_p[:-1])[:1],
            *(i for i in np.flatnonzero(d_p[1:] == d_p[:-1]) if ids[i] > ids[i + 1])]
    if late:
        i = min(late)
        raise ValueError(f"ledger: positive {ids[i + 1]} (d_p {d_p[i + 1]}) follows "
                         f"{ids[i]} (d_p {d_p[i]}): positives must ascend in "
                         "(d_p, context id)")

    ctxs = [contexts[cid] for cid in ids]
    # Documents by their index in doc-id order, -1 if unknown; a (context,
    # document) pair is the key i * n_docs + document index.
    doc_ids = sorted(doc_row)
    index = {d: i for i, d in enumerate(doc_ids)}.get
    n_docs = len(doc_ids)
    pool_len = np.fromiter(map(len, (c.negative_pool for c in ctxs)), np.intp, len(ids))
    pool = np.fromiter(map(index, chain.from_iterable(c.negative_pool for c in ctxs),
                           repeat(-1)), np.intp, pool_len.sum())
    positive = np.fromiter(map(index, (c.positive_doc_id for c in ctxs), repeat(-1)),
                           np.intp, len(ids))
    if (pool < 0).any() or (positive < 0).any():
        check_documents(ctxs, doc_row)  # names the first missing document
    for (cid, doc, _), ctx in zip(ledger.positives, ctxs):
        if doc != ctx.positive_doc_id:
            raise ValueError(f"ledger: context {cid}: positive {doc} is not the "
                             f"context's positive {ctx.positive_doc_id}")

    neg_len = np.fromiter(map(len, negs), np.intp, len(ids))
    neg_start = np.cumsum(neg_len) - neg_len
    flat = list(chain.from_iterable(negs))
    neg = np.fromiter(map(index, map(itemgetter(0), flat), repeat(-1)), np.intp, len(flat))
    d_n = np.fromiter(map(itemgetter(1), flat), np.float64, len(flat))
    offset = np.arange(len(ids)) * n_docs
    keys = neg + np.repeat(offset, neg_len)
    pool = np.sort(pool + np.repeat(offset, pool_len))
    foreign = (neg < 0) | (np.searchsorted(pool, keys) == np.searchsorted(pool, keys, "right"))
    if foreign.any():
        i = np.searchsorted(neg_start, foreign.argmax(), "right") - 1
        bad = [d for d, _ in negs[i] if d not in ctxs[i].negative_pool]
        raise ValueError(f"ledger: context {ids[i]}: negatives {bad[:5]} are not "
                         "in the context's negative pool")
    keys.sort()
    repeated = keys[1:][np.diff(keys) == 0]
    if repeated.size:
        i, d = divmod(int(repeated[0]), n_docs)
        raise ValueError(f"ledger: context {ids[i]}: negative {doc_ids[d]} "
                         "is listed more than once")
    step = np.diff(d_n)
    unordered = (step > 0) | ((step == 0) & (np.diff(neg) < 0))
    unordered[neg_start[1:] - 1] = False  # the last negative of a context, the next's first
    if unordered.any():
        j = unordered.argmax()
        i = np.searchsorted(neg_start, j, "right") - 1
        raise ValueError(f"ledger: context {ids[i]}: negative {doc_ids[neg[j + 1]]} "
                         f"(d_n {d_n[j + 1]}) follows {doc_ids[neg[j]]} (d_n {d_n[j]}): "
                         "negatives must descend in d_n, ties by ascending doc id")
    row = np.array([doc_row[d] for d in doc_ids], dtype=np.intp)
    return LedgerColumns(ids, row[positive], row[neg], neg_start, neg_len)


@dataclass(frozen=True)
class TrainingBatch:
    """Row indices: each item's context, and its slate, the positive
    then m negatives."""

    contexts: np.ndarray  # (n,)
    docs: np.ndarray  # (n, 1 + m)


def check_documents(contexts: Sequence[SearchContext], doc_ids) -> None:
    """Each context's positive and negatives must be in `doc_ids`."""
    for ctx in contexts:
        for d in (ctx.positive_doc_id, *ctx.negative_pool):
            if d not in doc_ids:
                raise ValueError(
                    f"context {ctx.context_id}: document {d} is not in the corpus"
                )


def build_ledger(
    pos_scorer: ScoreSource,
    neg_scorer: ScoreSource,
    contexts: Sequence[SearchContext],
) -> DifficultyLedger:
    """Score and sort all training pairs under the frozen scorers.

    Positive and negative difficulties may come from different scorers
    (mixed-mode experiments); each context is scored once per scorer,
    so a scorer's difficulties do not depend on the other scorer.
    """
    if not contexts:
        raise ValueError("no contexts to build a ledger from")
    if neg_scorer.doc_ids != pos_scorer.doc_ids:
        raise ValueError("positive and negative scorers rank different corpora")
    doc_pos = {d: i for i, d in enumerate(pos_scorer.doc_ids)}
    for ctx in contexts:
        if not ctx.negative_pool:
            raise ValueError(f"context {ctx.context_id} has an empty negative pool")
    check_documents(contexts, doc_pos)

    raw: list[tuple[SearchContext, int, float]] = []
    corpus_max = -math.inf
    negatives: dict[str, list[tuple[str, float]]] = {}
    for ctx in contexts:
        scores = pos_scorer.score_corpus(ctx)
        neg_scores = scores if neg_scorer is pos_scorer else neg_scorer.score_corpus(ctx)
        pos = doc_pos[ctx.positive_doc_id]
        s = float(scores[pos])
        raw.append((ctx, rank_of_positive(scores, pos), s))
        corpus_max = max(corpus_max, s)
        neg_scored = [
            (d, difficulty_negative(float(neg_scores[doc_pos[d]])))
            for d in ctx.negative_pool
        ]
        neg_scored.sort(key=lambda e: (-e[1], e[0]))
        negatives[ctx.context_id] = neg_scored

    positives = [
        (ctx.context_id, ctx.positive_doc_id, difficulty_positive(s, rank, corpus_max))
        for ctx, rank, s in raw
    ]
    positives.sort(key=lambda e: (e[2], e[0]))
    return DifficultyLedger(
        positives=positives,
        negatives=negatives,
        pos_scorer_digest=pos_scorer.digest(),
        neg_scorer_digest=neg_scorer.digest(),
    )


def eligible_positive_count(n_positives: int, fraction: float) -> int:
    # Ceiling keeps the eligible set non-empty even for tiny fractions.
    return min(n_positives, math.ceil(fraction * n_positives))


def eligible_negative_count(n_negatives: np.ndarray, fraction: float) -> np.ndarray:
    return np.minimum(n_negatives, np.ceil(fraction * n_negatives)).astype(int)


def sample_batch(
    columns: LedgerColumns,
    t: int,
    batch_size: int,
    m: int,
    rng: np.random.Generator,
    f_p: float,
    f_n: float,
) -> TrainingBatch:
    """Draw one curriculum batch at training step t, from the easiest
    fraction f_p of the positives and, for each, the hardest fraction f_n
    of its negatives.

    Positives come from one rng.choice, each item's m negatives from its
    own, all read in one rng.integers call (see _choose_each).
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    n_pos = eligible_positive_count(len(columns.context_ids), f_p)
    if batch_size > n_pos:
        raise ValueError(
            f"batch_size {batch_size} exceeds {n_pos} eligible positives at step {t}"
        )
    chosen = rng.choice(n_pos, size=batch_size, replace=False)
    n_neg = eligible_negative_count(columns.neg_len[chosen], f_n)
    short = np.flatnonzero(n_neg < m)
    if short.size:
        raise ValueError(
            f"context {columns.context_ids[chosen[short[0]]]}: eligible "
            f"negative prefix ({n_neg[short[0]]}) smaller than m={m} at step {t}"
        )
    picks = _choose_each(rng, n_neg, m)
    negs = columns.neg_rows[columns.neg_start[chosen][:, None] + picks]
    return TrainingBatch(
        contexts=chosen,
        docs=np.column_stack([columns.positive_rows[chosen], negs]),
    )


def _choose_each(rng: np.random.Generator, n: np.ndarray, m: int) -> np.ndarray:
    """Row i is rng.choice(n[i], m, replace=False), called for i = 0, 1, ...
    in turn. NumPy's choice runs Floyd's algorithm, draws in [0, n - m + k]
    that take n - m + k on a repeat, then shuffles with draws in [0, i]
    for i = m - 1 ... 1. The bounds do not depend on the values drawn, so
    one rng.integers call over all of them reads the same stream."""
    if np.any((n > 10_000) & (m > n // 50)):  # choice's tail-shuffle branch
        return np.array([rng.choice(k, size=m, replace=False) for k in n])
    floyd = n[:, None] - m + np.arange(m)
    shuffle = np.broadcast_to(np.arange(m - 1, 0, -1), (len(n), m - 1))
    draws = rng.integers(0, np.concatenate([floyd, shuffle], axis=1) + 1)
    picks = draws[:, :m].copy()
    for k in range(1, m):
        repeat = (picks[:, :k] == picks[:, k:k + 1]).any(axis=1)
        picks[repeat, k] = floyd[repeat, k]
    rows = np.arange(len(n))
    for i, j in zip(range(m - 1, 0, -1), draws[:, m:].T):
        picks[rows, i], picks[rows, j] = picks[rows, j], picks[rows, i]
    return picks


# ---------------------------------------------------------------------------
# Ledger persistence


def save_ledger(ledger: DifficultyLedger, path: str | Path) -> None:
    payload = {"version": LEDGER_FORMAT_VERSION, **vars(ledger)}
    write_atomic(path, json.dumps(payload, sort_keys=True, separators=(",", ":")).encode())


def load_ledger(path: str | Path) -> DifficultyLedger:
    """Parse a ledger file and check its entries' fields: ids are strings,
    difficulties finite JSON numbers. training_data checks the ledger
    against the contexts."""
    try:
        payload = json.loads(Path(path).read_text())
        if payload["version"] != LEDGER_FORMAT_VERSION:
            raise ValueError(f"unsupported version {payload['version']!r}")
        # Popping each parsed list as its tuples are made frees it at once,
        # so the file is never in memory in both forms.
        negatives = payload.pop("negatives")
        ledger = DifficultyLedger(
            positives=[(cid, doc, dp) for cid, doc, dp in payload.pop("positives")],
            negatives={cid: [(d, dn) for d, dn in negatives.pop(cid)] for cid in list(negatives)},
            pos_scorer_digest=payload["pos_scorer_digest"],
            neg_scorer_digest=payload["neg_scorer_digest"],
        )
        _check_fields(ledger)
        return ledger
    except KeyError as e:
        raise ValueError(f"{path}: malformed ledger: no {e} entry") from e
    except (AttributeError, TypeError, ValueError, OverflowError) as e:
        raise ValueError(f"{path}: malformed ledger: {e}") from e


def _check_fields(ledger: DifficultyLedger) -> None:
    """Refuse the first id that is not a string or difficulty that is not
    a finite int or float (a bool is neither); each negative is a pair."""
    pairs = list(chain.from_iterable(chain.from_iterable(ledger.negatives.values())))
    for what, values, number in [
        ("context id", list(map(itemgetter(0), ledger.positives)), False),
        ("doc id", list(map(itemgetter(1), ledger.positives)) + pairs[0::2], False),
        ("d_p", list(map(itemgetter(2), ledger.positives)), True),
        ("d_n", pairs[1::2], True),
    ]:
        types = {int, float} if number else {str}
        bad = [v for v in values if type(v) not in types] if set(map(type, values)) - types else []
        if number and not bad and not math.isfinite(sum(values)):
            bad = [v for v in values if not math.isfinite(v)]  # none if the sum overflowed
        if bad:
            kind = "finite number" if number else "string"
            raise ValueError(f"{what} {bad[0]!r} is not a {kind}")
