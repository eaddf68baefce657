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
from dataclasses import dataclass, replace
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


@dataclass(frozen=True)
class PositiveEntry:
    context_id: str
    positive_doc_id: str
    d_p: float


@dataclass
class DifficultyLedger:
    positives: list[PositiveEntry]  # ascending d_p, ties by context id
    negatives: dict[str, list[tuple[str, float]]]  # descending d_n per context
    contexts: dict[str, SearchContext]
    pos_scorer_digest: str = ""
    neg_scorer_digest: str = ""


@dataclass(frozen=True)
class LedgerColumns:
    """The ledger as row arrays, positives in d_p order: positive i's
    context row and positive doc row, and its negatives' doc rows by
    descending d_n at neg_rows[neg_start[i]:neg_start[i] + neg_len[i]]."""

    positives: list[PositiveEntry]
    context_rows: np.ndarray
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
    ledger: DifficultyLedger, context_row: dict[str, int], doc_row: dict[str, int]
) -> LedgerColumns:
    """`ledger` over the context and document rows these maps give."""
    negs = [ledger.negatives[e.context_id] for e in ledger.positives]
    neg_len = np.array([len(n) for n in negs], dtype=np.intp)
    return LedgerColumns(
        ledger.positives,
        np.array([context_row[e.context_id] for e in ledger.positives], dtype=np.intp),
        np.array([doc_row[e.positive_doc_id] for e in ledger.positives], dtype=np.intp),
        np.array([doc_row[d] for n in negs for d, _ in n], dtype=np.intp),
        np.cumsum(neg_len) - neg_len, neg_len,
    )


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

    entries = [
        PositiveEntry(ctx.context_id, ctx.positive_doc_id,
                      difficulty_positive(s, rank, corpus_max))
        for ctx, rank, s in raw
    ]
    entries.sort(key=lambda e: (e.d_p, e.context_id))
    return DifficultyLedger(
        positives=entries,
        negatives=negatives,
        contexts={c.context_id: c for c in contexts},
        pos_scorer_digest=pos_scorer.digest(),
        neg_scorer_digest=neg_scorer.digest(),
    )


def eligible_positive_count(ledger: DifficultyLedger | LedgerColumns, fraction: float) -> int:
    # Ceiling keeps the eligible set non-empty even for tiny fractions.
    return min(len(ledger.positives), math.ceil(fraction * len(ledger.positives)))


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
    n_pos = eligible_positive_count(columns, f_p)
    if batch_size > n_pos:
        raise ValueError(
            f"batch_size {batch_size} exceeds {n_pos} eligible positives at step {t}"
        )
    chosen = rng.choice(n_pos, size=batch_size, replace=False)
    n_neg = eligible_negative_count(columns.neg_len[chosen], f_n)
    short = np.flatnonzero(n_neg < m)
    if short.size:
        raise ValueError(
            f"context {columns.positives[chosen[short[0]]].context_id}: eligible "
            f"negative prefix ({n_neg[short[0]]}) smaller than m={m} at step {t}"
        )
    picks = _choose_each(rng, n_neg, m)
    negs = columns.neg_rows[columns.neg_start[chosen][:, None] + picks]
    return TrainingBatch(
        contexts=columns.context_rows[chosen],
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
    payload = {
        "version": LEDGER_FORMAT_VERSION,
        "pos_scorer_digest": ledger.pos_scorer_digest,
        "neg_scorer_digest": ledger.neg_scorer_digest,
        "positives": [
            [e.context_id, e.positive_doc_id, e.d_p] for e in ledger.positives
        ],
        "negatives": {
            cid: [[d, s] for d, s in entries]
            for cid, entries in sorted(ledger.negatives.items())
        },
    }
    write_atomic(path, json.dumps(payload, sort_keys=True, separators=(",", ":")))


def load_ledger(
    path: str | Path, contexts: Sequence[SearchContext]
) -> DifficultyLedger:
    try:
        payload = json.loads(Path(path).read_text())
        if payload["version"] != LEDGER_FORMAT_VERSION:
            raise ValueError(f"unsupported version {payload['version']!r}")
        ledger = DifficultyLedger(
            positives=[PositiveEntry(cid, doc, float(dp))
                       for cid, doc, dp in payload["positives"]],
            negatives={cid: [(d, float(s)) for d, s in entries]
                       for cid, entries in payload["negatives"].items()},
            contexts={c.context_id: c for c in contexts},
            pos_scorer_digest=payload["pos_scorer_digest"],
            neg_scorer_digest=payload["neg_scorer_digest"],
        )
    except KeyError as e:
        raise ValueError(f"{path}: malformed ledger: no {e} entry") from e
    except (AttributeError, TypeError, ValueError) as e:
        raise ValueError(f"{path}: malformed ledger: {e}") from e
    missing = [e.context_id for e in ledger.positives if e.context_id not in ledger.contexts]
    if missing:
        raise ValueError(f"ledger references unknown contexts: {missing[:5]}")
    uncovered = [e.context_id for e in ledger.positives if e.context_id not in ledger.negatives]
    if uncovered:
        raise ValueError(f"ledger has no negatives for contexts: {uncovered[:5]}")
    return ledger
