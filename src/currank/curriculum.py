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
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

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


@dataclass
class TrainingBatch:
    items: list[tuple[SearchContext, str, tuple[str, ...]]]

    def __len__(self) -> int:
        return len(self.items)


def build_ledger(
    pos_scorer: ScoreSource,
    neg_scorer: ScoreSource,
    contexts: Sequence[SearchContext],
) -> DifficultyLedger:
    """Score and sort all training pairs under the frozen scorers.

    Positive and negative difficulties may come from different scorers
    (mixed-mode experiments).
    """
    if not contexts:
        raise ValueError("no contexts to build a ledger from")
    for ctx in contexts:
        if not ctx.negative_pool:
            raise ValueError(f"context {ctx.context_id} has an empty negative pool")

    doc_pos = {d: i for i, d in enumerate(pos_scorer.doc_ids)}
    same_scorer = neg_scorer is pos_scorer

    raw: list[tuple[SearchContext, int, float]] = []
    corpus_max = -math.inf
    negatives: dict[str, list[tuple[str, float]]] = {}
    for ctx in contexts:
        scores = pos_scorer.score_corpus(ctx.context_tokens)
        pos = doc_pos[ctx.positive_doc_id]
        s = float(scores[pos])
        raw.append((ctx, rank_of_positive(scores, pos), s))
        corpus_max = max(corpus_max, s)
        if same_scorer:
            neg_scored = [
                (d, difficulty_negative(float(scores[doc_pos[d]])))
                for d in ctx.negative_pool
            ]
        else:
            neg_scored = [
                (d, difficulty_negative(neg_scorer.score(ctx.context_tokens, d)))
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


def eligible_positive_count(ledger: DifficultyLedger, fraction: float) -> int:
    # Ceiling keeps the eligible set non-empty even for tiny fractions.
    return min(len(ledger.positives), math.ceil(fraction * len(ledger.positives)))


def sample_batch(
    ledger: DifficultyLedger,
    pacing: PacingParams,
    t: int,
    batch_size: int,
    m: int,
    rng: np.random.Generator,
    f_p: float | None = None,
    f_n: float | None = None,
) -> TrainingBatch:
    """Draw one curriculum batch at training step t.

    f_p/f_n override the pacing functions when given (ablation modes).
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if f_p is None:
        f_p = pacing_positive(pacing, t)
    if f_n is None:
        f_n = pacing_negative(pacing, t)
    n_pos = eligible_positive_count(ledger, f_p)
    if batch_size > n_pos:
        raise ValueError(
            f"batch_size {batch_size} exceeds {n_pos} eligible positives at step {t}"
        )
    chosen = rng.choice(n_pos, size=batch_size, replace=False)
    items = []
    for idx in chosen:
        entry = ledger.positives[int(idx)]
        neg_list = ledger.negatives[entry.context_id]
        n_neg = min(len(neg_list), math.ceil(f_n * len(neg_list)))
        if n_neg < m:
            raise ValueError(
                f"context {entry.context_id}: eligible negative prefix "
                f"({n_neg}) smaller than m={m} at step {t}"
            )
        picks = rng.choice(n_neg, size=m, replace=False)
        negs = tuple(neg_list[int(j)][0] for j in picks)
        items.append((ledger.contexts[entry.context_id], entry.positive_doc_id, negs))
    return TrainingBatch(items=items)


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
    Path(path).write_text(
        json.dumps(payload, sort_keys=True, separators=(",", ":"))
    )


def load_ledger(
    path: str | Path, contexts: Sequence[SearchContext]
) -> DifficultyLedger:
    payload = json.loads(Path(path).read_text())
    if payload.get("version") != LEDGER_FORMAT_VERSION:
        raise ValueError(f"unsupported ledger version {payload.get('version')!r}")
    by_id = {c.context_id: c for c in contexts}
    positives = [
        PositiveEntry(cid, doc, float(dp)) for cid, doc, dp in payload["positives"]
    ]
    missing = [e.context_id for e in positives if e.context_id not in by_id]
    if missing:
        raise ValueError(f"ledger references unknown contexts: {missing[:5]}")
    return DifficultyLedger(
        positives=positives,
        negatives={
            cid: [(d, float(s)) for d, s in entries]
            for cid, entries in payload["negatives"].items()
        },
        contexts=by_id,
        pos_scorer_digest=payload["pos_scorer_digest"],
        neg_scorer_digest=payload["neg_scorer_digest"],
    )
