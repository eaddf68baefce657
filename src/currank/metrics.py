"""Rank-quality metrics (MAP, MRR, NDCG@k) and trec-style run/qrels output.

NDCG uses exponential gain (2^g - 1)/log2(rank + 1). Queries with no
relevant document are excluded from the averages and counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

NDCG_CUTOFFS = (1, 3, 5, 10)

# A ranked slate: its query id, its candidates as (doc id, score) pairs
# best first, and its clicked doc ids.
RankedSlate = tuple[str, list[tuple[str, float]], frozenset[str]]


def _dcg(gains: Sequence[int], k: int) -> float:
    return sum((2**g - 1) / math.log2(rank + 1)  # skips zero gains: + 0.0 changes no sum
               for rank, g in enumerate(gains[:k], start=1) if g)


def _query_metrics(gains: Sequence[int]) -> list[float] | None:
    """AP, RR and NDCG@k per cutoff of one query's ranked gains, counting
    gain >= 1 as relevant; None when nothing is relevant."""
    ranks = [rank for rank, g in enumerate(gains, start=1) if g >= 1]
    if not ranks:
        return None
    ap = sum(hits / rank for hits, rank in enumerate(ranks, start=1)) / len(ranks)
    ideal = sorted(gains, reverse=True)
    return [ap, 1.0 / ranks[0], *(_dcg(gains, k) / _dcg(ideal, k) for k in NDCG_CUTOFFS)]


@dataclass
class MetricTable:
    metrics: dict[str, float]
    evaluated_queries: int
    skipped_queries: int  # queries with no relevant document


def query_gains(slates: Iterable[RankedSlate]) -> list[list[int]]:
    """Each slate's ranked gains, 1 if clicked else 0, in query-id order."""
    gains = [(q, [int(d in clicked) for d, _ in ranked]) for q, ranked, clicked in slates]
    return [g for _, g in sorted(gains, key=lambda qg: qg[0])]


def evaluate_run(gains: Sequence[Sequence[int]]) -> MetricTable:
    """Average MAP/MRR/NDCG@k over queries with at least one relevant
    doc, summing the queries' ranked gain lists in the order given."""
    names = ["MAP", "MRR"] + [f"NDCG@{k}" for k in NDCG_CUTOFFS]
    sums = [0.0] * len(names)
    evaluated = 0
    for query in gains:
        terms = _query_metrics(query)
        if terms is not None:
            evaluated += 1
            sums = [a + b for a, b in zip(sums, terms)]
    metrics = {
        name: (total / evaluated if evaluated else 0.0)
        for name, total in zip(names, sums)
    }
    return MetricTable(
        metrics=metrics, evaluated_queries=evaluated,
        skipped_queries=len(gains) - evaluated,
    )


# ---------------------------------------------------------------------------
# trec-style interchange files


def write_run_file(slates: Sequence[RankedSlate], tag: str, fp: IO[str]) -> None:
    """`query_id Q0 doc_id rank score tag` per candidate, slates in order."""
    for query_id, ranked, _ in slates:
        for rank, (doc_id, score) in enumerate(ranked, start=1):
            fp.write(f"{query_id} Q0 {doc_id} {rank} {score:.6g} {tag}\n")


def write_qrels(slates: Sequence[RankedSlate], fp: IO[str]) -> None:
    """`query_id 0 doc_id gain` per candidate (gain 1 if clicked, else 0),
    sorted by query id, then doc id."""
    qrels = {(q, d): int(d in clicked) for q, ranked, clicked in slates for d, _ in ranked}
    for (query_id, doc_id), gain in sorted(qrels.items()):
        fp.write(f"{query_id} 0 {doc_id} {gain}\n")
