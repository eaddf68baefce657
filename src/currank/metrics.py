"""Rank-quality metrics (MAP, MRR, NDCG@k) and trec-style run/qrels I/O.

NDCG uses exponential gain (2^g - 1)/log2(rank + 1). Queries with no
relevant document are excluded from the averages and counted. Absent
qrels entries count as gain 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

NDCG_CUTOFFS = (1, 3, 5, 10)

# qrels: (query_id, doc_id) -> integer gain >= 0
Qrels = dict[tuple[str, str], int]


class RunFormatError(ValueError):
    """Malformed run or qrels file."""


@dataclass(frozen=True)
class RunEntry:
    query_id: str
    doc_id: str
    rank: int  # 1-based, contiguous within a query
    score: float
    tag: str


def _gains(ranked_doc_ids: Sequence[str], qrels: Qrels, query_id: str) -> list[int]:
    return [qrels.get((query_id, d), 0) for d in ranked_doc_ids]


def average_precision(
    ranked_doc_ids: Sequence[str], qrels: Qrels, query_id: str
) -> float | None:
    """AP over documents with gain >= 1; None when nothing is relevant."""
    gains = _gains(ranked_doc_ids, qrels, query_id)
    n_rel = sum(1 for g in gains if g >= 1)
    if n_rel == 0:
        return None
    hits = 0
    total = 0.0
    for rank, g in enumerate(gains, start=1):
        if g >= 1:
            hits += 1
            total += hits / rank
    return total / n_rel


def reciprocal_rank(
    ranked_doc_ids: Sequence[str], qrels: Qrels, query_id: str
) -> float | None:
    for rank, doc_id in enumerate(ranked_doc_ids, start=1):
        if qrels.get((query_id, doc_id), 0) >= 1:
            return 1.0 / rank
    return None


def ndcg_at_k(
    ranked_doc_ids: Sequence[str], qrels: Qrels, query_id: str, k: int
) -> float | None:
    gains = _gains(ranked_doc_ids, qrels, query_id)
    if not any(g >= 1 for g in gains):
        return None
    dcg = sum(
        (2**g - 1) / math.log2(rank + 1)
        for rank, g in enumerate(gains[:k], start=1)
    )
    ideal = sorted(gains, reverse=True)
    idcg = sum(
        (2**g - 1) / math.log2(rank + 1)
        for rank, g in enumerate(ideal[:k], start=1)
    )
    return dcg / idcg


@dataclass
class MetricTable:
    metrics: dict[str, float]
    evaluated_queries: int
    skipped_queries: int  # queries with no relevant document


def evaluate_run(entries: Sequence[RunEntry], qrels: Qrels) -> MetricTable:
    """Average MAP/MRR/NDCG@k over queries with at least one relevant doc."""
    by_query: dict[str, list[RunEntry]] = {}
    for e in entries:
        by_query.setdefault(e.query_id, []).append(e)

    judged_queries = {q for q, _ in qrels}
    unknown = sorted(q for q in by_query if q not in judged_queries)
    if unknown:
        raise RunFormatError(f"run references unknown query ids: {unknown[:10]}")

    names = ["MAP", "MRR"] + [f"NDCG@{k}" for k in NDCG_CUTOFFS]
    sums = {name: 0.0 for name in names}
    evaluated = 0
    skipped = 0
    for query_id in sorted(by_query):
        ranked = [
            e.doc_id for e in sorted(by_query[query_id], key=lambda e: e.rank)
        ]
        ap = average_precision(ranked, qrels, query_id)
        if ap is None:
            skipped += 1
            continue
        evaluated += 1
        sums["MAP"] += ap
        sums["MRR"] += reciprocal_rank(ranked, qrels, query_id)
        for k in NDCG_CUTOFFS:
            sums[f"NDCG@{k}"] += ndcg_at_k(ranked, qrels, query_id, k)
    metrics = {
        name: (sums[name] / evaluated if evaluated else 0.0) for name in names
    }
    return MetricTable(
        metrics=metrics, evaluated_queries=evaluated, skipped_queries=skipped
    )


# ---------------------------------------------------------------------------
# trec-style interchange files


def write_run_file(entries: Iterable[RunEntry], fp: IO[str]) -> None:
    for e in entries:
        fp.write(f"{e.query_id} Q0 {e.doc_id} {e.rank} {e.score:.6g} {e.tag}\n")


def read_run_file(fp: Iterable[str]) -> list[RunEntry]:
    entries = []
    for lineno, line in enumerate(fp, start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 6 or parts[1] != "Q0":
            raise RunFormatError(f"line {lineno}: expected 6 fields with Q0")
        try:
            entries.append(
                RunEntry(
                    query_id=parts[0],
                    doc_id=parts[2],
                    rank=int(parts[3]),
                    score=float(parts[4]),
                    tag=parts[5],
                )
            )
        except ValueError as e:
            raise RunFormatError(f"line {lineno}: {e}")
    return entries


def write_qrels(qrels: Qrels, fp: IO[str]) -> None:
    for (query_id, doc_id), gain in sorted(qrels.items()):
        fp.write(f"{query_id} 0 {doc_id} {gain}\n")


def read_qrels(fp: Iterable[str]) -> Qrels:
    qrels: Qrels = {}
    for lineno, line in enumerate(fp, start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4:
            raise RunFormatError(f"line {lineno}: expected 4 fields")
        try:
            gain = int(parts[3])
        except ValueError as e:
            raise RunFormatError(f"line {lineno}: {e}")
        if gain < 0:
            raise RunFormatError(f"line {lineno}: negative gain")
        qrels[(parts[0], parts[2])] = gain
    return qrels


def entries_from_ranking(
    query_id: str, ranked: Sequence[tuple[str, float]], tag: str
) -> list[RunEntry]:
    """Build run entries from a (doc_id, score) ranking, ranks 1..n."""
    return [
        RunEntry(query_id=query_id, doc_id=doc_id, rank=rank, score=score, tag=tag)
        for rank, (doc_id, score) in enumerate(ranked, start=1)
    ]
