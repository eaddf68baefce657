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


def _dcg(gains: Sequence[int], k: int) -> float:
    return sum((2**g - 1) / math.log2(rank + 1) for rank, g in enumerate(gains[:k], start=1))


def _query_metrics(gains: Sequence[int]) -> list[float] | None:
    """AP, RR and NDCG@k per cutoff of one query's ranked gains, counting
    gain >= 1 as relevant; None when nothing is relevant."""
    ranks = [rank for rank, g in enumerate(gains, start=1) if g >= 1]
    if not ranks:
        return None
    ap = sum(hits / rank for hits, rank in enumerate(ranks, start=1)) / len(ranks)
    ideal = sorted(gains, reverse=True)
    return [ap, 1.0 / ranks[0], *(_dcg(gains, k) / _dcg(ideal, k) for k in NDCG_CUTOFFS)]


def average_precision(
    ranked_doc_ids: Sequence[str], qrels: Qrels, query_id: str
) -> float | None:
    """AP over documents with gain >= 1; None when nothing is relevant."""
    terms = _query_metrics(_gains(ranked_doc_ids, qrels, query_id))
    return terms and terms[0]


def reciprocal_rank(
    ranked_doc_ids: Sequence[str], qrels: Qrels, query_id: str
) -> float | None:
    terms = _query_metrics(_gains(ranked_doc_ids, qrels, query_id))
    return terms and terms[1]


def ndcg_at_k(
    ranked_doc_ids: Sequence[str], qrels: Qrels, query_id: str, k: int
) -> float | None:
    gains = _gains(ranked_doc_ids, qrels, query_id)
    if not any(g >= 1 for g in gains):
        return None
    return _dcg(gains, k) / _dcg(sorted(gains, reverse=True), k)


@dataclass
class MetricTable:
    metrics: dict[str, float]
    evaluated_queries: int
    skipped_queries: int  # queries with no relevant document


def evaluate_run(entries: Sequence, qrels: Qrels | None = None) -> MetricTable:
    """Average MAP/MRR/NDCG@k over queries with at least one relevant doc.

    `entries` are run entries judged by `qrels` or, without qrels, each
    query's ranked gains, already in query-id order.
    """
    if qrels is not None:
        by_query: dict[str, list[str]] = {}
        for e in sorted(entries, key=lambda e: e.rank):
            by_query.setdefault(e.query_id, []).append(e.doc_id)
        unknown = sorted(set(by_query) - {q for q, _ in qrels})
        if unknown:
            raise RunFormatError(f"run references unknown query ids: {unknown[:10]}")
        entries = [_gains(by_query[q], qrels, q) for q in sorted(by_query)]

    names = ["MAP", "MRR"] + [f"NDCG@{k}" for k in NDCG_CUTOFFS]
    sums = [0.0] * len(names)
    evaluated = 0
    for gains in entries:
        terms = _query_metrics(gains)
        if terms is not None:
            evaluated += 1
            sums = [a + b for a, b in zip(sums, terms)]
    metrics = {
        name: (total / evaluated if evaluated else 0.0)
        for name, total in zip(names, sums)
    }
    return MetricTable(
        metrics=metrics, evaluated_queries=evaluated,
        skipped_queries=len(entries) - evaluated,
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
