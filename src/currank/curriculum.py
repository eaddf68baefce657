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
import re
from array import array
from collections import Counter
from dataclasses import dataclass, replace
from itertools import accumulate, chain, islice, repeat
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .checkpoint import write_atomic
from .scorers import ScoreSource
from .sessions import SearchContext, _check_column, _decode, _dumps, _Shared

LEDGER_FORMAT_VERSION = 1
_BLOCK_CELLS = 2**17  # (context, document) scores per build_ledger block: 1 MB of float64
_WRITE_ROWS = 1024  # positives, or contexts' negative lists, save_ledger encodes at a time


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
        for name in ("delta", "eta"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in (0, 1]")
        for name in ("alpha", "beta"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in (0, 1)")
        if not 1.0 <= self.k < math.inf:  # NaN too
            raise ValueError("k must be >= 1 and finite")
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


def difficulty_positive(score, rank, corpus_max_score: float):
    """rank + (1 - score/corpus_max), of numbers or arrays: rank dominates,
    the normalized score only separates pairs ranked at the same position."""
    if corpus_max_score <= 0.0:
        raise ValueError("degenerate scorer: max positive score <= 0")
    if np.min(rank) < 1:
        raise ValueError("rank is 1-based")
    return rank + (1.0 - score / corpus_max_score)


def difficulty_negative(score):
    """The raw scorer value: a high-scoring unclicked document is hard."""
    return score


@dataclass
class DifficultyLedger:
    """What ledger.json holds, as columns. Positive i, by ascending d_p,
    ties by context id: context_ids[i], positive_doc_ids[i], d_p[i]. The
    negatives of context neg_context_ids[k], in the file's order: neg_len[k]
    (doc id, d_n) pairs by descending d_n, after those of contexts 0..k-1
    in neg_doc_ids and d_n. The difficulties are float64 arrays."""

    context_ids: list[str]
    positive_doc_ids: list[str]
    d_p: array
    neg_context_ids: list[str]
    neg_doc_ids: list[str]
    d_n: array
    neg_len: list[int]
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
    ids = ledger.context_ids
    # Each context's negative list, the last if listed twice, as json.loads keeps it.
    block = {cid: k for k, cid in enumerate(ledger.neg_context_ids)}
    lens = np.array(ledger.neg_len + [0], dtype=np.intp)  # [-1]: no list
    k = np.fromiter(map(block.get, ids, repeat(-1)), np.intp, len(ids))
    neg_len = lens[k]
    unique = set(ids)
    if not (unique <= contexts.keys() and len(unique) == len(ids) and neg_len.all()):
        for what, bad in [
            ("references unknown contexts", [cid for cid in ids if cid not in contexts]),
            ("lists contexts more than once", [c for c, n in Counter(ids).items() if n > 1]),
            ("has no negatives for contexts", [cid for cid, n in zip(ids, neg_len) if not n]),
        ]:
            if bad:
                raise ValueError(f"ledger {what}: {bad[:5]}")
    d_p = np.asarray(ledger.d_p)
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
    for cid, doc, ctx in zip(ids, ledger.positive_doc_ids, ctxs):
        if doc != ctx.positive_doc_id:
            raise ValueError(f"ledger: context {cid}: positive {doc} is not the "
                             f"context's positive {ctx.positive_doc_id}")

    # Each positive's negative list, gathered in positive order.
    at = (np.cumsum(lens) - lens)[k]
    neg_start = np.cumsum(neg_len) - neg_len
    take = np.repeat(at - neg_start, neg_len) + np.arange(neg_len.sum())
    neg = np.fromiter(map(index, ledger.neg_doc_ids, repeat(-1)), np.intp,
                      len(ledger.neg_doc_ids))[take]
    d_n = np.asarray(ledger.d_n)[take]
    offset = np.arange(len(ids)) * n_docs
    keys = neg + np.repeat(offset, neg_len)
    pool = np.sort(pool + np.repeat(offset, pool_len))
    foreign = (neg < 0) | (np.searchsorted(pool, keys) == np.searchsorted(pool, keys, "right"))
    if foreign.any():
        i = np.searchsorted(neg_start, foreign.argmax(), "right") - 1
        negs = ledger.neg_doc_ids[at[i]:at[i] + neg_len[i]]
        bad = [d for d in negs if d not in ctxs[i].negative_pool]
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


def check_documents(contexts: Sequence[SearchContext], doc_ids) -> None:
    """Each context's negative pool must be non-empty, and its positive and
    negatives must be in `doc_ids`."""
    for ctx in contexts:
        if not ctx.negative_pool:
            raise ValueError(f"context {ctx.context_id} has an empty negative pool")
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
    """Score and sort the training pairs of contexts that pass
    check_documents under the frozen scorers.

    Positive and negative difficulties may come from different scorers
    (mixed-mode experiments); each context is scored once per scorer,
    so a scorer's difficulties do not depend on the other scorer.
    """
    if not contexts:
        raise ValueError("no contexts to build a ledger from")
    if neg_scorer.doc_ids != pos_scorer.doc_ids:
        raise ValueError("positive and negative scorers rank different corpora")
    doc_ids, n = pos_scorer.doc_ids, len(contexts)
    doc_pos = {d: i for i, d in enumerate(doc_ids)}.__getitem__
    pos = np.fromiter(map(doc_pos, (c.positive_doc_id for c in contexts)), np.intp, n)
    pools = [c.negative_pool for c in contexts]
    bounds = np.cumsum([0, *map(len, pools)])
    neg = np.fromiter(map(doc_pos, chain.from_iterable(pools)), np.intp, bounds[-1])
    neg_ctx = np.repeat(np.arange(n), np.diff(bounds))
    s, rank, d_n = np.empty(n), np.empty(n, np.intp), np.empty(len(neg))
    block = max(1, _BLOCK_CELLS // len(doc_ids))
    for lo in range(0, n, block):
        hi, ctxs = min(lo + block, n), contexts[lo:lo + block]
        scores = pos_scorer.score_corpus(ctxs)
        neg_scores = scores if neg_scorer is pos_scorer else neg_scorer.score_corpus(ctxs)
        s[lo:hi] = own = scores[np.arange(hi - lo), pos[lo:hi]]
        # 1-based rank among all documents, ties by corpus position (doc id)
        tied_before = (scores == own[:, None]) & (np.arange(len(doc_ids)) < pos[lo:hi, None])
        rank[lo:hi] = ((scores > own[:, None]) | tied_before).sum(1) + 1
        at = slice(bounds[lo], bounds[hi])
        d_n[at] = difficulty_negative(neg_scores[neg_ctx[at] - lo, neg[at]])

    d_p = difficulty_positive(s, rank, s.max())
    ids = [c.context_id for c in contexts]
    by_id = np.array(sorted(range(n), key=ids.__getitem__))
    order = by_id[np.argsort(d_p[by_id], kind="stable")]  # by (d_p, context id)
    neg_order = np.lexsort((neg, -d_n, neg_ctx))  # doc positions ascend with doc ids
    return DifficultyLedger(
        list(map(ids.__getitem__, order.tolist())),
        list(map(doc_ids.__getitem__, pos[order].tolist())), array("d", d_p[order].tobytes()),
        ids, list(map(doc_ids.__getitem__, neg[neg_order].tolist())),
        array("d", d_n[neg_order].tobytes()), np.diff(bounds).tolist(),
        pos_scorer.digest(), neg_scorer.digest(),
    )


def eligible_positive_count(n_positives: int, fraction: float) -> int:
    # Ceiling keeps the eligible set non-empty even for tiny fractions.
    return min(n_positives, math.ceil(fraction * n_positives))


def eligible_negative_count(n_negatives: np.ndarray, fraction: float) -> np.ndarray:
    return np.minimum(n_negatives, np.ceil(fraction * n_negatives)).astype(int)


def sample_batch(
    columns: LedgerColumns,
    batch_size: int,
    m: int,
    rng: np.random.Generator,
    f_p: float,
    f_n: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one curriculum batch from the easiest fraction f_p of the
    positives and, for each, the hardest fraction f_n of its negatives:
    the items' context rows, shape (n,), and each item's slate of doc
    rows, shape (n, 1 + m), the positive then its m negatives.

    Positives come from one rng.choice, each item's m negatives from its
    own, all read in one rng.integers call (see _choose_each). The
    prefixes are large enough: trainer.check_prefixes proves it before step 0.
    """
    chosen = rng.choice(eligible_positive_count(len(columns.context_ids), f_p),
                        size=batch_size, replace=False)
    n_neg = eligible_negative_count(columns.neg_len[chosen], f_n)
    picks = _choose_each(rng, n_neg, m)
    negs = columns.neg_rows[columns.neg_start[chosen][:, None] + picks]
    return chosen, np.column_stack([columns.positive_rows[chosen], negs])


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
    """The compact strict_json text of {"negatives": {context id: [[doc id,
    d_n], ...]}, "positives": [[context id, doc id, d_p], ...], "version" and
    the digests}, encoded _WRITE_ROWS entries at a time."""
    ids, docs, d_n = ledger.neg_context_ids, ledger.neg_doc_ids, ledger.d_n
    at = list(accumulate(ledger.neg_len, initial=0))
    negatives = ((ids[k], list(zip(docs[at[k]:at[k + 1]], d_n[at[k]:at[k + 1]])))
                 for k in sorted(range(len(ids)), key=ids.__getitem__))
    write_atomic(path, map(str.encode, chain(
        [f'{{"neg_scorer_digest":{_dumps(ledger.neg_scorer_digest)},"negatives":{{'],
        _member_text(negatives, dict),
        [f'}},"pos_scorer_digest":{_dumps(ledger.pos_scorer_digest)},"positives":['],
        _member_text(zip(ledger.context_ids, ledger.positive_doc_ids, ledger.d_p), list),
        [f'],"version":{LEDGER_FORMAT_VERSION}}}'])))


def _member_text(entries: Iterable, kind: type) -> Iterator[str]:
    """The JSON text of kind(entries), a list or a dict, less its brackets."""
    entries = iter(entries)
    for i, chunk in enumerate(iter(lambda: kind(islice(entries, _WRITE_ROWS)), kind())):
        yield "," * bool(i) + _dumps(chunk)[1:-1]


_WS = re.compile(r"[ \t\n\r]*").match  # JSON's whitespace


class _Cursor:
    """A place in JSON text, to read a ledger's long members an entry at a
    time. ValueError where the text is not what it expects."""

    def __init__(self, text: str):
        self.text, self.at = text, 0

    def peek(self) -> str:
        """Step past whitespace; the next character, '' at the end."""
        if self.text[self.at:self.at + 1].isspace():
            self.at = _WS(self.text, self.at).end()
        return self.text[self.at:self.at + 1]

    def take(self, char: str) -> bool:
        """Step past whitespace, and past `char` ('' for the end) if it comes next."""
        found = self.peek() == char
        self.at += found
        return found

    def value(self):
        self.peek()
        value, self.at = _decode(self.text, self.at)
        return value

    def members(self, close: str) -> Iterator[str | None]:
        """After an array's [ or an object's {: each member's key (None in an
        array), with the cursor at its value, which the caller reads."""
        more = not self.take(close)
        while more:
            key = self.value() if close == "}" else None
            if close == "}" and not (type(key) is str and self.take(":")):
                raise ValueError("expected a key")
            yield key
            more = self.take(",")
            if not (more or self.take(close)):
                raise ValueError(f"expected , or {close}")


def _check_numbers(what: str, column: array, odd: list) -> None:
    """Refuse the first of `odd`, the (index, value) of each value in `column`
    that was not a float, that is not an int (a bool is not), then the first
    non-finite value once each int has its place in `column`."""
    for _, value in odd:
        if type(value) is not int:
            raise ValueError(f"{what} {value!r} is not a finite number")
    for i, value in odd:
        column[i] = value  # OverflowError beyond a float's range
    finite = np.isfinite(column)
    if not finite.all():
        raise ValueError(f"{what} {column[finite.argmin()]!r} is not a finite number")


def load_ledger(path: str | Path) -> DifficultyLedger:
    """Read a ledger file an entry at a time into the columns: each positive,
    and each context's negative list, is decoded, taken apart and dropped. A
    file the cursor cannot follow is parsed whole, so json.loads refuses what
    is not JSON. Then, in this order: the version, the positives', the
    negatives' and the digests' unpacking, and ids (strings) and difficulties
    (finite JSON numbers). Equal ids share one string. training_data checks
    the ledger against the contexts."""
    share = _Shared().__getitem__  # an id of another type is refused below

    def read(lists):
        """(ids, doc ids, numbers, odd numbers, lengths) of (id, [(doc id, number), ...]) lists."""
        ids, docs, numbers, odd, lens = [], [], array("d"), [], []
        for cid, pairs in lists:
            ids.append(share(cid))
            start = len(docs)
            for doc, number in pairs:
                docs.append(share(doc))
                if type(number) is not float:  # _check_numbers checks it
                    odd.append((len(numbers), number))
                    number = math.nan
                numbers.append(number)
            lens.append(len(docs) - start)
        return ids, docs, numbers, odd, lens

    def positives(entries):
        return read((cid, [(doc, dp)]) for cid, doc, dp in entries)

    try:
        text = Path(path).read_text()
        try:
            cursor, payload = _Cursor(text), {}
            if not cursor.take("{"):
                raise ValueError("expected {")
            for key in cursor.members("}"):
                if key == "positives" and cursor.take("["):
                    payload[key] = positives(cursor.value() for _ in cursor.members("]"))
                elif key == "negatives" and cursor.take("{"):
                    payload[key] = read((cid, cursor.value()) for cid in cursor.members("}"))
                else:
                    payload[key] = cursor.value()
            if not cursor.take(""):
                raise ValueError("expected the end")
        except (TypeError, ValueError):  # such a file is refused: no need to share ids
            share, payload = (lambda s: s), json.loads(text)  # json's error on what is not JSON
        if payload["version"] != LEDGER_FORMAT_VERSION:
            raise ValueError(f"unsupported version {payload['version']!r}")
        neg, pos = payload.pop("negatives"), payload.pop("positives")
        ids, docs, d_p, odd_p, _ = pos if type(pos) is tuple else positives(pos)
        neg_ids, neg_docs, d_n, odd_n, neg_len = (
            neg if type(neg) is tuple else read((cid, neg.pop(cid)) for cid in list(neg)))
        ledger = DifficultyLedger(ids, docs, d_p, neg_ids, neg_docs, d_n, neg_len,
                                  payload["pos_scorer_digest"], payload["neg_scorer_digest"])
        for what, column in (("context id", ids), ("doc id", docs), ("doc id", neg_docs)):
            _check_column(what, column, str)
        _check_numbers("d_p", d_p, odd_p)
        _check_numbers("d_n", d_n, odd_n)
        return ledger
    except KeyError as e:
        raise ValueError(f"{path}: malformed ledger: no {e} entry") from e
    except (AttributeError, IndexError, TypeError, ValueError, OverflowError) as e:
        raise ValueError(f"{path}: malformed ledger: {e}") from e
