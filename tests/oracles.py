"""Independent brute-force oracles used to validate the library.

These recompute everything from raw counts and definitions, sharing no
code with the implementation under test. The exceptions are
loop_sample_batch, two_pass_validation_loss, entries_eval, the per-array
parameter code (loop_init_params, per_array_checkpoint_bytes,
per_array_dense_digest), the one-pair scorers (rank_score, dense_score),
PerContextDenseScorer, pair_train_in_batch, per_call_score_all and
PerCallBm25Scorer: earlier forms of library code, kept to show that the
current forms compute the same bits.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from collections import Counter

import numpy as np

from currank import towers
from currank.bm25 import idf
from currank.dense import in_batch_loss_and_grad
from currank.checkpoint import FORMAT_VERSION, MAGIC
from currank.curriculum import TrainingBatch
from currank.metrics import evaluate_run
from currank.ranker import order_slate
from currank.scorers import Bm25Scorer
from currank.towers import PARAM_NAMES


def naive_bm25(docs: dict[str, list[str]], query: list[str], doc_id: str,
               k1: float = 1.2, b: float = 0.75) -> float:
    """BM25 from raw token lists: idf = ln(1 + (N - df + 0.5)/(df + 0.5))."""
    n = len(docs)
    avgdl = sum(len(toks) for toks in docs.values()) / n
    doc = docs[doc_id]
    total = 0.0
    for term in query:
        tf = doc.count(term)
        if tf == 0:
            continue
        df = sum(1 for toks in docs.values() if term in toks)
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        total += idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * len(doc) / avgdl))
    return total


def per_call_score_all(index, params, query_tokens) -> np.ndarray:
    """bm25.score_all as it computed every query term's weights on each call."""
    n = len(index.doc_ids)
    scores = np.zeros(n, dtype=np.float64)
    avgdl = index.avg_doc_length
    norm = params.k1 * (1.0 - params.b + params.b * index.doc_lengths / avgdl)
    for term, count in Counter(query_tokens).items():
        entry = index.postings.get(term)
        if entry is None:
            continue
        positions, tfs = entry
        tf = tfs.astype(np.float64)
        contrib = idf(n, len(positions)) * tf * (params.k1 + 1.0) / (tf + norm[positions])
        scores[positions] += count * contrib
    return scores


class PerCallBm25Scorer:
    """scorers.Bm25Scorer as it scored every context through
    per_call_score_all."""

    def __init__(self, index, params):
        self.index = index
        self.params = params
        self.doc_ids = index.doc_ids
        self.digest = Bm25Scorer(index, params).digest

    def score_corpus(self, ctx) -> np.ndarray:
        return per_call_score_all(self.index, self.params, ctx.context_tokens)


def naive_ap(ranked: list[str], relevant: set[str]) -> float | None:
    rel_ranks = [r for r, d in enumerate(ranked, 1) if d in relevant]
    if not rel_ranks:
        return None
    return sum((i + 1) / r for i, r in enumerate(rel_ranks)) / len(rel_ranks)


def naive_rr(ranked: list[str], relevant: set[str]) -> float | None:
    for r, d in enumerate(ranked, 1):
        if d in relevant:
            return 1.0 / r
    return None


def naive_ndcg(ranked: list[str], gains: dict[str, int], k: int) -> float | None:
    if not any(g >= 1 for g in gains.values()):
        return None
    dcg = sum(
        (2 ** gains.get(d, 0) - 1) / math.log2(r + 1)
        for r, d in enumerate(ranked[:k], 1)
    )
    ideal = sorted(gains.values(), reverse=True)[:k]
    idcg = sum((2**g - 1) / math.log2(r + 1) for r, g in enumerate(ideal, 1))
    return dcg / idcg


def central_difference_grad(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of a flat vector."""
    grad = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += eps
        xm[i] -= eps
        grad[i] = (f(xp) - f(xm)) / (2 * eps)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def loop_pool(emb: np.ndarray, sequences) -> np.ndarray:
    """Per-sequence mean of the token embeddings; emb[0] for an empty one."""
    pooled = np.empty((len(sequences), emb.shape[1]))
    for i, ids in enumerate(sequences):
        if len(ids):
            pooled[i] = emb[list(ids)].mean(axis=0)
        else:
            pooled[i] = emb[0]
    return pooled


def loop_scatter(grad_emb: np.ndarray, sequences, gpooled: np.ndarray) -> None:
    """Add each pooled gradient to its tokens' rows, one token at a time."""
    for i, ids in enumerate(sequences):
        if ids:
            share = gpooled[i] / len(ids)
            for tok in ids:
                grad_emb[tok] += share
        else:
            grad_emb[0] += gpooled[i]


def naive_encode(params, vocab, tokens, tower: str) -> np.ndarray:
    """W2 tanh(W1 mean(emb[ids]) + b1) + b2 for one token list; an empty
    list pools to the pad row emb[0]."""
    t = params.tower(tower)
    pooled = params.emb[vocab.encode(tokens) or [0]].mean(axis=0)
    return t.w2 @ np.tanh(t.w1 @ pooled + t.b1) + t.b2


def loop_validation_loss(params, vocab, eval_items, documents) -> float:
    """Mean listwise loss of every (slate, clicked document) pair, one
    pair at a time: the clicked document against the slate's unclicked
    candidates. `params` are RankerParams."""

    def score(tokens, doc_id):
        return float(naive_encode(params.encoder, vocab, tokens, "context")
                     @ naive_encode(params.encoder, vocab,
                                    documents[doc_id].title_tokens, "document"))

    total = 0.0
    count = 0
    for _, tokens, candidates, clicked in eval_items:
        negs = tuple(d for d in candidates if d not in clicked)
        if not negs:
            continue
        for pos in sorted(clicked):
            scores = np.array([score(tokens, d) for d in (pos, *negs)])
            scores /= params.tau
            exp = np.exp(scores - scores.max())
            total += -math.log(exp[0] / exp.sum())
            count += 1
    return total / count if count else 0.0


def loop_sample_batch(columns, t, batch_size, m, rng, f_p, f_n):
    """curriculum.sample_batch one item at a time: one rng.choice for the
    positives, then one rng.choice per item for its negatives."""
    n_pos = len(columns.context_ids)
    chosen = rng.choice(min(n_pos, math.ceil(f_p * n_pos)), size=batch_size,
                        replace=False)
    slates = []
    for idx in chosen:
        start, n = int(columns.neg_start[idx]), int(columns.neg_len[idx])
        picks = rng.choice(min(n, math.ceil(f_n * n)), size=m, replace=False)
        slates.append([columns.positive_rows[idx],
                       *(columns.neg_rows[start + int(j)] for j in picks)])
    return TrainingBatch(contexts=chosen, docs=np.array(slates))


def two_pass_validation_loss(params, slates) -> float:
    """The validation loss from a forward pass of its own, as the trainer
    computed it before the loss and the metrics shared one: the listwise
    loss of each slate's sorted clicked documents against its unclicked
    candidates, averaged over every clicked document."""
    corpus = slates.corpus
    c_enc, _ = towers.encode_batch(params.encoder, corpus.contexts, "context")
    d_enc, _ = towers.encode_batch(params.encoder, corpus.docs, "document")
    losses = []
    for query_id, _, candidates, clicked in slates.items:
        negs = [d for d in candidates if d not in clicked]
        if not negs:
            continue
        pos = sorted(clicked)
        c = c_enc[corpus.context_row[query_id]]
        s = np.einsum("ij,j->i", d_enc[[corpus.doc_row[d] for d in pos + negs]], c) / params.tau
        slate = np.column_stack(
            [s[: len(pos)], np.broadcast_to(s[len(pos):], (len(pos), len(negs)))])
        exp = np.exp(slate - slate.max(axis=1, keepdims=True))
        losses.extend(-np.log(exp[:, 0] / exp.sum(axis=1)))
    return float(np.mean(losses)) if losses else 0.0


def entries_eval(params, slates, tag: str = "currank"):
    """`eval`'s former path from run entries and qrels: the (query id, doc
    id, rank, score) entries slate by slate, the qrels judging every
    candidate (1 if clicked, else 0), metrics from the entries grouped by
    query in rank order with gains looked up in the qrels, queries in id
    order, and the run and qrels files as their writers wrote them.
    Returns (run text, qrels text, MetricTable)."""
    corpus = slates.corpus
    c_enc, _ = towers.encode_batch(params.encoder, corpus.contexts, "context")
    d_enc, _ = towers.encode_batch(params.encoder, corpus.docs, "document")
    entries = []
    qrels = {}
    for query_id, _, candidates, clicked in slates.items:
        c = c_enc[corpus.context_row[query_id]]
        scores = np.einsum("ij,j->i", d_enc[[corpus.doc_row[d] for d in candidates]],
                           c) / params.tau
        ranked = order_slate(candidates, scores)
        entries += [(query_id, d, rank, s) for rank, (d, s) in enumerate(ranked, start=1)]
        for doc_id in candidates:
            qrels.setdefault((query_id, doc_id), 0)
        for doc_id in clicked:
            qrels[(query_id, doc_id)] = 1
    by_query: dict[str, list[str]] = {}
    for query_id, doc_id, _, _ in sorted(entries, key=lambda e: e[2]):
        by_query.setdefault(query_id, []).append(doc_id)
    table = evaluate_run([[qrels.get((q, d), 0) for d in by_query[q]]
                          for q in sorted(by_query)])
    run = "".join(f"{q} Q0 {d} {rank} {s:.6g} {tag}\n" for q, d, rank, s in entries)
    judged = "".join(f"{q} 0 {d} {g}\n" for (q, d), g in sorted(qrels.items()))
    return run, judged, table


def rank_score(params, vocab, context_tokens, doc_tokens) -> float:
    """The ranker's score of one (context, document) pair, one encode each."""
    c = towers.encode(params.encoder, vocab.encode(context_tokens), "context")
    d = towers.encode(params.encoder, vocab.encode(doc_tokens), "document")
    return float(c @ d) / params.tau


def dense_score(params, vocab, context_tokens, doc_tokens) -> float:
    """The dense scorer's score of one (context, document) pair."""
    c = towers.encode(params, vocab.encode(context_tokens), "context")
    d = towers.encode(params, vocab.encode(doc_tokens), "document")
    return float(c @ d)


def param_list(params) -> list[np.ndarray]:
    """A DualEncoderParams' arrays in PARAM_NAMES order, read field by field."""
    c, d = params.ctx_tower, params.doc_tower
    return [params.emb, c.w1, c.b1, c.w2, c.b2, d.w1, d.b1, d.w2, d.b2]


def loop_init_params(vocab_size, d_emb, hidden, rng) -> list[np.ndarray]:
    """towers.init_params as separate arrays in PARAM_NAMES order, drawn as
    the per-array initialiser drew them: emb, then w1 and w2 of the
    context tower, then of the document tower; biases zero."""
    emb = rng.normal(0.0, 0.2, size=(vocab_size, d_emb))
    arrays = [emb]
    for _ in range(2):
        w1 = rng.normal(0.0, 0.2, size=(hidden, d_emb))
        w2 = rng.normal(0.0, 0.2, size=(d_emb, hidden))
        arrays += [w1, np.zeros(hidden), w2, np.zeros(d_emb)]
    return arrays


def per_array_checkpoint_bytes(kind, arrays, vocab, extra_arrays=None, meta=None) -> bytes:
    """A checkpoint file as checkpoint.save_checkpoint wrote it one array at
    a time: `arrays` are the PARAM_NAMES arrays, then the extras by name."""
    named = dict(zip(PARAM_NAMES, arrays))
    named.update(extra_arrays or {})
    order = [*PARAM_NAMES, *sorted(set(named) - set(PARAM_NAMES))]
    header = {
        "version": FORMAT_VERSION,
        "kind": kind,
        "vocab": vocab.tokens,
        "arrays": [[name, list(named[name].shape)] for name in order],
        "meta": meta or {},
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return b"".join([MAGIC, struct.pack("<I", len(blob)), blob, *(
        np.ascontiguousarray(named[name], dtype="<f8").tobytes() for name in order)])


def per_array_dense_digest(arrays, vocab) -> str:
    """scorers.DenseScorer.digest hashing the PARAM_NAMES arrays one by one."""
    h = hashlib.sha256(b"dense:")
    for arr in arrays:
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    for tok in vocab.tokens:
        h.update(tok.encode())
        h.update(b"\x00")
    return h.hexdigest()


class PerContextDenseScorer:
    """scorers.DenseScorer as it scored before the ledger's contexts were
    encoded in one batch: the documents in doc-id order through one
    encode_batch, each context on its own through towers.encode."""

    def __init__(self, params, vocab, documents):
        self.params = params
        self.vocab = vocab
        self.doc_ids = sorted(documents)
        doc_rows = towers.token_rows(
            vocab.encode(documents[d].title_tokens) for d in self.doc_ids)
        self._doc_enc, _ = towers.encode_batch(params, doc_rows, "document")

    def score_corpus(self, ctx) -> np.ndarray:
        c = towers.encode(self.params, self.vocab.encode(ctx.context_tokens), "context")
        return self._doc_enc @ c

    def digest(self) -> str:
        return per_array_dense_digest([self.params.flat], self.vocab)


def pair_train_in_batch(params, vocab, pairs, batch_size, epochs, learning_rate, seed):
    """dense.train_in_batch as it took (context tokens, positive title
    tokens) pairs and encoded a title per pair."""
    ctx_rows = towers.token_rows(vocab.encode(c) for c, _ in pairs)
    doc_rows = towers.token_rows(vocab.encode(d) for _, d in pairs)
    rng = np.random.default_rng(seed)
    epoch_losses = []
    for _ in range(epochs):
        order = rng.permutation(len(pairs))
        losses = []
        for start in range(0, len(order), batch_size):
            batch = order[start : start + batch_size]
            if len(batch) < 2:
                continue
            loss, grads = in_batch_loss_and_grad(
                params, ctx_rows.take(batch), doc_rows.take(batch))
            params.flat[...] -= learning_rate * grads.flat
            losses.append(loss)
        epoch_losses.append(float(np.mean(losses)))
    return epoch_losses
