"""Independent brute-force oracles used to validate the library.

These recompute everything from raw counts and definitions, sharing no
code with the implementation under test. The exceptions are
loop_sample_batch, two_pass_validation_loss, two_step_softmax_grad,
entries_eval, the per-array parameter code (loop_init_params,
per_array_checkpoint_bytes, per_array_dense_digest), the one-pair
scorers (rank_score, dense_score), PerContextDenseScorer,
pair_train_in_batch, per_call_score_all, PerCallBm25Scorer,
rank_of_positive, loop_build_ledger, the dict_write_* JSONL writers,
the object_read_* bundle readers and object_load_ledger:
earlier forms of library code, kept to show that the current forms
compute the same bits.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from array import array
from collections import Counter
from itertools import accumulate, chain
from operator import attrgetter, itemgetter
from pathlib import Path

import numpy as np

from currank import towers
from currank.bm25 import idf
from currank.dense import in_batch_loss_and_grad
from currank.checkpoint import FORMAT_VERSION, MAGIC
from currank.curriculum import LEDGER_FORMAT_VERSION, DifficultyLedger, difficulty_positive
from currank.metrics import evaluate_run
from currank.ranker import order_slate
from currank.scorers import Bm25Scorer
from currank.sessions import Interaction, SearchContext, Session
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
    per_call_score_all, one row per context of a block."""

    def __init__(self, index, params):
        self.index = index
        self.params = params
        self.doc_ids = index.doc_ids
        self.digest = Bm25Scorer(index, params).digest

    def score_corpus(self, ctxs) -> np.ndarray:
        return np.stack([per_call_score_all(self.index, self.params, c.context_tokens)
                         for c in ctxs])


def rank_of_positive(corpus_scores: np.ndarray, pos: int) -> int:
    """1-based rank of the positive, the document at corpus position
    `pos`, among all corpus documents; ties broken by corpus position
    (doc id ascending)."""
    s = corpus_scores[pos]
    better = int(np.count_nonzero(corpus_scores > s))
    tied_before = int(np.count_nonzero(corpus_scores[:pos] == s))
    return better + tied_before + 1


def loop_build_ledger(pos_scorer, neg_scorer, contexts) -> DifficultyLedger:
    """curriculum.build_ledger one context at a time: score it, rank its
    positive, sort its negatives by (-d_n, doc id); then sort the
    positives by (d_p, context id)."""
    doc_pos = {d: i for i, d in enumerate(pos_scorer.doc_ids)}
    raw, corpus_max, negatives = [], -math.inf, {}
    for ctx in contexts:
        scores = pos_scorer.score_corpus([ctx])[0]
        neg_scores = scores if neg_scorer is pos_scorer else neg_scorer.score_corpus([ctx])[0]
        pos = doc_pos[ctx.positive_doc_id]
        s = float(scores[pos])
        raw.append((ctx, rank_of_positive(scores, pos), s))
        corpus_max = max(corpus_max, s)
        negatives[ctx.context_id] = sorted(
            ((d, float(neg_scores[doc_pos[d]])) for d in ctx.negative_pool),
            key=lambda e: (-e[1], e[0]))
    positives = sorted(
        ((ctx.context_id, ctx.positive_doc_id, difficulty_positive(s, rank, corpus_max))
         for ctx, rank, s in raw), key=lambda e: (e[2], e[0]))
    return ledger_from_entries(positives, negatives, pos_scorer.digest(), neg_scorer.digest())


def ledger_from_entries(positives, negatives, pos_scorer_digest="", neg_scorer_digest=""):
    """The DifficultyLedger of `positives`, (context id, doc id, d_p) tuples,
    and `negatives`, each context id's (doc id, d_n) tuples."""
    flat = list(chain.from_iterable(negatives.values()))
    return DifficultyLedger(
        list(map(itemgetter(0), positives)), list(map(itemgetter(1), positives)),
        array("d", map(itemgetter(2), positives)), list(negatives),
        list(map(itemgetter(0), flat)), array("d", map(itemgetter(1), flat)),
        list(map(len, negatives.values())), pos_scorer_digest, neg_scorer_digest)


def ledger_entries(ledger: DifficultyLedger):
    """(positives, negatives) of `ledger` as ledger_from_entries takes them."""
    at = list(accumulate(ledger.neg_len, initial=0))
    return (list(zip(ledger.context_ids, ledger.positive_doc_ids, ledger.d_p)),
            {cid: list(zip(ledger.neg_doc_ids[a:b], ledger.d_n[a:b]))
             for cid, a, b in zip(ledger.neg_context_ids, at, at[1:])})


def object_load_ledger(path) -> DifficultyLedger:
    """curriculum.load_ledger as it parsed the whole file with json.loads,
    built (context id, doc id, d_p) and (doc id, d_n) tuples and checked
    their fields."""
    try:
        payload = json.loads(Path(path).read_text())
        if payload["version"] != LEDGER_FORMAT_VERSION:
            raise ValueError(f"unsupported version {payload['version']!r}")
        negatives = payload.pop("negatives")
        positives = [(cid, doc, dp) for cid, doc, dp in payload.pop("positives")]
        negatives = {cid: [(d, dn) for d, dn in negatives.pop(cid)] for cid in list(negatives)}
        digests = payload["pos_scorer_digest"], payload["neg_scorer_digest"]
        _check_entry_fields(positives, negatives)
        return ledger_from_entries(positives, negatives, *digests)
    except KeyError as e:
        raise ValueError(f"{path}: malformed ledger: no {e} entry") from e
    except (AttributeError, IndexError, TypeError, ValueError, OverflowError) as e:
        raise ValueError(f"{path}: malformed ledger: {e}") from e


def _check_entry_fields(positives, negatives) -> None:
    """Refuse the first id that is not a string or difficulty that is not
    a finite int or float (a bool is neither)."""
    pairs = list(chain.from_iterable(chain.from_iterable(negatives.values())))
    for what, values, number in [
        ("context id", list(map(itemgetter(0), positives)), False),
        ("doc id", list(map(itemgetter(1), positives)) + pairs[0::2], False),
        ("d_p", list(map(itemgetter(2), positives)), True),
        ("d_n", pairs[1::2], True),
    ]:
        types = {int, float} if number else {str}
        bad = [v for v in values if type(v) not in types] if set(map(type, values)) - types else []
        if number and not bad and not math.isfinite(sum(values)):
            bad = [v for v in values if not math.isfinite(v)]  # none if the sum overflowed
        if bad:
            kind = "finite number" if number else "string"
            raise ValueError(f"{what} {bad[0]!r} is not a {kind}")


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
                                    documents[doc_id], "document"))

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


def loop_sample_batch(columns, batch_size, m, rng, f_p, f_n):
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
    return chosen, np.array(slates)


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
        shifted = slate - slate.max(axis=1, keepdims=True)
        losses.extend(np.log(np.exp(shifted).sum(axis=1)) - shifted[:, 0])  # in log space
    return float(np.mean(losses)) if losses else 0.0


def loop_softmax_cross_entropy(scores, positive):
    """Each row's -log softmax(row)[positive] and the gradient of their mean,
    one row and one cell at a time in Python floats, the log-sum-exp summed
    exactly (math.fsum). `positive` is one column for every row or one per row."""
    n = len(scores)
    losses, grad = [], np.zeros_like(scores)
    for i, row in enumerate(scores.tolist()):
        pos = int(np.broadcast_to(positive, n)[i])
        top = max(row)
        total = math.fsum(math.exp(s - top) for s in row)
        losses.append(math.log(total) - (row[pos] - top))
        for j, s in enumerate(row):
            grad[i, j] = (math.exp(s - top) / total - (j == pos)) / n
    return np.array(losses), grad


def two_step_softmax_grad(scores, positive):
    """The gradient of the mean loss as the loss functions formed it before
    they shared one: the softmax as a probability array, copied, less 1 at
    each row's positive, divided by the row count."""
    rows = np.arange(len(scores))
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    dscores = probs.copy()
    dscores[rows, positive] -= 1.0
    dscores /= len(scores)
    return dscores


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
            vocab.encode(documents[d]) for d in self.doc_ids)
        self._doc_enc, _ = towers.encode_batch(params, doc_rows, "document")

    def score_corpus(self, ctxs) -> np.ndarray:
        return np.stack([
            self._doc_enc @ towers.encode(self.params, self.vocab.encode(c.context_tokens),
                                          "context")
            for c in ctxs])

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


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def dict_write_documents(documents, fp) -> None:
    """sessions.write_documents as it built and dumped one dict per record."""
    for doc_id in sorted(documents):
        fp.write(_dumps({"doc_id": doc_id, "title_tokens": list(documents[doc_id])}) + "\n")


def dict_write_sessions(sessions, fp) -> None:
    for session in sessions:
        rec = {
            "session_id": session.session_id,
            "interactions": [
                {
                    "query_id": i.query_id,
                    "query_tokens": list(i.query_tokens),
                    "clicked_doc_ids": sorted(i.clicked_doc_ids),
                    "candidate_doc_ids": list(i.candidate_doc_ids),
                }
                for i in session.interactions
            ],
        }
        fp.write(_dumps(rec) + "\n")


def dict_write_contexts(contexts, fp) -> None:
    for ctx in contexts:
        rec = {
            "session_id": ctx.session_id,
            "position": ctx.position,
            "context_tokens": list(ctx.context_tokens),
            "positive_doc_id": ctx.positive_doc_id,
            "negative_pool": list(ctx.negative_pool),
        }
        fp.write(_dumps(rec) + "\n")


def dict_write_labels(labels, fp) -> None:
    for session_id in sorted(labels):
        fp.write(_dumps({"session_id": session_id, "topic_id": labels[session_id]}) + "\n")


def dict_write_session_log(sessions, documents, fp) -> None:
    for session in sessions:
        for position, inter in enumerate(session.interactions, start=1):
            rec = {
                "session_id": session.session_id,
                "query_position": position,
                "query_text": " ".join(inter.query_tokens),
                "candidates": [
                    {
                        "doc_id": doc_id,
                        "title": " ".join(documents[doc_id]),
                        "rank": rank,
                        "clicked": doc_id in inter.clicked_doc_ids,
                    }
                    for rank, doc_id in enumerate(inter.candidate_doc_ids, start=1)
                ],
            }
            fp.write(_dumps(rec) + "\n")


def _object_strings(rec: dict, key: str) -> tuple:
    value = rec[key]
    if type(value) is not list:
        raise ValueError(f"{key} {value!r} is not a list")
    return tuple(value)


def _object_check_types(records: list, fields: dict[str, type]) -> None:
    for field, kind in fields.items():
        what, column = field, list(map(attrgetter(field), records))
        if kind is tuple:
            what, column, kind = f"{field} entry", list(chain.from_iterable(column)), str
        if set(map(type, column)) - {kind}:
            bad = next(v for v in column if type(v) is not kind)
            raise ValueError(
                f"{what} {bad!r} is not {'a string' if kind is str else 'an integer'}")


def _checked_interaction(query_id, tokens, clicked, candidates) -> Interaction:
    if not clicked <= set(candidates):
        raise ValueError(f"{query_id}: clicked documents must be candidates")
    return Interaction(query_id, tokens, clicked, candidates)


def _checked_session(session_id, interactions) -> Session:
    if not interactions:
        raise ValueError(f"session {session_id} has no interactions")
    return Session(session_id, interactions)


def _refuse_repeats(keys, what: str) -> None:
    seen = set()
    for key in keys:
        if key in seen:
            raise ValueError(f"{what} {key!r} is listed more than once")
        seen.add(key)


def object_read_sessions(fp) -> list[Session]:
    """Every record as a Session of Interactions, each checked as it is
    built, then the type checks, then that no session id repeats."""
    sessions = [
        _checked_session(rec["session_id"], tuple(
            _checked_interaction(i["query_id"], _object_strings(i, "query_tokens"),
                                 frozenset(_object_strings(i, "clicked_doc_ids")),
                                 _object_strings(i, "candidate_doc_ids"))
            for i in rec["interactions"]))
        for rec in map(json.loads, filter(None, map(str.strip, fp)))
    ]
    _object_check_types(sessions, {"session_id": str})
    _object_check_types(list(chain.from_iterable(s.interactions for s in sessions)),
                        {"query_id": str, "query_tokens": tuple, "candidate_doc_ids": tuple})
    _refuse_repeats((s.session_id for s in sessions), "session_id")
    return sessions


def object_read_contexts(fp) -> list[SearchContext]:
    """Every record as a SearchContext, then the type checks, then that no
    (session id, position, positive doc id) repeats."""
    contexts = [
        SearchContext(rec["session_id"], rec["position"], _object_strings(rec, "context_tokens"),
                      rec["positive_doc_id"], _object_strings(rec, "negative_pool"))
        for rec in map(json.loads, filter(None, map(str.strip, fp)))
    ]
    _object_check_types(contexts, {"session_id": str, "position": int, "context_tokens": tuple,
                                   "positive_doc_id": str, "negative_pool": tuple})
    _refuse_repeats(((c.session_id, c.position, c.positive_doc_id) for c in contexts),
                    "(session_id, position, positive_doc_id)")
    return contexts
