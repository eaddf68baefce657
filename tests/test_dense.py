import math

import numpy as np
import pytest

from currank import dense, towers
from currank.checkpoint import load_checkpoint, save_checkpoint
from currank.curriculum import build_ledger
from currank.dense import in_batch_loss_and_grad, train_in_batch
from currank.scorers import DenseScorer
from currank.sessions import SearchContext
from currank.towers import Vocab, encode, encode_corpus, init_params, token_rows

from oracles import (
    PerContextDenseScorer, central_difference_grad, dense_score, ledger_entries, max_relative_error,
    pair_train_in_batch, param_list, per_array_checkpoint_bytes, per_array_dense_digest,
)


def zero_params(vocab_size, d_emb, hidden):
    rng = np.random.default_rng(0)
    params = init_params(vocab_size, d_emb, hidden, rng)
    params.flat[...] = 0.0
    return params


def doc_table(titles):
    return {f"d{j}": title for j, title in enumerate(titles)}


def contexts_of(token_lists, positive="d0"):
    return [SearchContext(f"s{i}", 1, tuple(tokens), positive, ())
            for i, tokens in enumerate(token_lists)]


def dense_scorer(params, vocab, documents, contexts):
    by_id = {c.context_id: c.context_tokens for c in contexts}
    return DenseScorer(params, vocab, encode_corpus(vocab, documents, by_id))


def pair_rows(vocab, pairs):
    """(context tokens, document tokens) pairs as the two row sets."""
    return (token_rows(vocab.encode(c) for c, _ in pairs),
            token_rows(vocab.encode(d) for _, d in pairs))


class TestEncode:
    def test_zero_params_encode_zero(self):
        vocab = Vocab(["a", "b"])
        params = zero_params(len(vocab), 4, 3)
        out = encode(params, vocab.encode(["a", "b"]), "context")
        assert np.all(out == 0.0)

    def test_permutation_invariant(self, rng):
        vocab = Vocab(["a", "b", "c"])
        params = init_params(len(vocab), 4, 3, rng)
        fwd = encode(params, vocab.encode(["a", "b", "c"]), "document")
        rev = encode(params, vocab.encode(["c", "a", "b"]), "document")
        assert np.allclose(fwd, rev, atol=1e-12)

    def test_hand_computed_two_layer_map(self):
        # d_emb=2, hidden=2, two tokens pooled to the mean embedding
        vocab = Vocab(["a", "b"])
        params = zero_params(len(vocab), 2, 2)
        ia, ib = vocab.encode(["a", "b"])
        params.emb[ia] = [1.0, 0.0]
        params.emb[ib] = [0.0, 1.0]
        t = params.ctx_tower
        t.w1[...] = [[1.0, 0.0], [0.0, 2.0]]
        t.b1[...] = [0.0, 0.5]
        t.w2[...] = [[1.0, 1.0], [2.0, 0.0]]
        t.b2[...] = [0.1, -0.1]
        pooled = np.array([0.5, 0.5])
        h = np.tanh([0.5, 1.5])
        expected = np.array([h[0] + h[1] + 0.1, 2 * h[0] - 0.1])
        got = encode(params, [ia, ib], "context")
        assert np.allclose(got, expected, atol=1e-12)

    def test_empty_input_uses_reserved_embedding(self, rng):
        vocab = Vocab(["a"])
        params = init_params(len(vocab), 3, 3, rng)
        empty = encode(params, [], "context")
        pad = encode(params, [0], "context")
        assert np.allclose(empty, pad, atol=1e-12)

    def test_unknown_tokens_map_to_reserved_id(self):
        vocab = Vocab(["a"])
        assert vocab.encode(["mystery"]) == [1]


class TestDenseScore:
    def test_zero_params_zero_score(self):
        vocab = Vocab(["a"])
        params = zero_params(len(vocab), 4, 3)
        assert dense_score(params, vocab, ["a"], ["a"]) == 0.0

    def test_identical_towers_give_squared_norm(self, rng):
        vocab = Vocab(["a", "b"])
        params = init_params(len(vocab), 4, 3, rng)
        ct, dt = params.ctx_tower, params.doc_tower
        dt.w1[...], dt.b1[...], dt.w2[...], dt.b2[...] = ct.w1, ct.b1, ct.w2, ct.b2
        s = dense_score(params, vocab, ["a", "b"], ["a", "b"])
        c = encode(params, vocab.encode(["a", "b"]), "context")
        assert s == pytest.approx(float(c @ c), abs=1e-12)
        assert s >= 0.0

    def test_matrix_matches_bruteforce(self, rng):
        vocab = Vocab([f"t{i}" for i in range(10)])
        params = init_params(len(vocab), 4, 3, rng)
        contexts = contexts_of((f"t{i}", f"t{(i+1) % 10}") for i in range(3))
        titles = [(f"t{j % 10}",) for j in range(4)]
        scorer = dense_scorer(params, vocab, doc_table(titles), contexts)
        for ctx in contexts:
            corpus = scorer.score_corpus([ctx])[0]
            for j, title in enumerate(titles):
                expected = dense_score(params, vocab, ctx.context_tokens, title)
                assert corpus[j] == pytest.approx(expected, abs=1e-12)


class TestScoreAll:
    """DenseScorer: the corpus scores behind the dense difficulty ledger."""

    def test_one_by_one_reduces_to_dense_score(self, rng):
        vocab = Vocab(["a", "b"])
        params = init_params(len(vocab), 4, 3, rng)
        ctx = contexts_of([["a"]])[0]
        scorer = dense_scorer(params, vocab, {"d": ("b",)}, [ctx])
        expected = dense_score(params, vocab, ["a"], ["b"])
        corpus = scorer.score_corpus([ctx])
        assert corpus.shape == (1, 1)
        assert corpus[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_permutation_equivariance(self, rng):
        # Reversing which doc id carries which title reverses the corpus
        # scores, which are in doc-id order.
        vocab = Vocab([f"t{i}" for i in range(8)])
        params = init_params(len(vocab), 4, 3, rng)
        titles = [(f"t{j}",) for j in range(5)]
        contexts = contexts_of([f"t{i}"] for i in range(4))
        base = dense_scorer(params, vocab, doc_table(titles), contexts)
        perm = dense_scorer(params, vocab, doc_table(titles[::-1]), contexts)
        assert np.allclose(
            base.score_corpus(contexts)[:, ::-1], perm.score_corpus(contexts), atol=0,
        )

    def test_encode_call_budget(self, rng):
        vocab = Vocab([f"t{i}" for i in range(8)])
        params = init_params(len(vocab), 4, 3, rng)
        contexts = contexts_of((f"t{i}",) for i in range(10))
        titles = [(f"t{j % 8}",) for j in range(20)]
        before = towers.ENCODE_CALLS
        scorer = dense_scorer(params, vocab, doc_table(titles), contexts)
        scorer.score_corpus(contexts)
        distinct_titles = len(set(titles))
        assert towers.ENCODE_CALLS - before == len(contexts) + distinct_titles

    def test_determinism(self, rng):
        vocab = Vocab([f"t{i}" for i in range(8)])
        params = init_params(len(vocab), 4, 3, rng)
        docs = doc_table((f"t{j}",) for j in range(5))
        contexts = contexts_of([f"t{i}"] for i in range(4))
        a = dense_scorer(params, vocab, docs, contexts)
        b = dense_scorer(params, vocab, docs, contexts)
        assert a.digest() == b.digest()
        assert np.array_equal(a.score_corpus(contexts), b.score_corpus(contexts))

    def test_digest_and_checkpoint_equal_the_per_array_code(self, rng, tmp_path):
        vocab = Vocab([f"t{i}" for i in range(8)])
        params = init_params(len(vocab), 4, 3, rng)
        pairs = [((f"t{i}",), (f"t{(i + 2) % 8}",)) for i in range(8)]
        train_in_batch(params, *pair_rows(vocab, pairs), batch_size=4, epochs=2,
                       learning_rate=0.3, seed=1)
        docs = doc_table((f"t{j}",) for j in range(5))
        assert dense_scorer(params, vocab, docs, []).digest() == \
            per_array_dense_digest(param_list(params), vocab)
        path = tmp_path / "dense_scorer.bin"
        save_checkpoint(path, "dense-scorer", params, vocab)
        assert path.read_bytes() == \
            per_array_checkpoint_bytes("dense-scorer", param_list(params), vocab)
        loaded, _, extra, _ = load_checkpoint(path, expect_kind="dense-scorer")
        assert loaded.flat.tobytes() == params.flat.tobytes() and extra == {}


class TestInBatchTraining:
    def test_equal_scores_give_ln2(self):
        vocab = Vocab(["a", "b"])
        params = zero_params(len(vocab), 4, 3)
        loss, _ = in_batch_loss_and_grad(
            params, token_rows([vocab.encode(["a"]), vocab.encode(["b"])]),
            token_rows([vocab.encode(["b"]), vocab.encode(["a"])]),
        )
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        vocab = Vocab([f"t{i}" for i in range(6)])
        params = init_params(len(vocab), 3, 3, rng)
        ctx_ids = token_rows(vocab.encode([f"t{i}", f"t{(i+2) % 6}"]) for i in range(5))
        doc_ids = token_rows(vocab.encode([f"t{(i+1) % 6}"]) for i in range(5))
        _, grads = in_batch_loss_and_grad(params, ctx_ids, doc_ids)

        def f(vec):
            probe = init_params(len(vocab), 3, 3, np.random.default_rng(0))
            probe.flat[...] = vec
            loss, _ = in_batch_loss_and_grad(probe, ctx_ids, doc_ids)
            return loss

        numeric = central_difference_grad(f, params.flat)
        assert max_relative_error(grads.flat, numeric) < 1e-4

    def test_batch_below_two_rejected(self, rng):
        vocab = Vocab(["a"])
        params = init_params(len(vocab), 3, 3, rng)
        with pytest.raises(ValueError):
            train_in_batch(params, *pair_rows(vocab, [(("a",), ("a",))] * 4),
                           batch_size=1, epochs=1, learning_rate=0.1, seed=0)

    def test_training_separates_diagonal(self, rng):
        vocab = Vocab([f"t{i}" for i in range(8)])
        params = init_params(len(vocab), 8, 8, rng)
        pairs = [((f"t{i}",), (f"t{(i + 4) % 8}",)) for i in range(8)]
        losses = train_in_batch(params, *pair_rows(vocab, pairs), batch_size=4,
                                epochs=60, learning_rate=0.5, seed=3)
        assert losses[-1] < losses[0]
        ctx_enc, _ = towers.encode_batch(
            params, token_rows(vocab.encode(c) for c, _ in pairs), "context")
        doc_enc, _ = towers.encode_batch(
            params, token_rows(vocab.encode(d) for _, d in pairs), "document")
        scores = ctx_enc @ doc_enc.T
        diag = np.mean(np.diag(scores))
        off = (scores.sum() - np.trace(scores)) / (scores.size - len(pairs))
        assert diag > off

    def test_deterministic_under_seed(self, rng):
        vocab = Vocab([f"t{i}" for i in range(6)])
        pairs = [((f"t{i}",), (f"t{(i + 3) % 6}",)) for i in range(6)]

        def run():
            params = init_params(len(vocab), 4, 4, np.random.default_rng(9))
            train_in_batch(params, *pair_rows(vocab, pairs), batch_size=3, epochs=3,
                           learning_rate=0.2, seed=11)
            return params.flat

        assert np.array_equal(run(), run())

    def test_parameters_made_non_finite_by_the_last_update_raise(self, rng, monkeypatch):
        """One batch per epoch: the last update comes after the last loss."""
        vocab = Vocab([f"t{i}" for i in range(6)])
        pairs = [((f"t{i}",), (f"t{(i + 3) % 6}",)) for i in range(6)]
        real = dense.in_batch_loss_and_grad

        def infinite_gradient(*args):
            loss, grads = real(*args)
            grads.flat[0] = np.inf
            return loss, grads

        monkeypatch.setattr(dense, "in_batch_loss_and_grad", infinite_gradient)
        params = init_params(len(vocab), 4, 4, rng)
        with pytest.raises(FloatingPointError, match=r"^epoch 0: non-finite dense scorer "
                           r"parameters; the dense fit diverged under --fit-lr 0\.2$"):
            train_in_batch(params, *pair_rows(vocab, pairs), batch_size=6, epochs=1,
                           learning_rate=0.2, seed=11)


def _ledger_world(seed=5):
    """60 documents, the last two with one title, and 40 contexts (one of
    them empty, one with unknown tokens) whose positives are d00..d39 and
    whose pools hold six of d40..d59."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(30)]

    def tokens(lo, hi):
        return tuple(str(w) for w in rng.choice(words, size=int(rng.integers(lo, hi))))

    docs = {f"d{j:02d}": tokens(2, 6) for j in range(60)}
    docs["d59"] = docs["d58"]
    contexts = [
        SearchContext(f"s{i:02d}", 1, tokens(1, 9), f"d{i:02d}",
                      tuple(f"d{j}" for j in rng.choice(range(40, 60), 6, replace=False)))
        for i in range(40)
    ]
    contexts[0] = SearchContext("s00", 1, (), "d00", contexts[0].negative_pool)
    contexts[1] = SearchContext("s01", 1, ("w1", "unseen"), "d01", contexts[1].negative_pool)
    vocab = Vocab(words)
    params = init_params(len(vocab), 16, 16, rng)
    corpus = encode_corpus(vocab, docs, {c.context_id: c.context_tokens for c in contexts})
    train_in_batch(params, corpus.contexts,
                   corpus.docs.take([corpus.doc_row[c.positive_doc_id] for c in contexts]),
                   batch_size=8, epochs=3, learning_rate=0.3, seed=seed)
    return params, vocab, docs, contexts, corpus


class TestBatchedScorerMatchesPerContextOracle:
    """DenseScorer scores every context from one forward pass per tower;
    oracles.PerContextDenseScorer encodes each context on its own."""

    @pytest.mark.parametrize("seed", [5, 6])
    def test_rows_within_1e_12(self, seed):
        params, vocab, docs, contexts, corpus = _ledger_world(seed)
        batched = DenseScorer(params, vocab, corpus)
        oracle = PerContextDenseScorer(params, vocab, docs)
        assert batched.doc_ids == oracle.doc_ids
        assert batched.digest() == oracle.digest()
        assert np.max(np.abs(batched.score_corpus(contexts) - oracle.score_corpus(contexts))) \
            < 1e-12

    # d58 and d59 share a title: the batched scorer scores them from one
    # row, so they tie exactly and fall back to doc-id order; the oracle
    # may give them scores a last bit apart. They are the only near-tie.
    NEAR_TIES = {"d59": "d58"}

    @pytest.mark.parametrize("seed", [5, 6])
    def test_dense_ledger_order_equals_the_oracle(self, seed):
        params, vocab, docs, contexts, corpus = _ledger_world(seed)
        batched = DenseScorer(params, vocab, corpus)
        oracle = PerContextDenseScorer(params, vocab, docs)
        got = build_ledger(batched, batched, contexts)
        want = build_ledger(oracle, oracle, contexts)
        (got_pos, got_neg), (want_pos, want_neg) = map(ledger_entries, (got, want))
        assert [e[0] for e in got_pos] == [e[0] for e in want_pos]
        assert max(abs(a[2] - b[2]) for a, b in zip(got_pos, want_pos)) < 1e-12
        assert got.pos_scorer_digest == want.pos_scorer_digest

        def tie_key(negatives):
            return [self.NEAR_TIES.get(d, d) for d, _ in negatives]

        for cid, negatives in want_neg.items():
            assert tie_key(got_neg[cid]) == tie_key(negatives)
            assert max(abs(a[1] - b[1]) for a, b in zip(got_neg[cid], negatives)) < 1e-12
        twins = [n for n in got_neg.values() if {"d58", "d59"} <= {d for d, _ in n}]
        assert twins  # the tie is exercised
        for negatives in twins:
            scores = dict(negatives)
            assert scores["d58"] == scores["d59"]

    def test_fit_on_rows_is_byte_equal_to_token_pairs(self):
        _, vocab, docs, contexts, corpus = _ledger_world()
        pairs = [(c.context_tokens, docs[c.positive_doc_id]) for c in contexts]
        positive_rows = [corpus.doc_row[c.positive_doc_id] for c in contexts]
        a = init_params(len(vocab), 16, 16, np.random.default_rng(3))
        b = init_params(len(vocab), 16, 16, np.random.default_rng(3))
        losses = train_in_batch(a, corpus.contexts, corpus.docs.take(positive_rows),
                                batch_size=13, epochs=3, learning_rate=0.2, seed=4)
        assert losses == pair_train_in_batch(b, vocab, pairs, batch_size=13, epochs=3,
                                             learning_rate=0.2, seed=4)
        assert a.flat.tobytes() == b.flat.tobytes()
