import math

import numpy as np
import pytest

from currank import towers
from currank.dense import dense_score, in_batch_loss_and_grad, train_in_batch
from currank.scorers import DenseScorer
from currank.sessions import Document
from currank.towers import DualEncoderParams, Tower, Vocab, encode, init_params

from oracles import central_difference_grad, max_relative_error


def zero_params(vocab_size, d_emb, hidden):
    rng = np.random.default_rng(0)
    params = init_params(vocab_size, d_emb, hidden, rng)
    for arr in towers.param_arrays(params):
        arr[...] = 0.0
    return params


def doc_table(docs):
    return {d.doc_id: d for d in docs}


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
        params.doc_tower = params.ctx_tower
        s = dense_score(params, vocab, ["a", "b"], ["a", "b"])
        c = encode(params, vocab.encode(["a", "b"]), "context")
        assert s == pytest.approx(float(c @ c), abs=1e-12)
        assert s >= 0.0

    def test_matrix_matches_bruteforce(self, rng):
        vocab = Vocab([f"t{i}" for i in range(10)])
        params = init_params(len(vocab), 4, 3, rng)
        contexts = [(f"t{i}", f"t{(i+1) % 10}") for i in range(3)]
        docs = [Document(f"d{j}", (f"t{j % 10}",)) for j in range(4)]
        scorer = DenseScorer(params, vocab, doc_table(docs))
        for ctx in contexts:
            corpus = scorer.score_corpus(ctx)
            for j, doc in enumerate(docs):
                expected = dense_score(params, vocab, ctx, doc.title_tokens)
                assert corpus[j] == pytest.approx(expected, abs=1e-12)
                assert scorer.score(ctx, doc.doc_id) == pytest.approx(
                    expected, abs=1e-12
                )


class TestScoreAll:
    """DenseScorer: the corpus scores behind the dense difficulty ledger."""

    def test_one_by_one_reduces_to_dense_score(self, rng):
        vocab = Vocab(["a", "b"])
        params = init_params(len(vocab), 4, 3, rng)
        scorer = DenseScorer(params, vocab, {"d": Document("d", ("b",))})
        expected = dense_score(params, vocab, ["a"], ["b"])
        corpus = scorer.score_corpus(["a"])
        assert corpus.shape == (1,)
        assert corpus[0] == pytest.approx(expected, abs=1e-12)
        assert scorer.score(["a"], "d") == pytest.approx(expected, abs=1e-12)

    def test_permutation_equivariance(self, rng):
        # Reversing which doc id carries which title reverses the corpus
        # scores, which are in doc-id order.
        vocab = Vocab([f"t{i}" for i in range(8)])
        params = init_params(len(vocab), 4, 3, rng)
        ids = [f"d{j}" for j in range(5)]
        titles = [(f"t{j}",) for j in range(5)]
        base = DenseScorer(params, vocab, doc_table(map(Document, ids, titles)))
        perm = DenseScorer(params, vocab, doc_table(map(Document, ids, titles[::-1])))
        for i in range(4):
            assert np.allclose(
                base.score_corpus([f"t{i}"])[::-1], perm.score_corpus([f"t{i}"]),
                atol=0,
            )

    def test_encode_call_budget(self, rng):
        vocab = Vocab([f"t{i}" for i in range(8)])
        params = init_params(len(vocab), 4, 3, rng)
        contexts = [(f"t{i}",) for i in range(10)]
        docs = [Document(f"d{j}", (f"t{j % 8}",)) for j in range(20)]
        before = towers.ENCODE_CALLS
        scorer = DenseScorer(params, vocab, doc_table(docs))
        for ctx in contexts:
            scorer.score_corpus(ctx)
        assert towers.ENCODE_CALLS - before == len(contexts) + len(docs)

    def test_determinism(self, rng):
        vocab = Vocab([f"t{i}" for i in range(8)])
        params = init_params(len(vocab), 4, 3, rng)
        docs = doc_table(Document(f"d{j}", (f"t{j}",)) for j in range(5))
        a = DenseScorer(params, vocab, docs)
        b = DenseScorer(params, vocab, docs)
        assert a.digest() == b.digest()
        for i in range(4):
            assert np.array_equal(a.score_corpus([f"t{i}"]), b.score_corpus([f"t{i}"]))


class TestInBatchTraining:
    def test_equal_scores_give_ln2(self):
        vocab = Vocab(["a", "b"])
        params = zero_params(len(vocab), 4, 3)
        loss, _ = in_batch_loss_and_grad(
            params, [vocab.encode(["a"]), vocab.encode(["b"])],
            [vocab.encode(["b"]), vocab.encode(["a"])],
        )
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        vocab = Vocab([f"t{i}" for i in range(6)])
        params = init_params(len(vocab), 3, 3, rng)
        ctx_ids = [vocab.encode([f"t{i}", f"t{(i+2) % 6}"]) for i in range(5)]
        doc_ids = [vocab.encode([f"t{(i+1) % 6}"]) for i in range(5)]
        _, grads = in_batch_loss_and_grad(params, ctx_ids, doc_ids)

        def f(vec):
            probe = init_params(len(vocab), 3, 3, np.random.default_rng(0))
            towers.unpack_into(vec, probe)
            loss, _ = in_batch_loss_and_grad(probe, ctx_ids, doc_ids)
            return loss

        numeric = central_difference_grad(f, towers.pack(params))
        assert max_relative_error(towers.pack(grads), numeric) < 1e-4

    def test_batch_below_two_rejected(self, rng):
        vocab = Vocab(["a"])
        params = init_params(len(vocab), 3, 3, rng)
        with pytest.raises(ValueError):
            train_in_batch(params, vocab, [(("a",), ("a",))] * 4,
                           batch_size=1, epochs=1, learning_rate=0.1, seed=0)

    def test_training_separates_diagonal(self, rng):
        vocab = Vocab([f"t{i}" for i in range(8)])
        params = init_params(len(vocab), 8, 8, rng)
        pairs = [((f"t{i}",), (f"t{(i + 4) % 8}",)) for i in range(8)]
        losses = train_in_batch(params, vocab, pairs, batch_size=4,
                                epochs=60, learning_rate=0.5, seed=3)
        assert losses[-1] < losses[0]
        ctx_enc, _ = towers.encode_batch(
            params, [vocab.encode(c) for c, _ in pairs], "context")
        doc_enc, _ = towers.encode_batch(
            params, [vocab.encode(d) for _, d in pairs], "document")
        scores = ctx_enc @ doc_enc.T
        diag = np.mean(np.diag(scores))
        off = (scores.sum() - np.trace(scores)) / (scores.size - len(pairs))
        assert diag > off

    def test_deterministic_under_seed(self, rng):
        vocab = Vocab([f"t{i}" for i in range(6)])
        pairs = [((f"t{i}",), (f"t{(i + 3) % 6}",)) for i in range(6)]

        def run():
            params = init_params(len(vocab), 4, 4, np.random.default_rng(9))
            train_in_batch(params, vocab, pairs, batch_size=3, epochs=3,
                           learning_rate=0.2, seed=11)
            return towers.pack(params)

        assert np.array_equal(run(), run())
