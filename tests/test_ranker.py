import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from currank import towers
from currank.ranker import (
    RankerParams,
    loss_and_grad,
    rank_slate,
    softmax_cross_entropy,
)
from currank.sessions import SearchContext
from currank.towers import Vocab, encode_corpus, init_params

from batches import item_rows
from oracles import (
    central_difference_grad, loop_softmax_cross_entropy, max_relative_error, rank_score,
    two_step_softmax_grad,
)


def make_context(tokens, position=1):
    return SearchContext(
        session_id="s", position=position, context_tokens=tuple(tokens),
        positive_doc_id="p", negative_pool=("n",),
    )


def batch_rows(vocab, batch, documents):
    """The batch's context and slate token rows, as the trainer builds them."""
    return item_rows(vocab, documents, batch)


def zero_ranker(vocab_size, d_emb=4, hidden=3, tau=1.0):
    params = RankerParams(init_params(vocab_size, d_emb, hidden, np.random.default_rng(0)), tau=tau)
    params.encoder.flat[...] = 0.0
    return params


@pytest.fixture
def small_setup(rng):
    vocab = Vocab([f"t{i}" for i in range(8)])
    documents = {f"d{j}": (f"t{j % 8}",) for j in range(10)}
    params = RankerParams(init_params(len(vocab), 4, 4, rng))
    return vocab, documents, params


class TestRankScore:
    def test_zero_params(self):
        vocab = Vocab(["a"])
        params = zero_ranker(len(vocab))
        assert rank_score(params, vocab, ["a"], ["a"]) == 0.0

    def test_temperature_scales_scores_not_order(self, small_setup):
        vocab, documents, params = small_setup
        ctx = make_context(["t0", "t1"])
        base = [rank_score(params, vocab, ctx.context_tokens, documents[d])
                for d in sorted(documents)]
        hot = RankerParams(encoder=params.encoder, tau=3.0)
        scaled = [rank_score(hot, vocab, ctx.context_tokens, documents[d])
                  for d in sorted(documents)]
        assert np.allclose(np.array(scaled) * 3.0, base, atol=1e-12)
        assert np.argsort(base).tolist() == np.argsort(scaled).tolist()

    def test_hand_computed_value(self):
        vocab = Vocab(["a", "b"])
        params = zero_ranker(len(vocab), d_emb=2, hidden=2, tau=2.0)
        ia, ib = vocab.encode(["a", "b"])
        params.encoder.emb[ia] = [1.0, 0.0]
        params.encoder.emb[ib] = [0.0, 1.0]
        for t in (params.encoder.ctx_tower, params.encoder.doc_tower):
            t.w1[...] = np.eye(2)
            t.w2[...] = np.eye(2)
        c = np.tanh([1.0, 0.0])
        d = np.tanh([0.0, 1.0])
        expected = float(c @ d) / 2.0
        assert rank_score(params, vocab, ["a"], ["b"]) == pytest.approx(
            expected, abs=1e-12
        )

    def test_tau_must_be_positive(self):
        vocab = Vocab(["a"])
        with pytest.raises(ValueError):
            RankerParams(encoder=init_params(len(vocab), 2, 2,
                                             np.random.default_rng(0)), tau=0.0)


def test_identical_titles_share_a_row():
    vocab = Vocab(["a", "b"])
    docs = {d: t for d, t in
            [("d1", ("a", "b")), ("d2", ("b",)), ("d3", ("a", "b"))]}
    corpus = encode_corpus(vocab, docs, {})
    assert corpus.doc_row["d1"] == corpus.doc_row["d3"] != corpus.doc_row["d2"]
    assert len(corpus.docs) == 2


class TestLossAndGrad:
    def _batch(self, n_items, m, documents):
        items = []
        doc_ids = sorted(documents)
        for i in range(n_items):
            pos = doc_ids[i % len(doc_ids)]
            negs = tuple(
                d for d in doc_ids if d != pos
            )[:m]
            items.append((make_context([f"t{i % 8}", f"t{(i + 3) % 8}"], i + 1),
                          pos, negs))
        return items

    def test_uniform_scores_loss_is_ln_m_plus_1(self, small_setup):
        vocab, documents, _ = small_setup
        params = zero_ranker(len(vocab))
        m = 4
        batch = self._batch(3, m, documents)
        report = loss_and_grad(params, *batch_rows(vocab, batch, documents))
        assert report.loss == pytest.approx(math.log(m + 1), abs=1e-12)

    def test_saturated_positive_loss_near_zero(self):
        # identity towers: context "a" aligns with doc "a" and is orthogonal
        # to doc "b"; a tiny temperature saturates the softmax
        vocab = Vocab(["a", "b"])
        params = zero_ranker(len(vocab), d_emb=2, hidden=2, tau=1e-3)
        ia, ib = vocab.encode(["a", "b"])
        params.encoder.emb[ia] = [5.0, 0.0]
        params.encoder.emb[ib] = [0.0, 5.0]
        for t in (params.encoder.ctx_tower, params.encoder.doc_tower):
            t.w1[...] = np.eye(2)
            t.w2[...] = np.eye(2)
        docs = {"pos": ("a",), "neg": ("b",)}
        ctx = make_context(["a"])
        batch = [(ctx, "pos", ("neg", "neg"))]
        report = loss_and_grad(params, *batch_rows(vocab, batch, docs))
        assert np.isfinite(report.loss)
        assert report.loss < 1e-12

    def test_translation_invariance_via_shared_shift(self, small_setup):
        # adding a constant to every doc-tower output bias shifts all slate
        # scores of an item equally and must not change the loss
        vocab, documents, params = small_setup
        batch = self._batch(3, 4, documents)
        base = loss_and_grad(params, *batch_rows(vocab, batch, documents)).loss
        # shifting dot products directly: emulate by adding c to scores via
        # a doc-tower bias change has no such guarantee, so check the
        # softmax shift invariance on the math level instead
        scores = np.random.default_rng(0).normal(size=(3, 5))
        def ce(s):
            sh = s - s.max(axis=1, keepdims=True)
            p = np.exp(sh) / np.exp(sh).sum(axis=1, keepdims=True)
            return float(-np.mean(np.log(p[:, 0])))
        assert ce(scores) == pytest.approx(ce(scores + 7.3), abs=1e-9)
        assert np.isfinite(base)

    def test_gradients_match_finite_differences(self, small_setup):
        vocab, documents, _ = small_setup
        rng = np.random.default_rng(77)
        params = RankerParams(init_params(len(vocab), 4, 4, rng), tau=1.3)
        batch = self._batch(3, 4, documents)
        report = loss_and_grad(params, *batch_rows(vocab, batch, documents))

        def f(vec):
            probe = RankerParams(init_params(len(vocab), 4, 4, np.random.default_rng(0)), tau=1.3)
            probe.encoder.flat[...] = vec
            return loss_and_grad(probe, *batch_rows(vocab, batch, documents)).loss

        numeric = central_difference_grad(f, params.encoder.flat)
        assert max_relative_error(report.grads.flat, numeric) < 1e-4

    def test_tau_gradient_matches_finite_differences(self, small_setup):
        vocab, documents, _ = small_setup
        params = RankerParams(init_params(len(vocab), 4, 4, np.random.default_rng(3)), tau=0.8)
        batch = self._batch(3, 4, documents)
        report = loss_and_grad(params, *batch_rows(vocab, batch, documents))
        eps = 1e-6
        up = loss_and_grad(
            RankerParams(params.encoder, tau=0.8 + eps),
            *batch_rows(vocab, batch, documents),
        ).loss
        down = loss_and_grad(
            RankerParams(params.encoder, tau=0.8 - eps),
            *batch_rows(vocab, batch, documents),
        ).loss
        assert report.grad_tau == pytest.approx((up - down) / (2 * eps), rel=1e-4)

    def test_positive_rank_reported(self, small_setup):
        vocab, documents, params = small_setup
        batch = self._batch(3, 4, documents)
        report = loss_and_grad(params, *batch_rows(vocab, batch, documents))
        assert len(report.positive_ranks) == 3
        assert all(1 <= r <= 5 for r in report.positive_ranks)

    def test_mismatched_negative_counts_rejected(self, small_setup):
        vocab, documents, params = small_setup
        items = [
            (make_context(["t0"]), "d0", ("d1", "d2")),
            (make_context(["t1"]), "d1", ("d2",)),
        ]
        with pytest.raises(ValueError):
            loss_and_grad(params, *batch_rows(vocab, items, documents))


@st.composite
def score_rows(draw):
    """A (rows, width) score array, some rows spread by 1e3 or more, and a
    positive column: one for every row, or one per row."""
    n, width = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    cells = st.floats(-50.0, 50.0) | st.sampled_from([-5e3, -1e3, 1e3, 5e3, 1e4])
    scores = np.array(draw(st.lists(st.lists(cells, min_size=width, max_size=width),
                                    min_size=n, max_size=n)))
    if draw(st.booleans()):
        return scores, draw(st.integers(0, width - 1))
    return scores, np.array(draw(st.lists(st.integers(0, width - 1), min_size=n, max_size=n)))


class TestSoftmaxCrossEntropy:
    @settings(max_examples=300, deadline=None)
    @given(rows=score_rows())
    def test_equals_a_per_row_loop(self, rows):
        scores, positive = rows
        losses, dscores = softmax_cross_entropy(scores, positive)
        want_losses, want_grad = loop_softmax_cross_entropy(scores, positive)
        assert np.isfinite(losses).all() and (losses >= 0).all()
        assert losses == pytest.approx(want_losses, rel=1e-12, abs=1e-12)
        assert dscores == pytest.approx(want_grad, rel=1e-12, abs=1e-15)
        # the gradient keeps the bits of the probability-array form
        assert dscores.tobytes() == two_step_softmax_grad(scores, positive).tobytes()

    def test_a_wide_score_gap_gives_a_finite_loss(self):
        """A positive 1e3 or more below its row's best: the softmax
        probability underflows to 0, so its log was -inf; in log space the
        loss is the gap."""
        scores = np.array([[0.0, 1e3], [-4e3, 1e3], [2e4, 0.0]])
        losses, _ = softmax_cross_entropy(scores, 0)
        assert losses.tolist() == [1e3, 5e3, 0.0]

    @pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_score_raises(self, cell):
        scores = np.zeros((2, 3))
        scores[1, 2] = cell
        with pytest.raises(FloatingPointError, match="non-finite scores"):
            softmax_cross_entropy(scores, 0)

    @np.errstate(over="ignore")  # the shift overflows
    def test_a_positive_the_float_range_below_its_row_max_raises(self):
        scores = np.array([[1.5e308, -1.5e308], [-1.5e308, 1.5e308]])
        losses, _ = softmax_cross_entropy(scores[:1], 0)  # a negative that far down is p = 0
        assert losses.tolist() == [0.0]
        with pytest.raises(FloatingPointError, match="non-finite losses"):
            softmax_cross_entropy(scores, 0)


class TestRankSlate:
    def test_single_candidate(self, small_setup):
        vocab, documents, params = small_setup
        ctx = make_context(["t0"])
        out = rank_slate(params, vocab, ctx.context_tokens, ["d3"], documents)
        assert out == [("d3", pytest.approx(out[0][1]))]

    def test_permutation_invariant_output(self, small_setup):
        vocab, documents, params = small_setup
        ctx = make_context(["t0", "t1"])
        ids = sorted(documents)
        a = rank_slate(params, vocab, ctx.context_tokens, ids, documents)
        b = rank_slate(params, vocab, ctx.context_tokens, ids[::-1], documents)
        assert a == b

    def test_zero_params_orders_by_doc_id(self, small_setup):
        vocab, documents, _ = small_setup
        params = zero_ranker(len(vocab))
        ctx = make_context(["t0"])
        ids = ["d3", "d1", "d2"]
        out = rank_slate(params, vocab, ctx.context_tokens, ids, documents)
        assert [d for d, _ in out] == ["d1", "d2", "d3"]
        assert all(s == 0.0 for _, s in out)

    def test_scores_match_reference_scorer(self, small_setup):
        vocab, documents, params = small_setup
        ctx = make_context(["t0", "t4", "zzz"])
        for doc_id, score in rank_slate(params, vocab, ctx.context_tokens, sorted(documents),
                                        documents):
            want = rank_score(params, vocab, ctx.context_tokens,
                              documents[doc_id])
            assert score == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_scores_sorted_descending(self, small_setup):
        vocab, documents, params = small_setup
        ctx = make_context(["t0", "t4"])
        out = rank_slate(params, vocab, ctx.context_tokens, sorted(documents), documents)
        scores = [s for _, s in out]
        assert scores == sorted(scores, reverse=True)
