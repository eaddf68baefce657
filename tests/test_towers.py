import dataclasses

import numpy as np
import pytest

from currank import towers
from currank.towers import Vocab, encode_corpus, init_params, token_rows

from oracles import loop_init_params, loop_pool, loop_scatter, param_list

# Empty sequences, repeats and the unknown id 1 included.
SEQUENCES = [[2, 3, 2], [], [1], [4, 1, 1, 5, 6, 2], [7], [], [0, 0]]


def random_sequences(rng, n=200, vocab_size=60, max_len=16):
    return [list(rng.integers(0, vocab_size, size=int(rng.integers(0, max_len + 1))))
            for _ in range(n)]


def reference_forward(params, sequences, tower):
    t = params.tower(tower)
    pooled = loop_pool(params.emb, sequences)
    hidden = np.tanh(pooled @ t.w1.T + t.b1)
    return hidden @ t.w2.T + t.b2, pooled, hidden


class TestTokenRows:
    def test_layout(self):
        rows = token_rows(SEQUENCES)
        assert rows.lengths.tolist() == [3, 1, 1, 6, 1, 1, 2]
        assert rows.ids[0].tolist() == [2, 3, 2, -1, -1, -1]
        assert rows.ids[1].tolist() == [0, -1, -1, -1, -1, -1]  # empty -> pad token

    def test_take_trims_to_widest_row(self):
        rows = token_rows(SEQUENCES).take([2, 0])
        assert rows.ids.tolist() == [[1, -1, -1], [2, 3, 2]]
        assert rows.lengths.tolist() == [1, 3]

    def test_unknown_tokens_and_empty_sequences(self):
        vocab = Vocab(["a", "b"])
        rows = token_rows(map(vocab.encode, [("a", "zzz"), (), ("b",)]))
        assert rows.ids.tolist() == [[2, 1], [0, -1], [3, -1]]

    @pytest.mark.parametrize("seed", range(5))
    def test_encode_corpus_equals_per_sequence_encoding(self, seed):
        """One flat pass over all tokens gives token_rows' arrays of the
        per-sequence id lists: unknown tokens, empty sequences and titles included."""
        rng = np.random.default_rng(seed)
        words = [f"w{i}" for i in range(12)]
        vocab = Vocab(words[:8])

        def tokens():
            return tuple(rng.choice(words, size=int(rng.integers(0, 7))).tolist())

        contexts = {f"c{i}": tokens() for i in range(40)}
        documents = {f"d{i}": tokens() for i in range(15)}
        corpus = encode_corpus(vocab, documents, contexts)
        titles = list(dict.fromkeys(documents.values()))
        for got, sequences in [(corpus.contexts, contexts.values()), (corpus.docs, titles)]:
            want = token_rows(map(vocab.encode, sequences))
            for name in ("ids", "lengths"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name


class TestEncodeBatch:
    @pytest.mark.parametrize("tower", ["context", "document"])
    def test_bit_equal_to_per_sequence_loop(self, tower):
        rng = np.random.default_rng(5)
        params = init_params(60, 32, 32, rng)
        for sequences in (SEQUENCES, random_sequences(rng)):
            out, cache = towers.encode_batch(params, token_rows(sequences), tower)
            want, pooled, hidden = reference_forward(params, sequences, tower)
            assert np.array_equal(cache.pooled, pooled)
            assert np.array_equal(cache.hidden, hidden)
            assert np.array_equal(out, want)

    def test_id_lists_rows_and_taken_rows_agree(self, rng):
        params = init_params(60, 8, 8, rng)
        sequences = random_sequences(rng, n=50)
        pick = [7, 3, 3, 40, 0]
        from_lists, _ = towers.encode_batch(
            params, token_rows([sequences[i] for i in pick]), "context")
        taken, _ = towers.encode_batch(params, token_rows(sequences).take(pick), "context")
        assert np.array_equal(from_lists, taken)

    def test_counts_encoded_sequences(self, rng):
        params = init_params(10, 4, 4, rng)
        before = towers.ENCODE_CALLS
        towers.encode_batch(params, token_rows(SEQUENCES), "document")
        assert towers.ENCODE_CALLS - before == len(SEQUENCES)


class TestBackwardBatch:
    @pytest.mark.parametrize("tower", ["context", "document"])
    def test_bit_equal_to_per_token_loop(self, tower):
        rng = np.random.default_rng(6)
        params = init_params(60, 32, 32, rng)
        for sequences in (SEQUENCES, random_sequences(rng)):
            _, cache = towers.encode_batch(params, token_rows(sequences), tower)
            grad_out = rng.normal(size=(len(sequences), 32))
            grads = params.like(np.zeros_like(params.flat))
            towers.backward_batch(params, [(cache, grad_out)], grads)

            t = params.tower(tower)
            gz = (grad_out @ t.w2) * (1.0 - cache.hidden**2)
            want = np.zeros_like(params.emb)
            loop_scatter(want, sequences, gz @ t.w1)
            assert np.array_equal(grads.emb, want)

    def test_both_towers_in_one_call_equal_the_loop_context_first(self):
        """One bincount over a context and a document pass that share
        tokens adds each bin's terms as the per-token loop does, context
        sequences first; each tower's dense gradients are its own pass's."""
        rng = np.random.default_rng(9)
        params = init_params(30, 16, 8, rng)
        ctx_seqs = SEQUENCES + random_sequences(rng, n=40, vocab_size=30)
        doc_seqs = random_sequences(rng, n=60, vocab_size=30) + SEQUENCES
        passes, want = [], np.zeros_like(params.emb)
        for tower, sequences in (("context", ctx_seqs), ("document", doc_seqs)):
            _, cache = towers.encode_batch(params, token_rows(sequences), tower)
            grad_out = rng.normal(size=(len(sequences), 16))
            passes.append((cache, grad_out))
            t = params.tower(tower)
            loop_scatter(want, sequences, ((grad_out @ t.w2) * (1.0 - cache.hidden**2)) @ t.w1)
        grads = params.like(np.zeros_like(params.flat))
        towers.backward_batch(params, passes, grads)
        assert np.array_equal(grads.emb, want)
        for tower, one_pass in zip(("context", "document"), passes):
            alone = params.like(np.zeros_like(params.flat))
            towers.backward_batch(params, [one_pass], alone)
            got, solo = grads.tower(tower), alone.tower(tower)
            for name in ("w1", "b1", "w2", "b2"):
                assert np.array_equal(getattr(got, name), getattr(solo, name))


class TestFlatLayout:
    @pytest.mark.parametrize("dims", [(60, 32, 32), (7, 3, 5), (2, 1, 1)])
    def test_init_params_draws_as_the_per_array_code(self, dims):
        params = init_params(*dims, np.random.default_rng(8))
        want = loop_init_params(*dims, np.random.default_rng(8))
        assert params.flat.dtype == np.float64 and params.flat.flags.c_contiguous
        assert params.flat.tobytes() == np.concatenate([a.ravel() for a in want]).tobytes()
        for got, arr in zip(param_list(params), want):
            assert got.shape == arr.shape and np.array_equal(got, arr)

    def test_flat_aliases_every_view(self):
        params = init_params(10, 4, 3, np.random.default_rng(2))
        grads = params.like(np.zeros_like(params.flat))
        for p in (params, grads):
            views = param_list(p)
            assert all(np.shares_memory(v, p.flat) for v in views)
            assert sum(v.size for v in views) == p.flat.size
            p.emb[3, 1] = 11.0
            p.ctx_tower.w2[0, 2] = 12.0
            p.doc_tower.b1[...] = 13.0
            assert p.flat[3 * 4 + 1] == 11.0
            assert np.count_nonzero(p.flat == 12.0) == 1
            assert np.count_nonzero(p.flat == 13.0) == 3
            p.flat[...] = 0.0
            assert not any(v.any() for v in views)
        assert not np.shares_memory(params.flat, grads.flat)

    def test_views_cannot_be_rebound(self):
        params = init_params(10, 4, 3, np.random.default_rng(2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            params.emb = np.zeros((10, 4))
        with pytest.raises(dataclasses.FrozenInstanceError):
            params.doc_tower.w1 = np.zeros((3, 4))
