import math

import numpy as np
import pytest

from currank.bm25 import (
    Bm25Params,
    build_index,
    score_all,
    term_weights,
    tokenize,
)
from currank.scorers import Bm25Scorer
from currank.sessions import Document, SearchContext

from oracles import naive_bm25, per_call_score_all


def score(index, params, query, doc_id):
    """One document's entry of the corpus scores."""
    scores = score_all(term_weights(index, params), len(index.doc_ids), query)
    return scores[index.doc_ids.index(doc_id)]


class TestTokenize:
    def test_basic(self):
        assert tokenize("Clay Aiken") == ["clay", "aiken"]

    def test_empty(self):
        assert tokenize("") == []

    def test_punctuation_split(self):
        assert tokenize("chanel's designer-handbags") == [
            "chanel", "s", "designer", "handbags"
        ]


class TestBuildIndex:
    def test_single_doc_counts(self):
        docs = {"d": Document("d", ("a", "b", "a"))}
        index = build_index(docs)
        positions, tfs = index.postings["a"]
        assert len(positions) == 1
        assert tfs.tolist() == [2]
        assert index.avg_doc_length == 3

    def test_two_doc_counts(self):
        docs = {
            "d1": Document("d1", ("a",)),
            "d2": Document("d2", ("a", "b")),
        }
        index = build_index(docs)
        assert {t: len(p) for t, (p, _) in index.postings.items()} == {"a": 2, "b": 1}
        assert index.avg_doc_length == 1.5

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            build_index({})

    def test_rebuild_identical_digest(self, tiny_documents):
        assert build_index(tiny_documents).digest() == build_index(tiny_documents).digest()

    def test_tf_sums_to_length(self, tiny_index):
        totals = np.zeros(len(tiny_index.doc_ids), dtype=np.int64)
        for positions, tfs in tiny_index.postings.values():
            totals[positions] += tfs
        assert totals.tolist() == tiny_index.doc_lengths.tolist()


class TestScore:
    def test_absent_term_scores_zero(self, tiny_index):
        assert score(tiny_index, Bm25Params(), ["zzz"], "d1") == 0.0

    def test_duplicate_query_term_doubles(self, tiny_index):
        params = Bm25Params()
        one = score(tiny_index, params, ["clay"], "d1")
        two = score(tiny_index, params, ["clay", "clay"], "d1")
        assert two == pytest.approx(2 * one, abs=1e-12)

    def test_matches_naive_oracle_small(self):
        raw = {"d1": ["a", "b"], "d2": ["c"]}
        docs = {d: Document(d, tuple(toks)) for d, toks in raw.items()}
        index = build_index(docs)
        got = score(index, Bm25Params(k1=1.2, b=0.75), ["a"], "d1")
        assert got == pytest.approx(naive_bm25(raw, ["a"], "d1"), abs=1e-12)

    def test_oracle_equivalence_random_corpora(self, rng):
        vocab = [f"t{i}" for i in range(30)]
        for _ in range(5):
            raw = {
                f"d{i}": [vocab[j] for j in rng.integers(0, 30, rng.integers(1, 12))]
                for i in range(100)
            }
            docs = {d: Document(d, tuple(toks)) for d, toks in raw.items()}
            index = build_index(docs)
            query = [vocab[j] for j in rng.integers(0, 30, rng.integers(1, 9))]
            for doc_id in list(raw)[:10]:
                assert score(index, Bm25Params(), query, doc_id) == pytest.approx(
                    naive_bm25(raw, query, doc_id), abs=1e-9
                )

    def test_monotone_in_tf(self):
        # same length, higher tf of the matched term never scores lower
        low = {"d": Document("d", ("a", "b", "c")), "e": Document("e", ("x", "y", "z"))}
        high = {"d": Document("d", ("a", "a", "b")), "e": Document("e", ("x", "y", "z"))}
        s_low = score(build_index(low), Bm25Params(), ["a"], "d")
        s_high = score(build_index(high), Bm25Params(), ["a"], "d")
        assert s_high >= s_low

    def test_b_zero_ignores_length(self):
        docs = {
            "short": Document("short", ("a",)),
            "long": Document("long", ("a",) + tuple(f"f{i}" for i in range(9))),
        }
        index = build_index(docs)
        params = Bm25Params(b=0.0)
        assert score(index, params, ["a"], "short") == pytest.approx(
            score(index, params, ["a"], "long"), abs=1e-12
        )


class TestScoreContext:
    def _context(self, tokens):
        return SearchContext(
            session_id="s1", position=1, context_tokens=tuple(tokens),
            positive_doc_id="d1", negative_pool=("d3",),
        )

    def test_empty_history_reduces_to_query(self, tiny_index):
        params = Bm25Params()
        ctx = self._context(["clay", "aiken"])
        assert score(tiny_index, params, ctx.context_tokens, "d1") == pytest.approx(
            score(tiny_index, params, ["clay", "aiken"], "d1"), abs=1e-12
        )

    def test_disjoint_history_is_free(self, tiny_index):
        params = Bm25Params()
        plain = self._context(["chanel"])
        with_history = self._context(["zzz", "qqq", "|", "chanel"])
        assert score(tiny_index, params, plain.context_tokens, "d2") == pytest.approx(
            score(tiny_index, params, with_history.context_tokens, "d2"), abs=1e-12
        )

    def test_shared_history_term_raises_score(self):
        raw = {
            "d1": ["clay", "news"],
            "d2": ["pottery", "shop"],
            "d3": ["other", "stuff"],
        }
        docs = {d: Document(d, tuple(toks)) for d, toks in raw.items()}
        index = build_index(docs)
        params = Bm25Params()
        alone = self._context(["news"])
        with_history = self._context(["clay", "|", "news"])
        s_alone = score(index, params, alone.context_tokens, "d1")
        s_hist = score(index, params, with_history.context_tokens, "d1")
        assert s_hist > s_alone
        assert s_hist == pytest.approx(
            naive_bm25(raw, ["clay", "news"], "d1"), abs=1e-12
        )


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            Bm25Params(k1=-0.1)
        with pytest.raises(ValueError):
            Bm25Params(b=1.5)


class TestScoreMatchesPerCallOracle:
    """Term weights computed once give the bits of the per-call computation."""

    def test_random_corpora(self, rng):
        words = [f"w{i}" for i in range(25)]
        for _ in range(20):
            docs = {
                f"d{j:03d}": Document(f"d{j:03d}", tuple(
                    rng.choice(words, size=int(rng.integers(1, 10))).tolist()))
                for j in range(int(rng.integers(1, 80)))
            }
            index = build_index(docs)
            params = Bm25Params(k1=float(rng.uniform(0, 3)), b=float(rng.uniform(0, 1)))
            weights = term_weights(index, params)
            scorer = Bm25Scorer(index, params)
            for _ in range(20):
                # repeated terms, terms no document has, the separator, empty queries
                query = rng.choice(words + ["oov", "|"], size=int(rng.integers(0, 15))).tolist()
                want = per_call_score_all(index, params, query)
                assert np.array_equal(score_all(weights, len(index.doc_ids), query), want)
                ctx = SearchContext("s", 1, tuple(query), "d000", ())
                assert np.array_equal(scorer.score_corpus(ctx), want)
