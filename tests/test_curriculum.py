import math

import numpy as np
import pytest
from scipy import stats

from currank.bm25 import Bm25Params, build_index
from currank.curriculum import (
    DifficultyLedger,
    PacingParams,
    PositiveEntry,
    build_ledger,
    difficulty_negative,
    difficulty_positive,
    load_ledger,
    pacing_negative,
    pacing_positive,
    rank_of_positive,
    sample_batch,
    save_ledger,
)
from currank.scorers import Bm25Scorer
from currank.sessions import Document, SearchContext


def random_pacing(rng, T=None):
    return PacingParams(
        delta=float(rng.uniform(0.05, 0.95)),
        eta=float(rng.uniform(0.05, 0.95)),
        alpha=float(rng.uniform(0.1, 0.9)),
        beta=float(rng.uniform(0.1, 0.9)),
        k=float(rng.uniform(1.0, 5.0)),
        T=int(T or rng.integers(10, 2000)),
    )


class TestPacingPositive:
    def test_starts_at_delta(self):
        p = PacingParams(delta=0.3, k=3.7, alpha=0.4, T=100)
        assert pacing_positive(p, 0) == 0.3

    def test_clamps_to_one_from_alpha_T(self):
        p = PacingParams(delta=0.3, alpha=0.5, T=1000)
        for t in (500, 600, 1000):
            assert pacing_positive(p, t) == pytest.approx(1.0, abs=1e-12)

    def test_hand_evaluated_k1_point(self):
        p = PacingParams(delta=0.3, k=1.0, alpha=0.5, T=1000)
        assert pacing_positive(p, 125) == pytest.approx(0.475, abs=1e-12)

    def test_out_of_range_rejected(self):
        p = PacingParams(T=10)
        with pytest.raises(ValueError):
            pacing_positive(p, -1)
        with pytest.raises(ValueError):
            pacing_positive(p, 11)

    def test_k1_closed_form_grid(self, rng):
        p = PacingParams(delta=0.25, eta=0.6, alpha=0.4, beta=0.7, k=1.0, T=100)
        for t in range(101):
            closed = min(1.0, t * (1 - 0.25) / (0.4 * 100) + 0.25)
            assert pacing_positive(p, t) == pytest.approx(closed, abs=1e-12)


class TestPacingNegative:
    def test_starts_at_one(self):
        p = PacingParams(eta=0.7, k=2.5, beta=0.3, T=50)
        assert pacing_negative(p, 0) == 1.0

    def test_clamps_to_eta_from_beta_T(self):
        p = PacingParams(eta=0.7, beta=0.5, T=1000)
        for t in (500, 700, 1000):
            assert pacing_negative(p, t) == pytest.approx(0.7, abs=1e-12)

    def test_hand_evaluated_k1_point(self):
        p = PacingParams(eta=0.7, k=1.0, beta=0.5, T=1000)
        assert pacing_negative(p, 250) == pytest.approx(0.85, abs=1e-12)

    def test_k1_closed_form_grid(self):
        p = PacingParams(delta=0.2, eta=0.6, alpha=0.5, beta=0.7, k=1.0, T=100)
        for t in range(101):
            closed = max(0.6, 1 + 0.6 - (t * (1 - 0.6) / (0.7 * 100) + 0.6))
            assert pacing_negative(p, t) == pytest.approx(closed, abs=1e-12)


class TestPacingMonotonicity:
    def test_random_draws(self, rng):
        for _ in range(200):
            p = random_pacing(rng, T=200)
            fp = [pacing_positive(p, t) for t in range(p.T + 1)]
            fn = [pacing_negative(p, t) for t in range(p.T + 1)]
            assert all(a <= b for a, b in zip(fp, fp[1:]))
            assert all(a >= b for a, b in zip(fn, fn[1:]))
            assert fp[0] == p.delta
            assert fn[0] == 1.0


class TestDifficultyPositive:
    def test_easiest_pair_is_one(self):
        assert difficulty_positive(score=4.0, rank=1, corpus_max_score=4.0) == 1.0

    def test_score_breaks_rank_ties(self):
        hard = difficulty_positive(score=1.0, rank=3, corpus_max_score=4.0)
        easy = difficulty_positive(score=3.0, rank=3, corpus_max_score=4.0)
        assert hard > easy

    def test_hand_worked_five_doc_example(self):
        # corpus scores under C: d+ = 3.0, others 4.0, 2.0, 1.0, 0.5
        scores = np.array([4.0, 3.0, 2.0, 1.0, 0.5])
        doc_ids = ["a", "dpos", "c", "d", "e"]
        rank = rank_of_positive(scores, doc_ids.index("dpos"))
        assert rank == 2
        assert difficulty_positive(3.0, rank, 4.0) == pytest.approx(2.25, abs=1e-12)

    def test_degenerate_scorer_rejected(self):
        with pytest.raises(ValueError):
            difficulty_positive(score=0.0, rank=1, corpus_max_score=0.0)

    def test_rank_dominates_random_tables(self, rng):
        # lower-ranked pair always strictly harder, whatever the scores
        for _ in range(1000):
            max_score = float(rng.uniform(1.0, 10.0))
            s1, s2 = rng.uniform(0.01, max_score, size=2)
            r1 = int(rng.integers(1, 50))
            r2 = r1 + int(rng.integers(1, 50))
            assert difficulty_positive(s1, r1, max_score) < difficulty_positive(
                s2, r2, max_score
            )


class TestDifficultyNegative:
    def test_identity_on_scores(self, rng):
        for s in rng.normal(size=20):
            assert difficulty_negative(float(s)) == float(s)

    def test_ordering_matches_scorer(self, rng):
        scores = rng.normal(size=10).tolist()
        by_dn = sorted(scores, key=difficulty_negative, reverse=True)
        assert by_dn == sorted(scores, reverse=True)

    def test_bm25_tf_makes_harder(self):
        docs = {
            "hit": Document("hit", ("chanel", "bags")),
            "miss": Document("miss", ("pottery", "news")),
            "other": Document("other", ("misc", "misc2")),
        }
        index = build_index(docs)
        scorer = Bm25Scorer(index, Bm25Params())
        d_hit = difficulty_negative(scorer.score(("chanel",), "hit"))
        d_miss = difficulty_negative(scorer.score(("chanel",), "miss"))
        assert d_hit > d_miss


def _toy_ledger(n_pos=10, n_neg=6):
    contexts = []
    for i in range(n_pos):
        contexts.append(
            SearchContext(
                session_id=f"s{i:02d}", position=1,
                context_tokens=("q",), positive_doc_id=f"p{i}",
                negative_pool=tuple(f"n{i}_{j}" for j in range(n_neg)),
            )
        )
    positives = [
        PositiveEntry(c.context_id, c.positive_doc_id, float(i + 1))
        for i, c in enumerate(contexts)
    ]
    negatives = {
        c.context_id: [(f"n{i}_{j}", float(n_neg - j)) for j in range(n_neg)]
        for i, c in enumerate(contexts)
    }
    return DifficultyLedger(
        positives=positives,
        negatives=negatives,
        contexts={c.context_id: c for c in contexts},
    )


class TestBuildLedger:
    def _fixture(self):
        docs = {
            "p0": Document("p0", ("clay", "aiken")),
            "p1": Document("p1", ("chanel", "bags")),
            "n0": Document("n0", ("clay", "pottery")),
            "n1": Document("n1", ("aiken", "county")),
            "n2": Document("n2", ("random", "stuff")),
        }
        contexts = [
            SearchContext("s0", 1, ("clay", "aiken"), "p0", ("n0", "n1", "n2")),
            SearchContext("s1", 1, ("chanel",), "p1", ("n0", "n2")),
        ]
        scorer = Bm25Scorer(build_index(docs), Bm25Params())
        return scorer, contexts

    def test_single_pair(self):
        scorer, contexts = self._fixture()
        ledger = build_ledger(scorer, scorer, contexts[:1])
        assert len(ledger.positives) == 1

    def test_sortedness(self):
        scorer, contexts = self._fixture()
        ledger = build_ledger(scorer, scorer, contexts)
        dps = [e.d_p for e in ledger.positives]
        assert dps == sorted(dps)
        for entries in ledger.negatives.values():
            dns = [s for _, s in entries]
            assert dns == sorted(dns, reverse=True)

    def test_hand_sorted_order(self):
        scorer, contexts = self._fixture()
        ledger = build_ledger(scorer, scorer, contexts)
        # hand check: under C=(clay aiken), p0 matches both terms and must
        # rank 1; under C=(chanel,), p1 is the only match and ranks 1; the
        # tie at rank 1 is broken by the normalized score term.
        s0 = scorer.score(("clay", "aiken"), "p0")
        s1 = scorer.score(("chanel",), "p1")
        first = ledger.positives[0]
        expected_first = "s0:1:p0" if s0 >= s1 else "s1:1:p1"
        assert first.context_id == expected_first
        # negatives for s0 sorted by BM25 against (clay aiken)
        neg = ledger.negatives["s0:1:p0"]
        assert [d for d, _ in neg] == sorted(
            ["n0", "n1", "n2"],
            key=lambda d: (-scorer.score(("clay", "aiken"), d), d),
        )

    def test_empty_contexts_rejected(self):
        scorer, _ = self._fixture()
        with pytest.raises(ValueError):
            build_ledger(scorer, scorer, [])

    def test_round_trip(self, tmp_path):
        scorer, contexts = self._fixture()
        ledger = build_ledger(scorer, scorer, contexts)
        path = tmp_path / "ledger.json"
        save_ledger(ledger, path)
        loaded = load_ledger(path, contexts)
        assert loaded.positives == ledger.positives
        assert loaded.negatives == ledger.negatives
        assert loaded.pos_scorer_digest == ledger.pos_scorer_digest


class TestSampleBatch:
    def test_full_prefix_when_pacing_one(self, rng):
        ledger = _toy_ledger()
        pacing = PacingParams(T=10)
        seen = set()
        for _ in range(300):
            batch = sample_batch(ledger, pacing, 0, 2, 2, rng, f_p=1.0, f_n=1.0)
            for ctx, pos, negs in batch.items:
                seen.add(pos)
        assert seen == {f"p{i}" for i in range(10)}

    def test_prefix_restriction(self, rng):
        ledger = _toy_ledger(n_pos=100)
        pacing = PacingParams(T=10)
        for _ in range(200):
            batch = sample_batch(ledger, pacing, 0, 5, 2, rng, f_p=0.1, f_n=1.0)
            for ctx, pos, _ in batch.items:
                assert int(pos[1:]) < 10

    def test_uniformity_chi_square(self):
        ledger = _toy_ledger(n_pos=10)
        pacing = PacingParams(T=10)
        rng = np.random.default_rng(42)
        counts = {f"p{i}": 0 for i in range(5)}
        n_draws = 10_000
        for _ in range(n_draws):
            batch = sample_batch(ledger, pacing, 0, 1, 2, rng, f_p=0.5, f_n=1.0)
            counts[batch.items[0][1]] += 1
        freqs = np.array([counts[f"p{i}"] for i in range(5)])
        assert freqs.sum() == n_draws
        for f in freqs / n_draws:
            assert abs(f - 0.2) < 0.02
        assert stats.chisquare(freqs).pvalue > 0.001

    def test_negative_prefix_too_small_names_context(self, rng):
        ledger = _toy_ledger(n_neg=4)
        pacing = PacingParams(T=10)
        with pytest.raises(ValueError, match="s0"):
            # eligible prefix ceil(0.25*4)=1 < m=2; keep drawing until s00 hits
            for _ in range(200):
                sample_batch(ledger, pacing, 0, 10, 2, rng, f_p=1.0, f_n=0.25)

    def test_batch_size_exceeding_eligible_rejected(self, rng):
        ledger = _toy_ledger(n_pos=10)
        pacing = PacingParams(T=10)
        with pytest.raises(ValueError, match="batch_size"):
            sample_batch(ledger, pacing, 0, 6, 2, rng, f_p=0.5, f_n=1.0)

    def test_negatives_distinct_and_not_positive(self, rng):
        ledger = _toy_ledger()
        pacing = PacingParams(T=10)
        for _ in range(100):
            batch = sample_batch(ledger, pacing, 0, 3, 3, rng, f_p=1.0, f_n=1.0)
            for ctx, pos, negs in batch.items:
                assert len(set(negs)) == len(negs)
                assert pos not in negs

    def test_sampler_soundness_over_steps(self, rng):
        ledger = _toy_ledger(n_pos=40, n_neg=8)
        pacing = PacingParams(delta=0.2, eta=0.5, alpha=0.6, beta=0.6, k=2.0, T=50)
        from currank.curriculum import pacing_negative, pacing_positive

        for t in range(0, 51, 5):
            f_p = pacing_positive(pacing, t)
            f_n = pacing_negative(pacing, t)
            max_pos = math.ceil(f_p * 40)
            max_neg = math.ceil(f_n * 8)
            eligible_ids = {e.context_id for e in ledger.positives[:max_pos]}
            for _ in range(50):
                batch = sample_batch(ledger, pacing, t, 2, 2, rng)
                for ctx, pos, negs in batch.items:
                    assert ctx.context_id in eligible_ids
                    allowed = {d for d, _ in ledger.negatives[ctx.context_id][:max_neg]}
                    assert set(negs) <= allowed

    def test_monotone_hardness_exposure(self):
        # max reachable d_p and min reachable d_n both grow with t
        ledger = _toy_ledger(n_pos=50, n_neg=10)
        pacing = PacingParams(delta=0.2, eta=0.4, alpha=0.7, beta=0.7, k=2.0, T=100)
        from currank.curriculum import pacing_negative, pacing_positive

        prev_max_dp = -np.inf
        prev_min_dn = -np.inf
        for t in range(0, 101, 10):
            n_pos = math.ceil(pacing_positive(pacing, t) * 50)
            n_neg = math.ceil(pacing_negative(pacing, t) * 10)
            max_dp = ledger.positives[n_pos - 1].d_p
            min_dn = min(
                entries[n_neg - 1][1] for entries in ledger.negatives.values()
            )
            assert max_dp >= prev_max_dp
            assert min_dn >= prev_min_dn
            prev_max_dp, prev_min_dn = max_dp, min_dn

    def test_deterministic_under_seed(self):
        ledger = _toy_ledger()
        pacing = PacingParams(T=10)

        def draws(seed):
            rng = np.random.default_rng(seed)
            out = []
            for t in range(5):
                batch = sample_batch(ledger, pacing, t, 2, 2, rng)
                out.append([(c.context_id, p, n) for c, p, n in batch.items])
            return out

        assert draws(7) == draws(7)
        assert draws(7) != draws(8)


class TestPacingParamsValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delta": 0.0}, {"delta": 1.5}, {"eta": 0.0}, {"eta": -1.0},
            {"alpha": 0.0}, {"alpha": 1.0}, {"beta": 1.0},
            {"k": 0.5}, {"T": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            PacingParams(**kwargs)

    def test_sentinel_one_disables_curricula(self):
        p = PacingParams(delta=1.0, eta=1.0, T=100)
        assert pacing_positive(p, 50) == 1.0
        # eta=1 collapses the negative schedule to the constant 1
        assert pacing_negative(p, 50) == pytest.approx(1.0, abs=1e-12)
