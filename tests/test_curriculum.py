import json
import math
import re

import numpy as np
import pytest
from scipy import stats

from currank.bm25 import Bm25Params, build_index
from currank.curriculum import (
    DifficultyLedger,
    LedgerColumns,
    PacingParams,
    build_ledger,
    difficulty_negative,
    difficulty_positive,
    ledger_columns,
    load_ledger,
    pacing_negative,
    pacing_positive,
    rank_of_positive,
    sample_batch,
    save_ledger,
)
from currank.scorers import Bm25Scorer, DenseScorer
from currank.sessions import Document, Interaction, SearchContext, Session, build_contexts
from currank.towers import Vocab, encode_corpus, init_params

from batches import sample_items
from oracles import PerCallBm25Scorer, loop_sample_batch


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
        query = SearchContext("s0", 1, ("chanel",), "hit", ("miss",))
        scores = Bm25Scorer(index, Bm25Params()).score_corpus(query)
        d_hit = difficulty_negative(scores[index.doc_ids.index("hit")])
        d_miss = difficulty_negative(scores[index.doc_ids.index("miss")])
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
        (c.context_id, c.positive_doc_id, float(i + 1))
        for i, c in enumerate(contexts)
    ]
    negatives = {
        c.context_id: [(f"n{i}_{j}", float(n_neg - j)) for j in range(n_neg)]
        for i, c in enumerate(contexts)
    }
    return DifficultyLedger(positives=positives, negatives=negatives), contexts


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
        dps = [e[2] for e in ledger.positives]
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
        clay = dict(zip(scorer.doc_ids, scorer.score_corpus(contexts[0])))  # (clay aiken)
        s0 = clay["p0"]
        s1 = dict(zip(scorer.doc_ids, scorer.score_corpus(contexts[1])))["p1"]  # (chanel,)
        first = ledger.positives[0]
        expected_first = "s0:1:p0" if s0 >= s1 else "s1:1:p1"
        assert first[0] == expected_first
        # negatives for s0 sorted by BM25 against (clay aiken)
        neg = ledger.negatives["s0:1:p0"]
        assert [d for d, _ in neg] == sorted(
            ["n0", "n1", "n2"],
            key=lambda d: (-clay[d], d),
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
        assert load_ledger(path) == ledger


def _mixed_fixture(extra_doc=False):
    """A BM25 and an untrained dense scorer over one random corpus."""
    rng = np.random.default_rng(7)
    words = [f"w{i}" for i in range(30)]

    def tokens(lo, hi):
        return tuple(str(w) for w in rng.choice(words, size=int(rng.integers(lo, hi))))

    docs = {f"d{j:02d}": Document(f"d{j:02d}", tokens(2, 6)) for j in range(60)}
    contexts = [
        SearchContext(
            f"s{i:02d}", 1, tokens(1, 9), f"d{i:02d}",
            tuple(f"d{j:02d}" for j in rng.choice(range(20, 60), 6, replace=False)),
        )
        for i in range(20)
    ]
    vocab = Vocab(words)
    params = init_params(len(vocab), 32, 32, rng)
    if extra_doc:
        docs["zz"] = Document("zz", ("w0",))
    return contexts, {
        "bm25": Bm25Scorer(build_index(docs), Bm25Params()),
        "dense": DenseScorer(params, vocab, encode_corpus(
            vocab, docs, {c.context_id: c.context_tokens for c in contexts})),
    }


class TestMixedScorers:
    @pytest.mark.parametrize("pos_kind,neg_kind", [("bm25", "dense"), ("dense", "bm25")])
    def test_each_curriculum_follows_its_own_scorer(self, pos_kind, neg_kind):
        contexts, scorers = _mixed_fixture()
        a, b = scorers[pos_kind], scorers[neg_kind]
        mixed = build_ledger(a, b, contexts)
        assert mixed.positives == build_ledger(a, a, contexts).positives
        assert mixed.negatives == build_ledger(b, b, contexts).negatives

    def test_mixed_ledger_round_trips(self, tmp_path):
        contexts, scorers = _mixed_fixture()
        ledger = build_ledger(scorers["bm25"], scorers["dense"], contexts)
        save_ledger(ledger, tmp_path / "ledger.json")
        assert load_ledger(tmp_path / "ledger.json") == ledger

    @pytest.mark.parametrize("pos_kind,neg_kind", [("bm25", "dense"), ("dense", "bm25")])
    def test_different_corpora_rejected(self, pos_kind, neg_kind):
        contexts, scorers = _mixed_fixture()
        _, other = _mixed_fixture(extra_doc=True)
        with pytest.raises(ValueError, match="different corpora"):
            build_ledger(scorers[pos_kind], other[neg_kind], contexts)


def _multi_click_contexts(rng, n_sessions=40):
    """Random sessions whose interactions have 1-3 clicks each, so the
    contexts of one interaction are adjacent and share their tokens."""
    words = [f"w{i}" for i in range(20)]

    def tokens(lo, hi):
        return tuple(rng.choice(words, size=int(rng.integers(lo, hi))).tolist())

    docs = {f"d{j:02d}": Document(f"d{j:02d}", tokens(1, 6)) for j in range(50)}
    sessions = []
    for i in range(n_sessions):
        inters = []
        for q in range(1, int(rng.integers(2, 5))):
            cands = tuple(f"d{j:02d}" for j in rng.choice(50, 8, replace=False))
            clicked = rng.choice(cands, int(rng.integers(1, 4)), replace=False).tolist()
            inters.append(Interaction(f"s{i:02d}:{q}", tokens(1, 5), frozenset(clicked), cands))
        sessions.append(Session(f"s{i:02d}", tuple(inters)))
    contexts, _ = build_contexts(sessions, docs)
    return docs, contexts


class TestBuildLedgerMatchesPerCallScorer:
    def test_multi_click_contexts(self, rng):
        """BM25 term weights computed once give the per-call ledger, also
        where adjacent contexts share their tokens."""
        docs, contexts = _multi_click_contexts(rng)
        shared = [(a, b) for a, b in zip(contexts, contexts[1:])
                  if a.context_tokens == b.context_tokens]
        assert len(shared) > 10
        index, params = build_index(docs), Bm25Params()
        scorer, oracle = Bm25Scorer(index, params), PerCallBm25Scorer(index, params)
        ledger = build_ledger(scorer, scorer, contexts)
        want = build_ledger(oracle, oracle, contexts)
        assert ledger.positives == want.positives
        assert ledger.negatives == want.negatives


class TestLedgerColumnsRefuses:
    """Ties in build_ledger's orders; test_cli covers repeated negatives,
    reversed positives and ascending negatives."""

    def _columns(self, ledger, contexts):
        docs = {d for c in contexts for d in (c.positive_doc_id, *c.negative_pool)}
        return ledger_columns(ledger, {c.context_id: c for c in contexts},
                              {d: i for i, d in enumerate(sorted(docs))})

    def test_toy_ledger_accepted(self):
        ledger, contexts = _toy_ledger()
        assert self._columns(ledger, contexts).neg_len.tolist() == [6] * 10

    def test_tied_positives_out_of_id_order(self):
        ledger, contexts = _toy_ledger()
        (a, da, _), (b, db, _) = ledger.positives[4:6]
        ledger.positives[4:6] = [(b, db, 5.0), (a, da, 5.0)]
        with pytest.raises(ValueError, match=f"positive {a} .* follows {b}"):
            self._columns(ledger, contexts)

    def test_tied_negatives_out_of_id_order(self):
        ledger, contexts = _toy_ledger()
        cid = ledger.positives[0][0]
        ledger.negatives[cid][:2] = [("n0_1", 6.0), ("n0_0", 6.0)]
        with pytest.raises(ValueError, match="negative n0_0 .* follows n0_1"):
            self._columns(ledger, contexts)
        ledger.negatives[cid][:2] = [("n0_0", 6.0), ("n0_1", 6.0)]
        self._columns(ledger, contexts)


class TestLoadLedgerFieldTypes:
    """test_cli covers a list context id, a NaN d_p and a string d_p."""

    @pytest.mark.parametrize("edit, message", [
        (lambda p: p["positives"][0].__setitem__(1, 7), "doc id 7 is not a string"),
        (lambda p: p["positives"][0].__setitem__(2, True), "d_p True is not a finite number"),
        (lambda p: p["negatives"]["s00:1:p0"][0].__setitem__(0, None),
         "doc id None is not a string"),
        (lambda p: p["negatives"]["s00:1:p0"][0].__setitem__(1, -math.inf),
         "d_n -inf is not a finite number"),
        (lambda p: p["negatives"]["s00:1:p0"][0].append(1.0),
         "too many values to unpack (expected 2)"),
        (lambda p: p["positives"][0].pop(), "not enough values to unpack (expected 3, got 2)"),
    ], ids=["integer-doc-id", "bool-d_p", "null-negative-doc-id", "infinite-d_n",
            "long-negative", "short-positive"])
    def test_refused(self, tmp_path, edit, message):
        ledger, _ = _toy_ledger()
        payload = json.loads(json.dumps({"version": 1, **vars(ledger)}))
        edit(payload)
        path = tmp_path / "ledger.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(f"{path}: malformed ledger: {message}")):
            load_ledger(path)

    def test_integer_difficulties_accepted(self, tmp_path):
        ledger, _ = _toy_ledger()
        path = tmp_path / "ledger.json"
        save_ledger(ledger, path)
        path.write_text(path.read_text().replace(".0", ""))
        assert load_ledger(path) == ledger


class TestSampleBatch:
    def test_full_prefix_when_pacing_one(self, rng):
        ledger, contexts = _toy_ledger()
        pacing = PacingParams(T=10)
        seen = set()
        for _ in range(300):
            batch = sample_items(ledger, contexts, pacing, 0, 2, 2, rng, f_p=1.0, f_n=1.0)
            for ctx, pos, negs in batch:
                seen.add(pos)
        assert seen == {f"p{i}" for i in range(10)}

    def test_prefix_restriction(self, rng):
        ledger, contexts = _toy_ledger(n_pos=100)
        pacing = PacingParams(T=10)
        for _ in range(200):
            batch = sample_items(ledger, contexts, pacing, 0, 5, 2, rng, f_p=0.1, f_n=1.0)
            for ctx, pos, _ in batch:
                assert int(pos[1:]) < 10

    def test_uniformity_chi_square(self):
        ledger, contexts = _toy_ledger(n_pos=10)
        pacing = PacingParams(T=10)
        rng = np.random.default_rng(42)
        counts = {f"p{i}": 0 for i in range(5)}
        n_draws = 10_000
        for _ in range(n_draws):
            batch = sample_items(ledger, contexts, pacing, 0, 1, 2, rng, f_p=0.5, f_n=1.0)
            counts[batch[0][1]] += 1
        freqs = np.array([counts[f"p{i}"] for i in range(5)])
        assert freqs.sum() == n_draws
        for f in freqs / n_draws:
            assert abs(f - 0.2) < 0.02
        assert stats.chisquare(freqs).pvalue > 0.001

    def test_negative_prefix_too_small_names_context(self, rng):
        ledger, contexts = _toy_ledger(n_neg=4)
        pacing = PacingParams(T=10)
        with pytest.raises(ValueError, match="s0"):
            # eligible prefix ceil(0.25*4)=1 < m=2; keep drawing until s00 hits
            for _ in range(200):
                sample_items(ledger, contexts, pacing, 0, 10, 2, rng, f_p=1.0, f_n=0.25)

    def test_batch_size_exceeding_eligible_rejected(self, rng):
        ledger, contexts = _toy_ledger(n_pos=10)
        pacing = PacingParams(T=10)
        with pytest.raises(ValueError, match="batch_size"):
            sample_items(ledger, contexts, pacing, 0, 6, 2, rng, f_p=0.5, f_n=1.0)

    def test_negatives_distinct_and_not_positive(self, rng):
        ledger, contexts = _toy_ledger()
        pacing = PacingParams(T=10)
        for _ in range(100):
            batch = sample_items(ledger, contexts, pacing, 0, 3, 3, rng, f_p=1.0, f_n=1.0)
            for ctx, pos, negs in batch:
                assert len(set(negs)) == len(negs)
                assert pos not in negs

    def test_sampler_soundness_over_steps(self, rng):
        ledger, contexts = _toy_ledger(n_pos=40, n_neg=8)
        pacing = PacingParams(delta=0.2, eta=0.5, alpha=0.6, beta=0.6, k=2.0, T=50)
        from currank.curriculum import pacing_negative, pacing_positive

        for t in range(0, 51, 5):
            f_p = pacing_positive(pacing, t)
            f_n = pacing_negative(pacing, t)
            max_pos = math.ceil(f_p * 40)
            max_neg = math.ceil(f_n * 8)
            eligible_ids = {e[0] for e in ledger.positives[:max_pos]}
            for _ in range(50):
                batch = sample_items(ledger, contexts, pacing, t, 2, 2, rng)
                for ctx, pos, negs in batch:
                    assert ctx.context_id in eligible_ids
                    allowed = {d for d, _ in ledger.negatives[ctx.context_id][:max_neg]}
                    assert set(negs) <= allowed

    def test_monotone_hardness_exposure(self):
        # max reachable d_p and min reachable d_n both grow with t
        ledger, _ = _toy_ledger(n_pos=50, n_neg=10)
        pacing = PacingParams(delta=0.2, eta=0.4, alpha=0.7, beta=0.7, k=2.0, T=100)
        from currank.curriculum import pacing_negative, pacing_positive

        prev_max_dp = -np.inf
        prev_min_dn = -np.inf
        for t in range(0, 101, 10):
            n_pos = math.ceil(pacing_positive(pacing, t) * 50)
            n_neg = math.ceil(pacing_negative(pacing, t) * 10)
            max_dp = ledger.positives[n_pos - 1][2]
            min_dn = min(
                entries[n_neg - 1][1] for entries in ledger.negatives.values()
            )
            assert max_dp >= prev_max_dp
            assert min_dn >= prev_min_dn
            prev_max_dp, prev_min_dn = max_dp, min_dn

    def test_deterministic_under_seed(self):
        ledger, contexts = _toy_ledger()
        pacing = PacingParams(T=10)

        def draws(seed):
            rng = np.random.default_rng(seed)
            out = []
            for t in range(5):
                batch = sample_items(ledger, contexts, pacing, t, 2, 2, rng)
                out.append([(c.context_id, p, n) for c, p, n in batch])
            return out

        assert draws(7) == draws(7)
        assert draws(7) != draws(8)



def _random_columns(rng, n_pos, pools):
    """LedgerColumns over rows numbered as drawn, with pool sizes `pools`."""
    pools = np.asarray(pools)
    return LedgerColumns(
        context_ids=[f"c{i}" for i in range(n_pos)],
        positive_rows=rng.integers(0, 100, size=n_pos),
        neg_rows=rng.integers(100, 10**6, size=int(pools.sum())),
        neg_start=np.cumsum(pools) - pools,
        neg_len=pools,
    )


class TestSamplerMatchesPerItemLoop:
    """sample_batch reads the generator as the per-item rng.choice loop
    does: same positives, same negatives, same state afterwards."""

    @staticmethod
    def _assert_same_draws(columns, m, f_n_values, seed, batch_size=8):
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        for t, f_n in enumerate(f_n_values):
            f_p = min(1.0, batch_size / len(columns.context_ids) + t / 10)
            got = sample_batch(columns, t, batch_size, m, fast, f_p, f_n)
            want = loop_sample_batch(columns, t, batch_size, m, slow, f_p, f_n)
            assert np.array_equal(got.contexts, want.contexts)
            assert np.array_equal(got.docs, want.docs)
            assert fast.bit_generator.state == slow.bit_generator.state

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_random_ledgers(self, m):
        rng = np.random.default_rng(100 + m)
        for trial in range(30):
            n_pos = int(rng.integers(8, 60))
            # a fifth of the pools hold exactly m negatives
            pools = np.where(rng.random(n_pos) < 0.2, m, rng.integers(m, 40, n_pos))
            columns = _random_columns(rng, n_pos, pools)
            self._assert_same_draws(columns, m, [1.0] * 6, seed=trial)
            # a shrinking prefix over pools large enough for it
            pools = rng.integers(math.ceil(m / 0.3), 60, n_pos)
            columns = _random_columns(rng, n_pos, pools)
            self._assert_same_draws(columns, m, rng.uniform(0.3, 1.0, 6), seed=trial)

    @pytest.mark.parametrize("keep", ["hard", "easy"])
    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_halved_negatives(self, keep, m):
        rng = np.random.default_rng(7 * m)
        for trial in range(20):
            n_pos = int(rng.integers(8, 40))
            columns = _random_columns(rng, n_pos, rng.integers(2 * m - 1, 30, n_pos))
            self._assert_same_draws(columns.halved(keep), m, [1.0] * 5, seed=trial)

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_pools_larger_than_10000(self, m):
        rng = np.random.default_rng(m)
        pools = rng.integers(2 * m, 40, 16)  # m <= ceil(f_n * n) at f_n = 0.5
        pools[[3, 11]] = 12_000, 30_000
        self._assert_same_draws(_random_columns(rng, 16, pools), m, [1.0, 0.8, 0.5], seed=m)

    def test_numpy_tail_shuffle_branch(self):
        # choice shuffles the tail of arange(n) when n > 10,000 and m > n // 50
        rng = np.random.default_rng(3)
        pools = np.full(8, 12_000)
        pools[5] = 250
        self._assert_same_draws(_random_columns(rng, 8, pools), 250, [1.0, 1.0], seed=3,
                                batch_size=4)

    def test_halved_view_selects_each_half(self):
        columns = _random_columns(np.random.default_rng(0), 3, [1, 4, 5])
        lists = [columns.neg_rows[s:s + n] for s, n in zip(columns.neg_start, columns.neg_len)]
        for keep, want in (("hard", [l[:(len(l) + 1) // 2] for l in lists]),
                           ("easy", [l[len(l) // 2:] for l in lists])):
            half = columns.halved(keep)
            got = [half.neg_rows[s:s + n] for s, n in zip(half.neg_start, half.neg_len)]
            assert all(np.array_equal(a, b) for a, b in zip(got, want))


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
