import io

import pytest

from currank.metrics import (
    NDCG_CUTOFFS,
    _query_metrics,
    evaluate_run,
    query_gains,
    write_qrels,
    write_run_file,
)

from oracles import naive_ap, naive_ndcg, naive_rr


def query_metric(name, ranked, gains):
    """One query's `name` metric from evaluate_run; None when no document
    in `ranked` has gain >= 1."""
    table = evaluate_run([[gains.get(d, 0) for d in ranked]])
    return table.metrics[name] if table.evaluated_queries else None


class TestAveragePrecision:
    def test_single_relevant_at_one(self):
        assert query_metric("MAP", ["a", "b", "c"], {"a": 1}) == 1.0

    def test_single_relevant_at_four(self):
        assert query_metric("MAP", ["a", "b", "c", "d"], {"d": 1}) == 0.25

    def test_two_relevant_hand_value(self):
        got = query_metric("MAP", ["a", "b", "c", "d", "e"], {"a": 1, "c": 1})
        assert got == pytest.approx((1.0 + 2 / 3) / 2, abs=1e-12)

    def test_no_relevant_returns_none(self):
        assert query_metric("MAP", ["a"], {}) is None


class TestReciprocalRank:
    def test_first(self):
        assert query_metric("MRR", ["a", "b"], {"a": 1}) == 1.0

    def test_third(self):
        assert query_metric("MRR", ["a", "b", "c"], {"c": 1}) == pytest.approx(1 / 3)

    def test_first_hit_only(self):
        assert query_metric("MRR", ["a", "b", "c"], {"b": 1, "c": 1}) == 0.5


class TestNdcg:
    def test_ideal_top_one(self):
        assert query_metric("NDCG@1", ["a", "b"], {"a": 1}) == 1.0

    def test_relevant_below_cutoff(self):
        assert query_metric("NDCG@1", ["a", "b"], {"b": 1}) == 0.0

    def test_graded_hand_value_vs_bruteforce(self):
        got = query_metric("NDCG@3", ["a", "b", "c"], {"a": 1, "b": 2})
        assert got == pytest.approx(
            naive_ndcg(["a", "b", "c"], {"a": 1, "b": 2, "c": 0}, 3), abs=1e-12
        )
        # exhaustive ideal ordering: (b, a) maximizes DCG@3
        import itertools
        import math

        def dcg(order):
            gains = {"a": 1, "b": 2, "c": 0}
            return sum(
                (2 ** gains[d] - 1) / math.log2(r + 1)
                for r, d in enumerate(order, 1)
            )

        best = max(dcg(p) for p in itertools.permutations(["a", "b", "c"]))
        assert got == pytest.approx(dcg(["a", "b", "c"]) / best, abs=1e-12)


class TestQueryMetrics:
    def test_gains_of_two_equal_the_naive_ndcg_bit_for_bit(self, rng):
        """_dcg skips zero gains, whose 0.0 terms never change the sum."""
        for _ in range(100):
            n = int(rng.integers(1, 14))
            docs = [f"d{i}" for i in range(n)]
            ranked = list(rng.permutation(docs))
            gains = {d: int(rng.integers(0, 3)) for d in docs}
            gains[docs[0]] = 2
            got = _query_metrics([gains[d] for d in ranked])
            assert got[2:] == [naive_ndcg(ranked, gains, k) for k in NDCG_CUTOFFS]


class TestEvaluateRun:
    def test_perfect_run(self):
        table = evaluate_run([[1, 0], [1, 0]])
        for value in table.metrics.values():
            assert value == 1.0
        assert table.evaluated_queries == 2

    def test_reversed_run_mrr(self):
        table = evaluate_run([[0] * 49 + [1]])
        assert table.metrics["MRR"] == pytest.approx(1 / 50)

    def test_queries_without_relevant_are_counted_not_averaged(self):
        table = evaluate_run([[1, 0], [0]])
        assert table.evaluated_queries == 1
        assert table.skipped_queries == 1
        assert table.metrics["MAP"] == 1.0

    def test_matches_naive_oracle_random_runs(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 12))
            docs = [f"d{i}" for i in range(n)]
            ranked = list(rng.permutation(docs))
            gains = {d: int(rng.integers(0, 3)) for d in docs}
            relevant = {d for d, g in gains.items() if g >= 1}
            if not relevant:
                continue
            table = evaluate_run([[gains[d] for d in ranked]])
            assert table.metrics["MAP"] == pytest.approx(
                naive_ap(ranked, relevant), abs=1e-12
            )
            assert table.metrics["MRR"] == pytest.approx(
                naive_rr(ranked, relevant), abs=1e-12
            )
            for k in NDCG_CUTOFFS:
                assert table.metrics[f"NDCG@{k}"] == pytest.approx(
                    naive_ndcg(ranked, gains, k), abs=1e-12
                )

    def test_argsort_invariance(self, rng):
        docs = [f"d{i}" for i in range(8)]
        ranked = list(rng.permutation(docs))
        clicked = frozenset(d for d in docs if rng.integers(0, 2)) | {ranked[3]}
        base = [("q", [(d, float(-r)) for r, d in enumerate(ranked)], clicked)]
        scaled = [("q", [(d, s * 100.0) for d, s in base[0][1]], clicked)]
        assert evaluate_run(query_gains(base)).metrics == \
            evaluate_run(query_gains(scaled)).metrics


class TestQueryGains:
    def test_clicked_gain_one_in_query_id_order(self):
        slates = [
            ("s:2", [("b", 0.5), ("a", 0.1)], frozenset({"a"})),
            ("s:10", [("c", 0.9), ("d", 0.2)], frozenset({"c", "d"})),
            ("s:1", [("e", 0.0)], frozenset()),
        ]
        assert query_gains(slates) == [[0], [1, 1], [0, 1]]


class TestRunFileIO:
    def test_single_entry_format(self):
        buf = io.StringIO()
        write_run_file([("q1", [("d1", 0.5)], frozenset())], "tag", buf)
        assert buf.getvalue() == "q1 Q0 d1 1 0.5 tag\n"

    def test_exact_text(self):
        slates = [
            ("q1", [("d1", 1.25), ("d2", -0.3333333)], frozenset({"d2"})),
            ("q2", [("d3", 0.0), ("d4", 1234567.0)], frozenset()),
        ]
        buf = io.StringIO()
        write_run_file(slates, "t", buf)
        assert buf.getvalue() == (
            "q1 Q0 d1 1 1.25 t\n"
            "q1 Q0 d2 2 -0.333333 t\n"
            "q2 Q0 d3 1 0 t\n"
            "q2 Q0 d4 2 1.23457e+06 t\n"
        )

    def test_golden_fixture(self):
        slates = [
            ("q1", [("docA", 2.5), ("docB", 1.5)], frozenset({"docA"})),
            ("q2", [("docC", 0.913)], frozenset()),
        ]
        buf = io.StringIO()
        write_run_file(slates, "sys", buf)
        assert buf.getvalue() == (
            "q1 Q0 docA 1 2.5 sys\n"
            "q1 Q0 docB 2 1.5 sys\n"
            "q2 Q0 docC 1 0.913 sys\n"
        )


class TestQrelsIO:
    def test_exact_text(self):
        slates = [
            ("s:2", [("d2", 0.5), ("d1", 0.1)], frozenset({"d1"})),
            ("s:10", [("d4", 0.9), ("d3", 0.2)], frozenset({"d3", "d4"})),
        ]
        buf = io.StringIO()
        write_qrels(slates, buf)
        assert buf.getvalue() == (
            "s:10 0 d3 1\n"
            "s:10 0 d4 1\n"
            "s:2 0 d1 1\n"
            "s:2 0 d2 0\n"
        )
