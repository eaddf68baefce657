"""Release gate: one test per acceptance criterion.

Each test prints a single ``ACCEPTANCE <n> (<label>): PASS|FAIL`` line.
The desk-scale experiment (criteria 7 and 8) runs against the committed
synthetic corpus fixture, whose generation parameters and content digest
live in tests/fixtures/acceptance_corpus.json.
"""

import contextlib
import hashlib
import io
import json
import math
import statistics
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as scipy_stats

from currank import bm25, dense, towers
from currank.cli import MANIFEST_NAME, main as cli_main, split_of
from currank.curriculum import (
    PacingParams,
    build_ledger,
    difficulty_negative,
    difficulty_positive,
    eligible_positive_count,
    pacing_negative,
    pacing_positive,
)
from currank.metrics import NDCG_CUTOFFS, evaluate_run
from currank.ranker import RankerParams, loss_and_grad
from currank.scorers import Bm25Scorer
from currank.sessions import (
    SEP_TOKEN,
    SearchContext,
    build_contexts,
    build_eval_items,
)
from currank.synth import SynthSpec, generate_synthetic, write_session_log
from currank.towers import Vocab, token_rows
from currank.trainer import (
    MODES,
    TrainConfig,
    encode_slates,
    evaluate_ranker,
    ablation_runs,
    steps_per_epoch,
    train,
    train_and_evaluate,
    training_data,
)

from batches import item_rows, sample_items
from oracles import (
    central_difference_grad,
    ledger_entries,
    ledger_from_entries,
    naive_ap,
    naive_bm25,
    naive_ndcg,
    naive_rr,
    rank_of_positive,
)

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "acceptance_corpus.json"


@contextlib.contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS")


def random_pacing(rng, T=None):
    return PacingParams(
        delta=float(rng.uniform(0.05, 0.95)),
        eta=float(rng.uniform(0.05, 0.95)),
        alpha=float(rng.uniform(0.05, 0.95)),
        beta=float(rng.uniform(0.05, 0.95)),
        k=float(rng.uniform(1.0, 4.0)),
        T=int(rng.integers(1, 200)) if T is None else T,
    )


def test_criterion_1_pacing_correctness():
    with criterion(1, "pacing correctness"):
        rng = np.random.default_rng(11)
        start = time.monotonic()
        for _ in range(1000):
            p = random_pacing(rng)
            assert pacing_positive(p, 0) == p.delta
            assert pacing_negative(p, 0) == 1.0
            fp = [pacing_positive(p, t) for t in range(p.T + 1)]
            fn = [pacing_negative(p, t) for t in range(p.T + 1)]
            for t in range(p.T + 1):
                if t >= p.alpha * p.T:
                    assert abs(fp[t] - 1.0) <= 1e-12
                if t >= p.beta * p.T:
                    assert abs(fn[t] - p.eta) <= 1e-12
            assert all(a <= b for a, b in zip(fp, fp[1:]))
            assert all(a >= b for a, b in zip(fn, fn[1:]))
        assert time.monotonic() - start < 5.0


def test_criterion_2_k1_closed_forms():
    with criterion(2, "k=1 closed forms"):
        p = PacingParams(delta=0.3, eta=0.7, alpha=0.4, beta=0.6, k=1.0, T=50)
        for t in np.linspace(0.0, p.T, 100):
            t = float(t)
            want_p = min(1.0, p.delta + t * (1.0 - p.delta) / (p.alpha * p.T))
            want_n = max(p.eta, 1.0 - t * (1.0 - p.eta) / (p.beta * p.T))
            assert pacing_positive(p, t) == pytest.approx(want_p, abs=1e-12)
            assert pacing_negative(p, t) == pytest.approx(want_n, abs=1e-12)


def test_criterion_3_difficulty_correctness():
    with criterion(3, "difficulty correctness"):
        # five-document hand fixture: the positive scores 3.0, the corpus
        # max is 4.0, so it ranks second -> d_p = 2 + (1 - 3/4) = 2.25
        doc_ids = ["a", "b", "c", "d", "e"]
        scores = np.array([4.0, 3.0, 2.0, 1.0, 0.5])
        rank = rank_of_positive(scores, doc_ids.index("b"))
        assert rank == 2
        assert difficulty_positive(3.0, rank, 4.0) == 2.25

        rng = np.random.default_rng(12)
        for _ in range(1000):
            n = int(rng.integers(2, 30))
            table = rng.uniform(0.1, 10.0, size=n)
            rows = []
            for i in range(n):
                r = rank_of_positive(table, i)
                rows.append((r, difficulty_positive(float(table[i]), r,
                                                    float(table.max()))))
            rows.sort()
            for (ra, da), (rb, db) in zip(rows, rows[1:]):
                if ra < rb:
                    assert da < db  # rank strictly dominates the score term

        for value in rng.uniform(-5.0, 5.0, size=100):
            assert difficulty_negative(float(value)) == float(value)


def _tiny_ledger(n_contexts=40, pool=6, seed=0):
    rng = np.random.default_rng(seed)
    contexts = []
    positives = []
    negatives = {}
    for i in range(n_contexts):
        cid = f"s{i}:1:p{i}"
        ctx = SearchContext(
            session_id=f"s{i}", position=1,
            context_tokens=("q", f"t{i}"), positive_doc_id=f"p{i}",
            negative_pool=tuple(f"n{i}_{j}" for j in range(pool)),
        )
        contexts.append(ctx)
        positives.append((cid, f"p{i}", float(i)))
        scores = sorted(rng.uniform(0, 1, size=pool), reverse=True)
        negatives[cid] = [(f"n{i}_{j}", s) for j, s in enumerate(scores)]
    return ledger_from_entries(positives, negatives), contexts


def test_criterion_4_sampler_soundness():
    with criterion(4, "sampler soundness"):
        start = time.monotonic()
        ledger, contexts = _tiny_ledger()
        positives, negatives = ledger_entries(ledger)
        pos_index = {e[0]: i for i, e in enumerate(positives)}
        pacing = PacingParams(T=100)
        rng = np.random.default_rng(13)

        # 10,000 batches across the whole schedule: every draw must fall
        # inside the ceil-prefix of the step's eligible fractions.
        for i in range(10_000):
            t = int(rng.integers(0, pacing.T + 1))
            f_p = pacing_positive(pacing, t)
            f_n = pacing_negative(pacing, t)
            n_pos = eligible_positive_count(len(positives), f_p)
            batch = sample_items(ledger, contexts, pacing, t, min(4, n_pos), 1, rng)
            for ctx, pos_id, negs in batch:
                assert pos_index[ctx.context_id] < n_pos
                neg_list = negatives[ctx.context_id]
                n_neg = math.ceil(f_n * len(neg_list))
                eligible = {d for d, _ in neg_list[:n_neg]}
                assert set(negs) <= eligible

        # within-prefix uniformity at a fixed mid-schedule step
        t = 30
        n_pos = eligible_positive_count(len(positives), pacing_positive(pacing, t))
        counts = np.zeros(n_pos)
        rng2 = np.random.default_rng(14)
        for _ in range(10_000):
            batch = sample_items(ledger, contexts, pacing, t, 2, 1, rng2)
            for ctx, _, _ in batch:
                counts[pos_index[ctx.context_id]] += 1
        assert scipy_stats.chisquare(counts).pvalue > 0.001

        # mode `none` == plain uniform sampler, bit for bit
        rng_a = np.random.default_rng(15)
        rng_b = np.random.default_rng(15)
        for t in range(50):
            batch = sample_items(ledger, contexts, pacing, t, 4, 2, rng_a,
                                 f_p=1.0, f_n=1.0)
            chosen = rng_b.choice(len(positives), size=4, replace=False)
            expected = []
            for idx in chosen:
                cid, positive_doc_id, _ = positives[int(idx)]
                neg_list = negatives[cid]
                picks = rng_b.choice(len(neg_list), size=2, replace=False)
                expected.append(
                    (cid, positive_doc_id,
                     tuple(neg_list[int(j)][0] for j in picks))
                )
            got = [(c.context_id, p, n) for c, p, n in batch]
            assert got == expected
        assert time.monotonic() - start < 30.0


def _random_world(rng, n_docs=6, vocab_size=10):
    tokens = [f"w{i}" for i in range(vocab_size)]
    vocab = Vocab(set(tokens) | {SEP_TOKEN})
    documents = {}
    for i in range(n_docs):
        # a unique leading token keeps every slate non-degenerate
        title = (tokens[i],) + tuple(
            rng.choice(tokens, size=int(rng.integers(0, 3))))
        documents[f"d{i}"] = title
    contexts = []
    for i in range(2):
        contexts.append(SearchContext(
            session_id=f"s{i}", position=1,
            context_tokens=tuple(rng.choice(tokens, size=3)),
            positive_doc_id="d0", negative_pool=("d1", "d2", "d3"),
        ))
    return vocab, documents, contexts


def _vector_relative_error(analytic, numeric):
    """Norm-relative disagreement; immune to finite-difference roundoff
    noise on individual near-zero gradient entries."""
    scale = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-8)
    return float(np.linalg.norm(analytic - numeric)) / scale


def test_criterion_5_gradient_checks():
    with criterion(5, "gradient checks"):
        start = time.monotonic()
        rng = np.random.default_rng(16)
        for draw in range(100):
            vocab, documents, contexts = _random_world(rng)
            tau = float(rng.uniform(0.5, 2.0))  # drawn before the parameters
            params = RankerParams(towers.init_params(len(vocab), 3, 3, rng), tau=tau)
            rows = item_rows(vocab, documents, [
                (contexts[0], "d0", ("d1", "d2")),
                (contexts[1], "d3", ("d4", "d5")),
            ])

            def f(flat, params=params, rows=rows):
                saved = params.encoder.flat.copy()
                params.encoder.flat[...] = flat
                loss = loss_and_grad(params, *rows).loss
                params.encoder.flat[...] = saved
                return loss

            report = loss_and_grad(params, *rows)
            numeric = central_difference_grad(f, params.encoder.flat.copy())
            assert _vector_relative_error(
                report.grads.flat, numeric) < 1e-4

            if draw < 20:  # temperature gradient, spot-checked
                def g(tau_arr):
                    p2 = RankerParams(encoder=params.encoder,
                                      tau=float(tau_arr[0]))
                    return loss_and_grad(p2, *rows).loss

                num_tau = central_difference_grad(
                    g, np.array([params.tau]))[0]
                assert _vector_relative_error(
                    np.array([report.grad_tau]), np.array([num_tau])) < 1e-4

            # dense in-batch loss: distinct token ids per row keep the
            # loss surface non-degenerate (identical rows flatten it)
            enc = towers.init_params(len(vocab), 3, 3, rng)
            ctx_ids = token_rows([[2, 3], [4, 5], [6]])
            doc_ids = token_rows([[7], [8, 9], [10]])

            def h(flat, enc=enc):
                saved = enc.flat.copy()
                enc.flat[...] = flat
                loss, _ = dense.in_batch_loss_and_grad(enc, ctx_ids, doc_ids)
                enc.flat[...] = saved
                return loss

            _, grads = dense.in_batch_loss_and_grad(enc, ctx_ids, doc_ids)
            numeric = central_difference_grad(h, enc.flat.copy())
            assert _vector_relative_error(grads.flat, numeric) < 1e-4
        assert time.monotonic() - start < 60.0


def test_criterion_6_oracle_equivalence():
    with criterion(6, "oracle equivalence"):
        rng = np.random.default_rng(17)

        # BM25 against the brute-force oracle on 100-document corpora
        for _ in range(3):
            tokens = [f"w{i}" for i in range(40)]
            raw = {
                f"d{i:03d}": list(rng.choice(tokens,
                                             size=int(rng.integers(2, 12))))
                for i in range(100)
            }
            documents = {
                d: tuple(toks)
                for d, toks in raw.items()
            }
            index = bm25.build_index(documents)
            params = bm25.Bm25Params()
            for _ in range(10):
                query = list(rng.choice(tokens, size=int(rng.integers(1, 5))))
                all_scores = bm25.score_all(bm25.term_weights(index, params),
                                            len(index.doc_ids), [query])[0]
                for pos, doc_id in enumerate(index.doc_ids):
                    want = naive_bm25(raw, query, doc_id)
                    assert all_scores[pos] == pytest.approx(want, abs=1e-9)

        # ranking metrics against the naive oracle on 1,000 random runs
        for _ in range(1000):
            n = int(rng.integers(2, 15))
            docs = [f"d{i}" for i in range(n)]
            ranked = list(rng.permutation(docs))
            gains = {d: int(rng.integers(0, 3)) for d in docs}
            if not any(g >= 1 for g in gains.values()):
                gains[docs[0]] = 1
            relevant = {d for d, g in gains.items() if g >= 1}
            table = evaluate_run([[gains[d] for d in ranked]])
            assert table.metrics["MAP"] == pytest.approx(
                naive_ap(ranked, relevant), abs=1e-12)
            assert table.metrics["MRR"] == pytest.approx(
                naive_rr(ranked, relevant), abs=1e-12)
            for k in NDCG_CUTOFFS:
                assert table.metrics[f"NDCG@{k}"] == pytest.approx(
                    naive_ndcg(ranked, gains, k), abs=1e-12)

        # a slate whose documents all share one title scores uniformly,
        # so the listwise loss is exactly ln(m+1)
        for m in (1, 2, 3, 4, 5):
            vocab = Vocab({"a", "b"})
            documents = {
                f"d{i}": ("a",)
                for i in range(m + 1)
            }
            ctx = SearchContext(
                session_id="s", position=1, context_tokens=("b",),
                positive_doc_id="d0",
                negative_pool=tuple(f"d{i}" for i in range(1, m + 1)),
            )
            params = RankerParams(towers.init_params(len(vocab), 4, 4, rng))
            rows = item_rows(vocab, documents, [(ctx, "d0", ctx.negative_pool)])
            report = loss_and_grad(params, *rows)
            assert report.loss == math.log(m + 1)


# ---------------------------------------------------------------------------
# Desk-scale experiment shared by criteria 7 and 8


@pytest.fixture(scope="module")
def desk_experiment():
    fixture = json.loads(FIXTURE_PATH.read_text())
    spec = SynthSpec(
        n_sessions=fixture["n_sessions"],
        vocab_size=fixture["vocab_size"],
        n_topics=fixture["n_topics"],
        queries_per_session=fixture["queries_per_session"],
        candidates_per_query=fixture["candidates_per_query"],
        noise_rate=fixture["noise_rate"],
        seed=fixture["seed"],
    )
    sessions, documents, _ = generate_synthetic(spec)
    buf = io.StringIO()
    write_session_log(sessions, documents, buf)
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert digest == fixture["session_log_sha256"], (
        "regenerated corpus does not match the committed fixture digest"
    )

    contexts, _ = build_contexts(sessions, documents)
    train_contexts = [c for c in contexts if split_of(c.session_id) == "train"]
    scorer = Bm25Scorer(bm25.build_index(documents), bm25.Bm25Params())
    ledger = build_ledger(scorer, scorer, train_contexts)
    tokens = {SEP_TOKEN}
    for title in documents.values():
        tokens.update(title)
    for ctx in contexts:
        tokens.update(ctx.context_tokens)
    vocab = Vocab(tokens)
    val_items = build_eval_items(
        [s for s in sessions if split_of(s.session_id) == "val"], documents)

    data = training_data(vocab, documents, train_contexts, ledger)
    slates = encode_slates(vocab, val_items, documents)
    T = 8 * steps_per_epoch(len(ledger.context_ids), 32)
    base = TrainConfig(pacing=PacingParams(T=T))
    seeds = (0, 1, 2)

    def fit_and_score(mode, seed):
        config = replace(base, mode=mode, seed=seed)
        start = time.monotonic()
        params, _ = train(config, data)
        elapsed = time.monotonic() - start
        table = evaluate_ranker(params, slates)
        return table.metrics["MAP"], elapsed

    untrained, _ = train(replace(base, pacing=replace(base.pacing, T=0)), data)
    untrained_map = evaluate_ranker(untrained, slates).metrics["MAP"]

    mode_results = {}  # mode -> (per-seed MAPs, max wall time)
    for mode in MODES:
        run_seeds = seeds if mode in ("dual", "none") else seeds[:1]
        maps, times = zip(*(fit_and_score(mode, s) for s in run_seeds))
        mode_results[mode] = (list(maps), max(times))

    grid = [train_and_evaluate(config, data, slates, **row)
            for row, config in ablation_runs(base, [0.1, 0.3, 0.5], [0.5, 0.7, 0.9])
            if "delta" in row]
    return {
        "untrained_map": untrained_map,
        "mode_results": mode_results,
        "grid": grid,
    }


def test_criterion_7_desk_scale_experiment(desk_experiment):
    with criterion(7, "desk-scale experiment"):
        results = desk_experiment["mode_results"]
        untrained = desk_experiment["untrained_map"]

        for mode, (_, elapsed) in results.items():
            assert elapsed < 600.0, f"mode {mode} trained too slowly"

        dual_maps = results["dual"][0]
        for value in dual_maps:
            assert value >= untrained + 0.2

        none_maps = results["none"][0]
        assert statistics.mean(dual_maps) >= statistics.mean(none_maps) - 0.005

        # reported, not asserted: the directional ablation table
        print(f"\nuntrained baseline MAP: {untrained:.4f}")
        for mode, (maps, elapsed) in results.items():
            shown = ", ".join(f"{v:.4f}" for v in maps)
            print(f"mode {mode:>14s}: MAP [{shown}]  ({elapsed:.1f}s)")
        for row in desk_experiment["grid"]:
            print(f"delta={row['delta']:.1f} eta={row['eta']:.1f}: "
                  f"MAP={row['MAP']:.4f}")


def test_criterion_8_reproducibility(desk_experiment, tmp_path):
    with criterion(8, "reproducibility"):
        def digests(out_dir):
            manifest = json.loads((out_dir / MANIFEST_NAME).read_text())
            return manifest["output_digests"]

        synth_args = ["synth", "--sessions", "60", "--vocab-size", "200",
                      "--topics", "10", "--queries", "2", "--candidates", "6",
                      "--noise", "0.0", "--seed", "7"]
        for run in ("a", "b"):
            root = tmp_path / run
            assert cli_main(synth_args + ["--out", str(root / "bundle")]) == 0
            assert cli_main(["score", "--bundle", str(root / "bundle"),
                             "--out", str(root / "ledger")]) == 0
            assert cli_main(["train", "--bundle", str(root / "bundle"),
                             "--ledger", str(root / "ledger" / "ledger.json"),
                             "--out", str(root / "train"), "--steps", "10",
                             "--batch-size", "8", "--seed", "1"]) == 0
            assert cli_main(["eval", "--bundle", str(root / "bundle"),
                             "--checkpoint",
                             str(root / "train" / "checkpoint.bin"),
                             "--split", "val",
                             "--out", str(root / "eval")]) == 0
        for stage in ("bundle", "ledger", "train", "eval"):
            assert digests(tmp_path / "a" / stage) == \
                digests(tmp_path / "b" / stage), f"{stage} digests differ"

        dual_maps = desk_experiment["mode_results"]["dual"][0]
        seed_std = statistics.stdev(dual_maps)
        # reporting only: the reference experiments quote a seed std
        # below 1e-3 at full corpus scale
        print(f"\ndual-mode MAP std across 3 seeds: {seed_std:.4f} "
              f"(reference reports < 1e-3 at full scale)")
