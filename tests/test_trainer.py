import copy
import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from currank import checkpoint, towers, trainer
from currank.bm25 import Bm25Params, build_index
from currank.curriculum import (
    PacingParams, build_ledger, pacing_negative, pacing_positive, sample_batch,
)
from currank.scorers import Bm25Scorer
from currank.sessions import SEP_TOKEN, build_contexts, build_eval_items
from currank.synth import SynthSpec, generate_synthetic
from currank.ranker import RankerParams, loss_and_grad, order_slate, rank_slate
from currank.towers import Vocab
from currank.trainer import (
    MODES,
    TrainConfig,
    encode_slates,
    evaluate_ranker,
    load_ranker,
    save_ranker,
    ablation_runs,
    steps_per_epoch,
    train,
    train_and_evaluate,
    training_data,
)

from batches import sample_items
from oracles import (
    entries_eval, ledger_entries, loop_sample_batch, loop_validation_loss, param_list,
    per_array_checkpoint_bytes, two_pass_validation_loss,
)


@pytest.fixture(scope="module")
def small_world():
    sessions, documents, _ = generate_synthetic(
        SynthSpec(n_sessions=80, vocab_size=200, n_topics=10,
                  queries_per_session=2, candidates_per_query=6,
                  noise_rate=0.0, seed=21)
    )
    contexts, _ = build_contexts(sessions, documents)
    scorer = Bm25Scorer(build_index(documents), Bm25Params())
    ledger = build_ledger(scorer, scorer, contexts)
    tokens = {SEP_TOKEN}
    for title in documents.values():
        tokens.update(title)
    for ctx in contexts:
        tokens.update(ctx.context_tokens)
    vocab = Vocab(tokens)
    val_items = build_eval_items(sessions[:10], documents)
    return sessions, documents, contexts, ledger, vocab, val_items


@pytest.fixture(scope="module")
def data(small_world):
    _, documents, contexts, ledger, vocab, _ = small_world
    return training_data(vocab, documents, contexts, ledger)


@pytest.fixture(scope="module")
def slates(small_world):
    _, documents, _, _, vocab, val_items = small_world
    return encode_slates(vocab, val_items, documents)


WORDS = ("w0", "w1", "w2", "w3", "w4")
# 16 distinct two-word titles, each shared by two documents: d{k} and d{k + 16}.
DOCUMENTS = {f"d{j:02d}": (WORDS[j % 16 % 5], WORDS[j % 16 // 5])
             for j in range(32)}


@st.composite
def held_out_items(draw):
    """One to four slates of 1-15 candidates, from no click to all clicked;
    a slate of two or more holds both documents of its first title."""
    items = []
    for i in range(draw(st.integers(1, 4))):
        titles = draw(st.lists(st.integers(0, 15), min_size=1, max_size=14, unique=True))
        rows = [titles[0], titles[0] + 16] + [k + 16 * draw(st.integers(0, 1))
                                               for k in titles[1:]]
        candidates = tuple(draw(st.permutations(
            [f"d{j:02d}" for j in rows[:draw(st.integers(1, len(rows)))]])))
        tokens = tuple(draw(st.lists(st.sampled_from(WORDS + ("unseen",)), max_size=5)))
        items.append((f"q{i}", tokens, candidates,
                      frozenset(draw(st.sets(st.sampled_from(candidates))))))
    return items


def config_for(ledger, batch_size=8, epochs=2, mode="dual", m=2, seed=0, **kw):
    T = kw.pop("T", None)
    if T is None:
        T = epochs * steps_per_epoch(len(ledger.context_ids), batch_size)
    pacing = PacingParams(T=T, **kw.pop("pacing_kw", {}))
    return TrainConfig(
        pacing=pacing, batch_size=batch_size, m=m, mode=mode, seed=seed,
        d_emb=8, hidden=8, **kw,
    )


class TestTrain:
    def test_zero_steps_is_noop(self, small_world, data):
        ledger = small_world[3]
        config = config_for(ledger, T=0)
        params, log = train(config, data)
        fresh, _ = train(config, data)
        assert log.steps == []
        assert np.array_equal(params.encoder.flat, fresh.encoder.flat)

    def test_logged_pacing_matches_recomputation(self, small_world, data):
        ledger = small_world[3]
        config = config_for(ledger, epochs=2)
        from currank.curriculum import pacing_negative, pacing_positive

        _, log = train(config, data)
        assert [r["t"] for r in log.steps] == list(range(config.pacing.T))
        for rec in log.steps:
            assert rec["f_p"] == pacing_positive(config.pacing, rec["t"])
            assert rec["f_n"] == pacing_negative(config.pacing, rec["t"])

    def test_eligible_telemetry_monotone(self, small_world, data):
        ledger = small_world[3]
        config = config_for(ledger, epochs=2)
        _, log = train(config, data)
        pos = [r["eligible_positives"] for r in log.steps]
        neg = [r["eligible_negative_fraction"] for r in log.steps]
        assert all(a <= b for a, b in zip(pos, pos[1:]))
        assert all(a >= b for a, b in zip(neg, neg[1:]))

    def test_parameters_made_non_finite_by_the_last_update_raise(self, small_world, data,
                                                                  monkeypatch):
        config = config_for(small_world[3], T=3, learning_rate=0.5, momentum=0.0, tau=2.0)

        def infinite_at_the_last_step(params, *rows):
            report = loss_and_grad(params, *rows)
            if infinite_at_the_last_step.calls == config.pacing.T - 1:
                report.grads.flat[-1] = -np.inf
            infinite_at_the_last_step.calls += 1
            return report

        infinite_at_the_last_step.calls = 0
        monkeypatch.setattr(trainer, "loss_and_grad", infinite_at_the_last_step)
        with pytest.raises(FloatingPointError, match=r"^step 2: non-finite ranker parameters; "
                           r"the run diverged under --lr 0\.5, --momentum 0 and --tau 2$"):
            train(config, data)

    def test_steps_log_the_mean_positive_rank(self, small_world, data, monkeypatch):
        reports = []

        def keep_report(*args):
            reports.append(loss_and_grad(*args))
            return reports[-1]

        monkeypatch.setattr(trainer, "loss_and_grad", keep_report)
        config = config_for(small_world[3], epochs=2)
        _, log = train(config, data)
        ranks = [rec["mean_positive_rank"] for rec in log.steps]
        assert len(ranks) == len(reports) == config.pacing.T
        assert ranks == [sum(r.positive_ranks) / config.batch_size for r in reports]
        assert all(1 <= rank <= 1 + config.m for rank in ranks)

    def test_mode_none_matches_uniform_sampler(self, small_world, data):
        _, _, contexts, ledger, _, _ = small_world
        config = config_for(ledger, mode="none", epochs=1, seed=13)
        _, log = train(config, data)

        # plain uniform sampler drawing from the same labeled substream
        rng = np.random.default_rng([13, 1])
        negatives = ledger_entries(ledger)[1]
        for t in range(config.pacing.T):
            chosen = rng.choice(len(ledger.context_ids), size=config.batch_size,
                                replace=False)
            for idx in chosen:
                neg_list = negatives[ledger.context_ids[int(idx)]]
                rng.choice(len(neg_list), size=config.m, replace=False)
        # identical consumption of the stream implies identical batches;
        # verify by replaying the trainer's own sampler
        rng2 = np.random.default_rng([13, 1])
        replay = []
        for t in range(config.pacing.T):
            batch = sample_items(ledger, contexts, config.pacing, t, config.batch_size,
                                 config.m, rng2, f_p=1.0, f_n=1.0)
            replay.append([(c.context_id, p, n) for c, p, n in batch])
        rng3 = np.random.default_rng([13, 1])
        again = []
        for t in range(config.pacing.T):
            batch = sample_items(ledger, contexts, config.pacing, t, config.batch_size,
                                 config.m, rng3, f_p=1.0, f_n=1.0)
            again.append([(c.context_id, p, n) for c, p, n in batch])
        assert replay == again
        assert rng.bit_generator.state == rng2.bit_generator.state

    def test_deterministic_under_seed(self, small_world, data):
        ledger = small_world[3]
        config = config_for(ledger, epochs=1, seed=3)
        a, _ = train(config, data)
        b, _ = train(config, data)
        assert np.array_equal(a.encoder.flat, b.encoder.flat)

    def test_context_row_i_is_positive_i(self, small_world, data):
        _, _, contexts, ledger, vocab, _ = small_world
        assert data.columns.context_ids == ledger.context_ids
        assert list(data.corpus.context_row) == data.columns.context_ids
        by_id = {c.context_id: c for c in contexts}
        rows = data.corpus.contexts
        for i, cid in enumerate(data.columns.context_ids):
            assert rows.ids[i, :rows.lengths[i]].tolist() \
                == (vocab.encode(by_id[cid].context_tokens) or [0])

    def test_momentum_zero_is_plain_sgd(self, small_world, data):
        ledger = small_world[3]
        config = config_for(ledger, epochs=1, seed=4, momentum=0.0, learning_rate=0.3)
        params, _ = train(config, data)
        # plain SGD on the trainer's init and sampler substreams
        want = RankerParams(
            towers.init_params(len(data.vocab), 8, 8, np.random.default_rng([4, 0])))
        rng = np.random.default_rng([4, 1])
        for t in range(config.pacing.T):
            f_p, f_n = pacing_positive(config.pacing, t), pacing_negative(config.pacing, t)
            contexts, docs = sample_batch(data.columns, 8, 2, rng, f_p, f_n)
            report = loss_and_grad(want, data.corpus.contexts.take(contexts),
                                   data.corpus.docs.take(docs.ravel()))
            want.encoder.flat[...] -= 0.3 * report.grads.flat
        assert np.array_equal(params.encoder.flat, want.encoder.flat)

    @pytest.mark.parametrize("mode", MODES)
    def test_all_modes_run(self, small_world, data, mode):
        ledger = small_world[3]
        config = config_for(ledger, epochs=1, mode=mode)
        params, log = train(config, data)
        assert len(log.steps) == config.pacing.T

    def test_checkpoint_resume_bit_identical(self, small_world, data, tmp_path):
        ledger = small_world[3]
        config = config_for(ledger, epochs=2, seed=5, checkpoint_interval=7)
        full, _ = train(config, data, checkpoint_dir=tmp_path / "full")
        (tmp_path / "full").mkdir(exist_ok=True)
        # restart from the checkpoint written at step 7
        resumed, _ = train(
            config, data,
            checkpoint_dir=tmp_path / "resumed",
            resume=trainer.load_resume(
                tmp_path / "full" / "ckpt_00000007.bin", config, data.vocab),
        )
        assert np.array_equal(
            full.encoder.flat, resumed.encoder.flat
        )

    def test_validation_metrics_logged_per_epoch(self, small_world, data, slates):
        ledger = small_world[3]
        config = config_for(ledger, epochs=2)
        _, log = train(config, data, slates)
        assert len(log.validations) == 2
        assert all("MAP" in rec for rec in log.validations)

    def test_training_beats_untrained_on_separable_data(self, small_world, data, slates):
        ledger = small_world[3]
        config = config_for(ledger, epochs=10, learning_rate=0.1)
        trained, _ = train(config, data)
        untrained, _ = train(config_for(ledger, T=0), data)
        map_trained = evaluate_ranker(trained, slates).metrics["MAP"]
        map_untrained = evaluate_ranker(untrained, slates).metrics["MAP"]
        assert map_trained > map_untrained


class TestBatchedValidation:
    def test_loss_matches_per_item_reference(self, small_world, data):
        _, documents, _, ledger, vocab, val_items = small_world
        # one to three clicks per slate, and one slate with no unclicked candidate
        items = [(query_id, tokens, cands, frozenset(cands[: 1 + i % 3]))
                 for i, (query_id, tokens, cands, _) in enumerate(val_items)]
        items[0] = (*items[0][:3], frozenset(items[0][2]))
        params, log = train(config_for(ledger, epochs=2), data,
                            encode_slates(vocab, items, documents))
        want = loop_validation_loss(params, vocab, items, documents)
        assert want > 0
        assert log.validations[-1]["val_loss"] == pytest.approx(want, rel=1e-12, abs=0)

    def test_ranking_matches_rank_slate(self, small_world, data, slates):
        _, documents, _, ledger, vocab, val_items = small_world
        params, _ = train(config_for(ledger, epochs=1), data)
        ranked = list(trainer.rank_slates(slates, slates.scores(params)))
        assert len(ranked) == len(val_items)
        for (query_id, tokens, candidates, clicked), (got_id, got, ranked_clicked) in zip(
                val_items, ranked):
            assert got_id == query_id
            assert ranked_clicked == clicked
            want = rank_slate(params, vocab, tokens, list(candidates), documents)
            assert [d for d, _ in got] == [d for d, _ in want]
            assert [s for _, s in got] == pytest.approx([s for _, s in want],
                                                        rel=1e-12, abs=0)


    @settings(max_examples=150, deadline=None)
    @given(items=held_out_items(), seed=st.integers(0, 2**16), tau=st.sampled_from([1.0, 0.3]))
    def test_pair_scores_equal_a_per_pair_loop(self, items, seed, tau):
        """Ranking reads one score per pair, so a pair scored alone ranks the
        same, ties by doc id included; the loss reads the same vector."""
        vocab = Vocab(WORDS)
        params = RankerParams(towers.init_params(len(vocab), 8, 8, np.random.default_rng(seed)),
                              tau=tau)
        slates = encode_slates(vocab, items, DOCUMENTS)
        scores = slates.scores(params)
        corpus = slates.corpus
        c_enc, _ = towers.encode_batch(params.encoder, corpus.contexts, "context")
        d_enc, _ = towers.encode_batch(params.encoder, corpus.docs, "document")
        want = [(query_id, order_slate(candidates, np.array(
                    [np.einsum("j,j->", d_enc[corpus.doc_row[d]],
                               c_enc[corpus.context_row[query_id]]) / tau
                     for d in candidates])), clicked)
                for query_id, _, candidates, clicked in items]
        assert list(trainer.rank_slates(slates, scores)) == want
        assert trainer._validation_loss(slates, scores) == pytest.approx(
            loop_validation_loss(params, vocab, items, DOCUMENTS), rel=1e-12, abs=0)

    @pytest.mark.parametrize("block", [1, 7, 256, trainer.SCORE_BLOCK])
    def test_blocked_scores_equal_one_shot_scores(self, small_world, data, monkeypatch,
                                                   block):
        sessions, documents, _, ledger, vocab, _ = small_world
        slates = encode_slates(vocab, build_eval_items(sessions, documents) * 3, documents)
        assert len(slates.pair_doc) > trainer.SCORE_BLOCK  # more than one default block
        params, _ = train(config_for(ledger, epochs=1), data)
        c_enc, _ = towers.encode_batch(params.encoder, slates.corpus.contexts, "context")
        d_enc, _ = towers.encode_batch(params.encoder, slates.corpus.docs, "document")
        want = np.einsum("ij,ij->i", d_enc[slates.pair_doc],
                         c_enc[slates.pair_context]) / params.tau
        monkeypatch.setattr(trainer, "SCORE_BLOCK", block)
        assert np.array_equal(slates.scores(params), want)

    def test_width_groups_equal_the_two_pass_loss(self, small_world, data):
        """Slates of four widths with two or three clicks, and all-clicked
        slates (skipped): the per-width softmax keeps every bit."""
        sessions, documents, _, ledger, vocab, _ = small_world
        items = [(query_id, tokens, cands[: 3 + i % 4], frozenset(cands[: 2 + i // 4 % 2]))
                 for i, (query_id, tokens, cands, _)
                 in enumerate(build_eval_items(sessions, documents))]
        items[1] = (*items[1][:3], frozenset(items[1][2]))
        slates = encode_slates(vocab, items, documents)
        groups = slates.loss_layout
        assert sorted(len(cells[0]) for cells, _ in groups) == [2, 3, 4, 5]
        assert sum(map(len, (places for _, places in groups))) < sum(
            len(clicked) for *_, clicked in items)
        for epochs in (0, 1, 2):
            params, _ = train(config_for(ledger, epochs=epochs), data)
            got = trainer._validation_loss(slates, slates.scores(params))
            assert got > 0 and got == two_pass_validation_loss(params, slates)


class TestSameMachineIdentity:
    """Checkpoints depend on the BLAS, so outputs are compared with the
    earlier per-item and two-pass code on the same machine."""

    @pytest.mark.parametrize("mode", ["dual", "easy-neg-only", "hard-neg-only"])
    def test_sampler_trains_as_the_per_item_loop(self, small_world, data, slates,
                                                 monkeypatch, mode):
        config = config_for(small_world[3], epochs=2, mode=mode, seed=11)
        params, log = train(config, data, slates)
        with monkeypatch.context() as patch:
            patch.setattr(trainer, "sample_batch", loop_sample_batch)
            want_params, want_log = train(config, data, slates)
        assert params.encoder.flat.tobytes() == \
            want_params.encoder.flat.tobytes()
        assert log.steps == want_log.steps
        assert log.validations == want_log.validations

    def test_validation_records_equal_two_pass_results(self, small_world, data, monkeypatch):
        sessions, documents, _, ledger, vocab, _ = small_world
        # every session's slates, out of query-id order, with one to three clicks
        items = build_eval_items(sessions, documents)
        items = [(query_id, tokens, cands, frozenset(cands[i % 3: i % 3 + 1 + i % 3]))
                 for i, (query_id, tokens, cands, _) in enumerate(items[1::2] + items[::2])]
        seen = []
        evaluate = trainer.evaluate_ranker

        def keep_params(params, slates, scores=None):
            seen.append((copy.deepcopy(params), slates))
            return evaluate(params, slates, scores)

        monkeypatch.setattr(trainer, "evaluate_ranker", keep_params)
        _, log = train(config_for(ledger, epochs=3), data,
                       encode_slates(vocab, items, documents))
        assert len(seen) == len(log.validations) == 3
        for record, (params, slates) in zip(log.validations, seen):
            table = entries_eval(params, slates)[2]
            assert {k: record[k] for k in table.metrics} == table.metrics
            assert record["val_loss"] == two_pass_validation_loss(params, slates)


class TestNegativePrefixCheck:
    """m larger than a context's eligible negative prefix fails before
    the first step, naming the context."""

    @staticmethod
    def _no_sampling(monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("sampled a batch before the m check")

        monkeypatch.setattr(trainer, "sample_batch", fail)

    def test_tightest_eta_checked_before_step_0(self, small_world, data, monkeypatch):
        ledger = small_world[3]
        smallest = min(ledger.neg_len)
        config = config_for(ledger, m=smallest, pacing_kw={"eta": 0.05})
        self._no_sampling(monkeypatch)
        with pytest.raises(ValueError, match=r"context \S+: eligible negative prefix"):
            train(config, data)

    def test_halved_modes_use_halved_lists(self, small_world, data, monkeypatch):
        ledger = small_world[3]
        smallest = min(ledger.neg_len)
        self._no_sampling(monkeypatch)
        for mode in ("easy-neg-only", "hard-neg-only"):
            config = config_for(ledger, m=(smallest + 1) // 2 + 1, mode=mode)
            with pytest.raises(ValueError, match="eligible negative prefix"):
                train(config, data)
        # the same m with the full lists and no negative curriculum is fine
        trainer.check_prefixes(config_for(ledger, m=(smallest + 1) // 2 + 1,
                                          mode="none"),
                               data.columns)


class TestPositivePrefixCheck:
    """A batch larger than the eligible positives at step 0, the smallest
    positive prefix, fails before the first step, naming delta."""

    def test_batch_above_the_first_positive_prefix(self, small_world, data, monkeypatch):
        ledger = small_world[3]
        n = len(ledger.context_ids)
        first = math.ceil(0.1 * n)  # eligible positives at step 0 under delta=0.1
        TestNegativePrefixCheck._no_sampling(monkeypatch)
        config = config_for(ledger, batch_size=first + 1, pacing_kw={"delta": 0.1})
        with pytest.raises(ValueError, match=rf"delta=0.1: batch_size {first + 1} exceeds "
                                             rf"the {first} eligible positives at step 0"):
            train(config, data)
        # pinned positives (no positive curriculum) and a batch that fits pass
        trainer.check_prefixes(replace(config, mode="neg-only"), data.columns)
        trainer.check_prefixes(replace(config, batch_size=first), data.columns)


class TestCheckpointRoundTrip:
    def test_save_load(self, small_world, data, tmp_path):
        _, _, _, ledger, vocab, _ = small_world
        config = config_for(ledger, epochs=1)
        params, _ = train(config, data)
        path = tmp_path / "ranker.bin"
        save_ranker(path, params, vocab)
        loaded, loaded_vocab = load_ranker(path)
        assert np.array_equal(
            params.encoder.flat, loaded.encoder.flat
        )
        assert loaded.tau == params.tau
        assert loaded_vocab.tokens == vocab.tokens

    def test_training_checkpoint_equals_the_per_array_code(self, small_world, data, tmp_path):
        _, _, _, ledger, vocab, _ = small_world
        config = config_for(ledger, epochs=1)
        params, _ = train(config, data)
        velocity = np.random.default_rng(4).normal(size=params.encoder.flat.size)
        rng = np.random.default_rng(9)
        path = tmp_path / "ckpt.bin"
        trainer._save_train_checkpoint(path, params, vocab, velocity, 17, rng, config)
        _, _, extra, meta = checkpoint.load_checkpoint(path, expect_kind="ranker")
        assert meta["config"] == asdict(config)
        arrays = param_list(params.encoder)
        parts = np.split(velocity, np.cumsum([a.size for a in arrays])[:-1])
        vel = {f"vel.{name}": part.reshape(a.shape)
               for name, a, part in zip(towers.PARAM_NAMES, arrays, parts)}
        assert path.read_bytes() == per_array_checkpoint_bytes(
            "ranker", param_list(params.encoder), vocab, vel, meta)
        assert extra.keys() == vel.keys()
        assert all(extra[name].tobytes() == arr.tobytes() for name, arr in vel.items())

    @pytest.mark.parametrize("keep", [10, 100, -8])
    def test_truncated_file_rejected(self, small_world, data, tmp_path, keep):
        _, _, _, ledger, vocab, _ = small_world
        params, _ = train(config_for(ledger, T=0), data)
        path = tmp_path / "ranker.bin"
        save_ranker(path, params, vocab)
        blob = path.read_bytes()
        path.write_bytes(blob[:keep])  # cut in the header length, header, last array
        with pytest.raises(ValueError, match="truncated checkpoint"):
            load_ranker(path)


class TestSweep:
    """The delta/eta grid as ablate runs it: ablation_runs' grid pairs,
    after one pair per mode, each trained by train_and_evaluate."""

    def test_single_cell_equals_train(self, small_world, data, slates):
        base = config_for(small_world[3], epochs=1)
        runs = ablation_runs(base, [0.3], [0.7])
        assert [row for row, _ in runs] == \
            [{"mode": mode} for mode in MODES] + [{"delta": 0.3, "eta": 0.7}]
        row, config = runs[-1]
        got = train_and_evaluate(config, data, slates, **row)
        assert config == replace(base, pacing=replace(base.pacing, delta=0.3, eta=0.7))
        params, _ = train(config, data)
        table = evaluate_ranker(params, slates)
        assert got == {"delta": 0.3, "eta": 0.7, **table.metrics}

    def test_reproducible(self, small_world, data, slates):
        base = config_for(small_world[3], epochs=1)
        a, b = ([train_and_evaluate(config, data, slates, **row)
                 for row, config in ablation_runs(base, [0.2, 0.5], [0.7])[len(MODES):]]
                for _ in range(2))
        assert len(a) == 2 and a == b

    def test_grid_shape(self, small_world):
        base = config_for(small_world[3], epochs=1)
        runs = ablation_runs(base, [0.2, 0.5, 1.0], [0.5, 0.8, 1.0])
        assert [(row, config) for row, config in runs[:len(MODES)]] == \
            [({"mode": mode}, replace(base, mode=mode)) for mode in MODES]
        grid = runs[len(MODES):]
        assert [(r["delta"], r["eta"]) for r, _ in grid] == \
            [(d, e) for d in (0.2, 0.5, 1.0) for e in (0.5, 0.8, 1.0)]
        assert all(config == replace(base, pacing=replace(base.pacing, **row))
                   for row, config in grid)
