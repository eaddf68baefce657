import errno
import gc
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from currank import cli
from currank.checkpoint import file_digest, load_checkpoint, save_checkpoint
from currank.cli import LOCK_NAME, build_vocab, in_split, load_bundle, main, split_of
from currank.curriculum import load_ledger, save_ledger
from currank.manifest import MANIFEST_NAME, RunManifest, write_manifest
from currank.ranker import init_ranker
from currank.sessions import build_eval_items
from currank.towers import token_rows
from currank.trainer import MODES, encode_slates, load_ranker, rank_slates, save_ranker

from oracles import entries_eval


def run_cli(*argv):
    return main([str(a) for a in argv])


SYNTH_ARGS = (
    "synth", "--sessions", 60, "--vocab-size", 200, "--topics", 10,
    "--queries", 2, "--candidates", 6, "--noise", 0.0, "--seed", 7,
)


def _log_record(position, *candidates):
    return json.dumps({"session_id": "s1", "query_position": position,
                       "query_text": "q", "candidates": list(candidates)})


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    assert run_cli(*SYNTH_ARGS, "--out", out) == 0
    return out


@pytest.fixture(scope="module")
def ledger_dir(tmp_path_factory, bundle_dir):
    out = tmp_path_factory.mktemp("ledger")
    assert run_cli("score", "--bundle", bundle_dir, "--out", out) == 0
    return out


@pytest.fixture(scope="module")
def train_dir(tmp_path_factory, bundle_dir, ledger_dir):
    out = tmp_path_factory.mktemp("train")
    assert run_cli(
        "train", "--bundle", bundle_dir, "--ledger", ledger_dir / "ledger.json",
        "--out", out, "--steps", 10, "--seed", 1, "--batch-size", 8,
    ) == 0
    return out


class TestSynth:
    def test_outputs_and_manifest(self, bundle_dir):
        for name in ("documents.jsonl", "sessions.jsonl", "contexts.jsonl",
                     "log.jsonl", "labels.jsonl", MANIFEST_NAME):
            assert (bundle_dir / name).exists()
        manifest = json.loads((bundle_dir / MANIFEST_NAME).read_text())
        assert manifest["command"] == "synth"
        assert manifest["master_seed"] == 7
        assert "documents.jsonl" in manifest["output_digests"]

    def test_reproducible_digests(self, bundle_dir, tmp_path):
        assert run_cli(*SYNTH_ARGS, "--out", tmp_path / "again") == 0
        a = json.loads((bundle_dir / MANIFEST_NAME).read_text())
        b = json.loads((tmp_path / "again" / MANIFEST_NAME).read_text())
        assert a["output_digests"] == b["output_digests"]

    def test_seed_is_required(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("synth", "--sessions", 10, "--out", tmp_path / "x")
        assert exc.value.code == 2

    def test_lock_file_rejects_concurrent_run(self, tmp_path, capsys):
        out = tmp_path / "locked"
        out.mkdir()
        (out / LOCK_NAME).touch()
        assert run_cli(*SYNTH_ARGS, "--out", out) == 2
        assert "locked" in capsys.readouterr().err

    def test_lock_file_names_its_owner(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        held, write_bundle = [], cli.write_bundle

        def spy(out_dir, *args):
            held.append((out_dir / LOCK_NAME).read_text())
            return write_bundle(out_dir, *args)

        monkeypatch.setattr(cli, "write_bundle", spy)
        assert run_cli(*SYNTH_ARGS, "--out", out) == 0
        assert held == [f"{os.getpid()}\n"]
        assert not (out / LOCK_NAME).exists()

        (out / LOCK_NAME).write_text("4242\n")
        assert run_cli(*SYNTH_ARGS, "--out", out) == 2
        assert "locked by another command (pid 4242)" in capsys.readouterr().err


class TestGoldenDigests:
    """Digests of the criterion-8 pipeline's `synth` and BM25 `score`
    outputs (60 sessions, seed 7). Neither stage calls BLAS, so the bytes
    are the same on every machine; a refactor that changes them changes
    the program's outputs."""

    SYNTH = {
        "contexts.jsonl": "22912ffa252598f92f35f3efa247a65df5b2d0cbdf36c19306f68bca78103b70",
        "documents.jsonl": "f543d91a002d19655696f6f17c23e343b551bda1796640d08598684306cab180",
        "labels.jsonl": "b6287228381eecce8ddfa74664a051bfd4848e25334ca07df0b89b53653b2009",
        "log.jsonl": "23458d87211171e26d5b1352629f4e9061c9f03c651c06b45dda9c3137064f2a",
        "sessions.jsonl": "4b565e475bc221ea9955365d132f6b6a4e72006f17562203347b4b834ce78a92",
    }
    LEDGER = {
        "ledger.json": "e4554f2080c408f2aab172018b7d441bd2fb273354ed33911429dd418ee43166",
    }

    def test_synth_bundle(self, bundle_dir):
        manifest = json.loads((bundle_dir / MANIFEST_NAME).read_text())
        assert manifest["output_digests"] == self.SYNTH

    def test_bm25_ledger(self, ledger_dir):
        manifest = json.loads((ledger_dir / MANIFEST_NAME).read_text())
        assert manifest["output_digests"] == self.LEDGER


class TestIngest:
    def test_round_trips_synth_log(self, bundle_dir, tmp_path, capsys):
        out = tmp_path / "ingested"
        assert run_cli("ingest", "--log", bundle_dir / "log.jsonl",
                       "--out", out) == 0
        assert "sessions: 60" in capsys.readouterr().out
        a = json.loads((bundle_dir / MANIFEST_NAME).read_text())["output_digests"]
        b = json.loads((out / MANIFEST_NAME).read_text())["output_digests"]
        for name in ("documents.jsonl", "sessions.jsonl", "contexts.jsonl"):
            assert a[name] == b[name]

    def test_missing_log_exits_two(self, tmp_path, capsys):
        assert run_cli("ingest", "--log", tmp_path / "nope.jsonl",
                       "--out", tmp_path / "o") == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("record, error", [
        ("this is not json", "invalid JSON"),
        (_log_record(2, {"doc_id": "d1", "title": "x", "clicked": True}), "rank"),
        (_log_record(2, {"doc_id": "d1", "title": "x", "rank": "first",
                         "clicked": True}), "rank"),
        (_log_record(2, {"doc_id": "d1", "title": "x", "rank": 1.5,
                         "clicked": True}), "rank"),
        (_log_record(2, {"doc_id": "d1", "title": "x", "rank": 1, "clicked": True},
                     {"doc_id": "d1", "title": "x", "rank": 2, "clicked": False}),
         "twice"),
        (_log_record(2, {"doc_id": "d1", "title": ["a"], "rank": 1, "clicked": True}),
         "title ['a'] is not a string"),
        (_log_record(2, {"doc_id": "d1", "title": 5, "rank": 1, "clicked": True}),
         "title 5 is not a string"),
        (_log_record(2, {"doc_id": "d1", "title": "x", "rank": 1, "clicked": True})
         .replace('"query_text": "q"', '"query_text": ["a"]'),
         "query_text ['a'] is not a string"),
        (_log_record(2, {"doc_id": "d1", "title": "x", "rank": 1, "clicked": True})
         .replace('"session_id": "s1"', '"session_id": ["s1"]'),
         "session_id ['s1'] is not a string"),
        (_log_record(1.7, {"doc_id": "d1", "title": "x", "rank": 1, "clicked": True}),
         "query_position 1.7 is not an integer"),
        (_log_record(True, {"doc_id": "d1", "title": "x", "rank": 1, "clicked": True}),
         "query_position True is not an integer"),
        (_log_record(2, {"doc_id": 5, "title": "x", "rank": 1, "clicked": True}),
         "doc_id 5 is not a string"),
        (_log_record(2, {"doc_id": "d1", "title": "x", "rank": 1, "clicked": "no"}),
         "clicked 'no' is not a boolean"),
        (_log_record(2, {"doc_id": "d1", "title": "x", "rank": 1, "clicked": 1}),
         "clicked 1 is not a boolean"),
        (_log_record(2, {"doc_id": "d1", "title": "x", "rank": 1, "clicked": True})
         .replace('"session_id": "s1"', '"session_id": ""'),
         "session_id '' is empty"),
        (_log_record(2, {"doc_id": "", "title": "x", "rank": 1, "clicked": True}),
         "doc_id '' is empty"),
    ], ids=["invalid-json", "missing-rank", "non-integer-rank",
         "fractional-rank", "duplicate-doc", "list-title", "integer-title", "list-query",
         "list-session-id", "fractional-position", "bool-position", "integer-doc-id",
         "string-clicked", "integer-clicked", "empty-session-id", "empty-doc-id"])
    def test_malformed_log_exits_two(self, tmp_path, capsys, record, error):
        bad = tmp_path / "bad.jsonl"
        good = _log_record(1, {"doc_id": "d0", "title": "y", "rank": 1, "clicked": True})
        bad.write_text(good + "\n" + record + "\n")
        assert run_cli("ingest", "--log", bad, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "line 2" in err and error in err
        assert not (tmp_path / "o").exists()


class TestScore:
    def test_ledger_written(self, ledger_dir):
        assert (ledger_dir / "ledger.json").exists()
        manifest = json.loads((ledger_dir / MANIFEST_NAME).read_text())
        assert manifest["command"] == "score"
        assert "/" in manifest["scorer_digest"]

    def test_missing_bundle_exits_two(self, tmp_path):
        assert run_cli("score", "--bundle", tmp_path / "nope",
                       "--out", tmp_path / "o") == 2

    def test_dense_without_fit_or_checkpoint_exits_two(
        self, bundle_dir, tmp_path, capsys
    ):
        assert run_cli("score", "--bundle", bundle_dir, "--scorer", "dense",
                       "--out", tmp_path / "o") == 2
        assert "--checkpoint or --fit" in capsys.readouterr().err

    def test_rerun_into_same_directory_digests_own_outputs(
        self, bundle_dir, ledger_dir, tmp_path
    ):
        out = tmp_path / "ledger"
        for _ in range(2):
            assert run_cli("score", "--bundle", bundle_dir, "--out", out) == 0
            manifest = json.loads((out / MANIFEST_NAME).read_text())
            assert manifest["output_digests"] == json.loads(
                (ledger_dir / MANIFEST_NAME).read_text())["output_digests"]
        assert list(manifest["output_digests"]) == ["ledger.json"]

    @pytest.mark.parametrize("role,scorer", [
        ("positive", ("bm25",)),
        ("negative", ("bm25",)),
        ("negative", ("dense", "--fit", "--fit-epochs", 1)),
        ("positive", ("dense", "--fit", "--fit-epochs", 1)),
    ])
    def test_unknown_document_exits_two(self, bundle_dir, tmp_path, capsys,
                                        role, scorer):
        bundle = tmp_path / "bundle"
        shutil.copytree(bundle_dir, bundle)
        path = bundle / "contexts.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        rec = next(r for r in records if split_of(r["session_id"]) == "train")
        if role == "positive":
            doc = rec["positive_doc_id"] = "dzzz"
        else:
            doc = "dyyy"
            rec["negative_pool"].append(doc)
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert run_cli("score", "--bundle", bundle, "--scorer", *scorer,
                       "--out", tmp_path / "o") == 2
        context_id = f"{rec['session_id']}:{rec['position']}:{rec['positive_doc_id']}"
        assert f"context {context_id}: document {doc} is not in the corpus" \
            in capsys.readouterr().err

    def test_fit_with_checkpoint_exits_two_before_any_work(
        self, bundle_dir, tmp_path, monkeypatch, capsys
    ):
        ckpt = tmp_path / "dense_scorer.bin"
        ckpt.write_bytes(b"")
        loaded = []
        monkeypatch.setattr(cli, "load_bundle", lambda *args, **kwargs: loaded.append(args))
        out = tmp_path / "o"
        assert run_cli("score", "--bundle", bundle_dir, "--scorer", "dense", "--fit",
                       "--checkpoint", ckpt, "--out", out) == 2
        assert "--fit and --checkpoint exclude each other" in capsys.readouterr().err
        assert loaded == [] and not out.exists()

    @pytest.mark.parametrize("flags, flag", [
        (("--fit",), "--fit"),
        (("--checkpoint", "ckpt"), "--checkpoint"),
        (("--pos-scorer", "bm25", "--neg-scorer", "bm25", "--fit"), "--fit"),
    ], ids=["fit", "checkpoint", "both-bm25-fit"])
    def test_dense_flags_without_a_dense_scorer_exit_two_before_any_work(
        self, bundle_dir, tmp_path, monkeypatch, capsys, flags, flag
    ):
        (tmp_path / "ckpt").write_bytes(b"")
        loaded = []
        monkeypatch.setattr(cli, "load_bundle", lambda *args, **kwargs: loaded.append(args))
        out = tmp_path / "o"
        flags = [tmp_path / f if f == "ckpt" else f for f in flags]
        assert run_cli("score", "--bundle", bundle_dir, *flags, "--out", out) == 2
        assert f"error: {flag} needs a dense scorer; both curricula use bm25" \
            in capsys.readouterr().err
        assert loaded == [] and not out.exists()

    def test_checkpoint_is_an_input_of_the_manifest(self, bundle_dir, tmp_path, capsys):
        fitted = tmp_path / "fitted"
        assert run_cli("score", "--bundle", bundle_dir, "--scorer", "dense",
                       "--fit", "--fit-epochs", 1, "--out", fitted) == 0
        ckpt = fitted / "dense_scorer.bin"
        out = tmp_path / "o"
        assert run_cli("score", "--bundle", bundle_dir, "--scorer", "dense",
                       "--checkpoint", ckpt, "--out", out) == 0
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        assert manifest["config"]["checkpoint"] == str(ckpt)
        assert manifest["input_digests"] == {
            **{str(bundle_dir / name): file_digest(bundle_dir / name)
               for name in cli.BUNDLE_FILES},
            str(ckpt): file_digest(ckpt),
        }
        assert list(manifest["output_digests"]) == ["ledger.json"]

        assert run_cli("score", "--bundle", bundle_dir, "--scorer", "dense",
                       "--checkpoint", tmp_path / "nope.bin", "--out", tmp_path / "x") == 2
        assert "checkpoint not found" in capsys.readouterr().err

    def test_dense_fit_writes_scorer_checkpoint(self, bundle_dir, tmp_path):
        out = tmp_path / "dense"
        assert run_cli("score", "--bundle", bundle_dir, "--scorer", "dense",
                       "--fit", "--fit-epochs", 1, "--out", out) == 0
        assert (out / "dense_scorer.bin").exists()
        assert (out / "ledger.json").exists()

    @pytest.mark.parametrize("source", ["fit", "checkpoint"])
    def test_dense_scorer_reads_only_training_contexts(self, bundle_dir, tmp_path,
                                                       monkeypatch, source):
        fitted = tmp_path / "fitted"
        assert run_cli("score", "--bundle", bundle_dir, "--scorer", "dense",
                       "--fit", "--fit-epochs", 1, "--out", fitted) == 0
        encoded, fit_rows = [], []
        encode_corpus, train_in_batch = cli.encode_corpus, cli.dense.train_in_batch

        def spy_encode(vocab, documents, contexts):
            encoded.append(list(contexts.items()))
            return encode_corpus(vocab, documents, contexts)

        def spy_fit(params, ctx_rows, doc_rows, **kwargs):
            fit_rows.append((ctx_rows, doc_rows))
            return train_in_batch(params, ctx_rows, doc_rows, **kwargs)

        monkeypatch.setattr(cli, "encode_corpus", spy_encode)
        monkeypatch.setattr(cli.dense, "train_in_batch", spy_fit)
        flags = (("--fit", "--fit-epochs", 1) if source == "fit"
                 else ("--checkpoint", fitted / "dense_scorer.bin"))
        assert run_cli("score", "--bundle", bundle_dir, "--scorer", "dense", *flags,
                       "--out", tmp_path / "o") == 0
        _, documents, contexts = load_bundle(bundle_dir)
        train = in_split(contexts, "train")
        assert len(train) < len(contexts)
        assert encoded == [[(c.context_id, c.context_tokens) for c in train]]
        if source == "checkpoint":
            assert fit_rows == []
            return
        # the fit pairs each training context with its positive's title
        vocab = build_vocab(documents, contexts)
        (ctx_rows, doc_rows), = fit_rows
        for got, sequences in [
            (ctx_rows, [c.context_tokens for c in train]),
            (doc_rows, [documents[c.positive_doc_id].title_tokens for c in train]),
        ]:
            want = token_rows(vocab.encode(tokens) for tokens in sequences)
            assert np.array_equal(got.ids, want.ids)
            assert np.array_equal(got.lengths, want.lengths)

    def test_fit_losses_are_kept_in_the_checkpoint(self, bundle_dir, tmp_path,
                                                   monkeypatch, capsys):
        returned = []
        train_in_batch = cli.dense.train_in_batch

        def spy_fit(*args, **kwargs):
            returned.append(train_in_batch(*args, **kwargs))
            return returned[-1]

        monkeypatch.setattr(cli.dense, "train_in_batch", spy_fit)
        out = tmp_path / "dense"
        assert run_cli("score", "--bundle", bundle_dir, "--scorer", "dense",
                       "--fit", "--fit-epochs", 3, "--out", out) == 0
        _, _, _, meta = load_checkpoint(out / "dense_scorer.bin", expect_kind="dense-scorer")
        assert len(returned) == 1 and len(returned[0]) == 3
        assert meta["fit_losses"] == returned[0]
        printed = " ".join(f"{loss:.6f}" for loss in returned[0])
        assert f"dense fit losses: {printed}\n" in capsys.readouterr().out


class TestTrain:
    def test_outputs(self, train_dir):
        assert (train_dir / "checkpoint.bin").exists()
        log_lines = (train_dir / "trainlog.jsonl").read_text().splitlines()
        steps = [json.loads(l) for l in log_lines if "validation" not in l]
        assert [r["t"] for r in steps] == list(range(10))
        assert all({"f_p", "f_n", "loss", "eligible_positives"} <= set(r)
                   for r in steps)

    def test_manifest_reproducible(self, bundle_dir, ledger_dir, train_dir,
                                   tmp_path):
        out = tmp_path / "again"
        assert run_cli(
            "train", "--bundle", bundle_dir,
            "--ledger", ledger_dir / "ledger.json",
            "--out", out, "--steps", 10, "--seed", 1, "--batch-size", 8,
        ) == 0
        a = json.loads((train_dir / MANIFEST_NAME).read_text())
        b = json.loads((out / MANIFEST_NAME).read_text())
        assert a["output_digests"] == b["output_digests"]

    def test_rerun_into_same_directory_digests_own_outputs(
        self, bundle_dir, ledger_dir, tmp_path
    ):
        out = tmp_path / "train"
        common = ("train", "--bundle", bundle_dir, "--ledger",
                  ledger_dir / "ledger.json", "--out", out, "--batch-size", 8)
        assert run_cli(*common, "--steps", 20, "--checkpoint-interval", 10) == 0
        assert run_cli(*common, "--steps", 10, "--checkpoint-interval", 5) == 0
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        assert list(manifest["output_digests"]) == [
            "checkpoint.bin", "ckpt_00000005.bin", "ckpt_00000010.bin",
            "trainlog.jsonl",
        ]
        assert (out / "ckpt_00000020.bin").exists()  # the first run's, not listed

    def test_missing_ledger_exits_two(self, bundle_dir, tmp_path):
        assert run_cli("train", "--bundle", bundle_dir,
                       "--ledger", tmp_path / "nope.json",
                       "--out", tmp_path / "o") == 2

    @staticmethod
    def _break_ledger(payload, contexts, case):
        """Make `payload`'s first positive break the ledger in one way;
        return the error the resolver must report."""
        cid, doc, _ = payload["positives"][0]
        ctx = next(c for c in contexts if c.context_id == cid)
        other = next(c for c in contexts if c.context_id != cid
                     and c.positive_doc_id != doc
                     and not set(c.negative_pool) <= set(ctx.negative_pool))
        negatives = payload["negatives"][cid]
        if case == "no-negatives":
            del payload["negatives"][cid]
            return f"ledger has no negatives for contexts: ['{cid}']"
        if case == "unknown-context":
            payload["positives"][0][0] = "nosuch:1:doc"
            return "ledger references unknown contexts: ['nosuch:1:doc']"
        if case == "duplicate-positive":
            payload["positives"].append(payload["positives"][0])
            return f"ledger lists contexts more than once: ['{cid}']"
        if case == "repeated-negative":
            negatives.append(negatives[-1])
            return f"ledger: context {cid}: negative {negatives[-1][0]} is listed more than once"
        if case == "reversed-positives":
            payload["positives"].reverse()
            (a, _, da), (b, _, db) = payload["positives"][:2]
            return (f"ledger: positive {b} (d_p {db}) follows {a} (d_p {da}): "
                    "positives must ascend in (d_p, context id)")
        if case == "ascending-negatives":
            negatives.reverse()
            (a, da), (b, db) = negatives[:2]
            return (f"ledger: context {cid}: negative {b} (d_n {db}) follows {a} (d_n {da}): "
                    "negatives must descend in d_n, ties by ascending doc id")
        if case in ("unknown-positive-doc", "foreign-positive-doc"):
            bad = payload["positives"][0][1] = (
                "nosuchdoc" if case == "unknown-positive-doc" else other.positive_doc_id)
            return f"ledger: context {cid}: positive {bad} is not the context's positive {doc}"
        bad = negatives[0][0] = (
            "nosuchdoc" if case == "unknown-negative-doc"
            else next(d for d in other.negative_pool if d not in ctx.negative_pool))
        return (f"ledger: context {cid}: negatives ['{bad}'] are not in the "
                "context's negative pool")

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("case", [
        "no-negatives", "unknown-context", "duplicate-positive", "unknown-positive-doc",
        "foreign-positive-doc", "unknown-negative-doc", "foreign-negative-doc",
        "repeated-negative", "reversed-positives", "ascending-negatives",
    ])
    def test_ledger_without_a_context_negatives_exits_two(
        self, bundle_dir, ledger_dir, tmp_path, capsys, case, command
    ):
        """And every other ledger that does not match the bundle's training
        contexts: the resolver refuses it before any work."""
        payload = json.loads((ledger_dir / "ledger.json").read_text())
        _, _, contexts = load_bundle(bundle_dir)
        message = self._break_ledger(payload, in_split(contexts, "train"), case)
        ledger = tmp_path / "ledger.json"
        ledger.write_text(json.dumps(payload))
        out = tmp_path / "o"
        assert run_cli(command, "--bundle", bundle_dir, "--ledger", ledger,
                       "--out", out, "--steps", 10, "--batch-size", 8) == 2
        captured = capsys.readouterr()
        assert f"error: {message}\n" == captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("key", ["version", "pos_scorer_digest",
                                     "neg_scorer_digest", "positives", "negatives"])
    def test_ledger_without_a_key_exits_two(self, bundle_dir, ledger_dir, tmp_path,
                                            capsys, key):
        payload = json.loads((ledger_dir / "ledger.json").read_text())
        del payload[key]
        ledger = tmp_path / "ledger.json"
        ledger.write_text(json.dumps(payload))
        assert run_cli("train", "--bundle", bundle_dir, "--ledger", ledger,
                       "--out", tmp_path / "o", "--steps", 10, "--batch-size", 8) == 2
        assert f"error: {ledger}: malformed ledger: no '{key}' entry" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("field, value, message", [
        (0, ["x"], "context id ['x'] is not a string"),
        (2, float("nan"), "d_p nan is not a finite number"),
        (2, "0.5", "d_p '0.5' is not a finite number"),
    ], ids=["list-context-id", "nan-d_p", "string-d_p"])
    def test_ledger_entry_of_wrong_type_exits_two(self, bundle_dir, ledger_dir, tmp_path,
                                                  capsys, command, field, value, message):
        payload = json.loads((ledger_dir / "ledger.json").read_text())
        payload["positives"][0][field] = value
        ledger = tmp_path / "ledger.json"
        ledger.write_text(json.dumps(payload))
        out = tmp_path / "o"
        assert run_cli(command, "--bundle", bundle_dir, "--ledger", ledger,
                       "--out", out, "--steps", 10, "--batch-size", 8) == 2
        assert capsys.readouterr().err == f"error: {ledger}: malformed ledger: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("text", ["[1, 2]", '{"version": 1, "positives": 5}',
                                      "not json"],
                             ids=["list", "integer-positives", "invalid-json"])
    def test_ledger_of_wrong_types_exits_two(self, bundle_dir, tmp_path, capsys, text):
        ledger = tmp_path / "ledger.json"
        ledger.write_text(text)
        assert run_cli("train", "--bundle", bundle_dir, "--ledger", ledger,
                       "--out", tmp_path / "o", "--steps", 10, "--batch-size", 8) == 2
        assert f"error: {ledger}: malformed ledger" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value, message", [
        pytest.param(command, flag, value, message,
                     id=command if flag == "--batch-size" else f"{command}{flag}")
        for command in ("train", "ablate")
        for flag, value, message in [
            ("--batch-size", 0, "batch_size must be >= 1"),
            ("--checkpoint-interval", -1, "checkpoint_interval must be >= 0"),
            ("--d-emb", 0, "d_emb must be >= 1"),
            ("--hidden", -2, "hidden must be >= 1"),
        ]
    ])
    def test_batch_size_below_one_exits_two(self, bundle_dir, ledger_dir, tmp_path,
                                            capsys, command, flag, value, message):
        """And every other out-of-range TrainConfig value."""
        out = tmp_path / "o"
        assert run_cli(command, "--bundle", bundle_dir, "--ledger",
                       ledger_dir / "ledger.json", "--out", out, flag, value) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, differ", [
        (("--d-emb", 16), "d_emb 32 (this run 16)"),
        (("--hidden", 8), "hidden 32 (this run 8)"),
        (("--tau", 2.0), "tau 1.0 (this run 2.0)"),
        (("--lr", 0.5), "learning_rate 0.05 (this run 0.5)"),
        (("--mode", "none"), "mode 'dual' (this run 'none')"),
        (("--steps", 30), "T 10 (this run 30)"),
        (("--seed", 9, "--m", 1), "m 2 (this run 1), seed 0 (this run 9)"),
        (("--checkpoint-interval", 0), "checkpoint_interval 5 (this run 0)"),
    ], ids=["d-emb", "hidden", "tau", "lr", "mode", "steps", "seed-and-m",
            "checkpoint-interval"])
    def test_resume_refuses_another_configuration(self, bundle_dir, ledger_dir,
                                                  tmp_path, capsys, flag, differ):
        """Every field that differs is named, and nothing is written."""
        common = ("train", "--bundle", bundle_dir, "--ledger", ledger_dir / "ledger.json",
                  "--steps", 10, "--batch-size", 8, "--checkpoint-interval", 5)
        assert run_cli(*common, "--out", tmp_path / "full") == 0
        ckpt = tmp_path / "full" / "ckpt_00000005.bin"
        out = tmp_path / "resumed"
        assert run_cli(*common, *flag, "--resume", ckpt, "--out", out) == 2
        assert capsys.readouterr().err == \
            f"error: {ckpt}: checkpoint written under another config: {differ}\n"
        assert not out.exists()
        assert run_cli(*common, "--resume", ckpt, "--out", out) == 0

    def test_resume_refuses_a_checkpoint_without_a_config(self, bundle_dir, ledger_dir,
                                                          tmp_path, capsys):
        common = ("train", "--bundle", bundle_dir, "--ledger", ledger_dir / "ledger.json",
                  "--steps", 10, "--batch-size", 8, "--checkpoint-interval", 5)
        assert run_cli(*common, "--out", tmp_path / "full") == 0
        params, vocab, extra, meta = load_checkpoint(tmp_path / "full" / "ckpt_00000005.bin")
        assert meta.pop("config") == json.loads(
            (tmp_path / "full" / MANIFEST_NAME).read_text())["config"]
        ckpt = tmp_path / "no-config.bin"
        save_checkpoint(ckpt, "ranker", params, vocab, extra_arrays=extra, meta=meta)
        out = tmp_path / "resumed"
        assert run_cli(*common, "--resume", ckpt, "--out", out) == 2
        assert f"error: {ckpt}: not a resumable checkpoint; only periodic ckpt_*.bin " \
            "files that record their run's training config can be resumed\n" \
            == capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name, steps, message", [
        ("checkpoint.bin", 10, "{ckpt}: not a resumable checkpoint; only periodic "
                               "ckpt_*.bin files that record their run's training "
                               "config can be resumed"),
        ("ckpt_00000010.bin", 5, "{ckpt}: checkpoint written under another config: "
                                 "T 10 (this run 5)"),
        ("nope.bin", 10, "checkpoint not found: {ckpt}"),
    ], ids=["final", "past-last-step", "missing"])
    def test_resume_refuses_a_checkpoint_it_cannot_continue(
            self, bundle_dir, ledger_dir, tmp_path, capsys, name, steps, message):
        common = ("train", "--bundle", bundle_dir, "--ledger",
                  ledger_dir / "ledger.json", "--batch-size", 8)
        assert run_cli(*common, "--steps", 10, "--checkpoint-interval", 10,
                       "--out", tmp_path / "full") == 0
        ckpt = tmp_path / "full" / name
        out = tmp_path / "resumed"
        assert run_cli(*common, "--steps", steps, "--resume", ckpt, "--out", out) == 2
        assert f"error: {message.format(ckpt=ckpt)}" in capsys.readouterr().err
        assert not out.exists()


class TestEval:
    def test_outputs_and_metrics(self, bundle_dir, train_dir, tmp_path, capsys):
        out = tmp_path / "eval"
        assert run_cli("eval", "--bundle", bundle_dir,
                       "--checkpoint", train_dir / "checkpoint.bin",
                       "--split", "val", "--out", out) == 0
        assert "MAP:" in capsys.readouterr().out
        for name in ("run.txt", "qrels.txt", "metrics.json"):
            assert (out / name).exists()
        payload = json.loads((out / "metrics.json").read_text())
        assert 0.0 <= payload["metrics"]["MAP"] <= 1.0
        first = (out / "run.txt").read_text().splitlines()[0].split()
        assert len(first) == 6 and first[1] == "Q0"

    def test_missing_checkpoint_exits_two(self, bundle_dir, tmp_path):
        assert run_cli("eval", "--bundle", bundle_dir,
                       "--checkpoint", tmp_path / "nope.bin",
                       "--out", tmp_path / "o") == 2

    @pytest.mark.parametrize("seed", [7, 8], ids=["own-bundle", "foreign-bundle"])
    def test_reports_unknown_context_tokens(self, bundle_dir, train_dir, tmp_path, capsys,
                                            seed):
        """The share of test context tokens outside the checkpoint's vocabulary:
        0 on the run's own bundle; above 0 on one drawn with another seed,
        which eval warns about on stderr and still exits 0."""
        bundle = bundle_dir
        if seed != 7:
            bundle = tmp_path / "bundle"
            assert run_cli(*SYNTH_ARGS[:-1], seed, "--out", bundle) == 0
        ckpt = train_dir / "checkpoint.bin"
        capsys.readouterr()
        assert run_cli("eval", "--bundle", bundle, "--checkpoint", ckpt,
                       "--out", tmp_path / "eval") == 0
        out, err = capsys.readouterr()
        sessions, documents, _ = load_bundle(bundle, contexts=False)
        vocab = load_ranker(ckpt)[1]
        tokens = [t for _, context, _, _ in build_eval_items(in_split(sessions, "test"),
                                                             documents) for t in context]
        unknown = sum(t not in vocab.index for t in tokens)
        assert f"unknown context tokens: {unknown / len(tokens):.4f}\n" in out
        assert (unknown > 0) == (seed != 7)
        assert ("warning:" in err) == (seed != 7)
        if unknown:
            assert f"warning: {unknown} of {len(tokens)} context tokens" in err

    def test_files_equal_the_entries_and_qrels_path(self, tmp_path):
        """Three test-split sessions of 12 queries, so "s:10" sorts before
        "s:2"; one slate has every candidate clicked, one none, and
        documents that share a title tie: equal scores, ranked by doc id."""
        rng = np.random.default_rng(3)
        titles = {f"d{j:02d}": " ".join(rng.choice(["w0", "w1", "w2", "w3", "w4"], 2))
                  for j in range(16)}
        titles["d15"] = titles["d14"]
        session_ids = [sid for sid in (f"u{i}" for i in range(100))
                       if split_of(sid) == "test"][:3]
        lines = []
        for sid in session_ids:
            for position in range(1, 13):
                docs = rng.choice(sorted(titles), 6, replace=False).tolist()
                if position == 4:
                    docs = ["d14", "d15", *rng.choice(sorted(titles)[:14], 4, replace=False)]
                n_clicks = {(session_ids[0], 7): 6, (session_ids[1], 5): 0}.get(
                    (sid, position), int(rng.integers(1, 4)))
                lines.append(json.dumps({
                    "session_id": sid, "query_position": position,
                    "query_text": f"w{position % 5} w{(position + 2) % 5}",
                    "candidates": [{"doc_id": d, "title": titles[d], "rank": r,
                                    "clicked": r <= n_clicks}
                                   for r, d in enumerate(docs, start=1)]}))
        (tmp_path / "log.jsonl").write_text("\n".join(lines) + "\n")
        bundle = tmp_path / "bundle"
        assert run_cli("ingest", "--log", tmp_path / "log.jsonl", "--out", bundle) == 0
        sessions, documents, contexts = load_bundle(bundle)
        vocab = build_vocab(documents, contexts)
        ckpt = tmp_path / "ranker.bin"
        save_ranker(ckpt, init_ranker(len(vocab), 8, 8, rng), vocab)
        out = tmp_path / "eval"
        assert run_cli("eval", "--bundle", bundle, "--checkpoint", ckpt, "--out", out) == 0

        params, vocab = load_ranker(ckpt)
        items = build_eval_items(in_split(sessions, "test"), documents)
        slates = encode_slates(vocab, items, documents)
        run, qrels, table = entries_eval(params, slates)
        payload = {"metrics": table.metrics, "evaluated_queries": table.evaluated_queries,
                   "skipped_queries": table.skipped_queries}
        assert (out / "run.txt").read_text() == run
        assert (out / "qrels.txt").read_text() == qrels
        assert (out / "metrics.json").read_text() == \
            json.dumps(payload, sort_keys=True, indent=2) + "\n"
        sid = session_ids[0]
        assert qrels.index(f"{sid}:10 ") < qrels.index(f"{sid}:2 ")
        assert [line[-1] for line in qrels.splitlines()
                if line.startswith(f"{sid}:7 ")] == ["1"] * 6
        assert table.evaluated_queries == 35
        ties = 0
        for query_id, ranked, _ in rank_slates(slates, slates.scores(params)):
            by_title: dict[tuple, list] = {}
            for doc_id, score in ranked:
                by_title.setdefault(documents[doc_id].title_tokens, []).append((doc_id, score))
            for tied in (t for t in by_title.values() if len(t) > 1):
                ties += 1
                assert [d for d, _ in tied] == sorted(d for d, _ in tied), query_id
                assert len({score for _, score in tied}) == 1, query_id
        assert ties > 3

    def test_query_ids_number_the_interactions_not_the_log_positions(self, tmp_path):
        """A session logged at query positions 3 and 8 is ranked and judged
        as its first and second query, s:1 and s:2."""
        sid = next(s for s in (f"g{i}" for i in range(100)) if split_of(s) == "test")
        candidates = [{"doc_id": "d0", "title": "w0", "rank": 1, "clicked": True},
                      {"doc_id": "d1", "title": "w1", "rank": 2, "clicked": False}]
        (tmp_path / "log.jsonl").write_text("".join(
            json.dumps({"session_id": sid, "query_position": position,
                        "query_text": "w0 w1", "candidates": candidates}) + "\n"
            for position in (8, 3)))
        bundle = tmp_path / "bundle"
        assert run_cli("ingest", "--log", tmp_path / "log.jsonl", "--out", bundle) == 0
        _, documents, contexts = load_bundle(bundle)
        vocab = build_vocab(documents, contexts)
        ckpt = tmp_path / "ranker.bin"
        save_ranker(ckpt, init_ranker(len(vocab), 4, 4, np.random.default_rng(0)), vocab)
        out = tmp_path / "eval"
        assert run_cli("eval", "--bundle", bundle, "--checkpoint", ckpt, "--out", out) == 0
        for name in ("run.txt", "qrels.txt"):
            query_ids = [line.split()[0] for line in (out / name).read_text().splitlines()]
            assert query_ids == [f"{sid}:1"] * 2 + [f"{sid}:2"] * 2


class TestAblate:
    def test_modes_and_grid(self, bundle_dir, ledger_dir, tmp_path):
        out = tmp_path / "ablate"
        assert run_cli(
            "ablate", "--bundle", bundle_dir,
            "--ledger", ledger_dir / "ledger.json", "--out", out,
            "--steps", 5, "--batch-size", 8, "--grid-deltas", "0.3,1.0", "--grid-etas", "0.7",
        ) == 0
        payload = json.loads((out / "ablation.json").read_text())
        assert [r["mode"] for r in payload["modes"]] == [
            "dual", "pos-only", "neg-only", "none",
            "easy-neg-only", "hard-neg-only",
        ]
        assert len(payload["grid"]) == 2
        assert all("MAP" in r for r in payload["modes"] + payload["grid"])

    def test_checks_exactly_the_runs_it_trains(self, bundle_dir, ledger_dir, tmp_path,
                                               monkeypatch, capsys):
        checked, trained = [], []
        check_prefixes, train_and_evaluate = cli.check_prefixes, cli.train_and_evaluate

        def spy_check(config, columns):
            checked.append(config)
            return check_prefixes(config, columns)

        def spy_train(config, data, slates, **row):
            trained.append((config, dict(row)))
            return train_and_evaluate(config, data, slates, **row)

        monkeypatch.setattr(cli, "check_prefixes", spy_check)
        monkeypatch.setattr(cli, "train_and_evaluate", spy_train)
        out = tmp_path / "ablate"
        assert run_cli(
            "ablate", "--bundle", bundle_dir, "--ledger", ledger_dir / "ledger.json",
            "--out", out, "--steps", 5, "--batch-size", 8,
            "--grid-deltas", "0.3,1.0", "--grid-etas", "0.5,0.7",
        ) == 0
        assert checked == [config for config, _ in trained]
        assert len(trained) == len(MODES) + 4
        modes, grid = trained[:len(MODES)], trained[len(MODES):]
        base = modes[0][0]
        assert modes == [(replace(base, mode=mode), {"mode": mode}) for mode in MODES]
        assert grid == [(replace(base, pacing=replace(base.pacing, delta=d, eta=e)),
                         {"delta": d, "eta": e})
                        for d in (0.3, 1.0) for e in (0.5, 0.7)]
        payload = json.loads((out / "ablation.json").read_text())
        assert [r["mode"] for r in payload["modes"]] == list(MODES)
        assert [(r["delta"], r["eta"]) for r in payload["grid"]] == \
            [(row["delta"], row["eta"]) for _, row in grid]
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == \
            [f"mode {mode:>14s}" for mode in MODES] + \
            [f"delta={d:.2f} eta={e:.2f}" for d in (0.3, 1.0) for e in (0.5, 0.7)]

    def test_small_grid_delta_fails_before_the_first_run(self, tmp_path, capsys):
        # 129 training positives: delta 0.1 admits 13 at step 0, fewer than
        # the default batch of 32, while the modes' delta 0.3 admits 39.
        assert run_cli("synth", "--sessions", 60, "--seed", 7, "--out", tmp_path / "b") == 0
        assert run_cli("score", "--bundle", tmp_path / "b", "--out", tmp_path / "l") == 0
        capsys.readouterr()
        out = tmp_path / "ablate"
        assert run_cli("ablate", "--bundle", tmp_path / "b",
                       "--ledger", tmp_path / "l" / "ledger.json",
                       "--steps", 5, "--out", out) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no run started
        assert "error: delta=0.1: batch_size 32 exceeds the 13 eligible positives " \
            "at step 0" in captured.err
        assert not out.exists() or not any(out.iterdir())

    def test_locked_output_exits_two_before_the_first_run(
        self, bundle_dir, ledger_dir, tmp_path, monkeypatch, capsys
    ):
        runs = []
        monkeypatch.setattr(cli, "train_and_evaluate", lambda *a, **k: runs.append(k))
        out = tmp_path / "ablate"
        out.mkdir()
        (out / LOCK_NAME).write_text("4242\n")
        assert run_cli("ablate", "--bundle", bundle_dir,
                       "--ledger", ledger_dir / "ledger.json", "--out", out,
                       "--steps", 5, "--batch-size", 8) == 2
        captured = capsys.readouterr()
        assert "is locked by another command (pid 4242)" in captured.err
        assert runs == [] and captured.out == ""
        assert sorted(p.name for p in out.iterdir()) == [LOCK_NAME]


@pytest.fixture(scope="module")
def desk_dirs(tmp_path_factory):
    """The acceptance corpus (criterion 7) and its BM25 ledger."""
    fixture = json.loads(
        (Path(__file__).parent / "fixtures" / "acceptance_corpus.json").read_text())
    root = tmp_path_factory.mktemp("desk")
    assert run_cli(
        "synth", "--sessions", fixture["n_sessions"],
        "--vocab-size", fixture["vocab_size"], "--topics", fixture["n_topics"],
        "--queries", fixture["queries_per_session"],
        "--candidates", fixture["candidates_per_query"],
        "--noise", fixture["noise_rate"], "--seed", fixture["seed"],
        "--out", root / "bundle",
    ) == 0
    assert run_cli("score", "--bundle", root / "bundle", "--out", root / "ledger") == 0
    return root / "bundle", root / "ledger" / "ledger.json"


class TestNegativePrefixCheck:
    """m=2 with eta=0.3 leaves a 3-negative pool one eligible negative;
    the run used to stop there hundreds of steps in."""

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_fails_before_first_step(self, desk_dirs, tmp_path, capsys, command):
        bundle, ledger = desk_dirs
        out = tmp_path / command
        assert run_cli(command, "--bundle", bundle, "--ledger", ledger,
                       "--epochs", 4, "--m", 2, "--eta", 0.3, "--out", out) == 2
        err = capsys.readouterr().err
        assert "error: context s" in err
        assert "eligible negative prefix (1) smaller than m=2" in err
        assert "at step" not in err
        assert not out.exists() or not any(out.iterdir())


def test_python_m_currank_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-m", "currank", "--version"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


class TestConfigFile:
    def test_config_sets_defaults_and_flags_win(
        self, bundle_dir, ledger_dir, tmp_path
    ):
        config = tmp_path / "conf.yaml"
        config.write_text("steps: 3\nseed: 9\nbatch-size: 8\n")
        out = tmp_path / "from-config"
        assert run_cli("train", "--config", config, "--bundle", bundle_dir,
                       "--ledger", ledger_dir / "ledger.json",
                       "--out", out) == 0
        steps = [json.loads(l) for l in
                 (out / "trainlog.jsonl").read_text().splitlines()
                 if "validation" not in l]
        assert len(steps) == 3
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        assert manifest["master_seed"] == 9

        out2 = tmp_path / "flag-wins"
        assert run_cli("train", "--config", config, "--bundle", bundle_dir,
                       "--ledger", ledger_dir / "ledger.json",
                       "--out", out2, "--steps", 5) == 0
        steps2 = [json.loads(l) for l in
                  (out2 / "trainlog.jsonl").read_text().splitlines()
                  if "validation" not in l]
        assert len(steps2) == 5

    def test_key_of_another_command_is_allowed(self, bundle_dir, ledger_dir, tmp_path):
        config = tmp_path / "conf.yaml"
        config.write_text("steps: 3\nbatch-size: 8\nfit-epochs: 2\nsessions: 9\n")
        out = tmp_path / "o"
        assert run_cli("train", "--config", config, "--bundle", bundle_dir,
                       "--ledger", ledger_dir / "ledger.json", "--out", out) == 0
        assert json.loads((out / MANIFEST_NAME).read_text())["config"]["batch_size"] == 8

    @pytest.mark.parametrize("text, keys", [
        ("lerning_rate: 0.5\nsteps: 3\n", "lerning_rate"),
        ("optimizer: sgd\nsteps: 3\n", "optimizer"),
        ("steps: 3\nzeta: 1\nbatch-sise: 8\n", "batch-sise, zeta"),
    ], ids=["typo", "removed-optimizer", "two-keys"])
    def test_key_no_command_takes_exits_two(self, bundle_dir, ledger_dir, tmp_path,
                                            capsys, text, keys):
        config = tmp_path / "conf.yaml"
        config.write_text(text)
        out = tmp_path / "o"
        assert run_cli("train", "--config", config, "--bundle", bundle_dir,
                       "--ledger", ledger_dir / "ledger.json", "--out", out) == 2
        assert f"error: config file {config}: no command takes {keys}\n" \
            == capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_exits_two(self, bundle_dir, tmp_path, capsys):
        assert run_cli("train", "--config", tmp_path / "nope.yaml",
                       "--bundle", bundle_dir, "--ledger", tmp_path / "l",
                       "--out", tmp_path / "o") == 2
        assert "config file not found" in capsys.readouterr().err

    def test_malformed_yaml_exits_two(self, bundle_dir, tmp_path, capsys):
        config = tmp_path / "conf.yaml"
        config.write_text("a: [1, 2\n")
        assert run_cli("train", "--config", config, "--bundle", bundle_dir,
                       "--ledger", tmp_path / "l", "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert f"error: config file {config} is not valid YAML" in err
        assert "internal error" not in err


class TestGarbageCollector:
    """Commands run with the cyclic collector off; main() hands the
    caller's setting back however the command ends."""

    @pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
    def gc_before(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("exit_code", [0, 1, 2])
    def test_caller_setting_is_restored(self, gc_before, tmp_path, monkeypatch,
                                        exit_code):
        during, build_contexts = [], cli.build_contexts

        def spy(*args, **kwargs):
            during.append(gc.isenabled())
            if exit_code == 1:
                raise RuntimeError("injected failure")
            return build_contexts(*args, **kwargs)

        monkeypatch.setattr(cli, "build_contexts", spy)
        if exit_code == 2:
            argv = ("ingest", "--log", tmp_path / "missing.jsonl", "--out", tmp_path / "o")
        else:
            argv = (*SYNTH_ARGS, "--out", tmp_path / "o")
        assert run_cli(*argv) == exit_code
        assert gc.isenabled() is gc_before
        assert during == ([] if exit_code == 2 else [False])


class TestBundleReads:
    @pytest.mark.parametrize("command,unused", [
        ("score", "read_sessions"),
        ("eval", "read_contexts"),
    ])
    def test_command_skips_the_file_it_does_not_use(
        self, bundle_dir, train_dir, tmp_path, monkeypatch, command, unused
    ):
        calls = []
        monkeypatch.setattr(cli, unused, calls.append)
        flags = ("--checkpoint", train_dir / "checkpoint.bin") if command == "eval" else ()
        out = tmp_path / command
        assert run_cli(command, "--bundle", bundle_dir, *flags, "--out", out) == 0
        assert calls == []
        # the manifest still digests every bundle file
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        for name in cli.BUNDLE_FILES:
            path = bundle_dir / name
            assert manifest["input_digests"][str(path)] == file_digest(path)


# bundle file -> (the key a malformed record drops, the commands that read the file)
BUNDLE_READERS = {
    "documents.jsonl": ("title_tokens", ("score", "train", "eval", "ablate")),
    "sessions.jsonl": ("interactions", ("train", "eval", "ablate")),
    "contexts.jsonl": ("negative_pool", ("score", "train", "ablate")),
}


class TestMalformedBundle:
    """A bundle record its reader cannot take is an input error naming the
    file, under every command that reads the file, before --out exists."""

    @pytest.mark.parametrize("name, command", [
        (name, command) for name, (_, commands) in BUNDLE_READERS.items()
        for command in commands])
    @pytest.mark.parametrize("case", ["missing-key", "wrong-type", "invalid-json"])
    def test_exits_two_naming_the_file(self, bundle_dir, ledger_dir, train_dir, tmp_path,
                                       capsys, name, command, case):
        bundle = tmp_path / "bundle"
        shutil.copytree(bundle_dir, bundle)
        path, key = bundle / name, BUNDLE_READERS[name][0]
        lines = path.read_text().splitlines()
        record = json.loads(lines[0])
        if case == "missing-key":
            del record[key]
        else:
            record[key] = 5
        lines[0] = "{not json" if case == "invalid-json" else json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        flags = {
            "score": (),
            "eval": ("--checkpoint", train_dir / "checkpoint.bin"),
        }.get(command, ("--ledger", ledger_dir / "ledger.json", "--steps", 10,
                        "--batch-size", 8))
        out = tmp_path / "o"
        assert run_cli(command, "--bundle", bundle, *flags, "--out", out) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: malformed record: ")
        if case == "missing-key":
            assert captured.err == f"error: {path}: malformed record: no '{key}' entry\n"
        assert captured.out == ""
        assert not out.exists()


class TestAtomicWrites:
    @pytest.fixture
    def writers(self, ledger_dir, train_dir):
        ledger = load_ledger(ledger_dir / "ledger.json")
        manifest = RunManifest("score", {"k1": 1.2}, 0, {}, {})
        params, vocab, _, meta = load_checkpoint(train_dir / "checkpoint.bin")
        return {
            "ledger.json": lambda out: save_ledger(ledger, out / "ledger.json"),
            MANIFEST_NAME: lambda out: write_manifest(out, manifest),
            "checkpoint.bin": lambda out: save_checkpoint(
                out / "checkpoint.bin", "ranker", params, vocab, meta=meta),
        }

    @pytest.mark.parametrize("name", ["ledger.json", MANIFEST_NAME, "checkpoint.bin"])
    @pytest.mark.parametrize("existing", [False, True], ids=["new", "replace"])
    def test_failed_write_leaves_no_partial_file(self, writers, tmp_path, monkeypatch,
                                                 name, existing):
        out = tmp_path / "out"
        out.mkdir()
        if existing:
            (out / name).write_text("old\n")

        def write_half_then_fail(path, data, *args, **kwargs):
            with open(path, "wb") as fp:
                fp.write(data[: len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(Path, "write_bytes", write_half_then_fail)
        with pytest.raises(OSError):
            writers[name](out)
        monkeypatch.undo()
        assert [p.name for p in out.iterdir()] == ([name] if existing else [])
        if existing:
            assert (out / name).read_text() == "old\n"
        writers[name](out)
        assert [p.name for p in out.iterdir()] == [name]
        assert (out / name).read_bytes() != b"old\n"


class TestSplit:
    def test_split_is_deterministic_and_partitions(self):
        ids = [f"s{i:04d}" for i in range(1000)]
        splits = [split_of(i) for i in ids]
        assert splits == [split_of(i) for i in ids]
        counts = {s: splits.count(s) for s in ("train", "val", "test")}
        assert sum(counts.values()) == 1000
        assert counts["train"] > counts["val"] > 0
        assert counts["test"] > 0
