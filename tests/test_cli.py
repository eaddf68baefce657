import argparse
import contextlib
import errno
import gc
import io
import json
import math
import multiprocessing
import os
import pickle
import re
import shutil
import signal
import subprocess
import sys
import struct
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from currank import cli, trainer
from currank.checkpoint import MAGIC, file_digest, load_checkpoint, save_checkpoint
from currank.cli import (
    LOCK_NAME, MANIFEST_NAME, build_parser, build_vocab, command_output, load_bundle,
    main, split_of,
)
from currank.curriculum import load_ledger, save_ledger
from currank.ranker import RankerParams
from currank.sessions import build_eval_items
from currank.towers import init_params, token_rows
from currank.trainer import MODES, encode_slates, load_ranker, rank_slates, save_ranker

from oracles import entries_eval, in_split, ledger_from_entries, object_load_ledger


def run_cli(*argv):
    return main([str(a) for a in argv])


def append_record(path, record):
    """Append `record` to `path` in one write, so that spies in forked
    workers and in the test process can share one file."""
    with open(path, "ab") as fp:
        fp.write(pickle.dumps(record))


class Hung(BaseException):
    """Raised by `deadline`; not an Exception, so `main` cannot turn it into an exit code."""


@contextlib.contextmanager
def deadline(seconds):
    """Fail the block with `Hung` if it has not returned after `seconds`."""
    def alarm(signum, frame):
        raise Hung(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def read_records(path) -> list:
    """The records appended to `path`, in order; none if it does not exist."""
    records = []
    with contextlib.suppress(FileNotFoundError), open(path, "rb") as fp:
        with contextlib.suppress(EOFError):
            while True:
                records.append(pickle.load(fp))
    return records


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

    def test_failed_separability_audit_is_an_internal_error(self, tmp_path, monkeypatch,
                                                            capsys):
        generate = cli.synth.generate_synthetic

        def one_click_off_topic(spec):
            sessions, documents, labels = generate(spec)
            first, *rest = sessions[0].interactions
            off = next(d for d in first.candidate_doc_ids if d not in first.clicked_doc_ids)
            sessions[0] = replace(sessions[0], interactions=(
                replace(first, clicked_doc_ids=frozenset({off})), *rest))
            return sessions, documents, labels

        monkeypatch.setattr(cli.synth, "generate_synthetic", one_click_off_topic)
        assert run_cli(*SYNTH_ARGS, "--out", tmp_path / "o") == 1
        out, err = capsys.readouterr()
        assert "on-topic click fraction: 0.9917\n" in out  # 119 of 120 clicks
        assert err == "internal error: separability audit failed with noise 0\n"
        assert not (tmp_path / "o").exists()  # audited before anything is written

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

    def test_colliding_context_ids_exit_two_naming_both(self, tmp_path, capsys):
        """A context id joins session id, position and doc id with ':', which
        ids may hold: session a (query 1 clicks doc 2:x) and session a:1
        (query 2 clicks doc x) would both give a:1:2:x."""
        log = tmp_path / "log.jsonl"
        log.write_text("".join(json.dumps({
            "session_id": sid, "query_position": position, "query_text": "q",
            "candidates": [{"doc_id": doc, "title": "t", "rank": 1, "clicked": True},
                           {"doc_id": "n", "title": "u", "rank": 2, "clicked": False}],
        }) + "\n" for sid, position, doc in [("a", 1, "2:x"), ("a:1", 1, "y"), ("a:1", 2, "x")]))
        assert run_cli("ingest", "--log", log, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == (
            f"error: {log}: context id 'a:1:2:x' is shared by (session, position, doc) "
            "('a', 1, '2:x') and ('a:1', 2, 'x')\n")
        assert not (tmp_path / "o").exists()

    def test_log_that_is_not_utf8_exits_two_naming_the_log(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b'{"session_id": "s\xff"}\n')
        assert run_cli("ingest", "--log", bad, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: 'utf-8' codec can't decode")
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
        _, documents, contexts, tokens = load_bundle(bundle_dir)
        train = in_split(contexts, "train")
        assert len(train) < len(contexts)
        assert encoded == [[(c.context_id, c.context_tokens) for c in train]]
        if source == "checkpoint":
            assert fit_rows == []
            return
        # the fit pairs each training context with its positive's title
        vocab = build_vocab(documents, tokens)
        (ctx_rows, doc_rows), = fit_rows
        for got, sequences in [
            (ctx_rows, [c.context_tokens for c in train]),
            (doc_rows, [documents[c.positive_doc_id] for c in train]),
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
        _, _, contexts, _ = load_bundle(bundle_dir)
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

    @pytest.mark.parametrize("negatives", [[5], [True]], ids=["five", "true"])
    def test_ledger_whose_negatives_are_a_list_exits_two(self, bundle_dir, ledger_dir,
                                                         tmp_path, capsys, negatives):
        """list.pop(5) raised IndexError, which was reported as an internal error."""
        payload = json.loads((ledger_dir / "ledger.json").read_text())
        payload["negatives"] = negatives
        ledger = tmp_path / "ledger.json"
        ledger.write_text(json.dumps(payload))
        out = tmp_path / "o"
        assert run_cli("train", "--bundle", bundle_dir, "--ledger", ledger,
                       "--out", out, "--steps", 10, "--batch-size", 8) == 2
        assert f"error: {ledger}: malformed ledger" in capsys.readouterr().err
        assert not out.exists()

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
        if (command, flag) != ("ablate", "--checkpoint-interval")  # a train flag alone
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
        sessions, documents, _, _ = load_bundle(bundle, contexts=False)
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
        sessions, documents, _, tokens = load_bundle(bundle)
        vocab = build_vocab(documents, tokens)
        ckpt = tmp_path / "ranker.bin"
        save_ranker(ckpt, RankerParams(init_params(len(vocab), 8, 8, rng)), vocab)
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
                by_title.setdefault(documents[doc_id], []).append((doc_id, score))
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
        _, documents, _, tokens = load_bundle(bundle)
        vocab = build_vocab(documents, tokens)
        ckpt = tmp_path / "ranker.bin"
        params = RankerParams(init_params(len(vocab), 4, 4, np.random.default_rng(0)))
        save_ranker(ckpt, params, vocab)
        out = tmp_path / "eval"
        assert run_cli("eval", "--bundle", bundle, "--checkpoint", ckpt, "--out", out) == 0
        for name in ("run.txt", "qrels.txt"):
            query_ids = [line.split()[0] for line in (out / name).read_text().splitlines()]
            assert query_ids == [f"{sid}:1"] * 2 + [f"{sid}:2"] * 2


class TestAblate:
    @pytest.fixture(autouse=True)
    def no_cpu_quota(self, tmp_path, monkeypatch):
        """A CPU quota of the machine running the tests caps no pool here."""
        monkeypatch.setattr(cli, "CGROUP_CPU_MAX", tmp_path / "no-cpu.max")

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

    def test_modes_equal_their_sentinel_grid_points(self, bundle_dir, ledger_dir, tmp_path):
        """A mode switches a curriculum off as delta = 1.0 or eta = 1.0 does."""
        out = tmp_path / "ablate"
        assert run_cli(
            "ablate", "--bundle", bundle_dir, "--ledger", ledger_dir / "ledger.json",
            "--out", out, "--steps", 20, "--batch-size", 8,
            "--grid-deltas", "0.3,1.0", "--grid-etas", "0.7,1.0",
        ) == 0
        payload = json.loads((out / "ablation.json").read_text())
        modes = {row.pop("mode"): row for row in payload["modes"]}
        grid = {(row.pop("delta"), row.pop("eta")): row for row in payload["grid"]}
        pairs = [("dual", (0.3, 0.7)), ("pos-only", (0.3, 1.0)),
                 ("neg-only", (1.0, 0.7)), ("none", (1.0, 1.0))]
        assert len({tuple(modes[mode].values()) for mode, _ in pairs}) == 4  # runs differ
        for mode, point in pairs:
            assert modes[mode] == grid[point], mode

    def test_checks_exactly_the_runs_it_trains(self, bundle_dir, ledger_dir, tmp_path,
                                               monkeypatch, capsys):
        # The runs train in forked workers, so the spies record into files.
        # One worker trains the runs in run order.
        checked_log, trained_log = tmp_path / "checked.pkl", tmp_path / "trained.pkl"
        check_prefixes, train_and_evaluate = cli.check_prefixes, cli.train_and_evaluate

        def spy_check(config, columns):
            append_record(checked_log, config)
            return check_prefixes(config, columns)

        def spy_train(config, data, slates, **row):
            append_record(trained_log, (config, dict(row), os.getpid()))
            return train_and_evaluate(config, data, slates, **row)

        monkeypatch.setattr(cli, "check_prefixes", spy_check)
        monkeypatch.setattr(cli, "train_and_evaluate", spy_train)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0})
        out = tmp_path / "ablate"
        assert run_cli(
            "ablate", "--bundle", bundle_dir, "--ledger", ledger_dir / "ledger.json",
            "--out", out, "--steps", 5, "--batch-size", 8,
            "--grid-deltas", "0.3,1.0", "--grid-etas", "0.5,0.7",
        ) == 0
        checked, trained = read_records(checked_log), read_records(trained_log)
        assert len({pid for *_, pid in trained} - {os.getpid()}) == 1
        trained = [(config, row) for config, row, _ in trained]
        base = checked[0]
        modes = [(replace(base, mode=mode), {"mode": mode}) for mode in MODES]
        grid = [(replace(base, pacing=replace(base.pacing, delta=d, eta=e)),
                 {"delta": d, "eta": e})
                for d in (0.3, 1.0) for e in (0.5, 0.7)]
        assert checked == [config for config, _ in modes + grid]
        # (0.3, 0.7) is the dual run and (1.0, 0.7) the neg-only run: each trains once.
        assert trained == modes + [grid[0], grid[2]]
        payload = json.loads((out / "ablation.json").read_text())
        assert [r["mode"] for r in payload["modes"]] == list(MODES)
        assert [(r["delta"], r["eta"]) for r in payload["grid"]] == \
            [(row["delta"], row["eta"]) for _, row in grid]
        dual, point = payload["modes"][0], payload["grid"][1]  # its row has the dual run's metrics
        assert {**dual, "delta": 0.3, "eta": 0.7} == {**point, "mode": "dual"}
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == \
            [f"mode {mode:>14s}" for mode in MODES] + \
            [f"delta={d:.2f} eta={e:.2f}" for d in (0.3, 1.0) for e in (0.5, 0.7)]

    def test_output_is_the_same_for_any_number_of_workers(
        self, bundle_dir, ledger_dir, tmp_path, monkeypatch, capsys
    ):
        started_log = tmp_path / "started.pkl"
        init = cli._init_ablation_worker

        def spy_init(data, slates):
            append_record(started_log, os.getpid())
            return init(data, slates)

        monkeypatch.setattr(cli, "_init_ablation_worker", spy_init)
        outputs = []
        for cpus in (1, 3, 4):  # the 8 runs on one worker, or spread over 3 or 4
            monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(cpus)))
            started_log.unlink(missing_ok=True)
            out = tmp_path / f"ablate-{cpus}"
            assert run_cli(
                "ablate", "--bundle", bundle_dir, "--ledger", ledger_dir / "ledger.json",
                "--out", out, "--steps", 5, "--batch-size", 8,
                "--grid-deltas", "0.3,1.0", "--grid-etas", "0.7",
            ) == 0
            assert multiprocessing.active_children() == []
            workers = read_records(started_log)
            assert len(set(workers)) == len(workers) == cpus
            assert os.getpid() not in workers
            outputs.append(((out / "ablation.json").read_bytes(), capsys.readouterr().out))
        assert outputs[0][1].count("\n") == len(MODES) + 2
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_a_failed_run_exits_one_and_leaves_no_output(
        self, bundle_dir, ledger_dir, tmp_path, monkeypatch, capsys, cpus
    ):
        train = trainer.train

        def train_unless_mode_none(config, data, *args, **kwargs):
            if config.mode == "none":
                raise ValueError("no such run")
            return train(config, data, *args, **kwargs)

        monkeypatch.setattr(trainer, "train", train_unless_mode_none)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        out = tmp_path / "ablate"
        assert run_cli(
            "ablate", "--bundle", bundle_dir, "--ledger", ledger_dir / "ledger.json",
            "--out", out, "--steps", 5, "--batch-size", 8,
            "--grid-deltas", "0.3,1.0", "--grid-etas", "0.7",
        ) == 1
        assert "internal error: training run {'mode': 'none'} failed: no such run" in \
            capsys.readouterr().err
        assert not out.exists()  # no lock, no manifest, no ablation.json
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("maps", [
        "7f00-7f10 r-xp 00000000 08:01 42 /home/u/My Projects/venv/libscipy_openblas64_.so\n",
        None,
    ], ids=["space in path", "no /proc"])
    def test_a_blas_pin_that_fails_does_not_stop_the_runs(
        self, bundle_dir, ledger_dir, tmp_path, monkeypatch, capsys, maps
    ):
        loaded = tmp_path / "loaded.pkl"

        def fake_open(path, *args, **kwargs):
            if path != "/proc/self/maps":
                return open(path, *args, **kwargs)
            if maps is None:
                raise FileNotFoundError(path)
            return io.StringIO(maps)

        def failing_cdll(path):
            append_record(loaded, path)
            raise OSError(f"{path}: cannot open shared object file")

        monkeypatch.setattr(cli, "open", fake_open, raising=False)
        monkeypatch.setattr(cli.ctypes, "CDLL", failing_cdll)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1})
        with deadline(120):
            assert run_cli(
                "ablate", "--bundle", bundle_dir, "--ledger", ledger_dir / "ledger.json",
                "--out", tmp_path / "ablate", "--steps", 5, "--batch-size", 8,
                "--grid-deltas", "0.3", "--grid-etas", "0.7",
            ) == 0
        # The sixth field of a maps line is the whole path, spaces included.
        assert read_records(loaded) == ([] if maps is None else
                                        ["/home/u/My Projects/venv/libscipy_openblas64_.so"] * 2)
        assert capsys.readouterr().out.count("\n") == len(MODES) + 1
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("fault", ["worker setup raises", "worker killed"])
    def test_a_lost_worker_exits_one_and_leaves_no_output(
        self, bundle_dir, ledger_dir, tmp_path, monkeypatch, capsys, fault
    ):
        if fault == "worker setup raises":
            def init(data, slates):
                raise RuntimeError("no worker")

            monkeypatch.setattr(cli, "_init_ablation_worker", init)
        else:
            train = trainer.train

            def train_unless_mode_none(config, data, *args, **kwargs):
                if config.mode == "none":
                    os.kill(os.getpid(), signal.SIGKILL)
                return train(config, data, *args, **kwargs)

            monkeypatch.setattr(trainer, "train", train_unless_mode_none)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1})
        out = tmp_path / "ablate"
        with deadline(120):
            assert run_cli(
                "ablate", "--bundle", bundle_dir, "--ledger", ledger_dir / "ledger.json",
                "--out", out, "--steps", 5, "--batch-size", 8,
                "--grid-deltas", "0.3", "--grid-etas", "0.7",
            ) == 1
        assert "internal error: A " in capsys.readouterr().err  # BrokenProcessPool
        assert not out.exists()  # no lock, no manifest, no ablation.json
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpu_max, v1_quota, workers", [
        ("50000 100000\n", None, 1), ("150000 100000\n", None, 2), ("max 100000\n", None, 4),
        (None, None, 4), ("", None, 4),
        (None, "50000\n", 1), (None, "250000\n", 3), (None, "-1\n", 4), (None, "", 4),
        ("max 100000\n", "50000\n", 4),
    ], ids=["half a CPU", "one and a half CPUs", "no quota", "no file", "empty file",
            "v1 half a CPU", "v1 two and a half CPUs", "v1 no quota", "v1 empty quota",
            "v2 before v1"])
    def test_worker_count_honours_a_cgroup_cpu_quota(self, tmp_path, monkeypatch,
                                                      cpu_max, v1_quota, workers):
        cpu_max_file, v1 = tmp_path / "cpu.max", tmp_path / "cpu"
        if cpu_max is not None:
            cpu_max_file.write_text(cpu_max)
        if v1_quota is not None:  # cgroup v1, read only without cpu.max
            v1.mkdir()
            (v1 / "cpu.cfs_quota_us").write_text(v1_quota)
            (v1 / "cpu.cfs_period_us").write_text("100000\n")
        monkeypatch.setattr(cli, "CGROUP_CPU_MAX", cpu_max_file)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        assert cli.usable_cpus() == workers

    def test_a_cpu_quota_caps_the_pool(self, bundle_dir, ledger_dir, tmp_path, monkeypatch):
        started_log, cpu_max_file = tmp_path / "started.pkl", tmp_path / "cpu.max"
        init = cli._init_ablation_worker

        def spy_init(data, slates):
            append_record(started_log, os.getpid())
            return init(data, slates)

        cpu_max_file.write_text("100000 100000\n")
        monkeypatch.setattr(cli, "CGROUP_CPU_MAX", cpu_max_file)
        monkeypatch.setattr(cli, "_init_ablation_worker", spy_init)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        assert run_cli(
            "ablate", "--bundle", bundle_dir, "--ledger", ledger_dir / "ledger.json",
            "--out", tmp_path / "ablate", "--steps", 5, "--batch-size", 8,
            "--grid-deltas", "0.3", "--grid-etas", "0.7",
        ) == 0
        assert len(read_records(started_log)) == 1

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
        runs = tmp_path / "runs.pkl"
        monkeypatch.setattr(cli, "train_and_evaluate",
                            lambda *a, **k: append_record(runs, k))
        out = tmp_path / "ablate"
        out.mkdir()
        (out / LOCK_NAME).write_text("4242\n")
        assert run_cli("ablate", "--bundle", bundle_dir,
                       "--ledger", ledger_dir / "ledger.json", "--out", out,
                       "--steps", 5, "--batch-size", 8) == 2
        captured = capsys.readouterr()
        assert "is locked by another command (pid 4242)" in captured.err
        assert read_records(runs) == [] and captured.out == ""
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
        ("learning_rate: 0.5\nsteps: 3\n", "learning_rate"),
        ("n_sessions: 9\nsteps: 3\n", "n_sessions"),
        ("h: true\nsteps: 3\n", "h"),
    ], ids=["typo", "removed-optimizer", "two-keys", "field-not-flag", "synth-field-not-flag",
            "short-flag"])
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

    def test_config_supplies_synths_required_flags(self, tmp_path):
        """A key for a required flag supplies it; the flag still wins."""
        config = tmp_path / "conf.yaml"
        config.write_text("sessions: 30\nseed: 4\n")
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_cli("synth", "--config", config, "--out", tmp_path / "file") == 0
            assert run_cli("synth", "--sessions", 30, "--seed", 4,
                           "--out", tmp_path / "flags") == 0
            assert run_cli("synth", "--config", config, "--sessions", 20,
                           "--out", tmp_path / "flag-wins") == 0
        by_file, by_flags, flag_wins = (json.loads((tmp_path / name / MANIFEST_NAME).read_text())
                                        for name in ("file", "flags", "flag-wins"))
        assert by_file["master_seed"] == 4
        assert by_file["config"] == by_flags["config"]
        assert by_file["output_digests"] == by_flags["output_digests"]
        assert flag_wins["config"]["n_sessions"] == 20

    def test_config_supplies_trains_required_flags(self, bundle_dir, ledger_dir, tmp_path):
        config, out = tmp_path / "conf.yaml", tmp_path / "file"
        config.write_text(yaml.safe_dump({
            "bundle": str(bundle_dir), "ledger": str(ledger_dir / "ledger.json"),
            "out": str(out), "steps": 3, "batch-size": 8}))
        assert run_cli("train", "--config", config) == 0
        assert run_cli("train", "--config", config, "--out", tmp_path / "flag-wins") == 0
        by_file, flag_wins = (json.loads((tmp_path / name / MANIFEST_NAME).read_text())
                              for name in ("file", "flag-wins"))
        assert by_file["input_digests"] == flag_wins["input_digests"]
        assert by_file["output_digests"] == flag_wins["output_digests"]

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

    @pytest.mark.parametrize("command, text, key, shown", [
        ("train", "steps: [1]\n", "steps", "[1]"),
        ("train", "seed: 1.5\n", "seed", "1.5"),
        ("train", "epochs: true\n", "epochs", "True"),
        ("eval", "split: nope\n", "split", "'nope'"),
        ("score", "scorer: foo\n", "scorer", "'foo'"),
        ("score", "fit: 1\n", "fit", "1"),
    ], ids=["list-steps", "fractional-seed", "boolean-epochs", "unknown-split",
            "unknown-scorer", "integer-fit"])
    def test_value_its_flag_would_refuse_exits_two(self, bundle_dir, ledger_dir, train_dir,
                                                   tmp_path, capsys, command, text, key,
                                                   shown):
        """Each value goes through its flag's type and choices; a switch
        takes only true or false."""
        config = tmp_path / "conf.yaml"
        config.write_text(text)
        flags = {"train": ("--ledger", ledger_dir / "ledger.json"),
                 "eval": ("--checkpoint", train_dir / "checkpoint.bin"), "score": ()}[command]
        out = tmp_path / "o"
        assert run_cli(command, "--config", config, "--bundle", bundle_dir, *flags,
                       "--out", out) == 2
        assert capsys.readouterr().err == \
            f"error: config file {config}: {key}: invalid value {shown}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, text, flags, float_field", [
        ("train", "lr: 1\nsteps: '3'\nbatch-size: 8\nmode: none\n",
         ("--lr", 1, "--steps", 3, "--batch-size", 8, "--mode", "none"), "learning_rate"),
        # --sessions 30 on both runs: the flag wins over the file's 99
        ("synth", "sessions: 99\ntopics: 5\nqueries: 2\nnoise: 0\n",
         ("--topics", 5, "--queries", 2, "--noise", 0), "noise_rate"),
    ], ids=["train", "synth"])
    def test_values_parse_as_their_flags_do(self, bundle_dir, ledger_dir, tmp_path, command,
                                            text, flags, float_field):
        config = tmp_path / "conf.yaml"
        config.write_text(text)
        common = {"synth": ("synth", "--sessions", 30, "--seed", 3),
                  "train": ("train", "--bundle", bundle_dir,
                            "--ledger", ledger_dir / "ledger.json")}[command]
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_cli(*common, "--config", config, "--out", tmp_path / "file") == 0
            assert run_cli(*common, *flags, "--out", tmp_path / "flags") == 0
        by_file, by_flags = (json.loads((tmp_path / name / MANIFEST_NAME).read_text())
                             for name in ("file", "flags"))
        assert by_file["config"] == by_flags["config"]
        assert type(by_file["config"][float_field]) is float
        assert by_file["output_digests"] == by_flags["output_digests"]


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

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("field, value", [
        ("session_id", {}), ("session_id", 5), ("interactions", None), ("interactions", []),
        ("interactions.clicked_doc_ids", ["nosuchdoc"]), ("interactions.query_tokens", [5]),
        ("interactions.candidate_doc_ids", [["d"]]),
    ], ids=lambda v: json.dumps(v))
    def test_malformed_record_outside_the_split_exits_two(
            self, bundle_dir, ledger_dir, train_dir, tmp_path, capsys, command, field, value):
        """train builds the val split's sessions and eval the test split's; a
        train-split record is still checked, before its session id is hashed."""
        bundle = tmp_path / "bundle"
        shutil.copytree(bundle_dir, bundle)
        path = bundle / "sessions.jsonl"
        lines = path.read_text().splitlines()
        i = next(i for i, line in enumerate(lines)
                 if split_of(json.loads(line)["session_id"]) == "train")
        record = holder = json.loads(lines[i])
        *parents, key = field.split(".")
        for parent in parents:
            holder = holder[parent][0]
        if value is None:
            del holder[key]
        else:
            holder[key] = value
        lines[i] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        flags = {"eval": ("--checkpoint", train_dir / "checkpoint.bin", "--split", "test"),
                 "train": ("--ledger", ledger_dir / "ledger.json", "--steps", 10,
                           "--batch-size", 8)}[command]
        out = tmp_path / "o"
        assert run_cli(command, "--bundle", bundle, *flags, "--out", out) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: malformed record: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "score"])
    @pytest.mark.parametrize("split", ["val", "test"])
    @pytest.mark.parametrize("field, value", [
        ("context_tokens", [5]), ("position", "1"), ("negative_pool", None),
        ("positive_doc_id", 7),
    ], ids=lambda v: json.dumps(v))
    def test_malformed_context_outside_the_training_split_exits_two(
            self, bundle_dir, ledger_dir, tmp_path, capsys, command, split, field, value):
        """train and score build only the training split's contexts, but every
        context record is still checked."""
        bundle = tmp_path / "bundle"
        shutil.copytree(bundle_dir, bundle)
        path = bundle / "contexts.jsonl"
        lines = path.read_text().splitlines()
        i = next(i for i, line in enumerate(lines)
                 if split_of(json.loads(line)["session_id"]) == split)
        record = json.loads(lines[i])
        if value is None:
            del record[field]
        else:
            record[field] = value
        lines[i] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        flags = {"score": (), "train": ("--ledger", ledger_dir / "ledger.json", "--steps", 10,
                                        "--batch-size", 8)}[command]
        out = tmp_path / "o"
        assert run_cli(command, "--bundle", bundle, *flags, "--out", out) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: malformed record: ")
        assert not out.exists()

    def test_train_and_eval_build_only_their_split(self, bundle_dir, ledger_dir, train_dir,
                                                   tmp_path, monkeypatch):
        built, build_eval_items = [], cli.build_eval_items
        monkeypatch.setattr(cli, "build_eval_items",
                            lambda sessions, documents: build_eval_items(
                                built.append(sessions) or sessions, documents))
        assert run_cli("train", "--bundle", bundle_dir, "--ledger", ledger_dir / "ledger.json",
                       "--steps", 5, "--batch-size", 8, "--out", tmp_path / "train") == 0
        assert run_cli("eval", "--bundle", bundle_dir, "--checkpoint",
                       train_dir / "checkpoint.bin", "--out", tmp_path / "eval") == 0
        sessions = load_bundle(bundle_dir, contexts=False)[0]
        assert built == [in_split(sessions, "val"), in_split(sessions, "test")]
        assert all(built)

    def test_train_hashes_each_session_id_once(self, bundle_dir, ledger_dir, tmp_path,
                                               monkeypatch):
        hashed, sha1 = [], cli.hashlib.sha1
        monkeypatch.setattr(cli.hashlib, "sha1", lambda data: sha1(hashed.append(data) or data))
        assert run_cli("train", "--bundle", bundle_dir, "--ledger", ledger_dir / "ledger.json",
                       "--steps", 5, "--batch-size", 8, "--out", tmp_path / "train") == 0
        sessions = load_bundle(bundle_dir, contexts=False)[0]
        assert sorted(hashed) == sorted(s.session_id.encode() for s in sessions)

    def test_equal_tokens_and_ids_are_one_object(self, bundle_dir, ledger_dir):
        contexts = load_bundle(bundle_dir)[2]
        ledger = load_ledger(ledger_dir / "ledger.json")
        for strings in [
            [t for c in contexts
             for t in (c.session_id, *c.context_tokens, c.positive_doc_id, *c.negative_pool)],
            ledger.context_ids + ledger.positive_doc_ids + ledger.neg_context_ids
            + ledger.neg_doc_ids,
        ]:
            assert len(strings) > len(set(strings))
            assert len({id(s) for s in strings}) == len(set(strings))


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


def _bundle_flags(command: str, ledger_dir: Path, train_dir: Path) -> tuple:
    """The flags besides --bundle and --out of a quick `command` run on the test bundle."""
    return {
        "score": (),
        "eval": ("--checkpoint", train_dir / "checkpoint.bin", "--split", "test"),
        "ablate": ("--ledger", ledger_dir / "ledger.json", "--steps", 2, "--batch-size", 8,
                   "--grid-deltas", "0.3", "--grid-etas", "0.7"),
    }.get(command, ("--ledger", ledger_dir / "ledger.json", "--steps", 2, "--batch-size", 8))


class TestRepeatedBundleRecord:
    """Every record of a bundle file names a new doc id, session or context,
    wherever it lies: a repeat is an input error naming the file and the id,
    under every command that reads the file, before --out exists."""

    @pytest.mark.parametrize("name, command", [
        (name, command) for name, (_, commands) in BUNDLE_READERS.items()
        for command in commands])
    def test_repeat_exits_two_naming_the_id(self, bundle_dir, ledger_dir, train_dir, tmp_path,
                                            capsys, name, command):
        bundle = tmp_path / "bundle"
        shutil.copytree(bundle_dir, bundle)
        path = bundle / name
        records = [json.loads(line) for line in path.read_text().splitlines()]
        if name == "documents.jsonl":  # the same doc id with another title
            record = {**records[0], "title_tokens": ["another", "title"]}
            key, what = record["doc_id"], "doc_id"
        elif name == "sessions.jsonl":  # a train-split session: outside train's and eval's
            record = next(r for r in records if split_of(r["session_id"]) == "train")
            key, what = record["session_id"], "session_id"
        else:  # a context outside the train split that score and train read
            record = next(r for r in records if split_of(r["session_id"]) != "train")
            key = (record["session_id"], record["position"], record["positive_doc_id"])
            what = "(session_id, position, positive_doc_id)"
        path.write_text(path.read_text() + json.dumps(record) + "\n")
        out = tmp_path / "o"
        flags = _bundle_flags(command, ledger_dir, train_dir)
        assert run_cli(command, "--bundle", bundle, *flags, "--out", out) == 2
        assert capsys.readouterr().err == \
            f"error: {path}: malformed record: {what} {key!r} is listed more than once\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["score", "train", "eval", "ablate"])
    def test_empty_doc_id_exits_two(self, bundle_dir, ledger_dir, train_dir, tmp_path, capsys,
                                    command):
        bundle = tmp_path / "bundle"
        shutil.copytree(bundle_dir, bundle)
        path = bundle / "documents.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        records[-1]["doc_id"] = ""
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        out = tmp_path / "o"
        flags = _bundle_flags(command, ledger_dir, train_dir)
        assert run_cli(command, "--bundle", bundle, *flags, "--out", out) == 2
        assert capsys.readouterr().err == \
            f"error: {path}: malformed record: doc_id must be non-empty\n"
        assert not out.exists()


# bundle file -> (the table's cases: record 0 with one field or entry changed)
WRONG_TYPES = {
    "contexts.jsonl": [("session_id", None), ("session_id", 5), ("session_id", ["s"]),
                       ("context_tokens", [None]), ("context_tokens", [5]),
                       ("context_tokens", [["w"]]), ("context_tokens", "abc"),
                       ("position", True)],
    "documents.jsonl": [("doc_id", 5), ("title_tokens", "abc")],
    "sessions.jsonl": [("session_id", 5), ("session_id", None),
                       ("interactions.query_tokens", [5]),
                       ("interactions.clicked_doc_ids", "d")],
}


class TestBundleRecordTypes:
    """A bundle field or entry of the wrong type, or a slate document the
    bundle does not hold, is an input error before --out exists."""

    @pytest.mark.parametrize("name, field, value", [
        pytest.param(name, field, value, id=f"{name}-{field}-{json.dumps(value)}")
        for name, cases in WRONG_TYPES.items() for field, value in cases])
    def test_wrong_type_exits_two_naming_the_file(self, bundle_dir, ledger_dir, train_dir,
                                                  tmp_path, capsys, name, field, value):
        bundle = tmp_path / "bundle"
        shutil.copytree(bundle_dir, bundle)
        path = bundle / name
        lines = path.read_text().splitlines()
        record = holder = json.loads(lines[0])
        *parents, key = field.split(".")
        for parent in parents:
            holder = holder[parent][0]
        holder[key] = value
        lines[0] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        for command in BUNDLE_READERS[name][1]:
            if command == "ablate":
                continue  # reads as train does
            out = tmp_path / command
            flags = {
                "score": (),
                "eval": ("--checkpoint", train_dir / "checkpoint.bin"),
            }.get(command, ("--ledger", ledger_dir / "ledger.json", "--steps", 10,
                            "--batch-size", 8))
            assert run_cli(command, "--bundle", bundle, *flags, "--out", out) == 2, command
            assert capsys.readouterr().err.startswith(f"error: {path}: malformed record: ")
            assert not out.exists()

    @pytest.mark.parametrize("command, split", [("eval", "test"), ("train", "val")])
    def test_slate_document_missing_from_the_corpus_exits_two(
            self, bundle_dir, ledger_dir, train_dir, tmp_path, capsys, command, split):
        bundle = tmp_path / "bundle"
        shutil.copytree(bundle_dir, bundle)
        session = next(s for s in map(json.loads, (bundle / "sessions.jsonl").open())
                       if split_of(s["session_id"]) == split)  # the split's first
        doc = session["interactions"][0]["candidate_doc_ids"][0]
        path = bundle / "documents.jsonl"
        path.write_text("".join(line for line in path.open()
                                if json.loads(line)["doc_id"] != doc))
        flags = ("--checkpoint", train_dir / "checkpoint.bin") if command == "eval" else \
            ("--ledger", ledger_dir / "ledger.json", "--steps", 10, "--batch-size", 8)
        out = tmp_path / command
        assert run_cli(command, "--bundle", bundle, *flags, "--out", out) == 2
        assert capsys.readouterr().err == \
            f"error: session {session['session_id']}: document {doc} is not in the corpus\n"
        assert not out.exists()


def check_exit(command: str, *argv, out: Path) -> None:
    """Run `command`: it must exit 0 or 2, and a 2 must leave no `out`."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = run_cli(command, *argv, "--out", out)
    assert rc in (0, 2), f"{command} exited {rc}: {err.getvalue()}"
    assert rc == 0 or not out.exists(), f"{command} left {out}: {err.getvalue()}"


# bundle file -> the fields a corruption may strike ("a.b": field b of an entry of a)
BUNDLE_FIELDS = {
    "documents.jsonl": ["doc_id", "title_tokens"],
    "sessions.jsonl": ["session_id", "interactions", "interactions.query_id",
                       "interactions.query_tokens", "interactions.clicked_doc_ids",
                       "interactions.candidate_doc_ids"],
    "contexts.jsonl": ["session_id", "position", "context_tokens", "positive_doc_id",
                       "negative_pool"],
}
ODD_VALUES = st.sampled_from([None, 5, -1, True, 1.5, "", "d", "abc", [], [5], [None],
                              [["w"]], {}, {"w": 1}])


def corrupt_bundle(bundle: Path, data) -> None:
    """Change one record of one bundle file as `data` draws: drop a key,
    change a type (of a field or of one entry), repeat an entry or a
    record, or delete a document."""
    how = data.draw(st.sampled_from(["drop a key", "change a type", "change an entry",
                                     "repeat an entry", "repeat a record",
                                     "delete a document"]), label="corruption")
    name = "documents.jsonl" if how == "delete a document" else \
        data.draw(st.sampled_from(sorted(BUNDLE_FIELDS)), label="file")
    path = bundle / name
    records = [json.loads(line) for line in path.read_text().splitlines()]
    i = data.draw(st.integers(0, len(records) - 1), label="record")
    if how == "delete a document":
        del records[i]
    elif how == "repeat a record":
        records.insert(i, records[i])
    else:
        *parents, key = data.draw(st.sampled_from(BUNDLE_FIELDS[name]), label="field").split(".")
        holder = records[i]
        for parent in parents:
            holder = holder[parent][data.draw(st.integers(0, len(holder[parent]) - 1))]
        value = holder[key]
        if how == "drop a key":
            del holder[key]
        elif how == "change a type" or type(value) is not list or not value:
            holder[key] = data.draw(ODD_VALUES, label="value")
        else:
            j = data.draw(st.integers(0, len(value) - 1), label="entry")
            if how == "repeat an entry":
                value.insert(j, value[j])
            else:
                value[j] = data.draw(ODD_VALUES, label="value")
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


class TestCorruptedBundle:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_commands_exit_zero_or_two_and_two_leaves_no_output(
            self, bundle_dir, ledger_dir, train_dir, data):
        with tempfile.TemporaryDirectory() as tmp:
            bundle = Path(tmp) / "bundle"
            shutil.copytree(bundle_dir, bundle)
            corrupt_bundle(bundle, data)
            for command, *flags in [
                ("score",),
                ("train", "--ledger", ledger_dir / "ledger.json", "--steps", 10,
                 "--batch-size", 8),
                ("eval", "--checkpoint", train_dir / "checkpoint.bin"),
            ]:
                check_exit(command, "--bundle", bundle, *flags, out=Path(tmp) / command)


def corrupt_ledger(path: Path, data) -> None:
    """Change the ledger at `path` as `data` draws: truncate the file, drop a
    key (of the ledger or of its negatives), change a type (of a key's value,
    an entry or an entry's field), repeat an entry, or reorder the positives
    or one context's negatives. An entry is a positive or one context's
    negative."""
    text = path.read_text()
    how = data.draw(st.sampled_from(["truncate", "drop a key", "change a type",
                                     "repeat an entry", "reorder the positives",
                                     "reorder a context's negatives"]), label="corruption")
    if how == "truncate":
        path.write_text(text[:data.draw(st.integers(0, len(text) - 1), label="length")])
        return
    payload = json.loads(text)
    negatives = payload["negatives"]
    cid = data.draw(st.sampled_from(sorted(negatives)), label="context")
    entries = negatives[cid] if data.draw(st.booleans(), label="negative entry") \
        else payload["positives"]
    j = data.draw(st.integers(0, len(entries) - 1), label="entry")
    if how == "drop a key":
        holder = negatives if data.draw(st.booleans(), label="a context's") else payload
        del holder[data.draw(st.sampled_from(sorted(holder)), label="key")]
    elif how == "reorder the positives":
        payload["positives"] = data.draw(st.permutations(payload["positives"]), label="order")
    elif how == "reorder a context's negatives":
        negatives[cid] = data.draw(st.permutations(negatives[cid]), label="order")
    elif how == "repeat an entry":
        entries.insert(j, entries[j])
    else:
        where = data.draw(st.sampled_from(["ledger key", "context", "entry", "field"]),
                          label="where")
        value = data.draw(ODD_VALUES, label="value")
        if where == "ledger key":
            payload[data.draw(st.sampled_from(sorted(payload)), label="key")] = value
        elif where == "context":
            negatives[cid] = value
        elif where == "entry":
            entries[j] = value
        else:
            entries[j][data.draw(st.integers(0, len(entries[j]) - 1), label="field")] = value
    path.write_text(json.dumps(payload))


class TestCorruptedLedger:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_train_exits_zero_or_two_and_two_leaves_no_output(
            self, bundle_dir, ledger_dir, data):
        with tempfile.TemporaryDirectory() as tmp:
            ledger = Path(tmp) / "ledger.json"
            shutil.copyfile(ledger_dir / "ledger.json", ledger)
            corrupt_ledger(ledger, data)
            check_exit("train", "--bundle", bundle_dir, "--ledger", ledger, "--steps", 10,
                       "--batch-size", 8, out=Path(tmp) / "train")


def read_ledger(read, path: Path):
    """What `read` makes of the ledger at `path`: a ledger, or its ValueError's message."""
    try:
        return read(path)
    except ValueError as e:
        return str(e)


def respace_ledger(text: str, data) -> str:
    """The ledger JSON `text` again, with the keys of the ledger and of its
    negatives in a drawn order, and drawn indents and whitespace."""
    def shuffled(mapping: dict) -> dict:
        return dict(data.draw(st.permutations(list(mapping.items())), label="key order"))

    payload = json.loads(text)
    payload = shuffled({**payload, "negatives": shuffled(payload["negatives"])})
    text = json.dumps(payload, indent=data.draw(st.sampled_from([None, 0, 1, 3]), label="indent"),
                      separators=data.draw(st.sampled_from([None, (",", ":"), (" ,\t", "\r: ")]),
                                           label="separators"))
    ws = st.text(" \t\n\r", max_size=3)
    return (data.draw(ws, label="before") + text.replace("\n", data.draw(
        st.sampled_from(["\n", "\r\n", "\n\t", " \n "]), label="line break"))
        + data.draw(ws, label="after"))


class TestLedgerReaders:
    """load_ledger reads a ledger an entry at a time, object_load_ledger as
    it parsed the whole file: the same ledger, or the same refusal."""

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_any_whitespace_and_key_order(self, ledger_dir, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ledger.json"
            path.write_text(respace_ledger((ledger_dir / "ledger.json").read_text(), data))
            ledger = load_ledger(path)
            assert ledger == object_load_ledger(path)
            save_ledger(ledger, path)
            assert path.read_bytes() == (ledger_dir / "ledger.json").read_bytes()

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_every_single_fault_corruption(self, ledger_dir, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ledger.json"
            shutil.copyfile(ledger_dir / "ledger.json", path)
            corrupt_ledger(path, data)
            assert read_ledger(load_ledger, path) == read_ledger(object_load_ledger, path)

    def test_every_truncation(self, tmp_path):
        path = tmp_path / "ledger.json"
        save_ledger(ledger_from_entries(
            [("a:1:x", "x", 1.0), ("b:2:y", "y", 2.5)],
            {"a:1:x": [("n1", 0.5), ("n2", -1e-3)], "b:2:y": [("n3", 4)]}, "pd", "nd"), path)
        text = path.read_text()
        for end in range(len(text)):
            path.write_text(text[:end])
            got = read_ledger(load_ledger, path)
            assert got == read_ledger(object_load_ledger, path)
            assert got.startswith(f"{path}: malformed ledger: ")

    def test_a_repeated_negatives_key_keeps_its_last_list(self, bundle_dir, ledger_dir,
                                                         train_dir, tmp_path):
        """As in json.loads: train uses the last list, and trains as on the ledger
        without the repeat."""
        text = (ledger_dir / "ledger.json").read_text()
        head, tail = text.split('"negatives":{', 1)
        cid = next(iter(json.loads(text)["negatives"]))
        ledger = tmp_path / "ledger.json"
        ledger.write_text(f'{head}"negatives":{{{json.dumps(cid)}:[["nosuchdoc",1.0]],{tail}')
        assert run_cli("train", "--bundle", bundle_dir, "--ledger", ledger, "--out",
                       tmp_path / "o", "--steps", 10, "--seed", 1, "--batch-size", 8) == 0
        assert (tmp_path / "o" / "checkpoint.bin").read_bytes() == \
            (train_dir / "checkpoint.bin").read_bytes()


@pytest.fixture(scope="module")
def periodic_dir(tmp_path_factory, bundle_dir, ledger_dir):
    out = tmp_path_factory.mktemp("periodic")
    assert run_cli("train", "--bundle", bundle_dir, "--ledger", ledger_dir / "ledger.json",
                   *RESUMABLE_RUN, "--out", out) == 0
    return out


RESUMABLE_RUN = ("--steps", 10, "--batch-size", 8, "--checkpoint-interval", 5)


def _holders(tree: dict, name: str = "") -> list[tuple[str, dict]]:
    """(dotted name, mapping) of `tree` and of every mapping nested in it."""
    return [(name, tree)] + [h for key, value in sorted(tree.items()) if isinstance(value, dict)
                             for h in _holders(value, f"{name}.{key}")]


def corrupt_mapping(tree: dict, data) -> None:
    """Drop a key of `tree` or of a mapping in it, change a key's value to
    another type, or add a key no reader knows, as `data` draws."""
    how = data.draw(st.sampled_from(["drop a key", "change a type", "add an unknown key"]),
                    label="corruption")
    _, holder = data.draw(st.sampled_from(_holders(tree)), label="mapping")
    if how == "add an unknown key":
        holder["zz_unknown"] = data.draw(ODD_VALUES, label="value")
    elif holder:
        key = data.draw(st.sampled_from(sorted(holder)), label="key")
        if how == "drop a key":
            del holder[key]
        else:
            holder[key] = data.draw(ODD_VALUES, label="value")


def edit_checkpoint_header(src: Path, dst: Path, edit) -> None:
    """Write the checkpoint `src` to `dst` with `edit` applied to its JSON
    header; the arrays keep their bytes."""
    raw = src.read_bytes()
    start = len(MAGIC) + 4
    (size,) = struct.unpack("<I", raw[len(MAGIC):start])
    header = json.loads(raw[start:start + size])
    edit(header)
    blob = json.dumps(header).encode()
    dst.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob + raw[start + size:])


def corrupt_checkpoint(path: Path, data) -> None:
    """Truncate the checkpoint at `path`, or corrupt its JSON header (the
    kind, vocabulary, array list and meta, with the run's config and
    sampler state) with corrupt_mapping."""
    if data.draw(st.booleans(), label="truncate"):
        raw = path.read_bytes()
        path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1), label="length")])
    else:
        edit_checkpoint_header(path, path, lambda header: corrupt_mapping(header, data))


def corrupt_config(path: Path, data) -> None:
    """Truncate the YAML config at `path`, or corrupt its mapping with corrupt_mapping."""
    text = path.read_text()
    if data.draw(st.booleans(), label="truncate"):
        path.write_text(text[:data.draw(st.integers(0, len(text) - 1), label="length")])
        return
    config = yaml.safe_load(text)
    corrupt_mapping(config, data)
    path.write_text(yaml.safe_dump(config))


class TestCorruptedCheckpoint:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_resume_and_eval_exit_zero_or_two_and_two_leaves_no_output(
            self, bundle_dir, ledger_dir, periodic_dir, data):
        with tempfile.TemporaryDirectory() as tmp:
            ckpt = Path(tmp) / "ckpt.bin"
            shutil.copyfile(periodic_dir / "ckpt_00000005.bin", ckpt)
            corrupt_checkpoint(ckpt, data)
            check_exit("train", "--bundle", bundle_dir, "--ledger", ledger_dir / "ledger.json",
                       *RESUMABLE_RUN, "--resume", ckpt, out=Path(tmp) / "train")
            check_exit("eval", "--bundle", bundle_dir, "--checkpoint", ckpt,
                       out=Path(tmp) / "eval")


class TestMalformedCheckpoint:
    """A checkpoint header that a reader cannot take exits 2 naming the file."""

    @pytest.mark.parametrize("command, edit, message", [
        ("train", lambda h: h.pop("meta"), "malformed checkpoint: KeyError('meta')"),
        ("train", lambda h: h["meta"].update(step=None), "malformed checkpoint: TypeError"),
        ("train", lambda h: h["meta"]["sampler_state"]["state"].update(inc=-1),
         "malformed checkpoint: OverflowError"),
        ("eval", lambda h: h["meta"].update(tau=[5]), "malformed checkpoint: TypeError"),
        ("eval", lambda h: h.update(arrays=5), "malformed checkpoint: TypeError"),
        ("eval", lambda h: h.update(vocab=h["vocab"][2:]),
         "vocabulary does not start with ['<pad>', '<unk>']"),
    ], ids=["no-meta", "step-none", "negative-sampler-state", "tau-list", "arrays-int",
            "vocab-without-unk"])
    def test_exits_two_and_leaves_no_output(self, bundle_dir, ledger_dir, periodic_dir,
                                            tmp_path, capsys, command, edit, message):
        ckpt = tmp_path / "ckpt.bin"
        edit_checkpoint_header(periodic_dir / "ckpt_00000005.bin", ckpt, edit)
        flags = ("--ledger", ledger_dir / "ledger.json", *RESUMABLE_RUN, "--resume", ckpt) \
            if command == "train" else ("--checkpoint", ckpt)
        out = tmp_path / "o"
        assert run_cli(command, "--bundle", bundle_dir, *flags, "--out", out) == 2
        assert f"error: {ckpt}: " in (err := capsys.readouterr().err) and message in err
        assert not out.exists()


class TestCorruptedConfig:
    CONFIG = {"steps": 10, "batch_size": 8, "checkpoint_interval": 5, "lr": 0.05,
              "mode": "dual", "seed": 1, "split": "val", "tag": "run"}

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_train_and_eval_exit_zero_or_two_and_two_leaves_no_output(
            self, bundle_dir, ledger_dir, train_dir, data):
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "config.yaml"
            config.write_text(yaml.safe_dump(self.CONFIG))
            corrupt_config(config, data)
            check_exit("train", "--config", config, "--bundle", bundle_dir,
                       "--ledger", ledger_dir / "ledger.json", out=Path(tmp) / "train")
            check_exit("eval", "--config", config, "--bundle", bundle_dir,
                       "--checkpoint", train_dir / "checkpoint.bin", out=Path(tmp) / "eval")


class TestManifestConfig:
    """A manifest records every flag that changes the command's outputs, so
    that its configuration reproduces them."""

    @pytest.mark.parametrize("command, flag, value, key, recorded", [
        ("synth", "--window", 2, "window", 2),
        ("eval", "--tag", "other", "tag", "other"),
        ("score", "--fit-epochs", 2, "fit_epochs", 2),
        ("score", "--fit-batch-size", 16, "fit_batch_size", 16),
        ("score", "--fit-lr", 0.2, "fit_lr", 0.2),
        ("score", "--d-emb", 8, "d_emb", 8),
        ("score", "--hidden", 8, "hidden", 8),
        ("ablate", "--grid-deltas", "0.5", "grid_deltas", [0.5]),
        ("ablate", "--grid-etas", "0.5,0.9", "grid_etas", [0.5, 0.9]),
    ], ids=["synth-window", "eval-tag", "score-fit-epochs", "score-fit-batch-size",
            "score-fit-lr", "score-d-emb", "score-hidden", "ablate-grid-deltas",
            "ablate-grid-etas"])
    def test_runs_that_differ_in_one_flag_record_different_configs(
            self, bundle_dir, ledger_dir, train_dir, tmp_path, monkeypatch, command, flag,
            value, key, recorded):
        monkeypatch.setattr(cli, "CGROUP_CPU_MAX", tmp_path / "no-cpu.max")
        flags = {
            "synth": SYNTH_ARGS[1:],
            "eval": ("--bundle", bundle_dir, "--checkpoint", train_dir / "checkpoint.bin"),
            "score": ("--bundle", bundle_dir, "--scorer", "dense", "--fit", "--fit-epochs", 1),
            "ablate": ("--bundle", bundle_dir, "--ledger", ledger_dir / "ledger.json",
                       "--steps", 5, "--batch-size", 8, "--grid-deltas", "0.3",
                       "--grid-etas", "0.7"),
        }[command]
        configs = []
        for name, extra in [("base", ()), ("changed", (flag, value))]:
            out = tmp_path / name
            with contextlib.redirect_stdout(io.StringIO()):
                assert run_cli(command, *flags, *extra, "--out", out) == 0
            configs.append(json.loads((out / MANIFEST_NAME).read_text())["config"])
        assert configs[1][key] == recorded
        assert configs[0] == {**configs[1], key: configs[0][key]} != configs[1]

    def test_bm25_score_records_no_fit_flags(self, ledger_dir):
        config = json.loads((ledger_dir / MANIFEST_NAME).read_text())["config"]
        assert not set(cli.FIT_FLAGS) & set(config)


class TestFailedCommandOutput:
    """A command that exits non-zero removes the --out it created while
    that directory is still empty; a non-empty one, or one that existed
    before, stays."""

    @pytest.mark.parametrize("command, flags, config, message", [
        ("score", ("--scorer", "dense", "--checkpoint", "RANKER"), None,
         "checkpoint kind 'ranker', expected 'dense-scorer'"),
        ("score", ("--scorer", "dense"), None, "dense scorer needs --checkpoint or --fit"),
        ("train", ("--tau", 0), None, "tau must be > 0"),
        ("score", (), "scorer: foo\n", "scorer: invalid value 'foo'"),
        ("train", (), "seed: 1.5\n", "seed: invalid value 1.5"),
    ], ids=["ranker-checkpoint-as-scorer", "dense-without-fit-or-checkpoint", "tau-zero",
            "config-unknown-scorer", "config-fractional-seed"])
    def test_exits_two_and_leaves_no_output(self, bundle_dir, ledger_dir, train_dir,
                                            tmp_path, capsys, command, flags, config,
                                            message):
        flags = [train_dir / "checkpoint.bin" if f == "RANKER" else f for f in flags]
        if command == "train":
            flags += ["--ledger", ledger_dir / "ledger.json", "--steps", 5, "--batch-size", 8]
        if config:
            (tmp_path / "conf.yaml").write_text(config)
            flags += ["--config", tmp_path / "conf.yaml"]
        out = tmp_path / "o"
        assert run_cli(command, "--bundle", bundle_dir, *flags, "--out", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("below", [(), ("sub",)], ids=["the-file", "below-the-file"])
    def test_out_at_or_below_a_file_exits_two_before_any_work(
            self, bundle_dir, tmp_path, monkeypatch, capsys, below):
        def no_work(*args, **kwargs):
            raise AssertionError("read the bundle before checking --out")

        monkeypatch.setattr(cli, "load_bundle", no_work)
        afile = tmp_path / "afile"
        afile.write_text("mine\n")
        out = afile.joinpath(*below)
        assert run_cli("score", "--bundle", bundle_dir, "--out", out) == 2
        assert capsys.readouterr().err == f"error: --out {out}: {afile} is not a directory\n"
        assert afile.read_text() == "mine\n"

    @pytest.fixture
    def failing_ledger_build(self, monkeypatch):
        """`score` fails inside its output lock, once the scorers are built."""
        def refuse(*args, **kwargs):
            raise ValueError("refused inside the lock")

        monkeypatch.setattr(cli, "build_ledger", refuse)

    def test_only_the_leaf_is_removed(self, bundle_dir, tmp_path, failing_ledger_build):
        out = tmp_path / "new" / "o"
        assert run_cli("score", "--bundle", bundle_dir, "--out", out) == 2
        assert not out.exists()
        assert list((tmp_path / "new").iterdir()) == []

    def test_a_failed_ledger_build_leaves_no_fitted_scorer(self, bundle_dir, tmp_path, capsys,
                                                           failing_ledger_build):
        out = tmp_path / "o"
        assert run_cli("score", "--bundle", bundle_dir, "--scorer", "dense", "--fit",
                       "--fit-epochs", 1, "--out", out) == 2
        assert capsys.readouterr().err == "error: refused inside the lock\n"
        assert not out.exists()  # no dense_scorer.bin without its ledger

    def test_a_failed_train_keeps_its_periodic_checkpoints(self, bundle_dir, ledger_dir,
                                                           tmp_path, monkeypatch, capsys):
        def no_space(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli, "save_ranker", no_space)
        out = tmp_path / "o"
        assert run_cli("train", "--bundle", bundle_dir, "--ledger", ledger_dir / "ledger.json",
                       "--steps", 10, "--batch-size", 8, "--checkpoint-interval", 5,
                       "--out", out) == 1
        assert "No space left on device" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == \
            ["ckpt_00000005.bin", "ckpt_00000010.bin"]  # no lock, no manifest
        monkeypatch.undo()
        assert run_cli("train", "--bundle", bundle_dir, "--ledger", ledger_dir / "ledger.json",
                       "--steps", 10, "--batch-size", 8, "--checkpoint-interval", 5,
                       "--resume", out / "ckpt_00000005.bin", "--out", tmp_path / "resumed") == 0

    @pytest.mark.parametrize("existing", [[], ["notes.txt"]], ids=["empty", "with-a-file"])
    def test_a_directory_that_existed_is_never_removed(self, bundle_dir, tmp_path,
                                                       failing_ledger_build, existing):
        out = tmp_path / "o"
        out.mkdir()
        for name in existing:
            (out / name).write_text("mine\n")
        assert run_cli("score", "--bundle", bundle_dir, "--out", out) == 2
        assert sorted(p.name for p in out.iterdir()) == existing


class TestRefusedHyperparameters:
    """A hyperparameter outside its range exits 2 naming its field or flag
    before any input is read, and leaves no --out."""

    @pytest.mark.parametrize("command, flag, value, message", [
        ("train", "--k", "nan", "k must be >= 1 and finite"),
        ("train", "--k", "inf", "k must be >= 1 and finite"),
        ("train", "--tau", "inf", "tau must be > 0 and finite"),
        ("train", "--tau", 0, "tau must be > 0 and finite"),
        ("train", "--momentum", -3, "momentum must be in [0, 1)"),
        ("train", "--momentum", 1, "momentum must be in [0, 1)"),
        ("train", "--momentum", 2, "momentum must be in [0, 1)"),
        ("ablate", "--k", "nan", "k must be >= 1 and finite"),
        ("ablate", "--tau", "inf", "tau must be > 0 and finite"),
        ("ablate", "--tau", 0, "tau must be > 0 and finite"),
        ("score", "--k1", "nan", "k1 must be >= 0 and finite"),
        ("score", "--k1", "inf", "k1 must be >= 0 and finite"),
        ("score", "--scorer", "dense", "dense scorer needs --checkpoint or --fit"),
        ("score --fit", "--fit-lr", -1, "--fit-lr must be > 0 and finite"),
        ("score --fit", "--fit-lr", 0, "--fit-lr must be > 0 and finite"),
        ("score --fit", "--fit-lr", "nan", "--fit-lr must be > 0 and finite"),
        ("score --fit", "--fit-lr", "inf", "--fit-lr must be > 0 and finite"),
        ("score --fit", "--fit-epochs", 0, "--fit-epochs must be >= 1"),
        ("score --fit", "--fit-epochs", -2, "--fit-epochs must be >= 1"),
        ("score --fit", "--d-emb", 0, "--d-emb must be >= 1"),
        ("score --fit", "--hidden", 0, "--hidden must be >= 1"),
        ("score --fit", "--fit-batch-size", 1, "--fit-batch-size must be >= 2"),
        ("train", "--epochs", -1, "--epochs must be >= 0"),
        ("ablate", "--epochs", -1, "--epochs must be >= 0"),
        ("train", "--steps", -1, "--steps must be >= 0"),
        ("ablate", "--steps", -1, "--steps must be >= 0"),
        ("train", "--seed", -1, "--seed must be >= 0"),
        ("ablate", "--seed", -1, "--seed must be >= 0"),
        ("score --fit", "--seed", -1, "--seed must be >= 0"),
        ("train", "--lr", 0, "--lr must be > 0"),
        ("train", "--lr", "nan", "--lr must be > 0"),
        ("ablate", "--lr", -1, "--lr must be > 0"),
        ("ablate", "--checkpoint-interval", 5,
         "unrecognized arguments: --checkpoint-interval 5"),
        ("eval", "--tag", "a b", "--tag 'a b' must be one word: not empty, no whitespace"),
        ("eval", "--tag", "", "--tag '' must be one word: not empty, no whitespace"),
        ("eval", "--tag", "run\t1", "--tag 'run\\t1' must be one word: not empty, no whitespace"),
        ("ingest", "--window", 0, "--window must be >= 1"),
        ("ingest", "--window", -5, "--window must be >= 1"),
        ("synth", "--window", 0, "--window must be >= 1"),
        ("ablate", "--grid-deltas", "0.3,x",
         "argument --grid-deltas: '0.3,x' is not a list of distinct numbers in (0, 1]"),
        ("ablate", "--grid-deltas", "0.3,0.3",
         "argument --grid-deltas: '0.3,0.3' is not a list of distinct numbers in (0, 1]"),
        ("ablate", "--grid-etas", "0.7,1.5",
         "argument --grid-etas: '0.7,1.5' is not a list of distinct numbers in (0, 1]"),
        ("ablate", "--grid-etas", "nan",
         "argument --grid-etas: 'nan' is not a list of distinct numbers in (0, 1]"),
    ])
    def test_exits_two_before_any_work(self, bundle_dir, ledger_dir, train_dir, tmp_path,
                                       monkeypatch, capsys, command, flag, value, message):
        def no_work(*args, **kwargs):
            raise AssertionError("read, trained or scored before checking the flags")

        for name in ("train", "train_and_evaluate", "build_ledger", "load_bundle",
                     "parse_sessions"):
            monkeypatch.setattr(cli, name, no_work)
        monkeypatch.setattr(cli.synth, "generate_synthetic", no_work)
        train_flags = ("--ledger", ledger_dir / "ledger.json", "--steps", 10, "--batch-size", 8)
        flags = {"train": train_flags, "score": (), "score --fit": ("--scorer", "dense"),
                 "ablate": (*train_flags, "--grid-deltas", "0.3", "--grid-etas", "0.7"),
                 "eval": ("--checkpoint", train_dir / "checkpoint.bin"),
                 "ingest": ("--log", bundle_dir / "log.jsonl"),
                 "synth": SYNTH_ARGS[1:]}[command]
        if command not in ("ingest", "synth"):
            flags = ("--bundle", bundle_dir, *flags)
        out = tmp_path / "o"
        try:
            code = run_cli(*command.split(), *flags, flag, value, "--out", out)
        except SystemExit as e:  # refused by argparse: its usage, then "currank <command>: ",
            code = e.code  # or "currank: " for a flag the command does not take
        assert code == 2
        err = capsys.readouterr().err
        prefix = f"^currank(?: {re.escape(command)})?: "
        assert re.split(prefix, err, flags=re.M)[-1] == f"error: {message}\n"
        assert not out.exists()


COMMANDS = next(a.choices for a in build_parser()._actions if a.dest == "command")


def _numeric_flags(command: str) -> list[tuple[str, type]]:
    """`command`'s flags that take an int or a float, as build_parser defines them."""
    return [(a.option_strings[0], a.type) for a in COMMANDS[command]._actions
            if a.type in (int, float)]


# Edge values only: a huge --steps or --sessions would start a run that never ends.
SWEEP_VALUES = {int: ["-1", "0"], float: ["-1", "0", "nan", "inf", "-inf", "1e-320"]}
# The base flags a swept flag is added to; score runs its flags both ways. eval has no
# int or float flag today, but a base, so that one it gains is swept.
SWEEP_BASES = {"ingest": ["ingest"], "synth": ["synth"], "score": ["score", "score --fit"],
               "train": ["train"], "eval": ["eval"], "ablate": ["ablate"]}


class TestFlagSweep:
    """Every int and float flag of every command, at each edge value, exits 0
    or 2 (never 1, an internal error), and a 2 leaves no --out."""

    @pytest.mark.parametrize("base, flag, value", [
        pytest.param(base, flag, value, id=f"{base}{flag}={value}")
        for command, bases in SWEEP_BASES.items() for base in bases
        for flag, kind in _numeric_flags(command) for value in SWEEP_VALUES[kind]])
    def test_exits_zero_or_two(self, bundle_dir, ledger_dir, train_dir, tmp_path, base, flag,
                               value):
        flags = {"ingest": ("--log", bundle_dir / "log.jsonl"), "synth": SYNTH_ARGS[1:],
                 "score --fit": ("--bundle", bundle_dir, "--scorer", "dense", "--fit",
                                 "--fit-epochs", 1)}.get(base) or \
            ("--bundle", bundle_dir, *_bundle_flags(base, ledger_dir, train_dir))
        # "--flag=value": argparse would take a separate "-inf" for a flag
        check_exit(*base.split(), *flags, f"{flag}={value}", out=tmp_path / "o")

    def test_every_command_has_a_base(self):
        assert sorted(COMMANDS) == sorted(SWEEP_BASES)


class TestDivergence:
    """A training run or dense fit whose scores or parameters turn
    non-finite exits 2, naming where and the flags that drove it, and leaves
    no output but train's periodic checkpoints from before that step."""

    TRAIN_DIVERGED = (r"step (\d+): non-finite [a-z ]+; the run diverged under "
                      r"--lr 1e\+30, --momentum 0\.9 and --tau 1")

    def test_train(self, bundle_dir, ledger_dir, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli("train", "--bundle", bundle_dir, "--ledger", ledger_dir / "ledger.json",
                       "--steps", 20, "--batch-size", 8, "--checkpoint-interval", 1,
                       "--lr", 1e30, "--out", out) == 2
        err = capsys.readouterr().err
        assert (diverged := re.fullmatch(f"error: {self.TRAIN_DIVERGED}\n", err)), err
        step = int(diverged[1])
        assert 0 < step < 20
        assert sorted(p.name for p in out.iterdir()) == \
            [f"ckpt_{done:08d}.bin" for done in range(1, step + 1)]  # no checkpoint.bin

    def test_ablate(self, bundle_dir, ledger_dir, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli("ablate", "--bundle", bundle_dir, "--ledger", ledger_dir / "ledger.json",
                       "--steps", 10, "--batch-size", 8, "--lr", 1e30,
                       "--grid-deltas", "0.3", "--grid-etas", "0.7", "--out", out) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(f"error: training run {{'mode': 'dual'}} failed: "
                            f"{self.TRAIN_DIVERGED}\n", err), err
        assert not out.exists()
        assert multiprocessing.active_children() == []

    def test_dense_fit(self, bundle_dir, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli("score", "--bundle", bundle_dir, "--scorer", "dense", "--fit",
                       "--fit-lr", 1e30, "--out", out) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: epoch \d+: non-finite [a-z ]+; the dense fit diverged "
                            r"under --fit-lr 1e\+30\n", err), err
        assert not out.exists()  # no ledger.json, no dense_scorer.bin

    @staticmethod
    def _refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(lr=st.floats(-4.0, 30.0).map(lambda e: 10.0**e), momentum=st.floats(0.0, 0.99),
           tau=st.floats(0.05, 5.0), batch_size=st.integers(1, 16))
    def test_train_flags_exit_zero_or_two_and_outputs_are_strict_json(
            self, bundle_dir, ledger_dir, lr, momentum, tau, batch_size):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "train"
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = run_cli("train", "--bundle", bundle_dir, "--ledger",
                             ledger_dir / "ledger.json", "--steps", 12, "--checkpoint-interval", 4,
                             "--lr", lr, "--momentum", momentum, "--tau", tau,
                             "--batch-size", batch_size, "--out", out)
            assert rc in (0, 2), err.getvalue()
            if rc == 2:
                assert not any((out / name).exists()
                               for name in ("checkpoint.bin", "trainlog.jsonl", MANIFEST_NAME))
                return
            for line in (out / "trainlog.jsonl").read_text().splitlines():
                json.loads(line, parse_constant=self._refuse)
            json.loads((out / MANIFEST_NAME).read_text(), parse_constant=self._refuse)
            for ckpt in out.glob("*.bin"):
                load_checkpoint(ckpt)  # refuses a non-finite array

    def test_a_trainlog_that_is_not_strict_json_leaves_no_output(
            self, bundle_dir, ledger_dir, tmp_path, monkeypatch, capsys):
        train = cli.train

        def nan_loss(*args, **kwargs):
            params, log = train(*args, **kwargs)
            log.steps[-1]["loss"] = math.nan
            return params, log

        monkeypatch.setattr(cli, "train", nan_loss)
        out = tmp_path / "o"
        assert run_cli("train", "--bundle", bundle_dir, "--ledger", ledger_dir / "ledger.json",
                       "--steps", 5, "--batch-size", 8, "--out", out) == 2
        assert "Out of range float values are not JSON compliant" in capsys.readouterr().err
        assert not out.exists()


class TestNonFiniteCheckpoint:
    """A checkpoint whose arrays hold NaN or infinity is malformed: exit 2, no output."""

    @pytest.mark.parametrize("command, kind", [("score", "dense-scorer"), ("eval", "ranker")])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_exits_two_and_leaves_no_output(self, bundle_dir, tmp_path, capsys, command, kind,
                                            value):
        _, documents, _, tokens = load_bundle(bundle_dir)
        vocab = build_vocab(documents, tokens)
        params = init_params(len(vocab), 8, 8, np.random.default_rng(0))
        params.flat[len(params.flat) // 2] = value
        ckpt = tmp_path / "x.bin"
        save_checkpoint(ckpt, kind, params, vocab, meta={"tau": 1.0, "step": -1})
        flags = ("--scorer", "dense") if command == "score" else ()
        out = tmp_path / "o"
        assert run_cli(command, "--bundle", bundle_dir, *flags, "--checkpoint", ckpt,
                       "--out", out) == 2
        assert capsys.readouterr().err == \
            f"error: {ckpt}: malformed checkpoint: non-finite array values\n"
        assert not out.exists()


def write_manifest(out: Path, config: dict) -> None:
    """A score manifest of `config`, written by `command_output` around an empty body."""
    with command_output(argparse.Namespace(out=out, command="score"), config, [], 0):
        pass


class TestStrictJsonWriters:
    @pytest.mark.parametrize("name", ["ledger.json", MANIFEST_NAME, "checkpoint.bin"])
    def test_a_non_finite_number_is_refused_and_nothing_written(self, ledger_dir, train_dir,
                                                                 tmp_path, name):
        ledger = load_ledger(ledger_dir / "ledger.json")
        ledger.d_p[0] = math.nan
        params, vocab, _, meta = load_checkpoint(train_dir / "checkpoint.bin")
        write = {
            "ledger.json": lambda: save_ledger(ledger, tmp_path / name),
            MANIFEST_NAME: lambda: write_manifest(tmp_path, {"k1": math.inf}),
            "checkpoint.bin": lambda: save_checkpoint(tmp_path / name, "ranker", params, vocab,
                                                      meta={**meta, "tau": math.nan}),
        }[name]
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            write()
        assert list(tmp_path.iterdir()) == []


class TestAtomicWrites:
    @pytest.fixture
    def writers(self, ledger_dir, train_dir):
        ledger = load_ledger(ledger_dir / "ledger.json")
        params, vocab, _, meta = load_checkpoint(train_dir / "checkpoint.bin")
        return {
            "ledger.json": lambda out: save_ledger(ledger, out / "ledger.json"),
            MANIFEST_NAME: lambda out: write_manifest(out, {"k1": 1.2}),
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

        real_open = Path.open

        class HalfThenFail:
            """A file that takes half of what is written, then fails as a full disk does."""

            def __init__(self, fp):
                self.fp = fp

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fp.close()

            def writelines(self, chunks):
                data = b"".join(chunks)
                self.fp.write(data[: len(data) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(Path, "open", lambda path, *args, **kwargs: HalfThenFail(
            real_open(path, *args, **kwargs)))
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
