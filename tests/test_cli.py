import json
from pathlib import Path

import pytest

from currank.cli import LOCK_NAME, main, split_of
from currank.manifest import MANIFEST_NAME


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
    ], ids=["invalid-json", "missing-rank", "non-integer-rank",
         "fractional-rank", "duplicate-doc"])
    def test_malformed_log_exits_two(self, tmp_path, capsys, record, error):
        bad = tmp_path / "bad.jsonl"
        good = _log_record(1, {"doc_id": "d0", "title": "y", "rank": 1, "clicked": True})
        bad.write_text(good + "\n" + record + "\n")
        assert run_cli("ingest", "--log", bad, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "line 2" in err and error in err


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

    def test_dense_fit_writes_scorer_checkpoint(self, bundle_dir, tmp_path):
        out = tmp_path / "dense"
        assert run_cli("score", "--bundle", bundle_dir, "--scorer", "dense",
                       "--fit", "--fit-epochs", 1, "--out", out) == 0
        assert (out / "dense_scorer.bin").exists()
        assert (out / "ledger.json").exists()


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

    def test_missing_ledger_exits_two(self, bundle_dir, tmp_path):
        assert run_cli("train", "--bundle", bundle_dir,
                       "--ledger", tmp_path / "nope.json",
                       "--out", tmp_path / "o") == 2


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

    def test_missing_config_exits_two(self, bundle_dir, tmp_path, capsys):
        assert run_cli("train", "--config", tmp_path / "nope.yaml",
                       "--bundle", bundle_dir, "--ledger", tmp_path / "l",
                       "--out", tmp_path / "o") == 2
        assert "config file not found" in capsys.readouterr().err


class TestSplit:
    def test_split_is_deterministic_and_partitions(self):
        ids = [f"s{i:04d}" for i in range(1000)]
        splits = [split_of(i) for i in ids]
        assert splits == [split_of(i) for i in ids]
        counts = {s: splits.count(s) for s in ("train", "val", "test")}
        assert sum(counts.values()) == 1000
        assert counts["train"] > counts["val"] > 0
        assert counts["test"] > 0
