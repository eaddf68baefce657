"""Command-line entry point.

Subcommands: ingest, synth, score, train, eval, ablate. Every command
that writes outputs drops a manifest.json with config and input/output
digests next to them, and takes an exclusive lock on the output
directory. Flags override values from an optional YAML --config file,
which overrides built-in defaults.

Exit codes: 0 success, 1 internal failure, 2 usage or input error.

Each command runs with the cyclic garbage collector off (see `main`).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import yaml

from . import __version__, bm25, checkpoint, dense, synth, towers
from .curriculum import PacingParams, build_ledger, check_documents, load_ledger, save_ledger
from .manifest import RunManifest, digest_paths, write_manifest
from .metrics import evaluate_run, query_gains, write_qrels, write_run_file
from .ranker import rank_slate  # noqa: F401 -- perfbench/spans.py traces it here
from .scorers import Bm25Scorer, DenseScorer
from .sessions import (
    DEFAULT_NEGATIVE_WINDOW, SEP_TOKEN, SessionLogError,
    build_contexts, build_eval_items, parse_sessions,
    read_contexts, read_documents, read_sessions,
    write_contexts, write_documents, write_sessions,
)
from .towers import Vocab, encode_corpus
from .trainer import (  # evaluate_ranker: perfbench/spans.py traces it here
    MODES, TrainConfig, check_prefixes, encode_slates, evaluate_ranker,
    load_ranker, rank_slates, save_ranker, steps_per_epoch, sweep, train,
    train_and_evaluate, training_data,
)

LOCK_NAME = ".currank.lock"
BUNDLE_FILES = ("documents.jsonl", "sessions.jsonl", "contexts.jsonl")


class CliError(Exception):
    def __init__(self, message: str, exit_code: int = 2):
        super().__init__(message)
        self.exit_code = exit_code


@contextlib.contextmanager
def output_lock(out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    lock = out_dir / LOCK_NAME
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise CliError(
            f"output directory {out_dir} is locked by another command "
            f"(pid {_lock_owner(lock)}); if no such command is running, "
            f"remove {lock}"
        )
    try:
        with os.fdopen(fd, "w") as fp:
            fp.write(f"{os.getpid()}\n")
        yield
    finally:
        lock.unlink(missing_ok=True)


def _lock_owner(lock: Path) -> str:
    """The pid recorded in a lock file, or "unknown"."""
    try:
        return lock.read_text().strip() or "unknown"
    except OSError:
        return "unknown"


def split_of(session_id: str) -> str:
    """Deterministic 8/1/1 train/val/test split keyed on the session id."""
    bucket = hashlib.sha1(session_id.encode()).digest()[0] % 10
    return "train" if bucket < 8 else ("val" if bucket == 8 else "test")


def in_split(records, split: str) -> list:
    """The sessions or contexts whose session id falls in `split`."""
    return [r for r in records if split_of(r.session_id) == split]


def bundle_paths(bundle_dir: Path) -> list[Path]:
    return [bundle_dir / name for name in BUNDLE_FILES]


def load_bundle(bundle_dir: Path, sessions: bool = True, contexts: bool = True):
    """(sessions, documents, contexts) of a bundle, with None for the
    sessions or contexts a command does not ask for. Every bundle file
    must exist either way: the command's manifest digests all three."""
    paths = bundle_paths(bundle_dir)
    for path in paths:
        if not path.exists():
            raise CliError(f"bundle file not found: {path}")
    docs_path, sessions_path, contexts_path = paths

    def read(path, reader):
        with open(path) as fp:
            return reader(fp)

    documents = read(docs_path, read_documents)
    return (read(sessions_path, read_sessions) if sessions else None,
            documents,
            read(contexts_path, read_contexts) if contexts else None)


def build_vocab(documents, contexts) -> Vocab:
    tokens: set[str] = {SEP_TOKEN}
    for doc in documents.values():
        tokens.update(doc.title_tokens)
    for ctx in contexts:
        tokens.update(ctx.context_tokens)
    return Vocab(tokens)


def write_bundle(out_dir: Path, sessions, documents, contexts) -> list[Path]:
    paths = bundle_paths(out_dir)
    docs_path, sessions_path, contexts_path = paths
    with open(docs_path, "w") as fp:
        write_documents(documents, fp)
    with open(sessions_path, "w") as fp:
        write_sessions(sessions, fp)
    with open(contexts_path, "w") as fp:
        write_contexts(contexts, fp)
    return paths


def _emit_manifest(out_dir, command, config, seed, inputs, outputs, scorer_digest=""):
    write_manifest(
        out_dir,
        RunManifest(
            command=command,
            config=config,
            master_seed=seed,
            input_digests=digest_paths(inputs),
            output_digests=digest_paths(outputs, base=out_dir),
            scorer_digest=scorer_digest,
        ),
    )


# ---------------------------------------------------------------------------
# Commands


def cmd_ingest(args) -> int:
    log_path = Path(args.log)
    if not log_path.exists():
        raise CliError(f"log file not found: {log_path}")
    with open(log_path) as fp:
        try:
            sessions, documents = parse_sessions(fp)
        except SessionLogError as e:
            raise CliError(f"{log_path}: {e}")
    contexts, skipped = build_contexts(sessions, documents, window=args.window)
    out_dir = Path(args.out)
    with output_lock(out_dir):
        outputs = write_bundle(out_dir, sessions, documents, contexts)
        _emit_manifest(
            out_dir, "ingest",
            {"log": str(log_path), "window": args.window},
            None, [log_path], outputs,
        )
    print(f"sessions: {len(sessions)}")
    print(f"documents: {len(documents)}")
    print(f"contexts: {len(contexts)}")
    print(f"clickless interactions skipped: {skipped}")
    return 0


def cmd_synth(args) -> int:
    spec = synth.SynthSpec(
        n_sessions=args.sessions,
        vocab_size=args.vocab_size,
        n_topics=args.topics,
        queries_per_session=args.queries,
        candidates_per_query=args.candidates,
        noise_rate=args.noise,
        seed=args.seed,
    )
    sessions, documents, labels = synth.generate_synthetic(spec)
    contexts, _ = build_contexts(sessions, documents, window=args.window)
    out_dir = Path(args.out)
    with output_lock(out_dir):
        outputs = write_bundle(out_dir, sessions, documents, contexts)
        with open(out_dir / "log.jsonl", "w") as fp:
            synth.write_session_log(sessions, documents, fp)
        with open(out_dir / "labels.jsonl", "w") as fp:
            synth.write_labels(labels, fp)
        outputs += [out_dir / "log.jsonl", out_dir / "labels.jsonl"]

        # Post-generation audit: does the click land on the session topic?
        total = on_topic = 0
        for session in sessions:
            topic = labels[session.session_id]
            for inter in session.interactions:
                for doc_id in inter.clicked_doc_ids:
                    total += 1
                    if doc_id.startswith(f"d{topic:03d}_"):
                        on_topic += 1
        _emit_manifest(
            out_dir, "synth", asdict(spec), args.seed, [], outputs,
        )
    print(f"sessions: {len(sessions)}")
    print(f"documents: {len(documents)}")
    print(f"contexts: {len(contexts)}")
    print(f"on-topic click fraction: {on_topic / total:.4f}")
    if args.noise == 0.0 and on_topic != total:
        raise CliError("separability audit failed with noise 0", exit_code=1)
    return 0


def _make_scorer(kind: str, args, documents, train_contexts, vocab, out_dir):
    if kind == "bm25":
        index = bm25.build_index(documents)
        return Bm25Scorer(index, bm25.Bm25Params(k1=args.k1, b=args.b))
    if kind != "dense":
        raise CliError(f"unknown scorer kind {kind!r}")
    contexts_by_id = {c.context_id: c for c in train_contexts}
    if args.checkpoint:
        params, ckpt_vocab, _, _ = checkpoint.load_checkpoint(
            args.checkpoint, expect_kind="dense-scorer"
        )
        return DenseScorer(params, ckpt_vocab,
                           encode_corpus(ckpt_vocab, documents, contexts_by_id))
    if not args.fit:
        raise CliError("dense scorer needs --checkpoint or --fit")
    check_documents(train_contexts, documents)  # before the fit reads the positives
    corpus = encode_corpus(vocab, documents, contexts_by_id)
    rng = np.random.default_rng([args.seed, 2])
    params = towers.init_params(len(vocab), args.d_emb, args.hidden, rng)
    positive_rows = [corpus.doc_row[c.positive_doc_id] for c in contexts_by_id.values()]
    losses = dense.train_in_batch(
        params, corpus.contexts, corpus.docs.take(positive_rows),
        batch_size=args.fit_batch_size, epochs=args.fit_epochs,
        learning_rate=args.fit_lr, seed=args.seed,
    )
    checkpoint.save_checkpoint(out_dir / "dense_scorer.bin", "dense-scorer", params, vocab,
                               meta={"fit_losses": losses})
    print("dense fit losses: " + " ".join(f"{loss:.6f}" for loss in losses))
    return DenseScorer(params, vocab, corpus)


def cmd_score(args) -> int:
    if args.fit and args.checkpoint:
        raise CliError("--fit and --checkpoint exclude each other: --fit trains "
                       "a new dense scorer, --checkpoint loads a trained one")
    if args.checkpoint and not Path(args.checkpoint).exists():
        raise CliError(f"checkpoint not found: {args.checkpoint}")
    bundle_dir = Path(args.bundle)
    _, documents, contexts = load_bundle(bundle_dir, sessions=False)
    train_contexts = in_split(contexts, "train")
    if not train_contexts:
        raise CliError("no training-split contexts in bundle")
    vocab = build_vocab(documents, contexts)
    out_dir = Path(args.out)
    pos_kind = args.pos_scorer or args.scorer
    neg_kind = args.neg_scorer or args.scorer
    with output_lock(out_dir):
        pos_scorer = _make_scorer(pos_kind, args, documents, train_contexts, vocab, out_dir)
        neg_scorer = (
            pos_scorer if neg_kind == pos_kind
            else _make_scorer(neg_kind, args, documents, train_contexts, vocab, out_dir)
        )
        ledger = build_ledger(pos_scorer, neg_scorer, train_contexts)
        outputs = [out_dir / "ledger.json"]
        save_ledger(ledger, outputs[0])
        if "dense" in (pos_kind, neg_kind) and not args.checkpoint:
            outputs.insert(0, out_dir / "dense_scorer.bin")
        config = {
            "bundle": str(bundle_dir), "pos_scorer": pos_kind,
            "neg_scorer": neg_kind, "k1": args.k1, "b": args.b,
            "fit": args.fit,
        }
        inputs = bundle_paths(bundle_dir)
        if args.checkpoint:
            config["checkpoint"] = str(args.checkpoint)
            inputs.append(Path(args.checkpoint))
        _emit_manifest(
            out_dir, "score", config, args.seed, inputs, outputs,
            scorer_digest=f"{ledger.pos_scorer_digest}/{ledger.neg_scorer_digest}",
        )
    print(f"positives scored: {len(ledger.positives)}")
    print(f"pos scorer digest: {ledger.pos_scorer_digest}")
    print(f"neg scorer digest: {ledger.neg_scorer_digest}")
    return 0


def _train_config_from(args, n_positives: int) -> TrainConfig:
    config = TrainConfig(
        pacing=PacingParams(
            delta=args.delta, eta=args.eta, alpha=args.alpha, beta=args.beta,
            k=args.k, T=args.steps or 0,  # set from --epochs below if --steps is unset
        ),
        batch_size=args.batch_size,
        m=args.m,
        learning_rate=args.lr,
        optimizer=args.optimizer,
        momentum=args.momentum,
        seed=args.seed,
        checkpoint_interval=args.checkpoint_interval,
        mode=args.mode,
        d_emb=args.d_emb,
        hidden=args.hidden,
        tau=args.tau,
    )
    if args.steps is None:  # TrainConfig has checked the batch size by now
        T = args.epochs * steps_per_epoch(n_positives, config.batch_size)
        config = replace(config, pacing=replace(config.pacing, T=T))
    return config


def _load_training_inputs(args):
    """The training-split ledger, its encoded training data, the encoded
    validation slates (None if the split has none), and the input paths
    a training manifest digests."""
    bundle_dir = Path(args.bundle)
    sessions, documents, contexts = load_bundle(bundle_dir)
    ledger_path = Path(args.ledger)
    if not ledger_path.exists():
        raise CliError(f"ledger file not found: {ledger_path}")
    ledger = load_ledger(ledger_path, in_split(contexts, "train"))
    vocab = build_vocab(documents, contexts)
    val_items = build_eval_items(in_split(sessions, "val"), documents)
    data = training_data(vocab, documents, ledger)
    slates = encode_slates(vocab, val_items, documents) if val_items else None
    return ledger, data, slates, bundle_paths(bundle_dir) + [ledger_path]


def cmd_train(args) -> int:
    ledger, data, slates, inputs = _load_training_inputs(args)
    config = _train_config_from(args, len(ledger.positives))
    out_dir = Path(args.out)
    with output_lock(out_dir):
        params, log = train(
            config, data, slates,
            checkpoint_dir=out_dir if config.checkpoint_interval else None,
            resume_from=args.resume,
        )
        ckpt_path = out_dir / "checkpoint.bin"
        save_ranker(ckpt_path, params, data.vocab)
        log_path = out_dir / "trainlog.jsonl"
        with open(log_path, "w") as fp:
            for rec in log.steps:
                fp.write(json.dumps(rec, sort_keys=True) + "\n")
            for rec in log.validations:
                fp.write(json.dumps({"validation": rec}, sort_keys=True) + "\n")
        outputs = [ckpt_path, *log.checkpoints, log_path]
        _emit_manifest(
            out_dir, "train", asdict(config), args.seed, inputs, outputs,
            scorer_digest=f"{ledger.pos_scorer_digest}/{ledger.neg_scorer_digest}",
        )
    print(f"steps: {len(log.steps)} (T={config.pacing.T}, mode={config.mode})")
    if log.validations:
        last = log.validations[-1]
        print(f"final validation MAP: {last['MAP']:.4f}")
    return 0


def cmd_eval(args) -> int:
    bundle_dir = Path(args.bundle)
    sessions, documents, _ = load_bundle(bundle_dir, contexts=False)
    ckpt_path = Path(args.checkpoint)
    if not ckpt_path.exists():
        raise CliError(f"checkpoint not found: {ckpt_path}")
    params, vocab = load_ranker(ckpt_path)
    items = build_eval_items(in_split(sessions, args.split), documents)
    if not items:
        raise CliError(f"no evaluable interactions in split {args.split!r}")
    slates = encode_slates(vocab, items, documents)
    ranked = list(rank_slates(slates, slates.scorer(params)))
    table = evaluate_run(query_gains(ranked))
    out_dir = Path(args.out)
    with output_lock(out_dir):
        with open(out_dir / "run.txt", "w") as fp:
            write_run_file(ranked, args.tag, fp)
        with open(out_dir / "qrels.txt", "w") as fp:
            write_qrels(ranked, fp)
        metrics_payload = {
            "metrics": table.metrics,
            "evaluated_queries": table.evaluated_queries,
            "skipped_queries": table.skipped_queries,
        }
        (out_dir / "metrics.json").write_text(
            json.dumps(metrics_payload, sort_keys=True, indent=2) + "\n"
        )
        outputs = [out_dir / "run.txt", out_dir / "qrels.txt", out_dir / "metrics.json"]
        _emit_manifest(
            out_dir, "eval",
            {"bundle": str(bundle_dir), "checkpoint": str(ckpt_path),
             "split": args.split},
            None, bundle_paths(bundle_dir) + [ckpt_path], outputs,
        )
    for name, value in table.metrics.items():
        print(f"{name}: {value:.4f}")
    print(f"queries evaluated: {table.evaluated_queries} "
          f"(skipped without relevant: {table.skipped_queries})")
    return 0


def cmd_ablate(args) -> int:
    ledger, data, slates, inputs = _load_training_inputs(args)  # shared by every run
    if slates is None:
        raise CliError("ablation needs a non-empty validation split")
    base = _train_config_from(args, len(ledger.positives))
    deltas = [float(x) for x in args.grid_deltas.split(",")]
    etas = [float(x) for x in args.grid_etas.split(",")]
    for config in [replace(base, mode=mode) for mode in MODES] + [
            replace(base, pacing=replace(base.pacing, delta=d, eta=e))
            for d in deltas for e in etas]:
        check_prefixes(config, data.columns)  # every run, before the first

    mode_rows = []
    for mode in MODES:
        row = train_and_evaluate(replace(base, mode=mode), data, slates, mode=mode)
        mode_rows.append(row)
        print(f"mode {mode:>14s}: MAP={row['MAP']:.4f} MRR={row['MRR']:.4f}")

    grid_rows = sweep(base, data, deltas, etas, slates)
    for row in grid_rows:
        print(f"delta={row['delta']:.2f} eta={row['eta']:.2f}: MAP={row['MAP']:.4f}")

    out_dir = Path(args.out)
    with output_lock(out_dir):
        payload = {"modes": mode_rows, "grid": grid_rows}
        (out_dir / "ablation.json").write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n"
        )
        _emit_manifest(
            out_dir, "ablate", asdict(base), args.seed, inputs,
            [out_dir / "ablation.json"],
        )
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", default="dual", choices=MODES)
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--steps", type=int, default=None,
                   help="total optimizer steps T (overrides --epochs)")
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--m", type=int, default=2, help="negatives per positive")
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--optimizer", default="momentum", choices=("sgd", "momentum"))
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--delta", type=float, default=0.3)
    p.add_argument("--eta", type=float, default=0.7)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--k", type=float, default=2.0)
    p.add_argument("--d-emb", type=int, default=32)
    p.add_argument("--hidden", type=int, default=32)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--checkpoint-interval", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="currank",
        description="Dual-curriculum training for context-aware ranking",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse a session log into a corpus bundle")
    p.add_argument("--config", default=None)
    p.add_argument("--log", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--window", type=int, default=DEFAULT_NEGATIVE_WINDOW)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="generate a synthetic corpus bundle")
    p.add_argument("--config", default=None)
    p.add_argument("--sessions", type=int, required=True)
    p.add_argument("--vocab-size", type=int, default=400)
    p.add_argument("--topics", type=int, default=20)
    p.add_argument("--queries", type=int, default=3)
    p.add_argument("--candidates", type=int, default=10)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--window", type=int, default=DEFAULT_NEGATIVE_WINDOW)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("score", help="build a difficulty ledger")
    p.add_argument("--config", default=None)
    p.add_argument("--bundle", required=True)
    p.add_argument("--scorer", default="bm25", choices=("bm25", "dense"))
    p.add_argument("--pos-scorer", default=None, choices=("bm25", "dense"))
    p.add_argument("--neg-scorer", default=None, choices=("bm25", "dense"))
    p.add_argument("--k1", type=float, default=1.2)
    p.add_argument("--b", type=float, default=0.75)
    p.add_argument("--checkpoint", default=None,
                   help="trained dense-scorer checkpoint")
    p.add_argument("--fit", action="store_true",
                   help="fit the dense scorer with in-batch negatives first")
    p.add_argument("--fit-epochs", type=int, default=3)
    p.add_argument("--fit-batch-size", type=int, default=32)
    p.add_argument("--fit-lr", type=float, default=0.1)
    p.add_argument("--d-emb", type=int, default=32)
    p.add_argument("--hidden", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("train", help="train the ranker with the dual curriculum")
    p.add_argument("--config", default=None)
    p.add_argument("--bundle", required=True)
    p.add_argument("--ledger", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--resume", default=None, help="checkpoint to resume from")
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained checkpoint")
    p.add_argument("--config", default=None)
    p.add_argument("--bundle", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.add_argument("--tag", default="currank")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="run curriculum-mode ablations and the "
                                      "delta/eta grid")
    p.add_argument("--config", default=None)
    p.add_argument("--bundle", required=True)
    p.add_argument("--ledger", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--grid-deltas", default="0.1,0.3,0.5")
    p.add_argument("--grid-etas", default="0.5,0.7,0.9")
    _add_train_flags(p)
    p.set_defaults(func=cmd_ablate)

    return parser


def _apply_config_file(parser, argv):
    """Use --config values as defaults so explicit flags still win."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", default=None)
    known, _ = pre.parse_known_args(argv)
    if not known.config:
        return
    path = Path(known.config)
    if not path.exists():
        raise CliError(f"config file not found: {path}")
    try:
        data = yaml.safe_load(path.read_text()) or {}
    except yaml.YAMLError as e:
        raise CliError(f"config file {path} is not valid YAML: {e}")
    if not isinstance(data, dict):
        raise CliError(f"config file {path} must be a mapping")
    defaults = {key.replace("-", "_"): value for key, value in data.items()}
    for action in parser._subparsers._group_actions:
        for sub in action.choices.values():
            known_dests = {a.dest for a in sub._actions}
            sub.set_defaults(**{k: v for k, v in defaults.items() if k in known_dests})


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    # Bundle, ledger and log I/O allocates millions of small acyclic
    # objects; each burst sets off the cyclic collector, which finds nothing
    # to free. gc.freeze() would not help: it only exempts objects that
    # already exist. The caller's setting comes back on return, since tests
    # and the benchmark run many commands in one process.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except (SessionLogError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # internal failure
        print(f"internal error: {e}", file=sys.stderr)
        return 1
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
