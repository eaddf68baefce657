"""Command-line entry point.

Subcommands: ingest, synth, score, train, eval, ablate. Every command
that writes outputs drops a manifest.json with config and input/output
digests next to them, and takes an exclusive lock on the output
directory. Flags override values from an optional YAML --config file,
which overrides built-in defaults.

Exit codes: 0 success, 1 internal failure, 2 usage or input error or a
diverged run (non-finite scores or parameters in training or the dense fit).

Each command runs with the cyclic garbage collector off (see `main`).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import math
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
    MODES, TrainConfig, ablation_runs, check_prefixes, encode_slates, evaluate_ranker,
    load_ranker, load_resume, rank_slates, save_ranker, steps_per_epoch, train,
    train_and_evaluate, training_data,
)

LOCK_NAME = ".currank.lock"
CGROUP_CPU_MAX = Path("/sys/fs/cgroup/cpu.max")  # cgroup v2: "<quota> <period>" or "max <period>"
BUNDLE_FILES = ("documents.jsonl", "sessions.jsonl", "contexts.jsonl")
FIT_FLAGS = ("fit_epochs", "fit_batch_size", "fit_lr", "d_emb", "hidden")  # score --fit's


class CliError(Exception):
    def __init__(self, message: str, exit_code: int = 2):
        super().__init__(message)
        self.exit_code = exit_code


@contextlib.contextmanager
def output_lock(out_dir: Path):
    """Lock `out_dir`; on the way out, rmdir it if this lock created it and it is empty."""
    created = not out_dir.exists()
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
        if created:
            with contextlib.suppress(OSError):  # not empty
                out_dir.rmdir()


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


def in_split(records: list, split: str) -> list:
    """The sessions or contexts whose session id (each hashed once) falls in `split`."""
    keep = {s for s in {r.session_id for r in records} if split_of(s) == split}
    return [r for r in records if r.session_id in keep]


def bundle_paths(bundle_dir: Path) -> list[Path]:
    return [bundle_dir / name for name in BUNDLE_FILES]


def input_path(path, what: str) -> Path:
    """`path` as a Path; a missing one is an input error (exit 2)."""
    path = Path(path)
    if not path.exists():
        raise CliError(f"{what} not found: {path}")
    return path


def output_path(path: str) -> Path:
    """`--out` as a Path; a file there or above it is an input error (exit 2)."""
    out = Path(path)
    if not (found := next(p for p in (out, *out.parents) if p.exists())).is_dir():
        raise CliError(f"--out {out}: {found} is not a directory")
    return out


def read_checkpoint(path: Path, load, *args):
    """`load(path, *args)`; a checkpoint it cannot take is an input error (exit 2)."""
    try:
        return load(path, *args)
    except (AttributeError, IndexError, KeyError, OverflowError, TypeError) as e:
        raise CliError(f"{path}: malformed checkpoint: {e!r}") from e


def load_bundle(bundle_dir: Path, sessions: bool = True, contexts: bool = True):
    """(sessions, documents, contexts) of a bundle, with None for the
    sessions or contexts a command does not ask for. Every bundle file
    must exist either way: the command's manifest digests all three. A
    malformed record is an input error naming its file."""
    docs_path, sessions_path, contexts_path = [
        input_path(path, "bundle file") for path in bundle_paths(bundle_dir)]

    def read(path, reader):
        with open(path) as fp:
            try:
                return reader(fp)
            except KeyError as e:
                raise CliError(f"{path}: malformed record: no {e} entry")
            except (TypeError, ValueError) as e:
                raise CliError(f"{path}: malformed record: {e}")

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
    paths = bundle_paths(out_dir)  # documents, sessions, contexts
    for path, write, records in zip(paths, (write_documents, write_sessions, write_contexts),
                                    (documents, sessions, contexts)):
        with open(path, "w") as fp:
            write(records, fp)
    return paths


@contextlib.contextmanager
def command_output(args, config: dict, inputs: list[Path], seed: int | None = None):
    """Lock `args.out` and yield (out_dir, outputs, manifest): the command
    lists what it writes in `outputs` and may set the manifest's
    scorer_digest. The manifest, digesting `inputs` and `outputs`, is
    written when the body returns; a body that raises leaves none."""
    out_dir = Path(args.out)
    with output_lock(out_dir):
        outputs: list[Path] = []
        manifest = RunManifest(args.command, config, seed, {}, {})
        yield out_dir, outputs, manifest
        manifest.input_digests = digest_paths(inputs)
        manifest.output_digests = digest_paths(outputs, base=out_dir)
        write_manifest(out_dir, manifest)


# ---------------------------------------------------------------------------
# Commands


def cmd_ingest(args) -> int:
    log_path = input_path(args.log, "log file")
    with open(log_path) as fp:
        try:
            sessions, documents = parse_sessions(fp)
        except SessionLogError as e:
            raise CliError(f"{log_path}: {e}")
    contexts, skipped = build_contexts(sessions, documents, window=args.window)
    config = {"log": str(log_path), "window": args.window}
    with command_output(args, config, [log_path]) as (out_dir, outputs, _):
        outputs += write_bundle(out_dir, sessions, documents, contexts)
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
    config = {**asdict(spec), "window": args.window}
    with command_output(args, config, [], args.seed) as (out_dir, outputs, _):
        log_path, labels_path = out_dir / "log.jsonl", out_dir / "labels.jsonl"
        outputs += [*write_bundle(out_dir, sessions, documents, contexts),
                    log_path, labels_path]
        with open(log_path, "w") as fp:
            synth.write_session_log(sessions, documents, fp)
        with open(labels_path, "w") as fp:
            synth.write_labels(labels, fp)

    # Post-generation audit: does the click land on the session topic?
    clicks = [doc_id.startswith(f"d{labels[session.session_id]:03d}_")
              for session in sessions for inter in session.interactions
              for doc_id in inter.clicked_doc_ids]
    total, on_topic = len(clicks), sum(clicks)
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
    contexts_by_id = {c.context_id: c for c in train_contexts}
    tokens_by_id = {cid: c.context_tokens for cid, c in contexts_by_id.items()}
    if args.checkpoint:
        params, ckpt_vocab, _, _ = read_checkpoint(
            args.checkpoint, checkpoint.load_checkpoint, "dense-scorer")
        return DenseScorer(params, ckpt_vocab,
                           encode_corpus(ckpt_vocab, documents, tokens_by_id))
    if not args.fit:
        raise CliError("dense scorer needs --checkpoint or --fit")
    corpus = encode_corpus(vocab, documents, tokens_by_id)
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
    pos_kind = args.pos_scorer or args.scorer
    neg_kind = args.neg_scorer or args.scorer
    if "dense" not in (pos_kind, neg_kind) and (args.fit or args.checkpoint):
        raise CliError(f"--{'fit' if args.fit else 'checkpoint'} needs a dense scorer; "
                       f"both curricula use {pos_kind}")
    bundle_dir = Path(args.bundle)
    config = {
        "bundle": str(bundle_dir), "pos_scorer": pos_kind,
        "neg_scorer": neg_kind, "k1": args.k1, "b": args.b,
        "fit": args.fit, **{k: vars(args)[k] for k in FIT_FLAGS if args.fit},
    }
    inputs = bundle_paths(bundle_dir)
    if args.checkpoint:
        config["checkpoint"] = str(args.checkpoint)
        inputs.append(input_path(args.checkpoint, "checkpoint"))
    _, documents, contexts = load_bundle(bundle_dir, sessions=False)
    train_contexts = in_split(contexts, "train")
    if not train_contexts:
        raise CliError("no training-split contexts in bundle")
    check_documents(train_contexts, documents)  # build_ledger and the dense fit rely on it
    vocab = build_vocab(documents, contexts)
    with command_output(args, config, inputs, args.seed) as (out_dir, outputs, manifest):
        pos_scorer = _make_scorer(pos_kind, args, documents, train_contexts, vocab, out_dir)
        neg_scorer = (
            pos_scorer if neg_kind == pos_kind
            else _make_scorer(neg_kind, args, documents, train_contexts, vocab, out_dir)
        )
        ledger = build_ledger(pos_scorer, neg_scorer, train_contexts)
        if "dense" in (pos_kind, neg_kind) and not args.checkpoint:
            outputs.append(out_dir / "dense_scorer.bin")
        outputs.append(out_dir / "ledger.json")
        save_ledger(ledger, outputs[-1])
        manifest.scorer_digest = f"{ledger.pos_scorer_digest}/{ledger.neg_scorer_digest}"
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
    bundle_dir, ledger_path = Path(args.bundle), input_path(args.ledger, "ledger file")
    sessions, documents, contexts = load_bundle(bundle_dir)
    ledger = load_ledger(ledger_path)
    vocab = build_vocab(documents, contexts)
    val_items = build_eval_items(in_split(sessions, "val"), documents)
    data = training_data(vocab, documents, in_split(contexts, "train"), ledger)
    slates = encode_slates(vocab, val_items, documents) if val_items else None
    return ledger, data, slates, bundle_paths(bundle_dir) + [ledger_path]


def cmd_train(args) -> int:
    resume_path = input_path(args.resume, "checkpoint") if args.resume else None
    ledger, data, slates, inputs = _load_training_inputs(args)
    config = _train_config_from(args, len(ledger.positives))
    resume = resume_path and read_checkpoint(resume_path, load_resume, config, data.vocab)
    with command_output(args, asdict(config), inputs, args.seed) as (
            out_dir, outputs, manifest):
        params, log = train(config, data, slates, checkpoint_dir=out_dir, resume=resume)
        ckpt_path, log_path = out_dir / "checkpoint.bin", out_dir / "trainlog.jsonl"
        lines = [checkpoint.strict_json(rec) + "\n"  # refused before anything is written
                 for rec in log.steps + [{"validation": rec} for rec in log.validations]]
        save_ranker(ckpt_path, params, data.vocab)
        log_path.write_text("".join(lines))
        outputs += [ckpt_path, *log.checkpoints, log_path]
        manifest.scorer_digest = f"{ledger.pos_scorer_digest}/{ledger.neg_scorer_digest}"
    print(f"steps: {len(log.steps)} (T={config.pacing.T}, mode={config.mode})")
    if log.validations:
        last = log.validations[-1]
        print(f"final validation MAP: {last['MAP']:.4f}")
    return 0


def cmd_eval(args) -> int:
    bundle_dir, ckpt_path = Path(args.bundle), input_path(args.checkpoint, "checkpoint")
    sessions, documents, _ = load_bundle(bundle_dir, contexts=False)
    params, vocab = read_checkpoint(ckpt_path, load_ranker)
    items = build_eval_items(in_split(sessions, args.split), documents)
    if not items:
        raise CliError(f"no evaluable interactions in split {args.split!r}")
    slates = encode_slates(vocab, items, documents)
    ranked = list(rank_slates(slates, slates.scores(params)))
    table = evaluate_run(query_gains(ranked))
    config = {"bundle": str(bundle_dir), "checkpoint": str(ckpt_path), "split": args.split,
              "tag": args.tag}
    inputs = bundle_paths(bundle_dir) + [ckpt_path]
    with command_output(args, config, inputs) as (out_dir, outputs, _):
        outputs += [out_dir / "run.txt", out_dir / "qrels.txt", out_dir / "metrics.json"]
        with open(outputs[0], "w") as fp:
            write_run_file(ranked, args.tag, fp)
        with open(outputs[1], "w") as fp:
            write_qrels(ranked, fp)
        outputs[2].write_text(checkpoint.strict_json(asdict(table), indent=2) + "\n")
    for name, value in table.metrics.items():
        print(f"{name}: {value:.4f}")
    print(f"queries evaluated: {table.evaluated_queries} "
          f"(skipped without relevant: {table.skipped_queries})")
    contexts = slates.corpus.contexts
    unknown = int(np.count_nonzero(contexts.ids == vocab.index[towers.UNK_TOKEN]))
    total = int(contexts.lengths.sum())
    print(f"unknown context tokens: {unknown / total:.4f}")
    if unknown:
        print(f"warning: {unknown} of {total} context tokens ({unknown / total:.2%}) are "
              f"not in the checkpoint's vocabulary and map to {towers.UNK_TOKEN}",
              file=sys.stderr)
    return 0


def usable_cpus() -> int:
    """The CPUs this process may run on (affinity mask, else CPU count), capped at
    ceil(quota / period) of CGROUP_CPU_MAX; no cap for "max" or a file not read."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    with contextlib.suppress(OSError, ValueError, ZeroDivisionError):
        quota, period = CGROUP_CPU_MAX.read_text().split()
        cpus = min(cpus, max(1, math.ceil(int(quota) / int(period))))
    return cpus


def _init_ablation_worker(data, slates) -> None:
    """Keep the inputs (inherited under fork); pin OpenBLAS to one thread, best effort."""
    global _ablation_inputs
    _ablation_inputs = data, slates
    with contextlib.suppress(OSError), open("/proc/self/maps") as fp:  # no /proc: no pin
        libs = {ln.rstrip("\n").split(maxsplit=5)[5] for ln in fp  # field 6, the path
                if "openblas" in ln and ln.rstrip().endswith(".so")}
        for lib in map(ctypes.CDLL, sorted(libs)):
            for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_"):
                getattr(lib, name, lambda threads: None)(ctypes.c_int(1))


def _ablation_run(task: tuple[dict, TrainConfig]) -> dict:
    return train_and_evaluate(task[1], *_ablation_inputs, **task[0])


def cmd_ablate(args) -> int:
    ledger, data, slates, inputs = _load_training_inputs(args)  # shared by every run
    if slates is None:
        raise CliError("ablation needs a non-empty validation split")
    base = _train_config_from(args, len(ledger.positives))
    deltas, etas = ([float(x) for x in f.split(",")] for f in (args.grid_deltas, args.grid_etas))
    runs = ablation_runs(base, deltas, etas)
    for _, config in runs:
        check_prefixes(config, data.columns)  # every run, before the first

    # One forked worker per usable CPU; map gives the rows back in run order. Imported
    # here, since these modules add about 2 MB of RSS that no other command needs.
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context
    config = {**asdict(base), "grid_deltas": deltas, "grid_etas": etas}
    with command_output(args, config, inputs, args.seed) as (out_dir, outputs, _), \
            ProcessPoolExecutor(min(usable_cpus(), len(runs)), get_context("fork"),
                                _init_ablation_worker, (data, slates)) as pool:
        payload = {"modes": [], "grid": []}
        for row in pool.map(_ablation_run, runs):
            payload["modes" if "mode" in row else "grid"].append(row)
            print(f"mode {row['mode']:>14s}: MAP={row['MAP']:.4f} MRR={row['MRR']:.4f}"
                  if "mode" in row else
                  f"delta={row['delta']:.2f} eta={row['eta']:.2f}: MAP={row['MAP']:.4f}")
        outputs.append(out_dir / "ablation.json")
        outputs[0].write_text(checkpoint.strict_json(payload, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ledger", required=True)
    p.add_argument("--mode", default=TrainConfig.mode, choices=MODES)
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--steps", type=int, default=None,
                   help="total optimizer steps T (overrides --epochs)")
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--m", type=int, default=TrainConfig.m, help="negatives per positive")
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--momentum", type=float, default=TrainConfig.momentum)
    p.add_argument("--delta", type=float, default=PacingParams.delta)
    p.add_argument("--eta", type=float, default=PacingParams.eta)
    p.add_argument("--alpha", type=float, default=PacingParams.alpha)
    p.add_argument("--beta", type=float, default=PacingParams.beta)
    p.add_argument("--k", type=float, default=PacingParams.k)
    p.add_argument("--d-emb", type=int, default=TrainConfig.d_emb)
    p.add_argument("--hidden", type=int, default=TrainConfig.hidden)
    p.add_argument("--tau", type=float, default=TrainConfig.tau)
    p.add_argument("--checkpoint-interval", type=int, default=TrainConfig.checkpoint_interval)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="currank",
        description="Dual-curriculum training for context-aware ranking",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)  # flags of every command
    common.add_argument("--config", default=None)
    common.add_argument("--out", required=True, type=output_path)  # checked as it is parsed
    reads_bundle = argparse.ArgumentParser(add_help=False, parents=[common])
    reads_bundle.add_argument("--bundle", required=True)

    p = sub.add_parser("ingest", parents=[common],
                       help="parse a session log into a corpus bundle")
    p.add_argument("--log", required=True)
    p.add_argument("--window", type=int, default=DEFAULT_NEGATIVE_WINDOW)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic corpus bundle")
    p.add_argument("--sessions", type=int, required=True)
    p.add_argument("--vocab-size", type=int, default=synth.SynthSpec.vocab_size)
    p.add_argument("--topics", type=int, default=synth.SynthSpec.n_topics)
    p.add_argument("--queries", type=int, default=synth.SynthSpec.queries_per_session)
    p.add_argument("--candidates", type=int, default=synth.SynthSpec.candidates_per_query)
    p.add_argument("--noise", type=float, default=synth.SynthSpec.noise_rate)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--window", type=int, default=DEFAULT_NEGATIVE_WINDOW)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("score", parents=[reads_bundle], help="build a difficulty ledger")
    p.add_argument("--scorer", default="bm25", choices=("bm25", "dense"))
    p.add_argument("--pos-scorer", default=None, choices=("bm25", "dense"))
    p.add_argument("--neg-scorer", default=None, choices=("bm25", "dense"))
    p.add_argument("--k1", type=float, default=bm25.Bm25Params.k1)
    p.add_argument("--b", type=float, default=bm25.Bm25Params.b)
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
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("train", parents=[reads_bundle],
                       help="train the ranker with the dual curriculum")
    p.add_argument("--resume", default=None, help="checkpoint to resume from")
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[reads_bundle], help="evaluate a trained checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.add_argument("--tag", default="currank")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", parents=[reads_bundle],
                       help="run curriculum-mode ablations and the delta/eta grid")
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
    path = input_path(known.config, "config file")
    try:
        data = yaml.safe_load(path.read_text()) or {}
    except yaml.YAMLError as e:
        raise CliError(f"config file {path} is not valid YAML: {e}")
    if not isinstance(data, dict):
        raise CliError(f"config file {path} must be a mapping")
    entries = {str(key).replace("-", "_"): (key, value) for key, value in data.items()}
    subs = [sub for action in parser._subparsers._group_actions
            for sub in action.choices.values()]
    flags = [{a.dest: a for a in sub._actions} for sub in subs]
    # A key of another command is allowed: one file may serve several.
    unknown = sorted(str(k) for k in data if str(k).replace("-", "_") not in set().union(*flags))
    if unknown:
        raise CliError(f"config file {path}: no command takes {', '.join(unknown)}")
    for sub, actions in zip(subs, flags):
        sub.set_defaults(**{dest: _flag_value(path, key, actions[dest], value)
                            for dest, (key, value) in entries.items() if dest in actions})


def _flag_value(path: Path, key, action: argparse.Action, value):
    """A config file's `value` for `key`, parsed as its flag would be: by the
    flag's type and choices. A switch such as --fit takes only true or false."""
    with contextlib.suppress(ValueError):
        value = value if action.nargs == 0 else (action.type or str)(str(value))
        if type(value) is bool if action.nargs == 0 else value in (action.choices or [value]):
            return value
    raise CliError(f"config file {path}: {key}: invalid value {value!r}")


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
    except (SessionLogError, ValueError, FloatingPointError) as e:  # the last: a run diverged
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
