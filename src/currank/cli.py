"""Command-line entry point.

Subcommands: ingest, synth, score, train, eval, ablate. Every command
takes an exclusive lock on its output directory and leaves a manifest.json
next to its outputs (see `command_output`). Flags override values from an
optional YAML --config file, which overrides built-in defaults.

Exit codes: 0 success, 1 internal failure, 2 usage or input error or a
diverged run (non-finite scores or parameters in training or the dense fit).

Each command runs with the cyclic garbage collector off (see `main`).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import gc
import hashlib
import math
import os
import sys
from dataclasses import asdict, fields, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

from . import __version__, bm25, checkpoint, dense, synth, towers
from .curriculum import PacingParams, build_ledger, check_documents, load_ledger, save_ledger
from .metrics import evaluate_run, query_gains, write_qrels, write_run_file
from .ranker import rank_slate  # noqa: F401 -- perfbench/spans.py traces it here
from .scorers import Bm25Scorer, DenseScorer
from .sessions import (
    DEFAULT_NEGATIVE_WINDOW, SEP_TOKEN, build_contexts, build_eval_items, parse_sessions,
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
MANIFEST_NAME = "manifest.json"
CGROUP_CPU_MAX = Path("/sys/fs/cgroup/cpu.max")  # cgroup v2: "<quota> <period>" or "max <period>"
BUNDLE_FILES = ("documents.jsonl", "sessions.jsonl", "contexts.jsonl")
FIT_FLAGS = ("fit_epochs", "fit_batch_size", "fit_lr", "d_emb", "hidden")  # score --fit's


def split_of(session_id: str) -> str:
    """Deterministic 8/1/1 train/val/test split keyed on the session id."""
    bucket = hashlib.sha1(session_id.encode()).digest()[0] % 10
    return "train" if bucket < 8 else ("val" if bucket == 8 else "test")


def in_split(records: list, split: str, split_of=split_of) -> list:
    """The sessions or contexts whose session id `split_of` puts in `split`."""
    keep = {s for s in {r.session_id for r in records} if split_of(s) == split}
    return [r for r in records if r.session_id in keep]


def _fields_of(cls, args, *skip: str) -> dict:
    """The values in `args` of dataclass `cls`'s fields, less `skip`: each
    flag that sets a field has that field's name as its dest."""
    return {f.name: vars(args)[f.name] for f in fields(cls) if f.name not in skip}


def bundle_paths(bundle_dir: Path) -> list[Path]:
    return [bundle_dir / name for name in BUNDLE_FILES]


def input_path(path, what: str) -> Path:
    """`path` as a Path; a missing one is an input error (exit 2)."""
    path = Path(path)
    if not path.exists():
        raise ValueError(f"{what} not found: {path}")
    return path


def output_path(path: str) -> Path:
    """`--out` as a Path; a file there or above it is an input error (exit 2)."""
    out = Path(path)
    if not (found := next(p for p in (out, *out.parents) if p.exists())).is_dir():
        raise ValueError(f"--out {out}: {found} is not a directory")
    return out


def read_checkpoint(path: Path, load, *args):
    """`load(path, *args)`; a checkpoint it cannot take is an input error (exit 2)."""
    try:
        return load(path, *args)
    except (AttributeError, IndexError, KeyError, OverflowError, TypeError) as e:
        raise ValueError(f"{path}: malformed checkpoint: {e!r}") from e


def load_bundle(bundle_dir: Path, sessions: bool = True, contexts: bool = True,
                keep: Callable[[str], bool] | None = None):
    """(sessions, documents, contexts) of a bundle, with None for the sessions or
    contexts a command does not ask for, and only the sessions whose id `keep` accepts.
    Every bundle file must exist either way: the command's manifest digests all
    three. Every record is checked; a malformed one is an input error naming its file."""
    docs_path, sessions_path, contexts_path = [
        input_path(path, "bundle file") for path in bundle_paths(bundle_dir)]

    def read(path, reader):
        with open(path) as fp:
            try:
                return reader(fp)
            except KeyError as e:
                raise ValueError(f"{path}: malformed record: no {e} entry")
            except (TypeError, ValueError) as e:
                raise ValueError(f"{path}: malformed record: {e}")

    documents = read(docs_path, read_documents)
    return (read(sessions_path, lambda fp: read_sessions(fp, keep)) if sessions else None,
            documents,
            read(contexts_path, read_contexts) if contexts else None)


def build_vocab(documents, contexts) -> Vocab:
    tokens: set[str] = {SEP_TOKEN}
    for title in documents.values():
        tokens.update(title)
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


def digest_paths(paths: list[Path], base: Path | None = None) -> dict[str, str]:
    out = {}
    for p in paths:
        key = str(p.relative_to(base)) if base else str(p)
        out[key] = checkpoint.file_digest(p)
    return out


@contextlib.contextmanager
def command_output(args, config: dict, inputs: list[Path], seed: int | None = None):
    """Create and lock `args.out` and yield (out_dir, outputs, manifest): the
    command lists what it writes in `outputs` and may set the manifest's
    "scorer_digest". The manifest is the run's reproducibility record: the
    effective config, the master seed, and sha256 digests of `inputs` and
    `outputs`. Re-running the command with that config must reproduce the
    output digests byte for byte; only the manifest holds a timestamp. It is
    written when the body returns; a body that raises leaves none, and an
    --out created here is removed again if it is still empty."""
    out_dir = Path(args.out)
    created = not out_dir.exists()
    out_dir.mkdir(parents=True, exist_ok=True)
    lock = out_dir / LOCK_NAME
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        owner = "unknown"
        with contextlib.suppress(OSError):
            owner = lock.read_text().strip() or owner
        raise ValueError(f"output directory {out_dir} is locked by another command "
                         f"(pid {owner}); if no such command is running, remove {lock}")
    try:
        with os.fdopen(fd, "w") as fp:
            fp.write(f"{os.getpid()}\n")
        outputs: list[Path] = []
        manifest = {"scorer_digest": ""}
        yield out_dir, outputs, manifest
        manifest.update(command=args.command, config=config, master_seed=seed,
                        input_digests=digest_paths(inputs),
                        output_digests=digest_paths(outputs, base=out_dir),
                        tool_version=__version__,
                        created_at=datetime.now(timezone.utc).isoformat())
        checkpoint.write_atomic(out_dir / MANIFEST_NAME,
                                [(checkpoint.strict_json(manifest, indent=2) + "\n").encode()])
    finally:
        lock.unlink(missing_ok=True)
        if created:
            with contextlib.suppress(OSError):  # not empty
                out_dir.rmdir()


# ---------------------------------------------------------------------------
# Commands


def cmd_ingest(args) -> int:
    if args.window < 1:
        raise ValueError("--window must be >= 1")
    log_path = input_path(args.log, "log file")
    with open(log_path) as fp:
        try:
            sessions, documents = parse_sessions(fp)
            contexts, skipped = build_contexts(sessions, documents, window=args.window)
        except ValueError as e:
            raise ValueError(f"{log_path}: {e}")
    config = {"log": str(log_path), "window": args.window}
    with command_output(args, config, [log_path]) as (out_dir, outputs, _):
        outputs += write_bundle(out_dir, sessions, documents, contexts)
    print(f"sessions: {len(sessions)}")
    print(f"documents: {len(documents)}")
    print(f"contexts: {len(contexts)}")
    print(f"clickless interactions skipped: {skipped}")
    return 0


def cmd_synth(args) -> int:
    if args.window < 1:
        raise ValueError("--window must be >= 1")
    spec = synth.SynthSpec(**_fields_of(synth.SynthSpec, args))
    sessions, documents, labels = synth.generate_synthetic(spec)
    contexts, _ = build_contexts(sessions, documents, window=args.window)

    # Separability audit, before anything is written: does the click land on the session topic?
    clicks = [doc_id.startswith(f"d{labels[session.session_id]:03d}_")
              for session in sessions for inter in session.interactions
              for doc_id in inter.clicked_doc_ids]
    total, on_topic = len(clicks), sum(clicks)
    print(f"sessions: {len(sessions)}")
    print(f"documents: {len(documents)}")
    print(f"contexts: {len(contexts)}")
    print(f"on-topic click fraction: {on_topic / total:.4f}")
    if spec.noise_rate == 0.0 and on_topic != total:
        raise RuntimeError("separability audit failed with noise 0")  # exit 1

    config = {**asdict(spec), "window": args.window}
    with command_output(args, config, [], args.seed) as (out_dir, outputs, _):
        log_path, labels_path = out_dir / "log.jsonl", out_dir / "labels.jsonl"
        outputs += [*write_bundle(out_dir, sessions, documents, contexts),
                    log_path, labels_path]
        with open(log_path, "w") as fp:
            synth.write_session_log(sessions, documents, fp)
        with open(labels_path, "w") as fp:
            synth.write_labels(labels, fp)
    return 0


def _make_scorer(kind: str, args, documents, train_contexts, vocab):
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
    corpus = encode_corpus(vocab, documents, tokens_by_id)
    rng = np.random.default_rng([args.seed, 2])
    params = towers.init_params(len(vocab), args.d_emb, args.hidden, rng)
    positive_rows = [corpus.doc_row[c.positive_doc_id] for c in contexts_by_id.values()]
    losses = dense.train_in_batch(
        params, corpus.contexts, corpus.docs.take(positive_rows),
        batch_size=args.fit_batch_size, epochs=args.fit_epochs,
        learning_rate=args.fit_lr, seed=args.seed,
    )
    print("dense fit losses: " + " ".join(f"{loss:.6f}" for loss in losses))
    return DenseScorer(params, vocab, corpus, fit_losses=losses)


def cmd_score(args) -> int:
    if args.fit and args.checkpoint:
        raise ValueError("--fit and --checkpoint exclude each other: --fit trains "
                         "a new dense scorer, --checkpoint loads a trained one")
    pos_kind = args.pos_scorer or args.scorer
    neg_kind = args.neg_scorer or args.scorer
    if "dense" not in (pos_kind, neg_kind) and (args.fit or args.checkpoint):
        raise ValueError(f"--{'fit' if args.fit else 'checkpoint'} needs a dense scorer; "
                         f"both curricula use {pos_kind}")
    if "dense" in (pos_kind, neg_kind) and not (args.fit or args.checkpoint):
        raise ValueError("dense scorer needs --checkpoint or --fit")
    if args.fit:  # in-batch negatives need two pairs a batch
        for name, least in (("fit_epochs", 1), ("fit_batch_size", 2), ("d_emb", 1), ("hidden", 1),
                            ("seed", 0)):
            if vars(args)[name] < least:
                raise ValueError(f"--{name.replace('_', '-')} must be >= {least}")
        if not 0 < args.fit_lr < math.inf:  # NaN too
            raise ValueError("--fit-lr must be > 0 and finite")
    bundle_dir = Path(args.bundle)
    config = {
        "bundle": str(bundle_dir), "pos_scorer": pos_kind,
        "neg_scorer": neg_kind, **asdict(bm25.Bm25Params(args.k1, args.b)),  # refused here
        "fit": args.fit, **{k: vars(args)[k] for k in FIT_FLAGS if args.fit},
    }
    inputs = bundle_paths(bundle_dir)
    if args.checkpoint:
        config["checkpoint"] = str(args.checkpoint)
        inputs.append(input_path(args.checkpoint, "checkpoint"))
    _, documents, contexts = load_bundle(bundle_dir, sessions=False)
    train_contexts = in_split(contexts, "train")
    if not train_contexts:
        raise ValueError("no training-split contexts in bundle")
    check_documents(train_contexts, documents)  # build_ledger and the dense fit rely on it
    vocab = build_vocab(documents, contexts)
    with command_output(args, config, inputs, args.seed) as (out_dir, outputs, manifest):
        scorers = {kind: _make_scorer(kind, args, documents, train_contexts, vocab)
                   for kind in dict.fromkeys((pos_kind, neg_kind))}
        ledger = build_ledger(scorers[pos_kind], scorers[neg_kind], train_contexts)
        if args.fit:  # the fitted scorer is saved only once its ledger is built
            fitted = scorers["dense"]
            outputs.append(out_dir / "dense_scorer.bin")
            checkpoint.save_checkpoint(outputs[-1], "dense-scorer", fitted.params, fitted.vocab,
                                       meta={"fit_losses": fitted.fit_losses})
        outputs.append(out_dir / "ledger.json")
        save_ledger(ledger, outputs[-1])
        manifest["scorer_digest"] = f"{ledger.pos_scorer_digest}/{ledger.neg_scorer_digest}"
    print(f"positives scored: {len(ledger.context_ids)}")
    print(f"pos scorer digest: {ledger.pos_scorer_digest}")
    print(f"neg scorer digest: {ledger.neg_scorer_digest}")
    return 0


def _load_training_inputs(args):
    """The training config, its flags checked before any input is read and
    its T from --epochs once the ledger is read, unless --steps sets it;
    the training-split ledger, its encoded training data, the encoded
    validation slates (None if the split has none), and the input paths
    a training manifest digests."""
    for flag, value in (("--epochs", args.epochs), ("--steps", args.steps or 0),
                        ("--seed", args.seed)):
        if value < 0:
            raise ValueError(f"{flag} must be >= 0")
    if not args.learning_rate > 0:  # NaN too; TrainConfig's refusal names the field
        raise ValueError("--lr must be > 0")
    config = TrainConfig(PacingParams(T=args.steps or 0, **_fields_of(PacingParams, args, "T")),
                         **_fields_of(TrainConfig, args, "pacing"))
    bundle_dir, ledger_path = Path(args.bundle), input_path(args.ledger, "ledger file")
    split = functools.cache(split_of)  # this command's: it hashes each session id once
    sessions, documents, contexts = load_bundle(bundle_dir, keep=lambda s: split(s) == "val")
    ledger = load_ledger(ledger_path)
    if args.steps is None:
        T = args.epochs * steps_per_epoch(len(ledger.context_ids), config.batch_size)
        config = replace(config, pacing=replace(config.pacing, T=T))
    vocab = build_vocab(documents, contexts)
    val_items = build_eval_items(sessions, documents)
    data = training_data(vocab, documents, in_split(contexts, "train", split), ledger)
    slates = encode_slates(vocab, val_items, documents) if val_items else None
    return config, ledger, data, slates, bundle_paths(bundle_dir) + [ledger_path]


def cmd_train(args) -> int:
    resume_path = input_path(args.resume, "checkpoint") if args.resume else None
    config, ledger, data, slates, inputs = _load_training_inputs(args)
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
        manifest["scorer_digest"] = f"{ledger.pos_scorer_digest}/{ledger.neg_scorer_digest}"
    print(f"steps: {len(log.steps)} (T={config.pacing.T}, mode={config.mode})")
    if log.validations:
        last = log.validations[-1]
        print(f"final validation MAP: {last['MAP']:.4f}")
    return 0


def cmd_eval(args) -> int:
    if args.tag.split() != [args.tag]:  # run.txt's sixth and last column
        raise ValueError(f"--tag {args.tag!r} must be one word: not empty, no whitespace")
    bundle_dir, ckpt_path = Path(args.bundle), input_path(args.checkpoint, "checkpoint")
    sessions, documents, _ = load_bundle(bundle_dir, contexts=False,
                                         keep=lambda s: split_of(s) == args.split)
    params, vocab = read_checkpoint(ckpt_path, load_ranker)
    items = build_eval_items(sessions, documents)
    if not items:
        raise ValueError(f"no evaluable interactions in split {args.split!r}")
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
    ceil(quota / period) of CGROUP_CPU_MAX or, without it, of cgroup v1's cpu/cpu.cfs_*_us
    beside it; no cap for a quota of "max" or -1, or for files not read."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    files = [CGROUP_CPU_MAX] if CGROUP_CPU_MAX.exists() else [
        CGROUP_CPU_MAX.parent / "cpu" / f"cpu.cfs_{name}_us" for name in ("quota", "period")]
    with contextlib.suppress(OSError, ValueError, ZeroDivisionError):
        quota, period = map(int, " ".join(f.read_text() for f in files).split())
        if quota > 0:
            cpus = min(cpus, max(1, math.ceil(quota / period)))
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
    base, _, data, slates, inputs = _load_training_inputs(args)  # shared by every run
    if slates is None:
        raise ValueError("ablation needs a non-empty validation split")
    runs = ablation_runs(base, args.grid_deltas, args.grid_etas)
    for _, config in runs:
        check_prefixes(config, data.columns)  # every run, before the first

    # One forked worker per usable CPU; map gives the rows back in run order. Imported
    # here, since these modules add about 2 MB of RSS that no other command needs.
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context
    config = {**asdict(base), "grid_deltas": args.grid_deltas, "grid_etas": args.grid_etas}
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
    p.add_argument("--lr", dest="learning_rate", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--momentum", type=float, default=TrainConfig.momentum)
    p.add_argument("--delta", type=float, default=PacingParams.delta)
    p.add_argument("--eta", type=float, default=PacingParams.eta)
    p.add_argument("--alpha", type=float, default=PacingParams.alpha)
    p.add_argument("--beta", type=float, default=PacingParams.beta)
    p.add_argument("--k", type=float, default=PacingParams.k)
    p.add_argument("--d-emb", type=int, default=TrainConfig.d_emb)
    p.add_argument("--hidden", type=int, default=TrainConfig.hidden)
    p.add_argument("--tau", type=float, default=TrainConfig.tau)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)


def grid_values(text: str) -> list[float]:
    """A grid flag's comma-separated values: distinct, each in (0, 1]."""
    with contextlib.suppress(ValueError):
        values = [float(x) for x in text.split(",")]
        if len(set(values)) == len(values) and all(0 < v <= 1 for v in values):
            return values
    raise argparse.ArgumentTypeError(f"{text!r} is not a list of distinct numbers in (0, 1]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="currank",
        description="Dual-curriculum training for context-aware ranking",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)  # flags of every command
    common.add_argument("--config", default=None)
    common.add_argument("--out", required=True)
    reads_bundle = argparse.ArgumentParser(add_help=False, parents=[common])
    reads_bundle.add_argument("--bundle", required=True)

    p = sub.add_parser("ingest", parents=[common],
                       help="parse a session log into a corpus bundle")
    p.add_argument("--log", required=True)
    p.add_argument("--window", type=int, default=DEFAULT_NEGATIVE_WINDOW)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic corpus bundle")
    p.add_argument("--sessions", dest="n_sessions", type=int, required=True)
    p.add_argument("--vocab-size", type=int, default=synth.SynthSpec.vocab_size)
    p.add_argument("--topics", dest="n_topics", type=int, default=synth.SynthSpec.n_topics)
    p.add_argument("--queries", dest="queries_per_session", type=int,
                   default=synth.SynthSpec.queries_per_session)
    p.add_argument("--candidates", dest="candidates_per_query", type=int,
                   default=synth.SynthSpec.candidates_per_query)
    p.add_argument("--noise", dest="noise_rate", type=float, default=synth.SynthSpec.noise_rate)
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
    p.add_argument("--checkpoint-interval", type=int, default=TrainConfig.checkpoint_interval)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[reads_bundle], help="evaluate a trained checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.add_argument("--tag", default="currank")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", parents=[reads_bundle],
                       help="run curriculum-mode ablations and the delta/eta grid")
    p.add_argument("--grid-deltas", type=grid_values, default="0.1,0.3,0.5")
    p.add_argument("--grid-etas", type=grid_values, default="0.5,0.7,0.9")
    _add_train_flags(p)
    p.set_defaults(func=cmd_ablate, checkpoint_interval=0)  # its runs write no checkpoints

    return parser


def _apply_config_file(parser, argv):
    """Use --config values as defaults so explicit flags still win; a key
    supplies its flag, so a required flag the file sets is no longer required."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", default=None)
    known, _ = pre.parse_known_args(argv)
    if not known.config:
        return
    path = input_path(known.config, "config file")
    try:
        data = yaml.safe_load(path.read_text()) or {}
    except yaml.YAMLError as e:
        raise ValueError(f"config file {path} is not valid YAML: {e}")
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must be a mapping")
    flags = [sub._option_string_actions for action in parser._subparsers._group_actions
             for sub in action.choices.values()]  # each command's flags by option string
    options = {key: "--" + str(key).replace("_", "-") for key in data}  # long flag names
    # A key of another command is allowed: one file may serve several.
    unknown = sorted(str(k) for k, option in options.items() if not any(option in f for f in flags))
    if unknown:
        raise ValueError(f"config file {path}: no command takes {', '.join(unknown)}")
    for action, key in [(f[o], k) for f in flags for k, o in options.items() if o in f]:
        action.default, action.required = _flag_value(path, key, action, data[key]), False


def _flag_value(path: Path, key, action: argparse.Action, value):
    """A config file's `value` for `key`, parsed as its flag would be: by the
    flag's type and choices. A switch such as --fit takes only true or false."""
    with contextlib.suppress(ValueError, argparse.ArgumentTypeError):
        value = value if action.nargs == 0 else (action.type or str)(str(value))
        if type(value) is bool if action.nargs == 0 else value in (action.choices or [value]):
            return value
    raise ValueError(f"config file {path}: {key}: invalid value {value!r}")


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
        # Checked here, not as --out's argparse type: argparse would replace the message.
        args.out = output_path(args.out)  # before any input is read
        return args.func(args)
    except (ValueError, FloatingPointError) as e:  # the last: a run diverged
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
