"""End-to-end curriculum training loop.

Each optimizer step samples one curriculum batch from the frozen
difficulty ledger, computes the listwise loss and its exact gradients,
and applies SGD (optionally with momentum). Ablation modes disable one
or both curricula or pin negatives to the easy/hard half of each list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import checkpoint, towers
from .curriculum import (
    DifficultyLedger,
    PacingParams,
    eligible_positive_count,
    pacing_negative,
    pacing_positive,
    sample_batch,
)
from .metrics import MetricTable, Qrels, RunEntry, entries_from_ranking, evaluate_run
from .ranker import RankerParams, init_ranker, loss_and_grad, rank_slate
from .sessions import Document, SearchContext
from .towers import PARAM_NAMES, Vocab

# mode -> (negative half kept or None for all, pin f_p to 1, pin f_n to 1)
_MODE_TABLE = {
    "dual": (None, False, False),
    "pos-only": (None, False, True),
    "neg-only": (None, True, False),
    "none": (None, True, True),
    "easy-neg-only": ("easy", True, True),
    "hard-neg-only": ("hard", True, True),
}
MODES = tuple(_MODE_TABLE)

# Substream labels hung off the master seed.
_SEED_INIT = 0
_SEED_SAMPLER = 1


@dataclass(frozen=True)
class TrainConfig:
    pacing: PacingParams
    batch_size: int = 32
    m: int = 2  # negatives per positive
    learning_rate: float = 0.05
    optimizer: str = "momentum"  # "sgd" | "momentum"
    momentum: float = 0.9
    seed: int = 0
    checkpoint_interval: int = 0  # 0 disables periodic checkpoints
    mode: str = "dual"
    d_emb: int = 32
    hidden: int = 32
    tau: float = 1.0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.optimizer not in ("sgd", "momentum"):
            raise ValueError("optimizer must be 'sgd' or 'momentum'")


@dataclass
class TrainLog:
    steps: list[dict] = field(default_factory=list)
    validations: list[dict] = field(default_factory=list)


def steps_per_epoch(n_positives: int, batch_size: int) -> int:
    return math.ceil(n_positives / batch_size)


def _halved_negatives(
    ledger: DifficultyLedger, keep: str
) -> DifficultyLedger:
    """Restrict each context's negative list to its hard or easy half,
    split at the median of the descending d_n ordering."""
    negatives = {}
    for cid, entries in ledger.negatives.items():
        n = len(entries)
        half = (n + 1) // 2
        negatives[cid] = entries[:half] if keep == "hard" else entries[n - half:]
    return replace(ledger, negatives=negatives)


def rank_eval_items(
    params: RankerParams,
    vocab: Vocab,
    eval_items: list[tuple[SearchContext, tuple[str, ...], frozenset[str]]],
    documents: dict[str, Document],
    tag: str = "currank",
) -> tuple[list[RunEntry], Qrels]:
    """Rank each held-out candidate slate; returns the run entries and
    qrels judging every candidate (1 if clicked, else 0)."""
    entries = []
    qrels: Qrels = {}
    for ctx, candidates, clicked in eval_items:
        query_id = f"{ctx.session_id}:{ctx.position}"
        ranked = rank_slate(params, vocab, ctx, list(candidates), documents)
        entries.extend(entries_from_ranking(query_id, ranked, tag))
        for doc_id in candidates:
            qrels.setdefault((query_id, doc_id), 0)
        for doc_id in clicked:
            qrels[(query_id, doc_id)] = 1
    return entries, qrels


def evaluate_ranker(
    params: RankerParams,
    vocab: Vocab,
    eval_items: list[tuple[SearchContext, tuple[str, ...], frozenset[str]]],
    documents: dict[str, Document],
    tag: str = "currank",
) -> MetricTable:
    """Rank each held-out candidate slate and score against clicks."""
    return evaluate_run(*rank_eval_items(params, vocab, eval_items, documents, tag))


def train(
    config: TrainConfig,
    ledger: DifficultyLedger,
    documents: dict[str, Document],
    vocab: Vocab,
    val_items: list | None = None,
    checkpoint_dir: str | Path | None = None,
    resume_from: str | Path | None = None,
) -> tuple[RankerParams, TrainLog]:
    """Run pacing.T optimizer steps of curriculum training.

    Deterministic under a fixed config seed; an interrupted run resumed
    from a periodic checkpoint continues bit-identically.
    """
    pacing = config.pacing
    T = pacing.T
    half, pin_fp, pin_fn = _MODE_TABLE[config.mode]
    eff_ledger = _halved_negatives(ledger, half) if half else ledger

    rng_init = np.random.default_rng([config.seed, _SEED_INIT])
    rng_sampler = np.random.default_rng([config.seed, _SEED_SAMPLER])
    params = init_ranker(len(vocab), config.d_emb, config.hidden, rng_init,
                         tau=config.tau)
    velocity = towers.zero_grads(params.encoder)
    start_step = 0

    if resume_from is not None:
        enc, vocab_loaded, extra, meta = checkpoint.load_checkpoint(
            resume_from, expect_kind="ranker"
        )
        if vocab_loaded.tokens != vocab.tokens:
            raise ValueError("checkpoint vocabulary does not match corpus")
        params = RankerParams(encoder=enc, tau=float(meta["tau"]))
        velocity = _velocity_from_arrays(params, extra)
        start_step = int(meta["step"])
        rng_sampler.bit_generator.state = _rng_state_from_meta(meta["sampler_state"])

    p_arrays = towers.param_arrays(params.encoder)
    v_arrays = towers.param_arrays(velocity)
    spe = steps_per_epoch(len(eff_ledger.positives), config.batch_size)
    log = TrainLog()
    prev_val_loss = None

    for t in range(start_step, T):
        f_p = 1.0 if pin_fp else pacing_positive(pacing, t)
        f_n = 1.0 if pin_fn else pacing_negative(pacing, t)
        batch = sample_batch(
            eff_ledger, pacing, t, config.batch_size, config.m, rng_sampler,
            f_p=f_p, f_n=f_n,
        )
        try:
            report = loss_and_grad(params, vocab, batch, documents)
        except Exception as e:
            raise RuntimeError(f"step {t}: {e}") from e
        if config.optimizer == "momentum":
            for v, g in zip(v_arrays, towers.param_arrays(report.grads)):
                v *= config.momentum
                v += g
            for p, v in zip(p_arrays, v_arrays):
                p -= config.learning_rate * v
        else:
            for p, g in zip(p_arrays, towers.param_arrays(report.grads)):
                p -= config.learning_rate * g
        log.steps.append(
            {
                "t": t,
                "f_p": f_p,
                "f_n": f_n,
                "eligible_positives": eligible_positive_count(eff_ledger, f_p),
                "eligible_negative_fraction": f_n,
                "loss": report.loss,
            }
        )

        done = t + 1
        if checkpoint_dir and config.checkpoint_interval and (
            done % config.checkpoint_interval == 0 or done == T
        ):
            Path(checkpoint_dir).mkdir(parents=True, exist_ok=True)
            _save_train_checkpoint(
                Path(checkpoint_dir) / f"ckpt_{done:08d}.bin",
                params, vocab, velocity, done, rng_sampler,
            )
        if val_items and done % spe == 0:
            table = evaluate_ranker(params, vocab, val_items, documents)
            epoch = done // spe
            val_loss = _validation_loss(params, vocab, val_items, documents)
            record = {"epoch": epoch, "step": done, "val_loss": val_loss}
            record.update(table.metrics)
            if prev_val_loss is not None and val_loss >= prev_val_loss:
                record["warning"] = "validation loss did not decrease"
            prev_val_loss = val_loss
            log.validations.append(record)

    return params, log


def _validation_loss(params, vocab, val_items, documents) -> float:
    """Listwise loss over each held-out slate with the clicks as positives."""
    from .curriculum import TrainingBatch

    total = 0.0
    count = 0
    for ctx, candidates, clicked in val_items:
        negs = tuple(d for d in candidates if d not in clicked)
        if not negs:
            continue
        for pos in sorted(clicked):
            batch = TrainingBatch(items=[(ctx, pos, negs)])
            report = loss_and_grad(params, vocab, batch, documents)
            total += report.loss
            count += 1
    return total / count if count else 0.0


def _save_train_checkpoint(path, params, vocab, velocity, step, rng_sampler):
    extra = {
        f"vel.{name}": arr
        for name, arr in zip(PARAM_NAMES, towers.param_arrays(velocity))
    }
    # The 128-bit PCG64 state words go into JSON as strings.
    state = rng_sampler.bit_generator.state
    meta = {
        "tau": params.tau,
        "step": step,
        "sampler_state": {
            **state, "state": {k: str(v) for k, v in state["state"].items()}
        },
    }
    checkpoint.save_checkpoint(
        path, "ranker", params.encoder, vocab, extra_arrays=extra, meta=meta
    )


def _velocity_from_arrays(params: RankerParams, extra: dict) -> object:
    velocity = towers.zero_grads(params.encoder)
    for name, arr in zip(PARAM_NAMES, towers.param_arrays(velocity)):
        key = f"vel.{name}"
        if key in extra:
            arr[...] = extra[key]
    return velocity


def _rng_state_from_meta(meta_state: dict) -> dict:
    return {**meta_state, "state": {k: int(v) for k, v in meta_state["state"].items()}}


def save_ranker(path: str | Path, params: RankerParams, vocab: Vocab) -> None:
    checkpoint.save_checkpoint(
        path, "ranker", params.encoder, vocab, meta={"tau": params.tau, "step": -1}
    )


def load_ranker(path: str | Path) -> tuple[RankerParams, Vocab]:
    enc, vocab, _, meta = checkpoint.load_checkpoint(path, expect_kind="ranker")
    return RankerParams(encoder=enc, tau=float(meta["tau"])), vocab


def sweep(
    base: TrainConfig,
    ledger: DifficultyLedger,
    documents: dict[str, Document],
    vocab: Vocab,
    deltas: list[float],
    etas: list[float],
    eval_items: list,
) -> list[dict]:
    """One full training run per (delta, eta) grid point, shared seed.

    delta=1.0 / eta=1.0 act as sentinels that disable the respective
    curriculum (the pacing value is pinned at 1 from step 0).
    """
    return [
        train_and_evaluate(
            replace(base, pacing=replace(base.pacing, delta=delta, eta=eta)),
            ledger, documents, vocab, eval_items, delta=delta, eta=eta,
        )
        for delta in deltas
        for eta in etas
    ]


def train_and_evaluate(
    config: TrainConfig,
    ledger: DifficultyLedger,
    documents: dict[str, Document],
    vocab: Vocab,
    eval_items: list,
    **row,
) -> dict:
    """One training run scored on `eval_items`: `row` plus the metrics."""
    try:
        params, _ = train(config, ledger, documents, vocab)
    except Exception as e:
        raise RuntimeError(f"training run {row} failed: {e}") from e
    row.update(evaluate_ranker(params, vocab, eval_items, documents).metrics)
    return row
