"""End-to-end curriculum training loop.

Each optimizer step samples one curriculum batch from the frozen
difficulty ledger, computes the listwise loss and its exact gradients,
and applies SGD with momentum (0 for plain SGD). Ablation modes disable one
or both curricula or pin negatives to the easy/hard half of each list.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import checkpoint, towers
from .curriculum import (
    DifficultyLedger,
    LedgerColumns,
    PacingParams,
    eligible_negative_count,
    eligible_positive_count,
    ledger_columns,
    pacing_negative,
    pacing_positive,
    sample_batch,
)
from .metrics import MetricTable, RankedSlate, evaluate_run, query_gains
from .ranker import (  # noqa: F401 -- perfbench/spans.py traces rank_slate here
    RankerParams, init_ranker, loss_and_grad, order_slate, rank_slate,
)
from .sessions import Document, EvalSlate, SearchContext
from .towers import PARAM_NAMES, EncodedCorpus, Vocab, encode_corpus

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
    momentum: float = 0.9
    seed: int = 0
    checkpoint_interval: int = 0  # 0 disables periodic checkpoints
    mode: str = "dual"
    d_emb: int = 32
    hidden: int = 32
    tau: float = 1.0

    def __post_init__(self):
        for name in ("batch_size", "d_emb", "hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be >= 0")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")


@dataclass
class TrainLog:
    steps: list[dict] = field(default_factory=list)
    validations: list[dict] = field(default_factory=list)
    checkpoints: list[Path] = field(default_factory=list)


def steps_per_epoch(n_positives: int, batch_size: int) -> int:
    return math.ceil(n_positives / batch_size)


@dataclass(frozen=True)
class TrainingData:
    """A ledger's contexts, in ledger order, and documents encoded under
    `vocab`, and its columns over them."""

    vocab: Vocab
    corpus: EncodedCorpus
    columns: LedgerColumns


def training_data(vocab: Vocab, documents: dict[str, Document],
                  contexts: Iterable[SearchContext],
                  ledger: DifficultyLedger) -> TrainingData:
    """`ledger` over `contexts`, encoded in ledger order: once ledger_columns
    has refused unknown and repeated context ids, context row i is positive i's."""
    by_id = {c.context_id: c for c in contexts}
    corpus = encode_corpus(vocab, documents, {
        cid: by_id[cid].context_tokens for cid, _, _ in ledger.positives if cid in by_id})
    return TrainingData(vocab, corpus, ledger_columns(ledger, by_id, corpus.doc_row))


def check_prefixes(config: TrainConfig, columns: LedgerColumns) -> None:
    """Fail before step 0, not in sample_batch mid-run, if the batch size
    exceeds the eligible positives at step 0, the smallest prefix, or m
    exceeds a context's eligible negatives at the run's last, tightest, f_n."""
    half, pin_fp, pin_fn = _MODE_TABLE[config.mode]
    T = config.pacing.T
    if T == 0:
        return
    n_pos = eligible_positive_count(len(columns.context_ids),
                                    1.0 if pin_fp else pacing_positive(config.pacing, 0))
    if config.batch_size > n_pos:
        raise ValueError(f"delta={config.pacing.delta:g}: batch_size {config.batch_size} "
                         f"exceeds the {n_pos} eligible positives at step 0")
    f_n = 1.0 if pin_fn else pacing_negative(config.pacing, T - 1)
    n_neg = eligible_negative_count((columns.halved(half) if half else columns).neg_len, f_n)
    short = np.flatnonzero(n_neg < config.m)
    if short.size:
        raise ValueError(f"context {columns.context_ids[short[0]]}: eligible "
                         f"negative prefix ({n_neg[short[0]]}) smaller than "
                         f"m={config.m} at f_n={f_n:.4g}")


@dataclass
class EvalSlates:
    """Held-out slates with every context, keyed by query id, and every
    document encoded once."""

    items: list[EvalSlate]
    corpus: EncodedCorpus

    def scorer(self, params: RankerParams):
        """A forward pass over all contexts and documents, returning
        score(query_id, doc_ids): that slate's scores for those docs."""
        corpus = self.corpus
        c_enc, _ = towers.encode_batch(params.encoder, corpus.contexts, "context")
        d_enc, _ = towers.encode_batch(params.encoder, corpus.docs, "document")

        def score(query_id: str, doc_ids) -> np.ndarray:
            c = c_enc[corpus.context_row[query_id]]
            return (d_enc[[corpus.doc_row[d] for d in doc_ids]] @ c) / params.tau

        return score


def encode_slates(
    vocab: Vocab, eval_items: list[EvalSlate], documents: dict[str, Document]
) -> EvalSlates:
    return EvalSlates(eval_items, encode_corpus(
        vocab, documents, {query_id: tokens for query_id, tokens, _, _ in eval_items}))


def rank_slates(slates: EvalSlates, score) -> Iterator[RankedSlate]:
    """Each held-out slate, in slate order, as its query id, its candidates
    ranked by order_slate under `score` (a slates.scorer result) and its
    clicked set. Lazily, so that validation keeps only the gains."""
    return ((query_id, order_slate(candidates, score(query_id, candidates)), clicked)
            for query_id, _, candidates, clicked in slates.items)


def evaluate_ranker(
    params: RankerParams, slates: EvalSlates, score=None
) -> MetricTable:
    """The metrics of `slates` ranked by `params`; `score`, a
    slates.scorer(params) result, saves a forward pass."""
    return evaluate_run(query_gains(rank_slates(slates, score or slates.scorer(params))))


def train(
    config: TrainConfig,
    data: TrainingData,
    slates: EvalSlates | None = None,
    checkpoint_dir: str | Path | None = None,
    resume_from: str | Path | None = None,
) -> tuple[RankerParams, TrainLog]:
    """Run pacing.T optimizer steps of curriculum training, validating on
    `slates`, when given, after every epoch.

    Deterministic under a fixed config seed; an interrupted run resumed
    from a periodic checkpoint continues bit-identically.
    """
    pacing = config.pacing
    T = pacing.T
    half, pin_fp, pin_fn = _MODE_TABLE[config.mode]
    vocab = data.vocab
    check_prefixes(config, data.columns)
    columns = data.columns.halved(half) if half else data.columns

    rng_init = np.random.default_rng([config.seed, _SEED_INIT])
    rng_sampler = np.random.default_rng([config.seed, _SEED_SAMPLER])
    params = init_ranker(len(vocab), config.d_emb, config.hidden, rng_init,
                         tau=config.tau)
    velocity = np.zeros_like(params.encoder.flat)
    start_step = 0

    if resume_from is not None:
        enc, vocab_loaded, extra, meta = checkpoint.load_checkpoint(
            resume_from, expect_kind="ranker"
        )
        if "config" not in meta:  # a final checkpoint, or one that predates stored configs
            raise ValueError(f"{resume_from}: not a resumable checkpoint; only periodic "
                             "ckpt_*.bin files that record their run's training config "
                             "can be resumed")
        if vocab_loaded.tokens != vocab.tokens:
            raise ValueError("checkpoint vocabulary does not match corpus")
        _check_resumed_config(resume_from, meta["config"], config)
        params = RankerParams(encoder=enc, tau=config.tau)
        velocity = np.concatenate([extra[f"vel.{name}"].ravel() for name in PARAM_NAMES])
        start_step = int(meta["step"])
        state = meta["sampler_state"]
        rng_sampler.bit_generator.state = {
            **state, "state": {k: int(v) for k, v in state["state"].items()}}

    spe = steps_per_epoch(len(columns.context_ids), config.batch_size)
    log = TrainLog()
    prev_val_loss = None

    for t in range(start_step, T):
        f_p = 1.0 if pin_fp else pacing_positive(pacing, t)
        f_n = 1.0 if pin_fn else pacing_negative(pacing, t)
        batch = sample_batch(columns, t, config.batch_size, config.m, rng_sampler, f_p, f_n)
        try:
            report = loss_and_grad(params, *data.corpus.batch_rows(batch))
        except Exception as e:
            raise RuntimeError(f"step {t}: {e}") from e
        velocity *= config.momentum
        velocity += report.grads.flat
        params.encoder.flat[...] -= config.learning_rate * velocity
        log.steps.append(
            {
                "t": t,
                "f_p": f_p,
                "f_n": f_n,
                "eligible_positives": eligible_positive_count(len(columns.context_ids), f_p),
                "eligible_negative_fraction": f_n,
                "loss": report.loss,
            }
        )

        done = t + 1
        if checkpoint_dir and config.checkpoint_interval and (
            done % config.checkpoint_interval == 0 or done == T
        ):
            Path(checkpoint_dir).mkdir(parents=True, exist_ok=True)
            log.checkpoints.append(Path(checkpoint_dir) / f"ckpt_{done:08d}.bin")
            _save_train_checkpoint(
                log.checkpoints[-1], params, vocab, velocity, done, rng_sampler, config
            )
        if slates and done % spe == 0:
            score = slates.scorer(params)
            metrics = evaluate_ranker(params, slates, score).metrics
            val_loss = _validation_loss(slates, score)
            record = {"epoch": done // spe, "step": done, "val_loss": val_loss, **metrics}
            if prev_val_loss is not None and val_loss >= prev_val_loss:
                record["warning"] = "validation loss did not decrease"
            prev_val_loss = val_loss
            log.validations.append(record)

    return params, log


def _validation_loss(slates: EvalSlates, score) -> float:
    """Listwise loss over each held-out slate, once per clicked document
    with the unclicked candidates as negatives, under `score`, a
    slates.scorer result."""
    losses = []
    for query_id, _, candidates, clicked in slates.items:
        negs = [d for d in candidates if d not in clicked]
        if not negs:
            continue
        pos = sorted(clicked)
        s = score(query_id, pos + negs)
        slate = np.column_stack(
            [s[: len(pos)], np.broadcast_to(s[len(pos):], (len(pos), len(negs)))]
        )
        exp = np.exp(slate - slate.max(axis=1, keepdims=True))
        losses.extend(-np.log(exp[:, 0] / exp.sum(axis=1)))
    return float(np.mean(losses)) if losses else 0.0


def _check_resumed_config(path, saved: dict, config: TrainConfig) -> None:
    """Refuse to resume under a config other than the checkpoint's run's,
    naming every field that differs, the pacing fields by their own names."""
    saved, run = ({**c["pacing"], **c} for c in (saved, asdict(config)))
    differ = [k for k in run if k != "pacing" and saved.get(k) != run[k]]
    if differ:
        raise ValueError(f"{path}: checkpoint written under another config: " + ", ".join(
            f"{k} {saved.get(k)!r} (this run {run[k]!r})" for k in differ))


def _save_train_checkpoint(path, params, vocab, velocity, step, rng_sampler, config):
    extra = params.encoder.like(velocity).named("vel.")
    # The 128-bit PCG64 state words go into JSON as strings.
    state = rng_sampler.bit_generator.state
    meta = {
        "config": asdict(config),
        "tau": params.tau,
        "step": step,
        "sampler_state": {
            **state, "state": {k: str(v) for k, v in state["state"].items()}
        },
    }
    checkpoint.save_checkpoint(
        path, "ranker", params.encoder, vocab, extra_arrays=extra, meta=meta
    )


def save_ranker(path: str | Path, params: RankerParams, vocab: Vocab) -> None:
    checkpoint.save_checkpoint(
        path, "ranker", params.encoder, vocab, meta={"tau": params.tau, "step": -1}
    )


def load_ranker(path: str | Path) -> tuple[RankerParams, Vocab]:
    enc, vocab, _, meta = checkpoint.load_checkpoint(path, expect_kind="ranker")
    return RankerParams(encoder=enc, tau=float(meta["tau"])), vocab


def ablation_runs(
    base: TrainConfig, deltas: list[float], etas: list[float]
) -> list[tuple[dict, TrainConfig]]:
    """The ablation's (row, config) pairs, all with base's seed: one per
    curriculum mode, then one per (delta, eta) grid point. delta=1.0 and
    eta=1.0 act as sentinels that disable the respective curriculum (the
    pacing value is pinned at 1 from step 0)."""
    return [({"mode": mode}, replace(base, mode=mode)) for mode in MODES] + [
        ({"delta": delta, "eta": eta},
         replace(base, pacing=replace(base.pacing, delta=delta, eta=eta)))
        for delta in deltas for eta in etas]


def train_and_evaluate(
    config: TrainConfig, data: TrainingData, slates: EvalSlates, **row
) -> dict:
    """One training run scored on `slates`: `row` plus the metrics."""
    try:
        params, _ = train(config, data)
    except Exception as e:
        raise RuntimeError(f"training run {row} failed: {e}") from e
    row.update(evaluate_ranker(params, slates).metrics)
    return row
