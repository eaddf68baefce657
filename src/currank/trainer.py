"""End-to-end curriculum training loop.

Each optimizer step samples one curriculum batch from the frozen
difficulty ledger, computes the listwise loss and its exact gradients,
and applies SGD with momentum (0 for plain SGD). Ablation modes disable one
or both curricula or pin negatives to the easy/hard half of each list.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from itertools import accumulate
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
    """Held-out slates with every context and document encoded once, and
    one (context row, doc row) pair per candidate, looked up once: slate i's
    pairs are offsets[i]:offsets[i + 1] of pair_context and pair_doc."""

    items: list[EvalSlate]
    corpus: EncodedCorpus
    pair_context: np.ndarray = field(init=False)
    pair_doc: np.ndarray = field(init=False)
    offsets: list[int] = field(init=False)

    def __post_init__(self):
        context_row, doc_row = self.corpus.context_row, self.corpus.doc_row
        widths = [len(candidates) for _, _, candidates, _ in self.items]
        self.offsets = list(accumulate(widths, initial=0))
        self.pair_context = np.repeat(np.fromiter(
            (context_row[query_id] for query_id, *_ in self.items), np.intp, len(widths)), widths)
        self.pair_doc = np.fromiter((doc_row[d] for _, _, candidates, _ in self.items
                                     for d in candidates), np.intp, self.offsets[-1])

    @cached_property
    def loss_layout(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The loss rows by width, as pair indices: for each sorted clicked
        document of a slate with unclicked candidates, its pair then the
        slate's unclicked pairs; and the rows' places in slate order. Built
        on first use."""
        cells = []
        for (_, _, candidates, clicked), at in zip(self.items, self.offsets):
            negs = [at + j for j, d in enumerate(candidates) if d not in clicked]
            if negs:
                cells += [[at + candidates.index(d), *negs] for d in sorted(clicked)]
        by_width: dict[int, list[int]] = {}
        for place, row in enumerate(cells):
            by_width.setdefault(len(row), []).append(place)
        return [(np.array([cells[p] for p in places], dtype=np.intp), np.array(places))
                for places in by_width.values()]

    def scores(self, params: RankerParams) -> np.ndarray:
        """Every pair's score from one forward pass over all contexts and
        documents. Each is the product sum of its two rows alone, so
        documents that share a title row tie exactly."""
        c_enc, _ = towers.encode_batch(params.encoder, self.corpus.contexts, "context")
        d_enc, _ = towers.encode_batch(params.encoder, self.corpus.docs, "document")
        return np.einsum("ij,ij->i", d_enc[self.pair_doc],
                         c_enc[self.pair_context]) / params.tau


def encode_slates(
    vocab: Vocab, eval_items: list[EvalSlate], documents: dict[str, Document]
) -> EvalSlates:
    return EvalSlates(eval_items, encode_corpus(
        vocab, documents, {query_id: tokens for query_id, tokens, _, _ in eval_items}))


def rank_slates(slates: EvalSlates, scores: np.ndarray) -> Iterator[RankedSlate]:
    """Each held-out slate, in slate order, as its query id, its candidates
    ranked by order_slate under `scores` (a slates.scores result) and its
    clicked set. Lazily, so that validation keeps only the gains."""
    at = slates.offsets
    return ((query_id, order_slate(candidates, scores[at[i]:at[i + 1]]), clicked)
            for i, (query_id, _, candidates, clicked) in enumerate(slates.items))


def evaluate_ranker(
    params: RankerParams, slates: EvalSlates, scores: np.ndarray | None = None
) -> MetricTable:
    """The metrics of `slates` ranked by `params`; `scores`, a
    slates.scores(params) result, saves a forward pass."""
    scores = slates.scores(params) if scores is None else scores
    return evaluate_run(query_gains(rank_slates(slates, scores)))


def train(
    config: TrainConfig,
    data: TrainingData,
    slates: EvalSlates | None = None,
    checkpoint_dir: str | Path | None = None,
    resume: tuple | None = None,
) -> tuple[RankerParams, TrainLog]:
    """Run pacing.T optimizer steps of curriculum training, validating on
    `slates`, when given, after every epoch.

    Deterministic under a fixed config seed; an interrupted run resumed
    from a periodic checkpoint (`resume`, a load_resume result, whose
    arrays it trains in place) continues bit-identically.
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
    velocity, start_step = np.zeros_like(params.encoder.flat), 0
    if resume is not None:
        params, velocity, start_step, rng_sampler.bit_generator.state = resume

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
                "mean_positive_rank": sum(report.positive_ranks) / len(report.positive_ranks),
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
            scores = slates.scores(params)
            metrics = evaluate_ranker(params, slates, scores).metrics
            val_loss = _validation_loss(slates, scores)
            record = {"epoch": done // spe, "step": done, "val_loss": val_loss, **metrics}
            if prev_val_loss is not None and val_loss >= prev_val_loss:
                record["warning"] = "validation loss did not decrease"
            prev_val_loss = val_loss
            log.validations.append(record)

    return params, log


def _validation_loss(slates: EvalSlates, scores: np.ndarray) -> float:
    """Listwise loss over each held-out slate, once per clicked document with
    the unclicked candidates as negatives, under `scores`, a slates.scores
    result; one softmax per width group, the mean in slate order."""
    groups = slates.loss_layout
    if not groups:
        return 0.0
    losses = np.empty(sum(len(places) for _, places in groups))
    for cells, places in groups:
        slate = scores[cells]
        exp = np.exp(slate - slate.max(axis=1, keepdims=True))
        losses[places] = -np.log(exp[:, 0] / exp.sum(axis=1))
    return float(np.mean(losses))


def load_resume(path: str | Path, config: TrainConfig, vocab: Vocab) -> tuple:
    """A periodic checkpoint's (params, velocity, step, sampler state),
    refused unless it was written under `vocab` and `config`; a config that
    differs is named field by field, the pacing fields by their own names."""
    enc, vocab_loaded, extra, meta = checkpoint.load_checkpoint(path, expect_kind="ranker")
    if "config" not in meta:  # a final checkpoint, or one that predates stored configs
        raise ValueError(f"{path}: not a resumable checkpoint; only periodic "
                         "ckpt_*.bin files that record their run's training config "
                         "can be resumed")
    if vocab_loaded.tokens != vocab.tokens:
        raise ValueError("checkpoint vocabulary does not match corpus")
    saved, run = ({**c["pacing"], **c} for c in (meta["config"], asdict(config)))
    differ = [k for k in run if k != "pacing" and saved.get(k) != run[k]]
    if differ:
        raise ValueError(f"{path}: checkpoint written under another config: " + ", ".join(
            f"{k} {saved.get(k)!r} (this run {run[k]!r})" for k in differ))
    state = meta["sampler_state"]
    return (RankerParams(encoder=enc, tau=config.tau),
            np.concatenate([extra[f"vel.{name}"].ravel() for name in PARAM_NAMES]),
            int(meta["step"]),
            {**state, "state": {k: int(v) for k, v in state["state"].items()}})


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
