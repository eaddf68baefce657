"""End-to-end curriculum training loop.

Each optimizer step samples one curriculum batch from the frozen
difficulty ledger, computes the listwise loss and its exact gradients,
and applies SGD with momentum (0 for plain SGD). Ablation modes switch one
or both curricula off, by setting delta or eta to 1.0, and may pin negatives
to the easy/hard half of each list.
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
    RankerParams, check_finite, loss_and_grad, order_slate, rank_slate, softmax_cross_entropy,
)
from .sessions import EvalSlate, SearchContext
from .towers import PARAM_NAMES, EncodedCorpus, Vocab, encode_corpus, token_rows

# mode -> (negative half kept or None for all, the pacing fields it sets to 1.0)
_MODE_TABLE = {
    "dual": (None, ()),
    "pos-only": (None, ("eta",)),
    "neg-only": (None, ("delta",)),
    "none": (None, ("delta", "eta")),
    "easy-neg-only": ("easy", ("delta", "eta")),
    "hard-neg-only": ("hard", ("delta", "eta")),
}
MODES = tuple(_MODE_TABLE)

# Substream labels hung off the master seed.
_SEED_INIT = 0
_SEED_SAMPLER = 1

SCORE_BLOCK = 1024  # held-out pairs scored at a time, to bound the row gathers' memory


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
        for name in ("batch_size", "d_emb", "hidden", "m"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be >= 0")
        if not self.learning_rate > 0:  # NaN too
            raise ValueError("learning_rate must be > 0")
        if not 0 < self.tau < math.inf:
            raise ValueError("tau must be > 0 and finite")
        if not 0 <= self.momentum < 1:  # the velocity decays
            raise ValueError("momentum must be in [0, 1)")
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
    """A ledger's contexts, in ledger order (row i is positive i's, so
    corpus.context_row is empty), and documents encoded under `vocab`, and
    its columns over them."""

    vocab: Vocab
    corpus: EncodedCorpus
    columns: LedgerColumns


def training_data(vocab: Vocab, documents: dict[str, tuple[str, ...]],
                  contexts: Iterable[SearchContext],
                  ledger: DifficultyLedger) -> TrainingData:
    """`ledger` over `contexts`, found by the ledger's own id strings, encoded in
    ledger order once ledger_columns has refused unknown and repeated ids."""
    by_id = dict.fromkeys(ledger.context_ids)  # setting a value keeps the ledger's key
    for c in contexts:
        if (cid := c.context_id) in by_id:
            by_id[cid] = c
    corpus = encode_corpus(vocab, documents, {})
    columns = ledger_columns(ledger, by_id, corpus.doc_row)
    corpus.contexts = token_rows((by_id[cid].context_tokens for cid in columns.context_ids), vocab)
    return TrainingData(vocab, corpus, columns)


def resolve_mode(config: TrainConfig) -> tuple[TrainConfig, str | None]:
    """config as its mode trains it, mode "dual" with delta or eta 1.0 for each
    curriculum the mode switches off, and the negative half it keeps (None for
    all). Configs that resolve alike train alike."""
    half, off = _MODE_TABLE[config.mode]
    pacing = replace(config.pacing, **dict.fromkeys(off, 1.0))
    return replace(config, mode="dual", pacing=pacing), half


def check_prefixes(config: TrainConfig, columns: LedgerColumns) -> None:
    """Fail before step 0, not in sample_batch mid-run, if the batch size
    exceeds the eligible positives at step 0, the smallest prefix, or m
    exceeds a context's eligible negatives at the run's last, tightest, f_n."""
    resolved, half = resolve_mode(config)
    pacing, columns = resolved.pacing, columns.halved(half)
    T = pacing.T
    if T == 0:
        return
    n_pos = eligible_positive_count(len(columns.context_ids), pacing_positive(pacing, 0))
    if config.batch_size > n_pos:
        raise ValueError(f"delta={config.pacing.delta:g}: batch_size {config.batch_size} "
                         f"exceeds the {n_pos} eligible positives at step 0")
    f_n = pacing_negative(pacing, T - 1)
    n_neg = eligible_negative_count(columns.neg_len, f_n)
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
        documents, SCORE_BLOCK pairs at a time. Each is the product sum of
        its two rows alone, so documents that share a title row tie exactly."""
        c_enc, _ = towers.encode_batch(params.encoder, self.corpus.contexts, "context")
        d_enc, _ = towers.encode_batch(params.encoder, self.corpus.docs, "document")
        scores = np.empty(len(self.pair_doc))
        for pairs in (slice(at, at + SCORE_BLOCK) for at in range(0, len(scores), SCORE_BLOCK)):
            np.einsum("ij,ij->i", d_enc[self.pair_doc[pairs]], c_enc[self.pair_context[pairs]],
                      out=scores[pairs])
        return scores / params.tau


def encode_slates(vocab: Vocab, eval_items: list[EvalSlate],
                  documents: dict[str, tuple[str, ...]]) -> EvalSlates:
    return EvalSlates(eval_items, encode_corpus(
        vocab, documents, {query_id: tokens for query_id, tokens, _, _ in eval_items}))


def rank_slates(slates: EvalSlates, scores: np.ndarray) -> Iterator[RankedSlate]:
    """Each held-out slate, in slate order, as its query id, its candidates
    ranked by order_slate under `scores` (a slates.scores result) and its
    clicked set. Lazily, so that validation keeps only the gains."""
    at = slates.offsets
    return ((query_id, order_slate(candidates, scores[at[i]:at[i + 1]]), clicked)
            for i, (query_id, _, candidates, clicked) in enumerate(slates.items))


def evaluate_ranker(params: RankerParams, slates: EvalSlates,
                    scores: np.ndarray | None = None) -> MetricTable:
    """The metrics of `slates` ranked by `params`; `scores`, a
    slates.scores(params) result, saves a forward pass."""
    scores = slates.scores(params) if scores is None else scores
    return evaluate_run(query_gains(rank_slates(slates, scores)))


@np.errstate(over="ignore", invalid="ignore")  # non-finite values raise below instead
def train(config: TrainConfig, data: TrainingData, slates: EvalSlates | None = None,
          checkpoint_dir: str | Path | None = None,
          resume: tuple | None = None) -> tuple[RankerParams, TrainLog]:
    """Run pacing.T optimizer steps of curriculum training, validating on
    `slates`, when given, after every epoch.

    Deterministic under a fixed config seed; an interrupted run resumed
    from a periodic checkpoint (`resume`, a load_resume result, whose
    arrays it trains in place) continues bit-identically. A non-finite score,
    loss or parameter raises FloatingPointError naming the step and the flags.
    """
    check_prefixes(config, data.columns)
    resolved, half = resolve_mode(config)
    pacing, columns = resolved.pacing, data.columns.halved(half)
    T, vocab = pacing.T, data.vocab

    rng_init = np.random.default_rng([config.seed, _SEED_INIT])
    rng_sampler = np.random.default_rng([config.seed, _SEED_SAMPLER])
    params = RankerParams(towers.init_params(len(vocab), config.d_emb, config.hidden, rng_init),
                          tau=config.tau)
    velocity, start_step = np.zeros_like(params.encoder.flat), 0
    if resume is not None:
        params, velocity, start_step, rng_sampler.bit_generator.state = resume

    spe = steps_per_epoch(len(columns.context_ids), config.batch_size)
    log = TrainLog()
    prev_val_loss = None

    for t in range(start_step, T):
        f_p, f_n = pacing_positive(pacing, t), pacing_negative(pacing, t)
        contexts, docs = sample_batch(columns, config.batch_size, config.m, rng_sampler, f_p, f_n)
        try:
            report = loss_and_grad(params, data.corpus.contexts.take(contexts),
                                   data.corpus.docs.take(docs.ravel()))
            velocity *= config.momentum
            velocity += report.grads.flat
            params.encoder.flat[...] -= config.learning_rate * velocity
            check_finite(params.encoder.flat, "ranker parameters")
            log.steps.append({
                "t": t, "f_p": f_p, "f_n": f_n,
                "eligible_positives": eligible_positive_count(len(columns.context_ids), f_p),
                "eligible_negative_fraction": f_n, "loss": report.loss,
                "mean_positive_rank": sum(report.positive_ranks) / len(report.positive_ranks)})

            done = t + 1
            if checkpoint_dir and config.checkpoint_interval and (
                    done % config.checkpoint_interval == 0 or done == T):
                Path(checkpoint_dir).mkdir(parents=True, exist_ok=True)
                log.checkpoints.append(Path(checkpoint_dir) / f"ckpt_{done:08d}.bin")
                _save_train_checkpoint(log.checkpoints[-1], params, vocab, velocity, done,
                                       rng_sampler, config)
            if slates and done % spe == 0:
                scores = slates.scores(params)
                metrics = evaluate_ranker(params, slates, scores).metrics
                val_loss = _validation_loss(slates, scores)
                record = {"epoch": done // spe, "step": done, "val_loss": val_loss, **metrics}
                if prev_val_loss is not None and val_loss >= prev_val_loss:
                    record["warning"] = "validation loss did not decrease"
                prev_val_loss = val_loss
                log.validations.append(record)
        except FloatingPointError as e:
            raise FloatingPointError(f"step {t}: {e}; the run diverged under --lr "
                                     f"{config.learning_rate:g}, --momentum {config.momentum:g} "
                                     f"and --tau {config.tau:g}") from e

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
        losses[places] = softmax_cross_entropy(scores[cells], 0)[0]
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
    state, sampler = meta["sampler_state"], np.random.default_rng().bit_generator
    # Set on a generator like the run's sampler: a state it cannot take fails here.
    sampler.state = {**state, "state": {k: int(v) for k, v in state["state"].items()}}
    return (RankerParams(encoder=enc, tau=config.tau),
            np.concatenate([extra[f"vel.{name}"].ravel() for name in PARAM_NAMES]),
            int(meta["step"]), sampler.state)


def _save_train_checkpoint(path, params, vocab, velocity, step, rng_sampler, config):
    state = rng_sampler.bit_generator.state  # its 128-bit PCG64 words go into JSON as strings
    save_ranker(path, params, vocab, step, params.encoder.like(velocity).named("vel."),
                config=asdict(config),
                sampler_state={**state, "state": {k: str(v) for k, v in state["state"].items()}})


def save_ranker(path: str | Path, params: RankerParams, vocab: Vocab, step: int = -1,
                extra_arrays: dict[str, np.ndarray] | None = None, **meta) -> None:
    """A ranker checkpoint: tau and `step` (-1 for a final one) in its meta,
    besides `meta`, and `extra_arrays` after the parameters."""
    checkpoint.save_checkpoint(path, "ranker", params.encoder, vocab, extra_arrays,
                               {"tau": params.tau, "step": step, **meta})


def load_ranker(path: str | Path) -> tuple[RankerParams, Vocab]:
    enc, vocab, _, meta = checkpoint.load_checkpoint(path, expect_kind="ranker")
    return RankerParams(encoder=enc, tau=float(meta["tau"])), vocab


def ablation_runs(base: TrainConfig, deltas: list[float],
                  etas: list[float]) -> list[tuple[dict, TrainConfig]]:
    """The ablation's (row, config) pairs, all with base's seed: one per
    curriculum mode, then one per (delta, eta) grid point. delta=1.0 and
    eta=1.0 switch the respective curriculum off, as the modes do (its
    pacing value is 1 from step 0)."""
    return [({"mode": mode}, replace(base, mode=mode)) for mode in MODES] + [
        ({"delta": delta, "eta": eta},
         replace(base, pacing=replace(base.pacing, delta=delta, eta=eta)))
        for delta in deltas for eta in etas]


def train_and_evaluate(config: TrainConfig, data: TrainingData, slates: EvalSlates,
                       **row) -> dict:
    """One training run scored on `slates`: `row` plus the metrics."""
    try:
        params, _ = train(config, data)
    except Exception as e:  # a diverged run stays a FloatingPointError: exit 2
        kind = FloatingPointError if isinstance(e, FloatingPointError) else RuntimeError
        raise kind(f"training run {row} failed: {e}") from e
    row.update(evaluate_ranker(params, slates).metrics)
    return row
