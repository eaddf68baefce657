"""Span tracing for the benchmark's traced run.

The program has no spans of its own yet, so the traced run records them
from outside: it replaces public currank functions with wrappers at the
names their callers look them up by. A `from`-import is patched in the
importing module (`currank.trainer.sample_batch`), a module-attribute
call on the defining module (`currank.towers.encode_batch`), a method on
its class (`currank.scorers.Bm25Scorer.score_corpus`). Each call becomes
one span (name, start, end, parent), kept in memory and written out when
the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from pathlib import Path

# (module, attribute at the caller's lookup site, span name). One span
# name may sit at several lookup sites of the same function.
SPAN_SITES = [
    ("cli", "cmd_ingest", "cli.ingest"),
    ("cli", "cmd_score", "cli.score"),
    ("cli", "cmd_train", "cli.train"),
    ("cli", "cmd_eval", "cli.eval"),
    ("cli", "cmd_ablate", "cli.ablate"),
    ("cli", "load_bundle", "cli.load_bundle"),
    ("cli", "read_documents", "sessions.read"),
    ("cli", "read_sessions", "sessions.read"),
    ("cli", "read_contexts", "sessions.read"),
    ("cli", "write_documents", "sessions.write_bundle"),
    ("cli", "write_sessions", "sessions.write_bundle"),
    ("cli", "write_contexts", "sessions.write_bundle"),
    ("cli", "parse_sessions", "sessions.parse_sessions"),
    ("cli", "build_contexts", "sessions.build_contexts"),
    ("cli", "build_eval_items", "sessions.build_eval_items"),
    ("cli", "build_ledger", "curriculum.build_ledger"),
    ("cli", "save_ledger", "curriculum.save_ledger"),
    ("cli", "load_ledger", "curriculum.load_ledger"),
    ("cli", "digest_paths", "manifest.digest_paths"),
    ("cli", "train", "trainer.train"),
    ("trainer", "train", "trainer.train"),
    ("cli", "evaluate_ranker", "trainer.evaluate_ranker"),
    ("trainer", "evaluate_ranker", "trainer.evaluate_ranker"),
    ("trainer", "_validation_loss", "trainer.validation_loss"),
    ("trainer", "sample_batch", "curriculum.sample_batch"),
    ("trainer", "loss_and_grad", "ranker.loss_and_grad"),
    ("cli", "rank_slate", "ranker.rank_slate"),
    ("trainer", "rank_slate", "ranker.rank_slate"),
    ("cli", "evaluate_run", "metrics.evaluate_run"),
    ("trainer", "evaluate_run", "metrics.evaluate_run"),
    ("cli", "write_run_file", "metrics.write_run"),
    ("towers", "encode", "towers.encode"),
    ("towers", "encode_batch", "towers.encode_batch"),
    ("towers", "backward_batch", "towers.backward_batch"),
    ("dense", "train_in_batch", "dense.train_in_batch"),
    ("dense", "in_batch_loss_and_grad", "dense.in_batch_loss_and_grad"),
    ("scorers", "Bm25Scorer.score_corpus", "scorers.score_corpus"),
    ("scorers", "DenseScorer.score_corpus", "scorers.score_corpus"),
    ("bm25", "build_index", "bm25.build_index"),
    ("bm25", "score_all", "bm25.score_all"),
    ("checkpoint", "save_checkpoint", "checkpoint.save"),
    ("checkpoint", "load_checkpoint", "checkpoint.load"),
]

# Called too often for a span each; counted only.
COUNT_SITES = [
    ("towers", "Vocab.encode", "towers.vocab_encode_calls"),
]

# Per-layer metric -> unit, in report order.
LAYER_UNITS = {
    "towers.encode_batch_s": "s",
    "towers.backward_batch_s": "s",
    "towers.encode_s": "s",
    "towers.encoded_sequences": "count",
    "towers.vocab_encode_calls": "count",
    "curriculum.sample_batch_s": "s",
    "curriculum.sample_batch_calls": "count",
    "ranker.loss_and_grad_self_s": "s",
    "ranker.loss_and_grad_calls": "count",
    "trainer.train_self_s": "s",
    "trainer.steps": "count",
    "trainer.step_ms_p50": "ms",
    "trainer.step_ms_p99": "ms",
    "trainer.validation_s": "s",
    "ranker.rank_slate_self_s": "s",
    "ranker.rank_slate_calls": "count",
    "metrics.evaluate_run_s": "s",
    "metrics.write_run_s": "s",
    "dense.train_in_batch_s": "s",
    "dense.in_batch_steps": "count",
    "scorers.score_corpus_s": "s",
    "bm25.build_index_s": "s",
    "bm25.score_all_s": "s",
    "bm25.score_all_calls": "count",
    "curriculum.build_ledger_self_s": "s",
    "sessions.parse_sessions_s": "s",
    "sessions.build_contexts_s": "s",
    "sessions.build_eval_items_s": "s",
    "sessions.read_s": "s",
    "sessions.write_bundle_s": "s",
    "cli.load_bundle_s": "s",
    "curriculum.save_ledger_s": "s",
    "curriculum.load_ledger_s": "s",
    "checkpoint.save_s": "s",
    "checkpoint.load_s": "s",
    "checkpoint.bytes_written": "bytes",
    "manifest.digest_paths_s": "s",
    "manifest.bytes_digested": "bytes",
    "cli.ingest_s": "s",
    "cli.score_s": "s",
    "cli.train_s": "s",
    "cli.eval_s": "s",
    "cli.ablate_s": "s",
}


def _resolve(module: str, attr: str):
    owner = importlib.import_module(f"currank.{module}")
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _path_arg(args, kwargs):
    return kwargs.get("path", args[0] if args else None)


class Tracer:
    """Installs the wrappers, collects spans and counts, and removes the
    wrappers again. Single-threaded: the parent of a span is the span
    open on the stack when it starts."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        after = {
            "checkpoint.save": self._count_written,
            "manifest.digest_paths": self._count_digested,
        }
        for module, attr, name in SPAN_SITES:
            self._patch(module, attr, lambda orig, n=name: self._span(orig, n, after.get(n)))
        for module, attr, name in COUNT_SITES:
            self._patch(module, attr, lambda orig, n=name: self._counter(orig, n))
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, orig in reversed(self._patches):
            setattr(owner, name, orig)
        self._patches.clear()

    def _patch(self, module, attr, make) -> None:
        owner, name = _resolve(module, attr)
        orig = owner.__dict__[name]
        self._patches.append((owner, name, orig))
        setattr(owner, name, make(orig))

    def _span(self, orig, name, after):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs)
            return result

        return traced

    def _counter(self, orig, name):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(orig)
        def counted(*args, **kwargs):
            counts[name] += 1
            return orig(*args, **kwargs)

        return counted

    def _add(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _count_written(self, args, kwargs) -> None:
        self._add("checkpoint.bytes_written", os.path.getsize(_path_arg(args, kwargs)))

    def _count_digested(self, args, kwargs) -> None:
        paths = kwargs.get("paths", args[0] if args else [])
        self._add("manifest.bytes_digested", sum(os.path.getsize(p) for p in paths))

    def write(self, path: Path) -> None:
        with open(path, "w") as fp:
            for name, start, end, parent in self.spans:
                fp.write(json.dumps([name, start, end, parent]) + "\n")

    def layer_metrics(self, encoded_sequences: int) -> tuple[dict[str, float], int]:
        """The per-layer split (totals, self times minus wrapped children,
        call counts, step-time percentiles) and the number of step gaps
        behind the percentiles."""
        spans = self.spans
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        children = [0.0] * len(spans)
        for name, start, end, parent in spans:
            total[name] = total.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                children[parent] += end - start
        self_time: dict[str, float] = {}
        for (name, start, end, _), inner in zip(spans, children):
            self_time[name] = self_time.get(name, 0.0) + (end - start - inner)

        # Training steps: sample_batch spans directly under a train span;
        # a step is the gap between consecutive sample_batch starts.
        starts: dict[int, list[float]] = {}
        for name, start, _, parent in spans:
            if name == "curriculum.sample_batch" and parent >= 0 \
                    and spans[parent][0] == "trainer.train":
                starts.setdefault(parent, []).append(start)
        gaps = [1e3 * (b - a) for s in starts.values() for a, b in zip(s, s[1:])]
        p50 = p99 = 0.0
        if len(gaps) >= 2:
            cuts = statistics.quantiles(gaps, n=100, method="inclusive")
            p50, p99 = cuts[49], cuts[98]
        elif gaps:
            p50 = p99 = gaps[0]

        def t(name):
            return total.get(name, 0.0)

        def n(name):
            return calls.get(name, 0)

        out = {
            "towers.encode_batch_s": t("towers.encode_batch"),
            "towers.backward_batch_s": t("towers.backward_batch"),
            "towers.encode_s": t("towers.encode"),
            "towers.encoded_sequences": encoded_sequences,
            "towers.vocab_encode_calls": self.counts.get("towers.vocab_encode_calls", 0),
            "curriculum.sample_batch_s": t("curriculum.sample_batch"),
            "curriculum.sample_batch_calls": n("curriculum.sample_batch"),
            "ranker.loss_and_grad_self_s": self_time.get("ranker.loss_and_grad", 0.0),
            "ranker.loss_and_grad_calls": n("ranker.loss_and_grad"),
            "trainer.train_self_s": self_time.get("trainer.train", 0.0),
            "trainer.steps": sum(len(s) for s in starts.values()),
            "trainer.step_ms_p50": p50,
            "trainer.step_ms_p99": p99,
            "trainer.validation_s": t("trainer.evaluate_ranker") + t("trainer.validation_loss"),
            "ranker.rank_slate_self_s": self_time.get("ranker.rank_slate", 0.0),
            "ranker.rank_slate_calls": n("ranker.rank_slate"),
            "metrics.evaluate_run_s": t("metrics.evaluate_run"),
            "metrics.write_run_s": t("metrics.write_run"),
            "dense.train_in_batch_s": t("dense.train_in_batch"),
            "dense.in_batch_steps": n("dense.in_batch_loss_and_grad"),
            "scorers.score_corpus_s": t("scorers.score_corpus"),
            "bm25.build_index_s": t("bm25.build_index"),
            "bm25.score_all_s": t("bm25.score_all"),
            "bm25.score_all_calls": n("bm25.score_all"),
            "curriculum.build_ledger_self_s": self_time.get("curriculum.build_ledger", 0.0),
            "sessions.parse_sessions_s": t("sessions.parse_sessions"),
            "sessions.build_contexts_s": t("sessions.build_contexts"),
            "sessions.build_eval_items_s": t("sessions.build_eval_items"),
            "sessions.read_s": t("sessions.read"),
            "sessions.write_bundle_s": t("sessions.write_bundle"),
            "cli.load_bundle_s": t("cli.load_bundle"),
            "curriculum.save_ledger_s": t("curriculum.save_ledger"),
            "curriculum.load_ledger_s": t("curriculum.load_ledger"),
            "checkpoint.save_s": t("checkpoint.save"),
            "checkpoint.load_s": t("checkpoint.load"),
            "checkpoint.bytes_written": self.counts.get("checkpoint.bytes_written", 0),
            "manifest.digest_paths_s": t("manifest.digest_paths"),
            "manifest.bytes_digested": self.counts.get("manifest.bytes_digested", 0),
            "cli.ingest_s": t("cli.ingest"),
            "cli.score_s": t("cli.score"),
            "cli.train_s": t("cli.train"),
            "cli.eval_s": t("cli.eval"),
            "cli.ablate_s": t("cli.ablate"),
        }
        return out, len(gaps)
