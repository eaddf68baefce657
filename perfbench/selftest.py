"""Fast self-test of the benchmark harness on a criterion-8 sized corpus.

    python3 perfbench/selftest.py

Runs every workload shape on a 60-session corpus, untraced and traced,
and checks that each metric the workload defines is emitted with its
unit, that BENCHMARK.json agrees with the harness's metric tables, and
that a failed output check raises op_failure_rate and clears `correct`.
Exits 0 when all hold.
"""

from __future__ import annotations

import shutil
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from spans import LAYER_UNITS  # noqa: E402

TINY = run.Corpus(sessions=60, vocab_size=200, topics=10, queries=2, candidates=6,
                  noise=0.0, seed=7)
SMALL_BATCH = ("--batch-size", 8)
PIPELINE_TRAIN = ("--steps", 10, "--checkpoint-interval", 5, *SMALL_BATCH)

ALWAYS = {"setup_s", "wall_s", "train_samples_per_s", "peak_rss_mb", "map", "op_failure_rate",
          "setup_raw_s", "wall_raw_s", "machine_speed"}
EXPECTED = {
    "train-desk": ALWAYS | {"ledger_contexts_per_s", "eval_slates_per_s"},
    "ablate-desk": ALWAYS | {"ledger_contexts_per_s"},
    "pipeline-10x": set(run.E2E_UNITS),
}


def tiny_workloads() -> dict[str, run.Workload]:
    return {w.name: w for w in (
        run.train_desk(TINY, train_args=("--epochs", 8, *SMALL_BATCH), min_gain=0.0),
        run.ablate_desk(TINY, ablate_args=("--epochs", 1, *SMALL_BATCH)),
        run.pipeline(replace(TINY, seed=None), train_args=PIPELINE_TRAIN),
    )}


def expect(ok: bool, message: str, failures: list[str]) -> None:
    if not ok:
        failures.append(message)
        print(f"FAIL {message}")


def check_benchmark_file(failures: list[str]) -> None:
    spec = run.read_json(run.BENCH_FILE)
    for entry in spec["end_to_end"]:
        expect(run.E2E_UNITS.get(entry["name"]) == entry["unit"],
               f"BENCHMARK.json end_to_end {entry['name']} unit disagrees with E2E_UNITS",
               failures)
        expect(all(entry["name"] in names for names in EXPECTED.values()),
               f"BENCHMARK.json end_to_end {entry['name']} is not defined on every workload",
               failures)
    for entry in spec["per_layer"]:
        expect(LAYER_UNITS.get(entry["name"]) == entry["unit"],
               f"BENCHMARK.json per_layer {entry['name']} unit disagrees with LAYER_UNITS",
               failures)
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(run.workloads()),
           "BENCHMARK.json workloads differ from the harness's", failures)


def check_metrics(work: Path, failures: list[str]) -> None:
    spec = run.read_json(run.BENCH_FILE)
    for name, w in tiny_workloads().items():
        plain = run.measure(w, 3, 0.0, False, work / name)
        expect(plain["failed"] == 0, f"{name}: checks failed: {plain['problems']}", failures)
        for metric in EXPECTED[name]:
            got = plain["metrics"].get(metric)
            expect(got is not None and got["unit"] == run.E2E_UNITS[metric]
                   and isinstance(got["value"], (int, float)),
                   f"{name}: end-to-end {metric} missing or without its unit", failures)
        line = run.result_line(plain, [m["name"] for m in spec["end_to_end"]])
        expect(line["correct"], f"{name}: untraced result is not correct: {line}", failures)

        traced = run.measure(w, 3, 0.0, True, work / f"{name}-traced")
        expect(traced["failed"] == 0, f"{name}: traced checks failed: {traced['problems']}",
               failures)
        layers = traced.get("per_layer", {})
        for metric, unit in LAYER_UNITS.items():
            expect(metric in layers and layers[metric]["unit"] == unit,
                   f"{name}: per-layer {metric} missing or without its unit", failures)
        expect("tracing_overhead_s" in traced, f"{name}: no tracing overhead", failures)
        line = run.result_line(traced, [m["name"] for m in spec["per_layer"]])
        expect(line["correct"], f"{name}: traced result is not correct: {line}", failures)
        print(f"ok {name}: {plain['attempted']} + {traced['attempted']} commands, "
              f"{traced['spans']['count']} spans")


def check_failures_counted(work: Path, failures: list[str]) -> None:
    """A wrong expected value must show up as a failed operation."""
    pipe = tiny_workloads()["pipeline-10x"]
    prepare = pipe.prepare

    def off_by_one(h, s, seed, d):
        prepare(h, s, seed, d)
        s.facts["test_slates"] += 1

    broken = {
        "test-slate count": replace(pipe, prepare=off_by_one),
        "log digest": run.pipeline(replace(pipe.corpus, log_sha256="0" * 64),
                                   train_args=PIPELINE_TRAIN),
    }
    for i, (what, w) in enumerate(broken.items()):
        report = run.measure(w, 3, 0.0, False, work / f"broken{i}")
        rate = report["metrics"]["op_failure_rate"]["value"]
        line = run.result_line(report, [])
        expect(rate > 0 and report["failed"] > 0 and not line["correct"],
               f"a wrong {what} did not raise op_failure_rate (rate {rate})", failures)
        print(f"ok wrong {what}: op_failure_rate {rate:.3f}, {report['problems'][:1]}")


def main() -> int:
    failures: list[str] = []
    # Spans and recorded digests of the tiny runs stay apart from real runs'.
    work = run.OUT_DIR = run.OUT_DIR / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run.SETUP_SECONDS = 0.0  # tiny set-ups take milliseconds; three are enough
    try:
        check_benchmark_file(failures)
        check_metrics(work, failures)
        check_failures_counted(work, failures)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
