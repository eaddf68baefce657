"""End-to-end benchmark of the currank CLI, with a traced per-layer split.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark drives the real program
in-process through `currank.cli.main`, one command at a time (a closed
loop with one client), under a scratch directory `.perfbench/` of the
checkout. It makes its inputs from `--seed`, checks the program's outputs,
prints one detail line (every metric with its unit, repeat count and
spread, the corpus, the environment) and then, as the last line, the
result: end-to-end metrics with `--trace 0`, the per-layer split with
`--trace 1`. perfbench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURE = ROOT / "tests" / "fixtures" / "acceptance_corpus.json"
BENCH_FILE = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".perfbench"

# An untraced run sets up at least MIN_SETUPS times and until the set-ups
# took SETUP_SECONDS; setup_s is their median. It then repeats the timed
# unit until the units took --seconds. Times are reference seconds (see
# speed.py); the raw wall times are in the detail line.
MIN_SETUPS = 3
SETUP_SECONDS = 5.0

# Metric -> unit for every end-to-end number the benchmark computes.
# BENCHMARK.json lists the ones every workload has.
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "train_samples_per_s": "samples/s",
    "ledger_contexts_per_s": "contexts/s",
    "ingest_records_per_s": "records/s",
    "eval_slates_per_s": "slates/s",
    "peak_rss_mb": "MB",
    "map": "MAP",
    "op_failure_rate": "ratio",
    "setup_raw_s": "s",
    "wall_raw_s": "s",
    "machine_speed": "ratio",
}


def import_currank():
    """Import the program from this checkout's src/, never from elsewhere."""
    if not (SRC / "currank" / "__init__.py").is_file() or not FIXTURE.is_file():
        sys.exit(f"perfbench: {SRC / 'currank'} or {FIXTURE} is missing; "
                 "run from the root of a complete checkout")
    sys.path.insert(0, str(SRC))
    import currank
    if Path(currank.__file__).resolve().parent != (SRC / "currank").resolve():
        sys.exit(f"perfbench: imported currank from {currank.__file__}, not {SRC}")


import_currank()

import numpy as np  # noqa: E402

from currank import cli, towers  # noqa: E402

sys.path.insert(0, str(HERE))
import speed  # noqa: E402
from spans import LAYER_UNITS, Tracer  # noqa: E402


# ---------------------------------------------------------------------------
# Environment


def _blas_threads(nproc: int):
    """OpenBLAS thread count in effect, capped at nproc. Read from the
    library already loaded into this process."""
    with open("/proc/self/maps") as fp:
        libs = sorted({ln.split()[-1] for ln in fp if "openblas" in ln and ln.rstrip().endswith(".so")})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is None:
                    continue
                get.restype = ctypes.c_int
                if get() > nproc and put is not None:
                    put(ctypes.c_int(nproc))
                return get()
    return None


def _git_commit():
    """The checked-out commit, read from .git without running git; None
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    nproc = len(os.sched_getaffinity(0))
    cpu = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fp:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fp if ln.startswith("model name")), None)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads(nproc)},
        "git_commit": _git_commit(),
        "code_digest": code_digest(),
    }


# ---------------------------------------------------------------------------
# Running commands and checking their outputs


class CommandFailed(Exception):
    pass


@dataclass
class Cmd:
    op: int  # 1-based index among the commands this run attempted
    seconds: float  # reference seconds, or wall seconds when not normalised
    raw_s: float  # wall seconds
    out: Path
    stdout: str
    digests: dict  # the manifest's output_digests


class Harness:
    """Runs currank commands in-process and books every command and
    output check; op_failure_rate = failed commands / attempted. With
    normalise, command times are reference seconds (speed.timed)."""

    def __init__(self, normalise: bool = True):
        self.normalise = normalise
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.problems: list[str] = []

    def run(self, command: str, *args, out: Path) -> Cmd:
        argv = [command, *map(str, args), "--out", str(out)]
        self.attempted += 1
        op = self.attempted
        stdout, stderr = io.StringIO(), io.StringIO()
        timer = speed.timed() if self.normalise else contextlib.nullcontext()
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                timer as t:
            rc = cli.main(argv)
        seconds = raw_s = time.perf_counter() - start
        if t is not None:
            seconds, raw_s = t.seconds, t.raw_s
        if rc != 0:
            self.fail(op, f"currank {' '.join(argv)} exited {rc}: {stderr.getvalue().strip()}")
            raise CommandFailed(argv[0])
        digests = read_json(out / "manifest.json")["output_digests"]
        return Cmd(op, seconds, raw_s, out, stdout.getvalue(), digests)

    def fail(self, op: int, message: str) -> None:
        self.failed_ops.add(op)
        self.problems.append(message)

    def check(self, cmd: Cmd, ok: bool, message: str) -> None:
        if not ok:
            self.fail(cmd.op, f"{cmd.out.name}: {message}")

    def same_digests(self, cmds: list[Cmd], reference: list[dict], what: str) -> None:
        for cmd, ref in zip(cmds, reference):
            self.check(cmd, cmd.digests == ref, f"output digests differ from {what}")


def read_json(path: Path):
    return json.loads(path.read_text())


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fp:
        for chunk in iter(lambda: fp.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def positives_scored(cmd: Cmd) -> int:
    match = re.search(r"^positives scored: (\d+)$", cmd.stdout, re.M)
    if match is None:
        raise RuntimeError("score did not report 'positives scored: N'")
    return int(match.group(1))


def test_slates(bundle: Path) -> int:
    """Interactions with at least one click in test-split sessions: the
    slates `eval --split test` must evaluate."""
    count = 0
    with open(bundle / "sessions.jsonl") as fp:
        for line in fp:
            rec = json.loads(line)
            if cli.split_of(rec["session_id"]) == "test":
                count += sum(1 for i in rec["interactions"] if i["clicked_doc_ids"])
    return count


def code_digest() -> str:
    """Digest of the program and benchmark sources: runs of one workload
    and seed under this digest must give identical output digests."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "currank").glob("*.py"), *HERE.glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_against_earlier_runs(h: Harness, name: str, seed: int, cmds: list[Cmd]) -> None:
    """Compare with the first run of this workload, seed and code in this
    checkout, or record this run as that first run."""
    path = OUT_DIR / f"digests-{name}-seed{seed}-{code_digest()}.json"
    if path.exists():
        h.same_digests(cmds, read_json(path), "an earlier run of this workload and seed")
    else:
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps([c.digests for c in cmds]))
        os.replace(tmp, path)


def count_lines(path: Path) -> int:
    with open(path, "rb") as fp:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fp.read(1 << 20), b""))


# ---------------------------------------------------------------------------
# Corpora and workloads


@dataclass(frozen=True)
class Corpus:
    """`currank synth` parameters. seed None means the workload seed."""

    sessions: int
    vocab_size: int
    topics: int
    queries: int
    candidates: int
    noise: float
    seed: int | None = None
    log_sha256: str | None = None

    def synth(self, h: Harness, seed: int, out: Path) -> Cmd:
        cmd = h.run("synth", "--sessions", self.sessions, "--vocab-size", self.vocab_size,
                    "--topics", self.topics, "--queries", self.queries,
                    "--candidates", self.candidates, "--noise", self.noise,
                    "--seed", seed if self.seed is None else self.seed, out=out)
        if self.log_sha256 is not None:
            h.check(cmd, sha256_file(out / "log.jsonl") == self.log_sha256,
                    "regenerated log does not match the fixture's session_log_sha256")
        return cmd

    def describe(self, seed: int) -> dict:
        d = asdict(self)
        del d["log_sha256"]
        return {**d, "seed": seed if self.seed is None else self.seed}


def desk_corpus() -> Corpus:
    """The committed acceptance corpus (criterion 7)."""
    fx = read_json(FIXTURE)
    return Corpus(fx["n_sessions"], fx["vocab_size"], fx["n_topics"],
                  fx["queries_per_session"], fx["candidates_per_query"],
                  fx["noise_rate"], seed=fx["seed"], log_sha256=fx["session_log_sha256"])


@dataclass
class Setup:
    cmds: list[Cmd]
    samples: dict[str, float]
    paths: dict[str, Path] = field(default_factory=dict)
    facts: dict[str, int | float] = field(default_factory=dict)


@dataclass
class Unit:
    cmds: list[Cmd]
    samples: dict[str, float]


@dataclass
class Workload:
    name: str
    corpus: Corpus
    setup: Callable[[Harness, int, Path], Setup]
    unit: Callable[[Harness, Setup, int, Path], Unit]
    prepare: Callable[[Harness, Setup, int, Path], None] | None = None


def _samples(cmd: Cmd, runs: int = 1) -> int:
    """Training samples a train or ablate command drew: runs × T × batch."""
    config = read_json(cmd.out / "manifest.json")["config"]
    return runs * config["pacing"]["T"] * config["batch_size"]


def _final_val_map(train_dir: Path) -> float:
    with open(train_dir / "trainlog.jsonl") as fp:
        validations = [rec["validation"] for rec in map(json.loads, fp) if "validation" in rec]
    if not validations:
        raise RuntimeError("trainlog.jsonl has no validation record")
    return validations[-1]["MAP"]


def train_desk(corpus: Corpus, train_args=("--epochs", 8), min_gain=0.2) -> Workload:
    """The criterion-7 unit of work: training steps and per-epoch
    validation dominate, bundle and ledger I/O are small."""

    def setup(h, seed, d):
        synth = corpus.synth(h, seed, d / "bundle")
        score = h.run("score", "--bundle", d / "bundle", out=d / "ledger")
        return Setup([synth, score],
                     {"setup_s": synth.seconds + score.seconds,
                      "ledger_contexts_per_s": positives_scored(score) / score.seconds},
                     {"bundle": d / "bundle", "ledger": d / "ledger" / "ledger.json"})

    def prepare(h, s, seed, d):
        # Criterion 7's baseline: the same seed's initial weights, untrained.
        h.run("train", "--bundle", s.paths["bundle"], "--ledger", s.paths["ledger"],
              "--steps", 0, "--seed", seed, out=d / "train0")
        cmd = h.run("eval", "--bundle", s.paths["bundle"], "--checkpoint",
                    d / "train0" / "checkpoint.bin", "--split", "val", out=d / "eval0")
        s.facts["untrained_map"] = read_json(cmd.out / "metrics.json")["metrics"]["MAP"]

    def unit(h, s, seed, d):
        train = h.run("train", "--bundle", s.paths["bundle"], "--ledger", s.paths["ledger"],
                      *train_args, "--seed", seed, out=d / "train")
        ev = h.run("eval", "--bundle", s.paths["bundle"], "--checkpoint",
                   d / "train" / "checkpoint.bin", "--split", "test", out=d / "eval")
        val_map = _final_val_map(d / "train")
        h.check(train, val_map >= s.facts["untrained_map"] + min_gain,
                f"final validation MAP {val_map:.4f} < untrained "
                f"{s.facts['untrained_map']:.4f} + {min_gain}")
        evaluated = read_json(ev.out / "metrics.json")["evaluated_queries"]
        return Unit([train, ev], {
            "wall_s": train.seconds + ev.seconds,
            "train_samples_per_s": _samples(train) / train.seconds,
            "eval_slates_per_s": evaluated / ev.seconds,
            "map": val_map,
        })

    return Workload("train-desk", corpus, setup, unit, prepare)


def ablate_desk(corpus: Corpus, ablate_args=("--epochs", 1)) -> Workload:
    """The same layers as train-desk used differently: 15 short training
    runs, each followed by a validation eval, so per-run fixed costs and
    evaluation weigh more; the only workload with the dense in-batch fit."""

    def setup(h, seed, d):
        synth = corpus.synth(h, seed, d / "bundle")
        return Setup([synth], {"setup_s": synth.seconds}, {"bundle": d / "bundle"})

    def unit(h, s, seed, d):
        score = h.run("score", "--bundle", s.paths["bundle"], "--scorer", "dense", "--fit",
                      "--seed", seed, out=d / "ledger")
        ablate = h.run("ablate", "--bundle", s.paths["bundle"], "--ledger",
                       d / "ledger" / "ledger.json", *ablate_args, "--seed", seed,
                       out=d / "ablation")
        table = read_json(ablate.out / "ablation.json")
        runs = len(table["modes"]) + len(table["grid"])
        return Unit([score, ablate], {
            "wall_s": score.seconds + ablate.seconds,
            "train_samples_per_s": _samples(ablate, runs) / ablate.seconds,
            "ledger_contexts_per_s": positives_scored(score) / score.seconds,
            "map": next(r["MAP"] for r in table["modes"] if r["mode"] == "dual"),
        })

    return Workload("ablate-desk", corpus, setup, unit)


def pipeline(corpus: Corpus, train_args=("--steps", 300, "--checkpoint-interval", 100)) -> Workload:
    """The CLI chain from a raw log, each stage reading what the last one
    wrote: log parsing, bundle and ledger I/O, the BM25 ledger build and
    digests dominate; training is a few percent, so a training-step
    optimisation should leave this workload unchanged."""

    def setup(h, seed, d):
        synth = corpus.synth(h, seed, d / "synth")
        return Setup([synth], {"setup_s": synth.seconds}, {"synth": d / "synth"})

    def prepare(h, s, seed, d):
        s.facts["records"] = count_lines(s.paths["synth"] / "log.jsonl")
        s.facts["test_slates"] = test_slates(s.paths["synth"])

    def unit(h, s, seed, d):
        ingest = h.run("ingest", "--log", s.paths["synth"] / "log.jsonl", out=d / "bundle")
        bundle_files = ("documents.jsonl", "sessions.jsonl", "contexts.jsonl")
        synthesized = read_json(s.paths["synth"] / "manifest.json")["output_digests"]
        h.check(ingest, all(ingest.digests.get(f) == synthesized[f] for f in bundle_files),
                "ingested bundle digests differ from the synth bundle")
        score = h.run("score", "--bundle", d / "bundle", out=d / "ledger")
        train = h.run("train", "--bundle", d / "bundle", "--ledger",
                      d / "ledger" / "ledger.json", *train_args, "--seed", seed,
                      out=d / "train")
        ev = h.run("eval", "--bundle", d / "bundle", "--checkpoint",
                   d / "train" / "checkpoint.bin", "--split", "test", out=d / "eval")
        result = read_json(ev.out / "metrics.json")
        h.check(ev, result["evaluated_queries"] == s.facts["test_slates"]
                and result["skipped_queries"] == 0,
                f"evaluated {result['evaluated_queries']} test slates, skipped "
                f"{result['skipped_queries']}; expected {s.facts['test_slates']}, none skipped")
        cmds = [ingest, score, train, ev]
        return Unit(cmds, {
            "wall_s": sum(c.seconds for c in cmds),
            "train_samples_per_s": _samples(train) / train.seconds,
            "ledger_contexts_per_s": positives_scored(score) / score.seconds,
            "ingest_records_per_s": s.facts["records"] / ingest.seconds,
            "eval_slates_per_s": result["evaluated_queries"] / ev.seconds,
            "map": result["metrics"]["MAP"],
        })

    return Workload("pipeline-10x", corpus, setup, unit, prepare)


def workloads() -> dict[str, Workload]:
    desk = desk_corpus()
    return {w.name: w for w in (
        train_desk(desk),
        ablate_desk(desk),
        pipeline(replace(desk, sessions=10 * desk.sessions, seed=None, log_sha256=None)),
    )}


# ---------------------------------------------------------------------------
# Measuring


def summarize(samples: list[dict[str, float]], units: dict[str, str]) -> dict[str, dict]:
    """Median, range and sample count of each metric over repeats."""
    out = {}
    for name in units:
        values = [s[name] for s in samples if name in s]
        if values:
            out[name] = {"value": statistics.median(values), "unit": units[name],
                         "n": len(values), "min": min(values), "max": max(values)}
    return out


def add_raw(samples: dict[str, float], cmds: list[Cmd], raw: str) -> None:
    """Record the raw wall seconds behind a reference-seconds sample and
    the machine speed over those commands."""
    samples[raw] = sum(c.raw_s for c in cmds)
    samples["machine_speed"] = sum(c.seconds for c in cmds) / samples[raw]


def measure(w: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """One run. Untraced, command times are reference seconds; a traced
    run times in wall seconds, as the tracer does."""
    h = Harness(normalise=not trace)
    report: dict = {"workload": w.name, "seed": seed, "trace": int(trace),
                    "corpus": w.corpus.describe(seed)}
    setups: list[Setup] = []
    units: list[Unit] = []
    layers = None
    try:
        while not setups or not trace and (len(setups) < MIN_SETUPS or sum(
                s.samples["setup_raw_s"] for s in setups) < SETUP_SECONDS):
            d = work / f"setup{len(setups)}"
            gc.collect()
            setups.append(w.setup(h, seed, d))
            add_raw(setups[-1].samples, setups[-1].cmds, "setup_raw_s")
            h.same_digests(setups[-1].cmds, [c.digests for c in setups[0].cmds],
                           "the first set-up")
            if len(setups) > 1:
                shutil.rmtree(d)
        state = setups[0]
        if w.prepare is not None:
            w.prepare(h, state, seed, work / "prepare")
        report["corpus"].update(state.facts)
        # A traced run does one untraced unit, then one traced unit.
        while not units or (len(units) < 2 if trace else sum(
                u.samples["wall_raw_s"] for u in units) < seconds):
            d = work / f"unit{len(units)}"
            gc.collect()
            if trace and units:
                encodes = towers.ENCODE_CALLS
                with Tracer() as tracer:
                    units.append(w.unit(h, state, seed, d))
                layers, step_gaps = tracer.layer_metrics(towers.ENCODE_CALLS - encodes)
                spans_file = OUT_DIR / f"spans-{w.name}-seed{seed}.jsonl"
                tracer.write(spans_file)
                report["spans"] = {"count": len(tracer.spans),
                                   "file": str(spans_file.relative_to(ROOT))}
                report["step_ms_samples"] = step_gaps
            else:
                units.append(w.unit(h, state, seed, d))
            add_raw(units[-1].samples, units[-1].cmds, "wall_raw_s")
            if len(units) == 1:
                check_against_earlier_runs(h, w.name, seed, units[0].cmds)
            else:
                h.same_digests(units[-1].cmds, [c.digests for c in units[0].cmds],
                               "the untraced unit" if trace else "the first unit")
            shutil.rmtree(d)
    except CommandFailed:
        pass

    metrics = summarize([s.samples for s in setups] + [u.samples for u in units], E2E_UNITS)
    if trace and len(units) == 2:
        overhead = units[1].samples["wall_s"] - units[0].samples["wall_s"]
        report["tracing_overhead_s"] = {"value": overhead, "unit": "s",
                                        "untraced_wall_s": units[0].samples["wall_s"]}
        metrics = {}
    metrics["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                              "unit": "MB", "n": 1}
    metrics["op_failure_rate"] = {"value": len(h.failed_ops) / max(h.attempted, 1),
                                  "unit": "ratio", "n": h.attempted}
    report["repeats"] = {"setup": len(setups), "units": len(units)}
    report["metrics"] = metrics
    if layers is not None:
        report["per_layer"] = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in layers.items()}
    report["attempted"] = h.attempted
    report["failed"] = len(h.failed_ops)
    report["problems"] = h.problems
    return report


def result_line(report: dict, names: list[str]) -> dict:
    """The contract's last line: only the metrics BENCHMARK.json lists."""
    source = report.get("per_layer", {}) if report["trace"] else report["metrics"]
    return {
        "correct": report["failed"] == 0 and all(n in source for n in names),
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: {"value": source[n]["value"], "unit": source[n]["unit"]}
                    for n in names if n in source},
    }


def main(argv=None) -> int:
    all_workloads = workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(all_workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = read_json(BENCH_FILE)
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        env = environment()
        report = measure(all_workloads[args.workload], args.seed, args.seconds,
                         bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report["environment"] = env
    for problem in report["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"detail": report}, sort_keys=True))
    print(json.dumps(result_line(report, names)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
