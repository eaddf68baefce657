"""Run every workload over several seeds and record the results.

    python3 perfbench/baseline.py [--runs 10] [--out perfbench/baseline.json]

Runs `perfbench/run.py` the way BENCHMARK.json's command is run: one
process per run, untraced on seeds 1..runs and traced once per workload,
interleaving workloads so that drift in machine speed reaches all of
them alike. Writes, per workload, the median and quartiles of every
metric across runs, each end-to-end metric's spread (interquartile range
over median) beside its bound, the traced per-layer split and the
tracing overhead, with the environment. Prints the same as a table.
Exits 1 when a run fails its checks or a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    detail = json.loads(lines[-2])["detail"]
    detail["result"] = json.loads(lines[-1])
    detail["process_s"] = elapsed
    return detail


def quartiles(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n_runs": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    runs: dict[str, list[dict]] = {n: [] for n in names}
    traced: dict[str, dict] = {}
    for seed in range(1, args.runs + 1):
        for name in names:
            runs[name].append(run_once(spec, name, seed, 0))
            print(f"{name} seed {seed}: correct={runs[name][-1]['result']['correct']} "
                  f"in {runs[name][-1]['process_s']:.1f} s", file=sys.stderr, flush=True)
    for name in names:
        traced[name] = run_once(spec, name, 1, 1)

    ok = True
    record = {"run_seconds": spec["run_seconds"], "environment": runs[names[0]][0]["environment"],
              "workloads": {}}
    print(f"{'workload':14s} {'metric':24s} {'median':>12s} {'unit':>11s} {'spread':>7s} "
          f"{'bound':>6s}  repeats/run")
    for name in names:
        metrics = {}
        for metric, first in runs[name][0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs[name]]
            entry = {"unit": first["unit"], **quartiles(values), "values": values,
                     "repeats_per_run": statistics.median(r["metrics"][metric]["n"]
                                                          for r in runs[name])}
            if metric in bounds:
                entry["bound"] = bounds[metric]
                ok &= metric == "setup_s" or entry["spread"] <= bounds[metric]
            metrics[metric] = entry
            print(f"{name:14s} {metric:24s} {entry['median']:12.5g} {entry['unit']:>11s} "
                  f"{entry['spread']:7.3f} {entry.get('bound', ''):>6}  "
                  f"{entry['repeats_per_run']:g}")
        t = traced[name]
        ok &= all(r["result"]["correct"] for r in runs[name]) and t["result"]["correct"]
        record["workloads"][name] = {
            "seeds": list(range(1, args.runs + 1)),
            "process_s": quartiles([r["process_s"] for r in runs[name]]),
            "problems": sorted({p for r in runs[name] + [t] for p in r["problems"]}),
            "corpus": runs[name][0]["corpus"],
            "end_to_end": metrics,
            "per_layer": {"seed": 1, "metrics": t["per_layer"],
                          "step_ms_samples": t["step_ms_samples"],
                          "tracing_overhead_s": t["tracing_overhead_s"]},
        }
        for metric, v in t["per_layer"].items():
            print(f"{name:14s} {metric:32s} {v['value']:12.5g} {v['unit']:>6s}")
        print(f"{name:14s} one run takes {statistics.median(r['process_s'] for r in runs[name]):.1f} s "
              f"untraced, {t['process_s']:.1f} s traced")
        print(f"{name:14s} tracing overhead {t['tracing_overhead_s']['value']:.3f} s over "
              f"{t['tracing_overhead_s']['untraced_wall_s']:.3f} s untraced")
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}; {'all checks and spreads within bounds' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
