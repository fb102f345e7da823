"""Run the benchmark over several seeds and summarise each metric's spread.

Usage, from the root of a checkout:

    python3 bench/spread.py --seeds 1-10
    python3 bench/spread.py --seeds 1-10 --trace-seeds 1,1 --out FILE

For each seed it runs `bench/run.py --workload all`, which runs every
workload of BENCHMARK.json in its own process for its run_seconds; seeds are
the outer loop, so drift of the machine spreads over all workloads.  For each
workload and end-to-end metric it prints the median, the quartiles of
statistics.quantiles(values, n=4), and their distance as a share of the
median, next to the metric's bound in BENCHMARK.json.  Traced runs
(--trace-seeds) add the median of each per-layer metric.  --out writes every
run and the summaries as one JSON record, such as a trajectory point.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text: str) -> list:
    """'1-10' or '1,4,7' -> list of ints."""
    if "-" in text:
        first, last = map(int, text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",") if part]


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """The final JSON line of `run.py --workload all`: {"env": ..., "results": ...}."""
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "all",
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    child = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed} trace {trace}: exit {child.returncode}")
    return json.loads(lines[-1])


def summarise(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace-seeds", default="", help="seeds of traced runs")
    parser.add_argument("--out", default=None, help="write the record as JSON here")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds, trace_seeds = seed_list(args.seeds), seed_list(args.trace_seeds)

    runs = {w: {"e2e": [], "traced": []} for w in workloads}
    env = None
    for trace, seed in [(0, s) for s in seeds] + [(1, s) for s in trace_seeds]:
        record = run_all(seed, seconds, trace)
        env = env or record["env"]
        if sorted(record["results"]) != sorted(workloads):
            raise SystemExit(f"run.py ran {sorted(record['results'])}, "
                             f"BENCHMARK.json lists {sorted(workloads)}")
        for workload, result in record["results"].items():
            runs[workload]["traced" if trace else "e2e"].append({"seed": seed, **result})
            if not trace:
                print(f"{workload} seed {seed}: " + "  ".join(
                    f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
                    + f"  failed={result['failed']}/{result['attempted']}", flush=True)

    summary, all_ok = {}, True
    print(f"\n{'workload':<18} {'metric':<12} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}")
    for workload, kinds in runs.items():
        e2e = {}
        for metric in bounds:
            stats = summarise([r["metrics"][metric]["value"] for r in kinds["e2e"]])
            e2e[metric] = stats
            flag = "" if stats["spread"] < bounds[metric] / 3 else "  above bound/3"
            print(f"{workload:<18} {metric:<12} {stats['median']:>10.5g} {stats['q1']:>10.5g} "
                  f"{stats['q3']:>10.5g} {stats['spread']:>7.3f} {bounds[metric]:>6.2f}{flag}")
        failures = sum(r["failed"] for r in kinds["e2e"] + kinds["traced"])
        correct = all(r["correct"] for r in kinds["e2e"] + kinds["traced"])
        all_ok = all_ok and correct and failures == 0
        per_layer = {}
        if kinds["traced"]:
            for metric in kinds["traced"][0]["metrics"]:
                per_layer[metric] = statistics.median(
                    r["metrics"][metric]["value"] for r in kinds["traced"])
        summary[workload] = {"end_to_end": e2e, "per_layer_median": per_layer,
                             "failed": failures, "all_correct": correct}
        print(f"{workload:<18} failed ops {failures}, all runs correct: {correct}")

    if args.out:
        record = {"seconds": seconds, "seeds": seeds, "trace_seeds": trace_seeds,
                  "env": env, "summary": summary, "runs": runs}
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
