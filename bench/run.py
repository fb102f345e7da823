"""fracbvp benchmark: run one workload end to end, or traced layer by layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload study-fem --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 45

--trace 0 reports the end-to-end metrics (op_s, setup_s, peak_rss_mb) with
no wrappers installed.  --trace 1 installs span wrappers and reports the
per-layer metrics of tracing.py.  --workload all runs every workload in its
own process and prints one table.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the lines
before it give the environment, digests and failed_share.  A full record
(and, traced, the spans) is written under bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_SAMPLES = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Largest gap allowed between an op's summed layer self times and its wall time
# as OpLog.run measures it, outside the tracer.  Entering and leaving the root
# span costs about 20 us on a 2-core Xeon; the rest allows for the process being
# descheduled between the two clocks.
IDENTITY_TOLERANCE_S = 5e-3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="study-fem | study-greens-fine | all")
    parser.add_argument("--seed", type=int, required=True,
                        help="operation i of the run uses seed + i")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time, after set-up and warm-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    sources = hashlib.sha256()
    for path in sorted((SRC / "fracbvp").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor() or platform.machine(),
        "git_commit": commit,
        "src_sha256": sources.hexdigest(),
        "seed": seed,
    }


def time_setups(workload) -> list:
    """setup_s samples, each from a fresh interpreter (see setup_probe.py)."""
    command = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC),
               *map(str, workload.setup_args())]
    return [float(subprocess.run(command, capture_output=True, text=True, check=True,
                                 timeout=120).stdout.strip().splitlines()[-1])
            for _ in range(SETUP_SAMPLES)]


class OpLog:
    """Outcome of every operation of a run, in the order they ran."""

    def __init__(self, workload, seed: int):
        self.workload, self.seed = workload, seed
        self.attempted = 0
        self.failed = 0
        self.digests = {}

    def run(self, index: int, tracer=None):
        """Run op `index` (traced when a tracer is given); returns (wall s, digest)."""
        self.attempted += 1
        scope = tracer.op(index) if tracer is not None else nullcontext()
        start = time.perf_counter()
        try:
            with scope:
                output = self.workload.run(self.seed, index)
        except Exception as exc:  # a failed op is counted and the run goes on
            wall = time.perf_counter() - start
            self.fail(index, [f"{type(exc).__name__}: {exc}"])
            return wall, None
        wall = time.perf_counter() - start
        digest = self.workload.digest(output)
        problems = self.workload.check(output)
        if problems:
            self.fail(index, problems)
        return wall, digest

    def fail(self, index: int, problems) -> None:
        self.failed += 1
        for problem in problems:
            print(f"op {index} (library seed {self.workload.op_seed(self.seed, index)}) "
                  f"failed: {problem}", file=sys.stderr)

    def warm_up(self) -> None:
        """Op 0: fills per-process caches and lazy imports; checked, not timed."""
        self.digests[0] = self.run(0)[1]


def measure(workload, args) -> dict:
    """End-to-end run: set-up samples, warm-up, then ops for --seconds.

    No op starts that would, at the median op time so far, end past --seconds,
    so a run of long ops does not overrun its time by up to one op.
    """
    setups = time_setups(workload)
    log = OpLog(workload, args.seed)
    log.warm_up()
    walls = []
    index = 1
    started = time.perf_counter()
    while not walls or (time.perf_counter() - started + statistics.median(walls)
                        <= args.seconds):
        wall, log.digests[index] = log.run(index)
        walls.append(wall)
        index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "op_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    extra = {"op_walls_s": walls, "setup_samples_s": setups}
    return finish(args, log, metrics, extra, correct=log.failed == 0)


def traced_op_count(workload, seconds: float) -> int:
    """Fixed by (workload, seconds) so that counts repeat exactly for a seed."""
    return max(1, round(seconds / 2.0 / workload.nominal_op_s))


def measure_traced(workload, args) -> dict:
    """Traced run: each op untraced, then again traced; reports per-layer metrics."""
    from setup_probe import set_up
    from tracing import Tracer, layer_metrics, unit_of

    tracer = Tracer()
    tracer.install()
    set_up(*workload.setup_args())
    tracer.uninstall()
    log = OpLog(workload, args.seed)
    log.warm_up()
    op_ids = list(range(1, 1 + traced_op_count(workload, args.seconds)))
    untraced_walls, traced_walls = [], []
    for index in op_ids:  # alternate, so drift of the machine hits both alike
        wall, plain = log.run(index)
        untraced_walls.append(wall)
        tracer.install()
        try:
            wall, wrapped = log.run(index, tracer)
        finally:
            tracer.uninstall()
        traced_walls.append(wall)
        log.digests[index] = plain
        if plain != wrapped:
            log.fail(index, [f"traced digest {wrapped} != untraced digest {plain}"])
    layer, gaps = layer_metrics(tracer, op_ids, traced_walls, untraced_walls)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{workload.name}-seed{args.seed}.json.gz")
    metrics = {name: (value, unit_of(name)) for name, value in layer.items()}
    identity_ok = max(gaps) <= IDENTITY_TOLERANCE_S
    if not identity_ok:
        print(f"layer self times miss op wall time by up to {max(gaps):.3g} s", file=sys.stderr)
    extra = {"identity_gap_median_s": statistics.median(gaps),
             "identity_gap_max_s": max(gaps), "traced_ops": op_ids}
    return finish(args, log, metrics, extra, correct=log.failed == 0 and identity_ok)


def finish(args, log: OpLog, metrics: dict, extra: dict, correct: bool) -> dict:
    """Print the human-readable lines and write the record; return the result line."""
    env = environment(args.seed)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("env " + json.dumps(env))
    print(f"warm-up digest {log.digests[0]}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_share {log.failed / log.attempted:.6g} ratio "
          f"({log.failed} of {log.attempted} ops)")
    result = {
        "correct": bool(correct),
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "env": env, "result": result, "digests": log.digests, **extra}
    suffix = "traced" if args.trace else "e2e"
    (OUT_DIR / f"{args.workload}-seed{args.seed}-{suffix}.json").write_text(
        json.dumps(record, indent=1))
    return result


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process); one table.

    The last line is one JSON object: the environment block and each workload's result.
    """
    from workloads import WORKLOADS

    results, env, status = {}, None, 0
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            print(f"{name}: exit code {child.returncode}", file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        env = env or next((json.loads(line[4:]) for line in lines if line.startswith("env ")),
                          None)
    for name, result in results.items():
        print(f"{name}:")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<28} {entry['value']:>14.6g} {entry['unit']}")
        print(f"  {'failed_share':<28} {result['failed'] / result['attempted']:>14.6g} ratio"
              f"  ({result['failed']} of {result['attempted']} ops)")
    print(json.dumps({"env": env, "results": results}))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fracbvp" / "__init__.py").is_file():
        print(f"bench: no fracbvp sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    import fracbvp
    from workloads import WORKLOADS

    if Path(fracbvp.__file__).resolve().parent != (SRC / "fracbvp").resolve():
        print(f"bench: imported fracbvp from {fracbvp.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    result = (measure_traced if args.trace else measure)(workload, args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
