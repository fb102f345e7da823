"""Command line interface.

Subcommands:
    sample-noise   draw one increment path and dump it
    solve          solve one realization (or the deterministic problem)
    converge       Monte Carlo convergence-rate study
    verify         run the verification battery, print a PASS/FAIL table

Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from .errors import FactorizationError, GridMismatchError, NonConvergenceError
from .experiments import (
    StudyConfig,
    run_convergence_study,
    run_verification_suite,
)
from .fem import solve_nonlinear_fem
from .greens import solve_hammerstein
from .grids import UniformGrid
from .noise import HurstIndex, IncrementSampler, _increment_autocovariance
from .problem import ProblemSpec

__all__ = ["main"]

_USAGE_EXIT = 1
_NUMERICAL_EXIT = 2
_VERIFICATION_EXIT = 3


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(_USAGE_EXIT)


def _build_parser() -> _Parser:
    parser = _Parser(prog="fracbvp",
                     description="Stochastic boundary value problems driven by "
                                 "fractional noise (Hurst index H <= 1/2)")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--hurst", type=float, required=True,
                        help="Hurst index in (0, 1/2]")
    common.add_argument("--seed", type=int, default=0, help="master seed")
    common.add_argument("--out", type=str, default=None,
                        help="output file (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        dest="fmt", help="output format")

    p = sub.add_parser("sample-noise", parents=[common],
                       help="draw one fractional noise path")
    p.add_argument("--n", type=int, required=True, help="number of cells")
    p.add_argument("--method", "--sampler", choices=("cholesky", "davies-harte"),
                   default="cholesky", dest="method", help="sampling method")
    p.add_argument("--self-check", action="store_true",
                   help="run a lag-1 covariance z-test on a fresh batch")

    p = sub.add_parser("solve", parents=[common],
                       help="solve one realization on a fixed grid")
    p.add_argument("--n", type=int, required=True, help="number of cells")
    p.add_argument("--f", type=str, default="zero", dest="reaction",
                   help="reaction: zero | linear:<slope> | sin | sqrt-clip")
    p.add_argument("--g", type=str, default="zero", dest="forcing",
                   help="forcing: zero | one | sinpi")
    p.add_argument("--solver", choices=("fem", "greens", "both"), default="fem")
    p.add_argument("--method", "--sampler", choices=("cholesky", "davies-harte"),
                   default="cholesky", dest="method", help="sampling method")
    p.add_argument("--zero-noise", action="store_true",
                   help="solve the deterministic problem instead of sampling")
    p.add_argument("--tol", type=float, default=1e-10)

    p = sub.add_parser("converge", parents=[common],
                       help="Monte Carlo convergence study")
    p.add_argument("--ladder", type=str, required=True, metavar="N0:LEVELS",
                   help="grid ladder, e.g. 16:4 for 16,32,64,128")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--f", type=str, default="zero", dest="reaction")
    p.add_argument("--g", type=str, default="zero", dest="forcing")
    p.add_argument("--solver", choices=("fem", "greens", "both"), default="fem")
    p.add_argument("--sampler", "--method", choices=("cholesky", "davies-harte"),
                   default="cholesky", dest="sampler", help="sampling method")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--ref-extra", type=int, default=2,
                   help="reference grid is 2^this finer than the top level")
    p.add_argument("--tol", type=float, default=1e-10)

    p = sub.add_parser("verify", parents=[common],
                       help="run verification checks, exit 3 on any FAIL")
    p.add_argument("--samples-scale", type=float, default=1.0,
                   help="scale factor for the Monte Carlo sample counts")
    return parser


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fracbvp-")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _emit(text: str, out: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _write_atomic(out, text)


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _csv_text(header, rows, comments=()) -> str:
    buffer = io.StringIO()
    for line in comments:
        buffer.write(f"# {line}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buffer.getvalue()


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _cmd_sample_noise(args) -> int:
    hurst = HurstIndex(args.hurst)
    grid = UniformGrid(args.n)
    sampler = IncrementSampler(grid, hurst, args.method)
    path = sampler.sample(args.seed)
    nodes = grid.nodes()
    density = path.increments / grid.h

    if args.self_check:
        verdict = _lag_one_self_check(sampler, args.seed)
        print(f"self-check lag-1 covariance: z={verdict[0]:.2f} -> "
              f"{'PASS' if verdict[1] else 'FAIL'}", file=sys.stderr)
        if not verdict[1]:
            return _VERIFICATION_EXIT

    meta = {"hurst": hurst.value, "n": grid.n, "seed": args.seed,
            "method": args.method}
    if args.fmt == "json":
        payload = dict(meta, increments=path.increments.tolist(),
                       density=density.tolist())
        _emit(_json_text(payload), args.out)
    else:
        rows = [
            (i, nodes[i], nodes[i + 1], path.increments[i], density[i])
            for i in range(grid.n)
        ]
        comments = [f"{k}={v}" for k, v in meta.items()]
        _emit(_csv_text(("cell_index", "x_left", "x_right", "increment", "density"),
                        rows, comments), args.out)
    return 0


def _lag_one_self_check(sampler: IncrementSampler, seed: int) -> tuple:
    """z-test of the lag-1 increment covariance on a fresh seeded batch of 20000 paths."""
    batches = 20000
    n = sampler.grid.n
    if n < 2:
        return 0.0, True
    draws = sampler.sample_many(np.random.default_rng([seed, 1]), batches)
    products = draws[:, :-1] * draws[:, 1:]
    h = sampler.grid.h
    H = sampler.hurst.value
    rho1 = float(_increment_autocovariance(np.array([1]), h, H)[0])
    var0 = h ** (2.0 * H)
    # Gaussian product variance: Var(XY) = Var X Var Y + Cov(X,Y)^2
    var_product = var0 * var0 + rho1 * rho1
    total = float(products.sum())
    expected = batches * (n - 1) * rho1
    z = (total - expected) / math.sqrt(batches * (n - 1) * var_product)
    return z, abs(z) <= 4.0


def _cmd_solve(args) -> int:
    hurst = HurstIndex(args.hurst)
    grid = UniformGrid(args.n)
    problem = ProblemSpec.from_labels(hurst, args.reaction, args.forcing)
    path = None
    if not args.zero_noise:
        path = IncrementSampler(grid, hurst, args.method).sample(args.seed)

    solvers = ["fem", "greens"] if args.solver == "both" else [args.solver]
    columns = {}
    meta = {"hurst": hurst.value, "n": grid.n, "seed": args.seed,
            "f": args.reaction, "g": args.forcing,
            "zero_noise": args.zero_noise}
    for name in solvers:
        solve = solve_nonlinear_fem if name == "fem" else solve_hammerstein
        solution = solve(problem, path, grid=grid, tol=args.tol)
        columns[name] = solution.values
        meta[f"residual_{name}"] = solution.residual
        meta[f"iterations_{name}"] = solution.iterations

    nodes = grid.nodes()
    if args.fmt == "json":
        payload = dict(meta, x=nodes.tolist())
        for name, values in columns.items():
            payload[f"u_{name}"] = values.tolist()
        _emit(_json_text(payload), args.out)
    else:
        header = ["x"] + [f"u_{name}" for name in solvers]
        rows = [
            [nodes[i]] + [columns[name][i] for name in solvers]
            for i in range(grid.n + 1)
        ]
        comments = [f"{k}={_fmt(v)}" for k, v in meta.items()]
        _emit(_csv_text(header, rows, comments), args.out)
    return 0


def _parse_ladder(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"ladder must look like N0:LEVELS, got {text!r}")
    return int(parts[0]), int(parts[1])


def _cmd_converge(args) -> int:
    n0, levels = _parse_ladder(args.ladder)
    config = StudyConfig(
        hurst=args.hurst,
        reaction=args.reaction,
        forcing=args.forcing,
        n0=n0,
        levels=levels,
        ref_extra=args.ref_extra,
        samples=args.samples,
        seed=args.seed,
        solver=args.solver,
        sampler=args.sampler,
        tol=args.tol,
    )
    report = run_convergence_study(config, threads=args.threads)
    if args.fmt == "json":
        _emit(_json_text(report.to_dict()), args.out)
    else:
        rows = []
        for solver, block in report.results.items():
            for level in block["levels"]:
                rows.append((solver, level["n"], level["h"],
                             level["rms_error"], level["stderr"]))
        for solver, block in report.results.items():
            rows.append((solver, "rate", "",
                         block["fitted_rate"], block["rate_stderr"]))
        comments = [f"{k}={v}" for k, v in config.to_dict().items()]
        comments.append(f"wall_time={report.wall_time:.3f}")
        _emit(_csv_text(("solver", "n", "h", "rms_error", "stderr"),
                        rows, comments), args.out)
    for solver, block in report.results.items():
        print(f"{solver}: fitted rate {block['fitted_rate']:.3f} "
              f"(stderr {block['rate_stderr']:.3f})", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    verdicts = run_verification_suite(args.hurst,
                                      samples_scale=args.samples_scale,
                                      seed=args.seed)
    rows = [
        (v.check, v.target, v.estimate, v.statistic, v.status)
        for v in verdicts
    ]
    header = ("check", "target", "estimate", "statistic", "verdict")
    if args.fmt == "json":
        payload = [
            {"check": v.check, "target": v.target, "estimate": v.estimate,
             "statistic": v.statistic, "verdict": v.status, "details": v.details}
            for v in verdicts
        ]
        _emit(_json_text(payload), args.out)
    else:
        _emit(_csv_text(header, rows), args.out)
    if args.out is not None or args.fmt == "json":
        # human-readable mirror on stderr
        width = max(len(v.check) for v in verdicts)
        for v in verdicts:
            print(f"{v.check:<{width}}  target={v.target:.6g}  "
                  f"estimate={v.estimate:.6g}  {v.status}", file=sys.stderr)
    failed = [v for v in verdicts if not v.passed]
    return _VERIFICATION_EXIT if failed else 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "sample-noise": _cmd_sample_noise,
        "solve": _cmd_solve,
        "converge": _cmd_converge,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, GridMismatchError) as exc:
        print(f"fracbvp: invalid request: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except (FactorizationError, NonConvergenceError, FloatingPointError,
            np.linalg.LinAlgError) as exc:
        print(f"fracbvp: numerical failure: {exc}", file=sys.stderr)
        return _NUMERICAL_EXIT


if __name__ == "__main__":
    sys.exit(main())
