"""Time the set-up every fracbvp CLI invocation pays, in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR HURST REACTION FORCING N METHOD

set_up() imports fracbvp, runs ProblemSpec.from_labels and constructs an
IncrementSampler on an N-cell grid (its Cholesky factor or circulant
spectrum).  main() times one set_up() call and prints the seconds taken;
run.py starts one such process per set-up sample, and its traced run calls
the same set_up() in process.
"""

import sys
import time


def set_up(hurst: float, reaction: str, forcing: str, n: int, method: str) -> None:
    """The set-up a CLI invocation pays; the import is free once fracbvp is loaded."""
    import fracbvp

    fracbvp.ProblemSpec.from_labels(hurst, reaction, forcing)
    fracbvp.IncrementSampler(fracbvp.UniformGrid(n), hurst, method)


def main() -> None:
    src, hurst, reaction, forcing, n, method = sys.argv[1:]
    sys.path.insert(0, src)
    start = time.perf_counter()
    set_up(float(hurst), reaction, forcing, int(n), method)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
