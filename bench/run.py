"""quarteig benchmark launcher.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Sets the BLAS thread count before numpy is first imported, makes sure the
quarteig source next to ``bench/`` is the one imported, then hands over to
``harness.py``. Exits with code 2, printing no result, when that source is
missing.
"""

import argparse
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")


def main(argv=None):
    parser = argparse.ArgumentParser(description="quarteig benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    if not (SRC / "quarteig" / "__init__.py").is_file():
        print(f"error: no quarteig source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import quarteig

    if Path(quarteig.__file__).resolve().parent != SRC / "quarteig":
        print(f"error: quarteig was imported from {quarteig.__file__}", file=sys.stderr)
        return 2
    import harness

    return harness.main(args, nproc, BLAS_THREAD_VARS)


if __name__ == "__main__":
    sys.exit(main())
