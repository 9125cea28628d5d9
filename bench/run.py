"""Benchmark launcher.

    python3 bench/run.py --workload verify --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --smoke

Run from the root of a source checkout.  Native thread pools are pinned
to one thread before numpy is imported, so that one caller means one
busy core.  The library is imported from the checkout's src/ and nowhere
else: without it the launcher exits with status 2 and prints no result.
"""

import os
import sys
import time
from pathlib import Path

START = time.perf_counter()

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def main() -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    bench = Path(__file__).resolve().parent
    package = bench.parent / "src" / "sgcorona"
    if not (package / "__init__.py").is_file():
        print(f"error: library source not found at {package}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(bench), str(package.parent)]
    import harness
    import sgcorona

    if Path(sgcorona.__file__).resolve().parent != package:
        print(f"error: sgcorona imported from {sgcorona.__file__}, not {package}", file=sys.stderr)
        return 2
    return harness.main(sys.argv[1:], import_s=time.perf_counter() - START)


if __name__ == "__main__":
    sys.exit(main())
