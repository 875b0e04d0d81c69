#!/usr/bin/env python3
"""Run one gsp benchmark workload and print its result as a JSON last line.

    python3 benchmarks/run.py --workload scale_er120 --seed 1 --seconds 40 --trace 0

Run it from anywhere inside a checkout of the repository: the package is
imported from the checkout's ``src`` directory, never from an installed copy,
and the run fails if that source is missing.  The BLAS thread count is fixed
before numpy loads.
"""

import os
import sys
from pathlib import Path

#: BLAS threads of the benchmark process.
BLAS_THREADS = 1

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    package = ROOT / "src" / "gsp" / "__init__.py"
    if not package.is_file():
        print(f"error: package source {package.relative_to(ROOT)} is missing "
              "from this checkout", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import harness  # after the environment is fixed: it loads numpy

    return harness.main(argv, ROOT)


if __name__ == "__main__":
    sys.exit(main())
