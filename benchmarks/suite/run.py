"""Script entry point: ``python3 benchmarks/suite/run.py --workload NAME ...``.

Same command line as ``python -m benchmarks.suite`` (see
:mod:`benchmarks.suite.harness`), runnable from the repository root
without setting ``PYTHONPATH``.  Exits 2 when the repository's sources
are not next to the benchmark.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")

if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [SRC, ROOT]
    from benchmarks.suite.harness import main

    raise SystemExit(main())
