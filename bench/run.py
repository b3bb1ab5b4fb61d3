"""Benchmark launcher.

    python3 bench/run.py --workload {suite,sweep_n1,closed_forms} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  The launcher pins the process
environment before numpy is imported (one BLAS/OpenMP thread, no bytecode
written next to the sources), puts ``src`` first on the import path and
hands over to ``harness.main``.  Without ``src/ellselberg`` it exits with
status 2 and prints no result.
"""

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")

if __name__ == "__main__":
    if not os.path.isfile(os.path.join(_SRC, "ellselberg", "__init__.py")):
        print(f"bench: no package sources under {_SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, _SRC)
    import harness

    sys.exit(harness.main())
