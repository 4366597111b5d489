"""hankel-scs benchmark: one command, end-to-end metrics or a traced per-layer split.

    python3 perfbench/run.py --workload desk-grid --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``
and stops with a nonzero exit code when that is missing.  ``harness.py``
holds the closed loop, the metrics and the correctness gate; this file only
pins threads, finds the package and parses arguments, so that set-up time
can be counted from the first line.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, before NumPy loads

import os

# One BLAS/OpenMP thread (nproc is 2 on the reference machine), set before
# NumPy is imported, so figures do not depend on what else runs on the other
# core.  scipy.fft keeps its default of one worker.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 1
HELD_OUT_SEED = 20240314  # confirm claims on this seed; never tune on it


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time as JSON and exit")
    return ap.parse_args(argv)


def _use_checkout_package():
    src = ROOT / "src"
    if not (src / "hankel_scs" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {src / 'hankel_scs'}; run from a checkout's root")
    sys.path.insert(0, str(src))
    import hankel_scs

    if Path(hankel_scs.__file__).resolve().parent != (src / "hankel_scs").resolve():
        sys.exit(f"perfbench: imported hankel_scs from {hankel_scs.__file__}, not {src}")


if __name__ == "__main__":
    loadavg_start = [round(v, 2) for v in os.getloadavg()]
    args = _parse(sys.argv[1:])
    _use_checkout_package()
    import harness

    facts = dict(blas_threads=BLAS_THREADS, default_seed=DEFAULT_SEED,
                 held_out_seed=HELD_OUT_SEED, loadavg_start=loadavg_start)
    sys.exit(harness.main(args, T0, facts))
