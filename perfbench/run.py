#!/usr/bin/env python3
"""Seal, check and interactive-run throughput of rankcert on seeded workloads.

    python3 perfbench/run.py --workload det-large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

One workload runs in one process, as a closed loop with a single caller.
A round runs every instance of the workload once interactively, seals it
once and checks the certificate a fixed number of times; rounds repeat until
``--seconds`` have passed, and every round is run to its end.  Each result
is compared with the answer known from how the input was built and with the
paper's communication and matrix-vector counts; a mismatch, a rejection or
an exception counts the operation as failed and the run goes on.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs rounds
untraced for ``--seconds``, then wraps the public functions of each layer,
runs traced rounds for as long again and reports per-layer counts and self
times per round, with the tracing overhead as the difference between the
median traced and untraced round; the spans go to ``perfbench/traces/``.
The last line of standard output is one JSON object.  ``--workload all``
runs each workload in a process of its own.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
NAMES = ("det-large", "witness-bigp", "small-mixed")


def cap_threads() -> None:
    """At most one BLAS/OpenMP thread per CPU this process may run on."""
    cpus = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        given = os.environ.get(var, "")
        os.environ[var] = str(min(int(given), cpus) if given.isdigit() else cpus)


def run_all(args) -> int:
    code = 0
    for name in NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        argv += ["--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        code = max(code, subprocess.run(argv, check=False).returncode)
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "rankcert" / "__init__.py").is_file():
        print(f"no rankcert sources under {SRC}", file=sys.stderr)
        return 2
    cap_threads()

    t0 = time.perf_counter()
    sys.path[:0] = [str(SRC), str(HERE)]
    import bench  # numpy and rankcert load here, after the thread caps

    import_s = time.perf_counter() - t0
    return bench.main(args, import_s, HERE / "traces")


if __name__ == "__main__":
    sys.exit(main())
