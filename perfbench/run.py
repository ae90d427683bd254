"""dualprox benchmark: time to solution per workload, or its per-layer split.

Run from the repository root, one workload per process:

    python3 perfbench/run.py --workload market-async --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics from untraced ops; ``--trace 1``
the per-layer metrics from traced ops.  Progress, the environment and a
readable table go to stdout as ``#`` lines; the last line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.  The package is imported
from ``src/`` beside this directory; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("market-async", "consensus-path", "consensus-mixed")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy

    import dualprox
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "absent"
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "dualprox": getattr(dualprox, "__version__", "unknown"),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(root),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # one client in one thread: BLAS must not start its own threads
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "dualprox" / "__init__.py").is_file():
        print(f"error: dualprox sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import harness
    from pipeline import WORKLOADS

    print("# env " + json.dumps(environment(
        ROOT, args.workload, args.seed, args.seconds, args.trace)), flush=True)
    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = harness.measure(WORKLOADS[args.workload], args.seed, args.seconds,
                                 bool(args.trace), work,
                                 log=lambda line: print(line, flush=True))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
