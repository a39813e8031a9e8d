"""markercal benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Prints a report line, then, as the
last line, one JSON object {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
`--workload all` runs every workload in its own process, one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREADS = 1  # BLAS pools capped so timings do not depend on the core count
WORKLOAD_NAMES = ("ambiguity", "long_orbit", "track", "reacquire")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        print(json.dumps({"workload": name, "result": json.loads(lines[-1])}
                         if proc.returncode == 0 and lines else
                         {"workload": name, "exit_code": proc.returncode}), flush=True)
        status = status or proc.returncode
    return status


def _environment(seed: int) -> dict:
    import numpy as np
    import scipy

    def blas(show_config):
        dep = show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep['name']} {dep['version']}"

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_cap": THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config),
        "scipy_blas": blas(scipy.show_config),
        "seed": seed,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)

    start = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # markercal.cli imports only the standard library, so the caps below are
    # in place before the first import of numpy starts the BLAS pools
    from markercal.cli import _THREAD_ENV_VARS

    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread cap was set")
    for var in _THREAD_ENV_VARS:
        os.environ[var] = str(THREADS)
    import harness

    import_s = time.perf_counter() - start

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        metrics, verdict, report, _ = harness.run(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir, import_s
        )
    units = harness.LAYER_UNITS if args.trace else harness.E2E_UNITS
    report["environment"] = _environment(args.seed)
    print(json.dumps({"report": report}), flush=True)
    print(json.dumps({
        **verdict,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
