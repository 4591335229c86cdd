"""Benchmark of relerr: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload {mc_table1,mc_power,bodyfat} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; ``relerr`` is imported from its ``src``.
Each run starts worker processes with BLAS pinned to one thread.  With
``--trace 0`` it prints the end-to-end metrics: ``setup_s`` is the median
over ``SETUP_SAMPLES`` fresh processes (the timed one among them), and
``ops_per_s``, ``op_p50_ms`` and ``peak_rss_mb`` come from the timed
process.  With ``--trace 1`` it prints the per-layer metrics of a traced
run instead.  The last line of standard output is the result as JSON; a
copy goes to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import OUT_DIR, ROOT, SRC, TABLE1_CONFIG, write_bodyfat_csv
from worker import WORKLOADS

WORKER = Path(__file__).resolve().parent / "worker.py"
#: processes whose set-up time is measured; the median is reported
SETUP_SAMPLES = 5
#: the whole run must end within this many seconds
DEADLINE_S = 170.0
#: one BLAS/OpenMP thread, so timings measure the program, not the
#: scheduler; a fixed hash seed, so set and dict order repeat from run to run
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def run_worker(args, deadline, setup_only=False):
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **PINNED_ENV)
    # the worker reads the same system-wide monotonic clock at the end of
    # its set-up, so the difference covers interpreter start and imports
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    missing = [p for p in (SRC / "relerr" / "__init__.py", TABLE1_CONFIG) if not p.is_file()]
    if missing:
        print(f"not a relerr checkout: missing {[str(p) for p in missing]}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    if args.workload == "bodyfat":
        write_bodyfat_csv(OUT_DIR / "bodyfat.csv")

    try:
        setups = [] if args.trace else [
            run_worker(args, deadline, setup_only=True)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)]
        result = run_worker(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if not args.trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)

    line = json.dumps(result)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
