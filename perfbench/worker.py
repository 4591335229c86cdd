"""One benchmark process: set up one workload, run its ops, check them.

Started by ``run.py``; not meant to be run by hand.  It imports
``relerr`` from the checkout's ``src``, does the workload's set-up, and
reports ``setup_s`` as the time since ``--t0`` (read from the same
system-wide monotonic clock by the parent just before it started this
process).  With ``--setup-only`` it stops there.  Otherwise it runs ops
one after another (a closed loop with one client) for ``--seconds``,
always finishing the op in progress, then checks every op's output and
prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from dataclasses import asdict, replace
from time import perf_counter

from inputs import (BODYFAT_RESAMPLE_SEED, OUT_DIR, POWER_BETA2, SRC, TABLE1_CONFIG,
                    op_seed)

#: replications per estimation-study op (about 1 s per op)
TABLE1_REPS = 1000
#: replications per beta_2 grid point in a power-study op (about 2.6 s per op)
POWER_REPS = 400
#: random-weighting resamples per method in a body-fat op (about 2.2 s per op)
BODYFAT_RESAMPLES = 3
#: ops run twice, untraced and traced, after the untraced loop of a traced run
TRACE_OPS = {"mc_table1": 4, "mc_power": 2, "bodyfat": 2}


def _import_relerr():
    sys.path.insert(0, str(SRC))
    import relerr

    if not relerr.__file__.startswith(str(SRC)):
        raise ImportError(f"relerr imported from {relerr.__file__}, not {SRC}")


class Table1:
    """Paper Table 1: LPRE + LS, analytic SEs, log-normal(0, 1), n = 200."""

    def __init__(self, seed):
        from relerr import simulate

        self.simulate, self.seed = simulate, seed
        self.config = replace(simulate.load_config(TABLE1_CONFIG)["config"],
                              replications=TABLE1_REPS)

    def op(self, i):
        config = replace(self.config, seed=op_seed(self.seed, i))
        return [asdict(row) for row in self.simulate.run_estimation_study(config)]

    def check(self, outputs):
        import checks

        return [checks.check_table1(rows, TABLE1_REPS) for rows in outputs], [[]] * len(outputs)


class Power:
    """Criterion-difference test of beta_2 = 0 over a beta_2 grid, with errors
    from the LPRE-efficient law (drawn by the rejection sampler)."""

    def __init__(self, seed):
        from relerr import distributions, simulate

        law = distributions.ErrorLaw("lpre_efficient")
        distributions.Sampler(law)  # fills the sampler's envelope cache
        self.simulate, self.seed = simulate, seed
        self.config = simulate.SimulationConfig(
            beta_true=(1.0, 1.0, 0.0), error_law=law, n=200,
            replications=POWER_REPS, estimators=("lpre",))
        self.grid = [(1.0, 1.0, b) for b in POWER_BETA2]

    def op(self, i):
        config = replace(self.config, seed=op_seed(self.seed, i))
        rows = self.simulate.run_power_study(config, (2,), self.grid, alpha_levels=(0.05,))
        return [(row.beta[2], row.alpha, row.reject_rate) for row in rows]

    def check(self, outputs):
        import checks

        return [checks.check_power(rows, POWER_BETA2, POWER_REPS) for rows in outputs], [[]] * len(outputs)


class Bodyfat:
    """Body-fat case study (p = 13): all four methods on the fixed CSV.

    Every op is the same call, whatever the seed: the Nelder-Mead work of
    the resampled LARE fits changes by about 25% from one resampling
    stream to the next, which would swamp the timing, and the LARE point
    fit (the kept failure) must not depend on the seed.
    """

    def __init__(self, seed):  # unused: see the class docstring
        from relerr import evaluate

        self.evaluate = evaluate
        self.csv = OUT_DIR / "bodyfat.csv"

    def op(self, _i):
        coef_rows, metric_rows = self.evaluate.bodyfat_pipeline(
            self.csv, resamples=BODYFAT_RESAMPLES, seed=BODYFAT_RESAMPLE_SEED)
        return coef_rows, [(method, m.as_tuple()) for method, m in metric_rows]

    def check(self, outputs):
        import checks
        from inputs import bodyfat_design

        ref = checks.BodyfatReference(*bodyfat_design())
        results = [checks.check_bodyfat(coef_rows, metric_rows, ref)
                   for coef_rows, metric_rows in outputs]
        return [r[0] for r in results], [r[1] for r in results]


WORKLOADS = {"mc_table1": Table1, "mc_power": Power, "bodyfat": Bodyfat}


def run_ops(workload, seconds):
    """Ops 0, 1, ... until ``seconds`` have passed; returns (outputs,
    latencies, elapsed)."""
    outputs, latencies = [], []
    start = perf_counter()
    while True:
        t = perf_counter()
        outputs.append(workload.op(len(latencies)))
        latencies.append(perf_counter() - t)
        if perf_counter() - start >= seconds:
            return outputs, latencies, perf_counter() - start


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _import_relerr()
    workload = WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        outputs, metrics = traced_run(workload, args)
    else:
        outputs, latencies, elapsed = run_ops(workload, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": len(latencies) / elapsed, "unit": "1/s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(latencies), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    violations, lare_violations = workload.check(outputs)
    for message in [m for ms in violations + lare_violations for m in ms]:
        print(message, file=sys.stderr)
    print(json.dumps({
        "correct": not any(violations),
        "attempted": len(outputs),
        "failed": sum(bool(ms) for ms in lare_violations),
        "metrics": metrics,
    }))
    return 0


def traced_run(workload, args):
    """Untraced ops for ``--seconds``, then ops 0 .. TRACE_OPS-1 each run
    twice in a row, untraced and traced.  The overhead compares the two
    timings of each such pair, so drift in the box's speed cancels."""
    from tracer import Tracer

    outputs, _, _ = run_ops(workload, args.seconds)
    tracer = Tracer()
    untraced_s = traced_s = 0.0
    for i in range(TRACE_OPS[args.workload]):
        t = perf_counter()
        outputs.append(workload.op(i))
        untraced_s += perf_counter() - t
        tracer.op = i
        tracer.install()
        try:
            t = perf_counter()
            outputs.append(workload.op(i))
            traced_s += perf_counter() - t
        finally:
            tracer.uninstall()
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")
    overhead_pct = 100.0 * (traced_s / untraced_s - 1.0)
    return outputs, tracer.metrics(TRACE_OPS[args.workload], overhead_pct)


if __name__ == "__main__":
    sys.exit(main())
