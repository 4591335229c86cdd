"""Per-layer trace of the program, recorded from outside it.

``Tracer`` swaps the public functions listed in ``LAYERS`` (module and
class attributes of ``relerr``) for wrappers that record one span per
call: name, start, end, parent span and op number.  Spans stay in memory
until ``write``.  Counts are read from what the calls return
(``FitResult.iterations``/``.converged``, ``CovarianceEstimate.n_skipped``,
the size of a draw) and from the ``nfev`` of each Nelder-Mead run.
"""

from __future__ import annotations

import importlib
import inspect
import json
from time import perf_counter

import numpy as np

#: (module, attribute path) of every traced public function
LAYERS = (
    ("solver", "fit_gre"),
    ("solver", "fit_lad_log"),
    ("solver", "fit_lpre"),
    ("solver", "fit_ls_log"),
    ("solver", "fit_constrained_lpre"),
    ("solver", "check_design"),
    ("solver", "LinearHypothesis.null_basis"),
    ("inference", "random_weight_covariance"),
    ("inference", "sandwich_covariance"),
    ("inference", "ols_log_covariance"),
    ("inference", "lpre_anova_test"),
    ("distributions", "Sampler.draw"),
    ("simulate", "generate_dataset"),
    ("simulate", "run_estimation_study"),
    ("simulate", "run_power_study"),
    ("evaluate", "bodyfat_pipeline"),
    ("evaluate", "prediction_metrics"),
)

_LAYER_METRICS = (
    ("solver.fit_gre", ("calls", "self_s", "iters", "unconverged", "cert_fail")),
    ("solver.fit_lad_log", ("calls", "self_s", "iters")),
    ("inference.random_weight_covariance", ("calls", "self_s", "resamples", "skipped")),
    ("solver.fit_lpre", ("calls", "self_s", "iters")),
    ("solver.fit_ls_log", ("calls", "self_s")),
    ("inference.sandwich_covariance", ("calls", "self_s")),
    ("inference.ols_log_covariance", ("calls", "self_s")),
    ("solver.check_design", ("calls", "self_s")),
    ("solver.fit_constrained_lpre", ("calls", "self_s", "iters")),
    ("solver.LinearHypothesis.null_basis", ("calls", "self_s")),
    ("inference.lpre_anova_test", ("calls", "self_s")),
    ("distributions.Sampler.draw", ("calls", "self_s", "draws")),
    ("simulate.generate_dataset", ("calls", "self_s")),
    ("simulate.run_estimation_study", ("self_s",)),
    ("simulate.run_power_study", ("self_s",)),
    ("evaluate.bodyfat_pipeline", ("self_s",)),
    ("evaluate.prediction_metrics", ("self_s",)),
)
#: per-layer metric -> (unit, better); the order is the report order
METRICS = {
    f"{layer}.{kind}": ("s" if kind == "self_s" else "count", "lower")
    for layer, kinds in _LAYER_METRICS for kind in kinds
}
METRICS["criteria.loss_evals"] = ("count", "lower")
METRICS["trace.ops"] = ("count", "lower")
METRICS["trace.overhead_pct"] = ("%", "lower")


def _arguments(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    """Records spans and counts while installed; ``uninstall`` restores."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op]
        self.counts = {name: 0 for name, (unit, _) in METRICS.items()
                       if unit == "count" and not name.endswith(".calls")}
        self.gre_fits = []  # (x, log y, weights, beta) of every LARE fit
        self.op = -1
        self._stack = []
        self._saved = []

    def install(self):
        for module_name, path in LAYERS:
            module = importlib.import_module(f"relerr.{module_name}")
            *owner_path, attr = path.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part)
            fn = owner.__dict__[attr] if owner_path else getattr(module, attr)
            self._swap(owner, attr, self._wrap(f"{module_name}.{path}", fn))
        # Nelder-Mead runs behind a closure, so count its objective
        # evaluations from the result of every scipy.optimize.minimize call
        optimize = importlib.import_module("scipy.optimize")
        self._swap(optimize, "minimize", self._count_nfev(optimize.minimize))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _swap(self, owner, attr, replacement):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, name, fn):
        on_return = getattr(self, "_on_" + name.rsplit(".", 1)[-1], None)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter(), None, stack[-1] if stack else -1, self.op])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(name, lambda: _arguments(fn, args, kwargs), result)
            return result

        return traced

    def _count_nfev(self, minimize):
        def counted(*args, **kwargs):
            result = minimize(*args, **kwargs)
            self.counts["criteria.loss_evals"] += int(result.nfev)
            return result

        return counted

    def _on_fit(self, name, _arguments, result):
        self.counts[f"{name}.iters"] += int(result.iterations)

    _on_fit_lad_log = _on_fit_lpre = _on_fit_constrained_lpre = _on_fit

    def _on_fit_gre(self, name, arguments, result):
        self._on_fit(name, arguments, result)
        self.counts[f"{name}.unconverged"] += not result.converged
        args = arguments()
        if args["criterion"].name == "sum":
            data = args["data"]
            self.gre_fits.append((data.x, np.log(data.y), args.get("weights"), result.beta))

    def _on_random_weight_covariance(self, name, arguments, result):
        self.counts[f"{name}.resamples"] += int(arguments()["n_resample"])
        self.counts[f"{name}.skipped"] += int(result.n_skipped)

    def _on_draw(self, name, _arguments, result):
        self.counts[f"{name}.draws"] += int(np.size(result))

    def metrics(self, ops: int, overhead_pct: float) -> dict:
        """Per-layer metrics of the traced ops, every name in ``METRICS``."""
        from checks import CRITERION_RTOL, lare_criterion, lare_minimum

        self.counts["solver.fit_gre.cert_fail"] = sum(
            lare_criterion(x, z, beta, w) > lare_minimum(x, z, w)[1] * (1 + CRITERION_RTOL)
            for x, z, w, beta in self.gre_fits)
        self.counts["trace.ops"] = ops
        calls, self_s = {}, {}
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        for (name, start, end, _parent, _op), inner in zip(self.spans, child_s):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - inner
        out = {}
        for metric, (unit, _) in METRICS.items():
            layer, kind = metric.rsplit(".", 1)
            if kind == "calls":
                value = calls.get(layer, 0)
            elif kind == "self_s":
                value = self_s.get(layer, 0.0)
            elif metric == "trace.overhead_pct":
                value = overhead_pct
            else:
                value = self.counts[metric]
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path):
        """Spans as JSON lines: name, start, end (s), parent index, op."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
