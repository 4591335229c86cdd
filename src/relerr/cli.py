"""Command-line front end: fit, test, simulate, and predict over CSV files."""

from __future__ import annotations

import csv as _csv
import sys
from pathlib import Path

import click
import numpy as np

from . import evaluate, inference, simulate
from .data import Dataset, read_csv
from .errors import RelerrError
from .solver import LinearHypothesis

CRITERION_CHOICES = tuple(inference.ESTIMATORS)


def _fail(message: str, code: int):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _read_csv_dataset(path: str, response: str,
                      covariates: list[str] | None = None) -> tuple[Dataset, list[str]]:
    """The dataset of a CSV file and its coefficient names.

    The covariates are the columns named in ``covariates``, in that order,
    or by default every column but the response, in file order.
    """
    try:
        header, columns = read_csv(path, [response, *(covariates or ())])
    except OSError as exc:
        _fail(str(exc), 2)
    if covariates is None:
        keep = [j for j, name in enumerate(header) if name != response]
    else:
        keep = [header.index(name) for name in covariates]
    x = np.column_stack([np.ones(columns.shape[1]), *columns[keep]])
    return (Dataset(x, columns[header.index(response)]),
            ["intercept"] + [header[j] for j in keep])


def _parse_hypothesis(zero_coefs, hypothesis_file, p):
    if (zero_coefs is None) == (hypothesis_file is None):
        raise RelerrError("give exactly one of --zero-coefs or --hypothesis-file")
    if zero_coefs is not None:
        indices = [int(t) for t in zero_coefs.split(",") if t.strip()]
        return LinearHypothesis.zero_coefs(indices, p)
    try:
        h = np.loadtxt(hypothesis_file, delimiter=",", ndmin=2)
    except OSError as exc:
        _fail(str(exc), 2)
    return LinearHypothesis(h)


@click.group()
def main():
    """Relative-error estimation for multiplicative regression models."""


@main.command("fit")
@click.option("--input", "input_path", required=True, help="training CSV")
@click.option("--response", required=True, help="response column name")
@click.option("--criterion", default="lpre", type=click.Choice(CRITERION_CHOICES))
@click.option("--output", required=True, help="coefficient table CSV to write")
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--resamples", default=500, show_default=True, type=int,
              help="random-weighting resamples for nonsmooth criteria")
@click.option("--pvalue", "pvalue_kind", default="one-sided", show_default=True,
              type=click.Choice(["one-sided", "two-sided"]))
def cmd_fit(input_path, response, criterion, output, seed, resamples, pvalue_kind):
    """Fit one criterion and write estimate / SEE / p-value per coefficient."""
    try:
        data, names = _read_csv_dataset(input_path, response)
        est = inference.estimator(criterion)
        fit = est.fit(data)
        cov = est.covariance_of(fit, data, resamples, np.random.default_rng(seed))
        inference._warn_skipped(criterion, cov)
        pvals = inference.wald_p_values(fit, cov, two_sided=pvalue_kind == "two-sided")
        sees = cov.standard_errors()
        try:
            with open(output, "w", newline="") as fh:
                writer = _csv.writer(fh)
                writer.writerow(["coef", "estimate", "see", "p_value"])
                for name, est, see, p in zip(names, fit.beta, sees, pvals):
                    writer.writerow([name, f"{est:.10g}", f"{see:.10g}", f"{p:.10g}"])
        except OSError as exc:
            _fail(str(exc), 2)
    except (RelerrError, ValueError) as exc:
        _fail(str(exc), 1)
    click.echo(f"wrote {output}")


@main.command("test")
@click.option("--input", "input_path", required=True, help="data CSV")
@click.option("--response", required=True)
@click.option("--zero-coefs", default=None,
              help="comma-separated coefficient indices tested jointly zero "
                   "(0 = intercept)")
@click.option("--hypothesis-file", default=None,
              help="CSV matrix H (p rows, q columns) defining H'beta = 0")
def cmd_test(input_path, response, zero_coefs, hypothesis_file):
    """Criterion-difference test of a linear hypothesis under the product loss."""
    try:
        data, _ = _read_csv_dataset(input_path, response)
        hyp = _parse_hypothesis(zero_coefs, hypothesis_file, data.p)
        result = inference.lpre_anova_test(data, hyp)
    except (RelerrError, ValueError) as exc:
        _fail(str(exc), 1)
    click.echo(f"statistic {result.statistic:.6g}")
    click.echo(f"scale {result.scale:.6g}")
    click.echo(f"df {result.df}")
    click.echo(f"p_value {result.p_value:.6g}")


@main.command("simulate")
@click.option("--config", "config_path", required=True, help="key=value config file")
@click.option("--output", required=True, help="CSV path for the result table")
@click.option("--seed", default=None, type=int, help="override the config seed")
@click.option("--threads", default=1, show_default=True, type=int)
@click.option("--replications", default=None, type=int,
              help="override the config replication count")
def cmd_simulate(config_path, output, seed, threads, replications):
    """Run a Monte Carlo study described by a config file."""
    try:
        try:
            parsed = simulate.load_config(config_path)
        except OSError as exc:
            _fail(str(exc), 2)
        config = parsed["config"]
        overrides = {}
        if seed is not None:
            overrides["seed"] = seed
        if replications is not None:
            overrides["replications"] = replications
        if overrides:
            from dataclasses import replace
            config = replace(config, **overrides)
        if parsed["mode"] == "estimation":
            rows = simulate.run_estimation_study(config, n_jobs=threads)
            simulate.write_metrics_csv(rows, output)
        else:
            rows = simulate.run_power_study(
                config, parsed["zero_coefs"], parsed["beta_grid"],
                parsed["alphas"], n_jobs=threads)
            simulate.write_power_csv(rows, output)
    except (RelerrError, ValueError) as exc:
        _fail(str(exc), 1)
    except OSError as exc:
        _fail(str(exc), 2)
    click.echo(f"wrote {output}")


@main.command("predict")
@click.option("--train", "train_path", default=None, help="training CSV")
@click.option("--test", "test_path", default=None, help="test CSV")
@click.option("--input", "input_path", default=None,
              help="single CSV to split by row order")
@click.option("--split", default=None, type=int,
              help="training block size when using --input")
@click.option("--response", default=None, help="response column name")
@click.option("--criterion", "methods", multiple=True,
              type=click.Choice(inference.PAPER_ESTIMATORS),
              help="methods to evaluate (default: all four)")
@click.option("--bodyfat", is_flag=True,
              help="run the body-fat pipeline (implies the standard column map)")
@click.option("--output", required=True,
              help="metrics CSV; with --bodyfat, a directory for both tables")
@click.option("--seed", default=20130501, show_default=True, type=int)
@click.option("--resamples", default=500, show_default=True, type=int)
def cmd_predict(train_path, test_path, input_path, split, response, methods,
                bodyfat, output, seed, resamples):
    """Evaluate out-of-sample prediction with the four median error metrics."""
    methods = tuple(methods) or inference.PAPER_ESTIMATORS
    try:
        if bodyfat:
            if input_path is None:
                raise RelerrError("--bodyfat requires --input")
            coef_rows, metric_rows = evaluate.bodyfat_pipeline(
                input_path, methods=methods, resamples=resamples, seed=seed)
            outdir = Path(output)
            outdir.mkdir(parents=True, exist_ok=True)
            evaluate.write_coefficients_csv(coef_rows, outdir / "coefficients.csv")
            evaluate.write_prediction_csv(metric_rows, outdir / "metrics.csv")
            click.echo(f"wrote {outdir / 'coefficients.csv'} and {outdir / 'metrics.csv'}")
            return
        if response is None:
            raise RelerrError("--response is required without --bodyfat")
        if input_path is not None:
            if split is None:
                raise RelerrError("--input requires --split")
            data, _ = _read_csv_dataset(input_path, response)
            if not 0 < split < data.n:
                raise RelerrError("--split must leave both blocks nonempty")
            train = Dataset(data.x[:split], data.y[:split])
            test_x, test_y = data.x[split:], data.y[split:]
        elif train_path is not None and test_path is not None:
            train, names = _read_csv_dataset(train_path, response)
            test_data, _ = _read_csv_dataset(test_path, response, names[1:])
            test_x, test_y = test_data.x, test_data.y
        else:
            raise RelerrError("give --input/--split or both --train and --test")
        metric_rows = [
            (m, evaluate.evaluate_split(m, train, test_x, test_y)) for m in methods
        ]
        evaluate.write_prediction_csv(metric_rows, output)
    except (RelerrError, ValueError) as exc:
        _fail(str(exc), 1)
    except OSError as exc:
        _fail(str(exc), 2)
    click.echo(f"wrote {output}")


if __name__ == "__main__":
    main()
