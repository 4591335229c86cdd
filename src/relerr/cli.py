"""Command-line front end: fit, test, simulate, and predict over CSV files."""

from __future__ import annotations

import sys
from pathlib import Path

import click
import numpy as np

from . import evaluate, inference, simulate
from .data import Dataset, read_csv, write_csv
from .errors import RelerrError
from .solver import LinearHypothesis

CRITERION_CHOICES = tuple(inference.ESTIMATORS)


class _Group(click.Group):
    """The ``relerr`` group, the one place a command's error becomes its exit code:
    RelerrError or ValueError print ``error: <message>`` and exit 1, OSError exit 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (RelerrError, ValueError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2 if isinstance(exc, OSError) else 1)


def _read_csv_dataset(path: str, response: str,
                      covariates: list[str] | None = None) -> tuple[Dataset, list[str]]:
    """The dataset of a CSV file and its coefficient names.

    The covariates are the columns named in ``covariates``, in that order,
    or by default every column but the response, in file order.
    """
    header, columns = read_csv(path, [response, *(covariates or ())])
    if covariates is None:
        keep = [j for j, name in enumerate(header) if name != response]
    else:
        keep = [header.index(name) for name in covariates]
    x = np.column_stack([np.ones(columns.shape[1]), *columns[keep]])
    return (Dataset(x, columns[header.index(response)]),
            ["intercept"] + [header[j] for j in keep])


def _indices(ctx, param, text):
    """--zero-coefs: comma-separated integers, or a usage error."""
    if text is None:
        return None
    try:
        return [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise click.BadParameter(f"{text!r} is not a comma-separated list of integers") from None


def _distinct(ctx, param, values):
    """A repeatable option's values, or a usage error if one is repeated."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise click.BadParameter(f"{value!r} is given twice")
    return values


def _parse_hypothesis(zero_coefs, hypothesis_file, p):
    if (zero_coefs is None) == (hypothesis_file is None):
        raise RelerrError("give exactly one of --zero-coefs or --hypothesis-file")
    if zero_coefs is not None:
        return LinearHypothesis.zero_coefs(zero_coefs, p)
    return LinearHypothesis(np.loadtxt(hypothesis_file, delimiter=",", ndmin=2))


@click.group(cls=_Group)
def main():
    """Relative-error estimation for multiplicative regression models."""


@main.command("fit")
@click.option("--input", "input_path", required=True, help="training CSV")
@click.option("--response", required=True, help="response column name")
@click.option("--criterion", default="lpre", type=click.Choice(CRITERION_CHOICES))
@click.option("--output", required=True, help="coefficient table CSV to write")
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--resamples", default=500, show_default=True, type=click.IntRange(min=2),
              help="random-weighting resamples for nonsmooth criteria")
@click.option("--pvalue", "pvalue_kind", default="one-sided", show_default=True,
              type=click.Choice(["one-sided", "two-sided"]))
def cmd_fit(input_path, response, criterion, output, seed, resamples, pvalue_kind):
    """Fit one criterion and write estimate / SEE / p-value per coefficient."""
    data, names = _read_csv_dataset(input_path, response)
    fit, sees, pvals = inference.fit_report(criterion, data, resamples,
                                            np.random.default_rng(seed),
                                            two_sided=pvalue_kind == "two-sided")
    write_csv(output, ["coef", "estimate", "see", "p_value"],
              ([name, f"{est:.10g}", f"{see:.10g}", f"{p:.10g}"]
               for name, est, see, p in zip(names, fit.beta, sees, pvals)))
    click.echo(f"wrote {output}")


@main.command("test")
@click.option("--input", "input_path", required=True, help="data CSV")
@click.option("--response", required=True)
@click.option("--zero-coefs", default=None, callback=_indices,
              help="comma-separated coefficient indices tested jointly zero "
                   "(0 = intercept)")
@click.option("--hypothesis-file", default=None,
              help="CSV matrix H (p rows, q columns) defining H'beta = 0")
def cmd_test(input_path, response, zero_coefs, hypothesis_file):
    """Criterion-difference test of a linear hypothesis under the product loss."""
    data, _ = _read_csv_dataset(input_path, response)
    hyp = _parse_hypothesis(zero_coefs, hypothesis_file, data.p)
    result = inference.lpre_anova_test(data, hyp)
    click.echo(f"statistic {result.statistic:.6g}")
    click.echo(f"scale {result.scale:.6g}")
    click.echo(f"df {result.df}")
    click.echo(f"p_value {result.p_value:.6g}")


@main.command("simulate")
@click.option("--config", "config_path", required=True, help="key=value config file")
@click.option("--output", required=True, help="CSV path for the result table")
@click.option("--seed", default=None, type=click.IntRange(min=0),
              help="override the config seed")
@click.option("--threads", default=1, show_default=True, type=click.IntRange(min=1))
@click.option("--replications", default=None, type=click.IntRange(min=1),
              help="override the config replication count")
def cmd_simulate(config_path, output, seed, threads, replications):
    """Run a Monte Carlo study described by a config file."""
    parsed = simulate.load_config(config_path)
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
    click.echo(f"wrote {output}")


@main.command("predict")
@click.option("--train", "train_path", default=None, help="training CSV")
@click.option("--test", "test_path", default=None, help="test CSV")
@click.option("--input", "input_path", default=None,
              help="single CSV to split by row order")
@click.option("--split", default=None, type=int,
              help="training block size when using --input")
@click.option("--response", default=None, help="response column name")
@click.option("--criterion", "methods", multiple=True, callback=_distinct,
              type=click.Choice(CRITERION_CHOICES),
              help="methods to evaluate (default: the paper's four)")
@click.option("--bodyfat", is_flag=True,
              help="run the body-fat pipeline (implies the standard column map)")
@click.option("--output", required=True,
              help="metrics CSV; with --bodyfat, a directory for both tables")
@click.option("--seed", default=20130501, show_default=True, type=int)
@click.option("--resamples", default=500, show_default=True, type=click.IntRange(min=2))
def cmd_predict(train_path, test_path, input_path, split, response, methods,
                bodyfat, output, seed, resamples):
    """Evaluate out-of-sample prediction with the four median error metrics."""
    methods = tuple(methods) or inference.PAPER_ESTIMATORS
    if input_path is not None and (train_path is not None or test_path is not None):
        raise RelerrError("give --input or --train/--test, not both")
    if split is not None and (input_path is None or bodyfat):
        raise RelerrError("--split needs --input and no --bodyfat")
    if bodyfat:
        if response is not None:
            raise RelerrError("--response is not read with --bodyfat, which has its own columns")
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
    click.echo(f"wrote {output}")


if __name__ == "__main__":
    main()
