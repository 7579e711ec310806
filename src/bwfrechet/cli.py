"""Command line interface.

Subcommands cover dataset simulation, single fits, the partial-effect test,
and the Monte Carlo studies. Exit codes: 0 success, 2 invalid input or
configuration, 3 numerical failure, 4 unreliable result. ``BWFRECHET_SEED``
and ``BWFRECHET_THREADS`` supply defaults for ``--seed`` and ``--threads``
where those flags are accepted.
"""

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import __version__
from .dataio import (
    dataset_checksum,
    load_dataset,
    read_json,
    test_result_body,
    write_dataset,
    write_result,
    write_table,
)
from .errors import (
    IllConditionedError,
    InvalidInputError,
    SingularError,
    UnreliableResultError,
)
from .experiments import (
    ExperimentConfig,
    consistency_configs,
    mixture_ks_distance,
    pooled_eigenvalues,
    power_configs,
    qq_data,
    run_consistency_study,
    run_power_curve,
    run_size_study,
)
from .frechet import frechet_regress
from .partial_test import TestOptions, run_partial_test
from .simgen import SimConfig, generate


def _env_int(name):
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise InvalidInputError(f"{name} must be an integer, got {raw!r}") from None


def _default_seed(value):
    if value is not None:
        return value
    env = _env_int("BWFRECHET_SEED")
    return 0 if env is None else env


def _default_threads(value):
    if value is not None:
        return value
    env = _env_int("BWFRECHET_THREADS")
    return 1 if env is None else env


def _parse_vector(text):
    try:
        return np.asarray([float(v) for v in text.split(",") if v.strip() != ""], dtype=float)
    except ValueError:
        raise InvalidInputError(f"cannot parse vector {text!r}; use comma-separated numbers") from None


def _cmd_simulate(args):
    config = SimConfig(
        example=args.example,
        n=args.n,
        p_y=args.p_y,
        p_z=args.p_z,
        d=args.d,
        delta_z=args.delta_z,
        seed=_default_seed(args.seed),
    )
    data, truth = generate(config)
    metadata = {
        "example": config.example,
        "p_y": config.p_y,
        "p_z": config.p_z,
        "delta_z": config.delta_z,
        "seed": config.seed,
        "resampled": truth.resampled,
    }
    write_dataset(args.out, data, fmt=args.format, metadata=metadata)
    print(
        f"simulate: wrote example {config.example} dataset n={data.n} p={data.p} "
        f"d={data.d} p1={data.p1} resampled={truth.resampled} -> {args.out}"
    )
    return 0


def _cmd_fit(args):
    data = load_dataset(args.data, p1=args.p1)
    x = _parse_vector(args.at)
    if x.shape != (data.p,):
        raise InvalidInputError(f"--at needs {data.p} coordinates, got {x.size}")
    result = frechet_regress(data, x)
    eigs = np.linalg.eigvalsh(result.mean)
    print(
        f"fit: converged={result.converged} iterations={result.iterations} "
        f"objective={result.objective:.6g} eigenvalue_range=[{eigs[0]:.6g}, {eigs[-1]:.6g}]"
    )
    if args.out:
        body = {
            "x": [float(v) for v in x],
            "mean": [[float(v) for v in row] for row in result.mean],
            "converged": bool(result.converged),
            "iterations": int(result.iterations),
            "grad_norm": float(result.grad_norm),
            "objective": float(result.objective),
            "input_sha256": dataset_checksum(args.data),
        }
        write_result(args.out, "fit", body)
    return 0


def _cmd_test(args):
    data = load_dataset(args.data, p1=args.p1)
    options = TestOptions(
        alpha=args.alpha,
        mc_draws=args.mc_draws,
        seed=_default_seed(args.seed),
        threads=_default_threads(args.threads),
        permute_seed=args.permute_seed,
        max_nonconverged=args.max_nonconverged,
    )
    result = run_partial_test(data, options)
    print(
        f"test: statistic={result.statistic:.6g} quantile={result.quantile:.6g} "
        f"p={result.p_value:.6g} reject={result.reject} alpha={result.alpha} "
        f"(fits={result.diagnostics.n_fits}, nonconverged={result.diagnostics.nonconverged})"
    )
    if args.out:
        write_result(args.out, "partial-test", test_result_body(result, dataset_checksum(args.data)))
    return 0


def _experiment_config(path, grid=None):
    """Read a study configuration and validate the generator settings of every
    configuration the study runs, as given by ``grid``, before any trial runs."""
    raw = read_json(path)
    names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = sorted(set(raw) - names)
    if unknown:
        raise InvalidInputError(f"{path}: unknown configuration keys {unknown}")
    config = ExperimentConfig(**raw)
    for point in [config] + (grid(config) if grid else []):
        point.sim_config()
    return config


# the records.csv columns of each record type, read from it by attribute
_TRIAL_COLUMNS = (
    "index",
    "data_seed",
    "mc_seed",
    "statistic",
    "p_value",
    "quantile",
    "reject",
    "nonconverged",
    "n_fits",
    "error",
)
_CONSISTENCY_COLUMNS = ("n", "index", "data_seed", "sup_error", "nonconverged", "error")


def _record_row(record, columns, lead=()):
    """``lead``, then ``columns`` read from ``record``: None is written empty, a bool as 0/1."""
    row = list(lead)
    for name in columns:
        value = getattr(record, name)
        if value is None:
            value = ""
        elif isinstance(value, bool):
            value = int(value)
        row.append(value)
    return row


def _write_records(out, header, rows, empty):
    """Write ``records.csv`` into ``out``, then fail if a study cell is empty.

    ``empty`` names each cell that completed no trial (the whole study, an
    effect size or a sample size), as the words that follow "no trial
    completed" in the error.
    """
    os.makedirs(out, exist_ok=True)
    write_table(os.path.join(out, "records.csv"), header, rows)
    if empty:
        raise UnreliableResultError(
            f"no trial completed {', '.join(empty)}; see the errors in records.csv"
        )


def _write_summary(args, kind, config, body):
    summary = {"command": args.command, "config": dataclasses.asdict(config), **body}
    write_result(os.path.join(args.out, "summary.json"), kind, summary)


def _size_study(args):
    """Run the size study that ``size`` and ``qq`` share and write its records."""
    config = _experiment_config(args.config)
    result = run_size_study(config)
    rows = [_record_row(rec, _TRIAL_COLUMNS) for rec in result.records]
    _write_records(args.out, _TRIAL_COLUMNS, rows, [] if result.completed else ["in the study"])
    return config, result


def _cmd_size(args):
    config, result = _size_study(args)
    summary = {
        "trials": config.trials,
        "completed": result.completed,
        "rejections": result.rejections,
        "rejection_rate": result.rejection_rate,
        "ci_low": result.ci_low,
        "ci_high": result.ci_high,
    }
    _write_summary(args, "size-study", config, summary)
    print(
        f"size: rate={result.rejection_rate:.4g} "
        f"ci=[{result.ci_low:.4g}, {result.ci_high:.4g}] "
        f"completed={result.completed}/{config.trials} -> {args.out}"
    )
    return 0


def _cmd_power(args):
    config = _experiment_config(args.config, power_configs)
    result = run_power_curve(config)
    rows = [
        _record_row(rec, _TRIAL_COLUMNS, lead=(point.delta,))
        for point in result.points
        for rec in point.records
    ]
    empty = [f"at delta {point.delta:g}" for point in result.points if not point.completed]
    _write_records(args.out, ("delta",) + _TRIAL_COLUMNS, rows, empty)
    points = [
        {
            "delta": point.delta,
            "completed": point.completed,
            "rejections": point.rejections,
            "power": point.power,
            "ci_low": point.ci_low,
            "ci_high": point.ci_high,
        }
        for point in result.points
    ]
    _write_summary(args, "power-curve", config, {"points": points})
    deltas = ", ".join(f"{point.delta:g}" for point in result.points)
    powers = ", ".join(f"{point.power:.3f}" for point in result.points)
    print(f"power: deltas=[{deltas}] rates=[{powers}] -> {args.out}")
    return 0


def _cmd_qq(args):
    config, result = _size_study(args)
    stats = [r.statistic for r in result.records if r.error is None]
    lam = pooled_eigenvalues([r.eigenvalues for r in result.records if r.error is None])
    pairs = qq_data(stats, lam)
    ks = mixture_ks_distance(stats, lam)
    write_table(
        os.path.join(args.out, "qq.csv"),
        ["reference_quantile", "observed_statistic"],
        [list(map(float, pair)) for pair in pairs],
    )
    summary = {
        "completed": result.completed,
        "ks_distance": ks,
        "lambda_reference": "pooled-mean",
        "pooled_eigenvalues": [float(v) for v in lam],
    }
    _write_summary(args, "qq-study", config, summary)
    print(f"qq: ks={ks:.4g} completed={result.completed}/{config.trials} -> {args.out}")
    return 0


def _cmd_consistency(args):
    config = _experiment_config(args.config, consistency_configs)
    result = run_consistency_study(config)
    rows = [_record_row(trial, _CONSISTENCY_COLUMNS) for trial in result.trials]
    empty = [f"at n {row.n}" for row in result.rows if not row.completed]
    _write_records(args.out, _CONSISTENCY_COLUMNS, rows, empty)
    summary_rows = [dataclasses.asdict(row) for row in result.rows]
    _write_summary(args, "consistency-study", config, {"rows": summary_rows})
    errs = ", ".join(f"{row.n}:{row.median_sup_error:.4g}" for row in result.rows)
    print(f"consistency: median sup errors {{{errs}}} -> {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bwfrechet",
        description=(
            "Frechet regression and partial-effect testing for SPD-matrix "
            "responses under the Bures-Wasserstein metric"
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="draw a synthetic dataset")
    sim.add_argument("--example", type=int, choices=(1, 2), required=True)
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--p-y", dest="p_y", type=int, required=True)
    sim.add_argument("--p-z", dest="p_z", type=int, required=True)
    sim.add_argument("--d", type=int, required=True)
    sim.add_argument("--delta-z", dest="delta_z", type=float, default=0.0)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--format", choices=("json", "tabular"), default="json")
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=_cmd_simulate)

    fit = sub.add_parser("fit", help="fit the regression at one covariate value")
    fit.add_argument("--data", required=True)
    fit.add_argument("--at", required=True, help="comma-separated covariate values")
    fit.add_argument("--p1", type=int, default=None, help="override the retained-block size")
    fit.add_argument("--out", default=None)
    fit.set_defaults(func=_cmd_fit)

    test = sub.add_parser("test", help="run the partial-effect test")
    test.add_argument("--data", required=True)
    test.add_argument("--p1", type=int, default=None, help="override the retained-block size")
    test.add_argument("--alpha", type=float, default=0.05)
    test.add_argument(
        "--mc-draws", dest="mc_draws", type=int, default=100_000,
        help="accepted for compatibility and echoed in the result; no effect, "
        "the mixture calibration is exact",
    )
    test.add_argument(
        "--seed", type=int, default=None,
        help="accepted for compatibility and echoed in the result; no effect "
        "(--permute-seed randomizes the split)",
    )
    test.add_argument("--threads", type=int, default=None)
    test.add_argument("--permute-seed", dest="permute_seed", type=int, default=None)
    test.add_argument(
        "--max-nonconverged", dest="max_nonconverged", type=float, default=0.05
    )
    test.add_argument("--out", default=None)
    test.set_defaults(func=_cmd_test)

    for name, handler, help_text in (
        ("size", _cmd_size, "null rejection rate study"),
        ("power", _cmd_power, "power against the trailing-block effect"),
        ("qq", _cmd_qq, "null statistic quantiles against the mixture"),
        ("consistency", _cmd_consistency, "fit error against sample size"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="JSON experiment configuration")
        cmd.add_argument("--out", required=True, help="output directory")
        cmd.set_defaults(func=handler)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IllConditionedError, SingularError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except UnreliableResultError as exc:
        print(f"unreliable result: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
