"""Command-line interface.

Subcommands: fit, predict, loocv, select-kernel, sample-paths,
mspe-decay, emulate fit|predict, reproduce <target>.  All randomness is
controlled by --seed; no environment variables are consulted; file
writes are atomic.  Exit codes: 0 success, 1 operational failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .domain import sample_function
from .emulator import fit_emulator, predict_field
from .errors import FigpError
from .gp import FitConfig, fit, loocv_error, predict_many, select_kernel
from .kernels import LINEAR, NONLINEAR, PREMAPS
from .reproduce import (ALPHA_COUNT, FIGURE_DEFAULTS, MSPE_NU, MSPE_SIZES,
                        MSPE_THETA, PATHS_PER_PANEL, SINE_BOUNDS, TARGETS,
                        mspe_decay_curve, mspe_grid, path_kernel,
                        run_reproduce, sine_family)
from .sampling import sample_paths_gram
from . import storage


def _emit(args, report, human_lines):
    if getattr(args, "json", False):
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _fit_config(args) -> FitConfig:
    return FitConfig(multistarts=args.multistarts, seed=args.seed,
                     anisotropic=args.anisotropic, nu=args.nu)


def _cmd_fit(args) -> int:
    grid, inputs, y = storage.load_training_data(args.train)
    model = fit(inputs, y, args.family, config=_fit_config(args),
                premap=args.premap, nugget=args.nugget)
    out = args.out or "model.json"
    storage.save_model(out, model)
    loocv = loocv_error(model)
    report = {
        "model_file": out,
        "family": args.family,
        "kernel": storage.kernel_spec_to_dict(model.spec),
        "mu_hat": model.mu_hat,
        "log_likelihood": model.log_likelihood,
        "loocv": loocv,
        "n": model.n,
    }
    _emit(args, report, [
        f"fitted {args.family} kernel on {model.n} inputs",
        f"  mu_hat        {model.mu_hat:.6g}",
        f"  sigma2_hat    {model.sigma2_hat:.6g}",
        f"  log_likelihood {model.log_likelihood:.6g}",
        f"  loocv         {loocv:.6g}",
        f"  saved to      {out}",
    ])
    return 0


def _test_inputs(args, grid):
    inputs = []
    for expr in args.input or []:
        inputs.append(sample_function(expr, grid))
    for path in args.input_csv or []:
        inputs.append(storage.load_input_csv(path, grid))
    if not inputs:
        raise FigpError("provide at least one --input or --input-csv")
    return inputs


def _cmd_predict(args) -> int:
    model = storage.load_model(args.model)
    grid = model.inputs[0].grid
    tests = _test_inputs(args, grid)
    means, variances = predict_many(model, tests)
    rows = [{"input": g.label, "mean": float(m), "variance": float(v)}
            for g, m, v in zip(tests, means, variances)]
    report = {"model_file": args.model, "predictions": rows}
    lines = [
        f"{r['input']}: mean {r['mean']:.6g}, variance {r['variance']:.6g}"
        for r in rows
    ]
    _emit(args, report, lines)
    if args.out:
        storage.write_json(args.out, report)
    return 0


def _cmd_loocv(args) -> int:
    model = storage.load_model(args.model)
    value = loocv_error(model)
    report = {"model_file": args.model, "loocv": value, "n": model.n}
    _emit(args, report, [f"loocv {value:.6g} over {model.n} folds"])
    return 0


def _cmd_select_kernel(args) -> int:
    grid, inputs, y = storage.load_training_data(args.train)
    best, table = select_kernel(inputs, y, config=_fit_config(args),
                                premap=args.premap, nugget=args.nugget)
    if args.out:
        storage.save_model(args.out, best)
    report = {"selected": best.spec.family, "table": table,
              "model_file": args.out}
    lines = []
    for entry in table:
        mark = "*" if entry["selected"] else " "
        lines.append(
            f"{mark} {entry['family']:<10} loocv {entry['loocv']:.6g}"
        )
    if args.out:
        lines.append(f"saved {best.spec.family} model to {args.out}")
    _emit(args, report, lines)
    return 0


def _cmd_sample_paths(args) -> int:
    spec = path_kernel(args.family, args.nu, args.sigma2, args.theta,
                       args.gamma)
    alphas, inputs = sine_family(args.grid_res, args.alpha_count,
                                 (args.domain_min, args.domain_max))
    pf = sample_paths_gram(inputs, spec, args.n_paths, args.seed,
                           index_values=alphas)
    out = args.out or "paths.csv"
    storage.save_path_family(out, pf)
    report = {"file": out, "n_paths": pf.n_paths,
              "alpha_count": args.alpha_count, "params": pf.params}
    _emit(args, report, [f"wrote {pf.n_paths} paths over "
                         f"{args.alpha_count} frequencies to {out}"])
    return 0


def _cmd_mspe_decay(args) -> int:
    curve = mspe_decay_curve(args.design, mspe_grid(args.grid_res),
                             seed=args.seed, nu=args.nu, theta=args.theta,
                             sizes=args.sizes, method=args.method,
                             replicates=args.replicates)
    out = args.out or f"mspe_{args.design}.csv"
    storage.save_decay_curve(out, curve)
    report = {
        "file": out, "design": args.design, "sizes": args.sizes,
        "mspe": [float(v) for v in curve.mspe], "slope": curve.slope,
        "theoretical_rate": curve.theoretical_rate,
    }
    _emit(args, report, [
        f"{args.design} design slope {curve.slope:.4g} "
        f"(theoretical {curve.theoretical_rate:g}); wrote {out}",
    ])
    return 0


def _cmd_emulate_fit(args) -> int:
    dataset = storage.load_field_dataset(args.fields, args.manifest)
    emulator_family = None if args.family == "auto" else args.family
    emulator = fit_emulator(dataset, threshold=args.threshold,
                            family=emulator_family,
                            config=_fit_config(args))
    out = args.out or "emulator.json"
    storage.save_emulator(out, emulator)
    report = {
        "emulator_file": out,
        "k": emulator.k,
        "explained_variance_ratio": [
            float(v) for v in emulator.explained_variance_ratio
        ],
        "score_families": [m.spec.family for m in emulator.score_models],
    }
    _emit(args, report, [
        f"retained {emulator.k} components "
        f"({sum(report['explained_variance_ratio']):.6f} of variance)",
        f"score kernels: {', '.join(report['score_families'])}",
        f"saved to {out}",
    ])
    return 0


def _cmd_emulate_predict(args) -> int:
    emulator = storage.load_emulator(args.emulator)
    grid = emulator.score_models[0].inputs[0].grid
    tests = _test_inputs(args, grid)
    out = args.out or "field_prediction.csv"
    rows, report_rows = [], []
    for g in tests:
        mean_field, var_field = predict_field(emulator, g)
        rows += [[g.label, j, storage.fmt6(m), storage.fmt6(v)]
                 for j, (m, v) in enumerate(zip(mean_field, var_field))]
        report_rows.append({
            "input": g.label,
            "mean_field": [float(v) for v in mean_field],
            "variance_field": [float(v) for v in var_field],
        })
    storage.write_csv(out, ["input", "pixel", "mean", "variance"], rows)
    report = {"emulator_file": args.emulator, "file": out,
              "predictions": report_rows}
    _emit(args, report, [f"wrote {len(tests)} field prediction(s) to {out}"])
    return 0


def _cmd_reproduce(args) -> int:
    out_dir = args.out or "reproduce_out"
    files, report = run_reproduce(args.target, out_dir, seed=args.seed,
                                  grid_res=args.grid_res)
    payload = {"target": args.target, "files": files, "report": report}
    _emit(args, payload,
          [f"{args.target}: wrote {len(files)} file(s) to {out_dir}"]
          + [f"  {p}" for p in files])
    return 0


def _count(least: int):
    """An argparse type: an integer of at least `least`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < least:
            raise argparse.ArgumentTypeError(
                f"expected an integer of at least {least}, got {text!r}")
        return value
    return parse


def _sizes(text: str) -> list:
    """An argparse type: a comma-separated list of positive integers."""
    try:
        return [_count(1)(cell) for cell in text.split(",")]
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of positive integers, "
            f"got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output file or directory")
    common.add_argument("--json", action="store_true",
                        help="print a machine-readable JSON report")

    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_count(0), default=42,
                        help="seed for all randomness (default 42)")

    # the others read their grid from the training, model or emulator file
    gridded = argparse.ArgumentParser(add_help=False, parents=[seeded])
    gridded.add_argument("--grid-res", type=int, default=None,
                         help="quadrature points per dimension")

    fitting = argparse.ArgumentParser(add_help=False, parents=[seeded])
    fitting.add_argument("--multistarts", type=_count(1), default=8,
                         help="L-BFGS-B starts for --anisotropic fits; a "
                              "one-parameter fit is a deterministic scan "
                              "and ignores it (default 8)")
    fitting.add_argument("--anisotropic", action="store_true",
                         help="free one lengthscale per dimension "
                              "(linear kernel)")
    fitting.add_argument("--nu", type=float, default=2.5)

    # fit_emulator has neither, so `emulate fit` does not take them
    premapped = argparse.ArgumentParser(add_help=False)
    premapped.add_argument("--premap", default=None, choices=sorted(PREMAPS))
    premapped.add_argument("--nugget", type=float, default=None,
                           help="nugget as a fraction of the fitted "
                                "variance (default: the automatic policy)")

    parser = argparse.ArgumentParser(
        prog="figp",
        description="Gaussian-process emulation with function-valued inputs",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("fit", parents=[common, fitting, premapped],
                       help="fit one kernel family on training data")
    p.add_argument("--train", required=True, help="training data JSON")
    p.add_argument("--family", required=True, choices=[LINEAR, NONLINEAR])
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("predict", parents=[common],
                       help="posterior mean/variance at new inputs")
    p.add_argument("--model", required=True)
    p.add_argument("--input", action="append", metavar="EXPR")
    p.add_argument("--input-csv", action="append", metavar="PATH")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("loocv", parents=[common],
                       help="closed-form leave-one-out error of a model")
    p.add_argument("--model", required=True)
    p.set_defaults(func=_cmd_loocv)

    p = sub.add_parser("select-kernel",
                       parents=[common, fitting, premapped],
                       help="fit both kernels and keep the lower-LOOCV one")
    p.add_argument("--train", required=True)
    p.set_defaults(func=_cmd_select_kernel)

    p = sub.add_parser("sample-paths", parents=[common, gridded],
                       help="draw prior sample paths over the sine family")
    p.add_argument("--family", default=LINEAR, choices=[LINEAR, NONLINEAR])
    for name in ("nu", "theta", "sigma2", "gamma"):
        p.add_argument(f"--{name}", type=float, default=FIGURE_DEFAULTS[name])
    p.add_argument("--n-paths", type=_count(1), default=PATHS_PER_PANEL)
    p.add_argument("--alpha-count", type=_count(1), default=ALPHA_COUNT)
    p.add_argument("--domain-min", type=float, default=SINE_BOUNDS[0])
    p.add_argument("--domain-max", type=float, default=SINE_BOUNDS[1])
    p.set_defaults(func=_cmd_sample_paths)

    p = sub.add_parser("mspe-decay", parents=[common, gridded],
                       help="error-decay experiment for a design family")
    p.add_argument("--design", default="knot", choices=["knot", "eigen"])
    p.add_argument("--nu", type=float, default=MSPE_NU)
    p.add_argument("--theta", type=float, default=MSPE_THETA)
    p.add_argument("--sizes", type=_sizes, default=list(MSPE_SIZES))
    p.add_argument("--method", default="exact", choices=["exact", "mc"])
    # the Monte Carlo standard error needs two replicates
    p.add_argument("--replicates", type=_count(2), default=200)
    p.set_defaults(func=_cmd_mspe_decay)

    p = sub.add_parser("emulate", parents=[],
                       help="multi-output field emulation")
    esub = p.add_subparsers(dest="emulate_command")
    pf = esub.add_parser("fit", parents=[common, fitting])
    pf.add_argument("--fields", required=True, help="field dataset CSV")
    pf.add_argument("--manifest", required=True, help="dataset manifest JSON")
    pf.add_argument("--threshold", type=float, default=0.999)
    pf.add_argument("--family", default="auto",
                    choices=["auto", LINEAR, NONLINEAR])
    pf.set_defaults(func=_cmd_emulate_fit)
    pp = esub.add_parser("predict", parents=[common])
    pp.add_argument("--emulator", required=True)
    pp.add_argument("--input", action="append", metavar="EXPR")
    pp.add_argument("--input-csv", action="append", metavar="PATH")
    pp.set_defaults(func=_cmd_emulate_predict)

    p = sub.add_parser("reproduce", parents=[common, gridded],
                       help="write reference tables and figure data")
    p.add_argument("target", choices=list(TARGETS))
    p.set_defaults(func=_cmd_reproduce)

    return parser


def cli_dispatch(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except (FigpError, OSError) as exc:
        stage = " ".join(filter(None, (args.command,
                                       getattr(args, "emulate_command", None))))
        print(f"error: {stage}: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    return cli_dispatch(argv)


if __name__ == "__main__":
    sys.exit(main())
