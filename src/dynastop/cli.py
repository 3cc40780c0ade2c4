"""Command-line pipeline: code generation, simulation, calibration,
evaluation sweeps, and SVG report plots.

Exit codes: 0 success, 2 usage or configuration error, 1 runtime failure.
Every subcommand prints its resolved configuration before running, and all
outputs are byte-reproducible for a fixed seed.
"""

import argparse
import contextlib
import csv
import json
import math
import sys

import numpy as np

from . import __version__
from .baselines import serialize_policy
from .bayes_stop import calibrate
from .codes import (
    PREFERRED_PAIRS,
    flash_response_samples,
    make_gold_codes,
    modulate,
    read_codebook,
    select_subset,
    structure_matrices,
    write_codebook,
)
from .decoding import fit_cca, predict_templates
from .evaluation import METHODS, ConfigError, ExperimentConfig, evaluate_store
from .metrics import CSV_COLUMNS
from .simulate import SimConfig, _draw_trials, default_response, resolve_config
from .store import StoreError, load_store, write_results_csv, write_store
from .svgplot import PALETTE, line_chart


class UsageError(Exception):
    pass


def _print_config(args, **resolved):
    """Print a command's parsed arguments, with the values it resolved from
    them in their place."""
    settings = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    print(f"config[{args.command}]: {json.dumps({**settings, **resolved}, sort_keys=True)}")


def _parse_poly(text):
    try:
        return int(text, 0)
    except ValueError:
        raise UsageError(f"cannot parse polynomial {text!r} (use e.g. 0b1000011 or 67)")


def cmd_codes(args):
    if not (math.isfinite(args.rate_hz) and args.rate_hz > 0):
        raise UsageError(f"--rate-hz must be finite and > 0, got {args.rate_hz!r}")
    if args.poly_a is None or args.poly_b is None:
        if args.degree not in PREFERRED_PAIRS:
            raise UsageError(
                f"no built-in preferred pair for degree {args.degree}; "
                "pass --poly-a and --poly-b"
            )
        poly_a, poly_b = PREFERRED_PAIRS[args.degree]
    else:
        poly_a = _parse_poly(args.poly_a)
        poly_b = _parse_poly(args.poly_b)
    _print_config(args, poly_a=poly_a, poly_b=poly_b)
    try:
        codes = modulate(make_gold_codes(poly_a, poly_b))
    except ValueError as err:
        raise UsageError(str(err))
    if args.subset_k is not None:
        # No recorded responses at hand: rank code similarity through the
        # canonical response model at the presentation rate.
        response_samples = flash_response_samples(args.rate_hz)
        if not 1 <= response_samples <= codes.shape[1]:
            raise UsageError(f"--rate-hz {args.rate_hz!r}: with --subset-k the 0.3 s flash "
                             f"response must span 1 to {codes.shape[1]} samples")
        response = default_response(response_samples)
        structures = structure_matrices(
            codes, args.rate_hz, args.rate_hz, codes.shape[1], response.size // 2
        )
        templates = predict_templates(response, structures)
        try:
            kept = select_subset(codes, templates, args.subset_k)
        except ValueError as err:
            raise UsageError(str(err))
        codes = codes[kept]
    write_codebook(args.out, codes, rate_hz=args.rate_hz)
    print(f"wrote {codes.shape[0]} codes of {codes.shape[1]} bits to {args.out}")
    return 0


def cmd_simulate(args):
    # SimConfig's defaults, but noisier, with three trials per class.
    settings = {name: getattr(SimConfig, name)
                for name in ("n_classes", "n_channels", "fs", "trial_seconds", "alpha", "seed")}
    settings.update(sigma=3.0, trials_per_class=3)
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as err:
            raise UsageError(f"--config: cannot read {args.config}: {err.strerror or err}")
        except ValueError as err:  # also bytes that are not UTF-8
            raise UsageError(f"--config: {args.config} is not a JSON file: {err}")
        if not isinstance(loaded, dict):
            raise UsageError(f"{args.config}: simulate config is not a JSON object")
        unknown = set(loaded) - set(settings)
        if unknown:
            raise UsageError(f"unknown simulate config fields: {sorted(unknown)}")
        for key, value in loaded.items():
            # The default's type is the field's; a JSON boolean is never a number.
            kind = (int, float) if type(settings[key]) is float else int
            if isinstance(value, bool) or not isinstance(value, kind):
                raise UsageError(f"simulate config field {key!r} has type {type(value).__name__}")
        settings.update(loaded)
    for key in ("seed", "trials_per_class", "sigma", "alpha"):
        value = getattr(args, key)
        if value is not None:
            settings[key] = value
    print(f"config[simulate]: {json.dumps({**settings, 'out': args.out}, sort_keys=True)}")

    trials_per_class = settings.pop("trials_per_class")
    cfg = SimConfig(**settings)
    try:
        resolved = resolve_config(cfg)
        trials = _draw_trials(cfg, trials_per_class, resolved=resolved)
    except ValueError as err:
        raise UsageError(str(err))
    # Each trial is drawn as the store writes it; no step holds the dataset.
    write_store(args.out, trials, cfg.n_classes, codebook="codebook.txt")
    write_codebook(f"{args.out}/codebook.txt", resolved.codes, rate_hz=cfg.rate_hz)
    print(f"wrote {cfg.n_classes * trials_per_class} trials to {args.out}")
    return 0


def _store_structures(meta, store_path):
    """Structure matrices of a store's classes; a codebook that is missing,
    unreadable or not a two-duration code is a configuration error."""
    if not meta.codebook:
        raise UsageError(f"{store_path}: manifest has no codebook reference")
    response_samples = flash_response_samples(meta.fs)
    if not 1 <= response_samples <= meta.n_samples:
        raise UsageError(
            f"{store_path}: trials of {meta.n_samples} samples cannot hold the "
            f"{response_samples}-sample flash response"
        )
    path = f"{store_path}/{meta.codebook}"
    try:
        book = read_codebook(path)
        if book.n_codes < meta.n_classes:
            raise UsageError(
                f"codebook {path} holds {book.n_codes} codes but the store has "
                f"{meta.n_classes} classes"
            )
        codes = book.codes[: meta.n_classes]
        return structure_matrices(codes, meta.fs, book.rate_hz, meta.n_samples, response_samples)
    except OSError as err:
        raise UsageError(f"cannot read codebook {path}: {err.strerror or err}")
    except ValueError as err:
        message = str(err)
        raise UsageError(message if message.startswith(path) else f"{path}: {message}")


@contextlib.contextmanager
def _named_flags(flag):
    """A setting the library rejects inside the block (a ConfigError) is a
    usage error naming its flag; flag is the command's hyperparameter flag."""
    try:
        yield
    except ConfigError as err:
        if err.field != "hyperparams":
            flag = "--" + err.field.replace("_", "-")
        raise UsageError(f"{flag}: {err}") from None


def cmd_calibrate(args):
    _print_config(args)
    with _named_flags("--zeta"):
        config = ExperimentConfig(method="bds", hyperparams=[args.zeta], grid_ms=args.grid_ms,
                                  t_star_s=args.t_star_s)
        meta, trials = load_store(args.store)
        grid = config.decision_grid(meta.fs, meta.n_samples)
    structures = _store_structures(meta, args.store)
    model = fit_cca(trials, structures)
    stopping = calibrate(model, trials, grid, zeta=args.zeta)
    envelope = serialize_policy(stopping)
    with open(args.out_model, "w", newline="\n") as fh:
        json.dump(envelope, fh, indent=2, sort_keys=True)
        fh.write("\n")
    finite = stopping.eta[np.isfinite(stopping.eta)]
    eta_range = f"[{finite.min():.4g}, {finite.max():.4g}]" if finite.size else "all infinite"
    print(
        f"calibrated: alpha={stopping.alpha:.6g} sigma={stopping.sigma:.6g} "
        f"windows={stopping.grid.size} eta range {eta_range}"
    )
    print(f"wrote model to {args.out_model}")
    return 0


def _run_evaluation(args, hyperparams, flag, **resolved):
    _print_config(args, **resolved)
    with _named_flags(flag):
        config = ExperimentConfig(
            method=args.method, similarity=args.similarity, hyperparams=hyperparams,
            folds=args.folds, grid_ms=args.grid_ms, t_star_s=args.t_star_s,
            overhead_s=args.overhead_s,
        )
        meta, trials = load_store(args.store)
        structures = _store_structures(meta, args.store)
        rows = evaluate_store(trials, structures, config, subject=args.subject)
    write_results_csv(args.out_csv, rows, append=True)
    for row in rows:
        tag = "" if row.hyperparam is None else f" h={row.hyperparam:g}"
        print(
            f"{row.method}{tag}: accuracy={row.accuracy:.4f} "
            f"mean_stop={row.mean_stop_s:.3f}s precision={row.precision:.4f}"
        )
    print(f"appended {len(rows)} row(s) to {args.out_csv}")
    return 0


def cmd_evaluate(args):
    hyperparams = [args.hyperparam] if args.hyperparam is not None else []
    return _run_evaluation(args, hyperparams, "--hyperparam")


def cmd_sweep(args):
    try:
        values = [float(v) for v in args.hyperparam_list.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"cannot parse hyperparameter list {args.hyperparam_list!r}")
    if not values:
        raise UsageError("empty hyperparameter list")
    values = list(dict.fromkeys(values))
    return _run_evaluation(args, values, "--hyperparam-list", hyperparam_list=values)


def _cell_value(csv_path, record, column):
    """A CSV cell as a finite float; any other cell is a usage error naming
    its column."""
    try:
        value = float(record[column])
    except (TypeError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise UsageError(f"{csv_path}: non-numeric or non-finite cell in column {column!r}: "
                         f"{record[column]!r}")
    return value


def cmd_report(args):
    _print_config(args)
    try:
        with open(args.csv, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise UsageError(f"{args.csv}: empty CSV")
            for column in (args.x, args.y):
                if column not in reader.fieldnames:
                    raise UsageError(f"{args.csv}: unknown column {column!r}")
            records = list(reader)
    except OSError as err:
        raise UsageError(f"--csv: cannot read {args.csv}: {err.strerror or err}")
    except UnicodeDecodeError as err:
        raise UsageError(f"--csv: {args.csv} is not UTF-8 text: {err}")
    except csv.Error as err:
        raise UsageError(f"--csv: {args.csv} is not a CSV file: {err}")
    if not records:
        raise UsageError(f"{args.csv}: no data rows")

    groups = {}
    for record in records:
        key = (record.get("method", ""), record.get("similarity", ""))
        groups.setdefault(key, []).append(record)

    series = []
    for g_idx, key in enumerate(sorted(groups)):
        points = sorted(
            (_cell_value(args.csv, r, args.x), _cell_value(args.csv, r, args.y))
            for r in groups[key]
        )
        label = "/".join(part for part in key if part) or "all"
        series.append(
            {
                "label": label,
                "x": [p[0] for p in points],
                "y": [p[1] for p in points],
                "color": PALETTE[g_idx % len(PALETTE)],
            }
        )
    svg = line_chart(series, x_label=args.x, y_label=args.y)
    with open(args.out_svg, "w", newline="\n") as fh:
        fh.write(svg)
    print(f"wrote {args.out_svg} ({len(series)} series, {len(records)} rows)")
    return 0


def _add_evaluation_parser(sub, name, help_text, func, method_help, hyperparam_flag,
                           **hyperparam_options):
    p = sub.add_parser(name, help=help_text)
    p.add_argument("--store", required=True)
    p.add_argument("--method", required=True, help=method_help)
    p.add_argument(hyperparam_flag, **hyperparam_options)
    p.add_argument("--similarity", choices=("inner", "correlation"), default="inner")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--grid-ms", type=float, default=100.0)
    p.add_argument("--t-star-s", type=float, default=None)
    p.add_argument("--overhead-s", type=float, default=0.0)
    p.add_argument("--subject", default=None)
    p.add_argument("--out-csv", required=True)
    p.set_defaults(func=func)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dynastop",
        description="Dynamic stopping toolkit for evoked-response BCI decoding.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("codes", help="generate a modulated Gold codebook")
    p.add_argument("--degree", type=int, default=6)
    p.add_argument("--poly-a", default=None, help="primitive polynomial mask, e.g. 0b1000011")
    p.add_argument("--poly-b", default=None)
    p.add_argument("--subset-k", type=int, default=None, help="keep k least-correlated codes")
    p.add_argument("--rate-hz", type=float, default=120.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_codes)

    p = sub.add_parser("simulate", help="write a synthetic trial store")
    p.add_argument("--config", default=None, help="JSON file overriding the defaults")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials-per-class", type=int, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("calibrate", help="fit decoder and stopping model on a store")
    p.add_argument("--store", required=True)
    p.add_argument("--zeta", type=float, default=1.0)
    p.add_argument("--grid-ms", type=float, default=100.0)
    p.add_argument("--t-star-s", type=float, default=None)
    p.add_argument("--out-model", required=True)
    p.set_defaults(func=cmd_calibrate)

    _add_evaluation_parser(
        sub, "evaluate", "cross-validated evaluation of one method", cmd_evaluate,
        f"one of {', '.join(METHODS)}", "--hyperparam", type=float, default=None,
    )
    _add_evaluation_parser(
        sub, "sweep", "evaluate a list of hyperparameter values", cmd_sweep,
        None, "--hyperparam-list", required=True, help="comma-separated values",
    )

    p = sub.add_parser("report", help="plot one results column against another")
    p.add_argument("--csv", required=True)
    p.add_argument("--x", required=True, help=f"one of {', '.join(CSV_COLUMNS)}")
    p.add_argument("--y", required=True)
    p.add_argument("--out-svg", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "subject", "unset") is None:
        args.subject = args.store.rstrip("/").rsplit("/", 1)[-1]
    try:
        return args.func(args)
    except (UsageError, StoreError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - map any runtime failure to exit 1
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
