"""Command-line pipeline: code generation, simulation, calibration,
evaluation sweeps, and SVG report plots.

Exit codes: 0 success, 2 usage or configuration error, 1 runtime failure.
Every subcommand prints its resolved configuration before running, and all
outputs are byte-reproducible for a fixed seed.
"""

import argparse
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
    make_gold_codes,
    modulate,
    read_codebook,
    select_subset,
    structure_matrices,
    write_codebook,
)
from .decoding import fit_cca, _templates_from_response
from .evaluation import METHODS, check_method, evaluate_store, window_grid
from .metrics import CSV_COLUMNS
from .simulate import SimConfig, default_response, make_dataset, resolve_config
from .store import ExperimentConfig, StoreError, load_store, write_results_csv, write_store
from .svgplot import PALETTE, line_chart


class UsageError(Exception):
    pass


def _print_config(command, settings):
    print(f"config[{command}]: {json.dumps(settings, sort_keys=True)}")


def _parse_poly(text):
    try:
        return int(text, 0)
    except ValueError:
        raise UsageError(f"cannot parse polynomial {text!r} (use e.g. 0b1000011 or 67)")


def cmd_codes(args):
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
    _print_config(
        "codes",
        {
            "degree": args.degree,
            "poly_a": poly_a,
            "poly_b": poly_b,
            "subset_k": args.subset_k,
            "rate_hz": args.rate_hz,
            "out": args.out,
        },
    )
    try:
        codes = modulate(make_gold_codes(poly_a, poly_b))
    except ValueError as err:
        raise UsageError(str(err))
    if args.subset_k is not None:
        # No recorded responses at hand: rank code similarity through the
        # canonical response model at the presentation rate.
        response = default_response(int(round(0.3 * args.rate_hz)))
        structures = structure_matrices(
            codes, args.rate_hz, args.rate_hz, codes.shape[1], response.size // 2
        )
        templates = _templates_from_response(response, structures)
        try:
            kept = select_subset(codes, templates, args.subset_k)
        except ValueError as err:
            raise UsageError(str(err))
        codes = codes[kept]
    write_codebook(args.out, codes, rate_hz=args.rate_hz)
    print(f"wrote {codes.shape[0]} codes of {codes.shape[1]} bits to {args.out}")
    return 0


def cmd_simulate(args):
    settings = {
        "n_classes": 36,
        "n_channels": 8,
        "fs": 120.0,
        "trial_seconds": 1.05,
        "alpha": 1.0,
        "sigma": 3.0,
        "seed": 1234,
        "trials_per_class": 3,
    }
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        unknown = set(loaded) - set(settings)
        if unknown:
            raise UsageError(f"unknown simulate config fields: {sorted(unknown)}")
        settings.update(loaded)
    for key in ("seed", "trials_per_class", "sigma", "alpha"):
        value = getattr(args, key)
        if value is not None:
            settings[key] = value
    settings["out"] = args.out
    _print_config("simulate", settings)

    trials_per_class = int(settings.pop("trials_per_class"))
    out = settings.pop("out")
    cfg = SimConfig(
        n_classes=int(settings["n_classes"]),
        n_channels=int(settings["n_channels"]),
        fs=float(settings["fs"]),
        trial_seconds=float(settings["trial_seconds"]),
        alpha=float(settings["alpha"]),
        sigma=float(settings["sigma"]),
        seed=int(settings["seed"]),
    )
    resolved = resolve_config(cfg)
    trials = make_dataset(cfg, trials_per_class, resolved=resolved)
    write_store(out, trials, cfg.n_classes, codebook="codebook.txt")
    write_codebook(f"{out}/codebook.txt", resolved.codes, rate_hz=cfg.rate_hz)
    print(f"wrote {len(trials)} trials to {out}")
    return 0


def _load_store_or_usage(path):
    try:
        return load_store(path)
    except StoreError as err:
        raise UsageError(str(err))


def _store_structures(meta, store_path):
    """Structure matrices of a store's classes; a codebook that is missing,
    unreadable or not a two-duration code is a configuration error."""
    if not meta.codebook:
        raise UsageError(f"{store_path}: manifest has no codebook reference")
    response_samples = int(round(0.3 * meta.fs))
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


def _store_grid(args, meta):
    """Decision grid of a store command; a --grid-ms or --t-star-s that the
    store cannot serve is a usage error."""
    if not (math.isfinite(args.grid_ms) and args.grid_ms > 0):
        raise UsageError(f"--grid-ms must be a positive number of ms, got {args.grid_ms:g}")
    t_star_s = args.t_star_s if args.t_star_s is not None else meta.n_samples / meta.fs
    if not (math.isfinite(t_star_s) and 1 <= round(t_star_s * meta.fs) <= meta.n_samples):
        raise UsageError(
            f"--t-star-s must span one sample to the store's {meta.n_samples / meta.fs:g} s "
            f"trials, got {t_star_s:g}"
        )
    return window_grid(args.grid_ms, t_star_s, meta.fs)


def cmd_calibrate(args):
    _print_config(
        "calibrate",
        {
            "store": args.store,
            "zeta": args.zeta,
            "grid_ms": args.grid_ms,
            "t_star_s": args.t_star_s,
            "out_model": args.out_model,
        },
    )
    meta, trials = _load_store_or_usage(args.store)
    structures = _store_structures(meta, args.store)
    grid = _store_grid(args, meta)
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


def _run_evaluation(args, hyperparams, **shown):
    _print_config(
        args.command,
        {
            "store": args.store,
            "method": args.method,
            **shown,
            "similarity": args.similarity,
            "folds": args.folds,
            "grid_ms": args.grid_ms,
            "t_star_s": args.t_star_s,
            "overhead_s": args.overhead_s,
            "subject": args.subject,
            "out_csv": args.out_csv,
        },
    )
    meta, trials = _load_store_or_usage(args.store)
    if not trials:
        raise UsageError(f"{args.store}: store holds no trials")
    _store_grid(args, meta)
    try:
        check_method(args.method, args.similarity, hyperparams)
        config = ExperimentConfig(
            method=args.method,
            similarity=args.similarity,
            hyperparams=hyperparams,
            folds=args.folds,
            grid_ms=args.grid_ms,
            t_star_s=args.t_star_s,
            overhead_s=args.overhead_s,
        )
    except ValueError as err:
        raise UsageError(str(err))
    structures = _store_structures(meta, args.store)
    subject = args.subject
    rows = evaluate_store(trials, structures, config, subject=subject)
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
    return _run_evaluation(args, hyperparams, hyperparam=args.hyperparam)


def cmd_sweep(args):
    try:
        values = [float(v) for v in args.hyperparam_list.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"cannot parse hyperparameter list {args.hyperparam_list!r}")
    if not values:
        raise UsageError("empty hyperparameter list")
    values = list(dict.fromkeys(values))
    return _run_evaluation(args, values, hyperparam_list=values)


def cmd_report(args):
    _print_config(
        "report",
        {"csv": args.csv, "x": args.x, "y": args.y, "out_svg": args.out_svg},
    )
    try:
        with open(args.csv, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise UsageError(f"{args.csv}: empty CSV")
            for column in (args.x, args.y):
                if column not in reader.fieldnames:
                    raise UsageError(f"{args.csv}: unknown column {column!r}")
            records = list(reader)
    except FileNotFoundError:
        raise UsageError(f"{args.csv}: no such file")
    if not records:
        raise UsageError(f"{args.csv}: no data rows")

    ci_column = f"ci_{args.y}"
    groups = {}
    for record in records:
        key = (record.get("method", ""), record.get("similarity", ""))
        groups.setdefault(key, []).append(record)

    series = []
    for g_idx, key in enumerate(sorted(groups)):
        rows = groups[key]
        try:
            points = sorted(
                (float(r[args.x]), float(r[args.y]), float(r.get(ci_column) or 0.0))
                for r in rows
            )
        except ValueError as err:
            raise UsageError(f"{args.csv}: non-numeric cell in {args.x}/{args.y}: {err}")
        label = "/".join(part for part in key if part) or "all"
        series.append(
            {
                "label": label,
                "x": [p[0] for p in points],
                "y": [p[1] for p in points],
                "ci": [p[2] for p in points],
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
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except StoreError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - map any runtime failure to exit 1
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
