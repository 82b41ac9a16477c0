"""Command-line front end.

Seven subcommands tie the library into reproducible experiments:

    theory     closed-form intensities, repulsion factor, asymptotics
    sample     draw one spectral field realization
    find       locate and classify critical points of a realization
    estimate   empirical intensities / ball pair moments over realizations
    kacrice    conditional Monte-Carlo correlation functions
    scaling    small-distance exponent fits of the 2-point function
    report     reduced verification pipeline with a pass/fail table

Every stochastic subcommand requires an explicit --seed; nothing falls
back to wall-clock entropy.  Parameters may come from a flat key=value
config file (--config), with command-line flags taking precedence.
Results are written as CSV or JSON; CSV floats carry 17 significant
digits so round-trips are lossless, and output is byte-identical for a
given (config, seed) regardless of --threads.

Exit codes: 0 success, 1 invalid arguments or config, 2 numerical
degeneracy or failure reported by the computation itself.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from . import estimators, kacrice, theory
from .finder import DegenerateHessianError, find_critical_points
from .models import (
    CovarianceModel,
    MomentDivergenceError,
    model_from_config,
    model_to_config,
    sigma_derivatives,
)
from .sampling import sample_field

__all__ = ["main", "build_parser"]

# Relative output paths are resolved against this directory when set.
OUTPUT_DIR_ENV = "PLANARCRIT_OUTPUT_DIR"


class _Parser(argparse.ArgumentParser):
    """argparse front end that exits 1 on bad usage (not 2)."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(value) -> str:
    """One CSV cell; floats at 17 significant digits."""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _render_csv(rows) -> str:
    if not rows:
        return ""
    cols = list(rows[0])
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(cols)
    for row in rows:
        writer.writerow(_fmt(row[c]) for c in cols)
    return out.getvalue()


def _render(args, meta: dict, rows) -> str:
    if args.format == "csv":
        return _render_csv(rows)
    return json.dumps({"meta": meta, "rows": rows}, indent=2, sort_keys=True) + "\n"


def _write_output(args, text: str) -> None:
    if args.output is None:
        sys.stdout.write(text)
        return
    path = args.output
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    # Write a sibling temp file and rename it over the target, so the target
    # is never partial and a failed or killed write leaves the old one intact.
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load_config(path) -> dict:
    """Flat key = value lines; '#' comments; later keys win."""
    cfg: dict[str, str] = {}
    if path is None:
        return cfg
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value, got {raw.rstrip()!r}")
            key, val = line.split("=", 1)
            cfg[key.strip()] = val.strip()
    return cfg


# Config-file spellings of a bool, in any case.
_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _param(args, cfg: dict, name: str, cast, default=None):
    """Merged parameter: CLI flag beats config file beats default."""
    cli = getattr(args, name.replace("-", "_"), None)
    if cli is not None:
        return cli
    if name in cfg:
        raw = cfg[name]
        if cast is bool:
            key = raw.strip().lower()
            if key not in _BOOLS:
                raise ValueError(f"{name} = {raw!r} is not a bool; use one of {', '.join(_BOOLS)}")
            return _BOOLS[key]
        return cast(raw)
    return default


def _check_threads(args, cfg) -> None:
    """Every subcommand takes --threads; below 1 is an error, not a serial run."""
    threads = _param(args, cfg, "threads", int, 1)
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")


def _require_seed(args, cfg) -> int:
    seed = _param(args, cfg, "seed", int)
    if seed is None:
        raise ValueError("--seed is required (no wall-clock default)")
    return seed


def _model_from(args, cfg: dict) -> CovarianceModel:
    """Model spec from config-file keys `model.*` overlaid by CLI flags."""
    entries = {k[len("model."):]: v for k, v in cfg.items() if k.startswith("model.")}
    if getattr(args, "model", None) is not None:
        entries["family"] = args.model
    for flag in ("k", "tau", "s", "t"):
        val = getattr(args, flag, None)
        if val is not None:
            entries[flag] = val
    if "family" not in entries:
        raise ValueError("no model given: pass --model or set model.family in the config")
    return model_from_config(entries)


def _window(args, cfg, model) -> tuple:
    size = _param(args, cfg, "window-size", float)
    if size is None:
        return estimators.default_window(model)
    if not size > 0:
        raise ValueError(f"window size must be positive, got {size}")
    return ((0.0, size), (0.0, size))


def _float_list(args, cfg, name: str):
    cli = getattr(args, name.replace("-", "_"), None)
    if cli is not None:
        return [float(v) for v in cli]
    if name in cfg:
        return [float(v) for v in cfg[name].replace(",", " ").split()]
    return None


def _estimate_row(est) -> dict:
    return {
        "label": est.label,
        "rho": math.nan if est.rho is None else est.rho,
        "value": est.value,
        "std_error": est.std_error,
        "nsamples": est.nsamples,
    }


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_theory(args, cfg):
    model = _model_from(args, cfg)
    rho = _param(args, cfg, "rho", float, 0.1)
    report = theory.theory_report(model, rho=rho)
    flat = report.as_dict()
    if args.format == "csv":
        rows = [{"quantity": k, "value": v} for k, v in flat.items()]
        return _render_csv(rows)
    return json.dumps({"meta": model_to_config(model), **flat}, indent=2, sort_keys=True) + "\n"


def _cmd_sample(args, cfg):
    model = _model_from(args, cfg)
    seed = _require_seed(args, cfg)
    size = _param(args, cfg, "size", int, 1024)
    gaussian = bool(_param(args, cfg, "gaussian-amplitudes", bool, False))
    field = sample_field(model, M=size, seed=seed, gaussian_amplitudes=gaussian)
    rows = [
        {
            "lambda1": float(field.frequencies[i, 0]),
            "lambda2": float(field.frequencies[i, 1]),
            "phase": float(field.phases[i]),
            "amplitude": float(field.amplitudes[i]),
            "shift": field.shift,
        }
        for i in range(field.nterms)
    ]
    meta = {**model_to_config(model), "seed": seed, "gaussian_amplitudes": gaussian}
    return _render(args, meta, rows)


def _cmd_find(args, cfg):
    model = _model_from(args, cfg)
    seed = _require_seed(args, cfg)
    size = _param(args, cfg, "size", int, 1024)
    gaussian = bool(_param(args, cfg, "gaussian-amplitudes", bool, False))
    window = _window(args, cfg, model)
    field = sample_field(model, M=size, seed=seed, gaussian_amplitudes=gaussian)
    # Only JSON output shows the finder's counters (meta["finder"]); asking
    # for them also runs the index defect, so CSV output does not.
    counters = {} if args.format == "json" else None
    points = find_critical_points(
        field, window, _param(args, cfg, "grid-step", float), diagnostics=counters
    )
    rows = [
        {
            "x": pt.location[0],
            "y": pt.location[1],
            "kind": str(pt.kind),
            "hessian_det": pt.hessian_det,
            "eig_low": pt.hessian_eigenvalues[0],
            "eig_high": pt.hessian_eigenvalues[1],
            "gradient_residual": pt.gradient_residual,
        }
        for pt in points
    ]
    meta = {
        **model_to_config(model),
        "seed": seed,
        "window": list(map(list, window)),
        "finder": counters,
    }
    return _render(args, meta, rows)


def _cmd_estimate(args, cfg):
    model = _model_from(args, cfg)
    seed = _require_seed(args, cfg)
    threads = _param(args, cfg, "threads", int, 1)
    nreal = _param(args, cfg, "nreal", int, 100)
    size = _param(args, cfg, "size", int, 1024)
    kind = _param(args, cfg, "kind", str, "c")
    theory.normalize_kind(kind)  # reject a bad tag before the sweep
    pair = theory.normalize_pair(_param(args, cfg, "pair", str, "cc"))
    window = _window(args, cfg, model)
    rho_list = _float_list(args, cfg, "rho-list") or []
    sw = estimators.sweep(model, nreal, seed, rho_list, window=window, M=size, threads=threads)
    rows = [_estimate_row(estimators.intensity(sw, kind))]
    rows += [_estimate_row(estimators.second_factorial(sw, rho, pair)) for rho in rho_list]
    rows += [_estimate_row(estimators.repulsion_ratio(sw, rho)) for rho in rho_list]
    meta = {**model_to_config(model), "seed": seed, "nreal": nreal, "kind": kind}
    return _render(args, meta, rows)


def _cmd_kacrice(args, cfg):
    model = _model_from(args, cfg)
    seed = _require_seed(args, cfg)
    what = _param(args, cfg, "what", str, "one-point")
    nsamples = _param(args, cfg, "nsamples", int, 10**6)
    pair = tuple(theory.normalize_pair(_param(args, cfg, "pair", str, "cc")))
    threads = _param(args, cfg, "threads", int, 1)
    rows = []
    if what == "one-point":
        kind = _param(args, cfg, "kind", str, "c")
        est = kacrice.one_point_intensity_mc(model, nsamples=nsamples, seed=seed, kind=kind)
        rows.append(_estimate_row(est))
    elif what == "two-point":
        r_list = _float_list(args, cfg, "r")
        if not r_list:
            raise ValueError("two-point needs --r with at least one distance")
        for i, r in enumerate(r_list):
            est = kacrice.two_point_correlation(
                model, r, pair=pair, nsamples=nsamples, seed=(seed, i)
            )
            rows.append(_estimate_row(est))
    elif what == "ball":
        rho_list = _float_list(args, cfg, "rho-list")
        if not rho_list:
            raise ValueError("ball needs --rho-list with at least one radius")
        for i, rho in enumerate(rho_list):
            est = kacrice.second_factorial_by_quadrature(
                model, rho, pair=pair, nsamples_per_node=nsamples,
                seed=(seed, i), threads=threads,
            )
            rows.append(_estimate_row(est))
    else:
        raise ValueError(f"unknown kacrice mode {what!r}; expected one-point, two-point or ball")
    meta = {**model_to_config(model), "seed": seed, "what": what, "nsamples": nsamples}
    return _render(args, meta, rows)


def _cmd_scaling(args, cfg):
    model = _model_from(args, cfg)
    seed = _require_seed(args, cfg)
    pair = tuple(theory.normalize_pair(_param(args, cfg, "pair", str, "ee")))
    r_min = _param(args, cfg, "r-min", float, 0.005)
    r_max = _param(args, cfg, "r-max", float, 0.05)
    npoints = _param(args, cfg, "points", int, 6)
    nsamples = _param(args, cfg, "nsamples", int, 10**6)
    with_log = bool(_param(args, cfg, "with-log", bool, False))
    if not 0 < r_min < r_max:
        raise ValueError(f"need 0 < r-min < r-max, got ({r_min}, {r_max})")
    if npoints < 4:
        raise ValueError(f"a scaling fit needs at least 4 points, got {npoints}")
    grid = np.geomspace(r_min, r_max, npoints)
    estimates = [
        kacrice.two_point_correlation(model, float(r), pair=pair, nsamples=nsamples, seed=(seed, i))
        for i, r in enumerate(grid)
    ]
    fit = estimators.fit_scaling(estimates, with_log=with_log)
    rows = [_estimate_row(est) for est in estimates]
    rows.append(
        {
            "label": f"fit({pair[0]},{pair[1]})",
            "rho": math.nan,
            "value": fit.exponent,
            "std_error": fit.exponent_se,
            "nsamples": npoints,
        }
    )
    meta = {
        **model_to_config(model),
        "seed": seed,
        "exponent": fit.exponent,
        "exponent_se": fit.exponent_se,
        "log_coefficient_detected": fit.log_coefficient_detected,
        "r_squared": fit.r_squared,
    }
    return _render(args, meta, rows)


def _report_checks(model, seed: int, budget: str, threads: int):
    """Yield (name, theory, estimate, std_error, tolerance) rows."""
    small = budget == "small"
    d = sigma_derivatives(model)
    lam = theory.lambda_c(d)

    n1 = 10**5 if small else 10**6
    est = kacrice.one_point_intensity_mc(model, nsamples=n1, seed=(seed, 0))
    yield ("intensity_all", lam, est.value, est.std_error, max(4 * est.std_error, 0.01 * lam))

    for kind, share in (("e", 0.5), ("s", 0.5)):
        est = kacrice.one_point_intensity_mc(model, nsamples=n1, seed=(seed, 1), kind=kind)
        yield (
            f"intensity_{kind}",
            share * lam,
            est.value,
            est.std_error,
            max(4 * est.std_error, 0.02 * share * lam),
        )

    length = kacrice.correlation_length(model)
    try:
        a = theory.k2_limit(d)
    except (MomentDivergenceError, OverflowError):
        a = None
    if a is not None and math.isfinite(a):
        r_small = 0.002 * length
        n2 = 4 * 10**5 if small else 4 * 10**6
        est = kacrice.two_point_correlation(model, r_small, nsamples=n2, seed=(seed, 2))
        yield ("k2_limit", a, est.value, est.std_error, max(4 * est.std_error, 0.05 * a))

        rc = theory.repulsion_factor(d)
        rho = 0.016 * length
        nq = 2 * 10**4 if small else 2 * 10**5
        ball = kacrice.second_factorial_by_quadrature(
            model, rho, nsamples_per_node=nq, seed=(seed, 3), threads=threads
        )
        denom = (lam * math.pi * rho**2) ** 2
        rc_hat = ball.value / denom
        rc_se = ball.std_error / denom
        yield ("repulsion_factor", rc, rc_hat, rc_se, max(4 * rc_se, 0.1 * rc))

    if not small:
        emp = estimators.intensity(
            estimators.sweep(model, nreal=100, seed=(seed, 4), threads=threads)
        )
        yield ("empirical_intensity", lam, emp.value, emp.std_error,
               max(4 * emp.std_error, 0.03 * lam))

    ctrl = estimators.poisson_control_ratio(
        intensity=max(lam, 0.05), window=((0.0, 20.0), (0.0, 20.0)), rho=0.5,
        nreal=100 if small else 200, seed=(seed, 5),
    )
    yield ("poisson_control", 1.0, ctrl.value, ctrl.std_error, 4 * ctrl.std_error)


def _cmd_report(args, cfg):
    model = _model_from(args, cfg)
    seed = _require_seed(args, cfg)
    budget = _param(args, cfg, "budget", str, "small")
    threads = _param(args, cfg, "threads", int, 1)
    if budget not in ("small", "full"):
        raise ValueError(f"budget must be 'small' or 'full', got {budget!r}")
    rows = []
    for name, ref, est, se, tol in _report_checks(model, seed, budget, threads):
        status = "PASS" if abs(est - ref) <= tol else "FAIL"
        rows.append(
            {
                "check": name,
                "theory": ref,
                "estimate": est,
                "std_error": se,
                "tolerance": tol,
                "status": status,
            }
        )
    if args.format is not None or args.output is not None:
        if args.format is None:
            args.format = "csv"
        meta = {**model_to_config(model), "seed": seed, "budget": budget}
        return _render(args, meta, rows)
    lines = [f"{'check':24s} {'theory':>14s} {'estimate':>14s} {'tolerance':>12s}  status"]
    for row in rows:
        lines.append(
            f"{row['check']:24s} {row['theory']:14.6g} {row['estimate']:14.6g} "
            f"{row['tolerance']:12.3g}  {row['status']}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(sub, seeded: bool = True, default_format: str | None = "csv"):
    sub.add_argument("--config", help="flat key = value config file")
    sub.add_argument("--model", help="model family name")
    sub.add_argument("--k", type=float, help="wave number / profile rate")
    sub.add_argument("--tau", type=float, help="shift weight (shiftedrandomwave)")
    sub.add_argument("--s", type=float, help="wave weight (shiftedrandomwave)")
    sub.add_argument("--t", type=float, help="spectral truncation (powerlawtruncated)")
    sub.add_argument("--format", choices=("csv", "json"), default=default_format)
    sub.add_argument("--output", "-o", help=f"output path (relative paths honor ${OUTPUT_DIR_ENV})")
    sub.add_argument("--threads", type=int, help="worker processes (default 1)")
    if seeded:
        sub.add_argument("--seed", type=int, help="master seed (required)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="planarcrit", description=__doc__.split("\n", 1)[0])
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("theory", help="closed-form statistics of a model")
    _add_common(p, seeded=False, default_format="json")
    p.add_argument("--rho", type=float, help="ball radius for the asymptotic pair moments")
    p.set_defaults(func=_cmd_theory)

    p = subs.add_parser("sample", help="draw a spectral field realization")
    _add_common(p)
    p.add_argument("--size", type=int, help="number of frequency terms (default 1024)")
    p.add_argument("--gaussian-amplitudes", action=argparse.BooleanOptionalAction,
                   help="exactly Gaussian amplitude variant")
    p.set_defaults(func=_cmd_sample)

    p = subs.add_parser("find", help="critical points of one realization")
    _add_common(p)
    p.add_argument("--size", type=int, help="number of frequency terms (default 1024)")
    p.add_argument("--gaussian-amplitudes", action=argparse.BooleanOptionalAction)
    p.add_argument("--window-size", type=float, help="square window side (default from model)")
    p.add_argument("--grid-step", type=float,
                   help="finder grid step h; the gradient sign test runs on cells of h / 8")
    p.set_defaults(func=_cmd_find)

    p = subs.add_parser("estimate", help="empirical statistics over realizations")
    _add_common(p)
    p.add_argument("--nreal", type=int, help="number of realizations (default 100)")
    p.add_argument("--size", type=int)
    p.add_argument("--kind", help="point type for the intensity (c, e, s, min, max)")
    p.add_argument("--pair", help="pair type for ball moments (cc, ee, ss, es)")
    p.add_argument("--rho-list", nargs="+", type=float, help="ball radii for pair moments")
    p.add_argument("--window-size", type=float)
    p.set_defaults(func=_cmd_estimate)

    p = subs.add_parser("kacrice", help="conditional Monte-Carlo correlation functions")
    _add_common(p)
    p.add_argument("--what", choices=("one-point", "two-point", "ball"))
    p.add_argument("--kind", help="point type for one-point (c, e, s, min, max)")
    p.add_argument("--pair", help="pair type (cc, ee, ss, es)")
    p.add_argument("--r", nargs="+", type=float, help="mutual distances for two-point")
    p.add_argument("--rho-list", nargs="+", type=float, help="ball radii for ball moments")
    p.add_argument("--nsamples", type=int, help="Monte-Carlo draws (per node for ball)")
    p.set_defaults(func=_cmd_kacrice)

    p = subs.add_parser("scaling", help="small-distance exponent fit of the 2-point function")
    _add_common(p)
    p.add_argument("--pair", help="pair type (default ee)")
    p.add_argument("--r-min", type=float)
    p.add_argument("--r-max", type=float)
    p.add_argument("--points", type=int, help="log-grid size (default 6)")
    p.add_argument("--nsamples", type=int, help="draws per grid point (default 1e6)")
    p.add_argument("--with-log", action=argparse.BooleanOptionalAction,
                   help="include a log-factor regressor in the fit")
    p.set_defaults(func=_cmd_scaling)

    p = subs.add_parser("report", help="verification table for one model")
    _add_common(p, default_format=None)
    p.add_argument("--budget", choices=("small", "full"))
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        _check_threads(args, cfg)
        _write_output(args, args.func(args, cfg))
    except (kacrice.DegeneracyError, MomentDivergenceError, DegenerateHessianError) as err:
        print(f"planarcrit: degeneracy: {err}", file=sys.stderr)
        return 2
    # Before ValueError: LinAlgError is one of its subclasses.
    except (np.linalg.LinAlgError, ArithmeticError) as err:
        print(f"planarcrit: numerical failure: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError, TypeError) as err:
        print(f"planarcrit: error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
