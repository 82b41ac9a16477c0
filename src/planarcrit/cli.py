"""Command-line front end.

Seven subcommands tie the library into reproducible experiments:

    theory     closed-form intensities, repulsion factor, asymptotics
    sample     draw one spectral field realization
    find       locate and classify critical points of a realization
    estimate   empirical intensities / ball pair moments over realizations
    kacrice    conditional Monte-Carlo correlation functions
    scaling    small-distance exponent fits of the 2-point function
    report     reduced verification pipeline with a pass/fail table

Two tables drive the parser and the merge of parameters.  PARAMS
declares each parameter once: its type, default and help.  Its name is
both the flag without "--" and the config-file key.  COMMANDS gives each
subcommand its handler, help, parameter names, default overrides and
default format.  Parameters may come from a flat key = value config file
(--config): a flag beats the config file, which beats the default.  The
model flags --model, --k, --tau, --s and --t are the config keys
model.family, model.k, and so on; --config, --format and --output are
flag-only.  A config key that is neither model.* nor a parameter of some
subcommand is an error, so one file can serve several subcommands but a
misspelt key is caught.  A model key or flag that the family does not
take, or one that it lacks, is an error that names the full dotted key.

Every stochastic subcommand requires an explicit --seed; nothing falls
back to wall-clock entropy.  Results are written as CSV or JSON; CSV
floats carry 17 significant digits so round-trips are lossless.  JSON
output is strict RFC 8259: NaN is written as null and +-inf as the
strings "inf" and "-inf", which float() and model_from_config read back.
Output is byte-identical for a given (config, seed) regardless of
--threads.

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

from . import estimators, kacrice, models, theory
from .finder import DegenerateHessianError, find_critical_points
from .models import (
    CovarianceModel,
    MomentDivergenceError,
    _require_finite_positive,
    model_from_config,
    model_to_config,
    sigma_derivatives,
)
from .sampling import sample_field

__all__ = ["main", "build_parser"]

# Relative output paths are resolved against this directory when set.
OUTPUT_DIR_ENV = "PLANARCRIT_OUTPUT_DIR"

# name: (type, default, help).  A type is int, float, str, bool (the flag
# has a --no- form), list (floats; a config value separates them by commas
# or spaces) or a tuple of the allowed strings.
PARAMS = {
    "threads": (int, 1, "worker processes for estimate, report and kacrice --what ball; the "
                        "other subcommands run in one process whatever its value"),
    "seed": (int, None, "master seed (required)"),
    "rho": (float, 0.1, "ball radius for the asymptotic pair moments"),
    "size": (int, 1024, "number of frequency terms"),
    "gaussian-amplitudes": (bool, False, "exactly Gaussian amplitude variant"),
    "window-size": (float, None, "square window side (default from model)"),
    "grid-step": (float, None, "finder grid step h (default from model); the gradient sign "
                               "test runs on cells of h / 8 (a step above the default can "
                               "lose roots)"),
    "nreal": (int, 100, "number of realizations"),
    "kind": (str, "c", "point type for the intensity or one-point (c, e, s, min, max)"),
    "pair": (str, "cc", "pair type (cc, ee, ss, es)"),
    "rho-list": (list, None, "ball radii for pair moments"),
    "what": (("one-point", "two-point", "ball"), "one-point", "which correlation function"),
    "r": (list, None, "mutual distances for two-point; all of them read one stream of draws"),
    "nsamples": (int, 10**6, "Monte-Carlo budget N, which buys ceil(N / 2) draws, each counted "
                             "twice as x and -x (per node for ball; per distance for two-point "
                             "and scaling, whose distances share one stream of draws)"),
    "r-min": (float, 0.005, "smallest distance of the log grid"),
    "r-max": (float, 0.05, "largest distance of the log grid"),
    "points": (int, 6, "log-grid size"),
    "with-log": (bool, False, "include a log-factor regressor in the fit"),
    "budget": (("small", "full"), "small", "Monte-Carlo budget of the checks"),
}

# Every subcommand takes these; in a config file they are model.family and
# model.<name>.
MODEL_FLAGS = {
    "model": (str, f"model family ({', '.join(models._FAMILIES)})"),
    "k": (float, "wave number / profile rate"),
    "tau": (float, f"shift weight ({models.ShiftedRandomWave.family})"),
    "s": (float, f"wave weight ({models.ShiftedRandomWave.family}) or mixture weight of "
                 f"left ({models.Interpolation.family})"),
    "t": (float, f"spectral truncation ({models.PowerLawTruncated.family})"),
}

# The CSV columns of find, one row per critical point.
FIND_COLUMNS = ("x", "y", "kind", "hessian_det", "eig_low", "eig_high", "gradient_residual")

# Config-file spellings of a bool, in any case.
_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


class _Parser(argparse.ArgumentParser):
    """argparse front end that exits 1 on bad usage (not 2)."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(value) -> str:
    """One CSV cell; floats at 17 significant digits."""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _render_csv(rows, cols=None) -> str:
    """A header line and one line per row; cols default to the first row's keys."""
    cols = cols or list(rows[0])
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(cols)
    for row in rows:
        writer.writerow(_fmt(row[c]) for c in cols)
    return out.getvalue()


def _render(args, meta: dict, rows, cols=None) -> str:
    if args.format == "csv":
        return _render_csv(rows, cols)
    return _render_json({"meta": meta, "rows": rows})


def _render_json(doc) -> str:
    """RFC 8259 JSON: NaN is written as null, +-inf as "inf" and "-inf" (float() reads them)."""
    return json.dumps(_json_safe(doc), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None if math.isnan(value) else str(value)
    if isinstance(value, dict):
        return {key: _json_safe(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(val) for val in value]
    return value


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


def _from_config(name: str, kind, raw: str):
    """A config-file value as its parameter's type."""
    if kind is bool:
        if raw.lower() not in _BOOLS:
            raise ValueError(f"{name} = {raw!r} is not a bool; use one of {', '.join(_BOOLS)}")
        return _BOOLS[raw.lower()]
    if kind is list:
        return [float(v) for v in raw.replace(",", " ").split()]
    if isinstance(kind, tuple):
        if raw not in kind:
            raise ValueError(f"{name} = {raw!r}; expected one of {', '.join(kind)}")
        return raw
    return kind(raw)


def _model_from(args, cfg: dict) -> CovarianceModel:
    """Model spec from config-file keys `model.*` overlaid by the model flags."""
    entries = {k[len("model."):]: v for k, v in cfg.items() if k.startswith("model.")}
    for flag in MODEL_FLAGS:
        val = getattr(args, flag)
        if val is not None:
            entries["family" if flag == "model" else flag] = val
    if "family" not in entries:
        raise ValueError("no model given: pass --model or set model.family in the config")
    return model_from_config(entries)


def _merge(args, cfg: dict) -> argparse.Namespace:
    """The subcommand's parameters: a flag beats the config beats the default.

    The namespace holds each parameter of the subcommand (with "_" for
    "-"), the model, and --format and --output.
    """
    for key in cfg:
        if not key.startswith("model.") and key not in PARAMS:
            raise ValueError(f"unknown config key {key!r}: no subcommand takes it")
    _, _, names, overrides, _ = COMMANDS[args.command]
    merged = argparse.Namespace(format=args.format, output=args.output)
    for name in names:
        kind, default, _ = PARAMS[name]
        dest = name.replace("-", "_")
        value = getattr(args, dest)
        if value is None and name in cfg:
            value = _from_config(name, kind, cfg[name])
        setattr(merged, dest, overrides.get(name, default) if value is None else value)
    # Below 1 is an error, not a serial run.
    if merged.threads < 1:
        raise ValueError(f"threads must be at least 1, got {merged.threads}")
    if "seed" in names and merged.seed is None:
        raise ValueError("--seed is required (no wall-clock default)")
    merged.model = _model_from(args, cfg)
    return merged


def _window(args) -> tuple:
    if args.window_size is None:
        return estimators.default_window(args.model)
    _require_finite_positive("window size", args.window_size)
    return ((0.0, args.window_size), (0.0, args.window_size))


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


def _cmd_theory(args):
    flat = theory.theory_report(args.model, rho=args.rho)
    if args.format == "csv":
        rows = [{"quantity": k, "value": v} for k, v in flat.items()]
        return _render_csv(rows)
    return _render_json({"meta": model_to_config(args.model), **flat})


def _cmd_sample(args):
    gaussian = args.gaussian_amplitudes
    field = sample_field(args.model, M=args.size, seed=args.seed, gaussian_amplitudes=gaussian)
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
    meta = {**model_to_config(args.model), "seed": args.seed, "gaussian_amplitudes": gaussian}
    return _render(args, meta, rows)


def _cmd_find(args):
    window = _window(args)
    field = sample_field(args.model, M=args.size, seed=args.seed,
                         gaussian_amplitudes=args.gaussian_amplitudes)
    # Only JSON output shows the finder's counters (meta["finder"]); asking
    # for them also runs the index defect, so CSV output does not.
    counters = {} if args.format == "json" else None
    points = find_critical_points(field, window, args.grid_step, diagnostics=counters)
    rows = [
        dict(zip(FIND_COLUMNS, (*pt.location, str(pt.kind), pt.hessian_det,
                                *pt.hessian_eigenvalues, pt.gradient_residual)))
        for pt in points
    ]
    meta = {
        **model_to_config(args.model),
        "seed": args.seed,
        "window": list(map(list, window)),
        "finder": counters,
    }
    # The header names the columns also when no root lies in the window.
    return _render(args, meta, rows, FIND_COLUMNS)


def _cmd_estimate(args):
    theory.normalize_kind(args.kind)  # reject a bad tag before the sweep
    pair = theory.normalize_pair(args.pair)
    rho_list = args.rho_list or []
    sw = estimators.sweep(args.model, args.nreal, args.seed, rho_list, window=_window(args),
                          M=args.size, threads=args.threads)
    rows = [_estimate_row(estimators.intensity(sw, args.kind))]
    rows += [_estimate_row(estimators.second_factorial(sw, rho, pair)) for rho in rho_list]
    rows += [_estimate_row(estimators.repulsion_ratio(sw, rho)) for rho in rho_list]
    meta = {**model_to_config(args.model), "seed": args.seed, "nreal": args.nreal,
            "kind": args.kind}
    return _render(args, meta, rows)


def _cmd_kacrice(args):
    model, seed, nsamples = args.model, args.seed, args.nsamples
    theory.normalize_kind(args.kind)  # reject a bad tag on every route
    pair = tuple(theory.normalize_pair(args.pair))
    if args.what == "one-point":
        ests = [kacrice.one_point_intensity_mc(model, nsamples=nsamples, seed=seed, kind=args.kind)]
    elif args.what == "two-point":
        if not args.r:
            raise ValueError("two-point needs --r with at least one distance")
        ests = kacrice.two_point_correlation(model, args.r, pair=pair, nsamples=nsamples,
                                             seed=(seed, 0))
    else:
        if not args.rho_list:
            raise ValueError("ball needs --rho-list with at least one radius")
        ests = [
            kacrice.second_factorial_by_quadrature(
                model, rho, pair=pair, nsamples_per_node=nsamples,
                seed=(seed, i), threads=args.threads,
            )
            for i, rho in enumerate(args.rho_list)
        ]
    meta = {**model_to_config(model), "seed": seed, "what": args.what, "nsamples": nsamples}
    return _render(args, meta, [_estimate_row(est) for est in ests])


def _cmd_scaling(args):
    pair = tuple(theory.normalize_pair(args.pair))
    _require_finite_positive("r-min", args.r_min)
    _require_finite_positive("r-max", args.r_max)
    if not args.r_min < args.r_max:
        raise ValueError(f"need r-min < r-max, got ({args.r_min}, {args.r_max})")
    if args.points < 4:
        raise ValueError(f"a scaling fit needs at least 4 points, got {args.points}")
    grid = np.geomspace(args.r_min, args.r_max, args.points)
    estimates = kacrice.two_point_correlation(args.model, grid, pair=pair,
                                              nsamples=args.nsamples, seed=(args.seed, 0))
    fit = estimators.fit_scaling(estimates, with_log=args.with_log)
    rows = [_estimate_row(est) for est in estimates]
    rows.append(
        {
            "label": f"fit({pair[0]},{pair[1]})",
            "rho": math.nan,
            "value": fit.exponent,
            "std_error": fit.exponent_se,
            "nsamples": args.points,
        }
    )
    meta = {
        **model_to_config(args.model),
        "seed": args.seed,
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

    # The e and s intensities, each half of all, read one stream of draws.
    share = 0.5
    for est in kacrice.one_point_intensity_mc(model, nsamples=n1, seed=(seed, 1),
                                              kind=("e", "s")):
        yield (
            f"intensity_{est.label}",
            share * lam,
            est.value,
            est.std_error,
            max(4 * est.std_error, 0.02 * share * lam),
        )

    length = kacrice.correlation_length(model)
    # Infinite (or NaN) when R_6 diverges, as for the untruncated power law.
    a = theory.k2_limit(d)
    if math.isfinite(a):
        r_small = 0.002 * length
        n2 = 4 * 10**5 if small else 4 * 10**6
        est = kacrice.two_point_correlation(model, r_small, nsamples=n2, seed=(seed, 2))
        yield ("k2_limit", a, est.value, est.std_error, max(4 * est.std_error, 0.05 * a))

        rc = theory.repulsion_factor(d)
        # The ball must also be small against the spectrum's inner scale
        # sqrt(R6 / R8) = sqrt(-nu0 / (16 upsilon)): rho <= 0.256 of it.
        # A long spectral tail (PowerLawTruncated(t), large t) pulls that
        # scale far below the correlation length.
        rho = 0.016 * min(length, 16.0 / math.sqrt(16.0 * d.upsilon / -d.nu0))
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

    # The control is sized in the model's length unit 1/k_eff, as the
    # default window is.  It then expects lam (20 / k_eff)^2 =
    # 400 R0 R4 / (2 sqrt(3) pi R2^2) >= 36.8 points per realization,
    # since R2^2 <= R0 R4 on the radial measure, whatever the model's scale.
    unit = 1.0 / models.effective_wavenumber(model)
    ctrl = estimators.poisson_control_ratio(
        intensity=lam, window=((0.0, 20.0 * unit), (0.0, 20.0 * unit)), rho=0.5 * unit,
        nreal=100 if small else 200, seed=(seed, 5),
    )
    yield ("poisson_control", 1.0, ctrl.value, ctrl.std_error, 4 * ctrl.std_error)


def _cmd_report(args):
    rows = []
    for name, ref, est, se, tol in _report_checks(args.model, args.seed, args.budget,
                                                  args.threads):
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
        meta = {**model_to_config(args.model), "seed": args.seed, "budget": args.budget}
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

# name: (handler, help, parameter names, default overrides, default --format)
COMMANDS = {
    "theory": (_cmd_theory, "closed-form statistics of a model", ("threads", "rho"), {}, "json"),
    "sample": (_cmd_sample, "draw a spectral field realization",
               ("threads", "seed", "size", "gaussian-amplitudes"), {}, "csv"),
    "find": (_cmd_find, "critical points of one realization",
             ("threads", "seed", "size", "gaussian-amplitudes", "window-size", "grid-step"),
             {}, "csv"),
    "estimate": (_cmd_estimate, "empirical statistics over realizations",
                 ("threads", "seed", "nreal", "size", "kind", "pair", "rho-list", "window-size"),
                 {}, "csv"),
    "kacrice": (_cmd_kacrice, "conditional Monte-Carlo correlation functions",
                ("threads", "seed", "what", "kind", "pair", "r", "rho-list", "nsamples"),
                {}, "csv"),
    "scaling": (_cmd_scaling, "small-distance exponent fit of the 2-point function",
                ("threads", "seed", "pair", "r-min", "r-max", "points", "nsamples", "with-log"),
                {"pair": "ee"}, "csv"),
    "report": (_cmd_report, "verification table for one model",
               ("threads", "seed", "budget"), {}, None),
}


def build_parser() -> argparse.ArgumentParser:
    """Every subcommand from the tables; each argparse default of a parameter
    is None, so that the merge can tell an absent flag from a given one."""
    parser = _Parser(prog="planarcrit", description=__doc__.split("\n", 1)[0])
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, names, overrides, fmt) in COMMANDS.items():
        sub = subs.add_parser(command, help=help_text)
        sub.add_argument("--config", help="flat key = value config file")
        for name, (kind, text) in MODEL_FLAGS.items():
            sub.add_argument(f"--{name}", type=kind, help=text)
        sub.add_argument("--format", choices=("csv", "json"), default=fmt)
        sub.add_argument("--output", "-o",
                         help=f"output path (relative paths honor ${OUTPUT_DIR_ENV})")
        for name in names:
            kind, default, text = PARAMS[name]
            default = overrides.get(name, default)
            if default is not None:
                text = f"{text} (default {default})"
            how = ({"action": argparse.BooleanOptionalAction} if kind is bool
                   else {"nargs": "+", "type": float} if kind is list
                   else {"choices": kind} if isinstance(kind, tuple) else {"type": kind})
            sub.add_argument(f"--{name}", help=text, **how)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        merged = _merge(args, _load_config(args.config))
        _write_output(merged, COMMANDS[args.command][0](merged))
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
