"""End-to-end checks of the command-line front end.

Everything runs in-process through cli.main with captured stdio, so the
whole file stays cheap; the heavy numerics live in their own test files.
"""

import argparse
import csv
import io
import json
import math

import numpy as np
import pytest

from planarcrit import cli, estimators, kacrice, theory
from planarcrit.finder import find_critical_points
from planarcrit.models import RandomWave, sigma_derivatives


def run(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors route through here
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def parse_csv(text):
    header, *body = csv.reader(io.StringIO(text))
    return header, [dict(zip(header, row)) for row in body]


def test_theory_json_frozen_values(capsys):
    code, out, err = run(capsys, "theory", "--model", "randomwave", "--k", "1")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert math.isclose(doc["lambda_c"], 0.09188814923696535, rel_tol=1e-15)
    assert math.isclose(doc["repulsion_factor"], 0.07216878364870315, rel_tol=1e-15)
    assert math.isclose(doc["k2_limit_a"], doc["repulsion_factor"] * doc["lambda_c"] ** 2,
                        rel_tol=1e-15)
    assert doc["meta"] == {"family": "randomwave", "k": 1.0}


def test_theory_csv_roundtrips_17_digits(capsys):
    code, out, _ = run(capsys, "theory", "--model", "randomwave", "--k", "1", "--format", "csv")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["quantity", "value"]
    byname = {r["quantity"]: r["value"] for r in rows}
    # .17g is enough digits to reproduce the double exactly
    assert float(byname["lambda_c"]) == theory.lambda_c(sigma_derivatives(RandomWave(1.0)))
    assert float(byname["repulsion_factor"]) == theory.repulsion_factor(sigma_derivatives(RandomWave(1.0)))


def test_sample_rows_and_fixed_amplitudes(capsys):
    code, out, _ = run(capsys, "sample", "--model", "randomwave", "--k", "1",
                       "--seed", "3", "--size", "8")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["lambda1", "lambda2", "phase", "amplitude", "shift"]
    assert len(rows) == 8
    for r in rows:
        assert float(r["amplitude"]) == math.sqrt(2.0 / 8.0)
        assert float(r["shift"]) == 0.0
        # frequencies live on the unit circle for the monochromatic model
        assert math.isclose(math.hypot(float(r["lambda1"]), float(r["lambda2"])), 1.0,
                            rel_tol=1e-12)


def test_find_emits_classified_points(capsys):
    code, out, _ = run(capsys, "find", "--model", "randomwave", "--k", "1",
                       "--seed", "3", "--window-size", "6")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["x", "y", "kind", "hessian_det", "eig_low", "eig_high",
                      "gradient_residual"]
    assert rows
    for r in rows:
        assert r["kind"] in ("minimum", "maximum", "saddle")
        assert float(r["gradient_residual"]) < 1e-8
        det = float(r["eig_low"]) * float(r["eig_high"])
        assert math.isclose(det, float(r["hessian_det"]), rel_tol=1e-10)
        sign = 1.0 if r["kind"] in ("minimum", "maximum") else -1.0
        assert sign * float(r["hessian_det"]) > 0


def test_find_with_no_root_in_its_window_writes_the_header(tmp_path, capsys):
    # An empty root set is the header line alone, on stdout and in -o;
    # JSON output keeps its empty rows.
    argv = ["find", "--model", "randomwave", "--k", "1", "--seed", "1", "--size", "64",
            "--window-size", "0.01"]
    header = ",".join(cli.FIND_COLUMNS) + "\n"
    assert header == "x,y,kind,hessian_det,eig_low,eig_high,gradient_residual\n"
    assert run(capsys, *argv) == (0, header, "")
    path = tmp_path / "roots.csv"
    assert run(capsys, *argv, "-o", str(path)) == (0, "", "")
    assert path.read_text() == header
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0 and json.loads(out)["rows"] == []


def test_repeat_runs_and_thread_counts_are_byte_identical(tmp_path, capsys):
    common = ["estimate", "--model", "randomwave", "--k", "1", "--seed", "11",
              "--nreal", "4", "--window-size", "10", "--rho-list", "1.0", "1.5"]
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    for path, extra in zip(paths, ([], [], ["--threads", "2"])):
        code, _, _ = run(capsys, *common, *extra, "--output", str(path))
        assert code == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


def test_estimate_samples_each_realization_once(capsys, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].seed)
        return find_critical_points(*args, **kwargs)

    monkeypatch.setattr(estimators, "find_critical_points", counting)
    code, out, _ = run(capsys, "estimate", "--model", "randomwave", "--k", "1",
                       "--seed", "11", "--nreal", "4", "--window-size", "10",
                       "--rho-list", "0.5", "1.5")
    assert code == 0
    assert len(parse_csv(out)[1]) == 5  # intensity, two moments, two ratios
    assert calls == [(11, i) for i in range(4)]


@pytest.mark.parametrize("m", [20, -30])
def test_estimate_of_a_rescaled_field_gives_the_k1_rows(capsys, m):
    # RandomWave(2^m) on [0, 20 / 2^m]^2 with radii rho / 2^m is RandomWave(1)
    # in another length unit, scaled exactly: the intensity row is the k = 1
    # row times 2^2m and every ball row is the k = 1 row with its radius.
    def rows(k):
        code, out, err = run(capsys, "estimate", "--model", "randomwave", "--k", repr(k),
                             "--seed", "3", "--nreal", "4", "--size", "256",
                             "--window-size", repr(20.0 / k), "--rho-list",
                             repr(0.5 / k), repr(1.0 / k))
        assert code == 0 and err == ""
        return parse_csv(out)[1]

    def scaled(row, **factors):  # the CSV cells, with those named scaled back to k = 1
        return {c: repr(float(v) * factors[c]) if c in factors else v for c, v in row.items()}

    k = 2.0**m
    (lam, *balls), (want_lam, *want_balls) = rows(k), rows(1.0)
    assert float(want_lam["value"]) > 0 and len(balls) == len(want_balls) == 4
    assert scaled(lam, value=k**-2, std_error=k**-2) == scaled(want_lam, value=1, std_error=1)
    for row, want in zip(balls, want_balls):
        assert scaled(row, rho=k) == scaled(want, rho=1)


def test_estimate_rejects_unknown_kind_before_sweeping(capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("swept before checking --kind")

    monkeypatch.setattr(estimators, "sweep", no_sweep)
    code, out, err = run(capsys, "estimate", "--model", "randomwave", "--k", "1",
                         "--seed", "11", "--nreal", "4", "--kind", "bogus")
    assert code == 1 and out == ""
    assert "unknown critical-point kind" in err


@pytest.mark.parametrize("what", [["one-point"], ["two-point", "--r", "0.5"],
                                  ["ball", "--rho-list", "0.3"]], ids=lambda w: w[0])
def test_kacrice_rejects_unknown_kind_on_every_route(what, capsys, monkeypatch):
    def no_law(*args, **kwargs):
        raise AssertionError("built a pair law before checking --kind")

    monkeypatch.setattr(kacrice, "_pair_conditional", no_law)
    code, out, err = run(capsys, "kacrice", "--model", "randomwave", "--k", "1", "--seed", "1",
                         "--what", *what, "--nsamples", "100", "--kind", "zzz")
    assert (code, out, err) == (1, "", "planarcrit: error: unknown critical-point kind 'zzz'\n")


def test_failed_write_keeps_old_output(tmp_path):
    target = tmp_path / "out.csv"
    target.write_bytes(b"old bytes\n")
    args = argparse.Namespace(output=str(target))
    with pytest.raises(UnicodeEncodeError):  # a lone surrogate cannot be encoded
        cli._write_output(args, "label,value\n\ud800\n")
    assert target.read_bytes() == b"old bytes\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# monochromatic base case\n"
        "model.family = randomwave\n"
        "model.k = 2.0\n"
    )
    code, out, _ = run(capsys, "theory", "--config", str(cfg))
    assert code == 0
    assert math.isclose(json.loads(out)["lambda_c"],
                        theory.lambda_c(sigma_derivatives(RandomWave(2.0))), rel_tol=1e-15)
    # the flag wins over the config value
    code, out, _ = run(capsys, "theory", "--config", str(cfg), "--k", "1")
    assert code == 0
    assert math.isclose(json.loads(out)["lambda_c"],
                        theory.lambda_c(sigma_derivatives(RandomWave(1.0))), rel_tol=1e-15)


def test_no_flag_switches_off_a_config_bool(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model.family = randomwave\nmodel.k = 1\ngaussian-amplitudes = true\n")
    argv = ("sample", "--config", str(cfg), "--seed", "3", "--size", "8", "--format", "json")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["meta"]["gaussian_amplitudes"] is True
    code, out, _ = run(capsys, *argv, "--no-gaussian-amplitudes")
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["gaussian_amplitudes"] is False
    assert all(row["amplitude"] == math.sqrt(2.0 / 8.0) for row in doc["rows"])
    parser = cli.build_parser()
    assert parser.parse_args(["scaling", "--no-with-log"]).with_log is False
    assert parser.parse_args(["scaling"]).with_log is None


def test_config_bool_must_be_a_known_spelling(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    argv = ("sample", "--config", str(cfg), "--seed", "3", "--size", "8", "--format", "json")
    for raw, want in (("On", True), ("NO", False), ("0", False)):
        cfg.write_text(f"model.family = randomwave\nmodel.k = 1\ngaussian-amplitudes = {raw}\n")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["meta"]["gaussian_amplitudes"] is want
    cfg.write_text("model.family = randomwave\nmodel.k = 1\ngaussian-amplitudes = ture\n")
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert "gaussian-amplitudes" in err and "ture" in err


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_exit_1(tmp_path, capsys, threads):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"threads = {threads}\n")
    for argv in (
        ("estimate", "--model", "randomwave", "--k", "1", "--seed", "3",
         "--nreal", "2", "--window-size", "6"),
        ("theory", "--model", "randomwave", "--k", "1"),
    ):
        code, out, err = run(capsys, *argv, "--threads", threads)
        assert code == 1 and out == "" and "threads" in err
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert code == 1 and out == "" and "threads" in err


@pytest.mark.parametrize("rho", ["-1", "0", "inf", "nan"])
def test_theory_rejects_nonpositive_rho(capsys, rho):
    code, out, err = run(capsys, "theory", "--model", "randomwave", "--k", "1", "--rho", rho)
    assert code == 1 and out == "" and "rho" in err


def test_find_json_meta_carries_finder_counters(capsys):
    argv = ("find", "--model", "randomwave", "--k", "1", "--seed", "3", "--window-size", "6")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    counters = doc["meta"]["finder"]
    assert set(counters) == {"nseeds", "nconverged", "nmerged", "nrunaway", "nstalled",
                             "ndropped", "newton_iters", "nreturned", "index_defect"}
    assert counters["nreturned"] == len(doc["rows"])
    assert counters["nseeds"] == counters["nconverged"] + counters["nmerged"] + counters["ndropped"]
    # the CSV payload carries no counters
    code, out, _ = run(capsys, *argv)
    header, rows = parse_csv(out)
    assert "nseeds" not in out and len(rows) == counters["nreturned"]


def test_find_csv_asks_for_no_finder_counters(capsys, monkeypatch):
    # CSV output has no place for the counters, so find does not ask the
    # finder for them (asking also runs its index defect).
    asked = []

    def spy(*args, diagnostics=None):
        asked.append(diagnostics)
        return find_critical_points(*args, diagnostics=diagnostics)

    monkeypatch.setattr(cli, "find_critical_points", spy)
    argv = ("find", "--model", "randomwave", "--k", "1", "--seed", "3", "--window-size", "6")
    assert run(capsys, *argv)[0] == 0
    assert run(capsys, *argv, "--format", "json")[0] == 0
    assert asked[0] is None and asked[1] is not None and "index_defect" in asked[1]


def test_malformed_config_line_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("model.family randomwave\n")
    code, _, err = run(capsys, "theory", "--config", str(cfg))
    assert code == 1
    assert "key = value" in err


def test_usage_errors_exit_1(capsys):
    assert run(capsys, "theory")[0] == 1                      # no model anywhere
    assert run(capsys, "frobnicate")[0] == 1                  # unknown subcommand
    code, _, err = run(capsys, "sample", "--model", "randomwave", "--k", "1")
    assert code == 1 and "--seed is required" in err
    code, _, err = run(capsys, "estimate", "--model", "randomwave", "--k", "1",
                       "--seed", "3", "--nreal", "1", "--window-size", "10")
    assert code == 1 and "nreal" in err


def test_failed_run_leaves_no_output_file(tmp_path, capsys):
    out_path = tmp_path / "never.csv"
    code, _, _ = run(capsys, "estimate", "--model", "randomwave", "--k", "1",
                     "--seed", "3", "--nreal", "1", "--window-size", "10",
                     "--output", str(out_path))
    assert code == 1
    assert not out_path.exists()


def test_degenerate_distance_exits_2(capsys):
    code, _, err = run(capsys, "kacrice", "--model", "randomwave", "--k", "1",
                       "--seed", "3", "--what", "two-point", "--r", "1e-7",
                       "--nsamples", "100")
    assert code == 2
    assert "degeneracy" in err


def test_kacrice_pair_takes_spelled_out_names(capsys):
    argv = ("kacrice", "--model", "randomwave", "--k", "1", "--seed", "3",
            "--what", "two-point", "--r", "0.05", "--nsamples", "2000", "--pair")
    code, letters, _ = run(capsys, *argv, "es")
    assert code == 0
    assert run(capsys, *argv, "saddle,extremum") == (0, letters, "")
    code, _, err = run(capsys, *argv, "min,max")
    assert code == 1 and "pair tags must be in {c, e, s}" in err


def test_unwritable_output_exits_1(tmp_path, capsys):
    missing = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "theory", "--model", "randomwave", "--k", "1",
                         "--output", str(missing))
    assert code == 1 and out == ""
    assert err.startswith("planarcrit: error: ")
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("exc", [np.linalg.LinAlgError, FloatingPointError, OverflowError])
def test_numerical_failure_exits_2(exc, capsys, monkeypatch):
    def fail(model, rho):
        raise exc("matrix is not positive definite")

    monkeypatch.setattr(cli.theory, "theory_report", fail)
    code, out, err = run(capsys, "theory", "--model", "randomwave", "--k", "1")
    assert code == 2 and out == ""
    assert err == "planarcrit: numerical failure: matrix is not positive definite\n"


@pytest.mark.parametrize(
    "argv, family",
    [
        (("theory", "--model", "randomwave", "--k", "1e-200"), "RandomWave"),
        (("theory", "--model", "bargmannfock", "--k", "1e-300"), "BargmannFock"),
        (("kacrice", "--model", "randomwave", "--k", "1e-100"), "RandomWave"),
        (("theory", "--model", "randomwave", "--k", "1e200"), "RandomWave"),
        (("theory", "--model", "randomwave", "--k", "1e40"), "RandomWave"),
        (("kacrice", "--model", "randomwave", "--k", "1e200"), "RandomWave"),
        (("kacrice", "--model", "bargmannfock", "--k", "1e300"), "BargmannFock"),
        (("kacrice", "--model", "powerlawtruncated", "--t", "1e300"), "PowerLawTruncated"),
    ],
)
def test_out_of_range_moments_exit_2_naming_the_model(argv, family, capsys):
    # Moments that underflow to zero or overflow a double are a numerical
    # failure, not bad input.  The suite turns warnings into errors, so a
    # numpy RuntimeWarning before the message would fail this test too.
    if argv[0] == "kacrice":
        argv += ("--what", "one-point", "--seed", "1")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    assert line.startswith("planarcrit: numerical failure:")
    assert f"{family}(" in line


@pytest.mark.parametrize(
    "argv, lag",
    [
        (("kacrice", "--model", "randomwave", "--k", "1", "--what", "two-point",
          "--r", "1e160"), "1e+160"),
        (("kacrice", "--model", "shiftedrandomwave", "--tau", "1", "--s", "1", "--k", "1",
          "--what", "two-point", "--r", "1e160"), "1e+160"),
        (("scaling", "--model", "randomwave", "--k", "1", "--r-min", "1e150",
          "--r-max", "1e160"), "1e+156"),
    ],
    ids=["randomwave", "shiftedrandomwave", "scaling"],
)
def test_lag_whose_square_overflows_exits_2_naming_it(argv, lag, capsys):
    # The Bessel profile of a far lag runs in float64 on the squared lag:
    # one past ~1.3e154 is a numerical failure named by its lag, with no
    # numpy overflow warning first and no blame on the gradient law.
    code, out, err = run(capsys, *argv, "--seed", "1", "--nsamples", "100")
    assert code == 2 and out == ""
    assert err == (f"planarcrit: numerical failure: the Bessel profile cannot take lag {lag}: "
                   f"its square overflows a double\n")
    code, out, err = run(capsys, "kacrice", "--model", "randomwave", "--k", "1", "--seed", "1",
                         "--what", "two-point", "--r", "1e150", "--nsamples", "100")
    assert code == 0 and err == "" and "e+149" in out


@pytest.mark.parametrize("rho", ["1e100", "1e154", "1e160"])
def test_ball_radius_whose_area_overflows_exits_2_naming_it(rho, capsys, monkeypatch):
    # (pi rho^2)^2 past the largest double fails before any node law is
    # built or drawn, with one line that names the radius.
    calls = []
    pair_conditional = kacrice._pair_conditional

    def counted(model, r):
        calls.append(r)
        return pair_conditional(model, r)

    monkeypatch.setattr(kacrice, "_pair_conditional", counted)
    code, out, err = run(capsys, "kacrice", "--model", "randomwave", "--k", "1", "--seed", "1",
                         "--what", "ball", "--rho-list", rho, "--nsamples", "2000")
    assert code == 2 and out == ""
    assert err == (f"planarcrit: numerical failure: ball radius rho = {float(rho)} is too "
                   f"large: (pi rho^2)^2 overflows\n")
    assert calls == []


@pytest.mark.parametrize("rho", ["1e100", "1e160"])
def test_theory_radius_whose_area_overflows_exits_2_naming_it(rho, capsys):
    code, out, err = run(capsys, "theory", "--model", "randomwave", "--k", "1", "--rho", rho)
    assert code == 2 and out == ""
    assert err == (f"planarcrit: numerical failure: ball radius rho = {float(rho)} is too "
                   f"large: (pi rho^2)^2 overflows\n")


@pytest.mark.parametrize(
    "model, r, far",
    [(["randomwave", "--k", "1"], ["5e153"], "5e+153"),
     (["bargmannfock", "--k", "1"], ["1e160"], "1e+160"),
     (["bargmannfock", "--k", "1"], ["0.5", "1e200"], "1e+200")],
    ids=["randomwave", "bargmannfock", "bargmannfock-stack"],
)
def test_distance_whose_pair_density_overflows_exits_2_naming_it(model, r, far, capsys,
                                                                 monkeypatch):
    # exp(-logdet / 2) and (2 pi r)^2 each overflow a double before their
    # ratio does: the first such distance of the stack is named, and
    # nothing is drawn.
    def no_draw(*args, **kwargs):
        raise AssertionError("drew before the pair law failed")

    monkeypatch.setattr(kacrice.ConditionalGaussian, "sample", no_draw)
    code, out, err = run(capsys, "kacrice", "--model", *model, "--seed", "1",
                         "--what", "two-point", "--r", *r, "--nsamples", "100")
    assert code == 2 and out == ""
    assert err == (f"planarcrit: numerical failure: distance r = {far} is too large: the "
                   f"gradient-pair density exp(-logdet / 2) / (2 pi r)^2 overflows a double\n")
    monkeypatch.undo()
    code, out, err = run(capsys, "kacrice", "--model", "bargmannfock", "--k", "1", "--seed",
                         "1", "--what", "two-point", "--r", "1e100", "--nsamples", "100")
    assert code == 0 and err == "" and "1e+100" in out


def test_output_dir_env_resolves_relative_paths(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    code, out, _ = run(capsys, "theory", "--model", "randomwave", "--k", "1",
                       "--output", "report.json")
    assert code == 0 and out == ""
    doc = json.loads((tmp_path / "report.json").read_text())
    assert math.isclose(doc["lambda_c"], 0.09188814923696535, rel_tol=1e-15)


def test_scaling_emits_fit_row(capsys):
    code, out, _ = run(capsys, "scaling", "--model", "randomwave", "--k", "1",
                       "--seed", "3", "--r-min", "0.05", "--r-max", "0.2",
                       "--points", "4", "--nsamples", "4000")
    assert code == 0
    _, rows = parse_csv(out)
    labels = [r["label"] for r in rows]
    assert labels.count("fit(e,e)") == 1
    assert len(rows) == 5
    fit = rows[labels.index("fit(e,e)")]
    assert float(fit["value"]) > 0  # estimated exponent


def test_estimate_json_shape(capsys):
    code, out, _ = run(capsys, "estimate", "--model", "randomwave", "--k", "1",
                       "--seed", "3", "--nreal", "3", "--window-size", "10",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["family"] == "randomwave" and doc["meta"]["nreal"] == 3
    assert doc["rows"][0]["label"] == "c"
    assert doc["rows"][0]["nsamples"] == 3


def test_report_small_budget_passes(capsys):
    code, out, _ = run(capsys, "report", "--model", "randomwave", "--k", "1",
                       "--budget", "small", "--seed", "42")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    # every check row carries theory and estimate columns
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert lines[0].split()[:2] == ["check", "theory"]
    assert len(lines) >= 5


@pytest.mark.parametrize(
    "argv",
    [("kacrice", "--what", "two-point", "--r", "0.05", "0.5"),
     ("scaling", "--r-min", "0.005", "--r-max", "0.05"),
     ("kacrice", "--what", "ball", "--rho-list", "0.3")],
    ids=["two-point", "scaling", "ball"],
)
def test_pair_law_without_80_bit_longdouble_exits_2_naming_the_precision(argv, capsys,
                                                                       monkeypatch):
    # Where numpy's longdouble is a plain double, the pair law would be
    # silently wrong at small r: every pair route refuses it before any
    # draw, with one line naming the platform's mantissa bits.
    def no_draw(*args, **kwargs):
        raise AssertionError("drew before the pair law failed")

    monkeypatch.setattr(kacrice, "_LONGDOUBLE_NMANT", 52)
    monkeypatch.setattr(kacrice.ConditionalGaussian, "sample", no_draw)
    code, out, err = run(capsys, *argv, "--model", "randomwave", "--k", "1", "--seed", "1",
                         "--nsamples", "100")
    assert code == 2 and out == ""
    assert err == ("planarcrit: numerical failure: the Kac-Rice pair law needs an 80-bit "
                   "longdouble (63 mantissa bits), but numpy's longdouble here has 52\n")
    # The one-point law needs no Schur step and still runs.
    monkeypatch.undo()
    monkeypatch.setattr(kacrice, "_LONGDOUBLE_NMANT", 52)
    code, out, err = run(capsys, "kacrice", "--model", "randomwave", "--k", "1", "--seed", "1",
                         "--what", "one-point", "--nsamples", "100")
    assert code == 0 and err == ""


def test_untruncated_power_law_pair_law_exits_2(capsys):
    code, out, err = run(capsys, "kacrice", "--model", "powerlawtruncated", "--t", "inf",
                         "--seed", "3", "--what", "two-point", "--r", "0.05",
                         "--nsamples", "100")
    assert code == 2 and out == ""
    assert err.startswith("planarcrit: degeneracy: the untruncated power law has no finite")


def test_untruncated_power_law_report_passes(capsys):
    # R_c is infinite, so the report keeps the rows that need no pair law
    code, out, _ = run(capsys, "report", "--model", "powerlawtruncated", "--t", "inf",
                       "--budget", "small", "--seed", "42", "--format", "csv")
    assert code == 0
    _, rows = parse_csv(out)
    assert [r["check"] for r in rows] == ["intensity_all", "intensity_e", "intensity_s",
                                          "poisson_control"]
    assert all(r["status"] == "PASS" for r in rows)


def test_scaling_zero_estimate_is_a_numerical_failure(capsys):
    # At 1e4 draws per distance, the ee estimate at r = 0.005 (a rare event)
    # comes out exactly 0 for this seed; the log-log fit cannot take it.
    code, out, err = run(capsys, "scaling", "--model", "randomwave", "--k", "1",
                         "--r-min", "0.005", "--r-max", "0.05", "--points", "4",
                         "--nsamples", "10000", "--seed", "3")
    assert code == 2 and out == ""
    assert err == ("planarcrit: numerical failure: "
                   "all estimates must be positive for a log-log fit\n")


def test_estimate_that_counts_no_point_is_a_numerical_failure(capsys):
    # Valid arguments whose sweep counts no critical point in any ball: the
    # repulsion ratio has a zero denominator, which is a numerical failure.
    code, out, err = run(capsys, "estimate", "--model", "randomwave", "--k", "1",
                         "--window-size", "2", "--rho-list", "0.4", "--nreal", "2",
                         "--size", "64", "--seed", "2")
    assert code == 2 and out == ""
    assert err == "planarcrit: numerical failure: no points counted; cannot form a ratio\n"


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=refuse)


_RW = ("--model", "randomwave", "--k", "1")
_PLT_INF = ("--model", "powerlawtruncated", "--t", "inf")


@pytest.mark.parametrize("argv", [
    ("theory", *_RW),
    ("theory", *_PLT_INF),
    ("sample", *_RW, "--seed", "3", "--size", "8"),
    ("find", *_RW, "--seed", "3", "--window-size", "6"),
    ("find", *_PLT_INF, "--seed", "7", "--size", "256", "--window-size", "6"),
    ("estimate", *_RW, "--seed", "3", "--nreal", "3", "--window-size", "10"),
    ("kacrice", *_RW, "--seed", "3", "--nsamples", "1000"),
    ("scaling", *_RW, "--seed", "3", "--r-min", "0.05", "--r-max", "0.2", "--points", "4",
     "--nsamples", "4000"),
    ("report", *_PLT_INF, "--budget", "small", "--seed", "42"),
], ids=lambda argv: f"{argv[0]}-{argv[2]}")
def test_json_output_is_strict_json(capsys, argv):
    # NaN is written as null and +-inf as a string, never as the NaN or
    # Infinity tokens that RFC 8259 parsers reject.
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert isinstance(_strict_json(out), dict)


def test_json_meta_reads_back_an_infinite_parameter(capsys):
    from planarcrit.models import PowerLawTruncated, model_from_config

    code, out, _ = run(capsys, "theory", *_PLT_INF)
    assert code == 0
    doc = _strict_json(out)
    assert doc["meta"]["t"] == "inf" and doc["repulsion_factor"] == "inf"
    model = model_from_config(doc["meta"])
    assert isinstance(model, PowerLawTruncated) and model.t == math.inf
    code, out, _ = run(capsys, "estimate", *_RW, "--seed", "3", "--nreal", "3",
                       "--window-size", "10", "--format", "json")
    assert _strict_json(out)["rows"][0]["rho"] is None


@pytest.mark.parametrize("size", ["inf", "nan", "0", "-1"])
@pytest.mark.parametrize("command", ["find", "estimate"])
def test_window_size_must_be_finite_and_positive(capsys, command, size):
    code, out, err = run(capsys, command, "--model", "randomwave", "--k", "1", "--seed", "3",
                         "--window-size", size)
    assert code == 1 and out == ""
    assert "window size must be finite and positive" in err


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("flag", ["--r-min", "--r-max"])
def test_scaling_bounds_must_be_finite(capsys, flag, value):
    # The bounds are checked before the log grid is built: geomspace would
    # warn on an infinite bound, and the error would then name r.
    bounds = {"--r-min": "0.005", "--r-max": "0.05", flag: value}
    code, out, err = run(capsys, "scaling", "--model", "randomwave", "--k", "1", "--seed", "3",
                         "--nsamples", "100", *(x for kv in bounds.items() for x in kv))
    assert code == 1 and out == ""
    assert err == f"planarcrit: error: {flag[2:]} must be finite and positive, got {value}\n"


@pytest.mark.parametrize("line, key", [("nrael = 5", "nrael"), ("format = json", "format"),
                                       ("k = 2", "k"), ("output = x.csv", "output")])
def test_unknown_config_key_exits_1_naming_it(tmp_path, capsys, line, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"model.family = randomwave\nmodel.k = 1\n{line}\n")
    code, out, err = run(capsys, "theory", "--config", str(cfg))
    assert code == 1 and out == ""
    assert f"unknown config key {key!r}" in err


def test_config_keys_of_other_subcommands_are_allowed(tmp_path, capsys):
    # One file can serve several subcommands; theory takes none of these.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model.family = randomwave\nmodel.k = 1\n"
                   "nreal = 5\nbudget = full\nrho-list = 0.5, 1.0\nwith-log = yes\n")
    code, out, err = run(capsys, "theory", "--config", str(cfg))
    assert (code, err) == (0, "")
    assert out == run(capsys, "theory", "--model", "randomwave", "--k", "1")[1]


_MIX_CFG = ("model.family = interpolation\nmodel.s = 0.35\n"
            "model.left.family = randomwave\nmodel.left.k = 1\n"
            "model.right.family = powerlawtruncated\nmodel.right.t = 2\n")


@pytest.mark.parametrize("body, flags, key", [
    pytest.param(_MIX_CFG, ["--k", "7", "--t", "9"], "'k'", id="k-and-t-on-interpolation"),
    pytest.param("model.left.k = 3\n", ["--model", "randomwave", "--k", "1"], "'left.k'",
                 id="left.k-on-randomwave"),
    pytest.param("", ["--model", "randomwave", "--k", "1", "--t", "5"], "'t'",
                 id="t-on-randomwave"),
    pytest.param("", ["--model", "randomwave"], "'k'", id="missing-k"),
])
def test_model_keys_the_family_does_not_take_exit_1_naming_them(tmp_path, capsys, body,
                                                               flags, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(body)
    code, out, err = run(capsys, "theory", "--config", str(cfg), *flags, "--format", "csv")
    assert code == 1 and out == ""
    assert key in err and "model key" in err


@pytest.mark.parametrize("body, key", [
    pytest.param("model.family = randomwave\nmodel.k = abc\n", "'k'", id="k"),
    pytest.param(_MIX_CFG.replace("model.right.t = 2", "model.right.t = x"), "'right.t'",
                 id="right.t"),
])
def test_model_values_that_are_not_numbers_exit_1_naming_their_key(tmp_path, capsys, body, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(body)
    code, out, err = run(capsys, "theory", "--config", str(cfg), "--format", "csv")
    assert code == 1 and out == ""
    assert f"model key {key} is not a number" in err


def test_model_help_lists_the_families(capsys):
    code, out, _ = run(capsys, "theory", "--help")
    assert code == 0
    text = " ".join(out.split())
    assert ("model family (bargmannfock, randomwave, shiftedrandomwave, powerlawtruncated, "
            "interpolation)") in text
    assert "mixture weight of left (interpolation)" in text


_COMMON = [["--config"], ["--model"], ["--k"], ["--tau"], ["--s"], ["--t"], ["--format"],
           ["--output", "-o"], ["--threads"]]
_SURFACE = {
    "theory": [*_COMMON, ["--rho"]],
    "sample": [*_COMMON, ["--seed"], ["--size"],
               ["--gaussian-amplitudes", "--no-gaussian-amplitudes"]],
    "find": [*_COMMON, ["--seed"], ["--size"],
             ["--gaussian-amplitudes", "--no-gaussian-amplitudes"], ["--window-size"],
             ["--grid-step"]],
    "estimate": [*_COMMON, ["--seed"], ["--nreal"], ["--size"], ["--kind"], ["--pair"],
                 ["--rho-list"], ["--window-size"]],
    "kacrice": [*_COMMON, ["--seed"], ["--what"], ["--kind"], ["--pair"], ["--r"],
                ["--rho-list"], ["--nsamples"]],
    "scaling": [*_COMMON, ["--seed"], ["--pair"], ["--r-min"], ["--r-max"], ["--points"],
                ["--nsamples"], ["--with-log", "--no-with-log"]],
    "report": [*_COMMON, ["--seed"], ["--budget"]],
}
_CHOICES = {"kacrice": {"--what": ("one-point", "two-point", "ball")},
            "report": {"--budget": ("small", "full")}}
_FORMATS = {"theory": "json", "report": None}


def _subparsers():
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_parser_surface_is_pinned():
    subs = _subparsers()
    assert list(subs) == list(_SURFACE)
    for command, sub in subs.items():
        actions = [a for a in sub._actions if a.option_strings != ["-h", "--help"]]
        assert [a.option_strings for a in actions] == _SURFACE[command], command
        choices = {a.option_strings[0]: tuple(a.choices) for a in actions if a.choices}
        assert choices == {"--format": ("csv", "json"), **_CHOICES.get(command, {})}, command
        # A parameter's argparse default stays None, so that a config can fill it.
        defaults = {a.option_strings[0]: a.default for a in actions}
        assert defaults == {**dict.fromkeys(defaults),
                            "--format": _FORMATS.get(command, "csv")}, command


def test_help_names_every_applied_default(capsys):
    for command, sub in _subparsers().items():
        argv = [command, "--model", "randomwave", "--k", "1"]
        if command != "theory":
            argv += ["--seed", "1"]
        merged = vars(cli._merge(cli.build_parser().parse_args(argv), {}))
        helps = {a.dest: a.help for a in sub._actions}
        for dest, value in merged.items():
            if dest not in ("model", "format", "output", "seed") and value is not None:
                assert f"(default {value})" in helps[dest], (command, dest, value)
        code, out, _ = run(capsys, command, "--help")
        assert code == 0 and out.startswith(f"usage: planarcrit {command}")


# ---------------------------------------------------------------------------
# The report's Poisson control and argument surfaces of the subcommands
# ---------------------------------------------------------------------------

_REPORT_CHECKS = ["intensity_all", "intensity_e", "intensity_s", "k2_limit",
                  "repulsion_factor", "poisson_control"]


def test_report_poisson_control_costs_the_same_at_every_scale(monkeypatch):
    # The control is sized in the model's length unit 1/k_eff, so it expects
    # lam (20 / k_eff)^2 = 36.8 points per realization at every wave number.
    # A window fixed in absolute units would draw about 3 680 at k = 10, and
    # at k = 1e10 a Poisson mean that numpy's sampler refuses.  At k = 1e-3
    # a ball grid whose end slack was absolute lost its last row and column.
    drawn = []
    reduce = estimators._reduce

    def counting(locations, *args):
        drawn.append(len(locations))
        return reduce(locations, *args)

    monkeypatch.setattr(estimators, "_reduce", counting)
    controls = []
    for k in (1.0, 1e-3, 10.0, 1e10):
        drawn.clear()
        rows = {row[0]: row for row in cli._report_checks(RandomWave(k), 1, "small", 1)}
        assert len(drawn) == 100 and np.mean(drawn) < 60, k
        controls.append(rows["poisson_control"])
    for row in controls[1:]:
        assert row[0] == "poisson_control"
        for got, want in zip(row[1:], controls[0][1:]):
            assert math.isclose(got, want, rel_tol=1e-12), (row, controls[0])


def test_report_at_a_huge_wave_number_passes(capsys):
    code, out, err = run(capsys, "report", "--model", "randomwave", "--k", "1e10",
                         "--budget", "small", "--seed", "1", "--format", "csv")
    assert code == 0 and err == ""
    _, rows = parse_csv(out)
    assert [r["check"] for r in rows] == _REPORT_CHECKS
    assert all(r["status"] == "PASS" for r in rows)


def test_report_output_file_defaults_to_csv(tmp_path, capsys):
    target = tmp_path / "report.out"
    code, out, err = run(capsys, "report", *_RW, "--budget", "small", "--seed", "1",
                         "-o", str(target))
    assert code == 0 and out == "" and err == ""
    header, rows = parse_csv(target.read_text())
    assert header == ["check", "theory", "estimate", "std_error", "tolerance", "status"]
    assert [r["check"] for r in rows] == _REPORT_CHECKS


@pytest.mark.parametrize("flags, message", [
    (("--r-min", "0.05", "--r-max", "0.05"), "need r-min < r-max, got (0.05, 0.05)"),
    (("--r-min", "0.1", "--r-max", "0.05"), "need r-min < r-max, got (0.1, 0.05)"),
    (("--points", "3"), "a scaling fit needs at least 4 points, got 3"),
])
def test_scaling_grid_errors_exit_1(capsys, flags, message):
    code, out, err = run(capsys, "scaling", *_RW, "--seed", "1", *flags)
    assert code == 1 and out == ""
    assert err == f"planarcrit: error: {message}\n"


@pytest.mark.parametrize("what, message", [
    ("two-point", "two-point needs --r with at least one distance"),
    ("ball", "ball needs --rho-list with at least one radius"),
])
def test_kacrice_route_without_its_points_exits_1(capsys, what, message):
    code, out, err = run(capsys, "kacrice", *_RW, "--seed", "1", "--what", what)
    assert code == 1 and out == ""
    assert err == f"planarcrit: error: {message}\n"


def test_ball_below_the_distance_floor_exits_2(capsys):
    code, out, err = run(capsys, "kacrice", *_RW, "--seed", "1", "--what", "ball",
                         "--rho-list", "1e-5", "--nsamples", "100")
    assert code == 2 and out == ""
    assert err.startswith("planarcrit: degeneracy: quadrature range is empty: rho = 1e-05 ")


@pytest.mark.parametrize("radii", ["0.5, 1.0", "0.5 1.0", "0.5,1.0"])
def test_config_list_and_choice_give_the_bytes_of_the_flags(tmp_path, capsys, radii):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"model.family = randomwave\nmodel.k = 1\nwhat = ball\nrho-list = {radii}\n")
    tail = ("--seed", "1", "--nsamples", "100")
    code, from_config, err = run(capsys, "kacrice", "--config", str(cfg), *tail)
    assert code == 0 and err == ""
    code, from_flags, _ = run(capsys, "kacrice", *_RW, *tail, "--what", "ball",
                              "--rho-list", "0.5", "1.0")
    assert code == 0 and from_config == from_flags
    assert [r["rho"] for r in parse_csv(from_flags)[1]] == ["0.5", "1"]


def test_config_choice_outside_its_choices_exits_1(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model.family = randomwave\nmodel.k = 1\nwhat = bogus\n")
    code, out, err = run(capsys, "kacrice", "--config", str(cfg), "--seed", "1")
    assert code == 1 and out == ""
    assert err == ("planarcrit: error: what = 'bogus'; expected one of "
                   "one-point, two-point, ball\n")


def test_find_without_window_size_takes_the_default_window(capsys):
    code, out, err = run(capsys, "find", *_RW, "--seed", "3", "--size", "16",
                         "--format", "json")
    assert code == 0 and err == ""
    assert json.loads(out)["meta"]["window"] == [[0.0, 40.0], [0.0, 40.0]]
