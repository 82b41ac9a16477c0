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

from planarcrit import cli, estimators, theory
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


def test_estimate_rejects_unknown_kind_before_sweeping(capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("swept before checking --kind")

    monkeypatch.setattr(estimators, "sweep", no_sweep)
    code, out, err = run(capsys, "estimate", "--model", "randomwave", "--k", "1",
                         "--seed", "11", "--nreal", "4", "--kind", "bogus")
    assert code == 1 and out == ""
    assert "unknown critical-point kind" in err


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
