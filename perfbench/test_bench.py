"""Tests of the benchmark's own code: python3 -m pytest perfbench"""

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import calibration  # noqa: E402
import planarcrit.cli as cli  # noqa: E402
import pytest  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_metric_and_workload_names_follow_the_contract():
    names = [m.name for m in workloads.END_TO_END + workloads.PER_LAYER]
    names += list(workloads.WORKLOADS)
    assert len(set(names)) == len(names)
    for name in names:
        assert workloads.NAME_RE.fullmatch(name), name
    for m in workloads.END_TO_END + workloads.PER_LAYER:
        assert m.better in ("lower", "higher")


def test_end_to_end_metrics_carry_bounds_and_setup_s():
    for m in workloads.END_TO_END:
        assert 0 < m.bound <= 0.25 and m.moves is None
    setup = [m for m in workloads.END_TO_END if m.name == "setup_s"]
    assert setup and setup[0].unit == "s" and setup[0].better == "lower"
    assert setup[0].bound == max(m.bound for m in workloads.END_TO_END)


def test_each_layer_metric_names_what_it_should_move():
    e2e = {m.name for m in workloads.END_TO_END}
    for m in workloads.PER_LAYER:
        target, on = m.moves
        assert target in e2e, m.name
        assert on and set(on) <= set(workloads.WORKLOADS), m.name
        assert m.bound is None


def test_layer_values_cover_the_per_layer_table():
    computed = set(tracing.layer_values({})) | {"wnv", "trace.overhead_frac"}
    assert computed == {m.name for m in workloads.PER_LAYER}


def test_benchmark_json_matches_the_tables():
    committed = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert committed == workloads.spec()


def _nested_calls(tracer):
    def leaf(x):
        return sum(range(x))

    traced_leaf = tracer.wrap("leaf", leaf)

    def mid(x):
        return traced_leaf(x) + traced_leaf(2 * x)

    traced_mid = tracer.wrap("mid", mid)
    return tracer.root(0, lambda: [traced_mid(n) for n in range(1, 200)])


def _assert_self_within_total(totals):
    for layer, agg in totals.items():
        assert 0.0 <= agg["self_s"] <= agg["total_s"] + 1e-12, layer


def test_self_time_never_exceeds_total_time_synthetic():
    tracer = tracing.Tracer()
    _nested_calls(tracer)
    totals = tracing.layer_totals(tracer.spans)
    assert totals["mid"]["calls"] == 199 and totals["leaf"]["calls"] == 398
    _assert_self_within_total(totals)
    self_sum = sum(agg["self_s"] for agg in totals.values())
    assert self_sum == pytest.approx(totals["cli"]["total_s"], rel=1e-9)


def test_traced_cli_call_keeps_bytes_and_self_time_within_total():
    argv = ["report", "--model", "randomwave", "--k", "1", "--budget", "small",
            "--format", "csv", "--seed", "3"]

    def call(tracer=None):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = tracer.root(0, cli.main, argv) if tracer else cli.main(argv)
        assert code == 0
        return out.getvalue()

    plain = call()
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = call(tracer)
    assert traced == plain
    totals = tracing.layer_totals(tracer.spans)
    _assert_self_within_total(totals)
    assert totals["kacrice.sample"]["calls"] > 0
    assert workloads._check_report(plain)
    values = tracing.layer_values(totals)
    assert values["kacrice.quadrature.nodes"] == 48
    assert values["sampling.eval_many.calls"] == 0


def test_installed_restores_every_call_site():
    before = []
    for module, attr, *_ in tracing.CALL_SITES:
        owner, name = tracing._resolve(module, attr)
        before.append(owner.__dict__[name])
    with tracing.installed(tracing.Tracer()):
        pass
    after = []
    for module, attr, *_ in tracing.CALL_SITES:
        owner, name = tracing._resolve(module, attr)
        after.append(owner.__dict__[name])
    assert after == before


def test_checks_reject_wrong_outputs():
    with pytest.raises(workloads.CheckError):
        workloads._check_report("check,theory,estimate,std_error,tolerance,status\n"
                                + "".join(f"{name},1,1,0.1,0.5,PASS\n"
                                          for name in workloads.REPORT_CHECKS[:-1])
                                + "poisson_control,1,2,0.1,0.5,FAIL\n")
    with pytest.raises(workloads.CheckError):
        workloads._check_report("check,theory,estimate,std_error,tolerance,status\n"
                                "intensity_all,1,1,0.1,0.5,PASS\n")
    with pytest.raises(workloads.CheckError):
        workloads._check_ee_exponent("label,rho,value,std_error,nsamples\n"
                                     "fit(e,e),nan,3.5,0.1,5\n")
    with pytest.raises(workloads.CheckError):
        workloads._check_intensity("label,rho,value,std_error,nsamples\nc,nan,0.2,0.001,12\n"
                                   + "(c,c),0.5,0.01,0.001,12\n" * 4)


def test_workload_inputs_depend_only_on_the_seed():
    for w in workloads.WORKLOADS.values():
        assert w.ops(7) == w.ops(7)
        assert w.ops(7) != w.ops(8)


def test_probes_leave_output_alone_and_give_reference_times():
    argvs = [["scaling", "--model", "randomwave", "--k", "1", "--r-min", "0.01",
              "--r-max", "0.05", "--points", "4", "--nsamples", "400000", "--seed", "5",
              "--pair", "ee"]]
    plain = run._job(cli, argvs)
    probe = calibration.Probe()
    probed = run._job(cli, argvs, probe=probe)
    assert plain["results"][0][0] == 0
    assert probed["results"] == plain["results"]
    assert probed["probes"] == len(probe.samples) >= 2
    assert 0.0 < probed["wall_s"] and 0.0 < probed["cpu_s"]
    scale_wall, _ = probe.scale()
    assert probed["wall_ref_s"] == pytest.approx(probed["wall_s"] * scale_wall)
