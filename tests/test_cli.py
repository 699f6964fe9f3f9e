import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bernshift import Configuration, FactorMap, ball, bit_alphabet, cli, sample, star_base, to_coset_config, uniform
from bernshift.cli import dispatch
from bernshift.factormaps import parse_map_spec


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def run_cli_strict(capsys, *argv):
    """Like run_cli, but stdout must be strict JSON: no NaN or Infinity."""
    code = dispatch(list(argv))
    return code, json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)


def test_verify_exact_passes(capsys):
    code, data = run_cli(capsys, "verify", "exact", "--map", "ow", "--rin", "1", "--rout", "0")
    assert code == 0
    assert data["verdict"] == "pass" and data["max_deviation"] == 0.0


def test_verify_equivariance(capsys):
    code, data = run_cli(
        capsys, "verify", "equivariance", "--map", "timar:2", "-r", "4", "--trials", "50", "--seed", "3"
    )
    assert code == 0 and data["failures"] == 0


def test_verify_cocycle(capsys):
    code, data = run_cli(capsys, "verify", "cocycle", "--trials", "200", "--seed", "4")
    assert code == 0 and data["verdict"] == "pass"


def test_verify_jroundtrip(capsys):
    code, data = run_cli(
        capsys, "verify", "jroundtrip", "-r", "3", "--trials", "50", "--seed", "5"
    )
    assert code == 0
    assert data["roundtrip"]["verdict"] == "pass"
    assert data["pushforward"]["max_deviation"] == 0.0


def test_verify_mc_smoke(capsys):
    code, data = run_cli(
        capsys,
        "verify", "mc", "--map", "star:0.25", "--rin", "8", "--rout", "0",
        "-N", "5000", "--seed", "6", "--dist", "star:0.25", "--threshold", "0.05",
    )
    assert code == 0 and data["verdict"] == "pass"
    assert data["seed"] == 6 and data["threshold"] == 0.05


def test_entropy_shannon(capsys):
    code, data = run_cli(capsys, "entropy", "shannon", "0.5", "0.5")
    assert code == 0
    assert abs(data["H"] - 0.6931471805599453) < 1e-15


def test_entropy_solve_p_boundary_is_usage_error(capsys):
    code, data = run_cli(capsys, "entropy", "solve-p", "0.6931471805599453")
    assert code == 2
    assert "error" in data


def test_entropy_recursion_trace(capsys):
    code, data = run_cli(capsys, "entropy", "recursion", "0.5")
    assert code == 0
    assert data["steps"] == 2 and data["terminated"] is True
    assert list(data) == ["H", "p", "terminated", "steps"]


def test_map_apply_from_file(capsys, tmp_path):
    x = sample(uniform(bit_alphabet(1)), ball(2), 9)
    path = tmp_path / "x.json"
    path.write_text(json.dumps(x.to_json()))
    code, data = run_cli(capsys, "map", "ow", "--input", str(path))
    assert code == 0
    assert data["map"]["window_cost"] == 1
    assert data["output_defined"] == len(ball(1))
    assert data["output"]["alphabet"] == "U4"


def test_map_sampled_star_reports_truncation(capsys):
    code, data = run_cli(capsys, "map", "star:0.25", "--sample-radius", "3", "--seed", "10")
    assert code == 0
    assert data["map"]["window_cost"] == "unbounded_lookahead"
    assert data["truncation_count"] >= 0


def test_map_counts_truncation_only_at_sites_the_input_defines(capsys, tmp_path):
    x = sample(star_base(0.25), ball(3), 16)
    holes = [None if i % 5 == 0 else v for i, v in enumerate(x.values)]
    path = tmp_path / "x.json"
    path.write_text(json.dumps(Configuration(x.alphabet, x.sites, holes).to_json()))
    code, data = run_cli(capsys, "map", "star:0.25", "--input", str(path))
    out = data["output"]["values"]
    assert code == 0
    assert data["truncation_count"] == sum(1 for v, w in zip(holes, out) if v is not None and w is None)
    assert data["truncation_count"] < sum(1 for w in out if w is None)


@pytest.mark.parametrize("p", [0.1, 0.4])
def test_map_sampled_star_draws_from_the_star_law(capsys, p):
    code, data = run_cli(capsys, "map", f"star:{p}", "--sample-radius", "6", "--seed", "12", "--emit-output")
    assert code == 0
    values = data["output"]["values"]
    star_freq = sum(1 for v in values if v == 4) / len(values)
    assert abs(star_freq - (1 - 2 * p)) < 0.04


@pytest.mark.parametrize(
    "argv",
    [
        ("map", "star:0.6", "--sample-radius", "2"),
        ("verify", "mc", "--map", "star:nan", "--rin", "4", "--rout", "0", "-N", "100"),
        ("verify", "equivariance", "--map", "star:0", "--trials", "1"),
    ],
)
def test_star_p_outside_its_domain_is_usage_error(capsys, argv):
    code, data = run_cli(capsys, *argv)
    assert code == 2
    assert data["error"]["code"] == "ValueError" and "1/2" in data["error"]["message"]


@pytest.mark.parametrize(
    "argv, error",
    [
        (("verify", "cocycle", "--trials", "-3"), "ValueError"),
        (("verify", "cocycle", "--trials", "0"), "ValueError"),
        (("verify", "equivariance", "--map", "ow", "--trials", "0"), "ValueError"),
        (("verify", "jroundtrip", "-r", "2", "--trials", "0"), "ValueError"),
        (("verify", "equivariance", "--map", "timar:3", "-r", "2", "--trials", "50"), "InsufficientRadius"),
        (("verify", "equivariance", "--map", "ow", "-r", "0", "--trials", "50"), "InsufficientRadius"),
    ],
)
def test_property_runs_that_could_not_fail_are_usage_errors(capsys, argv, error):
    code, data = run_cli(capsys, *argv)
    assert code == 2
    assert data["error"]["code"] == error


class _NoBatchMap(FactorMap):
    """A bounded map with no batch evaluation."""

    name = "no_batch"
    input_alphabet = output_alphabet = bit_alphabet(1)
    window_cost = 0


def test_verify_exact_on_a_map_without_batch_evaluation_is_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(cli, "parse_map_spec", lambda spec: _NoBatchMap())
    code, data = run_cli(capsys, "verify", "exact", "--map", "no_batch", "--rin", "2", "--rout", "1")
    assert code == 2
    assert data["error"]["code"] == "NotImplementedError"


# every name of the README's map list, on a window it admits: (r_in, r_out);
# Monte Carlo runs take r_out = 0, where 4000 samples give a threshold < 1
_EVERY_MAP = {
    "ow": (2, 1),
    "timar:2": (2, 0),
    "star:0.25": (8, 0),
    "swap": (2, 1),
    "identity": (2, 1),
    "project:2:1": (1, 1),
    "coinduced:identity": (2, 1),
    "coinduced:swap": (2, 1),
}
# unbounded lookahead has no exact window
_REFUSED = {("exact", "star:0.25")}


@pytest.mark.parametrize("spec", list(_EVERY_MAP))
@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_every_listed_map_reports_or_refuses_in_every_engine(capsys, mode, spec):
    r_in, r_out = _EVERY_MAP[spec]
    argv = ["verify", mode, "--map", spec, "--rin", str(r_in)]
    if mode == "exact":
        argv += ["--rout", str(r_out)]
    else:
        argv += ["--rout", "0", "-N", "4000", "--seed", "17"]
    code, data = run_cli(capsys, *argv)
    if (mode, spec) in _REFUSED:
        assert code == 2 and set(data) == {"error"}
    else:
        assert code == 0 and data["verdict"] == "pass" and data["map"] == parse_map_spec(spec).name


def test_map_without_input_is_usage_error(capsys):
    code, data = run_cli(capsys, "map", "ow")
    assert code == 2 and data["error"]["code"] == "usage"


def test_unknown_map_is_usage_error(capsys):
    code, data = run_cli(capsys, "verify", "exact", "--map", "nope", "--rin", "1", "--rout", "0")
    assert code == 2


def test_coinduce_cocycle(capsys):
    code, data = run_cli(capsys, "coinduce", "cocycle", "a", "e")
    assert code == 0 and data["a_power"] == 1


def test_coinduce_J_roundtrip_through_json(capsys, tmp_path):
    x = sample(uniform(bit_alphabet(1)), ball(2), 11)
    cfg = tmp_path / "x.json"
    cfg.write_text(json.dumps(x.to_json()))
    code, split = run_cli(capsys, "coinduce", "J", "--input", str(cfg))
    assert code == 0 and split["window"] == 2
    split_path = tmp_path / "y.json"
    split_path.write_text(json.dumps(split))
    code, merged = run_cli(capsys, "coinduce", "Jinv", "--input", str(split_path))
    assert code == 0
    back = Configuration.from_json(merged)
    for w in x.sites:
        assert back.value_at(w) == x.value_at(w)


def test_coinduce_Jinv_lists_only_the_sites_that_hold_a_value(capsys, tmp_path):
    x = sample(uniform(bit_alphabet(1)), ball(1), 3)
    split = to_coset_config(x).to_json()
    assert len(split["cosets"]) * len(split["values"][0]) == 9
    path = tmp_path / "y.json"
    path.write_text(json.dumps(split))
    code, merged = run_cli(capsys, "coinduce", "Jinv", "--input", str(path))
    assert code == 0 and merged == x.to_json() and len(merged["sites"]) == 5


@pytest.mark.parametrize("window", [-1, -3, 1.5, True, "1"])
def test_coinduce_Jinv_refuses_a_window_that_is_no_nonnegative_integer(capsys, tmp_path, window):
    path = tmp_path / "y.json"
    path.write_text(json.dumps({"alphabet": "U2", "cosets": ["e"], "window": window, "values": [[0, 1, 0]]}))
    code, data = run_cli(capsys, "coinduce", "Jinv", "--input", str(path))
    message = f"window must be a nonnegative integer, got {window!r}"
    assert code == 2 and data == {"error": {"code": "ValueError", "message": message}}


@pytest.mark.parametrize("tool", [("act", "b"), ("Jinv",)])
@pytest.mark.parametrize("symbol", [7, -3, 2])
def test_coinduce_refuses_a_symbol_outside_the_alphabet(capsys, tmp_path, tool, symbol):
    # U2's symbols are 0 and 1; null, not -1, marks an undefined slot in JSON
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"alphabet": "U2", "cosets": ["e", "b"], "window": 1,
                                "values": [[0, symbol, None], [1, 0, 1]]}))
    code, data = run_cli_strict(capsys, "coinduce", *tool, "--input", str(path))
    message = f"symbol index {symbol} out of range for U2"
    assert code == 2 and data == {"error": {"code": "ValueError", "message": message}}


@pytest.mark.parametrize("symbol", [256, -129, 2**31])
def test_coinduce_j_refuses_a_symbol_that_would_wrap_in_int8(capsys, tmp_path, symbol):
    # U2 stores int8 indices: 256 and -129 would wrap to 0 and 127 if cast before the check
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"alphabet": "U2", "sites": ["e", "a", "b"], "values": [0, symbol, 1]}))
    code, data = run_cli_strict(capsys, "coinduce", "J", "--input", str(path))
    message = f"symbol index {symbol} out of range for U2"
    assert code == 2 and data == {"error": {"code": "ValueError", "message": message}}


def test_coinduce_act(capsys, tmp_path):
    x = sample(uniform(bit_alphabet(1)), ball(2), 12)
    cfg = tmp_path / "x.json"
    cfg.write_text(json.dumps(x.to_json()))
    _, split = run_cli(capsys, "coinduce", "J", "--input", str(cfg))
    split_path = tmp_path / "y.json"
    split_path.write_text(json.dumps(split))
    code, moved = run_cli(capsys, "coinduce", "act", "a", "--input", str(split_path))
    assert code == 0
    # the home coset row shifts by one a-power
    assert moved["values"][0][1:] == split["values"][0][:-1]


def test_pipeline_plan_and_run(capsys, tmp_path):
    code, plan = run_cli(capsys, "pipeline", "plan", "--H0", "0.6")
    assert code == 0
    assert plan["ledger_issues"] == []
    assert [s["map"] for s in plan["stages"]] == ["star"]
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({k: v for k, v in plan.items() if k != "ledger_issues"}))
    code, run = run_cli(
        capsys, "pipeline", "run", "--plan", str(plan_path), "--radius", "5", "--seed", "13"
    )
    assert code == 0
    assert run["stages"][0]["defined_after"] > 0


def test_pipeline_plan_h0_above_log2_is_empty(capsys):
    code, plan = run_cli(capsys, "pipeline", "plan", "--H0", "0.75")
    assert code == 0 and plan["stages"] == [] and plan["terminated"] is True


@pytest.mark.parametrize(
    "argv, error",
    [
        (("entropy", "shannon", "nan"), "ValueError"),
        (("entropy", "shannon", "inf", "1"), "ValueError"),
        (("entropy", "recursion", "nan"), "OutOfRange"),
        (("entropy", "recursion", "inf"), "OutOfRange"),
        (("entropy", "recursion", "0.5", "--max-steps", "-1"), "ValueError"),
        (("pipeline", "plan", "--H0", "inf"), "OutOfRange"),
        (("pipeline", "plan", "--H0", "0.75", "--max-steps", "-1"), "ValueError"),
    ],
)
def test_non_finite_entropies_and_negative_step_budgets_are_usage_errors(capsys, argv, error):
    code, data = run_cli_strict(capsys, *argv)
    assert code == 2 and data["error"]["code"] == error


def test_a_report_holding_a_non_finite_number_is_refused_as_strict_json(capsys, monkeypatch):
    # a NaN that slips past validation fails the emit instead of reaching stdout
    monkeypatch.setattr(cli, "shannon", lambda weights: math.nan)
    code, data = run_cli_strict(capsys, "entropy", "shannon", "0.5", "0.5")
    assert code == 2 and data["error"]["code"] == "ValueError"


def test_pipeline_run_external_plan_fails_cleanly(capsys, tmp_path):
    code, plan = run_cli(capsys, "pipeline", "plan", "--H0", "0.3")
    assert any(s["map"] == "external" for s in plan["stages"])
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({k: v for k, v in plan.items() if k != "ledger_issues"}))
    code, err = run_cli(
        capsys, "pipeline", "run", "--plan", str(plan_path), "--radius", "4", "--seed", "14"
    )
    assert code == 2 and err["error"]["code"] == "ExternalStageUnresolved"


def test_byte_identical_reports_for_same_seed(capsys):
    argv = ["verify", "mc", "--map", "ow", "--rin", "2", "--rout", "0", "-N", "5000", "--seed", "21"]
    dispatch(argv)
    first = capsys.readouterr().out
    dispatch(argv)
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf", "0", "-0.5"])
def test_verify_mc_threshold_that_is_not_positive_and_finite_is_usage_error(capsys, threshold):
    argv = ("verify", "mc", "--map", "ow", "--rin", "2", "--rout", "0", "-N", "5000", f"--threshold={threshold}")
    code, data = run_cli_strict(capsys, *argv)
    assert code == 2 and data["error"]["code"] == "ValueError" and "threshold" in data["error"]["message"]


def test_verify_mc_negative_input_radius_is_usage_error(capsys):
    argv = ("verify", "mc", "--map", "star:0.25", "--dist", "star:0.25", "--rin", "-1", "--rout", "0",
            "-N", "2000", "--seed", "1")
    code, data = run_cli_strict(capsys, *argv)
    assert code == 2 and data == {"error": {"code": "ValueError", "message": "radius must be nonnegative"}}


def test_verify_mc_enumeration_cap_gives_the_pattern_count_in_power_form(capsys):
    argv = ("verify", "mc", "--map", "star:0.25", "--dist", "star:0.25", "--rin", "3", "--rout", "5", "-N", "1000")
    code, data = run_cli_strict(capsys, *argv)
    assert code == 2 and data["error"]["code"] == "EnumerationTooLarge"
    assert data["error"]["message"].startswith("5^485 output patterns exceed cap")


def test_verify_mc_threshold_of_one_or_more_withholds(capsys):
    argv = ("verify", "mc", "--map", "ow", "--rin", "2", "--rout", "0", "-N", "5000", "--threshold", "1.5")
    code, data = run_cli_strict(capsys, *argv)
    assert code == 1 and data["verdict"] == "withheld" and data["threshold"] == 1.5


def test_verify_mc_withholds_when_truncation_reaches_the_threshold(capsys):
    argv = ("verify", "mc", "--map", "star:0.25", "--rin", "1", "--rout", "0", "-N", "20000", "--seed", "3")
    code, data = run_cli_strict(capsys, *argv)
    assert code == 1 and data["verdict"] == "withheld"
    assert data["truncation_rate"] >= data["threshold"]


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "exact", "--map", "ow", "--rin", "2", "--rout", "1"),
        ("verify", "mc", "--map", "ow", "--rin", "2", "--rout", "0", "-N", "2000"),
        ("verify", "jroundtrip", "-r", "2", "--trials", "2"),
        ("selftest", "--seed", "1"),
    ],
)
@pytest.mark.parametrize("threads", ["0", "-1"])
def test_fewer_than_one_thread_is_usage_error(capsys, argv, threads):
    code, data = run_cli_strict(capsys, *argv, "--threads", threads)
    assert code == 2 and data["error"]["code"] == "ValueError" and "thread" in data["error"]["message"]


_SITES_E_A = {"alphabet": "U2", "sites": ["e", "a"]}


@pytest.mark.parametrize(
    "argv, data",
    [
        (("map", "swap", "--input"), {**_SITES_E_A, "values": [0, 1, 1]}),
        (("map", "swap", "--input"), {**_SITES_E_A, "values": [0]}),
        (("map", "swap", "--input"), {**_SITES_E_A, "values": [1.5, 0]}),
        (("map", "swap", "--input"), {**_SITES_E_A, "values": [True, 0]}),
        (("coinduce", "J", "--input"), {**_SITES_E_A, "values": 5}),
        (("coinduce", "act", "a", "--input"), {"alphabet": "U2", "cosets": ["e"], "window": "x", "values": [[0]]}),
        (("pipeline", "run", "--radius", "2", "--plan"), {"H0": 0.5, "stages": 5, "entropy_ledger": [],
                                                          "terminated": False}),
        (("pipeline", "run", "--radius", "2", "--plan"), {"H0": 0.5, "entropy_ledger": [0.6], "terminated": True,
                                                          "stages": [{"map": 5, "input_weights": [0.25, 0.25, 0.5]}]}),
        (("pipeline", "run", "--radius", "2", "--plan"), {"H0": 0.5, "entropy_ledger": [0.6], "terminated": True,
                                                          "stages": [{"map": "star:0.25",
                                                                      "input_weights": [math.nan, 0.5, 0.5]}]}),
    ],
)
def test_malformed_json_input_is_usage_error(capsys, tmp_path, argv, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code, out = run_cli_strict(capsys, *argv, str(path))
    assert code == 2 and out["error"]["code"] == "ValueError"


def test_stdout_closed_before_the_report_is_written_exits_1_without_traceback():
    # ball(8) has 13121 sites: the emitted configuration outgrows a 64 KiB pipe buffer
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    argv = [sys.executable, "-m", "bernshift", "map", "ow", "--sample-radius", "8", "--emit-output"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert b"Traceback" not in stderr, stderr.decode()
