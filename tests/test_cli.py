"""Unit tests for the command-line interface (exit codes, formats, flags)."""

import argparse
import json
import math
import re
import textwrap
from pathlib import Path

import pytest

from edgeprovision import cli, geomsim
from edgeprovision.analytic import (
    _CLOSED_FORMS,
    AirInterface,
    DeploymentConfig,
    InferenceWorkload,
    Scenario,
)
from edgeprovision.cli import main
from edgeprovision.experiments import (
    CSV_HEADER,
    METRICS,
    SweepSpec,
    load_spec,
    parse_csv,
    run_sweep,
)
from edgeprovision.geomsim import run_validation

pytestmark = pytest.mark.filterwarnings("ignore:window holds only")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_sweep_spec(tmp_path, simulate: bool = False):
    path = tmp_path / "spec.yaml"
    text = textwrap.dedent(
        """
        deployment: {lambda_ap: 1.0, lambda_dev: 1.0}
        workload: {q: 1.0e6, d_t: 0.06, d_c: 0.01, m_c: 1.0}
        air: {b: 1.6e8}
        sweep:
          axis: lambda_hat
          grid: [0.5, 1.0, 2.0]
          outputs: [avg_mse, cloud_use_prob]
        """
    )
    if simulate:
        text += "  simulate: true\n  sim: {trials: 60, window_radius: 4.0, seed: 3}\n"
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# scalar subcommands
# ---------------------------------------------------------------------------


def test_avg_mse_equal_models_collapses(capsys):
    code, out, _ = run_cli(capsys, "avg-mse", "--mc", "1.0", "--md", "1.0", "--json")
    assert code == 0
    assert json.loads(out) == {"avg_mse": 1.0}


def test_avg_mse_human_output(capsys):
    code, out, _ = run_cli(capsys, "avg-mse", "--rmin", "0.5", "--lambda-hat", "1.28")
    assert code == 0
    assert out.startswith("avg_mse = 1.272030936")


def test_critical_density_json_key(capsys):
    code, out, _ = run_cli(capsys, "critical-density", "--rmin", "1", "--mt", "1.3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"lambda_c"}
    assert payload["lambda_c"] == pytest.approx(8.885272668618394, rel=1e-6)


def test_critical_edge_mse(capsys):
    code, out, _ = run_cli(
        capsys, "critical-edge-mse", "--rmin", "0.5", "--lambda-hat", "1.28", "--mt", "1.2", "--json"
    )
    assert code == 0
    assert json.loads(out)["critical_edge_mse"] == pytest.approx(1.3676052489742913, rel=1e-6)


def test_delay_cdf_and_cloud_prob_agree_at_budget(capsys):
    args = ["--rmin", "0.125", "--dt", "0.06", "--dc", "0.01"]
    code1, out1, _ = run_cli(capsys, "delay-cdf", *args, "--d", "0.06", "--json")
    code2, out2, _ = run_cli(capsys, "cloud-prob", *args, "--json")
    assert code1 == code2 == 0
    assert json.loads(out1)["delay_cdf_at"] == pytest.approx(
        json.loads(out2)["cloud_use_prob"], rel=1e-12
    )


def test_asymptotic_mse_command(capsys):
    code, out, _ = run_cli(capsys, "asymptotic-mse", "--rmin", "1", "--json")
    assert code == 0
    assert json.loads(out)["asymptotic_mse"] == pytest.approx(1.2720309361170019, rel=1e-9)


# (flags, scenario they resolve to, --mt, --d): two scenarios, every flag given
CLOSED_FORM_CASES = [
    (
        ["--lambda-ap", "1", "--lambda-dev", "1", "--q", "1e6", "--bandwidth", "1.6e8",
         "--dt", "0.06", "--dc", "0.01", "--mc", "1", "--md", "1.5"],
        Scenario(
            DeploymentConfig(1.0, 1.0),
            InferenceWorkload(1e6, 0.06, 0.01, mse_cloud=1.0, mse_edge=1.5),
            AirInterface(1.6e8),
        ),
        1.05,
        0.03,
    ),
    (
        ["--lambda-ap", "3", "--lambda-dev", "0.5", "--q", "0.6", "--bandwidth", "2",
         "--dt", "2", "--dc", "0.5", "--mc", "1.2", "--md", "2", "--snr", "10"],
        Scenario(
            DeploymentConfig(3.0, 0.5),
            InferenceWorkload(0.6, 2.0, 0.5, mse_cloud=1.2, mse_edge=2.0),
            AirInterface(2.0, snr=10.0),
        ),
        1.6,
        1.1,
    ),
]


@pytest.mark.parametrize("flags, scenario, mt, d", CLOSED_FORM_CASES)
def test_closed_form_commands_match_metric_table_and_sweep(capsys, flags, scenario, mt, d):
    # the mse_target axis leaves the scenario as it is
    spec = SweepSpec(
        base=scenario, axis="mse_target", grid=(mt,), outputs=METRICS, delay_query=d
    )
    swept = {row.metric: row.analytic for row in run_sweep(spec).rows}
    commands = cli._CLOSED_FORM_COMMANDS
    assert sorted(metric for metric, *_ in commands.values()) == sorted(METRICS)
    for command, (metric, _, flag, key) in commands.items():
        query = {None: [], "--mt": ["--mt", repr(mt)], "--d": ["--d", repr(d)]}[flag]
        code, out, _ = run_cli(capsys, command, *flags, *query, "--json")
        assert code == 0, command
        value = json.loads(out)[key]
        assert value == _CLOSED_FORMS[metric](scenario, mt, d), command
        assert float(f"{value:.12g}") == swept[metric], command


def test_readme_subcommand_table_matches_parser():
    (subparsers,) = [
        a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("Subcommands:", 1)[1].split("\n\n", 2)[1]
    listed = re.findall(r"^\| `([a-z-]+)[^`]*` \|", table, flags=re.M)
    assert listed == list(subparsers.choices)


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_unknown_flag_exits_2(capsys):
    assert run_cli(capsys, "avg-mse", "--no-such-flag")[0] == 2


def test_snr_flag_rejects_what_is_not_an_snr(capsys):
    code, _, err = run_cli(capsys, "avg-mse", "--snr", "loud")
    assert code == 2
    assert "argument --snr: invalid _snr_type value: 'loud'" in err


@pytest.mark.parametrize("snr", ["inf", " INFINITE ", "1e400"])
def test_snr_flag_reads_infinity_in_any_form(capsys, snr):
    default = run_cli(capsys, "avg-mse", "--json")
    assert run_cli(capsys, "avg-mse", "--json", "--snr", snr) == default


def test_snr_flag_moves_the_closed_forms(capsys):
    # coverage at threshold T carries the noise factor exp(-T/snr)
    noiseless = json.loads(run_cli(capsys, "cloud-prob", "--json")[1])
    noisy = json.loads(run_cli(capsys, "cloud-prob", "--snr", "1", "--json")[1])
    assert noisy["cloud_use_prob"] < noiseless["cloud_use_prob"]


def test_missing_command_exits_2(capsys):
    assert run_cli(capsys)[0] == 2


def test_delay_cdf_requires_query_point(capsys):
    assert run_cli(capsys, "delay-cdf", "--rmin", "1")[0] == 2


def test_inconsistent_rmin_and_q_exits_2(capsys):
    code, _, err = run_cli(capsys, "avg-mse", "--rmin", "1", "--q", "5")
    assert code == 2
    assert "--rmin" in err


def test_consistent_rmin_and_q_accepted(capsys):
    code, _, _ = run_cli(
        capsys, "avg-mse", "--rmin", "2", "--q", "1.0e6",
        "--bandwidth", "1.0e7", "--dt", "0.06", "--dc", "0.01",
    )
    assert code == 0


def test_conflicting_density_flags_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "avg-mse", "--lambda-hat", "2", "--lambda-ap", "1", "--lambda-dev", "1"
    )
    assert code == 2
    assert "lambda" in err


def test_invalid_scenario_value_exits_2(capsys):
    assert run_cli(capsys, "avg-mse", "--mc", "-1")[0] == 2
    assert run_cli(capsys, "avg-mse", "--dt", "0.01", "--dc", "0.06")[0] == 2
    # densities are checked before any ratio is taken
    code, _, err = run_cli(capsys, "avg-mse", "--lambda-hat", "0", "--lambda-ap", "1")
    assert code == 2 and "--lambda-hat must be finite and > 0" in err
    code, _, err = run_cli(
        capsys, "avg-mse", "--lambda-hat", "1", "--lambda-ap", "1", "--lambda-dev", "0"
    )
    assert code == 2 and "lambda_dev must be finite and > 0" in err
    # --rmin is checked before it is compared with --q
    for rmin in ("nan", "inf"):
        code, out, err = run_cli(capsys, "avg-mse", "--rmin", rmin, "--q", "5")
        assert (code, out) == (2, "") and f"--rmin must be finite and > 0 (got {rmin})" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--trials", "0"], "trials must be an integer in [1, 10000000] (got 0)"),
        (["validate", "--trials", "-5"], "trials must be an integer in [1, 10000000] (got -5)"),
        (["simulate", "--trials", "2", "--workers", "0"], "workers must be an integer >= 1 (got 0)"),
        (["validate", "--trials", "2", "--workers", "-1"], "workers must be an integer >= 1 (got -1)"),
        (["sweep", "--workers", "0"], "workers must be an integer >= 1 (got 0)"),
    ],
    ids=["simulate-trials", "validate-trials", "simulate-workers", "validate-workers",
         "sweep-workers"],
)
def test_nonpositive_trials_or_workers_exit_2(capsys, tmp_path, argv, message):
    # the library's rule, not an argparse type, rejects them
    if argv[0] == "sweep":
        argv = [*argv, "--spec", str(write_sweep_spec(tmp_path))]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_oversized_trial_exits_2(capsys):
    # 1.5e11 expected devices in the auto window: rejected before any draw
    code, out, err = run_cli(
        capsys, "simulate", "--lambda-ap", "1", "--lambda-dev", "1e9", "--trials", "1"
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: lambda_ap, lambda_dev and window_radius give 1.5e+11 expected APs and "
        "devices per trial; at most 1000000 are allowed\n"
    )


def test_infeasible_target_exits_3_and_reports_floor(capsys):
    code, _, err = run_cli(capsys, "critical-density", "--rmin", "1", "--mt", "1.02")
    assert code == 3
    assert "asymptotic" in err
    assert "1.27203" in err  # tells the caller where the feasibility floor is


def test_missing_spec_file_exits_4(capsys):
    code, _, err = run_cli(capsys, "sweep", "--spec", "/nonexistent/path.yaml")
    assert code == 4
    assert "No such file" in err


def test_bad_spec_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("workload: {q: -5}\n", encoding="utf-8")
    assert run_cli(capsys, "sweep", "--spec", str(path))[0] == 2


def test_spec_with_unusable_inference_rate_exits_2_naming_its_keys(capsys, tmp_path):
    path = tmp_path / "rate.yaml"
    path.write_text(
        textwrap.dedent(
            """\
            deployment: {lambda_ap: 1.0, lambda_dev: 1.0}
            workload: {q: 1.0e+300, d_t: 0.06, d_c: 0.01, m_c: 1.0, m_d: -1}
            air: {b: 1.0e-300}
            sweep: {axis: lambda_hat, grid: [1.0], outputs: [avg_mse]}
            """
        ),
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "sweep", "--spec", str(path))
    assert code == 2 and out == ""
    assert "workload: mse_edge must be finite" in err
    assert "derived inference rate workload.q / (air.b *" in err


# ---------------------------------------------------------------------------
# seeds
# ---------------------------------------------------------------------------


def test_env_seed_used_when_flag_absent(capsys, monkeypatch):
    monkeypatch.setenv("EDGEPROVISION_SEED", "123")
    code, out, _ = run_cli(
        capsys, "simulate", "--rmin", "0.125", "--dt", "0.06", "--dc", "0.01",
        "--trials", "30", "--window-radius", "4", "--json",
    )
    assert code == 0
    assert json.loads(out)["seed"] == 123


def test_seed_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("EDGEPROVISION_SEED", "123")
    code, out, _ = run_cli(
        capsys, "simulate", "--rmin", "0.125", "--dt", "0.06", "--dc", "0.01",
        "--trials", "30", "--window-radius", "4", "--seed", "55", "--json",
    )
    assert code == 0
    assert json.loads(out)["seed"] == 55


def test_invalid_env_seed_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("EDGEPROVISION_SEED", "not-a-number")
    code, _, err = run_cli(
        capsys, "simulate", "--rmin", "0.125", "--dt", "0.06", "--dc", "0.01",
        "--trials", "30", "--window-radius", "4",
    )
    assert code == 2
    assert "EDGEPROVISION_SEED" in err


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_seed_out_of_range_exit_2(capsys, seed):
    # seeds are not wrapped to 64 bits: -1 would replay 2**64 - 1
    for command in ("simulate", "validate"):
        code, _, err = run_cli(capsys, command, "--trials", "2", "--seed", seed)
        assert code == 2
        assert "master_seed" in err and "2**64" in err


def test_trials_above_limit_exit_2(capsys):
    for command in ("simulate", "validate"):
        code, _, err = run_cli(capsys, command, "--trials", "10000001")
        assert code == 2
        assert "10000000" in err


def test_simulate_auto_window_holds_150_aps(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--lambda-ap", "2", "--trials", "2", "--json")
    assert code == 0
    assert json.loads(out)["window_radius"] == math.sqrt(150.0 / 2.0) / 2.0


def test_simulate_deterministic_given_seed(capsys):
    argv = [
        "simulate", "--rmin", "0.125", "--dt", "0.06", "--dc", "0.01",
        "--trials", "40", "--window-radius", "4", "--seed", "9", "--json",
    ]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


# ---------------------------------------------------------------------------
# sweep and validate
# ---------------------------------------------------------------------------


def test_sweep_to_stdout_csv(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "sweep", "--spec", str(write_sweep_spec(tmp_path)))
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 3 * 2  # 3 grid points x 2 metrics


def test_sweep_out_file_parses_back(capsys, tmp_path):
    out_path = tmp_path / "result.csv"
    code, out, _ = run_cli(
        capsys, "sweep", "--spec", str(write_sweep_spec(tmp_path, simulate=True)),
        "--out", str(out_path),
    )
    assert code == 0
    assert out == ""  # nothing on stdout when writing to a file
    res = parse_csv(out_path)
    assert len(res.rows) == 6
    sim_cells = [r.simulated for r in res.rows if r.metric == "cloud_use_prob"]
    assert all(v is not None for v in sim_cells)


def test_sweep_json_rows(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "sweep", "--spec", str(write_sweep_spec(tmp_path)), "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["axis"] == "lambda_hat"
    assert len(payload["rows"]) == 6
    assert {r["status"] for r in payload["rows"]} == {"ok"}


def test_sweep_json_out_file_holds_what_stdout_would(capsys, tmp_path):
    spec = str(write_sweep_spec(tmp_path))
    out_path = tmp_path / "result.json"
    code, out, _ = run_cli(capsys, "sweep", "--spec", spec, "--json", "--out", str(out_path))
    assert code == 0 and out == ""
    assert out_path.read_text(encoding="utf-8") == run_cli(capsys, "sweep", "--spec", spec, "--json")[1]


def test_sweep_json_keeps_its_row_format(capsys, tmp_path):
    spec_path = write_sweep_spec(tmp_path, simulate=True)
    code, out, _ = run_cli(capsys, "sweep", "--spec", str(spec_path), "--json")
    assert code == 0
    result = run_sweep(load_spec(spec_path))
    rows = [
        {
            "axis_value": r.axis_value,
            "metric": r.metric,
            "analytic": r.analytic,
            "simulated": r.simulated,
            "sim_stderr": r.sim_stderr,
            "status": r.status,
        }
        for r in result.rows
    ]
    assert out == json.dumps({"axis": result.axis, "rows": rows}, sort_keys=True) + "\n"


def test_sweep_csv_and_json_together_exit_2(capsys, tmp_path):
    spec = str(write_sweep_spec(tmp_path))
    code, out, err = run_cli(capsys, "sweep", "--spec", spec, "--csv", "--json")
    assert code == 2 and out == ""
    assert "--csv" in err and "--json" in err
    assert run_cli(capsys, "sweep", "--spec", spec, "--csv") == run_cli(
        capsys, "sweep", "--spec", spec
    )


def test_validate_json_passes_and_is_deterministic(capsys):
    # 400 trials are too few for the tolerances, which are sized for 10**4
    # (A5-A7), so whether this seed passes is luck; the exit code must
    # follow the report either way
    argv = ["validate", "--trials", "400", "--json"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2 and code1 == code2
    report = json.loads(out1)
    assert code1 == (0 if report["pass"] else 1)
    assert set(report["checks"]) == {
        "delay_cdf_ks",
        "cloud_use_abs_error",
        "mse_abs_error",
        "mean_load_rel_error",
    }


def test_validate_human_output_mentions_checks(capsys):
    code, out, _ = run_cli(capsys, "validate", "--trials", "400")
    report = run_validation(trials=400)
    assert code == (0 if report["pass"] else 1)
    assert "delay_cdf_ks" in out
    assert out.splitlines()[-1] == "overall: " + ("PASS" if report["pass"] else "FAIL")


@pytest.mark.parametrize("trials", [40, 300])  # a failing and a passing report
def test_validate_text_has_one_line_per_check(capsys, monkeypatch, trials):
    report = run_validation(trials=trials)
    checks = list(geomsim._report_checks(report["checks"]))
    assert [label for label, _ in checks] == [
        "delay_cdf_ks",
        "cloud_use_abs_error",
        "mse_abs_error",
        "mean_load_rel_error[lambda_hat_0.5]",
        "mean_load_rel_error[lambda_hat_1]",
        "mean_load_rel_error[lambda_hat_2]",
    ]
    assert report["pass"] is all(c["pass"] for _, c in checks)
    assert report["pass"] is (trials == 300)
    monkeypatch.setattr(geomsim, "run_validation", lambda **kwargs: report)
    code, out, _ = run_cli(capsys, "validate")
    assert code == (0 if report["pass"] else 1)
    lines = out.splitlines()
    assert len(lines) == len(checks) + 2
    for line, (label, c) in zip(lines[1:-1], checks):
        verdict = "PASS" if c["pass"] else "FAIL"
        assert line == f"  {label}: {c['value']:.6g} (tolerance {c['tolerance']:.6g}) {verdict}"


def test_validate_exits_0_on_a_passing_report(capsys, monkeypatch):
    report = run_validation(trials=40)
    checks = report["checks"]
    for name in ("delay_cdf_ks", "cloud_use_abs_error", "mse_abs_error"):
        checks[name]["pass"] = True
    for check in checks["mean_load_rel_error"].values():
        check["pass"] = True
    report["pass"] = True
    monkeypatch.setattr(geomsim, "run_validation", lambda **kwargs: report)
    code, out, _ = run_cli(capsys, "validate", "--json")
    assert code == 0 and json.loads(out)["pass"] is True
    code, out, _ = run_cli(capsys, "validate")
    assert code == 0 and out.splitlines()[-1] == "overall: PASS"


def test_validate_exit_1_when_checks_fail(capsys):
    # 40 trials leaves sampling noise well above the model tolerances
    code, out, _ = run_cli(capsys, "validate", "--trials", "40", "--json")
    assert code == 1
    assert json.loads(out)["pass"] is False
