"""Acceptance suite: one test per shipped guarantee (A1-A9).

Each test prints a single ``A<n> PASS|FAIL`` line with the measured
numbers (run ``pytest -s tests/test_acceptance.py`` to see them on
passing runs) and then asserts. The Monte Carlo criteria share one
canonical 10^4-trial run; the whole module takes about a minute on one
CPU.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from edgeprovision.analytic import (
    AirInterface,
    DeploymentConfig,
    InferenceWorkload,
    Scenario,
    asymptotic_mse,
    average_mse,
    cloud_use_probability,
    coverage_exponent,
    coverage_exponent_inverse,
    critical_ap_density,
    critical_edge_mse,
    mean_cell_load,
)
from edgeprovision.cli import main as cli_main
from edgeprovision.experiments import (
    DEFAULT_LAMBDA_HAT_GRID,
    DEFAULT_RATE_GRID,
    SweepSpec,
    emit_csv,
    parse_csv,
    run_sweep,
)
from edgeprovision.geomsim import (
    SimConfig,
    SimSettings,
    canonical_validation_scenario,
    delay_ks_statistic,
    run_loads,
    run_trials,
    run_validation,
)

pytestmark = pytest.mark.filterwarnings("ignore:window holds only")


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{criterion} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def scenario_for(lam_hat: float, rate: float, m_c: float = 1.0, m_d: float = 1.5) -> Scenario:
    """Unit-bandwidth scenario with the requested density ratio and min rate."""
    return Scenario(
        deployment=DeploymentConfig(lam_hat, 1.0),
        workload=InferenceWorkload(rate, 2.0, 1.0, mse_cloud=m_c, mse_edge=m_d),
        air=AirInterface(1.0),
    )


@pytest.fixture(scope="module")
def canonical_run():
    """The shared A5/A6 oracle run: canonical scenario, 10^4 trials, torus
    window holding 200 expected APs."""
    cfg = SimConfig(
        scenario=canonical_validation_scenario(),
        window_radius=math.sqrt(50.0),
        trials=10_000,
    )
    return cfg, run_trials(cfg)


# ---------------------------------------------------------------------------
# A1: frozen exact values
# ---------------------------------------------------------------------------


def test_a1_exact_values():
    checks = []

    got = coverage_exponent(1.0)
    checks.append(("aux_c(1)", got, math.pi / 4.0))

    # density ratio 1.28 gives mean load 2, so load * rate = 1 at rate 0.5
    s = scenario_for(1.28, 0.5)
    checks.append(("avg_mse", average_mse(s), 1.2720309361170019))
    checks.append(("critical_edge_mse", critical_edge_mse(s, 1.2), 1.3676052489742913))

    w = InferenceWorkload(1.0, 2.0, 1.0, mse_cloud=1.0, mse_edge=1.5)
    lc = critical_ap_density(w, AirInterface(1.0), 1.0, 1.3)
    checks.append(("critical_density", lc, 8.885272668618394))

    worst = max(abs(got - want) / abs(want) for _, got, want in checks)
    detail = "; ".join(f"{name}={got:.12g} (want {want:.12g})" for name, got, want in checks)
    report("A1", worst <= 1e-6, f"max rel err {worst:.3g} <= 1e-6; {detail}")


# ---------------------------------------------------------------------------
# A2: bounds and limits
# ---------------------------------------------------------------------------


def test_a2_bounds_and_limits():
    m_c, m_d = 1.0, 1.5
    worst_violation = 0.0
    for lam_hat in DEFAULT_LAMBDA_HAT_GRID:
        for rate in DEFAULT_RATE_GRID:
            s = scenario_for(lam_hat, rate, m_c, m_d)
            m_bar = average_mse(s)
            m_asy = asymptotic_mse(s.workload, s.air)
            worst_violation = max(
                worst_violation,
                m_c - m_asy,
                m_asy - m_bar,
                m_bar - m_d,
            )
    ordering_ok = worst_violation <= 1e-12

    tol = 1e-3 * (m_d - m_c)
    lo = asymptotic_mse(scenario_for(1.0, 1e-4).workload, AirInterface(1.0))
    hi = asymptotic_mse(scenario_for(1.0, 60.0).workload, AirInterface(1.0))
    limits_ok = abs(lo - m_c) <= tol and abs(hi - m_d) <= tol

    report(
        "A2",
        ordering_ok and limits_ok,
        f"31x31 ordering slack {worst_violation:.2g} <= 1e-12; "
        f"m_asy(1e-4)={lo:.6f} (to m_c within {tol}); m_asy(60)={hi:.6f} (to m_d within {tol})",
    )


# ---------------------------------------------------------------------------
# A3: inverse consistency on random feasible pairs
# ---------------------------------------------------------------------------


def test_a3_inverse_consistency():
    rng = np.random.default_rng(20260825)
    worst_density = worst_edge = 0.0
    for _ in range(100):
        lam_hat = 10.0 ** rng.uniform(-1.0, 1.0)
        rate = 10.0 ** rng.uniform(math.log10(0.05), math.log10(5.0))
        s = scenario_for(lam_hat, rate)
        w = s.workload

        m_asy = asymptotic_mse(w, s.air)
        m_t = m_asy + (0.05 + 0.9 * rng.uniform()) * (w.mse_edge - m_asy)
        lc = critical_ap_density(w, s.air, 1.0, m_t)
        achieved = average_mse(Scenario(DeploymentConfig(lc, 1.0), w, s.air))
        worst_density = max(worst_density, abs(achieved - m_t) / m_t)

        m_t_edge = w.mse_cloud * (1.0 + rng.uniform())
        md_max = critical_edge_mse(s, m_t_edge)
        achieved_edge = average_mse(replace(s, workload=replace(w, mse_edge=md_max)))
        worst_edge = max(worst_edge, abs(achieved_edge - m_t_edge) / m_t_edge)

    report(
        "A3",
        worst_density <= 1e-6 and worst_edge <= 1e-6,
        f"100 random pairs: density round-trip max rel {worst_density:.3g}, "
        f"edge-MSE round-trip max rel {worst_edge:.3g}, both <= 1e-6",
    )


# ---------------------------------------------------------------------------
# A4: monotone trends
# ---------------------------------------------------------------------------


def _monotone(vals, direction: str, slack: float = 1e-12) -> float:
    """Worst violation of the requested trend (0 when perfectly monotone)."""
    worst = 0.0
    for a, b in zip(vals, vals[1:]):
        worst = max(worst, (b - a) if direction == "dec" else (a - b))
    return max(0.0, worst - slack)


def test_a4_monotone_trends():
    violations = {}

    vals = [average_mse(scenario_for(lh, 1.0)) for lh in DEFAULT_LAMBDA_HAT_GRID]
    violations["avg_mse vs density ratio (dec)"] = _monotone(vals, "dec")

    vals = [average_mse(scenario_for(1.0, r)) for r in DEFAULT_RATE_GRID]
    violations["avg_mse vs rate (inc)"] = _monotone(vals, "inc")

    w = InferenceWorkload(1.0, 2.0, 1.0, mse_cloud=1.0, mse_edge=1.5)
    targets = np.linspace(1.28, 1.49, 12)
    vals = [critical_ap_density(w, AirInterface(1.0), 1.0, t) for t in targets]
    violations["critical density vs target (dec)"] = _monotone(vals, "dec")

    rates = np.geomspace(0.01, 1.1, 12)
    vals = [
        critical_ap_density(
            InferenceWorkload(r, 2.0, 1.0, mse_cloud=1.0, mse_edge=1.5),
            AirInterface(1.0), 1.0, 1.3,
        )
        for r in rates
    ]
    violations["critical density vs rate (inc)"] = _monotone(vals, "inc")

    vals = [critical_edge_mse(scenario_for(1.0, r), 1.2) for r in rates]
    violations["critical edge MSE vs rate (dec)"] = _monotone(vals, "dec")

    vals = [critical_edge_mse(scenario_for(lh, 0.5), 1.2) for lh in DEFAULT_LAMBDA_HAT_GRID]
    violations["critical edge MSE vs density ratio (inc)"] = _monotone(vals, "inc")

    worst = max(violations.values())
    report(
        "A4",
        worst == 0.0,
        "trends on default grids all monotone; worst violation "
        + "; ".join(f"{k}: {v:.2g}" for k, v in violations.items()),
    )


# ---------------------------------------------------------------------------
# A5-A7: Monte Carlo agreement with the closed forms
# ---------------------------------------------------------------------------


def test_a5_delay_cdf_ks(canonical_run):
    cfg, summary = canonical_run
    w = cfg.scenario.workload
    ks = delay_ks_statistic(
        summary.delay_samples, cfg.scenario, w.compute_delay, 10.0 * w.delay_budget
    )
    report(
        "A5",
        ks <= 0.05,
        f"KS={ks:.4f} <= 0.05 on ({w.compute_delay}, {10 * w.delay_budget}] "
        f"({cfg.trials} trials, {cfg.window_radius**2 * 4:.0f} expected APs, torus)",
    )


def test_a6_cloud_share_and_mse(canonical_run):
    cfg, summary = canonical_run
    s = cfg.scenario
    w = s.workload
    cloud_gap = abs(summary.cloud_use_fraction - cloud_use_probability(s))
    mse_gap = abs(summary.mse_estimate - average_mse(s))
    mse_tol = 0.03 * (w.mse_edge - w.mse_cloud)
    report(
        "A6",
        cloud_gap <= 0.03 and mse_gap <= mse_tol,
        f"cloud-use gap {cloud_gap:.4f} <= 0.03; MSE gap {mse_gap:.4f} <= {mse_tol}",
    )


def test_a6_cloud_share_at_finite_snr():
    # the closed forms' noise term exp(-T/snr) against the simulator's SINR,
    # which adds 1/snr to the interference: at snr = 1 it moves the canonical
    # cloud-use probability from 0.8152 to 0.6553
    base = canonical_validation_scenario()
    s = replace(base, air=replace(base.air, snr=1.0))
    cfg = SimConfig(scenario=s, window_radius=math.sqrt(50.0), trials=2_000)
    summary = run_trials(cfg)
    w = s.workload
    assert cloud_use_probability(s) == pytest.approx(0.6553, abs=1e-4)
    cloud_gap = abs(summary.cloud_use_fraction - cloud_use_probability(s))
    mse_gap = abs(summary.mse_estimate - average_mse(s))
    mse_tol = 0.03 * (w.mse_edge - w.mse_cloud)
    report(
        "A6 (snr = 1)",
        cloud_gap <= 0.03 and mse_gap <= mse_tol,
        f"cloud-use gap {cloud_gap:.4f} <= 0.03; MSE gap {mse_gap:.4f} <= {mse_tol}",
    )


def test_a7_mean_load():
    base = canonical_validation_scenario()
    details = []
    ok = True
    for lam_hat in (0.5, 1.0, 2.0):
        dep = DeploymentConfig(lambda_ap=1.0, lambda_dev=1.0 / lam_hat)
        cfg = SimConfig(
            scenario=replace(base, deployment=dep), window_radius=5.0, trials=10_000
        )
        mean_load = float(run_loads(cfg).mean())
        want = mean_cell_load(dep)
        rel = abs(mean_load - want) / want
        ok = ok and rel <= 0.05
        details.append(f"ratio {lam_hat:g}: {mean_load:.4f} vs {want:.4f} (rel {rel:.4f})")
    report("A7", ok, "mean serving-cell load within 5%: " + "; ".join(details))


# ---------------------------------------------------------------------------
# A8: determinism
# ---------------------------------------------------------------------------


def test_a8_determinism(capsys):
    argv = ["validate", "--trials", "400", "--json"]
    code1 = cli_main(list(argv))
    out1 = capsys.readouterr().out
    code2 = cli_main(list(argv))
    out2 = capsys.readouterr().out
    # whether 400 trials pass is luck (A5-A7 are the statistical gates at
    # 10**4 trials); the exit code must follow the report
    passed = json.loads(out1)["pass"]
    byte_identical = out1 == out2 and code1 == code2 == (0 if passed else 1)

    report1 = run_validation(trials=250, workers=1)
    report2 = run_validation(trials=250, workers=2)
    workers_invariant = report1 == report2

    with capsys.disabled():
        report(
            "A8",
            byte_identical and workers_invariant,
            f"two validate runs byte-identical ({len(out1)} bytes); "
            f"worker count 1 vs 2 identical reports: {workers_invariant}",
        )


# ---------------------------------------------------------------------------
# A9: round-trips
# ---------------------------------------------------------------------------


def test_a9_roundtrips(tmp_path):
    spec = SweepSpec(
        base=scenario_for(1.0, 1.0),
        axis="mse_target",
        grid=(1.05, 1.3, 1.55),
        outputs=("critical_density", "avg_mse"),
        sim=SimSettings(trials=50, window_radius=4.0, master_seed=3),
    )
    res = run_sweep(spec)
    assert any(r.status == "infeasible" for r in res.rows)
    path = tmp_path / "roundtrip.csv"
    emit_csv(res, path)
    csv_ok = parse_csv(path) == res

    ys = np.concatenate(
        [[0.0], np.geomspace(1e-10, 100.0, 40), np.linspace(0.5, 100.0, 40)]
    )
    worst = 0.0
    for y in ys:
        back = coverage_exponent(coverage_exponent_inverse(float(y)))
        err = abs(back - y) if y == 0.0 else abs(back - y) / y
        worst = max(worst, err)
    inverse_ok = worst <= 1e-10

    report(
        "A9",
        csv_ok and inverse_ok,
        f"CSV emit->parse identity (incl. simulated and infeasible rows): {csv_ok}; "
        f"inverse round-trip max rel err {worst:.3g} <= 1e-10 on [0, 100]",
    )
