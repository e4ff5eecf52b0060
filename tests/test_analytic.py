"""Unit tests for the closed-form accuracy/delay model."""

import math
from dataclasses import replace

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

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
    delay_cdf,
    mean_cell_load,
    sinr_threshold,
)
from edgeprovision.errors import InfeasibleTargetError, ModelDomainError

# Frozen oracle values, computed once with 40-digit arithmetic.
AVG_MSE_UNIT_PRODUCT = 1.2720309361170019   # m_c=1, m_d=1.5, load*rate product = 1
CRITICAL_EDGE_EXAMPLE = 1.3676052489742913  # m_c=1, target 1.2, product = 1
CRITICAL_DENSITY_EXAMPLE = 8.885272668618394  # m_c=1, m_d=1.5, target 1.3, rate 1
INVERSE_EXAMPLE_Y = 0.916291
INVERSE_EXAMPLE_X = 1.2100191886628464


def unit_product_scenario() -> Scenario:
    """lambda_hat=1 (mean load 2.28) with min rate 1/2.28, so load*rate = 1."""
    return Scenario(
        deployment=DeploymentConfig(lambda_ap=1.0, lambda_dev=1.0),
        workload=InferenceWorkload(
            payload_bits=1.0 / 2.28,
            delay_budget=2.0,
            compute_delay=1.0,
            mse_cloud=1.0,
            mse_edge=1.5,
        ),
        air=AirInterface(bandwidth=1.0),
    )


def rate_one_workload() -> InferenceWorkload:
    return InferenceWorkload(
        payload_bits=1.0,
        delay_budget=2.0,
        compute_delay=1.0,
        mse_cloud=1.0,
        mse_edge=1.5,
    )


# ---------------------------------------------------------------------------
# input validation
# ---------------------------------------------------------------------------


def test_deployment_rejects_nonpositive_densities():
    with pytest.raises(ModelDomainError):
        DeploymentConfig(lambda_ap=0.0, lambda_dev=1.0)
    with pytest.raises(ModelDomainError):
        DeploymentConfig(lambda_ap=1.0, lambda_dev=-2.0)


def test_workload_rejects_bad_delays_and_mse():
    with pytest.raises(ModelDomainError):
        InferenceWorkload(1.0, delay_budget=1.0, compute_delay=1.0, mse_cloud=1.0, mse_edge=1.5)
    with pytest.raises(ModelDomainError):
        InferenceWorkload(1.0, delay_budget=1.0, compute_delay=-0.1, mse_cloud=1.0, mse_edge=1.5)
    with pytest.raises(ModelDomainError):
        InferenceWorkload(0.0, delay_budget=2.0, compute_delay=1.0, mse_cloud=1.0, mse_edge=1.5)
    with pytest.raises(ModelDomainError):
        InferenceWorkload(1.0, delay_budget=2.0, compute_delay=1.0, mse_cloud=0.0, mse_edge=1.5)
    with pytest.raises(ModelDomainError):
        InferenceWorkload(1.0, delay_budget=2.0, compute_delay=1.0, mse_cloud=1.0, mse_edge=0.9)


def test_air_interface_snr_domain():
    assert math.isinf(AirInterface(bandwidth=1.0).snr)
    assert AirInterface(bandwidth=1.0, snr=10.0).snr == 10.0
    with pytest.raises(ModelDomainError):
        AirInterface(bandwidth=0.0)
    with pytest.raises(ModelDomainError):
        AirInterface(bandwidth=1.0, snr=0.0)


def test_scenario_is_immutable():
    s = unit_product_scenario()
    with pytest.raises(AttributeError):
        s.air = AirInterface(bandwidth=2.0)


# ---------------------------------------------------------------------------
# primitive maps
# ---------------------------------------------------------------------------


def test_coverage_exponent_values():
    assert coverage_exponent(0.0) == 0.0
    assert coverage_exponent(1.0) == pytest.approx(math.pi / 4, rel=1e-14)
    assert coverage_exponent(3.0) == pytest.approx(math.sqrt(3.0) * math.atan(math.sqrt(3.0)), rel=1e-14)


def test_coverage_exponent_monotone_and_asymptotic():
    xs = [0.1 * k for k in range(1, 50)]
    vals = [coverage_exponent(x) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    # C(x) ~ (pi/2) sqrt(x) for large x
    assert coverage_exponent(1e8) == pytest.approx(1e4 * math.pi / 2, rel=1e-3)


def test_coverage_exponent_rejects_bad_domain():
    with pytest.raises(ModelDomainError):
        coverage_exponent(-0.5)
    with pytest.raises(ModelDomainError):
        coverage_exponent(math.nan)


def test_sinr_threshold_values():
    assert sinr_threshold(0.0) == 0.0
    assert sinr_threshold(1.0) == 1.0
    assert sinr_threshold(2.0) == 3.0
    assert sinr_threshold(0.5) == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-14)
    assert math.isinf(sinr_threshold(1024.0))
    assert math.isinf(sinr_threshold(5000.0))


def test_coverage_exponent_inverse_frozen_example():
    assert coverage_exponent_inverse(INVERSE_EXAMPLE_Y) == pytest.approx(
        INVERSE_EXAMPLE_X, rel=1e-9
    )
    assert coverage_exponent_inverse(0.0) == 0.0
    assert coverage_exponent_inverse(math.pi / 4) == pytest.approx(1.0, rel=1e-10)


@pytest.mark.parametrize("y", [1e-12, 1e-8, 1e-4, 0.1, 1.0, 7.5, 42.0, 100.0])
def test_coverage_exponent_inverse_roundtrip(y):
    x = coverage_exponent_inverse(y)
    assert coverage_exponent(x) == pytest.approx(y, rel=1e-10)


def test_coverage_exponent_inverse_rejects_negative():
    with pytest.raises(ModelDomainError):
        coverage_exponent_inverse(-1e-9)


# ---------------------------------------------------------------------------
# scenario-level metrics
# ---------------------------------------------------------------------------


def test_mean_cell_load():
    assert mean_cell_load(DeploymentConfig(1.0, 1.0)) == pytest.approx(2.28, rel=1e-14)
    assert mean_cell_load(DeploymentConfig(2.0, 1.0)) == pytest.approx(1.64, rel=1e-14)
    # densifying APs drives the typical serving-cell load to 1
    assert mean_cell_load(DeploymentConfig(1e12, 1.0)) == pytest.approx(1.0, rel=1e-10)


def test_inference_rate():
    w = InferenceWorkload(1e6, delay_budget=0.06, compute_delay=0.01, mse_cloud=1.0, mse_edge=1.5)
    assert Scenario(DeploymentConfig(1.0, 1.0), w, AirInterface(1.6e8)).inference_rate == pytest.approx(0.125, rel=1e-12)


def test_delay_cdf_is_a_cdf():
    s = unit_product_scenario()
    w = s.workload
    grid = [w.compute_delay + 1e-9] + [w.compute_delay + 0.05 * k for k in range(1, 200)]
    vals = [delay_cdf(s, d) for d in grid]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[0] < 1e-6  # vanishes approaching the compute-delay floor
    assert delay_cdf(s, 1e9) > 0.999  # every transfer eventually completes


def test_delay_cdf_rejects_at_or_below_compute_delay():
    s = unit_product_scenario()
    with pytest.raises(ModelDomainError):
        delay_cdf(s, s.workload.compute_delay)
    with pytest.raises(ModelDomainError):
        delay_cdf(s, 0.0)


def test_cloud_use_probability_equals_cdf_at_budget():
    s = unit_product_scenario()
    assert cloud_use_probability(s) == delay_cdf(s, s.workload.delay_budget)
    assert cloud_use_probability(s) == pytest.approx(math.exp(-math.pi / 4), rel=1e-12)


def test_closed_form_is_interference_limited():
    # the closed-form delay law carries no noise term; snr feeds the
    # simulator's SINR only
    s = unit_product_scenario()
    s_noisy = replace(s, air=AirInterface(bandwidth=1.0, snr=5.0))
    assert cloud_use_probability(s_noisy) == cloud_use_probability(s)


def test_average_mse_frozen_example():
    assert average_mse(unit_product_scenario()) == pytest.approx(
        AVG_MSE_UNIT_PRODUCT, rel=1e-10
    )


def test_average_mse_bounds():
    for lam_hat in (0.2, 1.0, 5.0):
        for rate in (0.05, 0.5, 2.0):
            s = Scenario(
                deployment=DeploymentConfig(lam_hat, 1.0),
                workload=InferenceWorkload(rate, 2.0, 1.0, mse_cloud=1.0, mse_edge=1.5),
                air=AirInterface(1.0),
            )
            m_bar = average_mse(s)
            m_asy = asymptotic_mse(s.workload, s.air)
            assert 1.0 <= m_asy <= m_bar + 1e-12
            assert m_bar <= 1.5


def test_asymptotic_mse_limits():
    # vanishing rate demand: cloud always meets the budget
    w_small = InferenceWorkload(1e-4, 2.0, 1.0, mse_cloud=1.0, mse_edge=1.5)
    assert abs(asymptotic_mse(w_small, AirInterface(1.0)) - 1.0) < 1e-3 * 0.5
    # extreme rate demand: cloud never meets the budget
    w_big = InferenceWorkload(60.0, 2.0, 1.0, mse_cloud=1.0, mse_edge=1.5)
    assert abs(asymptotic_mse(w_big, AirInterface(1.0)) - 1.5) < 1e-3 * 0.5


# ---------------------------------------------------------------------------
# inversions
# ---------------------------------------------------------------------------


def test_critical_density_frozen_example():
    lc = critical_ap_density(rate_one_workload(), AirInterface(1.0), 1.0, 1.3)
    assert lc == pytest.approx(CRITICAL_DENSITY_EXAMPLE, rel=1e-9)


def test_critical_density_roundtrip():
    w = rate_one_workload()
    lc = critical_ap_density(w, AirInterface(1.0), 1.0, 1.3)
    s = Scenario(DeploymentConfig(lc, 1.0), w, AirInterface(1.0))
    assert average_mse(s) == pytest.approx(1.3, rel=1e-10)


def test_critical_density_zero_when_target_trivial():
    w = rate_one_workload()
    assert critical_ap_density(w, AirInterface(1.0), 1.0, 1.5) == 0.0
    assert critical_ap_density(w, AirInterface(1.0), 1.0, 2.0) == 0.0


def test_critical_density_infeasible_target():
    w = rate_one_workload()
    m_asy = asymptotic_mse(w, AirInterface(1.0))
    with pytest.raises(InfeasibleTargetError) as exc_info:
        critical_ap_density(w, AirInterface(1.0), 1.0, m_asy - 1e-6)
    assert exc_info.value.asymptotic_mse == pytest.approx(m_asy, rel=1e-12)
    with pytest.raises(InfeasibleTargetError):
        critical_ap_density(w, AirInterface(1.0), 1.0, m_asy)  # boundary is infeasible too


def test_critical_density_scales_with_device_density():
    w = rate_one_workload()
    lc1 = critical_ap_density(w, AirInterface(1.0), 1.0, 1.3)
    lc3 = critical_ap_density(w, AirInterface(1.0), 3.0, 1.3)
    assert lc3 == pytest.approx(3.0 * lc1, rel=1e-12)


def test_critical_edge_mse_frozen_example():
    s = unit_product_scenario()
    assert critical_edge_mse(s, 1.2) == pytest.approx(CRITICAL_EDGE_EXAMPLE, rel=1e-9)


def test_critical_edge_mse_roundtrip():
    s = unit_product_scenario()
    md_max = critical_edge_mse(s, 1.2)
    s2 = replace(s, workload=replace(s.workload, mse_edge=md_max))
    assert average_mse(s2) == pytest.approx(1.2, rel=1e-10)


def test_critical_edge_mse_degenerate_target():
    s = unit_product_scenario()
    # target equal to the cloud MSE forces the edge model to match it
    assert critical_edge_mse(s, 1.0) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ModelDomainError):
        critical_edge_mse(s, 0.5)  # below the cloud MSE: unreachable


def test_critical_edge_mse_ignores_configured_edge_model():
    s = unit_product_scenario()
    s2 = replace(s, workload=replace(s.workload, mse_edge=9.0))
    assert critical_edge_mse(s, 1.2) == critical_edge_mse(s2, 1.2)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


def _log_uniform(lo_exp: float, hi_exp: float):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


def property_scenario(lam_hat: float, rate: float, edge_ratio: float) -> Scenario:
    return Scenario(
        deployment=DeploymentConfig(lam_hat, 1.0),
        workload=InferenceWorkload(rate, 2.0, 1.0, mse_cloud=1.0, mse_edge=edge_ratio),
        air=AirInterface(1.0),
    )


@given(lam_hat=_log_uniform(-3, 4), rate=_log_uniform(-3, 1.5), edge_ratio=st.floats(1.0, 20.0))
def test_average_mse_between_model_mses_property(lam_hat, rate, edge_ratio):
    m_bar = average_mse(property_scenario(lam_hat, rate, edge_ratio))
    assert 1.0 <= m_bar <= edge_ratio


@given(
    lam_hat=_log_uniform(-3, 4),
    growth=_log_uniform(0, 3),
    rate=_log_uniform(-3, 1.5),
    edge_ratio=st.floats(1.0, 20.0),
)
def test_average_mse_does_not_increase_with_ap_density_property(lam_hat, growth, rate, edge_ratio):
    sparse = average_mse(property_scenario(lam_hat, rate, edge_ratio))
    dense = average_mse(property_scenario(lam_hat * growth, rate, edge_ratio))
    assert dense <= sparse + 1e-12  # the slack of A2


@given(
    lambda_dev=_log_uniform(-2, 2),
    rate=_log_uniform(-2, 0.7),
    edge_ratio=st.floats(1.01, 20.0),
    frac=st.floats(0.05, 0.95),
)
def test_critical_ap_density_round_trip_property(lambda_dev, rate, edge_ratio, frac):
    w = InferenceWorkload(rate, 2.0, 1.0, mse_cloud=1.0, mse_edge=edge_ratio)
    air = AirInterface(1.0)
    m_asy = asymptotic_mse(w, air)
    # strictly inside (asymptotic MSE, m_d), away from both ends as in A3
    target = m_asy + frac * (edge_ratio - m_asy)
    assume(m_asy < target < edge_ratio)
    lc = critical_ap_density(w, air, lambda_dev, target)
    achieved = average_mse(Scenario(DeploymentConfig(lc, lambda_dev), w, air))
    assert achieved == pytest.approx(target, rel=1e-6)


@given(y=st.just(0.0) | _log_uniform(-20, 8))
def test_coverage_exponent_inverse_round_trip_property(y):
    x = coverage_exponent_inverse(y)
    assert coverage_exponent(x) == pytest.approx(y, rel=1e-10, abs=0.0)
