"""Unit tests for the closed-form accuracy/delay model."""

import math
import sys
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import assume, example, given
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


def _floats_from(x: float, toward: float, n: int) -> list[float]:
    """``x`` and the ``n - 1`` floats after it toward ``toward``."""
    out = [x]
    for _ in range(n - 1):
        out.append(math.nextafter(out[-1], toward))
    return out


def test_sinr_threshold_switches_form_at_one_eighth():
    # expm1(x*ln 2) below x = 1/8 and 2**x - 1 from it on, without a step down
    below = _floats_from(0.125, 0.0, 1001)[:0:-1]
    above = _floats_from(0.125, 1.0, 1000)
    values = [sinr_threshold(x) for x in below + above]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert all(sinr_threshold(x) == 2.0 ** x - 1.0 for x in above)


def test_closed_forms_saturate_once_the_threshold_overflows():
    # inference rate 2,000: 2**x overflows, so the cloud output is never used
    s = property_scenario(1.0, 2000.0, 1.5)
    assert cloud_use_probability(s) == 0.0
    assert average_mse(s) == 1.5
    assert asymptotic_mse(s.workload, s.air) == 1.5
    assert critical_edge_mse(s, 1.2) == 1.2
    # a delay just above the compute delay stretches the demand to x = inf
    wide = Scenario(
        DeploymentConfig(1.0, 1.0),
        InferenceWorkload(1e300, 1e300, 0.0, mse_cloud=1.0, mse_edge=1.5),
        AirInterface(1.0),
    )
    assert delay_cdf(wide, 5e-324) == 0.0


def test_coverage_exponent_and_inverse_saturate_with_the_threshold():
    # sinr_threshold returns inf from x = 1024 on; the coverage exponent of
    # that threshold is inf (coverage 0), and so is the inverse of inf
    for x in (1024.0, 2000.0, math.inf):
        assert coverage_exponent(sinr_threshold(x)) == math.inf
        assert math.exp(-coverage_exponent(sinr_threshold(x))) == 0.0
    assert coverage_exponent(math.inf) == math.inf
    assert coverage_exponent_inverse(math.inf) == math.inf
    assert coverage_exponent_inverse(coverage_exponent(sinr_threshold(2000.0))) == math.inf
    # NaN and negative inputs are still rejected
    for bad in (math.nan, -math.inf):
        with pytest.raises(ModelDomainError, match="must be finite and >= 0"):
            coverage_exponent(bad)
        with pytest.raises(ModelDomainError, match="must be finite and >= 0"):
            coverage_exponent_inverse(bad)


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


@given(
    lam_hat=_log_uniform(-3, 4),
    rate=_log_uniform(-3, 1.5),
    edge_ratio=st.floats(1.0, 20.0),
    target_ratio=st.just(1.0) | st.floats(1.0, 20.0),
)
def test_critical_edge_mse_round_trip_property(lam_hat, rate, edge_ratio, target_ratio):
    s = property_scenario(lam_hat, rate, edge_ratio)
    assume(cloud_use_probability(s) < 1.0)
    m_e = critical_edge_mse(s, target_ratio)
    at_critical = replace(s, workload=replace(s.workload, mse_edge=m_e))
    assert average_mse(at_critical) == pytest.approx(target_ratio, rel=1e-9)


@given(
    lam_hat=_log_uniform(-3, 4),
    rate=_log_uniform(-12, 1.5),
    target_ratio=st.just(1.0) | st.floats(1.0, 20.0),
)
@example(lam_hat=1.0, rate=1e-12, target_ratio=1.2)
@example(lam_hat=1.0, rate=1e-9, target_ratio=1.2)
@example(lam_hat=1.0, rate=1e-3, target_ratio=1.2)
# mean load 2 and x = 2*rate, just below and just above the x = 1/8 switch
# of sinr_threshold
@example(lam_hat=1.28, rate=math.nextafter(0.0625, 0.0), target_ratio=1.2)
@example(lam_hat=1.28, rate=math.nextafter(0.0625, 1.0), target_ratio=1.2)
def test_critical_edge_mse_matches_high_precision_property(lam_hat, rate, target_ratio):
    # as the rate vanishes the cloud-use probability p nears 1 and 1 - p
    # must not cancel; compare with 50-digit arithmetic on the same inputs
    mp = pytest.importorskip("mpmath").mp.clone()
    mp.dps = 50
    s = property_scenario(lam_hat, rate, 1.5)
    x = (1 + mp.mpf(1.28) / mp.mpf(lam_hat)) * mp.mpf(rate)
    threshold = mp.expm1(x * mp.log(2))
    miss = -mp.expm1(-mp.sqrt(threshold) * mp.atan(mp.sqrt(threshold)))
    want = 1 + (mp.mpf(target_ratio) - 1) / miss
    assert critical_edge_mse(s, target_ratio) == pytest.approx(float(want), rel=1e-14)


# the largest y whose inverse is a finite float
_FINITE_X_MAX_Y = coverage_exponent(sys.float_info.max)


@given(y=st.floats(0.0, _FINITE_X_MAX_Y) | _log_uniform(-300, 8))
@example(y=5e-324)
@example(y=2.2250738585072014e-308)
@example(y=_FINITE_X_MAX_Y)
def test_coverage_exponent_inverse_round_trip_property(y):
    x = coverage_exponent_inverse(y)
    assert math.isfinite(x)
    assert coverage_exponent(x) == pytest.approx(y, rel=1e-10, abs=0.0)


@pytest.mark.parametrize(
    "y", [math.nextafter(_FINITE_X_MAX_Y, math.inf), 1e200, 1e300, sys.float_info.max]
)
def test_coverage_exponent_inverse_is_infinite_beyond_the_float_range(y):
    assert coverage_exponent_inverse(y) == math.inf


def test_coverage_exponent_inverse_matches_high_precision():
    mp = pytest.importorskip("mpmath").mp.clone()
    mp.dps = 50
    for k in range(-300, 151, 3):
        y = 10.0**k
        # the root of u*arctan(u)/y - 1 between 0 and sqrt(y) + y
        bracket = (0, mp.sqrt(y) + y)
        want = mp.findroot(lambda u: u * mp.atan(u) / y - 1, bracket, solver="anderson") ** 2
        assert coverage_exponent_inverse(y) == pytest.approx(float(want), rel=1e-14), y


def test_coverage_exponent_inverse_takes_at_most_seven_steps():
    # one arctan per Newton step, the last one included
    atan, steps = math.atan, []

    def counted(u):
        steps[-1] += 1
        return atan(u)

    with mock.patch.object(math, "atan", counted):
        for k in range(-1074, 512):
            for y in (math.ldexp(1.0, k), math.ldexp(1.7, k)):
                if y <= _FINITE_X_MAX_Y:
                    steps.append(0)
                    coverage_exponent_inverse(y)
    assert 1 <= min(steps) and max(steps) <= 7


# Each domain check's message for one bad input, as the checks word them. A bool
# (an int to isinstance) or a numeric string is a bad input to every range rule.
_UNIT = Scenario(
    DeploymentConfig(1.0, 1.0),
    InferenceWorkload(1.0, 2.0, 1.0, mse_cloud=1.0, mse_edge=1.5),
    AirInterface(1.0),
)
_DOMAIN_MESSAGES = {
    "coverage_exponent": (
        lambda: coverage_exponent(-1.0),
        "x must be finite and >= 0 (got -1.0)",
    ),
    "sinr_threshold": (
        lambda: sinr_threshold(math.nan),
        "x must be finite and >= 0 (got nan)",
    ),
    "coverage_exponent_inverse": (
        lambda: coverage_exponent_inverse(-1.0),
        "y must be finite and >= 0 (got -1.0)",
    ),
    "delay_cdf": (
        lambda: delay_cdf(_UNIT, 1.0),
        "d must exceed compute_delay=1.0 (got 1.0)",
    ),
    "critical_ap_density.lambda_dev": (
        lambda: critical_ap_density(_UNIT.workload, _UNIT.air, 0, 1.2),
        "lambda_dev must be finite and > 0 (got 0)",
    ),
    "critical_ap_density.mse_target": (
        lambda: critical_ap_density(_UNIT.workload, _UNIT.air, 1.0, 0),
        "mse_target must be finite and > 0 (got 0)",
    ),
    "critical_edge_mse": (
        lambda: critical_edge_mse(_UNIT, 0.5),
        "mse_target must be finite and >= mse_cloud=1.0 (got 0.5)",
    ),
    "DeploymentConfig.lambda_ap": (
        lambda: DeploymentConfig(-1.0, 1.0),
        "lambda_ap must be finite and > 0 (got -1.0)",
    ),
    "DeploymentConfig.lambda_ap.bool": (
        lambda: DeploymentConfig(True, 1.0),
        "lambda_ap must be finite and > 0 (got True)",
    ),
    "DeploymentConfig.lambda_ap.str": (
        lambda: DeploymentConfig("1", 1.0),
        "lambda_ap must be finite and > 0 (got '1')",
    ),
    "DeploymentConfig.lambda_dev": (
        lambda: DeploymentConfig(1.0, math.inf),
        "lambda_dev must be finite and > 0 (got inf)",
    ),
    "InferenceWorkload.payload_bits": (
        lambda: InferenceWorkload(0.0, 2.0, 1.0, 1.0, 1.5),
        "payload_bits must be finite and > 0 (got 0.0)",
    ),
    "InferenceWorkload.compute_delay": (
        lambda: InferenceWorkload(1.0, 2.0, -1.0, 1.0, 1.5),
        "compute_delay must be finite and >= 0 (got -1.0)",
    ),
    "InferenceWorkload.compute_delay.bool": (
        lambda: InferenceWorkload(1.0, 2.0, True, 1.0, 1.5),
        "compute_delay must be finite and >= 0 (got True)",
    ),
    "InferenceWorkload.compute_delay.str": (
        lambda: InferenceWorkload(1.0, 2.0, "1", 1.0, 1.5),
        "compute_delay must be finite and >= 0 (got '1')",
    ),
    "InferenceWorkload.delay_budget": (
        lambda: InferenceWorkload(1.0, 1.0, 1.0, 1.0, 1.5),
        "delay_budget must be finite and exceed compute_delay, otherwise cloud "
        "inference is never usable (got 1.0 vs 1.0)",
    ),
    "InferenceWorkload.mse_cloud": (
        lambda: InferenceWorkload(1.0, 2.0, 1.0, 0.0, 1.5),
        "mse_cloud must be finite and > 0 (got 0.0)",
    ),
    "InferenceWorkload.mse_edge": (
        lambda: InferenceWorkload(1.0, 2.0, 1.0, 1.0, 0.5),
        "mse_edge must be finite and >= mse_cloud (cloud model is the more "
        "accurate one; got 0.5 vs 1.0)",
    ),
    "AirInterface.bandwidth": (
        lambda: AirInterface("wide"),
        "bandwidth must be finite and > 0 (got 'wide')",
    ),
    "AirInterface.bandwidth.bool": (
        lambda: AirInterface(True),
        "bandwidth must be finite and > 0 (got True)",
    ),
    "AirInterface.bandwidth.str": (
        lambda: AirInterface("1"),
        "bandwidth must be finite and > 0 (got '1')",
    ),
    "AirInterface.snr": (
        lambda: AirInterface(1.0, snr=math.nan),
        "snr must be > 0 (math.inf allowed; got nan)",
    ),
    "AirInterface.snr.bool": (
        lambda: AirInterface(1.0, snr=True),
        "snr must be > 0 (math.inf allowed; got True)",
    ),
    "AirInterface.snr.str": (
        lambda: AirInterface(1.0, snr="5"),
        "snr must be > 0 (math.inf allowed; got '5')",
    ),
    "AirInterface.snr.none": (
        lambda: AirInterface(1.0, snr=None),
        "snr must be > 0 (math.inf allowed; got None)",
    ),
    "Scenario.inference_rate": (
        lambda: Scenario(
            _UNIT.deployment,
            replace(_UNIT.workload, payload_bits=1e-320),
            AirInterface(1e300),
        ),
        "derived inference rate must be finite and > 0 (got 0.0)",
    ),
}


@pytest.mark.parametrize("check", sorted(_DOMAIN_MESSAGES))
def test_domain_check_messages_are_pinned(check):
    call, message = _DOMAIN_MESSAGES[check]
    with pytest.raises(ModelDomainError) as exc_info:
        call()
    assert str(exc_info.value) == message
