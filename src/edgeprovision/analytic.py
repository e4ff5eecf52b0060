"""Closed-form accuracy/delay model of distributed edge/cloud inference
over a Poisson cellular uplink, plus the inverse design quantities built
on it (critical AP density, critical edge-model MSE).

Model assumptions baked into these formulas: minimum-pathloss association,
full pathloss-inversion power control, Rayleigh fading, pathloss exponent 4
(the coverage exponent sqrt(x)*arctan(sqrt(x)) is specific to it), at most
one transmitter per cell on the tagged resource block, rate logarithms in
base 2, and a cell load equal to its mean value 1 + 1.28/lambda_hat.

A device offloads to the cloud model (MSE ``mse_cloud``) when the round-trip
cloud delay fits the budget, and falls back to the on-device edge model
(MSE ``mse_edge``) otherwise; the average MSE interpolates between the two
with the delay-budget success probability as the weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InfeasibleTargetError, ModelDomainError
from .numerics import bisect_root

__all__ = [
    "DeploymentConfig",
    "InferenceWorkload",
    "AirInterface",
    "Scenario",
    "coverage_exponent",
    "sinr_threshold",
    "coverage_exponent_inverse",
    "mean_cell_load",
    "delay_cdf",
    "cloud_use_probability",
    "average_mse",
    "asymptotic_mse",
    "critical_ap_density",
    "critical_edge_mse",
]

_LN2 = math.log(2.0)
# 2**x overflows float64 at x >= 1024; past that the threshold is +inf and
# the corresponding coverage probability underflows to exactly 0.
_EXP2_OVERFLOW = 1024.0
# Mean-load coefficient: mean cell load of the typical device is 1 + 1.28/lambda_hat.
_LOAD_COEFF = 1.28


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ModelDomainError(message)


def _finite(x: float) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeploymentConfig:
    """AP and device densities of the Poisson deployment (per unit area)."""

    lambda_ap: float
    lambda_dev: float

    def __post_init__(self):
        _require(
            _finite(self.lambda_ap) and self.lambda_ap > 0,
            f"lambda_ap must be finite and > 0 (got {self.lambda_ap!r})",
        )
        _require(
            _finite(self.lambda_dev) and self.lambda_dev > 0,
            f"lambda_dev must be finite and > 0 (got {self.lambda_dev!r})",
        )

    @property
    def lambda_hat(self) -> float:
        """AP-to-device density ratio."""
        return self.lambda_ap / self.lambda_dev


@dataclass(frozen=True)
class InferenceWorkload:
    """Application-side parameters of one inference task.

    ``payload_bits`` is the cumulative uplink+downlink payload,
    ``delay_budget`` the end-to-end deadline, ``compute_delay`` the fixed
    cloud compute time, and ``mse_cloud``/``mse_edge`` the accuracies of
    the cloud and on-device models.
    """

    payload_bits: float
    delay_budget: float
    compute_delay: float
    mse_cloud: float
    mse_edge: float

    def __post_init__(self):
        _require(
            _finite(self.payload_bits) and self.payload_bits > 0,
            f"payload_bits must be finite and > 0 (got {self.payload_bits!r})",
        )
        _require(
            _finite(self.compute_delay) and self.compute_delay >= 0,
            f"compute_delay must be finite and >= 0 (got {self.compute_delay!r})",
        )
        _require(
            _finite(self.delay_budget) and self.delay_budget > self.compute_delay,
            "delay_budget must be finite and exceed compute_delay, otherwise "
            f"cloud inference is never usable (got {self.delay_budget!r} "
            f"vs {self.compute_delay!r})",
        )
        _require(
            _finite(self.mse_cloud) and self.mse_cloud > 0,
            f"mse_cloud must be finite and > 0 (got {self.mse_cloud!r})",
        )
        _require(
            _finite(self.mse_edge) and self.mse_edge >= self.mse_cloud,
            "mse_edge must be finite and >= mse_cloud (cloud model is the "
            f"more accurate one; got {self.mse_edge!r} vs {self.mse_cloud!r})",
        )


@dataclass(frozen=True)
class AirInterface:
    """Link-side parameters: uplink bandwidth (Hz) and composite SNR.

    ``snr`` folds transmit power, controlled received power, and noise into
    one linear ratio; ``math.inf`` selects the interference-limited regime.
    """

    bandwidth: float
    snr: float = math.inf

    def __post_init__(self):
        _require(
            _finite(self.bandwidth) and self.bandwidth > 0,
            f"bandwidth must be finite and > 0 (got {self.bandwidth!r})",
        )
        _require(
            not math.isnan(self.snr) and self.snr > 0,
            f"snr must be > 0 (math.inf allowed; got {self.snr!r})",
        )


@dataclass(frozen=True)
class Scenario:
    """A full model instance: deployment + workload + air interface."""

    deployment: DeploymentConfig
    workload: InferenceWorkload
    air: AirInterface

    def __post_init__(self):
        r = self.inference_rate
        _require(
            math.isfinite(r) and r > 0,
            f"derived inference rate must be finite and > 0 (got {r!r})",
        )

    @property
    def inference_rate(self) -> float:
        """Normalized minimum rate (bit/s/Hz) for the cloud output to meet the budget."""
        return _rate(self.workload, self.air)


def _rate(w: InferenceWorkload, air: AirInterface) -> float:
    """payload / (bandwidth * (delay_budget - compute_delay)), in bit/s/Hz."""
    return w.payload_bits / (air.bandwidth * (w.delay_budget - w.compute_delay))


def _mix(w: InferenceWorkload, p: float) -> float:
    """Average MSE when the cloud output is used with probability ``p``."""
    return w.mse_edge - (w.mse_edge - w.mse_cloud) * p


# ---------------------------------------------------------------------------
# Auxiliary functions and their inverse
# ---------------------------------------------------------------------------


def coverage_exponent(x: float) -> float:
    """sqrt(x)*arctan(sqrt(x)): the exponent of the uplink coverage probability.

    The probability that the uplink SINR exceeds a threshold x is
    exp(-coverage_exponent(x)) under the model assumptions; strictly
    increasing from 0 with unbounded range.
    """
    _require(_finite(x) and x >= 0, f"x must be finite and >= 0 (got {x!r})")
    u = math.sqrt(x)
    return u * math.atan(u)


def sinr_threshold(x: float) -> float:
    """2**x - 1: the SINR needed to sustain spectral efficiency x (bit/s/Hz).

    Saturates to math.inf once 2**x exceeds the float64 range.
    """
    _require(_finite(x) and x >= 0, f"x must be finite and >= 0 (got {x!r})")
    if x >= _EXP2_OVERFLOW:
        return math.inf
    return 2.0 ** x - 1.0


def coverage_exponent_inverse(y: float) -> float:
    """Inverse of ``coverage_exponent``: the x with sqrt(x)*arctan(sqrt(x)) = y.

    Bracketed bisection on u*arctan(u) = y with u = sqrt(x) (initial bracket
    [0, max(10, y+2)], grown geometrically until it brackets, 1e-13 absolute
    tolerance on u), then a few Newton steps to polish the root to machine
    precision so the round-trip holds in relative terms even for tiny y.
    """
    _require(_finite(y) and y >= 0, f"y must be finite and >= 0 (got {y!r})")
    if y == 0.0:
        return 0.0

    def g(u: float) -> float:
        return u * math.atan(u) - y

    hi = max(10.0, y + 2.0)
    while g(hi) < 0.0:
        hi *= 2.0
    u = bisect_root(g, 0.0, hi, tol=1e-13)
    for _ in range(3):
        slope = math.atan(u) + u / (1.0 + u * u)
        if slope == 0.0:
            break
        u -= g(u) / slope
    return u * u


def _gate_probability(x: float) -> float:
    """exp(-coverage_exponent(sinr_threshold(x))): probability that spectral
    efficiency demand x is met on the uplink."""
    if x >= _EXP2_OVERFLOW or math.isinf(x):
        return 0.0
    return math.exp(-coverage_exponent(sinr_threshold(x)))


# ---------------------------------------------------------------------------
# Forward model
# ---------------------------------------------------------------------------


def mean_cell_load(d: DeploymentConfig) -> float:
    """Mean number of devices sharing the typical device's serving AP,
    1 + 1.28/lambda_hat (the typical device included)."""
    return 1.0 + _LOAD_COEFF / d.lambda_hat


def delay_cdf(s: Scenario, d: float) -> float:
    """Probability that the cloud round-trip delay is at most ``d``.

    Valid for d > compute_delay; tends to 0 as d approaches the compute
    delay from above and to 1 as d grows.
    """
    w = s.workload
    _require(
        not math.isnan(d) and d > w.compute_delay,
        f"d must exceed compute_delay={w.compute_delay!r} (got {d!r})",
    )
    nu = mean_cell_load(s.deployment)
    stretch = (w.delay_budget - w.compute_delay) / (d - w.compute_delay)
    return _gate_probability(nu * s.inference_rate * stretch)


def cloud_use_probability(s: Scenario) -> float:
    """Probability that the cloud output arrives within the delay budget
    (and is therefore used); equals ``delay_cdf`` at the budget."""
    return delay_cdf(s, s.workload.delay_budget)


def average_mse(s: Scenario) -> float:
    """Mean output MSE under delay-gated selection between cloud and edge
    models; always within [mse_cloud, mse_edge]."""
    return _mix(s.workload, cloud_use_probability(s))


def asymptotic_mse(w: InferenceWorkload, air: AirInterface) -> float:
    """Average MSE in the infinite-AP-density limit (mean cell load 1).

    Tends to mse_cloud as the inference rate vanishes and to mse_edge as it
    grows without bound.
    """
    return _mix(w, _gate_probability(_rate(w, air)))


def critical_ap_density(
    w: InferenceWorkload,
    air: AirInterface,
    lambda_dev: float,
    mse_target: float,
) -> float:
    """Minimum AP density whose average MSE meets ``mse_target``.

    Returns 0 when the target is at or above mse_edge (any density works).
    Raises InfeasibleTargetError when the target is at or below the
    asymptotic MSE, since no finite density can reach it.
    """
    _require(
        _finite(lambda_dev) and lambda_dev > 0,
        f"lambda_dev must be finite and > 0 (got {lambda_dev!r})",
    )
    _require(
        _finite(mse_target) and mse_target > 0,
        f"mse_target must be finite and > 0 (got {mse_target!r})",
    )
    if mse_target >= w.mse_edge:
        return 0.0
    m_asy = asymptotic_mse(w, air)
    if mse_target <= m_asy:
        raise InfeasibleTargetError(
            f"target MSE {mse_target!r} is at or below the asymptotic MSE "
            f"{m_asy!r}; no finite AP density can reach it",
            asymptotic_mse=m_asy,
        )
    r = _rate(w, air)
    y = math.log((w.mse_edge - w.mse_cloud) / (w.mse_edge - mse_target))
    x = coverage_exponent_inverse(y)
    denom = math.log1p(x) / (_LN2 * r) - 1.0
    if denom <= 0.0:
        # Only reachable through rounding at the feasibility boundary.
        raise InfeasibleTargetError(
            f"target MSE {mse_target!r} sits at the feasibility boundary "
            f"(asymptotic MSE {m_asy!r})",
            asymptotic_mse=m_asy,
        )
    return _LOAD_COEFF * lambda_dev / denom


def critical_edge_mse(s: Scenario, mse_target: float) -> float:
    """Largest edge-model MSE whose average MSE still meets ``mse_target``.

    Depends on the scenario only through deployment and rate; the
    scenario's own ``mse_edge`` field is ignored. Tends to the target
    itself as the cloud becomes unusable.
    """
    mc = s.workload.mse_cloud
    _require(
        _finite(mse_target) and mse_target >= mc,
        f"mse_target must be finite and >= mse_cloud={mc!r} (got {mse_target!r})",
    )
    p = cloud_use_probability(s)
    if p >= 1.0:
        raise ModelDomainError(
            "cloud output always meets the budget (cloud-use probability 1); "
            "any edge MSE is acceptable, so no finite maximum exists"
        )
    return (mse_target - mc * p) / (1.0 - p)
