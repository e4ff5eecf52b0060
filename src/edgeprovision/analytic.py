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
import operator
import sys
from dataclasses import dataclass

from .errors import InfeasibleTargetError, ModelDomainError

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
# Edge-model MSE as a multiple of the cloud model's where a spec or the CLI
# leaves it out.
_DEFAULT_EDGE_RATIO = 1.5


def _require(cond: bool, template: str, *values) -> None:
    """Raise ModelDomainError(template.format(*values)) unless ``cond``.

    The message is built only on failure: formatting float reprs on every
    passing check was a sizeable share of a closed-form call.
    """
    if not cond:
        raise ModelDomainError(template.format(*values))


def _require_finite(name: str, x, strict: bool = True) -> None:
    """Raise ModelDomainError unless ``x`` is a finite number > 0 (>= 0
    when not ``strict``); like ``_require``, the message is built only on
    failure."""
    if not (_finite(x) and (x > 0 if strict else x >= 0)):
        op = ">" if strict else ">="
        raise ModelDomainError(f"{name} must be finite and {op} 0 (got {x!r})")


def _finite(x: float) -> bool:
    """True for a finite int or float; False for a bool, like ``_as_number``."""
    return isinstance(x, (int, float)) and type(x) is not bool and math.isfinite(x)


def _as_number(x) -> float | None:
    """Coerce a scalar to float, or None if it is not numeric.

    YAML 1.1 parses unsigned-exponent literals like ``1.0e6`` as strings,
    so numeric strings are accepted too.
    """
    if isinstance(x, bool) or not isinstance(x, (int, float, str)):
        return None
    try:
        return float(x)
    except (OverflowError, ValueError):  # an int beyond the float range, or not a number
        return None


def _as_index(x) -> int | None:
    """``operator.index(x)``, or None for bools and non-integers."""
    if isinstance(x, bool):
        return None
    try:
        return operator.index(x)
    except TypeError:
        return None


def _worker_count(workers) -> int:
    """``workers`` as an int; ModelDomainError unless it is an integer >= 1."""
    w = _as_index(workers)
    _require(w is not None and w >= 1, "workers must be an integer >= 1 (got {!r})", workers)
    return w


def _snr_type(x) -> float:
    """An SNR as ``--snr`` or a spec's ``air.snr`` gives it: a number, or
    "inf"/"infinite" (any case) for the interference-limited regime; else
    ValueError. argparse names this function in its error for ``--snr``."""
    if isinstance(x, str) and x.strip().lower() in ("inf", "infinite"):
        return math.inf
    snr = _as_number(x)
    if snr is None:
        raise ValueError('a positive number or "inf"')
    return snr


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeploymentConfig:
    """AP and device densities of the Poisson deployment (per unit area)."""

    lambda_ap: float
    lambda_dev: float

    def __post_init__(self):
        _require_finite("lambda_ap", self.lambda_ap)
        _require_finite("lambda_dev", self.lambda_dev)

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
        _require_finite("payload_bits", self.payload_bits)
        _require_finite("compute_delay", self.compute_delay, strict=False)
        _require(
            _finite(self.delay_budget) and self.delay_budget > self.compute_delay,
            "delay_budget must be finite and exceed compute_delay, otherwise "
            "cloud inference is never usable (got {!r} vs {!r})",
            self.delay_budget,
            self.compute_delay,
        )
        _require_finite("mse_cloud", self.mse_cloud)
        _require(
            _finite(self.mse_edge) and self.mse_edge >= self.mse_cloud,
            "mse_edge must be finite and >= mse_cloud (cloud model is the "
            "more accurate one; got {!r} vs {!r})",
            self.mse_edge,
            self.mse_cloud,
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
        _require_finite("bandwidth", self.bandwidth)
        _require(
            isinstance(self.snr, (int, float)) and type(self.snr) is not bool and self.snr > 0,
            "snr must be > 0 (math.inf allowed; got {!r})",
            self.snr,
        )


@dataclass(frozen=True)
class Scenario:
    """A full model instance: deployment + workload + air interface."""

    deployment: DeploymentConfig
    workload: InferenceWorkload
    air: AirInterface

    def __post_init__(self):
        _require_finite("derived inference rate", self.inference_rate)

    @property
    def inference_rate(self) -> float:
        """Normalized minimum rate (bit/s/Hz) for the cloud output to meet the budget."""
        return _rate(self.workload, self.air)


def _rate(w: InferenceWorkload, air: AirInterface) -> float:
    """payload / (bandwidth * (delay_budget - compute_delay)), in bit/s/Hz."""
    return w.payload_bits / (air.bandwidth * (w.delay_budget - w.compute_delay))


def _payload(r_min: float, bandwidth: float, delay_budget: float, compute_delay: float) -> float:
    """r_min * bandwidth * (delay_budget - compute_delay): the payload in bits
    whose inference rate is ``r_min`` (the inverse of ``_rate``)."""
    return r_min * bandwidth * (delay_budget - compute_delay)


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
    increasing from 0 with unbounded range. math.inf for x = inf (the
    saturated ``sinr_threshold``).
    """
    if x != math.inf:
        _require_finite("x", x, strict=False)
    u = math.sqrt(x)
    return u * math.atan(u)


def sinr_threshold(x: float) -> float:
    """2**x - 1: the SINR needed to sustain spectral efficiency x (bit/s/Hz);
    expm1(x*ln 2) below x = 1/8, where 2**x - 1 loses 3+ bits to cancellation.
    Saturates to math.inf once 2**x exceeds the float64 range (x = inf too).
    """
    if x != math.inf:
        _require_finite("x", x, strict=False)
    if x >= _EXP2_OVERFLOW:
        return math.inf
    return 2.0 ** x - 1.0 if x >= 0.125 else math.expm1(x * _LN2)


# Above this y, coverage_exponent(x) = y only for an x beyond the float64
# range, and coverage_exponent_inverse returns math.inf.
_INVERSE_MAX_Y = coverage_exponent(sys.float_info.max)


def coverage_exponent_inverse(y: float) -> float:
    """Inverse of ``coverage_exponent``: the x with sqrt(x)*arctan(sqrt(x)) = y.

    Newton's method on g(u) = u*arctan(u) - y with u = sqrt(x), started at
    u = sqrt(y) + y. g is increasing and convex for u >= 0 and g >= 0 at
    the start (arctan(u) >= u/(1 + u)), so every step lowers u onto the
    root; it stops at the first step that does not, at most seven steps
    for any float y. Returns 0 for y = 0 and math.inf above
    ``_INVERSE_MAX_Y`` (y = inf included); below it no intermediate value
    overflows.
    """
    if y != math.inf:
        _require_finite("y", y, strict=False)
    if y == 0.0:
        return 0.0
    if y > _INVERSE_MAX_Y:
        return math.inf
    u = math.sqrt(y) + y
    while True:
        t = math.atan(u)
        # g'(u) = arctan(u) + u/(1 + u*u), written so that u*u cannot overflow
        nxt = u - (u * t - y) / (t + 1.0 / (u + 1.0 / u))
        if not nxt < u:
            return u * u
        u = nxt


def _gate_exponent(x: float) -> float:
    """coverage_exponent(sinr_threshold(x)), -ln P(spectral efficiency demand
    x is met on the uplink); math.inf once the threshold is."""
    return coverage_exponent(sinr_threshold(x))


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
        "d must exceed compute_delay={!r} (got {!r})",
        w.compute_delay,
        d,
    )
    nu = mean_cell_load(s.deployment)
    stretch = (w.delay_budget - w.compute_delay) / (d - w.compute_delay)
    return math.exp(-_gate_exponent(nu * s.inference_rate * stretch))


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
    return _mix(w, math.exp(-_gate_exponent(_rate(w, air))))


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
    _require_finite("lambda_dev", lambda_dev)
    _require_finite("mse_target", mse_target)
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
        "mse_target must be finite and >= mse_cloud={!r} (got {!r})",
        mc,
        mse_target,
    )
    # q = 1 - p, the probability that the cloud output misses the budget,
    # through expm1 so that it keeps its relative precision as p nears 1
    q = -math.expm1(-_gate_exponent(mean_cell_load(s.deployment) * s.inference_rate))
    if q <= 0.0:
        raise ModelDomainError(
            "cloud output always meets the budget (cloud-use probability 1); "
            "any edge MSE is acceptable, so no finite maximum exists"
        )
    return mc + (mse_target - mc) / q


# ---------------------------------------------------------------------------
# Metric table
# ---------------------------------------------------------------------------

# Each sweep metric, and the closed-form CLI command that answers it, as
# (scenario, mse_target, delay) -> value; the ``critical_*`` metrics read
# the target and ``delay_cdf_at`` the delay. The lambdas look each function
# up in this module when called, so a wrapper put in its place (a tracer's
# or a test's) is the one that runs.
_CLOSED_FORMS = {
    "avg_mse": lambda s, mt, d: average_mse(s),
    "asymptotic_mse": lambda s, mt, d: asymptotic_mse(s.workload, s.air),
    "critical_density": lambda s, mt, d: critical_ap_density(
        s.workload, s.air, s.deployment.lambda_dev, mt
    ),
    "critical_edge_mse": lambda s, mt, d: critical_edge_mse(s, mt),
    "delay_cdf_at": lambda s, mt, d: delay_cdf(s, d),
    "cloud_use_prob": lambda s, mt, d: cloud_use_probability(s),
}
