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
from typing import Callable

from .errors import BracketError, InfeasibleTargetError, ModelDomainError

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
# Below this y, coverage_exponent_inverse returns the series y + y**2/3,
# whose next term (y**3/45) is far below double precision there.
_SERIES_MAX_Y = 1e-20
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


def _finite(x: float) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


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
        _require(
            _finite(self.lambda_ap) and self.lambda_ap > 0,
            "lambda_ap must be finite and > 0 (got {!r})",
            self.lambda_ap,
        )
        _require(
            _finite(self.lambda_dev) and self.lambda_dev > 0,
            "lambda_dev must be finite and > 0 (got {!r})",
            self.lambda_dev,
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
            "payload_bits must be finite and > 0 (got {!r})",
            self.payload_bits,
        )
        _require(
            _finite(self.compute_delay) and self.compute_delay >= 0,
            "compute_delay must be finite and >= 0 (got {!r})",
            self.compute_delay,
        )
        _require(
            _finite(self.delay_budget) and self.delay_budget > self.compute_delay,
            "delay_budget must be finite and exceed compute_delay, otherwise "
            "cloud inference is never usable (got {!r} vs {!r})",
            self.delay_budget,
            self.compute_delay,
        )
        _require(
            _finite(self.mse_cloud) and self.mse_cloud > 0,
            "mse_cloud must be finite and > 0 (got {!r})",
            self.mse_cloud,
        )
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
        _require(
            _finite(self.bandwidth) and self.bandwidth > 0,
            "bandwidth must be finite and > 0 (got {!r})",
            self.bandwidth,
        )
        _require(
            not math.isnan(self.snr) and self.snr > 0,
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
        r = self.inference_rate
        _require(_usable_rate(r), "derived inference rate must be finite and > 0 (got {!r})", r)

    @property
    def inference_rate(self) -> float:
        """Normalized minimum rate (bit/s/Hz) for the cloud output to meet the budget."""
        return _rate(self.workload, self.air)


def _rate(w: InferenceWorkload, air: AirInterface) -> float:
    """payload / (bandwidth * (delay_budget - compute_delay)), in bit/s/Hz."""
    return w.payload_bits / (air.bandwidth * (w.delay_budget - w.compute_delay))


def _usable_rate(r: float) -> bool:
    """Whether a derived inference rate is one a scenario may have."""
    return math.isfinite(r) and r > 0


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


def bisect_root(
    f: Callable[[float], float], lo: float, hi: float, tol: float
) -> float:
    """Find a root of monotone ``f`` on [lo, hi] by bracketed bisection.

    Returns the bracket midpoint once the bracket width is <= tol. Raises
    BracketError when f(lo) and f(hi) have the same (nonzero) sign. Never
    exceeds ceil(log2((hi-lo)/tol)) + 2 iterations.
    """
    if not (tol > 0):
        raise ModelDomainError(f"tol must be > 0 (got {tol!r})")
    if not (lo < hi):
        raise ModelDomainError(f"need lo < hi (got {lo!r}, {hi!r})")
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise BracketError(
            f"f({lo!r})={flo!r} and f({hi!r})={fhi!r} do not bracket a root"
        )
    max_iter = math.ceil(math.log2((hi - lo) / tol)) + 2
    for _ in range(max_iter):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def coverage_exponent(x: float) -> float:
    """sqrt(x)*arctan(sqrt(x)): the exponent of the uplink coverage probability.

    The probability that the uplink SINR exceeds a threshold x is
    exp(-coverage_exponent(x)) under the model assumptions; strictly
    increasing from 0 with unbounded range.
    """
    _require(_finite(x) and x >= 0, "x must be finite and >= 0 (got {!r})", x)
    u = math.sqrt(x)
    return u * math.atan(u)


def sinr_threshold(x: float) -> float:
    """2**x - 1: the SINR needed to sustain spectral efficiency x (bit/s/Hz).

    Saturates to math.inf once 2**x exceeds the float64 range.
    """
    _require(_finite(x) and x >= 0, "x must be finite and >= 0 (got {!r})", x)
    if x >= _EXP2_OVERFLOW:
        return math.inf
    return 2.0 ** x - 1.0


def coverage_exponent_inverse(y: float) -> float:
    """Inverse of ``coverage_exponent``: the x with sqrt(x)*arctan(sqrt(x)) = y.

    Bracketed bisection on u*arctan(u) = y with u = sqrt(x) (initial bracket
    [0, max(10, y+2)], grown geometrically until it brackets, 1e-13 absolute
    tolerance on u), then a few Newton steps to polish the root to machine
    precision. Below y = 1e-20, where the bisection leaves u too far from
    sqrt(y) for Newton to close the gap, the series y + y**2/3 is exact to
    double precision, so the round trip holds in relative terms for every y.
    """
    _require(_finite(y) and y >= 0, "y must be finite and >= 0 (got {!r})", y)
    if y < _SERIES_MAX_Y:
        return y + y * y / 3.0

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
        "d must exceed compute_delay={!r} (got {!r})",
        w.compute_delay,
        d,
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
        "lambda_dev must be finite and > 0 (got {!r})",
        lambda_dev,
    )
    _require(
        _finite(mse_target) and mse_target > 0,
        "mse_target must be finite and > 0 (got {!r})",
        mse_target,
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
        "mse_target must be finite and >= mse_cloud={!r} (got {!r})",
        mc,
        mse_target,
    )
    # q = 1 - p, the probability that the cloud output misses the budget,
    # through expm1 so that it keeps its relative precision as p nears 1
    x = mean_cell_load(s.deployment) * s.inference_rate
    if x >= _EXP2_OVERFLOW:
        q = 1.0
    else:
        q = -math.expm1(-coverage_exponent(math.expm1(x * _LN2)))
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
