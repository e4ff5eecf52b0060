"""Stochastic-geometry Monte Carlo engine for the cellular uplink model:
Poisson AP and device deployments, minimum-pathloss association, full
pathloss-inversion power control, Rayleigh fading, one scheduled
transmitter per cell on the tagged resource block, and the delay-gated
edge/cloud output selection. Serves as the independent oracle for the
closed forms in ``analytic``.

``SimSettings`` declares every simulator setting that does not depend on
the scenario, with its default and its rules; ``SimConfig`` is those
settings plus a scenario. A sweep carries one ``SimSettings`` and builds a
``SimConfig`` at each grid point.

A trial runs five stages, each drawing from the trial's stream in turn:

1. *deploy*: AP count and positions, then device count and positions;
2. *associate*: shadowing of every device-AP pair (when enabled), then
   minimum-pathloss association, which fixes every cell's load;
3. *schedule*: one uniformly chosen transmitter per non-serving cell;
4. *fill*: the saturation fill (see ``full_buffer``);
5. *link*: fading, then SINR, rate, delay and the output choice.

Trials run in blocks of about ``_BLOCK_POINTS`` expected APs and devices
(``_Engine.trials``), one stage at a time for the whole block: after each
trial is deployed and associated on its own k-d tree, the stages keep the
block's APs, devices and fill candidates in flat arrays, joined end to end,
and do their bookkeeping (counting loads, grouping devices by cell, finding
each cell's first fill hit, the local fill's polygons) once per block.

Determinism contract: trial ``i`` always consumes the random stream keyed
``(master_seed, i)``, drawing in that stage order with the sizes it would
draw alone, and sums its own interference, so its result does not depend on
the other trials of its block, and results are bit-identical for any worker
count. The draws that fix the load (AP count and positions, device count
and positions, shadowing) all come before scheduling, so ``run_loads`` runs
only deploy and associate and still returns the loads ``run_trials`` sees.
Without shadowing it does not even associate every device: it counts the
typical cell's devices for a block of trials at once, inside the polygon
its neighbours' bisectors cut out (``_Engine.typical_loads``), and leaves
only near-ties to the k-d tree.

Two settings deliberately default to the closed forms' own
assumptions rather than to the literal finite-window system:

* ``full_buffer=True`` places one uniformly-positioned extra device in every
  empty non-serving cell, realizing the saturated network (every AP has a
  transmitter) that the analytic interference model assumes. Without it the
  simulated coverage exceeds the model by up to ~0.2 at unit density ratio.

  The fill associates window-uniform candidates ``2 * n_ap`` at a time; the
  first candidate to land in an empty cell fills it. Without shadowing it
  stops once fewer than a fifth of the cells are empty (after one slice on
  the canonical scenario), and each cell left is then filled
  locally: its twelve nearest APs' bisectors cut out a polygon that holds
  the cell (on a disc, three tangents of the window close the polygons of
  edge cells), and the first candidate drawn uniformly in the polygon
  (a triangle of the fan between the AP and the polygon's edges, picked by
  area) that lies in the window and has that AP as its nearest is kept.
  Rejection from a superset of the cell leaves the point exactly uniform in
  the cell, as a global candidate's would be. A torus cell whose polygon
  reaches half the side or is unbounded, or one no local draw hit, falls
  back to further global batches, at most ``_FILL_BATCHES`` in all.
  With shadowing, cells are not Voronoi cells, so the shadowed path uses
  global batches only, and screens them: while fewer than ``_SCREEN_MAX``
  of the cells are empty, a candidate first gets shadowing normals only
  for its pairs with the empty cells' APs and with its nearest AP, and is
  dropped when that AP's cell is not empty and beats every empty cell's
  AP, since its serving cell is then certainly not empty. The rest get a
  full row and an exact association, so the fill keeps the same first hit
  per cell as drawing every row would.
* ``load_model="mean_field"`` gives the typical device the mean bandwidth
  share ``bandwidth / mean_cell_load`` rather than its realized per-trial
  share. The closed forms replace the random load by its mean; validating
  them requires sharing that assumption. ``"realized"`` restores the
  per-trial share for sensitivity studies (at unit density ratio the
  load-mixture effect moves the delay CDF by ~0.1).
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .analytic import (
    AirInterface,
    DeploymentConfig,
    InferenceWorkload,
    Scenario,
    _LN2,
    _as_index,
    _finite,
    _mix,
    _require,
    _require_finite,
    _worker_count,
    average_mse,
    cloud_use_probability,
    delay_cdf,
    mean_cell_load,
)
from .errors import ModelDomainError
from .numerics import (
    EmpiricalCdf,
    RngStream,
    exponential_variate,
)

__all__ = [
    "CANONICAL_SEED",
    "TorusWindow",
    "DiscWindow",
    "SimSettings",
    "SimConfig",
    "TrialRealization",
    "SimSummary",
    "uplink_rate",
    "cloud_delay",
    "select_output",
    "run_trials",
    "run_loads",
    "simulate_trial",
    "canonical_validation_scenario",
    "delay_ks_statistic",
    "run_validation",
]

CANONICAL_SEED = 20260825
# Upper limit on the trials of one run. Aggregation keeps about 25 bytes per
# trial (17 for delay, cloud flag and load, 8 for the sorted delays), so
# 10**7 trials stay near 250 MB; at about 1.2 ms per canonical trial
# (unshadowed torus, window radius sqrt(50); 2 CPUs, one process) they are
# already some 3 CPU-hours, and more precision is better bought with
# separate seeds.
_MAX_TRIALS = 10**7
# Upper limits on the size of one trial, whose points and pathloss matrices
# are held in memory at once. Peak memory of one trial grows by about 63
# bytes per expected device and 590 per expected AP without shadowing, so
# 10**6 APs and devices stay under 0.6 GB. With shadowing, a pathloss matrix
# (the devices' at association, a fill slice's _FILL_SLICE * n_ap
# candidates' in the fill) costs 21-29 bytes per pair, so 10**7 pairs stay
# near 0.3 GB. (Measured on single trials, 2 CPUs, numpy 2.4.)
_MAX_TRIAL_POINTS = 10**6
_MAX_SHADOWED_PAIRS = 10**7
# Expected AP count of an automatically sized window: about 150 keeps both
# the boundary bias and the run time modest.
_AUTO_WINDOW_APS = 150.0
# Contiguous trial ranges submitted per pool worker and per config: more
# than one, so the last configs of a sweep still spread over every worker.
_RANGES_PER_WORKER = 2
_FILL_BATCHES = 6
# fill candidates per AP associated between two early-exit checks
_FILL_SLICE = 2
# Without shadowing, batch 1 stops before a slice once fewer than
# _FILL_STOP * n_ap non-serving cells are empty, and the local step fills the
# rest. A slice associates 2 * n_ap candidates, about 2 us * n_ap in all
# (k-d tree query and bookkeeping; 1.5-2.3 us measured on 2 CPUs, about 200
# APs), and the local step costs about 11 us more per cell (10-12 us: the
# polygon, the fan draw and its k-d tree point). A slice at E empty cells
# fills a share f of them, so it pays while f * E * 11 us > 2 us * n_ap,
# that is while E > 0.18 * n_ap / f. Cell areas are Gamma-distributed and
# the cells left are the small ones, so f falls from 0.72 for the first
# slice to 0.6 for the second: E > 0.25-0.3 * n_ap. Timed end to end
# (canonical torus; auto windows at lambda_hat 1 and 1000 on the torus, 1
# and 10 on the disc), stops of 0.15-0.3 are within noise of each other,
# 0.1 is 2-8% slower and 0.4 4-20% slower; 0.2 sits in the flat part.
_FILL_STOP = 0.2
# With shadowing, a fill slice screens its candidates against the empty
# cells' APs and their nearest AP (_Engine._screen) while fewer
# than _SCREEN_MAX * n_ap cells are empty, and draws its whole block of
# normals otherwise. A whole block costs about 1.9 ms (2 * n_ap candidates
# times n_ap normals at about 20 ns each, with exponentials and distances;
# 2 CPUs, about 150 APs). Timed against it on the same slices (8 dB, torus
# and disc, lambda_hat 1-1000, 2,051 slices), a screened slice with a share
# f of the cells empty costs about 0.27 + 1.9 f times as much (least squares
# below f = 0.45): the k-d tree query and the empty cells' normals, then
# full rows for the candidates that pass, about f + 0.1 of them. The ratio
# reads 0.95 at f in [0.3, 0.4), 1.01 in [0.4, 0.5) and 1.37 in [0.6, 0.7),
# so the screen pays up to about f = 0.45. Screening against the K nearest
# APs instead passes fewer candidates (f + 0.02 at K = 3) but costs more
# than it saves where most slices are: at f < 0.05 the ratio is 0.30 at
# K = 1 and 0.37 at K = 3, and the whole fill is cheapest at K = 1.
_SCREEN_MAX = 0.45
# nearest APs whose bisectors bound a cell in the local fill
_FILL_NEIGHBOURS = 12
# perp((x, y)) = (-y, x) is (y, x) * _PERP
_PERP = np.array([-1.0, 1.0])
# directions of the disc tangents mirroring an AP, relative to its own
_DISC_TANGENTS = np.array([0.0, 2.0 * math.pi / 3.0, -2.0 * math.pi / 3.0])
_LN10 = math.log(10.0)
# Trials run in blocks, and a block holds about this many expected APs and
# devices in all, whatever the densities. The load-only path counts the
# typical cell of a block at once, from (trials x devices) arrays and
# smaller ones, which stay under 1 MB apiece (on the validate load checks,
# 2**16 cost about 5 MB more peak memory for a 5% faster load path). A full
# trial block joins its trials' APs, devices and fill candidates, which stay
# smaller still.
_BLOCK_POINTS = 2**14
# relative margin on squared distances by which the block count decides a
# device's cell; anything closer is left to the k-d tree
_TIE_SLACK = 1e-9


# ---------------------------------------------------------------------------
# Windows and point processes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TorusWindow:
    """Square window [0, 2*radius)^2 with wrap-around (toroidal) distance."""

    radius: float

    def __post_init__(self):
        _require_finite("radius", self.radius)

    @property
    def side(self) -> float:
        return 2.0 * self.radius

    @property
    def area(self) -> float:
        return self.side * self.side

    @property
    def center(self) -> np.ndarray:
        return np.array([self.radius, self.radius])

    def sample(self, stream: RngStream, n: int) -> np.ndarray:
        return stream.uniform((n, 2)) * self.side


@dataclass(frozen=True)
class DiscWindow:
    """Disc of given radius centered at the origin; plain Euclidean distance."""

    radius: float

    def __post_init__(self):
        _require_finite("radius", self.radius)

    @property
    def area(self) -> float:
        return math.pi * self.radius * self.radius

    @property
    def center(self) -> np.ndarray:
        return np.zeros(2)

    def sample(self, stream: RngStream, n: int) -> np.ndarray:
        r = self.radius * np.sqrt(stream.uniform(n))
        theta = 2.0 * math.pi * stream.uniform(n)
        return np.column_stack([r * np.cos(theta), r * np.sin(theta)])


def _sq_dist(a: np.ndarray, b: np.ndarray, side: float | None) -> np.ndarray:
    """Squared distances between the points of ``a`` and ``b`` (``(..., 2)``
    arrays, broadcast against each other), optionally toroidal.

    Computed in place: the fill calls this once per candidate slice, and
    each extra slice-sized temporary costs freshly mapped memory."""
    dx = a[..., 0] - b[..., 0]
    dy = a[..., 1] - b[..., 1]
    np.abs(dx, out=dx)
    np.abs(dy, out=dy)
    if side is not None:
        np.minimum(dx, side - dx, out=dx)
        np.minimum(dy, side - dy, out=dy)
    dx *= dx
    dy *= dy
    dx += dy
    return dx


def _bisector_polygon(d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The convex polygon around a point cut out by the half-planes
    ``x . d_i <= |d_i|**2 / 2`` (positions ``x`` relative to the point),
    that is by the bisectors between the point and its neighbours at
    displacements ``d`` (..., K, 2).

    Returns ``lo`` and ``hi`` (..., K) and ``rho`` (...). Bisector i is the
    line ``d_i / 2 + s perp(d_i)`` with ``perp((x, y)) = (-y, x)``, and its
    stretch ``lo_i <= s <= hi_i`` that satisfies every half-plane is an
    edge of the polygon (none when ``lo_i > hi_i``). A bounded convex
    polygon is farthest from the point at a vertex, that is at an end of
    an edge, so ``rho`` is the largest norm among the edges' ends,
    inflated by 1e-9 against rounding; a polygon with an edge that has no
    end is unbounded, and its ``rho`` is nan.
    """
    half = 0.5 * (d * d).sum(axis=-1)
    # |d_i / 2 + s perp(d_i)|**2 = half_i (1/2 + 2 s**2); half-plane j keeps
    # s * det(d_i, d_j) <= half_j - d_i . d_j / 2. A parallel one (det 0)
    # constrains nothing here; exactly parallel bisectors have probability
    # zero.
    x, y = d[..., 0], d[..., 1]
    det = x[..., :, None] * y[..., None, :] - y[..., :, None] * x[..., None, :]
    room = half[..., None, :] - 0.5 * (d @ np.swapaxes(d, -1, -2))
    with np.errstate(all="ignore"):
        s = room / det
        hi = np.where(det > 0.0, s, np.inf).min(axis=-1)
        lo = np.where(det < 0.0, s, -np.inf).max(axis=-1)
        far = half * (0.5 + 2.0 * np.maximum(lo * lo, hi * hi))
        rho = np.sqrt(np.where(lo <= hi, far, 0.0).max(axis=-1)) * (1.0 + 1e-9)
    rho[~((rho > 0.0) & np.isfinite(rho))] = np.nan
    return lo, hi, rho


def _polygon_points(d: np.ndarray, lo: np.ndarray, hi: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One point uniform in each bounded polygon of ``_bisector_polygon``
    (``d`` (n, K, 2), ``lo`` and ``hi`` (n, K)), relative to its center,
    from three uniforms per polygon (``u``, (n, 3)).

    The polygon is convex and holds its center, so it is the disjoint
    union of the triangles between the center and its edges. ``u[:, 0]``
    picks an edge with probability proportional to its triangle's area,
    ``(hi - lo) |d|**2 / 4`` (base ``(hi - lo) |d|``, height ``|d| / 2``),
    and ``u[:, 1]`` and ``u[:, 2]`` a uniform point of that triangle: the
    point at ``u[:, 1]`` along the edge, pulled toward the center to the
    fraction ``sqrt(u[:, 2])``. (A bounded polygon has bisectors on both
    sides of every line, so ``lo`` and ``hi`` are finite.)
    """
    area = np.maximum(hi - lo, 0.0) * (d * d).sum(axis=-1)
    cum = np.cumsum(area, axis=1)
    # the pick stays below the total, so it never falls past the last edge
    total = cum[:, -1:]
    pick = np.minimum(u[:, :1] * total, np.nextafter(total, 0.0))
    edge = (cum <= pick).sum(axis=1)
    rows = np.arange(len(d))
    e, e_lo = d[rows, edge], lo[rows, edge]
    s = e_lo + u[:, 1] * (hi[rows, edge] - e_lo)
    return np.sqrt(u[:, 2:]) * (0.5 * e + s[:, None] * (e[:, ::-1] * _PERP))


# ---------------------------------------------------------------------------
# Single-link primitives
# ---------------------------------------------------------------------------


def uplink_rate(sinr: float, bandwidth: float, load: float) -> float:
    """(bandwidth/load) * log2(1 + sinr), in bit/s.

    ``load`` is the number of devices sharing the serving AP's bandwidth;
    a fractional value is allowed so the mean share can be used directly.
    """
    _require_finite("bandwidth", bandwidth)
    _require_finite("load", load)
    _require_finite("sinr", sinr, strict=False, inf=True)
    return (bandwidth / load) * (math.log1p(sinr) / _LN2)


def cloud_delay(rate: float, w: InferenceWorkload) -> float:
    """Round-trip cloud delay payload/rate + compute_delay; inf when the
    rate underflows to zero (sentinel beyond any queried delay)."""
    _require_finite("rate", rate, strict=False, inf=True)
    if rate == 0.0:
        return math.inf
    return w.payload_bits / rate + w.compute_delay


def select_output(delay: float, w: InferenceWorkload) -> bool:
    """Delay-gated output selection: whether the cloud result is used, which
    it is iff it meets the budget (inclusive)."""
    _require(not math.isnan(delay), "delay must not be NaN (got {!r})", delay)
    return delay <= w.delay_budget


# ---------------------------------------------------------------------------
# Configuration and results
# ---------------------------------------------------------------------------


def _sim_problems(values: dict, names: dict | None = None) -> list[str]:
    """Every broken simulator-setting rule, one message each.

    ``values`` maps every ``SimSettings`` field name to its value; other
    keys are ignored. A message names its field by ``names[field]`` when
    given (a spec key, say), else by the field itself. A None window radius
    (sized automatically) and a None sigma (no shadowing) pass.
    """
    names = names or {}
    problems = []

    def check(field: str, ok: bool, rule: str) -> None:
        if not ok:
            name = names.get(field, field)
            problems.append(f"{name} must be {rule} (got {values[field]!r})")

    n = _as_index(values["trials"], 1, _MAX_TRIALS + 1)
    check("trials", n is not None, f"an integer in [1, {_MAX_TRIALS}]")
    radius = values["window_radius"]
    check("window_radius", radius is None or _finite(radius) and radius > 0, "finite and > 0")
    seed = _as_index(values["master_seed"], 0, 2**64)
    check("master_seed", seed is not None, "an integer in [0, 2**64)")
    sigma = values["shadowing_sigma_db"]
    check("shadowing_sigma_db", sigma is None or _finite(sigma) and sigma >= 0, "finite and >= 0")
    check("boundary", values["boundary"] in ("torus", "disc"), "torus|disc")
    check("load_model", values["load_model"] in ("mean_field", "realized"), "mean_field|realized")
    check("full_buffer", isinstance(values["full_buffer"], (bool, np.bool_)), "True or False")
    return problems


@dataclass(frozen=True)
class SimSettings:
    """Monte Carlo settings that do not depend on the scenario.

    ``window_radius`` is the half-side of the square window in torus mode
    and the disc radius in disc mode; None sizes the window to hold about
    ``_AUTO_WINDOW_APS`` = 150 expected APs at the scenario's AP density.
    ``shadowing_sigma_db`` enables lognormal shadowing (i.i.d. per
    device-AP pair); None disables it. See the module docstring for
    ``full_buffer`` and ``load_model``. Every broken field is listed in
    one ``ModelDomainError``.
    """

    trials: int = 2000
    window_radius: float | None = None
    master_seed: int = CANONICAL_SEED
    shadowing_sigma_db: float | None = None
    boundary: str = "torus"
    load_model: str = "mean_field"
    full_buffer: bool = True

    def __post_init__(self):
        problems = _sim_problems(vars(self))
        if problems:
            raise ModelDomainError("\n".join(problems))


@dataclass(frozen=True, kw_only=True)
class SimConfig(SimSettings):
    """One Monte Carlo experiment: ``SimSettings`` for one scenario.

    A None ``window_radius`` is replaced by the automatically sized radius.
    A trial may hold at most ``_MAX_TRIAL_POINTS`` expected APs and
    devices, and with shadowing at most ``_MAX_SHADOWED_PAIRS`` expected
    point-AP pairs in one pathloss matrix; a larger one raises
    ModelDomainError.
    """

    scenario: Scenario

    def __post_init__(self):
        super().__post_init__()
        if self.window_radius is None:
            object.__setattr__(
                self, "window_radius", _auto_radius(self.scenario.deployment, self.boundary)
            )
        dep = self.scenario.deployment
        aps, devs = (lam * self.window.area for lam in (dep.lambda_ap, dep.lambda_dev))
        pairs = 0.0 if self.shadowing_sigma_db is None else max(devs, _FILL_SLICE * aps) * aps
        sizes = [
            (aps + devs, _MAX_TRIAL_POINTS, "APs and devices"),
            (pairs, _MAX_SHADOWED_PAIRS, "pathloss pairs with shadowing_sigma_db"),
        ]
        problems = [
            f"lambda_ap, lambda_dev and window_radius give {n:.4g} expected {what} "
            f"per trial; at most {limit} are allowed"
            for n, limit, what in sizes
            if not n <= limit
        ]
        if problems:
            raise ModelDomainError("\n".join(problems))
        if aps < 100:
            warnings.warn(
                f"window holds only {aps:.1f} expected APs; "
                "boundary effects may be visible below ~100",
                stacklevel=3,  # the caller of the dataclass-generated __init__
            )

    @property
    def window(self):
        if self.boundary == "torus":
            return TorusWindow(self.window_radius)
        return DiscWindow(self.window_radius)


def _auto_radius(dep: DeploymentConfig, boundary: str) -> float:
    """Window radius holding ``_AUTO_WINDOW_APS`` expected APs."""
    area = _AUTO_WINDOW_APS / dep.lambda_ap
    if boundary == "torus":
        return math.sqrt(area) / 2.0
    return math.sqrt(area / math.pi)


@dataclass(frozen=True, eq=False)
class TrialRealization:
    """One sampled network snapshot and its derived link quantities.

    Coordinates are shifted so the typical device sits at the origin;
    ``dev_points`` lists it first. ``interferer_set`` holds the single
    scheduled transmitter of every non-serving cell (including
    saturation-fill devices when ``full_buffer`` is on).
    """

    ap_points: np.ndarray
    dev_points: np.ndarray
    serving_ap: int
    load_nu: int
    interferer_set: np.ndarray
    sinr_u: float
    rate_u: float
    delay: float
    used_cloud: bool


@dataclass(frozen=True)
class SimSummary:
    """Aggregate of a Monte Carlo run."""

    delay_samples: EmpiricalCdf
    cloud_use_fraction: float
    mse_estimate: float
    mean_load: float
    trial_count: int


# ---------------------------------------------------------------------------
# Trial engine
# ---------------------------------------------------------------------------


class _Block:
    """The trials of one block: each one's stream, deployed ``(ap, dev)``
    points and AP k-d tree.

    The APs are joined end to end, trial ``t``'s at ``ap[off[t]:off[t + 1]]``,
    so one index into ``ap`` names a cell of the block, and ``trial[c]`` is
    the trial of cell ``c``. The devices ``dev`` and the stages' other
    arrays (cells, fill candidates) are joined the same way: each trial's
    entries together, in trial order.
    """

    def __init__(self, streams: list, deployed: list, trees: list):
        self.streams, self.trees = streams, trees
        self.n_ap = np.array([len(ap) for ap, _ in deployed])
        self.off = np.concatenate([[0], np.cumsum(self.n_ap)])
        self.ap = np.concatenate([ap for ap, _ in deployed])
        self.dev = np.concatenate([dev for _, dev in deployed])
        self.trial = np.repeat(np.arange(len(deployed)), self.n_ap)

    def bounds(self, trial: np.ndarray) -> list[int]:
        """Where each trial's entries start in a joined array whose entries
        belong to trials ``trial`` (ascending), then where the last ends."""
        return np.searchsorted(trial, np.arange(len(self.streams) + 1)).tolist()

    def parts(self, trial: np.ndarray) -> list[tuple[int, int, int]]:
        """``(t, lo, hi)`` for each trial ``t`` with entries in such an array:
        its entries are ``[lo, hi)``."""
        bounds = self.bounds(trial)
        return [(t, lo, hi) for t, (lo, hi) in enumerate(zip(bounds, bounds[1:])) if hi > lo]

    def cells(self, t: int) -> slice:
        """Trial ``t``'s cells."""
        return slice(int(self.off[t]), int(self.off[t + 1]))

    def serve(self, points: np.ndarray, parts: list) -> tuple[np.ndarray, np.ndarray]:
        """Unshadowed association of joined ``points``, trial ``t``'s at
        ``[lo, hi)`` for each ``(t, lo, hi)`` in ``parts``: each point's
        nearest AP of its trial (one k-d tree query per trial), as a cell of
        the block, and its own pathloss ``dist**4``. Draws nothing."""
        serving = np.empty(len(points), dtype=np.intp)
        dist = np.empty(len(points))
        for t, lo, hi in parts:
            dist[lo:hi], serving[lo:hi] = self.trees[t].query(points[lo:hi])
            serving[lo:hi] += self.off[t]
        return serving, dist**4


class _Engine:
    """Per-config precomputation plus the staged trial kernel.

    ``trials`` runs a block of trials one stage at a time: each trial is
    deployed from its own stream, then ``associate``, ``schedule``,
    ``fill`` and ``link`` each take the whole block (``_Block``) and keep
    its trials' arrays joined end to end, so their bookkeeping runs once
    per block. The draws, the k-d trees and their queries, and each
    trial's interference sum stay per trial. ``typical_loads`` counts the
    typical cell of a block of deployed trials without the later stages.
    """

    def __init__(self, cfg: SimConfig):
        s = cfg.scenario
        self.cfg = cfg
        self.window = cfg.window
        self.torus = cfg.boundary == "torus"
        self.side = self.window.side if self.torus else None
        self.center = self.window.center
        self.expected_aps = s.deployment.lambda_ap * self.window.area
        self.expected_devs = s.deployment.lambda_dev * self.window.area
        self.snr_inv = 1.0 / s.air.snr
        self.mean_share = mean_cell_load(s.deployment)
        sigma = cfg.shadowing_sigma_db
        self.sigma_scale = None if sigma is None else sigma * _LN10 / 10.0

    def blocks(self, lo: int, hi: int) -> list[range]:
        """Trials [lo, hi) in consecutive blocks of about ``_BLOCK_POINTS``
        expected APs and devices in all."""
        size = max(1, int(_BLOCK_POINTS / (1.0 + self.expected_aps + self.expected_devs)))
        return [range(i, min(i + size, hi)) for i in range(lo, hi, size)]

    def _pathloss(self, points: np.ndarray, ap: np.ndarray, normals: np.ndarray) -> np.ndarray:
        """Shadowed pathlosses between ``points`` and ``ap`` (broadcast as in
        ``_sq_dist``) from the pairs' shadowing normals."""
        pathloss = _sq_dist(points, ap, self.side)
        pathloss *= pathloss
        gain = self.sigma_scale * normals
        pathloss *= np.exp(gain, out=gain)
        return pathloss

    def _serve(self, points: np.ndarray, ap: np.ndarray, normals: np.ndarray):
        """Shadowed association of one trial's points from the normals of
        every point-AP pair: serving index into ``ap``, own pathloss and
        pathloss row (for cross pathlosses) per point. Draws nothing."""
        return self._least(self._pathloss(points[:, None], ap[None], normals))

    @staticmethod
    def _least(pathloss: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``_serve``'s result from the points' pathloss rows."""
        serving = np.argmin(pathloss, axis=1)
        return serving, pathloss[np.arange(len(pathloss)), serving], pathloss

    def deploy(self, stream: RngStream) -> tuple[np.ndarray, np.ndarray]:
        """AP and device positions of one trial, the typical device first at
        the window center. The AP count is Poisson conditioned on being
        positive: a Poisson draw of 0 is replaced by a zero-truncated Poisson
        count, by inverse CDF from one uniform, not redrawn (which takes
        about 1/mean draws when the mean is tiny)."""
        mean = self.expected_aps
        n_ap = stream.poisson(mean)
        if n_ap == 0:
            # the least k >= 1 with P(1 <= N <= k) >= u P(N >= 1)
            target = stream.uniform() * -math.expm1(-mean)
            n_ap, term = 1, mean * math.exp(-mean)
            cdf = term
            while cdf < target and term > 0.0:
                n_ap += 1
                term *= mean / n_ap
                cdf += term
        ap = self.window.sample(stream, n_ap)
        n_dev = stream.poisson(self.expected_devs)
        dev = np.empty((n_dev + 1, 2))
        dev[0] = self.center
        dev[1:] = self.window.sample(stream, n_dev)
        return ap, dev

    def associate(self, streams: list, deployed: list):
        """Minimum-pathloss association of every device of the deployed
        ``(ap, dev)`` trials, whose streams are ``streams``.

        Each trial builds its AP k-d tree (the shadowed fill screens with it
        too). Without shadowing the block serves every device at once
        (``_Block.serve``); with it, each trial in turn draws its normals and
        serves its devices (``_serve``), its pathloss matrix freed before the
        next is built. Returns the ``_Block``, then for its joined devices
        ``dev`` their serving cells, own pathlosses and, when shadowed, cross
        pathlosses to their trial's typical cell ``a0`` (else None), then
        every cell's device count and each trial's ``a0``.
        """
        from scipy.spatial import cKDTree

        aps = [ap for ap, _ in deployed]
        block = _Block(streams, deployed, [cKDTree(ap, boxsize=self.side) for ap in aps])
        dev = block.dev
        starts = np.cumsum([0] + [len(d) for _, d in deployed])
        parts = list(zip(range(len(aps)), starts[:-1], starts[1:]))
        cross = None
        if self.sigma_scale is None:
            serving, own = block.serve(dev, parts)
        else:
            serving = np.empty(len(dev), dtype=np.intp)
            own, cross = np.empty(len(dev)), np.empty(len(dev))
            for (t, lo, hi), ap in zip(parts, aps):
                cell, own[lo:hi], pathloss = self._serve(
                    dev[lo:hi], ap, streams[t].normal((hi - lo, len(ap)))
                )
                serving[lo:hi] = cell + block.off[t]
                cross[lo:hi] = pathloss[:, cell[0]]
        counts = np.bincount(serving, minlength=len(block.ap))
        return block, serving, own, counts, cross, serving[starts[:-1]]

    def schedule(
        self, block: _Block, serving: np.ndarray, counts: np.ndarray, a0: np.ndarray
    ) -> np.ndarray:
        """Index of one uniformly chosen device per non-empty cell other than
        its trial's serving cell ``a0``, among the joined devices with
        serving cells ``serving``, by cell. Each trial draws its choices
        from its stream, none when it has no such cell."""
        order = np.argsort(serving, kind="stable")
        starts = np.cumsum(counts) - counts
        busy = counts > 0
        busy[a0] = False
        cells = np.nonzero(busy)[0]
        picks = [
            block.streams[t].integers(0, counts[cells[lo:hi]])
            for t, lo, hi in block.parts(block.trial[cells])
        ]
        if not picks:
            return np.empty(0, dtype=np.intp)
        return order[starts[cells] + np.concatenate(picks)]

    def fill(
        self, block: _Block, counts: np.ndarray, a0: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
        """Saturation fill: one uniform device in every empty cell other than
        its trial's serving cell ``a0``.

        Global rejection batches of ``8 * n_ap * 2**b`` window-uniform
        candidates, at most ``_FILL_BATCHES``, each drawn and associated
        ``_FILL_SLICE * n_ap`` candidates at a time until no cell is left
        empty; the first candidate to land in a cell fills it. A slice runs
        every trial that still draws (``_fill_slice``), and then finds the
        first hit per cell for all of them at once. Without shadowing, a
        trial's first batch stops before a slice once fewer than
        ``_FILL_STOP * n_ap`` of its cells are empty, the cells still empty
        are filled locally (``_local_fill``: draws uniform in the polygon
        that the bisectors of each cell's nearest APs cut out, kept when
        they land in the cell), and only the cells that step does not fill
        go on to batches 2+. With shadowing, a slice in which fewer than
        ``_SCREEN_MAX * n_ap`` cells are empty is screened (``_screen``).
        A cell still empty at the batch cap gets none. Returns the filled
        cells (ascending), their points, own pathlosses and cross
        pathlosses to their trial's ``a0`` (None unless shadowed).
        """
        shadowed = self.sigma_scale is not None
        needed = counts == 0
        needed[a0] = False
        cells = np.nonzero(needed)[0]
        n = len(block.ap)
        pts, own, cross = np.empty((n, 2)), np.empty(n), np.empty(n)
        empty = np.bincount(block.trial[cells], minlength=len(block.streams))
        stop = 1 if shadowed else _FILL_STOP * block.n_ap

        def fill_from(got, points, points_own):
            needed[got] = False
            pts[got], own[got] = points, points_own
            empty[:] -= np.bincount(block.trial[got], minlength=len(empty))

        for batch in range(_FILL_BATCHES):
            if not empty.any():
                break
            if batch == 1 and not shadowed:
                left = np.nonzero(needed)[0]
                done, local_pts, local_own = self._local_fill(block, left)
                fill_from(left[done], local_pts[done], local_own[done])
                stop = 1
            for _ in range((8 << batch) // _FILL_SLICE):
                active = np.nonzero(empty >= stop)[0]
                if not active.size:
                    break
                sliced = list(
                    zip(*(self._fill_slice(block, t, needed, a0[t], empty[t]) for t in active))
                )
                cand, serving, cand_own = (np.concatenate(x) for x in sliced[:3])
                hit = np.nonzero(needed[serving])[0]
                got, first = np.unique(serving[hit], return_index=True)
                take = hit[first]
                if shadowed:
                    cross[got] = np.concatenate(sliced[3])[take]
                fill_from(got, cand[take], cand_own[take])
        cells = cells[~needed[cells]]
        return cells, pts[cells], own[cells], cross[cells] if shadowed else None

    def _fill_slice(self, block: _Block, t: int, needed: np.ndarray, a0: int, n_empty: int):
        """One global fill slice of trial ``t``: ``_FILL_SLICE * n_ap``
        window-uniform candidates from its stream, and for those kept their
        serving cells, own pathlosses and cross pathlosses to the trial's
        serving cell ``a0`` (None unless shadowed). With shadowing, a slice
        of a trial with fewer than ``_SCREEN_MAX * n_ap`` of the cells
        marked in ``needed`` is screened (``_screen``): only the candidates
        that may land in one of them are kept, and get a full row of
        shadowing normals, which picks the same hits as drawing the whole
        block."""
        stream, own_cells = block.streams[t], block.cells(t)
        ap, base = block.ap[own_cells], own_cells.start
        cand = self.window.sample(stream, _FILL_SLICE * len(ap))
        if self.sigma_scale is None:
            return cand, *block.serve(cand, [(t, 0, len(cand))]), None
        if n_empty < _SCREEN_MAX * len(ap):

            def drawn(rows, cols):
                return stream.normal(np.broadcast_shapes(rows.shape, cols.shape))

            cand, (serving, cand_own, pathloss) = self._screen(
                cand, ap, block.trees[t], needed[own_cells], drawn
            )
        else:
            normals = stream.normal((len(cand), len(ap)))
            serving, cand_own, pathloss = self._serve(cand, ap, normals)
        # a copy, so that the slice's pathloss matrix is freed now
        return cand, serving + base, cand_own, pathloss[:, a0 - base].copy()

    def _screen(self, cand: np.ndarray, ap: np.ndarray, tree, needed: np.ndarray, normals):
        """The candidates of one trial's shadowed fill slice that may land in
        a cell marked in ``needed``, in candidate order, and their
        ``_serve`` results (serving AP, own pathloss, pathloss rows).

        ``normals(rows, cols)`` returns the shadowing normals of the
        candidate-AP pairs ``(rows, cols)`` (index arrays, broadcast
        against each other) as one block. A candidate first gets normals
        for its pairs with every empty cell's AP, then for its pair with
        its nearest AP (k-d tree). When the nearest AP's cell is not empty
        and it has a lower pathloss than every empty cell's AP,
        the candidate is served by a cell that is not empty, whatever its
        other normals, so it is dropped. The rest get the other columns of
        their pathloss row from a third block of normals, over every AP
        whose cell is not empty, and the least pathloss in the row is their
        exact serving AP, as in ``_serve``. A pair in two blocks keeps the
        pathloss of the first (the one the screen used); the later block's
        draw for it goes unused, so every pair still has one independent
        normal. Every dropped candidate would have been a miss, so the
        slice keeps the same first hit per cell as the full-matrix rule on
        the same normals.
        """
        rows = np.arange(len(cand))[:, None]
        empty = np.nonzero(needed)[0]
        empty_pl = self._pathloss(cand[:, None], ap[empty], normals(rows, empty[None]))
        near = tree.query(cand)[1]
        near_pl = self._pathloss(cand, ap[near], normals(rows[:, 0], near))
        screen = np.where(needed[near], np.inf, near_pl)
        keep = np.nonzero(empty_pl.min(axis=1) <= screen)[0]
        kept = cand[keep]
        others = np.nonzero(~needed)[0]
        pathloss = np.empty((keep.size, len(ap)))
        pathloss[:, others] = self._pathloss(
            kept[:, None], ap[others], normals(keep[:, None], others[None])
        )
        pathloss[np.arange(keep.size), near[keep]] = near_pl[keep]
        pathloss[:, empty] = empty_pl[keep]
        return kept, self._least(pathloss)

    def _cell_polygon(self, block: _Block, cells: np.ndarray):
        """The polygon around each cell in ``cells`` (ascending by trial) that
        holds the whole cell (the part in the window): ``d``, ``lo``, ``hi``
        and ``rho`` as ``_bisector_polygon`` gives them.

        ``d`` holds the displacements of the AP's ``_FILL_NEIGHBOURS``
        nearest APs of its trial (minimum image on the torus): a point of
        the cell is no farther from the AP than from any neighbour, and on
        the torus no farther than from the neighbour's image at ``d``. On
        the disc the window adds three neighbours, the AP's mirror images
        across the window's tangents at the AP's own direction and at
        +-2pi/3 from it: their half-planes are the sides of the tangents
        that hold the window, and together they bound every polygon, edge
        cells included. On the torus ``rho`` is nan unless it is below half
        the side, so that the polygon around the AP does not wrap onto
        itself. (The AP's periodic images would bound a torus polygon too,
        but only with a vertex on an image's bisector, at half the side or
        more, so they would bound no cell that passes.) In a trial with
        ``_FILL_NEIGHBOURS`` APs or fewer, no polygon is bounded: its cells'
        ``rho`` is nan.
        """
        k = _FILL_NEIGHBOURS
        p = block.ap[cells]
        few = block.n_ap[block.trial[cells]] <= k
        # a cell of a trial with too few APs is its own neighbour, for shape
        nb = np.repeat(cells[:, None], k, axis=1)
        for t, lo, hi in block.parts(block.trial[cells]):
            if block.n_ap[t] > k:
                nb[lo:hi] = block.trees[t].query(p[lo:hi], k=k + 1)[1][:, 1:] + block.off[t]
        d = block.ap[nb] - p[:, None]
        if self.torus:
            d -= self.side * np.round(d / self.side)
        else:
            phi = np.arctan2(p[:, 1], p[:, 0])[:, None] + _DISC_TANGENTS
            u = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
            gap = self.window.radius - (u * p[:, None]).sum(axis=-1)
            d = np.concatenate([d, 2.0 * gap[..., None] * u], axis=1)
        lo, hi, rho = _bisector_polygon(d)
        if self.torus:
            rho[rho >= 0.5 * self.side] = np.nan
        rho[few] = np.nan
        return d, lo, hi, rho

    def _local_fill(
        self, block: _Block, cells: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One point uniform in each cell in ``cells`` (ascending by trial;
        a cell may repeat), with its own pathloss; unshadowed association
        only.

        Candidates are uniform in the cell's polygon (``_cell_polygon``,
        ``_polygon_points``), three uniforms each from the cell's trial's
        stream. Round ``r`` draws ``2**r`` of them per cell still to fill,
        one in the first round, for at most ``_FILL_BATCHES`` rounds, so a
        cell whose polygon is much larger than the cell does not hold up the
        others for many rounds. A round joins every trial's cells: each
        trial draws its uniforms and queries its k-d tree, and the polygon
        points and hits are found for all of them at once. The first
        candidate that lies in the window and has that AP as its nearest is
        kept (k-d tree, which also gives its own pathloss). Since the
        polygon holds the whole cell, the kept point is exactly uniform in
        the cell. Returns a mask of the cells that got a point (False where
        the polygon is not bounded or no round hit the cell), the points and
        their own pathlosses.
        """
        d, lo, hi, rho = self._cell_polygon(block, cells)
        todo = np.nonzero(np.isfinite(rho))[0]
        done = np.zeros(len(cells), dtype=bool)
        pts, own = np.empty((len(cells), 2)), np.empty(len(cells))
        d, lo, hi = d[todo], lo[todo], hi[todo]
        live = np.arange(todo.size)
        for r in range(_FILL_BATCHES):
            if not live.size:
                break
            m = 1 << r
            rows = np.repeat(live, m)
            owner = cells[todo[rows]]
            parts = block.parts(block.trial[owner])
            u = np.concatenate([block.streams[t].uniform((b - a, 3)) for t, a, b in parts])
            cand = block.ap[owner] + _polygon_points(d[rows], lo[rows], hi[rows], u)
            if self.torus:
                cand %= self.side
                in_window = True
            else:
                in_window = (cand * cand).sum(axis=-1) <= self.window.radius**2
            serving, cand_own = block.serve(cand, parts)
            hit = (in_window & (serving == owner)).reshape(live.size, m)
            first = hit.argmax(axis=1)
            won = np.nonzero(hit[np.arange(live.size), first])[0]
            take = won * m + first[won]
            got = todo[live[won]]
            done[got] = True
            pts[got], own[got] = cand[take], cand_own[take]
            live = np.delete(live, won)
        return done, pts, own

    def link(
        self,
        block: _Block,
        a0: np.ndarray,
        trial: np.ndarray,
        pts: np.ndarray,
        own: np.ndarray,
        cross: np.ndarray | None,
        loads: np.ndarray,
    ) -> list[tuple[float, float, float, bool]]:
        """Fading, SINR, rate, delay and output choice of each trial's
        typical device: ``(sinr, rate, delay, used_cloud)`` per trial.

        The interferers ``pts`` belong to trials ``trial`` (ascending), each
        trial's in the order its sum takes them, with own pathlosses
        ``own`` and cross pathlosses ``cross`` to their trial's serving
        cell ``a0``. ``cross`` is None on the k-d tree path, where they
        follow from the distances to that cell's AP. Each trial draws its
        fading from its stream and sums its own interference, so the sum
        rounds as it would for the trial alone.
        """
        s = self.cfg.scenario
        if cross is None:
            sq = _sq_dist(pts, block.ap[a0[trial]], self.side)
            cross = sq * sq
        ratio = own / cross
        bounds = block.bounds(trial)
        out = []
        for stream, lo, hi, load in zip(block.streams, bounds, bounds[1:], loads.tolist()):
            h = exponential_variate(stream, hi - lo + 1)
            interference = float(np.dot(ratio[lo:hi], h[1:]))
            denom = self.snr_inv + interference
            sinr = math.inf if denom == 0.0 else float(h[0]) / denom
            share = self.mean_share if self.cfg.load_model == "mean_field" else float(load)
            rate = uplink_rate(sinr, s.air.bandwidth, share)
            delay = cloud_delay(rate, s.workload)
            out.append((sinr, rate, delay, select_output(delay, s.workload)))
        return out

    def _tree_loads(self, streams: list, deployed: list) -> np.ndarray:
        """Serving-cell loads of deployed trials, by associating every
        device."""
        _, _, _, counts, _, a0 = self.associate(streams, deployed)
        return counts[a0]

    def typical_loads(self, indices: range) -> np.ndarray:
        """Serving-cell loads of the trials in ``indices``, equal to
        ``simulate_trial(cfg, i).load_nu`` of each.

        Each trial is deployed from its own stream. With shadowing, they are
        then counted by ``_tree_loads``, whose association draws each
        trial's normals from its stream in order. Without shadowing, where deploy
        makes every draw, the typical cell's devices are counted for all of
        them at once. ``a0`` is the AP nearest the window center, and the
        bisectors of its ``_FILL_NEIGHBOURS`` nearest APs (minimum image)
        cut out a polygon that holds its cell (``_bisector_polygon``); a
        device beyond the polygon's radius is out. A device is in the cell if it is inside
        every bisector and within half of ``r``, the farthest of those
        neighbours' distances: every other AP is at least ``r`` from
        ``a0``, so none is nearer. On the torus the neighbours' other
        images are at least half the side from ``a0``, so ``r`` is capped
        there. A device outside some bisector is out. Each of these holds
        with a relative slack of ``_TIE_SLACK`` on the squared distances,
        so rounding cannot make it disagree with the k-d tree. A device left
        undecided is compared with every AP of its trial. A trial with a
        device still undecided, or with ``_FILL_NEIGHBOURS`` APs or fewer,
        is counted by associating every device (``_tree_loads``). Two APs
        that tie for the center leave the typical device itself undecided.
        """
        streams = [RngStream(self.cfg.master_seed, i) for i in indices]
        return self._typical_counts(streams, [self.deploy(s) for s in streams])

    def _typical_counts(self, streams: list, deployed: list) -> np.ndarray:
        """``_tree_loads`` of the deployed ``(ap, dev)`` trials, the typical
        device first at the window center, decided for all of them at once
        as ``typical_loads`` describes; ``streams`` are the trials' streams,
        past deploy."""
        k = _FILL_NEIGHBOURS
        n_ap = np.array([len(ap) for ap, _ in deployed])
        n_dev = np.array([len(dev) for _, dev in deployed])
        fallback = (n_ap <= k) | (self.sigma_scale is not None)
        if fallback.all():
            return self._tree_loads(streams, deployed)
        ap_ok = np.arange(n_ap.max()) < n_ap[:, None]
        dev_ok = np.arange(n_dev.max()) < n_dev[:, None]
        aps, devs = np.zeros(ap_ok.shape + (2,)), np.zeros(dev_ok.shape + (2,))
        for t, (ap, dev) in enumerate(deployed):
            aps[t, : len(ap)], devs[t, : len(dev)] = ap, dev
        rows = np.arange(len(deployed))

        def away(sq: np.ndarray, near: np.ndarray) -> np.ndarray:
            # farther than ``near`` by more than the slack
            return sq - near > _TIE_SLACK * (sq + near)

        def displaced(points: np.ndarray, origin: np.ndarray) -> np.ndarray:
            x = points - origin
            if self.torus:
                x -= self.side * np.round(x / self.side)
            return x

        a0 = np.argmin(np.where(ap_ok, _sq_dist(aps, self.center, self.side), np.inf), axis=1)
        origin = aps[rows, a0][:, None]
        sq = np.where(ap_ok, _sq_dist(aps, origin, self.side), np.inf)
        sq[rows, a0] = np.inf
        nb = np.argpartition(sq, k - 1, axis=1)[:, :k]
        reach = sq[rows[:, None], nb].max(axis=1)
        if self.torus:
            reach = np.minimum(reach, 0.25 * self.side**2)
        d = displaced(aps[rows[:, None], nb], origin)
        # an unbounded polygon keeps every device
        rho = np.nan_to_num(_bisector_polygon(d)[2], nan=np.inf)
        x = displaced(devs, origin)
        sx = (x * x).sum(axis=-1)
        count = np.zeros(len(deployed), dtype=np.int64)
        # devices inside the polygon's radius: squared distances to a0 and
        # to each neighbour
        t, j = np.nonzero(dev_ok & (sx <= (rho * rho)[:, None]))
        own = sx[t, j]
        to_nb = own[:, None] + (d[t] * d[t]).sum(axis=-1) - 2.0 * (d[t] @ x[t, j, :, None])[..., 0]
        inside = away(to_nb, own[:, None]).all(axis=1) & away(0.25 * reach[t], own)
        undecided = ~inside & ~away(own[:, None], to_nb).any(axis=1)
        np.add.at(count, t[inside], 1)
        t, j, own = t[undecided], j[undecided], own[undecided]
        if t.size:
            to_all = np.where(ap_ok[t], _sq_dist(devs[t, j][:, None], aps[t], self.side), np.inf)
            to_all[np.arange(t.size), a0[t]] = np.inf
            nearest = to_all.min(axis=1)
            np.add.at(count, t, away(nearest, own))
            fallback[t[~away(nearest, own) & ~away(own, nearest)]] = True
        slow = np.nonzero(fallback)[0].tolist()
        if slow:
            count[slow] = self._tree_loads([streams[t] for t in slow], [deployed[t] for t in slow])
        return count

    def trials(self, indices: range, collect: bool = False):
        """Run the trials in ``indices`` as one block: deploy, associate,
        schedule, fill (with ``full_buffer``) and link.

        Trial ``i`` draws from stream ``(master_seed, i)`` in that stage
        order, with the sizes it would draw alone, so its result does not
        depend on the other trials of the block. Returns the trials'
        delays, output choices and loads as arrays, or with ``collect``
        their ``TrialRealization``s.
        """
        streams = [RngStream(self.cfg.master_seed, i) for i in indices]
        deployed = [self.deploy(stream) for stream in streams]
        block, serving, own, counts, cross, a0 = self.associate(streams, deployed)
        loads = counts[a0]
        members = self.schedule(block, serving, counts, a0)
        cells, pts, own = serving[members], block.dev[members], own[members]
        cross = None if cross is None else cross[members]
        if self.cfg.full_buffer:
            fill_cells, fill_pts, fill_own, fill_cross = self.fill(block, counts, a0)
            # each trial's scheduled devices, then its fill points
            cells = np.concatenate([cells, fill_cells])
            order = np.argsort(block.trial[cells], kind="stable")
            cells, pts = cells[order], np.concatenate([pts, fill_pts])[order]
            own = np.concatenate([own, fill_own])[order]
            cross = None if cross is None else np.concatenate([cross, fill_cross])[order]
        trial = block.trial[cells]
        links = self.link(block, a0, trial, pts, own, cross, loads)
        bounds = block.bounds(trial)

        if not collect:
            delays = np.array([delay for _, _, delay, _ in links])
            used = np.array([used for _, _, _, used in links], dtype=bool)
            return delays, used, loads
        return [
            TrialRealization(
                ap_points=ap - self.center,
                dev_points=d - self.center,
                serving_ap=int(a0[t] - block.off[t]),
                load_nu=int(loads[t]),
                interferer_set=pts[lo:hi] - self.center,
                sinr_u=sinr,
                rate_u=rate,
                delay=delay,
                used_cloud=bool(used),
            )
            for t, ((ap, d), (sinr, rate, delay, used), lo, hi) in enumerate(
                zip(deployed, links, bounds, bounds[1:])
            )
        ]


def _pool_size(workers: int, trials: int) -> int:
    """Worker processes worth starting: at most one per trial and per CPU."""
    return max(1, min(workers, trials, os.cpu_count() or 1))


def _map_ranges(fn, cfgs: list[SimConfig], workers: int) -> list[list]:
    """``fn(cfg, lo, hi)`` over contiguous trial ranges that cover every
    trial of every config; one list of results per config, in trial order.

    When ``_pool_size(workers, total trials)`` is more than one, a single
    process pool of that size runs every range of every config. All ranges
    are submitted at once, ``_RANGES_PER_WORKER`` per worker and config, so
    no config waits for the one before it to finish. If a range raises, the
    ranges not yet started are cancelled.

    ``workers`` must be an integer >= 1, else ModelDomainError is raised
    before any trial runs. SciPy's k-d tree is imported here, before the
    pool opens, so forked workers inherit it instead of each importing it
    again. The pool's own modules (``concurrent.futures.process`` and
    ``multiprocessing``) are imported here too, so a run that opens no pool
    never loads them.
    """
    n = _pool_size(_worker_count(workers), sum(cfg.trials for cfg in cfgs))
    if n == 1:
        return [[fn(cfg, 0, cfg.trials)] for cfg in cfgs]
    import scipy.spatial  # noqa: F401
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=n) as pool:
        futures = []
        for cfg in cfgs:
            parts = min(cfg.trials, n * _RANGES_PER_WORKER)
            bounds = np.linspace(0, cfg.trials, parts + 1, dtype=int)
            futures.append(
                [
                    pool.submit(fn, cfg, int(lo), int(hi))
                    for lo, hi in zip(bounds[:-1], bounds[1:])
                ]
            )
        try:
            return [[f.result() for f in per_cfg] for per_cfg in futures]
        except BaseException:
            for per_cfg in futures:
                for f in per_cfg:
                    f.cancel()
            raise


def _simulate_range(cfg: SimConfig, lo: int, hi: int):
    """Delays, output choices and loads of trials [lo, hi), run by
    ``_Engine.trials`` in the blocks of ``_Engine.blocks``."""
    engine = _Engine(cfg)
    parts = [engine.trials(block) for block in engine.blocks(lo, hi)]
    return tuple(np.concatenate(p) for p in zip(*parts))


def _load_range(cfg: SimConfig, lo: int, hi: int) -> np.ndarray:
    """Loads of trials [lo, hi), counted by ``_Engine.typical_loads`` in the
    blocks of ``_Engine.blocks``."""
    engine = _Engine(cfg)
    return np.concatenate([engine.typical_loads(block) for block in engine.blocks(lo, hi)])


def simulate_trial(cfg: SimConfig, index: int) -> TrialRealization:
    """Full realization of trial ``index`` (same stream and draws as
    ``run_trials`` uses for that index). ``index`` must be an integer in
    [0, ``cfg.trials``), else ModelDomainError is raised."""
    i = _as_index(index, 0, cfg.trials)
    _require(i is not None, "index must be an integer in [0, {}) (got {!r})", cfg.trials, index)
    return _Engine(cfg).trials(range(i, i + 1), collect=True)[0]


def _summarize(cfg: SimConfig, parts: list) -> SimSummary:
    """SimSummary of ``cfg`` from its ``_simulate_range`` results in trial
    order."""
    delays, used, loads = (np.concatenate(p) for p in zip(*parts))
    fraction = int(np.count_nonzero(used)) / cfg.trials
    return SimSummary(
        delay_samples=EmpiricalCdf(np.sort(delays)),
        cloud_use_fraction=fraction,
        mse_estimate=_mix(cfg.scenario.workload, fraction),
        mean_load=float(loads.mean()),
        trial_count=cfg.trials,
    )


def _run_many(cfgs: list[SimConfig], workers: int) -> list[SimSummary]:
    """``run_trials`` of every config, in order, sharing at most one pool
    of ``_pool_size(workers, total trials)`` processes."""
    parts = _map_ranges(_simulate_range, cfgs, workers)
    return [_summarize(cfg, p) for cfg, p in zip(cfgs, parts)]


def run_trials(cfg: SimConfig, workers: int = 1) -> SimSummary:
    """Run the Monte Carlo experiment and aggregate into a SimSummary.

    Trial ``i`` uses stream ``(master_seed, i)`` whatever the worker count,
    and aggregation is performed in trial order, so the summary is
    bit-identical for any ``workers`` value and any split of the trials
    between processes. At most one pool is opened, with at most one process
    per trial and per CPU.
    """
    return _run_many([cfg], workers)[0]


def run_loads(cfg: SimConfig, workers: int = 1) -> np.ndarray:
    """Serving-cell load of every trial, in trial order (int64).

    Runs only the deploy and associate stages, which make every draw that
    fixes the load, so entry ``i`` equals ``simulate_trial(cfg, i).load_nu``
    and the mean equals ``run_trials(cfg).mean_load`` bit for bit, for any
    ``workers`` value.
    """
    return np.concatenate(_map_ranges(_load_range, [cfg], workers)[0])


# ---------------------------------------------------------------------------
# Validation against the closed forms
# ---------------------------------------------------------------------------


def canonical_validation_scenario() -> Scenario:
    """Reference scenario for simulator-vs-closed-form validation: unit AP
    and device densities, interference-limited link, inference rate 0.125."""
    return Scenario(
        deployment=DeploymentConfig(lambda_ap=1.0, lambda_dev=1.0),
        workload=InferenceWorkload(
            payload_bits=1.0e6,
            delay_budget=0.06,
            compute_delay=0.01,
            mse_cloud=1.0,
            mse_edge=1.5,
        ),
        air=AirInterface(bandwidth=1.6e8, snr=math.inf),
    )


def delay_ks_statistic(
    ecdf: EmpiricalCdf, scenario: Scenario, d_lo: float, d_hi: float
) -> float:
    """Two-sided KS distance between the empirical delay CDF and the model
    CDF, restricted to the window (d_lo, d_hi].

    The empirical CDF keeps its global normalization (the window restricts
    where the supremum is taken, not which samples count), and the window
    endpoints are included in the supremum. Raises ModelDomainError when
    d_lo > d_hi.
    """
    if d_lo > d_hi:
        raise ModelDomainError(f"need d_lo <= d_hi (got {d_lo!r}, {d_hi!r})")
    samples = ecdf.sorted_samples
    n = ecdf.count
    i_lo = int(np.searchsorted(samples, d_lo, side="right"))
    i_hi = int(np.searchsorted(samples, d_hi, side="right"))
    xs = samples[i_lo:i_hi]
    model = np.array([delay_cdf(scenario, float(x)) for x in xs])
    hi_steps = np.arange(i_lo + 1, i_hi + 1) / n
    lo_steps = np.arange(i_lo, i_hi) / n
    ks = 0.0
    if xs.size:
        ks = float(np.max(np.maximum(hi_steps - model, model - lo_steps)))
    f_lo = (
        0.0 if d_lo <= scenario.workload.compute_delay else delay_cdf(scenario, d_lo)
    )
    ks = max(ks, abs(i_lo / n - f_lo))
    ks = max(ks, abs(i_hi / n - delay_cdf(scenario, d_hi)))
    return ks


# The mean-load checks of ``run_validation``: their window radius and their
# AP/device density ratios.
_LOAD_WINDOW_RADIUS = 5.0
_LOAD_LAMBDA_HATS = (0.5, 1.0, 2.0)


def _check(value: float, tolerance: float, **compared) -> dict:
    """One check of a ``run_validation`` report: the ``compared`` values
    (``simulated`` and ``analytic``, when there are two), the error
    ``value``, its ``tolerance``, and whether ``value <= tolerance``."""
    return {**compared, "value": value, "tolerance": tolerance, "pass": value <= tolerance}


def _report_checks(checks: dict):
    """``(label, check)`` for every check of a ``run_validation`` report's
    ``checks``, in report order; a member ``key`` of a group of checks is
    labelled ``group[key]``."""
    for name, entry in checks.items():
        if "pass" in entry:
            yield name, entry
        else:
            for key, check in entry.items():
                yield f"{name}[{key}]", check


def run_validation(
    trials: int = 10000,
    master_seed: int | None = None,
    window_radius: float | None = None,
    workers: int = 1,
) -> dict:
    """Simulator-vs-closed-form validation report.

    Runs the canonical scenario and checks (a) the KS distance between the
    empirical cloud-delay CDF and the closed form on (compute_delay,
    10*delay_budget], (b) the cloud-use fraction and implied MSE against
    the closed forms, and (c) the mean serving-cell load against
    1 + 1.28/lambda_hat for each ratio in ``_LOAD_LAMBDA_HATS``; those mean
    loads come from ``run_loads``, which skips the stages the load does not
    use. The report is deterministic for a given seed, and serializes to
    identical JSON across repeated runs.
    """
    seed = CANONICAL_SEED if master_seed is None else master_seed
    radius = math.sqrt(50.0) if window_radius is None else float(window_radius)
    scenario = canonical_validation_scenario()
    w = scenario.workload

    cfg = SimConfig(
        scenario=scenario, window_radius=radius, trials=trials, master_seed=seed
    )
    summary = run_trials(cfg, workers=workers)

    ks = delay_ks_statistic(
        summary.delay_samples, scenario, w.compute_delay, 10.0 * w.delay_budget
    )
    p_analytic = cloud_use_probability(scenario)
    mse_analytic = average_mse(scenario)
    p_sim, mse_sim = summary.cloud_use_fraction, summary.mse_estimate
    checks = {
        "delay_cdf_ks": _check(ks, 0.05),
        "cloud_use_abs_error": _check(
            abs(p_sim - p_analytic), 0.03, simulated=p_sim, analytic=p_analytic
        ),
        "mse_abs_error": _check(
            abs(mse_sim - mse_analytic),
            0.03 * (w.mse_edge - w.mse_cloud),
            simulated=mse_sim,
            analytic=mse_analytic,
        ),
        "mean_load_rel_error": {},
    }
    for lh in _LOAD_LAMBDA_HATS:
        dep = DeploymentConfig(lambda_ap=1.0, lambda_dev=1.0 / lh)
        sc = replace(scenario, deployment=dep)
        lcfg = SimConfig(
            scenario=sc,
            window_radius=_LOAD_WINDOW_RADIUS,
            trials=trials,
            master_seed=seed,
        )
        mean_load = float(run_loads(lcfg, workers=workers).mean())
        target = mean_cell_load(dep)
        checks["mean_load_rel_error"][f"lambda_hat_{lh:g}"] = _check(
            abs(mean_load - target) / target, 0.05, simulated=mean_load, analytic=target
        )

    return {
        "master_seed": seed,
        "trials": trials,
        "window_radius": radius,
        "boundary": "torus",
        "scenario": {
            **vars(scenario.deployment),
            **vars(w),
            "bandwidth": scenario.air.bandwidth,
            "snr": "inf" if math.isinf(scenario.air.snr) else scenario.air.snr,
            "inference_rate": scenario.inference_rate,
        },
        "checks": checks,
        "pass": all(c["pass"] for _, c in _report_checks(checks)),
    }
