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

A trial runs five stages, each drawing from the trial's stream in turn
(in the parts the determinism contract below lays out):

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
each cell's first fill hit, the local fill's polygons and draws) once per
block. The
block (``_Block``) is the one record of its trials: associate sets every
device's serving cell, own pathloss and cross pathloss to its trial's
serving cell on it, with every cell's load; schedule and fill each return
the same interferer record ``(cells, points, own, cross)``, with or without
shadowing, and link reads the loads from the block.

The engine runs in the unit window: the torus [0, 1)^2 or the disc of
radius 1 about the origin. The configured window's size enters only
through the expected AP and device counts. The link uses only ratios of
pathlosses, which do not depend on the scale, so only ``simulate_trial``
scales its points back to the configured window.

Runs are range-major (``_simulate_range``): ``_map_ranges`` decides the
groups once per run (``_sharing_groups``: the configs with the same
boundary, master seed and expected AP count, which is the Poisson mean
the AP count is drawn from, so all of them deploy bit-identical APs for
trial ``i``, as every point of a sweep over AP density does in an
automatically sized window). Each pool task, or each in-process call,
takes a range of trial indices through every config of one group, a
chunk of trials at a time. Within a chunk, trial ``i``'s geometry
(``_Geometry``) is kept in a store that every later config of the group
reuses as it is, with no check of the APs. The geometry holds the
k-d tree, the per-cell record of the unshadowed fill (each cell's local
point or miss, and the first hits of the global slices) and the record
of the devices associated so far (each one's serving cell, own and cross
pathloss). Only functions of the APs and of the trial's key are shared:
every candidate of the unshadowed fill, local or global, comes from the
trial's fill sub-stream, and device j's position is the same in every
config that deploys it, so a config with fewer devices reads the
record's first ones and one with more associates only the rest. Each
config applies its own rule to the shared records. Every config still
draws and runs every trial. The store lives for one chunk of one call;
a chunk holds at most about ``_BLOCK_POINTS`` expected APs, and at most
``_CHUNK_BLOCKS * _BLOCK_POINTS`` expected APs and devices of the group's
heaviest config (``_chunk_size``).

Determinism contract: trial ``i`` always consumes the random stream keyed
``(master_seed, i)``, drawing in that stage order with the sizes it would
draw alone, and sums its own interference, so its result does not depend on
the other trials of its block, and results are bit-identical whatever the
worker count and whichever configs run together. The key's Philox counter
space is cut into parts, each far too long to reach the next
(``RngStream.seek``):

* part 0: the AP count, the AP positions and the device count;
* part 1: the unshadowed fill's sub-stream (``RngStream.substream``), the
  local step's table first and then the global slices, so a config reads
  the same candidates whether it draws them or a config before it did;
* part 2: the device positions, then every later draw of the trial in
  stage order (shadowing normals, schedule picks, shadowed fill slices,
  fades).

The device positions thus start at a fixed place whatever the counts
drew, and both windows' ``sample`` is prefix-nested, so device j's
position is a function of ``(master_seed, i, j)`` alone. The draws that
fix the load (AP count and positions, device count and positions,
shadowing) all come before scheduling, so ``run_loads`` runs only deploy
and associate and still returns the loads ``run_trials`` sees.
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

  The fill associates window-uniform candidates ``2 * n_ap`` at a time, in
  at most ``_FILL_SLICES`` slices; the first candidate to land in an empty
  cell fills it. Without shadowing every candidate comes from the trial's
  fill sub-stream, and every config that deploys the trial's APs reads the
  same record. The first batch stops once fewer than a fifth of the cells
  are empty (after one slice on the canonical scenario), and each cell left
  is then filled locally: its twelve nearest APs' bisectors cut out a
  polygon that holds the cell (on a disc, three tangents of the window
  close the polygons of edge cells), and of up to ``_LOCAL_DRAWS``
  candidates drawn uniformly in the polygon (a triangle of the fan between
  the AP and the polygon's edges, picked by area) the first that lies in
  the window and has that AP as its nearest is kept. Rejection from a
  superset of the cell leaves the point exactly uniform in the cell, as a
  global candidate's would be. A cell whose polygon is unbounded (in a
  trial of twelve APs or fewer) or, on the torus, reaches half the side,
  or one that all its local candidates missed, goes on through the same
  shared slices. With shadowing, cells are not Voronoi cells, so the shadowed path
  uses global slices only, from the trial's stream, and screens them: while
  fewer than ``_SCREEN_MAX`` of the cells are empty, a candidate first gets
  shadowing normals only for its pairs with the empty cells' APs and with
  its nearest AP, and is dropped when that AP's cell is not empty and beats
  every empty cell's AP, since its serving cell is then certainly not empty.
  The rest get a full row and an exact association, so the fill keeps the
  same first hit per cell as drawing every row would.
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
# 10**7 trials stay near 250 MB. A canonical trial (unshadowed torus, window
# radius sqrt(50)) takes 0.62-1.0 ms in run_trials in one process (2,000
# trials; 2 CPUs, whose speed drifts by that much between sessions), so
# 10**7 trials are already 1.7-2.8 CPU-hours, and more precision is better
# bought with separate seeds.
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
# Contiguous trial ranges submitted per pool worker and sharing group, each
# run through every config of the group: more than one, so that a worker
# whose range runs slow (trial costs vary, and a worker may start late) does
# not hold up the rest, which take the ranges left.
_RANGES_PER_WORKER = 2
# Local fill candidates per cell, uniform in the cell's polygon: one per
# pass, from a table at the head of the trial's fill sub-stream (_Geometry).
# Under 1% of the first candidates are rejected on the canonical scenario
# (0.6%), so few cells miss all four: 19 of the 45,000 cells the local step
# got in 2,000 canonical trials, which the shared fallback slices then fill.
_LOCAL_DRAWS = 4
# fill candidates per AP associated between two early-exit checks
_FILL_SLICE = 2
# Global fill slices of a trial at most: 504 * n_ap candidates. A cell with a
# tenth of the mean cell area misses all of them with probability about
# exp(-50.4); one still empty at the cap gets no device.
_FILL_SLICES = 252
# Without shadowing, the first batch stops before a slice once fewer than
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
# A sweep shares both the global slices and the local step's outcome per
# cell, yet the stop stays per config: a stop that looked at the other
# configs of a group would make a config's result depend on which configs
# run with it. The cells the local step leaves go on through the same shared
# slices, up to _FILL_SLICES in all.
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
# smaller still. A run's geometry store holds one chunk of a sharing group,
# whose configs expect the same AP count: at most this many expected APs.
_BLOCK_POINTS = 2**14
# A sharing group's chunk (_chunk_size) holds at most this many blocks'
# worth of the expected APs and devices of its heaviest config: its store
# keeps that config's device records for every trial of the chunk. On a
# lambda_hat 0.01-1000 sweep in auto windows (11 points, 108 trials, seed
# 5, in-process; 2 CPUs, numpy 2.4), a chunk as large as the lightest
# config's block (108 trials) held up to 15,000 devices for each of them
# and raised peak RSS from 77 to 140 MB; capped at 8 blocks (8 trials
# there), it read 78 MB. The density_sweep workload's heaviest point
# (lambda_hat 0.1) still takes its 64 trials in one chunk of 79.
_CHUNK_BLOCKS = 8
# a cell that no shared global-slice candidate has hit yet (``_Geometry``)
_NO_HIT = np.iinfo(np.intp).max
# relative margin on squared distances by which the block count decides a
# device's cell, and the local fill a draw's; anything closer is left to the
# k-d tree
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
        """``n`` points uniform in the square, point j from uniforms 2j and
        2j + 1, so that ``n`` points are the first ``n`` of any larger draw
        from the same place in the stream."""
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
        """``n`` points uniform in the disc, point j from uniforms 2j (its
        radius) and 2j + 1 (its angle), so that ``n`` points are the first
        ``n`` of any larger draw from the same place in the stream."""
        u = stream.uniform((n, 2))
        r = self.radius * np.sqrt(u[:, 0])
        theta = 2.0 * math.pi * u[:, 1]
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


def _away(sq: np.ndarray, near: np.ndarray) -> np.ndarray:
    """Whether squared distances ``sq`` exceed ``near`` by more than the
    relative slack ``_TIE_SLACK``."""
    return sq - near > _TIE_SLACK * (sq + near)


def _verdict(x: np.ndarray, d: np.ndarray, reach: np.ndarray, side: float | None):
    """Whether points are certainly in an AP's cell, from the AP's nearest
    neighbours alone.

    ``x`` (n, 2) are the points' displacements from their AP, ``d`` (n, K,
    2) those of the AP's K nearest APs (minimum image on a torus of side
    ``side``), and ``reach`` (n,) the largest of their squared distances, so
    that every other AP is at least that far. A point is in the cell if it
    is nearer the AP than every neighbour and within half the reach, since
    every other AP is then farther too. On the torus the neighbours' other
    images are at least half the side from the AP, so the reach is capped
    there. A point nearer some neighbour is out. Each test keeps the
    relative slack of ``_away`` on squared distances, so rounding cannot
    make it disagree with the k-d tree. Returns the squared distances
    ``|x|**2``, the mask of the points in the cell and that of the points
    neither test decides.
    """
    if side is not None:
        reach = np.minimum(reach, 0.25 * side**2)
    own = (x * x).sum(axis=-1)
    to_nb = own[:, None] + (d * d).sum(axis=-1) - 2.0 * (d @ x[:, :, None])[..., 0]
    inside = _away(to_nb, own[:, None]).all(axis=1) & _away(0.25 * reach, own)
    undecided = ~inside & ~_away(own[:, None], to_nb).any(axis=1)
    return own, inside, undecided


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


def _expected_aps(cfg: SimConfig) -> float:
    """Expected AP count of ``cfg``'s window, to 12 significant digits: the
    mean of every trial's AP count (``_Engine.expected_aps``) and the key of
    its sharing group (``_sharing_groups``). The rounding keeps the last
    bits of an automatically sized window's area out of both, so that every
    config of a group draws its trials' APs from the same mean."""
    return float(f"{cfg.scenario.deployment.lambda_ap * cfg.window.area:.12g}")


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


class _Geometry:
    """What one trial's deployed APs and its key fix, whatever else its
    config says: the APs' k-d tree (on a torus of side ``side``, or
    unbounded for None), the per-cell record of the unshadowed fill,
    whose candidates all come from the trial's fill sub-stream
    (``RngStream.substream``), and the record of its devices' unshadowed
    association (``devices``).

    The sub-stream is made the first time the fill asks for it
    (``record``), by a global slice or by the local step, and at once
    draws the local step's table ``table``: three uniforms for each of
    ``_LOCAL_DRAWS`` candidates per cell. The global slices follow,
    ``_FILL_SLICE * n_ap`` window-uniform candidates each, ``slices`` of
    them drawn so far. Every draw thus has a fixed place in the
    sub-stream, whichever config or step asks first. For each cell,
    ``first`` is the index among the slices' candidates of the first that
    lands in it (``_NO_HIT`` while none has), ``point`` that candidate and
    ``own`` its own pathloss; ``local_point`` and ``local_own``, allocated
    with the sub-stream, are the local step's point and its own pathloss
    (``_Engine._local_fill``), ``local_own`` being nan for a cell not tried
    yet and inf for one that all its candidates missed. Only these per-cell
    arrays are kept, not the slices or the cell polygons.

    The device record holds, for the devices associated so far (the
    typical device first), each one's serving cell ``dev_cell`` (None
    before the first), own pathloss ``dev_own`` and cross pathloss
    ``dev_cross`` to the typical device's cell. A config's devices are a
    prefix of a config's with more (``_Engine.deploy``), so the record
    grows to the most devices any config deploys, and each is associated
    once.

    A store maps the trial indices of one sharing group (``_sharing_groups``)
    to their geometry. Every config of a group deploys the same APs for
    trial ``i``, so a config reuses the tree, the fill record and the
    device record that the group's first config to run trial ``i`` built.
    A run keeps one store per chunk of trials and group.
    """

    def __init__(self, ap: np.ndarray, side: float | None):
        from scipy.spatial import cKDTree

        self.ap, self.side = ap, side
        self.tree = cKDTree(ap, boxsize=side)
        self.substream, self.slices = None, 0
        self.first = np.full(len(ap), _NO_HIT)
        self.point, self.own = np.empty((len(ap), 2)), np.empty(len(ap))
        self.dev_cell = None

    def record(self, stream: RngStream) -> _Geometry:
        """This geometry, its fill sub-stream made on the first call, from
        the trial stream ``stream`` (wherever it has drawn to), with the
        table drawn and the local step's arrays allocated."""
        if self.substream is None:
            n = len(self.ap)
            self.substream = stream.substream()
            self.table = self.substream.uniform((n, _LOCAL_DRAWS, 3))
            self.local_point, self.local_own = np.empty((n, 2)), np.full(n, np.nan)
        return self

    def add_slice(self, cand: np.ndarray, serving: np.ndarray, own: np.ndarray) -> None:
        """Record the next shared global slice: candidates ``cand``, their
        serving cells (of this trial) ``serving`` and own pathlosses
        ``own``. A cell keeps its earliest hit."""
        base = self.slices * len(cand)
        np.minimum.at(self.first, serving, np.arange(base, base + len(cand)))
        got = np.nonzero((self.first >= base) & (self.first != _NO_HIT))[0]
        k = self.first[got] - base
        self.point[got], self.own[got] = cand[k], own[k]
        self.slices += 1

    def devices(self, dev: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Unshadowed association of the trial's devices ``dev``, the
        typical device first: each one's serving cell (of this trial), own
        pathloss ``dist**4`` and cross pathloss to the typical device's cell
        ``a0``, from the device record.

        Deploy makes the devices of a group's configs prefix-nested, so the
        record's entries are those of ``dev``'s first devices: it returns
        its first ``len(dev)`` entries, after associating and appending the
        devices past its end, if any. Each (trial, device) of a group thus
        goes to the k-d tree once. A first call stores its arrays as they
        are. Draws nothing."""
        if self.dev_cell is None:
            self.dev_cell, self.dev_own, self.dev_cross = self._associate(dev)
        elif len(self.dev_cell) < len(dev):
            new = self._associate(dev[len(self.dev_cell) :], self.dev_cell[0])
            self.dev_cell, self.dev_own, self.dev_cross = (
                np.concatenate(pair)
                for pair in zip((self.dev_cell, self.dev_own, self.dev_cross), new)
            )
        n = len(dev)
        return self.dev_cell[:n], self.dev_own[:n], self.dev_cross[:n]

    def _associate(self, points: np.ndarray, a0: int | None = None):
        """Each of ``points``' nearest AP (k-d tree), own pathloss and
        cross pathloss to AP ``a0`` (the first point's nearest when None)."""
        dist, cell = self.tree.query(points)
        cross = _sq_dist(points, self.ap[cell[0] if a0 is None else a0], self.side)
        cross *= cross
        return cell, dist**4, cross


class _Block:
    """The one record of a block of trials: each one's stream, deployed
    ``(ap, dev)`` points and ``_Geometry`` (its AP k-d tree), then its
    association.

    The APs are joined end to end, trial ``t``'s at ``ap[off[t]:off[t + 1]]``,
    so one index into ``ap`` names a cell of the block, and ``trial[c]`` is
    the trial of cell ``c``. The devices ``dev`` and the stages' other
    arrays (cells, fill candidates) are joined the same way: each trial's
    entries together, in trial order.

    ``_Engine.associate`` sets, for the joined devices, their serving cells
    ``serving``, own pathlosses ``own`` and cross pathlosses ``cross`` to
    their trial's serving cell, then every cell's device count ``counts``
    and each trial's serving cell ``a0`` (its typical device's).
    """

    def __init__(self, streams: list, deployed: list, geometry: list):
        self.streams, self.geometry = streams, geometry
        self.n_ap = np.array([len(ap) for ap, _ in deployed])
        self.off = np.concatenate([[0], np.cumsum(self.n_ap)])
        self.ap = np.concatenate([ap for ap, _ in deployed])
        self.dev = np.concatenate([dev for _, dev in deployed])
        self.trial = np.repeat(np.arange(len(deployed)), self.n_ap)

    @property
    def loads(self) -> np.ndarray:
        """Each trial's serving-cell load, once associated."""
        return self.counts[self.a0]

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
        """Unshadowed association of joined fill candidates ``points``,
        trial ``t``'s at ``[lo, hi)`` for each ``(t, lo, hi)`` in
        ``parts``: each point's nearest AP of its trial (one k-d tree query
        per trial), as a cell of the block, and its own pathloss
        ``dist**4``. The devices go through their trial's device record
        instead (``_Geometry.devices``). Draws nothing."""
        serving = np.empty(len(points), dtype=np.intp)
        dist = np.empty(len(points))
        for t, lo, hi in parts:
            dist[lo:hi], serving[lo:hi] = self.geometry[t].tree.query(points[lo:hi])
            serving[lo:hi] += self.off[t]
        return serving, dist**4


class _Engine:
    """Per-config precomputation plus the staged trial kernel.

    ``trials`` runs a block of trials one stage at a time: each trial is
    deployed from its own stream, ``associate`` makes the block
    (``_Block``) and sets the association on it, ``schedule`` and ``fill``
    read it and each return an interferer record ``(cells, pts, own,
    cross)``, and ``link`` takes the records joined by trial. The stages
    keep the trials' arrays joined end to end, so their bookkeeping runs
    once per block. The draws, the k-d trees and their queries, and each
    trial's interference sum stay per trial. ``typical_loads`` counts the
    typical cell of a block of deployed trials without the later stages.

    Points live in the unit window ``window`` (see the module docstring);
    the expected AP and device counts are those of the configured window.
    """

    def __init__(self, cfg: SimConfig):
        s = cfg.scenario
        self.cfg = cfg
        self.torus = cfg.boundary == "torus"
        self.window = TorusWindow(0.5) if self.torus else DiscWindow(1.0)
        self.side = self.window.side if self.torus else None
        self.center = self.window.center
        self.expected_aps = _expected_aps(cfg)
        self.expected_devs = s.deployment.lambda_dev * cfg.window.area
        self.snr_inv = 1.0 / s.air.snr
        self.mean_share = mean_cell_load(s.deployment)
        sigma = cfg.shadowing_sigma_db
        self.sigma_scale = None if sigma is None else sigma * _LN10 / 10.0

    @property
    def block_size(self) -> int:
        """Trials in a block: about ``_BLOCK_POINTS`` expected APs and
        devices in all."""
        return max(1, int(_BLOCK_POINTS / (1.0 + self.expected_aps + self.expected_devs)))

    def blocks(self, lo: int, hi: int) -> list[range]:
        """Trials [lo, hi) in consecutive blocks of ``block_size``."""
        size = self.block_size
        return [range(i, min(i + size, hi)) for i in range(lo, hi, size)]

    def _pathloss(self, points: np.ndarray, ap: np.ndarray, normals=None) -> np.ndarray:
        """Pathlosses ``dist**4`` between ``points`` and ``ap`` (broadcast as
        in ``_sq_dist``), shadowed by the pairs' ``normals`` when given."""
        pathloss = _sq_dist(points, ap, self.side)
        pathloss *= pathloss
        if normals is not None:
            gain = self.sigma_scale * normals
            pathloss *= np.exp(gain, out=gain)
        return pathloss

    def _displaced(self, points: np.ndarray, origin: np.ndarray) -> np.ndarray:
        """``points - origin`` (broadcast), the minimum image on the torus."""
        x = points - origin
        if self.torus:
            x -= self.side * np.round(x / self.side)
        return x

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
        about 1/mean draws when the mean is tiny).

        The AP count, the AP positions and the device count come from the
        start of ``stream`` (part 0). The device positions start part 2
        (``RngStream.seek``), and every later draw of the trial follows
        them there. How many uniforms the counts take depends on their
        means, but the device positions do not: device j's position is a
        function of the trial's key and j alone, so a config with n
        devices deploys the first n of any config with more."""
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
        stream.seek(2)
        dev = np.empty((n_dev + 1, 2))
        dev[0] = self.center
        dev[1:] = self.window.sample(stream, n_dev)
        return ap, dev

    def associate(self, streams: list, deployed: list, store: dict) -> _Block:
        """The ``_Block`` of the deployed ``(ap, dev)`` trials, whose streams
        are ``streams``, with the minimum-pathloss association of every
        device set on it.

        ``store`` maps trial indices to the ``_Geometry`` that configs of
        this config's sharing group (``_sharing_groups``) built, or is empty.
        Each trial takes its geometry from there, keyed by its stream id, the
        trial index, or builds it there, with its AP k-d tree (the shadowed
        fill screens with the tree too). Without shadowing each trial's
        serving cells, own and cross pathlosses come from its geometry's
        device record (``_Geometry.devices``), which sends to the k-d tree
        only the devices no config of the store has associated yet; with
        shadowing, each trial in turn draws its normals and serves its
        devices (``_serve``), its pathloss matrix freed before the next is
        built.
        """
        geometry = []
        for stream, (ap, _) in zip(streams, deployed):
            if stream.stream_id not in store:
                store[stream.stream_id] = _Geometry(ap, self.side)
            geometry.append(store[stream.stream_id])
        block = _Block(streams, deployed, geometry)
        dev = block.dev
        starts = np.cumsum([0] + [len(d) for _, d in deployed])
        if self.sigma_scale is None:
            rows = [g.devices(d) for g, (_, d) in zip(geometry, deployed)]
            cell, own, cross = (np.concatenate(x) for x in zip(*rows))
            serving = cell + np.repeat(block.off[:-1], np.diff(starts))
        else:
            serving = np.empty(len(dev), dtype=np.intp)
            own, cross = np.empty(len(dev)), np.empty(len(dev))
            for t, (lo, hi, (ap, _)) in enumerate(zip(starts, starts[1:], deployed)):
                cell, own[lo:hi], pathloss = self._serve(
                    dev[lo:hi], ap, streams[t].normal((hi - lo, len(ap)))
                )
                serving[lo:hi] = cell + block.off[t]
                cross[lo:hi] = pathloss[:, cell[0]]
        block.a0 = serving[starts[:-1]]
        block.serving, block.own, block.cross = serving, own, cross
        block.counts = np.bincount(serving, minlength=len(block.ap))
        return block

    def schedule(self, block: _Block) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One uniformly chosen device per non-empty cell other than its
        trial's serving cell ``a0``, by cell: the interferer record of those
        cells, with the devices' points, own and cross pathlosses. Each
        trial draws its choices from its stream, none when it has no such
        cell."""
        counts = block.counts
        order = np.argsort(block.serving, kind="stable")
        starts = np.cumsum(counts) - counts
        busy = counts > 0
        busy[block.a0] = False
        cells = np.nonzero(busy)[0]
        picks = [
            block.streams[t].integers(0, counts[cells[lo:hi]])
            for t, lo, hi in block.parts(block.trial[cells])
        ]
        # no picks means no cells, and no devices
        members = order[starts[cells] + np.concatenate(picks)] if picks else cells
        return cells, block.dev[members], block.own[members], block.cross[members]

    def fill(self, block: _Block) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Saturation fill: one uniform device in every empty cell other than
        its trial's serving cell ``a0``.

        Global rejection slices of ``_FILL_SLICE * n_ap`` window-uniform
        candidates, at most ``_FILL_SLICES`` per trial, each drawn and
        associated until no cell is left empty; the first candidate to land
        in an empty cell fills it. Without shadowing, nothing is drawn from
        the trial's stream: every candidate comes from its fill sub-stream,
        through the per-cell record that every config deploying the trial's
        APs shares (``_Geometry.record``). The first batch of slices
        (``_shared_fill``), at most ``8 // _FILL_SLICE``, stops before a
        slice once fewer than ``_FILL_STOP * n_ap`` of the trial's cells are
        empty. The cells still empty are then filled locally
        (``_local_fill``: candidates uniform in the polygon that the
        bisectors of each cell's nearest APs cut out, kept when they land in
        the cell), and only the cells that step does not fill go on through
        the record's later slices. With shadowing, the slices come from the
        trial's stream: a slice runs every trial that still has an empty
        cell (``_shadowed_slice``), and then finds the first hit per cell
        for all of them at once; a slice in which fewer than
        ``_SCREEN_MAX * n_ap`` cells are empty is screened (``_screen``). A
        cell still empty at the slice cap gets none. Returns the interferer
        record of the filled cells (ascending): their points, own
        pathlosses and cross pathlosses to their trial's ``a0``, which the
        k-d tree path works out from the distances once the fill is done.
        """
        needed = block.counts == 0
        needed[block.a0] = False
        cells = np.nonzero(needed)[0]
        n = len(block.ap)
        pts, own, cross = np.empty((n, 2)), np.empty(n), np.empty(n)

        def fill_from(got, points, points_own):
            needed[got] = False
            pts[got], own[got] = points, points_own

        if self.sigma_scale is None:
            fill_from(*self._shared_fill(block, needed, _FILL_STOP * block.n_ap, 8 // _FILL_SLICE))
            left = np.nonzero(needed)[0]
            if left.size:
                done, local_pts, local_own = self._local_fill(block, left)
                fill_from(left[done], local_pts[done], local_own[done])
                fill_from(*self._shared_fill(block, needed, 1, _FILL_SLICES))
            cells = cells[~needed[cells]]
            cross[cells] = self._pathloss(pts[cells], block.ap[block.a0[block.trial[cells]]])
            return cells, pts[cells], own[cells], cross[cells]
        empty = np.bincount(block.trial[cells], minlength=len(block.streams))
        for _ in range(_FILL_SLICES):
            active = np.nonzero(empty)[0]
            if not active.size:
                break
            sliced = zip(*(self._shadowed_slice(block, t, needed, empty[t]) for t in active))
            cand, serving, cand_own, cand_cross = (np.concatenate(x) for x in sliced)
            hit = np.nonzero(needed[serving])[0]
            got, first = np.unique(serving[hit], return_index=True)
            take = hit[first]
            cross[got] = cand_cross[take]
            fill_from(got, cand[take], cand_own[take])
            empty -= np.bincount(block.trial[got], minlength=len(empty))
        cells = cells[~needed[cells]]
        return cells, pts[cells], own[cells], cross[cells]

    def _shared_fill(self, block: _Block, needed: np.ndarray, stop, slices: int):
        """The unshadowed fill's global slices, from the first hits each
        trial's ``_Geometry`` shares: the cells marked in ``needed`` that
        they fill, their points and their own pathlosses.

        Each trial applies this rule to the shared record: slice ``j`` runs
        while at least ``stop`` of the trial's marked cells (a number, or
        an array by trial) are still empty, that is have no first hit in
        slices ``0 .. j-1``, for at most ``slices`` slices, and the marked
        cells whose first hit lies in the slices it ran are filled. ``fill``
        calls it for the first batch, then with ``stop`` 1 and the slice cap
        for the cells the local step leaves; those have no hit in the
        slices the first batch ran, so they take their first hit after them.
        A slice no config has asked for yet is drawn and associated then
        (``_shared_slice``). Draws nothing from the trials' streams.
        """
        cells = np.nonzero(needed)[0]
        trial = block.trial[cells]
        size = (_FILL_SLICE * block.n_ap)[trial]
        ran = np.zeros(len(block.streams), dtype=int)

        def joined(name: str) -> np.ndarray:
            # the geometries' per-cell arrays, joined as the block's cells are
            return np.concatenate([getattr(g, name) for g in block.geometry])

        for j in range(slices):
            # a trial's empty count only falls, so a trial that stops stays
            # stopped, and every trial still running holds slices 0 .. j-1
            left = np.bincount(trial[joined("first")[cells] >= j * size], minlength=len(ran))
            active = np.nonzero(left >= stop)[0]
            if not active.size:
                break
            for t in active.tolist():
                if block.geometry[t].slices == j:
                    self._shared_slice(block, t)
            ran[active] = j + 1
        got = cells[joined("first")[cells] < ran[trial] * size]
        return got, joined("point")[got], joined("own")[got]

    def _shared_slice(self, block: _Block, t: int) -> None:
        """Draw the next slice of trial ``t``'s shared global fill slices,
        ``_FILL_SLICE * n_ap`` window-uniform candidates from its fill
        sub-stream, associate it and add it to the trial's fill record."""
        geometry = block.geometry[t].record(block.streams[t])
        cand = self.window.sample(geometry.substream, _FILL_SLICE * int(block.n_ap[t]))
        serving, cand_own = block.serve(cand, [(t, 0, len(cand))])
        geometry.add_slice(cand, serving - block.off[t], cand_own)

    def _shadowed_slice(self, block: _Block, t: int, needed: np.ndarray, n_empty: int):
        """One global fill slice of shadowed trial ``t`` from its stream:
        ``_FILL_SLICE * n_ap`` window-uniform candidates, and for those kept
        their serving cells, own pathlosses and cross pathlosses to the
        trial's serving cell ``a0``. A slice of a trial with fewer than
        ``_SCREEN_MAX * n_ap`` of the cells marked in ``needed`` is screened
        (``_screen``): only the candidates that may land in one of them are
        kept, and get a full row of shadowing normals, which picks the same
        hits as drawing the whole block."""
        stream, own_cells = block.streams[t], block.cells(t)
        ap, base = block.ap[own_cells], own_cells.start
        cand = self.window.sample(stream, _FILL_SLICE * len(ap))
        if n_empty < _SCREEN_MAX * len(ap):

            def drawn(rows, cols):
                return stream.normal(np.broadcast_shapes(rows.shape, cols.shape))

            cand, (serving, cand_own, pathloss) = self._screen(
                cand, ap, block.geometry[t].tree, needed[own_cells], drawn
            )
        else:
            normals = stream.normal((len(cand), len(ap)))
            serving, cand_own, pathloss = self._serve(cand, ap, normals)
        # a copy, so that the slice's pathloss matrix is freed now
        return cand, serving + base, cand_own, pathloss[:, block.a0[t] - base].copy()

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

    def _new_polygons(self, block: _Block, cells: np.ndarray):
        """The polygon around each cell in ``cells`` (at least one,
        ascending by trial) that holds the whole cell (the part in the
        window): ``d``, ``lo``, ``hi`` and ``rho`` as ``_bisector_polygon``
        gives them.

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
                nb[lo:hi] = block.geometry[t].tree.query(p[lo:hi], k=k + 1)[1][:, 1:] + block.off[t]
        d = self._displaced(block.ap[nb], p[:, None])
        if not self.torus:
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
        """One point uniform in each cell in ``cells`` (distinct, ascending
        by trial), with its own pathloss; unshadowed association only.

        Each cell's outcome is a function of its trial's APs and key alone,
        so it is kept in the trial's fill record (``_Geometry.record``), and
        only the cells no config has tried yet are worked out, all at once.
        Their polygons (``_new_polygons``) are not kept. Pass ``k`` takes,
        for every cell still without a point, the ``k``-th of its
        ``_LOCAL_DRAWS`` candidates in the record's table and places it
        uniformly in the cell's polygon (``_polygon_points``). The first
        candidate that lies in the window and has that AP as its nearest is
        kept. The polygon's nearest APs decide that for almost every
        candidate (``_verdict``); only the candidates they leave undecided
        go to their trial's k-d tree. The candidates are independent of the
        devices and of the global slices, and the polygon holds the whole
        cell, so the kept point is exactly uniform in the cell. Its own
        pathloss is ``dist**4`` from the same element-wise distance as the
        k-d tree's. Returns a mask of the cells that got a point (False
        where the polygon is not bounded or every candidate missed), the
        points and their own pathlosses.
        """
        parts = [
            (block.geometry[t].record(block.streams[t]), cells[lo:hi] - block.off[t], slice(lo, hi))
            for t, lo, hi in block.parts(block.trial[cells])
        ]
        pts, own = np.empty((len(cells), 2)), np.empty(len(cells))
        table = np.empty((len(cells), _LOCAL_DRAWS, 3))
        for record, own_cells, rows in parts:
            pts[rows], own[rows] = record.local_point[own_cells], record.local_own[own_cells]
            table[rows] = record.table[own_cells]
        new = np.nonzero(np.isnan(own))[0]
        if new.size:
            d, lo, hi, rho = self._new_polygons(block, cells[new])
            own[new] = np.inf
            # the APs among the polygon's neighbours (a disc adds three mirrors)
            near = d[:, :_FILL_NEIGHBOURS]
            reach = (near * near).sum(axis=-1).max(axis=-1)
            live = np.nonzero(np.isfinite(rho))[0]
            for k in range(_LOCAL_DRAWS):
                if not live.size:
                    break
                owner = cells[new[live]]
                x = _polygon_points(d[live], lo[live], hi[live], table[new[live], k])
                cand = block.ap[owner] + x
                if self.torus:
                    cand %= self.side
                    in_window = True
                else:
                    in_window = (cand * cand).sum(axis=-1) <= self.window.radius**2
                _, hit, undecided = _verdict(x, near[live], reach[live], self.side)
                hit &= in_window
                ask = np.nonzero(undecided & in_window)[0]
                if ask.size:
                    serving = block.serve(cand[ask], block.parts(block.trial[owner[ask]]))[0]
                    hit[ask] = serving == owner[ask]
                got = new[live[hit]]
                pts[got] = cand[hit]
                own[got] = np.sqrt(_sq_dist(cand[hit], block.ap[owner[hit]], self.side)) ** 4
                live = live[~hit]
            for record, own_cells, rows in parts:
                record.local_point[own_cells], record.local_own[own_cells] = pts[rows], own[rows]
        return np.isfinite(own), pts, own

    def link(
        self, block: _Block, trial: np.ndarray, own: np.ndarray, cross: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Fading, SINR, rate, delay and output choice of each trial's
        typical device: arrays ``(sinr, rate, delay, used_cloud)`` with one
        entry per trial, worked out per trial in scalar arithmetic.

        The interferers belong to trials ``trial`` (ascending), each
        trial's in the order its sum takes them, with own pathlosses
        ``own`` and cross pathlosses ``cross`` to their trial's serving
        cell. Each trial's load is the block's. Each trial draws its
        fading from its stream and sums its own interference, so the sum
        rounds as it would for the trial alone.
        """
        s = self.cfg.scenario
        ratio = own / cross
        bounds = block.bounds(trial)
        n = len(block.streams)
        sinr, rate, delay, used = np.empty(n), np.empty(n), np.empty(n), np.empty(n, dtype=bool)
        parts = zip(block.streams, bounds, bounds[1:], block.loads.tolist())
        for t, (stream, lo, hi, load) in enumerate(parts):
            h = exponential_variate(stream, hi - lo + 1)
            interference = float(np.dot(ratio[lo:hi], h[1:]))
            denom = self.snr_inv + interference
            sinr_t = math.inf if denom == 0.0 else float(h[0]) / denom
            share = self.mean_share if self.cfg.load_model == "mean_field" else float(load)
            rate_t = uplink_rate(sinr_t, s.air.bandwidth, share)
            delay_t = cloud_delay(rate_t, s.workload)
            sinr[t], rate[t], delay[t] = sinr_t, rate_t, delay_t
            used[t] = select_output(delay_t, s.workload)
        return sinr, rate, delay, used

    def _tree_loads(self, streams: list, deployed: list) -> np.ndarray:
        """Serving-cell loads of deployed trials, by associating every
        device."""
        return self.associate(streams, deployed, {}).loads

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
        device beyond the polygon's radius is out. Those neighbours decide
        the other devices (``_verdict``, the rule the local fill applies to
        its draws too), and a device they leave undecided is compared with
        every AP of its trial. A trial with a
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
        aps[ap_ok], devs[dev_ok] = (np.concatenate(points) for points in zip(*deployed))
        rows = np.arange(len(deployed))
        a0 = np.argmin(np.where(ap_ok, _sq_dist(aps, self.center, self.side), np.inf), axis=1)
        origin = aps[rows, a0][:, None]
        sq = np.where(ap_ok, _sq_dist(aps, origin, self.side), np.inf)
        sq[rows, a0] = np.inf
        nb = np.argpartition(sq, k - 1, axis=1)[:, :k]
        reach = sq[rows[:, None], nb].max(axis=1)
        d = self._displaced(aps[rows[:, None], nb], origin)
        # an unbounded polygon keeps every device
        rho = np.nan_to_num(_bisector_polygon(d)[2], nan=np.inf)
        x = self._displaced(devs, origin)
        sx = (x * x).sum(axis=-1)
        count = np.zeros(len(deployed), dtype=np.int64)
        # the devices inside the polygon's radius
        t, j = np.nonzero(dev_ok & (sx <= (rho * rho)[:, None]))
        own, inside, undecided = _verdict(x[t, j], d[t], reach[t], self.side)
        np.add.at(count, t[inside], 1)
        t, j, own = t[undecided], j[undecided], own[undecided]
        if t.size:
            to_all = np.where(ap_ok[t], _sq_dist(devs[t, j][:, None], aps[t], self.side), np.inf)
            to_all[np.arange(t.size), a0[t]] = np.inf
            nearest = to_all.min(axis=1)
            np.add.at(count, t, _away(nearest, own))
            fallback[t[~_away(nearest, own) & ~_away(own, nearest)]] = True
        slow = np.nonzero(fallback)[0].tolist()
        if slow:
            count[slow] = self._tree_loads([streams[t] for t in slow], [deployed[t] for t in slow])
        return count

    def trials(self, indices: range, store: dict) -> tuple[_Block, tuple, np.ndarray]:
        """Run the trials in ``indices`` as one block: deploy, associate,
        schedule, fill (with ``full_buffer``) and link.

        Trial ``i`` draws from stream ``(master_seed, i)`` in that stage
        order, with the sizes it would draw alone (the unshadowed fill from
        the stream's sub-stream), so its result does not
        depend on the other trials of the block. Each trial's ``_Geometry``
        comes from ``store`` (``associate``). Returns the associated block,
        the ``link`` arrays, and the interferer points, joined by trial.
        """
        streams = [RngStream(self.cfg.master_seed, i) for i in indices]
        block = self.associate(streams, [self.deploy(stream) for stream in streams], store)
        record = self.schedule(block)
        if self.cfg.full_buffer:
            filled = self.fill(block)
            # each trial's scheduled devices, then its fill points
            order = np.argsort(block.trial[np.concatenate([record[0], filled[0]])], kind="stable")
            record = [np.concatenate(pair)[order] for pair in zip(record, filled)]
        cells, pts, own, cross = record
        return block, self.link(block, block.trial[cells], own, cross), pts


def _pool_size(workers: int, trials: int) -> int:
    """Worker processes worth starting: at most one per trial and per CPU."""
    return max(1, min(workers, trials, os.cpu_count() or 1))


def _sharing_groups(cfgs: list[SimConfig]) -> list[list[int]]:
    """Indices of ``cfgs`` grouped by what ``_Engine.deploy`` draws a trial's
    APs from: the boundary, the master seed and the expected AP count
    (``_expected_aps``, the Poisson mean itself). Every config of a group
    thus deploys bit-identical APs for trial ``i``, and a run shares
    geometry within a group only (``_map_ranges``)."""
    groups: dict[tuple, list[int]] = {}
    for k, cfg in enumerate(cfgs):
        groups.setdefault((cfg.boundary, cfg.master_seed, _expected_aps(cfg)), []).append(k)
    return list(groups.values())


def _map_ranges(fn, cfgs: list[SimConfig], workers: int) -> list[list]:
    """``fn(configs, lo, hi)`` over contiguous ranges of trial indices that
    cover every trial of every config; one list of results per config, in
    trial order.

    ``fn`` runs trials [lo, hi) of every config in ``configs``, all of one
    group of ``_sharing_groups`` (each up to its own trial count), and
    returns one result per config, in order. With ``n =
    _pool_size(workers, total trial count)``, each group is cut into
    ``wanted`` ranges (at most one per trial): one when ``n`` is one, which
    runs in process, range after range. Otherwise ``wanted`` is ``n *
    _RANGES_PER_WORKER``, a group with fewer trials than that has its
    configs split too, so that small runs keep every worker busy, and a
    single process pool of ``n`` processes runs every range, all submitted
    at once. If a range raises, the ranges not yet started are cancelled.

    ``workers`` must be an integer >= 1, else ModelDomainError is raised
    before any trial runs. SciPy's k-d tree is imported here, before the
    pool opens, so forked workers inherit it instead of each importing it
    again. The pool's own modules (``concurrent.futures.process`` and
    ``multiprocessing``) are imported here too, so a run that opens no pool
    never loads them.
    """
    n = _pool_size(_worker_count(workers), sum(cfg.trials for cfg in cfgs))
    wanted = 1 if n == 1 else n * _RANGES_PER_WORKER
    ranges = []
    for group in _sharing_groups(cfgs):
        splits = -(-wanted // max(cfgs[k].trials for k in group))
        for part in map(np.ndarray.tolist, np.array_split(group, min(splits, len(group)))):
            trials = max(cfgs[k].trials for k in part)
            bounds = np.linspace(0, trials, min(trials, wanted) + 1, dtype=int).tolist()
            ranges += [
                ([k for k in part if cfgs[k].trials > lo], lo, hi)
                for lo, hi in zip(bounds, bounds[1:])
            ]
    if n == 1:
        results = [fn([cfgs[k] for k in ks], lo, hi) for ks, lo, hi in ranges]
    else:
        import scipy.spatial  # noqa: F401
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n) as pool:
            futures = [pool.submit(fn, [cfgs[k] for k in ks], lo, hi) for ks, lo, hi in ranges]
            try:
                results = [f.result() for f in futures]
            except BaseException:
                for f in futures:
                    f.cancel()
                raise
    out = [[] for _ in cfgs]
    for (ks, _, _), parts in zip(ranges, results):
        for k, part in zip(ks, parts):
            out[k].append(part)
    return out


def _simulate_range(cfgs: list[SimConfig], lo: int, hi: int) -> list[tuple]:
    """Delays, output choices and loads of each config's trials in [lo, hi)
    (up to its trial count; each config must have some there), one triple
    per config. ``cfgs`` must be configs of one group of
    ``_sharing_groups`` (``_map_ranges`` plans the ranges so).

    The trials run a chunk at a time (``_chunk_size``), each chunk through
    every config in turn, in the blocks of ``_Engine.blocks``
    (``_Engine.trials``). The chunk's trials share one ``_Geometry`` store,
    dropped when the chunk is done.
    """
    engines = [_Engine(cfg) for cfg in cfgs]
    runs = [([], [], []) for _ in cfgs]
    chunk = _chunk_size(engines)
    for start in range(lo, min(hi, max(cfg.trials for cfg in cfgs)), chunk):
        store = {}
        for engine, (delays, used, loads) in zip(engines, runs):
            for indices in engine.blocks(start, min(start + chunk, hi, engine.cfg.trials)):
                block, (_, _, block_delays, block_used), _ = engine.trials(indices, store)
                delays.append(block_delays)
                used.append(block_used)
                loads.append(block.loads)
    return [tuple(map(np.concatenate, run)) for run in runs]


def _chunk_size(engines: list[_Engine]) -> int:
    """Trials in one chunk of the sharing group whose configs run on
    ``engines``: the group's largest block, but at most as many trials as
    hold ``_CHUNK_BLOCKS * _BLOCK_POINTS`` expected APs and devices of its
    heaviest config, and at least one.

    The group's configs expect the same AP count, so a chunk's store holds
    about as many APs as the block of the lightest config, at most
    ``_BLOCK_POINTS`` expected. Its device records hold the devices of the
    heaviest config for every trial of the chunk, which the cap bounds."""
    heaviest = max(1.0 + e.expected_aps + e.expected_devs for e in engines)
    cap = max(1, int(_CHUNK_BLOCKS * _BLOCK_POINTS / heaviest))
    return min(max(e.block_size for e in engines), cap)


def _load_range(cfgs: list[SimConfig], lo: int, hi: int) -> list[np.ndarray]:
    """Loads of each config's trials in [lo, hi) (up to its trial count),
    counted by ``_Engine.typical_loads`` in the blocks of ``_Engine.blocks``."""
    engines = [_Engine(cfg) for cfg in cfgs]
    return [
        np.concatenate([e.typical_loads(b) for b in e.blocks(lo, min(hi, e.cfg.trials))])
        for e in engines
    ]


def simulate_trial(cfg: SimConfig, index: int) -> TrialRealization:
    """Full realization of trial ``index`` (same stream and draws as
    ``run_trials`` uses for that index), its points scaled from the unit
    window to the configured one. ``index`` must be an integer in [0,
    ``cfg.trials``), else ModelDomainError is raised."""
    i = _as_index(index, 0, cfg.trials)
    _require(i is not None, "index must be an integer in [0, {}) (got {!r})", cfg.trials, index)
    engine = _Engine(cfg)
    block, link, pts = engine.trials(range(i, i + 1), {})
    sinr, rate, delay, used = (x.item() for x in link)
    scale = cfg.window_radius / engine.window.radius

    def placed(points: np.ndarray) -> np.ndarray:
        # the same operations for every point, so an interferer that is a
        # device keeps its bits
        return (points - engine.center) * scale

    return TrialRealization(
        ap_points=placed(block.ap),
        dev_points=placed(block.dev),
        serving_ap=int(block.a0[0]),
        load_nu=int(block.loads[0]),
        interferer_set=placed(pts),
        sinr_u=sinr,
        rate_u=rate,
        delay=delay,
        used_cloud=used,
    )


def _summarize(cfg: SimConfig, parts: list) -> SimSummary:
    """SimSummary of ``cfg`` from its ``_simulate_range`` results in trial
    order."""
    delays, used, loads = (np.concatenate(p) for p in zip(*parts))
    fraction = int(np.count_nonzero(used)) / cfg.trials
    return SimSummary(
        delay_samples=EmpiricalCdf.from_samples(delays),
        cloud_use_fraction=fraction,
        mse_estimate=_mix(cfg.scenario.workload, fraction),
        mean_load=float(loads.mean()),
        trial_count=cfg.trials,
    )


def _run_many(cfgs: list[SimConfig], workers: int) -> list[SimSummary]:
    """``run_trials`` of every config, in order, bit for bit, run
    range-major (``_simulate_range``) on at most one pool of
    ``_pool_size(workers, total trial count)`` processes."""
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
    radius = math.sqrt(50.0) if window_radius is None else window_radius
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
        "window_radius": float(cfg.window_radius),
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
