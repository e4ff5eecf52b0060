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

Determinism contract: trial ``i`` always consumes the random stream keyed
``(master_seed, i)``, drawing in that stage order, so results are
bit-identical for any worker count. The draws that fix the load (AP count
and positions, device count and positions, shadowing) all come before
scheduling, so ``run_loads`` runs only deploy and associate and still
returns the loads ``run_trials`` sees.

Two settings deliberately default to the closed forms' own
assumptions rather than to the literal finite-window system:

* ``full_buffer=True`` places one uniformly-positioned extra device in every
  empty non-serving cell, realizing the saturated network (every AP has a
  transmitter) that the analytic interference model assumes. Without it the
  simulated coverage exceeds the model by up to ~0.2 at unit density ratio.

  The fill associates window-uniform candidates ``2 * n_ap`` at a time; the
  first candidate to land in an empty cell fills it. Without shadowing it
  stops once fewer than a tenth of the cells are empty (after one or two
  slices on the canonical scenario), and each cell left is then filled
  locally: its twelve nearest APs' bisectors cut out a polygon that holds
  the cell (on a disc, three tangents of the window close the polygons of
  edge cells), a disc of radius rho around the AP holds the polygon, and the
  first disc-uniform candidate that lies in the window and has that AP as
  its nearest is kept. Rejection from a superset of the cell leaves the
  point exactly uniform in the cell, as a global candidate's would be. A
  torus cell with rho of half the side or more, or one no local draw hit,
  falls back to further global batches, at most ``_FILL_BATCHES`` in all.
  With shadowing, cells are not Voronoi cells, so the shadowed path uses
  global batches only. Seeded simulated values changed when the local step
  replaced global batches 2+, and again when it took over once batch 1
  stops early (same law, different draws).
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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .analytic import (
    AirInterface,
    DeploymentConfig,
    InferenceWorkload,
    Scenario,
    _finite,
    _mix,
    average_mse,
    cloud_use_probability,
    delay_cdf,
    mean_cell_load,
)
from .errors import ModelDomainError
from .numerics import (
    EmpiricalCdf,
    RngStream,
    _as_index,
    _as_key,
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
# 10**7 trials stay near 250 MB; at about 6 ms per canonical trial they are
# already some 17 CPU-hours, and more precision is better bought with
# separate seeds.
_MAX_TRIALS = 10**7
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
# rest. A slice associates 2 * n_ap candidates at about 0.9 us each (k-d tree
# query and bookkeeping; 2 CPUs, about 190 APs), 1.8 us * n_ap in all, and
# the local step costs about 30 us more per cell. A slice at E empty cells
# fills a share f of them, so it pays while f * E * 30 us > 1.8 us * n_ap,
# that is while E > 0.06 * n_ap / f. Cell areas are Gamma-distributed and the
# cells left are the small ones, so f falls from 0.7-0.8 for the first slice
# to about 0.6 for the second: E > n_ap / 10.
_FILL_STOP = 0.1
# nearest APs whose bisectors bound a cell in the local fill
_FILL_NEIGHBOURS = 12
# directions of the disc tangents mirroring an AP, relative to its own
_DISC_TANGENTS = np.array([0.0, 2.0 * math.pi / 3.0, -2.0 * math.pi / 3.0])
# local fill candidates per cell and round
_LOCAL_DRAWS = 16
_LN10 = math.log(10.0)


# ---------------------------------------------------------------------------
# Windows and point processes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TorusWindow:
    """Square window [0, 2*radius)^2 with wrap-around (toroidal) distance."""

    radius: float

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


def _sq_dist_matrix(a: np.ndarray, b: np.ndarray, side: float | None) -> np.ndarray:
    """Pairwise squared distances between point sets, optionally toroidal.

    Computed in place: the fill calls this once per candidate slice, and
    each extra slice-sized temporary costs freshly mapped memory."""
    dx = a[:, 0, None] - b[None, :, 0]
    dy = a[:, 1, None] - b[None, :, 1]
    np.abs(dx, out=dx)
    np.abs(dy, out=dy)
    if side is not None:
        np.minimum(dx, side - dx, out=dx)
        np.minimum(dy, side - dy, out=dy)
    dx *= dx
    dy *= dy
    dx += dy
    return dx


# ---------------------------------------------------------------------------
# Single-link primitives
# ---------------------------------------------------------------------------


def uplink_rate(sinr: float, bandwidth: float, load: float) -> float:
    """(bandwidth/load) * log2(1 + sinr), in bit/s.

    ``load`` is the number of devices sharing the serving AP's bandwidth;
    a fractional value is allowed so the mean share can be used directly.
    """
    if load <= 0:
        raise ModelDomainError(f"load must be > 0 (got {load!r})")
    if math.isnan(sinr) or sinr < 0:
        raise ModelDomainError(f"sinr must be >= 0 (got {sinr!r})")
    return (bandwidth / load) * (math.log1p(sinr) / math.log(2.0))


def cloud_delay(rate: float, w: InferenceWorkload) -> float:
    """Round-trip cloud delay payload/rate + compute_delay; inf when the
    rate underflows to zero (sentinel beyond any queried delay)."""
    if rate <= 0.0:
        return math.inf
    return w.payload_bits / rate + w.compute_delay


def select_output(delay: float, w: InferenceWorkload) -> bool:
    """Delay-gated output selection: whether the cloud result is used, which
    it is iff it meets the budget (inclusive)."""
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

    n = _as_index(values["trials"])
    check("trials", n is not None and 1 <= n <= _MAX_TRIALS, f"an integer in [1, {_MAX_TRIALS}]")
    radius = values["window_radius"]
    check("window_radius", radius is None or _finite(radius) and radius > 0, "finite and > 0")
    check("master_seed", _as_key(values["master_seed"]) is not None, "an integer in [0, 2**64)")
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
    """

    scenario: Scenario

    def __post_init__(self):
        super().__post_init__()
        if self.window_radius is None:
            object.__setattr__(
                self, "window_radius", _auto_radius(self.scenario.deployment, self.boundary)
            )
        expected_aps = self.scenario.deployment.lambda_ap * self.window.area
        if expected_aps < 100:
            warnings.warn(
                f"window holds only {expected_aps:.1f} expected APs; "
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


class _Engine:
    """Per-config precomputation plus the staged single-trial kernel.

    Each stage takes and returns plain arrays; ``trial`` composes them in
    stream order (deploy, associate, schedule, fill, link) and ``load``
    stops after associate.
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
        self.snr_inv = 0.0 if math.isinf(s.air.snr) else 1.0 / s.air.snr
        self.mean_share = mean_cell_load(s.deployment)
        self.sigma_scale = (
            None
            if cfg.shadowing_sigma_db is None
            else cfg.shadowing_sigma_db * _LN10 / 10.0
        )

    def _shadow_normals(self, stream: RngStream, n_points: int, n_ap: int):
        """Normals behind the shadowing gains of an (n_points, n_ap) pathloss
        block; None (and no draw) without shadowing."""
        if self.sigma_scale is None:
            return None
        return stream.normal((n_points, n_ap))

    def _serve(
        self, points: np.ndarray, ap: np.ndarray, tree, normals: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Serving index and own pathloss per point; also the pathloss rows
        when shadowed (needed for cross pathlosses). Draws nothing."""
        if normals is None:
            dist, serving = tree.query(points)
            return serving, dist ** 4, None
        pathloss = _sq_dist_matrix(points, ap, self.side)
        pathloss *= pathloss
        gain = self.sigma_scale * normals
        pathloss *= np.exp(gain, out=gain)
        serving = np.argmin(pathloss, axis=1)
        own = pathloss[np.arange(len(points)), serving]
        return serving, own, pathloss

    def deploy(self, stream: RngStream) -> tuple[np.ndarray, np.ndarray]:
        """AP and device positions, the typical device first at the window
        center. An empty AP draw is redrawn."""
        n_ap = stream.poisson(self.expected_aps)
        while n_ap == 0:
            n_ap = stream.poisson(self.expected_aps)
        ap = self.window.sample(stream, n_ap)
        n_dev = stream.poisson(self.expected_devs)
        dev = np.empty((n_dev + 1, 2))
        dev[0] = self.center
        dev[1:] = self.window.sample(stream, n_dev)
        return ap, dev

    def associate(self, stream: RngStream, ap: np.ndarray, dev: np.ndarray):
        """Minimum-pathloss association of every device.

        Returns the AP k-d tree (None when shadowed), the serving index and
        own pathloss per device, the device count per AP, and each device's
        cross pathloss to the typical device's AP when shadowed (else None).
        """
        tree = None
        if self.sigma_scale is None:
            from scipy.spatial import cKDTree

            tree = cKDTree(ap, boxsize=self.side) if self.torus else cKDTree(ap)
        normals = self._shadow_normals(stream, len(dev), len(ap))
        serving, own, pathloss = self._serve(dev, ap, tree, normals)
        counts = np.bincount(serving, minlength=len(ap))
        cross = None if pathloss is None else pathloss[:, serving[0]]
        return tree, serving, own, counts, cross

    def schedule(
        self, stream: RngStream, serving: np.ndarray, counts: np.ndarray, a0: int
    ) -> np.ndarray:
        """Index of one uniformly chosen device per non-serving non-empty cell."""
        order = np.argsort(serving, kind="stable")
        starts = np.cumsum(counts) - counts
        cells = np.nonzero(counts)[0]
        cells = cells[cells != a0]
        if not cells.size:
            return np.empty(0, dtype=np.intp)
        return order[starts[cells] + stream.integers(0, counts[cells])]

    def fill(
        self, stream: RngStream, ap: np.ndarray, tree, counts: np.ndarray, a0: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Saturation fill: one uniform device in every empty non-serving cell.

        Global rejection batches of ``8 * n_ap * 2**b`` window-uniform
        candidates, at most ``_FILL_BATCHES``, each drawn (with its
        shadowing normals) and associated ``_FILL_SLICE * n_ap`` candidates
        at a time until no cell is left empty; the first candidate to land
        in a cell fills it. Without shadowing, the first batch stops before
        a slice once fewer than ``_FILL_STOP * n_ap`` cells are empty, the
        cells still empty are filled locally (``_local_fill``), and only
        the cells that step does not fill go on to batches 2+. Fills come
        in ascending cell order; a cell still empty at the batch cap gets
        none. Returns positions, own pathlosses and cross pathlosses to AP
        ``a0`` (None unless shadowed).
        """
        n_ap = len(ap)
        step = _FILL_SLICE * n_ap
        needed = counts == 0
        needed[a0] = False
        cells = np.nonzero(needed)[0]
        pts, own, cross = np.empty((n_ap, 2)), np.empty(n_ap), np.empty(n_ap)
        stop = _FILL_STOP * n_ap if tree is not None else 1
        for batch in range(_FILL_BATCHES):
            if not needed.any():
                break
            if batch == 1 and tree is not None:
                left = np.nonzero(needed)[0]
                done, local_pts, local_own = self._local_fill(stream, ap, tree, left)
                got = left[done]
                needed[got] = False
                pts[got], own[got] = local_pts[done], local_own[done]
                stop = 1
            for _ in range((8 << batch) // _FILL_SLICE):
                if np.count_nonzero(needed) < stop:
                    break
                cand = self.window.sample(stream, step)
                serving, cand_own, pathloss = self._serve(
                    cand, ap, tree, self._shadow_normals(stream, step, n_ap)
                )
                hit = np.nonzero(needed[serving])[0]
                got, first = np.unique(serving[hit], return_index=True)
                take = hit[first]
                needed[got] = False
                pts[got], own[got] = cand[take], cand_own[take]
                if pathloss is not None:
                    cross[got] = pathloss[take, a0]
        cells = cells[~needed[cells]]
        return pts[cells], own[cells], None if self.sigma_scale is None else cross[cells]

    def _cell_radius(self, ap: np.ndarray, tree, cells: np.ndarray) -> np.ndarray:
        """Radius around each AP in ``cells`` that holds its whole cell (the
        part in the window); nan where the local geometry does not bound it.

        The cell lies inside the polygon cut out by the bisector half-planes
        ``x . d <= |d|**2 / 2`` of its ``_FILL_NEIGHBOURS`` nearest APs
        (displacements ``d`` from the AP, minimum image on the torus): a
        point of the cell is no farther from the AP than from any
        neighbour, and on the torus no farther than from the neighbour's
        image at ``d``. On the disc the window adds three neighbours, the
        AP's mirror images across the window's tangents at the AP's own
        direction and at +-2pi/3 from it: their half-planes are the sides of
        the tangents that hold the window, and together they bound every
        polygon, edge cells included. A bounded convex polygon is farthest
        from the AP at a vertex, that is at an end of one of its edges, so
        the radius is the largest norm among the ends of the bisectors'
        stretches that satisfy every half-plane; a polygon whose edge has
        no end is unbounded. On the torus the radius must also stay below
        half the side, so that the disc around the AP does not wrap onto
        itself. (The AP's periodic images would bound a torus polygon too,
        but only with a vertex on an image's bisector, at half the side or
        more, so they would bound no cell that passes.)
        """
        if len(ap) <= _FILL_NEIGHBOURS:
            return np.full(len(cells), np.nan)
        p = ap[cells]
        _, nb = tree.query(p, k=_FILL_NEIGHBOURS + 1)
        d = ap[nb[:, 1:]] - p[:, None]
        if self.torus:
            d -= self.side * np.round(d / self.side)
        else:
            phi = np.arctan2(p[:, 1], p[:, 0])[:, None] + _DISC_TANGENTS
            u = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
            gap = self.window.radius - (u * p[:, None]).sum(axis=-1)
            d = np.concatenate([d, 2.0 * gap[..., None] * u], axis=1)
        half = 0.5 * (d * d).sum(axis=-1)
        # bisector i is d_i / 2 + s perp(d_i), |.|**2 = half_i (1/2 + 2 s**2);
        # half-plane j keeps s * det(d_i, d_j) <= half_j - d_i . d_j / 2
        x, y = d[..., 0], d[..., 1]
        det = x[..., :, None] * y[..., None, :] - y[..., :, None] * x[..., None, :]
        room = half[:, None, :] - 0.5 * (d @ d.transpose(0, 2, 1))
        with np.errstate(all="ignore"):
            s = room / det
            hi = np.where(det > 0.0, s, np.inf).min(axis=-1)
            lo = np.where(det < 0.0, s, -np.inf).max(axis=-1)
            far = half * (0.5 + 2.0 * np.maximum(lo * lo, hi * hi))
            rho = np.sqrt(np.where(lo <= hi, far, 0.0).max(axis=-1)) * (1.0 + 1e-9)
        ok = (rho > 0.0) & np.isfinite(rho)
        if self.torus:
            ok &= rho < 0.5 * self.side
        return np.where(ok, rho, np.nan)

    def _local_fill(
        self, stream: RngStream, ap: np.ndarray, tree, cells: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One point uniform in the cell of each AP in ``cells`` (which may
        repeat), with its own pathloss; unshadowed association only.

        Candidates are uniform in the disc of radius ``_cell_radius`` around
        the AP, ``_LOCAL_DRAWS`` per cell and round, for at most
        ``_FILL_BATCHES`` rounds; the first to lie in the window and have
        that AP as its nearest is kept. Since the disc holds the whole cell,
        the kept point is exactly uniform in the cell. Returns a mask of
        the cells that got a point (False where the cell is not bounded or
        no round hit it), the points and their own pathlosses.
        """
        rho = self._cell_radius(ap, tree, cells)
        todo = np.nonzero(np.isfinite(rho))[0]
        done = np.zeros(len(cells), dtype=bool)
        pts, own = np.empty((len(cells), 2)), np.empty(len(cells))
        for _ in range(_FILL_BATCHES):
            if not todo.size:
                break
            u = stream.uniform((todo.size, _LOCAL_DRAWS, 2))
            r = rho[todo, None] * np.sqrt(u[..., 0])
            theta = 2.0 * math.pi * u[..., 1]
            cand = ap[cells[todo], None] + np.stack([r * np.cos(theta), r * np.sin(theta)], -1)
            if self.torus:
                cand %= self.side
                in_window = True
            else:
                in_window = (cand * cand).sum(axis=-1) <= self.window.radius**2
            serving, cand_own, _ = self._serve(cand.reshape(-1, 2), ap, tree, None)
            hit = in_window & (serving.reshape(r.shape) == cells[todo, None])
            first = hit.argmax(axis=1)
            rows = np.nonzero(hit[np.arange(todo.size), first])[0]
            done[todo[rows]] = True
            pts[todo[rows]] = cand[rows, first[rows]]
            own[todo[rows]] = cand_own.reshape(r.shape)[rows, first[rows]]
            todo = np.delete(todo, rows)
        return done, pts, own

    def link(
        self,
        stream: RngStream,
        tagged_ap: np.ndarray,
        pts: np.ndarray,
        own: np.ndarray,
        cross: np.ndarray | None,
        load: int,
    ) -> tuple[float, float, float, bool]:
        """Fading, SINR, rate, delay and output choice of the typical device.

        ``cross`` is None on the k-d tree path, where the interferers' cross
        pathlosses follow from their distances to ``tagged_ap``.
        """
        s = self.cfg.scenario
        if cross is None:
            sq = _sq_dist_matrix(pts, tagged_ap[None], self.side)[:, 0]
            cross = sq * sq
        h = np.atleast_1d(exponential_variate(stream, 1.0, size=len(own) + 1))
        interference = float(np.dot(own / cross, h[1:]))
        denom = self.snr_inv + interference
        sinr = math.inf if denom == 0.0 else float(h[0]) / denom
        share = self.mean_share if self.cfg.load_model == "mean_field" else float(load)
        rate = uplink_rate(sinr, s.air.bandwidth, share)
        delay = cloud_delay(rate, s.workload)
        return sinr, rate, delay, select_output(delay, s.workload)

    def load(self, index: int) -> int:
        """Serving-cell load of trial ``index``: deploy and associate only."""
        stream = RngStream(self.cfg.master_seed, index)
        ap, dev = self.deploy(stream)
        _, serving, _, counts, _ = self.associate(stream, ap, dev)
        return int(counts[serving[0]])

    def trial(self, index: int, collect: bool = False):
        stream = RngStream(self.cfg.master_seed, index)
        ap, dev = self.deploy(stream)
        tree, serving, own, counts, cross = self.associate(stream, ap, dev)
        a0 = int(serving[0])
        load = int(counts[a0])
        members = self.schedule(stream, serving, counts, a0)
        pts, own = dev[members], own[members]
        cross = None if cross is None else cross[members]
        if self.cfg.full_buffer:
            fill_pts, fill_own, fill_cross = self.fill(stream, ap, tree, counts, a0)
            pts = np.concatenate([pts, fill_pts])
            own = np.concatenate([own, fill_own])
            cross = None if cross is None else np.concatenate([cross, fill_cross])
        sinr, rate, delay, used = self.link(stream, ap[a0], pts, own, cross, load)

        if not collect:
            return delay, used, load
        return TrialRealization(
            ap_points=ap - self.center,
            dev_points=dev - self.center,
            serving_ap=a0,
            load_nu=load,
            interferer_set=pts - self.center,
            sinr_u=sinr,
            rate_u=rate,
            delay=delay,
            used_cloud=bool(used),
        )


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
    again.
    """
    w = _as_index(workers)
    if w is None or w < 1:
        raise ModelDomainError(f"workers must be an integer >= 1 (got {workers!r})")
    n = _pool_size(w, sum(cfg.trials for cfg in cfgs))
    if n == 1:
        return [[fn(cfg, 0, cfg.trials)] for cfg in cfgs]
    import scipy.spatial  # noqa: F401

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
    engine = _Engine(cfg)
    n = hi - lo
    delays = np.empty(n)
    used = np.empty(n, dtype=bool)
    loads = np.empty(n, dtype=np.int64)
    for k in range(n):
        delays[k], used[k], loads[k] = engine.trial(lo + k)
    return delays, used, loads


def _load_range(cfg: SimConfig, lo: int, hi: int) -> np.ndarray:
    engine = _Engine(cfg)
    return np.array([engine.load(i) for i in range(lo, hi)], dtype=np.int64)


def simulate_trial(cfg: SimConfig, index: int) -> TrialRealization:
    """Full realization of trial ``index`` (same stream and draws as
    ``run_trials`` uses for that index)."""
    if not (0 <= index < cfg.trials):
        raise ModelDomainError(f"index must be in [0, {cfg.trials}) (got {index!r})")
    return _Engine(cfg).trial(index, collect=True)


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
    endpoints are included in the supremum.
    """
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
    mse_tol = 0.03 * (w.mse_edge - w.mse_cloud)

    checks = {
        "delay_cdf_ks": {"value": ks, "tolerance": 0.05, "pass": ks <= 0.05},
        "cloud_use_abs_error": {
            "simulated": summary.cloud_use_fraction,
            "analytic": p_analytic,
            "value": abs(summary.cloud_use_fraction - p_analytic),
            "tolerance": 0.03,
            "pass": abs(summary.cloud_use_fraction - p_analytic) <= 0.03,
        },
        "mse_abs_error": {
            "simulated": summary.mse_estimate,
            "analytic": mse_analytic,
            "value": abs(summary.mse_estimate - mse_analytic),
            "tolerance": mse_tol,
            "pass": abs(summary.mse_estimate - mse_analytic) <= mse_tol,
        },
    }

    load_checks = {}
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
        rel = abs(mean_load - target) / target
        load_checks[f"lambda_hat_{lh:g}"] = {
            "simulated": mean_load,
            "analytic": target,
            "value": rel,
            "tolerance": 0.05,
            "pass": rel <= 0.05,
        }
    checks["mean_load_rel_error"] = load_checks

    all_pass = (
        checks["delay_cdf_ks"]["pass"]
        and checks["cloud_use_abs_error"]["pass"]
        and checks["mse_abs_error"]["pass"]
        and all(c["pass"] for c in load_checks.values())
    )
    return {
        "master_seed": seed,
        "trials": trials,
        "window_radius": radius,
        "boundary": "torus",
        "scenario": {
            "lambda_ap": scenario.deployment.lambda_ap,
            "lambda_dev": scenario.deployment.lambda_dev,
            "payload_bits": w.payload_bits,
            "delay_budget": w.delay_budget,
            "compute_delay": w.compute_delay,
            "mse_cloud": w.mse_cloud,
            "mse_edge": w.mse_edge,
            "bandwidth": scenario.air.bandwidth,
            "snr": "inf" if math.isinf(scenario.air.snr) else scenario.air.snr,
            "inference_rate": scenario.inference_rate,
        },
        "checks": checks,
        "pass": all_pass,
    }
