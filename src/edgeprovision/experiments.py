"""Parameter-sweep engine and serialization layer.

A sweep evaluates a set of model metrics on a grid along one axis
(``lambda_hat``, ``r_min``, ``mse_target`` or ``mse_edge_ratio``) and emits
the table as CSV. A sweep that carries simulator settings
(``SweepSpec.sim``, a ``geomsim.SimSettings``) also runs one Monte Carlo
experiment per grid point and attaches its estimates, each with the
half-width of its 95% Wilson score interval (the ``sim_stderr`` column).

All numeric values stored in a ``SweepResult`` are quantized to 12
significant digits at construction time, so the emitted CSV (which prints
exactly 12 significant digits) is a lossless serialization and
emit -> parse round-trips to an identical result.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import yaml

from .analytic import (
    AirInterface,
    DeploymentConfig,
    InferenceWorkload,
    Scenario,
    _CLOSED_FORMS,
    _DEFAULT_EDGE_RATIO,
    _payload,
)
from .errors import (
    InfeasibleTargetError,
    ModelDomainError,
    SpecFileError,
    SpecValidationError,
)

# The simulator, and NumPy with it, is imported only where a sweep carries
# simulator settings, so an analytic-only sweep loads neither.
if TYPE_CHECKING:
    from .geomsim import SimSettings

__all__ = [
    "AXES",
    "METRICS",
    "SIMULABLE_METRICS",
    "DEFAULT_LAMBDA_HAT_GRID",
    "DEFAULT_RATE_GRID",
    "CSV_HEADER",
    "SweepSpec",
    "SweepRow",
    "SweepResult",
    "run_sweep",
    "emit_csv",
    "parse_csv",
    "load_spec",
]

AXES = ("lambda_hat", "r_min", "mse_target", "mse_edge_ratio")
METRICS = tuple(_CLOSED_FORMS)
SIMULABLE_METRICS = frozenset({"avg_mse", "delay_cdf_at", "cloud_use_prob"})
CSV_HEADER = "axis,axis_value,metric,analytic,simulated,sim_stderr,status"

_CRITICAL_METRICS = frozenset({"critical_density", "critical_edge_mse"})
# Upper limit on grid points (``sweep.grid`` length and ``sweep.range.n``).
# Each point adds a row per metric and, when simulated, a Monte Carlo run;
# 10**4 points resolve ten decades at 1,000 points per decade, finer than
# any curve needs, while the result stays a few MB.
_MAX_GRID_POINTS = 10_000


def _log_grid(lo: float, hi: float, n: int) -> tuple[float, ...]:
    ratio = (hi / lo) ** (1.0 / (n - 1))
    return tuple(lo * ratio ** i for i in range(n))


# Spans both limit regimes: load-dominated at small lambda_hat, saturated at
# large; rate grid covers the cloud-always to cloud-never transition.
DEFAULT_LAMBDA_HAT_GRID = _log_grid(0.1, 1000.0, 31)
DEFAULT_RATE_GRID = _log_grid(0.01, 10.0, 31)


def _round12(v: float | None) -> float | None:
    """Quantize to 12 significant digits (the CSV cell precision)."""
    if v is None:
        return None
    return float(f"{v:.12g}")


def _fmt(v: float | None) -> str:
    return "" if v is None else f"{v:.12g}"


# ---------------------------------------------------------------------------
# Sweep specification
# ---------------------------------------------------------------------------


def _sweep_problems(
    axis, outputs, mse_target, delay_query, compute_delay, simulate
) -> list[str]:
    """Every broken rule on a sweep's axis, outputs and queries, one message
    each. ``compute_delay`` None skips the ``delay_d`` lower bound; a sweep
    that ``simulate``s must ask for a simulable metric."""
    problems = []
    if axis not in AXES:
        problems.append(f"sweep.axis must be one of {AXES} (got {axis!r})")
    unknown = [m for m in outputs if m not in METRICS]
    if unknown:
        problems.append(f"unknown metrics in sweep.outputs: {unknown}")
    if len(set(outputs)) != len(outputs):
        problems.append("sweep.outputs must not repeat metrics")
    if simulate and outputs and not SIMULABLE_METRICS.intersection(outputs):
        problems.append(
            "sweep.simulate needs a simulable metric in sweep.outputs "
            f"(one of {sorted(SIMULABLE_METRICS)}; got {list(outputs)})"
        )
    if mse_target is not None and not math.isfinite(mse_target):
        problems.append(f"sweep.mse_target must be finite (got {mse_target!r})")
    if (
        axis != "mse_target"
        and mse_target is None
        and _CRITICAL_METRICS.intersection(outputs)
    ):
        problems.append(
            "sweep.mse_target is required when critical_density or "
            "critical_edge_mse is requested on a non-mse_target axis"
        )
    if delay_query is not None and not (
        math.isfinite(delay_query)
        and (compute_delay is None or delay_query > compute_delay)
    ):
        problems.append(
            "sweep.delay_d must be finite and exceed workload.d_c "
            f"(got {delay_query!r})"
        )
    return problems


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a base scenario, an axis with its grid, and the outputs.

    ``sim`` None computes the closed forms only; a ``SimSettings`` also
    simulates every grid point with those settings (see ``run_sweep``). It
    must not be a ``SimConfig``, whose scenario the sweep would drop, the
    outputs must then hold a simulable metric, and the whole sweep runs at
    most ``geomsim._MAX_TRIALS`` trials.
    """

    base: Scenario
    axis: str
    grid: tuple[float, ...]
    outputs: tuple[str, ...]
    sim: SimSettings | None = None
    mse_target: float | None = None
    delay_query: float | None = None

    def __post_init__(self):
        problems = []
        if not self.grid:
            problems.append("sweep.grid must be non-empty")
        elif len(self.grid) > _MAX_GRID_POINTS:
            problems.append(
                f"sweep.grid must hold at most {_MAX_GRID_POINTS} points "
                f"(got {len(self.grid)})"
            )
        elif not all(math.isfinite(v) for v in self.grid):
            problems.append("sweep.grid values must be finite")
        elif any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            problems.append("sweep.grid must be strictly increasing")
        else:
            lo = self.grid[0]
            if self.axis in ("lambda_hat", "r_min", "mse_target") and lo <= 0:
                problems.append(f"sweep.grid values must be > 0 for axis {self.axis}")
            if self.axis == "mse_edge_ratio" and lo < 1.0:
                problems.append("sweep.grid values must be >= 1 for axis mse_edge_ratio")
        if self.sim is not None:
            from .geomsim import _MAX_TRIALS, SimSettings

            if type(self.sim) is not SimSettings:
                problems.append(
                    f"sweep.sim must be a SimSettings or None (got {type(self.sim).__name__}); "
                    "the sweep sets the scenario at each grid point"
                )
            elif len(self.grid) * self.sim.trials > _MAX_TRIALS:
                problems.append(
                    f"sweep.sim.trials ({self.sim.trials}) times the grid size "
                    f"({len(self.grid)}) must be at most {_MAX_TRIALS}"
                )
        if not self.outputs:
            problems.append("sweep.outputs must be non-empty")
        problems += _sweep_problems(
            self.axis,
            self.outputs,
            self.mse_target,
            self.delay_query,
            self.base.workload.compute_delay,
            self.sim is not None,
        )
        if problems:
            raise SpecValidationError("\n".join(problems))


@dataclass(frozen=True)
class SweepRow:
    """One (grid point, metric) cell; numeric fields hold 12-significant-digit
    values, empty on infeasible points. ``sim_stderr`` is the half-width of
    the simulated value's 95% Wilson score interval, not the standard error
    itself."""

    axis_value: float
    metric: str
    analytic: float | None
    simulated: float | None
    sim_stderr: float | None
    status: str


@dataclass(frozen=True)
class SweepResult:
    axis: str
    rows: tuple[SweepRow, ...]


# ---------------------------------------------------------------------------
# Sweep evaluation
# ---------------------------------------------------------------------------


def _scenario_at(spec: SweepSpec, value: float) -> Scenario:
    base = spec.base
    if spec.axis == "lambda_hat":
        dep = DeploymentConfig(
            lambda_ap=value * base.deployment.lambda_dev,
            lambda_dev=base.deployment.lambda_dev,
        )
        return replace(base, deployment=dep)
    if spec.axis == "r_min":
        w = base.workload
        payload = _payload(value, base.air.bandwidth, w.delay_budget, w.compute_delay)
        return replace(base, workload=replace(w, payload_bits=payload))
    if spec.axis == "mse_edge_ratio":
        w = base.workload
        return replace(
            base, workload=replace(w, mse_edge=value * w.mse_cloud)
        )
    return base  # mse_target axis leaves the scenario untouched


def _half_width(p: float, n: int, scale: float = 1.0) -> float:
    """Half-width of the 95% Wilson score interval of a fraction ``p`` of
    ``n`` trials, times ``scale``. Unlike the Wald half-width
    ``1.96 * sqrt(p * (1 - p) / n)``, it stays positive at p = 0 and 1.
    The interval is centred at ``(p + z**2 / (2 n)) / (1 + z**2 / n)``, not
    at ``p``."""
    z2 = 1.96 * 1.96
    return scale * 1.96 / (1.0 + z2 / n) * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n))


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Evaluate every requested metric at every grid point.

    Points where a metric is undefined (e.g. a target below the asymptotic
    MSE in a critical-density sweep) produce rows with empty numeric cells
    and status ``infeasible`` instead of failing the sweep. When the spec
    carries ``sim`` settings (it then asks for a simulable metric), each
    grid point runs one Monte Carlo experiment, ``SimConfig(scenario=point,
    **vars(spec.sim))`` (same seed at every point, so consecutive points
    share common random numbers), and the simulable metrics gain estimates
    with 95% Wilson half-widths. The experiments of all points share at
    most one pool of worker processes, and the rows do not depend on
    ``workers``.
    """
    scenarios = [_scenario_at(spec, value) for value in spec.grid]
    summaries = [None] * len(scenarios)
    if spec.sim is not None:
        from .geomsim import SimConfig, _run_many

        cfgs = [SimConfig(scenario=s, **vars(spec.sim)) for s in scenarios]
        summaries = _run_many(cfgs, workers)
    rows = []
    for value, scenario, summary in zip(spec.grid, scenarios, summaries):
        target = value if spec.axis == "mse_target" else spec.mse_target
        # the delay_cdf_at query point: delay_d, else the budget
        delay = spec.delay_query
        if delay is None:
            delay = scenario.workload.delay_budget
        for metric in spec.outputs:
            try:
                analytic = _CLOSED_FORMS[metric](scenario, target, delay)
                status = "ok"
            except (InfeasibleTargetError, ModelDomainError):
                rows.append(
                    SweepRow(_round12(value), metric, None, None, None, "infeasible")
                )
                continue
            simulated = stderr = None
            if summary is not None and metric in SIMULABLE_METRICS:
                n = summary.trial_count
                p = summary.cloud_use_fraction
                if metric == "avg_mse":
                    w = scenario.workload
                    simulated = summary.mse_estimate
                    stderr = _half_width(p, n, w.mse_edge - w.mse_cloud)
                else:
                    if metric == "delay_cdf_at":
                        p = summary.delay_samples.evaluate(delay)
                    simulated = p
                    stderr = _half_width(p, n)
            rows.append(
                SweepRow(
                    _round12(value),
                    metric,
                    _round12(analytic),
                    _round12(simulated),
                    _round12(stderr),
                    status,
                )
            )
    return SweepResult(axis=spec.axis, rows=tuple(rows))


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------


def emit_csv(res: SweepResult, dest) -> None:
    """Write a SweepResult as CSV (UTF-8, LF endings, 12 significant digits).

    ``dest`` may be a path or an open text file.
    """
    lines = [CSV_HEADER]
    for r in res.rows:
        lines.append(
            ",".join(
                [
                    res.axis,
                    _fmt(r.axis_value),
                    r.metric,
                    _fmt(r.analytic),
                    _fmt(r.simulated),
                    _fmt(r.sim_stderr),
                    r.status,
                ]
            )
        )
    text = "\n".join(lines) + "\n"
    if isinstance(dest, io.TextIOBase) or hasattr(dest, "write"):
        dest.write(text)
    else:
        with open(dest, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def parse_csv(src) -> SweepResult:
    """Parse a CSV produced by ``emit_csv`` back into an equal SweepResult."""
    if isinstance(src, io.TextIOBase) or hasattr(src, "read"):
        text = src.read()
    else:
        with open(src, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    lines = [ln for ln in text.split("\n") if ln != ""]
    if not lines or lines[0] != CSV_HEADER:
        raise SpecFileError(
            f"bad CSV header: expected {CSV_HEADER!r}, got {lines[0] if lines else ''!r}"
        )
    axis = None
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 7:
            raise SpecFileError(f"bad CSV row (expected 7 cells): {ln!r}")
        row_axis, value, metric, analytic, simulated, stderr, status = parts
        if axis is None:
            axis = row_axis
        elif axis != row_axis:
            raise SpecFileError(f"mixed axis names in CSV: {axis!r} vs {row_axis!r}")
        if status not in ("ok", "infeasible"):
            raise SpecFileError(f"bad status {status!r} in row {ln!r}")
        rows.append(
            SweepRow(
                axis_value=float(value),
                metric=metric,
                analytic=float(analytic) if analytic else None,
                simulated=float(simulated) if simulated else None,
                sim_stderr=float(stderr) if stderr else None,
                status=status,
            )
        )
    if axis is None:
        raise SpecFileError("CSV holds no data rows")
    return SweepResult(axis=axis, rows=tuple(rows))


# ---------------------------------------------------------------------------
# Spec-file loading (YAML; plain JSON parses too)
# ---------------------------------------------------------------------------

_SECTION_KEYS = {
    "deployment": {"lambda_ap", "lambda_dev"},
    "workload": {"q", "d_t", "d_c", "m_c", "m_d"},
    "air": {"b", "snr"},
    "sweep": {
        "axis",
        "grid",
        "range",
        "outputs",
        "simulate",
        "sim",
        "mse_target",
        "delay_d",
    },
}
# sweep.sim key -> SimSettings field
_SIM_KEYS = {
    "trials": "trials",
    "window_radius": "window_radius",
    "seed": "master_seed",
    "shadowing": "shadowing_sigma_db",
    "boundary": "boundary",
    "load_model": "load_model",
    "full_buffer": "full_buffer",
}
_SIM_NAMES = {field: f"sweep.sim.{key}" for key, field in _SIM_KEYS.items()}


def _as_number(x) -> float | None:
    """Coerce a scalar to float, or None if it is not numeric.

    YAML 1.1 parses unsigned-exponent literals like ``1.0e6`` as strings,
    so numeric strings are accepted too.
    """
    if isinstance(x, bool):
        return None
    if isinstance(x, (int, float)):
        try:
            return float(x)
        except OverflowError:  # an int beyond the float range
            return None
    if isinstance(x, str):
        try:
            return float(x)
        except ValueError:
            return None
    return None


def _is_number(x) -> bool:
    return _as_number(x) is not None


class _SpecReader:
    """Walks the parsed document, collecting every problem before failing."""

    def __init__(self, doc):
        self.doc = doc
        self.problems: list[str] = []

    def fail(self, msg: str) -> None:
        self.problems.append(msg)

    def section(self, name: str) -> dict:
        sec = self.doc.get(name)
        if sec is None:
            self.fail(f"missing required section {name!r}")
            return {}
        if not isinstance(sec, dict):
            self.fail(f"section {name!r} must be a mapping")
            return {}
        for key in sec:
            if key not in _SECTION_KEYS[name]:
                self.fail(f"unknown field {name}.{key}")
        return sec

    def number(self, sec: dict, path: str, required: bool = True, default=None):
        name = path.split(".", 1)[1]
        if name not in sec:
            if required:
                self.fail(f"missing required field {path}")
            return default
        v = _as_number(sec[name])
        if v is None:
            self.fail(f"field {path} must be a number (got {sec[name]!r})")
            return default
        return v


def load_spec(path) -> SweepSpec:
    """Load a sweep specification file.

    The document has sections ``deployment{lambda_ap, lambda_dev}``,
    ``workload{q, d_t, d_c, m_c, m_d?}``, ``air{b, snr|"inf"}`` and
    ``sweep{axis, grid|range{lo,hi,n,scale}, outputs[], simulate, sim{...},
    mse_target?, delay_d?}``. Omitted ``m_d`` defaults to ``1.5 * m_c``;
    omitted ``snr`` to infinite (interference-limited). The ``sim`` keys
    are checked whether or not the sweep simulates, and errors name them
    by their spec keys; the spec's ``sim`` is None unless ``simulate`` is
    true, which needs a simulable metric among the outputs. Raises
    SpecFileError on unparseable documents and SpecValidationError listing
    every schema violation.

    The document is parsed by libyaml when PyYAML was built with it, else
    by PyYAML's pure-Python parser. They build the same document from the
    same text, except that libyaml also takes a tab as the space between
    tokens on a line, which the pure-Python parser rejects, and words its
    parse errors differently (the type and line stay).
    """
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.load(fh, Loader=loader)
        except yaml.YAMLError as e:
            mark = getattr(e, "problem_mark", None)
            where = f" at line {mark.line + 1}" if mark is not None else ""
            raise SpecFileError(f"cannot parse {path}{where}: {e}") from e
        except UnicodeDecodeError as e:
            raise SpecFileError(f"cannot parse {path}: not UTF-8 text ({e})") from e
    if not isinstance(doc, dict):
        raise SpecValidationError("spec document must be a mapping of sections")
    for key in doc:
        if key not in _SECTION_KEYS:
            raise SpecValidationError(f"unknown section {key!r}")

    r = _SpecReader(doc)
    dep_sec = r.section("deployment")
    wl_sec = r.section("workload")
    air_sec = r.section("air")
    sweep_sec = r.section("sweep")

    lambda_ap = r.number(dep_sec, "deployment.lambda_ap")
    lambda_dev = r.number(dep_sec, "deployment.lambda_dev")
    q = r.number(wl_sec, "workload.q")
    d_t = r.number(wl_sec, "workload.d_t")
    d_c = r.number(wl_sec, "workload.d_c")
    m_c = r.number(wl_sec, "workload.m_c")
    m_d = r.number(wl_sec, "workload.m_d", required=False)
    if m_d is None and m_c is not None:
        m_d = _DEFAULT_EDGE_RATIO * m_c
    b = r.number(air_sec, "air.b")

    snr = math.inf
    if "snr" in air_sec:
        raw = air_sec["snr"]
        if isinstance(raw, str) and raw.strip().lower() in ("inf", "infinite"):
            snr = math.inf
        elif _is_number(raw):
            snr = float(raw)
        else:
            r.fail(f'field air.snr must be a positive number or "inf" (got {raw!r})')

    # sweep section
    axis = sweep_sec.get("axis")
    grid: tuple[float, ...] = ()
    if ("grid" in sweep_sec) == ("range" in sweep_sec):
        r.fail("sweep needs exactly one of sweep.grid or sweep.range")
    elif "grid" in sweep_sec:
        raw = sweep_sec["grid"]
        if not isinstance(raw, list) or not raw or not all(_is_number(v) for v in raw):
            r.fail(f"field sweep.grid must be a non-empty list of numbers (got {raw!r})")
        else:
            grid = tuple(float(v) for v in raw)
    else:
        rng = sweep_sec["range"]
        if not isinstance(rng, dict):
            r.fail("field sweep.range must be a mapping {lo, hi, n, scale}")
        else:
            for key in rng:
                if key not in {"lo", "hi", "n", "scale"}:
                    r.fail(f"unknown field sweep.range.{key}")
            lo = _as_number(rng.get("lo"))
            hi = _as_number(rng.get("hi"))
            n = rng.get("n")
            scale = rng.get("scale", "linear")
            ok = True
            if lo is None or hi is None:
                r.fail("fields sweep.range.lo and sweep.range.hi must be numbers")
                ok = False
            if (
                not isinstance(n, int)
                or isinstance(n, bool)
                or not 1 <= n <= _MAX_GRID_POINTS
            ):
                r.fail(
                    f"field sweep.range.n must be an integer in [1, {_MAX_GRID_POINTS}] "
                    f"(got {n!r})"
                )
                ok = False
            if scale not in ("linear", "log"):
                r.fail(f"field sweep.range.scale must be linear|log (got {scale!r})")
                ok = False
            if ok and n > 1 and not (lo < hi):
                r.fail("sweep.range needs lo < hi")
                ok = False
            if ok and scale == "log" and lo <= 0:
                r.fail("sweep.range with log scale needs lo > 0")
                ok = False
            if ok:
                if n == 1:
                    grid = (float(lo),)
                elif scale == "linear":
                    step = (hi - lo) / (n - 1)
                    grid = tuple(float(lo + step * i) for i in range(n))
                else:
                    grid = _log_grid(float(lo), float(hi), n)

    outputs_raw = sweep_sec.get("outputs")
    outputs: tuple[str, ...] = ()
    if (
        not isinstance(outputs_raw, list)
        or not outputs_raw
        or not all(isinstance(m, str) for m in outputs_raw)
    ):
        r.fail(f"field sweep.outputs must be a non-empty list of metric names (got {outputs_raw!r})")
    else:
        outputs = tuple(outputs_raw)

    simulate = sweep_sec.get("simulate", False)
    if not isinstance(simulate, bool):
        r.fail(f"field sweep.simulate must be a boolean (got {simulate!r})")
        simulate = False

    sim = None
    if simulate or "sim" in sweep_sec:
        from .geomsim import SimSettings, _sim_problems

        sim = SimSettings()
    if "sim" in sweep_sec:
        sim_sec = sweep_sec["sim"]
        if not isinstance(sim_sec, dict):
            r.fail("field sweep.sim must be a mapping")
        else:
            for key in sim_sec:
                if key not in _SIM_KEYS:
                    r.fail(f"unknown field sweep.sim.{key}")
            radius = sim_sec.get("window_radius")
            if radius is not None:
                radius = _as_number(radius)
                if radius is None:
                    r.fail(
                        "field sweep.sim.window_radius must be a number or omitted "
                        f"(got {sim_sec['window_radius']!r})"
                    )
            shadowing = sim_sec.get("shadowing", "none")
            sigma: float | None = None
            if shadowing in ("none", None):
                sigma = None
            elif _is_number(shadowing):
                sigma = float(shadowing)
            elif (
                isinstance(shadowing, dict)
                and set(shadowing) == {"lognormal"}
                and _is_number(shadowing["lognormal"])
            ):
                sigma = float(shadowing["lognormal"])
            else:
                r.fail(
                    'field sweep.sim.shadowing must be "none", a sigma in dB, or '
                    f"{{lognormal: sigma}} (got {shadowing!r})"
                )
            values = vars(sim) | {"window_radius": radius, "shadowing_sigma_db": sigma}
            values |= {
                _SIM_KEYS[k]: sim_sec[k]
                for k in ("trials", "seed", "boundary", "load_model", "full_buffer")
                if k in sim_sec
            }
            problems = _sim_problems(values, _SIM_NAMES)
            r.problems += problems
            if not problems:
                sim = SimSettings(**values)

    mse_target = None
    if "mse_target" in sweep_sec:
        raw = sweep_sec["mse_target"]
        if not _is_number(raw):
            r.fail(f"field sweep.mse_target must be a number (got {raw!r})")
        else:
            mse_target = float(raw)
    delay_query = None
    if "delay_d" in sweep_sec:
        raw = sweep_sec["delay_d"]
        if not _is_number(raw):
            r.fail(f"field sweep.delay_d must be a number (got {raw!r})")
        else:
            delay_query = float(raw)

    r.problems += _sweep_problems(axis, outputs, mse_target, delay_query, d_c, simulate)

    # Range checks run per section so one bad value does not mask another.
    dep = wl = ai = None
    if None not in (lambda_ap, lambda_dev):
        try:
            dep = DeploymentConfig(lambda_ap=lambda_ap, lambda_dev=lambda_dev)
        except ModelDomainError as e:
            r.fail(f"deployment: {e}")
    if None not in (q, d_t, d_c, m_c, m_d):
        try:
            wl = InferenceWorkload(
                payload_bits=q,
                delay_budget=d_t,
                compute_delay=d_c,
                mse_cloud=m_c,
                mse_edge=m_d,
            )
        except ModelDomainError as e:
            r.fail(f"workload: {e}")
    if b is not None:
        try:
            ai = AirInterface(bandwidth=b, snr=snr)
        except ModelDomainError as e:
            r.fail(f"air: {e}")
    if r.problems:
        raise SpecValidationError("\n".join(r.problems))
    base = Scenario(deployment=dep, workload=wl, air=ai)

    return SweepSpec(
        base=base,
        axis=axis,
        grid=grid,
        outputs=outputs,
        sim=sim if simulate else None,
        mse_target=mse_target,
        delay_query=delay_query,
    )
