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

import math
import operator
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, NamedTuple

from .analytic import (
    AirInterface,
    DeploymentConfig,
    InferenceWorkload,
    Scenario,
    _CLOSED_FORMS,
    _DEFAULT_EDGE_RATIO,
    _as_index,
    _as_number,
    _finite,
    _payload,
    _rate,
    _snr_type,
    _worker_count,
)
from .errors import (
    InfeasibleTargetError,
    ModelDomainError,
    SpecFileError,
    SpecValidationError,
)

# The simulator, and NumPy with it, is imported only where a sweep carries
# simulator settings, so an analytic-only sweep loads neither. PyYAML is
# imported by ``load_spec`` alone: a sweep built, run and written as CSV in
# code never loads it.
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


def _range_grid(rng: dict, path: str, problems: list) -> tuple[float, ...] | None:
    """The grid of a spec's ``sweep.range`` mapping: ``n`` points from
    ``lo`` to ``hi``, evenly or (``scale: log``) geometrically spaced; None
    after appending every problem when the mapping is broken or a point
    is not a finite float."""
    lo = _as_number(rng.get("lo"))
    hi = _as_number(rng.get("hi"))
    n = _as_index(rng.get("n"), 1, _MAX_GRID_POINTS + 1)
    scale = rng["scale"]
    found = []
    if lo is None or hi is None:
        found.append(f"fields {path}.lo and {path}.hi must be numbers")
    if n is None:
        found.append(
            f"field {path}.n must be an integer in [1, {_MAX_GRID_POINTS}] (got {rng.get('n')!r})"
        )
    if scale not in ("linear", "log"):
        found.append(f"field {path}.scale must be linear|log (got {scale!r})")
    if not found and n > 1 and not lo < hi:
        found.append(f"{path} needs lo < hi")
    if not found and scale == "log" and lo <= 0:
        found.append(f"{path} with log scale needs lo > 0")
    problems += found
    if found:
        return None
    try:
        if n == 1:
            grid = (lo,)
        elif scale == "log":
            grid = _log_grid(lo, hi, n)
        else:
            step = (hi - lo) / (n - 1)
            grid = tuple(lo + step * i for i in range(n))
        if all(map(math.isfinite, grid)):
            return grid
    except OverflowError:  # a power of the log ratio beyond the float range
        pass
    problems.append(f"{path} must give finite grid values")
    return None


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


def _sweep_problems(sweep: dict, compute_delay, simulate) -> list[str]:
    """Every broken rule on a sweep, one message each.

    ``sweep`` maps ``SweepSpec``'s field names to values. The spec reader
    leaves out the values it has already rejected, which skips the rules
    on them, as None ``compute_delay`` skips the ``delay_d`` lower bound.
    A sweep that ``simulate``s must ask for a simulable metric.
    """
    axis = sweep.get("axis")
    grid = sweep.get("grid")
    outputs = sweep.get("outputs") or ()
    sim = sweep.get("sim")
    mse_target = sweep.get("mse_target")
    delay_query = sweep.get("delay_query")
    problems = []
    if "grid" in sweep:
        if not grid:
            problems.append("sweep.grid must be non-empty")
        elif len(grid) > _MAX_GRID_POINTS:
            problems.append(
                f"sweep.grid must hold at most {_MAX_GRID_POINTS} points (got {len(grid)})"
            )
        elif not all(map(math.isfinite, grid)):
            problems.append("sweep.grid values must be finite")
        elif any(map(operator.le, grid[1:], grid)):
            problems.append("sweep.grid must be strictly increasing")
        elif axis in ("lambda_hat", "r_min", "mse_target") and grid[0] <= 0:
            problems.append(f"sweep.grid values must be > 0 for axis {axis}")
        elif axis == "mse_edge_ratio" and grid[0] < 1.0:
            problems.append("sweep.grid values must be >= 1 for axis mse_edge_ratio")
    if sim is not None:
        from .geomsim import _MAX_TRIALS, SimSettings

        if type(sim) is not SimSettings:
            problems.append(
                f"sweep.sim must be a SimSettings or None (got {type(sim).__name__}); "
                "the sweep sets the scenario at each grid point"
            )
        elif grid and len(grid) * sim.trials > _MAX_TRIALS:
            problems.append(
                f"sweep.sim.trials ({sim.trials}) times the grid size "
                f"({len(grid)}) must be at most {_MAX_TRIALS}"
            )
    if "outputs" in sweep and not outputs:
        problems.append("sweep.outputs must be non-empty")
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
        compute_delay = self.base.workload.compute_delay
        problems = _sweep_problems(vars(self), compute_delay, self.sim is not None)
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
    ``workers``, which must be an integer >= 1 (ModelDomainError) even
    when the sweep is analytic-only.
    """
    workers = _worker_count(workers)
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
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        with open(dest, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def parse_csv(src) -> SweepResult:
    """Parse a CSV produced by ``emit_csv`` back into an equal SweepResult.

    Raises SpecFileError naming the header or row that is malformed, or
    that ``emit_csv`` never writes: an unknown axis or metric, a nan cell,
    an ``ok`` row without an analytic value, or an ``infeasible`` row with
    numbers."""
    if hasattr(src, "read"):
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
            if row_axis not in AXES:
                raise SpecFileError(f"unknown axis {row_axis!r} in row {ln!r}")
            axis = row_axis
        elif axis != row_axis:
            raise SpecFileError(f"mixed axis names in CSV: {axis!r} vs {row_axis!r}")
        if metric not in METRICS:
            raise SpecFileError(f"unknown metric {metric!r} in row {ln!r}")
        if status == "ok":
            if not analytic:
                raise SpecFileError(f"ok row without an analytic value: {ln!r}")
        elif status != "infeasible":
            raise SpecFileError(f"bad status {status!r} in row {ln!r}")
        elif analytic or simulated or stderr:
            raise SpecFileError(f"infeasible row with numbers: {ln!r}")
        try:
            row = SweepRow(
                axis_value=float(value),
                metric=metric,
                analytic=float(analytic) if analytic else None,
                simulated=float(simulated) if simulated else None,
                sim_stderr=float(stderr) if stderr else None,
                status=status,
            )
        except ValueError as e:
            raise SpecFileError(f"bad number in CSV row {ln!r}: {e}") from e
        x, a, s, se = row.axis_value, row.analytic, row.simulated, row.sim_stderr
        if x != x or a != a or s != s or se != se:  # only nan is unequal to itself
            raise SpecFileError(f"nan cell in row {ln!r}")
        rows.append(row)
    if axis is None:
        raise SpecFileError("CSV holds no data rows")
    return SweepResult(axis=axis, rows=tuple(rows))


# ---------------------------------------------------------------------------
# Spec-file loading (YAML; plain JSON parses too)
# ---------------------------------------------------------------------------

_ABSENT = object()


class _Key(NamedTuple):
    """How ``load_spec`` reads one spec key into ``field``.

    ``convert(raw)`` returns the field's value, or raises ValueError naming
    the rule a rejected value breaks; the key then reads as its default
    (None without one). None keeps the raw value. A mapping's converter
    gets the fields of its keys, the mapping's path and the problem list,
    and returns None after appending any problem. An absent key reads as
    ``default``, else fills nothing (a problem if ``required``). Keys that
    fill one field are alternatives: exactly one of them must be given.
    """

    convert: Callable | None
    required: bool = False
    default: object = _ABSENT
    field: str | None = None


def _number(raw) -> float:
    value = _as_number(raw)
    if value is None:
        raise ValueError("a number")
    return value


def _number_or_null(raw) -> float | None:
    value = _as_number(raw)
    if value is None and raw is not None:
        raise ValueError("a number or omitted")
    return value


def _shadowing(raw) -> float | None:
    """A lognormal sigma in dB, bare or as ``{lognormal: sigma}``; None for
    ``none`` or null."""
    if raw in ("none", None):
        return None
    sigma = raw["lognormal"] if isinstance(raw, dict) and set(raw) == {"lognormal"} else raw
    value = _as_number(sigma)
    if value is None:
        raise ValueError('"none", a sigma in dB, or {lognormal: sigma}')
    return value


def _number_list(raw) -> tuple[float, ...]:
    values = [_as_number(v) for v in raw] if isinstance(raw, list) else []
    if not values or None in values:
        raise ValueError("a non-empty list of numbers")
    return tuple(values)


def _metric_names(raw) -> tuple[str, ...]:
    if not (isinstance(raw, list) and raw and all(isinstance(m, str) for m in raw)):
        raise ValueError("a non-empty list of metric names")
    return tuple(raw)


def _boolean(raw) -> bool:
    if not isinstance(raw, bool):
        raise ValueError("a boolean")
    return raw


def _sim_settings(fields: dict, path: str, problems: list) -> SimSettings | None:
    from .geomsim import SimSettings, _sim_problems

    values = vars(SimSettings()) | fields
    names = {row.field: f"{path}.{key}" for key, row in _LEVELS[path].items()}
    found = _sim_problems(values, names)
    problems += found
    return None if found else SimSettings(**values)


# Every spec key by dotted path, in the order its problems are reported:
# the sections, then each section's keys. The fields are those of the
# scenario dataclasses, SweepSpec (plus ``simulate``) and SimSettings,
# whose own checks and ``_sweep_problems`` hold the value rules.
_SPEC = {
    "deployment": _Key(None, required=True),
    "workload": _Key(None, required=True),
    "air": _Key(None, required=True),
    "sweep": _Key(None, required=True),
    "deployment.lambda_ap": _Key(_number, required=True, field="lambda_ap"),
    "deployment.lambda_dev": _Key(_number, required=True, field="lambda_dev"),
    "workload.q": _Key(_number, required=True, field="payload_bits"),
    "workload.d_t": _Key(_number, required=True, field="delay_budget"),
    "workload.d_c": _Key(_number, required=True, field="compute_delay"),
    "workload.m_c": _Key(_number, required=True, field="mse_cloud"),
    # absent: _DEFAULT_EDGE_RATIO * m_c, set by load_spec
    "workload.m_d": _Key(_number, field="mse_edge"),
    "air.b": _Key(_number, required=True, field="bandwidth"),
    "air.snr": _Key(_snr_type, default=math.inf, field="snr"),
    "sweep.axis": _Key(None, field="axis"),
    "sweep.grid": _Key(_number_list, required=True, field="grid"),
    "sweep.range": _Key(_range_grid, required=True, field="grid"),
    "sweep.range.lo": _Key(None, field="lo"),
    "sweep.range.hi": _Key(None, field="hi"),
    "sweep.range.n": _Key(None, field="n"),
    "sweep.range.scale": _Key(None, default="linear", field="scale"),
    # absent reads as null, which the converter rejects
    "sweep.outputs": _Key(_metric_names, default=None, field="outputs"),
    "sweep.simulate": _Key(_boolean, default=False, field="simulate"),
    # SimSettings fills what the spec leaves out, and checks the values
    "sweep.sim": _Key(_sim_settings, field="sim"),
    "sweep.sim.trials": _Key(None, field="trials"),
    "sweep.sim.window_radius": _Key(_number_or_null, field="window_radius"),
    "sweep.sim.seed": _Key(None, field="master_seed"),
    "sweep.sim.shadowing": _Key(_shadowing, field="shadowing_sigma_db"),
    "sweep.sim.boundary": _Key(None, field="boundary"),
    "sweep.sim.load_model": _Key(None, field="load_model"),
    "sweep.sim.full_buffer": _Key(None, field="full_buffer"),
    "sweep.mse_target": _Key(_number, field="mse_target"),
    "sweep.delay_d": _Key(_number, field="delay_query"),
}
# mapping path ("" for the document) -> {key: _Key}, and -> {field: [(key,
# its path)]} for the keys that fill each field, in table order
_LEVELS: dict[str, dict[str, _Key]] = {}
_FIELDS: dict[str, dict[str, list[tuple[str, str]]]] = {}
for _path, _row in _SPEC.items():
    _parent, _, _key = _path.rpartition(".")
    _LEVELS.setdefault(_parent, {})[_key] = _row
    _FIELDS.setdefault(_parent, {}).setdefault(_row.field, []).append((_key, _path))
# what a nested mapping's type error adds to "must be a mapping"
_SHAPES = {"sweep.range": " {lo, hi, n, scale}"}


def _unknown_keys(mapping: dict, path: str) -> list[str]:
    known = _LEVELS[path]
    if mapping.keys() <= known.keys():
        return []
    return [
        f"unknown field {path}.{key}" if path else f"unknown section {key!r}"
        for key in mapping
        if key not in known
    ]


def _read(mapping: dict, path: str, problems: list) -> dict:
    """The fields that the keys of the mapping at ``path`` fill."""
    fields = {}
    for field, keys in _FIELDS[path].items():
        key, sub = keys[0]
        if len(keys) > 1:
            given = [(key, sub) for key, sub in keys if key in mapping]
            if len(given) != 1:
                names = " or ".join(sub for _, sub in keys)
                problems.append(f"{path} needs exactly one of {names}")
                continue
            key, sub = given[0]
        row = _SPEC[sub]
        raw = mapping.get(key, row.default)
        if raw is _ABSENT:
            if row.required:
                problems.append(f"missing required field {sub}")
            continue
        if sub in _LEVELS:
            if isinstance(raw, dict):
                problems += _unknown_keys(raw, sub)
                raw = row.convert(_read(raw, sub, problems), sub, problems)
            else:
                problems.append(f"field {sub} must be a mapping{_SHAPES.get(sub, '')}")
                raw = None
        elif row.convert is not None:
            try:
                raw = row.convert(raw)
            except ValueError as e:
                problems.append(f"field {sub} must be {e} (got {raw!r})")
                raw = None if row.default is _ABSENT else row.default
        fields[field] = raw
    return fields


def _read_spec(doc: dict) -> tuple[dict, list[str]]:
    """Each section's fields, and every problem in the order of ``_SPEC``.

    Unknown sections come first, then every section is checked before any
    key is read; a section that is missing or not a mapping reads as empty.
    """
    problems = _unknown_keys(doc, "")
    sections = {}
    for name, row in _LEVELS[""].items():
        section = doc.get(name)
        if section is None:
            if row.required:
                problems.append(f"missing required section {name!r}")
        elif not isinstance(section, dict):
            problems.append(f"section {name!r} must be a mapping")
        else:
            problems += _unknown_keys(section, name)
            sections[name] = section
    fields = {name: _read(sections.get(name, {}), name, problems) for name in _LEVELS[""]}
    return fields, problems


def _rate_problems(workload: dict, air: AirInterface | None) -> list[str]:
    """The derived inference rate's problem, once the keys it uses have
    passed their own checks; it does not use ``m_c`` and ``m_d``, so their
    problems do not hide it."""
    used = {f: workload.get(f) for f in ("payload_bits", "delay_budget", "compute_delay")}
    if air is None or None in used.values():
        return []
    try:
        # MSEs of 1.0 pass their rules, so only the used keys are checked
        w = InferenceWorkload(**used, mse_cloud=1.0, mse_edge=1.0)
    except ModelDomainError:
        return []  # reported under workload
    r = _rate(w, air)
    if _finite(r) and r > 0:
        return []
    return [
        "derived inference rate workload.q / (air.b * (workload.d_t - workload.d_c))"
        f" must be finite and > 0 (got {r!r})"
    ]


def load_spec(path) -> SweepSpec:
    """Load a sweep specification file.

    ``_SPEC`` lists every key with its converter, whether it is required,
    its default and the field it fills. A ``sim`` section needs
    ``simulate: true``, and the spec's ``sim`` is None unless ``simulate``
    is true. Raises SpecFileError on unparseable documents and
    SpecValidationError listing every problem, each naming its spec key.

    The document is parsed by libyaml when PyYAML was built with it, else
    by PyYAML's pure-Python parser. They build the same document from the
    same text, except that libyaml also takes a tab as the space between
    tokens on a line, which the pure-Python parser rejects, and words its
    parse errors differently (the type and line stay).
    """
    import yaml

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
    fields, problems = _read_spec(doc)
    workload, sweep = fields["workload"], fields["sweep"]
    if workload.get("mse_edge") is None and workload.get("mse_cloud") is not None:
        workload["mse_edge"] = _DEFAULT_EDGE_RATIO * workload["mse_cloud"]
    simulate = sweep.pop("simulate")
    if not simulate:
        if "sim" in sweep:
            problems.append("field sweep.sim needs sweep.simulate: true")
        sweep["sim"] = None
    elif "sim" not in sweep:
        from .geomsim import SimSettings

        sweep["sim"] = SimSettings()
    accepted = {field: value for field, value in sweep.items() if value is not None}
    problems += _sweep_problems(accepted, workload.get("compute_delay"), simulate)
    # Range checks run per section so one bad value does not mask another.
    parts = {}
    for name, cls in (
        ("deployment", DeploymentConfig),
        ("workload", InferenceWorkload),
        ("air", AirInterface),
    ):
        values = fields[name]
        if len(values) == len(_LEVELS[name]) and None not in values.values():
            try:
                parts[name] = cls(**values)
            except ModelDomainError as e:
                problems.append(f"{name}: {e}")
    problems += _rate_problems(fields["workload"], parts.get("air"))
    if problems:
        raise SpecValidationError("\n".join(problems))
    return SweepSpec(base=Scenario(**parts), **sweep)
