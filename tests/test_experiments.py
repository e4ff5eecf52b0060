"""Unit tests for sweeps, CSV serialization and spec-file loading."""

import io
import math
import textwrap
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from edgeprovision.analytic import (
    AirInterface,
    DeploymentConfig,
    InferenceWorkload,
    Scenario,
    asymptotic_mse,
    average_mse,
)
from edgeprovision.errors import ModelDomainError, SpecFileError, SpecValidationError
from edgeprovision.experiments import (
    AXES,
    CSV_HEADER,
    DEFAULT_LAMBDA_HAT_GRID,
    DEFAULT_RATE_GRID,
    METRICS,
    SweepResult,
    SweepRow,
    SweepSpec,
    _SPEC,
    _half_width,
    _round12,
    emit_csv,
    load_spec,
    parse_csv,
    run_sweep,
)
from edgeprovision.geomsim import SimConfig, SimSettings, run_trials


# sweep tests use deliberately tiny simulation windows for speed
pytestmark = pytest.mark.filterwarnings("ignore:window holds only")


def base_scenario(rate: float = 1.0) -> Scenario:
    return Scenario(
        deployment=DeploymentConfig(1.0, 1.0),
        workload=InferenceWorkload(rate, 2.0, 1.0, mse_cloud=1.0, mse_edge=1.5),
        air=AirInterface(1.0),
    )


def write_spec(tmp_path, text: str):
    path = tmp_path / "spec.yaml"
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return path


MINIMAL_SPEC = """
    deployment:
      lambda_ap: 1.0
      lambda_dev: 1.0
    workload:
      q: 1.0e6
      d_t: 0.06
      d_c: 0.01
      m_c: 1.0
    air:
      b: 1.6e8
    sweep:
      axis: lambda_hat
      grid: [0.5, 1.0, 2.0]
      outputs: [avg_mse]
"""


# ---------------------------------------------------------------------------
# SweepSpec validation
# ---------------------------------------------------------------------------


def test_sweep_spec_rejects_unknown_axis():
    with pytest.raises(SpecValidationError):
        SweepSpec(base=base_scenario(), axis="bogus", grid=(1.0,), outputs=("avg_mse",))


def test_sweep_spec_rejects_decreasing_grid():
    with pytest.raises(SpecValidationError):
        SweepSpec(base=base_scenario(), axis="r_min", grid=(2.0, 1.0), outputs=("avg_mse",))


def test_sweep_spec_rejects_unknown_metric():
    with pytest.raises(SpecValidationError):
        SweepSpec(base=base_scenario(), axis="r_min", grid=(1.0,), outputs=("nope",))


def test_sweep_spec_requires_target_for_critical_metrics():
    with pytest.raises(SpecValidationError):
        SweepSpec(
            base=base_scenario(),
            axis="lambda_hat",
            grid=(1.0, 2.0),
            outputs=("critical_density",),
        )
    # on the mse_target axis the grid itself supplies the target
    SweepSpec(
        base=base_scenario(),
        axis="mse_target",
        grid=(1.3, 1.4),
        outputs=("critical_density",),
    )
    for target in (math.nan, math.inf, -math.inf):
        with pytest.raises(SpecValidationError, match="sweep.mse_target"):
            SweepSpec(
                base=base_scenario(),
                axis="lambda_hat",
                grid=(1.0,),
                outputs=("critical_density",),
                mse_target=target,
            )


def test_sweep_spec_rejects_bad_delay_query():
    with pytest.raises(SpecValidationError):
        SweepSpec(
            base=base_scenario(),
            axis="r_min",
            grid=(1.0,),
            outputs=("delay_cdf_at",),
            delay_query=0.5,  # not above compute_delay = 1.0
        )
    for delay in (math.nan, math.inf):
        with pytest.raises(SpecValidationError, match="sweep.delay_d"):
            SweepSpec(
                base=base_scenario(),
                axis="r_min",
                grid=(1.0,),
                outputs=("delay_cdf_at",),
                delay_query=delay,
            )


def test_sim_settings_rejects_every_broken_field(tmp_path):
    with pytest.raises(ModelDomainError) as exc_info:
        SimSettings(
            trials=0, boundary="x", window_radius=-1, load_model="y", full_buffer="no"
        )
    msg = str(exc_info.value)
    for field in ("trials", "boundary", "window_radius", "load_model", "full_buffer"):
        assert f"{field} must be" in msg
    assert SimSettings(window_radius=None).window_radius is None  # auto-sized
    # a spec file's sim section is checked by the same rules, under its keys
    doc = base_doc()
    doc["sweep"]["sim"] = {"trials": 0, "boundary": "x", "window_radius": -1, "seed": -1}
    with pytest.raises(SpecValidationError) as exc_info:
        load_spec(dump_spec(tmp_path, doc))
    msg = str(exc_info.value)
    for key in ("trials", "boundary", "window_radius", "seed"):
        assert f"sweep.sim.{key} must be" in msg


def test_sweep_spec_rejects_sim_config():
    # the sweep sets the scenario at each point; a SimConfig's would be dropped
    cfg = SimConfig(scenario=base_scenario(), window_radius=4.0, trials=10)
    with pytest.raises(SpecValidationError, match="sweep.sim must be a SimSettings"):
        SweepSpec(
            base=base_scenario(),
            axis="lambda_hat",
            grid=(1.0,),
            outputs=("cloud_use_prob",),
            sim=cfg,
        )


@pytest.mark.parametrize("points, trials", [(1, 10**7), (1000, 10**4), (7, 1428571)])
def test_sweep_spec_accepts_total_trials_at_the_limit(points, trials):
    spec = SweepSpec(
        base=base_scenario(),
        axis="lambda_hat",
        grid=tuple(float(i) for i in range(1, points + 1)),
        outputs=("avg_mse",),
        sim=SimSettings(trials=trials),
    )
    assert len(spec.grid) * spec.sim.trials <= 10**7


@pytest.mark.parametrize("points, trials", [(2, 5 * 10**6 + 1), (1001, 10**4), (10_000, 10**7)])
def test_sweep_spec_rejects_total_trials_past_the_limit(points, trials):
    grid = tuple(float(i) for i in range(1, points + 1))
    with pytest.raises(SpecValidationError) as exc_info:
        SweepSpec(
            base=base_scenario(),
            axis="lambda_hat",
            grid=grid,
            outputs=("avg_mse",),
            sim=SimSettings(trials=trials),
        )
    msg = str(exc_info.value)
    assert "sweep.sim.trials" in msg and f"({points})" in msg and "10000000" in msg
    # without settings nothing is simulated and the grid alone is checked
    assert SweepSpec(base=base_scenario(), axis="lambda_hat", grid=grid, outputs=("avg_mse",))


# ---------------------------------------------------------------------------
# sweep evaluation
# ---------------------------------------------------------------------------


def test_run_sweep_axis_transforms():
    spec = SweepSpec(
        base=base_scenario(rate=1.0),
        axis="lambda_hat",
        grid=(0.5, 1.0, 4.0),
        outputs=("avg_mse",),
    )
    res = run_sweep(spec)
    for row, lam_hat in zip(res.rows, spec.grid):
        dep = DeploymentConfig(lam_hat, 1.0)
        expected = average_mse(
            Scenario(dep, spec.base.workload, spec.base.air)
        )
        assert row.analytic == pytest.approx(expected, rel=1e-11)


def test_run_sweep_rate_axis_scales_payload():
    spec = SweepSpec(
        base=base_scenario(rate=1.0),
        axis="r_min",
        grid=(0.25, 1.0, 2.0),
        outputs=("asymptotic_mse",),
    )
    res = run_sweep(spec)
    for row, r in zip(res.rows, spec.grid):
        w = InferenceWorkload(r, 2.0, 1.0, mse_cloud=1.0, mse_edge=1.5)
        assert row.analytic == pytest.approx(asymptotic_mse(w, AirInterface(1.0)), rel=1e-11)


def test_run_sweep_marks_infeasible_rows():
    # base r_min=1 has asymptotic MSE ~1.27203; targets below it are
    # unreachable, a target at/above mse_edge has critical density 0
    spec = SweepSpec(
        base=base_scenario(rate=1.0),
        axis="mse_target",
        grid=(1.05, 1.2, 1.3, 1.45, 1.55),
        outputs=("critical_density",),
    )
    res = run_sweep(spec)
    statuses = [r.status for r in res.rows]
    assert statuses == ["infeasible", "infeasible", "ok", "ok", "ok"]
    for row in res.rows:
        if row.status == "infeasible":
            assert row.analytic is None and row.simulated is None and row.sim_stderr is None
    assert res.rows[2].analytic == pytest.approx(8.885272668618394, rel=1e-6)
    assert res.rows[4].analytic == 0.0


def test_run_sweep_simulated_columns():
    spec = SweepSpec(
        base=base_scenario(rate=0.125),
        axis="lambda_hat",
        grid=(1.0, 2.0),
        outputs=("cloud_use_prob", "avg_mse", "asymptotic_mse"),
        sim=SimSettings(trials=200, window_radius=4.0, master_seed=11),
    )
    res = run_sweep(spec)
    by_metric = {(r.axis_value, r.metric): r for r in res.rows}
    assert len(res.rows) == 6
    for v in (1.0, 2.0):
        cloud = by_metric[(v, "cloud_use_prob")]
        assert cloud.simulated is not None and 0.0 <= cloud.simulated <= 1.0
        assert cloud.sim_stderr is not None and cloud.sim_stderr >= 0.0
        assert abs(cloud.simulated - cloud.analytic) < 5 * max(cloud.sim_stderr, 0.02)
        # analytic-only metrics carry no simulated estimate
        assert by_metric[(v, "asymptotic_mse")].simulated is None


def test_sim_stderr_is_the_wilson_half_width():
    # The Wald half-width 1.96 * sqrt(p * (1 - p) / n) reads 0 when every
    # trial or none uses the cloud; the Wilson score half-width does not. A
    # tiny spectral-efficiency demand makes every trial use the cloud, a
    # huge one none.
    n, z = 50, 1.96
    spec = SweepSpec(
        base=base_scenario(),
        axis="r_min",
        grid=(1e-6, 1e3),
        outputs=("cloud_use_prob", "avg_mse"),
        sim=SimSettings(trials=n, window_radius=4.0, master_seed=5),
    )
    rows = {(r.axis_value, r.metric): r for r in run_sweep(spec).rows}
    edge = z * z / (2 * n) / (1 + z * z / n)
    assert edge > 0.0
    for value, p in ((1e-6, 1.0), (1e3, 0.0)):
        cloud = rows[(value, "cloud_use_prob")]
        assert cloud.simulated == p
        assert cloud.sim_stderr == pytest.approx(edge, rel=1e-11)
        # avg_mse scales it by m_d - m_c
        assert rows[(value, "avg_mse")].sim_stderr == pytest.approx(0.5 * edge, rel=1e-11)
    # a mid value: half the distance between the interval's ends, the roots
    # of (p - pi)**2 = z**2 * pi * (1 - pi) / n
    p, n = 0.3, 200
    lo, hi = sorted(np.roots([1 + z * z / n, -(2 * p + z * z / n), p * p]))
    assert _half_width(p, n) == pytest.approx((hi - lo) / 2, rel=1e-12)
    assert _half_width(p, n, 0.5) == pytest.approx((hi - lo) / 4, rel=1e-12)


def test_run_sweep_deterministic():
    spec = SweepSpec(
        base=base_scenario(rate=0.125),
        axis="lambda_hat",
        grid=(1.0, 2.0),
        outputs=("cloud_use_prob",),
        sim=SimSettings(trials=120, window_radius=4.0, master_seed=5),
    )
    assert run_sweep(spec) == run_sweep(spec)


@pytest.mark.parametrize(
    "settings",
    [{"load_model": "realized"}, {"full_buffer": False}, {"load_model": "realized", "full_buffer": False}],
)
def test_sweep_honours_every_sim_setting(tmp_path, settings):
    sim = SimSettings(trials=40, window_radius=4.0, master_seed=21, **settings)
    # a delay-CDF value in mid-range next to the cloud-use fraction, so that
    # 40 trials tell every setting from the defaults
    spec = SweepSpec(
        base=base_scenario(rate=0.125),
        axis="lambda_hat",
        grid=(0.5, 2.0),
        outputs=("cloud_use_prob", "delay_cdf_at"),
        sim=sim,
        delay_query=1.2,
    )
    # the spec file's sweep.sim keys (named as the fields) reach the same settings
    doc = {
        "deployment": {"lambda_ap": 1.0, "lambda_dev": 1.0},
        "workload": {"q": 0.125, "d_t": 2.0, "d_c": 1.0, "m_c": 1.0, "m_d": 1.5},
        "air": {"b": 1.0},
        "sweep": {
            "axis": "lambda_hat",
            "grid": [0.5, 2.0],
            "outputs": ["cloud_use_prob", "delay_cdf_at"],
            "delay_d": 1.2,
            "simulate": True,
            "sim": {"trials": 40, "window_radius": 4.0, "seed": 21, **settings},
        },
    }
    assert load_spec(dump_spec(tmp_path, doc)) == spec
    rows = run_sweep(spec).rows
    for cloud, delay, value in zip(rows[::2], rows[1::2], spec.grid):
        point = Scenario(
            deployment=DeploymentConfig(lambda_ap=value, lambda_dev=1.0),
            workload=spec.base.workload,
            air=spec.base.air,
        )
        cfg = SimConfig(
            scenario=point, trials=40, window_radius=4.0, master_seed=21, **settings
        )
        summary = run_trials(cfg)
        assert cloud.simulated == _round12(summary.cloud_use_fraction)
        assert delay.simulated == _round12(summary.delay_samples.evaluate(1.2))
    default = SimSettings(trials=40, window_radius=4.0, master_seed=21)
    assert rows != run_sweep(SweepSpec(**{**vars(spec), "sim": default})).rows


def test_simulated_sweep_csv_independent_of_workers():
    spec = SweepSpec(
        base=base_scenario(rate=0.125),
        axis="lambda_hat",
        grid=(0.5, 1.0, 2.0),
        outputs=("avg_mse", "cloud_use_prob", "delay_cdf_at"),
        sim=SimSettings(trials=30, window_radius=4.0, master_seed=13),
    )
    texts = []
    for workers in (1, 2):
        buf = io.StringIO()
        emit_csv(run_sweep(spec, workers=workers), buf)
        texts.append(buf.getvalue())
    assert texts[0] == texts[1]


def test_default_grids_shape():
    assert len(DEFAULT_LAMBDA_HAT_GRID) == 31
    assert DEFAULT_LAMBDA_HAT_GRID[0] == pytest.approx(0.1)
    assert DEFAULT_LAMBDA_HAT_GRID[-1] == pytest.approx(1000.0)
    assert len(DEFAULT_RATE_GRID) == 31
    assert all(b > a for a, b in zip(DEFAULT_RATE_GRID, DEFAULT_RATE_GRID[1:]))


# ---------------------------------------------------------------------------
# CSV round-trip
# ---------------------------------------------------------------------------


def make_mixed_result():
    spec = SweepSpec(
        base=base_scenario(rate=1.0),
        axis="mse_target",
        grid=(1.05, 1.3, 1.55),
        outputs=("critical_density", "avg_mse"),
        sim=SimSettings(trials=50, window_radius=4.0, master_seed=3),
    )
    return run_sweep(spec)


def test_csv_header_is_pinned():
    assert CSV_HEADER == "axis,axis_value,metric,analytic,simulated,sim_stderr,status"
    buf = io.StringIO()
    emit_csv(make_mixed_result(), buf)
    assert buf.getvalue().split("\n", 1)[0] == CSV_HEADER


def test_csv_roundtrip_identity():
    res = make_mixed_result()
    buf = io.StringIO()
    emit_csv(res, buf)
    parsed = parse_csv(io.StringIO(buf.getvalue()))
    assert parsed == res
    # and emission is stable byte-for-byte
    buf2 = io.StringIO()
    emit_csv(parsed, buf2)
    assert buf2.getvalue() == buf.getvalue()


def test_csv_roundtrip_via_file(tmp_path):
    res = make_mixed_result()
    path = tmp_path / "sweep.csv"
    emit_csv(res, path)
    assert parse_csv(path) == res


_CELL = st.floats(allow_nan=False).map(_round12)


@st.composite
def sweep_results(draw):
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        value = draw(_CELL)
        metric = draw(st.sampled_from(METRICS))
        if draw(st.booleans()):
            rows.append(SweepRow(value, metric, None, None, None, "infeasible"))
        else:
            cells = [draw(st.none() | _CELL) for _ in range(3)]
            rows.append(SweepRow(value, metric, *cells, "ok"))
    return SweepResult(axis=draw(st.sampled_from(AXES)), rows=tuple(rows))


@settings(max_examples=200)
@given(res=sweep_results())
def test_csv_roundtrip_identity_property(res):
    buf = io.StringIO()
    emit_csv(res, buf)
    assert parse_csv(io.StringIO(buf.getvalue())) == res


def test_parse_csv_rejects_bad_header():
    with pytest.raises(SpecFileError):
        parse_csv(io.StringIO("nope,nope\n"))


def test_parse_csv_rejects_bad_status():
    text = CSV_HEADER + "\nr_min,1,avg_mse,1.2,,,weird\n"
    with pytest.raises(SpecFileError):
        parse_csv(io.StringIO(text))


# ---------------------------------------------------------------------------
# spec files
# ---------------------------------------------------------------------------


def test_load_spec_minimal_defaults(tmp_path):
    spec = load_spec(write_spec(tmp_path, MINIMAL_SPEC))
    assert spec.axis == "lambda_hat"
    assert spec.grid == (0.5, 1.0, 2.0)
    assert spec.outputs == ("avg_mse",)
    assert spec.sim is None  # simulate defaults to false
    assert spec.base.workload.mse_edge == pytest.approx(1.5)  # 1.5 * m_c default
    assert math.isinf(spec.base.air.snr)
    assert spec.base.inference_rate == pytest.approx(0.125)


def test_load_spec_full_document(tmp_path):
    path = write_spec(
        tmp_path,
        """
        deployment: {lambda_ap: 2.0, lambda_dev: 1.0}
        workload: {q: 0.5, d_t: 2.0, d_c: 1.0, m_c: 1.0, m_d: 2.0}
        air: {b: 1.0, snr: 15.0}
        sweep:
          axis: mse_target
          range: {lo: 1.3, hi: 1.9, n: 4, scale: linear}
          outputs: [critical_density, critical_edge_mse]
          simulate: false
          sim: {trials: 77, window_radius: 6.0, seed: 9, shadowing: {lognormal: 4.0}, boundary: disc}
          delay_d: 1.5
        """,
    )
    spec = load_spec(path)
    assert spec.base.air.snr == 15.0
    assert spec.base.workload.mse_edge == 2.0
    assert spec.grid == pytest.approx((1.3, 1.5, 1.7, 1.9))
    assert spec.sim is None  # checked, but this sweep does not simulate
    assert spec.delay_query == 1.5
    simulated = path.read_text().replace("simulate: false", "simulate: true")
    path.write_text(simulated.replace("critical_edge_mse]", "critical_edge_mse, avg_mse]"))
    assert load_spec(path).sim == SimSettings(
        trials=77, window_radius=6.0, master_seed=9, shadowing_sigma_db=4.0, boundary="disc"
    )


def test_simulated_sweep_needs_a_simulable_output(tmp_path):
    # settings without a simulable metric would run nothing and exit 0
    text = MINIMAL_SPEC.replace("outputs: [avg_mse]", "outputs: [asymptotic_mse]")
    path = write_spec(tmp_path, text + "      simulate: true\n")
    with pytest.raises(SpecValidationError) as exc_info:
        load_spec(path)
    assert "sweep.simulate" in str(exc_info.value) and "sweep.outputs" in str(exc_info.value)
    assert load_spec(write_spec(tmp_path, text)).sim is None  # not simulated: fine
    kwargs = dict(base=base_scenario(), axis="lambda_hat", grid=(1.0,))
    with pytest.raises(SpecValidationError, match=r"sweep\.simulate.*sweep\.outputs"):
        SweepSpec(outputs=("asymptotic_mse", "critical_density"), mse_target=1.3,
                  sim=SimSettings(trials=10), **kwargs)
    for metric in ("avg_mse", "cloud_use_prob", "delay_cdf_at"):
        assert SweepSpec(outputs=("asymptotic_mse", metric), sim=SimSettings(), **kwargs).sim


def test_load_spec_log_range(tmp_path):
    path = write_spec(
        tmp_path,
        """
        deployment: {lambda_ap: 1.0, lambda_dev: 1.0}
        workload: {q: 1.0, d_t: 2.0, d_c: 1.0, m_c: 1.0}
        air: {b: 1.0}
        sweep:
          axis: r_min
          range: {lo: 1.0, hi: 16.0, n: 5, scale: log}
          outputs: [asymptotic_mse]
        """,
    )
    assert load_spec(path).grid == pytest.approx((1.0, 2.0, 4.0, 8.0, 16.0))


def test_load_spec_names_schema_keys_in_errors(tmp_path):
    path = write_spec(
        tmp_path,
        """
        deployment: {lambda_ap: 1.0, lambda_dev: 1.0}
        workload: {q: 1.0, d_t: 2.0, d_c: 1.0, m_c: 1.0}
        air: {bandwidth: 1.0}
        sweep:
          axis: r_min
          grid: [1.0]
          outputs: [avg_mse]
        """,
    )
    with pytest.raises(SpecValidationError) as exc_info:
        load_spec(path)
    msg = str(exc_info.value)
    assert "air.b" in msg  # names the schema key, not an internal field name
    assert "air.bandwidth" in msg  # flags the unknown field too


def test_load_spec_collects_every_violation(tmp_path):
    path = write_spec(
        tmp_path,
        """
        deployment: {lambda_ap: 1.0}
        workload: {q: hello, d_t: 2.0, d_c: 1.0, m_c: 1.0}
        air: {}
        sweep:
          axis: bogus
          outputs: [avg_mse, avg_mse]
          grid: [1.0]
        """,
    )
    with pytest.raises(SpecValidationError) as exc_info:
        load_spec(path)
    msg = str(exc_info.value)
    for needle in (
        "deployment.lambda_dev",
        "workload.q",
        "air.b",
        "sweep.axis",
        "repeat",
    ):
        assert needle in msg, f"expected {needle!r} in:\n{msg}"


def test_load_spec_rejects_inverted_delays(tmp_path):
    path = write_spec(
        tmp_path,
        """
        deployment: {lambda_ap: 1.0, lambda_dev: 1.0}
        workload: {q: 1.0, d_t: 0.01, d_c: 0.06, m_c: 1.0}
        air: {b: 1.0}
        sweep:
          axis: r_min
          grid: [1.0]
          outputs: [avg_mse]
        """,
    )
    with pytest.raises(SpecValidationError) as exc_info:
        load_spec(path)
    assert "workload" in str(exc_info.value)


def test_load_spec_rejects_unparseable_yaml(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("deployment: {lambda_ap: [unclosed\n", encoding="utf-8")
    with pytest.raises(SpecFileError) as exc_info:
        load_spec(path)
    assert "line" in str(exc_info.value)


def test_load_spec_missing_file_raises_oserror(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_spec(tmp_path / "missing.yaml")


def test_load_spec_rejects_unknown_section(tmp_path):
    text = textwrap.dedent(MINIMAL_SPEC) + "extras: {a: 1}\n"
    path = tmp_path / "spec.yaml"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SpecValidationError):
        load_spec(path)


def test_axes_and_metrics_vocabulary_is_pinned():
    assert AXES == ("lambda_hat", "r_min", "mse_target", "mse_edge_ratio")
    assert METRICS == (
        "avg_mse",
        "asymptotic_mse",
        "critical_density",
        "critical_edge_mse",
        "delay_cdf_at",
        "cloud_use_prob",
    )


# ---------------------------------------------------------------------------
# spec limits and fuzzed documents
# ---------------------------------------------------------------------------


def base_doc() -> dict:
    return yaml.safe_load(textwrap.dedent(MINIMAL_SPEC))


def dump_spec(tmp_path, doc) -> str:
    path = tmp_path / "spec.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return path


DROP = object()


def spec_doc(changes: dict) -> dict:
    """``base_doc()`` with each dotted path in ``changes`` set to its value,
    or removed where the value is ``DROP``."""
    doc = base_doc()
    for path, value in changes.items():
        *parents, key = path.split(".")
        level = doc
        for name in parents:
            level = level.setdefault(name, {})
        if value is DROP:
            del level[key]
        else:
            level[key] = value
    return doc


# One document per message ``load_spec`` can raise, and documents with
# several problems to pin their order; each text is the loader's output,
# copied verbatim. Unreachable from a spec file: "sweep.grid must be
# non-empty", "sweep.outputs must be non-empty" and the ``sweep.sim`` type
# rule, since the reader passes on no empty grid or outputs and always
# builds a ``SimSettings``.
LOADER_MESSAGES = [
    pytest.param(
        [1, 2],
        SpecValidationError,
        "spec document must be a mapping of sections",
        id="not-a-mapping",
    ),
    pytest.param(
        spec_doc({"extras": {"a": 1}}),
        SpecValidationError,
        "unknown section 'extras'",
        id="unknown-section",
    ),
    pytest.param(
        spec_doc({"workload": DROP}),
        SpecValidationError,
        (
            "missing required section 'workload'\n"
            "missing required field workload.q\n"
            "missing required field workload.d_t\n"
            "missing required field workload.d_c\n"
            "missing required field workload.m_c"
        ),
        id="missing-section",
    ),
    pytest.param(
        spec_doc({"deployment": None}),
        SpecValidationError,
        (
            "missing required section 'deployment'\n"
            "missing required field deployment.lambda_ap\n"
            "missing required field deployment.lambda_dev"
        ),
        id="null-section",
    ),
    pytest.param(
        spec_doc({"air": 5}),
        SpecValidationError,
        (
            "section 'air' must be a mapping\n"
            "missing required field air.b"
        ),
        id="section-not-a-mapping",
    ),
    pytest.param(
        spec_doc({"deployment.foo": 1}),
        SpecValidationError,
        "unknown field deployment.foo",
        id="unknown-field",
    ),
    pytest.param(
        spec_doc({"deployment.lambda_ap": DROP}),
        SpecValidationError,
        "missing required field deployment.lambda_ap",
        id="missing-field",
    ),
    pytest.param(
        spec_doc({"workload.q": "hello"}),
        SpecValidationError,
        "field workload.q must be a number (got 'hello')",
        id="not-a-number",
    ),
    pytest.param(
        spec_doc({"workload.m_d": [1]}),
        SpecValidationError,
        "field workload.m_d must be a number (got [1])",
        id="optional-not-a-number",
    ),
    pytest.param(
        spec_doc({"air.snr": "loud"}),
        SpecValidationError,
        'field air.snr must be a positive number or "inf" (got \'loud\')',
        id="snr-not-a-number",
    ),
    pytest.param(
        spec_doc({"sweep.range": {"lo": 1.0, "hi": 2.0, "n": 2}}),
        SpecValidationError,
        "sweep needs exactly one of sweep.grid or sweep.range",
        id="grid-and-range",
    ),
    pytest.param(
        spec_doc({"sweep.grid": DROP}),
        SpecValidationError,
        "sweep needs exactly one of sweep.grid or sweep.range",
        id="no-grid-or-range",
    ),
    pytest.param(
        spec_doc({"sweep.grid": []}),
        SpecValidationError,
        "field sweep.grid must be a non-empty list of numbers (got [])",
        id="grid-empty",
    ),
    pytest.param(
        spec_doc({"sweep.grid": [1.0, "two"]}),
        SpecValidationError,
        "field sweep.grid must be a non-empty list of numbers (got [1.0, 'two'])",
        id="grid-not-numbers",
    ),
    pytest.param(
        spec_doc({"sweep.grid": DROP, "sweep.range": 3}),
        SpecValidationError,
        "field sweep.range must be a mapping {lo, hi, n, scale}",
        id="range-not-a-mapping",
    ),
    pytest.param(
        spec_doc(
            {
                "sweep.grid": DROP,
                "sweep.range": {"lo": 1.0, "hi": 2.0, "n": 2, "step": 1},
            }
        ),
        SpecValidationError,
        "unknown field sweep.range.step",
        id="range-unknown-field",
    ),
    pytest.param(
        spec_doc({"sweep.grid": DROP, "sweep.range": {"lo": "a", "hi": 2.0, "n": 2}}),
        SpecValidationError,
        "fields sweep.range.lo and sweep.range.hi must be numbers",
        id="range-lo-not-a-number",
    ),
    pytest.param(
        spec_doc({"sweep.grid": DROP, "sweep.range": {"lo": 1.0, "hi": 2.0, "n": 2.5}}),
        SpecValidationError,
        "field sweep.range.n must be an integer in [1, 10000] (got 2.5)",
        id="range-n-not-an-integer",
    ),
    pytest.param(
        spec_doc(
            {
                "sweep.grid": DROP,
                "sweep.range": {"lo": 1.0, "hi": 2.0, "n": 2, "scale": "cubic"},
            }
        ),
        SpecValidationError,
        "field sweep.range.scale must be linear|log (got 'cubic')",
        id="range-bad-scale",
    ),
    pytest.param(
        spec_doc({"sweep.grid": DROP, "sweep.range": {"lo": 2.0, "hi": 1.0, "n": 3}}),
        SpecValidationError,
        "sweep.range needs lo < hi",
        id="range-inverted",
    ),
    pytest.param(
        spec_doc(
            {
                "sweep.grid": DROP,
                "sweep.range": {"lo": 0.0, "hi": 1.0, "n": 3, "scale": "log"},
            }
        ),
        SpecValidationError,
        "sweep.range with log scale needs lo > 0",
        id="range-log-from-zero",
    ),
    pytest.param(
        spec_doc({"sweep.outputs": DROP}),
        SpecValidationError,
        "field sweep.outputs must be a non-empty list of metric names (got None)",
        id="outputs-missing",
    ),
    pytest.param(
        spec_doc({"sweep.outputs": [1]}),
        SpecValidationError,
        "field sweep.outputs must be a non-empty list of metric names (got [1])",
        id="outputs-not-names",
    ),
    pytest.param(
        spec_doc({"sweep.simulate": "yes"}),
        SpecValidationError,
        "field sweep.simulate must be a boolean (got 'yes')",
        id="simulate-not-a-boolean",
    ),
    pytest.param(
        spec_doc({"sweep.sim": 5}),
        SpecValidationError,
        "field sweep.sim must be a mapping",
        id="sim-not-a-mapping",
    ),
    pytest.param(
        spec_doc({"sweep.sim": {"speed": 1}}),
        SpecValidationError,
        "unknown field sweep.sim.speed",
        id="sim-unknown-field",
    ),
    pytest.param(
        spec_doc({"sweep.sim": {"window_radius": "wide"}}),
        SpecValidationError,
        "field sweep.sim.window_radius must be a number or omitted (got 'wide')",
        id="sim-window-not-a-number",
    ),
    pytest.param(
        spec_doc({"sweep.sim": {"shadowing": "heavy"}}),
        SpecValidationError,
        (
            'field sweep.sim.shadowing must be "none", a sigma in dB, or {lognormal: sigma}'
            " (got 'heavy')"
        ),
        id="sim-shadowing-not-a-sigma",
    ),
    pytest.param(
        spec_doc({"sweep.mse_target": "x"}),
        SpecValidationError,
        "field sweep.mse_target must be a number (got 'x')",
        id="mse-target-not-a-number",
    ),
    pytest.param(
        spec_doc({"sweep.delay_d": None}),
        SpecValidationError,
        "field sweep.delay_d must be a number (got None)",
        id="delay-d-not-a-number",
    ),
    pytest.param(
        spec_doc({"sweep.sim": {"trials": 0}}),
        SpecValidationError,
        "sweep.sim.trials must be an integer in [1, 10000000] (got 0)",
        id="sim-trials",
    ),
    pytest.param(
        spec_doc({"sweep.sim": {"window_radius": -2.0}}),
        SpecValidationError,
        "sweep.sim.window_radius must be finite and > 0 (got -2.0)",
        id="sim-window-radius",
    ),
    pytest.param(
        spec_doc({"sweep.sim": {"seed": -1}}),
        SpecValidationError,
        "sweep.sim.seed must be an integer in [0, 2**64) (got -1)",
        id="sim-seed",
    ),
    pytest.param(
        spec_doc({"sweep.sim": {"shadowing": {"lognormal": -3.0}}}),
        SpecValidationError,
        "sweep.sim.shadowing must be finite and >= 0 (got -3.0)",
        id="sim-shadowing",
    ),
    pytest.param(
        spec_doc({"sweep.sim": {"boundary": "sphere"}}),
        SpecValidationError,
        "sweep.sim.boundary must be torus|disc (got 'sphere')",
        id="sim-boundary",
    ),
    pytest.param(
        spec_doc({"sweep.sim": {"load_model": "exact"}}),
        SpecValidationError,
        "sweep.sim.load_model must be mean_field|realized (got 'exact')",
        id="sim-load-model",
    ),
    pytest.param(
        spec_doc({"sweep.sim": {"full_buffer": "no"}}),
        SpecValidationError,
        "sweep.sim.full_buffer must be True or False (got 'no')",
        id="sim-full-buffer",
    ),
    pytest.param(
        spec_doc({"sweep.axis": "bogus"}),
        SpecValidationError,
        (
            "sweep.axis must be one of ('lambda_hat', 'r_min', 'mse_target',"
            " 'mse_edge_ratio') (got 'bogus')"
        ),
        id="axis",
    ),
    pytest.param(
        spec_doc({"sweep.outputs": ["avg_mse", "nope"]}),
        SpecValidationError,
        "unknown metrics in sweep.outputs: ['nope']",
        id="unknown-metric",
    ),
    pytest.param(
        spec_doc({"sweep.outputs": ["avg_mse", "avg_mse"]}),
        SpecValidationError,
        "sweep.outputs must not repeat metrics",
        id="repeated-metric",
    ),
    pytest.param(
        spec_doc({"sweep.simulate": True, "sweep.outputs": ["asymptotic_mse"]}),
        SpecValidationError,
        (
            "sweep.simulate needs a simulable metric in sweep.outputs (one of ['avg_mse',"
            " 'cloud_use_prob', 'delay_cdf_at']; got ['asymptotic_mse'])"
        ),
        id="simulate-without-simulable-metric",
    ),
    pytest.param(
        spec_doc({"sweep.mse_target": math.inf}),
        SpecValidationError,
        "sweep.mse_target must be finite (got inf)",
        id="mse-target-not-finite",
    ),
    pytest.param(
        spec_doc({"sweep.outputs": ["critical_density"]}),
        SpecValidationError,
        (
            "sweep.mse_target is required when critical_density or critical_edge_mse is"
            " requested on a non-mse_target axis"
        ),
        id="mse-target-missing",
    ),
    pytest.param(
        spec_doc({"sweep.delay_d": 0.005}),
        SpecValidationError,
        "sweep.delay_d must be finite and exceed workload.d_c (got 0.005)",
        id="delay-d-below-d-c",
    ),
    pytest.param(
        spec_doc({"deployment.lambda_ap": -1.0}),
        SpecValidationError,
        "deployment: lambda_ap must be finite and > 0 (got -1.0)",
        id="lambda-ap",
    ),
    pytest.param(
        spec_doc({"deployment.lambda_dev": 0}),
        SpecValidationError,
        "deployment: lambda_dev must be finite and > 0 (got 0.0)",
        id="lambda-dev",
    ),
    pytest.param(
        spec_doc({"workload.q": -1.0}),
        SpecValidationError,
        "workload: payload_bits must be finite and > 0 (got -1.0)",
        id="payload-bits",
    ),
    pytest.param(
        spec_doc({"workload.d_c": -1.0}),
        SpecValidationError,
        "workload: compute_delay must be finite and >= 0 (got -1.0)",
        id="compute-delay",
    ),
    pytest.param(
        spec_doc({"workload.d_t": 0.005}),
        SpecValidationError,
        (
            "workload: delay_budget must be finite and exceed compute_delay, otherwise"
            " cloud inference is never usable (got 0.005 vs 0.01)"
        ),
        id="delay-budget",
    ),
    pytest.param(
        spec_doc({"workload.m_c": 0.0}),
        SpecValidationError,
        "workload: mse_cloud must be finite and > 0 (got 0.0)",
        id="mse-cloud",
    ),
    pytest.param(
        spec_doc({"workload.m_d": 0.5}),
        SpecValidationError,
        (
            "workload: mse_edge must be finite and >= mse_cloud (cloud model is the more"
            " accurate one; got 0.5 vs 1.0)"
        ),
        id="mse-edge",
    ),
    pytest.param(
        spec_doc({"air.b": -1.0}),
        SpecValidationError,
        "air: bandwidth must be finite and > 0 (got -1.0)",
        id="bandwidth",
    ),
    pytest.param(
        spec_doc({"air.snr": -1.0}),
        SpecValidationError,
        "air: snr must be > 0 (math.inf allowed; got -1.0)",
        id="snr",
    ),
    pytest.param(
        spec_doc({"workload.q": 1.0e300, "air.b": 1.0e-300}),
        SpecValidationError,
        (
            "derived inference rate workload.q / (air.b * (workload.d_t - workload.d_c))"
            " must be finite and > 0 (got inf)"
        ),
        id="inference-rate",
    ),
    pytest.param(
        spec_doc({"sweep.grid": [float(v) for v in range(1, 10_002)]}),
        SpecValidationError,
        "sweep.grid must hold at most 10000 points (got 10001)",
        id="grid-too-long",
    ),
    pytest.param(
        spec_doc({"sweep.grid": [1.0, math.inf]}),
        SpecValidationError,
        "sweep.grid values must be finite",
        id="grid-not-finite",
    ),
    pytest.param(
        spec_doc({"sweep.grid": [2.0, 1.0]}),
        SpecValidationError,
        "sweep.grid must be strictly increasing",
        id="grid-not-increasing",
    ),
    pytest.param(
        spec_doc({"sweep.grid": [0.0, 1.0]}),
        SpecValidationError,
        "sweep.grid values must be > 0 for axis lambda_hat",
        id="grid-not-positive",
    ),
    pytest.param(
        spec_doc({"sweep.axis": "mse_edge_ratio", "sweep.grid": [0.5, 1.0]}),
        SpecValidationError,
        "sweep.grid values must be >= 1 for axis mse_edge_ratio",
        id="grid-below-one",
    ),
    pytest.param(
        spec_doc(
            {
                "sweep.axis": "mse_edge_ratio",
                "sweep.grid": DROP,
                "sweep.range": {"lo": -1.0e308, "hi": 1.0e308, "n": 3},
            }
        ),
        SpecValidationError,
        "sweep.range must give finite grid values",
        id="range-not-finite",
    ),
    pytest.param(
        spec_doc({"sweep.simulate": True, "sweep.sim": {"trials": 10**7}}),
        SpecValidationError,
        "sweep.sim.trials (10000000) times the grid size (3) must be at most 10000000",
        id="total-trials",
    ),
    pytest.param(
        spec_doc({"extras": 1, "deployment.lambda_ap": -1.0}),
        SpecValidationError,
        (
            "unknown section 'extras'\n"
            "deployment: lambda_ap must be finite and > 0 (got -1.0)"
        ),
        id="many-unknown-section",
    ),
    pytest.param(
        spec_doc({"sweep.grid": [2.0, 1.0], "deployment.lambda_ap": -1.0}),
        SpecValidationError,
        (
            "sweep.grid must be strictly increasing\n"
            "deployment: lambda_ap must be finite and > 0 (got -1.0)"
        ),
        id="many-grid",
    ),
    pytest.param(
        spec_doc(
            {
                "sweep.grid": DROP,
                "sweep.range": {"lo": 1.0, "hi": 1.0e308, "n": 3, "scale": "log"},
                "sweep.outputs": ["critical_density"],
                "workload.m_c": -1.0,
            }
        ),
        SpecValidationError,
        (
            "sweep.mse_target is required when critical_density or critical_edge_mse is"
            " requested on a non-mse_target axis\n"
            "workload: mse_cloud must be finite and > 0 (got -1.0)"
        ),
        id="many-range",
    ),
    pytest.param(
        spec_doc(
            {
                "deployment": DROP,
                "workload.q": "hello",
                "workload.m_d": "x",
                "workload.m_c": -1.0,
                "workload.extra": 1,
                "air": [],
                "sweep.axis": "bogus",
                "sweep.outputs": ["avg_mse", "avg_mse", "nope"],
                "sweep.delay_d": 0.001,
            }
        ),
        SpecValidationError,
        (
            "missing required section 'deployment'\n"
            "unknown field workload.extra\n"
            "section 'air' must be a mapping\n"
            "missing required field deployment.lambda_ap\n"
            "missing required field deployment.lambda_dev\n"
            "field workload.q must be a number (got 'hello')\n"
            "field workload.m_d must be a number (got 'x')\n"
            "missing required field air.b\n"
            "sweep.axis must be one of ('lambda_hat', 'r_min', 'mse_target',"
            " 'mse_edge_ratio') (got 'bogus')\n"
            "unknown metrics in sweep.outputs: ['nope']\n"
            "sweep.outputs must not repeat metrics\n"
            "sweep.delay_d must be finite and exceed workload.d_c (got 0.001)"
        ),
        id="many-sections",
    ),
    pytest.param(
        spec_doc(
            {
                "air.snr": "loud",
                "air.b": 0.0,
                "air.band": 1,
                "sweep.grid": DROP,
                "sweep.range": {"lo": "x", "n": True, "scale": None, "by": 2},
                "sweep.outputs": [],
                "sweep.simulate": 1,
                "sweep.sim.window_radius": "w",
                "sweep.sim.shadowing": "s",
                "sweep.sim.trials": 0,
                "sweep.sim.seed": 2**64,
                "sweep.sim.boundary": None,
                "sweep.sim.load_model": "exact",
                "sweep.sim.full_buffer": 1,
                "sweep.sim.x": 0,
                "sweep.mse_target": math.nan,
                "sweep.delay_d": "late",
                "sweep.axis": None,
            }
        ),
        SpecValidationError,
        (
            "unknown field air.band\n"
            'field air.snr must be a positive number or "inf" (got \'loud\')\n'
            "unknown field sweep.range.by\n"
            "fields sweep.range.lo and sweep.range.hi must be numbers\n"
            "field sweep.range.n must be an integer in [1, 10000] (got True)\n"
            "field sweep.range.scale must be linear|log (got None)\n"
            "field sweep.outputs must be a non-empty list of metric names (got [])\n"
            "field sweep.simulate must be a boolean (got 1)\n"
            "unknown field sweep.sim.x\n"
            "field sweep.sim.window_radius must be a number or omitted (got 'w')\n"
            'field sweep.sim.shadowing must be "none", a sigma in dB, or {lognormal: sigma}'
            " (got 's')\n"
            "sweep.sim.trials must be an integer in [1, 10000000] (got 0)\n"
            "sweep.sim.seed must be an integer in [0, 2**64) (got 18446744073709551616)\n"
            "sweep.sim.boundary must be torus|disc (got None)\n"
            "sweep.sim.load_model must be mean_field|realized (got 'exact')\n"
            "sweep.sim.full_buffer must be True or False (got 1)\n"
            "field sweep.delay_d must be a number (got 'late')\n"
            "sweep.axis must be one of ('lambda_hat', 'r_min', 'mse_target',"
            " 'mse_edge_ratio') (got None)\n"
            "sweep.mse_target must be finite (got nan)\n"
            "air: bandwidth must be finite and > 0 (got 0.0)"
        ),
        id="many-sweep",
    ),
    pytest.param(
        spec_doc(
            {
                "sweep.simulate": True,
                "sweep.sim": {"trials": 10**7, "seed": 2.5},
                "sweep.outputs": ["asymptotic_mse"],
                "sweep.grid": [0.0, 1.0],
                "air.snr": "inf",
            }
        ),
        SpecValidationError,
        (
            "sweep.sim.seed must be an integer in [0, 2**64) (got 2.5)\n"
            "sweep.grid values must be > 0 for axis lambda_hat\n"
            "sweep.simulate needs a simulable metric in sweep.outputs (one of ['avg_mse',"
            " 'cloud_use_prob', 'delay_cdf_at']; got ['asymptotic_mse'])"
        ),
        id="many-simulated",
    ),
    pytest.param(
        spec_doc({"workload.q": 1.0e300, "air.b": 1.0e-300, "workload.m_d": -1}),
        SpecValidationError,
        (
            "workload: mse_edge must be finite and >= mse_cloud (cloud model is the more"
            " accurate one; got -1.0 vs 1.0)\n"
            "derived inference rate workload.q / (air.b * (workload.d_t - workload.d_c))"
            " must be finite and > 0 (got inf)"
        ),
        id="many-inference-rate",
    ),
]


@pytest.mark.parametrize("doc, error, message", LOADER_MESSAGES)
def test_load_spec_messages_are_pinned(tmp_path, doc, error, message):
    with pytest.raises(error) as exc_info:
        load_spec(dump_spec(tmp_path, doc))
    assert type(exc_info.value) is error
    assert str(exc_info.value) == message


def test_readme_names_every_spec_key():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Sweep spec files", 1)[1].split("\n## ", 1)[0]
    assert [path for path in _SPEC if f"`{path}`" not in section] == []


def test_load_spec_rejects_integer_beyond_float_range(tmp_path):
    doc = base_doc()
    doc["deployment"]["lambda_ap"] = 10**400
    with pytest.raises(SpecValidationError, match="deployment.lambda_ap"):
        load_spec(dump_spec(tmp_path, doc))


def test_load_spec_rejects_non_utf8_file(tmp_path):
    path = tmp_path / "spec.yaml"
    path.write_bytes(b"deployment: {lambda_ap: \xff}\n")
    with pytest.raises(SpecFileError, match="UTF-8"):
        load_spec(path)


@pytest.mark.parametrize(
    "sweep, field, limit",
    [
        ({"range": {"lo": 0.1, "hi": 10.0, "n": 10**11, "scale": "log"}}, "sweep.range.n", "10000"),
        ({"range": {"lo": 0.1, "hi": 10.0, "n": 10_001}}, "sweep.range.n", "10000"),
        ({"grid": [float(v) for v in range(1, 10_002)]}, "sweep.grid", "10000"),
        ({"simulate": True, "sim": {"trials": 10**7 + 1}}, "sweep.sim.trials", "10000000"),
    ],
)
def test_load_spec_size_limits(tmp_path, sweep, field, limit):
    doc = base_doc()
    if "range" in sweep:
        del doc["sweep"]["grid"]
    doc["sweep"].update(sweep)
    with pytest.raises(SpecValidationError) as exc_info:
        load_spec(dump_spec(tmp_path, doc))
    assert field in str(exc_info.value) and limit in str(exc_info.value)


def test_load_spec_accepts_sizes_at_the_limits(tmp_path):
    doc = base_doc()
    del doc["sweep"]["grid"]
    doc["sweep"]["range"] = {"lo": 0.1, "hi": 10.0, "n": 10_000, "scale": "log"}
    doc["sweep"]["sim"] = {"trials": 10**7}
    spec = load_spec(dump_spec(tmp_path, doc))
    assert len(spec.grid) == 10_000 and spec.sim is None
    # a simulated sweep runs at most 10**7 trials over all its points
    doc["sweep"]["simulate"] = True
    doc["sweep"]["range"]["n"] = 1
    assert load_spec(dump_spec(tmp_path, doc)).sim.trials == 10**7
    doc["sweep"]["range"]["n"] = 1000
    doc["sweep"]["sim"] = {"trials": 10**4}
    spec = load_spec(dump_spec(tmp_path, doc))
    assert len(spec.grid) == 1000 and spec.sim.trials == 10**4
    doc["sweep"]["range"]["n"] = 1001
    with pytest.raises(SpecValidationError, match=r"sweep.sim.trials \(10000\) times the grid size \(1001\)"):
        load_spec(dump_spec(tmp_path, doc))


@pytest.mark.parametrize(
    "sim, field",
    [
        ({"window_radius": math.nan}, "sweep.sim.window_radius"),
        ({"window_radius": math.inf}, "sweep.sim.window_radius"),
        ({"window_radius": -2.0}, "sweep.sim.window_radius"),
        ({"shadowing": -3}, "sweep.sim.shadowing"),
        ({"shadowing": {"lognormal": math.nan}}, "sweep.sim.shadowing"),
        ({"trials": True}, "sweep.sim.trials"),
        ({"seed": -1}, "sweep.sim.seed"),
        ({"seed": 2**64}, "sweep.sim.seed"),
        ({"seed": 2.5}, "sweep.sim.seed"),
        ({"boundary": "sphere"}, "sweep.sim.boundary"),
        ({"load_model": "exact"}, "sweep.sim.load_model"),
        ({"full_buffer": "no"}, "sweep.sim.full_buffer"),
        ({"full_buffer": 1}, "sweep.sim.full_buffer"),
        ({"load_model": None}, "sweep.sim.load_model"),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_load_spec_rejects_bad_sim_fields(tmp_path, sim, field):
    # rejected whether or not the sweep simulates
    doc = base_doc()
    doc["sweep"]["sim"] = sim
    # the field's own rule, not "unknown field"
    with pytest.raises(SpecValidationError, match=f"^{field} must be"):
        load_spec(dump_spec(tmp_path, doc))


@pytest.mark.parametrize(
    "key, field",
    [
        ({"mse_target": math.nan}, "sweep.mse_target"),
        ({"mse_target": math.inf}, "sweep.mse_target"),
        ({"delay_d": math.nan}, "sweep.delay_d"),
        ({"delay_d": math.inf}, "sweep.delay_d"),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_load_spec_rejects_non_finite_queries(tmp_path, key, field):
    doc = base_doc()
    doc["sweep"].update(key, outputs=["avg_mse", "delay_cdf_at", "critical_density"])
    if "mse_target" not in key:
        doc["sweep"]["mse_target"] = 1.2
    with pytest.raises(SpecValidationError, match=field):
        load_spec(dump_spec(tmp_path, doc))


@pytest.mark.parametrize(
    "rng",
    [
        {"lo": 1.0, "hi": "inf", "n": 2},
        {"lo": 1.0, "hi": "1e400", "n": 2, "scale": "log"},
        {"lo": 5.0e-324, "hi": 1.0e300, "n": 2, "scale": "log"},
        {"lo": -1.0e308, "hi": 1.0e308, "n": 3},  # hi - lo overflows
        # each point is finite, but a power of the ratio overflows
        {"lo": 1.0e-10, "hi": 1.7976931348623157e298, "n": 10_000, "scale": "log"},
    ],
)
def test_load_spec_rejects_non_finite_grid(tmp_path, rng):
    doc = base_doc()
    del doc["sweep"]["grid"]
    doc["sweep"]["range"] = rng
    # the key the document holds, not the sweep.grid it never wrote
    with pytest.raises(SpecValidationError, match="^sweep.range must give finite grid values$"):
        load_spec(dump_spec(tmp_path, doc))


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**400), 10**400),
    st.floats(),
    st.text(max_size=8),
    st.sampled_from(
        ["inf", "nan", "1e400", "log", "linear", "torus", "disc", "none",
         "lambda_hat", "mse_target", "avg_mse", "critical_density", "delay_cdf_at"]
    ),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)


def _fields(names, **special):
    optional = {name: _SCALARS | _VALUES for name in names}
    optional.update(special)
    optional["bogus"] = _VALUES
    return st.fixed_dictionaries({}, optional=optional) | _VALUES


_DOCUMENTS = st.fixed_dictionaries(
    {},
    optional={
        "deployment": _fields(["lambda_ap", "lambda_dev"]),
        "workload": _fields(["q", "d_t", "d_c", "m_c", "m_d"]),
        "air": _fields(["b", "snr"]),
        "sweep": _fields(
            ["axis", "grid", "outputs", "simulate", "mse_target", "delay_d"],
            range=_fields(["lo", "hi", "n", "scale"]),
            sim=_fields(
                ["trials", "window_radius", "seed", "boundary", "load_model", "full_buffer"],
                shadowing=_fields(["lognormal"]),
            ),
        ),
        "extra": _VALUES,
    },
)


def load_with(path, pure: bool):
    """``load_spec(path)`` through libyaml, or with ``pure`` through
    PyYAML's pure-Python parser (the fallback when libyaml is missing)."""
    with pytest.MonkeyPatch.context() as m:
        if pure:
            m.delattr(yaml, "CSafeLoader", raising=False)
        return load_spec(path)


def outcomes(path) -> list:
    """What each parser makes of ``path``: the spec, or the error type with
    the message of a validation error and the ``cannot parse <path>[ at
    line N]`` head of a file error (whose detail text is the parser's)."""
    found = []
    for pure in (False, True):
        try:
            found.append(load_with(path, pure))
        except SpecFileError as e:
            found.append((SpecFileError, str(e).split(": ", 1)[0]))
        except SpecValidationError as e:
            found.append((SpecValidationError, str(e)))
    return found


def test_load_spec_parses_with_libyaml_when_pyyaml_has_it(tmp_path, monkeypatch):
    if not yaml.__with_libyaml__:
        pytest.skip("PyYAML was built without libyaml")
    used = []

    class Recording(yaml.CSafeLoader):
        def __init__(self, stream):
            used.append(stream.name)
            super().__init__(stream)

    monkeypatch.setattr(yaml, "CSafeLoader", Recording)
    path = write_spec(tmp_path, MINIMAL_SPEC)
    load_spec(path)
    assert used == [str(path)]


ALIASED_SPEC = """
deployment: {lambda_ap: &one 1.0, lambda_dev: *one}
workload: {q: 1.0e6, d_t: 0.06, d_c: 0.01, m_c: *one}
air: {b: 1.6e8}
sweep: {axis: lambda_hat, grid: [0.5, *one], outputs: [avg_mse], sim: {<<: {trials: 9}, seed: 3}}
"""


@pytest.mark.parametrize(
    "text, loads",
    [
        (textwrap.dedent(MINIMAL_SPEC), True),
        ("\ufeff" + textwrap.dedent(MINIMAL_SPEC), True),  # byte-order mark
        (textwrap.dedent(MINIMAL_SPEC) + "  mse_target: 1.0e0\n", True),  # YAML 1.1: a string
        (textwrap.dedent(MINIMAL_SPEC).replace("1.0e6", "9" * 400), False),  # beyond float
        (ALIASED_SPEC, True),
    ],
    ids=["minimal", "bom", "yaml11-exponent", "huge-int", "aliases"],
)
def test_load_spec_is_the_same_under_both_parsers(tmp_path, text, loads):
    path = tmp_path / "spec.yaml"
    path.write_text(text, encoding="utf-8")
    libyaml, pure = outcomes(path)
    assert libyaml == pure
    assert isinstance(libyaml, SweepSpec) == loads


@pytest.mark.parametrize(
    "data, line",
    [
        (b"deployment: {lambda_ap: [unclosed\n", 2),
        (b"deployment:\n\tlambda_ap: 1.0\n", 2),  # tab indent
        (b"sweep: !!python/object:os.system ls\n", 1),  # unsafe tag
        (b"deployment: {lambda_ap: \xff}\n", None),  # not UTF-8
    ],
    ids=["broken", "tab-indent", "unsafe-tag", "not-utf8"],
)
def test_load_spec_parse_errors_agree_under_both_parsers(tmp_path, data, line):
    path = tmp_path / "spec.yaml"
    path.write_bytes(data)
    head = f"cannot parse {path}" + (f" at line {line}" if line else "")
    assert outcomes(path) == [(SpecFileError, head)] * 2


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(
    doc=_DOCUMENTS.map(yaml.safe_dump)
    | _VALUES.map(yaml.safe_dump)
    | st.text(max_size=80)
    | st.binary(max_size=40).map(lambda b: b.decode("latin-1")),
    raw=st.booleans(),
    pure=st.booleans(),
)
@example(doc=yaml.safe_dump({"deployment": {"lambda_ap": 10**400}}), raw=False, pure=False)
@example(doc="sweep: {range: {lo: 1, hi: 2, n: 100000000000}}", raw=False, pure=False)
@example(doc="air: {b: \xff}", raw=True, pure=False)
def test_load_spec_fuzzed_documents_fail_cleanly(tmp_path, doc, raw, pure):
    path = tmp_path / "fuzz.yaml"
    if raw:  # the text's code points as bytes, often not valid UTF-8
        path.write_bytes(doc.encode("latin-1", errors="replace"))
    else:
        path.write_text(doc, encoding="utf-8")
    try:
        spec = load_with(path, pure)
    except (SpecFileError, SpecValidationError, OSError):
        return
    assert 1 <= len(spec.grid) <= 10_000
    assert all(math.isfinite(v) for v in spec.grid)


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(doc=_DOCUMENTS | _VALUES)
def test_load_spec_parsers_agree_on_fuzzed_documents(tmp_path, doc):
    # documents as PyYAML's emitter writes them; on arbitrary text the
    # parsers differ (libyaml accepts tabs as separation space, for one)
    path = tmp_path / "fuzz.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    libyaml, pure = outcomes(path)
    assert libyaml == pure
