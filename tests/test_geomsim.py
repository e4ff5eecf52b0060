"""Unit tests for the stochastic-geometry Monte Carlo engine."""

import concurrent.futures
import math
import sys
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from unittest import mock

from edgeprovision import analytic, geomsim
from edgeprovision.analytic import (
    AirInterface,
    DeploymentConfig,
    InferenceWorkload,
    Scenario,
    cloud_use_probability,
    coverage_exponent_inverse,
    mean_cell_load,
)
from edgeprovision.errors import ModelDomainError
from edgeprovision.experiments import SweepSpec, run_sweep
from edgeprovision.geomsim import (
    CANONICAL_SEED,
    DiscWindow,
    SimConfig,
    SimSettings,
    TorusWindow,
    canonical_validation_scenario,
    cloud_delay,
    delay_ks_statistic,
    run_loads,
    run_trials,
    select_output,
    simulate_trial,
    uplink_rate,
)
from edgeprovision.numerics import EmpiricalCdf, RngStream, exponential_variate


def small_cfg(**overrides) -> SimConfig:
    base = dict(
        scenario=canonical_validation_scenario(),
        window_radius=math.sqrt(50.0),
        trials=300,
    )
    base.update(overrides)
    return SimConfig(**base)


# ---------------------------------------------------------------------------
# geometry primitives
# ---------------------------------------------------------------------------


def test_torus_window_geometry():
    win = TorusWindow(radius=5.0)
    assert win.side == 10.0
    assert win.area == 100.0
    np.testing.assert_array_equal(win.center, [5.0, 5.0])


def test_disc_window_geometry():
    win = DiscWindow(radius=2.0)
    assert win.area == pytest.approx(4.0 * math.pi)
    np.testing.assert_array_equal(win.center, [0.0, 0.0])


@pytest.mark.parametrize("window", [TorusWindow, DiscWindow])
@pytest.mark.parametrize("radius", [-1.0, 0.0, math.nan, math.inf, True])
def test_windows_reject_a_bad_radius(window, radius):
    with pytest.raises(ModelDomainError, match="radius must be finite and > 0"):
        window(radius)


def test_deploy_ap_count_moments():
    engine = geomsim._Engine(small_cfg(window_radius=5.0))
    counts = [len(engine.deploy(RngStream(42, i))[0]) for i in range(2000)]
    # Poisson(100): mean sd is 10/sqrt(2000) ~ 0.224; allow 4 sigma
    assert abs(float(np.mean(counts)) - 100.0) < 0.9


@pytest.mark.filterwarnings("ignore:window holds only")
def test_deploy_points_inside_window():
    for boundary in ("torus", "disc"):
        engine = geomsim._Engine(small_cfg(window_radius=3.0, boundary=boundary))
        for index in range(20):
            ap, dev = engine.deploy(RngStream(1, index))
            np.testing.assert_array_equal(dev[0], engine.center)
            pts = np.concatenate([ap, dev])
            if boundary == "torus":
                assert np.all(pts >= 0.0) and np.all(pts < 6.0)
            else:
                assert np.all(np.hypot(pts[:, 0], pts[:, 1]) <= 3.0)


@pytest.mark.filterwarnings("ignore:window holds only")
def test_deploy_deterministic():
    engine = geomsim._Engine(small_cfg(window_radius=4.0))
    streams = [RngStream(7, 3) for _ in range(2)]
    (ap_a, dev_a), (ap_b, dev_b) = (engine.deploy(s) for s in streams)
    np.testing.assert_array_equal(ap_a, ap_b)
    np.testing.assert_array_equal(dev_a, dev_b)
    assert streams[0].uniform() == streams[1].uniform()


@pytest.mark.filterwarnings("ignore:window holds only")
def test_deploy_never_returns_empty_ap_set():
    # 0.49 expected APs: most first AP-count draws are 0 and get redrawn
    engine = geomsim._Engine(small_cfg(window_radius=0.35))
    first_draw_empty = 0
    for index in range(50):
        first_draw_empty += RngStream(3, index).poisson(engine.expected_aps) == 0
        ap, _ = engine.deploy(RngStream(3, index))
        assert len(ap) >= 1
    assert first_draw_empty > 10


@pytest.mark.filterwarnings("ignore:window holds only")
def test_deploy_draws_a_tiny_window_ap_count_at_once(monkeypatch):
    # 4e-4 expected APs: redrawing until the count is positive would take
    # about 2,500 Poisson draws per trial; the zero-truncated draw takes one
    # uniform instead
    engine = geomsim._Engine(small_cfg(window_radius=0.01))
    poisson, means = RngStream.poisson, []

    def counting(stream, mean):
        means.append(mean)
        return poisson(stream, mean)

    monkeypatch.setattr(RngStream, "poisson", counting)
    for index in range(20):
        ap, _ = engine.deploy(RngStream(3, index))
        assert len(ap) >= 1
    # one draw for the AP count and one for the device count per trial
    assert len(means) == 2 * 20


@pytest.mark.filterwarnings("ignore:window holds only")
def test_deploy_ap_count_follows_the_zero_truncated_poisson_law():
    # 0.49 expected APs, so most trials take the truncated draw; both all
    # counts and those of the trials whose first draw is 0 follow the law
    # of a Poisson count conditioned on being positive (bins 1, 2, 3, 4+)
    from scipy.stats import chisquare

    engine = geomsim._Engine(small_cfg(window_radius=0.35))
    mu, n = engine.expected_aps, 20_000
    counts = np.array([len(engine.deploy(RngStream(4, i))[0]) for i in range(n)])
    first_empty = np.array([RngStream(4, i).poisson(mu) == 0 for i in range(n)])
    k = np.arange(1, 4)
    pmf = np.exp(-mu) * mu**k / [math.factorial(j) for j in k] / -math.expm1(-mu)
    pmf = np.append(pmf, 1.0 - pmf.sum())
    for sample in (counts, counts[first_empty]):
        observed = np.bincount(np.minimum(sample, 4), minlength=5)[1:]
        assert chisquare(observed, pmf * len(sample)).pvalue > 1e-3


def test_associate_stage_picks_min_pathloss():
    engine = geomsim._Engine(small_cfg(boundary="disc"))
    ap = np.array([[1.0, 0.0], [2.0, 0.0]])
    _, serving, own, counts, cross, a0 = engine.associate(
        [RngStream(0, 0)], [(ap, np.zeros((1, 2)))]
    )
    assert serving.tolist() == a0.tolist() == [0]
    assert own.tolist() == [1.0]  # distance 1 -> pathloss 1**4
    assert counts.tolist() == [1, 0]
    assert cross is None  # unshadowed: cross pathlosses follow from distances


def test_serve_shadowing_can_flip_choice():
    # distances 1 and 2 give bare pathloss 1 and 16; at 10 dB a unit normal
    # is a factor 10, so normals (log10 20, 0) are gains (20, 1) and flip it
    engine = geomsim._Engine(small_cfg(boundary="disc", shadowing_sigma_db=10.0))
    ap = np.array([[1.0, 0.0], [2.0, 0.0]])
    origin = np.zeros((1, 2))
    serving, own, rows = engine._serve(origin, ap, np.zeros((1, 2)))
    assert serving.tolist() == [0] and own.tolist() == [1.0]
    serving, own, rows = engine._serve(origin, ap, np.array([[math.log10(20.0), 0.0]]))
    assert serving.tolist() == [1]
    assert own.tolist() == [16.0]
    assert rows[0].tolist() == pytest.approx([20.0, 16.0], rel=1e-12)


@pytest.mark.filterwarnings("ignore:window holds only")
@pytest.mark.parametrize("boundary", ["torus", "disc"])
def test_block_serve_matches_per_trial_tree_queries(boundary):
    # Three trials of uneven sizes: each point goes to its own trial's
    # nearest AP, as a cell of the block, with pathloss dist**4.
    from scipy.spatial import cKDTree

    engine = geomsim._Engine(small_cfg(window_radius=3.0, boundary=boundary))
    stream = RngStream(11, 0)
    aps = [engine.window.sample(stream, n) for n in (5, 17, 2)]
    pts = [engine.window.sample(stream, n) for n in (9, 1, 30)]
    trees = [cKDTree(ap, boxsize=engine.side) for ap in aps]
    block = geomsim._Block([stream] * 3, list(zip(aps, pts)), trees)
    starts = np.cumsum([0] + [len(p) for p in pts])
    parts = list(zip(range(3), starts[:-1], starts[1:]))
    serving, own = block.serve(block.dev, parts)
    for t, lo, hi in parts:
        dist, near = trees[t].query(pts[t])
        assert np.array_equal(serving[lo:hi], near + block.off[t])
        assert np.array_equal(own[lo:hi], dist**4)
        assert np.all(block.trial[serving[lo:hi]] == t)


def _min_image_sq(a: np.ndarray, b: np.ndarray, side: float) -> np.ndarray:
    d = np.abs(a[:, None, :] - b[None, :, :])
    d = np.minimum(d, side - d)
    return (d * d).sum(axis=2)


@pytest.mark.filterwarnings("ignore:window holds only")
def test_trial_association_uses_minimum_image_distance():
    # On the torus, devices and fill points near an edge are served across
    # it: each must go to its minimum-image nearest AP.
    cfg = small_cfg(trials=12, window_radius=3.0)
    side = 2.0 * cfg.window_radius
    wrapped = 0
    for index in range(12):
        tr = simulate_trial(cfg, index)
        nearest = np.argmin(_min_image_sq(tr.dev_points, tr.ap_points, side), axis=1)
        assert nearest[0] == tr.serving_ap
        assert tr.load_nu == np.count_nonzero(nearest == tr.serving_ap)
        # one interferer in every other cell (full buffer)
        cells = np.argmin(_min_image_sq(tr.interferer_set, tr.ap_points, side), axis=1)
        assert sorted(cells.tolist()) == sorted(set(range(len(tr.ap_points))) - {tr.serving_ap})
        plain = np.argmin(_min_image_sq(tr.interferer_set, tr.ap_points, np.inf), axis=1)
        wrapped += np.count_nonzero(plain != cells)
    assert wrapped > 0  # the wrap-around case does occur


# ---------------------------------------------------------------------------
# link primitives
# ---------------------------------------------------------------------------


def test_link_sinr_matches_formula():
    base = canonical_validation_scenario()
    engine = geomsim._Engine(small_cfg(scenario=replace(base, air=AirInterface(1.6e8, snr=4.0))))
    own = np.array([1.0, 2.0])
    # minimum-image distances 2 and 3 (the second across the torus edge),
    # so cross pathlosses 16 and 81
    tagged = np.array([0.5, 0.5])
    pts = np.array([[2.5, 0.5], [0.5, engine.side - 2.5]])
    sinr, rate, delay, used = _link_one(engine, RngStream(5, 0), tagged, pts, own, 1)
    h = exponential_variate(RngStream(5, 0), 3)
    assert sinr == pytest.approx(h[0] / (0.25 + h[1] / 16.0 + 2.0 * h[2] / 81.0), rel=1e-12)
    assert rate == uplink_rate(sinr, 1.6e8, engine.mean_share)
    assert delay == cloud_delay(rate, base.workload)
    assert used == (delay <= base.workload.delay_budget)
    # no interferer and no noise: unbounded SINR
    engine = geomsim._Engine(small_cfg())
    sinr, *_ = _link_one(engine, RngStream(5, 0), np.zeros(2), np.empty((0, 2)), np.empty(0), 1)
    assert math.isinf(sinr)


def _link_one(engine, stream, tagged, pts, own, load):
    """``engine.link`` of a block of one trial whose typical device is served
    at ``tagged``, interfered with from ``pts`` (k-d tree path)."""
    block = geomsim._Block([stream], [(tagged[None], tagged[None])], [None])
    trial = np.zeros(len(pts), dtype=np.intp)
    [result] = engine.link(block, np.array([0]), trial, pts, own, None, np.array([load]))
    return result


def test_uplink_rate_examples():
    assert uplink_rate(3.0, bandwidth=10.0, load=2) == pytest.approx(10.0)
    assert uplink_rate(0.0, bandwidth=10.0, load=1) == 0.0
    assert uplink_rate(1.0, bandwidth=2.28, load=2.28) == pytest.approx(1.0)
    with pytest.raises(ModelDomainError):
        uplink_rate(1.0, bandwidth=1.0, load=0)
    assert uplink_rate(math.inf, bandwidth=1.0, load=1.0) == math.inf
    for sinr, bandwidth, load in [
        (1.0, 1.0, math.nan),
        (1.0, math.nan, 1.0),
        (1.0, 1.0, True),
        (1.0, -5.0, 1.0),
        (1.0, math.inf, 1.0),
        (True, 1.0, 1.0),
    ]:
        with pytest.raises(ModelDomainError):
            uplink_rate(sinr, bandwidth=bandwidth, load=load)


_W = InferenceWorkload(1e6, delay_budget=0.06, compute_delay=0.01, mse_cloud=1.0, mse_edge=1.5)
# (name, rule, call) for every input that admits math.inf; each takes 0 too
# unless its rule is "> 0"
_INF_INPUTS = [
    ("x", ">=", analytic.coverage_exponent),
    ("x", ">=", analytic.sinr_threshold),
    ("y", ">=", coverage_exponent_inverse),
    ("sinr", ">=", lambda v: uplink_rate(v, bandwidth=1.0, load=1.0)),
    ("rate", ">=", lambda v: cloud_delay(v, _W)),
    ("snr", ">", lambda v: AirInterface(1.0, snr=v)),
]


@pytest.mark.parametrize("name, rule, call", _INF_INPUTS)
def test_inputs_that_admit_inf_share_one_rule_and_message(name, rule, call):
    call(math.inf)
    call(2.5)
    for bad in (-1.0, math.nan, -math.inf, True, "1", None) + ((0.0,) if rule == ">" else ()):
        with pytest.raises(ModelDomainError) as exc_info:
            call(bad)
        assert str(exc_info.value) == f"{name} must be {rule} 0 (math.inf allowed; got {bad!r})"
    if rule == ">=":
        call(0.0)


def test_cloud_delay_and_output_selection():
    w = InferenceWorkload(1e6, delay_budget=0.06, compute_delay=0.01, mse_cloud=1.0, mse_edge=1.5)
    assert cloud_delay(2e7, w) == pytest.approx(0.06)
    assert math.isinf(cloud_delay(0.0, w))
    assert select_output(0.06, w) is True  # budget is inclusive
    assert select_output(0.0600001, w) is False
    assert cloud_delay(math.inf, w) == 0.01
    for rate in (math.nan, -1.0, True):
        with pytest.raises(ModelDomainError):
            cloud_delay(rate, w)
    with pytest.raises(ModelDomainError):
        select_output(math.nan, w)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_simconfig_validation():
    with pytest.raises(ModelDomainError):
        small_cfg(trials=0)
    with pytest.raises(ModelDomainError, match="10000000"):
        small_cfg(trials=10**7 + 1)
    with pytest.raises(ModelDomainError):
        small_cfg(window_radius=0.0)
    with pytest.raises(ModelDomainError):
        small_cfg(boundary="sphere")
    with pytest.raises(ModelDomainError):
        small_cfg(load_model="typo")
    # trials, seeds and the other numbers are honoured exactly or rejected,
    # never truncated, wrapped to 64 bits or read from a bool
    for field, value in [
        ("trials", True),
        ("trials", 2.0),
        ("master_seed", 2.7),
        ("master_seed", True),
        ("master_seed", -1),
        ("master_seed", 2**64),
        ("master_seed", 2**64 + 5),
        ("master_seed", "5"),
        ("window_radius", math.nan),
        ("window_radius", math.inf),
        ("window_radius", True),
        ("shadowing_sigma_db", -3.0),
        ("shadowing_sigma_db", math.nan),
        ("shadowing_sigma_db", False),
        ("full_buffer", 1),
        ("full_buffer", "no"),
    ]:
        with pytest.raises(ModelDomainError, match=field):
            small_cfg(**{field: value})
    assert small_cfg(full_buffer=np.bool_(False)).full_buffer == False  # noqa: E712
    assert small_cfg(master_seed=0).master_seed == 0
    assert small_cfg(master_seed=2**64 - 1).master_seed == 2**64 - 1
    assert small_cfg(master_seed=np.uint64(5), trials=np.int64(3)).trials == 3


def test_simconfig_is_settings_plus_scenario():
    settings = SimSettings(
        trials=7,
        window_radius=7.0,
        master_seed=9,
        shadowing_sigma_db=4.0,
        boundary="disc",
        load_model="realized",
        full_buffer=False,
    )
    scenario = canonical_validation_scenario()
    cfg = SimConfig(scenario=scenario, **vars(settings))
    assert isinstance(cfg, SimSettings)
    assert {**vars(settings), "scenario": scenario} == vars(cfg)
    assert SimSettings() == SimSettings(2000, None, CANONICAL_SEED, None, "torus")


@pytest.mark.parametrize("boundary", ["torus", "disc"])
def test_simconfig_sizes_an_unset_window(boundary):
    dep = DeploymentConfig(lambda_ap=2.0, lambda_dev=1.0)
    scenario = replace(canonical_validation_scenario(), deployment=dep)
    cfg = SimConfig(scenario=scenario, boundary=boundary)
    assert cfg.trials == 2000
    assert dep.lambda_ap * cfg.window.area == pytest.approx(150.0, rel=1e-12)
    assert replace(cfg, trials=3).window_radius == cfg.window_radius


def test_simconfig_warns_on_small_window():
    with pytest.warns(UserWarning) as record:
        SimConfig(scenario=canonical_validation_scenario(), window_radius=1.0)  # 4 APs
    # the warning names the line that built the config
    assert record[0].filename == __file__
    assert record[0].lineno == sys._getframe().f_lineno - 3


def test_canonical_scenario_frozen_parameters():
    s = canonical_validation_scenario()
    assert s.deployment.lambda_hat == 1.0
    assert s.inference_rate == pytest.approx(0.125, rel=1e-12)
    assert math.isinf(s.air.snr)


# ---------------------------------------------------------------------------
# trial-level behaviour
# ---------------------------------------------------------------------------


def test_trial_realization_invariants():
    cfg = small_cfg(trials=20)
    for index in range(8):
        tr = simulate_trial(cfg, index)
        np.testing.assert_array_equal(tr.dev_points[0], [0.0, 0.0])
        assert tr.load_nu >= 1
        assert tr.ap_points.shape[0] >= 1
        assert 0 <= tr.serving_ap < tr.ap_points.shape[0]
        # saturated scheduling: every cell but the serving one hosts one
        # active uplink transmitter
        assert len(tr.interferer_set) == tr.ap_points.shape[0] - 1
        assert tr.delay > cfg.scenario.workload.compute_delay
        assert tr.used_cloud == (tr.delay <= cfg.scenario.workload.delay_budget)
        assert tr.sinr_u >= 0.0
        assert tr.rate_u >= 0.0


def test_trial_determinism():
    cfg = small_cfg(trials=10)
    a = simulate_trial(cfg, 3)
    b = simulate_trial(cfg, 3)
    np.testing.assert_array_equal(a.ap_points, b.ap_points)
    np.testing.assert_array_equal(a.dev_points, b.dev_points)
    assert a.delay == b.delay
    assert a.sinr_u == b.sinr_u


def test_trial_index_bounds():
    cfg = small_cfg(trials=5)
    with pytest.raises(ModelDomainError):
        simulate_trial(cfg, 5)
    with pytest.raises(ModelDomainError):
        simulate_trial(cfg, -1)


@pytest.mark.parametrize("index", [True, 2.0, "1", None], ids=repr)
def test_trial_index_must_be_an_integer(index):
    with pytest.raises(ModelDomainError, match="index"):
        simulate_trial(small_cfg(trials=5), index)


def test_trials_differ_across_indices():
    cfg = small_cfg(trials=10)
    assert simulate_trial(cfg, 0).delay != simulate_trial(cfg, 1).delay


# ---------------------------------------------------------------------------
# aggregate behaviour
# ---------------------------------------------------------------------------


def test_run_trials_mse_identity():
    cfg = small_cfg()
    s = run_trials(cfg)
    w = cfg.scenario.workload
    expected = s.cloud_use_fraction * w.mse_cloud + (1.0 - s.cloud_use_fraction) * w.mse_edge
    assert s.mse_estimate == expected
    assert s.trial_count == cfg.trials
    assert s.delay_samples.count == cfg.trials


def test_run_trials_worker_invariance():
    for cfg in (small_cfg(), small_cfg(trials=60, shadowing_sigma_db=8.0, boundary="disc")):
        one = run_trials(cfg, workers=1)
        two = run_trials(cfg, workers=2)
        assert one.delay_samples == two.delay_samples
        assert one.cloud_use_fraction == two.cloud_use_fraction
        assert one.mse_estimate == two.mse_estimate
        assert one.mean_load == two.mean_load


def test_run_trials_seed_sensitivity():
    a = run_trials(small_cfg(trials=100))
    b = run_trials(small_cfg(trials=100, master_seed=CANONICAL_SEED + 1))
    assert a.delay_samples != b.delay_samples


def test_bandwidth_scaling_coupling():
    # same seed, doubled bandwidth: every SINR draw is unchanged, so each
    # transfer delay above the compute floor exactly halves
    cfg1 = small_cfg(trials=40)
    s2 = replace(
        cfg1.scenario,
        air=AirInterface(bandwidth=2.0 * cfg1.scenario.air.bandwidth, snr=math.inf),
    )
    cfg2 = replace(cfg1, scenario=s2)
    dc = cfg1.scenario.workload.compute_delay
    for i in range(0, 40, 7):
        d1 = simulate_trial(cfg1, i).delay
        d2 = simulate_trial(cfg2, i).delay
        assert (d1 - dc) == pytest.approx(2.0 * (d2 - dc), rel=1e-12)


def test_finite_snr_slows_transfers():
    cfg_inf = small_cfg(trials=40)
    s_noisy = replace(cfg_inf.scenario, air=AirInterface(bandwidth=1.6e8, snr=0.5))
    cfg_noisy = replace(cfg_inf, scenario=s_noisy)
    for i in range(0, 40, 7):
        assert simulate_trial(cfg_noisy, i).delay >= simulate_trial(cfg_inf, i).delay


def test_realized_load_mode_runs_and_differs():
    mean_field = run_trials(small_cfg(trials=150))
    realized = run_trials(small_cfg(trials=150, load_model="realized"))
    assert realized.delay_samples != mean_field.delay_samples
    assert realized.mean_load == mean_field.mean_load  # same geometry draws


def test_fullbuffer_off_lowers_interference():
    # without saturation fill only occupied cells interfere, so delays
    # cannot be worse on a per-trial basis with identical draws
    cfg_on = small_cfg(trials=60)
    cfg_off = small_cfg(trials=60, full_buffer=False)
    on = run_trials(cfg_on)
    off = run_trials(cfg_off)
    assert off.cloud_use_fraction >= on.cloud_use_fraction


def test_disc_boundary_mode():
    s = run_trials(small_cfg(trials=100, boundary="disc"))
    assert 0.0 <= s.cloud_use_fraction <= 1.0
    assert s.mean_load >= 1.0


def test_shadowing_mode_runs():
    s = run_trials(small_cfg(trials=100, shadowing_sigma_db=4.0))
    assert 0.0 <= s.cloud_use_fraction <= 1.0
    assert math.isfinite(s.mean_load)


def test_mean_load_tracks_density_ratio():
    # lambda_hat = 2 with 400 trials: mean load should approach 1.64
    dep = DeploymentConfig(lambda_ap=1.0, lambda_dev=0.5)
    s = replace(canonical_validation_scenario(), deployment=dep)
    cfg = SimConfig(scenario=s, window_radius=5.0, trials=400)
    out = run_trials(cfg)
    assert out.mean_load == pytest.approx(mean_cell_load(dep), rel=0.15)


# ---------------------------------------------------------------------------
# load-only path and worker pool
# ---------------------------------------------------------------------------


@pytest.mark.filterwarnings("ignore:window holds only")
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    lam_hat=st.floats(0.25, 4.0),
    boundary=st.sampled_from(["torus", "disc"]),
    sigma_db=st.sampled_from([None, 8.0]),
    trials=st.integers(1, 5),
    workers=st.just(1),
)
@example(seed=1, lam_hat=1.0, boundary="torus", sigma_db=None, trials=5, workers=2)
@example(seed=2, lam_hat=0.5, boundary="disc", sigma_db=8.0, trials=4, workers=2)
@example(seed=3, lam_hat=2.0, boundary="torus", sigma_db=8.0, trials=3, workers=2)
def test_run_loads_matches_full_trials(seed, lam_hat, boundary, sigma_db, trials, workers):
    dep = DeploymentConfig(lambda_ap=1.0, lambda_dev=1.0 / lam_hat)
    cfg = SimConfig(
        scenario=replace(canonical_validation_scenario(), deployment=dep),
        window_radius=4.0,
        trials=trials,
        master_seed=seed,
        shadowing_sigma_db=sigma_db,
        boundary=boundary,
    )
    loads = run_loads(cfg, workers=workers)
    assert loads.dtype == np.int64
    assert loads.tolist() == [simulate_trial(cfg, i).load_nu for i in range(trials)]
    assert float(loads.mean()) == run_trials(cfg, workers=workers).mean_load


def _hard_layout(engine, seed, n_ap, kind, tie, spots):
    """APs and devices, the typical device first at the window center.

    The APs are ``n_ap`` uniform ones (``kind`` "uniform"), or the center
    AP of a ring layout whose cell is smaller than its twelve nearest APs'
    polygon (see ``_ring_layout``) plus uniform ones beyond 2.5 ("ring"),
    or, on the torus, thirteen APs whose twelfth neighbour of the center
    AP is beyond half the side, so that some device inside its polygon and
    within half that distance is nearer another image of a neighbour
    ("wrap"). With ``tie``, a further AP is as near the center as the
    nearest. Beside uniform devices, ``spots`` puts devices on the typical
    cell's bisectors ("bisector"), at its polygon's vertices ("vertex"),
    at half its twelfth neighbour's distance ("half"), in the part of the
    polygon outside the cell ("wedge", ring and wrap layouts) and on the
    torus seam ("seam")."""
    side, c = engine.side, engine.center
    ap = engine.window.sample(RngStream(seed, 0), n_ap)
    wedge = np.column_stack([np.linspace(-0.95, -0.6, 8), np.linspace(-0.2, 0.2, 8)])
    if kind == "ring":
        ap = np.vstack([_ring_layout(engine)[:14], ap[np.hypot(*(ap - c).T) > 2.5]])
    elif kind == "wrap" and side is not None:
        u = RngStream(seed, 2).uniform((11, 2))
        angle = np.radians(45.0 + 90.0 * np.arange(11) + 10.0 * (u[:, 0] - 0.5))
        far = (0.55 + 0.05 * u[:, 1])[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
        ap = c + side * np.vstack([[0.0, 0.0], [0.4875, 0.0], far])
        wedge = np.column_stack([-side * np.linspace(0.252, 0.27, 8), np.linspace(-0.1, 0.1, 8)])
    a0 = int(np.argmin(geomsim._sq_dist(ap, c, side)))
    if tie:
        ap = np.vstack([ap, 2.0 * c - ap[a0]])
    d = ap - ap[a0]
    if side is not None:
        ap %= side
        ap[ap >= side] = 0.0
        d -= side * np.round(d / side)
    d = np.delete(d, a0, axis=0)
    d = d[np.argsort((d * d).sum(axis=1))][: geomsim._FILL_NEIGHBOURS]
    perp = np.column_stack([-d[:, 1], d[:, 0]])
    places = [engine.window.sample(RngStream(seed, 1), 40) - ap[a0]]
    if "bisector" in spots:
        places += [0.5 * d, 0.5 * d + 0.3 * perp, 0.5 * d - 0.3 * perp]
    if "vertex" in spots and len(d) > 2:
        lo, hi, _ = geomsim._bisector_polygon(d[None])
        for end in (lo[0], hi[0]):
            ok = np.isfinite(end) & (lo[0] <= hi[0])
            places.append(0.5 * d[ok] + end[ok, None] * perp[ok])
    if "half" in spots and len(d):
        angle = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
        half = 0.5 * np.sqrt((d[-1] ** 2).sum())
        places.append(half * np.column_stack([np.cos(angle), np.sin(angle)]))
    if "wedge" in spots:
        places.append(wedge)
    dev = np.vstack([c, ap[a0] + np.vstack(places)])
    if side is None:
        return ap, dev[np.hypot(dev[:, 0], dev[:, 1]) <= engine.window.radius]
    dev %= side
    if "seam" in spots:
        seam = np.nextafter(side, 0.0)
        dev = np.vstack([dev, [[0.0, c[1]], [seam, c[1]], [c[0], 0.0], [c[0], seam]]])
    return ap, dev


@pytest.mark.filterwarnings("ignore:window holds only")
@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    boundary=st.sampled_from(["torus", "disc"]),
    layouts=st.lists(
        st.tuples(
            st.integers(1, 70),
            st.sampled_from(["uniform", "ring", "wrap"]),
            st.booleans(),
            st.sets(st.sampled_from(["bisector", "vertex", "half", "wedge", "seam"])),
        ),
        min_size=1,
        max_size=5,
    ),
)
@example(
    seed=0,
    boundary="torus",
    layouts=[(60, "uniform", True, set()), (5, "uniform", False, {"seam"})],
)
@example(
    seed=1,
    boundary="disc",
    layouts=[(60, "ring", False, {"wedge", "half"}), (12, "uniform", False, set())],
)
@example(
    seed=2,
    boundary="torus",
    layouts=[(60, "ring", False, {"wedge", "seam"}), (1, "wrap", False, {"wedge"})],
)
@example(
    seed=3,
    boundary="disc",
    layouts=[(60, "uniform", False, {"bisector"}), (60, "uniform", False, {"half"})],
)
def test_typical_counts_match_the_k_d_tree_on_hard_layouts(seed, boundary, layouts):
    # The block count of the typical cell equals the k-d tree's count,
    # bincount(serving)[a0], on layouts with devices on the cell's
    # bisectors and polygon vertices, at half the twelfth neighbour's
    # distance, in a polygon larger than the cell, nearer another image of a
    # neighbour and on the torus seam, with two APs equidistant from the
    # center, on the disc's edge cells, and with 12 or fewer APs.
    from scipy.spatial import cKDTree

    engine = geomsim._Engine(small_cfg(window_radius=4.0, boundary=boundary))
    built = [_hard_layout(engine, seed + t, *layout) for t, layout in enumerate(layouts)]
    streams = [RngStream(seed, t) for t in range(len(built))]
    counts = engine._typical_counts(streams, built)
    assert counts.dtype == np.int64
    expected = []
    for ap, dev in built:
        serving = cKDTree(ap, boxsize=engine.side).query(dev)[1]
        expected.append(np.bincount(serving, minlength=len(ap))[serving[0]])
    assert counts.tolist() == expected


@pytest.mark.filterwarnings("ignore:window holds only")
@pytest.mark.parametrize("boundary", ["torus", "disc"])
def test_typical_loads_decide_most_trials_without_the_tree(boundary):
    # loads of deployed trials equal those of full trials, and the polygon
    # decides nearly all of them without associating every device
    cfg = small_cfg(window_radius=5.0, boundary=boundary)
    engine = geomsim._Engine(cfg)
    tree_loads, slow = engine._tree_loads, []

    def counting_tree_loads(streams, deployed):
        slow.extend(streams)
        return tree_loads(streams, deployed)

    engine._tree_loads = counting_tree_loads
    loads = engine.typical_loads(range(200))
    assert len(slow) <= 10
    engine._tree_loads = tree_loads
    assert loads.tolist() == [simulate_trial(cfg, i).load_nu for i in range(200)]


@pytest.mark.filterwarnings("ignore:window holds only")
@pytest.mark.parametrize("boundary", ["torus", "disc"])
def test_load_blocks_of_any_size_give_the_same_loads(monkeypatch, boundary):
    # run_loads counts blocks of about _BLOCK_POINTS expected points;
    # blocks of 1, 7 and all 30 trials give the same array
    cfg = small_cfg(window_radius=5.0, boundary=boundary, trials=30)
    engine = geomsim._Engine(cfg)
    points = 1.0 + engine.expected_aps + engine.expected_devs
    typical_loads, sizes = geomsim._Engine.typical_loads, []

    def recording(self, indices):
        sizes.append(len(indices))
        return typical_loads(self, indices)

    monkeypatch.setattr(geomsim._Engine, "typical_loads", recording)
    reference = [simulate_trial(cfg, i).load_nu for i in range(30)]
    for size in (1, 7, 30):
        sizes.clear()
        monkeypatch.setattr(geomsim, "_BLOCK_POINTS", (size + 0.5) * points)
        assert run_loads(cfg).tolist() == reference
        assert max(sizes) == size and sum(sizes) == 30


@pytest.mark.filterwarnings("ignore:window holds only")
def test_load_blocks_hold_a_bounded_number_of_points(monkeypatch):
    # about 10,000 devices per trial: a block holds a few trials only
    dep = DeploymentConfig(lambda_ap=1.0, lambda_dev=100.0)
    cfg = small_cfg(
        scenario=replace(canonical_validation_scenario(), deployment=dep),
        window_radius=5.0,
        trials=12,
    )
    typical_loads, sizes = geomsim._Engine.typical_loads, []

    def recording(self, indices):
        sizes.append(len(indices))
        return typical_loads(self, indices)

    monkeypatch.setattr(geomsim._Engine, "typical_loads", recording)
    run_loads(cfg)
    engine = geomsim._Engine(cfg)
    points = 1.0 + engine.expected_aps + engine.expected_devs
    assert sum(sizes) == 12 and 1 <= max(sizes) * points <= geomsim._BLOCK_POINTS


def _staged(engine, stream):
    """Deploy, associate and schedule one trial as a block of one: the fill
    stage's inputs, the block, and its APs, k-d tree and serving cell."""
    ap, dev = engine.deploy(stream)
    block, serving, _, counts, _, a0 = engine.associate([stream], [(ap, dev)])
    engine.schedule(block, serving, counts, a0)
    return block, ap, block.trees[0], counts, int(a0[0])


def _one(stream, ap, tree):
    """A block of one trial with these APs and k-d tree and no devices,
    drawing from ``stream``."""
    return geomsim._Block([stream], [(ap, np.empty((0, 2)))], [tree])


@pytest.mark.filterwarnings("ignore:window holds only")
@pytest.mark.parametrize(
    "overrides",
    [
        dict(),
        dict(boundary="disc"),
        dict(shadowing_sigma_db=8.0, window_radius=4.0),
        dict(shadowing_sigma_db=8.0, window_radius=4.0, boundary="disc"),
    ],
)
def test_early_exit_fill_matches_full_batch_rule(overrides, monkeypatch):
    # One point per empty non-serving cell, served by that cell, in
    # ascending cell order, replayed exactly. On the shadowed path every
    # candidate the engine associates is recorded (by _serve, or by _screen
    # for a screened slice), so each point's cell is known; without
    # shadowing the k-d tree gives it, and batch 1 draws a slice (through
    # _Block.serve) only while at least _FILL_STOP * n_ap cells are empty.
    # On the unshadowed torus the first slice is the start of the full-batch
    # rule's first batch (the same draws), so the cells it fills get the
    # same points.
    engine = geomsim._Engine(small_cfg(trials=12, **overrides))
    serve, screen, local_fill = engine._serve, engine._screen, engine._local_fill
    block_serve = geomsim._Block.serve
    served, slices, local = {}, [], []

    def record(points, serving, own, pathloss):
        for k, point in enumerate(points):
            row = None if pathloss is None else pathloss[k]
            served[tuple(point)] = (serving[k], own[k], row)

    def recording_block_serve(block, points, parts):
        serving, own = block_serve(block, points, parts)
        record(points, serving, own, None)
        if not local:
            slices.append(serving)
        return serving, own

    def recording_serve(points, ap, normals):
        serving, own, pathloss = serve(points, ap, normals)
        record(points, serving, own, pathloss)
        return serving, own, pathloss

    def recording_screen(*args):
        kept, result = screen(*args)
        record(kept, *result)
        return kept, result

    def recording_local_fill(*args):
        local.append(True)
        return local_fill(*args)

    engine._serve, engine._screen = recording_serve, recording_screen
    engine._local_fill = recording_local_fill
    monkeypatch.setattr(geomsim._Block, "serve", recording_block_serve)
    for index in range(12):
        streams = [RngStream(CANONICAL_SEED, index) for _ in range(4)]
        staged = [_staged(engine, stream) for stream in streams]
        block, ap, tree, counts, a0 = staged[0]
        served.clear()
        slices.clear()
        local.clear()
        _, pts, own, cross = engine.fill(block, counts, np.array([a0]))
        empty = np.nonzero(counts == 0)[0]
        empty = empty[empty != a0]
        if engine.sigma_scale is None:
            dist, cells = tree.query(pts)
            assert np.array_equal(own, dist**4)
            assert cross is None
            # the stop rule: batch 1 draws a slice only while enough cells
            # are empty, and stops below that or at its four slices
            hit = [np.empty(0, dtype=int)] + slices
            left = [np.setdiff1d(empty, np.concatenate(hit[: k + 1])).size for k in range(len(hit))]
            stop = geomsim._FILL_STOP * len(ap)
            assert all(n >= stop for n in left[:-1])
            assert left[-1] < stop or len(slices) == 8 // geomsim._FILL_SLICE
        else:
            cells = [served[tuple(p)][0] for p in pts]
            assert np.array_equal(own, [served[tuple(p)][1] for p in pts])
            assert np.array_equal(cross, [served[tuple(p)][2][a0] for p in pts])
        assert np.array_equal(cells, empty)
        # replay: the same fill, and the stream continues from the same place
        again = engine.fill(staged[1][0], counts, np.array([a0]))[1:]
        assert np.array_equal(pts, again[0]) and np.array_equal(own, again[1])
        assert cross is None or np.array_equal(cross, again[2])
        assert streams[0].uniform() == streams[1].uniform()
        if not overrides:
            assert slices
            first = engine.window.sample(streams[2], geomsim._FILL_SLICE * len(ap))
            old = _full_batch_fill(engine, streams[3], ap, tree, counts, a0)[0]
            old = old[np.argsort(tree.query(old)[1])]
            assert len(old) == len(pts)
            slice1 = (pts[:, None] == first[None]).all(-1).any(-1)
            assert np.array_equal(slice1, (old[:, None] == first[None]).all(-1).any(-1))
            assert np.array_equal(pts[slice1], old[slice1])


def _full_batch_fill(engine, stream, ap, tree, counts, a0):
    """The earlier saturation-fill rule: global batches only, each drawn and
    associated whole, its first hit per empty cell kept, by cell."""
    n_ap = len(ap)
    need = np.nonzero(counts == 0)[0]
    need = need[need != a0]
    pts, own, cross = [np.empty((0, 2))], [np.empty(0)], [np.empty(0)]
    for batch in range(geomsim._FILL_BATCHES):
        if not need.size:
            break
        m = (8 << batch) * n_ap
        cand = engine.window.sample(stream, m)
        if engine.sigma_scale is None:
            serving, cand_own = _one(stream, ap, tree).serve(cand, [(0, 0, m)])
            pathloss = None
        else:
            serving, cand_own, pathloss = engine._serve(cand, ap, stream.normal((m, n_ap)))
        idx = np.nonzero(np.isin(serving, need))[0]
        got, first = np.unique(serving[idx], return_index=True)
        pts.append(cand[idx[first]])
        own.append(cand_own[idx[first]])
        if pathloss is not None:
            cross.append(pathloss[idx[first], a0])
        need = np.setdiff1d(need, got, assume_unique=True)
    return np.concatenate(pts), np.concatenate(own), np.concatenate(cross)


@pytest.mark.filterwarnings("ignore:window holds only")
@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    boundary=st.sampled_from(["torus", "disc"]),
    lam_ap=st.floats(0.5, 2.0),
)
@example(seed=0, boundary="torus", lam_ap=1.0)
@example(seed=0, boundary="disc", lam_ap=1.0)
def test_local_fill_bounds_its_cells_and_draws_inside_them(seed, boundary, lam_ap):
    dep = DeploymentConfig(lambda_ap=lam_ap, lambda_dev=1.0)
    cfg = small_cfg(
        scenario=replace(canonical_validation_scenario(), deployment=dep),
        window_radius=5.0,
        boundary=boundary,
        master_seed=seed,
    )
    engine = geomsim._Engine(cfg)
    stream = RngStream(seed, 0)
    ap, dev = engine.deploy(stream)
    block = engine.associate([stream], [(ap, dev)])[0]
    tree = block.trees[0]
    cells = np.arange(len(ap))
    rho = engine._cell_polygon(block, cells)[3]
    bounded = np.isfinite(rho)
    if len(ap) > geomsim._FILL_NEIGHBOURS:
        assert bounded.mean() > 0.5
    # containment: no probe point of a bounded cell lies beyond its radius
    dist, near = tree.query(engine.window.sample(RngStream(seed, 1), 40_000))
    inner = bounded[near]
    assert np.all(dist[inner] <= rho[near[inner]])
    # every fan draw lies in the polygon it was drawn from
    fan, drawn = geomsim._polygon_points, []

    def recording_fan(d, lo, hi, u):
        x = fan(d, lo, hi, u)
        drawn.append((x, d))
        return x

    with mock.patch.object(geomsim, "_polygon_points", recording_fan):
        done, pts, own = engine._local_fill(_one(RngStream(seed, 2), ap, tree), cells)
    assert drawn
    for x, d in drawn:
        assert np.all(_in_polygon(x, d))
    # own cell: every local point is in its polygon and the window, and
    # served by its AP
    assert np.all(bounded[done]) and done.any()
    pts, own = pts[done], own[done]
    dist, near = tree.query(pts)
    assert np.array_equal(near, cells[done])
    assert np.array_equal(own, dist**4)
    d = engine._cell_polygon(block, cells[done])[0]
    x = pts - ap[cells[done]]
    if boundary == "torus":
        x -= engine.side * np.round(x / engine.side)
        assert np.all((pts >= 0.0) & (pts < engine.side))
    else:
        assert np.all(np.hypot(pts[:, 0], pts[:, 1]) <= cfg.window_radius)
    assert np.all(_in_polygon(x, d))


def _in_polygon(x, d):
    """Whether each point ``x`` (n, 2) lies in the bisector polygon of its
    row of displacements ``d`` (n, K, 2), up to rounding."""
    dot = (x[:, None] * d).sum(axis=-1)
    half = 0.5 * (d * d).sum(axis=-1)
    scale = np.abs(dot) + half
    return (dot <= half + 1e-9 * scale).all(axis=1)


def _max_gap(d):
    """Largest angle between angularly consecutive rows of ``d`` (..., K, 2)."""
    angle = np.sort(np.arctan2(d[..., 1], d[..., 0]), axis=-1)
    return np.diff(angle, axis=-1, append=angle[..., :1] + 2.0 * math.pi).max(axis=-1)


def _vertex_radius(d):
    """Reference for the radius of ``_Engine._cell_polygon`` from a cell's bisector
    displacements ``d`` (K, 2): the largest norm among the pairwise
    bisector intersections that satisfy every half-plane, nan when the
    directions leave an angular gap of pi or more (unbounded polygon)."""
    if _max_gap(d) >= math.pi:
        return math.nan
    half = 0.5 * (d * d).sum(axis=1)
    best = 0.0
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            det = d[i, 0] * d[j, 1] - d[i, 1] * d[j, 0]
            if det == 0.0:
                continue
            v = np.linalg.solve(d[[i, j]], half[[i, j]])
            if np.all(d @ v <= half + 1e-9 * (half + np.abs(d @ v))):
                best = max(best, float(v @ v))
    return math.sqrt(best)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    boundary=st.sampled_from(["torus", "disc"]),
    log_lam_hat=st.floats(-1.0, 3.0),
)
@example(seed=0, boundary="disc", log_lam_hat=0.0)
@example(seed=1, boundary="disc", log_lam_hat=3.0)
@example(seed=2, boundary="torus", log_lam_hat=-1.0)
def test_fill_leaves_no_cell_empty_and_bounds_disc_edge_cells(seed, boundary, log_lam_hat):
    # lambda_hat in [0.1, 1000], auto-sized window (about 150 APs)
    dep = DeploymentConfig(lambda_ap=1.0, lambda_dev=10.0**-log_lam_hat)
    cfg = SimConfig(
        scenario=replace(canonical_validation_scenario(), deployment=dep),
        boundary=boundary,
        master_seed=seed,
        trials=1,
    )
    engine = geomsim._Engine(cfg)
    stream = RngStream(seed, 0)
    block, ap, tree, counts, a0 = _staged(engine, stream)
    # completeness: every empty non-serving cell gets its point
    pts = engine.fill(block, counts, np.array([a0]))[1]
    empty = np.nonzero(counts == 0)[0]
    assert np.array_equal(tree.query(pts)[1], empty[empty != a0])
    if boundary == "torus" or len(ap) <= geomsim._FILL_NEIGHBOURS:
        return
    # boundedness: the window's tangents bound every disc cell, including
    # the edge cells whose nearest APs all lie on one side of them
    cells = np.arange(len(ap))
    rho = engine._cell_polygon(block, cells)[3]
    assert np.all(np.isfinite(rho))
    _, nb = tree.query(ap, k=geomsim._FILL_NEIGHBOURS + 1)
    edge = _max_gap(ap[nb[:, 1:]] - ap[:, None]) >= math.pi
    assert edge.any()
    # containment: no probe point of an edge cell lies beyond its radius
    dist, near = tree.query(engine.window.sample(RngStream(seed, 1), 40_000))
    probe = edge[near]
    assert probe.any() and np.all(dist[probe] <= rho[near[probe]])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    boundary=st.sampled_from(["torus", "disc"]),
    sigma_db=st.sampled_from([4.0, 8.0]),
    log_lam_hat=st.floats(-1.0, 3.0),
)
@example(seed=0, boundary="torus", sigma_db=8.0, log_lam_hat=-1.0)
@example(seed=1, boundary="disc", sigma_db=8.0, log_lam_hat=0.0)
@example(seed=2, boundary="disc", sigma_db=4.0, log_lam_hat=1.0)
@example(seed=3, boundary="torus", sigma_db=8.0, log_lam_hat=3.0)
def test_shadowed_fill_leaves_no_cell_empty(seed, boundary, sigma_db, log_lam_hat):
    # lambda_hat in [0.1, 1000], auto-sized window (about 150 APs). Every
    # candidate the fill associates passes through _serve (whole blocks) or
    # _screen (screened slices), which record its serving AP.
    dep = DeploymentConfig(lambda_ap=1.0, lambda_dev=10.0**-log_lam_hat)
    cfg = SimConfig(
        scenario=replace(canonical_validation_scenario(), deployment=dep),
        boundary=boundary,
        shadowing_sigma_db=sigma_db,
        master_seed=seed,
        trials=1,
    )
    engine = geomsim._Engine(cfg)
    stream = RngStream(seed, 0)
    block, ap, tree, counts, a0 = _staged(engine, stream)
    serve, screen, served = engine._serve, engine._screen, {}

    def recording_serve(points, ap, normals):
        serving, own, pathloss = serve(points, ap, normals)
        served.update(zip(map(tuple, points), serving))
        return serving, own, pathloss

    def recording_screen(*args):
        kept, result = screen(*args)
        served.update(zip(map(tuple, kept), result[0]))
        return kept, result

    engine._serve, engine._screen = recording_serve, recording_screen
    _, pts, own, cross = engine.fill(block, counts, np.array([a0]))
    empty = np.nonzero(counts == 0)[0]
    empty = empty[empty != a0]
    # one point per empty non-serving cell, in ascending cell order, each
    # served by its own cell
    assert len(pts) == len(own) == len(cross) == len(empty)
    assert np.array_equal([served[tuple(p)] for p in pts], empty)


@pytest.mark.filterwarnings("ignore:window holds only")
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    boundary=st.sampled_from(["torus", "disc"]),
    sigma_db=st.sampled_from([4.0, 8.0, 12.0]),
    empty_share=st.sampled_from([None, 0.05, 0.3, 0.9]),
)
@example(seed=0, boundary="torus", sigma_db=12.0, empty_share=None)
@example(seed=1, boundary="disc", sigma_db=12.0, empty_share=None)
@example(seed=2, boundary="torus", sigma_db=4.0, empty_share=0.3)
@example(seed=3, boundary="disc", sigma_db=8.0, empty_share=0.05)
def test_screened_slice_matches_full_matrix_rule(seed, boundary, sigma_db, empty_share):
    # One fixed (candidates x APs) matrix of normals feeds both rules: the
    # screen asks for its pairs' entries, the full-matrix rule takes it
    # whole. Both keep the same first hit per empty cell, with the same
    # serving AP, own pathloss and cross pathloss to the tagged AP. The
    # empty cells are the trial's own, or a random share of all cells. A
    # pair the screen asks for again gets a normal of -10 instead, so a
    # screen that used a second draw for a pair would pick other hits.
    engine = geomsim._Engine(
        small_cfg(window_radius=5.0, boundary=boundary, shadowing_sigma_db=sigma_db)
    )
    stream = RngStream(seed, 0)
    _, ap, tree, counts, a0 = _staged(engine, stream)
    needed = counts == 0 if empty_share is None else stream.uniform(len(ap)) < empty_share
    needed[a0] = False
    assume(needed.any())
    m = geomsim._FILL_SLICE * len(ap)
    cand = engine.window.sample(stream, m)
    normals = stream.normal((m, len(ap)))

    def first_hits(cand, serving, own, pathloss):
        hit = np.nonzero(needed[serving])[0]
        got, first = np.unique(serving[hit], return_index=True)
        take = hit[first]
        return got, cand[take], own[take], pathloss[take, a0]

    asked = np.zeros(normals.shape, dtype=bool)

    def once(rows, cols):
        rows, cols = np.broadcast_arrays(rows, cols)
        z = np.where(asked[rows, cols], -10.0, normals[rows, cols])
        asked[rows, cols] = True
        return z

    full = first_hits(cand, *engine._serve(cand, ap, normals))
    kept, served = engine._screen(cand, ap, tree, needed, once)
    screened = first_hits(kept, *served)
    for a, b in zip(full, screened):
        assert np.array_equal(a, b)
    # the screen keeps candidates of the slice, in their order
    match = (kept[:, None] == cand[None]).all(-1)
    assert match.any(axis=1).all()
    assert np.all(np.diff(match.argmax(axis=1)) > 0)


@pytest.mark.filterwarnings("ignore:window holds only")
@pytest.mark.parametrize("boundary", ["torus", "disc"])
def test_cell_radius_matches_pairwise_vertex_reference(boundary):
    # The radius is the farthest vertex of the polygon, found from the ends
    # of its edges; the reference tries every pair of bisectors. On the
    # disc, the polygon also has the window's tangents at the AP's
    # direction and at +-2pi/3 from it, as mirror images of the AP.
    engine = geomsim._Engine(small_cfg(window_radius=3.0, boundary=boundary))
    k = geomsim._FILL_NEIGHBOURS
    for index in range(3):
        stream = RngStream(CANONICAL_SEED, index)
        ap, dev = engine.deploy(stream)
        block = engine.associate([stream], [(ap, dev)])[0]
        tree = block.trees[0]
        rho = engine._cell_polygon(block, np.arange(len(ap)))[3]
        for cell, p in enumerate(ap):
            d = ap[tree.query(p, k=k + 1)[1][1:]] - p
            if boundary == "torus":
                d -= engine.side * np.round(d / engine.side)
            else:
                phi = math.atan2(p[1], p[0]) + np.array([0.0, 2.0, -2.0]) * math.pi / 3.0
                u = np.column_stack([np.cos(phi), np.sin(phi)])
                d = np.vstack([d, 2.0 * (engine.window.radius - u @ p)[:, None] * u])
            ref = _vertex_radius(d)
            if boundary == "torus" and ref >= 0.5 * engine.side:
                ref = math.nan
            # the engine inflates its radius by 1e-9 against rounding
            assert rho[cell] == pytest.approx(ref * (1.0 + 1e-9), rel=1e-12, nan_ok=True)
        if boundary == "disc":
            assert np.all(np.isfinite(rho))


def test_local_fill_matches_rejection_sampling_in_law():
    from scipy.stats import ks_2samp

    engine = geomsim._Engine(small_cfg())
    stream = RngStream(CANONICAL_SEED, 0)
    ap, dev = engine.deploy(stream)
    block = engine.associate([stream], [(ap, dev)])[0]
    tree = block.trees[0]
    bounded = np.isfinite(engine._cell_polygon(block, np.arange(len(ap)))[3])
    # the bounded cell with the largest share of its area beyond 90% of its
    # farthest point from the AP, as a dense probe sees them
    dist, near = tree.query(engine.window.sample(RngStream(1, 0), 100_000))
    far = np.zeros(len(ap))
    np.maximum.at(far, near, dist)
    beyond = np.bincount(near, weights=dist > 0.9 * far[near], minlength=len(ap))
    share = np.where(bounded, beyond / np.bincount(near, minlength=len(ap)), 0.0)
    cell = int(np.argmax(share))
    assert share[cell] > 0.05
    # rejection sampling: the window-uniform points that land in the cell
    dist, near = tree.query(engine.window.sample(RngStream(2, 0), 1_200_000))
    reference = dist[near == cell] ** 4
    assert reference.size > 5000
    done, _, own = engine._local_fill(_one(RngStream(3, 0), ap, tree), np.full(8000, cell))
    assert done.all()
    assert ks_2samp(own, reference).pvalue > 1e-3


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_polygon_points_are_uniform_in_their_polygon(seed):
    # A bounded polygon of twelve random neighbours, sampled by the fan and
    # by rejection from its bounding square: every fan point is in the
    # polygon, and both coordinates follow the same law.
    from scipy.stats import ks_2samp

    rng = np.random.default_rng(seed)
    while True:
        d = rng.uniform(-2.0, 2.0, (1, 12, 2))
        lo, hi, rho = geomsim._bisector_polygon(d)
        if np.isfinite(rho[0]):
            break
    n = 20_000
    d, lo, hi = (np.repeat(a, n, axis=0) for a in (d, lo, hi))
    x = geomsim._polygon_points(d, lo, hi, rng.uniform(size=(n, 3)))
    assert np.all(_in_polygon(x, d))
    assert np.all(np.hypot(x[:, 0], x[:, 1]) <= rho[0])
    box = rng.uniform(-rho[0], rho[0], (20 * n, 2))
    box = box[_in_polygon(box, np.repeat(d[:1], len(box), axis=0))][:n]
    assert len(box) > n // 2
    for axis in (0, 1):
        assert ks_2samp(x[:, axis], box[:, axis]).pvalue > 1e-3


def _ring_layout(engine):
    """A torus layout whose center AP's twelve nearest APs, on a unit ring
    at -120..120 degrees, cut out a polygon reaching 1.0 toward 180 degrees,
    while its thirteenth, at 1.1 and 180 degrees, cuts the cell at 0.55;
    uniform APs beyond 2.5 fill the rest of the window."""
    c = engine.center
    angle = np.radians(np.linspace(-120.0, 120.0, 12))
    ring = c + np.column_stack([np.cos(angle), np.sin(angle)])
    rest = engine.window.sample(RngStream(7, 0), 400)
    rest = rest[np.hypot(*(rest - c).T) > 2.5][:190]
    return np.vstack([c, ring, c + [-1.1, 0.0], rest])


@pytest.mark.filterwarnings("ignore:window holds only")
@pytest.mark.parametrize("case", ["disc-edge", "larger-polygon"])
def test_local_fill_matches_rejection_sampling_in_law_where_draws_are_rejected(
    case, monkeypatch
):
    # Two cells whose polygon holds more than the cell, so that some local
    # draws are rejected: a disc edge cell, whose polygon reaches past the
    # window, and a torus cell cut by an AP beyond its twelve nearest.
    # Their own pathlosses follow those of window-uniform points in the
    # cell.
    from scipy.stats import ks_2samp

    from scipy.spatial import cKDTree

    if case == "disc-edge":
        engine = geomsim._Engine(small_cfg(boundary="disc"))
        stream = RngStream(CANONICAL_SEED, 0)
        ap, dev = engine.deploy(stream)
        block = engine.associate([stream], [(ap, dev)])[0]
        tree = block.trees[0]
        rho = engine._cell_polygon(block, np.arange(len(ap)))[3]
        cell = int(np.argmax(np.hypot(ap[:, 0], ap[:, 1]) + rho))
        assert np.hypot(*ap[cell]) + rho[cell] > engine.window.radius
    else:
        engine = geomsim._Engine(small_cfg())
        ap = _ring_layout(engine)
        tree = cKDTree(ap, boxsize=engine.side)
        cell = 0
        assert np.array_equal(np.sort(tree.query(ap[0], k=13)[1][1:]), np.arange(1, 13))
    dist, near = tree.query(engine.window.sample(RngStream(2, 0), 2_000_000))
    reference = dist[near == cell] ** 4
    assert reference.size > 5000
    serve, drawn = geomsim._Block.serve, []

    def recording_serve(block, points, parts):
        drawn.append(len(points))
        return serve(block, points, parts)

    monkeypatch.setattr(geomsim._Block, "serve", recording_serve)
    done, _, own = engine._local_fill(_one(RngStream(3, 0), ap, tree), np.full(8000, cell))
    assert done.all()
    assert sum(drawn) > 8000 * 1.05
    assert ks_2samp(own, reference).pvalue > 1e-3


@pytest.mark.filterwarnings("ignore:window holds only")
def test_fill_interference_matches_full_batch_rule():
    # Per-trial total interference at the tagged AP from every fill point:
    # global slices, local draws and fallback batches under the engine's
    # rule (screened slices with 8 dB shadowing), global batches only under
    # the earlier one, on the torus and on the disc. Both place each point
    # uniformly in its cell, so the totals share one law. The engine runs on
    # trials [0, n) and the earlier rule on [n, 2n), so the samples are
    # independent. With shadowing, each rule's own cross pathlosses give
    # the total.
    from scipy.stats import ks_2samp

    n = 400
    for sigma_db in (None, 8.0):
        for boundary in ("torus", "disc"):
            engine = geomsim._Engine(
                small_cfg(window_radius=5.0, boundary=boundary, shadowing_sigma_db=sigma_db)
            )

            def interference(fill, index):
                stream = RngStream(CANONICAL_SEED, index)
                block, ap, tree, counts, a0 = _staged(engine, stream)
                pts, own, cross = fill(block, stream, ap, tree, counts, a0)
                if sigma_db is None:
                    sq = geomsim._sq_dist(pts, ap[a0], engine.side)
                    cross = sq * sq
                return float(np.sum(own / cross))

            def engine_fill(block, stream, ap, tree, counts, a0):
                return engine.fill(block, counts, np.array([a0]))[1:]

            def full_batch_fill(block, *staged):
                return _full_batch_fill(engine, *staged)

            new = [interference(engine_fill, i) for i in range(n)]
            old = [interference(full_batch_fill, i) for i in range(n, 2 * n)]
            assert ks_2samp(new, old).pvalue > 0.01, (boundary, sigma_db)


class _InlinePool:
    """ProcessPoolExecutor stand-in that records its size and runs each
    submission in this process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


class _PendingPool(_InlinePool):
    """Stand-in whose first submission fails and whose others never start."""

    futures: list[Future] = []

    def submit(self, fn, *args):
        future = Future()
        if not self.futures:
            future.set_exception(ValueError("range failed"))
        self.futures.append(future)
        return future


class _ImportRecordingPool(_InlinePool):
    """Stand-in that records whether ``scipy.spatial`` is loaded when it opens."""

    spatial_loaded: list[bool] = []

    def __init__(self, max_workers):
        super().__init__(max_workers)
        self.spatial_loaded.append("scipy.spatial" in sys.modules)


def test_pool_size_bounded_by_trials_and_cpus(monkeypatch):
    monkeypatch.setattr(geomsim.os, "cpu_count", lambda: 4)
    assert geomsim._pool_size(500, 10) == 4
    assert geomsim._pool_size(500, 3) == 3
    assert geomsim._pool_size(10**9, 10**9) == 4
    assert geomsim._pool_size(2, 10**6) == 2
    assert geomsim._pool_size(1, 10**6) == 1
    assert geomsim._pool_size(0, 10) == 1
    monkeypatch.setattr(geomsim.os, "cpu_count", lambda: None)
    assert geomsim._pool_size(8, 100) == 1


def test_large_worker_count_starts_bounded_pool(monkeypatch):
    # no process is started: the pool is replaced by an inline stand-in
    monkeypatch.setattr(geomsim.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    cfg = small_cfg(trials=5)
    serial = run_trials(cfg)
    assert run_trials(cfg, workers=500) == serial
    assert np.array_equal(run_loads(cfg, workers=10**6), run_loads(cfg))
    assert _InlinePool.sizes == [5, 5]


class _UnbuildablePool:
    """Stand-in that fails if a pool is ever opened."""

    def __init__(self, max_workers):
        raise AssertionError(f"pool of {max_workers} opened")


def _sized_cfg(lambda_ap, lambda_dev, **overrides):
    dep = DeploymentConfig(lambda_ap=lambda_ap, lambda_dev=lambda_dev)
    return small_cfg(scenario=replace(canonical_validation_scenario(), deployment=dep), **overrides)


def test_simconfig_bounds_the_size_of_one_trial():
    points = "expected APs and devices per trial; at most 1000000 are allowed"
    pairs = "expected pathloss pairs with shadowing_sigma_db per trial; at most 10000000"
    # torus of area 250,000: (1 + lambda_dev) * 250,000 expected APs and devices
    _sized_cfg(1.0, 3.0, window_radius=250.0)
    with pytest.raises(ModelDomainError, match="give 1e\\+06 " + points):
        _sized_cfg(1.0, 3.00001, window_radius=250.0)
    # area 100 with shadowing: the larger of the devices and the fill
    # slice's 2 * n_ap candidates, times the 100 * lambda_ap APs
    _sized_cfg(1.0, 1000.0, window_radius=5.0, shadowing_sigma_db=8.0)
    _sized_cfg(22.36, 1.0, window_radius=5.0, shadowing_sigma_db=8.0)
    for lambda_ap, lambda_dev in ((1.0, 1000.01), (22.37, 1.0)):
        with pytest.raises(ModelDomainError, match=pairs):
            _sized_cfg(lambda_ap, lambda_dev, window_radius=5.0, shadowing_sigma_db=8.0)
        _sized_cfg(lambda_ap, lambda_dev, window_radius=5.0)
    # both limits at once, one line each
    with pytest.raises(ModelDomainError) as exc_info:
        _sized_cfg(1.0, 1e9, window_radius=None, shadowing_sigma_db=8.0)
    first, second = str(exc_info.value).split("\n")
    assert first.endswith(points) and pairs in second


def test_oversized_sweep_point_raises_before_any_trial(monkeypatch):
    ran = []
    monkeypatch.setattr(geomsim, "_Engine", lambda cfg: ran.append(cfg))
    spec = SweepSpec(
        base=canonical_validation_scenario(),
        axis="lambda_hat",
        grid=(1e-5, 1.0),
        outputs=("avg_mse",),
        sim=SimSettings(trials=5, shadowing_sigma_db=8.0),
    )
    with pytest.raises(ModelDomainError, match="pathloss pairs"):
        run_sweep(spec)
    assert ran == []


@pytest.mark.parametrize("workers", [0, -3, True, 1.5, "2", None], ids=repr)
def test_invalid_worker_count_rejected_before_any_pool(monkeypatch, workers):
    monkeypatch.setattr(geomsim.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _UnbuildablePool)
    ran = []
    monkeypatch.setattr(geomsim, "_Engine", lambda cfg: ran.append(cfg))
    cfg = small_cfg(trials=5)
    spec = SweepSpec(
        base=canonical_validation_scenario(),
        axis="lambda_hat",
        grid=(0.5, 1.0),
        outputs=("avg_mse",),
        sim=SimSettings(trials=5),
    )
    calls = [
        lambda: run_trials(cfg, workers=workers),
        lambda: run_loads(cfg, workers=workers),
        lambda: geomsim.run_validation(trials=5, workers=workers),
        lambda: run_sweep(spec, workers=workers),
        lambda: run_sweep(replace(spec, sim=None), workers=workers),
    ]
    for call in calls:
        with pytest.raises(ModelDomainError, match="workers"):
            call()
    assert ran == []


# ---------------------------------------------------------------------------
# KS statistic plumbing
# ---------------------------------------------------------------------------


def test_delay_ks_statistic_matches_bruteforce():
    scenario = canonical_validation_scenario()
    w = scenario.workload
    samples = np.array([0.012, 0.02, 0.05, 0.3, 1.0])
    ecdf = EmpiricalCdf.from_samples(samples)
    d_lo, d_hi = w.compute_delay, 10.0 * w.delay_budget
    stat = delay_ks_statistic(ecdf, scenario, d_lo, d_hi)

    from edgeprovision.analytic import delay_cdf

    grid = np.linspace(d_lo + 1e-9, d_hi, 400_000)
    brute = max(
        abs(ecdf.evaluate(float(d)) - delay_cdf(scenario, float(d))) for d in grid
    )
    assert stat == pytest.approx(brute, abs=2e-4)
    assert stat >= brute - 1e-12  # sup over steps dominates any grid scan


# 1% two-sided Kolmogorov-Smirnov critical coefficient sqrt(-ln(0.005)/2)
KS_COEFF_1PCT = 1.6276


def model_delay_quantile(scenario, q: float) -> float:
    """The delay d with delay_cdf(scenario, d) = q, for q in (0, 1)."""
    w = scenario.workload
    x = math.log2(1.0 + coverage_exponent_inverse(-math.log(q)))
    nu_r = mean_cell_load(scenario.deployment) * scenario.inference_rate
    return w.compute_delay + (w.delay_budget - w.compute_delay) * nu_r / x


def _validation_ks(samples) -> float:
    scenario = canonical_validation_scenario()
    w = scenario.workload
    ecdf = EmpiricalCdf.from_samples([model_delay_quantile(scenario, q) for q in samples])
    return delay_ks_statistic(ecdf, scenario, w.compute_delay, 10.0 * w.delay_budget)


def test_delay_ks_statistic_quartile_sample():
    # the model quartiles: the empirical steps miss the model CDF by 0.25
    assert _validation_ks([0.25, 0.5, 0.75]) == pytest.approx(0.25, abs=1e-12)


def test_delay_ks_statistic_single_median():
    assert _validation_ks([0.5]) == pytest.approx(0.5, abs=1e-12)


def test_delay_ks_statistic_glivenko_cantelli():
    # 10**4 delays drawn from the model law itself
    n = 10_000
    assert _validation_ks(RngStream(4, 0).uniform(n)) <= KS_COEFF_1PCT / math.sqrt(n)


def test_delay_ks_statistic_ignores_out_of_window_mass():
    scenario = canonical_validation_scenario()
    w = scenario.workload
    base = [0.012, 0.02, 0.05]
    far = base + [1e6, 2e6]  # beyond the window: only reweights in-window steps
    s1 = delay_ks_statistic(
        EmpiricalCdf.from_samples(base), scenario, w.compute_delay, 10 * w.delay_budget
    )
    s2 = delay_ks_statistic(
        EmpiricalCdf.from_samples(far), scenario, w.compute_delay, 10 * w.delay_budget
    )
    assert s2 != s1  # global normalization keeps the statistic honest
    assert 0.0 <= s2 <= 1.0


def test_delay_ks_statistic_rejects_a_reversed_window():
    scenario = canonical_validation_scenario()
    ecdf = EmpiricalCdf.from_samples(np.linspace(0.011, 0.5, 100))
    with pytest.raises(ModelDomainError, match=r"^need d_lo <= d_hi \(got 0\.3, 0\.1\)$"):
        delay_ks_statistic(ecdf, scenario, 0.3, 0.1)
    # an empty window is still a window
    assert 0.0 <= delay_ks_statistic(ecdf, scenario, 0.1, 0.1) <= 1.0


# ---------------------------------------------------------------------------
# one pool per sweep
# ---------------------------------------------------------------------------


@pytest.mark.filterwarnings("ignore:window holds only")
@settings(max_examples=25, deadline=None)
@given(
    trials=st.integers(1, 12),
    cuts=st.sets(st.integers(1, 11)),
    boundary=st.sampled_from(["torus", "disc"]),
    sigma_db=st.sampled_from([None, 8.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_simulate_range_splits_concatenate(trials, cuts, boundary, sigma_db, seed):
    cfg = small_cfg(
        trials=trials,
        window_radius=4.0,
        master_seed=seed,
        boundary=boundary,
        shadowing_sigma_db=sigma_db,
    )
    bounds = sorted({0, trials} | {c for c in cuts if c < trials})
    parts = [geomsim._simulate_range(cfg, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    whole = geomsim._simulate_range(cfg, 0, trials)
    for got, want in zip(zip(*parts), whole):
        assert np.array_equal(np.concatenate(got), want)


@pytest.mark.filterwarnings("ignore:window holds only")
@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    boundary=st.sampled_from(["torus", "disc"]),
    sigma_db=st.sampled_from([None, 8.0]),
    full_buffer=st.booleans(),
    load_model=st.sampled_from(["mean_field", "realized"]),
    log_lam_hat=st.floats(-1.0, 3.0),
    window_radius=st.sampled_from([None, 4.0, 1.5]),
    trials=st.integers(2, 6),
    size=st.integers(2, 5),
)
@example(
    seed=0, boundary="torus", sigma_db=None, full_buffer=True, load_model="mean_field",
    log_lam_hat=-1.0, window_radius=None, trials=6, size=4,
)
@example(
    seed=1, boundary="disc", sigma_db=8.0, full_buffer=True, load_model="realized",
    log_lam_hat=0.0, window_radius=None, trials=5, size=2,
)
@example(
    seed=2, boundary="disc", sigma_db=None, full_buffer=False, load_model="realized",
    log_lam_hat=3.0, window_radius=1.5, trials=6, size=3,
)
@example(
    seed=3, boundary="torus", sigma_db=8.0, full_buffer=True, load_model="mean_field",
    log_lam_hat=3.0, window_radius=1.5, trials=6, size=5,
)
def test_the_block_a_trial_runs_in_never_changes_its_result(
    seed, boundary, sigma_db, full_buffer, load_model, log_lam_hat, window_radius, trials, size
):
    # Blocks of one trial, of a random size and of the whole range give the
    # same delays, output choices and loads, and simulate_trial (a block of
    # one) agrees with each entry. A window of radius 1.5 holds 12 APs or
    # fewer in most trials (about 9 on the torus, 7 on the disc).
    dep = DeploymentConfig(lambda_ap=1.0, lambda_dev=10.0**-log_lam_hat)
    cfg = SimConfig(
        scenario=replace(canonical_validation_scenario(), deployment=dep),
        window_radius=window_radius,
        boundary=boundary,
        shadowing_sigma_db=sigma_db,
        full_buffer=full_buffer,
        load_model=load_model,
        master_seed=seed,
        trials=trials,
    )
    engine = geomsim._Engine(cfg)
    points = 1.0 + engine.expected_aps + engine.expected_devs
    run, sizes = geomsim._Engine.trials, []

    def recording(self, indices, collect=False):
        sizes.append(len(indices))
        return run(self, indices, collect)

    runs = []
    with mock.patch.object(geomsim._Engine, "trials", recording):
        for block in (1, min(size, trials), trials):
            sizes.clear()
            with mock.patch.object(geomsim, "_BLOCK_POINTS", (block + 0.5) * points):
                runs.append(geomsim._simulate_range(cfg, 0, trials))
            assert max(sizes) == block and sum(sizes) == trials
    for other in runs[1:]:
        for got, want in zip(other, runs[0]):
            assert got.dtype == want.dtype and np.array_equal(got, want)
    delays, used, loads = runs[0]
    for i in range(trials):
        tr = simulate_trial(cfg, i)
        assert (tr.delay, tr.used_cloud, tr.load_nu) == (delays[i], used[i], loads[i])


def test_sweep_opens_one_bounded_pool(monkeypatch):
    # no process is started: the pool is replaced by an inline stand-in
    monkeypatch.setattr(geomsim.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    spec = SweepSpec(
        base=canonical_validation_scenario(),
        axis="lambda_hat",
        grid=(0.5, 1.0, 2.0, 4.0),
        outputs=("avg_mse", "cloud_use_prob", "delay_cdf_at"),
        sim=SimSettings(trials=5),
    )
    serial = run_sweep(spec)
    assert _InlinePool.sizes == []
    assert run_sweep(spec, workers=500) == serial
    assert _InlinePool.sizes == [3]


def test_failed_range_cancels_pending_ranges(monkeypatch):
    monkeypatch.setattr(geomsim.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _PendingPool)
    monkeypatch.setattr(_PendingPool, "sizes", [])
    monkeypatch.setattr(_PendingPool, "futures", [])
    with pytest.raises(ValueError, match="range failed"):
        geomsim._run_many([small_cfg(trials=8), small_cfg(trials=8)], workers=2)
    assert _PendingPool.sizes == [2]
    assert len(_PendingPool.futures) == 8
    assert all(f.cancelled() for f in _PendingPool.futures[1:])


def test_pool_opens_with_kd_tree_module_loaded(monkeypatch):
    # forked workers inherit the parent's modules: with SciPy's k-d tree
    # imported before the pool opens, no worker imports it again
    import scipy

    monkeypatch.delitem(sys.modules, "scipy.spatial")
    monkeypatch.delattr(scipy, "spatial")
    monkeypatch.setattr(geomsim.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _ImportRecordingPool)
    monkeypatch.setattr(_ImportRecordingPool, "sizes", [])
    monkeypatch.setattr(_ImportRecordingPool, "spatial_loaded", [])
    cfg = small_cfg(trials=4)
    assert run_trials(cfg, workers=2) == run_trials(cfg)
    assert _ImportRecordingPool.sizes == [2]
    assert _ImportRecordingPool.spatial_loaded == [True]
