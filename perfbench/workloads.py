"""The benchmark's four workloads.

Each workload builds its inputs from the benchmark seed, runs one timed pass
through the package's public API, and checks the outputs of its passes. The
statistical checks compare the simulator with the closed form using
tolerances derived from the analytic value and the trial count, at a
false-alarm probability of ``ALPHA`` per check, so a correct program fails
them on no seed the benchmark will plausibly see.

Importing this module puts the checkout's ``src`` first on ``sys.path`` and
refuses any other copy of the package: the benchmark measures the source
next to it, never an installed version.
"""

from __future__ import annotations

import io
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import edgeprovision  # noqa: E402
from edgeprovision import analytic, experiments, geomsim  # noqa: E402

if not Path(edgeprovision.__file__).resolve().is_relative_to(SRC.resolve()):
    raise ImportError(f"edgeprovision was imported from {edgeprovision.__file__}, not {SRC}")

ALPHA = 1e-7
# Variance of the typical device's cell load for mean excess m = 1.28/lambda_hat:
# a Poisson count over the size-biased Poisson-Voronoi cell, whose area is
# close to Gamma(4.5) (relative variance 1/4.5).
_SIZE_BIASED_SHAPE = 4.5


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def master_seed(seed: int) -> int:
    """Simulator master seed derived from the benchmark seed."""
    return int(np.random.SeedSequence(seed).generate_state(1)[0])


def binomial_ok(k: int, n: int, p: float, alpha: float) -> bool:
    """Two-sided exact binomial test of k successes in n trials against p."""
    from scipy.stats import binom

    return bool(binom.cdf(k, n, p) > alpha / 2 and binom.sf(k - 1, n, p) > alpha / 2)


def dkw_epsilon(n: int, alpha: float) -> float:
    """Dvoretzky-Kiefer-Wolfowitz bound on the KS distance of n samples."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def normal_z(alpha: float) -> float:
    from scipy.stats import norm

    return float(norm.isf(alpha / 2))


def rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _scenario_flags(s: analytic.Scenario) -> list[str]:
    w, d = s.workload, s.deployment
    return [
        "--lambda-ap", repr(d.lambda_ap), "--lambda-dev", repr(d.lambda_dev),
        "--q", repr(w.payload_bits), "--bandwidth", repr(s.air.bandwidth),
        "--dt", repr(w.delay_budget), "--dc", repr(w.compute_delay),
        "--mc", repr(w.mse_cloud), "--md", repr(w.mse_edge),
    ]


def _spec_yaml(s: analytic.Scenario, sweep: str) -> str:
    w = s.workload
    return (
        f"deployment: {{lambda_ap: {s.deployment.lambda_ap!r}, lambda_dev: {s.deployment.lambda_dev!r}}}\n"
        f"workload: {{q: {w.payload_bits!r}, d_t: {w.delay_budget!r}, d_c: {w.compute_delay!r}, "
        f"m_c: {w.mse_cloud!r}, m_d: {w.mse_edge!r}}}\n"
        f"air: {{b: {s.air.bandwidth!r}, snr: inf}}\n"
        f"sweep:\n{sweep}"
    )


def _sweep_bytes(res: experiments.SweepResult) -> bytes:
    buf = io.StringIO()
    experiments.emit_csv(res, buf)
    return buf.getvalue().encode()


class Workload:
    """One benchmark workload; subclasses fill in the pass and its checks."""

    name = ""
    workers = 1
    work_unit = "trials"

    def __init__(self, seed: int, workdir: Path):
        """Build the inputs from ``seed``, writing any files into ``workdir``."""
        raise NotImplementedError

    def run_pass(self):
        raise NotImplementedError

    def fingerprint(self, out) -> bytes:
        """Bytes that two passes with the same seed must reproduce exactly."""
        raise NotImplementedError

    def work_per_pass(self, out) -> int:
        raise NotImplementedError

    def check(self, out) -> list[Check]:
        raise NotImplementedError

    def cli_query(self, k: int) -> list[str]:
        """Arguments of the k-th cold CLI query of this workload."""
        raise NotImplementedError

    def check_cli(self, k: int, stdout: str) -> Check:
        raise NotImplementedError

    def label_config(self, cfg) -> str | None:
        """Per-layer label of a SimConfig this workload builds, if it has one."""
        return None

    def rows(self, out) -> list[experiments.SweepRow]:
        """Sweep rows of a pass output; empty for workloads without sweeps."""
        return []


class Validate(Workload):
    """``run_validation(workers=1)``: canonical torus scenario plus the three
    mean-load configurations; the single-process simulator baseline."""

    name = "validate"
    trials = 150

    def __init__(self, seed, workdir):
        self.sim_seed = master_seed(seed)
        self.scenario = geomsim.canonical_validation_scenario()

    def run_pass(self):
        return geomsim.run_validation(trials=self.trials, master_seed=self.sim_seed, workers=1)

    def fingerprint(self, report):
        return json.dumps(report, sort_keys=True).encode()

    def work_per_pass(self, report):
        return report["trials"] * (1 + len(report["checks"]["mean_load_rel_error"]))

    def check(self, report):
        n = report["trials"]
        c = report["checks"]
        w = self.scenario.workload
        p = analytic.cloud_use_probability(self.scenario)
        p_hat = c["cloud_use_abs_error"]["simulated"]
        ks, eps = c["delay_cdf_ks"]["value"], dkw_epsilon(n, ALPHA)
        mse_identity = w.mse_edge - (w.mse_edge - w.mse_cloud) * p_hat
        out = [
            Check("validate.delay_ks", ks <= eps, f"ks={ks:.4g} dkw={eps:.4g} n={n}"),
            Check(
                "validate.cloud_use",
                binomial_ok(round(p_hat * n), n, p, ALPHA),
                f"p_hat={p_hat:.4g} p={p:.4g} n={n}",
            ),
            Check(
                "validate.mse",
                rel_close(c["mse_abs_error"]["simulated"], mse_identity, 1e-12)
                and rel_close(c["mse_abs_error"]["analytic"], analytic.average_mse(self.scenario), 1e-12),
                f"mse={c['mse_abs_error']['simulated']:.6g}",
            ),
        ]
        z = normal_z(ALPHA)
        for key, lc in sorted(c["mean_load_rel_error"].items()):
            m = lc["analytic"] - 1.0
            tol = z * math.sqrt((m + m * m / _SIZE_BIASED_SHAPE) / n)
            err = abs(lc["simulated"] - lc["analytic"])
            out.append(Check(f"validate.mean_load.{key}", err <= tol, f"err={err:.4g} tol={tol:.4g}"))
        return out

    def cli_query(self, k):
        return ["cloud-prob", *_scenario_flags(self.scenario), "--json"]

    def check_cli(self, k, stdout):
        got = json.loads(stdout)["cloud_use_prob"]
        want = analytic.cloud_use_probability(self.scenario)
        return Check("cli.cloud-prob", rel_close(got, want, 1e-9), f"{got!r} vs {want!r}")

    def label_config(self, cfg):
        if cfg.window_radius == math.sqrt(50.0):
            return "canonical"
        return f"load_lh{cfg.scenario.deployment.lambda_hat:g}"


class DensitySweep(Workload):
    """``load_spec -> run_sweep(workers=2) -> emit_csv -> parse_csv`` over 31
    log-spaced lambda_hat points from 0.1 to 1000, with simulation."""

    name = "density_sweep"
    workers = 2
    trials = 64
    points = 31
    mse_target = 1.2
    delay_query = 0.08
    outputs = ("avg_mse", "cloud_use_prob", "delay_cdf_at", "critical_density")
    labels = {0: "lh_low", 15: "lh_mid", 30: "lh_high"}

    def __init__(self, seed, workdir):
        self.sim_seed = master_seed(seed)
        self.scenario = geomsim.canonical_validation_scenario()
        self.spec_path = workdir / "density_sweep.yaml"
        self.csv_path = workdir / "density_sweep.csv"
        self.spec_path.write_text(
            _spec_yaml(
                self.scenario,
                "  axis: lambda_hat\n"
                f"  range: {{lo: 0.1, hi: 1000.0, n: {self.points}, scale: log}}\n"
                f"  outputs: [{', '.join(self.outputs)}]\n"
                "  simulate: true\n"
                f"  sim: {{trials: {self.trials}, seed: {self.sim_seed}}}\n"
                f"  mse_target: {self.mse_target!r}\n"
                f"  delay_d: {self.delay_query!r}\n",
            ),
            encoding="utf-8",
        )
        self.cli_points = np.random.default_rng(seed).integers(0, self.points, size=8)
        self.grid = experiments.DEFAULT_LAMBDA_HAT_GRID

    def run_pass(self):
        spec = experiments.load_spec(self.spec_path)
        res = experiments.run_sweep(spec, workers=self.workers)
        experiments.emit_csv(res, self.csv_path)
        return res, experiments.parse_csv(self.csv_path)

    def fingerprint(self, out):
        return _sweep_bytes(out[0])

    def work_per_pass(self, out):
        return self.points * self.trials

    def rows(self, out):
        return list(out[0].rows)

    def check(self, out):
        res, parsed = out
        n = self.trials
        w = self.scenario.workload
        # Grid points share common random numbers, so bound the worst point
        # with a union bound over every point and simulated metric.
        alpha = ALPHA / (2 * self.points)
        worst = {"cloud_use_prob": [], "delay_cdf_at": []}
        identity_ok = True
        crit = set()
        for row in res.rows:
            if row.metric in worst:
                k = round(row.simulated * n)
                worst[row.metric].append(
                    (binomial_ok(k, n, row.analytic, alpha), row.axis_value, k, row.analytic)
                )
            elif row.metric == "avg_mse":
                p_row = next(
                    r for r in res.rows
                    if r.axis_value == row.axis_value and r.metric == "cloud_use_prob"
                )
                want = w.mse_edge - (w.mse_edge - w.mse_cloud) * p_row.simulated
                identity_ok &= rel_close(row.simulated, want, 1e-10)
            elif row.metric == "critical_density":
                crit.add(row.analytic)
        out = [Check("sweep.csv_roundtrip", parsed == res, f"{len(res.rows)} rows")]
        out.append(
            Check(
                "sweep.rows",
                len(res.rows) == self.points * len(self.outputs)
                and all(r.status == "ok" for r in res.rows),
                f"{len(res.rows)} rows",
            )
        )
        for metric, results in worst.items():
            bad = [r for r in results if not r[0]]
            out.append(
                Check(
                    f"sweep.{metric}",
                    len(results) == self.points and not bad,
                    f"{len(bad)} of {len(results)} points outside the binomial bound"
                    + (f", first at lambda_hat={bad[0][1]:g} k={bad[0][2]}/{n} p={bad[0][3]:.4g}" if bad else ""),
                )
            )
        out.append(Check("sweep.avg_mse_identity", identity_ok, "avg_mse = m_d - (m_d - m_c) p_hat"))
        lam_c = crit.pop() if len(crit) == 1 else math.nan
        ok = math.isfinite(lam_c)
        if ok:
            dep = analytic.DeploymentConfig(lambda_ap=lam_c, lambda_dev=self.scenario.deployment.lambda_dev)
            back = analytic.average_mse(replace(self.scenario, deployment=dep))
            ok = rel_close(back, self.mse_target, 1e-9)
        out.append(Check("sweep.critical_density_inverse", ok, f"lambda_c={lam_c!r}"))
        return out

    def _point_scenario(self, k):
        value = self.grid[self.cli_points[k % len(self.cli_points)]]
        dep = analytic.DeploymentConfig(lambda_ap=value, lambda_dev=1.0)
        return replace(self.scenario, deployment=dep)

    def cli_query(self, k):
        return ["avg-mse", *_scenario_flags(self._point_scenario(k)), "--json"]

    def check_cli(self, k, stdout):
        got = json.loads(stdout)["avg_mse"]
        want = analytic.average_mse(self._point_scenario(k))
        return Check("cli.avg-mse", rel_close(got, want, 1e-9), f"{got!r} vs {want!r}")

    def label_config(self, cfg):
        lh = cfg.scenario.deployment.lambda_hat
        for i, label in self.labels.items():
            if rel_close(lh, self.grid[i], 1e-9):
                return label
        return None


class ShadowedDisc(Workload):
    """``run_trials(workers=1)`` on a disc with 8 dB lognormal shadowing at
    lambda_hat = 1: the dense pathloss-matrix association path."""

    name = "shadowed_disc"
    trials = 100
    sigma_db = 8.0

    def __init__(self, seed, workdir):
        self.scenario = geomsim.canonical_validation_scenario()
        self.cfg = geomsim.SimConfig(
            scenario=self.scenario,
            window_radius=math.sqrt(150.0 / math.pi),
            trials=self.trials,
            master_seed=master_seed(seed),
            shadowing_sigma_db=self.sigma_db,
            boundary="disc",
        )

    def run_pass(self):
        return geomsim.run_trials(self.cfg, workers=1)

    def fingerprint(self, s):
        return repr(
            (s.delay_samples.sorted_samples.tobytes(), s.cloud_use_fraction, s.mse_estimate, s.mean_load, s.trial_count)
        ).encode()

    def work_per_pass(self, s):
        return s.trial_count

    def check(self, s):
        # Under full pathloss inversion, i.i.d. per-pair shadowing leaves the
        # SINR law of the closed form unchanged, so the closed form applies.
        n = s.trial_count
        w = self.scenario.workload
        p = analytic.cloud_use_probability(self.scenario)
        samples = s.delay_samples.sorted_samples
        return [
            Check("shadowed.trials", n == self.trials and samples.size == n, f"n={n}"),
            Check(
                "shadowed.cloud_use",
                binomial_ok(round(s.cloud_use_fraction * n), n, p, ALPHA),
                f"p_hat={s.cloud_use_fraction:.4g} p={p:.4g} n={n}",
            ),
            Check(
                "shadowed.mse_identity",
                rel_close(s.mse_estimate, w.mse_edge - (w.mse_edge - w.mse_cloud) * s.cloud_use_fraction, 1e-12),
                f"mse={s.mse_estimate:.6g}",
            ),
            Check(
                "shadowed.delays",
                bool(np.all(samples > w.compute_delay)) and s.mean_load >= 1.0,
                f"min delay={samples[0]:.4g} mean_load={s.mean_load:.4g}",
            ),
        ]

    def cli_query(self, k):
        return ["avg-mse", *_scenario_flags(self.scenario), "--json"]

    def check_cli(self, k, stdout):
        got = json.loads(stdout)["avg_mse"]
        want = analytic.average_mse(self.scenario)
        return Check("cli.avg-mse", rel_close(got, want, 1e-9), f"{got!r} vs {want!r}")

    def label_config(self, cfg):
        return "shadowed"


# Six base scenarios x four axes x all six metrics. The grids reach
# infeasible targets (below the asymptotic MSE, or under m_c) and zero
# critical density (target at or above m_d).
PROVISION_BASES = (
    # lambda_ap, lambda_dev, q, d_t, d_c, m_c, m_d, b
    (1.0, 1.0, 1.0e6, 0.06, 0.01, 1.0, 1.5, 1.6e8),
    (1.0, 1.0, 8.0e6, 0.06, 0.01, 1.0, 1.5, 1.6e8),
    (2.0, 1.0, 3.0e7, 0.06, 0.01, 1.0, 1.5, 1.6e8),
    (1.0, 4.0, 2.0e6, 0.05, 0.02, 0.5, 2.0, 1.0e8),
    (5.0, 10.0, 5.0e5, 0.02, 0.005, 2.0, 2.6, 2.0e8),
    (0.5, 2.0, 4.0e6, 0.1, 0.09, 1.0, 3.0, 1.0e9),
)
PROVISION_METRICS = experiments.METRICS


def provision_specs() -> list[tuple[str, str]]:
    """(name, YAML text) of every provision sweep, in reference order."""
    specs = []
    for i, (lap, ldev, q, dt, dc, mc, md, b) in enumerate(PROVISION_BASES):
        s = analytic.Scenario(
            deployment=analytic.DeploymentConfig(lap, ldev),
            workload=analytic.InferenceWorkload(q, dt, dc, mc, md),
            air=analytic.AirInterface(b),
        )
        target = mc + 0.4 * (md - mc)
        common = (
            f"  outputs: [{', '.join(PROVISION_METRICS)}]\n"
            "  simulate: false\n"
            f"  delay_d: {dc + 1.5 * (dt - dc)!r}\n"
        )
        axes = {
            "lambda_hat": "range: {lo: 0.01, hi: 1000.0, n: 31, scale: log}",
            "r_min": "range: {lo: 0.01, hi: 10.0, n: 31, scale: log}",
            "mse_target": f"range: {{lo: {0.9 * mc!r}, hi: {1.1 * md!r}, n: 31, scale: linear}}",
            "mse_edge_ratio": "range: {lo: 1.0, hi: 3.0, n: 31, scale: linear}",
        }
        for axis, rng in axes.items():
            extra = "" if axis == "mse_target" else f"  mse_target: {target!r}\n"
            specs.append(
                (f"base{i}.{axis}", _spec_yaml(s, f"  axis: {axis}\n  {rng}\n{common}{extra}"))
            )
    return specs


def read_reference(path: Path) -> dict[str, list[tuple]]:
    """Reference rows per spec name: (axis_value, metric, analytic, status)."""
    ref: dict[str, list[tuple]] = {}
    lines = path.read_text(encoding="utf-8").splitlines()
    for line in lines[1:]:
        name, value, metric, an, status = line.split(",")
        ref.setdefault(name, []).append((float(value), metric, float(an) if an else None, status))
    return ref


REFERENCE = Path(__file__).resolve().parent / "reference" / "provision.csv"


class Provision(Workload):
    """Analytic-only provisioning: ``run_sweep(simulate=false)`` over all four
    axes and six metrics for six base scenarios, with CSV round-trips, plus
    cold ``critical-density`` CLI queries. Never runs the simulator."""

    name = "provision"
    work_unit = "rows"

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        specs = provision_specs()
        self.paths = []
        for j in rng.permutation(len(specs)):
            name, text = specs[j]
            path = workdir / f"{name}.yaml"
            path.write_text(text, encoding="utf-8")
            self.paths.append((name, path, workdir / f"{name}.csv"))
        # Cold critical-density queries: positive rows of the mse_target
        # sweeps, asked at the exact grid value the reference was made from.
        ref = read_reference(REFERENCE)
        cases = []
        for i, base in enumerate(PROVISION_BASES):
            name = f"base{i}.mse_target"
            grid = experiments.load_spec(workdir / f"{name}.yaml").grid
            crit = [an for _, metric, an, status in ref[name] if metric == "critical_density"]
            cases += [(base, target, an) for target, an in zip(grid, crit) if an]
        self.cli_cases = [cases[j] for j in rng.choice(len(cases), size=8, replace=False)]

    def run_pass(self):
        out = []
        for name, spec_path, csv_path in self.paths:
            res = experiments.run_sweep(experiments.load_spec(spec_path))
            experiments.emit_csv(res, csv_path)
            out.append((name, res, experiments.parse_csv(csv_path)))
        return out

    def fingerprint(self, out):
        return b"".join(name.encode() + _sweep_bytes(res) for name, res, _ in out)

    def work_per_pass(self, out):
        return len(self.rows(out))

    def rows(self, out):
        return [r for _, res, _ in out for r in res.rows]

    def check(self, out):
        ref = read_reference(REFERENCE)
        mismatched = []
        roundtrip_ok = True
        infeasible = zero = 0
        for name, res, parsed in out:
            roundtrip_ok &= parsed == res
            got = [(r.axis_value, r.metric, r.analytic, r.status) for r in res.rows]
            want = ref.get(name, [])
            if len(got) != len(want):
                mismatched.append(f"{name}: {len(got)} rows vs {len(want)}")
                continue
            for g, r in zip(got, want):
                same = g[1] == r[1] and g[3] == r[3] and rel_close(g[0], r[0], 1e-9)
                same &= (g[2] is None and r[2] is None) or (
                    g[2] is not None and r[2] is not None and (g[2] == r[2] or rel_close(g[2], r[2], 1e-9))
                )
                if not same:
                    mismatched.append(f"{name}: {g} vs {r}")
            infeasible += sum(r.status == "infeasible" for r in res.rows)
            zero += sum(r.metric == "critical_density" and r.analytic == 0.0 for r in res.rows)
        return [
            Check("provision.reference", not mismatched and len(out) == len(ref),
                  f"{len(mismatched)} mismatches" + (f", first {mismatched[0]}" if mismatched else "")),
            Check("provision.csv_roundtrip", roundtrip_ok, f"{len(out)} sweeps"),
            Check("provision.regions", infeasible > 0 and zero > 0,
                  f"{infeasible} infeasible rows, {zero} zero-density rows"),
        ]

    def cli_query(self, k):
        (lap, ldev, q, dt, dc, mc, md, b), target, _ = self.cli_cases[k % len(self.cli_cases)]
        s = analytic.Scenario(
            deployment=analytic.DeploymentConfig(lap, ldev),
            workload=analytic.InferenceWorkload(q, dt, dc, mc, md),
            air=analytic.AirInterface(b),
        )
        return ["critical-density", *_scenario_flags(s), "--mt", repr(target), "--json"]

    def check_cli(self, k, stdout):
        got = json.loads(stdout)["lambda_c"]
        want = self.cli_cases[k % len(self.cli_cases)][2]
        return Check("cli.critical-density", rel_close(got, want, 1e-9), f"{got!r} vs {want!r}")


WORKLOADS = {w.name: w for w in (Validate, DensitySweep, ShadowedDisc, Provision)}
