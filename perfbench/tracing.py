"""Tracing from outside the package, and the probes of the traced run.

``Tracer`` replaces each traced public name in every module namespace where
a caller looks it up (``experiments.run_trials``, ``geomsim.delay_cdf``,
``analytic.bisect_root``, ...) with a wrapper that records a span: name,
start, end, parent span and pass id. Spans stay in memory until the run
writes them out. A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from workloads import analytic, edgeprovision, experiments, geomsim

from edgeprovision import cli, numerics  # noqa: E402  (after the src path check)

LAYERS = {"analytic": analytic, "numerics": numerics, "geomsim": geomsim,
          "experiments": experiments, "cli": cli}
TRACED = {
    "analytic": ("delay_cdf", "average_mse", "cloud_use_probability", "asymptotic_mse",
                 "critical_ap_density", "critical_edge_mse", "coverage_exponent_inverse",
                 "mean_cell_load"),
    "numerics": ("bisect_root", "exponential_variate"),
    "geomsim": ("run_trials", "run_validation", "delay_ks_statistic", "simulate_trial"),
    "experiments": ("load_spec", "run_sweep", "emit_csv", "parse_csv"),
    "cli": ("main",),
}
NAMESPACES = (*LAYERS.values(), edgeprovision)
PROBE_PASS = -1
CLI_PASS = -2


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.pass_id: list[int] = []
        self.current_pass = PROBE_PASS
        self.bisect_f_evals: dict[int, int] = {}  # pass id -> f evaluations
        self.sim_runs: list[tuple[int, object, int]] = []  # (span, SimConfig, inf delays)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        clock, stack = time.perf_counter, self._stack
        span_name, start, end, parent, pass_id = (
            self.span_name, self.start, self.end, self.parent, self.pass_id)

        def traced(*args, **kwargs):
            i = len(start)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            pass_id.append(self.current_pass)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _replace(self, home, attr: str, new) -> None:
        orig = getattr(home, attr)
        for ns in NAMESPACES:
            if ns.__dict__.get(attr) is orig:
                self._saved.append((ns, attr, orig))
                setattr(ns, attr, new)

    def install(self) -> None:
        for layer, attrs in TRACED.items():
            home = LAYERS[layer]
            for attr in attrs:
                traced = self.wrap(f"{layer}.{attr}", getattr(home, attr))
                if attr == "bisect_root":
                    traced = self._count_f_evals(traced)
                elif attr == "run_trials":
                    traced = self._record_sim_run(traced)
                self._replace(home, attr, traced)
        self._replace(numerics, "RngStream", self._traced_rng_stream(numerics.RngStream))

    def uninstall(self) -> None:
        for ns, attr, orig in reversed(self._saved):
            setattr(ns, attr, orig)
        self._saved.clear()

    def _count_f_evals(self, traced_bisect):
        def bisect_root(f, lo, hi, tol):
            def counted(x):
                evals = self.bisect_f_evals
                evals[self.current_pass] = evals.get(self.current_pass, 0) + 1
                return f(x)
            return traced_bisect(counted, lo, hi, tol)
        return bisect_root

    def _record_sim_run(self, traced_run_trials):
        def run_trials(cfg, workers=1):
            i = len(self.start)
            summary = traced_run_trials(cfg, workers=workers)
            inf = int(np.count_nonzero(np.isinf(summary.delay_samples.sorted_samples)))
            self.sim_runs.append((i, cfg, inf))
            return summary
        return run_trials

    def _traced_rng_stream(self, base):
        draw = "numerics.RngStream.draw"
        return type("RngStream", (base,), {
            "__init__": self.wrap("numerics.RngStream", base.__init__),
            **{m: self.wrap(draw, getattr(base, m)) for m in ("uniform", "poisson", "integers", "normal")},
        })

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.asarray(self.span_name, dtype=np.int32),
            "start": np.asarray(self.start),
            "end": np.asarray(self.end),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "pass_id": np.asarray(self.pass_id, dtype=np.int32),
        }

    def aggregate(self, passes) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds over spans whose pass
        id is in ``passes``. Names sharing a label (e.g. the draws) merge."""
        a = self.arrays()
        n = a["name"].size
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child[:n]
        keep = np.isin(a["pass_id"], list(passes))
        out: dict[str, dict[str, float]] = {}
        for nid, label in enumerate(self.names):
            sel = keep & (a["name"] == nid)
            if not sel.any():
                continue
            agg = out.setdefault(label, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += int(sel.sum())
            agg["total_s"] += float(dur[sel].sum())
            agg["self_s"] += float(own[sel].sum())
        return out


def count_probe(tracer: Tracer, workload, cfgs, min_trials: int = 32):
    """Run ``simulate_trial`` on a fixed sample of indices of every SimConfig
    (at least 8 per config and ``min_trials`` in all) and derive per-trial
    counts from each realization (traced, probe pass)."""
    rows = []
    tracer.current_pass = PROBE_PASS
    per_config = max(8, -(-min_trials // max(len(cfgs), 1)))
    for cfg in cfgs:
        label = workload.label_config(cfg)
        for i in np.unique(np.linspace(0, cfg.trials - 1, per_config).astype(int)):
            t0 = time.perf_counter()
            r = geomsim.simulate_trial(cfg, int(i))
            ms = (time.perf_counter() - t0) * 1e3
            dev = r.dev_points[:, 0] + 1j * r.dev_points[:, 1]
            itf = r.interferer_set[:, 0] + 1j * r.interferer_set[:, 1]
            fill = int(np.count_nonzero(~np.isin(itf, dev)))
            aps = len(r.ap_points)
            rows.append({
                "label": label, "ms": ms, "aps": aps, "devices": len(r.dev_points),
                "scheduled": len(itf) - fill, "fill": fill, "interferers": len(itf),
                "shortfall": aps - 1 - len(itf),
            })
    return rows


def summarize_counts(rows, suffix: str = "") -> dict[str, float]:
    if not rows:
        return {}
    mean = lambda k: float(np.mean([r[k] for r in rows]))  # noqa: E731
    interferers = sum(r["interferers"] for r in rows)
    return {
        f"geomsim.aps_per_trial{suffix}": mean("aps"),
        f"geomsim.devices_per_trial{suffix}": mean("devices"),
        f"geomsim.scheduled_per_trial{suffix}": mean("scheduled"),
        f"geomsim.fill_per_trial{suffix}": mean("fill"),
        f"geomsim.fill_share{suffix}": sum(r["fill"] for r in rows) / interferers if interferers else 0.0,
        f"geomsim.fill_shortfall{suffix}": mean("shortfall"),
    }


def pool_startup_probe(cfg, reps: int = 3) -> tuple[list[float], bool]:
    """2-trial ``run_trials`` with 2 workers minus the same with 1 worker, in
    ms per repetition, and whether both summaries were identical."""
    small = replace(cfg, trials=2)
    diffs = []
    identical = True
    for _ in range(reps):
        t0 = time.perf_counter()
        one = geomsim.run_trials(small, workers=1)
        t1 = time.perf_counter()
        two = geomsim.run_trials(small, workers=2)
        t2 = time.perf_counter()
        identical &= one == two
        diffs.append(((t2 - t1) - (t1 - t0)) * 1e3)
    return diffs, identical
