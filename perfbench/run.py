"""Benchmark of the edgeprovision package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Workloads: ``validate``, ``density_sweep``,
``shadowed_disc`` and ``provision`` (see ``workloads.py`` and the README
next to this file).

With ``--trace 0`` the run times repeated passes of the workload for S
seconds with tracing off, times fresh-interpreter set-up and cold CLI
queries, checks every output, and reports the end-to-end metrics. With
``--trace 1`` it runs untraced passes for S/2 seconds, then traced passes
for S/2 seconds, then the count, pool and import probes, and reports the
per-layer metrics. Every run prints its metrics and checks as text, writes
a JSON record (and, traced, its spans) under ``.perfbench/runs/``, and ends
with one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench"
MIN_PASSES = 3
SETUP_SAMPLES = 7  # fresh-interpreter set-up samples per run
COLD_CLI_SAMPLES = 13  # cold CLI processes per run
CLI_SAMPLES = 3  # in-process cli.main calls per traced run
IMPORT_SAMPLES = 3
POOL_WORKERS = 2
SUBPROCESS_TIMEOUT_S = 120

END_TO_END = {"setup_s": "s", "wall_s": "s", "cli_query_s": "s", "peak_rss_mb": "MB"}
ANALYTIC_FUNCS = ("delay_cdf", "average_mse", "cloud_use_probability", "asymptotic_mse",
                  "critical_ap_density", "critical_edge_mse", "coverage_exponent_inverse")
SHARE_LAYERS = ("analytic", "numerics", "geomsim", "experiments")
# The per-layer metrics every workload reports, chosen as the ones an
# optimisation is most likely to move; a layer a workload does not exercise
# reads 0 calls or a 0 share. Workload-specific timings and counts (ms per
# trial, pool start-up, CSV, points per trial, ...) are printed and recorded.
PER_LAYER = {
    **{f"{m}.import_ms": "ms" for m in ("analytic", "geomsim", "experiments", "cli")},
    "cli.main.ms": "ms",
    "tracing.overhead_s": "s",
    **{f"{layer}.self_share": "ratio" for layer in SHARE_LAYERS},
    "geomsim.fill_shortfall": "count",
    "geomsim.inf_delay_trials": "count",
    **{f"analytic.{f}.calls": "count" for f in ANALYTIC_FUNCS},
    "numerics.bisect_root.calls": "count",
    "numerics.bisect_root.f_evals_per_call": "count",
    "numerics.RngStream.calls": "count",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def subprocess_env() -> dict[str, str]:
    paths = [str(ROOT / "src"), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def spawn(argv: list[str], must_succeed: bool = True) -> tuple[float, str, int]:
    """Run a fresh interpreter to completion; return (wall seconds, stdout, exit code)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=subprocess_env(),
                          capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if must_succeed and proc.returncode != 0:
        raise BenchError(f"{argv[:3]} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return wall, proc.stdout, proc.returncode


def cli_check(workloads, w, k: int, rc: int, stdout: str):
    """The workload's check of its k-th CLI answer; a failed or unreadable answer fails it."""
    try:
        c = w.check_cli(k, stdout)
    except (ValueError, KeyError) as e:
        return workloads.Check("cli", False, f"exit {rc}, unreadable output: {e!r}")
    return workloads.Check(c.name, c.ok and rc == 0, f"exit {rc}, {c.detail}")


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def timed_passes(w, seconds: float, tracer=None):
    """Repeat the workload's pass for ``seconds`` (at least MIN_PASSES times);
    return the pass times, the first output and every pass's fingerprint."""
    times, prints, first = [], [], None
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_PASSES or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.current_pass = len(times)
        t0 = time.perf_counter()
        out = w.run_pass()
        times.append(time.perf_counter() - t0)
        prints.append(digest(w.fingerprint(out)))
        first = out if first is None else first
    return times, first, prints


def digest(fingerprint: bytes) -> str:
    return hashlib.sha256(fingerprint).hexdigest()


def determinism_check(workloads, prints, label: str):
    same = sum(p == prints[0] for p in prints)
    return workloads.Check(label, same == len(prints),
                           f"{same} of {len(prints)} passes byte-identical to the first")


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "platform": platform.platform()}


def git_commit() -> str:
    """Commit of the checkout from its .git directory, or "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end_run(w, workloads, args, workdir: Path, raw: dict):
    """Passes fill the run; the set-up and CLI samples are spread evenly over
    it, so every metric sees the same stretch of machine time."""
    times, setup, cli, prints, checks = [], [], [], [], []
    first = None
    start = time.perf_counter()

    def due(done: int, total: int, elapsed: float) -> bool:
        return done < min(total, int(elapsed / args.seconds * total) + 1)

    while True:
        elapsed = time.perf_counter() - start
        if (elapsed >= args.seconds and len(times) >= MIN_PASSES
                and len(setup) == SETUP_SAMPLES and len(cli) == COLD_CLI_SAMPLES):
            break
        if due(len(setup), SETUP_SAMPLES, elapsed):
            sub = workdir / f"setup{len(setup)}"
            sub.mkdir()
            setup.append(spawn([str(BENCH / "probe.py"), "setup", w.name, str(args.seed), str(sub)])[0])
            continue
        if due(len(cli), COLD_CLI_SAMPLES, elapsed):
            wall, stdout, rc = spawn(["-m", "edgeprovision.cli", *w.cli_query(len(cli))], must_succeed=False)
            checks.append(cli_check(workloads, w, len(cli), rc, stdout))
            cli.append(wall)
            continue
        t0 = time.perf_counter()
        out = w.run_pass()
        times.append(time.perf_counter() - t0)
        prints.append(digest(w.fingerprint(out)))
        first = out if first is None else first
    checks = w.check(first) + [determinism_check(workloads, prints, "determinism")] + checks
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw.update(setup_s=setup, pass_s=times, cli_query_s=cli)
    samples = {"setup_s": setup, "wall_s": times, "cli_query_s": cli, "peak_rss_mb": [rss_mb]}
    work = w.work_per_pass(first)
    rate = "trials_per_s" if w.work_unit == "trials" else "evals_per_s"
    extra = {rate: work * len(times) / sum(times), f"{w.work_unit}_per_pass": work}
    return samples, extra, checks


def traced_run(w, workloads, args, raw: dict):
    import numpy as np
    import tracing

    half = args.seconds / 2.0
    untraced, first, prints = timed_passes(w, half)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, _, traced_prints = timed_passes(w, half, tracer=tracer)
        cfgs = list(dict.fromkeys(cfg for _, cfg, _ in tracer.sim_runs))
        probe_rows = tracing.count_probe(tracer, w, cfgs)
        tracer.current_pass = tracing.CLI_PASS
        cli_ms, cli_checks = [], []
        for k in range(CLI_SAMPLES):
            buf = io.StringIO()
            t0 = time.perf_counter()
            with redirect_stdout(buf):
                rc = tracing.cli.main(w.cli_query(k))
            cli_ms.append((time.perf_counter() - t0) * 1e3)
            cli_checks.append(cli_check(workloads, w, k, rc, buf.getvalue()))
    finally:
        tracer.uninstall()
    checks = w.check(first) + cli_checks + [
        determinism_check(workloads, prints + traced_prints, "determinism_traced"),
    ]
    pool = []
    if cfgs:
        pool, identical = tracing.pool_startup_probe(cfgs[0])
        checks.append(workloads.Check("workers_invariance", identical,
                                      f"2-trial run_trials, 1 vs {POOL_WORKERS} workers"))
    imports = [json.loads(spawn([str(BENCH / "probe.py"), "imports"])[1]) for _ in range(IMPORT_SAMPLES)]
    raw.update(untraced_pass_s=untraced, traced_pass_s=traced, cli_main_ms=cli_ms,
               pool_startup_ms=pool, import_ms=imports, probe_trials=probe_rows)

    layer = layer_metrics(w, tracing, tracer, traced, first, probe_rows)
    layer.update({f"{m}.import_ms": statistics.median(s[m] for s in imports) for m in imports[0]})
    layer["cli.main.ms"] = statistics.median(cli_ms)
    layer["tracing.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    if pool:
        layer["geomsim.pool_startup_ms"] = statistics.median(pool)
    spans = OUT / "runs" / f"{run_stem(args)}-spans.npz"
    np.savez(spans, names=np.array(tracer.names), **tracer.arrays())
    raw["spans_file"] = str(spans.relative_to(ROOT))
    return layer, checks


def layer_metrics(w, tracing, tracer, traced_times, first, probe_rows) -> dict[str, float]:
    """Per-layer metrics from the traced passes and the probes."""
    npass = len(traced_times)
    ids = range(npass)
    agg = tracer.aggregate(ids)
    pass_s = sum(traced_times)
    m: dict[str, float] = {}
    for layer in SHARE_LAYERS:
        own = sum(a["self_s"] for name, a in agg.items() if name.startswith(layer + "."))
        m[f"{layer}.self_share"] = own / pass_s
    for f in ANALYTIC_FUNCS:
        a = agg.get(f"analytic.{f}")
        m[f"analytic.{f}.calls"] = a["calls"] / npass if a else 0
        if a:
            m[f"analytic.{f}.us_self"] = a["self_s"] / a["calls"] * 1e6
    a = agg.get("numerics.bisect_root")
    m["numerics.bisect_root.calls"] = a["calls"] / npass if a else 0
    m["numerics.bisect_root.f_evals_per_call"] = (
        sum(tracer.bisect_f_evals.get(i, 0) for i in ids) / a["calls"] if a else 0)
    if a:
        m["numerics.bisect_root.us_per_call"] = a["total_s"] / a["calls"] * 1e6

    # Trials of density_sweep run in worker processes, so its stream counts
    # come from the count probe, which runs in this process.
    rng_src, geom_key, per = agg, "geomsim.run_trials", npass
    if "numerics.RngStream" not in agg:
        rng_src, geom_key, per = tracer.aggregate([tracing.PROBE_PASS]), "geomsim.simulate_trial", 1
    rng = rng_src.get("numerics.RngStream")
    m["numerics.RngStream.calls"] = rng["calls"] / per if rng else 0
    if rng:
        draws = rng_src.get("numerics.RngStream.draw", {"calls": 0, "total_s": 0.0})
        m["numerics.RngStream.us_per_call"] = rng["total_s"] / rng["calls"] * 1e6
        m["numerics.RngStream.draw.us_per_call"] = draws["total_s"] / max(draws["calls"], 1) * 1e6
        m["numerics.RngStream.share"] = (rng["total_s"] + draws["total_s"]) / rng_src[geom_key]["total_s"]

    arrays = tracer.arrays()
    runs = [(i, cfg, inf) for i, cfg, inf in tracer.sim_runs if arrays["pass_id"][i] >= 0]
    m["geomsim.inf_delay_trials"] = sum(inf for _, _, inf in runs) / npass
    per_label: dict[str, list[float]] = {}
    for i, cfg, _ in runs:
        label = w.label_config(cfg)
        if label is not None:
            dur = arrays["end"][i] - arrays["start"][i]
            per_label.setdefault(label, []).append(dur / cfg.trials * 1e3)
    for label, ms in per_label.items():
        m[f"geomsim.ms_per_trial.{label}"] = statistics.fmean(ms)
    if probe_rows:
        trial_ms = sorted(r["ms"] for r in probe_rows)
        q = statistics.quantiles(trial_ms, n=10)
        m["geomsim.trial_ms.p50"] = statistics.median(trial_ms)
        m["geomsim.trial_ms.p90"] = q[8]
        m.update(tracing.summarize_counts(probe_rows))
        for label in sorted({r["label"] for r in probe_rows if r["label"]}):
            m.update(tracing.summarize_counts([r for r in probe_rows if r["label"] == label], "." + label))
        m["geomsim.probe_trials"] = len(probe_rows)
    ks = agg.get("geomsim.delay_ks_statistic")
    if ks:
        m["geomsim.delay_ks_statistic.ms"] = ks["total_s"] / ks["calls"] * 1e3
        m["geomsim.delay_ks_statistic.share"] = ks["total_s"] / pass_s

    rows = w.rows(first)
    m["experiments.rows"] = len(rows)
    m["experiments.infeasible_rows"] = sum(r.status == "infeasible" for r in rows)
    for name in ("load_spec", "emit_csv", "parse_csv"):
        a = agg.get(f"experiments.{name}")
        if a:
            m[f"experiments.{name}.ms"] = a["total_s"] / a["calls"] * 1e3
    a = agg.get("experiments.run_sweep")
    if a:
        m["experiments.run_sweep.self_s"] = a["self_s"] / npass
    # Counts and shares of a layer the workload does not exercise read 0.
    for k, unit in PER_LAYER.items():
        if unit in ("count", "ratio"):
            m.setdefault(k, 0)
    return m


def run_stem(args) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"


def fmt(v: float) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        import workloads
    except ImportError as e:
        print(f"error: cannot import the package from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    w_cls = workloads.WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    needed = max(w_cls.workers, POOL_WORKERS if args.trace and w_cls.work_unit == "trials" else 1)
    if needed > nproc:
        print(f"error: {args.workload} needs {needed} worker processes but only {nproc} CPUs are "
              "available", file=sys.stderr)
        return 2

    (OUT / "runs").mkdir(parents=True, exist_ok=True)
    (OUT / "work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT / "work"))
    raw: dict = {}
    try:
        w = w_cls(args.seed, workdir)
        if args.trace:
            layer, checks = traced_run(w, workloads, args, raw)
            metrics, units = {k: layer[k] for k in PER_LAYER}, PER_LAYER
            extra = {k: v for k, v in layer.items() if k not in PER_LAYER}
        else:
            samples, extra, checks = end_to_end_run(w, workloads, args, workdir, raw)
            metrics, units = {k: statistics.median(v) for k, v in samples.items()}, END_TO_END
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not c.ok for c in checks)
    extra["failed_frac"] = failed / len(checks)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    if args.trace:
        print(f"# {len(raw['traced_pass_s'])} traced and {len(raw['untraced_pass_s'])} untraced passes, "
              f"{len(raw['probe_trials'])} probe trials, {IMPORT_SAMPLES} import and "
              f"{CLI_SAMPLES} cli.main samples")
        for name, value in metrics.items():
            print(f"{name} = {fmt(value)} {units[name]}")
    else:
        for name, xs in samples.items():
            q1, _, q3 = quartiles(xs)
            print(f"{name} = {fmt(metrics[name])} {units[name]} "
                  f"(median of n={len(xs)}; q1 {fmt(q1)}, q3 {fmt(q3)})")
    for name, value in extra.items():
        print(f"  {name} = {fmt(value)}")
    print(f"  checks: {len(checks)} attempted, {failed} failed")
    for c in checks:
        print(f"check {c.name}: {'PASS' if c.ok else 'FAIL'} ({c.detail})")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "commit": git_commit(), "machine": machine_info(),
        "trials": getattr(w, "trials", None), "sim_seed": getattr(w, "sim_seed", None),
        "metrics": metrics, "extra": extra,
        "checks": [c.__dict__ for c in checks], "raw": raw,
    }
    (OUT / "runs" / f"{run_stem(args)}.json").write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(checks), "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
