"""Command-line interface.

One subcommand per provisioning question (closed-form metrics, target
inversions), plus ``simulate`` for a Monte Carlo run, ``sweep`` for CSV
parameter sweeps driven by a spec file, and ``validate`` for the
simulation-vs-model agreement checks.

Exit codes: 0 success, 2 bad usage or invalid parameters, 3 infeasible
accuracy target, 4 I/O failure. ``validate`` exits 1 when any agreement
check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .analytic import (
    AirInterface,
    DeploymentConfig,
    InferenceWorkload,
    Scenario,
    asymptotic_mse,
    average_mse,
    cloud_use_probability,
    critical_ap_density,
    critical_edge_mse,
    delay_cdf,
)
from .errors import (
    InfeasibleTargetError,
    ModelDomainError,
    SpecFileError,
    SpecValidationError,
)
from .experiments import emit_csv, load_spec, run_sweep
from .geomsim import (
    CANONICAL_SEED,
    SimConfig,
    _auto_radius,
    run_trials,
    run_validation,
)

__all__ = ["main"]

_REL_TOL = 1e-9


def _snr_type(s: str) -> float:
    if s.strip().lower() in ("inf", "infinite"):
        return math.inf
    return float(s)


def _positive_int(s: str) -> int:
    v = int(s)
    if v < 1:
        raise ValueError(f"must be >= 1 (got {s})")
    return v


def _build_parser() -> argparse.ArgumentParser:
    scenario = argparse.ArgumentParser(add_help=False)
    g = scenario.add_argument_group("scenario")
    g.add_argument("--lambda-ap", type=float, default=None, help="AP density (per unit area)")
    g.add_argument("--lambda-dev", type=float, default=None, help="device density")
    g.add_argument("--lambda-hat", type=float, default=None, help="AP/device density ratio")
    g.add_argument("--q", type=float, default=None, help="payload size in bits")
    g.add_argument("--bandwidth", type=float, default=None, help="bandwidth in Hz (default 1)")
    g.add_argument("--dt", type=float, default=None, help="total delay budget in s (default 1)")
    g.add_argument("--dc", type=float, default=None, help="cloud compute delay in s (default 0)")
    g.add_argument(
        "--rmin",
        type=float,
        default=None,
        help="minimum spectral efficiency q/(b*(dt-dc)); alternative to --q",
    )
    g.add_argument("--mc", type=float, default=None, help="cloud-model MSE (default 1)")
    g.add_argument("--md", type=float, default=None, help="edge-model MSE (default 1.5*mc)")
    g.add_argument(
        "--snr",
        type=_snr_type,
        default=None,
        help='transmit SNR (linear); "inf" for interference-limited (default)',
    )

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--json", action="store_true", help="emit JSON instead of text")

    sim = argparse.ArgumentParser(add_help=False)
    sim.add_argument("--trials", type=_positive_int, default=None, help="Monte Carlo trials")
    sim.add_argument(
        "--seed",
        type=int,
        default=None,
        help="master seed (falls back to $EDGEPROVISION_SEED, then the built-in default)",
    )
    sim.add_argument("--window-radius", type=float, default=None, help="simulation window radius")
    sim.add_argument("--workers", type=_positive_int, default=1, help="worker processes")

    p = argparse.ArgumentParser(
        prog="edgeprovision",
        description="Provisioning calculator for distributed edge/cloud inference "
        "over a random cellular deployment.",
    )
    sub = p.add_subparsers(dest="command", metavar="command")
    sub.required = True

    s = sub.add_parser(
        "avg-mse", parents=[scenario, output], help="average inference MSE of the deployment"
    )
    s.set_defaults(func=_cmd_avg_mse)

    s = sub.add_parser(
        "asymptotic-mse",
        parents=[scenario, output],
        help="best MSE reachable by densifying APs without bound",
    )
    s.set_defaults(func=_cmd_asymptotic_mse)

    s = sub.add_parser(
        "delay-cdf",
        parents=[scenario, output],
        help="probability that the end-to-end cloud delay is at most d",
    )
    s.add_argument("--d", type=float, required=True, help="delay value to query in s")
    s.set_defaults(func=_cmd_delay_cdf)

    s = sub.add_parser(
        "cloud-prob",
        parents=[scenario, output],
        help="probability that cloud output meets the delay budget",
    )
    s.set_defaults(func=_cmd_cloud_prob)

    s = sub.add_parser(
        "critical-density",
        parents=[scenario, output],
        help="minimum AP density achieving a target average MSE",
    )
    s.add_argument("--mt", type=float, required=True, help="target average MSE")
    s.set_defaults(func=_cmd_critical_density)

    s = sub.add_parser(
        "critical-edge-mse",
        parents=[scenario, output],
        help="worst edge-model MSE still achieving a target average MSE",
    )
    s.add_argument("--mt", type=float, required=True, help="target average MSE")
    s.set_defaults(func=_cmd_critical_edge)

    s = sub.add_parser(
        "simulate",
        parents=[scenario, sim, output],
        help="Monte Carlo estimate of delay/MSE for one scenario",
    )
    s.set_defaults(func=_cmd_simulate)

    s = sub.add_parser("sweep", parents=[output], help="run a sweep from a spec file")
    s.add_argument("--spec", required=True, help="path to the sweep spec file (YAML)")
    s.add_argument("--out", default=None, help="write output to this path instead of stdout")
    s.add_argument("--csv", action="store_true", help="emit CSV (the default)")
    s.add_argument("--workers", type=_positive_int, default=1, help="worker processes")
    s.set_defaults(func=_cmd_sweep)

    s = sub.add_parser(
        "validate",
        parents=[sim, output],
        help="check the simulator against the closed-form model",
    )
    s.set_defaults(func=_cmd_validate)

    return p


# ---------------------------------------------------------------------------
# Scenario assembly
# ---------------------------------------------------------------------------


def _mismatch(a: float, b: float) -> bool:
    return abs(a - b) > _REL_TOL * max(abs(a), abs(b), 1.0)


def _resolve_densities(args) -> DeploymentConfig:
    ap, dev, hat = args.lambda_ap, args.lambda_dev, args.lambda_hat
    if hat is not None and ap is not None and dev is not None:
        if _mismatch(hat, ap / dev):
            raise ModelDomainError(
                f"--lambda-hat {hat:g} conflicts with --lambda-ap/--lambda-dev "
                f"ratio {ap / dev:g}"
            )
    elif hat is not None and ap is not None:
        dev = ap / hat
    elif hat is not None:
        dev = dev if dev is not None else 1.0
        ap = hat * dev
    else:
        dev = dev if dev is not None else 1.0
        ap = ap if ap is not None else dev
    return DeploymentConfig(lambda_ap=ap, lambda_dev=dev)


def _resolve_scenario(args) -> Scenario:
    dep = _resolve_densities(args)
    b = args.bandwidth if args.bandwidth is not None else 1.0
    dt = args.dt if args.dt is not None else 1.0
    dc = args.dc if args.dc is not None else 0.0
    mc = args.mc if args.mc is not None else 1.0
    md = args.md if args.md is not None else 1.5 * mc
    snr = args.snr if args.snr is not None else math.inf
    if args.q is not None and args.rmin is not None:
        implied = args.rmin * b * (dt - dc)
        if _mismatch(args.q, implied):
            raise ModelDomainError(
                f"--q {args.q:g} conflicts with --rmin {args.rmin:g} "
                f"(implies q = {implied:g})"
            )
        q = args.q
    elif args.q is not None:
        q = args.q
    else:
        rmin = args.rmin if args.rmin is not None else 1.0
        q = rmin * b * (dt - dc)
    return Scenario(
        deployment=dep,
        workload=InferenceWorkload(
            payload_bits=q,
            delay_budget=dt,
            compute_delay=dc,
            mse_cloud=mc,
            mse_edge=md,
        ),
        air=AirInterface(bandwidth=b, snr=snr),
    )


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("EDGEPROVISION_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ModelDomainError(
                f"EDGEPROVISION_SEED must be an integer (got {env!r})"
            ) from None
    return CANONICAL_SEED


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_avg_mse(args) -> int:
    v = average_mse(_resolve_scenario(args))
    _emit(args, {"avg_mse": v}, [f"avg_mse = {v:.10g}"])
    return 0


def _cmd_asymptotic_mse(args) -> int:
    s = _resolve_scenario(args)
    v = asymptotic_mse(s.workload, s.air)
    _emit(args, {"asymptotic_mse": v}, [f"asymptotic_mse = {v:.10g}"])
    return 0


def _cmd_delay_cdf(args) -> int:
    v = delay_cdf(_resolve_scenario(args), args.d)
    _emit(
        args,
        {"d": args.d, "delay_cdf_at": v},
        [f"P(delay <= {args.d:g}) = {v:.10g}"],
    )
    return 0


def _cmd_cloud_prob(args) -> int:
    v = cloud_use_probability(_resolve_scenario(args))
    _emit(args, {"cloud_use_prob": v}, [f"cloud_use_prob = {v:.10g}"])
    return 0


def _cmd_critical_density(args) -> int:
    s = _resolve_scenario(args)
    v = critical_ap_density(s.workload, s.air, s.deployment.lambda_dev, args.mt)
    _emit(args, {"lambda_c": v}, [f"lambda_c = {v:.10g}"])
    return 0


def _cmd_critical_edge(args) -> int:
    s = _resolve_scenario(args)
    v = critical_edge_mse(s, args.mt)
    _emit(args, {"critical_edge_mse": v}, [f"critical_edge_mse = {v:.10g}"])
    return 0


def _quantile(sorted_vals, q: float) -> float:
    idx = min(len(sorted_vals) - 1, int(q * len(sorted_vals)))
    return float(sorted_vals[idx])


def _cmd_simulate(args) -> int:
    scenario = _resolve_scenario(args)
    trials = args.trials if args.trials is not None else 2000
    radius = args.window_radius
    if radius is None:
        radius = _auto_radius(scenario.deployment, "torus")
    cfg = SimConfig(
        scenario=scenario,
        window_radius=radius,
        trials=trials,
        master_seed=_resolve_seed(args),
    )
    summary = run_trials(cfg, workers=args.workers)
    samples = summary.delay_samples.sorted_samples
    quantiles = {
        f"p{int(100 * q)}": (lambda v: v if math.isfinite(v) else None)(
            _quantile(samples, q)
        )
        for q in (0.1, 0.5, 0.9)
    }
    payload = {
        "trials": summary.trial_count,
        "seed": cfg.master_seed,
        "window_radius": cfg.window_radius,
        "cloud_use_fraction": summary.cloud_use_fraction,
        "mse_estimate": summary.mse_estimate,
        "mean_load": summary.mean_load,
        "delay_quantiles": quantiles,
        "analytic": {
            "cloud_use_prob": cloud_use_probability(scenario),
            "avg_mse": average_mse(scenario),
        },
    }
    lines = [
        f"trials = {summary.trial_count}",
        f"seed = {cfg.master_seed}",
        f"window_radius = {cfg.window_radius:.10g}",
        f"cloud_use_fraction = {summary.cloud_use_fraction:.10g}"
        f"  (analytic {payload['analytic']['cloud_use_prob']:.10g})",
        f"mse_estimate = {summary.mse_estimate:.10g}"
        f"  (analytic {payload['analytic']['avg_mse']:.10g})",
        f"mean_load = {summary.mean_load:.10g}",
        "delay_quantiles = "
        + ", ".join(
            f"{k}: {'inf' if v is None else format(v, '.6g')}"
            for k, v in quantiles.items()
        ),
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_sweep(args) -> int:
    spec = load_spec(args.spec)
    result = run_sweep(spec, workers=args.workers)
    if args.json:
        payload = {
            "axis": result.axis,
            "rows": [
                {
                    "axis_value": r.axis_value,
                    "metric": r.metric,
                    "analytic": r.analytic,
                    "simulated": r.simulated,
                    "sim_stderr": r.sim_stderr,
                    "status": r.status,
                }
                for r in result.rows
            ],
        }
        text = json.dumps(payload, sort_keys=True)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            print(text)
    elif args.out:
        emit_csv(result, args.out)
    else:
        emit_csv(result, sys.stdout)
    return 0


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, float) and not math.isfinite(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def _cmd_validate(args) -> int:
    kwargs = {}
    if args.trials is not None:
        kwargs["trials"] = args.trials
    if args.window_radius is not None:
        kwargs["window_radius"] = args.window_radius
    report = run_validation(
        master_seed=_resolve_seed(args), workers=args.workers, **kwargs
    )
    if args.json:
        print(json.dumps(_jsonable(report), sort_keys=True))
    else:
        checks = report["checks"]
        print(
            f"validation: trials={report['trials']} seed={report['master_seed']} "
            f"window_radius={report['window_radius']:.6g}"
        )
        for name in ("delay_cdf_ks", "cloud_use_abs_error", "mse_abs_error"):
            c = checks[name]
            verdict = "PASS" if c["pass"] else "FAIL"
            print(
                f"  {name}: {c['value']:.6g} (tolerance {c['tolerance']:.6g}) {verdict}"
            )
        for key, c in sorted(checks["mean_load_rel_error"].items()):
            verdict = "PASS" if c["pass"] else "FAIL"
            print(
                f"  mean_load_rel_error[{key}]: {c['value']:.6g} "
                f"(tolerance {c['tolerance']:.6g}) {verdict}"
            )
        print("overall: " + ("PASS" if report["pass"] else "FAIL"))
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
        return args.func(args)
    except InfeasibleTargetError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ModelDomainError, SpecValidationError, SpecFileError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
