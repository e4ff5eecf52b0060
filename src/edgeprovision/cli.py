"""Command-line interface.

One subcommand per provisioning question (closed-form metrics, target
inversions), plus ``simulate`` for a Monte Carlo run, ``sweep`` for CSV
parameter sweeps driven by a spec file, and ``validate`` for the
simulation-vs-model agreement checks.

Exit codes: 0 success, 2 bad usage or invalid parameters, 3 infeasible
accuracy target, 4 I/O failure. ``validate`` exits 1 when any agreement
check fails.

The closed-form subcommands load only the standard library: the simulator
(NumPy, SciPy) and the spec reader (YAML) are imported by the subcommands
that run them.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from .analytic import (
    AirInterface,
    DeploymentConfig,
    InferenceWorkload,
    Scenario,
    _CLOSED_FORMS,
    _DEFAULT_EDGE_RATIO,
    _payload,
    _require_finite,
    _snr_type,
    average_mse,
    cloud_use_probability,
)
from .errors import (
    InfeasibleTargetError,
    ModelDomainError,
    SpecFileError,
    SpecValidationError,
)

__all__ = ["main"]

_REL_TOL = 1e-9

# Closed-form command -> (metric, help, query flag or None, JSON key). A
# query flag is required; ``--mt`` is the metric's target MSE and ``--d``
# its delay.
_CLOSED_FORM_COMMANDS = {
    "avg-mse": ("avg_mse", "average inference MSE of the deployment", None, "avg_mse"),
    "asymptotic-mse": (
        "asymptotic_mse",
        "best MSE reachable by densifying APs without bound",
        None,
        "asymptotic_mse",
    ),
    "delay-cdf": (
        "delay_cdf_at",
        "probability that the end-to-end cloud delay is at most d",
        "--d",
        "delay_cdf_at",
    ),
    "cloud-prob": (
        "cloud_use_prob",
        "probability that cloud output meets the delay budget",
        None,
        "cloud_use_prob",
    ),
    "critical-density": (
        "critical_density",
        "minimum AP density achieving a target average MSE",
        "--mt",
        "lambda_c",
    ),
    "critical-edge-mse": (
        "critical_edge_mse",
        "worst edge-model MSE still achieving a target average MSE",
        "--mt",
        "critical_edge_mse",
    ),
}
_QUERY_FLAG_HELP = {"--d": "delay value to query in s", "--mt": "target average MSE"}


def _build_parser() -> argparse.ArgumentParser:
    scenario = argparse.ArgumentParser(add_help=False)
    g = scenario.add_argument_group("scenario")
    g.add_argument("--lambda-ap", type=float, default=None, help="AP density (per unit area)")
    g.add_argument("--lambda-dev", type=float, default=None, help="device density")
    g.add_argument("--lambda-hat", type=float, default=None, help="AP/device density ratio")
    g.add_argument("--q", type=float, default=None, help="payload size in bits")
    g.add_argument(
        "--bandwidth", type=float, default=1.0, help="bandwidth in Hz (default %(default)g)"
    )
    g.add_argument(
        "--dt", type=float, default=1.0, help="total delay budget in s (default %(default)g)"
    )
    g.add_argument(
        "--dc", type=float, default=0.0, help="cloud compute delay in s (default %(default)g)"
    )
    g.add_argument(
        "--rmin",
        type=float,
        default=None,
        help="minimum spectral efficiency q/(b*(dt-dc)); alternative to --q",
    )
    g.add_argument("--mc", type=float, default=1.0, help="cloud-model MSE (default %(default)g)")
    g.add_argument(
        "--md",
        type=float,
        default=None,
        help=f"edge-model MSE (default {_DEFAULT_EDGE_RATIO:g}*mc)",
    )
    g.add_argument(
        "--snr",
        type=_snr_type,
        default=math.inf,
        help='transmit SNR (linear); "inf" for interference-limited (default)',
    )

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--json", action="store_true", help="emit JSON instead of text")

    sim = argparse.ArgumentParser(add_help=False)
    sim.add_argument("--trials", type=int, default=None, help="Monte Carlo trials")
    sim.add_argument(
        "--seed",
        type=int,
        default=None,
        help="master seed (falls back to $EDGEPROVISION_SEED, then the built-in default)",
    )
    sim.add_argument("--window-radius", type=float, default=None, help="simulation window radius")
    sim.add_argument("--workers", type=int, default=1, help="worker processes")

    p = argparse.ArgumentParser(
        prog="edgeprovision",
        description="Provisioning calculator for distributed edge/cloud inference "
        "over a random cellular deployment.",
    )
    sub = p.add_subparsers(dest="command", metavar="command")
    sub.required = True

    for command, (_, help_text, flag, _) in _CLOSED_FORM_COMMANDS.items():
        s = sub.add_parser(command, parents=[scenario, output], help=help_text)
        if flag is not None:
            s.add_argument(flag, type=float, required=True, help=_QUERY_FLAG_HELP[flag])
        s.set_defaults(func=_cmd_closed_form)

    s = sub.add_parser(
        "simulate",
        parents=[scenario, sim, output],
        help="Monte Carlo estimate of delay/MSE for one scenario",
    )
    s.set_defaults(func=_cmd_simulate)

    s = sub.add_parser("sweep", help="run a sweep from a spec file")
    s.add_argument("--spec", required=True, help="path to the sweep spec file (YAML)")
    s.add_argument("--out", default=None, help="write output to this path instead of stdout")
    fmt = s.add_mutually_exclusive_group()
    fmt.add_argument("--csv", action="store_true", help="emit CSV (the default)")
    fmt.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    s.add_argument("--workers", type=int, default=1, help="worker processes")
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
    if hat is not None:
        _require_finite("--lambda-hat", hat)
    if dev is None:
        dev = ap / hat if ap is not None and hat is not None else 1.0
    if ap is None:
        ap = dev if hat is None else hat * dev
    dep = DeploymentConfig(lambda_ap=ap, lambda_dev=dev)
    if hat is not None and _mismatch(hat, dep.lambda_hat):
        raise ModelDomainError(
            f"--lambda-hat {hat:g} conflicts with --lambda-ap/--lambda-dev "
            f"ratio {dep.lambda_hat:g}"
        )
    return dep


def _resolve_scenario(args) -> Scenario:
    dep = _resolve_densities(args)
    b, dt, dc, mc = args.bandwidth, args.dt, args.dc, args.mc
    md = args.md if args.md is not None else _DEFAULT_EDGE_RATIO * mc
    q, rmin = args.q, args.rmin
    if rmin is not None:
        _require_finite("--rmin", rmin)
    if q is None:
        q = _payload(1.0 if rmin is None else rmin, b, dt, dc)
    elif rmin is not None:
        implied = _payload(rmin, b, dt, dc)
        if _mismatch(q, implied):
            raise ModelDomainError(
                f"--q {q:g} conflicts with --rmin {rmin:g} (implies q = {implied:g})"
            )
    return Scenario(
        deployment=dep,
        workload=InferenceWorkload(
            payload_bits=q,
            delay_budget=dt,
            compute_delay=dc,
            mse_cloud=mc,
            mse_edge=md,
        ),
        air=AirInterface(bandwidth=b, snr=args.snr),
    )


def _resolve_seed(args) -> int:
    from .geomsim import CANONICAL_SEED

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


def _cmd_closed_form(args) -> int:
    metric, _, flag, key = _CLOSED_FORM_COMMANDS[args.command]
    mt, d = getattr(args, "mt", None), getattr(args, "d", None)
    v = _CLOSED_FORMS[metric](_resolve_scenario(args), mt, d)
    if flag == "--d":
        _emit(args, {"d": d, key: v}, [f"P(delay <= {d:g}) = {v:.10g}"])
    else:
        _emit(args, {key: v}, [f"{key} = {v:.10g}"])
    return 0


def _quantile(sorted_vals, q: float) -> float:
    idx = min(len(sorted_vals) - 1, int(q * len(sorted_vals)))
    return float(sorted_vals[idx])


def _cmd_simulate(args) -> int:
    from .geomsim import SimConfig, SimSettings, run_trials

    scenario = _resolve_scenario(args)
    cfg = SimConfig(
        scenario=scenario,
        window_radius=args.window_radius,
        trials=SimSettings.trials if args.trials is None else args.trials,
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
    from .experiments import emit_csv, load_spec, run_sweep

    spec = load_spec(args.spec)
    result = run_sweep(spec, workers=args.workers)
    if args.json:
        text = json.dumps(dataclasses.asdict(result), sort_keys=True)
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


def _cmd_validate(args) -> int:
    from .geomsim import _report_checks, run_validation

    kwargs = {} if args.trials is None else {"trials": args.trials}
    report = run_validation(
        master_seed=_resolve_seed(args),
        window_radius=args.window_radius,
        workers=args.workers,
        **kwargs,
    )
    lines = [
        f"validation: trials={report['trials']} seed={report['master_seed']} "
        f"window_radius={report['window_radius']:.6g}"
    ]
    for label, c in _report_checks(report["checks"]):
        verdict = "PASS" if c["pass"] else "FAIL"
        lines.append(f"  {label}: {c['value']:.6g} (tolerance {c['tolerance']:.6g}) {verdict}")
    lines.append("overall: " + ("PASS" if report["pass"] else "FAIL"))
    _emit(args, report, lines)
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
