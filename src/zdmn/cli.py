"""Command-line front end.

Subcommands:

* ``validate``  — check a network file's structural invariants
* ``feasible``  — delay-profile feasibility (one profile, or the full listing)
* ``bound``     — grid search of the per-cut outer bounds (text/CSV/JSON)
* ``simulate``  — Monte Carlo error estimation for a stored code on a network
* ``bscfb``     — the zero-delay masked-feedback scheme on the noisy-forward /
  noiseless-additive-feedback pair
* ``gaussian``  — relay-chain rate comparison, gate statistics, and the
  random-codebook experiment
* ``generate``  — write bundled network files or random table codes

Exit codes: 0 success; 1 domain violation (including a failed validation);
2 a file that cannot be read, parsed or written (argparse usage errors also exit with 2);
3 resource cap exceeded.  Identical (command, flags, seed) invocations
produce byte-identical output.  Numeric report fields use 6 decimal places.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

# bounds, simulate and gaussian are imported by the handlers that run them,
# so a command loads only the modules it uses
from . import model, networks
from .errors import DomainError, ResourceCapError, SpecIOError, ZdmnError

__all__ = ["main"]

EXIT_OK = 0
EXIT_DOMAIN = DomainError.exit_code
EXIT_IO = SpecIOError.exit_code
EXIT_CAP = ResourceCapError.exit_code


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _round6(x: float) -> float:
    return float(_fmt(x))


def _emit(text: str, out_path: Optional[str]) -> None:
    """Print to stdout, or write to a file when --out is given."""
    if out_path is None:
        sys.stdout.write(text)
    else:
        model.write_text(out_path, text, "output")


def _parse_profile(text: str, n_nodes: int) -> model.DelayProfile:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n_nodes or any(p not in ("0", "1") for p in parts):
        raise DomainError(
            f"profile must be {n_nodes} comma-separated 0/1 bits, got {text!r}"
        )
    return model.DelayProfile.of(int(p) for p in parts)


def _parse_cut(text: str, n_nodes: int) -> str:
    if (
        len(text) != n_nodes
        or any(c not in "01" for c in text)
        or text.count("1") == 0
        or text.count("0") == 0
    ):
        raise DomainError(
            f"cut must be a length-{n_nodes} bitmask of a proper nonempty subset, got {text!r}"
        )
    return text


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_validate(args: argparse.Namespace) -> int:
    spec = model.load_spec(args.spec)
    report = spec.validation
    if report.ok:
        print(f"spec OK: {spec.n_nodes} nodes, {spec.alpha} channels")
        return EXIT_OK
    print("spec INVALID:")
    for v in report.violations:
        print(f"- {v}")
    return EXIT_DOMAIN


def _cmd_feasible(args: argparse.Namespace) -> int:
    spec = model.load_spec(args.spec)
    model.require_valid(spec)
    if args.all:
        profiles = model.enumerate_feasible_profiles(spec)
        print(
            f"feasible profiles ({len(profiles)} of {2 ** spec.n_nodes} candidates):"
        )
        for p in profiles:
            print(",".join(str(b) for b in p))
        return EXIT_OK
    profile = _parse_profile(args.profile, spec.n_nodes)
    verdict = "feasible" if model.is_feasible(spec, profile) else "infeasible"
    print(f"profile {args.profile}: {verdict}")
    return EXIT_OK


def _cmd_bound(args: argparse.Namespace) -> int:
    from . import bounds

    spec = model.load_spec(args.spec)
    hull, n_points, _ = bounds.grid_hull(spec, args.mode, args.grid)
    rows = list(hull)
    if args.cut is not None:
        mask = _parse_cut(args.cut, spec.n_nodes)
        rows = [c for c in rows if c.cut.nodes.bitmask(spec.n_nodes) == mask]
    if args.format == "csv":
        n_terms = len(rows[0].per_channel_terms)
        header = "cut," + ",".join(f"term_{h}" for h in range(1, n_terms + 1)) + ",cap"
        body = [
            ",".join(
                [c.cut.nodes.bitmask(spec.n_nodes)]
                + [_fmt(t) for t in c.per_channel_terms]
                + [_fmt(c.cap)]
            )
            for c in rows
        ]
        _emit("\n".join([header] + body) + "\n", args.out)
    elif args.format == "json":
        payload = {
            "mode": args.mode,
            "grid_resolution": args.grid,
            "distributions": n_points,
            "hull": [
                {
                    "cut": c.cut.nodes.bitmask(spec.n_nodes),
                    "nodes": list(c.cut.nodes),
                    "terms": [_round6(t) for t in c.per_channel_terms],
                    "cap": _round6(c.cap),
                }
                for c in rows
            ],
        }
        _emit(json.dumps(payload, indent=1, sort_keys=True) + "\n", args.out)
    else:
        lines = [
            f"mode: {args.mode}",
            f"grid resolution: {args.grid}",
            f"distributions searched: {n_points}",
            "loose per-cut maxima (outer hull):",
        ]
        for c in rows:
            t_set = "{" + ",".join(str(i) for i in c.cut.nodes) + "}"
            terms = ", ".join(_fmt(t) for t in c.per_channel_terms)
            lines.append(
                f"cut {c.cut.nodes.bitmask(spec.n_nodes)} T={t_set}: "
                f"terms {terms}  cap {_fmt(c.cap)}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    from . import simulate

    spec = model.load_spec(args.spec)
    code = simulate.load_code(args.code)
    report = simulate.estimate_error(spec, code, trials=args.trials, seed=args.seed)
    if args.trace_out is not None:  # written first, so a failed write prints nothing
        trace = simulate.run_trial(spec, code, seed=args.seed, trial=0)
        _emit(trace.to_csv(), args.trace_out)
    print(f"trials: {args.trials}  seed: {args.seed}")
    print(report)
    return EXIT_OK


def _cmd_bscfb(args: argparse.Namespace) -> int:
    from . import simulate

    result = simulate.bscfb_scheme(
        eps=args.eps,
        n=args.n,
        forward_rate=args.rate,
        seed=args.seed,
        trials=args.trials,
    )
    print(f"eps: {_fmt(args.eps)}  n: {args.n}  forward bits: {result.forward_bits}")
    print(result)
    return EXIT_OK


def _cmd_gaussian(args: argparse.Namespace) -> int:
    from . import gaussian

    # every computation runs before the first print, so a failure prints nothing
    lines = [str(gaussian.separation_report(args.power, operating_rate=args.rate))]
    if args.experiment:
        config = gaussian.GaussianRelayConfig(
            P=args.power, n=args.n, seed=args.seed, delta=args.delta
        )
        open_rate = gaussian.neutralization_rate(config, blocks=args.blocks)
        result = gaussian.codebook_experiment(
            config, rate=args.rate, trials=args.trials, method=args.method
        )
        lines += [f"gate-open frequency:  {_fmt(open_rate)} ({args.blocks} blocks, n={args.n})",
                  str(result)]
    print("\n".join(lines))
    return EXIT_OK


def _cmd_generate_spec(args: argparse.Namespace) -> int:
    spec = networks.bundled_spec(args.name, eps=args.eps)
    model.save_spec(spec, args.out)
    print(f"wrote {args.name} network ({spec.n_nodes} nodes) to {args.out}")
    return EXIT_OK


def _cmd_generate_code(args: argparse.Namespace) -> int:
    from . import simulate

    spec = model.load_spec(args.spec)
    model.require_valid(spec)  # first: the default profile is n_nodes bits long
    if args.profile is None:
        profile = model.DelayProfile.of((1,) * spec.n_nodes)
    else:
        profile = _parse_profile(args.profile, spec.n_nodes)
    code = simulate.random_table_code(
        spec, args.n, profile, seed=args.seed, message_size=args.message_size
    )
    simulate.save_code(code, args.out)
    print(f"wrote random table code (n={args.n}, seed={args.seed}) to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zdmn",
        description="Discrete memoryless networks with zero-delay nodes: "
        "validation, feasibility, cut-set bounds, and scheme simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a network file")
    p.add_argument("--spec", required=True, help="network JSON file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("feasible", help="delay-profile feasibility")
    p.add_argument("--spec", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--profile", help="comma-separated delay bits, e.g. 1,0")
    g.add_argument("--all", action="store_true", help="list every feasible profile")
    p.set_defaults(func=_cmd_feasible)

    p = sub.add_parser("bound", help="grid search of the per-cut outer bounds")
    p.add_argument("--spec", required=True)
    p.add_argument(
        "--mode", choices=("capacity", "positive-delay"), default="capacity"
    )
    p.add_argument("--grid", type=int, default=8, help="grid resolution k")
    p.add_argument("--cut", help="restrict output to one cut bitmask, e.g. 10")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--out", help="write the report to a file instead of stdout")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("simulate", help="Monte Carlo run of a stored code")
    p.add_argument("--spec", required=True)
    p.add_argument("--code", required=True, help="code JSON file")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace-out", help="also write the trial-0 trace CSV here")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bscfb", help="zero-delay masked-feedback scheme")
    p.add_argument("--eps", type=float, required=True, help="forward crossover")
    p.add_argument("--n", type=int, default=2000, help="blocklength")
    p.add_argument("--rate", type=float, default=0.4, help="forward rate, bits/slot")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=_cmd_bscfb)

    p = sub.add_parser("gaussian", help="relay-chain rates and experiments")
    p.add_argument("--power", type=float, required=True, help="source power P")
    p.add_argument("--rate", type=float, default=1.2, help="operating rate")
    p.add_argument(
        "--experiment",
        action="store_true",
        help="also run the gate-frequency and codebook experiments",
    )
    p.add_argument("--n", type=int, default=16, help="blocklength")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delta", type=float, default=0.5, help="source power back-off")
    p.add_argument("--blocks", type=int, default=200, help="gate-frequency blocks")
    p.add_argument("--trials", type=int, default=100, help="codebook trials")
    p.add_argument("--method", choices=("auto", "exhaustive", "analytic"), default="auto")
    p.set_defaults(func=_cmd_gaussian)

    p = sub.add_parser("generate", help="write bundled networks or random codes")
    gsub = p.add_subparsers(dest="what", required=True)

    gs = gsub.add_parser("spec", help="write a bundled network file")
    gs.add_argument("--name", required=True, choices=sorted(networks.BUNDLED))
    gs.add_argument(
        "--eps", type=float, default=None, help="channel parameter where applicable"
    )
    gs.add_argument("--out", required=True)
    gs.set_defaults(func=_cmd_generate_spec)

    gc = gsub.add_parser("code", help="write a random table code for a network")
    gc.add_argument("--spec", required=True)
    gc.add_argument("--n", type=int, default=1, help="blocklength")
    gc.add_argument("--seed", type=int, default=0)
    gc.add_argument(
        "--message-size",
        type=int,
        default=2,
        help="message alphabet size per communicating pair",
    )
    gc.add_argument("--profile", default=None, help="delay bits (default: all ones)")
    gc.set_defaults(func=_cmd_generate_code)
    gc.add_argument("--out", required=True)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ZdmnError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
