"""Command-line front end (``robustnv``).

Subcommands: ``solve``, ``sweep``, ``calibrate``, ``evaluate``,
``experiment``, ``oracle-check``, ``generate``.  Global flags ``--seed``,
``--out`` and ``--format`` come before the subcommand.  Exit codes: 0 on
success, 2 for input or schema errors (unreadable input or unwritable output
files included), 3 for infeasible or degenerate models, 4 for internal
validation failures.  All output is deterministic for fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import json
import sys

from ._version import __version__
from .calibration import cv_alpha, formula_calibrate, stress_calibrate
from .evaluation import (
    ExperimentConfig,
    Method,
    default_alpha_grid,
    demand_csv_text,
    draw_demand,
    load_demand_csv,
    oracle_check,
    out_of_sample_profit,
    report_csv_text,
    report_json_text,
    run_experiment,
    solve_json_payload,
    sweep,
    sweep_csv_text,
    sweep_json_text,
)
from .single_product import CostStructure, MomentSpec, misspec_quantity
from .validation import (
    DegenerateModelError,
    InputError,
    InternalCheckError,
    require,
    require_finite,
)


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}")


def _json_text(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _kv_csv(doc: dict) -> str:
    """One-row CSV twin for small flat JSON payloads."""
    keys = sorted(doc)
    head = ",".join(keys)
    row = ",".join("" if doc[k] is None else str(doc[k]) for k in keys)
    return f"{head}\n{row}\n"


def _flatten(doc: dict, prefix: str = "") -> dict:
    flat = {}
    for k, v in doc.items():
        name = f"{prefix}{k}"
        if isinstance(v, dict):
            flat.update(_flatten(v, f"{name}."))
        elif isinstance(v, list):
            flat[name] = ";".join(str(x) for x in v)
        else:
            flat[name] = v
    return flat


def _emit_small(doc: dict, fmt: str) -> str:
    return _json_text(doc) if fmt == "json" else _kv_csv(_flatten(doc))


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_solve(args) -> str:
    cost = CostStructure(args.price, args.cost)
    report = misspec_quantity(args.alpha, MomentSpec(args.mu, args.sigma), cost)
    return _emit_small(solve_json_payload(report), args.format)


def _train_samples(args):
    if args.train is not None:
        return load_demand_csv(args.train)
    if args.mu is not None and args.sigma is not None:
        # two symmetric observations reproduce (mu, sigma) exactly
        if args.mu - args.sigma < 0:
            raise InputError("--mu/--sigma shortcut needs mu >= sigma for nonnegative demand")
        from .calibration import SampleSet

        return SampleSet((args.mu - args.sigma, args.mu + args.sigma))
    raise InputError("provide --train CSV or both --mu and --sigma")


def _cmd_sweep(args) -> str:
    cost = CostStructure(args.price, args.cost)
    train = _train_samples(args)
    test = load_demand_csv(args.test) if args.test else None
    grid = tuple(args.alpha_grid or default_alpha_grid(cost.price))
    config = ExperimentConfig(
        train=train,
        cost=cost,
        alpha_grid=grid,
        methods=(Method.MISSPEC,),
        seed=args.seed,
        test=test,
    )
    values = None
    if args.min is not None or args.max is not None or args.count is not None:
        if args.min is None or args.max is None:
            raise InputError("--min and --max must be given together")
        count = 100 if args.count is None else args.count
        require(count >= 1, f"--count must be >= 1, got {count!r}")
        require_finite("--min", args.min)
        require_finite("--max", args.max)
        import numpy as np

        if args.axis == "alpha":
            require(
                args.min > 0.0 and args.max > 0.0,
                f"--axis alpha needs --min and --max > 0 (geometric grid), "
                f"got {args.min!r} and {args.max!r}",
            )
            values = [float(v) for v in np.geomspace(args.min, args.max, count)]
        else:
            values = [float(v) for v in np.linspace(args.min, args.max, count)]
    series = sweep(args.axis, config, values=values, alpha=args.alpha)
    return sweep_json_text(series) if args.format == "json" else sweep_csv_text(series)


def _cmd_calibrate(args) -> str:
    cost = CostStructure(args.price, args.cost)
    train = load_demand_csv(args.train)
    grid = tuple(args.alpha_grid or default_alpha_grid(cost.price))
    if args.method == "cv":
        pick = cv_alpha(train, cost, grid, folds=args.folds, seed=args.seed)
    else:
        if not args.test:
            raise InputError(f"--test is required for method {args.method!r}")
        test = load_demand_csv(args.test)
        if args.method == "formula":
            eps_grid = args.eps_grid or [0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0]
            pick = formula_calibrate(
                train, test, cost, eps_grid, seed=args.seed, folds=args.folds
            )
        else:
            pick = stress_calibrate(train, test, cost, grid, seed=args.seed)
    alpha = "inf" if pick.is_infinite else round(pick.alpha, 6)
    return _emit_small({"method": args.method, "alpha": alpha}, args.format)


def _cmd_evaluate(args) -> str:
    cost = CostStructure(args.price, args.cost)
    test = load_demand_csv(args.test)
    value = out_of_sample_profit(args.quantity, test, cost)
    doc = {
        "quantity": round(args.quantity, 6),
        "n_test": test.n,
        "out_of_sample_profit": round(value, 6),
    }
    return _emit_small(doc, args.format)


def _cmd_experiment(args) -> str:
    cost = CostStructure(args.price, args.cost)
    train = load_demand_csv(args.train)
    test = load_demand_csv(args.test) if args.test else None
    grid = tuple(args.alpha_grid or default_alpha_grid(cost.price))
    methods = tuple(Method(m.strip().upper()) for m in (args.methods or "NOMINAL,AMBIGUITY,MISSPEC,WASSERSTEIN,TV").split(","))
    config = ExperimentConfig(
        train=train,
        cost=cost,
        alpha_grid=grid,
        methods=methods,
        seed=args.seed,
        test=test,
        theta=args.theta,
        eps_grid=tuple(args.eps_grid or (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0)),
        folds=args.folds,
    )
    report = run_experiment(config)
    return report_json_text(report) if args.format == "json" else report_csv_text(report)


def _cmd_oracle_check(args) -> str:
    summary = oracle_check(
        seed=args.seed,
        instances=args.instances,
        grid_points=args.grid_points,
        q_points=args.q_points,
    )
    return _emit_small(summary, args.format)


def _cmd_generate(args) -> str:
    kind = args.kind.replace("-", "_").upper()
    params = {"mu": args.mu, "sigma": args.sigma}
    if args.mu2 is not None:
        params["mu2"] = args.mu2
    if args.sigma2 is not None:
        params["sigma2"] = args.sigma2
    if args.split is not None:
        params["split"] = args.split
    values = draw_demand(kind, params, args.n, args.seed)
    return demand_csv_text(values)


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def _add_cost_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--price", type=float, required=True, help="unit selling price p")
    p.add_argument("--cost", type=float, required=True, help="unit order cost c")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustnv",
        description="Robust newsvendor ordering under moment ambiguity and misspecification.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    parser.add_argument("--out", type=str, default=None, help="write output to this path")
    parser.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one model instance")
    _add_cost_flags(p)
    p.add_argument("--mu", type=float, required=True, help="demand mean")
    p.add_argument("--sigma", type=float, required=True, help="demand deviation")
    p.add_argument(
        "--alpha",
        type=float,
        required=True,
        help="misspecification index ('inf' for the ambiguity-only model)",
    )
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("sweep", help="sensitivity sweep along one axis")
    _add_cost_flags(p)
    p.add_argument("--axis", choices=("alpha", "price", "sigma"), required=True)
    p.add_argument("--train", type=str, default=None, help="training demand CSV")
    p.add_argument("--test", type=str, default=None, help="held-out demand CSV")
    p.add_argument("--mu", type=float, default=None, help="moments shortcut: mean")
    p.add_argument("--sigma", type=float, default=None, help="moments shortcut: deviation")
    p.add_argument("--alpha", type=float, default=None, help="fixed index for price/sigma sweeps")
    p.add_argument("--alpha-grid", type=_float_list, default=None, dest="alpha_grid")
    p.add_argument("--min", type=float, default=None, help="axis grid start")
    p.add_argument("--max", type=float, default=None, help="axis grid end")
    p.add_argument("--count", type=int, default=None, help="axis grid size")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("calibrate", help="select the index from data")
    _add_cost_flags(p)
    p.add_argument("--method", choices=("cv", "formula", "stress"), required=True)
    p.add_argument("--train", type=str, required=True, help="training demand CSV")
    p.add_argument("--test", type=str, default=None, help="held-out demand CSV")
    p.add_argument("--alpha-grid", type=_float_list, default=None, dest="alpha_grid")
    p.add_argument("--eps-grid", type=_float_list, default=None, dest="eps_grid")
    p.add_argument("--folds", type=int, default=5)
    p.set_defaults(handler=_cmd_calibrate)

    p = sub.add_parser("evaluate", help="out-of-sample profit of a quantity")
    _add_cost_flags(p)
    p.add_argument("--quantity", type=float, required=True)
    p.add_argument("--test", type=str, required=True, help="held-out demand CSV")
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("experiment", help="full method-comparison protocol")
    _add_cost_flags(p)
    p.add_argument("--train", type=str, required=True, help="training demand CSV")
    p.add_argument("--test", type=str, default=None, help="held-out demand CSV")
    p.add_argument("--alpha-grid", type=_float_list, default=None, dest="alpha_grid")
    p.add_argument("--eps-grid", type=_float_list, default=None, dest="eps_grid")
    p.add_argument("--methods", type=str, default=None, help="comma list of methods")
    p.add_argument("--theta", type=float, default=0.0, help="transport-ball radius")
    p.add_argument("--folds", type=int, default=5)
    p.set_defaults(handler=_cmd_experiment)

    p = sub.add_parser("oracle-check", help="closed forms vs the brute-force oracle")
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--grid-points", type=int, default=161, dest="grid_points")
    p.add_argument("--q-points", type=int, default=81, dest="q_points")
    p.set_defaults(handler=_cmd_oracle_check)

    p = sub.add_parser("generate", help="synthetic demand CSV")
    p.add_argument(
        "--kind",
        choices=("trunc-normal", "lognormal", "regime-shift"),
        required=True,
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--mu2", type=float, default=None)
    p.add_argument("--sigma2", type=float, default=None)
    p.add_argument("--split", type=float, default=None)
    p.set_defaults(handler=_cmd_generate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload = args.handler(args)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(payload)
    except (InputError, OSError) as exc:
        print(f"robustnv: input error: {exc}", file=sys.stderr)
        return 2
    except DegenerateModelError as exc:  # includes infeasibility
        print(f"robustnv: degenerate or infeasible model: {exc}", file=sys.stderr)
        return 3
    except InternalCheckError as exc:
        print(f"robustnv: internal validation failure: {exc}", file=sys.stderr)
        return 4
    if not args.out:
        sys.stdout.write(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
