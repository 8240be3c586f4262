"""Command-line front end (``robustnv``).

Subcommands: ``solve``, ``sweep``, ``calibrate``, ``evaluate``,
``experiment``, ``oracle-check``, ``generate``.  Global flags ``--seed``,
``--out`` and ``--format`` come before the subcommand.  Exit codes: 0 on
success, 2 for input or schema errors (input files that are unreadable or not
UTF-8 CSV, and unwritable output files, included), 3 for infeasible or
degenerate models, 4 for internal validation failures.  All output is
deterministic for fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from ._version import __version__
from .calibration import SampleSet, cv_alpha, formula_calibrate, stress_calibrate
from .evaluation import (
    _DEFAULT_EPS_GRID,
    _csv_text,
    _fmt6,
    _json_text,
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


def _literal(text: str) -> str:
    """A float literal, checked but kept as text for :func:`_index`."""
    try:
        float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    return text


def _literals(text: str) -> list[str]:
    """Comma-separated float literals, checked but kept as text."""
    try:
        return [_literal(tok) for tok in text.split(",") if tok.strip()]
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated floats, got {text!r}"
        ) from None


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in _literals(text)]


def _index(text: str) -> float:
    """The index a literal names.  ``inf``, ``+inf`` and ``infinity`` (any
    case) name the infinite index; a finite literal beyond the float range is
    an input error, not a silent switch to the ambiguity-only model."""
    value = float(text)
    if math.isinf(value) and text.strip().lstrip("+-").lower() not in ("inf", "infinity"):
        raise InputError(
            f"index literal {text.strip()!r} is beyond the float range; "
            "spell the infinite index 'inf'"
        )
    return value


def _alpha_grid(args, cost: CostStructure) -> tuple[float, ...]:
    """--alpha-grid as indices, or the default grid when it is absent or empty."""
    return tuple(map(_index, args.alpha_grid or ())) or default_alpha_grid(cost.price)


def _seed(text: str) -> int:
    """A nonnegative integer: numpy's seeded generators reject negative seeds."""
    if not text.strip().isdigit():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _kv_csv(doc: dict) -> str:
    """One-row CSV twin for small flat JSON payloads."""
    keys = sorted(doc)
    return _csv_text(keys, [[doc[k] for k in keys]])


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
    report = misspec_quantity(_index(args.alpha), MomentSpec(args.mu, args.sigma), cost)
    return _emit_small(solve_json_payload(report), args.format)


def _train_samples(args):
    if args.train is not None:
        return load_demand_csv(args.train)
    if args.mu is not None and args.sigma is not None:
        # two symmetric observations reproduce (mu, sigma) exactly
        if args.mu - args.sigma < 0:
            raise InputError("--mu/--sigma shortcut needs mu >= sigma for nonnegative demand")
        return SampleSet((args.mu - args.sigma, args.mu + args.sigma))
    raise InputError("provide --train CSV or both --mu and --sigma")


def _cmd_sweep(args) -> str:
    cost = CostStructure(args.price, args.cost)
    train = _train_samples(args)
    test = load_demand_csv(args.test) if args.test else None
    grid = _alpha_grid(args, cost)
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
    alpha = None if args.alpha is None else _index(args.alpha)
    series = sweep(args.axis, config, values=values, alpha=alpha)
    return sweep_json_text(series) if args.format == "json" else sweep_csv_text(series)


def _cmd_calibrate(args) -> str:
    cost = CostStructure(args.price, args.cost)
    train = load_demand_csv(args.train)
    grid = _alpha_grid(args, cost)
    if args.method == "cv":
        pick = cv_alpha(train, cost, grid, folds=args.folds, seed=args.seed)
    else:
        if not args.test:
            raise InputError(f"--test is required for method {args.method!r}")
        test = load_demand_csv(args.test)
        if args.method == "formula":
            eps_grid = args.eps_grid or _DEFAULT_EPS_GRID
            pick = formula_calibrate(
                train, test, cost, eps_grid, seed=args.seed, folds=args.folds
            )
        else:
            pick = stress_calibrate(train, test, cost, grid, seed=args.seed)
    return _emit_small({"method": args.method, "alpha": _fmt6(pick.alpha)}, args.format)


def _cmd_evaluate(args) -> str:
    cost = CostStructure(args.price, args.cost)
    test = load_demand_csv(args.test)
    value = out_of_sample_profit(args.quantity, test, cost)
    doc = {
        "quantity": _fmt6(args.quantity),
        "n_test": test.n,
        "out_of_sample_profit": _fmt6(value),
    }
    return _emit_small(doc, args.format)


def _cmd_experiment(args) -> str:
    cost = CostStructure(args.price, args.cost)
    train = load_demand_csv(args.train)
    test = load_demand_csv(args.test) if args.test else None
    grid = _alpha_grid(args, cost)
    methods = tuple(Method)
    if args.methods:  # ExperimentConfig rejects a name that is not a Method
        methods = tuple(m.strip() for m in args.methods.upper().split(","))
    config = ExperimentConfig(
        train=train,
        cost=cost,
        alpha_grid=grid,
        methods=methods,
        seed=args.seed,
        test=test,
        theta=args.theta,
        eps_grid=args.eps_grid or _DEFAULT_EPS_GRID,
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
    names = ("mu", "sigma", "mu2", "sigma2", "split")
    params = {k: getattr(args, k) for k in names if getattr(args, k) is not None}
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
    parser.add_argument("--seed", type=_seed, default=0, help="seed for all randomness")
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
        type=_literal,
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
    p.add_argument("--alpha", type=_literal, default=None, help="fixed index for price/sigma sweeps")
    p.add_argument("--alpha-grid", type=_literals, default=None, dest="alpha_grid")
    p.add_argument("--min", type=float, default=None, help="axis grid start")
    p.add_argument("--max", type=float, default=None, help="axis grid end")
    p.add_argument("--count", type=int, default=None, help="axis grid size")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("calibrate", help="select the index from data")
    _add_cost_flags(p)
    p.add_argument("--method", choices=("cv", "formula", "stress"), required=True)
    p.add_argument("--train", type=str, required=True, help="training demand CSV")
    p.add_argument("--test", type=str, default=None, help="held-out demand CSV")
    p.add_argument("--alpha-grid", type=_literals, default=None, dest="alpha_grid")
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
    p.add_argument("--alpha-grid", type=_literals, default=None, dest="alpha_grid")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built on first use and kept for the
    process: parsing leaves no state in it, and building one (about 1.5 ms)
    takes several times as long as a whole ``solve`` request."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
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
