"""Seeded input generators for the three workloads (numpy only).

Every input the benchmark sends to robustnv is drawn here from the run's
seed, so one seed always gives the same requests and the program sees only
these generated values.  Draws are stratified in groups: each group holds
the same mix of request kinds and an even spread of the sizes the cost
depends on (store size, grid size, product count), so two seeds give
different inputs but nearly the same amount of work per group.  That keeps
run-to-run spread small without filtering any input.  A stream is endless,
or ends after ``groups`` groups when that is given.

A request is a plain dict whose ``"kind"`` names what the worker calls.
"""

from __future__ import annotations

import itertools
import math
from datetime import date, timedelta

import numpy as np

from reference import population_moments

# --------------------------------------------------------------------------
# shared helpers
# --------------------------------------------------------------------------

_EPOCH = date(2020, 1, 1)


def _stream(seed: int, purpose: int) -> np.random.Generator:
    """Independent generator per purpose (request stream, warm-up, pool)."""
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(purpose,)))


def _strata(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """n values, one uniform draw in each of n equal slices of [lo, hi), shuffled."""
    return rng.permutation(lo + (hi - lo) * (np.arange(n) + rng.random(n)) / n)


def _groups(groups: int | None):
    return itertools.count() if groups is None else range(groups)


def _log_alpha(exponent: float, price: float) -> float:
    """Index p/10 * 10^e; exponents at or past 15 stand for the infinite index."""
    return math.inf if exponent >= 15.0 else price / 10.0 * 10.0 ** exponent


# an exponent range whose top ninth maps to the infinite index
_ALPHA_EXP = (-3.0, 17.25)


# --------------------------------------------------------------------------
# catalog: stores of SKUs, one report per SKU, one budget plan per store
# --------------------------------------------------------------------------

CATALOG_KINDS = ("misspec", "ambiguity", "tv", "wasserstein", "stress")
CATALOG_BLOCK = 8  # stores per stratification block
MAX_SKUS = 300


def _catalog_skus(rng: np.random.Generator, kinds: np.ndarray) -> list[dict]:
    n = kinds.size
    price = rng.uniform(4.0, 20.0, n)
    cost = price * rng.uniform(0.15, 0.85, n)
    mu = 10.0 ** _strata(rng, n, -2.0, 4.0)
    sigma = mu * rng.uniform(0.1, 1.2, n)
    exps = np.empty(n)
    for k in range(len(CATALOG_KINDS)):
        sel = np.nonzero(kinds == k)[0]
        hi = 15.0 if CATALOG_KINDS[k] == "misspec" else _ALPHA_EXP[1]
        exps[sel] = _strata(rng, sel.size, _ALPHA_EXP[0], hi)
    skus = []
    for i in range(n):
        kind = CATALOG_KINDS[int(kinds[i])]
        alpha = math.inf if kind == "ambiguity" else _log_alpha(float(exps[i]), float(price[i]))
        sku = {
            "kind": kind,
            "price": float(price[i]),
            "cost": float(cost[i]),
            "mu": float(mu[i]),
            "sigma": float(sigma[i]),
            "alpha": alpha,
        }
        if kind == "wasserstein":
            size = int(rng.integers(30, 121))
            shape = (mu[i] / sigma[i]) ** 2
            sku["history"] = rng.gamma(shape, sigma[i] ** 2 / mu[i], size)
            sku["theta"] = float(mu[i] ** 2 * 10.0 ** rng.uniform(-3.0, -0.3))
        elif kind == "stress":
            sku["q"] = float(mu[i] * rng.uniform(0.02, 2.5))
        skus.append(sku)
    return skus


def catalog_requests(seed: int, groups: int | None = None):
    """Seeded stream of groups of ``CATALOG_BLOCK`` stores: each store's SKU
    requests, then its budget plan."""
    rng = _stream(seed, 0)
    for _ in _groups(groups):
        sizes = np.clip(
            np.rint(np.exp(_strata(rng, CATALOG_BLOCK, 0.0, math.log(MAX_SKUS)))),
            1, MAX_SKUS,
        ).astype(int)
        total = int(sizes.sum())
        kinds = rng.permutation(np.resize(np.arange(len(CATALOG_KINDS)), total))
        skus = _catalog_skus(rng, kinds)
        plan_exps = _strata(rng, CATALOG_BLOCK, *_ALPHA_EXP)
        start = 0
        for b, m in enumerate(sizes):
            store = skus[start : start + m]
            start += m
            mean_price = float(np.mean([s["price"] for s in store]))
            yield from store
            yield {
                "kind": "plan",
                "products": [(s["price"], s["cost"], s["mu"]) for s in store],
                "budget_factor": float(1.0 + 10.0 ** rng.uniform(-2.0, 0.5)),
                "alpha": _log_alpha(float(plan_exps[b]), mean_price),
            }


def catalog_warmup(seed: int) -> list[dict]:
    """One request of each kind: a five-SKU store with one SKU per kind."""
    rng = _stream(seed, 1)
    skus = _catalog_skus(rng, np.arange(len(CATALOG_KINDS)))
    plan = {
        "kind": "plan",
        "products": [(s["price"], s["cost"], s["mu"]) for s in skus],
        "budget_factor": 1.5,
        "alpha": 1.0,
    }
    return skus + [plan]


# --------------------------------------------------------------------------
# calibrate: CLI calls over generated demand CSVs, plus threshold scans
# --------------------------------------------------------------------------

CALIBRATE_KINDS = (
    "calibrate_cv",
    "calibrate_formula",
    "calibrate_stress",
    "sweep_alpha",
    "sweep_price",
    "sweep_sigma",
    "experiment",
    "evaluate",
    "price_scan",
    "variance_scan",
)
PAIR_KINDS = ("stationary", "shifted", "regime")
POOL_SIZE = 12


def _positive_draws(rng, mu: float, sigma: float, n: int) -> np.ndarray:
    return rng.gamma((mu / sigma) ** 2, sigma * sigma / mu, n)


def _rounded(values: np.ndarray) -> tuple[float, ...]:
    # the CSV carries six decimals; keep exactly the values the file holds
    return tuple(float(f"{v:.6f}") for v in values)


def demand_pool(seed: int) -> list[dict]:
    """Train/test demand pairs: stationary, downward-shifted and regime-shift."""
    rng = _stream(seed, 2)
    train_sizes = _strata(rng, POOL_SIZE, 40, 401).astype(int)
    test_sizes = _strata(rng, POOL_SIZE, 100, 401).astype(int)
    pool = []
    for i in range(POOL_SIZE):
        kind = PAIR_KINDS[i % len(PAIR_KINDS)]
        n_train, n_test = int(train_sizes[i]), int(test_sizes[i])
        mu = float(10.0 ** rng.uniform(0.5, 2.5))
        sigma = mu * float(rng.uniform(0.15, 0.45))
        if kind == "stationary":
            train = _positive_draws(rng, mu, sigma, n_train)
            test = _positive_draws(rng, mu, sigma, n_test)
        elif kind == "shifted":
            train = _positive_draws(rng, mu, sigma, n_train)
            test = _positive_draws(rng, mu * float(rng.uniform(0.55, 0.85)), sigma, n_test)
        else:
            mu2 = mu * float(rng.choice([rng.uniform(0.5, 0.8), rng.uniform(1.2, 1.5)]))
            sigma2 = mu2 * float(rng.uniform(0.15, 0.45))
            head = int(n_train * rng.uniform(0.3, 0.7))
            train = np.concatenate(
                [_positive_draws(rng, mu, sigma, head),
                 _positive_draws(rng, mu2, sigma2, n_train - head)]
            )
            test = _positive_draws(rng, mu2, sigma2, n_test)
        pool.append({"kind": kind, "train": _rounded(train), "test": _rounded(test)})
    return pool


def demand_csv(values) -> str:
    rows = ["date,demand"]
    rows += [f"{(_EPOCH + timedelta(days=i)).isoformat()},{v:.6f}" for i, v in enumerate(values)]
    return "\n".join(rows) + "\n"


def _alpha_grid(rng, price: float, count: int) -> list[float]:
    grid = sorted(set(float(price / 10.0 * 10.0 ** e) for e in rng.uniform(-2.0, 2.0, count)))
    if rng.random() < 1.0 / 3.0:
        grid.append(math.inf)
    return grid


def _calibrate_sizes(rng) -> dict[str, list[dict]]:
    """Per kind, the sizes its cost depends on for each block of one group,
    spread evenly over their ranges: every kind meets every demand pair once."""
    n = POOL_SIZE
    table = {}
    for kind in CALIBRATE_KINDS:
        # cross-validation runs at the CLI's default sizes: 25 indices, 5 folds
        cv = kind == "calibrate_cv"
        cols = (
            rng.permutation(POOL_SIZE),  # pair
            np.full(n, 25) if cv else np.floor(_strata(rng, n, 8, 26)),  # alpha-grid indices
            np.full(n, 5) if cv else rng.permutation(np.resize([3, 5, 8], n)),  # folds
            np.floor(_strata(rng, n, 40, 401)),  # sweep axis points
            np.floor(_strata(rng, n, 900, 1101)),  # scan grid points
        )
        keys = ("pair", "count", "folds", "axis_count", "points")
        table[kind] = [dict(zip(keys, map(int, row))) for row in zip(*cols)]
    return table


# warm-up requests: the smallest demand pair is chosen separately
_SMALL = {"count": 8, "folds": 3, "axis_count": 10, "points": 100}


def _calibrate_request(rng, kind: str, pool: list[dict], sizes: dict) -> dict:
    """One request with the given pair and sizes."""
    pair = sizes["pair"]
    price = float(rng.uniform(5.0, 20.0))
    # scans need kappa >= 1/2; the rest also see kappa below it
    top = 0.5 if kind.endswith("scan") else 0.7
    req = {
        "kind": kind,
        "pair": pair,
        "price": price,
        "cost": price * float(rng.uniform(0.15, top)),
        "seed": int(rng.integers(0, 2**31)),
        "alpha_grid": _alpha_grid(rng, price, sizes["count"]),
        "alpha": float(price / 10.0 * 10.0 ** rng.uniform(-1.0, 2.0)),
        "folds": sizes["folds"],
        "format": "csv" if kind.startswith("sweep") and rng.random() < 0.5 else "json",
    }
    points = sizes["points"]
    mu, sigma = population_moments(pool[pair]["train"])
    if kind in ("sweep_price", "sweep_sigma"):
        # an explicit axis grid of seeded size, so sweep costs spread out
        if kind == "sweep_price":
            lo, hi = rng.uniform(1.05 * req["cost"], price), price * rng.uniform(1.5, 2.5)
        else:
            lo, hi = rng.uniform(1e-3, 0.2 * mu), mu * rng.uniform(0.5, 1.5)
        req["axis"] = (float(lo), float(hi), sizes["axis_count"])
    elif kind == "experiment":
        req["theta"] = 0.0 if rng.random() < 0.5 else float(mu * mu * 10.0 ** rng.uniform(-3, -1))
    elif kind == "evaluate":
        req["quantity"] = float(mu * rng.uniform(0.3, 1.7))
    elif kind == "price_scan":
        c = req["cost"]
        req["grid"] = np.linspace(1.05 * c, c * float(rng.uniform(3.0, 8.0)), points)
        req["mu"], req["sigma"] = mu, sigma
    elif kind == "variance_scan":
        kappa = (price - req["cost"]) / price
        hi = mu * math.sqrt(kappa / (1.0 - kappa))
        req["grid"] = np.linspace(0.0, hi * float(rng.uniform(0.4, 1.0)), points)
        req["mu"] = mu
    return req


def calibrate_requests(seed: int, pool: list[dict], groups: int | None = None):
    """Blocks of one request of each kind in shuffled order, each followed by a
    verbatim repeat of one of its CLI requests (for the byte-determinism
    check).  Sizes are stratified over groups of ``POOL_SIZE`` blocks."""
    rng = _stream(seed, 0)
    cli_kinds = [k for k in CALIBRATE_KINDS if not k.endswith("scan")]
    blocks = itertools.count()
    for _ in _groups(groups):
        sizes = _calibrate_sizes(rng)
        for i, b in zip(range(POOL_SIZE), blocks):
            block = [_calibrate_request(rng, CALIBRATE_KINDS[k], pool, sizes[CALIBRATE_KINDS[k]][i])
                     for k in rng.permutation(len(CALIBRATE_KINDS))]
            yield from block
            # repeats cycle through the CLI kinds so the mix is the same every run
            again = cli_kinds[b % len(cli_kinds)]
            yield {**next(r for r in block if r["kind"] == again), "repeat": True}


def calibrate_warmup(seed: int, pool: list[dict]) -> list[dict]:
    rng = _stream(seed, 1)
    small = {**_SMALL, "pair": int(np.argmin([len(p["train"]) for p in pool]))}
    return [_calibrate_request(rng, kind, pool, small) for kind in CALIBRATE_KINDS]


# --------------------------------------------------------------------------
# certify: oracle batches, dual-objective curves, transport-ball dual oracle
# --------------------------------------------------------------------------

CURVE_GRID_TOP = 40.0
CURVE_GRID_POINTS = 151
CURVE_MULTIPLIERS = 500


def _portfolio(rng, n_products: int) -> dict:
    products = [
        (float(rng.uniform(4, 16)), float(rng.uniform(1, 3)), float(rng.uniform(2, 7)))
        for _ in range(n_products)
    ]
    return {
        "products": products,
        "budget_factor": float(rng.uniform(1.05, 1.4)),
        "alpha": float(rng.uniform(0.5, 8)),
    }


def _ball_instance(rng) -> dict:
    n = int(rng.integers(3, 9))
    support = np.round(rng.uniform(0.5, 12.0, n), 2)
    price = float(rng.uniform(5.0, 15.0))
    return {
        "support": support,
        "price": price,
        "cost": price * float(rng.uniform(0.2, 0.6)),
        "theta": float(np.mean(support**2) * 10.0 ** rng.uniform(-2.5, -0.5)),
        "alpha": float(10.0 ** rng.uniform(-1.5, 1.0)),
    }


def certify_requests(seed: int, groups: int | None = None):
    """Groups of three rounds; each round holds one request of each kind."""
    rng = _stream(seed, 0)
    for _ in _groups(groups):
        grids = np.floor(_strata(rng, 3, 61.0, 162.0)).astype(int)
        counts = rng.permutation([1, 2, 3])
        for r in range(3):
            round_ = [
                {"kind": "oracle_check", "seed": int(rng.integers(0, 2**31)),
                 "grid_points": int(grids[r])},
                {"kind": "dual_curve", **_portfolio(rng, int(counts[r]))},
                {"kind": "wasserstein_oracle", **_ball_instance(rng)},
            ]
            yield from (round_[k] for k in rng.permutation(3))


def certify_warmup(seed: int) -> list[dict]:
    rng = _stream(seed, 1)
    return [
        {"kind": "oracle_check", "seed": int(rng.integers(0, 2**31)), "grid_points": 61},
        {"kind": "dual_curve", **_portfolio(rng, 1)},
        {"kind": "wasserstein_oracle", **_ball_instance(rng)},
    ]
