"""Closed-form single-product solvers: frozen values and model invariants."""

import copy
import dataclasses
import math
import pickle
import re
import sys
import warnings
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

import robustnv.single_product as sp
from robustnv import (
    CostStructure,
    DegenerateModelError,
    DiscreteDistribution,
    InputError,
    InternalCheckError,
    MisspecIndex,
    ModelError,
    MomentSpec,
    PortfolioSpec,
    ProductSpec,
    RadiusSpec,
    Regime,
    TransformRegime,
    ambiguity_worst_case,
    ell,
    fractile_factor,
    lambda_breakpoints,
    misspec_quantity,
    misspec_worst_case,
    nominal_quantity,
    price_threshold_scan,
    profit,
    push_forward,
    scarf_quantity,
    solve_lambda,
    transform,
    variance_threshold_scan,
    wasserstein_misspec_solve,
    worst_case_transformed_expectation,
)
from robustnv.oracle import inner_min_oracle
from robustnv.validation import _fsum_or_inf, require, require_finite, require_nonnegative

COST = CostStructure(price=10.0, cost=3.0)
M42 = MomentSpec(mean=4.0, std=2.0)
INF = MisspecIndex.INFINITY

# printed six-decimal reference values round the last digit inconsistently in a
# few places; exact formulas are asserted at 1e-9 and printed strings at 5e-6


def two_point(mu, sigma, v1):
    """Independent two-point law with prescribed mean and std (v1 < mu)."""
    v2 = mu + sigma * sigma / (mu - v1)
    w1 = (v2 - mu) / (v2 - v1)
    return DiscreteDistribution.from_pairs([v1, v2], [w1, 1.0 - w1])


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def test_profit_examples():
    assert profit(2, 3, COST) == pytest.approx(14.0)
    assert profit(0, 5, CostStructure(7, 2)) == 0.0
    assert profit(5, 2, COST) == pytest.approx(5.0)


def test_profit_rejects_negative_arguments():
    with pytest.raises(InputError):
        profit(-1, 3, COST)
    with pytest.raises(InputError):
        profit(1, -3, COST)


def test_cost_structure_validation():
    with pytest.raises(InputError):
        CostStructure(price=3, cost=3)
    with pytest.raises(InputError):
        CostStructure(price=3, cost=0)
    with pytest.raises(InputError):
        CostStructure(price=-1, cost=-2)
    assert CostStructure(10, 3).kappa == pytest.approx(0.7)


@pytest.mark.parametrize("big", [10**200, 10**400], ids=["10**200", "10**400"])
def test_moment_spec_rejects_ints_beyond_the_float_range(big):
    # 10**200 fits a float but its square does not; 10**400 fits neither
    with pytest.raises(InputError):
        MomentSpec(big, 1)
    with pytest.raises(InputError):
        MomentSpec(1, big)


def test_moment_spec_rejects_a_second_moment_below_the_normal_range():
    # mu^2 + sigma^2 underflows to 0 (or to a subnormal) and the closed forms
    # would divide by it
    for mu, sigma in [(1e-170, 1e-171), (1e-160, 5e-161), (5e-324, 0.0)]:
        with pytest.raises(InputError, match=r"mean\^2 \+ std\^2 must be finite and at least"):
            MomentSpec(mu, sigma)
    low = 2.0**-511  # its square is the smallest normal float
    assert MomentSpec(low, 0.0).second_moment == sys.float_info.min
    with pytest.raises(InputError):
        MomentSpec(math.nextafter(low, 0.0), 0.0)


def test_moment_spec_second_moment_is_a_hidden_field():
    m = MomentSpec(4, 2.5)
    assert m.second_moment == 22.25 and type(m.second_moment) is float
    assert repr(m) == "MomentSpec(mean=4.0, std=2.5)"
    assert m == MomentSpec(4, 2.5) and m != MomentSpec(4, 2.0)
    assert hash(m) == hash((4, 2.5)) == hash(MomentSpec(4.0, 2.5))
    with pytest.raises(AttributeError):
        m.second_moment = 1.0  # frozen, like the two fields


def _hexes(x):
    """Every float of a solver's answer as ``float.hex``, in field order."""
    if isinstance(x, float):
        return [x.hex()]
    if isinstance(x, (tuple, list)):
        return [h for y in x for h in _hexes(y)]
    if dataclasses.is_dataclass(x):
        return [h for f in dataclasses.fields(x) for h in _hexes(getattr(x, f.name))]
    return [repr(x)]


def _solve_bits(solve, spec):
    """``_hexes`` of the answer, or the error, and every warning on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = _hexes(solve(spec))
        except ModelError as exc:
            out = [type(exc).__name__, str(exc)]
    return out + [str(w.message) for w in caught]


_BALL_LAW = DiscreteDistribution.from_samples([1.0, 2.0, 4.0, 5.0, 7.0, 9.0])
_SECOND = ProductSpec(8.0, 2.0, 3.0)
# each spec: its field values, the fields the table varies, and the solves that read it
_SPEC_TABLE = {
    CostStructure: (
        {"price": 10.5, "cost": 3.25},
        ("price", "cost"),
        lambda cs: (
            misspec_quantity(4.0, M42, cs),
            wasserstein_misspec_solve(_BALL_LAW, RadiusSpec(0.75, 2.5), cs),
        ),
    ),
    MomentSpec: ({"mean": 4.5, "std": 2.5}, ("mean", "std"), lambda m: misspec_quantity(4.0, m, COST)),
    ProductSpec: (
        {"price": 10.5, "cost": 3.25, "mean": 4.5},
        ("price", "cost", "mean"),
        lambda p: solve_lambda(PortfolioSpec((p, _SECOND), 30.5, 2.5)),
    ),
    PortfolioSpec: (
        {"products": (ProductSpec(10.5, 3.25, 4.5), _SECOND), "budget": 30.5, "alpha": 2.5},
        ("budget", "alpha"),
        solve_lambda,
    ),
    RadiusSpec: (
        {"theta": 0.75, "alpha": 2.5},
        ("theta", "alpha"),
        lambda r: wasserstein_misspec_solve(_BALL_LAW, r, COST),
    ),
}
_INPUT_KINDS = {
    "int": int,
    "float": float,
    "np.float64": np.float64,
    "np.float32": np.float32,
    "np.float32 inexact": lambda b: np.float32(b + 0.1),
    "np.int64": np.int64,
    "Fraction": Fraction,
    "Decimal": lambda b: Decimal(repr(b)),
    "numeric str": repr,
    "non-numeric str": lambda b: "ten",
    "None": lambda b: None,
    "True": lambda b: True,
    "int beyond the float range": lambda b: 10**400,
}


@pytest.mark.parametrize("kind", _INPUT_KINDS)
def test_every_spec_stores_and_solves_the_float_of_its_input(kind):
    # a spec given x is the spec given float(x): the same stored floats (so
    # ==, hash and every solve bit), or, where float(x) is rejected, an
    # InputError naming the field
    for cls, (base, varied, solve) in _SPEC_TABLE.items():
        for name in varied:
            x = _INPUT_KINDS[kind](base[name])
            try:
                fx = float(x)
            except (TypeError, ValueError, OverflowError):
                with pytest.raises(InputError, match=name):
                    cls(**{**base, name: x})
                continue
            try:
                want = cls(**{**base, name: fx})
            except InputError as exc:
                with pytest.raises(InputError, match=re.escape(str(exc))):
                    cls(**{**base, name: x})
                assert name in str(exc)
                continue
            got = cls(**{**base, name: x})
            stored = getattr(got, name)
            stored = stored.alpha if isinstance(stored, MisspecIndex) else stored
            assert type(stored) is float and stored == fx, (cls.__name__, name)
            assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
            assert _solve_bits(solve, got) == _solve_bits(solve, want), (cls.__name__, name)


def test_product_spec_keeps_its_one_cost_structure():
    prod = ProductSpec("10", np.float32(3.0), 4)
    assert prod.cost_structure is prod.cost_structure == CostStructure(10.0, 3.0)
    assert repr(prod) == "ProductSpec(price=10.0, cost=3.0, mean=4.0)"
    assert dataclasses.replace(prod, mean=5.0).cost_structure == prod.cost_structure


# c/p below about 1.1e-16: (p - c)/p rounds to 1, and 1 - kappa to 0
TINY_COST = CostStructure(1e17, 3.0)


def test_a_fractile_that_rounds_to_one_is_an_input_error():
    from robustnv.distances import tv_misspec_quantity

    assert TINY_COST.kappa == 1.0
    message = "critical fractile (p - c)/p rounds to 1 at price=1e+17, cost=3.0"
    calls = [
        lambda: variance_threshold_scan(4.0, TINY_COST, 5.0, [0.1, 1.0]),
        lambda: misspec_quantity(4.0, MomentSpec(5, 2), TINY_COST),
        lambda: scarf_quantity(MomentSpec(5, 2), TINY_COST),
        lambda: sp._solve(4.0, MomentSpec(5, 2), TINY_COST),
        lambda: tv_misspec_quantity(4.0, MomentSpec(5, 2), TINY_COST),
        lambda: price_threshold_scan(4.0, MomentSpec(5, 2), 3.0, [1e17, 2e17]),
    ]
    for call in calls:
        with pytest.raises(InputError, match=re.escape(message)):
            call()
    # alpha = 0 orders nothing and never reads the fractile
    assert misspec_quantity(0.0, MomentSpec(5, 2), TINY_COST).quantity == 0.0


@pytest.mark.parametrize(
    "bad, message",
    [
        (-1.0, "alpha must be >= 0, got -1.0"),
        (math.nan, "alpha must be finite, got nan"),
        (-math.inf, "alpha must be finite, got -inf"),
        (10**400, "alpha must be finite, got an int beyond the float range"),
    ],
    ids=["negative", "nan", "-inf", "10**400"],
)
def test_misspec_index_rejects_a_bad_alpha(bad, message):
    for make in (MisspecIndex, sp.as_misspec_index):
        with pytest.raises(InputError) as info:
            make(bad)
        assert str(info.value) == message


def test_misspec_index_accepts_the_valid_range():
    assert sp.as_misspec_index(math.inf) == INF
    assert sp.as_misspec_index(0).alpha == 0.0
    assert type(sp.as_misspec_index(4).alpha) is float
    assert sp.as_misspec_index(INF) is INF


def test_nominal_quantity_examples():
    u5 = DiscreteDistribution.from_pairs([1, 2, 3, 4, 5], [0.2] * 5)
    assert nominal_quantity(u5, COST) == 4.0
    assert nominal_quantity(DiscreteDistribution.point_mass(7.0), COST) == 7.0
    u2 = DiscreteDistribution.from_pairs([1, 2], [0.5, 0.5])
    assert nominal_quantity(u2, CostStructure(2, 1)) == 1.0


def test_quantile_and_cdf_read_one_sequential_prefix():
    # quantile keeps the bits of np.cumsum + np.searchsorted; cdf moves from
    # numpy's pairwise sum of the weights at or below x to the sequential
    # prefix sum, within n eps of it
    rng = np.random.default_rng(11)
    for i in range(300):
        n = int(rng.integers(1, 200))
        values = rng.gamma(2.0, 5.0, n)
        if i % 3 == 0:
            values = np.round(values)  # ties, merged into heavier atoms
        if i % 2:
            law = DiscreteDistribution.from_samples(values.tolist())
        else:
            law = DiscreteDistribution.from_pairs(values.tolist(), rng.dirichlet(np.ones(n)).tolist())
        s, w = law.support_array(), law.weights_array()
        cum = np.cumsum(w)
        edges = [min(float(cum[j]), 1.0) for j in rng.integers(0, len(cum), 4)]
        for kappa in [*rng.uniform(1e-9, 1.0, 6).tolist(), *edges, 1.0]:
            idx = int(np.searchsorted(cum, kappa - 1e-12, side="left"))
            q = law.quantile(kappa)
            assert q == law.support[min(idx, len(law.support) - 1)]
            assert law.cdf(q) >= kappa - 1e-12
        for x in [*law.support, *rng.uniform(-1.0, s[-1] + 1.0, 4).tolist()]:
            pairwise = float(w[s <= x + 1e-12].sum())
            assert abs(law.cdf(x) - pairwise) <= len(w) * np.finfo(float).eps


@pytest.mark.parametrize(
    "values, weights, message",
    [
        ([1.0, math.nan], [0.5, 0.5], "support must be finite, got nan"),
        ([1.0, math.inf], [0.5, 0.5], "support must be finite, got inf"),
        ([-math.inf, 1.0], [0.5, 0.5], "support must be finite, got -inf"),
        ([1.0, 2.0], [math.nan, 1.0], "weights must be finite, got nan"),
        ([1.0, 2.0], [math.inf, 1.0], "weights must be finite, got inf"),
        ([1.0, 2.0], [-math.inf, 1.0], "weights must be finite, got -inf"),
        ([-2e-9, 1.0], [0.5, 0.5], "support must be >= 0, got -2e-09"),
        ([1.0, 2.0], [-2e-12, 1.0 + 2e-12], "weights must be >= 0, got -2e-12"),
        ([1.0, 2.0], [1.0], "support and weights must have equal length"),
        ([], [], "support must be non-empty"),
        ([1.0, 2.0], [0.5, 0.5 + 2e-9], "weights must sum to 1 within 1e-9, got 1.0000000020000002"),
        ([1.0, 2.0], [0.5, 0.5 - 2e-9], "weights must sum to 1 within 1e-9, got 0.9999999980000001"),
        ([1.0, 2.0], [1e308, 1e308], "weights must sum to 1 within 1e-9, got inf"),
        # several defects: every point is checked before any weight, in input
        # order, and the mass last
        ([math.nan, 1.0], [-0.5, 1.5], "support must be finite, got nan"),
        ([1.0, 2.0, math.inf], [math.nan, 0.5, 0.5], "support must be finite, got inf"),
        ([-1.0, math.nan], [0.5, 0.5], "support must be >= 0, got -1.0"),
        ([2.0, 1.0, -5.0], [0.2, 0.2, 0.2], "support must be >= 0, got -5.0"),
        ([1.0, 2.0], [0.5, -1.0, 0.5], "support and weights must have equal length"),
        ([], [1.0], "support must be non-empty"),
        ([1.0, math.nan], [0.5, 0.5 + 2e-9], "support must be finite, got nan"),
        ([3.0, 1.0], [1.0, math.inf], "weights must be finite, got inf"),
    ],
    ids=["nan-point", "inf-point", "minus-inf-point", "nan-weight", "inf-weight",
         "minus-inf-weight", "point-below-dust", "weight-below-dust", "unequal-lengths",
         "empty", "mass-above", "mass-below", "mass-overflow", "nan-point-and-negative-weight",
         "inf-point-and-nan-weight", "negative-point-before-nan", "unsorted-with-negative-point",
         "unequal-lengths-with-negative-weight", "empty-with-a-weight", "nan-point-and-bad-mass",
         "unsorted-with-inf-weight"],
)
def test_from_pairs_rejects_bad_atoms(values, weights, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        DiscreteDistribution.from_pairs(values, weights)


_CONSTRUCTOR_REJECTS = [
    ((2.0, 1.0), (0.5, 0.5), "support must be strictly increasing"),
    ((1.0, 1.0), (0.5, 0.5), "support must be strictly increasing"),
    ((1.0, 2.0), (-0.5, 1.5), "weights must be >= 0, got -0.5"),
    ((-1e-12, 1.0), (0.5, 0.5), "support must be >= 0, got -1e-12"),
    ((1.0, 2.0), (0.5, 0.5 + 2e-12), "weights must sum to 1 within 1e-12, got 1.000000000002"),
    ((1.0, 2.0), (1.0,), "support and weights must have equal length"),
    ((), (), "support must be non-empty"),
    ((1.0, 2.0), (1e308, 1e308), "weights must sum to 1 within 1e-12, got inf"),
    # several defects: the per-atom checks, then the order, then the mass
    ((2.0, 1.0), (0.5, 0.6), "support must be strictly increasing"),
    ((2.0, 1.0), (-0.5, 1.5), "weights must be >= 0, got -0.5"),
    ((2.0, math.nan), (0.5, 0.5), "support must be finite, got nan"),
    ((math.nan,), (1.0,), "support must be finite, got nan"),
    ((1.0, 2.0), (math.nan, 1.0), "weights must be finite, got nan"),
    ((1.0, 2.0), (1.0, math.nan), "weights must be finite, got nan"),
    ((1.0, -1.0), (-0.5, 1.5), "support must be >= 0, got -1.0"),
    ((3.0, 2.0, 1.0), (0.5, 0.5), "support and weights must have equal length"),
    ((1.0, math.inf), (0.5, 0.5 + 2e-12), "support must be finite, got inf"),
]


@pytest.mark.parametrize(
    "support, weights, message",
    _CONSTRUCTOR_REJECTS,
    ids=["unsorted", "repeated", "negative-weight", "negative-point", "mass-off",
         "unequal-lengths", "empty", "mass-overflow", "unsorted-and-mass-off",
         "unsorted-and-negative-weight", "unsorted-nan", "lone-nan", "nan-weight-first",
         "nan-weight-last", "negative-point-and-weight", "unequal-lengths-and-unsorted",
         "inf-point-and-mass-off"],
)
def test_constructor_rejects_broken_invariants(support, weights, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        DiscreteDistribution(support, weights)


@dataclasses.dataclass(frozen=True)
class _GeneratedLaw:
    """``DiscreteDistribution`` with the generated ``__init__`` and the
    ``__post_init__`` it had before its constructor was written by hand."""

    support: tuple
    weights: tuple

    def __post_init__(self):
        sup, wts = _frozen_floats("support", self.support), _frozen_floats("weights", self.weights)
        if not (
            sup
            and len(sup) == len(wts)
            and sup[0] >= 0.0
            and sup[-1] < math.inf
            and all(a < b for a, b in zip(sup, sup[1:]))
            and min(wts) >= 0.0
            and abs(_fsum_or_inf(wts) - 1.0) <= 1e-12
        ):
            sp._check_atoms(sup, wts)
            require(all(a < b for a, b in zip(sup, sup[1:])), "support must be strictly increasing")
            raise InputError(f"weights must sum to 1 within 1e-12, got {_fsum_or_inf(wts)!r}")
        object.__setattr__(self, "support", tuple(sup))
        object.__setattr__(self, "weights", tuple(wts))


def test_constructor_keeps_the_dataclass_behaviour():
    law = DiscreteDistribution([1.0, 2.5], np.array([0.25, 0.75]))
    assert [f.name for f in dataclasses.fields(law)] == ["support", "weights"]
    assert law == DiscreteDistribution(support=(1.0, 2.5), weights=(0.25, 0.75))
    assert hash(law) == hash(DiscreteDistribution((1, 2.5), (0.25, 0.75)))
    assert law != DiscreteDistribution((1.0, 2.5), (0.75, 0.25)) and law != (law.support, law.weights)
    assert repr(law) == "DiscreteDistribution(support=(1.0, 2.5), weights=(0.25, 0.75))"
    assert pickle.loads(pickle.dumps(law)) == law
    assert copy.deepcopy(law) == law
    moved = dataclasses.replace(law, support=[0.5, 2.5])
    assert moved == DiscreteDistribution((0.5, 2.5), (0.25, 0.75)) and type(moved.support) is tuple
    with pytest.raises(InputError, match="^support must be strictly increasing$"):
        dataclasses.replace(law, support=(2.5, 1.0))  # replace runs the checks
    with pytest.raises(dataclasses.FrozenInstanceError):
        law.support = (1.0, 3.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del law.weights
    with pytest.raises(TypeError):
        DiscreteDistribution((1.0,))


def test_constructor_raises_as_the_generated_one_did():
    # the constructor table, then seeded atoms in every argument kind: the
    # same fields, bit for bit, or the same exception class and message
    cases = [(sup, wts) for sup, wts, _ in _CONSTRUCTOR_REJECTS]
    cases += [((1.0, 2.0), ("0.25", b"0.75")), ((1.0, None), (0.5, 0.5)), ((1.0,), 1.0)]
    for sup, wts in cases:
        args = (lambda: sup, lambda: wts)
        assert _law_bits(DiscreteDistribution, *args) == _law_bits(_GeneratedLaw, *args), (sup, wts)
    rng = np.random.default_rng(27_270)
    outcomes = Counter()
    for _ in range(3_000):
        atoms = _constructor_atoms(rng)
        kinds = [_ARG_KINDS[k] for k in rng.integers(0, len(_ARG_KINDS), 2).tolist()]
        args = [_as_arg(xs, kind) for xs, kind in zip(atoms, kinds)]
        want = _law_bits(_GeneratedLaw, *args)
        assert _law_bits(DiscreteDistribution, *args) == want, (atoms, kinds)
        unread = not isinstance(want, list) and "1-D sequence" in want[1]  # a 2-D argument
        outcomes["law" if isinstance(want, list) else "unread" if unread else want[0].__name__] += 1
    assert outcomes["law"] >= 300 and outcomes["InputError"] >= 300 and outcomes["unread"] >= 30, outcomes


def test_from_pairs_clamps_dust_merges_and_drops_zero_weights():
    d = DiscreteDistribution.from_pairs([-5e-10, 2.0], [0.5, 0.5])
    assert d.support == (0.0, 2.0) and math.copysign(1.0, d.support[0]) == 1.0
    d = DiscreteDistribution.from_pairs([-0.0, 2.0, 3.0], [0.5, 0.5, -5e-13])
    assert d.support == (0.0, 2.0) and math.copysign(1.0, d.support[0]) == 1.0
    assert d.weights == (0.5, 0.5)
    # within 1e-12 relative the first point of the cluster carries its mass
    d = DiscreteDistribution.from_pairs([1e6 * (1 + 5e-13), 1e6, 1.0 + 1e-11], [0.25, 0.5, 0.25])
    assert d.support == (1.0 + 1e-11, 1e6) and d.weights == (0.25, 0.75)
    d = DiscreteDistribution.from_pairs([1.0, 2.0, 3.0], [0.5, 0.0, 0.5])
    assert d.support == (1.0, 3.0) and d.weights == (0.5, 0.5)


def test_from_samples_merges_100_000_rounded_draws():
    draws = np.round(np.random.default_rng(17).gamma(3.0, 2.0, 100_000), 2)
    d = DiscreteDistribution.from_samples(draws)
    values, counts = np.unique(draws, return_counts=True)
    assert d.support == tuple(values.tolist()) and len(d.support) == 2_171
    np.testing.assert_allclose(d.weights, counts / draws.size, rtol=1e-12, atol=0.0)


def test_from_pairs_sums_tied_weights_in_input_order():
    def law(tied_mass):
        total = math.fsum([tied_mass, 0.4])
        return (1.0, 2.0), (tied_mass / total, 0.4 / total)

    in_order = law((0.1 + 0.2) + 0.3)
    assert in_order != law((0.3 + 0.2) + 0.1)  # the order shows in the bits
    d = DiscreteDistribution.from_pairs([1.0, 2.0, 1.0, 1.0], [0.1, 0.4, 0.2, 0.3])
    assert (d.support, d.weights) == in_order


def _numpy_from_pairs(values, weights):
    """The earlier numpy implementation of ``from_pairs``, kept as the parity
    reference: its support and weights, or the class of its exception."""
    v = np.asarray(list(values), dtype=float)
    w = np.asarray(list(weights), dtype=float)
    if not (v.size > 0 and v.size == w.size and np.all(np.isfinite(v))
            and np.all(np.isfinite(w)) and np.all(w >= -1e-12) and np.all(v >= -1e-9)):
        return InputError
    w = np.maximum(w, 0.0)
    v = np.maximum(v, 0.0)
    order = np.argsort(v, kind="stable")
    out_v, out_w = [], []
    for x, p in zip(v[order], w[order]):
        if out_v and abs(x - out_v[-1]) <= 1e-12 * max(1.0, abs(out_v[-1])):
            out_w[-1] += p
        else:
            out_v.append(x)
            out_w.append(p)
    total = math.fsum(out_w)
    if not abs(total - 1.0) <= 1e-9:
        return InputError
    keep = [(float(x), float(p / total)) for x, p in zip(out_v, out_w) if p > 0.0]
    return tuple(x for x, _ in keep), tuple(p for _, p in keep)


def _atoms_with_edge_cases(rng):
    """Seeded atoms of 1 to 200 points with exact ties, near ties, -0.0, dust
    within the bounds, zero weights, and (rarely) NaN, a mass off by ~1e-9 or
    a point or weight just past its dust bound."""
    n = int(rng.integers(1, 201))
    scale = float(10 ** rng.uniform(-3, 3))
    if rng.uniform() < 0.3:
        v = (rng.integers(0, max(1, n // 3), n) * scale).tolist()
    else:
        v = (rng.gamma(2.0, 3.0, n) * scale).tolist()
    w = rng.dirichlet(np.ones(n)).tolist()
    for j in range(n):
        u = rng.uniform()
        if u < 0.05:
            v[j] = -0.0
        elif u < 0.08:
            v[j] = -float(rng.uniform(0.0, 1e-9))
        elif u < 0.1 and j > 0:
            v[j] = v[j - 1] * (1.0 + float(rng.uniform(-2e-12, 2e-12)))
        u = rng.uniform()
        if u < 0.05:
            w[j] = 0.0
        elif u < 0.07:
            w[j] = -float(rng.uniform(0.0, 1e-12))
    positive = math.fsum(x for x in w if x > 0.0)
    w = [x / positive if x > 0.0 else x for x in w]
    u = rng.uniform()
    if u < 0.03:
        v[int(rng.integers(n))] = math.nan
    elif u < 0.05:
        w[int(rng.integers(n))] += float(rng.uniform(-3e-9, 3e-9))
    elif u < 0.06:
        v[int(rng.integers(n))] = -float(rng.uniform(1e-9, 2e-9))
    elif u < 0.07:
        w[int(rng.integers(n))] = -float(rng.uniform(1e-12, 2e-12))
    return v, w


def test_from_pairs_is_bit_equal_to_the_numpy_reference():
    rng = np.random.default_rng(4_242)
    outcomes = {"law": 0, "rejected": 0}
    for _ in range(1_000):
        v, w = _atoms_with_edge_cases(rng)
        want = _numpy_from_pairs(v, w)
        try:
            d = DiscreteDistribution.from_pairs(v, w)
            got = (d.support, d.weights)
        except InputError:
            got = InputError
        outcomes["law" if got is not InputError else "rejected"] += 1
        if got is InputError or want is InputError:
            assert got is want, (v, w)
        else:  # hex tells the sign of zero apart
            assert [[x.hex() for x in xs] for xs in got] == [[x.hex() for x in xs] for xs in want]
    assert min(outcomes.values()) >= 40, outcomes


def _frozen_floats(name, xs):
    """``float()`` of each element of the atom list ``name``; what it rejects
    is an input error naming the list."""
    try:
        return [float(x) for x in xs]
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{name} must be a 1-D sequence of finite numbers: {exc}") from None


def _frozen_checked_atoms(values, weights, v_slack=0.0, w_slack=0.0, names=("values", "weights")):
    """``_checked_atoms`` as it stood before the one-pass law checks."""
    vs = _frozen_floats(names[0], values)
    ws = _frozen_floats(names[1], weights)
    require(len(vs) > 0, "support must be non-empty")
    require(len(vs) == len(ws), "support and weights must have equal length")
    for name, xs, floor in (("support", vs, -v_slack), ("weights", ws, -w_slack)):
        for x in xs:
            if not floor <= x < math.inf:
                require_finite(name, x)
                raise InputError(f"{name} must be >= 0, got {x!r}")
    return vs, ws


def _frozen_law(support, weights):
    """The constructor's checks (``__post_init__``) as they stood before the
    one-pass law checks: the fields it stores."""
    sup, wts = _frozen_checked_atoms(support, weights, names=("support", "weights"))
    if not all(a < b for a, b in zip(sup, sup[1:])):
        raise InputError("support must be strictly increasing")
    total = _fsum_or_inf(wts)
    if not abs(total - 1.0) <= 1e-12:
        raise InputError(f"weights must sum to 1 within 1e-12, got {total!r}")
    return tuple(sup), tuple(wts)


def _frozen_from_pairs(values, weights):
    """``from_pairs`` as it stood before the one-pass law checks."""
    vs, ws = _frozen_checked_atoms(values, weights, v_slack=1e-9, w_slack=1e-12)
    clamped = [(v if v > 0.0 else 0.0, w if w > 0.0 else 0.0) for v, w in zip(vs, ws)]
    sup, mass = [], []
    for v, w in sorted(clamped, key=lambda atom: atom[0]):
        if sup and v - sup[-1] <= 1e-12 * max(1.0, sup[-1]):
            mass[-1] += w
        else:
            sup.append(v)
            mass.append(w)
    total = _fsum_or_inf(mass)
    if not abs(total - 1.0) <= 1e-9:
        raise InputError(f"weights must sum to 1 within 1e-9, got {total!r}")
    keep = [(v, w / total) for v, w in zip(sup, mass) if w > 0.0]
    return _frozen_law(tuple(v for v, _ in keep), tuple(w for _, w in keep))


def _frozen_from_samples(values):
    """``from_samples`` as it stood before the one-pass law checks."""
    v = list(values)
    require(len(v) > 0, "need at least one sample")
    return _frozen_from_pairs(v, [1.0 / len(v)] * len(v))


def _law_bits(build, *args):
    """The ``float.hex`` of a law's support and weights (and that they are
    plain floats), or the class and message of what building it raised."""
    try:
        law = build(*(make() for make in args))
    except Exception as exc:
        return type(exc), str(exc)
    support, weights = law if isinstance(law, tuple) else (law.support, law.weights)
    return [[type(x) is float and x.hex() for x in xs] for xs in (support, weights)]


_ARG_KINDS = ("list", "tuple", "generator", "np.float64 list", "float64", "float32",
              "int64", "object", "2-D")


def _as_arg(xs, kind):
    """A factory of ``xs`` as one input type (a fresh generator on every call)."""
    arr = np.array(xs, dtype=float)
    if kind == "int64" and np.isfinite(arr).all():
        arr = np.trunc(4.0 * arr).astype(np.int64)  # ints: ties, and masses far off
    elif kind == "float32":
        arr = arr.astype(np.float32)
    elif kind == "object":
        arr = np.array(xs, dtype=object)
    elif kind == "2-D":
        arr = arr.reshape((-1, 1) if len(xs) % 2 else (1, -1))
    return {
        "list": lambda: list(xs),
        "tuple": lambda: tuple(xs),
        "generator": lambda: (x for x in xs),
        "np.float64 list": lambda: [np.float64(x) for x in xs],
    }.get(kind, lambda: arr)


def _parity_atoms(rng):
    """Seeded atoms, 1 to 40 of them: -0.0, dust and exact zeros, exact ties,
    ties within and just past 1e-12 relative (chained when consecutive), zero
    and dust weights, and in a quarter of the draws up to three defects: NaN,
    +-inf, a mass off by about 1e-9, a point or weight past its dust bound, a
    missing or extra weight."""
    n = int(rng.integers(1, 41))
    scale = float(10 ** rng.uniform(-3, 3))
    if rng.uniform() < 0.3:
        v = (rng.integers(0, max(1, n // 3), n) * scale).tolist()
    else:
        v = (rng.gamma(2.0, 3.0, n) * scale).tolist()
    w = rng.dirichlet(np.ones(n)).tolist()
    u, dust, rel, u_w, dust_w = rng.uniform(size=(5, n)).tolist()
    for j in range(n):
        if u[j] < 0.06:
            v[j] = -0.0
        elif u[j] < 0.1:
            v[j] = -1e-9 * dust[j]
        elif u[j] < 0.13:
            v[j] = 0.0
        elif u[j] < 0.25 and j > 0:
            v[j] = v[j - 1] * (1.0 + 4e-12 * (rel[j] - 0.5))
        if u_w[j] < 0.06:
            w[j] = 0.0
        elif u_w[j] < 0.09:
            w[j] = -1e-12 * dust_w[j]
    positive = math.fsum(x for x in w if x > 0.0)
    w = [x / positive if x > 0.0 else x for x in w]
    for _ in range(int(rng.integers(1, 4)) if rng.uniform() < 0.25 else 0):
        j, kind = int(rng.integers(n)), int(rng.integers(6))
        if kind == 0:
            v[j] = math.nan
        elif kind == 1:
            v[j] = float(rng.choice([math.inf, -math.inf]))
        elif kind == 2:
            w[j] = float(rng.choice([math.nan, math.inf, -math.inf]))
        elif kind == 3:
            w[j] += float(rng.uniform(-3e-9, 3e-9))
        elif kind == 4:
            v[j] = -float(rng.uniform(1e-9, 2e-9))
        else:
            w[j] = -float(rng.uniform(1e-12, 2e-12))
    u = rng.uniform()
    if u < 0.01:
        w.pop()
    elif u < 0.02:
        w.append(0.0)
    return v, w


def _constructor_atoms(rng):
    """Seeded strictly increasing atoms, 0 to 40 of them, some starting at
    -0.0 or 0.0, and in half of the draws up to three defects: a swapped or
    repeated point, a negative, NaN or infinite point or weight, a mass off by
    up to 1e-11, a missing weight."""
    n = int(rng.integers(1, 41)) if rng.uniform() < 0.99 else 0
    v = np.cumsum(rng.gamma(1.0, 2.0, n) * float(10 ** rng.uniform(-3, 3))).tolist()
    if n and rng.uniform() < 0.2:
        v[0] = float(rng.choice([0.0, -0.0]))
    w = (rng.dirichlet(np.ones(n)) if n else np.zeros(0)).tolist()
    for _ in range(int(rng.integers(1, 4)) if n and rng.uniform() < 0.5 else 0):
        j, kind = int(rng.integers(n)), int(rng.integers(7))
        if kind == 0 and j > 0:
            v[j - 1], v[j] = v[j], v[j - 1]
        elif kind == 1 and j > 0:
            v[j] = v[j - 1]
        elif kind == 2:
            v[j] = -float(10 ** rng.uniform(-13, 1))
        elif kind == 3:
            v[j] = float(rng.choice([math.nan, math.inf]))
        elif kind == 4:
            w[j] = -float(10 ** rng.uniform(-13, -1))
        elif kind == 5:
            w[j] = float(rng.choice([math.nan, math.inf, -math.inf]))
        else:
            w[j] += float(rng.uniform(-1e-11, 1e-11))
    if n and rng.uniform() < 0.02:
        w.pop()
    return v, w


def _history_samples(rng):
    """Demand histories like the catalog's: 30 to 400 gamma draws, a third of
    them rounded to 6 decimals as in the demand CSVs, and a fifth with a
    defect: a tie, a zero, -0.0, dust or a NaN."""
    n = int(rng.integers(30, 401))
    mu = float(10 ** rng.uniform(-2, 4))
    sigma = mu * float(rng.uniform(0.1, 1.5))
    v = rng.gamma((mu / sigma) ** 2, sigma**2 / mu, n)
    if rng.uniform() < 1 / 3:
        v = np.round(v, 6)
    v = v.tolist()
    if rng.uniform() < 0.2:
        j = int(rng.integers(1, n))
        v[j] = [v[j - 1], 0.0, -0.0, -1e-9 * float(rng.uniform()), math.nan][int(rng.integers(5))]
    return (v,)


def test_law_building_is_bit_equal_to_the_per_atom_reference(monkeypatch):
    # the one-pass checks and transforms give the same laws, bit for bit, and
    # the same exception class and message as the per-atom loops they replace
    rng = np.random.default_rng(8_128)
    cases = [
        (DiscreteDistribution.from_pairs, _frozen_from_pairs, _parity_atoms, 8_000),
        (DiscreteDistribution, _frozen_law, _constructor_atoms, 8_000),
        (DiscreteDistribution.from_samples, _frozen_from_samples, _parity_atoms, 4_000),
        (DiscreteDistribution.from_samples, _frozen_from_samples, _history_samples, 1_500),
    ]
    # a history law that never reaches from_pairs was sorted by from_samples
    from_pairs, routed = DiscreteDistribution.from_pairs.__func__, Counter()

    def counted(cls, values, weights):
        routed["from_pairs"] += 1
        return from_pairs(cls, values, weights)

    monkeypatch.setattr(DiscreteDistribution, "from_pairs", classmethod(counted))
    seen = Counter()
    for build, frozen, draw, n_cases in cases:
        n_args = 1 if frozen is _frozen_from_samples else 2
        for _ in range(n_cases):
            atoms = draw(rng)[:n_args]
            # half the arguments are lists, a sixteenth each of the other kinds
            kinds = [_ARG_KINDS[max(0, k - 7)] for k in rng.integers(0, 16, n_args).tolist()]
            args = [_as_arg(xs, kind) for xs, kind in zip(atoms, kinds)]
            want = _law_bits(frozen, *args)
            reached = routed["from_pairs"]
            assert _law_bits(build, *args) == want, (build, atoms, kinds)
            if draw is _history_samples:
                if routed["from_pairs"] > reached:
                    seen["history", "from_pairs"] += 1
                elif isinstance(want, list):  # sorted; then merged or clamped?
                    fixed = len(want[0]) < len(atoms[0]) or want[0][0] == (0.0).hex()
                    seen["history", "sorted, merged or clamped" if fixed else "sorted"] += 1
            if isinstance(want, list):
                seen[frozen.__name__, "law"] += 1
            else:  # an InputError by its message, another error by its class
                seen[frozen.__name__, re.split("[,:]", want[1])[0] if want[0] is InputError else want[0]] += 1
    for name in ("_frozen_from_pairs", "_frozen_law", "_frozen_from_samples"):
        assert seen[name, "law"] >= 500, seen
    assert seen["history", "sorted"] >= 500, seen
    assert seen["history", "sorted, merged or clamped"] >= 100 and seen["history", "from_pairs"] >= 30, seen
    for key in [
        ("_frozen_from_pairs", "support must be finite"),
        ("_frozen_from_pairs", "weights must be finite"),
        ("_frozen_from_pairs", "support must be >= 0"),
        ("_frozen_from_pairs", "weights must be >= 0"),
        ("_frozen_from_pairs", "weights must sum to 1 within 1e-9"),
        ("_frozen_from_pairs", "support and weights must have equal length"),
        ("_frozen_from_pairs", "values must be a 1-D sequence of finite numbers"),  # a 2-D array
        ("_frozen_law", "support must be strictly increasing"),
        ("_frozen_law", "support must be finite"),
        ("_frozen_law", "weights must be finite"),
        ("_frozen_law", "support must be >= 0"),
        ("_frozen_law", "weights must be >= 0"),
        ("_frozen_law", "weights must sum to 1 within 1e-12"),
        ("_frozen_law", "support must be non-empty"),
        ("_frozen_from_samples", "support must be finite"),
    ]:
        assert seen[key] >= 20, (key, seen)


def test_equal_masses_total_as_their_fsum():
    # n equal masses x total x * n: fsum and the product both round n x once,
    # so the law, its weights and the mass error keep every bit
    rng = np.random.default_rng(28_028)
    big, seen = sys.float_info.max, Counter()
    for i in range(6_000):
        n = int(10 ** rng.uniform(0, 5))
        x = [1.0 / n, float(rng.uniform(0.0, 2.0)) / n, (1.0 + float(rng.uniform(-2e-9, 2e-9))) / n,
             float(2.0 ** rng.uniform(-1074, 1023)), math.nextafter(big / max(n, 2), math.inf)][i % 5]
        total = _fsum_or_inf([x] * n)
        assert (x * n).hex() == total.hex(), (x, n)
        seen["overflow" if total == math.inf else "within 1e-9" if abs(total - 1.0) <= 1e-9 else "off"] += 1
        if n <= 300:
            args = [_as_arg(xs, "list") for xs in (list(map(float, range(n))), [x] * n)]
            want = _law_bits(_frozen_from_pairs, *args)
            assert _law_bits(DiscreteDistribution.from_pairs, *args) == want, (x, n)
    assert min(seen.values()) >= 200 and len(seen) == 3, seen
    with pytest.raises(InputError, match=re.escape("weights must sum to 1 within 1e-9, got 0.6")):
        DiscreteDistribution.from_pairs([1, 2], [0.3, 0.3])


def _tolerance_neighbours(rng, dtype):
    """A history of 30 to 120 points below 1 with neighbours planted at the
    1e-12 merge tolerance.  float32: pairs ``x`` and ``x + k u``, ``u`` the
    float32 spacing at ``x`` ~ 1e-7..3e-6, with ``k u`` the last step within
    the tolerance or the first past it.  float64: ``0.0`` (or ``-0.0``, dust)
    and ``1e-12`` exactly at the tolerance, or one ulp past it."""
    n = int(rng.integers(30, 121))
    if dtype is np.float32:
        v = (rng.gamma(2.0, 1.0, n) * float(10 ** rng.uniform(-7, -6))).astype(np.float32)
        for j in rng.choice(n - 1, size=int(rng.integers(1, 6)), replace=False).tolist():
            x = float(v[j])
            u = float(np.spacing(v[j]))
            v[j + 1] = x + (math.floor(1e-12 / u) + int(rng.integers(0, 2))) * u
        return v
    v = rng.uniform(0.1, 0.9, n)
    v[0] = [0.0, -0.0, -1e-9 * float(rng.uniform())][int(rng.integers(3))]
    v[1] = 1e-12 if rng.uniform() < 0.5 else float(np.nextafter(1e-12, 1.0))
    return rng.permutation(v)


def test_array_histories_are_bit_equal_to_the_per_atom_reference():
    # a 1-D float array is sorted as float64 by numpy: the laws and errors are
    # the reference's, for float64, float32 and float16 histories with ties,
    # -0.0, dust and NaN, for neighbours planted at the 1e-12 merge tolerance,
    # and at the ends of the array path's test
    edges = [[], [-0.0], [-0.0, 0.0, -1e-9], [2.0, -1e-9 - 1e-18, 1.0], [1.0, -math.inf],
             [math.nan, 1.0], [math.nan, math.inf, 1.0], [1e308, 1.5e308, 0.5], [math.inf, 1.0],
             [3.0, 3.0, 1.0]]
    for values in edges:
        for dtype in (np.float64, np.float32, np.float16):
            with np.errstate(over="ignore"):
                arr = np.array(values, dtype=dtype)
            want = _law_bits(_frozen_from_samples, lambda: arr)
            assert _law_bits(DiscreteDistribution.from_samples, lambda: arr) == want, arr
    rng = np.random.default_rng(27_272)
    seen = Counter()
    draws = [(np.float64, 2_000), (np.float32, 2_000), (np.float16, 2_000)]
    draws += [(np.float32, -500), (np.float64, -500)]  # planted at the tolerance
    for dtype, n_cases in draws:
        for _ in range(abs(n_cases)):
            if n_cases > 0:
                with np.errstate(over="ignore"):  # float16 overflows to inf
                    arr = np.array(_history_samples(rng)[0]).astype(dtype)
            else:
                arr = _tolerance_neighbours(rng, dtype)
            want = _law_bits(_frozen_from_samples, lambda: arr)
            assert _law_bits(DiscreteDistribution.from_samples, lambda: arr) == want, (dtype, arr)
            kind = ("planted " if n_cases < 0 else "") + np.dtype(dtype).name
            if isinstance(want, list):
                seen[kind, "merged" if len(want[0]) < arr.size else "law"] += 1
            else:
                seen[kind, want[1].split(",")[0]] += 1
    for dtype in ("float64", "float32", "float16"):
        assert seen[dtype, "law"] >= 200 and seen[dtype, "merged"] >= 100, seen
        assert seen[dtype, "support must be finite"] >= 50, seen
    for kind in ("planted float32", "planted float64"):
        assert seen[kind, "merged"] >= 100 and seen[kind, "law"] >= 50, seen



def _from_samples_with_a_list_arm(values):
    """``from_samples`` as it stood with two sorts: numpy for a float vector,
    ``sorted`` for every other input."""
    cls = DiscreteDistribution
    if sp._float_vector(values) and values.size:
        arr = values.astype(np.float64)
        arr.sort()
        if -1e-9 <= arr[0] and arr[-1] < math.inf:
            if not arr[0] > 0.0:
                arr[arr <= 0.0] = 0.0
            return cls._from_sorted(arr.tolist(), [1.0 / arr.size] * arr.size)
    vs = sp._floats(values, "values")
    n = len(vs)
    require(n > 0, "need at least one sample")
    if math.isfinite(sum(vs)):
        sup = sorted(vs)
        if sup[0] >= -1e-9:
            if not sup[0] > 0.0:
                sup = [v if v > 0.0 else 0.0 for v in sup]
            return cls._from_sorted(sup, [1.0 / n] * n)
    return cls.from_pairs(vs, [1.0 / n] * n)


def test_every_sample_input_sorts_as_the_list_arm_did():
    # one sort for every input: the laws and the errors, which name the
    # first bad sample in input order, a generator read once
    cases = [
        [3.0, math.nan, -5.0], [-5.0, math.nan, 3.0], [math.nan, 1.0], [2.0, math.inf, math.nan],
        [1e308, 1.5e308, 0.5], [3.0, 1.0, 2.0, 2.0], [-0.0, 5.0, 0.0, -1e-10],
        [4.0, -1e-9 - 1e-18], [], [1.0, -math.inf],
    ]
    for values in cases:
        for kind in ("list", "tuple", "generator", "np.float64 list", "float64"):
            make = _as_arg(values, kind)
            want = _law_bits(_from_samples_with_a_list_arm, make)
            assert _law_bits(DiscreteDistribution.from_samples, make) == want, (values, kind)

def test_ell_examples_match_inner_min_oracle():
    cases = [
        (1.0, 2.0, 3.0, 3.0),
        (1.0, 3.0, 2.0, -5.0),
        (1.0, 3.0, 6.0, 21.0),
    ]
    for alpha, q, v, expected in cases:
        closed = ell(alpha, q, v, COST)
        assert closed == pytest.approx(expected, abs=1e-12)
        hi = v + COST.price / (2 * alpha) + 1
        grid_val = inner_min_oracle(alpha, q, v, COST, np.linspace(0, hi, 6001))
        assert abs(closed - grid_val) <= 5e-3


def test_zero_index_is_degenerate_at_every_entry_after_its_own_checks():
    m = MomentSpec(4.0, 2.0)
    calls = [
        lambda: transform(0.0, 10.0, 1.0),
        lambda: ell(0.0, 1.0, 1.0, COST),
        lambda: ell(0.0, 1.0, np.array([1.0, 2.0]), COST),
        lambda: worst_case_transformed_expectation(0.0, 1.0, m, COST),
        lambda: misspec_worst_case(0.0, 1.0, m, COST),
        lambda: lambda_breakpoints([ProductSpec(10.0, 3.0, 4.0)], 0.0),
    ]
    for call in calls:
        with pytest.raises(DegenerateModelError, match=r"^alpha = 0 \(strongest"):
            call()
    # each entry's own input checks come first, and L_alpha(0) is 0 at any index
    with pytest.raises(InputError, match="price"):
        transform(0.0, -1.0, 1.0)
    with pytest.raises(InputError, match="q must be >= 0"):
        misspec_worst_case(0.0, -1.0, m, COST)
    assert worst_case_transformed_expectation(0.0, 0.0, m, COST) == 0.0


def test_ell_limits():
    with pytest.raises(DegenerateModelError):
        ell(0.0, 1.0, 1.0, COST)
    assert ell(INF, 2, 3, COST) == profit(2, 3, COST)
    # large alpha: the envelope sits p^2/(4 alpha) below the profit on v <= q
    assert ell(1000.0, 3, 2, COST) == pytest.approx(profit(3, 2, COST) - 100 / 4000)


def test_ell_continuity_at_branch_seams():
    rng = np.random.default_rng(20240816)
    for _ in range(100):
        alpha = float(rng.uniform(0.2, 8))
        p = float(rng.uniform(2, 20))
        c = float(rng.uniform(0.2, 0.9)) * p
        cost = CostStructure(p, c)
        q = p / (4 * alpha) * float(rng.uniform(1.01, 3.0))  # upper branch pair
        seam = p / (2 * alpha)
        below = ell(alpha, q, seam - 1e-9, cost)
        above = ell(alpha, q, seam + 1e-9, cost)
        assert abs(below - above) < 1e-6


def test_array_ell_and_profit_are_bit_equal_to_the_scalar_forms():
    # alpha log-uniform in [1e-3, 1e15] plus 10% INFINITY, demand scales 1e-2..1e4;
    # q = 0 and the branch seam q = p*inv/4 are included, and v sits on every
    # breakpoint of ell as well as at random points
    rng = np.random.default_rng(6_000)
    for k in range(20_000):
        alpha = INF if rng.uniform() < 0.1 else float(10 ** rng.uniform(-3, 15))
        inv = sp.as_misspec_index(alpha).inv
        mu = float(10 ** rng.uniform(-2, 4))
        p = float(10 ** rng.uniform(-1, 2))
        cost = CostStructure(p, p * float(rng.uniform(0.01, 0.99)))
        q = (0.0, p * inv / 4, mu * float(rng.uniform(0.0, 3.0)))[k % 3]
        breaks = [0.0, math.sqrt(q * p * inv), p * inv / 2, q + p * inv / 4]
        v = np.concatenate([breaks, mu * rng.uniform(0.0, 3.0, 6)])
        for fn, args in ((ell, (alpha, q)), (profit, (q,))):
            want = np.array([fn(*args, float(x), cost) for x in v])
            assert fn(*args, v, cost).tobytes() == want.tobytes(), (fn, alpha, q, mu, p)


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_array_demand_with_a_bad_entry_is_rejected(bad):
    v = np.array([0.0, 2.0, bad, 5.0])
    with pytest.raises(InputError):
        ell(4.0, 2.0, v, COST)
    with pytest.raises(InputError):
        profit(2.0, v, COST)


@pytest.mark.parametrize("alpha", [1e-3, 4.0, 1e6, math.inf])
def test_ell_core_rows_are_bit_equal_to_stacked_ell_rows(alpha):
    # q = 0, below the seam q = p/(4 alpha) (none at alpha = inf), on it, above it
    seam = COST.price / (4.0 * alpha)
    qs = [0.0, 0.5 * seam, seam, seam + 0.7, 3.0, 25.0]
    a = sp.as_misspec_index(alpha)
    v = np.concatenate([np.linspace(0.0, 20.0, 161), [seam, 2.0 * seam, 1e-9]])
    want = np.array([ell(alpha, q, v, COST) for q in qs])
    got = sp._ell_core(a, np.array(qs)[:, None], v, COST)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    grid = v.reshape(4, 41)  # an n-d demand array keeps its shape per row
    want = np.array([ell(alpha, q, grid, COST) for q in qs])
    assert sp._ell_core(a, np.array(qs)[:, None, None], grid, COST).tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "alpha, q, v, error, message",
    [
        (0.0, 1.0, [0.0, 5.0], DegenerateModelError, "alpha = 0 (strongest"),
        (4.0, -1.0, [0.0, 5.0], InputError, "q must be >= 0, got -1.0"),
        (4.0, math.nan, [0.0, 5.0], InputError, "q must be finite, got nan"),
        (4.0, 1.0, [0.0, -2.0], InputError, "v entries must be finite and >= 0"),
        (4.0, 1.0, [0.0, math.nan], InputError, "v entries must be finite and >= 0"),
        (4.0, -1.0, [0.0, -2.0], InputError, "q must be >= 0, got -1.0"),  # q before v
    ],
)
def test_array_ell_raises_in_reading_order(alpha, q, v, error, message):
    with pytest.raises(error) as got:
        ell(alpha, q, np.array(v), COST)
    assert str(got.value).startswith(message)


def _ell_before_the_transform(alpha, q, v, cost):
    """The envelope's own piecewise formula, as ``ell`` computed it before it
    read the transform: frozen here as the reference for the rounding bound."""
    p, c = cost.price, cost.cost
    pinv = p * sp.as_misspec_index(alpha).inv
    if 4.0 * q <= pinv:
        return (alpha * v * v if v * v < q * pinv else p * q) - c * q
    if 2.0 * v < pinv:
        return alpha * v * v - c * q
    return sp._profit(q, v - 0.25 * pinv, cost)


def _and_neighbours(x):
    """``x`` and the floats on either side of it, those >= 0 (-0.0 included)."""
    return [y for y in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)) if y >= 0.0]


def _envelope_table(instances, seed):
    """``(alpha, cost, q, demands)``: alpha log-uniform in [1e-3, 1e15] * p/10
    (every tenth INFINITY), p in [0.1, 100]; q is 0.0 or -0.0, the regime seam
    ``4q = p/alpha`` or a float next to it, or log-uniform in [1e-2, 1e4]; the
    demands are 0.0, -0.0, the seams ``2v = p/alpha``, ``v^2 = q p/alpha`` and
    ``v = q`` with their neighbouring floats, and eight log-uniform in
    [1e-2, 1e4]."""
    rng = np.random.default_rng(seed)
    for k in range(instances):
        p = float(10 ** rng.uniform(-1, 2))
        cost = CostStructure(p, p * float(rng.uniform(0.01, 0.99)))
        alpha = math.inf if k % 10 == 0 else p / 10 * float(10 ** rng.uniform(-3, 15))
        if k % 4 == 0:
            q = (0.0, -0.0)[k // 4 % 2]
        elif k % 4 == 1:
            seam = _and_neighbours(p * sp.as_misspec_index(alpha).inv / 4)
            q = seam[int(rng.integers(0, len(seam)))]
        else:
            q = float(10 ** rng.uniform(-2, 4))
        demands = [
            0.0, -0.0,
            *_and_neighbours(p / alpha / 2),
            *_and_neighbours(math.sqrt(q * p / alpha)),
            *_and_neighbours(q),
            *map(float, 10 ** rng.uniform(-2, 4, 8)),
        ]
        yield alpha, cost, q, demands


def test_ell_is_the_profit_of_the_transformed_demand():
    # both arms are profit(q, transform(alpha, p, q).apply(v)) bit for bit, on
    # 110,100 points.  Against the envelope's own formula they differ by
    # rounding only: the products (alpha/p) v v times p against alpha v v, and
    # p/alpha against p * (1/alpha), carry a few ulps of p q, and the last
    # subtraction one ulp of (p + c) q; where the two sides take different
    # pieces at a seam, the pieces agree to second order there.  That bounds
    # the gap by about 4.5 eps (p + c) q; the test allows 8 eps (p + c) q and
    # measured at most 1.48 eps (p + c) q.  At q = 0 both are exactly 0.
    eps = 2.0**-52
    points = worst = 0
    for alpha, cost, q, demands in _envelope_table(6_000, 35):
        t = transform(alpha, cost.price, q)
        want = np.array([profit(q, t.apply(v), cost) for v in demands])
        floats = np.array([ell(alpha, q, v, cost) for v in demands])
        assert floats.tobytes() == want.tobytes(), (alpha, cost, q)
        assert ell(alpha, q, np.array(demands), cost).tobytes() == want.tobytes(), (alpha, cost, q)
        before = np.array([_ell_before_the_transform(alpha, q, v, cost) for v in demands])
        gap = float(np.max(np.abs(want - before)))
        scale = eps * (cost.price + cost.cost) * q
        assert gap <= 8.0 * scale, (alpha, cost, q, gap / scale if scale else gap)
        worst = max(worst, gap / scale) if scale else worst
        points += len(demands)
    assert points >= 100_000 and 1.0 < worst < 1.5, (points, worst)


def test_array_profit_takes_the_float_conditional_on_signed_zeros():
    for q, v in ((0.0, -0.0), (-0.0, 0.0), (0.0, 0.0), (-0.0, -0.0)):
        want = np.array([profit(q, v, COST)] * 20).tobytes()
        assert profit(q, np.full(20, v), COST).tobytes() == want, (q, v)
        assert ell(INF, q, np.full(20, v), COST).tobytes() == want, (q, v)


@pytest.mark.parametrize("q", [0.0, 1.0])
def test_a_slope_beyond_the_float_range_is_an_input_error(q):
    # alpha/p = 1e315: the transform maps 0 to inf * 0 = NaN, and the envelope
    # would be NaN (array) or p q - c q (float) at v = 0, where it is -c q
    cost = CostStructure(1e-300, 5e-301)
    calls = [
        lambda: transform(1e15, 1e-300, q),
        lambda: ell(1e15, q, 0.0, cost),
        lambda: ell(1e15, q, np.zeros(3), cost),
        lambda: ell(1e15, q, np.array(0.0), cost),
        lambda: sp._ell_core(MisspecIndex(1e15), np.array([[q], [2.0]]), np.zeros(3), cost),
    ]
    for call in calls:
        with pytest.raises(InputError, match="^" + re.escape(
            "alpha/p leaves the float range at price=1e-300, alpha=1000000000000000.0"
        ) + "$"):
            call()
    # each entry reads its own arguments first
    with pytest.raises(InputError, match="^q must be >= 0"):
        ell(1e15, -1.0, 0.0, cost)
    with pytest.raises(InputError, match="^v must be >= 0"):
        ell(1e15, q, -1.0, cost)
    with pytest.raises(InputError, match="^price must be"):
        transform(1e15, -1.0, q)
    # eight decades lower the slope 1e307 is finite: apply(0) = 0, ell = -c q
    t = transform(1e7, 1e-300, q)
    assert t.apply(0.0) == 0.0 and ell(1e7, q, 0.0, cost) == -cost.cost * q
    assert ell(1e7, q, np.zeros(2), cost).tolist() == [-cost.cost * q] * 2


# ---------------------------------------------------------------------------
# transform machinery
# ---------------------------------------------------------------------------


def test_transform_examples():
    t = transform(1.0, 10.0, 0.1)
    assert t.regime is TransformRegime.QUADRATIC
    assert t.apply(2.0) == pytest.approx(0.4)

    t2 = transform(10.0, 10.0, 1.0)
    assert t2.regime is TransformRegime.MIXED
    assert t2.apply(0.4) == pytest.approx(0.16)
    assert t2.apply(1.0) == pytest.approx(0.75)

    for spec in (t, t2, transform(INF, 10.0, 1.0)):
        assert spec.apply(0.0) == 0.0
    with pytest.raises(InputError, match=re.escape("v must be >= 0, got -1.0")):
        transform(1.0, 10.0, 1.0).apply(-1.0)


def test_transform_regime_boundary_consistency():
    # alpha exactly p/(4q) classifies as MIXED and the two pieces agree
    p, q = 10.0, 2.0
    alpha = p / (4 * q)
    t = transform(alpha, p, q)
    assert t.regime is TransformRegime.MIXED
    seam = p / (2 * alpha)
    assert t.apply(seam - 1e-12) == pytest.approx(t.apply(seam), abs=1e-9)


def test_transform_is_increasing_and_continuous():
    rng = np.random.default_rng(7)
    for _ in range(50):
        alpha = float(rng.uniform(0.1, 20))
        p = float(rng.uniform(1, 30))
        q = float(rng.uniform(0, 10))
        t = transform(alpha, p, q)
        vs = np.sort(rng.uniform(0, 15, size=40))
        images = [t.apply(v) for v in vs]
        assert all(b >= a - 1e-12 for a, b in zip(images, images[1:]))


def test_push_forward_examples():
    # infinite index: identity transform
    d5 = DiscreteDistribution.point_mass(5.0)
    assert push_forward(d5, transform(INF, 10.0, 1.0)).support == (5.0,)

    # the MIXED transform at alpha=1, p=10 needs q >= 2.5
    g = DiscreteDistribution.from_pairs([2, 8], [0.5, 0.5])
    t = transform(1.0, 10.0, 4.0)
    assert t.regime is TransformRegime.MIXED
    image = push_forward(g, t)
    assert image.support == pytest.approx((0.4, 5.5))
    assert image.weights == pytest.approx((0.5, 0.5))
    assert sum(image.weights) == pytest.approx(1.0, abs=1e-12)


def test_push_forward_merges_coincident_images():
    # both atoms of a two-point law map to the junction value p/(4 alpha)
    alpha, p = 1.0, 10.0
    t = transform(alpha, p, 4.0)
    seam = p / (2 * alpha)
    g = DiscreteDistribution.from_pairs([seam, seam + p / (4 * alpha)], [0.4, 0.6])
    image = push_forward(g, t)
    assert image.support[0] == pytest.approx(p / (4 * alpha))


def test_transform_identity_pointwise_and_in_expectation():
    rng = np.random.default_rng(99)
    for _ in range(200):
        alpha = float(rng.uniform(0.05, 15))
        p = float(rng.uniform(2, 25))
        c = p * float(rng.uniform(0.1, 0.9))
        cost = CostStructure(p, c)
        q = float(rng.uniform(0, 8))
        v = float(rng.uniform(0, 12))
        t = transform(alpha, p, q)
        assert profit(q, t.apply(v), cost) == pytest.approx(
            ell(alpha, q, v, cost), abs=1e-9
        )
        mu = float(rng.uniform(1, 8))
        sigma = float(rng.uniform(0.1, 0.9)) * mu
        g = two_point(mu, sigma, float(rng.uniform(0, mu * 0.95)))
        lhs = push_forward(g, t).expectation(lambda u: profit(q, u, cost))
        rhs = g.expectation(lambda u: ell(alpha, q, u, cost))
        assert lhs == pytest.approx(rhs, abs=1e-9)


# ---------------------------------------------------------------------------
# ambiguity-only solver
# ---------------------------------------------------------------------------


def test_fractile_factor_is_posed_on_the_open_unit_interval():
    assert fractile_factor(0.5) == 0.0
    for x in (0.0, 1.0):
        with pytest.raises(InputError, match=re.escape(f"fractile_factor needs x in (0, 1), got {x!r}")):
            fractile_factor(x)


def test_scarf_frozen_example():
    r = scarf_quantity(M42, COST)
    assert r.regime is Regime.AMBIGUITY_ONLY
    assert r.quantity == pytest.approx(4.872872, abs=5e-6)
    assert r.quantity == pytest.approx(4 + 2 * fractile_factor(0.3), abs=1e-12)
    assert r.value == pytest.approx(4 * 7 - 2 * math.sqrt(21), abs=1e-9)
    assert r.value == pytest.approx(18.834850, abs=5e-6)


def test_scarf_zero_variance_orders_the_mean():
    r = scarf_quantity(MomentSpec(4, 0), COST)
    assert r.quantity == 4.0
    assert r.value == pytest.approx(28.0)
    assert r.worst_case.support == (4.0,)


def test_scarf_degenerate_branch():
    r = scarf_quantity(MomentSpec(1, 3), CostStructure(10, 9))
    assert r.regime is Regime.DEGENERATE
    assert r.quantity == 0.0
    assert r.value == 0.0
    # worst case at q=0: atoms {0, (mu^2+sigma^2)/mu}
    assert r.worst_case.support == pytest.approx((0.0, 10.0))
    assert r.worst_case.weights == pytest.approx((0.9, 0.1))


def test_scarf_worst_case_attains_the_value():
    rng = np.random.default_rng(31)
    for _ in range(100):
        mu = float(rng.uniform(0.5, 10))
        sigma = float(rng.uniform(0, 0.9)) * mu
        p = float(rng.uniform(2, 30))
        c = p * float(rng.uniform(0.05, 0.95))
        cost = CostStructure(p, c)
        m = MomentSpec(mu, sigma)
        r = scarf_quantity(m, cost)
        attained = r.worst_case.expectation(lambda v: profit(r.quantity, v, cost))
        assert attained == pytest.approx(r.value, abs=1e-8)
        assert r.worst_case.mean() == pytest.approx(mu, abs=1e-9 * max(1, mu))
        assert r.worst_case.second_moment() == pytest.approx(
            m.second_moment, rel=1e-9, abs=1e-9
        )


def test_scarf_is_misspec_quantity_at_the_infinite_index():
    rng = np.random.default_rng(77)
    checked = {"zero_variance": 0, "degenerate": 0, "ambiguity_only": 0}
    for i in range(300):
        mu = float(10 ** rng.uniform(-2, 4))
        sigma = 0.0 if i % 10 == 0 else mu * float(10 ** rng.uniform(-4, 0.7))
        p = float(rng.uniform(1, 40))
        cost = CostStructure(p, p * float(rng.uniform(0.02, 0.98)))
        m = MomentSpec(mu, sigma)
        r = scarf_quantity(m, cost)
        assert r == misspec_quantity(INF, m, cost)
        if sigma == 0.0:
            checked["zero_variance"] += 1
        if r.regime is Regime.DEGENERATE:
            checked["degenerate"] += 1
            assert r.quantity == 0.0 and r.value == 0.0
        else:
            checked["ambiguity_only"] += 1
            assert r.regime is Regime.AMBIGUITY_ONLY
            # Scarf's closed-form value mu(p - c) - sigma sqrt(c(p - c))
            c = cost.cost
            closed = mu * (p - c) - sigma * math.sqrt(c * (p - c))
            assert r.value == pytest.approx(closed, rel=1e-11, abs=1e-11 * mu * p)
    assert min(checked.values()) >= 10, checked


def _count_checked_evaluation(monkeypatch):
    """Count the calls of each stage of the checked evaluation."""
    calls = {}

    def counted(obj, name):
        inner = getattr(obj, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(obj, name, wrapper)

    counted(sp, "_value")  # the value function
    counted(sp, "_worst_case_law")
    counted(sp, "_check_moments")
    counted(sp, "_check_attainment")
    counted(sp, "_dual_certificate")
    counted(sp, "_check_certificate")
    return calls


@pytest.mark.parametrize("alpha", [0.5, 4.0, 1e6, INF])
def test_one_solve_builds_and_checks_the_report_once(alpha, monkeypatch):
    calls = _count_checked_evaluation(monkeypatch)
    misspec_quantity(alpha, M42, COST)
    assert calls == dict.fromkeys(calls, 1) and len(calls) == 6, calls


@pytest.mark.parametrize("alpha", [0.5, 4.0, 1e6, INF])
def test_one_report_builds_one_transform(alpha, monkeypatch):
    # the image law is built from the checked evaluation's own images: a
    # report builds no TransformSpec at all
    built = []
    inner = sp.TransformSpec.__init__
    monkeypatch.setattr(
        sp.TransformSpec, "__init__", lambda self, *args: built.append(args) or inner(self, *args)
    )
    misspec_quantity(alpha, M42, COST)
    assert built == [], built


@pytest.mark.parametrize("alpha", [0.5, 4.0, 1e6, INF])
def test_quantity_only_solve_checks_once_and_builds_no_law(alpha, monkeypatch):
    report = misspec_quantity(alpha, M42, COST)
    calls = _count_checked_evaluation(monkeypatch)
    laws = []
    init = DiscreteDistribution.__init__
    monkeypatch.setattr(
        DiscreteDistribution, "__init__", lambda d, *args: laws.append(args) or init(d, *args)
    )
    assert sp._solve(alpha, M42, COST) == (report.quantity, report.value)
    assert calls == dict.fromkeys(calls, 1) and len(calls) == 6, calls
    assert laws == []


def _random_instance(rng):
    """Seeded instance over the whole range: mu 1e-2..1e4, sigma/mu 1e-6..3
    (10% sigma = 0), p 0.1..100, alpha 1e-3..1e15 * p/10 (10% INFINITY and
    a few alpha = 0)."""
    mu = float(10 ** rng.uniform(-2, 4))
    sigma = 0.0 if rng.uniform() < 0.1 else mu * float(10 ** rng.uniform(-6, math.log10(3)))
    p = float(10 ** rng.uniform(-1, 2))
    cost = CostStructure(p, p * float(rng.uniform(0.01, 0.99)))
    u = rng.uniform()
    if u < 0.1:
        alpha = INF
    elif u < 0.11:
        alpha = 0.0
    else:
        alpha = float(10 ** rng.uniform(-3, 15)) * p / 10
    return alpha, MomentSpec(mu, sigma), cost


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the exception class is the outcome to compare
        return type(exc)


def test_quantity_only_solve_is_bit_equal_to_the_report():
    rng = np.random.default_rng(20_000)
    for _ in range(20_000):
        alpha, m, cost = _random_instance(rng)
        report = _outcome(misspec_quantity, alpha, m, cost)
        want = report if isinstance(report, type) else (report.quantity, report.value)
        assert _outcome(sp._solve, alpha, m, cost) == want, (alpha, m, cost)


def test_expected_profits_are_bit_equal_to_the_expectation():
    rng = np.random.default_rng(3_000)
    for _ in range(3_000):
        scale = float(10 ** rng.uniform(-2, 4))
        n = int(rng.integers(1, 200))
        dist = DiscreteDistribution.from_samples(scale * rng.gamma(2.0, 0.5, size=n))
        p = float(10 ** rng.uniform(-1, 2))
        cost = CostStructure(p, p * float(rng.uniform(0.01, 0.99)))
        q = scale * float(rng.uniform(0.0, 3.0))
        want = dist.expectation(lambda v: profit(q, v, cost))
        assert list(sp._expected_profits(dist, (q,), cost)) == [want]


# frozen copies of the per-quantity scorers that the array cores replaced


def _ref_test_profit(q, demands, cost):
    q = require_nonnegative("q", q)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(cost.price * np.minimum(q, demands) - cost.cost * q))
    if not math.isfinite(mean):
        raise InputError(f"the out-of-sample profit of q={q!r} leaves the float range")
    return mean


def _ref_expected_profit(dist, q, cost):
    terms = dist.weights_array() * (cost.price * np.minimum(q, dist.support_array()) - cost.cost * q)
    return math.fsum(terms.tolist())


def _core_shapes(rng):
    """(quantities, demands): every demand count around the edges of numpy's
    pairwise-sum blocks (8 accumulators, 128-element blocks), then random
    shapes up to 400 x 400."""
    for n in [*range(1, 18), 127, 128, 129, 255, 256, 257]:
        yield int(rng.integers(1, 401)), n
    for _ in range(60):
        yield int(rng.integers(1, 401)), int(rng.integers(1, 401))


def test_profit_cores_are_bit_equal_to_the_per_quantity_scorers():
    rng = np.random.default_rng(2_300)
    for k, n in _core_shapes(rng):
        scale = float(10 ** rng.uniform(-2, 4))
        demands = scale * rng.gamma(2.0, 0.5, size=n)
        p = float(10 ** rng.uniform(-1, 2))
        cost = CostStructure(p, p * float(rng.uniform(0.01, 0.99)))
        qs = (scale * rng.uniform(0.0, 3.0, size=k)).tolist()
        qs[0] = 0.0
        qs[-1] = 2.0 * float(demands.max()) + 1.0  # above every demand
        if k > 2:
            qs[1] = float(demands[0])  # on a demand
        prices = (p * rng.uniform(1.0, 3.0, size=k)).tolist()

        means = sp._test_profits(qs, demands, cost)
        want = [_ref_test_profit(q, demands, cost) for q in qs]
        assert np.array(list(sp._checked_test_profits(qs, means))).tobytes() == (
            np.array(want).tobytes()), (k, n)
        means = sp._test_profits(qs, demands, cost, prices)
        want = [_ref_test_profit(q, demands, CostStructure(pr, cost.cost))
                for q, pr in zip(qs, prices)]
        assert np.array(means).tobytes() == np.array(want).tobytes(), (k, n)

        dist = DiscreteDistribution.from_samples(demands)
        got = list(sp._expected_profits(dist, qs, cost))
        want = [_ref_expected_profit(dist, q, cost) for q in qs]
        assert np.array(got).tobytes() == np.array(want).tobytes(), (k, n)


def test_held_out_check_raises_at_the_first_bad_row_in_order():
    demands = np.array([1.0, 2.0, 4.0])
    cost = CostStructure(1e308, 1.0)
    # row 1's mean overflows; row 2's q is negative; row 0 reads fine
    qs = [0.5, 400.0, -1.0]
    means = sp._test_profits(qs, demands, cost)
    with pytest.raises(InputError, match=r"^the out-of-sample profit of q=400.0 leaves"):
        list(sp._checked_test_profits(qs, means))
    # a negative q whose mean is finite still fails
    with pytest.raises(InputError, match=r"^q must be >= 0, got -1.0$"):
        list(sp._checked_test_profits(qs[::2], sp._test_profits(qs[::2], demands, COST)))
    with pytest.raises(InputError, match=r"^q must be finite, got nan$"):
        list(sp._checked_test_profits([0.5, math.nan], sp._test_profits([0.5, math.nan], demands, cost)))
    # rows are checked as they are read: the first row comes out before the failure
    rows = sp._checked_test_profits(qs, means)
    assert next(rows) == _ref_test_profit(0.5, demands, cost)
    with pytest.raises(InputError):
        next(rows)


def test_a_model_beyond_the_float_range_is_bad_input_not_an_internal_failure():
    # mu near sqrt(DBL_MAX): the upper atom's square, p*q or p*mu leave the
    # float range while the model itself is finite; every solve either
    # succeeds or rejects the price and the demand scale as bad input
    rng = np.random.default_rng(19_748)
    root = math.sqrt(sys.float_info.max)
    outcomes = {}
    for _ in range(4_000):
        mu = root * float(rng.uniform(0.5, 1.0))
        sigma = mu * float(10 ** rng.uniform(-12, 0))
        alpha, _, cost = _random_instance(rng)
        if not math.isfinite(mu * mu + sigma * sigma):
            continue  # MomentSpec rejects it
        m = MomentSpec(mu, sigma)
        for solve in (sp._solve, misspec_quantity):
            outcome = _outcome(solve, alpha, m, cost)
            assert outcome is not InternalCheckError, (alpha, m, cost)
            key = outcome.__name__ if isinstance(outcome, type) else "ok"
            outcomes[key] = outcomes.get(key, 0) + 1
    assert outcomes["ok"] > 6_000 and outcomes["InputError"] > 100, outcomes
    with pytest.raises(InputError, match=r"float range at price=1e\+156, demand mean=2e\+152"):
        misspec_quantity(INF, MomentSpec(2e152, 1e152), CostStructure(1e156, 3e152))
    # a finite mismatch stays an internal failure: see the perturbed-weight test below


def test_an_overflowing_worst_case_atom_is_a_float_range_error():
    # the upper atom is inf: the error names the price and moments, not a v
    m, cost = MomentSpec(1.9660094589254924e151, 1.010112630803899e151), CostStructure(1e153, 3e152)
    with pytest.raises(InputError, match=r"float range at price=1e\+153, demand mean=1\.966"):
        misspec_quantity(1.0, m, cost)


def test_an_index_whose_reciprocal_overflows_is_named():
    # 1/5e-309 is inf and 1/6e-309 is not: the price and the demand are
    # ordinary, so the error names the index, on every path that solves it
    m, cost = MomentSpec(4.0, 2.0), CostStructure(10.0, 3.0)
    assert misspec_quantity(6e-309, m, cost).quantity == 1.1389783492531057e-308
    # the unchecked value too, which would read inv = inf as alpha = 0 (-c*q)
    assert worst_case_transformed_expectation(6e-309, 1e-308, m, cost) == 3.0000000000000007e-308
    for alpha in (5e-309, 1e-310):
        assert MisspecIndex(alpha).inv == math.inf
        want = re.escape(f"1/alpha leaves the float range at alpha={alpha!r}")
        for solve in (
            lambda: misspec_quantity(alpha, m, cost),
            lambda: misspec_quantity(alpha, MomentSpec(4.0, 0.0), cost),
            lambda: misspec_worst_case(alpha, 1.0, m, cost),
            lambda: worst_case_transformed_expectation(alpha, 1e-308, m, cost),
            lambda: sp._solve(alpha, m, cost),
        ):
            with pytest.raises(InputError, match=want):
                solve()
    # the batch arm hands the point to the scalar solve, whose error it keeps
    solved, error = sp._solves([5e-309, 4.0], 4.0, 2.0, 10.0, 3.0)
    assert solved == [] and isinstance(error, InputError)
    assert str(error) == "1/alpha leaves the float range at alpha=5e-309"


@pytest.mark.parametrize(
    "alpha, q, m, cost, checks",
    [
        # the upper atom's square overflows: the moment check fails on it
        (4.0, 1e306, M42, COST, 1),
        # p/(4h) underflows to 0 in the certificate: no check runs
        (INF, 2e24, MomentSpec(1e24, 5e23), CostStructure(1e-300, 3e-301), 0),
    ],
)
def test_worst_case_law_beyond_the_float_range_is_bad_input(alpha, q, m, cost, checks, monkeypatch):
    calls = _count_checked_evaluation(monkeypatch)
    with pytest.raises(InputError, match="leaves the float range at price="):
        misspec_worst_case(alpha, q, m, cost)
    # the failure is classified from the numbers at hand: every stage ran once
    stages = ("_value", "_worst_case_law", "_dual_certificate")
    assert calls == {**dict.fromkeys(stages, 1), **({"_check_moments": 1} if checks else {})}


def test_perturbed_atom_weight_fails_the_quantity_only_solve(monkeypatch):
    law = sp._worst_case_law

    def perturbed(*args):
        support, weights = law(*args)
        k = int(np.argmax(weights))
        bumped = weights[k] * (1.0 + 1e-6)
        return support, weights[:k] + (bumped,) + weights[k + 1 :]

    monkeypatch.setattr(sp, "_worst_case_law", perturbed)
    rng = np.random.default_rng(7)
    solved = 0
    while solved < 300:
        alpha, m, cost = _random_instance(rng)
        if alpha == 0.0:
            continue
        with pytest.raises(InternalCheckError):
            sp._solve(alpha, m, cost)
        solved += 1


# ---------------------------------------------------------------------------
# frozen reference: the three-pass checked evaluation
# ---------------------------------------------------------------------------
# A copy of the checked evaluation as it stood before the region was formed
# once per evaluation: the value function, the worst-case law and the
# certificate each form their own region, the images come from a
# TransformSpec-style apply, and the checks sum with generator fsums.  It calls
# no stage of the package's evaluation (only the law constructors, and
# ambiguity_worst_case for the alpha = 0 report), so a drift in any stage
# shows as a difference against it.


def _ref_second(m):
    mean, std = float(m.mean), float(m.std)
    return mean * mean + std * std


def _ref_region(inv, q, m, p):
    mu, sig = m.mean, m.std
    pinv = p * inv
    pqi = p * (q * inv)
    if q >= 0.25 * pinv and (2.0 * mu - pinv) * q >= _ref_second(m) - 0.5 * pinv * mu:
        u = q + 0.25 * pinv
        x = u - mu
        h = math.hypot(x, sig)
        return True, h <= 1e-12 * u, x, h, u, pqi
    x = pqi + sig * sig - mu * mu
    h = math.hypot(x, 2.0 * mu * sig)
    w = pqi + _ref_second(m)
    return False, h <= 1e-12 * w, x, h, w, pqi


def _ref_two_point(lo, hi, x, y, h):
    big = (h + abs(x)) / (2.0 * h)
    small = y * y / (2.0 * h * (h + abs(x)))
    return (max(lo, 0.0), hi), ((big, small) if x >= 0.0 else (small, big))


def _ref_law(inv, q, m, p):
    mu, sig = m.mean, m.std
    in_q, point_mass, x, h, z, pqi = _ref_region(inv, q, m, p)
    if point_mass:
        return (mu if in_q else 0.5 * z / mu,), (1.0,)
    if in_q:
        lo = mu - sig * sig / (h + x) if x > 0.0 else z - h
        return _ref_two_point(lo, z + h, x, sig, h)
    return _ref_two_point(2.0 * mu * pqi / (z + h), (z + h) / (2.0 * mu), x, 2.0 * mu * sig, h)


def _ref_value(a, q, m, cost):
    if q == 0.0:
        return 0.0
    mu = m.mean
    p, c = cost.price, cost.cost
    in_q, _, _, h, z, _ = _ref_region(a.inv, q, m, p)
    if in_q:
        return 0.5 * p * (mu - z - h) + (p - c) * q
    return 2.0 * mu * mu * p * q / (z + h) - c * q


def _ref_duals(a, q, m, cost):
    mu = m.mean
    p, c = cost.price, cost.cost
    in_q, point_mass, _, h, z, pqi = _ref_region(a.inv, q, m, p)
    if point_mass:
        return ()
    if in_q:
        r = p / (4.0 * h)
        s = 0.5 * p + 2.0 * r * z
        t = p * p / (16.0 * r) + r * z * z + 0.5 * p * z - (p - c) * q
    else:
        s = 2.0 * mu * p * q / h
        r = 2.0 * mu * mu * p * q / ((z + h) * h)
        t = r * pqi + c * q
    return (("s_alpha", s), ("r_alpha", r), ("t_alpha", t))


def _ref_apply(a, p, q, v):
    v = float(v)
    if not (v >= -0.0 and math.isfinite(v)):
        raise InputError(f"v must be >= 0, got {v!r}")
    if not 4.0 * q < p * a.inv:  # MIXED
        pinv = float(p) / a.alpha
        if 2.0 * v >= pinv:
            return v - 0.25 * pinv
    return (a.alpha / float(p)) * v * v


def _ref_evaluate(a, q, m, cost):
    """(value, atoms, duals) of the three-pass evaluation, or its exception."""
    p, c = cost.price, cost.cost
    value = _ref_value(a, q, m, cost)
    atoms = _ref_law(a.inv, q, m, p)
    images = tuple(_ref_apply(a, p, q, v) for v in atoms[0])
    support, weights = atoms
    second_m = _ref_second(m)
    mass = math.fsum(weights)
    mean = math.fsum(v * w for v, w in zip(support, weights))
    second = math.fsum(v * v * w for v, w in zip(support, weights))
    tol = 1e-9 * max(1.0, second_m)
    if not (abs(mass - 1.0) <= 1e-9 and abs(mean - m.mean) <= tol and abs(second - second_m) <= tol):
        raise InternalCheckError(
            f"constructed law violates its moment constraints: mass {mass!r}, mean "
            f"{mean!r} vs {m.mean!r}, second moment {second!r} vs {second_m!r}"
        )
    attained = math.fsum(w * (p * min(q, v) - c * q) for v, w in zip(images, weights))
    if not abs(attained - value) <= 1e-9 * max(1.0, abs(value)):
        raise InternalCheckError(
            f"worst-case law fails to attain the value function: "
            f"{attained!r} vs {value!r} at alpha={a!r}, q={q!r}"
        )
    duals = _ref_duals(a, q, m, cost)
    if duals:
        d = dict(duals)
        s, r, t = d["s_alpha"] * m.mean, d["r_alpha"] * second_m, d["t_alpha"]
        dual_value = s - r - t
        tol = 1e-9 * max(1.0, abs(value)) + 16.0 * 2.0**-52 * (abs(s) + abs(r) + abs(t))
        if not abs(dual_value - value) <= tol:
            raise InternalCheckError(f"dual certificate mismatch: {dual_value!r} vs {value!r}")
    return value, atoms, duals


def _ref_in_float_range(a, q, m, cost):
    """The float-range predicate as it stood when it re-ran every stage: the
    value, each term that the checks sum and the sum of their sizes are
    finite, and no divisor of the stages underflowed to 0."""
    p, c = cost.price, cost.cost
    try:
        value = _ref_value(a, q, m, cost)
        support, weights = _ref_law(a.inv, q, m, p)
        images = [_ref_apply(a, p, q, v) for v in support]
        duals = _ref_duals(a, q, m, cost)
    except ZeroDivisionError:
        return False
    terms = [value, *(v * v * w for v, w in zip(support, weights))]
    terms += [w * (p * min(q, v) - c * q) for v, w in zip(images, weights)]
    terms += [x * y for (_, x), y in zip(duals, (m.mean, _ref_second(m), 1.0))]
    return math.isfinite(_fsum_or_inf(map(abs, terms)))


def _ref_checked(a, q, m, cost):
    """:func:`_ref_evaluate`, with a failed check whose terms leave the float
    range (by the frozen predicate), or a worst-case atom that overflowed to
    inf or NaN, reported as bad input."""
    try:
        return _ref_evaluate(a, q, m, cost)
    except (InternalCheckError, OverflowError, ZeroDivisionError):
        if _ref_in_float_range(a, q, m, cost):
            raise
    except InputError:  # _ref_apply names a bad atom as a v
        if all(map(math.isfinite, _ref_law(a.inv, q, m, cost.price)[0])):
            raise
    raise InputError(
        f"the worst-case value or a term of its checks leaves the float range at "
        f"price={cost.price!r}, demand mean={m.mean!r}, std={m.std!r}"
    )


def _ref_quantity(a, m, cost):
    kappa = cost.kappa
    mu, sig = m.mean, m.std
    p = cost.price
    if kappa < sig * sig / _ref_second(m):
        return 0.0, Regime.DEGENERATE
    margin = mu - sig * math.sqrt((1.0 - kappa) / kappa)
    threshold = p / (2.0 * margin) if margin > 0.0 else math.inf
    x = 1.0 - kappa
    f = (1.0 - 2.0 * x) / (2.0 * math.sqrt(x * (1.0 - x)))
    if a.alpha >= threshold:
        q = mu + sig * f - p / (4.0 * a.alpha)
        regime = Regime.AMBIGUITY_ONLY if a.is_infinite else Regime.HIGH_ALPHA
    else:
        q = (mu * mu - sig * sig + 2.0 * mu * sig * f) * a.alpha / p
        regime = Regime.LOW_ALPHA
    return max(q, 0.0), regime


def _ref_laws(a, q, atoms, cost):
    """The worst-case law and its image, the image formed by the frozen apply."""
    g_star = DiscreteDistribution.from_pairs(*atoms)
    image = tuple(_ref_apply(a, cost.price, q, v) for v in g_star.support)
    if image == g_star.support:
        return g_star, g_star
    return g_star, DiscreteDistribution.from_pairs(image, g_star.weights)


def _ref_report(a, m, cost):
    if a.alpha == 0.0:
        g_star = ambiguity_worst_case(0.0, m)
        return sp.SolveReport(0.0, 0.0, Regime.DEGENERATE, a, g_star, g_star)
    q, regime = _ref_quantity(a, m, cost)
    value, atoms, duals = _ref_checked(a, q, m, cost)
    return sp.SolveReport(q, value, regime, a, *_ref_laws(a, q, atoms, cost), duals)


def _ref_solve(a, m, cost):
    if a.alpha == 0.0:
        return 0.0, 0.0
    q, _ = _ref_quantity(a, m, cost)
    return q, _ref_checked(a, q, m, cost)[0]


def _exact(fn, *args):
    """``repr`` of the result, or the exception's class and message: equal
    outcomes agree to the last bit, in the sign of a zero and in every word
    of an error."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # the exception is the outcome to compare
        return f"{type(exc).__name__}: {exc}"


def _parity_instance(rng):
    """alpha log-uniform over 1e-3..1e15 * p/10 (5% INFINITY, 1% zero), mu over
    1e-2..1e4, sigma/mu over 1e-10..3 (5% sigma = 0), p over 0.1..100, and
    an off-form quantity: a multiple 1e-3..1e3 of the closed form, 0, or an
    order of 1e305..1e308, whose atoms or moments leave the float range."""
    mu = float(10 ** rng.uniform(-2, 4))
    sigma = 0.0 if rng.uniform() < 0.05 else mu * float(10 ** rng.uniform(-10, math.log10(3)))
    p = float(10 ** rng.uniform(-1, 2))
    cost = CostStructure(p, p * float(rng.uniform(0.01, 0.99)))
    u = rng.uniform()
    if u < 0.05:
        alpha = INF
    elif u < 0.06:
        alpha = MisspecIndex(0.0)
    else:
        alpha = MisspecIndex(float(10 ** rng.uniform(-3, 15)) * p / 10)
    v = rng.uniform()
    if v < 0.05:
        off = 0.0
    elif v < 0.1:
        off = float(10 ** rng.uniform(305, 308))
    else:
        off = float(10 ** rng.uniform(-3, 3))  # times the closed form, below
    return alpha, MomentSpec(mu, sigma), cost, off


def test_checked_evaluation_matches_the_frozen_three_pass_reference():
    rng = np.random.default_rng(14_014)
    seen, reclassified = {}, 0
    for _ in range(20_000):
        a, m, cost, off = _parity_instance(rng)
        want = _exact(_ref_report, a, m, cost)
        assert _exact(misspec_quantity, a, m, cost) == want, (a, m, cost)
        assert _exact(sp._solve, a, m, cost) == _exact(_ref_solve, a, m, cost), (a, m, cost)
        if a.alpha == 0.0:
            continue
        q_star = _ref_quantity(a, m, cost)[0]
        q = off if off == 0.0 or off > 1e100 else q_star * off
        # the closed form, then off it with the same model: a region kept
        # from the first evaluation would be stale in the second
        for at in (q_star, q):
            three_pass = _exact(_ref_evaluate, a, at, m, cost)
            want = _exact(_ref_checked, a, at, m, cost)
            assert _exact(_without_images, a, at, m, cost) == want, (a, at, m, cost)
            kind = three_pass.split(":")[0] if not three_pass.startswith("(") else "ok"
            seen[kind] = seen.get(kind, 0) + 1
            reclassified += want != three_pass
        laws = _exact(lambda: _ref_laws(a, q, _ref_checked(a, q, m, cost)[1], cost))
        assert _exact(misspec_worst_case, a, q, m, cost) == laws, (a, q, m, cost)
    # the set reaches the image check and the moment check, not only clean solves
    assert seen["ok"] > 30_000 and seen["InputError"] > 100 and seen["InternalCheckError"] > 100, seen
    # every failed check at an order of 1e305..1e308 leaves the float range, and
    # so does every worst-case atom that overflowed (127 of these)
    assert reclassified == 994, reclassified


def _without_images(a, q, m, cost):
    """The checked evaluation's value, atoms and certificate: its images dropped."""
    value, atoms, _, duals = sp._checked_evaluation(a, q, m, cost)
    return value, atoms, duals


def _unchecked_transform(alpha, price, q):
    """The TransformSpec that ``transform(alpha, price, q)`` builds, also at a
    slope ``alpha/price`` beyond the float range, which ``transform`` now
    rejects while a report there still builds its laws from finite images."""
    a = sp.as_misspec_index(alpha)
    mixed = not sp._quadratic(q, price * a.inv)
    regime = TransformRegime.MIXED if mixed else TransformRegime.QUADRATIC
    return sp.TransformSpec(a.alpha, price, q, regime)


def _frozen_laws(atoms, a, q, cost):
    """The report's two laws as they were built before the checked
    evaluation's images were reused: ``from_pairs``, then a TransformSpec
    and ``push_forward``."""
    g_star = DiscreteDistribution.from_pairs(*atoms)
    return g_star, push_forward(g_star, _unchecked_transform(a, cost.price, q))


def _frozen_report(a, m, cost):
    if a.alpha == 0.0:
        g_star = ambiguity_worst_case(0.0, m)
        return sp.SolveReport(0.0, 0.0, Regime.DEGENERATE, a, g_star, g_star)
    q, regime = sp._quantity(a, m, cost)
    value, atoms, _, duals = sp._checked_evaluation(a, q, m, cost)
    return sp.SolveReport(q, value, regime, a, *_frozen_laws(atoms, a, q, cost), duals)


def _law_edge_instance(rng):
    """``(alpha, m, cost, q)``, ``q`` a caller's quantity for the worst case.
    15%: MIXED transforms whose quadratic piece overflows below the junction
    p/(2 alpha) (alpha near the float limit, a small price, q below
    (mu^2 + sigma^2)/(2 mu)).  The rest: demand scales 1e-14..1e4 with
    sigma/mu down to 1e-200 (atoms that merge, a small weight that
    underflows to 0), alpha up to 1e20 * p (10% INFINITY), and q = 0.0,
    -0.0, the closed form or a multiple 1e-3..1e3 of it."""
    if rng.uniform() < 0.15:
        mu = float(10 ** rng.uniform(-2, 4))
        m = MomentSpec(mu, mu * float(10 ** rng.uniform(-12, -2)))
        p = float(10 ** rng.uniform(-6, -0.5))
        cost = CostStructure(p, p * float(rng.uniform(0.01, 0.99)))
        a = MisspecIndex(float(10 ** rng.uniform(306, 308.2)))
        q = m.second_moment / (2.0 * mu) * float(rng.uniform(0.01, 0.99))
        return a, m, cost, q
    mu = float(10 ** rng.uniform(-14, 4))
    r = rng.uniform()
    sigma = 0.0 if r < 0.05 else mu * float(10 ** rng.uniform(-200 if r < 0.3 else -14, 0.5))
    p = float(10 ** rng.uniform(-3, 3))
    cost = CostStructure(p, p * float(rng.uniform(0.01, 0.99)))
    u = rng.uniform()
    a = INF if u < 0.1 else MisspecIndex(float(10 ** rng.uniform(-3, 20)) * p)
    m = MomentSpec(mu, sigma)
    q = sp._quantity(a, m, cost)[0]
    v = rng.uniform()
    q = -0.0 if v < 0.05 else 0.0 if v < 0.1 else q if v < 0.5 else q * float(10 ** rng.uniform(-3, 3))
    return a, m, cost, q


def _image_overflow(outcome, m, cost):
    """A frozen law build's ``outcome`` (of :func:`_exact`), where an image
    law whose support is not finite (an image overflowed) is read as the
    float-range error that the report's laws raise for it."""
    if outcome.startswith("InputError: support must be finite"):
        return (
            "InputError: the worst-case law's image under the transform leaves the float "
            f"range at price={cost.price!r}, demand mean={m.mean!r}, std={m.std!r}"
        )
    return outcome


def test_report_laws_are_bit_equal_to_from_pairs_and_push_forward():
    rng = np.random.default_rng(26_026)
    seen = Counter()
    for _ in range(6_000):
        a, m, cost, q = _law_edge_instance(rng)
        report = _exact(misspec_quantity, a, m, cost)
        assert report == _image_overflow(_exact(_frozen_report, a, m, cost), m, cost), (a, m, cost)
        if not report.startswith("SolveReport"):
            continue
        assert misspec_quantity(a, m, cost) == _frozen_report(a, m, cost), (a, m, cost)
        laws = _exact(lambda: _frozen_laws(sp._checked_evaluation(a, q, m, cost)[1], a, q, cost))
        assert _exact(misspec_worst_case, a, q, m, cost) == _image_overflow(laws, m, cost), (a, q, m, cost)
        try:
            support, weights = sp._checked_evaluation(a, q, m, cost)[1]
        except (InputError, InternalCheckError):  # compared above
            continue
        # the edges, read from the frozen side
        images = [_unchecked_transform(a, cost.price, q).apply(v) for v in support]
        seen["weights sum to 1.0" if math.fsum(weights) == 1.0 else "weights sum off 1.0"] += 1
        if support[0] == 0.0:
            seen["-0.0 low atom" if math.copysign(1.0, support[0]) < 0 else "0.0 low atom"] += 1
        if len(support) == 2 and not images[0] <= images[1]:
            seen["images out of order"] += 1
            continue  # the image law raises: the support is not finite
        g_star, image = _frozen_laws((support, weights), a, q, cost)
        if len(g_star.support) < len(support):
            seen["merged" if min(weights) > 0.0 else "zero weight dropped"] += 1
        seen["image is G*" if image is g_star else "image law built"] += 1
    assert min(seen.values()) >= 100 and len(seen) == 9, seen


def test_report_laws_follow_from_pairs_on_atoms_out_of_order():
    # the model's atoms and images come in order, or an image overflows (an
    # instance of the test above): the order guard is reached here directly,
    # and an image that is not finite is the float-range error
    atoms = ((1.0, 2.0), (0.25, 0.75))
    g_star = DiscreteDistribution.from_pairs(*atoms)
    for images in ([3.0, 2.5], [2.5, 2.5], [math.inf, 2.0], [math.nan, 2.0]):
        want = _exact(lambda: (g_star, DiscreteDistribution.from_pairs(images, g_star.weights)))
        assert _exact(sp._laws, atoms, images, COST, M42) == _image_overflow(want, M42, COST), images
    backwards = ((2.0, 1.0), (0.25, 0.75))
    g_star = DiscreteDistribution.from_pairs(*backwards)
    want = (g_star, DiscreteDistribution.from_pairs([1.0, 4.0], g_star.weights))
    assert repr(sp._laws(backwards, [4.0, 1.0], COST, M42)) == repr(want)


def _overflow_instance(rng):
    """``(alpha, q, m, cost)`` with ``alpha / p`` beyond the float range (alpha
    1e305..1.6e308, p 1e-3..1) and sigma/mu 1e-13..1e-8, so that the low
    worst-case atom is tiny and its image ``(alpha / p) v^2`` may be inf."""
    alpha = float(10 ** rng.uniform(305, 308.2))
    p = float(10 ** rng.uniform(-3, 0))
    cost = CostStructure(p, p * float(rng.uniform(0.05, 0.95)))
    mu = float(10 ** rng.uniform(-1, 2))
    m = MomentSpec(mu, mu * float(10 ** rng.uniform(-13, -8)))
    return alpha, mu * float(rng.uniform(0.05, 2.0)), m, cost


def test_an_overflowed_image_is_the_float_range_error():
    # alpha / p overflows, so an atom's image is inf while its profit at q,
    # and so every check, is finite: the error names the price and the
    # demand scale, not a support the caller never passed
    alpha, q = 7.256079278435172e306, 1.9331633390543232
    m = MomentSpec(7.486999236584675, 2.9627631556833844e-10)
    cost = CostStructure(0.010969184283792411, 0.0013316433905781442)
    want = (
        "the worst-case law's image under the transform leaves the float range at "
        "price=0.010969184283792411, demand mean=7.486999236584675, std=2.9627631556833844e-10"
    )
    with pytest.raises(InputError) as err:
        misspec_worst_case(alpha, q, m, cost)
    assert str(err.value) == want
    assert worst_case_transformed_expectation(alpha, q, m, cost) == 0.01863094073339868
    assert sp._solve(alpha, m, cost) == (7.486999236928136, 0.07215626130898742)
    rng = np.random.default_rng(27_027)
    seen = Counter()
    for _ in range(2_000):
        alpha, q, m, cost = _overflow_instance(rng)
        value = worst_case_transformed_expectation(alpha, q, m, cost)
        assert math.isfinite(value) and all(map(math.isfinite, sp._solve(alpha, m, cost)))
        support, weights = sp._checked_evaluation(MisspecIndex(alpha), q, m, cost)[1]
        t = _unchecked_transform(alpha, cost.price, q)
        images = [t.apply(v) for v, w in zip(support, weights) if w > 0.0]
        try:
            laws = misspec_worst_case(alpha, q, m, cost)
        except InputError as exc:
            assert not all(map(math.isfinite, images)), (alpha, q, m, cost)
            assert str(exc) == (
                "the worst-case law's image under the transform leaves the float range at "
                f"price={cost.price!r}, demand mean={m.mean!r}, std={m.std!r}"
            )
            seen["image overflowed"] += 1
        else:
            assert all(map(math.isfinite, images)), (alpha, q, m, cost)
            assert all(map(math.isfinite, laws[1].support))
            seen["laws built"] += 1
    assert seen["image overflowed"] >= 100 and seen["laws built"] >= 1_000, seen


def test_near_zero_variance_certificate_found_instance_certifies():
    # the identity's terms grow like mu/sigma ~ 6e5 here; the value is 0.8169
    m = MomentSpec(12.611107123231836, 2.1052261483191464e-05)
    cost = CostStructure(17.52857817621089, 16.185991050256128)
    r = misspec_quantity(0.06705963691850146, m, cost)
    assert r.duals and r.value == pytest.approx(0.81688022, abs=1e-8)


def test_near_zero_variance_certificates_pass_their_check():
    rng = np.random.default_rng(606)
    for _ in range(1500):
        mu = float(10 ** rng.uniform(-2, 4))
        sigma = mu * float(10 ** rng.uniform(-10, -2))
        p = float(10 ** rng.uniform(-1, 2))
        cost = CostStructure(p, p * float(rng.uniform(0.01, 0.99)))
        alpha = INF if rng.uniform() < 0.1 else float(10 ** rng.uniform(-3, 12)) * p / 10
        misspec_quantity(alpha, MomentSpec(mu, sigma), cost)  # raises on a failed check


@pytest.mark.parametrize("alpha", [4.0, INF])
def test_perturbed_certificate_is_rejected(alpha):
    r = misspec_quantity(alpha, M42, COST)
    sp._check_certificate(r.duals, r.value, M42)
    bad = tuple((k, v * (1.0 + 1e-6) if k == "r_alpha" else v) for k, v in r.duals)
    with pytest.raises(InternalCheckError, match="dual certificate mismatch"):
        sp._check_certificate(bad, r.value, M42)


def test_a_certificate_term_beyond_the_float_range_fails_its_check():
    # an infinite term made the rounding allowance infinite, so any value passed
    inf = math.inf
    with pytest.raises(InternalCheckError, match="dual certificate mismatch"):
        sp._check_certificate((("s_alpha", 1.0), ("r_alpha", 0.0), ("t_alpha", inf)), 1.0, M42)
    # t = p^2/(16 r) + ... overflows at this price: bad input, not an infinite dual
    with pytest.raises(InputError, match=r"float range at price=1e\+200, demand mean=1e-10"):
        misspec_quantity(INF, MomentSpec(1e-10, 5e-11), CostStructure(1e200, 3e199))
    # below 4*sqrt(DBL_MAX) the price's square overflows, but p^2/16 does not
    r = misspec_quantity(INF, MomentSpec(2e151, 1e151), CostStructure(2e154, 6e153))
    assert r.duals and all(math.isfinite(v) for _, v in r.duals)


def test_nan_fails_each_solve_check():
    nan = math.nan
    with pytest.raises(InternalCheckError):
        sp._check_moments(((nan, 5.0), (0.2, 0.8)), M42)
    profits = [profit(2.0, v, COST) for v in (0.0, 5.0)]  # of the images 0 and 5
    with pytest.raises(InternalCheckError):
        sp._check_attainment(profits, (0.2, 0.8), MisspecIndex(4.0), 2.0, nan)
    with pytest.raises(InternalCheckError):
        sp._check_certificate((("s_alpha", nan), ("r_alpha", 1.0), ("t_alpha", 0.0)), 1.0, M42)


def test_footnote_two_point_law_example():
    wc = ambiguity_worst_case(2.0, M42)
    assert wc.support == pytest.approx((0.0, 5.0))
    assert wc.weights == pytest.approx((0.2, 0.8))


# ---------------------------------------------------------------------------
# value function
# ---------------------------------------------------------------------------


def test_value_function_frozen_points():
    assert worst_case_transformed_expectation(4.0, 4.247872, M42, COST) == pytest.approx(
        14.4598, abs=1e-3
    )
    assert worst_case_transformed_expectation(INF, 4.872872, M42, COST) == pytest.approx(
        18.834850, abs=5e-6
    )
    for alpha in (0.3, 1.0, 4.0, INF):
        assert worst_case_transformed_expectation(alpha, 0.0, M42, COST) == 0.0


def test_value_function_infinite_index_branch_continuity():
    b = M42.second_moment / (2 * M42.mean)  # 2.5
    lo = worst_case_transformed_expectation(INF, b - 1e-10, M42, COST)
    hi = worst_case_transformed_expectation(INF, b + 1e-10, M42, COST)
    assert lo == pytest.approx(hi, abs=1e-7)


def test_value_function_monotone_in_moments():
    # non-decreasing in mu, non-increasing in sigma at fixed (alpha, q)
    alphas = [0.5, 2.0, 8.0]
    qs = [0.5, 2.0, 5.0]
    for alpha in alphas:
        for q in qs:
            vals_mu = [
                worst_case_transformed_expectation(alpha, q, MomentSpec(mu, 1.5), COST)
                for mu in np.linspace(2, 9, 15)
            ]
            assert all(b >= a - 1e-9 for a, b in zip(vals_mu, vals_mu[1:]))
            vals_sig = [
                worst_case_transformed_expectation(alpha, q, MomentSpec(6, s), COST)
                for s in np.linspace(0.1, 3.5, 15)
            ]
            assert all(b <= a + 1e-9 for a, b in zip(vals_sig, vals_sig[1:]))


# ---------------------------------------------------------------------------
# misspecification-averse solver
# ---------------------------------------------------------------------------

# regime threshold for (mu=4, sigma=2, p=10, c=3): p / (2 (mu - sigma sqrt(3/7)))
THRESHOLD = 10.0 / (2.0 * (4.0 - 2.0 * math.sqrt(3.0 / 7.0)))


def test_misspec_quantity_frozen_examples():
    r = misspec_quantity(4.0, M42, COST)
    assert r.regime is Regime.HIGH_ALPHA
    assert r.quantity == pytest.approx(4.247872, abs=5e-6)
    assert r.quantity == pytest.approx(
        4 + 2 * fractile_factor(0.3) - 10 / 16, abs=1e-12
    )
    assert THRESHOLD == pytest.approx(1.858256, abs=5e-6)

    r1 = misspec_quantity(1.0, M42, COST)
    assert r1.regime is Regime.LOW_ALPHA
    assert r1.quantity == pytest.approx(1.898298, abs=5e-6)
    assert r1.quantity == pytest.approx(
        (16 - 4 + 16 * fractile_factor(0.3)) * 1.0 / 10.0, abs=1e-12
    )

    big = misspec_quantity(1e9, M42, COST)
    scarf = scarf_quantity(M42, COST)
    assert big.quantity == pytest.approx(scarf.quantity, rel=1e-6)


def test_misspec_regime_boundary():
    assert misspec_quantity(THRESHOLD + 1e-9, M42, COST).regime is Regime.HIGH_ALPHA
    assert misspec_quantity(THRESHOLD - 1e-9, M42, COST).regime is Regime.LOW_ALPHA
    q_hi = misspec_quantity(THRESHOLD, M42, COST).quantity
    # both branch formulas agree at the boundary
    f = fractile_factor(0.3)
    q_low_formula = (16 - 4 + 16 * f) * THRESHOLD / 10.0
    assert q_hi == pytest.approx(q_low_formula, abs=1e-9)


def test_misspec_alpha_zero_orders_nothing():
    r = misspec_quantity(0.0, M42, COST)
    assert r.quantity == 0.0
    assert r.value == 0.0
    assert r.regime is Regime.DEGENERATE


def test_misspec_degenerate_gate_for_every_alpha():
    rng = np.random.default_rng(5150)
    found = 0
    while found < 40:
        mu = float(rng.uniform(0.5, 5))
        sigma = float(rng.uniform(0.5, 4)) * mu
        p = float(rng.uniform(2, 20))
        c = p * float(rng.uniform(0.5, 0.98))
        cost = CostStructure(p, c)
        m = MomentSpec(mu, sigma)
        if cost.kappa >= sigma**2 / m.second_moment:
            continue
        found += 1
        for alpha in (0.4, 3.0, INF):
            r = misspec_quantity(alpha, m, cost)
            assert r.quantity == 0.0
            assert r.value == 0.0
            assert r.regime is Regime.DEGENERATE


def test_misspec_monotone_in_alpha_and_capped_by_ambiguity():
    rng = np.random.default_rng(20240816)
    for _ in range(150):
        mu = float(rng.uniform(1, 10))
        sigma = float(rng.uniform(0.05, 0.9)) * mu
        p = float(rng.uniform(2, 30))
        c = p * float(rng.uniform(0.05, 0.9))
        cost = CostStructure(p, c)
        m = MomentSpec(mu, sigma)
        if cost.kappa < sigma**2 / m.second_moment:
            continue
        a1, a2 = sorted(rng.uniform(0.05, 30, size=2))
        q1 = misspec_quantity(float(a1), m, cost).quantity
        q2 = misspec_quantity(float(a2), m, cost).quantity
        q_inf = scarf_quantity(m, cost).quantity
        assert q1 <= q2 + 1e-9
        assert q2 <= q_inf + 1e-9


def test_misspec_continuity_at_threshold_across_instances():
    rng = np.random.default_rng(8)
    checked = 0
    while checked < 60:
        mu = float(rng.uniform(1, 10))
        sigma = float(rng.uniform(0.05, 0.9)) * mu
        p = float(rng.uniform(2, 30))
        c = p * float(rng.uniform(0.05, 0.9))
        cost = CostStructure(p, c)
        m = MomentSpec(mu, sigma)
        kappa = cost.kappa
        if kappa < sigma**2 / m.second_moment:
            continue
        margin = mu - sigma * math.sqrt((1 - kappa) / kappa)
        if margin <= 1e-6:
            continue
        thr = p / (2 * margin)
        f = fractile_factor(1 - kappa)
        q_high = mu + sigma * f - p / (4 * thr)
        q_low = (mu * mu - sigma * sigma + 2 * mu * sigma * f) * thr / p
        assert q_high == pytest.approx(q_low, abs=1e-9 * max(1.0, abs(q_high)))
        checked += 1


def test_misspec_worst_case_frozen_example():
    g_star, transformed = misspec_worst_case(4.0, 4.247872, M42, COST)
    assert g_star.support == pytest.approx((2.690693, 7.055050), abs=5e-6)
    assert g_star.weights == pytest.approx((0.7, 0.3), abs=1e-6)
    # at the exact optimum the lower weight is exactly the critical fractile
    q_star = misspec_quantity(4.0, M42, COST).quantity
    g_exact, transformed_exact = misspec_worst_case(4.0, q_star, M42, COST)
    assert g_exact.weights == pytest.approx((0.7, 0.3), abs=1e-9)
    # weights carry over to the transformed image
    assert transformed_exact.weights == pytest.approx((0.7, 0.3), abs=1e-9)


def test_misspec_worst_case_moments_random_inputs():
    rng = np.random.default_rng(2718)
    for _ in range(120):
        mu = float(rng.uniform(0.5, 9))
        sigma = float(rng.uniform(0.02, 0.95)) * mu
        p = float(rng.uniform(2, 25))
        c = p * float(rng.uniform(0.05, 0.95))
        cost = CostStructure(p, c)
        m = MomentSpec(mu, sigma)
        alpha = float(rng.uniform(0.05, 20))
        q = float(rng.uniform(0, mu + 3 * sigma))
        g_star, transformed = misspec_worst_case(alpha, q, m, cost)
        assert g_star.mean() == pytest.approx(mu, abs=1e-9 * max(1, m.second_moment))
        assert g_star.second_moment() == pytest.approx(
            m.second_moment, abs=1e-9 * max(1, m.second_moment)
        )
        value = worst_case_transformed_expectation(alpha, q, m, cost)
        attained = transformed.expectation(lambda v: profit(q, v, cost))
        assert attained == pytest.approx(value, abs=1e-8 * max(1, abs(value)))


def test_misspec_optimum_worst_case_weights_are_the_fractile():
    rng = np.random.default_rng(4096)
    checked = 0
    while checked < 50:
        mu = float(rng.uniform(1, 8))
        sigma = float(rng.uniform(0.05, 0.8)) * mu
        p = float(rng.uniform(3, 25))
        c = p * float(rng.uniform(0.1, 0.9))
        cost = CostStructure(p, c)
        m = MomentSpec(mu, sigma)
        if cost.kappa < sigma**2 / m.second_moment:
            continue
        alpha = float(rng.uniform(0.1, 25))
        r = misspec_quantity(alpha, m, cost)
        if r.quantity <= 1e-9 or len(r.worst_case.weights) != 2:
            continue
        checked += 1
        assert r.worst_case.weights[0] == pytest.approx(cost.kappa, abs=1e-7)


def test_solve_report_duals_certify_the_value():
    rng = np.random.default_rng(1234)
    for _ in range(80):
        mu = float(rng.uniform(1, 9))
        sigma = float(rng.uniform(0.05, 0.9)) * mu
        p = float(rng.uniform(2, 30))
        c = p * float(rng.uniform(0.1, 0.9))
        cost = CostStructure(p, c)
        m = MomentSpec(mu, sigma)
        alpha = float(rng.uniform(0.05, 25))
        r = misspec_quantity(alpha, m, cost)
        if not r.duals:
            continue
        s, rr, t = (r.dual(k) for k in ("s_alpha", "r_alpha", "t_alpha"))
        assert s * mu - rr * m.second_moment - t == pytest.approx(
            r.value, abs=1e-8 * max(1, abs(r.value))
        )


# ---------------------------------------------------------------------------
# numerical stability across alpha and demand scale
# ---------------------------------------------------------------------------


def test_large_alpha_worst_case_attains_the_value():
    # off Q the value 0.5*alpha*(w - rad) cancels as alpha grows; the
    # rationalized 2 mu^2 p q/(w + rad) does not
    m, cost = MomentSpec(100, 1), CostStructure(10, 3)
    g_star, transformed = misspec_worst_case(1e6, 0.3, m, cost)
    assert g_star.mean() == pytest.approx(100, abs=1e-9 * m.second_moment)
    attained = transformed.expectation(lambda v: profit(0.3, v, cost))
    assert attained == pytest.approx(
        worst_case_transformed_expectation(1e6, 0.3, m, cost), abs=1e-9
    )
    # at alpha = 1e12 the value is p q mu^2/(mu^2 + sigma^2) - c q to 1e-12
    value = worst_case_transformed_expectation(1e12, 0.3, m, cost)
    assert value == pytest.approx(2.09970003, abs=1e-9)


@pytest.mark.parametrize(
    "alpha, mu, price, cost",
    [
        (0.19320111457048228, 140.61194372178394, 5.627221275874181, 1.0834211511725373),
        (0.04665528588572574, 12.48566025610184, 2.0955789028174587, 1.019428800099878),
    ],
)
def test_zero_variance_solves_certify(alpha, mu, price, cost):
    # at sigma = 0 the off-Q radical is |p q/alpha - mu^2|; an ulp-sized
    # radical must read as degenerate, not feed a division in the certificate
    m, cs = MomentSpec(mu, 0.0), CostStructure(price, cost)
    r = misspec_quantity(alpha, m, cs)
    assert r.worst_case.mean() == pytest.approx(mu, rel=1e-12)
    assert r.value == pytest.approx(
        ell(alpha, r.quantity, mu, cs), abs=1e-9 * max(1.0, abs(r.value))
    )


def test_near_gate_solve_attains_the_value():
    # kappa barely above sigma^2/(mu^2 + sigma^2): a tiny quantity at a
    # demand scale in the thousands
    m = MomentSpec(5307.720206434114, 5515.79842624879)
    cost = CostStructure(7.9813760290752365, 3.83730564345852)
    r = misspec_quantity(19.575646044264236, m, cost)
    assert r.regime is Regime.LOW_ALPHA
    attained = r.transformed_worst_case.expectation(
        lambda v: profit(r.quantity, v, cost)
    )
    assert attained == pytest.approx(r.value, abs=1e-9)


def test_tiny_weight_atom_is_kept():
    # the far atom of this law weighs ~1e-16 but carries ~3e-9 of the second
    # moment; dropping it breaks the moment constraints
    m = MomentSpec(0.011769666397322015, 5.548449750499481e-05)
    cost = CostStructure(9.857047985967593, 2.5666538934148426)
    g_star, _ = misspec_worst_case(1e-3, 0.006321853907569039, m, cost)
    assert len(g_star.support) == 2 and 0.0 < g_star.weights[1] < 1e-15
    assert g_star.second_moment() == pytest.approx(m.second_moment, rel=1e-9)


def test_value_function_stable_and_monotone_over_alpha_and_scale():
    rng = np.random.default_rng(20240511)
    for _ in range(250):
        mu = float(10 ** rng.uniform(-2, 4))
        sigma = 0.0 if rng.uniform() < 0.1 else mu * float(10 ** rng.uniform(-6, 0.5))
        p = float(rng.uniform(1, 20))
        cost = CostStructure(p, p * float(rng.uniform(0.05, 0.95)))
        m = MomentSpec(mu, sigma)
        q = mu * float(10 ** rng.uniform(-3, 0.7))  # reaches both branches
        alphas = sorted(10 ** rng.uniform(-3, 15, size=8)) + [1e15, INF]
        values = []
        for alpha in alphas:
            misspec_worst_case(alpha, q, m, cost)  # raises if the law misses
            values.append(worst_case_transformed_expectation(alpha, q, m, cost))
        tol = 1e-9 * max(1.0, abs(values[-1]))
        assert all(b >= a - tol for a, b in zip(values, values[1:])), (q, m, cost)
        assert values[-2] == pytest.approx(values[-1], abs=tol)


# ---------------------------------------------------------------------------
# threshold scans
# ---------------------------------------------------------------------------


def test_price_scan_finds_the_regime_switch_peak():
    # the q*(p) curve rises through the high-alpha branch and falls on the
    # low-alpha branch, so the turn sits at the branch switch: the fixed point
    # of p = 2*alpha*(mu - sigma*sqrt(c/(p-c))), here ~24.53 (oracle-verified)
    grid = np.round(np.arange(3.1, 60.0001, 0.1), 10)
    turn = price_threshold_scan(4.0, MomentSpec(4, 2.5), 3.0, grid)
    assert turn is not None
    assert abs(turn - 24.5) <= 0.1001
    p_star = 24.5
    for _ in range(60):
        p_star = 2 * 4.0 * (4 - 2.5 * math.sqrt(3 / (p_star - 3)))
    assert abs(turn - p_star) <= 0.1001
    # a 5,000-point grid finds the same switch
    fine = np.linspace(3.5, 40.0, 5000)
    turn = price_threshold_scan(4.0, MomentSpec(4, 2.5), 3.0, fine)
    assert turn in fine and abs(turn - p_star) <= 0.2


def test_price_scan_ambiguity_only_never_turns():
    grid = np.round(np.arange(3.1, 40.0001, 0.1), 10)
    assert price_threshold_scan(INF, MomentSpec(4, 2.5), 3.0, grid) is None


def test_price_scan_low_alpha_instance():
    # single peak of the low-alpha branch near p ~ 7 (see decisions ledger for
    # why the in-source lower bound claiming >= 12 is not attainable)
    grid = np.round(np.arange(3.2, 60.0001, 0.1), 10)
    turn = price_threshold_scan(1.5, M42, 3.0, grid)
    assert turn is not None
    assert abs(turn - 7.0) <= 0.2


def test_price_scan_input_validation():
    with pytest.raises(InputError):
        price_threshold_scan(4.0, M42, 3.0, [])
    with pytest.raises(InputError):
        price_threshold_scan(4.0, M42, 3.0, [5.0, 4.0])
    with pytest.raises(InputError):
        price_threshold_scan(4.0, M42, 3.0, [2.0, 4.0])  # first price below c
    assert price_threshold_scan(4.0, M42, 3.0, [12.0]) is None  # documented


def test_variance_scan_reproduces_the_turn():
    for grid in (np.round(np.arange(0.0, 6.1001, 0.01), 10), np.linspace(0.0, 6.0, 5000)):
        turn = variance_threshold_scan(1.5, COST, 4.0, grid)
        assert turn in grid
        assert abs(turn - 8 / math.sqrt(21)) <= 0.02


def test_variance_scan_ambiguity_only_never_turns():
    grid = np.round(np.arange(0.0, 6.1001, 0.01), 10)
    assert variance_threshold_scan(INF, COST, 4.0, grid) is None


def test_variance_scan_scope_and_conventions():
    with pytest.raises(InputError):
        variance_threshold_scan(1.5, CostStructure(10, 6), 4.0, [0.5, 1.0])  # kappa<1/2
    with pytest.raises(InputError):
        variance_threshold_scan(1.5, COST, 4.0, [0.5, 20.0])  # outside scope
    assert variance_threshold_scan(1.5, COST, 4.0, [1.0]) is None  # documented


def _recorded_solves(monkeypatch):
    """Patch the batch solve to record its ``(alpha, mu, sigma, price, cost)`` calls."""
    calls, solves = [], sp._solves

    def record(*point):
        calls.append(point)
        return solves(*point)

    monkeypatch.setattr(sp, "_solves", record)
    return calls


def _solved_points(calls):
    """Each recorded batch as its list of ``(alpha, MomentSpec, CostStructure)`` points."""
    return [[(a, MomentSpec(mu, s), CostStructure(p, c))
             for a, mu, s, p, c in zip(*(x.tolist() for x in np.broadcast_arrays(*call)))]
            for call in calls]


def test_scan_edges_keep_their_behaviour(monkeypatch):
    at_price = CostStructure(12.0, 3.0)
    at_std = MomentSpec(4.0, 1.0)
    calls = _recorded_solves(monkeypatch)
    # alpha = 0 orders nothing at every price and never reads the fractile
    assert price_threshold_scan(0.0, MomentSpec(5, 2), 3.0, [1e17, 2e17]) == 1e17
    assert variance_threshold_scan(0.0, COST, 4.0, [0.0, 1.0, 2.0]) == 0.0
    assert calls == []
    # the closed form runs in grid order, so the first bad price is the one named
    with pytest.raises(InputError, match=re.escape("rounds to 1 at price=1e+17, cost=3.0")):
        price_threshold_scan(4.0, MomentSpec(5, 2), 3.0, [4.0, 1e17, 2e17])
    assert calls == []
    # a single-point grid returns None once its one point is checked
    assert price_threshold_scan(4.0, M42, 3.0, [12.0]) is None
    assert variance_threshold_scan(1.5, COST, 4.0, [1.0]) is None
    assert _solved_points(calls) == [[(4.0, M42, at_price)], [(1.5, at_std, COST)]]
    # the batch's error fails the scan
    monkeypatch.setattr(sp, "_solves", lambda *_: ([], InternalCheckError("perturbed")))
    with pytest.raises(InternalCheckError, match="perturbed"):
        price_threshold_scan(4.0, M42, 3.0, [12.0, 13.0])


def _forward_turn(alpha, grid, models):
    """The turn as the scans found it before they checked only its tail:
    ``_solve`` at every grid point, then the tail rule.  Returns the
    quantities, the index j and the turn."""
    qs = [sp._solve(alpha, m, cost)[0] for m, cost in models]
    j = len(qs) - 1
    while j > 0 and qs[j] <= qs[j - 1] + 1e-12:
        j -= 1
    return qs, j, grid[j] if j <= len(qs) - 2 else None


def _scan_alpha(rng, scale):
    """0 (15%), INFINITY (15%), or ``scale`` times 10^-1.5..10^1.5."""
    u = rng.uniform()
    if u < 0.15:
        return 0.0
    if u < 0.3:
        return math.inf
    return scale * float(10 ** rng.uniform(-1.5, 1.5))


def _scan_grid(rng, lo, hi):
    """1 (10%) or 2..40 distinct sorted draws from [lo, hi]."""
    n = 1 if rng.uniform() < 0.1 else int(rng.integers(2, 41))
    return sorted({float(x) for x in rng.uniform(lo, hi, n)})


def _price_scan_case(rng):
    mu = float(10 ** rng.uniform(-1, 3))
    m = MomentSpec(mu, mu * float(10 ** rng.uniform(-2, 0.3)))
    c = float(10 ** rng.uniform(-1, 1))
    lo = c * (1.0 + float(10 ** rng.uniform(-2, 0.5)))
    grid = _scan_grid(rng, lo, lo * float(10 ** rng.uniform(0.05, 1.5)))
    alpha = _scan_alpha(rng, 2.0 * lo / mu)
    models = [(m, CostStructure(p, c)) for p in grid]
    return alpha, grid, models, lambda: price_threshold_scan(alpha, m, c, grid)


def _variance_scan_case(rng):
    p = float(10 ** rng.uniform(-1, 2))
    cost = CostStructure(p, p * float(rng.uniform(0.02, 0.5)))
    mu = float(10 ** rng.uniform(-1, 3))
    hi = mu * math.sqrt(cost.kappa / (1.0 - cost.kappa))
    lo = 0.0 if rng.uniform() < 0.2 else hi * float(rng.uniform(0.0, 0.9))
    grid = _scan_grid(rng, lo, lo + (hi - lo) * float(rng.uniform(0.05, 1.0)))
    alpha = _scan_alpha(rng, p / mu)
    models = [(MomentSpec(mu, s), cost) for s in grid]
    return alpha, grid, models, lambda: variance_threshold_scan(alpha, cost, mu, grid)


def _threshold(mu, sig, p, c):
    """The index at which ``_quantity`` switches to its HIGH_ALPHA branch,
    formed as it forms it (None where that threshold is infinite)."""
    kappa = (p - c) / p
    margin = mu - sig * math.sqrt((1.0 - kappa) / kappa)
    return p / (2.0 * margin) if margin > 0.0 else None


def _quantity_groups(rng):
    """300 groups of 48 points, each as a scan takes it: ``(alpha, mu, sig, p,
    c)`` with one of ``sig`` (a variance group) or ``p`` (a price group) an
    array.  Between them: alpha = INFINITY, tiny alphas and an alpha at one
    point's threshold; fractiles equal to sigma^2/(mu^2 + sigma^2) (where
    ``margin`` is 0) and one float either side; fractiles within a few ulps
    of it, where rounding makes the low branch negative and ``max`` clamps
    it (to -0.0 where it underflows); and prices near 1e154."""
    for g in range(300):
        kind = g % 6
        big = 1e150 if kind == 4 else 1.0
        mu = big * float(10 ** rng.uniform(-2, 2.5))
        c = big * float(10 ** rng.uniform(-2, 2))
        sig = mu * float(10 ** rng.uniform(-3, 0.7))
        p = c * (1.0 + float(10 ** rng.uniform(-3, 2)))
        if kind == 1:  # kappa = sigma^2/second exactly: 1/2, or 16/25 on a power-of-two scale
            t, u = 2.0 ** int(rng.integers(-20, 20)), 2.0 ** int(rng.integers(-20, 20))
            mu, sig, p, c = ((t, t, 2.0 * u, u), (3.0 * t, 4.0 * t, 25.0 * u, 9.0 * u))[g % 2]
        ulps = 1.0 + 2.0**-52 * np.arange(-8.0, 40.0)
        if kind == 5 and g % 2:  # stds within ulps of the degenerate boundary
            sig = mu * math.sqrt((p - c) / c) / ulps
        elif kind == 5:  # prices within ulps of the degenerate boundary
            p = c * (1.0 + (sig / mu) ** 2) * ulps
        elif g % 2:  # a variance group: the stds vary, around sig
            spread = sig * np.array([1.0, *(10 ** rng.uniform(-2, 0.5, 47))])
            sig = np.unique(np.concatenate([spread, np.nextafter(spread[:1], [0.0, math.inf])]))
            sig = sig[:48]
        else:  # a price group: the prices vary, around p
            spread = p * np.array([1.0, *(10 ** rng.uniform(0.0, 1.5, 47))])
            low = np.nextafter(spread[:1], [0.0, math.inf])
            p = np.unique(np.concatenate([spread, low[low > c]]))[:48]
        at = int(rng.integers(0, 48))
        point = [float(x[at]) if isinstance(x, np.ndarray) else x for x in (mu, sig, p, c)]
        alphas = (math.inf, 5e-324, 1e-300, big * float(10 ** rng.uniform(-3, 3)),
                  _threshold(*point) or math.inf)
        yield alphas[int(rng.integers(kind == 5, 5))], mu, sig, p, c  # no INFINITY at the boundary


def test_the_array_arm_gives_the_scalar_quantities_bit_for_bit():
    rng = np.random.default_rng(32_032)
    seen = Counter()
    for alpha, mu, sig, p, c in _quantity_groups(rng):
        a = MisspecIndex(alpha)
        points = np.broadcast_arrays(np.float64(mu), sig, p, np.float64(c))
        want = []
        for m_, s_, p_, c_ in zip(*(x.tolist() for x in points)):
            m, cost = MomentSpec(m_, s_), CostStructure(p_, c_)
            want.append(sp._quantity(a, m, cost)[0])  # no fractile here rounds to 1
            degenerate = cost.kappa < s_ * s_ / m.second_moment
            threshold = _threshold(m_, s_, p_, c_)
            f = fractile_factor(1.0 - cost.kappa)
            low = not degenerate and (threshold is None or alpha < threshold)
            seen["degenerate"] += degenerate
            seen["margin <= 0"] += not degenerate and threshold is None
            seen["at threshold"] += alpha == threshold
            seen["clamped to 0"] += low and m_ * m_ - s_ * s_ + 2.0 * m_ * s_ * f < 0.0
            seen["-0.0"] += math.copysign(1.0, want[-1]) < 0.0
            seen["alpha inf"] += alpha == math.inf
            seen["alpha tiny"] += alpha < 1e-299
            seen["price ~1e154"] += p_ > 1e151
            seen["point"] += 1
        # the arguments as the scans form them: the array is the varying one
        second = mu * mu + sig * sig
        kappa = (p - c) / p
        got = sp._quantities(alpha, mu, sig, second, p, kappa)
        assert got.tobytes() == np.array(want).tobytes(), (alpha, mu, sig, p, c)
    assert seen["point"] >= 10_000
    assert min(seen.values()) >= 20, seen



def _quantity_as_first_written(a, m, cost):
    """``_quantity`` with its own margin, fractile factor and branches, the
    factor through the checked public :func:`fractile_factor`."""
    kappa = cost.kappa
    mu, sig = m.mean, m.std
    p = cost.price
    if kappa < sig * sig / m.second_moment:
        return 0.0, Regime.DEGENERATE
    if not kappa < 1.0:
        raise sp._fractile_rounds_to_one(cost)
    margin = mu - sig * math.sqrt((1.0 - kappa) / kappa)
    threshold = p / (2.0 * margin) if margin > 0.0 else math.inf
    f = fractile_factor(1.0 - kappa)
    if a.alpha >= threshold:
        q = mu + sig * f - p / (4.0 * a.alpha)
        regime = Regime.AMBIGUITY_ONLY if a.is_infinite else Regime.HIGH_ALPHA
    else:
        q = (mu * mu - sig * sig + 2.0 * mu * sig * f) * a.alpha / p
        regime = Regime.LOW_ALPHA
    return max(q, 0.0), regime


def _quantity_outcome(fn, a, m, cost):
    try:
        q, regime = fn(a, m, cost)
    except Exception as exc:  # the error is the outcome compared
        return type(exc).__name__, str(exc)
    return q.hex(), regime


def test_the_scalar_quantity_matches_its_first_form_bit_for_bit():
    rng = np.random.default_rng(34_034)
    n = 100_000
    mus = 10 ** rng.uniform(-2.0, 4.0, n)
    sigs = mus * 10 ** rng.uniform(-10.0, 0.7, n)
    prices = 10 ** rng.uniform(-2.0, 4.0, n)
    costs = prices * rng.uniform(0.001, 0.999, n)
    alphas = np.where(rng.random(n) < 0.1, math.inf, 10 ** rng.uniform(-3.0, 15.0, n))
    steps = rng.integers(-8, 9, n)
    seen = Counter()
    for i, (mu, sig, p, c, alpha, k) in enumerate(
        zip(*(x.tolist() for x in (mus, sigs, prices, costs, alphas, steps)))
    ):
        kind = i % 4
        if kind == 1:  # kappa rounding to 1, or within 4 ulps below it
            c = p * 2.0**-54 * (1.0 + abs(k))
        elif kind == 2:  # std within ulps of the degenerate boundary
            sig = mu * math.sqrt((p - c) / c) * (1.0 + 2.0**-52 * k)
        elif kind == 3:  # alpha at the regime threshold, or a few ulps either side
            threshold = _threshold(mu, sig, p, c)
            if threshold is not None:
                alpha = threshold
                for _ in range(abs(k)):
                    alpha = math.nextafter(alpha, math.inf if k > 0 else 0.0)
        a, m, cost = MisspecIndex(alpha), MomentSpec(mu, sig), CostStructure(p, c)
        want = _quantity_outcome(_quantity_as_first_written, a, m, cost)
        assert _quantity_outcome(sp._quantity, a, m, cost) == want, (alpha, mu, sig, p, c)
        seen[want[1] if want[0] != "InputError" else "kappa rounds to 1"] += 1
        seen["at threshold"] += alpha == _threshold(mu, sig, p, c)
        seen["kappa near 1"] += kind == 1 and want[0] != "InputError"
    assert sum(seen[r] for r in Regime) + seen["kappa rounds to 1"] == n
    for key in (*Regime, "kappa rounds to 1", "kappa near 1", "at threshold"):
        assert seen[key] >= 1_000, (key, seen)


def _ordered_quantities(alpha, grid, model):
    """The models built and the closed-form quantity taken point by point in
    grid order, as the scans once took them: the first error raised, or None."""
    try:
        for x in grid:
            m, cost = model(x)
            if alpha != 0.0:
                sp._quantity(MisspecIndex(alpha), m, cost)
    except InputError as exc:
        return str(exc)
    return None


def _bad_point_cases():
    """``(alpha, grid, model, scan)`` on grids of 1,000 points with a bad point
    first, in the middle or last: prices where the fractile rounds to 1, and
    stds where ``mu^2 + s^2`` overflows at mu near 1e154; and with none."""
    m, c = MomentSpec(4.0, 2.5), 3.0
    cost = CostStructure(10.0, 3.0)
    prices = {
        "none": np.linspace(3.5, 40.0, 1000),
        "first": np.geomspace(c * 1e17, c * 1e19, 1000),
        "middle": np.geomspace(c * 1.5, c * 1e20, 1000),
        "last": np.append(np.geomspace(c * 1.5, c * 1e14, 999), c * 1e17),
    }
    mu = 1e154
    over = math.sqrt(sys.float_info.max - mu * mu)  # about where mu^2 + s^2 overflows
    stds = {
        "none": np.linspace(0.0, 6.0, 1000),
        "first": np.linspace(over * 1.001, over * 1.2, 1000),
        "middle": np.linspace(0.0, over * 1.2, 1000),
        "last": np.append(np.linspace(0.0, over * 0.999, 999), over * 1.001),
    }
    for alpha in (0.0, 4.0, math.inf):
        for where in ("none", "first", "middle", "last"):
            grid = prices[where]
            yield (alpha, grid, lambda p: (m, CostStructure(p, c)),
                   partial(price_threshold_scan, alpha, m, c, grid))
            grid, mean = stds[where], 4.0 if where == "none" else mu
            yield (alpha, grid, lambda s, mean=mean: (MomentSpec(mean, s), cost),
                   partial(variance_threshold_scan, alpha, cost, mean, grid))


def test_scans_raise_at_the_first_bad_point_as_the_forward_reference_does(monkeypatch):
    calls = _recorded_solves(monkeypatch)
    outcomes = Counter()
    for alpha, grid, model, scan in _bad_point_cases():
        error = _ordered_quantities(alpha, grid, model)
        del calls[:]
        if error is not None:  # the scan raises the same error, before any evaluation
            with pytest.raises(InputError) as raised:
                scan()
            assert str(raised.value) == error and calls == [], (alpha, grid[:2])
            outcomes["error"] += 1
            continue
        # alpha = 0 takes no quantity: the same grid then runs as the reference runs it
        models = [model(x) for x in grid]
        qs, j, want = _forward_turn(alpha, grid, models)
        del calls[:]
        assert scan() == want
        batches = [[(alpha, *model) for model in models]] if alpha != 0.0 else []
        assert _solved_points(calls) == batches
        outcomes["turn"] += 1
    # a bad price at alpha = 0 is never read; a bad std is built at every alpha
    assert outcomes == {"error": 15, "turn": 9}, outcomes


@pytest.mark.parametrize("case", [_price_scan_case, _variance_scan_case], ids=["price", "variance"])
def test_scans_match_the_full_forward_reference(case, monkeypatch):
    rng = np.random.default_rng(16_016)
    calls = _recorded_solves(monkeypatch)
    seen = {}
    for _ in range(2_000):
        alpha, grid, models, scan = case(rng)
        qs, j, want = _forward_turn(alpha, grid, models)
        del calls[:]
        assert scan() == want, (alpha, grid)
        # one batch solved exactly the grid's points, in order; none at alpha = 0
        n = len(grid)
        batches = [[(alpha, *model) for model in models]] if alpha != 0.0 else []
        assert _solved_points(calls) == batches, (alpha, grid)
        at = "none" if want is None else "first" if j == 0 else "last" if j == n - 2 else "interior"
        kind = "zero" if alpha == 0.0 else "inf" if alpha == math.inf else "finite"
        seen[kind, at] = seen.get((kind, at), 0) + 1
    for key in [("finite", at) for at in ("first", "interior", "last", "none")] + [
        ("zero", "first"), ("zero", "none"), ("inf", "none")
    ]:
        assert seen.get(key, 0) >= 10, seen


@pytest.mark.parametrize("kind", ["price", "variance"])
def test_a_check_that_fails_before_the_turn_fails_the_scan(kind, monkeypatch):
    # every grid point is checked, not only the tail that the turn compares:
    # the value is shifted by 1e-6 relative at the sixth point with q > 0,
    # far before the turn, and the scan raises where it returned the turn
    if kind == "price":
        m, c = MomentSpec(4.0, 2.5), 3.0
        grid = np.linspace(3.5, 40.0, 200).tolist()
        scan = partial(price_threshold_scan, 4.0, m, c, grid)
        qs = [sp._solve(4.0, m, CostStructure(p, c))[0] for p in grid]
        at, turn = 9, 114
    else:
        mu = 4.0
        grid = np.linspace(0.0, 6.0, 200).tolist()
        scan = partial(variance_threshold_scan, 1.5, COST, mu, grid)
        qs = [sp._solve(1.5, MomentSpec(mu, s), COST)[0] for s in grid]
        at, turn = 5, 58
    assert [i for i, q in enumerate(qs) if q > 0.0][5] == at
    assert scan() == grid[turn]
    value = sp._value

    def shifted(in_q, q, *terms):  # both arms read _value: np.where takes scalars and arrays
        return value(in_q, q, *terms) * np.where(q == qs[at], 1.0 + 1e-6, 1.0)[()]

    monkeypatch.setattr(sp, "_value", shifted)
    with pytest.raises(InternalCheckError, match="worst-case law fails to attain"):
        scan()


# ---------------------------------------------------------------------------
# the invariant of the checked evaluation's array arm
# ---------------------------------------------------------------------------


def _fsum_pairs(rng):
    """Seeded pairs of finite floats: mixed magnitudes, near-cancelling
    opposite signs, subnormals and half-way ties."""
    tiny, eps = 5e-324, 2.0**-52
    for _ in range(4_000):
        a = float(rng.standard_normal()) * 10.0 ** float(rng.uniform(-300, 300))
        yield a, float(rng.standard_normal()) * 10.0 ** float(rng.uniform(-300, 300))
        yield a, -a * (1.0 + float(rng.integers(-4, 5)) * eps)  # cancels to a few ulps
        yield a, -math.nextafter(a, math.inf)
        yield float(rng.integers(-2**20, 2**20)) * tiny, float(rng.integers(-2**20, 2**20)) * tiny
        # b is half an ulp of a: the exact sum is a tie, rounded to even
        m = float(rng.integers(2**52, 2**53)) * 2.0 ** float(rng.integers(-1000, 960))
        yield m, math.ulp(m) / 2.0
        yield -m, -math.ulp(m) / 2.0
        yield m, 3.0 * math.ulp(m) / 2.0


def test_fsum_of_two_finite_floats_is_their_rounded_sum():
    # _checked_values takes each two-term fsum of the checks as a + b: both
    # round the exact sum correctly (to even on a tie)
    for a, b in _fsum_pairs(np.random.default_rng(36)):
        s = a + b
        if math.isfinite(s):
            assert math.fsum([a, b]).hex() == s.hex(), (a.hex(), b.hex())
    # the one difference in bits: two negative zeros sum to -0.0, their fsum
    # is 0.0; every check reads a sum only through abs(sum - target)
    assert str(-0.0 + -0.0) == "-0.0" and str(math.fsum([-0.0, -0.0])) == "0.0"
    # where + overflows to inf, fsum raises, and the array test fails
    big = sys.float_info.max
    for a, b in [(big, big), (big, math.ulp(big) / 2.0), (-big, -big)]:
        assert abs(a + b) == math.inf
        with pytest.raises(OverflowError):
            math.fsum([a, b])
    assert math.fsum([big, math.ulp(big) / 4.0]) == big + math.ulp(big) / 4.0 == big
