"""Sample statistics, transport distances, and the calibration strategies."""

import math
import pickle
import warnings

import numpy as np
import pytest

from robustnv import (
    CostStructure,
    DegenerateModelError,
    DiscreteDistribution,
    GuaranteeReport,
    InputError,
    MisspecIndex,
    MomentSpec,
    SampleSet,
    alpha_for_radius,
    cv_alpha,
    empirical_moments,
    epsilon_N,
    formula_calibrate,
    gelbrich_sq,
    guarantee,
    misspec_quantity,
    moment_set_distance,
    ot_quadratic_empirical,
    profit,
    scarf_quantity,
    stress_calibrate,
    stress_distribution,
)
from robustnv import calibration as cal
from robustnv import single_product as sp
from robustnv.single_product import as_misspec_index
from robustnv.validation import require_nonnegative

COST = CostStructure(10, 3)
# mean 4, population std exactly 2 — matches the canonical moment pair
SQUARE = SampleSet((2.0, 2.0, 6.0, 6.0))


def random_samples(rng, n=None, lo=1.0, hi=12.0):
    n = n or int(rng.integers(5, 40))
    vals = rng.uniform(lo, hi, size=n)
    return SampleSet(tuple(float(v) for v in vals))


# ---------------------------------------------------------------------------
# SampleSet and empirical moments
# ---------------------------------------------------------------------------


def test_sample_set_rejects_bad_input():
    with pytest.raises(InputError):
        SampleSet((3.0,))
    with pytest.raises(InputError, match=r"^values\[1\] must be >= 0, got -1.0$"):
        SampleSet((2.0, -1.0, 4.0))
    for bad in (math.nan, math.inf):
        with pytest.raises(InputError, match=rf"^values\[2\] must be finite, got {bad!r}$"):
            SampleSet((2.0, 1.0, bad))
    with pytest.raises(DegenerateModelError):
        SampleSet((5.0, 5.0, 5.0))
    with pytest.raises(DegenerateModelError):
        SampleSet((0.0, 0.0))


@pytest.mark.parametrize(
    "values, message",
    [
        ([1.0, "ten"], r"values\[1\] must be a finite number: could not convert"),
        ([1.0, None], r"values\[1\] must be a finite number: float\(\) argument"),
        ([1.0, 10**400], r"values\[1\] must be finite, got an int beyond the float range"),
        ((2.0, -1.0, "ten"), r"values\[1\] must be >= 0, got -1.0"),  # the first bad value
        (np.array([1.0, 2.0, -3.0], dtype=np.float32), r"values\[2\] must be >= 0, got -3.0"),
    ],
    ids=["string", "none", "huge-int", "first-bad-value", "float32-array"],
)
def test_sample_set_names_every_value_float_rejects(values, message):
    with pytest.raises(InputError, match=f"^{message}"):
        SampleSet(values)


def test_sample_set_converts_every_input_to_the_same_floats():
    want = SampleSet((1.0, 2.5, 4.0))
    for values in ([1, 2.5, 4], ["1", "2.5", "4.0"], np.array([1.0, 2.5, 4.0]),
                   np.array([1.0, 2.5, 4.0], dtype=np.float32), iter([1.0, 2.5, 4.0])):
        got = SampleSet(values)
        assert got == want and all(type(v) is float for v in got.values)
        assert (got.mean, got.std) == (want.mean, want.std)


@pytest.mark.parametrize(
    "values",
    [(1.0, 1.3e154, 1.2e154), (1.0, 1e200, 3.0)],
    ids=["squares-sum-overflows", "one-square-overflows"],
)
def test_sample_set_rejects_squares_beyond_the_float_range(values):
    # the first overflows fsum's partial sums; the second has an infinite
    # square, and inf - inf must not read as a zero deviation
    with pytest.raises(InputError, match="float range"):
        SampleSet(values)


def test_empirical_moments_canonical():
    m = empirical_moments(SampleSet((2.0, 4.0, 6.0)))
    assert m.mean == pytest.approx(4.0, abs=1e-15)
    assert m.std**2 == pytest.approx(8.0 / 3.0, rel=1e-14)
    # the four-point set is engineered to have std exactly 2
    assert SQUARE.moments.std == pytest.approx(2.0, abs=1e-15)


def test_sample_set_empirical_law_merges_duplicates():
    emp = SQUARE.empirical
    assert emp.support == (2.0, 6.0)
    assert emp.weights == (0.5, 0.5)
    assert emp.mean() == pytest.approx(4.0, abs=1e-15)


def test_sample_set_builds_its_law_on_first_read_and_keeps_it(monkeypatch):
    values = (2.0, 6.0, 2.0, 6.0, 3.5)
    calls = []
    build = DiscreteDistribution.from_samples.__func__
    monkeypatch.setattr(DiscreteDistribution, "from_samples",
                        classmethod(lambda cls, v: calls.append(v) or build(cls, v)))
    s = SampleSet(values)
    assert calls == []
    law = s.empirical
    assert s.empirical is law and s.moments is s.moments and len(calls) == 1
    assert law == DiscreteDistribution.from_pairs(values, [0.2] * 5)
    assert s.moments == MomentSpec(s.mean, s.std)
    # the derived values take no part in equality, hashing, repr or pickling
    fresh = SampleSet(values)
    assert fresh == s and hash(fresh) == hash(s)
    assert repr(s) == repr(fresh) == "SampleSet(values=(2.0, 6.0, 2.0, 6.0, 3.5))"
    for t in (fresh, s):
        back = pickle.loads(pickle.dumps(t))
        assert back == t and hash(back) == hash(t) and repr(back) == repr(t)
        assert back.empirical == law and back.moments == s.moments


def test_empirical_moments_affine_property():
    rng = np.random.default_rng(5)
    for _ in range(30):
        s = random_samples(rng)
        b = float(rng.uniform(0.3, 2.0)) * (1 if rng.random() < 0.5 else -1)
        a = float(rng.uniform(30.0, 50.0))  # keeps every a + b*v positive
        mapped = SampleSet(tuple(a + b * v for v in s.values))
        m, mm = s.moments, mapped.moments
        assert mm.mean == pytest.approx(a + b * m.mean, rel=1e-12)
        assert mm.std == pytest.approx(abs(b) * m.std, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# moment distances
# ---------------------------------------------------------------------------


def test_gelbrich_examples():
    assert gelbrich_sq(MomentSpec(4, 2), MomentSpec(5, 2.5)) == pytest.approx(1.25)
    assert gelbrich_sq(MomentSpec(4, 2), MomentSpec(4, 2)) == 0.0
    rng = np.random.default_rng(8)
    for _ in range(50):
        m1 = MomentSpec(float(rng.uniform(1, 9)), float(rng.uniform(0.1, 4)))
        m2 = MomentSpec(float(rng.uniform(1, 9)), float(rng.uniform(0.1, 4)))
        assert gelbrich_sq(m1, m2) == gelbrich_sq(m2, m1)


def test_moment_set_distance_exact_case():
    lower, upper, exact = moment_set_distance(MomentSpec(4, 2), MomentSpec(5, 2.5))
    assert (lower, upper, exact) == (pytest.approx(1.25), pytest.approx(1.25), True)
    # equal-ratio boundary with the smaller hat deviation: still the exact case
    lower, upper, exact = moment_set_distance(MomentSpec(4.0, 2.0), MomentSpec(4.0, 1.0))
    assert (lower, upper, exact) == (pytest.approx(1.0), pytest.approx(1.0), True)
    assert moment_set_distance(MomentSpec(4, 2), MomentSpec(4, 2)) == (0.0, 0.0, True)


def test_moment_set_distance_bracket_case():
    lower, upper, exact = moment_set_distance(MomentSpec(4.0, 1.0), MomentSpec(4.0, 2.0))
    assert lower == pytest.approx(1.0)
    assert upper == pytest.approx(25.0)  # 1 + (16*4 - 16*1)/2
    assert not exact


def test_moment_set_distance_bracket_ordering_sweep():
    rng = np.random.default_rng(13)
    for _ in range(200):
        d = MomentSpec(float(rng.uniform(0.5, 10)), float(rng.uniform(0.1, 5)))
        h = MomentSpec(float(rng.uniform(0.5, 10)), float(rng.uniform(0.1, 5)))
        lower, upper, exact = moment_set_distance(d, h)
        assert lower <= upper + 1e-15
        if exact:
            assert lower == upper
        else:
            # genuine bracket case: the correction is strictly positive
            assert upper > lower


# ---------------------------------------------------------------------------
# empirical optimal transport
# ---------------------------------------------------------------------------


def test_ot_examples():
    f = DiscreteDistribution.from_samples([1, 3])
    d = DiscreteDistribution.from_samples([2, 4])
    assert ot_quadratic_empirical(f, d) == pytest.approx(1.0, abs=1e-15)
    assert ot_quadratic_empirical(f, f) == 0.0
    a = DiscreteDistribution.point_mass(3.0)
    b = DiscreteDistribution.point_mass(5.5)
    assert ot_quadratic_empirical(a, b) == pytest.approx(2.5**2, abs=1e-15)


def test_ot_common_refinement_of_unequal_weights():
    f = DiscreteDistribution.from_pairs([0.0, 2.0], [0.5, 0.5])
    d = DiscreteDistribution.from_pairs([0.0, 1.0], [0.25, 0.75])
    # quantile blocks: [0,.25) pairs (0,0); [.25,.5) pairs (0,1); [.5,1) pairs (2,1)
    assert ot_quadratic_empirical(f, d) == pytest.approx(0.75, abs=1e-15)


def test_ot_symmetric_and_dominates_gelbrich():
    rng = np.random.default_rng(21)
    pairs = [(random_samples(rng).empirical, random_samples(rng).empirical) for _ in range(200)]
    # f's last weight runs 1e-13 past d's: the walk ends on d's support
    f_long = DiscreteDistribution((1.0, 2.0), (0.5, 0.5 + 1e-13))
    pairs.append((f_long, DiscreteDistribution((1.5,), (1.0,))))
    assert ot_quadratic_empirical(*pairs[-1]) == 0.25
    for f, d in pairs:
        cost_fd = ot_quadratic_empirical(f, d)
        assert cost_fd == ot_quadratic_empirical(d, f)
        mf = MomentSpec(f.mean(), f.std())
        md = MomentSpec(d.mean(), d.std())
        assert cost_fd >= gelbrich_sq(mf, md) - 1e-12


def test_ot_matches_gelbrich_on_affine_images():
    # a nonnegative-shift affine map lands in the exact case of the moment
    # bracket, and pairing v with its image is the optimal coupling
    rng = np.random.default_rng(34)
    for _ in range(100):
        s = random_samples(rng)
        b = float(rng.uniform(0.3, 2.5))
        a = float(rng.uniform(0.0, 6.0))
        mapped = SampleSet(tuple(a + b * v for v in s.values))
        lower, upper, exact = moment_set_distance(s.moments, mapped.moments)
        assert exact
        cost_ot = ot_quadratic_empirical(mapped.empirical, s.empirical)
        assert cost_ot == pytest.approx(lower, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# concentration radius and guarantee report
# ---------------------------------------------------------------------------


def test_epsilon_n_examples():
    assert epsilon_N(100, 1.0, 1.0, 1.0) == pytest.approx(0.1, abs=1e-15)
    assert epsilon_N(400, 1.0, 1.0, 1.0) == pytest.approx(0.05, abs=1e-15)
    assert epsilon_N(100, 0.05, 1.0, 1.0) > epsilon_N(100, 0.5, 1.0, 1.0)
    with pytest.raises(InputError):
        epsilon_N(0, 0.5, 1.0, 1.0)
    with pytest.raises(InputError):
        epsilon_N(100, 1.5, 1.0, 1.0)
    with pytest.raises(InputError):
        epsilon_N(100, 0.5, 0.0, 1.0)


def test_guarantee_canonical_budget():
    g = guarantee(SQUARE, 0.0, COST, 0.4375)
    assert g.alpha_n.alpha == pytest.approx(6.324555320336759, abs=1e-12)
    penalty = g.in_sample_value - g.lower_bound
    assert penalty == pytest.approx(0.5 * math.sqrt(70 * 0.4375), rel=1e-12)
    assert g.lower_bound == pytest.approx(13.300862704793662, rel=1e-12)
    # splitting the same total across eps and shift changes only the labels
    g2 = guarantee(SQUARE, 0.2375, COST, 0.2)
    assert g2.alpha_n.alpha == pytest.approx(g.alpha_n.alpha, abs=1e-12)
    assert g2.lower_bound == pytest.approx(g.lower_bound, rel=1e-12)
    assert (g2.epsilon_n, g2.shift_estimate) == (0.2, 0.2375)


def test_guarantee_zero_budget_is_ambiguity_only():
    g = guarantee(SQUARE, 0.0, COST, 0.0)
    assert g.alpha_n.is_infinite
    scarf = scarf_quantity(SQUARE.moments, COST)
    assert g.in_sample_value == pytest.approx(scarf.value, rel=1e-12)
    assert g.lower_bound == pytest.approx(scarf.value, rel=1e-12)


def test_guarantee_bound_non_increasing_in_shift():
    shifts = [0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0]
    bounds = [guarantee(SQUARE, s, COST, 0.05).lower_bound for s in shifts]
    for lo_shift, hi_shift in zip(bounds, bounds[1:]):
        assert hi_shift <= lo_shift + 1e-12
    with pytest.raises(InputError):
        guarantee(SQUARE, -0.1, COST, 0.0)


def test_report_validation():
    with pytest.raises(InputError):
        GuaranteeReport(0.1, 0.0, MisspecIndex(2.0), 5.0, -0.5)


def test_report_stores_the_floats_it_checked():
    g = GuaranteeReport("0.1", np.float32(0.25), MisspecIndex(2.0), 5.0, "1.0")
    checked = (g.epsilon_n, g.shift_estimate, g.lower_bound)
    assert checked == (0.1, 0.25, 1.0) and all(type(x) is float for x in checked)
    with pytest.raises(InputError, match="lower_bound must be a finite number"):
        GuaranteeReport(0.1, 0.0, MisspecIndex(2.0), 5.0, "one")


# ---------------------------------------------------------------------------
# cross-validated index selection
# ---------------------------------------------------------------------------


def test_cv_alpha_contract():
    samples = SampleSet(tuple(float(3 + (i * 7) % 11) for i in range(20)))
    grid = [0.5, 2.0, 8.0, math.inf]
    pick = cv_alpha(samples, COST, grid, folds=5, seed=42)
    again = cv_alpha(samples, COST, grid, folds=5, seed=42)
    assert pick == again
    assert pick.alpha in {0.5, 2.0, 8.0, math.inf}
    assert cv_alpha(samples, COST, [3.25], folds=4, seed=0).alpha == 3.25
    with pytest.raises(InputError):
        cv_alpha(SampleSet((1.0, 2.0, 3.0)), COST, grid, folds=5)
    with pytest.raises(InputError):
        cv_alpha(samples, COST, [], folds=5)


def test_cv_alpha_ties_break_toward_larger_index():
    # kappa = 0.2 sits below sigma^2 / second moment for every fold
    # complement of this sample (the worst complement's ratio is 0.336),
    # so each candidate orders zero and all scores tie exactly
    lumpy = SampleSet((1.0, 19.0) * 5)
    cheap = CostStructure(10, 8)
    pick = cv_alpha(lumpy, cheap, [0.9, 0.5], folds=5, seed=3)
    assert pick.alpha == 0.9
    pick = cv_alpha(lumpy, cheap, [0.5, 0.9, math.inf], folds=5, seed=3)
    assert pick.is_infinite


def test_formula_calibrate_ties_break_toward_smaller_budget(monkeypatch):
    # the cv tie sample: every fold complement is degenerate at kappa = 0.2,
    # so each budget orders zero on every fold and all scores tie exactly.
    # The full sample is degenerate too and the index returned is zero for
    # any pick, so the pick is read off the budget of the last radius-to-index
    # call (test == train, so the anticipated shift is zero)
    lumpy = SampleSet((1.0, 19.0) * 5)
    cheap = CostStructure(10, 8)
    budgets = []

    def spy(eps, m, cost):
        budgets.append(eps)
        return alpha_for_radius(eps, m, cost)

    monkeypatch.setattr("robustnv.calibration.alpha_for_radius", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the degenerate-moment notice
        formula_calibrate(lumpy, lumpy, cheap, [0.5, 0.1, 0.3], folds=5, seed=3)
    assert budgets[-1] == 0.1


def test_stress_calibrate_ties_break_toward_larger_index_then_first():
    # the full cv tie sample is degenerate at kappa = 0.2 as well, so every
    # index orders zero and earns exactly zero under any stress law
    lumpy = SampleSet((1.0, 19.0) * 5)
    cheap = CostStructure(10, 8)
    shifted = SampleSet(tuple(0.8 * v for v in lumpy.values))
    first, repeat = MisspecIndex(0.9), MisspecIndex(0.9)
    pick = stress_calibrate(lumpy, shifted, cheap, [0.5, first, repeat, 0.2], seed=3)
    assert pick is first
    pick = stress_calibrate(lumpy, shifted, cheap, [0.5, math.inf, 0.9], seed=3)
    assert pick.is_infinite


def test_cv_alpha_tracks_oracle_on_stationary_data():
    # on stationary data the cross-validated index should sit near the top
    # of the out-of-sample ranking; majority rule over fixed seeds
    grid = [float(a) for a in np.geomspace(0.05, 50.0, 24)] + [math.inf]
    hits = 0
    seeds = range(31)
    for seed in seeds:
        rng = np.random.default_rng(1000 + seed)
        train = SampleSet(tuple(np.clip(rng.normal(10.0, 2.0, 50), 0.0, None)))
        fresh = np.clip(rng.normal(10.0, 2.0, 4000), 0.0, None)
        profits = {}
        for a in grid:
            q = misspec_quantity(a, train.moments, COST).quantity
            profits[a] = float(np.mean(10.0 * np.minimum(q, fresh) - 3.0 * q))
        pick = cv_alpha(train, COST, grid, folds=5, seed=seed)
        best = max(profits.values())
        worst = min(profits.values())
        if profits[pick.alpha] >= best - 0.1 * (best - worst):
            hits += 1
    assert hits > len(seeds) // 2, f"cv pick in top decile on only {hits}/31 seeds"


# ---------------------------------------------------------------------------
# stress construction
# ---------------------------------------------------------------------------


def test_stress_distribution_canonical():
    train = SampleSet((2.0, 4.0, 6.0))
    fs = stress_distribution(train, 2.4)
    assert fs.support == pytest.approx((2.0, 2.8, 3.6), abs=1e-12)
    assert ot_quadratic_empirical(fs, train.empirical) == pytest.approx(2.4, abs=1e-12)


def test_stress_distribution_zero_target_and_limits():
    train = SampleSet((2.0, 4.0, 6.0))
    fs = stress_distribution(train, 0.0)
    assert fs.support == train.empirical.support
    assert fs.weights == train.empirical.weights
    # at the largest reachable target everything collapses onto the minimum
    max_target = 20.0 / 3.0
    collapsed = stress_distribution(train, max_target)
    assert collapsed.support == (2.0,)
    with pytest.raises(InputError) as err:
        stress_distribution(train, max_target * 1.01)
    assert "reachable" in str(err.value)


def test_stress_distribution_identity_sweep():
    rng = np.random.default_rng(55)
    for _ in range(60):
        train = random_samples(rng)
        spread = math.fsum((v - min(train.values)) ** 2 for v in train.values)
        target = float(rng.uniform(0.0, spread / train.n))
        fs = stress_distribution(train, target)
        realized = ot_quadratic_empirical(fs, train.empirical)
        assert realized == pytest.approx(target, abs=1e-12)
        assert min(fs.support) >= min(train.values) - 1e-12
        assert max(fs.support) <= max(train.values) + 1e-12


# ---------------------------------------------------------------------------
# shift-aware calibration
# ---------------------------------------------------------------------------


def test_formula_calibrate_zero_shift_limit():
    train = SampleSet(tuple(float(3 + (i % 5)) for i in range(20)))
    pick = formula_calibrate(train, train, COST, [0.0], seed=9)
    assert pick.is_infinite
    # deterministic under a fixed seed
    grid = [0.05, 0.2, 0.8]
    assert formula_calibrate(train, train, COST, grid, seed=9) == formula_calibrate(
        train, train, COST, grid, seed=9
    )


def test_formula_calibrate_shrinks_with_larger_shift():
    rng = np.random.default_rng(77)
    base = tuple(float(v) for v in rng.uniform(8.0, 12.0, 25))
    train = SampleSet(base)
    near = SampleSet(tuple(v - 0.5 for v in base))
    far = SampleSet(tuple(v - 2.5 for v in base))
    a_near = formula_calibrate(train, near, COST, [0.5], seed=11)
    a_far = formula_calibrate(train, far, COST, [0.5], seed=11)
    assert a_far.alpha < a_near.alpha < math.inf


def test_stress_calibrate_zero_shift_validates_on_train():
    train = SampleSet(tuple(float(3 + (i * 7) % 11) for i in range(20)))
    grid = [0.3, 1.0, 4.0, math.inf]
    pick = stress_calibrate(train, train, COST, grid, seed=5)
    # zero target means the stress law is the training law itself
    scores = {}
    for a in grid:
        q = misspec_quantity(a, train.moments, COST).quantity
        scores[a] = train.empirical.expectation(lambda v: profit(q, v, COST))
    best = max(scores, key=lambda a: (scores[a], a))
    assert pick.alpha == best
    assert stress_calibrate(train, train, COST, grid, seed=5) == pick


def test_stress_calibrate_unreachable_target_falls_back():
    train = SampleSet((4.0, 5.0, 6.0))
    test = SampleSet((400.0, 500.0, 600.0))
    with pytest.warns(RuntimeWarning, match="reachable"):
        pick = stress_calibrate(train, test, COST, [0.5, 2.0], seed=1)
    assert pick.alpha in {0.5, 2.0}


def test_stress_calibrate_downward_shift_never_raises_index():
    grid = [float(a) for a in np.geomspace(0.1, 20.0, 10)] + [math.inf]
    no_higher = 0
    seeds = range(31)
    for seed in seeds:
        rng = np.random.default_rng(4000 + seed)
        base = tuple(float(v) for v in np.clip(rng.normal(10.0, 2.0, 40), 0.1, None))
        train = SampleSet(base)
        shifted = SampleSet(tuple(0.7 * v for v in base))
        a_shift = stress_calibrate(train, shifted, COST, grid, seed=seed)
        a_zero = stress_calibrate(train, train, COST, grid, seed=seed)
        if a_shift.alpha <= a_zero.alpha:
            no_higher += 1
    assert no_higher > len(seeds) // 2, f"index rose under shift on {31 - no_higher}/31 seeds"


# ---------------------------------------------------------------------------
# batched scoring against the per-candidate protocol
# ---------------------------------------------------------------------------

# reference: the calibrators as they stood when each candidate was scored
# right after its own solves, one quantity at a time


def _ref_test_profit(q, held, cost):
    q = require_nonnegative("q", q)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(cost.price * np.minimum(q, held) - cost.cost * q))
    if not math.isfinite(mean):
        raise InputError(f"the out-of-sample profit of q={q!r} leaves the float range")
    return mean


def _ref_best(candidates, score, key):
    best, best_score = candidates[0], score(candidates[0])
    for c in candidates[1:]:
        s = score(c)
        if s > best_score or (s == best_score and key(c) > key(best)):
            best, best_score = c, s
    return best


def _ref_cv_score(split, cost, index_for):
    qs = [sp._solve(index_for(m), m, cost)[0] for _, m in split]
    return float(np.mean([_ref_test_profit(q, held, cost) for (held, _), q in zip(split, qs)]))


def _ref_cv_alpha(samples, cost, alpha_grid, folds=5, seed=0):
    grid = [as_misspec_index(a) for a in alpha_grid]
    split = cal._folds(samples, folds, np.random.default_rng(seed))
    return _ref_best(grid, lambda a: _ref_cv_score(split, cost, lambda m: a), lambda a: a.alpha)


def _ref_formula_calibrate(train, test, cost, eps_grid, seed=0, folds=5):
    grid = [float(e) for e in eps_grid]
    rng, shift = cal._shift(train, test, seed)
    split = cal._folds(train, folds, rng)
    eps = _ref_best(
        grid,
        lambda e: _ref_cv_score(split, cost, lambda m: alpha_for_radius(e + shift, m, cost)),
        lambda e: -e,
    )
    return alpha_for_radius(eps + shift, train.moments, cost)


def _ref_stress_calibrate(train, test, cost, alpha_grid, seed=0):
    grid = [as_misspec_index(a) for a in alpha_grid]
    _, target = cal._shift(train, test, seed)
    law = stress_distribution(train, min(target, cal._max_reachable_target(train)[1]))

    def score(a):
        q = sp._solve(a, train.moments, cost)[0]
        return law.expectation(lambda v: profit(q, v, cost))

    return _ref_best(grid, score, lambda a: a.alpha)


def _outcome(fn, *args, **kwargs):
    """repr of the result, or the exception's class and message."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # fallbacks and degenerate moments
        try:
            return repr(fn(*args, **kwargs))
        except Exception as exc:  # the exception is the outcome to compare
            return f"{type(exc).__name__}: {exc}"


def _gamma_sample(rng, scale, n):
    return SampleSet(tuple(float(v) for v in scale * rng.gamma(4.0, 0.5, n)))


def test_batched_calibrators_match_the_per_candidate_protocol():
    rng = np.random.default_rng(2_323)
    for k in range(30):
        scale = float(10 ** rng.uniform(-2, 4))
        p = float(10 ** rng.uniform(-1, 2))
        cost = CostStructure(p, p * float(rng.uniform(0.05, 0.9)))
        train = _gamma_sample(rng, scale, int(rng.integers(10, 300)))
        test = _gamma_sample(rng, scale * float(rng.uniform(0.5, 1.2)), int(rng.integers(2, 300)))
        n = int(rng.integers(1, 12))
        # unsorted grids, with repeats, so the order and the tie rule both count
        alphas = [float(10 ** e) * p / scale for e in rng.uniform(-3, 3, n)]
        alphas += [math.inf] * int(k % 3 == 0) + alphas[: k % 2]
        eps = [float(e) * scale * scale for e in 10 ** rng.uniform(-4, 0.5, n)] + [0.0] * (k % 2)
        folds, seed = int(rng.integers(2, 8)), int(rng.integers(0, 1_000))
        assert _outcome(cv_alpha, train, cost, alphas, folds=folds, seed=seed) == _outcome(
            _ref_cv_alpha, train, cost, alphas, folds=folds, seed=seed), k
        assert _outcome(formula_calibrate, train, test, cost, eps, seed=seed, folds=folds) == (
            _outcome(_ref_formula_calibrate, train, test, cost, eps, seed=seed, folds=folds)), k
        assert _outcome(stress_calibrate, train, test, cost, alphas, seed=seed) == _outcome(
            _ref_stress_calibrate, train, test, cost, alphas, seed=seed), k


def test_calibrators_fail_where_the_per_candidate_protocol_fails():
    # demands near 1e152 and prices near 1e154: a held-out fold mean leaves
    # the float range for some quantities, some indices fail to solve, and
    # budgets past kappa * v^2 give the zero index, which does not solve
    rng = np.random.default_rng(3)
    train, test = _gamma_sample(rng, 5e151, 2_000), _gamma_sample(rng, 4e151, 400)
    seen = {"inner profit": 0, "solve after scored": 0, "selected": 0}
    for k in range(40):
        p = float(rng.uniform(8.3e153, 9.6e153))
        cost = CostStructure(p, 0.3 * p)
        n = int(rng.integers(2, 6))
        ladder = [float(a) * p / 5e151 for a in np.logspace(-3, 1, 13)] + [math.inf]
        alphas = [ladder[i] for i in rng.choice(len(ladder), n, replace=False)]
        eps = [float(e) * 2.5e303 for e in rng.choice(np.geomspace(1e-2, 1e2, 13), n)]
        seed = int(rng.integers(0, 1_000))
        calls = (
            (cv_alpha, _ref_cv_alpha, (train, cost), alphas, {"seed": seed}),
            (formula_calibrate, _ref_formula_calibrate, (train, test, cost), eps, {"seed": seed}),
            (stress_calibrate, _ref_stress_calibrate, (train, test, cost), alphas, {"seed": seed}),
        )
        for fn, ref, args, grid, kw in calls:
            want = _outcome(ref, *args, grid, **kw)
            assert _outcome(fn, *args, grid, **kw) == want, (k, fn.__name__)
            first = _outcome(ref, *args, grid[:1], **kw)
            if not want.startswith(("MisspecIndex", "InputError", "DegenerateModelError")):
                continue
            if "out-of-sample profit" in want:
                seen["inner profit"] += "out-of-sample profit" not in first
            elif want.startswith(("InputError", "DegenerateModelError")):
                seen["solve after scored"] += first.startswith("MisspecIndex")
            else:
                seen["selected"] += 1
    assert all(count >= 3 for count in seen.values()), seen

    # the second candidate fails on its second fold only, the third on its
    # first fold: the error names the former, as candidate-by-candidate
    # scoring met it first
    p = 8.5e153
    cost = CostStructure(p, 0.3 * p)
    grid = [float(a) * p / 5e151 for a in np.logspace(-3, 1, 13)[8:11]]
    split = cal._folds(train, 5, np.random.default_rng(0))
    q = sp._solve(grid[1], split[1][1], cost)[0]
    want = f"InputError: the out-of-sample profit of q={q!r} leaves the float range"
    assert _outcome(_ref_cv_alpha, train, cost, grid) == want
    assert _outcome(cv_alpha, train, cost, grid) == want
