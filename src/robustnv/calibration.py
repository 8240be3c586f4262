"""Sample statistics, transport distances, and data-driven index calibration.

Everything in this module is exact arithmetic on finitely supported laws:
empirical moments use the population (divide-by-N) convention, the quadratic
optimal-transport cost between empirical laws is computed by the comonotone
coupling on the common refinement of the two weight partitions (optimal for
one-dimensional convex costs), and the stress construction shifts every
observation toward the sample minimum so that the transport identity holds to
floating-point accuracy.

The three calibrators share one protocol, driven by one
``numpy.random.default_rng(seed)``.  The shift-aware rules (formula, stress)
first draw ``beta ~ U[0.5, 1]`` once and anticipate the squared shift
``beta * ot_quadratic_empirical(test, train)``.  The cross-validated rules
(cv, formula) then split the training samples into ``folds`` parts by one
permutation, solve each candidate on every fold complement's moments and
score it by the mean over folds of the held-out mean profit.  Selection
takes the highest score; exact ties go to the candidate with the largest
index (the smallest budget for the formula rule), then to the first in grid
order.  Results are deterministic for a fixed seed, a whole number >= 0.

A :class:`SampleSet` derives its empirical law and its moments on first read:
callers that read no law (the cv rule, a sweep) never sort the observations.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from operator import mul
from typing import Callable, Sequence

import numpy as np

from .distances import _half_root, alpha_for_radius
from .single_product import (
    AlphaLike,
    CostStructure,
    DiscreteDistribution,
    MisspecIndex,
    MomentSpec,
    _checked_test_profits,
    _expected_profits,
    _floats,
    _solve,
    _solves,
    _test_profits,
)
from .validation import (
    DegenerateModelError,
    InputError,
    require,
    require_nonnegative,
    require_positive,
    positive_part,
    _fsum_or_inf,
    _until_error,
    _whole_number,
)

__all__ = [
    "SampleSet",
    "GuaranteeReport",
    "empirical_moments",
    "gelbrich_sq",
    "moment_set_distance",
    "ot_quadratic_empirical",
    "epsilon_N",
    "guarantee",
    "cv_alpha",
    "stress_distribution",
    "formula_calibrate",
    "stress_calibrate",
]


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampleSet:
    """Nonnegative demand observations with derived empirical law and moments.

    ``mean`` and ``std`` use the population (divide-by-N) convention.  At
    least two observations are required, their squares must sum within the
    float range, the mean must be positive, and the observations must not all
    coincide — a zero sample deviation leaves every moment-based model in this
    library degenerate, so it is rejected here with a diagnostic rather than
    surfacing later as a division by zero.  A value that ``float()`` rejects,
    or one that is negative, NaN or infinite, is an :class:`InputError` naming
    the first such ``values[i]``.  ``empirical`` and ``moments`` are derived on
    first read and kept.
    """

    values: tuple[float, ...]
    mean: float = field(init=False, repr=False, compare=False)
    std: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # one pass converts every value (one tolist for a float array); only a
        # value float() rejects (a string, None, an int beyond the float range)
        # runs the loop that names the first of them
        values = self.values if isinstance(self.values, np.ndarray) else tuple(self.values)
        try:
            vals = tuple(_floats(values, "values"))
        except (TypeError, ValueError, OverflowError):
            vals = tuple(require_nonnegative(f"values[{i}]", v) for i, v in enumerate(values))
        require(len(vals) >= 2, "need at least two observations for a deviation")
        for i, v in enumerate(vals):
            if not 0.0 <= v < math.inf:  # NaN too; the message is formed only here
                require_nonnegative(f"values[{i}]", v)
        second = _fsum_or_inf(v * v for v in vals) / len(vals)
        require(math.isfinite(second), "the squared observations sum beyond the float range")
        mean = math.fsum(vals) / len(vals)
        var = positive_part(second - mean * mean)
        if mean <= 0.0:
            raise DegenerateModelError(
                "sample mean must be positive; got all-zero observations"
            )
        if var <= 0.0:
            raise DegenerateModelError(
                f"all {len(vals)} observations equal {vals[0]!r}: "
                "zero sample deviation leaves the moment model degenerate"
            )
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", math.sqrt(var))

    @property
    def n(self) -> int:
        return len(self.values)

    @cached_property
    def empirical(self) -> DiscreteDistribution:
        return DiscreteDistribution.from_samples(self.values)

    @cached_property
    def moments(self) -> MomentSpec:
        return MomentSpec(self.mean, self.std)


@dataclass(frozen=True)
class GuaranteeReport:
    """Finite-sample performance bound at the calibrated index.

    ``lower_bound`` is ``max(in_sample_value - penalty, 0)`` where the
    penalty is ``0.5 * sqrt(p (p - c) (epsilon_n + shift_estimate))`` —
    the price paid for estimation error plus anticipated shift.
    """

    epsilon_n: float
    shift_estimate: float
    alpha_n: MisspecIndex
    in_sample_value: float
    lower_bound: float

    def __post_init__(self) -> None:
        for name in ("epsilon_n", "shift_estimate", "lower_bound"):
            object.__setattr__(self, name, require_nonnegative(name, getattr(self, name)))


# ---------------------------------------------------------------------------
# statistics and distances
# ---------------------------------------------------------------------------


def empirical_moments(s: SampleSet) -> MomentSpec:
    """Population-convention mean and deviation of the observations."""
    return s.moments


def gelbrich_sq(m1: MomentSpec, m2: MomentSpec) -> float:
    """Squared moment distance (mu1 - mu2)^2 + (sigma1 - sigma2)^2."""
    dm = m1.mean - m2.mean
    ds = m1.std - m2.std
    return dm * dm + ds * ds


def moment_set_distance(
    d_moments: MomentSpec, hat: MomentSpec
) -> tuple[float, float, bool]:
    """Bracket for the transport cost from a law with moments ``d_moments``
    to the nonnegative mean-deviation set around ``hat``.

    When ``hat.mean/hat.std >= d_moments.mean/d_moments.std`` the affine map
    onto the hat moments stays nonnegative, the cost equals the squared
    moment distance exactly, and ``exact`` is True.  Otherwise only a
    bracket is known: the squared moment distance below, and above it plus
    a correction ``(mu^2 sigma_hat^2 - mu_hat^2 sigma^2)/(sigma sigma_hat)``
    valid for large samples.  The upper end is clamped to never fall below
    the lower end, and ``exact`` is False — callers must treat the bracket
    as a bracket, not a value.
    """
    require_positive("d_moments.std", d_moments.std)
    require_positive("hat.std", hat.std)
    lower = gelbrich_sq(d_moments, hat)
    if hat.mean * d_moments.std >= d_moments.mean * hat.std:
        return lower, lower, True
    correction = (
        d_moments.mean**2 * hat.std**2 - hat.mean**2 * d_moments.std**2
    ) / (d_moments.std * hat.std)
    return lower, max(lower, lower + correction), False


def ot_quadratic_empirical(
    f_hat: DiscreteDistribution, d_hat: DiscreteDistribution
) -> float:
    """Exact quadratic-cost transport between two finitely supported laws.

    Pairs mass in quantile order (the comonotone coupling) on the common
    refinement of the two weight partitions; for convex costs on the line
    this coupling is optimal, so no approximation is involved.
    """
    terms: list[float] = []
    i = j = 0
    rem_f = f_hat.weights[0]
    rem_d = d_hat.weights[0]
    while True:
        m = min(rem_f, rem_d)
        gap = f_hat.support[i] - d_hat.support[j]
        terms.append(m * gap * gap)
        rem_f -= m
        rem_d -= m
        if rem_f <= 1e-15:
            i += 1
            if i == len(f_hat.support):
                break
            rem_f = f_hat.weights[i]
        if rem_d <= 1e-15:
            j += 1
            if j == len(d_hat.support):
                break
            rem_d = d_hat.weights[j]
    return math.fsum(terms)


def epsilon_N(n: int, eta: float, c1: float, c2: float) -> float:
    """Concentration radius (c1 + c2 log(1/eta))^2 / sqrt(n), for a whole
    number ``n >= 1`` (``3.0`` is 3, ``2.5`` an :class:`InputError`).

    ``c1`` and ``c2`` are user-supplied tuning constants; the module makes
    no attempt to derive them from first principles.
    """
    n = _whole_number("n", n, 1)
    eta = require_positive("eta", eta)
    require(eta <= 1.0, f"eta must lie in (0, 1], got {eta!r}")
    c1 = require_positive("c1", c1)
    c2 = require_positive("c2", c2)
    base = c1 + c2 * math.log(1.0 / eta)
    return base * base / math.sqrt(n)


# ---------------------------------------------------------------------------
# finite-sample guarantee
# ---------------------------------------------------------------------------


def guarantee(
    samples: SampleSet, shift: float, cost: CostStructure, eps: float
) -> GuaranteeReport:
    """Calibrated index and profit lower bound for estimation error ``eps``
    plus anticipated squared shift ``shift``.

    The index is ``alpha_for_radius(eps + shift, ...)`` on the sample
    moments; the bound subtracts ``0.5 sqrt(p (p - c) (eps + shift))`` from
    the in-sample optimal value and clips at zero.  With both budgets zero
    the index is infinite and the bound equals the ambiguity-only value.
    """
    shift = require_nonnegative("shift", shift)
    eps = require_nonnegative("eps", eps)
    m_hat = samples.moments
    total = eps + shift
    alpha_n = alpha_for_radius(total, m_hat, cost)
    _, value = _solve(alpha_n, m_hat, cost)
    penalty = _half_root(cost, mul, total)
    return GuaranteeReport(
        epsilon_n=eps,
        shift_estimate=shift,
        alpha_n=alpha_n,
        in_sample_value=value,
        lower_bound=positive_part(value - penalty),
    )


# ---------------------------------------------------------------------------
# the shared calibration steps
# ---------------------------------------------------------------------------


def _folds(
    samples: SampleSet, folds: int, rng: np.random.Generator
) -> list[tuple[np.ndarray, MomentSpec]]:
    """Seeded k-fold split: (held-out values, fold-complement moments) per fold."""
    folds = _whole_number("folds", folds, 2)
    if samples.n < folds:
        raise InputError(
            f"need at least {folds} observations for {folds}-fold splits, "
            f"got {samples.n}"
        )
    values = np.asarray(samples.values, dtype=float)
    split = []
    for held in np.array_split(rng.permutation(samples.n), folds):
        mask = np.ones(values.size, dtype=bool)
        mask[held] = False
        train = values[mask]
        mean = float(train.mean())
        var = positive_part(float(np.mean(train * train)) - mean * mean)
        split.append((values[held], MomentSpec(mean, math.sqrt(var))))
    return split


def _cv_score(
    split: Sequence[tuple[np.ndarray, MomentSpec]],
    cost: CostStructure,
    candidates: Sequence,
    index_for: Callable[[object, MomentSpec], MisspecIndex],
) -> list[float]:
    """Per candidate, the average over folds of the held-out mean selling
    profit of the quantity solved on each fold complement's moments at the
    index ``index_for(candidate, moments)``.  All (candidate, fold) pairs are
    solved first, in one batch; then each fold scores every candidate in one
    numpy pass.  Errors come in the per-candidate order: the first candidate
    whose indices, solves or fold profits fail decides, its indices and
    solves first (pair by pair), then its folds in order."""
    points = [(c, m) for c in candidates for _, m in split]
    alphas, error = _until_error(lambda point: index_for(*point).alpha, points)
    ms = [m for _, m in points[: len(alphas)]]
    solved, solve_error = _solves(alphas, [m.mean for m in ms], [m.std for m in ms],
                                  cost.price, cost.cost)
    error = error if solve_error is None else solve_error  # it comes first
    k = len(split)
    qs = [[q for q, _ in solved[i : i + k]] for i in range(0, len(solved) - k + 1, k)]
    by_fold = [_test_profits(col, held, cost) for (held, _), col in zip(split, zip(*qs))]
    scores = np.array(by_fold).T.copy()  # (candidate, fold), rows contiguous for the mean
    # read every checked mean: the first bad (candidate, fold) raises
    list(_checked_test_profits([q for row in qs for q in row], scores.ravel()))
    if error is not None:
        raise error
    return scores.mean(axis=1).tolist()


def _shift(
    train: SampleSet, test: SampleSet, seed: int
) -> tuple[np.random.Generator, float]:
    """The seeded generator after its one ``beta ~ U[0.5, 1]`` draw, and the
    anticipated shift ``beta * ot_quadratic_empirical(test, train)``."""
    rng = np.random.default_rng(_whole_number("seed", seed, 0))
    beta = float(rng.uniform(0.5, 1.0))
    return rng, beta * ot_quadratic_empirical(test.empirical, train.empirical)


def _best(candidates: Sequence, scores: Sequence[float], key: Callable):
    """The selection rule over scores formed in one pass, which raised any
    scoring error first: highest score, then highest ``key`` among exact
    ties, then the first candidate."""
    best, best_score = candidates[0], scores[0]
    for c, s in zip(candidates[1:], scores[1:]):
        if s > best_score or (s == best_score and key(c) > key(best)):
            best, best_score = c, s
    return best


def _index_grid(alpha_grid: Sequence[AlphaLike]) -> list[MisspecIndex]:
    """The non-empty ``alpha_grid`` as indices: an index is kept, any other entry
    read as a float >= 0 (``inf`` the ambiguity-only index), naming ``alpha_grid[i]``."""
    grid = [a if isinstance(a, MisspecIndex) else MisspecIndex(require_nonnegative(
        f"alpha_grid[{i}]", a, allow_inf=True)) for i, a in enumerate(alpha_grid)]
    require(len(grid) > 0, "alpha_grid must be non-empty")
    return grid


def cv_alpha(
    samples: SampleSet,
    cost: CostStructure,
    alpha_grid: Sequence[AlphaLike],
    folds: int = 5,
    seed: int = 0,
) -> MisspecIndex:
    """Select the index by k-fold cross-validation on held-out profit.

    Each candidate is solved on every fold complement's moments and scored by
    the held-out mean profit.  Ties break toward the larger index (the less
    conservative choice).
    """
    grid = _index_grid(alpha_grid)
    split = _folds(samples, folds, np.random.default_rng(_whole_number("seed", seed, 0)))
    return _best(grid, _cv_score(split, cost, grid, lambda a, m: a), lambda a: a.alpha)


# ---------------------------------------------------------------------------
# stress construction and shift-aware calibration
# ---------------------------------------------------------------------------


def _max_reachable_target(samples: SampleSet) -> tuple[float, float]:
    """(sum of squared gaps to the minimum, largest realizable budget)."""
    v_star = min(samples.values)
    spread = math.fsum((v - v_star) ** 2 for v in samples.values)
    return spread, spread / samples.n


def stress_distribution(train: SampleSet, target: float) -> DiscreteDistribution:
    """Empirical law shifted toward its minimum at squared transport cost
    exactly ``target``.

    Each observation moves to ``(1 - rho) v + rho v_min`` with
    ``rho = sqrt(n target / sum (v - v_min)^2)``; pairing each observation
    with its image is the optimal coupling (the map is monotone), so the
    realized cost matches ``target`` to floating-point accuracy.  Targets
    beyond ``rho = 1`` are unreachable by this construction and rejected
    with the largest reachable budget in the message.
    """
    target = require_nonnegative("target", target)
    spread, max_target = _max_reachable_target(train)
    rho = math.sqrt(train.n * target / spread)
    if rho > 1.0 + 1e-12:
        raise InputError(
            f"stress target {target!r} is unreachable by a downward shift; "
            f"the largest reachable target is {max_target!r}"
        )
    rho = min(rho, 1.0)
    v_star = min(train.values)
    return DiscreteDistribution.from_samples(
        [(1.0 - rho) * v + rho * v_star for v in train.values]
    )


def formula_calibrate(
    train: SampleSet,
    test: SampleSet,
    cost: CostStructure,
    eps_grid: Sequence[float],
    seed: int = 0,
    folds: int = 5,
) -> MisspecIndex:
    """Shift-aware index from the radius formula with a cross-validated
    estimation budget.

    Each candidate ``eps`` is scored by k-fold cross-validation on the
    training samples, the fold quantity using the index
    ``alpha_for_radius(eps + shift, ...)`` on the fold-complement moments.
    Ties break toward the smaller budget (the larger index).  Returns the
    index at the selected budget plus the shift, on the full training moments.
    """
    grid = [require_nonnegative(f"eps_grid[{i}]", e) for i, e in enumerate(eps_grid)]
    require(len(grid) > 0, "eps_grid must be non-empty")
    rng, shift = _shift(train, test, seed)
    split = _folds(train, folds, rng)
    eps = _best(
        grid,
        _cv_score(split, cost, grid, lambda e, m: alpha_for_radius(e + shift, m, cost)),
        lambda e: -e,
    )
    return alpha_for_radius(eps + shift, train.moments, cost)


def stress_calibrate(
    train: SampleSet,
    test: SampleSet,
    cost: CostStructure,
    alpha_grid: Sequence[AlphaLike],
    seed: int = 0,
) -> MisspecIndex:
    """Shift-aware index selection against a constructed stress law.

    Builds the downward-shifted law at the anticipated shift (budgets beyond
    the reachable maximum fall back to that maximum with a warning), then
    scores each grid index by the expected profit of its training-moment
    quantity under the stress law.  Ties break toward the larger index.
    """
    grid = _index_grid(alpha_grid)
    _, target = _shift(train, test, seed)
    _, max_target = _max_reachable_target(train)
    if target > max_target:
        warnings.warn(
            f"stress target {target:.6g} exceeds the largest reachable "
            f"budget {max_target:.6g}; falling back to the maximum",
            RuntimeWarning,
            stacklevel=2,
        )
        target = max_target
    f_stress = stress_distribution(train, target)
    m_train = train.moments
    # one index at a time, as an index grid is shorter than a batch that pays;
    # a solve error waits for the indices before it to be scored
    qs, error = _until_error(lambda a: _solve(a, m_train, cost)[0], grid)
    scores = list(_expected_profits(f_stress, qs, cost))
    if error is not None:
        raise error
    return _best(grid, scores, lambda a: a.alpha)
