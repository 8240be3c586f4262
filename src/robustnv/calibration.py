"""Sample statistics, transport distances, and data-driven index calibration.

Everything in this module is exact arithmetic on finitely supported laws:
empirical moments use the population (divide-by-N) convention, the quadratic
optimal-transport cost between empirical laws is computed by the comonotone
coupling on the common refinement of the two weight partitions (optimal for
one-dimensional convex costs), and the stress construction shifts every
observation toward the sample minimum so that the transport identity holds to
floating-point accuracy.  Randomness (discount draw, fold shuffling) is always
driven by an explicit seed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .distances import alpha_for_radius
from .single_product import (
    AlphaLike,
    CostStructure,
    DiscreteDistribution,
    MisspecIndex,
    MomentSpec,
    _expected_profit,
    _profit,
    _solve,
    as_misspec_index,
)
from .validation import (
    DegenerateModelError,
    InputError,
    require,
    require_nonnegative,
    require_positive,
    positive_part,
)

__all__ = [
    "SampleSet",
    "GuaranteeReport",
    "StressSpec",
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
    least two observations are required, the mean must be positive, and the
    observations must not all coincide — a zero sample deviation leaves every
    moment-based model in this library degenerate, so it is rejected here
    with a diagnostic rather than surfacing later as a division by zero.
    """

    values: tuple[float, ...]
    mean: float = field(init=False, repr=False, compare=False)
    std: float = field(init=False, repr=False, compare=False)
    empirical: DiscreteDistribution = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        require(len(vals) >= 2, "need at least two observations for a deviation")
        for i, v in enumerate(vals):
            require_nonnegative(f"values[{i}]", v)
        mean = math.fsum(vals) / len(vals)
        second = math.fsum(v * v for v in vals) / len(vals)
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
        object.__setattr__(
            self, "empirical", DiscreteDistribution.from_samples(vals)
        )

    @property
    def n(self) -> int:
        return len(self.values)

    @property
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
        require_nonnegative("epsilon_n", self.epsilon_n)
        require_nonnegative("shift_estimate", self.shift_estimate)
        require_nonnegative("lower_bound", self.lower_bound)


@dataclass(frozen=True)
class StressSpec:
    """Parameters of a downward stress construction.

    ``beta_discount`` scales the raw empirical shift estimate (drawn from
    U[0.5, 1] by the calibration routines); ``rho`` is the fraction of the
    way each observation moves toward the sample minimum; ``target_distance``
    is the squared transport budget the construction realizes exactly.
    """

    beta_discount: float
    rho: float
    target_distance: float

    def __post_init__(self) -> None:
        require(
            0.5 <= self.beta_discount <= 1.0,
            f"beta_discount must lie in [0.5, 1], got {self.beta_discount!r}",
        )
        require(
            0.0 <= self.rho <= 1.0,
            f"rho must lie in [0, 1] for a valid downward shift, got {self.rho!r}",
        )
        require_nonnegative("target_distance", self.target_distance)


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
    """Concentration radius (c1 + c2 log(1/eta))^2 / sqrt(n).

    ``c1`` and ``c2`` are user-supplied tuning constants; the module makes
    no attempt to derive them from first principles.
    """
    require(int(n) >= 1, f"sample size must be >= 1, got {n!r}")
    require(0.0 < eta <= 1.0, f"eta must lie in (0, 1], got {eta!r}")
    require_positive("c1", c1)
    require_positive("c2", c2)
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
    require_nonnegative("shift", shift)
    require_nonnegative("eps", eps)
    m_hat = samples.moments
    total = eps + shift
    alpha_n = alpha_for_radius(total, m_hat, cost)
    _, value = _solve(alpha_n, m_hat, cost)
    penalty = 0.5 * math.sqrt(cost.price * (cost.price - cost.cost) * total)
    return GuaranteeReport(
        epsilon_n=eps,
        shift_estimate=shift,
        alpha_n=alpha_n,
        in_sample_value=value,
        lower_bound=positive_part(value - penalty),
    )


# ---------------------------------------------------------------------------
# cross-validation machinery
# ---------------------------------------------------------------------------


def _fold_partition(n: int, folds: int, rng: np.random.Generator) -> list[np.ndarray]:
    perm = rng.permutation(n)
    return np.array_split(perm, folds)


def _fold_moments(values: np.ndarray, parts: Sequence[np.ndarray]) -> list[MomentSpec]:
    """Population moments of each fold complement (the training split)."""
    out = []
    for held in parts:
        mask = np.ones(values.size, dtype=bool)
        mask[held] = False
        train = values[mask]
        mean = float(train.mean())
        var = positive_part(float(np.mean(train * train)) - mean * mean)
        out.append(MomentSpec(mean, math.sqrt(var)))
    return out


def _held_out_score(
    values: np.ndarray,
    parts: Sequence[np.ndarray],
    quantities: Sequence[float],
    cost: CostStructure,
) -> float:
    """Average over folds of the held-out mean selling profit."""
    scores = [
        float(np.mean(_profit(q, values[held], cost)))
        for held, q in zip(parts, quantities)
    ]
    return float(np.mean(scores))


def cv_alpha(
    samples: SampleSet,
    cost: CostStructure,
    alpha_grid: Sequence[AlphaLike],
    folds: int = 5,
    seed: int = 0,
) -> MisspecIndex:
    """Select the index by k-fold cross-validation on held-out profit.

    Folds come from a seeded shuffle; each candidate is solved on the fold
    complement's moments and scored by the held-out mean profit, averaged
    over folds.  Ties break toward the larger index (the less conservative
    choice).  Deterministic for a fixed seed.
    """
    require(int(folds) >= 2, f"folds must be >= 2, got {folds!r}")
    grid = [as_misspec_index(a) for a in alpha_grid]
    require(len(grid) > 0, "alpha_grid must be non-empty")
    if samples.n < folds:
        raise InputError(
            f"need at least {folds} observations for {folds}-fold splits, "
            f"got {samples.n}"
        )
    rng = np.random.default_rng(seed)
    parts = _fold_partition(samples.n, int(folds), rng)
    values = np.asarray(samples.values, dtype=float)
    fold_ms = _fold_moments(values, parts)
    best: MisspecIndex | None = None
    best_score = -math.inf
    for a in grid:
        qs = [_solve(a, m, cost)[0] for m in fold_ms]
        score = _held_out_score(values, parts, qs, cost)
        if (
            best is None
            or score > best_score
            or (score == best_score and a.alpha > best.alpha)
        ):
            best, best_score = a, score
    assert best is not None
    return best


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
    require_nonnegative("target", target)
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

    The anticipated shift is ``beta * ot_quadratic_empirical(test, train)``
    with ``beta ~ U[0.5, 1]`` drawn once from the seed.  Each candidate
    ``eps`` is scored by k-fold cross-validation on the training samples —
    the fold quantity uses the index ``alpha_for_radius(eps + shift, ...)``
    on the fold-complement moments — and ties break toward the smaller
    budget (the larger index).  Returns the index at the selected budget
    plus the shift, on the full training moments.
    """
    grid = [float(e) for e in eps_grid]
    require(len(grid) > 0, "eps_grid must be non-empty")
    for e in grid:
        require_nonnegative("eps_grid entry", e)
    require(int(folds) >= 2, f"folds must be >= 2, got {folds!r}")
    if train.n < folds:
        raise InputError(
            f"need at least {folds} observations for {folds}-fold splits, "
            f"got {train.n}"
        )
    rng = np.random.default_rng(seed)
    beta = float(rng.uniform(0.5, 1.0))
    shift = beta * ot_quadratic_empirical(test.empirical, train.empirical)
    parts = _fold_partition(train.n, int(folds), rng)
    values = np.asarray(train.values, dtype=float)
    fold_ms = _fold_moments(values, parts)
    best_eps = None
    best_score = -math.inf
    for eps in grid:
        qs = []
        for m in fold_ms:
            a = alpha_for_radius(eps + shift, m, cost)
            qs.append(_solve(a, m, cost)[0])
        score = _held_out_score(values, parts, qs, cost)
        if (
            best_eps is None
            or score > best_score
            or (score == best_score and eps < best_eps)
        ):
            best_eps, best_score = eps, score
    assert best_eps is not None
    return alpha_for_radius(best_eps + shift, train.moments, cost)


def stress_calibrate(
    train: SampleSet,
    test: SampleSet,
    cost: CostStructure,
    alpha_grid: Sequence[AlphaLike],
    seed: int = 0,
) -> MisspecIndex:
    """Shift-aware index selection against a constructed stress law.

    Builds the downward-shifted law matching ``beta`` times the empirical
    shift (``beta ~ U[0.5, 1]`` drawn once from the seed; budgets beyond the
    reachable maximum fall back to that maximum with a warning), then picks
    the grid index whose training-moment quantity earns the most expected
    profit under the stress law.  Ties break toward the larger index.
    """
    grid = [as_misspec_index(a) for a in alpha_grid]
    require(len(grid) > 0, "alpha_grid must be non-empty")
    rng = np.random.default_rng(seed)
    beta = float(rng.uniform(0.5, 1.0))
    raw = ot_quadratic_empirical(test.empirical, train.empirical)
    target = beta * raw
    spread, max_target = _max_reachable_target(train)
    if target > max_target:
        warnings.warn(
            f"stress target {target:.6g} exceeds the largest reachable "
            f"budget {max_target:.6g}; falling back to the maximum",
            RuntimeWarning,
            stacklevel=2,
        )
        target = max_target
    stress = StressSpec(
        beta_discount=beta,
        rho=min(math.sqrt(train.n * target / spread), 1.0),
        target_distance=target,
    )
    f_stress = stress_distribution(train, stress.target_distance)
    m_train = train.moments
    best: MisspecIndex | None = None
    best_score = -math.inf
    for a in grid:
        score = _expected_profit(f_stress, _solve(a, m_train, cost)[0], cost)
        if (
            best is None
            or score > best_score
            or (score == best_score and a.alpha > best.alpha)
        ):
            best, best_score = a, score
    assert best is not None
    return best
