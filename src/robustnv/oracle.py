"""Brute-force validation oracle for small moment problems.

Ground truth for the closed forms elsewhere in the package is produced the
slow, honest way: restrict the candidate laws to a finite support grid,
enumerate every subset of at most (#constraints + 1) support points (the
extreme-point bound for moment polytopes), solve the tiny linear system for
the weights, keep the feasible nonnegative solutions, and take the minimum
expected objective.  No linear-programming dependency.  Beyond the law type,
the oracles share two rules with the closed forms they validate, and nothing
else: the profit ``pi(q, v) = p*min(q, v) - c*q`` of
``single_product._profit`` and the grid rule of ``single_product._grid``.

Candidates come singletons first, then pairs (one pass per solved constraint
row), then triples, each family in lexicographic index order: a block holds
rows of one length in strictly ascending order, which the streaming oracle's
tie rule depends on, and the family's first-hit rule follows that order.
Pairs and triples are tested in blocks of ``_BLOCK`` candidates per numpy
pass, so memory stays bounded whatever the grid size.  Triples are formed
row by row, a row being a (low, middle) atom pair; a row whose third weight
is provably negative for every high atom is dropped before it is expanded
(the proof is in :func:`_iter_triples`).

Three consumption styles:

* :func:`worst_case_expectation_oracle` — one-shot, and the package's one
  lexicographic argmin: streams candidate chunks against a single objective
  with a running minimum, so memory stays bounded even on fine grids (cubic
  enumeration is capped at 1500 points; ~400 is the recommended routine
  budget), and returns the argmin law with exact ties resolved toward the
  lexicographically smallest support.
* :class:`MomentLawFamily` — materializes the feasible family once for reuse
  against many objectives (e.g. scanning order quantities): minima and
  first-hit rows, no tie rule beyond enumeration order; this is the
  expensive-to-build, cheap-to-query path and therefore enforces the 400-point
  cubic budget strictly.  Objectives are scored in consecutive blocks of laws
  holding about ``_LAW_BLOCK`` expectations each (1 MB), folded into running
  minima, so scoring adds a fixed amount of memory however large the family.
* :func:`_moment_min_batch` — the family's minima for the mean and
  second-moment set without the family, for instances on one grid size:
  one table of weight numerators over the grid pairs proves that the family
  holds no singleton or pair and floors every family triple's weights; per
  objective row, an exchange on the grid finds a dual parabola, the floor
  proves that only triples on the few points near the parabola can reach
  the row's minimum, and those are scored with the family's own weights and
  summation, bit for bit.  All instances' rows run stacked, each on its own
  grid and moments.  ``oracle_check`` reads its minima this way, a group of
  instances at a time.  It builds the family at two sites: whole, for a set
  without a start law, and on the union of an instance's screened points,
  for rows that screen over ``_SCREEN_CAP`` points (small-index rows, exact
  parabolas over much of the grid, where rounding decides among tied laws)
  and every row of an instance the table gives no floor.

The grid envelope :func:`inner_min_oracle` and the transport-ball dual
:func:`wasserstein_dual_oracle` share one kernel, :func:`_row_minima`: the
minimum over a u grid of ``pi(psi, u) + gamma*(u - w)^2`` for every (psi,
gamma) row of one atom.  It reads each row's minimum from two windows of grid
points, the neighbours of w and psi and the points around the quadratic's
vertex, and proves from the objective's monotone and convex pieces and a
rounding bound that they hold the dense grid minimum, bit for bit; a row the
bound does not certify is formed in full.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .single_product import DiscreteDistribution, _floats, _grid, _profit
from .validation import (
    InfeasibleError,
    InputError,
    _member,
    require,
    require_finite,
    require_nonnegative,
    require_positive,
    _until_error,
)

__all__ = [
    "Moment",
    "Relation",
    "MomentConstraint",
    "MomentConstraintSet",
    "OracleResult",
    "MomentLawFamily",
    "worst_case_expectation_oracle",
    "inner_min_oracle",
    "grid_argmax",
    "wasserstein_dual_oracle",
]

_FEAS_TOL = 1e-8  # constraint feasibility, per contract
_W_TOL = 1e-12  # weight nonnegativity slack
_PIVOT_TOL = 1e-12  # near-singular subset systems are skipped
_BLOCK = 1 << 14  # candidates (or triple rows) tested per numpy pass
_LAW_BLOCK = 1 << 17  # law expectations per scored family block (1 MB)
_FAMILY_CUBIC_BUDGET = 400  # grid points of a stored family with triples
_PAIR_CAP = 20000  # grid points of either enumeration
_EPS = 2.0**-53  # unit roundoff of a double
_ETA = 2.0**-1074  # smallest subnormal: bounds a product's underflow error
_COARSE = 16  # about this many grid points hold the exchange's start
_EXCHANGE_STEPS = 24  # pivots of the exchange, at most
_SCREEN_CAP = 24  # screened points of a row scored by its own triples


class Moment(str, Enum):
    MEAN = "MEAN"
    SECOND_MOMENT = "SECOND_MOMENT"


class Relation(str, Enum):
    EQ = "EQ"
    LE = "LE"


@dataclass(frozen=True)
class MomentConstraint:
    moment: Moment
    relation: Relation
    bound: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "moment", _member(Moment, self.moment))
        object.__setattr__(self, "relation", _member(Relation, self.relation))
        object.__setattr__(self, "bound", require_finite("bound", self.bound))


@dataclass(frozen=True)
class MomentConstraintSet:
    """A support grid plus mean / second-moment constraints.

    The grid obeys :func:`_grid`; at most one constraint per moment id (the
    enumeration solves subset systems whose rows are the distinct moment maps).
    """

    grid: tuple[float, ...]
    constraints: tuple[MomentConstraint, ...]

    def __post_init__(self) -> None:
        g = tuple(_grid("grid", self.grid))
        try:
            constraints = tuple(self.constraints)
        except TypeError:  # not iterable: a bare MomentConstraint, say
            raise InputError(
                "constraints must be an iterable of MomentConstraint, "
                f"got {type(self.constraints).__name__}"
            ) from None
        for c in constraints:
            require(
                isinstance(c, MomentConstraint),
                f"constraints must hold MomentConstraint, got {type(c).__name__}",
            )
        ids = [c.moment for c in constraints]
        require(len(ids) == len(set(ids)), "at most one constraint per moment id")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "constraints", constraints)

    @property
    def needs_cubic(self) -> bool:
        return len(self.constraints) >= 2


@dataclass(frozen=True)
class OracleResult:
    value: float
    argmin: DiscreteDistribution
    grid_error_bound: float


def _moment_map(grid: np.ndarray, moment: Moment) -> np.ndarray:
    return grid if moment is Moment.MEAN else grid * grid


def _violates(total, c: MomentConstraint):
    if c.relation is Relation.EQ:
        return np.abs(total - c.bound) > _FEAS_TOL
    return total > c.bound + _FEAS_TOL


# ---------------------------------------------------------------------------
# candidate enumeration (chunked generators, lexicographic order)
# ---------------------------------------------------------------------------


def _iter_singletons(grid: np.ndarray, constraints) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    ok = np.ones(grid.size, dtype=bool)
    for c in constraints:
        ok &= ~_violates(_moment_map(grid, c.moment), c)
    hits = np.nonzero(ok)[0]
    if hits.size:
        yield hits[:, None].astype(np.int64), np.ones((hits.size, 1))


def _ragged_blocks(counts: np.ndarray) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """Consecutive runs of rows holding about ``_BLOCK`` elements in all.

    Row ``r`` owns ``counts[r]`` elements, taken in row order.  Each run is
    yielded as ``(rows, sizes, off)``: the slice of its rows, their counts,
    and every element's offset within its row, so ``np.repeat(x[rows],
    sizes)`` spreads a per-row array over the elements.  A row larger than
    ``_BLOCK`` forms a run of its own; runs without elements are skipped.
    """
    ends = np.cumsum(counts)
    lo = 0
    while lo < counts.size:
        base = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, base + _BLOCK, side="right")))
        sizes = counts[lo:hi]
        total = int(ends[hi - 1]) - base
        if total:
            starts = ends[lo:hi] - sizes - base
            yield slice(lo, hi), sizes, np.arange(total) - np.repeat(starts, sizes)
        lo = hi


def _iter_pairs(grid: np.ndarray, constraints) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Pairs pinned by one active constraint row; remaining constraints checked.

    One pass per solved row over the upper triangle ``i < j`` in
    lexicographic order, ``_BLOCK`` pairs per numpy pass.
    """
    n = grid.size
    for solve_c in constraints:
        g = _moment_map(grid, solve_c.moment)
        t = solve_c.bound
        # row i holds the pairs (i, j) for j = i + 1 .. n - 1
        for rows, sizes, off in _ragged_blocks(np.arange(n - 1, 0, -1)):
            i = np.repeat(np.arange(rows.start, rows.stop), sizes)
            j = i + 1 + off
            den = g[i] - g[j]
            valid = np.abs(den) > _PIVOT_TOL
            with np.errstate(divide="ignore", invalid="ignore"):
                wi = (t - g[j]) / den
            wj = 1.0 - wi
            feas = valid & (wi >= -_W_TOL) & (wj >= -_W_TOL)
            for c in constraints:
                if c is solve_c:
                    continue
                gc = _moment_map(grid, c.moment)
                feas &= ~_violates(wi * gc[i] + wj * gc[j], c)
            hits = np.nonzero(feas)[0]
            if hits.size:
                yield (
                    np.column_stack([i[hits], j[hits]]),
                    np.column_stack([wi[hits], wj[hits]]),
                )


def _iter_triples(grid: np.ndarray, constraints) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Triples pinned by the MEAN and SECOND_MOMENT rows (LE rows made active).

    Uses the closed Lagrange/Cramer solution of the 3x3 Vandermonde system;
    strictly increasing grids keep the denominators away from zero, and the
    pivot-tolerance skip guards the degenerate remainder.

    Candidates come in lexicographic ``(i, j, k)`` order, in two blocked
    levels.  First the rows ``(i, j)`` -- a low atom ``i`` that passes the
    hull prefilter and a middle atom ``j`` with an admissible high atom above
    it -- are formed ``_BLOCK`` at a time.  Each kept row is then expanded
    into its high atoms: the ``k > j`` with ``hi_ok[k]``, a suffix of the
    sorted ``hi_ok`` indices found by ``searchsorted``.  The candidates are
    tested ``_BLOCK`` at a time.

    The weights keep the bits of the textbook formulas
    ``wa = (t2 - (b+c)*t1 + b*c) / ((a-b)*(a-c))`` and its cyclic
    companions.  Rounding is sign-symmetric, so ``a - b == -(b - a)`` and
    ``x / -y == -(x / y)`` bit for bit.  With ``d_ba = b - a``,
    ``d_ca = c - a`` and ``d_cb = c - b`` (all positive), the denominators
    are ``d_ba*d_ca``, ``-(d_ba*d_cb)`` and ``d_ca*d_cb``, and ``wb`` is
    formed as ``-(num_b / (d_ba*d_cb))``.  Rounding is also monotone, and
    ``d_cb <= d_ca`` and ``d_ba <= d_ca``.  So ``d_ba*d_cb`` is the smallest
    of the three denominator magnitudes, and the pivot test needs only that
    one.

    Row pruning is exact.  In a row, the numerator ``t2 - (a+b)*t1 + a*b``
    of ``wc`` does not depend on ``c``.  The denominator ``d_ca*d_cb`` is a
    correctly rounded product of nonnegative factors that do not decrease as
    ``c`` grows, so it does not decrease along the row.  A negative
    numerator over a larger denominator gives a larger quotient, and the
    rounded quotient keeps that order.  So the computed ``wc`` does not
    decrease along the row, and a nonnegative numerator never makes it
    negative.  If ``wc`` at the largest admissible ``c`` (the last high atom
    of every row) is below ``-_W_TOL``, every candidate of the row fails the
    ``wc`` test, and the row is dropped before it is expanded.  The argument
    uses only this function's own weight formula and shares nothing with
    the closed forms.
    """
    # triples are asked for only with >= 2 constraints, at most one per
    # moment id and two ids: both bounds are present
    t1, t2 = _moment_bounds(constraints)
    low_ok, hi_ok = _hull(grid, t1, t2)
    hi = np.nonzero(hi_ok)[0]
    if hi.size == 0:
        return
    top = int(hi[-1])  # every row's last high atom
    low = np.nonzero(low_ok[: max(top - 1, 0)])[0]
    grid_hi = grid[hi]
    # row (i, j) for j = i + 1 .. top - 1; its high atoms are hi[above[j]:]
    for rows, sizes, off in _ragged_blocks(top - 1 - low):
        i = np.repeat(low[rows], sizes)
        j = i + 1 + off
        a, b = grid[i], grid[j]
        with np.errstate(divide="ignore", invalid="ignore"):
            num_c = _moment_num(a, b, t1, t2)
            wc_top = num_c / ((grid[top] - a) * (grid[top] - b))
        keep = np.nonzero(~(wc_top < -_W_TOL))[0]
        i, j, a, b, num_c = i[keep], j[keep], a[keep], b[keep], num_c[keep]
        above = np.searchsorted(hi, j, side="right")
        d_ba = b - a
        for rows2, sizes2, off2 in _ragged_blocks(hi.size - above):
            def spread(x):
                return np.repeat(x[rows2], sizes2)

            pos = spread(above) + off2
            wa, neg_wb, wc, feas = _triple_weights(
                spread(a), spread(b), grid_hi[pos], spread(d_ba), spread(num_c), t1, t2
            )
            hits = np.nonzero(feas)[0]
            if hits.size:
                yield (
                    np.column_stack([spread(i)[hits], spread(j)[hits], hi[pos[hits]]]),
                    np.column_stack([wa[hits], -neg_wb[hits], wc[hits]]),
                )


def _moment_bounds(constraints) -> tuple[float, float]:
    """The MEAN and SECOND_MOMENT bounds ``(t1, t2)`` of a set holding both."""
    by_id = {c.moment: c.bound for c in constraints}
    return by_id[Moment.MEAN], by_id[Moment.SECOND_MOMENT]


def _hull(grid: np.ndarray, t1: float, t2: float) -> tuple[np.ndarray, np.ndarray]:
    """``(low_ok, hi_ok)``: the hull prefilters of :func:`_iter_triples`.

    Nonnegative weights put each target moment inside the atom hull, so a
    triple's low atom sits below both targets and its high atom above."""
    g2 = grid * grid
    low_ok = (grid <= t1 + _FEAS_TOL) & (g2 <= t2 + _FEAS_TOL)
    hi_ok = (grid >= t1 - _FEAS_TOL) & (g2 >= t2 - _FEAS_TOL)
    return low_ok, hi_ok


def _moment_num(x, y, t1: float, t2: float):
    """``t2 - (x + y)*t1 + x*y``, in exact arithmetic ``sigma^2 + (x - mu)*(y -
    mu)``: the numerator of a triple's weight on its third atom, x and y its
    other two."""
    return t2 - (x + y) * t1 + x * y


def _triple_weights(a, b, c, d_ba, num_c, t1: float, t2: float):
    """``(wa, -wb, wc, feasible)`` for triples on atoms ``a < b < c``, with
    ``d_ba = b - a`` and ``num_c = _moment_num(a, b, t1, t2)`` given: the
    weight formulas and the pivot and sign tests of :func:`_iter_triples`,
    which explains them (the hull prefilters are the caller's)."""
    d_ca, d_cb = c - a, c - b
    p_b = d_ba * d_cb
    with np.errstate(divide="ignore", invalid="ignore"):
        wa = _moment_num(b, c, t1, t2) / (d_ba * d_ca)
        neg_wb = _moment_num(a, c, t1, t2) / p_b
        wc = num_c / (d_ca * d_cb)
    feas = (p_b > _PIVOT_TOL) & (wa >= -_W_TOL) & (neg_wb <= _W_TOL) & (wc >= -_W_TOL)
    return wa, neg_wb, wc, feas


def _iter_candidates(cs: MomentConstraintSet) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every candidate block, in order; :class:`InfeasibleError` after the
    last one when there was none.  A block holds index rows of one length
    in strictly ascending lexicographic order, which :func:`_lex_min` relies
    on.  The order across blocks is not monotone: the pairs restart with
    each solved constraint row, and the triples follow the pairs."""
    grid = np.asarray(cs.grid, dtype=float)
    k_max = min(len(cs.constraints) + 1, 3, grid.size)
    found = False
    for family in (_iter_singletons, _iter_pairs, _iter_triples)[:k_max]:
        for block in family(grid, cs.constraints):
            found = True
            yield block
    if not found:
        raise InfeasibleError(
            "no grid-supported law satisfies the constraint set (is the mean "
            "inside the grid hull?)"
        )


def _lex_min(
    fv: np.ndarray, blocks: Iterable[tuple[np.ndarray, np.ndarray]]
) -> tuple[float, list[int], np.ndarray]:
    """``(value, index row, weight row)`` of the law of smallest ``E[fv]`` in
    a non-empty stream of :func:`_iter_candidates` blocks.

    Exact ties go to the lexicographically smallest index row, then to the
    first.  Index rows compare as the supports they index do: the grid is
    strictly increasing, and a shorter row sorts before every longer row it
    begins.  A block's rows are strictly ascending, so its first minimum
    (``np.argmin``) is its smallest tied row; a later block wins by a
    smaller value or row.
    """
    best = None
    for idx, wgt in blocks:
        exp = np.einsum("ij,ij->i", wgt, fv[idx])
        r = int(np.argmin(exp))
        key = (float(exp[r]), idx[r].tolist())
        if best is None or key < best[0]:
            best = key, wgt[r]
    (value, row), wgt = best
    return value, row, wgt


def _grid_error_bound(grid: np.ndarray, fv: np.ndarray) -> float:
    """Documented heuristic: max adjacent slope times max grid spacing."""
    if grid.size < 2:
        return 0.0
    steps = np.diff(grid)
    lip = float(np.max(np.abs(np.diff(fv)) / steps))
    return lip * float(np.max(steps))


def _require_finite_objective(fv: np.ndarray) -> None:
    require(bool(np.all(np.isfinite(fv))), "objective must be finite on the grid")


def _checked_objectives(objectives, n: int) -> np.ndarray:
    obj = np.asarray(objectives, dtype=float)
    require(
        obj.ndim == 2 and obj.shape[1] == n,
        "objectives must have shape (n_objectives, n_grid)",
    )
    _require_finite_objective(obj)
    return obj


def _padded(blocks: Iterable[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """One (laws, 3) int32 index array and its weights from non-empty
    candidate blocks, rows of fewer atoms padded by zero-weight repeats of
    the last."""
    idx_blocks: list[np.ndarray] = []
    wgt_blocks: list[np.ndarray] = []
    for idx, wgt in blocks:
        m, k = idx.shape
        if k < 3:
            idx = np.hstack([idx, np.repeat(idx[:, -1:], 3 - k, axis=1)])
            wgt = np.hstack([wgt, np.zeros((m, 3 - k))])
        idx_blocks.append(idx.astype(np.int32))
        wgt_blocks.append(wgt)
    return np.vstack(idx_blocks), np.vstack(wgt_blocks)


def worst_case_expectation_oracle(
    objective: Callable[[float], float], cs: MomentConstraintSet
) -> OracleResult:
    """Minimize E_G[objective] over grid-supported laws satisfying ``cs``.

    Streams candidate supports of size <= (#constraints + 1) in lexicographic
    order with a running minimum, so memory stays bounded on fine grids.
    Exact value ties resolve toward the lexicographically smallest support.
    Raises :class:`InfeasibleError` when no grid law satisfies the constraints
    (e.g. a mean outside the grid hull).
    """
    grid = np.asarray(cs.grid, dtype=float)
    if cs.needs_cubic and grid.size > 1500:
        raise InputError(
            f"grid of {grid.size} points is too large for cubic enumeration "
            f"(cap 1500; recommended <= {_FAMILY_CUBIC_BUDGET})"
        )
    if grid.size > _PAIR_CAP:
        raise InputError(f"grid of {grid.size} points exceeds the pair cap {_PAIR_CAP}")
    fv = np.array([float(objective(v)) for v in cs.grid])
    _require_finite_objective(fv)

    value, idx, wgt = _lex_min(fv, _iter_candidates(cs))
    return OracleResult(
        value=value,
        argmin=DiscreteDistribution.from_pairs(grid[idx], wgt),
        grid_error_bound=_grid_error_bound(grid, fv),
    )


class MomentLawFamily:
    """Materialized feasible family for reuse against many objectives.

    ``atom_indices`` is an (n_laws, 3) int array of grid indices (rows for
    smaller supports padded by repeating the last index with zero weight) and
    ``atom_weights`` the matching weights.  Building the family costs the full
    enumeration once; :meth:`minimize_many` then scores the laws in
    consecutive blocks, each a small sparse product whose (laws, objectives)
    block of expectations holds about ``_LAW_BLOCK`` doubles and stays in
    cache, and folds the per-block minima.  Scoring thus needs about 1 MB
    beyond the family itself, whatever its size.  Because every feasible law
    is stored, the cubic case enforces the recommended 400-point budget
    strictly — use the streaming one-shot oracle for finer grids, and for
    the argmin law under the lexicographic tie rule.
    """

    def __init__(self, cs: MomentConstraintSet):
        grid = np.asarray(cs.grid, dtype=float)
        if cs.needs_cubic and grid.size > _FAMILY_CUBIC_BUDGET:
            raise InputError(
                f"grid of {grid.size} points exceeds the family cubic budget of "
                f"{_FAMILY_CUBIC_BUDGET}; use worst_case_expectation_oracle (streaming) instead"
            )
        if grid.size > _PAIR_CAP:
            raise InputError(f"grid of {grid.size} points exceeds the pair cap {_PAIR_CAP}")
        self.grid = grid
        self.atom_indices, self.atom_weights = _padded(_iter_candidates(cs))

    @property
    def n_laws(self) -> int:
        return int(self.atom_indices.shape[0])

    def minimize_many(self, objectives: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Minimum of E[objective] over the family for many objectives at once.

        ``objectives`` has shape (n_objectives, n_grid); returns the per-row
        minima and attaining law rows.  Ties resolve by enumeration order
        (first hit), which is deterministic; use
        :func:`worst_case_expectation_oracle` when the strict lexicographic
        tie rule matters.
        """
        obj = _checked_objectives(objectives, self.grid.size)
        values = np.full(obj.shape[0], np.inf)
        rows = np.zeros(obj.shape[0], dtype=np.int64)
        cols = np.arange(obj.shape[0])
        for lo, block in self._expectation_blocks(obj):
            r = np.argmin(block, axis=0)
            v = block[r, cols]
            # strict: an equal value in a later block is not the first hit
            better = v < values
            values[better] = v[better]
            rows[better] = lo + r[better]
        return values, rows

    def _min_values(self, objectives: np.ndarray) -> np.ndarray:
        """The minima of :meth:`minimize_many`, bit for bit, without the rows.

        A full block of ``b`` laws is reduced as ``b/8`` rows of ``8k``
        columns, then its 8 partial rows are folded: the same minima as the
        plain axis-0 reduction, which runs a ``k``-wide inner loop per law.
        The minimum of NaN-free values does not depend on the order, and no
        expectation is ``-0.0`` (each is a sum that starts at ``+0.0``), so
        the regrouping is exact.
        """
        obj = _checked_objectives(objectives, self.grid.size)
        values = np.full(obj.shape[0], np.inf)
        for _, block in self._expectation_blocks(obj):
            b, k = block.shape
            if b % 8 == 0:
                block = block.reshape(b // 8, 8 * k).min(axis=0).reshape(8, k)
            np.minimum(values, block.min(axis=0), out=values)
        return values

    def _expectation_blocks(self, obj: np.ndarray):
        """(first law row, (laws, objectives) block of expectations) per block.

        Laws come in enumeration order, a multiple of 8 per block (all but
        the last block are full), so that a block holds about ``_LAW_BLOCK``
        expectations.  Each block is a CSR matrix over views of the family's
        own rows: three entries per law, so one ``indptr`` serves every block.
        """
        from scipy import sparse

        k = obj.shape[0]
        if k == 0:
            return
        size = max(8, _LAW_BLOCK // k // 8 * 8)
        obj_t = np.ascontiguousarray(obj.T)
        indptr = np.arange(0, 3 * size + 1, 3, dtype=np.int32)
        for lo in range(0, self.n_laws, size):
            wgt = self.atom_weights[lo : lo + size]
            laws = sparse.csr_matrix(
                (
                    wgt.ravel(),
                    self.atom_indices[lo : lo + size].ravel(),
                    indptr[: wgt.shape[0] + 1],
                ),
                shape=(wgt.shape[0], self.grid.size),
            )
            yield lo, laws @ obj_t


def _index_triples(m: int) -> np.ndarray:
    """Every index triple ``i < j < k`` below ``m``, in lexicographic order."""
    less = np.less.outer(np.arange(m), np.arange(m))
    return np.argwhere(less[:, :, None] & less[None, :, :])


_TRIPLES = [_index_triples(m) for m in range(_SCREEN_CAP + 1)]  # on m screened points


def _law_values(fa: np.ndarray, wgt: np.ndarray) -> np.ndarray:
    """Each law's value as the family computes it: the CSR row sum ``0.0 +
    w0*f0 + w1*f1 + w2*f2`` in atom order, ``fa[..., t]`` the objective at
    atom t (``_expectation_blocks``' sparse product forms this per law, and
    overflows to inf without a warning)."""
    with np.errstate(over="ignore"):
        return ((0.0 + wgt[..., 0] * fa[..., 0]) + wgt[..., 1] * fa[..., 1]) + wgt[..., 2] * fa[..., 2]


def _triple_laws(grid, idx, t1, t2, low_ok, hi_ok) -> tuple[np.ndarray, np.ndarray]:
    """``(weights, member)`` for the index triples ``i < j < k`` of each row
    r of ``idx`` on row r's grid, bounds and prefilters (``grid[r]``, ``t1[r]``
    ...): :func:`_iter_triples`' weights, and whether the triple is one of its
    laws (the hull prefilters and the pivot and sign tests; its row pruning
    only skips triples that fail these)."""
    r = np.arange(idx.shape[0]).reshape((-1,) + (1,) * (idx.ndim - 2))
    a, b, c = (grid[r, idx[..., t]] for t in range(3))
    t1, t2 = np.reshape(t1, r.shape), np.reshape(t2, r.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        wa, neg_wb, wc, feas = _triple_weights(a, b, c, b - a, _moment_num(a, b, t1, t2), t1, t2)
    member = feas & low_ok[r, idx[..., 0]] & hi_ok[r, idx[..., 2]]
    return np.stack([wa, -neg_wb, wc], axis=-1), member


def _exchange(grid, f, t1, t2, basis, low_ok, hi_ok) -> tuple[np.ndarray, np.ndarray]:
    """``(coef, basis)``: per objective row, the coefficients ``(a, b, c)`` of
    a dual parabola and the sorted triple it interpolates ``f`` on, each row
    on its own grid, bounds and prefilters (as in :func:`_triple_laws`).

    A batched simplex on the grid LP of :func:`_moment_min_batch`: the
    parabola through ``f`` at a feasible basis triple (Newton's divided
    differences), the most violated grid point entering, and of the three
    triples it can form with two basis atoms the one whose least weight is
    largest: the feasible one.  Rows stop when no point lies below their
    parabola by more than a relative 1e-12, or after ``_EXCHANGE_STEPS``
    pivots.  Nothing here needs to be exact: any parabola gives a sound
    certificate, a poor one only a larger screened set.
    """
    coef = np.empty((f.shape[0], 3))
    tol = 1e-12 * (1.0 + np.max(np.abs(f), axis=1))
    live = np.arange(f.shape[0])  # the rows still pivoting
    g = grid  # their grids
    swap = np.arange(3)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for step in range(_EXCHANGE_STEPS + 1):
            at = (live[:, None], basis[live])
            x, y = grid[at].T, f[at].T
            d01 = (y[1] - y[0]) / (x[1] - x[0])
            c = ((y[2] - y[1]) / (x[2] - x[1]) - d01) / (x[2] - x[0])
            b = d01 - c * (x[0] + x[1])
            coef[live] = np.column_stack([y[0] - x[0] * (b + c * x[0]), b, c])
            slack = f[live] - ((c[:, None] * g + b[:, None]) * g + coef[live, :1])
            enter = np.argmin(slack, axis=1)
            below = slack[np.arange(live.size), enter] < -tol[live]
            live, enter, g = live[below], enter[below], g[below]
            if live.size == 0 or step == _EXCHANGE_STEPS:
                break
            cand = np.repeat(basis[live, None, :], 3, axis=1)
            cand[:, swap, swap] = enter[:, None]
            cand.sort(axis=2)
            wgt, _ = _triple_laws(g, cand, t1[live], t2[live], low_ok[live], hi_ok[live])
            basis[live] = cand[np.arange(live.size), np.argmax(np.min(wgt, axis=2), axis=1)]
    return coef, basis


def _weight_floor(grid, t1, t2) -> tuple[float, float]:
    """``(omega, w_err)``: omega is 0 (no floor) or above ``_W_TOL``, and
    then no singleton or pair of the grid is a law of
    :func:`_iter_singletons` or :func:`_iter_pairs`, and every law of
    :func:`_iter_triples` on this grid has all three weights >= omega, each
    within w_err of the exact weight.

    Both facts come from one minimum, of |num(x, y)| over the grid pairs
    x <= y, diagonal included, with num = ``_moment_num(x, y, t1, t2)``: in
    exact arithmetic sigma^2 + (x - mu)*(y - mu), and within e_num of it as
    computed.  Each one- or two-point law of the family has |num| <= B =
    ``_FEAS_TOL``*(1 + 2X) plus rounding (X the last grid point), so when
    the minimum less e_num is at most B, omega is 0; otherwise no such law
    exists, and omega is the floor, or 0 when that is not above ``_W_TOL``.
    The diagonal's entries are at least sigma^2 and can only lower the
    minimum, and a lower floor is still a floor.  :func:`_moment_min_batch`
    gives both arguments.  A ``grid`` of shape (instances, n) takes t1 and
    t2 and gives both per instance."""
    top, t1, t2 = grid[..., -1], np.asarray(t1), np.asarray(t2)
    e_num = 8.0 * _EPS * (np.abs(t2) + 2.0 * top * np.abs(t1) + top * top) + 8.0 * _ETA
    h = np.min(np.diff(grid), axis=-1)
    w_err = 8.0 * _EPS + 2.0 * e_num / (h * h)
    i, j = np.triu_indices(grid.shape[-1])
    num = _moment_num(grid[..., i], grid[..., j], t1[..., None], t2[..., None])
    num = np.min(np.abs(num), axis=-1)
    bound = _FEAS_TOL * (1.0 + 2.0 * top) * (1.0 + 2.0 * _EPS) + 32.0 * _EPS * top * top
    span = top - grid[..., 0]
    omega = (num - e_num) / (span * span) * (1.0 - 8.0 * _EPS) - w_err
    floor = (num - e_num > bound * (1.0 + 8.0 * _EPS)) & (omega > _W_TOL)
    return np.where(floor, omega, 0.0), w_err


def _screen(grid, f, t1, t2, coef, best, omega, w_err) -> tuple[np.ndarray, np.ndarray]:
    """``(slack, thr)``: the computed slack ``f - P`` of each row's parabola
    at every grid point, and per row a bound such that every law of
    :func:`_iter_triples` with an atom whose slack exceeds it scores above
    ``best`` (``inf`` where the bound is not finite, as for omega 0);
    :func:`_moment_min_batch` gives the argument.  ``grid`` is one grid or
    one per row, and each of t1, t2, omega and w_err a number or a column of
    one per row."""
    a, b, c = (coef[:, t, None] for t in range(3))
    top = grid[..., -1:]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        p_hat = (c * grid + b) * grid + a
        slack = f - p_hat
        p_abs = np.abs(a) + np.abs(b) * top + np.abs(c) * (top * top)
        e_p = 8.0 * _EPS * p_abs + 8.0 * _ETA
        e_s = e_p + 2.0 * _EPS * np.max(np.abs(slack), axis=1, keepdims=True)
        e_mom = 3.0 * w_err * (np.max(np.abs(p_hat), axis=1, keepdims=True) + e_p)
        r_sum = 16.0 * _EPS * np.max(np.abs(f), axis=1, keepdims=True) + 4.0 * _ETA
        dual = a + b * t1 + c * t2
        e_a = 8.0 * _EPS * (np.abs(a) + np.abs(b * t1) + np.abs(c * t2)) + 4.0 * _ETA
        s_min = np.minimum(np.min(slack, axis=1, keepdims=True), 0.0)
        terms = e_a + e_mom + (1.0 + 3.0 * w_err) * (e_s - s_min) + r_sum
        q = best[:, None] - dual + terms
        q += 8.0 * _EPS * (np.abs(best[:, None]) + np.abs(dual) + terms)
        rise = np.maximum(q, 0.0) / omega
        thr = s_min + 2.0 * e_s + rise
        thr += 4.0 * _EPS * (2.0 * e_s - s_min + rise)
    thr = np.where(np.isfinite(thr), thr, np.inf)[:, 0]
    return slack, thr


def _moment_min_batch(items) -> tuple[list[np.ndarray], Exception | None]:
    """``(minima, error)``: ``MomentLawFamily(cs)._min_values(objectives)``
    for each ``(cs, objectives)`` of ``items`` before the first whose step 1
    raises, bit for bit, and that error (None when none raised), which is
    the family's own.  Each objective row is scored only against the laws
    its dual parabola cannot exclude.

    For a set whose two constraints pin the mean t1 and the second moment t2
    (``EQ``) on at most ``_FAMILY_CUBIC_BUDGET`` points; any other set builds
    the family in step 1.  Only step 1 (with the rows' check) can raise; it
    runs instance by instance, by the rule of :func:`_until_error`, and
    steps 2 to 5 score the instances before the one that raised.  These
    share one grid size; steps 3 to 5 run on the stacked rows of all of
    them, each row with its own grid, bounds and floor, and each step is
    elementwise or a reduction within a row, so no row's bits depend on the
    rows beside it.

    1. Start: per row, the best law of :func:`_iter_triples` on about
       ``_COARSE`` evenly spread grid points.  When there is none the family
       is built, which raises its own ``InfeasibleError`` if it is empty.
    2. :func:`_weight_floor`, over every instance at once, proves that the
       family has no singleton or pair and bounds its triples' weights below
       by omega.  No floor means omega = 0, so the screen bounds nothing and
       the family is built in step 5.
    3. :func:`_exchange` turns each start into a dual parabola P = a + b*v +
       c*v^2 and a basis triple.  ``best`` is the family value of the basis
       triple where it is a law of the family, and +inf elsewhere.
    4. :func:`_screen` bounds, per row, the slack s = f - P of any atom of a
       triple that can score below ``best``.  The row's screened set is the
       grid points not above that bound, plus its basis triple.  A row
       without a finite bound (every row whose basis is not a family law,
       or whose instance has no floor) screens the whole grid, points of NaN
       slack included.
    5. A row with at most ``_SCREEN_CAP`` screened points, on an instance
       with a floor, scores every triple among them, from
       :func:`_triple_laws`, ``_BLOCK`` triples or one row per numpy pass.
       The other rows of an instance score its family on the union of their
       screened sets: the whole grid for an instance without a floor, whose
       pairs and singletons no triple stands for, however few its points.
       A row of zeros, on which every law scores +0.0, takes that value.

    Why the bits stay:

    * A law's weights and feasibility in :func:`_iter_pairs` and
      :func:`_iter_triples` depend only on its atoms' values and on t1 and
      t2, and the row pruning only skips triples that fail the tests.  So
      any triple of grid points is a family law with the same weight bits,
      or no family law at all, and a family on a sub-grid holds the family's
      laws on those points.  The family's value of a law is the CSR sum
      ``0.0 + w0*f0 + w1*f1 + w2*f2`` in atom order (:func:`_law_values`),
      and no value is -0.0, so the minimum over any set of family laws that
      holds a minimiser is the family's minimum, bit for bit.
    * Weak duality, for any P with float coefficients.  Let L be a family
      triple with computed weights w^ and exact weights w (the exact
      solution of the Vandermonde system on its atoms, so sum w = 1, sum w*v
      = t1, sum w*v^2 = t2).  Then sum w^*f = sum w*P + sum (w^ - w)*P + sum
      w^*s, and sum w*P = A = a + b*t1 + c*t2.
    * The weight floor (:func:`_weight_floor`).  For a triple on x < y < z,
      each exact weight is ``_moment_num`` of the other two atoms over the
      product of two atom gaps, and that product is at most span^2.  So
      |w| >= omega0 = min over grid pairs |num| / span^2, formed from the
      float num less its error bound e_num = 8 eps N + 8 eta, N = t2 + 2 X
      t1 + X^2 with X the last grid point (the numerator's four roundings
      cost 4 eps N).  The computed weight divides a numerator within e_num
      by a denominator, at least h^2 for the least gap h, rounded three
      times: |w^ - w| <= w_err = 8 eps + 2 e_num / h^2 when |w| <= 1.  If
      omega = omega0 - w_err > ``_W_TOL``, a negative exact weight (at most
      -omega0) computes below -``_W_TOL`` and fails the sign test, so every
      family triple has exact weights in [omega0, 1] and computed weights >=
      omega.  The minimum runs over the diagonal x = y too, whose entries
      are at least sigma^2: that can only lower omega0, and a lower floor is
      still a floor.
    * The screen (:func:`_screen`), with s^ the computed slack (P^ formed
      by Horner's rule) and s^min = min(0, min s^).  The rounding terms are
      each twice their first-order bound (Higham 2002), which also covers
      the few roundings of the terms themselves: e_p = 8 eps (|a| + |b| X +
      |c| X^2) + 8 eta for P; e_s = e_p + 2 eps max|s^| for s; e_mom = 3
      w_err (max|P^| + e_p) for sum (w^ - w)*P, the weights' moment error;
      e_a = 8 eps (|a| + |b t1| + |c t2|) + 4 eta for A; r_sum = 16 eps
      max|f| + 4 eta for the CSR sum against sum w^*f (sum w^ <= 1 + 3
      w_err).  Let Q = best - A^ + e_a + e_mom + (1 + 3 w_err)(e_s - s^min)
      + r_sum.  Suppose an atom j of L has s^_j > thr = s^min + 2 e_s +
      max(Q, 0) / omega.  Every w^ >= omega > 0 and s - s_min >= 0, so sum
      w^*s >= omega (s_j - s_min) + (1 + 3 w_err) s_min, and with s_j -
      s_min >= s^_j - s^min - 2 e_s the family value of L exceeds ``best``.
      The code raises Q by 8 eps times the sum of its terms' magnitudes, and
      thr by 4 eps times its own, which bounds the rounding of both.  So
      each triple at or below ``best`` lies in the screened set, and
      ``best`` is itself a scored law: the basis triple is screened.
    * No singleton or pair (:func:`_weight_floor`), from the same table.
      With T = ``_FEAS_TOL`` and exact weights (the exact solution of the
      solved row and the unit mass): a pair x < y that :func:`_iter_pairs`
      solves on the MEAN row leaves -num(x, y) on the second moment, which
      it checks; one solved on the SECOND_MOMENT row leaves num(x, y)/(x +
      y) on the mean; a singleton at x is checked on both moments, and
      num(x, x) = (t2 - x^2) - 2x(t1 - x).  A check passes a computed
      residual of at most T, so an exact one within T(1 + 2 eps), plus the
      rounding of the residual as the family forms it, each term twice its
      first order, with every computed weight in [-``_W_TOL``, 1 +
      ``_W_TOL``]:

      - MEAN row: the weight's three roundings, times x^2 - y^2, 6 eps X^2;
        the second moment's squares, products, sum and difference, 6 eps
        X^2 + 2 eps T; the other weight, 1 - w^ rounded, 2 eps X^2.
      - SECOND_MOMENT row: the weight divides by the difference of the
        rounded squares, whose relative error eps (x^2 + y^2)/(y^2 - x^2)
        reaches eps X/h (h the least grid gap); but the mean reads the
        weight's error times y - x, which turns it into eps (x^2 + y^2)/(x
        + y) <= eps y, and the weight costs 10 eps X in all; the mean's
        products, sum and difference 4 eps X + 2 eps T; the other weight 2
        eps X; all times x + y <= 2X.
      - singleton: the rounded square, 2 eps X^2.

      So each such law has |num| <= B = T (1 + 2X)(1 + 2 eps) + 32 eps X^2;
      a product that underflows costs a few eta, far inside the doubled
      terms.  If min |num^| - e_num > B, every grid pair and point has
      exact |num| > B, and none is a family law (the code raises B by 8 eps
      times itself, which bounds the comparison's rounding).  Otherwise
      omega is 0 and the rows score the whole family, as for a pair that
      meets both moments exactly.

    The argument uses only these oracles' own formulas: the objective rows
    it is handed are its only link to the closed forms.
    """
    def start(item):  # step 1: the minima, or what steps 2 to 5 need
        cs, objectives = item
        grid = np.asarray(cs.grid, dtype=float)
        relations = {c.moment: c.relation for c in cs.constraints}
        starts = []
        if grid.size <= _FAMILY_CUBIC_BUDGET and relations == {
            Moment.MEAN: Relation.EQ, Moment.SECOND_MOMENT: Relation.EQ
        }:
            sub = np.arange(0, grid.size, max(1, grid.size // _COARSE))
            sub[-1] = grid.size - 1  # the last point holds the high atoms
            starts = list(_iter_triples(grid[sub], cs.constraints))
        if not starts:
            return MomentLawFamily(cs)._min_values(objectives)
        f = _checked_objectives(objectives, grid.size)
        start_idx, start_wgt = _padded(starts)
        first = np.argmin(_law_values(f[:, sub[start_idx]], start_wgt), axis=1)
        return cs, grid, f, sub[start_idx[first]]

    out, error = _until_error(start, items)
    at = [k for k, x in enumerate(out) if isinstance(x, tuple)]  # past step 1
    if not at:
        return out, error
    sets, grids, fs, bases = zip(*(out[k] for k in at))
    grids = np.stack(grids)
    t1, t2 = np.array([_moment_bounds(cs.constraints) for cs in sets]).T
    omega, w_err = _weight_floor(grids, t1, t2)
    counts = [f.shape[0] for f in fs]
    inst = np.repeat(np.arange(len(at)), counts)  # each stacked row's instance
    f = np.concatenate(fs)
    basis = np.concatenate(bases)
    grid, t1, t2 = grids[inst], t1[inst, None], t2[inst, None]
    rows = np.arange(f.shape[0])

    low_ok, hi_ok = _hull(grid, t1, t2)
    coef, basis = _exchange(grid, f, t1, t2, basis, low_ok, hi_ok)
    wgt, member = _triple_laws(grid, basis, t1, t2, low_ok, hi_ok)
    best = np.where(member, _law_values(f[rows[:, None], basis], wgt), np.inf)
    slack, thr = _screen(grid, f, t1, t2, coef, best, omega[inst, None], w_err[inst, None])
    values = np.full(f.shape[0], np.inf)
    screened = ~(slack > thr[:, None])  # a NaN slack is screened
    screened[rows[:, None], basis] = True
    zero = ~np.any(f, axis=1)  # every law scores +0.0 on a row of zeros
    screened[zero] = False

    sizes = screened.sum(axis=1)
    # the family scores rows past the cap and rows with no floor (pairs too)
    family = ((sizes > _SCREEN_CAP) | (omega[inst] == 0.0)) & ~zero
    sizes[family] = 0  # no triple loop for them
    for m in range(3, _SCREEN_CAP + 1):
        r_m = np.nonzero(sizes == m)[0]
        step = max(1, _BLOCK // len(_TRIPLES[m]))  # rows per pass
        for lo in range(0, r_m.size, step):
            r = r_m[lo : lo + step]
            idx = np.nonzero(screened[r])[1].reshape(r.size, m)[:, _TRIPLES[m]]
            wgt, member = _triple_laws(grid[r], idx, t1[r], t2[r], low_ok[r], hi_ok[r])
            law_values = np.where(member, _law_values(f[r[:, None, None], idx], wgt), np.inf)
            values[r] = np.min(law_values, axis=1)
    for k in np.unique(inst[family]):
        r = np.nonzero(family & (inst == k))[0]
        pts = np.nonzero(np.any(screened[r], axis=0))[0]
        part = sets[k] if pts.size == grids.shape[1] else (
            MomentConstraintSet(tuple(grids[k, pts]), sets[k].constraints))
        values[r] = MomentLawFamily(part)._min_values(f[r][:, pts])
    values[zero] = 0.0
    for k, v in zip(at, np.split(values, np.cumsum(counts)[:-1])):
        out[k] = v
    return out, error


_FULL_ROWS = 1 << 17  # lattice points per block of uncertified rows (1 MB)


def _row_minima(
    pi: np.ndarray, us: np.ndarray, psis: np.ndarray, w, gammas: np.ndarray, cost
) -> tuple[np.ndarray, int]:
    """``(minima, n_full)``: for one atom ``w``, ``minima[i, g]`` is the
    minimum over j of ``pi[i, j] + gammas[g]*sq[j]``, bit for bit, where
    ``pi = _profit(psis[:, None], us[None, :], cost)`` and ``sq = (us - w)**2``
    (formed here, where an overflow to +inf raises no warning); ``n_full``
    counts the rows (i, g) that were formed in full.

    Each row's minimum is read from the points of two windows, each point
    formed by that same expression from ``pi`` and ``sq``; every window point
    is a grid point, so the windows' minimum is exact once they hold one
    minimiser of the row.  Write v(j) for the value at ``us[j]``, s(j) =
    ``sq[j]``, J for the first u >= psi and R for the first u >= w.  Rounding
    is monotone (Higham 2002), every gamma is >= 0 (or -0.0), and ``pi`` and
    ``sq`` are finite (else every row is formed in full).  The argument uses
    only this objective:

    * j >= J: ``pi[i, j]`` is one float P, so v = fl(P + fl(gamma*s)) does
      not decrease with s.  s(j) = fl(fl(u - w)^2) does not increase below
      R and does not decrease from R on.  So this piece's minimum is at
      max(J, R - 1) or max(J, R).
    * R <= j < J: fl(p*u) and s both rise with u; the minimum is at R.
    * j < m = min(J, R): v is a rounding of the convex quadratic
      g(u) = p*u - b + gamma*(u - w)^2, b = fl(c*psi), with its vertex at
      w - p/(2 gamma).  Each step of v rounds with relative error at most
      eps = 2^-53 or underflows by at most eta = 2^-1074, so on [0, m) every
      |v(j) - g(u_j)| <= E = 8 eps (p min(w, psi) + c psi + gamma (w - u_0)^2)
      + (4 + gamma) eta: the step bounds sum to 6 eps (...) + (3 + gamma) eta
      for the same sum (...), and the rest covers the rounding of E itself.
      The window is the two grid points on either side of the vertex (the
      first four points when fewer than two lie below it); when that window
      does not start at 0 and reaches past [0, m), it is the part's last two
      points.  ``gamma > 0`` decides whether the vertex exists: gamma = -0.0
      would put it at +inf, so it and a quotient that overflows put it at
      -inf.  Let M = v(k) be the window's minimum.  If the point just outside
      the window on one side has v > M + 2E, then g there exceeds g(u_k), so
      by convexity g rises further out on that side, and every point there
      has v >= g - E > M.  A row passes when both sides that hold points
      pass; the others are formed in full with the same expression
      (``n_full``, 0 on the package's test and benchmark grids).

    So the windows are the neighbours {R - 1, R, J} and the part's last two
    points, which depend on psi alone, and the four vertex points, which
    depend on gamma alone; all are formed for every (psi, gamma) row at
    once, with indices clamped into the grid.
    """
    rows, top = np.arange(psis.size), us.size - 1
    with np.errstate(over="ignore", invalid="ignore"):
        sq = (us - w) ** 2

        def column(j):  # the u index j[i] (or j) on every gamma of row i
            return pi[rows, j][:, None] + gammas * sq[j].reshape(-1, 1)

        def across(j):  # the u index j[g] of gamma g on every row
            return pi[:, j] + gammas * sq[j]

        psi_at = np.searchsorted(us, psis)  # J: first u >= psi
        w_at = int(np.searchsorted(us, w))  # R: first u >= w
        best = np.minimum(column(min(max(w_at - 1, 0), top)), column(min(w_at, top)))
        np.minimum(best, column(np.minimum(psi_at, top)), out=best)

        part = np.minimum(psi_at, w_at)[:, None]  # m: u < min(psi, w) on [0, m)
        vertex = np.full(gammas.size, -np.inf)
        pos = gammas > 0.0
        vertex[pos] = w - cost.price / (2.0 * gammas[pos])
        start = np.maximum(np.searchsorted(us, vertex) - 2, 0)
        low = across(np.minimum(start, top))
        for k in (1, 2, 3):
            np.minimum(low, across(np.minimum(start + k, top)), out=low)
        tail = np.maximum(part[:, 0] - 2, 0)
        end = np.minimum(column(tail), column(np.maximum(part[:, 0] - 1, 0)))
        np.minimum(best, low, out=best)
        np.minimum(best, end, out=best)

        two_e = 2.0 * (
            (8.0 * _EPS * (cost.price * np.minimum(w, psis) + cost.cost * psis))[:, None]
            + (8.0 * _EPS * (w - us[0]) ** 2 * gammas + (4.0 + gammas) * _ETA)
        )
        ok = (start == 0) | (across(np.maximum(start - 1, 0)) - low > two_e)
        ok &= (start + 4 >= part) | (across(np.minimum(start + 4, top)) - low > two_e)
        ok = np.where(
            (start > 0) & (start + 3 >= part),
            (part < 3) | (column(np.maximum(tail - 1, 0)) - end > two_e),
            ok,
        )
        # the largest products sit at the grid ends: p*min(u, psi) and c*psi
        # in pi's last point, (u - w)^2 at either end of sq
        if not (np.isfinite(pi[-1, -1]) and np.isfinite(sq[0]) and np.isfinite(sq[-1])):
            ok[:] = False
        ps, gs = np.nonzero(~ok)
        step = max(1, _FULL_ROWS // us.size)
        for lo in range(0, gs.size, step):
            i, g = ps[lo : lo + step], gs[lo : lo + step]
            best[i, g] = np.min(pi[i] + gammas[g, None] * sq, axis=1)
    return best, int(gs.size)


def inner_min_oracle(
    alpha: float, q: float, v: float, cost, u_grid: Sequence[float]
) -> float:
    """Grid envelope: min over u of pi(q, u) + alpha (u - v)^2; see :func:`_grid`.

    The minimum is read from the two windows of :func:`_row_minima` (one row:
    psi = q, gamma = alpha, atom v), bit for bit the dense grid minimum."""
    alpha = require_positive("alpha", alpha)
    q = require_nonnegative("q", q)
    v = require_nonnegative("v", v)
    u = np.array(_grid("u_grid", u_grid))
    with np.errstate(over="ignore", invalid="ignore"):  # c*q past the float range: -inf
        pi = _profit(q, u, cost)[None, :]
    minima, _ = _row_minima(pi, u, np.array([q]), v, np.array([alpha]), cost)
    return float(minima[0, 0])


def grid_argmax(
    value_fn: Callable[[float], float], q_grid: Iterable[float]
) -> tuple[float, float]:
    """Exhaustive scan for the maximizer of finite values; ``q_grid`` obeys
    :func:`_grid`, so ties, which keep the first, go to the smaller q."""
    best_q = best_v = -math.inf
    for q in _grid("q_grid", q_grid):
        val = float(value_fn(q))
        require(math.isfinite(val), f"value must be finite on the grid, got {val!r} at q={q!r}")
        if val > best_v:
            best_q, best_v = q, val
    return best_q, best_v


def wasserstein_dual_oracle(
    demand: DiscreteDistribution,
    theta: float,
    alpha: float,
    cost,
    gamma_grid: Sequence[float],
    psi_grid: Sequence[float],
    u_grid: Sequence[float],
) -> tuple[np.ndarray, np.ndarray]:
    """Grid evaluation of the transport-ball dual objective over gamma.

    For each gamma in ``gamma_grid`` (each must lie in [0, alpha)), computes

        -alpha*gamma*theta/(alpha - gamma)
            + max over psi_grid of E_H[min over u_grid of
                pi(psi, u) + gamma*(u - w)^2]

    atom by atom on the empirical law ``demand`` (``math.inf`` for alpha
    turns the penalty into ``-gamma*theta``).  Returns the pair
    ``(dual_values, inner_argmax_psi)``, one entry per gamma.  Pure grid
    arithmetic: only the profit is shared with the closed-form reduction.
    The psi and u grids obey :func:`_grid`; the gammas may come in any order,
    each a number in [0, alpha).

    Each row's minimum over u comes from :func:`_row_minima`, which forms
    only two windows of grid points per (gamma, psi) row and proves them
    enough (or forms the row in full), bit for bit the dense minimum; the
    atoms are summed in order.  The penalty keeps the form above wherever
    it is finite; elsewhere (``-alpha*gamma`` overflows) it is formed as
    ``-(gamma*theta) * (alpha/(alpha - gamma))``, which is -inf only when
    the penalty itself leaves the float range.
    """
    theta = require_nonnegative("theta", theta)
    alpha = require_nonnegative("alpha", alpha, allow_inf=True)
    require(alpha > 0.0, "alpha must be > 0 (math.inf allowed)")
    gammas = np.array(_floats(gamma_grid, "gamma_grid"))
    require(gammas.size > 0, "gamma_grid must be non-empty")
    psis = np.array(_grid("psi_grid", psi_grid))
    us = np.array(_grid("u_grid", u_grid))
    require(
        bool(np.all((gammas >= 0.0) & (gammas < alpha))),
        "every gamma must lie in [0, alpha)",
    )

    # pi(psi, u) on the (psi, u) lattice, shared across atoms and gammas; a
    # c*psi past the float range makes its row -inf, as in the kernel
    with np.errstate(over="ignore", invalid="ignore"):
        pi = _profit(psis[:, None], us[None, :], cost)
    inner = np.zeros((psis.size, gammas.size))
    for w, weight in zip(demand.support_array(), demand.weights_array()):
        inner += weight * _row_minima(pi, us, psis, w, gammas, cost)[0]
    best = np.argmax(inner, axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        if math.isinf(alpha):
            penalty = -gammas * theta
        else:
            penalty = -alpha * gammas * theta / (alpha - gammas)
            penalty = np.where(
                np.isfinite(penalty), penalty, -(gammas * theta) * (alpha / (alpha - gammas))
            )
        return penalty + inner[best, np.arange(gammas.size)], psis[best]
