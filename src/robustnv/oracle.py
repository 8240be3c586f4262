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
row), then triples, each family in lexicographic index order; the tie rules of
both consumers depend on that order.  Pairs and triples are tested in blocks of
``_BLOCK`` candidates per numpy pass, so memory stays bounded whatever the
grid size.  Triples are formed row by row, a row being a (low, middle) atom
pair; a row whose third weight is provably negative for every high atom is
dropped before it is expanded (the proof is in :func:`_iter_triples`).

Two consumption styles:

* :func:`worst_case_expectation_oracle` — one-shot: streams candidate chunks
  against a single objective with a running minimum, so memory stays bounded
  even on fine grids (cubic enumeration is capped at 1500 points; ~400 is the
  recommended routine budget).
* :class:`MomentLawFamily` — materializes the feasible family once for reuse
  against many objectives (e.g. scanning order quantities); this is the
  expensive-to-build, cheap-to-query path and therefore enforces the 400-point
  cubic budget strictly.  Objectives are scored in consecutive blocks of laws
  holding about ``_LAW_BLOCK`` expectations each (1 MB), folded into running
  minima, so scoring adds a fixed amount of memory however large the family.

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

from .single_product import DiscreteDistribution, _grid, _grid_floats, _profit
from .validation import (
    InfeasibleError,
    InputError,
    _member,
    require,
    require_finite,
    require_nonnegative,
    require_positive,
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
    by_id = {c.moment: c for c in constraints}
    t1 = by_id[Moment.MEAN].bound
    t2 = by_id[Moment.SECOND_MOMENT].bound
    g2 = grid * grid
    # hull prefilters: nonnegative weights put each target moment inside the
    # atom hull, so the low atom sits below both targets and the high above
    low_ok = (grid <= t1 + _FEAS_TOL) & (g2 <= t2 + _FEAS_TOL)
    hi = np.nonzero((grid >= t1 - _FEAS_TOL) & (g2 >= t2 - _FEAS_TOL))[0]
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
            num_c = t2 - (a + b) * t1 + a * b
            wc_top = num_c / ((grid[top] - a) * (grid[top] - b))
        keep = np.nonzero(~(wc_top < -_W_TOL))[0]
        i, j, a, b, num_c = i[keep], j[keep], a[keep], b[keep], num_c[keep]
        above = np.searchsorted(hi, j, side="right")
        d_ba = b - a
        for rows2, sizes2, off2 in _ragged_blocks(hi.size - above):
            def spread(x):
                return np.repeat(x[rows2], sizes2)

            pos = spread(above) + off2
            ar, br, c_, d_ba_r = spread(a), spread(b), grid_hi[pos], spread(d_ba)
            d_ca, d_cb = c_ - ar, c_ - br
            p_b = d_ba_r * d_cb
            with np.errstate(divide="ignore", invalid="ignore"):
                wa = (t2 - (br + c_) * t1 + br * c_) / (d_ba_r * d_ca)
                neg_wb = (t2 - (ar + c_) * t1 + ar * c_) / p_b
                wc = spread(num_c) / (d_ca * d_cb)
            feas = (
                (p_b > _PIVOT_TOL)
                & (wa >= -_W_TOL)
                & (neg_wb <= _W_TOL)
                & (wc >= -_W_TOL)
            )
            hits = np.nonzero(feas)[0]
            if hits.size:
                yield (
                    np.column_stack([spread(i)[hits], spread(j)[hits], hi[pos[hits]]]),
                    np.column_stack([wa[hits], -neg_wb[hits], wc[hits]]),
                )


def _iter_candidates(cs: MomentConstraintSet) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every candidate block, in order; :class:`InfeasibleError` after the
    last one when there was none."""
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
) -> tuple[float, list[int], np.ndarray, int]:
    """``(value, index row, weight row, position in the stream)`` of the law
    of smallest ``E[fv]`` in a non-empty stream of (index rows, weight rows).

    Exact ties go to the lexicographically smallest index row, then to the
    first.  Index rows compare as the supports they index do: the grid is
    strictly increasing, and a shorter row, or one padded by repeating its
    last index, sorts before every longer row it begins.  A block resolves
    its tie among all rows equal to its minimum (a stable ``lexsort``): a
    family block may cross the pair/triple boundary, so its first tied row
    need not be the smallest.  A later block wins by a smaller value or row.
    """
    best, pos = None, 0
    for idx, wgt in blocks:
        exp = np.einsum("ij,ij->i", wgt, fv[idx])
        r = int(np.argmin(exp))
        ties = np.nonzero(exp == exp[r])[0]
        if ties.size > 1:
            r = int(ties[np.lexsort(idx[ties].T[::-1])[0]])
        key = (float(exp[r]), idx[r].tolist())
        if best is None or key < best[0]:
            best = key, wgt[r], pos + r
        pos += idx.shape[0]
    (value, row), wgt, at = best
    return value, row, wgt, at


def _grid_error_bound(grid: np.ndarray, fv: np.ndarray) -> float:
    """Documented heuristic: max adjacent slope times max grid spacing."""
    if grid.size < 2:
        return 0.0
    steps = np.diff(grid)
    lip = float(np.max(np.abs(np.diff(fv)) / steps))
    return lip * float(np.max(steps))


def _require_finite_objective(fv: np.ndarray) -> None:
    require(bool(np.all(np.isfinite(fv))), "objective must be finite on the grid")


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

    value, idx, wgt, _ = _lex_min(fv, _iter_candidates(cs))
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
    strictly — use the streaming one-shot oracle for finer grids.
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
        self.constraint_set = cs
        self.grid = grid
        idx_blocks: list[np.ndarray] = []
        wgt_blocks: list[np.ndarray] = []
        for idx, wgt in _iter_candidates(cs):
            m, k = idx.shape
            if k < 3:  # pad with zero-weight repeats of the last atom
                idx = np.hstack([idx, np.repeat(idx[:, -1:], 3 - k, axis=1)])
                wgt = np.hstack([wgt, np.zeros((m, 3 - k))])
            idx_blocks.append(idx.astype(np.int32))
            wgt_blocks.append(wgt)
        self.atom_indices = np.vstack(idx_blocks)
        self.atom_weights = np.vstack(wgt_blocks)

    @property
    def n_laws(self) -> int:
        return int(self.atom_indices.shape[0])

    def minimize(self, objective_on_grid: np.ndarray) -> tuple[float, int]:
        """Minimum of E[objective] over the family; returns (value, law row).

        Exact value ties resolve toward the lexicographically smallest support.
        The laws are scored ``_BLOCK`` at a time.
        """
        fv = np.asarray(objective_on_grid, dtype=float)
        require(fv.shape == self.grid.shape, "objective values must match the grid")
        _require_finite_objective(fv)
        cuts = range(_BLOCK, self.n_laws, _BLOCK)
        blocks = zip(np.split(self.atom_indices, cuts), np.split(self.atom_weights, cuts))
        value, _, _, row = _lex_min(fv, blocks)
        return value, row

    def minimize_many(self, objectives: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`minimize` over many objectives at once.

        ``objectives`` has shape (n_objectives, n_grid); returns the per-row
        minima and attaining law rows.  Ties resolve by enumeration order
        (first hit), which is deterministic; use :meth:`minimize` when the
        strict lexicographic tie rule matters.
        """
        obj = self._checked_objectives(objectives)
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
        obj = self._checked_objectives(objectives)
        values = np.full(obj.shape[0], np.inf)
        for _, block in self._expectation_blocks(obj):
            b, k = block.shape
            if b % 8 == 0:
                block = block.reshape(b // 8, 8 * k).min(axis=0).reshape(8, k)
            np.minimum(values, block.min(axis=0), out=values)
        return values

    def _checked_objectives(self, objectives) -> np.ndarray:
        obj = np.asarray(objectives, dtype=float)
        require(
            obj.ndim == 2 and obj.shape[1] == self.grid.size,
            "objectives must have shape (n_objectives, n_grid)",
        )
        _require_finite_objective(obj)
        return obj

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

    def law(self, row: int) -> DiscreteDistribution:
        idx = self.atom_indices[row]
        wgt = self.atom_weights[row]
        return DiscreteDistribution.from_pairs(self.grid[idx], wgt)


_EPS = 2.0**-53  # unit roundoff of a double
_ETA = 2.0**-1074  # smallest subnormal: bounds a product's underflow error
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
    minima, _ = _row_minima(_profit(q, u, cost)[None, :], u, np.array([q]), v, np.array([alpha]), cost)
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
    gammas = np.array(_grid_floats("gamma_grid", gamma_grid))
    require(gammas.size > 0, "gamma_grid must be non-empty")
    psis = np.array(_grid("psi_grid", psi_grid))
    us = np.array(_grid("u_grid", u_grid))
    require(
        bool(np.all((gammas >= 0.0) & (gammas < alpha))),
        "every gamma must lie in [0, alpha)",
    )

    # pi(psi, u) on the (psi, u) lattice, shared across atoms and gammas
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
