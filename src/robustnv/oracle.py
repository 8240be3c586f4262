"""Brute-force validation oracle for small moment problems.

Ground truth for the closed forms elsewhere in the package is produced the
slow, honest way: restrict the candidate laws to a finite support grid,
enumerate every subset of at most (#constraints + 1) support points (the
extreme-point bound for moment polytopes), solve the tiny linear system for
the weights, keep the feasible nonnegative solutions, and take the minimum
expected objective.  No linear-programming dependency, no cleverness shared
with the closed forms being validated.

Two consumption styles:

* :func:`worst_case_expectation_oracle` — one-shot: streams candidate chunks
  against a single objective with a running minimum, so memory stays bounded
  even on fine grids (cubic enumeration is capped at 1500 points; ~400 is the
  recommended routine budget).
* :class:`MomentLawFamily` — materializes the feasible family once for reuse
  against many objectives (e.g. scanning order quantities); this is the
  expensive-to-build, cheap-to-query path and therefore enforces the 400-point
  cubic budget strictly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .single_product import DiscreteDistribution
from .validation import InfeasibleError, InputError, require

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
        require(math.isfinite(self.bound), f"bound must be finite, got {self.bound!r}")


@dataclass(frozen=True)
class MomentConstraintSet:
    """A support grid plus mean / second-moment constraints.

    At most one constraint per moment id (the enumeration solves subset
    systems whose rows are the distinct moment maps).
    """

    grid: tuple[float, ...]
    constraints: tuple[MomentConstraint, ...]

    def __post_init__(self) -> None:
        require(len(self.grid) > 0, "grid must be non-empty")
        g = tuple(float(v) for v in self.grid)
        require(all(math.isfinite(v) and v >= 0.0 for v in g), "grid must be finite and >= 0")
        require(
            all(a < b for a, b in zip(g, g[1:])), "grid must be strictly increasing"
        )
        ids = [c.moment for c in self.constraints]
        require(len(ids) == len(set(ids)), "at most one constraint per moment id")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "constraints", tuple(self.constraints))

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


def _iter_pairs(grid: np.ndarray, constraints) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Pairs pinned by one active constraint row; remaining constraints checked."""
    n = grid.size
    for solve_c in constraints:
        g = _moment_map(grid, solve_c.moment)
        t = solve_c.bound
        for i in range(n - 1):
            j = np.arange(i + 1, n)
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
                idx = np.column_stack([np.full(hits.size, i, dtype=np.int64), j[hits]])
                wgt = np.column_stack([wi[hits], wj[hits]])
                yield idx, wgt


def _iter_triples(grid: np.ndarray, constraints) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Triples pinned by the MEAN and SECOND_MOMENT rows (LE rows made active).

    Uses the closed Lagrange/Cramer solution of the 3x3 Vandermonde system;
    strictly increasing grids keep the denominators away from zero, and the
    pivot-tolerance skip guards the degenerate remainder.
    """
    by_id = {c.moment: c for c in constraints}
    if Moment.MEAN not in by_id or Moment.SECOND_MOMENT not in by_id:
        return
    t1 = by_id[Moment.MEAN].bound
    t2 = by_id[Moment.SECOND_MOMENT].bound
    n = grid.size
    g2 = grid * grid
    # hull prefilters: nonnegative weights put each target moment inside the
    # atom hull, so the low atom sits below both targets and the high above
    low_ok = (grid <= t1 + _FEAS_TOL) & (g2 <= t2 + _FEAS_TOL)
    hi_ok = (grid >= t1 - _FEAS_TOL) & (g2 >= t2 - _FEAS_TOL)
    for i in np.nonzero(low_ok)[0]:
        m = n - i - 1
        if m < 2:
            break
        jj, kk = np.triu_indices(m, k=1)
        jj = jj + i + 1
        kk = kk + i + 1
        keep = hi_ok[kk]
        jj, kk = jj[keep], kk[keep]
        if jj.size == 0:
            continue
        a, b, c_ = grid[i], grid[jj], grid[kk]
        den_a = (a - b) * (a - c_)
        den_b = (b - a) * (b - c_)
        den_c = (c_ - a) * (c_ - b)
        valid = (
            (np.abs(den_a) > _PIVOT_TOL)
            & (np.abs(den_b) > _PIVOT_TOL)
            & (np.abs(den_c) > _PIVOT_TOL)
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            wa = (t2 - (b + c_) * t1 + b * c_) / den_a
            wb = (t2 - (a + c_) * t1 + a * c_) / den_b
            wc = (t2 - (a + b) * t1 + a * b) / den_c
        feas = valid & (wa >= -_W_TOL) & (wb >= -_W_TOL) & (wc >= -_W_TOL)
        hits = np.nonzero(feas)[0]
        if hits.size:
            idx = np.column_stack(
                [np.full(hits.size, i, dtype=np.int64), jj[hits], kk[hits]]
            )
            wgt = np.column_stack([wa[hits], wb[hits], wc[hits]])
            yield idx, wgt


def _iter_candidates(cs: MomentConstraintSet) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    grid = np.asarray(cs.grid, dtype=float)
    k_max = min(len(cs.constraints) + 1, 3, grid.size)
    yield from _iter_singletons(grid, cs.constraints)
    if k_max >= 2:
        yield from _iter_pairs(grid, cs.constraints)
    if k_max >= 3:
        yield from _iter_triples(grid, cs.constraints)


def _lex_smallest(idx: np.ndarray, rows: np.ndarray) -> int:
    """Row (among ``rows``) whose padded index triple is lexicographically
    smallest; repeating-last-index padding preserves the true support order."""
    if rows.size == 1:
        return int(rows[0])
    sub = idx[rows]
    cols = [sub[:, k] for k in range(sub.shape[1] - 1, -1, -1)]
    return int(rows[np.lexsort(cols)[0]])


def _support_key(grid: np.ndarray, idx_row: np.ndarray) -> tuple:
    return tuple(grid[idx_row])


def _grid_error_bound(grid: np.ndarray, fv: np.ndarray) -> float:
    """Documented heuristic: max adjacent slope times max grid spacing."""
    if grid.size < 2:
        return 0.0
    steps = np.diff(grid)
    lip = float(np.max(np.abs(np.diff(fv)) / steps))
    return lip * float(np.max(steps))


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
            "(cap 1500; recommended <= 400)"
        )
    if grid.size > 20000:
        raise InputError(f"grid of {grid.size} points exceeds the pair cap 20000")
    fv = np.array([float(objective(v)) for v in cs.grid])
    require(bool(np.all(np.isfinite(fv))), "objective must be finite on the grid")

    best_val = math.inf
    best_idx: np.ndarray | None = None
    best_wgt: np.ndarray | None = None
    for idx, wgt in _iter_candidates(cs):
        exp = np.einsum("ij,ij->i", wgt, fv[idx])
        row = int(np.argmin(exp))
        val = float(exp[row])
        if val < best_val:
            best_val, best_idx, best_wgt = val, idx[row], wgt[row]
        elif val == best_val and best_idx is not None:
            # resolve exact ties toward the lexicographically smaller support
            r = _lex_smallest(idx, np.nonzero(exp == val)[0])
            if _support_key(grid, idx[r]) < _support_key(grid, best_idx):
                best_idx, best_wgt = idx[r], wgt[r]
    if best_idx is None:
        raise InfeasibleError(
            "no grid-supported law satisfies the constraint set (is the mean "
            "inside the grid hull?)"
        )
    argmin = DiscreteDistribution.from_pairs(grid[best_idx], best_wgt)
    return OracleResult(
        value=best_val,
        argmin=argmin,
        grid_error_bound=_grid_error_bound(grid, fv),
    )


class MomentLawFamily:
    """Materialized feasible family for reuse against many objectives.

    ``atom_indices`` is an (n_laws, 3) int array of grid indices (rows for
    smaller supports padded by repeating the last index with zero weight) and
    ``atom_weights`` the matching weights.  Building the family costs the full
    enumeration once; :meth:`minimize` is then a single gather-and-reduce per
    objective.  Because every feasible law is stored, the cubic case enforces
    the recommended 400-point budget strictly — use the streaming one-shot
    oracle for finer grids.
    """

    def __init__(self, cs: MomentConstraintSet):
        grid = np.asarray(cs.grid, dtype=float)
        if cs.needs_cubic and grid.size > 400:
            raise InputError(
                f"grid of {grid.size} points exceeds the family cubic budget of "
                "400; use worst_case_expectation_oracle (streaming) instead"
            )
        if grid.size > 20000:
            raise InputError(f"grid of {grid.size} points exceeds the pair cap 20000")
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
        if not idx_blocks:
            raise InfeasibleError(
                "no grid-supported law satisfies the constraint set (is the mean "
                "inside the grid hull?)"
            )
        self.atom_indices = np.vstack(idx_blocks)
        self.atom_weights = np.vstack(wgt_blocks)
        self._law_matrix = None  # lazy sparse form for minimize_many

    @property
    def n_laws(self) -> int:
        return int(self.atom_indices.shape[0])

    def minimize(self, objective_on_grid: np.ndarray) -> tuple[float, int]:
        """Minimum of E[objective] over the family; returns (value, law row).

        Exact value ties resolve toward the lexicographically smallest support.
        """
        fv = np.asarray(objective_on_grid, dtype=float)
        require(fv.shape == self.grid.shape, "objective values must match the grid")
        exp = np.einsum("ij,ij->i", self.atom_weights, fv[self.atom_indices])
        row = int(np.argmin(exp))
        ties = np.nonzero(exp == exp[row])[0]
        if ties.size > 1:
            row = _lex_smallest(self.atom_indices, ties)
        return float(exp[row]), row

    def minimize_many(self, objectives: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`minimize` over many objectives at once.

        ``objectives`` has shape (n_objectives, n_grid); returns the per-row
        minima and attaining law rows.  Ties resolve by enumeration order
        (first hit), which is deterministic; use :meth:`minimize` when the
        strict lexicographic tie rule matters.
        """
        obj = self._checked_objectives(objectives)
        values = np.empty(obj.shape[0])
        rows = np.empty(obj.shape[0], dtype=np.int64)
        for span, block in self._expectation_blocks(obj):
            r = np.argmin(block, axis=0)
            rows[span] = r
            values[span] = block[r, np.arange(block.shape[1])]
        return values, rows

    def _min_values(self, objectives: np.ndarray) -> np.ndarray:
        """The minima of :meth:`minimize_many`, bit for bit, without the rows."""
        obj = self._checked_objectives(objectives)
        values = np.empty(obj.shape[0])
        for span, block in self._expectation_blocks(obj):
            values[span] = block.min(axis=0)
        return values

    def _checked_objectives(self, objectives) -> np.ndarray:
        obj = np.asarray(objectives, dtype=float)
        require(
            obj.ndim == 2 and obj.shape[1] == self.grid.size,
            "objectives must have shape (n_objectives, n_grid)",
        )
        return obj

    def _expectation_blocks(self, obj: np.ndarray):
        """(row slice, (n_laws, rows) block of law expectations) per chunk."""
        from scipy import sparse

        if self._law_matrix is None:
            n = self.n_laws
            indptr = np.arange(0, 3 * n + 1, 3)
            self._law_matrix = sparse.csr_matrix(
                (
                    self.atom_weights.ravel(),
                    self.atom_indices.ravel().astype(np.int64),
                    indptr,
                ),
                shape=(n, self.grid.size),
            )
        chunk = max(1, int(2e7 // max(self.n_laws, 1)))
        for lo in range(0, obj.shape[0], chunk):
            yield slice(lo, lo + chunk), self._law_matrix @ obj[lo : lo + chunk].T

    def law(self, row: int) -> DiscreteDistribution:
        idx = self.atom_indices[row]
        wgt = self.atom_weights[row]
        return DiscreteDistribution.from_pairs(self.grid[idx], wgt)

    def grid_error_bound(self, objective_on_grid: np.ndarray) -> float:
        return _grid_error_bound(self.grid, np.asarray(objective_on_grid, dtype=float))


def inner_min_oracle(
    alpha: float, q: float, v: float, cost, u_grid: Sequence[float]
) -> float:
    """Grid version of the envelope: min over u of pi(q, u) + alpha (u - v)^2."""
    alpha = float(alpha)
    require(math.isfinite(alpha) and alpha > 0.0, "alpha must be finite and > 0")
    u = np.asarray(list(u_grid), dtype=float)
    require(u.size > 0, "u_grid must be non-empty")
    pi = cost.price * np.minimum(q, u) - cost.cost * q
    return float(np.min(pi + alpha * (u - v) ** 2))


def grid_argmax(
    value_fn: Callable[[float], float], q_grid: Iterable[float]
) -> tuple[float, float]:
    """Exhaustive scan for the maximizer; ties break toward the smaller q."""
    best_q = None
    best_v = -math.inf
    count = 0
    for q in q_grid:
        count += 1
        val = float(value_fn(float(q)))
        if val > best_v:
            best_v = val
            best_q = float(q)
    require(count > 0, "q_grid must be non-empty")
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
    arithmetic: nothing is shared with the closed-form reduction.
    """
    theta = float(theta)
    alpha = float(alpha)
    require(theta >= 0.0, "theta must be >= 0")
    require(alpha > 0.0, "alpha must be > 0 (math.inf allowed)")
    gammas = np.asarray(list(gamma_grid), dtype=float)
    psis = np.asarray(list(psi_grid), dtype=float)
    us = np.asarray(list(u_grid), dtype=float)
    require(gammas.size > 0 and psis.size > 0 and us.size > 0, "empty grid")
    require(
        bool(np.all((gammas >= 0.0) & (gammas < alpha))),
        "every gamma must lie in [0, alpha)",
    )

    # pi(psi, u) on the (psi, u) lattice, shared across atoms and gammas
    pi = cost.price * np.minimum(psis[:, None], us[None, :]) - cost.cost * psis[
        :, None
    ]
    sq = (us[None, :] - demand.support_array()[:, None]) ** 2  # (atom, u)
    weights = demand.weights_array()

    values = np.empty(gammas.size, dtype=float)
    arg_psi = np.empty(gammas.size, dtype=float)
    for k, gamma in enumerate(gammas):
        inner = np.zeros(psis.size, dtype=float)
        for a in range(sq.shape[0]):
            inner += weights[a] * np.min(pi + gamma * sq[a][None, :], axis=1)
        best = int(np.argmax(inner))
        penalty = (
            -gamma * theta
            if math.isinf(alpha)
            else -alpha * gamma * theta / (alpha - gamma)
        )
        values[k] = penalty + inner[best]
        arg_psi[k] = psis[best]
    return values, arg_psi
