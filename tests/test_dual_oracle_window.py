"""The transport-ball dual oracle's windowed row minimum against the dense
lattice it replaces: the same bits on every input with a finite penalty."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from robustnv import CostStructure, DiscreteDistribution
from robustnv import oracle
from robustnv.oracle import inner_min_oracle, wasserstein_dual_oracle
from robustnv.single_product import _profit

COST = CostStructure(price=10.0, cost=3.0)


def _dense_dual(demand, theta, alpha, cost, gammas, psis, us):
    """The dual oracle's loop before the windows: per gamma and atom, every
    point of the (psi, u) lattice, then the row minima."""
    gammas, psis, us = (np.array(x, dtype=float) for x in (gammas, psis, us))
    pi = _profit(psis[:, None], us[None, :], cost)
    sq = (us[None, :] - demand.support_array()[:, None]) ** 2
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


def _hex(xs):
    return [float(x).hex() for x in xs]


def _dense_inner(alpha, q, v, cost, u):
    return float(np.min(_profit(q, u, cost) + alpha * (u - v) ** 2))


def _u_grid(rng, support):
    n = int(rng.integers(1, 50))
    kind = int(rng.integers(0, 4))
    if kind == 0:  # from 0, past the largest atom or short of it
        return np.linspace(0.0, max(support[-1], 0.5) * rng.uniform(0.5, 2.0), n)
    if kind == 1:  # not from 0
        lo = rng.uniform(0.0, 3.0)
        return np.linspace(lo, lo + rng.uniform(0.1, 10.0), n)
    if kind == 2:  # every atom, on a log-spread grid
        return np.unique(np.concatenate([support, np.geomspace(1e-3, 12.0, n)]))
    return np.unique(np.round(rng.uniform(0.0, 10.0, n), int(rng.integers(0, 3))))


def _psi_grid(rng, us):
    n = int(rng.integers(1, 30))
    kind = int(rng.integers(0, 3))
    if kind == 0:  # on u points, between them, below u[0] and above u[-1]
        on = us[rng.integers(0, us.size, 3)]
        mid = on + 0.5 * np.diff(np.append(us, us[-1] + 1.0))[rng.integers(0, us.size, 3)]
        out = [us[0] * rng.uniform(0.0, 1.0), us[-1] + rng.uniform(0.0, 3.0)]
        return np.unique(np.concatenate([on, mid, out, rng.uniform(0.0, 12.0, n)]))
    if kind == 1:
        return np.linspace(rng.uniform(0.0, 2.0), rng.uniform(2.0, 14.0), n)
    return np.array([rng.uniform(0.0, 12.0)])  # one point


def _gamma_grid(rng, alpha):
    top = alpha if math.isfinite(alpha) else 1e12
    special = [-0.0, 0.0, 5e-324, 1e-300, 1e-12, top * (1.0 - 1e-9), top * 0.999]
    gs = list(rng.choice(special, int(rng.integers(0, 4)))) + list(
        top * rng.uniform(0.0, 1.0, int(rng.integers(1, 6))) ** rng.uniform(1.0, 12.0)
    )
    gs = [float(g) for g in gs if g < alpha]
    if gs and rng.random() < 0.3:
        gs.append(gs[int(rng.integers(0, len(gs)))])  # a duplicate
    rng.shuffle(gs)  # unsorted
    return gs or [0.0]


def _instances(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        atoms = np.unique(np.round(rng.uniform(0.0, 8.0, int(rng.integers(1, 5))), 2))
        if rng.random() < 0.25:
            atoms[0] = 0.0
        samples = np.concatenate([atoms, rng.choice(atoms, int(rng.integers(0, 4)))])
        demand = DiscreteDistribution.from_samples(samples)
        price = float(rng.uniform(1.0, 20.0))
        cost = CostStructure(price, price * float(rng.uniform(0.05, 0.95)))
        alpha = math.inf if rng.random() < 0.2 else float(10.0 ** rng.uniform(-3.0, 3.0))
        us = _u_grid(rng, demand.support_array())
        yield (
            demand,
            float(rng.uniform(0.0, 3.0)),
            alpha,
            cost,
            _gamma_grid(rng, alpha),
            _psi_grid(rng, us),
            us,
        )


def test_windowed_dual_oracle_is_bit_equal_to_the_dense_loop():
    count = 0
    for args in _instances(2024, 2000):
        values, arg_psi = wasserstein_dual_oracle(*args)
        dense_values, dense_psi = _dense_dual(*args)
        assert _hex(values) == _hex(dense_values), args
        assert _hex(arg_psi) == _hex(dense_psi), args
        count += 1
    assert count == 2000


def _full_rows(demand, cost, gammas, psis, us):
    gammas, psis, us = (np.array(x, dtype=float) for x in (gammas, psis, us))
    pi = _profit(psis[:, None], us[None, :], cost)
    return sum(
        oracle._row_minima(pi, us, psis, w, gammas, cost)[1]
        for w in demand.support_array()
    )


def test_the_windows_hold_every_row_minimum_on_ordinary_grids():
    # no row needs the full fallback: on the seeded set, and on the
    # acceptance test's 400-gamma grid
    assert sum(_full_rows(d, c, g, p, u) for d, _, _, c, g, p, u in _instances(7, 300)) == 0
    uniform5 = DiscreteDistribution.from_samples([1.0, 2.0, 3.0, 4.0, 5.0])
    grids = (np.linspace(0.0, 0.0999, 400), np.linspace(0.0, 0.3, 601), np.linspace(0.0, 6.0, 1201))
    assert _full_rows(uniform5, COST, *grids) == 0


def test_minus_zero_gamma_has_no_vertex():
    # -0.0 passes the gamma check; p/(2*-0.0) = -inf would put a vertex at +inf
    demand = DiscreteDistribution.from_samples([1.0, 3.0, 5.0])
    args = (demand, 0.5, 2.0, COST, [-0.0, 0.0, 0.5], np.linspace(0, 4, 41), np.linspace(0, 6, 61))
    values, arg_psi = wasserstein_dual_oracle(*args)
    assert values[0] == 0.0
    assert _hex(values) == _hex(_dense_dual(*args)[0])
    assert _hex(arg_psi) == _hex(_dense_dual(*args)[1])


def test_rows_the_bound_does_not_certify_are_formed_in_full():
    # a vertex window on a grid whose steps change the value by less than
    # the rounding bound: the certificate fails and the rows take the full
    # minimum, which is still the dense one
    w = 1e8 + 5e-6
    us = 1e8 + np.arange(41) * 1e-7
    psis = np.array([2e8])
    gammas = np.array([10.0 / (2.0 * (w - us[20])), 0.0, 1.0])
    pi = _profit(psis[:, None], us[None, :], COST)
    sq = (us - w) ** 2
    minima, n_full = oracle._row_minima(pi, us, psis, w, gammas, COST)
    assert n_full >= 1
    dense = [np.min(pi + g * sq[None, :], axis=1) for g in gammas]
    assert _hex(minima.ravel()) == _hex(np.stack(dense, axis=1).ravel())


def test_a_grid_whose_squares_overflow_is_formed_in_full():
    # (1e200 - w)^2 overflows: every row is formed in full, without a warning
    demand = DiscreteDistribution.from_samples([0.0, 2.0])
    args = (demand, 0.5, 2.0, COST, [0.0, 1.0], [0.5, 2.0], [0.0, 1.0, 2.0, 1e200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, arg_psi = wasserstein_dual_oracle(*args)
        envelope = inner_min_oracle(1.0, 3.0, 2.0, COST, [0.0, 2.0, 1e200])
    assert _full_rows(*(args[i] for i in (0, 3, 4, 5, 6))) == 2 * 2 * 2
    with np.errstate(over="ignore", invalid="ignore"):
        dense_values, dense_psi = _dense_dual(*args)
        dense_envelope = _dense_inner(1.0, 3.0, 2.0, COST, np.array([0.0, 2.0, 1e200]))
    assert _hex(values) == _hex(dense_values)
    assert _hex(arg_psi) == _hex(dense_psi)
    assert envelope.hex() == dense_envelope.hex()


def test_both_oracles_read_the_one_kernel(monkeypatch):
    calls = []
    kernel = oracle._row_minima

    def spy(pi, us, psis, w, gammas, cost):
        calls.append((pi.shape, gammas.size))
        return kernel(pi, us, psis, w, gammas, cost)

    monkeypatch.setattr(oracle, "_row_minima", spy)
    inner_min_oracle(2.0, 3.0, 2.0, COST, np.linspace(0, 6, 61))
    assert calls == [((1, 61), 1)]
    calls.clear()
    demand = DiscreteDistribution.from_samples([1.0, 3.0, 5.0])
    wasserstein_dual_oracle(demand, 0.5, 2.0, COST, [0.0, 0.5, 1.0], np.linspace(0, 4, 41), np.linspace(0, 6, 61))
    assert calls == [((41, 61), 3)] * 3  # once per atom, every gamma at once


@pytest.mark.parametrize("hi, points", [(8.0, 8001), (10.0, 20001), (6.0, 61), (5.0, 1)])
def test_inner_min_oracle_is_bit_equal_to_the_dense_minimum(hi, points):
    u = np.linspace(0.0, hi, points)
    rng = np.random.default_rng(points)
    cases = [(0.5, 2.0, 5.0), (1.0, 3.0, 2.0), (1e6, 3.0, 2.0), (5e-324, 4.0, 1.0), (1e300, 0.0, 0.0)]
    cases += [
        (float(10.0 ** rng.uniform(-8.0, 8.0)), float(rng.uniform(0.0, 1.5 * hi)), float(rng.uniform(0.0, 1.5 * hi)))
        for _ in range(100)
    ]
    for alpha, q, v in cases:
        got = inner_min_oracle(alpha, q, v, COST, u)
        assert got.hex() == _dense_inner(alpha, q, v, COST, u).hex(), (alpha, q, v)


def _exact_penalty(alpha, gamma, theta):
    a, g, t = Fraction(alpha), Fraction(gamma), Fraction(theta)
    return -float(a * g * t / (a - g))


def test_penalty_stays_finite_where_minus_alpha_times_gamma_overflows():
    demand = DiscreteDistribution.from_samples([1.0, 3.0, 5.0])
    grids = ([0.5e200, 1e150], [0.0, 2.0, 4.0], [1.0, 3.0, 5.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, _ = wasserstein_dual_oracle(demand, 1.0, 1e200, COST, *grids)
        inner, _ = wasserstein_dual_oracle(demand, 0.0, 1e200, COST, *grids)
    assert np.isfinite(values).all() and np.isfinite(inner).all()
    for value, gamma, rest in zip(values, grids[0], inner):
        want = _exact_penalty(1e200, gamma, 1.0) + rest
        assert abs(value - want) <= 1e-15 * abs(want)


def test_a_penalty_beyond_the_float_range_stays_minus_inf():
    demand = DiscreteDistribution.from_samples([1.0, 3.0, 5.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, _ = wasserstein_dual_oracle(
            demand, 1e10, 1e300, COST, [0.5e300, 0.0], [0.0, 2.0, 4.0], [1.0, 3.0, 5.0]
        )
    assert values[0] == -math.inf
    assert math.isfinite(values[1])


def test_an_overflowing_square_term_raises_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert inner_min_oracle(1e308, 3.0, 2.0, COST, np.linspace(0, 6, 61)) == 11.0


def test_a_profit_past_the_float_range_raises_no_warning():
    # c*psi overflows at psi = 1e308: that row's profit is -inf, the
    # out-of-range value, in both oracles and with no warning
    demand = DiscreteDistribution.from_samples([1.0, 3.0, 5.0])
    us = [0.0, 2.0, 4.0, 6.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert inner_min_oracle(1.0, 1e308, 2.0, COST, [0.0, 2.0, 4.0]) == -math.inf
        values, arg_psi = wasserstein_dual_oracle(demand, 0.5, 4.0, COST, [0.0, 1.0], [0.0, 2.0, 1e308], us)
        only, _ = wasserstein_dual_oracle(demand, 0.5, 4.0, COST, [0.0, 1.0], [1e308], us)
    assert np.all(np.isfinite(values)) and 1e308 not in arg_psi
    assert np.all(only == -math.inf)
    want, _ = _dense_dual(demand, 0.5, 4.0, COST, [0.0, 1.0], [0.0, 2.0], us)
    assert values.tolist() == want.tolist()
