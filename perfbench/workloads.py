"""The three workloads: how each request calls robustnv and how its answer is checked.

``execute`` makes the request's calls into the public API and is the only
part that is timed.  ``check`` runs afterwards and raises
:class:`CheckFailed` when an answer disagrees with the independent
references in ``reference.py``.  Functions are looked up on the robustnv
modules at call time, so the span wrappers of a traced run see every call;
the checks call the original functions, captured before any wrapper is
installed, so they add no spans.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

import numpy as np

import inputs
import reference as ref


# failure classes a request can end in, as counted and reported
FAILURE_CLASSES = ("internal_check_error", "input_error", "degenerate_model_error",
                   "other_exception", "check_failed", "oracle_rule_failed")


class CheckFailed(Exception):
    """An answer failed one of the benchmark's correctness checks."""


class OracleDisagreed(Exception):
    """A grid oracle's rule rejected a closed-form answer.

    Counted as a failed request, but not as proof of a wrong answer: the
    rules carry the grids' discretization error (for example criterion 06's
    0.05 on a 151-point grid is exceeded when a large multiplier pulls the
    adversary's atoms within a few grid steps of the mean)."""


def expect(condition: bool, message: str, exc: type = CheckFailed) -> None:
    if not condition:
        raise exc(message)


def close(got: float, want: float, tol: float, what: str) -> None:
    expect(abs(got - want) <= tol, f"{what}: got {got!r}, want {want!r} (tol {tol:.3g})")


def _plan(rn, req):
    """The request's products and its second-moment budget."""
    products = tuple(rn.ProductSpec(p, c, mu) for p, c, mu in req["products"])
    budget = math.fsum(mu * mu for _, _, mu in req["products"]) * req["budget_factor"]
    return products, budget


# --------------------------------------------------------------------------
# catalog
# --------------------------------------------------------------------------


class Catalog:
    """Per-SKU reports and worst-case laws, then one budget plan per store."""

    name = "catalog"

    def __init__(self, rn, seed: int, workdir: str):
        self.rn = rn
        self.seed = seed
        self.theta = rn.portfolio.theta  # original, for the plan check

    def requests(self, groups=None):
        return inputs.catalog_requests(self.seed, groups)

    def warmup(self):
        return inputs.catalog_warmup(self.seed)

    def execute(self, req):
        rn = self.rn
        kind = req["kind"]
        if kind == "plan":
            return rn.solve_lambda(rn.PortfolioSpec(*_plan(rn, req), req["alpha"]))
        m = rn.MomentSpec(req["mu"], req["sigma"])
        cs = rn.CostStructure(req["price"], req["cost"])
        if kind in ("misspec", "ambiguity"):
            return rn.misspec_quantity(req["alpha"], m, cs)
        if kind == "tv":
            return rn.tv_misspec_quantity(req["alpha"], m, cs)
        if kind == "wasserstein":
            demand = rn.DiscreteDistribution.from_samples(req["history"])
            return rn.wasserstein_misspec_solve(demand, rn.RadiusSpec(req["theta"], req["alpha"]), cs)
        value = rn.worst_case_transformed_expectation(req["alpha"], req["q"], m, cs)
        return value, rn.misspec_worst_case(req["alpha"], req["q"], m, cs)

    def check(self, req, out):
        kind = req["kind"]
        if kind == "plan":
            return self._check_plan(req, out)
        a, mu, sigma, p, c = req["alpha"], req["mu"], req["sigma"], req["price"], req["cost"]
        q_tol = 1e-8 * (mu + sigma)
        v_tol = 1e-8 * p * (mu + sigma)
        if kind in ("misspec", "ambiguity"):
            q_ref, v_ref = ref.misspec_report(a, mu, sigma, p, c)
            close(out.quantity, q_ref, q_tol, "quantity")
            close(out.value, v_ref, v_tol, "value")
            if out.duals:
                d = dict(out.duals)
                lhs = d["s_alpha"] * mu - d["r_alpha"] * (mu * mu + sigma * sigma) - d["t_alpha"]
                close(lhs, out.value, 1e-8 * max(1.0, abs(out.value)), "dual identity")
            _check_law(out.worst_case, mu, sigma)
        elif kind == "tv":
            close(out, ref.tv_quantity(a, mu, sigma, p, c), q_tol, "tv quantity")
        elif kind == "wasserstein":
            q_star = ref.fractile(req["history"], (p - c) / p)
            expect(0.0 <= out.psi_star <= q_star * (1.0 + 1e-12),
                   f"psi* {out.psi_star!r} outside [0, q* = {q_star!r}]")
            expect(out.gamma_star <= a, f"gamma* {out.gamma_star!r} above alpha {a!r}")
        else:
            value, (law, image) = out
            v_ref = ref.value_function(a, req["q"], mu, sigma, p, c)
            close(value, v_ref, v_tol, "value function")
            _check_law(law, mu, sigma)
            q = req["q"]
            attained = math.fsum(w * (p * min(q, v) - c * q) for v, w in zip(image.support, image.weights))
            close(attained, v_ref, v_tol, "worst-case law value")

    def _check_plan(self, req, sol):
        products, budget = _plan(self.rn, req)
        expect(len(sol.quantities) == len(products), "one quantity per product")
        expect(all(q >= 0.0 for q in sol.quantities), "negative quantity")
        lam, seg, a = sol.lambda_star, sol.segment, req["alpha"]
        if sol.case.name == "INTERIOR_ROOT":
            # theta falls strictly on the segment, so a multiplier within the
            # solver's stated bisection precision of the root brackets K
            step = 1e-10 * max(1.0, lam)
            upper = self.theta(seg, max(lam - step, 0.0), products, a)
            lower = self.theta(seg, lam + step, products, a)
            expect(lower <= budget <= upper,
                   f"theta(segment, lambda* -+ {step:.3g}) = [{upper!r}, {lower!r}] misses K={budget!r}")
        else:
            implied = self.theta(seg, lam, products, a)
            expect(implied <= budget * (1.0 + 1e-12), f"kink plan exceeds budget: {implied!r}")


def _check_law(law, mu: float, sigma: float) -> None:
    b = mu * mu + sigma * sigma
    mean = math.fsum(v * w for v, w in zip(law.support, law.weights))
    second = math.fsum(v * v * w for v, w in zip(law.support, law.weights))
    close(mean, mu, 1e-8 * max(1.0, b), "worst-case law mean")
    close(second, b, 1e-8 * max(1.0, b), "worst-case law second moment")


# --------------------------------------------------------------------------
# calibrate
# --------------------------------------------------------------------------


class Calibrate:
    """In-process CLI calls on demand CSVs, plus library threshold scans."""

    name = "calibrate"

    def __init__(self, rn, seed: int, workdir: str):
        self.rn = rn
        self.seed = seed
        self.workdir = workdir
        self.pool = inputs.demand_pool(seed)
        self.out_path = os.path.join(workdir, f"out-{os.getpid()}.txt")
        self.last_bytes: dict[tuple, bytes] = {}

    def requests(self, groups=None):
        return inputs.calibrate_requests(self.seed, self.pool, groups)

    def warmup(self):
        return inputs.calibrate_warmup(self.seed, self.pool)

    def _csv(self, req, which: str) -> str:
        return os.path.join(self.workdir, f"pair{req['pair']:02d}-{which}.csv")

    def argv(self, req) -> list[str]:
        kind = req["kind"]
        grid = ",".join(repr(a) for a in req["alpha_grid"])
        head = ["--seed", str(req["seed"]), "--out", self.out_path, "--format", req["format"]]
        cost = ["--price", repr(req["price"]), "--cost", repr(req["cost"])]
        train, test = ["--train", self._csv(req, "train")], ["--test", self._csv(req, "test")]
        if kind.startswith("calibrate_"):
            method = kind.split("_")[1]
            tail = test if method != "cv" else []
            return head + ["calibrate", "--method", method] + cost + train + tail + [
                "--alpha-grid", grid, "--folds", str(req["folds"])]
        if kind.startswith("sweep_"):
            axis = kind.split("_")[1]
            if axis == "alpha":
                extra = ["--alpha-grid", grid]
            else:
                lo, hi, count = req["axis"]
                extra = ["--alpha", repr(req["alpha"]), "--min", repr(lo), "--max", repr(hi),
                         "--count", str(count)]
            return head + ["sweep", "--axis", axis] + cost + train + test + extra
        if kind == "experiment":
            return head + ["experiment"] + cost + train + test + [
                "--alpha-grid", grid, "--theta", repr(req["theta"]), "--folds", str(req["folds"])]
        return head + ["evaluate"] + cost + ["--quantity", repr(req["quantity"])] + test

    def execute(self, req):
        rn = self.rn
        kind = req["kind"]
        if kind == "price_scan":
            m = rn.MomentSpec(req["mu"], req["sigma"])
            return rn.price_threshold_scan(req["alpha"], m, req["cost"], req["grid"])
        if kind == "variance_scan":
            cs = rn.CostStructure(req["price"], req["cost"])
            return rn.variance_threshold_scan(req["alpha"], cs, req["mu"], req["grid"])
        return rn.cli.main(self.argv(req))

    def check(self, req, out):
        kind = req["kind"]
        if kind.endswith("scan"):
            return self._check_scan(req, out)
        # the CLI turns the library's exceptions into exit codes; count them
        # as the exceptions they were, not as wrong answers
        raised = {2: self.rn.InputError, 3: self.rn.DegenerateModelError,
                  4: self.rn.InternalCheckError}.get(out)
        if raised is not None:
            raise raised(f"robustnv.cli.main exited with code {out}")
        expect(out == 0, f"exit code {out}")
        with open(self.out_path, "rb") as fh:
            data = fh.read()
        key = tuple(self.argv(req))
        if req.get("repeat"):
            first = self.last_bytes.pop(key, None)
            self.last_bytes.clear()
            expect(data == first, "repeated argv gave different bytes")
        else:
            self.last_bytes[key] = data
        text = data.decode("utf-8")
        pair = self.pool[req["pair"]]
        mu, sigma = ref.population_moments(pair["train"])
        p, c = req["price"], req["cost"]
        if kind.startswith("calibrate_"):
            doc = json.loads(text)
            self._check_pick(req, kind.split("_")[1], doc["alpha"], mu, sigma)
        elif kind.startswith("sweep_"):
            self._check_sweep(req, text, mu, sigma)
        elif kind == "experiment":
            doc = json.loads(text)
            grid = req["alpha_grid"]
            expect(len(doc["cells"]) == 5 * len(grid), "one cell per method and index")
            for name in ("cv", "formula", "stress"):
                self._check_pick(req, name, doc["selections"][name], mu, sigma)
            q_star = ref.fractile(pair["train"], (p - c) / p)
            # cells come method by method, each over the whole grid in order
            for i, cell in enumerate(doc["cells"]):
                a, method, got = grid[i % len(grid)], cell["method"], cell["quantity"]
                if method == "WASSERSTEIN":
                    expect(got <= q_star + 1e-6, "ball quantity above q*")
                    continue
                if method == "MISSPEC":
                    want = ref.misspec_quantity(a, mu, sigma, p, c)
                elif method == "TV":
                    want = ref.tv_quantity(a, mu, sigma, p, c)
                elif method == "AMBIGUITY":
                    want = ref.scarf(mu, sigma, p, c)[0]
                else:
                    want = q_star
                close(got, want, 2e-6 + 1e-9 * mu, f"{method} cell")
        else:
            doc = json.loads(text)
            test = np.asarray(pair["test"])
            q = req["quantity"]
            want = float(np.mean(p * np.minimum(q, test) - c * q))
            expect(doc["n_test"] == test.size, "n_test")
            close(doc["out_of_sample_profit"], want, 2e-6 + 1e-9 * abs(want), "out-of-sample profit")

    def _check_pick(self, req, method, picked, mu, sigma):
        grid = req["alpha_grid"]
        if method == "formula":
            test = self.pool[req["pair"]]["test"]
            beta = float(np.random.default_rng(req["seed"]).uniform(0.5, 1.0))
            shift = beta * ref.w2_squared(test, self.pool[req["pair"]]["train"])
            eps_grid = (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0)
            allowed = [ref.alpha_for_budget(e + shift, mu, sigma, req["price"], req["cost"])
                       for e in eps_grid]
        else:
            allowed = grid
        a = math.inf if picked == "inf" else float(picked)
        # the output rounds to six decimals
        expect(any(g == a or math.isfinite(g) and abs(g - a) <= 1e-6 * max(1.0, g) for g in allowed),
               f"{method} pick {picked!r} not in its grid")

    def _check_sweep(self, req, text, mu, sigma):
        axis = req["kind"].split("_")[1]
        if req["format"] == "json":
            points = json.loads(text)["points"]
            rows = [(p["value"], p["quantity"]) for p in points]
            tol = 2e-6
        else:
            reader = csv.reader(io.StringIO(text))
            expect(next(reader) == ["axis", "value", "quantity", "in_sample", "out_of_sample"],
                   "sweep csv header")
            rows = [(float(r[1]), float(r[2])) for r in reader if r]
            tol = 1e-9
        p, c, a = req["price"], req["cost"], req["alpha"]
        if axis == "alpha":
            grid = req["alpha_grid"]
            expect(len(rows) == len(grid), "one point per grid index")
            wants = [ref.misspec_quantity(g, mu, sigma, p, c) for g in grid]
        else:
            points = np.linspace(*req["axis"])
            expect(len(rows) == points.size, "one row per axis point")
            if axis == "price":
                wants = [ref.misspec_quantity(a, mu, sigma, float(x), c) for x in points]
            else:
                wants = [ref.misspec_quantity(a, mu, float(x), p, c) for x in points]
        for (_, got), want in zip(rows, wants):
            close(got, want, tol + 1e-9 * (mu + sigma), f"{axis} sweep quantity")

    def _check_scan(self, req, out):
        grid = [float(x) for x in req["grid"]]
        a = req["alpha"]
        if req["kind"] == "price_scan":
            qs = [ref.misspec_quantity(a, req["mu"], req["sigma"], x, req["cost"]) for x in grid]
        else:
            qs = [ref.misspec_quantity(a, req["mu"], s, req["price"], req["cost"]) for s in grid]
        # turning points agree up to reference rounding in flat stretches
        tight, loose = ref.tail_turn(qs, 1e-12), ref.tail_turn(qs, 1e-9)
        allowed = {None if j is None else grid[j] for j in (tight, loose)}
        if tight is not None and loose is not None:
            allowed |= set(grid[min(tight, loose) : max(tight, loose) + 1])
        expect(out in allowed, f"scan turn {out!r}, reference {sorted(x for x in allowed if x)}")


# --------------------------------------------------------------------------
# certify
# --------------------------------------------------------------------------


class Certify:
    """Brute-force oracles checking the closed forms they certify."""

    name = "certify"

    def __init__(self, rn, seed: int, workdir: str):
        self.rn = rn
        self.seed = seed
        self.grid = np.linspace(0.0, inputs.CURVE_GRID_TOP, inputs.CURVE_GRID_POINTS)

    def requests(self, groups=None):
        return inputs.certify_requests(self.seed, groups)

    def warmup(self):
        return inputs.certify_warmup(self.seed)

    def execute(self, req):
        rn = self.rn
        kind = req["kind"]
        if kind == "oracle_check":
            return rn.oracle_check(seed=req["seed"], instances=8,
                                   grid_points=req["grid_points"], q_points=41)
        if kind == "dual_curve":
            pf = rn.PortfolioSpec(*_plan(rn, req), req["alpha"])
            sol = rn.solve_lambda(pf)
            lams = self._multipliers(req, sol.lambda_star)
            return sol, lams, rn.dual_objective_curve(lams, pf, self.grid)
        demand = rn.DiscreteDistribution.from_samples(req["support"])
        cs = rn.CostStructure(req["price"], req["cost"])
        sol = rn.wasserstein_misspec_solve(demand, rn.RadiusSpec(req["theta"], req["alpha"]), cs)
        grids = self._ball_grids(req, sol.gamma_star)
        values, _ = rn.oracle.wasserstein_dual_oracle(
            demand, req["theta"], req["alpha"], cs, *grids)
        return sol, grids, values

    def _multipliers(self, req, lam_star):
        # criterion-06 domain: the support grid carries the adversary only
        # for multipliers past p_max / (1.5 H)
        lam_lo = max(p for p, _, _ in req["products"]) / (1.5 * inputs.CURVE_GRID_TOP)
        top = 4.0 * lam_star if math.isfinite(lam_star) and lam_star > lam_lo else 4.0 * lam_lo
        lams = np.linspace(lam_lo, top, inputs.CURVE_MULTIPLIERS)
        if math.isfinite(lam_star):
            lams = np.sort(np.append(lams, lam_star))
        return lams

    @staticmethod
    def _ball_grids(req, gamma_star):
        q_star = ref.fractile(req["support"], (req["price"] - req["cost"]) / req["price"])
        gammas = np.append(np.linspace(0.0, req["alpha"] * (1.0 - 1e-3), 40), gamma_star)
        return gammas, np.linspace(0.0, q_star, 121), np.linspace(0.0, float(np.max(req["support"])), 241)

    def check(self, req, out):
        kind = req["kind"]
        if kind == "oracle_check":
            expect(out["passed"] is True and out["instances"] == 8, "oracle batch not passed")
        elif kind == "dual_curve":
            sol, lams, curve = out
            lam_lo = lams[0]
            if math.isfinite(sol.lambda_star) and sol.lambda_star >= lam_lo:
                at_star = float(curve[int(np.searchsorted(lams, sol.lambda_star))])
                expect(at_star >= float(curve.max()) - 0.05,
                       f"grid multiplier beats lambda* by {float(curve.max()) - at_star:.4f}",
                       OracleDisagreed)
        else:
            sol, (gammas, psis, us), values = out
            p = req["price"]
            tol = p * (psis[1] - psis[0]) + (p + 2.0 * gammas.max() * us[-1]) * (us[1] - us[0])
            expect(values[-1] >= values.max() - tol,
                   f"grid index beats gamma* by {values.max() - values[-1]:.3g} (tol {tol:.3g})",
                   OracleDisagreed)


WORKLOADS = {cls.name: cls for cls in (Catalog, Calibrate, Certify)}
