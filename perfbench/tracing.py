"""Spans around robustnv's public functions, installed from the benchmark's side.

A traced run rebinds each public function listed in ``TRACED`` to a wrapper
in every robustnv module namespace that holds it (``robustnv``,
``robustnv.calibration``, ``robustnv.portfolio``, ...), so calls between the
library's own modules are recorded as well as the benchmark's.  Nothing under
``src/`` changes, and an untraced run installs nothing.

A span records its name, start, end, parent span and the request it belongs
to.  Spans live in flat arrays while the run lasts and are written out once
at the end.  A span's self time is its duration minus the durations of its
direct children (calls are nested and single-threaded, so children never
overlap).
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

# public functions that get spans, by module
TRACED = {
    "single_product": (
        "misspec_quantity", "scarf_quantity", "misspec_worst_case",
        "worst_case_transformed_expectation", "ell",
        "price_threshold_scan", "variance_threshold_scan",
    ),
    "distances": ("wasserstein_misspec_solve", "tv_misspec_quantity", "alpha_for_radius"),
    "portfolio": ("solve_lambda", "theta", "product_quantities", "dual_objective_curve"),
    "calibration": ("cv_alpha", "formula_calibrate", "stress_calibrate", "guarantee"),
    "evaluation": (
        "sweep", "run_experiment", "load_demand_csv", "out_of_sample_profit", "oracle_check",
    ),
    "oracle": ("wasserstein_dual_oracle",),
    "cli": ("main",),
}
# methods of MomentLawFamily get spans too (the class object is shared by reference)
TRACED_METHODS = ("__init__", "minimize_many")

MODULES = ("single_product", "distances", "portfolio", "calibration", "evaluation",
           "oracle", "cli", "validation")

# the index selectors, and all callers that read only ``.quantity`` from the
# solver reports they request
SELECTORS = ("calibration.cv_alpha", "calibration.formula_calibrate", "calibration.stress_calibrate")
QUANTITY_ONLY = SELECTORS + (
    "calibration.guarantee", "evaluation.sweep", "single_product.price_threshold_scan",
    "single_product.variance_threshold_scan", "distances.tv_misspec_quantity",
)


def _tag_of(name: str):
    """What a span remembers of its call beyond timing, for count metrics."""
    if name == "distances.wasserstein_misspec_solve":
        return lambda args, out: out.case.value
    if name == "portfolio.solve_lambda":
        return lambda args, out: len(args[0].products)
    if name == "oracle.MomentLawFamily.__init__":
        return lambda args, out: args[0].n_laws
    if name == "oracle.MomentLawFamily.minimize_many":
        return lambda args, out: args[0].n_laws * len(out[0])
    return None


class Spans:
    """In-memory span store with one wrapper per traced function."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("q")
        self.request = array("q")
        self.start = array("d")
        self.end = array("d")
        self.tags: dict[int, object] = {}
        self.stack: list[int] = []
        self.current_request = -1
        self._request = self.wrap("request", lambda fn, *args: fn(*args))

    def intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        nid = self.intern(name)
        tag = _tag_of(name)
        clock = time.perf_counter
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.request.append(self.current_request)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()
            if tag is not None:
                self.tags[i] = tag(args, out)
            return out

        return traced

    def call_request(self, index: int, fn, *args):
        """Run one request under a root span that its library spans hang under."""
        self.current_request = index
        return self._request(fn, *args)

    def install(self, rn) -> None:
        """Rebind every traced function in every robustnv namespace holding it."""
        namespaces = [rn] + [getattr(rn, m) for m in MODULES]
        for mod, names in TRACED.items():
            module = getattr(rn, mod)
            for attr in names:
                original = getattr(module, attr)
                wrapper = self.wrap(f"{mod}.{attr}", original)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, key, wrapper)
        family = rn.oracle.MomentLawFamily
        for attr in TRACED_METHODS:
            setattr(family, attr, self.wrap(f"oracle.MomentLawFamily.{attr}", getattr(family, attr)))

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            request=np.frombuffer(self.request, dtype=np.int64),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics from the recorded spans, as (value, unit)."""
        n = len(self.start)
        names = [self.names[k] for k in self.name_id]
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        calls, total, self_s = Counter(), defaultdict(float), defaultdict(float)
        for i, name in enumerate(names):
            calls[name] += 1
            total[name] += dur[i]
            self_s[name] += own[i]
        parent_name = [names[p] if p >= 0 else "" for p in parent]

        def us_per_call(name):
            return 1e6 * total[name] / calls[name] if calls[name] else 0.0

        def self_ms(*names_):
            return 1e3 * sum(self_s[x] for x in names_)

        def tagged(name):
            return [self.tags[i] for i, x in enumerate(names) if x == name and i in self.tags]

        solver_spans = [i for i, x in enumerate(names)
                        if x in ("single_product.misspec_quantity", "single_product.scarf_quantity")]
        quantity_only = sum(parent_name[i] in QUANTITY_ONLY for i in solver_spans)
        selections = sum(calls[x] for x in SELECTORS)
        selection_solves = sum(
            1 for i, x in enumerate(names)
            if x == "single_product.misspec_quantity" and parent_name[i] in SELECTORS
        )
        solves = calls["portfolio.solve_lambda"]
        theta_in_solves = sum(
            1 for i, x in enumerate(names)
            if x == "portfolio.theta" and parent_name[i] == "portfolio.solve_lambda"
        )
        cases = tagged("distances.wasserstein_misspec_solve")
        law_evals = sum(tagged("oracle.MomentLawFamily.minimize_many"))
        mm_self = self_s["oracle.MomentLawFamily.minimize_many"]
        return {
            "single_product.misspec_quantity.calls": (calls["single_product.misspec_quantity"], "count"),
            "single_product.misspec_quantity.us_per_call": (us_per_call("single_product.misspec_quantity"), "us"),
            "single_product.scarf_quantity.us_per_call": (us_per_call("single_product.scarf_quantity"), "us"),
            "single_product.misspec_worst_case.us_per_call": (us_per_call("single_product.misspec_worst_case"), "us"),
            "single_product.quantity_only_share": (quantity_only / len(solver_spans) if solver_spans else 0.0, "share"),
            "single_product.scan.self_ms": (self_ms("single_product.price_threshold_scan",
                                                   "single_product.variance_threshold_scan"), "ms"),
            "single_product.ell.calls": (calls["single_product.ell"], "count"),
            "single_product.ell.self_ms": (self_ms("single_product.ell"), "ms"),
            "distances.wasserstein_misspec_solve.us_per_call": (us_per_call("distances.wasserstein_misspec_solve"), "us"),
            "distances.implicit_root_share": (cases.count("IMPLICIT_ROOT") / len(cases) if cases else 0.0, "share"),
            "distances.tv_misspec_quantity.us_per_call": (us_per_call("distances.tv_misspec_quantity"), "us"),
            "portfolio.solve_lambda.us_per_product": ((
                1e6 * total["portfolio.solve_lambda"] / sum(tagged("portfolio.solve_lambda"))
                if solves else 0.0), "us"),
            "portfolio.theta.calls_per_solve": (theta_in_solves / solves if solves else 0.0, "count"),
            "portfolio.dual_objective_curve.self_ms": (self_ms("portfolio.dual_objective_curve"), "ms"),
            "calibration.cv_alpha.self_ms": (self_ms("calibration.cv_alpha"), "ms"),
            "calibration.formula_calibrate.self_ms": (self_ms("calibration.formula_calibrate"), "ms"),
            "calibration.stress_calibrate.self_ms": (self_ms("calibration.stress_calibrate"), "ms"),
            "calibration.solves_per_selection": (selection_solves / selections if selections else 0.0, "count"),
            "evaluation.run_experiment.self_ms": (self_ms("evaluation.run_experiment"), "ms"),
            "evaluation.sweep.self_ms": (self_ms("evaluation.sweep"), "ms"),
            "evaluation.load_demand_csv.self_ms": (self_ms("evaluation.load_demand_csv"), "ms"),
            "evaluation.oracle_check.self_ms": (self_ms("evaluation.oracle_check"), "ms"),
            "oracle.MomentLawFamily.build_ms": (1e3 * total["oracle.MomentLawFamily.__init__"], "ms"),
            "oracle.MomentLawFamily.n_laws": (sum(tagged("oracle.MomentLawFamily.__init__")), "count"),
            "oracle.minimize_many.self_ms": (1e3 * mm_self, "ms"),
            "oracle.minimize_many.law_evals_per_s": (law_evals / mm_self if mm_self else 0.0, "1/s"),
            "oracle.wasserstein_dual_oracle.self_ms": (self_ms("oracle.wasserstein_dual_oracle"), "ms"),
            "cli.main.calls": (calls["cli.main"], "count"),
            "cli.main.self_ms": (self_ms("cli.main"), "ms"),
        }

