"""The package's exports: each module's ``__all__`` is the one list of the
names it exports, and the package re-exports them all, in a fixed order."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import robustnv

# the package's exports, in order, as they stood when the package still
# listed them itself
EXPORTS = [
    "CostStructure", "MomentSpec", "MisspecIndex", "as_misspec_index",
    "DiscreteDistribution", "TransformRegime", "TransformSpec", "Regime",
    "SolveReport", "profit", "ell", "fractile_factor", "nominal_quantity",
    "transform", "push_forward", "ambiguity_worst_case",
    "worst_case_transformed_expectation", "scarf_quantity", "misspec_quantity",
    "misspec_worst_case", "price_threshold_scan", "variance_threshold_scan",
    "ProductSpec", "PortfolioSpec", "DualCase", "DualSolution",
    "lambda_breakpoints", "theta", "solve_lambda", "product_quantities",
    "dual_objective", "dual_objective_curve",
    "ReferenceDistribution", "RadiusSpec", "WassersteinCase",
    "WassersteinSolution", "reference_beta", "wasserstein_misspec_solve",
    "wasserstein_ambiguity_quantity", "tv_misspec_quantity", "alpha_for_radius",
    "SampleSet", "GuaranteeReport", "empirical_moments",
    "gelbrich_sq", "moment_set_distance", "ot_quadratic_empirical", "epsilon_N",
    "guarantee", "cv_alpha", "stress_distribution", "formula_calibrate",
    "stress_calibrate",
    "Method", "DemandKind", "ExperimentConfig", "MethodCell", "ExperimentReport",
    "SweepSeries", "out_of_sample_profit", "sweep", "run_experiment",
    "draw_demand", "generate_demand", "write_demand_csv", "load_demand_csv",
    "default_alpha_grid", "oracle_check",
    "ModelError", "InputError", "DegenerateModelError", "InfeasibleError",
    "InternalCheckError",
    "__version__",
]

# the rest of dir(robustnv): module dunders and the submodules bound on import
NON_EXPORTS = [
    "__all__", "__builtins__", "__cached__", "__doc__", "__file__", "__loader__",
    "__name__", "__package__", "__path__", "__spec__",
    "_version", "calibration", "distances", "evaluation", "oracle", "portfolio",
    "single_product", "validation",
]


def _modules():
    return [
        importlib.import_module(f"robustnv.{info.name}")
        for info in pkgutil.iter_modules(robustnv.__path__)
    ]


def test_package_exports_keep_their_names_and_order():
    # a fresh interpreter: importing a submodule (robustnv.cli) adds it to dir
    src = os.path.dirname(os.path.dirname(robustnv.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import json, robustnv\n"
        "star = {}\n"
        "exec('from robustnv import *', star)\n"
        "print(json.dumps([robustnv.__all__, dir(robustnv), sorted(set(star) - {'__builtins__'}),\n"
        "                  all(star[n] is getattr(robustnv, n) for n in robustnv.__all__)]))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    exports, names, star, same = json.loads(out)
    assert exports == EXPORTS
    assert names == sorted(EXPORTS + NON_EXPORTS)
    assert star == sorted(EXPORTS) and same


def test_each_export_is_declared_in_exactly_one_module():
    declared = [name for module in _modules() for name in getattr(module, "__all__", ())]
    exports = [name for name in EXPORTS if name != "__version__"]
    assert sorted(declared) == sorted(set(declared))  # no name in two lists
    assert set(exports) <= set(declared)
    init = Path(robustnv.__file__).read_text()
    assert not [name for name in exports if f'"{name}"' in init]


def test_module_exports_resolve_and_the_file_helpers_stay_importable():
    for module in _modules():
        for name in getattr(module, "__all__", ()):
            assert getattr(module, name).__module__ == module.__name__, name
    from robustnv import evaluation

    helpers = ["demand_csv_text", "sweep_csv_text", "parse_sweep_csv", "sweep_json_text",
               "report_json_text", "report_csv_text", "solve_json_payload"]
    assert all(callable(getattr(evaluation, name)) for name in helpers)
    assert not set(helpers) & set(robustnv.__all__)
