"""Self-checks of the benchmark itself (not part of robustnv's test suite).

    python3 -m pytest perfbench/test_selfcheck.py

Run from the root of a checkout.  Two traced runs on one seed must give the
same exact-count metrics, two timed runs on one seed must attempt and fail
the same requests, a second seed must change the generated inputs, and the
CLI's exit codes must count as the library exceptions they stand for.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

EXACT = (
    "portfolio.theta.calls_per_solve",
    "oracle.MomentLawFamily.n_laws",
    "single_product.misspec_quantity.calls",
    "distances.implicit_root_share",
    "calibration.solves_per_selection",
    "failed_share",
)


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traced_metrics(workload: str, seed: int) -> dict:
    return {name: m["value"] for name, m in run(workload, seed, 1)["metrics"].items()}


# metrics each workload must exercise, so that the repeat check means something
COVERED = {
    "catalog": ("portfolio.theta.calls_per_solve", "distances.implicit_root_share",
                "single_product.misspec_quantity.calls", "failed_share"),
    "calibrate": ("calibration.solves_per_selection", "single_product.misspec_quantity.calls"),
    "certify": ("oracle.MomentLawFamily.n_laws",),
}


@pytest.mark.parametrize("workload", sorted(COVERED))
def test_exact_counts_repeat_on_one_seed(workload):
    first, second = traced_metrics(workload, 7), traced_metrics(workload, 7)
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}
    assert all(first[k] > 0 for k in COVERED[workload])


@pytest.mark.parametrize("workload", ["catalog", "calibrate"])
def test_timed_runs_repeat_their_outcome_on_one_seed(workload):
    keys = ("correct", "attempted", "failed")
    first, second = run(workload, 7, 0), run(workload, 7, 0)
    assert {k: first[k] for k in keys} == {k: second[k] for k in keys}


def _fingerprint(requests, n: int) -> str:
    head = list(itertools.islice(requests, n))
    return json.dumps(head, default=lambda x: np.asarray(x).tolist(), sort_keys=True)


@pytest.mark.parametrize("make", [
    lambda s: inputs.catalog_requests(s),
    lambda s: inputs.calibrate_requests(s, inputs.demand_pool(s)),
    lambda s: inputs.certify_requests(s),
])
def test_seed_determines_inputs(make):
    assert _fingerprint(make(1), 50) == _fingerprint(make(1), 50)
    assert _fingerprint(make(1), 50) != _fingerprint(make(2), 50)


def test_seed_determines_demand_files():
    assert inputs.demand_pool(1) == inputs.demand_pool(1)
    assert inputs.demand_pool(1) != inputs.demand_pool(2)


@pytest.mark.parametrize("code, name", [
    (2, "input_error"), (3, "degenerate_model_error"), (4, "internal_check_error"),
    (1, "check_failed"),
])
def test_cli_exit_codes_count_as_their_exceptions(tmp_path, code, name):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import robustnv
    import worker
    import workloads

    cal = workloads.Calibrate(robustnv, 1, str(tmp_path))
    req = {"kind": "evaluate", "pair": 0}
    with pytest.raises(BaseException) as info:
        cal.check(req, code)
    assert worker._failure_class(info.value, robustnv) == name
