"""Command-line interface: subcommands, formats, exit codes, determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import robustnv
from robustnv import InternalCheckError, load_demand_csv, write_demand_csv
from robustnv.cli import main

SOLVE = ["solve", "--price", "10", "--cost", "3", "--mu", "4", "--sigma", "2"]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_canonical_instance(capsys):
    code, out, err = run(SOLVE + ["--alpha", "4"], capsys)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["quantity"] == pytest.approx(4.247872)
    assert doc["value"] == pytest.approx(14.459849)
    assert doc["regime"] == "HIGH_ALPHA"
    assert doc["alpha"] == 4.0
    assert doc["duals"]["r_alpha"] == pytest.approx(1.145644)
    assert doc["worst_case"]["weights"] == [0.7, 0.3]


def test_solve_infinite_index(capsys):
    code, out, _ = run(SOLVE + ["--alpha", "inf"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["alpha"] == "inf"
    assert doc["quantity"] == pytest.approx(4.872872)
    assert doc["value"] == pytest.approx(18.834849)
    assert doc["regime"] == "AMBIGUITY_ONLY"


def test_solve_degenerate_is_a_successful_answer(capsys):
    code, out, _ = run(
        ["solve", "--price", "10", "--cost", "9", "--mu", "4", "--sigma", "2",
         "--alpha", "4"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["regime"] == "DEGENERATE"
    assert doc["quantity"] == 0.0


def test_solve_csv_twin(capsys):
    code, out, _ = run(["--format", "csv"] + SOLVE + ["--alpha", "4"], capsys)
    assert code == 0
    head, row = out.strip().splitlines()
    fields = dict(zip(head.split(","), row.split(",")))
    assert float(fields["quantity"]) == pytest.approx(4.247872)
    assert fields["regime"] == "HIGH_ALPHA"


def test_bad_cost_structure_exits_2(capsys):
    code, out, err = run(
        ["solve", "--price", "3", "--cost", "10", "--mu", "4", "--sigma", "2",
         "--alpha", "4"],
        capsys,
    )
    assert code == 2 and out == ""
    assert "input error" in err


def test_generate_writes_loadable_csv(tmp_path, capsys):
    path = str(tmp_path / "demand.csv")
    code, out, _ = run(
        ["--seed", "3", "--out", path, "generate", "--kind", "trunc-normal",
         "--n", "30", "--mu", "6", "--sigma", "2"],
        capsys,
    )
    assert code == 0 and out == ""
    samples = load_demand_csv(path)
    assert samples.n == 30
    # same seed, same bytes; different seed, different draws
    twin = str(tmp_path / "twin.csv")
    run(["--seed", "3", "--out", twin, "generate", "--kind", "trunc-normal",
         "--n", "30", "--mu", "6", "--sigma", "2"], capsys)
    assert open(path).read() == open(twin).read()
    other = str(tmp_path / "other.csv")
    run(["--seed", "4", "--out", other, "generate", "--kind", "trunc-normal",
         "--n", "30", "--mu", "6", "--sigma", "2"], capsys)
    assert open(path).read() != open(other).read()


def test_generate_single_row(capsys):
    code, out, _ = run(
        ["generate", "--kind", "lognormal", "--n", "1", "--mu", "1.0",
         "--sigma", "0.4"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "date,demand" and len(lines) == 2
    assert lines[1].startswith("2020-01-01,")


def test_generate_regime_shift_needs_second_regime(capsys):
    code, _, err = run(
        ["generate", "--kind", "regime-shift", "--n", "10", "--mu", "6",
         "--sigma", "2"],
        capsys,
    )
    assert code == 2 and "mu2" in err


def demand_file(tmp_path, name, values):
    path = str(tmp_path / name)
    write_demand_csv(path, values)
    return path


def test_calibrate_cv_picks_from_grid(tmp_path, capsys):
    train = demand_file(tmp_path, "train.csv", (3.0, 5.0, 4.0, 7.0, 6.0, 5.5, 4.5, 6.5))
    code, out, _ = run(
        ["calibrate", "--method", "cv", "--price", "10", "--cost", "3",
         "--train", train, "--alpha-grid", "0.5,2,8", "--folds", "4"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "cv"
    assert doc["alpha"] in (0.5, 2.0, 8.0)


def test_calibrate_formula_requires_test(tmp_path, capsys):
    train = demand_file(tmp_path, "train.csv", (3.0, 5.0, 4.0, 7.0, 6.0))
    code, _, err = run(
        ["calibrate", "--method", "formula", "--price", "10", "--cost", "3",
         "--train", train],
        capsys,
    )
    assert code == 2 and "--test" in err


def test_calibrate_stress_runs(tmp_path, capsys):
    train = demand_file(tmp_path, "train.csv", (3.0, 5.0, 4.0, 7.0, 6.0, 5.5))
    test = demand_file(tmp_path, "test.csv", (2.5, 4.0, 3.5, 5.0, 4.5, 4.2))
    code, out, _ = run(
        ["--seed", "11", "calibrate", "--method", "stress", "--price", "10",
         "--cost", "3", "--train", train, "--test", test,
         "--alpha-grid", "0.5,2,8"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["alpha"] in (0.5, 2.0, 8.0)


def test_constant_demand_exits_3(tmp_path, capsys):
    train = demand_file(tmp_path, "flat.csv", (5.0, 5.0, 5.0, 5.0))
    code, _, err = run(
        ["calibrate", "--method", "cv", "--price", "10", "--cost", "3",
         "--train", train],
        capsys,
    )
    assert code == 3 and "degenerate" in err


def test_evaluate_mean_profit(tmp_path, capsys):
    test = demand_file(tmp_path, "test.csv", (1.0, 3.0))
    code, out, _ = run(
        ["evaluate", "--price", "10", "--cost", "3", "--quantity", "2",
         "--test", test],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["out_of_sample_profit"] == pytest.approx(9.0)
    assert doc["n_test"] == 2


def test_experiment_bytes_are_deterministic(tmp_path, capsys):
    train = demand_file(tmp_path, "train.csv", tuple(3.0 + 0.37 * k for k in range(20)))
    test = demand_file(tmp_path, "test.csv", tuple(2.5 + 0.41 * k for k in range(15)))
    argv_tail = [
        "experiment", "--price", "10", "--cost", "3", "--train", train,
        "--test", test, "--alpha-grid", "0.5,2", "--methods", "NOMINAL,MISSPEC",
    ]
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert run(["--seed", "7", "--out", a] + argv_tail, capsys)[0] == 0
    assert run(["--seed", "7", "--out", b] + argv_tail, capsys)[0] == 0
    blob_a, blob_b = open(a, "rb").read(), open(b, "rb").read()
    assert blob_a == blob_b
    doc = json.loads(blob_a)
    assert doc["meta"]["seed"] == 7
    assert doc["reserved_methods"] == ["DELAGE_YE"]
    assert len(doc["cells"]) == 4


def test_sweep_csv_format(capsys):
    code, out, _ = run(
        ["--format", "csv", "sweep", "--price", "10", "--cost", "3",
         "--axis", "alpha", "--mu", "4", "--sigma", "2",
         "--alpha-grid", "1,4"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "axis,value,quantity,in_sample,out_of_sample"
    assert len(lines) == 3 and all(l.startswith("alpha,") for l in lines[1:])


def test_sweep_axis_range_flags(capsys):
    code, out, _ = run(
        ["sweep", "--price", "10", "--cost", "3", "--axis", "sigma",
         "--mu", "4", "--sigma", "2", "--alpha", "1.5",
         "--min", "0.5", "--max", "2.5", "--count", "5"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["axis"] == "sigma" and len(doc["points"]) == 5
    code, _, err = run(
        ["sweep", "--price", "10", "--cost", "3", "--axis", "sigma",
         "--mu", "4", "--sigma", "2", "--alpha", "1.5", "--min", "0.5"],
        capsys,
    )
    assert code == 2 and "--max" in err


def test_sweep_needs_train_or_moments(capsys):
    code, _, err = run(
        ["sweep", "--price", "10", "--cost", "3", "--axis", "alpha"],
        capsys,
    )
    assert code == 2 and "--train" in err


def test_oracle_check_subcommand(capsys):
    code, out, _ = run(
        ["--seed", "5", "oracle-check", "--instances", "3",
         "--grid-points", "81", "--q-points", "41"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True and doc["instances"] == 3


def test_internal_failure_exits_4(monkeypatch, capsys):
    def boom(**kwargs):
        raise InternalCheckError("forced")

    monkeypatch.setattr("robustnv.cli.oracle_check", boom)
    code, _, err = run(["oracle-check", "--instances", "2"], capsys)
    assert code == 4 and "internal validation failure" in err


def test_unknown_arguments_exit_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--frobnicate"])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("robustnv ")


@pytest.mark.parametrize(
    "argv",
    [
        ["calibrate", "--method", "cv", "--price", "10", "--cost", "3",
         "--train", "{tmp}/missing.csv"],
        ["--out", "{tmp}/no-such-dir/out.json"] + SOLVE + ["--alpha", "4"],
        ["sweep", "--price", "10", "--cost", "3", "--axis", "alpha",
         "--mu", "4", "--sigma", "2", "--min", "0", "--max", "5"],
        # mu^2 + sigma^2 overflows: a non-finite second moment is bad input
        ["solve", "--price", "4", "--cost", "0.5", "--mu", "1e308", "--sigma", "2",
         "--alpha", "4"],
        ["solve", "--price", "4", "--cost", "0.5", "--mu", "1e160", "--sigma", "2",
         "--alpha", "4"],
    ],
    ids=["missing-train-file", "out-into-missing-directory", "alpha-axis-min-zero",
         "mu-1e308", "mu-1e160"],
)
def test_bad_files_and_axis_bounds_exit_2(argv, tmp_path, capsys):
    code, out, err = run([a.replace("{tmp}", str(tmp_path)) for a in argv], capsys)
    assert code == 2 and out == ""
    assert err.startswith("robustnv: input error:") and len(err.splitlines()) == 1
    assert "Traceback" not in err


# stdout bytes of `solve` at a finite and the infinite index, at zero variance
# and past the degeneracy gate; frozen, so the one solve path keeps them
SOLVE_GOLDENS = [
    (
        SOLVE + ["--alpha", "4"],
        '{"alpha":4.0,"duals":{"r_alpha":1.145644,"s_alpha":16.165151,"t_alpha":27.287878},'
        '"quantity":4.247872,"regime":"HIGH_ALPHA","value":14.459849,'
        '"worst_case":{"support":[2.690693,7.05505],"weights":[0.7,0.3]}}\n',
    ),
    (
        ["--format", "csv"] + SOLVE + ["--alpha", "4"],
        "alpha,duals.r_alpha,duals.s_alpha,duals.t_alpha,quantity,regime,value,"
        "worst_case.support,worst_case.weights\n"
        "4.0,1.145644,16.165151,27.287878,4.247872,HIGH_ALPHA,14.459849,"
        "2.690693;7.05505,0.7;0.3\n",
    ),
    (
        SOLVE + ["--alpha", "inf"],
        '{"alpha":"inf","duals":{"r_alpha":1.145644,"s_alpha":16.165151,"t_alpha":22.912878},'
        '"quantity":4.872872,"regime":"AMBIGUITY_ONLY","value":18.834849,'
        '"worst_case":{"support":[2.690693,7.05505],"weights":[0.7,0.3]}}\n',
    ),
    (
        ["--format", "csv"] + SOLVE + ["--alpha", "inf"],
        "alpha,duals.r_alpha,duals.s_alpha,duals.t_alpha,quantity,regime,value,"
        "worst_case.support,worst_case.weights\n"
        "inf,1.145644,16.165151,22.912878,4.872872,AMBIGUITY_ONLY,18.834849,"
        "2.690693;7.05505,0.7;0.3\n",
    ),
    (
        ["solve", "--price", "10", "--cost", "3", "--mu", "4", "--sigma", "0",
         "--alpha", "inf"],
        '{"alpha":"inf","duals":{},"quantity":4.0,"regime":"AMBIGUITY_ONLY","value":28.0,'
        '"worst_case":{"support":[4.0],"weights":[1.0]}}\n',
    ),
    (
        ["solve", "--price", "10", "--cost", "9", "--mu", "1", "--sigma", "3",
         "--alpha", "inf"],
        '{"alpha":"inf","duals":{"r_alpha":0.0,"s_alpha":0.0,"t_alpha":0.0},'
        '"quantity":0.0,"regime":"DEGENERATE","value":0.0,'
        '"worst_case":{"support":[0.0,10.0],"weights":[0.9,0.1]}}\n',
    ),
]


@pytest.mark.parametrize(
    "argv, expected",
    SOLVE_GOLDENS,
    ids=["a4-json", "a4-csv", "inf-json", "inf-csv", "inf-sigma0", "inf-degenerate"],
)
def test_solve_output_bytes_are_frozen(argv, expected, capsys):
    code, out, err = run(argv, capsys)
    assert code == 0 and err == ""
    assert out == expected


# the argv fuzz draws each flag value from its valid pool, or with probability
# 0.15 from the bad values: non-finite, negative, zero, huge (1e160 overflows a
# square), malformed, empty
FUZZ_BAD = ["0", "-1", "nan", "inf", "-inf", "1e308", "1e160", "5e-324", "abc", ""]
FUZZ_BAD_GRIDS = ["", ",", "nan", "1,nan", "-1,2", "0", "0,0", "4,x", "inf,-inf"]


def _fuzz_argv(rng, files):
    """One argv: a subcommand with randomly valid or invalid flag values,
    sometimes missing a flag or carrying an unknown one."""

    def flag(name, valid, bad=FUZZ_BAD):
        pool = bad if rng.uniform() < 0.15 else valid
        return [name, pool[int(rng.integers(len(pool)))]]

    def grid(name, valid):
        return flag(name, valid, FUZZ_BAD_GRIDS)

    good_files, bad_files = files[:2], files[2:]
    cost = flag("--price", ["10", "12.5", "4"]) + flag("--cost", ["3", "2", "0.5"])
    train = flag("--train", good_files, bad_files)
    test = flag("--test", good_files, bad_files)
    moments = flag("--mu", ["4", "9", "0.2"]) + flag("--sigma", ["2", "0.5", "0"])
    alpha = flag("--alpha", ["4", "0.5", "inf", "1e9", "0"])
    command = ["solve", "sweep", "calibrate", "evaluate", "experiment", "oracle-check",
               "generate"][int(rng.integers(7))]
    if command == "solve":
        body = cost + moments + alpha
    elif command == "sweep":
        body = cost + flag("--axis", ["alpha", "price", "sigma"], ["beta"])
        body += train if rng.uniform() < 0.5 else moments
        body += test if rng.uniform() < 0.5 else []
        body += alpha + grid("--alpha-grid", ["0.5,2,8", "inf", "1,inf"])
        if rng.uniform() < 0.6:
            body += flag("--min", ["0.5", "3", "11"]) + flag("--max", ["12", "30"])
            body += flag("--count", ["1", "3", "7"], ["0", "-2", "x"])
    elif command == "calibrate":
        body = flag("--method", ["cv", "formula", "stress"], ["magic"]) + cost + train
        body += test if rng.uniform() < 0.8 else []
        body += grid("--alpha-grid", ["0.5,2,8", "inf", "1,inf"])
        body += grid("--eps-grid", ["0.01,0.1", "0", "0.5"])
        body += flag("--folds", ["2", "3"], ["1", "0", "-2", "20", "x"])
    elif command == "evaluate":
        body = cost + flag("--quantity", ["0", "4", "7.5"]) + test
    elif command == "experiment":
        body = cost + train + (test if rng.uniform() < 0.6 else [])
        body += grid("--alpha-grid", ["0.5,2", "inf", "1,inf"])
        body += grid("--eps-grid", ["0.01,0.1", "0.5"])
        body += flag("--theta", ["0", "1.5"]) + flag("--folds", ["2", "3"], ["1", "0", "x"])
        body += flag("--methods", ["misspec", "tv,nominal", "ambiguity,wasserstein"],
                     ["bogus", ""])
    elif command == "oracle-check":
        body = flag("--instances", ["1", "2"], ["0", "-1", "x"])
        body += flag("--grid-points", ["20", "30"], ["19", "401", "-5"])
        body += flag("--q-points", ["10", "12"], ["9", "0"])
    else:
        body = flag("--kind", ["trunc-normal", "lognormal", "regime-shift"], ["poisson"])
        body += flag("--n", ["1", "5", "40"], ["0", "-3", "x"]) + moments
        for name in ("--mu2", "--sigma2", "--split"):
            if rng.uniform() < 0.5:
                body += flag(name, ["3", "0.5"])
    if rng.uniform() < 0.1:  # drop one flag and its value
        k = 2 * int(rng.integers(len(body) // 2))
        body = body[:k] + body[k + 2:]
    if rng.uniform() < 0.05:
        body += ["--frobnicate"]
    head = flag("--seed", ["0", "7"], ["-1", "x"]) + flag("--format", ["json", "csv"], ["xml"])
    if rng.uniform() < 0.1:
        head += ["--out", files[-1] + "/no-such-dir/out.json"]
    return head + [command] + body


def test_fuzzed_argvs_exit_with_documented_codes_and_no_traceback(tmp_path, capsys):
    rng = np.random.default_rng(2024)
    good = [demand_file(tmp_path, f"d{k}.csv", tuple(float(v) for v in rng.gamma(4.0, 2.0, 12)))
            for k in range(2)]
    constant = demand_file(tmp_path, "constant.csv", (5.0,) * 6)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    bad = tmp_path / "bad.csv"
    bad.write_text("date,demand\n2020-01-01,-4\n2020-01-02,nan\nnot,a,row\n")
    files = good + [constant, str(empty), str(bad), str(tmp_path / "missing.csv"),
                    str(tmp_path)]
    codes = []
    for _ in range(300):
        argv = _fuzz_argv(rng, files)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors and --version
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), argv
        assert "Traceback" not in err, argv
        codes.append(code)
    assert {0, 2, 3} <= set(codes), codes


def test_import_does_not_load_scipy_stats():
    # scipy.stats is most of the start-up time; only `generate` needs it
    src = os.path.dirname(os.path.dirname(robustnv.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, robustnv, robustnv.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "False\n"
