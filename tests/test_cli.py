"""Command-line interface: subcommands, formats, exit codes, determinism."""

import json

import pytest

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
    ],
    ids=["missing-train-file", "out-into-missing-directory", "alpha-axis-min-zero"],
)
def test_bad_files_and_axis_bounds_exit_2(argv, tmp_path, capsys):
    code, out, err = run([a.replace("{tmp}", str(tmp_path)) for a in argv], capsys)
    assert code == 2 and out == ""
    assert err.startswith("robustnv: input error:") and len(err.splitlines()) == 1
    assert "Traceback" not in err
