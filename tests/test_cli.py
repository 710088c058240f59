import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import figp
import figp.cli
import figp.kernels
from figp import Domain, FieldDataset, build_grid, l2_inner, loocv_error
from figp import sample_function
from figp.reproduce import TRAINING_EXPRESSIONS, evaluate_functional
from figp.cli import cli_dispatch
from figp.storage import (_payload_sha256, load_model, save_field_dataset,
                          save_training_data)


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture()
def train_file(workdir):
    grid = build_grid(Domain(((0.0, 1.0), (0.0, 1.0))), 12)
    exprs = ("1", "x1", "x2", "x1*x2", "1+x1^2", "sin(x1)")
    inputs = [sample_function(e, grid) for e in exprs]
    one = sample_function("1", grid)
    y = np.array([l2_inner(g, one) for g in inputs])
    path = workdir / "train.json"
    save_training_data(str(path), grid, inputs, y)
    return path


def test_no_subcommand_prints_usage(capsys):
    assert cli_dispatch([]) == 2
    assert "usage" in capsys.readouterr().err


def test_emulate_without_subcommand(capsys):
    assert cli_dispatch(["emulate"]) == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli_dispatch(["frobnicate"])
    assert exc.value.code == 2


def test_bad_reproduce_target_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli_dispatch(["reproduce", "table9"])
    assert exc.value.code == 2


def test_fit_predict_loocv_flow(workdir, train_file, capsys):
    rc = cli_dispatch(["fit", "--train", str(train_file),
                       "--family", "linear", "--multistarts", "2",
                       "--out", "model.json", "--json"])
    assert rc == 0
    fit_report = json.loads(capsys.readouterr().out)
    assert fit_report["family"] == "linear"
    assert (workdir / "model.json").exists()

    rc = cli_dispatch(["predict", "--model", "model.json",
                       "--input", "1+0.5*x1", "--input", "x1*x2", "--json"])
    assert rc == 0
    pred_report = json.loads(capsys.readouterr().out)
    assert len(pred_report["predictions"]) == 2
    row = pred_report["predictions"][0]
    assert row["input"] == "1+0.5*x1"
    assert row["variance"] >= 0.0

    rc = cli_dispatch(["loocv", "--model", "model.json", "--json"])
    assert rc == 0
    loocv_report = json.loads(capsys.readouterr().out)
    model = load_model(str(workdir / "model.json"))
    assert loocv_report["loocv"] == pytest.approx(loocv_error(model),
                                                 rel=1e-12)
    assert loocv_report["n"] == 6


def test_model_saved_under_two_blas_threads_loads_under_one(workdir):
    # table2's f1 training set: its linear Gram (condition number 7.7e8)
    # has different bytes when built with one or with two BLAS threads
    grid = build_grid(Domain(((0.0, 1.0), (0.0, 1.0))), 20)
    inputs = [sample_function(e, grid) for e in TRAINING_EXPRESSIONS]
    save_training_data("train.json", grid, inputs,
                       [evaluate_functional("f1", g) for g in inputs])
    src = os.path.dirname(os.path.dirname(figp.__file__))

    def figp_cli(threads, *args):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join(
                       p for p in (src, os.environ.get("PYTHONPATH")) if p))
        return subprocess.run([sys.executable, "-m", "figp", *args],
                              capture_output=True, text=True, env=env)

    fitted = figp_cli(2, "fit", "--train", "train.json", "--family",
                      "linear", "--out", "model.json")
    assert fitted.returncode == 0, fitted.stderr
    predicted = figp_cli(1, "predict", "--model", "model.json",
                         "--input", "1+x1", "--json")
    assert predicted.returncode == 0, predicted.stderr
    row = json.loads(predicted.stdout)["predictions"][0]
    assert row["mean"] == pytest.approx(1.5, rel=1e-4)


def test_predict_without_inputs_errors(workdir, train_file, capsys):
    assert cli_dispatch(["fit", "--train", str(train_file),
                         "--family", "linear", "--multistarts", "2",
                         "--out", "model.json"]) == 0
    capsys.readouterr()
    rc = cli_dispatch(["predict", "--model", "model.json"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "error: predict:" in captured.err


def test_missing_model_file_errors(workdir, capsys):
    rc = cli_dispatch(["predict", "--model", "absent.json", "--input", "x1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "error: predict:" in captured.err


def test_malformed_model_files_error_without_a_traceback(workdir, train_file,
                                                        capsys):
    (workdir / "bad.json").write_text("not json {\n")
    assert cli_dispatch(["fit", "--train", str(train_file),
                         "--family", "linear", "--out", "model.json"]) == 0
    blob = json.loads((workdir / "model.json").read_text())
    del blob["kernel"]
    blob["payload_sha256"] = _payload_sha256(blob)
    (workdir / "edited.json").write_text(json.dumps(blob))
    capsys.readouterr()
    for path, cause in (("bad.json", "'bad.json' is not a JSON file"),
                        ("edited.json", "model is missing 'kernel'")):
        rc = cli_dispatch(["predict", "--model", path, "--input", "x1"])
        assert rc == 1
        assert f"error: predict: {cause}" in capsys.readouterr().err


@pytest.mark.parametrize("key,cause", [
    ("y", "model 'y' is not a list of numbers"),
    ("mu_hat", "model 'mu_hat' is not a number"),
    ("log_likelihood", "model 'log_likelihood' is not a number")],
    ids=["y", "mu_hat", "log_likelihood"])
def test_non_numeric_version_2_model_values_error_without_a_traceback(
        workdir, train_file, capsys, key, cause):
    assert cli_dispatch(["fit", "--train", str(train_file),
                         "--family", "linear", "--out", "model.json"]) == 0
    blob = json.loads((workdir / "model.json").read_text())
    if key == "y":
        blob["y"][0] = "abc"
    else:
        blob[key] = "abc"
    blob["payload_sha256"] = _payload_sha256(blob)
    (workdir / "edited.json").write_text(json.dumps(blob))
    capsys.readouterr()
    rc = cli_dispatch(["predict", "--model", "edited.json", "--input", "x1"])
    assert rc == 1
    assert f"error: predict: {cause}" in capsys.readouterr().err


def _one_error_line(argv, capsys, stage, cause):
    """Run the CLI: it exits 1 with a single `error: <stage>:` line that
    holds `cause` (an uncaught exception would fail the test)."""
    rc = cli_dispatch(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and err.startswith(f"error: {stage}: "), err
    assert cause in err


_TRAINING = {"domain": [[0.0, 1.0]], "resolution": 8,
             "inputs": ["x1", "1+x1", "x1^2"], "y": [0.5, 1.5, 0.25]}


@pytest.mark.parametrize("key,value,cause", [
    ("y", [[1], [2], [3]], "'y' is not a list of numbers"),
    ("y", ["a", 1, 2], "'y' is not a list of numbers"),
    ("y", [1, 2, True], "'y' is not a list of numbers"),
    ("inputs", "x1", "'inputs' is not a list"),
    ("domain", 5, "'domain' is not a list of [lower, upper] number pairs"),
    ("domain", [[0, "a"]],
     "'domain' is not a list of [lower, upper] number pairs")],
    ids=["y-nested", "y-string", "y-bool", "inputs-string", "domain-number",
         "domain-string-bound"])
@pytest.mark.parametrize("command", [["fit", "--family", "linear"],
                                     ["select-kernel"]],
                         ids=["fit", "select-kernel"])
def test_malformed_training_files_error_without_a_traceback(
        workdir, capsys, command, key, value, cause):
    (workdir / "train.json").write_text(json.dumps(dict(_TRAINING,
                                                        **{key: value})))
    _one_error_line(command + ["--train", "train.json"], capsys, command[0],
                    f"training data 'train.json' {cause}")


def test_a_non_numeric_input_csv_cell_names_the_file_and_row(workdir, capsys):
    grid = build_grid(Domain(((0.0, 1.0),)), 8)
    rows = [f"{x!r},{x * x!r}" for x in grid.nodes[:, 0].tolist()]
    rows[2] = rows[2].split(",")[0] + ",abc"
    (workdir / "case.csv").write_text("\n".join(["x1,value"] + rows) + "\n")
    (workdir / "train.json").write_text(json.dumps(
        dict(_TRAINING, inputs=["x1", "1+x1", "case.csv"])))
    _one_error_line(["fit", "--family", "linear", "--train", "train.json"],
                    capsys, "fit", "'case.csv' line 4: could not convert "
                                   "string to float: 'abc'")


def test_a_non_numeric_field_csv_cell_names_the_file_and_line(workdir,
                                                             capsys):
    (workdir / "manifest.json").write_text(json.dumps(
        {"domain": [[0.0, 1.0]], "resolution": 8, "field_shape": [2]}))
    (workdir / "fields.csv").write_text(
        "input,v1,v2\nx1,0.5,1.0\n1+x1,abc,2.0\nx1^2,0.25,0.5\n")
    _one_error_line(["emulate", "fit", "--fields", "fields.csv",
                     "--manifest", "manifest.json"], capsys, "emulate fit",
                    "'fields.csv' line 3: could not convert string to "
                    "float: 'abc'")


def test_a_non_integer_resolution_names_the_file_and_the_value(workdir,
                                                               capsys):
    (workdir / "train.json").write_text(json.dumps(
        dict(_TRAINING, resolution="abc")))
    _one_error_line(["fit", "--family", "linear", "--train", "train.json"],
                    capsys, "fit", "training data 'train.json': resolution "
                    "must be an integer of at least 2 points per dimension, "
                    "got 'abc'")


def _field_files(workdir, field_shape, fields_text):
    (workdir / "manifest.json").write_text(json.dumps(
        {"domain": [[0.0, 1.0]], "resolution": 8,
         "field_shape": field_shape}))
    (workdir / "fields.csv").write_text(fields_text)
    return ["emulate", "fit", "--fields", "fields.csv",
            "--manifest", "manifest.json"]


def test_a_field_shape_that_is_not_integers_names_the_manifest(workdir,
                                                              capsys):
    argv = _field_files(workdir, "ab",
                        "input,v1,v2\nx1,0.5,1.0\n1+x1,1.5,2.0\n")
    _one_error_line(argv, capsys, "emulate fit",
                    "manifest 'manifest.json' 'field_shape' is not a list "
                    "of positive integers")


def test_a_ragged_fields_csv_names_the_file_and_the_line(workdir, capsys):
    argv = _field_files(workdir, [2], "input,v1,v2\nx1,0.5,1.0\n"
                                      "1+x1,1.5\nx1^2,0.25,0.5\n")
    _one_error_line(argv, capsys, "emulate fit",
                    "'fields.csv' line 3: expected 2 field values as on the "
                    "first row, got 1")


def _refused_usage(argv, capsys, command, flag, cause):
    """Run the CLI: argparse refuses `flag` with exit 2, a usage line and
    an error that holds `cause`."""
    with pytest.raises(SystemExit) as exc:
        cli_dispatch(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: figp {command}"), err
    assert f"figp {command}: error: argument {flag}: " in err, err
    assert cause in err, err


@pytest.mark.parametrize("argv,flag,cause", [
    (["--sizes", "a,b"], "--sizes", "positive integers, got 'a,b'"),
    (["--sizes="], "--sizes", "positive integers, got ''"),
    (["--method", "mc", "--replicates", "0"], "--replicates",
     "at least 2, got '0'"),
    (["--method", "mc", "--replicates", "1"], "--replicates",
     "at least 2, got '1'")],
    ids=["sizes-letters", "sizes-empty", "replicates-0", "replicates-1"])
def test_mspe_decay_rejects_bad_counts_naming_the_flag(workdir, capsys, argv,
                                                       flag, cause):
    _refused_usage(["mspe-decay", "--out", "curve.csv"] + argv, capsys,
                   "mspe-decay", flag, cause)
    assert not (workdir / "curve.csv").exists()


@pytest.mark.parametrize("argv", [
    ["sample-paths"],
    ["reproduce", "table2"],
    ["mspe-decay", "--method", "mc"],
    ["fit", "--anisotropic", "--family", "linear", "--train", "train.json"]],
    ids=["sample-paths", "reproduce-table2", "mspe-decay-mc",
         "fit-anisotropic"])
def test_a_negative_seed_is_refused_naming_the_flag(workdir, train_file,
                                                    capsys, argv):
    _refused_usage(argv + ["--seed", "-1", "--out", "out"], capsys, argv[0],
                   "--seed", "expected an integer of at least 0, got '-1'")
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("count", ["-3", "0"])
def test_sample_paths_refuses_an_alpha_count_below_one(workdir, capsys,
                                                       count):
    _refused_usage(["sample-paths", "--alpha-count", count, "--out", "p.csv"],
                   capsys, "sample-paths", "--alpha-count",
                   f"expected an integer of at least 1, got '{count}'")
    assert not (workdir / "p.csv").exists()


@pytest.mark.parametrize("argv,flag,count", [
    (["sample-paths"], "--n-paths", "0"),
    (["sample-paths"], "--n-paths", "-2"),
    (["fit", "--family", "linear", "--train", "train.json"], "--multistarts",
     "0"),
    (["select-kernel", "--train", "train.json"], "--multistarts", "0"),
    (["emulate", "fit", "--fields", "f.csv", "--manifest", "m.json"],
     "--multistarts", "-1")],
    ids=["n-paths-0", "n-paths-negative", "fit", "select-kernel",
         "emulate-fit"])
def test_a_path_or_start_count_below_one_is_refused_naming_the_flag(
        workdir, train_file, capsys, argv, flag, count):
    command = " ".join(argv[:2] if argv[0] == "emulate" else argv[:1])
    _refused_usage(argv + [flag, count, "--out", "out"], capsys, command,
                   flag, f"expected an integer of at least 1, got '{count}'")
    assert not (workdir / "out").exists()


def test_mspe_decay_refuses_unordered_sizes_before_any_design(workdir,
                                                              capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _one_error_line(["mspe-decay", "--design", "eigen", "--sizes", "8,8",
                         "--grid-res", "64", "--out", "d.csv"], capsys,
                        "mspe-decay", "design sizes must be strictly "
                        "increasing, got [8, 8]")
    assert not (workdir / "d.csv").exists()


def test_a_bad_input_reference_names_its_file_and_entry(workdir, train_file,
                                                        capsys):
    blob = json.loads(train_file.read_text())
    blob["inputs"][1] = "sin("
    (workdir / "bad.json").write_text(json.dumps(blob))
    _one_error_line(["fit", "--train", "bad.json", "--family", "linear"],
                    capsys, "fit", "training data 'bad.json' 'inputs' entry 1 "
                    "('sin('): unexpected end of expression (at offset 4)")
    assert cli_dispatch(["fit", "--train", str(train_file), "--family",
                         "nonlinear", "--out", "model.json"]) == 0
    blob = json.loads((workdir / "model.json").read_text())
    blob["inputs"][0] = "knot(0.5)"
    blob["payload_sha256"] = _payload_sha256(blob)
    (workdir / "model.json").write_text(json.dumps(blob))
    capsys.readouterr()
    _one_error_line(["predict", "--model", "model.json", "--input", "x1"],
                    capsys, "predict", "model 'inputs' entry 0 ('knot(0.5)'): "
                    "unknown identifier 'knot' (at offset 0)")


def test_sample_paths_over_one_frequency(workdir, capsys):
    assert cli_dispatch(["sample-paths", "--alpha-count", "1",
                         "--grid-res", "16", "--n-paths", "2",
                         "--out", "p.csv"]) == 0
    assert len((workdir / "p.csv").read_text().splitlines()) == 2 + 1


@pytest.mark.parametrize("argv", [
    ["emulate", "predict", "--emulator", "absent.json", "--input", "x1"],
    ["emulate", "predict", "--emulator", "bad.json", "--input", "x1"]],
    ids=["missing-file", "not-json"])
def test_emulate_predict_errors_name_one_stage(workdir, capsys, argv):
    # an OSError and a FigpError from one command name the same stage
    (workdir / "bad.json").write_text("not json {\n")
    _one_error_line(argv, capsys, "emulate predict", argv[3])


@pytest.mark.parametrize("argv", [["predict", "--grid-res", "5"],
                                  ["loocv", "--seed", "1"]])
def test_flags_a_subcommand_does_not_read_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        cli_dispatch(argv + ["--model", "model.json"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["sample-paths", "--out", "p.csv"],
                                  ["mspe-decay", "--out", "m.csv"],
                                  ["reproduce", "table1", "--out", "out"]])
def test_a_grid_resolution_of_zero_is_refused(workdir, capsys, argv):
    _one_error_line(argv + ["--grid-res", "0"], capsys, argv[0],
                    "resolution must be an integer of at least 2 points")
    assert list(workdir.iterdir()) == []  # no file, and no --out directory


@pytest.mark.parametrize("flag", [["--nugget", "0.5"],
                                  ["--premap", "square"]],
                         ids=["nugget", "premap"])
def test_emulate_fit_rejects_the_flags_its_fits_do_not_take(workdir, flag):
    # every other argument is valid, so only the flag can stop the parse
    with pytest.raises(SystemExit) as exc:
        cli_dispatch(["emulate", "fit", "--fields", "fields.csv",
                      "--manifest", "manifest.json"] + flag)
    assert exc.value.code == 2


def test_select_kernel_json_deterministic(workdir, train_file, capsys):
    argv = ["select-kernel", "--train", str(train_file),
            "--multistarts", "2", "--json"]
    assert cli_dispatch(argv) == 0
    first = capsys.readouterr().out
    assert cli_dispatch(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert report["selected"] in ("linear", "nonlinear")
    assert len(report["table"]) == 2


def test_a_warm_select_kernel_is_bitwise_the_cold_one(workdir, capsys):
    # the second run in one process reads the first run's folded geometry
    grid = build_grid(Domain(((0.0, 1.0), (0.0, 1.0))), 20)
    inputs = [sample_function(e, grid) for e in TRAINING_EXPRESSIONS]
    one = sample_function("1", grid)
    save_training_data("train.json", grid, inputs,
                       np.array([l2_inner(g, one) for g in inputs]))
    figp.kernels._fold.cache_clear()
    runs = []
    for _ in range(2):
        assert figp.cli.main(["select-kernel", "--train", "train.json",
                              "--out", "model.json", "--json"]) == 0
        report = capsys.readouterr().out
        model = (workdir / "model.json").read_bytes()
        assert figp.cli.main(["predict", "--model", "model.json", "--json",
                              "--input", "x1*x2+x1^2"]) == 0
        runs.append((report, model, capsys.readouterr().out))
    assert runs[0] == runs[1]
    assert figp.kernels._fold.cache_info().misses == 1


def test_select_kernel_with_a_premap_selects_the_linear_model(workdir,
                                                             capsys):
    grid = build_grid(Domain(((0.0, 1.0), (0.0, 1.0))), 12)
    inputs = [sample_function(e, grid) for e in TRAINING_EXPRESSIONS]
    y = np.array([l2_inner(g, g) for g in inputs])
    save_training_data(str(workdir / "train_sq.json"), grid, inputs, y)
    assert cli_dispatch(["select-kernel", "--train", "train_sq.json",
                         "--premap", "square", "--out", "best.json",
                         "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["selected"] == "linear"
    assert [e["family"] for e in report["table"]] == ["linear", "nonlinear"]
    assert load_model("best.json").spec.premap == "square"


def test_fit_rejects_a_premap_for_the_nonlinear_family(workdir, train_file,
                                                       capsys):
    rc = cli_dispatch(["fit", "--train", str(train_file), "--family",
                       "nonlinear", "--premap", "square", "--out", "m.json"])
    assert rc == 1
    assert "error: fit: fit: premap 'square' applies to the linear kernel " \
        "only" in capsys.readouterr().err
    assert not (workdir / "m.json").exists()


def test_select_kernel_saves_model(workdir, train_file, capsys):
    rc = cli_dispatch(["select-kernel", "--train", str(train_file),
                       "--multistarts", "2", "--out", "best.json"])
    assert rc == 0
    assert (workdir / "best.json").exists()
    out = capsys.readouterr().out
    assert "saved" in out and "*" in out


def test_sample_paths_deterministic(workdir, capsys):
    argv = ["sample-paths", "--n-paths", "3", "--alpha-count", "5",
            "--grid-res", "32", "--seed", "11", "--out", "paths.csv"]
    assert cli_dispatch(argv) == 0
    first = (workdir / "paths.csv").read_text()
    assert cli_dispatch(argv) == 0
    assert (workdir / "paths.csv").read_text() == first
    lines = first.splitlines()
    assert lines[0].startswith("# ")
    assert lines[1] == "alpha,path1,path2,path3"
    assert len(lines) == 2 + 5


def test_sample_paths_nonlinear_family(workdir, capsys):
    rc = cli_dispatch(["sample-paths", "--family", "nonlinear",
                       "--gamma", "0.05", "--n-paths", "2",
                       "--alpha-count", "4", "--grid-res", "16",
                       "--out", "nl.csv", "--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n_paths"] == 2
    assert report["params"]["family"] == "nonlinear"


def test_sample_paths_defaults_match_reproduce_figure2(workdir, capsys):
    # the CLI defaults are figure2's theta = 1 and nu = 2.5 panels, drawn
    # by the same code
    assert cli_dispatch(["sample-paths", "--seed", "42",
                         "--out", "paths.csv"]) == 0
    assert cli_dispatch(["reproduce", "figure2", "--seed", "42",
                         "--out", "fig2"]) == 0
    for panel in ("theta-1", "nu-2.5"):
        assert ((workdir / "paths.csv").read_bytes()
                == (workdir / "fig2" / f"figure2_{panel}.csv").read_bytes())


def test_mspe_decay_defaults_match_reproduce(workdir, capsys):
    # one experiment: the CLI scores the test translates reproduce scores
    assert cli_dispatch(["reproduce", "mspe_decay", "--seed", "42",
                         "--out", "repro"]) == 0
    for design in ("knot", "eigen"):
        assert cli_dispatch(["mspe-decay", "--design", design,
                             "--out", f"{design}.csv"]) == 0
        assert ((workdir / f"{design}.csv").read_bytes() == (
            workdir / "repro" / f"mspe_decay_{design}.csv").read_bytes())


def test_a_3000_term_sum_fits_and_predicts(workdir, capsys):
    # a long sum is evaluated in a loop, not one stack frame per term
    long_sum = "+".join(["x1"] * 3000)
    (workdir / "train.json").write_text(json.dumps({
        "domain": [[0, 1]], "resolution": 8,
        "inputs": ["1", long_sum, "x1^2", "sin(x1)"],
        "y": [0.5, 1.5, 0.25, 1.0]}))
    assert cli_dispatch(["fit", "--train", "train.json", "--family",
                         "linear", "--out", "model.json"]) == 0
    assert load_model("model.json").inputs[1].label == long_sum
    capsys.readouterr()
    assert cli_dispatch(["predict", "--model", "model.json", "--input",
                         long_sum, "--json"]) == 0
    row = json.loads(capsys.readouterr().out)["predictions"][0]
    assert row["mean"] == pytest.approx(1.5, abs=1e-6)


def test_mspe_decay_command(workdir, capsys):
    rc = cli_dispatch(["mspe-decay", "--design", "eigen",
                       "--sizes", "4,8,16", "--grid-res", "64",
                       "--out", "curve.csv", "--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["slope"] < 0
    assert report["sizes"] == [4, 8, 16]
    text = (workdir / "curve.csv").read_text()
    assert text.startswith("# slope=")
    assert text.splitlines()[1] == "n,mspe,se"


def test_emulate_fit_and_predict(workdir, capsys):
    grid = build_grid(Domain(((0.0, 1.0), (0.0, 1.0))), 12)
    exprs = ("1", "x1", "x2", "x1*x2", "1+x1^2", "sin(x1)")
    inputs = [sample_function(e, grid) for e in exprs]
    one = sample_function("1", grid)
    a = np.array([l2_inner(g, one) for g in inputs])
    rng = np.random.default_rng(0)
    v = rng.standard_normal(9)
    ds = FieldDataset(inputs, 2.0 + np.outer(a, v), (3, 3))
    save_field_dataset("fields.csv", "manifest.json", ds)

    rc = cli_dispatch(["emulate", "fit", "--fields", "fields.csv",
                       "--manifest", "manifest.json", "--threshold", "1.0",
                       "--family", "linear", "--multistarts", "2",
                       "--out", "em.json", "--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["k"] == 1
    assert report["score_families"] == ["linear"]

    rc = cli_dispatch(["emulate", "predict", "--emulator", "em.json",
                       "--input", "1+0.2*x2", "--out", "pred.csv"])
    assert rc == 0
    lines = (workdir / "pred.csv").read_text().splitlines()
    assert lines[0] == "input,pixel,mean,variance"
    assert len(lines) == 1 + 9

    capsys.readouterr()
    rc = cli_dispatch(["emulate", "predict", "--emulator", "em.json"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "error: emulate predict:" in captured.err


def test_reproduce_table1_writes_files(workdir, capsys):
    import os
    rc = cli_dispatch(["reproduce", "table1", "--out", "repro", "--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["target"] == "table1"
    assert report["files"]
    for path in report["files"]:
        assert os.path.exists(path)
