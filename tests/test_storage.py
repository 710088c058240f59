import csv
import io
import json
import math
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest

import figp.gp
from figp import (Domain, FieldDataset, FigpError, FunctionalInput,
                  KernelSpec, LINEAR, MaternParams, NONLINEAR, PCAEmulator,
                  build_grid, build_model, eigenfunction_design, fit,
                  fit_emulator, FitConfig, knot_design, nystrom_eig, predict,
                  predict_field, predict_many, sample_function)
from figp.domain import UNIFORM_MIDPOINT
from figp.sampling import PathFamily, sample_paths_gram, sine_frequency_family
from figp.designs import DecayCurve
from figp.storage import (atomic_write_text, decay_curve_csv, fmt, fmt6,
                          grid_from_dict, grid_to_dict, input_from_reference,
                          input_to_reference, kernel_spec_from_dict,
                          kernel_spec_to_dict, load_field_dataset,
                          load_input_csv, load_model, load_emulator,
                          load_training_data, path_family_csv, read_json,
                          save_decay_curve, save_emulator,
                          save_field_dataset, save_model, save_path_family,
                          save_training_data, write_json)

from figp_testlib import random_poly_inputs


def test_fmt_round_trips_doubles():
    rng = np.random.default_rng(0)
    for v in rng.standard_normal(100) * 10.0 ** rng.integers(-8, 8, 100):
        assert float(fmt(v)) == v
    assert fmt6(math.pi) == "3.14159"


def test_atomic_write_and_json(tmp_path):
    target = tmp_path / "out.json"
    payload = {"b": 2, "a": [1.5, None], "c": "text"}
    write_json(str(target), payload)
    text = target.read_text()
    assert text.endswith("\n")
    # keys are sorted for reproducible bytes
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    assert read_json(str(target)) == payload
    # no temp droppings left behind
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
    atomic_write_text(str(target), "replaced")
    assert target.read_text() == "replaced"


def test_grid_round_trip(square_grid):
    assert grid_from_dict(grid_to_dict(square_grid)) == square_grid
    mid = build_grid(Domain(((0.0, 2.0),)), 16, rule=UNIFORM_MIDPOINT)
    assert grid_from_dict(grid_to_dict(mid)) == mid


def test_input_reference_round_trip(square_grid):
    g = sample_function("1+x1*x2", square_grid)
    ref = input_to_reference(g, "")
    assert ref == "1+x1*x2"
    back = input_from_reference(ref, square_grid, "")
    np.testing.assert_array_equal(back.values, g.values)
    unlabeled = FunctionalInput(square_grid, g.values)
    with pytest.raises(FigpError):
        input_to_reference(unlabeled, "")
    with pytest.raises(FigpError):
        input_from_reference({"nope": 1}, square_grid, "")


def test_training_data_round_trip(tmp_path, square_grid):
    inputs = [sample_function(e, square_grid) for e in ("1", "x1", "sin(x2)")]
    y = np.array([0.5, -1.0, 2.25])
    path = str(tmp_path / "train.json")
    save_training_data(path, square_grid, inputs, y)
    grid2, inputs2, y2 = load_training_data(path)
    assert grid2 == square_grid
    assert [g.label for g in inputs2] == ["1", "x1", "sin(x2)"]
    np.testing.assert_array_equal(y2, y)


def test_training_data_missing_key(tmp_path):
    path = str(tmp_path / "bad.json")
    write_json(path, {"domain": [[0.0, 1.0]], "inputs": ["x1"]})
    with pytest.raises(FigpError, match="missing"):
        load_training_data(path)


def test_input_csv_round_trip(tmp_path):
    grid = build_grid(Domain(((0.0, 1.0),)), 8)
    vals = np.sin(grid.nodes[:, 0])
    path = tmp_path / "g.csv"
    rows = ["x1,value"] + [f"{x:.17g},{v:.17g}"
                           for x, v in zip(grid.nodes[:, 0], vals)]
    path.write_text("\n".join(rows) + "\n")
    g = load_input_csv(str(path), grid)
    np.testing.assert_allclose(g.values, vals)
    assert g.label == str(path)

    short = tmp_path / "short.csv"
    short.write_text("\n".join(rows[:-2]) + "\n")
    with pytest.raises(FigpError, match="rows"):
        load_input_csv(str(short), grid)

    shifted = tmp_path / "shifted.csv"
    rows2 = ["x1,value"] + [f"{x + 0.01:.17g},{v:.17g}"
                            for x, v in zip(grid.nodes[:, 0], vals)]
    shifted.write_text("\n".join(rows2) + "\n")
    with pytest.raises(FigpError, match="coordinates"):
        load_input_csv(str(shifted), grid)


def _write_input_csvs(directory, grid, n):
    x = grid.nodes[:, 0]
    for i in range(n):
        rows = ["x1,value"] + [f"{a:.17g},{v:.17g}"
                               for a, v in zip(x, np.sin((i + 1) * x) + i)]
        (directory / f"c{i}.csv").write_text("\n".join(rows) + "\n")


def test_csv_references_resolve_against_their_file(tmp_path, monkeypatch):
    grid = build_grid(Domain(((0.0, 1.0),)), 8)
    data = tmp_path / "data"
    data.mkdir()
    _write_input_csvs(data, grid, 4)
    y = [0.4, -0.3, 1.1, 0.2]
    # the last reference is absolute and must stay so when written again
    absolute = str(data / "c3.csv")
    train = {**grid_to_dict(grid), "y": y,
             "inputs": [{"csv": "c0.csv"}, "c1.csv", {"csv": "c2.csv"},
                        absolute]}
    write_json(str(data / "train.json"), train)

    # fit and save inside data/
    monkeypatch.chdir(data)
    _, inputs, _ = load_training_data("train.json")
    model = fit(inputs, y, NONLINEAR)
    save_model("model.json", model)
    fields = FieldDataset(inputs, np.array([[1.0, 2.0], [0.5, 1.5],
                                            [2.0, 0.0], [1.0, 1.0]]), (2,))
    save_field_dataset("fields.csv", "fields.manifest.json", fields)
    saved = read_json("model.json")
    assert saved["inputs"] == ["c0.csv", "c1.csv", "c2.csv", absolute]
    assert saved["version"] == 3

    # load, predict and save again from the parent directory
    monkeypatch.chdir(tmp_path)
    test = inputs[0]
    _, again, _ = load_training_data(os.path.join("data", "train.json"))
    for a, b in zip(again, inputs):
        np.testing.assert_array_equal(a.values, b.values)
    loaded = load_model(os.path.join("data", "model.json"))
    assert predict(loaded, test) == predict(model, test)
    ds = load_field_dataset(os.path.join("data", "fields.csv"),
                            os.path.join("data", "fields.manifest.json"))
    np.testing.assert_array_equal(ds.fields, fields.fields)
    em = PCAEmulator(np.zeros(1), np.ones((1, 1)), (loaded,), np.ones(1),
                     (1,))
    save_model(os.path.join("out", "model.json"), loaded)
    save_emulator(os.path.join("out", "emulator.json"), em)
    moved = read_json(os.path.join("out", "model.json"))["inputs"]
    assert moved[0] == os.path.join("..", "data", "c0.csv")
    assert moved[3] == absolute

    # and load those from inside out/
    monkeypatch.chdir(tmp_path / "out")
    assert predict(load_model("model.json"), test) == predict(model, test)
    assert predict(load_emulator("emulator.json").score_models[0],
                   test) == predict(model, test)


def test_kernel_spec_round_trip():
    lin = KernelSpec(LINEAR, MaternParams(2.5, 1.3, (0.7, 1.2)),
                     premap="square", nugget=1e-7)
    non = KernelSpec(NONLINEAR, MaternParams(1.5, 0.9), gamma=0.4)
    for spec in (lin, non):
        assert kernel_spec_from_dict(kernel_spec_to_dict(spec)) == spec
    assert kernel_spec_to_dict(lin)["variant"] == LINEAR


def test_model_round_trip(tmp_path, square_grid):
    inputs = [sample_function(e, square_grid)
              for e in ("1", "x1", "x2", "x1*x2")]
    y = np.array([1.0, 0.25, -0.5, 0.75])
    spec = KernelSpec(NONLINEAR, MaternParams(2.5, 0.8), gamma=0.6,
                      nugget=1e-8)
    model = build_model(spec, inputs, y)
    path = str(tmp_path / "model.json")
    save_model(path, model)
    loaded = load_model(path)
    test = sample_function("1-0.2*x1", square_grid)
    assert predict(loaded, test) == predict(model, test)
    assert loaded.mu_hat == model.mu_hat
    np.testing.assert_array_equal(loaded.alpha, model.alpha)


def test_loaded_linear_model_predicts_from_its_kept_psi(tmp_path,
                                                       bench_models,
                                                       square_grid):
    model = bench_models[("f1", LINEAR)]
    path = str(tmp_path / "model.json")
    save_model(path, model)
    # Psi's triangle is profiled again on load, never saved
    assert set(json.loads(open(path).read())) == {
        "format", "version", "kernel", "mu_hat", "log_likelihood", "grid",
        "inputs", "y", "gram", "payload_sha256"}
    loaded = load_model(path)
    fresh = replace(model, factorization=replace(model.factorization,
                                                 triangle=None))
    tests = random_poly_inputs(square_grid, 6, np.random.default_rng(67))
    want = predict_many(fresh, tests)
    for m in (model, loaded):
        assert m.factorization.triangle is not None
        for got, w in zip(predict_many(m, tests), want):
            assert got.tobytes() == w.tobytes()


def test_model_checksum_detects_mismatch(tmp_path, square_grid):
    inputs = [sample_function(e, square_grid) for e in ("1", "x1")]
    spec = KernelSpec(NONLINEAR, MaternParams(2.5, 0.8), gamma=0.6,
                      nugget=1e-8)
    path = str(tmp_path / "model.json")
    save_model(path, build_model(spec, inputs, np.array([1.0, 2.0])))
    blob = read_json(path)
    blob["payload_sha256"] = "0" * 64
    write_json(path, blob)
    with pytest.raises(FigpError, match="payload check failed"):
        load_model(path)


def _linear_and_nonlinear_models(square_grid):
    inputs = [sample_function(e, square_grid)
              for e in ("1", "x1", "x2", "x1*x2", "1+x1^2", "sin(x2)")]
    y = np.random.default_rng(71).standard_normal(6)
    return [build_model(KernelSpec(LINEAR, MaternParams(2.5, 0.9, (0.8, 1.3))),
                        inputs, y),
            build_model(KernelSpec(NONLINEAR, MaternParams(2.5, 0.8),
                                   gamma=0.6), inputs, y)]


def test_model_loads_after_its_rebuilt_gram_moves_by_round_off(
        tmp_path, square_grid, monkeypatch):
    # stands in for another BLAS: the rebuilt Gram is off by 1e-14
    # relative in every entry, and the load must not care
    rng = np.random.default_rng(73)
    real = figp.gp.gram

    def perturbed(inputs, spec):
        fact = real(inputs, spec)
        n = fact.gram.shape[0]
        r = rng.uniform(-1.0, 1.0, (n, n))
        K = fact.gram * (1.0 + 1e-14 * (r + r.T) / 2.0)
        L = np.linalg.cholesky(K)
        return replace(fact, gram=K, chol=L,
                       log_det=float(2.0 * np.sum(np.log(np.diag(L)))))

    test = sample_function("1+0.3*x1*x2", square_grid)
    for i, model in enumerate(_linear_and_nonlinear_models(square_grid)):
        path = str(tmp_path / f"model{i}.json")
        save_model(path, model)
        with monkeypatch.context() as m:
            m.setattr(figp.gp, "gram", perturbed)
            loaded = load_model(path)
        assert loaded.factorization.gram.tobytes() != \
            model.factorization.gram.tobytes()
        np.testing.assert_allclose(predict(loaded, test), predict(model, test),
                                   rtol=1e-6)


@pytest.mark.parametrize("key,delta", [("y", 0.5), ("mu_hat", 1.0)])
def test_hand_edited_model_fails_the_payload_check(tmp_path, square_grid, key,
                                                   delta):
    for i, model in enumerate(_linear_and_nonlinear_models(square_grid)):
        path = str(tmp_path / f"model{i}.json")
        save_model(path, model)
        blob = read_json(path)
        if key == "y":
            blob["y"][0] += delta
        else:
            blob["mu_hat"] += delta
        write_json(path, blob)
        with pytest.raises(FigpError, match="payload check failed"):
            load_model(path)


# a sign flip leaves a linear Gram's diagonal as it was, and every
# nonlinear diagonal entry is sigma2 plus the nugget
@pytest.mark.parametrize("family,edit,invariant", [
    (LINEAR, -1.0, "row_sums"), (LINEAR, 1.25, "diag"),
    (NONLINEAR, -1.0, "row_sums"), (NONLINEAR, 1.25, "row_sums")])
def test_changed_csv_input_fails_the_gram_check(tmp_path, monkeypatch,
                                                family, edit, invariant):
    grid = build_grid(Domain(((0.0, 1.0),)), 8)
    _write_input_csvs(tmp_path, grid, 4)
    monkeypatch.chdir(tmp_path)
    inputs = [load_input_csv(f"c{i}.csv", grid) for i in range(4)]
    model = fit(inputs, [0.4, -0.3, 1.1, 0.2], family)
    save_model("model.json", model)
    assert predict(load_model("model.json"), inputs[0]) == \
        predict(model, inputs[0])
    data = np.loadtxt("c2.csv", delimiter=",", skiprows=1)
    rows = ["x1,value"] + [f"{x:.17g},{v:.17g}"
                           for x, v in zip(data[:, 0], edit * data[:, 1])]
    (tmp_path / "c2.csv").write_text("\n".join(rows) + "\n")
    with pytest.raises(FigpError, match=f"Gram check failed: the rebuilt "
                                        f"`{invariant}` of input"):
        load_model("model.json")


def test_emulator_round_trip(tmp_path, square_grid):
    inputs = [sample_function(e, square_grid)
              for e in ("1", "x1", "x2", "x1^2", "x2^2", "x1*x2")]
    rng = np.random.default_rng(8)
    V, _ = np.linalg.qr(rng.standard_normal((12, 2)))
    coeffs = np.column_stack([
        [float(np.mean(g.values)) for g in inputs],
        [float(np.max(g.values)) for g in inputs],
    ])
    ds = FieldDataset(inputs, 1.0 + coeffs @ V.T, (12,))
    em = fit_emulator(ds, threshold=1.0, family=LINEAR,
                      config=FitConfig(seed=0, multistarts=2))
    path = str(tmp_path / "emulator.json")
    save_emulator(path, em)
    loaded = load_emulator(path)
    assert loaded.k == em.k
    g = sample_function("1+0.3*x1", square_grid)
    m1, v1 = predict_field(em, g)
    m2, v2 = predict_field(loaded, g)
    np.testing.assert_allclose(m2, m1, rtol=1e-12)
    np.testing.assert_allclose(v2, v1, rtol=1e-9, atol=1e-300)


def _two_score_emulator(square_grid):
    return PCAEmulator(np.array([1.0, 2.0]), np.eye(2),
                       tuple(_linear_and_nonlinear_models(square_grid)),
                       np.array([0.9, 0.1]), (2,))


def _edit_mean(blob):
    blob["mean_field"][0] += 1.0


def _edit_ratio(blob):
    blob["explained_variance_ratio"][0] = 0.5


def _drop_hash(blob):
    del blob["payload_sha256"]


@pytest.mark.parametrize("edit", [_edit_mean, _edit_ratio, _drop_hash])
def test_hand_edited_emulator_fails_its_payload_check(tmp_path, square_grid,
                                                      edit):
    path = str(tmp_path / "emulator.json")
    save_emulator(path, _two_score_emulator(square_grid))
    blob = read_json(path)
    assert blob["version"] == 4
    assert [m["version"] for m in blob["score_models"]] == [3, 3]
    edit(blob)
    write_json(path, blob)
    with pytest.raises(FigpError, match="emulator payload check failed"):
        load_emulator(path)


def _version(value):
    def edit(blob):
        blob["version"] = value
        blob["payload_sha256"] = figp.storage._payload_sha256(blob)
    return edit


def _downgrade(blob):
    # an edited `y` under an older version must not skip the hash check
    blob["y"][0] += 0.5
    blob["version"] = 2


@pytest.mark.parametrize("kind,edit,shown", [
    ("model", _version(1), "1"), ("model", _version(2), "2"),
    ("model", _version(4), "4"), ("model", _version(True), "True"),
    ("model", _version(3.0), "3.0"), ("model", _version("3"), "'3'"),
    ("emulator", _version(3), "3"), ("model", _downgrade, "2")],
    ids=["model-1", "model-2", "model-4", "model-true", "model-3.0",
         "model-'3'", "emulator-3", "model-edited-y-as-2"])
def test_only_the_written_version_loads(tmp_path, square_grid, kind, edit,
                                        shown):
    path = str(tmp_path / f"{kind}.json")
    if kind == "model":
        save_model(path, _linear_and_nonlinear_models(square_grid)[0])
    else:
        save_emulator(path, _two_score_emulator(square_grid))
    blob = read_json(path)
    edit(blob)
    write_json(path, blob)
    written = 3 if kind == "model" else 4
    with pytest.raises(FigpError) as e:
        (load_model if kind == "model" else load_emulator)(path)
    assert str(e.value) == (
        f"unsupported figp-{kind} file version {shown} (figp reads version "
        f"{written}): fit it again from its training data")


def test_an_emulator_with_an_edited_score_model_fails_its_model_check(
        tmp_path, square_grid):
    path = str(tmp_path / "emulator.json")
    save_emulator(path, _two_score_emulator(square_grid))
    blob = read_json(path)
    blob["score_models"][1]["y"][0] += 0.5
    blob["payload_sha256"] = figp.storage._payload_sha256(blob)
    write_json(path, blob)
    with pytest.raises(FigpError, match="model payload check failed"):
        load_emulator(path)


@pytest.mark.parametrize("key,value,sizes", [
    ("mean_field", [], "mean_field holds 0 and each component 2"),
    ("field_shape", [5], "holds 5 values, but mean_field holds 2"),
    ("components", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
     "mean_field holds 2 and each component 3")],
    ids=["mean_field-empty", "field_shape-5", "components-3-wide"])
def test_an_emulator_whose_sizes_disagree_names_them(tmp_path, square_grid,
                                                     key, value, sizes):
    path = str(tmp_path / "emulator.json")
    save_emulator(path, _two_score_emulator(square_grid))
    blob = read_json(path)
    blob[key] = value
    blob["payload_sha256"] = figp.storage._payload_sha256(blob)
    write_json(path, blob)
    with pytest.raises(FigpError, match=sizes):
        load_emulator(path)


def test_a_model_whose_weights_overflow_is_refused(tmp_path, square_grid):
    path = str(tmp_path / "model.json")
    save_model(path, _linear_and_nonlinear_models(square_grid)[1])
    blob = read_json(path)
    blob["mu_hat"] = 1e308
    blob["payload_sha256"] = figp.storage._payload_sha256(blob)
    write_json(path, blob)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow is not the report
        with pytest.raises(FigpError, match="build_model: the weights "
                                            r"K\^-1 \(y - mu\) are not finite"):
            load_model(path)


@pytest.mark.parametrize("text,shown", [
    ('"abc"', "'abc'"), ('"20"', "'20'"), ("NaN", "nan"), ("Infinity", "inf"),
    ("20.5", "20.5"), ("true", "True"), ("[]", "[]")])
def test_a_bad_resolution_names_the_file_and_the_value(tmp_path, text, shown):
    path = tmp_path / "train.json"
    path.write_text('{"domain": [[0, 1]], "inputs": ["x1", "1+x1"], '
                    f'"y": [0.5, 1.5], "resolution": {text}}}')
    with pytest.raises(FigpError) as e:
        load_training_data(str(path))
    assert str(e.value) == (
        f"training data {str(path)!r}: resolution must be an integer of at "
        f"least 2 points per dimension, got {shown}")


@pytest.mark.parametrize("resolution,expected", [(None, 64), (20.0, 20)])
def test_a_null_or_integral_resolution_loads(tmp_path, resolution, expected):
    path = str(tmp_path / "train.json")
    write_json(path, {"domain": [[0, 1]], "inputs": ["x1", "1+x1"],
                      "y": [0.5, 1.5], "resolution": resolution})
    grid, inputs, _ = load_training_data(path)
    assert grid.resolution == expected and inputs[0].values.size == expected


def _old_number_csv(header, rows, first=int):
    """A decay or path CSV body as csv.writer wrote it, with `first` on
    each row's first cell and fmt6 on the others."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([first(row[0])] + [fmt6(v) for v in row[1:]])
    return buf.getvalue()


_EDGE_VALUES = [0.0, -0.0, 5e-324, 1e-300, 1e300, 123456.5, -1.5e-7, 1.0,
                -2.5]


def test_number_rows_are_the_csv_writer_bytes_on_edge_values(interval_grid):
    # a one-replicate Monte Carlo curve has se = nan
    curve = DecayCurve(np.arange(2, 3 + len(_EDGE_VALUES)),
                       np.abs(_EDGE_VALUES + [0.5]),
                       _EDGE_VALUES + [float("nan")], -1.0, 0.1, 1, "mc")
    body = decay_curve_csv(curve).split("\n", 1)[1]
    assert body == _old_number_csv(
        ["n", "mspe", "se"], zip(curve.sizes, curve.mspe, curve.se))
    assert body.endswith(",nan\n") and ",-0\n" in body

    index = np.array(_EDGE_VALUES)
    draws = np.array([_EDGE_VALUES, _EDGE_VALUES[::-1]])
    inputs = [sample_function("x1", interval_grid)] * len(_EDGE_VALUES)
    pf = PathFamily(index, inputs, draws, 0, {"nu": 2.5})
    body = path_family_csv(pf).split("\n", 1)[1]
    assert body == _old_number_csv(
        ["alpha", "path1", "path2"],
        ([a] + list(draws[:, j]) for j, a in enumerate(index)),
        first=fmt6)


def test_field_dataset_round_trip(tmp_path, square_grid):
    inputs = [sample_function(e, square_grid) for e in ("1", "x1", "sin(x2)")]
    fields = np.arange(12.0).reshape(3, 4) / 7.0
    ds = FieldDataset(inputs, fields, (2, 2))
    csv_path = str(tmp_path / "fields.csv")
    man_path = str(tmp_path / "fields.manifest.json")
    save_field_dataset(csv_path, man_path, ds)
    header = open(csv_path).readline().strip()
    assert header == "input,v1,v2,v3,v4"
    loaded = load_field_dataset(csv_path, man_path)
    assert loaded.field_shape == (2, 2)
    assert [g.label for g in loaded.inputs] == ["1", "x1", "sin(x2)"]
    np.testing.assert_array_equal(loaded.fields, ds.fields)


def test_path_family_csv_format(tmp_path, interval_grid):
    fam = sine_frequency_family(interval_grid, [0.25, 0.5, 0.75])
    spec = KernelSpec(LINEAR, MaternParams(2.5, 1.0, (1.0,)))
    pf = sample_paths_gram(fam, spec, 3, seed=2,
                           index_values=np.array([0.25, 0.5, 0.75]))
    text = path_family_csv(pf)
    lines = text.splitlines()
    assert lines[0].startswith("# ")
    assert "seed=2" in lines[0]
    assert lines[1] == "alpha,path1,path2,path3"
    assert len(lines) == 2 + 3
    assert lines[2].split(",")[0] == "0.25"
    out = tmp_path / "paths.csv"
    save_path_family(str(out), pf)
    assert out.read_text() == text


def test_decay_curve_csv_format(tmp_path):
    curve = DecayCurve(np.array([4, 8, 16]), np.array([1.0, 0.25, 0.0625]),
                       np.zeros(3), -2.0, 0.01, 0, "exact",
                       theoretical_rate=-3.0)
    text = decay_curve_csv(curve)
    lines = text.splitlines()
    assert lines[0] == "# slope=-2 slope_se=0.01 theoretical_rate=-3 method=exact"
    assert lines[1] == "n,mspe,se"
    assert lines[2] == "4,1,0"
    out = tmp_path / "curve.csv"
    save_decay_curve(str(out), curve)
    assert out.read_text() == text


@pytest.mark.parametrize("key,value", [("diag", []), ("row_sums", [1.0]),
                                       ("diag", [1.0] * 7)])
def test_a_gram_invariant_of_another_length_names_the_key(tmp_path,
                                                          square_grid, key,
                                                          value):
    path = str(tmp_path / "model.json")
    save_model(path, _linear_and_nonlinear_models(square_grid)[0])
    blob = read_json(path)
    blob["gram"][key] = value
    blob["payload_sha256"] = figp.storage._payload_sha256(blob)
    write_json(path, blob)
    with pytest.raises(FigpError) as e:
        load_model(path)
    assert str(e.value) == (
        f"model gram {key!r} has {len(value)} entries for 6 inputs")


def test_a_training_y_of_another_length_names_the_file(tmp_path):
    path = str(tmp_path / "train.json")
    write_json(path, {"domain": [[0, 1]], "inputs": ["x1", "1+x1"],
                      "y": [0.5]})
    with pytest.raises(FigpError) as e:
        load_training_data(path)
    assert str(e.value) == (
        f"training data {path!r} 'y' length does not match 'inputs'")


@pytest.mark.parametrize("resolution", ["1e20", "1e308"])
def test_a_resolution_too_large_to_index_names_the_file(tmp_path,
                                                        resolution):
    path = tmp_path / "train.json"
    path.write_text('{"domain": [[0, 1]], "inputs": ["x1", "1+x1"], '
                    f'"y": [0.5, 1.5], "resolution": {resolution}}}')
    with pytest.raises(FigpError) as e:
        load_training_data(str(path))
    assert str(e.value).startswith(
        f"training data {str(path)!r}: resolution must give at most ")
    assert str(e.value).endswith(f"got {float(resolution)!r}^1")


_LINE = build_grid(Domain(((0.0, 1.0),)), 16)
_TRANSLATES = MaternParams(1.5, 1.0, (0.3,))


def _unrebuildable(kind):
    """Three inputs whose first label does not rebuild it, that label,
    and what the rebuild reports."""
    if kind == "knot":
        return (knot_design(np.array([[0.2], [0.5], [0.8]]), _TRANSLATES,
                            _LINE), "knot(0.2)", "unknown identifier 'knot'")
    return (eigenfunction_design(nystrom_eig(_TRANSLATES, _LINE), 3),
            "eigenfunction_1", "unknown identifier 'eigenfunction_1'")


def _save(kind, directory, inputs):
    y = np.array([0.5, -0.25, 1.0])
    model = build_model(KernelSpec(NONLINEAR, MaternParams(2.5, 1.0),
                                   gamma=1.0), inputs, y)
    if kind == "model":
        save_model(str(directory / "model.json"), model)
    elif kind == "training":
        save_training_data(str(directory / "train.json"), _LINE, inputs, y)
    elif kind == "emulator":
        save_emulator(str(directory / "emulator.json"),
                      PCAEmulator(np.zeros(1), np.ones((1, 1)), (model,),
                                  np.ones(1), (1,)))
    else:
        save_field_dataset(str(directory / "fields.csv"),
                           str(directory / "fields.manifest.json"),
                           FieldDataset(inputs, y[:, None], (1,)))


@pytest.mark.parametrize("saver", ["model", "training", "emulator",
                                   "fields"])
@pytest.mark.parametrize("design", ["knot", "eigen"])
def test_a_save_refuses_an_input_its_label_does_not_rebuild(tmp_path, saver,
                                                            design):
    inputs, label, cause = _unrebuildable(design)
    with pytest.raises(FigpError) as e:
        _save(saver, tmp_path / "out", inputs)
    assert str(e.value).startswith(f"input {label!r} cannot be saved: ")
    assert cause in str(e.value)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("saver", ["model", "training", "emulator",
                                   "fields"])
def test_a_sine_family_input_saves_and_loads(tmp_path, saver):
    # each label holds the shortest digits that rebuild its frequency
    inputs = sine_frequency_family(_LINE, [1 / 3, 1.0, 2.0])
    assert [g.label for g in inputs] == ["sin(0.3333333333333333*x1)",
                                         "sin(1*x1)", "sin(2*x1)"]
    _save(saver, tmp_path, inputs)
    if saver == "model":
        again = load_model(str(tmp_path / "model.json")).inputs
    elif saver == "training":
        again = load_training_data(str(tmp_path / "train.json"))[1]
    elif saver == "emulator":
        again = load_emulator(
            str(tmp_path / "emulator.json")).score_models[0].inputs
    else:
        again = load_field_dataset(
            str(tmp_path / "fields.csv"),
            str(tmp_path / "fields.manifest.json")).inputs
    for a, g in zip(again, inputs):
        assert a.label == g.label
        np.testing.assert_array_equal(a.values, g.values)


@pytest.mark.parametrize("scale,saves", [(1 + 1e-13, True),
                                         (1 + 1e-11, False)])
def test_the_rebuild_tolerance_is_relative_to_the_largest_value(
        tmp_path, scale, saves):
    x1 = sample_function("2+x1", _LINE)
    inputs = [FunctionalInput(_LINE, scale * x1.values, label="2+x1"),
              sample_function("x1^2", _LINE), sample_function("1", _LINE)]
    if saves:
        _save("training", tmp_path, inputs)
        assert load_training_data(str(tmp_path / "train.json"))[1][0].label \
            == "2+x1"
    else:
        with pytest.raises(FigpError, match="^input '2\\+x1' cannot be "
                                            "saved: its label rebuilds"):
            _save("training", tmp_path, inputs)
        assert list(tmp_path.iterdir()) == []


def test_a_csv_input_changed_since_it_was_read_is_not_saved(tmp_path,
                                                            monkeypatch):
    _write_input_csvs(tmp_path, _LINE, 3)
    monkeypatch.chdir(tmp_path)
    inputs = [load_input_csv(f"c{i}.csv", _LINE) for i in range(3)]
    (tmp_path / "c1.csv").unlink()
    with pytest.raises(FigpError, match="^input 'c1.csv' cannot be saved: "
                                        ".*No such file"):
        _save("model", tmp_path / "out", inputs)
    assert not (tmp_path / "out").exists()


def test_expression_and_csv_inputs_save_and_load_from_another_directory(
        tmp_path, monkeypatch):
    (tmp_path / "data").mkdir()
    _write_input_csvs(tmp_path / "data", _LINE, 2)
    monkeypatch.chdir(tmp_path)
    inputs = [load_input_csv(os.path.join("data", "c0.csv"), _LINE),
              sample_function("1+x1^2", _LINE),
              load_input_csv(os.path.join("data", "c1.csv"), _LINE)]
    _save("model", tmp_path / "out", inputs)
    _save("training", tmp_path / "out", inputs)
    up = os.path.join("..", "data")
    assert read_json(os.path.join("out", "model.json"))["inputs"] == [
        os.path.join(up, "c0.csv"), "1+x1^2", os.path.join(up, "c1.csv")]

    monkeypatch.chdir(tmp_path / "data")
    model = load_model(os.path.join("..", "out", "model.json"))
    _, again, _ = load_training_data(os.path.join("..", "out", "train.json"))
    for a, b, c in zip(model.inputs, again, inputs):
        np.testing.assert_array_equal(a.values, c.values)
        np.testing.assert_array_equal(b.values, c.values)


def test_a_bad_training_reference_names_the_file_and_the_entry(tmp_path):
    path = str(tmp_path / "train.json")
    write_json(path, {"domain": [[0, 1]], "inputs": ["x1", "sin(", "x1^2"],
                      "y": [0.5, 1.5, 0.25]})
    with pytest.raises(FigpError) as e:
        load_training_data(path)
    assert str(e.value) == (f"training data {path!r} 'inputs' entry 1 "
                            "('sin('): unexpected end of expression "
                            "(at offset 4)")


def test_a_bad_model_reference_names_the_entry(tmp_path, square_grid):
    path = str(tmp_path / "model.json")
    save_model(path, _linear_and_nonlinear_models(square_grid)[0])
    blob = read_json(path)
    blob["inputs"][2] = "knot(0.5)"
    blob["payload_sha256"] = figp.storage._payload_sha256(blob)
    write_json(path, blob)
    with pytest.raises(FigpError) as e:
        load_model(path)
    assert str(e.value) == ("model 'inputs' entry 2 ('knot(0.5)'): "
                            "unknown identifier 'knot' (at offset 0)")


def test_a_bad_score_model_names_the_emulator_and_the_score_model(
        tmp_path, square_grid):
    path = str(tmp_path / "emulator.json")
    save_emulator(path, _two_score_emulator(square_grid))
    blob = read_json(path)
    model = blob["score_models"][1]
    model["inputs"][2] = "knot(0.5)"
    model["payload_sha256"] = figp.storage._payload_sha256(model)
    blob["payload_sha256"] = figp.storage._payload_sha256(blob)
    write_json(path, blob)
    with pytest.raises(FigpError) as e:
        load_emulator(path)
    assert str(e.value) == (f"emulator {path!r} score model 2: model "
                            "'inputs' entry 2 ('knot(0.5)'): unknown "
                            "identifier 'knot' (at offset 0)")
