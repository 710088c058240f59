"""File formats: training data, fitted models, CSV exports.

All writes are atomic (temp file then rename) and all numeric output
is formatted deterministically, so repeated runs with the same seed
produce byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import tempfile
from dataclasses import replace
from typing import Sequence

import numpy as np

from .designs import DecayCurve
from .domain import (
    GAUSS_LEGENDRE,
    Domain,
    FunctionalInput,
    QuadratureGrid,
    build_grid,
    sample_function,
)
from .emulator import FieldDataset, PCAEmulator
from .errors import FigpError
from .gp import GPModel, build_model
from .kernels import LINEAR, NONLINEAR, KernelSpec, MaternParams
from .sampling import PathFamily

MODEL_FORMAT = "figp-model"
EMULATOR_FORMAT = "figp-emulator"
# The one version of each file that figp writes and reads: a model
# carries its payload hash and Gram invariants, an emulator its own hash.
FORMAT_VERSION = 3
EMULATOR_VERSION = 4
# Saved and rebuilt Gram invariants may differ by GRAM_RTOL * n * max
# diag; another BLAS or product order moves them by about 1e-15 of that.
GRAM_RTOL = 1e-10
# A saved input's reference must rebuild its values to within
# REBUILD_RTOL of their largest magnitude: an expression evaluates to
# the same values again, and a CSV file reads back the numbers it holds.
REBUILD_RTOL = 1e-12


def fmt(v: float) -> str:
    """Deterministic shortest-round-trip float formatting."""
    return f"{float(v):.17g}"


def fmt6(v: float) -> str:
    """Report formatting: 6 significant digits (JSON keeps full precision)."""
    return f"{float(v):.6g}"


def atomic_write_text(path: str, text: str):
    """Write text to `path` via a temp file in the same directory."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header: Sequence[str], rows) -> None:
    """Write a header row and then `rows` (sequences of cells) as CSV."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_text(path, buf.getvalue())


def write_json(path: str, payload) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_json(path: str):
    """The JSON value in the file at `path`; FigpError if it is not JSON."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # bad JSON, or bytes that are not text
            raise FigpError(f"{path!r} is not a JSON file: {exc}") from None


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _list_of(ok):
    return lambda v: isinstance(v, list) and all(map(ok, v))


_is_numbers = _list_of(_is_number)
# Each kind a saved key can have: its test and its name in messages.
_KINDS = {
    "number": (_is_number, "a number"),
    "numbers": (_is_numbers, "a list of numbers"),
    "rows": (lambda v: _list_of(_is_numbers)(v) and len(set(map(len, v))) < 2,
             "a list of equal-length number rows"),
    "bounds": (_list_of(lambda b: _is_numbers(b) and len(b) == 2),
               "a list of [lower, upper] number pairs"),
    "counts": (_list_of(lambda s: type(s) is int and s > 0),
               "a list of positive integers"),
    "refs": (_list_of(lambda r: isinstance(r, str) or isinstance(r, dict)
                      and isinstance(r.get("csv"), str)),
             'a list of expressions, CSV paths or {"csv": path} objects'),
    "objects": (_list_of(lambda m: isinstance(m, dict)), "a list of objects"),
    "family": (lambda v: v in (LINEAR, NONLINEAR), "'linear' or 'nonlinear'"),
    "string": (lambda v: isinstance(v, str), "a string"),
    "object": (lambda v: isinstance(v, dict), "a JSON object"),
    "null": (lambda v: v is None, "null"),
}
# Each saved object's keys and their kinds: a `_KINDS` name, or several
# joined by "|" for any one of them; a trailing "?" lets the key be
# absent.  `build_grid` checks a grid's "resolution" itself.
_GRID = {"domain": "bounds", "rule": "string?"}
_TRAINING = {"inputs": "refs", "y": "numbers"}
_MANIFEST = {"field_shape": "counts"}
_KERNEL = {"variant": "family", "nu": "number", "sigma2": "number",
           "nugget": "number|null?", "premap": "string|null?"}
_KERNELS = {LINEAR: dict(_KERNEL, lengthscales="numbers"),
            NONLINEAR: dict(_KERNEL, gamma="number")}
_MODEL = {"kernel": "object", "grid": "object", "inputs": "refs",
          "y": "numbers", "mu_hat": "number", "log_likelihood": "number?",
          "gram": "object"}
_GRAM = {"diag": "numbers", "row_sums": "numbers", "nugget": "number"}
_EMULATOR = {"field_shape": "counts", "mean_field": "numbers",
             "components": "rows", "explained_variance_ratio": "numbers",
             "score_models": "objects"}


def _check(d, table: dict, what: str) -> None:
    """Raise FigpError naming `what` and the first key of `table` that
    `d`, a JSON object, lacks or holds a value of another kind."""
    if not isinstance(d, dict):
        raise FigpError(f"{what} is not a JSON object")
    for key, kind in table.items():
        kinds = [_KINDS[k] for k in kind.rstrip("?").split("|")]
        if key not in d and not kind.endswith("?"):
            raise FigpError(f"{what} is missing {key!r}")
        if key in d and not any(ok(d[key]) for ok, _ in kinds):
            raise FigpError(f"{what} {key!r} is not "
                            + " or ".join(name for _, name in kinds))


def _csv_numbers(path: str, line: int, cells) -> list:
    """`cells`, from line `line` of the CSV file at `path`, as floats;
    FigpError naming the file and the line if one is not a number."""
    try:
        return [float(v) for v in cells]
    except ValueError as exc:
        raise FigpError(f"{path!r} line {line}: {exc}") from None


def _finite_rows(path: str, rows) -> np.ndarray:
    """The numbers of `rows`, equal-length (line, numbers) pairs from the
    CSV file at `path`, as a float array; FigpError naming the file and
    the line of a value that is not finite."""
    data = np.array([numbers for _, numbers in rows])
    finite = np.isfinite(data).all(axis=-1)
    if not finite.all():
        raise FigpError(f"{path!r} line {rows[int(finite.argmin())][0]}: "
                        f"a value is not finite")
    return data


# ---------------------------------------------------------------------------
# grids and training data

def grid_to_dict(grid: QuadratureGrid) -> dict:
    return {
        "domain": [list(b) for b in grid.domain.bounds],
        "resolution": grid.resolution,
        "rule": grid.rule,
    }


def grid_from_dict(d: dict, what: str = "grid") -> QuadratureGrid:
    """The grid of `d`; FigpError naming `what` if its keys are not of
    the kinds `_GRID` gives, or its "resolution" (null for the default)
    or "rule" is not one `build_grid` takes."""
    _check(d, _GRID, what)
    domain = Domain(tuple(tuple(b) for b in d["domain"]))
    try:
        return build_grid(domain, d.get("resolution"),
                          d.get("rule", GAUSS_LEGENDRE))
    except FigpError as exc:
        raise FigpError(f"{what}: {exc}") from None


def _resolve_csv(path: str, base_dir: str) -> str:
    """A CSV path read from a file in `base_dir`, as a path from the
    current directory (absolute paths are kept)."""
    return os.path.normpath(os.path.join(base_dir, path))


def _relative_csv(path: str, base_dir: str) -> str:
    """A CSV path from the current directory, as a path relative to
    `base_dir`, for writing into a file in `base_dir` (absolute paths
    are kept, so the file can still be moved)."""
    if os.path.isabs(path):
        return path
    return os.path.relpath(path, base_dir or os.curdir)


def input_from_reference(ref, grid: QuadratureGrid,
                         base_dir: str) -> FunctionalInput:
    """Resolve a serialized input: an expression string, or a CSV path
    given as a string ending in ".csv" or as a mapping {"csv": path}.
    A relative CSV path is taken relative to `base_dir`, the directory
    of the file holding the reference.

    The ".csv" suffix cannot hide an expression: a "." only appears
    inside a number, and no token may follow a number directly, so no
    string ending in ".csv" parses as one."""
    if isinstance(ref, dict) and isinstance(ref.get("csv"), str):
        return load_input_csv(_resolve_csv(ref["csv"], base_dir), grid)
    if isinstance(ref, str):
        if ref.endswith(".csv"):
            return load_input_csv(_resolve_csv(ref, base_dir), grid)
        return sample_function(ref, grid)
    raise FigpError(f"cannot resolve functional input reference {ref!r}")


def input_to_reference(g: FunctionalInput, base_dir: str):
    """The serialized form of a labeled input: its expression string,
    or its CSV path made relative to `base_dir`, the directory of the
    file being written.  FigpError naming the input unless
    `input_from_reference`, as the load runs it, rebuilds the input's
    values from that form to within REBUILD_RTOL of their largest
    magnitude."""
    if g.label is None:
        raise FigpError(
            "only labeled inputs (expression strings or CSV paths) can be "
            "serialized"
        )
    ref = (_relative_csv(g.label, base_dir) if g.label.endswith(".csv")
           else g.label)
    try:
        rebuilt = input_from_reference(ref, g.grid, base_dir)
    except (FigpError, OSError) as exc:
        raise FigpError(f"input {g.label!r} cannot be saved: {exc}") from None
    off = float(np.max(np.abs(rebuilt.values - g.values)))
    tol = REBUILD_RTOL * float(np.max(np.abs(g.values)))
    if not off <= tol:
        raise FigpError(f"input {g.label!r} cannot be saved: its label "
                        f"rebuilds values {off:.3g} off (tolerance {tol:.3g})")
    return ref


def _inputs_from_references(refs, grid: QuadratureGrid, base_dir: str,
                            what: str) -> list:
    """The inputs that `refs`, the 'inputs' of `what`, name; FigpError
    naming `what`, the entry and its reference if one does not resolve."""
    inputs = []
    for i, ref in enumerate(refs):
        try:
            inputs.append(input_from_reference(ref, grid, base_dir))
        except FigpError as exc:
            raise FigpError(
                f"{what} 'inputs' entry {i} ({ref!r}): {exc}") from None
    return inputs


def load_training_data(path: str):
    """Load {domain, resolution, rule, inputs, y} training data."""
    d, what = read_json(path), f"training data {path!r}"
    _check(d, _TRAINING, what)
    grid = grid_from_dict(d, what)
    inputs = _inputs_from_references(d["inputs"], grid, os.path.dirname(path),
                                     what)
    y = np.asarray(d["y"], dtype=float)
    if y.size != len(inputs):
        raise FigpError(f"{what} 'y' length does not match 'inputs'")
    return grid, inputs, y


def save_training_data(path: str, grid: QuadratureGrid,
                       inputs: Sequence[FunctionalInput], y) -> None:
    payload = dict(grid_to_dict(grid))
    payload["inputs"] = [input_to_reference(g, os.path.dirname(path))
                         for g in inputs]
    payload["y"] = [float(v) for v in np.asarray(y, dtype=float)]
    write_json(path, payload)


def load_input_csv(path: str, grid: QuadratureGrid) -> FunctionalInput:
    """Read a functional input from CSV with d coordinate columns and a
    final value column after a header line; rows must match the grid
    nodes in order, and empty lines are skipped."""
    d = grid.domain.dim
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        rows = [(reader.line_num, _csv_numbers(path, reader.line_num, r))
                for r in reader if r]
    if any(len(r) != d + 1 for _, r in rows):
        raise FigpError(
            f"{path!r}: expected {d} coordinate columns plus one value column"
        )
    data = _finite_rows(path, rows).reshape(-1, d + 1)
    if data.shape[0] != grid.n_points:
        raise FigpError(
            f"{path!r}: {data.shape[0]} rows but the grid has "
            f"{grid.n_points} nodes"
        )
    if not np.allclose(data[:, :d], grid.nodes, atol=1e-9, rtol=0.0):
        raise FigpError(f"{path!r}: coordinates do not match the grid nodes")
    return FunctionalInput(grid, data[:, d], label=path)


# ---------------------------------------------------------------------------
# kernel specs and models

def kernel_spec_to_dict(spec: KernelSpec) -> dict:
    d = {
        "variant": spec.family,
        "nu": spec.base.nu,
        "sigma2": spec.base.sigma2,
        "nugget": spec.nugget,
        "premap": spec.premap,
    }
    if spec.family == LINEAR:
        d["lengthscales"] = list(spec.base.lengthscales)
    else:
        d["gamma"] = spec.gamma
    return d


def kernel_spec_from_dict(d: dict) -> KernelSpec:
    linear = isinstance(d, dict) and d.get("variant") == LINEAR
    _check(d, _KERNELS[LINEAR if linear else NONLINEAR], "model kernel")
    if linear:
        params = MaternParams(d["nu"], d["sigma2"],
                              tuple(d["lengthscales"]))
        return KernelSpec(LINEAR, params, premap=d.get("premap"),
                          nugget=d.get("nugget"))
    params = MaternParams(d["nu"], d["sigma2"])
    return KernelSpec(d["variant"], params, gamma=d["gamma"],
                      nugget=d.get("nugget"))


def _payload_sha256(d: dict) -> str:
    """SHA-256 of the canonical JSON of `d` without "payload_sha256"."""
    body = json.dumps({k: v for k, v in d.items() if k != "payload_sha256"},
                      sort_keys=True)
    return hashlib.sha256(body.encode()).hexdigest()


def _check_payload(d, file_format: str, version: int) -> None:
    """Raise FigpError unless `d` is a `file_format` payload of the
    integer `version`, the one figp writes, that matches its
    `payload_sha256`, which catches any edit after the save."""
    if not isinstance(d, dict) or d.get("format") != file_format:
        raise FigpError(f"not a {file_format} file: wrong 'format'")
    if type(d.get("version")) is not int or d["version"] != version:
        raise FigpError(f"unsupported {file_format} file version "
                        f"{d.get('version')!r} (figp reads version {version}"
                        "): fit it again from its training data")
    if d.get("payload_sha256") != _payload_sha256(d):
        raise FigpError(f"{file_format} payload check failed: the file was "
                        "edited after it was saved (payload_sha256 mismatch)")


def _gram_invariants(model: GPModel) -> dict:
    """The Gram's per-input diagonal and row sums, and its nugget."""
    K = model.factorization.gram
    return {"diag": K.diagonal().tolist(), "row_sums": K.sum(axis=1).tolist(),
            "nugget": model.factorization.nugget}


def _check_gram(stored: dict, model: GPModel, refs) -> None:
    """Raise FigpError naming the first invariant (and input) of the
    model's Gram that is off `stored` by more than GRAM_RTOL * n * max diag,
    after checking the kinds of `stored` and the lengths of its lists."""
    _check(stored, _GRAM, "model gram")
    found = _gram_invariants(model)
    tol = GRAM_RTOL * model.n * max(found["diag"])
    for key in ("diag", "row_sums", "nugget"):
        if np.size(stored[key]) != np.size(found[key]):
            raise FigpError(f"model gram {key!r} has {np.size(stored[key])} "
                            f"entries for {model.n} inputs")
        delta = np.abs(np.subtract(found[key], stored[key])).ravel()
        bad = np.flatnonzero(~(delta <= tol))
        if bad.size:
            i = bad[0]
            where = "" if key == "nugget" else f" of input {i} ({refs[i]!r})"
            raise FigpError(
                f"model Gram check failed: the rebuilt `{key}`{where} is "
                f"{delta[i]:.3g} off the saved one (tolerance {tol:.3g})")


def model_to_dict(model: GPModel, base_dir: str) -> dict:
    """The model-file payload; CSV input paths are written relative to
    `base_dir`, the directory of the file being written."""
    d = {
        "format": MODEL_FORMAT,
        "version": FORMAT_VERSION,
        "kernel": kernel_spec_to_dict(model.spec),
        "mu_hat": model.mu_hat,
        "log_likelihood": model.log_likelihood,
        "grid": grid_to_dict(model.inputs[0].grid),
        "inputs": [input_to_reference(g, base_dir) for g in model.inputs],
        "y": [float(v) for v in model.y],
        "gram": _gram_invariants(model),
    }
    d["payload_sha256"] = _payload_sha256(d)
    return d


def save_model(path: str, model: GPModel) -> None:
    write_json(path, model_to_dict(model, os.path.dirname(path)))


def model_from_dict(d: dict, base_dir: str) -> GPModel:
    """Rebuild a model from its payload; relative CSV input paths are
    taken relative to `base_dir`, the directory of the file read.

    The payload must be of version FORMAT_VERSION and match its
    `payload_sha256`, which catches any edit, its keys must have the
    kinds `_MODEL` gives, and its rebuilt Gram must match the saved
    invariants (`_check_gram`), which catch a changed CSV input;
    FigpError names the failed check."""
    _check_payload(d, MODEL_FORMAT, FORMAT_VERSION)
    _check(d, _MODEL, "model")
    spec = kernel_spec_from_dict(d["kernel"])
    grid = grid_from_dict(d["grid"], "model grid")
    inputs = _inputs_from_references(d["inputs"], grid, base_dir, "model")
    model = replace(build_model(spec, inputs, d["y"], mu=d["mu_hat"]),
                    log_likelihood=float(d.get("log_likelihood", "nan")))
    _check_gram(d["gram"], model, d["inputs"])
    return model


def load_model(path: str) -> GPModel:
    return model_from_dict(read_json(path), os.path.dirname(path))


# ---------------------------------------------------------------------------
# emulators

def emulator_to_dict(emulator: PCAEmulator, base_dir: str) -> dict:
    """The emulator-file payload, with its own `payload_sha256`."""
    d = {
        "format": EMULATOR_FORMAT,
        "version": EMULATOR_VERSION,
        "field_shape": list(emulator.field_shape),
        "mean_field": [float(v) for v in emulator.mean_field],
        "components": [[float(v) for v in row] for row in emulator.components],
        "explained_variance_ratio": [
            float(v) for v in emulator.explained_variance_ratio
        ],
        "score_models": [model_to_dict(m, base_dir)
                         for m in emulator.score_models],
    }
    d["payload_sha256"] = _payload_sha256(d)
    return d


def save_emulator(path: str, emulator: PCAEmulator) -> None:
    write_json(path, emulator_to_dict(emulator, os.path.dirname(path)))


def load_emulator(path: str) -> PCAEmulator:
    """Load an emulator file, checking its own payload hash and each
    score model as `model_from_dict` does; FigpError names the file and
    the score model (1-based, as `fit_emulator` names components)."""
    d = read_json(path)
    _check_payload(d, EMULATOR_FORMAT, EMULATOR_VERSION)
    _check(d, _EMULATOR, "emulator")
    models = []
    for j, md in enumerate(d["score_models"], start=1):
        try:
            models.append(model_from_dict(md, os.path.dirname(path)))
        except FigpError as exc:
            raise FigpError(f"emulator {path!r} score model {j}: "
                            f"{exc}") from None
    return PCAEmulator(d["mean_field"], d["components"], tuple(models),
                       d["explained_variance_ratio"], d["field_shape"])


# ---------------------------------------------------------------------------
# field datasets

def load_field_dataset(fields_csv: str, manifest_path: str) -> FieldDataset:
    """Load a field dataset from a CSV (header input,v1,...,vp, then a
    label and p values per row) plus a manifest carrying the grid
    definition and field shape; FigpError names a manifest key that is
    not of the kind `_MANIFEST` or `_GRID` gives, or the CSV line of a
    bad header, label or value or of a row shorter or longer than the
    first."""
    manifest = read_json(manifest_path)
    what = f"manifest {manifest_path!r}"
    _check(manifest, _MANIFEST, what)
    grid = grid_from_dict(manifest, what)
    base_dir = os.path.dirname(fields_csv)
    inputs, rows = [], []
    with open(fields_csv, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "input":
            raise FigpError(f"{fields_csv!r} line 1: the header must start "
                            f"with 'input', got {','.join(header or [])!r}")
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            where = f"{fields_csv!r} line {line}"
            if rows and len(row) != len(rows[0][1]) + 1:
                raise FigpError(
                    f"{where}: expected {len(rows[0][1])} field values as "
                    f"on the first row, got {len(row) - 1}")
            try:
                inputs.append(input_from_reference(row[0], grid, base_dir))
            except FigpError as exc:
                raise FigpError(f"{where}: {exc}") from None
            rows.append((line, _csv_numbers(fields_csv, line, row[1:])))
    if not inputs:
        raise FigpError(f"{fields_csv!r} has no data rows")
    return FieldDataset(inputs, _finite_rows(fields_csv, rows),
                        manifest["field_shape"])


def save_field_dataset(fields_csv: str, manifest_path: str,
                       dataset: FieldDataset) -> None:
    base_dir = os.path.dirname(fields_csv)
    refs = [input_to_reference(g, base_dir) for g in dataset.inputs]
    manifest = dict(grid_to_dict(dataset.inputs[0].grid))
    manifest["field_shape"] = list(dataset.field_shape)
    write_json(manifest_path, manifest)
    write_csv(fields_csv, ["input"] + [f"v{j + 1}" for j in range(dataset.p)],
              ([ref] + [fmt(v) for v in row]
               for ref, row in zip(refs, dataset.fields)))


# ---------------------------------------------------------------------------
# CSV exports

def _number_rows(header: Sequence[str], rows, row_format: str) -> str:
    """CSV text of `header`, then of each row of numbers in `rows`
    formatted by the one %-string `row_format` ("%.6g" per cell is what
    `fmt6` writes, and a number never needs csv quoting)."""
    lines = [",".join(header)] + [row_format % tuple(row) for row in rows]
    return "\n".join(lines) + "\n"


def path_family_csv(family: PathFamily) -> str:
    header = " ".join(f"{k}={v}" for k, v in sorted(family.params.items()))
    rows = np.column_stack((family.index_values, family.draws.T))
    return f"# {header}\n" + _number_rows(
        ["alpha"] + [f"path{i + 1}" for i in range(family.n_paths)],
        rows.tolist(), ",".join(["%.6g"] * rows.shape[1]))


def save_path_family(path: str, family: PathFamily) -> None:
    atomic_write_text(path, path_family_csv(family))


def decay_curve_csv(curve: DecayCurve) -> str:
    rate = "" if curve.theoretical_rate is None else fmt6(curve.theoretical_rate)
    return (
        f"# slope={fmt6(curve.slope)} slope_se={fmt6(curve.slope_se)} "
        f"theoretical_rate={rate} method={curve.method}\n"
    ) + _number_rows(["n", "mspe", "se"],
                     zip(curve.sizes.tolist(), curve.mspe.tolist(),
                         curve.se.tolist()), "%d,%.6g,%.6g")


def save_decay_curve(path: str, curve: DecayCurve) -> None:
    atomic_write_text(path, decay_curve_csv(curve))
