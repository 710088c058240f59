"""Mutation sweeps over every saved file kind.

Each key of a saved training file, manifest, model (linear and
nonlinear, re-hashed) and emulator (re-hashed) is set in turn to each
wrong value in `_WRONG`, or deleted, and the file is loaded.  Every case
must load or raise a FigpError that names the key.  Each cell of an
input CSV and of a fields CSV is set in turn to each value in `_CELLS`
(`_LABELS` for a fields CSV's input column), and each of their lines
goes through each of `_ROW_EDITS`.  Every case must load, raise a
FigpError, or raise an OSError that names the file it could not open;
a fields CSV's FigpError names the file and a line of it, and a fields
CSV without its header line must not load.  Each failure lists every
offender.
"""

import json
import math
import re
import warnings

import numpy as np

from figp import (Domain, FigpError, KernelSpec, LINEAR, MaternParams,
                  NONLINEAR, PCAEmulator, build_grid, build_model,
                  sample_function)
from figp.storage import (_payload_sha256, emulator_to_dict, fmt,
                          load_emulator, load_field_dataset,
                          load_training_data, model_from_dict, model_to_dict)

_WRONG = [None, True, 0, -1, 0.5, 1e308, math.nan, math.inf, "abc", "", [],
          [1], [[1]], ["abc"], [None], {}, {"a": 1}]
_DELETE = object()
# Keys whose null or absence stands for a default: any kind may be
# reported by the check that uses the value.
_OPTIONAL = {"rule", "resolution", "nugget", "premap", "log_likelihood"}
# Sections of a model payload whose own keys are mutated too.
_NESTED = ("kernel", "grid", "gram")


def _base_files():
    """The unmutated payloads, by file kind."""
    grid = build_grid(Domain(((0.0, 1.0),)), 8)
    refs = ["x1", "1+x1", "x1^2"]
    inputs = [sample_function(e, grid) for e in refs]
    y = [0.5, 1.5, 0.25]
    grid_keys = {"domain": [[0.0, 1.0]], "resolution": 8,
                 "rule": "gauss-legendre"}
    linear = build_model(KernelSpec(LINEAR, MaternParams(2.5, 0.9, (0.8,))),
                         inputs, y)
    nonlinear = build_model(KernelSpec(NONLINEAR, MaternParams(2.5, 0.8),
                                       gamma=0.6), inputs, y)
    emulator = PCAEmulator(np.array([1.0, 2.0]), np.eye(2),
                           (linear, nonlinear), np.array([0.9, 0.1]), (2,))
    return {
        "training": dict(grid_keys, inputs=refs, y=y),
        "manifest": dict(grid_keys, field_shape=[2]),
        "model-3-linear": model_to_dict(linear, ""),
        "model-3-nonlinear": model_to_dict(nonlinear, ""),
        "emulator-4": emulator_to_dict(emulator, ""),
    }


def _mutations(payload):
    """(key path, saved value, new value) for every key of `payload` and
    of its nested model sections, and every wrong value or `_DELETE`."""
    paths = [(key,) for key in payload]
    paths += [(section, key) for section in _NESTED
              if isinstance(payload.get(section), dict)
              for key in payload[section]]
    for path in paths:
        parent = payload if len(path) == 1 else payload[path[0]]
        for value in _WRONG + [_DELETE]:
            yield path, parent[path[-1]], value


def _mutated(payload, path, value):
    d = json.loads(json.dumps(payload))
    parent = d if len(path) == 1 else d[path[0]]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    if "payload_sha256" in d and path != ("payload_sha256",):
        d["payload_sha256"] = _payload_sha256(d)
    return d


def _kind(v):
    """The JSON kind of `v`; a list's is the set of its elements' kinds."""
    if isinstance(v, list):
        return frozenset(map(_kind, v))
    return {bool: "bool", int: "number", float: "number", str: "string",
            dict: "object", type(None): "null"}[type(v)]


def _must_be_named(key, old, new):
    """Whether replacing `old` by `new` at `key` (or deleting it) gives
    the key a wrong kind or takes a required key away.  A value of the
    right kind may still conflict with another key, and the check that
    finds the conflict reports it in its own terms."""
    if key in _OPTIONAL:
        return False
    if new is _DELETE:
        return True
    if isinstance(old, list) and isinstance(new, list):
        return not _kind(new) <= _kind(old)
    return _kind(new) != _kind(old)


def _load(kind, d, tmp_path):
    """Load the payload `d` of file kind `kind` as its loader does.  A
    load may warn (numpy on an extreme number); only how it ends counts
    here."""
    path = tmp_path / "file.json"
    path.write_text(json.dumps(d))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if kind == "training":
            load_training_data(str(path))
        elif kind == "manifest":
            load_field_dataset(str(tmp_path / "fields.csv"), str(path))
        elif kind.startswith("model"):
            model_from_dict(d, str(tmp_path))
        else:
            load_emulator(str(path))


def test_no_single_key_mutation_ends_in_a_traceback(tmp_path):
    (tmp_path / "fields.csv").write_text(
        "input,v1,v2\nx1,0.5,1.0\n1+x1,1.5,2.0\nx1^2,0.25,0.5\n")
    offenders = []
    for kind, payload in _base_files().items():
        _load(kind, payload, tmp_path)
        for path, old, value in _mutations(payload):
            case = (kind, ".".join(path),
                    "<deleted>" if value is _DELETE else repr(value))
            try:
                _load(kind, _mutated(payload, path, value), tmp_path)
            except FigpError as exc:
                if (_must_be_named(path[-1], old, value)
                        and not re.search(rf"\b{path[-1]}\b", str(exc))):
                    offenders.append(case + (f"FigpError: {exc}",))
            except Exception as exc:
                offenders.append(case + (f"{type(exc).__name__}: {exc}",))
    assert not offenders, (f"{len(offenders)} cases:\n"
                           + "\n".join(map(str, offenders)))


_CELLS = ["", "abc", "nan", "inf", "1e400", '"x"', "0x10", "1,2"]
# An input label may also be an expression that does not evaluate on the
# grid, or a CSV path that names no file.
_LABELS = _CELLS + ["x9", "sin(", "x1/0", "missing.csv"]
_ROW_EDITS = {"delete": lambda line: [],
              "duplicate": lambda line: [line, line],
              "blank": lambda line: [""],
              "one cell": lambda line: line.split(",")[:1],
              "extra cell": lambda line: [line + ",1"]}


def _csv_mutations(text, labeled):
    """(line number, edit, mutated text) for each cell of each line of
    the CSV `text` set to each value in `_CELLS` (`_LABELS` in the first
    column when `labeled`), and for each line and each `_ROW_EDITS`."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        cells = line.split(",")
        edits = [(f"cell {j} = {value!r}",
                  [",".join(cells[:j] + [value] + cells[j + 1:])])
                 for j in range(len(cells))
                 for value in (_LABELS if labeled and j == 0 else _CELLS)]
        edits += [(name, edit(line)) for name, edit in _ROW_EDITS.items()]
        for name, new in edits:
            yield i + 1, name, "\n".join(lines[:i] + new + lines[i + 1:]) + "\n"


def test_no_csv_cell_or_row_mutation_ends_in_a_traceback(tmp_path):
    grid = build_grid(Domain(((0.0, 1.0),)), 8)
    training = tmp_path / "training.json"
    training.write_text(json.dumps({
        "domain": [[0.0, 1.0]], "resolution": 8,
        "inputs": ["c0.csv", "1+x1", "x1^2"], "y": [0.5, 1.5, 0.25]}))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"domain": [[0.0, 1.0]], "resolution": 8,
                                    "field_shape": [2]}))
    fields = tmp_path / "fields.csv"
    inputs = tmp_path / "c0.csv"
    loads = {
        inputs: (False, lambda: load_training_data(str(training))),
        fields: (True, lambda: load_field_dataset(str(fields),
                                                  str(manifest)))}
    base = {inputs: "x1,value\n" + "".join(
                f"{fmt(x)},{fmt(x * x)}\n" for x in grid.nodes[:, 0]),
            fields: "input,v1,v2\nx1,0.5,1.0\n1+x1,1.5,2.0\nx1^2,0.25,0.5\n"}
    offenders = []
    for path, (labeled, load) in loads.items():
        for other, text in base.items():
            other.write_text(text)
        load()
        for line, edit, text in _csv_mutations(base[path], labeled):
            path.write_text(text)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    load()
            except FigpError as exc:
                # a fields CSV error names the file and a line of it
                if labeled and not re.search(
                        rf"'[^']*{re.escape(path.name)}' line \d+: ",
                        str(exc)):
                    offenders.append((path.name, line, edit, f"{exc}"))
            except OSError as exc:
                if not (exc.filename and str(exc.filename) in str(exc)):
                    offenders.append((path.name, line, edit, repr(exc)))
            except Exception as exc:
                offenders.append((path.name, line, edit,
                                  f"{type(exc).__name__}: {exc}"))
            else:
                # without its header line, a fields CSV must not load
                if labeled and (line, edit) == (1, "delete"):
                    offenders.append((path.name, line, edit, "loaded"))
    assert not offenders, (f"{len(offenders)} cases:\n"
                           + "\n".join(map(str, offenders)))
