"""The on-disk formats: CSV tables and the JSON manifests beside data files.

A table is a header line, then one line per row formatted by one format
string: ``%d`` for integer columns, ``%.17g`` (exact for float64) for float
columns and ``%s`` for the rest.  The manifest of ``x.csv`` or ``x.bin`` is
``x.manifest.json``, in canonical JSON (sorted keys, indent 2, trailing
newline).  A reader states the type of every manifest key it uses; the
readers raise ParameterError naming a file that does not hold what they
expect, and the key when one is missing or of the wrong type.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ParameterError

ROW_CHUNK = 8192   # table rows formatted per write call
_FORMATS = {"i": "%d", "f": "%.17g"}

NUMBER = (int, float)
_TYPE_NAMES = {str: "a string", int: "an integer", NUMBER: "a number",
               bool: "true or false", list: "a list", dict: "an object"}


def manifest_for(path) -> Path:
    """The manifest beside a data file: x.csv -> x.manifest.json."""
    return Path(path).with_suffix(".manifest.json")


def write_manifest(path, manifest: dict) -> None:
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                          encoding="utf8")


def check_fields(obj, schema: dict, where) -> dict:
    """obj, which must be a JSON object holding every key of schema with a
    value of its type: str, int, NUMBER, bool, list or dict.  A boolean is
    neither an integer nor a number here.  where names obj in the error."""
    if not isinstance(obj, dict) or not schema.keys() <= obj.keys():
        raise ParameterError(f"{where} must hold a JSON object with the keys "
                             + ", ".join(schema))
    for key, kind in schema.items():
        value = obj[key]
        if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
            raise ParameterError(f"{where}: key '{key}' must be {_TYPE_NAMES[kind]}, "
                                 f"found {type(value).__name__}")
    return obj


def read_manifest(path, schema: dict) -> dict:
    """The JSON object in path, checked against schema as by check_fields."""
    try:
        manifest = json.loads(Path(path).read_text(encoding="utf8"))
    except ValueError as exc:
        raise ParameterError(f"{path} is not valid JSON: {exc}") from exc
    return check_fields(manifest, schema, path)


def write_table(path, header, columns) -> None:
    """A header line, then row i from the i-th entry of every column (equal
    length arrays or lists), ROW_CHUNK rows per write call."""
    columns = [np.asarray(c) for c in columns]
    row = ",".join(_FORMATS.get(c.dtype.kind, "%s") for c in columns) + "\n"
    with open(path, "w", encoding="utf8") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(0, len(columns[0]), ROW_CHUNK):
            part = [c[i:i + ROW_CHUNK].tolist() for c in columns]
            fh.write(row * len(part[0]) % tuple(chain.from_iterable(zip(*part))))


def float_text(values) -> np.ndarray:
    """values as the text write_table gives a float column, in an object
    array: a column that repeats a few values can tile their text, formatted
    once, and is then written as a text column."""
    fmt = _FORMATS["f"]
    return np.array([fmt % v for v in np.asarray(values, dtype=float).tolist()],
                    dtype=object)


def read_table(path, n_cols=None) -> np.ndarray:
    """The rows of a numeric table as a non-empty (rows, n_cols) float array;
    n_cols defaults to the number of header names."""
    with open(path, encoding="utf8") as fh:
        n_cols = n_cols or fh.readline().count(",") + 1
    try:
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ParameterError(f"{path}: {exc}") from exc
    if rows.shape[0] == 0 or rows.shape[1] != n_cols:
        raise ParameterError(f"{path} must hold rows of {n_cols} numbers, found "
                             f"{rows.shape[0]} rows of {rows.shape[1]}")
    return rows
