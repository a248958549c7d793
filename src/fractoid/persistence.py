"""The on-disk formats: CSV tables, .npz archives and the JSON manifests
beside data files.

A table is a header line, then one line per row formatted by one format
string: ``%d`` for integer columns, ``%.17g`` (exact for float64) for float
columns and ``%s`` for the rest.  Tables stream: ``write_table`` takes the
rows as a sequence of column blocks and formats at most ROW_CHUNK rows per
write call, and ``read_table`` yields float blocks of at most ROW_CHUNK
rows from one open file, so neither holds a whole table.  An .npz archive
is read by ``read_arrays``, without pickles.  The manifest of ``x.csv`` or
``x.bin`` is ``x.manifest.json``, in canonical JSON (sorted keys, indent 2,
trailing newline).  A reader states the type of every manifest key it uses;
the readers raise ParameterError naming a file that does not hold what they
expect, and the key when one is missing or of the wrong type.
"""

from __future__ import annotations

import json
import zipfile
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ParameterError

ROW_CHUNK = 8192   # table rows per write call and per block read
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
        raise ParameterError(f"{where} must hold a JSON object"
                             + (" with the keys " + ", ".join(schema) if schema else ""))
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
    except OSError as exc:
        raise ParameterError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise ParameterError(f"{path} is not valid JSON: {exc}") from exc
    return check_fields(manifest, schema, path)


def write_table(path, header, blocks) -> None:
    """A header line, then the rows of each block in turn.  A block is a list
    of equal-length columns (arrays or lists), and its row i takes the i-th
    entry of every column; at most ROW_CHUNK rows go to one write call."""
    with open(path, "w", encoding="utf8") as fh:
        fh.write(",".join(header) + "\n")
        for columns in blocks:
            columns = [np.asarray(c) for c in columns]
            row = ",".join(_FORMATS.get(c.dtype.kind, "%s") for c in columns) + "\n"
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


def read_table(path, n_cols=None):
    """The rows of a numeric table, in file order, as float arrays of at most
    ROW_CHUNK rows, read from one open file; n_cols defaults to the number of
    header names.  A table without rows, a row of another width or a field
    that is not a number raises ParameterError."""
    rows = 0
    with open(path, "rb") as fh:
        header = fh.readline()
        if not header:
            raise ParameterError(f"{path} is empty: it has no header line")
        n_cols = n_cols or header.count(b",") + 1
        while fh.peek(1):
            try:
                block = np.loadtxt(fh, delimiter=",", ndmin=2, max_rows=ROW_CHUNK)
            except ValueError as exc:
                raise ParameterError(f"{path}: {exc} (in the block from row "
                                     f"{rows})") from exc
            if block.shape[0] == 0:         # only blank or comment lines were left
                break
            if block.shape[1] != n_cols:
                raise ParameterError(f"{path} must hold rows of {n_cols} numbers, found "
                                     f"{block.shape[1]} in the block from row {rows}")
            rows += len(block)
            yield block
    if not rows:
        raise ParameterError(f"{path} must hold rows of {n_cols} numbers, found none")


def read_arrays(path, names) -> dict:
    """The named arrays of the .npz archive at path, loaded without pickles."""
    try:
        # NpzFile, not np.load, which returns a .npy file's array instead
        with open(path, "rb") as fh, np.lib.npyio.NpzFile(fh, allow_pickle=False) as data:
            return {name: data[name] for name in names}
    except KeyError as exc:
        raise ParameterError(f"{path} holds no array {exc}") from exc
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ParameterError(f"{path} is not a readable .npz archive: {exc}") from exc
