"""CSV / JSON ingestion and emission shared by the CLI and tests.

CSV conventions: comma-separated, ``#`` starts a comment, optional single
header row (detected by non-numeric first field).  Malformed data rows and
non-finite values raise CsvFormatError naming the 1-based line number.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np


class CsvFormatError(ValueError):
    """A CSV row failed to parse; the message names the line number."""


def read_columns(path: str | Path, n_min: int = 2, n_max: int | None = None) -> np.ndarray:
    """Numeric columns from a CSV file, shape (rows, columns).

    Accepts between ``n_min`` and ``n_max`` (default: n_min) columns; all
    data rows must have the same width.  numpy parses the file whole; a file
    it rejects, or one holding NaN or inf, is parsed again line by line, as
    float() parses, to name the line at fault.
    """
    if n_max is None:
        n_max = n_min
    with open(path, newline="") as fh:
        heads = [_fields(fh.readline()) for _ in range(2)]
    # the row parser's rule: a non-numeric line 1 is a header, and so is a
    # non-numeric line 2 when no data row came before it
    header = 0
    for lineno, fields in enumerate(heads, start=1):
        try:
            [float(f) for f in fields]
        except ValueError:
            header = lineno
            continue
        if fields:
            break
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a file without data rows
            data = np.loadtxt(path, delimiter=",", comments="#", skiprows=header, ndmin=2)
        if data.size and n_min <= data.shape[1] <= n_max and np.isfinite(data).all():
            return data
    except ValueError:
        pass
    return _read_rows(path, n_min, n_max)


def _fields(line: str) -> list[str]:
    """The non-empty fields of a CSV line, its ``#`` comment removed."""
    return [f.strip() for f in next(csv.reader([line.partition("#")[0]])) if f.strip()]


def _read_rows(path: str | Path, n_min: int, n_max: int) -> np.ndarray:
    rows: list[list[float]] = []
    width: int | None = None
    with open(path, newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = _fields(line)
            if not fields:
                continue
            try:
                values = [float(f) for f in fields]
            except ValueError:
                if lineno == 1 or (lineno == 2 and not rows):
                    continue  # header row
                raise CsvFormatError(f"{path}: line {lineno}: non-numeric field in {fields!r}") from None
            if not all(map(math.isfinite, values)):
                raise CsvFormatError(f"{path}: line {lineno}: non-finite value in {fields!r}")
            if not n_min <= len(values) <= n_max:
                raise CsvFormatError(
                    f"{path}: line {lineno}: expected {n_min}"
                    + (f"..{n_max}" if n_max != n_min else "")
                    + f" columns, got {len(values)}"
                )
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise CsvFormatError(f"{path}: line {lineno}: ragged row ({len(values)} vs {width} columns)")
            rows.append(values)
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    return np.asarray(rows, dtype=float)


# rows of ``columns`` turned into text and written at a time: bounds the
# strings held in memory, whatever the length of the columns
_CHUNK_ROWS = 512

# a float column with at most this many distinct bit patterns formats each
# pattern once, into a table of texts
_TABLE_ROWS = 4096


def write_csv(path: str | Path, header: list[str], rows=(), *, columns=None) -> None:
    """A header row, then ``rows`` or the rows of equal-length 1-D numeric arrays ``columns``.

    Columns are written as ``csv.writer`` writes their ``tolist()`` rows,
    byte for byte: ``str()`` of each value, comma-separated, ``\\r\\n``-ended.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        if columns is None:
            w.writerows(rows)
            return
        arrays = [np.asarray(c) for c in columns]
        texts = [_column_text(a) for a in arrays]
        n = min((a.size for a in arrays), default=0)
        for start in range(0, n, _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, n)
            fh.write("\r\n".join(map(",".join, zip(*(text(start, stop) for text in texts)))))
            fh.write("\r\n")


def _column_text(column: np.ndarray):
    """A function of (start, stop) listing ``str()`` of each value of column[start:stop].

    A float column with at most _TABLE_ROWS distinct bit patterns (the gap
    and wavelength columns of a dispersion map) formats each pattern once,
    into a table, and looks up each chunk's patterns in it; -0.0 and each
    NaN keep their own text.  A column whose first _TABLE_ROWS + 1 values
    are all distinct has more patterns than that, so it is not sorted.
    """
    if column.ndim != 1 or column.dtype.kind not in "biuf":
        raise TypeError(f"columns must be 1-D numeric arrays, got {column.dtype} with shape {column.shape}")
    if column.dtype.kind == "f" and column.itemsize <= 8:
        bits = column.view(f"u{column.itemsize}")
        if _distinct(bits[: _TABLE_ROWS + 1]).size <= _TABLE_ROWS and (distinct := _distinct(bits)).size <= _TABLE_ROWS:
            table = np.array([str(v) for v in distinct.view(column.dtype).tolist()], dtype=object)
            return lambda start, stop: table[np.searchsorted(distinct, bits[start:stop])].tolist()
    return lambda start, stop: list(map(str, column[start:stop].tolist()))


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D array, ascending."""
    ordered = np.sort(values)
    return np.concatenate((ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]))


def write_json(path: str | Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def sha256_of(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()
