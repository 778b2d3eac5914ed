"""CSV / JSON ingestion and emission shared by the CLI and tests.

CSV conventions: comma-separated, ``#`` starts a comment, optional single
header row (detected by non-numeric first field).  Malformed data rows and
non-finite values raise CsvFormatError naming the 1-based line number.

Numeric columns are written as ``str()`` prints each value, byte for byte,
by one bulk printer in numpy (:mod:`microcav.printer`): floats by their
shortest round-trip digits (Schubfach, in uint64 arithmetic), integers by a
table of 4-digit groups.  Zero, subnormals, inf and nan, rare in a trace,
are printed by ``str()``.
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


# rows of ``columns`` printed and written at a time: bounds the slots and
# temporaries held in memory (about 600 B a row for three float columns),
# whatever the length of the columns
_CHUNK_ROWS = 4000

# a float column with at most this many distinct bit patterns prints each
# pattern once, into a table of slot rows
_TABLE_ROWS = 4096

# a bool's byte slots: the letters of "False"
_BOOL_SLOTS = 5


def write_csv(path: str | Path, header: list[str], rows=(), *, columns=None) -> None:
    """A header row, then ``rows`` or the rows of equal-length 1-D numeric arrays ``columns``.

    Columns are written as ``csv.writer`` writes their ``tolist()`` rows,
    byte for byte: ``str()`` of each value, comma-separated, ``\\r\\n``-ended.
    They are printed in bulk, _CHUNK_ROWS rows at a time, by
    :mod:`microcav.printer`: each value fills a fixed row of byte slots and
    marks the slots its text uses, and one masked copy joins a chunk's texts
    and separators into bytes.  A float prints the shortest digits that read
    back to it, as ``repr`` does; zero, subnormals, inf and nan are printed
    by ``str()`` itself.  Columns of unequal length raise ValueError before
    the file is opened.
    """
    if columns is not None:
        arrays = [np.asarray(c) for c in columns]
        printers = [_column_printer(a) for a in arrays]
        lengths = [a.size for a in arrays]
        if len(set(lengths)) > 1:
            raise ValueError(f"columns must have equal lengths, got {lengths}")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if columns is None:
            writer.writerows(rows)
            return
        fh.flush()  # the rows go to the byte stream under the header's text
        n = lengths[0] if lengths else 0
        for start in range(0, n, _CHUNK_ROWS):
            fh.buffer.write(_chunk_text(printers, start, min(start + _CHUNK_ROWS, n)))


def _chunk_text(printers, start: int, stop: int) -> np.ndarray:
    """The bytes of rows start:stop: each column's slots and then "," (the last "\\r\\n"), joined by one masked copy."""
    width = sum(w for w, _ in printers) + len(printers) + 1
    slots = np.empty((stop - start, width), np.uint8)
    keep = np.empty((stop - start, width), bool)
    at = 0
    for w, fill in printers:
        fill(slots[:, at : at + w], keep[:, at : at + w], start, stop)
        slots[:, at + w] = ord(",")
        keep[:, at + w] = True
        at += w + 1
    slots[:, at - 1 :] = (ord("\r"), ord("\n"))
    keep[:, at] = True
    return slots[keep]


def _column_printer(column: np.ndarray):
    """(width, fill): fill(slots, keep, start, stop) prints column[start:stop] into rows of ``width`` byte slots.

    The printed text of each value is ``str()`` of its ``tolist()`` value:
    the slots ``keep`` marks, in order.  Integers are printed per value.
    So are floats, widened exactly to float64, except that a float column
    with at most min(_TABLE_ROWS, rows / 2) distinct bit patterns (the gap
    and wavelength columns of a dispersion map) prints each pattern once,
    into a table, and looks up each chunk's patterns in it; -0.0 and each
    NaN keep their own text.  A column whose first (that limit) + 1 values
    are all distinct has more patterns, so it is not sorted.  A bool column
    looks its values up in the table of "False" and "True".
    """
    # loaded (and, where bytecode is not cached, compiled) only by the
    # commands that write columns, not by every import of the CLI
    from . import printer

    kind = column.dtype.kind
    if column.ndim != 1 or kind not in "biuf" or column.itemsize > 8:
        raise TypeError(f"columns must be 1-D numeric arrays of at most 64 bits, got {column.dtype} with shape {column.shape}")
    if kind == "b":
        table = np.frombuffer(b"FalseTrue ", np.uint8).reshape(2, 5), np.arange(5) < [[5], [4]]
        return _BOOL_SLOTS, _lookup(table, lambda start, stop: column[start:stop].view(np.uint8))
    if kind in "iu":
        wide = np.int64 if kind == "i" else np.uint64
        return printer.INT_SLOTS, lambda slots, keep, start, stop: printer.print_integers(column[start:stop].astype(wide), slots, keep)
    bits = column.view(f"u{column.itemsize}")
    limit = min(_TABLE_ROWS, bits.size // 2)
    if _distinct(bits[: limit + 1]).size <= limit and (distinct := _distinct(bits)).size <= limit:
        table = np.empty((distinct.size, printer.FLOAT_SLOTS), np.uint8), np.empty((distinct.size, printer.FLOAT_SLOTS), bool)
        printer.print_floats(_widened(distinct.view(column.dtype)), *table)
        return printer.FLOAT_SLOTS, _lookup(table, lambda start, stop: np.searchsorted(distinct, bits[start:stop]))
    return printer.FLOAT_SLOTS, lambda slots, keep, start, stop: printer.print_floats(_widened(column[start:stop]), slots, keep)


def _widened(values: np.ndarray) -> np.ndarray:
    """Float ``values`` as contiguous float64, exactly; a signalling NaN turns quiet, still printed "nan"."""
    with np.errstate(invalid="ignore"):
        return np.ascontiguousarray(values, dtype=np.float64)


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D array, ascending."""
    ordered = np.sort(values)
    return np.concatenate((ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]))


def _lookup(table, index):
    """A fill that copies the rows ``index(start, stop)`` of a (slots, keep) table."""
    table_slots, table_keep = table

    def fill(slots, keep, start, stop):
        rows = index(start, stop)
        slots[:] = table_slots[rows]
        keep[:] = table_keep[rows]

    return fill


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
