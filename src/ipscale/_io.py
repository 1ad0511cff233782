"""The CSV reader and writer, the one check of keyed CSVs, the JSON I/O.

A CSV has a header row.  The reader parses the columns it is asked for with
numpy's C tokenizer, all records at once; the writer formats a bounded
chunk of rows at a time, writes every float with 17 significant digits, so
a round trip is lossless, and ends every line with CRLF, as ``csv.writer``
does.  A JSON file is indented by two spaces, has sorted keys, holds
``null`` for a non-finite float and ends with a newline, so equal objects
give equal bytes.

The accepted CSV dialect is that of ``csv.reader`` with ``int`` and
``float`` on the fields: spaces around a field, a leading ``+``, quoted
fields, CRLF or CR line ends, empty lines and fields past the ones read are
all accepted, and ``nan``, ``inf`` and exponents are floats.  An integer
field must be decimal digits that fit in int64.  Unlike Python's ``int``
and ``float``, digit-group underscores (``1_0``) and non-ASCII digits are
rejected.
"""

from __future__ import annotations

import csv
import itertools
import json
import re
import warnings
from contextlib import contextmanager

import numpy as np

# rows formatted per write: bounds the strings held at once
_CHUNK_ROWS = 2**12
_NEEDS_QUOTES = re.compile(r'[",\r\n]').search
_INT64 = np.iinfo(np.int64)


def fmt(x) -> str:
    """A float as written to CSV: 17 significant digits."""
    return format(float(x), ".17g")


# -- reading ------------------------------------------------------------------


@contextmanager
def _utf8_text(path, error):
    """``path`` opened as UTF-8 text.  A file that cannot be opened raises
    ``error`` naming it, and one holding bytes that are not UTF-8 raises
    ``error`` naming the line of the first such byte."""
    try:
        fh = open(path, encoding="utf-8", newline="")
    except OSError as exc:
        raise error(f"cannot open {path}: {exc}") from exc
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            # the text layer decodes in chunks, so neither the record count nor
            # the error's offset places the bad byte: decode the whole file
            with open(path, "rb") as bfh:
                raw = bfh.read()
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as whole:
                exc = whole
            lineno = raw.count(b"\n", 0, exc.start) + 1
            raise error(f"{path}:{lineno}: not UTF-8 text: {exc.reason}") from exc


def _header(fh, path, error) -> tuple[list[str], int]:
    """The header row, each name stripped of surrounding spaces, and the
    number of lines it spans."""
    reader = csv.reader(fh)
    header = next(reader, None)
    if header is None:
        raise error(f"{path}:1: empty file, expected a header row")
    return [h.strip() for h in header], reader.line_num


def read_csv_header(path, error) -> list[str]:
    """A CSV's header row, each name stripped of surrounding spaces."""
    with _utf8_text(path, error) as fh:
        return _header(fh, path, error)[0]


def read_keyed_csv(path, error, keys, value_name: str, base: int, record: str = "record",
                   nonnegative: bool = False):
    """The key columns and the values of records keyed by integer columns.

    ``keys`` lists ``(column, n_levels)`` pairs; the key and ``value_name``
    columns are found by header name.  A key holds levels ``base .. base +
    n_levels - 1``, or ``base`` up if ``n_levels`` is None.  A record that
    does not parse is a ``bad {record}``; the file must hold a record, and
    every key must be in range and every value finite, and non-negative if
    ``nonnegative``.  ``error`` names the line of the first bad record.
    """
    names = [n for n, _ in keys] + [value_name]
    dtype = np.dtype([(f"c{k}", np.int64) for k in range(len(keys))] + [("v", np.float64)])
    with _utf8_text(path, error) as fh:
        header, header_lines = _header(fh, path, error)
        try:
            cols = [header.index(n) for n in names]
        except ValueError as exc:
            raise error(f"{path}:1: header must contain {names}: {exc}") from exc
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a file of no records
                # from the path, numpy reads faster than from an open file
                data = np.loadtxt(path, dtype=dtype, delimiter=",", quotechar='"',
                                  comments=None, skiprows=header_lines, usecols=cols,
                                  ndmin=1, encoding="utf-8")
        except UnicodeDecodeError:
            raise  # a ValueError too, but _utf8_text names its line
        except ValueError as exc:
            where = _first_bad_record(path, cols[:-1], cols[-1:])
            if where is None:
                raise error(f"{path}: bad {record}: {exc}") from exc
            raise error(f"{path}:{where[0]}: bad {record}: {where[1]}") from exc
    key_cols, values = [data[f"c{k}"] for k in range(len(keys))], data["v"]
    if not len(values):
        raise error(f"{path}: no data rows")
    for (name, m), levels in zip(keys, key_cols):
        outside = (levels < base) if m is None else (levels < base) | (levels >= base + m)
        if outside.any():
            i, top = np.argmax(outside), "" if m is None else base + m - 1
            raise error(f"{path}:{_record_line(path, i)}: {name} level {levels[i]} "
                        f"out of range {base}..{top}")
    bad = ~(np.isfinite(values) & (values >= 0)) if nonnegative else ~np.isfinite(values)
    if bad.any():
        i, rule = np.argmax(bad), " and non-negative" if nonnegative else ""
        raise error(f"{path}:{_record_line(path, i)}: {value_name} {values[i]} "
                    f"must be finite{rule}")
    return key_cols, values


def _plain_int(text: str) -> int:
    value = _plain_number(text, int)
    if not _INT64.min <= value <= _INT64.max:
        raise ValueError(f"integer {text.strip()} is out of the int64 range")
    return value


def _plain_number(text: str, kind):
    """``kind(text)``, held to what numpy's parser accepts: surrounding
    whitespace, then ASCII without digit-group underscores."""
    text = text.strip()
    if not text.isascii() or "_" in text:
        raise ValueError(f"{text!r} is not a plain decimal number")
    return kind(text)


def _records(fh):
    """(line, fields) of every non-empty record after the header, ``line``
    being the line the record starts on: a quoted field may span lines."""
    reader = csv.reader(fh)
    next(reader, None)
    start = reader.line_num + 1
    for rec in reader:
        if rec:
            yield start, rec
        start = reader.line_num + 1


def _first_bad_record(path, int_cols, float_cols):
    """(line, reason) of the first record whose fields do not parse, or None.

    A locator, not a parser: it runs only after numpy's parser has rejected
    the file, to name the line, and it returns no data.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        for lineno, rec in _records(fh):
            try:
                for c in int_cols:
                    _plain_int(rec[c])
                for c in float_cols:
                    _plain_number(rec[c], float)
            except (ValueError, IndexError) as exc:
                return lineno, str(exc)
    return None


def _record_line(path, record: int) -> int:
    """The line a record starts on, the records counted as
    :func:`read_keyed_csv` counts them: record 0 is the first non-empty
    record after the header.

    A locator, not a parser: it runs only after a check has rejected the
    record, to name its line, and it returns no data.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        return next(itertools.islice(_records(fh), int(record), None))[0]


def flat_keys(path, error, keys, key_cols, base: int) -> np.ndarray:
    """Each record's row-major index over the in-range ``key_cols`` of
    :func:`read_keyed_csv`.  The first record, in file order, that repeats
    an earlier one's key raises ``error`` naming both lines."""
    flat = np.zeros(len(key_cols[0]), dtype=np.int64)
    for (_, m), levels in zip(keys, key_cols):
        flat = flat * m + (levels - base)
    order = np.argsort(flat, kind="stable")
    repeats = order[1:][flat[order[1:]] == flat[order[:-1]]]
    if repeats.size:
        i = repeats.min()
        first = np.flatnonzero(flat == flat[i])[0]
        key = ", ".join(f"{name}={levels[i]}" for (name, _), levels in zip(keys, key_cols))
        raise error(f"{path}:{_record_line(path, i)}: {key} "
                    f"repeats line {_record_line(path, first)}")
    return flat


# -- writing ------------------------------------------------------------------


def _quoted(text: str) -> str:
    """A text field as ``csv.writer`` writes it."""
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES(text) else text


def _cells(column, a: int, b: int) -> list[str]:
    """Rows a..b-1 of a column as CSV fields."""
    if isinstance(column, tuple):
        texts, codes = column
        return texts[codes[a:b]].tolist()
    if isinstance(column, np.ndarray):
        if column.dtype.kind == "f":
            return list(map("%.17g".__mod__, column[a:b].tolist()))
        return list(map(str, column[a:b].tolist()))
    return [_quoted(t) for t in column[a:b]]


def write_csv(path, header, columns) -> None:
    """Write a header row, then row i of every column on line i + 2.

    A column is one of: a float array, written with 17 significant digits;
    an integer array; a list of text fields, quoted where ``csv.writer``
    quotes them; or a pair ``(texts, codes)`` of a list of text fields and
    an integer array, whose row i is ``texts[codes[i]]``.  At least two
    columns, all of one length.  Rows are formatted a chunk at a time, so
    the strings of the whole file are never held at once.
    """
    columns = [(np.array([_quoted(t) for t in c[0]], dtype=object), np.asarray(c[1]))
               if isinstance(c, tuple) else c for c in columns]
    lengths = {len(c[1]) if isinstance(c, tuple) else len(c) for c in columns}
    if len(lengths) != 1:
        raise ValueError(f"columns of unequal lengths {sorted(lengths)}")
    n = lengths.pop()
    with open(path, "w", newline="") as fh:
        fh.write(",".join(map(_quoted, header)) + "\r\n")
        for a in range(0, n, _CHUNK_ROWS):
            b = min(a + _CHUNK_ROWS, n)
            lines = map(",".join, zip(*(_cells(c, a, b) for c in columns)))
            fh.write("\r\n".join(lines) + "\r\n")


# -- JSON ---------------------------------------------------------------------


def _json_value(obj):
    """``obj`` with each non-finite float, which JSON cannot hold, as None."""
    if isinstance(obj, dict):
        return {k: _json_value(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_value(v) for v in obj]
    return None if isinstance(obj, (float, np.floating)) and not np.isfinite(obj) else obj


def write_json(path, obj) -> None:
    """Write ``obj`` as JSON; numpy scalars and other non-JSON numbers go through ``float``."""
    with open(path, "w") as fh:
        json.dump(_json_value(obj), fh, indent=2, sort_keys=True, default=float, allow_nan=False)
        fh.write("\n")


def read_json(path, error: type[Exception]):
    """A JSON file's content; a file that cannot be opened, decoded or parsed
    raises ``error`` naming the path."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from exc
