"""The one output format of the package's CSV and JSON files, and its JSON reader.

A CSV has a header row and writes every float with 17 significant digits,
so a round trip is lossless.  A JSON file is indented by two spaces, has
sorted keys and ends with a newline, so equal objects give equal bytes.
"""

from __future__ import annotations

import csv
import json


def fmt(x) -> str:
    """A float as written to CSV: 17 significant digits."""
    return format(float(x), ".17g")


def write_csv(path, header, rows) -> None:
    """Write a header row, then each row of ``rows``, an iterable of sequences."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_json(path, obj) -> None:
    """Write ``obj`` as JSON; numpy scalars and other non-JSON numbers go through ``float``."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


def read_json(path, error: type[Exception]):
    """A JSON file's content; a file that cannot be opened, decoded or parsed
    raises ``error`` naming the path."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from exc
