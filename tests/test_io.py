"""The CSV dialect the readers accept, and the bytes the writer writes."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ipscale
from ipscale import _io
from ipscale.cli import InputError, _read_keyed_csv
from ipscale.design import DesignError, read_triplet_csv

# A keyed CSV (a count vector keyed by row) and a triplet design, as field
# records, and what each reads as.
KEYED = ("row,count", [("0", "3"), ("1", "4.5"), ("2", "1.5e3")])
KEYED_VALUES = [3.0, 4.5, 1500.0]
TRIPLET = ("row,col,value",
           [("0", "0", "1"), ("1", "0", "1"), ("2", "0", "1"), ("1", "1", "1.5e3")])
TRIPLET_DENSE = [[1.0, 0.0], [1.0, 1500.0], [1.0, 0.0]]


def _text(header, records, field=str, end="\n", sep="\n", tail=""):
    return header + end + sep.join(",".join(map(field, r)) + tail for r in records) + end


# Ways of writing the same records that both readers accept.
ACCEPTED = {
    "spaces around fields": lambda h, r: _text(h, r, field=lambda x: f" {x} "),
    "leading plus": lambda h, r: _text(h, r, field=lambda x: f"+{x}"),
    "quoted fields": lambda h, r: _text(h, r, field=lambda x: f'"{x}"'),
    "CRLF line ends": lambda h, r: _text(h, r, end="\r\n", sep="\r\n"),
    "empty lines": lambda h, r: _text(h, r, sep="\n\n") + "\n",
    "trailing field": lambda h, r: _text(h, r, tail=","),
    "extra fields": lambda h, r: _text(h, r, tail=",x,y"),
}


def _read_keyed(path):
    return _read_keyed_csv(path, [("row", 3)], "count", 0)


@pytest.mark.parametrize("case", sorted(ACCEPTED))
def test_keyed_dialect_accepted(tmp_path, case):
    path = tmp_path / "n.csv"
    path.write_bytes(ACCEPTED[case](*KEYED).encode())
    levels, values, flat = _read_keyed(path)
    assert levels.tolist() == [[0], [1], [2]]
    assert values.tolist() == KEYED_VALUES
    assert flat.tolist() == [0, 1, 2]


@pytest.mark.parametrize("case", sorted(ACCEPTED))
def test_triplet_dialect_accepted(tmp_path, case):
    path = tmp_path / "design.csv"
    path.write_bytes(ACCEPTED[case](*TRIPLET).encode())
    assert read_triplet_csv(path).toarray().tolist() == TRIPLET_DENSE


@pytest.mark.parametrize("value", ["nan", "inf", "Infinity", "-inf"])
def test_non_finite_value_parses_then_is_rejected(tmp_path, value):
    # a float to the parser, so the error is the value check's, not a bad record
    path = tmp_path / "n.csv"
    path.write_text(f"row,count\n0,3\n1,{value}\n2,5\n")
    with pytest.raises(InputError, match=r"n\.csv:3: count .* must be finite"):
        _read_keyed(path)
    path = tmp_path / "design.csv"
    path.write_text(f"row,col,value\n0,0,1\n1,0,1\n1,1,{value}\n")
    with pytest.raises(DesignError, match="finite"):
        read_triplet_csv(path)


# Records that neither reader accepts, as (key field, value field): each is a
# bad record on line 3.
REJECTED = {
    "integer written 1.0": ("1.0", "4"),
    "integer written 1e0": ("1e0", "4"),
    "integer written 0x1": ("0x1", "4"),
    "empty key field": ("", "4"),
    "empty value field": ("1", ""),
}


def _bad_line(path, line):
    return rf"{path.name}:{line}: bad "


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_keyed_record_rejected_with_line(tmp_path, case):
    key, value = REJECTED[case]
    path = tmp_path / "n.csv"
    path.write_text(f"row,count\n0,3\n{key},{value}\n2,5\n")
    with pytest.raises(InputError, match=_bad_line(path, 3)):
        _read_keyed(path)


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_triplet_record_rejected_with_line(tmp_path, case):
    key, value = REJECTED[case]
    path = tmp_path / "design.csv"
    path.write_text(f"row,col,value\n0,0,1\n{key},0,{value}\n2,0,1\n")
    with pytest.raises(DesignError, match=_bad_line(path, 3)):
        read_triplet_csv(path)


@pytest.mark.parametrize("line", ["1", "   "], ids=["short record", "spaces only"])
def test_short_or_blank_record_rejected_with_line(tmp_path, line):
    path = tmp_path / "n.csv"
    path.write_text(f"row,count\n0,3\n{line}\n2,5\n")
    with pytest.raises(InputError, match=_bad_line(path, 3)):
        _read_keyed(path)
    path = tmp_path / "design.csv"
    path.write_text(f"row,col,value\n0,0,1\n{line}\n2,0,1\n")
    with pytest.raises(DesignError, match=_bad_line(path, 3)):
        read_triplet_csv(path)


@pytest.mark.parametrize("record", ["1_0,4", "1,1_0"])
def test_digit_group_underscore_is_a_bad_record(tmp_path, record):
    # Python's int and float read 1_0 as 10; the CSV dialect does not
    path = tmp_path / "n.csv"
    path.write_text(f"row,count\n0,3\n{record}\n2,5\n")
    with pytest.raises(InputError, match=_bad_line(path, 3)):
        _read_keyed(path)
    path = tmp_path / "design.csv"
    path.write_text(f"row,col,value\n0,0,1\n{record.replace(',', ',0,')}\n2,0,1\n")
    with pytest.raises(DesignError, match=_bad_line(path, 3)):
        read_triplet_csv(path)


def test_bad_record_after_empty_lines_names_its_line(tmp_path):
    path = tmp_path / "n.csv"
    path.write_text("row,count\n\n0,3\n\n\n1,x\n")
    with pytest.raises(InputError, match=_bad_line(path, 6)):
        _read_keyed(path)


def test_check_after_quoted_header_names_its_line(tmp_path):
    # the header spans lines 1-2, so the records start on lines 3 and 5
    path = tmp_path / "n.csv"
    path.write_text('row,count,"note\nmore"\n0,3\n\n0,4\n')
    with pytest.raises(InputError, match=r"n\.csv:5: row=0 repeats line 3"):
        _read_keyed(path)


# A record whose quoted third field spans lines 2-3, then a record on line 4.
MULTILINE_KEYED = 'row,count,note\n0,3,"a\nb"\n{}\n'
MULTILINE_TRIPLET = 'row,col,value,note\n0,0,1,"a\nb"\n{}\n'


def test_keyed_lines_count_the_lines_of_a_quoted_field(tmp_path):
    path = tmp_path / "n.csv"
    path.write_text(MULTILINE_KEYED.format("1,x,c"))
    with pytest.raises(InputError, match=_bad_line(path, 4)):
        _read_keyed(path)
    path.write_text(MULTILINE_KEYED.format("0,4,c"))
    with pytest.raises(InputError, match=r"n\.csv:4: row=0 repeats line 2"):
        _read_keyed(path)


def test_triplet_lines_count_the_lines_of_a_quoted_field(tmp_path):
    path = tmp_path / "design.csv"
    path.write_text(MULTILINE_TRIPLET.format("1,x,1,c"))
    with pytest.raises(DesignError, match=_bad_line(path, 4)):
        read_triplet_csv(path)
    path.write_text(MULTILINE_TRIPLET.format("0,0,1,c"))
    with pytest.raises(DesignError, match=r"design\.csv:4: entry \(0, 0\) is given more than once"):
        read_triplet_csv(path)


# -- triplet indices --------------------------------------------------------------


def test_triplet_index_beyond_int64_is_a_bad_record(tmp_path):
    path = tmp_path / "design.csv"
    path.write_text("row,col,value\n0,0,1\n99999999999999999999,1,1\n")
    with pytest.raises(DesignError, match=_bad_line(path, 3)):
        read_triplet_csv(path)


def test_triplet_non_finite_value_names_its_line(tmp_path):
    path = tmp_path / "design.csv"
    path.write_text("row,col,value\n0,0,1\n1,0,1\n\n1,1,nan\n")
    with pytest.raises(DesignError, match=r"design\.csv:5: value nan must be finite"):
        read_triplet_csv(path)


@pytest.mark.parametrize("records, gap", [
    ("0,0,1\n2,0,1\n", "row 1"),
    ("0,0,1\n1,2,1\n", "column 1"),
    ("1,0,1\n", "row 0"),
])
def test_triplet_gap_is_named(tmp_path, records, gap):
    path = tmp_path / "design.csv"
    path.write_text("row,col,value\n" + records)
    with pytest.raises(DesignError, match=f"{gap} has no entry"):
        read_triplet_csv(path)


def test_triplet_gap_found_before_allocating_the_design(tmp_path):
    # column 999999999 would make the CSC indptr alone 7.45 GiB; the reader
    # runs under a 1 GiB address-space cap so that a regression fails fast
    path = tmp_path / "design.csv"
    path.write_text("row,col,value\n0,999999999,1\n")
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
        "from ipscale.design import DesignError, read_triplet_csv\n"
        "try:\n"
        "    read_triplet_csv(sys.argv[1])\n"
        "except DesignError as exc:\n"
        "    print(exc)\n")
    src = str(Path(ipscale.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", script, str(path)], capture_output=True,
                         text=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    assert "column 0 has no entry" in out.stdout


# -- writing ----------------------------------------------------------------------


def _csv_writer_bytes(path, header, rows) -> bytes:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return path.read_bytes()


def test_writer_matches_csv_writer_across_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(_io, "_CHUNK_ROWS", 4)
    labels = ["a", "b,c", 'say "hi"', "two\nlines", "", "cr\r", "x y", "ü", "'", "z"]
    floats = np.array([0.1, -0.0, np.nan, np.inf, -np.inf, 1e-300, 2 / 3, 1e22, 5.0, -7.25])
    ints = np.arange(-3, 7)
    codes = np.array([2, 0, 1, 1, 0, 2, 2, 0, 1, 0])
    texts = ["1", "level,2", "3"]
    header = ["label", "x,y", "n", "coded"]
    _io.write_csv(tmp_path / "new.csv", header, [labels, floats, ints, (texts, codes)])
    expected = _csv_writer_bytes(
        tmp_path / "old.csv", header,
        zip(labels, map(_io.fmt, floats), ints.tolist(), [texts[c] for c in codes]))
    assert (tmp_path / "new.csv").read_bytes() == expected


def test_writer_writes_a_header_alone(tmp_path):
    _io.write_csv(tmp_path / "e.csv", ["a", "b"], [np.array([]), []])
    assert (tmp_path / "e.csv").read_bytes() == b"a,b\r\n"


def test_percent_format_is_fmt():
    rng = np.random.default_rng(3)
    xs = np.concatenate([rng.normal(size=1000) * 10.0 ** rng.integers(-300, 300, 1000),
                         [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308]])
    assert ["%.17g" % x for x in xs.tolist()] == [_io.fmt(x) for x in xs]


def test_cli_triplet_index_beyond_int64_exits_1_with_line(tmp_path, capsys):
    from ipscale.cli import main

    design = tmp_path / "design.csv"
    design.write_text("row,col,value\n0,0,1\n99999999999999999999,1,1\n")
    counts = tmp_path / "n.csv"
    counts.write_text("row,count\n0,3\n")
    assert main(["fit", "--design", str(design), "--counts-vec", str(counts),
                 "--out-dir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "design.csv:3: bad triplet record" in err and "internal error" not in err
