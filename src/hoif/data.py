"""Dataset container and CSV ingestion."""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


class ValidationError(ValueError):
    """Malformed input data or configuration."""


@dataclass(frozen=True)
class Dataset:
    """i.i.d. records (A, Y, X) with X in [0,1]^d.

    For missing-at-random data, ``y`` stores A*Y (the observed product);
    for fully observed outcomes it stores Y itself.
    """

    x: np.ndarray  # (n, d)
    a: np.ndarray  # (n,)
    y: np.ndarray  # (n,)

    def __post_init__(self):
        if self.x.ndim != 2:
            raise ValidationError("x must be a 2-d array")
        n = self.x.shape[0]
        if self.a.shape != (n,) or self.y.shape != (n,):
            raise ValidationError("a and y must match the number of rows of x")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.x[idx], self.a[idx], self.y[idx])


def read_text(path) -> str:
    """The text of an input file, without a UTF-8 byte-order mark; an
    unreadable file is a ValidationError."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


@contextmanager
def writing(path):
    """An OSError while making or writing the output ``path`` is a ValidationError."""
    try:
        yield
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def dataset_from_csv(path, d: int | None = None) -> Dataset:
    """Read a dataset from CSV with columns A, Y, X1..Xd, in any order; d
    counts the columns named X<j> (j >= 1, no leading zero) unless given.

    Y may be blank on rows with A=0 (missing-at-random input); it is then
    recorded as 0 so that A*Y is stored.  X coordinates outside [0,1] (NaN
    included) and non-finite Y are rejected; no rescaling is applied.  Rows
    are numbered from the header (row 1) on, skipping blank and comment
    lines.  Every column is parsed, so a file with a non-numeric extra
    column is read row by row.
    """
    text = read_text(path)
    lines = text.split("\n")
    top = next((i for i, ln in enumerate(lines) if ln.strip() and not ln.startswith("#")), None)
    if top is None:
        raise ValidationError(f"{path}: empty input")
    header = [c.strip() for c in lines[top].split(",")]
    if d is None:
        d = sum(re.fullmatch("X[1-9][0-9]*", c) is not None for c in header)
    xcols = [f"X{j}" for j in range(1, d + 1)]
    for col in ("A", "Y", *xcols):
        if col not in header:
            raise ValidationError(f"column {col} absent")
    if not xcols:
        raise ValidationError("column X1 absent")
    ia, iy, *ix = (header.index(c) for c in ("A", "Y", *xcols))

    def parse_row(i: int, line: str) -> list[float]:
        parts = [p.strip() for p in line.split(",")]
        try:
            if len(parts) != len(header):
                raise ValueError(f"expected {len(header)} fields")
            a = float(parts[ia])
            if parts[iy] == "" and a != 0.0:
                raise ValueError("column Y empty with A=1")
            return [a, float(parts[iy] or 0.0), *(float(parts[j]) for j in ix)]
        except ValueError as exc:
            raise ValidationError(f"row {i + 2}: {exc}") from exc

    def parse_table(body: list[str]) -> np.ndarray:
        # numpy's parser takes plain numbers in rows of one width; all else raises
        if not any(ln.strip() for ln in body):
            raise ValueError("no rows")
        table = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
        if table.shape[1] != len(header):
            raise ValueError("irregular rows")
        return np.take(table, [ia, iy, *ix], axis=1)

    body, start = lines[top + 1:], sum(len(ln) + 1 for ln in lines[:top + 1])
    # numpy skips only empty lines; one C scan per character finds comment and blank lines
    if any(text.find(c, start) >= 0 for c in "# \t\r"):
        body = [ln for ln in body if ln.strip() and not ln.startswith("#")]
    try:
        table = parse_table(body)
    except ValueError:  # float() row by row names the first bad row; no "#" line is left
        rows = [parse_row(i, ln) for i, ln in enumerate(ln for ln in body if ln.strip())]
        table = np.array(rows).reshape(len(rows), 2 + len(ix))
    a, y, x = table[:, 0], table[:, 1], table[:, 2:]
    if np.any((a != 0.0) & (a != 1.0)):
        raise ValidationError("column A must be 0/1")
    outside = ~((x >= 0.0) & (x <= 1.0))  # NaN is outside too
    if np.any(outside):
        raise ValidationError(f"row {int(np.argwhere(outside)[0][0]) + 2}: "
                              "X coordinate outside [0,1]")
    if not np.all(np.isfinite(y)):
        raise ValidationError(f"row {int(np.argmin(np.isfinite(y))) + 2}: column Y not finite")
    return Dataset(x=x, a=a, y=y)


def csv_field(v) -> str:
    """One field of an artifact CSV: floats at full precision, None empty,
    text quoted (RFC 4180) when it holds a comma, a quote or a line break."""
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.17g}"
    text = str(v)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def table_csv(columns: str, rows: list[dict], header_lines=()) -> str:
    """An artifact table: comment header, columns, a line per row (missing keys empty)."""
    out = [f"# {h}" for h in header_lines]
    out.append(columns)
    cols = columns.split(",")
    for row in rows:
        out.append(",".join(csv_field(row.get(c)) for c in cols))
    return "\n".join(out) + "\n"


def dataset_to_csv(data: Dataset, path, header_lines=()):
    cols = ["A", "Y"] + [f"X{j + 1}" for j in range(data.d)]
    rows = [dict(zip(cols, row)) for row in np.column_stack([data.a, data.y, data.x])]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(table_csv(",".join(cols), rows, header_lines))
