"""Dataset container and CSV ingestion."""

from __future__ import annotations

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


def dataset_from_csv(path, d: int | None = None) -> Dataset:
    """Read a dataset from CSV with columns A, Y, X1..Xd.

    Y may be blank on rows with A=0 (missing-at-random input); it is then
    recorded as 0 so that A*Y is stored.  X coordinates outside [0,1] are
    rejected; no rescaling is applied.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise ValidationError(f"{path}: empty input")
    header = [c.strip() for c in lines[0].strip().split(",")]
    required = ["A", "Y"]
    for col in required:
        if col not in header:
            raise ValidationError(f"column {col} absent")
    xcols = [c for c in header if c.startswith("X")]
    if d is not None:
        for j in range(1, d + 1):
            if f"X{j}" not in header:
                raise ValidationError(f"column X{j} absent")
        xcols = [f"X{j}" for j in range(1, d + 1)]
    if not xcols:
        raise ValidationError("column X1 absent")
    idx = {c: header.index(c) for c in header}
    n = len(lines) - 1
    a = np.empty(n)
    y = np.empty(n)
    x = np.empty((n, len(xcols)))
    for i, ln in enumerate(lines[1:]):
        parts = [p.strip() for p in ln.strip().split(",")]
        if len(parts) != len(header):
            raise ValidationError(f"row {i + 2}: expected {len(header)} fields")
        try:
            a[i] = float(parts[idx["A"]])
            ytxt = parts[idx["Y"]]
            if ytxt == "":
                if a[i] != 0.0:
                    raise ValidationError(f"row {i + 2}: column Y empty with A=1")
                y[i] = 0.0
            else:
                y[i] = float(parts[idx["Y"]])
            for j, c in enumerate(xcols):
                x[i, j] = float(parts[idx[c]])
        except ValueError as exc:
            raise ValidationError(f"row {i + 2}: {exc}") from exc
    if np.any((a != 0.0) & (a != 1.0)):
        raise ValidationError("column A must be 0/1")
    if np.any(x < 0.0) or np.any(x > 1.0):
        bad = int(np.argwhere((x < 0.0) | (x > 1.0))[0][0]) + 2
        raise ValidationError(f"row {bad}: X coordinate outside [0,1]")
    return Dataset(x=x, a=a, y=y)


def csv_field(v) -> str:
    """One field of an artifact CSV: floats at full precision, None empty."""
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def dataset_to_csv(data: Dataset, path, header_lines: list[str] | None = None):
    with open(path, "w", encoding="utf-8") as fh:
        for ln in header_lines or []:
            fh.write(f"# {ln}\n")
        cols = ["A", "Y"] + [f"X{j + 1}" for j in range(data.d)]
        fh.write(",".join(cols) + "\n")
        for i in range(data.n):
            row = (data.a[i], data.y[i], *data.x[i])
            fh.write(",".join(csv_field(v) for v in row) + "\n")
