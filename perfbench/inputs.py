"""Closed-form draws from the s2-smooth-d2 law, written as hoif input CSVs.

The law: X has the product density (0.6 + 0.8 t) per axis on [0, 1]^2,
A ~ Bern(0.45 + 0.45 x1 x2) and Y ~ Bern(0.3 + 0.4 x1 x2), with A*Y stored.
The target E[b(X)] is 0.3 + 0.4 (17/30)^2.  The generator is deliberately
independent of ``hoif.sim.generate``, so the program under test never
produces its own estimate inputs.
"""

from __future__ import annotations

import hashlib

import numpy as np

PSI_TRUE = 0.3 + 0.4 * (17.0 / 30.0) ** 2


def draw(n: int, seed: int) -> np.ndarray:
    """Return an (n, 4) array of columns A, Y, X1, X2 drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    u = rng.random((n, 2))
    # inverse of F(t) = 0.6 t + 0.4 t^2
    x = (-0.6 + np.sqrt(0.36 + 1.6 * u)) / 0.8
    x12 = x[:, 0] * x[:, 1]
    a = (rng.random(n) < 0.45 + 0.45 * x12).astype(float)
    y = a * (rng.random(n) < 0.3 + 0.4 * x12)
    return np.column_stack([a, y, x])


def write_csv(path, n: int, seed: int) -> dict:
    """Write ``n`` records from ``seed`` to ``path``; return its provenance."""
    rows = draw(n, seed)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("A,Y,X1,X2\n")
        np.savetxt(fh, rows, fmt=("%d", "%d", "%.17g", "%.17g"), delimiter=",")
    with open(path, "rb") as fh:
        sha = hashlib.sha256(fh.read()).hexdigest()
    return {"n": n, "seed": seed, "sha256": sha}
