"""The doubly robust functional class.

Each functional is described by four evaluators h1..h4 acting on records,
so that the first-order influence function of the target is
H(b, p) - psi with

    H(b, p) = b(X) p(X) h1(W) + b(X) h2(W) + p(X) h3(W) + h4(W).

h1 has a single sign over the support; ``sign_flag`` is True when h1 is
nowhere positive.  The weight |h1| defines the density g(x) =
E[|h1| | X=x] f(x) under which the Gram matrix is formed.  The pipeline
reads the evaluators only here: ``FunctionalSpec.abs_h1`` checks h1 and
returns |h1|, and ``influence`` gives H and the residuals in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from hoif.data import Dataset, ValidationError

Evaluator = Callable[[Dataset], np.ndarray]


@dataclass(frozen=True)
class FunctionalSpec:
    id: str
    h1: Evaluator
    h2: Evaluator
    h3: Evaluator
    h4: Evaluator
    sign_flag: bool  # True iff h1 is nowhere positive
    # a MAR arm's 0/1 indicator of the records whose Y it sees; None when the
    # nuisances are b = E[Y|X] and p = E[A|X] over all records
    observed: Evaluator | None = None

    def abs_h1(self, data: Dataset) -> np.ndarray:
        """The weights |h1| at the records of ``data``; a ValidationError for
        no record, a non-finite h1 or an h1 of the wrong sign."""
        if data.n == 0:
            raise ValidationError("empty training set")
        h1 = self.h1(data)
        if not np.all(np.isfinite(h1)):
            raise ValidationError("non-finite h1 value in data")
        if self.sign_flag and np.any(h1 > 0.0):
            raise ValidationError(f"h1 must be nowhere positive for {self.id}")
        if not self.sign_flag and np.any(h1 < 0.0):
            raise ValidationError(f"h1 must be nowhere negative for {self.id}")
        return np.abs(h1)


def _zeros(data: Dataset) -> np.ndarray:
    return np.zeros(data.n)


def _ones(data: Dataset) -> np.ndarray:
    return np.ones(data.n)


def _mar_arm(id: str, seen: Evaluator) -> FunctionalSpec:
    """Mean of Y over a law whose records show Y where ``seen`` is 1:
    h1=-seen, h2=1, h3=seen*Y, h4=0.

    b = E[Y | seen=1, X], p = 1/P(seen=1 | X); g(x) = P(seen=1 | X=x) f(x).
    """
    return FunctionalSpec(
        id=id,
        h1=lambda dat: -seen(dat),
        h2=_ones,
        h3=lambda dat: seen(dat) * dat.y,
        h4=_zeros,
        sign_flag=True,
        observed=seen,
    )


def mar_mean_spec() -> FunctionalSpec:
    """Mean of an outcome missing at random, observed where A=1."""
    return _mar_arm("mar_mean", lambda dat: dat.a)


def ate_spec() -> tuple[FunctionalSpec, FunctionalSpec]:
    """Average treatment effect as arm 1 (sees A=1) minus arm 0 (sees A=0)."""
    return mar_mean_spec(), _mar_arm("mar_mean_arm0", lambda dat: 1.0 - dat.a)


def expected_cond_cov_spec() -> FunctionalSpec:
    """Expected conditional covariance E[Cov(A, Y | X)].

    h1=1, h2=-A, h3=-Y, h4=AY so that H(b, p) = (A - p(X))(Y - b(X))
    plus the plug-in term, with b = E[Y|X], p = E[A|X] and g = f.
    """
    return FunctionalSpec(
        id="expected_cond_cov",
        h1=_ones,
        h2=lambda dat: -dat.a,
        h3=lambda dat: -dat.y,
        h4=lambda dat: dat.a * dat.y,
        sign_flag=False,
    )


def arm_specs(functional: str) -> tuple[FunctionalSpec, ...]:
    """The arms whose estimates make up ``functional``; ``ate`` is arm 1 minus arm 0."""
    if functional == "mar_mean":
        return (mar_mean_spec(),)
    if functional == "ate":
        return ate_spec()
    if functional == "ecc":
        return (expected_cond_cov_spec(),)
    raise ValidationError(f"unknown functional {functional!r}")


def influence(spec: FunctionalSpec, data: Dataset, bx: np.ndarray,
              px: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """H(b_hat, p_hat), eps_p = h1*p_hat + h2 and eps_b = b_hat*h1 + h3 at
    every record, from b_hat and p_hat evaluated there."""
    h1, h2, h3 = spec.h1(data), spec.h2(data), spec.h3(data)
    vals = bx * px * h1 + bx * h2 + px * h3 + spec.h4(data)
    if not np.all(np.isfinite(vals)):  # a non-finite b_hat or p_hat makes one too
        raise ValidationError("non-finite influence-function summand")
    return vals, h1 * px + h2, bx * h1 + h3
