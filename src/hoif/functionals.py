"""The doubly robust functional class.

Each functional is described by four evaluators h1..h4 acting on records,
so that the first-order influence function of the target is
H(b, p) - psi with

    H(b, p) = b(X) p(X) h1(W) + b(X) h2(W) + p(X) h3(W) + h4(W).

h1 has a single sign over the support; ``sign_flag`` is True when h1 is
nowhere positive.  The weight |h1| defines the density g(x) =
E[|h1| | X=x] f(x) under which the Gram matrix is formed.
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
    description: str = ""

    def sign(self) -> float:
        """(-1)**I(h1 <= 0) as a float factor."""
        return -1.0 if self.sign_flag else 1.0

    def check_h1_sign(self, data: Dataset, tol: float = 0.0):
        h1 = self.h1(data)
        if not np.all(np.isfinite(h1)):
            raise ValidationError("non-finite h1 value in data")
        if self.sign_flag:
            if np.any(h1 > tol):
                raise ValidationError(f"h1 must be nowhere positive for {self.id}")
        else:
            if np.any(h1 < -tol):
                raise ValidationError(f"h1 must be nowhere negative for {self.id}")


@dataclass(frozen=True)
class Residuals:
    """Per-record residuals feeding the U-statistic chain."""

    eps_b: np.ndarray
    eps_p: np.ndarray
    abs_h1: np.ndarray


def _zeros(data: Dataset) -> np.ndarray:
    return np.zeros(data.n)


def _ones(data: Dataset) -> np.ndarray:
    return np.ones(data.n)


def mar_mean_spec() -> FunctionalSpec:
    """Mean of an outcome missing at random: h1=-A, h2=1, h3=AY, h4=0.

    b = E[Y | A=1, X], p = 1/P(A=1 | X); g(x) = P(A=1 | X=x) f(x).
    """
    return FunctionalSpec(
        id="mar_mean",
        h1=lambda dat: -dat.a,
        h2=_ones,
        h3=lambda dat: dat.a * dat.y,
        h4=_zeros,
        sign_flag=True,
        description="mean outcome under missing-at-random observation",
    )


def mar_mean_spec_flipped() -> FunctionalSpec:
    """Arm-0 variant of the MAR mean: the observation indicator is 1-A."""
    return FunctionalSpec(
        id="mar_mean_arm0",
        h1=lambda dat: -(1.0 - dat.a),
        h2=_ones,
        h3=lambda dat: (1.0 - dat.a) * dat.y,
        h4=_zeros,
        sign_flag=True,
        description="mean outcome of the untreated arm",
    )


def ate_spec() -> tuple[FunctionalSpec, FunctionalSpec]:
    """Average treatment effect as the difference of two arm means."""
    return mar_mean_spec(), mar_mean_spec_flipped()


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
        description="expected conditional covariance of A and Y given X",
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


def residuals(spec: FunctionalSpec, est_sample: Dataset, bx: np.ndarray,
              px: np.ndarray) -> Residuals:
    """eps_b = b_hat*h1 + h3, eps_p = h1*p_hat + h2, per estimation record.

    ``bx`` and ``px`` are b_hat and p_hat evaluated at the records.
    """
    if not (np.all(np.isfinite(bx)) and np.all(np.isfinite(px))):
        raise ValidationError("non-finite nuisance value on the estimation sample")
    h1 = spec.h1(est_sample)
    eps_b = bx * h1 + spec.h3(est_sample)
    eps_p = h1 * px + spec.h2(est_sample)
    return Residuals(eps_b=eps_b, eps_p=eps_p, abs_h1=np.abs(h1))


def h_values(spec: FunctionalSpec, data: Dataset, bx: np.ndarray,
             px: np.ndarray) -> np.ndarray:
    """H(b_hat, p_hat) at every record, from b_hat and p_hat evaluated there."""
    vals = (
        bx * px * spec.h1(data)
        + bx * spec.h2(data)
        + px * spec.h3(data)
        + spec.h4(data)
    )
    if not np.all(np.isfinite(vals)):
        raise ValidationError("non-finite influence-function summand")
    return vals
