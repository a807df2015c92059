"""Single-mode thermal pair built from two vacuum modes.

Operators are complex coefficient vectors over the ordered basis
(a, a_dag, c, c_dag) of two independent canonical modes, with the vacuum
moment table <a a_dag> = 1, <c_dag c> = 1 and every other ordered basis
product zero.  Expectations and commutators extend bilinearly, so the
whole algebra reduces to two constant 4x4 forms.

The thermal pair at occupation n is

    b     = sqrt(n+1) a + sqrt(n) c        (noise mode)
    b_out = sqrt(n)   a + sqrt(n+1) c      (time-reversed output mode)

which commute with each other, carry <b_dag b> = n, <b b_dag> = n + 1 and
the maximal cross correlation sqrt(n (n+1)), and are inverted exactly by
a = sqrt(n+1) b - sqrt(n) b_out, c = sqrt(n+1) b_out - sqrt(n) b.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError

_MOMENT = np.zeros((4, 4))
_MOMENT[0, 1] = 1.0  # <a a_dag>
_MOMENT[3, 2] = 1.0  # <c_dag c>
_COMMUTATOR = _MOMENT - _MOMENT.T


@dataclass(frozen=True, eq=False)
class ModeOperator:
    """Linear combination of the basis operators (a, a_dag, c, c_dag)."""

    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=complex)
        if coeffs.shape != (4,):
            raise ValueError(f"expected 4 coefficients, got shape {coeffs.shape}")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)

    def dagger(self) -> "ModeOperator":
        """Hermitian conjugate: conjugate coefficients, swap each pair."""
        z = np.conj(self.coefficients)
        return ModeOperator(np.array([z[1], z[0], z[3], z[2]]))

    def __add__(self, other: "ModeOperator") -> "ModeOperator":
        return ModeOperator(self.coefficients + other.coefficients)

    def __sub__(self, other: "ModeOperator") -> "ModeOperator":
        return ModeOperator(self.coefficients - other.coefficients)

    def __rmul__(self, scalar) -> "ModeOperator":
        return ModeOperator(scalar * self.coefficients)


A = ModeOperator(np.array([1.0, 0.0, 0.0, 0.0]))
A_DAG = ModeOperator(np.array([0.0, 1.0, 0.0, 0.0]))
C = ModeOperator(np.array([0.0, 0.0, 1.0, 0.0]))
C_DAG = ModeOperator(np.array([0.0, 0.0, 0.0, 1.0]))


def expectation(z1: ModeOperator, z2: ModeOperator) -> complex:
    """Vacuum expectation <z1 z2> (ordered product, bilinear)."""
    return complex(z1.coefficients @ _MOMENT @ z2.coefficients)


def commutator(z1: ModeOperator, z2: ModeOperator) -> complex:
    """Scalar commutator [z1, z2]; state independent and antisymmetric."""
    return complex(z1.coefficients @ _COMMUTATOR @ z2.coefficients)


def _check_occupation(n: float) -> None:
    if not math.isfinite(n):
        raise NonFiniteError(f"occupation must be finite, got {n}")
    if n < 0:
        raise ValueError(f"occupation must be nonnegative, got {n}")


def thermal_pair(n: float) -> tuple[ModeOperator, ModeOperator]:
    """Noise/output mode pair at occupation n >= 0 (not necessarily integer)."""
    _check_occupation(n)
    cold = np.sqrt(n)
    hot = np.sqrt(n + 1.0)
    noise = ModeOperator(np.array([hot, 0.0, cold, 0.0]))
    out = ModeOperator(np.array([cold, 0.0, hot, 0.0]))
    return noise, out


def invert_pair(
    b: ModeOperator, b_out: ModeOperator, n: float
) -> tuple[ModeOperator, ModeOperator]:
    """Recover the vacuum modes from a thermal pair of occupation n."""
    _check_occupation(n)
    cold = np.sqrt(n)
    hot = np.sqrt(n + 1.0)
    mode_a = hot * b - cold * b_out
    mode_c = hot * b_out - cold * b
    return mode_a, mode_c
