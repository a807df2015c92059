"""Single-mode thermal pair built from two vacuum modes.

Operators are complex coefficient vectors over the ordered basis
(a, a_dag, c, c_dag) of two independent canonical modes, with the vacuum
moment table <a a_dag> = 1, <c_dag c> = 1 and every other ordered basis
product zero.  Expectations and commutators extend bilinearly, so the
whole algebra reduces to two constant 4x4 forms.  Operators may be
stacked along every axis but the last: coefficients of shape (..., 4)
stand for one operator per leading index, the functions below take an
array of occupations and act on each entry, and expectations and
commutators of stacks are arrays, of single operators a ``complex``.

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

# complex, as the coefficients are: a real form would be cast on every product
_MOMENT = np.zeros((4, 4), dtype=complex)
_MOMENT[0, 1] = 1.0  # <a a_dag>
_MOMENT[3, 2] = 1.0  # <c_dag c>
_COMMUTATOR = _MOMENT - _MOMENT.T
_SWAP = np.array([1, 0, 3, 2])  # a <-> a_dag, c <-> c_dag
_SHIFT = np.array([1.0, 0.0])  # n + 1 and n


@dataclass(frozen=True, eq=False)
class ModeOperator:
    """Linear combination of the basis operators (a, a_dag, c, c_dag), or a
    stack of them: coefficients of shape (..., 4)."""

    coefficients: np.ndarray
    # numpy defers to __rmul__, so an array of scales times a stack is a stack
    __array_ufunc__ = None

    def __post_init__(self):
        coeffs = np.array(self.coefficients, dtype=complex)  # a copy: the caller's stays writable
        if coeffs.shape[-1:] != (4,):
            raise ValueError(f"expected 4 coefficients, got shape {coeffs.shape}")
        coeffs.setflags(False)
        object.__setattr__(self, "coefficients", coeffs)

    def dagger(self) -> "ModeOperator":
        """Hermitian conjugate: conjugate coefficients, swap each pair."""
        return ModeOperator(np.conj(self.coefficients.take(_SWAP, axis=-1)))

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


def _form(form: np.ndarray, z1: ModeOperator, z2: ModeOperator) -> complex | np.ndarray:
    """z1 . form . z2 over the last axis: a complex for two single operators,
    else an array of one row-times-column dot per operator of the stacks."""
    row, column = z1.coefficients @ form, z2.coefficients
    if row.ndim == column.ndim == 1:
        return complex(row @ column)
    return (row[..., None, :] @ column[..., None])[..., 0, 0]


def expectation(z1: ModeOperator, z2: ModeOperator) -> complex | np.ndarray:
    """Vacuum expectation <z1 z2> (ordered product, bilinear)."""
    return _form(_MOMENT, z1, z2)


def commutator(z1: ModeOperator, z2: ModeOperator) -> complex | np.ndarray:
    """Scalar commutator [z1, z2]; state independent and antisymmetric."""
    return _form(_COMMUTATOR, z1, z2)


def _check_occupation(n) -> np.ndarray:
    """The occupations as float64, so a reduced-precision input is not carried
    into the roots; raises unless every entry is finite and nonnegative."""
    n = np.asarray(n, dtype=np.float64)
    # extremes that keep a NaN (the initial 0.0 admits an empty array); a
    # single occupation is read directly, as a reduction costs more than the
    # rest of a scalar call
    if n.ndim == 0:
        low = high = float(n)
    else:
        low = float(np.minimum.reduce(n, axis=None, initial=0.0))
        high = float(np.maximum.reduce(n, axis=None, initial=0.0))
    if not (math.isfinite(low) and math.isfinite(high)):
        raise NonFiniteError(f"occupation must be finite, got {n}")
    if low < 0:
        raise ValueError(f"occupation must be nonnegative, got {n}")
    return n


def _hot_cold(n) -> np.ndarray:
    """sqrt(n + 1) and sqrt(n) of checked occupations, along a new last axis."""
    return np.sqrt(_check_occupation(n)[..., None] + _SHIFT)


def thermal_pair(n) -> tuple[ModeOperator, ModeOperator]:
    """Noise/output mode pair at occupation n >= 0 (not necessarily integer),
    or a stack of pairs for an array of occupations."""
    hot_cold = _hot_cold(n)
    coefficients = np.zeros(hot_cold.shape[:-1] + (2, 4), dtype=complex)
    coefficients[..., 0, ::2] = hot_cold  # b = hot a + cold c
    coefficients[..., 1, ::2] = hot_cold[..., ::-1]  # b_out = cold a + hot c
    return ModeOperator(coefficients[..., 0, :]), ModeOperator(coefficients[..., 1, :])


def thermal_tables(noise: ModeOperator, reverse: ModeOperator) -> dict[str, dict[str, complex | np.ndarray]]:
    """The moments ``qnoise mode`` prints of a thermal pair, or of a stack of
    pairs: <x_dag y> and <x y_dag> for x, y in (noise, reverse), and the
    commutators [b, b_dag], [b_out_dag, b_out], [b_out, b] and [b_out, b_dag]."""
    ops = {"noise": noise, "reverse": reverse}
    daggers = {name: op.dagger() for name, op in ops.items()}
    return {
        "correlations_dag_first": {f"{a}_dag_{b}": expectation(daggers[a], ops[b]) for a in ops for b in ops},
        "correlations_dag_second": {f"{a}_{b}_dag": expectation(ops[a], daggers[b]) for a in ops for b in ops},
        "commutators": {"noise_noise_dag": commutator(noise, daggers["noise"]),
                        "reverse_dag_reverse": commutator(daggers["reverse"], reverse),
                        "reverse_noise": commutator(reverse, noise),
                        "reverse_noise_dag": commutator(reverse, daggers["noise"])},
    }


def invert_pair(b: ModeOperator, b_out: ModeOperator, n) -> tuple[ModeOperator, ModeOperator]:
    """Recover the vacuum modes from a thermal pair of occupation n, or a
    stack of them from a stack of pairs and an array of occupations."""
    hot_cold = _hot_cold(n).astype(complex)  # as the product would cast it, once
    hot, cold = hot_cold[..., :1], hot_cold[..., 1:]
    mode_a = ModeOperator(hot * b.coefficients - cold * b_out.coefficients)
    mode_c = ModeOperator(hot * b_out.coefficients - cold * b.coefficients)
    return mode_a, mode_c
