"""Exact complex linear algebra for a three-level system.

Basis ordering is fixed to (|+1>, |0>, |-1>): index 0 carries the |+1>
amplitude, index 1 the |0> amplitude, index 2 the |-1> amplitude.  All
objects are immutable and all operations are pure, so everything here is
safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NormalizationError, UnitarityError

# Tolerance for objects constructed from model parameters; pure floating
# point identities are tested elsewhere at 1e-12.
NORM_ATOL = 1e-9
UNITARY_ATOL = 1e-9

_KET_ZERO = np.array([0.0, 1.0, 0.0], dtype=complex)


@dataclass(frozen=True)
class QutritState:
    """Normalized pure state; amplitudes ordered (|+1>, |0>, |-1>)."""

    c_plus: complex
    c_zero: complex
    c_minus: complex

    def __post_init__(self):
        object.__setattr__(self, "c_plus", complex(self.c_plus))
        object.__setattr__(self, "c_zero", complex(self.c_zero))
        object.__setattr__(self, "c_minus", complex(self.c_minus))
        n2 = (
            abs(self.c_plus) ** 2
            + abs(self.c_zero) ** 2
            + abs(self.c_minus) ** 2
        )
        if not math.isfinite(n2):
            raise NormalizationError("state amplitudes must be finite")
        if abs(n2 - 1.0) > NORM_ATOL:
            raise NormalizationError(
                f"squared amplitudes sum to {n2!r}, expected 1 within {NORM_ATOL}"
            )

    @classmethod
    def from_vector(cls, vec) -> "QutritState":
        v = np.asarray(vec, dtype=complex)
        if v.shape != (3,):
            raise ValueError(f"expected a length-3 vector, got shape {v.shape}")
        return cls(v[0], v[1], v[2])

    @classmethod
    def ket_zero(cls) -> "QutritState":
        return cls(0.0, 1.0, 0.0)

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.c_plus, self.c_zero, self.c_minus])


def inner_product(bra: QutritState, ket: QutritState) -> complex:
    """<bra|ket>, conjugating the bra."""
    return (
        bra.c_plus.conjugate() * ket.c_plus
        + bra.c_zero.conjugate() * ket.c_zero
        + bra.c_minus.conjugate() * ket.c_minus
    )


class Unitary3:
    """3x3 unitary matrix, verified U^dag U = I at construction."""

    __slots__ = ("_m",)

    def __init__(self, matrix, *, atol: float = UNITARY_ATOL):
        m = np.array(matrix, dtype=complex)
        if m.shape != (3, 3):
            raise ValueError(f"expected a 3x3 matrix, got shape {m.shape}")
        if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
            raise UnitarityError("matrix entries must be finite")
        err = np.max(np.abs(m.conj().T @ m - np.eye(3)))
        if err > atol:
            raise UnitarityError(
                f"U^dag U deviates from identity by {err:.3e} (atol {atol:g})"
            )
        m.setflags(write=False)
        self._m = m

    @classmethod
    def identity(cls) -> "Unitary3":
        return cls(np.eye(3, dtype=complex))

    @property
    def matrix(self) -> np.ndarray:
        return self._m

    def __repr__(self):
        return f"Unitary3({np.array2string(self._m, precision=6)})"


def apply_unitary(unitary: Unitary3, state: QutritState) -> QutritState:
    """Matrix-vector product U|state>."""
    return QutritState.from_vector(unitary.matrix @ state.vector)


def _locked(array) -> np.ndarray:
    a = np.array(array, dtype=complex)
    a.setflags(write=False)
    return a


# Spin-1 operators in the (|+1>, |0>, |-1>) basis, hbar = 1.
_SZ = _locked(np.diag([1.0, 0.0, -1.0]))
_SY = _locked(
    (1.0 / math.sqrt(2.0))
    * np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]])
)


def spin1_matrices() -> tuple[np.ndarray, np.ndarray]:
    """(Sz, Sy) for spin 1: Sz = diag(1, 0, -1), Sy the standard ladder form."""
    return _SZ, _SY
