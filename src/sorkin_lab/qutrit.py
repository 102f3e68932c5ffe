"""Exact complex linear algebra for a three-level system.

Basis ordering is fixed to (|+1>, |0>, |-1>): index 0 carries the |+1>
amplitude, index 1 the |0> amplitude, index 2 the |-1> amplitude.  All
objects are immutable and all operations are pure, so everything here is
safe to share across threads.

Every object is checked once, where it is built, in the cheapest form
that still covers it:

  * ``QutritState(...)`` checks that its amplitudes are finite and
    normalized within NORM_ATOL, on every construction, including the
    states ``from_vector`` returns, the first four protocol states, the
    scheduled preparations, the measurement ket, and ``rwa_fidelity``'s
    ideal state and U|0> (the propagator's |0> column); the six signed
    basis states of the protocol (psi5, psi6, psi7), its three constant
    schedules (no pulse, the MW2 and the MW1 pi pulse) and the states they
    prepare are built, and so checked, once at import, then shared as
    immutable instances;
  * ``Unitary3(matrix)`` checks shape, finiteness and max|U^dag U - I|
    within UNITARY_ATOL (or the caller's ``atol``) with a 3x3 product;
  * a plane rotation that ``dynamics`` applies in closed form to a
    state's amplitudes, with no matrix built (the scheduled preparations,
    the measurement ket and the ideal state of ``rwa_fidelity``), checks
    the closed form |c^2 + s^2 - 1| <= UNITARY_ATOL, the only entry of
    U^dag U - I it can move (``_check_plane_rotation``);
  * ``dynamics.lab_frame_propagator``, a numerical result, takes the full
    ``Unitary3`` check at atol = 1e-8.
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


@dataclass(frozen=True, slots=True, init=False)
class QutritState:
    """Normalized pure state; amplitudes ordered (|+1>, |0>, |-1>)."""

    c_plus: complex
    c_zero: complex
    c_minus: complex

    def __init__(self, c_plus, c_zero, c_minus):
        c_plus, c_zero, c_minus = complex(c_plus), complex(c_zero), complex(c_minus)
        n2 = abs(c_plus) ** 2 + abs(c_zero) ** 2 + abs(c_minus) ** 2
        # a non-finite amplitude makes n2 inf or NaN, which fails this test
        if not abs(n2 - 1.0) <= NORM_ATOL:
            if not math.isfinite(n2):
                raise NormalizationError("state amplitudes must be finite")
            raise NormalizationError(
                f"squared amplitudes sum to {n2!r}, expected 1 within {NORM_ATOL}"
            )
        _set_c_plus(self, c_plus)
        _set_c_zero(self, c_zero)
        _set_c_minus(self, c_minus)

    @classmethod
    def from_vector(cls, vec) -> "QutritState":
        v = np.asarray(vec, dtype=complex)
        if v.shape != (3,):
            raise ValueError(f"expected a length-3 vector, got shape {v.shape}")
        return cls(*v.tolist())

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.c_plus, self.c_zero, self.c_minus])


# The slots' own setters, which a frozen instance's __setattr__ would refuse.
_set_c_plus = QutritState.__dict__["c_plus"].__set__
_set_c_zero = QutritState.__dict__["c_zero"].__set__
_set_c_minus = QutritState.__dict__["c_minus"].__set__


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
        if not np.isfinite(m).all():
            raise UnitarityError("matrix entries must be finite")
        err = np.abs(m.conj().T @ m - _IDENTITY).max()
        if err > atol:
            raise UnitarityError(
                f"U^dag U deviates from identity by {err:.3e} (atol {atol:g})"
            )
        m.setflags(write=False)
        self._m = m

    @classmethod
    def identity(cls) -> "Unitary3":
        return cls(_IDENTITY)

    @property
    def matrix(self) -> np.ndarray:
        return self._m

    def __repr__(self):
        return f"Unitary3({np.array2string(self._m, precision=6)})"


def _check_plane_rotation(c: float, s: float) -> None:
    """Unitarity check of a rotation by the 2x2 block [[c, s], [-s, c]] or
    [[c, -s], [s, c]] on two levels, the third level fixed.

    For such a matrix U^dag U - I is zero except c^2 + s^2 - 1 on the
    block's diagonal, so that one number is the whole unitarity check; a
    non-finite c or s fails it too.
    """
    err = abs(c * c + s * s - 1.0)
    if not err <= UNITARY_ATOL:
        raise UnitarityError(
            f"U^dag U deviates from identity by {err:.3e} (atol {UNITARY_ATOL:g})"
        )


def _locked(array) -> np.ndarray:
    a = np.array(array, dtype=complex)
    a.setflags(write=False)
    return a


_IDENTITY = _locked(np.eye(3))

# Spin-1 operators in the (|+1>, |0>, |-1>) basis, hbar = 1.
_SZ = _locked(np.diag([1.0, 0.0, -1.0]))
_SY = _locked(
    (1.0 / math.sqrt(2.0))
    * np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]])
)


def spin1_matrices() -> tuple[np.ndarray, np.ndarray]:
    """(Sz, Sy) for spin 1: Sz = diag(1, 0, -1), Sy the standard ladder form."""
    return _SZ, _SY
