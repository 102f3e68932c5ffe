import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sorkin_lab import (
    NormalizationError,
    QutritState,
    UnitarityError,
    Unitary3,
    inner_product,
    spin1_matrices,
)

from conftest import r1_rows, r2_rows

SQRT3 = math.sqrt(3.0)

KET_PLUS = QutritState(1, 0, 0)
KET_ZERO = QutritState(0, 1, 0)
KET_MINUS = QutritState(0, 0, 1)

_angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
_phases = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)


def test_inner_product_identity():
    assert inner_product(KET_ZERO, KET_ZERO) == 1 + 0j


def test_inner_product_orthonormal_basis():
    assert inner_product(KET_PLUS, KET_MINUS) == 0j
    assert inner_product(KET_PLUS, KET_ZERO) == 0j


def test_inner_product_paper_configuration():
    m1 = QutritState(0.5, 0.5, 1 / math.sqrt(2))
    psi1 = QutritState(-1 / SQRT3, 1 / SQRT3, -1 / SQRT3)
    expected = -1 / math.sqrt(6)
    assert inner_product(m1, psi1) == pytest.approx(expected, abs=1e-15)


def test_inner_product_conjugate_symmetric():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = QutritState.from_vector(_unit(rng))
        y = QutritState.from_vector(_unit(rng))
        assert inner_product(x, y) == pytest.approx(
            inner_product(y, x).conjugate(), abs=1e-15
        )


@given(_phases)
def test_inner_product_phase_linear_in_ket(phi):
    x = QutritState(0.5, 0.5, 1 / math.sqrt(2))
    y = QutritState(-1 / SQRT3, 1 / SQRT3, -1 / SQRT3)
    lam = complex(math.cos(phi), math.sin(phi))
    y_scaled = QutritState.from_vector(lam * y.vector)
    assert inner_product(x, y_scaled) == pytest.approx(
        lam * inner_product(x, y), abs=1e-12
    )


def test_state_rejects_unnormalized():
    with pytest.raises(NormalizationError):
        QutritState(1.0, 1.0, 0.0)
    with pytest.raises(NormalizationError):
        QutritState(float("nan"), 0.0, 0.0)


def test_apply_identity():
    psi = QutritState(-1 / SQRT3, 1 / SQRT3, -1 / SQRT3)
    out = QutritState.from_vector(Unitary3.identity().matrix @ psi.vector)
    assert np.allclose(out.vector, psi.vector)


def test_apply_pi_pulse_sends_zero_to_minus():
    out = QutritState.from_vector(Unitary3(r1_rows(math.pi)).matrix @ KET_ZERO.vector)
    assert np.allclose(out.vector, [0, 0, -1], atol=1e-15)


def test_apply_prepares_paper_superposition():
    u = Unitary3(r2_rows(math.pi / 2)).matrix @ Unitary3(r1_rows(math.acos(1 / 3))).matrix
    out = QutritState.from_vector(Unitary3(u).matrix @ KET_ZERO.vector)
    assert np.allclose(out.vector, [-1 / SQRT3, 1 / SQRT3, -1 / SQRT3], atol=1e-15)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("row, col", [(i, j) for i in range(3) for j in range(3)])
def test_unitary_refuses_a_non_finite_entry_as_non_finite(row, col, bad):
    # the deviation test runs first and fails on NaN or inf; the refusal
    # names the cause, with no warning on the way
    m = np.eye(3, dtype=complex)
    m[row, col] = bad
    with pytest.raises(UnitarityError, match="^matrix entries must be finite$"):
        Unitary3(m)


def test_apply_rejects_nonunitary():
    # (1.1 I)^dag (1.1 I) - I = 0.21 I
    match = r"^U\^dag U deviates from identity by 2\.100e-01 \(atol 1e-09\)$"
    with pytest.raises(UnitarityError, match=match):
        Unitary3(1.1 * np.eye(3))
    with pytest.raises(UnitarityError, match=r"by 2\.100e-01 \(atol 0\.2\)"):
        Unitary3(1.1 * np.eye(3), atol=0.2)
    assert Unitary3(1.1 * np.eye(3), atol=0.25).matrix[0, 0] == 1.1
    # either side of the default UNITARY_ATOL = 1e-9: |(1 + d)^2 - 1| ~ 2d
    Unitary3((1.0 + 4e-10) * np.eye(3))
    with pytest.raises(UnitarityError, match=r"by 1\.200e-09 \(atol 1e-09\)"):
        Unitary3((1.0 + 6e-10) * np.eye(3))


def test_compose_matches_closed_form_column():
    # R2(t') R1(t) |0> = (-cos(t/2) sin(t'/2), cos(t/2) cos(t'/2), -sin(t/2))
    t, tp = math.acos(1 / 3), math.pi / 2
    u = Unitary3(r2_rows(tp)).matrix @ Unitary3(r1_rows(t)).matrix
    expected = np.array(
        [
            -math.cos(t / 2) * math.sin(tp / 2),
            math.cos(t / 2) * math.cos(tp / 2),
            -math.sin(t / 2),
        ]
    )
    assert np.allclose(u[:, 1], expected, atol=1e-15)


def test_spin1_matrices():
    sz, sy = spin1_matrices()
    assert np.allclose(np.sort(np.linalg.eigvalsh(sz)), [-1, 0, 1])
    assert np.allclose(sy, sy.conj().T)
    sx = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / math.sqrt(2)
    assert np.allclose(sz @ sy - sy @ sz, -1j * sx, atol=1e-15)


def test_random_rotation_compositions_stay_unitary():
    # 1e4 compositions of the two rotation generators
    rng = np.random.default_rng(12345)
    eye = np.eye(3)
    worst_unitarity = 0.0
    worst_norm = 0.0
    psi = QutritState(-1 / SQRT3, 1 / SQRT3, -1 / SQRT3).vector
    for _ in range(10_000):
        u = (
            Unitary3(r2_rows(rng.uniform(0, 2 * math.pi))).matrix
            @ Unitary3(r1_rows(rng.uniform(0, 2 * math.pi))).matrix
        )
        worst_unitarity = max(worst_unitarity, np.max(np.abs(u.conj().T @ u - eye)))
        worst_norm = max(worst_norm, abs(np.linalg.norm(u @ psi) ** 2 - 1.0))
    assert worst_unitarity < 1e-12
    assert worst_norm < 1e-12


def _unit(rng):
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    return v / np.linalg.norm(v)
