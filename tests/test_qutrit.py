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
)
from sorkin_lab.qutrit import _SY

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


def _einsum_deviations(m):
    """|U^dag U - I| entry by entry as a 3x3 matrix product: the reference
    formula, whose max the refusal reports."""
    return np.abs(np.einsum("ki,kj->ij", m.conj(), m) - np.eye(3))


@pytest.mark.parametrize("atol", [1e-9, 1e-8])
def test_unitary_check_decides_as_the_matrix_product(atol):
    # seeded random unitaries times (I + eps E_ij): for i == j, a real eps
    # within +-atol scales column i and moves the (i, i) entry of
    # U^dag U - I by about 2 eps; for i != j, a complex eps of modulus
    # 0.5-1.5 atol moves the (i, j) entry by about |eps| and the diagonal
    # only by about eps**2.  So each of the six distinct entries decides
    # some refusals, and the closed form must decide as the product does
    rng = np.random.default_rng(20161)
    places = [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]
    refused_by = dict.fromkeys(places, 0)
    accepted = 0
    for n in range(1200):
        q, r = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        i, j = places[n % 6]
        if rng.random() < 0.5:
            i, j = j, i
        shear = np.eye(3, dtype=complex)
        if i == j:
            shear[i, i] += rng.choice([-1.0, 1.0]) * rng.uniform(0.0, 1.0) * atol
        else:
            shear[i, j] = rng.uniform(0.5, 1.5) * atol * np.exp(1j * rng.uniform(0, 2 * math.pi))
        m = q @ shear
        dev = _einsum_deviations(m)
        err = dev.max()
        if abs(err - atol) <= 4 * math.ulp(atol):
            continue
        if err <= atol:
            assert Unitary3(m, atol=atol).matrix.tobytes() == m.tobytes()
            accepted += 1
        else:
            with pytest.raises(UnitarityError) as refused:
                Unitary3(m, atol=atol)
            assert str(refused.value) == (
                f"U^dag U deviates from identity by {err:.3e} (atol {atol:g})"
            )
            i, j = sorted(np.unravel_index(dev.argmax(), dev.shape))
            refused_by[i, j] += 1
    assert accepted >= 300 and min(refused_by.values()) >= 50, (accepted, refused_by)


@pytest.mark.parametrize(
    "entries, err",
    [
        # |m[0, 0]|**2 + |m[1, 0]|**2 overflows, and so does the modulus of
        # the finite (0, 1) entry: abs() of that complex would raise
        # OverflowError
        ({(0, 0): 1.2e154, (0, 1): 1.2e154 * (1 + 1j)}, "inf"),
        # the (0, 1) entry is inf - inf
        ({(0, 0): 1e200, (1, 0): 1e200, (0, 1): 1e200, (1, 1): -1e200}, "nan"),
    ],
)
def test_unitary_refuses_a_finite_matrix_whose_product_overflows(entries, err):
    m = np.eye(3, dtype=complex)
    for place, value in entries.items():
        m[place] = value
    assert f"{_einsum_deviations(m).max():.3e}" == err
    match = rf"^U\^dag U deviates from identity by {err} \(atol 1e-09\)$"
    with pytest.raises(UnitarityError, match=match):
        Unitary3(m)


@pytest.mark.parametrize("atol, shown", [(-1.0, "-1"), (math.nan, "nan")])
def test_a_negative_or_nan_atol_refuses_every_matrix(atol, shown):
    match = rf"^U\^dag U deviates from identity by 0\.000e\+00 \(atol {shown}\)$"
    with pytest.raises(UnitarityError, match=match):
        Unitary3(np.eye(3), atol=atol)


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
    # the package's Sy against spin-1 Sz and Sx written out here:
    # Hermitian, eigenvalues -1, 0, 1, and [Sz, Sy] = -i Sx
    sz = np.diag([1.0, 0.0, -1.0])
    sx = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / math.sqrt(2)
    assert np.array_equal(_SY, _SY.conj().T)
    assert np.allclose(np.linalg.eigvalsh(_SY), [-1, 0, 1], atol=1e-15)
    assert np.allclose(sz @ _SY - _SY @ sz, -1j * sx, atol=1e-15)
    assert not _SY.flags.writeable


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
