"""Oracles for the per-object path.

The measurement ket, the scheduled preparations and rwa_fidelity's ideal
state are rotated in closed form with no matrix at all, under a
closed-form unitarity check; these tests rebuild each one through the
public, fully checked constructors and require the same bits.
"""

import math
import sys
from dataclasses import FrozenInstanceError
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sorkin_lab import (
    MeasurementSpec,
    NormalizationError,
    PulseSchedule,
    PulseSegment,
    QutritState,
    UnitarityError,
    Unitary3,
    apply_schedule,
    apply_unitary,
    inner_product,
    measurement_ket,
    rwa_fidelity,
)
from sorkin_lab.dynamics import CHANNELS, HamiltonianParams, _rotate
from sorkin_lab.qutrit import _check_plane_rotation

from conftest import r1_rows, r2_rows

# Every finite float, with the large magnitudes drawn on purpose: there
# cos and sin of the half angle carry the most argument-reduction error.
_angles = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=1e6, max_value=sys.float_info.max),
    st.floats(min_value=-sys.float_info.max, max_value=-1e6),
)
_SPECIAL_ANGLES = (0.0, -0.0, math.pi, 2.0 * math.pi, -math.pi, 1e6, -1e6, 1e300)


def _special_angles(arity=1):
    """Add each special angle as an explicit example, in every argument."""

    def decorate(test):
        for theta in _SPECIAL_ANGLES:
            test = example(*[theta] * arity)(test)
        return test

    return decorate


def _bits(state: QutritState) -> bytes:
    amplitudes = (state.c_plus, state.c_zero, state.c_minus)
    assert all(type(x) is complex for x in amplitudes)
    return np.array(amplitudes).tobytes()


def _validated_preparation(schedule: PulseSchedule) -> QutritState:
    """A schedule run on |0> through checked matrices and checked states."""
    state = QutritState.from_vector([0.0, 1.0, 0.0])
    for seg in schedule:
        rows = r1_rows(seg.angle) if seg.channel == "MW1" else r2_rows(seg.angle)
        state = QutritState.from_vector(Unitary3(rows).matrix @ state.vector)
    return state


@_special_angles()
@given(_angles)
def test_closed_form_unitarity_error_matches_the_matrix_product(theta):
    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    closed = abs(c * c + s * s - 1.0)
    for rows in (r1_rows, r2_rows):
        u = Unitary3(rows(theta)).matrix
        full = np.max(np.abs(u.conj().T @ u - np.eye(3)))
        assert abs(closed - full) <= 1e-15


@pytest.mark.parametrize(
    "c, s, unitary",
    [
        (1.0, 1e-5, True),  # c^2 + s^2 - 1 = 1e-10, inside UNITARY_ATOL
        (1.0, 1e-4, False),  # 1e-8, outside
        (0.6, 0.8 * (1 + 1e-6), False),
        (math.nan, 0.0, False),
        (0.0, math.inf, False),
    ],
)
def test_closed_form_check_decides_as_the_full_check(c, s, unitary):
    rows = [[1, 0, 0], [0, c, s], [0, -s, c]]
    if unitary:
        _check_plane_rotation(c, s)
        Unitary3(rows)
        return
    with pytest.raises(UnitarityError):
        _check_plane_rotation(c, s)
    with pytest.raises(UnitarityError):
        Unitary3(rows)


@_special_angles(2)
@given(_angles, _angles)
@example(math.pi / 2, math.pi / 2)
@example(3 * math.pi / 2, math.pi / 2)
def test_measurement_ket_equals_the_validated_composition(theta1, theta2):
    validated = QutritState.from_vector(
        Unitary3(r2_rows(theta2)).matrix.conj().T
        @ Unitary3(r1_rows(theta1)).matrix.conj().T
        @ QutritState(0.0, 1.0, 0.0).vector
    )
    assert _bits(measurement_ket(MeasurementSpec(theta1, theta2))) == _bits(validated)


@given(st.lists(st.tuples(st.sampled_from(CHANNELS), _angles), max_size=8))
def test_apply_schedule_equals_the_validated_composition(pulses):
    schedule = PulseSchedule(tuple(PulseSegment(ch, angle) for ch, angle in pulses))
    assert _bits(apply_schedule(schedule)) == _bits(_validated_preparation(schedule))


@_special_angles()
@given(_angles)
def test_rwa_ideal_state_equals_the_rotation_applied_to_ket_zero(theta):
    # the propagator is replaced by the identity, so no pulse is integrated,
    # and the ideal state is read from the overlap's bra
    bras = []

    def recording_inner_product(bra, ket):
        bras.append(bra)
        return inner_product(bra, ket)

    with mock.patch("sorkin_lab.dynamics.lab_frame_propagator", return_value=Unitary3.identity()):
        with mock.patch("sorkin_lab.dynamics.inner_product", recording_inner_product):
            for channel, rows in (("MW1", r1_rows), ("MW2", r2_rows)):
                seg = PulseSegment(channel, theta)
                rwa_fidelity(HamiltonianParams(), seg)
                expected = apply_unitary(Unitary3(rows(seg.angle)), QutritState.ket_zero())
                assert _bits(bras[-1]) == _bits(expected)
    assert len(bras) == 2


@pytest.mark.parametrize("adjoint", [False, True])
@pytest.mark.parametrize("channel", CHANNELS)
def test_closed_form_state_rotation_keeps_the_unitarity_check(channel, adjoint):
    # a NaN angle gives NaN (c, s), which only the closed-form check refuses
    with pytest.raises(UnitarityError):
        _rotate(channel, math.nan, (0.0, 1.0, 0.0), adjoint=adjoint)


def test_public_constructors_keep_their_checks():
    with pytest.raises(NormalizationError):
        QutritState(1.0, 1.0, 0.0)
    with pytest.raises(NormalizationError):
        QutritState(math.nan, 1.0, 0.0)
    with pytest.raises(NormalizationError):
        QutritState.from_vector([0.6, 0.6, 0.6])
    with pytest.raises(ValueError, match="length-3"):
        QutritState.from_vector([1.0, 0.0])
    with pytest.raises(ValueError, match="length-3"):
        QutritState.from_vector(np.eye(3))
    with pytest.raises(UnitarityError):
        Unitary3(1.1 * np.eye(3))
    with pytest.raises(UnitarityError):
        Unitary3(np.full((3, 3), math.nan))
    # a state built by apply_unitary still gets the norm check
    loose = Unitary3(1.01 * np.eye(3), atol=0.1)
    with pytest.raises(NormalizationError):
        apply_unitary(loose, QutritState(0.0, 1.0, 0.0))


def test_states_are_slotted_and_frozen():
    state = QutritState(0.6, 0.8j, 0)
    assert not hasattr(state, "__dict__")
    with pytest.raises(FrozenInstanceError):
        state.c_plus = 1.0
    assert state == QutritState(0.6 + 0j, 0.8j, 0j)
    assert QutritState.ket_zero() == QutritState(0.0, 1.0, 0.0)
