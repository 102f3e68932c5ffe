"""Oracles for the per-object path.

The measurement ket, the scheduled preparations and rwa_fidelity's ideal
state are rotated in closed form with no matrix at all, under a
closed-form unitarity check; these tests rebuild each one through the
public, fully checked constructors and require the same bits.  The
protocol's target-independent states, schedules and the states those
schedules prepare are shared constants, compared bit for bit with freshly
built ones, and the lean constructors of QutritState and PulseSegment are
pinned to their checks and messages.  A pulse's one partial CF4 step and
rwa_fidelity's read of U|0> as a column are pinned bit for bit to the
stacked step and the matrix-vector product they replace.
"""

import dataclasses
import math
import sys
from dataclasses import FrozenInstanceError
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from sorkin_lab import (
    MEASUREMENT_M1,
    MEASUREMENT_M2,
    MeasurementSpec,
    NormalizationError,
    PulseSchedule,
    PulseSegment,
    QutritState,
    SorkinLabError,
    TargetAmplitudes,
    UnitarityError,
    Unitary3,
    apply_schedule,
    inner_product,
    lab_frame_propagator,
    measurement_ket,
    prepare_states,
    protocol,
    rwa_fidelity,
    solve_schedule,
)
from sorkin_lab.dynamics import (
    CHANNELS,
    TWO_PI,
    HamiltonianParams,
    _cf4_step,
    _cf4_steps,
    _period_propagator,
    _rotate,
)
from sorkin_lab.qutrit import _check_plane_rotation

from conftest import PAPER_ABC, fresh_prepare_states, fresh_solve_schedule, r1_rows, r2_rows

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
                u = Unitary3(rows(seg.angle))
                expected = QutritState.from_vector(u.matrix @ QutritState(0.0, 1.0, 0.0).vector)
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
    # a state built from a matrix-vector product still gets the norm check
    loose = Unitary3(1.01 * np.eye(3), atol=0.1)
    with pytest.raises(NormalizationError):
        QutritState.from_vector(loose.matrix @ QutritState(0.0, 1.0, 0.0).vector)
    # ... and so does rwa_fidelity's U|0>, read as the |0> column
    with mock.patch("sorkin_lab.dynamics.lab_frame_propagator", return_value=loose):
        with pytest.raises(NormalizationError):
            rwa_fidelity(HamiltonianParams(), PulseSegment("MW1", 1.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("part", ["real", "imag"])
def test_unitary_refuses_one_non_finite_part(part, bad):
    # a NaN makes err > atol false, so only the finiteness check refuses it
    m = np.eye(3, dtype=complex)
    m[1, 2] = complex(bad, 0.0) if part == "real" else complex(0.0, bad)
    with pytest.raises(UnitarityError, match="must be finite"):
        Unitary3(m)


def test_states_are_slotted_and_frozen():
    state = QutritState(0.6, 0.8j, 0)
    assert not hasattr(state, "__dict__")
    with pytest.raises(FrozenInstanceError):
        state.c_plus = 1.0
    assert state == QutritState(0.6 + 0j, 0.8j, 0j)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("part", ["real", "imag"])
@pytest.mark.parametrize("index", [0, 1, 2])
def test_state_refuses_one_non_finite_part(index, part, bad):
    # a NaN fails the norm test as well; the finiteness message must win
    amplitudes = [0j, 1 + 0j, 0j]
    x = amplitudes[index]
    amplitudes[index] = complex(bad, x.imag) if part == "real" else complex(x.real, bad)
    with pytest.raises(NormalizationError, match="state amplitudes must be finite"):
        QutritState(*amplitudes)


def test_state_off_norm_names_its_squared_sum():
    message = r"^squared amplitudes sum to 2\.0, expected 1 within 1e-09$"
    with pytest.raises(NormalizationError, match=message):
        QutritState(1.0, 1.0, 0.0)
    with pytest.raises(NormalizationError, match="squared amplitudes sum to 0.0,"):
        QutritState(0.0, 0.0, 0.0)
    QutritState(math.sqrt(1.0 + 5e-10), 0.0, 0.0)  # inside NORM_ATOL
    with pytest.raises(NormalizationError, match=r"squared amplitudes sum to 1\.00000000"):
        QutritState(math.sqrt(1.0 + 2e-9), 0.0, 0.0)


def test_pulse_segment_constructor_contract():
    seg = PulseSegment(channel="MW2", angle=1.5)
    assert seg == PulseSegment("MW2", 1.5) and hash(seg) == hash(PulseSegment("MW2", 1.5))
    assert dataclasses.replace(seg, channel="MW1") == PulseSegment("MW1", 1.5)
    for angle in (-1e-17, 2.0 * math.pi):
        for moved in (PulseSegment("MW1", angle), dataclasses.replace(seg, angle=angle)):
            assert moved.angle == 0.0 and math.copysign(1.0, moved.angle) == 1.0
    with pytest.raises(ValueError, match=r"^channel must be one of \('MW1', 'MW2'\), got 'MW3'$"):
        PulseSegment("MW3", 1.0)
    with pytest.raises(ValueError, match="channel must be one of"):
        dataclasses.replace(seg, channel="mw2")
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^angle must be finite, got {bad!r}$"):
            PulseSegment("MW1", bad)
    with pytest.raises(FrozenInstanceError):
        seg.angle = 0.0
    schedule = PulseSchedule(segments=[seg])
    assert schedule.segments == (seg,) and type(schedule.segments) is tuple
    assert PulseSchedule() == PulseSchedule(()) and PulseSchedule().segments == ()
    with pytest.raises(FrozenInstanceError):
        schedule.segments = ()


def _schedule_bits(schedule: PulseSchedule) -> list:
    assert type(schedule.segments) is tuple
    assert all(type(seg.angle) is float for seg in schedule.segments)
    return [(seg.channel, np.float64(seg.angle).tobytes()) for seg in schedule.segments]


def _outcome(f, *args):
    try:
        return f(*args)
    except SorkinLabError as exc:
        return (type(exc), str(exc))


_component = st.one_of(st.floats(min_value=-1.0, max_value=1.0), st.sampled_from([0.0, -0.0]))


@given(_component, _component, _component)
@example(*PAPER_ABC)
@example(0.6, 0.8, 0.0)  # c = 0: psi4's MW1 angle is +0.0 and is dropped
@example(0.6, -0.8, 0.0)  # ... and here -0.0
@example(0.6, 0.8, -0.0)
@example(-0.6, -0.8, -0.0)
@example(0.6, 0.0, -0.8)
@example(-0.6, -0.0, 0.8)
@example(-0.0, 0.6, -0.8)  # prepare_states only: a = 0 is unreachable
@example(1.0, 0.0, -0.0)  # degenerate: both refuse it
def test_shared_protocol_objects_equal_fresh_ones(a, b, c):
    n = math.sqrt(a * a + b * b + c * c)
    assume(n > 1e-3)
    t = TargetAmplitudes(a / n, b / n, c / n)

    got, want = _outcome(prepare_states, t), _outcome(fresh_prepare_states, t)
    assert got == want
    if isinstance(want, tuple) and len(want) == 7:
        assert [_bits(s) for s in got] == [_bits(s) for s in want]

    got, want = _outcome(solve_schedule, t, 5e6), _outcome(fresh_solve_schedule, t, 5e6)
    assert got == want
    if isinstance(want, tuple) and len(want) == 7:
        assert [_schedule_bits(s) for s in got] == [_schedule_bits(s) for s in want]


_SHARED_SCHEDULES = (protocol._SCHEDULE_NONE, protocol._SCHEDULE_MW2_PI, protocol._SCHEDULE_MW1_PI)


def test_shared_schedules_return_their_prepared_states():
    # psi5..psi7's schedules are the shared constants, each of whose states
    # is prepared once; an equal schedule built by a caller is rotated afresh
    singles = solve_schedule(TargetAmplitudes(*PAPER_ABC), 5e6)[4:]
    assert all(got is shared for got, shared in zip(singles, _SHARED_SCHEDULES, strict=True))
    for shared in _SHARED_SCHEDULES:
        state = apply_schedule(shared)
        assert apply_schedule(shared) is state
        equal = PulseSchedule(shared.segments)
        assert equal == shared and equal is not shared
        fresh = apply_schedule(equal)
        assert fresh is not state
        assert _bits(state) == _bits(fresh) == _bits(_validated_preparation(equal))


@pytest.mark.parametrize("steps", [50, 200, 1600])
@pytest.mark.parametrize("omega1_hz", [1e5, 5e6, 2e7, 5e7])
@pytest.mark.parametrize("channel", CHANNELS)
def test_partial_step_is_the_one_step_stack_bit_for_bit(channel, omega1_hz, steps):
    # the lean step a pulse takes against _cf4_steps(..., 1)[0], for the
    # first and last prefix and seeded random ones, r next to 0 and dt
    p = HamiltonianParams(omega1_hz=omega1_hz)
    entry = _period_propagator(p, channel, steps, 0.0)
    omega_d = TWO_PI * p.drive_frequency_hz(channel)
    dt = entry.dt
    rng = np.random.default_rng([CHANNELS.index(channel), int(omega1_hz), steps])
    ms = [0, steps - 1, 0, steps - 1, *rng.integers(0, steps, 20).tolist()]
    rs = [dt * 1e-12, math.nextafter(dt, 0.0), dt * (1.0 - 1e-12), dt * 2.0**-40]
    rs += (dt * rng.random(20)).tolist()
    for m, r in zip(ms, rs):
        want = _cf4_steps(entry.h0_half, entry.drive, omega_d, m * dt, r, 1)[0]
        got = _cf4_step(entry.h0_half, entry.drive, omega_d, m * dt, r)
        assert got.tobytes() == want.tobytes(), (m, r)


@pytest.mark.parametrize("omega1_hz", [5e6, 5e7])
def test_rwa_fidelity_equals_the_overlap_with_the_applied_propagator(omega1_hz):
    # every pulse of the paper point's schedules and both measurements: U's
    # |0> column equals U @ |0> (up to the sign of a zero), and the fidelity
    # has the bits of the overlap with the checked matrix-vector product
    p = HamiltonianParams(omega1_hz=omega1_hz)
    pulses = [seg for s in solve_schedule(TargetAmplitudes(*PAPER_ABC), omega1_hz) for seg in s]
    for spec in (MEASUREMENT_M1, MEASUREMENT_M2):
        pulses += [PulseSegment("MW2", spec.theta2), PulseSegment("MW1", spec.theta1)]
    assert len(pulses) == 12
    for seg in pulses:
        full = lab_frame_propagator(p, seg)
        product = full.matrix @ QutritState(0.0, 1.0, 0.0).vector
        assert np.array_equal(full.matrix[:, 1], product)
        ideal = QutritState(*_rotate(seg.channel, seg.angle, (0.0, 1.0, 0.0)))
        overlap = inner_product(ideal, QutritState.from_vector(product))
        want = min(1.0, max(0.0, abs(overlap) ** 2))
        assert rwa_fidelity(p, seg).hex() == want.hex(), seg
