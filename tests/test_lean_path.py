"""Oracles for the per-object path.

The measurement ket, the scheduled preparations and rwa_fidelity's ideal
state are rotated in closed form with no matrix at all, under a
closed-form unitarity check; these tests rebuild each one through the
public, fully checked constructors and require the same bits.  The
protocol's target-independent states, schedules and the states those
schedules prepare are shared constants, compared bit for bit with freshly
built ones, and the lean constructors of QutritState, PulseSegment,
TargetAmplitudes and MeasurementSpec are pinned to their checks and
messages; all five value classes, PulseSchedule too, are slotted, frozen
and pickle.  Every rule's probability has the bits of its definition,
written out here.  A pulse's one partial CF4 step and rwa_fidelity's read
of U|0> as a column are pinned bit for bit to the stacked step and the
matrix-vector product they replace.
"""

import dataclasses
import math
import pickle
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
    ProbabilityRule,
    PulseSchedule,
    PulseSegment,
    QutritState,
    SorkinLabError,
    TargetAmplitudes,
    UnitarityError,
    Unitary3,
    UnphysicalParameterError,
    apply_schedule,
    inner_product,
    lab_frame_propagator,
    measurement_ket,
    prepare_states,
    probability,
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
from sorkin_lab.qutrit import NORM_ATOL, _check_plane_rotation

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
    # a NaN or inf part fails the deviation test; the refusal names it
    m = np.eye(3, dtype=complex)
    m[1, 2] = complex(bad, 0.0) if part == "real" else complex(0.0, bad)
    with pytest.raises(UnitarityError, match="must be finite"):
        Unitary3(m)


def test_states_are_slotted_and_frozen():
    # the five value classes' one construction idiom: each field stored
    # once through its slot, so no instance has a __dict__.  A store or a
    # delete of a name that is not a field is refused and adds nothing:
    # CPython 3.10-3.13 raise TypeError from the frozen methods' super()
    # on the pre-slots class, which a later release may mend
    values = [
        QutritState(0.6, 0.8j, 0),
        TargetAmplitudes(0.6, -0.0, -0.8),
        MeasurementSpec(-0.0, 1.5),
        PulseSegment("MW2", -1.0),
        PulseSchedule([PulseSegment("MW1", 1.0), PulseSegment("MW2", 2.0)]),
        PulseSchedule(),
    ]
    for value in values:
        assert not hasattr(value, "__dict__"), value
        stored = [getattr(value, field.name) for field in dataclasses.fields(value)]
        for field, x in zip(dataclasses.fields(value), stored):
            with pytest.raises(FrozenInstanceError):
                setattr(value, field.name, x)
        with pytest.raises((TypeError, FrozenInstanceError)):
            value.not_a_field = 1
        with pytest.raises((TypeError, FrozenInstanceError)):
            del value.not_a_field
        assert not hasattr(value, "not_a_field")
        assert type(value)(*stored) == value  # the stored values are canonical
        # pickling restores the slots without __init__: the copy is equal,
        # of equal hash, and of equal repr, which shows -0.0's sign
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(value, protocol))
            assert type(copy) is type(value) and copy == value and hash(copy) == hash(value)
            assert repr(copy) == repr(value)


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
    # a finite amplitude whose square overflows is off norm, not an error
    with pytest.raises(NormalizationError, match=r"^squared amplitudes sum to inf,"):
        QutritState(1e200, 0.0, 0.0)


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


def test_target_amplitudes_constructor_contract():
    t = TargetAmplitudes(a=0.6, b=0.8, c=0.0)
    assert t == TargetAmplitudes(0.6, 0.8, 0.0) == TargetAmplitudes(0.6, c=0.0, b=0.8)
    assert hash(t) == hash(TargetAmplitudes(0.6, 0.8, 0.0)) == hash((0.6, 0.8, 0.0))
    assert t != TargetAmplitudes(0.6, 0.0, 0.8)
    assert repr(t) == "TargetAmplitudes(a=0.6, b=0.8, c=0.0)"
    assert [f.name for f in dataclasses.fields(t)] == ["a", "b", "c"]
    assert dataclasses.replace(t, b=0.0, c=0.8) == TargetAmplitudes(0.6, 0.0, 0.8)
    assert pickle.loads(pickle.dumps(t)) == t
    assert type(TargetAmplitudes(1, 0, 0).a) is int  # stored as given
    with pytest.raises(FrozenInstanceError):
        t.a = 0.0
    signed = TargetAmplitudes(0.6, -0.0, -0.8)
    assert [math.copysign(1.0, x) for x in (signed.a, signed.b, signed.c)] == [1.0, -1.0, -1.0]
    for name in "abc":
        for bad in (math.nan, math.inf, -math.inf, 1e200):
            with pytest.raises(ValueError, match="^amplitudes must be finite$"):
                TargetAmplitudes(**{"a": 0.6, "b": 0.8, "c": 0.0} | {name: bad})
            with pytest.raises(ValueError, match="^amplitudes must be finite$"):
                dataclasses.replace(t, **{name: bad})
    with pytest.raises(ValueError, match=r"^amplitudes must be normalized, got \|t\|\^2 = 2\.0$"):
        TargetAmplitudes(1.0, 1.0, 0.0)
    with pytest.raises(ValueError, match=r"^amplitudes must be normalized, got \|t\|\^2 = 0\.0$"):
        TargetAmplitudes(0.0, -0.0, 0.0)
    with pytest.raises(ValueError, match=r"got \|t\|\^2 = 1\.0000000"):
        dataclasses.replace(t, c=1e-4)


def test_measurement_spec_constructor_contract():
    spec = MeasurementSpec(theta1=1.5, theta2=-2.5)
    assert spec == MeasurementSpec(1.5, -2.5) == MeasurementSpec(1.5, theta2=-2.5)
    assert hash(spec) == hash(MeasurementSpec(1.5, -2.5)) == hash((1.5, -2.5))
    assert repr(spec) == "MeasurementSpec(theta1=1.5, theta2=-2.5)"
    assert [f.name for f in dataclasses.fields(spec)] == ["theta1", "theta2"]
    assert dataclasses.replace(spec, theta2=0.0) == MeasurementSpec(1.5, 0.0)
    assert pickle.loads(pickle.dumps(spec)) == spec
    assert pickle.loads(pickle.dumps(MEASUREMENT_M2)) == MEASUREMENT_M2
    with pytest.raises(FrozenInstanceError):
        spec.theta1 = 0.0
    signed = MeasurementSpec(-0.0, 0.0)
    assert (math.copysign(1.0, signed.theta1), math.copysign(1.0, signed.theta2)) == (-1.0, 1.0)
    for name in ("theta1", "theta2"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="^measurement angles must be finite$"):
                MeasurementSpec(**{"theta1": 1.5, "theta2": -2.5} | {name: bad})
            with pytest.raises(ValueError, match="^measurement angles must be finite$"):
                dataclasses.replace(spec, **{name: bad})


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


def _defined_probability(kind: str, eps: float, m: QutritState, psi: QutritState) -> float:
    """The rules' definitions, written out: the overlap <m|psi> summed over
    (|+1>, |0>, |-1>), and the triple rule's path amplitudes w_a (|0>),
    w_b (|+1>) and w_c (|-1>), as the born module's docstring defines them."""
    if kind == "triple":
        w_a = m.c_zero.conjugate() * psi.c_zero
        w_b = m.c_plus.conjugate() * psi.c_plus
        w_c = m.c_minus.conjugate() * psi.c_minus
        return abs(w_a + w_b + w_c) ** 2 + 2.0 * eps * (w_a * w_b.conjugate() * w_c).real
    overlap = (
        m.c_plus.conjugate() * psi.c_plus
        + m.c_zero.conjugate() * psi.c_zero
        + m.c_minus.conjugate() * psi.c_minus
    )
    return abs(overlap) ** (2.0 + eps) if kind == "exponent" else abs(overlap) ** 2


@st.composite
def _target_with_a_signed_zero_at_most(draw):
    """(a, b, c): one component, in a drawn place, from _component, so a
    signed zero in at most one; the other two at least 1e-11 in magnitude,
    so that no pair has a norm under the protocol's degeneracy floor of
    1e-12.  _component in all three places would discard about two draws
    in three, enough to fail hypothesis's filter_too_much health check at
    about 2% of seeds."""
    sturdy = st.one_of(
        st.floats(min_value=1e-11, max_value=1.0), st.floats(min_value=-1.0, max_value=-1e-11)
    )
    abc = [draw(sturdy), draw(sturdy)]
    abc.insert(draw(st.sampled_from([0, 1, 2])), draw(_component))
    return tuple(abc)


@given(
    _target_with_a_signed_zero_at_most(),
    _angles,
    _angles,
    st.one_of(st.floats(min_value=-1.9, max_value=4.0), st.sampled_from([0.0, -0.0])),
)
@example(PAPER_ABC, math.pi / 2, math.pi / 2, 0.05)
@example(PAPER_ABC, 3 * math.pi / 2, math.pi / 2, -0.05)
@example(PAPER_ABC, -0.0, -0.0, -0.0)
@example((0.6, -0.0, -0.8), 0.0, -0.0, 0.0)
@example((-0.6, 0.8, 0.0), math.pi, -math.pi, -1.5)  # triple: a negative probability
def test_every_rule_probability_is_its_definition(abc, theta1, theta2, eps):
    # the protocol's states and measurement ket, whose bits the oracles
    # above pin, through each rule against its written-out definition
    a, b, c = abc
    n = math.sqrt(a * a + b * b + c * c)
    assume(n > 1e-3)
    states = _outcome(prepare_states, TargetAmplitudes(a / n, b / n, c / n))
    assume(len(states) == 7)  # a refusal is a (type, message) pair
    m = measurement_ket(MeasurementSpec(theta1, theta2))
    rules = (ProbabilityRule.born(), ProbabilityRule("exponent", eps), ProbabilityRule("triple", eps))
    for rule in rules:
        for psi in states:
            want = _defined_probability(rule.kind, rule.epsilon, m, psi)
            if not 0.0 <= want < math.inf:
                assert rule.kind == "triple"
                with pytest.raises(UnphysicalParameterError, match="drives a probability"):
                    probability(rule, m, psi)
                continue
            got = probability(rule, m, psi)
            assert type(got) is float and got.hex() == want.hex(), (rule, psi)


@given(
    st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=6, max_size=6),
    st.floats(min_value=-3 * NORM_ATOL, max_value=3 * NORM_ATOL),
)
@example([0.6, 0.0, 0.0, 0.8, 0.0, 0.0], 0.999 * NORM_ATOL)
@example([0.6, 0.0, 0.0, 0.8, 0.0, 0.0], 1.001 * NORM_ATOL)
@example([0.0, 0.6, -0.0, 0.0, -0.8, 0.0], -0.999 * NORM_ATOL)
@example([0.0, 0.6, -0.0, 0.0, -0.8, 0.0], -1.001 * NORM_ATOL)
def test_state_norm_check_decides_as_the_summed_squared_moduli(parts, delta):
    # states either side of NORM_ATOL, accepted or refused as the sum of
    # abs(c) ** 2 decides, away from the boundary's last ulp
    amplitudes = [complex(parts[k], parts[k + 1]) for k in (0, 2, 4)]
    n = math.sqrt(sum(abs(x) ** 2 for x in amplitudes))
    assume(n > 0.1)
    scale = math.sqrt(1.0 + delta) / n
    amplitudes = [x * scale for x in amplitudes]
    n2 = abs(amplitudes[0]) ** 2 + abs(amplitudes[1]) ** 2 + abs(amplitudes[2]) ** 2
    assume(abs(abs(n2 - 1.0) - NORM_ATOL) > 4 * sys.float_info.epsilon)
    if abs(n2 - 1.0) <= NORM_ATOL:
        state = QutritState(*amplitudes)
        assert [state.c_plus, state.c_zero, state.c_minus] == amplitudes
    else:
        with pytest.raises(NormalizationError, match=r"^squared amplitudes sum to [01]\.\d+,"):
            QutritState(*amplitudes)


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
