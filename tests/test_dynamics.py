import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sorkin_lab import (
    HamiltonianParams,
    PulseSchedule,
    PulseSegment,
    QutritState,
    StepResolutionError,
    lab_frame_propagator,
    rotation_r1,
    rotation_r2,
    rwa_fidelity,
)
from sorkin_lab.dynamics import CHANNELS, TWO_PI, _cf4_span, _period_propagator
from sorkin_lab.qutrit import spin1_matrices

_angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def test_rotation_r1_identity_and_pi():
    assert np.allclose(rotation_r1(0.0).matrix, np.eye(3))
    out = rotation_r1(math.pi).matrix @ np.array([0, 1, 0], dtype=complex)
    assert np.allclose(out, [0, 0, -1], atol=1e-15)


def test_rotation_r1_half_angle_entries():
    theta = math.acos(1 / 3)
    m = rotation_r1(theta).matrix
    assert m[1, 1] == pytest.approx(math.sqrt(2 / 3), abs=1e-15)
    assert m[1, 2] == pytest.approx(1 / math.sqrt(3), abs=1e-15)


def test_rotation_r2_identity_spinor_and_quarter():
    assert np.allclose(rotation_r2(0.0).matrix, np.eye(3))
    ket0 = np.array([0, 1, 0], dtype=complex)
    assert np.allclose(rotation_r2(2 * math.pi).matrix @ ket0, [0, -1, 0], atol=1e-12)
    out = rotation_r2(math.pi / 2).matrix @ ket0
    assert np.allclose(out, [-1 / math.sqrt(2), 1 / math.sqrt(2), 0], atol=1e-15)


@given(_angles, _angles)
def test_rotation_r1_one_parameter_subgroup(t1, t2):
    prod = rotation_r1(t1).matrix @ rotation_r1(t2).matrix
    assert np.max(np.abs(prod - rotation_r1(t1 + t2).matrix)) < 1e-12


@given(_angles, _angles)
def test_rotation_r2_one_parameter_subgroup(t1, t2):
    prod = rotation_r2(t1).matrix @ rotation_r2(t2).matrix
    assert np.max(np.abs(prod - rotation_r2(t1 + t2).matrix)) < 1e-12


def test_pulse_segment_canonicalizes_angle():
    seg = PulseSegment("MW1", -math.pi)
    assert seg.angle == pytest.approx(math.pi)
    assert PulseSegment("MW2", 2 * math.pi).angle == 0.0
    with pytest.raises(ValueError):
        PulseSegment("MW3", 1.0)


@pytest.mark.parametrize("angle", [-1e-17, -5e-324, -0.0])
def test_pulse_segment_maps_tiny_negative_angles_to_zero(angle):
    # for the two nonzero angles, float(angle) % 2*pi rounds up to 2*pi itself
    seg = PulseSegment("MW1", angle)
    assert seg.angle == 0.0 and math.copysign(1.0, seg.angle) == 1.0
    assert seg.duration_s(5e6) == 0.0


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_pulse_segment_angle_stays_in_half_open_range(angle):
    assert 0.0 <= PulseSegment("MW2", angle).angle < TWO_PI


def test_pulse_durations():
    seg = PulseSegment("MW1", math.pi)
    assert seg.duration_s(5e6) == pytest.approx(100e-9)
    sched = PulseSchedule((seg, PulseSegment("MW2", math.pi / 2)))
    assert sched.angle_pair() == pytest.approx((math.pi, math.pi / 2))
    assert sched.total_duration_s(5e6) == pytest.approx(150e-9)


def test_params_validation_and_carriers():
    p = HamiltonianParams()
    assert p.omega_mw1_hz == pytest.approx(2.87e9 - 2.80e6 * 510)
    assert p.omega_mw2_hz == pytest.approx(2.87e9 + 2.80e6 * 510)
    with pytest.raises(ValueError):
        HamiltonianParams(B_G=-1.0)
    with pytest.warns(UserWarning):
        HamiltonianParams(omega1_hz=200e6)


def test_propagator_zero_duration_is_identity():
    p = HamiltonianParams()
    u = lab_frame_propagator(p, PulseSegment("MW1", 0.0))
    assert np.allclose(u.matrix, np.eye(3))


def test_propagator_zero_amplitude_limit_is_identity():
    # vanishing drive, fixed short duration: interaction picture undoes H0
    p = HamiltonianParams(omega1_hz=1e-3)
    duration = 20.0 / p.omega_mw1_hz
    angle = 2 * math.pi * p.omega1_hz * duration
    u = lab_frame_propagator(p, PulseSegment("MW1", angle))
    assert np.max(np.abs(u.matrix - np.eye(3))) < 1e-6


def test_propagator_refuses_coarse_stepping():
    p = HamiltonianParams()
    with pytest.raises(StepResolutionError):
        lab_frame_propagator(p, PulseSegment("MW1", math.pi), 20)


def test_propagator_converged_at_default_resolution():
    p = HamiltonianParams()
    seg = PulseSegment("MW1", math.pi)
    u1 = lab_frame_propagator(p, seg, 200).matrix
    u2 = lab_frame_propagator(p, seg, 400).matrix
    assert np.max(np.abs(u1 - u2)) < 1e-6


def test_pi_pulse_matches_rwa_rotation():
    p = HamiltonianParams()
    seg = PulseSegment("MW1", math.pi)
    fid = rwa_fidelity(p, seg)
    assert fid >= 0.999
    # double-resolution oracle agrees on the fidelity value
    fid2 = rwa_fidelity(p, seg, steps_per_drive_period=400)
    assert fid == pytest.approx(fid2, abs=1e-8)


def test_rwa_fidelity_trivial_and_degrading():
    p = HamiltonianParams()
    assert rwa_fidelity(p, PulseSegment("MW1", 0.0)) == 1.0
    strong = HamiltonianParams(omega1_hz=50e6)
    assert rwa_fidelity(strong, PulseSegment("MW1", math.pi)) < rwa_fidelity(
        p, PulseSegment("MW1", math.pi)
    )


def test_rwa_fidelity_improves_with_drive_ratio():
    base = HamiltonianParams()
    seg = PulseSegment("MW1", math.pi)
    fids = []
    for ratio in (1e-4, 1e-3, 1e-2):
        p = HamiltonianParams(omega1_hz=ratio * base.omega_mw1_hz)
        fids.append(rwa_fidelity(p, seg))
    assert fids[0] >= 1 - 1e-6
    assert fids[0] >= fids[1] >= fids[2]


def test_period_power_equals_stepping_every_period():
    # U(T)**N by repeated squaring against the ordered product of all N*steps
    # CF4 steps on the same time grid: only the periodicity identity differs
    p = HamiltonianParams()
    steps = 200
    omega_d = 2 * math.pi * p.omega_mw2_hz
    period = 2 * math.pi / omega_d
    n_periods = int(PulseSegment("MW2", math.pi).duration_s(p.omega1_hz) // period)
    assert n_periods > 400
    split = p.gamma_e_hz_per_G * p.B_G
    h0 = 2 * math.pi * np.array([p.D_hz + split, 0.0, p.D_hz - split])
    drive = math.sqrt(2) * 2 * math.pi * p.omega1_hz * spin1_matrices()[1]
    one_period = _cf4_span(h0, drive, omega_d, period, steps)
    powered = np.linalg.matrix_power(one_period, n_periods)
    stepped = _cf4_span(h0, drive, omega_d, n_periods * period, n_periods * steps)
    assert np.max(np.abs(powered - stepped)) < 1e-12


def test_period_power_error_stays_small_at_large_period_count():
    # a weak drive stretches the MW2 pi pulse to about 21,500 drive periods
    p = HamiltonianParams(omega1_hz=1e5)
    seg = PulseSegment("MW2", math.pi)
    assert seg.duration_s(p.omega1_hz) * p.omega_mw2_hz > 21_000
    u1 = lab_frame_propagator(p, seg, 200).matrix
    u2 = lab_frame_propagator(p, seg, 400).matrix
    assert np.max(np.abs(u1 - u2)) < 1e-6
    assert rwa_fidelity(p, seg) >= 1 - 1e-6


@pytest.mark.parametrize("omega1_hz", [5e6, 2e7])
@pytest.mark.parametrize("channel", CHANNELS)
@pytest.mark.parametrize("detuning_hz", [0.0, 1e6])
@pytest.mark.parametrize("steps", [200, 400])
def test_shared_period_is_bit_equal_cold_and_warm(omega1_hz, channel, detuning_hz, steps):
    # each pulse on a cold memo against the same pulse reusing the period
    # another pulse integrated, in both call orders
    p = HamiltonianParams(omega1_hz=omega1_hz)
    first, second = PulseSegment(channel, math.pi), PulseSegment(channel, 2.0)

    def propagate(seg):
        return lab_frame_propagator(p, seg, steps, detuning_hz=detuning_hz).matrix.tobytes()

    _period_propagator.cache_clear()
    cold_first, warm_second = propagate(first), propagate(second)
    _period_propagator.cache_clear()
    cold_second, warm_first = propagate(second), propagate(first)
    info = _period_propagator.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert cold_first == warm_first
    assert cold_second == warm_second


def test_memoised_period_is_read_only():
    period = _period_propagator(HamiltonianParams(), "MW1", 200, 0.0)
    assert not period.flags.writeable
    with pytest.raises(ValueError):
        period[0, 0] = 0.0


@pytest.mark.parametrize(
    "steps, detuning_hz, error",
    [(20, 0.0, StepResolutionError), (200, math.nan, ValueError)],
)
def test_rejected_propagator_call_adds_no_memo_entry(steps, detuning_hz, error):
    _period_propagator.cache_clear()
    with pytest.raises(error):
        lab_frame_propagator(
            HamiltonianParams(), PulseSegment("MW1", math.pi), steps, detuning_hz=detuning_hz
        )
    info = _period_propagator.cache_info()
    assert (info.currsize, info.misses, info.hits) == (0, 0, 0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"detuning_hz": math.inf},
        {"detuning_hz": np.float64("nan")},
        {"detuning_hz": math.nan},
        {"detuning_hz": -math.inf},
    ],
)
def test_propagator_rejects_non_finite_inputs(kwargs):
    with pytest.raises(ValueError, match="must be finite"):
        lab_frame_propagator(HamiltonianParams(), PulseSegment("MW1", math.pi), **kwargs)


def test_rwa_fidelity_covers_mw2_channel():
    p = HamiltonianParams()
    assert rwa_fidelity(p, PulseSegment("MW2", math.pi / 2)) >= 0.999


def test_detuned_propagation_dephases():
    # a detuning comparable to the Rabi rate visibly degrades the rotation
    p = HamiltonianParams(omega1_hz=1e6)
    seg = PulseSegment("MW1", math.pi)
    u = lab_frame_propagator(p, seg, detuning_hz=1e6).matrix
    ideal = rotation_r1(math.pi).matrix
    psi0 = QutritState.ket_zero().vector
    overlap = abs(np.vdot(ideal @ psi0, u @ psi0)) ** 2
    assert overlap < 0.9
