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
    rwa_fidelity,
)
from sorkin_lab.dynamics import (
    CHANNELS,
    MAX_DRIVE_PERIODS,
    MAX_STEPS_PER_PERIOD,
    TWO_PI,
    _cf4_step,
    _cf4_steps,
    _period_power,
    _period_propagator,
    _rotate,
)
from sorkin_lab.qutrit import spin1_matrices

_angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)

# fourth-order commutator-free step (Blanes, Casas, Oteo & Ros 2009), written
# out apart from the module: two Gauss nodes, weights (big, small) on the
# first exponential and (small, big) on the second
_CF4_NODES = np.array([0.5 - math.sqrt(3) / 6, 0.5 + math.sqrt(3) / 6])
_CF4_BIG, _CF4_SMALL = (3 + 2 * math.sqrt(3)) / 12, (3 - 2 * math.sqrt(3)) / 12


def _lab_hamiltonian(p, channel):
    """(diagonal of H0, drive operator, omega_d) of a channel, built by hand."""
    split = p.gamma_e_hz_per_G * p.B_G
    h0 = TWO_PI * np.array([p.D_hz + split, 0.0, p.D_hz - split])
    sign = -1.0 if channel == "MW1" else 1.0
    drive = sign * math.sqrt(2) * TWO_PI * p.omega1_hz * spin1_matrices()[1]
    return h0, drive, TWO_PI * p.drive_frequency_hz(channel)


def _cf4_stepped(p, channel, starts, lengths):
    """Ordered product of one CF4 step per (start, length), earliest first."""
    h0, drive, omega_d = _lab_hamiltonian(p, channel)
    starts = np.asarray(starts, dtype=float)[:, None]
    lengths = np.asarray(lengths, dtype=float)[:, None]
    g = np.cos(omega_d * (starts + _CF4_NODES * lengths))
    c = np.stack(
        [_CF4_BIG * g[:, 0] + _CF4_SMALL * g[:, 1], _CF4_SMALL * g[:, 0] + _CF4_BIG * g[:, 1]],
        axis=1,
    )
    w, v = np.linalg.eigh(0.5 * np.diag(h0) + c[..., None, None] * drive)
    exps = (v * np.exp(-1j * lengths[..., None] * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)
    return _ordered(exps[:, 1] @ exps[:, 0])


def _ordered(steps):
    """steps[-1] @ ... @ steps[0]."""
    total = np.eye(3, dtype=complex)
    for step in steps:
        total = step @ total
    return total


def _stepped_pulse(p, seg, steps):
    """The pulse stepped in full from t = 0 on the period grid dt = T/steps,
    the last step cut to end with the pulse, in the interaction picture."""
    h0, _, omega_d = _lab_hamiltonian(p, seg.channel)
    dt = TWO_PI / omega_d / steps
    duration = seg.duration_s(p.omega1_hz)
    full, r = divmod(duration, dt)
    starts = np.arange(int(full) + 1) * dt
    lengths = np.append(np.full(int(full), dt), r)
    return np.exp(1j * h0 * duration)[:, None] * _cf4_stepped(p, seg.channel, starts, lengths)


@pytest.fixture
def eigh_count(monkeypatch):
    """A list whose one entry counts the matrices np.linalg.eigh factors."""
    count = [0]
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        count[0] += math.prod(np.shape(a)[:-2])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return count


def _rotation(channel, theta):
    """The matrix of the rotating-frame rotation: column j is _rotate of basis ket j."""
    return np.array([_rotate(channel, theta, tuple(ket)) for ket in np.eye(3)]).T


def test_rotation_r1_identity_and_pi():
    assert np.allclose(_rotation("MW1", 0.0), np.eye(3))
    out = _rotate("MW1", math.pi, (0.0, 1.0, 0.0))
    assert np.allclose(out, [0, 0, -1], atol=1e-15)


def test_rotation_r1_half_angle_entries():
    theta = math.acos(1 / 3)
    m = _rotation("MW1", theta)
    assert m[1, 1] == pytest.approx(math.sqrt(2 / 3), abs=1e-15)
    assert m[1, 2] == pytest.approx(1 / math.sqrt(3), abs=1e-15)


def test_rotation_r2_identity_spinor_and_quarter():
    assert np.allclose(_rotation("MW2", 0.0), np.eye(3))
    ket0 = (0.0, 1.0, 0.0)
    assert np.allclose(_rotate("MW2", 2 * math.pi, ket0), [0, -1, 0], atol=1e-12)
    out = _rotate("MW2", math.pi / 2, ket0)
    assert np.allclose(out, [-1 / math.sqrt(2), 1 / math.sqrt(2), 0], atol=1e-15)


@given(_angles, _angles)
def test_rotation_r1_one_parameter_subgroup(t1, t2):
    prod = _rotation("MW1", t1) @ _rotation("MW1", t2)
    assert np.max(np.abs(prod - _rotation("MW1", t1 + t2))) < 1e-12


@given(_angles, _angles)
def test_rotation_r2_one_parameter_subgroup(t1, t2):
    prod = _rotation("MW2", t1) @ _rotation("MW2", t2)
    assert np.max(np.abs(prod - _rotation("MW2", t1 + t2))) < 1e-12


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


@given(
    st.lists(
        st.tuples(st.sampled_from(CHANNELS), st.floats(allow_nan=False, allow_infinity=False)),
        max_size=6,
    )
)
def test_angle_pair_sums_each_channel_as_sum_does(pulses):
    sched = PulseSchedule(tuple(PulseSegment(ch, angle) for ch, angle in pulses))
    expected = tuple(
        sum(s.angle for s in sched.segments if s.channel == ch) for ch in CHANNELS
    )
    got = sched.angle_pair()
    # same values, same types: an absent channel sums to the integer 0
    assert [(type(x), repr(x)) for x in got] == [(type(x), repr(x)) for x in expected]


def test_params_validation_and_carriers():
    p = HamiltonianParams()
    assert p.omega_mw1_hz == pytest.approx(2.87e9 - 2.80e6 * 510)
    assert p.omega_mw2_hz == pytest.approx(2.87e9 + 2.80e6 * 510)
    with pytest.raises(ValueError):
        HamiltonianParams(B_G=-1.0)
    # finite in Hz, but not as an angular frequency or a pulse duration
    with pytest.raises(ValueError, match="inf as an angular frequency"):
        HamiltonianParams(D_hz=1e308)
    # a two-pulse schedule of full turns must be finite in ns, as the
    # reports state it
    for omega1_hz in (5e-324, 1e-300, 1.1e-299):
        with pytest.raises(ValueError, match="infinite duration in ns"):
            HamiltonianParams(omega1_hz=omega1_hz)
    HamiltonianParams(omega1_hz=1.2e-299)  # two full turns: 1.7e308 ns
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


def test_step_cap_refuses_even_a_zero_length_pulse():
    # a zero angle returns the identity without integrating; the cap, like
    # the minimum, is checked first
    with pytest.raises(StepResolutionError, match=f"maximum {MAX_STEPS_PER_PERIOD}"):
        lab_frame_propagator(
            HamiltonianParams(), PulseSegment("MW2", 0.0), MAX_STEPS_PER_PERIOD + 1
        )


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
    h0, drive, omega_d = _lab_hamiltonian(p, "MW2")
    period = TWO_PI / omega_d
    n_periods = int(PulseSegment("MW2", math.pi).duration_s(p.omega1_hz) // period)
    assert n_periods > 400
    h0_half = 0.5 * np.diag(h0)
    one_period = _ordered(_cf4_steps(h0_half, drive, omega_d, 0.0, period / steps, steps))
    powered = np.linalg.matrix_power(one_period, n_periods)
    stepped = _ordered(
        _cf4_steps(h0_half, drive, omega_d, 0.0, period / steps, n_periods * steps)
    )
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
    entry = _period_propagator(HamiltonianParams(), "MW1", 200, 0.0)
    assert entry.prefix.shape == (201, 3, 3)
    assert entry.squares.shape == (MAX_DRIVE_PERIODS.bit_length(), 3, 3)
    arrays = [field for field in entry if isinstance(field, np.ndarray)]
    assert len(arrays) == 5
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 0.0


_POWERS = sorted(
    set(range(65))
    | {2**k + d for k in range(1, MAX_DRIVE_PERIODS.bit_length()) for d in (-1, 0, 1)}
    | {MAX_DRIVE_PERIODS}
)


@pytest.mark.parametrize("channel", CHANNELS)
def test_period_power_is_matrix_power_bit_for_bit(channel):
    # the memoised squares, multiplied at call time, against numpy's own
    # repeated squaring of U(T): same products in the same order
    squares = _period_propagator(HamiltonianParams(), channel, 200, 0.0).squares
    for n in _POWERS:
        expected = np.linalg.matrix_power(squares[0], n)
        assert _period_power(squares, n).tobytes() == expected.tobytes(), n


@pytest.mark.parametrize("detuning_hz", [0.0, 1e6])
@pytest.mark.parametrize("channel", CHANNELS)
@given(data=st.data())
def test_remainder_step_is_the_period_paths_step_bit_for_bit(channel, detuning_hz, data):
    # a one-step stack and the lean step a pulse takes against the first
    # step of the stack the period is integrated in, for the same start
    # and length
    p = HamiltonianParams()
    entry = _period_propagator(p, channel, 200, detuning_hz)
    omega_d = TWO_PI * p.drive_frequency_hz(channel)
    start = data.draw(st.floats(0.0, TWO_PI / omega_d, exclude_max=True))
    r = data.draw(st.floats(0.0, entry.dt, exclude_min=True, exclude_max=True))
    lone = _cf4_steps(entry.h0_half, entry.drive, omega_d, start, r, 1)
    stacked = _cf4_steps(entry.h0_half, entry.drive, omega_d, start, r, 200)
    assert lone.shape == (1, 3, 3)
    assert lone[0].tobytes() == stacked[0].tobytes()
    step = _cf4_step(entry.h0_half, entry.drive, omega_d, start, r)
    assert step.tobytes() == stacked[0].tobytes()


def _split(p, seg):
    """(N, tau, m) of a pulse: N whole periods, remainder tau, m = tau // (T/200)."""
    period = TWO_PI / (TWO_PI * p.drive_frequency_hz(seg.channel))
    n_periods, tau = divmod(seg.duration_s(p.omega1_hz), period)
    return int(n_periods), tau, int(tau // (period / 200))


def _nearest_pulse(p, channel, angle, wanted, ulps=64):
    """The pulse of the float nearest angle whose split satisfies wanted."""
    for i in sorted(range(-ulps, ulps + 1), key=abs):
        seg = PulseSegment(channel, angle + i * math.ulp(angle))
        if wanted(*_split(p, seg)):
            return seg
    raise AssertionError(f"no {channel} pulse within {ulps} ulps of {angle!r} splits as wanted")


def _remainder_case(case, channel, n_periods):
    p = HamiltonianParams()
    period = TWO_PI / (TWO_PI * p.drive_frequency_hz(channel))
    dt = period / 200
    to_angle = TWO_PI * p.omega1_hz
    if case == "tau = m*dt":
        # m = 64 makes m*dt exact, so tau can equal it bit for bit
        angle = (n_periods * period + 64 * dt) * to_angle
        return _nearest_pulse(
            p, channel, angle, lambda n, tau, m: n == n_periods and m == 64 and tau == 64 * dt
        )
    if case == "tau < dt":
        angle = (n_periods * period + 0.4 * dt) * to_angle
        return _nearest_pulse(p, channel, angle, lambda n, tau, m: n == n_periods and m == 0)
    # the largest remainders, tau a few ulps below T: the edge that the
    # bound m <= n - 1 guards (floor division of tau < T never reaches n)
    angle = (n_periods + 1) * period * to_angle
    return _nearest_pulse(
        p,
        channel,
        angle,
        lambda n, tau, m: n == n_periods and m == 199 and period - tau < 1e-6 * dt,
    )


@pytest.mark.parametrize(
    "case, channel, n_periods, eighs",
    [
        ("tau = m*dt", "MW1", 0, 0),
        ("tau = m*dt", "MW1", 3, 0),
        ("tau = m*dt", "MW1", 7, 0),
        ("tau < dt", "MW1", 0, 2),
        ("tau < dt", "MW2", 3, 2),
        ("top of the period", "MW1", 3, 2),
        ("top of the period", "MW2", 0, 2),
    ],
)
def test_remainder_edges_match_full_stepping(case, channel, n_periods, eighs, eigh_count):
    p = HamiltonianParams()
    seg = _remainder_case(case, channel, n_periods)
    lab_frame_propagator(p, PulseSegment(channel, 1.0))  # warms the period memo
    eigh_count[0] = 0
    u = lab_frame_propagator(p, seg).matrix
    # an exact multiple of dt is a prefix lookup, with no partial step
    assert eigh_count[0] == eighs
    assert np.max(np.abs(u - _stepped_pulse(p, seg, 200))) < 1e-12


def test_warm_pulse_eighs_at_most_two_matrices(eigh_count):
    for omega1_hz, channel, angle in [
        (5e6, "MW1", math.pi),
        (5e6, "MW2", 1.234567),
        (5e7, "MW1", 2.718281828),
        (5e7, "MW2", 1e-3),
        (1e5, "MW2", math.pi),  # about 21,500 drive periods
    ]:
        p = HamiltonianParams(omega1_hz=omega1_hz)
        lab_frame_propagator(p, PulseSegment(channel, 0.5))
        eigh_count[0] = 0
        lab_frame_propagator(p, PulseSegment(channel, angle))
        assert eigh_count[0] <= 2, (omega1_hz, channel, angle)


@pytest.mark.parametrize("omega1_hz", [5e6, 50e6])
@pytest.mark.parametrize("angle", [math.pi, 1.234567, 2.718281828])
@pytest.mark.parametrize("channel", CHANNELS)
def test_default_resolution_within_2e9_of_1600_steps(channel, angle, omega1_hz):
    p = HamiltonianParams(omega1_hz=omega1_hz)
    seg = PulseSegment(channel, angle)
    u = lab_frame_propagator(p, seg).matrix
    reference = lab_frame_propagator(p, seg, 1600).matrix
    assert np.max(np.abs(u - reference)) < 2e-9


def _spanning(channel, angle, n_periods):
    """(params, pulse) whose pulse spans n_periods whole drive periods and a half."""
    carrier = HamiltonianParams().drive_frequency_hz(channel)
    p = HamiltonianParams(omega1_hz=angle * carrier / (TWO_PI * (n_periods + 0.5)))
    seg = PulseSegment(channel, angle)
    assert seg.duration_s(p.omega1_hz) // (1.0 / carrier) == n_periods
    return p, seg


# the angles span the weakest drives (about 1 kHz on MW2 at 0.05) and the
# strongest (6.2), where the two integrations part most at the bound
@pytest.mark.parametrize("angle", [0.05, 1.234567, math.pi, 6.2])
@pytest.mark.parametrize("channel", CHANNELS)
def test_pulse_at_the_period_bound_within_2e9_of_1600_steps(channel, angle):
    p, seg = _spanning(channel, angle, MAX_DRIVE_PERIODS)
    u = lab_frame_propagator(p, seg).matrix
    reference = lab_frame_propagator(p, seg, 1600).matrix
    assert np.max(np.abs(u - reference)) < 2e-9


@pytest.mark.parametrize("channel", CHANNELS)
def test_pulse_past_the_period_bound_refused_before_integrating(channel, eigh_count):
    p, seg = _spanning(channel, math.pi, MAX_DRIVE_PERIODS + 1)
    _period_propagator.cache_clear()
    match = rf"spans {MAX_DRIVE_PERIODS + 1} drive periods, .* maximum {MAX_DRIVE_PERIODS}"
    with pytest.raises(StepResolutionError, match=match):
        lab_frame_propagator(p, seg)
    assert eigh_count[0] == 0
    assert _period_propagator.cache_info().currsize == 0


@pytest.mark.parametrize(
    "steps, detuning_hz, error",
    [
        (20, 0.0, StepResolutionError),
        (MAX_STEPS_PER_PERIOD + 1, 0.0, StepResolutionError),
        (200, math.nan, ValueError),
    ],
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
    ideal = _rotate("MW1", math.pi, (0.0, 1.0, 0.0))
    psi0 = QutritState(0.0, 1.0, 0.0).vector
    overlap = abs(np.vdot(ideal, u @ psi0)) ** 2
    assert overlap < 0.9
