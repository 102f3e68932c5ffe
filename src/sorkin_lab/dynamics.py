"""Spin-1 ground-state Hamiltonian model and microwave pulse dynamics.

The static Hamiltonian is H0 = D*Sz^2 + gamma_e*B*Sz (hbar = 1; parameters
are quoted in Hz at the interface and converted to angular frequency
internally).  Two microwave channels drive the allowed transitions:

    MW1: |0> <-> |-1>, carrier D - gamma_e*B
    MW2: |0> <-> |+1>, carrier D + gamma_e*B

In the rotating-wave approximation each channel produces a rotation of
its level pair by the angle theta = omega_1 * t, with half-angle entries;
`_rotate` applies it to the protocol's states in closed form, two
amplitudes at a time, with no matrix built.  `lab_frame_propagator`
solves the full time-dependent problem, counter-rotating terms and
crosstalk included, so `rwa_fidelity` can quantify how good the
approximation actually is.

The lab-frame Hamiltonian H0 + cos(omega_d t) * drive is exactly periodic
in T = 2*pi/omega_d, so a pulse of N whole periods plus a remainder tau
has the propagator U(tau) @ U(T)**N (Shirley, Phys. Rev. 138, B979, 1965).
One period is integrated with a fourth-order commutator-free Magnus scheme
(Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151, 2009) on n equal steps of
dt = T/n, keeping every prefix product P[m] of its first m steps; U(T) is
the polar factor of P[n].  This depends on the parameters, the channel,
the step count and the detuning, but not on the pulse angle, so it is
integrated once per process for each such tuple and shared by every
pulse.  The same memo entry keeps U(T)**(2**k) for every bit of a period
count up to MAX_DRIVE_PERIODS, the table U(T)**j for every j below
2**_POWER_TABLE_BITS, and the constants of the channel's Hamiltonian and
frame.  A pulse writes tau = m*dt + r with 0 <= r < dt, so U(tau) is one
partial CF4 step of length r starting at m*dt times P[m].  U(T)**N is the
table's entry for N's low bits times the square of each higher set bit,
lowest first; the table is built by that same fold, so the power has the
bits of np.linalg.matrix_power.  A pulse of fewer than 2**_POWER_TABLE_BITS
periods (every one at 50 MHz Rabi) reads its power and multiplies no
square but at N = 3, and a longer one multiplies one square per set bit
from that bit up.  A warm pulse squares nothing and rebuilds no constant,
and its cost grows with neither its length nor its remainder.  The
roundoff of U(T)**N does grow with N, so a pulse may span at most
MAX_DRIVE_PERIODS whole periods.

A pulse's propagator is in turn a pure function of (params, pulse, step
count, detuning), and a job repeats most of its pulses: at the paper's
point the default rwa-check job propagates 10 pulses, 5 of them distinct,
because its pi/2 and pi pulses recur across the preparations and the
measurement.  So the pulse is memoised too, one level above the period,
in at most _PULSE_MEMO_SIZE = 1024 entries of under 1 KB each.
lab_frame_propagator's argument checks run on every call, before the
memo, so a refused call stores nothing.  A repeated pulse is a lookup
that returns the same Unitary3 its first call built and checked; the
object is read-only, so every caller, in any thread, may share it.

The period's n steps and a pulse's one partial step form their node
phases apart.  `_cf4_steps` takes all 2n phases in one stacked cos and
one broadcast weight sum, which for a single step would be mostly array
set-up on every warm pulse; `_cf4_step` forms its two phases and two
weights as Python floats in the same operation order and takes one numpy
cos of the pair.  Both exponentiate through the one `_batch_expm`, so the
partial step is bit for bit the n = 1 case of `_cf4_steps`.

`_batch_expm` factors its stack with `_eigh`, the gufunc that
np.linalg.eigh itself calls (numpy.linalg._umath_linalg.eigh_lo, present
from numpy 1.24 through 2.4), with no fallback: if a numpy release drops
it, the import fails.  The same LAPACK zheevd call on the same stack gives
the same bits, but the wrapper's per-call cost, mostly its errstate
context, was about 3-6 us against a warm pulse's 50-80 us.  The contract
is the wrapper's, made whole: a stack with a NaN or inf entry raises
LinAlgError before it is factored, with no warning.  A finite stack whose
factorisation did not converge would come back NaN, with numpy's
invalid-value RuntimeWarning, where the wrapper raised LinAlgError; the
Unitary3 check that every propagator takes refuses the NaN.
"""

from __future__ import annotations

import functools
import math
import operator
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.linalg._umath_linalg import eigh_lo as _eigh

from .errors import StepResolutionError
from .qutrit import (
    QutritState,
    Unitary3,
    _check_plane_rotation,
    inner_product,
    spin1_matrices,
)

TWO_PI = 2.0 * math.pi

CHANNELS = ("MW1", "MW2")

DEFAULT_STEPS_PER_PERIOD = 200
MIN_STEPS_PER_PERIOD = 50
# The period is integrated in one stack of about 1.6 KB a step and its
# memo entry keeps (n + 275) * 144 + 48 bytes, so this cap bounds one
# integration at about 26 MB and one entry at about 2.4 MB (about 150 MB
# for a full memo).  The package uses the default 200; its tests pass at most 1,600.
MAX_STEPS_PER_PERIOD = 16_384
# Longest pulse, in whole drive periods, whose propagator is trusted: the
# roundoff of U(T)**N grows about linearly in N.  At 2**15 every measured
# pulse stayed within 1.1e-9 of its 1,600-step propagator, against 3.5e-9
# at 2**17.  An MW2 pi pulse spans about 2.15e9 / omega1_hz periods.
MAX_DRIVE_PERIODS = 2**15

# Each channel's microwave phase is calibrated so that its rotating-frame
# limit is exactly the rotation of _rotate; with the standard spin-1 Sy
# the |0>-|-1> channel needs the opposite drive sign.
_DRIVE_SIGN = {"MW1": -1.0, "MW2": 1.0}

# Index of the level whose diagonal entry a quasi-static detuning shifts.
_DRIVEN_LEVEL = {"MW1": 2, "MW2": 0}

# Fourth-order commutator-free exponential integrator (two Gauss nodes per
# step, two exact 3x3 exponentials); plain midpoint stepping carries a
# secular (omega*dt)^2/24 amplitude error too large for the convergence
# contract at the default resolution.
_CF4_NODE_EARLY = 0.5 - math.sqrt(3.0) / 6.0
_CF4_NODE_LATE = 0.5 + math.sqrt(3.0) / 6.0
_CF4_NODES = np.array([_CF4_NODE_EARLY, _CF4_NODE_LATE])
_CF4_W_SMALL = (3.0 - 2.0 * math.sqrt(3.0)) / 12.0
_CF4_W_BIG = (3.0 + 2.0 * math.sqrt(3.0)) / 12.0
# the weights of the early and the late node on (first, second) exponential
_CF4_W_EARLY = np.array([_CF4_W_BIG, _CF4_W_SMALL])
_CF4_W_LATE = np.array([_CF4_W_SMALL, _CF4_W_BIG])

# U(T)**j is tabled for every j below 2**_POWER_TABLE_BITS: a pulse spans
# at most about 290 (MW1) or 860 (MW2) periods at 5 MHz Rabi and 86 at
# 50 MHz, so most powers are one lookup and the rest take at most seven
# products.  A table of 2**10 measured no faster than this one on
# pulse-check, at four times the memory.
_POWER_TABLE_BITS = 8

# An entry holds the n + 1 prefix products, the 16 squares of U(T), the
# 256 tabled powers, the half H0 and the drive operator (144 bytes each)
# and the 48-byte frame diagonal, (n + 275) * 144 + 48 bytes: about 68 KB
# at 200 steps, so about 4.4 MB for 64 entries, which cover both channels
# at 32 (params, steps, detuning) tuples.
_PERIOD_MEMO_SIZE = 64

# An entry is a pulse's checked Unitary3 and the lru_cache link that keys
# it by (params, pulse, steps, detuning).  tracemalloc measured about 480
# bytes an entry when the caller keeps the key's params and pulse, and
# about 760 when the entry alone keeps them, so a full memo holds under
# 0.8 MB.  The bound only has to hold a job's distinct pulses: the
# default rwa-check job has 5 of them.
_PULSE_MEMO_SIZE = 1024


@dataclass(frozen=True)
class HamiltonianParams:
    """Static-field and drive parameters, all strictly positive, in Hz."""

    D_hz: float = 2.87e9
    gamma_e_hz_per_G: float = 2.80e6
    B_G: float = 510.0
    omega1_hz: float = 5.0e6

    def __post_init__(self):
        for name in ("D_hz", "gamma_e_hz_per_G", "B_G", "omega1_hz"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite, got {v!r}")
        if self.omega_mw1_hz <= 0:
            raise ValueError("Zeeman splitting exceeds D; MW1 carrier is not positive")
        if not math.isfinite(TWO_PI * self.omega_mw2_hz):
            raise ValueError(f"MW2 carrier {self.omega_mw2_hz!r} Hz is inf as an angular frequency")
        # a schedule is at most two pulses of under a full turn each, and
        # its reports state durations in ns
        if not math.isfinite(2.0 * (TWO_PI / (TWO_PI * self.omega1_hz)) * 1e9):
            raise ValueError(
                f"omega1_hz = {self.omega1_hz!r} gives pulses of infinite duration in ns"
            )
        if self.omega1_hz > 0.05 * self.omega_mw1_hz:
            warnings.warn(
                "omega1 is not small against the MW1 carrier; "
                "rotating-wave rotations will be inaccurate",
                stacklevel=3,
            )

    @property
    def omega_mw1_hz(self) -> float:
        """Carrier of the |0> <-> |-1> transition."""
        return self.D_hz - self.gamma_e_hz_per_G * self.B_G

    @property
    def omega_mw2_hz(self) -> float:
        """Carrier of the |0> <-> |+1> transition."""
        return self.D_hz + self.gamma_e_hz_per_G * self.B_G

    def drive_frequency_hz(self, channel: str) -> float:
        if channel == "MW1":
            return self.omega_mw1_hz
        if channel == "MW2":
            return self.omega_mw2_hz
        raise ValueError(f"unknown channel {channel!r}")


@dataclass(frozen=True, slots=True, init=False)
class PulseSegment:
    """One resonant pulse: channel plus rotation angle theta = omega_1 * t.

    The angle is canonicalized into [0, 2*pi): a tiny negative angle, whose
    float remainder rounds up to 2*pi itself, maps to 0.0.  The physical
    duration at a given Rabi frequency is angle / (2*pi*omega1_hz).
    """

    channel: str
    angle: float

    def __init__(self, channel: str, angle: float):
        if channel not in CHANNELS:
            raise ValueError(f"channel must be one of {CHANNELS}, got {channel!r}")
        if not math.isfinite(angle):
            raise ValueError(f"angle must be finite, got {angle!r}")
        angle = float(angle) % TWO_PI
        # frozen and slotted: see the qutrit module docstring
        _set_channel(self, channel)
        _set_angle(self, 0.0 if angle == TWO_PI else angle)

    def duration_s(self, omega1_hz: float) -> float:
        return self.angle / (TWO_PI * omega1_hz)


_set_channel, _set_angle = (PulseSegment.__dict__[f].__set__ for f in PulseSegment.__slots__)


@dataclass(frozen=True, slots=True, init=False)
class PulseSchedule:
    """Ordered pulse list, earliest first; empty for a trivial preparation."""

    segments: tuple[PulseSegment, ...] = ()

    def __init__(self, segments=()):
        _set_segments(self, tuple(segments))

    def __iter__(self):
        return iter(self.segments)

    def angle_pair(self) -> tuple[float, float]:
        """(phi1, phi2): summed rotation angles on MW1 and MW2, each summed
        in schedule order from the integer 0, as ``sum`` would."""
        phi1 = phi2 = 0
        for s in self.segments:
            if s.channel == "MW1":
                phi1 += s.angle
            else:
                phi2 += s.angle
        return (phi1, phi2)

    def total_duration_s(self, omega1_hz: float) -> float:
        return sum(s.duration_s(omega1_hz) for s in self.segments)


_set_segments = PulseSchedule.__dict__["segments"].__set__


def _rotate(
    channel: str, theta: float, amplitudes: tuple[float, float, float], *, adjoint: bool = False
) -> tuple[float, float, float]:
    """The channel's rotating-frame rotation by theta, or its adjoint,
    applied in closed form to real amplitudes (|+1>, |0>, |-1>), with no
    matrix built.

    With (c, s) = (cos(theta/2), sin(theta/2)), MW1's block [[c, s],
    [-s, c]] acts on (|0>, |-1>), MW2's [[c, -s], [s, c]] on (|+1>, |0>);
    the adjoint is the same block with (c, -s), not the rotation by -theta,
    so it does not rest on the parity of libm's sin and cos.  The rotation
    takes the closed-form unitarity check of _check_plane_rotation, and the
    result has the bits of the checked Unitary3 of the block times the
    vector (tests/test_lean_path.py).
    """
    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    _check_plane_rotation(c, s)
    if adjoint:
        s = -s
    p, z, m = amplitudes
    if channel == "MW1":
        return (p, c * z + s * m, c * m - s * z)
    return (c * p - s * z, s * p + c * z, m)


def _batch_expm(h_stack: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i * H * dt) for a stack of Hermitian 3x3 matrices, each read
    from its lower triangle as np.linalg.eigh reads it; a stack with a
    non-finite entry raises LinAlgError, unfactored."""
    if not np.isfinite(h_stack).all():
        raise np.linalg.LinAlgError("the Hamiltonian stack has a non-finite entry")
    w, v = _eigh(h_stack)
    phase = np.exp(-1j * dt * w)
    return np.matmul(v * phase[..., None, :], v.conj().swapaxes(-1, -2))


def _cf4_steps(
    h0_half: np.ndarray, drive: np.ndarray, omega_d: float, start: float, dt: float, n_steps: int
) -> np.ndarray:
    """CF4 propagators of 2*h0_half + cos(omega_d t) * drive over n_steps steps.

    Step j covers [start + j*dt, start + (j + 1)*dt] and is two exact 3x3
    exponentials; the result stacks the steps in time order, (n_steps, 3, 3).
    One cos call takes both node phases of every step and one eigh the
    (n_steps, 2, 3, 3) stack of half-step Hamiltonians.
    """
    k = np.arange(float(n_steps))[:, None]
    g = np.cos(omega_d * start + omega_d * (k + _CF4_NODES) * dt)
    # first (right) factor weights the early node more, second the late
    c = _CF4_W_EARLY * g[:, :1] + _CF4_W_LATE * g[:, 1:]
    exps = _batch_expm(h0_half + c[..., None, None] * drive, dt)
    return np.matmul(exps[:, 1], exps[:, 0])


def _cf4_step(
    h0_half: np.ndarray, drive: np.ndarray, omega_d: float, start: float, dt: float
) -> np.ndarray:
    """The one CF4 step of _cf4_steps(h0_half, drive, omega_d, start, dt, 1),
    bit for bit, without its stacking: the node phases and weights are
    Python floats in the same operation order ((0.0 + node) is node), one
    numpy cos call takes the pair, and the two exponentials are one
    _batch_expm of a (2, 3, 3) stack."""
    phase = omega_d * start
    g0, g1 = np.cos(
        (phase + omega_d * _CF4_NODE_EARLY * dt, phase + omega_d * _CF4_NODE_LATE * dt)
    ).tolist()
    c = np.array((_CF4_W_BIG * g0 + _CF4_W_SMALL * g1, _CF4_W_SMALL * g0 + _CF4_W_BIG * g1))
    exps = _batch_expm(h0_half + c[:, None, None] * drive, dt)
    return exps[1] @ exps[0]


class _Period(NamedTuple):
    """One read-only memo entry of _period_propagator."""

    prefix: np.ndarray  # (n + 1, 3, 3): P[m], the first m steps of the period
    squares: np.ndarray  # U(T)**(2**k) for k < 16, U(T) the polar factor of P[n]
    powers: np.ndarray  # U(T)**j for j < 2**_POWER_TABLE_BITS, by _period_power's fold
    h0_half: np.ndarray  # 0.5 * diag(H0), detuning included, complex 3x3
    drive: np.ndarray  # drive operator, the coefficient of cos(omega_d t)
    dt: float  # T / n
    frame_rate: np.ndarray  # 1j * the nominal (undetuned) diagonal of H0


@functools.lru_cache(maxsize=_PERIOD_MEMO_SIZE)
def _period_propagator(
    params: HamiltonianParams, channel: str, steps_per_drive_period: int, detuning_hz: float
) -> _Period:
    """The CF4 stepping over one drive period and the constants a pulse needs.

    prefix[m] = S[m-1] @ ... @ S[0], m = 0..n, is the propagator over the
    first m of the n = steps_per_drive_period steps of dt = T/n.  U(T) is
    the polar factor of prefix[n]: it is raised to the N-th power, so the
    period's roundoff departure from unitarity, about 1e-13, would grow
    N-fold.  squares[k] = U(T)**(2**k) is formed as z @ z, exactly as
    np.linalg.matrix_power forms its squares, for every bit of a period
    count up to MAX_DRIVE_PERIODS.  powers[j] = U(T)**j for j below
    2**_POWER_TABLE_BITS is the fold _period_power continues, one stacked
    product a bit: powers[2**k + i] = powers[i] @ squares[k] for
    0 < i < 2**k, and powers[2**k] = squares[k].  A pure function of its
    four hashable arguments, memoised per process; every array is read-only.
    """
    _, sy = spin1_matrices()
    h0 = np.array([TWO_PI * params.omega_mw2_hz, 0.0, TWO_PI * params.omega_mw1_hz])
    h0[_DRIVEN_LEVEL[channel]] += TWO_PI * detuning_hz
    h0_half = 0.5 * np.diag(h0).astype(complex)
    drive = _DRIVE_SIGN[channel] * math.sqrt(2.0) * (TWO_PI * params.omega1_hz) * sy
    omega_d = TWO_PI * params.drive_frequency_hz(channel)
    n = steps_per_drive_period
    dt = TWO_PI / omega_d / n
    steps = _cf4_steps(h0_half, drive, omega_d, 0.0, dt, n)
    prefix = np.empty((n + 1, 3, 3), dtype=complex)
    prefix[0] = np.eye(3)
    for m in range(n):
        prefix[m + 1] = steps[m] @ prefix[m]
    squares = np.empty((MAX_DRIVE_PERIODS.bit_length(), 3, 3), dtype=complex)
    w, _, vh = np.linalg.svd(prefix[n])
    squares[0] = w @ vh
    for k in range(1, len(squares)):
        squares[k] = squares[k - 1] @ squares[k - 1]
    powers = np.empty((2**_POWER_TABLE_BITS, 3, 3), dtype=complex)
    powers[0] = np.eye(3)
    for k in range(_POWER_TABLE_BITS):
        powers[2**k] = squares[k]
        np.matmul(powers[1 : 2**k], squares[k], out=powers[2**k + 1 : 2 ** (k + 1)])
    # interaction picture of the nominal (undetuned) static Hamiltonian
    h0_nominal = h0.copy()
    h0_nominal[_DRIVEN_LEVEL[channel]] -= TWO_PI * detuning_hz
    period = _Period(prefix, squares, powers, h0_half, drive, dt, 1j * h0_nominal)
    for array in period:
        if isinstance(array, np.ndarray):
            array.setflags(write=False)
    return period


def _period_power(period: _Period, n: int) -> np.ndarray:
    """U(T)**n from the memoised table and squares, bit-identical to
    np.linalg.matrix_power(period.squares[0], n).  matrix_power folds the
    squares of n's set bits in from the lowest, but takes a^2 @ a at n = 3;
    the table is the fold for every n below 2**_POWER_TABLE_BITS, entry 3
    included, since a longer power continues the fold from it, so n = 3
    alone takes the shortcut.  Any other n reads the table's entry for its
    low bits and multiplies in the square of each higher set bit."""
    if n == 3:
        return period.squares[1] @ period.squares[0]
    low = n & (2**_POWER_TABLE_BITS - 1)
    if n == low:
        return period.powers[n]
    power = period.powers[low] if low else None
    for k in range(_POWER_TABLE_BITS, n.bit_length()):
        if n >> k & 1:
            power = period.squares[k] if power is None else power @ period.squares[k]
    return power


def lab_frame_propagator(
    params: HamiltonianParams,
    seg: PulseSegment,
    steps_per_drive_period: int = DEFAULT_STEPS_PER_PERIOD,
    *,
    detuning_hz: float = 0.0,
) -> Unitary3:
    """Full lab-frame propagator for one pulse, in the interaction picture.

    Solves i dU/dt = (H0 + Hdrive(t)) U with Hdrive(t) proportional to
    cos(omega_drive * t) * Sy.  H is periodic in T = 2*pi/omega_drive, so
    for a duration N*T + tau the propagator is U(tau) @ U(T)**N (Shirley,
    Phys. Rev. 138, B979, 1965).  One period is integrated with the CF4
    scheme on n = steps_per_drive_period steps of dt = T/n, once per
    (params, channel, steps, detuning) per process, keeping the squares
    U(T)**(2**k) of U(T) (its polar factor), its powers U(T)**j for j
    below 2**_POWER_TABLE_BITS, the prefix products P[m] of its first m
    steps and the channel's constants.  A pulse writes tau = m*dt + r,
    0 <= r < dt (m at most n - 1), and returns
    CF4(r, from m*dt) @ P[m] @ U(T)**N: one partial step, two lookups and
    one product per set bit of N from 2**_POWER_TABLE_BITS up, whatever
    its length.
    The result is left-multiplied by exp(+i H0 duration) so it is directly
    comparable with the rotating-frame rotation of _rotate, and takes the
    full Unitary3 check.  The pulse lasts seg.angle / omega_1 and starts
    at drive phase zero: t is counted from the pulse's own start, so no
    drive phase carries over from an earlier pulse of a schedule.  detuning_hz
    shifts the driven level's diagonal entry, modelling a quasi-static
    dephasing draw; a static shift keeps H periodic.  steps_per_drive_period
    must lie in [MIN_STEPS_PER_PERIOD, MAX_STEPS_PER_PERIOD], and the pulse
    may span at most MAX_DRIVE_PERIODS whole periods, else
    StepResolutionError is raised before any integration.  An accepted
    pulse is memoised per process by (params, seg, steps, detuning), so a
    repeated one returns the read-only Unitary3 of its first call.  The
    step count is taken through operator.index first, so a float or a
    string raises TypeError whatever the memo holds, and numpy's integers
    key the same entry as the equal int.
    """
    steps_per_drive_period = operator.index(steps_per_drive_period)
    if steps_per_drive_period < MIN_STEPS_PER_PERIOD:
        raise StepResolutionError(
            f"steps_per_drive_period={steps_per_drive_period} is below the "
            f"minimum {MIN_STEPS_PER_PERIOD}; integration would be untrusted"
        )
    if steps_per_drive_period > MAX_STEPS_PER_PERIOD:
        raise StepResolutionError(
            f"steps_per_drive_period={steps_per_drive_period} is above the "
            f"maximum {MAX_STEPS_PER_PERIOD}; the period's memory would pass its bound"
        )
    if not math.isfinite(detuning_hz):
        raise ValueError(f"detuning_hz must be finite, got {detuning_hz!r}")
    duration, _, n_periods, _ = _split(params, seg)
    if duration == 0.0:
        return Unitary3.identity()
    if n_periods > MAX_DRIVE_PERIODS:
        raise StepResolutionError(
            f"the {seg.channel} pulse of angle {seg.angle!r} spans {n_periods:.0f} "
            f"drive periods, more than the maximum {MAX_DRIVE_PERIODS}; the "
            "propagator's roundoff grows with the period count and is not trusted past it"
        )
    return _pulse_propagator(params, seg, steps_per_drive_period, detuning_hz)


def _split(params: HamiltonianParams, seg: PulseSegment) -> tuple[float, float, float, float]:
    """(duration, omega_d, N, tau): the pulse's length in s, its angular
    drive frequency, and its whole drive periods and remainder."""
    duration = seg.duration_s(params.omega1_hz)
    omega_d = TWO_PI * params.drive_frequency_hz(seg.channel)
    return (duration, omega_d, *divmod(duration, TWO_PI / omega_d))


@functools.lru_cache(maxsize=_PULSE_MEMO_SIZE)
def _pulse_propagator(
    params: HamiltonianParams, seg: PulseSegment, steps_per_drive_period: int, detuning_hz: float
) -> Unitary3:
    """lab_frame_propagator of a pulse its checks have accepted, memoised
    per process: a pure function of its four hashable arguments, whose
    Unitary3 is read-only and checked once, when it is built."""
    duration, omega_d, n_periods, tau = _split(params, seg)
    period = _period_propagator(params, seg.channel, steps_per_drive_period, detuning_hz)
    dt = period.dt
    # tau < T and floor division is exact, so the bound only states m < n
    m = min(int(tau // dt), steps_per_drive_period - 1)
    r = tau - m * dt
    total = period.prefix[m] @ _period_power(period, int(n_periods))
    if r > 0.0:
        total = _cf4_step(period.h0_half, period.drive, omega_d, m * dt, r) @ total
    frame = np.exp(period.frame_rate * duration)
    return Unitary3(frame[:, None] * total, atol=1e-8)


def rwa_fidelity(params: HamiltonianParams, seg: PulseSegment) -> float:
    """|<psi_RWA|psi_full>|^2 for the pulse applied to |0>, the
    propagator at DEFAULT_STEPS_PER_PERIOD steps a drive period."""
    full = lab_frame_propagator(params, seg)
    ideal = QutritState(*_rotate(seg.channel, seg.angle, (0.0, 1.0, 0.0)))
    # U|0> is U's |0> column
    overlap = inner_product(ideal, QutritState(*full.matrix[:, 1].tolist()))
    return min(1.0, max(0.0, abs(overlap) ** 2))

