"""The seven-experiment interference protocol.

A target state a|0> + b|+1> + c|-1> (real amplitudes) defines seven
preparations: the full superposition, the three pairwise superpositions,
and the three single basis states.  Measuring the same rank-1 projector on
each yields probabilities p1..p7 from which the pairwise (second-order)
interference terms, the third-order term

    I3 = p1 - (a^2+b^2) p2 - (a^2+c^2) p3 - (b^2+c^2) p4
            + a^2 p5 + b^2 p6 + c^2 p7

and the normalized ratio kappa = I3 / (|I_ab| + |I_ac| + |I_bc|) are
extracted.  Under Born's rule I3 vanishes identically, so kappa is a
violation figure of merit.  The interference terms only index p[0]..p[6]
and are linear in p, so at the unit vectors they give their coefficients.
A SorkinReport holds those numbers for one run, floats that are a
function of the target and seven probabilities alone: the exact ones, or
a readout's mean estimates, whose report also keeps the photon counts
they were divided from.  Everything here is pure and reentrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dynamics import PulseSchedule, PulseSegment, _rotate
from .errors import DegenerateProtocolError, QuantumRegimeError, UnreachableStateError
from .qutrit import QutritState

# Below this, second-order interference is treated as absent and kappa is
# refused (the ratio would not probe a quantum-mechanical regime).
KAPPA_FLOOR = 1e-6

_DEGENERATE_ATOL = 1e-12


@dataclass(frozen=True)
class TargetAmplitudes:
    """Real amplitudes (a, b, c) of the full superposition, a^2+b^2+c^2 = 1."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        n2 = self.a**2 + self.b**2 + self.c**2
        if not math.isfinite(n2):
            raise ValueError("amplitudes must be finite")
        if abs(n2 - 1.0) > 1e-9:
            raise ValueError(f"amplitudes must be normalized, got |t|^2 = {n2!r}")


@dataclass(frozen=True)
class MeasurementSpec:
    """Angles defining the measured ket |m> = R2(theta2)^dag R1(theta1)^dag |0>."""

    theta1: float
    theta2: float

    def __post_init__(self):
        if not (math.isfinite(self.theta1) and math.isfinite(self.theta2)):
            raise ValueError("measurement angles must be finite")


MEASUREMENT_M1 = MeasurementSpec(math.pi / 2, math.pi / 2)
MEASUREMENT_M2 = MeasurementSpec(3 * math.pi / 2, math.pi / 2)


@dataclass(frozen=True)
class SorkinReport:
    """The target t, seven probabilities p and the floats (t, p) determine
    (detection.sorkin_report builds it).  A simulated run's p is its mean
    estimates, and counts holds the int64 numpy arrays (signals, ref) of
    shapes (M, 7) and (M,) its batches' estimates signals / ref[:, None]
    were divided from; any other report holds None."""

    t: TargetAmplitudes
    p: tuple[float, ...]
    q_a: float
    q_b: float
    q_c: float
    I_ab: float
    I_ac: float
    I_bc: float
    I2: float
    I3: float
    kappa: float
    counts: tuple | None = None


def _pair_norms(t: TargetAmplitudes) -> tuple[float, float, float]:
    ab = math.hypot(t.a, t.b)
    ac = math.hypot(t.a, t.c)
    bc = math.hypot(t.b, t.c)
    for name, n in (("a,b", ab), ("a,c", ac), ("b,c", bc)):
        if n <= _DEGENERATE_ATOL:
            raise DegenerateProtocolError(
                f"amplitude pair ({name}) has zero norm; the protocol is degenerate"
            )
    return ab, ac, bc


# The target-independent objects of the protocol, built (and so checked)
# once at import and shared, as they are immutable.  _BASIS[level][sign] is
# the basis state (|+1>, |0>, |-1>)[level] times sign, keyed by the
# math.copysign(1.0, x) of its amplitude, so that -0.0 keeps its sign.
_BASIS = (
    {s: QutritState(s, 0.0, 0.0) for s in (1.0, -1.0)},
    {s: QutritState(0.0, s, 0.0) for s in (1.0, -1.0)},
    {s: QutritState(0.0, 0.0, s) for s in (1.0, -1.0)},
)
_MW2_PI = PulseSegment("MW2", math.pi)
_SCHEDULE_NONE = PulseSchedule(())
_SCHEDULE_MW2_PI = PulseSchedule((_MW2_PI,))
_SCHEDULE_MW1_PI = PulseSchedule((PulseSegment("MW1", math.pi),))


def prepare_states(t: TargetAmplitudes) -> tuple[QutritState, ...]:
    """The seven protocol states for target amplitudes (a, b, c).

    psi1 is the full superposition, psi2/psi3/psi4 the normalized (a,b),
    (a,c), (b,c) pairs, psi5/psi6/psi7 the single basis states carrying the
    sign of the corresponding amplitude.
    """
    ab, ac, bc = _pair_norms(t)
    a, b, c = t.a, t.b, t.c
    return (
        QutritState(b, a, c),
        QutritState(b / ab, a / ab, 0.0),
        QutritState(0.0, a / ac, c / ac),
        QutritState(b / bc, 0.0, c / bc),
        _BASIS[1][math.copysign(1.0, a)],
        _BASIS[0][math.copysign(1.0, b)],
        _BASIS[2][math.copysign(1.0, c)],
    )


def measurement_ket(spec: MeasurementSpec) -> QutritState:
    """|m> = R2(theta2)^dag R1(theta1)^dag |0>."""
    m = _rotate("MW1", spec.theta1, (0.0, 1.0, 0.0), adjoint=True)
    return QutritState(*_rotate("MW2", spec.theta2, m, adjoint=True))


def second_order_terms(p, t: TargetAmplitudes) -> tuple[float, float, float]:
    """(I_ab, I_ac, I_bc) extracted from the seven measured probabilities.

    Each term combines one pairwise experiment with the two single-path
    experiments, e.g. I_ab = (a^2+b^2) p2 - a^2 p5 - b^2 p6.  The
    coefficients of each combination sum to zero, so a common affine map
    p -> C*p + d rescales the terms by C and cancels d.
    """
    a2, b2, c2 = t.a**2, t.b**2, t.c**2
    i_ab = (a2 + b2) * p[1] - a2 * p[4] - b2 * p[5]
    i_ac = (a2 + c2) * p[2] - a2 * p[4] - c2 * p[6]
    i_bc = (b2 + c2) * p[3] - b2 * p[5] - c2 * p[6]
    return (i_ab, i_ac, i_bc)


def third_order_term(p, t: TargetAmplitudes) -> float:
    """Third-order interference from the seven measured probabilities."""
    a2, b2, c2 = t.a**2, t.b**2, t.c**2
    return (
        p[0]
        - (a2 + b2) * p[1]
        - (a2 + c2) * p[2]
        - (b2 + c2) * p[3]
        + a2 * p[4]
        + b2 * p[5]
        + c2 * p[6]
    )


def kappa(i3: float, terms) -> float:
    """Normalized ratio I3 / (|I_ab| + |I_ac| + |I_bc|) of floats; an I2 at
    or below KAPPA_FLOOR is refused."""
    i2 = abs(terms[0]) + abs(terms[1]) + abs(terms[2])
    if i2 <= KAPPA_FLOOR:
        raise QuantumRegimeError(
            f"second-order interference {float(i2)!r} is at or below the floor "
            f"{KAPPA_FLOOR:g}; the normalized ratio is undefined outside the "
            "interference regime"
        )
    return i3 / i2


def _sign(x: float) -> float:
    return math.copysign(1.0, x)


def _solve_psi1(a: float, b: float, c: float) -> tuple[float, float]:
    """Half-angle pair (theta1, theta1') preparing the full superposition
    (up to a global sign) as R2(theta1') R1(theta1) |0>."""
    if c != 0.0:
        sigma = -_sign(c)
    elif b != 0.0:
        sigma = -_sign(b)
    else:
        sigma = _sign(a)
    rho = math.hypot(a, b)
    if rho <= _DEGENERATE_ATOL:
        return (2.0 * math.atan2(abs(c), 0.0), 0.0)
    if (-sigma * b > 0.0) or (b == 0.0 and sigma * a > 0.0):
        u = math.atan2(-sigma * c, rho)
        v = math.atan2(-sigma * b, sigma * a)
    else:
        u = math.atan2(-sigma * c, -rho)
        v = math.atan2(sigma * b, -sigma * a)
    return (2.0 * u, 2.0 * v)


def solve_schedule(t: TargetAmplitudes, omega1_hz: float) -> tuple[PulseSchedule, ...]:
    """Pulse schedules reproducing the seven states from |0>.

    Angles are exact solutions of the amplitude conditions, canonicalized
    to the smallest non-negative value; each prepared state equals its
    target up to a physically irrelevant global sign (exactly, for sign
    patterns reachable by y-rotations, such as the standard working point).
    Durations follow from theta / omega_1 via PulseSegment.duration_s.
    """
    if omega1_hz <= 0:
        raise ValueError("omega1_hz must be positive")
    _pair_norms(t)  # degenerate targets are rejected up front
    a, b, c = t.a, t.b, t.c
    if abs(a) <= _DEGENERATE_ATOL:
        raise UnreachableStateError(
            "a = 0 makes the psi2 and psi3 pulse conditions singular; "
            "those states cannot be scheduled"
        )

    th1, th1p = _solve_psi1(a, b, c)

    s2 = -_sign(b) if b != 0.0 else _sign(a)
    th2p = 2.0 * math.atan2(-s2 * b, s2 * a)

    s3 = -_sign(c) if c != 0.0 else _sign(a)
    th3 = 2.0 * math.atan2(-s3 * c, s3 * a)

    s4 = -_sign(c) if c != 0.0 else -_sign(b)
    th4 = 2.0 * math.atan2(-s4 * c, -s4 * b)

    return (
        PulseSchedule(_pulse("MW1", th1) + _pulse("MW2", th1p)),
        PulseSchedule(_pulse("MW2", th2p)),
        PulseSchedule(_pulse("MW1", th3)),
        PulseSchedule(_pulse("MW1", th4) + _SCHEDULE_MW2_PI.segments),
        _SCHEDULE_NONE,
        _SCHEDULE_MW2_PI,
        _SCHEDULE_MW1_PI,
    )


def _pulse(channel: str, angle: float) -> tuple[PulseSegment, ...]:
    """The segments of one pulse: none for a zero angle."""
    return (PulseSegment(channel, angle),) if angle != 0.0 else ()


def apply_schedule(schedule: PulseSchedule) -> QutritState:
    """Run a schedule's rotations on |0> and return the prepared state.

    The three shared schedules that solve_schedule returns for psi5, psi6
    and psi7 are recognised by identity and return their states, prepared
    (and so checked) once at import; any other schedule, an equal one
    included, is rotated afresh.
    """
    for shared, state in _PREPARED:
        if schedule is shared:
            return state
    return _rotate_from_zero(schedule)


def _rotate_from_zero(schedule: PulseSchedule) -> QutritState:
    amplitudes = (0.0, 1.0, 0.0)
    for seg in schedule.segments:
        amplitudes = _rotate(seg.channel, seg.angle, amplitudes)
    return QutritState(*amplitudes)


_PREPARED = tuple(
    (s, _rotate_from_zero(s)) for s in (_SCHEDULE_NONE, _SCHEDULE_MW2_PI, _SCHEDULE_MW1_PI)
)
