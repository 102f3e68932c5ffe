"""Shared fixtures and independent brute-force oracles.

The oracle helpers below deliberately duplicate the physics with plain
numpy (no package imports) so the tests check the implementation against
an independent computation path.  The two ``fresh_*`` oracles are the
exception: they build every protocol object through the package's own
constructors, one fresh object per state and pulse, so that the shared
constant objects of ``prepare_states`` and ``solve_schedule`` can be
compared with them bit for bit.
"""

import math
from itertools import combinations

import numpy as np
import pytest

SQRT3 = math.sqrt(3.0)
PAPER_ABC = (1.0 / SQRT3, -1.0 / SQRT3, -1.0 / SQRT3)

# Closed-form measurement vectors (components ordered |+1>, |0>, |-1>).
M1_VECTOR = np.array([0.5, 0.5, 1.0 / math.sqrt(2.0)])
M2_VECTOR = np.array([-0.5, -0.5, 1.0 / math.sqrt(2.0)])

I2_EXPECTED = (1.0 + 2.0 * math.sqrt(2.0)) / 6.0

# Reference (phi1, phi2) rotation-angle pairs for the seven preparations at
# the paper point, in the paper's state labelling.
PREPARATION_ANGLES = (
    (math.acos(1.0 / 3.0), math.pi / 2),
    (math.pi / 2, 0.0),
    (0.0, math.pi / 2),
    (math.pi / 2, math.pi),
    (0.0, 0.0),
    (0.0, math.pi),
    (math.pi, 0.0),
)


def r1_rows(theta):
    """Rows of the rotating-frame MW1 rotation by theta on (|0>, |-1>);
    Unitary3(r1_rows(theta)) is the fully checked reference matrix."""
    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    return [[1, 0, 0], [0, c, s], [0, -s, c]]


def r2_rows(theta):
    """Rows of the rotating-frame MW2 rotation by theta on (|+1>, |0>)."""
    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    return [[c, -s, 0], [s, c, 0], [0, 0, 1]]


def oracle_state_vectors(a, b, c):
    """Seven protocol state vectors, built directly from the definitions."""
    ab = math.hypot(a, b)
    ac = math.hypot(a, c)
    bc = math.hypot(b, c)
    return [
        np.array([b, a, c], dtype=complex),
        np.array([b, a, 0.0], dtype=complex) / ab,
        np.array([0.0, a, c], dtype=complex) / ac,
        np.array([b, 0.0, c], dtype=complex) / bc,
        np.array([0.0, math.copysign(1.0, a), 0.0], dtype=complex),
        np.array([math.copysign(1.0, b), 0.0, 0.0], dtype=complex),
        np.array([0.0, 0.0, math.copysign(1.0, c)], dtype=complex),
    ]


def oracle_born_probabilities(m_vec, a, b, c):
    """Direct |<m|psi_i>|^2 for the seven states."""
    return [
        abs(np.vdot(m_vec, s)) ** 2 for s in oracle_state_vectors(a, b, c)
    ]


def oracle_third_order(p, a, b, c):
    a2, b2, c2 = a * a, b * b, c * c
    return (
        p[0]
        - (a2 + b2) * p[1]
        - (a2 + c2) * p[2]
        - (b2 + c2) * p[3]
        + a2 * p[4]
        + b2 * p[5]
        + c2 * p[6]
    )


def oracle_second_order(p, a, b, c):
    a2, b2, c2 = a * a, b * b, c * c
    return (
        (a2 + b2) * p[1] - a2 * p[4] - b2 * p[5],
        (a2 + c2) * p[2] - a2 * p[4] - c2 * p[6],
        (b2 + c2) * p[3] - b2 * p[5] - c2 * p[6],
    )


def sorkin_term(k, path_weights):
    """Order-k interference of per-path detection amplitudes.

    Inclusion-exclusion over the first k paths: sum over subsets S of
    (-1)^(k-|S|) |sum_{j in S} w_j|^2, with squared-modulus probabilities.
    Order 2 reduces to the pairwise cross term 2 Re(w1 conj(w2)); all
    orders >= 3 vanish identically under the squared-modulus rule.
    """
    weights = list(path_weights)
    n = len(weights)
    if not 2 <= k <= n:
        raise ValueError(f"order k={k} must satisfy 2 <= k <= n={n}")
    total = 0.0
    for size in range(1, k + 1):
        sign = (-1.0) ** (k - size)
        for subset in combinations(range(k), size):
            amp = sum(weights[j] for j in subset)
            total += sign * abs(amp) ** 2
    return total


def fresh_prepare_states(t):
    """prepare_states(t), each of the seven states built by its own
    QutritState call."""
    from sorkin_lab import QutritState
    from sorkin_lab.protocol import _pair_norms

    ab, ac, bc = _pair_norms(t)
    a, b, c = t.a, t.b, t.c
    return (
        QutritState(b, a, c),
        QutritState(b / ab, a / ab, 0.0),
        QutritState(0.0, a / ac, c / ac),
        QutritState(b / bc, 0.0, c / bc),
        QutritState(0.0, math.copysign(1.0, a), 0.0),
        QutritState(math.copysign(1.0, b), 0.0, 0.0),
        QutritState(0.0, 0.0, math.copysign(1.0, c)),
    )


def fresh_solve_schedule(t, omega1_hz):
    """solve_schedule(t, omega1_hz), every PulseSegment and PulseSchedule
    built fresh: a pulse of nonzero angle is one segment, in schedule order."""
    from sorkin_lab import PulseSchedule, PulseSegment, UnreachableStateError
    from sorkin_lab.protocol import _DEGENERATE_ATOL, _pair_norms, _solve_psi1

    if omega1_hz <= 0:
        raise ValueError("omega1_hz must be positive")
    _pair_norms(t)
    a, b, c = t.a, t.b, t.c
    if abs(a) <= _DEGENERATE_ATOL:
        raise UnreachableStateError(
            "a = 0 makes the psi2 and psi3 pulse conditions singular; "
            "those states cannot be scheduled"
        )

    def sign(x):
        return math.copysign(1.0, x)

    th1, th1p = _solve_psi1(a, b, c)
    s2 = -sign(b) if b != 0.0 else sign(a)
    th2p = 2.0 * math.atan2(-s2 * b, s2 * a)
    s3 = -sign(c) if c != 0.0 else sign(a)
    th3 = 2.0 * math.atan2(-s3 * c, s3 * a)
    s4 = -sign(c) if c != 0.0 else -sign(b)
    th4 = 2.0 * math.atan2(-s4 * c, -s4 * b)

    def sched(*pairs):
        segs = [PulseSegment(channel, angle) for channel, angle in pairs if angle != 0.0]
        return PulseSchedule(tuple(segs))

    pi = math.pi
    return (
        sched(("MW1", th1), ("MW2", th1p)),
        sched(("MW2", th2p)),
        sched(("MW1", th3)),
        sched(("MW1", th4), ("MW2", pi)),
        sched(),
        sched(("MW2", pi)),
        sched(("MW1", pi)),
    )


def random_target_triple(rng, min_component=1e-3):
    """Uniform direction on the sphere, rejecting near-degenerate triples."""
    while True:
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        b, a, c = v
        if min(abs(a), abs(b), abs(c)) >= min_component:
            return a, b, c


def random_complex_unit(rng, n=3):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


@pytest.fixture
def paper_target():
    from sorkin_lab import TargetAmplitudes

    return TargetAmplitudes(*PAPER_ABC)
