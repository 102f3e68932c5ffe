import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sorkin_lab import (
    DegenerateProtocolError,
    MEASUREMENT_M1,
    MEASUREMENT_M2,
    MeasurementSpec,
    QuantumRegimeError,
    QutritState,
    TargetAmplitudes,
    UnreachableStateError,
    apply_schedule,
    inner_product,
    kappa,
    measurement_ket,
    prepare_states,
    probability,
    ProbabilityRule,
    second_order_terms,
    solve_schedule,
    third_order_term,
)
from conftest import (
    I2_EXPECTED,
    M1_VECTOR,
    M2_VECTOR,
    PAPER_ABC,
    PREPARATION_ANGLES,
    oracle_born_probabilities,
    oracle_second_order,
    oracle_state_vectors,
    oracle_third_order,
    random_complex_unit,
    random_target_triple,
    sorkin_term,
)

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


def _born_p(m: QutritState, states) -> list:
    rule = ProbabilityRule.born()
    return [probability(rule, m, s) for s in states]


def test_prepare_states_paper_configuration(paper_target):
    states = prepare_states(paper_target)
    assert np.allclose(states[3].vector, [-1 / SQRT2, 0, -1 / SQRT2])
    assert np.allclose(states[1].vector, [-1 / SQRT2, 1 / SQRT2, 0])
    for s in states:
        assert np.linalg.norm(s.vector) == pytest.approx(1.0, abs=1e-12)


def test_prepare_states_degenerate():
    with pytest.raises(DegenerateProtocolError):
        prepare_states(TargetAmplitudes(1.0, 0.0, 0.0))


def test_measurement_ket_presets():
    m1 = measurement_ket(MEASUREMENT_M1)
    assert np.allclose(m1.vector, M1_VECTOR, atol=1e-15)
    assert np.allclose(measurement_ket(MeasurementSpec(0, 0)).vector, [0, 1, 0])
    m2 = measurement_ket(MEASUREMENT_M2)
    assert np.allclose(m2.vector, M2_VECTOR, atol=1e-15)


def test_second_order_terms_paper_values(paper_target):
    a, b, c = PAPER_ABC
    p = oracle_born_probabilities(M1_VECTOR, a, b, c)
    terms = second_order_terms(p, paper_target)
    assert terms[0] == pytest.approx(-1 / 6, abs=1e-12)
    assert terms[1] == pytest.approx(-1 / (3 * SQRT2), abs=1e-12)
    assert terms[2] == pytest.approx(+1 / (3 * SQRT2), abs=1e-12)
    assert terms == pytest.approx(oracle_second_order(p, a, b, c), abs=1e-15)


def test_second_order_no_interference_inputs(paper_target):
    a, b, c = PAPER_ABC
    a2, b2, c2 = a * a, b * b, c * c
    p5, p6, p7 = 0.3, 0.4, 0.1
    p = [
        0.0,
        (a2 * p5 + b2 * p6) / (a2 + b2),
        (a2 * p5 + c2 * p7) / (a2 + c2),
        (b2 * p6 + c2 * p7) / (b2 + c2),
        p5,
        p6,
        p7,
    ]
    assert second_order_terms(p, paper_target) == pytest.approx((0, 0, 0), abs=1e-15)


def test_second_order_affine_covariance(paper_target):
    a, b, c = PAPER_ABC
    p = np.array(oracle_born_probabilities(M1_VECTOR, a, b, c))
    base = np.array(second_order_terms(p, paper_target))
    shifted = np.array(second_order_terms(3.0 * p + 0.25, paper_target))
    assert np.allclose(shifted, 3.0 * base, atol=1e-12)


def test_third_order_vanishes_exact_born(paper_target):
    a, b, c = PAPER_ABC
    p = oracle_born_probabilities(M1_VECTOR, a, b, c)
    assert p == pytest.approx(
        [1 / 6, 0.0, 0.02144660940672623, 0.7285533905932737, 0.25, 0.25, 0.5],
        abs=1e-12,
    )
    assert abs(third_order_term(p, paper_target)) < 1e-12


def test_third_order_vanishes_on_random_configurations():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        a, b, c = random_target_triple(rng)
        t = TargetAmplitudes(a, b, c)
        m = QutritState.from_vector(random_complex_unit(rng))
        p = _born_p(m, prepare_states(t))
        worst = max(worst, abs(third_order_term(p, t)))
    assert worst < 1e-12


def test_third_order_exponent_deformation(paper_target):
    rule = ProbabilityRule("exponent", 0.1)
    m = measurement_ket(MEASUREMENT_M1)
    p = [probability(rule, m, s) for s in prepare_states(paper_target)]
    i3 = third_order_term(p, paper_target)
    # oracle: |<m|psi_i>|^2.1 through the same seven-term combination
    a, b, c = PAPER_ABC
    p_oracle = [
        abs(np.vdot(M1_VECTOR, s)) ** 2.1 for s in oracle_state_vectors(a, b, c)
    ]
    assert i3 == pytest.approx(oracle_third_order(p_oracle, a, b, c), abs=1e-12)
    assert i3 == pytest.approx(-0.0210, abs=5e-4)


def test_kappa_paper_configuration(paper_target):
    a, b, c = PAPER_ABC
    p = oracle_born_probabilities(M1_VECTOR, a, b, c)
    terms = second_order_terms(p, paper_target)
    i2 = sum(abs(x) for x in terms)
    assert i2 == pytest.approx(I2_EXPECTED, abs=1e-12)
    assert abs(kappa(third_order_term(p, paper_target), terms)) < 1e-12


def test_kappa_arithmetic_and_floor():
    assert kappa(0.001, (0.5, 0.25, 0.25)) == pytest.approx(0.001)
    with pytest.raises(QuantumRegimeError):
        kappa(0.0, (1e-7, 0.0, 0.0))
    # a numpy scalar I2 is named as a float, whatever numpy's scalar repr
    with pytest.raises(QuantumRegimeError, match="^second-order interference 1e-07 is at"):
        kappa(0.0, (np.float64(1e-7), 0.0, 0.0))


@given(
    st.floats(min_value=0.01, max_value=100.0),
    st.floats(min_value=-1.0, max_value=1.0),
)
def test_kappa_affine_invariance(scale, offset):
    a, b, c = PAPER_ABC
    t = TargetAmplitudes(a, b, c)
    rule = ProbabilityRule("triple", 0.1)
    m = measurement_ket(MEASUREMENT_M1)
    p = np.array([probability(rule, m, s) for s in prepare_states(t)])
    k0 = kappa(third_order_term(p, t), second_order_terms(p, t))
    p2 = scale * p + offset
    k1 = kappa(third_order_term(p2, t), second_order_terms(p2, t))
    assert k1 == pytest.approx(k0, abs=1e-12)


def test_kappa_global_phase_invariance(paper_target):
    rng = np.random.default_rng(11)
    rule = ProbabilityRule.born()
    m = measurement_ket(MEASUREMENT_M1)
    states = prepare_states(paper_target)
    p = [probability(rule, m, s) for s in states]
    phase_m = QutritState.from_vector(np.exp(1j * 0.73) * m.vector)
    p_phased = [
        probability(
            rule,
            phase_m,
            QutritState.from_vector(np.exp(1j * rng.uniform(0, 2 * math.pi)) * s.vector),
        )
        for s in states
    ]
    assert p_phased == pytest.approx(p, abs=1e-14)


def test_m1_m2_swap_structure(paper_target):
    a, b, c = PAPER_ABC
    p1 = _born_p(measurement_ket(MEASUREMENT_M1), prepare_states(paper_target))
    p2 = _born_p(measurement_ket(MEASUREMENT_M2), prepare_states(paper_target))
    assert p2[2] == pytest.approx(p1[3], abs=1e-12)
    assert p2[3] == pytest.approx(p1[2], abs=1e-12)
    t1 = second_order_terms(p1, paper_target)
    t2 = second_order_terms(p2, paper_target)
    assert sum(map(abs, t1)) == pytest.approx(sum(map(abs, t2)), abs=1e-12)
    # the two cross terms trade places and flip sign in place
    assert t2[1] == pytest.approx(t1[2], abs=1e-12)
    assert t2[2] == pytest.approx(t1[1], abs=1e-12)
    assert t2[1] == pytest.approx(-t1[1], abs=1e-12)


def test_solve_schedule_paper_angles(paper_target):
    pairs = [s.angle_pair() for s in solve_schedule(paper_target, 5e6)]
    table = list(PREPARATION_ANGLES)
    table[1], table[2] = table[2], table[1]  # documented psi2/psi3 label swap
    for got, want in zip(pairs, table):
        assert got == pytest.approx(want, abs=1e-12)


def test_solve_schedule_round_trip_random_targets():
    rng = np.random.default_rng(77)
    for _ in range(100):
        a, b, c = random_target_triple(rng)
        t = TargetAmplitudes(a, b, c)
        states = prepare_states(t)
        for sched, target in zip(solve_schedule(t, 5e6), states):
            overlap = abs(inner_product(target, apply_schedule(sched)))
            assert overlap >= 1 - 1e-9


def test_solve_schedule_degenerate_and_unreachable():
    with pytest.raises(DegenerateProtocolError):
        solve_schedule(TargetAmplitudes(1.0, 0.0, 0.0), 5e6)
    with pytest.raises(UnreachableStateError):
        solve_schedule(TargetAmplitudes(0.0, 1 / SQRT2, -1 / SQRT2), 5e6)


def test_solve_schedule_b_zero_target():
    t = TargetAmplitudes(1 / SQRT2, 0.0, -1 / SQRT2)
    scheds = solve_schedule(t, 5e6)
    assert [(s.channel, s.angle) for s in scheds[0]] == [
        ("MW1", pytest.approx(math.pi / 2))
    ]


def test_sorkin_term_order_two():
    rng = np.random.default_rng(5)
    for _ in range(100):
        w = rng.normal(size=2) + 1j * rng.normal(size=2)
        expected = 2 * (w[0] * np.conj(w[1])).real
        assert sorkin_term(2, w) == pytest.approx(expected, abs=1e-12)


def test_sorkin_term_higher_orders_vanish():
    rng = np.random.default_rng(6)
    worst3 = worst4 = 0.0
    for _ in range(1000):
        w = rng.normal(size=5) + 1j * rng.normal(size=5)
        worst3 = max(worst3, abs(sorkin_term(3, w)))
        worst4 = max(worst4, abs(sorkin_term(4, w)))
    assert worst3 < 1e-12
    assert worst4 < 1e-12


def test_sorkin_term_rejects_bad_order():
    with pytest.raises(ValueError):
        sorkin_term(4, [1.0, 2.0])
    with pytest.raises(ValueError):
        sorkin_term(1, [1.0, 2.0])


def test_decomposition_of_full_probability(paper_target):
    # p1 = q_a + q_b + q_c + I_ab + I_ac + I_bc under exact Born
    a, b, c = PAPER_ABC
    p = oracle_born_probabilities(M1_VECTOR, a, b, c)
    q = (a * a * p[4], b * b * p[5], c * c * p[6])
    terms = second_order_terms(p, paper_target)
    assert p[0] == pytest.approx(sum(q) + sum(terms), abs=1e-12)
