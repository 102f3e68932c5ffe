import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sorkin_lab import (
    MEASUREMENT_M1,
    ProbabilityRule,
    QutritState,
    TargetAmplitudes,
    UnphysicalParameterError,
    kappa,
    measurement_ket,
    parse_rule,
    prepare_states,
    probability,
    second_order_terms,
    third_order_term,
)
from conftest import PAPER_ABC, random_complex_unit

TRIPLE_SLOPE = 0.10663603541648406  # 2 Re(w_a w_b* w_c) / I2 at the working point


def _paper_pair():
    t = TargetAmplitudes(*PAPER_ABC)
    return measurement_ket(MEASUREMENT_M1), prepare_states(t), t


def test_born_paper_probability():
    m, states, _ = _paper_pair()
    assert probability(ProbabilityRule.born(), m, states[0]) == pytest.approx(
        1 / 6, abs=1e-15
    )


def test_zero_deformation_matches_born():
    rng = np.random.default_rng(8)
    rules = (
        ProbabilityRule("exponent", 0.0),
        ProbabilityRule("triple", 0.0),
    )
    for _ in range(200):
        m = QutritState.from_vector(random_complex_unit(rng))
        psi = QutritState.from_vector(random_complex_unit(rng))
        born = probability(ProbabilityRule.born(), m, psi)
        for rule in rules:
            assert probability(rule, m, psi) == pytest.approx(born, abs=1e-15)


def test_additive_triple_paper_value():
    m, states, _ = _paper_pair()
    p = probability(ProbabilityRule("triple", 0.1), m, states[0])
    a, b, c = PAPER_ABC
    w = (0.5 * a, 0.5 * b, c / math.sqrt(2))
    expected = 1 / 6 + 0.1 * 2 * w[0] * w[1] * w[2]
    assert p == pytest.approx(expected, abs=1e-15)
    assert p == pytest.approx(0.173471, abs=1e-6)


def test_additive_triple_only_moves_full_superposition():
    m, states, t = _paper_pair()
    born = ProbabilityRule.born()
    deformed = ProbabilityRule("triple", 0.15)
    for psi in states[1:]:
        assert probability(deformed, m, psi) == probability(born, m, psi)
    assert probability(deformed, m, states[0]) != probability(born, m, states[0])


def test_additive_triple_injects_pure_third_order():
    m, states, t = _paper_pair()
    eps = 0.07
    p = [probability(ProbabilityRule("triple", eps), m, s) for s in states]
    a, b, c = PAPER_ABC
    w = (0.5 * a, 0.5 * b, c / math.sqrt(2))
    assert third_order_term(p, t) == pytest.approx(
        2 * eps * w[0] * w[1] * w[2], abs=1e-12
    )
    # pairwise terms unchanged from Born
    p_born = [probability(ProbabilityRule.born(), m, s) for s in states]
    assert second_order_terms(p, t) == pytest.approx(
        second_order_terms(p_born, t), abs=1e-15
    )


def test_kappa_linear_in_triple_epsilon():
    m, states, t = _paper_pair()
    slopes = []
    for eps in (0.05, 0.1, 0.2):
        p = [probability(ProbabilityRule("triple", eps), m, s) for s in states]
        slopes.append(kappa(third_order_term(p, t), second_order_terms(p, t)) / eps)
    assert slopes == pytest.approx([TRIPLE_SLOPE] * 3, abs=1e-12)
    assert slopes[0] == pytest.approx(0.106636, abs=1e-6)


def test_exponent_kappa_monotone_on_grid():
    m, states, t = _paper_pair()
    kappas = []
    for eps in np.linspace(0.0, 0.2, 9):
        p = [
            probability(ProbabilityRule("exponent", float(eps)), m, s)
            for s in states
        ]
        kappas.append(kappa(third_order_term(p, t), second_order_terms(p, t)))
    assert kappas[0] == pytest.approx(0.0, abs=1e-12)
    mags = [abs(k) for k in kappas]
    assert all(m2 >= m1 for m1, m2 in zip(mags, mags[1:]))


def test_born_phase_invariance():
    m, states, _ = _paper_pair()
    phased_m = QutritState.from_vector(np.exp(1j * 1.1) * m.vector)
    phased_s = QutritState.from_vector(np.exp(-1j * 0.4) * states[0].vector)
    assert probability(ProbabilityRule.born(), phased_m, phased_s) == pytest.approx(
        probability(ProbabilityRule.born(), m, states[0]), abs=1e-15
    )


def test_additive_triple_rejects_unphysical_epsilon():
    m, states, _ = _paper_pair()
    with pytest.raises(UnphysicalParameterError):
        probability(ProbabilityRule("triple", -3.0), m, states[0])
    # 2 eps overflows: the full superposition reads inf, a pair inf * 0 = nan
    for psi in states[:2]:
        with pytest.raises(UnphysicalParameterError, match="non-finite"):
            probability(ProbabilityRule("triple", 1.7e308), m, psi)


def test_rule_construction_guards():
    with pytest.raises(ValueError):
        ProbabilityRule("born", 0.5)
    with pytest.raises(UnphysicalParameterError):
        ProbabilityRule("exponent", -2.5)
    with pytest.raises(ValueError):
        ProbabilityRule("gaussian", 0.0)
    # a non-finite deformation would run to kappa = NaN instead of failing
    for kind in ("exponent", "triple"):
        for eps in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                ProbabilityRule(kind, eps)
            with pytest.raises(ValueError, match="finite"):
                parse_rule(f"{kind}:{eps}")


@given(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
def test_parse_rule_round_trip(eps):
    for kind in ("exponent", "triple"):
        rule = parse_rule(f"{kind}:{eps!r}")
        assert rule.kind == kind
        assert rule.epsilon == pytest.approx(eps)
        assert parse_rule(rule.label()) == rule


def test_parse_rule_errors():
    assert parse_rule("born").kind == "born"
    with pytest.raises(ValueError):
        parse_rule("exponent")
    with pytest.raises(ValueError):
        parse_rule("triple:x")
    with pytest.raises(ValueError):
        parse_rule("bogus:1")
