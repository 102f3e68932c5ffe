"""Acceptance gate: one test per criterion, printed as PASS/FAIL lines.

Statistical criteria run on frozen master seeds; the determinism contract
makes them exactly reproducible.
"""

import math
import time

import numpy as np
import pytest

from sorkin_lab import (
    DetectionParams,
    HamiltonianParams,
    MEASUREMENT_M1,
    MEASUREMENT_M2,
    ProbabilityRule,
    PulseSegment,
    QutritState,
    TargetAmplitudes,
    apply_schedule,
    estimate_kappa,
    inner_product,
    kappa,
    measurement_ket,
    prepare_states,
    probability,
    run_batches,
    run_protocol_batch,
    rwa_fidelity,
    scaling_check,
    second_order_terms,
    sensitivity_scan,
    solve_schedule,
    third_order_term,
)
from sorkin_lab.detection import _Z975, exact_probabilities, predicted_kappa_std
from conftest import (
    I2_EXPECTED,
    M1_VECTOR,
    M2_VECTOR,
    PAPER_ABC,
    PREPARATION_ANGLES,
    oracle_born_probabilities,
    oracle_state_vectors,
    oracle_third_order,
    random_complex_unit,
    random_target_triple,
    sorkin_term,
)

MASTER_SEED = 20260810
TRIPLE_SLOPE = 0.10663603541648406


def _check(name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f": {detail}"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_born_nullity():
    rng = np.random.default_rng(MASTER_SEED)
    born = ProbabilityRule.born()
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        a, b, c = random_target_triple(rng)
        t = TargetAmplitudes(a, b, c)
        m = QutritState.from_vector(random_complex_unit(rng))
        p = [probability(born, m, s) for s in prepare_states(t)]
        worst = max(worst, abs(third_order_term(p, t)))
    elapsed = time.perf_counter() - start
    _check(
        "criterion 1 (born nullity, 1e4 pairs)",
        worst < 1e-12 and elapsed < 1.0,
        f"max|I3|={worst:.3e}, {elapsed:.2f}s",
    )


def test_criterion_2_paper_configuration_exact():
    t = TargetAmplitudes(*PAPER_ABC)
    a, b, c = PAPER_ABC
    rep1 = run_protocol_batch(t, MEASUREMENT_M1, ProbabilityRule.born(), None, 0)
    p_oracle = oracle_born_probabilities(M1_VECTOR, a, b, c)
    ok_p = max(abs(x - y) for x, y in zip(rep1.p, p_oracle)) < 1e-12
    ok_i2 = abs(rep1.I2 - I2_EXPECTED) < 1e-9 and abs(rep1.I2 - 0.638071) < 1e-6
    ok_kappa = abs(rep1.kappa) <= 1e-12

    rep2 = run_protocol_batch(t, MEASUREMENT_M2, ProbabilityRule.born(), None, 0)
    p2_oracle = oracle_born_probabilities(M2_VECTOR, a, b, c)
    ok_p2 = max(abs(x - y) for x, y in zip(rep2.p, p2_oracle)) < 1e-12
    swapped = list(rep1.p)
    swapped[2], swapped[3] = rep1.p[3], rep1.p[2]
    ok_swap = max(abs(x - y) for x, y in zip(rep2.p, swapped)) < 1e-12
    ok_m2 = abs(rep2.I2 - I2_EXPECTED) < 1e-9 and abs(rep2.kappa) <= 1e-12
    _check(
        "criterion 2 (paper config, M1/M2 exact)",
        ok_p and ok_i2 and ok_kappa and ok_p2 and ok_swap and ok_m2,
        f"I2={rep1.I2:.9f}, kappa={rep1.kappa:.2e}",
    )


def test_criterion_3_affine_invariance():
    t = TargetAmplitudes(*PAPER_ABC)
    m = measurement_ket(MEASUREMENT_M1)
    worst = 0.0
    for rule in (ProbabilityRule.born(), ProbabilityRule("triple", 0.1)):
        p = np.array([probability(rule, m, s) for s in prepare_states(t)])
        k0 = kappa(third_order_term(p, t), second_order_terms(p, t))
        for scale in (0.5, 2.0):
            for offset in (0.0, 0.01):
                p_affine = scale * p + offset
                k1 = kappa(
                    third_order_term(p_affine, t), second_order_terms(p_affine, t)
                )
                worst = max(worst, abs(k1 - k0))
    _check(
        "criterion 3 (kappa affine invariance)",
        worst < 1e-12,
        f"max|dkappa|={worst:.3e}",
    )


def test_criterion_4_statistical_reproduction():
    t = TargetAmplitudes(*PAPER_ABC)
    start = time.perf_counter()
    report = run_batches(
        t, MEASUREMENT_M1, ProbabilityRule.born(), DetectionParams(), 50, MASTER_SEED
    )
    est = estimate_kappa(report)
    elapsed = time.perf_counter() - start
    ok = (
        abs(est.mean) <= 3 * est.stderr
        and 5e-4 <= est.std <= 2e-2
        and elapsed < 10.0
    )
    _check(
        "criterion 4 (null statistics at defaults)",
        ok,
        f"mean={est.mean:.2e}, std={est.std:.2e}, {elapsed:.2f}s",
    )


def test_criterion_5_shot_noise_scaling():
    t = TargetAmplitudes(*PAPER_ABC)
    start = time.perf_counter()
    rows = scaling_check(
        t, MEASUREMENT_M1, DetectionParams(), [20_000, 2_000_000], 200, MASTER_SEED
    )
    elapsed = time.perf_counter() - start
    ratio = rows[0][1] / rows[1][1]
    _check(
        "criterion 5 (sigma_kappa ~ 1/sqrt(N))",
        8.0 <= ratio <= 12.0 and elapsed < 30.0,
        f"ratio={ratio:.2f}, {elapsed:.2f}s",
    )


def test_criterion_6_violation_sensitivity():
    t = TargetAmplitudes(*PAPER_ABC)
    m = measurement_ket(MEASUREMENT_M1)

    # (a) additive-triple kappa is linear with the derived slope, exact mode
    scan_exact = sensitivity_scan(
        t, MEASUREMENT_M1, "triple", [0.0, 0.1, 0.2], None, 2, 0
    )
    slope = (scan_exact.rows[2].kappa_mean - scan_exact.rows[0].kappa_mean) / 0.2
    ok_slope = abs(slope - 0.106636) <= 1e-6 and abs(slope - TRIPLE_SLOPE) < 1e-12

    # (b) exponent-deformed third-order value against the direct oracle
    rule = ProbabilityRule("exponent", 0.1)
    p = [probability(rule, m, s) for s in prepare_states(t)]
    i3 = third_order_term(p, t)
    a, b, c = PAPER_ABC
    p_oracle = [
        abs(np.vdot(M1_VECTOR, s)) ** 2.1 for s in oracle_state_vectors(a, b, c)
    ]
    ok_i3 = (
        abs(i3 - (-0.0210)) <= 5e-4
        and abs(i3 - oracle_third_order(p_oracle, a, b, c)) < 1e-12
    )

    # (c) empirical detection threshold vs the scan's own prediction, which
    # states the 3-sigma flag's detection model once (sensitivity_scan)
    grid = [round(0.01 * j, 10) for j in range(13)]
    scan = sensitivity_scan(
        t, MEASUREMENT_M1, "triple", grid, DetectionParams(), 50, MASTER_SEED
    )
    eps_predicted = scan.predicted_detectable_eps
    eps_empirical = scan.smallest_detected_eps
    ok_threshold = (
        eps_predicted is not None
        and eps_empirical is not None
        and abs(eps_empirical - eps_predicted) <= 0.5 * eps_predicted
    )
    _check(
        "criterion 6 (violation sensitivity)",
        ok_slope and ok_i3 and ok_threshold,
        f"slope={slope:.9f}, I3(exp 0.1)={i3:.5f}, "
        f"eps*={eps_predicted:.4f} vs {eps_empirical}",
    )


def test_criterion_7_rwa_validity():
    seg = PulseSegment("MW1", math.pi)
    start = time.perf_counter()
    fid_5 = rwa_fidelity(HamiltonianParams(omega1_hz=5e6), seg)
    fid_50 = rwa_fidelity(HamiltonianParams(omega1_hz=50e6), seg)
    elapsed = time.perf_counter() - start
    _check(
        "criterion 7 (rotating-wave validity)",
        fid_5 >= 0.999 and fid_50 < fid_5 and elapsed < 10.0,
        f"fid(5MHz)={fid_5:.6f}, fid(50MHz)={fid_50:.6f}, {elapsed:.2f}s",
    )


def test_criterion_8_schedule_round_trip():
    rng = np.random.default_rng(MASTER_SEED)
    worst = 1.0
    for _ in range(100):
        a, b, c = random_target_triple(rng)
        t = TargetAmplitudes(a, b, c)
        states = prepare_states(t)
        for sched, target in zip(solve_schedule(t, 5e6), states):
            worst = min(worst, abs(inner_product(target, apply_schedule(sched))))
    ok_random = worst >= 1 - 1e-9

    pairs = [s.angle_pair() for s in solve_schedule(TargetAmplitudes(*PAPER_ABC), 5e6)]
    table = list(PREPARATION_ANGLES)
    table[1], table[2] = table[2], table[1]  # documented psi2/psi3 label swap
    ok_table = all(
        abs(g[0] - w[0]) < 1e-12 and abs(g[1] - w[1]) < 1e-12
        for g, w in zip(pairs, table)
    )
    _check(
        "criterion 8 (schedule round trip)",
        ok_random and ok_table,
        f"min overlap={worst:.12f}",
    )


def test_criterion_9_sorkin_hierarchy():
    rng = np.random.default_rng(MASTER_SEED)
    worst_high = 0.0
    worst_pair = 0.0
    for _ in range(1000):
        w = rng.normal(size=5) + 1j * rng.normal(size=5)
        worst_high = max(worst_high, abs(sorkin_term(3, w)), abs(sorkin_term(4, w)))
        pairwise = 2 * (w[0] * np.conj(w[1])).real
        worst_pair = max(worst_pair, abs(sorkin_term(2, w[:2]) - pairwise))
    _check(
        "criterion 9 (interference hierarchy)",
        worst_high < 1e-12 and worst_pair < 1e-12,
        f"max|I3,I4|={worst_high:.3e}",
    )


def test_criterion_10_the_papers_bound():
    # kappa ceiled at 1e-3: M = ceil(((z975 + 3) sigma / 1e-3)^2) batches put
    # a Born run's 95% interval inside +-1e-3 with a 3-sigma margin, and the
    # same M flag a triple run at twice the scan's predicted strength
    t, det, born = TargetAmplitudes(*PAPER_ABC), DetectionParams(), ProbabilityRule.born()
    sigma = predicted_kappa_std(t, exact_probabilities(t, MEASUREMENT_M1, born), det)
    m = math.ceil(((_Z975 + 3.0) * sigma / 1e-3) ** 2)
    start = time.perf_counter()
    est = estimate_kappa(run_batches(t, MEASUREMENT_M1, born, det, m, MASTER_SEED))
    eps = sensitivity_scan(
        t, MEASUREMENT_M1, "triple", [0.01], det, m, MASTER_SEED
    ).predicted_detectable_eps
    scan = sensitivity_scan(t, MEASUREMENT_M1, "triple", [2 * eps], det, m, MASTER_SEED)
    elapsed = time.perf_counter() - start
    _check(
        "criterion 10 (the paper's 1e-3 bound)",
        m == 5838
        and -1e-3 < est.ci95[0] <= est.ci95[1] < 1e-3
        and scan.rows[0].detected
        and elapsed < 10.0,
        f"M={m}, ci95=({est.ci95[0]:.2e}, {est.ci95[1]:.2e}), "
        f"triple at eps={2 * eps:.4f} kappa={scan.rows[0].kappa_mean:.2e}, {elapsed:.2f}s",
    )
