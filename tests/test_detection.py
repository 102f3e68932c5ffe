import math
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from sorkin_lab import (
    DetectionParams,
    InsufficientBatchesError,
    KappaEstimate,
    MEASUREMENT_M1,
    MEASUREMENT_M2,
    ProbabilityRule,
    TargetAmplitudes,
    UnphysicalParameterError,
    estimate_kappa,
    measurement_ket,
    run_batches,
    run_protocol_batch,
    scaling_check,
    sensitivity_scan,
)
from sorkin_lab import detection
from sorkin_lab.detection import batch_csv_text
from conftest import I2_EXPECTED, M1_VECTOR, PAPER_ABC, oracle_born_probabilities

BORN = ProbabilityRule.born()


def _target():
    return TargetAmplitudes(*PAPER_ABC)


def _ratio_moments(p, det):
    """Closed-form mean/variance of the two-stage count ratio (delta method)."""
    n = det.shots
    dmu = det.mu_bright - det.mu_dark
    e_s = n * (det.mu_dark + det.mu_bg + p * dmu)
    var_s = e_s + dmu**2 * n * p * (1 - p)
    e_r = n * (det.mu_bright + det.mu_bg)
    mean = e_s / e_r
    var = var_s / e_r**2 + e_s**2 / e_r**3
    return mean, var


def test_detection_params_validation():
    det = DetectionParams()
    assert det.mu_dark == pytest.approx(0.084)
    with pytest.raises(ValueError):
        DetectionParams(contrast=0.0)
    with pytest.raises(ValueError):
        DetectionParams(shots=0)
    with pytest.raises(ValueError):
        DetectionParams(mu_bg=-1.0)


def test_detection_params_need_an_expected_reference():
    # one Poisson reference draw per batch; a near-zero mean must be refused
    with pytest.raises(ValueError, match="reference photons"):
        DetectionParams(mu_bg=0.0, mu_bright=1e-9, shots=1)
    with pytest.raises(ValueError, match="shots >= 412"):
        DetectionParams(shots=411)
    assert DetectionParams(shots=412).shots == 412


def _paper_probabilities():
    return oracle_born_probabilities(M1_VECTOR, *PAPER_ABC)


def test_estimate_consistency_perfect_contrast():
    # every simulated p[k] is one signal/reference ratio, unbiased here
    det = DetectionParams(contrast=1.0, mu_bg=0.0, shots=10_000_000)
    report = run_protocol_batch(_target(), MEASUREMENT_M1, BORN, det, 17)
    for est, p in zip(report.p, _paper_probabilities()):
        _, var = _ratio_moments(p, det)
        assert abs(est - p) <= 5 * math.sqrt(var)  # p2 = 0 reads exactly 0


def test_estimate_matches_affine_expectation_at_defaults():
    det = DetectionParams()
    report = run_protocol_batch(_target(), MEASUREMENT_M1, BORN, det, 31)
    for est, p in zip(report.p, _paper_probabilities()):
        mean, var = _ratio_moments(p, det)
        assert abs(est - mean) < 5 * math.sqrt(var)


def test_estimate_rejects_bad_probability():
    # the deformed full-superposition probability is about 3.6 at M1
    rule = ProbabilityRule("triple", 50.0)
    with pytest.raises(UnphysicalParameterError, match=r"outside \[0, 1\]"):
        run_protocol_batch(_target(), MEASUREMENT_M1, rule, DetectionParams(), 0)


def test_exact_batch_matches_oracle():
    a, b, c = PAPER_ABC
    report = run_protocol_batch(_target(), MEASUREMENT_M1, BORN, None, 0)
    p_oracle = oracle_born_probabilities(M1_VECTOR, a, b, c)
    assert report.p == pytest.approx(p_oracle, abs=1e-12)
    assert report.I2 == pytest.approx(I2_EXPECTED, abs=1e-12)
    assert abs(report.kappa) < 1e-12
    assert report.p[0] == pytest.approx(
        report.q_a + report.q_b + report.q_c + report.I_ab + report.I_ac + report.I_bc,
        abs=1e-12,
    )


def test_simulated_batch_determinism():
    det = DetectionParams(shots=100_000)
    r1 = run_protocol_batch(_target(), MEASUREMENT_M1, BORN, det, (42, 0))
    r2 = run_protocol_batch(_target(), MEASUREMENT_M1, BORN, det, (42, 0))
    assert r1.p == r2.p
    assert r1.kappa == r2.kappa


@pytest.mark.parametrize("det", [None, DetectionParams(shots=50_000)])
def test_batch_report_is_a_function_of_its_probabilities(det):
    # a batch carries nothing beyond what (t, p) determines
    t = _target()
    p_true = detection.exact_probabilities(t, MEASUREMENT_M1, ProbabilityRule("triple", 0.05))
    reports = detection.sample_batches(t, p_true, det, 4, 11)
    assert len({r.p for r in reports}) == (1 if det is None else 4)
    for r in reports:
        assert r == detection.sorkin_report(t, r.p)


@pytest.mark.parametrize("det", [None, DetectionParams(shots=50_000)])
def test_run_batches_follow_the_batch_stream_layout(det):
    reports = run_batches(_target(), MEASUREMENT_M1, BORN, det, 6, 5)
    for b, r in enumerate(reports):
        assert r == run_protocol_batch(_target(), MEASUREMENT_M1, BORN, det, (5, b))


@pytest.mark.parametrize("grid", [[0.1, 0.0, -0.05], [0.05, 0.1]])
def test_scan_predicts_its_detectable_eps(grid):
    # 3 sigma / (sqrt(M) |slope|) at the smallest nonzero strength, whether or
    # not the grid holds the Born point
    t, det, m = _target(), DetectionParams(shots=50_000), 4
    eps = min((e for e in grid if e), key=abs)
    p = detection.exact_probabilities(t, MEASUREMENT_M1, ProbabilityRule("triple", eps))
    slope = detection.sorkin_report(t, p).kappa / eps
    born = detection.exact_probabilities(t, MEASUREMENT_M1, BORN)
    sigma = detection.predicted_kappa_std(t, born, det)
    scan = sensitivity_scan(t, MEASUREMENT_M1, "triple", grid, det, m, 7)
    assert scan.predicted_detectable_eps == pytest.approx(
        3.0 * sigma / (math.sqrt(m) * abs(slope)), rel=1e-12
    )
    for no_prediction in [(grid, None), ([0.0], det)]:
        scan = sensitivity_scan(t, MEASUREMENT_M1, "triple", *no_prediction, m, 7)
        assert scan.predicted_detectable_eps is None


def test_grid_row_j_runs_batches_under_seed_prefix_j():
    det = DetectionParams(shots=50_000)
    grid = [0.0, 0.1]
    scan = sensitivity_scan(_target(), MEASUREMENT_M1, "triple", grid, det, 4, 7)
    for j, (eps, row) in enumerate(zip(grid, scan.rows)):
        rule = BORN if eps == 0 else ProbabilityRule("triple", eps)
        k = [r.kappa for r in run_batches(_target(), MEASUREMENT_M1, rule, det, 4, (7, j))]
        assert row.kappa_mean == float(np.mean(k))
        assert row.kappa_std == float(np.std(k, ddof=1))
    ladder = [20_000, 50_000]
    rows = scaling_check(_target(), MEASUREMENT_M1, det, ladder, 4, 7)
    for j, (n, std) in enumerate(rows):
        det_n = replace(det, shots=n)
        k = [r.kappa for r in run_batches(_target(), MEASUREMENT_M1, BORN, det_n, 4, (7, j))]
        assert (n, std) == (ladder[j], float(np.std(k, ddof=1)))


def test_run_batches_builds_the_measurement_once(monkeypatch):
    calls = []

    def counted(spec):
        calls.append(spec)
        return measurement_ket(spec)

    monkeypatch.setattr("sorkin_lab.detection.measurement_ket", counted)
    run_batches(_target(), MEASUREMENT_M1, BORN, DetectionParams(shots=50_000), 5, 0)
    assert calls == [MEASUREMENT_M1]


# single-word seeds at both ends of the first word, two- and three-word
# seeds, a five-word seed (SeedSequence folds words past its four-word pool
# in a separate loop) and a tuple prefix
ORACLE_PREFIXES = [(0,), (1,), (2**32 - 1,), (2**32,), (2**64 + 5,), (2**130 + 3,), (7, 3)]


@pytest.mark.parametrize("prefix", ORACLE_PREFIXES, ids=str)
def test_bulk_hashed_streams_equal_seed_sequence(prefix):
    seeds = detection._run_seeds(list(prefix), 20)
    assert seeds.shape == (20, 8, 4) and seeds.dtype == np.uint64
    for b in range(20):
        for k in range(8):
            entropy = np.random.SeedSequence([*prefix, b, k])
            assert np.array_equal(seeds[b, k], entropy.generate_state(4, np.uint64))
            expected = np.random.default_rng(entropy).bit_generator.state
            assert detection._generator(seeds[b, k]).bit_generator.state == expected


def _per_stream_p(p_true, det, n_batches, prefix):
    """Each batch's seven estimates, one SeedSequence([*prefix, b, k]) at a time."""
    batches = []
    for b in range(n_batches):
        signals = []
        for k in range(7):
            rng = np.random.default_rng(np.random.SeedSequence([*prefix, b, k]))
            bright = rng.binomial(det.shots, p_true[k])
            lam = (
                bright * det.mu_bright
                + (det.shots - bright) * det.mu_dark
                + det.shots * det.mu_bg
            )
            signals.append(int(rng.poisson(lam)))
        rng = np.random.default_rng(np.random.SeedSequence([*prefix, b, 7]))
        ref = int(rng.poisson(det.shots * (det.mu_bright + det.mu_bg)))
        batches.append(tuple(s / ref for s in signals))
    return batches


@pytest.mark.parametrize("prefix", ORACLE_PREFIXES, ids=str)
def test_run_batches_draw_what_per_stream_seeding_draws(prefix):
    det = DetectionParams()
    seed = prefix[0] if len(prefix) == 1 else prefix
    p_true = detection.exact_probabilities(_target(), MEASUREMENT_M1, BORN)
    reports = run_batches(_target(), MEASUREMENT_M1, BORN, det, 30, seed)
    assert [r.p for r in reports] == _per_stream_p(p_true, det, 30, prefix)
    # a single batch is a run of one, with the batch index in its seed
    last = run_protocol_batch(_target(), MEASUREMENT_M1, BORN, det, (*prefix, 29))
    assert last == reports[29]


@pytest.mark.parametrize("prefix", [(0,), (7, 3)], ids=str)
def test_sampler_reads_out_any_true_probabilities(prefix):
    # the paper's probabilities, each moved by a different amount: no rule gives these
    p_true = tuple(p + 1e-3 * (k + 1) for k, p in enumerate(_paper_probabilities()))
    det = DetectionParams()
    seed = prefix[0] if len(prefix) == 1 else prefix
    reports = detection.sample_batches(_target(), p_true, det, 30, seed)
    assert [r.p for r in reports] == _per_stream_p(p_true, det, 30, prefix)
    exact = detection.sample_batches(_target(), p_true, None, 3, seed)
    assert [r.p for r in exact] == [p_true] * 3


def test_stream_set_up_refuses_bad_input():
    state = detection._run_seeds([0], 1)[0, 0]
    with pytest.raises(ValueError):
        detection._HashedSeed(state).generate_state(8, np.uint32)
    with pytest.raises(ValueError, match="non-negative"):
        run_batches(_target(), MEASUREMENT_M1, BORN, DetectionParams(), 2, -1)


def test_estimate_kappa_draws_no_random_numbers(monkeypatch):
    # the default simulate run: master seed 42, 50 batches
    reports = run_batches(_target(), MEASUREMENT_M1, BORN, DetectionParams(), 50, 42)
    first = estimate_kappa(reports)
    np.random.seed(3)
    estimate_kappa(reports)
    after = np.random.random()
    np.random.seed(3)
    assert after == np.random.random()  # the global state was left alone
    np.random.default_rng(3).random(5)
    assert estimate_kappa(reports) == first
    # seed is accepted and ignored
    assert estimate_kappa(reports, seed=42) == first
    assert estimate_kappa(reports, seed=(7, 1 << 40)) == first

    def refuse(*args, **kwargs):
        raise AssertionError("estimate_kappa set up a random generator")

    for name in ("default_rng", "Generator", "SeedSequence", "PCG64"):
        monkeypatch.setattr(np.random, name, refuse)
    assert estimate_kappa(reports, seed=42) == first
    # the Student-t interval at these defaults
    assert first.ci95 == pytest.approx((-0.00233, 0.00489), abs=1e-5)


def test_estimate_kappa_exact_batches():
    reports = run_batches(_target(), MEASUREMENT_M1, BORN, None, 5, 0)
    est = estimate_kappa(reports)
    assert est.mean == pytest.approx(0.0, abs=1e-12)
    assert est.std == 0.0
    assert est.ci95 == (est.mean, est.mean)


def test_estimate_kappa_needs_two_batches():
    reports = run_batches(_target(), MEASUREMENT_M1, BORN, None, 1, 0)
    with pytest.raises(InsufficientBatchesError):
        estimate_kappa(reports)


def test_estimate_kappa_ci_contains_mean():
    det = DetectionParams(shots=20_000)
    reports = run_batches(_target(), MEASUREMENT_M1, BORN, det, 25, 3)
    est = estimate_kappa(reports)
    assert est.ci95[0] <= est.mean <= est.ci95[1]
    assert est.stderr == pytest.approx(est.std / 5.0)
    half = 2.0638985616 * est.stderr  # t(0.975, 24), tabulated
    assert est.ci95 == pytest.approx((est.mean - half, est.mean + half), rel=1e-9)


def _kappa_reports(m, seed=0, loc=0.0):
    """m report stand-ins: estimate_kappa reads only their kappa."""
    draws = np.random.default_rng(seed).normal(loc, size=m)
    return [SimpleNamespace(kappa=float(x)) for x in draws]


@pytest.mark.parametrize(
    "df, expected, tol",
    [
        (1, math.tan(math.pi * (0.975 - 0.5)), 1e-12),  # 12.706, Cauchy
        (2, 0.95 / math.sqrt(2 * 0.975 * 0.025), 1e-12),  # 4.303
        (10, 2.228, 5e-4),
        (49, 2.0096, 5e-5),
        (10**12, 1.95996, 5e-6),  # the normal quantile in the limit
    ],
)
def test_t975_tabulated(df, expected, tol):
    assert detection._t975(df) == pytest.approx(expected, abs=tol)


def _t_cdf(t, df):
    """Exact Student-t CDF for integer df (Abramowitz and Stegun 26.7.3-4)."""
    theta = math.atan(t / math.sqrt(df))
    c2 = math.cos(theta) ** 2
    if df % 2:
        term = math.cos(theta)
        total = term if df > 1 else 0.0
        for j in range(1, (df - 1) // 2):
            term *= c2 * (2 * j) / (2 * j + 1)
            total += term
        inside = 2.0 / math.pi * (theta + math.sin(theta) * total)
    else:
        term = total = 1.0
        for j in range(df // 2 - 1):
            term *= c2 * (2 * j + 1) / (2 * j + 2)
            total += term
        inside = math.sin(theta) * total
    return 0.5 * (1.0 + inside)


def _t975_exact(df):
    """Bisection on the exact CDF, down to rounding."""
    lo, hi = 0.0, 1e3
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _t_cdf(mid, df) < 0.975 else (lo, mid)
    return lo


def _t975_error(df):
    """The relative error _t975 documents at df."""
    return 1e-6 if df <= 10 else 3e-9 if df < 49 else 2e-12


def test_t975_within_its_documented_error():
    # df 1 and 2 are closed forms, df 3 takes the tail series
    for df in range(1, 121):
        bound = _t975_error(df)
        assert detection._t975(df) == pytest.approx(_t975_exact(df), rel=bound), df


def _assert_one_shot_interval(reports, est):
    """est.ci95 is mean -/+ the exact t quantile times stderr."""
    k = np.array([r.kappa for r in reports])
    m = k.size
    half = _t975_exact(m - 1) * k.std(ddof=1) / math.sqrt(m)
    assert est.ci95[0] + est.ci95[1] == pytest.approx(2 * k.mean(), abs=1e-12)
    width = 0.5 * (est.ci95[1] - est.ci95[0])
    assert width == pytest.approx(half, rel=_t975_error(m - 1) + 1e-12)


# The name and case ids are those of the blocked bootstrap the closed form
# replaced: m batches and the seed, now ignored.  In place of the resample
# block, rows counts calls on other kappas made first (None: none), which
# must leave no trace, as the interval is neither cached nor drawn.
@pytest.mark.parametrize("rows", [None, 1, 3])
@pytest.mark.parametrize("seed", [42, (7, 1 << 40)])
@pytest.mark.parametrize("m", [2, 3, 7, 50, 1001])
def test_blocked_bootstrap_draws_the_one_shot_bootstrap(m, seed, rows):
    for i in range(rows or 0):
        other = _kappa_reports(m, seed=i + 1)
        _assert_one_shot_interval(other, estimate_kappa(other, seed=seed))
    reports = _kappa_reports(m)
    _assert_one_shot_interval(reports, estimate_kappa(reports, seed=seed))


def test_t_interval_covers_the_mean_95_percent_of_the_time():
    # 4,000 intervals on 5 draws each: one binomial sd is 0.34%
    hits = 0
    for i in range(4_000):
        est = estimate_kappa(_kappa_reports(5, seed=(11, i), loc=2.5))
        hits += est.ci95[0] <= 2.5 <= est.ci95[1]
    assert abs(hits / 4_000 - 0.95) <= 0.015


def test_estimate_kappa_memory_is_linear_in_batches():
    reports = _kappa_reports(2_000)
    tracemalloc.start()
    try:
        estimate_kappa(reports)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("spec", [MEASUREMENT_M1, MEASUREMENT_M2], ids=["M1", "M2"])
@pytest.mark.parametrize("shots", [200_000, 2_000_000])
def test_observed_kappa_std_matches_the_counting_model(spec, shots):
    det = DetectionParams(shots=shots)
    p_true = detection.exact_probabilities(_target(), spec, BORN)
    predicted = detection.predicted_kappa_std(_target(), p_true, det)
    reports = run_batches(_target(), spec, BORN, det, 200, 5)
    ratio = np.std([r.kappa for r in reports], ddof=1) / predicted
    # 99.9% band of s / sigma at 199 degrees of freedom (Wilson-Hilferty)
    h, z = 2.0 / (9 * 199), 3.2905
    band = ((1 - h - z * math.sqrt(h)) ** 1.5, (1 - h + z * math.sqrt(h)) ** 1.5)
    assert band[0] < ratio < band[1]


def test_single_batch_kappa_sanity_envelope():
    det = DetectionParams()
    for seed in range(100):
        r = run_protocol_batch(_target(), MEASUREMENT_M1, BORN, det, (seed, 0))
        assert abs(r.kappa) < 0.1


def test_kappa_estimator_unbiased_at_large_shots():
    # consistent with zero at high shot count; stderr ~ 3e-4 at M=200
    det = DetectionParams(shots=20_000_000)
    reports = run_batches(_target(), MEASUREMENT_M1, BORN, det, 200, 314)
    est = estimate_kappa(reports)
    assert abs(est.mean) <= 3 * est.stderr
    assert abs(est.mean) < 2e-3


def test_m2_batch_swaps_p3_p4():
    r1 = run_protocol_batch(_target(), MEASUREMENT_M1, BORN, None, 0)
    r2 = run_protocol_batch(_target(), MEASUREMENT_M2, BORN, None, 0)
    assert r2.p[2] == pytest.approx(r1.p[3], abs=1e-12)
    assert r2.p[3] == pytest.approx(r1.p[2], abs=1e-12)
    assert r2.I2 == pytest.approx(r1.I2, abs=1e-12)
    assert abs(r2.kappa) < 1e-12


def test_sensitivity_scan_exact_mode():
    scan = sensitivity_scan(
        _target(), MEASUREMENT_M1, "triple", [0.0, 0.05, 0.1], None, 2, 0
    )
    assert not scan.rows[0].detected
    assert scan.rows[1].detected and scan.rows[2].detected
    assert scan.smallest_detected_eps == 0.05
    ratio = scan.rows[2].kappa_mean / scan.rows[1].kappa_mean
    assert ratio == pytest.approx(2.0, abs=1e-9)


def test_sensitivity_scan_propagates_unphysical_epsilon():
    with pytest.raises(UnphysicalParameterError):
        sensitivity_scan(
            _target(), MEASUREMENT_M1, "triple", [-5.0], None, 2, 0
        )
    with pytest.raises(ValueError):
        sensitivity_scan(_target(), MEASUREMENT_M1, "gauss", [0.1], None, 2, 0)


def test_detection_power_monotone_in_epsilon():
    det = DetectionParams()
    grid = [0.0, 0.1, 0.2, 0.4]
    counts = [0] * len(grid)
    for seed in range(30):
        scan = sensitivity_scan(
            _target(), MEASUREMENT_M1, "triple", grid, det, 12, seed
        )
        for j, row in enumerate(scan.rows):
            counts[j] += row.detected
    assert all(c2 >= c1 for c1, c2 in zip(counts, counts[1:]))
    assert counts[-1] == 30


def test_scaling_check_exact_and_validation():
    rows = scaling_check(_target(), MEASUREMENT_M1, None, [100, 1000], 4, 0)
    assert [r[1] for r in rows] == [0.0, 0.0]
    with pytest.raises(ValueError):
        scaling_check(_target(), MEASUREMENT_M1, None, [1000, 100], 4, 0)


@pytest.mark.parametrize(
    "run",
    [
        lambda det: sensitivity_scan(_target(), MEASUREMENT_M1, "triple", [0.0, 0.01], det, 1, 3),
        lambda det: scaling_check(_target(), MEASUREMENT_M1, det, [20_000, 200_000], 1, 3),
        lambda det: run_batches(_target(), MEASUREMENT_M1, BORN, det, 1, 3),
    ],
    ids=["sensitivity_scan", "scaling_check", "run_batches"],
)
def test_one_simulated_batch_refused_before_any_stream(monkeypatch, run):
    def no_generator(state):
        raise AssertionError("a stream's generator was built")

    monkeypatch.setattr(detection, "_generator", no_generator)
    with pytest.raises(InsufficientBatchesError, match="at least 2 batches"):
        run(DetectionParams())


def test_one_exact_batch_per_rung_has_no_spread():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = scaling_check(_target(), MEASUREMENT_M1, None, [20_000, 200_000], 1, 3)
    assert rows == [(20_000, 0.0), (200_000, 0.0)]


def test_summarize_is_estimate_kappa_or_one_exact_batch():
    reports = run_batches(_target(), MEASUREMENT_M1, BORN, DetectionParams(shots=50_000), 5, 1)
    assert detection.summarize(reports) == estimate_kappa(reports)
    (exact,) = run_batches(_target(), MEASUREMENT_M1, BORN, None, 1, 0)
    k = exact.kappa
    assert detection.summarize([exact]) == KappaEstimate(k, 0.0, 0.0, (k, k))
    with pytest.raises(InsufficientBatchesError):
        detection.summarize([])


def test_scaling_check_noise_shrinks_with_brightness():
    det = DetectionParams(shots=100_000)
    reports_dim = run_batches(_target(), MEASUREMENT_M1, BORN, det, 60, 9)
    bright = replace(det, mu_bright=0.24, mu_bg=0.003)
    reports_bright = run_batches(_target(), MEASUREMENT_M1, BORN, bright, 60, 9)
    std_dim = np.std([r.kappa for r in reports_dim], ddof=1)
    std_bright = np.std([r.kappa for r in reports_bright], ddof=1)
    assert std_bright < std_dim


def test_batch_csv_layout():
    reports = run_batches(_target(), MEASUREMENT_M1, BORN, None, 2, 0)
    text = batch_csv_text(reports)
    lines = text.strip().split("\n")
    assert lines[0] == "batch,p1,p2,p3,p4,p5,p6,p7,I_ab,I_ac,I_bc,I2,I3,kappa"
    assert len(lines) == 3
    assert lines[1].startswith("0,")
    assert batch_csv_text(reports) == text
