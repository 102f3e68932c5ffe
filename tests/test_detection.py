import math
import tracemalloc
import warnings
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sorkin_lab import (
    KAPPA_FLOOR,
    DetectionParams,
    InsufficientBatchesError,
    KappaEstimate,
    MEASUREMENT_M1,
    MEASUREMENT_M2,
    ProbabilityRule,
    QuantumRegimeError,
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


def _table(report):
    """A run's report as one (M, 16) array: p, then each derived column in
    field order."""
    return np.column_stack([report.p] + [getattr(report, f.name) for f in fields(report)[1:]])


def _one_batch_floats(report):
    """p and each derived field of a report of seven probabilities, in field order."""
    return [*report.p] + [getattr(report, f.name) for f in fields(report)[1:]]


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


@pytest.mark.parametrize("det", [None, DetectionParams(shots=50_000)])
def test_batch_report_is_a_function_of_its_probabilities(det):
    # a batch carries nothing beyond what (t, p) determines
    t = _target()
    p_true = detection.exact_probabilities(t, MEASUREMENT_M1, ProbabilityRule("triple", 0.05))
    report = detection.sample_batches(t, p_true, det, 4, 11)
    rows = report.p.tolist()
    assert len({tuple(p) for p in rows}) == (1 if det is None else 4)
    for got, p in zip(_table(report), rows):
        assert _bits(got) == _bits(_one_batch_floats(detection.sorkin_report(t, p)))


def _per_batch_csv(reports):
    """The batch CSV written from one report per batch, as a reference."""
    lines = ["batch,p1,p2,p3,p4,p5,p6,p7,I_ab,I_ac,I_bc,I2,I3,kappa"]
    for b, r in enumerate(reports):
        values = (*r.p, r.I_ab, r.I_ac, r.I_bc, r.I2, r.I3, r.kappa)
        lines.append(",".join([str(b)] + [repr(float(x)) for x in values]))
    return "\n".join(lines) + "\n"


@st.composite
def _near_floor_batch(draw):
    """The paper's Born probabilities under an affine map C*p + d whose
    C puts I2 = C * I2_EXPECTED within a factor of 2 of KAPPA_FLOOR."""
    c = draw(st.floats(min_value=0.5, max_value=2.0)) * KAPPA_FLOOR / I2_EXPECTED
    d = draw(st.floats(min_value=0.0, max_value=1.0 - c))
    return [float(c * p + d) for p in _paper_probabilities()]


# any probability, plus the ends of [0, 1] and the least subnormal
_P = st.one_of(st.floats(min_value=0.0, max_value=1.0), st.sampled_from([0.0, 1.0, 5e-324]))
_BATCH = st.one_of(st.lists(_P, min_size=7, max_size=7), _near_floor_batch())
_TARGETS = st.sampled_from([PAPER_ABC, (0.6, -0.48, 0.64), (0.8, 0.0, 0.6)])


@given(_TARGETS, st.lists(_BATCH, min_size=1, max_size=6))
def test_each_row_of_a_run_report_is_its_batch_report(abc, batches):
    # row b of the report of a stack is sorkin_report of batch b's seven
    # Python floats, bit for bit, and the stack is refused, naming the batch,
    # exactly where the first batch alone is refused
    t = TargetAmplitudes(*abc)
    reports = []
    for b, p in enumerate(batches):
        try:
            reports.append(detection.sorkin_report(t, p))
        except QuantumRegimeError as exc:
            with pytest.raises(QuantumRegimeError) as refused:
                detection.sorkin_report(t, np.array(batches))
            assert str(refused.value) == f"batch {b}: {exc}"
            return
    report = detection.sorkin_report(t, np.array(batches))
    for row, one in zip(_table(report), reports):
        assert all(type(x) is float for x in _one_batch_floats(one))
        assert _bits(row) == _bits(_one_batch_floats(one))
    assert batch_csv_text(report) == _per_batch_csv(reports)


def test_floor_refusal_names_the_first_batch_at_the_floor():
    # batch 2 is the paper's probabilities under C*p + d with C = 1e-7, so
    # its I2 is about 6e-8; batch 4 reads 0.5 everywhere, an I2 of rounding
    stack = np.tile(_paper_probabilities(), (6, 1))
    stack[2] = 1e-7 * stack[2] + 0.5
    stack[4] = 0.5
    with pytest.raises(QuantumRegimeError, match="^batch 2: second-order interference") as refused:
        detection.sorkin_report(_target(), stack)
    with pytest.raises(QuantumRegimeError) as alone:
        detection.sorkin_report(_target(), stack[2].tolist())
    assert str(refused.value) == f"batch 2: {alone.value}"


@pytest.mark.parametrize("det", [None, DetectionParams(shots=50_000)])
def test_run_batches_follow_the_batch_stream_layout(det):
    # SeedSequence zero-pads [s] to [s, 0], so a run at seed s draws what
    # row 0 of a scan at seed s draws
    t = _target()
    report = run_batches(t, MEASUREMENT_M1, BORN, det, 6, 5)
    other = run_batches(t, MEASUREMENT_M1, BORN, det, 6, (5, 0))
    assert _bits(_table(report)) == _bits(_table(other))
    row = sensitivity_scan(t, MEASUREMENT_M1, "triple", [0.0], det, 6, 5).rows[0]
    est = estimate_kappa(report)
    assert (row.kappa_mean, row.kappa_std) == (est.mean, est.std)
    assert row.detected == est.excludes_zero(3.0)


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
        k = run_batches(_target(), MEASUREMENT_M1, rule, det, 4, (7, j)).kappa
        assert row.kappa_mean == float(np.mean(k))
        assert row.kappa_std == float(np.std(k, ddof=1))
    ladder = [20_000, 50_000]
    rows = scaling_check(_target(), MEASUREMENT_M1, det, ladder, 4, 7)
    for j, (n, std) in enumerate(rows):
        det_n = replace(det, shots=n)
        k = run_batches(_target(), MEASUREMENT_M1, BORN, det_n, 4, (7, j)).kappa
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


def _one_stream_p(p_true, det, n_batches, prefix):
    """Each batch's seven estimates, replayed from the run's one stream
    default_rng(SeedSequence([*prefix])) in the documented order: every
    bright count, every signal, then every batch's reference."""
    rng = np.random.default_rng(np.random.SeedSequence([*prefix]))
    bright = rng.binomial(det.shots, np.tile(p_true, (n_batches, 1)))
    lam = bright * det.mu_bright + (det.shots - bright) * det.mu_dark + det.shots * det.mu_bg
    signals = rng.poisson(lam)
    refs = rng.poisson(det.shots * (det.mu_bright + det.mu_bg), size=n_batches)
    return [tuple(int(s) / int(ref) for s in row) for row, ref in zip(signals, refs)]


@pytest.mark.parametrize("prefix", ORACLE_PREFIXES, ids=str)
def test_run_batches_draw_what_per_stream_seeding_draws(prefix):
    det = DetectionParams()
    seed = prefix[0] if len(prefix) == 1 else prefix
    p_true = detection.exact_probabilities(_target(), MEASUREMENT_M1, BORN)
    report = run_batches(_target(), MEASUREMENT_M1, BORN, det, 30, seed)
    assert [tuple(p) for p in report.p.tolist()] == _one_stream_p(p_true, det, 30, prefix)
    # a single batch is a run of one on its own stream
    one = run_protocol_batch(_target(), MEASUREMENT_M1, BORN, det, seed)
    assert [one.p] == _one_stream_p(p_true, det, 1, prefix)


@pytest.mark.parametrize("prefix", [(0,), (7, 3)], ids=str)
def test_sampler_reads_out_any_true_probabilities(prefix):
    # the paper's probabilities, each moved by a different amount: no rule gives these
    p_true = tuple(p + 1e-3 * (k + 1) for k, p in enumerate(_paper_probabilities()))
    det = DetectionParams()
    seed = prefix[0] if len(prefix) == 1 else prefix
    report = detection.sample_batches(_target(), p_true, det, 30, seed)
    assert [tuple(p) for p in report.p.tolist()] == _one_stream_p(p_true, det, 30, prefix)
    exact = detection.sample_batches(_target(), p_true, None, 3, seed)
    assert [tuple(p) for p in exact.p.tolist()] == [p_true] * 3


@pytest.mark.parametrize("n_batches", [2, 30, 1000])
def test_a_simulated_run_constructs_one_seed_sequence(monkeypatch, n_batches):
    made = []
    seed_sequence = np.random.SeedSequence

    def counted(entropy, *args, **kwargs):
        made.append(entropy)
        return seed_sequence(entropy, *args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counted)
    det = DetectionParams(shots=50_000)
    run_batches(_target(), MEASUREMENT_M1, BORN, det, n_batches, (7, 3))
    assert made == [[7, 3]]
    sensitivity_scan(_target(), MEASUREMENT_M1, "triple", [0.0, 0.1], det, n_batches, 7)
    assert made == [[7, 3], [7, 0], [7, 1]]
    run_protocol_batch(_target(), MEASUREMENT_M1, BORN, det, 9)
    assert made[3:] == [[9]]


def test_stream_set_up_refuses_bad_input():
    p_true = _paper_probabilities()
    for run in (
        lambda: run_batches(_target(), MEASUREMENT_M1, BORN, DetectionParams(), 2, -1),
        lambda: detection.sample_batches(_target(), p_true, DetectionParams(), 2, (7, -1)),
        lambda: run_protocol_batch(_target(), MEASUREMENT_M1, BORN, DetectionParams(), -1),
    ):
        with pytest.raises(ValueError, match="non-negative"):
            run()


def test_estimate_kappa_draws_no_random_numbers(monkeypatch):
    # the default simulate run: master seed 42, 50 batches
    report = run_batches(_target(), MEASUREMENT_M1, BORN, DetectionParams(), 50, 42)
    first = estimate_kappa(report)
    np.random.seed(3)
    estimate_kappa(report)
    after = np.random.random()
    np.random.seed(3)
    assert after == np.random.random()  # the global state was left alone
    np.random.default_rng(3).random(5)
    assert estimate_kappa(report) == first
    # seed is accepted and ignored
    assert estimate_kappa(report, seed=42) == first
    assert estimate_kappa(report, seed=(7, 1 << 40)) == first

    def refuse(*args, **kwargs):
        raise AssertionError("estimate_kappa set up a random generator")

    for name in ("default_rng", "Generator", "SeedSequence", "PCG64"):
        monkeypatch.setattr(np.random, name, refuse)
    assert estimate_kappa(report, seed=42) == first
    # the Student-t interval of these 50 batches
    k = report.kappa
    half = detection._t975(49) * k.std(ddof=1) / math.sqrt(50)
    assert first.ci95 == pytest.approx((k.mean() - half, k.mean() + half), rel=1e-12)


def test_estimate_kappa_exact_batches():
    report = run_batches(_target(), MEASUREMENT_M1, BORN, None, 5, 0)
    est = estimate_kappa(report)
    assert est.mean == pytest.approx(0.0, abs=1e-12)
    assert est.std == 0.0
    assert est.ci95 == (est.mean, est.mean)


def test_identical_exact_batches_have_no_spread():
    # exact-triple's sensitivity row at exponent eps 0.07: the float mean of
    # three equal kappas need not equal them
    report = run_batches(_target(), MEASUREMENT_M1, ProbabilityRule("exponent", 0.07), None, 3, 1)
    k = float(report.kappa[0])
    assert k != 0.0
    assert estimate_kappa(report) == KappaEstimate(k, 0.0, 0.0, (k, k))


def test_estimate_kappa_refuses_an_empty_run():
    report = run_batches(_target(), MEASUREMENT_M1, BORN, None, 0, 0)
    with pytest.raises(InsufficientBatchesError, match="at least 1 batch, got 0"):
        estimate_kappa(report)


def test_estimate_kappa_of_one_exact_batch():
    exact = run_batches(_target(), MEASUREMENT_M1, BORN, None, 1, 0)
    p_true = detection.exact_probabilities(_target(), MEASUREMENT_M1, BORN)
    k = detection.sorkin_report(_target(), p_true).kappa
    est = estimate_kappa(exact)
    assert est == KappaEstimate(k, 0.0, 0.0, (k, k))
    assert type(est.mean) is float  # the summary JSON writes it


@pytest.mark.xfail(
    strict=True,
    raises=(QuantumRegimeError, AssertionError),
    reason="the mean of batch kappas is biased at low shot counts, and a batch "
    "whose pairwise terms cancel is refused; ROADMAP direction 3's pooled "
    "kappa estimate removes both",
)
def test_born_null_holds_at_the_fewest_shots():
    # simulate's verdict at the README's least shot count, 412, on the
    # default config with 20,000 batches, seeds 1-8
    t, det = _target(), DetectionParams(shots=412)
    p_true = detection.exact_probabilities(t, MEASUREMENT_M1, BORN)
    verdicts = {}
    for seed in range(1, 9):
        try:
            est = estimate_kappa(detection.sample_batches(t, p_true, det, 20_000, seed))
        except QuantumRegimeError:
            verdicts[seed] = "refused"
        else:
            verdicts[seed] = "rejected" if est.excludes_zero(5.0) else "held"
    assert verdicts == dict.fromkeys(range(1, 9), "held")


def test_estimate_kappa_ci_contains_mean():
    det = DetectionParams(shots=20_000)
    report = run_batches(_target(), MEASUREMENT_M1, BORN, det, 25, 3)
    est = estimate_kappa(report)
    assert est.ci95[0] <= est.mean <= est.ci95[1]
    assert est.stderr == pytest.approx(est.std / 5.0)
    half = 2.0638985616 * est.stderr  # t(0.975, 24), tabulated
    assert est.ci95 == pytest.approx((est.mean - half, est.mean + half), rel=1e-9)


def _kappa_run(m, seed=0, loc=0.0):
    """A stand-in for the report of an m-batch run: estimate_kappa reads
    only its kappa column."""
    return SimpleNamespace(kappa=np.random.default_rng(seed).normal(loc, size=m))


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


def _assert_one_shot_interval(report, est):
    """est.ci95 is mean -/+ the exact t quantile times stderr."""
    k = report.kappa
    m = k.size
    half = _t975_exact(m - 1) * k.std(ddof=1) / math.sqrt(m)
    assert est.ci95[0] + est.ci95[1] == pytest.approx(2 * k.mean(), abs=1e-12)
    width = 0.5 * (est.ci95[1] - est.ci95[0])
    assert width == pytest.approx(half, rel=_t975_error(m - 1) + 1e-12)


# The closed-form interval keeps no state across calls: rows counts calls
# on other kappas made first (None: none), which must leave no trace, and
# seed is ignored.  The name and case ids are those of the blocked
# bootstrap the closed form replaced.
@pytest.mark.parametrize("rows", [None, 1, 3])
@pytest.mark.parametrize("seed", [42, (7, 1 << 40)])
@pytest.mark.parametrize("m", [2, 3, 7, 50, 1001])
def test_blocked_bootstrap_draws_the_one_shot_bootstrap(m, seed, rows):
    for i in range(rows or 0):
        other = _kappa_run(m, seed=i + 1)
        _assert_one_shot_interval(other, estimate_kappa(other, seed=seed))
    report = _kappa_run(m)
    _assert_one_shot_interval(report, estimate_kappa(report, seed=seed))


def test_t_interval_covers_the_mean_95_percent_of_the_time():
    # 4,000 intervals on 5 draws each: one binomial sd is 0.34%
    hits = 0
    for i in range(4_000):
        est = estimate_kappa(_kappa_run(5, seed=(11, i), loc=2.5))
        hits += est.ci95[0] <= 2.5 <= est.ci95[1]
    assert abs(hits / 4_000 - 0.95) <= 0.015


def test_estimate_kappa_memory_is_linear_in_batches():
    report = _kappa_run(2_000)
    tracemalloc.start()
    try:
        estimate_kappa(report)
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
    report = run_batches(_target(), spec, BORN, det, 200, 5)
    ratio = np.std(report.kappa, ddof=1) / predicted
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
    report = run_batches(_target(), MEASUREMENT_M1, BORN, det, 200, 314)
    est = estimate_kappa(report)
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
    def no_stream(*args, **kwargs):
        raise AssertionError("a stream was set up")

    monkeypatch.setattr(np.random, "default_rng", no_stream)
    with pytest.raises(InsufficientBatchesError, match="at least 2 batches"):
        run(DetectionParams())


def test_one_exact_batch_per_rung_has_no_spread():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = scaling_check(_target(), MEASUREMENT_M1, None, [20_000, 200_000], 1, 3)
    assert rows == [(20_000, 0.0), (200_000, 0.0)]


def test_scaling_check_noise_shrinks_with_brightness():
    det = DetectionParams(shots=100_000)
    dim = run_batches(_target(), MEASUREMENT_M1, BORN, det, 60, 9)
    bright = replace(det, mu_bright=0.24, mu_bg=0.003)
    std_dim = np.std(dim.kappa, ddof=1)
    std_bright = np.std(run_batches(_target(), MEASUREMENT_M1, BORN, bright, 60, 9).kappa, ddof=1)
    assert std_bright < std_dim


def test_batch_csv_layout():
    report = run_batches(_target(), MEASUREMENT_M1, BORN, None, 2, 0)
    text = batch_csv_text(report)
    lines = text.strip().split("\n")
    assert lines[0] == "batch,p1,p2,p3,p4,p5,p6,p7,I_ab,I_ac,I_bc,I2,I3,kappa"
    assert len(lines) == 3
    assert lines[1].startswith("0,")
    assert batch_csv_text(report) == text
