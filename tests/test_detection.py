import math
import re
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
    SensitivityRow,
    SorkinReport,
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
from conftest import (
    I2_EXPECTED,
    M1_VECTOR,
    PAPER_ABC,
    grid_rows_alone,
    oracle_born_probabilities,
)

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


# the fields (t, p) determine, in field order: all but p and the counts
_DERIVED = [f.name for f in fields(SorkinReport) if f.name not in ("p", "counts")]


def _table(report):
    """A run's report as one (M, 16) array: p, then each derived column in
    field order."""
    return np.column_stack([report.p] + [getattr(report, name) for name in _DERIVED])


def _one_batch_floats(report):
    """p and each derived field of a report of seven probabilities, in field order."""
    return [*report.p] + [getattr(report, name) for name in _DERIVED]


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
    # probabilities alone carry no counts, so they have no batch CSV
    assert report.counts is None
    with pytest.raises(ValueError, match="no counts"):
        batch_csv_text(report)


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
    if det is not None:
        assert batch_csv_text(report) == batch_csv_text(other)
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


_SIM = DetectionParams(shots=50_000)


def _scan_runs(grid, det):
    """The (p_true, det) of each row of a triple scan over grid at M1."""
    rules = [BORN if eps == 0 else ProbabilityRule("triple", eps) for eps in grid]
    return [(detection.exact_probabilities(_target(), MEASUREMENT_M1, r), det) for r in rules]


def _estimate_floats(est):
    return [est.mean, est.std, est.stderr, *est.ci95]


def _block_rows(monkeypatch, rows, m):
    """Bound a grid's blocks to `rows` rows of m batches (None: the default bound)."""
    if rows is not None:
        monkeypatch.setattr(detection, "_BLOCK_BATCHES", rows * m)


# M = 1 only in exact mode, where one batch is allowed
_MODES = [(None, m) for m in (1, 2, 3, 50, 129)] + [(_SIM, m) for m in (2, 3, 50, 129)]
_MODE_IDS = [f"{'exact' if det is None else 'simulated'}-M{m}" for det, m in _MODES]


@pytest.mark.parametrize(
    "block_rows", [None, 1, 2], ids=["one-block", "row-blocks", "pair-blocks"]
)
@pytest.mark.parametrize("det, m", _MODES, ids=_MODE_IDS)
@pytest.mark.parametrize(
    "grid", [[0.05], [0.0, 0.1, 0.1, -0.05, 0.02]], ids=["one-row", "repeated-eps"]
)
def test_scan_rows_equal_each_row_run_alone(monkeypatch, grid, det, m, block_rows):
    # a scan's rows, drawn one stream each and summarized as stacked blocks,
    # are bit for bit each row's run summarized alone
    _block_rows(monkeypatch, block_rows, m)
    scan = sensitivity_scan(_target(), MEASUREMENT_M1, "triple", grid, det, m, (7, 2))
    alone = grid_rows_alone(_target(), _scan_runs(grid, det), m, (7, 2))
    assert len(scan.rows) == len(alone) == len(grid)
    for eps, row, (k, est) in zip(grid, scan.rows, alone):
        one_run = estimate_kappa(SimpleNamespace(kappa=k))
        assert one_run == est
        assert _bits(_estimate_floats(one_run)) == _bits(_estimate_floats(est))
        want = SensitivityRow(eps, est.mean, est.std, est.excludes_zero(3.0))
        assert row == want
        assert _bits([row.epsilon, row.kappa_mean, row.kappa_std]) == _bits(
            [want.epsilon, want.kappa_mean, want.kappa_std]
        )


@pytest.mark.parametrize(
    "block_rows", [None, 1, 3], ids=["one-block", "row-blocks", "triple-blocks"]
)
@pytest.mark.parametrize("det, m", _MODES, ids=_MODE_IDS)
def test_ladder_rungs_equal_each_rung_run_alone(monkeypatch, det, m, block_rows):
    _block_rows(monkeypatch, block_rows, m)
    ladder = [20_000, 50_000, 50_000, 200_000]
    rungs = scaling_check(_target(), MEASUREMENT_M1, det, ladder, m, 11)
    p_true = detection.exact_probabilities(_target(), MEASUREMENT_M1, BORN)
    runs = [(p_true, None if det is None else replace(det, shots=n)) for n in ladder]
    want = [(n, est.std) for n, (_, est) in zip(ladder, grid_rows_alone(_target(), runs, m, 11))]
    assert rungs == want
    assert _bits([std for _, std in rungs]) == _bits([std for _, std in want])


@pytest.mark.parametrize(
    "block_rows", [None, 1, 2], ids=["one-block", "row-blocks", "pair-blocks"]
)
@pytest.mark.parametrize("m", [2, 3, 50, 129])
def test_an_exact_row_with_no_spread_beside_rows_with_spread(monkeypatch, m, block_rows):
    # row 1 reads out its exact probabilities: its M equal kappas give no
    # spread, whatever the simulated rows around it in its block give
    _block_rows(monkeypatch, block_rows, m)
    runs = _scan_runs([0.0, 0.07, 0.1, 0.0], _SIM)
    runs[1] = (runs[1][0], None)
    got = list(detection._grid_summaries(_target(), runs, m, 5))
    want = [est for _, est in grid_rows_alone(_target(), runs, m, 5)]
    assert got == want
    assert _bits([_estimate_floats(e) for e in got]) == _bits([_estimate_floats(e) for e in want])
    assert got[1].std == 0.0 and got[0].std > 0.0 and got[2].std > 0.0


def _near_floor_runs():
    """Row 0 reads out the paper's probabilities; rows 1 and 2 read out
    0.5 + 1e-5 p at 1e13 shots, whose I2 of about 2e-6 sits near KAPPA_FLOOR
    with a spread of about 1e-6, so a few of their 8 batches reach it."""
    p = detection.exact_probabilities(_target(), MEASUREMENT_M1, BORN)
    near, bright = [0.5 + 1e-5 * x for x in p], DetectionParams(shots=10**13)
    return [(p, DetectionParams()), (near, bright), (near, bright)]


@pytest.mark.parametrize("block_rows", [None, 1], ids=["one-block", "row-blocks"])
@pytest.mark.parametrize("seed, floor_rows", [(1, [1]), (2, [1, 2])])
def test_a_grid_names_the_floor_batch_within_its_row(monkeypatch, seed, floor_rows, block_rows):
    # the grid is refused as its lowest row at the floor is refused alone:
    # "batch b: ...", b counted within that row
    m = 8
    _block_rows(monkeypatch, block_rows, m)
    runs = _near_floor_runs()
    alone = {}
    for j, (p_true, det) in enumerate(runs):
        try:
            detection.sample_batches(_target(), p_true, det, m, (seed, j))
        except QuantumRegimeError as exc:
            alone[j] = str(exc)
    assert sorted(alone) == floor_rows
    with pytest.raises(QuantumRegimeError) as refused:
        list(detection._grid_summaries(_target(), runs, m, seed))
    message = str(refused.value)
    assert message == alone[floor_rows[0]]
    assert re.match(r"^batch [1-7]: second-order interference", message)
    assert len(set(alone.values())) == len(alone)  # each row's refusal differs


@pytest.mark.parametrize(
    "block_rows, error", [(None, UnphysicalParameterError), (1, QuantumRegimeError)]
)
def test_a_later_rows_unphysical_p_fires_before_an_earlier_rows_floor(
    monkeypatch, block_rows, error
):
    # a block draws all its rows before it reports any: row 1's p outside
    # [0, 1] is refused before row 0's kappa floor, unless row 0 is reported
    # first in a block of its own
    m = 2
    _block_rows(monkeypatch, block_rows, m)
    flat = [0.5] * 7  # I2 = 0: exact row 0 is at the floor
    runs = [(flat, None), ([1.5] + [0.5] * 6, DetectionParams())]
    with pytest.raises(error):
        list(detection._grid_summaries(_target(), runs, m, 3))


def test_a_grid_of_no_batches_is_refused():
    for det, match in [(None, "at least 1 batch, got 0"), (_SIM, "at least 2 batches")]:
        with pytest.raises(InsufficientBatchesError, match=match):
            sensitivity_scan(_target(), MEASUREMENT_M1, "triple", [0.0, 0.1], det, 0, 3)
        with pytest.raises(InsufficientBatchesError, match=match):
            scaling_check(_target(), MEASUREMENT_M1, det, [20_000, 200_000], 0, 3)


def test_a_grid_peaks_at_one_block(monkeypatch):
    # six rows of one block each peak as one row does
    m = 1000
    monkeypatch.setattr(detection, "_BLOCK_BATCHES", 1024)

    def peak(grid):
        tracemalloc.start()
        try:
            sensitivity_scan(_target(), MEASUREMENT_M1, "triple", grid, _SIM, m, 3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak([0.0])  # the first scan also allocates one-off objects
    one = peak([0.0])
    assert peak([0.0, 0.02, 0.04, 0.06, 0.08, 0.1]) <= 1.5 * one


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
    # a header, then one line of integers a batch: its index, seven signal
    # counts and one reference count, with a trailing newline
    report = run_batches(_target(), MEASUREMENT_M1, BORN, DetectionParams(), 2, 0)
    text = batch_csv_text(report)
    lines = text.split("\n")
    assert lines[0] == "batch,s1,s2,s3,s4,s5,s6,s7,ref"
    assert len(lines) == 4 and lines[-1] == ""
    for b, line in enumerate(lines[1:3]):
        assert re.fullmatch(r"(0|[1-9][0-9]*)(,(0|[1-9][0-9]*)){8}", line)
        assert line.startswith(f"{b},")
    assert batch_csv_text(report) == text
    exact = run_batches(_target(), MEASUREMENT_M1, BORN, None, 2, 0)
    assert exact.counts is None
    with pytest.raises(ValueError, match="^an exact run draws no counts"):
        batch_csv_text(exact)


# the edge rates: the fewest shots the defaults allow, no background, and
# no background at full contrast, whose p2 = 0 reads zero signal photons
_COUNT_RATES = [
    DetectionParams(),
    DetectionParams(shots=412),
    DetectionParams(mu_bg=0.0),
    DetectionParams(mu_bg=0.0, contrast=1.0),
]


@pytest.mark.parametrize("m", [2, 1000])
@pytest.mark.parametrize(
    "det", _COUNT_RATES, ids=["defaults", "shots-412", "mu_bg-0", "mu_bg-0-contrast-1"]
)
def test_counts_rebuild_the_run_bit_for_bit(det, m):
    # a run's counts are its record: signals / ref[:, None] is its p, Python
    # int / int on the CSV's integers is the same p, and sorkin_report of
    # that p gives the run's kappa, each bit for bit
    t = _target()
    p_true = detection.exact_probabilities(t, MEASUREMENT_M1, BORN)
    for seed in np.random.default_rng(26).integers(2**63, size=3).tolist():
        report = detection.sample_batches(t, p_true, det, m, seed)
        signals, ref = report.counts
        assert (signals.dtype, signals.shape) == (np.int64, (m, 7))
        assert (ref.dtype, ref.shape) == (np.int64, (m,))
        assert _bits(signals / ref[:, None]) == _bits(report.p)
        lines = batch_csv_text(report).split("\n")
        assert lines[0] == "batch,s1,s2,s3,s4,s5,s6,s7,ref" and lines[-1] == ""
        rows = [[int(x) for x in line.split(",")] for line in lines[1:-1]]
        assert [row[0] for row in rows] == list(range(m))
        p = [[s / row[8] for s in row[1:8]] for row in rows]
        assert _bits(p) == _bits(report.p)
        assert _bits(detection.sorkin_report(t, np.array(p)).kappa) == _bits(report.kappa)
