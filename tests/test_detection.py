import math
import re
import statistics
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from sorkin_lab import (
    KAPPA_FLOOR,
    DetectionParams,
    InsufficientBatchesError,
    KappaEstimate,
    MEASUREMENT_M1,
    MEASUREMENT_M2,
    MeasurementSpec,
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
from sorkin_lab.detection import Readout, batch_csv_text
from conftest import (
    I2_EXPECTED,
    M1_VECTOR,
    PAPER_ABC,
    chi_square_statistic,
    oracle_born_probabilities,
    oracle_second_order,
    oracle_third_order,
    per_shot_count_pmf,
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
    # shots is an integer: a float or a string is refused, not truncated
    for bad in (412.9, "500", 500.0):
        with pytest.raises(TypeError):
            DetectionParams(shots=bad)
    det = DetectionParams(shots=np.int64(500))
    assert det.shots == 500 and type(det.shots) is int


def test_detection_params_need_an_expected_reference():
    # one Poisson reference draw per batch; a near-zero mean must be refused
    with pytest.raises(ValueError, match="reference photons"):
        DetectionParams(mu_bg=0.0, mu_bright=1e-9, shots=1)
    with pytest.raises(ValueError, match="shots >= 412"):
        DetectionParams(shots=411)
    assert DetectionParams(shots=412).shots == 412
    # a subnormal rate needs more shots than any float counts, and a shot
    # count past float range is refused before it meets a float
    with pytest.raises(ValueError, match="shots >= inf$"):
        DetectionParams(mu_bright=5e-324, mu_bg=0.0)
    with pytest.raises(ValueError, match="is too many"):
        DetectionParams(shots=10**400)


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


# the floats (t, p) determine, in field order: all but p
_DERIVED = [f.name for f in fields(SorkinReport) if f.name != "p"]


def _floats(report):
    """p and each derived field of a report, in field order."""
    return [*report.p] + [getattr(report, name) for name in _DERIVED]


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def _estimates(run):
    """A simulated run's (M, 7) batch estimates, divided from its counts."""
    return run.signals / run.ref[:, None]


def _mean_report(run):
    """sorkin_report of a simulated run's mean estimates, batch after batch."""
    return detection.sorkin_report(run.t, _estimates(run).mean(axis=0).tolist())


def test_batch_report_is_a_function_of_its_probabilities():
    # an exact run's report carries nothing beyond what (t, p) determines:
    # the float report of its seven probabilities
    t = _target()
    p_true = detection.exact_probabilities(t, MEASUREMENT_M1, ProbabilityRule("triple", 0.05))
    report = detection.sample_batches(t, p_true, None, 4, 11)
    assert all(type(x) is float for x in _floats(report))
    assert _bits(_floats(report)) == _bits(_floats(detection.sorkin_report(t, p_true)))


def test_a_simulated_run_is_its_counts():
    # a simulated run is its record and nothing more: the target and the
    # counts it drew, no derived float
    t = _target()
    p_true = detection.exact_probabilities(t, MEASUREMENT_M1, ProbabilityRule("triple", 0.05))
    run = detection.sample_batches(t, p_true, DetectionParams(shots=50_000), 4, 11)
    assert type(run) is Readout and run._fields == ("t", "signals", "ref")
    assert run.t is t
    assert len({tuple(row) for row in _estimates(run).tolist()}) == 4


def _oracle_summary(run):
    """(kappa, std) of a simulated run, written another way: Python floats
    batch by batch and the conftest oracles.  The mean estimates give kappa
    = I3 / I2, and batch m's kappa moves to first order by y_m = (I3(x_m) -
    kappa sum sign(I_xy) I_xy(x_m)) / I2, whose sample std is std."""
    a, b, c = run.t.a, run.t.b, run.t.c
    rows = [[s / r for s in row] for row, r in zip(run.signals.tolist(), run.ref.tolist())]
    mean = [math.fsum(col) / len(rows) for col in zip(*rows)]
    terms = oracle_second_order(mean, a, b, c)
    i2 = sum(abs(x) for x in terms)
    k = oracle_third_order(mean, a, b, c) / i2
    signs = [math.copysign(1.0, x) if x else 0.0 for x in terms]

    def y(x):
        pair = sum(s * v for s, v in zip(signs, oracle_second_order(x, a, b, c)))
        return (oracle_third_order(x, a, b, c) - k * pair) / i2

    return k, statistics.stdev(y(x) for x in rows)


# theta2 = 2 pi, where two of the three pairwise terms vanish
_THETA2_2PI = MeasurementSpec(math.pi / 2, 2 * math.pi)

_ORACLE_RUNS = [
    (MEASUREMENT_M1, BORN, DetectionParams()),
    (MEASUREMENT_M1, BORN, DetectionParams(shots=412)),
    (MEASUREMENT_M2, BORN, DetectionParams(shots=50_000)),
    (MEASUREMENT_M1, ProbabilityRule("triple", 0.05), DetectionParams()),
    (_THETA2_2PI, BORN, DetectionParams(shots=412)),
]


@pytest.mark.parametrize("m", [2, 3, 50, 1000])
@pytest.mark.parametrize(
    "spec, rule, det", _ORACLE_RUNS, ids=["defaults", "shots-412", "M2", "triple", "theta2-2pi"]
)
def test_pooled_summary_matches_a_per_batch_oracle(spec, rule, det, m):
    # the ratio of means and the delta-method std, against Python floats
    # batch by batch; the interval is mean -/+ t(0.975, M - 1) std / sqrt(M),
    # and the mean is the kappa of the mean estimates' report bit for bit
    t = _target()
    report = run_batches(t, spec, rule, det, m, (3, m))
    est = estimate_kappa(report)
    k, std = _oracle_summary(report)
    # the package adds the batches in order and the oracle exactly: at M =
    # 1,000 the mean estimates differ by up to M * 2**-53, so kappa by 1e-13
    assert est.mean == pytest.approx(k, rel=1e-12, abs=1e-13)
    assert est.std == pytest.approx(std, rel=1e-12)
    assert est.stderr == est.std / math.sqrt(m)
    half = _t975(m - 1) * est.stderr
    assert est.ci95 == (est.mean - half, est.mean + half)
    assert _bits([_mean_report(report).kappa]) == _bits([est.mean])


def test_a_run_is_refused_at_the_floor_of_its_mean_alone():
    # no batch is refused: at theta2 = 2 pi and 412 shots, batch 42 of this
    # run (row 7 of sensitivity --seed 122) reads three pairwise terms that
    # cancel, yet the run's mean estimates have an I2 well above the floor
    t, det = _target(), DetectionParams(shots=412)
    p_true = detection.exact_probabilities(t, _THETA2_2PI, ProbabilityRule("triple", 0.07))
    run = detection.sample_batches(t, p_true, det, 50, (122, 7))
    with pytest.raises(QuantumRegimeError, match="^second-order interference 0.0 is at or below"):
        detection.sorkin_report(t, _estimates(run)[42].tolist())
    mean = _mean_report(run)
    assert mean.I2 > 100 * KAPPA_FLOOR
    assert estimate_kappa(run).mean == mean.kappa
    # a run is refused when the I2 of its mean estimates is at the floor, as
    # sorkin_report refuses those seven floats: here every p is 0.5, and at
    # 10**15 shots the mean's terms cancel to far below the floor.  Its
    # counts are drawn; its summary refuses them, with the message those
    # seven floats give.
    flat = detection.sample_batches(t, [0.5] * 7, DetectionParams(shots=10**15), 4, 1)
    floor = "^second-order interference .* at or below"
    with pytest.raises(QuantumRegimeError, match=floor) as refused:
        estimate_kappa(flat)
    with pytest.raises(QuantumRegimeError) as alone:
        _mean_report(flat)
    assert str(refused.value) == str(alone.value)


def test_a_run_is_summarized_on_the_counts_it_holds():
    # the summary reads the counts alone: a run whose counts are swapped
    # for another run's is summarized as that run, and one whose counts are
    # swapped for flat ones is refused at the floor of their mean
    t = _target()
    a = run_batches(t, MEASUREMENT_M1, BORN, DetectionParams(), 50, 1)
    b = run_batches(t, MEASUREMENT_M1, BORN, DetectionParams(shots=20_000), 50, 2)
    swapped = a._replace(signals=b.signals, ref=b.ref)
    assert _bits(_estimate_floats(estimate_kappa(swapped))) == _bits(
        _estimate_floats(estimate_kappa(b))
    )
    assert estimate_kappa(swapped) != estimate_kappa(a)
    flat = np.full_like(a.signals, 10**6)
    with pytest.raises(QuantumRegimeError, match="^second-order interference 0.0 is at or below"):
        estimate_kappa(a._replace(signals=flat))


@pytest.mark.parametrize("det", [None, DetectionParams(shots=50_000)])
def test_run_batches_follow_the_batch_stream_layout(det):
    # SeedSequence zero-pads [s] to [s, 0], so a run at seed s draws what
    # row 0 of a scan at seed s draws
    t = _target()
    report = run_batches(t, MEASUREMENT_M1, BORN, det, 6, 5)
    other = run_batches(t, MEASUREMENT_M1, BORN, det, 6, (5, 0))
    if det is None:
        assert _bits(_floats(report)) == _bits(_floats(other))
    else:
        assert batch_csv_text(report) == batch_csv_text(other)
    row = sensitivity_scan(t, MEASUREMENT_M1, "triple", [0.0], det, 6, 5).rows[0]
    est = estimate_kappa(report)
    assert (row.kappa_mean, row.kappa_std) == (est.mean, est.std)
    assert row.detected == est.excludes_zero(3.0)


@pytest.mark.parametrize("grid", [[0.1, 0.0, -0.05], [0.05, 0.1]])
def test_scan_predicts_its_detectable_eps(grid):
    # q sigma / (sqrt(M) |slope|) at the smallest nonzero strength, whether or
    # not the grid holds the Born point, q the flag's t threshold at 3 sigma
    t, det, m = _target(), DetectionParams(shots=50_000), 4
    eps = min((e for e in grid if e), key=abs)
    p = detection.exact_probabilities(t, MEASUREMENT_M1, ProbabilityRule("triple", eps))
    slope = detection.sorkin_report(t, p).kappa / eps
    born = detection.exact_probabilities(t, MEASUREMENT_M1, BORN)
    sigma = detection.predicted_kappa_std(t, born, det)
    scan = sensitivity_scan(t, MEASUREMENT_M1, "triple", grid, det, m, 7)
    assert scan.predicted_detectable_eps == pytest.approx(
        detection._t_quantile(m - 1, 3.0) * sigma / (math.sqrt(m) * abs(slope)), rel=1e-12
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
        est = estimate_kappa(run_batches(_target(), MEASUREMENT_M1, rule, det, 4, (7, j)))
        assert (row.kappa_mean, row.kappa_std) == (est.mean, est.std)
    ladder = [20_000, 50_000]
    rows = scaling_check(_target(), MEASUREMENT_M1, det, ladder, 4, 7)
    for j, (n, std) in enumerate(rows):
        det_n = replace(det, shots=n)
        est = estimate_kappa(run_batches(_target(), MEASUREMENT_M1, BORN, det_n, 4, (7, j)))
        assert (n, std) == (ladder[j], est.std)


_SIM = DetectionParams(shots=50_000)


def _scan_runs(grid, det):
    """The (p_true, det) of each row of a triple scan over grid at M1."""
    rules = [BORN if eps == 0 else ProbabilityRule("triple", eps) for eps in grid]
    return [(detection.exact_probabilities(_target(), MEASUREMENT_M1, r), det) for r in rules]


def _runs_alone(runs, m, seed):
    """estimate_kappa of each grid row j, (p_true, det), run alone: a run of
    its own through sample_batches under (*seed, j)."""
    prefix = [seed] if isinstance(seed, int) else list(seed)
    return [
        estimate_kappa(detection.sample_batches(_target(), p_true, det, m, (*prefix, j)))
        for j, (p_true, det) in enumerate(runs)
    ]


def _estimate_floats(est):
    return [est.mean, est.std, est.stderr, *est.ci95]


def _block_rows(monkeypatch, rows, m):
    """Bound a grid's blocks to `rows` rows of m batches (None: the default bound)."""
    if rows is not None:
        monkeypatch.setattr(detection, "_BLOCK_BATCHES", rows * m)


# M = 1 only in exact mode, where one batch is allowed; an exact row draws
# nothing, so it is in no block
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
    alone = _runs_alone(_scan_runs(grid, det), m, (7, 2))
    assert len(scan.rows) == len(alone) == len(grid)
    for eps, row, est in zip(grid, scan.rows, alone):
        want = SensitivityRow(eps, est.mean, est.std, est.excludes_zero(3.0))
        assert row == want
        assert _bits([row.epsilon, row.kappa_mean, row.kappa_std]) == _bits(
            [want.epsilon, want.kappa_mean, want.kappa_std]
        )
    got = detection._grid_summaries(_target(), _scan_runs(grid, det), m, (7, 2), exact=det is None)
    assert got == alone
    assert _bits([_estimate_floats(e) for e in got]) == _bits([_estimate_floats(e) for e in alone])


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
    want = [(n, est.std) for n, est in zip(ladder, _runs_alone(runs, m, 11))]
    assert rungs == want
    assert _bits([std for _, std in rungs]) == _bits([std for _, std in want])


# A row that reads 0.5 in all seven experiments at 10**15 shots: the terms
# of its mean estimates cancel to about 1e-8, far below KAPPA_FLOOR.
_FLAT_ROW = ([0.5] * 7, DetectionParams(shots=10**15))


@pytest.mark.parametrize("block_rows", [None, 1], ids=["one-block", "row-blocks"])
@pytest.mark.parametrize("seed, floor_rows", [(1, [1]), (2, [1, 2])])
def test_a_grid_is_refused_as_its_lowest_floor_row_alone(monkeypatch, seed, floor_rows, block_rows):
    # the grid is refused with the message its lowest row at the floor
    # gives alone, the I2 of that row's mean estimates
    m = 8
    _block_rows(monkeypatch, block_rows, m)
    p = detection.exact_probabilities(_target(), MEASUREMENT_M1, BORN)
    runs = [_FLAT_ROW if j in floor_rows else (p, DetectionParams()) for j in range(3)]
    alone = {}
    for j, (p_true, det) in enumerate(runs):
        try:
            estimate_kappa(detection.sample_batches(_target(), p_true, det, m, (seed, j)))
        except QuantumRegimeError as exc:
            alone[j] = str(exc)
    assert sorted(alone) == floor_rows
    with pytest.raises(QuantumRegimeError) as refused:
        detection._grid_summaries(_target(), runs, m, seed, exact=False)
    message = str(refused.value)
    assert message == alone[floor_rows[0]]
    assert re.match(r"^second-order interference [0-9.e-]+ is at or below the floor", message)
    assert len(set(alone.values())) == len(alone)  # each row's refusal differs


@pytest.mark.parametrize(
    "block_rows, error", [(None, UnphysicalParameterError), (1, QuantumRegimeError)]
)
def test_a_later_rows_unphysical_p_fires_before_an_earlier_rows_floor(
    monkeypatch, block_rows, error
):
    # a block draws all its rows before it summarizes any: row 1's p outside
    # [0, 1] is refused before row 0's kappa floor, unless row 0 is
    # summarized first in a block of its own
    m = 2
    _block_rows(monkeypatch, block_rows, m)
    with pytest.raises(QuantumRegimeError):
        estimate_kappa(detection.sample_batches(_target(), *_FLAT_ROW, m, (3, 0)))
    runs = [_FLAT_ROW, ([1.5] + [0.5] * 6, DetectionParams())]
    with pytest.raises(error):
        detection._grid_summaries(_target(), runs, m, 3, exact=False)


def test_a_grid_of_no_batches_is_refused():
    for det, match in [
        (None, "^an exact run needs at least 1 batch, got 0$"),
        (_SIM, "^a simulated run needs at least 2 batches, got 0$"),
    ]:
        with pytest.raises(InsufficientBatchesError, match=match):
            sensitivity_scan(_target(), MEASUREMENT_M1, "triple", [0.0, 0.1], det, 0, 3)
        with pytest.raises(InsufficientBatchesError, match=match):
            scaling_check(_target(), MEASUREMENT_M1, det, [20_000, 200_000], 0, 3)


def test_a_grid_of_no_rows_takes_its_modes_batch_bounds():
    # a grid with no rows is checked against det's mode as a grid of many
    # rows is, although it draws and summarizes nothing
    for n_batches, error, match in [
        (1, InsufficientBatchesError, "at least 2 batches, got 1$"),
        (2**21, ValueError, f"at most MAX_BATCHES = {2**20} batches, got {2**21}$"),
    ]:
        with pytest.raises(error, match=match):
            sensitivity_scan(_target(), MEASUREMENT_M1, "triple", [], _SIM, n_batches, 5)
        with pytest.raises(error, match=match):
            scaling_check(_target(), MEASUREMENT_M1, _SIM, [], n_batches, 5)
    assert sensitivity_scan(_target(), MEASUREMENT_M1, "triple", [], _SIM, 2, 5).rows == ()
    assert scaling_check(_target(), MEASUREMENT_M1, _SIM, [], 2, 5) == []
    # an exact grid draws nothing, so it has no upper bound
    assert scaling_check(_target(), MEASUREMENT_M1, None, [], 2**21, 5) == []


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
    default_rng(SeedSequence([*prefix])) in the documented order, one
    scalar draw at a time: each experiment's n_batches bright counts in
    turn, then the signals batch by batch, then every batch's reference."""
    rng = np.random.default_rng(np.random.SeedSequence([*prefix]))
    bright = [[int(rng.binomial(det.shots, p)) for _ in range(n_batches)] for p in p_true]
    signals = []
    for b in range(n_batches):
        row = []
        for k in range(7):
            lam = bright[k][b] * det.mu_bright + (det.shots - bright[k][b]) * det.mu_dark
            row.append(int(rng.poisson(lam + det.shots * det.mu_bg)))
        signals.append(row)
    ref_mean = det.shots * (det.mu_bright + det.mu_bg)
    refs = [int(rng.poisson(ref_mean)) for _ in range(n_batches)]
    return [tuple(s / ref for s in row) for row, ref in zip(signals, refs)]


@pytest.mark.parametrize("prefix", ORACLE_PREFIXES, ids=str)
def test_run_batches_draw_what_per_stream_seeding_draws(prefix):
    det = DetectionParams()
    seed = prefix[0] if len(prefix) == 1 else prefix
    p_true = detection.exact_probabilities(_target(), MEASUREMENT_M1, BORN)
    report = run_batches(_target(), MEASUREMENT_M1, BORN, det, 30, seed)
    assert [tuple(p) for p in _estimates(report).tolist()] == _one_stream_p(p_true, det, 30, prefix)
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
    assert [tuple(p) for p in _estimates(report).tolist()] == _one_stream_p(p_true, det, 30, prefix)
    exact = detection.sample_batches(_target(), p_true, None, 3, seed)
    assert exact == detection.sorkin_report(_target(), p_true) and exact.p == p_true


# At 412 shots, the fewest the default rates allow, these rows reach every
# branch of numpy's binomial sampler: p = 0 and p = 1; p <= 0.5 with
# n p <= 30 (inversion) and above (BTPE); and p > 0.5, which draws from
# q = 1 - p, with n q <= 30 and above.
SAMPLER_BRANCH_ROWS = {
    "zero-and-one": (0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.5),
    "inversion": (0.001, 0.07, 0.02, 0.05, 0.0, 0.0728, 0.03),
    "above-one-half": (0.6, 0.9, 0.97, 0.75, 0.99, 0.55, 0.93),
    "every-branch": (0.0, 1.0, 0.3, 0.97, 0.01, 0.6, 0.5),
}


@pytest.mark.parametrize("n_batches", [2, 1000])
@pytest.mark.parametrize("row", SAMPLER_BRANCH_ROWS, ids=str)
def test_sampler_draws_what_the_oracle_draws_on_every_binomial_branch(row, n_batches):
    p_true = SAMPLER_BRANCH_ROWS[row]
    det = DetectionParams(shots=412)
    report = detection.sample_batches(_target(), p_true, det, n_batches, (7, 3))
    assert [tuple(p) for p in _estimates(report).tolist()] == _one_stream_p(p_true, det, n_batches, (7, 3))


@pytest.mark.parametrize("n", [6, 8])
def test_sampler_refuses_anything_but_seven_probabilities(n):
    p_true = (_paper_probabilities() * 2)[:n]
    with pytest.raises(ValueError):
        detection.sample_batches(_target(), p_true, DetectionParams(), 30, 0)


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
    k, std = _oracle_summary(report)
    half = _t975(49) * std / math.sqrt(50)
    assert first.ci95 == pytest.approx((k - half, k + half), rel=1e-12)


def test_estimate_kappa_exact_batches():
    # an exact Born run's one kappa vanishes to rounding, with no spread
    report = run_batches(_target(), MEASUREMENT_M1, BORN, None, 5, 0)
    k = report.kappa
    assert type(k) is float and abs(k) < 1e-12
    assert estimate_kappa(report) == KappaEstimate(k, 0.0, 0.0, (k, k), 0)


def test_identical_exact_batches_have_no_spread():
    # exact-triple's sensitivity row at exponent eps 0.07: its run of 3
    # batches is the report of its probabilities, one kappa with no spread
    rule = ProbabilityRule("exponent", 0.07)
    report = run_batches(_target(), MEASUREMENT_M1, rule, None, 3, 1)
    p_true = detection.exact_probabilities(_target(), MEASUREMENT_M1, rule)
    assert report == detection.sorkin_report(_target(), p_true)
    k = report.kappa
    assert k != 0.0
    assert estimate_kappa(report) == KappaEstimate(k, 0.0, 0.0, (k, k), 0)


def test_estimate_kappa_refuses_an_empty_run():
    # an exact run of no batches is refused before it is read out, and the
    # counts of fewer than 2 batches have no spread to summarize
    empty = "^an exact run needs at least 1 batch, got 0$"
    with pytest.raises(InsufficientBatchesError, match=empty):
        run_batches(_target(), MEASUREMENT_M1, BORN, None, 0, 0)
    run = run_batches(_target(), MEASUREMENT_M1, BORN, DetectionParams(), 2, 0)
    for m in (0, 1):
        short = run._replace(signals=run.signals[:m], ref=run.ref[:m])
        with pytest.raises(InsufficientBatchesError, match=f"at least 2 batches, got {m}$"):
            estimate_kappa(short)


def test_estimate_kappa_of_one_exact_batch():
    exact = run_batches(_target(), MEASUREMENT_M1, BORN, None, 1, 0)
    p_true = detection.exact_probabilities(_target(), MEASUREMENT_M1, BORN)
    assert exact == run_batches(_target(), MEASUREMENT_M1, BORN, None, 7, 0)
    k = detection.sorkin_report(_target(), p_true).kappa
    est = estimate_kappa(exact)
    assert est == KappaEstimate(k, 0.0, 0.0, (k, k), 0)
    assert type(est.mean) is float  # the summary JSON writes it


@pytest.mark.parametrize("m", [1, 3, 5840])
def test_an_exact_run_row_and_rung_are_one_report(monkeypatch, m):
    # at exponent eps 0.07 the float mean of three equal kappas is not the
    # kappa: an exact run, scan row and ladder rung are the no-spread
    # estimate of sorkin_report(t, p) bit for bit, and set up no stream
    t, rule = _target(), ProbabilityRule("exponent", 0.07)
    p_true = detection.exact_probabilities(t, MEASUREMENT_M1, rule)
    k = detection.sorkin_report(t, p_true).kappa
    assert float(np.mean([k, k, k])) != k
    want = _bits(_estimate_floats(KappaEstimate(k, 0.0, 0.0, (k, k), 0)))

    def no_stream(*args, **kwargs):
        raise AssertionError("an exact path set up a stream")

    monkeypatch.setattr(np.random, "default_rng", no_stream)
    run = estimate_kappa(run_batches(t, MEASUREMENT_M1, rule, None, m, 3))
    assert _bits(_estimate_floats(run)) == want
    grid = [(p_true, None)] * 3  # the rows of a scan, or the rungs of a ladder
    for est in detection._grid_summaries(t, grid, m, 3, exact=True):
        assert _bits(_estimate_floats(est)) == want
    row = sensitivity_scan(t, MEASUREMENT_M1, "exponent", [0.07], None, m, 3).rows[0]
    assert _bits([row.kappa_mean, row.kappa_std]) == want[:2]
    rungs = scaling_check(t, MEASUREMENT_M1, None, [20_000, 200_000], m, 3)
    assert _bits([std for _, std in rungs]) == _bits([0.0, 0.0])


def test_an_exact_run_allocates_no_batches():
    t = _target()
    p_true = detection.exact_probabilities(t, MEASUREMENT_M1, BORN)
    detection.sample_batches(t, p_true, None, 10**6, 3)  # any one-off objects first
    tracemalloc.start()
    try:
        detection.sample_batches(t, p_true, None, 10**6, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10


@pytest.mark.parametrize("spec", [MEASUREMENT_M1, _THETA2_2PI], ids=["defaults", "theta2-2pi"])
def test_born_null_holds_at_the_fewest_shots(spec):
    # simulate's verdict at the README's least shot count, 412, with 20,000
    # batches, seeds 1-8, on the default config and at theta2 = 2 pi, where
    # two pairwise terms vanish; the mean of batch kappas this summary
    # replaced refused or rejected the null on 7 of the 8 default seeds
    t, det = _target(), DetectionParams(shots=412)
    p_true = detection.exact_probabilities(t, spec, BORN)
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


def _born_run(m, seed=0, shots=20_000):
    """A simulated Born run of m batches at the paper's working point."""
    return run_batches(_target(), MEASUREMENT_M1, BORN, DetectionParams(shots=shots), m, seed)


def _t975(df):
    """t(0.975, df), the package's quantile of a two-sided 95% interval."""
    return detection._t_quantile(df, detection._Z975)


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
    assert _t975(df) == pytest.approx(expected, abs=tol)


def _t_tail(t, df):
    """Exact two-sided Student-t tail P(|T| > t) for integer df (Abramowitz
    and Stegun 26.7.3-4: one minus their A(t | df))."""
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
    return 1.0 - inside


def _t_quantile_exact(df, tail):
    """Bisection on the exact two-sided tail, down to rounding."""
    lo, hi = 0.0, 1e7
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _t_tail(mid, df) > tail else (lo, mid)
    return lo


def _t975_exact(df):
    return _t_quantile_exact(df, 0.05)


def _t975_error(df):
    """The relative error _t_quantile documents at df for t(0.975, df)."""
    return 1e-6 if df <= 10 else 3e-9 if df < 49 else 2e-12


def test_t975_within_its_documented_error():
    # the two-sided tail at _Z975 is 0.05 exactly; df 1 and 2 are closed
    # forms, df 3 takes the tail series
    assert math.erfc(detection._Z975 / math.sqrt(2.0)) == 0.05
    for df in range(1, 121):
        bound = _t975_error(df)
        assert _t975(df) == pytest.approx(_t975_exact(df), rel=bound), df


@pytest.mark.parametrize("z", [3.0, 5.0])
def test_t_quantile_at_a_significance_rules_sigmas(z):
    # the quantile whose two-sided tail is the normal's beyond z, within
    # the documented 3e-6 at small df, where the tail series and the
    # expansion meet, and tending to z itself
    tail = math.erfc(z / math.sqrt(2.0))
    for df in [*range(1, 41), 60, 100, 250, 1000, 10_000]:
        want = _t_quantile_exact(df, tail)
        assert detection._t_quantile(df, z) == pytest.approx(want, rel=3e-6), df
    assert detection._t_quantile(10**12, z) == pytest.approx(z, rel=1e-9)
    # no tail, a tail of one or more, or none at all in floats
    for bad in (0.0, -z, math.nan, 40.0):
        with pytest.raises(ValueError, match="^z must be positive"):
            detection._t_quantile(10, bad)


@pytest.mark.parametrize("m", [2, 3])
def test_born_is_not_rejected_at_the_fewest_batches(m):
    # at 5 sigma the rule rejects a true null in 5.7e-7 of runs; a normal
    # threshold of 5 standard errors, blind to the M - 1 degrees of freedom
    # of |mean| / stderr, rejects 13% of these runs at M = 2 and 3.5% at 3
    t, det = _target(), DetectionParams(shots=50_000)
    p_true = detection.exact_probabilities(t, MEASUREMENT_M1, BORN)
    verdicts = [
        estimate_kappa(detection.sample_batches(t, p_true, det, m, (19, m, i))).excludes_zero(5.0)
        for i in range(2_000)
    ]
    assert sum(verdicts) == 0


def _assert_one_shot_interval(run, est):
    """est.ci95 is the oracle's mean -/+ the exact t quantile times stderr."""
    m = run.ref.size
    k, std = _oracle_summary(run)
    half = _t975_exact(m - 1) * std / math.sqrt(m)
    assert est.ci95[0] + est.ci95[1] == pytest.approx(2 * k, abs=1e-12)
    width = 0.5 * (est.ci95[1] - est.ci95[0])
    assert width == pytest.approx(half, rel=_t975_error(m - 1) + 1e-12)


# The closed-form interval keeps no state across calls: rows counts calls
# on other runs made first (None: none), which must leave no trace, and
# seed is ignored.  The name and case ids are those of the blocked
# bootstrap the closed form replaced.
@pytest.mark.parametrize("rows", [None, 1, 3])
@pytest.mark.parametrize("seed", [42, (7, 1 << 40)])
@pytest.mark.parametrize("m", [2, 3, 7, 50, 1001])
def test_blocked_bootstrap_draws_the_one_shot_bootstrap(m, seed, rows):
    for i in range(rows or 0):
        other = _born_run(m, seed=i + 1)
        _assert_one_shot_interval(other, estimate_kappa(other, seed=seed))
    report = _born_run(m)
    _assert_one_shot_interval(report, estimate_kappa(report, seed=seed))


def test_t_interval_covers_the_mean_95_percent_of_the_time():
    # calibration at the defaults and the fewest shots, 412: 400 Born runs
    # of 200 batches, whose 95% intervals must hold the true kappa, 0, in
    # 95% of runs give or take 3 binomial standard errors (3.3%)
    hits = 0
    for i in range(400):
        est = estimate_kappa(_born_run(200, seed=(11, i), shots=412))
        hits += est.ci95[0] <= 0.0 <= est.ci95[1]
    assert abs(hits / 400 - 0.95) <= 3 * math.sqrt(0.95 * 0.05 / 400)


# The ratio of the observed spread of kappa over 800 runs to the model's
# sigma / sqrt(M) has a sampling error of about ratio / sqrt(1600), 0.025,
# so each band is about 3 of them wide either side.  At theta2 = 2*pi two
# of the three pairwise terms are zero, and the noise of the mean estimates
# enters I2(p) through their absolute values: it only ever adds to I2, and
# so shrinks kappa's spread.  predicted_kappa_std, a first-order model with
# a sign for each term, cannot see this, and the observed spread sits about
# 10% below it (0.897 over 8,000 runs at seeds (777, i)), so that config's
# band is centred there and excludes 1.  The same runs covered 93.4% there,
# the least of the five configs, inside the coverage band but below 95%.
_COVERAGE_CONFIGS = [
    pytest.param(MEASUREMENT_M1, BORN, (0.925, 1.075), id="defaults"),
    pytest.param(_THETA2_2PI, BORN, (0.83, 0.965), id="theta2-2pi"),
    pytest.param(MEASUREMENT_M2, BORN, (0.925, 1.075), id="M2"),
    pytest.param(MEASUREMENT_M1, ProbabilityRule("exponent", 0.05), (0.925, 1.075), id="exponent"),
    pytest.param(MEASUREMENT_M1, ProbabilityRule("triple", 0.05), (0.925, 1.075), id="triple"),
]


@pytest.mark.parametrize("spec, rule, ratio_band", _COVERAGE_CONFIGS)
def test_t_interval_coverage_across_the_config_space(spec, rule, ratio_band):
    # 800 runs of 200 batches at 412 shots, seeds (901, i), against the
    # exact kappa: coverage within 95% +- 2.5% (about 3 binomial standard
    # errors), the z statistics' sd within 1 +- 3 / sqrt(2 * 800), and the
    # spread of kappa against predicted_kappa_std within the config's band
    t, det, m, runs = _target(), DetectionParams(shots=412), 200, 800
    p_true = detection.exact_probabilities(t, spec, rule)
    exact = detection.sorkin_report(t, p_true).kappa
    estimates = [estimate_kappa(run_batches(t, spec, rule, det, m, (901, i))) for i in range(runs)]
    covered = sum(e.ci95[0] <= exact <= e.ci95[1] for e in estimates)
    assert abs(covered / runs - 0.95) <= 0.025
    z = [(e.mean - exact) / e.stderr for e in estimates]
    assert abs(statistics.stdev(z) - 1.0) <= 3.0 / math.sqrt(2 * runs)
    model = detection.predicted_kappa_std(t, p_true, det) / math.sqrt(m)
    ratio = statistics.stdev([e.mean for e in estimates]) / model
    assert ratio_band[0] <= ratio <= ratio_band[1]


def test_estimate_kappa_memory_is_linear_in_batches():
    report = _born_run(2_000)
    tracemalloc.start()
    try:
        estimate_kappa(report)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def _pmf_moments(pmf):
    """Mean, variance and fourth central moment of a pmf on 0..len(pmf)-1."""
    values = np.arange(len(pmf))
    mean = float(pmf @ values)
    return mean, float(pmf @ (values - mean) ** 2), float(pmf @ (values - mean) ** 4)


# two readouts with N (mu_bright + mu_bg) >= 50 reference photons: 20 shots
# at raised rates (70 photons), where a background of 10 photons a count is
# plain to see, and 412 shots at the default rates, the fewest they allow
@pytest.mark.parametrize(
    "det, prefix",
    [
        (DetectionParams(mu_bright=3.0, mu_bg=0.5, shots=20), (16, 20)),
        (DetectionParams(shots=412), (16, 412)),
    ],
    ids=["20-shots", "412-shots"],
)
def test_readout_counts_follow_the_per_shot_model(det, prefix):
    p_true = (0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0)
    n_batches = 20_000
    signals, ref = detection._read_out(p_true, det, n_batches, prefix)
    rates = (det.mu_bright, det.mu_dark, det.mu_bg)
    ref_mean = det.shots * (det.mu_bright + det.mu_bg)
    size = int(ref_mean + 30.0 * math.sqrt(ref_mean)) + 30
    # the reference is a trace of bright shots alone
    columns = [*zip(p_true, signals.T), (1.0, ref)]
    # chi-square bound at a one-sided 1e-6 tail (Wilson-Hilferty)
    z = 4.7534
    means, variances = [], []
    for p, counts in columns:
        pmf = per_shot_count_pmf(det.shots, p, *rates, size)
        assert 1.0 - pmf.sum() < 1e-12, p
        x2, df = chi_square_statistic(counts, pmf)
        h = 2.0 / (9 * df)
        assert x2 < df * (1.0 - h + z * math.sqrt(h)) ** 3, (p, x2, df)
        mean, var, mu4 = _pmf_moments(pmf)
        assert abs(counts.mean() - mean) < 5.0 * math.sqrt(var / n_batches), p
        assert abs(counts.var(ddof=1) - var) < 5.0 * math.sqrt((mu4 - var**2) / n_batches), p
        means.append(mean)
        variances.append(var)
    # the oracle's exact moments are E S_k and Var S_k = E S_k + N p_k (1 -
    # p_k) dmu^2 of predicted_kappa_std, and its spread follows from them
    dmu = det.mu_bright - det.mu_dark
    for p, mean, var in zip(p_true, means, variances):
        assert mean == pytest.approx(det.shots * (det.mu_dark + p * dmu + det.mu_bg), rel=1e-9)
        assert var == pytest.approx(mean + det.shots * p * (1.0 - p) * dmu**2, rel=1e-9)
    _, g = detection._kappa_gradient(_target(), np.array([detection.expected_estimates(p_true, det)]))
    spread = math.sqrt(g[0] ** 2 @ np.array(variances[:7])) / means[7]
    assert spread == pytest.approx(detection.predicted_kappa_std(_target(), p_true, det), rel=1e-9)


@pytest.mark.parametrize("spec", [MEASUREMENT_M1, MEASUREMENT_M2], ids=["M1", "M2"])
@pytest.mark.parametrize("shots", [200_000, 2_000_000])
def test_observed_kappa_std_matches_the_counting_model(spec, shots):
    det = DetectionParams(shots=shots)
    p_true = detection.exact_probabilities(_target(), spec, BORN)
    predicted = detection.predicted_kappa_std(_target(), p_true, det)
    report = run_batches(_target(), spec, BORN, det, 200, 5)
    ratio = estimate_kappa(report).std / predicted
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


def test_smallest_detected_eps_is_the_least_strength_detected():
    # at the defaults 0.12 and 0.09 are both detected; the grid's first
    # detected row is not its smallest
    det = DetectionParams()
    scan = sensitivity_scan(_target(), MEASUREMENT_M1, "triple", [0.12, 0.09, 0.0], det, 50, 1)
    assert [row.detected for row in scan.rows] == [True, True, False]
    assert scan.smallest_detected_eps == 0.09
    # at a tie of |eps| the first in grid order, whether the grid is exact
    # or drawn (1,000 batches detect 0.05 at 3.6 times its predicted strength)
    for grid in ([0.05, -0.05], [-0.05, 0.05]):
        for det, m in [(None, 2), (DetectionParams(), 1000)]:
            scan = sensitivity_scan(_target(), MEASUREMENT_M1, "triple", grid, det, m, 1)
            assert all(row.detected for row in scan.rows)
            assert scan.smallest_detected_eps == grid[0]


def test_flag_fires_at_the_predicted_strength_as_the_t_model_says():
    # A row of M = 3 batches at the predicted strength has true kappa
    # q sigma / sqrt(M), q = _t_quantile(2, 3.0) = 19.2 and sigma the Born
    # spread.  Its own spread s makes |kappa| / stderr a noncentral t of 2
    # degrees of freedom, noncentrality d = q sigma / s.  At df 2, V / 2 of
    # its chi-square V is Exp(1), so given the normal part Z the flag fires
    # with chance 1 - exp(-(Z + d)^2 / q^2), whose normal average is the rate
    # below.  The prediction at the normal 3 would fire in 2.7% of rows.
    t, det, m, runs = _target(), DetectionParams(), 3, 400
    q = detection._t_quantile(m - 1, 3.0)
    eps = sensitivity_scan(t, MEASUREMENT_M1, "triple", [0.1], det, m, 0).predicted_detectable_eps
    born = detection.exact_probabilities(t, MEASUREMENT_M1, BORN)
    row = detection.exact_probabilities(t, MEASUREMENT_M1, ProbabilityRule("triple", eps))
    ratio = detection.predicted_kappa_std(t, born, det) / detection.predicted_kappa_std(t, row, det)

    def rate(d):
        return 1.0 - math.exp(-d * d / (q * q + 2.0)) / math.sqrt(1.0 + 2.0 / (q * q))

    expected = rate(q * ratio)
    band = 4.0 * math.sqrt(expected * (1.0 - expected) / runs)
    assert not abs(rate(3.0 * ratio) - expected) <= band
    fired = sum(
        sensitivity_scan(t, MEASUREMENT_M1, "triple", [eps], det, m, (4242, s)).rows[0].detected
        for s in range(runs)
    )
    assert abs(fired / runs - expected) <= band, (fired, expected)


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
    # each rung is an integer, as DetectionParams' shots is
    for bad in (412.9, "500", 500.0):
        with pytest.raises(TypeError):
            scaling_check(_target(), MEASUREMENT_M1, None, [100, bad], 4, 0)
    rows = scaling_check(_target(), MEASUREMENT_M1, None, [np.int64(100)], 4, 0)
    assert type(rows[0][0]) is int


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


def test_too_many_simulated_batches_refused_before_any_stream(monkeypatch):
    def no_stream(*args, **kwargs):
        raise AssertionError("a stream was set up")

    t = _target()
    p_true = detection.exact_probabilities(t, MEASUREMENT_M1, BORN)
    monkeypatch.setattr(np.random, "SeedSequence", no_stream)
    monkeypatch.setattr(np.random, "default_rng", no_stream)
    too_many = f"^a simulated run draws at most MAX_BATCHES = {2**20} batches, got {2**20 + 1}$"
    with pytest.raises(ValueError, match=too_many):
        detection.sample_batches(t, p_true, DetectionParams(), detection.MAX_BATCHES + 1, 3)
    detection.check_batches(detection.MAX_BATCHES, exact=False)
    # an exact run draws nothing, so it has no upper bound
    exact = detection.sample_batches(t, p_true, None, 10**15, 3)
    assert exact == detection.sorkin_report(t, p_true)
    # a count that is not an integer is refused whatever its size, exact or
    # simulated, as DetectionParams' shots are
    integer = "^'float' object cannot be interpreted as an integer$"
    with pytest.raises(TypeError, match=integer):
        detection.sample_batches(t, p_true, DetectionParams(), 50.0, 3)
    with pytest.raises(TypeError, match=integer):
        detection.sample_batches(t, p_true, None, 2.5, 3)
    with pytest.raises(TypeError, match=integer):
        sensitivity_scan(t, MEASUREMENT_M1, "triple", [0.0, 0.1], DetectionParams(), 50.0, 3)


def test_one_exact_batch_per_rung_has_no_spread():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = scaling_check(_target(), MEASUREMENT_M1, None, [20_000, 200_000], 1, 3)
    assert rows == [(20_000, 0.0), (200_000, 0.0)]


def test_scaling_check_noise_shrinks_with_brightness():
    det = DetectionParams(shots=100_000)
    dim = run_batches(_target(), MEASUREMENT_M1, BORN, det, 60, 9)
    bright = replace(det, mu_bright=0.24, mu_bg=0.003)
    std_dim = estimate_kappa(dim).std
    std_bright = estimate_kappa(run_batches(_target(), MEASUREMENT_M1, BORN, bright, 60, 9)).std
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
    # an exact run of any batch count is one report of seven floats, with no counts
    exact = run_batches(_target(), MEASUREMENT_M1, BORN, None, 2, 0)
    assert type(exact) is SorkinReport and type(exact.p) is tuple and len(exact.p) == 7
    with pytest.raises(ValueError, match="^an exact run draws no counts"):
        batch_csv_text(exact)


def _counts(rows):
    """A Readout of hand-built counts, one row of 7 signals and a reference a batch."""
    table = np.array(rows, dtype=np.int64).reshape(-1, 8)
    return Readout(_target(), table[:, :7], table[:, 7])


def _oracle_csv(run):
    """The batch CSV written field by field with str of a Python int."""
    lines = ["batch,s1,s2,s3,s4,s5,s6,s7,ref"]
    for b, (row, r) in enumerate(zip(run.signals.tolist(), run.ref.tolist())):
        lines.append(",".join(str(int(x)) for x in [b, *row, r]))
    return "\n".join(lines) + "\n"


# 0, then 10**k - 1 and 10**k for k from 0 to 15, and 2**53, the most a
# run's config lets a drawn count reach
_EDGE_COUNTS = [0, *(v for k in range(16) for v in (10**k - 1, 10**k)), 2**53]


@pytest.mark.parametrize(
    "rows",
    [
        # the edge counts, eight a batch, padded to whole batches with 7s;
        # reversed, most of them land in another column
        _EDGE_COUNTS + [7] * (-len(_EDGE_COUNTS) % 8),
        _EDGE_COUNTS[::-1] + [7] * (-len(_EDGE_COUNTS) % 8),
        # the nine fields of each batch have nine different widths: batch 0's
        # run from 1 to 9 digits, batch 1's signals from 8 down to 2
        [10**k + k for k in range(1, 9)] + [10**k - 1 for k in range(8, 1, -1)] + [10**9 - 1],
        # batch indices cross 9 -> 10 and 99 -> 100, next to one-digit counts
        [b % 10 for b in range(8 * 102)],
        # 10 digits, past uint32 from 2**32 on: the int64 path, which a
        # uint32 cast would wrap to 0
        [2**32 - 1, 2**32, 9_999_999_999] + [7] * 5,
    ],
    ids=["edges", "edges-reversed", "all-widths", "indices", "uint32-limit"],
)
def test_batch_csv_matches_str_of_each_int(rows):
    report = _counts(rows)
    assert batch_csv_text(report) == _oracle_csv(report)


@pytest.mark.parametrize("m", [2, 1000, 5840])
def test_batch_csv_matches_str_at_random_widths(m):
    # each count has 1 to 16 digits, drawn below 10**width of a random width
    rng = np.random.default_rng(m)
    widths = rng.integers(1, 17, size=8 * m)
    report = _counts(rng.integers(0, 10**widths, dtype=np.int64))
    assert batch_csv_text(report) == _oracle_csv(report)


def test_batch_csv_of_no_batches_and_negative_counts():
    # a report of no batches has the header alone; a count is never negative
    empty = _counts([])
    assert batch_csv_text(empty) == _oracle_csv(empty) == "batch,s1,s2,s3,s4,s5,s6,s7,ref\n"
    for rows in ([5] * 7 + [-1], [-(2**63)] + [5] * 15):
        with pytest.raises(ValueError, match="never negative, got -"):
            batch_csv_text(_counts(rows))


# The %-format writer this one replaced ("%d,...\n" % tuple(table.tolist()))
# peaked at 52,484,066 bytes (tracemalloc) on these counts: M = 100,000
# batches at the defaults, seed 1, Python 3.11.7, numpy 2.4.6.  This writer
# peaked at 30.6 MB there, the text itself 6.2 MB.
_OLD_WRITER_PEAK = 52_484_066


def test_batch_csv_peaks_below_the_old_writer():
    report = run_batches(_target(), MEASUREMENT_M1, BORN, DetectionParams(), 100_000, 1)
    batch_csv_text(report)  # any one-off objects first
    tracemalloc.start()
    try:
        batch_csv_text(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < _OLD_WRITER_PEAK


# the edge rates: the fewest shots the defaults allow, no background, and
# no background at full contrast, whose p2 = 0 reads zero signal photons
_COUNT_RATES = [
    DetectionParams(),
    DetectionParams(shots=412),
    DetectionParams(mu_bg=0.0),
    DetectionParams(mu_bg=0.0, contrast=1.0),
]


def _read_csv(t, text):
    """The Readout of a batch CSV's text, parsed line by line with int()."""
    lines = text.split("\n")
    assert lines[0] == "batch,s1,s2,s3,s4,s5,s6,s7,ref" and lines[-1] == ""
    rows = [[int(x) for x in line.split(",")] for line in lines[1:-1]]
    assert [row[0] for row in rows] == list(range(len(rows)))
    table = np.array([row[1:] for row in rows], dtype=np.int64).reshape(-1, 8)
    return Readout(t, table[:, :7], table[:, 7])


@pytest.mark.parametrize("m", [2, 1000])
@pytest.mark.parametrize(
    "det", _COUNT_RATES, ids=["defaults", "shots-412", "mu_bg-0", "mu_bg-0-contrast-1"]
)
def test_counts_rebuild_the_run_bit_for_bit(det, m):
    # a run's counts are its record: signals / ref[:, None] is its batch
    # estimates, Python int / int on the CSV's integers gives the same
    # estimates, and the kappa of their mean is the summary's mean, each
    # bit for bit.  The CSV read back into a Readout writes the same text
    # and gets the run's whole summary bit for bit.
    t = _target()
    p_true = detection.exact_probabilities(t, MEASUREMENT_M1, BORN)
    for seed in np.random.default_rng(26).integers(2**63, size=3).tolist():
        run = detection.sample_batches(t, p_true, det, m, seed)
        assert (run.signals.dtype, run.signals.shape) == (np.int64, (m, 7))
        assert (run.ref.dtype, run.ref.shape) == (np.int64, (m,))
        assert run.signals.flags.c_contiguous
        text = batch_csv_text(run)
        read = _read_csv(t, text)
        p = [[s / r for s in row] for row, r in zip(read.signals.tolist(), read.ref.tolist())]
        assert _bits(p) == _bits(_estimates(run))
        one = detection.sorkin_report(t, np.array(p).mean(axis=0).tolist())
        assert _bits([estimate_kappa(run).mean]) == _bits([one.kappa])
        assert batch_csv_text(read) == text
        assert _bits(_estimate_floats(estimate_kappa(read))) == _bits(
            _estimate_floats(estimate_kappa(run))
        )
