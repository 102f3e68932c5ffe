"""Photon-counting readout simulation and batch statistics.

Readout model, per probability estimate of N shots: the number of bright
shots is Binomial(N, p); total signal photons are Poisson with mean

    B*mu_bright + (N - B)*mu_dark + N*mu_bg

and the estimate is the ratio of signal photons to an independent
bright-reference Poisson draw with mean N*(mu_bright + mu_bg).  In
expectation the ratio is an affine map of p with coefficients common to
all seven experiments, exactly the setting in which kappa is invariant.
Sampling aggregate counts instead of per-shot loops is distributionally
identical for this model and O(1) per estimate.

Within one batch the seven signals share a single reference draw (the
normalization is one bright reference trace), so common reference noise
cancels from kappa exactly.  A simulated run of M >= 2 batches keeps the
(M, 7) signals and M references it drew, its batch CSV
(sorkin-lab.batches/2); batch b's estimates are signals[b] / ref[b],
which int64 / int64 rounds as Python's int / int does below 2**53.  Its
report is sorkin_report(t, p) of the mean estimates p, holding the
counts, and records neither seed nor shots.  An exact run is
sorkin_report(t, p_true) whatever its batch count (at least 1): it draws
nothing, has no counts and no CSV, and its kappa has no spread.

estimate_kappa is the one summary of a run, for simulate, every
sensitivity row and every shot-ladder rung alike: kappa of the mean
estimates, with a delta-method spread (see _pooled_estimates), and
KappaEstimate.excludes_zero the one significance rule: 5 sigma for the
Born null of simulate, 3 sigma for a scan row.

A grid (a sensitivity scan or a shot ladder) reports each exact row from
its seven floats.  It draws each simulated row on its own stream, exactly
as a run of its own, and divides its counts straight into the row's
(M, 7) slice of a C-contiguous (J, M, 7) block of at most 2**16 batches
(a block always holds at least one row), keeping none of them.  The
block gets one pooled summary, of which a single run is the (1, M, 7)
case.  Each row's mean adds batch after batch, as its run's does, and
numpy sums each row of the C-contiguous (J, M) projections pairwise, as
it sums the row alone, so each row's summary is its run's bit for bit.

Seeding is documented: a run draws from one stream,
default_rng(SeedSequence([*prefix])), where the prefix is the run's
master seed, or [*master_seed, j] for row j of a sensitivity scan or shot
ladder.  It draws in three array calls, in this order: the bright counts
of every batch and experiment, Binomial(N, p) over an (M, 7) batch-major
operand (a zero-stride view of the seven p, see _read_out); the signals,
Poisson over the same shape; then each batch's reference, M Poisson
draws.  SeedSequence zero-pads entropy shorter than four words, so [s]
and [s, 0] name one stream: simulate at seed s draws what row 0 of a scan
at seed s draws.  No run reuses a stream within itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from itertools import groupby

import numpy as np

from .born import DEFORMATIONS, ProbabilityRule, probability
from .errors import InsufficientBatchesError, UnphysicalParameterError
from .protocol import (
    MeasurementSpec,
    SorkinReport,
    TargetAmplitudes,
    kappa,
    measurement_ket,
    prepare_states,
    second_order_terms,
    third_order_term,
)

# Least expected reference count per estimate: P(zero reference) = e^-50.
MIN_REFERENCE_PHOTONS = 50.0
# Most shots, and most photons drawn, per estimate: counts up to 2**53 are
# exact in float64 (numpy's Poisson sampler stops near 9.2e18).  No draw
# exceeds its mean lam by 10 sqrt(lam), and the reference mean is the
# largest, so it may be at most the lam of lam + 10 sqrt(lam) = 2**53.
MAX_COUNT = 2**53
_MAX_MEAN = (math.sqrt(MAX_COUNT + 25.0) - 5.0) ** 2

BATCH_CSV_SCHEMA = "sorkin-lab.batches/2"
SUMMARY_JSON_SCHEMA = "sorkin-lab.summary/8"


@dataclass(frozen=True)
class DetectionParams:
    """Photon-rate model for state-selective readout.

    mu_* are mean photons per shot per readout window; mu_dark is derived
    from the bright/dark contrast.
    """

    mu_bright: float = 0.12
    contrast: float = 0.30
    mu_bg: float = 0.0015
    shots: int = 2_000_000

    def __post_init__(self):
        if not (math.isfinite(self.mu_bright) and self.mu_bright > 0):
            raise ValueError(f"mu_bright must be positive, got {self.mu_bright!r}")
        if not 0.0 < self.contrast <= 1.0:
            raise ValueError(f"contrast must be in (0, 1], got {self.contrast!r}")
        if not (math.isfinite(self.mu_bg) and self.mu_bg >= 0):
            raise ValueError(f"mu_bg must be non-negative, got {self.mu_bg!r}")
        if int(self.shots) < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots!r}")
        object.__setattr__(self, "shots", int(self.shots))
        rate = self.mu_bright + self.mu_bg
        if self.shots * rate < MIN_REFERENCE_PHOTONS:
            raise ValueError(
                f"shots = {self.shots} gives {self.shots * rate:.6g} expected "
                f"reference photons, fewer than {MIN_REFERENCE_PHOTONS:g}; "
                f"these rates need shots >= {math.ceil(MIN_REFERENCE_PHOTONS / rate)}"
            )
        most = min(MAX_COUNT, math.floor(_MAX_MEAN / rate))
        if self.shots > most:
            raise ValueError(
                f"shots = {self.shots} gives {self.shots * rate:.6g} expected "
                f"reference photons; drawn counts must stay at most 2**53, 10 "
                f"sigma above their mean, so these rates allow shots <= {most}"
            )

    @property
    def mu_dark(self) -> float:
        return self.mu_bright * (1.0 - self.contrast)


@dataclass(frozen=True)
class KappaEstimate:
    """A run's kappa, per-batch std, stderr and 95% interval (see _pooled_estimates)."""

    mean: float
    std: float
    stderr: float
    ci95: tuple[float, float]

    def excludes_zero(self, sigmas: float) -> bool:
        """True when |mean| exceeds sigmas standard errors plus a float floor
        of 1e-12, which a run with no spread must clear on its own."""
        return abs(self.mean) > sigmas * self.stderr + 1e-12


# The most batches a simulated run draws.  simulate peaks at about 500
# bytes a batch at the defaults and 790 at 16-digit counts (tracemalloc,
# 200,000 batches), so this bound keeps a run within about 0.8 GB; an
# exact run draws nothing and has no bound.
MAX_BATCHES = 2**20


def check_batches(n_batches: int, *, exact: bool) -> None:
    """The batch bounds of a run: at least 1 for an exact run, and from 2,
    since one noisy batch has no spread to summarize, to MAX_BATCHES for a
    simulated run.  Too few is an InsufficientBatchesError, too many a
    ValueError."""
    least = 1 if exact else 2
    if n_batches < least:
        run, noun = ("an exact", "batch") if exact else ("a simulated", "batches")
        raise InsufficientBatchesError(f"{run} run needs at least {least} {noun}, got {n_batches}")
    if not exact and n_batches > MAX_BATCHES:
        raise ValueError(
            f"a simulated run draws at most MAX_BATCHES = {MAX_BATCHES} batches, got {n_batches}"
        )


def _entropy(seed) -> list[int]:
    if isinstance(seed, (int, np.integer)):
        return [int(seed)]
    return [int(x) for x in seed]


def _readout_constants(p_true, det: DetectionParams) -> tuple[float, float, float]:
    """(mu_dark, N * mu_bg, reference mean) of a run, shared by all its batches.

    Refuses first a run whose seven probabilities the counting model
    cannot sample: Binomial(N, p) needs every p in [0, 1].
    """
    for p in p_true:
        if not 0.0 <= p <= 1.0:
            raise UnphysicalParameterError(
                f"true probability {p!r} is outside [0, 1]; "
                "the counting model cannot simulate it"
            )
    return det.mu_dark, det.shots * det.mu_bg, det.shots * (det.mu_bright + det.mu_bg)


def expected_estimates(p_true, det: DetectionParams) -> tuple[float, ...]:
    """Mean signal over mean reference of each experiment: the affine map
    C*p + d of p_true, C = (mu_bright - mu_dark) / (mu_bright + mu_bg).
    Refuses, as a run does, probabilities the counting model cannot sample."""
    mu_dark, bg, ref_mean = _readout_constants(p_true, det)
    n, dmu = det.shots, det.mu_bright - mu_dark
    return tuple((n * (mu_dark + p * dmu) + bg) / ref_mean for p in p_true)


def exact_probabilities(
    t: TargetAmplitudes, spec: MeasurementSpec, rule: ProbabilityRule
) -> tuple[float, ...]:
    """The seven rule probabilities of the protocol, the first step of every run."""
    return _rule_probabilities(t, spec, (rule,))[0]


def _rule_probabilities(t, spec, rules) -> list[tuple[float, ...]]:
    """exact_probabilities of each rule, from one measurement ket and one set of states."""
    m, states = measurement_ket(spec), prepare_states(t)
    return [tuple(probability(rule, m, psi) for psi in states) for rule in rules]


def sorkin_report(t: TargetAmplitudes, p) -> SorkinReport:
    """The interference terms and kappa of seven probabilities p, floats:
    the last step of every exact run, and of a simulated run on its mean
    estimates.  kappa refuses an I2 at or below KAPPA_FLOOR."""
    terms = second_order_terms(p, t)
    i3 = third_order_term(p, t)
    a2, b2, c2 = t.a**2, t.b**2, t.c**2
    return SorkinReport(
        t=t,
        p=tuple(p),
        q_a=a2 * p[4],
        q_b=b2 * p[5],
        q_c=c2 * p[6],
        I_ab=terms[0],
        I_ac=terms[1],
        I_bc=terms[2],
        I2=abs(terms[0]) + abs(terms[1]) + abs(terms[2]),
        I3=i3,
        kappa=kappa(i3, terms),
    )


def _read_out(p_true, det, n_batches, prefix) -> tuple[np.ndarray, np.ndarray]:
    """The int64 counts of a simulated run, (signals, ref) of shapes
    (n_batches, 7) and (n_batches,), every count drawn from the one stream
    default_rng(SeedSequence(prefix)) in three array calls: the
    (n_batches, 7) bright counts, the signals of the same shape, then each
    batch's shared reference.  p_true must be exactly seven values.

    The bright counts are drawn over a zero-stride (n_batches, 7) view of
    the seven probabilities, the operand np.broadcast_to gives, built
    without broadcast_to's iterator set-up.  numpy checks and draws it in
    C order, as it would a materialised array, so the counts are the same.
    Neither size= nor a materialised array is used: both draw these counts
    too, but right after a complex 3x3 matmul (the benchmark's reference
    kernel ends with one) their draws ran over twice as long, while the
    view's did not slow.
    """
    p = np.ascontiguousarray(p_true, dtype=float)
    if p.shape != (7,):
        raise ValueError(f"expected seven true probabilities, got shape {p.shape}")
    mu_dark, bg, ref_mean = _readout_constants(p_true, det)
    rng = np.random.default_rng(np.random.SeedSequence(prefix))
    bright = rng.binomial(det.shots, np.ndarray((n_batches, 7), buffer=p, strides=(0, 8)))
    signals = rng.poisson(bright * det.mu_bright + (det.shots - bright) * mu_dark + bg)
    return signals, rng.poisson(ref_mean, size=n_batches)


def sample_batches(
    t: TargetAmplitudes, p_true, det: DetectionParams | None, n_batches: int, master_seed
) -> SorkinReport:
    """The report of n_batches readouts of any seven true probabilities
    p_true, drawn from the one stream SeedSequence([*master_seed]) (see
    _read_out): sorkin_report of the mean p over the batches, holding the
    counts each batch's p was divided from.  det=None is an exact run, the
    report sorkin_report(t, p_true): it draws nothing and ignores n_batches
    beyond check_batches.  A run outside check_batches' bounds is refused
    before any stream is set up.
    """
    check_batches(n_batches, exact=det is None)
    if det is None:
        return sorkin_report(t, p_true)
    signals, ref = _read_out(p_true, det, n_batches, _entropy(master_seed))
    p = (signals / ref[:, None]).mean(axis=0).tolist()
    return replace(sorkin_report(t, p), counts=(signals, ref))


def run_protocol_batch(
    t: TargetAmplitudes,
    spec: MeasurementSpec,
    rule: ProbabilityRule,
    det: DetectionParams | None,
    seed,
) -> SorkinReport:
    """The report of one batch's seven floats; det=None reads out exact
    probabilities, else a run of one on its own stream SeedSequence([*seed])."""
    p = exact_probabilities(t, spec, rule)
    if det is not None:
        signals, ref = _read_out(p, det, 1, _entropy(seed))
        p = (signals[0] / ref[0]).tolist()
    return sorkin_report(t, p)


def run_batches(
    t: TargetAmplitudes,
    spec: MeasurementSpec,
    rule: ProbabilityRule,
    det: DetectionParams | None,
    n_batches: int,
    master_seed,
) -> SorkinReport:
    """sample_batches of the rule's exact probabilities."""
    return sample_batches(t, exact_probabilities(t, spec, rule), det, n_batches, master_seed)


def _t975(df: int) -> float:
    """t(0.975, df), the Student-t quantile of a two-sided 95% interval, df >= 1.

    Hill's algorithm (CACM Algorithm 396, 1970): closed forms at df 1 and 2, a
    tail series at df 3, then an expansion about the normal quantile.  Relative
    error below 1e-6 up to df 10, 3e-9 from df 11 and 2e-12 from df 49.
    """
    tail = 0.05
    if df == 1:
        return 1.0 / math.tan(0.5 * math.pi * tail)
    if df == 2:
        return math.sqrt(2.0 / (tail * (2.0 - tail)) - 2.0)
    a = 1.0 / (df - 0.5)
    b = 48.0 / (a * a)
    c = ((20700.0 * a / b - 98.0) * a - 16.0) * a + 96.36
    d = ((94.5 / (b + c) - 3.0) / b + 1.0) * math.sqrt(0.5 * math.pi * a) * df
    y = (d * tail) ** (2.0 / df)
    if y > 0.05 + a:
        x = -1.9599639845400543  # the normal quantile at tail / 2
        y = x * x
        if df < 5:
            c += 0.3 * (df - 4.5) * (x + 0.6)
        c += (((0.05 * d * x - 5.0) * x - 7.0) * x - 2.0) * x + b
        y = (((((0.4 * y + 6.3) * y + 36.0) * y + 94.5) / c - y - 3.0) / b + 1.0) * x
        y = math.expm1(a * y * y)
    else:
        e = 1.0 / (((df + 6.0) / (df * y) - 0.089 * d - 0.822) * (df + 2.0) * 3.0)
        y = ((e + 0.5 / (df + 4.0)) * y - 1.0) * (df + 1.0) / (df + 2.0) + 1.0 / y
    return math.sqrt(df * y)


def estimate_kappa(report, *, seed=None) -> KappaEstimate:
    """The pooled summary of a simulated run of M >= 2 batches, from its
    mean estimates report.p and the batch estimates its counts rebuild;
    its mean is the report's kappa.  An exact run's report (counts None)
    gives its kappa k with no spread: KappaEstimate(k, 0.0, 0.0, (k, k)).

    It draws no random numbers.  seed is ignored; the benchmark's callers
    of the seeded bootstrap this replaced still pass one.
    """
    if report.counts is None:
        k = report.kappa
        return KappaEstimate(k, 0.0, 0.0, (k, k))
    signals, ref = report.counts
    check_batches(ref.size, exact=False)
    return _pooled_estimates(report.t, (signals / ref[:, None])[None], np.array([report.p]))[0]


@functools.lru_cache(maxsize=16)
def _coefficient_rows(t) -> np.ndarray:
    """The read-only (4, 7) coefficient rows of I3, I_ab, I_ac and I_bc, the
    linear terms at the unit vectors; cached, as a grid has one target."""
    rows = np.array([third_order_term(np.eye(7), t), *second_order_terms(np.eye(7), t)])
    rows.flags.writeable = False
    return rows


def _kappa_gradient(t, p) -> tuple[list[float], np.ndarray]:
    """kappa of each row of a (J, 7) array p, the floats sorkin_report gives
    (and refuses) for the row, and its gradient g = (c3 - kappa sum_xy
    sign(I_xy) grad I_xy) / I2, with c3 and grad I_xy the coefficient rows
    and the signs those of the terms at p.  The rows each sum to zero and
    g . p = 0, so g . (C p + d) = 0 for any affine map.
    """
    k, terms = [], []
    for x in p.tolist():
        pair = second_order_terms(x, t)
        k.append(kappa(third_order_term(x, t), pair))
        terms.append(pair)
    terms, coef = np.array(terms), _coefficient_rows(t)
    slope = (np.sign(terms)[:, :, None] * coef[1:]).sum(axis=1)
    return k, (coef[0] - np.array(k)[:, None] * slope) / np.abs(terms).sum(axis=1)[:, None]


def _pooled_estimates(t, block, p) -> list[KappaEstimate]:
    """The summary of each run of a C-contiguous (J, M, 7) block of
    estimates, a simulated run of M >= 2 batches a row, p its (J, 7) mean.

    The mean is kappa(p), the ratio of means (Cochran, Sampling Techniques,
    1977, ch. 6), refused at the floor; no single batch is refused.  To
    first order a batch's kappa moves by g . (x - p), so std is the sample
    std of block[j] @ g: sqrt(g' S g), S the estimates' sample covariance
    (the delta method; Efron, SIAM, 1982).  stderr = std / sqrt(M) and
    ci95 = mean -/+ t(0.975, M - 1) * stderr.
    """
    m = block.shape[1]
    k, g = _kappa_gradient(t, p)
    std = np.matmul(block, g[:, :, None])[..., 0].std(axis=-1, ddof=1)
    root, q = math.sqrt(m), _t975(m - 1)
    out = []
    for mean, s in zip(k, std.tolist()):
        stderr = s / root
        half = q * stderr
        out.append(KappaEstimate(mean, s, stderr, (mean - half, mean + half)))
    return out


def predicted_kappa_std(t, p_true, det: DetectionParams) -> float:
    """The per-batch kappa scale std the counting model predicts on the seven
    true probabilities p_true, to first order: g at the expected estimates
    (see _kappa_gradient) with the signals' variances.  The estimates are
    S_k / R, so since g . E[x] = 0 the shared reference R cancels, leaving
    sqrt(sum_k g_k^2 Var S_k) / E R, Var S_k = E S_k + N p_k (1 - p_k) dmu^2,
    E S_k = N (mu_dark + p_k dmu + mu_bg) and dmu = mu_bright - mu_dark.
    """
    _, g = _kappa_gradient(t, np.array([expected_estimates(p_true, det)]))
    p = np.array(p_true)
    n, dmu = det.shots, det.mu_bright - det.mu_dark
    var = n * (det.mu_dark + p * dmu + det.mu_bg) + n * p * (1.0 - p) * dmu**2
    return float(math.sqrt(g[0] ** 2 @ var) / (n * (det.mu_bright + det.mu_bg)))


@dataclass(frozen=True)
class SensitivityRow:
    epsilon: float
    kappa_mean: float
    kappa_std: float
    detected: bool


@dataclass(frozen=True)
class SensitivityScan:
    rows: tuple[SensitivityRow, ...]
    smallest_detected_eps: float | None
    # the strength the 3-sigma flag should detect (see sensitivity_scan)
    predicted_detectable_eps: float | None


# A simulated grid's rows are summarized together in blocks of at most
# this many batches, and a block always holds at least one row, so a grid's
# peak memory stays that of one large row.  At 2**16 batches a row, the
# per-row overhead of a summary is already below 1% of the draws.
_BLOCK_BATCHES = 2**16


def _grid_summaries(t, runs, n_batches, master_seed):
    """estimate_kappa of each grid row, row j a (p_true, det) pair.

    An exact row (det None) is summarized from sorkin_report(t, p_true) and
    draws nothing.  A simulated row j samples its batches under
    [*master_seed, j] into its slice of a block of consecutive simulated
    rows, freed before the next block is drawn; all of a block's rows are
    drawn before any is summarized, so a later row's refusal to sample
    fires before an earlier row's kappa floor.
    """
    runs = list(runs)
    check_batches(n_batches, exact=all(det is None for _, det in runs))
    prefix = _entropy(master_seed)
    per_block = max(1, _BLOCK_BATCHES // n_batches)
    for exact, group in groupby(enumerate(runs), key=lambda row: row[1][1] is None):
        rows = list(group)
        if exact:
            yield from (estimate_kappa(sorkin_report(t, p_true)) for _, (p_true, _) in rows)
            continue
        for start in range(0, len(rows), per_block):
            chunk = rows[start : start + per_block]
            block = np.empty((len(chunk), n_batches, 7))
            for i, (j, (p_true, det)) in enumerate(chunk):
                signals, ref = _read_out(p_true, det, n_batches, [*prefix, j])
                np.divide(signals, ref[:, None], out=block[i])
            yield from _pooled_estimates(t, block, block.mean(axis=1))


def sensitivity_scan(
    t: TargetAmplitudes,
    spec: MeasurementSpec,
    rule_family: str,
    eps_grid,
    det: DetectionParams | None,
    n_batches: int,
    master_seed,
) -> SensitivityScan:
    """kappa statistics per deformation strength, with a 3-sigma detection flag.

    Each row's mean and std are estimate_kappa of its batches, and the row
    is detected when that estimate excludes zero at 3 sigma.  Grid row j
    draws from seed prefix [*master_seed, j].

    The same rule predicts the detectable strength 3 sigma / (sqrt(M) |slope|):
    sigma is the counting model's Born kappa spread, the slope the exact
    kappa at the smallest nonzero strength over that strength.  None with
    no readout (det=None), no nonzero strength or a zero slope.
    """
    if rule_family not in DEFORMATIONS:
        raise ValueError(
            f"rule_family must be one of {DEFORMATIONS}, got {rule_family!r}"
        )
    eps_grid = [float(eps) for eps in eps_grid]
    born = ProbabilityRule.born()
    rules = [born if eps == 0 else ProbabilityRule(rule_family, eps) for eps in eps_grid]
    p_grid = _rule_probabilities(t, spec, rules)
    runs = ((p_true, det) for p_true in p_grid)
    rows = []
    smallest = None
    sigmas = 3.0
    for eps, est in zip(eps_grid, _grid_summaries(t, runs, n_batches, master_seed)):
        detected = est.excludes_zero(sigmas)
        rows.append(SensitivityRow(eps, est.mean, est.std, detected))
        if detected and smallest is None:
            smallest = eps
    nonzero = [(abs(eps), p_true) for eps, p_true in zip(eps_grid, p_grid) if eps != 0]
    predicted = None
    if det is not None and nonzero:
        eps, p_true = min(nonzero, key=lambda pair: pair[0])
        slope_kappa = sorkin_report(t, p_true).kappa
        if slope_kappa != 0.0:
            born_p = p_grid[rules.index(born)] if born in rules else None
            sigma = predicted_kappa_std(t, born_p or exact_probabilities(t, spec, born), det)
            predicted = sigmas * sigma * eps / (math.sqrt(n_batches) * abs(slope_kappa))
    return SensitivityScan(tuple(rows), smallest, predicted)


def scaling_check(
    t: TargetAmplitudes,
    spec: MeasurementSpec,
    det: DetectionParams | None,
    shots_list,
    n_batches: int,
    master_seed,
) -> list[tuple[int, float]]:
    """Empirical kappa std per shot count N, the std of estimate_kappa of
    each rung's batches, for shot-noise scaling checks.

    Grid row j draws from seed prefix [*master_seed, j].
    """
    shots_list = [int(n) for n in shots_list]
    if shots_list != sorted(shots_list):
        raise ValueError("shots_list must be ascending")
    p_true = exact_probabilities(t, spec, ProbabilityRule.born())
    runs = ((p_true, None if det is None else replace(det, shots=n)) for n in shots_list)
    summaries = _grid_summaries(t, runs, n_batches, master_seed)
    return [(n, est.std) for n, est in zip(shots_list, summaries)]


def batch_csv_text(report) -> str:
    """The batch CSV (sorkin-lab.batches/2) of a simulated run's report:
    the header batch,s1..s7,ref, then a line of integers per batch, its
    index, seven signal counts and reference count, each printed as str
    prints a Python int.  Batch b's p is signals[b] / ref[b].  An exact
    run's report, which holds no counts, is refused, and so is a negative
    count; a report of no batches gives the header alone.

    The digits of all fields are formed at once.  Each field gets a row of
    width + 1 bytes, width the digit count of the largest value, and digit
    k (from the right) of a value x is (x // 10**k) % 10, taken as
    part - 10 * (part // 10) over the running quotient part, exact in
    integer arithmetic; values wider than 8 digits are first split into
    8-digit pieces below 2**32.  Digit k is kept when x >= 10**k, and the
    units digit always, so x prints with no leading zero and 0 as "0":
    the decimal form str gives a non-negative Python int.  The last byte of
    each row is its separator, "," or "\\n" after every ninth field."""
    if report.counts is None:
        raise ValueError("an exact run draws no counts, so it has no batch CSV")
    signals, ref = report.counts
    x = np.column_stack((np.arange(ref.size), signals, ref)).reshape(-1)
    least = int(x.min(initial=0))
    if least < 0:
        raise ValueError(f"a batch CSV holds counts, which are never negative, got {least}")
    width = len(str(int(x.max(initial=0))))
    # a row per field: its digits right-aligned in width bytes, then its separator
    cells = np.empty((x.size, width + 1), np.uint8)
    keep = np.ones(cells.shape, bool)
    for j in range(width - 1):
        np.greater_equal(x, 10 ** (width - 1 - j), out=keep[:, j])
    for end in range(width, 0, -8):
        # eight digits at a time, from the right, in uint32, whose division
        # by 10 is faster than int64's; 10**8 - 1 < 2**32
        if end > 8:
            high = x // 10**8
            part, x = (x - high * 10**8).astype(np.uint32), high
        else:
            part = x.astype(np.uint32)
        for j in range(end - 1, max(end - 8, 0) - 1, -1):
            q = part // 10
            np.subtract(part, q * 10, out=cells[:, j], casting="unsafe")
            part = q
    cells += ord("0")
    cells[:, width] = ord(",")
    cells[8::9, width] = ord("\n")
    text = cells[keep]
    del cells, keep  # freed before the text is decoded and joined to the header
    return "batch,s1,s2,s3,s4,s5,s6,s7,ref\n" + str(text, "ascii")
