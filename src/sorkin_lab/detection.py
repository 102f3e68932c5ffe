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
cancels from kappa exactly.  A simulated run's report is sorkin_report(t, P)
of its (M, 7) estimates P, M >= 2: row b of each column is batch b's, and
the report records neither seed nor shots.  It also keeps the counts it
drew, the (M, 7) signals and the M references, and P = signals /
ref[:, None]; int64 / int64 rounds as Python's int / int does below 2**53,
so the counts rebuild P bit for bit.  They are the run's batch CSV
(sorkin-lab.batches/2).  An exact run is sorkin_report(t, p_true) of seven
floats, whatever its batch count beyond the check that it is at least 1:
it draws nothing, has no counts and no CSV, and its kappa has no spread.

estimate_kappa is the one summary of a run's kappa column, for simulate,
every sensitivity row and every shot-ladder rung alike, and
KappaEstimate.excludes_zero the one significance rule: 5 sigma for the
Born null of simulate, 3 sigma for a scan row.

A grid (a sensitivity scan or a shot ladder) reports each exact row from
its seven floats.  It draws each simulated row on its own stream, exactly
as a run of its own, and divides its counts straight into the row's
(M, 7) slice of a C-contiguous (J, M, 7) block of at most 2**16 batches
(a block always holds at least one row), keeping none of them.  No report
is built for a block: its (J, M) kappas are taken from its columns by the
calls sorkin_report makes, and get one row-wise summary, of which a
single run is the (1, M) case.  The layout keeps the bits: over the last
axis of a C-contiguous block numpy sums each row pairwise, exactly as it
sums the row alone, so each row's mean and std equal its run's bit for
bit.

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
SUMMARY_JSON_SCHEMA = "sorkin-lab.summary/7"


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
    """Mean, spread and Student-t 95% interval of kappa over M batches (see estimate_kappa)."""

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
    """The interference terms and kappa of seven probabilities p, or, as
    arrays, of every batch of a (..., 7) stack p, the last axis the
    experiment, such as a run's (M, 7) estimates.  The last step of every
    run, exact or simulated; kappa refuses an I2 at or below KAPPA_FLOOR,
    naming the batch within its run.  A grid's block takes only its kappas,
    by the same calls (see _block_kappas)."""
    stack = isinstance(p, np.ndarray) and p.ndim >= 2
    cols = np.moveaxis(p, -1, 0) if stack else p
    terms = second_order_terms(cols, t)
    i3 = third_order_term(cols, t)
    kap = kappa(i3, terms)
    a2, b2, c2 = t.a**2, t.b**2, t.c**2
    return SorkinReport(
        p=p if stack else tuple(p),
        q_a=a2 * cols[4],
        q_b=b2 * cols[5],
        q_c=c2 * cols[6],
        I_ab=terms[0],
        I_ac=terms[1],
        I_bc=terms[2],
        I2=abs(terms[0]) + abs(terms[1]) + abs(terms[2]),
        I3=i3,
        kappa=kap,
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
    p_true, one row a batch, with the counts its p was divided from, drawn
    from the one stream SeedSequence([*master_seed]) (see _read_out).
    det=None is an exact run, the float report sorkin_report(t, p_true):
    it draws nothing and ignores n_batches beyond check_batches.  A run
    outside check_batches' bounds is refused before any stream is set up.
    """
    check_batches(n_batches, exact=det is None)
    if det is None:
        return sorkin_report(t, p_true)
    signals, ref = _read_out(p_true, det, n_batches, _entropy(master_seed))
    return replace(sorkin_report(t, signals / ref[:, None]), counts=(signals, ref))


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
    """Mean, sample std, stderr and ci95 = mean -/+ t(0.975, M - 1) * stderr
    of a simulated run's kappa column of M >= 2 batches (a column outside
    check_batches' bounds is refused).  An exact run's report, whose kappa
    is one float k, gives k with no spread: KappaEstimate(k, 0.0, 0.0, (k, k)).

    A pure O(M) function of the M batch kappas: it draws no random numbers.
    seed is ignored; callers of the seeded bootstrap this replaced
    (perfbench/workloads.py) still pass one.  The run is summarized as a
    (1, M) block of _kappa_estimates, the summary of every simulated grid
    row too.
    """
    k = report.kappa
    if isinstance(k, float):
        return KappaEstimate(k, 0.0, 0.0, (k, k))
    k = np.asarray(k, dtype=float).reshape(1, -1)
    check_batches(k.size, exact=False)
    return _kappa_estimates(k)[0]


def _kappa_estimates(k) -> list[KappaEstimate]:
    """estimate_kappa of each row of a (J, M) block of batch kappas, one
    simulated run a row, M >= 2.

    The block is reduced over its last axis in C order, in which numpy sums
    each row as it sums the row alone; an F-ordered block's sums may differ
    in the last bits.
    """
    k = np.ascontiguousarray(k)
    m = k.shape[-1]
    root, t = math.sqrt(m), _t975(m - 1)
    out = []
    for mean, std in zip(k.mean(axis=-1).tolist(), k.std(axis=-1, ddof=1).tolist()):
        stderr = std / root
        half = t * stderr
        out.append(KappaEstimate(mean, std, stderr, (mean - half, mean + half)))
    return out


def predicted_kappa_std(t, p_true, det: DetectionParams) -> float:
    """Batch kappa std of the counting model on the seven true probabilities
    p_true, to first order (delta method).

    kappa is invariant under the shared reference and a common affine map
    of the signals, so sigma_kappa = sqrt(sum_k c3_k^2 Var S_k) / I2(E S),
    with c3_k the coefficients of I3, E S_k = N (mu_dark + p_k dmu + mu_bg)
    and Var S_k = E S_k + N p_k (1 - p_k) dmu^2, dmu = mu_bright - mu_dark.
    The I2 gradient term carries I3(E S), zero under Born, and is dropped.
    """
    p = np.array(p_true)
    n, dmu = det.shots, det.mu_bright - det.mu_dark
    mean = n * (det.mu_dark + p * dmu + det.mu_bg)
    var = mean + n * p * (1.0 - p) * dmu**2
    c3 = third_order_term(np.eye(7), t)
    i2 = sum(abs(x) for x in second_order_terms(mean, t))
    return float(math.sqrt(c3**2 @ var) / i2)


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


# A simulated grid's rows are reported and summarized together in blocks
# of at most this many batches, and a block always holds at least one row,
# so a grid's peak memory stays that of one large row.  At 2**16 batches a
# row, the per-row overhead of a report and a summary is already below 1%
# of the draws.
_BLOCK_BATCHES = 2**16


def _grid_summaries(t, runs, n_batches, master_seed):
    """estimate_kappa of each grid row, row j a (p_true, det) pair.

    An exact row (det None) is summarized from sorkin_report(t, p_true) and
    draws nothing.  A simulated row j samples its batches under
    [*master_seed, j], in blocks of consecutive simulated rows, all drawn
    before any is reported (see the module docstring), so a later row's
    refusal to sample fires before an earlier row's kappa floor.
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
            block = rows[start : start + per_block]
            yield from _kappa_estimates(_block_kappas(t, block, n_batches, prefix))


def _block_kappas(t, rows, n_batches, prefix) -> np.ndarray:
    """The (J, M) kappas of the simulated grid rows (j, (p_true, det)).

    Each row's counts are divided straight into its slice of one
    C-contiguous (J, M, 7) block, freed on return, before the next block
    is drawn; the kappas are taken from the block's columns by the calls
    sorkin_report makes, with no report built."""
    block = np.empty((len(rows), n_batches, 7))
    for i, (j, (p_true, det)) in enumerate(rows):
        signals, ref = _read_out(p_true, det, n_batches, [*prefix, j])
        np.divide(signals, ref[:, None], out=block[i])
    cols = np.moveaxis(block, -1, 0)
    return kappa(third_order_term(cols, t), second_order_terms(cols, t))


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
