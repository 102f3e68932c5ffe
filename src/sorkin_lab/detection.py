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
cancels from kappa exactly.  A simulated run of M >= 2 batches is its
counts, Readout(t, signals, ref), which its batch CSV
(sorkin-lab.batches/3) writes whole; batch b's estimates are signals[b]
/ ref[b], which int64 / int64 rounds as Python's int / int does below
2**53.  An exact run is sorkin_report(t, p_true) whatever its batch count
(at least 1): it draws nothing, has no counts and no CSV, and its kappa
has no spread.

estimate_kappa is the one summary of a run, for simulate, every
sensitivity row and every shot-ladder rung alike: kappa of the mean
estimates, with a delta-method spread (see _pooled_estimates), and
KappaEstimate.excludes_zero the one significance rule: the t statistic
mean / stderr, of M - 1 degrees of freedom, beyond the t quantile whose
two-sided tail is the normal's at 5 sigma for the Born null of simulate,
at 3 sigma for a scan row.

A grid (a sensitivity scan or a shot ladder) is all exact or all drawn.
It reports each exact row from its seven floats, and draws each simulated
row on its own stream, as a run of its own, dividing its counts straight
into the row's (M, 7) slice of a C-contiguous (J, M, 7) block of at most
2**16 batches (a block always holds at least one row).  The block gets
one pooled summary, of which a single run is the (1, M, 7) case.  Each
row's mean adds batch after batch, as its run's does, and numpy sums
each row of the C-contiguous (J, M) projections pairwise, as it sums the
row alone, so each row's summary is its run's bit for bit.

Seeding is documented: a run draws from one stream,
default_rng(SeedSequence([*prefix])), where the prefix is the run's
master seed, or [*master_seed, j] for row j of a sensitivity scan or shot
ladder.  It draws in three array calls, in this order: the bright counts,
Binomial(N, p) experiment-major, the M batches of experiment 1, then of
experiment 2 and so on (a (7, M) zero-stride view of the seven p, see
_read_out); the signals, Poisson over (M, 7) batch-major, the seven
experiments of batch 0, then of batch 1 and so on; then each batch's
reference, M Poisson draws.  SeedSequence zero-pads entropy shorter than
four words, so [s] and [s, 0] name one stream: simulate at seed s draws
what row 0 of a scan at seed s draws.  No run reuses a stream within
itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

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

BATCH_CSV_SCHEMA = "sorkin-lab.batches/3"
SUMMARY_JSON_SCHEMA = "sorkin-lab.summary/9"


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
        # checked first: shots * rate overflows for a count past float range
        most = math.floor(min(MAX_COUNT, _MAX_MEAN / rate))
        if self.shots > most:
            raise ValueError(
                f"shots = {self.shots} is too many: drawn counts must stay at most 2**53, "
                f"10 sigma above their mean, so these rates allow shots <= {most}"
            )
        if self.shots * rate < MIN_REFERENCE_PHOTONS:
            least = MIN_REFERENCE_PHOTONS / rate  # inf at a subnormal rate
            raise ValueError(
                f"shots = {self.shots} gives {self.shots * rate:.6g} expected "
                f"reference photons, fewer than {MIN_REFERENCE_PHOTONS:g}; these "
                f"rates need shots >= {math.ceil(least) if math.isfinite(least) else least}"
            )

    @property
    def mu_dark(self) -> float:
        return self.mu_bright * (1.0 - self.contrast)


@dataclass(frozen=True)
class KappaEstimate:
    """A run's kappa, per-batch std, stderr, 95% interval and the degrees of
    freedom df of its t statistic mean / stderr: M - 1 for a simulated run
    of M batches, 0 for an exact run, which has no spread (see
    _pooled_estimates)."""

    mean: float
    std: float
    stderr: float
    ci95: tuple[float, float]
    df: int

    def excludes_zero(self, sigmas: float) -> bool:
        """True when the t statistic |mean| / stderr, of df degrees of
        freedom, is as unlikely as a normal one beyond sigmas: |mean|
        exceeds _t_quantile(df, sigmas) standard errors plus a float floor
        of 1e-12.  An exact run (df 0) has no spread and must clear the
        floor on its own."""
        if self.df == 0:
            return abs(self.mean) > 1e-12
        return abs(self.mean) > _t_quantile(self.df, sigmas) * self.stderr + 1e-12


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


class Readout(NamedTuple):
    """A simulated run's record: the target t and the int64 counts it drew,
    signals (M, 7) and each batch's shared reference ref (M,)."""

    t: TargetAmplitudes
    signals: np.ndarray
    ref: np.ndarray


def sorkin_report(t: TargetAmplitudes, p) -> SorkinReport:
    """The interference terms and kappa of seven probabilities p, floats;
    kappa refuses an I2 at or below KAPPA_FLOOR."""
    terms = second_order_terms(p, t)
    i3 = third_order_term(p, t)
    a2, b2, c2 = t.a**2, t.b**2, t.c**2
    return SorkinReport(
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
    default_rng(SeedSequence(prefix)) in three array calls: the bright
    counts, experiment by experiment, each experiment's n_batches in turn;
    the signals, batch by batch; then each batch's shared reference.
    p_true must be exactly seven values.

    The bright counts are drawn over a (7, n_batches) view of the seven
    probabilities whose row k repeats p_k with stride zero, built with the
    ndarray constructor (no broadcast_to iterator set-up).  numpy draws it
    in C order, so p changes only between experiments, and its binomial
    sampler keeps its set-up for the last (n, p) (BTPE's; Kachitvichyanukul
    and Schmeiser, CACM 31(2), 1988) instead of redoing it on every draw.
    The signals are Poisson over the (n_batches, 7) transpose of those
    counts; numpy draws them in the C order of their own (n_batches, 7)
    output, so they stay batch-major and C-contiguous.  Seven size= draws,
    one an experiment, give the same counts, but right after a complex
    3x3 matmul (the benchmark's reference kernel ends with one) they ran
    about three times as long as on a clean CPU, while the view's draw did
    not slow.
    """
    p = np.ascontiguousarray(p_true, dtype=float)
    if p.shape != (7,):
        raise ValueError(f"expected seven true probabilities, got shape {p.shape}")
    mu_dark, bg, ref_mean = _readout_constants(p_true, det)
    rng = np.random.default_rng(np.random.SeedSequence(prefix))
    bright = rng.binomial(det.shots, np.ndarray((7, n_batches), buffer=p, strides=(8, 0))).T
    signals = rng.poisson(bright * det.mu_bright + (det.shots - bright) * mu_dark + bg)
    return signals, rng.poisson(ref_mean, size=n_batches)


def sample_batches(
    t: TargetAmplitudes, p_true, det: DetectionParams | None, n_batches: int, master_seed
) -> SorkinReport | Readout:
    """The counts of n_batches readouts of any seven true probabilities
    p_true, a Readout, drawn from the one stream SeedSequence([*master_seed])
    (see _read_out).  det=None is an exact run, sorkin_report(t, p_true): it
    draws nothing and ignores n_batches beyond check_batches.  A run outside
    check_batches' bounds is refused before any stream is set up."""
    check_batches(n_batches, exact=det is None)
    if det is None:
        return sorkin_report(t, p_true)
    return Readout(t, *_read_out(p_true, det, n_batches, _entropy(master_seed)))


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
) -> SorkinReport | Readout:
    """sample_batches of the rule's exact probabilities."""
    return sample_batches(t, exact_probabilities(t, spec, rule), det, n_batches, master_seed)


# The normal quantile at 0.975: erfc(_Z975 / sqrt(2)) is 0.05 exactly.
_Z975 = 1.9599639845400543


def _t_quantile(df: int, z: float) -> float:
    """The Student-t quantile of df >= 1 degrees of freedom whose two-sided
    tail is the normal's beyond z, erfc(z / sqrt(2)): t(0.975, df) at z =
    _Z975, and the threshold of a z-sigma significance rule on a t statistic.

    Hill's algorithm (CACM Algorithm 396, 1970): closed forms at df 1 and 2, a
    tail series at small df, then an expansion about the normal quantile at
    tail / 2, which is exactly -z.  At z = _Z975 the relative error is below
    1e-6 up to df 10, 3e-9 from df 11 and 2e-12 from df 49; at z = 3 and 5,
    below 3e-6 at any df.  A z that is not positive, or whose tail
    underflows (beyond about 38.5), is refused.
    """
    tail = math.erfc(z / math.sqrt(2.0))
    if not 0.0 < tail < 1.0:
        raise ValueError(f"z must be positive with a normal tail above 0, got {z!r}")
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
        x = -z
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


def estimate_kappa(run: SorkinReport | Readout, *, seed=None) -> KappaEstimate:
    """The pooled summary of a simulated run's Readout of M >= 2 batches,
    from its counts alone: the (1, M, 7) block of its estimates, divided
    once (see _pooled_estimates).  An exact run's report gives its kappa k
    with no spread: KappaEstimate(k, 0.0, 0.0, (k, k), 0).

    It draws no random numbers.  seed is ignored; the benchmark's callers
    of the seeded bootstrap this replaced still pass one.
    """
    if isinstance(run, SorkinReport):
        k = run.kappa
        return KappaEstimate(k, 0.0, 0.0, (k, k), 0)
    check_batches(run.ref.size, exact=False)
    return _pooled_estimates(run.t, (run.signals / run.ref[:, None])[None])[0]


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


def _pooled_estimates(t, block) -> list[KappaEstimate]:
    """The summary of each run of a C-contiguous (J, M, 7) block of
    estimates, a simulated run of M >= 2 batches a row, p its (J, 7) mean.

    The mean is kappa(p), the ratio of means (Cochran, Sampling Techniques,
    1977, ch. 6), refused at the floor; no single batch is refused.  To
    first order a batch's kappa moves by g . (x - p), so std is the sample
    std of block[j] @ g: sqrt(g' S g), S the estimates' sample covariance
    (the delta method; Efron, SIAM, 1982).  stderr = std / sqrt(M), df =
    M - 1 and ci95 = mean -/+ t(0.975, df) * stderr.
    """
    m = block.shape[1]
    k, g = _kappa_gradient(t, block.mean(axis=1))
    std = np.matmul(block, g[:, :, None])[..., 0].std(axis=-1, ddof=1)
    root, q = math.sqrt(m), _t_quantile(m - 1, _Z975)
    out = []
    for mean, s in zip(k, std.tolist()):
        stderr = s / root
        half = q * stderr
        out.append(KappaEstimate(mean, s, stderr, (mean - half, mean + half), m - 1))
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
    """estimate_kappa of each grid row, row j a (p_true, det) pair, with
    det None in every row (an exact grid, drawing nothing) or in none.

    A simulated row j samples its batches under [*master_seed, j] into its
    slice of a block of consecutive rows, freed before the next block is
    drawn; all of a block's rows are drawn before any is summarized, so a
    later row's refusal to sample fires before an earlier row's kappa floor.
    """
    runs = list(runs)
    exact = all(det is None for _, det in runs)
    check_batches(n_batches, exact=exact)
    if exact:
        yield from (estimate_kappa(sorkin_report(t, p_true)) for p_true, _ in runs)
        return
    prefix = _entropy(master_seed)
    per_block = max(1, _BLOCK_BATCHES // n_batches)
    for start in range(0, len(runs), per_block):
        chunk = runs[start : start + per_block]
        block = np.empty((len(chunk), n_batches, 7))
        for i, (p_true, det) in enumerate(chunk):
            signals, ref = _read_out(p_true, det, n_batches, [*prefix, start + i])
            np.divide(signals, ref[:, None], out=block[i])
        yield from _pooled_estimates(t, block)


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

    The paper's normal 3-sigma rule predicts the detectable strength 3 sigma
    / (sqrt(M) |slope|): sigma is the counting model's Born kappa spread,
    the slope the exact kappa at the smallest nonzero strength over that
    strength.  At few batches the t rule detects a larger strength.  None with
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


def batch_csv_text(run: SorkinReport | Readout) -> str:
    """The batch CSV (sorkin-lab.batches/3) of a simulated run's Readout,
    its whole record: the header batch,s1..s7,ref, then a line of integers
    per batch, its index, seven signal counts and reference count, each
    printed as str prints a Python int.  An exact run's report, which holds
    no counts, is refused, and so is a negative count; a Readout of no
    batches gives the header alone.

    The digits of all fields are formed at once.  Each field gets a row of
    width + 1 bytes, width the digit count of the largest value, and digit
    k (from the right) of a value x is (x // 10**k) % 10, taken as
    part - 10 * (part // 10) over the running quotient part, exact in
    integer arithmetic; values wider than 8 digits are first split into
    8-digit pieces below 2**32.  Digit k is kept when x >= 10**k, and the
    units digit always, so x prints with no leading zero and 0 as "0":
    the decimal form str gives a non-negative Python int.  The last byte of
    each row is its separator, "," or "\\n" after every ninth field."""
    if isinstance(run, SorkinReport):
        raise ValueError("an exact run draws no counts, so it has no batch CSV")
    x = np.column_stack((np.arange(run.ref.size), run.signals, run.ref)).reshape(-1)
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
