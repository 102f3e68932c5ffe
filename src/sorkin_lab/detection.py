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
cancels from kappa exactly.  A run's report is sorkin_report(t, P) of its
(M, 7) estimates P, as an exact run's is of p_true in every row: row b of
each column is batch b's, and the report records neither seed nor shots.
A simulated run's report also keeps the counts it drew, the (M, 7) signals
and the M references, and P = signals / ref[:, None]; int64 / int64 rounds
as Python's int / int does below 2**53, so the counts rebuild P bit for
bit.  They are the run's batch CSV (sorkin-lab.batches/2): an exact run
draws no counts and has none.

estimate_kappa is the one summary of a run's kappa column, for simulate,
every sensitivity row and every shot-ladder rung alike, and
KappaEstimate.excludes_zero the one significance rule: 5 sigma for the
Born null of simulate, 3 sigma for a scan row.

A grid (a sensitivity scan or a shot ladder) draws each row on its own
stream, exactly as a run of its own, divides its counts and keeps none of
them, then stacks the rows' (M, 7) estimates C-contiguously into
(J, M, 7) blocks of at most 2**16 batches (a block always holds at least
one row).  Each block gets one report and its (J, M) kappas one row-wise
summary, of which a single run is the (1, M) case.  The layout keeps the
bits: over the last axis of a C-contiguous block numpy sums each row
pairwise, exactly as it sums the row alone, so each row's mean and std
equal its run's bit for bit.

Seeding is documented: a run draws from one stream,
default_rng(SeedSequence([*prefix])), where the prefix is the run's
master seed, or [*master_seed, j] for row j of a sensitivity scan or shot
ladder.  It draws in three array calls, in this order: the bright counts
of every batch and experiment, Binomial(N, p) over an (M, 7) batch-major
array; the signals, Poisson over the same shape; then each batch's
reference, M Poisson draws.  SeedSequence zero-pads entropy shorter than
four words, so [s] and [s, 0] name one stream: simulate at seed s draws
what row 0 of a scan at seed s draws.  No run reuses a stream within
itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
# Most shots, and most expected reference photons, per estimate: counts up
# to 2**53 are exact in float64 (numpy's Poisson sampler stops near 9.2e18).
MAX_COUNT = 2**53

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
        most = min(MAX_COUNT, math.floor(MAX_COUNT / rate))
        if self.shots > most:
            raise ValueError(
                f"shots = {self.shots} gives {self.shots * rate:.6g} expected "
                f"reference photons; counts must stay at most 2**53, so these "
                f"rates allow shots <= {most}"
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
    experiment: a run's (M, 7) estimates or a grid's (J, M, 7) block.  The
    last step of every run, exact or simulated; kappa refuses an I2 at or
    below KAPPA_FLOOR, naming the batch within its run."""
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
    batch's shared reference."""
    mu_dark, bg, ref_mean = _readout_constants(p_true, det)
    rng = np.random.default_rng(np.random.SeedSequence(prefix))
    bright = rng.binomial(det.shots, np.broadcast_to(p_true, (n_batches, 7)))
    signals = rng.poisson(bright * det.mu_bright + (det.shots - bright) * mu_dark + bg)
    return signals, rng.poisson(ref_mean, size=n_batches)


def sample_batches(
    t: TargetAmplitudes, p_true, det: DetectionParams | None, n_batches: int, master_seed
) -> SorkinReport:
    """The report of n_batches readouts of any seven true probabilities
    p_true, one row a batch, with the counts its p was divided from;
    det=None reads out p_true itself in every row and draws no counts.
    The run draws from the one stream SeedSequence([*master_seed]) (see
    _read_out).  A simulated run of fewer than 2 batches, which has no
    spread to summarize, is refused before its stream is set up.
    """
    if det is None:
        return sorkin_report(t, np.broadcast_to(p_true, (n_batches, 7)))
    signals, ref = _counts(p_true, det, n_batches, master_seed)
    return replace(sorkin_report(t, signals / ref[:, None]), counts=(signals, ref))


def _counts(p_true, det, n_batches, master_seed) -> tuple[np.ndarray, np.ndarray]:
    """The counts of a simulated run (see sample_batches)."""
    if n_batches < 2:
        raise InsufficientBatchesError(
            f"a simulated run needs at least 2 batches for a spread estimate, got {n_batches}"
        )
    return _read_out(p_true, det, n_batches, _entropy(master_seed))


def _estimates(p_true, det, n_batches, master_seed) -> np.ndarray:
    """The (n_batches, 7) estimates of a run (see sample_batches), its
    counts divided and dropped."""
    if det is None:
        return np.broadcast_to(p_true, (n_batches, 7))
    signals, ref = _counts(p_true, det, n_batches, master_seed)
    return signals / ref[:, None]


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
    of a run's kappa column; M equal kappas k, as in an exact run or the one
    batch only an exact run may have, give k with no spread.  A run of no
    batches is refused.

    A pure O(M) function of the M batch kappas: it draws no random numbers.
    seed is ignored; callers of the seeded bootstrap this replaced
    (perfbench/workloads.py) still pass one.  The run is summarized as a
    (1, M) block of _kappa_estimates, the summary of every grid row too.
    """
    return _kappa_estimates(np.asarray(report.kappa, dtype=float).reshape(1, -1))[0]


def _kappa_estimates(k) -> list[KappaEstimate]:
    """estimate_kappa of each row of a (J, M) block of batch kappas, one run a row.

    The block is reduced over its last axis in C order, in which numpy sums
    each row as it sums the row alone; an F-ordered block's sums may differ
    in the last bits.
    """
    k = np.ascontiguousarray(k)
    m = k.shape[-1]
    if m == 0:
        raise InsufficientBatchesError("a run needs at least 1 batch, got 0")
    firsts = k[:, 0].tolist()
    flat = (k == k[:, :1]).all(axis=-1)
    if flat.all():  # no row has a spread, as no run of one batch has: skip std's warning
        return [KappaEstimate(x, 0.0, 0.0, (x, x)) for x in firsts]
    root, t = math.sqrt(m), _t975(m - 1)
    out = []
    rows = zip(firsts, flat.tolist(), k.mean(axis=-1).tolist(), k.std(axis=-1, ddof=1).tolist())
    for first, same, mean, std in rows:
        if same:
            out.append(KappaEstimate(first, 0.0, 0.0, (first, first)))
        else:
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


# A grid's rows are reported and summarized together in blocks of at most
# this many batches, and a block always holds at least one row, so a grid's
# peak memory stays that of one large row.  At 2**16 batches a row, the
# per-row overhead of a report and a summary is already below 1% of the draws.
_BLOCK_BATCHES = 2**16


def _grid_summaries(t, runs, n_batches, master_seed):
    """estimate_kappa of each grid row; row j samples its (p_true, det) under [*master_seed, j].

    A block's rows are all drawn before any is reported (see the module
    docstring), so a later row's refusal to sample fires before an earlier
    row's kappa floor.
    """
    prefix = _entropy(master_seed)
    runs = list(runs)
    per_block = max(1, _BLOCK_BATCHES // max(n_batches, 1))
    for start in range(0, len(runs), per_block):
        rows = runs[start : start + per_block]
        yield from _kappa_estimates(_block_kappas(t, rows, start, n_batches, prefix))


def _block_kappas(t, rows, start, n_batches, prefix) -> np.ndarray:
    """The (J, M) kappas of the grid rows start, start + 1, ...; the block's
    estimates are freed on return, before the next block is drawn."""
    ests = [
        _estimates(p_true, det, n_batches, (*prefix, j))
        for j, (p_true, det) in enumerate(rows, start)
    ]
    # a row in a block of its own is reported in place, not copied
    block = ests[0][None] if len(ests) == 1 else np.stack(ests)
    return sorkin_report(t, block).kappa


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
    run's report, which holds no counts, is refused."""
    if report.counts is None:
        raise ValueError("an exact run draws no counts, so it has no batch CSV")
    signals, ref = report.counts
    table = np.column_stack((np.arange(ref.size), signals, ref)).ravel().tolist()
    # one format for the whole table; %d prints a Python int as str does
    lines = "%d,%d,%d,%d,%d,%d,%d,%d,%d\n" * ref.size
    return "batch,s1,s2,s3,s4,s5,s6,s7,ref\n" + lines % tuple(table)
