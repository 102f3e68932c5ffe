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

estimate_kappa is the one summary of a run's kappa column, for simulate,
every sensitivity row and every shot-ladder rung alike, and
KappaEstimate.excludes_zero the one significance rule: 5 sigma for the
Born null of simulate, 3 sigma for a scan row.

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

BATCH_CSV_SCHEMA = "sorkin-lab.batches/1"
SUMMARY_JSON_SCHEMA = "sorkin-lab.summary/6"

_CSV_COLUMNS = "batch,p1,p2,p3,p4,p5,p6,p7,I_ab,I_ac,I_bc,I2,I3,kappa"


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
    m = measurement_ket(spec)
    return tuple(probability(rule, m, psi) for psi in prepare_states(t))


def sorkin_report(t: TargetAmplitudes, p) -> SorkinReport:
    """The interference terms and kappa of seven probabilities p, or, as
    columns, of each row of a run's (M, 7) array p: the last step of every
    run, exact or simulated; kappa refuses an I2 at or below KAPPA_FLOOR."""
    stack = isinstance(p, np.ndarray) and p.ndim == 2
    cols = p.T if stack else p
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


def _read_out(p_true, det, n_batches, prefix) -> np.ndarray:
    """The (n_batches, 7) estimates of a simulated run, every count drawn
    from the one stream default_rng(SeedSequence(prefix)) in three array
    calls: the (n_batches, 7) bright counts, the signals of the same shape,
    then each batch's shared reference.  int64 / int64 rounds as Python's
    int / int does for counts below 2**53."""
    mu_dark, bg, ref_mean = _readout_constants(p_true, det)
    rng = np.random.default_rng(np.random.SeedSequence(prefix))
    bright = rng.binomial(det.shots, np.broadcast_to(p_true, (n_batches, 7)))
    signals = rng.poisson(bright * det.mu_bright + (det.shots - bright) * mu_dark + bg)
    ref = rng.poisson(ref_mean, size=n_batches)
    return signals / ref[:, None]


def sample_batches(
    t: TargetAmplitudes, p_true, det: DetectionParams | None, n_batches: int, master_seed
) -> SorkinReport:
    """The report of n_batches readouts of any seven true probabilities
    p_true, one row a batch; det=None reads out p_true itself in every row.
    The run draws from the one stream SeedSequence([*master_seed]) (see
    _read_out).  A simulated run of fewer than 2 batches, which has no
    spread to summarize, is refused before its stream is set up.
    """
    if det is None:
        return sorkin_report(t, np.broadcast_to(p_true, (n_batches, 7)))
    if n_batches < 2:
        raise InsufficientBatchesError(
            f"a simulated run needs at least 2 batches for a spread estimate, got {n_batches}"
        )
    return sorkin_report(t, _read_out(p_true, det, n_batches, _entropy(master_seed)))


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
        p = _read_out(p, det, 1, _entropy(seed))[0].tolist()
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
    (perfbench/workloads.py) still pass one.
    """
    k = np.asarray(report.kappa, dtype=float)
    m = k.size
    if m == 0:
        raise InsufficientBatchesError("a run needs at least 1 batch, got 0")
    if (k == k[0]).all():
        first = float(k[0])
        return KappaEstimate(first, 0.0, 0.0, (first, first))
    mean = float(k.mean())
    std = float(k.std(ddof=1))
    stderr = std / math.sqrt(m)
    half = _t975(m - 1) * stderr
    return KappaEstimate(mean=mean, std=std, stderr=stderr, ci95=(mean - half, mean + half))


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


def _grid_summaries(t, runs, n_batches, master_seed):
    """estimate_kappa of each grid row; row j samples its (p_true, det) under [*master_seed, j]."""
    prefix = _entropy(master_seed)
    for j, (p_true, det) in enumerate(runs):
        yield estimate_kappa(sample_batches(t, p_true, det, n_batches, (*prefix, j)))


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
    p_grid = [exact_probabilities(t, spec, rule) for rule in rules]
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
            sigma = predicted_kappa_std(t, exact_probabilities(t, spec, born), det)
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
    """Per-batch CSV series of a run's report; floats use repr so reruns
    are byte-identical."""
    r = report
    table = np.column_stack((r.p, r.I_ab, r.I_ac, r.I_bc, r.I2, r.I3, r.kappa)).tolist()
    lines = [_CSV_COLUMNS]
    lines += [",".join([str(b), *map(repr, row)]) for b, row in enumerate(table)]
    return "\n".join(lines) + "\n"
