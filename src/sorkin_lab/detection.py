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
cancels from kappa exactly.  A batch's report is sorkin_report(t, p) of
its seven estimates p, as an exact run's is of the exact probabilities:
the report records neither seed nor shot count.

Seeding is splittable and documented: the RNG stream for experiment k of
batch b under master seed s is numpy's SeedSequence([s, b, k]), and the
shared batch reference uses k = 7.  Batches are therefore independent of
execution order.  A run sets all its streams up in one pass: _seed_words
runs SeedSequence's hash over the n_batches x 8 entropy rows at once, as
uint32 array operations, and each stream is then PCG64 seeded with its
precomputed words.  That is the very generator
default_rng(SeedSequence([s, b, k])) builds, at about an eighth of its
set-up cost.
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

REFERENCE_STREAM = 7

# Least expected reference count per estimate: P(zero reference) = e^-50.
MIN_REFERENCE_PHOTONS = 50.0
# Most shots, and most expected reference photons, per estimate: counts up
# to 2**53 are exact in float64 (numpy's Poisson sampler stops near 9.2e18).
MAX_COUNT = 2**53

BATCH_CSV_SCHEMA = "sorkin-lab.batches/1"
SUMMARY_JSON_SCHEMA = "sorkin-lab.summary/5"

_CSV_COLUMNS = (
    "batch,p1,p2,p3,p4,p5,p6,p7,I_ab,I_ac,I_bc,I2,I3,kappa"
)


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


def _entropy(seed) -> list[int]:
    if isinstance(seed, (int, np.integer)):
        return [int(seed)]
    return [int(x) for x in seed]


# numpy's SeedSequence: pool size and hash constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF


def _words(entropy: list[int]) -> list[int]:
    """The uint32 words SeedSequence assembles from a list of ints.

    Each int contributes its 32-bit words, least significant first (0 gives
    one word); the lists are concatenated.
    """
    words = []
    for x in entropy:
        if x < 0:
            raise ValueError(f"seed entropy must be non-negative, got {x!r}")
        while True:
            words.append(x & _MASK32)
            x >>= 32
            if not x:
                break
    return words


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """init * mult**i mod 2**32 for i < n, as a uint32 column."""
    out = [init]
    while len(out) < n:
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


def _hashmix(value, xor, mult):
    value = (value ^ xor) * mult
    return value ^ (value >> _XSHIFT)


def _mix(x, y):
    r = x * _MIX_MULT_L - y * _MIX_MULT_R
    return r ^ (r >> _XSHIFT)


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(row).generate_state(4, np.uint64) for each entropy row.

    entropy is an (n, L) uint32 array of assembled words; the result is
    (n, 4) uint64.  This is numpy's algorithm with the stream axis last:
    hash the first four words (zeros past L) into the pool, mix every pool
    word into every other, fold in words beyond the fourth, then hash the
    pool out twice.  The hash constants advance the same way for every row,
    so each step is one array operation over all rows.
    """
    n, width = entropy.shape
    size = _POOL_SIZE
    extra = max(width - size, 0)
    # hashmix call j xors a[j] and multiplies by a[j + 1]
    a = _hash_constants(_INIT_A, _MULT_A, size * (size + extra) + 1)
    words = np.zeros((size, n), dtype=np.uint32)
    words[:width] = entropy[:, :size].T
    pool = _hashmix(words, a[:size], a[1 : size + 1])
    j = size
    for src in range(size):
        dst = [d for d in range(size) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], a[j : j + size - 1], a[j + 1 : j + size]))
        j += size - 1
    for src in range(size, width):
        pool = _mix(pool, _hashmix(entropy[:, src], a[j : j + size], a[j + 1 : j + size + 1]))
        j += size
    b = _hash_constants(_INIT_B, _MULT_B, 2 * size + 1)
    state = _hashmix(np.tile(pool, (2, 1)), b[:-1], b[1:])
    # pairs of uint32 words read as little-endian uint64, as numpy does
    return np.ascontiguousarray(state.T).astype("<u4").view("<u8").astype(np.uint64)


def _stream_seeds(batch_words: np.ndarray) -> np.ndarray:
    """PCG64 seeds of every stream of a set of batches, shape (n, 8, 4).

    Row b of batch_words holds batch b's entropy words; its stream k is
    SeedSequence([*row, k]) for k < 7 and the reference k = 7.
    """
    # numpy.random loads here, at a run's first draw, not on import
    np.random.bit_generator.ISeedSequence.register(_HashedSeed)
    n, width = batch_words.shape
    entropy = np.empty((n, REFERENCE_STREAM + 1, width + 1), dtype=np.uint32)
    entropy[:, :, :width] = batch_words[:, None, :]
    entropy[:, :, width] = np.arange(REFERENCE_STREAM + 1)
    return _seed_words(entropy.reshape(-1, width + 1)).reshape(n, REFERENCE_STREAM + 1, 4)


def _run_seeds(prefix: list[int], n_batches: int) -> np.ndarray:
    """Seeds of a run's streams: row (b, k) seeds SeedSequence([*prefix, b, k])."""
    head = _words(prefix)
    batch_words = np.empty((n_batches, len(head) + 1), dtype=np.uint32)
    batch_words[:, :-1] = head
    batch_words[:, -1] = np.arange(n_batches)
    return _stream_seeds(batch_words)


class _HashedSeed:
    """One stream's precomputed SeedSequence output, for seeding PCG64.

    PCG64 seeds itself from generate_state(4, np.uint64) and asks for
    nothing else.  _stream_seeds registers this class as numpy's
    ISeedSequence, which PCG64 requires of a seed it does not hash itself.
    """

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a pre-hashed stream holds exactly four uint64 words")
        return self.state


def _generator(state: np.ndarray) -> np.random.Generator:
    """The generator default_rng builds from the SeedSequence whose output is state."""
    return np.random.Generator(np.random.PCG64(_HashedSeed(state)))


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
    """The interference terms and kappa of seven probabilities p, the last
    step of every run, exact or simulated alike; kappa refuses an I2 at or
    below KAPPA_FLOOR."""
    terms = second_order_terms(p, t)
    i3 = third_order_term(p, t)
    kap = kappa(i3, terms)
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
        kappa=kap,
    )


def _draw(t, p_true, det, readout, seeds) -> SorkinReport:
    """One simulated batch: experiment k draws from stream seeds[k], and the
    seven signals share the reference drawn from seeds[REFERENCE_STREAM]."""
    mu_dark, bg, ref_mean = readout
    rng = [_generator(s) for s in seeds]
    signals = []
    for k in range(7):
        bright = rng[k].binomial(det.shots, p_true[k])
        lam = bright * det.mu_bright + (det.shots - bright) * mu_dark + bg
        signals.append(int(rng[k].poisson(lam)))
    ref = int(rng[REFERENCE_STREAM].poisson(ref_mean))
    return sorkin_report(t, tuple(s / ref for s in signals))


def sample_batches(
    t: TargetAmplitudes, p_true, det: DetectionParams | None, n_batches: int, master_seed
) -> list[SorkinReport]:
    """n_batches readouts of any seven true probabilities p_true; det=None
    reports p_true itself.  Experiment k of batch b draws from
    SeedSequence([*master_seed, b, k]), the batch's reference from k = 7.
    """
    if det is None:
        return [sorkin_report(t, p_true)] * n_batches
    readout = _readout_constants(p_true, det)
    seeds = _run_seeds(_entropy(master_seed), n_batches)
    return [_draw(t, p_true, det, readout, batch) for batch in seeds]


def run_protocol_batch(
    t: TargetAmplitudes,
    spec: MeasurementSpec,
    rule: ProbabilityRule,
    det: DetectionParams | None,
    seed,
) -> SorkinReport:
    """One seven-experiment batch; det=None runs on exact probabilities.

    In simulated mode experiment k draws from SeedSequence([*seed, k]) and
    the seven estimates share one reference draw, from k = 7.
    """
    p_true = exact_probabilities(t, spec, rule)
    if det is None:
        return sorkin_report(t, p_true)
    seeds = _stream_seeds(np.array([_words(_entropy(seed))], dtype=np.uint32))[0]
    return _draw(t, p_true, det, _readout_constants(p_true, det), seeds)


def run_batches(
    t: TargetAmplitudes,
    spec: MeasurementSpec,
    rule: ProbabilityRule,
    det: DetectionParams | None,
    n_batches: int,
    master_seed,
) -> list[SorkinReport]:
    """sample_batches of the rule's exact probabilities; batch b equals
    run_protocol_batch(..., (*master_seed, b))."""
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


def estimate_kappa(reports, *, seed=None) -> KappaEstimate:
    """Mean, sample std, stderr and ci95 = mean -/+ t(0.975, M - 1) * stderr.

    A pure O(M) function of the M batch kappas: it draws no random numbers.
    seed is ignored; callers of the seeded bootstrap this replaced
    (perfbench/workloads.py) still pass one.
    """
    k = np.array([r.kappa for r in reports], dtype=float)
    m = k.size
    if m < 2:
        raise InsufficientBatchesError(
            f"need at least 2 batches for a spread estimate, got {m}"
        )
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
    c3 = np.array([third_order_term(e, t) for e in np.eye(7)])
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


def _grid_kappas(t, runs, n_batches, master_seed):
    """Batch kappas per grid row; row j samples its (p_true, det) under [*master_seed, j]."""
    prefix = _entropy(master_seed)
    for j, (p_true, det) in enumerate(runs):
        reports = sample_batches(t, p_true, det, n_batches, (*prefix, j))
        yield np.array([r.kappa for r in reports], dtype=float)


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

    A grid point is detected when |mean kappa| exceeds 3 * std / sqrt(M).
    Grid row j draws from seed prefix [*master_seed, j].

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
    for eps, k in zip(eps_grid, _grid_kappas(t, runs, n_batches, master_seed)):
        k_mean = float(k.mean())
        k_std = float(k.std(ddof=1)) if k.size > 1 else 0.0
        threshold = max(3.0 * k_std / math.sqrt(k.size), 1e-12)
        detected = abs(k_mean) > threshold
        rows.append(SensitivityRow(eps, k_mean, k_std, detected))
        if detected and smallest is None:
            smallest = eps
    nonzero = [(abs(eps), p_true) for eps, p_true in zip(eps_grid, p_grid) if eps != 0]
    predicted = None
    if det is not None and nonzero:
        eps, p_true = min(nonzero, key=lambda pair: pair[0])
        slope_kappa = sorkin_report(t, p_true).kappa
        if slope_kappa != 0.0:
            sigma = predicted_kappa_std(t, exact_probabilities(t, spec, born), det)
            predicted = 3.0 * sigma * eps / (math.sqrt(n_batches) * abs(slope_kappa))
    return SensitivityScan(tuple(rows), smallest, predicted)


def scaling_check(
    t: TargetAmplitudes,
    spec: MeasurementSpec,
    det: DetectionParams | None,
    shots_list,
    n_batches: int,
    master_seed,
) -> list[tuple[int, float]]:
    """Empirical kappa std per shot count N, for shot-noise scaling checks.

    Grid row j draws from seed prefix [*master_seed, j].
    """
    shots_list = [int(n) for n in shots_list]
    if shots_list != sorted(shots_list):
        raise ValueError("shots_list must be ascending")
    p_true = exact_probabilities(t, spec, ProbabilityRule.born())
    runs = ((p_true, None if det is None else replace(det, shots=n)) for n in shots_list)
    kappas = _grid_kappas(t, runs, n_batches, master_seed)
    return [(n, float(k.std(ddof=1))) for n, k in zip(shots_list, kappas)]


def batch_csv_text(reports) -> str:
    """Per-batch CSV series; floats use repr so reruns are byte-identical."""
    lines = [_CSV_COLUMNS]
    for b, r in enumerate(reports):
        fields = [str(b)]
        fields += [repr(float(x)) for x in r.p]
        fields += [
            repr(float(x))
            for x in (r.I_ab, r.I_ac, r.I_bc, r.I2, r.I3, r.kappa)
        ]
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"
