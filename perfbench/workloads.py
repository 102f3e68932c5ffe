"""The benchmark's workloads.

A workload's constructor builds its validated inputs (timed as set-up).
``pass_inputs(i)`` derives the raw inputs of pass i from the seed alone.
``run`` is one pass: one user-level job made of the calls the CLI
subcommands make.  ``failures`` counts items whose outputs fail an oracle
that does not use the package, and ``artifact`` returns the pass's
deterministic outputs as bytes, for the digest.

Every call into the package sits in a span named ``<layer>.<function>``,
which costs one no-op context manager when the run is not traced.
"""

from __future__ import annotations

import functools
import math
import statistics

import numpy as np

from sorkin_lab import (
    MEASUREMENT_M1,
    MEASUREMENT_M2,
    DetectionParams,
    HamiltonianParams,
    MeasurementSpec,
    ProbabilityRule,
    PulseSegment,
    TargetAmplitudes,
    apply_schedule,
    estimate_kappa,
    inner_product,
    kappa,
    measurement_ket,
    prepare_states,
    probability,
    run_batches,
    rwa_fidelity,
    scaling_check,
    second_order_terms,
    sensitivity_scan,
    solve_schedule,
    third_order_term,
)
from sorkin_lab.detection import batch_csv_text

SQRT3 = math.sqrt(3.0)
PAPER_ABC = (1.0 / SQRT3, -1.0 / SQRT3, -1.0 / SQRT3)

# Shot-noise band of kappa's per-batch std at the default detection model
# (acceptance criterion 4).
KAPPA_STD_BAND = (5e-4, 2e-2)


def pass_rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


def pass_seed(seed: int, i: int) -> int:
    return int(pass_rng(seed, i).integers(2**32))


def measurement_vector(theta1: float, theta2: float) -> np.ndarray:
    """R2(theta2)^dag R1(theta1)^dag |0>, written out (real, |+1>,|0>,|-1>)."""
    c1, s1 = math.cos(theta1 / 2), math.sin(theta1 / 2)
    c2, s2 = math.cos(theta2 / 2), math.sin(theta2 / 2)
    return np.array([s2 * c1, c2 * c1, s1])


class Workload:
    """Defaults for workloads without run-level checks or a bootstrap."""

    def run_ok(self):
        return True

    def bootstrap_bytes(self):
        return 0


def exact_kappa(rule: str, eps: float, abc, m: np.ndarray) -> float:
    """kappa of the seven experiments from the rule's definition, in numpy."""
    a, b, c = abc
    ab, ac, bc = math.hypot(a, b), math.hypot(a, c), math.hypot(b, c)
    sa, sb, sc = (math.copysign(1.0, x) for x in (a, b, c))
    states = [
        (b, a, c),
        (b / ab, a / ab, 0.0),
        (0.0, a / ac, c / ac),
        (b / bc, 0.0, c / bc),
        (0.0, sa, 0.0),
        (sb, 0.0, 0.0),
        (0.0, 0.0, sc),
    ]
    p = []
    for psi in states:
        w = np.conj(m) * np.array(psi)
        if rule == "exponent":
            p.append(abs(w.sum()) ** (2.0 + eps))
        else:  # triple: w order is (|+1>, |0>, |-1>) = (b, a, c) paths
            p.append(abs(w.sum()) ** 2 + 2.0 * eps * (w[1] * np.conj(w[0]) * w[2]).real)
    a2, b2, c2 = a * a, b * b, c * c
    i3 = (
        p[0] - (a2 + b2) * p[1] - (a2 + c2) * p[2] - (b2 + c2) * p[3]
        + a2 * p[4] + b2 * p[5] + c2 * p[6]
    )
    i2 = (
        abs((a2 + b2) * p[1] - a2 * p[4] - b2 * p[5])
        + abs((a2 + c2) * p[2] - a2 * p[4] - c2 * p[6])
        + abs((b2 + c2) * p[3] - b2 * p[5] - c2 * p[6])
    )
    return i3 / i2


class NullSim(Workload):
    """One long Born run with simulated readout, its bootstrap and its CSV."""

    name = "null-sim"
    BATCHES = 1000

    def __init__(self, seed: int):
        self.seed = seed
        self.target = TargetAmplitudes(*PAPER_ABC)
        self.spec = MEASUREMENT_M1
        self.rule = ProbabilityRule.born()
        self.det = DetectionParams()

    def pass_inputs(self, i):
        return pass_seed(self.seed, i)

    def items(self, master_seed):
        return self.BATCHES

    def run(self, master_seed, tr):
        with tr.span("detection.run_batches", batches=self.BATCHES):
            reports = run_batches(
                self.target, self.spec, self.rule, self.det, self.BATCHES, master_seed
            )
        with tr.span("stats.estimate_kappa"):
            est = estimate_kappa(reports, seed=master_seed)
        with tr.span("stats.batch_csv_text"):
            csv = batch_csv_text(reports)
        return est, csv

    def failures(self, master_seed, out):
        est, csv = out
        ok = (
            abs(est.mean) <= 5.0 * est.stderr
            and KAPPA_STD_BAND[0] <= est.std <= KAPPA_STD_BAND[1]
            and csv.count("\n") == self.BATCHES + 1
        )
        return 0 if ok else self.BATCHES

    def artifact(self, out):
        est, csv = out
        return (csv + repr((est.mean, est.std, est.stderr, est.ci95))).encode()

    def bootstrap_bytes(self):
        # estimate_kappa's index array (int64) and gathered kappas (float64)
        return 2 * 10_000 * self.BATCHES * 8


class CalibScan(Workload):
    """Detection-threshold scans of two deformation families and a shot ladder."""

    name = "calib-scan"
    GRID = tuple(round(0.01 * j, 10) for j in range(13))
    SCANS = (("triple", MEASUREMENT_M1), ("exponent", MEASUREMENT_M2))
    SCAN_BATCHES = 50
    LADDER = (20_000, 200_000, 2_000_000, 20_000_000)
    LADDER_BATCHES = 200
    # Mean kappa of a scan row may stray this many standard errors from the
    # exact value (t with 49 degrees of freedom: 2e-7 two-sided).
    ROW_TOLERANCE_SE = 6.0

    def __init__(self, seed: int):
        self.seed = seed
        self.target = TargetAmplitudes(*PAPER_ABC)
        self.det = DetectionParams()
        self._summaries = {}

    def pass_inputs(self, i):
        return tuple(int(x) for x in pass_rng(self.seed, i).integers(2**32, size=3))

    def items(self, seeds):
        return len(self.SCANS) * len(self.GRID) + len(self.LADDER)

    def run(self, seeds, tr):
        scans = []
        for (family, spec), seed in zip(self.SCANS, seeds):
            with tr.span("stats.sensitivity_scan", batches=len(self.GRID) * self.SCAN_BATCHES):
                scans.append(
                    sensitivity_scan(
                        self.target, spec, family, self.GRID, self.det, self.SCAN_BATCHES, seed
                    )
                )
        with tr.span("stats.scaling_check", batches=len(self.LADDER) * self.LADDER_BATCHES):
            ladder = scaling_check(
                self.target, MEASUREMENT_M1, self.det, self.LADDER, self.LADDER_BATCHES, seeds[-1]
            )
        return scans, ladder

    def failures(self, seeds, out):
        scans, ladder = out
        bad = 0
        for (family, spec), scan in zip(self.SCANS, scans):
            exact = _exact_scan_kappas(family, spec)
            for row, k in zip(scan.rows, exact):
                se = row.kappa_std / math.sqrt(self.SCAN_BATCHES)
                if not abs(row.kappa_mean - k) <= self.ROW_TOLERANCE_SE * se:
                    bad += 1
            bad += abs(len(scan.rows) - len(exact))
        bad += sum(1 for n, std in ladder if not (math.isfinite(std) and std > 0.0))
        bad += abs(len(ladder) - len(self.LADDER))
        self._summaries[seeds] = (
            scans[0].smallest_detected_eps,
            scans[0].rows[0].kappa_std,
            tuple(std for _, std in ladder),
        )
        return bad

    def run_ok(self):
        """Checks on all distinct passes of the run; False fails every item.

        A single 50-batch scan puts its first detection within 50% of the
        3-sigma prediction only ~90% of the time (triple, M1), and a
        200-batch ladder rung pins sigma to ~5%, so both checks pool the
        run: the median first detection, and sigma from the mean variance.
        """
        if not self._summaries:
            return True
        found, sigma0, stds = zip(*self._summaries.values())
        m = _exact_scan_kappas(*self.SCANS[0])
        slope = (m[1] - m[0]) / (self.GRID[1] - self.GRID[0])
        predicted = 3.0 * statistics.median(sigma0) / (math.sqrt(self.SCAN_BATCHES) * abs(slope))
        detected = statistics.median(math.inf if e is None else e for e in found)
        ok = abs(detected - predicted) <= 0.5 * predicted
        pooled = [math.sqrt(statistics.fmean(s * s for s in rung)) for rung in zip(*stds)]
        for i, n in enumerate(self.LADDER):
            if 100 * n in self.LADDER:
                ratio = pooled[i] / pooled[self.LADDER.index(100 * n)]
                ok = ok and 8.0 <= ratio <= 12.0
        return ok

    def artifact(self, out):
        scans, ladder = out
        return repr(([s.rows for s in scans], [s.smallest_detected_eps for s in scans], ladder)).encode()


@functools.cache
def _exact_scan_kappas(family, spec):
    m = measurement_vector(spec.theta1, spec.theta2)
    return tuple(exact_kappa(family, eps, PAPER_ABC, m) for eps in CalibScan.GRID)


class DesignSweep(Workload):
    """Exact protocol on seeded random (target, measurement) pairs."""

    name = "design-sweep"
    PAIRS = 1000
    OMEGA1_HZ = 5e6
    # Pairs whose second-order interference is this small are redrawn: kappa
    # is undefined below the package's floor (1e-6), by design.
    I2_MIN = 1e-3

    def __init__(self, seed: int):
        self.seed = seed
        self.rule = ProbabilityRule.born()

    def pass_inputs(self, i):
        rng = pass_rng(self.seed, i)
        pairs = []
        while len(pairs) < self.PAIRS:
            v = rng.normal(size=3)
            b, a, c = v / np.linalg.norm(v)
            theta1, theta2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
            if min(abs(a), abs(b), abs(c)) < 1e-3:
                continue
            m = measurement_vector(theta1, theta2)  # components (+1, 0, -1)
            i2 = 2.0 * (
                abs(a * b * m[1] * m[0]) + abs(a * c * m[1] * m[2]) + abs(b * c * m[0] * m[2])
            )
            if i2 < self.I2_MIN:
                continue
            pairs.append((float(a), float(b), float(c), float(theta1), float(theta2)))
        return pairs

    def items(self, pairs):
        return len(pairs)

    def run(self, pairs, tr):
        rule = self.rule
        rows = []
        for a, b, c, theta1, theta2 in pairs:
            t = TargetAmplitudes(a, b, c)
            spec = MeasurementSpec(theta1, theta2)
            with tr.span("protocol.measurement_ket"):
                m = measurement_ket(spec)
            with tr.span("protocol.prepare_states"):
                states = prepare_states(t)
            with tr.span("born.probability", calls=7):
                p = tuple(probability(rule, m, psi) for psi in states)
            with tr.span("protocol.interference"):
                terms = second_order_terms(p, t)
                i3 = third_order_term(p, t)
                k = kappa(i3, terms)
            with tr.span("protocol.solve_schedule"):
                schedules = solve_schedule(t, self.OMEGA1_HZ)
            with tr.span("protocol.apply_schedule", calls=7):
                prepared = [apply_schedule(s) for s in schedules]
            overlaps = tuple(abs(inner_product(s, q)) for s, q in zip(states, prepared))
            rows.append((p, terms, i3, k, tuple(s.angle_pair() for s in schedules), overlaps))
        return rows

    def failures(self, pairs, rows):
        return sum(
            1
            for _, _, i3, _, _, overlaps in rows
            if not (abs(i3) < 1e-12 and min(overlaps) >= 1.0 - 1e-9)
        ) + (len(pairs) - len(rows))

    def artifact(self, rows):
        return "\n".join(repr(r) for r in rows).encode()


class PulseCheck(Workload):
    """Rotating-wave check of every solved pulse at 5 MHz and 50 MHz Rabi."""

    name = "pulse-check"
    RABI_HZ = (5e6, 50e6)
    # Targets are drawn around the paper's working point: per-pass cost
    # follows the pulse angles, so a narrow draw keeps the work per pass
    # near constant while every pass solves a new schedule.
    JITTER = 0.05

    def __init__(self, seed: int):
        self.seed = seed
        self.params = tuple(HamiltonianParams(omega1_hz=w) for w in self.RABI_HZ)
        self.spec = MEASUREMENT_M1

    def pass_inputs(self, i):
        rng = pass_rng(self.seed, i)
        v = np.array(PAPER_ABC) * (1.0 + self.JITTER * rng.uniform(-1.0, 1.0, 3))
        return tuple(float(x) for x in v / np.linalg.norm(v))

    def _pulses(self, schedules):
        segs = [seg for s in schedules for seg in s]
        segs += [PulseSegment("MW2", self.spec.theta2), PulseSegment("MW1", self.spec.theta1)]
        return [seg for seg in segs if seg.angle != 0.0]

    def items(self, abc):
        schedules = solve_schedule(TargetAmplitudes(*abc), self.RABI_HZ[0])
        return len(self.RABI_HZ) * len(self._pulses(schedules))

    def run(self, abc, tr):
        t = TargetAmplitudes(*abc)
        fidelities = []
        for params in self.params:
            with tr.span("protocol.solve_schedule"):
                schedules = solve_schedule(t, params.omega1_hz)
            row = []
            for seg in self._pulses(schedules):
                periods = seg.duration_s(params.omega1_hz) * params.drive_frequency_hz(seg.channel)
                with tr.span("dynamics.rwa_fidelity", drive_periods=periods):
                    row.append(rwa_fidelity(params, seg))
            fidelities.append(row)
        return fidelities

    def failures(self, abc, fidelities):
        slow, fast = fidelities
        bad = sum(1 for f in slow if not f >= 0.999)
        bad += sum(1 for f5, f50 in zip(slow, fast) if not f50 < f5)
        return bad + abs(len(slow) - len(fast))

    def artifact(self, fidelities):
        return repr(fidelities).encode()


WORKLOADS = {w.name: w for w in (NullSim, CalibScan, DesignSweep, PulseCheck)}
