"""One measurement of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

Prints one JSON object on stdout.  ``run.py`` starts this script with the
BLAS thread count pinned to one and the checkout's ``src`` on PYTHONPATH.

Untraced (``--trace 0``): a warm-up pass, then timed passes until S seconds
have passed, each between two runs of a calibration kernel.  Traced (``--trace 1``): each pass runs untraced and then
traced, until S seconds have passed, followed by a fixed per-call probe.
Pass 0 runs twice in either mode; its outputs must repeat byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
PROBE_CALLS = 200


@dataclass
class PassResult:
    seconds: float
    items: int
    failed: int
    digest: str | None


def execute(wl, i, tr) -> PassResult:
    """Run pass i and check it; only the workload's own calls are timed."""
    inputs = wl.pass_inputs(i)
    items = wl.items(inputs)
    start = time.perf_counter()
    try:
        with tr.span(f"pass:{i}"):
            out = wl.run(inputs, tr)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return PassResult(time.perf_counter() - start, items, items, None)
    seconds = time.perf_counter() - start
    failed = min(items, wl.failures(inputs, out))
    return PassResult(seconds, items, failed, hashlib.sha256(wl.artifact(out)).hexdigest())


_REFERENCE_STACKS = None


def reference_seconds():
    """Wall time of a fixed calibration kernel that does not use the package.

    On a shared virtual machine the CPU can run up to ~1.7x slower for
    minutes at a time while other tenants are busy, which moves every wall
    time alike.  The gated pass metrics divide each pass by the mean of
    this kernel's times just before and just after it.  The kernel mixes
    the kinds of work the package does: interpreted complex arithmetic with
    3x3 numpy calls, and stacked 3x3 ``eigh`` with matrix exponentials as
    in the propagator.
    """
    import numpy as np

    global _REFERENCE_STACKS
    if _REFERENCE_STACKS is None:
        rng = np.random.default_rng(0)
        real = rng.normal(size=(2048, 3, 3))
        cplx = rng.normal(size=(8192, 3, 3)) + 1j * rng.normal(size=(8192, 3, 3))
        _REFERENCE_STACKS = (
            real + real.transpose(0, 2, 1),
            cplx + cplx.conj().transpose(0, 2, 1),
        )
    real, cplx = _REFERENCE_STACKS
    start = time.perf_counter()
    acc = 0.0
    for i in range(8000):
        acc += abs(complex(i, 1.0) * (0.5 - 0.25j)) ** 2
    a = np.arange(9.0).reshape(3, 3)
    for _ in range(150):
        a = (a @ a.T) / (1.0 + np.abs(a).max())
    for _ in range(3):
        _, v = np.linalg.eigh(real)
        acc += float(np.matmul(v, v.transpose(0, 2, 1)).sum())
    w, v = np.linalg.eigh(cplx)
    np.matmul(v * np.exp(-1j * w)[..., None, :], v.conj().swapaxes(-1, -2))
    return time.perf_counter() - start


def tail(times):
    """Highest whole percentile with at least ten passes above it, or None."""
    n = len(times)
    if n < 11:
        return None
    pct = math.floor(100 * (n - 10) / n)
    return pct, statistics.quantiles(times, n=100, method="inclusive")[pct - 1]


def untraced_run(wl, seconds):
    from tracer import NullTracer

    null = NullTracer()
    reference_seconds()
    warmup = execute(wl, 0, null)
    results, refs = [], [reference_seconds()]
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        results.append(execute(wl, len(results), null))
        refs.append(reference_seconds())
    repeat_ok = results[0].digest is not None and results[0].digest == warmup.digest
    if not repeat_ok:
        results[0].failed = results[0].items
    times = [r.seconds for r in results]
    ratios = [t / (0.5 * (a + b)) for t, a, b in zip(times, refs, refs[1:])]
    attempted = sum(r.items for r in results)
    failed = sum(r.failed for r in results)
    if not wl.run_ok():
        failed = attempted
    return {
        "attempted": attempted,
        "failed": failed,
        "passes": len(results),
        "items_per_ref": (attempted - failed) / sum(ratios),
        "pass_ref.p50": statistics.median(ratios),
        "items_per_s": (attempted - failed) / sum(times),
        "pass_s.p50": statistics.median(times),
        "pass_s.tail": tail(times),
        "pass_times": times,
        "reference_s.p50": statistics.median(refs),
        "digest": warmup.digest,
        "repeat_ok": repeat_ok,
    }


def traced_run(wl, seconds, seed):
    from tracer import NullTracer, Tracer

    null, tr = NullTracer(), Tracer()
    warmup = execute(wl, 0, null)
    attempted = failed = passes = 0
    overhead = []
    repeat_ok = True
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        plain = execute(wl, passes, null)
        with tr.counting():
            traced = execute(wl, passes, tr)
        same = plain.digest is not None and plain.digest == traced.digest
        if passes == 0:
            same = same and plain.digest == warmup.digest
        repeat_ok = repeat_ok and same
        for r in (plain, traced):
            attempted += r.items
            failed += r.items if not same else r.failed
        overhead.append(traced.seconds - plain.seconds)
        passes += 1
    if not wl.run_ok():
        failed = attempted
    with tr.counting():
        cli_failure = probe(tr)
    metrics = layer_metrics(wl, tr, passes)
    metrics["trace.overhead_s"] = statistics.median(overhead)
    OUT_DIR.mkdir(exist_ok=True)
    tr.write(
        OUT_DIR / f"spans-{wl.name}-seed{seed}.json",
        {"workload": wl.name, "seed": seed, "passes": passes, "cli_failure": cli_failure},
    )
    return {
        "attempted": attempted,
        "failed": failed,
        "passes": passes,
        "digest": warmup.digest,
        "repeat_ok": repeat_ok,
        "cli_failure": cli_failure,
        "layers": metrics,
    }


def probe(tr):
    """Per-call times of the package's public functions on the paper inputs.

    Returns the first failure of ``cli.parse_config`` on a default config,
    as ``Type: message``, or None.  The failure is reported, not bypassed.
    """
    from sorkin_lab import (
        MEASUREMENT_M1,
        DetectionParams,
        HamiltonianParams,
        ProbabilityRule,
        PulseSegment,
        QutritState,
        TargetAmplitudes,
        apply_schedule,
        lab_frame_propagator,
        measurement_ket,
        prepare_states,
        probability,
        run_protocol_batch,
        solve_schedule,
    )
    from sorkin_lab.cli import parse_config
    from workloads import PAPER_ABC

    n = PROBE_CALLS
    t = TargetAmplitudes(*PAPER_ABC)
    born = ProbabilityRule.born()
    det = DetectionParams()
    m = measurement_ket(MEASUREMENT_M1)
    states = prepare_states(t)
    schedules = solve_schedule(t, 5e6)
    vector = m.vector
    OUT_DIR.mkdir(exist_ok=True)
    config = OUT_DIR / "default.cfg"
    config.write_text("# every key at its documented default\n", encoding="utf-8")
    cli_failure = None
    with tr.span("probe"):
        with tr.span("protocol.prepare_states", calls=n):
            for _ in range(n):
                prepare_states(t)
        with tr.span("protocol.measurement_ket", calls=n):
            for _ in range(n):
                measurement_ket(MEASUREMENT_M1)
        with tr.span("born.probability", calls=7 * n):
            for _ in range(n):
                for psi in states:
                    probability(born, m, psi)
        with tr.span("protocol.solve_schedule", calls=n):
            for _ in range(n):
                solve_schedule(t, 5e6)
        with tr.span("protocol.apply_schedule", calls=7 * n):
            for _ in range(n):
                for s in schedules:
                    apply_schedule(s)
        with tr.span("qutrit.QutritState.from_vector", calls=n):
            for _ in range(n):
                QutritState.from_vector(vector)
        with tr.span("detection.run_protocol_batch.exact", calls=n):
            for b in range(n):
                run_protocol_batch(t, MEASUREMENT_M1, born, None, (0, b))
        with tr.span("detection.run_protocol_batch.simulated", calls=n, batches=n):
            for b in range(n):
                run_protocol_batch(t, MEASUREMENT_M1, born, det, (0, b))
        params = HamiltonianParams()
        for channel in ("MW1", "MW2"):
            with tr.span(f"dynamics.lab_frame_propagator.{channel}", calls=1):
                lab_frame_propagator(params, PulseSegment(channel, math.pi))
        with tr.span("cli.parse_config", calls=n, failures=0) as span:
            for _ in range(n):
                try:
                    parse_config(str(config))
                except Exception as exc:  # reported as the layer's fail_rate
                    span.work["failures"] += 1
                    if cli_failure is None:
                        cli_failure = f"{type(exc).__name__}: {exc}"
    return cli_failure


def layer_metrics(wl, tr, passes):
    def per_pass(name, field="busy"):
        return tr.total("pass", name, field) / passes

    def us_per_call(name):
        return 1e6 * tr.total("probe", name) / tr.total("probe", name, "calls")

    batches = sum(w["batches"] for w in tr.work.values())
    streams = sum(
        tr.ops[key]["seed_streams"] for key, w in tr.work.items() if w["batches"]
    )
    sim = us_per_call("detection.run_protocol_batch.simulated")
    metrics = {
        "detection.run_batches.busy_s": per_pass("detection.run_batches"),
        "detection.sampling_us_per_batch": sim - us_per_call("detection.run_protocol_batch.exact"),
        "detection.seed_streams_per_batch": streams / batches,
        "stats.estimate_kappa.busy_s": per_pass("stats.estimate_kappa"),
        "stats.bootstrap_bytes": wl.bootstrap_bytes(),
        "stats.sensitivity_scan.busy_s": per_pass("stats.sensitivity_scan"),
        "stats.scaling_check.busy_s": per_pass("stats.scaling_check"),
        "stats.batch_csv_text.busy_s": per_pass("stats.batch_csv_text"),
    }
    for name in (
        "protocol.prepare_states",
        "protocol.measurement_ket",
        "born.probability",
        "protocol.solve_schedule",
        "protocol.apply_schedule",
        "qutrit.QutritState.from_vector",
    ):
        metrics[f"{name}.us_per_call"] = us_per_call(name)
    metrics["dynamics.rwa_fidelity.busy_s"] = per_pass("dynamics.rwa_fidelity")
    for channel in ("MW1", "MW2"):
        name = f"dynamics.lab_frame_propagator.{channel}"
        metrics[f"{name}.us_per_call"] = us_per_call(name)
    metrics["dynamics.eigh_matrices"] = tr.op_total("pass", "eigh_matrices") / passes
    metrics["dynamics.drive_periods"] = per_pass("dynamics.rwa_fidelity", "drive_periods")
    metrics["cli.parse_config.us_per_call"] = us_per_call("cli.parse_config")
    metrics["cli.parse_config.fail_rate"] = tr.total(
        "probe", "cli.parse_config", "failures"
    ) / tr.total("probe", "cli.parse_config", "calls")
    return metrics


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {
            v: os.environ.get(v)
            for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import sorkin_lab
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - start

    src = (ROOT / "src").resolve()
    if src not in Path(sorkin_lab.__file__).resolve().parents:
        print(f"sorkin_lab was imported from {sorkin_lab.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.setup_only:
        result = {"setup_s": setup_s}
    elif args.trace:
        result = traced_run(wl, args.seconds, args.seed)
    else:
        result = untraced_run(wl, args.seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
