"""sorkin-lab benchmark: one workload per call, run from the repository root.

    python3 perfbench/run.py --workload null-sim --seed 1 --seconds 22 --trace 0

Workloads: null-sim, calib-scan, design-sweep, pulse-check (see README.md).
``--trace 0`` measures the end-to-end metrics: set-up time (median of
several fresh interpreters), throughput and median pass time in units of a
calibration kernel (wall-time figures are printed too), and peak RSS.
``--trace 1`` is a separate traced run that gives the per-layer metrics.  Each measurement runs in a fresh interpreter with BLAS threads
pinned to one.  Human-readable lines come first; the last line of stdout is
the JSON result.  Exits non-zero, printing no result, when the package
source is missing or a measurement fails to finish.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "sorkin_lab" / "__init__.py"
SPEC = ROOT / "BENCHMARK.json"
# Fresh interpreters timed for set-up, after one untimed start that lets
# Python write its bytecode cache.
SETUP_PROBES = 7
# Everything, children included, ends within this many seconds.
DEADLINE_S = 170.0


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def child(self, *args):
        """Run worker.py with args; its parsed JSON line, or exit on failure."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        remaining = self.end - time.monotonic()
        if remaining <= 0:
            sys.exit("perfbench: out of time")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), *map(str, args)],
                env=env,
                cwd=ROOT,
                stdout=subprocess.PIPE,
                timeout=remaining,
                text=True,
            )
        except subprocess.TimeoutExpired:
            sys.exit("perfbench: a measurement did not finish in time")
        if proc.returncode != 0:
            sys.exit(f"perfbench: worker exited with {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    # Workload and metric names, and units, are those BENCHMARK.json declares.
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not PACKAGE.is_file():
        print(f"perfbench: package source not found at {PACKAGE}", file=sys.stderr)
        return 2

    deadline = Deadline(DEADLINE_S)
    common = ("--workload", args.workload, "--seed", args.seed)
    if args.trace:
        run = deadline.child(*common, "--seconds", args.seconds, "--trace", 1)
        metrics = {m["name"]: (run["layers"][m["name"]], m["unit"]) for m in spec["per_layer"]}
    else:
        deadline.child(*common, "--setup-only")
        setups = [deadline.child(*common, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
        run = deadline.child(*common, "--seconds", args.seconds, "--trace", 0)
        run["setup_s"] = statistics.median(setups)
        metrics = {m["name"]: (run[m["name"]], m["unit"]) for m in spec["end_to_end"]}

    env = run["env"]
    print(
        f"# env: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
        f"blas={env['blas']} threads={env['threads']}"
    )
    print(f"# workload={args.workload} seed={args.seed} passes={run['passes']} "
          f"attempted={run['attempted']} failed={run['failed']} "
          f"fail_rate={run['failed'] / run['attempted']:.6g}")
    print(f"# pass 0 digest sha256:{run['digest']} repeat={'ok' if run['repeat_ok'] else 'MISMATCH'}")
    if not args.trace:
        t = run["pass_s.tail"]
        tail = "n/a (fewer than 11 passes)" if t is None else f"p{t[0]} = {t[1]:.6g} s"
        times = run["pass_times"]
        print(
            f"# wall time: items_per_s = {run['items_per_s']:.6g} 1/s, "
            f"pass_s.p50 = {run['pass_s.p50']:.6g} s, pass_s.tail {tail}, "
            f"min {min(times):.6g} s, max {max(times):.6g} s, n={run['passes']}; "
            f"reference kernel p50 = {run['reference_s.p50']:.6g} s"
        )
    else:
        print(f"# cli.parse_config on a default config: {run['cli_failure'] or 'ok'}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")

    correct = run["failed"] == 0 and run["repeat_ok"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
