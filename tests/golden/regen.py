"""The golden runs and their manifest: the byte contract, as sha256 digests.

The golden runs are every config in this directory under each of the five
subcommands, plus empty.cfg with ``--measurement M2``, all at ``--seed 1``.
manifest.json holds, for each run, its exit code and the sha256 of its
stdout and of every artifact it writes.  tests/test_golden.py reruns them
through cli.main and compares.

A change that alters an artifact on purpose rewrites the manifest in the
same commit, so the manifest's diff names exactly the runs that changed:

    PYTHONPATH=src python tests/golden/regen.py

``--processes DIR`` instead runs each golden run twice as a whole process,
into DIR/a/<run>/ and DIR/b/<run>/, its stdout and exit code beside it in
<run>.stdout and <run>.rc, with RuntimeWarning and DeprecationWarning as
errors.  It exits 1, naming the run, if a run exits other than 0, differs
from its manifest entry or writes JSON with NaN or Infinity in it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
MANIFEST = GOLDEN / "manifest.json"
COMMANDS = ("ideal", "simulate", "rwa-check", "schedule", "sensitivity")
# the --measurement override must write what the config key writes
OVERRIDES = {"empty-m2": ("empty", ["--measurement", "M2"])}
SETS = ("a", "b")


def golden_runs() -> dict[str, list[str]]:
    """CLI arguments, --out left out, of every golden run by <config>/<command>."""
    configs = {cfg.stem: (cfg.stem, []) for cfg in sorted(GOLDEN.glob("*.cfg"))}
    runs = {}
    for name, (cfg, flags) in (configs | OVERRIDES).items():
        path = str(GOLDEN / f"{cfg}.cfg")
        for command in COMMANDS:
            runs[f"{name}/{command}"] = [command, "--config", path, "--seed", "1", *flags]
    return runs


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


def strict_json(text: str):
    """json.loads refusing NaN and Infinity, which json.dumps writes for a
    non-finite float but JSON does not allow."""
    return json.loads(text, parse_constant=_refuse)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _entry(exit_code: int, stdout: bytes, out_dir: Path) -> dict:
    files = sorted(out_dir.iterdir()) if out_dir.is_dir() else []
    return {
        "exit": exit_code,
        "stdout": _sha256(stdout),
        "artifacts": {f.name: _sha256(f.read_bytes()) for f in files},
    }


def run_in_process(args: list[str], out_dir: Path) -> dict:
    """The manifest entry of one run of cli.main, writing into out_dir."""
    from sorkin_lab.cli import main

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exit_code = main([*args, "--out", str(out_dir)])
    return _entry(exit_code, stdout.getvalue().encode(), out_dir)


def run_processes(work: Path, runs: dict[str, list[str]]) -> None:
    """Run each run as a whole process once into each set under work."""
    warnings = ["-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning"]
    cli = [sys.executable, *warnings, "-m", "sorkin_lab.cli"]
    env = {**os.environ, "PYTHONPATH": str(GOLDEN.parents[1] / "src")}
    for side in SETS:
        for run, args in runs.items():
            out_dir = work / side / run
            out_dir.parent.mkdir(parents=True, exist_ok=True)
            with open(f"{out_dir}.stdout", "wb") as stdout:
                run_args = [*cli, *args, "--out", str(out_dir)]
                exit_code = subprocess.run(run_args, stdout=stdout, env=env).returncode
            Path(f"{out_dir}.rc").write_text(f"{exit_code}\n", encoding="utf-8")


def check_processes(work: Path, runs) -> list[str]:
    """How the runs in each set under work fail the contract, one line per
    fault.  Both sets equal to the manifest are equal to each other."""
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    failures = []
    for side in SETS:
        for run in runs:
            out_dir = work / side / run
            exit_code = int(Path(f"{out_dir}.rc").read_text(encoding="utf-8"))
            if exit_code != 0:
                failures.append(f"{side}/{run}: exits {exit_code}")
            stdout = Path(f"{out_dir}.stdout").read_bytes()
            if _entry(exit_code, stdout, out_dir) != manifest.get(run):
                failures.append(f"{side}/{run}: differs from the manifest")
            for report in sorted(out_dir.glob("*.json")):
                try:
                    strict_json(report.read_text(encoding="utf-8"))
                except ValueError as exc:
                    failures.append(f"{side}/{run}: {report.name}: {exc}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--processes", metavar="DIR", help="check the runs as processes in DIR")
    args = parser.parse_args(argv)
    runs = golden_runs()
    if args.processes is None:
        with tempfile.TemporaryDirectory() as tmp:
            got = {name: run_in_process(run, Path(tmp, name)) for name, run in runs.items()}
        MANIFEST.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(got)} runs to {MANIFEST}")
        return 0
    work = Path(args.processes)
    run_processes(work, runs)
    failures = check_processes(work, runs)
    for failure in failures:
        print(failure, file=sys.stderr)
    print(f"{len(SETS) * len(runs)} runs, {len(failures)} faults")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
