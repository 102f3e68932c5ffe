"""The golden runs and their manifest: the byte contract, as sha256 digests.

The golden runs are every config in this directory under each of the five
subcommands, plus empty.cfg with ``--measurement M2``, all at ``--seed 1``.
manifest.json holds, for each run, its exit code and the sha256 of its
stdout and of every artifact it writes.  tests/test_golden.py reruns them
through cli.main and compares.

A change that alters an artifact on purpose rewrites the manifest in the
same commit, so the manifest's diff names exactly the runs that changed:

    PYTHONPATH=src python tests/golden/regen.py

``--check DIR`` instead compares whole-process runs with the manifest,
laid out as the CI determinism step writes them: DIR/<config>/<command>/
holds a run's artifacts, and its stdout and exit code sit beside it in
<command>.stdout and <command>.rc.  It exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
MANIFEST = GOLDEN / "manifest.json"
COMMANDS = ("ideal", "simulate", "rwa-check", "schedule", "sensitivity")
# the --measurement override must write what the config key writes
OVERRIDES = {"empty-m2": ("empty", ["--measurement", "M2"])}


def golden_runs() -> dict[str, list[str]]:
    """CLI arguments, --out left out, of every golden run by <config>/<command>."""
    configs = {cfg.stem: (cfg.stem, []) for cfg in sorted(GOLDEN.glob("*.cfg"))}
    runs = {}
    for name, (cfg, flags) in (configs | OVERRIDES).items():
        path = str(GOLDEN / f"{cfg}.cfg")
        for command in COMMANDS:
            runs[f"{name}/{command}"] = [command, "--config", path, "--seed", "1", *flags]
    return runs


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


def read_run(out_dir: Path) -> dict:
    """The manifest entry of one whole-process run written as the CI step does."""
    exit_code = int(Path(f"{out_dir}.rc").read_text())
    return _entry(exit_code, Path(f"{out_dir}.stdout").read_bytes(), out_dir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--check", metavar="DIR", help="compare the runs in DIR with the manifest")
    args = parser.parse_args(argv)
    runs = golden_runs()
    if args.check is None:
        with tempfile.TemporaryDirectory() as tmp:
            got = {name: run_in_process(run, Path(tmp, name)) for name, run in runs.items()}
        MANIFEST.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(got)} runs to {MANIFEST}")
        return 0
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    differ = [name for name in runs if read_run(Path(args.check, name)) != manifest.get(name)]
    differ += sorted(set(manifest) - set(runs))
    for name in differ:
        print(f"differs from the manifest: {name}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
