"""The byte contract: every golden run reproduces tests/golden/manifest.json.

The runs and the digest format live in tests/golden/regen.py, which also
rewrites the manifest after a declared contract change.  The draws come
from numpy's binomial and Poisson samplers and rwa_check.json from LAPACK,
neither promised stable across numpy versions or BLAS builds; a platform
whose bytes differ fails here, and its digests are never rounded away.
"""

import json
import shutil

import pytest

from golden import regen
from golden.regen import MANIFEST, golden_runs, run_in_process, strict_json


def test_manifest_covers_every_golden_run():
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert sorted(manifest) == sorted(golden_runs())
    assert len(manifest) == 55


def test_golden_runs_reproduce_the_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    got = {
        name: run_in_process(args, tmp_path / name)
        for name, args in golden_runs().items()
    }
    assert got == manifest
    reports = sorted(tmp_path.rglob("*.json"))
    assert len(reports) == len(manifest)
    for report in reports:
        strict_json(report.read_text(encoding="utf-8"))


# two of the golden runs, about 0.4 s per process
_CHECKED = ("empty/ideal", "exact-triple/schedule")


@pytest.fixture(scope="module")
def processes(tmp_path_factory):
    """(exit code, runs, work dir) of regen.py --processes on _CHECKED alone."""
    runs = {name: golden_runs()[name] for name in _CHECKED}
    work = tmp_path_factory.mktemp("processes") / "work"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regen, "golden_runs", lambda: runs)
        code = regen.main(["--processes", str(work)])
    return code, runs, work


def test_processes_mode_passes_the_golden_runs(processes):
    code, runs, work = processes
    assert code == 0
    for side in regen.SETS:
        for run in runs:
            assert (work / side / f"{run}.rc").read_text() == "0\n"
            assert any((work / side / run).glob("*.json"))


def _flip_a_byte(work):
    path = work / "b" / "exact-triple" / "schedule" / "schedule.json"
    data = bytearray(path.read_bytes())
    data[data.rindex(b"0")] ^= 1  # a digit 0 becomes 1: still JSON
    path.write_bytes(bytes(data))


def _exit_1(work):
    (work / "a" / "empty" / "ideal.rc").write_text("1\n")


def _nan(work):
    path = work / "a" / "empty" / "ideal" / "ideal_report.json"
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace('"batches": 50', '"batches": NaN', 1), encoding="utf-8")


@pytest.mark.parametrize(
    "plant, failures",
    [
        (_flip_a_byte, ["b/exact-triple/schedule: differs from the manifest"]),
        (_exit_1, ["a/empty/ideal: exits 1", "a/empty/ideal: differs from the manifest"]),
        (
            _nan,
            [
                "a/empty/ideal: differs from the manifest",
                "a/empty/ideal: ideal_report.json: NaN is not JSON",
            ],
        ),
    ],
    ids=["flipped-byte", "exit-1", "nan"],
)
def test_processes_mode_names_a_planted_fault(
    processes, tmp_path, monkeypatch, capsys, plant, failures
):
    _, runs, clean = processes

    def run_and_plant(work, _runs):
        shutil.copytree(clean, work)
        plant(work)

    monkeypatch.setattr(regen, "golden_runs", lambda: runs)
    monkeypatch.setattr(regen, "run_processes", run_and_plant)
    assert regen.main(["--processes", str(tmp_path / "work")]) == 1
    assert capsys.readouterr().err.splitlines() == failures
