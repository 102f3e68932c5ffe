"""The byte contract: every golden run reproduces tests/golden/manifest.json.

The runs and the digest format live in tests/golden/regen.py, which also
rewrites the manifest after a declared contract change.  The draws come
from numpy's binomial and Poisson samplers and rwa_check.json from LAPACK,
neither promised stable across numpy versions or BLAS builds; a platform
whose bytes differ fails here, and its digests are never rounded away.
"""

import json

from golden.regen import MANIFEST, golden_runs, run_in_process


def test_manifest_covers_every_golden_run():
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert sorted(manifest) == sorted(golden_runs())
    assert len(manifest) == 45


def test_golden_runs_reproduce_the_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    got = {
        name: run_in_process(args, tmp_path / name)
        for name, args in golden_runs().items()
    }
    assert got == manifest
