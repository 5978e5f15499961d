"""This checkout's run outputs, byte for byte, against committed digests.

tools/same_outputs.run_all runs its small config once per strategy, then
`compare` and `evaluate`, and collects every output it compares between two
revisions. Each output's sha256 must equal the one recorded in
same_outputs_digests.json, so a change that moves any output by one bit
fails here, naming the outputs. The digests hold for the numpy and BLAS
build recorded beside them (numpy 2.4.6, scipy-openblas 0.3.31): another
build may round a float differently, so under another numpy or BLAS the test
is skipped, and its skip reason names both builds. To record new digests,
store {"numpy", "blas", "sha256": {output: hex digest}} from run_all there.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("same_outputs_digests.json")


def test_outputs_match_recorded_digests(tmp_path, monkeypatch):
    recorded = json.loads(DIGESTS.read_text())
    build = {"numpy": np.__version__}
    if build["numpy"] == recorded["numpy"]:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build["blas"] = f"{blas['name']} {blas['version']}"
    wanted = {key: recorded[key] for key in ("numpy", "blas")}
    if build != wanted:
        pytest.skip(f"digests recorded with {wanted}, this build is {build}")
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import same_outputs
    outputs = same_outputs.run_all(ROOT, tmp_path / "work")
    got = {name: hashlib.sha256(blob).hexdigest() for name, blob in outputs.items()}
    differing = sorted(name for name in got.keys() | recorded["sha256"].keys()
                       if got.get(name) != recorded["sha256"].get(name))
    assert not differing, f"{len(differing)} outputs differ, first {differing[:5]}"
