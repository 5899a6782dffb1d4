"""The committed golden digests (``tests/golden.json``) still hold.

The check only compares; ``python tests/golden.py --write`` is the one way
to refresh the digests (see ``tests/golden.py``).  The digests of the worlds
that train are compared only on a numpy/BLAS key with recorded digests, their
fingerprints on every key.
"""

import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import golden


def test_every_world_writes_its_recorded_bytes():
    assert golden.differences(golden.compute(), golden.recorded()) == []


@pytest.fixture(scope="module")
def keyed():
    """(key, digests, fingerprints) of the keyed worlds, run once."""
    return golden.compute_keyed()


def test_every_keyed_world_matches_its_recorded_fingerprint(keyed):
    _, _, got = keyed
    assert golden.fingerprint_differences(got, golden.recorded_fingerprints()) == []


def test_every_keyed_world_writes_its_recorded_bytes(keyed):
    key, got, _ = keyed
    want = golden.recorded_keyed(key)
    if want is None:
        pytest.skip(f"no keyed digests recorded for {key!r}; "
                    "python tests/golden.py --write records them")
    assert golden.differences(got, want) == []


def test_a_fingerprint_holds_its_floats_to_the_tolerance_and_its_f1s_and_labels_exactly():
    """A sum is measured against its array's L1 norm and any other float
    against itself; an F1 or a label that differs at all, a NaN and an
    entry of one side only each count as a difference."""
    want = {"w": {"arrays": {"a": {"sum": 0.0, "l1": 4.0, "l2": 2.0}},
                  "losses": {"h": [0.5, 0.25]}, "val_f1": {"h": [0.2, 0.3]},
                  "labels": {"p": "0 1 1"}}}

    def differences(field, value):
        got = copy.deepcopy(want)
        got["w"][field] = value
        return golden.fingerprint_differences(got, want)

    assert golden.TOLERANCE == 1e-10
    assert differences("arrays", {"a": {"sum": 3e-10, "l1": 4.0, "l2": 2.0}}) == []
    assert differences("arrays", {"a": {"sum": 5e-10, "l1": 4.0, "l2": 2.0}}) != []
    assert differences("arrays", {"a": {"sum": 0.0, "l1": 4.0, "l2": 2.0 + 4e-10}}) != []
    assert differences("losses", {"h": [0.5 + 4e-11, 0.25]}) == []
    for losses in ([0.5 + 6e-11, 0.25], [math.nan, 0.25], [0.5]):
        assert differences("losses", {"h": losses}) != []
    assert differences("val_f1", {"h": [0.2, math.nextafter(0.3, 1.0)]}) != []
    assert differences("labels", {"p": "0 1 0"}) != []
    assert differences("losses", {}) != []


def _child_core_and_key(**env_vars):
    """(``blas_core()``, ``blas_key()``) in a child process whose environment,
    without any ``OPENBLAS_CORETYPE`` of this one, adds ``env_vars``."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    code = "import json, golden; print(json.dumps([golden.blas_core(), golden.blas_key()]))"
    child = subprocess.run([sys.executable, "-c", code], env={**env, **env_vars},
                           cwd=Path(golden.__file__).parent, capture_output=True, text=True,
                           check=True)
    return json.loads(child.stdout)


def test_the_key_names_the_kernel_openblas_picks_at_run_time():
    """The numpy build is the same under ``OPENBLAS_CORETYPE=Sandybridge``,
    but the kernel is not, so the keyed digests of one CPU are never
    compared on another: ``python tests/golden.py`` with that variable in
    its environment only runs the keyed worlds under another key, skips
    their digests and says why, and finds every fingerprint matching."""
    core, key = _child_core_and_key()
    forced_core, forced_key = _child_core_and_key(OPENBLAS_CORETYPE="Sandybridge")
    if core == forced_core:
        pytest.skip(f"OPENBLAS_CORETYPE=Sandybridge leaves the kernel {core!r} here")
    assert forced_core == "Sandybridge" and forced_key != key
    assert golden.recorded_keyed(forced_key) is None
    child = subprocess.run([sys.executable, golden.__file__],
                           env={**os.environ, "OPENBLAS_CORETYPE": "Sandybridge"},
                           capture_output=True, text=True, check=False)
    assert child.returncode == 0, child.stdout + child.stderr
    assert child.stdout.splitlines() == [
        f"every fingerprint matches within {golden.TOLERANCE:g}",
        f"no keyed digests recorded for {forced_key!r}: the keyed worlds' digests "
        "are not compared",
        "every unkeyed digest matches"]
