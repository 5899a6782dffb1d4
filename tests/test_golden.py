"""The committed golden digests (``tests/golden.json``) still hold.

The check only compares; ``python tests/golden.py --write`` is the one way
to refresh the digests (see ``tests/golden.py``).  The worlds that train are
compared only on a numpy/BLAS build with recorded digests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import golden


def test_every_world_writes_its_recorded_bytes():
    assert golden.differences(golden.compute(), golden.recorded()) == []


def test_every_keyed_world_writes_its_recorded_bytes():
    key, got = golden.compute_keyed()
    want = golden.recorded_keyed(key)
    if want is None:
        pytest.skip(f"no keyed digests recorded for {key!r}; "
                    "python tests/golden.py --write records them")
    assert golden.differences(got, want) == []


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
    compared on another."""
    core, key = _child_core_and_key()
    forced_core, forced_key = _child_core_and_key(OPENBLAS_CORETYPE="Sandybridge")
    if core == forced_core:
        pytest.skip(f"OPENBLAS_CORETYPE=Sandybridge leaves the kernel {core!r} here")
    assert forced_core == "Sandybridge" and forced_key != key
