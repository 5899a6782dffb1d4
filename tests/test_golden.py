"""The committed golden digests (``tests/golden.json``) still hold.

The check only compares; ``python tests/golden.py --write`` is the one way
to refresh the digests (see ``tests/golden.py``).  The worlds that train are
compared only on a numpy/BLAS build with recorded digests.
"""

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
