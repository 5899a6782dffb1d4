"""The committed golden digests (``tests/golden.json``) still hold.

The check only compares; ``python tests/golden.py --write`` is the one way
to refresh the digests (see ``tests/golden.py``).
"""

import golden


def test_every_world_writes_its_recorded_bytes():
    assert golden.differences(golden.compute(), golden.recorded()) == []
