"""Every script in ``demos/`` runs to completion.

Each demo runs in its own interpreter, as a user runs it, with ``src`` on
the import path and one BLAS thread; a demo that exits nonzero fails with
its stderr.  The toy-model demo also runs in this process, to count what
it tokenizes.
"""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from emoconv import textprep

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_there_are_demos():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **{var: "1" for var in THREAD_VARS})
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120, check=False)
    assert done.returncode == 0, done.stderr


def test_train_demo_tokenizes_each_turn_once(monkeypatch, tmp_path):
    # its 48 training and 16 validation conversations, three turns each: the
    # training rows build the vocabulary and are encoded, and the encoded
    # validation split serves both training and the final report
    core, texts = textprep._tokens, []

    def counted(chunk):
        texts.extend(chunk)
        return core(chunk)

    monkeypatch.setattr(textprep, "_tokens", counted)
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(ROOT / "demos" / "train_toy_model.py"), run_name="__main__")
    assert len(texts) == 3 * (48 + 16)
