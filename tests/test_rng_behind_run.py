"""A generator in ``src/emoconv`` is seeded in ``train.seeded_table`` alone.

A seed reproduces a run only while the table, the model and every draw of
training come from the one generator its run entry seeds, in one order.
Both run entries (``train.run``, ``finetune.run``) start from
``seeded_table``; a second place that seeds a generator is a second,
hand-made run set-up, so no other function may call ``default_rng`` (or
make numpy's other generators and seed sequences, or import one of their
makers by name).  The files are parsed, not imported.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "emoconv"

SEEDING = {"default_rng", "Generator", "RandomState", "SeedSequence"}


def _seedings(source: str) -> list[str]:
    """'WHERE line N' for each generator made in ``source``: WHERE is the
    top-level function or class that makes it, or <module>."""
    found = []
    for top in ast.parse(source).body:
        where = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in SEEDING:
                    found.append(f"{where} line {node.lineno}")
            elif isinstance(node, ast.ImportFrom):
                found += [f"{where} line {node.lineno}"
                          for alias in node.names if alias.name in SEEDING]
    return found


def test_only_the_seeded_start_of_both_run_entries_seeds_a_generator():
    found = [f"{path.name}: {f}" for path in sorted(PACKAGE.glob("*.py"))
             for f in _seedings(path.read_text(encoding="utf-8"))]
    assert [f.split(" line ")[0] for f in found] == ["train.py: seeded_table"], (
        "a generator seeded outside train.seeded_table; draw from the "
        f"generator of the run entry instead: {found}")


def test_the_check_sees_each_way_to_make_a_generator():
    snippets = ["np.random.default_rng(0)", "default_rng(0)", "numpy.random.RandomState(1)",
                "np.random.Generator(np.random.PCG64(0))", "np.random.SeedSequence(3)",
                "from numpy.random import default_rng as fresh"]
    assert all(_seedings(s) for s in snippets)
    assert _seedings("def run(seed):\n    return np.random.default_rng(seed)\n") == [
        "run line 2"]
    assert not _seedings("rng.permutation(5)\nconfig.seed\nx: np.random.Generator = rng\n")
