"""No public name in ``src/emoconv`` exists only for the tests.

Every public top-level function or class of the package, and every public
method, must be referenced somewhere in the package, the demos or the
benchmark (``perfbench/``) other than at its own definition; references from
``tests/`` do not count.  The files are parsed, not imported.  Matching is by
name, so a dead name that shares its spelling with a live one goes unseen,
but a live name is never reported.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "emoconv"
USERS = (PACKAGE, ROOT / "demos", ROOT / "perfbench")

# perfbench names the functions it wraps as "module.function" strings
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")

# Public names kept although only the tests use them, each with its reason.
ALLOWED = {
    "format_shape_report": "kept for the planned `emoconv inspect` command "
                           "(ROADMAP item 6)",
}


def _public_definitions():
    """'module.name' or 'module.Class.method' for each public definition."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                out.append((path.stem, node.name))
            if isinstance(node, ast.ClassDef):
                out += [(path.stem, f"{node.name}.{item.name}") for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")]
    return out


def _references():
    """(every name referenced, the names read as attributes): a method is
    reached only through an attribute, or through getattr with a string."""
    names, attributes = set(), set()
    for root in USERS:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rpartition(".")[2])
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
                elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and DOTTED.fullmatch(node.value)):
                    attributes.update(node.value.split("."))
    return names | attributes, attributes


def test_every_public_name_has_a_caller_outside_the_tests():
    names, attributes = _references()
    unused = []
    for module, qualname in _public_definitions():
        owner, _, name = qualname.rpartition(".")
        if name not in (attributes if owner else names) and qualname not in ALLOWED:
            unused.append(f"{module}.{qualname}")
    assert not unused, ("public names with no caller outside tests/ (delete them, "
                        f"or add them to ALLOWED with a reason): {unused}")


def test_allowlist_names_real_definitions():
    defined = {qualname for _, qualname in _public_definitions()}
    assert set(ALLOWED) <= defined
