"""File I/O in ``src/emoconv`` goes through ``dataio`` alone.

``dataio.read_lines`` decodes every text input and names the line of a
fault, and ``dataio.atomic_write`` writes every output whole or not at all.
A module that opens a file itself, or renames one into place, bypasses
both, so no module but ``dataio.py`` may call ``open`` (or pathlib's and
numpy's file shortcuts), use ``tempfile``, or call ``os.replace`` or
``os.rename``.  The files are parsed, not imported.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "emoconv"

FILE_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes",
              "loadtxt", "savetxt", "genfromtxt", "fromfile", "tofile"}
RENAMES = {"replace", "rename"}


def _file_io(source: str) -> list[str]:
    """'line N: what' for each file operation in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in FILE_CALLS:
                found.append(f"line {node.lineno}: calls {name}")
            elif (name in RENAMES and isinstance(func, ast.Attribute)
                  and isinstance(func.value, ast.Name) and func.value.id == "os"):
                found.append(f"line {node.lineno}: calls os.{name}")
        elif isinstance(node, ast.Import):
            found += [f"line {node.lineno}: imports tempfile"
                      for alias in node.names if alias.name == "tempfile"]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "tempfile":
                found.append(f"line {node.lineno}: imports tempfile")
            elif node.module == "os":
                found += [f"line {node.lineno}: imports os.{alias.name}"
                          for alias in node.names if alias.name in RENAMES]
    return found


def test_only_dataio_opens_or_replaces_files():
    offenders = {path.name: found for path in sorted(PACKAGE.glob("*.py"))
                 if path.name != "dataio.py"
                 and (found := _file_io(path.read_text(encoding="utf-8")))}
    assert not offenders, ("file I/O outside dataio.py; read through "
                           f"dataio.read_lines and write through dataio.atomic_write: {offenders}")


def test_dataio_opens_files_in_the_reader_the_writer_and_the_checkpoint_read():
    found = _file_io((PACKAGE / "dataio.py").read_text(encoding="utf-8"))
    assert sorted(f.split(": ")[1] for f in found) == ["calls open"] * 3 + ["calls os.replace"]


def test_the_check_sees_each_way_round_dataio():
    snippets = ["open('x')", "io.open('x')", "Path('x').write_text('y')", "np.loadtxt('x')",
                "import tempfile", "from tempfile import mkstemp", "os.replace('a', 'b')",
                "from os import rename"]
    assert all(_file_io(s) for s in snippets)
    assert not _file_io("text.replace('a', 'b')\nconfig.replace(lr=1.0)\nnp.load")
