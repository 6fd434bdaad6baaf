"""Source hygiene checks over src/localsym that need only the stdlib."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "localsym"


def _unused_imports(tree):
    """Names bound by an import statement that no expression of the module
    reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _parsed(f):
    return ast.parse(f.read_text(), filename=str(f))


def test_no_unused_imports():
    # __init__ imports LocalsymError to re-export it
    modules = [f for f in sorted(SRC.glob("*.py")) if f.name != "__init__.py"]
    assert modules
    unused = {f.name: found for f in modules if (found := _unused_imports(_parsed(f)))}
    assert not unused, unused


def _debug_only(tree):
    """Lines of the statements that python -O strips or changes: assert
    statements and reads of __debug__."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "__debug__")
    )


def test_no_assert_in_library():
    # the library runs the same under python -O only while it has no
    # assert statement and never reads __debug__
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = {f.name: lines for f in modules if (lines := _debug_only(_parsed(f)))}
    assert not found, found


def test_debug_only_code_is_reported():
    tree = ast.parse(
        "def f(x):\n"
        "    assert x, 'positive'\n"
        "    if __debug__:\n"
        "        print(x)\n"
        "    return x\n"
    )
    assert _debug_only(tree) == [2, 3]


def test_unused_import_is_reported():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os\n"
        "from a.b import c, d as e\n"
        "import x.y\n"
        "print(c, x)\n"
    )
    assert _unused_imports(tree) == [(2, "os"), (3, "e")]


def test_one_module_loads_alone():
    # the package root imports only localfield, so a fresh interpreter that
    # imports one module loads no other
    code = "import sys, localsym.localfield; print(*(m for m in sys.modules if m.partition('.')[0] == 'localsym'))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=30, env=env)
    assert out.returncode == 0, out.stderr
    assert sorted(out.stdout.split()) == ["localsym", "localsym.localfield"]
