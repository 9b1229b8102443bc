"""Every name a module of src/homstab imports is used in that module,
unless its line is marked "# noqa: F401" (a deliberate re-export); and
the braid fragment (`burau`) is loaded by `burau` runs only."""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import homstab

SRC = Path(homstab.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never referenced in source."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_sees_unused_and_marked_imports():
    src = ("import os\nimport sys  # noqa: F401\n"
           "from math import gcd, lcm\nprint(gcd)\n")
    assert unused_imports(src) == ["lcm (line 3)", "os (line 1)"]


def test_burau_loaded_by_burau_runs_only():
    code = textwrap.dedent("""
        import sys
        import homstab.cli
        from homstab import verifier
        from homstab.bracket import BracketCategory
        print("homstab.burau" in sys.modules)
        cfg = verifier.load_config({
            "family": {"kind": "symmetric", "params": {}}, "k": 2,
            "n_max": 4, "coeff": {"kind": "burau", "params": {}}})
        cat = BracketCategory(verifier.build_instance(cfg))
        print(type(verifier.build_system(cfg, cat)).__module__)
        print("homstab.burau" in sys.modules)
    """)
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False", "homstab.burau", "True"]
