"""One exact linear-algebra path: outside exact_linalg, presented groups
are computed by presented_subquotient, never by the pieces it is built
from.  Checked on the source with ast, so it runs in every tier-1 run."""

import ast
from pathlib import Path

import homstab

SRC = Path(homstab.__file__).parent

# smith_normal_form is called in exact_linalg only: G^ab, to whose
# coordinates coeff.params.subgroup refers, is H_1(G; Z) of the
# presentation complex, a presented_subquotient like every other group
SNF_CALLERS = set()
# these may be used in exact_linalg and kernels only
PIECES = {"kernel_columns", "span_columns", "LatticeSpan",
          "assemble_subquotient"}
PIECE_MODULES = {"exact_linalg", "kernels"}


def _uses():
    """(module, enclosing function, name, is_call) for every reference
    to smith_normal_form or a piece in src/homstab."""
    names = PIECES | {"smith_normal_form"}
    out = []
    for path in sorted(SRC.glob("*.py")):
        module = path.stem

        def visit(node, scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                scope = scope or node.name
            if isinstance(node, ast.alias) and node.asname:
                assert node.name not in names, \
                    f"{module} imports {node.name} under another name"
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else None)
            if name in names:
                out.append((module, scope, name, False))
            if isinstance(node, ast.Call):
                f = node.func
                called = f.id if isinstance(f, ast.Name) else getattr(
                    f, "attr", None)
                if called in names:
                    out.append((module, scope, called, True))
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(ast.parse(path.read_text()), None)
    return out


def test_smith_normal_form_called_only_where_allowed():
    calls = {f"{module}.{scope}" for module, scope, name, is_call
             in _uses() if name == "smith_normal_form" and is_call
             and module != "exact_linalg"}
    assert calls == SNF_CALLERS


def test_subquotient_pieces_stay_in_exact_linalg():
    outside = sorted({f"{module}.{scope}: {name}"
                      for module, scope, name, _ in _uses()
                      if name in PIECES and module not in PIECE_MODULES})
    assert outside == []
    # the scan sees the uses that are allowed
    assert {("exact_linalg", "presented_subquotient", "kernel_columns"),
            ("kernels", "span_columns_int64", "LatticeSpan")} <= {
        (module, scope, name) for module, scope, name, _ in _uses()}
