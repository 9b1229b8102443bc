"""One level cache, one Fox derivative and one homology path: the
presented complexes keep their boundaries in `PresentedComplex` alone,
every Fox derivative is `PresentationComplex.word_fox` of a word, so no
resolution holds a per-element memo, and the only unit-pair reduction in
src is the one of `PresentedComplex.homology`.  Checked on the source
with ast, so it runs in every tier-1 run."""

import ast
from pathlib import Path

import homstab

ENGINE = Path(homstab.__file__).parent / "homology_engine.py"


def _methods():
    """{(class, method): the method's node} for every class of the
    engine."""
    tree = ast.parse(ENGINE.read_text())
    return {(cls.name, fn.name): fn
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for fn in cls.body
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _assigns_boundaries(fn) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Attribute) and t.attr == "_boundaries"
               for t in targets):
            return True
    return False


def test_boundaries_kept_in_presented_complex_only():
    methods = _methods()
    assert {key for key, fn in methods.items()
            if _assigns_boundaries(fn)} == {("PresentedComplex", "__init__")}
    assert {cls for cls, name in methods if name == "boundary"} == \
        {"PresentedComplex"}


def test_presentation_complex_holds_no_memo():
    methods = _methods()
    assert ("PresentationComplex", "word_fox") in methods
    assert ("PresentationComplex", "__init__") not in methods


def test_reduce_unit_pairs_called_in_presented_complex_homology_only():
    # one homology path: every unit-pair reduction is the one in
    # PresentedComplex.homology, whatever complex it reduces
    callers = []
    for path in sorted(ENGINE.parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for cls in [tree] + [c for c in ast.walk(tree)
                             if isinstance(c, ast.ClassDef)]:
            for fn in cls.body:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    callers += [(path.name, getattr(cls, "name", None),
                                 fn.name) for node in ast.walk(fn)
                                if isinstance(node, ast.Call)
                                and "reduce_unit_pairs" in (
                                    getattr(node.func, "id", None),
                                    getattr(node.func, "attr", None))]
    assert callers == [("homology_engine.py", "PresentedComplex",
                        "homology")]
