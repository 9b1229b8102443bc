"""One level cache and one Fox derivative in homology_engine: the
presented complexes keep their boundaries in `PresentedComplex` alone,
and every Fox derivative is `PresentationComplex.word_fox` of a word, so
no resolution holds a per-element memo.  Checked on the source with ast,
so it runs in every tier-1 run."""

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
