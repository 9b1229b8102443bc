import math
import os
import subprocess
import sys
import textwrap
import types

import pytest

from homstab.bracket import BracketCategory, UMorphism
from homstab.groupoids import (
    BraidedGroupoidInstance, FiniteRing, SymmetricGroupoid, WreathGroupoid,
    make_general_linear, make_symmetric, make_wreath)
from homstab.groups import (BudgetExceeded, FiniteGroup, cyclic_group,
                            symmetric_group)
from homstab.simplicial import SemiSimplicialSet, build_W
from tests import oracles


@pytest.mark.parametrize("m,n", [(m, n) for n in range(0, 7)
                                 for m in range(0, n + 1)])
def test_fi_hom_counts(sym_cat, m, n):
    # |Hom(m, n)| = n! / (n-m)! : injections of an m-set into an n-set
    hom = sym_cat.hom_set(m, n)
    assert len(hom) == math.factorial(n) // math.factorial(n - m)
    assert len(set(hom)) == len(hom)


def test_composition_associative(sym_cat):
    cat = sym_cat
    for f in cat.hom_set(1, 2):
        for g in cat.hom_set(2, 3):
            for h in cat.hom_set(3, 4):
                assert cat.compose(h, cat.compose(g, f)) == \
                    cat.compose(cat.compose(h, g), f)


def test_identity_morphisms(sym_cat):
    cat = sym_cat
    for f in cat.hom_set(2, 4):
        assert cat.compose(cat.identity_mor(4), f) == f
        assert cat.compose(f, cat.identity_mor(2)) == f


def test_iota_initial(sym_cat):
    # 0 is initial: exactly one morphism 0 -> n
    for n in range(0, 5):
        assert len(sym_cat.hom_set(0, n)) == 1
        assert sym_cat.hom_set(0, n)[0] == sym_cat.iota(n)


def test_monoidal_sum_functorial(sym_cat):
    cat = sym_cat
    for f in cat.hom_set(1, 2):
        for g in cat.hom_set(1, 3):
            s = cat.monoidal_sum(f, g)
            assert s in cat.hom_set(2, 5)


@pytest.mark.parametrize("m,n", [(0, 0), (0, 3), (1, 3), (2, 4), (3, 5)])
def test_homogeneity_symmetric(sym_cat, m, n):
    assert sym_cat.verify_homogeneity(m, n)["passed"]


@pytest.mark.parametrize("m,n", [(0, 2), (1, 2), (1, 3), (2, 3)])
def test_homogeneity_wreath(wreath_cat, m, n):
    assert wreath_cat.verify_homogeneity(m, n)["passed"]


@pytest.mark.parametrize("m,n", [(0, 2), (1, 2), (1, 3), (2, 3)])
def test_homogeneity_gl(gl2_cat, m, n):
    assert gl2_cat.verify_homogeneity(m, n)["passed"]


def test_prebraid_all_instances(sym_cat, wreath_cat, gl2_cat):
    for cat, n_max in ((sym_cat, 5), (wreath_cat, 3), (gl2_cat, 3)):
        assert cat.verify_prebraid(n_max)["passed"]


def test_local_standardness(sym_cat):
    assert sym_cat.verify_local_standardness(0, 1, 4)["passed"]


def test_upper_suspension_canonical(sym_cat):
    # sigma^X : n -> n+1 composed with canonical morphisms stays canonical
    cat = sym_cat
    for n in range(0, 4):
        up = cat.upper_suspension(n, 1)
        assert up in cat.hom_set(n, n + 1)


def test_lower_suspension_naturality(sym_cat):
    # Sigma_X(sigma_{X,n}) o sigma_{X,n} = sigma_{X,n+1} o sigma_{X,n}
    cat = sym_cat
    for n in range(1, 4):
        s_n = cat.lower_suspension(0, 1, n)
        s_n1 = cat.lower_suspension(0, 1, n + 1)
        shifted = cat.lower_suspension_of_mor(s_n, 0, 1)
        assert cat.compose(shifted, s_n) == cat.compose(s_n1, s_n)


def test_face_inclusions_satisfy_simplicial_identity(sym_cat):
    cat = sym_cat
    x = 1
    for p in range(1, 4):
        for i in range(p + 1):
            for j in range(i):
                # d_j d_i = d_{i-1} d_j on inclusions (dual identity)
                lhs = cat.compose(
                    oracles.face_inclusion(cat, p, i, x),
                    oracles.face_inclusion(cat, p - 1, j, x))
                rhs = cat.compose(
                    oracles.face_inclusion(cat, p, j, x),
                    oracles.face_inclusion(cat, p - 1, i - 1, x))
                assert lhs == rhs


def _cyclic3_identity_last():
    # Z/3 relabelled by x -> x + 2: the identity 2 is the largest element,
    # so the minimal label is not the identity
    return FiniteGroup(range(3), lambda a, b: (a + b - 2) % 3,
                       lambda a: (1 - a) % 3, 2, name="Z/3'")


COSET_CASES = [
    ("Sym", make_symmetric, 4),
    ("Z/2 wr Sym", lambda: make_wreath(cyclic_group(2)), 3),
    ("Z/3 wr Sym", lambda: make_wreath(cyclic_group(3)), 3),
    ("Z/3' wr Sym", lambda: make_wreath(_cyclic3_identity_last()), 3),
    ("Sym(3) wr Sym", lambda: make_wreath(symmetric_group(3)), 2),
    ("GL(F_2)", lambda: make_general_linear(FiniteRing(2)), 3),
    ("GL(F_3)", lambda: make_general_linear(FiniteRing(3)), 2),
    ("GL(Z/4)", lambda: make_general_linear(FiniteRing(4)), 2),
]


@pytest.mark.parametrize("name,make,n_max", COSET_CASES,
                         ids=[c[0] for c in COSET_CASES])
def test_canonicalize_matches_coset_minimum(name, make, n_max):
    # the closed-form coset minimum against the generic one, on every
    # element of Aut(n) and every complement c <= n
    G = make()
    closed_form = name != "GL(Z/4)"
    assert (G.coset_min.__func__ is not BraidedGroupoidInstance.coset_min) \
        == closed_form
    cat = BracketCategory(G)
    for n in range(n_max + 1):
        for c in range(n + 1):
            idm = G.identity(n - c)
            block = [G.block_sum(g, idm, c, n - c) for g in G.aut(c)]
            for f in G.aut(n):
                expect = min(G.mul(f, b) for b in block)
                assert cat.canonicalize(n - c, n, f).rep == expect, (n, c, f)


# (A, X) of the W_n that the face tests build
W_SHAPES = [(0, 1), (1, 1), (0, 2)]


def _largest_object(G):
    """The largest n whose Aut(n) the group budget admits: Sym and G wr
    Sym refuse at the first read of the elements, GL when built."""
    n = 0
    while True:
        try:
            G.aut(n + 1).elements
        except BudgetExceeded:
            return n
        n += 1


@pytest.mark.parametrize("name,make,n_max", COSET_CASES,
                         ids=[c[0] for c in COSET_CASES])
def test_hom_reps_match_scan(name, make, n_max):
    # the closed-form hom sets against the generic scan of Aut(n), for
    # every 0 <= m <= n up to the largest object the group budget admits;
    # the order formula against the enumerated order, and its refusal
    # against the enumeration's
    G = make()
    closed_form = not name.startswith("GL")
    assert (type(G).hom_reps is not BraidedGroupoidInstance.hom_reps) \
        == closed_form
    assert (type(G).aut_order is not BraidedGroupoidInstance.aut_order) \
        == closed_form
    top = _largest_object(G)
    assert top >= n_max
    for n in range(top + 1):
        assert G.aut_order(n) == G.aut(n).order
        for m in range(n + 1):
            assert G.hom_reps(m, n) == \
                BraidedGroupoidInstance.hom_reps(G, m, n), (m, n)
    with pytest.raises(BudgetExceeded) as formula:
        G.aut_order(top + 1)
    with pytest.raises(BudgetExceeded) as enumeration:
        G.aut(top + 1).elements
    assert (str(formula.value), formula.value.estimate) == \
        (str(enumeration.value), enumeration.value.estimate)


@pytest.mark.parametrize("name,make,n_max", COSET_CASES,
                         ids=[c[0] for c in COSET_CASES])
def test_face_reps_match_generic(name, make, n_max):
    # the one-step faces against permute and then coset_min, on every
    # element of Aut(n), every complement c and every block i of width
    # x = 1 or 2
    G = make()
    closed_form = not name.startswith("GL")
    assert (type(G).face_reps is not BraidedGroupoidInstance.face_reps) \
        == closed_form
    for n in range(n_max + 1):
        elements = list(G.aut(n))
        for x in (1, 2):
            for c in range(n + 1):
                for i in range((n - c) // x):
                    assert G.face_reps(c, i, x, elements) == \
                        BraidedGroupoidInstance.face_reps(
                            G, c, i, x, elements), (n, x, c, i)


def test_W_levels_match_generic_coset_minimum():
    closed = make_wreath(cyclic_group(3))
    generic = make_wreath(cyclic_group(3))
    for method in ("coset_min", "hom_reps", "aut_order", "face_reps"):
        setattr(generic, method, types.MethodType(
            getattr(BraidedGroupoidInstance, method), generic))
    W = build_W(BracketCategory(closed), 0, 1, 3)
    W_generic = build_W(BracketCategory(generic), 0, 1, 3)
    assert W.levels == W_generic.levels
    assert oracles.face_arrays(W) == oracles.face_arrays(W_generic)


def _local_standardness_unmemoized(cat, A, x, n_max):
    """verify_local_standardness scanning G_n for every stabilizer it
    compares, faces included, with no memo."""
    out = {"A": A, "X": x, "n_max": n_max}
    left = cat.monoidal_sum(
        cat.monoidal_sum(cat.iota(A), cat.identity_mor(x)), cat.iota(x))
    right = cat.monoidal_sum(cat.iota(A + x), cat.identity_mor(x))
    out["LS1"] = left != right
    ls2_fail = []
    for n in range(1, n_max + 1):
        images = {}
        for f in cat.hom_set(x, A + (n - 1) * x):
            img = cat.monoidal_sum(f, cat.iota(x))
            if img in images:
                ls2_fail.append((n, images[img], f))
            images[img] = f
    out["LS2"] = not ls2_fail
    out["LS2_failures"] = ls2_fail
    stab_fail = []
    for n in range(2, n_max + 1):
        G_n = cat.G.aut(A + n * x)
        for f in cat.hom_set(2 * x, A + n * x):
            d0 = cat.compose(f, oracles.face_inclusion(cat, 1, 0, x))
            d1 = cat.compose(f, oracles.face_inclusion(cat, 1, 1, x))
            stab_f = {p for p in G_n if cat.post_compose(p, f) == f}
            stab_faces = {p for p in G_n
                          if cat.post_compose(p, d0) == d0
                          and cat.post_compose(p, d1) == d1}
            if stab_f != stab_faces:
                stab_fail.append((n, f))
    out["edge_stabilizers"] = not stab_fail
    out["edge_stabilizer_failures"] = stab_fail
    out["passed"] = out["LS1"] and out["LS2"] and out["edge_stabilizers"]
    return out


@pytest.mark.parametrize("make,A,n_max", [
    (lambda: make_general_linear(FiniteRing(4)), 0, 2),
    (make_symmetric, 0, 4),
    (make_symmetric, 1, 3),
    (lambda: make_general_linear(FiniteRing(2)), 0, 3),
    (lambda: make_general_linear(FiniteRing(3)), 0, 2),
    (lambda: make_wreath(cyclic_group(3)), 0, 3),
], ids=["GL(Z/4)", "Sym", "Sym A=1", "GL(F2)", "GL(F3)", "Z/3 wr Sym"])
def test_local_standardness_matches_unmemoized(make, A, n_max):
    cat = BracketCategory(make())
    assert cat.verify_local_standardness(A, 1, n_max) == \
        _local_standardness_unmemoized(cat, A, 1, n_max)


@pytest.mark.parametrize("make,n_top", [
    (make_symmetric, 4),
    (lambda: make_wreath(cyclic_group(3)), 3),
    (lambda: make_general_linear(FiniteRing(2)), 3),
    (lambda: make_general_linear(FiniteRing(3)), 2),
    (lambda: make_general_linear(FiniteRing(4)), 2),
], ids=["Sym", "Z/3 wr Sym", "GL(F2)", "GL(F3)", "GL(Z/4)"])
def test_stabilizer_matches_scan(make, n_top):
    # the conjugated left block is the stabilizer a scan of Aut(n) finds,
    # for every morphism m -> n
    cat = BracketCategory(make())
    for n in range(n_top + 1):
        for m in range(n + 1):
            for u in cat.hom_set(m, n):
                scan = {p for p in cat.G.aut(n)
                        if cat.post_compose(p, u) == u}
                assert cat.stabilizer(u) == scan, u


def _face_mismatches(cat, A, x, top):
    """Where build_W and BracketCategory.face disagree with the bracket
    composite f delta_i, over every W_n(A, X) with A + nX <= top."""
    out = []
    for n in range((top - A) // x + 1):
        W, want = build_W(cat, A, x, n), oracles.build_W(cat, A, x, n)
        if W.levels != want.levels or \
                oracles.face_arrays(W) != oracles.face_arrays(want):
            out.append(("build_W", n))
        for p, level in enumerate(W.levels):
            homs = [UMorphism((p + 1) * x, A + n * x, r) for r in level]
            for i in range(p + 1):
                inc = oracles.face_inclusion(cat, p, i, x)
                out += [("face", n, p, i, f) for f in homs
                        if cat.face(f, i, x) != cat.compose(f, inc)]
    return out


@pytest.mark.parametrize("name,make,n_max", COSET_CASES,
                         ids=[c[0] for c in COSET_CASES])
@pytest.mark.parametrize("A,x", W_SHAPES, ids=["A0X1", "A1X1", "A0X2"])
def test_faces_match_bracket_composite(name, make, n_max, A, x):
    cat = BracketCategory(make())
    assert _face_mismatches(cat, A, x, _largest_object(cat.G)) == []


class _MirroredFaces(BracketCategory):
    """Face i reorders block p - i instead of block i, in build_W and in
    face alike."""

    def face_reps(self, m, n, reps, i, x):
        return super().face_reps(m, n, reps, m // x - 1 - i, x)


@pytest.mark.parametrize("make", [
    make_symmetric, lambda: make_wreath(cyclic_group(3)),
    lambda: make_general_linear(FiniteRing(2))],
    ids=["Sym", "Z/3 wr Sym", "GL(F_2)"])
def test_face_comparison_catches_wrong_block(make):
    # reversing the face order keeps the semi-simplicial identities, so
    # only the comparison with the composite can see it
    out = _face_mismatches(_MirroredFaces(make()), 0, 1, 3)
    assert {("build_W", 2), ("build_W", 3)} <= set(out)
    assert any(m[0] == "face" for m in out)


def _broken_face_arrays():
    # two edges on three vertices: d_0 d_1 of the triangle is vertex 1,
    # through edge 0, but d_0 d_0 is vertex 2, through edge 1
    levels = [[0, 1, 2], [(0, 1), (1, 2)], [(0, 1, 2)]]
    faces = [None, [[1, 2], [0, 1]], [[1], [0], [0]]]
    return levels, faces


def test_semisimplicial_identity_violation_raises():
    with pytest.raises(AssertionError, match="semi-simplicial identity"):
        SemiSimplicialSet(*_broken_face_arrays())


def test_hom_set_count_violation_raises():
    # GL(Z/4) lists its hom sets by scanning Aut(n) with coset_min; one
    # that returns f itself leaves Aut(1) + id unquotiented
    G = make_general_linear(FiniteRing(4))
    G.coset_min = lambda c, f: f
    with pytest.raises(AssertionError, match=r"hom set \(1,2\) has 96"):
        BracketCategory(G).hom_set(1, 2)


def _broken_closed_forms():
    """(instance, m, n, message) for closed-form hom sets that break the
    check: Sym with one rep dropped, Z/3 wr Sym with the first rep in
    place of the second."""
    sym = make_symmetric()
    sym.hom_reps = lambda m, n: SymmetricGroupoid.hom_reps(sym, m, n)[1:]
    wreath = make_wreath(cyclic_group(3))

    def repeated(m, n):
        reps = WreathGroupoid.hom_reps(wreath, m, n)
        return reps[:1] + reps[:1] + reps[2:]

    wreath.hom_reps = repeated
    return [(sym, 1, 3, "hom set (1,3) has 2 morphisms"),
            (wreath, 1, 3, "hom set (1,3) lists a rep twice")]


@pytest.mark.parametrize("case", [0, 1], ids=["Sym drops", "Z/3 wr repeats"])
def test_closed_form_hom_set_violation_raises(case):
    # build_W lists the same checked reps: level 0 of W_3(0, 1) is (1,3)
    G, m, n, message = _broken_closed_forms()[case]
    for read in (lambda: BracketCategory(G).hom_set(m, n),
                 lambda: build_W(BracketCategory(G), 0, 1, n)):
        with pytest.raises(AssertionError) as exc:
            read()
        assert str(exc.value).startswith(message)


def test_checks_survive_optimized_python():
    code = textwrap.dedent("""
        from homstab.bracket import BracketCategory
        from homstab.groupoids import FiniteRing, make_general_linear
        from homstab.simplicial import SemiSimplicialSet, build_W
        from tests.test_bracket import (_broken_closed_forms,
                                        _broken_face_arrays)
        from tests.test_homology import (_broken_phi_setups,
                                         _dropped_relator_complex)

        assert False, "not running under python -O"
        try:
            SemiSimplicialSet(*_broken_face_arrays())
        except AssertionError as exc:
            print(exc)
        G = make_general_linear(FiniteRing(4))
        G.coset_min = lambda c, f: f
        cases = [(G, 1, 2, None)] + _broken_closed_forms()
        for G, m, n, _ in cases:
            try:
                BracketCategory(G).hom_set(m, n)
            except AssertionError as exc:
                print(exc)
        for G, m, n, _ in _broken_closed_forms():
            try:
                build_W(BracketCategory(G), 0, 1, n)
            except AssertionError as exc:
                print(exc)
        for setup, _ in _broken_phi_setups():
            try:
                setup.verify()
            except AssertionError as exc:
                print(exc)
        try:
            _dropped_relator_complex().homology(1)
        except AssertionError as exc:
            print(exc)
    """)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src"), root]))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    assert len(lines) == 9
    assert "semi-simplicial identity" in lines[0]
    assert lines[1].startswith("hom set (1,2) has 96 morphisms")
    for line, case in zip(lines[2:4], _broken_closed_forms()):
        assert line.startswith(case[3])
    for line, case in zip(lines[4:6], _broken_closed_forms()):
        assert line.startswith(case[3])
    assert lines[6:] == ["phi is not a homomorphism", "phi is not injective",
                         "presentation complex: H_1 = Z is not killed by "
                         "|G| = 4"]
