from homstab.simplicial import SimplicialComplex, build_W
from homstab.pi1 import (
    two_skeleton_from_semisimplicial, edge_path_presentation, todd_coxeter_trivial, pi1_triviality,
)


def _full_simplex(n):
    return SimplicialComplex(n, [tuple(range(n))])


def test_simplex_pi1_trivial():
    skel = two_skeleton_from_semisimplicial(_full_simplex(4))
    status, _ = pi1_triviality(skel)
    assert status == "trivial"


def test_circle_pi1_nontrivial():
    # triangle boundary: pi1 = Z, coset enumeration cannot collapse
    circle = SimplicialComplex(3, [(0, 1), (1, 2), (0, 2)])
    skel = two_skeleton_from_semisimplicial(circle)
    status, _ = pi1_triviality(skel, budget_rows=10_000)
    assert status != "trivial"


def test_disconnected_pi1_not_connected():
    # two disjoint edges: the 1-skeleton has two components
    pair = SimplicialComplex(4, [(0, 1), (2, 3)])
    skel = two_skeleton_from_semisimplicial(pair)
    status, detail = pi1_triviality(skel)
    assert status == "not connected"
    assert detail == {"note": "disconnected 1-skeleton"}


def test_sphere_trivial():
    # boundary of a tetrahedron: simply connected
    sphere = SimplicialComplex(4, [
        (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    skel = two_skeleton_from_semisimplicial(sphere)
    assert pi1_triviality(skel)[0] == "trivial"


def test_presentation_shape():
    # circle: 3 edge generators, 2 tree relators, no triangles
    circle = SimplicialComplex(3, [(0, 1), (1, 2), (0, 2)])
    skel = two_skeleton_from_semisimplicial(circle)
    n_gens, relators = edge_path_presentation(skel)
    assert n_gens == 3
    assert sum(1 for r in relators if len(r) == 1) == 2
    assert all(len(r) == 1 for r in relators)


def test_todd_coxeter():
    # <a | a^3, a^4> is trivial (gcd), <a | a^3> = Z/3 is not
    status, n = todd_coxeter_trivial(1, [[1, 1, 1], [1, 1, 1, 1]], 10_000)
    assert status == "trivial" and n == 1
    status, n = todd_coxeter_trivial(1, [[1, 1, 1]], 10_000)
    assert status == "finite" and n == 3


def test_budget_exhaustion_reports_unknown():
    # surface-group-like presentation with a tight budget
    rel = [[1, 2, -1, -2, 3, 4, -3, -4]]
    status, _ = todd_coxeter_trivial(4, rel, 2)
    assert status == "unknown"


def test_w_skeleton_agrees_with_complex(sym_cat):
    W = build_W(sym_cat, 0, 1, 4)
    skel = two_skeleton_from_semisimplicial(W)
    assert pi1_triviality(skel)[0] == "trivial"
