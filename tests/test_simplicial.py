import math

import pytest

from homstab import pi1
from homstab.exact_linalg import FGAbelianGroup
from homstab.simplicial import (
    build_W, build_S, lift_profile, link, connectivity_certificate,
    weakly_cm_report, SimplicialComplex,
)
from tests.oracles import (complexes_isomorphic, ord_of_complex,
                           w_isomorphic_to_ord)
from tests.test_simplicial_oracles import reduced_levels


@pytest.mark.parametrize("n", range(1, 7))
def test_W_level_sizes_symmetric(sym_cat, n):
    W = build_W(sym_cat, 0, 1, n)
    # p-simplices = injections of a (p+1)-set into an n-set
    for p, level in enumerate(W.levels):
        assert len(level) == math.factorial(n) // math.factorial(n - p - 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_S_is_full_simplex(sym_cat, n):
    # S_n(0,1) in U-Sigma is the (n-1)-simplex on n vertices
    S = build_S(build_W(sym_cat, 0, 1, n))
    assert S.n_vertices == n
    full = SimplicialComplex(n, [tuple(range(n))])
    assert complexes_isomorphic(S, full) is not None
    hom = S.chain_complex().reduced_homology(n - 1)
    assert all(h.is_trivial() for h in hom)


# the 6-vertex real projective plane (the hemi-icosahedron)
RP2 = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
       (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)]


def test_rp2_torsion_survives_reduction(monkeypatch):
    S = SimplicialComplex(6, RP2)
    assert S.chain_complex().reduced_homology(2) == \
        [FGAbelianGroup(0), FGAbelianGroup(0, (2,)), FGAbelianGroup(0)]
    # every unit pairs off: one edge and one triangle are left, and the
    # boundary between them is the non-unit 2
    (ds,) = reduced_levels(monkeypatch,
                           lambda: S.chain_complex().reduced_homology(2))
    assert [d.ncols for d in ds] == [0, 1, 1, 0]
    assert ds[2].cols in ([{0: 2}], [{0: -2}])


@pytest.mark.parametrize("n", range(2, 7))
def test_lift_profile_condition_A(sym_cat, n):
    W = build_W(sym_cat, 0, 1, n)
    lp = lift_profile(W)
    assert set(lp.counts) == build_S(W).simplices
    assert lp.condition == "A"
    for simplex, count in lp.counts.items():
        assert count == math.factorial(len(simplex))


def test_lift_counts_exact_factorial(sym_cat):
    # exactly (p+1)! lifts per p-simplex, p <= 4, n <= 6
    for n in range(1, 7):
        W = build_W(sym_cat, 0, 1, n)
        lp = lift_profile(W)
        assert set(lp.counts) == build_S(W).simplices
        for simplex, count in lp.counts.items():
            p = len(simplex) - 1
            if p > 4:
                continue
            assert count == math.factorial(p + 1)


def test_link_recursion(sym_cat):
    # Link of a p-simplex of S_n(0,1) is S_{n-p-1}(0,1)
    for n in range(2, 7):
        S = build_S(build_W(sym_cat, 0, 1, n))
        for p in range(n - 1):
            sigma = tuple(range(p + 1))
            L = link(S, sigma)
            Sm = build_S(build_W(sym_cat, 0, 1, n - p - 1))
            assert complexes_isomorphic(L, Sm) is not None


def test_ord_complex_matches_W(sym_cat):
    for n in range(1, 5):
        W = build_W(sym_cat, 0, 1, n)
        S = build_S(W)
        assert w_isomorphic_to_ord(W, ord_of_complex(S))


@pytest.mark.parametrize("n", range(1, 6))
def test_W_connectivity_symmetric(sym_cat, n):
    # |W_n(0,1)| is (n-2)-connected, certified topologically
    W = build_W(sym_cat, 0, 1, n)
    cert = connectivity_certificate(W, n - 2, 10 ** 6)
    assert cert.meets_target
    assert cert.mode == "topological"
    assert cert.certified_connectivity >= n - 2


def test_weakly_cm_full_simplex(sym_cat):
    S = build_S(build_W(sym_cat, 0, 1, 5))
    rep = weakly_cm_report(S, 3, 10 ** 5)
    assert rep.passed


def test_empty_complex_convention(sym_cat):
    W = build_W(sym_cat, 0, 1, 0)
    cert = connectivity_certificate(W, -2, 10 ** 4)
    assert cert.meets_target


def test_gl_W_connectivity(gl2_cat):
    # A = R^{sr(R)} = R for the field F_2; floor((n-2)/2)-connected
    for n in (1, 2):
        W = build_W(gl2_cat, 1, 1, n)
        target = (n - 2) // 2
        cert = connectivity_certificate(W, target, 10 ** 5)
        assert cert.meets_target_homological


def _cert_fields(c):
    return (c.components, c.homology_vanishing_up_to, c.pi1_status,
            c.certified_connectivity, c.mode, c.meets_target,
            c.meets_target_homological)


def test_connectivity_certificate_branches(sym_cat, monkeypatch):
    W4 = build_W(sym_cat, 0, 1, 4)
    # pi1 certified trivial: the vanishing degree is a topological claim
    assert _cert_fields(connectivity_certificate(W4, 2)) == \
        (1, 2, "trivial", 2, "topological", True, True)
    # pi1 not attempted (H-tilde_0 alone): topological up to 0-connected
    assert _cert_fields(connectivity_certificate(
        build_W(sym_cat, 0, 1, 2), 1)) == \
        (1, 0, "not attempted", 0, "topological", False, False)
    # pi1 unknown: the vanishing degree is only a homological claim
    monkeypatch.setattr(pi1, "pi1_triviality",
                        lambda skel, budget: ("unknown (budget)", {}))
    assert _cert_fields(connectivity_certificate(W4, 2)) == \
        (1, 2, "unknown (budget)", 2, "homological", False, True)
    assert _cert_fields(connectivity_certificate(W4, 1)) == \
        (1, 1, "unknown (budget)", 1, "homological", False, True)
    assert _cert_fields(connectivity_certificate(W4, 0)) == \
        (1, 0, "not attempted", 0, "topological", True, True)
