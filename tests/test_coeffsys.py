import pytest

from homstab.bracket import BracketCategory
from homstab.groupoids import make_wreath
from homstab.groups import cyclic_group
from homstab.homology_engine import GModule, bar_homology
from homstab.exact_linalg import FGAbelianGroup
from homstab.burau import BurauSystem, lm_mul, lp
from homstab.coeffsys import (
    CoefficientSystem, constant_system, standard_system, tensor_power,
    degree_profile, split_witness, split_degree_profile,
    abelianization_limit, abelian_constant_system, internalize,
    InternalizedSystem,
)
from homstab.exact_linalg import identity_matrix, mat_mul
from tests.oracles import (abelianization, braid_presentation,
                           burau_relation_failure, check_functoriality,
                           coords_span, presented_abelianization)


@pytest.fixture(scope="module")
def std(sym_cat):
    S = standard_system(sym_cat, 0, 4)
    S.verify()
    check_functoriality(S, 5, seed=2)
    return S


def test_constant_system(sym_cat):
    C = constant_system(sym_cat, 0, 1, 4)
    C.verify()
    check_functoriality(C, 5, seed=1)
    dp = degree_profile(C, 1, 0)
    assert (dp.status, dp.r, dp.N) == ("ok", 0, 0)


@pytest.mark.parametrize("kind", ["constant", "standard", "tensor square",
                                  "Z[Q]"])
def test_functoriality_on_samples(sym_cat, kind):
    # F(g f) = F(g) F(f) on sampled composable pairs, for each builtin
    # finite system; Z[Q] over the abelianization limit Z/2 of Sym
    def group_ring():
        lim = abelianization_limit(sym_cat, 0, 1, 4, 2)
        return abelian_constant_system(sym_cat, 0, 1, 4, lim)[0]
    F = {"constant": lambda: constant_system(sym_cat, 0, 1, 4),
         "standard": lambda: standard_system(sym_cat, 0, 4),
         "tensor square": lambda: tensor_power(
             standard_system(sym_cat, 0, 3), 2),
         "Z[Q]": group_ring}[kind]()
    F.verify()
    check_functoriality(F, 12, seed=3)


def test_functoriality_oracle_refuses_a_wrong_evaluation(sym_cat):
    # canonical morphisms evaluated without the braiding that moves the
    # image of F_m into the last coordinates: verify, which reads no
    # canonical chain, passes, and F(g f) = F(g) F(f) fails on a sample
    S = standard_system(sym_cat, 0, 3)
    S.cchain = S.schain
    S.verify()
    with pytest.raises(ValueError, match="functoriality fails"):
        check_functoriality(S, 40, seed=0)


def test_constant_with_torsion(sym_cat):
    C = constant_system(sym_cat, 0, 1, 3, rank=1, torsion=(4,))
    C.verify()
    dp = degree_profile(C, 1, 0)
    assert (dp.status, dp.r, dp.N) == ("ok", 0, 0)


def test_standard_sigma_naturality(sym_cat, std):
    # act(sigma_lower(g)) o lambda_n = lambda_n o act(g)
    for n in range(3):
        lam = std.sigma_mat(n)
        for g in std.group(n).generators:
            tw = std.modules[n + 1].act(
                sym_cat.sigma_lower_on_group(g, 0, 1, n))
            assert mat_mul(tw, lam) == mat_mul(
                lam, std.modules[n].act(g)), (n, g)


def test_standard_kernel_trivial(std):
    K = std.kernel_system()
    assert all(K.module_trivial(n) for n in range(K.n_max + 1))


def test_standard_cokernel_constant(std):
    Q = std.cokernel_system()
    Q.verify()
    assert [Q.rank(n) for n in range(Q.n_max + 1)] == [1] * (Q.n_max + 1)
    assert all(all(o == 0 for o in Q.orders(n))
               for n in range(Q.n_max + 1))


def test_standard_degree(std):
    dp = degree_profile(std, 2, 0)
    assert (dp.status, dp.r, dp.N) == ("ok", 1, 0)


def test_degree_window_guard(std):
    with pytest.raises(ValueError):
        degree_profile(std, 4, 3)   # window too small for r_max + N_max


def test_suspension_degree_lemma(std):
    # deg(F) = r at N implies deg(Sigma F) = r at max(N-1, 0)
    SS = std.suspend()
    SS.verify()
    assert [SS.rank(n) for n in range(SS.n_max + 1)] == [1, 2, 3, 4]
    dp = degree_profile(SS, 2, 0)
    assert (dp.status, dp.r, dp.N) == ("ok", 1, 0)


def test_tensor_square_degree(std):
    T = tensor_power(std, 2)
    T.verify()
    dp = degree_profile(T, 3, 0)
    assert (dp.status, dp.r, dp.N) == ("ok", 2, 0)


def test_split_witness_standard(std):
    w = split_witness(std)
    assert w is not None
    for n, rho in enumerate(w):
        assert mat_mul(rho, std.sigma_mat(n)) == identity_matrix(std.rank(n))
    sdp = split_degree_profile(std, 2, 0)
    assert (sdp.status, sdp.r, sdp.N) == ("ok", 1, 0)


def test_split_degree_tensor_square(sym_cat):
    # the split witness solves one integer system over all of rho_0..rho_5
    T = tensor_power(standard_system(sym_cat, 0, 6), 2)
    sdp = split_degree_profile(T, 3, 1)
    assert (sdp.status, sdp.r, sdp.N) == ("ok", 2, 0)
    w = split_witness(T)
    assert w is not None and len(w) == 6
    for n, rho in enumerate(w):
        assert mat_mul(rho, T.sigma_mat(n)) == identity_matrix(T.rank(n))
        for g in T.group(n).generators:
            tw = T.modules[n + 1].act(sym_cat.sigma_lower_on_group(g, 0, 1, n))
            assert mat_mul(rho, tw) == mat_mul(T.modules[n].act(g), rho)


def test_no_split_witness_for_multiplication_by_two(sym_cat):
    # F_n = Z with trivial action and s_n = multiplication by 2:
    # a valid system whose suspension map admits no retraction
    n_max = 3
    mods = [GModule(sym_cat.G.aut(n), FGAbelianGroup(1),
                    {g: [[1]] for g in sym_cat.G.aut(n).generators},
                    name=f"dbl_{n}")
            for n in range(n_max + 1)]
    F = CoefficientSystem(sym_cat, 0, 1, n_max, mods,
                          [[[2]]] * n_max, name="times2")
    F.verify()
    assert split_witness(F) is None


def test_abelianization_limit_symmetric(sym_cat):
    lim = abelianization_limit(sym_cat, 0, 1, 4, 2)
    assert str(lim.limit) == "Z/2"
    assert lim.stable_from == 2
    assert lim.certified


def test_abelianization_limit_wreath(wreath_cat):
    lim = abelianization_limit(wreath_cat, 0, 1, 3, 2)
    assert str(lim.limit) == "Z/2 + Z/2"
    assert lim.certified


@pytest.mark.parametrize("family, top", [
    ("sym_cat", 6), ("wreath_cat", 4), ("wreath3", 4), ("gl2_cat", 3)])
def test_abelianization_limit_matches_oracle(request, family, top):
    # the limit, stable_from and certified on every probe window up to
    # top, against the group-theoretic G_n^ab and the maps between them
    cat = (BracketCategory(make_wreath(cyclic_group(3))) if family ==
           "wreath3" else request.getfixturevalue(family))
    ab = [abelianization(cat.G.aut(n)) for n in range(top + 1)]
    iso = []
    for n in range(top):
        (src, _), (tgt, phi) = ab[n], ab[n + 1]
        images = [phi[cat.sigma_upper_on_group(g, n, 1)]
                  for g in cat.G.aut(n).generators]
        iso.append(src.order() == tgt.order()
                   == len(coords_span(images, tgt.torsion)))
    for n_probe in range(top + 1):
        lim = abelianization_limit(cat, 0, 1, n_probe, 2)
        least = min(n for n in range(n_probe + 1) if all(iso[n:n_probe]))
        stable_from = None if least == n_probe else least
        assert str(lim.limit) == str(ab[n_probe][0]), n_probe
        assert lim.stable_from == stable_from, n_probe
        assert lim.certified == (stable_from is not None and n_probe >= 3)
    if family == "gl2_cat":
        assert lim.stable_from is None


def test_abelianization_limit_wreath_coordinates(wreath_cat):
    # H_1(Z/2 wr Sym(n)) = Z/2 + Z/2 for n >= 2: its canonical generators
    # are the classes of the base generator and of the transpositions,
    # which is what coeff.params.subgroup refers to
    lim = abelianization_limit(wreath_cat, 0, 1, 4, 3)
    assert str(lim.limit) == "Z/2 + Z/2"
    for n in range(1, 5):
        base, *swaps = wreath_cat.G.aut(n).generators
        assert lim.s_maps[n][base] == (1, 0)
        assert all(lim.s_maps[n][s] == (0, 1) for s in swaps)
    assert lim.s_maps[0] == {}


def test_internalized_system_alternating_homology(sym_cat):
    lim = abelianization_limit(sym_cat, 0, 1, 4, 2)
    Zq, star = abelian_constant_system(sym_cat, 0, 1, 4, lim)
    I = internalize(Zq, lim, star)
    assert isinstance(I, InternalizedSystem)
    I.verify()
    # Shapiro: H_1(S_n; Z[S_n/A_n]) = H_1(A_n)
    assert str(bar_homology(I.modules[3], 1)) == "Z/3"
    assert str(bar_homology(I.modules[4], 1)) == "Z/3"
    setup = I.stabilization_setup(3)
    setup.verify()


def test_internalized_sign_values(sym_cat):
    lim = abelianization_limit(sym_cat, 0, 1, 4, 2)
    Isign = internalize(constant_system(sym_cat, 0, 1, 4), lim,
                        [[[[-1]]]] * 5)
    Isign.verify()
    vals = {Isign.modules[3].act(g)[0][0]
            for g in Isign.group(3).elements}
    assert vals == {1, -1}


def test_burau_relations_and_matrix():
    B = BurauSystem(6)
    for n in range(2, 7):
        assert burau_relation_failure(B, n) is None, n
    m2 = B.images(2)[1]
    assert m2 == [[lp((0, 1), (1, -1)), lp((1, 1))],
                  [lp((0, 1)), {}]]


def test_burau_degree():
    dp = BurauSystem(5).degree_profile(2, 0)
    assert (dp.status, dp.r, dp.N) == ("ok", 1, 0)


def test_burau_suspension_naturality():
    B = BurauSystem(5)
    for n in (1, 2, 3):
        lhs = lm_mul(B.sigma_mat(n, shift=1), B.sigma_mat(n))
        rhs = lm_mul(B.sigma_mat(n + 1), B.sigma_mat(n))
        assert lhs == rhs, n


def test_braid_abelianization():
    for n in (2, 3, 5):
        assert str(presented_abelianization(*braid_presentation(n))) == "Z"


def test_stabilization_setup_verifies(std):
    for n in range(std.n_max):
        std.stabilization_setup(n).verify()


@pytest.mark.parametrize("cat_name", ["sym_cat", "gl2_cat"])
def test_split_witness_constant_with_torsion(request, cat_name):
    # Z + Z/2: each equation modulo 2 is a relation column of the solve
    from homstab.exact_linalg import reduce_rows, rows_congruent
    cat = request.getfixturevalue(cat_name)
    C = constant_system(cat, 0, 1, 2, rank=2, torsion=(2,))
    w = split_witness(C)
    assert w is not None and len(w) == 2
    for n, rho in enumerate(w):
        orders = C.orders(n)
        assert rows_congruent(mat_mul(rho, C.sigma_mat(n)),
                              identity_matrix(C.rank(n)), orders)
        for g in C.group(n).generators:
            tw = C.modules[n + 1].act(cat.sigma_lower_on_group(g, 0, 1, n))
            assert rows_congruent(
                reduce_rows(mat_mul(rho, tw), orders),
                mat_mul(C.modules[n].act(g), rho), orders)
