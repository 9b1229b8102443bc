import itertools
import math

import pytest

from homstab.groups import (BudgetExceeded, symmetric_group, cyclic_group,
                            wreath_group)
from homstab.exact_linalg import FGAbelianGroup
from homstab.pi1 import todd_coxeter_trivial
from homstab.homology_engine import (
    BarBudget, GModule, trivial_module, permutation_module,
    bar_homology, coinvariants, resolve,
)
from tests.oracles import (S4_RELATORS, abelianization, alternating_group,
                           conjugation_acts_trivially, group_ring_module,
                           hopf_h2, quotient_group, sign_module,
                           unreduced_homology)


def test_coxeter_presentation_presents_s4():
    status, cosets = todd_coxeter_trivial(3, S4_RELATORS, 100_000)
    assert status == "finite" and cosets == 24


def test_h2_s4_hopf_oracle_vs_bar():
    G = symmetric_group(4)
    gens = [(1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)]
    hopf = hopf_h2(G, gens)
    assert str(hopf) == "Z/2"
    bar = bar_homology(trivial_module(G), 2)
    assert (bar.free_rank, bar.torsion) == (hopf.free_rank, hopf.torsion)


def test_h2_s3_hopf_oracle_vs_bar():
    G = symmetric_group(3)
    gens = [(1, 0, 2), (0, 2, 1)]
    hopf = hopf_h2(G, gens)
    assert hopf.is_trivial()
    assert bar_homology(trivial_module(G), 2).is_trivial()


# ----------------------------------------------------------------------
# bar-complex results against closed-form oracles


@pytest.mark.parametrize("n", range(2, 6))
def test_h1_symmetric_is_z2(n):
    h = bar_homology(trivial_module(symmetric_group(n)), 1)
    assert str(h) == "Z/2"


@pytest.mark.parametrize("n,label", [(3, "Z/3"), (4, "Z/3"),
                                     (5, "0"), (6, "0")])
def test_h1_alternating(n, label):
    G = alternating_group(n)
    h = bar_homology(trivial_module(G), 1)
    assert str(h) == label
    # H_1 = abelianization
    ab, _ = abelianization(G)
    assert (h.free_rank, h.torsion) == (ab.free_rank, ab.torsion)


def test_h1_is_abelianization_generic():
    for make in (lambda: cyclic_group(4), lambda: symmetric_group(3)):
        G = make()
        h = bar_homology(trivial_module(G), 1)
        ab, _ = abelianization(G)
        assert (h.free_rank, h.torsion) == (ab.free_rank, ab.torsion)


def test_h2_cyclic_groups_vanish():
    # H_2(Z/m) = 0 for cyclic groups
    for m in (2, 3, 4):
        assert bar_homology(trivial_module(cyclic_group(m)), 2).is_trivial()


def test_h0_coinvariants():
    G = symmetric_group(3)
    assert str(bar_homology(trivial_module(G), 0)) == "Z"
    sign = sign_module(G, lambda g: 1 if _perm_sign(g) > 0 else -1)
    assert str(coinvariants(sign)) == "Z/2"


def _brute_coinvariants(M):
    """|M_G[d]| for d = 1..12, read off M / <g.m - m> by enumeration: the
    counts fix a finite abelian group up to isomorphism."""
    orders = M.orders
    elems = list(itertools.product(*[range(o) for o in orders]))

    def combine(a, b, sign=1):
        return tuple((x + sign * y) % o for x, y, o in zip(a, b, orders))

    def act(g, m):
        return tuple(sum(a * x for a, x in zip(row, m)) % o
                     for row, o in zip(M.act(g), orders))

    moved = {combine(act(g, m), m, -1)
             for g in M.group.elements for m in elems}
    N = {tuple(0 for _ in orders)}
    frontier = list(N)
    while frontier:
        frontier = list({combine(a, b) for a in frontier
                         for b in moved} - N)
        N.update(frontier)
    return [sum(1 for m in elems
                if tuple(d * x % o for x, o in zip(m, orders)) in N)
            // len(N) for d in range(1, 13)]


def _torsion_modules():
    """Every action of Z/2 and Z/3 on (Z/2)^2, Z/2 + Z/4, (Z/3)^2 and
    Z/2 + Z/6, and Sym(3) permuting (Z/m)^3, with or without a sign."""
    for k, torsion in itertools.product((2, 3),
                                        ((2, 2), (2, 4), (3, 3), (2, 6))):
        under = FGAbelianGroup(0, torsion)
        for a, b, c, d in itertools.product(*[range(o) for o in torsion
                                              for _ in torsion]):
            M = GModule(cyclic_group(k), under, {1: [[a, b], [c, d]]})
            try:
                M.verify_action()
            except ValueError:
                continue
            yield M
    G = symmetric_group(3)
    for m, signed in itertools.product((2, 3, 4, 6), (False, True)):
        action = {}
        for g in G.generators:
            mat = [[0] * 3 for _ in range(3)]
            for j in range(3):
                mat[g[j]][j] = _perm_sign(g) if signed else 1
            action[g] = mat
        yield GModule(G, FGAbelianGroup(0, (m, m, m)), action)


def test_coinvariants_match_brute_force():
    count = 0
    for M in _torsion_modules():
        H = coinvariants(M)
        want = _brute_coinvariants(M)
        got = [math.prod(math.gcd(d, t) for t in H.torsion)
               for d in range(1, 13)]
        assert H.free_rank == 0 and got == want, (M.orders, M.gen_action)
        count += 1
    assert count > 50


def _perm_sign(p):
    inv = sum(1 for i in range(len(p)) for j in range(i + 1, len(p))
              if p[i] > p[j])
    return -1 if inv % 2 else 1


def test_shapiro_permutation_module():
    # H_i(S_n; Z^n) = H_i(S_{n-1}; Z): the permutation module is induced
    # from the trivial module of the point stabilizer
    for n in range(2, 6):
        for i in (0, 1):
            Gn = symmetric_group(n)
            lhs = bar_homology(permutation_module(Gn, n), i)
            rhs = bar_homology(trivial_module(symmetric_group(n - 1)), i)
            assert str(lhs) == str(rhs), (n, i)


def test_induced_module_matches_group_ring():
    # Z[S_3/A_3] as induced module from the trivial A_3-module
    G = symmetric_group(3)
    sub_elements = {g for g in G if _perm_sign(g) > 0}
    M = group_ring_module(G, *quotient_group(G, sub_elements))
    for i in (0, 1, 2):
        h = bar_homology(M, i)
        oracle = bar_homology(trivial_module(alternating_group(3)), i)
        assert str(h) == str(oracle), i


def test_conjugation_acts_trivially():
    G = symmetric_group(3)
    sign = sign_module(G, lambda g: 1 if _perm_sign(g) > 0 else -1)
    for i in (1, 2):
        assert conjugation_acts_trivially(sign, i)


def test_budget_refusals():
    # H_2(Sym(6)) reads bar level 3, a 719^2 x 719^3 boundary
    big = symmetric_group(6)
    with pytest.raises(BudgetExceeded, match="bar complex: chain level 3 "
                       "needs a 516961 x 371694959 boundary") as exc:
        bar_homology(trivial_module(big), 2)
    assert exc.value.estimate == 719 ** 5
    # H_1 reads level 2 of the presentation complex: the 3 Coxeter
    # relators of Sym(3), over its 2 generators
    small = symmetric_group(3)
    with pytest.raises(BudgetExceeded, match=r"presentation complex: "
                       r"chain level 2 needs a 2 x 3 boundary \(6 entries "
                       r"> 5\)") as exc:
        bar_homology(trivial_module(small), 1, BarBudget(5))
    assert exc.value.estimate == 6
    assert str(bar_homology(trivial_module(small), 1, BarBudget(6))) \
        == "Z/2"


@pytest.mark.parametrize("group, rank, level, admitted", [
    # bar d_3 of Sym(4) on Z^4: 1.0e8 entries, 14 s
    (lambda: symmetric_group(4), 4, 3, True),
    # bar d_3 of Z/2 wr Sym(3): 2.3e8 entries, 17 s
    (lambda: wreath_group(cyclic_group(2), 3), 1, 3, True),
    # presentation d_2 of Sym(7) on the tensor square, rank 49: 3.0e5
    # entries (3.6e8 with one relator per Cayley edge)
    (lambda: symmetric_group(7), 49, 2, True),
    # bar d_4 of Z/3 wr Sym(2): 4.1e8 entries, 117 s
    (lambda: wreath_group(cyclic_group(3), 2), 1, 4, True),
    # bar d_4 of Sym(4): 3.4e9 entries, not finished in 600 s
    (lambda: symmetric_group(4), 1, 4, False),
    # bar d_3 of Sym(5): 2.4e10 entries, over 900 s
    (lambda: symmetric_group(5), 1, 3, False),
])
def test_default_budget_follows_the_calibration(group, rank, level,
                                                admitted):
    # the check reads only the level sizes, so nothing is built here
    cx = resolve(trivial_module(group(), rank), BarBudget(), top=level)
    if admitted:
        BarBudget().check(cx, level)
    else:
        with pytest.raises(BudgetExceeded) as exc:
            BarBudget().check(cx, level)
        assert exc.value.estimate == (cx.level_size(level - 1)
                                      * cx.level_size(level))


def test_verify_action_rejects_broken_braid_relation():
    # s1 -> -1, s2 -> 1 on Z: s1 s2 s1 = s2 s1 s2 fails, though every
    # product of two generators is consistent
    from homstab.exact_linalg import FGAbelianGroup
    from homstab.homology_engine import GModule
    G = symmetric_group(3)
    s1, s2 = G.generators
    M = GModule(G, FGAbelianGroup(1), {s1: [[-1]], s2: [[1]]})
    with pytest.raises(ValueError, match="not a homomorphism"):
        M.verify_action()
    sign = GModule(G, FGAbelianGroup(1), {s1: [[-1]], s2: [[-1]]})
    sign.verify_action()


def test_relative_homology_reads_levels_up_to_i_plus_1():
    # Sym(2) -> Sym(3), constant Z: bar d_3 of Sym(3) is 25 x 125, 3125
    # entries; Rel_1 and its LES read only presentation level 2, 2 x 7
    from homstab.bracket import BracketCategory
    from homstab.coeffsys import constant_system
    from homstab.groupoids import make_symmetric
    from homstab.homology_engine import relative_homology, les_exact_at_rel
    setup = constant_system(BracketCategory(make_symmetric()), 0, 1, 3
                            ).stabilization_setup(2)
    budget = BarBudget(3124)
    with pytest.raises(BudgetExceeded,
                       match="chain level 3 needs a 25 x 125 boundary"):
        resolve(setup.big, budget, top=3).boundary(3)
    rel = relative_homology(setup, 1, budget)
    assert str(rel) == str(relative_homology(setup, 1))
    les = les_exact_at_rel(setup, 1, budget)
    assert les["exact"]
    assert str(les["Rel_i"]) == str(rel)


def test_h0_stabilization_builds_chain_level_1_only():
    # Sym(2) -> Sym(3), constant Z: H_0 reads presentation level 1 of
    # Sym(3), a 1 x 2 boundary; level 2, 2 x 3, is first read by H_1 and
    # refused there
    from homstab.bracket import BracketCategory
    from homstab.coeffsys import constant_system
    from homstab.groupoids import make_symmetric
    from homstab.homology_engine import stabilization_status
    setup = constant_system(BracketCategory(make_symmetric()), 0, 1, 3
                            ).stabilization_setup(2)
    budget = BarBudget(5)
    st = stabilization_status(setup, 0, budget)
    assert (str(st["source"]), str(st["target"])) == ("Z", "Z")
    assert st["is_iso"]
    with pytest.raises(BudgetExceeded, match="chain level 2 needs a 2 x 3 "):
        stabilization_status(setup, 1, budget)


def test_les_pass_builds_each_chain_map_once(sym_cat, monkeypatch):
    # the cone's boundaries and the LES's induced maps share f_0 and f_1,
    # which the setup keeps for the next cell that reads them
    from homstab.coeffsys import standard_system
    from homstab.homology_engine import (FreeResolution, les_exact_at_rel,
                                         stabilization_status)
    built = {}
    chain_map = FreeResolution.chain_map

    def counting(self, i, *args):
        built[i] = built.get(i, 0) + 1
        return chain_map(self, i, *args)
    monkeypatch.setattr(FreeResolution, "chain_map", counting)
    setup = standard_system(sym_cat, 0, 3).stabilization_setup(2)
    assert les_exact_at_rel(setup, 1)["exact"]
    assert les_exact_at_rel(setup, 0)["exact"]
    stabilization_status(setup, 1)
    assert built == {0: 1, 1: 1}


@pytest.mark.parametrize("coeff", ["constant", "constant_torsion",
                                   "standard"])
def test_les_pass_matches_separate_calls(sym_cat, coeff):
    # the verdict and Rel_i that les_exact_at_rel returns agree with
    # stabilization_status and relative_homology, on every cell of
    # Sym(n) -> Sym(n + 1) with n <= 3, i <= 1
    from homstab.coeffsys import constant_system, standard_system
    from homstab.homology_engine import (les_exact_at_rel,
                                         relative_homology,
                                         stabilization_status)
    system = {
        "constant": lambda: constant_system(sym_cat, 0, 1, 4),
        "constant_torsion": lambda: constant_system(
            sym_cat, 0, 1, 4, rank=2, torsion=(2,)),
        "standard": lambda: standard_system(sym_cat, 0, 4),
    }[coeff]()
    for n in range(4):
        setup = system.stabilization_setup(n)
        setup.verify()
        for i in range(2):
            les = les_exact_at_rel(setup, i)
            st = stabilization_status(setup, i)
            assert les["exact"], (n, i)
            for key in ("is_epi", "is_iso", "matrix"):
                assert les[key] == st[key], (n, i, key)
            for key in ("source", "target"):
                assert str(les[key]) == str(st[key]), (n, i, key)
            assert str(les["Rel_i"]) == str(relative_homology(setup, i))


def test_mapping_cone_rejects_non_equivariant_map():
    # trivial Z on Sym(2) -> sign module on Sym(3) with s = 1 commutes
    # with no transposition, so the cone's d1 d2 is nonzero
    from dataclasses import replace
    from homstab.bracket import BracketCategory
    from homstab.coeffsys import constant_system
    from homstab.groupoids import make_symmetric
    from homstab.homology_engine import MappingCone
    setup = constant_system(BracketCategory(make_symmetric()), 0, 1, 3
                            ).stabilization_setup(2)
    setup.verify()
    big = sign_module(setup.big.group,
                      lambda g: 1 if _perm_sign(g) > 0 else -1)
    bad = replace(setup, big=big)
    with pytest.raises(ValueError, match="not equivariant"):
        bad.verify()
    with pytest.raises(AssertionError, match=r"d\^2 != 0"):
        MappingCone(bad, BarBudget(), top=3).homology(1)


def test_mapping_cone_built_once_per_pair(monkeypatch):
    # Sym standard, n_max 4, theorems A and 4.20: the cells (n, 0) and
    # (n, 1) both read the cone of one stabilization pair and its
    # boundaries, so 4 cones are built; each reduces levels 0..1 for H_0
    # and 0..2 for H_1, so 20 boundary reads build 12, each (cone, level)
    # once
    from homstab.homology_engine import MappingCone
    from homstab.verifier import load_config, run_stability
    cones, boundaries = [], []
    init, boundary = MappingCone.__init__, MappingCone.boundary

    def counted_init(self, *args):
        cones.append(self)
        init(self, *args)

    def counted_boundary(self, i):
        d = boundary(self, i)
        boundaries.append((self, i, d))
        return d

    monkeypatch.setattr(MappingCone, "__init__", counted_init)
    monkeypatch.setattr(MappingCone, "boundary", counted_boundary)
    cfg = load_config({
        "family": {"kind": "symmetric", "params": {}}, "A": 0, "X": 1,
        "coeff": {"kind": "standard", "params": {"r_max": 2, "N_max": 0}},
        "k": 2, "n_max": 4, "i_max": 1, "theorems": ["A", "4.20"]})
    run_stability(cfg, jobs=1)
    built = {id(d) for _, _, d in boundaries}
    assert len(cones) == 4
    assert len(boundaries) == 20
    assert len(built) == len({(id(c), i) for c, i, _ in boundaries}) == 12


@pytest.mark.parametrize("family,n_top", [
    ("Sym", 5), ("Z/2 wr Sym", 3), ("Z/3 wr Sym", 2), ("GL(F_2)", 2),
    ("GL(F_3)", 1), ("GL(Z/4)", 1)])
def test_phi_folded_from_generators_is_upper_suspension(family, n_top):
    # phi(g), the product of the generator images along the tree path of
    # g, is g + id_x on every element of G_n, and the certificate holds
    from homstab.bracket import BracketCategory
    from homstab.coeffsys import constant_system
    from homstab.groupoids import (FiniteRing, make_general_linear,
                                   make_symmetric, make_wreath)
    inst = {"Sym": make_symmetric,
            "Z/2 wr Sym": lambda: make_wreath(cyclic_group(2)),
            "Z/3 wr Sym": lambda: make_wreath(cyclic_group(3)),
            "GL(F_2)": lambda: make_general_linear(FiniteRing(2)),
            "GL(F_3)": lambda: make_general_linear(FiniteRing(3)),
            "GL(Z/4)": lambda: make_general_linear(FiniteRing(4))}[family]()
    cat = BracketCategory(inst)
    system = constant_system(cat, 0, 1, n_top + 1)
    for n in range(n_top + 1):
        setup = system.stabilization_setup(n)
        setup.verify()
        for g in setup.small.group:
            assert setup.phi(g) == cat.sigma_upper_on_group(g, n, 1), (n, g)


def _broken_phi_setups():
    """Sym(4) -> Sym(5) setups whose phi the certificate refuses, with
    the message each raises: the images of s_0 and s_1 swapped, which
    breaks (s_0 s_2)^2, and every generator sent to the identity."""
    from dataclasses import replace
    from homstab.bracket import BracketCategory
    from homstab.coeffsys import constant_system
    from homstab.groupoids import make_symmetric
    setup = constant_system(BracketCategory(make_symmetric()), 0, 1, 5
                            ).stabilization_setup(4)
    a, b, c = setup.gen_images
    ident = setup.big.group.identity
    return [(replace(setup, gen_images=(b, a, c)),
             "phi is not a homomorphism"),
            (replace(setup, gen_images=(ident,) * 3),
             "phi is not injective")]


@pytest.mark.parametrize("case", [0, 1], ids=["swapped", "trivial"])
def test_phi_certificate_refuses(case):
    setup, message = _broken_phi_setups()[case]
    with pytest.raises(AssertionError, match=message):
        setup.verify()


@pytest.mark.parametrize("family,n", [("Sym", 4), ("Z/2 wr Sym", 3),
                                      ("GL(F_2)", 2)])
@pytest.mark.parametrize("move", ["leaves the block", "another element"])
def test_phi_left_inverse_refuses(family, n, move):
    # phi conjugated by a slot permutation c of G_{n+1} is still an
    # injective homomorphism, so the relator check passes; but c = (n-1 n)
    # moves the images out of the first block, and c = (0 1) keeps them
    # block-diagonal with first blocks other than their generators.  The
    # left-inverse certificate refuses both
    from dataclasses import replace
    from homstab.bracket import BracketCategory
    from homstab.coeffsys import constant_system
    from homstab.groupoids import (FiniteRing, make_general_linear,
                                   make_symmetric, make_wreath)
    inst = {"Sym": make_symmetric,
            "Z/2 wr Sym": lambda: make_wreath(cyclic_group(2)),
            "GL(F_2)": lambda: make_general_linear(FiniteRing(2))}[family]()
    setup = constant_system(BracketCategory(inst), 0, 1, n + 1
                            ).stabilization_setup(n)
    setup.verify()
    order = list(range(n + 1))
    i = n - 1 if move == "leaves the block" else 0
    order[i], order[i + 1] = order[i + 1], order[i]
    c = inst.permute(inst.identity(n + 1), order)
    images = tuple(inst.mul(inst.mul(c, h), inst.inv(c))
                   for h in setup.gen_images)
    with pytest.raises(AssertionError, match="phi is not injective"):
        replace(setup, gen_images=images).verify()


def _race(work, nthreads=8):
    """work() on nthreads threads released at once, with a 1 us switch
    interval; the list of their results."""
    import sys
    import threading
    got = []
    start = threading.Barrier(nthreads, timeout=120)

    def run():
        start.wait()
        got.append(work())
    threads = [threading.Thread(target=run) for _ in range(nthreads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == nthreads
    return got


def test_resolve_keeps_one_copy_across_threads():
    # grid cells on --jobs threads race for one module's complex (bar or
    # presentation), levels and homology; every thread gets the one copy
    # that is kept
    budget = BarBudget()

    def work(M, top):
        cx = resolve(M, budget, top)
        return cx, cx.boundary(2), cx.homology(1)

    for _, top in itertools.product(range(5), (3, 2)):
        M = permutation_module(symmetric_group(4), 4)
        got = _race(lambda: work(M, top))
        assert all(a is b for row in got for a, b in zip(row, got[0]))


def test_setup_keeps_one_chain_map_across_threads(sym_cat):
    # the cells of one level race for its setup's phi and chain maps; phi
    # agrees on every element and every thread gets the one f_i kept
    from homstab.coeffsys import standard_system
    budget = BarBudget()

    def work(setup):
        maps = []
        for top in (2, 3):
            cx_s = resolve(setup.small, budget, top)
            cx_b = resolve(setup.big, budget, top)
            maps += [setup.chain_map(i, cx_s, cx_b) for i in range(2)]
        return maps, [setup.phi(g) for g in setup.small.group]

    for _ in range(5):
        setup = standard_system(sym_cat, 0, 4).stabilization_setup(3)
        got = _race(lambda: work(setup))
        assert all(a is b for maps, _ in got for a, b in zip(maps, got[0][0]))
        assert all(phis == got[0][1] for _, phis in got)


def test_first_read_of_elements_across_threads():
    # bar-complex cells on --jobs threads may be the first to read the
    # elements of a group built by formula: every thread gets the full
    # sorted list, and an index that agrees with it
    for make in (lambda: symmetric_group(6),
                 lambda: wreath_group(cyclic_group(2), 3)):
        for _ in range(5):
            G = make()
            got = _race(lambda: (G.elements,
                                 [G.index[g] for g in G.elements]))
            for elements, positions in got:
                assert elements == tuple(sorted(elements))
                assert len(elements) == G.order
                assert positions == list(range(G.order))


def test_z4_sign_module_d2_vanishes_only_mod_4():
    # Sym(2) acting on Z/4 by -1, reduced to [[3]]: d1 d2 is 8 over Z and
    # 0 in Z/4; H_i(C_2; Z/4 twisted) is Z/2 for i = 0, 1, 2
    from homstab.exact_linalg import FGAbelianGroup
    from homstab.homology_engine import GModule
    G = symmetric_group(2)
    (s,) = G.generators
    M = GModule(G, FGAbelianGroup(0, (4,)), {s: [[-1]]})
    M.verify_action()
    assert M.act(s) == [[3]]
    cx = resolve(M, BarBudget(), top=3)
    assert cx.boundary(1).compose(cx.boundary(2)).cols == [{0: 8}]
    assert [str(cx.homology(i).group) for i in range(3)] == ["Z/2"] * 3
    assert str(bar_homology(M, 1)) == "Z/2"


def test_shapiro_standard_against_constant():
    # Shapiro: Z^n is induced from Sym(n - 1), so H_i(Sym(n); Z^n) =
    # H_i(Sym(n - 1); Z), with the stabilization maps.  Every cell (n, i)
    # of the standard frontier config at n_max 10 against the constant
    # cell (n - 1, i); n = 0 has F_0 = 0 and no counterpart
    from homstab.verifier import load_config, run_stability

    def cells(coeff, n_max):
        report = run_stability(load_config({
            "family": {"kind": "symmetric", "params": {}}, "A": 0, "X": 1,
            "k": 2, "n_max": n_max, "i_max": 1, "theorems": ["A", "4.20"],
            "coeff": {"kind": coeff, "params": {"r_max": 2, "N_max": 0}}}),
            jobs=1)
        keys = ("source", "target", "is_epi", "is_iso", "rel", "les_exact")
        return {(c["n"], c["i"]): [c[k] for k in keys]
                for c in report["cells"]}
    standard, constant = cells("standard", 10), cells("constant", 9)
    assert len(standard) == 20
    for (n, i), cell in standard.items():
        if n:
            assert cell == constant[n - 1, i], (n, i)


def _dropped_relator_complex():
    """The presentation complex of Z/4 on its word b^4, trivial Z, with
    that column of d_2 dropped: H_1 comes out Z."""
    from homstab.exact_linalg import SparseCols
    cx = resolve(trivial_module(cyclic_group(4)), BarBudget(), top=2)
    d2 = cx.boundary(2)
    cx._boundaries[2] = SparseCols(d2.nrows, d2.cols[:-1])
    return cx


def test_transfer_bound_refuses_a_dropped_relator():
    # |G| kills H_i(G; M) for i >= 1, so a free H_1 is a defect
    with pytest.raises(AssertionError, match=r"presentation complex: H_1 = "
                       r"Z is not killed by \|G\| = 4"):
        _dropped_relator_complex().homology(1)
    assert str(resolve(trivial_module(cyclic_group(4)), BarBudget(),
                       top=2).homology(1).group) == "Z/4"


def test_free_cell_onto_a_torsion_row():
    # Z/2 acting on Z/2 (+) Z by s(y, x) = (y + x, x): d_1 maps the free
    # generator x onto the torsion row y by 1.  That row never pivots:
    # pairing it with x would lose the relation 2y = 0, and H_1 would
    # come out 0.  Both resolutions against the unreduced oracle
    from homstab.exact_linalg import FGAbelianGroup
    from homstab.homology_engine import GModule
    (s,) = cyclic_group(2).generators
    M = GModule(cyclic_group(2), FGAbelianGroup(1, (2,)),
                {s: [[1, 1], [0, 1]]})
    M.verify_action()
    for top, groups in ((2, ["Z", "Z/2"]), (4, ["Z", "Z/2", "0", "Z/2"])):
        cx = resolve(M, BarBudget(), top=top)
        assert [str(cx.homology(i).group) for i in range(top)] == groups
        assert [str(unreduced_homology(cx, i).group)
                for i in range(top)] == groups
