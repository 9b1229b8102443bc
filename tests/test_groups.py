import itertools
import math
import random
from functools import reduce

import pytest

from homstab.groups import (
    FiniteGroup, symmetric_group, cyclic_group, wreath_group,
    general_linear_group, gln_order, perm_mul, perm_inv, perm_identity,
    perm_block_sum, perm_braiding, mat_mul_mod, mat_inv_mod, mat_identity,
    mat_det_mod, mat_block_sum, mat_braiding, BudgetExceeded,
)
from homstab.homology_engine import (BarBudget, GModule,
                                     PresentationComplex, bar_homology,
                                     hurewicz, trivial_module)
from homstab.exact_linalg import FGAbelianGroup, product_mod
from homstab.pi1 import todd_coxeter_trivial
from tests.oracles import (abelianization, alternating_group, commutator,
                           coords_span, subgroup_closure)


def _hurewicz(G):
    """H_1(G; Z) and the Hurewicz map on every element."""
    h1, phi = hurewicz(trivial_module(G))
    return h1.group, {g: phi(g) for g in G}


def _is_group(G):
    e = G.identity
    for g in G:
        assert G.mul(g, G.inv(g)) == e
        assert G.mul(e, g) == g
    gs = list(G)[: min(8, G.order)]
    for g in gs:
        for h in gs:
            assert G.mul(g, h) in G


@pytest.mark.parametrize("n", range(0, 6))
def test_symmetric_group_order(n):
    G = symmetric_group(n)
    assert G.order == math.factorial(n)
    _is_group(G)


@pytest.mark.parametrize("n", range(2, 7))
def test_alternating_group_order(n):
    assert alternating_group(n).order == math.factorial(n) // 2


def test_perm_ops():
    g = (1, 2, 0)
    assert perm_mul(g, perm_inv(g)) == perm_identity(3)
    assert perm_block_sum((1, 0), (0,)) == (1, 0, 2)
    b = perm_braiding(1, 2)
    assert perm_mul(b, perm_braiding(2, 1)) == perm_identity(3)


@pytest.mark.parametrize("n,m", [(1, 2), (2, 2), (2, 3), (3, 2)])
def test_gl_group_order(n, m):
    G = general_linear_group(n, m, budget=25000)
    assert G.order == gln_order(n, m)
    _is_group(G)


def test_mat_inverse_mod():
    a = ((1, 1), (0, 1))
    inv = mat_inv_mod(a, 5)
    assert mat_mul_mod(a, inv, 5) == mat_identity(2)


def _mat_mul_naive(a, b, m):
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i][j] += a[i][k] * b[k][j]
            out[i][j] %= m
    return tuple(tuple(row) for row in out)


def test_mat_mul_mod_matches_triple_loop():
    # every pair of 2x2 matrices over Z/4, singular ones included
    mats = [((a, b), (c, d))
            for a, b, c, d in itertools.product(range(4), repeat=4)]
    for x in mats:
        for y in mats:
            assert mat_mul_mod(x, y, 4) == _mat_mul_naive(x, y, 4)
    # seeded random pairs for every n from 0 to 6 over Z/2, Z/3, Z/4, Z/6
    rng = random.Random(14)
    for n, m in itertools.product(range(7), (2, 3, 4, 6)):
        for _ in range(100):
            x, y = _random_mats(rng, n, m, 2)
            assert mat_mul_mod(x, y, m) == _mat_mul_naive(x, y, m)
    assert mat_mul_mod((), (), 4) == ()
    # the shapes must agree: tuple unpacking refuses what zip truncated
    with pytest.raises(ValueError):
        mat_mul_mod(mat_identity(2), mat_identity(3), 2)
    with pytest.raises(ValueError):
        mat_mul_mod(mat_identity(3), mat_identity(2), 2)
    # only an integer modulus reaches the generated source
    with pytest.raises(ValueError):
        mat_mul_mod(mat_identity(2), mat_identity(2), "4")


def _mat_block_sum_naive(a, b):
    n, k = len(a), len(b)
    return tuple(tuple(a[i][j] if i < n and j < n
                       else b[i - n][j - n] if i >= n and j >= n else 0
                       for j in range(n + k)) for i in range(n + k))


def _random_mats(rng, n, m, count):
    return [tuple(tuple(rng.randrange(m) for _ in range(n))
                  for _ in range(n)) for _ in range(count)]


def test_mat_kernels_match_index_formulas():
    # mat_mul_mod has its oracle in test_mat_mul_mod_matches_triple_loop
    gl2 = general_linear_group(2, 4)
    for x in gl2:
        for y in gl2:
            assert mat_block_sum(x, y) == _mat_block_sum_naive(x, y)
    rng = random.Random(23)
    for n in (3, 4):
        mats = _random_mats(rng, n, 6, 40)
        for x, y in zip(mats, mats[1:]):
            assert mat_block_sum(x, y) == _mat_block_sum_naive(x, y)
    # 0x0 and unit sides: a 0x0 side gives the other operand itself
    for a in [(), ((3,),), ((1, 2), (3, 0))] + _random_mats(rng, 3, 6, 3):
        for b in ((), ((5,),)):
            assert mat_block_sum(a, b) == _mat_block_sum_naive(a, b)
            assert mat_block_sum(b, a) == _mat_block_sum_naive(b, a)
        assert mat_block_sum(a, ()) is a and mat_block_sum((), a) is a
    # the braiding sends basis vector e_j to e_p(j), p = perm_braiding
    for m in range(4):
        for n in range(4):
            p = perm_braiding(m, n)
            cols = tuple(zip(*mat_braiding(m, n)))
            assert cols == tuple(tuple(int(i == p[j]) for i in range(m + n))
                                 for j in range(m + n))
            assert mat_braiding(m, n) is mat_braiding(m, n)


def test_mat_inverse_is_two_sided():
    cases = [(general_linear_group(2, 4), 4), (general_linear_group(3, 2), 2)]
    rng = random.Random(7)
    for n, m in ((2, 6), (3, 6), (3, 12), (4, 12)):
        mats = [a for a in _random_mats(rng, n, m, 200)
                if math.gcd(mat_det_mod(a, m), m) == 1]
        assert len(mats) >= 10
        cases.append((mats, m))
    for mats, m in cases:
        for a in mats:
            n = len(a)
            inv = mat_inv_mod(a, m)
            assert mat_mul_mod(a, inv, m) == mat_identity(n)
            assert mat_mul_mod(inv, a, m) == mat_identity(n)
    assert mat_inv_mod((), 4) == ()
    # det 0 over Z, det 2 mod 4 and det 3 mod 6: none is a unit
    for a, m in ((((1, 2), (2, 4)), 5), (((1, 1), (1, 3)), 4),
                 (((1, 0), (0, 3)), 6)):
        with pytest.raises(ValueError, match="matrix not invertible mod m"):
            mat_inv_mod(a, m)


def test_mat_det_mod_matches_leibniz():
    # every 3x3 matrix over Z/4, including the singular ones and those
    # whose leading entries vanish (row swaps in the elimination)
    m = 4
    perms = [(p, _perm_sign_naive(p)) for p in itertools.permutations(range(3))]
    for flat in itertools.product(range(m), repeat=9):
        a = (flat[0:3], flat[3:6], flat[6:9])
        leibniz = sum(s * a[0][p[0]] * a[1][p[1]] * a[2][p[2]]
                      for p, s in perms)
        assert mat_det_mod(a, m) == leibniz % m, a


def _perm_sign_naive(p):
    inversions = sum(1 for i in range(len(p)) for j in range(i + 1, len(p))
                     if p[i] > p[j])
    return -1 if inversions % 2 else 1


def test_wreath_group_order():
    G = wreath_group(cyclic_group(2), 3)
    assert G.order == 8 * 6
    _is_group(G)


def test_cyclic_abelianization():
    G = cyclic_group(6)
    ab, phi = _hurewicz(G)
    assert ab.free_rank == 0 and ab.torsion == (6,)
    assert len(set(phi.values())) == 6


@pytest.mark.parametrize("n,expect", [(3, (3,)), (4, (3,)), (5, ()),
                                      (6, ())])
def test_alternating_abelianization(n, expect):
    ab, _ = _hurewicz(alternating_group(n))
    assert ab.free_rank == 0 and ab.torsion == expect


def test_symmetric_abelianization():
    ab, _ = _hurewicz(symmetric_group(4))
    assert ab.free_rank == 0 and ab.torsion == (2,)


def test_quotient_group():
    # G -> G^ab: Sym(3) has two classes, and both transpositions map to
    # the nonzero one
    G = symmetric_group(3)
    ab, phi = _hurewicz(G)
    assert ab.order() == 2 == len(set(phi.values()))
    assert phi[G.identity] == (0,)
    assert phi[G.generators[0]] == phi[G.generators[1]] == (1,)


@pytest.mark.parametrize("n", range(0, 7))
def test_alternating_generators_are_3_cycles(n):
    G = alternating_group(n)
    assert len(G.generators) == max(0, n - 2)
    for k, g in enumerate(G.generators, start=2):
        moved = [i for i in range(n) if g[i] != i]
        assert (g[0], g[1], g[k]) == (1, k, 0) and len(moved) == 3
    assert len(G.tree()) == G.order


@pytest.mark.parametrize("make", [lambda: symmetric_group(4),
                                  lambda: alternating_group(5),
                                  lambda: wreath_group(cyclic_group(2), 3)])
def test_quotient_generators_are_images(make):
    # the images of G's generators generate G^ab, which is why the
    # abelianization limit keeps the Hurewicz images of generators only
    G = make()
    ab, phi = _hurewicz(G)
    span = coords_span([phi[s] for s in G.generators], ab.torsion)
    assert span == set(phi.values()) and len(span) == ab.order()


def test_commutator_subgroup_of_s4():
    G = symmetric_group(4)
    _, phi = _hurewicz(G)
    assert sum(1 for g in G if phi[g] == (0,)) == 12


def test_tree_covers_group():
    # following the tree edges down from the identity reaches g
    G = symmetric_group(4)
    tree = G.tree()
    assert len(tree) == G.order
    gens = G.generators
    for g in G:
        path, h = [], g
        while tree[h] is not None:
            h, i = tree[h]
            path.append(i)
        acc = G.identity
        for i in reversed(path):
            acc = G.mul(acc, gens[i])
        assert (h, acc) == (G.identity, g)


def test_budget_guard():
    # Sym(n) and G wr Sym(n) are built from their order formula and
    # refuse at the first read of their elements; the others when built
    G = symmetric_group(8, budget=100)
    assert G.order == 40320
    with pytest.raises(BudgetExceeded, match=r"\|Sym\(8\)\| = 40320 "
                       "exceeds budget 100") as exc:
        G.elements
    assert exc.value.estimate == 40320
    # a refusal is not invalid input: callers that catch ValueError
    # (the groupoid generator check) must not swallow it
    assert not isinstance(exc.value, ValueError)
    with pytest.raises(BudgetExceeded):
        G.index
    with pytest.raises(BudgetExceeded):
        G.tree()
    for make in (lambda: alternating_group(6, budget=359),
                 lambda: general_linear_group(2, 3, budget=47),
                 lambda: wreath_group(cyclic_group(2), 3, budget=47).elements):
        with pytest.raises(BudgetExceeded):
            make()


def _phi(m):
    return sum(1 for u in range(1, m + 1) if math.gcd(u, m) == 1)


@pytest.mark.parametrize("m,n", [(2, n) for n in range(4)]
                         + [(m, n) for m in (3, 4, 6) for n in range(3)])
def test_gln_generators_generate(m, n):
    G = general_linear_group(n, m)
    assert len(G.generators) <= n * (n - 1) + _phi(m)
    assert len(G.tree()) == G.order
    assert all(g in G for g in G.generators)


@pytest.mark.parametrize("base", [cyclic_group(2), cyclic_group(3),
                                  symmetric_group(3)],
                         ids=lambda b: b.name)
@pytest.mark.parametrize("n", range(4))
def test_wreath_generators_generate(base, n):
    G = wreath_group(base, n)
    assert len(G.generators) == (len(base.generators) if n else 0) \
        + max(n - 1, 0)
    assert len(G.tree()) == G.order


def _generated_by(G, gens, name):
    """The subgroup of G that `gens` generate, with those generators."""
    return FiniteGroup(subgroup_closure(G, gens), G.mul, G.inv, G.identity,
                       name=name, generators=gens)


# [a, b] alone generates 3 elements of A_4 = [Sym(4), Sym(4)]
SYM4_TRANSPOSITION_4CYCLE = _generated_by(
    symmetric_group(4), [(1, 0, 2, 3), (1, 2, 3, 0)], "Sym(4) on (01), (0123)")
# Z/2 wr C_4: [G, G] is the 8 label vectors of even weight; reaching them
# from [a, b] = e_0 + e_1 needs conjugates of conjugates by the 4-cycle
WREATH_CYCLIC = _generated_by(
    wreath_group(cyclic_group(2), 4),
    [((1, 0, 0, 0), (0, 1, 2, 3)), ((0, 0, 0, 0), (1, 2, 3, 0))],
    "Z/2 wr C_4")


@pytest.mark.parametrize("G", [
    SYM4_TRANSPOSITION_4CYCLE, WREATH_CYCLIC,
    *(symmetric_group(n) for n in range(6)),
    *(alternating_group(n) for n in range(7)),
    *(cyclic_group(m) for m in range(1, 7)),
    wreath_group(cyclic_group(2), 3), wreath_group(cyclic_group(3), 2),
    *(general_linear_group(n, 2) for n in range(4)),
    *(general_linear_group(n, 4) for n in range(3)),
], ids=lambda G: G.name)
def test_commutator_subgroup_matches_all_pairs(G):
    # the Hurewicz map G -> H_1(G; Z) is a surjective homomorphism whose
    # kernel is [G, G], generated by the commutators of all pairs, and
    # H_1 is the oracle's G^ab
    ab, phi = _hurewicz(G)
    factors = ab.torsion
    for g in G:
        for s in G.generators:
            assert phi[G.mul(g, s)] == tuple(
                (a + b) % d for a, b, d in zip(phi[g], phi[s], factors))
    assert len(set(phi.values())) == ab.order()
    zero = phi[G.identity]
    all_pairs = subgroup_closure(G, {commutator(G, g, h) for g in G
                                     for h in G})
    assert {g for g in G if phi[g] == zero} == all_pairs
    oracle, _ = abelianization(G)
    assert (ab.free_rank, ab.torsion) == (oracle.free_rank, oracle.torsion)


# every group this file builds
TREE_GROUPS = [
    SYM4_TRANSPOSITION_4CYCLE, WREATH_CYCLIC,
    *(symmetric_group(n) for n in range(6)),
    *(alternating_group(n) for n in range(7)),
    *(cyclic_group(m) for m in range(1, 7)),
    *(wreath_group(base, n) for base in (cyclic_group(2), cyclic_group(3),
                                          symmetric_group(3))
      for n in range(4)),
    *(general_linear_group(n, 2) for n in range(4)),
    *(general_linear_group(n, m) for m in (3, 4, 6) for n in range(3)),
]


@pytest.mark.parametrize("G", TREE_GROUPS, ids=lambda G: G.name)
def test_tree_is_a_spanning_tree(G):
    tree = G.tree()
    roots = [g for g, edge in tree.items() if edge is None]
    assert roots == [G.identity] == list(tree)[:1]
    seen = set()
    for g, edge in tree.items():
        if edge is not None:
            parent, i = edge
            assert parent in seen            # parents come first
            assert G.mul(parent, G.generators[i]) == g
        seen.add(g)
    assert seen == set(G.elements)
    path = {G.identity: ()}                 # w(g), parents first
    for g, edge in list(tree.items())[1:]:
        path[g] = path[edge[0]] + (edge[1] + 1,)
    assert all(reduce(G.times, path[g], G.identity) == g for g in G)
    # the Cayley words are the other edges of the Cayley graph, one
    # w(g) s_i w(g s_i)^-1 each; the relators, Cayley or given, are one
    # level-2 cell each and hold in G
    edges = [(g, i, G.mul(g, s)) for g in G
             for i, s in enumerate(G.generators)]
    edges = [(g, i, gs) for g, i, gs in edges if tree[gs] != (g, i)]
    assert len(edges) + len(tree) - 1 == G.order * len(G.generators)
    assert G.cayley_relators() == [
        path[g] + (i + 1,) + tuple(-x for x in reversed(path[gs]))
        for g, i, gs in edges]
    rels = G.relators()
    assert len(rels) == PresentationComplex(
        trivial_module(G), BarBudget()).cells(2)
    for w in rels + G.cayley_relators():
        assert reduce(G.times, w, G.identity) == G.identity
    # without its last generator the set may not generate; the tree
    # refuses it then
    gens = G.generators[:-1]
    H = FiniteGroup(G.elements, G.mul, G.inv, G.identity, name=G.name,
                    generators=gens)
    if len(subgroup_closure(G, gens)) < G.order:
        with pytest.raises(ValueError, match="do not generate"):
            H.tree()
    else:
        assert len(H.tree()) == G.order


@pytest.mark.parametrize("s1, s2", [([[-1]], [[1]]),
                                    ([[0, 1], [1, 0]], [[-1, 0], [0, 1]])],
                         ids=["sign on s1", "dihedral of order 8"])
def test_verify_action_catches_one_wrong_relation(s1, s2):
    # both generators act by involutions, so s_i^2 = 1 holds and only the
    # braid relation (s1 s2)^3 = 1 fails, the one Coxeter word it is.  No
    # module given by generator matrices fails on a single Cayley relator
    # of Sym(3): each of the 7 follows from the other 6.  (s1 s2)^3 shows
    # on exactly 2 of them
    G = symmetric_group(3)
    M = GModule(G, FGAbelianGroup(len(s1)), dict(zip(G.generators,
                                                     (s1, s2))))
    images = {i: M.act(s) for i, s in enumerate(G.generators, 1)}
    images.update({-i: M.act(G.inv(s))
                   for i, s in enumerate(G.generators, 1)})
    one = M.act(G.identity)

    def wrong(words):
        return [w for w in words if reduce(
            lambda a, x: product_mod(a, images[x], M.orders), w, one) != one]
    assert wrong(G.relators()) == [(1, 2) * 3]
    assert len(wrong(G.cayley_relators())) == 2
    with pytest.raises(ValueError, match="not a homomorphism"):
        M.verify_action()


def test_deep_tree_action():
    # the tree of Z/5000 is one path of depth 4999; the action of its
    # deepest element, asked for first, walks all of it.  A recursive walk
    # raises RecursionError here
    G = cyclic_group(5000)
    rot = GModule(G, FGAbelianGroup(2), {1: [[0, -1], [1, 0]]})
    assert rot.act(4999) == [[0, 1], [-1, 0]]        # rotation^(4999 % 4)
    rot.verify_action()
    assert str(bar_homology(trivial_module(G), 1)) == "Z/5000"


def _wreath_bases():
    from tests.test_bracket import _cyclic3_identity_last
    return [(cyclic_group(2), 5), (cyclic_group(3), 4),
            (_cyclic3_identity_last(), 4), (symmetric_group(3), 3)]


PRESENTED = [
    *(symmetric_group(n) for n in range(8)),
    *(wreath_group(base, n) for base, top in _wreath_bases()
      for n in range(top + 1)),
    *(cyclic_group(m) for m in (1, 2, 3, 5, 12)),
]


@pytest.mark.parametrize("G", PRESENTED, ids=lambda G: G.name)
def test_builtin_presentation_is_complete(G):
    # a missing relator leaves d o d = 0 but makes the presentation
    # complex inexact, so the short words of Sym(n), G wr Sym(n) and Z/m
    # must present G: each holds in G, and Todd-Coxeter over the trivial
    # subgroup closes at exactly |G| cosets
    rels = G.relators()
    if G.name.startswith("Sym(") and " wr " not in G.name:
        n = len(G.identity)             # n (n - 1) / 2 Coxeter words
        assert len(rels) == n * (n - 1) // 2
    assert all(reduce(G.times, w, G.identity) == G.identity for w in rels)
    verdict, cosets = todd_coxeter_trivial(len(G.generators), rels,
                                           budget_rows=20 * G.order + 100)
    assert cosets == G.order
    assert verdict == ("trivial" if G.order == 1 else "finite")


def test_given_relator_must_hold():
    # (s_0 s_1)^2 is not the identity in Sym(3): the group refuses it
    G = symmetric_group(3)
    with pytest.raises(ValueError, match=r"relator \(1, 2, 1, 2\) does "
                       r"not hold in H"):
        FiniteGroup(G.elements, G.mul, G.inv, G.identity, name="H",
                    generators=G.generators, relators=[(1, 1), (1, 2) * 2])


# (base, n): G = base wr Sym(n), or Sym(n) for base None
WALKED = [*((None, n) for n in range(7)),
          *((cyclic_group(2), n) for n in range(5)),
          *((cyclic_group(3), n) for n in range(4)),
          *((symmetric_group(3), n) for n in range(4))]


def _slots_module(G, base):
    """Z^n with g.e_j = e_g(j) for G = Sym(n); for G = base wr Sym(n),
    Z[base x slots] with (a, s) sending (b, i) to (a[s(i)] b, s(i)).
    Both are faithful permutation modules given by generator matrices."""
    from homstab.homology_engine import permutation_module
    if base is None:
        return permutation_module(G, len(G.identity))
    points = [(b, i) for b in base.elements
              for i in range(len(G.identity[1]))]
    idx = {p: j for j, p in enumerate(points)}
    action = {}
    for a, s in G.generators:
        m = [[0] * len(points) for _ in points]
        for (b, i), j in idx.items():
            m[idx[base.mul(a[s[i]], b), s[i]]][j] = 1
        action[a, s] = m
    return GModule(G, FGAbelianGroup(len(points)), action)


@pytest.mark.parametrize("base,n", WALKED, ids=lambda v: str(
    getattr(v, "name", "Sym" if v is None else v)))
def test_closed_form_steps_match_the_tree_walk(base, n):
    # every step is an edge of the Cayley graph, every chain of steps ends
    # at the identity, and module actions and phi read down the steps equal
    # the products along the BFS tree paths
    from homstab.bracket import BracketCategory
    from homstab.coeffsys import constant_system
    from homstab.groupoids import make_symmetric, make_wreath
    from tests.oracles import tree_walk_act, tree_walk_phi
    inst = make_symmetric() if base is None else make_wreath(base)
    setup = constant_system(BracketCategory(inst), 0, 1, n + 1
                            ).stabilization_setup(n)
    G = setup.small.group
    assert G._step != G._tree_step
    for g in G:
        h, steps = g, 0
        while h != G.identity:
            parent, i = G._step(h)
            assert G.mul(parent, G.generators[i]) == h
            h, steps = parent, steps + 1
            assert steps <= G.order
    M = _slots_module(G, base)
    assert all(M.act(g) == tree_walk_act(M, g) for g in G)
    setup.verify()
    assert all(setup.phi(g) == tree_walk_phi(setup, g) for g in G)
