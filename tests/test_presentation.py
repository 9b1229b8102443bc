"""The presentation complex against the bar complex, which stays its
oracle.

On every stabilization cell that both compute (i <= 1), the two
resolutions give the same groups, epi/iso verdicts, Rel_1 and LES
verdicts, and so does the unreduced oracle, which cancels no unit
pair.  A wrong Fox column, a wrong f_1 and a non-equivariant setup each
fail the d^2 check.
"""

import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from homstab.bracket import BracketCategory
from homstab.coeffsys import (CoefficientSystem, abelian_constant_system,
                              abelianization_limit, constant_system,
                              internalize, standard_system, tensor_power)
from homstab.exact_linalg import (FGAbelianGroup, SparseCols,
                                  identity_matrix, mat_mul)
from homstab.groupoids import (FiniteRing, make_general_linear,
                               make_symmetric, make_wreath)
from homstab.groups import FiniteGroup, cyclic_group, symmetric_group
from homstab.homology_engine import (
    BarBudget, BarComplex, GModule, MappingCone, PresentationComplex,
    PresentedComplex, bar_homology, les_exact_at_rel, permutation_module,
    resolve, trivial_module)
from tests.oracles import alternating_group, sign_module, unreduced_homology


def _les_cell(setup, i):
    """Everything a stability cell reads from one LES pass, as text.
    (test_les_pass_matches_separate_calls checks that the pass agrees
    with stabilization_status and relative_homology.)"""
    les = les_exact_at_rel(setup, i)
    out = {key: str(les[key]) for key in
           ("source", "target", "Rel_i", "H_i_small", "H_i_big",
            "H_im1_small", "H_im1_big") if key in les}
    out.update({key: les[key] for key in ("is_epi", "is_iso", "exact")})
    out["defects"] = {k: str(v) for k, v in les["defects"].items()}
    return out


def _checked_les_cell(setup, i, monkeypatch):
    """_les_cell, asserted equal to the unreduced oracle's: every group
    `presented_subquotient` of the raw levels, read by the raw chain
    maps, with no unit pair cancelled."""
    cell = _les_cell(setup, i)
    with monkeypatch.context() as m:
        m.setattr(PresentedComplex, "homology", unreduced_homology)
        assert _les_cell(setup, i) == cell, (i, cell)
    return cell


def _agree(system, n_top, monkeypatch):
    """Every cell n -> n + 1 <= n_top, i <= 1, on both resolutions and
    against the unreduced oracle."""
    for n in range(n_top):
        setup = system.stabilization_setup(n)
        setup.verify()
        for i in (0, 1):
            small = _checked_les_cell(setup, i, monkeypatch)
            with monkeypatch.context() as m:
                # no caller's top is <= 0, so every resolve is a bar one
                m.setattr(PresentationComplex, "top", 0)
                bar = _les_cell(setup, i)
            assert small == bar, (system.name, n, i)
            assert small["exact"], (system.name, n, i)
    kinds = {kind for M in system.modules[:n_top + 1]
             for kind, _ in M._complexes}
    assert kinds == {PresentationComplex.kind, BarComplex.kind}


def _abelian(cat, n_max, subgroup=()):
    lim = abelianization_limit(cat, 0, 1, n_max, 2)
    system, star = abelian_constant_system(cat, 0, 1, n_max, lim, subgroup)
    return system, internalize(system, lim, star)


def _systems(cat, n_max, symmetric=False, abelian=True, subgroup=()):
    out = [constant_system(cat, 0, 1, n_max),
           constant_system(cat, 0, 1, n_max, rank=2, torsion=(2,))]
    if abelian:
        out += list(_abelian(cat, n_max, subgroup))
    if symmetric:
        out.append(standard_system(cat, 0, n_max))
    return out


@pytest.mark.parametrize("index", range(5))
def test_presentation_matches_bar_symmetric(monkeypatch, index):
    # Sym(n) for n <= 5, every builtin finite system
    cat = BracketCategory(make_symmetric())
    system = _systems(cat, 5, symmetric=True)[index]
    _agree(system, 5, monkeypatch)


def test_presentation_matches_bar_symmetric_tensor(monkeypatch):
    # the tensor square of the standard system has rank 25 on Sym(5), a
    # 354,025-column bar d_2; Sym(n) for n <= 4
    cat = BracketCategory(make_symmetric())
    _agree(tensor_power(standard_system(cat, 0, 4), 2), 4, monkeypatch)


@pytest.mark.parametrize("m, subgroup", [(2, ()), (3, [(3,)])])
def test_presentation_matches_bar_wreath(monkeypatch, m, subgroup):
    # the abelianization limit of Z/3 wr Sym is Z/6; Z[Z/6] on
    # Z/3 wr Sym(3) is a 155,526-column bar d_2, so the group ring is
    # taken over the quotient Z/3 (rank 3)
    cat = BracketCategory(make_wreath(cyclic_group(m)))
    for system in _systems(cat, 3, subgroup=subgroup):
        _agree(system, 3, monkeypatch)


@pytest.mark.parametrize("modulus, n_max", [(2, 3), (4, 2)])
def test_presentation_matches_bar_gl(monkeypatch, modulus, n_max):
    # GL has no stable abelianization on these windows, so no abelian
    # systems over it
    cat = BracketCategory(make_general_linear(FiniteRing(modulus),
                                              budget=25000))
    for system in _systems(cat, n_max, abelian=False):
        _agree(system, n_max, monkeypatch)


def _cells(make_cat, build, n_top, monkeypatch):
    """_les_cell of every cell n -> n + 1 <= n_top, i <= 1, of each
    system build(cat) returns, on a new category, checked against the
    unreduced oracle, and the level-2 sizes of their presentation
    complexes."""
    out, sizes = [], []
    for system in build(make_cat()):
        for n in range(n_top):
            setup = system.stabilization_setup(n)
            setup.verify()
            out += [_checked_les_cell(setup, i, monkeypatch)
                    for i in (0, 1)]
        sizes.append([resolve(M, BarBudget(), top=2).cells(2)
                      for M in system.modules[:n_top + 1]])
    return out, sizes


@pytest.mark.parametrize("make_cat, build, n_top", [
    (lambda: BracketCategory(make_symmetric()),
     lambda cat: _systems(cat, 5, symmetric=True), 5),
    (lambda: BracketCategory(make_symmetric()),
     lambda cat: [tensor_power(standard_system(cat, 0, 4), 2)], 4),
    (lambda: BracketCategory(make_wreath(cyclic_group(2))),
     lambda cat: _systems(cat, 3), 3),
    (lambda: BracketCategory(make_wreath(cyclic_group(3))),
     lambda cat: _systems(cat, 3, subgroup=[(3,)]), 3)],
    ids=["Sym", "Sym tensor", "Z/2 wr Sym", "Z/3 wr Sym"])
def test_short_relators_match_cayley(monkeypatch, make_cat, build, n_top):
    # the systems of the bar comparisons above, their cells at i <= 1 on
    # presentation complexes with the short words against the Cayley
    # words: the same groups, verdicts, Rel_1 and LES defects
    short, short_sizes = _cells(make_cat, build, n_top, monkeypatch)
    with monkeypatch.context() as m:
        m.setattr(FiniteGroup, "relators", FiniteGroup.cayley_relators)
        cayley, cayley_sizes = _cells(make_cat, build, n_top, monkeypatch)
    assert short == cayley
    # Sym(3) has 3 Coxeter words and 7 Cayley words; from n = 3 on the
    # short words are fewer on every level
    for a, b in zip(short_sizes, cayley_sizes):
        assert all(x < y for x, y in zip(a[3:], b[3:])) and a != b


def _perm_sign(p):
    return (-1) ** sum(1 for a, b in itertools.combinations(p, 2) if a > b)


def _unimodular(size, rng):
    """A random P in GL_size(Z) and its inverse, from elementary moves."""
    P, Pinv = identity_matrix(size), identity_matrix(size)
    for _ in range(2 * size):
        if size < 2:
            break
        i, j = rng.sample(range(size), 2)
        c = rng.choice([-2, -1, 1, 2])
        for row in P:                   # P <- P E_ij(c): col j += c col i
            row[j] += c * row[i]
        Pinv[i] = [x - c * y for x, y in zip(Pinv[i], Pinv[j])]
    return P, Pinv


def _custom(cat, base, twist, modulus, seed):
    """base written in a random basis of each level, tensored with the
    sign when twist, and reduced mod modulus (0: over Z)."""
    rng = random.Random(seed)
    bases = [_unimodular(base.rank(n), rng) for n in range(base.n_max + 1)]
    mods = []
    for n, M in enumerate(base.modules):
        P, Pinv = bases[n]
        rank = M.rank
        under = FGAbelianGroup(0, (modulus,) * rank) if modulus else \
            FGAbelianGroup(rank)
        action = {}
        for g in M.group.generators:
            sign = _perm_sign(g) if twist else 1
            action[g] = [[sign * x for x in row]
                         for row in mat_mul(Pinv, mat_mul(M.act(g), P))]
        mods.append(GModule(M.group, under, action, name=f"custom_{n}"))
    s_mats = [mat_mul(bases[n + 1][1],
                      mat_mul(base.s_mats[n], bases[n][0]))
              for n in range(base.n_max)]
    return CoefficientSystem(cat, 0, 1, base.n_max, mods, s_mats,
                             name="custom")


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(base=st.sampled_from(["constant", "standard"]),
       twist=st.booleans(), modulus=st.sampled_from([0, 2, 3, 4]),
       seed=st.integers(0, 2 ** 16))
def test_presentation_matches_bar_custom(monkeypatch, base, twist, modulus,
                                         seed):
    # custom systems: a builtin system in random bases, sign-twisted and
    # with torsion coefficients
    cat = BracketCategory(make_symmetric())
    system = {"constant": lambda: constant_system(cat, 0, 1, 4, rank=2),
              "standard": lambda: standard_system(cat, 0, 4)}[base]()
    custom = _custom(cat, system, twist, modulus, seed)
    for M in custom.modules:
        M.verify_action()
    _agree(custom, 4, monkeypatch)


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rank=st.integers(1, 2), power=st.integers(1, 2),
       twist=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_presentation_matches_bar_tensor(monkeypatch, rank, power, twist,
                                         seed):
    # tensor powers of the standard system and of a constant system of
    # the drawn rank, each in a random basis and sign-twisted when drawn
    cat = BracketCategory(make_symmetric())
    n_top = 3 if power == 2 else 4
    base = _custom(cat, standard_system(cat, 0, n_top), twist, 0, seed)
    _agree(tensor_power(base, power), n_top, monkeypatch)
    const = constant_system(cat, 0, 1, n_top, rank=rank)
    _agree(tensor_power(_custom(cat, const, twist, 0, seed), power),
           n_top, monkeypatch)


def test_presentation_level_sizes_and_resolve():
    # C_2 has one cell per relator per module generator: the 10 Coxeter
    # relators of Sym(5) (361 Cayley relators, |G| (|S| - 1) + 1), against
    # 119^2 bar cells; a run reading level 3 keeps both
    G = symmetric_group(5)
    M = permutation_module(G, 5)
    cx = resolve(M, BarBudget(), top=2)
    assert isinstance(cx, PresentationComplex)
    assert [cx.level_size(i) for i in range(3)] == [5, 20, 5 * 10]
    assert cx.boundary(2).ncols == 5 * 10
    assert resolve(M, BarBudget(), top=1) is cx
    assert isinstance(resolve(M, BarBudget(), top=3), BarComplex)
    with pytest.raises(ValueError, match="levels 0..2"):
        cx.level_size(3)
    A = trivial_module(alternating_group(5))
    assert str(bar_homology(A, 1)) == "0"
    assert resolve(A, BarBudget(), top=2).level_size(2) == 60 * 2 + 1
    T = trivial_module(symmetric_group(1))
    assert [resolve(T, BarBudget(), top=2).level_size(i)
            for i in range(3)] == [1, 0, 0]
    assert str(bar_homology(T, 1)) == "0"


def test_wrong_fox_column_fails_d2():
    # one Fox derivative of one relator off by the identity: that
    # relator's columns no longer close up under d_1.  (s_0 s_1)^3 of
    # Sym(3), and the first Cayley word of Alt(4)
    for G, index in ((symmetric_group(3), -1), (alternating_group(4), 0)):
        M = permutation_module(G, len(G.identity))
        cx = PresentationComplex(M, BarBudget())
        word = G.relators()[index]
        fox = cx.word_fox(word)
        t, mat = next(iter(fox.items()))
        wrong = {**fox, t: [[x + (a == b) for b, x in enumerate(row)]
                            for a, row in enumerate(mat)]}
        cx.word_fox = lambda w, cx=cx, word=word, wrong=wrong: \
            wrong if w == word else PresentationComplex.word_fox(cx, w)
        with pytest.raises(AssertionError,
                           match=r"presentation complex: d\^2"):
            cx.homology(1)


def _sym_setup(n):
    cat = BracketCategory(make_symmetric())
    setup = standard_system(cat, 0, n + 1).stabilization_setup(n)
    setup.verify()
    return setup


def test_wrong_f1_fails_cone_d2(monkeypatch):
    # f_1 with one column dropped: d f_1 != f_0 d on that cell
    setup = _sym_setup(2)
    chain_map = PresentationComplex.chain_map

    def wrong(self, i, other, group_map, mat):
        f = chain_map(self, i, other, group_map, mat)
        if i == 1:
            f = SparseCols(f.nrows, [{}] + f.cols[1:])
        return f
    monkeypatch.setattr(PresentationComplex, "chain_map", wrong)
    with pytest.raises(AssertionError, match=r"mapping cone: d\^2 != 0"):
        MappingCone(setup, BarBudget(), top=2).homology(1)
    with pytest.raises(AssertionError, match=r"mapping cone: d\^2 != 0"):
        les_exact_at_rel(setup, 1)


def test_non_equivariant_setup_fails_cone_d2():
    # trivial Z on Sym(2) -> sign module on Sym(3) with s = 1
    from dataclasses import replace
    cat = BracketCategory(make_symmetric())
    setup = constant_system(cat, 0, 1, 3).stabilization_setup(2)
    big = sign_module(setup.big.group, _perm_sign)
    bad = replace(setup, big=big)
    with pytest.raises(ValueError, match="not equivariant"):
        bad.verify()
    with pytest.raises(AssertionError, match=r"mapping cone: d\^2 != 0"):
        MappingCone(bad, BarBudget(), top=2).homology(1)
