import operator

import pytest

from homstab import groups
from homstab.groups import (FiniteGroup, cyclic_group, perm_identity,
                            mat_block_sum)
from homstab.groupoids import (
    make_symmetric, make_wreath, make_general_linear, FiniteRing,
    GeneralLinearGroupoid, verify_groupoid_axioms,
    AxiomReport,
)
from homstab.burau import BurauSystem, lm_identity, lm_mul
from tests.oracles import braid_presentation, relator_failure


@pytest.mark.parametrize("make,n_max", [
    (make_symmetric, 5),
    (lambda: make_wreath(cyclic_group(2)), 3),
    (lambda: make_general_linear(FiniteRing(2)), 3),
    (lambda: make_general_linear(FiniteRing(4)), 2),
])
def test_braided_groupoid_axioms(make, n_max):
    report = verify_groupoid_axioms(make(), n_max)
    assert not report.failures(), report.failures()


@pytest.mark.parametrize("make,top", [
    (make_symmetric, 5),
    (lambda: make_wreath(cyclic_group(2)), 4),
    (lambda: make_general_linear(FiniteRing(2)), 3),
    (lambda: make_general_linear(FiniteRing(4)), 2),
])
def test_first_block_inverts_block_sum(make, top):
    # on every element f of Aut(m + n), m + n <= top: first_block gives g
    # exactly when f = g + h, and None on the elements that are no block
    # sum, the restriction that certifies phi injective
    G = make()
    for size in range(top + 1):
        for m in range(size + 1):
            n = size - m
            sums = {G.block_sum(g, h, m, n): g
                    for g in G.aut(m) for h in G.aut(n)}
            for f in G.aut(size):
                assert G.first_block(f, m, n) == sums.get(f), (m, n, f)


def test_symmetric_braiding_is_symmetry():
    inst = make_symmetric()
    b = inst.braiding(2, 3)
    assert inst.mul(inst.braiding(3, 2), b) == perm_identity(5)


def test_wreath_aut_order():
    inst = make_wreath(cyclic_group(3))
    assert inst.aut(2).order == 9 * 2


def test_gl_aut_order():
    inst = make_general_linear(FiniteRing(2))
    assert inst.aut(3).order == 168


def test_braid_family_relators_in_burau():
    B = BurauSystem(5)
    for n in (3, 4, 5):
        bad = relator_failure(*braid_presentation(n), B.images(n),
                              identity=lm_identity(n), mul=lm_mul,
                              eq=operator.eq)
        assert bad is None, bad


def test_braid_family_relator_shapes():
    gens, rels = braid_presentation(4)
    assert gens == 3
    # two braid relations and one far commutator
    assert any(len(r) == 6 for r in rels)
    assert any(len(r) == 4 for r in rels)


def test_presented_family_rejects_bad_images():
    B = BurauSystem(3)
    imgs = dict(B.images(3))
    imgs[1] = lm_identity(3)  # sigma_1 killed: braid relation fails
    imgs[-1] = lm_identity(3)
    assert relator_failure(*braid_presentation(3), imgs,
                           identity=lm_identity(3), mul=lm_mul,
                           eq=operator.eq) is not None


HOMOMORPHISM = "block_sum is a homomorphism"


def _all_pairs_homomorphism_failure(G, n_max):
    """The homomorphism check over all pairs of pairs, |P|^2 products."""
    for m in range(0, n_max + 1):
        for n in range(0, n_max + 1 - m):
            for g1 in G.aut(m):
                for g2 in G.aut(m):
                    for h1 in G.aut(n):
                        for h2 in G.aut(n):
                            lhs = G.block_sum(G.aut(m).mul(g1, g2),
                                              G.aut(n).mul(h1, h2), m, n)
                            rhs = G.aut(m + n).mul(
                                G.block_sum(g1, h1, m, n),
                                G.block_sum(g2, h2, m, n))
                            if lhs != rhs:
                                return (m, n, g1, g2, h1, h2)
    return None


def _check(report, identity):
    (check,) = [c for c in report.checks if c.identity == identity]
    return check


SWAP = ((0, 1), (1, 0))     # in GL_2(F_2), not a transvection


class _BrokenBlockSum(GeneralLinearGroupoid):
    """GL(F_2) whose block sum is wrong on the single pair (SWAP, id_1)."""

    def block_sum(self, g, h, m, n):
        if (m, n) == (2, 1) and g == SWAP:
            return mat_block_sum(((1, 1), (0, 1)), h)
        return super().block_sum(g, h, m, n)


def test_block_sum_wrong_on_one_pair_fails():
    G = _BrokenBlockSum(FiniteRing(2))
    assert SWAP not in G.aut(2).generators
    check = _check(verify_groupoid_axioms(G, 3), HOMOMORPHISM)
    assert not check.passed
    m, n, g1, g2, h1, h2 = check.witness
    assert G.block_sum(G.mul(g1, g2), G.aut(n).mul(h1, h2), m, n) != \
        G.mul(G.block_sum(g1, h1, m, n), G.block_sum(g2, h2, m, n))
    assert _all_pairs_homomorphism_failure(G, 3) is not None


class _TooFewGenerators(GeneralLinearGroupoid):
    """GL(F_2) whose Aut(2) keeps only its first generator."""

    def _make_aut(self, n):
        grp = super()._make_aut(n)
        if n != 2:
            return grp
        return FiniteGroup(grp.elements, grp.mul, grp.inv, grp.identity,
                           name=grp.name, generators=grp.generators[:1])


def test_non_generating_generators_fail_homomorphism_check():
    G = _TooFewGenerators(FiniteRing(2))
    report = verify_groupoid_axioms(G, 3)
    check = _check(report, HOMOMORPHISM)
    assert not check.passed
    assert check.witness == (2, "generators")
    # the other checks do not read generators
    assert all(c.passed for c in report.checks if c is not check)


def _step_loop_homomorphism_failure(G, n_max):
    """The step loop of the homomorphism check with no projection test
    for a unit factor: |Aut(m)| |Aut(n)| (1 + |S_m| + |S_n|) steps on
    every pair (m, n), the unit pairs included."""
    for k in range(0, n_max + 1):
        try:
            G.aut(k).tree()
        except ValueError:
            return (k, "generators")
    for m in range(0, n_max + 1):
        for n in range(0, n_max + 1 - m):
            Gm, Gn, Gmn = G.aut(m), G.aut(n), G.aut(m + n)
            e_m, e_n = Gm.identity, Gn.identity
            pairs = ([(e_m, e_n)] + [(s, e_n) for s in Gm.generators]
                     + [(e_m, t) for t in Gn.generators])
            steps = [(s, t, G.block_sum(s, t, m, n)) for s, t in pairs]
            for g1 in Gm:
                for h1 in Gn:
                    phi = G.block_sum(g1, h1, m, n)
                    for g2, h2, phi2 in steps:
                        if G.block_sum(Gm.mul(g1, g2), Gn.mul(h1, h2),
                                       m, n) != Gmn.mul(phi, phi2):
                            return (m, n, g1, g2, h1, h2)
    return None


class _BrokenUnitSum(GeneralLinearGroupoid):
    """GL(F_2) whose block sum with the empty factor on `side` sends
    SWAP in Aut(2) to a transvection."""

    def __init__(self, side):
        super().__init__(FiniteRing(2))
        self.side = side

    def block_sum(self, g, h, m, n):
        if (m, n) == (0, 2) and self.side == "left" and h == SWAP:
            return ((1, 1), (0, 1))
        if (m, n) == (2, 0) and self.side == "right" and g == SWAP:
            return ((1, 1), (0, 1))
        return super().block_sum(g, h, m, n)


@pytest.mark.parametrize("side", ["left", "right"])
def test_unit_sum_wrong_on_one_element_fails_with_step_witness(side):
    G = _BrokenUnitSum(side)
    check = _check(verify_groupoid_axioms(G, 3), HOMOMORPHISM)
    assert not check.passed
    assert check.witness == _step_loop_homomorphism_failure(G, 3)
    assert check.witness[:2] == ((0, 2) if side == "left" else (2, 0))
    assert _all_pairs_homomorphism_failure(G, 3) is not None


class _ConjugatingUnit(GeneralLinearGroupoid):
    """GL(F_2) whose empty factor acts on Aut(n), n >= 2, by conjugation
    with a transvection c: (g, h) -> c h c^-1 for m = 0, and
    (g, h) -> c g c^-1 for n = 0.  A homomorphism, not the projection."""

    def __init__(self):
        super().__init__(FiniteRing(2))

    def block_sum(self, g, h, m, n):
        k = max(m, n)
        if min(m, n) > 0 or k < 2:
            return super().block_sum(g, h, m, n)
        c = self.aut(k).generators[0]
        return self.mul(self.mul(c, h if m == 0 else g), self.inv(c))


def test_unit_sum_by_conjugation_passes_through_the_step_loop():
    G = _ConjugatingUnit()
    assert G.block_sum(G.identity(0), SWAP, 0, 2) != SWAP
    assert G.block_sum(SWAP, G.identity(0), 2, 0) != SWAP
    check = _check(verify_groupoid_axioms(G, 3), HOMOMORPHISM)
    assert check.passed, check.witness
    assert _step_loop_homomorphism_failure(G, 3) is None
    assert _all_pairs_homomorphism_failure(G, 3) is None


def test_unit_pairs_take_no_products(monkeypatch):
    """On GL(Z/4) n_max 2 every product of the homomorphism check falls
    on the pair (1, 1): |Aut(1)|^2 (1 + 2 |S_1|) = 12 steps of three
    products, in Aut(1), Aut(1) and Aut(2)."""
    G = GeneralLinearGroupoid(FiniteRing(4))
    for k in range(3):
        G.aut(k).tree()
    pair, calls, counted = [None], [], []
    block_sum, mul = G.block_sum, groups.mat_mul_mod

    def recording_block_sum(g, h, m, n):
        pair[0] = (m, n)
        return block_sum(g, h, m, n)

    def counting_mul(a, b, m):
        calls.append(pair[0])
        return mul(a, b, m)

    add = AxiomReport.add

    def snapshot_add(rep, identity, *args):
        if identity == HOMOMORPHISM:
            counted.extend(calls)
        return add(rep, identity, *args)

    monkeypatch.setattr(G, "block_sum", recording_block_sum)
    monkeypatch.setattr(groups, "mat_mul_mod", counting_mul)
    monkeypatch.setattr(AxiomReport, "add", snapshot_add)
    assert _check(verify_groupoid_axioms(G, 2), HOMOMORPHISM).passed
    assert len(G.aut(1).generators) == 1
    assert counted == [(1, 1)] * 36
