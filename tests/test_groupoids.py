import pytest

from homstab.groups import (FiniteGroup, cyclic_group, perm_identity,
                            mat_block_sum)
from homstab.groupoids import (
    make_symmetric, make_wreath, make_general_linear, FiniteRing,
    GeneralLinearGroupoid, verify_groupoid_axioms, braid_family,
)
from homstab.laurent import lm_identity, lm_eq, lm_mul
from homstab.coeffsys import BurauSystem


@pytest.mark.parametrize("make,n_max", [
    (make_symmetric, 5),
    (lambda: make_wreath(cyclic_group(2)), 3),
    (lambda: make_general_linear(FiniteRing(2)), 3),
    (lambda: make_general_linear(FiniteRing(4)), 2),
])
def test_braided_groupoid_axioms(make, n_max):
    report = verify_groupoid_axioms(make(), n_max)
    assert report.all_passed, report.failures()


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
    fam = braid_family()
    B = BurauSystem(5)
    for n in (3, 4, 5):
        bad = fam.verify_images(n, B.images(n),
                                identity=lm_identity(n),
                                mul=lm_mul, eq=lm_eq)
        assert bad is None, bad


def test_braid_family_relator_shapes():
    fam = braid_family()
    assert fam.gens(4) == 3
    rels = fam.relators(4)
    # two braid relations and one far commutator
    assert any(len(r) == 6 for r in rels)
    assert any(len(r) == 4 for r in rels)
    assert fam.b1n(4) == (4, 3, 2, 1)


def test_presented_family_rejects_bad_images():
    fam = braid_family()
    B = BurauSystem(3)
    imgs = dict(B.images(3))
    imgs[1] = lm_identity(3)  # sigma_1 killed: braid relation fails
    imgs[-1] = lm_identity(3)
    assert fam.verify_images(3, imgs, identity=lm_identity(3),
                             mul=lm_mul, eq=lm_eq) is not None


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
