"""A third resolution written against `FreeResolution`: the periodic
resolution of Z over Z[Z/m], one cell per level,

    ... --N--> Z[G] --(t - 1)--> Z[G] --N--> Z[G] --(t - 1)--> Z[G]

with d_odd = t - 1 and d_even = N = sum of all g.  Its homology must
match the closed forms and the bar complex, and a wrong d_2 must fail
the d^2 check.
"""

import pytest

from homstab.exact_linalg import induced_matrix
from homstab.groups import cyclic_group
from homstab.homology_engine import (BarBudget, FreeResolution, resolve,
                                     trivial_module)
from tests.oracles import group_ring_module, sign_module


class Periodic(FreeResolution):
    kind = "periodic resolution"

    def cells(self, i):
        return 1

    def differential(self, i):
        if i % 2:
            (t,) = self.G.generators
            yield [(0, 1, self.M.act_right(t)), (0, -1, None)]
        else:
            yield [(0, 1, self.M.act_right(g)) for g in self.G.elements]

    def cell_map(self, i, other, group_map, mat):
        # over the identity of G only: each level maps by mat
        assert all(group_map(g) == g for g in self.G.elements)
        yield [(0, 1, mat)]


class WrongNorm(Periodic):
    """d_2 = 1 + t in place of N."""

    def differential(self, i):
        if i % 2:
            yield from super().differential(i)
        else:
            (t,) = self.G.generators
            yield [(0, 1, None), (0, 1, self.M.act_right(t))]


def _groups(cx):
    return [str(cx.homology(i).group) for i in range(4)]


@pytest.mark.parametrize("m", [2, 3, 5])
def test_periodic_trivial_coefficients(m):
    M = trivial_module(cyclic_group(m))
    cx = Periodic(M, BarBudget())
    assert _groups(cx) == ["Z", f"Z/{m}", "0", f"Z/{m}"]
    assert _groups(cx) == _groups(resolve(M, BarBudget(), top=4))
    # the chain map of m |-> -m over the identity induces -1
    for i, order in ((0, 0), (1, m), (3, m)):
        h = cx.homology(i)
        assert h.group.orders == [order]
        ((v,),) = induced_matrix(
            cx.chain_map(i, cx, lambda g: g, [[-1]]), h, h)
        assert (v + 1) % m == 0 if order else v == -1


def test_periodic_sign_module():
    G = cyclic_group(2)
    M = sign_module(G, lambda g: -1 if g else 1)
    assert _groups(Periodic(M, BarBudget())) == ["Z/2", "0", "Z/2", "0"]
    assert _groups(resolve(M, BarBudget(), top=4)) == ["Z/2", "0", "Z/2",
                                                       "0"]


def test_wrong_norm_fails_d2_on_the_regular_module():
    # with trivial coefficients d_1 = 0, so 1 + t passes the d^2 check
    # there and H_1 comes out Z/2, which the transfer bound refuses: |G|
    # = 3 kills H_1; on Z[Z/3], d_1 d_2 = t^2 - 1 is not 0
    G = cyclic_group(3)
    with pytest.raises(AssertionError, match=r"periodic resolution: H_1 "
                       r"= Z/2 is not killed by \|G\| = 3"):
        WrongNorm(trivial_module(G), BarBudget()).homology(1)
    M = group_ring_module(G, G, {g: g for g in G.elements})
    assert str(Periodic(M, BarBudget()).homology(1).group) == "0"
    with pytest.raises(AssertionError,
                       match=r"periodic resolution: d\^2 != 0"):
        WrongNorm(M, BarBudget()).homology(1)
