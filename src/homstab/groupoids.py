"""Skeletal finite braided monoidal groupoids.

Objects are natural numbers with monoidal sum = addition; the data of an
instance is Aut(n) for each n (within budget), a block-sum homomorphism
and a braiding element, plus executable axiom checks with counterexample
witnesses.  The braid groupoid is not one of them: its groups are
infinite, and the Burau system (`burau`) reads B_n only through the
matrices of its generators.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from . import groups as gr
from .groups import FiniteGroup, DEFAULT_GROUP_BUDGET


@dataclass(frozen=True)
class FiniteRing:
    """Z/m; a field when m is prime.  Units are detected by gcd."""

    modulus: int

    def __post_init__(self):
        assert self.modulus >= 2

    def label(self):
        return f"Z/{self.modulus}"

    @property
    def is_field(self) -> bool:
        return gr._factorize(self.modulus) == [(self.modulus, 1)]


class BraidedGroupoidInstance:
    """A finite braided monoidal groupoid on objects 0, 1, 2, ...

    Subclasses provide `_make_aut`, `block_sum`, `first_block` and
    `braiding`; Aut(n) is memoized, and refused past the group budget
    where it is enumerated (at construction for GL, at the first read of
    its elements for Sym and G wr Sym).  Subclasses with a
    closed form for the minimum of a left-block coset override
    `coset_min`, and `face_reps` where a face has one too; those that
    can list the coset minima of Hom(m, n) without Aut(n) override
    `hom_reps`, and `aut_order` with the order formula and the budget
    check of enumerating Aut(n).
    """

    symmetric_flag = False
    name = "G"

    def __init__(self, budget=DEFAULT_GROUP_BUDGET):
        self.budget = budget
        self._auts: dict[int, FiniteGroup] = {}
        self._blocks: dict[tuple[int, int], frozenset] = {}

    def aut(self, n: int) -> FiniteGroup:
        if n not in self._auts:
            self._auts[n] = self._make_aut(n)
        return self._auts[n]

    def _make_aut(self, n: int) -> FiniteGroup:
        raise NotImplementedError

    def aut_order(self, n: int) -> int:
        """|Aut(n)|, refused past the budget as `aut` refuses it.
        Generic: the order of the enumerated group."""
        return self.aut(n).order

    def block_sum(self, g, h, m: int, n: int):
        """g + h in Aut(m+n) with g in Aut(m), h in Aut(n)."""
        raise NotImplementedError

    def braiding(self, m: int, n: int):
        """b_{m,n} in Aut(m+n)."""
        raise NotImplementedError

    def first_block(self, f, m: int, n: int):
        """g for f = g + h in Aut(m+n), g in Aut(m) and h in Aut(n); None
        when f is no such block sum.  A homomorphism on the block sums."""
        raise NotImplementedError

    def mul(self, a, b):
        """Element multiplication, independent of Aut enumeration."""
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def permute(self, f, order):
        """f times the permutation element of Aut(len(order)) that sends
        slot j to slot order[j]: slot j of the result is slot order[j]
        of f.  No product is formed."""
        raise NotImplementedError

    def braiding_inv(self, m: int, n: int):
        return self.inv(self.braiding(m, n))

    def degree(self, f) -> int:
        """The object n with f in Aut(n)."""
        return len(f)

    def left_block(self, c: int, m: int) -> frozenset:
        """The subgroup Aut(c) + id_m of Aut(c+m) (memoized)."""
        key = (c, m)
        if key not in self._blocks:
            idm = self.identity(m)
            self._blocks[key] = frozenset(
                self.block_sum(g, idm, c, m) for g in self.aut(c))
        return self._blocks[key]

    def coset_min(self, c: int, f):
        """Minimum of the coset f (Aut(c) + id_m) in the element order,
        for f in Aut(c+m).

        Generic: |Aut(c)| products.  It is the fallback for instances
        without a closed form and the oracle the closed forms are tested
        against.  When c is 0 the coset is {f}; when c is the degree of f
        it is all of Aut(c), whose minimum is its first element.
        """
        if c == 0:
            return f
        n = self.degree(f)
        if c == n:
            return self.aut(n).elements[0]
        block = self.left_block(c, n - c)
        return min(self.mul(f, b) for b in block)

    def face_reps(self, c: int, i: int, x: int, reps) -> list:
        """For each r in reps, the minimum of the coset r s (Aut(c + x) +
        id), s the slot permutation that moves block i of the tail, slots
        c + ix .. c + (i+1)x - 1, next to the first c slots: the rep of
        face i of [X^c, r] (`bracket.BracketCategory.face_reps`).

        Generic: `permute`, then `coset_min`.  It is the fallback for
        instances without a closed form and the oracle the closed forms
        are tested against.
        """
        if not reps:
            return []
        order = _face_order(c, i, x, self.degree(reps[0]))
        return [self.coset_min(c + x, self.permute(r, order)) for r in reps]

    def hom_reps(self, m: int, n: int) -> list:
        """The coset minima of Hom(m, n), sorted: coset_min(n - m, f) for
        f in Aut(n).

        Generic: one `coset_min` per element of Aut(n).  It is the
        fallback for instances without a closed form and the oracle the
        closed forms are tested against.
        """
        return sorted({self.coset_min(n - m, f) for f in self.aut(n)})

    def identity(self, n: int):
        return self.aut(n).identity


@functools.lru_cache(maxsize=None)
def _face_order(c: int, i: int, x: int, n: int) -> tuple:
    """The slots of id_c + delta_i on n = c + (p+1)x: the complement,
    then block i of the tail, then the other blocks in order."""
    lo = c + i * x
    return (*range(c), *range(lo, lo + x), *range(c, lo), *range(lo + x, n))


def _injective_words(m: int, n: int) -> list:
    """The injective words t of length m in 0..n-1, each with the sorted
    tuple of the points it misses: [(t, complement)]."""
    words = [((), tuple(range(n)))]
    for _ in range(m):
        words = [(t + (r[j],), r[:j] + r[j + 1:])
                 for t, r in words for j in range(len(r))]
    return words


class SymmetricGroupoid(BraidedGroupoidInstance):
    symmetric_flag = True
    name = "symmetric"

    def mul(self, a, b):
        return gr.perm_mul(a, b)

    def inv(self, a):
        return gr.perm_inv(a)

    def permute(self, f, order):
        return tuple([f[j] for j in order])

    def _make_aut(self, n):
        return gr.symmetric_group(n, budget=self.budget)

    def block_sum(self, g, h, m, n):
        return gr.perm_block_sum(g, h)

    def braiding(self, m, n):
        return gr.perm_braiding(m, n)

    def first_block(self, f, m, n):
        g = f[:m]
        return g if all(x < m for x in g) else None

    def aut_order(self, n):
        return gr.symmetric_order(n, self.budget)

    def coset_min(self, c, f):
        # right multiplication by Aut(c) + id permutes the first c images
        return tuple(sorted(f[:c])) + f[c:]

    def face_reps(self, c, i, x, reps):
        # the moved block joins the complement, which is sorted again
        lo, hi = c + i * x, c + (i + 1) * x
        return [tuple(sorted(r[:c] + r[lo:hi])) + r[c:lo] + r[hi:]
                for r in reps]

    def hom_reps(self, m, n):
        # a coset is fixed by its injective tail t, the last m images, and
        # its minimum lists the points t misses first, sorted
        return sorted(r + t for t, r in _injective_words(m, n))


class WreathGroupoid(BraidedGroupoidInstance):
    symmetric_flag = True

    def __init__(self, base: FiniteGroup, budget=DEFAULT_GROUP_BUDGET):
        super().__init__(budget)
        self.base = base
        self.name = f"wreath[{base.name}]"
        self._mul = gr.wreath_mul(base)
        self._inv = gr.wreath_inv(base)

    def mul(self, a, b):
        return self._mul(a, b)

    def inv(self, a):
        return self._inv(a)

    def permute(self, f, order):
        # a permutation element carries identity labels, so the product
        # keeps the labels of f and reorders its permutation
        labels, s = f
        return (labels, tuple([s[j] for j in order]))

    def _make_aut(self, n):
        return gr.wreath_group(self.base, n, budget=self.budget)

    def block_sum(self, g, h, m, n):
        return gr.wreath_block_sum(self.base, g, h)

    def braiding(self, m, n):
        return gr.wreath_braiding(self.base, m, n)

    def first_block(self, f, m, n):
        a, s = f
        return (a[:m], s[:m]) if all(x < m for x in s[:m]) else None

    def degree(self, f):
        return len(f[1])

    def coset_min(self, c, f):
        # (a, s)(b + id, t + id) has labels a_i b_{s^-1(i)} and
        # permutation s (t + id): the labels at the points s(0..c-1)
        # range over the whole base group independently of each other and
        # of the first c images of the permutation, which range over
        # their orderings
        a, s = f
        moved = s[:c]
        least = self.base.elements[0]
        labels = list(a)
        for i in moved:
            labels[i] = least
        return (tuple(labels), tuple(sorted(moved)) + s[c:])

    def face_reps(self, c, i, x, reps):
        # coset_min after permute: the moved block joins the complement,
        # which is sorted again, and the labels at its points drop to the
        # least base element
        lo, hi = c + i * x, c + (i + 1) * x
        least = self.base.elements[0]
        out = []
        for a, s in reps:
            moved = s[:c] + s[lo:hi]
            labels = list(a)
            for j in moved:
                labels[j] = least
            out.append((tuple(labels),
                        tuple(sorted(moved)) + s[c:lo] + s[hi:]))
        return out

    def aut_order(self, n):
        return gr.wreath_order(self.base, n, self.budget)

    def hom_reps(self, m, n):
        # the minima that coset_min gives: an injective tail t, any base
        # labels at its points and the least label at the points it misses
        elements = self.base.elements
        least = elements[0]
        labellings = [()]
        for _ in range(m):
            labellings = [lab + (b,) for lab in labellings for b in elements]
        out = []
        for t, r in _injective_words(m, n):
            for lab in labellings:
                labels = [least] * n
                for i, b in zip(t, lab):
                    labels[i] = b
                out.append((tuple(labels), r + t))
        return sorted(out)


class GeneralLinearGroupoid(BraidedGroupoidInstance):
    symmetric_flag = True

    def __init__(self, ring: FiniteRing, budget=DEFAULT_GROUP_BUDGET):
        super().__init__(budget)
        self.ring = ring
        self.name = f"gl[{ring.label()}]"
        if ring.is_field:
            # decided here so that a call pays no dispatch; Z/m with m
            # composite keeps the generic minimum
            self.coset_min = self._echelon_coset_min

    def mul(self, a, b):
        return gr.mat_mul_mod(a, b, self.ring.modulus)

    def inv(self, a):
        return gr.mat_inv_mod(a, self.ring.modulus)

    def permute(self, f, order):
        # column j of a permutation matrix is the unit vector e_order[j]
        return tuple(tuple([row[j] for j in order]) for row in f)

    def _make_aut(self, n):
        return gr.general_linear_group(n, self.ring.modulus,
                                       budget=self.budget)

    def block_sum(self, g, h, m, n):
        return gr.mat_block_sum(g, h)

    def braiding(self, m, n):
        return gr.mat_braiding(m, n)

    def first_block(self, f, m, n):
        if any(any(row[m:]) for row in f[:m]) or \
                any(any(row[:m]) for row in f[m:]):
            return None
        return tuple(row[:m] for row in f[:m])

    def _echelon_coset_min(self, c, f):
        """Over a prime field, f (g + id) replaces the first c columns of
        f by any basis of their span.  The row-major minimum of such
        bases is the reduced column echelon form whose pivots are taken
        right to left: the first pivot row gets column c-1."""
        p = self.ring.modulus
        cols = [[row[j] for row in f] for j in range(c)]
        free = c                    # cols[:free] carry no pivot yet
        for r in range(len(f)):
            if not free:
                break
            j = next((j for j in range(free) if cols[j][r]), None)
            if j is None:
                continue
            free -= 1
            cols[j], cols[free] = cols[free], cols[j]
            inv = pow(cols[free][r], -1, p)
            piv = [x * inv % p for x in cols[free]]
            cols[free] = piv
            for k in range(c):
                t = cols[k][r]
                if k != free and t:
                    cols[k] = [(x - t * y) % p for x, y in zip(cols[k], piv)]
        return tuple(tuple(col[i] for col in cols) + row[c:]
                     for i, row in enumerate(f))


def make_symmetric(budget=DEFAULT_GROUP_BUDGET) -> BraidedGroupoidInstance:
    """The groupoid of finite sets and bijections."""
    return SymmetricGroupoid(budget)


def make_wreath(base: FiniteGroup,
                budget=DEFAULT_GROUP_BUDGET) -> BraidedGroupoidInstance:
    """Labeled bijections: Aut(n) = base wr Sym(n)."""
    return WreathGroupoid(base, budget)


def make_general_linear(ring: FiniteRing,
                        budget=DEFAULT_GROUP_BUDGET) -> BraidedGroupoidInstance:
    """Free R-modules and their isomorphisms, R = Z/m."""
    return GeneralLinearGroupoid(ring, budget)


# ------------------------------------------------------------------
# axiom verification


@dataclass
class AxiomCheck:
    identity: str
    passed: bool
    witness: tuple | None = None


@dataclass
class AxiomReport:
    instance: str
    n_max: int
    checks: list[AxiomCheck] = field(default_factory=list)

    def add(self, identity, passed, witness=None):
        self.checks.append(AxiomCheck(identity, passed, witness))

    def failures(self):
        return [c for c in self.checks if not c.passed]


def verify_groupoid_axioms(G: BraidedGroupoidInstance,
                           n_max: int) -> AxiomReport:
    """Exhaustive braided-monoidal axiom checks up to total object n_max.

    Checks: block_sum homomorphism in each variable, unit/associativity,
    injectivity of g -> g + id, braiding naturality, both hexagons, and
    (for symmetric instances) the symmetry b_{n,m} b_{m,n} = id.

    The homomorphism check compares phi(g s, h t) with phi(g, h) phi(s, t)
    for every (g, h) in Aut(m) x Aut(n) and every (s, t) in
    {(s, id)} + {(id, t)} + {(id, id)}, s and t generators: |P| |S|
    products instead of |P|^2.  It passes exactly when the all-pairs
    check does: (s, t) = (id, id) gives phi(id) = id, and induction on
    word length then gives phi(g x, h y) = phi(g, h) phi(x, y) for all
    (x, y).  That needs the generators to generate, so the check first
    confirms it for each Aut(k) and fails with witness (k, "generators")
    if they do not.  For m, n >= 1 it takes |Aut(m)| |Aut(n)| (1 + |S_m|
    + |S_n|) products in Aut(m+n), besides those in the factors.

    A pair with a unit factor is first compared with the projection:
    for m = 0, phi(g, h) = h on every pair, and for n = 0, phi(g, h) = g.
    A projection is a homomorphism, so |Aut(n)| (or |Aut(m)|) comparisons
    and no product certify the pair.  A pair that is not the projection
    goes through the steps, so its verdict and witness are theirs.
    """
    rep = AxiomReport(G.name, n_max)

    def first_failure(pairs):
        for w in pairs:
            return w
        return None

    def homomorphism_failure():
        for k in range(0, n_max + 1):
            try:
                G.aut(k).tree()
            except ValueError:
                return (k, "generators")
        for m in range(0, n_max + 1):
            for n in range(0, n_max + 1 - m):
                Gm, Gn, Gmn = G.aut(m), G.aut(n), G.aut(m + n)
                if (m == 0 or n == 0) and all(
                        G.block_sum(g, h, m, n) == (g if n == 0 else h)
                        for g in Gm for h in Gn):
                    continue
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

    # homomorphism + unit + injectivity of - + id_n
    w = homomorphism_failure()
    rep.add("block_sum is a homomorphism", w is None, w)

    w = first_failure(
        (m, n)
        for m in range(0, n_max + 1) for n in range(0, n_max + 1 - m)
        if G.block_sum(G.identity(m), G.identity(n), m, n)
        != G.identity(m + n))
    rep.add("block_sum preserves identities", w is None, w)

    w = first_failure(
        (a, b, c, g, h, k)
        for a in range(0, n_max + 1) for b in range(0, n_max + 1 - a)
        for c in range(0, n_max + 1 - a - b)
        for g in G.aut(a) for h in G.aut(b) for k in G.aut(c)
        if G.block_sum(G.block_sum(g, h, a, b), k, a + b, c)
        != G.block_sum(g, G.block_sum(h, k, b, c), a, b + c))
    rep.add("block_sum is associative", w is None, w)

    def not_injective(m, n):
        seen = set()
        for g in G.aut(m):
            img = G.block_sum(g, G.identity(n), m, n)
            if img in seen:
                return (m, n, g)
            seen.add(img)
        return None

    w = first_failure(
        bad
        for m in range(0, n_max + 1) for n in range(0, n_max + 1 - m)
        if (bad := not_injective(m, n)) is not None)
    rep.add("g -> g + id is injective", w is None, w)

    # naturality: b_{m,n} (g + h) = (h + g) b_{m,n}
    w = first_failure(
        (m, n, g, h)
        for m in range(0, n_max + 1) for n in range(0, n_max + 1 - m)
        for g in G.aut(m) for h in G.aut(n)
        if G.aut(m + n).mul(G.braiding(m, n), G.block_sum(g, h, m, n))
        != G.aut(m + n).mul(G.block_sum(h, g, n, m), G.braiding(m, n)))
    rep.add("braiding naturality", w is None, w)

    # hexagons (strict monoidal form):
    # b_{a+b,c} = (b_{a,c} + id_b)(id_a + b_{b,c})
    # b_{a,b+c} = (id_b + b_{a,c})(b_{a,b} + id_c)
    w = first_failure(
        (a, b, c)
        for a in range(0, n_max + 1) for b in range(0, n_max + 1 - a)
        for c in range(0, n_max + 1 - a - b)
        if G.braiding(a + b, c) != G.aut(a + b + c).mul(
            G.block_sum(G.braiding(a, c), G.identity(b), a + c, b),
            G.block_sum(G.identity(a), G.braiding(b, c), a, b + c)))
    rep.add("hexagon (sum on the left)", w is None, w)

    w = first_failure(
        (a, b, c)
        for a in range(0, n_max + 1) for b in range(0, n_max + 1 - a)
        for c in range(0, n_max + 1 - a - b)
        if G.braiding(a, b + c) != G.aut(a + b + c).mul(
            G.block_sum(G.identity(b), G.braiding(a, c), b, a + c),
            G.block_sum(G.braiding(a, b), G.identity(c), a + b, c)))
    rep.add("hexagon (sum on the right)", w is None, w)

    if G.symmetric_flag:
        w = first_failure(
            (m, n)
            for m in range(0, n_max + 1) for n in range(0, n_max + 1 - m)
            if G.aut(m + n).mul(G.braiding(n, m), G.braiding(m, n))
            != G.identity(m + n))
        rep.add("symmetry b_{n,m} b_{m,n} = id", w is None, w)

    return rep
