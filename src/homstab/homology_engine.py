"""Group homology of finite groups with twisted coefficients.

Two free resolutions of Z over Z[G], tensored with a finitely generated
Z[G]-module M, plus what the stability verifier needs: coinvariants,
the Hurewicz map G -> H_1(G; Z) = G^ab, stabilization chain maps, and
relative homology as a mapping cone.  Every group here is computed by
`exact_linalg`, which alone knows how a presented group is encoded:
callers pass orders (0 = Z), read from `FGAbelianGroup.orders`.
`PresentedComplex.homology`, here and for `simplicial`, is the one
homology routine: one `check_composable` of d o d modulo the orders,
unit pairs cancelled, and one `presented_subquotient` of what is left;
the homology at each node of the long exact sequence of a pair is one
`map_homology` of the induced maps.

A module's action and the stabilization map phi are given on
generators and read on elements by one `FiniteGroup.walk` down the
group's steps, and checked on the group's relator words.  Every Fox
derivative is one `PresentationComplex.word_fox` of a word: a relator
for d_2, the letters of phi(s) down its steps (`FiniteGroup.word`) for
the chain map f_1.  A `StabilizationSetup` is verified once (phi on the
relators, injective by a left inverse; s equivariant) and keeps its
chain maps.

Every caller takes its complex from `resolve(M, budget, top)`, where top
is the highest chain level it reads (H_i reads levels up to i + 1):

  * top <= 2 (H_0, H_1, Rel_1): the presentation complex, the cellular
    chains of the universal cover of the presentation complex of G on
    its generators S and relator words R: level 2 has rank * |R| cells,
    |R| = n (n - 1) / 2 for Sym(n), |G| (|S| - 1) + 1 for Cayley words.
  * otherwise: the normalized bar complex, whose level i has
    rank * (|G| - 1)^i cells.

`resolve` keeps one complex of each kind per module and budget.  Its
levels are built on first use, each after one budget check on the
entries (rows x columns) of its boundary matrix, and its boundaries and
homology groups are kept, so neighbouring grid cells that resolve the
same module share them.

Both are a `FreeResolution`: a subclass lists the free Z[G]-cells of its
levels and nothing else, and the base builds and budget-checks the
levels of C = M (x) (resolution); `PresentedComplex` keeps them.  It
gives

  * cells(i): the number of Z[G]-cells of level i;
  * differential(i): for each cell of level i in order, the terms
    (t, c, mat) of its boundary, so d(m e_s) = sum c (mat.m) e_t over
    cells t of level i - 1, with mat a matrix on module coordinates or
    None for the identity;
  * cell_map(i, other, group_map, mat): the same for the chain map
    C_i(self) -> C_i(other) over a homomorphism group_map and a module
    map mat equivariant over it.

One function, `_tensor`, turns such terms into a matrix; it alone knows
the row layout of a level, cell by cell and module generator within.

Conventions (fixed once, and d^2 = 0 is asserted on every assembled
complex so a sign slip cannot pass silently):

  * modules carry a LEFT action by integer matrices on a fixed generating
    presentation; every resolution uses the associated right action
    m.g := g^{-1}.m, extended linearly to Z[G];
  * bar complex: C_i = M (x) Z[Gbar^i] with Gbar = G \\ {e};
    d(m(x)[g1|...|gi]) = m.g1 (x) [g2|...|gi]
      + sum_{s=1..i-1} (-1)^s m (x) [g1|..|g_s g_{s+1}|..|gi]
      + (-1)^i m (x) [g1|...|g_{i-1}],
    terms whose bar acquires an identity entry are dropped;
  * presentation complex: C_0 = M, C_1 = M^S, C_2 = M^R with one cell
    per relator word R (`FiniteGroup.relators`);
    d_1(m e_s) = m.s - m and d_2(m e_R) = sum_t m.(dR/dt) e_t, with dR/dt
    the Fox derivative (Fox, Free differential calculus I, 1953).
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from functools import reduce

from .exact_linalg import (
    FGAbelianGroup,
    SparseCols,
    Subquotient,
    check_composable,
    classify_induced,
    identity_matrix,
    induced_matrix,
    map_homology,
    mat_mul,
    presented_subquotient,
    product_mod,
    reduce_rows,
    reduce_unit_pairs,
    rows_congruent,
)
# not called here: perfbench/test_tracer.py checks that tracing patches
# these names in every module that imports them
from .exact_linalg import homology_of_pair, span_columns  # noqa: F401
from .groups import BudgetExceeded, FiniteGroup


@dataclass(frozen=True)
class BarBudget:
    """The one resource limit for assembling a resolution: max_entries
    bounds rows x columns of the boundary matrix d_level of any chain
    level that is built, bar or presentation complex.

    Time and memory follow those entries, not the cell count: on a
    2-CPU machine a 1.0e8-entry boundary (bar d_3 of Sym(4) on Z^4)
    took 14 s, a 4.1e8-entry one (bar d_4 of Z/3 wr Sym(2)) 117 s and
    0.9 GB, and a 3.4e9-entry one (bar d_4 of Sym(4)) did not finish in
    600 s.  The default admits the first two and refuses the third.
    """

    max_entries: int = 1_000_000_000

    def check(self, cx, level: int) -> None:
        """Refuse to build chain level `level` of the resolution cx: the
        refusal reads "<kind>: chain level N needs a R x C boundary (E
        entries > B)", with estimate E."""
        rows, cols = cx.level_size(level - 1), cx.level_size(level)
        entries = rows * cols
        if entries > self.max_entries:
            raise BudgetExceeded(
                f"{cx.kind}: chain level {level} needs a {rows} x {cols} "
                f"boundary ({entries} entries > {self.max_entries})",
                estimate=entries)


# ----------------------------------------------------------------------
# modules


class GModule:
    """A finitely generated Z[G]-module.

    The underlying abelian group is presented on `rank` generators with
    orders `orders`, those of `underlying` (`FGAbelianGroup.orders`).
    `gen_action` maps each group generator to an integer matrix acting on
    coordinates from the left; any other element acts by one product
    per element down the group's steps (`FiniteGroup.walk`).
    """

    def __init__(self, group: FiniteGroup, underlying: FGAbelianGroup,
                 gen_action: dict, name: str = ""):
        self.group = group
        self.underlying = underlying
        self.orders = underlying.orders
        self.rank = underlying.rank
        self.name = name
        self.gen_action = {g: [row[:] for row in m]
                           for g, m in gen_action.items()}
        for g in group.generators:
            if g not in self.gen_action:
                raise ValueError("action matrix missing for a generator")
        self._gen_mats = [reduce_rows(self.gen_action[s], self.orders)
                          for s in group.generators]
        self._act_cache: dict = {group.identity: identity_matrix(self.rank)}
        self._right_cache: dict = {}
        self._complexes: dict = {}      # (kind, BarBudget) -> complex

    # -- the action

    def act(self, g):
        """Left-action matrix of g: act(x s_i) = act(x) act(s_i)."""
        return self.group.walk(g, self._act_cache, self._act_step)

    def _act_step(self, mat, x, i):
        return product_mod(mat, self._gen_mats[i], self.orders)

    def act_right(self, g):
        """Right-action matrix: m.g = g^{-1}.m."""
        cached = self._right_cache.get(g)
        if cached is None:
            cached = self.act(self.group.inv(g))
            self._right_cache[g] = cached
        return cached

    def verify_action(self) -> None:
        """Check the action descends to the presentation and is a
        homomorphism: every relator word of the group, and s s^-1 for each
        generator s, acts as 1, letter s^-1 acting by act(s^-1).  Then
        act(s^-1) inverts act(s), so the action of the free group factors
        through G, and act, the product along the steps, is that map."""
        for m in self._gen_mats:
            # relation columns must be preserved: o_j * (col j) = 0 in M
            for j, oj in enumerate(self.orders):
                if not oj:
                    continue
                for i, oi in enumerate(self.orders):
                    v = oj * m[i][j]
                    if (v % oi if oi else v) != 0:
                        raise ValueError(
                            "action does not descend to the presentation")
        G, one = self.group, identity_matrix(self.rank)
        images = dict(enumerate(self._gen_mats, 1))
        images.update((-i, self.act_right(s)) for i, s in
                      enumerate(G.generators, 1))
        for word in G.relators() + [(i, -i) for i in images if i > 0]:
            value = reduce(lambda a, x: product_mod(a, images[x],
                                                    self.orders), word, one)
            if not rows_congruent(value, one, self.orders):
                raise ValueError("action is not a homomorphism")

    def content_hash(self) -> str:
        blob = {
            "elements": [repr(e) for e in self.group.elements],
            "orders": self.orders,
            "action": [[repr(g), m] for g, m in
                       sorted(self.gen_action.items(), key=lambda kv: repr(kv[0]))],
        }
        return hashlib.sha256(
            json.dumps(blob, sort_keys=True).encode()).hexdigest()[:16]


def trivial_module(group: FiniteGroup, rank: int = 1,
                   torsion: tuple = ()) -> GModule:
    under = FGAbelianGroup(rank - len(torsion), tuple(torsion))
    ident = identity_matrix(under.rank)
    return GModule(group, under,
                   {g: ident for g in group.generators}, name="trivial")


def permutation_module(group: FiniteGroup, n: int) -> GModule:
    """Z^n for a group of permutation tuples acting by g.e_j = e_{g(j)}."""
    action = {}
    for g in group.generators:
        m = [[0] * n for _ in range(n)]
        for j in range(n):
            m[g[j]][j] = 1
        action[g] = m
    return GModule(group, FGAbelianGroup(n), action, name=f"perm{n}")


# ----------------------------------------------------------------------
# presented chain complexes: the free resolutions and the mapping cone


class PresentedComplex:
    """A chain complex whose level i is the abelian group presented on
    level_size(i) generators, row r of order row_orders(i)[r] (0 = Z),
    for i >= -1: level -1 is Z for an augmented complex, else 0.

    Subclasses give level_size(i), row_orders(i) and _build(i), the
    boundary d_i; boundary(i) builds each level once and keeps it.
    homology(i), {v : d v = 0} / im d modulo the orders, checks d^2 = 0
    on copies of levels 0..i+1, cancels their unit pairs and hands the
    reduced pair, if level i is left, to `presented_subquotient`; the
    group keeps the transport of its level.  The largest reduction is
    kept while a lower degree may read it, and each group per degree.
    """

    kind = "complex"

    def __init__(self):
        self._boundaries: dict[int, SparseCols] = {}
        self._homology: dict[int, Subquotient] = {}
        self._reduced = None    # (top, levels, row orders, transports)

    def boundary(self, i) -> SparseCols:
        """d_i : C_i -> C_{i-1} as a SparseCols matrix, built once."""
        if i in self._boundaries:
            return self._boundaries[i]
        # threads that race for one level keep the first copy built
        return self._boundaries.setdefault(i, self._build(i))

    def _level(self, i) -> SparseCols:
        """A copy of d_i that the reduction may overwrite."""
        d = self.boundary(i)
        return SparseCols(d.nrows, [dict(c) for c in d.cols])

    def homology(self, i) -> Subquotient:
        if i in self._homology:
            return self._homology[i]
        red, top = self._reduced, i + 1
        if red is None or red[0] < top:
            # level top first: it is the largest one, which a budget refuses
            ds = [self._level(p) for p in range(top, -1, -1)][::-1]
            orders = [self.row_orders(p - 1) for p in range(top + 1)]
            for p in range(top):
                try:
                    check_composable(ds[p], ds[p + 1], orders[p])
                except ValueError as exc:
                    raise AssertionError(f"{self.kind}: d^2 != 0") from exc
            red = self._reduced = (top, ds, orders,
                                   reduce_unit_pairs(ds, orders))
        _, ds, orders, transports = red
        if ds[i].ncols:
            h = presented_subquotient(ds[i], ds[i + 1], orders[i],
                                      orders[i + 1])
        else:
            h = Subquotient(0, FGAbelianGroup(0), [], [], [], [], [])
        h.ambient_dim, h.transport = self.level_size(i), transports[i]
        h = self._homology.setdefault(i, h)
        if all(j in self._homology for j in range(red[0])):
            self._reduced = None    # no lower degree is left to read it
        return h


class FreeResolution(PresentedComplex):
    """A free resolution of Z over Z[G], tensored with M; take it from
    `resolve`.  A subclass lists its Z[G]-cells (module docstring):
    cells(i), differential(i) and cell_map(i, other, group_map, mat).

    Level i has rank * cells(i) rows, of the orders of the module
    generators; its boundary is built on first use, after the budget
    admits it.  chain_map(i, other, group_map, mat) is the map
    C_i(self) -> C_i(other) over a homomorphism group_map and a module
    map mat equivariant over it, which induces the map on homology.
    """

    top = None          # the highest chain level; None: unbounded

    def __init__(self, M: GModule, budget: BarBudget):
        super().__init__()
        self.M = M
        self.G = M.group
        self.budget = budget

    def level_size(self, i) -> int:
        return self.M.rank * self.cells(i) if i >= 0 else 0

    def row_orders(self, i):
        return self.M.orders * self.cells(i) if i >= 0 else []

    def _build(self, i) -> SparseCols:
        if i < 0 or self.top is not None and i > self.top:
            raise ValueError("boundary index out of range")
        if i == 0:
            return SparseCols.zero(0, self.level_size(0))
        self.budget.check(self, i)
        return _tensor(self.differential(i), self.M.rank, self.M.rank,
                       self.level_size(i - 1))

    def homology(self, i) -> Subquotient:
        """H_i(G; M), which |G| kills for i >= 1 (transfer): asserted,
        also under python -O."""
        h, n = super().homology(i), self.G.order
        if i and (h.group.free_rank or any(n % d for d in h.group.torsion)):
            raise AssertionError(
                f"{self.kind}: H_{i} = {h.group} is not killed by |G| = {n}")
        return h

    def chain_map(self, i, other: "FreeResolution", group_map,
                  mat) -> SparseCols:
        return _tensor(self.cell_map(i, other, group_map, mat),
                       self.M.rank, other.M.rank, other.level_size(i))


def _tensor(terms, rank_src, rank_tgt, nrows) -> SparseCols:
    """The matrix of a map of free Z[G]-modules tensored with modules.

    terms yields, for each source cell s in order, the terms (t, c, mat)
    of its image: m e_s |-> sum c (mat.m) e_t, mat None for the identity.
    Generator j of cell s is column s * rank_src + j, and generator a of
    target cell t is row t * rank_tgt + a.
    """
    cols = []
    for image in terms:
        for j in range(rank_src):
            col: dict[int, int] = {}
            for t, c, mat in image:
                first = t * rank_tgt
                if mat is None:
                    col[first + j] = col.get(first + j, 0) + c
                    continue
                for a, row in enumerate(mat):
                    if row[j]:
                        col[first + a] = col.get(first + a, 0) + c * row[j]
            cols.append({k: v for k, v in col.items() if v}
                        if 0 in col.values() else col)
    return SparseCols(nrows, cols)


class BarComplex(FreeResolution):
    """Normalized bar complex of (G, M): the cells of level i are the bar
    tuples [g1|...|gi] of non-identity elements, in `tuple_index` order."""

    kind = "bar complex"

    def __init__(self, M: GModule, budget: BarBudget):
        super().__init__(M, budget)
        self.nontriv = [g for g in self.G.elements
                        if g != self.G.identity]
        self.pos = {g: i for i, g in enumerate(self.nontriv)}

    def cells(self, i) -> int:
        return len(self.nontriv) ** i

    def _tuples(self, i):
        if i == 0:
            yield ()
            return
        for prefix in self._tuples(i - 1):
            for g in self.nontriv:
                yield prefix + (g,)

    def tuple_index(self, bar) -> int:
        g1 = len(self.nontriv)
        t = 0
        for g in bar:
            t = t * g1 + self.pos[g]
        return t

    def differential(self, i):
        ident, mul = self.G.identity, self.G.mul
        index, right = self.tuple_index, self.M.act_right
        last = -1 if i % 2 else 1
        for bar in self._tuples(i):
            # leading face, twisted by g1; middle faces; trailing face
            terms = [(index(bar[1:]), 1, right(bar[0]))]
            for s in range(1, i):
                prod = mul(bar[s - 1], bar[s])
                if prod != ident:
                    merged = bar[:s - 1] + (prod,) + bar[s + 1:]
                    terms.append((index(merged), -1 if s % 2 else 1, None))
            terms.append((index(bar[:-1]), last, None))
            yield terms

    def cell_map(self, i, other: "BarComplex", group_map, mat):
        """m [g1|...|gi] |-> mat.m [group_map(g1)|...|group_map(gi)]."""
        for bar in self._tuples(i):
            yield [(other.tuple_index(tuple(map(group_map, bar))), 1, mat)]


class PresentationComplex(FreeResolution):
    """Levels 0..2 of the cellular chains of the universal cover of the
    presentation complex of G, tensored with M.

    The generators S of G are the cells of level 1, and the relator words
    of `FiniteGroup.relators` the cells of level 2, d_2 their Fox
    derivatives (`word_fox`).  The words present G, so the cover is
    simply connected, C_2 -> C_1 -> C_0 -> Z is exact, and H_0, H_1 and
    the maps they induce are those of any resolution.  The chain map f_1
    is the Fox derivative of a word of each image (`cell_map`).
    """

    kind = "presentation complex"
    top = 2

    def cells(self, i) -> int:
        if not 0 <= i <= self.top:
            raise ValueError(f"the {self.kind} has levels 0..{self.top}")
        return len(self.G.relators()) if i == 2 else \
            (1, len(self.G.generators))[i]

    def word_fox(self, word) -> dict:
        """{t: matrix of m |-> m.(dw/ds_t)} for a word w in the
        generators, summed per generator: a letter s_t after the prefix p
        adds p, and a letter s_t^{-1} subtracts p s_t^{-1}."""
        G, right = self.G, self.M.act_right
        d, p = {}, G.identity
        for x in word:
            t = abs(x) - 1
            if x > 0:
                m, p = right(p), G.times(p, x)
            else:
                p = G.times(p, x)
                m = [[-v for v in row] for row in right(p)]
            d[t] = _mat_add(d[t], m) if t in d else m
        return d

    def differential(self, i):
        if i == 1:
            # d_1(m e_s) = m.s - m
            for s in self.G.generators:
                yield [(0, 1, self.M.act_right(s)), (0, -1, None)]
            return
        for word in self.G.relators():
            yield [(t, 1, m) for t, m in self.word_fox(word).items()]

    def cell_map(self, i, other: "PresentationComplex", group_map, mat):
        """f_0 = mat and f_1(m e_s) = sum_t (mat.m).(dw/dt) e_t, with w
        the word of group_map(s) down the steps of other's group
        (`FiniteGroup.word`).  Any word of it gives d f_1 = f_0 d, by the
        fundamental formula of Fox calculus, sum_t (dw/dt)(t - 1) = w - 1."""
        if i == 0:
            yield [(0, 1, mat)]
        elif i == 1:
            word = other.G.word
            for s in self.G.generators:
                yield [(t, 1, mat_mul(m, mat)) for t, m in
                       other.word_fox(word(group_map(s))).items()]
        else:
            raise ValueError(
                f"the {self.kind} has chain maps in levels 0 and 1 only")


def _mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def resolve(M: GModule, budget: BarBudget, top: int) -> FreeResolution:
    """The one resolution of M under budget that reaches chain level top:
    the presentation complex for top <= 2, the bar complex otherwise.  It
    is kept on M, keyed by kind and budget, so that every caller shares
    its levels and homology."""
    small = top <= PresentationComplex.top
    cls = PresentationComplex if small else BarComplex
    key = (cls.kind, budget)
    cx = M._complexes.get(key)
    if cx is None:
        cx = M._complexes.setdefault(key, cls(M, budget))
    return cx


def bar_homology(M: GModule, i: int,
                 budget: BarBudget | None = None) -> FGAbelianGroup:
    """H_i(G; M), from the smallest resolution that reaches chain level
    i + 1."""
    return resolve(M, budget or BarBudget(), top=i + 1).homology(i).group


def coinvariants(M: GModule) -> FGAbelianGroup:
    """M_G = H_0(G; M) = M / span{m.s - m : s a generator of G}."""
    return resolve(M, BarBudget(), top=1).homology(0).group


def hurewicz(M: GModule, budget: BarBudget | None = None):
    """H_1(G; Z) = G^ab with the Hurewicz map G -> H_1(G; Z), for M the
    trivial module Z over G.  The map takes g to the class of the letter
    counts of its word w(g) down the group's steps (`FiniteGroup.word`),
    which are the Fox derivatives of w(g) on Z: a 1-cycle of the
    presentation complex (whose d_1 vanishes on Z), in the canonical
    coordinates of H_1.  Returns (H_1 as a Subquotient, the map)."""
    if M.orders != [0] or any(a != [[1]] for a in M.gen_action.values()):
        raise ValueError("the Hurewicz map needs the trivial module Z")
    cx = resolve(M, budget or BarBudget(), top=2)
    h1, word = cx.homology(1), M.group.word
    return h1, lambda g: h1.project(Counter(x - 1 for x in word(g)))


# ----------------------------------------------------------------------
# chain maps, stabilization and relative homology


@dataclass
class StabilizationSetup:
    """The pair (phi: G_small -> G_big, s: M_small -> M_big) inducing a
    chain map of resolutions.

    phi is given on generators: gen_images holds the images of
    small.group.generators in order, and phi(g) is their product along
    the steps of g (`FiniteGroup.walk`).  restrict(h) is the first
    diagonal block of h in G_big, None if h is not block-diagonal: a
    homomorphism rho on the block-diagonal elements.  verify() certifies
    that phi is an injective homomorphism and that the integer matrix
    s_matrix is equivariant over it, i.e.
    s . act_small(g) == act_big(phi(g)) . s  on the presentations.
    The chain maps are kept per level and pair of resolutions, and the
    mapping cones per pair of resolutions, one copy for every grid cell
    and thread that reads them.
    """

    small: GModule
    big: GModule
    gen_images: tuple
    s_matrix: list
    restrict: Callable

    def __post_init__(self):
        self._phi = {self.small.group.identity: self.big.group.identity}
        self._maps: dict = {}
        self._cones: dict = {}

    def phi(self, g):
        return self.small.group.walk(g, self._phi, self._phi_step)

    def _phi_step(self, value, x, i):
        return self.big.group.mul(value, self.gen_images[i])

    def verify(self) -> None:
        """Raise AssertionError (kept under python -O) unless phi is an
        injective homomorphism, ValueError unless s is equivariant over
        it.  The generator images satisfy every relator word of the small
        group, so the map they define on the free group factors through
        it; phi, their product along the steps, is that map.  Each image
        is block-diagonal with first block its generator, so rho o phi is
        the identity: a left inverse, with no pass over the elements."""
        Gs, big = self.small.group, self.big.group
        images = dict(enumerate(self.gen_images, 1))
        images.update((-i, big.inv(s)) for i, s in list(images.items()))
        for word in Gs.relators():
            if reduce(lambda g, x: big.mul(g, images[x]), word,
                      big.identity) != big.identity:
                raise AssertionError("phi is not a homomorphism")
        if any(self.restrict(h) != s
               for s, h in zip(Gs.generators, self.gen_images)):
            raise AssertionError("phi is not injective")
        check_equivariant(self.s_matrix, self.small, self.big, self.phi,
                          "s is not equivariant over phi")

    def chain_map(self, i, cx_small, cx_big) -> SparseCols:
        """C_i(G_small; M_small) -> C_i(G_big; M_big) between two
        resolutions of one kind, built once."""
        key = (i, cx_small, cx_big)
        if key not in self._maps:
            self._maps.setdefault(key, cx_small.chain_map(
                i, cx_big, self.phi, self.s_matrix))
        return self._maps[key]

    def cone(self, budget: BarBudget, top: int) -> "MappingCone":
        """The mapping cone of the chain map between the resolutions
        that reach level top, built once."""
        key = (resolve(self.small, budget, top),
               resolve(self.big, budget, top))
        if key not in self._cones:
            self._cones.setdefault(key, MappingCone(self, budget, top))
        return self._cones[key]


def check_equivariant(s, src: GModule, dst: GModule, phi, message) -> None:
    """Raise ValueError(message) unless s . src.act(g) == dst.act(phi(g)) . s
    on the presentation of dst, for every generator g of src's group."""
    for g in src.group.generators:
        if not rows_congruent(mat_mul(s, src.act(g)),
                              mat_mul(dst.act(phi(g)), s), dst.orders):
            raise ValueError(message)


def _stabilization_verdict(M, hs: Subquotient, hb: Subquotient) -> dict:
    """Epi/iso verdict of the induced map M : hs -> hb."""
    verdict = classify_induced(M, hs.group.orders, hb.group.orders)
    return {
        "is_epi": verdict["is_epi"],
        "is_iso": verdict["is_iso"],
        "source": hs.group,
        "target": hb.group,
        "matrix": M,
    }


def stabilization_status(setup: StabilizationSetup, i: int,
                         budget: BarBudget | None = None) -> dict:
    """Classify H_i(G_small; M_small) -> H_i(G_big; M_big)."""
    budget = budget or BarBudget()
    cx_s = resolve(setup.small, budget, top=i + 1)
    cx_b = resolve(setup.big, budget, top=i + 1)
    # the big group first: it is the one a budget refuses
    hb = cx_b.homology(i)
    hs = cx_s.homology(i)
    f = setup.chain_map(i, cx_s, cx_b)
    return _stabilization_verdict(induced_matrix(f, hs, hb), hs, hb)


class MappingCone(PresentedComplex):
    """Cone of the chain map of a StabilizationSetup between the
    resolutions that reach level top.

    Cone_i = C_{i-1}(small) (+) C_i(big), d(x, y) = (-dx, f(x) + dy).
    H_i(Cone) is the relative homology of the stabilization pair; it
    reads the levels up to i + 1 only, and f up to level i.  Take a cone
    from `StabilizationSetup.cone` to share its levels.
    """

    kind = "mapping cone"

    def __init__(self, setup: StabilizationSetup, budget: BarBudget,
                 top: int):
        super().__init__()
        self.setup = setup
        self.cx_s = resolve(setup.small, budget, top)
        self.cx_b = resolve(setup.big, budget, top)

    def level_size(self, i) -> int:
        return self.offset(i) + self.cx_b.level_size(i)

    def offset(self, i):
        """Rows of the small summand C_{i-1}(small) in Cone_i."""
        return self.cx_s.level_size(i - 1) if i >= 1 else 0

    def row_orders(self, i):
        small = self.cx_s.row_orders(i - 1) if i >= 1 else []
        return small + self.cx_b.row_orders(i)

    def _build(self, i) -> SparseCols:
        ns_out = self.offset(i - 1)
        cols = []
        db = self.cx_b.boundary(i)
        if i >= 1:
            ds = self.cx_s.boundary(i - 1)
            f = self.setup.chain_map(i - 1, self.cx_s, self.cx_b)
            for c in range(self.cx_s.level_size(i - 1)):
                col = {r: -v for r, v in ds.cols[c].items()}
                col.update((ns_out + r, v) for r, v in f.cols[c].items())
                cols.append(col)
        for c in range(self.cx_b.level_size(i)):
            cols.append({ns_out + r: v for r, v in db.cols[c].items()})
        return SparseCols(self.level_size(i - 1), cols)


def relative_homology(setup: StabilizationSetup, i: int,
                      budget: BarBudget | None = None) -> FGAbelianGroup:
    """Rel_i = H_i of the mapping cone of the stabilization chain map."""
    return setup.cone(budget or BarBudget(), top=i + 1).homology(i).group


def les_exact_at_rel(setup: StabilizationSetup, i: int,
                     budget: BarBudget | None = None) -> dict:
    """Check exactness of H_i(big) -> Rel_i -> H_{i-1}(small) -> H_{i-1}(big)
    at the Rel_i and H_{i-1}(small) nodes, plus j o f = 0 at H_i(big).

    Returns the computed groups and per-node defects, the `map_homology`
    of each node (all trivial iff the long exact sequence holds at these
    nodes), together with the verdict
    of stabilization_status read from the same induced map f_*:
    is_epi, is_iso, source, target and matrix.
    """
    cone = setup.cone(budget or BarBudget(), top=i + 1)
    cx_s, cx_b = cone.cx_s, cone.cx_b
    h_b_i = cx_b.homology(i)
    rel_i = cone.homology(i)
    h_s_im1 = cx_s.homology(i - 1) if i >= 1 else None
    h_b_im1 = cx_b.homology(i - 1) if i >= 1 else None
    h_s_i = cx_s.homology(i)

    # j: C_i(big) -> Cone_i is the inclusion into the second summand
    off = cone.offset(i)
    j_cols = [{off + c: 1} for c in range(cx_b.level_size(i))]
    j_amb = SparseCols(cone.level_size(i), j_cols)
    Mj = induced_matrix(j_amb, h_b_i, rel_i)

    Mf = induced_matrix(setup.chain_map(i, cx_s, cx_b), h_s_i, h_b_i)

    out = {
        "H_i_small": h_s_i.group, "H_i_big": h_b_i.group,
        "Rel_i": rel_i.group,
        "defects": {},
        **_stabilization_verdict(Mf, h_s_i, h_b_i),
    }

    def defect(f, g, a, b, c):
        return map_homology(f, g, a.group.orders, b.group.orders,
                            c.group.orders).group
    # exactness at H_i(big): ker j = im f
    out["defects"]["at_H_i_big"] = defect(Mf, Mj, h_s_i, h_b_i, rel_i)
    if i >= 1:
        # connecting map: Cone_i -> C_{i-1}(small) is (x, y) |-> x
        d_amb = SparseCols(cx_s.level_size(i - 1), [
            {c: 1} if c < off else {} for c in range(cone.level_size(i))])
        Md = induced_matrix(d_amb, rel_i, h_s_im1)
        Mf_prev = induced_matrix(setup.chain_map(i - 1, cx_s, cx_b),
                                 h_s_im1, h_b_im1)
        out["H_im1_small"] = h_s_im1.group
        out["H_im1_big"] = h_b_im1.group
        out["defects"]["at_Rel_i"] = defect(Mj, Md, h_b_i, rel_i, h_s_im1)
        out["defects"]["at_H_im1_small"] = defect(Md, Mf_prev, rel_i,
                                                  h_s_im1, h_b_im1)
    out["exact"] = all(d.is_trivial() for d in out["defects"].values())
    return out
