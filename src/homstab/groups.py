"""Concrete finite groups with a deterministic total element order.

Elements are hashable canonical tuples; three backends are provided:
permutations (tuple of images, 0-indexed), matrices over Z/m (tuple of
row tuples), and wreath products base ≀ Sym(n) (pair of a label tuple and
a permutation).  Enumeration respects a configurable order budget and
raises :class:`BudgetExceeded`, with estimate |G|, past it; Sym(n) and
base wr Sym(n) are enumerated only when their elements are read.  No
group theory beyond enumeration, the steps down to the identity (closed
forms, or the spanning tree of the Cayley graph) and relator words lives
here: G^ab is H_1(G; Z), which `homology_engine` computes.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache, reduce

from .exact_linalg import xgcd

DEFAULT_GROUP_BUDGET = 5040


class BudgetExceeded(Exception):
    """A budget refuses a computation: a group too large to enumerate, or
    a chain level whose boundary matrix has too many entries.  estimate
    is the refused size (|G|, or the entries).  Not a ValueError, so that
    a refusal is never taken for invalid input."""

    def __init__(self, message, estimate):
        super().__init__(message)
        self.estimate = estimate


def _check_order(name, order, budget) -> None:
    """Refuse to enumerate the group name of the given order past budget."""
    if order > budget:
        raise BudgetExceeded(f"|{name}| = {order} exceeds budget {budget}",
                             estimate=order)


class FiniteGroup:
    """A finite group given by explicit elements and operations.

    Elements are canonical hashable values totally ordered by `sorted`;
    the sorted tuple fixes a deterministic indexing used everywhere
    downstream (canonical coset representatives, chain bases, caches).
    Sym(n) and base wr Sym(n) pass their `order` and, as `elements`, a
    function listing them: `elements` and `index` are built on first
    read, which refuses past `budget` (`BudgetExceeded`, estimate |G|).

    `generators` must generate the group.  Module actions, coinvariants
    and homomorphism checks cost one unit per generator, so every group
    here passes a small set: Coxeter transpositions for Sym(n), 1 for
    Z/m, transvections and diagonal units for GL_n(Z/m), and base
    generators in slot 0 plus Coxeter transpositions for base wr Sym(n).
    Without `generators` every non-identity element is a generator.

    `relators` are words presenting G on them, as signed 1-based
    generator indices (the convention of `pi1.todd_coxeter_trivial`):
    Sym(n), base wr Sym(n) and Z/m pass short ones, and without them
    `relators()` are the |G| (|S| - 1) + 1 Cayley words.

    `walk` is the one way down to an element: module actions and
    homomorphisms given on generators are read on elements by it, one
    step g -> (parent, i), g = parent s_i, per element, and `word(g)`
    lists the letters of those steps, which Fox derivatives and the
    Hurewicz map read.  Sym(n) and base wr Sym(n) pass `step` in closed
    form; other groups step along `tree()`, the kept BFS spanning tree of
    the Cayley graph, which is also the oracle of the closed forms.
    """

    def __init__(self, elements, mul, inv, identity, name="G",
                 generators=None, relators=None, step=None, order=None,
                 budget=None):
        self.mul = mul
        self.inv = inv
        self.identity = identity
        self.name = name
        if order is None:
            self._enumerate(elements)
        else:
            self.order, self._list, self._budget = order, elements, budget
        self.generators = tuple(generators) if generators is not None else \
            tuple(g for g in self.elements if g != identity)
        self._step = step or self._tree_step
        self._tree, self._times = None, {}
        # given words are checked here, once; Cayley words on first read
        self._relators = None if relators is None else \
            [tuple(w) for w in relators]
        for w in self._relators or ():
            if reduce(self.times, w, identity) != identity:
                raise ValueError(f"relator {w} does not hold in {name}")

    def _enumerate(self, elements) -> None:
        self.elements = tuple(sorted(elements))
        self.index = {g: i for i, g in enumerate(self.elements)}
        self.order = len(self.elements)
        assert self.identity in self.index

    def __getattr__(self, attr):
        # only reached for elements and index of a group built by formula,
        # before their first read
        if attr not in ("elements", "index") or "_list" not in vars(self):
            raise AttributeError(attr)
        _check_order(self.name, self.order, self._budget)
        self._enumerate(self._list())
        return vars(self)[attr]

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, g):
        return g in self.index

    def tree(self) -> dict:
        """The BFS spanning tree of the Cayley graph, {g: (parent, i)}
        with g = parent s_i and the identity mapped to None, in BFS order
        (parents first); computed once, after the group is enumerated.
        Deterministic: generators tried in order, frontier kept sorted."""
        if self._tree is not None:
            return self._tree
        order = len(self.elements)
        tree = {self.identity: None}
        frontier = [self.identity]
        while frontier:
            nxt = []
            for x in frontier:
                for i, s in enumerate(self.generators):
                    y = self.mul(x, s)
                    if y not in tree:
                        tree[y] = (x, i)
                        nxt.append(y)
            frontier = sorted(nxt)
        if len(tree) != order:
            raise ValueError("generators do not generate the group")
        self._tree = tree
        return tree

    def _tree_step(self, g):
        # the step of a group without a closed form: its tree edge, the
        # tree's own lookup from the first step on
        self._step = self.tree().__getitem__
        return self._step(g)

    def walk(self, g, memo: dict, step):
        """f(g) for f given by memo, holding f(identity), and f(x s_i) =
        step(f(x), x, i): up the steps to the nearest memoized element,
        then down, one step and memo entry per element (a loop: the tree
        of Z/m has depth m - 1)."""
        parent = self._step
        path = []
        while g not in memo:
            edge = parent(g)
            path.append((g, edge))
            g = edge[0]
        value = memo[g]
        for h, edge in reversed(path):
            value = memo[h] = step(value, *edge)
        return value

    def word(self, g) -> tuple:
        """The letters of g's path down its steps, as 1-based generator
        indices: g is the product of those generators in order."""
        return self.walk(g, {self.identity: ()}, lambda w, x, i: w + (i + 1,))

    def times(self, g, x):
        """g s_x, or g s_{-x}^{-1} for x < 0, kept: Cayley words share
        their prefixes, tree paths."""
        if (g, x) not in self._times:
            s = self.generators[abs(x) - 1]
            self._times[g, x] = self.mul(g, s if x > 0 else self.inv(s))
        return self._times[g, x]

    def relators(self) -> list:
        """The given relator words, each checked to be the identity in G
        (ValueError otherwise), or else `cayley_relators()`."""
        if self._relators is None:
            self._relators = self.cayley_relators()
        return self._relators

    def cayley_relators(self) -> list:
        """The words w(g) s_i w(g s_i)^{-1}, w(g) the tree path to g, one
        per edge (g, i) of the Cayley graph off the spanning tree, by g
        and then i: |G| (|S| - 1) + 1 words presenting G on any
        generating set.  Their steps are kept for `times`."""
        tree, w, times, out = self.tree(), {}, self._times, []
        for g, edge in tree.items():        # parents first
            w[g] = () if edge is None else w[edge[0]] + (edge[1] + 1,)
            if edge is not None:
                times[g, -edge[1] - 1] = edge[0]
        for g in self.elements:
            for i, s in enumerate(self.generators):
                gs = times[g, i + 1] = self.mul(g, s)
                if tree[gs] != (g, i):
                    out.append(w[g] + (i + 1,) +
                               tuple(-x for x in w[gs][::-1]))
        return out


# ------------------------------------------------------------------
# permutation backend


def perm_identity(n):
    return tuple(range(n))


def perm_mul(g, h):
    """(g h)(i) = g(h(i))"""
    return tuple(g[h[i]] for i in range(len(g)))


def perm_inv(g):
    out = [0] * len(g)
    for i, gi in enumerate(g):
        out[gi] = i
    return tuple(out)


def symmetric_order(n, budget=DEFAULT_GROUP_BUDGET) -> int:
    """|Sym(n)|, refused past budget as reading the elements of
    `symmetric_group` refuses it."""
    order = math.factorial(n)
    _check_order(f"Sym({n})", order, budget)
    return order


def symmetric_group(n, budget=DEFAULT_GROUP_BUDGET) -> FiniteGroup:
    """Sym(n) on the Coxeter transpositions, enumerated on the first read
    of its elements; its steps are `_descent_step`."""
    gens = [tuple_swap(n, i) for i in range(n - 1)] if n > 1 else []
    return FiniteGroup(lambda: itertools.permutations(range(n)), perm_mul,
                       perm_inv, perm_identity(n), name=f"Sym({n})",
                       generators=gens, relators=coxeter_relators(n),
                       step=_descent_step, order=math.factorial(n),
                       budget=budget)


def _descent_step(g):
    """(g s_i, i) for i the first right descent of g, g(i) > g(i+1):
    g s_i has one inversion fewer (Bjorner-Brenti, Combinatorics of
    Coxeter Groups, ch. 3)."""
    i = next(i for i in range(len(g) - 1) if g[i] > g[i + 1])
    return g[:i] + (g[i + 1], g[i]) + g[i + 2:], i


def coxeter_relators(n, shift=0) -> list:
    """The Coxeter presentation of Sym(n) on s_i = (i, i+1), letter
    shift + i + 1 (Moore, 1897): s_i^2, (s_i s_{i+1})^3 and (s_i s_j)^2
    for j >= i + 2."""
    s = [shift + i + 1 for i in range(n - 1)]
    return ([(a, a) for a in s] + [(a, b) * 3 for a, b in zip(s, s[1:])] +
            [(a, b) * 2 for i, a in enumerate(s) for b in s[i + 2:]])


def tuple_swap(n, i):
    """Adjacent transposition (i, i+1) as a permutation tuple."""
    out = list(range(n))
    out[i], out[i + 1] = out[i + 1], out[i]
    return tuple(out)


def perm_block_sum(g, h):
    """g acting on the first block, h shifted to the second."""
    m = len(g)
    return tuple(g) + tuple(x + m for x in h)


def perm_braiding(m, n):
    """Block swap X^m + Y^n -> Y^n + X^m as a permutation of m+n points:
    the first m points move past the last n."""
    return tuple(i + n for i in range(m)) + tuple(i for i in range(n))


# ------------------------------------------------------------------
# matrices over Z/m


def gln_order(n, m) -> int:
    """|GL_n(Z/m)| by multiplicativity over prime powers."""
    out = 1
    for p, k in _factorize(m):
        gl_p = 1
        for i in range(n):
            gl_p *= p ** n - p ** i
        out *= p ** ((k - 1) * n * n) * gl_p
    return out


def _factorize(m):
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            k = 0
            while m % d == 0:
                m //= d
                k += 1
            out.append((d, k))
        d += 1
    if m > 1:
        out.append((m, 1))
    return out


def mat_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n))
                 for i in range(n))


def mat_mul_mod(a, b, m):
    """a b mod m for n x n matrices a and b, n = len(a), by the product
    that _mat_mul_code(n, m) writes out.  A b of another shape raises
    ValueError."""
    return _mat_mul_code(len(a), m)(a, b)


def _tuple_source(items):
    # a trailing comma after every item: "()", "(x, )", "(x, y, )"
    return "(" + "".join(f"{x}, " for x in items) + ")"


@lru_cache(maxsize=None)
def _mat_mul_code(n, m):
    """The n x n product mod m written out entry by entry, compiled on
    its first use and kept per (n, m), the way dataclasses writes
    __init__: the rows of both operands are unpacked into locals, so an
    entry costs n multiplications, n - 1 additions and one reduction,
    with no loop, zip or call.  n and m reach the source only through
    the integer format :d, which refuses anything but an integer."""
    a = [[f"a{i}_{k}" for k in range(n)] for i in range(n)]
    b = [[f"b{k}_{j}" for j in range(n)] for k in range(n)]

    def entry(i, j):
        terms = " + ".join(f"{a[i][k]} * {b[k][j]}" for k in range(n))
        return f"({terms}) % {m:d}"

    rows = (_tuple_source(entry(i, j) for j in range(n)) for i in range(n))
    source = (f"def mat_mul(a, b):\n"
              f"    {_tuple_source(map(_tuple_source, a))} = a\n"
              f"    {_tuple_source(map(_tuple_source, b))} = b\n"
              f"    return {_tuple_source(rows)}\n")
    namespace = {}
    exec(compile(source, f"<mat_mul {n:d}x{n:d} mod {m:d}>", "exec"),
         namespace)
    return namespace["mat_mul"]


def mat_det_mod(a, m):
    """det(a) mod m by fraction-free (Bareiss) elimination over Z: every
    division is exact, so the determinant is exact before the reduction."""
    n = len(a)
    if n == 0:
        return 1 % m
    rows = [list(r) for r in a]
    sign, prev = 1, 1
    for k in range(n - 1):
        if not rows[k][k]:
            i = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if i is None:
                return 0
            rows[k], rows[i] = rows[i], rows[k]
            sign = -sign
        rk = rows[k]
        piv = rk[k]
        for ri in rows[k + 1:]:
            t = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * piv - t * rk[j]) // prev
        prev = piv
    return sign * rows[-1][-1] % m


def mat_inv_mod(a, m):
    """Inverse by one fraction-free (Bareiss) Gauss-Jordan pass on [a | I]:
    every division is exact, and it ends at [d I | d a^-1] with d the
    determinant of a with its rows permuted, so the right half is the
    adjugate up to sign and a^-1 = that half times d^-1 mod m.  O(n^3)
    steps, where n^2 cofactor determinants take O(n^5)."""
    n = len(a)
    rows = [list(r) + [int(i == j) for j in range(n)]
            for i, r in enumerate(a)]
    prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if rows[i][k]), None)
        if p is None:       # singular over Z: det(a) = 0
            prev = 0
            break
        rows[k], rows[p] = rows[p], rows[k]
        rk = rows[k]
        piv = rk[k]
        for i, ri in enumerate(rows):
            if i != k:
                t = ri[k]
                rows[i] = [(piv * x - t * y) // prev for x, y in zip(ri, rk)]
        prev = piv
    g, dinv, _ = xgcd(prev, m)
    if g != 1:
        raise ValueError("matrix not invertible mod m")
    return tuple(tuple(x * dinv % m for x in r[n:]) for r in rows)


def general_linear_group(n, m, budget=DEFAULT_GROUP_BUDGET) -> FiniteGroup:
    """GL_n(Z/m) (m need not be prime) as explicit matrices."""
    order = gln_order(n, m)
    _check_order(f"GL_{n}(Z/{m})", order, budget)
    elems = []
    for flat in itertools.product(range(m), repeat=n * n):
        a = tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n))
        g, _, _ = xgcd(mat_det_mod(a, m), m)
        if g == 1:
            elems.append(a)
    assert len(elems) == order
    mul = lambda a, b: mat_mul_mod(a, b, m)
    inv = lambda a: mat_inv_mod(a, m)
    return FiniteGroup(elems, mul, inv, mat_identity(n),
                       name=f"GL({n},Z/{m})",
                       generators=gln_generators(n, m))


def gln_generators(n, m):
    """Transvections E_ij(1), i != j, then diag(u, 1, ..., 1) for each
    unit u != 1: the E_ij(1) generate SL_n(Z/m) (Z/m is semilocal), and
    the diagonal units reach every determinant."""
    def set_entry(i, j, v):
        return tuple(tuple(v if (r, c) == (i, j) else int(r == c)
                           for c in range(n)) for r in range(n))
    gens = [set_entry(i, j, 1) for i in range(n) for j in range(n) if i != j]
    if n:
        gens += [set_entry(0, 0, u) for u in range(2, m)
                 if math.gcd(u, m) == 1]
    return gens


def mat_block_sum(a, b):
    """a and b as the diagonal blocks of one matrix; a 0x0 side gives
    the other operand itself."""
    if not b:
        return a
    if not a:
        return b
    zeros_a, zeros_b = (0,) * len(a), (0,) * len(b)
    return tuple([row + zeros_b for row in a] + [zeros_a + row for row in b])


@lru_cache(maxsize=None)
def mat_braiding(m, n):
    """Permutation matrix swapping the first m coordinates past the
    last n (matches perm_braiding acting on basis vectors).  Built once
    per (m, n); the result is a tuple of tuples, so sharing it is safe."""
    p = perm_braiding(m, n)
    size = m + n
    return tuple(tuple(1 if p[j] == i else 0 for j in range(size))
                 for i in range(size))


# ------------------------------------------------------------------
# wreath products base ≀ Sym(n)


def wreath_identity(base, n):
    return (tuple([base.identity] * n), perm_identity(n))


def wreath_mul(base):
    def mul(g, h):
        a, s = g
        b, t = h
        # (a, s)(b, t) = (a * s.b, s t) with (s.b)_i = b_{s^{-1}(i)}
        sinv = perm_inv(s)
        lab = tuple(base.mul(a[i], b[sinv[i]]) for i in range(len(a)))
        return (lab, perm_mul(s, t))
    return mul


def wreath_inv(base):
    def inv(g):
        a, s = g
        sinv = perm_inv(s)
        # ((a,s)^-1)_i = a_{s(i)}^-1 so that labels cancel pointwise
        lab = tuple(base.inv(a[s[i]]) for i in range(len(a)))
        return (lab, sinv)
    return inv


def wreath_order(base: FiniteGroup, n, budget=DEFAULT_GROUP_BUDGET) -> int:
    """|base wr Sym(n)|, refused past budget as reading the elements of
    `wreath_group` refuses it."""
    order = base.order ** n * math.factorial(n)
    _check_order(f"{base.name} wr Sym({n})", order, budget)
    return order


def wreath_group(base: FiniteGroup, n, budget=DEFAULT_GROUP_BUDGET) -> FiniteGroup:
    """base wr Sym(n), enumerated on the first read of its elements; its
    steps are `_wreath_step`."""
    def elements():
        return [(labels, p)
                for labels in itertools.product(base.elements, repeat=n)
                for p in itertools.permutations(range(n))]
    ident = wreath_identity(base, n)
    labels, perm = ident
    gens = [((s,) + labels[1:], perm) for s in base.generators] if n else []
    gens += [(labels, tuple_swap(n, i)) for i in range(n - 1)]
    # the base's words on slot 0, the Coxeter words, s_j (j >= 1) fixing
    # slot 0, and slots 0 and 1 = s_0 (slot 0) s_0 commuting
    k = len(gens) - max(n - 1, 0)
    b, s = range(1, k + 1), range(k + 1, len(gens) + 1)
    words = list(base.relators()) if n else []
    words += coxeter_relators(n, k)
    words += [(x, t, -x, -t) for x in b for t in s[1:]]
    words += [(x, s[0], y, s[0], -x, -s[0], -y, -s[0])
              for x in b for y in b] if n > 1 else []
    return FiniteGroup(elements, wreath_mul(base), wreath_inv(base), ident,
                       name=f"{base.name} wr Sym({n})", generators=gens,
                       relators=words, step=_wreath_step(base, k),
                       order=base.order ** n * math.factorial(n),
                       budget=budget)


def _wreath_step(base: FiniteGroup, k: int):
    """The step of base wr Sym(n) on g = (a, s), k base generators before
    the transpositions, c_j = a[s[j]] the label at slot j: if c_0 != e,
    c_0 takes the base's step; else the least labelled slot j >= 1 moves
    to j - 1 (letter s_{j-1}); else s takes its descent step.  (sum of
    base depths, sum of j + 1 over labelled slots j, length of s) falls
    at each step."""
    e = base.identity

    def step(g):
        a, s = g
        if a[s[0]] != e:
            parent, i = base._step(a[s[0]])
            return (a[:s[0]] + (parent,) + a[s[0] + 1:], s), i
        for j in range(1, len(s)):
            if a[s[j]] != e:
                return (a, s[:j - 1] + (s[j], s[j - 1]) + s[j + 1:]), \
                    k + j - 1
        t, i = _descent_step(s)
        return (a, t), k + i
    return step


def wreath_block_sum(base, g, h):
    a, s = g
    b, t = h
    return (a + b, perm_block_sum(s, t))


def wreath_braiding(base, m, n):
    return (tuple([base.identity] * (m + n)), perm_braiding(m, n))


def cyclic_group(m) -> FiniteGroup:
    """Z/m as permutations would be wasteful; use integers mod m."""
    elems = list(range(m))
    return FiniteGroup(elems, lambda a, b: (a + b) % m,
                       lambda a: (-a) % m, 0, name=f"Z/{m}",
                       generators=[1 % m] if m > 1 else [],
                       relators=[(1,) * m] if m > 1 else [])
