"""Oracles the tests share, independent of the resolutions they check.

hopf_h2 computes H_2(G) = (R cap [F,F]) / [F,R] for G = F/R by Hopf's
formula, with a Schreier transversal and Reidemeister rewriting: no
chain complex of G is built.  S4_RELATORS is the Coxeter presentation
of Sym(4) on its three adjacent transpositions.

abelianization computes G^ab group-theoretically: [G, G] by closure,
the cosets of G / [G, G], then the invariant factors of that quotient
from the Smith normal form of its multiplication table.  It is brute
force and meant for test-sized groups.

The complex oracles build what simplicial and pi1 build, the older way:
every chain level at once, a simplicial complex's boundaries and
2-skeleton from its set of sorted tuples rather than from face arrays,
and lift profiles keyed by a given S_n.

The W_n oracle lists every level by the generic scan of Aut(A + nX)
and computes every face in the bracket category, as the composite
f delta_i with the face inclusion delta_i built from monoidal sums;
simplicial.build_W reads the closed-form hom sets and reorders slots
instead.  vertex_tuple walks the faces down to each vertex, where
SemiSimplicialSet.vertex_tuples builds the tuples level by level.  The
complex comparisons (isomorphism search, Y^ord) check W_n and S_n
against the paper's descriptions of them.

conjugation_acts_trivially checks H_i(G; M) against every inner
automorphism of G, and presented_abelianization reads G^ab off the
exponent sums of a presentation's relators; src has no caller of either.
sign_module and group_ring_module build test modules, alternating_group
a group that steps along its BFS tree, and relator_failure checks matrix
images of a presentation's generators.  braid_presentation is Artin's
presentation of B_n, which src does not hold: burau_relation_failure
checks the Burau images on it.

The walk oracles read what `FiniteGroup.walk` reads along the BFS tree
of the Cayley graph instead of a group's closed-form steps:
tree_walk_act, tree_walk_phi and phi_injective_on_elements, the pass
over every element that the left-inverse certificate of
`StabilizationSetup.verify` replaces.

The reduction oracles check `PresentedComplex.homology`, which cancels
unit pairs before the Hermite form: unreduced_homology is the
subquotient of the raw levels, read by the raw chain maps, and
check_transports checks the chain maps of one reduction cell by cell.
check_functoriality samples F(g f) = F(g) F(f) on a coefficient system,
which `CoefficientSystem.verify` does not.
"""

import itertools
import math
import operator
import random

from homstab.bracket import UMorphism
from homstab.exact_linalg import (FGAbelianGroup, SparseCols, Transport,
                                  homology_of_pair, identity_matrix,
                                  induced_matrix, presented_subquotient,
                                  product_mod, rows_congruent,
                                  smith_normal_form)
from homstab.burau import lm_identity, lm_mul
from homstab.groupoids import BraidedGroupoidInstance
from homstab.groups import (DEFAULT_GROUP_BUDGET, BudgetExceeded,
                            FiniteGroup, perm_identity, perm_inv, perm_mul)
from homstab.homology_engine import BarBudget, GModule, resolve
from homstab.pi1 import TwoSkeleton
from homstab.simplicial import (LiftProfile, SemiSimplicialSet,
                                SimplicialComplex, _tuple_faces)


def commutator(G, g, h):
    """g h g^-1 h^-1"""
    return G.mul(g, G.mul(h, G.mul(G.inv(g), G.inv(h))))


def subgroup_closure(G, gens) -> set:
    """The subgroup of G generated by gens; a generator already inside
    is skipped, so few of many generators are multiplied through."""
    out = {G.identity}
    kept = []
    for s in gens:
        if s in out:
            continue
        kept.append(s)
        frontier = list(out)
        while frontier:
            nxt = []
            for x in frontier:
                for t in kept:
                    y = G.mul(x, t)
                    if y not in out:
                        out.add(y)
                        nxt.append(y)
            frontier = nxt
    return out


def commutator_subgroup(G) -> set:
    """[G, G] as the subgroup generated by the [g, s], g in G and s a
    generator.  It is normal, as x [y, s] x^-1 = [x y, s] [x, s]^-1, and
    every s is central modulo it, so G modulo it is abelian."""
    return subgroup_closure(G, sorted({commutator(G, g, s) for g in G
                                       for s in G.generators}))


def coords_span(gens, factors) -> set:
    """The subgroup of Z/d_1 + ... + Z/d_k that the coordinate tuples
    gens span, factors = (d_1, ..., d_k)."""
    span = {tuple(0 for _ in factors)}
    frontier = list(span)
    while frontier:
        frontier = [y for y in {tuple((a + b) % d for a, b, d in
                                      zip(x, g, factors))
                                for x in frontier for g in gens}
                    if y not in span]
        span.update(frontier)
    return span


def quotient_group(G, normal_subgroup):
    """G / N with cosets represented by their least element; returns
    (Q, element -> representative)."""
    rep = {}
    for g in G.elements:
        if g not in rep:
            coset = [G.mul(g, n) for n in normal_subgroup]
            r = min(coset)
            rep.update((x, r) for x in coset)
    ident = rep[G.identity]
    Q = FiniteGroup(set(rep.values()), lambda a, b: rep[G.mul(a, b)],
                    lambda a: rep[G.inv(a)], ident, name=f"{G.name}/N",
                    generators=dict.fromkeys(
                        rep[g] for g in G.generators if rep[g] != ident))
    return Q, rep


def abelianization(G):
    """(G^ab, phi) with phi: element -> coordinates over the invariant
    factors, read off the Smith normal form of Q = G / [G, G] presented
    on all its elements with its multiplication table as relations."""
    Q, rep = quotient_group(G, commutator_subgroup(G))
    idx = Q.index
    cols = []
    for a in Q.elements:
        for b in Q.elements:
            col = {}
            for key, sgn in ((idx[a], 1), (idx[b], 1),
                             (idx[Q.mul(a, b)], -1)):
                col[key] = col.get(key, 0) + sgn
            cols.append({i: v for i, v in col.items() if v})
    snf = smith_normal_form(SparseCols(Q.order, cols))
    assert snf.rank == Q.order
    pos = [i for i, d in enumerate(snf.factors) if d > 1]
    phi = {g: tuple(snf.U[p][idx[rep[g]]] % snf.factors[p] for p in pos)
           for g in G.elements}
    return FGAbelianGroup(0, tuple(snf.factors[p] for p in pos)), phi


def _sign(letter):
    return 1 if letter > 0 else -1


def hopf_h2(G, gen_images):
    """H_2(G) from a surjection F(free on k letters) ->> G.

    gen_images: images of the free generators.  R = kernel; R^ab is free
    on the non-tree Schreier generators; [F,R] is spanned by the
    commutator vectors; the exponent map lands in Z^k.
    """
    k = len(gen_images)
    inv_images = [G.inv(g) for g in gen_images]

    def step(state, letter):
        img = gen_images[letter - 1] if letter > 0 else \
            inv_images[-letter - 1]
        return G.mul(state, img)

    # BFS transversal: element -> word (tuple of signed letters)
    transversal = {G.identity: ()}
    frontier = [G.identity]
    tree_edges = set()
    while frontier:
        nxt = []
        for g in sorted(frontier, key=G.index.get):
            for i in range(1, k + 1):
                h = step(g, i)
                if h not in transversal:
                    transversal[h] = transversal[g] + (i,)
                    tree_edges.add((g, i))
                    nxt.append(h)
        frontier = nxt
    assert len(transversal) == G.order

    # Schreier generators = non-tree edges (g, i)
    schreier = {}
    for g in G.elements:
        for i in range(1, k + 1):
            if (g, i) not in tree_edges:
                schreier[(g, i)] = len(schreier)
    assert len(schreier) == G.order * (k - 1) + 1

    def rewrite(word, start):
        """Express the R-element traced by `word` from coset `start`
        as an exponent vector over the Schreier generators."""
        vec = {}
        state = start
        for letter in word:
            if letter > 0:
                key = (state, letter)
                state = step(state, letter)
                if key in schreier:
                    j = schreier[key]
                    vec[j] = vec.get(j, 0) + 1
            else:
                state = step(state, letter)
                key = (state, -letter)
                if key in schreier:
                    j = schreier[key]
                    vec[j] = vec.get(j, 0) - 1
        assert state == start, "word does not lie in R from this coset"
        return vec

    def gen_word(g, i):
        # t_g x_i t_{g x_i}^{-1} as an explicit free word
        h = step(g, i)
        back = tuple(-x for x in reversed(transversal[h]))
        return transversal[g] + (i,) + back

    n = len(schreier)
    # exponent map R^ab -> Z^k
    phi_cols = []
    words = {}
    for (g, i), j in sorted(schreier.items(),
                            key=lambda kv: kv[1]):
        w = gen_word(g, i)
        words[j] = w
        col = {}
        for letter in w:
            idx = abs(letter) - 1
            col[idx] = col.get(idx, 0) + _sign(letter)
        phi_cols.append({r: c for r, c in col.items() if c})
    d_out = SparseCols(k, phi_cols)

    # [F,R] spanned by x w x^{-1} w^{-1} for Schreier gens w, letters x
    comm_cols = []
    for j in range(n):
        w = words[j]
        base = rewrite(w, G.identity)
        for x in range(1, k + 1):
            conj = (x,) + w + (-x,)
            v = rewrite(conj, G.identity)
            col = dict(v)
            for key, c in base.items():
                col[key] = col.get(key, 0) - c
            col = {r: c for r, c in col.items() if c}
            comm_cols.append(col)
    assert len(comm_cols) == k * n
    d_in = SparseCols(n, comm_cols)
    return homology_of_pair(d_out, d_in).group


S4_RELATORS = [
    [1, 1], [2, 2], [3, 3],
    [1, 2] * 3, [2, 3] * 3, [1, 3] * 2,
]


# ------------------------------------------------------------------
# complex oracles


def _sorted_levels(S):
    top = max((len(s) for s in S.simplices), default=0)
    return [sorted(s for s in S.simplices if len(s) == p + 1)
            for p in range(top)]


def _checked(boundaries):
    for p in range(1, len(boundaries)):
        assert not any(boundaries[p - 1].compose(boundaries[p]).cols), \
            "boundary squared is nonzero"
    return boundaries


def semisimplicial_boundaries(X):
    """Every augmented boundary of X from its face arrays, d d = 0
    asserted on each pair: boundaries[0] is C_0 -> Z."""
    sizes = X.level_sizes()
    boundaries = [SparseCols(1, [{0: 1} for _ in range(sizes[0])])
                  if sizes else SparseCols.zero(1, 0)]
    for p in range(1, len(sizes)):
        cols = []
        for s in range(sizes[p]):
            col = {}
            for i in range(p + 1):
                t = X.face(p, i)[s]
                col[t] = col.get(t, 0) + (-1) ** i
            cols.append({k: v for k, v in col.items() if v})
        boundaries.append(SparseCols(sizes[p - 1], cols))
    return _checked(boundaries)


def complex_boundaries(S):
    """Every augmented boundary of a simplicial complex from its sorted
    tuples: the face of s without entry i has sign (-1)^i."""
    levels = _sorted_levels(S)
    if not levels:
        return [SparseCols.zero(1, 0)]
    index = [{s: i for i, s in enumerate(lv)} for lv in levels]
    boundaries = [SparseCols(1, [{0: 1} for _ in levels[0]])]
    for p in range(1, len(levels)):
        cols = []
        for s in levels[p]:
            col = {}
            for i in range(len(s)):
                col[index[p - 1][s[:i] + s[i + 1:]]] = (-1) ** i
            cols.append(col)
        boundaries.append(SparseCols(len(levels[p - 1]), cols))
    return _checked(boundaries)


def reduced_homology(boundaries, up_to):
    """H-tilde_i, 0 <= i <= up_to, of the augmented complex with these
    boundaries."""
    out = []
    for i in range(up_to + 1):
        if i >= len(boundaries) or boundaries[i].ncols == 0:
            out.append(FGAbelianGroup(0))
            continue
        d_in = boundaries[i + 1] if i + 1 < len(boundaries) else \
            SparseCols.zero(boundaries[i].ncols, 0)
        out.append(homology_of_pair(boundaries[i], d_in).group)
    return out


def two_skeleton_from_complex(S) -> TwoSkeleton:
    """Edges (a, b), a < b, in sorted order; the triangle (a, b, c) reads
    (a, b) * (b, c) = (a, c)."""
    edges = sorted(s for s in S.simplices if len(s) == 2)
    eidx = {e: i for i, e in enumerate(edges)}
    tris = [(eidx[(a, b)], eidx[(b, c)], eidx[(a, c)])
            for (a, b, c) in sorted(s for s in S.simplices if len(s) == 3)]
    return TwoSkeleton(S.n_vertices, edges, tris)


def face_arrays(X):
    """Every face array of X, read through `face`: [None, [d_0, d_1] of
    level 1, ...], the form SemiSimplicialSet takes them whole in."""
    return [None] + [[X.face(p, i) for i in range(p + 1)]
                     for p in range(1, len(X.levels))]


def first_identity_violation(levels, faces):
    """The message SemiSimplicialSet raises for the first identity
    d_i d_j = d_{j-1} d_i (i < j) that the face arrays violate, scanning
    simplex by simplex, or None."""
    for p in range(2, len(levels)):
        for s in range(len(levels[p])):
            for j in range(1, p + 1):
                for i in range(j):
                    if faces[p - 1][i][faces[p][j][s]] != \
                            faces[p - 1][j - 1][faces[p][i][s]]:
                        return (f"semi-simplicial identity d_{i} d_{j} = "
                                f"d_{j - 1} d_{i} violated on simplex {s} "
                                f"of level {p}")
    return None


def vertex_tuple(X, p, s):
    """Ordered vertex indices of simplex s in level p: entry i is the
    vertex obtained by dropping all slots except i, one face at a time."""
    out = []
    for i in range(p + 1):
        idx = s
        # repeatedly remove the last slot, then the front ones, so
        # that slot i survives: apply d_j for j != i from the top
        q = p
        pos = i
        while q > 0:
            if pos < q:
                idx = X.face(q, q)[idx]
            else:
                idx = X.face(q, 0)[idx]
                pos -= 1
            q -= 1
        out.append(idx)
    return tuple(out)


def lift_profile(W, S) -> LiftProfile:
    """The W-lifts of every simplex of a given S, counted by vertex
    tuple, with the conditions (A) and (B) of simplicial.lift_profile."""
    counts = {s: 0 for s in S.simplices}
    orderings = {s: set() for s in S.simplices}
    for p in range(len(W.levels)):
        for i in range(len(W.levels[p])):
            vt = vertex_tuple(W, p, i)
            key = tuple(sorted(set(vt)))
            if len(set(vt)) == p + 1 and key in counts:
                counts[key] += 1
                orderings[key].add(vt)
    cond_a = all(
        counts[s] == math.factorial(len(s))
        and len(orderings[s]) == counts[s]
        for s in counts)
    cond_b = all(c == 1 for c in counts.values())
    condition = "A" if cond_a else ("B" if cond_b else "neither")
    return LiftProfile(counts, condition)


# ------------------------------------------------------------------
# W_n in the bracket category, and complex comparisons


def face_inclusion(U, p: int, i: int, x: int):
    """X^p -> X^{p+1} inserting iota_X in slot i (0 <= i <= p)."""
    if not 0 <= i <= p:
        raise ValueError("face index out of range")
    left = U.identity_mor(i * x)
    mid = U.monoidal_sum(left, U.iota(x))
    return U.monoidal_sum(mid, U.identity_mor((p - i) * x))


def build_W(U, A: int, x: int, n: int) -> SemiSimplicialSet:
    """W_n(A,X) with levels from the generic scan of Aut(A + nX)
    (`BraidedGroupoidInstance.hom_reps`), listed as reps as
    `simplicial.build_W` lists them, and face i the composite f delta_i
    in U."""
    obj = A + n * x
    homs = [[UMorphism((p + 1) * x, obj, r) for r in
             BraidedGroupoidInstance.hom_reps(U.G, (p + 1) * x, obj)]
            for p in range(n)]
    while homs and not homs[-1]:
        homs.pop()
    faces = [None]
    for p in range(1, len(homs)):
        idx = {f: i for i, f in enumerate(homs[p - 1])}
        incs = [face_inclusion(U, p, i, x) for i in range(p + 1)]
        faces.append([[idx[U.compose(f, inc)] for f in homs[p]]
                      for inc in incs])
    return SemiSimplicialSet([[f.rep for f in level] for level in homs],
                             faces)


def complexes_isomorphic(S1: SimplicialComplex, S2: SimplicialComplex):
    """Backtracking isomorphism search; returns a vertex bijection or
    None.  Fine at desk scale (tens of vertices)."""
    if S1.level_sizes() != S2.level_sizes():
        return None

    def profile(S, v):
        return tuple(sorted(
            len(s) for s in S.simplices if v in s))

    p1 = {v: profile(S1, v) for v in range(S1.n_vertices)}
    p2 = {v: profile(S2, v) for v in range(S2.n_vertices)}
    cands = {v: [w for w in range(S2.n_vertices) if p2[w] == p1[v]]
             for v in range(S1.n_vertices)}
    order = sorted(range(S1.n_vertices), key=lambda v: len(cands[v]))
    s1_by_v = {v: [s for s in S1.simplices if v in s]
               for v in range(S1.n_vertices)}

    mapping = {}
    used = set()

    def consistent(v, w):
        for s in s1_by_v[v]:
            if all(u in mapping or u == v for u in s):
                img = tuple(sorted(mapping.get(u, w) for u in s))
                if not S2.has(img):
                    return False
        return True

    def rec(i):
        if i == len(order):
            return True
        v = order[i]
        for w in cands[v]:
            if w in used:
                continue
            if consistent(v, w):
                mapping[v] = w
                used.add(w)
                if rec(i + 1):
                    return True
                del mapping[v]
                used.discard(w)
        return False

    if rec(0):
        # a bijection preserving all simplices both ways (counts equal)
        return dict(mapping)
    return None


def ord_of_complex(S: SimplicialComplex) -> SemiSimplicialSet:
    """Y^ord: one p-simplex per (p-simplex, vertex ordering)."""
    levels = [sorted(t for s in lv for t in itertools.permutations(s))
              for lv in S.levels]
    return SemiSimplicialSet(levels, _tuple_faces(levels))


def w_isomorphic_to_ord(W: SemiSimplicialSet, ordW: SemiSimplicialSet) -> bool:
    """The natural map sending a W-simplex to its ordered vertex tuple is
    an isomorphism iff it is injective levelwise with equal counts (it
    commutes with faces by construction); checked directly."""
    if W.level_sizes() != ordW.level_sizes():
        return False
    for p in range(len(W.levels)):
        tuples = [vertex_tuple(W, p, s)
                  for s in range(len(W.levels[p]))]
        if len(set(tuples)) != len(tuples):
            return False
        if any(len(set(t)) != p + 1 for t in tuples):
            return False
        # face compatibility: d_i of the tuple = tuple of d_i
        if p:
            for s, t in enumerate(tuples):
                for i in range(p + 1):
                    ft = vertex_tuple(W, p - 1, W.face(p, i)[s])
                    if ft != t[:i] + t[i + 1:]:
                        return False
    return True


def conjugation_acts_trivially(M: GModule, i: int,
                               budget: BarBudget | None = None) -> bool:
    """True iff every inner automorphism induces the identity on
    H_i(G; M).  Exhaustive over the group."""
    G = M.group
    cx = resolve(M, budget or BarBudget(), top=i + 1)
    hq = cx.homology(i)
    orders = hq.group.orders
    ngen = len(orders)
    for h in G.elements:
        # the chain self-map of g |-> h g h^{-1} together with m |-> h.m
        hinv = G.inv(h)
        f = cx.chain_map(i, cx, lambda g: G.mul(G.mul(h, g), hinv),
                         M.act(h))
        Mc = induced_matrix(f, hq, hq)
        for r in range(ngen):
            for c in range(ngen):
                want = 1 if r == c else 0
                d = Mc[r][c] - want
                o = orders[r]
                if (d % o if o else d) != 0:
                    return False
    return True


def presented_abelianization(g: int, relators) -> FGAbelianGroup:
    """Abelianization of the group on g generators with these relators,
    from their exponent sums."""
    cols = []
    for word in relators:
        col = [0] * g
        for letter in word:
            col[abs(letter) - 1] += 1 if letter > 0 else -1
        cols.append({i: v for i, v in enumerate(col) if v})
    return presented_subquotient(SparseCols.zero(0, g), SparseCols(g, cols),
                                 [], []).group


def sign_module(group: FiniteGroup, sign_of) -> GModule:
    """Z with g acting by sign_of(g) in {+1, -1}."""
    return GModule(group, FGAbelianGroup(1),
                   {g: [[sign_of(g)]] for g in group.generators},
                   name="sign")


def group_ring_module(group: FiniteGroup, quotient: FiniteGroup,
                      phi: dict) -> GModule:
    """Z[Q] with g acting by left multiplication through phi: G -> Q."""
    basis = quotient.elements
    idx = {q: i for i, q in enumerate(basis)}
    n = len(basis)
    action = {}
    for g in group.generators:
        m = [[0] * n for _ in range(n)]
        for j, q in enumerate(basis):
            m[idx[quotient.mul(phi[g], q)]][j] = 1
        action[g] = m
    return GModule(group, FGAbelianGroup(n), action,
                   name=f"Z[Q{n}]")


def braid_presentation(n: int):
    """(gens, relators) of B_n on s_1 .. s_{n-1}: relator words of signed
    1-based generator indices (+i for s_i, -i for its inverse)."""
    relators = []
    for i in range(1, n - 1):
        # s_i s_{i+1} s_i = s_{i+1} s_i s_{i+1}
        relators.append((i, i + 1, i, -(i + 1), -i, -(i + 1)))
    for i in range(1, n - 1):
        for j in range(i + 2, n):
            relators.append((i, j, -i, -j))
    return max(n - 1, 0), relators


def relator_failure(gens: int, relators, images, identity, mul, eq):
    """The first relator that the matrix images break, or None.

    ``images`` maps signed generator index -> matrix; ``identity`` is
    the identity matrix; ``mul``/``eq`` are ring-matrix ops.  Each
    generator's image must be inverted by the image of its inverse."""
    for word in relators:
        acc = identity
        for letter in word:
            acc = mul(acc, images[letter])
        if not eq(acc, identity):
            return word
    for i in range(1, gens + 1):
        if not eq(mul(images[i], images[-i]), identity):
            return (i, -i)
    return None


def burau_relation_failure(B, n: int):
    """First failing braid relator under the Burau images of B_n, or
    None."""
    return relator_failure(*braid_presentation(n), B.images(n),
                           lm_identity(n), lm_mul, operator.eq)


def alternating_group(n, budget=DEFAULT_GROUP_BUDGET) -> FiniteGroup:
    """Alt(n) on the 3-cycles (0 1 k), k = 2 .. n - 1, enumerated when
    built, steps along its BFS tree."""
    order = math.factorial(n) // 2 if n > 1 else 1
    if order > budget:
        raise BudgetExceeded(f"|Alt({n})| = {order} exceeds budget "
                             f"{budget}", estimate=order)
    elems = [p for p in itertools.permutations(range(n))
             if perm_sign(p) == 1]
    gens = []
    for k in range(2, n):
        p = list(range(n))
        p[0], p[1], p[k] = 1, k, 0
        gens.append(tuple(p))
    return FiniteGroup(elems, perm_mul, perm_inv, perm_identity(n),
                       name=f"Alt({n})", generators=gens)


def perm_sign(p) -> int:
    """The sign of a permutation tuple, from its cycle lengths."""
    seen = [False] * len(p)
    sign = 1
    for i in range(len(p)):
        if not seen[i]:
            j, length = i, 0
            while not seen[j]:
                seen[j] = True
                j = p[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
    return sign


def tree_walk(G: FiniteGroup, g, memo: dict, step):
    """FiniteGroup.walk along the BFS tree of G, whatever steps G has."""
    tree = G.tree()
    path = []
    while g not in memo:
        path.append(g)
        g = tree[g][0]
    value = memo[g]
    for h in reversed(path):
        value = memo[h] = step(value, *tree[h])
    return value


def tree_walk_act(M: GModule, g):
    """M.act(g) as the product of generator matrices along the tree path
    of g."""
    return tree_walk(M.group, g, {M.group.identity: identity_matrix(M.rank)},
                     lambda m, x, i: product_mod(m, M._gen_mats[i],
                                                 M.orders))


def tree_walk_phi(setup, g):
    """setup.phi(g) as the product of the generator images along the tree
    path of g."""
    big = setup.big.group
    return tree_walk(setup.small.group, g,
                     {setup.small.group.identity: big.identity},
                     lambda v, x, i: big.mul(v, setup.gen_images[i]))


def phi_injective_on_elements(setup) -> bool:
    """phi takes |G_small| distinct values: one pass over the elements."""
    Gs = setup.small.group
    return len({setup.phi(g) for g in Gs.elements}) == Gs.order


def unreduced_homology(cx, i):
    """H_i of a presented complex as `presented_subquotient` of its raw
    levels d_i and d_{i+1}, with no unit pair cancelled: an induced map
    then reads the raw chain maps in the coordinates of the levels."""
    return presented_subquotient(cx.boundary(i), cx.boundary(i + 1),
                                 cx.row_orders(i - 1), cx.row_orders(i))


def _congruent(u: dict, v: dict, orders) -> bool:
    return all((x % orders[r] if orders[r] else x) == 0
               for r, x in ((r, u.get(r, 0) - v.get(r, 0))
                            for r in u.keys() | v.keys()))


def check_transports(raw, raw_orders, ds, orders, transports):
    """The chain maps of one `reduce_unit_pairs` run, on every cell: pi
    iota = id on each level, and d' pi = pi d, d iota = iota d' on each
    boundary below the top, row r taken modulo its order; on C_{-1} they
    drop and restore the rows that the pairs of d_0 removed.  Every pair
    removes a row of order 0, so that pi and iota are maps of the
    presented levels.  raw and raw_orders are the levels and row orders
    passed in, ds and orders what the run left of them."""
    # C_{-1}, below the lowest transport, has at most one row (the Z of
    # an augmentation), so pi drops its row if paired and iota puts 0
    paired = {a for _, a, _, _ in transports[0].restores} \
        if transports else set()
    bottom = Transport([r for r in range(raw[0].nrows) if r not in paired])
    for p, t in enumerate(transports):
        # x_a is a coordinate of the presented level only on a free row a
        assert not any(raw_orders[p][a] for _, a, _, _ in t.restores), p
        assert not any(raw_orders[p + 1][a] for a, _, _ in t.clears), p
        for j in range(len(t.kept)):
            assert t.project(t.lift({j: 1})) == {j: 1}, (p, j)
        below = transports[p - 1] if p else bottom
        for c, col in enumerate(raw[p].cols):
            assert _congruent(ds[p].apply(t.project({c: 1})),
                              below.project(col), orders[p]), (p, c)
        for j, col in enumerate(ds[p].cols):
            assert _congruent(raw[p].apply(t.lift({j: 1})),
                              below.lift(col), raw_orders[p]), (p, j)


def check_functoriality(F, pairs: int, seed: int) -> None:
    """F(g f) = F(g) F(f) on `pairs` composable pairs of bracket
    morphisms drawn with the given seed, inside F's window; raises
    ValueError on the first failure."""
    cat, rng, checked = F.cat, random.Random(seed), 0
    while checked < pairs:
        m = rng.randrange(0, F.n_max + 1)
        p = rng.randrange(m, F.n_max + 1)
        q = rng.randrange(p, F.n_max + 1)
        hf = cat.hom_set(F.obj(m), F.obj(p))
        hg = cat.hom_set(F.obj(p), F.obj(q))
        if not hf or not hg:
            continue
        f = hf[rng.randrange(len(hf))]
        g = hg[rng.randrange(len(hg))]
        lhs = F.evaluate(cat.compose(g, f))
        rhs = product_mod(F.evaluate(g), F.evaluate(f), F.orders(q))
        if not rows_congruent(lhs, rhs, F.orders(q)):
            raise ValueError("functoriality fails on a sample")
        checked += 1
