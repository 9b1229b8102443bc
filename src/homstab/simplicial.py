"""Semi-simplicial sets W_n(A,X), simplicial complexes S_n(A,X), chain
complexes, links, weak Cohen-Macaulay reports and connectivity
certificates.

A simplicial complex is the semi-simplicial set of its sorted simplices
(face i drops vertex i), so W_n and S_n share one chain complex, one
2-skeleton and one certificate.  A certificate up to degree t builds
chain levels 0..t+1 only, and `PresentedComplex.homology` cancels their
unit pairs before any Hermite form, as it does for every complex.

build_W lists every level of W_n but computes a face array only when a
reader first asks for it: the certificate reads every face of levels
1..t+1, the 2-skeleton those of levels 1 and 2, and the lift profile
d_0 and d_p of every level.  Each semi-simplicial identity is checked
once its last array is computed.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .bracket import BracketCategory
# homology_of_pair is not called here: perfbench/test_tracer.py checks
# that tracing patches it in every module that imports it
from .exact_linalg import SparseCols, homology_of_pair  # noqa: F401
from .homology_engine import PresentedComplex


class SemiSimplicialSet:
    """Levels of p-simplices with face index arrays.

    levels[p] is a duplicate-free list; face(p, i)[s] is the index in
    levels[p-1] of d_i applied to simplex s of level p.  `faces` is
    either every array, faces[p][i] for p >= 1, or a function
    faces(p, i) that `face` calls on the first read of array (p, i) and
    whose result it keeps.

    The identities d_i d_j = d_{j-1} d_i (i < j) are checked also under
    python -O: a violation raises AssertionError.  Arrays passed whole
    are checked at construction.  Otherwise each identity is checked as
    soon as the last of its arrays is computed, before that array
    reaches its reader, so every array a reader receives has passed
    every identity whose arrays exist.
    """

    def __init__(self, levels, faces):
        self.levels = levels
        if callable(faces):
            self._compute = faces
            self._faces = {}
        else:
            self._faces = {(p, i): faces[p][i]
                           for p in range(1, len(levels))
                           for i in range(p + 1)}
            for p in range(2, len(levels)):
                _check_identities(p, [ji for ji, _ in _identities(p)],
                                  self._faces)

    def face(self, p, i):
        """The array of d_i on level p, computed on its first read."""
        arr = self._faces.get((p, i))
        if arr is None:
            arr = self._compute(p, i)
            done = {**self._faces, (p, i): arr}
            for q in (p, p + 1):
                if 2 <= q < len(self.levels):
                    _check_identities(q, [ji for ji, arrays
                                          in _identities(q)
                                          if (p, i) in arrays
                                          and arrays <= done.keys()], done)
            self._faces[p, i] = arr
        return arr

    @property
    def dimension(self):
        return len(self.levels) - 1

    def level_sizes(self):
        return [len(l) for l in self.levels]

    def vertex_tuples(self):
        """The ordered vertex indices of every simplex, level by level:
        entry i of simplex s is the vertex that survives when every slot
        but i is dropped.  Vertex p of s is the last vertex of d_0 s, and
        the others are the vertices of d_p s."""
        out = [[(v,) for v in range(len(self.levels[0]))]] \
            if self.levels else []
        for p in range(1, len(self.levels)):
            below = out[-1]
            out.append([below[last] + below[first][-1:] for last, first
                        in zip(self.face(p, p), self.face(p, 0))])
        return out

    def chain_complex(self) -> "ChainComplex":
        return ChainComplex(self)


def _identities(p):
    """The identities d_i d_j = d_{j-1} d_i (i < j) on level p: (j, i)
    with the set of face arrays each compares."""
    return [((j, i), {(p, j), (p, i), (p - 1, i), (p - 1, j - 1)})
            for j in range(1, p + 1) for i in range(j)]


def _check_identities(p, pairs, faces):
    """The identities (j, i) on level p, each compared on the whole
    level; a violation names the first simplex, then the first j
    and i."""
    bad = []
    for j, i in pairs:
        a = list(map(faces[p - 1, i].__getitem__, faces[p, j]))
        b = list(map(faces[p - 1, j - 1].__getitem__, faces[p, i]))
        if a != b:
            s = next(s for s, (u, v) in enumerate(zip(a, b)) if u != v)
            bad.append((s, j, i))
    if bad:
        s, j, i = min(bad)
        raise AssertionError(
            f"semi-simplicial identity d_{i} d_{j} = "
            f"d_{j - 1} d_{i} violated on simplex {s} of level {p}")


def _tuple_faces(levels):
    """Face arrays of levels of vertex tuples: d_i drops entry i."""
    faces = [None]
    for p in range(1, len(levels)):
        idx = {t: i for i, t in enumerate(levels[p - 1])}
        faces.append([[idx[t[:i] + t[i + 1:]] for t in levels[p]]
                      for i in range(p + 1)])
    return faces


class SimplicialComplex(SemiSimplicialSet):
    """Vertices 0..nv-1 and a downward-closed set of sorted tuples, as the
    semi-simplicial set of its sorted simplices: levels[p] holds the
    p-simplices in sorted order, so vertex v is simplex v of level 0."""

    def __init__(self, n_vertices, maximal_or_all):
        self.n_vertices = n_vertices
        simplices = set()
        for s in maximal_or_all:
            t = tuple(sorted(set(s)))
            assert len(t) == len(s), f"degenerate simplex {s}"
            if t and not (0 <= t[0] and t[-1] < n_vertices):
                raise ValueError(f"simplex {tuple(s)} has a vertex outside "
                                 f"0..{n_vertices - 1}")
            for r in range(1, len(t) + 1):
                simplices.update(itertools.combinations(t, r))
        simplices.update((v,) for v in range(n_vertices))
        self.simplices = simplices
        levels = [list(lv) for _, lv in itertools.groupby(
            sorted(simplices, key=lambda s: (len(s), s)), len)]
        super().__init__(levels, _tuple_faces(levels))

    def by_dimension(self, p):
        return self.levels[p] if 0 <= p < len(self.levels) else []

    def has(self, s):
        return tuple(sorted(s)) in self.simplices


class ChainComplex(PresentedComplex):
    """Augmented integer chain complex of a semi-simplicial set X, a
    `PresentedComplex` of free levels: d_0 is the augmentation C_0 -> Z
    and d_p: C_p -> C_{p-1} the alternating sum of the faces, so its
    homology is the reduced homology of X.

    d d = 0 follows from the face identities that X checks, and
    `homology` checks it again.  The reduction reads each level as built
    from the face arrays, with no copy kept.
    """

    kind = "chain complex"

    def __init__(self, X: SemiSimplicialSet):
        super().__init__()
        self.X = X

    def level_size(self, p):
        sizes = [1] + self.X.level_sizes()   # level -1: the Z of d_0
        return sizes[p + 1] if p + 1 < len(sizes) else 0

    def row_orders(self, p):
        return [0] * self.level_size(p)

    def _build(self, p) -> SparseCols:
        if p == 0:
            return SparseCols(1, [{0: 1} for _ in range(self.level_size(0))])
        cols = []
        if p < len(self.X.levels):
            faces = [self.X.face(p, i) for i in range(p + 1)]
            for s in range(len(self.X.levels[p])):
                col = {}
                for i in range(p + 1):
                    t = faces[i][s]
                    col[t] = col.get(t, 0) + (-1) ** i
                cols.append({k: v for k, v in col.items() if v})
        return SparseCols(self.level_size(p - 1), cols)

    _level = _build

    def reduced_homology(self, up_to):
        """H-tilde_i for 0 <= i <= up_to, degree up_to first, so that
        every lower degree reads its reduction of levels 0..up_to+1."""
        return [self.homology(i).group for i in range(up_to, -1, -1)][::-1]


# ------------------------------------------------------------------
# W and S construction


def build_W(U: BracketCategory, A: int, x: int, n: int) -> SemiSimplicialSet:
    """W_n(A,X): p-simplices are Hom(X^{p+1}, A + nX) for p < n, listed
    as their reps (`BracketCategory.hom_reps`); face i forgets slot i
    (`BracketCategory.face_reps`, on a whole level).  Every level is
    listed here; a face array is computed when a reader first asks for
    it."""
    obj = A + n * x
    levels = [U.hom_reps((p + 1) * x, obj) for p in range(n)]
    # drop trailing empty levels so dimension reflects content
    while levels and not levels[-1]:
        levels.pop()

    @functools.cache
    def index(p):
        return {r: s for s, r in enumerate(levels[p])}

    def face(p, i):
        idx = index(p - 1)
        return [idx[r] for r in
                U.face_reps((p + 1) * x, obj, levels[p], i, x)]

    return SemiSimplicialSet(levels, face)


def _distinct_vertex_tuples(W: SemiSimplicialSet):
    """The vertex tuples of the W-simplices whose vertices are distinct."""
    for p, level in enumerate(W.vertex_tuples()):
        for vt in level:
            if len(set(vt)) == p + 1:
                yield vt


def build_S(W: SemiSimplicialSet) -> SimplicialComplex:
    """Vertices = W level 0; a vertex set spans iff some W-simplex has
    exactly that vertex set."""
    nv = len(W.levels[0]) if W.levels else 0
    return SimplicialComplex(
        nv, {tuple(sorted(vt)) for vt in _distinct_vertex_tuples(W)})


@dataclass
class LiftProfile:
    counts: dict          # S-simplex tuple -> number of W-lifts
    condition: str        # "A" | "B" | "neither"


def lift_profile(W: SemiSimplicialSet) -> LiftProfile:
    """For every S-simplex, |pi_p^{-1}(sigma)|; condition (A) requires
    every ordering of the vertex set to occur exactly once ((p+1)! lifts),
    condition (B) a single lift.

    No S_n is built: its simplices are exactly the vertex sets of the
    W-simplices with distinct vertices, as W is closed under faces, so
    every S-simplex has at least one lift and is a key here."""
    counts, orderings = {}, {}
    for vt in _distinct_vertex_tuples(W):
        key = tuple(sorted(vt))
        counts[key] = counts.get(key, 0) + 1
        orderings.setdefault(key, set()).add(vt)
    cond_a = all(
        counts[s] == math.factorial(len(s))
        and len(orderings[s]) == counts[s]
        for s in counts)
    cond_b = all(c == 1 for c in counts.values())
    condition = "A" if cond_a else ("B" if cond_b else "neither")
    return LiftProfile(counts, condition)


def link(S: SimplicialComplex, sigma) -> SimplicialComplex:
    """Faces disjoint from sigma whose union with sigma is in S."""
    sigma = tuple(sorted(sigma))
    if not S.has(sigma):
        raise ValueError("sigma is not a simplex of S")
    sset = set(sigma)
    members = [s for s in S.simplices
               if not sset & set(s)
               and S.has(tuple(sorted(set(s) | sset)))]
    verts = sorted({v for s in members for v in s})
    relab = {v: i for i, v in enumerate(verts)}
    return SimplicialComplex(
        len(verts), [tuple(relab[v] for v in s) for s in members])


# ------------------------------------------------------------------
# connectivity


@dataclass
class ConnectivityCertificate:
    components: int
    homology_vanishing_up_to: int     # largest i with H-tilde_j = 0, j <= i
    pi1_status: str                   # trivial | unknown(budget) | nontrivial | not connected | not attempted
    certified_connectivity: int       # homology vanishing; a claim of kind `mode`
    mode: str                         # topological (Hurewicz-safe) | homological
    target: int
    meets_target: bool                # topological claim reaches target
    meets_target_homological: bool    # homology vanishing reaches target


def connectivity_certificate(X: SemiSimplicialSet, target: int,
                             pi1_budget: int = 10 ** 6) -> ConnectivityCertificate:
    """Certify that X is target-connected.

    The topological claim is the homological vanishing degree when pi1 is
    certified trivial, and at most 0 otherwise (Hurewicz packaging);
    `meets_target` tests it.  `certified_connectivity` is the vanishing
    degree, and `mode` says whether it is that topological claim or only
    homological.  Empty complexes are (-2)-connected by convention.
    """
    from . import pi1 as pi1mod

    if not X.levels or not X.levels[0]:
        return ConnectivityCertificate(
            components=0, homology_vanishing_up_to=10 ** 9,
            pi1_status="trivial (empty)", certified_connectivity=-2,
            mode="topological", target=target,
            meets_target=target <= -2, meets_target_homological=target <= -2)

    hom = X.chain_complex().reduced_homology(max(target, 0))
    vanish = -1
    for i, h in enumerate(hom):
        if h.is_trivial():
            vanish = i
        else:
            break
    components = 1 if hom[0].is_trivial() else hom[0].free_rank + 1

    pi1_status = "not attempted"
    if vanish >= 1 and target >= 1:
        skel = pi1mod.two_skeleton_from_semisimplicial(X)
        pi1_status, _ = pi1mod.pi1_triviality(skel, pi1_budget)

    # Hurewicz: without a trivial pi1 a topological claim is safe only up
    # to 0-connected
    topo = vanish if pi1_status == "trivial" else min(vanish, 0)
    mode = "topological" if topo == vanish else "homological"
    return ConnectivityCertificate(
        components=components,
        homology_vanishing_up_to=vanish,
        pi1_status=pi1_status,
        certified_connectivity=vanish,
        mode=mode, target=target,
        meets_target=topo >= target,
        meets_target_homological=vanish >= target)


@dataclass
class WeaklyCMReport:
    dimension_target: int
    complex_connectivity: ConnectivityCertificate
    worst_link_by_p: dict
    passed: bool


def weakly_cm_report(S: SimplicialComplex, n_target: int,
                     pi1_budget: int = 10 ** 6) -> WeaklyCMReport:
    """Weakly Cohen-Macaulay of dimension n_target: S is
    (n_target - 1)-connected and every p-simplex link is
    (n_target - p - 2)-connected (links certified homologically, pi1
    attempted)."""
    top = connectivity_certificate(S, n_target - 1, pi1_budget)
    worst = {}
    ok = top.meets_target_homological
    for p in range(S.dimension + 1):
        need = n_target - p - 2
        for s in S.by_dimension(p):
            cert = connectivity_certificate(link(S, s), need, pi1_budget)
            cur = worst.get(p)
            conn = cert.homology_vanishing_up_to
            if cur is None or conn < cur[0]:
                worst[p] = (conn, s, cert.meets_target_homological)
            if not cert.meets_target_homological:
                ok = False
    return WeaklyCMReport(n_target, top, worst, ok)
