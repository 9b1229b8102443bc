"""Quillen's bracket construction over a skeletal braided groupoid.

A morphism m -> n is an equivalence class [X^c, f] with f in Aut(n) and
c = n - m the complement, placed on the LEFT block; f ~ f(g + id_m) for
g in Aut(c).  The canonical representative is the minimum of that coset
under the group's total element order, making equality and hashing of
morphisms trivial.  Each groupoid instance computes that minimum
(`coset_min`): the symmetric, wreath and prime-field GL instances in
closed form, with no group products; GL over a composite modulus by the
generic minimum over the |Aut(c)| coset elements, which is also the
oracle the closed forms are tested against.

Hom(m, n) is the list of those minima (`hom_reps`).  The symmetric and
wreath instances write it down in closed form, without Aut(n): an
injective word t of length m, the last m slots, after the sorted points
it misses, and for G wr Sym any base labels at the points of t and the
least label elsewhere.  GL over any modulus scans Aut(n), one coset
minimum per element; that scan is the oracle of the closed forms.
`BracketCategory.hom_reps` checks the count against |Aut(n)| /
|Aut(n-m)| (`aut_order`: the order formula for the closed forms, so
that no group is built) and refuses an Aut(n) past the group budget as
the group constructor does: the top level of W_n(0, X) has |Aut(n)|
simplices.  `build_W` lists those reps; `hom_set` keeps them wrapped.

The same coset gives the stabilizer of a morphism without a scan:
Stab([X^c, f]) = f (Aut(c) + id_m) f^-1, which local standardness reads
for every edge of W_n.

Faces of W_n need no composition either.  Face i of f = [X^c, r]:
X^{p+1} -> n is f (id_c + delta_i), and id_c + delta_i is a slot
permutation: it moves block i of the tail (the source slots) next to the
complement.  So the face is the coset minimum, for the complement c + x,
of r with its slots reordered (`face_reps`, on reps, which `face` and
`simplicial.build_W` share).  The instance computes it
(`BraidedGroupoidInstance.face_reps`): the symmetric and wreath
instances in one step, the moved block joining the sorted complement;
GL by `permute` and then `coset_min`, which is also the oracle of the
one-step forms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groupoids import BraidedGroupoidInstance


@dataclass(frozen=True)
class UMorphism:
    source: int
    target: int
    rep: object          # canonical element of Aut(target)

    @property
    def complement(self) -> int:
        return self.target - self.source

    def __repr__(self):
        return f"U({self.source}->{self.target}; {self.rep})"


class BracketCategory:
    """Hom sets, composition and monoidal structure of U(groupoid)."""

    def __init__(self, instance: BraidedGroupoidInstance):
        self.G = instance
        self._hom_cache: dict[tuple[int, int], tuple[UMorphism, ...]] = {}

    # -- canonical representatives ---------------------------------

    def canonicalize(self, m: int, n: int, f) -> UMorphism:
        """[X^c, f] with rep the minimum of the coset f (Aut(c) + id_m),
        c = n - m.  The instance's `coset_min` gives it in closed form
        where one is known; its generic minimum over the coset is the
        fallback and the test oracle."""
        if m > n:
            raise ValueError("no morphisms m -> n with m > n")
        c = n - m
        if c == 0:
            return UMorphism(m, n, f)
        return UMorphism(m, n, self.G.coset_min(c, f))

    def identity_mor(self, n: int) -> UMorphism:
        return UMorphism(n, n, self.G.identity(n))

    def iota(self, n: int) -> UMorphism:
        """The unique morphism 0 -> n."""
        return self.canonicalize(0, n, self.G.identity(n))

    def hom_reps(self, m: int, n: int) -> list:
        """The reps of all morphisms m -> n, sorted: the instance's
        `hom_reps`, checked duplicate-free and against |Aut(n)| /
        |Aut(n-m)| (also under python -O), after |Aut(n)| passes the
        group budget.  Not kept: `build_W` reads each level once."""
        if m > n:
            return []
        G = self.G
        expected, rem = divmod(G.aut_order(n), G.aut_order(n - m))
        reps = G.hom_reps(m, n)
        if rem or len(reps) != expected:
            raise AssertionError(
                f"hom set ({m},{n}) has {len(reps)} morphisms, not "
                f"|Aut(n)| / |Aut(n-m)|")
        if len(set(reps)) != len(reps):
            raise AssertionError(f"hom set ({m},{n}) lists a rep twice")
        return reps

    def hom_set(self, m: int, n: int) -> tuple[UMorphism, ...]:
        """All morphisms m -> n (`hom_reps`), kept per (m, n)."""
        key = (m, n)
        if key not in self._hom_cache:
            self._hom_cache[key] = tuple(UMorphism(m, n, r)
                                         for r in self.hom_reps(m, n))
        return self._hom_cache[key]

    # -- categorical structure --------------------------------------

    def compose(self, g: UMorphism, f: UMorphism) -> UMorphism:
        """g after f:  [Y,g][X,f] = [Y+X, g(id_Y + f)]."""
        if f.target != g.source:
            raise ValueError("object mismatch in composition")
        G = self.G
        c2 = g.complement
        raw = G.mul(g.rep, G.block_sum(G.identity(c2), f.rep, c2, f.target))
        return self.canonicalize(f.source, g.target, raw)

    def face_reps(self, m: int, n: int, reps, i: int, x: int) -> list:
        """The reps of d_i [X^c, r] for each r in reps, morphisms
        X^{p+1} = m -> n: d_i f = f (id_c + delta_i), where delta_i:
        X^p -> X^{p+1} inserts iota_X in slot i.  id_c + delta_i is the
        slot permutation that moves block i of the tail next to the
        complement, so d_i f is the coset minimum of r permuted
        (`BraidedGroupoidInstance.face_reps`)."""
        if not 0 <= i < m // x:
            raise ValueError("face index out of range")
        return self.G.face_reps(n - m, i, x, reps)

    def face(self, f: UMorphism, i: int, x: int) -> UMorphism:
        """d_i f for f: X^{p+1} -> n (`face_reps`)."""
        rep, = self.face_reps(f.source, f.target, [f.rep], i, x)
        return UMorphism(f.source - x, f.target, rep)

    def post_compose(self, phi, f: UMorphism) -> UMorphism:
        """Automorphism phi in Aut(f.target) acting on f."""
        return self.canonicalize(f.source, f.target,
                                 self.G.mul(phi, f.rep))

    def monoidal_sum(self, f: UMorphism, g: UMorphism) -> UMorphism:
        """[X,f] + [Y,g] = [X+Y, (f+g)(id_X + b_{A,Y}^{-1} + id_C)]
        for f: A -> B, g: C -> D."""
        G = self.G
        A, B = f.source, f.target
        C, D = g.source, g.target
        X, Y = f.complement, g.complement
        fg = G.block_sum(f.rep, g.rep, B, D)
        shuffle = G.block_sum(
            G.identity(X),
            G.block_sum(G.braiding_inv(A, Y), G.identity(C), A + Y, C),
            X, A + Y + C)
        return self.canonicalize(A + C, B + D, G.mul(fg, shuffle))

    # -- suspensions -------------------------------------------------

    def upper_suspension(self, a: int, x: int) -> UMorphism:
        """sigma^X = id_a + iota_x : a -> a + x."""
        return self.monoidal_sum(self.identity_mor(a), self.iota(x))

    def _lam(self, A: int, x: int, n: int):
        """lambda_n = b_{X,A} + id_{X^n} in Aut(A + (n+1) x)."""
        G = self.G
        return G.block_sum(G.braiding(x, A), G.identity(n * x), x + A, n * x)

    def lower_suspension(self, A: int, x: int, n: int) -> UMorphism:
        """sigma_X = lambda_n (iota_X + id_{A + nx}) from object A + n x
        to A + (n+1) x."""
        inc = self.monoidal_sum(self.iota(x), self.identity_mor(A + n * x))
        return self.post_compose(self._lam(A, x, n), inc)

    def sigma_upper_on_group(self, g, a: int, x: int):
        """Sigma^X(g) = g + id_x in Aut(a + x)."""
        return self.G.block_sum(g, self.G.identity(x), a, x)

    def sigma_lower_on_group(self, g, A: int, x: int, n: int):
        """Sigma_X(g) for g in Aut(A + n x): conjugate of g + id_x by
        lambda_n b_{A + nx, X}."""
        G = self.G
        obj = A + n * x
        conj = G.mul(self._lam(A, x, n), G.braiding(obj, x))
        return G.mul(G.mul(conj, self.sigma_upper_on_group(g, obj, x)),
                     G.inv(conj))

    def lower_suspension_of_mor(self, f: UMorphism, A: int, x: int) -> UMorphism:
        """Sigma_X(f) for f: A+mx -> A+nx, via the conjugating isos
        lambda_n = b_{X,A} + id_{X^n}."""
        G = self.G
        m = (f.source - A) // x if x else 0
        n = (f.target - A) // x if x else 0
        assert A + m * x == f.source and A + n * x == f.target
        lam_m_inv = G.inv(self._lam(A, x, m))
        mid = self.monoidal_sum(self.identity_mor(x), f)
        out = self.post_compose(self._lam(A, x, n), mid)
        # precompose with lam_m_inv: an automorphism of the source
        return self.canonicalize(
            out.source, out.target,
            G.mul(out.rep, G.block_sum(G.identity(out.complement),
                                       lam_m_inv, out.complement,
                                       out.source)))

    # -- executable certificates --------------------------------------

    def verify_homogeneity(self, m: int, n: int) -> dict:
        """H1: Aut(n) acts transitively on Hom(m, n) by postcomposition.
        H2: the stabilizer of the canonical morphism [X^c, id] equals the
        left block Aut(c) + id_m, with injectivity of the embedding."""
        G = self.G
        hom = self.hom_set(m, n)
        base = self.canonicalize(m, n, G.identity(n))
        orbit, stab = set(), set()
        for phi in G.aut(n):
            image = self.post_compose(phi, base)
            orbit.add(image)
            if image == base:
                stab.add(phi)
        h1 = orbit == set(hom)
        block = G.left_block(n - m, m)
        h2_image = stab == block
        h2_injective = len(block) == G.aut(n - m).order
        return {
            "m": m, "n": n,
            "H1_transitive": h1,
            "H2_stabilizer_is_block": h2_image,
            "H2_injective": h2_injective,
            "hom_size": len(hom),
            "stabilizer_size": len(stab),
            "passed": h1 and h2_image and h2_injective,
        }

    def verify_prebraid(self, n_max: int) -> dict:
        """b_{A,B} (id_A + iota_B) = iota_B + id_A as morphisms A -> B+A,
        for all A + B <= n_max; plus the coset identity
        [B, b b^{-1}] = [B, id].

        Both hold for every braiding whose braiding_inv is its inverse:
        `monoidal_sum` builds id_A + iota_B with b_{A,B}^{-1}, which the
        post-composed b_{A,B} cancels, as U of any braided groupoid is
        prebraided.  So a wrong braiding is caught not here but by the
        naturality, hexagon and symmetry checks of
        `groupoids.verify_groupoid_axioms`."""
        failures = []
        G = self.G
        for a in range(0, n_max + 1):
            for b in range(0, n_max + 1 - a):
                lhs = self.post_compose(
                    G.braiding(a, b),
                    self.monoidal_sum(self.identity_mor(a), self.iota(b)))
                rhs = self.monoidal_sum(self.iota(b), self.identity_mor(a))
                if lhs != rhs:
                    failures.append(("prebraid", a, b))
                bb = G.mul(G.braiding(a, b), G.braiding_inv(a, b))
                if self.canonicalize(a, a + b, bb) != \
                        self.canonicalize(a, a + b, G.identity(a + b)):
                    failures.append(("coset identity", a, b))
        return {"passed": not failures, "failures": failures,
                "n_max": n_max}

    def stabilizer(self, u: UMorphism) -> frozenset:
        """Stab(u) = {phi in Aut(u.target) : phi u = u}.

        u = [X^c, r] is the coset r (Aut(c) + id_m), and phi u = u exactly
        when phi r lies in that coset, i.e. phi in r (Aut(c) + id_m) r^-1:
        |Aut(c)| products, where scanning Aut(n) with `post_compose` takes
        |Aut(n)| products and canonicalizations."""
        G = self.G
        r = u.rep
        r_inv = G.inv(r)
        return frozenset(G.mul(G.mul(r, b), r_inv)
                         for b in G.left_block(u.complement, u.source))

    def verify_local_standardness(self, A: int, x: int, n_max: int) -> dict:
        """LS1: iota_A + id_X + iota_X differs from iota_{A+X} + id_X.
        LS2: f -> f + iota_X is injective on Hom(X, A + (n-1)X) for
        n <= n_max.  Also the stabilizer condition on W-edges:
        Stab(f) = Stab(d_0 f) cap Stab(d_1 f).

        Each stabilizer is a conjugate of a left block (`stabilizer`):
        the coset argument above, which H1 and H2 of `verify_homogeneity`
        give again by orbit-stabilizer.  The edge check still intersects
        the two face stabilizers and compares the result with Stab(f)."""
        out = {"A": A, "X": x, "n_max": n_max}
        left = self.monoidal_sum(
            self.monoidal_sum(self.iota(A), self.identity_mor(x)),
            self.iota(x))
        right = self.monoidal_sum(self.iota(A + x), self.identity_mor(x))
        out["LS1"] = left != right
        ls2_fail = []
        for n in range(1, n_max + 1):
            src = self.hom_set(x, A + (n - 1) * x)
            images = {}
            for f in src:
                img = self.monoidal_sum(f, self.iota(x))
                if img in images:
                    ls2_fail.append((n, images[img], f))
                images[img] = f
        out["LS2"] = not ls2_fail
        out["LS2_failures"] = ls2_fail
        # edge stabilizer condition on W_n for the largest n in range
        stab_fail = []
        stabs = {}      # faces are shared between edges

        def stab(u):
            if u not in stabs:
                stabs[u] = self.stabilizer(u)
            return stabs[u]

        for n in range(2, n_max + 1):
            for f in self.hom_set(2 * x, A + n * x):
                d0 = self.face(f, 0, x)
                d1 = self.face(f, 1, x)
                if stab(f) != stab(d0) & stab(d1):
                    stab_fail.append((n, f))
        out["edge_stabilizers"] = not stab_fail
        out["edge_stabilizer_failures"] = stab_fail
        out["passed"] = out["LS1"] and out["LS2"] and out["edge_stabilizers"]
        return out
