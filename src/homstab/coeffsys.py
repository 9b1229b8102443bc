"""Coefficient systems on the stable bracket category and their calculus.

A coefficient system F assigns a Z[Aut(A + n.x)]-module F_n to every
level n together with structure maps s_n : F_n -> F_{n+1} that are
equivariant over the upper suspension and on whose image the complement
automorphism block acts trivially; this data determines F on all bracket
morphisms.  The module implements:

* evaluation of F on morphisms, verification of the defining conditions;
* the suspension Sigma F = F o Sigma_X and the natural transformation
  sigma_X : F -> Sigma F;
* kernel and cokernel systems of sigma_X, degree profiles (including the
  split variant), and explicit split witnesses found by exact integer
  linear algebra (every kernel and cokernel is an
  `exact_linalg.map_homology` of sigma_X, and the split witness one
  `exact_linalg.solve_integer`, each given the levels' orders);
* internalization: twisting a system by maps s_n : G_n -> G_inf^ab into
  a stably detected abelianization limit, where G_n^ab is H_1(G_n; Z)
  of the presentation complex and s_n is the Hurewicz map;
* builtin systems (constant, standard/permutation, tensor powers,
  abelian-constant group rings).

Every system here is finite: integer matrices over a finite group.  The
Burau system over the braid groups lives in `burau`, with its Laurent
algebra.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .bracket import BracketCategory, UMorphism
from .exact_linalg import (FGAbelianGroup, SparseCols, identity_matrix,
                           induced_matrix, map_homology, mat_mul,
                           product_mod, rows_congruent, solve_integer)
from .homology_engine import (BarBudget, GModule, StabilizationSetup,
                              check_equivariant, hurewicz, permutation_module,
                              stabilization_status)


def _kron(a, b):
    ra, ca = len(a), len(a[0]) if a else 0
    rb, cb = len(b), len(b[0]) if b else 0
    out = [[0] * (ca * cb) for _ in range(ra * rb)]
    for i in range(ra):
        for j in range(ca):
            v = a[i][j]
            if not v:
                continue
            for p in range(rb):
                for q in range(cb):
                    out[i * rb + p][j * cb + q] = v * b[p][q]
    return out


# ----------------------------------------------------------------------
# finite coefficient systems


class CoefficientSystem:
    """A coefficient system on levels 0..n_max.

    modules[n] is a GModule over Aut(A + n.x); s_mats[n] is the integer
    matrix of the structure map F_n -> F_{n+1} (present for n < n_max).
    """

    def __init__(self, cat: BracketCategory, A: int, x: int, n_max: int,
                 modules, s_mats, name: str = "F"):
        if x <= 0:
            raise ValueError("x must be a nonempty object")
        if len(modules) != n_max + 1 or len(s_mats) != n_max:
            raise ValueError("modules/s_mats length mismatch")
        self.cat = cat
        self.inst = cat.G
        self.A = A
        self.x = x
        self.n_max = n_max
        self.modules = list(modules)
        self.s_mats = [[row[:] for row in m] for m in s_mats]
        self.name = name
        self._sigma: dict = {}          # n -> component of sigma_X
        self._suspension = self._cokernel = None
        self._witness = None            # (split_witness(self),) once solved

    # -- basic accessors

    def obj(self, n: int) -> int:
        return self.A + n * self.x

    def group(self, n: int):
        return self.modules[n].group

    def rank(self, n: int) -> int:
        return self.modules[n].rank

    def orders(self, n: int):
        return self.modules[n].orders

    def module_trivial(self, n: int) -> bool:
        return self.modules[n].underlying.is_trivial()

    # -- evaluation on morphisms

    def schain(self, m: int, n: int):
        """Composite structure map F_m -> F_n (identity when m == n)."""
        mat = identity_matrix(self.rank(m))
        for j in range(m, n):
            mat = product_mod(self.s_mats[j], mat, self.orders(j + 1))
        return mat

    def cchain(self, m: int, n: int):
        """F of the canonical morphism [x^{n-m}, id] : m -> n, whose rep
        is the identity.  Since the complement sits in the LEFT block,
        each step is the structure map followed by the braiding that
        moves the image into the last coordinates."""
        mat = identity_matrix(self.rank(m))
        for j in range(m, n):
            b = self.inst.braiding(self.obj(j), self.x)
            step = mat_mul(self.modules[j + 1].act(b), self.s_mats[j])
            mat = product_mod(step, mat, self.orders(j + 1))
        return mat

    def _steps(self, size: int) -> int:
        d = size - self.A
        if d < 0 or d % self.x:
            raise ValueError(f"object {size} is not of the form A + n.x")
        return d // self.x

    def evaluate(self, mor: UMorphism):
        """Matrix of F on a bracket morphism [x^c, f] = f . canonical."""
        m = self._steps(mor.source)
        n = self._steps(mor.target)
        if n > self.n_max:
            raise ValueError("morphism target outside the window")
        return product_mod(self.modules[n].act(mor.rep), self.cchain(m, n),
                           self.orders(n))

    def sigma_mor(self, n: int) -> UMorphism:
        return self.cat.lower_suspension(self.A, self.x, n)

    def sigma_mat(self, n: int):
        """Component F_n -> F_{n+1} of the natural map sigma_X, computed
        once."""
        if n not in self._sigma:
            self._sigma[n] = self.evaluate(self.sigma_mor(n))
        return self._sigma[n]

    # -- verification

    def verify(self) -> None:
        """Check the defining conditions of a coefficient system.

        (1) each s_n is equivariant over the upper suspension;
        (2) the complement block Aut(x^m) acts trivially on the image of
            F_n in F_{n+m}.
        Raises ValueError on the first failure.
        """
        cat, x = self.cat, self.x
        for n in range(self.n_max):
            check_equivariant(
                self.s_mats[n], self.modules[n], self.modules[n + 1],
                lambda g, n=n: cat.sigma_upper_on_group(g, self.obj(n), x),
                f"s_{n} is not equivariant over the suspension")
        for n in range(self.n_max):
            for m in range(1, self.n_max - n + 1):
                chain = self.schain(n, n + m)
                blockgrp = self.inst.aut(m * x)
                for h in blockgrp.generators:
                    big = self.inst.block_sum(
                        self.inst.identity(self.obj(n)), h,
                        self.obj(n), m * x)
                    lhs = mat_mul(self.modules[n + m].act(big), chain)
                    if not rows_congruent(lhs, chain,
                                          self.orders(n + m)):
                        raise ValueError(
                            f"Aut(x^{m}) does not act trivially on the "
                            f"image of F_{n}")

    # -- suspension and the kernel/cokernel calculus

    def suspend(self) -> "CoefficientSystem":
        """Sigma F = F o Sigma_X on the window 0..n_max-1, built once."""
        if self._suspension is None:
            self._suspension = self._suspend()
        return self._suspension

    def _suspend(self) -> "CoefficientSystem":
        cat, A, x = self.cat, self.A, self.x
        mods = []
        for n in range(self.n_max):
            gen_action = {
                g: self.modules[n + 1].act(
                    cat.sigma_lower_on_group(g, A, x, n))
                for g in self.group(n).generators}
            mods.append(GModule(self.group(n),
                                self.modules[n + 1].underlying,
                                gen_action, name=f"(S{self.name})_{n}"))
        s_mats = []
        for n in range(self.n_max - 1):
            mor = cat.lower_suspension_of_mor(
                cat.upper_suspension(self.obj(n), x), A, x)
            s_mats.append(self.evaluate(mor))
        return CoefficientSystem(cat, A, x, self.n_max - 1, mods, s_mats,
                                 name=f"S{self.name}")

    def _subquotient_system(self, kind, ambient, sqs):
        """The system of subquotients sqs[n] of ambient.modules[n], n in
        0..n_max-1, with actions and structure maps induced from ambient."""

        def induced(mat, src, dst):
            return induced_matrix(
                SparseCols.from_dense(mat, src.ambient_dim), src, dst)

        mods = [GModule(self.group(n), sq.group,
                        {g: induced(ambient.modules[n].act(g), sq, sq)
                         for g in self.group(n).generators},
                        name=f"({kind} {self.name})_{n}")
                for n, sq in enumerate(sqs)]
        s_mats = [induced(ambient.s_mats[n], sqs[n], sqs[n + 1])
                  for n in range(self.n_max - 1)]
        return CoefficientSystem(self.cat, self.A, self.x, self.n_max - 1,
                                 mods, s_mats, name=f"{kind} {self.name}")

    def kernel_system(self) -> "CoefficientSystem":
        """ker(sigma_X : F -> Sigma F) on the window 0..n_max-1."""
        sqs = [map_homology([], self.sigma_mat(n), [], self.orders(n),
                            self.orders(n + 1))
               for n in range(self.n_max)]
        return self._subquotient_system("ker", self, sqs)

    def cokernel_system(self) -> "CoefficientSystem":
        """coker(sigma_X : F -> Sigma F) on the window 0..n_max-1, built
        once, as `suspend` keeps Sigma F: the plain and the split degree
        both recurse into it."""
        if self._cokernel is None:
            sqs = [map_homology(self.sigma_mat(n), [], self.orders(n),
                                self.orders(n + 1), [])
                   for n in range(self.n_max)]
            self._cokernel = self._subquotient_system("coker",
                                                      self.suspend(), sqs)
        return self._cokernel

    # -- stability plumbing

    def stabilization_setup(self, n: int) -> StabilizationSetup:
        """(G_n -> G_{n+1}, s_n), phi the upper suspension g |-> g + id_x
        given on the generators of G_n, with the instance's restriction
        to the first block as its left inverse."""
        inst, a, x = self.inst, self.obj(n), self.x
        gens = tuple(self.cat.sigma_upper_on_group(g, a, x)
                     for g in self.group(n).generators)
        return StabilizationSetup(self.modules[n], self.modules[n + 1],
                                  gens, self.s_mats[n],
                                  lambda h: inst.first_block(h, a, x))


# ----------------------------------------------------------------------
# degree profiles


@dataclass(frozen=True)
class DegreeProfile:
    status: str                 # "ok" or "exceeds"
    r: int | None
    N: int | None
    window: int                 # n_max of the window the answer refers to


def _trivial_from(F) -> int | None:
    """Least N with F_n = 0 for all N <= n <= n_max, or None."""
    t = None
    for n in range(F.n_max, -1, -1):
        if F.module_trivial(n):
            t = n
        else:
            break
    return t


def _check_window(n_max: int, r_max: int, N_max: int) -> None:
    """A degree bound (r_max, N_max) needs n_max >= N_max + r_max + 1;
    the recursion's last step, r_max = -1, needs n_max >= N_max."""
    need = N_max + max(r_max, -1) + 1
    if n_max < need:
        raise ValueError(
            f"window too small for the requested degree bound: n_max "
            f"{n_max} < N_max + r_max + 1 = {need}; lower r_max or raise "
            f"n_max")


def degree_profile(F, r_max: int, N_max: int,
                   split: bool = False) -> DegreeProfile:
    """Degree (r, N) of a coefficient system, computed recursively:
    degree -1 means vanishing from N on; otherwise ker sigma_X must
    vanish from some N_K <= N_max and coker must have degree r-1.  The
    split degree asks instead for a `split_witness`, so N_K = 0.

    The answer is window-relative: each recursion level shrinks the
    window by one, so n_max must be at least N_max + r_max + 1.
    """
    _check_window(F.n_max, r_max, N_max)
    t = _trivial_from(F)
    if t is not None and t <= N_max:
        return DegreeProfile("ok", -1, t, F.n_max)
    exceeds = DegreeProfile("exceeds", None, None, F.n_max)
    if r_max < 0:
        return exceeds
    if split:
        kt = 0 if split_witness(F) is not None else None
    else:
        kt = _trivial_from(F.kernel_system())
    if kt is None or kt > N_max:
        return exceeds
    sub = degree_profile(F.cokernel_system(), r_max - 1, N_max, split)
    if sub.status != "ok":
        return exceeds
    return DegreeProfile("ok", sub.r + 1, max(kt, sub.N), F.n_max)


# ----------------------------------------------------------------------
# split witnesses


def split_witness(F: CoefficientSystem):
    """Retractions rho_n : F_{n+1} -> F_n with rho_n sigma_X = id,
    equivariant over Sigma_X and natural in the system; None if the
    joint integer linear system has no solution on this window.  Solved
    once per system: the answer is kept on F, as `suspend` keeps Sigma F.
    """
    if F._witness is None:
        F._witness = (_solve_split(F),)
    return F._witness[0]


def _solve_split(F: CoefficientSystem):
    cat, A, x = F.cat, F.A, F.x
    W = F.n_max
    # variable layout: rho_n entry (i, j) for n in 0..W-1
    offs, total = [], 0
    for n in range(W):
        offs.append(total)
        total += F.rank(n) * F.rank(n + 1)

    def var(n, i, j):
        return offs[n] + i * F.rank(n + 1) + j

    # one sparse column per variable, one row per equation, each row
    # modulo the order of its entry's row
    cols = [{} for _ in range(total)]
    rhs, orders = [], []

    def add_equations(terms, target, row_orders):
        """sum of c . left . rho_n . right over the terms (c, left, n,
        right) = target, row i modulo row_orders[i]: one equation per
        entry of target, row by row."""
        ncols = len(target[0]) if target else 0
        parts = [(c, n, [[(a, y) for a, y in enumerate(row) if y]
                         for row in left],
                  [[(b, row[j]) for b, row in enumerate(right) if row[j]]
                   for j in range(ncols)])
                 for c, left, n, right in terms]
        for i, row in enumerate(target):
            for j, t in enumerate(row):
                e = len(rhs)
                coeffs: dict[int, int] = {}
                for c, n, lrows, rcols in parts:
                    for a, y in lrows[i]:
                        for b, z in rcols[j]:
                            v = var(n, a, b)
                            coeffs[v] = coeffs.get(v, 0) + c * y * z
                for v, c in coeffs.items():
                    if c:
                        cols[v][e] = c
                rhs.append(t)
                orders.append(row_orders[i])

    susp = F.suspend() if W >= 2 else None
    for n in range(W):
        rn, rn1 = F.rank(n), F.rank(n + 1)
        id_n, id_n1 = identity_matrix(rn), identity_matrix(rn1)
        zero = [[0] * rn1 for _ in range(rn)]
        # (a) rho_n . lam_n = id  (mod orders_n)
        add_equations([(1, id_n, n, F.sigma_mat(n))], id_n, F.orders(n))
        # (b) act_n(g) . rho_n - rho_n . act_{n+1}(Sigma_X g) = 0
        for g in F.group(n).generators:
            tw = F.modules[n + 1].act(
                cat.sigma_lower_on_group(g, A, x, n))
            add_equations([(1, F.modules[n].act(g), n, id_n1),
                           (-1, id_n, n, tw)], zero, F.orders(n))
    # (c) naturality: s_n . rho_n - rho_{n+1} . s'_n = 0
    for n in range(W - 1):
        r = F.rank(n + 1)
        id_r = identity_matrix(r)
        add_equations([(1, F.s_mats[n], n, id_r),
                       (-1, id_r, n + 1, susp.s_mats[n])],
                      [[0] * r for _ in range(r)], F.orders(n + 1))
    sol = solve_integer(cols, rhs, len(rhs), orders)
    if sol is None:
        return None
    out = []
    for n in range(W):
        rn, rn1 = F.rank(n), F.rank(n + 1)
        out.append([[sol[var(n, i, j)] for j in range(rn1)]
                    for i in range(rn)])
    return out


def split_degree_profile(F, r_max: int, N_max: int) -> DegreeProfile:
    """The split degree: `degree_profile` with split=True."""
    return degree_profile(F, r_max, N_max, split=True)


# ----------------------------------------------------------------------
# abelianization limits and internalization


@dataclass
class AbelianizationLimit:
    limit: FGAbelianGroup
    stable_from: int | None     # least n with ab_n -> ab_{n+1} iso onward
    certified: bool             # tail guaranteed by the stability range
    s_maps: list                # per level n: {generator of G_n: coords}


def coords_add(x, y, factors):
    return tuple((a + b) % d for a, b, d in zip(x, y, factors))


def _coords_closure(gens, factors):
    zero = tuple(0 for _ in factors)
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = coords_add(a, g, factors)
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return seen


def abelianization_limit(cat: BracketCategory, A: int, x: int,
                         n_probe: int, k: int,
                         budget: BarBudget | None = None
                         ) -> AbelianizationLimit:
    """Detect the stable abelianization G_inf^ab along the suspension.

    Aut(A + n.x)^ab is H_1 of the trivial module Z, read off the
    presentation complex under budget, and ab_n -> ab_{n+1} is an
    isomorphism exactly when stabilization_status says so at i = 1 on
    the constant system's verified setup n -> n + 1.  stable_from is the
    least level from which every consecutive map up to n_probe is an
    isomorphism, None if the top one is not.  The tail beyond the probe
    window is certified by the H_1 isomorphism range exactly when
    n_probe >= k + 1.

    s_maps[n] sends each generator of G_n to its image in the limit
    H_1(G_top), top = n_probe, in canonical coordinates: push it up to
    G_top and apply `homology_engine.hurewicz`.
    """
    budget = budget or BarBudget()
    const = constant_system(cat, A, x, n_probe)
    stable_from = n_probe
    for n in range(n_probe - 1, -1, -1):    # the big group first
        setup = const.stabilization_setup(n)
        setup.verify()
        if not stabilization_status(setup, 1, budget)["is_iso"]:
            break
        stable_from = n
    h1, phi = hurewicz(const.modules[n_probe], budget)
    if stable_from == n_probe:
        return AbelianizationLimit(h1.group, None, False, [])
    s_maps = []
    for n in range(n_probe + 1):
        mp = {}
        for g in const.group(n).generators:
            h = g
            for j in range(n, n_probe):
                h = cat.sigma_upper_on_group(h, A + j * x, x)
            mp[g] = phi(h)
        s_maps.append(mp)
    return AbelianizationLimit(h1.group, stable_from, n_probe >= k + 1,
                               s_maps)


class InternalizedSystem(CoefficientSystem):
    """A system twisted by the translation action of G_inf^ab.

    The underlying modules and all structure matrices are those of the
    base system; only the group actions are twisted, so evaluation of
    canonical chains and the sigma_X components are delegated to the
    base.  Such a twist is not a coefficient system in the strict sense
    (the complement block acts by translation, not trivially); what
    survives is equivariance of both suspension maps for the twisted
    actions, which is exactly what verify() checks and what stability
    runs need.
    """

    def __init__(self, base: CoefficientSystem, limit: AbelianizationLimit,
                 star, mods):
        super().__init__(base.cat, base.A, base.x, base.n_max, mods,
                         base.s_mats, name=f"{base.name}^int")
        self.base = base
        self.limit = limit
        self.star = star

    def cchain(self, m: int, n: int):
        return self.base.cchain(m, n)

    def sigma_mat(self, n: int):
        return self.base.sigma_mat(n)

    def _suspend(self) -> "InternalizedSystem":
        bs = self.base.suspend()
        lim = AbelianizationLimit(self.limit.limit, self.limit.stable_from,
                                  self.limit.certified,
                                  self.limit.s_maps[: bs.n_max + 1])
        return internalize(bs, lim, self.star[1: bs.n_max + 2])

    def verify(self) -> None:
        """Both suspension maps stay equivariant for the twisted
        actions (upper over Sigma^X, lower over Sigma_X)."""
        cat = self.cat
        for n in range(self.n_max):
            for mat, on_group, tag in (
                    (self.s_mats[n],
                     lambda g, n=n: cat.sigma_upper_on_group(
                         g, self.obj(n), self.x), "upper"),
                    (self.sigma_mat(n),
                     lambda g, n=n: cat.sigma_lower_on_group(
                         g, self.A, self.x, n), "lower")):
                check_equivariant(
                    mat, self.modules[n], self.modules[n + 1], on_group,
                    f"{tag} suspension not equivariant for the "
                    f"internalized action at level {n}")


def internalize(F: CoefficientSystem, limit: AbelianizationLimit,
                star) -> InternalizedSystem:
    """Twist F by the translation action of G_inf^ab.

    ``star`` gives, per level n, one matrix on F_n for each canonical
    generator of the limit; the internalized action of a generator g of
    G_n on F_n is act_n(g) followed by translation by s_n(g).  The
    structure maps are unchanged.
    """
    factors = limit.limit.orders
    if limit.limit.free_rank:
        raise ValueError("internalization needs a finite limit")
    if not limit.s_maps:
        raise ValueError("abelianization limit was not detected")
    if len(limit.s_maps) <= F.n_max:
        raise ValueError(
            f"the abelianization limit maps levels 0..{len(limit.s_maps) - 1}"
            f" only; internalizing levels 0..{F.n_max} needs n_probe >= "
            f"n_max")

    def star_word(n, coords):
        mat = identity_matrix(F.rank(n))
        for kk, c in enumerate(coords):
            e = c % factors[kk]
            for _ in range(e):
                mat = product_mod(star[n][kk], mat, F.orders(n))
        return mat

    mods = []
    for n in range(F.n_max + 1):
        smap = limit.s_maps[n]
        gen_action = {
            g: product_mod(F.modules[n].act(g), star_word(n, smap[g]),
                           F.orders(n))
            for g in F.group(n).generators}
        mods.append(GModule(F.group(n), F.modules[n].underlying,
                            gen_action, name=f"({F.name})^int_{n}"))
    return InternalizedSystem(F, limit, star, mods)


# ----------------------------------------------------------------------
# builtin systems


def constant_system(cat: BracketCategory, A: int, x: int, n_max: int,
                    rank: int = 1, torsion: tuple = ()) -> CoefficientSystem:
    under = FGAbelianGroup(rank - len(torsion), tuple(torsion))
    ident = identity_matrix(under.rank)
    mods = []
    for n in range(n_max + 1):
        grp = cat.G.aut(A + n * x)
        mods.append(GModule(grp, under,
                            {g: ident for g in grp.generators},
                            name=f"const_{n}"))
    return CoefficientSystem(cat, A, x, n_max, mods,
                             [ident for _ in range(n_max)], name="const")


def standard_system(cat: BracketCategory, A: int, n_max: int
                    ) -> CoefficientSystem:
    """The permutation system Z^{A+n} over the symmetric groupoid, with
    structure maps including as the first coordinates."""
    if cat.G.name != "symmetric":
        raise ValueError("standard system is defined over the symmetric "
                         "groupoid")
    mods, s_mats = [], []
    for n in range(n_max + 1):
        size = A + n
        mods.append(permutation_module(cat.G.aut(size), size))
        if n < n_max:
            s_mats.append([[1 if i == j else 0 for j in range(size)]
                           for i in range(size + 1)])
    return CoefficientSystem(cat, A, 1, n_max, mods, s_mats, name="std")


def tensor_power(F: CoefficientSystem, p: int) -> CoefficientSystem:
    """p-th tensor power of a torsion-free system."""
    if p < 1:
        raise ValueError("tensor power needs p >= 1")
    if any(o for n in range(F.n_max + 1) for o in F.orders(n)):
        raise ValueError("tensor powers implemented for free systems only")

    def power(m):
        out = m
        for _ in range(p - 1):
            out = _kron(out, m)
        return out

    mods, s_mats = [], []
    for n in range(F.n_max + 1):
        gen_action = {g: power(F.modules[n].act(g))
                      for g in F.group(n).generators}
        mods.append(GModule(F.group(n),
                            FGAbelianGroup(F.rank(n) ** p, ()),
                            gen_action, name=f"({F.name})x{p}_{n}"))
        if n < F.n_max:
            s_mats.append(power(F.s_mats[n]))
    return CoefficientSystem(F.cat, F.A, F.x, F.n_max, mods, s_mats,
                             name=f"{F.name}^(x{p})")


def abelian_constant_system(cat: BracketCategory, A: int, x: int,
                            n_max: int, limit: AbelianizationLimit,
                            subgroup=()):
    """The constant system Z[Q], Q = limit / <subgroup>, together with
    the translation star-action used by internalization.  Each subgroup
    entry lists one integer per invariant factor of the limit: its
    coordinates over the canonical generators of H_1(G_top).

    Returns (system, star) ready to feed ``internalize``.
    """
    fg = limit.limit
    if fg.free_rank:
        raise ValueError("group-ring systems need a finite limit")
    factors = tuple(fg.torsion)
    if not isinstance(subgroup, (list, tuple)) or not all(
            isinstance(s, (list, tuple)) and len(s) == len(factors)
            and all(type(c) is int for c in s) for s in subgroup):
        raise ValueError(
            f"subgroup {subgroup!r}: each entry must list "
            f"{len(factors)} integers, one per invariant factor of the "
            f"limit {fg}")
    sub = _coords_closure(list(subgroup), factors) if subgroup else \
        {tuple(0 for _ in factors)}

    def coset(a):
        return min(coords_add(a, s, factors) for s in sub)

    reps = sorted({coset(a)
                   for a in itertools.product(*map(range, factors))})
    idx = {r: i for i, r in enumerate(reps)}
    q = len(reps)

    def translation(c):
        mat = [[0] * q for _ in range(q)]
        for r in reps:
            mat[idx[coset(coords_add(c, r, factors))]][idx[r]] = 1
        return mat

    system = constant_system(cat, A, x, n_max, rank=q)
    system.name = "Z[Q]"
    star = [[translation(tuple(1 if i == j else 0
                               for i in range(len(factors))))
             for j in range(len(factors))]
            for _ in range(n_max + 1)]
    return system, star
