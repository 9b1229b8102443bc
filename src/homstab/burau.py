"""The Burau system over the braid groups, with its Laurent algebra.

The braid groups B_n are infinite, so the Burau system is no
`coeffsys.CoefficientSystem`: no group is enumerated and no module is
finitely generated over Z.  Level n carries Z[t, t^-1]^n, sigma_i acts
by the unreduced Burau matrix, and only the degree run reads it
(`BurauSystem.degree_profile`); stability and homology grids refuse it.
`verifier.build_system` imports this module in its `burau` branch only,
so no other run loads it.

Laurent polynomials are sparse dicts {exponent: coefficient} with no
explicit zeros, and matrices are lists of rows of them.  The linear
algebra is deliberately structural: multiplication, identity, and
Gaussian elimination restricted to unit pivots (+-t^k), with row
transforms tracked.  That is enough to decide kernels and cokernels of
split structural maps; there is no Laurent SNF.
"""

from __future__ import annotations

from .coeffsys import DegreeProfile, _check_window


def lp(*terms) -> dict:
    """Laurent polynomial from (exp, coeff) pairs."""
    out = {}
    for e, c in terms:
        v = out.get(e, 0) + c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


L_ONE = lp((0, 1))


def l_add(a, b):
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def l_neg(a):
    return {e: -c for e, c in a.items()}

def l_sub(a, b):
    return l_add(a, l_neg(b))


def l_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            v = out.get(e, 0) + c1 * c2
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def l_unit_inverse(a):
    """Inverse of a unit +-t^k; None when a is not a unit."""
    if len(a) != 1:
        return None
    (e, c), = a.items()
    if c not in (1, -1):
        return None
    return {-e: c}


# ----------------------------------------------------------------------
# matrices: list of rows, entries Laurent dicts


def lm_zero(rows, cols):
    return [[{} for _ in range(cols)] for _ in range(rows)]


def lm_identity(n):
    return [[dict(L_ONE) if i == j else {} for j in range(n)]
            for i in range(n)]


def lm_mul(A, B):
    rows = len(A)
    inner = len(B)
    cols = len(B[0]) if inner else 0
    out = lm_zero(rows, cols)
    for i in range(rows):
        Ai = A[i]
        for k in range(inner):
            a = Ai[k]
            if not a:
                continue
            Bk = B[k]
            for j in range(cols):
                if Bk[j]:
                    out[i][j] = l_add(out[i][j], l_mul(a, Bk[j]))
    return out


class UnitElimination:
    """Row reduction of a Laurent matrix using unit pivots only.

    Tracks the row transform U and its inverse so that U @ M has an
    identity block in the pivot rows/columns.  Raises ValueError when no
    unit pivot is available but nonzero entries remain: such matrices
    are outside the structural fragment this module supports.
    """

    def __init__(self, M):
        self.nrows = len(M)
        self.ncols = len(M[0]) if M else 0
        self.R = [row[:] for row in M]
        self.U = lm_identity(self.nrows)
        self.Uinv = lm_identity(self.nrows)
        self.pivots: list[tuple[int, int]] = []   # (row, col)
        self._run()

    def _row_op(self, i, j, q):
        """row_i -= q * row_j, mirrored in U; inverse op on Uinv cols."""
        for k in range(self.ncols):
            if self.R[j][k]:
                self.R[i][k] = l_sub(self.R[i][k], l_mul(q, self.R[j][k]))
        for k in range(self.nrows):
            if self.U[j][k]:
                self.U[i][k] = l_sub(self.U[i][k], l_mul(q, self.U[j][k]))
            if self.Uinv[k][i]:
                self.Uinv[k][j] = l_add(self.Uinv[k][j],
                                        l_mul(q, self.Uinv[k][i]))

    def _scale_row(self, i, u, uinv):
        for k in range(self.ncols):
            if self.R[i][k]:
                self.R[i][k] = l_mul(u, self.R[i][k])
        for k in range(self.nrows):
            if self.U[i][k]:
                self.U[i][k] = l_mul(u, self.U[i][k])
            if self.Uinv[k][i]:
                self.Uinv[k][i] = l_mul(uinv, self.Uinv[k][i])

    def _swap_rows(self, i, j):
        self.R[i], self.R[j] = self.R[j], self.R[i]
        self.U[i], self.U[j] = self.U[j], self.U[i]
        for k in range(self.nrows):
            self.Uinv[k][i], self.Uinv[k][j] = \
                self.Uinv[k][j], self.Uinv[k][i]

    def _run(self):
        used_rows: set[int] = set()
        for col in range(self.ncols):
            # find a unit entry in an unused row
            hit = None
            for r in range(self.nrows):
                if r in used_rows or not self.R[r][col]:
                    continue
                inv = l_unit_inverse(self.R[r][col])
                if inv is not None:
                    hit = (r, inv)
                    break
            if hit is None:
                if any(r not in used_rows and self.R[r][col]
                       for r in range(self.nrows)):
                    raise ValueError(
                        "no unit pivot available; matrix outside the "
                        "structural fragment")
                continue
            r, inv = hit
            self._scale_row(r, inv, self.R[r][col])
            # now pivot entry is exactly 1... recompute inverse scale
            for other in range(self.nrows):
                if other != r and self.R[other][col]:
                    self._row_op(other, r, self.R[other][col])
            used_rows.add(r)
            self.pivots.append((r, col))
        # move pivot rows to the top, in column order
        for t, (r, _c) in enumerate(sorted(self.pivots,
                                           key=lambda rc: rc[1])):
            if r != t:
                self._swap_rows(r, t)
                self.pivots = [(t if rr == r else (r if rr == t else rr), cc)
                               for rr, cc in self.pivots]
        self.pivots.sort(key=lambda rc: rc[1])

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def kernel_trivial(self) -> bool:
        """True iff the column map has zero kernel (full column rank)."""
        return self.rank == self.ncols

    def cokernel_rank(self) -> int:
        """Rank of the (free) cokernel; valid because elimination
        succeeded with unit pivots only."""
        return self.nrows - self.rank


# ----------------------------------------------------------------------
# the Burau system


def _burau_gen(n, i, inverse=False):
    """Unreduced Burau matrix of sigma_i (1-based) in B_n."""
    mat = lm_identity(n)
    a = i - 1
    if inverse:
        mat[a][a] = {}
        mat[a][a + 1] = dict(L_ONE)
        mat[a + 1][a] = lp((-1, 1))
        mat[a + 1][a + 1] = lp((0, 1), (-1, -1))
    else:
        mat[a][a] = lp((0, 1), (1, -1))
        mat[a][a + 1] = lp((1, 1))
        mat[a + 1][a] = dict(L_ONE)
        mat[a + 1][a + 1] = {}
    return mat


class BurauSystem:
    """The Burau coefficient system over the braid groups.

    Level n carries Z[t, t^{-1}]^n with sigma_i acting by the unreduced
    Burau matrix; the structure map is inclusion as the first n
    coordinates.  All linear algebra stays in the unit-pivot structural
    fragment of Laurent matrices.
    """

    def __init__(self, n_max: int):
        self.n_max = n_max
        self.name = "burau"
        self._images: dict[int, dict] = {}

    def rank(self, n: int) -> int:
        return n

    def module_trivial(self, n: int) -> bool:
        return n == 0

    def images(self, n: int) -> dict:
        """{i: Burau matrix of sigma_i, -i: of its inverse} in B_n."""
        if n not in self._images:
            img = {}
            for i in range(1, n):
                img[i] = _burau_gen(n, i)
                img[-i] = _burau_gen(n, i, inverse=True)
            self._images[n] = img
        return self._images[n]

    def act_word(self, n: int, word):
        """Matrix of a signed 1-based word in the generators of B_n."""
        images = self.images(n)
        out = lm_identity(n)
        for letter in word:
            out = lm_mul(out, images[letter])
        return out

    def s_mat(self, n: int):
        return [[dict(L_ONE) if i == j else {} for j in range(n)]
                for i in range(n + 1)]

    @staticmethod
    def _bn1_word(n: int):
        """Block braiding b_{n,1} in B_{n+1} via the hexagon recursion
        b_{n,1} = (b_{1,1} + id) . (id + b_{n-1,1})."""
        return tuple(range(1, n + 1))

    def can_step(self, n: int):
        """F of the canonical morphism [x, id] : n -> n+1; with the
        complement in the left block this is act(b_{n,1}) . s_n."""
        return lm_mul(self.act_word(n + 1, self._bn1_word(n)),
                      self.s_mat(n))

    def sigma_mat(self, n: int, shift: int = 0):
        """Matrix of F(Sigma_X^shift sigma_{X,n}).

        sigma_{X,n} = [x, id] is canonical, and each application of
        Sigma_X shifts the rep by one strand and appends sigma_1^{-1},
        giving the rep word (-shift, ..., -1) at level n + shift."""
        word = tuple(range(-shift, 0))
        return lm_mul(self.act_word(n + shift + 1, word),
                      self.can_step(n + shift))

    def degree_profile(self, r_max: int, N_max: int) -> DegreeProfile:
        """Degree within the structural fragment: sigma_X components are
        eliminated with unit pivots; the cokernel tower must become a
        system of isomorphisms (constant-like) within two steps."""
        _check_window(self.n_max, r_max, N_max)
        if all(self.module_trivial(n) for n in range(N_max, self.n_max + 1)):
            return DegreeProfile("ok", -1, N_max, self.n_max)
        if r_max < 0:
            return DegreeProfile("exceeds", None, None, self.n_max)
        elims = []
        for n in range(self.n_max):
            e = UnitElimination(self.sigma_mat(n))
            if not e.kernel_trivial():
                return DegreeProfile("exceeds", None, None, self.n_max)
            elims.append(e)
        coker_ranks = [e.cokernel_rank() for e in elims]
        t = self.n_max
        for n in range(self.n_max - 1, -1, -1):
            if coker_ranks[n] == 0:
                t = n
            else:
                break
        if t <= N_max:
            return DegreeProfile("ok", 0, t, self.n_max)
        if r_max < 1:
            return DegreeProfile("exceeds", None, None, self.n_max)
        # induced map on cokernels of the suspended sigma component;
        # it must be an isomorphism at every window level
        for n in range(self.n_max - 1):
            amb = self.sigma_mat(n, shift=1)     # F_{n+1} -> F_{n+2}
            t_mat = lm_mul(lm_mul(elims[n + 1].U, amb), elims[n].Uinv)
            r_src, r_dst = elims[n].rank, elims[n + 1].rank
            for i in range(r_dst, len(t_mat)):
                for j in range(r_src):
                    if t_mat[i][j]:
                        return DegreeProfile("exceeds", None, None,
                                             self.n_max)
            block = [row[r_src:] for row in t_mat[r_dst:]]
            if len(block) != len(block[0] if block else []):
                return DegreeProfile("exceeds", None, None, self.n_max)
            e2 = UnitElimination(block)
            if not (e2.kernel_trivial() and e2.cokernel_rank() == 0):
                return DegreeProfile("exceeds", None, None, self.n_max)
        return DegreeProfile("ok", 1, 0, self.n_max)
