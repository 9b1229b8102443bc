"""Exact integer linear algebra over Z.

Everything here is exact.  Spans, kernels modulo relations and integer
solves are one sparse row Hermite form (`LatticeSpan`): a kernel or a
solve reads the span of the tagged columns (A e_j ; e_j).  The Smith
normal form keeps only the row transforms U and Uinv.

A presented abelian group is given by its orders: generator i has order
orders[i], 0 meaning Z, as in `FGAbelianGroup.orders` (torsion first,
then 0 per free generator).  Callers pass orders, never relations; the
relations orders[i] * e_i = 0 are built here alone.  Omitted orders
mean Z in every row.

`presented_subquotient` is the one routine for presented abelian groups:
every homology group, kernel, cokernel and subquotient is computed by
it.  `map_homology` is its form for dense maps A --f--> B --g--> C: the
LES defects, the kernels and cokernels of coefficient systems and the
epi/iso verdicts of `classify_induced` all read it.  `reduce_unit_pairs`
shrinks a chain complex by its +-1 pairs before it gets there, and its
`Transport`s carry cycles and induced maps across the reduction.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field


def xgcd(a: int, b: int):
    """Return (g, x, y) with g = gcd(a, b) = a*x + b*y, g >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


# ------------------------------------------------------------------
# sparse column matrices


class SparseCols:
    """Integer matrix stored as a list of sparse columns (dict row -> value)."""

    __slots__ = ("nrows", "cols")

    def __init__(self, nrows: int, cols: list[dict[int, int]]):
        self.nrows = nrows
        self.cols = cols

    @property
    def ncols(self) -> int:
        return len(self.cols)

    @classmethod
    def from_dense(cls, rows: list[list[int]], ncols: int) -> "SparseCols":
        """The dense matrix `rows`; ncols is explicit because a matrix
        without rows still has columns."""
        nrows = len(rows)
        cols = [{} for _ in range(ncols)]
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if v:
                    cols[j][i] = int(v)
        return cls(nrows, cols)

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "SparseCols":
        return cls(nrows, [{} for _ in range(ncols)])

    def to_dense(self) -> list[list[int]]:
        out = [[0] * self.ncols for _ in range(self.nrows)]
        for j, col in enumerate(self.cols):
            for i, v in col.items():
                out[i][j] = v
        return out

    def apply(self, vec: dict[int, int]) -> dict[int, int]:
        """Matrix-vector product on a sparse vector (vec indexes columns)."""
        out: dict[int, int] = {}
        for j, c in vec.items():
            if c:
                _submul(out, self.cols[j], -c)
        return out

    def compose(self, other: "SparseCols") -> "SparseCols":
        """self @ other (apply other first)."""
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch in compose")
        return SparseCols(self.nrows, [self.apply(c) for c in other.cols])

    def __eq__(self, other) -> bool:
        return (isinstance(other, SparseCols) and self.nrows == other.nrows
                and self.cols == other.cols)


# ------------------------------------------------------------------
# dense integer matrices (lists of rows) over presented groups: row i
# lives in Z/orders[i], order 0 meaning Z


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    """A @ B for rectangular dense integer matrices."""
    m, k = len(A), len(B)
    n = len(B[0]) if k else 0
    out = [[0] * n for _ in range(m)]
    for i in range(m):
        Ai = A[i]
        Oi = out[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                for j in range(n):
                    if Bt[j]:
                        Oi[j] += a * Bt[j]
    return out


def reduce_rows(mat, orders):
    """Copy of mat with row i reduced modulo orders[i]."""
    return [[x % o for x in row] if o else row[:]
            for row, o in zip(mat, orders)]


def product_mod(A, B, orders):
    """A @ B with row i reduced modulo orders[i]."""
    return reduce_rows(mat_mul(A, B), orders)


def rows_congruent(a, b, orders) -> bool:
    """a == b with row i compared modulo orders[i]."""
    for o, ra, rb in zip(orders, a, b):
        for x, y in zip(ra, rb):
            d = x - y
            if (d % o if o else d) != 0:
                return False
    return True


def _relation_columns(orders) -> list[dict[int, int]]:
    """The relations orders[i] * e_i = 0 of a presented group, as sparse
    columns in row order (free rows give none; None: no rows)."""
    return [{i: o} for i, o in enumerate(orders or ()) if o]


# ------------------------------------------------------------------
# Smith normal form (arbitrary precision, with row transforms)


@dataclass
class SNFResult:
    factors: list[int]        # nonzero diagonal, d_1 | d_2 | ...
    rank: int
    nrows: int
    ncols: int
    U: list[list[int]]        # U @ M @ V = D for a unimodular V not kept
    Uinv: list[list[int]]


def smith_normal_form(mat):
    """SNF of an integer matrix (dense list of rows or SparseCols), with
    the row transform U and its inverse.

    Pivot choice is the smallest nonzero magnitude with ties broken by
    (row, col), so the transforms are deterministic.
    """
    if isinstance(mat, SparseCols):
        A = mat.to_dense()
    else:
        A = [list(map(int, row)) for row in mat]
    m = len(A)
    n = len(A[0]) if m else 0
    U = identity_matrix(m)
    Uinv = identity_matrix(m)

    def row_op(i, j, q):
        # row_i -= q * row_j ; mirror on U, inverse op on Uinv columns
        Ai, Aj = A[i], A[j]
        for k in range(n):
            Ai[k] -= q * Aj[k]
        Ui, Uj = U[i], U[j]
        for k in range(m):
            Ui[k] -= q * Uj[k]
        for r in range(m):
            Uinv[r][j] += q * Uinv[r][i]

    def col_op(j, i, q):
        # col_j -= q * col_i
        for r in range(m):
            A[r][j] -= q * A[r][i]

    def swap_rows(i, j):
        if i == j:
            return
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]
        for r in range(m):
            Uinv[r][i], Uinv[r][j] = Uinv[r][j], Uinv[r][i]

    def swap_cols(i, j):
        if i == j:
            return
        for r in range(m):
            A[r][i], A[r][j] = A[r][j], A[r][i]

    def negate_row(i):
        for k in range(n):
            A[i][k] = -A[i][k]
        for k in range(m):
            U[i][k] = -U[i][k]
        for r in range(m):
            Uinv[r][i] = -Uinv[r][i]

    t = 0
    while True:
        # find pivot: smallest |value| among A[t:, t:], ties by (row, col)
        best = None
        for i in range(t, m):
            Ai = A[i]
            for j in range(t, n):
                v = Ai[j]
                if v:
                    a = abs(v)
                    if best is None or a < best[0]:
                        best = (a, i, j)
                        if a == 1:
                            break
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, bi, bj = best
        swap_rows(t, bi)
        swap_cols(t, bj)
        # clear row and column t
        while True:
            progress = False
            for i in range(t + 1, m):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    if q:
                        row_op(i, t, q)
                    if A[i][t]:
                        swap_rows(t, i)
                        progress = True
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    if q:
                        col_op(j, t, q)
                    if A[t][j]:
                        swap_cols(t, j)
                        progress = True
            if not progress:
                break
        if A[t][t] < 0:
            negate_row(t)
        t += 1
        if t >= m or t >= n:
            break

    # enforce divisibility chain d_i | d_{i+1}
    rank = t
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            a, b = A[i][i], A[i + 1][i + 1]
            if b % a:
                # standard 2x2 fix: gcd and lcm on the diagonal
                g = math.gcd(a, b)
                lcm = a // g * b
                # (i) col_i += col_{i+1}; (ii) clear via row/col ops
                for r in range(m):
                    A[r][i] += A[r][i + 1]
                # now rows i, i+1 of the 2x2 block are (a, 0), (b, b)
                while True:
                    p, q = A[i][i], A[i + 1][i]
                    if q == 0:
                        break
                    k = q // p
                    if k:
                        row_op(i + 1, i, k)
                    if A[i + 1][i]:
                        swap_rows(i, i + 1)
                # clear fill in row i at column i+1
                p = A[i][i]
                q = A[i][i + 1]
                if q % p == 0:
                    col_op(i + 1, i, q // p)
                if A[i][i] < 0:
                    negate_row(i)
                if A[i + 1][i + 1] < 0:
                    negate_row(i + 1)
                assert abs(A[i][i]) == g and abs(A[i + 1][i + 1]) == lcm
                changed = True

    factors = [A[i][i] for i in range(rank)]
    return SNFResult(factors=factors, rank=rank, nrows=m, ncols=n,
                     U=U, Uinv=Uinv)


# ------------------------------------------------------------------
# column-span lattice basis (row Hermite form), sparse exact elimination


class LatticeSpan:
    """Row-HNF basis of a sublattice of Z^dim, built incrementally.

    Rows are sparse dicts (index -> value, nonzero entries only) keyed
    by their leading index.  A new or changed row is reduced against the
    later pivots and its column is cleared in the earlier rows, so
    entries above unit pivots vanish and the rows of sparse inputs such
    as bar boundaries stay sparse.  normalize() finishes the unique
    reduced row HNF.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: dict[int, dict[int, int]] = {}

    def rank(self) -> int:
        return len(self.rows)

    def insert(self, vec) -> bool:
        """Add a vector to the lattice; returns True if the span grew
        or the basis changed."""
        v = self._to_sparse(vec)
        rows = self.rows
        changed = False
        while v:
            i = min(v)
            row = rows.get(i)
            if row is None:
                if v[i] < 0:
                    v = {k: -x for k, x in v.items()}
                rows[i] = v
                self._reduce_row_tail(i)
                self._clear_column(i)
                return True
            a = row[i]
            q = v[i] // a
            if q:
                _submul(v, row, q)
            r = v.get(i)
            if r:
                # combine row and vector so the pivot becomes gcd(a, r)
                g, x, y = xgcd(a, r)
                rows[i] = _comb(row, x, v, y)
                v = _comb(v, a // g, row, -(r // g))
                self._reduce_row_tail(i)
                self._clear_column(i)
                changed = True
        return changed

    def _to_sparse(self, vec) -> dict[int, int]:
        if isinstance(vec, dict):
            return {i: int(x) for i, x in vec.items() if x}
        v = [int(x) for x in vec]
        if len(v) != self.dim:
            raise ValueError("vector length mismatch")
        return {i: x for i, x in enumerate(v) if x}

    def _reduce(self, v: dict[int, int], lo: int) -> None:
        """Reduce v in place against every pivot after index lo, in
        increasing pivot order; each reduced entry ends in [0, d)."""
        rows = self.rows
        todo = [j for j in v if j > lo and j in rows]
        heapq.heapify(todo)
        while todo:
            j = heapq.heappop(todo)
            c = v.get(j)
            if not c:
                continue
            row = rows[j]
            q = c // row[j]
            if not q:
                continue
            for k, x in row.items():
                old = v.get(k)
                w = (old or 0) - q * x
                if w:
                    if old is None and k in rows:
                        heapq.heappush(todo, k)
                    v[k] = w
                else:
                    del v[k]

    def _reduce_row_tail(self, i):
        self._reduce(self.rows[i], i)

    def _clear_column(self, i):
        row = self.rows[i]
        d = row[i]
        for p, other in self.rows.items():
            if p < i:
                c = other.get(i)
                if c:
                    q = c // d
                    if q:
                        _submul(other, row, q)

    def reduce(self, vec) -> dict[int, int]:
        """Residue of vec modulo the lattice (HNF reduction), as a sparse
        dict of its nonzero entries."""
        v = self._to_sparse(vec)
        self._reduce(v, -1)
        return v

    def basis(self) -> list[tuple[int, dict[int, int]]]:
        """(lead, row) pairs in increasing lead order; rows are copies."""
        return [(p, dict(self.rows[p])) for p in sorted(self.rows)]

    def normalize(self) -> None:
        """Full HNF reduction: every off-pivot entry above a pivot is
        reduced into [0, d).  Reducing each row's tail in increasing
        column order suffices: a later step only touches later columns."""
        for i in self.rows:
            self._reduce_row_tail(i)


def span_columns(mat, dim: int | None = None) -> LatticeSpan:
    """Lattice spanned by the columns of mat (SparseCols or iterable of
    sparse dict columns), in normalized row HNF."""
    if isinstance(mat, SparseCols):
        cols, dim = mat.cols, mat.nrows
    else:
        cols = mat
        if dim is None:
            raise ValueError("dim required for raw column lists")
    span = LatticeSpan(dim)
    for col in cols:
        span.insert(col)
    span.normalize()
    return span


# ------------------------------------------------------------------
# kernels and integer solves from one tagged span


def _tagged_span(cols, nrows: int, orders) -> LatticeSpan:
    """Span of (c_j ; e_j) for the columns c_j of cols and (r ; 0) for
    the relations r of orders, inside Z^(nrows + len(cols))."""
    tagged = [{**c, nrows + j: 1} for j, c in enumerate(cols)]
    return span_columns(tagged + _relation_columns(orders),
                        dim=nrows + len(cols))


def kernel_columns(mat: SparseCols, orders=None
                   ) -> tuple[list[dict[int, int]], list[int]]:
    """Lattice of the v in Z^ncols with mat(v) = 0, row i of the target
    taken modulo orders[i]: the kernel of mat when orders is omitted.

    Returns (basis, leads): the reduced HNF basis of that lattice as
    sparse dicts over column indices, with basis[t][leads[t]] > 0 the
    leading entry.  The HNF rows of the tagged span that lead past its
    first nrows coordinates are exactly the rows (0 ; v) of this basis.
    Coordinates of a vector in it come from forward substitution (see
    :func:`triangular_coords`).
    """
    m = mat.nrows
    rows = _tagged_span(mat.cols, m, orders).rows
    leads = [p for p in sorted(rows) if p >= m]
    return ([{i - m: x for i, x in rows[p].items()} for p in leads],
            [p - m for p in leads])


def solve_integer(cols, rhs, nrows: int, orders=None) -> list[int] | None:
    """One x over Z with sum_j x_j cols[j] = rhs, row i modulo orders[i],
    or None if there is none.

    cols are sparse columns in Z^nrows, rhs a dense vector.  Reducing
    (rhs ; 0) by the tagged span of :func:`kernel_columns` leaves
    (0 ; -x) exactly when the system is solvable.
    """
    resid = _tagged_span(cols, nrows, orders).reduce(
        {i: b for i, b in enumerate(rhs) if b})
    if any(i < nrows for i in resid):
        return None
    x = [0] * len(cols)
    for i, v in resid.items():
        x[i - nrows] = -v
    return x


def triangular_coords(vec: dict[int, int], basis, leads) -> list[int]:
    """Coordinates of vec in a triangular lattice basis; raises ValueError
    if vec is not in the lattice."""
    resid = {i: x for i, x in vec.items() if x}
    out = []
    for lead, bvec in zip(leads, basis):
        r = resid.get(lead, 0)
        d = bvec[lead]
        q, rem = divmod(r, d)
        if rem:
            raise ValueError("vector not in lattice (division failure)")
        out.append(q)
        if q:
            _submul(resid, bvec, q)
    if resid:
        raise ValueError("vector not in lattice (nonzero residue)")
    return out


def _submul(e, f, q):
    """e -= q * f in place on sparse dicts, dropping zeros."""
    for k, x in f.items():
        w = e.get(k, 0) - q * x
        if w:
            e[k] = w
        else:
            e.pop(k, None)


def _comb(e, a, f, b):
    """a * e + b * f of sparse dicts, without zeros."""
    out = {}
    if a:
        for k, x in e.items():
            out[k] = a * x
    for k, x in f.items():
        w = out.get(k, 0) + b * x
        if w:
            out[k] = w
        else:
            out.pop(k, None)
    return out


# ------------------------------------------------------------------
# finitely generated abelian groups and subquotients


@dataclass(frozen=True)
class FGAbelianGroup:
    """Invariant-factor form: Z^free_rank + sum Z/d_i with d_1 | d_2 | ..."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        for i, d in enumerate(self.torsion):
            assert d > 1, "torsion factors must exceed 1"
            if i:
                assert d % self.torsion[i - 1] == 0, "need d_i | d_{i+1}"

    @property
    def orders(self) -> list[int]:
        """Order of each canonical generator, torsion first, then 0 (Z)
        for each free one: the presentation every caller passes."""
        return list(self.torsion) + [0] * self.free_rank

    @property
    def rank(self) -> int:
        """Number of canonical generators."""
        return len(self.torsion) + self.free_rank

    def order(self):
        if self.free_rank:
            return None
        return math.prod(self.torsion) if self.torsion else 1

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


@dataclass
class Subquotient:
    """Presentation of ker(out)/im(in) inside an ambient Z^ambient_dim.

    Canonical generators are listed torsion-first in divisibility order,
    then free generators.  `project` takes an ambient cycle to canonical
    coordinates; `lift` returns an ambient representative, both through
    the `Transport` of a level reduced by its unit pairs, if any.
    """

    ambient_dim: int
    group: FGAbelianGroup
    # triangular HNF basis of the cycle lattice, with leading indices
    leads: list[int]
    kernel_basis: list[dict[int, int]]
    # row transforms: w = U @ y maps kernel coords to SNF coords
    U: list[list[int]]
    Uinv: list[list[int]]
    factors: list[int]            # full SNF diagonal of the image lattice
    torsion_pos: list[int] = field(default_factory=list)
    free_pos: list[int] = field(default_factory=list)
    transport: Transport | None = None

    def kernel_rank(self) -> int:
        return len(self.leads)

    def _kernel_coords(self, vec: dict[int, int]) -> list[int]:
        try:
            return triangular_coords(vec, self.kernel_basis, self.leads)
        except ValueError as exc:
            raise ValueError("vector is not a cycle for this subquotient") from exc

    def project(self, vec: dict[int, int]) -> tuple[int, ...]:
        if self.transport is not None:
            vec = self.transport.project(vec)
        y = self._kernel_coords(vec)
        k = self.kernel_rank()
        w = [sum(self.U[r][c] * y[c] for c in range(k)) for r in range(k)]
        out = []
        for p in self.torsion_pos:
            out.append(w[p] % self.factors[p])
        for p in self.free_pos:
            out.append(w[p])
        return tuple(out)

    def lift(self, gen_index: int) -> dict[int, int]:
        """Ambient representative of the gen_index-th canonical generator."""
        pos = (self.torsion_pos + self.free_pos)[gen_index]
        k = self.kernel_rank()
        out: dict[int, int] = {}
        for c in range(k):
            if self.Uinv[c][pos]:
                _submul(out, self.kernel_basis[c], -self.Uinv[c][pos])
        return out if self.transport is None else self.transport.lift(out)


def presented_subquotient(d_out: SparseCols, d_in: SparseCols,
                          orders_out=None, orders_here=None) -> Subquotient:
    """ker/im homology where the chain levels are presented groups.

    With d_out: Z^n -> Z^m and d_in: Z^p -> Z^n, the target of d_out
    presented by orders_out and the middle level by orders_here (either
    omitted: Z in every row), cycles are the v with d_out(v) = 0 and
    boundaries are im(d_in), both modulo the relations.  Kernels (d_in
    zero), cokernels (d_out zero) and homology are all special cases.
    """
    n = d_out.ncols
    if d_in.nrows != n:
        raise ValueError("chain level dimension mismatch")
    kbasis, leads = kernel_columns(d_out, orders_out)
    image = span_columns(SparseCols(
        n, list(d_in.cols) + _relation_columns(orders_here)))
    return assemble_subquotient(n, kbasis, leads, image)


def map_homology(f, g, orders_a, orders_b, orders_c) -> Subquotient:
    """Homology ker g / im f at B of A --f--> B --g--> C, for dense
    integer matrices f and g (lists of rows; [] is the zero map) between
    the groups presented by orders_a, orders_b and orders_c.

    The sequence is exact at B iff the group is trivial; the kernel of g
    is the case A = 0 and the cokernel of f the case C = 0.
    """
    nb = len(orders_b)
    d_in = SparseCols(nb, SparseCols.from_dense(f, len(orders_a)).cols)
    d_out = SparseCols(len(orders_c), SparseCols.from_dense(g, nb).cols)
    return presented_subquotient(d_out, d_in, orders_c, orders_b)


def check_composable(d_out: SparseCols, d_in: SparseCols,
                     orders=None) -> None:
    """Raise ValueError unless d_out @ d_in is defined and zero, row r of
    its target taken modulo orders[r] (omitted: Z in every row)."""
    if d_in.nrows != d_out.ncols:
        raise ValueError("chain level dimension mismatch")
    orders = orders or [0] * d_out.nrows
    for col in d_in.cols:
        for r, v in d_out.apply(col).items():
            if v % orders[r] if orders[r] else v:
                raise ValueError("boundary of boundary is nonzero")


def homology_of_pair(d_out: SparseCols, d_in: SparseCols) -> Subquotient:
    """ker(d_out) / im(d_in) where d_out: Z^n -> Z^m, d_in: Z^p -> Z^n.

    Asserts d_out @ d_in == 0.
    """
    check_composable(d_out, d_in)
    return presented_subquotient(d_out, d_in, [], [])


@dataclass
class Transport:
    """The chain maps pi: C_p -> C'_p and iota: C'_p -> C_p of a level and
    what `reduce_unit_pairs` leaves of it.  project (pi) clears each row a
    of a pair (b', a) of the level above by x -= x_a u d b', in
    elimination order, then drops the removed cells; lift (iota) sets
    each b paired here, in reverse order, to -u sum_c lam_c x_c over the
    lam_c = <d c, a> its elimination cancelled (Kaczynski-Mrozek-
    Slusarek; Skoldberg, Morse theory from an algebraic viewpoint)."""

    kept: list[int] = field(default_factory=list)   # cells of C'_p
    clears: list = field(default_factory=list)      # (a, u, d b')
    restores: list = field(default_factory=list)    # (b, a, u, {c: lam_c})

    def project(self, vec: dict[int, int]) -> dict[int, int]:
        v = dict(vec)
        for a, u, db in self.clears:
            x = v.get(a)
            if x:
                _submul(v, db, x * u)
        return {j: v[r] for j, r in enumerate(self.kept) if v.get(r)}

    def lift(self, vec: dict[int, int]) -> dict[int, int]:
        v = {self.kept[j]: x for j, x in vec.items() if x}
        for b, _, u, lam in reversed(self.restores):
            small, big = (v, lam) if len(v) < len(lam) else (lam, v)
            s = sum(big.get(c, 0) * x for c, x in small.items())
            if s:
                v[b] = -u * s
        return v


def reduce_unit_pairs(boundaries: list[SparseCols],
                      orders: list[list[int]]) -> list[Transport]:
    """Reduce a chain complex in place to a smaller one with the same
    homology below its top, and return the chain maps between the two.

    boundaries[p] is d_p: C_p -> C_{p-1}, no two columns the same dict,
    and orders[p] the orders of its rows (0 = Z), with d_{p-1} d_p = 0
    modulo them; the complex ends at C_m, m = len(boundaries) - 1.
    Level by level from the bottom, a pair (b in C_p, a in C_{p-1}) with
    <d b, a> = u = +-1 and a of order 0 is removed: every other c of C_p
    with <d c, a> = lam != 0 gets d c -= lam * u * d b, and b's row
    leaves d_{p+1}.  Rows a are taken with the fewest cofaces first
    (Markowitz order) and b with the fewest faces, so fill-in stays
    small.  Non-unit entries and rows of nonzero order are never pivots:
    what they carry is left to the Hermite form.

    On return boundaries[p] maps the surviving cells of C_p, in their old
    order, to those of C_{p-1}, and orders[p] lists the orders of its
    rows.  Returns the `Transport` of each level C_p below the top: pi
    iota = id, and both commute with d modulo the orders.
    """
    m = len(boundaries) - 1
    transports = [Transport() for _ in range(m)]
    # paired[p + 1]: the cells of C_p removed so far
    paired = [set() for _ in range(m + 2)]
    for p, d in enumerate(boundaries):
        level, rows = d.cols, paired[p]   # rows: the b of one level down
        cofaces = [[] for _ in range(d.nrows)]
        for j, c in enumerate(level):
            if rows:
                for r in rows.intersection(c):
                    del c[r]
            for r in c:
                cofaces[r].append(j)
        heap = [(len(cf), a) for a, cf in enumerate(cofaces)
                if cf and not orders[p][a]]
        heapq.heapify(heap)
        while heap:
            n, a = heapq.heappop(heap)
            live = [j for j in dict.fromkeys(cofaces[a]) if a in level[j]]
            cofaces[a] = live
            if len(live) != n:   # fill-in or cancellation since pushed
                if live:
                    heapq.heappush(heap, (len(live), a))
                continue
            units = [j for j in live if level[j][a] in (1, -1)]
            if not units:
                continue
            b = min(units, key=lambda j: len(level[j]))
            db, u = level[b], level[b][a]
            lam = {j: level[j][a] for j in live if j != b}
            for j, x in lam.items():
                c = level[j]
                for r in db.keys() - c.keys():
                    cofaces[r].append(j)
                _submul(c, db, x * u)
            level[b] = {}
            if p:
                transports[p - 1].clears.append((a, u, db))
            if p < m:
                transports[p].restores.append((b, a, u, lam))
            rows.add(a)
            paired[p + 1].add(b)
    for p, d in enumerate(boundaries):
        kept = [r for r in range(d.nrows) if r not in paired[p]]
        pos = {r: i for i, r in enumerate(kept)}
        orders[p] = [orders[p][r] for r in kept]
        if p:
            transports[p - 1].kept = kept
        d.nrows = len(kept)
        d.cols = [{pos[r]: v for r, v in c.items()} if c else c
                  for j, c in enumerate(d.cols) if j not in paired[p + 1]]
    return transports


def assemble_subquotient(n: int, kbasis, leads,
                         image: LatticeSpan) -> Subquotient:
    """Subquotient of the cycle lattice (triangular basis kbasis, leads)
    by the image lattice, both inside Z^n.

    The image basis is written in kernel coordinates; boundaries are
    cycles, so the coordinate extraction doubles as a containment check.
    """
    k = len(kbasis)
    X_cols = [triangular_coords(bvec, kbasis, leads)
              for _, bvec in image.basis()]
    nb = len(X_cols)
    X_rows = [[X_cols[c][r] for c in range(nb)] for r in range(k)]
    snf = smith_normal_form(X_rows)
    torsion_pos = [i for i, d in enumerate(snf.factors) if d > 1]
    free_pos = list(range(snf.rank, k))
    group = FGAbelianGroup(
        free_rank=k - snf.rank,
        torsion=tuple(snf.factors[i] for i in torsion_pos))
    return Subquotient(
        ambient_dim=n, group=group, leads=leads, kernel_basis=kbasis,
        U=snf.U, Uinv=snf.Uinv,
        factors=list(snf.factors) + [0] * (k - snf.rank),
        torsion_pos=torsion_pos, free_pos=free_pos)


# ------------------------------------------------------------------
# induced maps between subquotients


def induced_matrix(f: SparseCols, src: Subquotient, dst: Subquotient):
    """Matrix of the induced map on canonical generators.

    f is an ambient map Z^src.ambient_dim -> Z^dst.ambient_dim carrying
    cycles to cycles (up to boundaries this is checked by project).
    """
    if f.ncols != src.ambient_dim or f.nrows != dst.ambient_dim:
        raise ValueError("ambient dimension mismatch for induced map")
    cols = [dst.project(f.apply(src.lift(g)))
            for g in range(src.group.rank)]
    # rows = dst generators, cols = src generators
    return [[col[i] for col in cols] for i in range(dst.group.rank)]


def classify_induced(M, src_orders, dst_orders) -> dict:
    """Classify an induced map between f.g. abelian groups in canonical
    form.  M maps sum Z/src_orders -> sum Z/dst_orders (order 0 = Z).

    Epi iff the cokernel is trivial, iso iff the kernel is trivial too.
    Returns {'matrix', 'is_epi', 'is_iso'}; exact, no heuristics.
    """
    is_epi = map_homology(M, [], src_orders, dst_orders,
                          []).group.is_trivial()
    is_iso = is_epi and map_homology([], M, [], src_orders,
                                     dst_orders).group.is_trivial()
    return {"matrix": M, "is_epi": is_epi, "is_iso": is_iso}
