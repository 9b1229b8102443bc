import itertools
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from homstab.exact_linalg import (
    smith_normal_form, SparseCols, LatticeSpan, span_columns,
    kernel_columns, solve_integer, FGAbelianGroup, homology_of_pair,
    induced_matrix, classify_induced, map_homology, reduce_unit_pairs,
)
from homstab import kernels
from homstab.groups import symmetric_group
from homstab.homology_engine import (
    BarBudget, permutation_module, resolve, trivial_module,
)

MATS = st.lists(
    st.lists(st.integers(min_value=-9, max_value=9),
             min_size=1, max_size=5),
    min_size=1, max_size=5,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


def _mat_mul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(len(B)))
             for j in range(len(B[0]))] for i in range(len(A))]


@given(MATS)
@settings(max_examples=60, deadline=None)
def test_snf_transform_identity(rows):
    """U M = D V^-1 for a unimodular V: the rows of U M past the rank
    vanish, and row i below it is d_i times a row of V^-1, so those
    quotient rows have every invariant factor 1."""
    snf = smith_normal_form(rows)
    assert _mat_mul(snf.U, snf.Uinv) == [
        [int(i == j) for j in range(len(rows))] for i in range(len(rows))]
    um = _mat_mul(snf.U, rows)
    assert all(not any(row) for row in um[snf.rank:])
    W = []
    for d, row in zip(snf.factors, um):
        assert all(x % d == 0 for x in row)
        W.append([x // d for x in row])
    if W:
        quot = smith_normal_form(W)
        assert quot.rank == snf.rank and set(quot.factors) == {1}
    for i in range(snf.rank - 1):
        assert snf.factors[i + 1] % snf.factors[i] == 0


@given(MATS, st.randoms())
@settings(max_examples=40, deadline=None)
def test_snf_invariant_under_permutation(rows, rnd):
    """Invariant factors do not change under row/column permutation."""
    base = smith_normal_form(rows).factors
    perm_r = list(range(len(rows)))
    perm_c = list(range(len(rows[0])))
    rnd.shuffle(perm_r)
    rnd.shuffle(perm_c)
    shuffled = [[rows[i][j] for j in perm_c] for i in perm_r]
    assert smith_normal_form(shuffled).factors == base


def test_snf_known_example():
    snf = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert snf.factors == [2, 2, 156]


def _int64_oracle(cols, dim):
    """Basis from the int64 kernel (plain numpy), normalized."""
    span = kernels.span_columns_int64(cols, dim)
    assert span is not None, "int64 overflow on a test matrix"
    return span.basis()


def _assert_reduced_hnf(basis):
    """Positive pivots, every entry above a pivot in [0, pivot)."""
    for lead, row in basis:
        assert min(row) == lead and row[lead] > 0
    for p, row in basis:
        for lead, other in basis:
            if lead > p:
                assert 0 <= row.get(lead, 0) < other[lead]


def _assert_span_matches_oracle(cols, dim):
    span = span_columns(cols, dim)
    basis = span.basis()
    _assert_reduced_hnf(basis)
    assert basis == _int64_oracle(cols, dim)
    return span


@given(MATS)
# reducing a row against a pivot creates an entry at a later pivot column
@example([[0, 0, -1, 0], [0, 4, 6, -8], [-2, -9, 0, 0], [-1, -9, 0, 5]])
@settings(max_examples=40, deadline=None)
def test_span_matches_int64_oracle(rows):
    """Sparse exact elimination and the int64 kernel give the same
    normalized row HNF, which is unique, so bases agree exactly."""
    dim = len(rows)
    dense = [[rows[i][j] for i in range(dim)] for j in range(len(rows[0]))]
    cols = [{i: x for i, x in enumerate(c) if x} for c in dense]
    span = _assert_span_matches_oracle(cols, dim)
    for c in dense:
        assert not span.reduce(c)


@pytest.mark.parametrize("module", ["trivial", "standard"])
def test_span_matches_int64_oracle_bar_d2(module):
    G = symmetric_group(4)
    M = trivial_module(G) if module == "trivial" else permutation_module(G, 4)
    d2 = resolve(M, BarBudget(), top=3).boundary(2)
    span = _assert_span_matches_oracle(d2.cols, d2.nrows)
    assert span.rank() > 1


def test_kernel_columns_exactness():
    mat = SparseCols.from_dense([[1, 2, 3], [2, 4, 6]], 3)
    kernel, _ = kernel_columns(mat)
    assert len(kernel) == 2
    for vec in kernel:
        out = mat.apply(vec)
        assert not out


@st.composite
def presented_systems(draw):
    """(rows, orders): an integer matrix of up to 4 x 5 whose row i lives
    in Z/orders[i] (order 0 meaning Z)."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    rows = [[draw(st.integers(-6, 6)) for _ in range(n)] for _ in range(m)]
    return rows, [draw(st.integers(0, 6)) for _ in range(m)]


def _congruent_to_zero(vec, orders):
    return all((x % o if o else x) == 0 for x, o in zip(vec, orders))


def _apply(rows, v):
    return [sum(a * x for a, x in zip(row, v)) for row in rows]


@given(presented_systems())
@settings(max_examples=60, deadline=None)
def test_kernel_columns_modulo_relations(case):
    """The basis spans exactly the v with rows . v = 0 modulo orders."""
    rows, orders = case
    n = len(rows[0])
    mat = SparseCols.from_dense(rows, n)
    basis, leads = kernel_columns(mat, orders)
    assert leads == sorted(set(leads))
    for v, lead in zip(basis, leads):
        assert min(v) == lead and v[lead] > 0
        dense = [v.get(j, 0) for j in range(n)]
        assert _congruent_to_zero(_apply(rows, dense), orders)
    span = span_columns(basis, n)
    for v in itertools.product(range(-2, 3), repeat=n):
        if _congruent_to_zero(_apply(rows, v), orders):
            assert not span.reduce(list(v)), v


def _solvable_by_snf(rows, rhs, orders):
    """The criterion of the dense SNF solve: with U [A | rel] V = D,
    A x = b modulo orders iff (U b)_i = 0 mod d_i below the rank and
    (U b)_i = 0 beyond it."""
    rel = [[o if i == j else 0 for j, o in enumerate(orders) if o]
           for i in range(len(rows))]
    snf = smith_normal_form([r + q for r, q in zip(rows, rel)])
    ub = _apply(snf.U, rhs)
    return (all(ub[i] % d == 0 for i, d in enumerate(snf.factors))
            and not any(ub[snf.rank:]))


@given(presented_systems(), st.data())
@settings(max_examples=100, deadline=None)
def test_solve_integer_matches_snf_criterion(case, data):
    rows, orders = case
    m, n = len(rows), len(rows[0])
    if data.draw(st.booleans()):
        # a right-hand side in the image, shifted by relations
        y = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        rhs = [b + o * data.draw(st.integers(-2, 2))
               for b, o in zip(_apply(rows, y), orders)]
    else:
        rhs = data.draw(st.lists(st.integers(-9, 9), min_size=m,
                                 max_size=m))
    cols = SparseCols.from_dense(rows, n).cols
    x = solve_integer(cols, rhs, m, orders)
    assert (x is not None) == _solvable_by_snf(rows, rhs, orders)
    if x is not None:
        assert len(x) == n
        assert _congruent_to_zero(
            [a - b for a, b in zip(_apply(rows, x), rhs)], orders)


def test_fgab_str():
    assert str(FGAbelianGroup(0, ())) == "0"
    assert str(FGAbelianGroup(1, ())) == "Z"
    assert str(FGAbelianGroup(2, (2, 4))) == "Z^2 + Z/2 + Z/4"
    assert FGAbelianGroup(0, (3,)).order() == 3
    assert FGAbelianGroup(1, ()).order() is None


def test_homology_of_pair_circle():
    # chain complex of a triangle boundary: H_1 = ker d1 / im d2 = Z
    d1 = SparseCols.from_dense([[-1, 0, -1],
                                [1, -1, 0],
                                [0, 1, 1]], 3)
    d2 = SparseCols.zero(3, 0)
    sq = homology_of_pair(d1, d2)
    assert sq.group.free_rank == 1 and sq.group.torsion == ()


def test_reduce_unit_pairs_keeps_non_unit_entry():
    # Z --2--> Z: 2 is no pivot, so both cells stay
    ds, orders = [SparseCols(1, [{0: 2}])], [[0]]
    assert reduce_unit_pairs(ds, orders) == []
    assert (ds[0].nrows, ds[0].cols, orders) == (1, [{0: 2}], [[0]])


def test_reduce_unit_pairs_updates_non_unit_coface():
    # both rows have two cofaces, so row 0 is the pivot row and column 0
    # (its only unit) the pivot column; column 1 becomes (3, 1) - 3 (1, 1)
    ds, orders = [SparseCols.from_dense([[1, 3], [1, 1]], 2)], [[0, 0]]
    reduce_unit_pairs(ds, orders)
    assert (ds[0].nrows, ds[0].cols, orders) == (1, [{0: -2}], [[0]])


def test_reduce_unit_pairs_never_pivots_a_torsion_row():
    # the matrix above with row 0 of order 4: row 1 pivots instead, on
    # column 0, and column 1 becomes (3, 1) - (1, 1)
    ds, orders = [SparseCols.from_dense([[1, 3], [1, 1]], 2)], [[4, 0]]
    reduce_unit_pairs(ds, orders)
    assert (ds[0].nrows, ds[0].cols, orders) == (1, [{0: 2}], [[4]])
    ds, orders = [SparseCols(1, [{0: 1}])], [[3]]
    reduce_unit_pairs(ds, orders)
    assert (ds[0].nrows, ds[0].cols) == (1, [{0: 1}])


def test_reduce_unit_pairs_drops_pivot_rows_one_level_up():
    # the triangle boundary: C_1 pairs off against C_0 but one edge, and
    # the rows of the paired edges leave the empty d_2
    d1 = [[-1, 0, -1], [1, -1, 0], [0, 1, 1]]
    ds = [SparseCols(1, [{0: 1}, {0: 1}, {0: 1}]),
          SparseCols.from_dense(d1, 3), SparseCols.zero(3, 0)]
    orders = [[0], [0] * 3, [0] * 3]
    transports = reduce_unit_pairs(ds, orders)
    assert [(d.nrows, d.ncols) for d in ds] == [(0, 0), (0, 1), (1, 0)]
    assert orders == [[], [], [0]]
    # the surviving edge is the loop: lifted, it is a cycle of d1
    (edge,) = transports[1].kept
    loop = transports[1].lift({0: 1})
    assert loop[edge] == 1 and SparseCols.from_dense(d1, 3).apply(loop) == {}
    assert transports[1].project(loop) == {0: 1}


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(st.integers(min_value=-2, max_value=2),
                         min_size=1, max_size=5), min_size=1, max_size=5))
def test_reduce_unit_pairs_keeps_kernel_and_cokernel(rows):
    # a single matrix is the complex 0 -> C_0 -> C_{-1} -> 0, so the
    # reduction keeps both its kernel and its cokernel
    width = min(len(r) for r in rows)
    d = SparseCols.from_dense([r[:width] for r in rows], width)
    ds = [SparseCols(d.nrows, [dict(c) for c in d.cols])]
    reduce_unit_pairs(ds, [[0] * d.nrows])

    def groups(m):
        return (homology_of_pair(m, SparseCols.zero(m.ncols, 0)).group,
                homology_of_pair(SparseCols.zero(0, m.nrows), m).group)
    assert groups(ds[0]) == groups(d)


def test_subquotient_project_lift_roundtrip():
    d_out = SparseCols.zero(0, 2)
    d_in = SparseCols.from_dense([[2, 0], [0, 3]], 2)  # quotient Z/2 + Z/3
    sq = homology_of_pair(d_out, d_in)
    assert sq.group.order() == 6
    for k in range(len(sq.group.orders)):
        vec = sq.lift(k)
        coords = sq.project(vec)
        expect = tuple(1 if j == k else 0 for j in range(len(coords)))
        assert coords == expect


def test_induced_matrix_and_classification():
    d_out = SparseCols.zero(0, 1)
    d_in = SparseCols.from_dense([[2]], 1)   # Z/2
    src = homology_of_pair(d_out, d_in)
    dst = homology_of_pair(d_out, d_in)
    ident = SparseCols.from_dense([[1]], 1)
    M = induced_matrix(ident, src, dst)
    cls = classify_induced(M, src.group.orders, dst.group.orders)
    assert cls["is_epi"] and cls["is_iso"]
    zero = SparseCols.from_dense([[0]], 1)
    M0 = induced_matrix(zero, src, dst)
    cls0 = classify_induced(M0, src.group.orders, dst.group.orders)
    assert not cls0["is_epi"] and not cls0["is_iso"]


ORDERS = st.lists(st.sampled_from([2, 3, 4, 6]), max_size=3)


@st.composite
def torsion_maps(draw):
    """(M, src, dst): a well-defined M : sum Z/src -> sum Z/dst, entries
    not reduced modulo dst."""
    src, dst = draw(ORDERS), draw(ORDERS)
    M = []
    for b in dst:
        row = []
        for a in src:
            # a * M[i][j] = 0 mod b iff b / gcd(a, b) divides M[i][j]
            step = b // math.gcd(a, b)
            row.append(step * draw(st.integers(0, b // step - 1))
                       + b * draw(st.integers(-1, 1)))
        M.append(row)
    return M, src, dst


@given(torsion_maps())
@settings(max_examples=150, deadline=None)
def test_classify_induced_matches_brute_force(case):
    M, src, dst = case
    image = {tuple(sum(r * x for r, x in zip(row, v)) % b
                   for row, b in zip(M, dst))
             for v in itertools.product(*[range(a) for a in src])}
    is_epi = len(image) == math.prod(dst)
    is_iso = is_epi and len(image) == math.prod(src)
    cls = classify_induced(M, src, dst)
    assert (cls["is_epi"], cls["is_iso"]) == (is_epi, is_iso)


@pytest.mark.parametrize("M, src, dst, epi, iso", [
    ([[1]], [0], [0], True, True),
    ([[-1]], [0], [0], True, True),
    ([[2]], [0], [0], False, False),
    ([[0]], [0], [0], False, False),
    ([[3]], [0], [4], True, False),       # Z ->> Z/4, kernel 4Z
    ([[2]], [0], [4], False, False),
    ([[0]], [2], [0], False, False),      # Z/2 -> Z is zero
    ([[1, 0], [0, 1]], [2, 0], [2, 0], True, True),
    ([[1, 1], [0, 1]], [2, 0], [2, 0], True, True),
    ([[1, 0], [0, 2]], [2, 0], [2, 0], False, False),
    ([[1, 2]], [0, 0], [0], True, False),
    ([], [0], [], True, False),           # Z -> 0
    ([], [], [], True, True),
    ([[]], [], [0], False, False),        # 0 -> Z
])
def test_classify_induced_free_cases(M, src, dst, epi, iso):
    cls = classify_induced(M, src, dst)
    assert (cls["is_epi"], cls["is_iso"]) == (epi, iso)


@pytest.mark.parametrize("f, g, a, b, c, group", [
    ([[2]], [[0]], [0], [0], [0], "Z/2"),        # Z -2-> Z -0-> Z
    ([[2]], [[1]], [0], [4], [2], "0"),          # Z -2-> Z/4 -1-> Z/2
    ([[4]], [[1]], [0], [8], [2], "Z/2"),        # Z -4-> Z/8 -1-> Z/2
    # x |-> 2x from Z/6 to Z/4: kernel 3Z/6Z, cokernel Z/4 / 2
    ([], [[2]], [], [6], [4], "Z/3"),
    ([[2]], [], [6], [4], [], "Z/2"),
    # Z/2 + Z -> Z/4 + Z by [[2, 1], [0, 2]]: injective, cokernel Z/4
    ([], [[2, 1], [0, 2]], [], [2, 0], [4, 0], "0"),
    ([[2, 1], [0, 2]], [], [2, 0], [4, 0], [], "Z/4"),
])
def test_map_homology_cases(f, g, a, b, c, group):
    assert str(map_homology(f, g, a, b, c).group) == group


@given(torsion_maps())
@settings(max_examples=100, deadline=None)
def test_map_homology_kernel_and_cokernel_orders(case):
    # finite groups: |ker M| |im M| = |src| and |coker M| |im M| = |dst|
    M, src, dst = case
    image = {tuple(sum(r * x for r, x in zip(row, v)) % b
                   for row, b in zip(M, dst))
             for v in itertools.product(*[range(a) for a in src])}
    kernel = map_homology([], M, [], src, dst).group
    coker = map_homology(M, [], src, dst, []).group
    assert kernel.order() * len(image) == math.prod(src)
    assert coker.order() * len(image) == math.prod(dst)


def test_lattice_span_insert_reduce():
    span = LatticeSpan(3)
    assert span.insert([1, 0, 0])
    assert span.insert([0, 2, 0])
    assert not span.insert([2, 2, 0])  # dependent
    assert span.rank() == 2
    assert not span.reduce([3, 4, 0])
    assert span.reduce([0, 1, 0])
    assert span.reduce([0, 0, 1])
