"""W_n and S_n against the complex oracles: boundaries matrix for matrix,
2-skeletons edge for edge, reduced homology, lift profiles and vertex
tuples, on every W_n and S_n the suite builds; the invariants of the
unit-pair reduction on each of them; and the invariants of the one
semi-simplicial type."""

import pytest

from homstab import homology_engine
from homstab.bracket import BracketCategory
from homstab.exact_linalg import SparseCols
from homstab.groupoids import make_wreath
from homstab.groups import cyclic_group
from homstab.pi1 import two_skeleton_from_semisimplicial
from homstab.simplicial import (SemiSimplicialSet, SimplicialComplex,
                                build_S, build_W, connectivity_certificate,
                                lift_profile, link)
from tests import oracles

# (category fixture, A, n_max): X = 1 throughout
FAMILIES = [("sym_cat", 0, 6), ("z3_wreath_cat", 0, 4), ("gl2_cat", 1, 3)]

# reduced homology is compared through the top dimension up to this many
# simplices, through degree 0 above it: H-tilde_1 of W_3 over GL_4(F_2)
# (23,640 simplices) alone takes over 20 s, and its connectivity cell
# reads degree 0
FULL_HOMOLOGY_SIMPLICES = 3000


@pytest.fixture(scope="module")
def z3_wreath_cat():
    return BracketCategory(make_wreath(cyclic_group(3)))


def _assert_chain_matches(X, boundaries):
    cc = X.chain_complex()
    for p in range(len(boundaries) + 1):
        got = cc.boundary(p)
        want = boundaries[p] if p < len(boundaries) else \
            SparseCols.zero(boundaries[-1].ncols, 0)
        assert (got.nrows, got.cols) == (want.nrows, want.cols), p
    up_to = X.dimension + 1 \
        if sum(X.level_sizes()) <= FULL_HOMOLOGY_SIMPLICES else 0
    assert cc.reduced_homology(up_to) == \
        oracles.reduced_homology(boundaries, up_to)


def _counting_chain_complex(X):
    """X's chain complex and the list of the levels it builds, in order
    of building."""
    cc, built = X.chain_complex(), []
    build = cc._level
    cc._level = lambda p: built.append(p) or build(p)
    return cc, built


def reduced_levels(monkeypatch, run):
    """run() under a recording reduce_unit_pairs: the levels of every
    reduction it ran, as the reduction left them."""
    runs, reduce = [], homology_engine.reduce_unit_pairs
    monkeypatch.setattr(homology_engine, "reduce_unit_pairs",
                        lambda ds, orders: runs.append(ds)
                        or reduce(ds, orders))
    run()
    monkeypatch.setattr(homology_engine, "reduce_unit_pairs", reduce)
    return runs


def _assert_reduction_invariants(X, monkeypatch):
    """For every degree the differential test reads: the reduced complex
    has d d = 0 and the alternating cell count of the levels it keeps,
    and levels 0..up_to + 1 are built once each, the top one first, and
    no other."""
    up_to = X.dimension + 1 \
        if sum(X.level_sizes()) <= FULL_HOMOLOGY_SIMPLICES else 0
    for t in range(up_to + 1):
        cc, built = _counting_chain_complex(X)
        (ds,) = reduced_levels(monkeypatch, lambda: cc.reduced_homology(t))
        top = t + 1
        assert built == list(range(top, -1, -1)) and len(ds) == top + 1
        for d_out, d_in in zip(ds, ds[1:]):
            assert d_in.nrows == d_out.ncols
            assert not any(d_out.compose(d_in).cols)
        before = [1] + [cc.level_size(p) for p in range(top + 1)]
        after = [ds[0].nrows] + [d.ncols for d in ds]
        assert sum((-1) ** p * (b - a) for p, (b, a)
                   in enumerate(zip(before, after))) == 0


def _assert_complex_matches(S, monkeypatch):
    _assert_chain_matches(S, oracles.complex_boundaries(S))
    _assert_reduction_invariants(S, monkeypatch)
    assert two_skeleton_from_semisimplicial(S) == \
        oracles.two_skeleton_from_complex(S)


@pytest.mark.parametrize("family, A, n_max", FAMILIES)
def test_W_and_S_match_oracles(request, monkeypatch, family, A, n_max):
    cat = request.getfixturevalue(family)
    for n in range(n_max + 1):
        W = build_W(cat, A, 1, n)
        S = build_S(W)
        _assert_chain_matches(W, oracles.semisimplicial_boundaries(W))
        _assert_reduction_invariants(W, monkeypatch)
        _assert_complex_matches(S, monkeypatch)
        lp, old = lift_profile(W), oracles.lift_profile(W, S)
        assert lp.counts == old.counts and lp.condition == old.condition
        assert set(lp.counts) == S.simplices


def test_links_match_oracles(sym_cat, monkeypatch):
    # the links of test_link_recursion
    for n in range(2, 7):
        S = build_S(build_W(sym_cat, 0, 1, n))
        for p in range(n - 1):
            _assert_complex_matches(link(S, tuple(range(p + 1))),
                                    monkeypatch)


def _assert_vertex_tuples_match(X):
    assert X.vertex_tuples() == [
        [oracles.vertex_tuple(X, p, s) for s in range(len(level))]
        for p, level in enumerate(X.levels)]


@pytest.mark.parametrize("family, A, n_max", FAMILIES)
def test_vertex_tuples_match_oracle(request, family, A, n_max):
    cat = request.getfixturevalue(family)
    for n in range(n_max + 1):
        W = build_W(cat, A, 1, n)
        _assert_vertex_tuples_match(W)
        _assert_vertex_tuples_match(build_S(W))


def test_link_vertex_tuples_match_oracle(sym_cat):
    for n in range(2, 7):
        S = build_S(build_W(sym_cat, 0, 1, n))
        for p in range(n - 1):
            _assert_vertex_tuples_match(link(S, tuple(range(p + 1))))


@pytest.mark.parametrize("moved", [
    [(2, 2, 5)], [(2, 0, 0)], [(3, 1, 119)],
    [(2, 0, 30), (2, 2, 4)], [(3, 0, 50), (3, 3, 20)]])
def test_identity_violation_names_first_simplex(sym_cat, moved):
    # faces (p, k, s) of W_5 over Sym moved to the next simplex of the
    # level below; the level-wide check names the simplex, j and i that a
    # scan simplex by simplex meets first, also when a later simplex
    # breaks an earlier identity
    W = build_W(sym_cat, 0, 1, 5)
    faces = [None] + [[list(row) for row in level]
                      for level in oracles.face_arrays(W)[1:]]
    for p, k, s in moved:
        faces[p][k][s] = (faces[p][k][s] + 1) % len(W.levels[p - 1])
    message = oracles.first_identity_violation(W.levels, faces)
    assert message is not None
    with pytest.raises(AssertionError) as exc:
        SemiSimplicialSet(W.levels, faces)
    assert str(exc.value) == message


def test_chain_levels_built_on_first_read(sym_cat):
    W = build_W(sym_cat, 0, 1, 5)
    for k in range(W.dimension):
        cc, built = _counting_chain_complex(W)
        cc.reduced_homology(k)
        assert sorted(built) == list(range(k + 2))


@pytest.mark.parametrize("n_vertices, simplices", [
    (2, [(0, 5)]), (3, [(-1, 0)]), (0, [(0,)])])
def test_simplicial_complex_rejects_vertex_out_of_range(n_vertices,
                                                         simplices):
    with pytest.raises(ValueError):
        SimplicialComplex(n_vertices, simplices)


def test_certificate_same_as_plain_semisimplicial_set(sym_cat):
    complexes = [
        SimplicialComplex(0, []),
        SimplicialComplex(3, [(0, 1), (1, 2), (0, 2)]),
        SimplicialComplex(4, [(0, 1), (2, 3)]),
        SimplicialComplex(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]),
        build_S(build_W(sym_cat, 0, 1, 5)),
    ]
    for S in complexes:
        plain = SemiSimplicialSet(S.levels, oracles.face_arrays(S))
        for target in range(-2, 4):
            assert connectivity_certificate(S, target) == \
                connectivity_certificate(plain, target), (S.levels, target)
