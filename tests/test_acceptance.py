"""Acceptance suite: twelve criteria, one test (one pass/fail line) each.

Each criterion checks a small closed-form statement or a property/oracle
equality on a desk-scale instance.  Budget-refused cells are asserted to
be refusals (documented skips), never silently ignored.
"""

import math

from homstab.groups import symmetric_group
from homstab.simplicial import (build_W, build_S, lift_profile, link,
                                connectivity_certificate,
                                SimplicialComplex)
from homstab.homology_engine import (trivial_module, permutation_module,
                                     bar_homology)
from homstab.coeffsys import (constant_system, standard_system,
                              tensor_power, degree_profile, split_witness,
                              split_degree_profile, abelianization_limit,
                              abelian_constant_system, internalize)
from homstab.burau import BurauSystem, lp
from homstab import verifier
from homstab.verifier import load_config, run_stability, report_emit
from tests.oracles import (abelianization, alternating_group,
                           burau_relation_failure, complexes_isomorphic,
                           hopf_h2)


def _cfg(**over):
    base = {
        "family": {"kind": "symmetric", "params": {}},
        "A": 0, "X": 1,
        "coeff": {"kind": "constant", "params": {"rank": 1}},
        "k": 2, "n_max": 5, "i_max": 1,
        "theorems": ["3.1"], "budgets": {}, "seed": 0,
    }
    base.update(over)
    return load_config(base)


def test_criterion_01_fi_hom_counts(sym_cat):
    for n in range(0, 7):
        for m in range(0, n + 1):
            expect = math.factorial(n) // math.factorial(n - m)
            assert len(sym_cat.hom_set(m, n)) == expect, (m, n)


def test_criterion_02_simplex_identification(sym_cat):
    for n in range(1, 7):
        S = build_S(build_W(sym_cat, 0, 1, n))
        full = SimplicialComplex(n, [tuple(range(n))])
        assert complexes_isomorphic(S, full) is not None, n
        hom = S.chain_complex().reduced_homology(n - 1)
        assert all(h.is_trivial() for h in hom), n


def test_criterion_03_condition_A_lift_counts(sym_cat):
    for n in range(1, 7):
        W = build_W(sym_cat, 0, 1, n)
        lp_ = lift_profile(W)
        assert lp_.condition == "A", n
        for simplex, count in lp_.counts.items():
            p = len(simplex) - 1
            if p <= 4:
                assert count == math.factorial(p + 1), (n, simplex)


def test_criterion_04_link_recursion(sym_cat):
    for n in range(2, 7):
        S = build_S(build_W(sym_cat, 0, 1, n))
        for p in range(n - 1):
            for sigma in list(S.by_dimension(p))[:3]:
                L = link(S, sigma)
                Sm = build_S(build_W(sym_cat, 0, 1, n - p - 1))
                assert complexes_isomorphic(L, Sm) is not None, (n, p)


def test_criterion_05_homogeneity_certificates(sym_cat, wreath_cat,
                                               gl2_cat):
    for cat, n_max in ((sym_cat, 5), (wreath_cat, 3), (gl2_cat, 3)):
        for n in range(0, n_max + 1):
            for m in range(0, n + 1):
                rep = cat.verify_homogeneity(m, n)
                assert rep["passed"], (cat.G.name, m, n)


def test_criterion_06_connectivity_certificates(sym_cat, gl2_cat):
    # symmetric: topological (n-2)-connectivity for n <= 5
    for n in range(1, 6):
        cert = connectivity_certificate(build_W(sym_cat, 0, 1, n),
                                        n - 2, 10 ** 6)
        assert cert.meets_target and cert.mode == "topological", n
    # GL(F_2), A = R^{sr} = R: homological floor((n-2)/2) for n <= 3
    for n in range(1, 4):
        cert = connectivity_certificate(build_W(gl2_cat, 1, 1, n),
                                        (n - 2) // 2, 10 ** 5)
        assert cert.meets_target_homological, n


def test_criterion_07_constant_coefficient_stability():
    rep = run_stability(_cfg(n_max=6, i_max=1), jobs=2)
    assert rep["summary"]["VIOLATION"] == 0
    assert rep["summary"]["skipped"] == 0
    # H_1 oracle: abelianization gives Z/2 from n = 2 on
    cells = {(c["n"], c["i"]): c for c in rep["cells"]}
    for n in range(2, 6):
        assert cells[(n, 1)]["target"] == "Z/2", n
    assert cells[(3, 1)]["is_iso"]
    # H_2(Sigma_4) by bar complex, cross-checked by the Hopf oracle
    bar = bar_homology(trivial_module(symmetric_group(4)), 2)
    gens = [(1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)]
    hopf = hopf_h2(symmetric_group(4), gens)
    assert str(bar) == str(hopf) == "Z/2"


def test_criterion_08_abelian_internalized_stability(sym_cat):
    lim = abelianization_limit(sym_cat, 0, 1, 6, 2)
    Zq, star = abelian_constant_system(sym_cat, 0, 1, 6, lim)
    I = internalize(Zq, lim, star)
    # Shapiro: H_1(S_n; Z[Z/2] twisted) = H_1(A_n) = abelianization
    for n, expect in ((3, "Z/3"), (4, "Z/3"), (5, "0"), (6, "0")):
        h = bar_homology(I.modules[n], 1)
        ab, _ = abelianization(alternating_group(n))
        assert str(h) == str(ab) == expect, n
    # A_4 -> A_5 epi-not-iso, consistent with the k = 3 abelian range
    rep = run_stability(_cfg(
        coeff={"kind": "internalized_abelian", "params": {"subgroup": []}},
        k=3, theorems=["3.4"], n_max=5, i_max=1), jobs=2)
    assert rep["summary"]["VIOLATION"] == 0
    cells = {(c["n"], c["i"]): c for c in rep["cells"]}
    assert cells[(4, 1)]["is_epi"] and not cells[(4, 1)]["is_iso"]


def test_criterion_09_twisted_stability_split_range(sym_cat):
    std = standard_system(sym_cat, 0, 6)
    assert split_witness(std) is not None
    sdp = split_degree_profile(std, 2, 0)
    assert (sdp.status, sdp.r, sdp.N) == ("ok", 1, 0)
    rep = run_stability(_cfg(
        coeff={"kind": "standard", "params": {"r_max": 2, "N_max": 0}},
        theorems=["A", "4.20"], n_max=6, i_max=1), jobs=2)
    assert rep["summary"]["VIOLATION"] == 0
    assert rep["summary"]["skipped"] == 0
    # Shapiro oracle on every computed twisted cell
    computed_n = sorted({c["n"] for c in rep["cells"]})
    assert computed_n == list(range(6))
    for n in computed_n:
        for i in (0, 1):
            if n == 0:
                continue
            lhs = bar_homology(
                permutation_module(symmetric_group(n), n), i)
            rhs = bar_homology(
                trivial_module(symmetric_group(n - 1)), i)
            assert str(lhs) == str(rhs), (n, i)


def test_criterion_10_coefficient_calculus(sym_cat):
    dp = degree_profile(constant_system(sym_cat, 0, 1, 4), 1, 0)
    assert (dp.status, dp.r, dp.N) == ("ok", 0, 0)
    B = BurauSystem(6)
    dpb = B.degree_profile(2, 0)
    assert (dpb.status, dpb.r, dpb.N) == ("ok", 1, 0)
    std = standard_system(sym_cat, 0, 4)
    dpt = degree_profile(tensor_power(std, 2), 3, 0)
    assert (dpt.status, dpt.r, dpt.N) == ("ok", 2, 0)
    # displayed generator matrix and braid relations up to n = 6
    assert B.images(2)[1] == [[lp((0, 1), (1, -1)), lp((1, 1))],
                              [lp((0, 1)), {}]]
    for n in range(2, 7):
        assert burau_relation_failure(B, n) is None, n


def test_criterion_11_relative_les_and_vanishing():
    rep = run_stability(_cfg(
        coeff={"kind": "standard", "params": {"r_max": 2, "N_max": 0}},
        theorems=["A", "4.20"], n_max=6, i_max=1), jobs=2)
    assert rep["summary"]["VIOLATION"] == 0
    checked = 0
    for c in rep["cells"]:
        assert c["les_exact"], (c["n"], c["i"])
        checked += 1
        # vanishing claims were judged inside run_stability; re-assert
        for claim in c.get("claims", []):
            if claim.startswith("4.20:vanish"):
                assert c["rel"] == "0", c
    # cells at i <= 1 resolve by the presentation complex, so cell (5, 1)
    # (its d2 of Sym(6) has 6 * 2,881 columns; the bar d2 had
    # 6 * 719^2) is computed, not refused
    assert checked == 12


def test_criterion_12_deterministic_reports():
    cfg = _cfg(n_max=5, i_max=1)
    r1 = report_emit(verifier.run_stability(cfg, jobs=1), "json",
                     stream=_Null())
    r8 = report_emit(verifier.run_stability(cfg, jobs=8), "json",
                     stream=_Null())
    assert r1 == r8
    h1 = report_emit(verifier.run_homology(cfg, jobs=1), "json",
                     stream=_Null())
    h8 = report_emit(verifier.run_homology(cfg, jobs=8), "json",
                     stream=_Null())
    assert h1 == h8


class _Null:
    def write(self, _):
        pass
