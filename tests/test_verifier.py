import contextlib
import importlib.util
import io
import json
import os
import re
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from homstab import verifier
from homstab.groupoids import SymmetricGroupoid
from homstab.groups import perm_mul
from homstab.verifier import (
    load_config, config_hash, predicted_ranges, run_axioms,
    run_connectivity, run_degree, run_homology, run_stability,
    report_emit, exit_code,
)
from homstab.bracket import BracketCategory
from homstab.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent


def _cfg(**over):
    base = {
        "family": {"kind": "symmetric", "params": {}},
        "A": 0, "X": 1,
        "coeff": {"kind": "constant", "params": {"rank": 1}},
        "k": 2, "n_max": 4, "i_max": 1,
        "theorems": ["3.1"],
        "budgets": {"group_order": 5040, "boundary_entries": 10 ** 9,
                    "pi1_steps": 200_000},
        "seed": 0,
    }
    base.update(over)
    return load_config(base)


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(k=1)
    with pytest.raises(ValueError):
        _cfg(theorems=["3.4"], k=2)   # abelian ranges need k >= 3
    with pytest.raises(ValueError):
        _cfg(X=0)


def test_config_hash_stable():
    assert config_hash(_cfg()) == config_hash(_cfg())
    assert config_hash(_cfg()) != config_hash(_cfg(n_max=5))


def test_predicted_ranges_31():
    p = predicted_ranges("3.1", 2)
    assert p.epi_max(4) == 2 and p.iso_max(4) == 1
    assert p.epi_max(5) == 2 and p.iso_max(5) == 2


def test_predicted_ranges_34():
    p = predicted_ranges("3.4", 3)
    assert p.epi_max(4) == 1 and p.iso_max(4) == 0
    with pytest.raises(ValueError):
        predicted_ranges("3.4", 2)


def test_predicted_ranges_A_and_420():
    p = predicted_ranges("A", 2, r=1, N=0)
    assert p.epi_max(4) == 1 and p.iso_max(4) == 0
    v = predicted_ranges("4.20", 2, r=1, N=0)
    assert v.rel_vanish_from(1) == 4
    s = predicted_ranges("4.20", 2, r=1, N=0, split=True)
    assert s.rel_vanish_from(1) == 3


def test_epi_iso_gap_bound():
    for theorem in ("3.1", "A"):
        p = predicted_ranges(theorem, 2, r=1)
        for n in range(0, 40):
            assert 0 <= p.epi_max(n) - p.iso_max(n) <= 2


def test_run_axioms_passes():
    rep = run_axioms(_cfg(n_max=3))
    assert rep["passed"]
    assert any(c["name"].startswith("groupoid") for c in rep["checks"])


class _WrongBraiding(SymmetricGroupoid):
    """Sym whose braiding(2, 3) is off by a transposition, and whose
    braiding_inv is its inverse."""

    def braiding(self, m, n):
        b = super().braiding(m, n)
        return perm_mul(b, (0, 2, 1, 3, 4)) if (m, n) == (2, 3) else b


class _BrokenBraiding(_WrongBraiding):
    """_WrongBraiding with braiding_inv(m, n) = braiding(n, m), as for a
    symmetric braiding."""

    def braiding_inv(self, m, n):
        return self.braiding(n, m)


def _prebraid_check(rep):
    (check,) = [c for c in rep["checks"]
                if c["name"] == "prebraid identities"]
    return check


def test_prebraid_checked_up_to_top(monkeypatch):
    # a + b = 5 is past the 4 the check once stopped at
    monkeypatch.setattr(verifier, "build_instance",
                        lambda cfg: _BrokenBraiding(cfg.budget("group_order")))
    assert BracketCategory(_BrokenBraiding()).verify_prebraid(4)["passed"]
    check = _prebraid_check(run_axioms(_cfg(n_max=5)))
    assert not check["passed"]
    assert "('prebraid', 2, 3)" in check["witness"]


def test_wrong_braiding_caught_by_groupoid_checks(monkeypatch):
    """With braiding_inv the inverse of a wrong braiding, the prebraid
    identities hold (U of a braided groupoid is prebraided); the groupoid
    checks catch it."""
    monkeypatch.setattr(verifier, "build_instance",
                        lambda cfg: _WrongBraiding(cfg.budget("group_order")))
    rep = run_axioms(_cfg(n_max=5))
    failed = {c["name"]: c["witness"] for c in rep["checks"]
              if not c["passed"]}
    assert _prebraid_check(rep)["passed"]
    assert failed == {
        "groupoid: braiding naturality": "(2, 3, (0, 1), (1, 0, 2))",
        "groupoid: hexagon (sum on the left)": "(1, 1, 3)",
        "groupoid: hexagon (sum on the right)": "(2, 1, 2)",
        "groupoid: symmetry b_{n,m} b_{m,n} = id": "(2, 3)",
    }
    assert exit_code(rep) == 2


@pytest.mark.parametrize("make", [SymmetricGroupoid, _BrokenBraiding])
def test_prebraid_past_the_budget(monkeypatch, make):
    """Aut(6) past group_order 120.  The identities enumerate no Aut(n)
    of Sym, so they are checked up to top 6 and pass there; a check
    that only passes below the top would be reported as refused.  Local
    standardness reads Aut(6) too, so it is stubbed here."""
    monkeypatch.setattr(verifier, "build_instance",
                        lambda cfg: make(cfg.budget("group_order")))
    monkeypatch.setattr(BracketCategory, "verify_local_standardness",
                        lambda self, A, x, n_max: {"passed": True})
    cfg = _cfg(A=1, n_max=5, budgets={"group_order": 120})
    check = _prebraid_check(run_axioms(cfg))
    if make is SymmetricGroupoid:
        assert check == {"name": "prebraid identities", "passed": True,
                         "witness": None}
    else:
        assert not check["passed"] and "skipped" not in check
        assert "('prebraid', 2, 3)" in check["witness"]


def test_run_connectivity_symmetric():
    rep = run_connectivity(_cfg(n_max=4))
    assert rep["passed"]
    for cell in rep["cells"]:
        assert cell["meets_target_topological"]


SYMMETRIC = {"kind": "symmetric", "params": {}}
WREATH3 = {"kind": "wreath", "params": {"cyclic_order": 3}}


def _levels_read(monkeypatch, family, n_max, swap=None):
    """Run connectivity on family at n_max, with every level that build_W
    lists recorded as (n, p) and every face array it computes as
    (n, p, i).  swap = (n, p, i) swaps the first two entries of that
    array."""
    listed, computed = [], []
    hom_reps, face_reps = BracketCategory.hom_reps, BracketCategory.face_reps

    def listing(self, m, n, budget=None):
        listed.append((n, m - 1))
        return hom_reps(self, m, n, budget)

    def recorded(self, m, n, reps, i, x):
        computed.append((n, m - 1, i))
        out = face_reps(self, m, n, reps, i, x)
        if (n, m - 1, i) == swap:
            out[0], out[1] = out[1], out[0]
        return out

    with monkeypatch.context() as patch:
        patch.setattr(BracketCategory, "hom_reps", listing)
        patch.setattr(BracketCategory, "face_reps", recorded)
        rep = run_connectivity(_cfg(family=family, n_max=n_max))
    return rep, listed, computed


def test_connectivity_computes_only_the_faces_it_reads(monkeypatch):
    # W_n's certificate reads chain levels 0..t+1, t = max((n-2) // 2, 0),
    # and pi_1 (attempted from t = 1 on) the 2-skeleton, and the lift
    # profile of Sym and G wr Sym reads no level: so the faces of levels
    # 1..t+1 are computed, and the levels they read listed, each once,
    # and no other; Sym(8) is past the default group budget
    for family, n_max in ((SYMMETRIC, 8), (WREATH3, 4)):
        rep, listed, computed = _levels_read(monkeypatch, family, n_max)
        assert rep["passed"]
        assert rep["cells"][3]["pi1_status"] == "trivial"
        faces = [(n, p, i) for n in range(1, n_max + 1)
                 for p in range(1, min((n - 2) // 2 + 2, n))
                 for i in range(p + 1)]
        assert sorted(computed) == faces
        assert sorted(listed) == sorted({(n, q) for n, p, _ in faces
                                         for q in (p - 1, p)})


@pytest.mark.parametrize("swap", [(6, 3, 0), (6, 3, 3)], ids=["d0", "d3"])
def test_connectivity_checks_the_faces_it_reads(monkeypatch, swap):
    # over Sym, W_6's certificate up to degree 2 reads level 3 through
    # every face; swapping two entries of d_0 or d_3 there breaks a
    # semi-simplicial identity, which is checked before the array
    # reaches the chain complex
    with pytest.raises(AssertionError, match="semi-simplicial identity"):
        _levels_read(monkeypatch, SYMMETRIC, 6, swap)


def test_run_degree_constant():
    rep = run_degree(_cfg())
    assert rep["degree"]["r"] == 0 and rep["degree"]["N"] == 0
    assert rep["split"]["witness_found"]


def test_run_homology_grid():
    cfg = _cfg(n_max=3)
    rep = run_homology(cfg, jobs=2)
    values = {(c["n"], c["i"]): c["H"] for c in rep["cells"]}
    assert values[(3, 1)] == "Z/2"
    assert values[(2, 0)] == "Z"
    assert all(set(c) == {"n", "i", "H"} for c in rep["cells"])


def test_run_stability_constant_consistent():
    rep = run_stability(_cfg(n_max=5, i_max=1), jobs=2)
    assert rep["summary"]["VIOLATION"] == 0
    assert rep["summary"]["consistent"] >= 5
    assert exit_code(rep) == 0
    # H_1 stabilization observed iso from n = 2 on
    cells = {(c["n"], c["i"]): c for c in rep["cells"]}
    assert cells[(3, 1)]["is_iso"]


def test_run_stability_budget_starved():
    # cell (2, 1) reads level 2 of the presentation complex of Sym(3),
    # a 2 x 3 boundary
    cfg = _cfg(n_max=3, i_max=1)
    cfg.budgets["boundary_entries"] = 5
    rep = run_stability(cfg)
    assert rep["summary"]["skipped"] > 0
    assert rep["summary"]["VIOLATION"] == 0
    assert exit_code(rep) == 3
    skipped = [c for c in rep["cells"] if c["verdict"] == "skipped"]
    assert all("repro" in c for c in skipped)


def test_refused_cell_repro_names_the_cell_only():
    # cell (2, 2) reads bar level 3 of Sym(3), a 25 x 125 boundary, which
    # the entries budget refuses: the estimate is its 3125 entries, and
    # the repro block holds the config and the cell only; homology cell
    # (3, 2) is refused the same way, and no other cell is
    cfg = _cfg(n_max=3, i_max=2, budgets={"boundary_entries": 3124})
    want = {"skipped": "bar complex: chain level 3 needs a 25 x 125 "
                       "boundary (3125 entries > 3124)", "estimate": 3125}
    for run, cell in ((run_stability, (2, 2)), (run_homology, (3, 2))):
        cells = {(c["n"], c["i"]): c for c in run(cfg)["cells"]}
        assert [key for key, c in cells.items() if "skipped" in c] == [cell]
        got = cells[cell]
        assert {key: got[key] for key in want} == want
        assert got["repro"] == {"config_hash": config_hash(cfg),
                                "n": cell[0], "i": cell[1]}


def test_connectivity_refusal_carries_estimate_and_repro():
    # W_4 over Sym needs chain level 2, a 12 x 24 boundary, over an
    # entries budget of 287: no group budget bounds W over Sym.  W_3
    # over GL(F_2) needs Aut(3) = GL_3(F_2), which GL enumerates, over a
    # group budget of 6
    for over, n, refusal, estimate in (
            ({"budgets": {"boundary_entries": 287}}, 4,
             "chain complex: chain level 2 needs a 12 x 24 boundary "
             "(288 entries > 287)", 288),
            ({"family": {"kind": "gl", "params": {"modulus": 2}},
              "n_max": 3, "budgets": {"group_order": 6}}, 3,
             "|GL_3(Z/2)| = 168 exceeds budget 6", 168)):
        cfg = _cfg(**over)
        cells = {c["n"]: c for c in run_connectivity(cfg)["cells"]}
        assert "skipped" not in cells[n - 1]
        assert {key: cells[n][key] for key in ("skipped", "estimate",
                                                "repro")} == \
            {"skipped": refusal, "estimate": estimate,
             "repro": {"config_hash": config_hash(cfg), "n": n}}


def test_homology_budgets_h0_like_stability():
    # H_0(Sym(4); Z^4) reads level 1 of the presentation complex, a
    # 4 x 12 boundary (3 generators times rank 4); H_0(Sym(3); Z^3) reads
    # a 3 x 6 one; stability refuses cell (3, 0) for the former too
    cfg = _cfg(coeff={"kind": "standard", "params": {"r_max": 2,
                                                     "N_max": 0}},
               theorems=["A"], n_max=4, i_max=1,
               budgets={"boundary_entries": 40})
    refusal = ("presentation complex: chain level 1 needs a 4 x 12 "
               "boundary (48 entries > 40)")
    hom = {(c["n"], c["i"]): c for c in run_homology(cfg)["cells"]}
    assert hom[(4, 0)]["skipped"] == refusal
    assert hom[(3, 0)]["H"] == "Z"
    stab = {(c["n"], c["i"]): c for c in run_stability(cfg)["cells"]}
    assert stab[(3, 0)]["skipped"] == refusal


def test_twisted_grid_with_la_420():
    cfg = _cfg(coeff={"kind": "standard", "params": {"r_max": 2,
                                                     "N_max": 0}},
               theorems=["A", "4.20"], n_max=4, i_max=1)
    rep = run_stability(cfg, jobs=2)
    assert rep["summary"]["VIOLATION"] == 0
    assert rep["degree"] == {"r": 1, "N": 0, "split": True, "window": 4}
    for c in rep["cells"]:
        if "les_exact" in c:
            assert c["les_exact"]


def test_report_determinism_across_jobs():
    cfg = _cfg(n_max=4, i_max=1)
    r1 = run_stability(cfg, jobs=1)
    r8 = run_stability(cfg, jobs=8)
    t1 = json.dumps(r1, sort_keys=True)
    t8 = json.dumps(r8, sort_keys=True)
    assert t1 == t8


def test_report_emit_json_roundtrip(capsys):
    rep = run_degree(_cfg())
    text = report_emit(rep, "json")
    assert json.loads(text)["command"] == "degree"
    report_emit(rep, "table")
    out = capsys.readouterr().out
    assert "degree" in out


def test_cli_exit_codes(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "family": {"kind": "symmetric", "params": {}},
        "A": 0, "X": 1,
        "coeff": {"kind": "constant", "params": {}},
        "k": 2, "n_max": 3, "i_max": 1,
        "theorems": ["3.1"], "budgets": {}, "seed": 0,
    }))
    assert cli_main(["stability", "--config", str(path)]) == 0
    capsys.readouterr()
    config = json.loads(path.read_text())
    config["budgets"] = {"boundary_entries": 5}
    path.write_text(json.dumps(config))
    assert cli_main(["stability", "--config", str(path)]) == 3
    capsys.readouterr()


def test_cli_invalid_run_exits_1(tmp_path, capsys):
    # Z/2 wr Sym with constant coefficients: the default r_max 3 needs
    # n_max >= N_max + r_max + 1 = 4, so the degree profile is refused
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "family": {"kind": "wreath", "params": {"cyclic_order": 2}},
        "A": 0, "X": 1, "coeff": {"kind": "constant", "params": {}},
        "k": 2, "n_max": 3, "i_max": 1, "theorems": ["A", "4.20"],
    }))
    assert cli_main(["stability", "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("homstab: error: window too small for the requested "
                   "degree bound: n_max 3 < N_max + r_max + 1 = 4; lower "
                   "r_max or raise n_max\n")
    assert cli_main(["degree", "--config", str(tmp_path / "none.json")]) == 1
    _, err = capsys.readouterr()
    assert err.startswith("homstab: error: ") and err.count("\n") == 1


def test_cli_degree_module_rank_drops_to_0(tmp_path, capsys):
    # F_0 = Z, F_1 = F_2 = 0: sigma_X at level 0 is a 0 x 1 matrix, whose
    # kernel Z survives, so the degree bound (1, 0) is exceeded
    desc = {"n_max": 2,
            "modules": [{"free_rank": 1, "actions": []},
                        {"free_rank": 0, "actions": []},
                        {"free_rank": 0, "actions": [[]]}],
            "s_mats": [[], []]}
    sys_path = tmp_path / "sys.json"
    sys_path.write_text(json.dumps(desc))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "family": {"kind": "symmetric", "params": {}}, "A": 0, "X": 1,
        "coeff": {"kind": "custom", "params": {"path": str(sys_path),
                                               "r_max": 1, "N_max": 0}},
        "k": 2, "n_max": 2}))
    assert cli_main(["degree", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert err == ""
    rep = json.loads(out)
    assert rep["degree"]["status"] == "exceeds"
    assert rep["split"] == {"witness_found": False}


@pytest.mark.parametrize("case, message", [
    ("no_path", "coeff custom params lacks the key 'path'"),
    ("no_actions", "custom module 0 lacks the key 'actions'"),
    ("list_config", "config must be a JSON object, not list"),
])
def test_cli_malformed_config_exits_1(tmp_path, capsys, case, message):
    sys_path = tmp_path / "sys.json"
    sys_path.write_text(json.dumps({"n_max": 1, "s_mats": [[[1]]],
                                    "modules": [{"free_rank": 1}] * 2}))
    params = {} if case == "no_path" else {"path": str(sys_path)}
    cfg = {"family": {"kind": "symmetric", "params": {}}, "n_max": 1,
           "coeff": {"kind": "custom", "params": params}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps([cfg] if case == "list_config" else cfg))
    assert cli_main(["degree", "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err == f"homstab: error: {message}\n"


@pytest.mark.parametrize("theorems", [5, "A", "4.20", ["A", 4.2],
                                      ["3.2"], None])
def test_cli_rejects_malformed_theorems(tmp_path, capsys, theorems):
    # only a list of known theorem names is read; a string is not taken
    # for the list of its characters
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"family": {"kind": "symmetric",
                                           "params": {}},
                                "n_max": 2, "theorems": theorems}))
    assert cli_main(["degree", "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err == ("homstab: error: theorems must be a list drawn from "
                   "['3.1', '3.4', 'A', '4.20'], not "
                   f"{json.dumps(theorems)}\n")


def test_stability_run_builds_each_bar_level_once(monkeypatch):
    # neighbouring cells resolve the same module F_{n+1}; every level of
    # every module's resolution is budget-checked, hence built, exactly
    # once: levels 1 and 2 of the presentation complexes of F_0 .. F_4
    from homstab.homology_engine import BarBudget
    checked = []
    check = BarBudget.check

    def counting(self, cx, level):
        checked.append((cx, level))
        return check(self, cx, level)
    monkeypatch.setattr(BarBudget, "check", counting)
    cfg = _cfg(coeff={"kind": "standard", "params": {"r_max": 2,
                                                     "N_max": 0}},
               theorems=["A", "4.20"], n_max=4, i_max=1)
    rep = run_stability(cfg, jobs=1)
    assert rep["summary"]["VIOLATION"] == 0
    assert len(checked) == len(set(checked)) == 10
    assert {cx.kind for cx, _ in checked} == {"presentation complex"}
    assert all(level in cx._boundaries for cx, level in checked)


def test_custom_coeff_loader(tmp_path, sym_cat):
    # rank-1 trivial system written out as JSON
    from homstab.groupoids import make_symmetric
    desc = {
        "n_max": 2,
        "modules": [
            {"free_rank": 1, "torsion": [],
             "actions": [[[1]] for _ in
                         make_symmetric().aut(n).generators]}
            for n in range(3)
        ],
        "s_mats": [[[1]], [[1]]],
    }
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(desc))
    cfg = _cfg(coeff={"kind": "custom",
                      "params": {"path": str(path), "r_max": 1,
                                 "N_max": 0}},
               n_max=2)
    rep = run_degree(cfg)
    assert rep["degree"]["r"] == 0


def test_custom_coeff_loader_rejects_broken_relation(tmp_path, sym_cat):
    # Sym(3) with s1 -> -1, s2 -> 1 breaks the braid relation; every
    # product of two generators is consistent, so only a check over all
    # elements sees it
    from homstab.groupoids import make_symmetric
    modules = [{"free_rank": 1, "torsion": [],
                "actions": [[[1]] for _ in
                            make_symmetric().aut(n).generators]}
               for n in range(3)]
    modules.append({"free_rank": 1, "torsion": [],
                    "actions": [[[-1]], [[1]]]})
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"n_max": 3, "modules": modules,
                                "s_mats": [[[1]]] * 3}))
    cfg = _cfg(coeff={"kind": "custom",
                      "params": {"path": str(path), "r_max": 1,
                                 "N_max": 0}},
               n_max=3)
    with pytest.raises(ValueError, match="not a homomorphism"):
        run_degree(cfg)


def test_cli_flags_per_subcommand():
    from homstab.cli import build_parser
    parser = build_parser()
    for command in ("stability", "homology"):
        args = parser.parse_args([command, "--config", "c.json",
                                  "--jobs", "2"])
        assert args.jobs == 2
    # budgets come from the config alone, where load_config checks them
    refused = [[command, "--budget-entries", "10"] for command in
               ("verify-axioms", "connectivity", "homology", "degree",
                "stability")]
    for argv in refused + [["homology", "--cache-dir", "d"],
                           ["stability", "--cache-dir", "d"],
                           ["degree", "--jobs", "2"],
                           ["stability", "--budget-cells", "10"],
                           ["homology", "--seed", "1"]]:
        with pytest.raises(SystemExit):
            parser.parse_args(argv[:1] + ["--config", "c.json"] + argv[1:])
        with pytest.raises(SystemExit) as exc:
            cli_main(argv[:1] + ["--config", "c.json"] + argv[1:])
        assert exc.value.code == 2


def test_cli_valid_call_builds_no_parser(monkeypatch, capsys, tmp_path):
    # a valid call is read from the option table and builds no parser;
    # help and errors come from the parser of all five subcommands, word
    # for word
    from homstab import cli
    built, build = [], cli.build_parser

    def recording():
        parser = build()
        built.append(parser._subparsers._group_actions[0].choices.keys())
        return parser
    monkeypatch.setattr(cli, "build_parser", recording)
    path = tmp_path / "none.json"
    assert cli_main(["degree", "--config", str(path)]) == 1
    assert built == []
    capsys.readouterr()
    for argv in (["degree", "--config"], ["stability", "-h"], ["-h"],
                 ["--help"], ["bogus"], []):
        built.clear()
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        got = capsys.readouterr()
        with pytest.raises(SystemExit) as want:
            build().parse_args(argv)
        assert (exc.value.code, got) == (want.value.code,
                                         capsys.readouterr())
        assert list(built[-1]) == list(cli.COMMANDS)


def test_cli_valid_call_loads_no_argparse(tmp_path):
    # in a fresh process a well-formed call imports neither argparse nor
    # gettext, nor the locale module gettext loads on its first lookup
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_max": 2, "i_max": 1}))
    code = textwrap.dedent("""
        import contextlib, io, sys
        from homstab.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(sys.argv[1:])
        print(code, *(m in sys.modules
                      for m in ("argparse", "gettext", "locale")))
    """)
    env = dict(os.environ,
               PYTHONPATH=str(Path(verifier.__file__).parent.parent))
    out = subprocess.run(
        [sys.executable, "-c", code, "stability", "--config", str(path),
         "--format", "table", "--jobs", "2"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == ["0", "False", "False", "False"]


def _full_parse(argv, parser=None):
    """vars of the full parser's namespace for argv, or None where it
    prints help or an error."""
    from homstab.cli import build_parser
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars((parser or build_parser()).parse_args(argv))
        except SystemExit:
            return None


ARGV_TOKENS = ["verify-axioms", "connectivity", "homology", "degree",
               "stability", "bogus", "--config", "--conf",
               "--config=c.json", "--format", "json", "table", "tables",
               "--jobs", "2", "02", "-1", "2.5", "--jobs=3", "-h",
               "--help", "--", "c.json", ""]
ARGVS = st.one_of(
    st.lists(st.sampled_from(ARGV_TOKENS), max_size=7),
    st.builds(lambda command, pairs: [command] + [t for p in pairs
                                                  for t in p],
              st.sampled_from(ARGV_TOKENS),
              st.lists(st.tuples(st.sampled_from(ARGV_TOKENS),
                                 st.sampled_from(ARGV_TOKENS)),
                       max_size=3)))


@settings(max_examples=400, deadline=None)
@given(ARGVS)
@example(["stability", "--config", "c.json", "--jobs", "02",
          "--format", "table"])
@example(["degree", "--format", "json", "--config", ""])
@example(["homology", "--jobs", "-1", "--config", "c.json"])
def test_read_argv_agrees_with_full_parser(argv):
    # the reader declines or gives the full parser's namespace
    from homstab.cli import read_argv
    got = read_argv(argv)
    assert got is None or vars(got) == _full_parse(argv)


def test_read_argv_agrees_on_every_flag_pair():
    # each command token with every pair of tokens after it, alone and
    # after a valid --config: random argv seldom give a bad value and
    # the --config a call needs both
    from homstab.cli import build_parser, read_argv
    parser = build_parser()
    for command in ARGV_TOKENS[:6]:
        for flag in ARGV_TOKENS:
            for value in ARGV_TOKENS:
                for argv in ([command, flag, value],
                             [command, "--config", "c.json", flag, value]):
                    got = read_argv(argv)
                    assert got is None or \
                        vars(got) == _full_parse(argv, parser), argv


def _workflow_argvs():
    """The argv of every homstab.cli call in the CI workflow."""
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    return [shlex.split(call)
            for call in re.findall(r"-m homstab\.cli ([^>|\n]*)", text)]


def test_benchmark_and_ci_calls_take_the_reader(tmp_path):
    # the calls that are run, not only the ones the reader is built for,
    # skip the full parser: each benchmark workload, and each CI call the
    # full parser accepts (CI also asks it for help and an error)
    from homstab.cli import read_argv
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    argvs = [workloads.cli_argv(name, str(tmp_path / "c.json"))
             for name in workloads.WORKLOADS]
    assert len(argvs) == 4
    ci = _workflow_argvs()
    assert [argv for argv in ci if _full_parse(argv) is None] == [
        ["stability", "--help"], ["bogus"]]
    ci = [argv for argv in ci if _full_parse(argv)]
    assert len(ci) >= 17
    for argv in argvs + ci:
        got = read_argv(argv)
        assert got is not None and vars(got) == _full_parse(argv), argv


def test_stability_verifies_each_level_once(monkeypatch):
    # the setup of level n is certified before the grid, not per cell
    from homstab.homology_engine import StabilizationSetup
    calls = []
    verify = StabilizationSetup.verify

    def counting(self):
        calls.append(self.small.group.order)
        verify(self)
    monkeypatch.setattr(StabilizationSetup, "verify", counting)
    report = run_stability(_cfg(n_max=3, i_max=2), jobs=2)
    assert len(report["cells"]) == 9
    assert calls == [1, 1, 2]


def test_config_seed_is_hashed_not_read():
    cfg = _cfg()
    assert not hasattr(cfg, "seed")
    assert config_hash(cfg) != config_hash(_cfg(seed=1))


def test_cli_refused_groupoid_axioms_exit_3(tmp_path, capsys):
    # the groupoid axioms enumerate Aut(8) = Sym(8), past the default
    # group budget: they are one refused check, the remaining checks
    # run, and those past the budget are refused too
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"family": {"kind": "symmetric",
                                           "params": {}}, "n_max": 8}))
    assert cli_main(["verify-axioms", "--config", str(path)]) == 3
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert err == "" and report["passed"] is True
    refusal = "|Sym(8)| = 40320 exceeds budget 5040"
    checks = report["checks"]
    assert checks[0] == {"name": "groupoid axioms", "passed": True,
                         "skipped": refusal, "estimate": 40320,
                         "repro": {"config_hash": report["config_hash"],
                                   "n_max": 8}}
    refused = [c["name"] for c in checks if "skipped" in c]
    assert refused == (["groupoid axioms"]
                       + [f"homogeneity ({m},8)" for m in range(9)]
                       + ["local standardness"])
    assert all(c["skipped"] == refusal for c in checks if "skipped" in c)
    assert all(c["passed"] for c in checks)
    assert "prebraid identities" in {c["name"] for c in checks}


def test_table_marks_refused_checks_skip(tmp_path, capsys):
    # a check the budget refused reads [skip] in a table report, not the
    # [ok ] of a passed check; the exit code is 3, as with JSON
    config = {"family": {"kind": "symmetric", "params": {}}, "n_max": 8}
    code, out, err = _cli(tmp_path, capsys,
                          ["verify-axioms", "--format", "table"], config)
    assert (code, err) == (3, "")
    marks = dict(line[3:].split("] ", 1)[::-1] for line in out.splitlines()
                 if line.startswith("  ["))
    refused = (["groupoid axioms", "local standardness"]
               + [f"homogeneity ({m},8)" for m in range(9)])
    assert {marks[name] for name in refused} == {"skip"}
    assert marks["prebraid identities"] == "ok "
    text = report_emit({"checks": [
        {"name": "a", "passed": True}, {"name": "b", "passed": False},
        {"name": "c", "passed": True, "skipped": "refused"}]}, "table",
        io.StringIO())
    assert text.splitlines()[1:] == ["  [ok ] a", "  [FAIL] b",
                                     "  [skip] c"]


def test_cli_stability_past_the_group_budget_exits_0(tmp_path, capsys):
    # stability at i <= 1 enumerates no Sym(n), so Sym(8), past the
    # default group budget, is no refusal: all 16 cells are computed
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"family": {"kind": "symmetric",
                                           "params": {}}, "n_max": 8}))
    assert cli_main(["stability", "--config", str(path)]) == 0
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert err == "" and len(report["cells"]) == 16
    assert report["summary"]["skipped"] == 0
    assert report["summary"]["VIOLATION"] == 0


def test_cli_rejects_unknown_budget_key(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"family": {"kind": "symmetric",
                                           "params": {}}, "n_max": 2,
                                "budgets": {"order_limit_deg2": 720}}))
    assert cli_main(["homology", "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("homstab: error: unknown budgets key 'order_limit_deg2'"
                   "; the budgets are ['group_order', 'boundary_entries', "
                   "'pi1_steps']\n")


@pytest.mark.parametrize("theorem, coeff, k", [
    ("3.1", "standard", 2), ("3.1", "abelian_constant", 3),
    ("3.4", "standard", 3), ("3.4", "tensor", 3)])
def test_cli_refuses_theorem_for_its_coefficients(tmp_path, capsys,
                                                  theorem, coeff, k):
    # Theorem 3.1 is stated for constant coefficients and 3.4 for
    # constant or abelian ones; with twisted coefficients the parent
    # marked Sigma standard cell (0, 0) a VIOLATION and exited 2
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "family": {"kind": "symmetric", "params": {}}, "k": k,
        "n_max": 4, "i_max": 1, "theorems": [theorem],
        "coeff": {"kind": coeff, "params": {}}}))
    assert cli_main(["stability", "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"homstab: error: Theorem {theorem} is stated "
                          f"for the coeff kinds ")
    assert err.endswith(f", not '{coeff}'\n")


def test_cli_degree_window_admits_the_last_recursion_step(tmp_path,
                                                          capsys):
    # r_max 2, N_max 1 needs n_max >= 4; the recursion reaches r = -1 on
    # the window 0..1, which needs only n_max >= N_max there
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "family": {"kind": "symmetric", "params": {}}, "n_max": 4,
        "theorems": ["A", "4.20"],
        "coeff": {"kind": "tensor", "params": {"power": 2, "r_max": 2,
                                               "N_max": 1}}}))
    assert cli_main(["stability", "--config", str(path)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    rep = json.loads(out)
    assert rep["degree"] == {"r": 2, "N": 0, "split": True, "window": 4}
    assert rep["summary"]["VIOLATION"] == 0


@pytest.mark.parametrize("family, coeff, n_max, extra, message", [
    # the limit's maps s_n stop at n_probe, and internalize read past them
    # (an IndexError traceback)
    ("symmetric", {"kind": "internalized_abelian", "params": {"n_probe": 3}},
     4, {}, "the abelianization limit maps levels 0..3 only; internalizing "
     "levels 0..4 needs n_probe >= n_max"),
    ("symmetric", {"kind": "abelian_constant", "params": {"n_probe": -1}},
     3, {}, "n_probe must be at least 0, not -1"),
    # one coordinate for a limit with two invariant factors: zip cut the
    # entry short and the run exited 0
    ("wreath", {"kind": "abelian_constant", "params": {"subgroup": [[1]]}},
     3, {}, "subgroup [[1]]: each entry must list 2 integers, one per "
     "invariant factor of the limit Z/2 + Z/2"),
    ("wreath", {"kind": "internalized_abelian",
                "params": {"subgroup": [[1, 0], [1, 0, 0]]}},
     3, {}, "subgroup [[1, 0], [1, 0, 0]]: each entry must list 2 "
     "integers, one per invariant factor of the limit Z/2 + Z/2"),
    ("symmetric", {"kind": "abelian_constant", "params": {"subgroup": 1}},
     3, {}, "subgroup 1: each entry must list 1 integers, one per "
     "invariant factor of the limit Z/2"),
    # the limit reads H_1 of Sym(4) under the run's budget, outside any
    # grid cell
    ("symmetric", {"kind": "abelian_constant", "params": {}}, 4,
     {"budgets": {"boundary_entries": 17}},
     "presentation complex: chain level 2 needs a 3 x 6 boundary (18 "
     "entries > 17)"),
])
def test_cli_abelian_params_exit_1(tmp_path, capsys, family, coeff, n_max,
                                   extra, message):
    path = tmp_path / "cfg.json"
    params = {"cyclic_order": 2} if family == "wreath" else {}
    path.write_text(json.dumps({
        "family": {"kind": family, "params": params}, "k": 3,
        "n_max": n_max, "i_max": 1, "theorems": ["3.4"], "coeff": coeff,
        **extra}))
    assert cli_main(["stability", "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"homstab: error: {message}\n"


@pytest.mark.parametrize("family, coeff, message", [
    # a misspelt key ran with the default n_probe
    ({"kind": "symmetric", "params": {}},
     {"kind": "internalized_abelian", "params": {"n_prob": 2}},
     "unknown coefficient params key 'n_prob' for kind "
     "'internalized_abelian'; it accepts ['n_probe', 'subgroup', 'r_max', "
     "'N_max']"),
    ({"kind": "symmetric", "params": {}},
     {"kind": "standard", "params": {"rank": 2}},
     "unknown coefficient params key 'rank' for kind 'standard'; it "
     "accepts ['r_max', 'N_max']"),
    ({"kind": "wreath", "params": {"modulus": 3}},
     {"kind": "constant", "params": {}},
     "unknown family params key 'modulus' for kind 'wreath'; it accepts "
     "['cyclic_order']"),
    ({"kind": "braid", "params": {}}, {"kind": "constant", "params": {}},
     "unknown family kind 'braid'"),
])
def test_cli_rejects_unknown_params_key(tmp_path, capsys, family, coeff,
                                        message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"family": family, "k": 3, "n_max": 3,
                                "coeff": coeff}))
    assert cli_main(["degree", "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"homstab: error: {message}\n"


@pytest.mark.parametrize("patch, message", [
    # a TypeError traceback each
    ({"k": None}, "k must be an integer, not null"),
    ({"X": [1]}, "X must be an integer, not [1]"),
    # ran as A = 1, k = 3 and n_max = 1 under the hash of the given value
    ({"A": 1.5}, "A must be an integer, not 1.5"),
    ({"k": "3"}, 'k must be an integer, not "3"'),
    ({"n_max": True}, "n_max must be an integer, not true"),
    # exited 0 with no cells, and with "modules/s_mats length mismatch"
    ({"i_max": -1}, "i_max must be at least 0, not -1"),
    ({"n_max": -2}, "n_max must be at least 0, not -2"),
    ({"A": -1}, "A must be at least 0, not -1"),
    ({"k": 1}, "k must be at least 2, not 1"),
    # AssertionError tracebacks
    ({"family": {"kind": "wreath", "params": {"cyclic_order": 0}}},
     "cyclic_order must be at least 1, not 0"),
    ({"family": {"kind": "gl", "params": {"modulus": 1}}},
     "modulus must be at least 2, not 1"),
    ({"family": {"kind": "gl", "params": {"modulus": 2.0}}},
     "modulus must be an integer, not 2.0"),
    # ran as the zero module
    ({"coeff": {"kind": "constant", "params": {"rank": -1}}},
     "rank must be at least 0, not -1"),
    ({"coeff": {"kind": "tensor", "params": {"power": False}}},
     "power must be an integer, not false"),
    ({"coeff": {"kind": "abelian_constant", "params": {"n_probe": "4"}}},
     'n_probe must be an integer, not "4"'),
    ({"coeff": {"kind": "standard", "params": {"r_max": 2.5}}},
     "r_max must be an integer, not 2.5"),
    ({"coeff": {"kind": "standard", "params": {"N_max": None}}},
     "N_max must be an integer, not null"),
    # constant torsion: IndexError tracebacks, more factors than the rank
    ({"coeff": {"kind": "constant", "params": {"rank": 0, "torsion": [2]}}},
     "torsion must have at most 0 entries (the rank), not [2]"),
    ({"coeff": {"kind": "constant", "params": {"torsion": [2, 4]}}},
     "torsion must have at most 1 entries (the rank), not [2, 4]"),
    # AssertionError tracebacks
    ({"coeff": {"kind": "constant",
                "params": {"rank": 2, "torsion": [2, 3]}}},
     "torsion entries must each divide the next, not [2, 3]"),
    ({"coeff": {"kind": "constant",
                "params": {"rank": 2, "torsion": [4, 2]}}},
     "torsion entries must each divide the next, not [4, 2]"),
    ({"coeff": {"kind": "constant", "params": {"torsion": [0]}}},
     "torsion entry must be at least 2, not 0"),
    ({"coeff": {"kind": "constant", "params": {"torsion": [1]}}},
     "torsion entry must be at least 2, not 1"),
    ({"coeff": {"kind": "constant", "params": {"torsion": [-2]}}},
     "torsion entry must be at least 2, not -2"),
    ({"coeff": {"kind": "constant", "params": {"torsion": [True]}}},
     "torsion entry must be an integer, not true"),
    # a TypeError traceback
    ({"coeff": {"kind": "constant", "params": {"torsion": "2"}}},
     'torsion must be a list of integers, not "2"'),
    # exited 0
    ({"coeff": {"kind": "constant", "params": {"torsion": [2.5]}}},
     "torsion entry must be an integer, not 2.5"),
    # TypeError tracebacks: unhashable kinds
    ({"family": {"kind": ["symmetric"], "params": {}}},
     'family kind must be a string, not ["symmetric"]'),
    ({"coeff": {"kind": ["constant"], "params": {}}},
     'coefficient kind must be a string, not ["constant"]'),
    # budgets: a TypeError traceback, int()'s own message, and two runs
    # that read 2.5 as 2 and true as 1
    ({"budgets": {"group_order": [1]}},
     "group_order must be an integer, not [1]"),
    ({"budgets": {"group_order": "x"}},
     'group_order must be an integer, not "x"'),
    ({"budgets": {"group_order": 2.5}},
     "group_order must be an integer, not 2.5"),
    ({"budgets": {"pi1_steps": True}},
     "pi1_steps must be an integer, not true"),
    ({"budgets": {"boundary_entries": 0}},
     "boundary_entries must be at least 1, not 0"),
])
@pytest.mark.parametrize("command", ["homology", "stability"])
def test_cli_rejects_malformed_integer(tmp_path, capsys, patch, message,
                                       command):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "family": {"kind": "symmetric", "params": {}}, "k": 3, "n_max": 2,
        "theorems": ["A"], "coeff": {"kind": "constant", "params": {}},
        **patch}))
    assert cli_main([command, "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"homstab: error: {message}\n"


def test_cli_accepts_torsion_up_to_rank(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "family": {"kind": "symmetric", "params": {}}, "n_max": 2,
        "coeff": {"kind": "constant",
                  "params": {"rank": 2, "torsion": [2, 4]}}}))
    assert cli_main(["homology", "--config", str(path)]) == 0
    cells = json.loads(capsys.readouterr().out)["cells"]
    assert cells[0]["H"] == "Z/2 + Z/4"


_MODULE = {"free_rank": 1, "actions": []}


def _sym2(actions=((1,),), s_mats=((1,),)):
    """A rank-1 custom system on Sym(0), Sym(1), Sym(2): one action
    matrix, for the transposition of Sym(2), and s_mats[0] = [[1]]."""
    return {"n_max": 2, "s_mats": [[[1]], s_mats],
            "modules": [_MODULE, _MODULE, {**_MODULE, "actions": [actions]}]}


@pytest.mark.parametrize("patch, message", [
    # an AssertionError traceback
    ({"modules": [{**_MODULE, "torsion": [0]}, _MODULE]},
     "custom module 0 torsion entry must be at least 2, not 0"),
    ({"modules": [_MODULE, {**_MODULE, "torsion": [3, 2]}]},
     "custom module 1 torsion entries must each divide the next, not [3, 2]"),
    # ran as free rank 1
    ({"modules": [{**_MODULE, "free_rank": 1.7}, _MODULE]},
     "custom module 0 free_rank must be an integer, not 1.7"),
    ({"modules": [{**_MODULE, "free_rank": -1}, _MODULE]},
     "custom module 0 free_rank must be at least 0, not -1"),
    ({"n_max": 1.0}, "custom n_max must be an integer, not 1.0"),
    # "modules/s_mats length mismatch"
    ({"n_max": -1}, "custom n_max must be at least 0, not -1"),
    # ran and exited 0
    (_sym2(actions=[[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
     "custom module 2 action 0 must be a 1 x 1 matrix, not "
     "[[1, 0, 0], [0, 1, 0], [0, 0, 1]]"),
    (_sym2(actions=[[1, 2]]),
     "custom module 2 action 0 must be a 1 x 1 matrix, not [[1, 2]]"),
    (_sym2(s_mats=[[1, 1]]),
     "custom s_mats 1 must be a 1 x 1 matrix, not [[1, 1]]"),
    (_sym2(s_mats=[[1], [0]]),
     "custom s_mats 1 must be a 1 x 1 matrix, not [[1], [0]]"),
    (_sym2(actions=[[True]]),
     "custom module 2 action 0 entry must be an integer, not true"),
    # "action is not a homomorphism"
    (_sym2(actions=[[1.5]]),
     "custom module 2 action 0 entry must be an integer, not 1.5"),
    # an IndexError traceback
    (_sym2(actions=[[]]),
     "custom module 2 action 0 must be a 1 x 1 matrix, not [[]]"),
    # TypeError tracebacks
    ({**_sym2(), "modules": [_MODULE, _MODULE, {**_MODULE, "actions": 3}]},
     "custom module 2 actions must be a list, not 3"),
    ({**_sym2(), "s_mats": 3}, "custom s_mats must be a list, not 3"),
    ({"modules": 3}, "custom modules must be a list, not 3"),
    ({**_sym2(), "s_mats": [3, [[1]]]},
     "custom s_mats 0 must be a 1 x 1 matrix, not 3"),
    (_sym2(s_mats=[["a"]]),
     'custom s_mats 1 entry must be an integer, not "a"'),
    (_sym2(actions=[["a"]]),
     'custom module 2 action 0 entry must be an integer, not "a"'),
])
def test_cli_rejects_malformed_custom_system(tmp_path, capsys, patch,
                                             message):
    sys_path = tmp_path / "sys.json"
    sys_path.write_text(json.dumps({"n_max": 1, "s_mats": [[[1]]],
                                    "modules": [_MODULE] * 2, **patch}))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "family": {"kind": "symmetric", "params": {}}, "n_max": 1,
        "coeff": {"kind": "custom", "params": {"path": str(sys_path)}}}))
    assert cli_main(["homology", "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"homstab: error: {message}\n"


def test_degree_bound_defaults():
    # Theorems A and 4.20 and the degree run read one bound, (3, 0) by
    # default
    assert _cfg().degree_bound() == (3, 0)
    cfg = _cfg(coeff={"kind": "standard", "params": {"r_max": 2}})
    assert cfg.degree_bound() == (2, 0)


@pytest.mark.parametrize("family,coeff,theorems", [
    ({"kind": "symmetric", "params": {}}, {"r_max": 2, "N_max": 0}, ["A"]),
    ({"kind": "wreath", "params": {"cyclic_order": 2}},
     {"r_max": 2, "N_max": 0}, ["A", "4.20"])],
    ids=["stability-const-A", "Z/2 wr Sym"])
def test_stability_enumerates_no_group(monkeypatch, family, coeff,
                                       theorems):
    # at i <= 1 the walks take closed-form steps: no Sym(n) or G wr Sym(n)
    # builds its spanning tree or lists its elements
    from homstab.groups import FiniteGroup
    trees, listed = [], []
    tree, enumerate_ = FiniteGroup.tree, FiniteGroup._enumerate

    def counted(record, fn):
        def wrapper(G, *args):
            if "_list" in vars(G):          # a group built by formula
                record.append(G.name)
            return fn(G, *args)
        return wrapper
    monkeypatch.setattr(FiniteGroup, "tree", counted(trees, tree))
    monkeypatch.setattr(FiniteGroup, "_enumerate",
                        counted(listed, enumerate_))
    cfg = _cfg(family=family, n_max=5, theorems=theorems,
               coeff={"kind": "constant", "params": coeff})
    report = run_stability(cfg, jobs=2)
    assert exit_code(report) == 0 and len(report["cells"]) == 10
    assert (trees, listed) == ([], [])


@pytest.mark.parametrize("family,budget,refused", [
    ({"kind": "gl", "params": {"modulus": 2}}, 5040,
     "|GL_4(Z/2)| = 20160 exceeds budget 5040"),
    ({"kind": "symmetric", "params": {}}, 120,
     "|Sym(6)| = 720 exceeds budget 120")], ids=["GL(F_2)", "Sym"])
def test_local_standardness_past_the_budget_is_refused(family, budget,
                                                       refused):
    # Aut(A + n_max X) = Aut(4) of GL(F_2) and Aut(6) of Sym are past the
    # budget: local standardness is a refused check, and so are the
    # homogeneity cells past it, and the report exits 3
    cfg = _cfg(family=family, A=1, n_max=3 if budget == 5040 else 5,
               budgets={"group_order": budget})
    report = run_axioms(cfg)
    (ls,) = [c for c in report["checks"] if c["name"] == "local standardness"]
    assert ls == {"name": "local standardness", "passed": True,
                  "skipped": refused, "estimate": int(refused.split()[2]),
                  "repro": {"config_hash": config_hash(cfg),
                            "n_max": cfg.n_max}}
    assert report["passed"] is True
    assert exit_code(report) == 3


def test_exit_code_reads_refused_checks():
    checks = [{"name": "a", "passed": True}]
    assert exit_code({"passed": True, "checks": checks}) == 0
    checks.append({"name": "b", "passed": True, "skipped": "refused"})
    assert exit_code({"passed": True, "checks": checks}) == 3
    checks.append({"name": "c", "passed": False})
    assert exit_code({"passed": False, "checks": checks}) == 2


def test_frontier_past_the_group_budget():
    # Sym(10) and Z/2 wr Sym(7) are past the default group budget, which
    # refuses only enumeration: every cell is computed.  Z^n is induced
    # from Sym(n-1), so by Shapiro's lemma H_1(Sym(n); Z^n) =
    # H_1(Sym(n-1); Z) = Z/2 for n >= 3
    std = run_stability(_cfg(
        n_max=10, theorems=["A", "4.20"],
        coeff={"kind": "standard", "params": {"r_max": 2, "N_max": 0}}),
        jobs=2)
    wreath = run_stability(_cfg(
        family={"kind": "wreath", "params": {"cyclic_order": 2}}, n_max=7,
        theorems=["A", "4.20"],
        coeff={"kind": "constant", "params": {"r_max": 2, "N_max": 0}}),
        jobs=2)
    for report in (std, wreath):
        assert exit_code(report) == 0
        assert report["summary"]["skipped"] == 0
    assert [c["source"] for c in std["cells"] if c["i"] == 1] == \
        ["0"] * 3 + ["Z/2"] * 7


BURAU = {"family": {"kind": "symmetric", "params": {}}, "k": 2, "n_max": 5,
         "i_max": 1, "coeff": {"kind": "burau", "params": {}}}


def _cli(tmp_path, capsys, argv, config):
    """(exit code, stdout, stderr) of cli.main on argv and config."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code = cli_main(argv[:1] + ["--config", str(path)] + argv[1:])
    return (code, *capsys.readouterr())


def test_cli_degree_on_burau(tmp_path, capsys):
    code, out, err = _cli(tmp_path, capsys, ["degree"], BURAU)
    assert (code, err) == (0, "")
    rep = json.loads(out)
    assert rep["system"] == "burau" and rep["passed"] is True
    assert rep["degree"] == {"status": "ok", "r": 1, "N": 0, "window": 5,
                             "note": "window-relative verdict"}
    assert rep["split"] == {"witness_found": None,
                            "note": "structural Laurent fragment"}
    code, out, err = _cli(tmp_path, capsys,
                          ["degree", "--format", "table"], BURAU)
    assert (code, err) == (0, "")
    assert ("degree: {'status': 'ok', 'r': 1, 'N': 0, 'window': 5, "
            "'note': 'window-relative verdict'}\n") in out


@pytest.mark.parametrize("command, theorems, message", [
    ("stability", None,
     "Theorem 3.1 is stated for the coeff kinds ['constant'], not 'burau'"),
    ("stability", ["A"], "stability grids need a finite coefficient system"),
    ("homology", None, "homology grids need a finite coefficient system"),
], ids=["stability default", "stability A", "homology"])
def test_cli_grids_refuse_burau(tmp_path, capsys, command, theorems,
                                message):
    config = dict(BURAU, theorems=theorems) if theorems else BURAU
    assert _cli(tmp_path, capsys, [command], config) == (
        1, "", f"homstab: error: {message}\n")


def test_degree_solves_each_split_witness_once(tmp_path, capsys,
                                               monkeypatch):
    # the CI Split-witness run asks the tensor square for its witness
    # twice, in run_degree and at the top of its split degree, and each
    # cokernel system once: one joint integer system per distinct system
    from homstab import coeffsys
    asked, solves = [], []
    witness, solve = coeffsys.split_witness, coeffsys.solve_integer

    def recorded(F):
        asked.append(F)
        return witness(F)

    def counted(*args):
        solves.append(args)
        return solve(*args)
    monkeypatch.setattr(coeffsys, "split_witness", recorded)
    monkeypatch.setattr(verifier, "split_witness", recorded)
    monkeypatch.setattr(coeffsys, "solve_integer", counted)
    config = {"family": {"kind": "symmetric", "params": {}}, "k": 2,
              "n_max": 6, "coeff": {"kind": "tensor", "params": {
                  "power": 2, "r_max": 3, "N_max": 1}}}
    code, out, err = _cli(tmp_path, capsys, ["degree"], config)
    assert (code, err) == (0, "")
    assert json.loads(out)["split"]["witness_found"] is True
    distinct = len({id(F) for F in asked})
    assert len(asked) > distinct
    assert len(solves) == distinct


def test_degree_builds_each_cokernel_system_once(tmp_path, capsys,
                                                 monkeypatch):
    # the plain and the split degree of the CI Split-witness run both
    # recurse into the cokernel tower: one build per distinct system
    from homstab.coeffsys import CoefficientSystem
    built, subquotient = [], CoefficientSystem._subquotient_system

    def recorded(self, kind, ambient, sqs):
        if kind == "coker":
            built.append(self)      # kept alive, so that ids stay distinct
        return subquotient(self, kind, ambient, sqs)
    monkeypatch.setattr(CoefficientSystem, "_subquotient_system", recorded)
    config = {"family": {"kind": "symmetric", "params": {}}, "k": 2,
              "n_max": 6, "coeff": {"kind": "tensor", "params": {
                  "power": 2, "r_max": 3, "N_max": 1}}}
    code, out, err = _cli(tmp_path, capsys, ["degree"], config)
    assert (code, err) == (0, "")
    assert json.loads(out)["split"]["degree"]["status"] == "ok"
    assert len(built) == len({id(F) for F in built}) == 3
