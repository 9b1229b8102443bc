"""Verification runs: configuration, range predicates, grids, reports.

A run is described by a JSON config (family, coefficient system, slope
k, window, theorems, budgets).  The verifier evaluates the chosen
stability range predicates on an (n, i) grid of observed stabilization
maps, plus axiom, connectivity, degree and homology runs.  Every report,
the homology grid's included (no cache is read), is deterministic given
(config, toolkit version) and independent of the parallelism width;
wall-clock timings are kept out of the canonical JSON for that reason.
"""

from __future__ import annotations

import json
import hashlib
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from . import __version__
from .groups import BudgetExceeded, DEFAULT_GROUP_BUDGET, cyclic_group
from .groupoids import (make_symmetric, make_wreath, make_general_linear,
                        FiniteRing, verify_groupoid_axioms)
from .bracket import BracketCategory
from .simplicial import build_W, lift_profile, connectivity_certificate
from .exact_linalg import FGAbelianGroup
from .homology_engine import (BarBudget, GModule, bar_homology,
                              stabilization_status, les_exact_at_rel)
from .coeffsys import (CoefficientSystem, constant_system, standard_system,
                       tensor_power, abelian_constant_system, internalize,
                       abelianization_limit, degree_profile,
                       split_witness, split_degree_profile)

SCHEMA_VERSION = 1
BANNER = ("Any VIOLATION entry indicates a defect in this toolkit, "
          "never a refutation: the stability theorems are proved.")


# ----------------------------------------------------------------------
# configuration


@dataclass
class FamilyConfig:
    raw: dict
    family_kind: str
    family_params: dict
    A: int
    X: int
    coeff_kind: str
    coeff_params: dict
    k: int
    n_max: int
    i_max: int
    theorems: list
    budgets: dict

    def budget(self, key: str) -> int:
        return self.budgets.get(key, BUDGETS[key])

    def degree_bound(self) -> tuple[int, int]:
        """(r_max, N_max): the degree bound that Theorems A and 4.20 and
        the degree run ask of the coefficient system."""
        return (self.coeff_params.get("r_max", 3),
                self.coeff_params.get("N_max", 0))

    def bar_budget(self) -> BarBudget:
        return BarBudget(self.budget("boundary_entries"))


# the budgets a config may set, with their defaults
BUDGETS = {"group_order": DEFAULT_GROUP_BUDGET,
           "boundary_entries": BarBudget.max_entries,
           "pi1_steps": 10 ** 6}
ABELIAN_COEFFS = {"abelian_constant", "internalized_abelian"}
# the params each family and coefficient kind reads; every coefficient
# kind also takes r_max and N_max, the degree bound of A and 4.20
FAMILY_PARAMS = {"symmetric": (), "wreath": ("cyclic_order",),
                 "gl": ("modulus",)}
COEFF_PARAMS = {"constant": ("rank", "torsion"), "standard": (),
                "tensor": ("power",),
                "abelian_constant": ("n_probe", "subgroup"),
                "internalized_abelian": ("n_probe", "subgroup"),
                "burau": (), "custom": ("path",)}
# the integer params, with the least value each admits (None: any)
INT_PARAMS = {"cyclic_order": 1, "modulus": 2, "rank": 0, "power": None,
              "n_probe": 0, "r_max": None, "N_max": None}
THEOREMS = ("3.1", "3.4", "A", "4.20")
# the coefficient kinds a theorem is stated for; A and 4.20 take any
THEOREM_COEFFS = {"3.1": {"constant"}, "3.4": {"constant"} | ABELIAN_COEFFS}


def _require(obj, what: str, keys=()) -> dict:
    """obj, checked to be a JSON object holding every key in keys."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, not "
                         f"{type(obj).__name__}")
    for key in keys:
        if key not in obj:
            raise ValueError(f"{what} lacks the key {key!r}")
    return obj


def _integer(value, key: str, least) -> int:
    """value, checked to be a JSON integer, not a bool, and at least
    least unless least is None."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, not "
                         f"{json.dumps(value)}")
    if least is not None and value < least:
        raise ValueError(f"{key} must be at least {least}, not {value}")
    return value


def _torsion(value, key: str, most=None) -> tuple:
    """value, checked to be a JSON list of invariant factors: integers,
    not bools, each at least 2 and dividing the next, and at most most
    of them unless most is None."""
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list of integers, not "
                         f"{json.dumps(value)}")
    for d in value:
        _integer(d, f"{key} entry", 2)
    if any(b % a for a, b in zip(value, value[1:])):
        raise ValueError(f"{key} entries must each divide the next, not "
                         f"{json.dumps(value)}")
    if most is not None and len(value) > most:
        raise ValueError(f"{key} must have at most {most} entries (the "
                         f"rank), not {json.dumps(value)}")
    return tuple(value)


def _list(value, what: str) -> list:
    """value, checked to be a JSON list."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, not {json.dumps(value)}")
    return value


def _matrix(value, rows: int, cols: int, what: str) -> list:
    """value, checked to be a JSON list of rows lists of cols integers,
    none of them a bool."""
    if not (isinstance(value, list) and len(value) == rows and all(
            isinstance(row, list) and len(row) == cols for row in value)):
        raise ValueError(f"{what} must be a {rows} x {cols} matrix, not "
                         f"{json.dumps(value)}")
    for row in value:
        for entry in row:
            _integer(entry, f"{what} entry", None)
    return value


def _theorems(value) -> list:
    """value, checked to be a JSON list of theorem names."""
    if not isinstance(value, list) or not all(
            isinstance(t, str) and t in THEOREMS for t in value):
        raise ValueError(f"theorems must be a list drawn from "
                         f"{list(THEOREMS)}, not {json.dumps(value)}")
    return list(value)


def load_config(source) -> FamilyConfig:
    """Validate and normalize a config given as a dict or a JSON path."""
    if isinstance(source, dict):
        raw = source
    else:
        with open(source) as fh:
            raw = json.load(fh)
    _require(raw, "config")
    fam = _require(raw.get("family", {}), "family")
    coeff = _require(raw.get("coeff", {"kind": "constant", "params": {}}),
                     "coeff")
    cfg = FamilyConfig(
        raw=raw,
        family_kind=fam.get("kind", "symmetric"),
        family_params=_require(fam.get("params", {}), "family params"),
        A=_integer(raw.get("A", 0), "A", 0),
        X=_integer(raw.get("X", 1), "X", 1),
        coeff_kind=coeff.get("kind", "constant"),
        coeff_params=_require(coeff.get("params", {}), "coeff params"),
        k=_integer(raw.get("k", 2), "k", 2),
        n_max=_integer(raw.get("n_max", 4), "n_max", 0),
        i_max=_integer(raw.get("i_max", 1), "i_max", 0),
        theorems=_theorems(raw.get("theorems", ["3.1"])),
        budgets=dict(_require(raw.get("budgets", {}), "budgets")),
    )
    for key, value in cfg.budgets.items():
        if key not in BUDGETS:
            raise ValueError(f"unknown budgets key {key!r}; the budgets are "
                             f"{list(BUDGETS)}")
        _integer(value, key, 1)
    for what, kind, params, table, common in (
            ("family", cfg.family_kind, cfg.family_params, FAMILY_PARAMS,
             ()),
            ("coefficient", cfg.coeff_kind, cfg.coeff_params, COEFF_PARAMS,
             ("r_max", "N_max"))):
        if not isinstance(kind, str):
            raise ValueError(f"{what} kind must be a string, not "
                             f"{json.dumps(kind)}")
        if kind not in table:
            raise ValueError(f"unknown {what} kind {kind!r}")
        accepted = list(table[kind]) + list(common)
        for key, value in params.items():
            if key not in accepted:
                raise ValueError(f"unknown {what} params key {key!r} for "
                                 f"kind {kind!r}; it accepts {accepted}")
            if key in INT_PARAMS:
                _integer(value, key, INT_PARAMS[key])
    if cfg.coeff_kind == "constant":
        _torsion(cfg.coeff_params.get("torsion", []), "torsion",
                 cfg.coeff_params.get("rank", 1))
    if cfg.coeff_kind == "custom":
        _require(cfg.coeff_params, "coeff custom params", ("path",))
    wants_abelian = cfg.coeff_kind in ABELIAN_COEFFS or "3.4" in cfg.theorems
    if wants_abelian and cfg.k < 3:
        raise ValueError("abelian/internalized ranges require k >= 3")
    return cfg


def config_hash(cfg: FamilyConfig) -> str:
    blob = json.dumps(cfg.raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def build_instance(cfg: FamilyConfig):
    budget = cfg.budget("group_order")
    kind = cfg.family_kind
    if kind == "symmetric":
        return make_symmetric(budget=budget)
    if kind == "wreath":
        m = cfg.family_params.get("cyclic_order", 2)
        return make_wreath(cyclic_group(m), budget=budget)
    if kind == "gl":
        q = cfg.family_params.get("modulus", 2)
        return make_general_linear(FiniteRing(q), budget=budget)
    raise ValueError(f"unknown family kind {kind!r}")


def _custom_system(cat: BracketCategory, cfg: FamilyConfig):
    """Load a coefficient system from a JSON description and verify it.

    Schema: {"n_max", "modules": [{"free_rank", "torsion", "actions":
    [matrix per generator of Aut(A + n X), in generator order]}],
    "s_mats": [matrix]}.  Matrices are lists of rows of integers: an
    action at level n is rank_n x rank_n, s_mats[n] is rank_{n+1} x
    rank_n.
    """
    with open(cfg.coeff_params["path"]) as fh:
        desc = _require(json.load(fh), "custom description",
                        ("n_max", "modules", "s_mats"))
    n_max = _integer(desc["n_max"], "custom n_max", 0)
    mods = []
    for n, md in enumerate(_list(desc["modules"], "custom modules")):
        what = f"custom module {n}"
        _require(md, what, ("actions",))
        grp = cat.G.aut(cfg.A + n * cfg.X)
        under = FGAbelianGroup(
            _integer(md.get("free_rank", 0), f"{what} free_rank", 0),
            _torsion(md.get("torsion", []), f"{what} torsion"))
        actions = _list(md["actions"], f"{what} actions")
        if len(actions) != len(grp.generators):
            raise ValueError(f"level {n}: expected one action matrix per "
                             f"group generator")
        for j, mat in enumerate(actions):
            _matrix(mat, under.rank, under.rank, f"{what} action {j}")
        mods.append(GModule(grp, under,
                            dict(zip(grp.generators, actions)),
                            name=f"custom_{n}"))
        mods[-1].verify_action()
    s_mats = _list(desc["s_mats"], "custom s_mats")
    for n, (mat, lo, hi) in enumerate(zip(s_mats, mods, mods[1:])):
        _matrix(mat, hi.rank, lo.rank, f"custom s_mats {n}")
    system = CoefficientSystem(cat, cfg.A, cfg.X, n_max, mods, s_mats,
                               name="custom")
    system.verify()
    return system


def build_system(cfg: FamilyConfig, cat: BracketCategory):
    kind = cfg.coeff_kind
    p = cfg.coeff_params
    if kind == "constant":
        return constant_system(cat, cfg.A, cfg.X, cfg.n_max,
                               rank=p.get("rank", 1),
                               torsion=tuple(p.get("torsion", [])))
    if kind == "standard":
        return standard_system(cat, cfg.A, cfg.n_max)
    if kind == "tensor":
        return tensor_power(standard_system(cat, cfg.A, cfg.n_max),
                            p.get("power", 2))
    if kind in ABELIAN_COEFFS:
        probe = p.get("n_probe", cfg.n_max)
        lim = abelianization_limit(cat, cfg.A, cfg.X, probe, cfg.k,
                                   cfg.bar_budget())
        if lim.stable_from is None:
            raise ValueError("abelianization limit undetermined on the "
                             "probe window")
        system, star = abelian_constant_system(
            cat, cfg.A, cfg.X, cfg.n_max, lim, p.get("subgroup", []))
        if kind == "abelian_constant":
            return system
        return internalize(system, lim, star)
    if kind == "burau":
        from .burau import BurauSystem
        return BurauSystem(cfg.n_max)
    if kind == "custom":
        return _custom_system(cat, cfg)
    raise ValueError(f"unknown coefficient kind {kind!r}")


# ----------------------------------------------------------------------
# range predicates


@dataclass
class RangePredicate:
    """Integer-floor stability ranges for one theorem.

    epi_max(n)/iso_max(n) give the largest homological degree claimed;
    claims apply only for n > min_n_exclusive.  rel_vanish_from(i), when
    present, gives the least n from which Rel_i must vanish.
    """

    theorem: str
    k: int
    r: int = 0
    N: int = 0
    split: bool = False

    @property
    def min_n_exclusive(self) -> int:
        return self.N if self.theorem == "A" else -1

    def epi_max(self, n: int):
        if self.theorem == "3.1":
            return n // self.k
        if self.theorem == "3.4":
            return (n - self.k + 2) // self.k
        if self.theorem == "A":
            return n // self.k - self.r
        return None

    def iso_max(self, n: int):
        if self.theorem == "3.1":
            return (n - 1) // self.k
        if self.theorem == "3.4":
            return (n - self.k) // self.k
        if self.theorem == "A":
            return n // self.k - self.r - 1
        return None

    def rel_vanish_from(self, i: int):
        if self.theorem != "4.20":
            return None
        if self.split:
            return max(self.N + 1, self.k * i + self.r)
        return max(self.N + 1, self.k * (i + self.r))


def predicted_ranges(theorem: str, k: int, r: int = 0, N: int = 0,
                     split: bool = False) -> RangePredicate:
    if theorem not in THEOREMS:
        raise ValueError(f"unknown theorem {theorem!r}")
    if theorem == "3.4" and k < 3:
        raise ValueError("Theorem 3.4 requires slope k >= 3")
    if k < 2 or r < 0 or N < 0:
        raise ValueError("parameter out of range")
    pred = RangePredicate(theorem, k, r, N, split)
    for n in range(0, 101):
        e, s = pred.epi_max(n), pred.iso_max(n)
        if e is not None and s is not None:
            assert 0 <= e - s <= k, "epi/iso gap out of range"
    return pred


# ----------------------------------------------------------------------
# runs


def _refusal(cfg: FamilyConfig, exc: BudgetExceeded, **cell) -> dict:
    """The report fields of a cell that a budget refused: the message,
    the refused size and a repro block of the config hash and the cell."""
    return {"skipped": str(exc), "estimate": exc.estimate,
            "repro": {"config_hash": config_hash(cfg), **cell}}


def run_axioms(cfg: FamilyConfig) -> dict:
    inst = build_instance(cfg)
    cat = BracketCategory(inst)
    checks = []
    try:
        rep = verify_groupoid_axioms(inst, cfg.n_max)
    except BudgetExceeded as exc:
        checks.append({"name": "groupoid axioms", "passed": True,
                       **_refusal(cfg, exc, n_max=cfg.n_max)})
    else:
        for c in rep.checks:
            checks.append({"name": f"groupoid: {c.identity}",
                           "passed": c.passed,
                           "witness": repr(c.witness) if c.witness
                           else None})
    top = cfg.A + cfg.n_max * cfg.X
    for m in range(0, top + 1):
        for n in range(m, top + 1):
            try:
                h = cat.verify_homogeneity(m, n)
            except BudgetExceeded as exc:
                checks.append({"name": f"homogeneity ({m},{n})",
                               "passed": True,
                               **_refusal(cfg, exc, m=m, n=n)})
                continue
            checks.append({"name": f"homogeneity ({m},{n})",
                           "passed": h["passed"],
                           "witness": None if h["passed"] else repr(h)})
    # up to top, or below the least object whose Aut the budget refuses;
    # passing there, the check is reported as a refused homogeneity cell
    refused = None
    for pb_top in range(top, -1, -1):
        try:
            pb = cat.verify_prebraid(pb_top)
            break
        except BudgetExceeded as exc:
            refused = refused or exc
    if refused and pb["passed"]:
        checks.append({"name": "prebraid identities", "passed": True,
                       **_refusal(cfg, refused, top=top)})
    else:
        checks.append({"name": "prebraid identities",
                       "passed": pb["passed"],
                       "witness": repr(pb["failures"]) if pb["failures"]
                       else None})
    try:
        ls = cat.verify_local_standardness(cfg.A, cfg.X, cfg.n_max)
    except BudgetExceeded as exc:
        checks.append({"name": "local standardness", "passed": True,
                       **_refusal(cfg, exc, n_max=cfg.n_max)})
    else:
        checks.append({"name": "local standardness", "passed": ls["passed"],
                       "witness": None if ls["passed"] else repr(
                           {k: v for k, v in ls.items() if "fail" in k})})
    return {
        "command": "verify-axioms",
        "schema_version": SCHEMA_VERSION,
        "config_hash": config_hash(cfg),
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }


def run_connectivity(cfg: FamilyConfig) -> dict:
    inst = build_instance(cfg)
    cat = BracketCategory(inst)
    cells = []
    for n in range(1, cfg.n_max + 1):
        target = (n - 2) // cfg.k
        try:
            W = build_W(cat, cfg.A, cfg.X, n)
            lp = lift_profile(W)
            cert = connectivity_certificate(W, target,
                                            cfg.budget("pi1_steps"),
                                            cfg.bar_budget())
        except BudgetExceeded as exc:
            cells.append({"n": n, **_refusal(cfg, exc, n=n)})
            continue
        cells.append({
            "n": n,
            "target": target,
            "lift_condition": lp.condition,
            "homology_vanishing_up_to": cert.homology_vanishing_up_to,
            "certified_connectivity": cert.certified_connectivity,
            "pi1_status": cert.pi1_status,
            "mode": cert.mode,
            "meets_target_topological": cert.meets_target,
            "meets_target_homological": cert.meets_target_homological,
        })
    ok = all(c.get("meets_target_homological", True) for c in cells)
    return {
        "command": "connectivity",
        "schema_version": SCHEMA_VERSION,
        "config_hash": config_hash(cfg),
        "passed": ok,
        "cells": cells,
    }


def run_degree(cfg: FamilyConfig) -> dict:
    inst = build_instance(cfg)
    cat = BracketCategory(inst)
    system = build_system(cfg, cat)
    r_max, n_cap = cfg.degree_bound()
    out = {
        "command": "degree",
        "schema_version": SCHEMA_VERSION,
        "config_hash": config_hash(cfg),
        "system": system.name,
        "window_n_max": system.n_max,
    }
    if isinstance(system, CoefficientSystem):
        dp = degree_profile(system, r_max, n_cap)
        wit = split_witness(system)
        split = {"witness_found": wit is not None}
        if wit is not None:
            sdp = split_degree_profile(system, r_max, n_cap)
            split["degree"] = {"status": sdp.status, "r": sdp.r,
                               "N": sdp.N, "window": sdp.window}
    else:
        dp = system.degree_profile(r_max, n_cap)
        split = {"witness_found": None,
                 "note": "structural Laurent fragment"}
    out["degree"] = {"status": dp.status, "r": dp.r, "N": dp.N,
                     "window": dp.window,
                     "note": "window-relative verdict"}
    out["split"] = split
    out["passed"] = dp.status == "ok"
    return out


def run_homology(cfg: FamilyConfig, jobs: int = 1) -> dict:
    inst = build_instance(cfg)
    cat = BracketCategory(inst)
    system = build_system(cfg, cat)
    if not isinstance(system, CoefficientSystem):
        raise ValueError("homology grids need a finite coefficient system")
    budget = cfg.bar_budget()
    grid = [(n, i) for n in range(cfg.n_max + 1)
            for i in range(cfg.i_max + 1)]

    def cell(args):
        n, i = args
        try:
            h = bar_homology(system.modules[n], i, budget)
        except BudgetExceeded as exc:
            return {"n": n, "i": i, **_refusal(cfg, exc, n=n, i=i)}
        return {"n": n, "i": i, "H": str(h)}

    with ThreadPoolExecutor(max_workers=max(1, jobs)) as pool:
        cells = list(pool.map(cell, grid))
    skipped = sum(1 for c in cells if "skipped" in c)
    return {
        "command": "homology",
        "schema_version": SCHEMA_VERSION,
        "config_hash": config_hash(cfg),
        "cells": cells,
        "skipped": skipped,
        "passed": True,
    }


def _classify_cell(status, preds, n, i):
    """Verdict of an observed stabilization cell against predicates."""
    claims = []
    for p in preds:
        if p.theorem == "4.20":
            continue
        if n <= p.min_n_exclusive:
            continue
        e, s = p.epi_max(n), p.iso_max(n)
        if i <= s:
            claims.append((p.theorem, "iso"))
        elif i <= e:
            claims.append((p.theorem, "epi"))
    if not claims:
        return "no claim", []
    bad = [f"{t}:{c}" for t, c in claims
           if (c == "iso" and not status["is_iso"])
           or (c == "epi" and not status["is_epi"])]
    return ("VIOLATION" if bad else "consistent",
            bad or [f"{t}:{c}" for t, c in claims])


def run_stability(cfg: FamilyConfig, jobs: int = 1) -> dict:
    for t in cfg.theorems:
        kinds = THEOREM_COEFFS.get(t)
        if kinds is not None and cfg.coeff_kind not in kinds:
            raise ValueError(f"Theorem {t} is stated for the coeff kinds "
                             f"{sorted(kinds)}, not {cfg.coeff_kind!r}")
    inst = build_instance(cfg)
    cat = BracketCategory(inst)
    system = build_system(cfg, cat)
    if not isinstance(system, CoefficientSystem):
        raise ValueError("stability grids need a finite coefficient system")
    budget = cfg.bar_budget()

    # degree/split data feed Theorem A / 4.20 predicates
    r_par, n_par, split_flag = 0, 0, False
    needs_degree = any(t in ("A", "4.20") for t in cfg.theorems)
    degree_info = None
    if needs_degree:
        dp = degree_profile(system, *cfg.degree_bound())
        if dp.status != "ok":
            raise ValueError("degree exceeds the requested bound; cannot "
                             "build Theorem A / 4.20 predicates")
        r_par, n_par = dp.r, dp.N
        split_flag = split_witness(system) is not None
        degree_info = {"r": r_par, "N": n_par, "split": split_flag,
                       "window": dp.window}
    preds = [predicted_ranges(t, cfg.k, r_par, n_par, split_flag)
             for t in cfg.theorems]
    wants_rel = any(p.theorem == "4.20" for p in preds)
    grid = [(n, i) for n in range(cfg.n_max)
            for i in range(cfg.i_max + 1)]
    # one verified setup per level; its cells share its chain maps
    setups = [system.stabilization_setup(n) for n in range(cfg.n_max)]
    for setup in setups:
        setup.verify()

    def cell(args):
        n, i = args
        out = {"n": n, "i": i}
        setup = setups[n]
        try:
            # a 4.20 cell reads the stabilization verdict off its LES pass
            if wants_rel:
                st = les_exact_at_rel(setup, i, budget)
            else:
                st = stabilization_status(setup, i, budget)
            out.update({
                "source": str(st["source"]),
                "target": str(st["target"]),
                "is_epi": st["is_epi"],
                "is_iso": st["is_iso"],
            })
            verdict, claims = _classify_cell(st, preds, n, i)
            out["verdict"] = verdict
            out["claims"] = claims
            if wants_rel:
                rel = st["Rel_i"]
                out["rel"] = str(rel)
                out["les_exact"] = st["exact"]
                if not st["exact"]:
                    out["verdict"] = "VIOLATION"
                    out["claims"] = out.get("claims", []) + ["LES"]
                for p in preds:
                    v = p.rel_vanish_from(i)
                    if v is not None and n >= v:
                        out.setdefault("claims", []).append(
                            f"4.20:vanish(n>={v})")
                        if not rel.is_trivial():
                            out["verdict"] = "VIOLATION"
                        elif out["verdict"] == "no claim":
                            out["verdict"] = "consistent"
        except BudgetExceeded as exc:
            out["verdict"] = "skipped"
            out.update(_refusal(cfg, exc, n=n, i=i))
        if out.get("verdict") == "VIOLATION":
            out["repro"] = {"config_hash": config_hash(cfg), "n": n, "i": i}
        return out

    with ThreadPoolExecutor(max_workers=max(1, jobs)) as pool:
        cells = list(pool.map(cell, grid))
    counts = {"consistent": 0, "no claim": 0, "skipped": 0, "VIOLATION": 0}
    for c in cells:
        counts[c["verdict"]] = counts.get(c["verdict"], 0) + 1
    report = {
        "command": "stability",
        "schema_version": SCHEMA_VERSION,
        "banner": BANNER,
        "config_hash": config_hash(cfg),
        "toolkit_version": __version__,
        "theorems": cfg.theorems,
        "predicates": [{"theorem": p.theorem, "k": p.k, "r": p.r,
                        "N": p.N, "split": p.split} for p in preds],
        "cells": cells,
        "summary": counts,
    }
    if degree_info:
        report["degree"] = degree_info
    return report


# ----------------------------------------------------------------------
# emission and exit codes


def report_emit(report: dict, fmt: str = "json", stream=None) -> str:
    stream = stream or sys.stdout
    if fmt == "json":
        text = json.dumps(report, sort_keys=True, indent=2,
                          default=str) + "\n"
        stream.write(text)
        return text
    lines = [f"== {report.get('command', 'report')} "
             f"(config {report.get('config_hash', '?')}) =="]
    if "banner" in report:
        lines.append(report["banner"])
    if "checks" in report:
        for c in report["checks"]:
            mark = "ok " if c["passed"] else "FAIL"
            lines.append(f"  [{mark}] {c['name']}")
    for c in report.get("cells", []):
        frag = " ".join(f"{k}={v}" for k, v in sorted(c.items())
                        if k not in ("repro",))
        lines.append(f"  {frag}")
    if "summary" in report:
        lines.append("summary: " + " ".join(
            f"{k}={v}" for k, v in sorted(report["summary"].items())))
    if "degree" in report:
        lines.append(f"degree: {report['degree']}")
    if "passed" in report:
        lines.append(f"passed: {report['passed']}")
    text = "\n".join(lines) + "\n"
    stream.write(text)
    return text


def exit_code(report: dict) -> int:
    """0 = clean, 2 = violations/failed checks, 3 = budget-starved (a
    refused cell or check)."""
    if report.get("passed") is False:
        return 2
    if report.get("summary", {}).get("VIOLATION", 0):
        return 2
    entries = report.get("cells", []) + report.get("checks", [])
    skipped = report.get("skipped", 0) or sum(
        1 for c in entries if "skipped" in c or c.get("verdict") == "skipped")
    if skipped:
        return 3
    return 0
