"""The benchmark's workloads: one CLI call each, and the report fields
that are checked against the results recorded at the seed commit.

The configs are scaled-down versions of the hot acceptance criteria
(07/09/11 -> stability, 06 -> connectivity, 05 -> axioms).  At these
sizes every cell is computed and none is refused, so the work of a call
is fixed by the config; the benchmark seed only fills the config's
``seed`` field, which these runs do not read.
"""

from __future__ import annotations

import copy

SYMMETRIC = {"kind": "symmetric", "params": {}}

WORKLOADS = {
    # Every call lasts about a second: a run then holds 15 to 35 calls,
    # enough for its fastest call to escape the machine's slowdowns.  The
    # configs the workloads were first defined with (5-11 s a call) are
    # named in README.md.
    #
    # one large linear-algebra job: cell (4,1) spans the bar d2 of Sym(5)
    "stability-const-A": {
        "command": "stability", "jobs": 2,
        "config": {"family": SYMMETRIC, "A": 0, "X": 1,
                   "coeff": {"kind": "constant",
                             "params": {"r_max": 2, "N_max": 0}},
                   "k": 2, "n_max": 5, "i_max": 1, "theorems": ["A"]},
    },
    # many medium complexes, mostly rebuilt across 8 comparable cells
    "stability-std-420": {
        "command": "stability", "jobs": 2,
        "config": {"family": SYMMETRIC, "A": 0, "X": 1,
                   "coeff": {"kind": "standard",
                             "params": {"r_max": 2, "N_max": 0}},
                   "k": 2, "n_max": 4, "i_max": 1,
                   "theorems": ["A", "4.20"]},
    },
    # hom-set enumeration: build_W and canonicalize dominate
    "connectivity-wreath": {
        "command": "connectivity", "jobs": None,
        "config": {"family": {"kind": "wreath",
                              "params": {"cyclic_order": 3}},
                   "A": 0, "X": 1, "k": 2, "n_max": 4},
    },
    # single-morphism canonicalize and GL(Z/4) arithmetic
    "axioms-gl": {
        "command": "verify-axioms", "jobs": None,
        "config": {"family": {"kind": "gl", "params": {"modulus": 4}},
                   "A": 0, "X": 1, "k": 2, "n_max": 2},
    },
}

# report fields compared per cell; a missing field is compared as None
STABILITY_FIELDS = ("source", "target", "rel", "is_epi", "is_iso",
                    "les_exact", "verdict")
CONNECTIVITY_FIELDS = ("homology_vanishing_up_to",
                       "meets_target_homological", "lift_condition")


def make_config(workload: str, seed: int) -> dict:
    config = copy.deepcopy(WORKLOADS[workload]["config"])
    config["seed"] = seed
    return config


def cli_argv(workload: str, config_path: str) -> list[str]:
    spec = WORKLOADS[workload]
    argv = [spec["command"], "--config", config_path]
    if spec["jobs"] is not None:
        argv += ["--jobs", str(spec["jobs"])]
    return argv


def cells_of(report: dict) -> dict[str, dict]:
    """The checked fields of every cell of a report, keyed by cell.

    For verify-axioms each check is a cell."""
    command = report.get("command")
    if command == "verify-axioms":
        return {c["name"]: {"passed": c["passed"]}
                for c in report["checks"]}
    if command == "connectivity":
        fields = CONNECTIVITY_FIELDS
        key = lambda c: f"n={c['n']}"
    else:
        fields = STABILITY_FIELDS
        key = lambda c: f"n={c['n']},i={c['i']}"
    out = {}
    for c in report["cells"]:
        entry = {f: c.get(f) for f in fields}
        if "skipped" in c:
            entry["skipped"] = c["skipped"]
        out[key(c)] = entry
    return out


def failed_cells(expected: dict, exit_code: int, cells: dict) -> list[str]:
    """Cells that are refused, a VIOLATION, or unequal to the expected
    entry.  A nonzero exit code fails every cell."""
    if exit_code != expected["exit_code"] or exit_code != 0:
        return sorted(expected["cells"])
    bad = []
    for key, want in expected["cells"].items():
        got = cells.get(key)
        if (got is None or got != want or "skipped" in got
                or got.get("verdict") == "VIOLATION"):
            bad.append(key)
    return bad
