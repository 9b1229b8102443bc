"""Fundamental group certificates for 2-skeletons.

The edge-path group of a connected complex: generators are the edges,
relations kill a BFS spanning tree and impose one relation per triangle.
Triviality is semi-decided by a budgeted HLT-style Todd-Coxeter coset
enumeration; running out of budget downgrades the certificate, it never
guesses.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


@dataclass
class TwoSkeleton:
    n_vertices: int
    edges: list            # list of (v0, v1) ordered pairs
    triangles: list        # list of (e01, e12, e02) edge indices with
    #                        orientation e01 * e12 = e02


def two_skeleton_from_semisimplicial(W) -> TwoSkeleton:
    # edge s has endpoints (d_1 s, d_0 s); triangle t contributes
    # d_2 t * d_0 t = d_1 t on edge paths.  On a simplicial complex the
    # edge (a, b), a < b, runs from a to b and the triangle (a, b, c)
    # reads (a, b) * (b, c) = (a, c)
    d = W.face
    edges = list(zip(d(1, 1), d(1, 0))) if len(W.levels) > 1 else []
    tris = list(zip(d(2, 2), d(2, 0), d(2, 1))) if len(W.levels) > 2 else []
    return TwoSkeleton(W.level_sizes()[0] if W.levels else 0, edges, tris)


def edge_path_presentation(skel: TwoSkeleton):
    """Presentation of pi_1 via a BFS spanning tree.

    Returns (n_generators, relators) with generators = edges (tree edges
    will be killed by a length-1 relator); relators as lists of signed
    generator ids g or ~g encoded as g+1 / -(g+1).  Raises ValueError if
    the 1-skeleton is disconnected.
    """
    adj = [[] for _ in range(skel.n_vertices)]
    for i, (a, b) in enumerate(skel.edges):
        adj[a].append((b, i))
        adj[b].append((a, i))
    tree = set()
    seen = [False] * skel.n_vertices
    if skel.n_vertices:
        seen[0] = True
        q = deque([0])
        while q:
            v = q.popleft()
            for w, e in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    tree.add(e)
                    q.append(w)
    if not all(seen):
        raise ValueError("1-skeleton is not connected")
    relators = [[e + 1] for e in sorted(tree)]
    for (e01, e12, e02) in skel.triangles:
        relators.append([e01 + 1, e12 + 1, -(e02 + 1)])
    return len(skel.edges), relators


def todd_coxeter_trivial(n_gens: int, relators, budget_rows: int):
    """HLT coset enumeration of the presented group over the trivial
    subgroup.  Returns ("trivial", n) if enumeration completes with one
    coset, ("finite", n) with n cosets otherwise, or ("unknown", rows)
    if the row budget is exhausted."""
    # columns: generator g -> 2g (forward), 2g+1 (inverse)
    ncols = 2 * n_gens
    table = [[0] * ncols]    # 0 = undefined; cosets are 1-based
    rep = [0, 1]             # union-find over live coset names

    def find(x):
        while rep[x] != x:
            rep[x] = rep[rep[x]]
            x = rep[x]
        return x

    def col(sig):
        g = abs(sig) - 1
        return 2 * g if sig > 0 else 2 * g + 1

    def inv_col(c):
        return c ^ 1

    pending = deque()

    def merge(a, b):
        a, b = find(a), find(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        rep[b] = a
        pending.append(b)

    def define(c, cc):
        table.append([0] * ncols)
        rep.append(len(table))
        new = len(table)
        table[c - 1][cc] = new
        table[new - 1][inv_col(cc)] = c
        return new

    def scan(c, rel):
        # scan relator from both ends; deduce or define
        f, b = c, c
        i, j = 0, len(rel) - 1
        while i <= j:
            nxt = table[find(f) - 1][col(rel[i])]
            if nxt:
                f = nxt
                i += 1
            else:
                break
        while j >= i:
            prv = table[find(b) - 1][inv_col(col(rel[j]))]
            if prv:
                b = prv
                j -= 1
            else:
                break
        if i > j:
            merge(f, b) if find(f) != find(b) else None
            return True
        if i == j:
            # deduction
            f, b = find(f), find(b)
            cc = col(rel[i])
            old = table[f - 1][cc]
            if old and find(old) != b:
                merge(old, b)
            table[f - 1][cc] = b
            old2 = table[b - 1][inv_col(cc)]
            if old2 and find(old2) != f:
                merge(old2, f)
            table[b - 1][inv_col(cc)] = f
            return True
        return False

    def process_coincidences():
        while pending:
            dead = pending.popleft()
            row = table[dead - 1]
            live = find(dead)
            for cc in range(ncols):
                t = row[cc]
                if t:
                    t = find(t)
                    cur = table[live - 1][cc]
                    if cur and find(cur) != t:
                        merge(cur, t)
                    else:
                        table[live - 1][cc] = t
                    back = table[t - 1][inv_col(cc)]
                    if back and find(back) != live:
                        merge(back, live)
                    else:
                        table[t - 1][inv_col(cc)] = live

    c = 1
    while c <= len(table):
        if find(c) != c:
            c += 1
            continue
        for rel in relators:
            progress = True
            while progress:
                if len(table) > budget_rows:
                    return ("unknown", len(table))
                progress = False
                if not scan(c, rel):
                    # define a new coset at the first gap and rescan
                    f = c
                    for sig in rel:
                        nxt = table[find(f) - 1][col(sig)]
                        if nxt:
                            f = find(nxt)
                        else:
                            define(find(f), col(sig))
                            progress = True
                            break
            process_coincidences()
            if find(c) != c:
                break
        # closure: every image must be defined or the enumeration is not
        # complete (a generator in no relator would otherwise vanish)
        if find(c) == c:
            for cc in range(ncols):
                if len(table) > budget_rows:
                    return ("unknown", len(table))
                if table[c - 1][cc] == 0:
                    define(c, cc)
        c += 1
    live = {find(x) for x in range(1, len(table) + 1)}
    n = len(live)
    return ("trivial", n) if n == 1 else ("finite", n)


def pi1_triviality(skel: TwoSkeleton, budget_rows: int = 10 ** 6):
    """Semi-decide triviality of the edge-path group.

    Returns (status, detail) with status in {"trivial", "nontrivial",
    "not connected", "unknown (budget)"}.
    """
    if skel.n_vertices == 0:
        return "trivial", {"note": "empty"}
    try:
        n_gens, relators = edge_path_presentation(skel)
    except ValueError:
        return "not connected", {"note": "disconnected 1-skeleton"}
    if n_gens == 0:
        return "trivial", {"note": "no edges"}
    verdict, n = todd_coxeter_trivial(n_gens, relators, budget_rows)
    if verdict == "trivial":
        return "trivial", {"cosets": n}
    if verdict == "finite":
        return "nontrivial", {"group_order": n}
    return "unknown (budget)", {"rows": n}
