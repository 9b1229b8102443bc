"""Oracles the tests share, independent of the resolutions they check.

hopf_h2 computes H_2(G) = (R cap [F,F]) / [F,R] for G = F/R by Hopf's
formula, with a Schreier transversal and Reidemeister rewriting: no
chain complex of G is built.  S4_RELATORS is the Coxeter presentation
of Sym(4) on its three adjacent transpositions.
"""

from homstab.exact_linalg import SparseCols, homology_of_pair


def _sign(letter):
    return 1 if letter > 0 else -1


def hopf_h2(G, gen_images):
    """H_2(G) from a surjection F(free on k letters) ->> G.

    gen_images: images of the free generators.  R = kernel; R^ab is free
    on the non-tree Schreier generators; [F,R] is spanned by the
    commutator vectors; the exponent map lands in Z^k.
    """
    k = len(gen_images)
    inv_images = [G.inv(g) for g in gen_images]

    def step(state, letter):
        img = gen_images[letter - 1] if letter > 0 else \
            inv_images[-letter - 1]
        return G.mul(state, img)

    # BFS transversal: element -> word (tuple of signed letters)
    transversal = {G.identity: ()}
    frontier = [G.identity]
    tree_edges = set()
    while frontier:
        nxt = []
        for g in sorted(frontier, key=G.index.get):
            for i in range(1, k + 1):
                h = step(g, i)
                if h not in transversal:
                    transversal[h] = transversal[g] + (i,)
                    tree_edges.add((g, i))
                    nxt.append(h)
        frontier = nxt
    assert len(transversal) == G.order

    # Schreier generators = non-tree edges (g, i)
    schreier = {}
    for g in G.elements:
        for i in range(1, k + 1):
            if (g, i) not in tree_edges:
                schreier[(g, i)] = len(schreier)
    assert len(schreier) == G.order * (k - 1) + 1

    def rewrite(word, start):
        """Express the R-element traced by `word` from coset `start`
        as an exponent vector over the Schreier generators."""
        vec = {}
        state = start
        for letter in word:
            if letter > 0:
                key = (state, letter)
                state = step(state, letter)
                if key in schreier:
                    j = schreier[key]
                    vec[j] = vec.get(j, 0) + 1
            else:
                state = step(state, letter)
                key = (state, -letter)
                if key in schreier:
                    j = schreier[key]
                    vec[j] = vec.get(j, 0) - 1
        assert state == start, "word does not lie in R from this coset"
        return vec

    def gen_word(g, i):
        # t_g x_i t_{g x_i}^{-1} as an explicit free word
        h = step(g, i)
        back = tuple(-x for x in reversed(transversal[h]))
        return transversal[g] + (i,) + back

    n = len(schreier)
    # exponent map R^ab -> Z^k
    phi_cols = []
    words = {}
    for (g, i), j in sorted(schreier.items(),
                            key=lambda kv: kv[1]):
        w = gen_word(g, i)
        words[j] = w
        col = {}
        for letter in w:
            idx = abs(letter) - 1
            col[idx] = col.get(idx, 0) + _sign(letter)
        phi_cols.append({r: c for r, c in col.items() if c})
    d_out = SparseCols(k, phi_cols)

    # [F,R] spanned by x w x^{-1} w^{-1} for Schreier gens w, letters x
    comm_cols = []
    for j in range(n):
        w = words[j]
        base = rewrite(w, G.identity)
        for x in range(1, k + 1):
            conj = (x,) + w + (-x,)
            v = rewrite(conj, G.identity)
            col = dict(v)
            for key, c in base.items():
                col[key] = col.get(key, 0) - c
            col = {r: c for r, c in col.items() if c}
            comm_cols.append(col)
    assert len(comm_cols) == k * n
    d_in = SparseCols(n, comm_cols)
    return homology_of_pair(d_out, d_in).group


S4_RELATORS = [
    [1, 1], [2, 2], [3, 3],
    [1, 2] * 3, [2, 3] * 3, [1, 3] * 2,
]
