"""Reference forms of the two facts that let a witness finish stab1.

Both are written from the definitions, with group multiplication and the
BFS order, and share no code with colourauts' conjugation or search.
"""


def right_conjugate(graph, alpha, s):
    """R_{alpha(s)}^-1 o alpha o R_s, with R_x: v -> v * x, as the vertex
    map v -> alpha(v * s) * alpha(s)^-1, by group multiplication."""
    G, elems, idx = graph.group, graph.elems, graph.index
    a_inv = G.invert(elems[alpha[idx[s]]])
    return tuple(idx[G.multiply(elems[alpha[idx[G.multiply(v, s)]]], a_inv)]
                 for v in elems)


def first_moved(graph, alpha):
    """The first vertex in BFS order that alpha moves, or None."""
    order, _ = graph.bfs_order()
    return next((w for w in order if alpha[w] != w), None)


def canonical_at_first_level(graph, generators, alpha):
    """alpha made lex-least in its coset at the first base point w0 it
    moves, greedily along the BFS order.

    Each strong generator belongs to the first vertex it moves, its base
    point.  At every later base point w with a generator g, the candidate
    images are the c-neighbours of alpha's image of w's BFS parent, tried
    by the key (image != w, image); alpha becomes alpha o g when alpha(w)
    is not the first.  Returns (w0, the canonical map).
    """
    order, parent = graph.bfs_order()
    at = {first_moved(graph, g): g for g in generators}
    w0 = first_moved(graph, alpha)
    x = alpha
    for w in order[order.index(w0) + 1:]:
        if w in at:
            v, c = parent[w]
            first = min((row[x[v]] for row in graph.left_rows[c]),
                        key=lambda y: (y != w, y))
            if x[w] != first:
                x = tuple(x[u] for u in at[w])
    return w0, x
