"""The checked paths that colourauts' shortcuts replace.

_MapSearch.fix gives the identity to vertex 0 and to each level of the
identity walk by a closure that computes and checks no image; the oracle
walk assigns the identity through _MapSearch.assign, which propagates it
and checks every edge.  aut_pm1 checks each tree-built map in full only
on the classes it picked and at v = 1 on the rest; the oracle filter
runs the full automorphism check on every class.
"""

import itertools

from ccakit import colourauts
from ccakit.cayley import bfs


def identity_walk_by_assign(graph):
    """(vertex 0's trail, levels, search) from a _MapSearch whose map is
    cleared and given the identity by assign: vertex 0 first, then every
    base point propagation left unassigned, in BFS order.  levels holds
    (base position, trail) per such base point."""
    search = colourauts._MapSearch(graph)
    search.alpha = [-1] * graph.n
    search.pre = [-1] * graph.n
    first = search.assign(0, 0)
    levels = []
    for k, w in enumerate(search.order):
        if search.alpha[w] == -1:
            levels.append((k, search.assign(w, w)))
    return first, levels, search


def aut_pm1_tree_maps(graph):
    """The maps aut_pm1 builds: classes picked while they enlarge the
    subgroup the picked ones generate, and for each choice of s or s^-1
    per picked first member s, the map along the BFS tree of their rows."""
    picked = []
    order, parent = [0], [None] * graph.n
    for rows in graph.left_rows:
        if parent[rows[0][0]] is None:
            picked.append(rows)
            order, parent = bfs(graph.n, [[prow[0]] for prow in picked])
            if len(order) == graph.n:
                break
    tree = [(u, *parent[u]) for u in order[1:]]
    for images in itertools.product(*picked):
        phi = [0] * graph.n
        for u, v, i in tree:
            phi[u] = images[i][phi[v]]
        yield tuple(phi)


def aut_pm1_by_full_check(graph):
    """aut_pm1 by the full automorphism check of every tree-built map on
    every class, sorted."""
    return sorted(phi for phi in aut_pm1_tree_maps(graph)
                  if colourauts._automorphism_violation(graph, phi) is None)
