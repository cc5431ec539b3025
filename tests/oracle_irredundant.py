"""Reference listing of the class sets an exhaustive sweep forms.

A connection set is a union of colour classes {s, s^-1}.  A class set is
lex-irredundant when each of its classes lies outside the subgroup that
its lex-smaller classes generate, the vertices a BFS over their rows
reaches from the identity.  The sweep forms only the lex-irredundant
sets that are least in their orbit under conjugation, comparing sets as
sorted class tuples.  This is the oracle for the counters of
``ccakit.colourauts.is_cca_group_exhaustive``: it lists those sets by
brute force, every class subset by (class count, lex) order from
``itertools.combinations``, and keeps a subset when no class is reached
by the classes before it and no conjugate of it, by ``G.conjugate`` with
every element of G, is lex-smaller.  Both properties hold for every
prefix of a kept set, so the listing ends at the first size that keeps
none.  With ``orbits=False`` it keeps every lex-irredundant set, the
listing the sweep formed before it acted by conjugation: the slow path,
kept as the oracle for its decisions.
"""

from __future__ import annotations

import functools
import itertools

from ccakit.cayley import ColouredCayleyGraph


def colour_classes(G):
    """The classes {x, x^-1} of G's non-identity elements, in element
    order, the lower-indexed member first."""
    e = G.identity()
    classes = []
    done = set()
    for x in G.elements():
        if x == e or x in done:
            continue
        xi = G.invert(x)
        done.add(x)
        done.add(xi)
        classes.append((x,) if xi == x else (x, xi))
    return classes


def conjugation_images(G):
    """For every element g of G, the class of G.conjugate(x, g) for the
    first member x of each class of colour_classes, as a tuple."""
    classes = colour_classes(G)
    class_of = {x: c for c, cls in enumerate(classes) for x in cls}
    return [tuple(class_of[G.conjugate(cls[0], g)] for cls in classes)
            for g in G.elements()]


def orbit_group_order(G):
    """The number of distinct class permutations conjugation gives."""
    return len(set(conjugation_images(G)))


def least_in_orbit(combo, images):
    """Whether the sorted class tuple combo is no greater than any of its
    images under the class permutations in images."""
    return all(tuple(sorted(p[c] for c in combo)) >= combo for p in images)


def irredundant_class_sets(G, orbits=True):
    """(sets listed, connected sets, graph) at each lex-irredundant class
    set of G, by (class count, lex) order, keeping only the sets least
    in their orbit under conjugation unless orbits is False.  Each
    class's rows come from G.left_row, once per group."""
    classes = colour_classes(G)
    rows = [[G.left_row(s) for s in cls] for cls in classes]
    index = G.element_index()
    first = [index[cls[0]] for cls in classes]
    images = conjugation_images(G) if orbits else []

    @functools.lru_cache(maxsize=None)
    def reached(prefix):
        graph = ColouredCayleyGraph(G, [rows[c] for c in prefix])
        return frozenset(graph.bfs_order()[0])

    sets = connected = 0
    for size in range(1, len(classes) + 1):
        before = sets
        for combo in itertools.combinations(range(len(classes)), size):
            if any(first[c] in reached(combo[:j])
                   for j, c in enumerate(combo)):
                continue
            if not least_in_orbit(combo, images):
                continue
            sets += 1
            graph = ColouredCayleyGraph(G, [rows[c] for c in combo])
            connected += graph.is_connected()
            yield sets, connected, graph
        if sets == before:
            return


def elements_of(graph):
    """The elements of a class graph's connection set, class by class."""
    return tuple(s for cls in graph.colours for s in cls)


def irredundant_counts(G, witness_set=None):
    """(sets, connected) that an exhaustive sweep of G counts, read off
    the listing: over every class set it forms, or up to the one whose
    elements, class by class, are witness_set."""
    sets = connected = 0
    for sets, connected, graph in irredundant_class_sets(G):
        if witness_set == elements_of(graph):
            return sets, connected
    assert witness_set is None, "the witness set is not formed"
    return sets, connected
