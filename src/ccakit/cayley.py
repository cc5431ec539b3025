"""Coloured Cayley graphs.

The graph of (G, S) has the elements of G as vertices and, for every g in
G and s in S, an edge {g, s*g}; the edge is coloured by the colour class
{s, s^-1}.  Involution classes are singletons {s} and carry a single edge.
The vertex order is the group's deterministic element enumeration with the
identity at vertex 0.

ColouredCayleyGraph is the one graph type: every verdict, single graph or
exhaustive sweep, is taken on it.  Its one adjacency is index rows:
left_rows[c] has one row per member s of colour c, row[v] = index(s * v),
so the c-neighbours of v are row[v] for row in left_rows[c].  The rows are
also its colouring: row[0] = index(s * 1) names s, so the colour classes
are read off them and never stored beside them.  Its one constructor takes
the rows.  Both ways to the rows go through ``FiniteGroup.rows``, which
calls group.left_row(s) only for a member s that no row it holds covers:
a product of two held members gets their composite, row(a*b) =
row(a) o row(b), and a partner s^-1 the inverse permutation of s's row
(fgroup).  build() checks the group and the graph limit and takes the
rows of a ConnectionSet, outside input, from group.rows.
``class_rows`` serves every class-set walk, the exhaustive sweep and
reproduce's criteria 7 and 8: it reads each colour class's rows off the
cached multiplication table, which is group.rows of every element, and a
walk passes the rows of a class set to the constructor.  The BFS tree is
computed from the rows on first use and cached, so a disconnected set
costs a single BFS.  ``bfs`` is the one BFS over rows: the graph's tree and
aut_pm1's tree over the picked classes (colourauts) both come from it.  A
graph has one vertex per element of the listing it indexes, and
``check_graph_limit`` is the one check against the graph limit.  It reads
a group's order where it is known without listing, and otherwise finds it
by listing the group under the limit, so a group given by generators
alone is refused after at most limit + 1 elements, with no stabilizer
chain.  The exhaustive sweep makes the check before class_rows builds the
table, so the graph limit bounds the table's n^2 entries too (about 130 MB
at the default of 4096), and the table reads the listing the check left.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .fgroup import DEFAULT_GRAPH_LIMIT, FiniteGroup, LimitExceeded


class InvalidConnectionSet(ValueError):
    """Connection set has an element outside the group, contains the
    identity or is not inverse-closed."""


@dataclass(frozen=True)
class ConnectionSet:
    """Inverse-closed, identity-free subset of a group.

    inverses[i] is the inverse of elements[i], computed once per member
    by from_elements, the one constructor, and read by colour_classes.
    """

    group: FiniteGroup
    elements: tuple
    inverses: tuple = field(repr=False)

    @classmethod
    def from_elements(cls, group: FiniteGroup, elems,
                      close_inverses: bool = False) -> "ConnectionSet":
        """The connection set of elems, refused with InvalidConnectionSet
        unless it is one; with close_inverses, each member's inverse is
        added to it.

        One pass over elems serves both modes.  Each value is tested by the
        group's own rule, ``group.contains``, before any arithmetic, so a
        value of the wrong type or range is refused by name (``elem_str``)
        and never reaches ``invert``.  The identity is refused, each new
        member is inverted once, and closing files its partner too.  One
        inverse-closure check then runs over the members held, which a
        closed set always passes.
        """
        idx = group.element_index()
        e = group.identity()
        inverse = {}
        for s in elems:
            if not group.contains(s):
                raise InvalidConnectionSet(
                    f"{group.elem_str(s)} is not in the group")
            if s == e:
                raise InvalidConnectionSet("identity in connection set")
            if s not in inverse:
                si = inverse[s] = group.invert(s)
                if close_inverses:
                    inverse[si] = s
        for s, si in inverse.items():
            if si not in inverse:
                raise InvalidConnectionSet(
                    f"not inverse-closed: {group.elem_str(s)} present, "
                    f"inverse missing")
        out = sorted(inverse, key=idx.__getitem__)
        return cls(group=group, elements=tuple(out),
                   inverses=tuple(map(inverse.__getitem__, out)))

    def colour_classes(self) -> list[tuple]:
        """Colour classes {s, s^-1}, ordered by representative index.

        Each class is a 1-tuple (involution) or 2-tuple (s, s^-1) with the
        lower-indexed element first.  The elements are sorted by index and
        inverse-closed, so each class is emitted once, at its lower-indexed
        member.
        """
        idx = self.group.element_index()
        return [(s,) if s == si else (s, si)
                for s, si in zip(self.elements, self.inverses)
                if idx[s] <= idx[si]]


class ColouredCayleyGraph:
    """Cay(G, S) with the canonical {s, s^-1} edge colouring.

    left_rows[c] holds the rows of the members of colour class c, classes
    and members in index order, as ConnectionSet.colour_classes() and
    class_rows give them; the rows are shared, not copied.  colours, the
    classes as group elements, is read off the rows.  build() makes the
    graph of a ConnectionSet, and a class-set walk passes rows of
    class_rows.
    """

    def __init__(self, group: FiniteGroup, left_rows: list[list[list[int]]]):
        self.group = group
        self.elems = group.elements()
        self.n = len(self.elems)
        self.index = group.element_index()
        self.left_rows = left_rows

    @cached_property
    def colours(self) -> list[tuple]:
        """The colour classes, member s of a class read as elems[row[0]]."""
        return [tuple(self.elems[row[0]] for row in rows)
                for rows in self.left_rows]

    # -- basic queries ---------------------------------------------------------

    def bfs_order(self) -> tuple[list[int], list[tuple[int, int] | None]]:
        """BFS order from the identity vertex and (parent, colour) per vertex.

        Cached; the order is fixed by colour-id then class-member order.
        """
        cached = getattr(self, "_bfs", None)
        if cached is None:
            cached = self._bfs = bfs(self.n, self.left_rows)
        return cached

    def is_connected(self) -> bool:
        order, _ = self.bfs_order()
        return len(order) == self.n


def bfs(n: int, left_rows: list[list[list[int]]],
        ) -> tuple[list[int], list[tuple[int, int] | None]]:
    """BFS from vertex 0 over rows grouped by colour: the order in which
    vertices are reached and, per vertex, (parent, colour) or None.

    Colours are scanned in order, then the rows of each; a vertex that is
    not reached has parent None and is not in the order.  The (colour,
    row) pairs are one flat list, and a vertex is seen once it has a
    parent: vertex 0 holds a sentinel until the search ends.  The search
    ends once every vertex is reached, at the next vertex it would scan:
    a later step could only meet a vertex that has its parent already.
    """
    parent: list = [None] * n
    parent[0] = ()
    steps = [(c, row) for c, rows in enumerate(left_rows) for row in rows]
    order = [0]
    for v in order:             # the order grows as vertices are reached
        if len(order) == n:
            break
        for c, row in steps:
            u = row[v]
            if parent[u] is None:
                parent[u] = (v, c)
                order.append(u)
    parent[0] = None
    return order, parent


def class_rows(group: FiniteGroup) -> list[list[list[int]]]:
    """The multiplication-table rows of every colour class {s, s^-1}.

    Classes come in order of their lower-indexed member, which comes
    first, read off the cached inverse_row: the layout build() gives the
    set of all non-identity elements.  The rows are those of
    group.mult_table(), shared, not copied: n^2 entries, so a caller
    checks the graph limit first, as the exhaustive sweep does.  The
    table is group.rows of every element, so left_row computed at most
    the generators' rows; the rest, s^-1's included, are derived from
    them, and the table fills inverse_row from the partner rows with no
    inversion.
    """
    mt = group.mult_table()
    return [[mt[i]] if i == j else [mt[i], mt[j]]
            for i, j in enumerate(group.inverse_row()) if 0 < i <= j]


def check_graph_limit(group: FiniteGroup, graph_limit: int) -> None:
    """Refuse a graph on more than graph_limit vertices (LimitExceeded).

    The group's order is known without listing, or found by listing the
    group under the smaller of graph_limit and its enumeration limit
    (``FiniteGroup.order_within``): a larger group is refused after at
    most graph_limit + 1 elements, far inside the n^2 table the limit
    admits, and a smaller one keeps the listing its rows are read from.
    """
    n = group.order_within(graph_limit)
    if n is None:
        raise LimitExceeded(f"group order exceeds graph limit {graph_limit}")
    if n > graph_limit:
        raise LimitExceeded(
            f"group order {n} exceeds graph limit {graph_limit}")


def build(group: FiniteGroup, conn: ConnectionSet,
          graph_limit: int = DEFAULT_GRAPH_LIMIT) -> ColouredCayleyGraph:
    """The graph of conn: group.rows of its classes' members, in class
    order, regrouped per class.

    group.rows calls group.left_row only for a member that is neither
    the partner s^-1 of a member before it nor a product of two members
    before it or their partners; the other rows are composites and
    inverse permutations.  Each row equals group.left_row of its member.
    """
    if conn.group is not group:
        raise ValueError("connection set belongs to a different group")
    check_graph_limit(group, graph_limit)
    classes = conn.colour_classes()
    index = group.element_index()
    rows = iter(group.rows([index[s] for cls in classes for s in cls]))
    return ColouredCayleyGraph(group, [[next(rows) for _ in cls]
                                       for cls in classes])
