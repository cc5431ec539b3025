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
the rows.  build() checks the group and the graph limit and forms the rows
of a ConnectionSet, outside input, by the two identities of fgroup:
row(a*b) = row(a) o row(b), and row(s^-1) is the inverse permutation of
row(s).  Each class's first member s gets the composite of two rows
build() already holds if s is their product, else group.left_row(s); its
partner s^-1 always gets the inverse of s's row.  ``class_rows`` serves
every class-set walk, the exhaustive sweep and reproduce's criteria 7 and
8: it reads each colour class's rows off the cached multiplication table,
whose rows are composites of the generators' left_row rows, and a walk
passes the rows of a class set to the constructor.  The BFS tree is
computed from the rows on first use and cached, so a disconnected set
costs a single BFS.  ``bfs`` is the one BFS over rows: the graph's tree and
aut_pm1's tree over the picked classes (colourauts) both come from it.  A
graph has one vertex per element of the listing it indexes, and
``check_graph_limit`` is the one check against the graph limit.  A
class-set walk has a second bound: its rows come from the group's
multiplication table, which fgroup builds only up to MULT_TABLE_LIMIT
(1024) elements, so a walk of a larger group raises LimitExceeded whatever
the graph limit allows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .fgroup import DEFAULT_GRAPH_LIMIT, FiniteGroup, LimitExceeded


class InvalidConnectionSet(ValueError):
    """Connection set has an element outside the group, contains the
    identity or is not inverse-closed."""


@dataclass(frozen=True)
class ConnectionSet:
    """Inverse-closed, identity-free subset of a group."""

    group: FiniteGroup
    elements: tuple

    @classmethod
    def from_elements(cls, group: FiniteGroup, elems,
                      close_inverses: bool = False) -> "ConnectionSet":
        idx = group.element_index()
        e = group.identity()
        seen = set()
        out = []
        for s in elems:
            # outside data enters here: check it before any arithmetic
            if s not in idx:
                raise InvalidConnectionSet(
                    f"{group.elem_str(s)} is not in the group")
            if s == e:
                raise InvalidConnectionSet("identity in connection set")
            for x in ((s, group.invert(s)) if close_inverses else (s,)):
                if x not in seen:
                    seen.add(x)
                    out.append(x)
        for s in out:
            if group.invert(s) not in seen:
                raise InvalidConnectionSet(
                    f"not inverse-closed: {group.elem_str(s)} present, "
                    f"inverse missing")
        out.sort(key=idx.__getitem__)
        return cls(group=group, elements=tuple(out))

    def colour_classes(self) -> list[tuple]:
        """Colour classes {s, s^-1}, ordered by representative index.

        Each class is a 1-tuple (involution) or 2-tuple (s, s^-1) with the
        lower-indexed element first.  The elements are sorted by index and
        inverse-closed, so each class is emitted once, at its lower-indexed
        member.
        """
        group, idx = self.group, self.group.element_index()
        pairs = [(s, group.invert(s)) for s in self.elements]
        return [(s,) if s == si else (s, si)
                for s, si in pairs if idx[s] <= idx[si]]


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
    not reached has parent None and is not in the order.
    """
    parent: list[tuple[int, int] | None] = [None] * n
    seen = [False] * n
    order = [0]
    seen[0] = True
    for v in order:             # the order grows as vertices are reached
        for c, rows in enumerate(left_rows):
            for row in rows:
                u = row[v]
                if not seen[u]:
                    seen[u] = True
                    parent[u] = (v, c)
                    order.append(u)
    return order, parent


def class_rows(group: FiniteGroup) -> list[list[list[int]]]:
    """The multiplication-table rows of every colour class {s, s^-1}.

    Classes come in order of their lower-indexed member, which comes
    first, read off the cached inverse_row: the layout build() gives the
    set of all non-identity elements.  The rows are those of
    group.mult_table(), shared, not copied, so G must have order at most
    MULT_TABLE_LIMIT.  left_row computed only the generators' rows; the
    table composes every other row from them, s^-1's included.
    """
    mt = group.mult_table()
    return [[mt[i]] if i == j else [mt[i], mt[j]]
            for i, j in enumerate(group.inverse_row()) if 0 < i <= j]


def check_graph_limit(group: FiniteGroup, graph_limit: int) -> None:
    """Refuse a graph on more than graph_limit vertices (LimitExceeded)."""
    n = group.order()
    if n > graph_limit:
        raise LimitExceeded(
            f"group order {n} exceeds graph limit {graph_limit}")


def build(group: FiniteGroup, conn: ConnectionSet,
          graph_limit: int = DEFAULT_GRAPH_LIMIT) -> ColouredCayleyGraph:
    """The graph of conn, each class's rows derived where they can be.

    Classes are taken in order.  The first member s's row is the
    composite row(a) o row(b) if s = a*b for two members a, b whose rows
    are already held, b's index being row(a^-1)[index(s)]; otherwise it
    is group.left_row(s).  The partner s^-1's row is the inverse
    permutation of s's.  Either way each row equals group.left_row of its
    member.
    """
    if conn.group is not group:
        raise ValueError("connection set belongs to a different group")
    check_graph_limit(group, graph_limit)
    index = group.element_index()
    held: dict[int, tuple[list[int], list[int]]] = {}   # a: rows of a, a^-1
    left_rows = []
    for cls in conn.colour_classes():
        row = _composite(held, index[cls[0]]) or group.left_row(cls[0])
        rows = [row] if len(cls) == 1 else [row, _inverse(row, index)]
        for r, r_inv in zip(rows, reversed(rows)):
            held[r[0]] = (r, r_inv)         # r[0] = index(a * 1) names a
        left_rows.append(rows)
    return ColouredCayleyGraph(group, left_rows)


def _composite(held: dict[int, tuple[list[int], list[int]]],
               s: int) -> list[int] | None:
    """row(a) o row(b) for the first held a whose b = a^-1 * s is held
    (vertex s = index(a * b)), or None."""
    for row_a, row_a_inv in held.values():
        b = row_a_inv[s]
        if b in held:
            return list(map(row_a.__getitem__, held[b][0]))
    return None


def _inverse(row: list[int], index: dict) -> list[int]:
    """The inverse permutation: row(s^-1) from row(s).

    Its entries are the index's own position objects, which every row
    shares, as left_row's do; enumerate would make a new int per entry
    past 256.
    """
    inv = [0] * len(row)
    for v, u in zip(index.values(), row):
        inv[u] = v
    return inv
