"""Colour-preserving automorphisms and the CCA decision.

For a connected coloured Cayley graph the full colour-preserving group
Aut_c is transitive (it contains the right-regular representation), so
|Aut_c| = |G| * |stab1| where stab1 is the stabilizer of the identity
vertex.  stab1 is computed by depth-first assignment along a BFS spanning
tree: at a tree edge of colour {s, s^-1} the image of the new vertex must
be an {s, s^-1}-neighbour of the image of its parent, and every edge back
into the assigned region prunes the branch.  The graph is CCA exactly when
every stab1 element acts as a group automorphism.

The automorphism check needs no group arithmetic.  A stab1 element alpha
fixes vertex 0 and preserves colours, and vertex s is the {s, s^-1}-
neighbour s * 1 of vertex 0, so alpha(s) is s or s^-1.  The row of
alpha(s) is therefore already one of the graph's left-multiplication rows,
and alpha is a group automorphism exactly when alpha(s * v) =
alpha(s) * alpha(v) holds as alpha[row[v]] == arow[alpha[v]] for every s
in S and every vertex v (S generates G).  The stab1 elements that pass
are exactly aut_pm1, the automorphisms of G sending every s to s or s^-1
(such an automorphism fixes 1 and keeps colours, so it lies in stab1), and
one pass over stab1 gives both the verdict and |aut_pm1|.

There is one decision path.  is_cca_graph decides a single graph;
the exhaustive group verdict is is_cca_graph applied to every graph that
ConnectedClassGraphs yields.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field

from .cayley import ColouredCayleyGraph, ConnectionSet
from .fgroup import FiniteGroup, LimitExceeded

STAB1_ORACLE_MAX = 8


@dataclass
class VertexStabilizer:
    """All colour-preserving automorphisms fixing the identity vertex."""

    elements: list = field(repr=False)

    @property
    def order(self) -> int:
        return len(self.elements)

    def order_is_power_of_two(self) -> bool:
        n = self.order
        return n >= 1 and (n & (n - 1)) == 0


def _iter_stab1(graph: ColouredCayleyGraph):
    """Yield colour-preserving vertex bijections fixing vertex 0.

    The search assigns vertices along the graph's BFS spanning tree, so the
    graph must be connected.

    Every assignment is propagated to a fixpoint before branching: an
    involution-class edge forces the image of the far endpoint, and a
    pair-class edge forces the partner vertex onto the remaining target
    once one member is placed.  c-adjacency is symmetric (the class is
    inverse-closed), so processing each vertex once when it is assigned
    checks every edge constraint from at least one side.
    """
    n = graph.n
    cn = graph.cn
    order, parent = graph.bfs_order()
    if len(order) != n:
        raise ValueError("stab1 requires a connected graph")
    ncolours = len(cn[0]) if n else 0
    alpha = [-1] * n
    used = [False] * n
    sys.setrecursionlimit(max(sys.getrecursionlimit(), n + 1000))

    def propagate(queue: list[int], trail: list[int]) -> bool:
        qi = 0
        while qi < len(queue):
            v = queue[qi]
            qi += 1
            cnv = cn[v]
            cna = cn[alpha[v]]
            for c in range(ncolours):
                nv = cnv[c]
                na = cna[c]
                if len(nv) == 1:
                    u = nv[0]
                    tgt = na[0]
                    au = alpha[u]
                    if au == -1:
                        if used[tgt]:
                            return False
                        alpha[u] = tgt
                        used[tgt] = True
                        trail.append(u)
                        queue.append(u)
                    elif au != tgt:
                        return False
                else:
                    u1, u2 = nv
                    t1, t2 = na
                    a1 = alpha[u1]
                    a2 = alpha[u2]
                    if a1 != -1 and a2 != -1:
                        if not ((a1 == t1 and a2 == t2)
                                or (a1 == t2 and a2 == t1)):
                            return False
                    elif a1 != -1 or a2 != -1:
                        if a1 != -1:
                            known, free = a1, u2
                        else:
                            known, free = a2, u1
                        if known == t1:
                            tgt = t2
                        elif known == t2:
                            tgt = t1
                        else:
                            return False
                        if used[tgt]:
                            return False
                        alpha[free] = tgt
                        used[tgt] = True
                        trail.append(free)
                        queue.append(free)
        return True

    def search(start_k: int):
        k = start_k
        while k < n and alpha[order[k]] != -1:
            k += 1
        if k == n:
            yield tuple(alpha)
            return
        w = order[k]
        v, c = parent[w]
        # try the identity-consistent image first: the DFS then reaches the
        # identity map without backtracking and explores deviations from the
        # deepest branch points outward, where subtrees are smallest
        for cand in sorted(cn[alpha[v]][c], key=lambda x: x != w):
            if used[cand]:
                continue
            trail = [w]
            alpha[w] = cand
            used[cand] = True
            if propagate([w], trail):
                yield from search(k + 1)
            for u in trail:
                used[alpha[u]] = False
                alpha[u] = -1

    trail = [0]
    alpha[0] = 0
    used[0] = True
    try:
        if propagate([0], trail):
            yield from search(1)
    finally:
        # search reaches itself through its closure cell; emptying the cell
        # breaks that cycle, so cn and the search state are freed when the
        # generator ends rather than at some later cyclic collection
        del search


def stab1(graph: ColouredCayleyGraph) -> VertexStabilizer:
    """Identity-vertex stabilizer of Aut_c, as sorted explicit vertex maps."""
    return VertexStabilizer(sorted(_iter_stab1(graph)))


def stab1_oracle(graph: ColouredCayleyGraph) -> VertexStabilizer:
    """Anti-drift oracle: filter all (n-1)! bijections fixing vertex 0."""
    n = graph.n
    if n > STAB1_ORACLE_MAX:
        raise LimitExceeded(
            f"stab1_oracle limited to {STAB1_ORACLE_MAX} vertices")
    cn = graph.cn
    ncolours = len(graph.colours)
    out = []
    for rest in itertools.permutations(range(1, n)):
        alpha = (0,) + rest
        if all(alpha[u] in cn[alpha[v]][c]
               for v in range(n)
               for c in range(ncolours)
               for u in cn[v][c]):
            out.append(alpha)
    return VertexStabilizer(sorted(out))


def _automorphism_violation(graph: ColouredCayleyGraph, alpha) -> tuple | None:
    """First (s, v) where alpha(s*v) != alpha(s)*alpha(v), or None.

    alpha must be a stab1 element, so that alpha(s) is s or s^-1 and its
    left-multiplication row is one of the rows of s's colour class.
    """
    n = graph.n
    for cls, rows in zip(graph.colours, graph.left_rows):
        # row[0] = index(s * 1) = index(s)
        members = [row[0] for row in rows]
        for s, row in zip(cls, rows):
            arow = rows[members.index(alpha[row[0]])]
            for v in range(n):
                if alpha[row[v]] != arow[alpha[v]]:
                    return (s, graph.elems[v])
    return None


def aut_pm1(graph: ColouredCayleyGraph) -> list[tuple]:
    """Automorphisms of G sending every s in S to s or s^-1.

    S must generate G, i.e. the graph must be connected.  Such an
    automorphism fixes the identity and keeps every colour, so it lies in
    stab1; conversely a stab1 element that is a group automorphism sends s
    to s or s^-1.  aut_pm1 is therefore the stab1 elements that pass the
    automorphism check, returned sorted as index arrays over the graph's
    vertices (group.elements()).
    """
    if not graph.is_connected():
        raise ValueError("aut_pm1 requires S to generate G")
    return [a for a in stab1(graph).elements
            if _automorphism_violation(graph, a) is None]


RIGHT_REGULAR_CHECK_ALL_MAX = 128


def right_regular_preserves_colours(graph: ColouredCayleyGraph) -> bool:
    """Check G_R <= Aut_c: every map v -> v*x preserves every colour class.

    rho_{xy} = rho_y o rho_x, so checking the maps of the group generators
    covers all of G_R; graphs of at most RIGHT_REGULAR_CHECK_ALL_MAX
    vertices are checked over every x regardless.
    """
    g = graph.group
    elems = graph.elems
    idx = graph.index
    n = graph.n
    cn = graph.cn
    xs = elems if n <= RIGHT_REGULAR_CHECK_ALL_MAX else list(g.generators())
    for x in xs:
        rho = [idx[g.multiply(v, x)] for v in elems]
        for v in range(n):
            rv = cn[rho[v]]
            for c, nbrs in enumerate(cn[v]):
                target = rv[c]
                if any(rho[u] not in target for u in nbrs):
                    return False
    return True


@dataclass
class CCAVerdict:
    """Per-graph CCA verdict with order diagnostics.

    stab1_order and autc_order are None when the decision was streamed and
    stopped at a witness before the (possibly enormous) stabilizer was
    fully generated; stab1_checked counts the elements generated.
    aut_pm1_order and stab1 (the stabilizer itself, not serialised) are
    None whenever the stabilizer was streamed.
    """

    is_cca: bool
    connected: bool
    stab1_order: int | None
    autc_order: int | None
    stab1_checked: int = 0
    aut_pm1_order: int | None = None
    witness: tuple | None = None      # violating vertex map, if any
    stab1: VertexStabilizer | None = field(default=None, repr=False)

    def to_json_dict(self, graph: ColouredCayleyGraph) -> dict:
        g = graph.group
        d = {
            "group_order": graph.n,
            "S": [g.elem_str(s) for s in graph.conn.elements],
            "connected": self.connected,
            "stab1_order": self.stab1_order,
            "autc_order": self.autc_order,
            "aut_pm1_order": self.aut_pm1_order,
            "is_cca": self.is_cca,
        }
        if self.witness is not None:
            d["witness_alpha"] = list(self.witness)
        return d


def is_cca_graph(graph: ColouredCayleyGraph,
                 full_stab: bool = True) -> CCAVerdict:
    """Decide whether a connected coloured Cayley graph is CCA.

    With full_stab the whole vertex stabilizer is materialized and every
    element checked in sorted order: the witness is the first violating
    element, and the elements that pass are aut_pm1 (see aut_pm1), so the
    verdict carries exact stab1, Aut_c and aut_pm1 orders.  Without it the
    stabilizer is streamed in search order and the decision stops at the
    first non-automorphism; a far-from-CCA graph can have a stabilizer far
    too large to list, but its first few elements already contain a
    witness.
    """
    if not graph.is_connected():
        raise ValueError("is_cca_graph requires a connected graph")
    st = stab1(graph) if full_stab else None
    witness = None
    checked = passed = 0
    for alpha in st.elements if st is not None else _iter_stab1(graph):
        checked += 1
        if _automorphism_violation(graph, alpha) is None:
            passed += 1
        elif witness is None:
            witness = alpha
            if st is None:
                break
    stab_order = checked if st is not None or witness is None else None
    return CCAVerdict(
        is_cca=witness is None,
        connected=True,
        stab1_order=stab_order,
        autc_order=graph.n * stab_order if stab_order is not None else None,
        stab1_checked=checked,
        aut_pm1_order=passed if st is not None else None,
        witness=witness,
        stab1=st,
    )


@dataclass
class GroupCCAVerdict:
    """Group-level exhaustive verdict over all connection sets."""

    status: str                        # 'cca' | 'non-cca' | 'unknown'
    sets_checked: int
    connected_checked: int
    witness_set: tuple | None = None   # elements of the violating set
    witness_alpha: tuple | None = None

    def to_json_dict(self, group: FiniteGroup) -> dict:
        d = {
            "group_order": group.order(),
            "status": self.status,
            "sets_checked": self.sets_checked,
            "connected_checked": self.connected_checked,
        }
        if self.witness_set is not None:
            d["witness_S"] = [group.elem_str(s) for s in self.witness_set]
        if self.witness_alpha is not None:
            d["witness_alpha"] = list(self.witness_alpha)
        return d


class ConnectedClassGraphs:
    """The connected coloured Cayley graphs of G, one per connection set.

    A connection set is a union of colour classes {s, s^-1}.  Classes are
    ordered by representative index; sets are examined by (class count,
    lexicographic class indices), and only the connected ones are yielded.
    sets_checked and connected_checked count the sets examined and the
    connected ones; examining stops after `budget` sets, and over_budget
    then tells that sets were left unexamined.  The rows are those of the
    group's multiplication table, so G must have order at most
    MULT_TABLE_LIMIT.
    """

    def __init__(self, group: FiniteGroup, budget: int | None = None):
        self.group = group
        self.budget = budget
        self.sets_checked = 0
        self.connected_checked = 0
        self.over_budget = False

    def __iter__(self):
        group = self.group
        elems = group.elements()
        index = group.element_index()
        mt = group.mult_table()
        classes = ConnectionSet.from_elements(
            group, elems[1:]).colour_classes()
        class_indices = [[index[s] for s in cls] for cls in classes]
        class_rows = [[mt[i] for i in cls] for cls in class_indices]
        for size in range(1, len(classes) + 1):
            for combo in itertools.combinations(range(len(classes)), size):
                if (self.budget is not None
                        and self.sets_checked >= self.budget):
                    self.over_budget = True
                    return
                self.sets_checked += 1
                conn = ConnectionSet(group, tuple(
                    elems[i] for i in sorted(
                        i for c in combo for i in class_indices[c])))
                graph = ColouredCayleyGraph._from_rows(
                    group, conn, [classes[c] for c in combo],
                    [class_rows[c] for c in combo])
                if graph.is_connected():
                    self.connected_checked += 1
                    yield graph


def is_cca_group_exhaustive(group: FiniteGroup, budget: int = 2**20,
                            ) -> GroupCCAVerdict:
    """Check every inverse-closed identity-free connection set of G.

    The sets are those of ConnectedClassGraphs, in its order.  The first
    connected non-CCA set found is the witness; its elements are listed
    class by class.  Exceeding the budget yields the three-valued
    'unknown'.
    """
    graphs = ConnectedClassGraphs(group, budget)
    for graph in graphs:
        verdict = is_cca_graph(graph)
        if not verdict.is_cca:
            return GroupCCAVerdict(
                status="non-cca", sets_checked=graphs.sets_checked,
                connected_checked=graphs.connected_checked,
                witness_set=tuple(s for cls in graph.colours for s in cls),
                witness_alpha=verdict.witness)
    return GroupCCAVerdict(
        status="unknown" if graphs.over_budget else "cca",
        sets_checked=graphs.sets_checked,
        connected_checked=graphs.connected_checked)
