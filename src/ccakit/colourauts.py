"""Colour-preserving automorphisms and the CCA decision.

For a connected coloured Cayley graph the full colour-preserving group
Aut_c is transitive (it contains the right-regular representation), so
|Aut_c| = |G| * |stab1| where stab1 is the stabilizer of the identity
vertex.  The graph is CCA exactly when every stab1 element acts as a group
automorphism; stab1 is a group, so checking its generators is enough.

stab1 is searched by depth-first assignment along a BFS spanning tree: at a
tree edge of colour {s, s^-1} the image of the new vertex must be an
{s, s^-1}-neighbour of the image of its parent.  The search, like every
check here, reads the neighbours off the graph's left-multiplication rows
and builds no other adjacency.  With the BFS order as base, each basic
orbit therefore has size 1 or 2.  stab1 keeps the identity on the base
and unwinds it deepest level first; one first-solution search per level
finds a strong generator or proves the orbit trivial (Sims 1970; Seress,
Permutation Group Algorithms, ch. 4), so |stab1| = 2^m for m generators.
The order matters: on the PSL(2, 17) dihedral:16 triple graph the
shallowest search alone runs past 150 s on a 2-core machine, the deepest
takes 5 ms.

The generators found at deeper levels prune each level's search by
orbits, in the cheap form of McKay & Piperno ("Practical graph
isomorphism, II", JSC 60, 2014): at a branch point, a generator h that
fixes every image chosen above maps the completions below one candidate x
onto those below h(x), so once x's subtree has proved empty, h(x) is
skipped.  Only empty subtrees are cut and the rest are visited in the
same order, so each level's first completion, and with it every
generator and witness, is that of the unpruned search.  The full search
of the S5 triple graphs makes 27 to 29 times fewer assignments, that of
the A6 one 3.6 times fewer.
enumerate_stab1 lists every element with the unpruned search, as an
oracle.

The automorphism check needs no group arithmetic.  A stab1 element alpha
fixes vertex 0 and preserves colours, and vertex s is the {s, s^-1}-
neighbour s * 1 of vertex 0, so alpha(s) is s or s^-1.  The row of
alpha(s) is therefore already one of the graph's left-multiplication rows,
and alpha is a group automorphism exactly when alpha(s * v) =
alpha(s) * alpha(v) holds as alpha[row[v]] == arow[alpha[v]] for every s
in S and every vertex v (S generates G).  The stab1 elements that pass are
exactly aut_pm1, the automorphisms of G sending every s to s or s^-1.

There is one decision path.  is_cca_graph decides a single graph by
streaming the strong generators and stopping at the first that fails; its
verdict finishes the same stream only when stab1 or an order is read.  The
exhaustive group verdict applies is_cca_graph to the connected class
graphs in ConnectedClassGraphs' order and reads only the decision; a
superset of a connected CCA set is CCA, so it is counted but neither built
nor decided.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter

from .cayley import ColouredCayleyGraph, ConnectionSet, bfs
from .fgroup import DEFAULT_ENUM_LIMIT, FiniteGroup, LimitExceeded, closure

STAB1_ORACLE_MAX = 8


class _MapSearch:
    """A partial colour-preserving vertex map fixing vertex 0, grown along
    the BFS base (so the graph must be connected).

    The c-neighbours of v are row[v] for the one or two rows of colour c,
    and alpha must send them onto the c-neighbours of alpha[v].  Every
    assignment is propagated to a fixpoint, and every edge back into the
    assigned region prunes.  c-adjacency is symmetric (the class is
    inverse-closed), so processing each vertex once when it is assigned
    checks every edge constraint from at least one side.
    """

    def __init__(self, graph: ColouredCayleyGraph):
        self.n = graph.n
        self.rows = graph.left_rows
        self.order, self.parent = graph.bfs_order()
        if len(self.order) != self.n:
            raise ValueError("stab1 requires a connected graph")
        self.alpha = [-1] * self.n
        self.used = [False] * self.n
        self.assign(0, 0)

    def assign(self, w: int, target: int) -> list[int] | None:
        """Map w to target and propagate: the vertices assigned (the
        trail), or None, with the map unchanged, on a conflict."""
        trail = [w]
        if not self.used[target]:
            self.alpha[w] = target
            self.used[target] = True
            if self._propagate(trail):
                return trail
            self.undo(trail)
        return None

    def _propagate(self, trail: list[int]) -> bool:
        alpha, used = self.alpha, self.used
        for v in trail:             # the trail grows as vertices are forced
            a = alpha[v]
            for rows in self.rows:
                if len(rows) == 1:
                    u = rows[0][v]
                    tgt = rows[0][a]
                else:
                    # one placed member of the pair forces the other
                    r1, r2 = rows
                    u1, u2 = r1[v], r2[v]
                    if alpha[u2] != -1:
                        known, u = alpha[u2], u1
                    elif alpha[u1] != -1:
                        known, u = alpha[u1], u2
                    else:
                        continue
                    if known == r1[a]:
                        tgt = r2[a]
                    elif known == r2[a]:
                        tgt = r1[a]
                    else:
                        return False
                if alpha[u] != -1:
                    if alpha[u] != tgt:
                        return False
                elif used[tgt]:
                    return False
                else:
                    alpha[u] = tgt
                    used[tgt] = True
                    trail.append(u)
        return True

    def undo(self, trail: list[int]) -> None:
        for u in trail:
            self.used[self.alpha[u]] = False
            self.alpha[u] = -1

    def completions(self, k: int, gens=()):
        """Yield every completion of the map, branching from base level k.

        An explicit-stack DFS that tries the identity-consistent image
        first at each branch point, then the others by vertex index.  The
        map is restored when the generator ends or is closed.

        gens, colour-preserving vertex maps that fix every image the map
        already assigns, prune the search (McKay & Piperno 2014).  Each
        branch point keeps those of its parent's generators that fix the
        image chosen at the parent, so a kept h fixes every chosen image
        above it and, as propagation follows colour rows, every image
        propagated from them; h o g then extends the map whenever the
        completion g does.  Once the subtree of an image x is exhausted
        without a completion, or x conflicts at once, the subtree of h(x)
        is its h-image and holds none either, so h(x) is skipped.  Only
        empty subtrees are cut and the rest are visited in the same order:
        the completions, and their order, are those of the search without
        gens.
        """
        alpha, order = self.alpha, self.order
        found = 0                 # completions yielded so far
        # branch points: [level, untried, trail, kept generators, found
        # when the current image was assigned]
        stack: list[list] = []
        try:
            while True:
                while k < self.n and alpha[order[k]] != -1:
                    k += 1
                if k == self.n:
                    found += 1
                    yield tuple(alpha)
                else:
                    w = order[k]
                    v, c = self.parent[w]
                    kept = gens
                    if stack:
                        x = alpha[order[stack[-1][0]]]
                        kept = [h for h in stack[-1][3] if h[x] == x]
                    stack.append([k, sorted(
                        (row[alpha[v]] for row in self.rows[c]),
                        key=lambda x: (x != w, x)), [], kept, found])
                while stack:        # next image at the deepest branch point
                    frame = stack[-1]
                    level, untried, trail, kept, before = frame
                    w = order[level]
                    x = alpha[w]            # the current image, -1 if none
                    self.undo(trail)
                    trail = []
                    while not trail:
                        if x != -1 and found == before and kept:
                            # x's subtree held no completion (a conflict
                            # is an empty subtree): skip each h(x)
                            untried[:] = [y for y in untried
                                          if all(h[x] != y for h in kept)]
                        if not untried:
                            break
                        x, before = untried.pop(0), found
                        trail = self.assign(w, x) or []
                    if trail:
                        frame[2], frame[4] = trail, before
                        k = level + 1
                        break
                    stack.pop()
                else:
                    return
        finally:
            for frame in stack:
                self.undo(frame[2])


def enumerate_stab1(graph: ColouredCayleyGraph) -> list[tuple]:
    """Every element of stab1, as sorted vertex maps (the search oracle)."""
    return sorted(_MapSearch(graph).completions(1))


def _strong_generators(graph: ColouredCayleyGraph):
    """Yield strong generators of stab1 along the BFS base, deepest first.

    The identity is assigned level by level, keeping each level's trail.
    Unwinding from the deepest level, each trail is undone and the level's
    base point sent to its other same-colour neighbour; the first
    completion found, if any, is the level's generator.

    The generators already found, at deeper levels, fix every vertex the
    identity assigns up to level k, its base point b_k included.  Fixing
    b_k and its parent, they fix b_k's other same-colour neighbour, the
    image chosen for b_k, and so everything it propagates.  They prune the
    level's search by orbits (see completions), which keeps its first
    completion, and so every generator, unchanged.
    """
    search = _MapSearch(graph)
    levels = []
    for k, w in enumerate(search.order):
        if search.alpha[w] == -1:       # the identity never conflicts
            levels.append((k, search.assign(w, w)))
    found: list[tuple] = []
    for k, trail in reversed(levels):
        search.undo(trail)
        w = search.order[k]
        v, c = search.parent[w]
        for row in search.rows[c]:
            cand = row[v]
            branch = search.assign(w, cand) if cand != w else None
            if branch is not None:
                completions = search.completions(k + 1, found)
                generator = next(completions, None)
                completions.close()
                search.undo(branch)
                if generator is not None:
                    found.append(generator)
                    yield generator


@dataclass
class VertexStabilizer:
    """stab1 as a group given by strong generators along the BFS base.

    Each basic orbit has size 1 or 2 and contributes at most one
    generator, so the order is 2^m for m generators.
    """

    n: int
    generators: list = field(repr=False)

    @property
    def order(self) -> int:
        return 2 ** len(self.generators)

    @cached_property
    def elements(self) -> list[tuple]:
        """The group the generators generate, as sorted vertex maps."""
        return sorted(closure(tuple(range(self.n)),
                              [itemgetter(*g) for g in self.generators],
                              DEFAULT_ENUM_LIMIT))


def stab1(graph: ColouredCayleyGraph) -> VertexStabilizer:
    """Identity-vertex stabilizer of Aut_c, by strong generators."""
    return VertexStabilizer(graph.n, list(_strong_generators(graph)))


def preserves_colours(graph: ColouredCayleyGraph, alpha) -> bool:
    """Whether the vertex map alpha keeps every coloured edge.

    Each c-neighbour of v must go to a c-neighbour of alpha[v]: its image
    under the first or the last of the colour's one or two rows.
    """
    return all(alpha[row[v]] in (rows[0][alpha[v]], rows[-1][alpha[v]])
               for v in range(graph.n)
               for rows in graph.left_rows
               for row in rows)


def stab1_oracle(graph: ColouredCayleyGraph) -> list[tuple]:
    """Anti-drift oracle: filter all (n-1)! bijections fixing vertex 0."""
    if graph.n > STAB1_ORACLE_MAX:
        raise LimitExceeded(
            f"stab1_oracle limited to {STAB1_ORACLE_MAX} vertices")
    maps = ((0,) + rest for rest in itertools.permutations(range(1, graph.n)))
    return [alpha for alpha in maps if preserves_colours(graph, alpha)]


def _automorphism_violation(graph: ColouredCayleyGraph, alpha) -> tuple | None:
    """First (s, v) where alpha(s*v) != alpha(s)*alpha(v), or None.

    alpha must be a stab1 element, so that alpha(s) is s or s^-1 and its
    left-multiplication row is one of the rows of s's colour class.
    """
    n = graph.n
    for rows in graph.left_rows:
        # row[0] = index(s * 1) = index(s)
        members = [row[0] for row in rows]
        for row in rows:
            arow = rows[members.index(alpha[row[0]])]
            for v in range(n):
                if alpha[row[v]] != arow[alpha[v]]:
                    return (graph.elems[row[0]], graph.elems[v])
    return None


def aut_pm1(graph: ColouredCayleyGraph) -> list[tuple]:
    """Automorphisms of G sending every s in S to s or s^-1, sorted, as
    index arrays over the graph's vertices.  S must generate G.

    Colour classes are picked while they enlarge the subgroup the picked
    ones generate, at most log2|G| of them.  Each choice of s or s^-1 for
    each picked representative fixes a map along the BFS tree (cayley.bfs)
    of their rows; the maps that keep every class at vertex 0 and pass the
    automorphism check are homomorphisms onto a subgroup containing S.
    """
    if not graph.is_connected():
        raise ValueError("aut_pm1 requires S to generate G")
    picked: list = []
    order, parent = [0], [None] * graph.n
    for rows in graph.left_rows:
        if parent[rows[0][0]] is None:
            picked.append(rows)
            order, parent = bfs(graph.n, [[prow[0]] for prow in picked])
            if len(order) == graph.n:
                break
    # (u, v, i): u = s_i * v, s_i the i-th picked rep
    tree = [(u, *parent[u]) for u in order[1:]]
    members = [{row[0] for row in rows} for rows in graph.left_rows]
    out = []
    for images in itertools.product(*picked):
        phi = [0] * graph.n
        for u, v, i in tree:
            phi[u] = images[i][phi[v]]
        if (all(phi[row[0]] in m
                for rows, m in zip(graph.left_rows, members) for row in rows)
                and _automorphism_violation(graph, phi) is None):
            out.append(tuple(phi))
    return sorted(out)


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
    xs = elems if graph.n <= RIGHT_REGULAR_CHECK_ALL_MAX else list(
        g.generators())
    return all(preserves_colours(graph, [idx[g.multiply(v, x)]
                                         for v in elems])
               for x in xs)


@dataclass
class CCAVerdict:
    """Per-graph CCA verdict; stab1 and the orders are found on first read.

    is_cca_graph streams the strong generators of stab1 and stops at the
    first that is not a group automorphism (the witness); stab1_checked
    counts the generators examined.  The first read of stab1 or of an order
    finishes that same stream, so a caller that reads only is_cca and
    witness never pays for the rest of the search.
    """

    graph: ColouredCayleyGraph = field(repr=False)
    witness: tuple | None           # violating vertex map, if any
    stab1_checked: int
    # the generators examined, then the suspended rest of the stream
    _generators: itertools.chain = field(repr=False)

    @property
    def is_cca(self) -> bool:
        return self.witness is None

    @cached_property
    def stab1(self) -> VertexStabilizer:
        return VertexStabilizer(self.graph.n, list(self._generators))

    @property
    def stab1_order(self) -> int:
        return self.stab1.order

    @property
    def autc_order(self) -> int:
        return self.graph.n * self.stab1.order

    @cached_property
    def aut_pm1_order(self) -> int:
        """|aut_pm1|, which is |stab1| exactly when the graph is CCA."""
        return self.stab1.order if self.is_cca else len(aut_pm1(self.graph))

    def to_json_dict(self, graph: ColouredCayleyGraph) -> dict:
        g = graph.group
        d = {
            "group_order": graph.n,
            "S": [g.elem_str(s) for s in sorted(
                (s for cls in graph.colours for s in cls),
                key=graph.index.__getitem__)],
            "connected": True,        # is_cca_graph requires it
            "stab1_order": self.stab1_order,
            "autc_order": self.autc_order,
            "aut_pm1_order": self.aut_pm1_order,
            "is_cca": self.is_cca,
        }
        if self.witness is not None:
            d["witness_alpha"] = list(self.witness)
        return d


def is_cca_graph(graph: ColouredCayleyGraph) -> CCAVerdict:
    """Decide whether a connected coloured Cayley graph is CCA.

    It is CCA exactly when every strong generator of stab1 is a group
    automorphism.  The generators are streamed and the decision stops at
    the first that is not, the witness, usually the first; the verdict
    keeps the rest of the stream for its orders.  The search raises
    ValueError on a disconnected graph.
    """
    stream = _strong_generators(graph)
    found = []
    witness = None
    for alpha in stream:
        found.append(alpha)
        if _automorphism_violation(graph, alpha) is not None:
            witness = alpha
            break
    return CCAVerdict(graph, witness, len(found),
                      itertools.chain(found, stream))


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

    mark_cca() marks the graph last yielded as CCA.  A set that holds a
    marked set is then counted as examined and connected, but not yielded.
    Sets go by size, so a set holds a marked set exactly when removing one
    of its classes leaves a set that is marked or holds one; only those of
    the size just below are kept.  A caller that never marks sees every
    connected graph.
    """

    def __init__(self, group: FiniteGroup, budget: int | None = None):
        self.group = group
        self.budget = budget
        self.sets_checked = 0
        self.connected_checked = 0
        self.over_budget = False
        self._marked: set[int] = set()
        self._last = 0

    def mark_cca(self) -> None:
        """Skip every superset of the set last yielded from now on."""
        self._marked.add(self._last)

    def __iter__(self):
        group = self.group
        index = group.element_index()
        mt = group.mult_table()
        class_rows = [[mt[index[s]] for s in cls]
                      for cls in ConnectionSet.from_elements(
                          group, group.elements()[1:]).colour_classes()]
        bits = [1 << c for c in range(len(class_rows))]
        for size in range(1, len(class_rows) + 1):
            below, self._marked = self._marked, set()
            for combo in itertools.combinations(bits, size):
                if (self.budget is not None
                        and self.sets_checked >= self.budget):
                    self.over_budget = True
                    return
                self.sets_checked += 1
                self._last = sum(combo)
                if below and any(self._last - b in below for b in combo):
                    self.connected_checked += 1
                    self._marked.add(self._last)
                    continue
                graph = ColouredCayleyGraph(
                    group, [class_rows[b.bit_length() - 1] for b in combo])
                if graph.is_connected():
                    self.connected_checked += 1
                    yield graph


def is_cca_group_exhaustive(group: FiniteGroup, budget: int = 2**20,
                            ) -> GroupCCAVerdict:
    """Check every inverse-closed identity-free connection set of G.

    The sets are those of ConnectedClassGraphs, in its order.  A
    colour-preserving automorphism of Cay(G, S u T) keeps the S-coloured
    edges, so for connected S, stab1(S u T) lies in stab1(S): every
    superset of a connected CCA set is connected and CCA.  Each CCA graph
    is therefore marked, and its supersets are counted without being built
    or decided.  The first connected non-CCA set is still decided, so it
    is the witness; its elements are listed class by class.  Exceeding the
    budget yields the three-valued 'unknown'.
    """
    graphs = ConnectedClassGraphs(group, budget)
    for graph in graphs:
        verdict = is_cca_graph(graph)
        if verdict.is_cca:
            graphs.mark_cca()
        else:
            return GroupCCAVerdict(
                status="non-cca", sets_checked=graphs.sets_checked,
                connected_checked=graphs.connected_checked,
                witness_set=tuple(s for cls in graph.colours for s in cls),
                witness_alpha=verdict.witness)
    return GroupCCAVerdict(
        status="unknown" if graphs.over_budget else "cca",
        sets_checked=graphs.sets_checked,
        connected_checked=graphs.connected_checked)
