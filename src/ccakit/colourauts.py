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
orbit therefore has size 1 or 2, and a branch point has exactly two
candidates.  The search branches at a base point w only when propagation
has left it unassigned, and every base point before w, its BFS parent v
among them, is then assigned and propagated.  Had w's colour been an
involution class {s}, propagating v would have sent w = s * v to
s * alpha(v).  So the colour is a pair class {s, s^-1}, and the
candidates are s * alpha(v) and s^-1 * alpha(v).  stab1 keeps the
identity on the base and unwinds it deepest level first; one
first-solution search per level finds a strong generator or proves the
orbit trivial (Sims 1970; Seress, Permutation Group Algorithms, ch. 4),
so |stab1| = 2^m for m generators.
The order matters, because only generators found at deeper levels can
prune a level's search.  On the PSL(2, 17) dihedral:16 triple graph the
shallowest search alone, with nothing to prune it, takes 1.2 s on a
2-core machine, twice the whole deepest-first unwinding (0.6 s);
unwound shallowest first, the levels take 6.8 s, and the deepest alone
takes 4 ms.

The generators found at deeper levels prune each level's search by
orbits, in the cheap form of McKay & Piperno ("Practical graph
isomorphism, II", JSC 60, 2014): at a branch point, a generator h that
fixes every image chosen above maps the completions below one candidate x
onto those below h(x), so once x's subtree has proved empty, h(x) is
skipped.

Orbits cannot cut a subtree that no generator reaches, such as one whose
conflict lies in the last base blocks whatever is chosen in between.
The search therefore also jumps back by conflict sets (Prosser, "Hybrid
algorithms for the constraint satisfaction problem", Comput. Intell. 9,
1993).  Every image carries the set of branch decisions it depends on,
every conflict names the decisions behind it, and a branch point that
runs out of candidates resumes the search at the deepest decision in
the union of its conflicts, discarding the points in between.

Only empty subtrees are cut and the rest are visited in the same order,
so each level's first completion, and with it every generator and
witness, is that of the chronological, unpruned search.  Against that
search the full search of the S5 triple graphs makes 68 and 43 times
fewer assignments, that of the A6 one 25 times fewer; on a PSL(2, 7)
graph on two classes of elements of order 3, adding backjumping takes
its search from 1,273,720 assignments to 2,706.  enumerate_stab1 lists
every element with the chronological, unpruned search, as an oracle.

The automorphism check needs no group arithmetic.  It takes any vertex
map alpha with alpha(1) = 1 and reads each colour class through its first
member s only: the row of alpha(s) is s's own row when alpha(s) = s and
the class's last row, that of s^-1, otherwise, and the check asks that
alpha(s * v) = alpha(s) * alpha(v) hold as alpha[row[v]] == arow[alpha[v]]
for every vertex v.  The s^-1 equation needs no check of its own: the s
equation at v = s^-1 gives alpha(s^-1) = alpha(s)^-1, and at v = s^-1 * w
it gives alpha(s^-1 * w) = alpha(s^-1) * alpha(w).  A first member sent
outside its class already fails at v = 1.  So alpha passes exactly when
it is a homomorphism sending every s to s or s^-1, an automorphism since
S generates G: exactly when it is in aut_pm1.  A stab1 element sends
every s, the {s, s^-1}-neighbour of vertex 0, to s or s^-1, so it is a
group automorphism exactly when it passes.  aut_pm1 keeps a map when
the check passes on the graph of the classes it picked, which generate
G, and the map sends the first member of every other class into its
class, the v = 1 test: once the picked classes' equations hold, the map
is an automorphism, and any other class's equation holds at every v
exactly when it holds at v = 1 (see aut_pm1).

After a witness, the rest of stab1 comes mostly from the witness itself,
by three facts.
- Right translation R_x, v -> v * x, preserves colours, since
  s * (v * x) = (s * v) * x.  So for alpha in stab1 and s in S the
  conjugate R_{alpha(s)}^-1 o alpha o R_s preserves colours and sends 1
  to alpha(s) * alpha(s)^-1 = 1: every conjugate lies in stab1.
- If alpha is a group automorphism, the conjugate sends v to
  alpha(v * s) * alpha(s)^-1 = alpha(v): it is alpha.  If every
  conjugate is alpha, then alpha(v * s) = alpha(v) * alpha(s) for every
  v and every s in the generating set S, and alpha is an automorphism.
  So only a witness seeds new elements, and nothing is conjugated
  before one is found: a sweep, a cross-check or a CCA graph stops at
  its witness or has none, and never pays.
- Which vertices propagation assigns depends only on which are already
  assigned, not on their images: an involution row forces row[v] once
  v is placed, and a pair forces one member once the other is.  So
  every completion of a level's search branches at the identity walk's
  deeper base points, and the search, which cuts only empty subtrees,
  returns first the coset element (the maps fixing the base points
  above b_k and sending b_k to its partner) that is lex-least by the
  candidate order at each deeper base point.  A coset element x is
  made lex-least greedily: at each deeper level j with generator g_j,
  x o g_j agrees with x above b_j and takes x's other candidate at b_j,
  and at a level with no generator the coset elements that agree above
  b_j agree at b_j.  The identity walk rests on the same fact: the
  identity preserves colours, so its propagation cannot conflict, and
  _MapSearch.fix records only which vertices it forces.
So a conjugate that fixes the base points above b_k and moves b_k gives
level k's generator by composition, byte-identical to the search's, and
the level is searched only when none lands there.  A conjugate that
moves first the base point of a level the search proved trivial
contradicts it, and raises AssertionError (exit 4 in the CLI).  After
the witness, the S6 triple graph runs no search, and the PSL(2, 17)
dihedral:16 one runs 36.

There is one decision path.  is_cca_graph decides a single graph by
streaming the strong generators and stopping at the first that fails; its
verdict finishes the same stream, sent the witness, only when stab1 or an
order is read.  The exhaustive group verdict is one function,
is_cca_group_exhaustive.  A superset of a connected CCA set is CCA, so a
group is CCA exactly when its minimal generating class sets are, and an
automorphism of G keeps CCA-ness, so one set of each orbit is enough.
The sweep forms, size by size, only the lex-irredundant class sets, in
which each class lies outside the subgroup its lex-smaller classes
generate, that are least in their orbit under conjugation, and grows
only those that do not generate; it applies is_cca_graph to the minimal
ones, reads only the decision, and returns at the first that fails.  It
never walks the 2^k class subsets: A5 has 2^37, of which it forms 48,
and PSL(2, 8) and PSL(2, 11) are CCA by exhaustion in seconds.
"""

from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property, partial
from operator import itemgetter

from .cayley import ColouredCayleyGraph, bfs, check_graph_limit, class_rows
from .fgroup import (DEFAULT_ENUM_LIMIT, DEFAULT_GRAPH_LIMIT, FiniteGroup,
                     LimitExceeded, closure)

STAB1_ORACLE_MAX = 8

# connection sets an exhaustive sweep examines before it answers 'unknown'
DEFAULT_BUDGET = 2**20


class _MapSearch:
    """A partial colour-preserving vertex map fixing vertex 0, grown along
    the BFS base (so the graph must be connected).

    The c-neighbours of v are row[v] for the one or two rows of colour c,
    and alpha must send them onto the c-neighbours of alpha[v].  Every
    assignment is propagated to a fixpoint, and every edge back into the
    assigned region prunes.  c-adjacency is symmetric (the class is
    inverse-closed), so processing each vertex once when it is assigned
    checks every edge constraint from at least one side.  _propagate is
    the only code that computes or checks images: the identity, given to
    vertex 0's closure here and to the identity walk by
    identity_levels, is recorded by fix, which checks nothing, since the
    identity passes every check.

    pre is the inverse of the partial map (-1 where no vertex is sent yet)
    and reason[v] is a bitmask of the branch decisions that alpha[v]
    depends on: for the image chosen at the d-th branch point of
    completions, bit d and the reason of the BFS parent whose image fixed
    the candidates; for a forced image, the reasons of the images that
    forced it.  A conflict leaves in `conflict` the union of the reasons
    of the images that clash: those decisions admit no completion
    together.
    """

    def __init__(self, graph: ColouredCayleyGraph):
        self.n = graph.n
        self.rows = graph.left_rows
        self.singles = [rows[0] for rows in self.rows if len(rows) == 1]
        self.pairs = [rows for rows in self.rows if len(rows) == 2]
        self.order, self.parent = graph.bfs_order()
        if len(self.order) != self.n:
            raise ValueError("stab1 requires a connected graph")
        self.alpha = [-1] * self.n
        self.pre = [-1] * self.n
        self.reason = [0] * self.n
        self.conflict = 0
        self.fix(0)

    def fix(self, w: int) -> list[int]:
        """Send w, and every vertex it forces, to itself: the trail that
        assign(w, w) returns, in the same order, with no image computed or
        checked.  Only for a map that is the identity where assigned, with
        every reason 0: vertex 0's closure and the identity walk of
        _strong_generators.

        The identity preserves colours, so propagating it never conflicts:
        _propagate forces each vertex u onto u itself, and pre[u] is free
        exactly when alpha[u] is.  Which vertices it forces depends only on
        which are assigned (see the module docstring): row[v] for an
        involution row, and one member of a pair once the other is placed.
        So the closure records only that, in _propagate's order, and every
        reason stays 0, as the identity depends on no decision.
        """
        alpha, pre = self.alpha, self.pre
        alpha[w] = pre[w] = w
        trail = [w]
        for v in trail:             # the trail grows as vertices are forced
            for row in self.singles:
                u = row[v]
                if alpha[u] == -1:
                    alpha[u] = pre[u] = u
                    trail.append(u)
            for r1, r2 in self.pairs:
                u = r1[v]
                if alpha[u] == -1:
                    if alpha[r2[v]] == -1:
                        continue
                else:
                    u = r2[v]
                    if alpha[u] != -1:
                        continue
                alpha[u] = pre[u] = u
                trail.append(u)
        return trail

    def assign(self, w: int, target: int, mask: int = 0) -> list[int] | None:
        """Map w to target, for the decisions in mask, and propagate: the
        vertices assigned (the trail), or None, with the map unchanged and
        the decisions behind it in `conflict`, on a conflict."""
        trail = [w]
        p = self.pre[target]
        if p == -1:
            self.alpha[w] = target
            self.pre[target] = w
            self.reason[w] = mask
            if self._propagate(trail):
                return trail
            self.undo(trail)
        else:
            self.conflict = mask | self.reason[p]
        return None

    def identity_levels(self) -> list[tuple[int, list[int]]]:
        """Give the identity to every base point propagation leaves
        unassigned, in BFS order: (its base position k, its trail) for
        each, the levels of _strong_generators.  The map must hold only
        vertex 0's closure."""
        levels = []
        for k, w in enumerate(self.order):
            if self.alpha[w] == -1:
                levels.append((k, self.fix(w)))
        return levels

    def _propagate(self, trail: list[int]) -> bool:
        alpha, pre, reason = self.alpha, self.pre, self.reason
        for v in trail:             # the trail grows as vertices are forced
            a = alpha[v]
            m = reason[v]
            for row in self.singles:
                u = row[v]
                tgt = row[a]
                b = alpha[u]
                if b == -1:
                    p = pre[tgt]
                    if p != -1:
                        self.conflict = m | reason[p]
                        return False
                    alpha[u] = tgt
                    pre[tgt] = u
                    reason[u] = m
                    trail.append(u)
                elif b != tgt:
                    self.conflict = m | reason[u]
                    return False
            for r1, r2 in self.pairs:
                # one placed member of the pair forces the other
                u1, u2 = r1[v], r2[v]
                if alpha[u2] != -1:
                    known, u = u2, u1
                elif alpha[u1] != -1:
                    known, u = u1, u2
                else:
                    continue
                b = alpha[known]
                if b == r1[a]:
                    tgt = r2[a]
                elif b == r2[a]:
                    tgt = r1[a]
                else:
                    self.conflict = m | reason[known]
                    return False
                b = alpha[u]
                if b == -1:
                    p = pre[tgt]
                    if p != -1:
                        self.conflict = m | reason[known] | reason[p]
                        return False
                    alpha[u] = tgt
                    pre[tgt] = u
                    reason[u] = m | reason[known]
                    trail.append(u)
                elif b != tgt:
                    self.conflict = m | reason[known] | reason[u]
                    return False
        return True

    def undo(self, trail: list[int]) -> None:
        for u in trail:
            self.pre[self.alpha[u]] = -1
            self.alpha[u] = -1

    def candidates(self, w: int, a: int) -> tuple[int, int]:
        """The two images of base point w when its BFS parent goes to a,
        in the order the search tries them: the c-neighbours of a, the
        one equal to w first, else the lower index first."""
        r1, r2 = self.rows[self.parent[w][1]]
        x, y = r1[a], r2[a]
        return (y, x) if y == w or (x != w and y < x) else (x, y)

    def completions(self, k: int, gens=None):
        """Yield every completion of the map, branching from base level k.

        An explicit-stack DFS that tries the identity-consistent image
        first at each branch point, then the other; a branch point has
        two candidates (see the module docstring), and when neither is
        identity-consistent the lower index goes first.  The map is
        restored when the generator ends or is closed.  With gens None the
        search is chronological and unpruned (the oracle); given a
        sequence gens, possibly empty, it prunes by orbits and jumps back
        over empty subtrees.

        gens, colour-preserving vertex maps that fix every image the map
        already assigns, prune the search (McKay & Piperno 2014).  Each
        branch point keeps those of its parent's generators that fix the
        image chosen at the parent, so a kept h fixes every chosen image
        above it and, as propagation follows colour rows, every image
        propagated from them; h o g then extends the map whenever the
        completion g does.  Once the subtree of the first image x is
        exhausted without a completion, or x conflicts at once, the
        subtree of h(x) is its h-image and holds none either, so the
        second image is skipped when some kept h sends x to it.

        Each branch point also keeps a conflict set, a bitmask of the
        branch points above it whose decisions its failures depend on
        (conflict-directed backjumping; Prosser 1993).  A candidate that
        conflicts adds the decisions behind the conflict, a child point
        that runs out adds its own set, and a candidate with a completion
        below it adds every point above.  A candidate skipped by orbit
        pruning adds nothing: a kept h fixes every image chosen above and
        every image the map held before the search (mask 0).  If some
        completion g agreed with the decisions in x's refutation and sent
        the point to y = h(x), then h^-1 o g would agree with those same
        decisions and send it to x, which x's refutation rules out; those
        decisions are already in the point's set.
        When a point runs out of candidates, its set's decisions admit no
        completion, so the search resumes at the deepest point in the set:
        the points in between are discarded, each with a subtree proved
        empty, and the deepest point adds the rest of the set to its own.
        Only empty subtrees are cut and the rest are visited in the same
        order: the completions, and their order, are those of the
        chronological search.
        """
        alpha, order, reason = self.alpha, self.order, self.reason
        jump = gens is not None
        gens = gens or ()
        found = 0                 # completions yielded so far
        # branch points: [level, (first, second) candidate, trail, kept
        # generators, found when the current image was assigned, conflict
        # set, the reason of its images]
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
                    v = self.parent[w][0]
                    d = len(stack)
                    kept = gens
                    if stack:
                        x = alpha[order[stack[-1][0]]]
                        kept = [h for h in stack[-1][3] if h[x] == x]
                    # the chronological search backs up one point at a time
                    stack.append([k, self.candidates(w, alpha[v]), [],
                                  kept, found, 0 if jump else (1 << d) - 1,
                                  (1 << d) | reason[v]])
                while stack:        # next image at the deepest branch point
                    frame = stack[-1]
                    level, (first, second), trail, kept, before, conflicts, \
                        mask = frame
                    above = (1 << (len(stack) - 1)) - 1
                    w = order[level]
                    x = alpha[w]            # the current image, -1 if none
                    self.undo(trail)
                    if found != before:
                        conflicts |= above
                    trail = []
                    while not trail:
                        # once first's subtree holds no completion (a
                        # conflict is an empty subtree), second is skipped
                        # if a kept h maps first to it
                        if x == second or (x == first and found == before
                                           and any(h[x] == second
                                                   for h in kept)):
                            break
                        x, before = first if x == -1 else second, found
                        trail = self.assign(w, x, mask) or []
                        if not trail:
                            conflicts |= self.conflict
                    if trail:
                        frame[2], frame[4], frame[5] = trail, before, conflicts
                        k = level + 1
                        break
                    # no completion extends the decisions in the set:
                    # resume at its deepest point
                    stack.pop()
                    conflicts &= above
                    while len(stack) > conflicts.bit_length():
                        self.undo(stack.pop()[2])
                    if stack:
                        stack[-1][5] |= conflicts
                else:
                    return
        finally:
            for frame in stack:
                self.undo(frame[2])


def enumerate_stab1(graph: ColouredCayleyGraph) -> list[tuple]:
    """Every element of stab1, as sorted vertex maps (the search oracle)."""
    return sorted(_MapSearch(graph).completions(1))


def _compose(f, g) -> tuple:
    """f o g, the vertex map v -> f[g[v]], as a tuple."""
    return itemgetter(*g)(f)


class _Conjugates:
    """Elements of stab1 for the levels of _strong_generators, from the
    right-translation conjugates of a witness (see the module docstring).

    at[i], shared with the stream, is level i's generator once the level
    is done, and before that the first element filed there: one that
    fixes the base points of the levels above i and moves level i's.
    pending holds the (element, member u) pairs whose conjugates
    R_{alpha(u)}^-1 o alpha o R_u are not filed yet.  right[u] is the
    right translation R_u, v -> v * u, of each member u of S as an index
    map: iota o L_{u^-1} o iota, with iota the inverse row and L_{u^-1}
    the row of u's partner.
    """

    def __init__(self, graph: ColouredCayleyGraph, search: _MapSearch,
                 base: list[int], at: list):
        self.search, self.base, self.at = search, base, at
        self.pending: deque = deque()
        self.inv = graph.group.inverse_row()
        iota = itemgetter(*self.inv)
        self.right = {row[0]: _compose(self.inv, iota(partner))
                      for rows in graph.left_rows
                      for row, partner in zip(rows, reversed(rows))}

    def add(self, alpha: tuple) -> None:
        self.pending.extend((alpha, u) for u in self.right)

    def serve(self, i: int) -> tuple | None:
        """Level i's generator, the search's first completion, from the
        element filed there, if any; levels after i are done.

        Conjugates are filed until one lands at level i.  Each is read at
        the base points first, and built only to be filed: at the first
        level j whose base point it moves, if j is not done and holds no
        element yet.  At a done level j it is dropped, since it fixes
        every base point above j and so can fill no level left; if j was
        proved trivial, the search and the conjugate disagree.

        The filed element x is then made lex-least in its coset greedily:
        at each deeper level j with a generator, x o at[j] keeps the
        images above b_j and swaps the two candidates at b_j, so x takes
        it when x(b_j) is not the candidate the search tries first.
        """
        at, base, search = self.at, self.base, self.search
        while at[i] is None and self.pending:
            alpha, u = self.pending.popleft()
            left, right = self.right[self.inv[alpha[u]]], self.right[u]
            j = next((j for j, b in enumerate(base)
                      if left[alpha[right[b]]] != b), None)
            if j is not None and at[j] is None:
                if j > i:
                    raise AssertionError(
                        f"a conjugate of a stab1 element moves base point "
                        f"{base[j]} first, whose level the search proved "
                        f"trivial")
                at[j] = _compose(left, _compose(alpha, right))
        x = at[i]
        if x is not None:
            for j in range(i + 1, len(base)):
                if at[j] is not None:
                    w = base[j]
                    first, _ = search.candidates(w, x[search.parent[w][0]])
                    if x[w] != first:
                        x = _compose(x, at[j])
        return x


def _strong_generators(graph: ColouredCayleyGraph):
    """Yield strong generators of stab1 along the BFS base, deepest first.

    The identity is given level by level (_MapSearch.identity_levels),
    keeping each level's trail: the trail assign(w, w) would return, with
    alpha and pre the identity and every reason 0, recorded by a closure
    that maps and checks nothing (_MapSearch.fix), so only the search
    calls assign.  Unwinding from the deepest level, each trail is undone
    and the level's base point w sent to its pair partner: the parent v
    still holds the identity, so w's two candidates are w and the other
    c-neighbour of v (see the module docstring).  The first completion
    found, if any, is the level's generator; if the partner conflicts at
    once, the level's orbit is trivial.

    The generators already found, at deeper levels, fix every vertex the
    identity assigns up to level k, its base point b_k included.  Fixing
    b_k and its parent, they fix b_k's pair partner, the image chosen for
    b_k, and so everything it propagates.  They prune the level's search
    by orbits, and the search jumps back by conflict sets (see
    completions); both keep its first completion, and so every generator,
    unchanged.

    A caller that finds the generator just yielded is no group
    automorphism, a witness, may send it back.  From then on the witness
    and every later generator are conjugated by the right translations
    (_Conjugates), and a level whose partner does not conflict is searched
    only when none of their conjugates lands there; otherwise its first
    completion is built from the conjugate by composition (see the module
    docstring).  The generators are the same either way.
    """
    search = _MapSearch(graph)
    levels = search.identity_levels()
    found: list[tuple] = []
    at: list = [None] * len(levels)
    conjugates = None                   # once a witness is sent
    for i in reversed(range(len(levels))):
        k, trail = levels[i]
        search.undo(trail)
        w = search.order[k]
        branch = search.assign(w, search.candidates(w, search.parent[w][0])[1])
        if branch is None:
            if at[i] is not None:
                raise AssertionError(
                    f"a conjugate of a stab1 element moves base point {w}, "
                    f"whose partner conflicts")
            continue
        generator = None if conjugates is None else conjugates.serve(i)
        if generator is None:
            completions = search.completions(k + 1, found)
            generator = next(completions, None)
            completions.close()
        search.undo(branch)
        if generator is not None:
            at[i] = generator
            found.append(generator)
            if (yield generator) is not None and conjugates is None:
                conjugates = _Conjugates(
                    graph, search, [search.order[k] for k, _ in levels], at)
            if conjugates is not None:
                conjugates.add(generator)


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

    alpha must fix vertex 0.  Each colour class is checked through its
    first member s, with alpha(s) read as s when alpha(s) = s and as s^-1
    otherwise (see the module docstring), so a first member sent outside
    its class fails at (s, 1).  None means exactly that alpha is a
    homomorphism sending every s in S to s or s^-1.
    """
    n = graph.n
    for rows in graph.left_rows:
        row = rows[0]
        # row[0] = index(s * 1) = index(s); the row of alpha(s), or of s^-1
        arow = row if alpha[row[0]] == row[0] else rows[-1]
        for v in range(n):
            if alpha[row[v]] != arow[alpha[v]]:
                return (graph.elems[row[0]], graph.elems[v])
    return None


def aut_pm1(graph: ColouredCayleyGraph) -> list[tuple]:
    """Automorphisms of G sending every s in S to s or s^-1, sorted, as
    index arrays over the graph's vertices.  S must generate G.

    Colour classes are picked while they enlarge the subgroup the picked
    ones generate, at most log2|G| of them.  Each choice of s or s^-1 for
    each picked first member s fixes a map phi along the BFS tree
    (cayley.bfs) of their rows, with phi(1) = 1 and phi(s) the choice:
    s lies outside the subgroup of the classes picked before it, so the
    tree reaches s from 1 along s's own class.  phi is kept when phi(t)
    is t or t^-1 for the first member t of every other class, the v = 1
    test, and _automorphism_violation finds nothing on the graph of the
    picked classes: there phi(s) is read as s or s^-1, as chosen, and the
    row equation phi(s * v) = phi(s) * phi(v) holds for every picked s and
    every v.  That is exactly the full automorphism check on every class:
    - The elements x with phi(x * v) = phi(x) * phi(v) for every v are
      closed under products, as phi(x * y * v) = phi(x) * phi(y) *
      phi(v) and, at v = 1, phi(x * y) = phi(x) * phi(y).  They hold the
      picked first members, which generate G, so phi is a homomorphism,
      onto G as its image holds every picked s: an automorphism.
    - For an automorphism the equation of t, with phi(t) read as t or
      t^-1 (see _automorphism_violation), holds at every v exactly when
      it holds at v = 1, where it asks that phi(t) be t or t^-1.
    The check passes only such maps, and each automorphism in aut_pm1 is
    one of the maps built, fixed by its images of the picked members.
    """
    if not graph.is_connected():
        raise ValueError("aut_pm1 requires S to generate G")
    n = graph.n
    picked, others = [], []
    order, parent = [0], [None] * n
    for rows in graph.left_rows:
        if len(order) < n and parent[rows[0][0]] is None:
            picked.append(rows)
            order, parent = bfs(n, [[prow[0]] for prow in picked])
        else:
            others.append((rows[0][0], rows[-1][0]))
    # (u, v, i): u = s_i * v, s_i the i-th picked first member
    tree = [(u, *parent[u]) for u in order[1:]]
    picked_graph = ColouredCayleyGraph(graph.group, picked)
    out = []
    for images in itertools.product(*picked):
        phi = [0] * n
        for u, v, i in tree:
            phi[u] = images[i][phi[v]]
        if all(phi[t] == t or phi[t] == ti for t, ti in others) \
                and _automorphism_violation(picked_graph, phi) is None:
            out.append(tuple(phi))
    return sorted(out)


def right_regular_preserves_colours(graph: ColouredCayleyGraph) -> bool:
    """Check G_R <= Aut_c: every map v -> v*x preserves every colour class.

    rho_{xy} = rho_y o rho_x, and a composite of colour-preserving maps
    preserves colours, so the maps of the group's generators, which
    generate G_R, decide it exactly: only they are checked.
    """
    g = graph.group
    idx = graph.index
    return all(preserves_colours(graph, [idx[g.multiply(v, x)]
                                         for v in graph.elems])
               for x in g.generators())


@dataclass
class CCAVerdict:
    """Per-graph CCA verdict; stab1 and the orders are found on first read.

    is_cca_graph streams the strong generators of stab1 and stops at the
    first that is not a group automorphism (the witness); stab1_checked
    counts the generators examined.  The first read of stab1 or of an order
    finishes that same stream, so a caller that reads only is_cca and
    witness never pays for the rest of the search.  A non-CCA verdict
    sends the stream its witness as it resumes, so that the remaining
    levels are served from the witness's right-translation conjugates and
    searched only where none lands (see the module docstring); the
    generators are those of the pure search.
    """

    graph: ColouredCayleyGraph = field(repr=False)
    witness: tuple | None           # violating vertex map, if any
    stab1_checked: int
    # the generators examined, then the suspended rest of the stream
    _generators: Iterator = field(repr=False)

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
    keeps the rest of the stream for its orders and hands it the witness
    when it resumes.  The search raises ValueError on a disconnected
    graph.
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
                      _resume(found, stream, witness))


def _resume(found: list, stream, witness):
    """The generators examined, then the rest of the stream, which is
    sent the witness, if any, when it resumes."""
    yield from found
    if witness is not None:
        try:
            yield stream.send(witness)
        except StopIteration:
            return
    yield from stream


class _ClassOrbits:
    """Inn(G) acting on the colour classes of cayley.class_rows.

    Conjugation by g sends class c to the class of g^-1 * s_c * g, s_c
    its first member, vertex rows[c][0][0]; that vertex is
    mt[g^-1][row_{s_c}[g]], read off the table the rows come from.  The
    permutations of the group's generators are closed under composition
    by fgroup.closure.  perms holds every permutation but the identity,
    so it is empty when no generator moves a class, as in an abelian
    group.

    A class set is compared with its images as a sorted class tuple.
    lowest[x] is the least class in x's orbit, and to_lowest[x] the
    perms that send x there.  A set S with least class m is least in its
    orbit exactly when no class of S has an orbit below m and no perm in
    to_lowest[x], for x in S with lowest[x] = m, sends S below S: an
    image p(S) < S has least class at most m, so p sends some x in S to
    a class below m, where lowest[x] < m, or to m itself, where p is in
    to_lowest[x].  So a set is tested against |S n orbit(m)| cosets of
    the stabiliser of m, not against every perm.
    """

    def __init__(self, group: FiniteGroup, rows: list[list[list[int]]]):
        mt, inv = group.mult_table(), group.inverse_row()
        class_of = [0] * len(mt)
        for c, crows in enumerate(rows):
            for row in crows:
                class_of[row[0]] = c
        firsts = [crows[0] for crows in rows]
        ident = tuple(range(len(rows)))
        gens = dict.fromkeys(
            tuple(class_of[mt[inv[g]][row[g]]] for row in firsts)
            for g in map(group.element_index().__getitem__,
                         group.generators()))
        gens.pop(ident, None)
        self.perms = closure(ident, [partial(_compose, p) for p in gens],
                             DEFAULT_ENUM_LIMIT)[1:] if gens else []
        self.lowest = [min(images) for images in zip(ident, *self.perms)]
        self.to_lowest = [[p for p in self.perms if p[x] == m]
                          for x, m in enumerate(self.lowest)]

    def is_least(self, combo: tuple) -> bool:
        """Whether the sorted class tuple combo is least in its orbit,
        given that combo minus its last class is."""
        m, lowest = combo[0], self.lowest
        if lowest[combo[-1]] < m:
            return False
        for x in combo:
            if lowest[x] == m:
                for p in self.to_lowest[x]:
                    if tuple(sorted(map(p.__getitem__, combo))) < combo:
                        return False
        return True


@dataclass
class GroupCCAVerdict:
    """Group-level exhaustive verdict over all connection sets.

    sets_checked counts the class sets the sweep formed, the
    lex-irredundant ones that are least in their orbit under the acting
    group, and connected_checked the connected ones among them; the
    minimal ones were decided (see is_cca_group_exhaustive).
    orbit_group_order is the order of the acting group, the permutations
    of the colour classes by conjugation: 1 when none moved a class.
    """

    status: str                        # 'cca' | 'non-cca' | 'unknown'
    sets_checked: int
    connected_checked: int
    witness_set: tuple | None = None   # elements of the violating set
    witness_alpha: tuple | None = None
    orbit_group_order: int = 1

    def to_json_dict(self, group: FiniteGroup) -> dict:
        d = {
            "group_order": group.order(),
            "status": self.status,
            "sets_checked": self.sets_checked,
            "connected_checked": self.connected_checked,
            "orbit_group_order": self.orbit_group_order,
        }
        if self.witness_set is not None:
            d["witness_S"] = [group.elem_str(s) for s in self.witness_set]
        if self.witness_alpha is not None:
            d["witness_alpha"] = list(self.witness_alpha)
        return d


def is_cca_group_exhaustive(group: FiniteGroup, budget: int = DEFAULT_BUDGET,
                            graph_limit: int = DEFAULT_GRAPH_LIMIT
                            ) -> GroupCCAVerdict:
    """Decide G by exhaustion: CCA exactly when every connected Cayley
    graph of G is.

    A connection set is a union of colour classes {s, s^-1}, ordered by
    representative index.  A colour-preserving automorphism of
    Cay(G, S u T) keeps the S-coloured edges, so for connected S,
    stab1(S u T) lies in stab1(S): every superset of a connected CCA set
    is CCA.  So G is CCA exactly when every minimal generating class set
    is, and if S is not CCA neither is any connected subset of S: the
    first non-CCA set in (class count, lex) order is minimal.

    An automorphism sigma of G maps Cay(G, S) onto Cay(G, sigma S),
    colour by colour, and fixes the identity, so it keeps connectivity,
    minimality and CCA-ness: one set of each orbit is enough.  The
    acting group is Inn(G) on the classes (_ClassOrbits), read off the
    multiplication table with no search, and a class set is compared
    with its images as a sorted class tuple.

    The sweep forms only the lex-irredundant class sets, in which each
    class lies outside the subgroup its lex-smaller classes generate,
    that are least in their orbit (orderly generation: Read, "Every one
    a winner", Ann. Discrete Math. 2, 1978; McKay, "Isomorph-free
    exhaustive generation", J. Algorithms 26, 1998).  It keeps the
    non-generating ones of each size as a frontier, each with its span,
    the vertices the BFS over its class rows reaches, as an int bitmask,
    and grows every frontier set, in order, by each class above its last
    whose first member is outside the span, keeping the set only when it
    is least in its orbit.  A set that holds a minimal set decided
    before it, or an image of one (a class-mask test), is connected and
    not minimal, and runs no BFS.  Of the rest, a disconnected set joins
    the next size's frontier and a connected one is decided; the sweep
    returns at the first that is not CCA.  sets_checked counts the sets
    formed and connected_checked the connected ones; exceeding the
    budget of sets formed yields the three-valued 'unknown'.  When no
    conjugation moves a class the orbits are single sets: no set is
    tested and no image filed.  The classes and their rows are
    cayley.class_rows, read off the group's multiplication table, which
    also gives each class's inverse.  The sweep checks graph_limit once,
    before it builds any row, so a larger group raises LimitExceeded and
    the limit bounds the table's n^2 entries too.  The check reads the
    group's order where it is known without listing and otherwise lists
    the group under the limit (cayley.check_graph_limit), so a group
    given by generators alone is swept with no stabilizer chain.

    Proof that it decides exactly the minimal generating sets least in
    their orbit, in (class count, lex) order, and so returns the first
    non-CCA minimal set:
    - Least sets are prefix-closed.  Let S = P + {c}, c its last class,
      and p(P) < P, first differing at d, a class of p(P) that is not in
      P.  P holds a class above d, so c > d, and S agrees with p(P)
      below d.  If p(c) < d, then p(c), not in p(P), is not in S, and
      p(S) and S first differ at p(c); else they first differ at d.
      Either way the class is in p(S), and p(S) < S.
    - A minimal generating set is lex-irredundant, since a class inside
      the span of the classes before it could be dropped, and its proper
      prefixes do not generate.  So a minimal set least in its orbit is
      formed: each prefix is formed and, disconnected, kept on the
      frontier.
    - The frontier of each size is in lex order: its sets' parents were,
      and each parent grows by ascending classes.  So sets are formed in
      (class count, lex) order.
    - A generating set is not minimal exactly when it holds a smaller
      minimal set M.  M's orbit holds a least set, formed earlier and
      decided, as CCA since the sweep had not returned, and every image
      of a set decided CCA, M among them, is filed.  So a connected set
      is decided exactly when it is minimal.  A minimal set inside a
      formed set P + {c} holds c, since P does not generate, so it ends
      at c: only the masks filed under c are tested.  A set that holds
      one generates, so it is counted as connected without a BFS.
    - The first non-CCA minimal set W in (class count, lex) order is
      least in its orbit: its least image is minimal, non-CCA and no
      later than W.  So the sweep decides W after deciding only CCA
      sets, and its status, witness set and witness map are those of
      deciding every minimal set in order.
    The graph decided is the one whose BFS found it connected, so
    is_cca_graph reads that BFS and does not run it again.  The witness
    set's elements are listed class by class.
    """
    check_graph_limit(group, graph_limit)
    rows = class_rows(group)
    n = group.order()
    orbits = _ClassOrbits(group, rows)
    acting = len(orbits.perms) + 1
    sets = connected = 0
    # class masks of the minimal sets decided, and of their images, by
    # their last class
    decided: list[set[int]] = [set() for _ in rows]
    # (classes, class mask, span) of the non-generating sets
    frontier = [((), 0, 1)]
    while frontier:
        grown = []
        for classes, held, span in frontier:
            for c in range(classes[-1] + 1 if classes else 0, len(rows)):
                if span >> rows[c][0][0] & 1:
                    continue        # c lies in the span: not irredundant
                combo = classes + (c,)
                if orbits.perms and not orbits.is_least(combo):
                    continue
                if sets >= budget:
                    return GroupCCAVerdict("unknown", sets, connected,
                                           orbit_group_order=acting)
                sets += 1
                mask = held | 1 << c
                if decided[c] and any(m & mask == m for m in decided[c]):
                    connected += 1  # it holds a generating set
                    continue
                graph = ColouredCayleyGraph(group, [rows[d] for d in combo])
                order, _ = graph.bfs_order()
                if len(order) < n:
                    grown.append((combo, mask, sum(1 << v for v in order)))
                    continue
                connected += 1
                verdict = is_cca_graph(graph)
                if not verdict.is_cca:
                    return GroupCCAVerdict(
                        "non-cca", sets, connected,
                        tuple(s for cls in graph.colours for s in cls),
                        verdict.witness, acting)
                decided[c].add(mask)
                for p in orbits.perms:
                    image = sum(1 << p[d] for d in combo)
                    decided[image.bit_length() - 1].add(image)
        frontier = grown
    return GroupCCAVerdict("cca", sets, connected, orbit_group_order=acting)
