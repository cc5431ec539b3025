import itertools
import random
import re

import pytest

from ccakit import colourauts
from ccakit import groupzoo as gz
from ccakit import triples as tr
from ccakit.cayley import (ColouredCayleyGraph, ConnectionSet,
                           InvalidConnectionSet, bfs, build, class_rows)
from ccakit.colourauts import (is_cca_group_exhaustive,
                               right_regular_preserves_colours)
from ccakit.fgroup import LimitExceeded
from ccakit.higman import (HigmanGroup, quaternion_params, sample_params,
                           theorem3_triple)
from ccakit.permcore import Permutation


def class_subsets(G):
    """All nonempty inverse-closed identity-free subsets of G."""
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
    for size in range(1, len(classes) + 1):
        for combo in itertools.combinations(classes, size):
            yield [s for cls in combo for s in cls]


def generates(graph):
    """Group-theoretic connectivity test, <S> = G, that BFS must agree with."""
    G = graph.group
    S = [s for cls in graph.colours for s in cls]
    return G.generated_subgroup(S).order() == G.order()


def neighbours(graph, v, c):
    """The c-neighbours of vertex v, read off the colour's left rows."""
    return {row[v] for row in graph.left_rows[c]}


class TestConnectionSet:
    def test_rejects_identity(self):
        G = gz.cyclic_group(4)
        with pytest.raises(InvalidConnectionSet):
            ConnectionSet.from_elements(G, [G.identity()])

    def test_rejects_missing_inverse(self):
        G = gz.cyclic_group(4)
        g = G.generators()[0]
        with pytest.raises(InvalidConnectionSet):
            ConnectionSet.from_elements(G, [g])

    def test_closing_inverts_each_element_once(self, monkeypatch):
        # a set the call closes is not checked again; a set passed as
        # inverse-closed still is, and one missing an inverse raises
        G = gz.construct("S4")
        S = [G.elem_parse(x) for x in ("(1 2 3)", "(1 2)", "(1 2 3 4)")]
        calls = []
        invert = G.invert
        monkeypatch.setattr(G, "invert",
                            lambda x: calls.append(x) or invert(x))
        conn = ConnectionSet.from_elements(G, S, close_inverses=True)
        assert calls == S and len(conn.elements) == 5
        # the classes, and so build, reuse the inverses found here
        graph = build(G, conn)
        assert calls == S
        assert graph.colours == conn.colour_classes() == [
            (s,) if s == G.invert(s) else (s, G.invert(s))
            for s in conn.elements
            if G.element_index()[s] <= G.element_index()[G.invert(s)]]
        del calls[:]
        assert ConnectionSet.from_elements(G, conn.elements).colour_classes() \
            == graph.colours
        assert sorted(calls) == sorted(conn.elements)
        monkeypatch.undo()
        missing = [x for x in conn.elements if x != G.invert(S[0])]
        with pytest.raises(InvalidConnectionSet,
                           match=r"^not inverse-closed: \(1 2 3\) present"):
            ConnectionSet.from_elements(G, missing)
        assert ConnectionSet.from_elements(G, conn.elements) == conn

    def test_close_inverses(self):
        G = gz.cyclic_group(4)
        g = G.generators()[0]
        conn = ConnectionSet.from_elements(G, [g], close_inverses=True)
        assert len(conn.elements) == 2

    def test_colour_classes(self):
        G = gz.symmetric_group(3)
        elems = [x for x in G.elements() if x != G.identity()]
        conn = ConnectionSet.from_elements(G, elems)
        classes = conn.colour_classes()
        sizes = sorted(len(c) for c in classes)
        assert sizes == [1, 1, 1, 2]   # three transpositions + one 3-cycle pair

    @pytest.mark.parametrize("expr, text", [
        ("A4", "(1 2)"), ("perm:4:(1 2)", "(3 4)"), ("Q8 x C2", "(1 2)"),
        # values of the wrong type or range: a plain tuple equal to a
        # member's images, a string, lists, a triple, a pair past Q8's bits
        ("S3", (1, 0, 2)), ("S3", "x"), ("S3", [1, 0, 2]),
        ("Q8", (1, 0, 0)), ("Q8", [1, 0]), ("Q8", (9, 0)),
        # the same values, and Q8's g2, outside Q8's subgroup <g1> and
        # outside <g1>'s subgroup <g1, h1>, which its two generators prove
        # whole, so asks <g1> of each value
        *[(sub, value) for sub in ("Q8 > g1", "Q8 > g1 > g1,h1")
          for value in [(9, 0), [1, 0], "x", (1, 0, 0), "g2"]],
        # the same values and a Permutation, which equals and hashes as g1,
        # outside the proper subgroup <g1> of Q8's whole subgroup <g1, g2>:
        # each is refused by its parent before it is looked up
        *[("Q8 > g1,g2 > g1", value)
          for value in [(9, 0), [1, 0], "x", (1, 0, 0), "g2",
                        Permutation([1, 0])]],
        # (1 2) lies in the listing of <(1 2), (1 2 3 4 5)>, which its
        # generators, outside its parent <(1 2 3)>, make all of S5, and is
        # refused by that parent before it is looked up
        ("A5 > (1 2 3) > (1 2),(1 2 3 4 5)", "(1 2)")])
    @pytest.mark.parametrize("close_inverses", [False, True])
    def test_rejects_elements_outside_the_group(self, expr, text,
                                                close_inverses):
        # "G > a > b,c" is G's subgroup generated by the word a, then that
        # one's subgroup generated by b and c.  Cycle notation and words
        # in g and h are parsed and named as written; any other value is
        # passed as it is and named by repr
        name, *subgroups = expr.split(" > ")
        G = gz.construct(name)
        for words in subgroups:
            G = G.generated_subgroup(map(G.elem_parse, words.split(",")))
        if isinstance(text, str) and text[:1] in ("(", "g", "h"):
            x, shown = G.elem_parse(text), text
        else:
            x, shown = text, repr(text)
        with pytest.raises(InvalidConnectionSet,
                           match=rf"^{re.escape(shown)} is not in the group$"):
            ConnectionSet.from_elements(G, [x], close_inverses)

    @pytest.mark.parametrize("expr", [expr for expr, _ in gz.zoo_corpus(16)])
    def test_checked_and_closed_sets_agree(self, expr):
        # every non-identity element, checked as inverse-closed, and one
        # member of each class, closed by the call, give the same set
        G = gz.construct(expr)
        e = G.identity()
        members = [x for x in G.elements() if x != e]
        checked = ConnectionSet.from_elements(G, members)
        closed = ConnectionSet.from_elements(
            G, [c[-1] for c in checked.colour_classes()],
            close_inverses=True)
        assert closed.elements == checked.elements
        assert closed.inverses == checked.inverses
        assert closed.colour_classes() == checked.colour_classes()

    def test_outside_higman_element_refused_before_arithmetic(self,
                                                              monkeypatch):
        # (4, 0) needs e-bit 3, but r = 2: inverting it would raise a
        # plain ValueError from the bit arithmetic
        G = HigmanGroup(quaternion_params())
        monkeypatch.setattr(G, "invert", None)        # any call would fail
        with pytest.raises(InvalidConnectionSet, match="not in the group"):
            ConnectionSet.from_elements(G, [(4, 0)], close_inverses=True)

    def test_deduplicates(self):
        G = gz.cyclic_group(4)
        g = G.generators()[0]
        conn = ConnectionSet.from_elements(G, [g, g, G.invert(g)])
        assert len(conn.elements) == 2


class TestBuild:
    def test_c4_cycle(self):
        G = gz.cyclic_group(4)
        g = G.generators()[0]
        conn = ConnectionSet.from_elements(G, [g], close_inverses=True)
        graph = build(G, conn)
        assert graph.n == 4
        assert len(graph.colours) == 1
        # 4-cycle: every vertex has exactly two neighbours of the colour
        assert all(len(neighbours(graph, v, 0)) == 2 for v in range(4))
        assert graph.is_connected()

    def test_s3_transpositions_three_matchings(self):
        G = gz.symmetric_group(3)
        ts = G.involutions()
        conn = ConnectionSet.from_elements(G, ts)
        graph = build(G, conn)
        assert graph.n == 6
        assert len(graph.colours) == 3
        for rows in graph.left_rows:
            # each involution colour is a fixed-point-free perfect matching
            assert len(rows) == 1
            row = rows[0]
            assert all(row[row[v]] == v != row[v] for v in range(6))
        assert graph.is_connected()

    def test_q8_two_pair_classes(self):
        G = HigmanGroup(quaternion_params())
        i, j = G.g(1), G.g(2)
        conn = ConnectionSet.from_elements(G, [i, j], close_inverses=True)
        graph = build(G, conn)
        assert graph.n == 8
        assert sorted(len(c) for c in graph.colours) == [2, 2]
        assert graph.is_connected()

    def test_identity_is_vertex_zero(self):
        G = gz.symmetric_group(3)
        ts = G.involutions()
        graph = build(G, ConnectionSet.from_elements(G, ts))
        assert graph.elems[0] == G.identity()

    def test_graph_limit(self):
        G = gz.symmetric_group(5)
        ts = G.involutions()[:2]
        conn = ConnectionSet.from_elements(G, ts)
        with pytest.raises(LimitExceeded):
            build(G, conn, graph_limit=100)

    def test_connection_set_of_another_group_refused(self):
        # an equal group built apart is another group
        G, other = gz.symmetric_group(3), gz.symmetric_group(3)
        conn = ConnectionSet.from_elements(other, other.involutions())
        with pytest.raises(ValueError, match="^connection set belongs to "
                                             "a different group$"):
            build(G, conn)

    def test_edge_count_matches_valency(self):
        G = gz.dihedral_group(4)
        for S in class_subsets(G):
            graph = build(G, ConnectionSet.from_elements(G, S))
            colours = range(len(graph.colours))
            for v in range(graph.n):
                # |S|-regular, and u is a c-neighbour of v iff v is one of u
                assert sum(len(neighbours(graph, v, c))
                           for c in colours) == len(S)
                assert all(v in neighbours(graph, u, c)
                           for c in colours
                           for u in neighbours(graph, v, c))


class TestSmallDegrees:
    """Degrees 1 and 2, where a row maps tuples of one or two images."""

    @pytest.mark.parametrize("expr", ["C1", "S1"])
    def test_trivial_group(self, expr):
        G = gz.construct(expr)
        assert G.mult_table() == [[0]]
        assert is_cca_group_exhaustive(G).status == "cca"

    @pytest.mark.parametrize("expr", ["C2", "S2"])
    def test_order_two_rows_equal_generic_rows(self, expr):
        G = gz.construct(expr)
        graph = build(G, ConnectionSet.from_elements(G, G.elements()[1:]))
        idx = G.element_index()
        assert graph.left_rows == [
            [[idx[G.multiply(s, v)] for v in G.elements()] for s in cls]
            for cls in graph.colours]
        assert graph.left_rows == [[[1, 0]]]


class TestClassRows:
    @pytest.mark.parametrize("expr", [expr for expr, _ in gz.zoo_corpus(48)]
                             + ["PSL2(7)", "higman:n=6,seed=1"])
    def test_matches_the_rows_of_the_full_connection_set(self, expr):
        # the classes and rows build() gives the set of every non-identity
        # element, each row the very list of the multiplication table
        G = gz.construct(expr)
        rows = class_rows(G)
        assert rows == [[G.left_row(s) for s in cls]
                        for cls in ConnectionSet.from_elements(
                            G, G.elements()[1:]).colour_classes()]
        mt = G.mult_table()
        assert all(row is mt[row[0]] for cls in rows for row in cls)

    def test_trivial_group_has_no_classes(self):
        assert class_rows(gz.construct("C1")) == []


def triple_connection_set(expr, t_text, subgroup):
    """S_H(t^2) u {t}, inverse-closed: the connection set of the triple
    (S_H(tau), {t}, t^2) that `triple validate` cross-checks."""
    G = gz.construct(expr)
    t = G.elem_parse(t_text)
    S = tr.s_tau(subgroup(G), G.multiply(t, t)).elements + [t]
    return G, ConnectionSet.from_elements(G, S, close_inverses=True)


def searched_connection_set(G, H):
    """S u T of the triple `triple search` finds for H."""
    trip = tr.search_triple_subgroup_strategy(G, H)
    return G, ConnectionSet.from_elements(
        G, list(trip.S) + list(trip.T), close_inverses=True)


def theorem3_connection_set(expr):
    """S u T of a Higman instance's Theorem-3 triple."""
    G, trip = theorem3_triple(gz.construct(expr).params)
    return G, ConnectionSet.from_elements(
        G, list(trip.S) + list(trip.T), close_inverses=True)


def psl2_17_search():
    G = gz.psl2(17)
    cyc8 = gz.cyclic_subgroups_of_order(G, 8)[0]
    return searched_connection_set(G, gz.normalizer_bruteforce(G, cyc8))


# the benchmark's four triple graphs, unconjugated, and the cross-checked
# graphs of `triple validate` on A7, `triple search` on PSL(2, 17) and the
# Higman n = 8 Theorem-3 triple
DERIVED_ROW_GRAPHS = {
    "S5-pointwise": lambda: triple_connection_set(
        "S5", "(1 4 2 5)", lambda G: gz.pointwise_stabilizer(G, [3, 4])),
    "S5-setwise": lambda: triple_connection_set(
        "S5", "(1 4 2 5)", lambda G: gz.setwise_stabilizer(G, [3, 4])),
    "A6": lambda: triple_connection_set(
        "A6", "(1 2)(3 4 5 6)", lambda G: G.point_stabilizer(0)),
    "S6": lambda: triple_connection_set(
        "S6", "(1 2)(3 4 5 6)", lambda G: G.point_stabilizer(0)),
    "A7-validate": lambda: triple_connection_set(
        "A7", "(1 2)(3 4 5 6)", lambda G: G.point_stabilizer(0)),
    "PSL2(17)-search": psl2_17_search,
    "higman:n=8": lambda: theorem3_connection_set("higman:n=8,seed=1"),
}


def random_connection_sets(seed=7, per_group=3):
    """Seeded inverse-closed sets over the zoo corpus, of every density."""
    rng = random.Random(seed)
    for _, G in gz.zoo_corpus(48):
        rest = G.elements()[1:]
        for _ in range(per_group if rest else 0):
            picked = rng.sample(rest, rng.randint(1, len(rest)))
            yield G, ConnectionSet.from_elements(G, picked,
                                                 close_inverses=True)


def row_kinds(conn, computed):
    """How build() got each class's rows, given the elements whose rows
    left_row computed: 'direct' or 'composite' for the first member, then
    'partner' for s^-1 or 'involution' for a 1-member class."""
    kinds = set()
    for cls in conn.colour_classes():
        kinds.add("direct" if cls[0] in computed else "composite")
        kinds.add("partner" if len(cls) == 2 else "involution")
    return kinds


class TestDerivedRows:
    """build() derives rows from the rows it holds and mult_table() from
    the generators' rows; each must equal the row left_row computes."""

    def check(self, G, conn, left_row_calls):
        del left_row_calls[:]
        graph = build(G, conn)
        computed = list(left_row_calls)
        classes = conn.colour_classes()
        # left_row runs only for first members, never for a partner
        assert set(computed) <= {cls[0] for cls in classes}
        assert len(computed) == len(set(computed))
        assert graph.left_rows == [[G.left_row(s) for s in cls]
                                   for cls in classes]
        return row_kinds(conn, set(computed))

    def test_named_graphs_and_random_sets(self, left_row_calls):
        kinds = set()
        for make in DERIVED_ROW_GRAPHS.values():
            kinds |= self.check(*make(), left_row_calls)
        for G, conn in random_connection_sets():
            kinds |= self.check(G, conn, left_row_calls)
        assert kinds == {"direct", "composite", "partner", "involution"}

    def test_a7_validate_graph_derives_most_rows(self, left_row_calls):
        G, conn = DERIVED_ROW_GRAPHS["A7-validate"]()
        classes = conn.colour_classes()
        del left_row_calls[:]
        build(G, conn)
        assert len(classes) == 27
        # one call per class whose first member is no product of two held
        # members: 15 of 27, where a fall-back for every row makes 49
        assert len(left_row_calls) == 15
        assert set(left_row_calls) <= {cls[0] for cls in classes}

    @pytest.mark.parametrize("expr", [expr for expr, _ in gz.zoo_corpus(48)]
                             + ["C1", "A5", "PSL2(7)", "higman:n=6,seed=1"])
    def test_mult_table_is_the_rows(self, expr, left_row_calls):
        G = gz.construct(expr)
        G.elements()
        del left_row_calls[:]
        mt = G.mult_table()
        # left_row computes the generators' rows only, in index order
        assert left_row_calls == sorted(G.generators(),
                                        key=G.element_index().__getitem__)
        assert mt == [G.left_row(a) for a in G.elements()]


def member_orders(n, seed=11):
    """Index order, reversed, a seeded shuffle and a seeded list of 2n
    picks with repeats, over the indices of a group of order n."""
    rng = random.Random(seed)
    shuffled = list(range(n))
    rng.shuffle(shuffled)
    return {"index": list(range(n)), "reversed": list(range(n))[::-1],
            "shuffled": shuffled,
            "repeats": rng.choices(range(n), k=2 * n)}


class TestRows:
    """G.rows(members) is left_row's row of each member, and left_row runs
    only for a member no held row covers."""

    @pytest.mark.parametrize("expr", [expr for expr, _ in gz.zoo_corpus(48)]
                             + ["C1", "A5", "PSL2(7)", "higman:n=6,seed=1"])
    def test_rows_are_the_left_rows(self, expr, left_row_calls):
        G = gz.construct(expr)
        elems, inverse = G.elements(), G.inverse_row()
        for name, order in member_orders(len(elems)).items():
            del left_row_calls[:]
            rows = G.rows(order)
            calls = list(left_row_calls)
            assert rows == [G.left_row(elems[i]) for i in order], name
            # the members not held when they come, as themselves or as
            # the partner of an earlier member, in order
            held, fresh = {0}, []
            for i in order:
                if i not in held:
                    held |= {i, inverse[i]}
                    fresh.append(i)
            # left_row ran for some of them, once each, in their order
            computed = [G.element_index()[s] for s in calls]
            assert computed == [i for i in fresh if i in computed], name


def reference_bfs(n, left_rows):
    """The BFS as a loop over colours, then rows, with a seen list beside
    the parents: the reference for cayley.bfs."""
    parent = [None] * n
    seen = [False] * n
    order = [0]
    seen[0] = True
    for v in order:
        for c, rows in enumerate(left_rows):
            for row in rows:
                u = row[v]
                if not seen[u]:
                    seen[u] = True
                    parent[u] = (v, c)
                    order.append(u)
    return order, parent


class TestEarlyExitBFS:
    """bfs stops once every vertex is reached; its order and parents must
    be those of the full scan, reference_bfs."""

    def test_class_graphs_of_the_zoo(self):
        rng = random.Random(3)
        kinds = set()
        for expr, G in gz.zoo_corpus(16):
            rows = class_rows(G)
            sets = ([[r] for r in rows]
                    + [list(pair) for pair in itertools.combinations(rows, 2)]
                    + [rng.sample(rows, rng.randint(1, len(rows)))
                       for _ in range(10)])
            for left_rows in sets:
                got = bfs(G.order(), left_rows)
                assert got == reference_bfs(G.order(), left_rows), expr
                kinds.add(len(got[0]) == G.order())
        assert kinds == {True, False}       # connected and disconnected

    def test_aut_pm1_picked_class_trees(self, monkeypatch):
        trees = []

        def checked(n, left_rows):
            got = bfs(n, left_rows)
            assert got == reference_bfs(n, left_rows)
            trees.append(len(left_rows))
            return got
        monkeypatch.setattr(colourauts, "bfs", checked)
        rng = random.Random(5)
        for _, G in gz.zoo_corpus(16):
            rows = class_rows(G)
            for _ in range(3):
                graph = ColouredCayleyGraph(
                    G, rng.sample(rows, rng.randint(1, len(rows))))
                if graph.is_connected():
                    colourauts.aut_pm1(graph)
        assert len(trees) > 50 and max(trees) > 1


class TestConnectivity:
    def test_proper_subgroup_disconnects(self):
        G = gz.symmetric_group(3)
        t = G.elem_parse("(1 2)")
        graph = build(G, ConnectionSet.from_elements(G, [t]))
        assert not graph.is_connected()
        assert not generates(graph)

    def test_full_set_connects(self):
        G = gz.symmetric_group(3)
        elems = [x for x in G.elements() if x != G.identity()]
        graph = build(G, ConnectionSet.from_elements(G, elems))
        assert graph.is_connected()

    def test_bfs_equals_group_theoretic(self):
        for expr in ["C6", "C8", "S3", "D4", "C2 x C4", "A4"]:
            G = gz.construct(expr)
            for S in class_subsets(G):
                graph = build(G, ConnectionSet.from_elements(G, S))
                assert graph.is_connected() == generates(graph)
                assert graph.bfs_order() == bfs(graph.n, graph.left_rows)

    def test_bfs_equals_the_reference_loop(self):
        graphs = [build(G, ConnectionSet.from_elements(G, S))
                  for G in map(gz.construct, ["C8", "S3", "D4", "Q8", "A4",
                                               "C2 x S3"])
                  for S in class_subsets(G)]
        G, trip = theorem3_triple(sample_params(10, 2))
        graphs.append(build(G, ConnectionSet.from_elements(
            G, list(trip.S) + list(trip.T), close_inverses=True)))
        for graph in graphs:
            assert bfs(graph.n, graph.left_rows) == \
                reference_bfs(graph.n, graph.left_rows)

    def test_bfs_of_a_disconnected_set(self):
        # <(1 2 3)> has index 2 in S3: the other coset is never reached
        G = gz.symmetric_group(3)
        graph = build(G, ConnectionSet.from_elements(
            G, [G.elem_parse("(1 2 3)")], close_inverses=True))
        order, parent = bfs(graph.n, graph.left_rows)
        reached = {graph.index[x] for x in G.elements() if x.order() != 2}
        assert sorted(order) == sorted(reached)
        assert order[0] == 0
        assert parent[0] is None
        assert all((parent[v] is None) == (v not in reached)
                   for v in range(1, graph.n))

    def test_higman_triple_set_connects(self):
        G, trip = theorem3_triple(sample_params(6, 3))
        conn = ConnectionSet.from_elements(
            G, list(trip.S) + list(trip.T), close_inverses=True)
        assert build(G, conn).is_connected()


class TestRightRegularAction:
    def test_colour_preserving(self):
        # v -> v*g is a colour-preserving automorphism for every g
        for expr in ["C8", "S3", "D4", "A4", "higman:n=4,seed=1"]:
            G = gz.construct(expr)
            elems = [x for x in G.elements() if x != G.identity()]
            graph = build(G, ConnectionSet.from_elements(G, elems))
            assert right_regular_preserves_colours(graph)

    @pytest.mark.parametrize("expr", ["S3", "D4", "A4", "C8", "S4",
                                      "higman:n=4,seed=1"])
    def test_a_row_with_two_entries_swapped_is_refused(self, expr):
        # the swapped row is no left translation, so some right
        # translation by a generator moves one of its edges off the rows
        G = gz.construct(expr)
        for i in range(3):      # the first, a middle and the last class
            graph = build(G, ConnectionSet.from_elements(G, G.elements()[1:]))
            rows = graph.left_rows
            row = rows[(0, len(rows) // 2, -1)[i]][-1]
            row[1], row[-1] = row[-1], row[1]
            assert not right_regular_preserves_colours(graph), (expr, i)

    @pytest.mark.parametrize("expr", ["S3", "D4", "A4", "S4"])
    def test_every_generator_is_checked(self, expr):
        # on the edges {v, v*g}, v -> v*x keeps them exactly when x
        # commutes with g; each of these groups has two generators that
        # do not commute, so only the other one's translation refuses
        # g's edges
        G = gz.construct(expr)
        idx = G.element_index()
        for g in G.generators():
            graph = ColouredCayleyGraph(
                G, [[[idx[G.multiply(v, g)] for v in G.elements()]]])
            assert not right_regular_preserves_colours(graph), (expr, g)
