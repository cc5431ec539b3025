import itertools
import re

import pytest

from ccakit import groupzoo as gz
from ccakit.cayley import ConnectionSet, InvalidConnectionSet, bfs, build
from ccakit.colourauts import (is_cca_group_exhaustive,
                               right_regular_preserves_colours)
from ccakit.fgroup import LimitExceeded
from ccakit.higman import HigmanGroup, quaternion_params


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
        ("A4", "(1 2)"), ("perm:4:(1 2)", "(3 4)"), ("Q8 x C2", "(1 2)")])
    @pytest.mark.parametrize("close_inverses", [False, True])
    def test_rejects_elements_outside_the_group(self, expr, text,
                                                close_inverses):
        G = gz.construct(expr)
        x = G.elem_parse(text)
        with pytest.raises(InvalidConnectionSet,
                           match=rf"^{re.escape(text)} is not in the group$"):
            ConnectionSet.from_elements(G, [x], close_inverses)

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
        from ccakit.higman import sample_params, theorem3_triple
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
