import functools
import itertools
import random
import signal
import sys
import tracemalloc

import pytest

from ccakit import colourauts
from ccakit import groupzoo as gz
from ccakit import triples as tr
from ccakit.cayley import ConnectionSet, build
from ccakit.colourauts import (
    CCAVerdict,
    ConnectedClassGraphs,
    GroupCCAVerdict,
    _automorphism_violation,
    aut_pm1,
    enumerate_stab1,
    is_cca_graph,
    is_cca_group_exhaustive,
    preserves_colours,
    right_regular_preserves_colours,
    stab1,
    stab1_oracle,
)
from ccakit.fgroup import LimitExceeded
from ccakit.higman import HigmanGroup, quaternion_params, sample_params, \
    theorem3_triple


def connected_class_graphs(G):
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
            S = [s for cls in combo for s in cls]
            graph = build(G, ConnectionSet.from_elements(G, S))
            if graph.is_connected():
                yield graph


def automorphism_violation_by_multiply(graph, alpha):
    """Reference check by group arithmetic: the first (s, v) with
    alpha(s*v) != alpha(s)*alpha(v), multiplying elements for every v."""
    g = graph.group
    elems = graph.elems
    idx = graph.index
    for c, cls in enumerate(graph.colours):
        for m, s in enumerate(cls):
            row = graph.left_rows[c][m]
            a_s = elems[alpha[idx[s]]]
            for v in range(graph.n):
                if alpha[row[v]] != idx[g.multiply(a_s, elems[alpha[v]])]:
                    return (s, elems[v])
    return None


def aut_pm1_by_sign_choices(graph):
    """Reference aut_pm1 by a search of its own: branch over a sign per
    pair class (keep s, or swap s and s^-1) and extend each choice to a
    homomorphism along the BFS order of the connected graph."""
    n = graph.n
    order, _ = graph.bfs_order()
    # per class, per sign: the left-mult row of each member's image
    sign_options = []
    for rows in graph.left_rows:
        if len(rows) == 1:
            sign_options.append(((rows[0],),))
        else:
            sign_options.append(((rows[0], rows[1]), (rows[1], rows[0])))
    out = []
    for choice in itertools.product(*sign_options):
        phi = [-1] * n
        taken = [False] * n
        phi[0] = 0
        taken[0] = True

        def extends():
            for v in order:
                pv = phi[v]
                for srows, img_rows in zip(graph.left_rows, choice):
                    for row, img_row in zip(srows, img_rows):
                        w, expected = row[v], img_row[pv]
                        if phi[w] == -1:
                            if taken[expected]:
                                return False
                            phi[w] = expected
                            taken[expected] = True
                        elif phi[w] != expected:
                            return False
            return True

        if extends():
            out.append(tuple(phi))
    return sorted(out)


def triple_graph(expr, t_text, subgroup, conjugator_seed=None):
    """Cay(G, S u T) of the triple (S_H(tau), {t}, t^2); given a seed, S
    and t are conjugated by a uniform element of G drawn from it, as the
    benchmark draws its triple graphs."""
    G = gz.construct(expr)
    t = G.elem_parse(t_text)
    S = tr.s_tau(subgroup(G), G.multiply(t, t)).elements + [t]
    if conjugator_seed is not None:
        g = random.Random(conjugator_seed).choice(G.elements())
        S = [G.conjugate(s, g) for s in S]
    return build(G, ConnectionSet.from_elements(G, S, close_inverses=True))


# Non-CCA triple graphs: (group, t, H).  Criterion 2 cross-checks the
# S5-pointwise and A6 ones.
TRIPLE_GRAPHS = {
    "S5-pointwise": ("S5", "(1 4 2 5)",
                     lambda G: gz.pointwise_stabilizer(G, [3, 4])),
    "S5-setwise": ("S5", "(1 4 2 5)",
                   lambda G: gz.setwise_stabilizer(G, [3, 4])),
    "A6": ("A6", "(1 2)(3 4 5 6)", lambda G: G.point_stabilizer(0)),
    "S6": ("S6", "(1 2)(3 4 5 6)", lambda G: G.point_stabilizer(0)),
}


@functools.lru_cache(maxsize=None)
def enumerated_triple_graph(name):
    """A triple graph and its enumerated stab1, built once per session."""
    graph = triple_graph(*TRIPLE_GRAPHS[name])
    return graph, enumerate_stab1(graph)


def unpruned_strong_generators(graph):
    """The strong generators found without orbit pruning: the same
    unwinding, each level's first completion taken from completions given
    no generators."""
    completions = colourauts._MapSearch.completions
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(colourauts._MapSearch, "completions",
                   lambda search, k, gens=(): completions(search, k))
        return list(colourauts._strong_generators(graph))


def check_against_enumeration(graph, listed, label):
    """stab1 from strong generators, the verdict and aut_pm1 against the
    enumerated stab1 and the reference automorphism check on each of its
    elements; the generators against the unpruned search's, and the
    search pruned by them against the enumeration.  Returns the
    verdict."""
    passing = []
    for alpha in listed:
        violation = _automorphism_violation(graph, alpha)
        assert violation == automorphism_violation_by_multiply(
            graph, alpha), label
        if violation is None:
            passing.append(alpha)
    v = is_cca_graph(graph)
    assert v.is_cca == (passing == listed), label
    if v.witness is not None:
        assert v.witness in listed, label
        assert _automorphism_violation(graph, v.witness) is not None
    assert v.stab1.order == v.stab1_order == len(listed), label
    assert v.stab1.elements == listed, label
    assert v.aut_pm1_order == len(passing), label
    assert aut_pm1(graph) == aut_pm1_by_sign_choices(graph) == passing, label
    gens = v.stab1.generators
    assert gens == unpruned_strong_generators(graph), label
    # every stab1 element fixes what the map fixing vertex 0 assigns, so
    # stab1's generators may prune the whole search: it cuts only subtrees
    # without a completion
    pruned = colourauts._MapSearch(graph).completions(1, gens)
    assert sorted(pruned) == listed, label
    return v


def unpruned_group_verdict(decided, total, budget):
    """The exhaustive verdict from deciding every connected class graph:
    decided holds (sets_checked, connected_checked, graph, witness) per
    graph of an unmarked ConnectedClassGraphs sweep of total sets."""
    within = [d for d in decided if budget is None or d[0] <= budget]
    for sets, connected, graph, witness in within:
        if witness is not None:
            return GroupCCAVerdict(
                "non-cca", sets, connected,
                tuple(s for cls in graph.colours for s in cls), witness)
    if budget is not None and budget < total:
        return GroupCCAVerdict("unknown", budget, len(within))
    return GroupCCAVerdict("cca", total, len(within))


def automorphisms_bruteforce(G):
    """All automorphisms of a small group, as element-index arrays."""
    elems = G.elements()
    n = len(elems)
    idx = G.element_index()
    mt = G.mult_table()
    out = []
    for rest in itertools.permutations(range(1, n)):
        alpha = (0,) + rest
        if all(alpha[mt[a][b]] == mt[alpha[a]][alpha[b]]
               for a in range(n) for b in range(n)):
            out.append(alpha)
    return out


class TestStab1:
    def test_cycle_graph_inversion(self):
        for n in [4, 5, 7, 8]:
            G = gz.cyclic_group(n)
            g = G.generators()[0]
            conn = ConnectionSet.from_elements(G, [g], close_inverses=True)
            st = stab1(build(G, conn))
            assert st.order == 2   # identity and the inversion map

    def test_contains_identity_map(self):
        G = gz.symmetric_group(3)
        ts = G.involutions()
        graph = build(G, ConnectionSet.from_elements(G, ts))
        st = stab1(graph)
        assert tuple(range(6)) in st.elements

    def test_requires_connected(self):
        G = gz.symmetric_group(3)
        t = G.elem_parse("(1 2)")
        graph = build(G, ConnectionSet.from_elements(G, [t]))
        with pytest.raises(ValueError):
            stab1(graph)

    def test_oracle_equivalence_exhaustive(self):
        for expr in ["C4", "C5", "C6", "C7", "C8", "S3", "D4",
                     "C2 x C2", "C2 x C4", "C2 x C2 x C2",
                     "higman:n=3,seed=1"]:
            G = gz.construct(expr)
            for graph in connected_class_graphs(G):
                slow = stab1_oracle(graph)
                assert stab1(graph).elements == slow, expr
                assert enumerate_stab1(graph) == slow, expr

    def test_oracle_size_guard(self):
        G = gz.symmetric_group(4)
        elems = [x for x in G.elements() if x != G.identity()]
        graph = build(G, ConnectionSet.from_elements(G, elems))
        with pytest.raises(LimitExceeded):
            stab1_oracle(graph)

    def test_power_of_two_seeded(self):
        rng = random.Random(99)
        corpus = gz.zoo_corpus(32)
        done = 0
        while done < 25:
            expr, G = corpus[rng.randrange(len(corpus))]
            elems = [x for x in G.elements() if x != G.identity()]
            k = rng.randint(1, min(4, len(elems)))
            S = rng.sample(elems, k)
            conn = ConnectionSet.from_elements(G, S, close_inverses=True)
            graph = build(G, conn)
            if not graph.is_connected():
                continue
            listed = len(enumerate_stab1(graph))
            assert listed & (listed - 1) == 0, expr
            assert stab1(graph).order == listed, expr
            done += 1


class TestAutPm1:
    def test_cyclic_inversion(self):
        for n in [3, 5, 8]:
            G = gz.cyclic_group(n)
            g = G.generators()[0]
            conn = ConnectionSet.from_elements(G, [g], close_inverses=True)
            assert len(aut_pm1(build(G, conn))) == 2

    def test_s3_transpositions(self):
        G = gz.symmetric_group(3)
        ts = G.involutions()
        conn = ConnectionSet.from_elements(G, ts)
        assert len(aut_pm1(build(G, conn))) == 1

    def test_q8_order_four(self):
        G = HigmanGroup(quaternion_params())
        conn = ConnectionSet.from_elements(G, [G.g(1), G.g(2)],
                                           close_inverses=True)
        assert len(aut_pm1(build(G, conn))) == 4

    def test_against_bruteforce_automorphisms(self):
        for expr in ["C4", "C5", "C6", "S3", "C2 x C2",
                     "higman:n=3,seed=1"]:
            G = gz.construct(expr)
            autos = automorphisms_bruteforce(G)
            idx = G.element_index()
            elems = G.elements()
            for graph in connected_class_graphs(G):
                sidx = [idx[s] for cls in graph.colours for s in cls]
                expected = sorted(
                    a for a in autos
                    if all(a[i] in (i, idx[G.invert(elems[i])])
                           for i in sidx))
                assert aut_pm1(graph) == expected, expr

    def test_requires_generating_set(self):
        G = gz.symmetric_group(3)
        t = G.elem_parse("(1 2)")
        conn = ConnectionSet.from_elements(G, [t])
        with pytest.raises(ValueError):
            aut_pm1(build(G, conn))

    def test_restriction_lies_in_stab1(self):
        for expr in ["C6", "S3", "D4", "higman:n=3,seed=1"]:
            G = gz.construct(expr)
            for graph in connected_class_graphs(G):
                st = set(stab1(graph).elements)
                for a in aut_pm1_by_sign_choices(graph):
                    assert a in st

    def test_matches_sign_choice_search_zoo(self):
        for expr, G in gz.zoo_corpus(12):
            for graph in ConnectedClassGraphs(G):
                want = aut_pm1_by_sign_choices(graph)
                assert aut_pm1(graph) == want, expr
                assert is_cca_graph(graph).aut_pm1_order == len(want), expr

    def test_matches_sign_choice_search_14_pair_classes(self):
        G = gz.construct("C8 x C8")
        classes = ConnectionSet.from_elements(
            G, G.elements()[1:]).colour_classes()
        pairs = [cls for cls in classes if len(cls) == 2][:14]
        graph = build(G, ConnectionSet.from_elements(
            G, [s for cls in pairs for s in cls]))
        assert graph.is_connected() and len(graph.colours) == 14
        want = aut_pm1_by_sign_choices(graph)
        assert aut_pm1(graph) == want
        assert is_cca_graph(graph).aut_pm1_order == len(want)


class TestAutomorphismCheck:
    """The left-row check against the reference by group arithmetic, and
    the CCA verdict and aut_pm1 it decides, against the enumerated stab1
    of every zoo class graph and of non-CCA triple graphs."""

    def test_zoo_class_graphs_up_to_order_16(self):
        for expr, G in gz.zoo_corpus(16):
            graphs = ConnectedClassGraphs(G)     # never marked: every graph
            decided = []
            for graph in graphs:
                v = check_against_enumeration(graph, enumerate_stab1(graph),
                                              expr)
                decided.append((graphs.sets_checked,
                                graphs.connected_checked, graph, v.witness))
            # the pruned sweep against the unpruned one, at every budget
            for budget in (None, 1, 3, 10, 50, 300):
                got = (is_cca_group_exhaustive(G) if budget is None
                       else is_cca_group_exhaustive(G, budget))
                assert got == unpruned_group_verdict(
                    decided, graphs.sets_checked, budget), (expr, budget)
        for name in ("S5-pointwise", "A6", "S6"):
            check_against_enumeration(*enumerated_triple_graph(name), name)

    @pytest.mark.parametrize("name,stab1_order,aut_pm1_order", [
        ("S5-setwise", 2048, 4), ("A6", 64, 2), ("S6", 64, 2),
    ], ids=["S5-setwise", "A6", "S6"])
    def test_triple_graphs(self, name, stab1_order, aut_pm1_order):
        graph, listed = enumerated_triple_graph(name)
        v = is_cca_graph(graph)
        assert v.is_cca is False
        assert v.stab1_order == stab1_order == len(listed)
        assert v.aut_pm1_order == aut_pm1_order
        for alpha in listed:
            assert (_automorphism_violation(graph, alpha)
                    == automorphism_violation_by_multiply(graph, alpha))
        want = aut_pm1_by_sign_choices(graph)
        assert len(want) == aut_pm1_order
        assert aut_pm1(graph) == want


class TestConnectedClassGraphs:
    def test_matches_independent_enumeration(self):
        for expr, G in gz.zoo_corpus(12):
            graphs = ConnectedClassGraphs(G)
            # S as reports print it, against the built connection set; a
            # verdict with no generators renders it without a stab1 search
            got = [(CCAVerdict(g, None, 0, itertools.chain())
                    .to_json_dict(g)["S"], g.colours, g.left_rows)
                   for g in graphs]
            want = [([G.elem_str(s) for s in ConnectionSet.from_elements(
                          G, [s for cls in g.colours for s in cls]).elements],
                     g.colours, g.left_rows)
                    for g in connected_class_graphs(G)]
            assert got == want, expr
            k = len(ConnectionSet.from_elements(
                G, G.elements()[1:]).colour_classes())
            assert graphs.sets_checked == 2 ** k - 1, expr
            assert graphs.connected_checked == len(want), expr
            assert not graphs.over_budget
            # marking every graph leaves the minimal connected sets, and
            # the counters as they were
            sets = [frozenset(colours) for _, colours, _ in want]
            marked = ConnectedClassGraphs(G)
            got = []
            for g in marked:
                got.append(frozenset(g.colours))
                marked.mark_cca()
            assert got == [x for x in sets
                           if not any(x - {c} in sets for c in x)], expr
            assert marked.sets_checked == graphs.sets_checked, expr
            assert marked.connected_checked == len(want), expr

    def test_budget_stops_examining(self):
        G = gz.symmetric_group(4)
        graphs = ConnectedClassGraphs(G, budget=40)
        assert len(list(graphs)) == graphs.connected_checked
        assert graphs.sets_checked == 40
        assert graphs.over_budget


class TestIsCcaGraph:
    def test_s3_all_graphs_cca(self):
        G = gz.symmetric_group(3)
        for graph in connected_class_graphs(G):
            assert is_cca_graph(graph).is_cca

    def test_c4_cca(self):
        G = gz.cyclic_group(4)
        g = G.generators()[0]
        conn = ConnectionSet.from_elements(G, [g], close_inverses=True)
        v = is_cca_graph(build(G, conn))
        assert v.is_cca and v.stab1_order == 2

    def test_order_identities(self):
        for expr in ["C6", "S3", "D4", "A4"]:
            G = gz.construct(expr)
            for graph in connected_class_graphs(G):
                v = is_cca_graph(graph)
                assert v.autc_order == graph.n * v.stab1_order
                assert v.autc_order % (graph.n * v.aut_pm1_order) == 0
                assert v.is_cca == (
                    v.autc_order == graph.n * v.aut_pm1_order)

    def test_streamed_matches_full(self):
        # the decision stops at the first failing generator of the full set
        for expr in ["C6", "S3", "D4"]:
            G = gz.construct(expr)
            for graph in connected_class_graphs(G):
                gens = stab1(graph).generators
                failing = [a for a in gens
                           if _automorphism_violation(graph, a) is not None]
                v = is_cca_graph(graph)
                assert v.is_cca == (not failing)
                if failing:
                    assert v.witness == failing[0]
                    assert v.stab1_checked == gens.index(failing[0]) + 1
                else:
                    assert v.witness is None
                    assert v.stab1_checked == len(gens)
                assert v.stab1.generators == gens

    def test_witness_is_not_homomorphism(self):
        G = gz.symmetric_group(4)
        verdict = is_cca_group_exhaustive(G)
        assert verdict.status == "non-cca"
        conn = ConnectionSet.from_elements(G, list(verdict.witness_set))
        graph = build(G, conn)
        v = is_cca_graph(graph)
        assert not v.is_cca
        assert v.witness is not None
        # the witness fixes the identity vertex but is not right translation
        assert v.witness[0] == 0

    @pytest.mark.parametrize("more_after_witness", [True, False])
    def test_every_generator_is_checked(self, monkeypatch,
                                        more_after_witness):
        # a witness behind a generator that passes must still be found
        G = gz.symmetric_group(4)
        S = is_cca_group_exhaustive(G).witness_set
        graph = build(G, ConnectionSet.from_elements(G, list(S)))
        failing = is_cca_graph(graph).witness
        identity = tuple(range(graph.n))
        gens = [identity, failing]
        if more_after_witness:
            gens.append(tuple(failing[i] for i in failing))
        pulled = []

        def strong_generators(_graph):
            for alpha in gens:
                pulled.append(alpha)
                yield alpha

        monkeypatch.setattr(colourauts, "_strong_generators",
                            strong_generators)
        v = is_cca_graph(graph)
        assert v.witness == failing
        assert v.stab1_checked == 2
        # the decision stops at the witness and leaves the rest unpulled
        assert pulled == [identity, failing]
        # the orders continue the same stream, not a new search: each
        # streamed generator is taken as strong, so the order is 2^m
        assert v.stab1_order == 2 ** len(gens)
        assert v.stab1.generators == gens
        assert pulled == gens

    def test_orders_finish_the_decision_stream(self, monkeypatch):
        G = gz.symmetric_group(4)
        S = is_cca_group_exhaustive(G).witness_set
        graph = build(G, ConnectionSet.from_elements(G, list(S)))
        st = stab1(graph)
        want_apm1 = len(aut_pm1(graph))
        calls = []
        search = colourauts._strong_generators

        def counted(g):
            calls.append(g)
            return search(g)

        monkeypatch.setattr(colourauts, "_strong_generators", counted)
        v = is_cca_graph(graph)
        assert not v.is_cca and v.stab1_checked < len(st.generators)
        assert v.stab1.generators == st.generators
        assert v.stab1_order == st.order
        assert v.autc_order == graph.n * st.order
        assert v.aut_pm1_order == want_apm1 < st.order
        assert len(calls) == 1


class TestExhaustiveGroupVerdicts:
    @pytest.mark.parametrize("expr,status", [
        ("S2", "cca"), ("S3", "cca"), ("A4", "cca"),
        ("C2", "cca"), ("C3", "cca"), ("C5", "cca"), ("C7", "cca"),
        ("S4", "non-cca"),
    ])
    def test_named_groups(self, expr, status):
        G = gz.construct(expr)
        assert is_cca_group_exhaustive(G).status == status

    def test_budget_exhaustion_is_unknown(self):
        G = gz.symmetric_group(4)
        v = is_cca_group_exhaustive(G, budget=5)
        assert v.status == "unknown"
        assert v.sets_checked == 5

    def test_witness_graph_is_connected_non_cca(self):
        G = gz.symmetric_group(4)
        v = is_cca_group_exhaustive(G)
        conn = ConnectionSet.from_elements(G, list(v.witness_set))
        graph = build(G, conn)
        assert graph.is_connected()
        assert not is_cca_graph(graph).is_cca

    @pytest.mark.parametrize("expr,sets,connected,witness_S,witness_alpha", [
        ("S4", 35, 7,
         ["(1 2 3 4)", "(1 4 3 2)", "(1 3 4 2)", "(1 2 4 3)"],
         [0, 7, 2, 3, 14, 5, 6, 1, 8, 20, 10, 22, 12, 13, 4, 15, 16, 17,
          18, 19, 9, 21, 11, 23]),
        ("C2 x C4", 10, 3,
         ["(3 4 5 6)", "(3 6 5 4)", "(1 2)(3 4 5 6)", "(1 2)(3 6 5 4)"],
         [0, 5, 2, 3, 4, 1, 6, 7]),
        ("higman:n=4,seed=1", 121, 1,
         ["h2", "g1", "g1*h1", "g2", "g2*h1"],
         [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 12, 15, 14]),
    ], ids=["S4", "C2 x C4", "higman:n=4,seed=1"])
    def test_golden_witness(self, expr, sets, connected, witness_S,
                            witness_alpha):
        G = gz.construct(expr)
        rep = is_cca_group_exhaustive(G).to_json_dict(G)
        assert rep["status"] == "non-cca"
        assert rep["sets_checked"] == sets
        assert rep["connected_checked"] == connected
        assert rep["witness_S"] == witness_S
        assert rep["witness_alpha"] == witness_alpha
        # the witness is a stab1 element of the witness graph that is not
        # a group automorphism
        graph = build(G, ConnectionSet.from_elements(G, [
            G.elem_parse(x) for x in witness_S]))
        assert tuple(witness_alpha) in enumerate_stab1(graph)
        assert _automorphism_violation(graph, witness_alpha) is not None

    def test_deterministic(self):
        G = gz.symmetric_group(4)
        a = is_cca_group_exhaustive(G)
        b = is_cca_group_exhaustive(G)
        assert a.witness_set == b.witness_set
        assert a.witness_alpha == b.witness_alpha

    def test_supersets_of_cca_sets_are_not_decided(self, monkeypatch):
        # D12 has 2^18 - 1 class subsets.  Deciding every connected one
        # took 25 s on a 2-core machine, deciding the 120 with no
        # connected CCA subset takes under a second: the time limit
        # catches a lost pruning before the count does
        G = gz.construct("D12")
        decided = []

        def counting_is_cca_graph(graph):
            decided.append(graph)
            return is_cca_graph(graph)

        monkeypatch.setattr(colourauts, "is_cca_graph", counting_is_cca_graph)
        previous = signal.signal(signal.SIGALRM, _out_of_time)
        signal.alarm(10)
        try:
            v = is_cca_group_exhaustive(G)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert (v.status, v.sets_checked, v.connected_checked) == (
            "cca", 262143, 260928)
        assert len(decided) == 120

    def test_marks_do_not_grow_with_the_class_subsets(self):
        # C2^5 has 31 classes: one mark per class subset would be 2^31
        G = gz.construct("C2 x C2 x C2 x C2 x C2")
        G.mult_table()
        tracemalloc.start()
        try:
            v = is_cca_group_exhaustive(G, budget=5000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (v.status, v.sets_checked) == ("unknown", 5000)
        assert peak < 4 * 2**20


class TestStabilizerIsTwoGroup:
    def test_random_connected_graphs_order_64(self):
        # the vertex stabilizer of a connected coloured Cayley graph is a
        # 2-group; seeded sample over the zoo
        rng = random.Random(2024)
        corpus = gz.zoo_corpus(64)
        done = 0
        while done < 50:
            expr, G = corpus[rng.randrange(len(corpus))]
            elems = [x for x in G.elements() if x != G.identity()]
            S = rng.sample(elems, rng.randint(1, min(5, len(elems))))
            conn = ConnectionSet.from_elements(G, S, close_inverses=True)
            graph = build(G, conn)
            if not graph.is_connected():
                continue
            listed = len(enumerate_stab1(graph))
            assert listed & (listed - 1) == 0, expr
            assert stab1(graph).order == listed, expr
            done += 1


class TestRightRegular:
    def test_right_regular_always_colour_preserving(self):
        for expr in ["C8", "D4", "S3", "A4"]:
            G = gz.construct(expr)
            for graph in connected_class_graphs(G):
                assert right_regular_preserves_colours(graph)


class TestPreservesColours:
    def test_rejects_a_colour_swapping_graph_automorphism(self):
        # Cay(C2 x C2, {a, b}) is the 4-cycle 1 - a - ab - b - 1 with the
        # colours alternating; fixing 1 and ab while swapping a and b
        # keeps every edge but swaps the two colours.
        G = gz.construct("C2 x C2")
        a, b = G.involutions()[:2]
        graph = build(G, ConnectionSet.from_elements(G, [a, b]))
        idx = graph.index
        assert len(graph.colours) == 2
        assert idx[G.multiply(a, b)] not in (0, idx[a], idx[b])
        swap = list(range(4))
        swap[idx[a]], swap[idx[b]] = idx[b], idx[a]
        edges = {frozenset((v, row[v])) for rows in graph.left_rows
                 for row in rows for v in range(4)}
        assert {frozenset(swap[v] for v in e) for e in edges} == edges
        assert not preserves_colours(graph, swap)
        assert preserves_colours(graph, list(range(4)))
        assert stab1_oracle(graph) == [(0, 1, 2, 3)]


def _out_of_time(signum, frame):
    raise TimeoutError("the search ran past its time limit")


def psl2_17_dihedral_16_triple():
    G = gz.psl2(17)
    H = gz.normalizer_bruteforce(G, gz.cyclic_subgroups_of_order(G, 8)[0])
    return G, tr.search_triple_subgroup_strategy(G, H)


def higman_12_triple():
    return theorem3_triple(sample_params(12, 1))


@pytest.fixture
def assign_calls(monkeypatch):
    """A one-item list counting the `_MapSearch.assign` calls made while
    the test runs: the search's assignments, pruned or not."""
    calls = [0]
    assign = colourauts._MapSearch.assign

    def counting(search, w, target):
        calls[0] += 1
        return assign(search, w, target)

    monkeypatch.setattr(colourauts._MapSearch, "assign", counting)
    return calls


class TestStrongGenerators:
    """The generator search unwinds the base deepest level first: on these
    crosscheck graphs the deepest generator is already a witness, so the
    streamed decision stops after one, in well under a second.  Shallow
    first, the PSL2(17) search runs for minutes, so the test has a time
    limit.  The search needs no recursion."""

    @pytest.mark.parametrize("name", list(TRIPLE_GRAPHS))
    def test_pruned_matches_unpruned_on_conjugated_triple_graphs(self, name):
        # conjugating S and t relabels the vertices, and with them the BFS
        # base, the candidate order and so which subtrees are pruned
        for seed in (None, 1, 2, 3, 4, 5):
            graph = triple_graph(*TRIPLE_GRAPHS[name], conjugator_seed=seed)
            assert (list(colourauts._strong_generators(graph))
                    == unpruned_strong_generators(graph)), (name, seed)

    # assignments of the full generator search: 60,889 / 14,016 / 12,505 /
    # 168 without pruning, 2,257 / 480 / 3,431 / 168 with it
    @pytest.mark.parametrize("name,stab1_order,bound", [
        ("S5-pointwise", 2048, 5000), ("S5-setwise", 2048, 1000),
        ("A6", 64, 6000), ("S6", 64, 500),
    ], ids=list(TRIPLE_GRAPHS))
    def test_pruning_bounds_the_assignments(self, assign_calls, name,
                                            stab1_order, bound):
        graph = triple_graph(*TRIPLE_GRAPHS[name])
        assert stab1(graph).order == stab1_order
        assert assign_calls[0] <= bound

    @pytest.mark.parametrize("make", [psl2_17_dihedral_16_triple,
                                      higman_12_triple],
                             ids=["PSL2(17) dihedral:16", "higman:n=12"])
    def test_crosscheck_stops_at_first_generator(self, make):
        G, trip = make()
        limit = sys.getrecursionlimit()
        previous = signal.signal(signal.SIGALRM, _out_of_time)
        signal.alarm(60)
        try:
            rep = tr.crosscheck_prop22(G, trip)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert not rep.verdict.is_cca
        assert rep.verdict.stab1_checked == 1
        assert sys.getrecursionlimit() == limit
