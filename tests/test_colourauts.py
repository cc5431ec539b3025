import functools
import hashlib
import inspect
import itertools
import random
import sys
import time
import tracemalloc

import pytest

from oracle_irredundant import (
    colour_classes,
    conjugation_images,
    elements_of,
    irredundant_class_sets,
    irredundant_counts,
    least_in_orbit,
    orbit_group_order,
)

from oracle_conjugates import (
    canonical_at_first_level,
    first_moved,
    right_conjugate,
)

from oracle_full_checks import (
    aut_pm1_by_full_check,
    aut_pm1_tree_maps,
    identity_walk_by_assign,
)

from ccakit import cli, colourauts
from ccakit import groupzoo as gz
from ccakit import triples as tr
from ccakit.cayley import (
    ColouredCayleyGraph,
    ConnectionSet,
    build,
    class_rows,
)
from ccakit.colourauts import (
    CCAVerdict,
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
from ccakit.permcore import PermutationGroup


def connected_class_graphs(G):
    """Every connected class graph of G, by (class count, lex) order of
    the class subsets.  Each class's rows come from G.left_row, once per
    group."""
    classes = colour_classes(G)
    rows = [[G.left_row(s) for s in cls] for cls in classes]
    for size in range(1, len(classes) + 1):
        for combo in itertools.combinations(range(len(classes)), size):
            graph = ColouredCayleyGraph(G, [rows[c] for c in combo])
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
def chronological_triple_graph(name, conjugator_seed=None):
    """A triple graph, conjugated given a seed, and the strong generators
    of its unpruned search, built once per session."""
    graph = triple_graph(*TRIPLE_GRAPHS[name], conjugator_seed=conjugator_seed)
    return graph, unpruned_strong_generators(graph)


@functools.lru_cache(maxsize=None)
def enumerated_triple_graph(name):
    """A triple graph and its enumerated stab1, built once per session."""
    graph, _ = chronological_triple_graph(name)
    return graph, enumerate_stab1(graph)


def s5_involution_conflict_graph():
    """Cay(S5, S), S = {(1 3), (1 3 5 4)^+-1, (1 4)(2 5)}: CCA, with stab1
    trivial.  Every search of it (is_cca_graph, stab1, enumerate_stab1)
    meets one conflict in the involution-class block of
    _MapSearch._propagate, an image forced onto a vertex already taken."""
    G = gz.construct("S5")
    S = [G.elem_parse(x) for x in ("(1 3)", "(1 3 5 4)", "(1 4)(2 5)")]
    return build(G, ConnectionSet.from_elements(G, S, close_inverses=True))


def unpruned_strong_generators(graph, count=None):
    """The strong generators, or the first count of them, found by the
    chronological search without pruning: the same unwinding, each
    level's first completion taken from completions given gens None."""
    completions = colourauts._MapSearch.completions
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(colourauts._MapSearch, "completions",
                   lambda search, k, gens=None: completions(search, k))
        return list(itertools.islice(colourauts._strong_generators(graph),
                                     count))


def check_against_enumeration(graph, listed, label, unpruned=None):
    """stab1 from strong generators, the verdict and aut_pm1 against the
    enumerated stab1 and the reference automorphism check on each of its
    elements; the generators against the unpruned search's (unpruned, or
    found here when None), and the search pruned by them against the
    enumeration.  Returns the verdict."""
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
    if unpruned is None:
        unpruned = unpruned_strong_generators(graph)
    assert gens == unpruned, label
    # every stab1 element fixes what the map fixing vertex 0 assigns, so
    # stab1's generators may prune the whole search: it cuts only subtrees
    # without a completion
    pruned = colourauts._MapSearch(graph).completions(1, gens)
    assert sorted(pruned) == listed, label
    return v


def minimal_class_verdicts(G):
    """(graph, is_cca_graph verdict) for each of G's minimal generating
    class sets, by (class count, lex) order, up to and with the first
    that is not CCA, read off the full listing of lex-irredundant class
    sets: a connected set is minimal when dropping any one class
    disconnects it."""
    for _, _, graph in irredundant_class_sets(G, orbits=False):
        rows = graph.left_rows
        if graph.is_connected() and not any(
                ColouredCayleyGraph(G, rows[:i] + rows[i + 1:]).is_connected()
                for i in range(len(rows))):
            v = is_cca_graph(graph)
            yield graph, v
            if not v.is_cca:
                return


def unpruned_group_verdict(decided, listed, budget, acting):
    """The exhaustive verdict from deciding every connected class graph,
    with the sweep's counters read off the oracle listing: decided holds
    (graph, witness) per graph of connected_class_graphs, listed the
    items of irredundant_class_sets, and acting the order of the group
    of class permutations by conjugation."""
    status, witness_set, witness = "cca", None, None
    for graph, alpha in decided:
        if alpha is not None:
            status, witness_set, witness = \
                "non-cca", elements_of(graph), alpha
            # the sweep stops at the witness
            listed = listed[:[elements_of(g) for _, _, g in listed].index(
                witness_set) + 1]
            break
    if budget is not None and budget < len(listed):
        return GroupCCAVerdict("unknown", budget,
                               listed[budget - 1][1] if budget else 0,
                               orbit_group_order=acting)
    sets, connected, _ = listed[-1] if listed else (0, 0, None)
    return GroupCCAVerdict(status, sets, connected, witness_set, witness,
                           acting)


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
            for graph in connected_class_graphs(G):
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
            decided = []
            for graph in connected_class_graphs(G):
                v = check_against_enumeration(graph, enumerate_stab1(graph),
                                              expr)
                decided.append((graph, v.witness))
            # the sweep against deciding every graph, at every budget
            listed = list(irredundant_class_sets(G))
            acting = orbit_group_order(G)
            for budget in (None, 1, 3, 10, 50, 300):
                got = (is_cca_group_exhaustive(G) if budget is None
                       else is_cca_group_exhaustive(G, budget))
                assert got == unpruned_group_verdict(
                    decided, listed, budget, acting), (expr, budget)
        for name in ("S5-pointwise", "A6", "S6"):
            _, unpruned = chronological_triple_graph(name)
            check_against_enumeration(*enumerated_triple_graph(name), name,
                                      unpruned)

    def test_decides_aut_pm1_membership_for_any_map_fixing_the_identity(
            self):
        """On random bijections fixing vertex 0 and on the candidate maps
        aut_pm1 builds, the check passes exactly the homomorphisms sending
        every s to s or s^-1.  A first failing class whose first member
        leaves it fails at (s, 1); any other failure is the reference's."""
        rng = random.Random(25)
        check = colourauts._automorphism_violation
        for expr, G in gz.zoo_corpus(12):
            e = G.identity()
            for graph in connected_class_graphs(G):
                candidates = list(aut_pm1_tree_maps(graph))
                bijections = [(0, *rng.sample(range(1, graph.n), graph.n - 1))
                              for _ in range(3)]
                class_of = {row[0]: c for c, rows in
                            enumerate(graph.left_rows) for row in rows}
                for alpha in candidates + bijections:
                    got = check(graph, alpha)
                    want = automorphism_violation_by_multiply(graph, alpha)
                    leaves = [c for c, rows in enumerate(graph.left_rows)
                              if class_of.get(alpha[rows[0][0]]) != c]
                    assert (got is None) == (
                        want is None and all(class_of.get(alpha[s]) == c
                                             for s, c in class_of.items())
                    ), (expr, alpha)
                    c_want = (len(graph.left_rows) if want is None
                              else class_of[graph.index[want[0]]])
                    if leaves and leaves[0] <= c_want:
                        s = graph.elems[graph.left_rows[leaves[0]][0][0]]
                        assert got == (s, e), (expr, alpha)
                    else:
                        assert got == want, (expr, alpha)

    @pytest.mark.parametrize("name,is_cca,stab1_order,aut_pm1_order", [
        ("S5-setwise", False, 2048, 4), ("A6", False, 64, 2),
        ("S6", False, 64, 2), ("S5-involution-conflict", True, 1, 1),
    ], ids=["S5-setwise", "A6", "S6", "S5-involution-conflict"])
    def test_triple_graphs(self, name, is_cca, stab1_order, aut_pm1_order):
        if name in TRIPLE_GRAPHS:
            graph, listed = enumerated_triple_graph(name)
        else:
            graph = s5_involution_conflict_graph()
            listed = enumerate_stab1(graph)
        v = is_cca_graph(graph)
        assert v.is_cca is is_cca
        assert v.stab1_order == stab1_order == len(listed)
        assert v.aut_pm1_order == aut_pm1_order
        for alpha in listed:
            assert (_automorphism_violation(graph, alpha)
                    == automorphism_violation_by_multiply(graph, alpha))
        want = aut_pm1_by_sign_choices(graph)
        assert len(want) == aut_pm1_order
        assert aut_pm1(graph) == want


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

    def test_graph_limit_refuses_before_any_row(self, left_row_calls):
        # the graph limit is the sweep's one bound: checked before
        # class_rows builds the table, so a refused group holds no row
        G = gz.construct("S4")
        with pytest.raises(LimitExceeded, match="graph limit 23"):
            is_cca_group_exhaustive(G, graph_limit=G.order() - 1)
        assert left_row_calls == []
        assert getattr(G, "_mult_table", None) is None
        assert is_cca_group_exhaustive(G, graph_limit=G.order()).status \
            == "non-cca"

    @pytest.mark.parametrize("expr,budget,status", [
        ("S3", 0, "unknown"), ("S3", 3, "unknown"), ("S3", 4, "cca"),
        ("S3", 9, "cca"), ("S3", 10, "cca"), ("S3", 14, "cca"),
        ("S3", 15, "cca"),
        ("A4", 4, "unknown"), ("A4", 5, "cca"), ("A4", 29, "cca"),
        ("A4", 40, "cca"),
        ("S4", 13, "unknown"), ("S4", 14, "non-cca"), ("S4", 30, "non-cca"),
        ("S4", 33, "non-cca"), ("S4", 34, "non-cca"),
    ], ids=["S3-0", "S3-3", "S3-4", "S3-9", "S3-10", "S3-14", "S3-15",
            "A4-4", "A4-5", "A4-29", "A4-40",
            "S4-13", "S4-14", "S4-30", "S4-33", "S4-34"])
    def test_budget_stops_examining(self, expr, budget, status):
        # S3 forms 4 class sets and A4 5, so budgets of 4 and 5 still
        # answer; S4's witness is its 14th set.  The larger budgets are
        # the boundaries of the sweep that formed every lex-irredundant
        # set (S3 10, A4 30, S4's witness 34th)
        G = gz.construct(expr)
        v = is_cca_group_exhaustive(G, budget)
        if status == "non-cca":
            sets, connected = irredundant_counts(G, v.witness_set)
        else:
            formed = list(itertools.islice(irredundant_class_sets(G),
                                           budget))
            sets, connected = formed[-1][:2] if formed else (0, 0)
        assert (v.status, v.sets_checked, v.connected_checked) == (
            status, sets, connected)
        if status == "unknown":
            assert sets == budget

    def test_decides_exactly_the_minimal_connected_sets(self, monkeypatch):
        # a CCA group's sweep decides the connected sets with no connected
        # subset that are least in their orbit under conjugation, in
        # order, on the helper's rows, and counts every set it forms
        decided = []

        def recording_is_cca_graph(graph):
            decided.append((graph.colours, graph.left_rows))
            return is_cca_graph(graph)

        monkeypatch.setattr(colourauts, "is_cca_graph",
                            recording_is_cca_graph)
        checked = 0
        for expr, G in gz.zoo_corpus(12):
            decided.clear()
            v = is_cca_group_exhaustive(G)
            if v.status != "cca":
                continue
            graphs = list(connected_class_graphs(G))
            sets = {frozenset(g.colours) for g in graphs}
            class_of = {cls: c for c, cls in enumerate(colour_classes(G))}
            images = conjugation_images(G)
            assert decided == [
                (g.colours, g.left_rows) for g in graphs
                if not any(frozenset(g.colours) - {c} in sets
                           for c in g.colours)
                and least_in_orbit(tuple(map(class_of.get, g.colours)),
                                   images)], expr
            assert (v.sets_checked, v.connected_checked) == \
                irredundant_counts(G), expr
            checked += 1
        assert checked == 22

    def test_witness_is_the_first_non_cca_minimal_set(self, time_limit):
        # the first non-CCA minimal set in (class count, lex) order is
        # least in its orbit, so the sweep keeps the witness of deciding
        # every minimal set of the full listing in order
        groups = gz.zoo_corpus(16) + [(expr, gz.construct(expr))
                                      for expr in ("PSL2(7)", "A6")]
        with time_limit(60):
            for expr, G in groups:
                status, witness_set, witness = "cca", None, None
                for graph, v in minimal_class_verdicts(G):
                    if not v.is_cca:
                        status, witness_set, witness = \
                            "non-cca", elements_of(graph), v.witness
                got = is_cca_group_exhaustive(G)
                assert (got.status, got.witness_set, got.witness_alpha) \
                    == (status, witness_set, witness), expr

    def test_witness_graph_is_connected_non_cca(self):
        G = gz.symmetric_group(4)
        v = is_cca_group_exhaustive(G)
        conn = ConnectionSet.from_elements(G, list(v.witness_set))
        graph = build(G, conn)
        assert graph.is_connected()
        assert not is_cca_graph(graph).is_cca

    @pytest.mark.parametrize("expr,sets,connected,witness_S,witness_alpha", [
        ("S4", 14, 4,
         ["(1 2 3 4)", "(1 4 3 2)", "(1 3 4 2)", "(1 2 4 3)"],
         [0, 7, 2, 3, 14, 5, 6, 1, 8, 20, 10, 22, 12, 13, 4, 15, 16, 17,
          18, 19, 9, 21, 11, 23]),
        ("C2 x C4", 10, 3,
         ["(3 4 5 6)", "(3 6 5 4)", "(1 2)(3 4 5 6)", "(1 2)(3 6 5 4)"],
         [0, 5, 2, 3, 4, 1, 6, 7]),
        ("higman:n=4,seed=1", 117, 1,
         ["h2", "g1", "g1*h1", "g2", "g2*h1"],
         [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 12, 15, 14]),
    ], ids=["S4", "C2 x C4", "higman:n=4,seed=1"])
    def test_golden_witness(self, expr, sets, connected, witness_S,
                            witness_alpha):
        G = gz.construct(expr)
        v = is_cca_group_exhaustive(G)
        rep = v.to_json_dict(G)
        assert rep["status"] == "non-cca"
        assert rep["sets_checked"] == sets
        assert rep["connected_checked"] == connected
        assert irredundant_counts(G, v.witness_set) == (sets, connected)
        assert rep["orbit_group_order"] == orbit_group_order(G)
        assert rep["witness_S"] == witness_S
        assert rep["witness_alpha"] == witness_alpha
        # the witness is a stab1 element of the witness graph that is not
        # a group automorphism
        graph = build(G, ConnectionSet.from_elements(G, [
            G.elem_parse(x) for x in witness_S]))
        assert tuple(witness_alpha) in enumerate_stab1(graph)
        assert _automorphism_violation(graph, witness_alpha) is not None

    def test_psl2_7_golden_witness(self, assign_calls, time_limit):
        # PSL(2, 7) is the smallest simple non-CCA group; the sweep took
        # 12-15 s on a 2-core machine and 4,335,184 assignments before
        # backjumping, 0.2 s and 26,168 assignments after, and 0.02 s and
        # 4,211 assignments once it formed one class set per conjugation
        # orbit
        G = gz.construct("PSL2(7)")
        with time_limit(10):
            v = is_cca_group_exhaustive(G)
        rep = v.to_json_dict(G)
        assert assign_calls[0] <= 5000
        assert rep["status"] == "non-cca"
        assert rep["sets_checked"] == 23
        assert rep["connected_checked"] == 16
        assert rep["orbit_group_order"] == 168
        assert irredundant_counts(G, v.witness_set) == (23, 16)
        assert rep["witness_S"] == [
            "(2 3 5)(4 7 6)", "(2 5 3)(4 6 7)",
            "(1 7 8 2)(3 6 4 5)", "(1 2 8 7)(3 5 4 6)"]
        # the identity but for three swapped pairs of vertices
        alpha = list(range(168))
        for u, v in ((60, 102), (101, 147), (112, 134)):
            alpha[u], alpha[v] = v, u
        assert rep["witness_alpha"] == alpha

    def test_deterministic(self):
        G = gz.symmetric_group(4)
        a = is_cca_group_exhaustive(G)
        b = is_cca_group_exhaustive(G)
        assert a.witness_set == b.witness_set
        assert a.witness_alpha == b.witness_alpha

    def test_supersets_of_cca_sets_are_not_decided(self, monkeypatch,
                                                    time_limit):
        # D12 has 2^18 - 1 class subsets.  Deciding every connected one
        # took 25 s on a 2-core machine; the sweep forms the 72
        # lex-irredundant ones that are least in their conjugation orbit
        # and decides the 16 with no connected subset, in 2 ms: the time
        # limit catches a lost pruning before the count does
        G = gz.construct("D12")
        decided = []

        def counting_is_cca_graph(graph):
            decided.append(graph)
            return is_cca_graph(graph)

        monkeypatch.setattr(colourauts, "is_cca_graph", counting_is_cca_graph)
        with time_limit(10):
            v = is_cca_group_exhaustive(G)
        assert (v.status, v.sets_checked, v.connected_checked) == (
            "cca", 72, 37)
        assert irredundant_counts(G) == (72, 37)
        assert len(decided) == 16

    def test_marks_do_not_grow_with_the_class_subsets(self):
        # C2^5 has 31 classes: one mark per class subset would be 2^31;
        # the frontier holds the non-generating sets of one size, each a
        # class tuple and an int span
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


    def test_a5_is_cca_by_exhaustion(self, monkeypatch, time_limit):
        # A5, the smallest simple group with no element of order 4: 2^37
        # class masks.  The sweep formed 2,663 and decided the 1,095
        # minimal generating sets in 0.2-0.3 s on a 2-core machine; one
        # set per conjugation orbit, it forms 48 and decides 32, in 0.01 s
        G = gz.construct("A5")
        decided = []

        def counting_is_cca_graph(graph):
            decided.append(graph)
            return is_cca_graph(graph)

        monkeypatch.setattr(colourauts, "is_cca_graph", counting_is_cca_graph)
        with time_limit(5):
            v = is_cca_group_exhaustive(G)
        assert (v.status, v.sets_checked, v.connected_checked,
                v.orbit_group_order) == ("cca", 48, 35, 60)
        assert len(decided) == 32

    @pytest.mark.parametrize("expr,seconds,sets,connected", [
        ("PSL2(8)", 20, 6428, 6359), ("PSL2(11)", 30, 9406, 9202)])
    def test_psl2_8_and_psl2_11_are_cca_by_exhaustion(
            self, expr, seconds, sets, connected, time_limit):
        # two more simple groups with no element of order 4.  Forming
        # every lex-irredundant set, the sweep answered 'unknown' after
        # 106 s and 167 s at a budget of 20,000 sets; one set per
        # conjugation orbit, it decides them in 2-6 s on a 2-core machine
        G = gz.construct(expr)
        with time_limit(seconds):
            v = is_cca_group_exhaustive(G)
        assert (v.status, v.sets_checked, v.connected_checked,
                v.orbit_group_order) == ("cca", sets, connected, G.order())

    @pytest.mark.parametrize("expr", ["D12", "C2 x D6"])
    def test_sweeps_of_order_24_take_under_a_tenth_of_a_second(self, expr):
        # 0.56 s and 0.73 s while the sweep walked all 2^18 and 2^19 class
        # masks; the best of three runs, the multiplication table built
        G = gz.construct(expr)
        G.mult_table()
        best = min(timed(is_cca_group_exhaustive, G) for _ in range(3))
        assert best < 0.1

    # perm: forms of D8, C2 x C6, S4 and A5, with their reports as the
    # sweep gave them when it built a stabilizer chain and inverted every
    # element
    PERM_SWEEPS = {
        "perm:8:(1 2 3 4 5 6 7 8),(1 8)(2 7)(3 6)(4 5)":
            ("cca", 28, 13, 8, None),
        "perm:8:(1 2),(3 4 5 6 7 8)": ("cca", 31, 16, 1, None),
        "perm:4:(1 2),(1 2 3 4)": (
            "non-cca", 14, 4, 24,
            (["(1 2 3 4)", "(1 4 3 2)", "(1 3 4 2)", "(1 2 4 3)"],
             [0, 7, 2, 3, 14, 5, 6, 1, 8, 20, 10, 22, 12, 13, 4, 15, 16,
              17, 18, 19, 9, 21, 11, 23])),
        "perm:5:(1 2 3),(1 2 3 4 5)": ("cca", 48, 35, 60, None),
    }

    @pytest.mark.parametrize("expr", PERM_SWEEPS)
    def test_perm_sweep_builds_no_chain_and_inverts_nothing(
            self, expr, chains_built, monkeypatch):
        # the sweep learns |G| by listing it under the graph limit, keys
        # nothing by a base, and reads each inverse off the table's rows
        inverted = []
        invert = PermutationGroup.invert

        def counting(group, a):
            inverted.append(a)
            return invert(group, a)

        monkeypatch.setattr(PermutationGroup, "invert", counting)
        G = gz.construct(expr)
        rep = is_cca_group_exhaustive(G).to_json_dict(G)
        assert chains_built == [] and inverted == []
        witness = (rep["witness_S"], rep["witness_alpha"]) \
            if "witness_S" in rep else None
        assert (rep["status"], rep["sets_checked"], rep["connected_checked"],
                rep["orbit_group_order"], witness) == self.PERM_SWEEPS[expr]

    def test_trivial_group(self):
        # no class to form a set from: the empty set generates the group
        G = gz.construct("C1")
        assert G.order() == 1
        assert list(irredundant_class_sets(G)) == []
        for budget in (0, 1):
            assert is_cca_group_exhaustive(G, budget) == GroupCCAVerdict(
                "cca", 0, 0)


def timed(f, *args):
    """Seconds one call of f(*args) takes."""
    start = time.perf_counter()
    f(*args)
    return time.perf_counter() - start


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


def psl2_17_dihedral_16_triple():
    G = gz.psl2(17)
    H = gz.normalizer_bruteforce(G, gz.cyclic_subgroups_of_order(G, 8)[0])
    return G, tr.search_triple_subgroup_strategy(G, H)


def psl2_17_dihedral_16_triple_graph():
    G, trip = psl2_17_dihedral_16_triple()
    return build(G, ConnectionSet.from_elements(
        G, list(trip.S) + list(trip.T), close_inverses=True))


def psl2_7_witness_graph():
    """The PSL(2, 7) sweep's witness graph: one class of elements of order
    3 and one of order 4."""
    G = gz.construct("PSL2(7)")
    S = [G.elem_parse(x) for x in ("(2 3 5)(4 7 6)", "(1 7 8 2)(3 6 4 5)")]
    return build(G, ConnectionSet.from_elements(G, S, close_inverses=True))


# The PSL(2, 7) sweep graphs on two classes of elements of order 3, by
# class representative: the chronological search takes 1.9-3.7 s on each
PSL2_7_SLOW_SETS = [
    ("(2 3 5)(4 7 6)", "(1 8 2)(3 5 7)"),
    ("(2 3 5)(4 7 6)", "(1 7 8)(2 4 6)"),
    ("(2 3 5)(4 7 6)", "(1 8 3)(2 6 5)"),
    ("(2 3 5)(4 7 6)", "(1 8 4)(5 7 6)"),
]


def higman_12_triple():
    return theorem3_triple(sample_params(12, 1))


@pytest.fixture
def assign_calls(monkeypatch):
    """A one-item list counting the `_MapSearch.assign` calls made while
    the test runs: the search's assignments, pruned or not."""
    calls = [0]
    assign = colourauts._MapSearch.assign

    def counting(search, *args):
        calls[0] += 1
        return assign(search, *args)

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
            graph, unpruned = chronological_triple_graph(name, seed)
            assert (list(colourauts._strong_generators(graph))
                    == unpruned), (name, seed)

    # assignments of the full generator search: 60,889 / 14,016 / 12,505 /
    # 168 chronological and unpruned, 2,257 / 480 / 3,431 / 168 pruned by
    # orbits, 1,542 / 384 / 494 / 168 pruned by orbits and backjumping
    # with every orbit skip in the conflict set, 895 / 328 / 494 / 168
    # with orbit skips adding no decision to it, and 859 / 308 / 472 / 146
    # since the identity walk calls no assign
    @pytest.mark.parametrize("name,stab1_order,bound", [
        ("S5-pointwise", 2048, 1000), ("S5-setwise", 2048, 400),
        ("A6", 64, 600), ("S6", 64, 250),
    ], ids=list(TRIPLE_GRAPHS))
    def test_pruning_bounds_the_assignments(self, assign_calls, name,
                                            stab1_order, bound):
        graph = triple_graph(*TRIPLE_GRAPHS[name])
        assert stab1(graph).order == stab1_order
        assert assign_calls[0] <= bound

    def test_involution_classes_can_conflict_in_propagate(self):
        # the involution-class block's taken-target conflict, the first
        # conflict line of _propagate, fires once in each search of the
        # S5 graph: involution classes do conflict
        propagate = colourauts._MapSearch._propagate
        lines, first = inspect.getsourcelines(propagate)
        target = first + next(i for i, line in enumerate(lines)
                              if "self.conflict" in line)
        hits = []

        def tracer(frame, event, arg):
            if frame.f_code is not propagate.__code__:
                return None
            if event == "line" and frame.f_lineno == target:
                hits.append(frame.f_lineno)
            return tracer

        graph = s5_involution_conflict_graph()
        for search in (is_cca_graph, stab1, enumerate_stab1):
            hits.clear()
            sys.settrace(tracer)
            try:
                search(graph)
            finally:
                sys.settrace(None)
            assert len(hits) == 1, search.__name__

    def test_reasons_name_the_decisions_behind_each_image_and_conflict(
            self):
        # decisions w -> g(w) for a stab1 element g, in random order, each
        # after a random other image for w has been tried: every element
        # agreeing with the decisions a reason names maps the vertex to
        # its image, and none agrees with those a conflict names
        rng = random.Random(11)
        graphs = [enumerated_triple_graph("A6")]
        corpus = gz.zoo_corpus(32)
        while len(graphs) < 30:
            expr, G = corpus[rng.randrange(len(corpus))]
            elems = [x for x in G.elements() if x != G.identity()]
            S = rng.sample(elems, rng.randint(1, min(3, len(elems))))
            graph = build(G, ConnectionSet.from_elements(
                G, S, close_inverses=True))
            if graph.is_connected():
                graphs.append((graph, enumerate_stab1(graph)))
        for graph, listed in graphs:
            for _ in range(3):
                g = rng.choice(listed)
                search = colourauts._MapSearch(graph)
                decisions = []

                def agreeing(mask):
                    return [h for h in listed if all(
                        h[w] == x for i, (w, x) in enumerate(decisions)
                        if mask >> i & 1)]

                free = [w for w in range(graph.n) if search.alpha[w] == -1]
                rng.shuffle(free)
                for w in free:
                    if search.alpha[w] != -1:
                        continue
                    bit = 1 << len(decisions)
                    y = rng.choice([y for y in range(graph.n) if y != g[w]])
                    decisions.append((w, y))
                    trail = search.assign(w, y, bit)
                    if trail is None:
                        assert agreeing(search.conflict) == []
                    else:
                        search.undo(trail)
                    decisions[-1] = (w, g[w])
                    assert search.assign(w, g[w], bit) is not None
                for u in range(graph.n):
                    assert {h[u] for h in agreeing(search.reason[u])} \
                        == {g[u]}

    @pytest.mark.parametrize("name", list(TRIPLE_GRAPHS))
    def test_pruned_search_visits_the_completions_in_order(self, name):
        # pruned by stab1's own generators, which fix every image, or by
        # their deeper half, whose orbits are smaller, the search still
        # yields every element in the chronological order, though its
        # orbit skips add no decision to the conflict sets it jumps by.
        # Two completions agree up to the first base point w where they
        # differ, a branch point of both, where completions(1) tries
        # images by the key (x != w, x); so stab1 sorted by those keys
        # along the base is what completions(1) yields, without the
        # seconds that search takes on the S5 graphs.
        for seed in (1, 2, 3, 4, 5):
            graph, gens = chronological_triple_graph(name, seed)
            order, _ = graph.bfs_order()
            listed = sorted(
                colourauts.VertexStabilizer(graph.n, gens).elements,
                key=lambda g: [(g[w] != w, g[w]) for w in order])
            for kept in (gens, gens[:len(gens) // 2]):
                pruned = colourauts._MapSearch(graph).completions(1, kept)
                assert list(pruned) == listed, (name, seed, len(kept))

    def test_chronological_search_visits_the_completions_in_order(self):
        # the oracle, completions(1) given gens None, tries the identity-
        # consistent image first at each branch point, then the other: its
        # completions, unsorted, ascend by the key (g[w] != w, g[w]) along
        # the base.  The S5 triple graphs take seconds and are left out.
        graphs = [(expr, graph) for expr, G in gz.zoo_corpus(8)
                  for graph in connected_class_graphs(G)]
        graphs += [(name, chronological_triple_graph(name)[0])
                   for name in ("A6", "S6")]
        for label, graph in graphs:
            order, _ = graph.bfs_order()
            keys = [[(g[w] != w, g[w]) for w in order]
                    for g in colourauts._MapSearch(graph).completions(1)]
            assert all(a < b for a, b in zip(keys, keys[1:])), label

    # the full generator sets that stayed slow while an orbit skip put
    # every point above in the conflict set: 1,036,185 and 551,464
    # assignments (14-16 s and 2.7-2.9 s on a 2-core machine), against
    # 37,393 and 10,772 (0.6 s and 0.05 s) now, 37,071 and 10,664 since
    # the identity walk calls no assign; the digests were taken from that
    # slower search's generators
    @pytest.mark.parametrize("make,count,digest,bound", [
        (psl2_17_dihedral_16_triple_graph, 154,
         "5bc26c5fb2ad4c06cafbfe47b1ed78372c2e5714f7dbacde4c391507e0aafdfa",
         45000),
        (psl2_7_witness_graph, 29,
         "1408cdca09e38077b7574e8705e8ac8cfee08d3862a75d99d43bd881c3544487",
         13000),
    ], ids=["PSL2(17) dihedral:16", "PSL2(7) witness"])
    def test_full_generator_sets_are_pinned(self, assign_calls, time_limit,
                                            make, count, digest, bound):
        graph = make()
        with time_limit(10):
            gens = stab1(graph).generators
        assert len(gens) == count
        assert hashlib.sha256(repr(gens).encode()).hexdigest() == digest
        assert assign_calls[0] <= bound

    def test_backjumping_bounds_the_psl2_7_assignments(self, assign_calls,
                                                       time_limit):
        # two classes of elements of order 3, |stab1| = 2: the last base
        # blocks conflict whatever is chosen in between, 1,273,720
        # assignments (4 s on a 2-core machine) without backjumping, 2,706
        # with it, and 2,648 since the identity walk calls no assign
        G = gz.construct("PSL2(7)")
        S = [G.elem_parse(x) for x in PSL2_7_SLOW_SETS[1]]
        graph = build(G, ConnectionSet.from_elements(G, S,
                                                     close_inverses=True))
        with time_limit(10):
            assert stab1(graph).order == 2
        assert assign_calls[0] <= 4000

    def test_psl2_7_sweep_generators_match_the_chronological_search(
            self, time_limit):
        # the generators each decision examines: all of them on a CCA
        # graph, up to the witness on the last, over the 99 minimal sets
        # up to the witness in the full listing, not only the sweep's
        # orbit representatives
        G = gz.construct("PSL2(7)")
        slow = {frozenset(S) for S in PSL2_7_SLOW_SETS}
        with time_limit(60):
            decided = [(graph, v.stab1_checked)
                       for graph, v in minimal_class_verdicts(G)]
            assert len(decided) == 99
            compared = 0
            for graph, checked in decided:
                if frozenset(G.elem_str(cls[0])
                             for cls in graph.colours) in slow:
                    continue
                streamed = colourauts._strong_generators(graph)
                assert (list(itertools.islice(streamed, checked))
                        == unpruned_strong_generators(graph, checked))
                compared += 1
        assert compared == 95

    @pytest.mark.parametrize("make", [psl2_17_dihedral_16_triple,
                                      higman_12_triple],
                             ids=["PSL2(17) dihedral:16", "higman:n=12"])
    def test_crosscheck_stops_at_first_generator(self, make, time_limit):
        G, trip = make()
        limit = sys.getrecursionlimit()
        with time_limit(60):
            rep = tr.crosscheck_prop22(G, trip)
        assert not rep.verdict.is_cca
        assert rep.verdict.stab1_checked == 1
        assert sys.getrecursionlimit() == limit


@functools.lru_cache(maxsize=None)
def zoo_connected_class_graphs(max_order):
    """(expr, graph) for every connected class graph of zoo_corpus(max_order),
    built once per session."""
    return [(expr, graph) for expr, G in gz.zoo_corpus(max_order)
            for graph in connected_class_graphs(G)]


def higman_theorem3_graph(n):
    """Cay(G, S u T) of the Theorem 3 triple of higman:n=<n>,seed=1, the
    graph crosscheck_prop22 decides."""
    G, trip = theorem3_triple(sample_params(n, 1))
    return build(G, ConnectionSet.from_elements(
        G, list(trip.S) + list(trip.T), close_inverses=True))


class TestFullCheckOracles:
    """The identity closure and aut_pm1's reduced check against the checked
    paths they replace (oracle_full_checks)."""

    def test_identity_closure_is_the_assign_walk(self, assign_calls):
        # the same trails in the same order, for vertex 0 and every level,
        # and the map the identity with every reason 0, with no assign call
        graphs = [graph for _, graph in zoo_connected_class_graphs(16)]
        graphs += [triple_graph(*TRIPLE_GRAPHS[name]) for name in TRIPLE_GRAPHS]
        graphs += [higman_theorem3_graph(n) for n in range(6, 11)]
        assert len(graphs) == 17472
        for graph in graphs:
            n = graph.n
            first, levels, _ = identity_walk_by_assign(graph)
            assign_calls[0] = 0
            search = colourauts._MapSearch(graph)
            closed = [-1] * n
            for w in first:
                closed[w] = w
            assert search.alpha == search.pre == closed, graph.colours
            assert search.identity_levels() == levels, graph.colours
            assert search.alpha == search.pre == list(range(n))
            assert search.reason == [0] * n
            search.alpha, search.pre = [-1] * n, [-1] * n
            assert search.fix(0) == first, graph.colours
            assert assign_calls[0] == 0

    def test_aut_pm1_is_the_full_check_filter(self):
        graphs = [graph for _, graph in zoo_connected_class_graphs(16)]
        graphs += [triple_graph(*TRIPLE_GRAPHS[name]) for name in TRIPLE_GRAPHS]
        kept = 0
        for graph in graphs:
            got = aut_pm1(graph)
            assert got == aut_pm1_by_full_check(graph), graph.colours
            kept += len(got)
        assert kept > len(graphs)


def class_graphs_up_to(G, size):
    """The connected class graphs of G on at most size colour classes, in
    (class count, lex) order, on cayley.class_rows."""
    rows = class_rows(G)
    for k in range(1, size + 1):
        for combo in itertools.combinations(range(len(rows)), k):
            graph = ColouredCayleyGraph(G, [rows[c] for c in combo])
            if graph.is_connected():
                yield graph


# Class-order patterns of S5 and PSL(2, 7) where non-CCA class sets are
# common, and how many of each group's graphs the sample draws.  Every
# non-CCA set of two classes pairs one of order 4 with one of order 3
# (S5 and PSL(2, 7)) or 6 (S5); of 200 S5 draws of orders (3, 4, 5), 16
# were non-CCA.  A PSL(2, 7) graph has 168 vertices and costs the most.
SAMPLED_PATTERNS = (("S5", ((3, 4), (4, 6), (3, 4, 5)), 122),
                    ("PSL2(7)", ((3, 4),), 30))


def sampled_non_cca_class_graphs():
    """A fixed-seed sample of 200 non-CCA class graphs: every one of S4
    and of C2 x D4 on 2-5 classes (24 each), then the class sets of
    SAMPLED_PATTERNS, each drawn as a pattern and one class of each of
    its orders, until the group's quota of non-CCA graphs is met."""
    graphs = []
    for expr in ("S4", "C2 x D4"):
        G = gz.construct(expr)
        graphs += [graph for graph in class_graphs_up_to(G, 5)
                   if len(graph.colours) > 1
                   and not is_cca_graph(graph).is_cca]
    rng = random.Random(36)
    for expr, patterns, quota in SAMPLED_PATTERNS:
        G = gz.construct(expr)
        rows = class_rows(G)
        by_order = {}
        for c, crows in enumerate(rows):
            order = G.element_order(G.elements()[crows[0][0]])
            by_order.setdefault(order, []).append(c)
        seen, drawn = set(), 0
        while drawn < quota:
            combo = tuple(sorted(rng.choice(by_order[order])
                                 for order in rng.choice(patterns)))
            if combo in seen:
                continue
            seen.add(combo)
            graph = ColouredCayleyGraph(G, [rows[c] for c in combo])
            if graph.is_connected() and not is_cca_graph(graph).is_cca:
                graphs.append(graph)
                drawn += 1
    return graphs


@pytest.fixture
def searches(monkeypatch):
    """A one-item list counting the `_MapSearch.completions` searches
    started while the test runs."""
    calls = [0]
    completions = colourauts._MapSearch.completions

    def counting(search, *args):
        calls[0] += 1
        return completions(search, *args)

    monkeypatch.setattr(colourauts._MapSearch, "completions", counting)
    return calls


def s4_witness_graph():
    G = gz.symmetric_group(4)
    return build(G, ConnectionSet.from_elements(
        G, list(is_cca_group_exhaustive(G).witness_set)))


class TestWitnessConjugates:
    """A non-CCA verdict finishes stab1 from its witness's right-
    translation conjugates and searches only where none lands.  Its
    generators are those of the pure search, which list(_strong_generators)
    runs, since it sends no witness."""

    @staticmethod
    def finish(graph, searches):
        """The verdict's generators, the pure stream's, and the searches
        each started after the witness."""
        v = is_cca_graph(graph)
        assert not v.is_cca
        searches[0] = 0
        fed = v.stab1.generators
        after_fed = searches[0]
        stream = colourauts._strong_generators(graph)
        pure = list(itertools.islice(stream, v.stab1_checked))
        searches[0] = 0
        pure += stream
        return fed, pure, after_fed, searches[0]

    @pytest.mark.parametrize("make", [
        *(functools.partial(triple_graph, *TRIPLE_GRAPHS[name])
          for name in TRIPLE_GRAPHS),
        s4_witness_graph, psl2_7_witness_graph,
        psl2_17_dihedral_16_triple_graph,
    ], ids=[*TRIPLE_GRAPHS, "S4 witness", "PSL2(7) witness",
            "PSL2(17) dihedral:16"])
    def test_generators_match_the_pure_search(self, searches, make):
        fed, pure, after_fed, after_pure = self.finish(make(), searches)
        assert fed == pure
        assert after_fed < after_pure

    @pytest.mark.parametrize("name,pure_searches,fed_searches", [
        ("S5-setwise", 12, 3), ("S6", 5, 0),
    ])
    def test_conjugates_replace_searches(self, searches, name,
                                         pure_searches, fed_searches):
        # the searches started after the witness, a deterministic count
        graph = triple_graph(*TRIPLE_GRAPHS[name])
        _, _, after_fed, after_pure = self.finish(graph, searches)
        assert (after_pure, after_fed) == (pure_searches, fed_searches)

    def test_zoo_and_sampled_non_cca_graphs(self, searches):
        graphs = [graph for _, G in gz.zoo_corpus(16)
                  for graph in class_graphs_up_to(G, 3)
                  if not is_cca_graph(graph).is_cca]
        assert len(graphs) == 40
        sample = sampled_non_cca_class_graphs()
        assert len(sample) == 200
        saved = 0
        for graph in graphs + sample:
            fed, pure, after_fed, after_pure = self.finish(graph, searches)
            assert fed == pure, graph.colours
            assert after_fed <= after_pure, graph.colours
            saved += after_pure - after_fed
        assert saved > 0

    def test_automorphisms_equal_their_conjugates(self):
        # a group automorphism equals each R_s-conjugate; a witness, which
        # is none, differs from at least one
        checked = 0
        for _, G in gz.zoo_corpus(16):
            for graph in connected_class_graphs(G):
                v = is_cca_graph(graph)
                if v.is_cca:
                    continue
                S = [s for cls in graph.colours for s in cls]
                for alpha in aut_pm1(graph):
                    assert all(right_conjugate(graph, alpha, s) == alpha
                               for s in S)
                assert any(right_conjugate(graph, v.witness, s) != v.witness
                           for s in S)
                checked += 1
        assert checked == 200

    def test_canonical_elements_are_the_level_generators(self):
        # every stab1 element, made lex-least at the first base point it
        # moves, is the search's first completion there: the generator
        checked = 0
        for _, G in gz.zoo_corpus(24):
            for graph in class_graphs_up_to(G, 3):
                gens = stab1(graph).generators
                at = {first_moved(graph, g): g for g in gens}
                for alpha in enumerate_stab1(graph):
                    if first_moved(graph, alpha) is not None:
                        w0, x = canonical_at_first_level(graph, gens, alpha)
                        assert x == at[w0], graph.colours
                        checked += 1
        assert checked == 2815

    def test_a_search_that_misses_a_generator_is_caught(self, monkeypatch):
        # a level search after the witness that wrongly finds nothing
        # leaves a level marked trivial; a later conjugate that moves its
        # base point first is an internal error, exit 4 in the CLI
        graph = triple_graph(*TRIPLE_GRAPHS["S5-setwise"])
        G = graph.group
        set_text = ",".join(G.elem_str(cls[0]) for cls in graph.colours)
        completions = colourauts._MapSearch.completions
        calls, fail = [0], [0]

        def missing(search, *args):
            calls[0] += 1
            if calls[0] == fail[0]:
                return (alpha for alpha in ())
            return completions(search, *args)

        monkeypatch.setattr(colourauts._MapSearch, "completions", missing)
        caught = []
        for fail[0] in range(2, 16):
            calls[0] = 0
            v = is_cca_graph(graph)
            try:
                v.stab1
            except AssertionError:
                calls[0] = 0
                assert cli.main(["cca", "S5", "--set", set_text]) \
                    == cli.EXIT_INTERNAL
                caught.append(fail[0])
        assert caught
