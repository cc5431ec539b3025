import ast
import copy
import itertools
import pickle
import random
from functools import partial
from pathlib import Path

import pytest

from oracle_schreier_sims import StabilizerChain as ReferenceChain

from ccakit import fgroup, groupzoo
from ccakit.fgroup import LimitExceeded
from ccakit.permcore import (Permutation, PermutationGroup, StabilizerChain,
                             orbit_transversal, parse_cycles)
from ccakit.triples import s_tau

REPO = Path(__file__).resolve().parents[1]


def brute_closure(gens):
    """Independent closure oracle: repeated multiplication until stable."""
    degree = gens[0].degree
    elems = {Permutation.identity(degree)}
    frontier = list(elems)
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in elems:
                    elems.add(y)
                    new.append(y)
        frontier = new
    return elems


class TestPermutation:
    def test_compose_left_to_right(self):
        # (p * q)(i) = q(p(i))
        p = parse_cycles("(1 2)", 3)
        q = parse_cycles("(2 3)", 3)
        r = p * q
        assert r[0] == q[p[0]]
        assert r.cycle_str() == "(1 3 2)"

    def test_involution_squares_to_identity(self):
        p = parse_cycles("(1 2)", 2)
        assert (p * p).is_identity()

    def test_identity_is_neutral(self):
        p = parse_cycles("(1 3 2)", 4)
        e = Permutation.identity(4)
        assert p * e == p and e * p == p

    def test_three_cycle_squared(self):
        p = parse_cycles("(1 2 3)", 3)
        assert (p * p).cycle_str() == "(1 3 2)"

    def test_inverse(self):
        rng = random.Random(5)
        for _ in range(50):
            images = list(range(7))
            rng.shuffle(images)
            p = Permutation(tuple(images))
            assert (p * p.inverse()).is_identity()
            assert (p.inverse() * p).is_identity()

    def test_order(self):
        assert Permutation.identity(4).order() == 1
        assert parse_cycles("(1 4 2 5)", 5).order() == 4
        assert parse_cycles("(1 2)(3 4 5 6)", 6).order() == 4
        assert parse_cycles("(1 2)(3 4 5)", 5).order() == 6

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 1))

    def test_immutable(self):
        p = Permutation([1, 0, 2])
        d = {p: 1}
        with pytest.raises(AttributeError):
            p.images = (0, 1, 2)
        with pytest.raises(AttributeError):
            del p.images
        assert tuple(p) == (1, 0, 2)
        assert d[p] == 1 and Permutation([1, 0, 2]) in d

    def test_pickle_and_copy_round_trip(self):
        p = parse_cycles("(1 3 2)", 4)
        for q in (pickle.loads(pickle.dumps(p)), copy.copy(p),
                  copy.deepcopy(p)):
            assert q == p and hash(q) == hash(p)
            assert type(q) is Permutation

    @pytest.mark.parametrize("protocol",
                             range(pickle.HIGHEST_PROTOCOL + 1))
    def test_forged_pickle_is_validated(self, protocol):
        """Unpickling rebuilds through the validating constructor, so a
        pickle whose images are no bijection is refused."""
        data = pickle.dumps(Permutation((2, 0, 1)), protocol=protocol)
        # the images are pickled as three ints: as text ("I2\n") at
        # protocol 0, as one-byte ints (BININT1, "K") from protocol 1 on
        if protocol == 0:
            forged = data.replace(b"I2\nI0\nI1\n", b"I2\nI2\nI1\n")
        else:
            forged = data.replace(b"K\x02K\x00K\x01", b"K\x02K\x02K\x01")
        assert forged != data
        with pytest.raises(ValueError, match="not a permutation"):
            pickle.loads(forged)


class TestTrustedArithmetic:
    """Products, inverses and identities skip validation; check that what
    they build is exactly what the validating constructor would build."""

    def test_results_equal_validated_permutations(self):
        rng = random.Random(20261018)
        for _ in range(400):
            n = rng.randint(1, 12)
            p, q = (Permutation(rng.sample(range(n), n)) for _ in range(2))
            pq = p * q
            assert Permutation(tuple(pq)) == pq
            assert tuple(pq) == tuple(q[p[i]] for i in range(n))
            assert type(pq) is Permutation and isinstance(pq, tuple)
            assert Permutation(tuple(p.inverse())) == p.inverse()
            assert (p * p.inverse()).is_identity()
            assert p * p.inverse() == Permutation.identity(n)
            assert Permutation.identity(n) == Permutation(range(n))
            m = rng.choice([k for k in range(1, 13) if k != n])
            with pytest.raises(ValueError):
                p * Permutation.identity(m)

    @pytest.mark.parametrize("make", [
        lambda: Permutation((1, 2)),
        lambda: PermutationGroup(3, [[0, 0, 1]]),
        lambda: PermutationGroup(3, [[1, 0]]),
        lambda: parse_cycles("(1 2", 3),
        lambda: groupzoo.construct("S5").elem_parse("(1 6)"),
        lambda: groupzoo.construct("perm:3:(1 2 1)"),
    ], ids=["short-images", "group-non-bijection", "group-degree",
            "cycles-malformed", "elem-parse-range", "expr-repeated-point"])
    def test_invalid_input_is_rejected_where_it_enters(self, make):
        with pytest.raises(ValueError):
            make()

    def test_unchecked_constructor_stays_private_to_permcore(self):
        """Only permcore may build a Permutation without validation, by
        ``_trusted`` or ``tuple.__new__``; every other module, test and
        benchmark goes through Permutation(...)."""
        allowed = REPO / "src" / "ccakit" / "permcore.py"
        files = [f for d in ("src", "tests", "bench")
                 for f in sorted((REPO / d).rglob("*.py"))]
        assert allowed in files
        offenders = []
        for f in files:
            if f == allowed:
                continue
            for node in ast.walk(ast.parse(f.read_text(), str(f))):
                name = (node.attr if isinstance(node, ast.Attribute) else
                        node.id if isinstance(node, ast.Name) else None)
                tuple_new = (name == "__new__"
                             and isinstance(node.value, ast.Name)
                             and node.value.id == "tuple")
                if name == "_trusted" or tuple_new:
                    offenders.append(f"{f.relative_to(REPO)}:{node.lineno}")
        assert offenders == []


class TestCycleNotation:
    def test_round_trip(self):
        for text, degree in [("(1 2)(3 4 5 6)", 6), ("(1 4 2 5)", 5),
                             ("()", 3), ("(2 10)(4 11)(5 7)(8 9)", 11)]:
            p = parse_cycles(text, degree)
            assert parse_cycles(p.cycle_str(), degree) == p

    def test_identity_prints_as_unit(self):
        assert Permutation.identity(5).cycle_str() == "()"

    def test_whitespace_insensitive(self):
        a = parse_cycles("(1 2)( 3  4 )", 4)
        b = parse_cycles("(1 2)(3 4)", 4)
        assert a == b

    def test_out_of_range_point(self):
        with pytest.raises(ValueError):
            parse_cycles("(1 7)", 5)

    def test_repeated_point_within_cycle(self):
        with pytest.raises(ValueError):
            parse_cycles("(1 2 1)", 4)

    def test_non_disjoint_cycles_compose(self):
        # cycles are applied left to right, so this is a legal product
        assert parse_cycles("(1 2)(2 3)", 4).cycle_str() == "(1 3 2)"


def assert_strong_generating_set(chain, order):
    """What the chain keeps without a guard: no strong generator twice,
    each moving a base point, and the group's order."""
    assert len(set(chain.strong)) == len(chain.strong)
    assert all(any(g[b] != b for b in chain.base) for g in chain.strong)
    assert chain.order() == order


class TestGroupOrder:
    def test_sym4(self):
        G = PermutationGroup(4, [parse_cycles("(1 2)", 4),
                                 parse_cycles("(1 2 3 4)", 4)])
        assert G.order() == 24

    def test_trivial(self):
        G = PermutationGroup(3, [])
        assert G.order() == 1
        assert G.elements() == [Permutation.identity(3)]

    def test_alt5(self):
        G = PermutationGroup(5, [parse_cycles("(1 2 3)", 5),
                                 parse_cycles("(3 4 5)", 5)])
        assert G.order() == 60

    def test_chain_order_equals_closure_size(self):
        cases = [
            [parse_cycles("(1 2)", 4), parse_cycles("(1 2 3 4)", 4)],
            [parse_cycles("(1 2 3)", 5), parse_cycles("(3 4 5)", 5)],
            [parse_cycles("(1 2)", 6), parse_cycles("(1 2 3 4 5 6)", 6)],
            [parse_cycles("(1 2)(3 4)", 4), parse_cycles("(1 3)(2 4)", 4)],
        ]
        for gens in cases:
            G = PermutationGroup(gens[0].degree, gens)
            assert G.order() == len(brute_closure(gens))

    @pytest.mark.parametrize("expr,order", [
        ("PSL2(7)", 168), ("PSL2(8)", 504), ("PSL2(9)", 360),
        ("PSL2(16)", 4080), ("PSL2(17)", 2448), ("M11", 7920)])
    def test_strong_generators_distinct_and_each_moves_a_base_point(
            self, expr, order):
        assert_strong_generating_set(groupzoo.construct(expr).chain, order)

    def test_zoo_strong_generators_distinct_and_each_moves_a_base_point(
            self):
        for expr, G in groupzoo.zoo_corpus(48):
            if isinstance(G, PermutationGroup):
                assert_strong_generating_set(
                    G.chain, len(brute_closure(G.generators())))

    def test_membership(self):
        G = PermutationGroup(5, [parse_cycles("(1 2 3)", 5),
                                 parse_cycles("(3 4 5)", 5)])
        assert G.contains(parse_cycles("(1 2)(4 5)", 5))
        assert not G.contains(parse_cycles("(1 2)", 5))

    def test_closure_under_products(self):
        G = PermutationGroup(5, [parse_cycles("(1 2 3 4 5)", 5),
                                 parse_cycles("(1 2)", 5)])
        elems = G.elements()
        rng = random.Random(11)
        for _ in range(1000):
            x = rng.choice(elems)
            y = rng.choice(elems)
            assert G.contains(x * y)

    def test_enumeration_deterministic(self):
        gens = [parse_cycles("(1 2 3)", 5), parse_cycles("(3 4 5)", 5)]
        a = PermutationGroup(5, gens).elements()
        b = PermutationGroup(5, gens).elements()
        assert a == b
        assert len(set(a)) == len(a) == 60
        assert a[0].is_identity()


class TestSubgroups:
    def setup_method(self):
        self.S4 = PermutationGroup(4, [parse_cycles("(1 2)", 4),
                                       parse_cycles("(1 2 3 4)", 4)])

    def test_point_stabilizer(self):
        H = self.S4.point_stabilizer(0)
        assert H.order() == 6
        assert all(g[0] == 0 for g in H.elements())


class TestDistinctGenerators:
    def test_first_occurrences_in_order_without_the_identity(self):
        assert fgroup.distinct_generators([3, 0, 5, 3, 1, 5, 0, 2], 0) == \
            [3, 5, 1, 2]
        assert fgroup.distinct_generators([], 0) == []
        assert fgroup.distinct_generators(iter([0, 0]), 0) == []

    def test_groups_filter_their_generators_by_it(self):
        e = Permutation.identity(4)
        a, b = parse_cycles("(1 2)", 4), parse_cycles("(2 3 4)", 4)
        gens = [e, b, a, tuple(b), e, a]
        assert fgroup.distinct_generators(gens, e) == [b, a]
        assert PermutationGroup(4, gens).generators() == [b, a]
        G = groupzoo.construct("Q8")
        x, y = G.generators()[:2]
        H = G.generated_subgroup([y, G.identity(), x, y])
        assert H.generators() == [y, x]


def point_bfs(point, gens):
    """The orbit of point, in the order a breadth-first search reaches it."""
    orbit = [point]
    for x in orbit:
        for g in gens:
            if g[x] not in orbit:
                orbit.append(g[x])
    return orbit


class TestOrbitTransversal:
    S4_GENS = [parse_cycles("(1 2)", 4), parse_cycles("(1 2 3 4)", 4)]

    @pytest.mark.parametrize("point", range(4))
    def test_sym4_from_every_point(self, point):
        t = orbit_transversal(4, point, self.S4_GENS)
        assert list(t) == point_bfs(point, self.S4_GENS)
        assert all(tx[point] == x for x, tx in t.items())
        chain = StabilizerChain(4, self.S4_GENS, base_hint=(point,))
        assert orbit_transversal(4, point, chain.strong) \
            == chain.transversals[0]

    def test_orbit_of_an_intransitive_group(self):
        gens = [parse_cycles("(1 2)(4 5)", 5), parse_cycles("(2 3)", 5)]
        t = orbit_transversal(5, 2, gens)
        assert list(t) == [2, 1, 0]
        assert all(tx[2] == x for x, tx in t.items())
        assert list(orbit_transversal(5, 3, gens)) == [3, 4]


def random_word(rng, gens, length):
    x = Permutation.identity(gens[0].degree)
    for _ in range(length):
        x = x * rng.choice(gens)
    return x


def reference_cases():
    """(label, degree, generators, base_hint) for the reference comparison.

    The permutation groups of the order-64 zoo corpus, PSL2(q) for q <= 29,
    A_n and S_n for n <= 8 and M11, each with no base hint and with base
    point 0, 1 and 2; then seeded random generating sets of 1-8 elements
    and of 60 (redundant, as in validate_triple's <S u T>), drawn as words
    in a group's generators or as random permutations.
    """
    groups = [(e, G) for e, G in groupzoo.zoo_corpus(64)
              if isinstance(G, PermutationGroup)]
    names = ([f"PSL2({q})" for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17,
                                     19, 23, 25, 27, 29)]
             + [f"{k}{n}" for n in range(1, 9) for k in "AS"] + ["M11"])
    groups += [(name, groupzoo.construct(name)) for name in names]
    cases = []
    for label, G in groups:
        for hint in [(), (0,), (1,), (2,)]:
            if all(p < G.degree for p in hint):
                cases.append((f"{label} {hint}", G.degree, G.generators(),
                              hint))
    sources = [groupzoo.construct(name) for name in
               ["S8", "A7", "M11", "PSL2(13)", "PSL2(16)", "C2 x D4", "D12"]]
    rng = random.Random(2024)
    for draw, size in enumerate([*range(1, 9)] * 6 + [60] * 6):
        if draw % 4 == 3:
            degree = rng.randint(2, 10)
            gens = [Permutation(rng.sample(range(degree), degree))
                    for _ in range(size)]
        else:
            G = sources[draw % len(sources)]
            degree = G.degree
            gens = [random_word(rng, G.generators(), 24)
                    for _ in range(size)]
        hint = () if draw % 3 else (rng.randrange(degree),)
        # the chain takes distinct generators; identities it drops itself
        gens = list(dict.fromkeys(gens))
        cases.append((f"random {draw} of {size}", degree, gens, hint))
    return cases


class TestChainMatchesReference:
    """The chain on image tuples is the chain of the plain loop over
    Permutation products (tests/oracle_schreier_sims.py): the same base,
    strong generators in order, transversals, inverses, order and
    membership answers."""

    def test_reference_cases(self):
        rng = random.Random(7)
        for label, degree, gens, hint in reference_cases():
            chain = StabilizerChain(degree, gens, base_hint=hint)
            ref = ReferenceChain(degree, gens, base_hint=hint)
            assert chain.base == ref.base, label
            assert chain.strong == ref.strong, label
            assert all(type(g) is Permutation for g in chain.strong), label
            assert chain.transversals == ref.transversals, label
            assert chain.inverses == ref.inverses, label
            assert chain.order() == ref.order(), label
            probes = [Permutation(rng.sample(range(degree), degree))
                      for _ in range(10)]
            if gens:
                probes += [random_word(rng, gens, 12) for _ in range(10)]
            probes.append(Permutation.identity(degree + 1))
            assert [chain.contains(p) for p in probes] \
                == [ref.contains(p) for p in probes], label

    @pytest.mark.parametrize("name", ["A6", "S6", "A7", "S7", "A8"])
    def test_point_stabilizer_generators(self, name):
        G = groupzoo.construct(name)
        for point in range(3):
            ref = ReferenceChain(G.degree, G.generators(), base_hint=(point,))
            assert G.point_stabilizer(point).generators() \
                == ref._level_gens(1)


def generic_listing(G):
    """The closure over Permutation products, as FiniteGroup lists it."""
    return fgroup.closure(G.identity(),
                          [partial(G.multiply, g) for g in G.generators()],
                          G.enum_limit)


def generic_row(G, s):
    index = G.element_index()
    return [index[G.multiply(s, v)] for v in G.elements()]


def psl2_17_point_stabilizer():
    return groupzoo.construct("PSL2(17)").point_stabilizer(17)


def s6_setwise_stabilizer():
    return groupzoo.setwise_stabilizer(groupzoo.construct("S6"), [4, 5])


def psl2_7_s_tau_span():
    """The span of S_G(tau) for the first involution tau of G."""
    G = groupzoo.construct("PSL2(7)")
    return s_tau(G, G.involutions()[0]).span()


IMAGE_TUPLE_CASES = {
    **{expr: (lambda expr=expr: groupzoo.construct(expr))
       for expr in ("PSL2(7)", "PSL2(8)", "PSL2(9)", "PSL2(16)", "PSL2(17)",
                    "M11", "C2 x S3")},
    "PSL2(17) point stabilizer": psl2_17_point_stabilizer,
    "S6 setwise {5, 6}": s6_setwise_stabilizer,
    "PSL2(7) S(tau) span": psl2_7_s_tau_span,
}

# rows of every element up to this order; above it, generators and a sample
ALL_ROWS_UP_TO = 504


class TestImageTupleArithmetic:
    """Listing and rows on image tuples against the Permutation-product path.

    The tuple path must give the same elements in the same order, and the
    same row for every element, as closure and multiply on Permutations.
    """

    def check(self, G):
        assert isinstance(G, PermutationGroup)
        elems = G.elements()
        assert elems == generic_listing(G)
        if len(elems) <= ALL_ROWS_UP_TO:
            sample = elems
        else:
            sample = G.generators() + random.Random(5).sample(elems, 12)
        for s in sample:
            assert G.left_row(s) == generic_row(G, s)

    def test_zoo_corpus(self):
        groups = [G for _, G in groupzoo.zoo_corpus(48)
                  if isinstance(G, PermutationGroup)]
        assert len(groups) > 30
        for G in groups:
            self.check(G)

    @pytest.mark.parametrize("name", IMAGE_TUPLE_CASES)
    def test_named_group(self, name):
        self.check(IMAGE_TUPLE_CASES[name]())

    def test_mult_table_is_the_rows(self):
        G = groupzoo.symmetric_group(4)
        assert G.mult_table() == [generic_row(G, a) for a in G.elements()]


class TestLeftMap:
    def test_left_map_is_multiply(self):
        """left_map(g) is x -> multiply(g, x), on image tuples, for every
        g and x, and both are the composition x(g(i)); degrees 1 and 2
        included, where _left_factor changes form."""
        groups = [G for _, G in groupzoo.zoo_corpus(48)
                  if isinstance(G, PermutationGroup)]
        groups += [PermutationGroup(1), PermutationGroup(2, [(1, 0)])]
        for G in groups:
            elems = G.elements()
            for g in elems:
                left = G.left_map(g)
                products = [G.multiply(g, x) for x in elems]
                assert [left(x) for x in elems] == products
                assert products == [tuple(x[i] for i in g) for x in elems]


def permutation_groups():
    """The permutation groups of the order-48 zoo corpus, and PSL2(17)."""
    groups = [G for _, G in groupzoo.zoo_corpus(48)
              if isinstance(G, PermutationGroup)]
    return groups + [groupzoo.construct("PSL2(17)")]


def non_member(G):
    """A permutation outside G, of G's degree unless G is all of S_n."""
    members = G.element_set()
    for images in itertools.permutations(range(G.degree)):
        if images not in members:
            return Permutation(images)
    return Permutation.identity(G.degree + 1)


class TestOneIndex:
    """A listed group keeps one object per element and one index: the keys
    of element_index are the listed elements, and element_set views them."""

    def test_index_keys_are_the_listed_elements(self):
        for G in permutation_groups():
            elems = G.elements()
            keys = list(G.element_index())
            assert len(keys) == len(elems)
            assert all(k is x for k, x in zip(keys, elems))

    def test_element_set_agrees_with_contains(self):
        for G in permutation_groups():
            members = G.element_set()
            for x in G.elements() + [non_member(G)]:
                assert (x in members) == G.contains(x)
            # a plain image tuple is found in the same index
            assert tuple(G.elements()[-1]) in members


class TestSubgroupOrderBound:
    """A subgroup of a group of known order lists without its own chain."""

    def test_subgroup_of_an_ordered_group_builds_no_chain(self):
        S5 = groupzoo.symmetric_group(5)
        assert S5.order() == 120
        H = groupzoo.setwise_stabilizer(S5, [3, 4])
        assert len(H.elements()) == 12
        assert H._chain is None
        # a bounded subgroup bounds its own subgroups in turn
        K = H.generated_subgroup([parse_cycles("(4 5)", 5)])
        assert len(K.elements()) == 2
        assert K._chain is None

    def test_subgroup_of_an_unordered_group_checks_its_order(self):
        S5 = groupzoo.symmetric_group(5)
        H = S5.generated_subgroup([parse_cycles("(1 2 3)", 5)])
        assert len(H.elements()) == 3
        assert H._chain is not None

    def test_lowered_subgroup_limit_still_refuses(self, closure_calls):
        S5 = groupzoo.symmetric_group(5)
        S5.order()
        H = S5.point_stabilizer(4)
        H.enum_limit = 10
        del closure_calls[:]
        with pytest.raises(LimitExceeded, match="group order 24"):
            H.elements()                      # |S4| = 24 > 10
        assert closure_calls == []

    def test_parent_over_the_limit_refuses_before_listing(self,
                                                          closure_calls):
        S5 = groupzoo.construct("S5", enum_limit=13)
        with pytest.raises(LimitExceeded):
            S5.elements()
        H = S5.point_stabilizer(4)
        del closure_calls[:]
        with pytest.raises(LimitExceeded, match="group order 24"):
            H.elements()
        assert closure_calls == []
        # a subgroup within the limit still lists, after its own order check
        C3 = S5.generated_subgroup([parse_cycles("(1 2 3)", 5)])
        assert len(C3.elements()) == 3
        assert C3._chain is not None

    def test_generators_outside_the_parent_get_no_bound(self, closure_calls):
        # <(1 2), (1 2 3 4 5)> is S5, of order 120, though A5 has order 60
        A5 = groupzoo.construct("A5", enum_limit=100)
        assert A5.order() == 60
        outside = [parse_cycles("(1 2)", 5), parse_cycles("(1 2 3 4 5)", 5)]
        H = A5.generated_subgroup(outside)
        with pytest.raises(LimitExceeded, match="group order 120"):
            H.elements()
        assert closure_calls == []
        # the same from a bounded subgroup whose elements are listed
        K = A5.generated_subgroup([parse_cycles("(1 2 3)", 5)])
        assert len(K.elements()) == 3
        assert K._chain is None
        L = K.generated_subgroup(outside)
        del closure_calls[:]
        with pytest.raises(LimitExceeded, match="group order 120"):
            L.elements()
        assert closure_calls == []

    def test_point_stabilizer_is_bounded_by_its_own_order(self):
        S6 = groupzoo.construct("S6", enum_limit=200)
        H = S6.point_stabilizer(0)
        assert H._order_bound == 120
        assert len(H.elements()) == 120
        assert H._chain is None
