import ast
import copy
import itertools
import pickle
import random
from functools import partial
from pathlib import Path

import pytest

from oracle_cycles import parse_cycles as reference_parse_cycles
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

    @staticmethod
    def random_cycles(rng, degree):
        """Cycle notation of up to five cycles on 1..degree: overlapping,
        empty, comma-separated, and now and then with a repeated point or
        one out of range."""
        cycles = []
        for _ in range(rng.randint(0, 5)):
            pts = rng.sample(range(1, degree + 1), rng.randint(0, degree))
            if pts and rng.random() < 0.1:
                pts.append(rng.choice(pts))
            if rng.random() < 0.1:
                pts.insert(rng.randint(0, len(pts)),
                           rng.choice([0, degree + 1, degree + 7]))
            sep = rng.choice([" ", ",", ", ", "  "])
            cycles.append("(" + sep.join(map(str, pts)) + ")")
        return rng.choice(["", " "]).join(cycles)

    def test_matches_the_per_cycle_product(self):
        rng = random.Random(20261020)
        raised = 0
        for _ in range(3000):
            degree = rng.randint(1, 9)
            text = self.random_cycles(rng, degree)
            try:
                want = reference_parse_cycles(text, degree)
            except ValueError as ex:
                raised += 1
                with pytest.raises(ValueError) as got:
                    parse_cycles(text, degree)
                assert str(got.value) == str(ex), text
                continue
            got = parse_cycles(text, degree)
            assert type(got) is Permutation
            assert got == want, text
        assert 300 < raised < 1500


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


# (group, t, subgroup kind, 1-based points): validate_triple's inputs are
# (S_H(tau), {t}, t^2) for H the subgroup at those points
TRIPLE_INPUTS = (
    ("A6", "(1 2)(3 4 5 6)", "point", (1,)),
    ("A7", "(1 2)(3 4 5 6)", "point", (1,)),
    ("S5", "(1 4 2 5)", "pointwise", (4, 5)),
    ("S6", "(1 2)(3 4 5 6)", "point", (1,)),
)


class TestKnownOrderStop:
    """A chain given a bound on the order stops scanning once the basic
    orbit lengths multiply to the bound, and is the unbounded chain."""

    @staticmethod
    def assert_same_chain(chain, ref, label):
        assert chain.base == ref.base, label
        assert chain.strong == ref.strong, label
        assert chain.transversals == ref.transversals, label
        assert chain.inverses == ref.inverses, label

    @pytest.fixture
    def scans(self, monkeypatch):
        """The chain of every Schreier-generator scan run, one entry per
        scan."""
        calls = []
        scan = StabilizerChain._find_and_insert_residue

        def counting(chain):
            calls.append(chain)
            return scan(chain)

        monkeypatch.setattr(StabilizerChain, "_find_and_insert_residue",
                            counting)
        return calls

    def test_zoo_groups_bounded_by_their_own_order(self, scans):
        for label, degree, gens, hint in reference_cases():
            del scans[:]
            ref = StabilizerChain(degree, gens, base_hint=hint)
            unbounded = len(scans)
            del scans[:]
            chain = StabilizerChain(degree, gens, base_hint=hint,
                                    order_bound=ref.order())
            self.assert_same_chain(chain, ref, label)
            # the final scan, which finds nothing, is the one skipped
            assert len(scans) == unbounded - 1, label

    @pytest.mark.parametrize("expr, t, kind, points", TRIPLE_INPUTS)
    def test_validate_triple_subgroups(self, scans, expr, t, kind, points):
        G = groupzoo.construct(expr)
        G.order()
        pts = [p - 1 for p in points]
        H = (G.point_stabilizer(pts[0]) if kind == "point"
             else groupzoo.pointwise_stabilizer(G, pts))
        t = parse_cycles(t, G.degree)
        tau = t * t
        S = s_tau(H, tau).elements
        stopped = 0
        for gens in (S + [t], S + [tau]):   # <S u T> = G, <S u {tau}>
            X = G.generated_subgroup(gens)
            assert X._listing_bound() == G.order()
            del scans[:]
            chain = X.chain
            bounded = len(scans)
            del scans[:]
            ref = StabilizerChain(G.degree, X.generators())
            self.assert_same_chain(chain, ref, expr)
            stopped += bounded < len(scans)
        assert stopped == 1                 # at <S u T> = G only


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
                    "PSL2(25)", "PSL2(27)", "PSL2(29)", "M11", "C2 x S3",
                    "C1", "S2", "D8")},
    "regular C7": lambda: groupzoo.cyclic_group(7),
    "PSL2(17) point stabilizer": psl2_17_point_stabilizer,
    "S6 setwise {5, 6}": s6_setwise_stabilizer,
    "PSL2(7) S(tau) span": psl2_7_s_tau_span,
}

# the cases listed unkeyed: a base of more than degree/2 points, or of none
UNKEYED_CASES = ("C2 x S3", "S6 setwise {5, 6}", "C1")

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
    def test_named_group(self, name, closure_calls):
        G = IMAGE_TUPLE_CASES[name]()
        del closure_calls[:]
        self.check(G)
        # the group's own listing, keyed by base images at a short base
        assert ("key" in closure_calls[0][1]) == (name not in UNKEYED_CASES)

    def test_short_bases_of_every_length(self):
        lengths = {name: len(IMAGE_TUPLE_CASES[name]().chain.base)
                   for name in ("C1", "S2", "regular C7", "D8", "PSL2(29)")}
        assert lengths == {"C1": 0, "S2": 1, "regular C7": 1, "D8": 2,
                           "PSL2(29)": 3}

    def test_mult_table_is_the_rows(self):
        G = groupzoo.symmetric_group(4)
        assert G.mult_table() == [generic_row(G, a) for a in G.elements()]


class TestKeyedRows:
    """left_row at a short base, by base images, against FiniteGroup's
    lookup of the full products, for every element; a long base hands the
    call to FiniteGroup's."""

    @staticmethod
    def product_rows(monkeypatch):
        """The elements FiniteGroup.left_row is called with, as a list."""
        calls = []
        left_row = fgroup.FiniteGroup.left_row

        def counting(group, s):
            calls.append(s)
            return left_row(group, s)
        monkeypatch.setattr(fgroup.FiniteGroup, "left_row", counting)
        return calls

    def test_short_bases(self, monkeypatch):
        groups = [G for _, G in groupzoo.zoo_corpus(48)
                  if isinstance(G, PermutationGroup) and G._short_base()]
        # PSL(2, 2) and PSL(2, 4) have bases of 2 points on 3 and 3 points
        # on 5: long ones
        groups += [groupzoo.psl2(q) for q in (3, 5, 7, 8, 9, 11, 13)]
        assert len(groups) > 30
        calls = self.product_rows(monkeypatch)
        for G in groups:
            assert G._short_base() is not None
            for s in G.elements():
                row = G.left_row(s)
                assert calls == []
                assert row == fgroup.FiniteGroup.left_row(G, s)
                del calls[:]

    def test_long_bases(self, monkeypatch):
        groups = [G for _, G in groupzoo.zoo_corpus(48)
                  if isinstance(G, PermutationGroup)
                  and G._short_base() is None]
        groups += [groupzoo.psl2(2), groupzoo.psl2(4),
                   groupzoo.symmetric_group(5),
                   groupzoo.alternating_group(6)]
        assert len(groups) > 5
        calls = self.product_rows(monkeypatch)
        for G in groups:
            for s in G.generators():
                del calls[:]
                assert G.left_row(s) == generic_row(G, s)
                assert calls == [s]


class TestUnkeyedListing:
    """A group given by generators alone, listed under a limit with no
    chain, against the same group keyed by its chain's base: the same
    listing, rows and table.  The inverse row that mult_table fills from
    the partner rows is checked against one inversion per element."""

    def test_zoo_corpus(self, chains_built):
        groups = [G for _, G in groupzoo.zoo_corpus(48)
                  if isinstance(G, PermutationGroup)]
        assert len(groups) > 30
        for G in groups:
            unkeyed, keyed = (PermutationGroup(G.degree, G.generators())
                              for _ in range(2))
            keyed.chain         # keys its listing and rows by its base
            del chains_built[:]
            assert unkeyed.order_within(G.order()) == G.order()
            elems = unkeyed.elements()
            assert elems == keyed.elements()
            assert [unkeyed.left_row(s) for s in elems] \
                == [keyed.left_row(s) for s in elems]
            assert unkeyed.mult_table() == keyed.mult_table()
            assert chains_built == []
            for H in (unkeyed, keyed):
                index = H.element_index()
                assert H.inverse_row() == [index[H.invert(v)] for v in index]


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
    """A subgroup of a group of known order lists without its own chain,
    keyed by its ancestor's base when that base is short."""

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
        # a perm: atom, unlike the named S5, is given no order
        S5 = groupzoo.construct("perm:5:(1 2),(1 2 3 4 5)")
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

    def test_point_stabilizer_is_bounded_by_its_own_order(self,
                                                          chains_built):
        # one chain, based at the point, gives the stabilizer its order and
        # base, so it lists under a limit its parent is past and builds no
        # chain of its own
        for expr, point, order, base in [
                ("S6", 0, 120, [0, 1, 2, 4, 3]),
                ("A7", 0, 360, [0, 2, 1, 4, 3]),
                ("A8", 0, 2520, [0, 1, 2, 3, 4, 5]),
                ("PSL2(17)", 17, 136, [17, 0, 1])]:
            G = groupzoo.construct(expr, enum_limit=2 * order)
            del chains_built[:]
            H = G.point_stabilizer(point)
            assert [kwargs["base_hint"] for _, kwargs in chains_built] \
                == [(point,)]
            assert H._chain is None
            assert H._listing_bound() == H.order() == order
            assert H._known_base() == base
            assert len(H.elements()) == order
            assert len(chains_built) == 1 and H._chain is None

    def test_psl2_17_subgroups_list_by_the_ancestors_base(
            self, chains_built, closure_calls):
        G = groupzoo.construct("PSL2(17)")
        H = G.point_stabilizer(17)
        N = groupzoo.normalizer_bruteforce(
            G, groupzoo.cyclic_subgroups_of_order(G, 8)[0])
        del chains_built[:], closure_calls[:]
        assert len(H.elements()) == 2448 // 18
        assert len(N.elements()) == 16
        assert chains_built == []
        assert len(closure_calls) == 2
        assert all("key" in kwargs for _, kwargs in closure_calls)
        assert H.elements() == generic_listing(H)
        assert N.elements() == generic_listing(N)

    @pytest.mark.parametrize("expr, gens, order", [
        ("C1", [], 1),                              # a base of no points
        ("C8", ["(1 3 5 7)(2 4 6 8)"], 4),          # a base of one point
    ])
    def test_bases_of_zero_and_one_point(self, chains_built, expr, gens,
                                         order):
        G = groupzoo.construct(expr)
        G.chain                 # H's generators are sifted through it
        H = G.generated_subgroup([parse_cycles(c, G.degree) for c in gens])
        del chains_built[:]
        assert len(H.elements()) == order
        assert chains_built == []
        assert H.elements() == generic_listing(H)
        assert H.involutions() == [x for x in H.elements()
                                   if x.order() == 2]
