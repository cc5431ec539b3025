import json
import random
from functools import partial

import pytest

from oracle_collect import collect_word, element_to_word, multiply_oracle

from ccakit import cli, fgroup, groupzoo
from ccakit import triples as tr
from ccakit.higman import (
    HigmanGroup,
    HigmanParams,
    _is_regular,
    gamma,
    inverse,
    multiply,
    params_from_spec,
    quaternion_params,
    regular_representation,
    relation_audit,
    sample_params,
    theorem3_triple,
)
from ccakit.fgroup import GeneratedSubgroup, LimitExceeded
from ccakit.permcore import Permutation, parse_cycles


def hand_built_q8_table():
    """Q8 on symbols 1, -1, i, -i, j, -j, k, -k; independent of the library."""
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]

    def neg(x):
        return x[1:] if x.startswith("-") else "-" + x

    base = {
        ("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1",
        ("i", "j"): "k", ("j", "i"): "-k",
        ("j", "k"): "i", ("k", "j"): "-i",
        ("k", "i"): "j", ("i", "k"): "-j",
    }

    def mul(a, b):
        sign = 1
        if a.startswith("-"):
            sign, a = -sign, a[1:]
        if b.startswith("-"):
            sign, b = -sign, b[1:]
        if a == "1":
            out = b
        elif b == "1":
            out = a
        else:
            out = base[(a, b)]
        return neg(out) if sign < 0 else out

    return names, mul


class TestQuaternionInstance:
    def test_matches_hand_built_q8(self):
        G = HigmanGroup(quaternion_params())
        assert G.order() == 8
        # structural fingerprint: unique involution, nonabelian, exponent 4
        invs = G.involutions()
        assert len(invs) == 1
        assert any(not G.commutes(a, b)
                   for a in G.elements() for b in G.elements())
        assert all(G.element_order(x) in (1, 2, 4) for x in G.elements())
        # order profile must match the hand-built Q8 table
        names, mul = hand_built_q8_table()

        def order_of(x):
            k, y = 1, x
            while y != "1":
                y = mul(y, x)
                k += 1
            return k

        expected = sorted(order_of(x) for x in names)
        got = sorted(G.element_order(x) for x in G.elements())
        assert got == expected

    def test_r1_s1_is_c4(self):
        params = HigmanParams(r=1, s=1, b=(1,), c=(), constrained=False)
        G = HigmanGroup(params)
        assert G.order() == 4
        g = G.g(1)
        assert G.element_order(g) == 4


class TestMultiplication:
    def test_identity_neutral(self):
        params = sample_params(7, 3)
        G = HigmanGroup(params)
        e = G.identity()
        for x in G.elements()[:50]:
            assert G.multiply(e, x) == x
            assert G.multiply(x, e) == x

    def test_inverse(self):
        params = sample_params(8, 5)
        G = HigmanGroup(params)
        rng = random.Random(1)
        elems = G.elements()
        for _ in range(200):
            x = rng.choice(elems)
            assert G.multiply(x, G.invert(x)) == G.identity()
            assert G.multiply(G.invert(x), x) == G.identity()

    @pytest.mark.parametrize("x", [(1 << 10, 1 << 7), (-3, 0)])
    def test_inverse_rejects_what_multiply_rejects(self, x):
        # n = 6 gives r = 4, s = 2: neither element fits those dimensions
        params = sample_params(6, 1)
        G = HigmanGroup(params)
        assert not G.contains(x)
        with pytest.raises(ValueError):
            multiply(params, x, G.identity())
        with pytest.raises(ValueError):
            inverse(params, x)
        with pytest.raises(ValueError):
            G.invert(x)

    @pytest.mark.parametrize("expr", ["Q8", "higman:n=6,seed=1"])
    def test_contains_takes_pairs_not_permutations(self, expr):
        # a degree-2 Permutation is a tuple of two ints, but no element
        G = groupzoo.construct(expr)
        assert isinstance(G, HigmanGroup)
        assert all(map(G.contains, G.elements()))
        assert not G.contains(Permutation((0, 1)))
        assert not G.contains(Permutation((1, 0)))

    @pytest.mark.parametrize("n", range(3, 11))
    def test_associativity(self, n):
        params = sample_params(n, 17)
        G = HigmanGroup(params)
        elems = G.elements()
        rng = random.Random(n)
        for _ in range(200):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert G.multiply(G.multiply(a, b), c) == \
                G.multiply(a, G.multiply(b, c))

    @pytest.mark.parametrize("n", range(3, 11))
    def test_closed_form_equals_word_rewriting(self, n):
        for seed in (1, 2):
            params = sample_params(n, seed)
            G = HigmanGroup(params)
            elems = G.elements()
            rng = random.Random(1000 * n + seed)
            for _ in range(110):
                a = rng.choice(elems)
                b = rng.choice(elems)
                assert multiply(params, a, b) == \
                    multiply_oracle(params, a, b)

    def test_word_round_trip(self):
        params = sample_params(6, 9)
        G = HigmanGroup(params)
        for x in G.elements():
            assert collect_word(params, element_to_word(params, x)) == x

    def test_gamma_bilinear(self):
        params = sample_params(7, 4)
        rng = random.Random(2)
        top = 1 << params.r
        for _ in range(200):
            a, b, c = (rng.randrange(top) for _ in range(3))
            assert gamma(params, a ^ b, c) == \
                gamma(params, a, c) ^ gamma(params, b, c)
            assert gamma(params, a, b ^ c) == \
                gamma(params, a, b) ^ gamma(params, a, c)


class TestGammaTables:
    """gamma reads precomputed block tables; the collector is the oracle."""

    @staticmethod
    def collected_gamma(params, left_e, right_e):
        e, f = multiply_oracle(params, (left_e, 0), (right_e, 0))
        assert e == left_e ^ right_e
        return f

    @pytest.mark.parametrize("n", range(3, 7))
    def test_equals_collector_on_all_pairs(self, n):
        for seed in (1, 2, 3):
            params = sample_params(n, seed)
            top = 1 << params.r
            for left in range(top):
                for right in range(top):
                    assert gamma(params, left, right) == \
                        self.collected_gamma(params, left, right)

    @pytest.mark.parametrize("n", [9, 12, 14])
    def test_equals_collector_on_sampled_pairs(self, n):
        params = sample_params(n, 7)
        rng = random.Random(n)
        top = 1 << params.r
        for _ in range(2000):
            left, right = rng.randrange(top), rng.randrange(top)
            assert gamma(params, left, right) == \
                self.collected_gamma(params, left, right)

    def test_tables_stay_small_for_large_r(self):
        params = sample_params(60, 1)        # r = 40: 2^40 e-parts
        assert params.r == 40
        blocks = ((params.r + 3) // 4) * ((params.r + 7) // 8)
        assert len(params._gamma_tables) <= blocks
        assert all(len(t) == 4096 for _, _, t in params._gamma_tables)
        x = (1 << 39) | 5
        assert multiply(params, (x, 0), inverse(params, (x, 0))) == (0, 0)

    def test_group_too_large_to_list_builds_no_tables(self, monkeypatch,
                                                      capsys):
        # the CLI refuses to list 2^360 elements; keep the group it built
        real_construct = groupzoo.construct
        built = []

        def construct(*args):
            G = real_construct(*args)
            built.append(G)
            return G

        monkeypatch.setattr(groupzoo, "construct", construct)
        assert cli.main(["group", "higman:n=360,seed=1"]) == cli.EXIT_LIMIT
        assert "limit exceeded" in capsys.readouterr().err
        (G,) = built
        assert "_gamma_tables" not in vars(G.params)

    def test_tables_leave_equality_and_hash_alone(self):
        a, b = sample_params(9, 4), sample_params(9, 4)
        multiply(a, (5, 1), (3, 0))
        assert "_gamma_tables" in vars(a)
        assert "_gamma_tables" not in vars(b)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


def row_cases(n):
    """Instances of order 2^n: three sampled seeds, and Q8 at n = 3."""
    cases = [sample_params(n, seed) for seed in (1, 2, 3)]
    return cases + [quaternion_params()] if n == 3 else cases


def multiply_row(G, s):
    """The index of s*v for every element v, by G.multiply alone."""
    index = G.element_index()
    return [index[G.multiply(s, v)] for v in G.elements()]


class TestRowsAndMaps:
    """Rows and left maps against multiply: a row built by multiply alone
    and the closure over partial(multiply, g) are the oracles, so neither
    goes through left_map."""

    @pytest.mark.parametrize("n", range(3, 13))
    def test_rows_equal_the_generic_rows(self, n):
        for params in row_cases(n):
            G = HigmanGroup(params)
            elems = G.elements()
            sample = (elems if n <= 8 else
                      G.generators() + random.Random(n).sample(elems, 12))
            for s in sample:
                assert G.left_row(s) == multiply_row(G, s)

    @pytest.mark.parametrize("s", [(4, 0), (-1, 0), (0, 4), (0, -1)])
    def test_out_of_range_row_refused(self, s):
        G = HigmanGroup(sample_params(4, 1))       # r = s = 2
        with pytest.raises(ValueError, match="does not fit"):
            G.left_row(s)

    def test_row_keeps_the_enumeration_limit(self):
        G = HigmanGroup(sample_params(6, 1))
        G.enum_limit = G.order() - 1
        with pytest.raises(LimitExceeded):
            G.left_row(G.identity())

    @pytest.mark.parametrize("n", range(3, 9))
    def test_left_map_is_multiply(self, n):
        for params in row_cases(n):
            G = HigmanGroup(params)
            elems = G.elements()
            for g in elems:
                left = G.left_map(g)
                assert [left(x) for x in elems] == \
                    [G.multiply(g, x) for x in elems]

    @pytest.mark.parametrize("n", range(3, 11))
    def test_subgroups_list_through_the_parent_maps(self, n):
        # the two subgroups validate_triple lists, <S u T> and <S u {tau}>:
        # their listings, maps and rows
        params = sample_params(n, 3)
        G = HigmanGroup(params)
        S = [G.g(i) for i in range(1, params.r - 1)] + \
            [G.h(j) for j in range(1, params.s + 1)]
        T, tau = [G.g(params.r - 1), G.g(params.r)], G.h(1)
        for gens in (S + T, S + [tau]):
            H = G.generated_subgroup(gens)
            assert isinstance(H, GeneratedSubgroup)
            elems = H.elements()
            assert elems == fgroup.closure(
                G.identity(), [partial(G.multiply, g) for g in gens],
                G.enum_limit)
            for g in H.generators():
                left = H.left_map(g)
                assert [left(x) for x in elems] == \
                    [G.multiply(g, x) for x in elems]
            sample = (elems if len(elems) <= 64 else
                      H.generators() + random.Random(n).sample(elems, 8))
            for s in sample:
                assert H.left_row(s) == multiply_row(H, s)

    @pytest.mark.parametrize("g", [(1 << 10, 0), (-3, 0), (0, 1 << 7)])
    def test_left_map_refuses_what_multiply_refuses(self, g):
        G = HigmanGroup(sample_params(6, 1))       # r = 4, s = 2
        with pytest.raises(ValueError) as by_multiply:
            G.multiply(g, G.identity())
        with pytest.raises(ValueError) as by_map:
            G.left_map(g)
        assert str(by_map.value) == str(by_multiply.value)


class TestRelations:
    @pytest.mark.parametrize("n", range(3, 11))
    def test_relation_audit_clean(self, n):
        for seed in (1, 5, 12):
            G = HigmanGroup(sample_params(n, seed))
            assert relation_audit(G) == []

    def test_audit_catches_wrong_group(self):
        # multiplying in a group with tampered c must break some relation
        params = sample_params(5, 1)
        bad = HigmanParams(r=params.r, s=params.s, b=params.b,
                           c=tuple(x ^ 1 for x in params.c),
                           constrained=params.constrained)
        G_bad = HigmanGroup(bad)
        audit_of_good_relations = [
            v for v in relation_audit(G_bad)]
        # the audit checks bad's own relations, which still hold; instead
        # verify the two groups genuinely differ somewhere
        G = HigmanGroup(params)
        assert audit_of_good_relations == []
        diff = any(
            multiply(params, a, b) != multiply(bad, a, b)
            for a in G.elements() for b in G.elements())
        assert diff

    def test_order_is_2_to_n(self):
        for n in range(3, 11):
            G = HigmanGroup(sample_params(n, 7))
            assert G.order() == 2 ** n
            assert len(set(G.elements())) == 2 ** n


class TestSampler:
    def test_deterministic(self):
        assert sample_params(8, 42) == sample_params(8, 42)
        assert sample_params(8, 42) != sample_params(8, 43)

    def test_shape(self):
        for n in range(3, 12):
            p = sample_params(n, 1)
            assert p.r == (2 * n) // 3
            assert p.r + p.s == n
            assert p.constrained
            # the last two b rows are forced to the first basis vector
            assert p.b[p.r - 1] == 1 and p.b[p.r - 2] == 1

    def test_n3_fully_forced_b(self):
        p = sample_params(3, 99)
        assert p.r == 2 and p.s == 1
        assert p.b == (1, 1)

    def test_n6_free_bit_count(self):
        # r=4, s=2: b rows 1..2 free (4 bits) + c (6 pairs x 2 bits) = 16
        seen = {sample_params(6, seed) for seed in range(300)}
        assert len(seen) > 100          # plenty of distinct instances
        p = sample_params(6, 1)
        assert p.r == 4 and p.s == 2
        assert len(p.c) == 6

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            sample_params(2, 1)


class TestParamsIO:
    def test_json_round_trip(self):
        p = sample_params(7, 13)
        d = p.to_json_dict()
        q = HigmanParams.from_json_dict(json.loads(json.dumps(d)))
        assert q == p

    def test_inline_spec(self):
        p = params_from_spec("n=8,seed=42")
        assert p == sample_params(8, 42)

    def test_file_spec(self, tmp_path):
        p = sample_params(6, 3)
        f = tmp_path / "params.json"
        f.write_text(json.dumps(p.to_json_dict()))
        assert params_from_spec(f"@{f}") == p

    @pytest.mark.parametrize("i,j,k", [(3, 1, 1), (2, 2, 1), (1, 4, 1),
                                       (1, 2, 0), (1, 2, 3)])
    def test_c_entry_outside_range_refused(self, i, j, k):
        # r = 3, s = 2: each entry would land on some other pair or bit
        d = sample_params(5, 1).to_json_dict()
        d["c"] = [{"i": i, "j": j, "k": k, "bit": 1}]
        with pytest.raises(ValueError, match="c entry"):
            HigmanParams.from_json_dict(d)

    @pytest.mark.parametrize("edit", [
        lambda d: d["b"].__setitem__(0, [2, 0]),
        lambda d: d["b"].__setitem__(0, [1]),
        lambda d: d["b"].__setitem__(0, [1, 0, 0]),
        lambda d: d["c"][0].__setitem__("bit", 5),
        lambda d: d["c"].append(dict(d["c"][1], bit=0)),
        lambda d: d.__setitem__("n", 7),
    ], ids=["b-entry-2", "b-row-short", "b-row-long", "c-bit-5",
            "c-entry-repeated", "n-not-r-plus-s"])
    def test_malformed_params_refused(self, edit):
        # r = 3, s = 2; each edit was once read as some other group
        d = sample_params(5, 1).to_json_dict()
        edit(d)
        with pytest.raises(ValueError):
            HigmanParams.from_json_dict(d)


class TestTheoremTriple:
    @pytest.mark.parametrize("n", range(3, 11))
    def test_valid_with_index_4(self, n):
        for seed in (1, 2, 3):
            G, trip = theorem3_triple(sample_params(n, seed))
            assert trip.valid
            assert trip.index == 4

    def test_n3_shape(self):
        G, trip = theorem3_triple(sample_params(3, 1))
        assert list(trip.S) == [G.h(1)]
        assert list(trip.T) == [G.g(1), G.g(2)]
        assert trip.tau == G.h(1)

    def test_crosscheck_small(self):
        for n in (3, 4, 5, 6):
            G, trip = theorem3_triple(sample_params(n, 4))
            assert not tr.crosscheck_prop22(G, trip).verdict.is_cca

    def test_rejects_unconstrained(self):
        p = HigmanParams(r=1, s=1, b=(1,), c=(), constrained=False)
        with pytest.raises(ValueError):
            theorem3_triple(p)


class TestRegularRepresentation:
    def test_q8_pattern(self):
        P = regular_representation(HigmanGroup(quaternion_params()))
        assert P.degree == 8
        assert P.order() == 8
        # transitive: the orbit of point 0 is everything
        orbit = {0}
        frontier = [0]
        gens = P.generators()
        while frontier:
            v = frontier.pop()
            for g in gens:
                if g[v] not in orbit:
                    orbit.add(g[v])
                    frontier.append(g[v])
        assert len(orbit) == 8

    @pytest.mark.parametrize("degree, gens, regular", [
        (3, ["(1 2 3)"], True),                       # C3
        (3, ["(1 2 3)", "(1 2)"], False),             # S3: transitive
        (3, ["(1 2)"], False),                        # not transitive
        (4, ["(1 2)(3 4)", "(1 3)(2 4)"], True),      # Klein four-group
        (4, ["(1 2 3 4)", "(1 3)"], False),           # D4 on 4 points
    ])
    def test_is_regular(self, degree, gens, regular):
        perms = [parse_cycles(g, degree) for g in gens]
        assert _is_regular(degree, perms) is regular

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_order_matches(self, n):
        P = regular_representation(HigmanGroup(sample_params(n, 6)))
        assert P.order() == 2 ** n
        assert P.degree == 2 ** n

    def test_isomorphic_multiplication(self):
        params = sample_params(4, 2)
        G = HigmanGroup(params)
        P = regular_representation(G)
        elems = G.elements()
        idx = {x: i for i, x in enumerate(elems)}

        def rep(x):
            return tuple(idx[G.multiply(v, x)] for v in elems)

        rng = random.Random(3)
        for _ in range(100):
            a = rng.choice(elems)
            b = rng.choice(elems)
            pa = rep(a)
            pb = rep(b)
            composed = tuple(pb[i] for i in pa)   # apply pa then pb
            assert composed == rep(G.multiply(a, b))
