import json
import math
import random
import re
from pathlib import Path

import pytest

from oracle_field import build_tables, psl2_generators
from oracle_normalizes import normalizes as product_form_normalizes

from ccakit import cli, fgroup
from ccakit import groupzoo as gz
from ccakit.fgroup import LimitExceeded
from ccakit.higman import HigmanGroup, sample_params
from ccakit.permcore import (Permutation, PermutationGroup,
                             StabilizerChain, parse_cycles)
from ccakit.triples import s_tau

README = Path(__file__).resolve().parents[1] / "README.md"

# the README's grammar templates, each with one instance
README_TEMPLATES = {"Sn": "S4", "An": "A4", "Cn": "C4", "Dn": "D4",
                    "PSL2(q)": "PSL2(7)",
                    "higman:n=N,seed=K": "higman:n=4,seed=1"}


def readme_group_expressions() -> list[str]:
    """Every group expression README.md writes: the command-line examples,
    the library example and the grammar paragraph (templates instantiated).
    """
    text = README.read_text()
    exprs = re.findall(
        r'^ccakit (?:group|cca|triple \w+) ("[^"]+"|\S+)', text, re.M)
    exprs += re.findall(r'construct\("([^"]+)"\)', text)
    grammar = text.split("Group expressions:", 1)[1].split("\n\n", 1)[0]
    exprs += [README_TEMPLATES.get(tok, tok)
              for tok in re.findall(r"`([^`]+)`", grammar)
              if tok not in ("x", "2n")]
    return [e.strip('"') for e in exprs]


# every q that build_field accepts
FIELD_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29,
                31, 32]


class TestFieldTables:
    @pytest.mark.parametrize("q", FIELD_ORDERS)
    def test_field_axioms(self, q):
        """The oracle's schoolbook tables (tests/oracle_field.py), the
        reference for build_field and psl2, form a field."""
        t = build_tables(q)
        add, mul, neg, inv = t["add"], t["mul"], t["neg"], t["inv"]
        els = range(q)
        for a in els:
            assert add[a][0] == a
            assert mul[a][1] == a
            assert mul[a][0] == 0
            assert add[a][neg[a]] == 0
            if a != 0:
                assert mul[a][inv[a]] == 1
        # associativity and distributivity, exhaustive
        for a in els:
            for b in els:
                assert add[a][b] == add[b][a]
                assert mul[a][b] == mul[b][a]
                for c in els:
                    assert add[add[a][b]][c] == add[a][add[b][c]]
                    assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
                    assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]

    @pytest.mark.parametrize("q", [4, 5, 8, 9, 16, 25, 27, 32])
    def test_primitive_element(self, q):
        # the powers of the primitive element are every unit, once each
        p, weights, exp = gz.build_field(q)
        assert sorted(exp) == list(range(1, q))
        assert p ** len(weights) == q
        assert weights == [p**k for k in range(len(weights))]

    def test_unsupported_q(self):
        with pytest.raises(ValueError):
            gz.build_field(6)

    def test_accepted_orders(self):
        accepted = []
        for q in range(0, 40):
            try:
                gz.build_field(q)
            except gz.GroupExprError:
                continue
            accepted.append(q)
        assert accepted == FIELD_ORDERS

    @pytest.mark.parametrize("q", FIELD_ORDERS)
    def test_tables_are_the_schoolbook_tables(self, q):
        """build_field's powers are the oracle primitive element's powers
        under the oracle's schoolbook products, and psl2's generators are
        the ones read off the oracle's full tables (tests/oracle_field.py),
        in the same order, the identity dropped."""
        t = build_tables(q)
        powers = [1]
        while len(powers) < q - 1:
            powers.append(t["mul"][powers[-1]][t["primitive"]])
        assert gz.build_field(q)[2] == powers
        identity = tuple(range(q + 1))
        assert [tuple(g) for g in gz.psl2(q).generators()] == [
            g for g in psl2_generators(q) if g != identity]

    def test_reducible_modulus_is_refused(self, monkeypatch, tmp_path,
                                          time_limit):
        # x^2 + 1 = (x + 1)^2 over GF(2): the powers of the zero divisor
        # x + 1 never return to 1, and no element has order 3
        polys = json.loads((gz._DATA_DIR / "field_polys.json").read_text())
        polys["4"]["poly"] = [1, 0, 1]
        (tmp_path / "field_polys.json").write_text(json.dumps(polys))
        monkeypatch.setattr(gz, "_DATA_DIR", tmp_path)
        with time_limit(5):
            with pytest.raises(gz.GroupExprError, match=r"GF\(4\)"):
                gz.psl2(4)
            assert cli.main(["group", "PSL2(4)"]) == 2


class TestConstructors:
    def test_known_orders(self):
        assert gz.cyclic_group(7).order() == 7
        assert gz.symmetric_group(5).order() == 120
        assert gz.alternating_group(5).order() == 60
        assert gz.alternating_group(6).order() == 360
        assert gz.dihedral_group(8).order() == 16

    def test_dihedral_reflection_count(self):
        # exactly n reflections invert the rotation generator (n >= 3)
        for n in range(3, 10):
            D = gz.dihedral_group(n)
            rot = D.generators()[0]
            inverting = [x for x in D.elements()
                         if D.conjugate(rot, x) == D.invert(rot)]
            assert len(inverting) == n
            assert set(inverting) <= set(D.involutions())

    @pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13, 16, 17, 19,
                                   23, 25, 27, 29])
    def test_psl2_order_formula(self, q):
        G = gz.psl2(q)
        expected = q * (q - 1) * (q + 1) // math.gcd(2, q - 1)
        assert G.order() == expected
        assert G.degree == q + 1

    def test_m11(self):
        M = gz.m11_group()
        assert M.order() == 7920
        assert M.degree == 11

    def test_direct_product(self):
        G = gz.direct_product(gz.cyclic_group(2), gz.symmetric_group(3))
        assert G.order() == 12


PRODUCTS = ["C4 x C4 x C4", "C2 x D4", "S3 x A4", "D5 x C3 x S2",
            "C2 x higman:n=4,seed=1"]


class TestConstructorFacts:
    """A named group is given its order and a base by its constructor, and
    needs no stabilizer chain until membership asks for one."""

    @pytest.mark.parametrize(
        "expr", [f"C{n}" for n in range(1, 31)]
        + [f"D{n}" for n in range(1, 31)]
        + [f"S{n}" for n in range(1, 9)]
        + [f"A{n}" for n in range(1, 10)] + PRODUCTS)
    def test_recorded_facts_match_schreier_sims(self, chains_built, expr):
        G = gz.construct(expr)
        order, base = G.order(), G._base()
        assert chains_built == []
        gens = G.generators()
        assert StabilizerChain(G.degree, gens).order() == order
        # the base needs no extra point: it is a base of the group
        assert StabilizerChain(G.degree, gens, base_hint=base).base == base

    @pytest.mark.parametrize("expr", ["D16", "S4", "C4 x C4 x C4",
                                      "C2 x D4"])
    def test_named_groups_list_key_and_scan_without_a_chain(
            self, chains_built, expr):
        G = gz.construct(expr)
        index = G.element_index()
        assert len(index) == len(G.elements()) == G._known_order()
        for g in G.generators():
            assert G.left_row(g) == [index[G.multiply(g, v)]
                                     for v in G.elements()]
        assert G.involutions() == [x for x in G.elements()
                                   if x.order() == 2]
        assert G.has_element_of_order4() == any(
            x.order() == 4 for x in G.elements())
        assert G.element_orders() == [x.order() for x in G.elements()]
        # D16, C4 x C4 x C4 and C2 x D4 have short bases and key their rows
        assert (G._keyed is not None) == (expr != "S4")
        assert chains_built == []
        # a listed group answers order and membership from its listing
        assert G.order() == len(index)
        assert all(map(G.contains, G.elements()))
        assert chains_built == []

    def test_zoo_corpus_builds_no_chain(self, chains_built):
        assert len(gz.zoo_corpus(64)) > 0
        assert chains_built == []

    @pytest.mark.parametrize("make", [lambda: gz.psl2(13), gz.m11_group],
                             ids=["PSL2(13)", "M11"])
    def test_psl2_and_m11_check_their_order_unbounded(self, chains_built,
                                                      make):
        G = make()
        assert [kwargs.get("order_bound") for _, kwargs in chains_built] \
            == [None]
        assert G._known is None


class TestParser:
    def test_construct_from_string(self):
        for text, order in [
                ("S5", 120), ("A5", 60), ("A6", 360), ("C12", 12), ("D4", 8),
                ("PSL2(7)", 168), ("C2 x C2", 4), ("C2 x S3 x D4", 96),
                ("higman:n=6,seed=1", 64), ("perm:4:(1 2),(1 2 3 4)", 24),
                ("perm:4:(1 2)(3 4),(1 3)(2 4)", 4), ("Q8", 8),
                ("C2 x Q8", 16), ("Q8 x C3", 24), ("  S3 x  C2  ", 12)]:
            assert gz.construct(text).order() == order, text

    def test_every_readme_expression_builds(self, tmp_path, monkeypatch):
        exprs = readme_group_expressions()
        assert {"Q8", "M11", "C2 x D4", "higman:@params.json"} <= set(exprs)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "params.json").write_text(
            json.dumps(sample_params(4, 1).to_json_dict()))
        for text in exprs:
            assert gz.construct(text).order() > 1, text

    def test_bad_expressions(self, capsys):
        for text in ["", "X5", "PSL2(6)", "S", "C0", "C2 x", "C2 x X5",
                     "perm:x:(1 2)", "perm:4", "perm:4:", "perm:4: , ",
                     "higman:", "higman: "]:
            with pytest.raises(gz.GroupExprError):
                gz.construct(text)
            assert cli.main(["group", text]) == cli.EXIT_USAGE, text
            assert "cannot construct group" in capsys.readouterr().err


class TestOrder4Predicate:
    # no element of order 4 iff q is even or q = +-3 mod 8
    @pytest.mark.parametrize("q", [4, 5, 8, 9, 11, 13, 16, 17, 19, 23,
                                   25, 27, 29])
    def test_matches_congruence(self, q):
        G = gz.psl2(q)
        expected = not (q % 2 == 0 or q % 8 in (3, 5))
        assert gz.has_element_of_order4(G) == expected

    def test_sym4_has_order4(self):
        assert gz.has_element_of_order4(gz.symmetric_group(4))

    def test_oracle_scan(self):
        """The squaring scans against the orders of Permutation.order() over
        all cycles (FiniteGroup.element_order for a Higman group) and
        against multiply, on short and long bases, and the chain's
        membership test against the element set."""
        groups = gz.zoo_corpus(48) + [
            (expr, gz.construct(expr)) for expr in
            [f"PSL2({q})" for q in (5, 7, 8, 9, 11, 13, 17, 25, 27, 29)]
            + ["M11", "S5", "A6"]]
        G7 = gz.construct("PSL2(7)")
        groups.append(("PSL2(7) S(tau) span",
                       s_tau(G7, G7.involutions()[0]).span()))
        for expr, G in groups:
            elems, e = G.elements(), G.identity()
            order = (Permutation.order if isinstance(G, PermutationGroup)
                     else G.element_order)
            orders = [order(x) for x in elems]
            assert gz.has_element_of_order4(G) == (4 in orders), expr
            invs = G.involutions()
            assert invs == [x for x in elems
                            if x != e and G.multiply(x, x) == e], expr
            assert invs == [x for x, k in zip(elems, orders) if k == 2], expr
            if not isinstance(G, PermutationGroup):
                continue
            rng = random.Random(len(elems))
            members = G.element_set()
            for _ in range(200):
                # half the draws from G, so both answers occur
                p = (rng.choice(elems) if rng.random() < 0.5 else
                     Permutation(rng.sample(range(G.degree), G.degree)))
                assert G.chain.contains(p) == (p in members), (expr, p)


class TestStabilizers:
    def test_alt6_point_stabilizer(self):
        A6 = gz.alternating_group(6)
        H = A6.point_stabilizer(0)
        assert H.order() == 60

    def test_sym5_pointwise(self):
        S5 = gz.symmetric_group(5)
        H = gz.pointwise_stabilizer(S5, [3, 4])
        assert H.order() == 6
        assert all(g[3] == 3 and g[4] == 4 for g in H.elements())

    def test_sym5_setwise(self):
        S5 = gz.symmetric_group(5)
        H = gz.setwise_stabilizer(S5, [3, 4])
        assert H.order() == 12
        assert all({g[3], g[4]} == {3, 4} for g in H.elements())

    @pytest.mark.parametrize("stabilizer, point", [
        (lambda G: gz.pointwise_stabilizer(G, [5]), 5),
        (lambda G: gz.setwise_stabilizer(G, [-1]), -1),
        (lambda G: G.point_stabilizer(5), 5),
    ], ids=["pointwise", "setwise", "point"])
    def test_point_outside_the_degree_refused(self, stabilizer, point):
        # points are 0-based, so S5 acts on 0 .. 4
        with pytest.raises(ValueError,
                           match=f"^point {point} outside degree 5$"):
            stabilizer(gz.symmetric_group(5))

    def test_subgroups_take_the_parent_enum_limit(self):
        S5 = gz.construct("S5", enum_limit=13)
        H = S5.point_stabilizer(4)
        assert H.enum_limit == 13
        with pytest.raises(LimitExceeded):
            H.elements()                      # |S4| = 24 > 13
        with pytest.raises(LimitExceeded):
            gz.setwise_stabilizer(S5, [3, 4])
        Q = gz.construct("higman:n=6,seed=1", enum_limit=10)
        sub = Q.generated_subgroup(Q.generators())
        assert sub.enum_limit == 10
        with pytest.raises(LimitExceeded):
            sub.elements()
        with pytest.raises(LimitExceeded):
            Q.elements()

    def test_product_factors_obey_the_enum_limit(self, monkeypatch):
        listed = []

        def spy(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                listed.append(len(out))
                return out
            return wrapper

        monkeypatch.setattr(fgroup, "closure", spy(fgroup.closure))
        monkeypatch.setattr(HigmanGroup, "elements",
                            spy(HigmanGroup.elements))
        with pytest.raises(LimitExceeded):
            gz.construct("C2 x higman:n=12,seed=1", enum_limit=10)
        assert all(n <= 10 for n in listed), listed

    @pytest.mark.parametrize("expr,order", [("C2 x higman:n=4,seed=1", 32),
                                            ("Q8 x C3", 24)])
    def test_product_at_the_limit_is_unchanged(self, expr, order):
        G = gz.construct(expr, enum_limit=order)
        assert G.generators() == gz.construct(expr).generators()
        assert len(G.elements()) == order


def cyclic_subgroups_by_power_sets(G, m):
    """Oracle: the cyclic subgroups of order m, one per distinct set of
    powers of an element of order m, generated by its first element."""
    seen = set()
    out = []
    for x in G.elements():
        if G.element_order(x) != m:
            continue
        powers = [x]
        y = x
        for _ in range(m - 1):
            y = G.multiply(y, x)
            powers.append(y)
        key = frozenset(powers)
        if key not in seen:
            seen.add(key)
            out.append(G.generated_subgroup([x]))
    return out


class TestCyclicSubgroups:
    """cyclic_subgroups_of_order skips the generators of listed subgroups;
    it must give the oracle's subgroups, orders and generators, in order."""

    @staticmethod
    def check(G, m):
        got = gz.cyclic_subgroups_of_order(G, m)
        want = cyclic_subgroups_by_power_sets(G, m)
        assert [H.generators() for H in got] == [H.generators()
                                                 for H in want]
        assert all(H.order() == m for H in got)

    @pytest.mark.parametrize("m", [2, 3, 4, 8, 9])
    def test_psl2_17(self, m):
        self.check(gz.psl2(17), m)

    def test_zoo_corpus(self):
        for _, G in gz.zoo_corpus(48):
            for m in range(1, 17):
                self.check(G, m)


def identity_cycle_length(row: list[int]) -> int:
    """The length of the cycle of vertex 0 (the identity) under the left
    row of x: the order of x."""
    k, v = 1, row[0]
    while v:
        k, v = k + 1, row[v]
    return k


class TestElementOrders:
    """element_orders, read at the base points of a permutation group,
    against the orders over all cycles, and FiniteGroup's default against
    the cycle of the identity in each element's row."""

    def test_permutation_groups(self):
        groups = [G for _, G in gz.zoo_corpus(48)
                  if isinstance(G, PermutationGroup)]
        groups += [gz.construct(expr) for expr in
                   [f"PSL2({q})" for q in FIELD_ORDERS if q <= 17]
                   + ["A6", "S6"]]
        for G in groups:
            assert G.element_orders() == [x.order() for x in G.elements()]

    def test_finite_group_default(self):
        groups = [G for _, G in gz.zoo_corpus(48)
                  if isinstance(G, HigmanGroup)]
        groups += [gz.construct("Q8"), gz.construct("higman:n=7,seed=3")]
        for G in groups:
            assert G.element_orders() == list(
                map(identity_cycle_length, G.mult_table()))


class TestNormalizers:
    @staticmethod
    def check(G, H):
        """normalizes against the product form on every element of G."""
        got, want = gz.normalizes(G, H), product_form_normalizes(G, H)
        assert ([got(x) for x in G.elements()]
                == [want(x) for x in G.elements()])

    @pytest.mark.parametrize("expr", ["PSL2(7)", "A6", "S5"])
    def test_every_cyclic_subgroup(self, expr):
        G = gz.construct(expr)
        for m in sorted(set(G.element_orders())):
            for H in gz.cyclic_subgroups_of_order(G, m):
                self.check(G, H)

    def test_stabilizers(self):
        S5 = gz.symmetric_group(5)
        for H in (S5.point_stabilizer(0), gz.pointwise_stabilizer(S5, [3, 4]),
                  gz.setwise_stabilizer(S5, [3, 4])):
            self.check(S5, H)

    @pytest.mark.parametrize("m", [8, 9])
    def test_psl2_17_first_and_last_cyclic_subgroups(self, m):
        G = gz.psl2(17)
        cyc = gz.cyclic_subgroups_of_order(G, m)
        for H in (cyc[0], cyc[-1]):
            self.check(G, H)

    def test_sym3(self):
        S3 = gz.symmetric_group(3)
        C3 = S3.generated_subgroup([parse_cycles("(1 2 3)", 3)])
        N = gz.normalizer_bruteforce(S3, C3)
        assert N.order() == 6

    def test_psl2_17_dihedral(self):
        G = gz.psl2(17)
        cyc9 = gz.cyclic_subgroups_of_order(G, 9)
        assert cyc9
        assert gz.normalizer_bruteforce(G, cyc9[0]).order() == 18
        cyc8 = gz.cyclic_subgroups_of_order(G, 8)
        assert cyc8
        assert gz.normalizer_bruteforce(G, cyc8[0]).order() == 16

    def test_cyclic_subgroups_dedup(self):
        S3 = gz.symmetric_group(3)
        assert len(gz.cyclic_subgroups_of_order(S3, 3)) == 1
        assert len(gz.cyclic_subgroups_of_order(S3, 2)) == 3


class TestZooCorpus:
    def test_orders_bounded_and_deterministic(self):
        zoo = gz.zoo_corpus(48)
        assert all(G.order() <= 48 for _, G in zoo)
        again = gz.zoo_corpus(48)
        assert [e for e, _ in zoo] == [e for e, _ in again]

    def test_contains_expected_families(self):
        names = [e for e, _ in gz.zoo_corpus(64)]
        assert "C16" in names and "D8" in names and "S4" in names
        assert any(n.startswith("higman") for n in names)
