import json
import math
import random
import re
from pathlib import Path

import pytest

from ccakit import cli, fgroup
from ccakit import groupzoo as gz
from ccakit.fgroup import LimitExceeded
from ccakit.higman import HigmanGroup, sample_params
from ccakit.permcore import Permutation, PermutationGroup, parse_cycles

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


class TestFieldTables:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17,
                                   19, 23, 25, 27, 29, 31, 32])
    def test_field_axioms(self, q):
        F = gz.build_field(q)
        els = range(q)
        for a in els:
            assert F.add[a][0] == a
            assert F.mul[a][1] == a
            assert F.mul[a][0] == 0
            assert F.add[a][F.neg[a]] == 0
            if a != 0:
                assert F.mul[a][F.inv[a]] == 1
        # associativity and distributivity, exhaustive
        for a in els:
            for b in els:
                assert F.add[a][b] == F.add[b][a]
                assert F.mul[a][b] == F.mul[b][a]
                for c in els:
                    assert F.add[F.add[a][b]][c] == F.add[a][F.add[b][c]]
                    assert F.mul[F.mul[a][b]][c] == F.mul[a][F.mul[b][c]]
                    assert (F.mul[a][F.add[b][c]]
                            == F.add[F.mul[a][b]][F.mul[a][c]])

    @pytest.mark.parametrize("q", [4, 5, 8, 9, 16, 25, 27, 32])
    def test_primitive_element(self, q):
        F = gz.build_field(q)
        powers = set()
        x = 1
        for _ in range(q - 1):
            x = F.mul[x][F.primitive]
            powers.add(x)
        assert len(powers) == q - 1

    def test_unsupported_q(self):
        with pytest.raises(ValueError):
            gz.build_field(6)


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
        """The squaring scans against element_order and multiply, and the
        chain's membership test against the element set."""
        groups = gz.zoo_corpus(48) + [
            (expr, gz.construct(expr)) for expr in
            [f"PSL2({q})" for q in (5, 7, 8, 9, 11, 13, 17)] + ["M11"]]
        for expr, G in groups:
            elems, e = G.elements(), G.identity()
            direct = any(G.element_order(x) == 4 for x in elems)
            assert gz.has_element_of_order4(G) == direct, expr
            invs = G.involutions()
            assert invs == [x for x in elems
                            if x != e and G.multiply(x, x) == e], expr
            assert invs == [x for x in elems
                            if G.element_order(x) == 2], expr
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


class TestNormalizers:
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
