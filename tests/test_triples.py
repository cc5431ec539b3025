import itertools
import re

import pytest

import oracle_s_tau
from ccakit import fgroup
from ccakit import triples as tr
from ccakit import groupzoo as gz
from ccakit.cli import EXIT_INTERNAL, main
from ccakit.fgroup import FiniteGroup
from ccakit.higman import HigmanGroup, quaternion_params, sample_params, theorem3_triple
from ccakit.permcore import Permutation, parse_cycles
from ccakit.triples import (
    CrosscheckError,
    crosscheck_prop22,
    s_tau,
    search_triple_subgroup_strategy,
    validate_triple,
)


class TestSTau:
    def test_central_tau_gives_everything(self):
        G = HigmanGroup(quaternion_params())
        tau = G.h(1)                    # the unique involution, central
        st = s_tau(G, tau)
        assert len(st.elements) == G.order() - 1

    def test_s3_filter_oracle(self):
        G = gz.symmetric_group(3)
        tau = parse_cycles("(1 2)", 3)
        st = s_tau(G, tau)
        expected = [x for x in G.elements()
                    if x != G.identity()
                    and G.conjugate(x, tau) in (x, G.invert(x))]
        assert st.elements == expected
        # tau itself plus the two 3-cycles (inverted by conjugation);
        # the other transpositions are swapped with each other
        assert len(st.elements) == 3
        assert tau in st.elements

    def test_tau_outside_carrier(self):
        A6 = gz.alternating_group(6)
        tau = parse_cycles("(3 5)(4 6)", 6)
        K = A6.generated_subgroup([parse_cycles("(1 2 3)", 6)])
        assert not K.contains(tau)
        st = s_tau(K, tau)
        expected = [x for x in K.elements()
                    if x != K.identity()
                    and K.conjugate(x, tau) in (x, K.invert(x))]
        assert st.elements == expected

    def test_rejects_non_involution(self):
        G = gz.symmetric_group(3)
        with pytest.raises(ValueError):
            s_tau(G, parse_cycles("(1 2 3)", 3))
        with pytest.raises(ValueError):
            s_tau(G, G.identity())
        # in the carrier, s_tau refuses x exactly when the product check
        # of the oracle does: the identity, and orders 3, 4, 8, ...
        refused = set()
        for expr, G in gz.zoo_corpus(24):
            for x in G.elements():
                try:
                    oracle_s_tau._require_involution(G, x)
                except ValueError:
                    refused.add(G.element_order(x))
                    with pytest.raises(ValueError,
                                       match="^tau must be an involution$"):
                        s_tau(G, x)
                else:
                    s_tau(G, x)
        assert {1, 3, 4, 8} <= refused
        # outside the carrier, by the product check
        A6 = gz.alternating_group(6)
        K = A6.generated_subgroup([parse_cycles("(1 2 3)", 6)])
        x = parse_cycles("(4 5 6)", 6)
        assert not K.contains(x)
        with pytest.raises(ValueError, match="^tau must be an involution$"):
            s_tau(K, x)
        # a value of another type than the carrier's elements, inside or
        # outside it: a plain tuple a Permutation of A6 equals, the same
        # tuple outside K, and the degree-2 identity Permutation, which
        # equals Q8's h1, the pair (0, 1)
        tup = tuple(parse_cycles("(3 5)(4 6)", 6))
        for carrier, tau in [(A6, tup), (K, tup),
                             (gz.construct("Q8"), Permutation([0, 1]))]:
            with pytest.raises(ValueError,
                               match="^tau must be an involution$"):
                s_tau(carrier, tau)

    def test_both_forms_agree_zoo(self):
        for expr, G in gz.zoo_corpus(24):
            for tau in G.involutions():
                s_tau(G, tau)           # raises on any disagreement

    def test_span_contains_involutions(self):
        for expr, G in gz.zoo_corpus(24):
            invs = G.involutions()
            for tau in invs:
                span = s_tau(G, tau).span().element_set()
                assert all(y in span for y in invs), expr


def _s5_setwise():
    return gz.setwise_stabilizer(gz.symmetric_group(5), [3, 4])


def _corrupt(inv: list) -> None:
    """Make the first element that is not its own inverse its own
    inverse, in place."""
    i = next(i for i, j in enumerate(inv) if i != j)
    inv[i] = i


class TestRowFormAgainstOracle:
    """The row form lists what the product form lists, in its order."""

    @staticmethod
    def agrees(H, tau):
        return s_tau(H, tau).elements == oracle_s_tau.s_tau(H, tau)

    def test_zoo_and_psl2_7(self):
        groups = gz.zoo_corpus(48) + [("PSL2(7)", gz.construct("PSL2(7)"))]
        for expr, G in groups:
            for tau in G.involutions():
                assert self.agrees(G, tau), (expr, G.elem_str(tau))

    def test_criterion_2_subgroups(self):
        A6 = gz.alternating_group(6)
        S5 = gz.symmetric_group(5)
        carriers = [(A6.point_stabilizer(0), parse_cycles("(3 5)(4 6)", 6)),
                    (gz.pointwise_stabilizer(S5, [3, 4]),
                     parse_cycles("(1 2)(4 5)", 5)),
                    (gz.setwise_stabilizer(S5, [3, 4]),
                     parse_cycles("(1 2)(4 5)", 5))]
        for H, tau in carriers:
            for t in [tau, *H.involutions()]:
                assert self.agrees(H, t), H.elem_str(t)

    def test_psl2_17_normalizers_with_tau_outside(self):
        # the carriers of criterion 5's searches; they are self-normalizing,
        # so the search's outside candidates are empty and every involution
        # of G outside the carrier is checked instead: 153 less the 9 of
        # each dihedral normalizer
        G = gz.psl2(17)
        for m in (9, 8):
            H = gz.normalizer_bruteforce(
                G, gz.cyclic_subgroups_of_order(G, m)[0])
            outside = [x for x in G.involutions() if not H.contains(x)]
            assert len(outside) == 144, m
            for tau in outside:
                assert self.agrees(H, tau), (m, G.elem_str(tau))


class TestDisagreement:
    def test_corrupt_inverse_table_raises(self, monkeypatch):
        H = _s5_setwise()
        tau = parse_cycles("(1 2)(4 5)", 5)
        s_tau(H, tau)                   # fills the cache
        bad = list(H.inverse_row())
        _corrupt(bad)
        monkeypatch.setattr(H, "_inverse_row", bad)
        with pytest.raises(AssertionError, match="forms disagree"):
            s_tau(H, tau)

    def test_cli_exits_4(self, capsys, monkeypatch):
        inverse_row = FiniteGroup.inverse_row

        def corrupted(self):
            inv = inverse_row(self)     # the cached table itself
            _corrupt(inv)
            return inv

        monkeypatch.setattr(FiniteGroup, "inverse_row", corrupted)
        rc = main(["triple", "search", "S5", "--subgroup", "setwise:4,5"])
        assert rc == EXIT_INTERNAL
        assert capsys.readouterr().err == (
            "internal error: S_G(tau): definitional and filter forms "
            "disagree (correctness bug)\n")


class TestRowFormWork:
    """Deterministic work counts of the row form, for tau in the carrier."""

    @pytest.mark.parametrize("expr", ["S4", "D8", "C2 x D4",
                                      "higman:n=5,seed=1"])
    def test_one_row_per_tau_and_one_inverse_per_element(self, expr,
                                                         monkeypatch):
        G = gz.construct(expr)
        invs = G.involutions()
        calls = {"left_row": 0, "multiply": 0, "invert": 0}
        for name in calls:
            method = getattr(G, name)

            def counting(*args, _name=name, _method=method):
                calls[_name] += 1
                return _method(*args)
            monkeypatch.setattr(G, name, counting)
        for tau in invs:
            before = dict(calls)
            s_tau(G, tau)
            assert calls["left_row"] - before["left_row"] == 1
            assert calls["multiply"] - before["multiply"] == 0
        assert calls["invert"] <= G.order()


class TestSpanListing:
    """A listing that stops at its order bound lists what the full
    closure lists, in the same order."""

    @staticmethod
    def unbounded(H):
        gens = H.generators()
        return fgroup.closure(H.identity(), [H.left_map(g) for g in gens],
                              H.enum_limit, **H._listing_keys(gens))

    def test_zoo_spans(self):
        for expr, G in gz.zoo_corpus(48):
            for tau in G.involutions():
                span = s_tau(G, tau).span()
                # a Higman span is bounded by its own rank order, the
                # parent's order when it is whole
                bound = (span.order() if isinstance(G, HigmanGroup)
                         else G.order())
                assert span._listing_bound() == bound, expr
                assert span.elements() == self.unbounded(span), expr

    def test_proper_subgroup(self):
        H = _s5_setwise()
        assert H._listing_bound() == 120
        assert H.elements() == self.unbounded(H)
        assert len(H.elements()) == 12

    def test_d16_central_span_stops_early(self, monkeypatch):
        G = gz.construct("D16")
        tau = next(x for x in G.involutions() if G.is_central(x))
        span = s_tau(G, tau).span()
        ngens = len(span.generators())
        calls = 0

        def counted(f):
            def call(x):
                nonlocal calls
                calls += 1
                return f(x)
            return call

        closure = fgroup.closure

        def counting(identity, maps, limit, key=None, key_maps=None,
                     bound=None):
            return closure(identity, list(map(counted, maps)), limit, key,
                           key_maps and list(map(counted, key_maps)), bound)

        monkeypatch.setattr(fgroup, "closure", counting)
        assert len(span.elements()) == 32
        assert calls < 32 * ngens // 4, (calls, ngens)


def _outside(G):
    """An element outside G: a permutation of G's degree unless G is all
    of S_n, or a Higman pair past G's bits."""
    if isinstance(G, HigmanGroup):
        return (1 << G.params.r, 0)
    members = G.element_set()
    for images in itertools.permutations(range(G.degree)):
        if images not in members:
            return Permutation(images)
    return Permutation.identity(G.degree + 1)


def _oracle_spans():
    """(G, span) for every S_G(tau) span of zoo_corpus(48), the first of
    PSL(2,7) and every one of higman:n=6,seed=1."""
    for _, G in gz.zoo_corpus(48):
        for tau in G.involutions():
            yield G, s_tau(G, tau).span()
    G = gz.construct("PSL2(7)")
    yield G, s_tau(G, G.involutions()[0]).span()
    G = gz.construct("higman:n=6,seed=1")
    for tau in G.involutions():
        yield G, s_tau(G, tau).span()


def _even_s4():
    """S4, listed, and A4's 11 non-identity elements."""
    S4 = gz.construct("S4")
    evens = [x for x in S4.elements() if x != S4.identity()
             and (len(x.moved_points()) - len(x.cycles())) % 2 == 0]
    return S4, evens


def _higman_subgroup_of_a_subgroup():
    """<g1, h1> inside the HigmanSubgroup <g1, g2, h1>: a generic
    GeneratedSubgroup, bounded by its parent's rank order, 16, with the
    parent unlisted."""
    G = gz.construct("higman:n=5,seed=1")
    K = G.generated_subgroup([G.g(1), G.g(2), G.h(1)])
    return G, K.generated_subgroup([G.g(1), G.h(1)]), 16


def _point_stabilizer(expr, point, order):
    G = gz.construct(expr)
    return G, G.point_stabilizer(point), order


# name: () -> (G, a subgroup H of G, H's listing bound)
OTHER_SUBGROUPS = {
    "higman <g1, h1> in <g1, g2, h1>": _higman_subgroup_of_a_subgroup,
    "S6 point 1": lambda: _point_stabilizer("S6", 0, 120),
    "PSL2(17) point 18": lambda: _point_stabilizer("PSL2(17)", 17, 136),
}


class TestWholeSpans:
    """A span known to be its whole parent answers order, contains and
    element_set from the parent; each answer equals the span's own
    unbounded listing."""

    def test_answers_match_the_listing(self):
        spans = whole = 0
        for G, span in _oracle_spans():
            order = span.order()
            members = span.element_set()
            outside = _outside(G)
            listing = set(TestSpanListing.unbounded(span))
            assert order == len(listing)
            for x in G.elements():
                assert span.contains(x) == (x in listing)
                assert (x in members) == (x in listing)
            assert not span.contains(outside)
            assert outside not in members
            spans += 1
            whole += order == G.order()
        # zoo_corpus(48), PSL(2,7) and higman:n=6,seed=1
        assert (spans, whole) == (220 + 1 + 19, 213 + 1 + 15)

    @pytest.mark.parametrize("name", OTHER_SUBGROUPS)
    def test_other_subgroups_match_the_listing(self, name):
        G, H, bound = OTHER_SUBGROUPS[name]()
        assert H._listing_bound() == bound
        listing = set(TestSpanListing.unbounded(H))
        assert H.order() == len(listing)
        for x in G.elements() + [_outside(G)]:
            assert H.contains(x) == (x in listing)
        assert set(H.element_set()) == listing

    def test_whole_spans_list_nothing(self, closure_calls, chains_built):
        whole = quiet = 0
        for G, span in _oracle_spans():
            del closure_calls[:], chains_built[:]
            order = span.order()
            held = list(map(span.contains, G.elements()))
            assert len(span.element_set()) == order == sum(held)
            if order != G.order():
                continue
            whole += 1
            listed = bool(closure_calls or chains_built)
            quiet += not listed
            proved = (isinstance(G, HigmanGroup)
                      or 2 * (len(span.generators()) + 1) > order)
            assert proved != listed
        # the count leaves nine whole spans in S4 unproved, and PSL(2,7)'s
        assert (whole, quiet) == (213 + 1 + 15, 204 + 15)

    def test_half_the_parent_is_not_proved_whole(self, closure_calls):
        S4, evens = _even_s4()
        assert len(evens) == 11
        A4 = S4.generated_subgroup(evens)
        del closure_calls[:]
        assert len(A4.element_set()) == 12     # 2 * 12 is not > 24
        assert len(closure_calls) == 1
        assert A4.order() == 12
        assert not A4.contains(parse_cycles("(1 2)", 4))

    def test_one_more_generator_proves_it_whole(self, closure_calls,
                                                chains_built):
        S4, evens = _even_s4()
        H = S4.generated_subgroup(evens + [parse_cycles("(1 2)", 4)])
        del closure_calls[:], chains_built[:]
        assert H.order() == 24
        assert H.element_set() == S4.element_set()
        assert all(map(H.contains, S4.elements()))
        assert not H.contains(Permutation.identity(5))
        assert closure_calls == [] and chains_built == []
        assert H.elements() == TestSpanListing.unbounded(H)


class TestValidateTriple:
    def test_c4_degenerate_fails_av_only(self):
        G = gz.cyclic_group(4)
        g = G.generators()[0]
        tau = G.multiply(g, g)
        trip = validate_triple(G, [], [g], tau)
        assert trip.checks == {"Ai": True, "Aii": True, "Aiii": True,
                               "Aiv": True, "Av": False}
        assert not trip.valid
        assert trip.index == 2

    def test_alt6_known_triple(self):
        G = gz.alternating_group(6)
        t = parse_cycles("(1 2)(3 4 5 6)", 6)
        tau = t * t
        H = G.point_stabilizer(0)
        S = s_tau(H, tau).elements
        trip = validate_triple(G, S, [t], tau)
        assert trip.valid
        assert all(trip.checks.values())

    def test_higman_stated_triple(self):
        params = sample_params(6, 1)
        G = HigmanGroup(params)
        S = [G.g(1), G.g(2), G.h(1), G.h(2)]
        T = [G.g(3), G.g(4)]
        tau = G.h(1)
        trip = validate_triple(G, S, T, tau)
        assert trip.valid
        assert trip.index == 4

    def test_wrong_square_fails_aiii(self):
        G = gz.symmetric_group(4)
        t = parse_cycles("(1 2 3 4)", 4)
        tau = parse_cycles("(1 2)(3 4)", 4)   # not t^2
        trip = validate_triple(G, [tau], [t], tau)
        assert not trip.checks["Aiii"]

    def test_rejects_foreign_elements(self):
        G = gz.alternating_group(4)
        with pytest.raises(ValueError):
            validate_triple(G, [parse_cycles("(1 2)", 4)], [],
                            parse_cycles("(1 2)(3 4)", 4))

    def test_rejects_values_it_cannot_name_as_members(self):
        # a plain tuple, a string and a pair past Q8's bits are named by
        # repr, not read as an element
        S4, Q8 = gz.construct("S4"), gz.construct("Q8")
        tau = parse_cycles("(1 2)(3 4)", 4)
        for G, x, t in [(S4, (1, 0, 2, 3), tau), (S4, "x", tau),
                        (Q8, (9, 0), Q8.h(1))]:
            with pytest.raises(ValueError,
                               match=rf"^element {re.escape(repr(x))} "
                                     r"not in G$"):
                validate_triple(G, [x], [], t)

    def test_rejects_non_involution_tau(self):
        G = gz.symmetric_group(3)
        with pytest.raises(ValueError):
            validate_triple(G, [], [], parse_cycles("(1 2 3)", 3))


class TestSearch:
    def test_alt7_point_stabilizer(self):
        G = gz.alternating_group(7)
        H = G.point_stabilizer(0)
        trip = search_triple_subgroup_strategy(G, H)
        assert trip is not None and trip.valid

    def test_sym5_readings(self):
        G = gz.symmetric_group(5)
        found = []
        for H in [gz.pointwise_stabilizer(G, [3, 4]),
                  gz.setwise_stabilizer(G, [3, 4])]:
            trip = search_triple_subgroup_strategy(G, H)
            found.append(trip is not None and trip.valid)
        assert any(found)

    def test_search_is_deterministic(self):
        G = gz.alternating_group(6)
        H = G.point_stabilizer(0)
        a = search_triple_subgroup_strategy(G, H)
        b = search_triple_subgroup_strategy(G, H)
        assert a.tau == b.tau and a.T == b.T and a.S == b.S

    def test_outside_candidates_are_tested_after_h_involutions(
            self, monkeypatch):
        # the search of criterion 5 succeeds on an involution of H, so it
        # never tests an involution of G outside H for normalising H
        G = gz.psl2(17)
        H = gz.normalizer_bruteforce(G, gz.cyclic_subgroups_of_order(G, 8)[0])
        tested = []
        normalizes = tr.normalizes

        def recording_normalizes(G, H):
            predicate = normalizes(G, H)

            def recording(x):
                tested.append(x)
                return predicate(x)
            return recording

        monkeypatch.setattr(tr, "normalizes", recording_normalizes)
        trip = search_triple_subgroup_strategy(G, H)
        assert trip.valid and H.contains(trip.tau)
        assert tested == []

    @pytest.mark.parametrize("expr,subgroup,outside", [
        ("S4", lambda G: G.point_stabilizer(0), 0),
        ("A5", lambda G: gz.setwise_stabilizer(G, [3, 4]), 0),
        ("S5", lambda G: gz.pointwise_stabilizer(G, [3, 4]), 4),
    ], ids=["S4-point", "A5-setwise", "S5-pointwise"])
    def test_candidates_keep_their_order(self, expr, subgroup, outside):
        # H's involutions, then G's outside H that normalise H; in S5
        # those are (4 5) times each involution of H or the identity
        G = gz.construct(expr)
        H = subgroup(G)
        hset = H.element_set()
        normalizing = gz.normalizes(G, H)
        listed = list(tr._tau_candidates(G, H))
        assert listed == H.involutions() + [
            x for x in G.involutions() if x not in hset and normalizing(x)]
        assert len(listed) - len(H.involutions()) == outside

    def test_cca_group_yields_nothing(self):
        G = gz.alternating_group(4)     # CCA, so no triple can exist
        H = G.point_stabilizer(0)
        assert search_triple_subgroup_strategy(G, H) is None

    @pytest.mark.parametrize("expr, involutions",
                             [("S3", 3), ("D4", 5), ("S4", 9), ("D5", 5)])
    def test_no_triple_where_every_span_is_whole(self, expr, involutions):
        # <S_G(tau) u {tau}> = G for every involution tau, so (Aiv) fails
        # for each, and every square root lies in the span and is skipped
        G = gz.construct(expr)
        taus = G.involutions()
        assert len(taus) == involutions
        for tau in taus:
            span = G.generated_subgroup(s_tau(G, tau).elements + [tau])
            assert span.order() == G.order()
        assert search_triple_subgroup_strategy(G, G) is None


class TestSquareRoots:
    def test_c4(self):
        G = gz.cyclic_group(4)
        g = G.generators()[0]
        tau = G.multiply(g, g)
        roots = list(G.square_roots(tau))
        assert set(roots) == {g, G.invert(g)}

    def test_q8_minus_one(self):
        G = HigmanGroup(quaternion_params())
        tau = G.h(1)
        assert len(list(G.square_roots(tau))) == 6

    def test_sym4_scan_oracle(self):
        G = gz.symmetric_group(4)
        tau = parse_cycles("(1 2)(3 4)", 4)
        roots = list(G.square_roots(tau))
        assert roots == [t for t in G.elements()
                         if t * t == tau]
        assert len(roots) == 2          # (1 3 2 4) and (1 4 2 3)

    def test_psl2_17_base_images_against_multiply(self):
        """The base-image scan, for every involution."""
        G = gz.construct("PSL2(17)")
        elems = G.elements()
        for tau in G.involutions():
            assert list(G.square_roots(tau)) == \
                [t for t in elems if G.multiply(t, t) == tau]

    def test_tau_outside_the_group_agreeing_at_the_base(self):
        """Base images tell only the group's own elements apart: a tau
        outside it that agrees with t^2 at every base point has no root."""
        G = gz.construct("PSL2(17)")
        base = G.chain.base
        t = next(x for x in G.elements() if x.order() == 8)
        images = list(t * t)
        i, j = [p for p in range(G.degree) if p not in base][:2]
        images[i], images[j] = images[j], images[i]
        tau = Permutation(images)
        assert not G.contains(tau)
        assert all(tau[b] == (t * t)[b] for b in base)
        assert list(G.square_roots(tau)) == []


class TestCrosscheck:
    def test_sym5_triple_graph_non_cca(self):
        G = gz.symmetric_group(5)
        t = parse_cycles("(1 4 2 5)", 5)
        tau = t * t
        H = gz.setwise_stabilizer(G, [3, 4])
        trip = validate_triple(G, s_tau(H, tau).elements, [t], tau)
        assert trip.valid
        rep = crosscheck_prop22(G, trip)
        assert not rep.verdict.is_cca

    def test_higman_triple_graph_non_cca(self):
        G, trip = theorem3_triple(sample_params(6, 2))
        rep = crosscheck_prop22(G, trip)
        assert not rep.verdict.is_cca

    def test_requires_valid_triple(self):
        G = gz.cyclic_group(4)
        g = G.generators()[0]
        trip = validate_triple(G, [], [g], G.multiply(g, g))
        with pytest.raises(ValueError):
            crosscheck_prop22(G, trip)

    def test_disconnected_graph_raises_crosscheck_error(self):
        # S u T = {(1 2)} does not generate S4, so the graph is disconnected
        G = gz.symmetric_group(4)
        t = G.elem_parse("(1 2)")
        trip = validate_triple(G, [t], [], t)
        trip.valid = True               # deliberate forgery
        with pytest.raises(CrosscheckError, match="connected=False"):
            crosscheck_prop22(G, trip)

    def test_failure_raises_crosscheck_error(self):
        # a forged 'valid' triple on a CCA graph must be caught
        G = gz.cyclic_group(4)
        g = G.generators()[0]
        trip = validate_triple(G, [], [g], G.multiply(g, g))
        trip.valid = True               # deliberate forgery
        with pytest.raises(CrosscheckError):
            crosscheck_prop22(G, trip)
