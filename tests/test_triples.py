import pytest

from ccakit import groupzoo as gz
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
        H = A6.point_stabilizer(1)      # does not contain tau's support? no:
        tau = parse_cycles("(3 5)(4 6)", 6)
        # tau fixes points 1 and 2 (1-based), so it lies outside the
        # stabilizer of point 2 only if it moves point 2; it does not,
        # so pick a subgroup genuinely missing tau instead
        K = A6.generated_subgroup([parse_cycles("(1 2 3)", 6)])
        st = s_tau(K, tau)
        assert all(x in K.element_set() for x in st.elements)

    def test_rejects_non_involution(self):
        G = gz.symmetric_group(3)
        with pytest.raises(ValueError):
            s_tau(G, parse_cycles("(1 2 3)", 3))
        with pytest.raises(ValueError):
            s_tau(G, G.identity())

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

    def test_cca_group_yields_nothing(self):
        G = gz.alternating_group(4)     # CCA, so no triple can exist
        H = G.point_stabilizer(0)
        assert search_triple_subgroup_strategy(G, H) is None


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
