"""Non-CCA triples: S_G(tau), validation, search, square-root counting.

A non-CCA triple (S, T, tau) of a group G requires an involution tau and

    (Ai)   <S u T> = G,
    (Aii)  tau inverts or centralises every element of S,
    (Aiii) t^2 = tau for every t in T,
    (Aiv)  <S u {tau}> != G,
    (Av)   tau non-central in G, or |G : <S u {tau}>| > 2.

A valid triple certifies that Cay(G, S u T) is connected and non-CCA;
`crosscheck_prop22` verifies that claim directly on the graph and treats
any disagreement as a fatal correctness bug.

S_G(tau) is the set of non-identity elements centralised or inverted by
conjugation by tau.  When tau lies in the carrier, `s_tau` works on
element indices only: one row per tau, lt[i] = index(tau * x_i)
(`left_row`), and the carrier's cached inverse table,
inv[i] = index(x_i^-1) (`inverse_row`).  The row also checks tau, with
no group product: for t = index(tau), tau != 1 iff t != 0, and
tau^2 = 1 iff lt[t] == 0.  Since tau is an involution,
(tau * x^-1)^-1 = x * tau, so the right row is rt[i] = inv[lt[inv[i]]]
and conjugation by tau is i -> rt[lt[i]].  Two forms are computed from
these rows and must agree, or `s_tau` raises AssertionError (index 0 is
the identity):

    filter form          {i : rt[lt[i]] in {i, inv[i]}} - {0},
    definitional form    ({i : lt[i] == rt[i]} u {rt[i] : inv[i] == i}) - {0},

the second being (C_G(tau) u {y*tau : y^2 = 1}) - {1}.  A tau outside the
carrier has no index, so there `s_tau` checks tau by squaring it and
keeps the filter form {x : x^tau in {x, x^-1}} over element products,
which needs only that tau be an involution.  The product form of both,
as it stood before the row form, is kept in the tests as the reference
(tests/oracle_s_tau.py).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cayley import ConnectionSet, build
from .colourauts import CCAVerdict, is_cca_graph
from .fgroup import DEFAULT_GRAPH_LIMIT, FiniteGroup
from .groupzoo import normalizes


class CrosscheckError(AssertionError):
    """A validated triple failed the direct graph cross-check."""


@dataclass
class STauSet:
    """Elements of the carrier centralised or inverted by tau."""

    carrier: FiniteGroup
    elements: list = field(repr=False)

    def span(self) -> FiniteGroup:
        """<S_G(tau)>, with the carrier as its parent.  By FiniteGroup's
        subgroup rule, a span known to be the whole carrier, most often
        because its generators are more than half of it
        (``fgroup.is_whole``), answers order, contains and element_set
        from the carrier without listing itself."""
        return self.carrier.generated_subgroup(self.elements)


def _require_involution(G: FiniteGroup, tau) -> None:
    e = G.identity()
    if tau == e or G.multiply(tau, tau) != e:
        raise ValueError("tau must be an involution")


def _fixed_or_inverted(G: FiniteGroup, x, tau) -> bool:
    """Whether x^tau is x or x^-1, for an involution tau, so that
    x^tau = tau x tau; x^-1 is formed only when x^tau != x."""
    y = G.multiply(G.multiply(tau, x), tau)
    return y == x or y == G.invert(x)


def s_tau(carrier: FiniteGroup, tau) -> STauSet:
    """S(tau) over the carrier, in the carrier's element order.

    tau must be an involution of the type of the carrier's elements,
    else ValueError: a value of another type, such as the plain tuple a
    Permutation equals, is refused before it is looked up.  When tau lies
    in the carrier, the check and both forms are read off tau's left row
    and the inverse table (see the module docstring), and the forms must
    agree; when it lies outside, tau is squared and the conjugation
    filter runs over element products.  The carrier is listed before tau
    is checked, so a carrier past its enumeration limit raises
    LimitExceeded first, whatever tau is.
    """
    G = carrier
    elems = G.elements()
    if type(tau) is not type(elems[0]):
        raise ValueError("tau must be an involution")
    t = G.element_index().get(tau)
    if t is None:
        _require_involution(G, tau)
        e = G.identity()
        return STauSet(carrier=carrier, elements=[
            x for x in elems if x != e and _fixed_or_inverted(G, x, tau)])
    lt = G.left_row(tau)                    # tau * x_i
    if not t or lt[t]:                      # tau == 1, or tau^2 != 1
        raise ValueError("tau must be an involution")
    inv = G.inverse_row()
    rt = [inv[lt[j]] for j in inv]          # x_i * tau
    # index 0 is the identity; rt[lt[i]] is tau * x_i * tau
    filt = [i for i, j in enumerate(lt) if i and rt[j] in (i, inv[i])]
    definitional = {i for i, j in enumerate(lt) if j == rt[i]}
    definitional |= {rt[i] for i, j in enumerate(inv) if i == j}
    definitional.discard(0)
    if definitional != set(filt):
        raise AssertionError(
            "S_G(tau): definitional and filter forms disagree "
            "(correctness bug)")
    return STauSet(carrier=carrier, elements=[elems[i] for i in filt])


@dataclass
class NonCCATriple:
    """Candidate triple with per-condition verdicts."""

    group: FiniteGroup
    S: tuple
    T: tuple
    tau: object
    checks: dict
    valid: bool
    index: int                        # |G : <S u {tau}>|

    def to_json_dict(self) -> dict:
        g = self.group
        return {
            "S": [g.elem_str(s) for s in self.S],
            "T": [g.elem_str(t) for t in self.T],
            "tau": g.elem_str(self.tau),
            "checks": dict(self.checks),
            "valid": self.valid,
            "index_S_tau": self.index,
        }


def validate_triple(G: FiniteGroup, S, T, tau) -> NonCCATriple:
    """Test Definition-style conditions (Ai)-(Av) literally.

    Failed conditions are verdicts, not errors; only malformed input
    (elements outside G, tau not an involution) raises.
    """
    S = list(S)
    T = list(T)
    for x in [*S, *T, tau]:
        if not G.contains(x):
            raise ValueError(f"element {G.elem_str(x)} not in G")
    _require_involution(G, tau)

    order_g = G.order()
    checks: dict[str, bool] = {}
    checks["Ai"] = G.generated_subgroup(S + T).order() == order_g
    checks["Aii"] = all(_fixed_or_inverted(G, s, tau) for s in S)
    checks["Aiii"] = all(G.multiply(t, t) == tau for t in T)
    X = G.generated_subgroup(S + [tau])
    order_x = X.order()
    index = order_g // order_x
    checks["Aiv"] = order_x != order_g
    checks["Av"] = (not G.is_central(tau)) or index > 2
    return NonCCATriple(group=G, S=tuple(S), T=tuple(T), tau=tau,
                        checks=checks, valid=all(checks.values()),
                        index=index)


def _tau_candidates(G: FiniteGroup, H: FiniteGroup):
    """Yield H's involutions, then G's involutions outside H that normalise
    H; G's are listed and tested only once H's are used up."""
    yield from H.involutions()
    hset = H.element_set()
    normalizes_h = normalizes(G, H)
    for x in G.involutions():
        if x not in hset and normalizes_h(x):
            yield x


def search_triple_subgroup_strategy(G: FiniteGroup,
                                    H: FiniteGroup) -> NonCCATriple | None:
    """Search for a triple of the form (S_H(tau), {t}, tau).

    tau ranges over the involutions of H in enumeration order, then the
    involutions of G normalizing H from outside; t over square roots of
    tau in G outside <S u {tau}>, so when <S u {tau}> is G, where (Aiv)
    fails, every root is skipped.  The first fully valid triple in this
    deterministic order wins.
    """
    for tau in _tau_candidates(G, H):
        S = s_tau(H, tau).elements
        X = G.generated_subgroup(S + [tau])
        for t in G.square_roots(tau):
            if X.contains(t):
                continue
            triple = validate_triple(G, S, [t], tau)
            if triple.valid:
                return triple
    return None


@dataclass
class CrosscheckReport:
    """Direct graph-level confirmation of a validated triple.

    crosscheck_prop22 returns a report only when the graph is connected
    and non-CCA, so a report always means confirmed; its JSON still names
    both facts as "connected" and "ok".  The graph is verdict.graph.
    """

    verdict: CCAVerdict

    def to_json_dict(self) -> dict:
        return {
            "connected": True,
            "is_cca": self.verdict.is_cca,
            "stab1_checked": self.verdict.stab1_checked,
            "ok": True,
        }


def crosscheck_prop22(G: FiniteGroup, triple: NonCCATriple,
                      graph_limit: int = DEFAULT_GRAPH_LIMIT,
                      ) -> CrosscheckReport:
    """Build Cay(G, S u T) and confirm it is connected and non-CCA; the
    report is returned only when both hold.

    The connection set is the inverse closure of S u T (the graph does not
    change, but the colouring needs both t and t^-1).  is_cca_graph
    streams the strong generators of the vertex stabilizer and stops at
    the first one that is not a group automorphism: their number grows
    with the index of <S u {tau}>, but the first one found is usually a
    witness.  The report reads only the decision, so the rest of the
    search never runs.  A failure here is a fatal correctness bug and
    raises CrosscheckError with full state, before any report is built.
    """
    if not triple.valid:
        raise ValueError("crosscheck requires a valid triple")
    conn = ConnectionSet.from_elements(
        G, list(triple.S) + list(triple.T), close_inverses=True)
    graph = build(G, conn, graph_limit)
    connected = graph.is_connected()
    verdict = is_cca_graph(graph) if connected else None
    if not connected or verdict.is_cca:
        raise CrosscheckError(
            "validated triple failed the graph cross-check: "
            f"connected={connected}, "
            f"is_cca={verdict and verdict.is_cca}, "
            f"triple={triple.to_json_dict()}, "
            f"stab1_checked={verdict and verdict.stab1_checked}")
    return CrosscheckReport(verdict)
