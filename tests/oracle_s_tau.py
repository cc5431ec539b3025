"""Reference S_G(tau): both forms over element products.

This is the oracle for ``ccakit.triples.s_tau``, which reads both forms
off tau's left row and the carrier's inverse table.  Both must return the
same elements in the same order (the carrier's element order).  The
product form is kept here exactly as it stood before that rewrite, so the
oracle does not follow later changes to it.
"""

from __future__ import annotations

from ccakit.fgroup import FiniteGroup


def _require_involution(G: FiniteGroup, tau) -> None:
    e = G.identity()
    if tau == e or G.multiply(tau, tau) != e:
        raise ValueError("tau must be an involution")


def _fixed_or_inverted(G: FiniteGroup, x, tau) -> bool:
    """Whether x^tau is x or x^-1, for an involution tau, so that
    x^tau = tau x tau; x^-1 is formed only when x^tau != x."""
    y = G.multiply(G.multiply(tau, x), tau)
    return y == x or y == G.invert(x)


def s_tau(carrier: FiniteGroup, tau) -> list:
    """S(tau) over the carrier by the conjugation filter, as a list.

    tau must be an involution; it may lie outside the carrier.  When it
    lies inside, the definitional form (C_G(tau) u {y*tau : y^2 = 1}) - {1}
    is computed as well and checked against the filter form.
    """
    G = carrier
    _require_involution(G, tau)
    e = G.identity()
    elems = G.elements()
    filt = [x for x in elems if x != e and _fixed_or_inverted(G, x, tau)]
    if tau in G.element_set():
        cent = {x for x in elems if G.commutes(x, tau)}
        ytau = {G.multiply(y, tau) for y in elems if G.multiply(y, y) == e}
        definitional = (cent | ytau) - {e}
        if definitional != set(filt):
            raise AssertionError(
                "S_G(tau): definitional and filter forms disagree "
                "(correctness bug)")
    return filt
