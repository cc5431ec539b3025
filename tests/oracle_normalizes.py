"""Reference normaliser predicate: conjugates of H's generators.

This is the oracle for ``ccakit.groupzoo.normalizes``, which labels the
right cosets of H once and tests x by one product x*h and one label per
generator h.  Both must accept the same x.  The product form is kept here
as it stood before that rewrite, so the oracle does not follow later
changes to it.
"""

from __future__ import annotations

from ccakit.fgroup import FiniteGroup


def normalizes(G: FiniteGroup, H: FiniteGroup):
    """Predicate on x in G: conjugation by x maps H's generators into H."""
    hset, hgens = H.element_set(), H.generators()

    def normalizing(x) -> bool:
        x_inv = G.invert(x)             # h^x = x^-1 h x
        return all(G.multiply(G.multiply(x_inv, h), x) in hset
                   for h in hgens)
    return normalizing
