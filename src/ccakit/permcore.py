"""Permutation arithmetic and stabilizer-chain machinery.

Action convention (fixed once, used everywhere): permutations act on
0-based points and compose left to right,

    (p * q)(i) = q(p(i)),

i.e. ``p * q`` applies p first.  The group product ``multiply(a, b)``
is exactly this composition.  All user-facing cycle notation is 1-based,
matching the classical notation "(1 2)(3 4 5 6)"; multiple cycles in one
string are applied left to right (irrelevant for disjoint cycles).

Validation happens where permutations enter: the ``Permutation``
constructor checks that its images are a bijection, and ``parse_cycles``
and ``PermutationGroup(degree, gens)`` build through it.  Products,
inverses and identities are permutations by construction, so they skip
that check (``Permutation._trusted``, private to this module).

A product is one C-level call: ``p * x`` has images ``itemgetter(*p)(x)``.
A permutation group's ``left_map(p)`` is that map on image tuples, so a
product through it builds no Permutation, hash or comparison.  Everything
else is FiniteGroup's own code over these maps: the group lists its
elements by ``FiniteGroup.elements`` (one ``fgroup.closure``) and wraps
each listed tuple once, in place; its Cayley-graph rows are
``FiniteGroup.left_row`` and its involution scan ``FiniteGroup.involutions``;
its generators are filtered by ``fgroup.distinct_generators``.  A
Permutation is the tuple of its images, so the group's one element index
answers a lookup by a Permutation or by the plain tuple a row product
returns.

Listing checks the enumeration limit against the group's order first,
which takes a stabilizer chain, except for a subgroup
(``generated_subgroup``, ``point_stabilizer``) of a group whose order is
known and within the limit: the parent's order bounds the subgroup's, so
the subgroup lists without a chain of its own (Seress, *Permutation Group
Algorithms*, 2003, ch. 4).  An order is known once the group's chain is
built, and passes down from such a bounded subgroup to its subgroups.  It
passes only to generators that lie in the parent, checked by a sift
through the parent's chain or a lookup in its element index; other
generators may span a larger group, which checks its own order.

Stabilizer chains use deterministic base selection: base-hint points
first, then the smallest point moved by the generator that forces a new
base point.  This makes orders, membership tests and reports reproducible.
A chain's basic transversals come from ``orbit_transversal``, the one
orbit search, which ``higman``'s regularity check also uses.  The chain
keeps the inverse of every transversal element beside it, so sifting and
forming Schreier generators multiply by stored inverses instead of
inverting at every step (Seress, ch. 4).  Its Schreier-Sims multiplies
plain image tuples and builds the chain of the plain loop over Permutation
products, which the tests keep as the reference.
"""

from __future__ import annotations

import re
from math import lcm
from operator import itemgetter

from . import fgroup
from .fgroup import FiniteGroup

__all__ = [
    "Permutation", "PermutationGroup", "StabilizerChain", "orbit_transversal",
    "parse_cycles",
]


class Permutation(tuple):
    """Immutable bijection of {0..degree-1}: the tuple of its images.

    ``Permutation(images)`` checks that the images are a bijection and
    raises ValueError if not; it is the one way in for outside data, and
    copying and unpickling (every protocol) come back through it.
    ``*``, ``inverse`` and ``identity`` build their results unchecked, since
    products and inverses of permutations are permutations.  Hashing,
    equality, indexing by point and immutability are the tuple's, so a
    permutation and its plain image tuple are one dict key.
    """

    __slots__ = ()

    def __new__(cls, images):
        images = tuple(images)
        n = len(images)
        if sorted(images) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {images!r}")
        return tuple.__new__(cls, images)

    def __reduce__(self):
        # every pickle protocol rebuilds through the validating __new__
        return (Permutation, (tuple(self),))

    @classmethod
    def _trusted(cls, images) -> "Permutation":
        """Wrap images known to be a bijection, without checking them."""
        return tuple.__new__(cls, images)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls._trusted(range(degree))

    @property
    def degree(self) -> int:
        return len(self)

    def __mul__(self, other: "Permutation") -> "Permutation":
        if len(self) != len(other):
            raise ValueError("degree mismatch in composition")
        return Permutation._trusted(_left_factor(self)(other))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self)
        for i, j in enumerate(self):
            inv[j] = i
        return Permutation._trusted(inv)

    def is_identity(self) -> bool:
        return self == tuple(range(len(self)))

    def moved_points(self) -> list[int]:
        return [i for i, j in enumerate(self) if i != j]

    def cycles(self) -> list[tuple[int, ...]]:
        """Non-trivial cycles, 0-based, each starting at its smallest point."""
        seen = set()
        out = []
        for i in range(len(self)):
            if i in seen or self[i] == i:
                continue
            cyc = [i]
            j = self[i]
            while j != i:
                seen.add(j)
                cyc.append(j)
                j = self[j]
            out.append(tuple(cyc))
        return out

    def order(self) -> int:
        return lcm(1, *(len(c) for c in self.cycles()))

    def cycle_str(self) -> str:
        """1-based disjoint-cycle notation; identity prints as "()"."""
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join(
            "(" + " ".join(str(p + 1) for p in c) + ")" for c in cycs)

    def __repr__(self) -> str:
        return f"Permutation[{self.cycle_str()} deg {self.degree}]"


def _left_factor(p: Permutation):
    """The map x -> p * x on image tuples, ``itemgetter(*p)(x)`` for degree
    >= 2, one C-level call.

    ``itemgetter`` of a single index returns a scalar, not a tuple, so
    degrees 0 and 1 take a plain tuple comprehension instead.
    """
    if len(p) >= 2:
        return itemgetter(*p)
    return lambda x: tuple([x[i] for i in p])


def orbit_transversal(degree: int, point: int,
                      gens) -> dict[int, Permutation]:
    """Map each point x of the orbit of ``point`` under <gens> to a t with
    t[point] == x, the keys in breadth-first order over the generators.
    """
    trans = {point: Permutation.identity(degree)}
    queue = [point]
    for x in queue:             # the queue grows as the orbit is found
        tx = trans[x]
        for g in gens:
            y = g[x]
            if y not in trans:
                trans[y] = tx * g
                queue.append(y)
    return trans


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse 1-based cycle notation, e.g. "(1 2)(3 4 5 6)".

    Whitespace-insensitive; "()" (or an empty string) is the identity, and
    an empty cycle anywhere multiplies by it.  Cycles are applied left to
    right.
    """
    stripped = _CYCLE_RE.sub("", text)
    if stripped.strip():
        raise ValueError(f"malformed cycle notation: {text!r}")
    perm = Permutation.identity(degree)
    for body in _CYCLE_RE.findall(text):
        pts = [int(tok) - 1 for tok in body.replace(",", " ").split()]
        if len(set(pts)) != len(pts):
            raise ValueError(f"repeated point in cycle: {body!r}")
        if any(p < 0 or p >= degree for p in pts):
            raise ValueError(f"point out of range 1..{degree}: ({body})")
        images = list(range(degree))
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a] = b
        perm = perm * Permutation(images)
    return perm


class StabilizerChain:
    """Base and strong generating set via a deterministic Schreier-Sims.

    After each inserted strong generator the construction rebuilds every
    level's transversal and scans the Schreier generators again from level
    0, in a fixed order, until every one sifts to the identity.  The scan
    works on plain image tuples: a Schreier generator t_x g t_{x^g}^-1 is
    two calls of ``itemgetter`` maps built once per level and per x, one
    that is already the identity is not sifted, a sift skips the product
    by a base point's own coset representative (the identity), and the
    identity test is a tuple comparison.  Only an inserted residue becomes
    a ``Permutation``.  None of this changes which residue is found first,
    so the base, the strong generators in order and the transversals are
    those of the plain loop over ``Permutation`` products.

    Strong generators never repeat and each moves a base point, with no
    guard to keep it so.  The given generators must be distinct (identities
    are dropped).  A sifted residue fixes base[:j] and either maps base[j]
    outside the level-j orbit, into which every strong generator fixing
    base[:j] maps it, or fixes every base point, which no strong generator
    does; so it is never a strong generator already.
    """

    def __init__(self, degree: int, generators, base_hint=()):
        self.degree = degree
        self.base: list[int] = list(base_hint)
        self.strong: list[Permutation] = []
        self.transversals: list[dict[int, Permutation]] = []
        # inverses[i][x] is transversals[i][x].inverse()
        self.inverses: list[dict[int, Permutation]] = []
        self._identity = tuple(range(degree))
        for g in generators:
            if not g.is_identity():
                self._insert(g)
        self._close()

    # -- construction --------------------------------------------------------

    def _insert(self, g: Permutation) -> None:
        if all(g[b] == b for b in self.base):
            self.base.append(min(g.moved_points()))
        self.strong.append(g)

    def _level_gens(self, i: int) -> list[Permutation]:
        """The strong generators fixing base[:i], in insertion order."""
        gens = list(self.strong)
        for b in self.base[:i]:
            gens = [g for g in gens if g[b] == b]
        return gens

    def _recompute(self):
        self.transversals = [
            orbit_transversal(self.degree, b, self._level_gens(i))
            for i, b in enumerate(self.base)
        ]
        self.inverses = [{x: t.inverse() for x, t in trans.items()}
                         for trans in self.transversals]

    def _close(self):
        while True:
            self._recompute()
            if not self._find_and_insert_residue():
                return

    def _find_and_insert_residue(self) -> bool:
        identity = self._identity
        for i in range(len(self.base)):
            gens = self._level_gens(i)
            g_times = [_left_factor(g) for g in gens]     # q -> g * q
            inv = self.inverses[i]
            for x, tx in self.transversals[i].items():
                tx_times = _left_factor(tx)
                for g, g_time in zip(gens, g_times):
                    # Schreier generator for the stabilizer of base[:i+1]
                    sg = tx_times(g_time(inv[g[x]]))
                    if sg == identity:
                        continue
                    residue = self._sift(sg, start=i + 1)
                    if residue != identity:
                        self._insert(Permutation._trusted(residue))
                        return True
        return False

    # -- queries ---------------------------------------------------------------

    def _sift(self, p: tuple, start: int = 0) -> tuple:
        """The residue of p (image tuple or Permutation) from level start."""
        base = self.base
        for i in range(start, len(self.inverses)):
            b = base[i]
            x = p[b]
            if x != b:                  # else t_b is the identity
                inv = self.inverses[i].get(x)
                if inv is None:
                    return p
                p = _left_factor(p)(inv)
        return p

    def order(self) -> int:
        n = 1
        for t in self.transversals:
            n *= len(t)
        return n

    def contains(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            return False
        return self._sift(p) == self._identity


class PermutationGroup(FiniteGroup):
    """Group of permutations of a fixed degree, given by generators."""

    def __init__(self, degree: int, generators=()):
        self.degree = degree
        gens = [g if isinstance(g, Permutation) else Permutation(g)
                for g in generators]
        if any(g.degree != degree for g in gens):
            raise ValueError("generator degree mismatch")
        self._gens = fgroup.distinct_generators(
            gens, Permutation.identity(degree))
        self._chain: StabilizerChain | None = None
        self._elements: list[Permutation] | None = None
        # set by generated_subgroup: the parent's order when it was known
        self._order_bound: int | None = None

    # -- FiniteGroup contract -----------------------------------------------

    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def multiply(self, a: Permutation, b: Permutation) -> Permutation:
        return a * b

    def invert(self, a: Permutation) -> Permutation:
        return a.inverse()

    def generators(self) -> list[Permutation]:
        return list(self._gens)

    @property
    def chain(self) -> StabilizerChain:
        if self._chain is None:
            self._chain = StabilizerChain(self.degree, self._gens)
        return self._chain

    def order(self) -> int:
        return self.chain.order()

    def contains(self, p) -> bool:
        return isinstance(p, Permutation) and self.chain.contains(p)

    def elements(self) -> list[Permutation]:
        """FiniteGroup's listing, on image tuples, each wrapped once.

        A subgroup whose parent's order is known and within the limit needs
        no chain of its own; otherwise the order is checked first.
        """
        if self._elements is None:
            if not self._bounded():
                self._check_enum_limit(self.order())
            elems = super().elements()
            # in place: a second list would hold every element twice at once
            trusted = Permutation._trusted
            for i, t in enumerate(elems):
                elems[i] = trusted(t)
        return self._elements

    def _bounded(self) -> bool:
        """Whether a parent's order bounds this group's within the limit."""
        bound = self._order_bound
        return bound is not None and bound <= self.enum_limit

    def left_map(self, g: Permutation):
        """x -> g * x on image tuples (a Permutation is one)."""
        return _left_factor(g)

    def generated_subgroup(self, gens) -> "PermutationGroup":
        """<gens>, bounded by this group's known order if gens lie in it."""
        H = PermutationGroup(self.degree, gens)
        H.enum_limit = self.enum_limit
        chain = self._chain
        if chain is not None and self._elements is None:
            bound, member = chain.order(), chain.contains
        elif chain is not None or self._bounded():
            index = self.element_index()
            bound, member = len(index), index.__contains__
        else:
            return H
        if all(map(member, H._gens)):
            H._order_bound = bound
        return H

    def elem_str(self, x: Permutation) -> str:
        return x.cycle_str()

    def elem_parse(self, text: str) -> Permutation:
        return parse_cycles(text, self.degree)

    # -- permutation-specific operations --------------------------------------

    def element_order(self, x: Permutation) -> int:
        return x.order()

    def point_stabilizer(self, point: int) -> "PermutationGroup":
        """Exact stabilizer of a point, via a chain based at that point."""
        if not 0 <= point < self.degree:
            raise ValueError(f"point {point} outside degree {self.degree}")
        chain = StabilizerChain(self.degree, self._gens, base_hint=(point,))
        # the strong generators fixing the first base point, `point`, span
        # the stabilizer, whose order the chain gives: |G| / |orbit|
        H = PermutationGroup(self.degree, chain._level_gens(1))
        H.enum_limit = self.enum_limit
        H._order_bound = chain.order() // len(chain.transversals[0])
        return H

    def __repr__(self) -> str:
        return (f"PermutationGroup(degree={self.degree}, "
                f"ngens={len(self._gens)})")

