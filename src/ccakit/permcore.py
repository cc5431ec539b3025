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
each listed tuple once, in place; its rows are ``FiniteGroup.rows``,
over its own ``left_row`` (below); its generators are filtered by
``fgroup.distinct_generators``.  A Permutation is the tuple of its images,
so the group's one element index answers a lookup by a Permutation or by
the plain tuple a row product returns.

An element of the group is fixed by its images of a base (Sims 1970).  A
group that knows a base without building a chain (below), of at most
degree/2 points (PSL(2, q) has 3 points on q + 1), keys its listing by
those images, ``itemgetter`` over the base: it tests g * x for membership
by the images x[g[b]] of the base points b and forms the full tuple only
for a new element.  Its ``left_row(s)`` looks each s * v up by the same
images, v[s[b]], in a key -> position index built once beside the element
index, and forms no product.  A group with a longer base (S_n and A_n),
or with none known, lists and builds rows by full products, which cost
less there.  The involution, square-root and order-4 scans of every
permutation group read x^2 and x^4 at the base points only, and
``element_orders`` reads each order as the lcm of the lengths of the
cycles through the base points, since x^k is the identity exactly when it
fixes every base point.

A permutation group knows its order and a base, without listing, from
one of three places:

- its chain, once built;
- its constructor, through ``known``, where the constructor knows them:
  groupzoo's named groups and direct products, higman's regular
  representation, and ``point_stabilizer``, which reads the stabilizer's
  order and base off the one chain it builds.  ``psl2`` and M11 are given
  none, and verify their order by an unbounded chain;
- its parent, for a subgroup: ``generated_subgroup`` makes the group the
  subgroup's parent, so FiniteGroup's subgroup rule (fgroup) bounds the
  subgroup by the parent's known order and may prove it whole, and a base
  of the parent is a base of each of its subgroups.

Keys come only from a base known in one of these ways; no chain is built
to key a listing or a row.  Once listed, its order is the listing's length
and membership a lookup in its element index.  So a named group answers
its order, lists, keys its listing and rows and scans its squares with no
chain.  A group orders and lists, and tests membership, by FiniteGroup's
rules (fgroup), and its ``order`` and ``contains`` differ only in using
the chain where FiniteGroup would list: a chain orders only a group whose
order nothing else gives, and sifts only for an unlisted group not known
to be whole.  Otherwise ``contains`` refuses a non-permutation and is
FiniteGroup's, so a subgroup refuses what its parent refuses.
So a group given by generators alone, with no listing bound within the
enumeration limit, is ordered by its chain before it lists, and keyed by
that chain's base.  The exhaustive sweep finds the order of such a group
by ``order_within``, which lists it under the graph limit, and so builds
no chain.  Every chain a group builds stops once its basic orbits
multiply to the listing bound, the known order or else the parent bound
(known-order Schreier-Sims, Seress, *Permutation Group Algorithms*,
2003, ch. 4; ``StabilizerChain``), which gives the chain built without
it.

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

    # Wrap images known to be a bijection, without checking them: one
    # C-level call, ``tuple.__new__(cls, images)``.
    _trusted = classmethod(tuple.__new__)

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
    right: each is composed in place into one image list, p -> p * c, by
    moving the images of the points that p sends into c, found in the
    list of sources beside it.  The bijection is checked once, at the end.
    """
    stripped = _CYCLE_RE.sub("", text)
    if stripped.strip():
        raise ValueError(f"malformed cycle notation: {text!r}")
    images = list(range(degree))
    sources = list(range(degree))       # images[sources[x]] == x
    for body in _CYCLE_RE.findall(text):
        pts = [int(tok) - 1 for tok in body.replace(",", " ").split()]
        if len(set(pts)) != len(pts):
            raise ValueError(f"repeated point in cycle: {body!r}")
        if any(p < 0 or p >= degree for p in pts):
            raise ValueError(f"point out of range 1..{degree}: ({body})")
        # (p * c)(i) = c(p(i)): the i with p(i) = a now goes to c(a) = b
        for i, b in zip([sources[a] for a in pts], pts[1:] + pts[:1]):
            images[i] = b
            sources[b] = i
    return Permutation(images)


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

    ``order_bound``, if given, bounds the order of the group the
    generators span (an ancestor's order, say).  The product of the basic
    orbit lengths never exceeds that order, and equals it only when the
    strong generators are complete, so once the product reaches the bound
    the construction stops without the scan, which would insert nothing:
    the chain is the one built without the bound (known-order
    Schreier-Sims, Seress, ch. 4).
    """

    def __init__(self, degree: int, generators, base_hint=(),
                 order_bound: int | None = None):
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
        self._close(order_bound)

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

    def _close(self, order_bound: int | None):
        while True:
            self._recompute()
            if (self.order() == order_bound
                    or not self._find_and_insert_residue()):
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
    """Group of permutations of a fixed degree, given by generators.

    ``known``, if given, is the pair (order, base) that a constructor
    knows without Schreier-Sims (groupzoo, higman) or reads off a chain
    it built (``point_stabilizer``); it is taken as given, so only those
    constructors pass it.
    """

    def __init__(self, degree: int, generators=(), *,
                 known: tuple[int, list[int]] | None = None):
        self.degree = degree
        gens = [g if isinstance(g, Permutation) else Permutation(g)
                for g in generators]
        if any(map(degree.__ne__, map(len, gens))):
            raise ValueError("generator degree mismatch")
        self._gens = fgroup.distinct_generators(
            gens, Permutation.identity(degree))
        self._known = known
        self._chain: StabilizerChain | None = None
        # left_row's (short base, base images -> position), built on use
        self._keyed: tuple | None = None

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
        """The stabilizer chain, built on first use and stopped at the
        listing bound."""
        if self._chain is None:
            self._chain = StabilizerChain(self.degree, self._gens,
                                          order_bound=self._listing_bound())
        return self._chain

    def _known_order(self) -> int | None:
        """The chain's order, else the constructor's, else the listing's
        length, else None."""
        if self._chain is not None:
            return self._chain.order()
        if self._known is not None:
            return self._known[0]
        return super()._known_order()

    def order(self) -> int:
        """FiniteGroup's order, with the chain's where it would list: the
        order known without listing, else the chain's."""
        known = self._order_known()
        return self.chain.order() if known is None else known

    def contains(self, p) -> bool:
        """FiniteGroup's membership, except that a non-permutation is no
        member and an unlisted group not known to be whole sifts p
        through its chain where FiniteGroup would list."""
        if not isinstance(p, Permutation):
            return False
        if not self._whole() and self._elements is None:
            return self.chain.contains(p)
        return super().contains(p)

    def _list(self, limit: int) -> list[Permutation]:
        """FiniteGroup's listing, on image tuples, each wrapped in place."""
        elems = super()._list(limit)
        # in place: a second list would hold every element twice at once
        trusted = Permutation._trusted
        for i, t in enumerate(elems):
            elems[i] = trusted(t)
        return elems

    def _known_base(self) -> list[int] | None:
        """A base known without building a chain: the constructor's, else
        the chain's if built, else the bounding parent's (a base of a
        group is a base of each of its subgroups), else None."""
        if self._known is not None:
            return self._known[1]
        if self._chain is not None:
            return self._chain.base
        if self._parent_bound() is not None:
            return self.parent._known_base()
        return None

    def _base(self) -> list[int]:
        """The known base, else the chain's, built for it."""
        base = self._known_base()
        return self.chain.base if base is None else base

    def _short_base(self) -> list[int] | None:
        """The known base if it has at most degree/2 points, else None.  A
        base of no points is the trivial group's, with nothing to key."""
        base = self._known_base()
        if not base or 2 * len(base) > self.degree:
            return None
        return base

    def _listing_keys(self, gens: list) -> dict:
        """Key the listing by base images if the known base is short: g * x
        has the images x[g[b]] of the base points b.

        ``itemgetter`` of one point gives a scalar, which keys as well as a
        tuple.
        """
        base = self._short_base()
        if base is None:
            return {}
        return {"key": itemgetter(*base),
                "key_maps": [itemgetter(*[g[b] for b in base])
                             for g in gens]}

    def left_map(self, g: Permutation):
        """x -> g * x on image tuples (a Permutation is one)."""
        return _left_factor(g)

    def left_row(self, s: Permutation) -> list[int]:
        """Row of s, a member of the group: the index of s*v per element v.

        With a short known base, s*v is looked up by its base images
        v[s[b]] in a key -> position index, built on first use from
        ``element_index`` and sharing its position objects, so no product
        is formed.  A longer base, or none known without a chain, takes
        FiniteGroup's lookup of the full products.
        """
        if self._keyed is None:
            index = self.element_index()
            base = self._short_base()
            if base is None:
                return super().left_row(s)
            keys = map(itemgetter(*base), index)
            self._keyed = (base, dict(zip(keys, index.values())))
        base, positions = self._keyed
        images = itemgetter(*[s[b] for b in base])
        return list(map(positions.__getitem__, map(images, self.elements())))

    def generated_subgroup(self, gens) -> "PermutationGroup":
        """<gens>, with this group as its parent, which bounds it and may
        prove it whole (FiniteGroup's subgroup rule)."""
        H = PermutationGroup(self.degree, gens)
        H.parent, H.enum_limit = self, self.enum_limit
        return H

    def elem_str(self, x) -> str:
        """Cycle notation; a value that is no Permutation by ``repr``."""
        return x.cycle_str() if isinstance(x, Permutation) else repr(x)

    def elem_parse(self, text: str) -> Permutation:
        return parse_cycles(text, self.degree)

    # -- squaring scans, at the base points ---------------------------------

    def _squares_at_base(self, target):
        """The elements x with x[x[b]] == target[b] at every base point b."""
        wanted = [(b, target[b]) for b in self._base()]
        for x in self.elements():
            for b, c in wanted:
                if x[x[b]] != c:
                    break
            else:
                yield x

    def involutions(self) -> list[Permutation]:
        e = self.identity()
        return [x for x in self._squares_at_base(e) if x != e]

    def square_roots(self, tau):
        """Square roots compared at the base points first; a match is
        checked by a full product, since tau may lie outside the group."""
        return (t for t in self._squares_at_base(tau) if t * t == tau)

    def has_element_of_order4(self) -> bool:
        """x has order 4 when x^4 fixes every base point and x^2 moves one."""
        base = self._base()
        for x in self.elements():
            moved = False
            for b in base:
                b2 = x[x[b]]
                if x[x[b2]] != b:
                    break
                moved = moved or b2 != b
            else:
                if moved:
                    return True
        return False

    # -- permutation-specific operations --------------------------------------

    def element_orders(self) -> list[int]:
        """The order of each element, the lcm of the lengths of its cycles
        through the base points: x^k is the identity exactly when it fixes
        every base point."""
        base = self._base()
        out = []
        for x in self.elements():
            k = 1
            for b in base:
                n, y = 1, x[b]
                while y != b:
                    n, y = n + 1, x[y]
                k = lcm(k, n)
            out.append(k)
        return out

    def point_stabilizer(self, point: int) -> "PermutationGroup":
        """Exact stabilizer of a point, via one chain based at that point
        and stopped at the listing bound.

        The strong generators fixing the first base point, ``point``, span
        the stabilizer, and are a strong generating set for it on the same
        base, whose order the chain gives: |G| / |orbit|.  The stabilizer
        is given that order and base through ``known``, so it builds no
        chain of its own to order, list or key itself.
        """
        if not 0 <= point < self.degree:
            raise ValueError(f"point {point} outside degree {self.degree}")
        chain = StabilizerChain(self.degree, self._gens, base_hint=(point,),
                                order_bound=self._listing_bound())
        H = PermutationGroup(
            self.degree, chain._level_gens(1),
            known=(chain.order() // len(chain.transversals[0]), chain.base))
        H.enum_limit = self.enum_limit
        return H

    def __repr__(self) -> str:
        return (f"PermutationGroup(degree={self.degree}, "
                f"ngens={len(self._gens)})")

