"""Abstract finite-group contract.

Every group in this package is a `FiniteGroup`: an object that owns the
arithmetic (identity, multiply, invert) over immutable, hashable element
values.  Two realizations exist: permutation-backed groups (permcore) and
bitvector-backed 2-groups (higman).  Enumeration order is deterministic:
identity first, then breadth-first closure over the generator list, so
reports and witnesses are reproducible across runs.  ``closure`` is the one
listing loop.  It takes one left-multiplication map x -> g*x per generator
g, and a group hands out that map through one hook, ``left_map(g)``:
``partial(multiply, g)`` by default, and a C-level product on image
tuples for permutation groups (and for stab1, in colourauts).  The
involution, order-4 and square-root scans square by ``multiply``.

A group may also key its elements: ``_listing_keys`` hands ``closure`` a
key that tells the elements apart and, per generator g, the map
x -> key(g*x), so the listing tests keys and forms a product only for a new
element.  A permutation group with a short base keys its elements by their
images of the base, and every permutation group's scans read only base
points (permcore).

``FiniteGroup`` alone orders and lists a group, and bounds a subgroup,
which holds its ``parent``, and proves it whole.  Each group supplies
``_known_order``, the order it knows without listing: its listing's
length here; for a permutation group its chain's order, else its
constructor's, else its listing's length (permcore); 2^n for a Higman
group and the GF(2) rank order for a Higman subgroup (higman).  The
parent bound is the parent's known order, provided the parent holds
every generator.  A subgroup is its whole parent when the parent bound
is known and either Lagrange's theorem proves it (``is_whole``: the
generators and the identity are more than half of the parent, as in most
S_G(tau) spans) or its own known order is that bound.

The order rule: the order known without listing (``_order_known``) is
the parent bound for a whole group, else ``_known_order``.  ``order``
returns it, or, where it is unknown, the length of a listing under the
enumeration limit; a permutation group builds its chain there instead.
``elements`` holds the one enumeration-limit check: the
``_listing_bound`` is the group's own known order, else the parent
bound, and unless it is within the limit, ``order`` is checked before
the group lists, so a group past the limit is refused before it lists
anything, and no group lists twice.  ``closure`` stops once it has
listed as many elements as the listing bound, with the same list.  A
subgroup's ``contains`` refuses what its parent refuses.  A whole
subgroup holds the rest and its ``element_set`` is the parent's, so
reading them lists nothing; its ``elements`` and ``element_index``
still list it in its own order.  ``order_within(limit)``
answers from the order known without listing, else lists the group
under the caller's limit (the graph limit, in cayley) instead of the
enumeration limit, where that is smaller, and keeps the listing.

Index arithmetic has one direct computation and one derivation.
``left_row(s)``, row[v] = index(s*v), looks up ``left_map(s)`` of every
element v in the element index.  Higman groups, listed in natural order,
compute it by e-block instead, and permutation groups with a short base
look s*v up by its images of the base, without forming it (permcore).
``rows(members)`` gives the row of each member and calls ``left_row``
only for a member that no row it holds covers.  It uses two identities
of the left regular representation, where each row is a permutation of
the indices: row(a*b) is the composite row(a) o row(b), row(a*b)[v] =
row(a)[row(b)[v]], and row(s^-1) is the inverse permutation of row(s).
So a member that is the product of two held members gets their
composite, and every member's partner s^-1 is held with it.
``mult_table`` is the rows of every element, for which ``left_row``
computes at most the generators' rows, and `cayley.build` is the rows of
a connection set's members.  Every generating set is filtered by one
rule, ``distinct_generators``: no identity, no repeat, first occurrences
in order.

A listed group keeps one index, ``element_index`` (element -> position);
``element_set`` is a view of that index's keys, not a second copy.
``inverse_row`` is cached beside it: the index of each element's inverse,
which ``mult_table`` fills from the partner rows it holds, inverting no
element.  `triples.s_tau` reads it with left rows to work on indices
alone, and `cayley.class_rows` reads it to pair the rows of s and s^-1 in
each colour class.
"""

from __future__ import annotations

import abc
from functools import partial
from typing import Any, Callable, Iterable, KeysView

DEFAULT_ENUM_LIMIT = 10**6
DEFAULT_GRAPH_LIMIT = 4096


class LimitExceeded(Exception):
    """An enumeration, graph-size or search budget limit was hit."""


def closure(identity: Any, maps: list[Callable[[Any], Any]],
            limit: int, key: Callable[[Any], Any] | None = None,
            key_maps: list[Callable[[Any], Any]] | None = None,
            bound: int | None = None) -> list:
    """Breadth-first closure of ``identity`` under left-multiplication maps.

    Each map sends x to g*x for one generator g.  Returns every product
    exactly once, identity first, in a deterministic order fixed by the
    list of maps; raises LimitExceeded past ``limit`` elements.

    ``key``, if given, tells the group's elements apart, and key_maps[i]
    is x -> key(maps[i](x)), formed without that product.  The loop then
    tests keys for membership and forms a product only for a new element,
    so it lists the same elements in the same order.  The keys are local
    to the call.

    ``bound``, if given, is an upper bound on the order of the group the
    maps generate, such as the order of a group that holds it.  The loop
    returns as soon as it has listed that many elements: no later step can
    find a new one, so the list and its order are those of the full loop.
    """
    if key is None:
        key_maps = maps                     # each element is its own key
    # one test per new element: stop at the bound, or raise past the limit
    full = bound if bound is not None and bound <= limit else limit + 1
    elems = [identity]
    seen = {identity if key is None else key(identity)}
    steps = list(zip(maps, key_maps))
    for x in elems:             # the list grows as products are found
        for f, k in steps:
            y = k(x)
            if y not in seen:
                seen.add(y)
                elems.append(y if f is k else f(x))
                if len(elems) == full:
                    if full > limit:
                        raise LimitExceeded(
                            f"closure exceeded enumeration limit {limit}")
                    return elems
    return elems


def is_whole(ngens: int, parent_order: int) -> bool:
    """Whether a subgroup H of a group P of order parent_order, holding the
    identity and ngens distinct other elements, is the whole of P.

    True when 2 * (ngens + 1) > |P|, which proves H = P: |H| >= ngens + 1 >
    |P| / 2, and |H| divides |P| (Lagrange), so |P| / |H| is a whole number
    below 2, that is 1.  False proves nothing.
    """
    return 2 * (ngens + 1) > parent_order


def distinct_generators(gens: Iterable, identity) -> list:
    """gens without the identity and repeats, first occurrences in order."""
    return [g for g in dict.fromkeys(gens) if g != identity]


def _composite(held: dict[int, tuple[list[int], list[int]]],
               s: int) -> list[int] | None:
    """row(a) o row(b) for the first held a whose b = a^-1 * s is held
    (vertex s = index(a * b)), or None."""
    for row_a, row_a_inv in held.values():
        b = row_a_inv[s]
        if b in held:
            return list(map(row_a.__getitem__, held[b][0]))
    return None


def _inverse(row: list[int], positions: list[int]) -> list[int]:
    """The inverse permutation: row(s^-1) from row(s).

    Its entries are the index's own position objects, which every row
    shares, as left_row's do; enumerate would make a new int per entry
    past 256.
    """
    inv = [0] * len(row)
    for v, u in zip(positions, row):
        inv[u] = v
    return inv


class FiniteGroup(abc.ABC):
    """Finite group given by generators and element arithmetic.

    ``enum_limit`` bounds every listing of the group's elements: `elements`
    is the one place it is checked, and raises LimitExceeded once a group
    would list more.  `groupzoo.construct` sets it on the group it returns,
    and every subgroup takes its parent's limit.
    """

    enum_limit = DEFAULT_ENUM_LIMIT
    parent: "FiniteGroup | None" = None     # set on a subgroup
    _elements: list | None = None           # the listing, once made

    @abc.abstractmethod
    def identity(self):
        ...

    @abc.abstractmethod
    def multiply(self, a, b):
        """Group product a*b (a applied first under the action convention)."""

    @abc.abstractmethod
    def invert(self, a):
        ...

    @abc.abstractmethod
    def generators(self) -> list:
        ...

    # -- element enumeration ------------------------------------------------

    def elements(self) -> list:
        """All elements, identity first, deterministic order.  Cached.

        The one enumeration-limit check: unless the listing bound is within
        the limit, ``order`` is checked first, and a group whose order is
        past the limit is refused before it lists.  ``order`` lists a group
        whose order it does not know, so no group lists twice.
        """
        if self._elements is None:
            bound = self._listing_bound()
            if bound is None or bound > self.enum_limit:
                order = self.order()
                if order > self.enum_limit:
                    raise LimitExceeded(
                        f"group order {order} exceeds enumeration limit "
                        f"{self.enum_limit}")
            if self._elements is None:      # else order() listed it
                self._list(self.enum_limit)
        return self._elements

    def _list(self, limit: int) -> list:
        """List the group by ``closure``, raising LimitExceeded past limit
        elements, and keep the listing."""
        gens = self.generators()
        self._elements = closure(self.identity(),
                                 [self.left_map(g) for g in gens],
                                 limit, bound=self._listing_bound(),
                                 **self._listing_keys(gens))
        return self._elements

    def order_within(self, limit: int) -> int | None:
        """The order, if it is known without listing (``_order_known``),
        or else found by listing at most limit + 1 elements; None once the
        group has more than limit.

        The listing runs under the smaller of limit and the enumeration
        limit, and past the enumeration limit raises LimitExceeded, as
        ``order`` does.  A group within the limit keeps its listing.
        """
        known = self._order_known()
        if known is not None:
            return known
        if self.enum_limit < limit:
            return len(self._list(self.enum_limit))
        try:
            return len(self._list(limit))
        except LimitExceeded:
            return None

    def _listing_keys(self, gens: list) -> dict:
        """``closure``'s key arguments for listing over gens: none here, so
        the listing compares whole elements."""
        return {}

    def _known_order(self) -> int | None:
        """The order if it is known without listing: here, once listed."""
        return None if self._elements is None else len(self._elements)

    def _order_known(self) -> int | None:
        """The order known without listing: the parent bound for a whole
        group, else ``_known_order``.  ``order``, ``order_within`` and the
        check before a listing all read it."""
        return self._parent_bound() if self._whole() else self._known_order()

    def _parent_bound(self) -> int | None:
        """The parent's known order, provided the parent holds every
        generator, else None: an upper bound on the order.  Found once.

        Membership is looked up in the parent's element index when the
        parent is listed, else asked of ``parent.contains``.
        """
        if "_bound" not in self.__dict__:
            parent = self.parent
            bound = None if parent is None else parent._known_order()
            if bound is not None:
                member = (parent.element_index().__contains__
                          if parent._elements is not None
                          else parent.contains)
                if not all(map(member, self.generators())):
                    bound = None
            self._bound = bound
        return self._bound

    def _listing_bound(self) -> int | None:
        """An upper bound on the order, known without listing the group,
        or None: the group's own known order, else the parent bound.
        ``elements`` hands it to ``closure``, which stops there."""
        known = self._known_order()
        return self._parent_bound() if known is None else known

    def _whole(self) -> bool:
        """Whether the group is known, without listing it, to be its parent:
        the parent bound is known, and ``is_whole`` proves it from the
        number of generators or the group's own known order equals it.
        Decided once."""
        whole = getattr(self, "_is_whole", None)
        if whole is None:
            bound = self._parent_bound()
            whole = self._is_whole = bound is not None and (
                is_whole(len(self.generators()), bound)
                or self._known_order() == bound)
        return whole

    def element_set(self) -> KeysView:
        """The elements as a set: the parent's for a whole group, else a
        view of `element_index`'s keys."""
        if self._whole():
            return self.parent.element_set()
        return self.element_index().keys()

    def element_index(self) -> dict:
        """Map element -> position in `elements()`."""
        cached = getattr(self, "_element_index", None)
        if cached is None:
            cached = {x: i for i, x in enumerate(self.elements())}
            self._element_index = cached
        return cached

    def order(self) -> int:
        """The order known without listing, else the length of a listing
        under the enumeration limit."""
        known = self._order_known()
        return len(self._list(self.enum_limit)) if known is None else known

    def contains(self, x) -> bool:
        """False for a value the parent refuses; then True for a whole
        group, else looked up in the element index."""
        if self.parent is not None and not self.parent.contains(x):
            return False
        return self._whole() or x in self.element_index()

    def mult_table(self) -> list:
        """Index-based multiplication table, mt[a][b] = index of a*b.

        The table is ``rows`` of every index in order.  In the order a
        group lists its elements, each one that is no generator is the
        product of two listed before it (in a BFS listing, a generator and
        an earlier element), so ``left_row`` computes at most the
        generators' rows.
        The identity's row is the index's own position objects, which
        every row shares.  The rows held with the table include each
        element's partner row, row(s^-1), whose entry at the identity is
        the index of s^-1, so the table fills ``inverse_row`` too, unless
        it is cached already, and inverts no element.

        The table holds n^2 entries, built at any order, so its readers
        bound n first: cayley.class_rows serves the exhaustive sweep,
        which checks the graph limit before it builds a row (colourauts),
        and criteria 7 and 8, which read fixed groups of order at most 64.
        """
        cached = getattr(self, "_mult_table", None)
        if cached is None:
            members = range(len(self.elements()))
            held = self._held_rows(members)
            cached = self._mult_table = [held[i][0] for i in members]
            if getattr(self, "_inverse_row", None) is None:
                self._inverse_row = [held[i][1][0] for i in members]
        return cached

    def left_map(self, g) -> Callable[[Any], Any]:
        """The map x -> g*x, for x in the group."""
        return partial(self.multiply, g)

    def left_row(self, s) -> list[int]:
        """Row of s in the multiplication table: index of s*v per element v."""
        index = self.element_index()          # iterates in element order
        return list(map(index.__getitem__, map(self.left_map(s), index)))

    def rows(self, members: Iterable[int]) -> list[list[int]]:
        """``left_row``'s row of each member, an element index, derived
        from rows already held wherever it can be.

        The identity's row, 0..n-1, is held from the start.  A held member
        gets its held row.  Any other member gets the composite of two held
        rows if it is their product, else ``left_row``, and its partner's
        row is held with it: the row itself for an involution
        (row[row[0]] == 0), else the inverse permutation.
        """
        members = list(members)
        held = self._held_rows(members)
        return [held[i][0] for i in members]

    def _held_rows(self, members: Iterable[int]) -> dict:
        """The rows ``rows`` holds once it has every member: a -> (row of
        a, row of a^-1), for each member a and its partner."""
        elems = self.elements()
        positions = list(self.element_index().values())
        held = {0: (positions, positions)}      # a: rows of a, a^-1
        for i in members:
            if i not in held:
                row = _composite(held, i) or self.left_row(elems[i])
                row_inv = row if row[row[0]] == 0 else _inverse(row, positions)
                held[i] = (row, row_inv)
                held[row_inv[0]] = (row_inv, row)
        return held

    def inverse_row(self) -> list[int]:
        """Index of v^-1 per element v.  Cached, so `invert` is called once
        per element, however many rows read it, and on none once
        ``mult_table`` has filled it."""
        cached = getattr(self, "_inverse_row", None)
        if cached is None:
            index = self.element_index()
            cached = [index[self.invert(v)] for v in index]
            self._inverse_row = cached
        return cached

    # -- derived element arithmetic -----------------------------------------

    def conjugate(self, x, by):
        """x^by = by^-1 * x * by."""
        return self.multiply(self.multiply(self.invert(by), x), by)

    def commutes(self, a, b) -> bool:
        return self.multiply(a, b) == self.multiply(b, a)

    def element_order(self, x) -> int:
        e = self.identity()
        k = 1
        y = x
        while y != e:
            y = self.multiply(y, x)
            k += 1
        return k

    def element_orders(self) -> list[int]:
        """The order of each element, in element order."""
        return list(map(self.element_order, self.elements()))

    def involutions(self) -> list:
        e = self.identity()
        multiply = self.multiply
        return [x for x in self.elements() if x != e and multiply(x, x) == e]

    def square_roots(self, tau):
        """Every t with t*t == tau, lazily, in element order."""
        return (t for t in self.elements() if self.multiply(t, t) == tau)

    def has_element_of_order4(self) -> bool:
        """Whether some x has order 4: y = x*x is not the identity and y*y
        is."""
        e = self.identity()
        multiply = self.multiply
        for x in self.elements():
            y = multiply(x, x)
            if y != e and multiply(y, y) == e:
                return True
        return False

    def is_central(self, x) -> bool:
        return all(self.commutes(x, g) for g in self.generators())

    # -- subgroups -----------------------------------------------------------

    def generated_subgroup(self, gens: Iterable) -> "FiniteGroup":
        return GeneratedSubgroup(self, list(gens))

    # -- element I/O ---------------------------------------------------------

    def elem_str(self, x) -> str:
        """x in the group's notation.  A value that is no element the group
        can name (of another type, or out of range) is printed by ``repr``,
        so an error message can name whatever it was given.  This default
        has no notation of its own, so it prints every value by ``repr``."""
        return repr(x)

    def elem_parse(self, text: str):
        raise NotImplementedError


class GeneratedSubgroup(FiniteGroup):
    """Subgroup of a parent group, realized as a closure of generators."""

    def __init__(self, parent: FiniteGroup, gens: list):
        self.parent = parent
        self.enum_limit = parent.enum_limit
        self._gens = distinct_generators(gens, parent.identity())

    def identity(self):
        return self.parent.identity()

    def multiply(self, a, b):
        return self.parent.multiply(a, b)

    def invert(self, a):
        return self.parent.invert(a)

    def generators(self) -> list:
        return list(self._gens)

    def elem_str(self, x) -> str:
        return self.parent.elem_str(x)

    def elem_parse(self, text: str):
        return self.parent.elem_parse(text)

