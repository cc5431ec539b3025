"""Abstract finite-group contract.

Every group in this package is a `FiniteGroup`: an object that owns the
arithmetic (identity, multiply, invert) over immutable, hashable element
values.  Two realizations exist: permutation-backed groups (permcore) and
bitvector-backed 2-groups (higman).  Enumeration order is deterministic:
identity first, then breadth-first closure over the generator list, so
reports and witnesses are reproducible across runs.  ``closure`` is the one
listing loop.  It takes one left-multiplication map x -> g*x per generator
g, and a group hands out that map through one hook, ``left_map(g)``:
``partial(multiply, g)`` by default, a C-level product on image tuples for
permutation groups (and for stab1, in colourauts), one inlined table
lookup per product for Higman groups, and the parent's map for a
generated subgroup.  The involution scan squares through the same hook.

Index arithmetic goes through one method: ``left_row(s)`` looks up
``left_map(s)`` of every element v in the element index (Higman groups,
listed in natural order, compute it by e-block instead), and
``mult_table`` is the list of every element's row.  Every generating set
is filtered by one rule, ``distinct_generators``: no identity, no repeat,
first occurrences in order.

A listed group keeps one index, ``element_index`` (element -> position);
``element_set`` is a view of that index's keys, not a second copy.
"""

from __future__ import annotations

import abc
from functools import partial
from typing import Any, Callable, Iterable, KeysView

DEFAULT_ENUM_LIMIT = 10**6
DEFAULT_GRAPH_LIMIT = 4096

# full index-based multiplication tables are cached only up to this order
MULT_TABLE_LIMIT = 1024


class LimitExceeded(Exception):
    """An enumeration, graph-size or search budget limit was hit."""


def closure(identity: Any, maps: list[Callable[[Any], Any]],
            limit: int) -> list:
    """Breadth-first closure of ``identity`` under left-multiplication maps.

    Each map sends x to g*x for one generator g.  Returns every product
    exactly once, identity first, in a deterministic order fixed by the
    list of maps; raises LimitExceeded past ``limit`` elements.
    """
    elems = [identity]
    seen = {identity}
    for x in elems:             # the list grows as products are found
        for f in maps:
            y = f(x)
            if y not in seen:
                seen.add(y)
                elems.append(y)
                if len(elems) > limit:
                    raise LimitExceeded(
                        f"closure exceeded enumeration limit {limit}")
    return elems


def distinct_generators(gens: Iterable, identity) -> list:
    """gens without the identity and repeats, first occurrences in order."""
    return [g for g in dict.fromkeys(gens) if g != identity]


class FiniteGroup(abc.ABC):
    """Finite group given by generators and element arithmetic.

    ``enum_limit`` bounds every listing of the group's elements: `elements`
    is the one place it is checked, and raises LimitExceeded once a group
    would list more.  `groupzoo.construct` sets it on the group it returns,
    and every subgroup takes its parent's limit.
    """

    enum_limit = DEFAULT_ENUM_LIMIT

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
        """All elements, identity first, deterministic order.  Cached."""
        cached = getattr(self, "_elements", None)
        if cached is None:
            cached = closure(self.identity(),
                             [self.left_map(g) for g in self.generators()],
                             self.enum_limit)
            self._elements = cached
        return cached

    def _check_enum_limit(self, order: int) -> None:
        """Refuse, before listing, a group whose known order is too big."""
        if order > self.enum_limit:
            raise LimitExceeded(
                f"group order {order} exceeds enumeration limit "
                f"{self.enum_limit}")

    def element_set(self) -> KeysView:
        """The elements as a set: a view of `element_index`'s keys."""
        return self.element_index().keys()

    def element_index(self) -> dict:
        """Map element -> position in `elements()`."""
        cached = getattr(self, "_element_index", None)
        if cached is None:
            cached = {x: i for i, x in enumerate(self.elements())}
            self._element_index = cached
        return cached

    def order(self) -> int:
        return len(self.elements())

    def contains(self, x) -> bool:
        return x in self.element_set()

    def mult_table(self) -> list:
        """Index-based multiplication table, mt[a][b] = index of a*b.

        Only available for orders up to MULT_TABLE_LIMIT.
        """
        cached = getattr(self, "_mult_table", None)
        if cached is None:
            elems = self.elements()
            if len(elems) > MULT_TABLE_LIMIT:
                raise LimitExceeded(
                    f"mult_table limited to order {MULT_TABLE_LIMIT}")
            cached = [self.left_row(a) for a in elems]
            self._mult_table = cached
        return cached

    def left_map(self, g) -> Callable[[Any], Any]:
        """The map x -> g*x, for x in the group."""
        return partial(self.multiply, g)

    def left_row(self, s) -> list[int]:
        """Row of s in the multiplication table: index of s*v per element v."""
        index = self.element_index()          # iterates in element order
        return list(map(index.__getitem__, map(self.left_map(s), index)))

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

    def involutions(self) -> list:
        e = self.identity()
        left_map = self.left_map
        return [x for x in self.elements()
                if x != e and left_map(x)(x) == e]

    def is_central(self, x) -> bool:
        return all(self.commutes(x, g) for g in self.generators())

    # -- subgroups -----------------------------------------------------------

    def generated_subgroup(self, gens: Iterable) -> "FiniteGroup":
        return GeneratedSubgroup(self, list(gens))

    # -- element I/O ---------------------------------------------------------

    def elem_str(self, x) -> str:
        return str(x)

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

    def left_map(self, g):
        return self.parent.left_map(g)

    def invert(self, a):
        return self.parent.invert(a)

    def generators(self) -> list:
        return list(self._gens)

    def elem_str(self, x) -> str:
        return self.parent.elem_str(x)

    def elem_parse(self, text: str):
        return self.parent.elem_parse(text)

