"""Constructors for the concrete groups the desk-scale claims touch.

Grammar for group expressions (exact):

    EXPR := ATOM | EXPR "x" EXPR
    ATOM := ("S"|"A"|"C"|"D") INT
          | "PSL2(" INT ")" | "M11" | "Q8"
          | "perm:" INT ":" CYCLES ("," CYCLES)*
          | "higman:" params            (inline "n=8,seed=42" or "@file.json")

"D n" is the dihedral group of order 2n; Q8 is the quaternion group, the
2-group of higman.quaternion_params().  PSL2(q) acts on the q+1 points
of the projective line over GF(q) via unimodular Moebius maps modulo the
centre.  Every GF(q) is built by one rule, polynomials over GF(p) modulo
a monic irreducible one of degree f (q = p^f): for a prime q that is x,
and for a prime power the pinned polynomial in data/field_polys.json.

The named constructors take one generating set each.  Where a generator
is the identity or repeats another at a small n (C1, S2, A3, and the
scaling of PSL2(2) and PSL2(3)), PermutationGroup drops it; S1, A1, A2,
D1 and D2 keep their own cases, where the general generators would not
parse or would give another group.

construct parses an expression and builds its group in the same pass;
there is no separate syntax tree.  The point and set stabilizers and the
normalizer are one filter over the group's elements, which passes every
element that it keeps, in element order, as a generator.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass, field
from math import gcd
from pathlib import Path

from .fgroup import DEFAULT_ENUM_LIMIT, FiniteGroup
from .higman import (HigmanGroup, params_from_spec, quaternion_params,
                     regular_representation)
from .permcore import Permutation, PermutationGroup, parse_cycles

_DATA_DIR = Path(__file__).parent / "data"

MAX_PRIME_POWER_Q = 32


class GroupExprError(ValueError):
    """Malformed or unsupported group expression."""


# ---------------------------------------------------------------------------
# finite fields


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass
class FieldTable:
    """GF(q) with exhaustively tabulated arithmetic, q <= 32.

    Elements are encoded as integers 0..q-1: the coefficient vector of the
    residue polynomial, constant term first, read as base-p digits, lowest
    first (so 0 and 1 are the field's 0 and 1).
    """

    q: int
    p: int
    f: int
    add: list = field(repr=False)
    mul: list = field(repr=False)
    neg: list = field(repr=False)
    inv: list = field(repr=False)
    primitive: int = 0


def build_field(q: int) -> FieldTable:
    """GF(q) = GF(p)[x] modulo a monic irreducible polynomial of degree f.

    One rule serves every q: a prime q is the case f = 1 with modulus x,
    and a prime power reads its modulus from data/field_polys.json.  The
    digit vector of an element is its residue's coefficients.  add is the
    digit-wise sum mod p and mul the schoolbook product reduced by the
    modulus.  Every row of add, and every row of mul but row 0, is a
    permutation of the field, so neg and inv are where 0 and 1 stand in it.
    The primitive element is the smallest one of order q - 1.
    """
    if q < 2 or q > MAX_PRIME_POWER_Q:
        raise GroupExprError(f"field order {q} outside supported range 2..32")
    if _is_prime(q):
        p, f, red = q, 1, [0, 1]
    else:
        polys = json.loads((_DATA_DIR / "field_polys.json").read_text())
        entry = polys.get(str(q))
        if entry is None:
            raise GroupExprError(f"{q} is not a supported prime power")
        p, f, red = entry["p"], entry["f"], entry["poly"]
        if p**f != q:
            raise GroupExprError(f"bad field data for q={q}")
    weights = [p**i for i in range(f)]
    digits = [[a // w % p for w in weights] for a in range(q)]

    def index(coeffs):
        # the first f coefficients, each taken mod p, read in base p
        return sum(c % p * w for c, w in zip(coeffs, weights))

    def mul(ca, cb):
        prod = [0] * (2 * f - 1)
        for i, x in enumerate(ca):
            for j, y in enumerate(cb):
                prod[i + j] += x * y
        # x^top = -(red[0] x^(top-f) + ... + red[f-1] x^(top-1)), red monic
        for top in range(2 * f - 2, f - 1, -1):
            for k in range(f):
                prod[top - f + k] -= prod[top] % p * red[k]
        return index(prod)

    add_t = [[index([x + y for x, y in zip(da, db)]) for db in digits]
             for da in digits]
    mul_t = [[mul(da, db) for db in digits] for da in digits]
    neg_t = [row.index(0) for row in add_t]
    inv_t = [0] + [row.index(1) for row in mul_t[1:]]

    primitive = 1
    for cand in range(1, q):
        k, x = 1, cand
        while x != 1:
            x = mul_t[x][cand]
            k += 1
        if k == q - 1:
            primitive = cand
            break

    return FieldTable(q=q, p=p, f=f, add=add_t, mul=mul_t, neg=neg_t,
                      inv=inv_t, primitive=primitive)


# ---------------------------------------------------------------------------
# named constructors


def cyclic_group(n: int) -> PermutationGroup:
    if n < 1:
        raise GroupExprError("C n requires n >= 1")
    return PermutationGroup(n, [Permutation([(i + 1) % n for i in range(n)])])


def symmetric_group(n: int) -> PermutationGroup:
    if n < 1:
        raise GroupExprError("S n requires n >= 1")
    if n == 1:
        return PermutationGroup(1, [])
    return PermutationGroup(n, [parse_cycles("(1 2)", n),
                                Permutation([(i + 1) % n for i in range(n)])])


def alternating_group(n: int) -> PermutationGroup:
    if n < 1:
        raise GroupExprError("A n requires n >= 1")
    if n <= 2:
        return PermutationGroup(max(n, 1), [])
    three = parse_cycles("(1 2 3)", n)
    if n % 2 == 1:
        big = Permutation([(i + 1) % n for i in range(n)])
    else:
        big = Permutation([0] + [1 + (i + 1) % (n - 1) for i in range(n - 1)])
    return PermutationGroup(n, [three, big])


def dihedral_group(n: int) -> PermutationGroup:
    """Dihedral group of order 2n."""
    if n < 1:
        raise GroupExprError("D n requires n >= 1")
    if n == 1:
        return PermutationGroup(2, [parse_cycles("(1 2)", 2)])
    if n == 2:
        return PermutationGroup(4, [parse_cycles("(1 2)", 4),
                                    parse_cycles("(3 4)", 4)])
    rot = Permutation([(i + 1) % n for i in range(n)])
    refl = Permutation([(n - i) % n for i in range(n)])
    return PermutationGroup(n, [rot, refl])


def psl2(q: int) -> PermutationGroup:
    """PSL(2,q) on the projective line: points 0..q-1 are GF(q), point q is
    the point at infinity.

    Generators: the translations x -> x + lambda^j (j < f, lambda primitive,
    whose shifts span GF(q) over its prime field), the square scaling
    x -> lambda^2 x, and the inversion x -> -1/x.  All lift to determinant-1
    matrices.  For q = 2 and 3 the scaling is the identity, which
    PermutationGroup drops like any identity generator.
    """
    F = build_field(q)
    deg = q + 1
    INF = q

    def moebius(fn):
        return Permutation([fn(x) for x in range(q)] + [fn(INF)])

    gens = []
    lam = F.primitive
    shift = 1
    for _ in range(F.f):
        c = shift
        gens.append(moebius(lambda x, c=c: INF if x == INF else F.add[x][c]))
        shift = F.mul[shift][lam]
    lam2 = F.mul[lam][lam]
    gens.append(moebius(lambda x: INF if x == INF else F.mul[lam2][x]))
    gens.append(moebius(
        lambda x: (0 if x == INF else (INF if x == 0 else F.neg[F.inv[x]]))))
    G = PermutationGroup(deg, gens)
    expected = q * (q - 1) * (q + 1) // gcd(2, q - 1)
    if G.order() != expected:
        raise GroupExprError(
            f"PSL2({q}) constructor produced order {G.order()}, "
            f"expected {expected}")
    return G


def m11_group() -> PermutationGroup:
    """Mathieu group M11 from the vetted data file; order-checked at load."""
    data = json.loads((_DATA_DIR / "m11.json").read_text())
    deg = data["degree"]
    G = PermutationGroup(deg, [parse_cycles(s, deg)
                               for s in data["generators"]])
    if G.order() != data["order"]:
        raise GroupExprError(
            f"M11 data file failed validation: order {G.order()} != "
            f"{data['order']}")
    return G


def direct_product(A: PermutationGroup, B: PermutationGroup) -> PermutationGroup:
    da, db = A.degree, B.degree
    gens = []
    for g in A.generators():
        gens.append(Permutation(list(g) + [da + i for i in range(db)]))
    for g in B.generators():
        gens.append(Permutation(list(range(da)) + [da + i for i in g]))
    return PermutationGroup(da + db, gens)


# ---------------------------------------------------------------------------
# group expressions


_ATOM_SADC = re.compile(r"^([SACD])\s*(\d+)$")
_ATOM_PSL2 = re.compile(r"^PSL2\(\s*(\d+)\s*\)$")
_SADC = {"S": symmetric_group, "A": alternating_group, "C": cyclic_group,
         "D": dihedral_group}


def construct(text: str, enum_limit: int = DEFAULT_ENUM_LIMIT) -> FiniteGroup:
    """Parse a group expression and build the group it names, in one pass.

    Each factor of a product is built by construct in turn, and a factor
    that is not a permutation group enters by its regular representation.
    The group, and every subgroup taken from it, lists at most
    ``enum_limit`` elements (see FiniteGroup.enum_limit).
    """
    parts = re.split(r"\s+x\s+", text.strip())
    atom = parts[0].strip()
    if len(parts) > 1:
        factors = []
        for part in parts:
            g = construct(part, enum_limit)
            if not isinstance(g, PermutationGroup):
                g = regular_representation(g)
            factors.append(g)
        G = functools.reduce(direct_product, factors)
    elif m := _ATOM_SADC.match(atom):
        G = _SADC[m.group(1)](int(m.group(2)))
    elif m := _ATOM_PSL2.match(atom):
        G = psl2(int(m.group(1)))
    elif atom == "M11":
        G = m11_group()
    elif atom == "Q8":
        G = HigmanGroup(quaternion_params())
    elif atom.startswith("perm:"):
        head, sep, rest = atom[len("perm:"):].partition(":")
        if not sep or not head.strip().isdigit():
            raise GroupExprError(f"malformed perm atom: {atom!r}")
        degree = int(head)
        cycles = [c for c in rest.split(",") if c.strip()]
        if not cycles:
            raise GroupExprError(
                f"perm atom needs at least one generator: {atom!r}")
        G = PermutationGroup(degree, [parse_cycles(c, degree) for c in cycles])
    elif atom.startswith("higman:"):
        params = atom[len("higman:"):].strip()
        if not params:
            raise GroupExprError("higman atom needs parameters")
        G = HigmanGroup(params_from_spec(params))
    else:
        raise GroupExprError(f"cannot parse group expression: {text!r}")
    G.enum_limit = enum_limit
    return G


# ---------------------------------------------------------------------------
# predicates and stabilizers


def has_element_of_order4(G: FiniteGroup) -> bool:
    """Exact verdict by a scan of the elements, squaring through
    ``G.left_map``: x has order 4 exactly when y = x*x is not the identity
    and y*y is."""
    e = G.identity()
    left_map = G.left_map
    for x in G.elements():
        y = left_map(x)(x)
        if y != e and left_map(y)(y) == e:
            return True
    return False


def _subgroup_where(G: FiniteGroup, keep) -> FiniteGroup:
    """Subgroup generated by every element of G that keep accepts.

    All of them are passed as generators, in G's element order, so the
    generator list, and every listing of the subgroup, is fixed by G.
    """
    return G.generated_subgroup([g for g in G.elements() if keep(g)])


def _points(G: PermutationGroup, points) -> frozenset:
    """The points as a set, each checked to lie in 0..degree-1."""
    pts = frozenset(points)
    for p in sorted(pts):
        if not 0 <= p < G.degree:
            raise ValueError(f"point {p} outside degree {G.degree}")
    return pts


def normalizes(G: FiniteGroup, H: FiniteGroup):
    """Predicate on x in G: conjugation by x maps H's generators into H."""
    hset, hgens = H.element_set(), H.generators()

    def normalizing(x) -> bool:
        x_inv = G.invert(x)             # h^x = x^-1 h x
        return all(G.multiply(G.multiply(x_inv, h), x) in hset
                   for h in hgens)
    return normalizing


def pointwise_stabilizer(G: PermutationGroup, points) -> PermutationGroup:
    pts = _points(G, points)
    return _subgroup_where(G, lambda g: all(g[p] == p for p in pts))


def setwise_stabilizer(G: PermutationGroup, points) -> PermutationGroup:
    pts = _points(G, points)
    return _subgroup_where(G, lambda g: {g[p] for p in pts} == pts)


def cyclic_subgroups_of_order(G: FiniteGroup, m: int) -> list:
    """All cyclic subgroups of order m, deduplicated, deterministic order."""
    seen = set()
    out = []
    for x in G.elements():
        if G.element_order(x) != m:
            continue
        powers = [x]
        y = x
        for _ in range(m - 1):
            y = G.multiply(y, x)
            powers.append(y)
        key = frozenset(powers)
        if key not in seen:
            seen.add(key)
            out.append(G.generated_subgroup([x]))
    return out


def normalizer_bruteforce(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    """Normalizer of H in G by full scan; returned as a generated subgroup."""
    return _subgroup_where(G, normalizes(G, H))


# ---------------------------------------------------------------------------
# the desk-scale zoo


def zoo_corpus(max_order: int) -> list[tuple[str, FiniteGroup]]:
    """Fixed, deterministic corpus of small zoo groups of order <= max_order.

    Used by the structural property suites and the random-graph sampler.
    """
    exprs = (
        [f"C{n}" for n in range(2, 17)]
        + [f"D{n}" for n in range(2, 17)]
        + ["S3", "S4", "A4",
           "C2 x C2", "C2 x C4", "C2 x C8", "C4 x C4",
           "C2 x C2 x C2", "C3 x C3", "C2 x S3", "C2 x D4",
           "higman:n=3,seed=1", "higman:n=4,seed=1", "higman:n=5,seed=1",
           "higman:n=6,seed=1"]
    )
    out = []
    for e in exprs:
        G = construct(e)
        if G.order() <= max_order:
            out.append((e, G))
    return out
