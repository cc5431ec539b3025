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
The field is built as the powers of its primitive element, the only
products formed by the polynomial rule, and psl2 reads its generators off
those powers, their logarithms and digit-wise sums; a modulus under which
no element has order q - 1 (a reducible one) is refused.

The named constructors take one generating set each.  Where a generator
is the identity or repeats another at a small n (C1, S2, A3, and the
scaling of PSL2(2) and PSL2(3)), PermutationGroup drops it; S1, A1, A2,
D1 and D2 keep their own cases, where the general generators would not
parse or would give another group.

The named constructors C_n, D_n, S_n and A_n give their group its order
and a base (PermutationGroup's ``known``), and ``direct_product`` gives
its factors' orders multiplied and their bases side by side, so these
groups answer their order, list, key and scan without a stabilizer
chain; the tests check each against Schreier-Sims.  ``psl2`` and
``m11_group`` are given none:
each verifies its order by an unbounded chain, which a wrong field or
data file fails.

construct parses an expression and builds its group in the same pass;
there is no separate syntax tree.  The point and set stabilizers and the
normalizer are one filter over the group's elements, which passes every
element that it keeps, in element order, as a generator.  The
normalizer's filter labels the right cosets of H once, from the rows of
H's generators, and tests each x by one product per generator.  Cyclic
subgroups read every element's order from one ``element_orders`` pass.
"""

from __future__ import annotations

import functools
import json
import re
from math import factorial, gcd
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


def build_field(q: int) -> tuple[int, list[int], list[int]]:
    """GF(q) as (p, weights, exp): its characteristic p, the digit weights
    p^k (k < f, q = p^f) and exp[k] = lambda^k (k < q - 1), the powers of
    its primitive element lambda, the least element of order q - 1.

    GF(q) is GF(p)[x] modulo a monic irreducible polynomial of degree f: a
    prime q is the case f = 1 with modulus x, and a prime power reads its
    modulus from data/field_polys.json.  An element is the integer whose
    base-p digits, lowest first, are its residue's coefficients, so 0 and
    1 are the field's 0 and 1 and a sum is the digit-wise sum mod p.

    The only products formed are each candidate's powers, schoolbook
    products reduced by the modulus, for at most q - 1 steps: a reducible
    modulus has zero divisors, whose powers never return to 1.  A modulus
    under which no element has order q - 1 is refused.
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

    def mul(ca, cb):
        prod = [0] * (2 * f - 1)
        for i, x in enumerate(ca):
            for j, y in enumerate(cb):
                prod[i + j] += x * y
        # x^top = -(red[0] x^(top-f) + ... + red[f-1] x^(top-1)), red monic
        for top in range(2 * f - 2, f - 1, -1):
            for k in range(f):
                prod[top - f + k] -= prod[top] % p * red[k]
        # the first f coefficients, each taken mod p, read in base p
        return sum(c % p * w for c, w in zip(prod, weights))

    for primitive in range(1, q):
        exp = [1]               # the powers of primitive until 1, or q - 1
        x = primitive
        while x != 1 and len(exp) < q - 1:
            exp.append(x)
            x = mul(digits[x], digits[primitive])
        if x == 1 and len(exp) == q - 1:
            return p, weights, exp
    raise GroupExprError(
        f"no element of GF({q}) has order {q - 1}: its modulus in "
        f"field_polys.json is not irreducible")


# ---------------------------------------------------------------------------
# named constructors


def cyclic_group(n: int) -> PermutationGroup:
    if n < 1:
        raise GroupExprError("C n requires n >= 1")
    return PermutationGroup(n, [Permutation([(i + 1) % n for i in range(n)])],
                            known=(n, [0] if n > 1 else []))


def symmetric_group(n: int) -> PermutationGroup:
    if n < 1:
        raise GroupExprError("S n requires n >= 1")
    known = (factorial(n), list(range(n - 1)))
    if n == 1:
        return PermutationGroup(1, [], known=known)
    return PermutationGroup(n, [parse_cycles("(1 2)", n),
                                Permutation([(i + 1) % n for i in range(n)])],
                            known=known)


def alternating_group(n: int) -> PermutationGroup:
    if n < 1:
        raise GroupExprError("A n requires n >= 1")
    if n <= 2:
        return PermutationGroup(max(n, 1), [], known=(1, []))
    three = parse_cycles("(1 2 3)", n)
    if n % 2 == 1:
        big = Permutation([(i + 1) % n for i in range(n)])
    else:
        big = Permutation([0] + [1 + (i + 1) % (n - 1) for i in range(n - 1)])
    return PermutationGroup(n, [three, big],
                            known=(factorial(n) // 2, list(range(n - 2))))


def dihedral_group(n: int) -> PermutationGroup:
    """Dihedral group of order 2n."""
    if n < 1:
        raise GroupExprError("D n requires n >= 1")
    if n == 1:
        return PermutationGroup(2, [parse_cycles("(1 2)", 2)], known=(2, [0]))
    if n == 2:
        return PermutationGroup(4, [parse_cycles("(1 2)", 4),
                                    parse_cycles("(3 4)", 4)],
                                known=(4, [0, 2]))
    rot = Permutation([(i + 1) % n for i in range(n)])
    refl = Permutation([(n - i) % n for i in range(n)])
    return PermutationGroup(n, [rot, refl], known=(2 * n, [0, 1]))


def psl2(q: int) -> PermutationGroup:
    """PSL(2,q) on the projective line: points 0..q-1 are GF(q), point q is
    the point at infinity.

    Generators, all read off build_field's powers exp of the primitive
    element lambda and their logarithms (log x = k where exp[k] = x): the
    translations x -> x + lambda^j (j < f, whose shifts span GF(q) over
    its prime field), digit-wise sums mod p; the square scaling
    x -> lambda^2 x = exp[(log x + 2) mod (q - 1)]; and the inversion
    x -> -1/x = exp[(h - log x) mod (q - 1)], where -1 = lambda^h: h =
    (q - 1)/2 for odd q, since -1 is the one involution of the cyclic
    unit group, and h = 0 for even q.  All lift to determinant-1 matrices.
    For q = 2 and 3 the scaling is the identity, which PermutationGroup
    drops like any identity generator.  The group is given no order: an
    unbounded stabilizer chain checks it against q(q^2 - 1) / gcd(2, q - 1).
    """
    p, weights, exp = build_field(q)
    INF, n = q, q - 1
    log = {x: k for k, x in enumerate(exp)}
    h = n // 2 if q % 2 else 0
    gens = [Permutation([sum((x // w + c // w) % p * w for w in weights)
                         for x in range(q)] + [INF])
            for c in exp[:len(weights)]]
    gens.append(Permutation(
        [0] + [exp[(log[x] + 2) % n] for x in range(1, q)] + [INF]))
    gens.append(Permutation(
        [INF] + [exp[(h - log[x]) % n] for x in range(1, q)] + [0]))
    G = PermutationGroup(q + 1, gens)
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
    """A x B on the points of A, then those of B.  If both factors know
    their orders, the product is given their product and the factors' bases
    side by side."""
    da, db = A.degree, B.degree
    gens = []
    for g in A.generators():
        gens.append(Permutation(list(g) + [da + i for i in range(db)]))
    for g in B.generators():
        gens.append(Permutation(list(range(da)) + [da + i for i in g]))
    orders = A._known_order(), B._known_order()
    known = None
    if None not in orders:
        known = (orders[0] * orders[1],
                 A._base() + [da + b for b in B._base()])
    return PermutationGroup(da + db, gens, known=known)


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
    """Exact verdict by a scan of the elements: x has order 4 exactly when
    x^2 is not the identity and x^4 is.  A permutation group compares x^2
    and x^4 with the identity at its base points only; other groups square
    through ``G.multiply``."""
    return G.has_element_of_order4()


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
    """Predicate on x in G: x normalises H, a subgroup of G.

    x normalises H exactly when xH = Hx, and so when x*h lies in the right
    coset Hx for every generator h of H.  The right cosets are the orbits
    of v -> h*v over H's generators h, whose rows (``G.rows``) label each
    element by its coset once; then x costs one product x*h and one label
    per generator, and no inverse.
    """
    index = G.element_index()
    hgens = H.generators()
    rows = G.rows([index[h] for h in hgens])
    label = [-1] * len(index)
    for v in range(len(index)):
        if label[v] < 0:                # v starts the next coset Hv
            label[v] = v
            coset = [v]
            for u in coset:             # the coset grows as it is found
                for row in rows:
                    w = row[u]
                    if label[w] < 0:
                        label[w] = v
                        coset.append(w)

    def normalizing(x) -> bool:
        times = G.left_map(x)           # y -> x*y
        lx = label[index[x]]
        return all(label[index[times(h)]] == lx for h in hgens)
    return normalizing


def pointwise_stabilizer(G: PermutationGroup, points) -> PermutationGroup:
    pts = _points(G, points)
    return _subgroup_where(G, lambda g: all(g[p] == p for p in pts))


def setwise_stabilizer(G: PermutationGroup, points) -> PermutationGroup:
    pts = _points(G, points)
    return _subgroup_where(G, lambda g: {g[p] for p in pts} == pts)


def cyclic_subgroups_of_order(G: FiniteGroup, m: int) -> list:
    """All cyclic subgroups of order m, each once, in order of their first
    generator in G's listing, each generated by that element.

    Every element's order comes from one ``G.element_orders()`` pass.  The
    generators of <x> are the powers x^k with gcd(k, m) = 1.  They go into
    ``covered`` when <x> is listed, and an element of order m that is
    covered is skipped.
    """
    covered = set()
    out = []
    for x, order in zip(G.elements(), G.element_orders()):
        if order != m or x in covered:
            continue
        y = x
        for k in range(1, m):
            if gcd(k, m) == 1:
                covered.add(y)
            y = G.multiply(y, x)
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
