"""Reference GF(q) tables: every product by the schoolbook rule.

This is the oracle for ``ccakit.groupzoo.build_field`` and ``psl2``.
build_field forms only the powers of the primitive element, by the
schoolbook product, and psl2 reads its generators off those powers, their
logarithms and digit-wise sums.  The oracle builds the full add, mul, neg
and inv tables, which the tests check against the field axioms, and
PSL(2, q)'s generators from those tables by the formula that read them
before that rewrite.  Both are built here as they were then, so the
oracle does not follow later changes to either.
"""

from __future__ import annotations

import json

from ccakit.groupzoo import _DATA_DIR, _is_prime


def build_tables(q: int) -> dict:
    """f, add, mul, neg, inv and primitive of GF(q), 2 <= q <= 32 a prime or
    a prime power in data/field_polys.json, each product by the schoolbook
    rule and the primitive element the smallest of order q - 1."""
    if _is_prime(q):
        p, f, red = q, 1, [0, 1]
    else:
        entry = json.loads((_DATA_DIR / "field_polys.json").read_text())[
            str(q)]
        p, f, red = entry["p"], entry["f"], entry["poly"]
    weights = [p**i for i in range(f)]
    digits = [[a // w % p for w in weights] for a in range(q)]

    def index(coeffs):
        return sum(c % p * w for c, w in zip(coeffs, weights))

    def mul(ca, cb):
        prod = [0] * (2 * f - 1)
        for i, x in enumerate(ca):
            for j, y in enumerate(cb):
                prod[i + j] += x * y
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
    return {"f": f, "add": add_t, "mul": mul_t, "neg": neg_t, "inv": inv_t,
            "primitive": primitive}


def psl2_generators(q: int) -> list[tuple[int, ...]]:
    """The images on 0..q (q the point at infinity) of PSL(2, q)'s
    generators, read off the tables of GF(q): x -> x + lambda^j (j < f),
    x -> lambda^2 x and x -> -1/x, in that order, identities included."""
    t = build_tables(q)
    add, mul, neg, inv, lam = (t[k] for k in ("add", "mul", "neg", "inv",
                                              "primitive"))
    inf = q
    gens = []
    shift = 1
    for _ in range(t["f"]):
        gens.append(tuple(add[x][shift] for x in range(q)) + (inf,))
        shift = mul[shift][lam]
    lam2 = mul[lam][lam]
    gens.append(tuple(mul[lam2][x] for x in range(q)) + (inf,))
    gens.append((inf,) + tuple(neg[inv[x]] for x in range(1, q)) + (0,))
    return gens
