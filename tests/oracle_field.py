"""Reference GF(q) tables: every product by the schoolbook rule.

This is the oracle for ``ccakit.groupzoo.build_field``, which forms only
the powers of the primitive element by the schoolbook product and reads
every other product off logarithms, and builds add from shifts.  Both must
give the same add, mul, neg and inv tables and the same primitive element.
The tables are built here as they were before that rewrite, so the oracle
does not follow later changes to it.
"""

from __future__ import annotations

import json

from ccakit.groupzoo import _DATA_DIR, _is_prime


def build_tables(q: int) -> dict:
    """add, mul, neg, inv and primitive of GF(q), 2 <= q <= 32 a prime or
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
    return {"add": add_t, "mul": mul_t, "neg": neg_t, "inv": inv_t,
            "primitive": primitive}
