"""Higman-style 2-groups of order 2^n from bit-matrix parameters.

The group is generated by g_1..g_r and central involutions h_1..h_s with

    h_j^2 = 1,   [h_i, h_j] = 1,   [g_i, h_j] = 1,
    g_i^2 = h_1^b(i,1) ... h_s^b(i,s),
    [g_i, g_j] = h_1^c(i,j,1) ... h_s^c(i,j,s)   for i < j.

Every element has a unique normal form g_1^e1 ... g_r^er h_1^f1 ... h_s^fs
with all exponents in {0,1}, so the group has exactly 2^(r+s) elements and
multiplication collects to a closed form: the e-parts XOR, and the f-part
picks up one c(i,j) word per crossing pair and one b-row per doubled g.
Both correction terms are bilinear in the e-parts, so the closed form is a
2-cocycle and the product is associative by construction; the test tree
certifies it against a literal word-rewriting collector anyway.

Bilinearity also makes the correction cheap: each HigmanParams holds, for
every 4-bit nibble of the right e-part and 8-bit byte of the left one, a
table of that block's correction word, built on first use (so a group
refused as too large to list builds none).  A block is as wide as the
bits of e it covers, so a table has 2^(nibble bits + byte bits) <= 4096
entries: 2^(2r) for r <= 4.  gamma is then one lookup per block, and the
tables stay at ceil(r/4) * ceil(r/8) * 4096 entries or fewer for every r
(at most two tables for r <= 8), whatever the enumeration limit.

Elements are listed in natural order, so (e, f) sits at index
e * 2^s + f, and v -> index(s*v) is index(s) XOR a GF(2)-linear map of
index(v), since gamma is bilinear: ``left_row(s)`` doubles the row over
the index bits with one gamma per e-bit and one XOR per element, and no
dict, tuple or multiply.

A Higman group supplies FiniteGroup (fgroup) only what it alone knows:
its order 2^n (``_known_order``), its natural-order listing (``_list``),
the rows above, and ``contains``, which tells an (e, f) pair from a
degree-2 Permutation, a tuple too.  FiniteGroup answers ``order`` from
2^n and refuses a group past the enumeration limit before it lists.
Every other product, in a listing or a scan, is ``multiply``, which
checks both factors.

Words name elements through one letter table, built on first use: g1..gr
map to the single e-bits and h1..hs to the single f-bits, in that order.
The generators are the table's elements, a word is the left-to-right
product of its letters (so "g1*g1" is g1's b-row word), and an element
prints as its normal form, the letters of its bits in table order.

Subgroups are counted by GF(2) ranks, not listed.  The count is a Higman
subgroup's known order, so by FiniteGroup's subgroup rule (fgroup) a
subgroup whose count is its parent's order is the parent as a set: its
``element_set`` is the parent's.  H = {(0, f)} is central and elementary
abelian, and (e, f) -> e is a homomorphism onto GF(2)^r with kernel H, so
G/H is elementary abelian and G has class at most 2.
``generated_subgroup`` returns a HigmanSubgroup X = <gens>, which puts its
generators in echelon form on first use: each one, multiplied by the lifts
already kept whose pivot (top e-bit) it carries, top pivot first, either
has an e-part left, and is kept as the lift of that e-part's top bit, or
lies in H, a relation element.  With B = <lifts>, X = B * <relations>, so
|X| = 2^k |X n H| for the k lifts, and X n H = Phi(B) * <relations>.
Proof: Phi(B) = B^2 [B, B] lies in H, since G/H is elementary abelian;
every b in B is l * phi for a product l of distinct lifts and phi in
Phi(B), and b in H forces l's e-part, a sum of distinct independent
e-parts, to be 0, so l = 1 and B n H = Phi(B).  Squares and commutators
are central, and gamma(0, .) = gamma(., 0) = 0, so Phi(B) is spanned by
the lifts' squares (0, gamma(a, a)) and pairwise commutators
(0, gamma(a, b) ^ gamma(b, a)) for their e-parts a, b.  So the known order
(``_known_order``), which ``order`` returns, is 2^(k + rank of those
f-words and the relations' f-parts), and ``contains(x)`` reduces x by the
lifts and tests whether the e-part left is 0 and its f-part lies in that
span.  Neither lists anything; the listing stays FiniteGroup's closure
over ``multiply``, which the tests keep as the oracle for both, and its
rows are FiniteGroup's.  That listing's bound is the known order, so it
stops at the subgroup's last element, and a subgroup whose known order is
past the enumeration limit is refused before it lists.

The "constrained" flavour forces g_r^2 = g_{r-1}^2 = h_1, which pins rows
r-1 and r of the b-matrix and makes (S, T, tau) with S = {g_1..g_{r-2},
h_1..h_s}, T = {g_{r-1}, g_r}, tau = h_1 a non-CCA triple with
|G : <S u {tau}>| = 4.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .fgroup import FiniteGroup, GeneratedSubgroup
from .permcore import Permutation, PermutationGroup, orbit_transversal

Element = tuple  # (e_bits, f_bits) as a pair of ints

IDENTITY: Element = (0, 0)


def _pair_index(r: int, i: int, j: int) -> int:
    """Index of the 0-based pair i < j among the pairs of 0..r-1 listed in
    lexicographic order."""
    if not 0 <= i < j < r:
        raise IndexError(f"bad pair ({i}, {j})")
    return i * r - i * (i + 1) // 2 + (j - i - 1)


@dataclass(frozen=True)
class HigmanParams:
    """(r, s, b-matrix, c-tensor) defining a group of order 2^(r+s).

    b is an r-tuple of s-bit ints (b[i] is the f-word for g_{i+1}^2);
    c maps each pair index to an s-bit int, pairs (i, j) with
    0 <= i < j < r listed in lexicographic order.
    """

    r: int
    s: int
    b: tuple
    c: tuple
    constrained: bool = False
    seed: int | None = None

    def __post_init__(self):
        if self.r < 1 or self.s < 1:
            raise ValueError("need r >= 1 and s >= 1")
        if len(self.b) != self.r:
            raise ValueError("b must have one row per g-generator")
        if len(self.c) != self.r * (self.r - 1) // 2:
            raise ValueError("c must have one word per pair i < j")
        mask = (1 << self.s) - 1
        if any(row & ~mask for row in self.b) or any(w & ~mask for w in self.c):
            raise ValueError("b/c words wider than s bits")
        if self.constrained:
            if self.n < 3 or self.r < 2:
                raise ValueError("constrained params need n >= 3 and r >= 2")
            if self.b[self.r - 1] != 1 or self.b[self.r - 2] != 1:
                raise ValueError(
                    "constrained params require g_r^2 = g_{r-1}^2 = h_1")

    @property
    def n(self) -> int:
        return self.r + self.s

    def pair_index(self, i: int, j: int) -> int:
        """Index into c for the 0-based pair i < j."""
        return _pair_index(self.r, i, j)

    def _word(self, i: int, k: int) -> int:
        """Correction word for right-factor bit i and left-factor bit k."""
        if i >= self.r or k >= self.r or k < i:
            return 0
        return self.b[i] if k == i else self.c[self.pair_index(i, k)]

    @cached_property
    def _gamma_tables(self) -> tuple:
        """(right shift, right mask, left width, left shift, left mask,
        table) per block with a nonzero word; see gamma.  Not a field, so
        not compared, hashed or printed."""
        tables = []
        for rlo in range(0, self.r, 4):
            rw = min(4, self.r - rlo)
            for llo in range(0, self.r, 8):
                lw = min(8, self.r - llo)
                # table[rn << lw | lb]: the word of right nibble rn against
                # left byte lb, each as wide as the bits the block has,
                # built by doubling one bit at a time
                table = [0] * (1 << lw)
                for i in range(rlo, rlo + rw):
                    row = [0]
                    for k in range(llo, llo + lw):
                        w = self._word(i, k)
                        row += [x ^ w for x in row]
                    table += [x ^ y for x, y in
                              zip(table, row * (len(table) >> lw))]
                if any(table):
                    tables.append((rlo, (1 << rw) - 1, lw, llo,
                                   (1 << lw) - 1, table))
        return tuple(tables)

    # -- JSON interchange ----------------------------------------------------

    def to_json_dict(self) -> dict:
        c_entries = []
        for i in range(self.r):
            for j in range(i + 1, self.r):
                w = self.c[self.pair_index(i, j)]
                for k in range(self.s):
                    c_entries.append({"i": i + 1, "j": j + 1, "k": k + 1,
                                      "bit": (w >> k) & 1})
        d = {
            "n": self.n, "r": self.r, "s": self.s,
            "b": [[(row >> k) & 1 for k in range(self.s)] for row in self.b],
            "c": c_entries,
            "constrained": self.constrained,
        }
        if self.seed is not None:
            d["seed"] = self.seed
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "HigmanParams":
        """Read the to_json_dict form, refusing data it cannot have made:
        a b row that is not s bits, a c bit that is not 0 or 1, a repeated
        (i, j, k), or an n other than r + s (ValueError)."""
        r, s = d["r"], d["s"]
        if d.get("n", r + s) != r + s:
            raise ValueError(f"n = {d['n']} is not r + s = {r + s}")
        if any(len(row) != s or any(x not in (0, 1) for x in row)
               for row in d["b"]):
            raise ValueError(f"every b row must be {s} bits, each 0 or 1")
        b = tuple(sum(bit << k for k, bit in enumerate(row)) for row in d["b"])
        c = [0] * (r * (r - 1) // 2)
        seen = set()
        for entry in d["c"]:
            i, j, k = key = entry["i"], entry["j"], entry["k"]
            if not (1 <= i < j <= r and 1 <= k <= s):
                raise ValueError(f"c entry (i={i}, j={j}, k={k}) outside "
                                 f"1 <= i < j <= {r}, 1 <= k <= {s}")
            if key in seen or entry["bit"] not in (0, 1):
                raise ValueError(f"c entry (i={i}, j={j}, k={k}) repeated "
                                 f"or with a bit other than 0 or 1")
            seen.add(key)
            if entry["bit"]:
                c[_pair_index(r, i - 1, j - 1)] |= 1 << (k - 1)
        return cls(r=r, s=s, b=b, c=tuple(c),
                   constrained=bool(d.get("constrained", False)),
                   seed=d.get("seed"))


def gamma(params: HigmanParams, left_e: int, right_e: int) -> int:
    """Central correction word for collecting g^left_e * g^right_e.

    One c(i,j) word for every pair i < j where the right factor carries g_i
    and the left factor carries g_j (moving g_i leftwards past g_j), plus
    one b-row for every index carried by both factors (g_i^2 collapses).
    The sum is bilinear, so it is the XOR of one precomputed table entry
    per (nibble of right_e, byte of left_e) block; bits at or above r
    count for nothing.
    """
    f = 0
    for rlo, rmask, lw, llo, lmask, table in params._gamma_tables:
        f ^= table[(right_e >> rlo & rmask) << lw | (left_e >> llo & lmask)]
    return f


def _check_fits(params: HigmanParams, a: Element) -> None:
    ae, af = a
    if not (0 <= ae < 1 << params.r and 0 <= af < 1 << params.s):
        raise ValueError("element does not fit the parameter dimensions")


def multiply(params: HigmanParams, a: Element, b: Element) -> Element:
    _check_fits(params, a)
    _check_fits(params, b)
    ae, af = a
    be, bf = b
    return (ae ^ be, af ^ bf ^ gamma(params, ae, be))


def inverse(params: HigmanParams, a: Element) -> Element:
    _check_fits(params, a)
    ae, af = a
    return (ae, af ^ gamma(params, ae, ae))


class HigmanGroup(FiniteGroup):
    """Bitvector-backed realization of a Higman-parameter 2-group."""

    def __init__(self, params: HigmanParams):
        self.params = params

    def identity(self) -> Element:
        return IDENTITY

    def multiply(self, a: Element, b: Element) -> Element:
        return multiply(self.params, a, b)

    def invert(self, a: Element) -> Element:
        return inverse(self.params, a)

    def left_row(self, s: Element) -> list[int]:
        """Index of s*v for every v, by doubling over the n index bits.

        v = (ve, vf) sits at i = ve * 2^s + vf, and s*v = (se ^ ve,
        sf ^ vf ^ gamma(se, ve)) at index(s) ^ L(i), with L(i) = i ^
        gamma(se, i >> s).  gamma is bilinear, so L is GF(2)-linear, and
        for i < 2^b the entry at i + 2^b is the entry at i XOR L(2^b).
        L(2^b) is 2^b for an f-bit b, so the first 2^s entries are
        index(s) ^ vf, and each e-bit j doubles the row with one gamma,
        L(2^(s+j)) = 2^(s+j) ^ gamma(se, 2^j), and one XOR per entry.
        Each XOR is looked up in the element index's positions at once,
        so the entries are its own position objects, which every row
        shares."""
        p = self.params
        _check_fits(p, s)
        se, sf = s
        positions = list(self.element_index().values())
        at = se << p.s | sf                 # index(s)
        row = [positions[at ^ vf] for vf in range(1 << p.s)]
        for j in range(p.r):
            lift = 1 << (p.s + j) | gamma(p, se, 1 << j)
            row += [positions[x ^ lift] for x in row]
        return row

    @cached_property
    def _letters(self) -> dict:
        """The letter table: g1..gr, then h1..hs, each to its element."""
        r, s = self.params.r, self.params.s
        return ({f"g{i + 1}": (1 << i, 0) for i in range(r)}
                | {f"h{j + 1}": (0, 1 << j) for j in range(s)})

    def _letter(self, name: str) -> Element:
        if name not in self._letters:
            raise IndexError(f"no generator {name} in {self!r}")
        return self._letters[name]

    def generators(self) -> list[Element]:
        return list(self._letters.values())

    def g(self, i: int) -> Element:
        """Generator g_i, 1-based."""
        return self._letter(f"g{i}")

    def h(self, j: int) -> Element:
        """Generator h_j, 1-based."""
        return self._letter(f"h{j}")

    def _known_order(self) -> int:
        return 1 << self.params.n

    def _list(self, limit: int) -> list[Element]:
        """The natural-order listing, (e, f) at index e * 2^s + f.  Only
        ``elements`` calls it, once the known order is within the limit."""
        p = self.params
        self._elements = [(e, f) for e in range(1 << p.r)
                          for f in range(1 << p.s)]
        return self._elements

    def contains(self, x) -> bool:
        # a plain (e, f) pair only: a degree-2 Permutation is a tuple too
        if not (type(x) is tuple and len(x) == 2):
            return False
        e, f = x
        return (isinstance(e, int) and isinstance(f, int)
                and 0 <= e < (1 << self.params.r)
                and 0 <= f < (1 << self.params.s))

    def generated_subgroup(self, gens) -> "HigmanSubgroup":
        return HigmanSubgroup(self, list(gens))

    def elem_str(self, x) -> str:
        """The normal form: the letters whose bit x carries, in table
        order, or "1"; a value ``contains`` refuses by ``repr``."""
        if not self.contains(x):
            return repr(x)
        e, f = x
        return "*".join(name for name, (le, lf) in self._letters.items()
                        if e & le or f & lf) or "1"

    def elem_parse(self, text: str) -> Element:
        """The left-to-right product of the "*"-separated letters of
        text, "1" standing for the identity."""
        x = IDENTITY
        for letter in map(str.strip, text.split("*")):
            if letter not in self._letters and letter != "1":
                raise ValueError(f"unknown letter {letter!r} in {text!r}")
            x = self.multiply(x, self._letters.get(letter, IDENTITY))
        return x

    def __repr__(self) -> str:
        p = self.params
        return f"HigmanGroup(r={p.r}, s={p.s}, order={1 << p.n})"


class HigmanSubgroup(GeneratedSubgroup):
    """<gens> in a Higman group, its order and membership by GF(2) ranks
    (see the module docstring); its listing is FiniteGroup's closure over
    ``multiply``, bounded by that order."""

    @cached_property
    def _echelon(self) -> tuple[list[Element], list[int]]:
        """(lifts, span): the lifts, top e-bit first, and an echelon basis
        of the f-parts of the subgroup's central part, largest first."""
        p = self.parent.params
        lifts: list[Element] = []
        words = []
        for g in self._gens:
            if not self.parent.contains(g):
                raise ValueError(f"{g!r} is not an element of {self.parent!r}")
            x = _reduce_by_lifts(p, lifts, g)
            if x[0]:
                lifts.append(x)
                lifts.sort(reverse=True)
            else:
                words.append(x[1])
        es = [e for e, _ in lifts]
        for i, a in enumerate(es):
            words.append(gamma(p, a, a))
            words += [gamma(p, a, b) ^ gamma(p, b, a) for b in es[:i]]
        span: list[int] = []
        for w in words:
            w = _reduce_word(span, w)
            if w:
                span.append(w)
                span.sort(reverse=True)
        return lifts, span

    def _known_order(self) -> int:
        """2^(number of lifts + rank of the central f-words)."""
        lifts, span = self._echelon
        return 1 << (len(lifts) + len(span))

    def contains(self, x) -> bool:
        """Whether x lies in the subgroup: False for any value that the
        parent's ``contains`` refuses, like every other group."""
        if not self.parent.contains(x):
            return False
        lifts, span = self._echelon
        e, f = _reduce_by_lifts(self.parent.params, lifts, x)
        return e == 0 and _reduce_word(span, f) == 0


def _reduce_by_lifts(params: HigmanParams, lifts: list[Element],
                     x: Element) -> Element:
    """x times each lift, top e-bit first, whose top e-bit x's e-part
    carries at its turn: an element of x<lifts> whose e-part carries no
    lift's top e-bit, so is 0 exactly when x's e-part is in their span."""
    for lift in lifts:
        if x[0] ^ lift[0] < x[0]:
            x = multiply(params, x, lift)
    return x


def _reduce_word(span: list[int], w: int) -> int:
    """w reduced by an echelon basis of distinct top bits, largest first:
    0 exactly when w lies in the span."""
    for b in span:
        w = min(w, w ^ b)
    return w


def sample_params(n: int, seed: int) -> HigmanParams:
    """Random constrained parameters with r = floor(2n/3), s = n - r.

    Rows 1..r-2 of b and all of c are drawn from a seeded generator; rows
    r-1 and r are forced to h_1.  Deterministic for fixed (n, seed).
    """
    if n < 3:
        raise ValueError("constrained sampling needs n >= 3")
    r = (2 * n) // 3
    s = n - r
    rng = random.Random(seed)
    b = [rng.getrandbits(s) for _ in range(r - 2)] + [1, 1]
    c = [rng.getrandbits(s) for _ in range(r * (r - 1) // 2)]
    return HigmanParams(r=r, s=s, b=tuple(b), c=tuple(c),
                        constrained=True, seed=seed)


def quaternion_params() -> HigmanParams:
    """r=2, s=1 with g1^2 = g2^2 = [g1,g2] = h1: the quaternion group Q8."""
    return HigmanParams(r=2, s=1, b=(1, 1), c=(1,), constrained=True)


def params_from_spec(spec: str) -> HigmanParams:
    """Parse the CLI parameter form: "n=8,seed=42" or "@params.json"."""
    spec = spec.strip()
    if spec.startswith("@"):
        return HigmanParams.from_json_dict(
            json.loads(Path(spec[1:]).read_text()))
    kv = {}
    for part in spec.split(","):
        key, sep, val = map(str.strip, part.partition("="))
        if not sep:
            raise ValueError(f"bad higman parameter {part!r}")
        if key in kv:
            raise ValueError(f"higman parameter {key!r} repeated")
        kv[key] = val
    unknown = set(kv) - {"n", "seed"}
    if unknown:
        raise ValueError(f"unknown higman parameter(s): {sorted(unknown)}")
    if "n" not in kv:
        raise ValueError("higman parameters need n=<int>")
    return sample_params(int(kv["n"]), int(kv.get("seed", 0)))


def relation_audit(group: HigmanGroup) -> list[str]:
    """Check every defining relation by direct computation.

    Returns a list of violated relations (empty means all hold).
    """
    p = group.params
    mul = group.multiply
    bad = []
    e = group.identity()

    def comm(x, y):
        return mul(mul(group.invert(x), group.invert(y)), mul(x, y))

    def hword(bits):
        return (0, bits)

    for j in range(1, p.s + 1):
        if mul(group.h(j), group.h(j)) != e:
            bad.append(f"h{j}^2 != 1")
        for k in range(j, p.s + 1):
            if comm(group.h(j), group.h(k)) != e:
                bad.append(f"[h{j},h{k}] != 1")
    for i in range(1, p.r + 1):
        for j in range(1, p.s + 1):
            if comm(group.g(i), group.h(j)) != e:
                bad.append(f"[g{i},h{j}] != 1")
        if mul(group.g(i), group.g(i)) != hword(p.b[i - 1]):
            bad.append(f"g{i}^2 != b-row word")
    for i in range(1, p.r + 1):
        for j in range(i + 1, p.r + 1):
            if comm(group.g(i), group.g(j)) != hword(
                    p.c[p.pair_index(i - 1, j - 1)]):
                bad.append(f"[g{i},g{j}] != c word")
    return bad


def theorem3_triple(params: HigmanParams):
    """The canonical non-CCA triple of a constrained instance.

    Returns (group, triple); raises if validation fails or the index of
    <S u {tau}> is not exactly 4, since either would be a correctness bug.
    """
    from .triples import validate_triple

    if not params.constrained:
        raise ValueError("theorem3_triple requires constrained parameters")
    G = HigmanGroup(params)
    S = [G.g(i) for i in range(1, params.r - 1)] \
        + [G.h(j) for j in range(1, params.s + 1)]
    T = [G.g(params.r - 1), G.g(params.r)]
    tau = G.h(1)
    triple = validate_triple(G, S, T, tau)
    if not triple.valid:
        raise AssertionError(
            f"constrained Higman instance failed triple validation: "
            f"{triple.checks}")
    if triple.index != 4:
        raise AssertionError(
            f"|G : <S u {{tau}}>| = {triple.index}, expected 4")
    return G, triple


def regular_representation(G: HigmanGroup) -> PermutationGroup:
    """Degree-2^n permutation group via the right-multiplication action.

    Lists G's elements, so G's enum_limit bounds the construction.  The
    action is checked to be regular (see _is_regular) before it is
    returned, so the group's order is its degree and [0] is a base, which
    it is given.
    """
    elems = G.elements()
    idx = G.element_index()
    perms = [Permutation([idx[G.multiply(v, x)] for v in elems])
             for x in G.generators()]
    if not _is_regular(len(elems), perms):
        raise AssertionError("regular representation is not faithful/regular")
    return PermutationGroup(len(elems), perms, known=(len(elems), [0]))


def _is_regular(degree: int, gens) -> bool:
    """Whether <gens> acts regularly on 0..degree-1, without Schreier-Sims.

    The orbit transversal of point 0 gives a t[v] in the group mapping 0
    to v.  If the orbit is every point and t[v] * g == t[g(v)] for every v
    and generator g, the degree maps t[v] are closed under the generators,
    so they are the whole group, and its order is the degree.
    """
    t = orbit_transversal(degree, 0, gens)
    return (len(t) == degree
            and all(t[v] * g == t[g[v]] for v in t for g in gens))
