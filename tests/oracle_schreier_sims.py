"""Reference Schreier-Sims: the plain loop over ``Permutation`` products.

This is the oracle for ``ccakit.permcore.StabilizerChain``, whose inner
loops work on image tuples.  Both must build the same chain: the same base,
strong generators in the same order, transversals and inverses.  The chain
and its orbit search are kept here exactly as they were before that
rewrite, so the oracle does not follow later changes to either.
"""

from __future__ import annotations

from ccakit.permcore import Permutation


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


class StabilizerChain:
    """Base and strong generating set via a deterministic Schreier-Sims.

    The construction loop recomputes transversals and sifts every Schreier
    generator until closure; it is not tuned for speed but is exact and
    deterministic, which is what the desk-scale groups here need.

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
        prefix = self.base[:i]
        return [g for g in self.strong if all(g[b] == b for b in prefix)]

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
        for i in range(len(self.base)):
            gens = self._level_gens(i)
            inv = self.inverses[i]
            for x, tx in self.transversals[i].items():
                for g in gens:
                    # Schreier generator for the stabilizer of base[:i+1]
                    sg = tx * g * inv[g[x]]
                    residue = self._sift(sg, start=i + 1)
                    if not residue.is_identity():
                        self._insert(residue)
                        return True
        return False

    # -- queries ---------------------------------------------------------------

    def _sift(self, p: Permutation, start: int = 0) -> Permutation:
        for i in range(start, len(self.inverses)):
            x = p[self.base[i]]
            inv = self.inverses[i]
            if x not in inv:
                return p
            p = p * inv[x]
        return p

    def order(self) -> int:
        n = 1
        for t in self.transversals:
            n *= len(t)
        return n

    def contains(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            return False
        return self._sift(p).is_identity()
