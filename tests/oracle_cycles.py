"""Reference cycle parser: one validated ``Permutation`` per cycle,
multiplied left to right.

This is the oracle for ``ccakit.permcore.parse_cycles``, which composes
every cycle into one image list and validates the result once.  Both must
return the same permutation, or raise ValueError with the same message.
"""

from __future__ import annotations

import re

from ccakit.permcore import Permutation

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse 1-based cycle notation by the per-cycle product."""
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
