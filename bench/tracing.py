"""Spans around calls into the ccakit modules, recorded from outside.

`Tracer.install()` wraps the public functions each layer exposes, in every
ccakit module namespace that holds a reference to them, so calls made
inside the library are seen too.  While the tracer is active each wrapped
call records a span (name, start, end, parent span, job id) and the work
counts read off its result.  Spans stay in memory until `dump`.  A layer's
self time is its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time

from ccakit import (cayley, colourauts, fgroup, groupzoo, higman, permcore,
                    triples)


def _fresh(attr: str):
    """Record only calls that compute, not those answered from a cache."""
    return lambda args: getattr(args[0], attr, None) is None


# (owner, attribute, layer name, {count name: count from result}, record-when)
TARGETS = (
    (permcore.PermutationGroup, "order", "permcore.order", {},
     _fresh("_chain")),
    (fgroup, "closure", "fgroup.elements", {"fgroup.elements_n": len}, None),
    (fgroup.FiniteGroup, "mult_table", "fgroup.mult_table", {},
     _fresh("_mult_table")),
    (groupzoo, "construct", "groupzoo.construct", {}, None),
    (groupzoo, "pointwise_stabilizer", "groupzoo.subgroups", {}, None),
    (groupzoo, "setwise_stabilizer", "groupzoo.subgroups", {}, None),
    (groupzoo, "cyclic_subgroups_of_order", "groupzoo.subgroups", {}, None),
    (groupzoo, "normalizer_bruteforce", "groupzoo.subgroups", {}, None),
    (groupzoo, "has_element_of_order4", "groupzoo.order4", {}, None),
    (cayley, "build", "cayley.build",
     {"cayley.build_vertices": lambda r: r.n}, None),
    (cayley.ColouredCayleyGraph, "bfs_order", "cayley.bfs", {},
     _fresh("_bfs")),
    (colourauts, "stab1", "colourauts.stab1",
     {"colourauts.stab1_elements": lambda r: r.order}, None),
    (colourauts, "is_cca_graph", "colourauts.is_cca_graph", {}, None),
    (colourauts, "aut_pm1", "colourauts.aut_pm1",
     {"colourauts.aut_pm1_elements": len}, None),
    (colourauts, "is_cca_group_exhaustive", "colourauts.exhaustive",
     {"colourauts.sets_checked": lambda r: r.sets_checked,
      "colourauts.connected_checked": lambda r: r.connected_checked}, None),
    (triples, "s_tau", "triples.s_tau", {}, None),
    (triples, "validate_triple", "triples.validate", {}, None),
    (triples, "search_triple_subgroup_strategy", "triples.search", {}, None),
    (triples, "crosscheck_prop22", "triples.crosscheck",
     {"triples.crosscheck_stab1_checked":
      lambda r: r.verdict.stab1_checked}, None),
    (higman, "theorem3_triple", "higman.theorem3", {}, None),
    (higman, "relation_audit", "higman.relation_audit", {}, None),
)

LAYERS = sorted({t[2] for t in TARGETS})
COUNTS = [name for t in TARGETS for name in t[3]]


class Tracer:
    """In-memory span recorder; records only while `active` is set."""

    def __init__(self):
        # span: [name, start, end, parent, job, child_time, counts]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.active = False
        self.job: str | None = None

    def _wrap(self, fn, name, counts, when):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active or (when is not None and not when(args)):
                return fn(*args, **kwargs)
            sid = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                    self.job, 0.0, None]
            self.spans.append(span)
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                span[1], span[2] = start, end
                if span[3] is not None:
                    self.spans[span[3]][5] += end - start
            if counts:
                span[6] = {k: f(result) for k, f in counts.items()}
            return result
        return traced

    def install(self) -> None:
        """Wrap every target wherever a ccakit module refers to it."""
        modules = [m for k, m in sys.modules.items()
                   if (k == "ccakit" or k.startswith("ccakit.")) and m]
        for owner, attr, name, counts, when in TARGETS:
            orig = vars(owner)[attr]
            wrapped = self._wrap(orig, name, counts, when)
            holders = [(owner, attr)] + [
                (mod, key) for mod in modules if mod is not owner
                for key, val in vars(mod).items() if val is orig]
            for holder, key in holders:
                self._patched.append((holder, key, orig))
                setattr(holder, key, wrapped)

    def uninstall(self) -> None:
        for holder, attr, orig in reversed(self._patched):
            setattr(holder, attr, orig)
        self._patched.clear()

    def layer_totals(self, first: int = 0) -> dict:
        """Self time per layer and summed counts over spans[first:]."""
        out = {f"{name}_s": 0.0 for name in LAYERS}
        out.update({c: 0 for c in COUNTS})
        for name, start, end, _, _, child, counts in self.spans[first:]:
            out[f"{name}_s"] += (end - start) - child
            if counts:
                for k, v in counts.items():
                    out[k] += v
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, job, _, counts) in \
                    enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "job": job, "counts": counts}) + "\n")

