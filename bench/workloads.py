"""Seeded inputs, jobs and correctness checks for the two workloads.

A pass is one list of jobs.  `generate(workload, seed, passes)` draws the
inputs of `passes` such lists from the seed, one after the other, and
returns them as plain strings: group expressions, element lists in cycle
notation, subgroup specs.  Every list holds the same jobs with fresh
draws.  Each job replays the library calls of one command-line path
(`cca --exhaustive`, `cca --set`, `group`, `triple search`,
`triple validate --crosscheck`) on those strings, and each job kind has a
check that pins only what the library promises to keep fixed.

Every library function is looked up on its module at call time, so the
tracer in `tracing.py` can wrap it from outside.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import ccakit
from ccakit import cayley, colourauts, groupzoo, higman, triples

# -- cca_verdict: `ccakit cca G --exhaustive` --------------------------------

# (expression, pinned status).  Every verdict is fixed by the library's own
# acceptance suite or by a theorem; the seed only redraws generating sets.
# The median cca_verdict job must fall inside a cluster of jobs of like
# cost, or job_p50_s jumps between clusters from seed to seed.  C10, C13,
# C2 x C6, C14 and C15 (3-25 ms) put it in the middle of the three sweeps
# near 40 ms (C16, D6, C2 x S3), with wide gaps on both sides.
EXHAUSTIVE_POOL = (
    ("S3", "cca"), ("A4", "cca"), ("D4", "cca"), ("D5", "cca"),
    ("D6", "cca"), ("D7", "cca"), ("D8", "cca"), ("D9", "cca"),
    ("C2 x S3", "cca"), ("C12", "cca"), ("C4 x C4", "cca"),
    ("C2 x C8", "cca"), ("C16", "cca"), ("C2 x C2 x C2", "cca"),
    ("C10", "cca"), ("C13", "cca"), ("C2 x C6", "cca"), ("C14", "cca"),
    ("C15", "cca"),
    ("S4", "non-cca"), ("C2 x C4", "non-cca"), ("C2 x D4", "non-cca"),
    ("C3 x S3", "non-cca"), ("higman:n=4,seed=1", "non-cca"),
)

# -- cca_verdict: `ccakit cca G --set S` -------------------------------------

# Non-CCA triple graphs from the paper's alternating/symmetric family:
# (label, group, t, points fixed by H, reading, |stab1|, |aut_pm1|).
TRIPLE_GRAPHS = (
    ("S5-pointwise", "S5", "(1 4 2 5)", (4, 5), "pointwise", 2048, 4),
    ("S5-setwise", "S5", "(1 4 2 5)", (4, 5), "setwise", 2048, 4),
    ("A6", "A6", "(1 2)(3 4 5 6)", (1,), "point", 64, 2),
    ("S6", "S6", "(1 2)(3 4 5 6)", (1,), "point", 64, 2),
)

# Abelian groups of order 64 where aut_pm1's 2^k sign product dominates: one
# job per (group, k) with k pair classes drawn at random.
PAIR_CLASS_GROUPS = ("C4 x C4 x C4", "C8 x C8")
PAIR_CLASS_COUNTS = (14, 15, 16)

# -- triple_certify -----------------------------------------------------------

# PSL(2, q): q -> has an element of order 4 (q odd and q = +-1 mod 8).
ORDER4_EXPECTED = {4: False, 5: False, 7: True, 8: False, 9: True,
                   11: False, 13: False, 16: False, 17: True, 25: True,
                   27: False, 29: False}

# Cyclic subgroups of PSL(2, 17) by order, and how many there are.
PSL17_CYCLIC = {9: 136, 8: 153}

# Triples validated and cross-checked: (group, t, H kind, H points).
VALIDATE_TRIPLES = (
    ("A6", "(1 2)(3 4 5 6)", "point", (1,)),
    ("A7", "(1 2)(3 4 5 6)", "point", (1,)),
    ("A8", "(1 2)(3 4 5 6)", "point", (1,)),
    ("S5", "(1 4 2 5)", "pointwise", (4, 5)),
    ("S6", "(1 2)(3 4 5 6)", "point", (1,)),
    ("S7", "(1 2)(3 4 5 6)", "point", (1,)),
)

# One Higman instance per n; the instance seed is drawn.  n is fixed per slot
# so that a pass does the same amount of work for every benchmark seed (the
# n = 12 graph alone has 4096 vertices and costs as much as n = 6..11).
HIGMAN_NS = (6, 7, 8, 9, 10, 11, 12)

S_TAU_ZOO_MAX_ORDER = 48


class CheckFailed(Exception):
    """A job's output differs from what the library promises."""


@dataclass(frozen=True)
class Job:
    """One unit of work: a job kind, a label and its input strings."""

    kind: str
    label: str
    args: tuple


# ---------------------------------------------------------------------------
# input generation


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _draw_generating_set(G, rng: random.Random) -> list:
    """Draw elements of G until they generate it, checked by group order.

    Starts with two elements and allows one more after every 20 draws that
    fall short, so elementary abelian groups of rank r get r generators.
    """
    elems = G.elements()[1:]
    order = G.order()
    k, tries = 2, 0
    while True:
        gens = [rng.choice(elems) for _ in range(k)]
        if ccakit.PermutationGroup(G.degree, gens).order() == order:
            return gens
        tries += 1
        if tries % 20 == 0:
            k += 1


def _perm_expr(G, gens) -> str:
    return f"perm:{G.degree}:" + ",".join(g.cycle_str() for g in gens)


def _draw_perm_expr(expr: str, rng: random.Random) -> str:
    """The group of `expr` given by a seed-drawn generating set."""
    G = groupzoo.construct(expr)
    if not isinstance(G, ccakit.PermutationGroup):
        return expr
    return _perm_expr(G, _draw_generating_set(G, rng))


def _draw_group_element(G, rng: random.Random):
    """Uniform element of a symmetric or alternating group of degree n."""
    images = list(range(G.degree))
    rng.shuffle(images)
    g = ccakit.Permutation(images)
    if not G.contains(g):         # odd permutation drawn for A_n
        images[0], images[1] = images[1], images[0]
        g = ccakit.Permutation(images)
    return g


def _subgroup(G, kind: str, points):
    pts = [p - 1 for p in points]
    if kind == "point":
        return G.point_stabilizer(pts[0])
    if kind == "pointwise":
        return groupzoo.pointwise_stabilizer(G, pts)
    return groupzoo.setwise_stabilizer(G, pts)


def _conjugated_triple(expr: str, t_text: str, kind: str, points,
                       rng: random.Random, cache: dict):
    """Base triple (S_H(tau), {t}, tau) conjugated by a drawn element."""
    key = (expr, t_text, kind, points)
    if key not in cache:
        G = groupzoo.construct(expr)
        t = G.elem_parse(t_text)
        tau = G.multiply(t, t)
        S = triples.s_tau(_subgroup(G, kind, points), tau).elements
        cache[key] = (G, S, t, tau)
    G, S, t, tau = cache[key]
    g = _draw_group_element(G, rng)

    def conj(xs):
        return ",".join(G.elem_str(G.conjugate(x, g)) for x in xs)

    return conj(S), conj([t]), conj([tau])


def _pair_classes(G) -> list:
    e = G.identity()
    done, out = set(), []
    for x in G.elements():
        if x == e or x in done:
            continue
        xi = G.invert(x)
        done.update((x, xi))
        if xi != x:
            out.append(x)
    return out


def _draw_pair_class_set(expr: str, k: int, rng: random.Random) -> str:
    """k drawn pair classes {s, s^-1} that generate the group."""
    G = groupzoo.construct(expr)
    reps = _pair_classes(G)
    while True:
        chosen = rng.sample(reps, k)
        if ccakit.PermutationGroup(G.degree, chosen).order() == G.order():
            return ",".join(G.elem_str(s) for s in chosen)


def generate(workload: str, seed: int, passes: int) -> list[list[Job]]:
    """The job lists of `passes` passes, inputs drawn from `seed`.

    Each pass draws its own inputs: the draws change the search order, and
    so the cost, of single jobs (up to 2x for the S5 triple graphs), and a
    run's median pass then depends less on one draw.
    """
    draw = {"cca_verdict": _cca_jobs, "triple_certify": _certify_jobs}
    if workload not in draw:
        raise ValueError(f"unknown workload {workload!r}")
    rng, cache = _rng(workload, seed), {}
    return [draw[workload](rng, cache) for _ in range(passes)]


def _cca_jobs(rng, cache) -> list[Job]:
    jobs = [Job("exhaustive", expr, (_draw_perm_expr(expr, rng), status))
            for expr, status in EXHAUSTIVE_POOL]
    for label, expr, t, pts, kind, st1, apm1 in TRIPLE_GRAPHS:
        S, T, _ = _conjugated_triple(expr, t, kind, pts, rng, cache)
        jobs.append(Job("graph", label,
                        (expr, f"{S},{T}", str(st1), str(apm1))))
    for expr in PAIR_CLASS_GROUPS:
        for k in PAIR_CLASS_COUNTS:
            jobs.append(Job("graph", f"{expr} k={k}",
                            (expr, _draw_pair_class_set(expr, k, rng),
                             "", "")))
    return jobs


def _certify_jobs(rng, cache) -> list[Job]:
    jobs = [Job("group", f"PSL2({q})", (f"PSL2({q})",))
            for q in ORDER4_EXPECTED]
    s5 = _draw_perm_expr("S5", rng)
    for spec in ("setwise:4,5", "pointwise:4,5"):
        jobs.append(Job("search", f"S5 {spec}", (s5, spec)))
    for m, count in PSL17_CYCLIC.items():
        jobs.append(Job("search", f"PSL2(17) dihedral:{2 * m}",
                        ("PSL2(17)", f"cyclic:{m}:{rng.randrange(count)}")))
    for expr, t, kind, pts in VALIDATE_TRIPLES:
        S, T, tau = _conjugated_triple(expr, t, kind, pts, rng, cache)
        jobs.append(Job("validate", expr, (expr, S, T, tau)))
    for n in HIGMAN_NS:
        expr = f"higman:n={n},seed={rng.randrange(1, 10**6)}"
        jobs.append(Job("higman", expr, (expr,)))
    jobs += [Job("s_tau", expr, (expr,)) for expr in _zoo_exprs(cache)]
    return jobs


def _zoo_exprs(cache: dict) -> list[str]:
    if "zoo" not in cache:
        cache["zoo"] = [expr for expr, _ in
                        groupzoo.zoo_corpus(S_TAU_ZOO_MAX_ORDER)]
    return cache["zoo"]


# ---------------------------------------------------------------------------
# jobs: the library calls of each command-line path


def _parse_elements(G, text: str) -> list:
    return [G.elem_parse(p.strip()) for p in text.split(",") if p.strip()]


def _graph_report(G, conn) -> dict:
    graph = cayley.build(G, conn)
    if not graph.is_connected():
        return {"connected": False}
    return colourauts.is_cca_graph(graph).to_json_dict(graph)


def run_exhaustive(expr: str, _status: str):
    """`ccakit cca EXPR --exhaustive`."""
    G = groupzoo.construct(expr)
    return G, colourauts.is_cca_group_exhaustive(G).to_json_dict(G)


def run_graph(expr: str, set_text: str, _st1: str, _apm1: str):
    """`ccakit cca EXPR --set ELEMS`."""
    G = groupzoo.construct(expr)
    conn = cayley.ConnectionSet.from_elements(
        G, _parse_elements(G, set_text), close_inverses=True)
    return G, _graph_report(G, conn)


def run_group(expr: str):
    """`ccakit group EXPR`."""
    G = groupzoo.construct(expr)
    return G, {"order": G.order(),
               "has_element_of_order4": groupzoo.has_element_of_order4(G),
               "involution_count": len(G.involutions())}


def _search_subgroup(G, spec: str):
    kind, _, arg = spec.partition(":")
    if kind == "cyclic":
        # `--subgroup dihedral:2m`, with the cyclic subgroup picked by index
        m, i = (int(x) for x in arg.split(":"))
        cyc = groupzoo.cyclic_subgroups_of_order(G, m)
        return groupzoo.normalizer_bruteforce(G, cyc[i]), len(cyc)
    pts = [int(p) - 1 for p in arg.split(",")]
    if kind == "pointwise":
        return groupzoo.pointwise_stabilizer(G, pts), None
    return groupzoo.setwise_stabilizer(G, pts), None


def run_search(expr: str, spec: str):
    """`ccakit triple search EXPR --subgroup SPEC`."""
    G = groupzoo.construct(expr)
    H, ncyc = _search_subgroup(G, spec)
    trip = triples.search_triple_subgroup_strategy(G, H)
    out = {"found": trip is not None, "subgroup_order": H.order(),
           "cyclic_subgroups": ncyc, "triple": trip}
    if trip is not None and G.order() <= ccakit.DEFAULT_GRAPH_LIMIT:
        out["crosscheck"] = triples.crosscheck_prop22(G, trip).to_json_dict()
    return G, out


def run_validate(expr: str, S: str, T: str, tau: str):
    """`ccakit triple validate EXPR --S .. --T .. --tau .. --crosscheck`."""
    G = groupzoo.construct(expr)
    trip = triples.validate_triple(G, _parse_elements(G, S),
                                   _parse_elements(G, T), G.elem_parse(tau))
    out = trip.to_json_dict()
    if trip.valid and G.order() <= ccakit.DEFAULT_GRAPH_LIMIT:
        out["crosscheck"] = triples.crosscheck_prop22(G, trip).to_json_dict()
    return G, out


def run_higman(expr: str):
    """Theorem 3 triple of a 2-group instance, audited and cross-checked."""
    G = groupzoo.construct(expr)
    _, trip = higman.theorem3_triple(G.params)
    out = trip.to_json_dict()
    out["order"] = G.order()
    out["violations"] = higman.relation_audit(G)
    out["crosscheck"] = triples.crosscheck_prop22(G, trip).to_json_dict()
    return G, out


def run_s_tau(expr: str):
    """S_G(tau) for every involution tau; both forms, since tau is in G."""
    G = groupzoo.construct(expr)
    invs = G.involutions()
    spans_ok = True
    for tau in invs:
        span = triples.s_tau(G, tau).span().element_set()
        spans_ok = spans_ok and all(y in span for y in invs)
    return G, {"involutions": len(invs), "spans_contain_involutions": spans_ok}


RUNNERS = {"exhaustive": run_exhaustive, "graph": run_graph,
           "group": run_group, "search": run_search,
           "validate": run_validate, "higman": run_higman,
           "s_tau": run_s_tau}


# ---------------------------------------------------------------------------
# checks: pin what stays fixed, test identities for drawn inputs


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _power_of_two(n) -> bool:
    return isinstance(n, int) and n >= 1 and n & (n - 1) == 0


def _check_graph_identities(rep: dict) -> None:
    st1, apm1 = rep["stab1_order"], rep["aut_pm1_order"]
    _require(_power_of_two(st1), f"|stab1| = {st1} is not a power of two")
    _require(isinstance(apm1, int) and apm1 >= 1 and st1 % apm1 == 0,
             f"|aut_pm1| = {apm1} does not divide |stab1| = {st1}")
    _require(rep["is_cca"] == (st1 == apm1),
             "is_cca disagrees with |stab1| == |aut_pm1|")


def _check_crosscheck(out: dict) -> None:
    cc = out.get("crosscheck")
    _require(cc is not None and cc["ok"] and cc["connected"]
             and not cc["is_cca"], f"crosscheck not ok: {cc}")


def check_exhaustive(G, rep: dict, _expr: str, status: str) -> None:
    _require(rep["status"] == status,
             f"status {rep['status']!r}, expected {status!r}")
    if status == "non-cca":
        # the witness set must give a connected, non-CCA graph
        S = _parse_elements(G, ",".join(rep["witness_S"]))
        graph = cayley.build(G, cayley.ConnectionSet.from_elements(G, S))
        _require(graph.is_connected(), "witness_S graph is disconnected")
        _require(not colourauts.is_cca_graph(graph).is_cca,
                 "witness_S graph is CCA")


def check_graph(_G, rep: dict, _expr: str, _set: str, st1: str,
                apm1: str) -> None:
    _require(rep["connected"], "graph is disconnected")
    _check_graph_identities(rep)
    if st1:
        _require(rep["stab1_order"] == int(st1)
                 and rep["aut_pm1_order"] == int(apm1)
                 and rep["is_cca"] is False,
                 f"orders {rep['stab1_order']}/{rep['aut_pm1_order']}, "
                 f"expected {st1}/{apm1} and non-CCA")


def check_group(_G, rep: dict, expr: str) -> None:
    q = int(expr[len("PSL2("):-1])
    _require(rep["order"] == q * (q * q - 1) // (1 if q % 2 == 0 else 2),
             f"|PSL2({q})| = {rep['order']}")
    _require(rep["has_element_of_order4"] == ORDER4_EXPECTED[q],
             "order-4 predicate")


def check_search(G, out: dict, _expr: str, spec: str) -> None:
    trip = out["triple"]
    _require(out["found"] and trip.valid, "no valid triple found")
    if spec.startswith("cyclic:"):
        m = int(spec.split(":")[1])
        _require(out["cyclic_subgroups"] == PSL17_CYCLIC[m],
                 f"{out['cyclic_subgroups']} cyclic subgroups of order {m}")
    again = triples.validate_triple(G, trip.S, trip.T, trip.tau)
    _require(again.valid, "found triple fails revalidation")
    _check_crosscheck(out)


def check_validate(G, out: dict, *_args) -> None:
    _require(out["valid"], f"triple invalid: {out['checks']}")
    if G.order() <= ccakit.DEFAULT_GRAPH_LIMIT:
        _check_crosscheck(out)


def check_higman(_G, out: dict, expr: str) -> None:
    n = int(expr.split("n=")[1].split(",")[0])
    _require(out["order"] == 2 ** n, "group order")
    _require(not out["violations"], f"relations fail: {out['violations']}")
    _require(out["valid"] and out.get("index_S_tau") == 4,
             "theorem 3 triple invalid or index != 4")
    _check_crosscheck(out)


def check_s_tau(_G, out: dict, _expr: str) -> None:
    _require(out["spans_contain_involutions"],
             "span of S_G(tau) misses an involution")


CHECKS = {"exhaustive": check_exhaustive, "graph": check_graph,
          "group": check_group, "search": check_search,
          "validate": check_validate, "higman": check_higman,
          "s_tau": check_s_tau}
