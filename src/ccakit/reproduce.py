"""Reproduction suite: every headline claim as a deterministic criterion.

Each criterion_* function returns a plain dict with a "pass" flag and
enough detail to audit the verdict.  run_suite assembles them into a
report whose "results" subtree is byte-identical across runs with the same
seed and budget.
"""

from __future__ import annotations

import json
import random
import time

from . import groupzoo as gz
from . import higman as hi
from . import triples as tr
from .cayley import ConnectionSet, build
from .colourauts import (
    ConnectedClassGraphs,
    enumerate_stab1,
    is_cca_graph,
    is_cca_group_exhaustive,
    preserves_colours,
    right_regular_preserves_colours,
    stab1,
    stab1_oracle,
)
from .permcore import parse_cycles

SCHEMA_VERSION = 1

CRITERIA = [f"criterion_{i}" for i in range(1, 11)]
_GRAPH_MAKERS = {"criterion_2", "criterion_7", "criterion_8"}


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def report_head(command: str, **config) -> dict:
    """The head of every report; config echoes the command's settings."""
    return {"schema_version": SCHEMA_VERSION, "command": command,
            "config": config}


# ---------------------------------------------------------------------------
# criterion 1: exhaustive group verdicts for the small named groups
# ---------------------------------------------------------------------------

EXHAUSTIVE_EXPECTED = [
    ("S2", "cca"), ("S3", "cca"), ("A4", "cca"),
    ("C2", "cca"), ("C3", "cca"), ("C5", "cca"), ("C7", "cca"),
    ("S4", "non-cca"),
]


def criterion_1(budget: int = 2**20) -> dict:
    rows = []
    ok = True
    for expr, expected in EXHAUSTIVE_EXPECTED:
        G = gz.construct(expr)
        v = is_cca_group_exhaustive(G, budget)
        row = {"group": expr, "expected": expected} | v.to_json_dict(G)
        row["pass"] = v.status == expected
        if expected == "non-cca":
            row["pass"] = row["pass"] and v.witness_set is not None
        ok = ok and row["pass"]
        rows.append(row)
    return {"pass": ok, "groups": rows}


# ---------------------------------------------------------------------------
# criterion 2: alternating/symmetric triples with the explicit t, tau
# ---------------------------------------------------------------------------

def _alt_sym_triple(kind: str, n: int):
    G = gz.alternating_group(n) if kind == "A" else gz.symmetric_group(n)
    t = parse_cycles("(1 2)(3 4 5 6)", n)
    tau = t * t
    H = G.point_stabilizer(0)
    S = tr.s_tau(H, tau).elements
    return G, tr.validate_triple(G, S, [t], tau)


def criterion_2(graph_registry: list) -> dict:
    rows = []
    ok = True
    for kind, n in [("A", 6), ("A", 7), ("A", 8), ("S", 6), ("S", 7)]:
        G, trip = _alt_sym_triple(kind, n)
        row = {"group": f"{kind}{n}"} | trip.to_json_dict()
        if kind == "A" and n == 6:
            rep = tr.crosscheck_prop22(G, trip)
            row["crosscheck"] = rep.to_json_dict()
            graph_registry.append(("criterion_2:A6", rep.verdict.graph))
        ok = ok and trip.valid
        rows.append(row)

    # degree-5 case: t = (1 4 2 5), tau = t^2, H a stabiliser of {4, 5}
    S5 = gz.symmetric_group(5)
    t = parse_cycles("(1 4 2 5)", 5)
    tau = t * t
    s5_rows = []
    any_valid = False
    for reading, H in [("pointwise", gz.pointwise_stabilizer(S5, [3, 4])),
                       ("setwise", gz.setwise_stabilizer(S5, [3, 4]))]:
        S = tr.s_tau(H, tau).elements
        trip = tr.validate_triple(S5, S, [t], tau)
        row = {"group": "S5", "reading": reading,
               "H_order": H.order()} | trip.to_json_dict()
        if trip.valid and not any_valid:
            rep = tr.crosscheck_prop22(S5, trip)
            row["crosscheck"] = rep.to_json_dict()
            graph_registry.append(("criterion_2:S5", rep.verdict.graph))
        any_valid = any_valid or trip.valid
        s5_rows.append(row)
    ok = ok and any_valid
    return {"pass": ok, "triples": rows, "s5_readings": s5_rows}


# ---------------------------------------------------------------------------
# criterion 3: the 2-group family over n in {3..10}, 20 seeds each
# ---------------------------------------------------------------------------

CRITERION_3_SEEDS = 20


def criterion_3() -> dict:
    rows = []
    ok = True
    for n in range(3, 11):
        for seed in range(1, CRITERION_3_SEEDS + 1):
            params = hi.sample_params(n, seed)
            G, trip = hi.theorem3_triple(params)
            violations = hi.relation_audit(G)
            entry_ok = (G.order() == 2 ** n and not violations
                        and trip.valid and trip.index == 4)
            entry = {
                "n": n, "seed": seed,
                "order_ok": G.order() == 2 ** n,
                "relations_ok": not violations,
                "triple_valid": trip.valid,
                "index": trip.index,
            }
            rep = tr.crosscheck_prop22(G, trip)
            entry["crosscheck"] = rep.to_json_dict()
            ok = ok and entry_ok
            if not entry_ok or seed == 1:
                # keep the report small: first seed per n plus any failure
                rows.append(entry)
    return {"pass": ok, "n_range": [3, 10], "seeds_per_n": CRITERION_3_SEEDS,
            "sampled_rows": rows}


# ---------------------------------------------------------------------------
# criterion 4: the no-element-of-order-4 predicate on PSL(2, q)
# ---------------------------------------------------------------------------

ORDER4_EXPECTED = [
    (4, False), (5, False), (8, False), (11, False),
    (13, False), (16, False), (27, False), (29, False),
    (7, True), (9, True), (17, True), (25, True),
]


def criterion_4() -> dict:
    rows = []
    ok = True
    for q, expected in ORDER4_EXPECTED:
        G = gz.psl2(q)
        got = gz.has_element_of_order4(G)
        rows.append({"q": q, "order": G.order(),
                     "has_order4": got, "expected": expected,
                     "pass": got == expected})
        ok = ok and got == expected
    return {"pass": ok, "cases": rows}


# ---------------------------------------------------------------------------
# criterion 5: triple search on PSL(2, 17) through dihedral normalizers
# ---------------------------------------------------------------------------

def criterion_5() -> dict:
    G = gz.psl2(17)
    rows = []
    ok = True
    for m in (9, 8):      # |G| = 2448; normalizers have orders 18 and 16
        cyc = gz.cyclic_subgroups_of_order(G, m)
        H = gz.normalizer_bruteforce(G, cyc[0])
        trip = tr.search_triple_subgroup_strategy(G, H)
        row = {"dihedral_order": 2 * m, "normalizer_order": H.order(),
               "found": trip is not None}
        if trip is not None:
            # re-validate the recorded triple from scratch
            revalid = tr.validate_triple(G, trip.S, trip.T, trip.tau)
            row["triple"] = trip.to_json_dict()
            row["revalidated"] = revalid.valid
            ok = ok and revalid.valid
        else:
            ok = False
        rows.append(row)
    return {"pass": ok, "group_order": G.order(), "searches": rows}


# ---------------------------------------------------------------------------
# criterion 6: both S_G(tau) forms agree; span contains all involutions
# ---------------------------------------------------------------------------

def criterion_6() -> dict:
    rows = []
    ok = True
    checked = 0
    for expr, G in gz.zoo_corpus(48):
        invs = G.involutions()
        group_ok = True
        for tau in invs:
            # s_tau raises if the definitional and filter forms disagree
            st = tr.s_tau(G, tau)
            span = st.span().element_set()
            if not all(y in span for y in invs):
                group_ok = False
            checked += 1
        rows.append({"group": expr, "order": G.order(),
                     "involutions": len(invs), "pass": group_ok})
        ok = ok and group_ok
    return {"pass": ok, "groups": rows, "involutions_checked": checked}


# ---------------------------------------------------------------------------
# criterion 7: |stab1| is a power of two on random connected graphs: the
# enumerated stab1 has the 2^m elements its m strong generators promise
# ---------------------------------------------------------------------------

def criterion_7(seed: int, graph_registry: list) -> dict:
    rng = random.Random(seed)
    corpus = gz.zoo_corpus(64)
    class_lists = [
        ConnectionSet.from_elements(G, G.elements()[1:]).colour_classes()
        for _, G in corpus]
    rows = []
    ok = True
    made = 0
    while made < 50:
        gi = rng.randrange(len(corpus))
        expr, G = corpus[gi]
        classes = class_lists[gi]
        k = rng.randint(1, min(5, len(classes)))
        chosen = rng.sample(range(len(classes)), k)
        S = [s for ci in sorted(chosen) for s in classes[ci]]
        conn = ConnectionSet.from_elements(G, S)
        graph = build(G, conn)
        if not graph.is_connected():
            continue
        st = stab1(graph)
        row_ok = len(enumerate_stab1(graph)) == st.order
        rows.append({"group": expr, "S_size": len(S),
                     "stab1_order": st.order, "pass": row_ok})
        ok = ok and row_ok
        graph_registry.append((f"criterion_7:{made}:{expr}", graph))
        made += 1
    return {"pass": ok, "seed": seed, "graphs": rows}


# ---------------------------------------------------------------------------
# criterion 8: stab1, both enumerated and generated from its strong
# generators, equals the brute-force oracle on every tiny graph
# ---------------------------------------------------------------------------

def criterion_8(graph_registry: list) -> dict:
    rows = []
    ok = True
    total = 0
    for expr, G in gz.zoo_corpus(8):
        agree = True
        n_graphs = 0
        for graph in ConnectedClassGraphs(G):
            n_graphs += 1
            slow = stab1_oracle(graph)
            if not enumerate_stab1(graph) == stab1(graph).elements == slow:
                agree = False
            graph_registry.append((f"criterion_8:{expr}:{n_graphs}", graph))
        total += n_graphs
        rows.append({"group": expr, "connected_graphs": n_graphs,
                     "pass": agree})
        ok = ok and agree
    return {"pass": ok, "groups": rows, "graphs_checked": total}


# ---------------------------------------------------------------------------
# criterion 9: structural identities on every graph collected above
# ---------------------------------------------------------------------------

STAB1_CLOSURE_PAIRS = 1000


def _stab1_closed(elements: list[tuple], rng: random.Random) -> bool:
    """Closure of stab1 under composition: every pair when there are at
    most STAB1_CLOSURE_PAIRS, else that many sampled pairs."""
    eset = set(elements)
    k = len(elements)
    if k * k <= STAB1_CLOSURE_PAIRS:
        pairs = [(a, b) for a in elements for b in elements]
    else:
        pairs = [(elements[rng.randrange(k)], elements[rng.randrange(k)])
                 for _ in range(STAB1_CLOSURE_PAIRS)]
    for a, b in pairs:
        comp = tuple(b[x] for x in a)       # apply a, then b
        if comp not in eset:
            return False
    return True


def criterion_9(graph_registry: list, seed: int) -> dict:
    """The verdict's strong generators keep colours and generate a group
    of exactly 2^m elements, closed under composition."""
    rng = random.Random(seed + 9)
    rows = []
    ok = True
    for label, graph in graph_registry:
        verdict = is_cca_graph(graph)
        st = verdict.stab1
        autc = graph.n * st.order
        grr_ok = right_regular_preserves_colours(graph)
        closed = (len(st.elements) == st.order
                  and _stab1_closed(st.elements, rng))
        divisible = autc % (graph.n * verdict.aut_pm1_order) == 0
        iff_ok = verdict.is_cca == (autc == graph.n * verdict.aut_pm1_order)
        row_ok = (grr_ok and closed and divisible and iff_ok
                  and verdict.autc_order == autc
                  and all(preserves_colours(graph, a) for a in st.generators))
        rows.append({
            "graph": label, "n": graph.n,
            "stab1_order": st.order,
            "aut_pm1_order": verdict.aut_pm1_order,
            "autc_order": autc,
            "right_regular_in_autc": grr_ok,
            "stab1_closed": closed,
            "is_cca": verdict.is_cca,
            "cca_iff_orders_match": iff_ok,
            "pass": row_ok,
        })
        ok = ok and row_ok
    return {"pass": ok, "graphs_checked": len(graph_registry),
            "graphs": rows}


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------

def _criteria_1_to_9(seed: int, budget: int) -> dict:
    """Criteria 1-9 by name, in run order.

    Criteria 2, 7 and 8 register the graphs they build, and criterion 9
    checks them, so it must run after them to see any.
    """
    registry: list = []
    return {
        "criterion_1": lambda: criterion_1(budget),
        "criterion_2": lambda: criterion_2(registry),
        "criterion_3": criterion_3,
        "criterion_4": criterion_4,
        "criterion_5": criterion_5,
        "criterion_6": criterion_6,
        "criterion_7": lambda: criterion_7(seed, registry),
        "criterion_8": lambda: criterion_8(registry),
        "criterion_9": lambda: criterion_9(registry, seed),
    }


def check_selection(only: list[str] | None) -> None:
    """Raise ValueError unless `only` is a runnable subset of criteria.

    Criterion 10 reruns criteria 1-9 in full, so it cannot be selected,
    and criterion 9 alone would pass having checked no graph.
    """
    for name in only or ():
        if name not in CRITERIA:
            raise ValueError(f"unknown criterion {name!r}")
        if name == "criterion_10":
            raise ValueError("criterion_10 reruns criteria 1-9 in full; "
                             "run reproduce without --only")
    if only and "criterion_9" in only and _GRAPH_MAKERS.isdisjoint(only):
        raise ValueError("criterion_9 checks the graphs criteria 2, 7 and 8 "
                         "build; add one of them to --only")


def run_suite(only: list[str] | None = None, seed: int = 12345,
              budget: int = 2**20, with_timing: bool = False) -> dict:
    """Run the acceptance matrix and assemble the report.

    A subset `only` must pass check_selection, and runs in canonical
    order, so criterion 9 sees the graphs of the criteria 2, 7 and 8 it
    is given.  Without one, criterion 10 runs criteria 1-9 a second time
    and compares the canonical JSON bytes of the two results subtrees.
    """
    check_selection(only)
    t0 = time.monotonic()
    timing: dict[str, float] = {}
    results = {}
    for name, run in _criteria_1_to_9(seed, budget).items():
        if not only or name in only:
            tstep = time.monotonic()
            results[name] = run()
            timing[name] = round(time.monotonic() - tstep, 3)
    if not only:
        tstep = time.monotonic()
        first = canonical_json(results)
        second = canonical_json({
            name: run()
            for name, run in _criteria_1_to_9(seed, budget).items()})
        results["criterion_10"] = {
            "pass": first == second,
            "results_bytes": len(first.encode()),
            "identical": first == second,
        }
        timing["criterion_10"] = round(time.monotonic() - tstep, 3)

    report = report_head("reproduce", seed=seed, budget=budget,
                         only=sorted(only) if only else None)
    report["results"] = results
    report["passed"] = all(r.get("pass", False) for r in results.values())
    if with_timing:
        timing["total"] = round(time.monotonic() - t0, 3)
        report["timing"] = timing
    return report
