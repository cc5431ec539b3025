"""Reproduction suite: every headline claim as a deterministic criterion.

Each criterion_* function returns a plain dict with a "pass" flag and
enough detail to audit the verdict.  The flag is the conjunction of the
verdicts in the rows the criterion reports, so a criterion states each
verdict once; criterion 3 reports a sample of its entries, and the sample
keeps every failing one.  run_suite assembles the criteria into a report
whose "results" subtree is byte-identical across runs with the same seed.
Criterion 1 sweeps at colourauts.DEFAULT_BUDGET, far above the 14
class sets it forms at most (S4; A4 forms 5), so the suite takes no
budget.  Criteria 2, 7 and 8 register the verdicts they
make in a registry, and criterion 9 audits each verdict's graph and
stab1 without searching again.  Criteria 7 and 8 walk class sets over
cayley.class_rows.
"""

from __future__ import annotations

import itertools
import json
import random
import time

from . import groupzoo as gz
from . import higman as hi
from . import triples as tr
from .cayley import ColouredCayleyGraph, class_rows
from .colourauts import (
    enumerate_stab1,
    is_cca_graph,
    is_cca_group_exhaustive,
    preserves_colours,
    right_regular_preserves_colours,
    stab1_oracle,
)
from .permcore import parse_cycles

SCHEMA_VERSION = 1
DEFAULT_SEED = 12345

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


def criterion_1() -> dict:
    rows = []
    for expr, expected in EXHAUSTIVE_EXPECTED:
        G = gz.construct(expr)
        v = is_cca_group_exhaustive(G)
        row = {"group": expr, "expected": expected} | v.to_json_dict(G)
        row["pass"] = v.status == expected
        if expected == "non-cca":
            row["pass"] = row["pass"] and v.witness_set is not None
        rows.append(row)
    return {"pass": all(row["pass"] for row in rows), "groups": rows}


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


def criterion_2(registry: list) -> dict:
    rows = []
    for kind, n in [("A", 6), ("A", 7), ("A", 8), ("S", 6), ("S", 7)]:
        G, trip = _alt_sym_triple(kind, n)
        row = {"group": f"{kind}{n}"} | trip.to_json_dict()
        if kind == "A" and n == 6:
            rep = tr.crosscheck_prop22(G, trip)
            row["crosscheck"] = rep.to_json_dict()
            registry.append(("criterion_2:A6", rep.verdict))
        rows.append(row)

    # degree-5 case: t = (1 4 2 5), tau = t^2, H a stabiliser of {4, 5}
    S5 = gz.symmetric_group(5)
    t = parse_cycles("(1 4 2 5)", 5)
    tau = t * t
    s5_rows = []
    for reading, H in [("pointwise", gz.pointwise_stabilizer(S5, [3, 4])),
                       ("setwise", gz.setwise_stabilizer(S5, [3, 4]))]:
        S = tr.s_tau(H, tau).elements
        trip = tr.validate_triple(S5, S, [t], tau)
        row = {"group": "S5", "reading": reading,
               "H_order": H.order()} | trip.to_json_dict()
        if trip.valid and not any(r["valid"] for r in s5_rows):
            rep = tr.crosscheck_prop22(S5, trip)
            row["crosscheck"] = rep.to_json_dict()
            registry.append(("criterion_2:S5", rep.verdict))
        s5_rows.append(row)
    return {"pass": (all(row["valid"] for row in rows)
                     and any(row["valid"] for row in s5_rows)),
            "triples": rows, "s5_readings": s5_rows}


# ---------------------------------------------------------------------------
# criterion 3: the 2-group family over n in {3..10}, 20 seeds each
# ---------------------------------------------------------------------------

CRITERION_3_SEEDS = 20


def _entry_ok(entry: dict) -> bool:
    return (entry["order_ok"] and entry["relations_ok"]
            and entry["triple_valid"] and entry["index"] == 4)


def criterion_3() -> dict:
    rows = []
    for n in range(3, 11):
        for seed in range(1, CRITERION_3_SEEDS + 1):
            G, trip = hi.theorem3_triple(hi.sample_params(n, seed))
            entry = {
                "n": n, "seed": seed,
                "order_ok": G.order() == 2 ** n,
                "relations_ok": not hi.relation_audit(G),
                "triple_valid": trip.valid,
                "index": trip.index,
                "crosscheck": tr.crosscheck_prop22(G, trip).to_json_dict(),
            }
            # keep the report small: first seed per n plus any failure
            if seed == 1 or not _entry_ok(entry):
                rows.append(entry)
    return {"pass": all(map(_entry_ok, rows)), "n_range": [3, 10],
            "seeds_per_n": CRITERION_3_SEEDS, "sampled_rows": rows}


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
    for q, expected in ORDER4_EXPECTED:
        G = gz.psl2(q)
        got = gz.has_element_of_order4(G)
        rows.append({"q": q, "order": G.order(),
                     "has_order4": got, "expected": expected,
                     "pass": got == expected})
    return {"pass": all(row["pass"] for row in rows), "cases": rows}


# ---------------------------------------------------------------------------
# criterion 5: triple search on PSL(2, 17) through dihedral normalizers
# ---------------------------------------------------------------------------

def criterion_5() -> dict:
    G = gz.psl2(17)
    rows = []
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
        rows.append(row)
    # a search that finds nothing has no "revalidated" and fails
    return {"pass": all(row.get("revalidated", False) for row in rows),
            "group_order": G.order(), "searches": rows}


# ---------------------------------------------------------------------------
# criterion 6: both S_G(tau) forms agree; span contains all involutions
# ---------------------------------------------------------------------------

def criterion_6() -> dict:
    rows = []
    checked = 0
    for expr, G in gz.zoo_corpus(48):
        invs = G.involutions()
        # s_tau raises if the definitional and filter forms disagree
        spans = [tr.s_tau(G, tau).span().element_set() for tau in invs]
        checked += len(invs)
        rows.append({"group": expr, "order": G.order(),
                     "involutions": len(invs),
                     "pass": all(y in span for span in spans for y in invs)})
    return {"pass": all(row["pass"] for row in rows), "groups": rows,
            "involutions_checked": checked}


# ---------------------------------------------------------------------------
# criterion 7: |stab1| is a power of two on random connected graphs: the
# enumerated stab1 has the 2^m elements its m strong generators promise
# ---------------------------------------------------------------------------

def criterion_7(seed: int, registry: list) -> dict:
    rng = random.Random(seed)
    corpus = gz.zoo_corpus(64)
    corpus_rows = [class_rows(G) for _, G in corpus]
    rows = []
    made = 0
    while made < 50:
        gi = rng.randrange(len(corpus))
        expr, G = corpus[gi]
        classes = corpus_rows[gi]
        k = rng.randint(1, min(5, len(classes)))
        combo = sorted(rng.sample(range(len(classes)), k))
        graph = ColouredCayleyGraph(G, [classes[c] for c in combo])
        if not graph.is_connected():
            continue
        verdict = is_cca_graph(graph)
        rows.append({"group": expr,
                     "S_size": sum(len(classes[c]) for c in combo),
                     "stab1_order": verdict.stab1_order,
                     "pass": len(enumerate_stab1(graph))
                     == verdict.stab1_order})
        registry.append((f"criterion_7:{made}:{expr}", verdict))
        made += 1
    return {"pass": all(row["pass"] for row in rows), "seed": seed,
            "graphs": rows}


# ---------------------------------------------------------------------------
# criterion 8: stab1, both enumerated and generated from its strong
# generators, equals the brute-force oracle on every tiny graph
# ---------------------------------------------------------------------------

def criterion_8(registry: list) -> dict:
    rows = []
    total = 0
    for expr, G in gz.zoo_corpus(8):
        classes = class_rows(G)
        agree = []
        for combo in itertools.chain.from_iterable(
                itertools.combinations(classes, size)
                for size in range(1, len(classes) + 1)):
            graph = ColouredCayleyGraph(G, list(combo))
            if not graph.is_connected():
                continue
            slow = stab1_oracle(graph)
            verdict = is_cca_graph(graph)
            agree.append(enumerate_stab1(graph) == verdict.stab1.elements
                         == slow)
            registry.append((f"criterion_8:{expr}:{len(agree)}", verdict))
        total += len(agree)
        rows.append({"group": expr, "connected_graphs": len(agree),
                     "pass": all(agree)})
    return {"pass": all(row["pass"] for row in rows), "groups": rows,
            "graphs_checked": total}


# ---------------------------------------------------------------------------
# criterion 9: structural identities on every verdict collected above
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


def criterion_9(registry: list, seed: int) -> dict:
    """The verdict's strong generators keep colours and generate a group
    of exactly 2^m elements, closed under composition.

    The registry holds the (label, CCAVerdict) pairs that criteria 2, 7
    and 8 made; each verdict's graph and stab1 are read, not searched
    again.
    """
    rng = random.Random(seed + 9)
    rows = []
    for label, verdict in registry:
        graph = verdict.graph
        st = verdict.stab1
        autc = verdict.autc_order
        grr_ok = right_regular_preserves_colours(graph)
        closed = (len(st.elements) == st.order
                  and _stab1_closed(st.elements, rng))
        divisible = autc % (graph.n * verdict.aut_pm1_order) == 0
        iff_ok = verdict.is_cca == (autc == graph.n * verdict.aut_pm1_order)
        row_ok = (grr_ok and closed and divisible and iff_ok
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
    return {"pass": all(row["pass"] for row in rows),
            "graphs_checked": len(registry), "graphs": rows}


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------

def _criteria_1_to_9(seed: int) -> dict:
    """Criteria 1-9 by name, in run order.

    Criteria 2, 7 and 8 register the verdicts they make, and criterion 9
    checks them, so it must run after them to see any.
    """
    registry: list = []
    return {
        "criterion_1": criterion_1,
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
    """Raise ValueError unless `only` is None or a runnable, non-empty
    subset of criteria.

    An empty list selects nothing, not everything.  Criterion 10 reruns
    criteria 1-9 in full, so it cannot be selected, and criterion 9 alone
    would pass having checked no graph.
    """
    if only is not None and not only:
        raise ValueError("no criterion selected")
    for name in only or ():
        if name not in CRITERIA:
            raise ValueError(f"unknown criterion {name!r}")
        if name == "criterion_10":
            raise ValueError("criterion_10 reruns criteria 1-9 in full; "
                             "run reproduce without --only")
    if only and "criterion_9" in only and _GRAPH_MAKERS.isdisjoint(only):
        raise ValueError("criterion_9 checks the graphs criteria 2, 7 and 8 "
                         "build; add one of them to --only")


def run_suite(only: list[str] | None = None, seed: int = DEFAULT_SEED,
              with_timing: bool = False) -> dict:
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
    for name, run in _criteria_1_to_9(seed).items():
        if not only or name in only:
            tstep = time.monotonic()
            results[name] = run()
            timing[name] = round(time.monotonic() - tstep, 3)
    if not only:
        tstep = time.monotonic()
        first = canonical_json(results)
        second = canonical_json({
            name: run()
            for name, run in _criteria_1_to_9(seed).items()})
        results["criterion_10"] = {
            "pass": first == second,
            "results_bytes": len(first.encode()),
            "identical": first == second,
        }
        timing["criterion_10"] = round(time.monotonic() - tstep, 3)

    report = report_head("reproduce", seed=seed, only=[
        name for name in CRITERIA if name in only] if only else None)
    report["results"] = results
    report["passed"] = all(r.get("pass", False) for r in results.values())
    if with_timing:
        timing["total"] = round(time.monotonic() - t0, 3)
        report["timing"] = timing
    return report
