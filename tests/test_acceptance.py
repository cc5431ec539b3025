"""Acceptance matrix: one test per criterion, asserted at the stated
tolerances (all exact).  The suite report is computed once per session;
criterion 10 re-runs the deterministic core inside run_suite itself.
"""

import hashlib
import random

import pytest

from oracle_collect import multiply_oracle

from ccakit import reproduce as rp
from ccakit.higman import HigmanGroup, multiply, sample_params


@pytest.fixture(scope="session")
def suite_report():
    return rp.run_suite(seed=12345)


@pytest.mark.parametrize("only,message", [
    (["criterion_99"], "unknown criterion"),
    (["criterion_4", "criterion_10"], "criterion_10 reruns"),
    (["criterion_9"], "criterion_9 checks"),
], ids=["unknown", "criterion_10", "criterion_9 alone"])
def test_run_suite_refuses_unrunnable_selection(only, message):
    # criterion 9 alone would pass having checked no graph
    with pytest.raises(ValueError, match=message):
        rp.run_suite(only=only)


def _announce(name, result):
    status = "PASS" if result["pass"] else "FAIL"
    print(f"{name}: {status}")


def test_criterion_01_exhaustive_group_verdicts(suite_report):
    r = suite_report["results"]["criterion_1"]
    _announce("criterion 1 (exhaustive CCA verdicts)", r)
    by_name = {row["group"]: row for row in r["groups"]}
    for expr in ["S2", "S3", "A4", "C2", "C3", "C5", "C7"]:
        assert by_name[expr]["status"] == "cca", expr
    assert by_name["S4"]["status"] == "non-cca"
    assert by_name["S4"]["witness_S"]
    assert r["pass"]


def test_criterion_02_alt_sym_triples(suite_report):
    r = suite_report["results"]["criterion_2"]
    _announce("criterion 2 (alternating/symmetric triples)", r)
    by_name = {row["group"]: row for row in r["triples"]}
    for name in ["A6", "A7", "A8", "S6", "S7"]:
        assert by_name[name]["valid"], name
        assert all(by_name[name]["checks"].values()), name
    assert by_name["A6"]["crosscheck"]["ok"]
    readings = r["s5_readings"]
    assert any(row["valid"] for row in readings)
    assert any(row.get("crosscheck", {}).get("ok") for row in readings)
    assert r["pass"]


def test_criterion_03_higman_family(suite_report):
    r = suite_report["results"]["criterion_3"]
    _announce("criterion 3 (2-group family)", r)
    assert r["pass"]
    assert r["seeds_per_n"] == 20
    # every n is cross-checked on its graph, not only n <= 8
    assert sorted(row["n"] for row in r["sampled_rows"]) == list(range(3, 11))
    for row in r["sampled_rows"]:
        assert row["crosscheck"]["ok"] is True, row["n"]
    # closed form vs the literal word-rewriting collector, >=100 random
    # products for every instance in the same n/seed grid
    for n in range(3, 11):
        for seed in range(1, 21):
            params = sample_params(n, seed)
            elems = HigmanGroup(params).elements()
            rng = random.Random(n * 1000 + seed)
            for _ in range(100):
                a = rng.choice(elems)
                b = rng.choice(elems)
                assert multiply(params, a, b) == \
                    multiply_oracle(params, a, b)


def test_criterion_04_order4_predicate(suite_report):
    r = suite_report["results"]["criterion_4"]
    _announce("criterion 4 (no-element-of-order-4 predicate)", r)
    got = {row["q"]: row["has_order4"] for row in r["cases"]}
    for q in [4, 5, 8, 11, 13, 16, 27, 29]:
        assert got[q] is False, q
    for q in [7, 9, 17, 25]:
        assert got[q] is True, q
    assert r["pass"]


def test_criterion_05_psl2_17_search(suite_report):
    r = suite_report["results"]["criterion_5"]
    _announce("criterion 5 (PSL(2,17) dihedral search)", r)
    assert r["group_order"] == 2448
    orders = sorted(row["dihedral_order"] for row in r["searches"])
    assert orders == [16, 18]
    for row in r["searches"]:
        assert row["found"]
        assert row["revalidated"]
        assert row["triple"]["valid"]
    assert r["pass"]


def test_criterion_06_s_tau_forms_and_involution_span(suite_report):
    r = suite_report["results"]["criterion_6"]
    _announce("criterion 6 (S_G(tau) forms and involution span)", r)
    assert all(row["pass"] for row in r["groups"])
    assert all(row["order"] <= 48 for row in r["groups"])
    assert r["involutions_checked"] > 0
    assert r["pass"]


def test_criterion_07_stab1_power_of_two(suite_report):
    r = suite_report["results"]["criterion_7"]
    _announce("criterion 7 (stab1 is a 2-group, random graphs)", r)
    assert len(r["graphs"]) >= 50
    for row in r["graphs"]:
        n = row["stab1_order"]
        assert n >= 1 and (n & (n - 1)) == 0
    assert r["pass"]


def test_criterion_08_oracle_equivalence(suite_report):
    r = suite_report["results"]["criterion_8"]
    _announce("criterion 8 (stab1 oracle equivalence, order <= 8)", r)
    assert r["graphs_checked"] > 0
    assert all(row["pass"] for row in r["groups"])
    assert r["pass"]


def test_criterion_09_structural_identities(suite_report):
    r = suite_report["results"]["criterion_9"]
    _announce("criterion 9 (order identities and G_R membership)", r)
    assert r["graphs_checked"] > 0
    for row in r["graphs"]:
        assert row["autc_order"] == row["n"] * row["stab1_order"]
        assert row["right_regular_in_autc"]
        assert row["cca_iff_orders_match"]
    assert r["pass"]


def test_criterion_10_determinism(suite_report):
    r = suite_report["results"]["criterion_10"]
    _announce("criterion 10 (byte-identical results)", r)
    assert r["identical"]
    assert r["pass"]


def test_suite_passed_overall(suite_report):
    assert suite_report["passed"]


# SHA-256 of the canonical results JSON at seed 12345.  A change meant to
# keep every result byte-identical (a speed or simplicity change) must
# leave it as it is; a change to a result updates it and says why.
RESULTS_SHA256 = (
    "83343d83b57484eb1af55c298b86c199caa1bf49c7ab90392efe3a9490999c9a")


def test_results_digest_is_pinned(suite_report):
    text = rp.canonical_json(suite_report["results"])
    assert hashlib.sha256(text.encode()).hexdigest() == RESULTS_SHA256
