import argparse
import ast
import inspect
import json
import re
import shlex
import textwrap
from pathlib import Path

import pytest

from ccakit import cli
from ccakit import groupzoo as gz
from ccakit import reproduce as rp
from ccakit import triples as tr
from ccakit.cli import (
    EXIT_CRITERION,
    EXIT_INTERNAL,
    EXIT_LIMIT,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
)
from ccakit.higman import sample_params

README = Path(__file__).resolve().parents[1] / "README.md"

# S u T of the non-CCA triple that `triple search "PSL2(17)" --subgroup
# dihedral:16` finds
PSL2_17_DIHEDRAL_16_TRIPLE = ",".join([
    "(2 10 14 16 17 9 5 3)(4 11 6 12 15 8 13 7)",
    "(1 18)(2 17)(3 9)(4 12)(6 11)(7 15)(8 13)(10 16)",
    "(2 14 17 5)(3 10 16 9)(4 6 15 13)(7 11 12 8)",
    "(2 16 5 10 17 3 14 9)(4 12 13 11 15 7 6 8)",
    "(2 3 5 9 17 16 14 10)(4 7 13 8 15 12 6 11)",
    "(2 17)(3 16)(4 15)(5 14)(6 13)(7 12)(8 11)(9 10)",
    "(2 5 17 14)(3 9 16 10)(4 13 15 6)(7 8 12 11)",
    "(2 9 14 3 17 10 5 16)(4 8 6 7 15 11 13 12)",
    "(1 18)(3 10)(4 7)(5 14)(6 8)(9 16)(11 13)(12 15)",
    "(1 17 18 2)(3 7 9 15)(4 10 12 16)(6 13 11 8)",
])


def run_json(capsys, argv):
    rc = main(argv + ["--json"])
    out = capsys.readouterr().out
    return rc, json.loads(out)


class TestGroupCommand:
    def test_psl2_13(self, capsys):
        rc, rep = run_json(capsys, ["group", "PSL2(13)"])
        assert rc == EXIT_OK
        r = rep["results"]
        assert r["order"] == 1092
        assert r["has_element_of_order4"] is False

    def test_a5(self, capsys):
        rc, rep = run_json(capsys, ["group", "A5"])
        assert rc == EXIT_OK
        assert rep["results"]["order"] == 60

    def test_higman_inline(self, capsys):
        rc, rep = run_json(capsys, ["group", "higman:n=6,seed=1"])
        assert rc == EXIT_OK
        assert rep["results"]["order"] == 64

    @pytest.mark.parametrize("i,j", [(3, 1), (2, 2), (1, 4)])
    def test_higman_file_bad_pair_exit_2(self, capsys, tmp_path, i, j):
        d = sample_params(5, 1).to_json_dict()      # r = 3
        d["c"] = [{"i": i, "j": j, "k": 1, "bit": 1}]
        f = tmp_path / "params.json"
        f.write_text(json.dumps(d))
        assert main(["group", f"higman:@{f}"]) == EXIT_USAGE
        assert "c entry" in capsys.readouterr().err

    def test_higman_file_malformed_b_row_exit_2(self, capsys, tmp_path):
        d = sample_params(5, 1).to_json_dict()      # s = 2
        d["b"][0] = [2, 0]
        f = tmp_path / "params.json"
        f.write_text(json.dumps(d))
        assert main(["group", f"higman:@{f}"]) == EXIT_USAGE
        assert "b row" in capsys.readouterr().err

    def test_higman_repeated_key_exit_2(self, capsys):
        assert main(["group", "higman:n=3,n=5,seed=1"]) == EXIT_USAGE
        assert "'n' repeated" in capsys.readouterr().err

    def test_bad_expression_exit_2(self, capsys):
        assert main(["group", "Z99"]) == EXIT_USAGE
        for expr, message in [
                ("S0", "S n requires n >= 1"), ("A0", "A n requires n >= 1"),
                ("D0", "D n requires n >= 1"),
                ("higman:seed=1", "need n=<int>"),
                ("higman:n", "bad higman parameter 'n'"),
                ("higman:n=5,foo=2", "unknown higman parameter(s): ['foo']")]:
            capsys.readouterr()
            assert main(["group", expr]) == EXIT_USAGE
            assert message in capsys.readouterr().err

    def test_missing_subcommand_exit_2(self):
        assert main([]) == EXIT_USAGE

    def test_limit_exceeded_exit_3(self):
        assert main(["group", "PSL2(17)", "--limit-enum", "10"]) == EXIT_LIMIT

    def test_given_order_past_the_limit_exit_3(self, capsys, closure_calls):
        # S12 is given its order, 479,001,600, past the default limit; the
        # same group given by generators alone is ordered by its chain
        for expr in ["S12", "perm:12:(1 2),(1 2 3 4 5 6 7 8 9 10 11 12)"]:
            assert main(["group", expr]) == EXIT_LIMIT
            assert "group order 479001600" in capsys.readouterr().err
        assert closure_calls == []


class TestCcaCommand:
    def test_s4_exhaustive_witness(self, capsys):
        rc, rep = run_json(capsys, ["cca", "S4", "--exhaustive"])
        assert rc == EXIT_OK
        r = rep["results"]
        assert r["status"] == "non-cca"
        assert r["witness_S"]
        # the witness re-parses into S4 elements
        G = gz.construct("S4")
        for s in r["witness_S"]:
            assert G.contains(G.elem_parse(s))

    def test_s3_exhaustive_cca(self, capsys):
        rc, rep = run_json(capsys, ["cca", "S3", "--exhaustive"])
        assert rep["results"]["status"] == "cca"

    def test_c7_exhaustive_cca(self, capsys):
        rc, rep = run_json(capsys, ["cca", "C7", "--exhaustive"])
        assert rep["results"]["status"] == "cca"

    def test_exhaustive_budget_zero_is_unknown(self, capsys):
        rc, rep = run_json(capsys, ["cca", "S3", "--exhaustive",
                                    "--budget", "0"])
        assert rc == EXIT_OK
        r = rep["results"]
        assert (r["status"], r["sets_checked"], r["connected_checked"]) == (
            "unknown", 0, 0)

    def test_single_graph(self, capsys):
        rc, rep = run_json(capsys, ["cca", "C4", "--set", "(1 2 3 4)"])
        assert rc == EXIT_OK
        r = rep["results"]
        assert r["is_cca"] is True
        assert r["stab1_order"] == 2

    def test_psl2_8_involution_and_order_3(self, capsys, time_limit):
        # one of the PSL(2, 8) graphs on one involution and one element of
        # order 3 whose stab1 search ran for many seconds before
        # backjumping
        with time_limit(10):
            rc, rep = run_json(capsys, [
                "cca", "PSL2(8)",
                "--set", "(1 5)(2 6)(3 7)(4 8),(1 3 9)(2 6 7)(4 5 8)"])
        assert rc == EXIT_OK
        r = rep["results"]
        assert (r["stab1_order"], r["is_cca"]) == (2, True)

    @pytest.mark.parametrize("expr,elems,stab1_order", [
        ("PSL2(17)", PSL2_17_DIHEDRAL_16_TRIPLE, 2 ** 154),
        ("PSL2(7)", "(2 3 5)(4 7 6),(1 7 8 2)(3 6 4 5)", 2 ** 29),
    ], ids=["PSL2(17) dihedral:16", "PSL2(7) witness"])
    def test_full_generator_set_orders(self, capsys, time_limit, expr,
                                       elems, stab1_order):
        # the orders finish the whole generator search: 14-16 s and 2.8 s
        # on a 2-core machine while an orbit skip put every point above
        # in the conflict set, about 1 s and 0.5 s now
        with time_limit(10):
            rc, rep = run_json(capsys, ["cca", expr, "--set", elems])
        assert rc == EXIT_OK
        r = rep["results"]
        assert (r["stab1_order"], r["aut_pm1_order"], r["is_cca"]) \
            == (stab1_order, 4, False)

    @pytest.mark.parametrize("words,normal", [
        ("g2*g1", "g1*g2*h1"), ("g1*g1,g2", "h1,g2")])
    def test_set_words_name_their_product(self, capsys, words, normal):
        # in Q8, g2*g1 = g1*g2*[g2, g1] = g1*g2*h1 and g1*g1 = h1
        _, by_words = run_json(capsys, ["cca", "Q8", "--set", words])
        _, by_normal = run_json(capsys, ["cca", "Q8", "--set", normal])
        assert by_words["results"] == by_normal["results"]

    def test_disconnected_reported(self, capsys):
        rc, rep = run_json(capsys, ["cca", "S3", "--set", "(1 2)"])
        assert rc == EXIT_OK
        assert rep["results"]["connected"] is False

    def test_requires_set_or_exhaustive(self):
        assert main(["cca", "S3"]) == EXIT_USAGE

    def test_set_and_exhaustive_exclude_each_other(self, capsys):
        # the sweep would ignore the set and report the group verdict
        assert main(["cca", "S3", "--exhaustive", "--set", "(1 2)"]) \
            == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not allowed with argument" in captured.err

    @pytest.mark.parametrize("expr, text", [
        ("A4", "(1 2)"), ("perm:4:(1 2)", "(3 4)"), ("Q8 x C2", "(1 2)")])
    def test_set_outside_the_group_exit_2(self, capsys, expr, text):
        assert main(["cca", expr, "--set", text]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {text} is not in the group\n"


class TestTripleCommand:
    def test_validate_a6(self, capsys):
        rc, rep = run_json(capsys, [
            "triple", "validate", "A6",
            "--T", "(1 2)(3 4 5 6)", "--tau", "(3 5)(4 6)",
            "--S", "(3 5)(4 6),(2 3)(5 6)"])
        assert rc == EXIT_OK
        assert set(rep["results"]["checks"]) == {"Ai", "Aii", "Aiii",
                                                 "Aiv", "Av"}

    # a valid triple of index 36; an S that fails Aii (tau neither
    # centralises nor inverts (2 3)(5 6)); and a C4 triple that fails Av
    @pytest.mark.parametrize("argv,valid,crosschecked", [
        (["A6", "--S", "(2 4 3 5 6)", "--T", "(1 2)(3 4 5 6)",
          "--tau", "(3 5)(4 6)", "--crosscheck"], True, True),
        (["A6", "--S", "(2 4 3 5 6)", "--T", "(1 2)(3 4 5 6)",
          "--tau", "(3 5)(4 6)"], True, False),
        (["A6", "--S", "(3 5)(4 6),(2 3)(5 6)", "--T", "(1 2)(3 4 5 6)",
          "--tau", "(3 5)(4 6)", "--crosscheck"], False, False),
        (["C4", "--T", "(1 2 3 4)", "--tau", "(1 3)(2 4)", "--crosscheck"],
         False, False),
    ], ids=["valid-crosscheck", "valid", "invalid-crosscheck",
            "c4-crosscheck"])
    def test_validate_crosschecks_a_valid_triple_on_request(
            self, capsys, argv, valid, crosschecked):
        rc, rep = run_json(capsys, ["triple", "validate", *argv])
        assert rc == EXIT_OK
        r = rep["results"]
        assert r["valid"] is valid
        assert ("crosscheck" in r) is crosschecked
        if crosschecked:
            assert r["index_S_tau"] == 36
            assert r["crosscheck"]["ok"] is True

    def test_validate_higman_n20_lists_nothing(self, capsys, closure_calls,
                                               time_limit):
        # 2^20 elements: the subgroup orders are GF(2) ranks, not listings
        S = ",".join([f"g{i}" for i in range(1, 12)]
                     + [f"h{j}" for j in range(1, 8)])
        with time_limit(10):
            rc, rep = run_json(capsys, [
                "triple", "validate", "higman:n=20,seed=1", "--S", S,
                "--T", "g12,g13", "--tau", "h1"])
        assert rc == EXIT_OK
        assert rep["results"]["valid"] is True
        assert rep["results"]["index_S_tau"] == 4
        assert closure_calls == []

    def test_validate_c4_degenerate(self, capsys):
        rc, rep = run_json(capsys, [
            "triple", "validate", "C4",
            "--T", "(1 2 3 4)", "--tau", "(1 3)(2 4)"])
        assert rc == EXIT_OK
        checks = rep["results"]["checks"]
        assert checks["Av"] is False
        assert all(checks[k] for k in ("Ai", "Aii", "Aiii", "Aiv"))

    def test_search_s5_setwise(self, capsys):
        rc, rep = run_json(capsys, [
            "triple", "search", "S5", "--subgroup", "setwise:4,5"])
        assert rc == EXIT_OK
        r = rep["results"]
        assert r["found"] and r["valid"]
        assert r["crosscheck"]["ok"]

    def test_search_point_subgroup(self, capsys):
        rc, rep = run_json(capsys, [
            "triple", "search", "A6", "--subgroup", "point:1"])
        assert rc == EXIT_OK
        assert rep["results"]["found"]

    def test_search_s5_pointwise(self, capsys):
        rc, rep = run_json(capsys, ["triple", "search", "S5",
                                    "--subgroup", "pointwise:4,5"])
        assert rc == EXIT_OK
        assert rep["results"]["found"] is True
        assert rep["results"]["crosscheck"]["ok"] is True

    def test_search_psl2_7_dihedral(self, capsys):
        rc, rep = run_json(capsys, ["triple", "search", "PSL2(7)",
                                    "--subgroup", "dihedral:3"])
        assert rc == EXIT_OK
        r = rep["results"]
        assert r["found"] is True
        assert r["index_S_tau"] == 28
        assert r["crosscheck"]["ok"] is True

    def test_search_gens_subgroup_not_found(self, capsys):
        rc, rep = run_json(capsys, ["triple", "search", "S5",
                                    "--subgroup", "gens:(1 2),(4 5)"])
        assert rc == EXIT_OK
        assert rep["results"] == {"found": False, "subgroup_order": 4}

    def test_search_dihedral_without_cyclic_subgroup_exit_2(self, capsys):
        rc = main(["triple", "search", "S5", "--subgroup", "dihedral:7"])
        assert rc == EXIT_USAGE
        assert "no cyclic subgroup of order 7" in capsys.readouterr().err

    def test_search_requires_subgroup(self, capsys):
        assert main(["triple", "search", "S5"]) == EXIT_USAGE
        assert "requires --subgroup" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["S5", "--S", "(1 2)"], "requires --tau"),
        (["S5", "--S", "(1 2)", "--tau", "(1 2),(3 4)"], "single element"),
        (["A4", "--S", "(1 2)", "--tau", "(1 2)(3 4)"], "not in G"),
    ], ids=["no-tau", "two-taus", "outside-G"])
    def test_validate_bad_input_exit_2(self, capsys, argv, message):
        assert main(["triple", "validate"] + argv) == EXIT_USAGE
        assert message in capsys.readouterr().err

    def test_validate_q8_words_outside_normal_form(self, capsys):
        # g1*g1 = g2*g2 = h1, the canonical triple of Q8
        rc, rep = run_json(capsys, [
            "triple", "validate", "Q8", "--S", "g1*g1", "--T", "g1,g2",
            "--tau", "g2*g2", "--crosscheck"])
        assert rc == EXIT_OK
        r = rep["results"]
        assert r["valid"] is True
        assert r["index_S_tau"] == 4
        assert r["crosscheck"]["ok"] is True

    @pytest.mark.parametrize("spec", ["point:1", "pointwise:1",
                                      "setwise:1,2"])
    def test_point_specs_need_a_permutation_group(self, capsys, spec):
        assert main(["triple", "search", "Q8", "--subgroup", spec]) \
            == EXIT_USAGE
        assert (f"subgroup spec {spec!r} needs a permutation group"
                in capsys.readouterr().err)

    def test_bad_element_exit_2(self):
        assert main(["triple", "validate", "A6",
                     "--tau", "(1 2"]) == EXIT_USAGE

    def test_bad_subgroup_spec_exit_2(self, capsys):
        assert main(["triple", "search", "A6",
                     "--subgroup", "wat:1"]) == EXIT_USAGE
        for spec in ["point:x", "dihedral:x"]:
            capsys.readouterr()
            assert main(["triple", "search", "A6",
                         "--subgroup", spec]) == EXIT_USAGE
            assert f"bad subgroup spec {spec!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["pointwise:0", "setwise:0,5",
                                      "pointwise:9", "setwise:4,6",
                                      "point:0", "point:6"])
    def test_subgroup_point_out_of_range_exit_2(self, capsys, spec):
        # the first bad point as typed, against the spec's 1-based range
        point = next(p for p in spec.split(":")[1].split(",")
                     if not 1 <= int(p) <= 5)
        assert main(["triple", "search", "S5", "--subgroup", spec]) \
            == EXIT_USAGE
        assert f"point {point} outside 1..5" in capsys.readouterr().err

    def test_elements_round_trip(self, capsys):
        rc, rep = run_json(capsys, [
            "triple", "search", "A6", "--subgroup", "point:1"])
        G = gz.construct("A6")
        r = rep["results"]
        for s in r["S"] + r["T"] + [r["tau"]]:
            assert G.elem_str(G.elem_parse(s)) == s


# Each command lists a group or subgroup with more elements than the limit.
# A Higman triple check lists no subgroup, so its probe lists G for the
# cross-check graph.
LIMIT_PROBES = [
    ["group", "higman:n=10,seed=1", "--limit-enum", "10"],
    ["cca", "S4", "--exhaustive", "--limit-enum", "10"],
    ["cca", "C4", "--set", "(1 2 3 4)", "--limit-enum", "3"],
    ["triple", "search", "S5", "--subgroup", "setwise:4,5",
     "--limit-enum", "13"],
    ["triple", "search", "S5", "--subgroup", "point:5", "--limit-enum", "13"],
    ["triple", "validate", "higman:n=8,seed=1", "--S", "g1,g2,g3,h1,h2,h3",
     "--T", "g4,g5", "--tau", "h1", "--crosscheck", "--limit-enum", "10"],
    # refused while the product is built
    ["group", "C2 x higman:n=6,seed=1", "--limit-enum", "10"],
]


class TestExitCodes:
    @pytest.mark.parametrize("argv", LIMIT_PROBES,
                             ids=lambda argv: " ".join(argv[:-2]))
    def test_enum_limit_bounds_every_listing(self, capsys, argv):
        assert main(argv) == EXIT_LIMIT
        assert "limit exceeded" in capsys.readouterr().err
        # the same command runs to completion under the default limit
        assert main(argv[:-2]) == EXIT_OK

    def test_subgroup_gens_outside_the_group_checked_by_order(
            self, capsys, closure_calls):
        # (1 2) and a 10-cycle span S10, not a subgroup of PSL2(9); the odd
        # (1 2) is refused where it enters, before any element is listed
        argv = ["triple", "search", "PSL2(9)", "--subgroup",
                "gens:(1 2),(1 2 3 4 5 6 7 8 9 10)"]
        assert main(argv) == EXIT_USAGE
        assert "element (1 2) not in G" in capsys.readouterr().err
        assert closure_calls == []

    @pytest.mark.parametrize("expr", ["PSL2(9)", "A5"])
    def test_subgroup_gens_outside_the_group_exit_2(self, capsys, expr):
        # in A5, <(1 2)> has order 2 but is no subgroup of A5
        argv = ["triple", "search", expr, "--subgroup", "gens:(1 2)"]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "element (1 2) not in G" in captured.err

    def test_exhaustive_over_graph_limit_exit_3(self, capsys):
        argv = ["cca", "S4", "--exhaustive"]
        assert main(argv + ["--limit-graph", "10"]) == EXIT_LIMIT
        assert "graph limit 10" in capsys.readouterr().err
        assert main(argv) == EXIT_OK

    def test_exhaustive_graph_limit_refuses_before_any_row(
            self, capsys, left_row_calls):
        # PSL2(13) has order 1092: --limit-graph alone bounds the sweep,
        # which refuses the group before any row of the table is built
        argv = ["cca", "PSL2(13)", "--exhaustive", "--limit-graph", "1000"]
        assert main(argv) == EXIT_LIMIT
        assert "graph limit 1000" in capsys.readouterr().err
        assert left_row_calls == []

    def test_exhaustive_refuses_a_perm_group_by_listing(
            self, capsys, closure_calls, chains_built, left_row_calls):
        # S6 given by generators: its order is found by listing it under
        # the graph limit, which stops at 101 elements, with no chain
        argv = ["cca", "perm:6:(1 2),(1 2 3 4 5 6)", "--exhaustive"]
        assert main(argv + ["--limit-graph", "100"]) == EXIT_LIMIT
        assert "graph limit 100" in capsys.readouterr().err
        assert [args[2] for args, _ in closure_calls] == [100]
        assert chains_built == [] and left_row_calls == []
        # an enumeration limit below the order and the graph limit refuses
        del closure_calls[:]
        assert main(argv + ["--limit-graph", "100",
                            "--limit-enum", "50"]) == EXIT_LIMIT
        err = capsys.readouterr().err
        assert "enumeration limit 50" in err and "graph limit" not in err
        assert [args[2] for args, _ in closure_calls] == [50]
        assert chains_built == [] and left_row_calls == []

    def test_exhaustive_past_order_1024_within_budget(self, capsys):
        # the default graph limit, 4096, admits PSL2(13); a budget of 50
        # sets answers before the full sweep (10,495 sets) would
        rc, rep = run_json(capsys, ["cca", "PSL2(13)", "--exhaustive",
                                    "--budget", "50"])
        assert rc == EXIT_OK
        assert (rep["results"]["status"], rep["results"]["sets_checked"]) \
            == ("unknown", 50)

    def test_crosscheck_over_graph_limit_exit_3(self, capsys):
        argv = ["triple", "validate", "higman:n=8,seed=1",
                "--S", "g1,g2,g3,h1,h2,h3", "--T", "g4,g5", "--tau", "h1",
                "--crosscheck"]
        assert main(argv + ["--limit-graph", "100"]) == EXIT_LIMIT
        assert "graph limit 100" in capsys.readouterr().err
        rc, rep = run_json(capsys, argv)
        assert rc == EXIT_OK
        assert rep["results"]["crosscheck"]["ok"] is True

    def test_search_crosscheck_over_graph_limit_exit_3(self, capsys):
        argv = ["triple", "search", "S5", "--subgroup", "setwise:4,5"]
        assert main(argv + ["--limit-graph", "10", "--json"]) == EXIT_LIMIT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "graph limit 10" in captured.err
        rc, rep = run_json(capsys, argv)
        assert rc == EXIT_OK
        assert rep["results"]["crosscheck"]["ok"] is True

    def test_internal_error_exit_4(self, capsys, monkeypatch):
        def failing_crosscheck(G, triple, graph_limit):
            raise tr.CrosscheckError("injected disagreement")

        monkeypatch.setattr(tr, "crosscheck_prop22", failing_crosscheck)
        rc = main(["triple", "search", "S5", "--subgroup", "setwise:4,5"])
        assert rc == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err == "internal error: injected disagreement\n"

    def test_disconnected_crosscheck_exit_4(self, capsys, monkeypatch):
        # a triple wrongly marked valid whose S u T does not generate S4
        validate = tr.validate_triple

        def forged(G, S, T, tau):
            trip = validate(G, S, T, tau)
            trip.valid = True
            return trip

        monkeypatch.setattr(tr, "validate_triple", forged)
        rc = main(["triple", "validate", "S4", "--S", "(1 2)",
                   "--tau", "(1 2)", "--crosscheck"])
        assert rc == EXIT_INTERNAL
        assert "connected=False" in capsys.readouterr().err


class TestReproduceCommand:
    def test_only_subset(self, capsys):
        rc, rep = run_json(capsys, ["reproduce", "--only", "criterion_4"])
        assert rc == EXIT_OK
        assert rep["results"]["criterion_4"]["pass"] is True
        assert "criterion_1" not in rep["results"]

    def test_numeric_only(self, capsys):
        rc, rep = run_json(capsys, ["reproduce", "--only", "1"])
        assert rc == EXIT_OK
        assert rep["results"]["criterion_1"]["pass"] is True

    def test_text_report_lists_its_cases(self, capsys):
        # in text mode each case, a dict in a list, sits under a "-" line
        rc, rep = run_json(capsys, ["reproduce", "--only", "4"])
        cases = rep["results"]["criterion_4"]["cases"]
        assert main(["reproduce", "--only", "4"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        start = lines.index("    cases:") + 1
        assert lines[start:start + 2] == ["      -",
                                          f"        q: {cases[0]['q']}"]
        assert lines.count("      -") == len(cases)

    def test_unknown_criterion_exit_2(self):
        assert main(["reproduce", "--only", "criterion_99"]) == EXIT_USAGE

    @pytest.mark.parametrize("only", ["", "4,"])
    def test_empty_criterion_is_usage_error(self, capsys, only):
        # an empty --only names no criterion; it does not mean "all"
        assert main(["reproduce", "--only", only]) == EXIT_USAGE
        assert "unknown criterion ''" in capsys.readouterr().err

    @pytest.mark.parametrize("only", ["10", "criterion_10", "4,10"])
    def test_only_criterion_10_is_usage_error(self, capsys, only):
        # criterion 10 compares two full runs, so it cannot run alone
        assert main(["reproduce", "--only", only]) == EXIT_USAGE
        assert "criterion_10" in capsys.readouterr().err

    @pytest.mark.parametrize("only", ["9", "criterion_9", "4,9"])
    def test_only_criterion_9_without_its_graphs_is_usage_error(
            self, capsys, only):
        # criterion 9 checks the graphs that criteria 2, 7 and 8 build
        assert main(["reproduce", "--only", only]) == EXIT_USAGE
        assert "criterion_9" in capsys.readouterr().err

    def test_only_runs_in_canonical_order(self, capsys):
        rc, late = run_json(capsys, ["reproduce", "--only", "2,9"])
        rc_early, early = run_json(capsys, ["reproduce", "--only", "9,2"])
        assert rc == rc_early == EXIT_OK
        assert early["results"]["criterion_9"]["graphs_checked"] == 2
        assert early["results"] == late["results"]

    def test_out_file(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["reproduce", "--only", "criterion_4",
                   "--out", str(out)])
        assert rc == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["results"]["criterion_4"]["pass"] is True

    def test_config_echoed(self, capsys):
        rc, rep = run_json(capsys, ["reproduce", "--only", "criterion_4",
                                    "--seed", "7"])
        assert rep["config"]["seed"] == 7

    def test_failed_criterion_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr(rp, "criterion_4", lambda: {"pass": False})
        assert main(["reproduce", "--only", "4"]) == EXIT_CRITERION
        assert "FAILED criteria: criterion_4" in capsys.readouterr().err

    def test_unwritable_out_exit_2(self, capsys, tmp_path):
        out = tmp_path / "missing" / "r.json"
        assert main(["group", "S3", "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write report to {out}: ")
        assert not out.exists()


def readme_commands() -> list[str]:
    """The lines of the README's command-line block, backslash
    continuations joined; comments are left for shlex to drop."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.replace("\\\n", " ").splitlines()
            if line.strip()]


def readme_library_example() -> str:
    """The README's fenced Python block under "Library example"."""
    section = README.read_text().split("## Library example", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def shell_words(line: str) -> list[str]:
    """The words of a command line, with shell operators split off."""
    lexer = shlex.shlex(line, posix=True, punctuation_chars=True)
    lexer.whitespace_split = True
    return list(lexer)


# the reproduce lines run in the session fixture and TestReproduceCommand
README_RUNS = [argv for argv in (shlex.split(line, comments=True)
                                for line in readme_commands())
               if argv[1] != "reproduce"]


class TestReadmeCommands:
    def test_every_line_is_one_plain_command(self):
        for line in readme_commands():
            assert shell_words(line) == shlex.split(line, comments=True)
            assert shell_words(line)[0] == "ccakit"

    @pytest.mark.parametrize("argv", README_RUNS,
                             ids=[" ".join(a[1:4]) for a in README_RUNS])
    def test_runs(self, capsys, argv):
        assert main(argv[1:]) == EXIT_OK

    def test_library_example_runs(self, capsys):
        exec(readme_library_example(), {})
        assert capsys.readouterr().out == "True 2\n"


def subcommands() -> dict:
    ap = build_parser()
    action = next(a for a in ap._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def args_read(fn) -> set:
    """Attributes of `args` that fn reads, following the cli functions it
    passes args to.  A read inside a report_head call only echoes the
    value into the report's config, so it does not count."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    echoed = {id(node)
              for call in ast.walk(tree)
              if isinstance(call, ast.Call)
              and getattr(call.func, "attr", None) == "report_head"
              for node in ast.walk(call)}
    reads = set()
    for node in ast.walk(tree):
        if id(node) in echoed:
            continue
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "args"):
            reads.add(node.attr)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and any(isinstance(a, ast.Name) and a.id == "args"
                        for a in node.args)):
            reads |= args_read(getattr(cli, node.func.id))
    return reads


class TestFlags:
    @pytest.mark.parametrize("name", sorted(subcommands()))
    def test_every_flag_is_read(self, name):
        parser = subcommands()[name]
        accepted = {a.dest for a in parser._actions if a.dest != "help"}
        assert accepted <= args_read(parser.get_default("fn"))

    @pytest.mark.parametrize("argv", [
        ["group", "S4", "--seed", "3"],
        ["group", "S4", "--timing"],
        ["cca", "S4", "--exhaustive", "--seed", "1"],
        ["triple", "search", "S5", "--subgroup", "point:5", "--budget", "3"],
        ["reproduce", "--only", "4", "--limit-enum", "10"],
        ["reproduce", "--only", "4", "--budget", "5"],
    ], ids=" ".join)
    def test_removed_flag_is_usage_error(self, capsys, argv):
        assert main(argv) == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--budget", "--limit-enum",
                                      "--limit-graph"])
    def test_negative_count_is_usage_error(self, capsys, flag):
        assert main(["cca", "S3", "--exhaustive", flag, "-1"]) == EXIT_USAGE
        assert f"argument {flag}: must be >= 0" in capsys.readouterr().err

    def test_readme_lists_each_commands_flags(self):
        text = README.read_text()
        section = text.split("Flags by command", 1)[1].split("\n\n", 2)[1]
        listed = {}
        for item in re.split(r"^- ", section, flags=re.M)[1:]:
            command = re.match(r"`(\w+)", item).group(1)
            listed[command] = set(re.findall(r"--[\w-]+", item))
        accepted = {
            name: {s for a in parser._actions for s in a.option_strings}
            - {"-h", "--help"}
            for name, parser in subcommands().items()}
        # every command takes --json and --out, listed once above the list
        assert listed == {name: flags - {"--json", "--out"}
                          for name, flags in accepted.items()}
        assert all({"--json", "--out"} <= flags
                   for flags in accepted.values())

    @pytest.mark.parametrize("argv,config", [
        (["group", "S4"], {"enum_limit"}),
        (["cca", "C4", "--set", "(1 2 3 4)"],
         {"budget", "graph_limit", "enum_limit"}),
        (["triple", "search", "S5", "--subgroup", "setwise:4,5"],
         {"graph_limit", "enum_limit"}),
        (["reproduce", "--only", "4"], {"seed", "only"}),
    ], ids=["group", "cca", "triple", "reproduce"])
    def test_config_echoes_the_accepted_settings(self, capsys, argv, config):
        rc, rep = run_json(capsys, argv)
        assert rc == EXIT_OK
        assert set(rep["config"]) == config

    @pytest.mark.parametrize("only", ["4,4", "4,criterion_4"])
    def test_config_echoes_a_repeated_criterion_once(self, capsys, only):
        rc, rep = run_json(capsys, ["reproduce", "--only", only])
        assert rc == EXIT_OK
        assert rep["config"]["only"] == ["criterion_4"]
        assert list(rep["results"]) == ["criterion_4"]


SCHEMA = Path(__file__).resolve().parents[1] / "docs" / "report.schema.json"


class TestReportSchema:
    """Every report matches docs/report.schema.json, and every results
    record its $def, which lists the record's keys and no others."""

    @pytest.mark.parametrize("argv,record", [
        (["group", "A5"], "groupRecord"),
        (["group", "higman:n=5,seed=1"], "groupRecord"),
        (["cca", "C4", "--set", "(1 2 3 4)"], "ccaGraphVerdict"),
        (["cca", "S3", "--set", "(1 2)"], "ccaGraphVerdict"),
        (["cca", "S4", "--exhaustive"], "groupCcaVerdict"),
        (["triple", "validate", "A6", "--T", "(1 2)(3 4 5 6)",
          "--tau", "(3 5)(4 6)", "--S", "(3 5)(4 6),(2 3)(5 6)",
          "--crosscheck"], "tripleRecord"),
        (["triple", "search", "S5", "--subgroup", "setwise:4,5"],
         "tripleRecord"),
        (["triple", "search", "S4", "--subgroup", "point:1"],
         "tripleRecord"),
        (["reproduce", "--only", "4", "--timing"], None),
    ], ids=["group", "group-higman", "cca-set", "cca-set-disconnected",
            "cca-exhaustive", "triple-validate-crosscheck",
            "triple-search-found", "triple-search-not-found", "reproduce"])
    def test_report_matches_schema(self, capsys, argv, record):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(SCHEMA.read_text())
        rc, rep = run_json(capsys, argv)
        assert rc == EXIT_OK
        jsonschema.validate(rep, schema)
        if record is not None:
            jsonschema.validate(rep["results"], {
                "$defs": schema["$defs"], "$ref": f"#/$defs/{record}"})

    def test_a_renamed_key_fails(self, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(SCHEMA.read_text())
        _, rep = run_json(capsys, ["cca", "C4", "--set", "(1 2 3 4)"])
        rep["results"]["stab1_size"] = rep["results"].pop("stab1_order")
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(rep["results"], {
                "$defs": schema["$defs"], "$ref": "#/$defs/ccaGraphVerdict"})
