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

    def test_bad_expression_exit_2(self, capsys):
        assert main(["group", "Z99"]) == EXIT_USAGE

    def test_missing_subcommand_exit_2(self):
        assert main([]) == EXIT_USAGE

    def test_limit_exceeded_exit_3(self):
        assert main(["group", "PSL2(17)", "--limit-enum", "10"]) == EXIT_LIMIT


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

    def test_single_graph(self, capsys):
        rc, rep = run_json(capsys, ["cca", "C4", "--set", "(1 2 3 4)"])
        assert rc == EXIT_OK
        r = rep["results"]
        assert r["is_cca"] is True
        assert r["stab1_order"] == 2

    def test_disconnected_reported(self, capsys):
        rc, rep = run_json(capsys, ["cca", "S3", "--set", "(1 2)"])
        assert rc == EXIT_OK
        assert rep["results"]["connected"] is False

    def test_requires_set_or_exhaustive(self):
        assert main(["cca", "S3"]) == EXIT_USAGE

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

    def test_bad_element_exit_2(self):
        assert main(["triple", "validate", "A6",
                     "--tau", "(1 2"]) == EXIT_USAGE

    def test_bad_subgroup_spec_exit_2(self):
        assert main(["triple", "search", "A6",
                     "--subgroup", "wat:1"]) == EXIT_USAGE

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
LIMIT_PROBES = [
    ["group", "higman:n=10,seed=1", "--limit-enum", "10"],
    ["cca", "S4", "--exhaustive", "--limit-enum", "10"],
    ["cca", "C4", "--set", "(1 2 3 4)", "--limit-enum", "3"],
    ["triple", "search", "S5", "--subgroup", "setwise:4,5",
     "--limit-enum", "13"],
    ["triple", "search", "S5", "--subgroup", "point:5", "--limit-enum", "13"],
    ["triple", "validate", "higman:n=8,seed=1", "--S", "g1,g2,g3,h1,h2,h3",
     "--T", "g4,g5", "--tau", "h1", "--limit-enum", "10"],
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

    def test_unknown_criterion_exit_2(self):
        assert main(["reproduce", "--only", "criterion_99"]) == EXIT_USAGE

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
        (["reproduce", "--only", "4"], {"seed", "budget", "only"}),
    ], ids=["group", "cca", "triple", "reproduce"])
    def test_config_echoes_the_accepted_settings(self, capsys, argv, config):
        rc, rep = run_json(capsys, argv)
        assert rc == EXIT_OK
        assert set(rep["config"]) == config


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
