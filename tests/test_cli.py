"""Command-line interface: JSON envelopes, exit codes, protocols, stability."""

import importlib.util
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from pltlf import WitnessModel, check_model, cli, parse_formula
from pltlf.cli import build_parser, main
from pltlf.syntax import MAX_DEPTH, MAX_NESTING
from test_mining import RENDERED

PHI0 = "P<=0.5[a] & P>=0.6[X b]"
PHI1 = "P>=0.5[a] & P>=0.6[!a]"
THREE_BOUNDS = "P<=0.5[a] & P>=0.6[X b] & P>0.2[F c]"
FOUR_BOUNDS = "P<=0.5[a] & P>=0.6[X b] & P>0.2[F c] & P<0.7[G d]"
GOLDEN_MLT = pathlib.Path(__file__).resolve().parent / "golden_mlt_four_bounds.json"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnvelopes:
    def test_sat(self, capsys):
        code, out, _ = run(capsys, "sat", PHI0)
        assert code == 0
        assert out == (
            '{"command":"sat","status":"sat","payload":{"formula":'
            '"P<=1/2[a] & P>=3/5[X b]","satisfiable":true},"timing_ms":null}\n'
        )

    def test_unsat(self, capsys):
        code, out, _ = run(capsys, "sat", PHI1)
        assert code == 1
        assert out == (
            '{"command":"sat","status":"unsat","payload":{"formula":'
            '"P>=1/2[a] & P>=3/5[!a]","satisfiable":false},"timing_ms":null}\n'
        )

    def test_most_likely_traces(self, capsys):
        code, out, _ = run(capsys, "mlt", PHI0, "--count", "4")
        assert code == 0
        assert out == (
            '{"command":"mlt","status":"sat","payload":{"formula":'
            '"P<=1/2[a] & P>=3/5[X b]","probability":"1","probability_approx":1.0,'
            '"traces":["-;-;a,b","-;-;b","-;b;a,b","-;b;b"]},"timing_ms":null}\n'
        )

    def test_trace_probability(self, capsys):
        code, out, _ = run(capsys, "prob", PHI0, "--trace=-;a;b")
        assert code == 0
        assert out == (
            '{"command":"prob","status":"ok","payload":{"formula":'
            '"P<=1/2[a] & P>=3/5[X b]","trace":"-;a;b","probability":"1/2",'
            '"probability_approx":0.5},"timing_ms":null}\n'
        )

    def test_prefix_query(self, capsys):
        code, out, _ = run(capsys, "prefix", PHI0, "--prefix=-;a", "--count", "3")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["probability"] == "1/2"
        assert payload["extensions"] == ["-;a;a,b", "-;a;b", "-;a;a,b;-"]

    def test_four_bound_mlt_matches_the_golden_payload(self, capsys):
        # the default listing (--count 5 --max-len 8), byte for byte
        code, out, _ = run(capsys, "mlt", FOUR_BOUNDS)
        assert code == 0
        assert out == GOLDEN_MLT.read_text()
        traces = json.loads(out)["payload"]["traces"]
        assert (traces[0], traces[-1]) == ("-;-;a,b,c", "-;b;a,b,c")

    def test_unsatisfiable_mlt(self, capsys):
        code, out, _ = run(capsys, "mlt", PHI1)
        assert code == 1
        payload = json.loads(out)["payload"]
        assert payload["probability"] == "0"
        assert payload["traces"] == []


class TestModel:
    def test_witness_round_trips_through_json(self, capsys):
        code, out, _ = run(capsys, "model", PHI0)
        assert code == 0
        envelope = json.loads(out)
        assert envelope["status"] == "sat"
        model = WitnessModel.from_dict(envelope["payload"]["model"])
        assert check_model(model, parse_formula(PHI0))

    @pytest.mark.parametrize("text, model", [
        (PHI0, {
            "valuation": [], "probability": None, "children": [
                {"valuation": [], "probability": "1", "children": [
                    {"valuation": ["a", "b"], "probability": "1", "children": []},
                ]},
            ],
        }),
        (THREE_BOUNDS, {
            "valuation": [], "probability": None, "children": [
                {"valuation": [], "probability": "0", "children": [
                    {"valuation": [], "probability": "0", "children": []},
                    {"valuation": ["a", "c"], "probability": "1", "children": []},
                ]},
                {"valuation": ["c"], "probability": "1", "children": [
                    {"valuation": ["b"], "probability": "0", "children": []},
                    {"valuation": ["a", "b", "c"], "probability": "1", "children": []},
                ]},
            ],
        }),
    ])
    def test_witness_payload_is_pinned(self, capsys, text, model):
        # the witness is the solver's vertex, so a change of pivot order
        # shows here even when the new witness is valid
        code, out, _ = run(capsys, "model", text)
        assert code == 0
        assert json.loads(out)["payload"]["model"] == model

    def test_unsat_formula_has_no_model(self, capsys):
        code, out, _ = run(capsys, "model", PHI1)
        assert code == 1
        assert json.loads(out)["status"] == "unsat"


class TestScenarioTable:
    def test_full_envelope(self, capsys, data_dir):
        path = str(data_dir / "psi1.p0")
        code, out, _ = run(capsys, "p0-scenarios", path)
        assert code == 0
        envelope = json.loads(out)
        payload = envelope["payload"]
        assert payload["constraints"] == ["P<=1/2 : F a", "P<=3/5 : G(a -> F b)"]
        assert payload["system"] == [
            "x00 = 0",
            "x01 >= 0",
            "x10 >= 0",
            "x11 >= 0",
            "x00 + x01 + x10 + x11 = 1",
            "x10 + x11 <= 1/2",
            "x01 + x11 <= 3/5",
        ]
        assert [s["max"] for s in payload["scenarios"]] == ["0", "3/5", "1/2", "1/10"]
        assert [s["satisfiable"] for s in payload["scenarios"]] == [
            False, True, True, True,
        ]
        assert payload["most_likely"] == 1

    def test_most_likely_scenario_of_phi1(self, capsys, data_dir):
        code, out, _ = run(capsys, "p0-scenarios", str(data_dir / "phi1.p0"))
        assert code == 0
        payload = json.loads(out)["payload"]
        assert [s["max"] for s in payload["scenarios"]] == ["0", "7/10", "4/5", "1/2"]
        assert payload["most_likely"] == 2

    def test_strict_bounds(self, capsys, tmp_path):
        path = tmp_path / "strict.p0"
        path.write_text("P>0.3 : a\nP<0.6 : X b\n")
        code, out, _ = run(capsys, "p0-scenarios", str(path))
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["system"][-2:] == ["x10 + x11 > 3/10", "x01 + x11 < 3/5"]
        assert [s["max"] for s in payload["scenarios"]] == ["7/10", "3/5", "1", "3/5"]
        assert payload["most_likely"] == 2

    def test_byte_order_mark_is_skipped(self, capsys, tmp_path):
        # spreadsheet exports start a file with one
        path = tmp_path / "bom.p0"
        path.write_text("P>=0.5 : F a\n", encoding="utf-8-sig")
        code, out, _ = run(capsys, "p0-sat", str(path))
        assert code == 0
        assert json.loads(out)["status"] == "sat"

    def test_infeasible_set(self, capsys, tmp_path):
        path = tmp_path / "bad.p0"
        path.write_text("P>=0.5 : a\nP>=0.6 : !a\n")
        code, out, _ = run(capsys, "p0-sat", str(path))
        assert code == 1
        assert json.loads(out)["status"] == "unsat"
        code, out, _ = run(capsys, "p0-scenarios", str(path))
        assert code == 1
        assert json.loads(out)["status"] == "unsat"
        assert "most_likely" not in json.loads(out)["payload"]


class TestMonitorProtocol:
    def feed(self, capsys, monkeypatch, text, *argv):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        return run(capsys, *argv)

    def test_stream_of_records(self, capsys, monkeypatch, data_dir):
        code, out, _ = self.feed(
            capsys, monkeypatch, "-\na\n", "p0-monitor", str(data_dir / "psi1.p0")
        )
        assert code == 0
        assert out == (
            '{"step":1,"scenario_index":1,"scenario_description":'
            '"!F a, G(a -> F b)","probability":"3/5","violated":false}\n'
            '{"step":2,"scenario_index":2,"scenario_description":'
            '"F a, !G(a -> F b)","probability":"1/2","violated":false}\n'
        )

    def test_violation_exits_nonzero(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "quiet.p0"
        path.write_text("P>=1 : G !a\n")
        code, out, _ = self.feed(capsys, monkeypatch, "a\n", "p0-monitor", str(path))
        assert code == 1
        assert out == (
            '{"step":1,"scenario_index":-1,"scenario_description":"none",'
            '"probability":"0","violated":true}\n'
        )

    def test_blank_lines_are_skipped(self, capsys, monkeypatch, data_dir):
        code, out, _ = self.feed(
            capsys, monkeypatch, "\n-\n\n", "p0-monitor", str(data_dir / "psi1.p0")
        )
        assert code == 0
        assert out.count("\n") == 1

    def test_unsatisfiable_file_is_a_usage_error(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "bad.p0"
        path.write_text("P>=0.5 : a\nP>=0.6 : !a\n")
        code, _, err = self.feed(capsys, monkeypatch, "", "p0-monitor", str(path))
        assert code == 2
        assert "unsatisfiable" in err

    def test_multi_position_lines_are_rejected(self, capsys, monkeypatch, data_dir):
        code, _, err = self.feed(
            capsys, monkeypatch, "a;b\n", "p0-monitor", str(data_dir / "psi1.p0")
        )
        assert code == 2
        assert "one valuation per line" in err

    def test_malformed_line_after_repeated_lines_keeps_the_records(
        self, capsys, monkeypatch, data_dir
    ):
        code, out, err = self.feed(
            capsys, monkeypatch, "-\na\n\n" * 40 + "a,,b\n-\n",
            "p0-monitor", str(data_dir / "psi1.p0"),
        )
        assert code == 2
        assert err == "error: invalid variable name '' in trace step 'a,,b'\n"
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["step"] for r in records] == list(range(1, 81))
        assert records[-1]["scenario_index"] == 2

    def test_multi_position_line_is_rejected_after_its_first_step(
        self, capsys, monkeypatch, data_dir
    ):
        code, out, err = self.feed(
            capsys, monkeypatch, "a\na\na;b\n", "p0-monitor", str(data_dir / "psi1.p0")
        )
        assert code == 2
        assert out.count("\n") == 2
        assert err == "error: monitor input must be one valuation per line, got 'a;b'\n"

    def test_whitespace_variants_give_identical_records(
        self, capsys, monkeypatch, data_dir
    ):
        path = str(data_dir / "psi1.p0")
        _, plain, _ = self.feed(capsys, monkeypatch, "-\na\na,b\n", "p0-monitor", path)
        code, padded, _ = self.feed(
            capsys, monkeypatch, " - \n\ta\n a , b \n", "p0-monitor", path
        )
        assert code == 0
        assert padded == plain

    def test_stream_that_kills_every_scenario_exits_one(
        self, capsys, monkeypatch, tmp_path
    ):
        path = tmp_path / "quiet.p0"
        path.write_text("P>=1 : G !a\n")
        code, out, _ = self.feed(
            capsys, monkeypatch, "-\n-\na\n-\n-\n", "p0-monitor", str(path)
        )
        assert code == 1
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["violated"] for r in records] == [False, False, True, True, True]


class TestMine:
    def test_envelope_and_rendered_constraints(self, capsys, data_dir):
        code, out, _ = run(
            capsys, "mine", "--log", str(data_dir / "sample_log.csv"),
            "--min-support", "0.8",
        )
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["cases"] == 10
        assert payload["min_support"] == "4/5"
        assert [(m["template"], m["formula"], m["support"]) for m in payload["mined"]] == [
            ("existence", "F a", "1"),
            ("existence", "F b", "4/5"),
            ("precedence", "!b U a | G !b", "1"),
            ("response", "G(a -> F b)", "4/5"),
        ]
        assert payload["p0"] == RENDERED

    def test_out_file(self, capsys, data_dir, tmp_path):
        target = tmp_path / "mined.p0"
        code, _, _ = run(
            capsys, "mine", "--log", str(data_dir / "sample_log.csv"),
            "--min-support", "4/5", "--out", str(target),
        )
        assert code == 0
        assert target.read_text() == RENDERED

    def test_log_with_a_byte_order_mark(self, capsys, data_dir, tmp_path):
        log = tmp_path / "bom.csv"
        log.write_text((data_dir / "sample_log.csv").read_text(), encoding="utf-8-sig")
        code, out, _ = run(capsys, "mine", "--log", str(log), "--min-support", "0.8")
        assert code == 0
        assert json.loads(out)["payload"]["p0"] == RENDERED

    def test_template_filter(self, capsys, data_dir):
        code, out, _ = run(
            capsys, "mine", "--log", str(data_dir / "sample_log.csv"),
            "--min-support", "0.8", "--templates", "existence",
        )
        assert code == 0
        mined = json.loads(out)["payload"]["mined"]
        assert [m["template"] for m in mined] == ["existence", "existence"]

    def test_unknown_template(self, capsys, data_dir):
        code, _, err = run(
            capsys, "mine", "--log", str(data_dir / "sample_log.csv"),
            "--min-support", "0.8", "--templates", "frobnicate",
        )
        assert code == 2
        assert "unknown templates: frobnicate" in err

    @pytest.mark.parametrize(
        "text, error",
        [
            ("case_id,activity,order\nc1,a,1\n\nc1,b,2\nc2,,1\n", ":5: empty case_id or activity"),
            ("case_id,activity,order\nc1,a,\u0661\nc1,b,\u0662\n",
             ":2: order value '\u0661' is not an integer"),
        ],
    )
    def test_malformed_log_exits_2_naming_its_line(self, capsys, tmp_path, text, error):
        log = tmp_path / "log.csv"
        log.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "mine", "--log", str(log), "--min-support", "0.8")
        assert (code, out, err) == (2, "", f"error: {log}{error}\n")

    @pytest.mark.parametrize("names", [",", " , ,"])
    def test_template_list_naming_none(self, capsys, data_dir, names):
        code, out, err = run(
            capsys, "mine", "--log", str(data_dir / "sample_log.csv"),
            "--min-support", "0.8", "--templates", names,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: --templates names no template")


class TestErrors:
    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "sat", "P<=0.5[")
        assert code == 2
        assert err.startswith("parse error:")

    def test_unknown_proposition_in_trace(self, capsys):
        code, _, err = run(capsys, "prob", PHI0, "--trace=c")
        assert code == 2
        assert err.startswith("error:")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "p0-sat", "no_such_file.p0")
        assert code == 2
        assert err.startswith("error:")

    def test_out_of_range_support(self, capsys, data_dir):
        code, _, err = run(
            capsys, "mine", "--log", str(data_dir / "sample_log.csv"),
            "--min-support", "1.5",
        )
        assert code == 2
        assert "out of range" in err

    def test_zero_denominator_support_is_an_input_error(self, capsys, data_dir):
        code, out, err = run(
            capsys, "mine", "--log", str(data_dir / "sample_log.csv"),
            "--min-support", "1/0",
        )
        assert code == 2
        assert out == ""
        assert err == "error: --min-support: zero denominator in 1/0\n"

    @pytest.mark.parametrize("number", ["1e-1", "0_8", " 0.8", "5.", "-0.5", "1.5/2"])
    def test_malformed_support_is_an_input_error(self, capsys, data_dir, number):
        code, out, err = run(
            capsys, "mine", "--log", str(data_dir / "sample_log.csv"), f"--min-support={number}",
        )
        assert code == 2
        assert out == ""
        assert err == f"error: --min-support: malformed number {number!r}\n"

    def test_non_ascii_support_is_an_input_error(self, capsys, data_dir):
        code, out, err = run(
            capsys, "mine", "--log", str(data_dir / "sample_log.csv"),
            "--min-support", "\u0660.\u0668",
        )
        assert code == 2
        assert out == ""
        assert err == "error: --min-support: non-ASCII character in number '\u0660.\u0668'\n"

    def test_zero_denominator_bound_in_a_set_file(self, capsys, tmp_path):
        path = tmp_path / "set.p0"
        path.write_text("P<=1/0 : F a\n")
        code, out, err = run(capsys, "p0-sat", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: line 1: 1:4: zero denominator in 1/0\n"

    @pytest.mark.parametrize("formula", [PHI0, PHI1])
    @pytest.mark.parametrize(
        "argv, option",
        [
            (("mlt", "--count", "0"), "--count"),
            (("mlt", "--max-len", "-1"), "--max-len"),
            (("prefix", "--prefix=a", "--count", "-3"), "--count"),
            (("prefix", "--prefix=a", "--max-len", "0"), "--max-len"),
            (("mlt", "--count", "\u0663"), "--count"),
        ],
    )
    def test_nonpositive_bounds_exit_two_before_any_compile(
        self, capsys, monkeypatch, formula, argv, option
    ):
        def never(*args):
            raise AssertionError("compiled before the arguments were checked")

        monkeypatch.setattr(cli, "parse_formula", never)
        code, out, err = run(capsys, argv[0], formula, *argv[1:])
        assert code == 2
        assert out == ""
        assert f"argument {option}: expected an integer of at least 1" in err

    def test_internal_error_exits_two_without_traceback(self, capsys, monkeypatch):
        def broken(formula):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "is_satisfiable", broken)
        code, out, err = run(capsys, "sat", "a")
        assert code == 2
        assert out == ""
        assert err == "error: RecursionError: maximum recursion depth exceeded\n"

    @pytest.mark.parametrize("depth", [101, 600, 2000])
    def test_deep_formula_is_a_parse_error(self, capsys, depth):
        code, out, err = run(capsys, "sat", "X " * depth + "a")
        assert code == 2
        assert out == ""
        assert err.startswith(
            f"parse error: 1:{2 * MAX_NESTING + 3}: formula nested deeper than"
            f" {MAX_NESTING} levels"
        )

    @pytest.mark.parametrize("depth", [101, 2000])
    def test_deep_constraint_line_is_an_input_error(self, capsys, tmp_path, depth):
        path = tmp_path / "deep.p0"
        path.write_text("P<=0.5 : F a\nP>=0.2 : " + "!" * depth + "a\n")
        code, out, err = run(capsys, "p0-sat", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(
            f"error: line 2: 1:{MAX_NESTING + 11}: formula nested deeper than"
            f" {MAX_NESTING} levels"
        )

    def test_parsed_formula_with_a_too_deep_normal_form_is_an_input_error(self, capsys):
        # 100 levels parse, but each Or normalises to three tree levels
        text = "a & (b | " * MAX_NESTING + "c" + ")" * MAX_NESTING
        code, out, err = run(capsys, "sat", text)
        assert code == 2
        assert out == ""
        assert err == f"error: formula tree deeper than {MAX_DEPTH} levels\n"

    def test_deepest_accepted_nesting_answers(self, capsys):
        code, out, _ = run(capsys, "sat", "(" * MAX_NESTING + "a" + ")" * MAX_NESTING)
        assert code == 0
        assert json.loads(out)["payload"] == {"formula": "a", "satisfiable": True}

    def test_usage_errors(self, capsys):
        assert run(capsys, )[0] == 2
        assert run(capsys, "sat")[0] == 2
        assert run(capsys, "--help")[0] == 0


class TestOutputStability:
    def test_identical_bytes_across_runs(self, capsys, data_dir):
        path = str(data_dir / "psi1.p0")
        _, first, _ = run(capsys, "p0-scenarios", path)
        _, second, _ = run(capsys, "p0-scenarios", path)
        assert first == second

    def test_timings_flag_fills_the_field(self, capsys):
        _, out, _ = run(capsys, "--timings", "sat", PHI0)
        assert isinstance(json.loads(out)["timing_ms"], float)

    def test_pretty_flag_only_changes_layout(self, capsys):
        _, compact, _ = run(capsys, "sat", PHI0)
        _, pretty, _ = run(capsys, "--pretty", "sat", PHI0)
        assert pretty != compact
        assert json.loads(pretty) == json.loads(compact)


def test_one_argument_parser_per_process(capsys, monkeypatch):
    built = []

    def counting_build():
        built.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._parser.cache_clear()
    assert run(capsys, "sat", PHI0)[0] == 0
    assert run(capsys, "sat", PHI1)[0] == 1
    assert len(built) == 1


def test_module_entry_point(data_dir):
    proc = subprocess.run(
        [sys.executable, "-m", "pltlf", "p0-sat", str(data_dir / "phi1.p0")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "sat"


def test_walkthrough_runs():
    # the tour imports the library's public entry points end to end
    root = pathlib.Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "walkthrough.py")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert "mined set satisfiable: True" in proc.stdout


# Totals that scripts/cli_digest.py prints when every listed command
# answers byte for byte as pinned: over the commands that answer, then
# with the malformed constraint-set files, then with the trace and prefix
# edge cases too; a change to CLI output changes them.
CLI_DIGEST_ANSWERS = (
    "ff4ce860979dc56393c0ce417dc6b98f0a9a38d6a1081942e5b5cc8d79ba8ea3"
    "  total over 169 commands"
)
CLI_DIGEST_MALFORMED = (
    "cde33219b995832a68db596a4ffff175afbc2833fb660939d6738059578f24bd"
    "  total over 175 commands"
)
CLI_DIGEST_EDGES = (
    "99bfecad1677e90a9078b6b1904ef6984608dac3cf89cc72aca336a68635c24e"
    "  total over 186 commands"
)
CLI_DIGEST_TOTAL = (
    "b606123e4306135dd5ef0c0828c2b2137d4918c93d32ebc46d1401d2bf813d93"
    "  total over 190 commands"
)


def test_cli_digest_runs(tmp_path):
    # the byte-identity check runs every listed command and prints a total
    root = pathlib.Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "cli_digest.py")],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1].endswith(f"total over {len(lines) - 4} commands")
    assert any(line.endswith("p0-monitor data/psi1.p0") for line in lines)
    assert lines[-25] == CLI_DIGEST_ANSWERS
    assert lines[-18] == CLI_DIGEST_MALFORMED
    assert lines[-6] == CLI_DIGEST_EDGES
    assert lines[-1] == CLI_DIGEST_TOTAL


def test_src_lines_totals_the_modules():
    root = pathlib.Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "src_lines.py")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows, total = [line.split() for line in proc.stdout.splitlines()]
    assert header == ["module", "lines", "code"]
    modules = sorted((root / "src" / "pltlf").glob("*.py"))
    assert [name for name, _, _ in rows] == [p.name for p in modules]
    lines = [int(n) for _, n, _ in rows]
    code = [int(c) for _, _, c in rows]
    assert lines == [len(p.read_text().splitlines()) for p in modules]
    assert all(0 < c < n for n, c in zip(lines, code))
    assert total == ["total", str(sum(lines)), str(sum(code))]


def test_compile_ladder_smallest_rung():
    # one JSON line with each rung's sizes, LP counts, every layer's
    # seconds and the peak memory so far, on the smallest tree rung and
    # the smallest flat rung: the
    # pair-free tree rung builds no program, and the flat rung builds its
    # mass system's one program and runs a phase 2 for each of the 27 live
    # scenarios no mixer settles
    root = pathlib.Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "compile_ladder.py"),
         "--only", "X^10 a", "--only", "flat n=9"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    result = json.loads(line)
    assert list(result) == ["X^10 a", "flat n=9"]
    rung = result["X^10 a"]
    assert list(rung) == [
        "atoms", "rows", "programs", "phase2s", "construct", "good", "weighted", "behaviour",
        "mlt_acceptor", "enumerate_mlts", "trace", "prefix", "peak_mib",
    ]
    # one row per next mask, each entered by a and by the empty letter
    assert (rung["atoms"], rung["rows"], rung["programs"], rung["phase2s"]) == (2048, 1024, 0, 0)
    assert all(rung[layer] >= 0 for layer in rung)
    rung = result["flat n=9"]
    assert list(rung) == [
        "scenarios", "live", "programs", "phase2s", "build_lphi", "describe", "feasible", "maxima",
        "rows_text", "peak_mib",
    ]
    assert (rung["scenarios"], rung["live"], rung["programs"], rung["phase2s"]) == (512, 132, 1, 27)
    assert all(rung[layer] >= 0 for layer in rung)
    assert 0 < result["X^10 a"]["peak_mib"] <= rung["peak_mib"]


def test_ab_summary_of_two_runs():
    root = pathlib.Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("ab", root / "scripts" / "ab.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)

    def output(setup, total, rss, wall, failed, correct):
        detail = {"workload": "w", "wall_total_s": wall}
        metrics = {"setup_s": setup, "total_s": total, "peak_rss_mib": rss}
        result = {
            "correct": correct,
            "attempted": 4,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()},
        }
        return f"progress\n{json.dumps(detail)}\n{json.dumps(result)}\n"

    rows = [ab.record(output(0.1, 0.2, 50.0, 0.4, 0, True)),
            ab.record(output(0.3, 0.6, 52.0, 0.8, 1, False))]
    assert ab.summary(rows) == [
        "setup_s           0.2000  [0.1500, 0.2500]",
        "total_s           0.4000  [0.3000, 0.5000]",
        "peak_rss_mib     51.0000  [50.5000, 51.5000]",
        "wall_total_s      0.6000  [0.5000, 0.7000]",
        "failed ops 1, every run correct: NO",
    ]
    # the same seeds on the change side: lower in the first pair only
    change = [ab.record(output(0.1, 0.1, 50.0, 0.3, 0, True)),
              ab.record(output(0.3, 0.7, 52.0, 0.9, 0, True))]
    line = json.dumps(ab.comparison(rows, change))
    assert json.loads(line) == {
        "parent": {
            "setup_s": {"median": 0.2, "q1": 0.15, "q3": 0.25},
            "total_s": {"median": 0.4, "q1": 0.3, "q3": 0.5},
            "peak_rss_mib": {"median": 51.0, "q1": 50.5, "q3": 51.5},
            "wall_total_s": {"median": 0.6, "q1": 0.5, "q3": 0.7},
        },
        "change": {
            "setup_s": {"median": 0.2, "q1": 0.15, "q3": 0.25},
            "total_s": {"median": 0.4, "q1": 0.25, "q3": 0.55},
            "peak_rss_mib": {"median": 51.0, "q1": 50.5, "q3": 51.5},
            "wall_total_s": {"median": 0.6, "q1": 0.45, "q3": 0.75},
        },
        "change_lower_total_s": 1,
    }


ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_bench_trajectory_file(path):
    # each committed A/B line covers every workload and end-to-end metric
    # the benchmark declares, for both sides, with a pair count in range
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bench = json.loads(path.read_text())
    first, last = bench["seeds"]
    pairs = last - first + 1
    assert pairs > 0
    workloads = bench["workloads"]
    assert set(workloads) >= {w["name"] for w in spec["workloads"]}
    for name in (w["name"] for w in spec["workloads"]):
        entry = workloads[name]
        for side in ("parent", "change"):
            for metric in (m["name"] for m in spec["end_to_end"]):
                q = entry[side][metric]
                assert q["q1"] <= q["median"] <= q["q3"], (name, side, metric)
        lower = entry["change_lower_total_s"]
        assert isinstance(lower, int) and 0 <= lower <= pairs, (name, lower)


def test_bench_trajectory_is_committed():
    assert sorted(ROOT.glob("BENCH_*.json"))
