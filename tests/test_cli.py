"""Report serialization and the command-line interface."""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rootsplit
from rootsplit import catalog, cli, rootcore
from rootsplit.pipeline import classify_all, classify_pair
from rootsplit.report import emit
from test_golden import GOLDEN

CLI = [sys.executable, "-m", "rootsplit.cli"]
# the child imports the same rootsplit as the tests, installed or not
PACKAGE_ROOT = str(Path(rootsplit.__file__).resolve().parents[1])
CHILD_PATH = os.pathsep.join(
    p for p in (PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p
)


BAD_ROOTS = {
    "scalar": "5", "flat_list": "[1]", "zero_denominator": '[["1/0"]]',
    "ragged": "[[1,0],[1]]", "string": '"12"', "string_rows": '["12","21"]',
    "object": '{"1": 1}',
}
BAD_BATCH = {
    "series-Z": ["--max-rank", "3", "--series", "Z"],
    "series-BC": ["--max-rank", "3", "--series", "B", "BC"],
    "rank-0": ["--max-rank", "0"],
    "rank-negative": ["--max-rank", "-1"],
    "series-empty": ["--max-rank", "2", "--series"],
}
IGNORED_ARGUMENTS = {
    "classify-pair-with-batch-flags":
        ["classify", "B3", "torus", "--include-products", "--max-rank", "9"],
    "validate-label-and-roots": ["validate", "B3", "--roots", '[["1"],["-1"]]'],
}
OUTSIDE_H = {
    "B3-short": ("B3", "[[1,0]]"),
    "B3-long": ("B3", "[[1,0,0,0]]"),
    "B3-half": ("B3", '[["1/2",0,0]]'),
    "B3-off-key-bound": ("B3", "[[100,0,0]]"),
    # on A1+A1's scale (1,-1) has the lattice key of (0,0,1,-1)
    "A1+A1-short": ("A1+A1", "[[1,-1],[-1,1]]"),
}


def run(*args, text=True, **kw):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=text,
        env={**os.environ, "PYTHONPATH": CHILD_PATH}, **kw
    )


class TestEmit:
    def test_json_pair(self):
        data, code = emit(classify_pair("A2", "wolf"), "json")
        assert code == 0
        doc = json.loads(data)
        assert doc["schema_version"] == 1
        assert doc["verdict"] == "wolf_space"
        # Rationals serialize exactly, as strings.
        beta = doc["certificates"][0]["beta"]
        assert all(isinstance(x, str) for x in beta)

    def test_json_batch(self):
        data, code = emit(classify_all(2), "json")
        doc = json.loads(data)
        assert code == 0
        assert len(doc["pairs"]) > 0
        assert "elapsed_seconds" not in json.dumps(doc["pairs"])

    def test_csv_row_count(self):
        rep = classify_all(2)
        data, _ = emit(rep, "csv")
        rows = [r for r in data.decode().splitlines() if r.strip()]
        assert len(rows) == len(rep.pairs)

    def test_table_contains_labels(self):
        rep = classify_all(2)
        data, _ = emit(rep, "table")
        text = data.decode()
        assert "G2" in text and "wolf_space" in text

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit(classify_all(2), "xml")

    @pytest.mark.parametrize("fmt", ["json", "table", "csv"])
    def test_one_case_per_certificate(self, fmt):
        rep = classify_pair("A1+A1", "torus")
        assert len(rep.certificates) == 2
        assert emit(rep, fmt)[1] == 0
        assert emit(rep._replace(cases=rep.cases[:1]), fmt)[1] == 2

    def test_bytes_deterministic(self):
        a, _ = emit(classify_all(2), "json")
        b, _ = emit(classify_all(2), "json")
        assert a == b


class TestCli:
    def test_build(self):
        r = run("build", "B2")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert len(doc["roots"]) == 8

    def test_validate_ok(self):
        r = run("validate", "B3")
        assert r.returncode == 0

    def test_validate_label_checks_axioms_once(self, monkeypatch, tmp_path):
        # Building a catalog label checks its axioms; validate reports that
        # check and runs no second one on a rational copy of the roots.
        calls = []
        hold = rootcore._axioms_hold

        def counting(system):
            calls.append(len(system.ints))
            return hold(system)

        monkeypatch.setattr(rootcore, "_axioms_hold", counting)
        catalog.build.cache_clear()
        out = tmp_path / "out.json"
        assert cli.main(["validate", "E8", "--output", str(out)]) == 0
        assert calls == [240]
        assert json.loads(out.read_text()) == {"valid": True, "violations": []}

    def test_validate_bad_roots(self):
        # An invalid candidate is still a successful validation run:
        # exit 0, violations in the body.
        r = run("validate", "--roots", '[["1"],["-1"],["2"],["-2"]]')
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["valid"] is False
        assert doc["violations"]

    @pytest.mark.parametrize(
        "args",
        [*(("--roots", roots) for roots in BAD_ROOTS.values()), ()],
        ids=[*BAD_ROOTS, "no_input"],
    )
    def test_validate_bad_input_exits_one(self, args):
        r = run("validate", *args)
        assert r.returncode == 1
        assert r.stderr.splitlines()[-1].startswith("error: ")
        assert "Traceback" not in r.stderr

    def test_subsystems(self):
        r = run("subsystems", "G2")
        assert r.returncode == 0
        assert len(json.loads(r.stdout)["subsystems"]) == 6

    def test_weights(self):
        r = run("weights", "B3", "A2#0")
        doc = json.loads(r.stdout)
        assert r.returncode == 0
        assert len(doc["weights"]) == 12

    def test_split(self):
        r = run("split", "B3", "A2#0")
        assert r.returncode == 0
        assert len(json.loads(r.stdout)["certificates"]) == 1

    def test_wolf(self):
        r = run("wolf", "B3")
        assert r.returncode == 0
        assert json.loads(r.stdout)["certificate"]["n"] == 3

    def test_wolf_a1_exits_one(self):
        # the Wolf subsystem of A1 is all of A1, so W is empty
        r = run("wolf", "A1")
        assert r.returncode == 1 and r.stdout == ""
        assert r.stderr.splitlines()[-1] == "error: the weight set is empty (g = h)"

    @pytest.mark.parametrize("args", [("classify", "A1+A1", "wolf"), ("wolf", "A1+A2")])
    def test_wolf_of_a_reducible_g_exits_one(self, args):
        # theta, and so the Wolf subsystem, exists only on an irreducible g
        r = run(*args)
        assert r.returncode == 1 and r.stdout == ""
        assert r.stderr == (
            f"error: theta, and so the Wolf subsystem, needs an irreducible g, not {args[1]}\n"
        )

    def test_classify_pair(self):
        r = run("classify", "G2", "torus", "--format", "json")
        assert r.returncode == 0
        assert json.loads(r.stdout)["verdict"] == "no_splitting"

    def test_classify_batch_csv(self):
        r = run("classify", "--max-rank", "2", "--format", "csv")
        assert r.returncode == 0
        doc = run("classify", "--max-rank", "2", "--format", "json")
        pairs = json.loads(doc.stdout)["pairs"]
        rows = [x for x in r.stdout.splitlines() if x.strip()]
        assert len(rows) == len(pairs)

    def test_stdout_byte_identical_across_runs(self):
        a = run("classify", "--max-rank", "2", "--format", "json")
        b = run("classify", "--max-rank", "2", "--format", "json")
        assert a.stdout == b.stdout

    def test_timing_goes_to_stderr(self):
        r = run("classify", "--max-rank", "2", "--format", "json")
        assert "elapsed" in r.stderr
        json.loads(r.stdout)  # stdout stays pure JSON

    def test_output_file(self, tmp_path):
        # classify and the JSON commands write through the same helper
        for args in (("classify", "A2", "wolf"), ("wolf", "B3")):
            out = tmp_path / f"{args[0]}.json"
            r = run(*args, "--output", str(out))
            assert r.returncode == 0 and r.stdout == ""
            assert out.read_bytes() == run(*args, text=False).stdout

    def test_unwritable_output_exits_one(self, tmp_path):
        # It once ended in a FileNotFoundError traceback.
        out = tmp_path / "missing" / "x.json"
        r = run("classify", "A2", "wolf", "--output", str(out))
        assert r.returncode == 1 and r.stdout == "" and not out.exists()
        assert r.stderr == f"error: cannot write {out}: No such file or directory\n"

    def test_bad_label_exits_one(self):
        assert run("build", "Z9").returncode == 1

    def test_bad_subcommand_exits_one(self):
        r = run("frobnicate")
        assert r.returncode == 1
        assert r.stderr.splitlines()[-1].startswith(
            "error: argument command: invalid choice: 'frobnicate'"
        )

    @pytest.mark.parametrize("args", BAD_BATCH.values(), ids=BAD_BATCH)
    def test_bad_classify_batch_input_exits_one(self, args):
        # Each once printed '"pairs": []' and exited 0.
        r = run("classify", *args)
        assert r.returncode == 1 and r.stdout == ""
        assert r.stderr.startswith("error: ")

    @pytest.mark.parametrize("args", IGNORED_ARGUMENTS.values(), ids=IGNORED_ARGUMENTS)
    def test_ignored_arguments_exit_one(self, args):
        # Each once exited 0 and silently dropped part of its command line.
        r = run(*args)
        assert r.returncode == 1 and r.stdout == ""
        assert r.stderr.startswith("error: ")

    def test_lowercase_series_accepted(self):
        r = run("classify", "--max-rank", "2", "--series", "b", "--format", "csv")
        assert r.returncode == 0 and "B2," in r.stdout

    def test_label_with_a_non_ascii_digit_exits_one(self):
        # '²' passes str.isdigit but not int(), which once gave the error.
        r = run("build", "A²")
        assert r.returncode == 1 and r.stdout == ""
        assert r.stderr == "error: cannot parse Cartan label 'A²'\n"

    def test_bad_h_spec_exits_one(self):
        assert run("classify", "B3", "A2#9").returncode == 1

    def test_empty_h_spec_exits_one(self):
        # An empty h (say, an unset shell variable) once read as the torus.
        r = run("classify", "B3", "")
        assert r.returncode == 1 and r.stdout == ""
        assert r.stderr.startswith("error: ")

    @pytest.mark.parametrize("g, h", OUTSIDE_H.values(), ids=OUTSIDE_H)
    def test_json_h_outside_the_parent_exits_one(self, g, h):
        for command in ("weights", "classify"):
            r = run(command, g, h)
            assert r.returncode == 1 and r.stdout == ""
            assert r.stderr == "error: subset is not contained in the parent root system\n"


COMMANDS = ("build", "validate", "subsystems", "weights", "split", "wolf", "classify")

#: every argv of the CLI and golden tests, and every option of every command
PARITY_ARGV = list(dict.fromkeys(map(tuple, [
    *GOLDEN, *([*argv, "--output", "out.json"] for argv in GOLDEN),
    ["build", "B2"], ["build", "Z9"], ["build", "A1+A1", "-o", "out.json"],
    ["validate", "B3"], ["validate"], ["validate", "--roots", '[["1"],["-1"],["2"],["-2"]]'],
    *(["validate", "--roots", roots] for roots in BAD_ROOTS.values()),
    *IGNORED_ARGUMENTS.values(), ["validate", "G2", "-o", "out.json"],
    ["subsystems", "G2"], ["subsystems", "--no-dedup", "B2", "-o", "out.json"],
    ["weights", "B3", "A2#0"], ["weights", "B3", "--", "[[1,0,0]]"],
    *([command, g, h] for g, h in OUTSIDE_H.values() for command in ("weights", "classify")),
    ["split", "B3", "A2#0"], ["split", "G2", "wolf", "-o", "out.json"],
    ["wolf", "B3"], ["wolf", "A1"], ["wolf", "B3", "--output", "out.json"],
    ["classify", "G2", "torus", "--format", "json"], ["classify", "A2", "wolf"],
    ["classify", "B3", "A2#9"], ["classify", "B3", ""], ["classify", "--", "B3", "torus"],
    *(["classify", "--max-rank", "2", "--format", f] for f in ("json", "table", "csv")),
    *(["classify", *args] for args in BAD_BATCH.values()),
    ["classify", "--max-rank", "2", "--series", "b", "--format", "csv"],
    ["classify", "--max", "3"],
    ["classify", "--series", "B", "C", "--max-rank", "3", "--include-products", "-o", "out.json"],
])))


class TestParser:
    @pytest.mark.parametrize("argv", PARITY_ARGV, ids=" ".join)
    def test_command_parser_matches_whole_parser(self, argv, monkeypatch):
        # main hands the command's handler what the whole tree would parse
        seen = []
        text, _, specs = cli._COMMANDS[argv[0]]
        monkeypatch.setitem(cli._COMMANDS, argv[0], (text, seen.append, specs))
        cli.main(argv)
        whole = vars(cli._full_parser().parse_args(argv))
        assert whole.pop("command") == argv[0]
        assert [vars(args) for args in seen] == [whole]

    def test_one_parser_per_command(self, monkeypatch, tmp_path):
        made = []
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            made.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        assert cli.main(["classify", "A2", "wolf", "--output", str(tmp_path / "out.json")]) == 0
        assert made == ["rootsplit classify"]


def exit_of(argv, capsys):
    """Exit code, stdout and stderr of a main call that argparse ends."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    return (exc.value.code, *capsys.readouterr())


class TestHelpAndUsage:
    @pytest.fixture(autouse=True)
    def _width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal

    def test_help_lists_every_command(self, capsys):
        code, out, err = exit_of(["--help"], capsys)
        assert code == 0 and err == ""
        assert out.startswith("usage: rootsplit [-h]")
        assert "{" + ",".join(COMMANDS) + "} ..." in out
        for name in COMMANDS:
            text = re.escape(cli._COMMANDS[name][0])
            assert re.search(rf"^    {name} +{text}$", out, re.M)

    @pytest.mark.parametrize("name", COMMANDS)
    def test_command_help(self, name, capsys):
        code, out, err = exit_of([name, "--help"], capsys)
        assert code == 0 and err == ""
        assert out.startswith(f"usage: rootsplit {name} [-h]")
        assert "--output OUTPUT, -o OUTPUT" in out

    def test_no_command_exits_one(self, capsys):
        code, out, err = exit_of([], capsys)
        assert code == 1 and out == ""
        assert err.splitlines()[-1] == "error: the following arguments are required: command"

    def test_unrecognized_option_exits_one(self, capsys):
        code, out, err = exit_of(["classify", "--bogus"], capsys)
        assert code == 1 and out == ""
        assert err.startswith("usage: rootsplit classify [-h]")
        assert err.splitlines()[-1] == "error: unrecognized arguments: --bogus"
