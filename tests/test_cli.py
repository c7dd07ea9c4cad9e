"""Report serialization and the command-line interface."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rootsplit
from rootsplit.pipeline import classify_all, classify_pair
from rootsplit.report import emit

CLI = [sys.executable, "-m", "rootsplit.cli"]
# the child imports the same rootsplit as the tests, installed or not
PACKAGE_ROOT = str(Path(rootsplit.__file__).resolve().parents[1])
CHILD_PATH = os.pathsep.join(
    p for p in (PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p
)


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

    def test_validate_bad_roots(self):
        # An invalid candidate is still a successful validation run:
        # exit 0, violations in the body.
        r = run("validate", "--roots", '[["1"],["-1"],["2"],["-2"]]')
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["valid"] is False
        assert doc["violations"]

    @pytest.mark.parametrize("args", [
        ("--roots", "5"), ("--roots", "[1]"), ("--roots", '[["1/0"]]'),
        ("--roots", "[[1,0],[1]]"), (),
        ("--roots", '"12"'), ("--roots", '["12","21"]'), ("--roots", '{"1": 1}'),
    ], ids=["scalar", "flat_list", "zero_denominator", "ragged", "no_input",
            "string", "string_rows", "object"])
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

    def test_bad_label_exits_one(self):
        assert run("build", "Z9").returncode == 1

    def test_bad_subcommand_exits_one(self):
        assert run("frobnicate").returncode == 1

    @pytest.mark.parametrize(
        "args",
        [
            ["--max-rank", "3", "--series", "Z"],
            ["--max-rank", "3", "--series", "B", "BC"],
            ["--max-rank", "0"],
            ["--max-rank", "-1"],
            ["--max-rank", "2", "--series"],
        ],
        ids=["series-Z", "series-BC", "rank-0", "rank-negative", "series-empty"],
    )
    def test_bad_classify_batch_input_exits_one(self, args):
        # Each once printed '"pairs": []' and exited 0.
        r = run("classify", *args)
        assert r.returncode == 1 and r.stdout == ""
        assert r.stderr.startswith("error: ")

    @pytest.mark.parametrize(
        "args",
        [
            ["classify", "B3", "torus", "--include-products", "--max-rank", "9"],
            ["validate", "B3", "--roots", '[["1"],["-1"]]'],
        ],
        ids=["classify-pair-with-batch-flags", "validate-label-and-roots"],
    )
    def test_ignored_arguments_exit_one(self, args):
        # Each once exited 0 and silently dropped part of its command line.
        r = run(*args)
        assert r.returncode == 1 and r.stdout == ""
        assert r.stderr.startswith("error: ")

    def test_lowercase_series_accepted(self):
        r = run("classify", "--max-rank", "2", "--series", "b", "--format", "csv")
        assert r.returncode == 0 and "B2," in r.stdout

    def test_bad_h_spec_exits_one(self):
        assert run("classify", "B3", "A2#9").returncode == 1

    def test_empty_h_spec_exits_one(self):
        # An empty h (say, an unset shell variable) once read as the torus.
        r = run("classify", "B3", "")
        assert r.returncode == 1 and r.stdout == ""
        assert r.stderr.startswith("error: ")

    @pytest.mark.parametrize(
        "g, h",
        [
            ("B3", "[[1,0]]"),
            ("B3", "[[1,0,0,0]]"),
            ("B3", '[["1/2",0,0]]'),
            ("B3", "[[100,0,0]]"),
            # on A1+A1's scale (1,-1) has the lattice key of (0,0,1,-1)
            ("A1+A1", "[[1,-1],[-1,1]]"),
        ],
        ids=["B3-short", "B3-long", "B3-half", "B3-off-key-bound", "A1+A1-short"],
    )
    def test_json_h_outside_the_parent_exits_one(self, g, h):
        for command in ("weights", "classify"):
            r = run(command, g, h)
            assert r.returncode == 1 and r.stdout == ""
            assert r.stderr == "error: subset is not contained in the parent root system\n"
