import argparse
import contextlib
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from math import comb
from pathlib import Path

import pytest

import deltasimplex.box
import deltasimplex.classify
import deltasimplex.cli
import deltasimplex.ehrhart
from conftest import random_simplex
from deltasimplex import HNFSpec, Simplex, delta_from_box
from deltasimplex.cli import _jsonable, main


@pytest.fixture
def segment_file(tmp_path):
    path = tmp_path / "segment.json"
    path.write_text(json.dumps({"vertices": [[0], [5]]}))
    return str(path)


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps({"vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [2, 3, 5]]}))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDelta:
    def test_segment(self, capsys, segment_file):
        code, out, _ = run(capsys, ["delta", "--simplex", segment_file])
        assert code == 0
        assert json.loads(out) == [1, 4]

    def test_missing_file(self, capsys, tmp_path):
        code, out, err = run(capsys, ["delta", "--simplex", str(tmp_path / "nope.json")])
        assert code == 2
        assert "error" in json.loads(err)

    def test_float_vertices_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"vertices": [[0.0], [5]]}')
        code, out, err = run(capsys, ["delta", "--simplex", str(path)])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["message"] == "integer required, got 0.0"

    @pytest.mark.parametrize(
        "vertices, delta",
        [([["0"], ["-5"]], [1, 4]), ([["0", "0"], ["1", "0"], [str(2**60), "1"]], [1, 0, 0])],
        ids=["signed", "beyond-2**53"],
    )
    def test_decimal_string_vertices(self, capsys, tmp_path, vertices, delta):
        # integers beyond 2**53 are written as decimal strings, so files must accept them back
        path = tmp_path / "strings.json"
        path.write_text(json.dumps({"vertices": vertices}))
        code, out, err = run(capsys, ["delta", "--simplex", str(path)])
        assert (code, json.loads(out), err) == (0, delta, "")

    def test_degenerate_rejected(self, capsys, tmp_path):
        path = tmp_path / "flat.json"
        path.write_text('{"vertices": [[0, 0], [1, 0], [2, 0]]}')
        code, _, err = run(capsys, ["delta", "--simplex", str(path)])
        assert code == 2

    @pytest.mark.parametrize("digit", ["\u0663", "-\u0663", "\uff13", "1\uff10"])
    def test_non_ascii_digit_strings_rejected(self, capsys, tmp_path, digit):
        path = tmp_path / "digits.json"
        path.write_text(json.dumps({"vertices": [[digit], ["0"]]}), encoding="utf-8")
        code, out, err = run(capsys, ["delta", "--simplex", str(path)])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["message"] == f"integer required, got {digit!r}"

    @pytest.mark.parametrize("command", ["delta", "box", "oracle", "verify"])
    def test_deeply_nested_file_is_malformed_input(self, capsys, tmp_path, command):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        code, out, err = run(capsys, [command, "--simplex", str(path)])
        assert (code, out) == (2, "")
        [line] = err.splitlines()
        assert json.loads(line)["error"] == {
            "type": "ValueError",
            "message": f"{path}: JSON nested too deeply",
        }


class TestBox:
    def test_segment_points(self, capsys, segment_file):
        code, out, _ = run(capsys, ["box", "--simplex", segment_file])
        assert code == 0
        points = json.loads(out)
        assert points[0] == {"coeffs": ["0/5", "0/5"], "degree": 0}
        assert [p["degree"] for p in points] == [0, 1, 1, 1, 1]
        assert all(len(p["coeffs"]) == 2 for p in points)

    def test_readme_examples_are_pinned(self, capsys, segment_file, triangle_file, tmp_path):
        square = tmp_path / "square.json"
        square.write_text(json.dumps({"vertices": [[0, 0], [2, 0], [0, 2]]}))
        outputs = [run(capsys, ["box", "--simplex", path])[1] for path in (segment_file, triangle_file, str(square))]
        assert outputs == [
            '[{"coeffs": ["0/5", "0/5"], "degree": 0}, {"coeffs": ["1/5", "4/5"], "degree": 1}, '
            '{"coeffs": ["2/5", "3/5"], "degree": 1}, {"coeffs": ["3/5", "2/5"], "degree": 1}, '
            '{"coeffs": ["4/5", "1/5"], "degree": 1}]\n',
            '[{"coeffs": ["0/5", "0/5", "0/5", "0/5"], "degree": 0}, '
            '{"coeffs": ["1/5", "2/5", "3/5", "4/5"], "degree": 2}, '
            '{"coeffs": ["2/5", "4/5", "1/5", "3/5"], "degree": 2}, '
            '{"coeffs": ["3/5", "1/5", "4/5", "2/5"], "degree": 2}, '
            '{"coeffs": ["4/5", "3/5", "2/5", "1/5"], "degree": 2}]\n',
            '[{"coeffs": ["0/2", "0/2", "0/2"], "degree": 0}, {"coeffs": ["0/2", "1/2", "1/2"], "degree": 1}, '
            '{"coeffs": ["1/2", "0/2", "1/2"], "degree": 1}, {"coeffs": ["1/2", "1/2", "0/2"], "degree": 1}]\n',
        ]


    def test_closed_pipe_exits_141_quietly(self, tmp_path):
        self.read_head_and_close(tmp_path, "text", b"-\n")

    def test_closed_pipe_exits_141_quietly_in_json(self, tmp_path):
        self.read_head_and_close(tmp_path, "json", b'[{"coeffs": ["0/20011"')

    @staticmethod
    def read_head_and_close(tmp_path, output, head):
        # about 0.8 MB of text or 1.1 MB of JSON, far more than a pipe buffers, so the writer meets the closed pipe
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"vertices": [[0], [20011]]}))
        src = os.path.dirname(os.path.dirname(deltasimplex.__file__))
        with subprocess.Popen(
            [sys.executable, "-m", "deltasimplex.cli", "--output", output, "box", "--simplex", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
        ) as proc:
            assert proc.stdout.read(len(head)) == head
            proc.stdout.close()
            assert proc.stderr.read() == b""
            assert proc.wait(timeout=60) == 141


class TestOracle:
    def test_triangle(self, capsys, triangle_file):
        code, out, _ = run(capsys, ["oracle", "--simplex", triangle_file])
        assert code == 0
        payload = json.loads(out)
        assert payload["delta"] == [1, 0, 4, 0]
        assert payload["counts"][0] == 1
        assert len(payload["counts"]) == payload["dim"] + 2
        assert len(payload["interior_counts"]) == payload["dim"] + 1

    def test_budget_exit_code(self, capsys, segment_file):
        code, _, err = run(capsys, ["oracle", "--simplex", segment_file, "--budget", "3"])
        assert code == 3
        body = json.loads(err)
        assert body["error"]["type"] == "budget-exceeded"
        assert body["error"]["estimate"] > 3

    def test_global_budget_flag_position(self, capsys, segment_file):
        code, _, _ = run(capsys, ["--budget", "3", "oracle", "--simplex", segment_file])
        assert code == 3

    def test_counts_each_dilate_once(self, capsys, triangle_file, monkeypatch):
        walked = []
        count_dilates = deltasimplex.ehrhart._count_dilates

        def counted(s, dilates, budget):
            walked.append(max(dilates))
            return count_dilates(s, dilates, budget)

        monkeypatch.setattr(deltasimplex.ehrhart, "_count_dilates", counted)
        code, out, _ = run(capsys, ["oracle", "--simplex", triangle_file])
        assert code == 0
        payload = json.loads(out)
        # one walk, of dilate d+1, gives the closed and interior counts of dilates 1..d+1
        assert walked == [payload["dim"] + 1]
        assert len(payload["interior_counts"]) == payload["dim"] + 1

    def test_delta_matches_box_on_random_simplices(self, capsys, tmp_path):
        rng = random.Random(20260809)
        path = tmp_path / "random.json"
        for _ in range(40):
            s = random_simplex(rng, max_dim=4, max_volume=40)
            path.write_text(json.dumps({"vertices": s.vertices}))
            code, out, _ = run(capsys, ["oracle", "--simplex", str(path), "--budget", str(10**12)])
            assert code == 0
            assert json.loads(out)["delta"] == list(delta_from_box(s))


class TestHnf:
    def test_known_member(self, capsys):
        code, out, _ = run(capsys, ["hnf", "--m", "5", "--coeffs", "0,1,1,0", "--dim", "3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["delta_closed_form"] == [1, 0, 4, 0]
        assert payload["delta_box"] == [1, 0, 4, 0]
        assert payload["agree"] is True
        assert payload["simplex"]["vertices"][-1] == [2, 3, 5]

    def test_simplex_field_feeds_delta(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["hnf", "--m", "7", "--coeffs", "1,0,2,0,1,0", "--dim", "5"])
        assert code == 0
        payload = json.loads(out)
        path = tmp_path / "member.json"
        path.write_text(json.dumps(payload["simplex"]))
        code, out, err = run(capsys, ["delta", "--simplex", str(path)])
        assert (code, json.loads(out), err) == (0, payload["delta_box"], "")

    def test_bad_coeff_count(self, capsys):
        code, _, err = run(capsys, ["hnf", "--m", "5", "--coeffs", "0,1", "--dim", "3"])
        assert code == 2


class TestCheck:
    def test_passing_vector(self, capsys):
        code, out, _ = run(capsys, ["check", "--delta", "1,0,4,0"])
        assert code == 0
        payload = json.loads(out)
        assert payload["all_pass"] is True
        assert payload["checks"]["pairing"]["ok"] is True

    def test_failing_vector(self, capsys):
        code, out, _ = run(capsys, ["check", "--delta", "1,0,2,0,1,1,0,2,0"])
        assert code == 1
        payload = json.loads(out)
        assert payload["checks"]["superadditive"]["ok"] is False
        assert [2, 2] in payload["checks"]["superadditive"]["violations"]

    def test_malformed_delta(self, capsys):
        code, _, err = run(capsys, ["check", "--delta", "1,x,4"])
        assert code == 2

    @pytest.mark.parametrize("text", ["1_0", "\u0663", "\uff13", "+3", " 3"])
    def test_integers_are_ascii_digits_only(self, capsys, text):
        # int() would read each of these; README allows only -?[0-9]+
        code, out, _ = run(capsys, ["check", "--delta", f"1,{text},4"])
        assert (code, out) == (2, "")
        for flag, argv in (
            ("--m", ["hnf", "--m", text, "--coeffs", "0,1,1,0", "--dim", "3"]),
            ("--volume", ["search", "--dim", "2", "--volume", text]),
            ("--budget", ["--budget", text, "check", "--delta", "1,0,4,0"]),
        ):
            code, out, err = run(capsys, argv)
            assert (code, out) == (2, "")
            [line] = err.splitlines()
            message = f"argument {flag}: invalid ascii_int value: {text!r}"
            assert json.loads(line) == {"error": {"type": "ValueError", "message": message}}

    def test_round_trip_with_delta(self, capsys, triangle_file):
        code, out, _ = run(capsys, ["delta", "--simplex", triangle_file])
        assert code == 0
        delta = json.loads(out)
        code, out, _ = run(capsys, ["check", "--delta", ",".join(map(str, delta))])
        assert code == 0
        assert json.loads(out)["exponents"] == [2, 2, 2, 2]


class TestClassify:
    def test_admissible_vector(self, capsys):
        code, out, _ = run(capsys, ["classify", "--delta", "1,0,4,0"])
        assert code == 0
        payload = json.loads(out)
        assert payload["admissible"] is True
        assert payload["case"]["label"] == "i"
        assert payload["witness"] == {"m": 5, "coeffs": [0, 1, 1, 0], "dim": 3}
        assert payload["verified"] is True

    def test_rejected_vector(self, capsys):
        code, out, _ = run(
            capsys, ["classify", "--delta", "1,0,2,0,1,1,0,2,0"]
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["admissible"] is False
        assert payload["violations"] == [[2, 2]]

    def test_wrong_volume(self, capsys):
        # the volume is the sum of the vector, here 4
        code, out, err = run(capsys, ["classify", "--delta", "1,1,0,2,0,0"])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["message"] == "classification covers volumes 5 and 7 only"

    def test_volume_is_read_from_the_vector(self, capsys):
        for delta, volume in (("1,0,4,0", 5), ("1,0,6,0", 7)):
            code, out, _ = run(capsys, ["classify", "--delta", delta])
            assert code == 0
            payload = json.loads(out)
            assert payload["case"]["label"] == "i"
            assert payload["witness"]["m"] == volume

    def test_volume_flag_is_refused(self, capsys):
        code, out, err = run(capsys, ["classify", "--delta", "1,0,4,0", "--volume", "7"])
        assert (code, out) == (2, "")
        [line] = err.splitlines()
        assert json.loads(line) == {"error": {"type": "ValueError", "message": "unrecognized arguments: --volume 7"}}


class TestEnumerateAndSearch:
    def test_enumerate_with_crosscheck(self, capsys):
        code, out, _ = run(
            capsys,
            ["enumerate", "--volume", "5", "--dim", "2", "--exhaustive-crosscheck"],
        )
        assert code == 0
        payload = json.loads(out)
        assert [e["delta"] for e in payload["entries"]] == [[1, 2, 2], [1, 4, 0]]
        assert payload["crosscheck"]["match"] is True

    def test_crosscheck_mismatch_is_a_negative_verdict(self, capsys, monkeypatch):
        real = deltasimplex.cli.exhaustive_search

        def off_by_two(d, vol, budget):
            return tuple(v for v in real(d, vol, budget=budget) if v != (1, 4, 0)) + ((1, 3, 1),)

        monkeypatch.setattr(deltasimplex.cli, "exhaustive_search", off_by_two)
        code, out, err = run(
            capsys,
            ["enumerate", "--volume", "5", "--dim", "2", "--exhaustive-crosscheck"],
        )
        assert (code, err) == (1, "")
        assert json.loads(out)["crosscheck"] == {
            "match": False,
            "search_only": [[1, 3, 1]],
            "enumerate_only": [[1, 4, 0]],
        }

    def test_search(self, capsys):
        code, out, _ = run(capsys, ["search", "--dim", "2", "--volume", "5"])
        assert code == 0
        payload = json.loads(out)
        assert payload["deltas"] == [[1, 2, 2], [1, 4, 0]]

    def test_search_budget(self, capsys):
        code, _, err = run(capsys, ["search", "--dim", "6", "--volume", "13", "--budget", "10"])
        assert code == 3
        error = json.loads(err)["error"]
        estimate = comb(18, 6) * 7 * 13 + 2 * 13**2
        assert error["message"] == f"estimated {estimate} character values exceeds budget 10"
        assert (error["estimate"], error["budget"]) == (estimate, 10)

    def test_enumerate_budget_refuses_before_the_loop(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, ["enumerate", "--volume", "7", "--dim", "1000", "--budget", "10"])
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        error = json.loads(err)["error"]
        assert error["estimate"] == 5276333812750 == 2 * comb(503, 4) * 1001
        assert error["message"] == "estimated 5276333812750 candidate delta entries exceeds budget 10"

    @pytest.mark.parametrize("volume, dim", [("7", "300"), ("7", "112"), ("5", "220")])
    def test_enumerate_default_budget_bounds_the_result(self, capsys, monkeypatch, volume, dim):
        # (7, 300) has 43 895 700 candidates of 301 entries each; it once grew past 4.9 GB,
        # so a candidate reaching the filter ends the run here instead
        def refuse(*args):
            raise AssertionError("the candidate loop ran")

        monkeypatch.setattr(deltasimplex.classify, "_superadditive", refuse)
        start = time.perf_counter()
        code, out, err = run(capsys, ["enumerate", "--volume", volume, "--dim", dim])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert json.loads(err)["error"]["message"].endswith("candidate delta entries exceeds budget 100000000")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--threads", "2", "search", "--dim", "3", "--volume", "7"],
            ["search", "--dim", "3", "--volume", "7", "--threads", "2"],
        ],
    )
    def test_threads_flag_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        [line] = err.splitlines()
        error = json.loads(line)["error"]
        assert error["type"] == "ValueError"
        # before the command argparse takes the "2" for the command; after it, "--threads 2" is left over
        blamed = "argument command: invalid choice: '2'" if argv[0] == "--threads" else "unrecognized arguments: --threads 2"
        assert error["message"].startswith(blamed)


class TestBoxBudget:
    """Commands that build a box group refuse a volume (its point count) over the budget."""

    COMMANDS = {
        "delta": ["delta", "--simplex", "{triangle}"],
        "box": ["box", "--simplex", "{triangle}"],
        "hnf": ["hnf", "--m", "5", "--coeffs", "0,1,1,0", "--dim", "3"],
        "verify-simplex": ["verify", "--simplex", "{triangle}"],
        "verify-spec": ["verify", "--m", "5", "--coeffs", "0,1,1,0", "--dim", "3"],
    }

    @pytest.mark.parametrize("name", COMMANDS)
    def test_refused_over_budget(self, capsys, triangle_file, name):
        argv = [a.format(triangle=triangle_file) for a in self.COMMANDS[name]]
        code, out, err = run(capsys, ["--budget", "4", *argv])
        assert (code, out) == (3, "")
        error = json.loads(err)["error"]
        assert error["message"] == "estimated 5 box points exceeds budget 4"
        assert (error["estimate"], error["budget"]) == (5, 4)

    @pytest.mark.parametrize("name", COMMANDS)
    def test_unchanged_at_budget_equal_to_volume(self, capsys, triangle_file, name):
        argv = [a.format(triangle=triangle_file) for a in self.COMMANDS[name]]
        at_volume = run(capsys, ["--budget", "5", *argv])
        assert at_volume[0] == 0
        if name.startswith("verify"):
            # the oracle is skipped at this budget; every other method is unchanged
            full = json.loads(run(capsys, argv)[1])["methods"]
            assert json.loads(at_volume[1])["methods"] == dict(full, oracle=None)
        else:
            assert at_volume[:2] == run(capsys, argv)[:2]


class TestEveryCommandBudget:
    """Every command refuses over --budget with exit 3 before its guarded work, naming the unit."""

    CASES = {
        "delta": (["delta", "--simplex", "{triangle}"], 4, "box points"),
        "box": (["box", "--simplex", "{triangle}"], 4, "box points"),
        "oracle": (["oracle", "--simplex", "{triangle}"], 100, "bounding-box cells"),
        "hnf": (["hnf", "--m", "5", "--coeffs", "0,1,1,0", "--dim", "3"], 4, "box points"),
        "check": (["check", "--delta", "1,6006"], 10, "exponents and pairs"),
        "classify": (["classify", "--delta", "1,0,4,0"], 3, "box points"),
        "enumerate": (["enumerate", "--volume", "7", "--dim", "1000"], 10, "candidate delta entries"),
        "search": (["search", "--dim", "1", "--volume", "3000000"], 10, "character values"),
        "verify": (["verify", "--simplex", "{triangle}"], 4, "box points"),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_refused_with_its_unit(self, capsys, triangle_file, name):
        argv, budget, unit = self.CASES[name]
        argv = [a.format(triangle=triangle_file) for a in argv]
        start = time.perf_counter()
        code, out, err = run(capsys, ["--budget", str(budget), *argv])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        [line] = err.splitlines()
        error = json.loads(line)["error"]
        assert error["type"] == "budget-exceeded"
        assert error["message"] == f"estimated {error['estimate']} {unit} exceeds budget {budget}"
        assert error["estimate"] > error["budget"] == budget

    def test_check_refuses_before_building_the_exponents(self, capsys):
        # 10**14 exponents do not fit in memory; the refusal comes first
        code, out, err = run(capsys, ["check", "--delta", "1,100000000000000"])
        assert (code, out) == (3, "")
        assert json.loads(err)["error"]["estimate"] == str(10**14 + (10**14 // 2) ** 2)

    def test_check_validates_before_the_budget(self, capsys):
        code, out, err = run(capsys, ["--budget", "10", "check", "--delta", "2,100000000000000"])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["message"] == "delta_0 must be 1"

    def test_classify_compares_the_sum_before_building_the_exponents(self, capsys, monkeypatch):
        # 10**14 exponents do not fit in memory; the unclassified sum is refused first
        monkeypatch.setattr(deltasimplex.classify, "exponents", lambda delta: pytest.fail("built the exponents"))
        code, out, err = run(capsys, ["classify", "--delta", "1,100000000000000"])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["message"] == "classification covers volumes 5 and 7 only"

    def test_inadmissible_vector_builds_no_group(self, capsys):
        code, out, _ = run(capsys, ["--budget", "3", "classify", "--delta", "1,0,2,0,1,1,0,2,0"])
        assert code == 1
        assert json.loads(out)["admissible"] is False

    def test_check_is_linear_in_the_vector_length(self, capsys):
        delta = ",".join(["1"] + ["0"] * 60000 + ["1"])
        start = time.perf_counter()
        code, out, _ = run(capsys, ["--budget", "10", "check", "--delta", delta])
        assert time.perf_counter() - start < 2.0
        assert code == 1
        assert json.loads(out)["checks"]["hibi"]["violations"] == list(range(30001))


class TestVerify:
    def test_family_member_all_methods(self, capsys):
        code, out, _ = run(capsys, ["verify", "--m", "5", "--coeffs", "0,1,1,0", "--dim", "3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["agree"] is True
        assert (
            payload["methods"]["box"]
            == payload["methods"]["closed_form"]
            == payload["methods"]["oracle"]
            == [1, 0, 4, 0]
        )

    def test_simplex_file_input(self, capsys, triangle_file):
        code, out, _ = run(capsys, ["verify", "--simplex", triangle_file])
        assert code == 0
        payload = json.loads(out)
        assert "closed_form" not in payload["methods"]
        assert payload["methods"]["box"] == payload["methods"]["oracle"]

    def test_oracle_skipped_when_over_budget(self, capsys, triangle_file):
        # the box group needs budget >= volume 5; the oracle needs more
        code, out, _ = run(capsys, ["verify", "--simplex", triangle_file, "--budget", "5"])
        assert code == 0
        payload = json.loads(out)
        assert payload["methods"]["oracle"] is None
        assert payload["oracle_skipped_estimate"] > 5
        assert payload["agree"] is True

    def test_requires_some_input(self, capsys):
        code, _, err = run(capsys, ["verify"])
        assert code == 2

    def test_rejects_conflicting_inputs(self, capsys, segment_file):
        code, _, _ = run(
            capsys,
            ["verify", "--simplex", segment_file, "--m", "5", "--coeffs", "0,0,0,0", "--dim", "1"],
        )
        assert code == 2


class TestBoxRouteDisagreement:
    """A box delta-vector that differs from the witness or the other methods is a negative verdict."""

    CASES = {
        "hnf": (["hnf", "--m", "5", "--coeffs", "0,1,1,0", "--dim", "3"], "agree"),
        "verify": (["verify", "--m", "5", "--coeffs", "0,1,1,0", "--dim", "3"], "agree"),
        "classify": (["classify", "--delta", "1,0,4,0"], "verified"),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_exits_1(self, capsys, monkeypatch, name):
        argv, verdict = self.CASES[name]
        monkeypatch.setattr(deltasimplex.cli, "delta_from_box", lambda s: (1, 1, 3, 0))
        code, out, err = run(capsys, argv)
        assert (code, err) == (1, "")
        assert json.loads(out)[verdict] is False


def _interior_off_by_one(monkeypatch):
    real = deltasimplex.ehrhart._count_dilates

    def one_more_interior_point(*args):
        closed, interior = real(*args)
        return closed, tuple(x + 1 for x in interior)

    monkeypatch.setattr(deltasimplex.ehrhart, "_count_dilates", one_more_interior_point)


def _overflowing_case_i(monkeypatch):
    monkeypatch.setitem(
        deltasimplex.classify._PATTERN_CASES[5], (4,), ("i", lambda i1, *_: (0, i1 + 5, i1 - 1, 0))
    )


def _short_case_i(monkeypatch):
    monkeypatch.setitem(deltasimplex.classify._PATTERN_CASES[5], (4,), ("i", lambda *_: (0, 1, 1)))


def _misread_completion(monkeypatch):
    real = deltasimplex.lanes.RowFormat.offset
    monkeypatch.setattr(deltasimplex.lanes.RowFormat, "offset", lambda self, item: real(self, item + 1))


def _off_lattice_column(monkeypatch):
    real = deltasimplex.box.smith_normal_form

    def shifted_last_column(matrix):
        snf = real(matrix)
        return snf._replace(right=(snf.right[0][:-1] + (snf.right[0][-1] + 1,),) + snf.right[1:])

    monkeypatch.setattr(deltasimplex.box, "smith_normal_form", shifted_last_column)


class TestContractFault:
    """A contract check that fails on the product path is an internal error: exit 4, one error object."""

    CASES = {
        "oracle-interior-off-by-one": (["oracle", "--simplex", "{triangle}"], _interior_off_by_one,
                                       "reciprocity fails at (n, counted, predicted) = (1, 1, 0)"),
        "verify-interior-off-by-one": (["verify", "--simplex", "{triangle}"], _interior_off_by_one,
                                       "reciprocity fails at (n, counted, predicted) = (1, 1, 0)"),
        "classify-overflowing-witness": (
            ["classify", "--delta", "1,0,4,0"], _overflowing_case_i,
            "case i gave coefficients (0, 7, 1, 0): coefficient sum must be at most dim - 1",
        ),
        # a witness formula that returns too few coefficients is a fault of the table, not of the input
        "classify-short-witness": (
            ["classify", "--delta", "1,0,4,0"], _short_case_i,
            "case i gave coefficients (0, 1, 1): expected 4 coefficients, got 3",
        ),
        "enumerate-short-witness": (
            ["enumerate", "--volume", "5", "--dim", "3"], _short_case_i,
            "case i gave coefficients (0, 1, 1): expected 4 coefficients, got 3",
        ),
        # the completing character is read from the lane of element 2, not 1: (0, 0, 1) is completed by 5
        "search-completion-misread": (
            ["search", "--dim", "3", "--volume", "7"], _misread_completion,
            "characters (0, 0, 1, 5) of group type (7,) give age counts summing to 1, not 7",
        ),
        # the triangle's group is Z/5; the shifted generator (0, 3, 2, 1)/5 is off the
        # lattice, so its multiple 1 (element order) and 2 (canonical order) sum to 6/5, 7/5
        "delta-off-lattice": (["delta", "--simplex", "{triangle}"], _off_lattice_column,
                              "box point coefficients sum to 6/5, not an integer"),
        "box-off-lattice": (["box", "--simplex", "{triangle}"], _off_lattice_column,
                            "box point coefficients sum to 7/5, not an integer"),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_exits_4(self, capsys, monkeypatch, triangle_file, name):
        argv, fault, message = self.CASES[name]
        fault(monkeypatch)
        code, out, err = run(capsys, [a.format(triangle=triangle_file) for a in argv])
        assert (code, out) == (4, "")
        [line] = err.splitlines()
        assert json.loads(line) == {"error": {"type": "internal-error", "message": message}}


class TestMalformedInput:
    """Each malformed input exits 2 with empty stdout and exactly one error object."""

    CASES = {
        "verify-spec-without-dim": (
            ["verify", "--m", "5", "--coeffs", "0,1,1,0"], None,
            "--m, --coeffs and --dim must be given together",
        ),
        "enumerate-dim-0": (["enumerate", "--volume", "5", "--dim", "0"], None, "dimension must be >= 1"),
        "search-dim-0": (["search", "--dim", "0", "--volume", "5"], None, "need d >= 1 and vol >= 1"),
        "check-delta-length-1": (["check", "--delta", "1"], None, "delta-vector needs length >= 2"),
        "no-vertices": (
            ["delta", "--simplex", "{file}"], {"vertices": []},
            '"vertices" must be a nonempty list of integer rows',
        ),
        "vertex-not-a-list": (
            ["delta", "--simplex", "{file}"], {"vertices": [5, 6]}, "each vertex must be a list of integers",
        ),
        "one-vertex": (
            ["delta", "--simplex", "{file}"], {"vertices": [[0]]}, "a simplex needs at least two vertices",
        ),
        "bool-vertex": (["delta", "--simplex", "{file}"], {"vertices": [[True], [5]]}, "integer required, got True"),
        "extra-key": (
            ["delta", "--simplex", "{file}"], {"vertices": [[0], [5]], "color": "red"},
            'expected a JSON object with a single "vertices" key',
        ),
        "classify-volume-11": (
            ["classify", "--delta", "1,1,1,1,1,1,1,1,1,1,1"], None, "classification covers volumes 5 and 7 only",
        ),
        "enumerate-volume-9": (
            ["enumerate", "--volume", "9", "--dim", "3"], None, "classification covers volumes 5 and 7 only",
        ),
        "missing-argument": (["delta"], None, "the following arguments are required: --simplex"),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_exits_2_with_one_error(self, capsys, tmp_path, name):
        argv, content, message = self.CASES[name]
        path = tmp_path / "simplex.json"
        if content is not None:
            path.write_text(json.dumps(content))
        code, out, err = run(capsys, [a.format(file=path) for a in argv])
        assert (code, out) == (2, "")
        [line] = err.splitlines()
        assert json.loads(line) == {"error": {"type": "ValueError", "message": message}}


def _parsers():
    """(argv before a flag, argv after it, parser) for the top level and for each command."""
    top = deltasimplex.cli._build_parser()
    [commands] = [a for a in top._actions if isinstance(a, argparse._SubParsersAction)]
    yield [], ["check", "--delta", "1"], top
    for name, parser in commands.choices.items():
        # every required flag takes a value, and "3" parses for each of them
        required = [t for a in parser._actions if a.required for t in (a.option_strings[0], "3")]
        yield [name, *required], [], parser


def _given(flag, action):
    """argv giving the flag, with the last choice or "3" as its value, and the value parsing stores."""
    if action.nargs == 0:
        return [flag], True
    text = action.choices[-1] if action.choices else "3"
    return [f"{flag}={text}"], (action.type or str)(text)


@pytest.mark.parametrize(
    "before, after, parser", [pytest.param(*p, id=p[0][0] if p[0] else "top") for p in _parsers()]
)
def test_long_flags_by_full_name_only(capsys, before, after, parser):
    """Built from the parser's own actions, so a flag added later is covered too."""
    for action in parser._actions:
        for flag in (f for f in action.option_strings if f.startswith("--")):
            given, value = _given(flag, action)
            argv = [*before, *given, *after]
            if isinstance(action, argparse._HelpAction):
                with pytest.raises(SystemExit) as info:
                    deltasimplex.cli._build_parser().parse_args(argv)
                assert info.value.code == 0
                assert capsys.readouterr().out.startswith("usage: ")
            else:
                assert getattr(deltasimplex.cli._build_parser().parse_args(argv), action.dest) == value
            for prefix in (flag[:k] for k in range(3, len(flag))):
                if prefix in parser._option_string_actions:
                    continue
                code, out, err = run(capsys, [*before, *_given(prefix, action)[0], *after])
                assert (code, out) == (2, "")
                [line] = err.splitlines()
                error = json.loads(line)["error"]
                assert error["type"] == "ValueError"
                assert error["message"].startswith(f"unrecognized arguments: {prefix}")


def test_global_flags_are_declared_once():
    """The top level and every command hold the same --budget and --output actions."""
    parsers = [parser for _, _, parser in _parsers()]
    assert len(parsers) == 10
    for flag in ("--budget", "--output"):
        assert len({id(parser._option_string_actions[flag]) for parser in parsers}) == 1


class TestOutputModes:
    def test_deterministic_output(self, capsys, triangle_file):
        _, first, _ = run(capsys, ["box", "--simplex", triangle_file])
        _, second, _ = run(capsys, ["box", "--simplex", triangle_file])
        assert first == second

    def test_text_mode(self, capsys):
        code, out, _ = run(
            capsys, ["--output", "text", "check", "--delta", "1,0,4,0"]
        )
        assert code == 0
        assert "all_pass: true" in out  # JSON's spelling of a boolean, not Python's
        assert "True" not in out

    def test_box_text_mode(self, capsys, segment_file):
        code, out, _ = run(capsys, ["--output", "text", "box", "--simplex", segment_file])
        assert code == 0
        assert out == "".join(
            f"-\n  coeffs: {k}/5,{(5 - k) % 5}/5\n  degree: {int(k > 0)}\n" for k in range(5)
        )

    def test_text_mode_prints_json_null_as_null(self, capsys):
        code, out, _ = run(capsys, ["--output", "text", "classify", "--delta", "1,0,4,0"])
        assert code == 0
        assert "  branch: null\n" in out
        code, out, _ = run(capsys, ["--output", "text", "classify", "--delta", "1,0,2,0,1,1,0,2,0"])
        assert code == 1
        assert "case: null\nwitness: null\nverified: false\n" in out
        assert "None" not in out

    def test_a_delta_vector_prints_inline_under_a_key_or_in_a_list(self, capsys, segment_file):
        code, out, _ = run(capsys, ["--output", "text", "search", "--dim", "2", "--volume", "5"])
        assert (code, out) == (0, "dim: 2\nvolume: 5\ncount: 2\ndeltas:\n  - 1,2,2\n  - 1,4,0\n")
        code, out, _ = run(capsys, ["--output", "text", "verify", "--simplex", segment_file])
        assert (code, out) == (0, "methods:\n  box: 1,4\n  oracle: 1,4\nagree: true\n")

    def test_text_mode_after_subcommand(self, capsys, segment_file):
        code, out, _ = run(capsys, ["delta", "--simplex", segment_file, "--output", "text"])
        assert code == 0
        assert out.strip() == "- 1\n- 4"


class TestJsonable:
    LIMIT = 2**53

    @pytest.mark.parametrize("kind", [list, tuple])
    def test_ints_inside_2_53_stay_ints(self, kind):
        out = _jsonable(kind([1 - self.LIMIT, 0, self.LIMIT - 1]))
        assert out == [1 - self.LIMIT, 0, self.LIMIT - 1]
        assert json.dumps(out) == "[-9007199254740991, 0, 9007199254740991]"

    @pytest.mark.parametrize("kind", [list, tuple])
    def test_ints_from_2_53_become_strings(self, kind):
        assert _jsonable(kind([-self.LIMIT, 0, self.LIMIT])) == ["-9007199254740992", 0, "9007199254740992"]

    def test_bools_stay_bools(self):
        assert json.dumps(_jsonable([True, 0])) == "[true, 0]"

    def test_empty_tuple(self):
        assert _jsonable(()) == []

    def test_tuple_nested_in_a_list(self):
        assert _jsonable([(1, 2), (self.LIMIT,), ()]) == [[1, 2], ["9007199254740992"], []]

    def test_int_dict_key(self):
        assert json.dumps(_jsonable({3: (1, 2)})) == '{"3": [1, 2]}'

    @pytest.mark.parametrize(
        "record", [HNFSpec(5, (0, 1, 1, 0), 3), Simplex(((0, 0), (1, 0), (0, 1)))], ids=["HNFSpec", "Simplex"]
    )
    def test_records_are_refused(self, record):
        """A record is a named tuple, yet not printed as a list: a handler names the fields it emits."""
        with pytest.raises(TypeError, match="cannot serialize"):
            _jsonable(record)


class TestStreamedJson:
    """`_emit` writes JSON a slice at a time; the bytes are those of one `json.dumps` of the whole."""

    S = deltasimplex.cli._EMIT_SLICE
    LENGTHS = [0, 1, S - 1, S, S + 1, 2 * S + 1]

    @staticmethod
    def emitted(capsys, payload):
        deltasimplex.cli._emit(payload, argparse.Namespace(output="json"))
        return capsys.readouterr().out

    @staticmethod
    def items(kind, n):
        """n items; only the last holds an int beyond 2**53, so only the last slice takes the per-item path."""
        if kind == "ints":
            return [i - n // 2 for i in range(n - 1)] + [2**53] * (n > 0)
        items = [{"delta": (1, i, (i, -i)), 7: True, "case": None} for i in range(n)]
        if items:
            items[-1]["witness"] = {"m": -(2**53), "coeffs": ((2**60,), ())}
        return items

    @pytest.mark.parametrize("kind", ["ints", "records"])
    @pytest.mark.parametrize("n", LENGTHS)
    @pytest.mark.parametrize("outer", [list, tuple])
    def test_top_level_list(self, capsys, kind, n, outer):
        payload = outer(self.items(kind, n))
        assert self.emitted(capsys, payload) == json.dumps(_jsonable(payload)) + "\n"

    @pytest.mark.parametrize("kind", ["ints", "records"])
    @pytest.mark.parametrize("n", LENGTHS)
    def test_list_value_of_a_dict(self, capsys, kind, n):
        payload = {3: (1, (2, 2**53)), "entries": self.items(kind, n), "more": tuple(self.items(kind, n)), "ok": False}
        assert self.emitted(capsys, payload) == json.dumps(_jsonable(payload)) + "\n"

    def test_keys_that_collide_as_strings(self, capsys):
        payload = {1: [1], "1": [2, 3], 2: "x"}
        assert self.emitted(capsys, payload) == json.dumps(_jsonable(payload)) + "\n" == '{"1": [2, 3], "2": "x"}\n'

    @pytest.mark.parametrize("payload", [(1, 4), {"a": {"b": [1, 2]}, "c": 2**53}, "s", 5, None, {}])
    def test_other_payloads_whole(self, capsys, payload):
        assert self.emitted(capsys, payload) == json.dumps(_jsonable(payload)) + "\n"

    def test_enumerate_holds_its_result_once(self):
        """Built whole, the JSON-safe copy and its text take the peak to 14.1 MiB; a slice at a time, 6.0 MiB."""
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                code = main(["enumerate", "--volume", "5", "--dim", "72"])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak < 8 * 2**20, peak


def _reference_jsonable(obj):
    """`_jsonable` without its one-step path for int lists: one call per item."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (str, float)):
        return obj
    if isinstance(obj, int):
        return obj if abs(obj) < 2**53 else str(obj)
    if isinstance(obj, dict):
        return {str(k): _reference_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reference_jsonable(x) for x in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


@pytest.mark.parametrize("output", ["json", "text"])
@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--volume", "5", "--dim", "30"],
        ["enumerate", "--volume", "7", "--dim", "20"],
        ["hnf", "--m", "7", "--coeffs", "1,0,0,0,0,1", "--dim", "4"],
        ["classify", "--delta", "1,0,4,0"],
        ["classify", "--delta", "1,0,2,0,1,1,0,2,0"],
    ],
)
def test_emit_matches_the_reference_path(capsys, monkeypatch, argv, output):
    """Flat int lists made JSON-safe in one step print the same bytes as a per-item `_jsonable`."""
    argv = ["--output", output] + argv
    emitted = run(capsys, argv)
    monkeypatch.setattr(deltasimplex.cli, "_jsonable", _reference_jsonable)
    assert run(capsys, argv) == emitted


def test_readme_cli_block(capsys, monkeypatch, tmp_path, segment_file, triangle_file):
    """Each `deltasimplex` line of README's CLI block exits 0, or as its `# exit N` says, and prints its `# ->` line."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    lines = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0].splitlines()
    monkeypatch.chdir(tmp_path)
    commands = [(i, line) for i, line in enumerate(lines) if line.startswith("deltasimplex ")]
    for i, line in commands:
        command, _, comment = line.partition("#")
        documented = re.match(r" *exit (\d+)", comment)
        code, out, err = run(capsys, shlex.split(command)[1:])
        assert (code, err) == (int(documented[1]) if documented else 0, ""), line
        expected = "".join(lines[i + 1 : i + 2])
        if expected.startswith("# -> "):
            pattern = ".*".join(map(re.escape, expected[len("# -> "):].split("...")))
            assert re.fullmatch(pattern, out.rstrip("\n")), line
    assert len(commands) == 10
