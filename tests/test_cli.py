import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

import deltasimplex.classify
import deltasimplex.cli
import deltasimplex.constraints
import deltasimplex.ehrhart
from conftest import random_simplex
from deltasimplex import delta_from_box
from deltasimplex.cli import main


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
        # about 0.8 MB of text, far more than a pipe buffers, so the writer meets the closed pipe
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"vertices": [[0], [20011]]}))
        src = os.path.dirname(os.path.dirname(deltasimplex.__file__))
        with subprocess.Popen(
            [sys.executable, "-m", "deltasimplex.cli", "--output", "text", "box", "--simplex", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
        ) as proc:
            assert proc.stdout.readline() == b"-\n"
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
        for argv in (
            ["hnf", "--m", text, "--coeffs", "0,1,1,0", "--dim", "3"],
            ["search", "--dim", "2", "--volume", text],
            ["--budget", text, "check", "--delta", "1,0,4,0"],
        ):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2
            assert capsys.readouterr().out == ""

    def test_round_trip_with_delta(self, capsys, triangle_file):
        code, out, _ = run(capsys, ["delta", "--simplex", triangle_file])
        assert code == 0
        delta = json.loads(out)
        code, out, _ = run(capsys, ["check", "--delta", ",".join(map(str, delta))])
        assert code == 0
        assert json.loads(out)["exponents"] == [2, 2, 2, 2]


class TestClassify:
    def test_admissible_vector(self, capsys):
        code, out, _ = run(capsys, ["classify", "--delta", "1,0,4,0", "--volume", "5"])
        assert code == 0
        payload = json.loads(out)
        assert payload["admissible"] is True
        assert payload["case"]["label"] == "i"
        assert payload["witness"] == {"m": 5, "coeffs": [0, 1, 1, 0], "dim": 3}
        assert payload["verified"] is True

    def test_rejected_vector(self, capsys):
        code, out, _ = run(
            capsys, ["classify", "--delta", "1,0,2,0,1,1,0,2,0", "--volume", "7"]
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["admissible"] is False
        assert payload["violations"] == [[2, 2]]

    def test_wrong_volume(self, capsys):
        code, _, err = run(capsys, ["classify", "--delta", "1,1,0,2,0,0", "--volume", "5"])
        assert code == 2


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

        monkeypatch.setattr(deltasimplex.classify, "check_superadditive", refuse)
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
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert capsys.readouterr().out == ""


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
        "classify": (["classify", "--delta", "1,0,4,0", "--volume", "5"], 3, "box points"),
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

    def test_classify_compares_the_sum_before_building_the_exponents(self, capsys):
        code, out, err = run(capsys, ["classify", "--delta", "1,100000000000000", "--volume", "5"])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["message"] == "delta-vector sums to 100000000000001, expected 5"

    def test_classify_builds_the_exponent_list_once(self, capsys, monkeypatch):
        calls = []
        real = deltasimplex.constraints.exponents
        for module in (deltasimplex.classify, deltasimplex.cli):
            if hasattr(module, "exponents"):
                monkeypatch.setattr(module, "exponents", lambda delta: calls.append(delta) or real(delta))
        code, _, _ = run(capsys, ["classify", "--delta", "1,0,4,0", "--volume", "5"])
        assert (code, len(calls)) == (0, 1)

    def test_inadmissible_vector_builds_no_group(self, capsys):
        code, out, _ = run(capsys, ["--budget", "3", "classify", "--delta", "1,0,2,0,1,1,0,2,0", "--volume", "7"])
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
        "classify": (["classify", "--delta", "1,0,4,0", "--volume", "5"], "verified"),
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


class TestContractFault:
    """A contract check that fails on the product path is an internal error: exit 4, one error object."""

    CASES = {
        "oracle-interior-off-by-one": (["oracle", "--simplex", "{triangle}"], _interior_off_by_one,
                                       "reciprocity fails at (n, counted, predicted) = (1, 1, 0)"),
        "verify-interior-off-by-one": (["verify", "--simplex", "{triangle}"], _interior_off_by_one,
                                       "reciprocity fails at (n, counted, predicted) = (1, 1, 0)"),
        "classify-overflowing-witness": (["classify", "--delta", "1,0,4,0", "--volume", "5"], _overflowing_case_i,
                                         "case i gave coefficients (0, 7, 1, 0) that are negative or sum past 2"),
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
        assert "all_pass: True" in out

    def test_box_text_mode(self, capsys, segment_file):
        code, out, _ = run(capsys, ["--output", "text", "box", "--simplex", segment_file])
        assert code == 0
        assert out == "".join(
            f"-\n  coeffs: {k}/5,{(5 - k) % 5}/5\n  degree: {int(k > 0)}\n" for k in range(5)
        )

    def test_text_mode_prints_json_null_as_null(self, capsys):
        code, out, _ = run(capsys, ["--output", "text", "classify", "--delta", "1,0,4,0", "--volume", "5"])
        assert code == 0
        assert "  branch: null\n" in out
        code, out, _ = run(capsys, ["--output", "text", "classify", "--delta", "1,0,2,0,1,1,0,2,0", "--volume", "7"])
        assert code == 1
        assert "case: null\nwitness: null\nverified: False\n" in out
        assert "None" not in out

    def test_text_mode_after_subcommand(self, capsys, segment_file):
        code, out, _ = run(capsys, ["delta", "--simplex", segment_file, "--output", "text"])
        assert code == 0
        assert out.strip() == "- 1\n- 4"


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
