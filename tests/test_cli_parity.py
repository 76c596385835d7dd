"""Byte parity of the CLI against a recorded corpus.

`tests/data/cli_parity.json` holds in-process calls of `deltasimplex.cli.main`
covering every command: JSON and text output, budget refusals, malformed input,
and `verify` with the oracle skipped. Each call records its exit code, stdout
and stderr. The simplex files the calls name are stored in the corpus and
written into a fresh working directory, so paths in messages are relative.

A change that alters CLI output on purpose re-records the corpus with
`PYTHONPATH=src python tests/test_cli_parity.py` and names the entries whose
records changed.
"""

import contextlib
import io
import json
import os
import random
import tempfile
from pathlib import Path

import pytest

from conftest import random_simplex
from deltasimplex.cli import main

CORPUS = Path(__file__).parent / "data" / "cli_parity.json"
RECORDED = json.loads(CORPUS.read_text(encoding="utf-8")) if CORPUS.exists() else {"files": {}, "calls": []}


def run(argv):
    """[exit code, stdout, stderr] of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return [code, out.getvalue(), err.getvalue()]


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    for name, text in RECORDED["files"].items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)


def test_corpus_size():
    assert len(RECORDED["calls"]) >= 300
    assert CORPUS.stat().st_size < 200_000
    words = {a for c in RECORDED["calls"] for a in c["argv"]}
    assert {"delta", "box", "oracle", "hnf", "check", "classify", "enumerate", "search", "verify", "text"} <= words


@pytest.mark.parametrize("index", range(len(RECORDED["calls"])))
def test_call_matches_record(workdir, index):
    record = RECORDED["calls"][index]
    assert run(record["argv"]) == [record["exit"], record["stdout"], record["stderr"]]


def _simplex_files(rng):
    """Named simplex files: random small simplices, fixed ones, and malformed ones."""
    files = {}
    for k in range(30):
        s = random_simplex(rng, max_dim=4, entry=3, max_volume=24)
        files[f"random-{k}.json"] = json.dumps({"vertices": [list(v) for v in s.vertices]})
    files.update({
        "segment.json": '{"vertices": [[0], [5]]}',
        "triangle.json": '{"vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [2, 3, 5]]}',
        "strings.json": '{"vertices": [["0", "0"], ["1", "0"], ["1152921504606846976", "1"]]}',
        "signed.json": '{"vertices": [["0"], ["-5"]]}',
        "float.json": '{"vertices": [[0.0], [5]]}',
        "bool.json": '{"vertices": [[true], [5]]}',
        "flat.json": '{"vertices": [[0, 0], [1, 0], [2, 0]]}',
        "empty.json": '{"vertices": []}',
        "scalar-rows.json": '{"vertices": [5, 6]}',
        "one-vertex.json": '{"vertices": [[0]]}',
        "extra-key.json": '{"vertices": [[0], [5]], "color": "red"}',
        "not-json.json": '{"vertices": [[0], [5]',
        "nested.json": "[" * 5000 + "]" * 5000,
        "arabic.json": '{"vertices": [["\\u0663"], ["0"]]}',
        "ragged.json": '{"vertices": [[0, 0], [1], [0, 1]]}',
    })
    return files


def _argv_list(rng, files):
    """The recorded calls, in a fixed order."""
    calls = []
    randoms = [f for f in files if f.startswith("random-")]
    for k, name in enumerate(randoms):
        for command in ("delta", "box", "oracle", "verify"):
            calls.append([command, "--simplex", name])
        if k % 3 == 0:
            for command in ("delta", "box", "oracle", "verify"):
                calls.append(["--output", "text", command, "--simplex", name])
        if k % 3 == 1:
            calls.append(["--budget", "1", "oracle", "--simplex", name])
            calls.append(["--budget", "1", "delta", "--simplex", name])
            calls.append(["--budget", "30", "verify", "--simplex", name])
        if k % 3 == 2:
            calls.append(["--budget", "200", "verify", "--simplex", name])
            calls.append(["oracle", "--simplex", name, "--budget", "1000"])
    fixed = ["segment.json", "triangle.json", "strings.json", "signed.json"]
    malformed = [f for f in files if f not in randoms and f not in fixed]
    for name in fixed:
        for command in ("delta", "box", "oracle", "verify"):
            calls.append([command, "--simplex", name])
            calls.append([command, "--simplex", name, "--output", "text"])
    for name in malformed + ["missing.json"]:
        for command in ("delta", "box", "oracle", "verify"):
            calls.append([command, "--simplex", name])
    for budget in ("4", "5", "100", "300"):
        for command in ("delta", "box", "oracle", "verify"):
            calls.append(["--budget", budget, command, "--simplex", "triangle.json"])

    specs = [("5", "0,1,1,0", "3"), ("5", "0,0,0,0", "1"), ("7", "0,0,1,1,0,0", "3"), ("7", "1,0,0,0,0,1", "4"),
             ("6", "1,1,0,0,1", "5"), ("11", "0,1,0,0,0,0,0,0,1,0", "4"), ("13", "1,0,2,0,0,0,0,0,0,0,0,1", "6"),
             ("4", "2,0,1", "5"), ("9", "0,0,3,0,0,0,0,0", "4"), ("2", "3", "5")]
    for m, coeffs, dim in specs:
        calls.append(["hnf", "--m", m, "--coeffs", coeffs, "--dim", dim])
        calls.append(["verify", "--m", m, "--coeffs", coeffs, "--dim", dim])
    for m, coeffs, dim in specs[:4]:
        calls.append(["--output", "text", "hnf", "--m", m, "--coeffs", coeffs, "--dim", dim])
        calls.append(["--output", "text", "verify", "--m", m, "--coeffs", coeffs, "--dim", dim])
        calls.append(["--budget", "4", "hnf", "--m", m, "--coeffs", coeffs, "--dim", dim])
        calls.append(["--budget", "20", "verify", "--m", m, "--coeffs", coeffs, "--dim", dim])
    bad_specs = [("5", "0,1,1", "3"), ("5", "0,-1,1,0", "3"), ("5", "1,1,1,1", "3"), ("1", "", "3"),
                 ("5", "0,1,1,0", "0"), ("5", "0,x,1,0", "3"), ("5", "0,1,1,0", "+3")]
    for m, coeffs, dim in bad_specs:
        calls.append(["hnf", "--m", m, "--coeffs", coeffs, "--dim", dim])
        calls.append(["verify", "--m", m, "--coeffs", coeffs, "--dim", dim])
    calls += [
        ["verify", "--m", "5", "--coeffs", "0,1,1,0"],
        ["verify"],
        ["verify", "--simplex", "segment.json", "--m", "5"],
        ["verify", "--m", "5", "--coeffs", "0,1,1,0", "--dim", "3", "--simplex", "segment.json"],
    ]

    vectors = ["1,0,4,0", "1,2,2", "1,4,0", "1,1,1,1,1", "1,1,1,6,1,1", "1,1,1,8,1,1", "1,0,2,0,1,1,0,2,0",
               "1,3,3", "1,2,0,1,1", "1,0,0,8", "1,5,5,5", "1,1,2,2,1,1,1", "1,6", "1,0,3,0,0,3",
               "1,1,1,1,1,1,1,1,1,1", "1,0,0,0,0,0,1", "1,2,2,2,2,2,0"]
    for v in vectors:
        calls.append(["check", "--delta", v])
    for v in vectors[:6]:
        calls.append(["--output", "text", "check", "--delta", v])
    calls += [
        ["check", "--delta", "1"], ["check", "--delta", "2,3"], ["check", "--delta", "1,-1,3"],
        ["check", "--delta", "1,,2"], ["check", "--delta", "1, 2"], ["check", "--delta", "1,+2"],
        ["check", "--delta", "1,1_0"], ["check", "--delta", "1,6006"], ["--budget", "10", "check", "--delta", "1,6006"],
        ["check", "--delta", "1,100000000000000"], ["--budget", "10", "check", "--delta", "2,100000000000000"],
    ]

    for p in (5, 7):
        for _ in range(12):
            d = rng.randint(2, 6)
            delta = [1] + [0] * d
            for _ in range(p - 1):
                delta[rng.randint(1, d)] += 1
            calls.append(["classify", "--delta", ",".join(map(str, delta))])
    calls += [
        ["classify", "--delta", "1,0,4,0"],
        ["--output", "text", "classify", "--delta", "1,0,4,0"],
        ["--output", "text", "classify", "--delta", "1,0,2,0,1,1,0,2,0"],
        ["classify", "--delta", "1,0,2,0,1,1,0,2,0"],
        ["--budget", "3", "classify", "--delta", "1,0,2,0,1,1,0,2,0"],
        ["--budget", "3", "classify", "--delta", "1,0,4,0"],
        # classify reads the volume from the vector and has no --volume flag
        ["classify", "--delta", "1,0,4,0", "--volume", "7"],
        ["classify", "--delta", "1,100000000000000"],
        ["classify", "--delta", "2,0,4,0"],
        ["classify", "--delta", "1,0,4,0", "--volume", "x"],
    ]

    for p, dims in ((5, range(1, 8)), (7, range(1, 6))):
        for d in dims:
            calls.append(["enumerate", "--volume", str(p), "--dim", str(d)])
    calls += [
        ["enumerate", "--volume", "5", "--dim", "2", "--exhaustive-crosscheck"],
        ["enumerate", "--volume", "5", "--dim", "3", "--exhaustive-crosscheck"],
        ["enumerate", "--volume", "7", "--dim", "2", "--exhaustive-crosscheck"],
        ["--output", "text", "enumerate", "--volume", "5", "--dim", "3"],
        ["--output", "text", "enumerate", "--volume", "7", "--dim", "3", "--exhaustive-crosscheck"],
        ["enumerate", "--volume", "5", "--dim", "0"],
        ["enumerate", "--volume", "5", "--dim", "-2"],
        ["enumerate", "--volume", "5", "--dim", "x"],
        ["--budget", "10", "enumerate", "--volume", "7", "--dim", "1000"],
        ["enumerate", "--volume", "7", "--dim", "1000"],
        ["enumerate", "--volume", "5", "--dim", "2000"],
        ["--budget", "100", "enumerate", "--volume", "5", "--dim", "20"],
        ["--budget", "100", "enumerate", "--volume", "7", "--dim", "9"],
        ["--budget", "40", "enumerate", "--volume", "5", "--dim", "4", "--exhaustive-crosscheck"],
    ]

    for d, vol in ((1, 5), (2, 5), (2, 6), (3, 4), (3, 7), (2, 9), (4, 3), (1, 1), (2, 1), (3, 8), (2, 12)):
        calls.append(["search", "--dim", str(d), "--volume", str(vol)])
    calls += [
        ["--output", "text", "search", "--dim", "2", "--volume", "5"],
        ["search", "--dim", "0", "--volume", "5"],
        ["search", "--dim", "2", "--volume", "0"],
        ["--budget", "10", "search", "--dim", "6", "--volume", "13"],
        ["--budget", "10", "search", "--dim", "1", "--volume", "3000000"],
        ["search", "--dim", "1", "--volume", "6000"],
    ]

    calls += [
        ["delta"], ["oracle"], ["search", "--dim", "2"], ["hnf", "--m", "5", "--coeffs", "0,1,1,0"],
        ["--budget", "1e3", "search", "--dim", "2", "--volume", "5"],
        ["--threads", "2", "search", "--dim", "3", "--volume", "7"],
        ["search", "--dim", "3", "--volume", "7", "--threads", "2"],
        ["search", "--dim", "٣", "--volume", "7"],
    ]
    return calls


# Files and calls added after the first recording. They draw nothing from the random stream and come
# after every earlier call, so no earlier entry moves.
LATER_FILES = {"wide.json": '{"vertices": [[0, 0], [1, 0], [5, 701]]}'}
LATER_CALLS = [
    # long flags are accepted by their full names only
    ["search", "--dim", "3", "--vol", "7"],
    ["--bud", "5", "search", "--dim", "2", "--volume", "5"],
    ["--out", "text", "search", "--dim", "2", "--volume", "5"],
    ["enumerate", "--volume", "5", "--dim", "2", "--exh"],
    ["delta", "--sim", "segment.json"],
    ["hnf", "--m", "5", "--coef", "0,1,1,0", "--dim", "3"],
    # the classification table has volumes 5 and 7 only
    ["classify", "--delta", "1,1,1,1,1,1,1,1,1,1,1"],
    ["enumerate", "--volume", "9", "--dim", "3"],
    # delta-vectors in a list print inline
    ["--output", "text", "search", "--dim", "3", "--volume", "7"],
    # a box group above one 512-element piece, whose last piece is narrower
    ["delta", "--simplex", "wide.json"],
    # witness case viii, one vector for each sign of i1 + i3 - 2*i2
    ["classify", "--delta", "1,1,1,1,1,1,1"],
    ["classify", "--delta", "1,0,1,0,1,1,1,1,0,1,0"],
    ["classify", "--delta", "1,0,1,1,0,1,1,0,1,1,0"],
]


def record():
    """Write the corpus: run every call in a temporary directory holding the corpus's files."""
    rng = random.Random(20261018)
    files = _simplex_files(rng)
    argvs = _argv_list(rng, files) + LATER_CALLS
    files.update(LATER_FILES)
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        for name, text in files.items():
            Path(directory, name).write_text(text, encoding="utf-8")
        os.chdir(directory)
        try:
            calls = []
            for argv in argvs:
                code, out, err = run(argv)
                calls.append({"argv": argv, "exit": code, "stdout": out, "stderr": err})
        finally:
            os.chdir(here)
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps({"files": files, "calls": calls}, indent=0) + "\n", encoding="utf-8")
    print(f"{len(calls)} calls, {CORPUS.stat().st_size} bytes")


if __name__ == "__main__":
    record()
