"""End-to-end checks of the command line: shapes, exit codes, determinism."""

import concurrent.futures
import json
import os
import shutil
import subprocess
import sys

import pytest

from quivergrass import weyl
from quivergrass.cli import main


A2 = {"vertices": ["1", "2"], "arrows": [{"name": "a", "from": "1", "to": "2"}]}
A3 = {
    "vertices": ["1", "2", "3"],
    "arrows": [
        {"name": "a", "from": "1", "to": "2"},
        {"name": "b", "from": "2", "to": "3"},
    ],
}
KRONECKER = {
    "vertices": ["1", "2"],
    "arrows": [
        {"name": "a", "from": "1", "to": "2"},
        {"name": "b", "from": "1", "to": "2"},
    ],
}


@pytest.fixture
def a2_path(tmp_path):
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(A2))
    return str(path)


@pytest.fixture
def a3_path(tmp_path):
    path = tmp_path / "a3.json"
    path.write_text(json.dumps(A3))
    return str(path)


@pytest.fixture
def kronecker_path(tmp_path):
    path = tmp_path / "kronecker.json"
    path.write_text(json.dumps(KRONECKER))
    return str(path)


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, argv):
    rc, out, _ = run_cli(capsys, argv)
    assert rc == 0, out
    return json.loads(out)


def test_classify_finite(capsys, a2_path):
    assert run_json(capsys, ["classify", a2_path]) == {"kind": "finite", "label": "A2"}


def test_classify_affine_has_null_label(capsys, kronecker_path):
    assert run_json(capsys, ["classify", kronecker_path]) == {
        "kind": "affine",
        "label": None,
    }


def test_json_flag_accepted(capsys, a2_path):
    rc, out, _ = run_cli(capsys, ["classify", a2_path, "--json"])
    assert rc == 0
    assert json.loads(out)["kind"] == "finite"


def test_ppalg_dims(capsys, a2_path):
    assert run_json(capsys, ["ppalg-dims", a2_path, "--max-len", "2"]) == [2, 2, 0]


def test_injective_blocks(capsys, a2_path):
    obj = run_json(capsys, ["injective", a2_path, "--socle", "1:1,2:1"])
    assert set(obj) == {"rep", "socle", "projection", "trunc", "full"}
    assert obj["socle"]["dims"] == {"1": 1, "2": 1}
    assert obj["full"] is True
    dims = obj["rep"]["dims"]
    assert dims == {"1": 2, "2": 2}
    for v in ("1", "2"):
        matrix = obj["projection"][v]
        assert len(matrix) == obj["socle"]["dims"][v]
        assert len(matrix[0]) == dims[v]
        cols = obj["socle"]["columns"][v]
        assert len(cols) == obj["socle"]["dims"][v]
        for row, col in enumerate(cols):
            assert matrix[row][col] == 1


def test_projective_shape(capsys, a2_path):
    obj = run_json(capsys, ["projective", a2_path, "--w", "1,0"])
    assert obj["top"] == {"1": 1, "2": 0}
    assert obj["rep"]["dims"] == {"1": 1, "2": 1}


def test_demazure_stages(capsys, a2_path):
    obj = run_json(capsys, ["demazure", a2_path, "--w", "1,1", "--word", "1 2 1"])
    assert obj["word"] == ["1", "2", "1"]
    assert [s["dims"] for s in obj["stages"]] == [
        {"1": 0, "2": 0},
        {"1": 1, "2": 0},
        {"1": 1, "2": 2},
        {"1": 2, "2": 2},
    ]
    last = obj["stages"][-1]["subrep"]
    assert last["dims"] == {"1": 2, "2": 2}
    assert set(last["bases"]) == {"1", "2"}


def test_demazure_on_a_wild_quiver(capsys, tmp_path, monkeypatch):
    wild = {
        "vertices": ["1", "2", "3"],
        "arrows": [
            {"name": "a", "from": "1", "to": "2"},
            {"name": "b", "from": "1", "to": "2"},
            {"name": "c", "from": "2", "to": "3"},
            {"name": "d", "from": "2", "to": "3"},
        ],
    }
    path = tmp_path / "wild.json"
    path.write_text(json.dumps(wild))
    # The wild framing's orbit is infinite; the verb must not enumerate it.
    monkeypatch.setattr(weyl, "_orbit", lambda *args: pytest.fail("an orbit was built"))
    obj = run_json(capsys, ["demazure", str(path), "--w", "1,0,0", "--word", "2 1"])
    assert obj["stages"][-1]["dims"] == {"1": 1, "2": 2, "3": 0}


def test_count_fields(capsys, a2_path):
    obj = run_json(
        capsys, ["count", a2_path, "--w", "1,1", "--v", "1,1", "--primes", "2,3,5"]
    )
    assert obj["polynomial"] == [1, 2]
    assert obj["chi"] == 3
    assert obj["leading"] == 2
    assert obj["counts"] == [[2, 5], [3, 7], [5, 11]]
    assert obj["interpolation_primes"] == [2, 3]
    assert obj["consistency_primes"] == [5]


def test_count_workers_byte_identical(capsys, monkeypatch, a2_path):
    pools = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    # The command line imports the pool from concurrent.futures when it starts one.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    base = ["count", a2_path, "--w", "1,1", "--v", "1,1", "--primes", "2,3,5"]
    rc, serial, _ = run_cli(capsys, base)
    assert rc == 0
    for workers in (2, 3):
        del pools[:]
        rc, parallel, _ = run_cli(capsys, base + ["--workers", str(workers)])
        assert rc == 0
        assert serial == parallel
        # Three planned primes (2, 3 to interpolate, 5 to certify) and the
        # cores bound the pool; a pool of one is not started.
        bound = min(workers, 3, os.cpu_count() or 1)
        assert pools == ([bound] if bound > 1 else [])


def test_count_worker_builds_its_hull_once(monkeypatch):
    from quivergrass import grassmann
    from quivergrass.quiver import quiver_from_json

    grassmann._hull.cache_clear()
    builds = []
    real = grassmann.injective_hull
    monkeypatch.setattr(grassmann, "injective_hull", lambda *a: builds.append(a) or real(*a))
    q, ones = quiver_from_json(json.dumps(A2)), {"1": 1, "2": 1}
    assert [grassmann.hull_count(q, ones, ones, p) for p in (2, 3, 5)] == [5, 7, 11]
    assert len(builds) == 1


def test_weightmult(capsys, a2_path):
    rc, out, _ = run_cli(capsys, ["weightmult", a2_path, "--w", "1,1", "--v", "1,1"])
    assert rc == 0
    assert out == "2\n"


def test_rep_matrices(capsys, a2_path):
    obj = run_json(capsys, ["rep-matrices", a2_path, "--w", "1,0"])
    assert [p["index"] for p in obj["points"]] == [0, 1, 2]
    assert [p["weight"] for p in obj["points"]] == [
        {"1": 0, "2": 0},
        {"1": 1, "2": 0},
        {"1": 1, "2": 1},
    ]
    assert obj["H"]["1"] == [[1, 0, 0], [0, -1, 0], [0, 0, 0]]
    assert obj["E"]["1"] == [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
    assert obj["F"]["1"] == [[0, 0, 0], [1, 0, 0], [0, 0, 0]]
    assert all(isinstance(x, int) for row in obj["E"]["2"] for x in row)


def test_chevalley_report(capsys, a2_path):
    obj = run_json(capsys, ["chevalley", a2_path, "--w", "1,0"])
    assert obj["passed"] is True
    assert obj["pair_count"] == 3
    assert all({"name", "passed", "details"} == set(item) for item in obj["items"])


def test_verify_core(capsys, a2_path):
    rc, out, err = run_cli(capsys, ["verify", "core"])
    assert rc == 0
    obj = json.loads(out)
    assert obj["suite"] == "core"
    assert obj["passed"] is True
    assert [r["number"] for r in obj["results"]] == list(range(1, 13))
    assert all(r["passed"] for r in obj["results"])
    assert err.count("PASS") == 12


def test_verify_unknown_suite(capsys):
    rc, _, err = run_cli(capsys, ["verify", "nope"])
    assert rc == 2
    assert "unknown suite" in err


def test_validation_exit_code(capsys, a2_path):
    rc, _, err = run_cli(capsys, ["injective", a2_path, "--socle", "1:1,3:1"])
    assert rc == 2
    assert "unknown vertex" in err


def test_cap_exit_code(capsys, a2_path):
    rc, _, err = run_cli(
        capsys,
        ["count", a2_path, "--w", "1,1", "--v", "1,1", "--primes", "2,3,5", "--cap", "1"],
    )
    assert rc == 3
    assert "cap" in err


def test_truncation_exit_code(capsys, a2_path):
    rc, _, err = run_cli(
        capsys,
        ["demazure", a2_path, "--w", "1,1", "--word", "1 2 1", "--trunc", "1"],
    )
    assert rc == 3
    assert "truncation" in err


@pytest.mark.parametrize("verb", ["rep-matrices", "chevalley"])
def test_point_list_truncation_exit_code(capsys, a3_path, verb):
    # The A3 hull framed at the middle vertex needs length 3; at 2 the weight
    # (1, 2, 1) has no finite point list.
    rc, out, err = run_cli(capsys, [verb, a3_path, "--w", "0,1,0", "--trunc", "2"])
    assert (rc, out) == (3, "")
    assert err.startswith("limit exceeded: ")
    assert "(1, 2, 1)" in err and "truncation" in err


@pytest.mark.parametrize("verb, message", [
    ("rep-matrices", "(1, 1)"),
    ("chevalley", "no finite point list"),
])
def test_one_prime_gives_no_points_to_a_non_minuscule_framing(capsys, a2_path, verb, message):
    # The adjoint of A2 has a positive-dimensional stratum at (1, 1); a
    # single prime's constant count is no reason to list its points.
    rc, out, err = run_cli(capsys, [verb, a2_path, "--w", "1,1", "--primes", "2"])
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ["injective", "--socle", "1,1", "--trunc"],
    ["projective", "--w", "1,1", "--trunc"],
    ["demazure", "--w", "1,1", "--word", "1", "--trunc"],
    ["count", "--w", "1,1", "--v", "1,1", "--primes", "2,3,5", "--trunc"],
    ["count", "--w", "1,1", "--v", "1,1", "--primes", "2,3,5", "--cap"],
    ["rep-matrices", "--w", "1,0", "--trunc"],
    ["rep-matrices", "--w", "1,0", "--cap"],
], ids=lambda argv: f"{argv[0]}{argv[-1]}")
def test_trunc_and_cap_flags_must_be_positive(capsys, a2_path, argv, value):
    rc, out, err = run_cli(capsys, [argv[0], a2_path, *argv[1:], value])
    assert (rc, out) == (2, "")
    assert err == f"error: {argv[-1]} must be a positive integer\n"


def test_empty_prime_list_is_rejected_by_the_prime_check(capsys, a2_path):
    rc, _, err = run_cli(capsys, ["count", a2_path, "--w", "1,1", "--v", "1,1", "--primes", ","])
    assert rc == 2
    assert err == "error: at least one prime is required\n"


def test_count_takes_a_61_bit_prime_and_refuses_one_past_the_primality_bound(capsys, a2_path):
    base = ["count", a2_path, "--w", "1,1", "--v", "0,0", "--primes"]
    obj = run_json(capsys, [*base, str(2**61 - 1)])
    assert obj["counts"] == [[2**61 - 1, 1], [2**61 + 15, 1]]
    rc, out, err = run_cli(capsys, [*base, "3317044064679887385961981"])
    assert (rc, out) == (2, "")
    assert err.startswith("error: cannot decide whether 3317044064679887385961981 is prime")


def test_count_names_the_spare_prime_it_cannot_choose(capsys, a3_path):
    base = ["count", a3_path, "--w", "1,1,1", "--v", "0,0,0", "--primes"]
    rc, out, err = run_cli(capsys, [*base, "3317044064679887385961813"])
    assert (rc, out) == (2, "")
    assert err == (
        "error: cannot choose a spare (consistency) prime above 3317044064679887385961813: "
        "whether 3317044064679887385961981 is prime cannot be decided; pass one more prime\n"
    )
    assert run_json(capsys, [*base, "2,3317044064679887385961813"])["chi"] == 1


def test_config_file_supplies_cap_and_flags_win(capsys, tmp_path, a2_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"cap": 1}))
    base = ["count", a2_path, "--w", "1,1", "--v", "1,1", "--primes", "2,3,5"]
    rc, _, _ = run_cli(capsys, base + ["--config", str(config)])
    assert rc == 3
    rc, _, _ = run_cli(capsys, base + ["--config", str(config), "--cap", "100000"])
    assert rc == 0


def test_config_rejects_unknown_key(capsys, tmp_path, a2_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"speed": 11}))
    rc, _, err = run_cli(capsys, ["classify", a2_path, "--config", str(config)])
    assert rc == 2
    assert "unknown config key" in err


def test_missing_quiver_file(capsys, tmp_path):
    rc, _, err = run_cli(capsys, ["classify", str(tmp_path / "absent.json")])
    assert rc == 2
    assert "cannot read" in err


def test_malformed_quiver_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    rc, _, err = run_cli(capsys, ["classify", str(path)])
    assert rc == 2
    assert "invalid JSON" in err


def test_byte_identical_reruns(capsys, a2_path):
    argv = ["demazure", a2_path, "--w", "1,1", "--word", "2 1 2"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


@pytest.mark.skipif(shutil.which("quivergrass") is None, reason="script not installed")
def test_console_script(tmp_path):
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(A2))
    proc = subprocess.run(
        ["quivergrass", "classify", str(path)],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"kind": "finite", "label": "A2"}


def test_python_m_invocation(tmp_path):
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(A2))
    proc = subprocess.run(
        [sys.executable, "-m", "quivergrass.cli", "weightmult",
         str(path), "--w", "2,0", "--v", "1,0"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1\n"


def _imports(argv):
    """Exit status and the modules a fresh `python -m quivergrass.cli` imports."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "quivergrass.cli", *argv],
        capture_output=True,
        text=True,
        check=False,
    )
    names = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    return proc.returncode, names


# The standard library's `dataclasses` and what it pulls in at import.
DATACLASS_IMPORTS = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def test_classify_imports_only_what_it_calls(tmp_path):
    path = tmp_path / "a3.json"
    path.write_text(json.dumps(A3))
    rc, names = _imports(["classify", str(path)])
    assert rc == 0
    assert "quivergrass.quiver" in names
    unwanted = [f"quivergrass.{m}" for m in
                ("acceptance", "geomrep", "grassmann", "demazure", "hull", "weyl")]
    assert not names & {*unwanted, "concurrent.futures.process"}
    assert not names & DATACLASS_IMPORTS


def test_verify_imports_the_battery():
    rc, names = _imports(["verify", "core"])
    assert rc == 0
    assert "quivergrass.acceptance" in names
    assert not names & DATACLASS_IMPORTS
