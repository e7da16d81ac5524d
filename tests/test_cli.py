"""Command-line behavior: exit codes, JSON determinism, output content."""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import bts.cli
import bts.invariants
import bts.spectral
from bts import __version__
from bts.cli import main

DIAG = {"d": 3, "mu": None, "entries": {"000": "1", "111": "2"}}
CUBIC = {"d": 3, "mu": [3], "entries": {"0": "1", "3": "1"}}
SYM21 = {"d": 3, "mu": [2, 1], "entries": {"00": "1", "21": "2"}}
WITNESSES = Path(__file__).parent / "witnesses"


@pytest.fixture
def diag_file(tmp_path):
    p = tmp_path / "diag.json"
    p.write_text(json.dumps(DIAG))
    return str(p)


@pytest.fixture
def cubic_file(tmp_path):
    p = tmp_path / "cubic.json"
    p.write_text(json.dumps(CUBIC))
    return str(p)


@pytest.fixture
def sym21_file(tmp_path):
    p = tmp_path / "sym21.json"
    p.write_text(json.dumps(SYM21))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_or_exit(capsys, *argv):
    """Like ``run``, with the code of a SystemExit the parser raises (``--version``, usage errors)."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


# --- a reentrant main ----------------------------------------------------------


def test_main_builds_its_parser_on_the_first_call_only(capsys, monkeypatch, diag_file):
    built = []
    original = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    bts.cli._parser.cache_clear()
    try:
        after_each = []
        for argv in (["degrees", "--d", "3"], ["invariants", "--input", diag_file], ["degrees", "--mu", "2,1"]):
            assert run(capsys, *argv)[0] == 0
            after_each.append(len(built))
    finally:
        bts.cli._parser.cache_clear()
    # the top-level parser and one per subcommand, all during the first call
    assert built[0] == "bts" and len(built) == 7
    assert after_each == [7, 7, 7]


def test_main_carries_no_defaults_between_calls(capsys, monkeypatch, diag_file):
    seeds = []
    original = bts.cli.singular_values
    monkeypatch.setattr(bts.cli, "singular_values", lambda t, seed: seeds.append(seed) or original(t, seed=seed))
    code, out, _ = run(capsys, "svals", "--input", diag_file, "--seed", "5", "--format", "json")
    assert code == 0 and out.startswith("{")
    code, out, _ = run(capsys, "svals", "--input", diag_file)
    assert code == 0 and out.startswith("mu = (1, 1, 1)")
    assert seeds == [5, 0]
    docs = [json.loads(run(capsys, "verify-product", "--mu", "1,1", "--trials", "1", "--jobs", "1",
                           *extra, "--format", "json")[1]) for extra in (["--seed", "3"], [])]
    assert [doc["seed"] for doc in docs] == [3, 42]


@pytest.mark.parametrize(
    "argv, code, stream, text",
    [
        (["--version"], 0, "out", f"bts {__version__}\n"),
        (["nope"], 2, "err", "bts: error: argument command: invalid choice: 'nope'"),
        (["verify-product"], 2, "err", "bts verify-product: error: the following arguments are required: --mu"),
    ],
    ids=["version", "unknown-command", "verify-product-without-mu"],
)
def test_parse_outcome_is_the_same_on_every_call(capsys, argv, code, stream, text):
    bts.cli._parser.cache_clear()
    first = run_or_exit(capsys, *argv)
    assert run(capsys, "degrees", "--d", "3")[0] == 0
    later = [run_or_exit(capsys, *argv) for _ in range(2)]
    assert later == [first, first]
    assert first[0] == code
    assert text in (first[1] if stream == "out" else first[2])


def test_svals_diagonal(capsys, diag_file):
    code, out, _ = run(capsys, "svals", "--input", diag_file, "--seed", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ed_degree"] == 6 and len(doc["data"]) == 6
    assert max(d["residual"] for d in doc["data"]) < 1e-9
    assert doc["best_rank_one"]["distance"] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("text, message", [
    pytest.param('{"d": 3, "mu": null garbage}', "line 1, column", id="garbage"),
    pytest.param('[1, 2]', "bad tensor document", id="list"),
    pytest.param('{"d": 3, "mu": null, "entries": {"000": [1]}}', "bad tensor document", id="entry-list"),
    pytest.param('{"d": 3, "mu": null, "entries": {"000": null}}', "bad tensor document", id="entry-null"),
    pytest.param('{"d": 3, "mu": [2, 1], "entries": {"00": {"x": 1}}}', "bad tensor document", id="entry-dict"),
    pytest.param('{"d": 3, "mu": null, "entries": {"000": NaN}}', "not finite", id="entry-nan"),
    pytest.param('{"d": 3, "mu": null, "entries": {"000": Infinity}}', "not finite", id="entry-infinity"),
    pytest.param('{"d": 3, "mu": null, "entries": {"000": 1e400}}', "not finite", id="entry-1e400"),
    pytest.param('{"d": 3, "mu": [2, 1], "entries": {"00": 1.5, "21": NaN}}', "not finite", id="mu-entry-nan"),
])
def test_svals_malformed_json_exit_2(capsys, tmp_path, text, message):
    p = tmp_path / "bad.json"
    p.write_text(text)
    code, _, err = run(capsys, "svals", "--input", str(p))
    assert code == 2
    assert message in err


@pytest.mark.parametrize("doc", [
    pytest.param({"d": 3, "mu": None, "entries": [3, -1, 2, 5, -4, 1, 2, -3]}, id="dense"),
    pytest.param({"d": 2, "mu": [2], "entries": [1, 2, 3]}, id="symmetric"),
])
def test_svals_entries_list_exits_2(capsys, tmp_path, doc):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(capsys, "svals", "--input", str(p))
    assert code == 2 and out == ""
    assert "bad tensor document:" in err and "entries" in err


def test_svals_mu_override_symmetric(capsys, tmp_path):
    # dense symmetric tensor recompressed as mu=(3): three eigen data
    entries = {"000": "1", "111": "1"}
    p = tmp_path / "sym.json"
    p.write_text(json.dumps({"d": 3, "mu": None, "entries": entries}))
    code, out, _ = run(capsys, "svals", "--input", str(p), "--mu", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["mu"] == [3] and len(doc["data"]) == 3


def test_svals_mu_override_rejects_asymmetric(capsys, tmp_path):
    p = tmp_path / "asym.json"
    p.write_text(json.dumps({"d": 3, "mu": None, "entries": {"010": "1", "100": "2"}}))
    code, _, err = run(capsys, "svals", "--input", str(p), "--mu", "2,1")
    assert code == 2
    assert "not mu-symmetric" in err


def test_verify_product_json_deterministic(capsys):
    args = ("verify-product", "--mu", "1,1,1", "--trials", "3", "--seed", "42",
            "--jobs", "1", "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["failures"] == 0 and doc["max_rel_error"] < 1e-8


def test_verify_product_parallel_matches_serial(capsys):
    base = ("verify-product", "--mu", "2,1", "--trials", "4", "--seed", "9", "--format", "json")
    _, serial, _ = run(capsys, *base, "--jobs", "1")
    _, parallel, _ = run(capsys, *base, "--jobs", "2")
    assert serial == parallel


def test_verify_product_exact_matrix_flag(capsys):
    code, out, _ = run(capsys, "verify-product", "--mu", "1,1", "--trials", "2",
                       "--seed", "4", "--jobs", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert all("determinant" in r["note"] for r in doc["rows"])


def test_verify_product_symmetric_constant_stable(capsys):
    # the product formula holds with constant 1, so no constant is reported
    code, out, _ = run(capsys, "verify-product", "--mu", "3", "--trials", "5",
                       "--seed", "2", "--jobs", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert "constant_values" not in doc
    assert not any("constant" in r for r in doc["rows"])
    assert all(r["rel_error"] <= doc["tolerance"] for r in doc["rows"])


def test_degrees_d3(capsys):
    code, out, _ = run(capsys, "degrees", "--d", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ed_degree"] == 6 and doc["delta_mu"] == 4 and doc["identity_ok"]
    empty = next(r for r in doc["rows"] if r["selected_parts"] == [])
    assert empty["deg_f"] == 4 and empty["alpha"] == -2


def test_degrees_mu_21_trivial_flag(capsys):
    code, out, _ = run(capsys, "degrees", "--mu", "2,1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    row = next(r for r in doc["rows"] if r["selected_parts"] == [2])
    assert not row["hypersurface"] and row["deg_f"] == 0 and row["inert"]


def test_degrees_d12_identity(capsys):
    code, out, _ = run(capsys, "degrees", "--d", "12", "--format", "json")
    assert code == 0
    assert json.loads(out)["identity_ok"]


@pytest.mark.parametrize(
    "argv, value",
    [
        (["verify-product", "--mu", "1,1,1", "--trials", "0"], "0"),
        (["verify-product", "--mu", "1,1,1", "--trials", "-4"], "-4"),
        (["random-check", "--trials", "0"], "0"),
        (["degrees", "--d", "0"], "0"),
        (["degrees", "--d", "-1"], "-1"),
        (["verify-product", "--mu", "1,1,1", "--jobs", "0"], "0"),
        (["verify-product", "--mu", "1,1,1", "--jobs", "-3"], "-3"),
    ],
    ids=["verify-product-trials-0", "verify-product-trials-negative", "random-check-trials-0", "degrees-d-0",
         "degrees-d-negative", "verify-product-jobs-0", "verify-product-jobs-negative"],
)
def test_counts_below_one_exit_2_naming_the_value(capsys, argv, value):
    # a check of no trials must not pass, --d 0 or -1 is no order, and no pool has 0 or -3 workers
    code, out, err = run_or_exit(capsys, *argv)
    assert code == 2 and out == ""
    assert f"argument {argv[-2]}: must be at least 1, got {value}" in err


@pytest.mark.parametrize("command", ["svals", "edpoly", "verify-product", "random-check"])
def test_negative_seed_exits_2_naming_the_value(capsys, diag_file, command):
    # a random generator takes no negative seed; the parser rejects it before any solve
    extra = {"svals": ["--input", diag_file], "edpoly": ["--input", diag_file],
             "verify-product": ["--mu", "1,1,1"], "random-check": []}[command]
    code, out, err = run_or_exit(capsys, command, *extra, "--seed", "-1")
    assert code == 2 and out == ""
    assert "argument --seed: must be at least 0, got -1" in err


@pytest.mark.parametrize("command, extra", [("verify-product", ["--mu", "1,1,1"]), ("random-check", [])])
def test_nan_tolerance_exits_2(capsys, command, extra):
    # no error exceeds a NaN tolerance, so it would pass every check
    code, out, err = run_or_exit(capsys, command, *extra, "--trials", "1", "--tol", "nan")
    assert code == 2 and out == ""
    assert "argument --tol: must be a number, got nan" in err


@pytest.mark.parametrize("value", ["inf", "-inf", "1e400"])
@pytest.mark.parametrize("command, extra", [("verify-product", ["--mu", "1,1,1"]), ("random-check", [])])
def test_infinite_tolerance_exits_2(capsys, command, extra, value):
    # an infinite tolerance passes a trial whose error is inf, so it checks nothing
    code, out, err = run_or_exit(capsys, command, *extra, "--trials", "1", f"--tol={value}")
    assert code == 2 and out == ""
    assert f"argument --tol: must be finite, got {value}" in err


@pytest.mark.parametrize("command, extra", [("verify-product", ["--mu", "1,1,1"]), ("random-check", [])])
def test_finite_negative_tolerance_is_accepted(capsys, command, extra):
    # a negative tolerance is a strict check that every trial fails, not a parse error
    code, out, err = run_or_exit(capsys, command, *extra, "--trials", "1", "--tol=-1", "--format", "json")
    assert code == 1 and json.loads(out)


def test_invariants_takes_no_seed(capsys, diag_file):
    # closed-form invariants draw no random numbers
    code, out, err = run_or_exit(capsys, "invariants", "--input", diag_file, "--seed", "5")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --seed 5" in err


def test_invariants_rational_output(capsys, cubic_file):
    code, out, _ = run(capsys, "invariants", "--input", cubic_file, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["theta"] == ["2", "2", "2", "2"]
    assert doc["extra_root"] == "1/2"
    assert doc["delta_q"] == "2"


def test_invariants_evaluates_the_record_once(capsys, monkeypatch, diag_file):
    # a0, a5 and a6 come from the same record as theta, phi, det and f3
    calls = []
    original = bts.invariants._cleared_invariants_222
    monkeypatch.setattr(bts.invariants, "_cleared_invariants_222", lambda t: calls.append(t) or original(t))
    code, out, _ = run(capsys, "invariants", "--input", diag_file, "--format", "json")
    assert code == 0 and len(calls) == 1
    doc = json.loads(out)
    assert (doc["a0"], doc["a5"], doc["a6"]) == ("1024", "-5125", "625")


@pytest.mark.parametrize("fixture, extra_root", [("sym21_file", "4/5"), ("cubic_file", "1/2")])
def test_invariants_evaluates_the_record_once_on_symmetric_shapes(capsys, monkeypatch, request, fixture, extra_root):
    # the extra root's cross-check uses the record the command printed
    calls = []
    original = bts.invariants._cleared_invariants_222
    monkeypatch.setattr(bts.invariants, "_cleared_invariants_222", lambda t: calls.append(t) or original(t))
    code, out, _ = run(capsys, "invariants", "--input", request.getfixturevalue(fixture), "--format", "json")
    assert code == 0 and len(calls) == 1
    assert json.loads(out)["extra_root"] == extra_root


def test_edpoly_command(capsys, diag_file):
    code, out, _ = run(capsys, "edpoly", "--input", diag_file, "--seed", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["edpoly_dual"]) == 7
    assert doc["edpoly_dual"][0] == pytest.approx(1024.0, rel=1e-8)
    # reflection consistency: top coefficients agree up to (-1)^degree
    degree = len(doc["edpoly_dual"]) - 1
    assert doc["edpoly_primal"][-1] == pytest.approx(
        (-1) ** degree * doc["edpoly_dual"][-1], rel=1e-9
    )


def test_random_check(capsys):
    code, out, _ = run(capsys, "random-check", "--trials", "3", "--seed", "11", "--format", "json")
    assert code == 0
    assert json.loads(out)["failures"] == []


def test_random_check_table_counts_only_trials_without_failures(capsys, monkeypatch):
    # trial 1 fails twice (its zeroed factor also differs from the rotated one):
    # the table reports 2 of 3 trials clean, and the JSON still counts it as checked
    original = bts.cli.invariants_222

    def rigged(t):
        inv = original(t)
        if inv.exact and t == bts.cli.random_tensor(12, 3):
            return bts.invariants.InvariantSet222(inv.theta, inv.phi, inv.phi1, inv.det, (0,) + inv.f3[1:], True)
        return inv

    monkeypatch.setattr(bts.cli, "invariants_222", rigged)
    code, out, _ = run(capsys, "random-check", "--trials", "3", "--seed", "11")
    assert code == 1
    assert out.splitlines()[0] == "random-check: 2/3 trials clean"
    assert out.splitlines()[1].startswith("  FAIL trial 1: nonpositive quartic factor")
    code, out, _ = run(capsys, "random-check", "--trials", "3", "--seed", "11", "--format", "json")
    doc = json.loads(out)
    assert code == 1 and doc["checked"] == 3 and len(doc["failures"]) == 2
    assert all(f.startswith("trial 1: ") for f in doc["failures"])
    code, out, _ = run(capsys, "random-check", "--trials", "1", "--tol=-1")
    assert code == 1 and out.startswith("random-check: 0/1 trials clean\n")


@pytest.mark.parametrize(
    "doc",
    [
        # a full tensor with non-real singular data
        pytest.param(
            {"d": 3, "mu": None, "entries": {"000": "1", "001": "2", "010": "-3", "011": "1",
                                             "101": "5", "110": "2", "111": "-1"}},
            id="nonreal",
        ),
        pytest.param({"d": 2, "mu": None, "entries": {"00": "2", "01": "1", "10": "-1", "11": "3"}}, id="matrix"),
        pytest.param({"d": 3, "mu": [2, 1], "entries": {"00": "1", "10": "-2", "11": "3", "21": "1"}}, id="sym21"),
        # (1,2) x (3,-1) x (2,5)
        pytest.param({"d": 3, "mu": None, "entries": {"000": "6", "001": "15", "010": "-2", "011": "-5",
                                                      "100": "12", "101": "30", "110": "-4", "111": "-10"}},
                     id="rank-one"),
    ],
)
def test_svals_json_byte_identical(capsys, tmp_path, doc):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    args = ("svals", "--input", str(path), "--seed", "3", "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_product_unsupported_mu(capsys):
    code, _, err = run(capsys, "verify-product", "--mu", "4", "--trials", "1")
    assert code == 2
    assert "supports" in err


def test_svals_exit_3_names_every_attempt(capsys, tmp_path, monkeypatch):
    def failing_values(_m0, _m1):
        raise bts.spectral.SolverFailureError("no convergence")

    monkeypatch.setattr(bts.spectral, "_pencil_values", failing_values)
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"d": 3, "mu": None, "entries": {"000": "1", "001": "2", "010": "-3", "111": "-1"}}))
    code, _, err = run(capsys, "svals", "--input", str(path))
    assert code == 3
    for k in range(3):
        assert f"attempt {k}: no convergence" in err


def test_svals_exit_3_counts_survivors_on_every_attempt(capsys, tmp_path, monkeypatch):
    # the second eigenvalue is replaced by the first: its candidate polishes
    # onto the first one's tuple, so five distinct tuples are left of six
    values = bts.spectral._pencil_values

    def repeated_values(m0, m1):
        found = values(m0, m1)
        return [found[0], found[0], *found[2:]]

    monkeypatch.setattr(bts.spectral, "_pencil_values", repeated_values)
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"d": 3, "mu": None, "entries": {"000": "1", "001": "2", "010": "-3", "111": "-1"}}))
    code, out, err = run(capsys, "svals", "--input", str(path))
    assert code == 3 and out == ""
    for k in range(3):
        assert f"attempt {k}: 5 survivors (expected 6)" in err


def test_svals_symmetric_exit_3_names_its_cause(capsys, cubic_file, monkeypatch):
    # the symmetric chart makes one attempt; a failure of its eigenvalue routine still exits 3
    def failing_eigvals(_companion):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, "eigvals", failing_eigvals)
    code, out, err = run(capsys, "svals", "--input", cubic_file)
    assert code == 3 and out == ""
    assert err.rstrip().endswith("solver failure: companion eigenvalues failed: no convergence")
    assert "attempt 1" not in err


@pytest.mark.parametrize("name, attempts", [
    # theta_4 = 0: two of the six elimination candidates are isotropic
    ("01-theta4-zero", 3),
], ids=["theta4-zero"])
def test_svals_exit_3_names_an_isotropic_candidate_on_every_attempt(capsys, name, attempts):
    code, out, err = run(capsys, "svals", "--input", str(WITNESSES / f"{name}.json"))
    assert code == 3 and out == ""
    reasons = err.strip().splitlines()[-1].split("; ")
    assert len(reasons) == attempts
    for k, reason in enumerate(reasons):
        assert f"attempt {k}: vector (" in reason and reason.endswith("is numerically isotropic")


def test_svals_symmetric_names_an_isotropic_root_without_rotating(capsys, monkeypatch):
    # x0 (x0^2 + x1^2): its critical form x1 (x0^2 + x1^2) has the isotropic roots +-i,
    # which no rotation can change, so the chart makes one pass and rotates nothing
    def no_rotation(*_args):
        raise AssertionError("the symmetric chart should not rotate")

    monkeypatch.setattr(bts.spectral, "_rotation_pairs", no_rotation)
    monkeypatch.setattr(bts.spectral, "rotate_cs", no_rotation)
    code, out, err = run(capsys, "svals", "--input", str(WITNESSES / "05-isotropic-cubic.json"))
    assert code == 3 and out == ""
    last = err.strip().splitlines()[-1]
    assert "attempt" not in last and "; " not in last
    assert last.startswith("error: solver failure: vector (") and last.endswith("is numerically isotropic")


# The svals outcome of each witness in tests/witnesses: its exit code and, on exit 3, the cause its
# last stderr line names, or, on exit 0, its notes.
WITNESS_OUTCOMES = {
    # the defective locus of 2x2x2 tensors (theta_4 = 0, theta_1 = 0, f_{3,{3}} = 0):
    # isotropic elimination candidates on every attempt
    "01-theta4-zero": (3, "no rotation certified 6 singular tuples"),
    "02-theta4-zero": (3, "no rotation certified 6 singular tuples"),
    "03-theta1-zero": (3, "no rotation certified 6 singular tuples"),
    "04-f33-zero": (3, "no rotation certified 6 singular tuples"),
    # x0 (x0^2 + x1^2): the critical form has the isotropic roots +-i
    "05-isotropic-cubic": (3, "is numerically isotropic"),
    # x0^2 + x1^2
    "06-radial-quadratic": (3, "critical form vanishes identically"),
    "07-zero-cubic": (3, "zero tensor"),
    "08-zero-222": (3, "zero tensor"),
    # x0^3: the double critical root (0, 1) carries sigma = 0
    "09-pure-power": (0, ["collisions", "zero singular value"]),
    # critical form (z - 1)((z - 2)^2 + eps^2), eps = 1e-6 and 1e-8: the conjugate pair is merged
    "10-eps-1e-6": (3, "2 survivors (expected 3)"),
    "11-eps-1e-8": (3, "2 survivors (expected 3)"),
}


@pytest.mark.parametrize("path", sorted(WITNESSES.glob("*.json")), ids=lambda path: path.stem)
def test_svals_witness_outcome(capsys, path):
    want_code, want = WITNESS_OUTCOMES[path.stem]
    code, out, err = run(capsys, "svals", "--input", str(path), "--format", "json")
    assert code == want_code
    if code == 0:
        assert json.loads(out)["notes"] == want
    else:
        assert out == "" and want in err.strip().splitlines()[-1]


@pytest.mark.parametrize("name", ["10-eps-1e-6", "11-eps-1e-8"])
def test_svals_eps_cubic_reports_no_double_real_root(capsys, name):
    # the critical form (z - 1)((z - 2)^2 + eps^2) is square-free with one real root: an answer
    # has one real sigma^2 and three distinct ones, or the solve exits 3
    code, out, _ = run(capsys, "svals", "--input", str(WITNESSES / f"{name}.json"), "--format", "json")
    if code == 0:
        data = json.loads(out)["data"]
        assert sum(d["is_real"] for d in data) == 1
        assert len({(d["sigma_sq"]["re"], d["sigma_sq"]["im"]) for d in data}) == 3
    else:
        assert code == 3


def test_svals_symmetric_quartic_with_a_triple_critical_root(capsys, tmp_path):
    # (x0 + x1)^4: its critical form 4 (x0 + x1) (x0 - x1)^3 has a triple root
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"d": 4, "mu": [4], "entries": {str(j): "1" for j in range(5)}}))
    code, out, _ = run(capsys, "svals", "--input", str(path), "--seed", "13", "--format", "json")
    assert code == 0
    got = sorted(d["sigma_sq"]["re"] for d in json.loads(out)["data"])
    assert got == pytest.approx([0, 0, 0, 16], abs=1e-12)


@pytest.mark.parametrize("command", ["svals", "edpoly"])
@pytest.mark.parametrize("power, code", [(10, 0), (15, 3), (20, 3), (25, 3), (40, 3)])
def test_huge_exact_input_exits_3_on_overflow(capsys, tmp_path, command, power, code):
    # an exact integer 2x2x2 tensor with entries near 10^power: from about
    # 10^15 a distance-polynomial coefficient leaves the float range, at 10^25
    # so does q~(t) in the reflection, at 10^40 the leading invariant
    base = [3, -1, 2, 5, -4, 1, 2, -3]
    entries = {format(i, "03b"): str(v * 10**power) for i, v in enumerate(base)}
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"d": 3, "mu": None, "entries": entries}))
    got, out, err = run(capsys, command, "--input", str(path), "--format", "json")
    assert got == code
    if code == 3:
        assert "overflow" in err and out == ""
    else:
        doc = json.loads(out)
        assert doc["mu"] == [1, 1, 1]
        coeffs = doc["edpoly_dual"] + doc["edpoly_primal"]
        assert all(isinstance(c, (int, float)) and math.isfinite(c) for c in coeffs)


def test_invariants_float_overflow_exits_3(capsys, tmp_path):
    # float entries near 1e150: the closed-form invariants leave the double range
    base = [3, -1, 2, 5, -4, 1, 2, -3]
    entries = {format(i, "03b"): v * 1e150 for i, v in enumerate(base)}
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"d": 3, "mu": None, "entries": entries}))
    code, out, err = run(capsys, "invariants", "--input", str(path), "--format", "json")
    assert code == 3 and out == ""
    assert "overflow" in err


def test_svals_float_1e150_exits_3_without_runtime_warnings(capsys, tmp_path):
    # the chart certifies all six tuples; the invariants of the distance
    # polynomial then leave the float range, which is the named exit 3, with
    # nothing from numpy before it
    base = [3, -1, 2, 5, -4, 1, 2, -3]
    entries = {format(i, "03b"): v * 1e150 for i, v in enumerate(base)}
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"d": 3, "mu": None, "entries": entries}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "svals", "--input", str(path))
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: overflow: ")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("doc", [
    pytest.param({"d": 3, "mu": None,
                  "entries": {format(i, "03b"): v * 1e-150 for i, v in enumerate([3, -1, 2, 5, -4, 1, 2, -3])}},
                 id="2x2x2"),
    pytest.param({"d": 3, "mu": [3], "entries": {"0": 3e-150, "1": -1e-150, "2": 2e-150, "3": 5e-150}}, id="(3,)"),
])
def test_svals_1e_150_exits_3_on_underflow(capsys, tmp_path, doc):
    # the singular values certify, but a distance-polynomial coefficient
    # underflows to 0.0: printing it would claim false zero roots
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "svals", "--input", str(path), "--format", "json")
    assert code == 3 and out == ""
    assert "underflow" in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


# seed-611 svals-mixed inputs: rank-one 2x2x2 tensors plus noise of size
# 1e-7, where the pencil's eigenvalues are ill-conditioned and the polished
# candidates certify with little room under RESIDUAL_REL_TOL
NEAR_RANK_ONE = {
    "00245": {"000": -0.06548216334569598, "001": 0.10695551917804522, "010": -0.0020756698834807383,
              "011": 0.003390417667932613, "100": 0.5177624669851019, "101": -0.8456895495166926,
              "110": 0.016412665851395617, "111": -0.02680775737541706},
    "00803": {"000": 0.25817332178958324, "001": 0.6525533656487115, "010": -0.2564948424827115,
              "011": -0.6483108246027113, "100": -0.0382002698066262, "101": -0.0965542855720667,
              "110": 0.03795193633442377, "111": 0.09592658673158871},
    "00865": {"000": 0.31682506354516105, "001": -0.2412797664872056, "010": 0.17183239258811625,
              "011": -0.13085986852463757, "100": -0.6234480733022144, "101": 0.47478999740860617,
              "110": -0.3381316114055484, "111": 0.25750584866612714},
}


@pytest.mark.parametrize("name", sorted(NEAR_RANK_ONE))
def test_svals_certifies_near_rank_one_tensors(capsys, tmp_path, name):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"d": 3, "mu": None, "entries": NEAR_RANK_ONE[name]}))
    code, out, err = run(capsys, "svals", "--input", str(path), "--format", "json")
    assert code == 0, err
    assert len(json.loads(out)["data"]) == 6


DEPENDENCY_PROBE = r"""
import contextlib, io, json, sys
from bts.cli import main
inputs = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["svals", "--input", path]) for path in inputs]
    codes.append(main(["verify-product", "--mu", "1,1,1", "--trials", "1", "--jobs", "1"]))
print(json.dumps({"codes": codes, "loaded": sorted(m for m in ("scipy", "sympy", "mpmath") if m in sys.modules)}))
"""


def test_cli_import_leaves_the_process_pool_out(tmp_path):
    # only verify-product --jobs > 1 imports the process pool, at the call
    src = str(Path(bts.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, bts.cli; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout == "False\n"


def test_cli_runs_on_numpy_alone(tmp_path):
    # the package depends on numpy only: a solve of each chart and a product
    # check must not import the installed scipy, sympy or mpmath
    inputs = []
    for name, doc in (("full", DIAG), ("sym4", {"d": 4, "mu": [4], "entries": {"0": "1", "1": "-2", "4": "3"}})):
        inputs.append(tmp_path / f"{name}.json")
        inputs[-1].write_text(json.dumps(doc))
    src = str(Path(bts.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", DEPENDENCY_PROBE, *map(str, inputs)],
                          capture_output=True, text=True, env=env, check=True)
    report = json.loads(proc.stdout)
    assert report == {"codes": [0, 0, 0], "loaded": []}
