"""Command-line behavior: exit codes, JSON determinism, output content."""

from __future__ import annotations

import json
import math
import warnings

import pytest

import bts.spectral
from bts.cli import main
from bts.polys import RootFindingError

DIAG = {"d": 3, "mu": None, "entries": {"000": "1", "111": "2"}}
CUBIC = {"d": 3, "mu": [3], "entries": {"0": "1", "3": "1"}}


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


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
    code, out, _ = run(capsys, "verify-product", "--mu", "3", "--trials", "5",
                       "--seed", "2", "--jobs", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["constant_values"]) == 1


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


def test_invariants_rational_output(capsys, cubic_file):
    code, out, _ = run(capsys, "invariants", "--input", cubic_file, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["theta"] == ["2", "2", "2", "2"]
    assert doc["extra_root"] == "1/2"
    assert doc["delta_q"] == "2"


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
        raise bts.spectral._AttemptFailed("no convergence")

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


def test_svals_symmetric_exit_3_names_every_attempt(capsys, cubic_file, monkeypatch):
    def failing_roots(_p):
        raise RootFindingError("no convergence", [])

    monkeypatch.setattr(bts.spectral, "all_roots", failing_roots)
    code, out, err = run(capsys, "svals", "--input", cubic_file)
    assert code == 3 and out == ""
    assert "no rotation certified 3 singular tuples" in err
    for k in range(4):
        assert f"attempt {k}: no convergence" in err


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
