"""Self-tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q

They check that the oracles flag a corrupted answer, that a failed
verification makes a run incorrect, that the traced run puts every wrapped
function back and attributes each item's time to its layers, that a seed
always writes the same input bytes, and that the benchmark refuses to run
without the ``bts`` sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

cli = run.import_cli()


def workdir(name: str) -> Path:
    path = run.WORK / f"selftest-{name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def captured_svals(kind: str, seed: int, where: Path) -> tuple[workloads.Item, dict]:
    item = workloads.Inputs("svals-mixed", seed, where).svals(kind)
    code, _, out, cause = run.call(cli, item.argv)
    assert code == 0, cause
    assert workloads.check(item, out) is None
    return item, json.loads(out)


def test_corrupted_sigma_is_flagged():
    where = workdir("oracle")
    try:
        item, doc = captured_svals("matrix-float", 3, where)
        doc["data"][1]["sigma"]["re"] *= 1.0 + 1e-6
        reason = workloads.check(item, json.dumps(doc))
        assert reason is not None and "residual" in reason

        item, doc = captured_svals("sym3-exact", 4, where)
        doc["data"] = doc["data"][:-1]
        assert "ED degree" in workloads.check(item, json.dumps(doc))
    finally:
        shutil.rmtree(where, ignore_errors=True)


def captured_table(kind: str, seed: int, where: Path) -> tuple[workloads.Item, str]:
    item = workloads.Inputs("svals-table", seed, where).svals(kind, "table")
    code, _, out, cause = run.call(cli, item.argv)
    assert code == 0, cause
    assert workloads.check(item, out) is None
    return item, out


def scaled_cell(out: str, row: int, column: int, factor: float) -> str:
    """The table with one row's sigma^2 (column 1) or sigma (column 2) multiplied by ``factor``."""
    lines = out.splitlines()
    rows = [i for i, line in enumerate(lines) if workloads._TABLE_ROW.match(line)]
    parts = lines[rows[row]].split()
    z = workloads._table_number(parts[column]) * factor
    parts[column] = repr(z.real) if z.imag == 0 else f"{z.real!r}{z.imag:+}i"
    lines[rows[row]] = "  ".join(parts)
    return "\n".join(lines)


def test_corrupted_table_is_flagged():
    where = workdir("table-oracle")
    try:
        item, out = captured_table("matrix-float", 3, where)
        assert "sigma^2" in workloads.check(item, scaled_cell(out, 0, 1, 1.0 + 1e-6))

        item, out = captured_table("sym5-float", 3, where)
        assert "sigma^2" in workloads.check(item, scaled_cell(out, 0, 1, 1.001))

        item, out = captured_table("full222-float", 3, where)
        assert "spectral norm" in workloads.check(item, scaled_cell(out, -1, 2, 1.0 + 1e-6))
        dropped = "\n".join(line for i, line in enumerate(out.splitlines()) if i != 3)
        assert "ED degree" in workloads.check(item, dropped)
        assert "distance" in workloads.check(item, out.replace("best rank-one distance: ", "best rank-one distance: 1"))
    finally:
        shutil.rmtree(where, ignore_errors=True)


def test_failed_verification_is_a_wrong_answer():
    where = workdir("verify")
    try:
        gen = workloads.Inputs("verify-222", 11, where)
        item = gen.cycle()[0]
        doc = json.loads(run.call(cli, item.argv)[2])
        doc["rows"][0]["rel_error"] = 1e-3
        assert "rel_error" in workloads.check(item, json.dumps(doc))

        # No trial meets a negative tolerance, so the program itself reports a failed verification.
        res = run.call(cli, item.argv + ["--tol=-1"])
        assert res[0] == workloads.EXIT_VERIFY_FAILED
        records = run.judge([(item, *res, None)])
        assert records[0]["wrong"] and records[0]["failed"]
        assert not run.verdict(workloads.WORKLOADS["verify-222"], records)

        gen = workloads.Inputs("invariants-battery", 11, where)
        degrees = gen._degrees((2, 1))
        doc = json.loads(run.call(cli, degrees.argv)[2])
        doc["identity_ok"] = False
        records = run.judge([(degrees, workloads.EXIT_VERIFY_FAILED, 0.01, json.dumps(doc), "", None)])
        assert records[0]["wrong"] and "identity" in records[0]["cause"]

        check = gen._random_check()
        doc = json.loads(run.call(cli, check.argv)[2])
        doc["failures"] = ["trial 0: nonpositive order-4 factor"]
        assert workloads.check(check, json.dumps(doc)) is not None
    finally:
        shutil.rmtree(where, ignore_errors=True)


def test_failures_make_a_strict_workload_incorrect():
    failed = {"wrong": False, "failed": True}
    assert not run.verdict(workloads.WORKLOADS["invariants-battery"], [failed])
    assert not run.verdict(workloads.WORKLOADS["svals-table"], [failed])
    assert run.verdict(workloads.WORKLOADS["svals-mixed"], [failed])


def bts_namespaces() -> dict[str, dict]:
    return {name: dict(vars(mod)) for name, mod in sys.modules.items() if name == "bts" or name.startswith("bts.")}


def test_traced_run_restores_wrapped_functions():
    import numpy

    from bts.polys import MultiPoly

    before = bts_namespaces()
    leaves = (numpy.tensordot, numpy.linalg.lstsq, vars(MultiPoly)["__call__"], vars(MultiPoly)["coefficients_in"])
    where = workdir("trace")
    try:
        gen = workloads.Inputs("svals-mixed", 5, where / "inputs")
        warm = gen.svals("matrix-exact")
        cycle = [gen.svals(k) for k in ("matrix-float", "sym21-exact", "sym4-float")]
        workload = workloads.WORKLOADS["svals-mixed"]
        records, metrics, _ = run.traced(cli, workload, warm, [cycle], SimpleNamespace(seconds=0.0), where)
    finally:
        after = bts_namespaces()
        now = (numpy.tensordot, numpy.linalg.lstsq, vars(MultiPoly)["__call__"], vars(MultiPoly)["coefficients_in"])
        shutil.rmtree(where, ignore_errors=True)
    assert now == leaves
    for name, namespace in before.items():
        for attr, obj in namespace.items():
            assert after[name].get(attr) is obj, f"{name}.{attr} was not restored"
    assert len(records) == 6 and not any(r["wrong"] for r in records)
    traced_records = [r for r in records if "layer_self_ms" in r]
    assert len(traced_records) == 3
    for r in traced_records:
        # The item's layer self times cover the call as the runner timed it, plus only harness overhead.
        covered = sum(r["layer_self_ms"].values())
        assert r["ms"] <= covered <= r["ms"] + 2.0, (covered, r["ms"])
    assert metrics["spectral.residual_checks_per_item"][0] > 0
    assert metrics["trace.spans_per_item"][0] > 0


def test_same_seed_writes_identical_inputs():
    roots = [workdir(name) for name in ("seed-a", "seed-b", "seed-c")]
    try:
        argvs = []
        for root, seed in zip(roots, (7, 7, 8)):
            listed = []
            for name in sorted(workloads.WORKLOADS):
                warm, cycles = workloads.generate(name, seed, root / name, cycles=2)
                listed += [[a.replace(str(root), "") for a in item.argv] for item in [warm] + sum(cycles, [])]
            argvs.append(listed)
        a, b, c = roots
        files = sorted(p.relative_to(a) for p in a.rglob("*.json"))
        assert files and files == sorted(p.relative_to(b) for p in b.rglob("*.json"))
        assert all((a / f).read_bytes() == (b / f).read_bytes() for f in files)
        assert argvs[0] == argvs[1]
        assert argvs[0] != argvs[2]
        assert any((a / f).read_bytes() != (c / f).read_bytes() for f in files if (c / f).exists())
    finally:
        for root in roots:
            shutil.rmtree(root, ignore_errors=True)


def test_refuses_to_run_without_sources():
    bare = workdir("bare")
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "verify-222", "--seed", "1", "--seconds", "1"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print("ok", name)
