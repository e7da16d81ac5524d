"""Benchmark of the bts command line, driven in-process as a closed loop.

    python3 bench/run.py --workload svals-mixed --seed 1 --seconds 20 --trace 0

One client in one process runs the items of a workload one after another
through ``bts.cli.main`` (stdout and stderr captured, ``--jobs 1``, no process
pool).  Inputs come from the benchmark's own seeded generator and are written
as tensor JSON files before any timing.  Every item's output is checked by an
oracle that does not call into bts (see ``workloads.py``).

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` runs whole cycles untraced for half of ``--seconds``, then the
same items again with the layer tracer installed (see ``tracer.py``), and
reports the per-layer metrics and the tracing overhead.

Human-readable lines go to stdout first; the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Inputs, per-item records, spans and a summary go under ``.bench_work/`` in the
checkout.  Without the ``src/bts`` sources next to this directory the script
exits with code 1 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60.0


def import_cli():
    """bts.cli from this checkout's ``src/``; exit without a result when it is not there."""
    if not (SRC / "bts" / "__init__.py").is_file():
        raise SystemExit(f"error: bts sources not found at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import bts
    from bts import cli

    if Path(bts.__file__).resolve().parent != (SRC / "bts").resolve():
        raise SystemExit(f"error: imported bts from {bts.__file__}, not from {SRC}")
    return cli


import workloads  # noqa: E402  (numpy only; bts is imported by import_cli)
from tracer import Tracer  # noqa: E402


# --- running items -----------------------------------------------------------------


def call(cli, argv: list[str]) -> tuple[int | None, float, str, str]:
    """(exit code or None on an exception, seconds, stdout, error cause) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    cause = ""
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash of the program is a failed item, recorded with its cause
        code, cause = None, f"{type(exc).__name__}: {exc}"
    secs = perf_counter() - start
    if not cause and code != 0:
        cause = err.getvalue().strip().splitlines()[-1] if err.getvalue().strip() else f"exit {code}"
    return code, secs, out.getvalue(), cause


def run_cycles(cli, cycles, seconds: float, min_cycles: int, tracer: Tracer | None = None):
    """Run whole cycles until ``seconds`` have passed and ``min_cycles`` are done.

    Returns the raw results (item, code, seconds, stdout, cause, layer self
    times or None), the wall time of the loop and the number of cycles run.
    """
    results = []
    start = perf_counter()
    done = 0
    for cycle in cycles:
        if done >= min_cycles and perf_counter() - start >= seconds:
            break
        for item in cycle:
            if tracer is None:
                results.append((item, *call(cli, item.argv), None))
            else:
                with tracer.item(len(results)) as rec:
                    res = call(cli, item.argv)
                results.append((item, *res, rec))
        done += 1
    return results, perf_counter() - start, done


def judge(results) -> list[dict]:
    """Per-item records: input kind, time, exit code, and the cause of any failure.

    A failed item exited non-zero, raised, or gave a wrong answer.  An answer
    is wrong when its oracle rejects it or when the program's own verification
    failed (exit 1); the oracle also reads the document printed with exit 1.
    """
    records = []
    for item, code, secs, out, cause, rec in results:
        reason = workloads.check(item, out) if code in (0, workloads.EXIT_VERIFY_FAILED) else None
        if code == workloads.EXIT_VERIFY_FAILED and reason is None:
            reason = "the program's own verification failed (exit 1)"
        if reason:
            cause = f"wrong answer: {reason}"
        record = {
            "kind": item.kind, "group": item.group, "shape": item.shape, "exact": item.exact,
            "ms": 1000.0 * secs, "exit": code, "failed": bool(cause), "wrong": bool(reason), "cause": cause,
            "argv": item.argv,
        }
        if rec is not None:
            record["layer_self_ms"] = {layer: 1000.0 * v for layer, v in sorted(rec["self"].items())}
        records.append(record)
    return records


def verdict(workload, records: list[dict]) -> bool:
    """Whether a run is correct: no wrong answer, and no failure at all where none is allowed."""
    if any(r["wrong"] for r in records):
        return False
    return workload.failures_allowed or not any(r["failed"] for r in records)


# --- set-up time ---------------------------------------------------------------------


def setup_times(argv: list[str], n: int) -> list[float]:
    """Seconds from starting a fresh interpreter to the return of its first item, ``n`` times."""
    probe = Path(__file__).resolve().parent / "probe.py"
    times = []
    for _ in range(n):
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, str(probe), *argv], cwd=ROOT,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
            line = proc.stdout.readline() if ready else ""
            times.append(perf_counter() - start)
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if not line.startswith("done"):
            raise RuntimeError(f"set-up probe ended without an answer (exit {proc.returncode})")
    return times


# --- reporting -------------------------------------------------------------------------


def git_commit() -> str | None:
    """The checked-out commit; None outside a git repository or without git."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(args) -> dict:
    from bts import __version__

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy.__version__, "bts": __version__,
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "git_commit": git_commit(),
    }


def shares(records: list[dict]) -> dict[str, float]:
    n = len(records)
    by_group = Counter(r["group"] for r in records)
    out = {f"group:{g}": c / n for g, c in sorted(by_group.items())}
    out["float-entry"] = sum(1 for r in records if r["exact"] is False) / n
    return out


def failure_summary(records: list[dict]) -> list[tuple[str, str, int]]:
    causes = Counter((r["kind"], r["cause"][:120]) for r in records if r["failed"])
    return [(k, c, n) for (k, c), n in sorted(causes.items(), key=lambda kv: (-kv[1], kv[0]))]


def print_report(prov: dict, lines: list[tuple[str, float, str, str]], records: list[dict]) -> None:
    print("bench " + " ".join(f"{k}={v}" for k, v in prov.items()))
    for name, value, unit, note in lines:
        print(f"  {name:<40} {value:>14.6g} {unit:<8} {note}")
    for key, share in shares(records).items():
        print(f"  share {key:<34} {share:>14.4f}")
    for kind, cause, n in failure_summary(records):
        print(f"  failed x{n:<4} {kind:<24} {cause}")


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n", encoding="utf-8")


# --- the two modes -------------------------------------------------------------------------


def end_to_end(cli, workload, warm, cycles, args, out_dir: Path):
    setup = setup_times(warm.argv, SETUP_PROBES)
    call(cli, warm.argv)  # pays this process's lazy set-up before the timed loop
    results, wall, done = run_cycles(cli, cycles, args.seconds, workload.min_cycles)
    records = judge(results)
    n = len(records)
    failed = sum(r["failed"] for r in records)
    lat = [r["ms"] for r in records]
    tail = float(numpy.percentile(lat, workload.tail_pct))
    beyond = sum(1 for v in lat if v > tail)
    metrics = {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} fresh interpreters"),
        "items_per_s": (n / wall, "1/s", f"{n} items, {done} cycles in {wall:.2f} s"),
        "latency_p50_ms": (float(numpy.percentile(lat, 50.0)), "ms", ""),
        "latency_tail_ms": (tail, "ms", f"p{workload.tail_pct:g}, {beyond} of {n} samples beyond"),
        "ok_ratio": ((n - failed) / n, "ratio", f"fail_ratio {failed / n:.4f} ({failed} of {n} failed)"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "ru_maxrss"),
    }
    extra = {"fail_ratio": failed / n, "tail_pct": workload.tail_pct, "tail_beyond": beyond,
             "setup_samples_s": setup, "cycles": done, "wall_s": wall}
    return records, metrics, extra


def traced(cli, workload, warm, cycles, args, out_dir: Path):
    call(cli, warm.argv)
    plain, _, done = run_cycles(cli, cycles, args.seconds / 2.0, 1)
    tracer = Tracer()
    t0 = perf_counter()
    tracer.install()
    try:
        traced_results, _, _ = run_cycles(cli, cycles[:done], 0.0, done, tracer)
    finally:
        tracer.restore()
    tracer.write_spans(out_dir / "spans.jsonl", t0)
    plain_s = sum(r[2] for r in plain)
    traced_s = sum(r[2] for r in traced_results)
    metrics = {name: (v, unit, "") for name, (v, unit) in tracer.layer_metrics().items()}
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio", f"{len(plain)} items traced and untraced")
    records = judge(plain + traced_results)
    extra = {"cycles": done, "untraced_s": plain_s, "traced_s": traced_s}
    return records, metrics, extra


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = import_cli()
    workload = workloads.WORKLOADS[args.workload]
    out_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    warm, cycles = workloads.generate(args.workload, args.seed, out_dir / "inputs")

    mode = traced if args.trace else end_to_end
    records, metrics, extra = mode(cli, workload, warm, cycles, args, out_dir)

    prov = provenance(args)
    with open(out_dir / "items.jsonl", "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(r, sort_keys=True) + "\n")
    lines = [(name, v, unit, note) for name, (v, unit, note) in metrics.items()]
    write_json(out_dir / "summary.json", {"provenance": prov, "metrics": {n: v for n, v, _, _ in lines},
                                          "extra": extra, "shares": shares(records)})
    print_report(prov, lines, records)
    wrong = [r for r in records if r["wrong"]]
    for r in wrong[:5]:
        print(f"  WRONG {r['kind']} {r['cause']}")
    result = {
        "correct": verdict(workload, records),
        "attempted": len(records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {name: {"value": v, "unit": unit} for name, v, unit, _ in lines},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
