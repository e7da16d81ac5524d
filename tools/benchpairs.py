"""Alternating parent/change runs of the benchmark, written as one ``BENCH_<n>.json``.

    python3 tools/benchpairs.py OLD_TREE NEW_TREE --workloads verify-222,svals-table \
        --seeds 1-10 --out BENCH_13.json --change "what changed"

For each seed and workload, ``bench/run.py --workload W --seed S --seconds R
--trace 0`` runs once in OLD_TREE (the parent) and once in NEW_TREE (the
change), one run at a time, with R the ``run_seconds`` of NEW_TREE's
``BENCHMARK.json`` (its workloads are the default ``--workloads``); odd seeds run the parent first, even seeds the
change.  Each tree should be its own copy of the sources (``git archive``), so
that the two sides share no ``.bench_work/``.  Every run's final JSON line is
kept under ``runs[workload][seed]["parent" | "change"]``.  ``summary`` gives,
per workload and end-to-end metric, each side's median and quartiles
(inclusive method) and the number of pairs in which the change was better
(the direction is read from the same ``BENCHMARK.json``).  The output file
is rewritten after every pair, so an interrupted session keeps what finished.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """``1-10`` or ``1,3,5`` (ranges and single seeds may be mixed)."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def version_of(tree: Path) -> str:
    match = re.search(r'__version__ = "([^"]+)"', (tree / "src" / "bts" / "__init__.py").read_text())
    return match.group(1) if match else "unknown"


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The final JSON line of one benchmark run in ``tree``."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(argv[1:])} in {tree} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: dict, better: dict[str, str]) -> dict:
    """Per workload and metric: each side's median and quartiles, and the pairs the change won."""
    out: dict = {}
    for workload, by_seed in runs.items():
        pairs = [p for p in by_seed.values() if all(side in p for side in SIDES)]
        if not pairs:
            continue
        out[workload] = {}
        for metric in pairs[0]["change"]["metrics"]:
            vals = {side: [p[side]["metrics"][metric]["value"] for p in pairs] for side in SIDES}
            entry = {side: quartiles(vals[side]) for side in SIDES}
            if metric in better:
                sign = 1.0 if better[metric] == "higher" else -1.0
                entry["change_better_pairs"] = sum(
                    sign * (c - p) > 0 for p, c in zip(vals["parent"], vals["change"]))
            entry["pairs"] = len(pairs)
            out[workload][metric] = entry
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", type=Path, help="the parent's source tree")
    ap.add_argument("new", type=Path, help="the change's source tree")
    ap.add_argument("--workloads", default=None, help="comma-separated (default: the benchmark's workloads)")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--change", default="", help="one line on what the change does")
    ap.add_argument("--parent", default=None, help="the parent's name (default: its bts version)")
    args = ap.parse_args(argv)

    old, new = args.old.resolve(), args.new.resolve()
    spec = json.loads((new / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    doc = {
        "change": args.change,
        "command": f"python3 bench/run.py --workload <w> --seed <s> --seconds {seconds:g} --trace 0",
        "host": f"{os.cpu_count()}-core {platform.machine()}, Python {platform.python_version()}, "
                f"NumPy {numpy.__version__}",
        "parent": args.parent or f"bts {version_of(old)}",
        "protocol": "per seed and workload, one parent and one change run back to back, each from its own copy "
                    "of the tree; the side that runs first alternates from pair to pair (parent first on odd "
                    "seeds); each value is the run's final JSON line",
        "runs": {},
    }
    trees = {"parent": old, "change": new}
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            order = SIDES if seed % 2 else SIDES[::-1]
            pair = doc["runs"].setdefault(workload, {}).setdefault(str(seed), {})
            for side in order:
                pair[side] = run_once(trees[side], workload, seed, seconds)
                value = pair[side]["metrics"]["items_per_s"]["value"]
                print(f"seed {seed} {workload} {side}: items_per_s {value:.2f}", flush=True)
            doc["summary"] = summarize(doc["runs"], better)
            args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
