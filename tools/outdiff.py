"""Compare `bts svals`, `bts invariants` and `bts verify-product` (`--format json`) between two source trees.

    python3 tools/outdiff.py OLD_TREE NEW_TREE INPUT_DIR

Each tree's ``src/`` runs in its own interpreter over every ``*.json`` file of
INPUT_DIR, calling ``bts.cli.main`` in-process once per command; an uncaught
exception counts as the exit code ``uncaught <type>``.  Each tree also runs
``verify-product --mu M --trials 20 --seed 611 --jobs 1 --format json`` for
every shape M of NEW_TREE's ``SUPPORTED_PRODUCT_MU``, one kind per shape,
compared byte for byte.  Per command and kind (the file name after its
first ``-``: ``00012-sym3-exact`` is ``sym3-exact``) it counts outputs that
are identical (same exit code, same stdout), for
``svals`` numerically equal (both exit 0; same ``mu``, ``ed_degree``,
``degenerate``, ``notes``, data count and ``is_real`` multiset; sigma^2
matched and the best rank-one squared distance within REL_TOL * q~(t);
``edpoly_dual`` within REL_TOL of its largest coefficient) or different, and
every exit-code change.  A different ``svals`` output that keeps that
structure also prints its worst sigma^2 gap over q~(t) and over |sigma^2|,
which tells an ill-conditioned complex pair from a real change.  Runs that
exit with the same non-zero code on both sides are also compared on the last
``error:`` line of their stderr and counted as "message changed" when it
differs; only that line is compared, since warnings printed before it vary
with the numpy version.  Exits 1 on any difference, exit-code change or
changed message.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

REL_TOL = 1e-12
COMMANDS = ("svals", "invariants")

PRODUCT_ARGS = ("--trials", "20", "--seed", "611", "--jobs", "1", "--format", "json")

RUNNER = r"""
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from bts.cli import main
for argv in sys.stdin.read().splitlines():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(json.loads(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"uncaught {type(exc).__name__}"
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    print(json.dumps({"code": code, "out": out.getvalue(), "error": errors[-1] if errors else None}), flush=True)
"""


def run_tree(tree: Path, argvs: list[list[str]]) -> list[dict]:
    """One result per ``bts`` argument list, in order."""
    proc = subprocess.run([sys.executable, "-c", RUNNER, str(tree / "src")],
                          input="\n".join(map(json.dumps, argvs)), capture_output=True, text=True, check=True)
    return [json.loads(line) for line in proc.stdout.splitlines()]


def _sq(z: dict) -> complex:
    return complex(float(z["re"]), float(z["im"]))


def _dist_sq(doc: dict) -> float | None:
    dist = doc.get("best_rank_one", {}).get("distance")
    return None if dist is None else dist * dist


def sigma_sq_gaps(a: dict, b: dict) -> tuple[float, float] | None:
    """Worst sigma^2 mismatch over q~(t) and over |sigma^2|, or None when the structure differs.

    The structure is ``mu``, ``ed_degree``, ``degenerate``, ``notes``, the data
    count and the ``is_real`` multiset; each sigma^2 of ``a`` is matched to the
    nearest one of ``b`` left unmatched.
    """
    keys = ("mu", "ed_degree", "degenerate", "notes")
    real_a, real_b = (sorted(d["is_real"] for d in doc["data"]) for doc in (a, b))
    if any(a[k] != b[k] for k in keys) or len(a["data"]) != len(b["data"]) or real_a != real_b:
        return None
    qt = a["qt"] or 1.0
    rest = [_sq(d["sigma_sq"]) for d in b["data"]]
    over_qt = over_abs = 0.0
    for d in a["data"]:
        v = _sq(d["sigma_sq"])
        i = min(range(len(rest)), key=lambda i: abs(rest[i] - v))
        gap = abs(rest.pop(i) - v)
        over_qt = max(over_qt, gap / qt)
        over_abs = max(over_abs, gap / abs(v) if v else math.inf if gap else 0.0)
    return over_qt, over_abs


def numerically_equal(a: dict, b: dict, gap: float) -> bool:
    """Sigma^2 gap, ``edpoly_dual`` and best rank-one distance all within REL_TOL."""
    ca, cb = a["edpoly_dual"], b["edpoly_dual"]
    top = max(map(abs, ca), default=0.0) or 1.0
    if len(ca) != len(cb) or any(abs(x - y) > REL_TOL * top for x, y in zip(ca, cb)):
        return False
    da, db = _dist_sq(a), _dist_sq(b)
    if (da is None) != (db is None) or (da is not None and abs(da - db) > REL_TOL * (a["qt"] or 1.0)):
        return False
    return gap <= REL_TOL


def kind_of(path: Path) -> str:
    head, _, rest = path.stem.partition("-")
    return rest if head.isdigit() and rest else path.stem


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    ap.add_argument("inputs", type=Path)
    args = ap.parse_args(argv)
    files = sorted(args.inputs.glob("*.json"))
    sys.path.insert(0, str(args.new / "src"))
    from bts.spectral import SUPPORTED_PRODUCT_MU

    # (command, kind, label, argv) per run
    runs = [(command, f"{command} {kind_of(path)}", f"{command} {path.name}",
             [command, "--input", str(path), "--format", "json"]) for path in files for command in COMMANDS]
    for mu in (",".join(map(str, parts)) for parts in SUPPORTED_PRODUCT_MU):
        runs.append(("verify-product", f"verify-product mu={mu}", f"verify-product --mu {mu}",
                     ["verify-product", "--mu", mu, *PRODUCT_ARGS]))
    argvs = [argv for *_, argv in runs]
    old, new = run_tree(args.old, argvs), run_tree(args.new, argvs)
    counts: dict[str, Counter] = defaultdict(Counter)
    worst: dict[str, float] = defaultdict(float)
    for (command, kind, label, _), a, b in zip(runs, old, new):
        tally = counts[kind]
        if a["code"] != b["code"]:
            tally[f"exit {a['code']}->{b['code']}"] += 1
            print(f"exit {a['code']}->{b['code']}: {label}")
        elif a["out"] == b["out"] and a["code"] != 0 and a["error"] != b["error"]:
            tally["message changed"] += 1
            print(f"message changed: {label}")
        elif a["out"] == b["out"]:
            tally["identical"] += 1
        else:
            gaps = None
            if command == "svals" and a["code"] == 0:
                doc_a, doc_b = json.loads(a["out"]), json.loads(b["out"])
                gaps = sigma_sq_gaps(doc_a, doc_b)
            if gaps is not None and numerically_equal(doc_a, doc_b, gaps[0]):
                tally["numerically equal"] += 1
                worst[kind] = max(worst[kind], gaps[0])
            else:
                tally["different"] += 1
                note = "" if gaps is None else f"  (worst sigma^2 gap {gaps[0]:.2e} q~(t), {gaps[1]:.2e} |sigma^2|)"
                print(f"different: {label}{note}")
    for kind in sorted(counts):
        note = f"  (worst sigma^2 gap {worst[kind]:.2e} q~(t))" if kind in worst else ""
        print(f"{kind:<35} " + ", ".join(f"{k} {n}" for k, n in sorted(counts[kind].items())) + note)
    total = sum(counts.values(), Counter())
    print(json.dumps({"files": len(files), **total}))
    return 1 if any(k in ("different", "message changed") or k.startswith("exit") for k in total) else 0


if __name__ == "__main__":
    sys.exit(main())
