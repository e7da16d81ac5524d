"""Compare `bts svals`, `invariants`, `edpoly`, `verify-product`, `random-check` and the parser between two source trees.

    python3 tools/outdiff.py OLD_TREE NEW_TREE INPUT_DIR

Each tree's ``src/`` runs in its own interpreter over every ``*.json`` file of
INPUT_DIR, calling ``bts.cli.main`` in-process once per command; an uncaught
exception counts as the exit code ``uncaught <type>``.  Per file it runs
``svals``, ``invariants`` and ``edpoly`` with ``--format json`` and ``svals
--format table``; ``invariants`` is compared byte for byte.
Each tree also runs ``verify-product --mu M --trials 20 --seed 611
--jobs 1 --format json`` for every shape M of NEW_TREE's
``SUPPORTED_PRODUCT_MU``, one kind per shape, and ``random-check --trials
100 --seed 611 --format json``, compared byte for byte.  Last, in the same
interpreter, it runs the argument lists of PARSE_ARGVS (no command,
``--version``, ``--help``, every subcommand's ``--help``, a missing
``--input``, an unknown command, an unsupported ``--mu``), which show what
the parser decides on a call that is not the first; these are compared on
exit code, stdout and the whole of stderr, and a changed stderr counts as
"message changed".  Per command and kind (the file name after its first
``-``: ``00012-sym3-exact`` is ``sym3-exact``) it counts outputs that
are identical (same exit code, same stdout), numerically equal, or
different, and every exit-code change.  A ``svals`` output is numerically
equal when both exit 0 with the same ``mu``, ``ed_degree``, ``degenerate``,
``notes``, data count and ``is_real`` multiset, sigma^2 matched and the best
rank-one squared distance within REL_TOL * q~(t), and ``edpoly_dual``
within REL_TOL of its largest coefficient.  An ``edpoly`` output is
numerically equal when both exit 0 with the same ``mu``, ``qt`` and
``degenerate``, the sigma^2 matched within REL_TOL * q~(t), and each
coefficient of ``edpoly_dual`` and of ``edpoly_primal`` within REL_TOL of
the largest one.  A ``svals`` table is
numerically equal when both exit 0 with the same header lines, row count
and ``real`` flags, each printed sigma^2 within REL_TOL * q~(t) plus its
printed rounding and each sigma within the square root of that, each dual
coefficient within REL_TOL of the largest plus its rounding, the best
rank-one distances within REL_TOL * q~(t) of each other squared, and both
residual columns at most 1e-9 * sqrt(q~(t)), the noise level that
certification allows.  A ``verify-product`` output is
numerically equal when both exit with the same code, every field but
``lhs``, ``rhs``, ``rel_error`` and ``max_rel_error`` is equal (the trial
set, the error rows, ``failures``), each ``lhs`` and ``rhs`` is within
REL_TOL relative and each ``rel_error`` and ``max_rel_error`` within
REL_TOL absolute.  A different ``svals`` output that
keeps that structure also prints its worst sigma^2 gap over q~(t) and over
|sigma^2|, which tells an ill-conditioned complex pair from a real change; a
numerically equal ``svals`` kind prints its worst sigma^2 gap over q~(t) and
a numerically equal ``verify-product`` kind its worst ``lhs`` gap.
Runs that exit with the same non-zero code on both sides are also compared
on the last ``error:`` line of their stderr and counted as "message changed"
when it differs; only that line is compared, since warnings printed before
it vary with the numpy version.  Exits 1 on any difference, exit-code
change or changed message.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import re
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

REL_TOL = 1e-12
COMMANDS = (("svals", "json"), ("invariants", "json"), ("edpoly", "json"), ("svals", "table"))
SUBCOMMANDS = ("svals", "edpoly", "invariants", "degrees", "verify-product", "random-check")
PARSE_ARGVS = ([], ["--version"], ["--help"], *([name, "--help"] for name in SUBCOMMANDS),
               ["svals"], ["nope"], ["verify-product", "--mu", "9"])

PRODUCT_ARGS = ("--trials", "20", "--seed", "611", "--jobs", "1", "--format", "json")
RANDOM_CHECK_ARGS = ("--trials", "100", "--seed", "611", "--format", "json")

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
    print(json.dumps({"code": code, "out": out.getvalue(), "err": err.getvalue(),
                      "error": errors[-1] if errors else None}), flush=True)
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


def _coefficients_close(ca: list[float], cb: list[float]) -> bool:
    """Same length and each coefficient within REL_TOL of the largest one of ``ca``."""
    top = max(map(abs, ca), default=0.0) or 1.0
    return len(ca) == len(cb) and all(abs(x - y) <= REL_TOL * top for x, y in zip(ca, cb))


def edpoly_gap(a: dict, b: dict) -> float | None:
    """Worst sigma^2 gap over q~(t) of two ``edpoly`` documents, or None unless numerically equal."""
    if any(a[k] != b[k] for k in ("mu", "qt", "degenerate")) or len(a["sigma_sq"]) != len(b["sigma_sq"]):
        return None
    if not all(_coefficients_close(a[k], b[k]) for k in ("edpoly_dual", "edpoly_primal")):
        return None
    qt, rest, worst = a["qt"] or 1.0, [_sq(z) for z in b["sigma_sq"]], 0.0
    for v in map(_sq, a["sigma_sq"]):
        worst = max(worst, abs(rest.pop(min(range(len(rest)), key=lambda i: abs(rest[i] - v))) - v) / qt)
    return worst if worst <= REL_TOL else None


def numerically_equal(a: dict, b: dict, gap: float) -> bool:
    """Sigma^2 gap, ``edpoly_dual`` and best rank-one distance all within REL_TOL."""
    if not _coefficients_close(a["edpoly_dual"], b["edpoly_dual"]):
        return False
    da, db = _dist_sq(a), _dist_sq(b)
    if (da is None) != (db is None) or (da is not None and abs(da - db) > REL_TOL * (a["qt"] or 1.0)):
        return False
    return gap <= REL_TOL


def _close(x: float, y: float, tol: float) -> bool:
    return x == y or abs(x - y) <= tol


def product_lhs_gap(a: dict, b: dict) -> float | None:
    """Worst relative ``lhs`` gap of two ``verify-product`` documents, or None unless numerically equal."""
    numeric = ("lhs", "rhs", "rel_error", "max_rel_error", "rows")
    rest = lambda doc: {k: v for k, v in doc.items() if k not in numeric}
    if rest(a) != rest(b) or len(a["rows"]) != len(b["rows"]):
        return None
    if not _close(a["max_rel_error"], b["max_rel_error"], REL_TOL):
        return None
    worst = 0.0
    for x, y in zip(a["rows"], b["rows"]):
        if rest(x) != rest(y) or not _close(x.get("rel_error"), y.get("rel_error"), REL_TOL):
            return None
        if "error" in x:
            continue
        for key in ("lhs", "rhs"):
            if not _close(x[key], y[key], REL_TOL * max(abs(x[key]), abs(y[key]))):
                return None
        worst = max(worst, abs(x["lhs"] - y["lhs"]) / (max(abs(x["lhs"]), abs(y["lhs"])) or 1.0))
    return worst


ROW = re.compile(r"^\s*\d+\s+(\S+)\s+(\S+)\s+(\S+)\s+(True|False)$")
NUMBER = r"[+-]?(?:inf|nan|\d+\.?\d*(?:e[+-]\d+)?)"
COMPLEX = re.compile(rf"^({NUMBER})({NUMBER})i$")
DISTANCE = "best rank-one distance: "


def _printed(text: str) -> tuple[float, float]:
    """A printed float and half the unit of its last digit (0 for zero, which ``g`` prints only when exact)."""
    value = float(text)
    mantissa, _, exponent = text.partition("e")
    places = len(mantissa.partition(".")[2])
    return value, (0.5 * 10.0 ** (int(exponent or 0) - places) if value and math.isfinite(value) else 0.0)


def _printed_complex(text: str) -> list[tuple[float, float]]:
    """The real and imaginary parts of a table entry (``1.5`` or ``1.5-2e-07i``), each as ``_printed``."""
    match = COMPLEX.match(text)
    return [_printed(text), (0.0, 0.0)] if match is None else [_printed(match[1]), _printed(match[2])]


def _within(a: str, b: str, tol: float) -> bool:
    """Both table entries' parts within ``tol`` plus their printed rounding; non-finite ones equal as text."""
    pa, pb = _printed_complex(a), _printed_complex(b)
    if not all(math.isfinite(v) for v, _ in pa + pb):
        return a == b
    return all(abs(x - y) <= tol + rx + ry for (x, rx), (y, ry) in zip(pa, pb))


def _table_parts(text: str) -> tuple[list[str], list[tuple[str, ...]], list[str], str | None]:
    """A ``svals`` table as its frame (every other line), rows, dual coefficients and best rank-one distance."""
    frame, rows, coeffs, dist = [], [], [], None
    for line in text.splitlines():
        if row := ROW.match(line):
            rows.append(row.groups())
            frame.append("row")
        elif line.startswith("   ["):
            coeffs = ast.literal_eval(line.strip())
            frame.append(f"coefficients {len(coeffs)}")
        elif line.startswith(DISTANCE):
            dist = line[len(DISTANCE):]
            frame.append("distance")
        else:
            frame.append(line)
    return frame, rows, coeffs, dist


def table_gap(a: str, b: str) -> float | None:
    """Worst sigma^2 gap over q~(t) of two ``svals`` tables, or None unless numerically equal.

    Equal when the header lines, the row count and the ``real`` flags match;
    each sigma^2 is within REL_TOL * q~(t), each sigma within the square root
    of that, and each dual coefficient within REL_TOL of the largest, each
    plus its printed rounding; the best rank-one distances are within
    REL_TOL * q~(t) squared; and both residual columns are at most
    1e-9 * sqrt(q~(t)).
    """
    (frame_a, rows_a, ca, da), (frame_b, rows_b, cb, db) = _table_parts(a), _table_parts(b)
    if frame_a != frame_b or [r[3] for r in rows_a] != [r[3] for r in rows_b] or len(ca) != len(cb):
        return None
    qt = float(frame_a[0].rpartition("= ")[2]) or 1.0
    bound, worst = REL_TOL * qt, 0.0
    for (sq_a, sig_a, res_a, _), (sq_b, sig_b, res_b, _) in zip(rows_a, rows_b):
        if not (_within(sq_a, sq_b, bound) and _within(sig_a, sig_b, math.sqrt(bound))):
            return None
        if max(float(res_a), float(res_b)) > 1e-9 * math.sqrt(qt):
            return None
        gaps = [abs(x - y) for (x, _), (y, _) in zip(_printed_complex(sq_a), _printed_complex(sq_b))]
        worst = max(worst, max(gaps) / qt)
    top = max((abs(float(c)) for c in ca), default=0.0) or 1.0
    if not all(_within(x, y, REL_TOL * top) for x, y in zip(ca, cb)):
        return None
    if da is not None and not _within(da, db, bound / (float(da) + float(db) or 1.0)):
        return None
    return worst


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
    runs = []
    for path in files:
        for command, fmt in COMMANDS:
            name = command if fmt == "json" else f"{command} --format {fmt}"
            runs.append((name, f"{name} {kind_of(path)}", f"{name} {path.name}",
                         [command, "--input", str(path), "--format", fmt]))
    for mu in (",".join(map(str, parts)) for parts in SUPPORTED_PRODUCT_MU):
        runs.append(("verify-product", f"verify-product mu={mu}", f"verify-product --mu {mu}",
                     ["verify-product", "--mu", mu, *PRODUCT_ARGS]))
    runs.append(("random-check", "random-check", "random-check", ["random-check", *RANDOM_CHECK_ARGS]))
    runs += [("parse", "parse", f"parse {json.dumps(argv)}", argv) for argv in PARSE_ARGVS]
    argvs = [argv for *_, argv in runs]
    old, new = run_tree(args.old, argvs), run_tree(args.new, argvs)
    counts: dict[str, Counter] = defaultdict(Counter)
    worst: dict[str, float] = defaultdict(float)
    for (command, kind, label, _), a, b in zip(runs, old, new):
        tally = counts[kind]
        if a["code"] != b["code"]:
            tally[f"exit {a['code']}->{b['code']}"] += 1
            print(f"exit {a['code']}->{b['code']}: {label}")
        elif a["out"] == b["out"] and (a["err"] != b["err"] if command == "parse"
                                        else a["code"] != 0 and a["error"] != b["error"]):
            tally["message changed"] += 1
            print(f"message changed: {label}")
        elif a["out"] == b["out"]:
            tally["identical"] += 1
        elif command == "svals --format table" and a["code"] == 0:
            gap = table_gap(a["out"], b["out"])
            if gap is None:
                tally["different"] += 1
                print(f"different: {label}")
            else:
                tally["numerically equal"] += 1
                worst[kind] = max(worst[kind], gap)
        elif command in ("verify-product", "edpoly") and a["code"] in ((0, 1) if command == "verify-product" else (0,)):
            compare = product_lhs_gap if command == "verify-product" else edpoly_gap
            gap = compare(json.loads(a["out"]), json.loads(b["out"]))
            if gap is None:
                tally["different"] += 1
                print(f"different: {label}")
            else:
                tally["numerically equal"] += 1
                worst[kind] = max(worst[kind], gap)
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
        what = "lhs gap {:.2e} relative" if kind.startswith("verify-product") else "sigma^2 gap {:.2e} q~(t)"
        note = f"  (worst {what.format(worst[kind])})" if kind in worst else ""
        print(f"{kind:<35} " + ", ".join(f"{k} {n}" for k, n in sorted(counts[kind].items())) + note)
    total = sum(counts.values(), Counter())
    print(json.dumps({"files": len(files), **total}))
    return 1 if any(k in ("different", "message changed") or k.startswith("exit") for k in total) else 0


if __name__ == "__main__":
    sys.exit(main())
