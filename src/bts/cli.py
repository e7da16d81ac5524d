"""Command-line frontend: solve, verify, and report on binary tensor spectra.

Commands
--------
svals           singular data, distance polynomial, best rank-one approximation
verify-product  seeded batch check of the closed product formula
edpoly          dual and primal distance polynomial coefficients
invariants      closed-form invariants (exact rationals on rational input)
degrees         ED degrees, dual-variety degrees, exponents, identity verdicts
random-check    seeded battery of invariant cross-checks and positivity tests

Exit codes: 0 success, 1 verification failure (a trial exceeded tolerance),
2 input/parse error, 3 solver failure or float overflow on huge input.  JSON
output is byte-identical for identical (input, seed, version); floats carry
17 significant digits.

``main`` is reentrant: it builds its parser once per process, on the first
call, and every call parses into a fresh namespace.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction

from . import __version__
from .combinatorics import (
    Partition,
    deg_f,
    degree_identity_check,
    delta_mu,
    ed_degree,
    exponent_alpha,
    is_dual_hypersurface,
    subsets,
)
from .invariants import (
    DegenerateInputError,
    FormulaCrossCheckError,
    _extreme_coeffs,
    extra_root,
    invariants_222,
    isotropic_factor_symmetric,
    pair_factor_4,
    slice_factor,
)
from .polys import discriminant_binary_form
from .scalars import QQi, format_rational
from .spectral import (
    SUPPORTED_PRODUCT_MU,
    SolverFailureError,
    Spectrum,
    assemble_edpoly,
    best_rank_one,
    primal_edpoly,
    singular_values,
    verify_trial,
)
from .tensor import (
    BinaryTensor,
    NotMuSymmetricError,
    bombieri_norm_sq,
    compress,
    expand,
    load_tensor,
    random_tensor,
    rotate,
    tensor_to_json_dict,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_SOLVER = 3


# --- canonical JSON ----------------------------------------------------------


def _canonical(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if math.isnan(obj):
            return '"nan"'
        if math.isinf(obj):
            return '"inf"' if obj > 0 else '"-inf"'
        return format(obj, ".17g")
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{_canonical(v)}" for k, v in sorted(obj.items()))
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)}")


def _emit(doc: dict, fmt: str, table_fn) -> None:
    if fmt == "json":
        print(_canonical(doc))
    else:
        table_fn(doc)


def _num(v) -> str | float:
    """Exact scalars as rational strings, floats as floats."""
    if isinstance(v, (Fraction, int)):
        return format_rational(Fraction(v))
    return float(v)


def _complex_doc(z) -> dict:
    if isinstance(z, QQi):
        return {"re": format_rational(z.re), "im": format_rational(z.im)}
    z = complex(z)
    return {"re": z.real, "im": z.imag}


# --- shared option handling --------------------------------------------------


def _parse_mu(text: str) -> Partition:
    try:
        return Partition(tuple(int(p) for p in text.split(",")))
    except ValueError as exc:
        raise SystemExit(_fail(EXIT_PARSE, f"bad --mu value {text!r}: {exc}"))


def int_at_least(minimum: int):
    """The type of an integer option of at least ``minimum``; argparse exits 2 naming a smaller value."""
    def integer(text: str) -> int:
        if (value := int(text)) < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return integer


def tolerance(text: str) -> float:
    """A relative tolerance: any finite float; argparse exits 2 on the rest.

    No error exceeds NaN, and inf lets even an infinite error pass.
    """
    if math.isnan(value := float(text)):
        raise argparse.ArgumentTypeError(f"must be a number, got {text}")
    if math.isinf(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_input(args):
    """The tensor of ``--input``, recompressed to ``--mu`` when given; parse errors exit 2."""
    mu = _parse_mu(args.mu) if args.mu else None
    try:
        t = load_tensor(args.input)
    except OSError as exc:
        raise SystemExit(_fail(EXIT_PARSE, str(exc)))
    except json.JSONDecodeError as exc:
        raise SystemExit(_fail(
            EXIT_PARSE, f"malformed JSON in {args.input} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ))
    except (ValueError, KeyError, TypeError) as exc:
        raise SystemExit(_fail(EXIT_PARSE, f"bad tensor document: {exc}"))
    if mu is not None:
        try:
            t = compress(expand(t), mu)
        except NotMuSymmetricError as exc:
            raise SystemExit(_fail(EXIT_PARSE, str(exc)))
    return t


# --- svals / edpoly ----------------------------------------------------------


def _overflow_message(exc: OverflowError) -> str:
    return f"overflow: a value left the double-precision range: {exc}"


def _spectrum_doc(t, spec: Spectrum) -> dict:
    dual = assemble_edpoly(spec, t)
    primal = primal_edpoly(dual, t)
    doc = {
        "mu": list(spec.mu.parts),
        "ed_degree": spec.ed_degree,
        "degenerate": spec.degenerate,
        "notes": list(spec.notes),
        "qt": float(bombieri_norm_sq(t)),
        "data": [
            {
                "vectors": [[_complex_doc(x[0]), _complex_doc(x[1])] for x in d.vectors],
                "sigma": _complex_doc(d.sigma),
                "sigma_sq": _complex_doc(d.sigma_sq),
                "residual": d.residual,
                "is_real": d.is_real,
                "chart_note": d.chart_note,
            }
            for d in spec.data
        ],
        "edpoly_dual": [float(c) for c in dual.coeffs],
        "edpoly_primal": [float(c) for c in primal.coeffs],
    }
    try:
        approx, dist = best_rank_one(t, spec=spec)
        doc["best_rank_one"] = {
            "tensor": tensor_to_json_dict(approx),
            "distance": dist,
        }
    except SolverFailureError as exc:
        doc["best_rank_one"] = {"error": str(exc)}
    return doc


def _print_spectrum_table(doc: dict) -> None:
    print(f"mu = {tuple(doc['mu'])}   ED degree = {doc['ed_degree']}   q~(t) = {doc['qt']:.12g}")
    if doc["degenerate"]:
        print(f"degenerate: {', '.join(doc['notes']) or 'yes'}")
    print(f"{'#':>2}  {'sigma^2':>24}  {'sigma':>24}  {'residual':>10}  real")
    for i, d in enumerate(doc["data"]):
        ss, sg = d["sigma_sq"], d["sigma"]
        def s(z):
            if abs(z["im"]) < 1e-9 * (1 + abs(z["re"])):
                return f"{z['re']:.12g}"
            return f"{z['re']:.6g}{z['im']:+.6g}i"
        print(f"{i:>2}  {s(ss):>24}  {s(sg):>24}  {d['residual']:>10.2e}  {d['is_real']}")
    print("dual distance polynomial coefficients (ascending in eps^2):")
    print("  ", [f"{c:.10g}" for c in doc["edpoly_dual"]])
    if "distance" in doc.get("best_rank_one", {}):
        print(f"best rank-one distance: {doc['best_rank_one']['distance']:.12g}")


def cmd_svals(args) -> int:
    t = _load_input(args)
    try:
        spec = singular_values(t, seed=args.seed)
        doc = _spectrum_doc(t, spec)
    except (SolverFailureError, ValueError) as exc:
        return _fail(EXIT_SOLVER, f"solver failure: {exc}")
    except OverflowError as exc:
        return _fail(EXIT_SOLVER, _overflow_message(exc))
    _emit(doc, args.format, _print_spectrum_table)
    return EXIT_OK


def cmd_edpoly(args) -> int:
    t = _load_input(args)
    try:
        spec = singular_values(t, seed=args.seed)
        dual = assemble_edpoly(spec, t)
        primal = primal_edpoly(dual, t)
    except (SolverFailureError, ValueError) as exc:
        return _fail(EXIT_SOLVER, f"solver failure: {exc}")
    except OverflowError as exc:
        return _fail(EXIT_SOLVER, _overflow_message(exc))
    doc = {
        "mu": list(spec.mu.parts),
        "qt": float(bombieri_norm_sq(t)),
        "edpoly_dual": [float(c) for c in dual.coeffs],
        "edpoly_primal": [float(c) for c in primal.coeffs],
        "sigma_sq": [_complex_doc(v) for v in spec.sigma_sq()],
        "degenerate": spec.degenerate,
    }

    def table(doc):
        print(f"mu = {tuple(doc['mu'])}, q~(t) = {doc['qt']:.12g}")
        print("dual   :", [f"{c:.10g}" for c in doc["edpoly_dual"]])
        print("primal :", [f"{c:.10g}" for c in doc["edpoly_primal"]])

    _emit(doc, args.format, table)
    return EXIT_OK


# --- verify-product ----------------------------------------------------------


def _one_trial(packed) -> dict:
    mu_parts, seed, trial = packed
    try:
        rep = verify_trial(Partition(mu_parts), seed, trial)
        return {
            "trial": trial,
            "lhs": rep.lhs,
            "rhs": rep.rhs,
            "rel_error": rep.rel_error,
            "degenerate": rep.degenerate,
            "note": rep.note,
        }
    except (SolverFailureError, FormulaCrossCheckError, DegenerateInputError) as exc:
        return {"trial": trial, "error": str(exc)}


def cmd_verify_product(args) -> int:
    if not args.mu:
        return _fail(EXIT_PARSE, "verify-product needs --mu")
    mu = _parse_mu(args.mu)
    if tuple(mu.parts) not in SUPPORTED_PRODUCT_MU:
        return _fail(
            EXIT_PARSE,
            f"product verification supports {SUPPORTED_PRODUCT_MU}, got {tuple(mu.parts)}",
        )
    jobs = args.jobs or os.cpu_count() or 1
    work = [(tuple(mu.parts), args.seed, trial) for trial in range(args.trials)]
    if jobs > 1 and args.trials > 1:
        from concurrent.futures import ProcessPoolExecutor  # imported here: only --jobs > 1 pays for it

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_one_trial, work))
    else:
        rows = [_one_trial(w) for w in work]
    rows.sort(key=lambda r: r["trial"])

    failures = [r for r in rows if "error" in r or not (r.get("rel_error", math.inf) <= args.tol)]
    doc = {
        "mu": list(mu.parts),
        "trials": args.trials,
        "seed": args.seed,
        "tolerance": args.tol,
        "rows": rows,
        "max_rel_error": max((r.get("rel_error", math.inf) for r in rows), default=0.0),
        "failures": len(failures),
    }

    def table(doc):
        print(f"product formula, mu = {tuple(doc['mu'])}, {doc['trials']} trials, seed {doc['seed']}")
        print(f"{'trial':>5}  {'lhs':>22}  {'rhs':>22}  {'rel error':>12}")
        for r in doc["rows"]:
            if "error" in r:
                print(f"{r['trial']:>5}  solver error: {r['error']}")
            else:
                print(f"{r['trial']:>5}  {r['lhs']:>22.15g}  {r['rhs']:>22.15g}  {r['rel_error']:>12.3e}")
        print(f"max relative error: {doc['max_rel_error']:.3e}  (tolerance {doc['tolerance']:.1e})")
        print(f"failures: {doc['failures']}")

    _emit(doc, args.format, table)
    if any("error" in r for r in rows):
        return EXIT_SOLVER
    return EXIT_OK if not failures else EXIT_VERIFY_FAILED


# --- invariants --------------------------------------------------------------


def cmd_invariants(args) -> int:
    t = _load_input(args)
    dense = expand(t)
    parts = None if isinstance(t, BinaryTensor) else t.mu.parts
    doc: dict = {"d": dense.d, "mu": None if parts is None else list(parts)}
    try:
        if dense.d == 3:
            inv = invariants_222(dense)
            a0, a5, a6 = _extreme_coeffs(inv)
            doc.update(
                {
                    "theta": [_num(v) for v in inv.theta],
                    "phi": _num(inv.phi),
                    "phi1": _complex_doc(inv.phi1),
                    "det": _num(inv.det),
                    "f3": [_num(v) for v in inv.f3],
                    "a0": _num(a0),
                    "a5": _num(a5),
                    "a6": _num(a6),
                }
            )
            if parts in ((2, 1), (3,)):
                doc["extra_root"] = _num(extra_root(t, inv))
        if parts is not None and len(parts) == 1 and dense.d >= 2:
            disc = discriminant_binary_form(t)
            doc["discriminant"] = _num(disc.value)
            doc["discriminant_degenerate"] = disc.degenerate
            doc["delta_q"] = _num(isotropic_factor_symmetric(t))
        if dense.d == 4:
            doc["f4_slices"] = [_num(slice_factor(dense, j)) for j in (1, 2, 3, 4)]
            doc["f4_pairs"] = {
                f"{j},{k}": _num(pair_factor_4(dense, (j, k)))
                for j in range(1, 5)
                for k in range(j + 1, 5)
            }
        if len(doc) <= 2:
            return _fail(EXIT_PARSE, f"no closed-form invariants implemented for this shape (d={dense.d})")
    except (FormulaCrossCheckError, DegenerateInputError) as exc:
        return _fail(EXIT_SOLVER, str(exc))
    except OverflowError as exc:
        return _fail(EXIT_SOLVER, _overflow_message(exc))

    def table(doc):
        for key in sorted(doc):
            print(f"{key}: {doc[key]}")

    _emit(doc, args.format, table)
    return EXIT_OK


# --- degrees -----------------------------------------------------------------


def _degree_rows(mu: Partition) -> list[dict]:
    seen: dict[tuple[int, ...], dict] = {}
    for j in subsets(mu.s):
        selected = tuple(sorted(mu.parts[k - 1] for k in j))
        alpha, inert = exponent_alpha(mu, j)
        row = seen.get(selected)
        if row is None:
            seen[selected] = {
                "selected_parts": list(selected),
                "count": 1,
                "hypersurface": is_dual_hypersurface(mu, j),
                "deg_f": deg_f(mu, j),
                "alpha": alpha,
                "inert": inert,
                "example_J": sorted(j),
            }
        else:
            row["count"] += 1
    return list(seen.values())


def cmd_degrees(args) -> int:
    if args.mu:
        mu = _parse_mu(args.mu)
    elif args.d:
        mu = Partition((1,) * args.d)
    else:
        return _fail(EXIT_PARSE, "degrees needs --d or --mu")
    if mu.d > 12:
        return _fail(EXIT_PARSE, "identity checks are wired for d <= 12")
    doc = {
        "mu": list(mu.parts),
        "d": mu.d,
        "ed_degree": ed_degree(mu),
        "delta_mu": delta_mu(mu),
        "rows": _degree_rows(mu),
        "identity_ok": degree_identity_check(mu),
    }

    def table(doc):
        print(f"mu = {tuple(doc['mu'])}   EDdegree = {doc['ed_degree']}   delta_mu = {doc['delta_mu']}")
        print(f"{'J parts':>14}  {'#J':>4}  {'hyp':>5}  {'deg f':>6}  {'alpha':>6}  inert")
        for r in doc["rows"]:
            sel = "{}" if not r["selected_parts"] else str(tuple(r["selected_parts"]))
            print(f"{sel:>14}  {r['count']:>4}  {str(r['hypersurface']):>5}  {r['deg_f']:>6}  {r['alpha']:>6}  {r['inert']}")
        print(f"degree identity: {'OK' if doc['identity_ok'] else 'FAILED'}")

    _emit(doc, args.format, table)
    return EXIT_OK if doc["identity_ok"] else EXIT_VERIFY_FAILED


# --- random-check ------------------------------------------------------------


def cmd_random_check(args) -> int:
    failures: list[str] = []
    checked = clean = 0
    for trial in range(args.trials):
        seed = args.seed + trial
        failed_before = len(failures)
        t3 = random_tensor(seed, 3)
        try:
            inv = invariants_222(t3)  # internal dual-path cross-asserts
            if any(float(f) <= 0 for f in inv.f3):
                failures.append(f"trial {trial}: nonpositive quartic factor {inv.f3}")
            tf = BinaryTensor(3, tuple(float(v) for v in t3.entries))
            rot = rotate(tf, [0.1 + trial, -0.7, 1.3])
            inv_r = invariants_222(rot)
            for a, b in zip(inv.theta + (inv.phi, inv.det) + inv.f3,
                            inv_r.theta + (inv_r.phi, inv_r.det) + inv_r.f3):
                if abs(float(a) - float(b)) > args.tol * (1 + abs(float(a))):
                    failures.append(f"trial {trial}: rotation changed an invariant")
                    break
            t4 = random_tensor(seed ^ 0x55AA, 4)
            if float(slice_factor(t4, 1)) <= 0 or float(pair_factor_4(t4, (1, 2))) <= 0:
                failures.append(f"trial {trial}: nonpositive order-4 factor")
            checked += 1
        except (FormulaCrossCheckError, DegenerateInputError) as exc:
            failures.append(f"trial {trial}: {exc}")
        clean += len(failures) == failed_before
    doc = {"trials": args.trials, "checked": checked, "failures": failures}

    def table(doc):
        print(f"random-check: {clean}/{doc['trials']} trials clean")
        for f in doc["failures"]:
            print("  FAIL", f)

    _emit(doc, args.format, table)
    return EXIT_OK if not failures else EXIT_VERIFY_FAILED


# --- entry point -------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="tensor JSON file")
    p.add_argument("--mu", help="partition override, e.g. 2,1 (recompress the input)")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The ``bts`` parser, built on the first ``main`` call and reused by every later one."""
    ap = argparse.ArgumentParser(
        prog="bts",
        description="Singular values, distance polynomials, and invariants of real binary tensors.",
    )
    ap.add_argument("--version", action="version", version=f"bts {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("svals", help="singular data of a tensor file")
    _add_common(p)
    p.add_argument("--seed", type=int_at_least(0), default=0, help="base random seed")
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.set_defaults(fn=cmd_svals)

    p = sub.add_parser("edpoly", help="distance polynomials of a tensor file")
    _add_common(p)
    p.add_argument("--seed", type=int_at_least(0), default=0, help="base random seed")
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.set_defaults(fn=cmd_edpoly)

    p = sub.add_parser("verify-product", help="batch check of the product formula")
    p.add_argument("--mu", required=True, help="partition, e.g. 1,1,1")
    p.add_argument("--trials", type=int_at_least(1), default=100)
    p.add_argument("--tol", type=tolerance, default=1e-8)
    p.add_argument("--jobs", type=int_at_least(1), help="worker processes (default: available parallelism)")
    p.add_argument("--seed", type=int_at_least(0), default=42)
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.set_defaults(fn=cmd_verify_product)

    p = sub.add_parser("invariants", help="closed-form invariants of a tensor file")
    _add_common(p)
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.set_defaults(fn=cmd_invariants)

    p = sub.add_parser("degrees", help="degree and exponent tables with identity verdicts")
    p.add_argument("--d", type=int_at_least(1), help="use mu = 1^d")
    p.add_argument("--mu", help="partition, e.g. 2,1")
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.set_defaults(fn=cmd_degrees)

    p = sub.add_parser("random-check", help="seeded invariant self-test battery")
    p.add_argument("--trials", type=int_at_least(1), default=25)
    p.add_argument("--seed", type=int_at_least(0), default=7)
    p.add_argument("--tol", type=tolerance, default=1e-9)
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.set_defaults(fn=cmd_random_check)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
