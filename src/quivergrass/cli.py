"""JSON command line for the package.

Verbs
-----
classify      Cartan kind and Dynkin label of a quiver
ppalg-dims    graded dimensions of the preprojective algebra
injective     truncated injective hull with its socle framing
projective    matching sum of truncated projectives
demazure      nested submodule chain along a reduced word
count         submodule-count polynomial at a dimension vector
weightmult    exact weight multiplicity
rep-matrices  raising/lowering/torus matrices on the finite point basis
chevalley     comparison report against the diagram-twisted framing
verify        run a named check suite

Every command writes one JSON document to stdout (two-space indent, sorted
keys, trailing newline) and diagnostics to stderr; identical invocations
produce byte-identical stdout.  All numbers are exact: integers, or rational
matrix entries rendered as strings such as "3/2".

Exit codes: 0 success; 1 a `verify` suite reported failures; 2 invalid
input; 3 a configured cap or truncation was exceeded; 4 an internal
certificate failed (always a bug).

Caps and truncations can also be supplied through a JSON config file
(``--config``) with keys among {"trunc", "cap", "workers"}; explicit flags
win over the file. Flag and key alike must be positive integers.

Each verb imports the library modules it calls when it runs, with
``from .module import name``, so an invocation loads only those; only
`verify` loads the acceptance battery.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import repeat
from pathlib import Path

from .errors import (
    InternalCheckError,
    LimitError,
    QuivergrassError,
    ValidationError,
)
from .quiver import Quiver, parse_dimvec, quiver_from_json

_CONFIG_KEYS = ("trunc", "cap", "workers")


# -- input helpers ------------------------------------------------------------

def _load_quiver(path: str) -> Quiver:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read quiver file {path!r}: {exc}") from exc
    try:
        return quiver_from_json(text)
    except ValidationError:
        raise
    except (json.JSONDecodeError, KeyError, TypeError, AttributeError) as exc:
        raise ValidationError(f"malformed quiver JSON in {path!r}: {exc}") from exc


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path!r}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed config JSON in {path!r}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValidationError("config file must hold a JSON object")
    for key, value in obj.items():
        if key not in _CONFIG_KEYS:
            raise ValidationError(
                f"unknown config key {key!r}; known keys: {', '.join(_CONFIG_KEYS)}"
            )
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ValidationError(f"config key {key!r} must be a positive integer")
    return obj


def _setting(args, key: str, default=None):
    """Flag value if given, else the config-file value, else the default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    return args.config_values.get(key, default)


def _dimvec(q: Quiver, text: str) -> dict:
    vec = parse_dimvec(q, text)
    return {name: n for name, n in zip(q.vertices, vec)}


def _parse_primes(text: str) -> list:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            out.append(int(part))
        except ValueError:
            raise ValidationError(f"not an integer prime: {part!r}") from None
    return out


def _parse_word(text: str) -> tuple:
    letters = tuple(text.replace(",", " ").split())
    if not letters:
        raise ValidationError("empty word")
    return letters


# -- output helpers -----------------------------------------------------------

def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _rational_matrix(m) -> list:
    f = m.field
    return [[f.format_el(x) for x in row] for row in m.a]


# -- verbs ----------------------------------------------------------------------

def _cmd_classify(args) -> int:
    from .quiver import classify

    q = _load_quiver(args.quiver)
    result = classify(q)
    _emit({"kind": result.kind, "label": result.label})
    return 0


def _cmd_ppalg_dims(args) -> int:
    from .palg import hilbert

    q = _load_quiver(args.quiver)
    if args.max_len < 0:
        raise ValidationError("--max-len must be non-negative")
    _emit(hilbert(q, args.max_len))
    return 0


def _cmd_injective(args) -> int:
    from .hull import injective_hull
    from .repmod import rep_to_obj

    q = _load_quiver(args.quiver)
    socle = _dimvec(q, args.socle)
    model = injective_hull(q, socle, _setting(args, "trunc"))
    _emit(
        {
            "rep": rep_to_obj(model.rep),
            "socle": {
                "dims": dict(model.w),
                "columns": {v: list(model.socle_cols[v]) for v in model.quiver.vertices},
            },
            "projection": {v: _rational_matrix(model.pi[v]) for v in model.quiver.vertices},
            "trunc": model.trunc,
            "full": model.full,
        }
    )
    return 0


def _cmd_projective(args) -> int:
    from .hull import projective_sum
    from .repmod import rep_to_obj

    q = _load_quiver(args.quiver)
    w = _dimvec(q, args.w)
    rep = projective_sum(q, w, _setting(args, "trunc"))
    _emit({"rep": rep_to_obj(rep), "top": w})
    return 0


def _cmd_demazure(args) -> int:
    from .demazure import demazure_module
    from .repmod import subrep_to_obj

    q = _load_quiver(args.quiver)
    w = _dimvec(q, args.w)
    word = _parse_word(args.word)
    chain = demazure_module(q, w, word, _setting(args, "trunc"))
    _emit(
        {
            "word": list(chain.word),
            "socle": dict(chain.model.w),
            "trunc": chain.model.trunc,
            "stages": [
                {
                    "length": k,
                    "dims": dict(chain.dim_targets[k]),
                    "subrep": subrep_to_obj(stage),
                }
                for k, stage in enumerate(chain.stages)
            ],
        }
    )
    return 0


def _cmd_count(args) -> int:
    from .grassmann import count_polynomial, hull_count, interpolation_plan

    q = _load_quiver(args.quiver)
    w = _dimvec(q, args.w)
    v = _dimvec(q, args.v)
    primes = _parse_primes(args.primes)
    trunc = _setting(args, "trunc")
    cap = _setting(args, "cap")
    workers = _setting(args, "workers", 1)
    known = None
    if workers > 1:
        interp, extras = interpolation_plan(q, w, v, primes)
        planned = interp + extras
        # One worker per planned prime at most, and no more than the cores.
        workers = min(workers, len(planned), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        # A worker given several primes builds the hull's set-up once.
        with ProcessPoolExecutor(max_workers=workers) as pool:
            counts = pool.map(hull_count, repeat(q), repeat(w), repeat(v), planned,
                              repeat(trunc), repeat(cap))
            known = dict(zip(planned, counts))
    poly = count_polynomial(q, w, v, primes, trunc=trunc, cap=cap, known_counts=known)
    _emit(
        {
            "counts": [[p, n] for p, n in poly.counts],
            "polynomial": list(poly.coeffs),
            "chi": poly.chi,
            "leading": poly.leading,
            "interpolation_primes": list(poly.primes_used),
            "consistency_primes": list(poly.consistency_primes),
        }
    )
    return 0


def _cmd_weightmult(args) -> int:
    from .weyl import weight_multiplicity

    q = _load_quiver(args.quiver)
    w = _dimvec(q, args.w)
    v = _dimvec(q, args.v)
    _emit(weight_multiplicity(q, w, v))
    return 0


def _cmd_rep_matrices(args) -> int:
    from .geomrep import finite_points, operator_matrices
    from .repmod import subrep_to_obj

    q = _load_quiver(args.quiver)
    w = _dimvec(q, args.w)
    primes = _parse_primes(args.primes)
    real = finite_points(
        q, w, _setting(args, "trunc"), primes, _setting(args, "cap")
    )
    ops = operator_matrices(real)
    verts = list(q.vertices)
    points = real.point_list()
    _emit(
        {
            "points": [
                {
                    "index": k,
                    "weight": {name: n for name, n in zip(verts, vt)},
                    "subrep": subrep_to_obj(pt),
                }
                for k, (vt, pt) in enumerate(points)
            ],
            "E": {i: ops[i].raising for i in verts},
            "F": {i: ops[i].lowering for i in verts},
            "H": {i: ops[i].torus for i in verts},
        }
    )
    return 0


def _cmd_chevalley(args) -> int:
    from .geomrep import chevalley_compare

    q = _load_quiver(args.quiver)
    w = _dimvec(q, args.w)
    primes = _parse_primes(args.primes)
    report = chevalley_compare(
        q, w, _setting(args, "trunc"), primes, _setting(args, "cap")
    )
    _emit(
        {
            "passed": report.passed,
            "pair_count": report.pair_count,
            "items": [
                {"name": item.name, "passed": item.passed, "details": item.details}
                for item in report.items
            ],
        }
    )
    return 0


def _cmd_verify(args) -> int:
    from .acceptance import format_result, run_suite

    if args.suite != "core":
        raise ValidationError(f"unknown suite {args.suite!r}; available: core")
    results = run_suite()
    for result in results:
        print(format_result(result), file=sys.stderr)
    _emit(
        {
            "suite": args.suite,
            "passed": all(r.passed for r in results),
            "results": [
                {
                    "number": r.number,
                    "name": r.name,
                    "passed": r.passed,
                    "details": r.details,
                }
                for r in results
            ],
        }
    )
    return 0 if all(r.passed for r in results) else 1


# -- parser ---------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config",
        metavar="PATH",
        help="JSON file with default caps/truncations (flags win)",
    )
    common.add_argument(
        "--json",
        action="store_true",
        help="emit JSON on stdout (the default and only output mode)",
    )

    parser = argparse.ArgumentParser(
        prog="quivergrass",
        description="Exact computations with preprojective-algebra modules.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")

    def add(name: str, handler, help_text: str):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(handler=handler)
        return p

    p = add("classify", _cmd_classify, "Cartan kind and Dynkin label")
    p.add_argument("quiver", help="quiver JSON file")

    p = add("ppalg-dims", _cmd_ppalg_dims, "preprojective algebra graded dimensions")
    p.add_argument("quiver", help="quiver JSON file")
    p.add_argument("--max-len", type=int, required=True, metavar="N",
                   help="largest path length degree to report")

    p = add("injective", _cmd_injective, "truncated injective hull")
    p.add_argument("quiver", help="quiver JSON file")
    p.add_argument("--socle", required=True, metavar="DIMVEC",
                   help='socle multiplicities, e.g. "1:1,2:1" or "1,1"')
    p.add_argument("--trunc", type=int, metavar="N", help="truncation length")

    p = add("projective", _cmd_projective, "matching sum of truncated projectives")
    p.add_argument("quiver", help="quiver JSON file")
    p.add_argument("--w", required=True, metavar="DIMVEC", help="top multiplicities")
    p.add_argument("--trunc", type=int, metavar="N", help="truncation length")

    p = add("demazure", _cmd_demazure, "submodule chain along a reduced word")
    p.add_argument("quiver", help="quiver JSON file")
    p.add_argument("--w", required=True, metavar="DIMVEC", help="socle multiplicities")
    p.add_argument("--word", required=True, metavar="WORD",
                   help='reduced word, e.g. "1 2 1" (rightmost letter acts first)')
    p.add_argument("--trunc", type=int, metavar="N", help="truncation length")

    p = add("count", _cmd_count, "submodule-count polynomial")
    p.add_argument("quiver", help="quiver JSON file")
    p.add_argument("--w", required=True, metavar="DIMVEC", help="socle multiplicities")
    p.add_argument("--v", required=True, metavar="DIMVEC", help="submodule dimensions")
    p.add_argument("--primes", required=True, metavar="LIST",
                   help='comma-separated primes, e.g. "2,3,5"')
    p.add_argument("--trunc", type=int, metavar="N", help="truncation length")
    p.add_argument("--cap", type=int, metavar="N",
                   help="cap on the subspace cells the enumeration walks")
    p.add_argument("--workers", type=int, metavar="K",
                   help="process count for per-prime counting (default 1, serial)")

    p = add("weightmult", _cmd_weightmult, "exact weight multiplicity")
    p.add_argument("quiver", help="quiver JSON file")
    p.add_argument("--w", required=True, metavar="DIMVEC", help="highest weight")
    p.add_argument("--v", required=True, metavar="DIMVEC", help="depth below the highest weight")

    p = add("rep-matrices", _cmd_rep_matrices, "operator matrices on the point basis")
    p.add_argument("quiver", help="quiver JSON file")
    p.add_argument("--w", required=True, metavar="DIMVEC", help="socle multiplicities")
    p.add_argument("--trunc", type=int, metavar="N", help="truncation length")
    p.add_argument("--primes", default="2,3,5", metavar="LIST",
                   help='test primes (default "2,3,5")')
    p.add_argument("--cap", type=int, metavar="N",
                   help="cap on the subspace cells the enumeration walks")

    p = add("chevalley", _cmd_chevalley, "diagram-twist comparison report")
    p.add_argument("quiver", help="quiver JSON file")
    p.add_argument("--w", required=True, metavar="DIMVEC", help="socle multiplicities")
    p.add_argument("--trunc", type=int, metavar="N", help="truncation length")
    p.add_argument("--primes", default="2,3,5", metavar="LIST",
                   help='test primes (default "2,3,5")')
    p.add_argument("--cap", type=int, metavar="N",
                   help="cap on the subspace cells the enumeration walks")

    p = add("verify", _cmd_verify, "run a named check suite")
    p.add_argument("suite", help='suite name ("core")')

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.config_values = _load_config(args.config)
        for key in _CONFIG_KEYS:
            value = getattr(args, key, None)
            if value is not None and value < 1:
                raise ValidationError(f"--{key} must be a positive integer")
        return args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LimitError as exc:
        print(f"limit exceeded: {exc}", file=sys.stderr)
        return 3
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 4
    except QuivergrassError as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    entry()
