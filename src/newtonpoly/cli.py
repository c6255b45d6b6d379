"""Command-line interface: support queries, vertex queries, reconstruction,
and direct polytope utilities.

One seeded generator drives all randomness per invocation, so identical
invocations produce byte-identical JSON.  Data goes to stdout (or --out);
diagnostics go to stderr.  Exit codes: 0 ok, 2 input error, 3 algorithmic
indeterminacy, 4 internal inconsistency.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import eval_oracle as ev
from . import polytope as pt
from . import reconstruct as rc
from . import slp as sp
from . import witness_oracle as wo

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INDETERMINATE = 3
EXIT_INTERNAL = 4


class InputError(ValueError):
    pass


def _parse_fraction_vector(text: str) -> Tuple[Fraction, ...]:
    try:
        return tuple(Fraction(entry.strip()) for entry in text.split(",") if entry.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad direction {text!r}: {exc}") from exc


def _check_double(w: Sequence[Fraction]) -> None:
    """Directions are evaluated in floating point: every entry must convert
    to a finite double, and the step between the values w . beta (the group
    generator, at most every nonzero |entry|) to a normal one."""
    for i, x in enumerate(w, start=1):
        try:
            float(x)
        except OverflowError:
            raise InputError(f"direction entry {i} is too large for a double") from None
    if any(w) and float(ev.group_generator(w)) < sys.float_info.min:
        raise InputError("direction entries are too fine for a double")


def _read_direction_file(path: str) -> List[Tuple[Fraction, ...]]:
    directions = []
    for line_no, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            directions.append(tuple(Fraction(f) for f in line.split()))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"{path}:{line_no}: bad rational vector: {exc}") from exc
    if not directions:
        raise InputError(f"{path}: no directions found")
    return directions


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load_polynomial(args) -> Tuple[sp.Slp, int, Optional[sp.SparsePolynomial]]:
    """Returns (program, variable count, sparse form when available)."""
    if getattr(args, "sparse", None):
        try:
            poly = sp.parse_sparse(_read_text(args.sparse))
        except sp.SparseParseError as exc:
            raise InputError(f"{args.sparse}: {exc}") from exc
        if poly.is_zero():
            raise InputError(f"{args.sparse}: the zero polynomial has no Newton polytope")
        return sp.sparse_to_slp(poly), poly.n, poly
    if getattr(args, "slp", None):
        try:
            program = sp.parse_slp(_read_text(args.slp))
        except sp.SlpParseError as exc:
            raise InputError(f"{args.slp}: {exc}") from exc
        return program, program.n, None
    raise InputError("one of --sparse or --slp is required")


def _match_arity(program: sp.Slp, width: int, source: str) -> sp.Slp:
    """Widen a program's ambient arity to the query dimension.

    A program that never reads some trailing variables (a constant, say) can
    still be queried in any larger ambient dimension.
    """
    if width == program.n:
        return program
    if width > program.n:
        return sp.Slp(width, program.instructions, program.output)
    raise InputError(f"direction has {width} entries, but {source} reads {program.n} inputs")


def _emit(args, payload, text_lines=None, csv_rows=None) -> None:
    fmt = getattr(args, "format", "json")
    if fmt == "json":
        body = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        rows = csv_rows if csv_rows is not None else []
        body = "\n".join(",".join(str(x) for x in row) for row in rows)
        body += "\n" if body else ""
    else:
        lines = text_lines if text_lines is not None else [json.dumps(payload, sort_keys=True)]
        body = "\n".join(lines) + "\n"
    out_path = getattr(args, "out", None)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(body)
        except OSError as exc:
            raise InputError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(body)


# ---------------------------------------------------------------------------
# support

def cmd_support(args) -> int:
    program, n, _ = _load_polynomial(args)
    directions: List[Tuple[Fraction, ...]] = [_parse_fraction_vector(w) for w in args.w or []]
    if args.directions:
        directions.extend(_read_direction_file(args.directions))
    if not directions:
        raise InputError("supply at least one direction via --w or --directions")
    if not all(any(w) for w in directions):
        raise InputError("a direction must be nonzero")
    for w in directions:
        _check_double(w)
    rng = random.Random(args.seed)
    records = []
    lines = []
    rows = [("w", "h")]
    for w in directions:
        if args.slp:
            program = _match_arity(program, len(w), args.slp)
        elif len(w) != n:
            raise InputError(f"direction {tuple(map(str, w))} has {len(w)} entries, expected {n}")
        est = ev.support_estimate(program, w, rng=rng)
        records.append(
            {
                "w": [str(x) for x in w],
                "h": str(est.h_value),
                "vertex": None,
                "log_t_used": est.samples[-1][0],
                "estimates": [[tau, value] for tau, value in est.samples],
            }
        )
        lines.append(f"h({', '.join(map(str, w))}) = {est.h_value}")
        rows.append((";".join(map(str, w)), str(est.h_value)))
    _emit(args, records, text_lines=lines, csv_rows=rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# vertex

def _load_bounds(args) -> ev.EvalBounds:
    """Coefficient caps from --delta/--lambda and the --superset candidates."""
    if args.superset is None:
        raise InputError("eval backend needs --superset PATH or --adaptive")
    rows = _read_direction_file(args.superset)
    for row in rows:
        if any(x.denominator != 1 for x in row):
            raise InputError(f"{args.superset}: superset row {' '.join(map(str, row))} is not integral")
    superset = [tuple(int(x) for x in row) for row in rows]
    try:
        return ev.EvalBounds(args.delta, getattr(args, "lambda"), tuple(superset))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A JSON number that converts to a finite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _load_witness_setup(args, seed: int):
    try:
        config = json.loads(_read_text(args.witness_config))
    except json.JSONDecodeError as exc:
        raise InputError(f"{args.witness_config}: {exc}") from exc
    if not isinstance(config, dict):
        raise InputError(f"{args.witness_config}: a witness config must be a JSON object")
    base = os.path.dirname(os.path.abspath(args.witness_config))
    backend_info = config.get("backend") or {}
    path = backend_info.get("path") if isinstance(backend_info, dict) else None
    if path is None:
        raise InputError("witness config is missing backend.path")
    full = path if os.path.isabs(path) else os.path.join(base, path)
    kind = backend_info.get("type", "sparse")
    poly = None
    try:
        if kind == "sparse":
            poly = sp.parse_sparse(_read_text(full))
            if poly.is_zero():
                raise InputError(f"{full}: the zero polynomial has no Newton polytope")
            backend = wo.SparseLineBackend(poly)
        elif kind == "slp":
            backend = wo.SlpLineBackend(sp.parse_slp(_read_text(full)))
        else:
            raise InputError(f"unknown witness backend type {kind!r}")
    except (sp.SparseParseError, sp.SlpParseError) as exc:
        raise InputError(f"{full}: {exc}") from exc

    def check(ok: bool, message: str) -> None:
        if not ok:
            raise InputError(f"{args.witness_config}: {message}")

    seed = config.get("seed", seed)
    check(_is_int(seed), "seed must be an integer")
    degree = config.get("degree")
    check(degree is None or (_is_int(degree) and degree >= 1), "degree must be a positive integer")
    c_value = config.get("C")
    check(c_value is None or (_is_number(c_value) and c_value > 0), "C must be a positive number")
    t_max = config.get("t_max", 1e8) if args.t_max is None else args.t_max
    check(_is_number(t_max) and t_max > 1, "t_max (or --t-max) must be a number above 1")
    line_info = config.get("line")
    a = b = None
    if line_info is not None:
        check(isinstance(line_info, dict), "line must be an object with entries a and b")
        for key in ("a", "b"):
            pairs = line_info.get(key)
            check(
                isinstance(pairs, list)
                and len(pairs) == backend.n
                and all(isinstance(p, list) and len(p) == 2 and all(map(_is_number, p)) for p in pairs),
                f"line.{key} must hold {backend.n} [re, im] number pairs",
            )
        a, b = ([complex(re, im) for re, im in line_info[key]] for key in ("a", "b"))
    rng = random.Random(seed)
    line = wo.make_line(backend.n, rng, backend, a=a, b=b, degree=degree)
    consts = wo.line_constants(line, C=c_value if c_value is not None else 10.0)
    rate_source = None
    if poly is not None:
        rate_source = lambda w: wo.rate_params_from_sparse(  # noqa: E731
            poly, [float(x) for x in w], consts, C=c_value
        )
    wcfg = wo.WitnessConfig(
        t_max=float(t_max),
        rng=rng,
        rate_source=rate_source,
        C=c_value,
    )
    return backend, line, consts, wcfg


def cmd_vertex(args) -> int:
    if not args.w:
        raise InputError("--w is required")
    w = _parse_fraction_vector(args.w[0])
    _check_double(w)
    rng = random.Random(args.seed)
    if args.backend == "eval":
        program, n, _ = _load_polynomial(args)
        if args.slp:
            program = _match_arity(program, len(w), args.slp)
            n = program.n
        elif len(w) != n:
            raise InputError(f"direction has {len(w)} entries, expected {n}")
        if args.adaptive:
            if not any(w):
                raise InputError("a direction must be nonzero")
            oracle = rc.EvalVertexOracle.adaptive(program, n, rng=rng)
            for attempt in range(8):
                try:
                    beta = oracle.query(w)
                    h = oracle.support(w)
                    break
                except rc.OracleIndeterminate:
                    if attempt == 7:
                        raise
                    # an extra support cut prunes box points that shadow the vertex
                    try:
                        probe = rc.random_direction(n, 3, rng)
                        oracle.support(tuple(Fraction(x) for x in probe))
                    except rc.OracleIndeterminate:
                        pass
            record = {
                "w": [str(x) for x in w],
                "h": str(h),
                "vertex": list(beta),
                "t_used": None,
                "estimates": [],
            }
            lines = [f"vertex = {beta}  (support value {h})"]
        else:
            bounds = _load_bounds(args)
            try:
                answer = ev.vertex_query(program, bounds, w, rng, t=args.t)
            except ValueError as exc:  # a non-generic direction, a bad --t or a stretch beyond a double
                raise InputError(str(exc)) from exc
            h = sum(wi * bi for wi, bi in zip(w, answer.beta))
            record = {
                "w": [str(x) for x in w],
                "h": str(Fraction(h)),
                "vertex": list(answer.beta),
                "t_used": answer.t,
                "estimates": [],
                "ratio": answer.ratio,
            }
            lines = [
                f"vertex = {answer.beta}",
                f"measured log|f(t^w)| / log t = {answer.ratio:.4f} at t = {answer.t:g}",
            ]
        _emit(args, record, text_lines=lines)
        return EXIT_OK

    # witness backend
    if not args.witness_config:
        raise InputError("witness backend needs --witness-config PATH")
    backend, line, consts, wcfg = _load_witness_setup(args, args.seed)
    if len(w) != line.n:
        raise InputError(f"direction has {len(w)} entries, expected {line.n}")
    cert = wo.witness_vertex_query(backend, line, consts, list(w), wcfg)
    record = {
        "w": [str(x) for x in w],
        "h": str(sum(wi * bi for wi, bi in zip(w, cert.beta))),
        "vertex": list(cert.beta),
        "t_used": wcfg.t_max,
        "t_entry": cert.t_entry,
        "estimates": [],
    }
    lines = [
        f"vertex = {cert.beta}",
        f"all paths classified from t = {cert.t_entry:g}; bounds checked to t = {wcfg.t_max:g}",
    ]
    rows = None
    if args.format == "csv":  # path traces
        rows = [("path_id", "t", "re_s", "im_s", "residual")]
        for idx, path in enumerate(cert.paths):
            for t, s, res in path.samples:
                rows.append((idx, f"{t!r}", f"{s.real!r}", f"{s.imag!r}", f"{res:.3e}"))
    _emit(args, record, text_lines=lines, csv_rows=rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# reconstruct

def cmd_reconstruct(args) -> int:
    rng = random.Random(args.seed)
    if args.backend == "eval":
        program, n, _ = _load_polynomial(args)
        if args.adaptive:
            oracle = rc.EvalVertexOracle.adaptive(program, n, rng=rng)
        else:
            oracle = rc.EvalVertexOracle.from_bounds(program, _load_bounds(args), rng=rng)
    else:
        if not args.witness_config:
            raise InputError("witness backend needs --witness-config PATH")
        backend, line, consts, wcfg = _load_witness_setup(args, args.seed)
        oracle = rc.WitnessVertexOracle(backend, line, consts, wcfg)
        n = line.n
    report = rc.reconstruct(oracle, n, rc.ReconstructConfig(seed=args.seed))

    payload = {
        "polytope": json.loads(pt.to_json(report.polytope)),
        "report": {
            "queries": report.queries,
            "indeterminate": report.indeterminate,
            "confirmed_facets": report.confirmed_facets,
            "unconfirmed": [list(normal) for normal, _ in report.unconfirmed],
            "complete": report.complete,
        },
    }
    lines = [
        f"vertices: {len(report.polytope.vertices)}  facets: {len(report.polytope.facets)}"
        f"  dim: {report.polytope.dim}",
        f"queries: {report.queries}  indeterminate: {report.indeterminate}"
        f"  complete: {report.complete}",
    ]
    for v in report.polytope.vertices:
        lines.append("  " + " ".join(map(str, v)))
    _emit(args, payload, text_lines=lines)
    if not report.complete:
        print("reconstruction incomplete: some facets unconfirmed", file=sys.stderr)
        return EXIT_INDETERMINATE
    return EXIT_OK


# ---------------------------------------------------------------------------
# polytope utilities

def _read_points(path: str) -> List[Tuple[int, ...]]:
    points = []
    for line_no, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            points.append(tuple(int(f) for f in line.split()))
        except ValueError as exc:
            raise InputError(f"{path}:{line_no}: bad integer point: {exc}") from exc
    if not points:
        raise InputError(f"{path}: no points found")
    return points


def cmd_hull(args) -> int:
    points = _read_points(args.points)
    try:
        P = pt.convex_hull(points)
    except pt.PolytopeInputError as exc:
        raise InputError(str(exc)) from exc
    payload = json.loads(pt.to_json(P))
    lines = [f"dim {P.dim}, {len(P.vertices)} vertices, {len(P.facets)} facets"]
    lines += ["  " + " ".join(map(str, v)) for v in P.vertices]
    _emit(args, payload, text_lines=lines)
    return EXIT_OK


def cmd_lattice(args) -> int:
    try:
        P = pt.from_json(_read_text(args.polytope))
        points = pt.lattice_points(P)
    except pt.PolytopeInputError as exc:
        raise InputError(str(exc)) from exc
    payload = {"count": len(points), "points": [list(p) for p in points]}
    lines = [f"{len(points)} lattice points"] + ["  " + " ".join(map(str, p)) for p in points]
    rows = [tuple(p) for p in points]
    _emit(args, payload, text_lines=lines, csv_rows=rows)
    return EXIT_OK


def cmd_isom(args) -> int:
    try:
        P = pt.from_json(_read_text(args.p))
        Q = pt.from_json(_read_text(args.q))
    except pt.PolytopeInputError as exc:
        raise InputError(str(exc)) from exc
    ok, witness = pt.affinely_isomorphic(P, Q)
    payload = {"isomorphic": ok, "transform": None}
    if ok:
        payload["transform"] = {
            "matrix": [[str(x) for x in row] for row in witness.matrix],
            "translation": [str(x) for x in witness.translation],
        }
    lines = [f"isomorphic: {ok}"]
    _emit(args, payload, text_lines=lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="newtonpoly",
        description="Newton polytopes from evaluation or witness-set vertex oracles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, polynomial=True):
        if polynomial:
            p.add_argument("--sparse", help="sparse polynomial file (COEFF : e1 .. en)")
            p.add_argument("--slp", help="straight-line program file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="write output here instead of stdout")
        p.add_argument("--format", choices=["json", "csv", "text"], default="json")

    p_support = sub.add_parser("support", help="support-function values from evaluation")
    common(p_support)
    p_support.add_argument("--w", action="append", help="direction, comma-separated rationals")
    p_support.add_argument("--directions", help="file with one rational direction per line")
    p_support.set_defaults(func=cmd_support)

    p_vertex = sub.add_parser("vertex", help="vertex exposed by a direction")
    common(p_vertex)
    p_vertex.add_argument("--backend", choices=["eval", "witness"], required=True)
    p_vertex.add_argument("--w", action="append", required=True)
    p_vertex.add_argument("--t", type=float, help="stretch factor (eval backend)")
    p_vertex.add_argument("--t-max", dest="t_max", type=float, help="tracking horizon (witness)")
    p_vertex.add_argument("--delta", type=float, default=1.0, help="coefficient log-magnitude cap")
    p_vertex.add_argument("--lambda", type=float, default=1.0, help="coefficient log-ratio cap")
    p_vertex.add_argument("--superset", help="file of candidate exponent vectors")
    p_vertex.add_argument("--adaptive", action="store_true")
    p_vertex.add_argument("--witness-config", dest="witness_config")
    p_vertex.set_defaults(func=cmd_vertex)

    p_rec = sub.add_parser("reconstruct", help="full Newton polytope from an oracle")
    common(p_rec)
    p_rec.add_argument("--backend", choices=["eval", "witness"], default="eval")
    p_rec.add_argument("--delta", type=float, default=1.0)
    p_rec.add_argument("--lambda", type=float, default=1.0)
    p_rec.add_argument("--superset")
    p_rec.add_argument("--adaptive", action="store_true")
    p_rec.add_argument("--witness-config", dest="witness_config")
    p_rec.add_argument("--t-max", dest="t_max", type=float)
    p_rec.set_defaults(func=cmd_reconstruct)

    p_hull = sub.add_parser("hull", help="exact convex hull of integer points")
    common(p_hull, polynomial=False)
    p_hull.add_argument("--points", required=True, help="file with one integer point per line")
    p_hull.set_defaults(func=cmd_hull)

    p_lat = sub.add_parser("lattice", help="lattice points of a polytope")
    common(p_lat, polynomial=False)
    p_lat.add_argument("--polytope", required=True, help="polytope JSON file")
    p_lat.set_defaults(func=cmd_lattice)

    p_isom = sub.add_parser("isom", help="lattice-affine isomorphism test")
    common(p_isom, polynomial=False)
    p_isom.add_argument("--p", required=True)
    p_isom.add_argument("--q", required=True)
    p_isom.set_defaults(func=cmd_isom)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except rc.OracleIndeterminate as exc:  # any query that could not be certified
        print(f"indeterminate: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE
    except (rc.OracleInconsistent, pt.HullError) as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
