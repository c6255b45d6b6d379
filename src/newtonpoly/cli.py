"""Command-line interface: support queries, vertex queries, reconstruction,
and direct polytope utilities.

--seed fixes every generator of an invocation, so identical invocations
produce byte-identical output: the oracle draws from random.Random(seed), and
reconstruct's directions and facet tilts from a generator whose seed is
derived from it.  Data goes to stdout (or --out); diagnostics go to stderr.
Exit codes: 0 ok, 2 input error, 3 algorithmic indeterminacy, 4 internal
inconsistency.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import sys
from fractions import Fraction
from typing import Optional, Sequence, Tuple

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
        return _rational_row(entry for entry in text.split(",") if entry.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad direction {text!r}: {exc}") from exc


def _check_direction(w: Sequence[Fraction]) -> None:
    """A direction must be nonzero, and it is evaluated in floating point:
    every entry must convert to a finite double, and the step between the
    values w . beta (the group generator, at most every nonzero |entry|) to a
    normal one."""
    if not any(w):
        raise InputError("a direction must be nonzero")
    for i, x in enumerate(w, start=1):
        try:
            float(x)
        except OverflowError:
            raise InputError(f"direction entry {i} is too large for a double") from None
    if float(ev.group_generator(w)) < sys.float_info.min:
        raise InputError("direction entries are too fine for a double")


def _read_rows(path: str, parse, what: str) -> list:
    """``parse`` applied to the fields of every line; ``#`` starts a comment."""
    rows = []
    for line_no, raw in enumerate(_read_text(path).splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if fields:
            try:
                rows.append(parse(fields))
            except (ValueError, ZeroDivisionError) as exc:
                raise InputError(f"{path}:{line_no}: bad {what}: {exc}") from exc
    if not rows:
        raise InputError(f"{path}: no {what}s found")
    return rows


def _rational_row(fields) -> Tuple[Fraction, ...]:
    return tuple(Fraction(f) for f in fields)


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _read_program(path: str, kind: str) -> Tuple[sp.Slp, Optional[sp.SparsePolynomial]]:
    """The compiled program in a ``kind`` ("sparse" or "slp") file and, for a
    sparse file, its polynomial (None for an SLP file)."""
    text = _read_text(path)
    try:
        if kind == "slp":
            return sp.parse_slp(text), None
        poly = sp.parse_sparse(text)
    except (sp.SparseParseError, sp.SlpParseError) as exc:
        raise InputError(f"{path}: {exc}") from exc
    if poly.is_zero():
        raise InputError(f"{path}: the zero polynomial has no Newton polytope")
    return sp.sparse_to_slp(poly), poly


def _load_polynomial(args) -> sp.Slp:
    if args.sparse and args.slp:
        raise InputError("--sparse and --slp exclude each other; give one")
    if args.sparse:
        return _read_program(args.sparse, "sparse")[0]
    if args.slp:
        return _read_program(args.slp, "slp")[0]
    raise InputError("one of --sparse or --slp is required")


def _fit(program: sp.Slp, w: Sequence[Fraction], args) -> sp.Slp:
    """The program in the direction's dimension.  An --slp program widens: one
    that never reads some trailing variables (a constant, say) can still be
    queried in any larger ambient dimension.  A --sparse polynomial must match."""
    if args.slp and len(w) > program.n:
        return sp.Slp(len(w), program.instructions, program.output)
    if len(w) != program.n:
        raise InputError(f"direction has {len(w)} entries, expected {program.n}")
    return program


def _emit(args, payload, text_lines, csv_rows=None) -> None:
    if args.format == "json":
        body = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    elif args.format == "csv":
        body = "\n".join(",".join(str(x) for x in row) for row in csv_rows)
        body += "\n" if body else ""
    else:
        body = "\n".join(text_lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(body)
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(body)


# ---------------------------------------------------------------------------
# support

def cmd_support(args) -> int:
    program = _load_polynomial(args)
    directions = [_parse_fraction_vector(w) for w in args.w or []]
    if args.directions:
        directions.extend(_read_rows(args.directions, _rational_row, "direction"))
    if not directions:
        raise InputError("supply at least one direction via --w or --directions")
    for w in directions:
        _check_direction(w)
    rng = random.Random(args.seed)
    records = []
    lines = []
    rows = [("w", "h")]
    for w in directions:
        est = ev.support_estimate(_fit(program, w, args), w, rng=rng)
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
# oracles

def _integral_row(fields) -> Tuple[int, ...]:
    row = _rational_row(fields)
    if any(x.denominator != 1 for x in row):
        raise ValueError(f"{' '.join(map(str, row))} is not integral")
    return tuple(int(x) for x in row)


def _load_bounds(args, n: int) -> ev.EvalBounds:
    """Coefficient caps from --delta/--lambda and the --superset candidates
    for a polynomial in n variables."""
    if args.superset is None:
        raise InputError("eval backend needs --superset PATH or --adaptive")
    superset = _read_rows(args.superset, _integral_row, "superset row")
    delta, lam = (1.0 if x is None else x for x in (args.delta, getattr(args, "lambda")))
    try:
        bounds = ev.EvalBounds(delta, lam, tuple(superset))
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if len(superset[0]) != n:
        raise InputError(f"{args.superset}: superset rows have {len(superset[0])} entries, expected {n}")
    return bounds


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


def _load_witness_setup(args) -> rc.WitnessVertexOracle:
    if not args.witness_config:
        raise InputError("witness backend needs --witness-config PATH")
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
    if kind not in ("sparse", "slp"):
        raise InputError(f"unknown witness backend type {kind!r}")
    program, poly = _read_program(full, kind)
    backend = wo.SlpLineBackend(program)

    def check(ok: bool, message: str) -> None:
        if not ok:
            raise InputError(f"{args.witness_config}: {message}")

    seed = config.get("seed", args.seed)
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
    return rc.WitnessVertexOracle(backend, line, consts, wcfg)


# the argparse dests of the oracle options; the flag of each is --dest, with
# "-" for "_"
ORACLE_OPTIONS = ("sparse", "slp", "superset", "delta", "lambda", "t", "adaptive", "witness_config", "t_max")


def _load_oracle(args, rng: random.Random, w: Optional[Sequence[Fraction]] = None):
    """The vertex oracle the arguments select: witness, or eval (adaptive or
    bounds) drawing from ``rng``.  A direction ``w`` fixes the dimension.  An
    oracle option that the selected backend does not read is refused."""
    if args.backend == "witness":
        backend, reads = "witness", {"witness_config", "t_max"}
    elif args.adaptive:
        backend, reads = "adaptive eval", {"sparse", "slp", "adaptive"}
    else:
        backend, reads = "--superset eval", {"sparse", "slp", "superset", "delta", "lambda", "t"}
    for dest in ORACLE_OPTIONS:
        value = getattr(args, dest, None)  # only vertex has --t
        if dest not in reads and value is not None and value is not False:
            raise InputError(f"the {backend} backend does not read --{dest.replace('_', '-')}")
    if args.backend == "witness":
        oracle = _load_witness_setup(args)
        if w is not None and len(w) != oracle.n:
            raise InputError(f"direction has {len(w)} entries, expected {oracle.n}")
        return oracle
    program = _load_polynomial(args)
    if w is not None:
        program = _fit(program, w, args)
    if args.adaptive:
        return rc.EvalVertexOracle.adaptive(program, program.n, rng=rng)
    return rc.EvalVertexOracle.from_bounds(program, _load_bounds(args, program.n), rng=rng)


# ---------------------------------------------------------------------------
# vertex

def _query_in_cone(oracle, w: Sequence[Fraction], rng: random.Random) -> pt.Point:
    """The vertex for w or, while w is not general enough, for up to
    ``facet_retries`` directions tilted inside w's normal cone as the facet
    loop tilts an outer normal, so the answer still maximizes w."""
    lcd = math.lcm(*(x.denominator for x in w))
    u = [int(x * lcd) for x in w]
    tries = rc.ReconstructConfig.facet_retries
    direction = w
    for attempt in range(tries + 1):
        try:
            return oracle.query(direction)
        except rc.OracleIndeterminate:
            if attempt == tries:
                raise
        direction = rc.facet_query_direction(u, oracle.coord_bound, rc.DIRECTION_BOUND, rng)


def cmd_vertex(args) -> int:
    if len(args.w) > 1:
        raise InputError(f"vertex takes one direction, got {len(args.w)} --w options")
    w = _parse_fraction_vector(args.w[0])
    _check_direction(w)
    rng = random.Random(args.seed)
    oracle = _load_oracle(args, rng, w)
    record = {"w": [str(x) for x in w], "estimates": []}
    rows = None
    if args.backend == "witness":
        _query_in_cone(oracle, w, oracle.config.rng)
        cert = oracle.certificates[-1]
        beta, t_max = cert.beta, oracle.config.t_max
        record.update(t_used=t_max, t_entry=cert.t_entry)
        lines = [
            f"vertex = {beta}",
            f"all paths classified from t = {cert.t_entry:g}; bounds checked to t = {t_max:g}",
        ]
        if args.format == "csv":  # path traces
            rows = [("path_id", "t", "re_s", "im_s", "residual")]
            for idx, path in enumerate(cert.paths):
                for t, s, res in path.samples:
                    rows.append((idx, f"{t!r}", f"{s.real!r}", f"{s.imag!r}", f"{res:.3e}"))
    elif args.adaptive:
        beta = _query_in_cone(oracle, w, rng)
        record["t_used"] = None
        lines = [f"vertex = {beta}  (support value {pt._dot(w, beta)})"]
    else:
        try:
            answer = ev.vertex_query(oracle.slp, oracle.bounds, w, rng, t=args.t)
        except ValueError as exc:  # a non-generic direction, a bad --t or a stretch beyond a double
            raise InputError(str(exc)) from exc
        beta = answer.beta
        record.update(t_used=answer.t, ratio=answer.ratio)
        lines = [
            f"vertex = {beta}",
            f"measured log|f(t^w)| / log t = {answer.ratio:.4f} at t = {answer.t:g}",
        ]
    record.update(h=str(pt._dot(w, beta)), vertex=list(beta))
    _emit(args, record, text_lines=lines, csv_rows=rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# reconstruct

def _derive_seed(seed: int, stream: str) -> int:
    """A 63-bit seed for the named generator, fixed by --seed."""
    digest = hashlib.sha256(f"{seed}:{stream}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def cmd_reconstruct(args) -> int:
    oracle = _load_oracle(args, random.Random(args.seed))
    # the facet tilts draw from their own stream, not the oracle's
    config = rc.ReconstructConfig(seed=_derive_seed(args.seed, "reconstruct"))
    report = rc.reconstruct(oracle, oracle.n, config)

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

def cmd_hull(args) -> int:
    points = _read_rows(args.points, lambda fields: tuple(int(f) for f in fields), "integer point")
    P = pt.convex_hull(points)
    payload = json.loads(pt.to_json(P))
    lines = [f"dim {P.dim}, {len(P.vertices)} vertices, {len(P.facets)} facets"]
    lines += ["  " + " ".join(map(str, v)) for v in P.vertices]
    _emit(args, payload, text_lines=lines)
    return EXIT_OK


def cmd_lattice(args) -> int:
    points = pt.lattice_points(pt.from_json(_read_text(args.polytope)))
    payload = {"count": len(points), "points": [list(p) for p in points]}
    lines = [f"{len(points)} lattice points"] + ["  " + " ".join(map(str, p)) for p in points]
    rows = [tuple(p) for p in points]
    _emit(args, payload, text_lines=lines, csv_rows=rows)
    return EXIT_OK


def cmd_isom(args) -> int:
    ok, witness = pt.affinely_isomorphic(pt.from_json(_read_text(args.p)), pt.from_json(_read_text(args.q)))
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

    def oracle(p, **backend):  # the options _load_oracle reads
        common(p)
        p.add_argument("--backend", choices=["eval", "witness"], **backend)
        p.add_argument("--delta", type=float, help="coefficient log-magnitude cap (default 1)")
        p.add_argument("--lambda", type=float, help="coefficient log-ratio cap (default 1)")
        p.add_argument("--superset", help="file of candidate exponent vectors")
        p.add_argument("--adaptive", action="store_true")
        p.add_argument("--witness-config", dest="witness_config")
        p.add_argument("--t-max", dest="t_max", type=float, help="tracking horizon (witness)")

    p_support = sub.add_parser("support", help="support-function values from evaluation")
    common(p_support)
    p_support.add_argument("--w", action="append", help="direction, comma-separated rationals")
    p_support.add_argument("--directions", help="file with one rational direction per line")
    p_support.set_defaults(func=cmd_support)

    p_vertex = sub.add_parser("vertex", help="vertex exposed by a direction")
    oracle(p_vertex, required=True)
    p_vertex.add_argument("--w", action="append", required=True)
    p_vertex.add_argument("--t", type=float, help="stretch factor (eval backend with --superset)")
    p_vertex.set_defaults(func=cmd_vertex)

    p_rec = sub.add_parser("reconstruct", help="full Newton polytope from an oracle")
    oracle(p_rec, default="eval")
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
        # rows for --format csv: support values, lattice points, witness path traces
        table = args.command in ("support", "lattice") or (args.command == "vertex" and args.backend == "witness")
        if args.format == "csv" and not table:
            raise InputError(f"{args.command} has no CSV output; use --format json or text")
        return args.func(args)
    except (InputError, pt.PolytopeInputError) as exc:  # malformed polytope data is an input error
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
