"""The benchmark's workloads: seeded inputs, the timed library calls, and the
correctness check of every output.

Every input is built here from the workload seed; the library only receives
the generated polynomials, programs, lines and point sets.  Each workload
splits into ``build`` (set-up, untimed), ``solve`` (the timed calls into the
library's public entry points) and ``check`` (untimed).
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, List, Optional, Tuple

import numpy as np
from scipy.spatial import ConvexHull

import newtonpoly
from newtonpoly import polytope as pt
from newtonpoly import reconstruct as rc
from newtonpoly import witness_oracle as wo
from newtonpoly.numbers import GaussianRational
from newtonpoly.slp import SparsePolynomial, parse_sparse, sparse_to_slp

FIXTURES = Path(newtonpoly.__file__).resolve().parent / "fixtures"

# the CLI's witness default when a config gives no coefficient-ratio bound
WITNESS_C = 10.0


def derive_seed(seed: int, *parts) -> int:
    """A 63-bit seed for one input or one RNG, fixed by the workload seed."""
    text = ":".join(str(p) for p in (seed,) + parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


# ---------------------------------------------------------------------------
# input recipes

def _coefficient(rng: random.Random) -> GaussianRational:
    """Exact Gaussian-rational coefficient of magnitude about e^-1 .. e^2."""
    mag = math.exp(rng.uniform(-1.0, 2.0))
    ang = rng.uniform(0.0, 2.0 * math.pi)
    re = Fraction(round(mag * math.cos(ang) * 2**16), 2**16)
    im = Fraction(round(mag * math.sin(ang) * 2**16), 2**16)
    if re == 0 and im == 0:
        re = Fraction(1)
    return GaussianRational(re, im)


def random_polynomial(rng: random.Random, n: int, deg_max: int, terms: Optional[int] = None) -> SparsePolynomial:
    """The acceptance suite's corpus recipe (criterion 7) in ``n`` variables.

    Total degree at most ``deg_max``, 2 to ``min(10, 3 + 2n)`` terms, and no
    common monomial factor.  With ``terms`` given, that many terms are drawn
    and the total degree is exactly ``deg_max``.
    """
    while True:
        k = terms if terms is not None else rng.randint(2, min(10, 3 + 2 * n))
        support = set()
        for _ in range(200):
            if len(support) >= k:
                break
            alpha = [0] * n
            for _ in range(rng.randint(0, deg_max)):
                alpha[rng.randrange(n)] += 1
            support.add(tuple(alpha))
        lows = [min(a[i] for a in support) for i in range(n)]
        support = sorted({tuple(a[i] - lows[i] for i in range(n)) for a in support})
        degree = max(sum(a) for a in support)
        if len(support) < 2 or degree < 1 or (terms is not None and degree != deg_max):
            continue
        poly = SparsePolynomial.from_terms(n, [(_coefficient(rng), a) for a in support])
        if len(poly.terms) >= 2:
            return poly


def _bipyramid_points(k: int) -> List[Tuple[int, ...]]:
    """Lattice points of k times the bipyramid fixture (3-dimensional)."""
    data = json.loads((FIXTURES / "bipyramid.json").read_text())
    verts = data["vertices"]
    lo = [k * min(v[i] for v in verts) for i in range(3)]
    hi = [k * max(v[i] for v in verts) for i in range(3)]
    rows = [(f["normal"], k * f["offset"]) for f in data["facets"]]
    grid = np.stack(
        np.meshgrid(*(np.arange(a, b + 1) for a, b in zip(lo, hi)), indexing="ij"), axis=-1
    ).reshape(-1, 3)
    keep = np.ones(len(grid), dtype=bool)
    for normal, offset in rows:
        keep &= grid @ np.asarray(normal) <= offset
    return [tuple(int(x) for x in row) for row in grid[keep]]


def _delta_sumset(k: int) -> List[Tuple[int, ...]]:
    """All k-fold sums of the f1 fixture's support: lattice points of k * Delta
    in 6 dimensions, an affinely 3-dimensional set."""
    base = parse_sparse((FIXTURES / "f1.poly").read_text()).support()
    sums = {tuple([0] * len(base[0]))}
    for _ in range(k):
        sums = {tuple(a + b for a, b in zip(s, p)) for s in sums for p in base}
    return sorted(sums)


def _general_points(rng: random.Random, d: int) -> List[Tuple[int, ...]]:
    """Random points in general position; the count keeps the hull under 0.5 s."""
    count = {3: 60, 4: 36, 5: 22, 6: 15}[d]
    return [tuple(rng.randint(-40, 40) for _ in range(d)) for _ in range(count)]


def _dilated_points(rng: random.Random) -> List[Tuple[int, ...]]:
    if rng.random() < 0.5:
        pts = _bipyramid_points(rng.randint(3, 6))
    else:
        pts = _delta_sumset(rng.randint(2, 4))
    shift = [rng.randint(-5, 5) for _ in pts[0]]
    return [tuple(x + s for x, s in zip(p, shift)) for p in pts]


def _flat_points(rng: random.Random) -> List[Tuple[int, ...]]:
    """Points on a random 2- or 3-dimensional affine lattice in 4 to 6 dimensions."""
    d = rng.randint(4, 6)
    k = rng.randint(2, 3)
    basis = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(k)]
    origin = [rng.randint(-10, 10) for _ in range(d)]
    pts = []
    for _ in range(rng.randint(25, 45)):
        c = [rng.randint(-6, 6) for _ in range(k)]
        pts.append(tuple(o + sum(ci * b[j] for ci, b in zip(c, basis)) for j, o in enumerate(origin)))
    return pts


def _small_box_points(rng: random.Random, d: int) -> List[Tuple[int, ...]]:
    """Duplicate- and coplanar-heavy draws from a small box."""
    side = 3 if d == 3 else 2
    return [tuple(rng.randint(0, side) for _ in range(d)) for _ in range(rng.randint(40, 90))]


def _large_box_points(rng: random.Random) -> List[Tuple[int, ...]]:
    """More than 512 distinct points of a 3-dimensional box: the peel path."""
    cells = [(x, y, z) for x in range(9) for y in range(9) for z in range(9)]
    return rng.sample(cells, rng.randint(540, 600))


# Input kinds cycle per slot and a timed run measures whole cycles, so every
# run holds the same mix whatever the seed.  Otherwise the median latency
# moves with the share of cheap kinds: 21% against 27% univariate inputs in a
# 380-input eval run moved it by 13%.
#
# The criterion-7 recipe draws the number of variables uniformly from 1..4;
# cycling through them keeps exactly those proportions.
EVAL_VARIABLES = (1, 2, 3, 4)

# Witness reconstructions through the SLP backend cost 0.1 s to 9 s each,
# growing with degree, variables and terms, so a free draw from the recipe
# leaves a timed run with a handful of inputs, and the median of a mix of
# shapes jumps between them.  Every witness input therefore has one
# (variables, terms, degree) shape, the one found to vary least in cost per
# input (0.2-0.4 s through the SLP backend).
WITNESS_SHAPE = (2, 4, 2)

# Fixed dimensions per kind: a general-position hull in 6D costs six times
# one in 3D, and drawing the dimension made the kind's cost vary by as much.
# An odd count keeps the median inside one kind.
HULL_KINDS = (
    functools.partial(_general_points, d=3),
    functools.partial(_general_points, d=4),
    functools.partial(_general_points, d=5),
    functools.partial(_general_points, d=6),
    _dilated_points,
    _flat_points,
    functools.partial(_small_box_points, d=3),
    functools.partial(_small_box_points, d=4),
    _large_box_points,
)


# ---------------------------------------------------------------------------
# inputs and outputs

@dataclass(frozen=True)
class PolyInput:
    poly: SparsePolynomial
    slp: Any
    seed: int  # feeds the oracle's, the line's and reconstruct()'s RNGs


@dataclass(frozen=True)
class HullInput:
    points: Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class Verdict:
    status: str  # "ok" | "incomplete" | "wrong"
    canonical: str  # polytope.to_json plus query counts, for the output digest
    queries: Optional[int] = None


# Perturbed directions tried per unconfirmed facet before reconstruct() gives
# up on it and reports the polytope incomplete.  With the library's default
# of 4, eval-corpus seed 5012 input 162 ends incomplete: every direction
# tried near the outer normal (0, 0, -1) ties the true vertex with candidate
# exponents no support cut had removed yet.  That is about one input in
# 60,000.  Each extra try cut the share of incomplete inputs by a factor of 5
# to 25 on eval-corpus and witness-sparse (measurements in README.md).
FACET_RETRIES = 8


def _recon_config(item: PolyInput) -> rc.ReconstructConfig:
    return rc.ReconstructConfig(seed=derive_seed(item.seed, "reconstruct"), jobs=1, facet_retries=FACET_RETRIES)


def _eval_solve(item: PolyInput):
    oracle = rc.EvalVertexOracle.adaptive(
        item.slp, item.poly.n, rng=random.Random(derive_seed(item.seed, "oracle"))
    )
    return rc.reconstruct(oracle, item.poly.n, _recon_config(item))


def _witness_solve(item: PolyInput, backend):
    poly = item.poly
    rng = random.Random(derive_seed(item.seed, "line"))
    line = wo.make_line(poly.n, rng, backend)
    consts = wo.line_constants(line, C=WITNESS_C)
    config = wo.WitnessConfig(
        rng=rng,
        rate_source=lambda w: wo.rate_params_from_sparse(poly, [float(x) for x in w], consts),
    )
    return rc.reconstruct(rc.WitnessVertexOracle(backend, line, consts, config), poly.n, _recon_config(item))


def _witness_sparse_solve(item: PolyInput):
    return _witness_solve(item, wo.SparseLineBackend(item.poly))


def _witness_slp_solve(item: PolyInput):
    return _witness_solve(item, wo.SlpLineBackend(item.slp))


def _check_reconstruction(item: PolyInput, report) -> Verdict:
    canonical = f"{pt.to_json(report.polytope)} queries={report.queries} indeterminate={report.indeterminate}"
    if not report.complete:
        return Verdict("incomplete", canonical, report.queries)
    expected = pt.convex_hull(item.poly.support())
    return Verdict("ok" if report.polytope == expected else "wrong", canonical, report.queries)


def _hull_solve(item: HullInput):
    return pt.convex_hull(item.points)


def hull_is_exact(points, P: pt.LatticePolytope) -> bool:
    """Exact check of a hull against its input points.

    Every point satisfies every facet and equality; every vertex is an input
    point lying on at least ``dim`` facets; on full-dimensional input the
    vertex set equals Qhull's.
    """
    dot = lambda u, v: sum(a * b for a, b in zip(u, v))  # noqa: E731
    pts = set(points)
    for p in pts:
        if any(dot(f.normal, p) > f.offset for f in P.facets):
            return False
        if any(dot(normal, p) != offset for normal, offset in P.equalities):
            return False
    for v in P.vertices:
        if v not in pts or sum(dot(f.normal, v) == f.offset for f in P.facets) < P.dim:
            return False
    if P.dim == P.n:
        arr = np.asarray(sorted(pts), dtype=float)
        qhull = {tuple(int(x) for x in arr[i]) for i in ConvexHull(arr).vertices}
        if qhull != set(P.vertices):
            return False
    return True


def _check_hull(item: HullInput, P) -> Verdict:
    return Verdict("ok" if hull_is_exact(item.points, P) else "wrong", pt.to_json(P))


# ---------------------------------------------------------------------------
# the workloads

def _eval_inputs(seed: int, count: int) -> List[PolyInput]:
    items = []
    for i in range(count):
        rng = random.Random(derive_seed(seed, "poly", i))
        poly = random_polynomial(rng, EVAL_VARIABLES[i % len(EVAL_VARIABLES)], 6)
        items.append(PolyInput(poly, sparse_to_slp(poly), derive_seed(seed, i)))
    return items


def _witness_inputs(seed: int, count: int) -> List[PolyInput]:
    n, terms, degree = WITNESS_SHAPE
    items = []
    for i in range(count):
        poly = random_polynomial(random.Random(derive_seed(seed, "poly", i)), n, degree, terms)
        items.append(PolyInput(poly, sparse_to_slp(poly), derive_seed(seed, i)))
    return items


def _f5_inputs(seed: int) -> List[PolyInput]:
    poly = parse_sparse((FIXTURES / "f5.poly").read_text())
    return [PolyInput(poly, sparse_to_slp(poly), derive_seed(seed, 0))]


def _hull_inputs(seed: int, count: int) -> List[HullInput]:
    items = []
    for i in range(count):
        rng = random.Random(derive_seed(seed, "points", i))
        items.append(HullInput(tuple(HULL_KINDS[i % len(HULL_KINDS)](rng))))
    return items


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int], list]  # seed -> inputs; a run cycles through them
    solve: Callable[[Any], Any]
    check: Callable[[Any, Any], Verdict]
    digest_items: int  # outputs of the first inputs that go into the digest
    cycle: int = 1  # a timed run stops only after a whole cycle of input kinds


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "eval-corpus",
            "many short adaptive eval reconstructions (criterion-7 recipe): time spread over SLP evaluation, linprog, hull rebuilds and the reconstruction loop",
            lambda seed: _eval_inputs(seed, 1200),
            _eval_solve,
            _check_reconstruction,
            digest_items=40,
            cycle=len(EVAL_VARIABLES),
        ),
        Workload(
            "eval-f5",
            "degree-12 fixture f5: adaptive_superset enumerates 91,125 Fraction candidates; the case for candidate enumeration",
            _f5_inputs,
            _eval_solve,
            _check_reconstruction,
            digest_items=1,
        ),
        Workload(
            "witness-sparse",
            "witness reconstruction with the sparse line backend and known rates: path tracking and eval_ds dominate",
            lambda seed: _witness_inputs(seed, 300),
            _witness_sparse_solve,
            _check_reconstruction,
            digest_items=4,
        ),
        Workload(
            "witness-slp",
            "same tracker, inputs and rates as witness-sparse, with every eval_ds running the dual-number SLP interpreter on ScaledComplex",
            lambda seed: _witness_inputs(seed, 300),
            _witness_slp_solve,
            _check_reconstruction,
            digest_items=4,
        ),
        Workload(
            "hull",
            "exact convex hulls of general, dilated-fixture, lower-dimensional and box point sets in 3-6D: the polytope layer alone",
            lambda seed: _hull_inputs(seed, 600),
            _hull_solve,
            _check_hull,
            digest_items=24,
            cycle=len(HULL_KINDS),
        ),
    )
}
