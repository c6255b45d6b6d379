"""Drive a vertex oracle to a complete Newton polytope.

The loop keeps an exact hull of the certified vertices found so far and, for
every hull facet, asks the oracle about a slightly perturbed outer normal.
The perturbation is small enough (in exact rational arithmetic) that the
answer must lie on the face the facet normal exposes: if it lies beyond the
facet the hull grows, if it lies on the facet the facet is confirmed as a
facet of the true polytope.  The polytope is complete when every facet (and,
for lower-dimensional polytopes, every affine-hull equality) is confirmed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import eval_oracle as ev
from . import witness_oracle as wo
from .polytope import CutFilter, LatticePolytope, Point, _dot, _hermite, _int_kernel, _RowBasis, _sub, convex_hull
from .slp import Exponent, OracleIndeterminate, Slp


class OracleInconsistent(RuntimeError):
    """The oracle returned a point strictly inside the current hull."""


class OracleExhausted(OracleIndeterminate):
    """No certified answers at all; nothing to reconstruct from."""


# entries of random directions and of facet-normal tilts are drawn from [-5, 5]
DIRECTION_BOUND = 5


# ---------------------------------------------------------------------------
# oracle adapters

class EvalVertexOracle:
    """Vertex oracle backed by black-box evaluation.

    Two modes: deterministic queries against user-supplied coefficient bounds
    and a candidate superset, or fully adaptive queries that first estimate
    support values to build the candidate set, then identify vertices by their
    exact support value.
    """

    def __init__(self, slp: Slp, n: int, superset: Sequence[Exponent], rng: random.Random, bounds=None):
        self.slp = slp
        self.n = n
        self.bounds = bounds
        self.rng = rng
        points = np.asarray(superset)
        self.coord_bound = max(1, int(points.max())) if points.size else 1
        # candidates still compatible with every support cut seen so far;
        # the true support always survives, imposters get peeled away
        self._candidates = CutFilter(points.T)
        # directions are exact (int or Fraction entries); Fraction(k) and k hash alike
        self._cache: Dict[Tuple, Point] = {}
        self._support_cache: Dict[Tuple, Fraction] = {}

    @classmethod
    def from_bounds(cls, slp: Slp, bounds: ev.EvalBounds, rng: random.Random) -> "EvalVertexOracle":
        n = len(bounds.superset[0])
        return cls(slp, n, bounds.superset, rng, bounds=bounds)

    @classmethod
    def adaptive(cls, slp: Slp, n: int, rng: random.Random) -> "EvalVertexOracle":
        """Candidates from ``ev.adaptive_superset``; its cut values also
        answer later support queries in those directions."""
        superset, cuts = ev.adaptive_superset(slp, n, rng)
        oracle = cls(slp, n, superset, rng)
        oracle._support_cache.update(cuts)
        return oracle

    def query(self, w: Sequence) -> Point:
        key = tuple(w)
        if key in self._cache:
            return self._cache[key]
        if self.bounds is not None:
            beta = self._query_bounds(key)
        else:
            beta = self._query_adaptive(key)
        self._cache[key] = beta
        return beta

    def _query_bounds(self, w) -> Point:
        return ev.vertex_query(self.slp, self.bounds, w, rng=self.rng).beta

    def _query_adaptive(self, w) -> Point:
        h = self.support(w)
        hits = np.nonzero(self._candidates.keep([(w, h, True)]))[0]
        if len(hits) != 1:
            raise OracleIndeterminate(
                f"{len(hits)} candidate exponents attain the support value"
            )
        return tuple(int(a[hits[0]]) for a in self._candidates.axes)

    def support(self, w: Sequence) -> Fraction:
        key = tuple(w)
        if key in self._support_cache:
            return self._support_cache[key]
        est = ev.support_estimate(self.slp, key, rng=self.rng)
        self._support_cache[key] = est.h_value
        live = self._candidates.keep([(key, est.h_value, False)])
        if not live.all():
            self._candidates = CutFilter([a[live] for a in self._candidates.axes])
        return est.h_value


class WitnessVertexOracle:
    """Vertex oracle backed by witness-set path tracking."""

    def __init__(
        self,
        backend,
        line: wo.WitnessLine,
        consts: wo.LineConstants,
        config: wo.WitnessConfig,
    ):
        self.backend = backend
        self.line = line
        self.consts = consts
        self.config = config
        self.n = line.n
        self.coord_bound = max(1, line.degree)
        self._cache: Dict[Tuple, Point] = {}
        self.certificates: List[wo.VertexCertificate] = []

    def query(self, w: Sequence) -> Point:
        key = tuple(w)
        if key in self._cache:
            return self._cache[key]
        cert = wo.witness_vertex_query(self.backend, self.line, self.consts, key, self.config)
        self.certificates.append(cert)
        self._cache[key] = cert.beta
        return cert.beta

    support = None


# ---------------------------------------------------------------------------
# directions

def random_direction(
    n: int,
    bound: int,
    rng: random.Random,
    candidates: Optional[Sequence[Point]] = None,
) -> Tuple[int, ...]:
    """Nonzero integer direction, redrawn until it separates the candidates.

    Small candidate sets get full pairwise separation; for sets too large for
    any bounded integer vector to separate (pigeonhole), a unique maximizer
    and minimizer are required instead.  The bound doubles every 32 draws;
    after 256 draws the direction is indeterminate.
    """
    if bound < 1:
        raise ValueError("direction bound must be at least 1")
    full_check = candidates is not None and len(candidates) <= 2048
    for attempt in range(256):
        if attempt and attempt % 32 == 0:
            bound *= 2
        w = tuple(rng.randint(-bound, bound) for _ in range(n))
        if not any(w):
            continue
        if candidates is None:
            return w
        dots = sorted(sum(wi * c for wi, c in zip(w, cand)) for cand in candidates)
        if full_check:
            if all(a != b for a, b in zip(dots, dots[1:])):
                return w
        else:
            if dots[0] != dots[1] and dots[-1] != dots[-2]:
                return w
    raise OracleIndeterminate("no separating direction found in 256 draws")


def facet_query_direction(
    normal: Sequence[int], coord_bound: int, r_bound: int, rng: random.Random
) -> Tuple[int, ...]:
    """Outer normal nudged into general position without leaving the facet's cone.

    The direction is M*u + r for the normal u.  The tilt r has integer
    entries drawn from [-r_bound, r_bound] without 0: where u_i = 0, a zero
    r_i would leave a direction such as (-17, 0) that ties a whole edge.
    M > n * r_bound * coord_bound, so for any two candidate exponents the
    scaled normal part dominates the tilt: every maximizer of M*u + r also
    maximizes u, i.e. the oracle's answer lands on the facet's exposed face.
    Keeping the direction integral keeps all dot-product gaps at least 1,
    which is what lets the witness tracker converge at a usable rate.
    """
    n = len(normal)
    m = n * r_bound * coord_bound + 1
    r = [rng.choice((-1, 1)) * rng.randint(1, r_bound) for _ in range(n)]
    return tuple(m * u + ri for u, ri in zip(normal, r))


# ---------------------------------------------------------------------------
# reconstruction

def _both_sides(normal: Point, offset: int) -> List[Tuple[Point, int]]:
    """The equality normal . x = offset as two planes, normal . x <= offset
    and -normal . x <= -offset."""
    return [(normal, offset), (tuple(-x for x in normal), -offset)]


@dataclass
class ReconstructConfig:
    seed: int = 0
    facet_retries: int = 4
    # facets are probed one after another; 1 is the only accepted value
    jobs: int = 1

    def __post_init__(self):
        if self.jobs != 1:
            raise ValueError(f"jobs must be 1 (got {self.jobs}): facets are probed sequentially")


@dataclass
class ReconstructionReport:
    polytope: LatticePolytope
    queries: int
    indeterminate: int
    confirmed_facets: int
    unconfirmed: List[Tuple[Point, int]]
    complete: bool
    # (direction, "vertex <beta>" | "support <h>" | "vertex indeterminate" | "support indeterminate")
    query_log: List[Tuple[Tuple[float, ...], str]] = field(repr=False, default_factory=list)


def reconstruct(oracle, n: int, config: Optional[ReconstructConfig] = None) -> ReconstructionReport:
    """Assemble the full polytope from certified vertex answers.

    Seed phase: query perturbed coordinate directions, then random directions,
    until the vertices span R^n or one of two stop rules holds.  With support
    values (the eval oracle), the phase ends once n certified answers in a row
    found no new vertex and every equality of the vertices' affine hull
    holds, from both sides, at its support value; the first equality that
    does not hold is looked past with a direction tilted from its normal,
    whose answer raises the rank.  Without them (the witness oracle), it ends
    after 8n certified answers without a rank gain, which also caps the first
    rule.  Loop phase: confirm or refute each hull facet (and each affine-hull
    equality, from both sides); a plane that a vertex inserted earlier in the
    same round already cuts off is skipped, a round that inserts new vertices
    re-hulls once, and the hull of the last round is the result.  Each support
    value is asked once per reconstruction.
    """
    cfg = config or ReconstructConfig()
    rng = random.Random(cfg.seed)
    # the seed phase stops after this many certified answers without a rank gain
    budget = 8 * n
    has_support = getattr(oracle, "support", None) is not None

    confirmed: set = set()
    log: List[Tuple[Tuple[float, ...], str]] = []
    counters = {"queries": 0, "indeterminate": 0}

    def ask(w, support: bool = False):
        """One counted, logged oracle call: the vertex (or, with ``support``,
        the support value) for w, or None when the oracle is indeterminate."""
        counters["queries"] += 1
        kind = "support" if support else "vertex"
        try:
            answer = oracle.support(tuple(w)) if support else oracle.query(tuple(w))
        except OracleIndeterminate:
            counters["indeterminate"] += 1
            log.append((tuple(float(x) for x in w), f"{kind} indeterminate"))
            return None
        log.append((tuple(float(x) for x in w), f"{kind} {answer}"))
        return answer

    support_values: Dict[Point, Optional[Fraction]] = {}
    confirmed_planes: set = set()

    def holds(plane) -> bool:
        """Whether the support value of the plane's normal equals its offset;
        an indeterminate value reads as False and is not asked again."""
        normal, offset = plane
        if normal not in support_values:
            support_values[normal] = ask(normal, support=True)
        h = support_values[normal]
        if h is not None and h < offset:
            raise OracleInconsistent(f"support value below hull plane {normal} . x <= {offset}")
        if h == offset:
            confirmed_planes.add(plane)
        return h == offset

    # ---- seed phase
    seed_dirs: List[Tuple] = []
    for i in range(n):
        unit = tuple(1 if j == i else 0 for j in range(n))
        neg = tuple(-1 if j == i else 0 for j in range(n))
        seed_dirs.append(facet_query_direction(unit, oracle.coord_bound, DIRECTION_BOUND, rng))
        seed_dirs.append(facet_query_direction(neg, oracle.coord_bound, DIRECTION_BOUND, rng))
    # differences from the first certified vertex span the affine hull
    basis = _RowBasis(n)
    base: Optional[Point] = None
    stable = 0  # certified answers since the last rank gain
    repeats = 0  # certified answers in a row that found no new vertex
    attempts = 0
    attempt_cap = 16 * n + 4 * budget
    while attempts < attempt_cap:
        attempts += 1
        if seed_dirs:
            w = seed_dirs.pop(0)
        else:
            try:
                w = random_direction(n, DIRECTION_BOUND, rng, candidates=list(confirmed) or None)
            except OracleIndeterminate:
                break
        beta = ask(w)
        if beta is not None:
            if base is None:
                base = beta
            if beta in confirmed:
                repeats += 1
                stable += 1
            else:
                repeats = 0
                stable = 0 if basis.add(_sub(beta, base)) else stable + 1
            confirmed.add(beta)
        if confirmed and basis.rank == n:
            break
        if seed_dirs:
            continue
        if stable >= budget:
            break
        if has_support and repeats >= n:
            # the equalities convex_hull reports for the confirmed points
            normals = _hermite(_int_kernel(basis.rows, n), n)
            planes = [plane for u in normals for plane in _both_sides(u, _dot(u, base))]
            failing = next((plane for plane in planes if not holds(plane)), None)
            if failing is None:
                break  # the affine hull is certified: no answer can raise the rank
            seed_dirs.append(facet_query_direction(failing[0], oracle.coord_bound, DIRECTION_BOUND, rng))
    if not confirmed:
        raise OracleExhausted("the oracle certified no direction at all")

    # ---- facet confirmation loop
    unconfirmed: List[Tuple[Point, int]] = []
    hull = convex_hull(confirmed)
    while True:
        planes = [(f.normal, f.offset) for f in hull.facets]
        for normal, offset in hull.equalities:
            planes += _both_sides(normal, offset)
        planes = [plane for plane in planes if plane not in confirmed_planes]
        if not planes:
            unconfirmed = []
            break

        inserted: List[Point] = []
        round_unconfirmed = []
        for plane in planes:
            normal, offset = plane
            # a vertex inserted this round beyond the plane refutes it
            if any(_dot(normal, v) > offset for v in inserted):
                continue
            # all of a plane's perturbed directions are drawn before its first query
            dirs = [
                facet_query_direction(normal, oracle.coord_bound, DIRECTION_BOUND, rng)
                for _ in range(cfg.facet_retries)
            ]
            # a support value settles the plane without a unique vertex
            if has_support and holds(plane):
                continue
            beta = None
            for w in dirs:
                beta = ask(w)
                if beta is not None:
                    break
            if beta is None:
                round_unconfirmed.append(plane)
                continue
            value = _dot(normal, beta)
            if value > offset:
                if beta not in confirmed:
                    confirmed.add(beta)
                    inserted.append(beta)
                else:
                    round_unconfirmed.append(plane)
            elif value == offset:
                confirmed_planes.add(plane)
            else:
                raise OracleInconsistent(
                    f"oracle answer {beta} lies strictly inside facet {normal} . x <= {offset}"
                )
        if inserted:
            hull = convex_hull(confirmed)
            continue
        if round_unconfirmed:
            unconfirmed = round_unconfirmed
            break

    complete = not unconfirmed
    return ReconstructionReport(
        polytope=hull,
        queries=counters["queries"],
        indeterminate=counters["indeterminate"],
        confirmed_facets=len(hull.facets) + 2 * len(hull.equalities) - len(unconfirmed),
        unconfirmed=unconfirmed,
        complete=complete,
        query_log=log,
    )
