"""Vertex and support-function oracles from black-box evaluation.

Two query styles:

* deterministic vertex queries: given a coefficient cap, a coefficient-ratio
  cap, and a finite exponent superset, a single evaluation at a certified
  stretch factor pins down the exposed vertex;

* adaptive support queries: for rational directions the support value lies in
  a known discrete group, so a 1/tau-convergent sequence of log-magnitude
  ratios identifies it without any coefficient information.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from scipy.optimize import linprog

# convex_hull stays importable here: perfbench/tracing.py wraps the name
from .polytope import box_points, convex_hull  # noqa: F401
from .slp import Exponent, OracleIndeterminate, Slp, evaluate, log_abs, scaled_point

E_INV = math.exp(-1.0)


class NotGenericError(ValueError, OracleIndeterminate):
    """Two candidate exponents have (numerically) equal dot products with w."""


class StretchOverflowError(ValueError, OracleIndeterminate):
    """The certified stretch factor for w exceeds a double."""


class NoUniqueCandidateError(OracleIndeterminate):
    """The measured ratio does not single out one candidate exponent."""


class EvaluationZeroError(OracleIndeterminate):
    """f vanished exactly at the query point."""


class NoConvergenceError(OracleIndeterminate):
    """The support estimate did not settle on a group element."""


class UnboundedError(RuntimeError):
    """The requested directions do not cut out a bounded region."""


@dataclass(frozen=True)
class EvalBounds:
    """Coefficient log-magnitude cap, log-ratio cap, and exponent superset."""

    delta: float
    lam: float
    superset: Tuple[Exponent, ...]

    def __post_init__(self):
        if not (1 <= self.delta < math.inf and 1 <= self.lam < math.inf):
            raise ValueError("delta and lambda must both be finite and at least 1")
        if not self.superset:
            raise ValueError("the exponent superset must be nonempty")
        if len(set(self.superset)) != len(self.superset):
            raise ValueError("the exponent superset contains duplicates")


@dataclass(frozen=True)
class DirectionGap:
    w: Tuple
    d_w: float


@dataclass(frozen=True)
class SupportEstimate:
    w: Tuple
    group_gen: Fraction
    samples: Tuple[Tuple[float, float], ...]
    h_value: Optional[Fraction]


@dataclass(frozen=True)
class VertexAnswer:
    beta: Exponent
    ratio: float
    t: float
    d_w: float


def min_gap(B: Sequence[Exponent], w: Sequence) -> DirectionGap:
    """Smallest pairwise separation of {w . beta : beta in B}; exact for rational w."""
    if len(B) < 2:
        raise ValueError("need at least two candidate exponents")
    exact = all(isinstance(x, (int, Fraction)) for x in w)
    if exact:
        w_vec = [Fraction(x) for x in w]
        dots = sorted(sum(wi * a for wi, a in zip(w_vec, beta)) for beta in B)
        gap = min(b - a for a, b in zip(dots, dots[1:]))
        if gap == 0:
            raise NotGenericError(f"direction {tuple(w)} does not separate the candidates")
        return DirectionGap(tuple(w), float(gap))
    dots = sorted(sum(float(wi) * a for wi, a in zip(w, beta)) for beta in B)
    gap = min(b - a for a, b in zip(dots, dots[1:]))
    if gap < 1e-12:
        raise NotGenericError(f"direction {tuple(w)} does not separate the candidates")
    return DirectionGap(tuple(w), gap)


def threshold_t(bounds: EvalBounds, gap: DirectionGap) -> float:
    """Stretch factors above this certify a vertex query for these bounds."""
    if gap.d_w <= 0:
        raise ValueError("the direction gap must be positive")
    top = max(
        2.0 * bounds.lam,
        2.0 * (bounds.delta + E_INV),
        bounds.lam + math.log(len(bounds.superset)) + 1.0,
    )
    try:
        return math.exp(top / gap.d_w)
    except OverflowError:
        raise StretchOverflowError(f"the certified stretch factor exp({top / gap.d_w:g}) exceeds a double") from None


def vertex_query(
    f: Slp,
    bounds: EvalBounds,
    w: Sequence,
    rng: random.Random,
    t: Optional[float] = None,
) -> VertexAnswer:
    """Identify the exposed vertex from one evaluation at a large stretch.

    The default evaluation point is all-ones; if the value vanishes exactly or
    no unique candidate emerges, a fresh random unit-modulus point is tried
    twice before giving up.
    """
    gap = min_gap(bounds.superset, w)
    if t is None:
        t = 2.0 * threshold_t(bounds, gap)
    elif not 1 < t < math.inf:
        raise ValueError(f"the stretch factor must be a finite number above 1, not {t}")
    w_float = [float(x) for x in w]
    log_t = math.log(t)
    x = [1.0 + 0.0j] * f.n
    last_error: Optional[Exception] = None
    for attempt in range(3):
        log_value = log_abs(evaluate(f, scaled_point(t, w_float, x)))
        if log_value == -math.inf:
            last_error = EvaluationZeroError("f vanished at the query point")
        else:
            ratio = log_value / log_t
            near = [
                beta
                for beta in bounds.superset
                if abs(sum(wi * a for wi, a in zip(w_float, beta)) - ratio) < gap.d_w / 2
            ]
            if len(near) == 1:
                return VertexAnswer(near[0], ratio, t, gap.d_w)
            last_error = NoUniqueCandidateError(
                f"{len(near)} candidates within d_w/2 of the measured ratio {ratio:.6f}"
            )
        x = [complex(math.cos(a), math.sin(a)) for a in (rng.uniform(0, 2 * math.pi) for _ in range(f.n))]
    raise last_error


def group_generator(w: Sequence) -> Fraction:
    """Positive generator of {w . beta : beta integral} for nonzero w with int
    or Fraction entries: the gcd of w scaled to integers, over the scale."""
    lcd = math.lcm(*(x.denominator for x in w))
    g = math.gcd(*(x.numerator * (lcd // x.denominator) for x in w))
    if not g:
        raise ValueError("the direction must be nonzero")
    return Fraction(g, lcd)


def support_estimate(f: Slp, w: Sequence, rng: random.Random) -> SupportEstimate:
    """Estimate the support value in direction w by monitoring log|f(e^{tau w}. x)| / tau.

    x is a random unit-modulus point and tau runs 4, 6, 9, ... (factor 1.5)
    for at most 200 steps.  The estimate converges like 1/tau to a multiple
    of the direction's group generator g; convergence is declared when three
    consecutive estimates round to the same multiple with shrinking errors
    below g/4.  A value of exactly zero retries at up to two fresh points.
    """
    if not all(isinstance(v, (int, Fraction)) for v in w):
        raise TypeError("support estimates need exact rational direction entries")
    w_vec = tuple(w)
    gen = group_generator(w_vec)
    gen_f = float(gen)
    tol = 0.25 * gen_f
    w_float = [float(v) for v in w_vec]

    samples: List[Tuple[float, float]] = []
    for attempt in range(3):
        point = [
            complex(math.cos(a), math.sin(a))
            for a in (rng.uniform(0, 2 * math.pi) for _ in range(f.n))
        ]
        samples = []
        history: List[Tuple[int, float]] = []
        tau = 4.0
        failed = False
        for _ in range(200):
            log_value = log_abs(evaluate(f, scaled_point(math.e, [wi * tau for wi in w_float], point)))
            if log_value == -math.inf:
                failed = True
                break
            est = log_value / tau
            samples.append((tau, est))
            multiple = round(est / gen_f)
            dist = abs(est - multiple * gen_f)
            history.append((multiple, dist))
            if len(history) >= 3:
                (m0, d0), (m1, d1), (m2, d2) = history[-3:]
                if m0 == m1 == m2 and d0 >= d1 >= d2 and d2 < tol:
                    return SupportEstimate(w_vec, gen, tuple(samples), Fraction(m2) * gen)
            tau *= 1.5
        if not failed:
            break  # schedule exhausted without convergence; a new x will not help more
    raise NoConvergenceError(
        f"no 1/tau convergence in direction {tuple(float(v) for v in w_vec)}"
    )


def _box_bounds(directions: Sequence[Sequence], values: Sequence, n: int) -> List[int]:
    """Per-coordinate integer upper bounds of {x >= 0, W x <= h}.

    A cut row d with every entry >= 0 and d_i > 0 gives x_i <= d . x <= h,
    so x_i <= floor(h / d_i), exactly.  Only coordinates that no such row
    bounds fall back to a (floating-point) LP.  UnboundedError reports a
    negative exact bound, an unbounded coordinate, or an LP that finds the
    region empty; an empty region whose coordinates are all bounded exactly
    is left to the caller, whose box then holds no point of it.
    """
    his: List[Optional[int]] = [None] * n
    for d, h in zip(directions, values):
        if any(v < 0 for v in d):
            continue
        for i, di in enumerate(d):
            if di > 0:
                # floor(h / d_i) on numerators and denominators; d_i > 0
                bound = (h.numerator * di.denominator) // (h.denominator * di.numerator)
                if his[i] is None or bound < his[i]:
                    his[i] = bound
    if any(hi is not None and hi < 0 for hi in his):
        raise UnboundedError("the direction system cuts out no point with x >= 0")
    a_ub = [[float(v) for v in row] for row in directions]
    b_ub = [float(v) for v in values]
    for i in range(n):
        if his[i] is not None:
            continue
        cost = [0.0] * n
        cost[i] = -1.0
        res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=[(0, None)] * n, method="highs")
        if res.status == 3:
            raise UnboundedError(f"coordinate {i + 1} is unbounded under the given directions")
        if res.status != 0:
            raise UnboundedError(f"direction system is infeasible or ill-posed (status {res.status})")
        his[i] = int(math.floor(-res.fun + 1e-6)) + 1
    return his


def adaptive_superset(
    f: Slp,
    n: int,
    directions: Sequence[Sequence],
    rng: random.Random,
) -> Tuple[List[Exponent], List[Tuple[Tuple[Fraction, ...], Fraction]]]:
    """Lattice points of the region cut out by estimated support values.

    Returns the candidate exponents and the (direction, value) pairs that
    produced them; the true support is always contained in the candidates.
    """
    dir_vecs = [tuple(Fraction(v) for v in d) for d in directions]
    if any(len(d) != n for d in dir_vecs):
        raise ValueError(f"directions must have {n} entries")
    cuts = []
    for d in dir_vecs:
        est = support_estimate(f, d, rng=rng)
        cuts.append((d, est.h_value))
    his = _box_bounds([c[0] for c in cuts], [c[1] for c in cuts], n)
    points: List[Exponent] = box_points([0] * n, his, [(d, h, False) for d, h in cuts])
    if not points:
        raise UnboundedError("no lattice points satisfy the estimated cuts")
    return points, cuts
