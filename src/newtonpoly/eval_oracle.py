"""Vertex and support-function oracles from black-box evaluation.

Two query styles:

* deterministic vertex queries: given a coefficient cap, a coefficient-ratio
  cap, and a finite exponent superset, a single evaluation at a certified
  stretch factor pins down the exposed vertex;

* adaptive support queries: for rational directions the support value lies in
  a known discrete group, so a 1/tau-convergent sequence of log-magnitude
  ratios identifies it without any coefficient information.  The candidate
  exponents are the lattice points under the support values along the
  coordinate axes and the two total-degree directions (1, ..., 1) and
  (-1, ..., -1), one fixed cut system that needs no LP.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

# linprog stays importable here, uncalled: perfbench/tracing.py wraps the name
from scipy.optimize import linprog  # noqa: F401

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
    """The estimated support values leave no candidate exponent."""


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
        if len({len(beta) for beta in self.superset}) != 1:
            raise ValueError("the exponent superset rows differ in length")
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
    """Smallest pairwise separation of {w . beta : beta in B}, in exact arithmetic."""
    if len(B) < 2:
        raise ValueError("need at least two candidate exponents")
    if not all(isinstance(x, (int, Fraction)) for x in w):
        raise TypeError("vertex queries need exact rational direction entries")
    dots = sorted(sum(wi * a for wi, a in zip(w, beta)) for beta in B)
    gap = min(b - a for a, b in zip(dots, dots[1:]))
    if gap == 0:
        raise NotGenericError(f"direction {', '.join(map(str, w))} does not separate the candidates")
    return DirectionGap(tuple(w), float(gap))


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


def adaptive_superset(
    f: Slp, n: int, rng: random.Random
) -> Tuple[np.ndarray, List[Tuple[Tuple[Fraction, ...], Fraction]]]:
    """Lattice points of the region cut out by estimated support values.

    The cuts are the coordinate axes e_i, then (1, ..., 1) and (-1, ..., -1),
    the total-degree cuts; a row that repeats an axis (n = 1) is left out.
    Exponents are nonnegative, so the axis values give the box
    0 <= x_i <= floor(h(e_i)) exactly, and every cut then filters its points.
    Returns the candidate exponents, the rows of a (k, n) int64 array in
    lexicographic order, and the (direction, value) pairs that produced them;
    the true support is always contained in the candidates.
    """
    axes = [tuple(Fraction(int(j == i)) for j in range(n)) for i in range(n)]
    totals = [d for d in ((Fraction(1),) * n, (Fraction(-1),) * n) if d not in axes]
    cuts = [(d, support_estimate(f, d, rng=rng).h_value) for d in axes + totals]
    his = [math.floor(h) for _, h in cuts[:n]]
    points = box_points([0] * n, his, [(d, h, False) for d, h in cuts])
    if not len(points):  # a negative axis value leaves an empty box
        raise UnboundedError("no lattice points satisfy the estimated cuts")
    return points, cuts
