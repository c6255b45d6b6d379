"""Vertex oracle from witness-set line intersections.

The hypersurface is probed along a generic parametrized line; as the ambient
coordinates are stretched, the intersection points either cluster at one of n
distinguished limits on the line or run off to infinity.  Counting the
cluster sizes reads off the exposed vertex coordinate by coordinate, and the
observed convergence/divergence speeds are checked against explicit
subexponential bounds before a vertex is certified.

A :class:`WitnessLine` keeps its intersection points at t = 1, and
:func:`track_paths` continues them in lockstep.  Its predictor extrapolates
the power law c t^g that escaping paths and paths settling onto an anchor
ratio follow, and a secant elsewhere; Newton corrects to a tight tolerance
only where a sample is recorded, and stops once quadratic convergence shows
the remaining error to be negligible.  The next substep follows from how far
the last corrections landed from their predictions, and hop guards against
neighbouring and frozen paths reject a substep before a path can be captured
by another root.

The tracker reads f only through a line backend's ``eval_ds``: the value of
s -> f(t^w . (s a - b)) and its s-derivative, as kernel pairs.
:class:`SlpLineBackend` runs a straight-line program through
:func:`~newtonpoly.slp.evaluate_dir`; :class:`SparseLineBackend` is the same
backend on ``sparse_to_slp`` of a polynomial given by its terms.
"""

from __future__ import annotations

import cmath
import math
import random
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .slp import (
    Exponent, OracleIndeterminate, SparsePolynomial, Slp, _coeff_to_complex, evaluate_dir, scaled, sparse_to_slp,
    to_complex,
)

LN2 = math.log(2.0)


class GenericityFailure(OracleIndeterminate):
    """No acceptable random line after several redraws."""


class DegreeMismatchError(OracleIndeterminate):
    """The line meets the hypersurface in fewer points than expected."""


class RootCoincidenceError(OracleIndeterminate):
    """Two intersection points collide at the base parameter."""


class PathCrossingError(OracleIndeterminate):
    """Two tracked paths approached within the merge guard."""


class TrackingFailureError(OracleIndeterminate):
    """The corrector failed to converge even after step halving."""


class IndeterminateError(OracleIndeterminate):
    """Some path settled in no region; the direction is not general enough."""


class AmbiguousClusterError(RuntimeError):
    """A path landed inside two cluster balls (excluded by construction)."""


class RateViolationError(OracleIndeterminate):
    """A certified bound or expected slope failed on the samples."""


# ---------------------------------------------------------------------------
# line-intersection backends

class SlpLineBackend:
    """Black-box program evaluation of s -> f(t^w . (s a - b)) and its s-derivative."""

    def __init__(self, slp: Slp):
        self.slp = slp
        self.n = slp.n

    def eval_ds(self, line: "WitnessLine", s: complex, t: float, w: Sequence[float]):
        """(f, df/ds) at the line point for parameter s, as kernel pairs."""
        log2t = math.log2(t)
        xs = [scaled(s * ai - bi, float(wi) * log2t) for ai, bi, wi in zip(line.a, line.b, w)]
        vs = [scaled(ai, float(wi) * log2t) for ai, wi in zip(line.a, w)]
        return evaluate_dir(self.slp, xs, vs)


class SparseLineBackend(SlpLineBackend):
    """The line backend for a polynomial given by its terms: evaluates ``sparse_to_slp(poly)``."""

    def __init__(self, poly: SparsePolynomial):
        if poly.is_zero():
            raise ValueError("the zero polynomial defines no hypersurface")
        super().__init__(sparse_to_slp(poly))


# ---------------------------------------------------------------------------
# lines and their constants

@dataclass(frozen=True)
class WitnessLine:
    """A witness set: the line s -> s a - b and the parameters s of its
    intersection points with the hypersurface at t = 1."""

    n: int
    a: Tuple[complex, ...]
    b: Tuple[complex, ...]
    roots: Tuple[complex, ...]

    @property
    def degree(self) -> int:
        return len(self.roots)

    def ratios(self) -> Tuple[complex, ...]:
        return tuple(bi / ai for ai, bi in zip(self.a, self.b))


@dataclass(frozen=True)
class LineConstants:
    a_min: float
    a_max: float
    b_min: float
    b_max: float
    gamma: Tuple[float, ...]
    Gamma: Tuple[float, ...]
    C: float


def make_line(
    n: int,
    rng: random.Random,
    backend,
    a: Optional[Sequence[complex]] = None,
    b: Optional[Sequence[complex]] = None,
    degree: Optional[int] = None,
) -> WitnessLine:
    """Draw (or validate) a generic line: nonzero direction entries, separated
    anchor ratios, and distinct simple intersection points at t = 1, which
    the returned line keeps as its witness points.  A drawn line is redrawn
    up to four times; a given line (a, b) is checked once."""
    fixed = a is not None
    attempts = 1 if fixed else 5
    last = "no attempt made"
    for _ in range(attempts):
        if fixed:
            a_vec = tuple(complex(x) for x in a)
            b_vec = tuple(complex(x) for x in b)
        else:
            a_vec = tuple(_random_entry(rng) for _ in range(n))
            b_vec = tuple(_random_entry(rng) for _ in range(n))
        if any(x == 0 for x in a_vec):
            last = "a direction entry is zero"
            continue
        ratios = [bi / ai for ai, bi in zip(a_vec, b_vec)]
        if any(
            abs(ratios[i] - ratios[j]) <= 1e-3
            for i in range(n)
            for j in range(i + 1, n)
        ):
            last = "anchor ratios are too close"
            continue
        probe = WitnessLine(n, a_vec, b_vec, ())
        try:
            roots = initial_roots(backend, probe, degree_hint=degree)
        except (DegreeMismatchError, RootCoincidenceError) as exc:
            last = str(exc)
            continue
        return WitnessLine(n, a_vec, b_vec, tuple(roots))
    raise GenericityFailure(f"no generic line after {attempts} attempts: {last}")


def _random_entry(rng: random.Random) -> complex:
    angle = rng.uniform(0.0, 2.0 * math.pi)
    radius = 1.0 + 0.5 * (rng.random() - 0.5)
    return radius * complex(math.cos(angle), math.sin(angle))


def line_constants(line: WitnessLine, C: float) -> LineConstants:
    """Geometry constants of the line; cluster radii gamma keep the balls disjoint."""
    mags_a = [abs(x) for x in line.a]
    mags_b = [abs(x) for x in line.b]
    a_min = min([1.0] + mags_a)
    a_max = max([1.0] + mags_a)
    b_min = min([1.0] + mags_b)
    b_max = max([1.0] + mags_b)
    ratios = line.ratios()
    gamma = []
    big_gamma = []
    for i in range(line.n):
        seps = [abs(ratios[i] - ratios[j]) for j in range(line.n) if j != i]
        gamma.append(min([a_min] + [0.5 * s for s in seps]))
        big_gamma.append(max([2.0 / a_max] + seps))
        for s in seps:
            if gamma[i] > 0.5 * s:
                raise AmbiguousClusterError("cluster radii are not separating")
    return LineConstants(a_min, a_max, b_min, b_max, tuple(gamma), tuple(big_gamma), C)


# ---------------------------------------------------------------------------
# initial intersection points

def initial_roots(backend, line: WitnessLine, degree_hint: Optional[int] = None) -> List[complex]:
    """Roots of s -> f(line(s)) at t = 1.

    The univariate restriction is reconstructed from evaluations at roots of
    unity (confirmed on a second circle), then all roots are found at once by
    simultaneous Aberth iteration.
    """
    cap = backend.slp.degree
    if degree_hint is not None and degree_hint > cap:
        cap = degree_hint
    if cap == 0:
        raise DegreeMismatchError("the polynomial is constant on the line")
    zeros = [0.0] * line.n

    def phi(s: complex) -> complex:
        return to_complex(backend.eval_ds(line, s, 1.0, zeros)[0])

    coeffs = _interpolate(phi, cap + 1, 1.0)
    scale = max(abs(c) for c in coeffs)
    if scale == 0:
        raise DegreeMismatchError("the polynomial vanishes identically on the line")
    deg = max((k for k, c in enumerate(coeffs) if abs(c) > 1e-9 * scale), default=0)
    coeffs2 = _interpolate(phi, cap + 2, 1.29)
    deg2 = max((k for k, c in enumerate(coeffs2) if abs(c) > 1e-9 * scale), default=0)
    if deg != deg2:
        raise DegreeMismatchError(
            f"interpolated degrees disagree between node circles ({deg} vs {deg2})"
        )
    if max(abs(a - b) for a, b in zip(coeffs[: deg + 1], coeffs2[: deg + 1])) > 1e-6 * scale:
        raise DegreeMismatchError("interpolated coefficients disagree between node circles")
    if degree_hint is not None and deg != degree_hint:
        raise DegreeMismatchError(f"expected degree {degree_hint}, interpolation found {deg}")
    if deg == 0:
        raise DegreeMismatchError("the restriction to the line is constant")

    roots = _aberth(coeffs[: deg + 1])
    for z in roots:
        bound = sum(abs(c) * max(1.0, abs(z)) ** k for k, c in enumerate(coeffs[: deg + 1]))
        if abs(_horner(coeffs[: deg + 1], z)) > 1e-10 * bound:
            raise RootCoincidenceError("a computed root has a large residual")
    for i in range(deg):
        for j in range(i + 1, deg):
            if abs(roots[i] - roots[j]) <= 1e-8:
                raise RootCoincidenceError("two intersection points coincide at t = 1")
    return roots


def _interpolate(phi: Callable[[complex], complex], count: int, radius: float) -> List[complex]:
    nodes = [radius * cmath.exp(2j * math.pi * k / count) for k in range(count)]
    values = np.array([phi(z) for z in nodes], dtype=complex)
    raw = np.fft.fft(values) / count
    return [complex(raw[k]) / radius**k for k in range(count)]


def _horner(coeffs: Sequence[complex], z: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _horner_pair(coeffs: Sequence[complex], z: complex) -> Tuple[complex, complex]:
    acc = 0j
    dacc = 0j
    for c in reversed(coeffs):
        dacc = dacc * z + acc
        acc = acc * z + c
    return acc, dacc


def _aberth(coeffs: Sequence[complex]) -> List[complex]:
    """Simultaneous root refinement, at most 200 sweeps; all roots converge together."""
    deg = len(coeffs) - 1
    lead = coeffs[-1]
    monic = [c / lead for c in coeffs]
    if deg == 1:
        return [-monic[0]]
    radius = 1.0 + max(abs(c) ** (1.0 / (deg - k)) for k, c in enumerate(monic[:-1]))
    z = [
        radius * cmath.exp(2j * math.pi * (k + 0.37) / deg) for k in range(deg)
    ]
    for _ in range(200):
        moved = 0.0
        for k in range(deg):
            p, dp = _horner_pair(monic, z[k])
            if p == 0:
                continue
            if dp == 0:
                z[k] *= 1 + 1e-6
                moved = math.inf
                continue
            newton = p / dp
            rep = sum(1.0 / (z[k] - z[j]) for j in range(deg) if j != k)
            denom = 1.0 - newton * rep
            step = newton if denom == 0 else newton / denom
            z[k] -= step
            moved = max(moved, abs(step))
        if moved < 1e-13 * (1.0 + max(abs(x) for x in z)):
            break
    return z


# ---------------------------------------------------------------------------
# path tracking

@dataclass(frozen=True)
class TrackedPath:
    samples: Tuple[Tuple[float, complex, float], ...]


def _newton_correct(backend, line, w, s: complex, t: float, tol: float = 1e-12):
    """Newton in s at fixed t, to a relative step below ``tol``.

    From the second step on, a contracting step is also accepted a
    posteriori: with quadratic convergence the error left after a step of
    ``rel`` that followed one of ``prev`` is about rel**3 / prev**2, and that
    estimate is what gets returned.
    """
    rel = math.inf
    for k in range(30):
        (g, ge), (dg, dge) = backend.eval_ds(line, s, t, w)
        if not g:
            return s, 0.0
        if not dg:
            return None
        quotient = g / dg
        exponent = ge - dge + math.frexp(abs(quotient))[1]
        if exponent > 65:  # |g / dg| >= 2**65: no usable step
            return None
        step = to_complex((quotient, ge - dge))
        s = s - step
        prev, rel = rel, abs(step) / (1.0 + abs(s))
        if rel < tol:
            return s, rel
        if k and rel < 1e-4 and rel < prev and rel**3 < 1e-15 * prev**2:
            return s, rel**3 / prev**2
    return (s, rel) if rel < 1e-9 else None


def _schedule(t_max: float, record_at: Sequence[float], density: int = 1) -> List[float]:
    ts = {1.0, float(t_max)}
    step = 2.0 ** (1.0 / density)
    t = 1.0
    while t * step < t_max:
        t *= step
        ts.add(t)
    for extra in record_at:
        if 1.0 < extra <= t_max:
            ts.add(float(extra))
    return sorted(ts)


# a path this close to an anchor ratio can never leave its cluster ball again;
# freezing it avoids meaningless sub-noise corrections
FREEZE_CLUSTER = 1e-8
# beyond this modulus a path is certainly diverging and further growth would
# only exhaust the double range
FREEZE_ESCAPE = 1e12
# a corrected point that travels more than this fraction of its distance to a
# neighbouring path has likely been captured by that path's root
HOP_FRACTION = 0.45
# the prediction error, relative to the gap between predictions (or 1 + |s|
# where that is smaller), that the step control aims each substep at
TARGET = 0.2


def track_paths(
    backend,
    line: WitnessLine,
    w: Sequence[float],
    t_max: float = 1e8,
    record_at: Sequence[float] = (),
) -> List[TrackedPath]:
    """Continue every witness point of the line from t = 1 to t_max.

    Paths start from ``line.roots``.  The predictor (:func:`_predict`)
    extrapolates a power law towards infinity or towards an anchor ratio, and
    the secant of the last substep elsewhere; the corrector is Newton in s,
    which stops at a relative step of 1e-12 on schedule points (1e-8 on the
    substeps between them) or earlier, once quadratic convergence puts the
    remaining error below 1e-15.

    The first substep is capped by the degree and the size of w; each later
    one is the last accepted substep scaled by (TARGET / e)^(1/2), clamped to
    [1/4, 4], where e is the worst distance of a corrected point from its
    prediction relative to the gap between predictions (or to 1 + |s| where
    that is smaller).  The step is carried across schedule points; a substep
    clipped to land on one never shrinks it.  A substep is rejected and halved
    when the corrector fails or a path hops: it lands farther from its
    prediction than 0.45 of the gap between predictions, or travels farther
    than 0.45 of its distance to a frozen path.  A prediction that already
    travels that far towards a frozen path is halved before it is corrected.

    Paths deep inside a cluster ball or far beyond the escape radius are
    frozen (their later samples repeat the frozen value).  A pairwise merge
    guard runs over the active paths at every schedule point; a merge retries
    once on a schedule twice as dense.
    """
    w_vec = [float(x) for x in w]
    for density in (1, 2):
        try:
            return _track_once(backend, line, w_vec, t_max, record_at, density)
        except PathCrossingError:
            if density == 2:
                raise
    raise AssertionError("unreachable")


def _predict(history, step: float, ratios, far: float, near: float) -> complex:
    """The predicted s one substep of ``step`` in log t past a path's last
    accepted points ``history``: two or three (log t, s) pairs, oldest first.

    Escaping paths and paths settling onto an anchor ratio r grow or decay
    like c t^g, so log(s - anchor) is extrapolated linearly in log t.  The
    anchor is 0 beyond the modulus ``far``.  It is the nearest ratio while
    the path approaches it inside ``near`` and its last two substeps give
    rates within 25% of each other.  Every other path gets the secant of its
    last substep.
    """
    (x1, s1), (x2, s2) = history[-2:]
    anchor = None
    if abs(s2) > far:
        anchor = 0j
    elif len(history) == 3:
        r = min(ratios, key=lambda r: abs(s2 - r))
        x0, s0 = history[0]
        if abs(s2 - r) < min(near, abs(s1 - r)) and s0 != r:
            older = cmath.log((s1 - r) / (s0 - r)) / (x1 - x0)
            newer = cmath.log((s2 - r) / (s1 - r)) / (x2 - x1)
            if abs(newer - older) <= 0.25 * abs(older):
                anchor = r
    if anchor is None or s1 == anchor:
        return s2 + (s2 - s1) * (step / (x2 - x1))
    rate = cmath.log((s2 - anchor) / (s1 - anchor)) / (x2 - x1)
    return anchor + (s2 - anchor) * cmath.exp(rate * step)


def _next_step(carried: float, taken: float, errors) -> float:
    """The step in log t after an accepted substep of ``taken``, by the rule
    in :func:`track_paths`, from one (distance from the prediction, scale)
    pair per corrected path.  The square root is there because a secant or
    power-law prediction misses by about the step squared.  A zero error
    grows the step fourfold and an error on a zero scale shrinks it fourfold;
    a substep clipped to land on a schedule point (``taken`` below
    ``carried``) never shrinks the carried step.
    """
    worst = 0.0
    for moved, scale in errors:
        if moved > worst * scale:
            worst = moved / scale if scale else math.inf
    factor = 4.0 if worst == 0 else min(4.0, max(0.25, math.sqrt(TARGET / worst)))
    return max(carried, factor * taken) if taken < carried else factor * taken


def _track_once(backend, line, w_vec, t_max, record_at, density):
    """All paths advance in lockstep on a shared adaptive substep.

    Lockstep makes hops detectable: a corrected point that moved by a sizable
    fraction of the distance to the nearest other path has likely been
    captured by that path's root, so the substep is rejected and halved.
    Accepted substeps set the next one through :func:`_next_step`.
    """
    schedule = _schedule(t_max, record_at, density)
    ratios = line.ratios()
    count = len(line.roots)
    far = 4.0 * max([1.0] + [abs(r) for r in ratios])
    near = 0.1 * min(
        (abs(p - q) for k, p in enumerate(ratios) for q in ratios[k + 1 :]), default=math.inf
    )

    def is_frozen(s: complex) -> bool:
        if abs(s) > FREEZE_ESCAPE:
            return True
        return any(abs(s - r) < FREEZE_CLUSTER for r in ratios)

    def runs_to_frozen(i: int, s: complex) -> bool:
        """Whether s travels from path i's last point more than HOP_FRACTION
        of its distance to a frozen path (and more than the noise)."""
        to_frozen = min((abs(s_cur[i] - s_cur[j]) for j in range(count) if frozen[j]), default=math.inf)
        travel = abs(s - s_cur[i])
        return travel > HOP_FRACTION * to_frozen and travel > 1e-9 * (1.0 + abs(s))

    s_cur: List[complex] = list(line.roots)
    # the last accepted (log t, s) points of each path, at most three
    history: List[List[Tuple[float, complex]]] = [[(0.0, s)] for s in s_cur]
    frozen = [is_frozen(s) for s in s_cur]
    rels = [0.0] * count
    trails: List[List[Tuple[float, complex, float]]] = [[(1.0, s, 0.0)] for s in s_cur]

    # with no slope estimate yet the first substep must be small enough that
    # no root can outrun its tracker: root log-velocities scale like the
    # largest dot product of w with the exponents
    dynamic_scale = sum(abs(x) for x in w_vec) * max(1, backend.slp.degree)
    step = min(LN2, 0.25 / (1.0 + dynamic_scale))

    position = math.log(schedule[0])
    for t_next in schedule[1:]:
        end = math.log(t_next)
        failures = 0
        while position < end - 1e-15 and not all(frozen):
            h = min(step, end - position)
            # only the substep that lands on the schedule point records a sample
            tol = 1e-12 if position + h >= end - 1e-15 else 1e-8
            preds = [
                s_cur[i] if frozen[i] or len(history[i]) < 2 else _predict(history[i], h, ratios, far, near)
                for i in range(count)
            ]
            # a prediction that already runs towards a frozen path's root is
            # rejected before any correction is paid for
            ok = not any(not frozen[i] and runs_to_frozen(i, preds[i]) for i in range(count))
            t_new = math.exp(position + h)
            proposal: List[Optional[Tuple[complex, float]]] = [None] * count
            errors = []
            for i in range(count):
                if frozen[i] or not ok:
                    continue
                corrected = _newton_correct(backend, line, w_vec, preds[i], t_new, tol)
                if corrected is None:
                    ok = False
                    break
                s_new, rel = corrected
                noise = 1e-9 * (1.0 + abs(s_new))
                spacing = min(
                    (abs(preds[i] - preds[j]) for j in range(count) if j != i),
                    default=math.inf,
                )
                moved = abs(s_new - preds[i])
                if moved > HOP_FRACTION * spacing and moved > noise:
                    ok = False  # landed suspiciously close to a neighbouring path
                    break
                if runs_to_frozen(i, s_new):
                    ok = False  # ran towards a frozen path's root
                    break
                proposal[i] = (s_new, rel)
                errors.append((moved, min(spacing, 1.0 + abs(s_new))))
            if not ok:
                step = 0.5 * h
                failures += 1
                if failures > 300 or step < 1e-13:
                    raise TrackingFailureError(
                        f"corrector stalled near t={math.exp(position):.6g}"
                    )
                continue
            for i in range(count):
                if frozen[i]:
                    continue
                s_new, rels[i] = proposal[i]
                history[i] = (history[i] + [(position + h, s_new)])[-3:]
                s_cur[i] = s_new
                frozen[i] = is_frozen(s_new)
            position += h
            step = _next_step(step, h, errors)
        position = end
        active = [s_cur[i] for i in range(count) if not frozen[i]]
        for i in range(len(active)):
            for j in range(i + 1, len(active)):
                if abs(active[i] - active[j]) < 1e-10:
                    raise PathCrossingError(f"two paths merged at t={t_next:g}")
        for i in range(count):
            trails[i].append((t_next, s_cur[i], 0.0 if frozen[i] else rels[i]))
    return [TrackedPath(tuple(trail)) for trail in trails]


# ---------------------------------------------------------------------------
# classification and certification

@dataclass(frozen=True)
class VertexCertificate:
    beta: Exponent
    w: Tuple[float, ...]
    degree: int
    t_entry: float
    assignments: Tuple[Tuple[str, Optional[int]], ...]
    rate_checks: Optional[Tuple[bool, ...]] = None
    slopes_ok: Optional[bool] = None
    paths: Tuple[TrackedPath, ...] = ()  # the tracked paths the certificate was verified on


def classify_paths(
    paths: Sequence[TrackedPath], line: WitnessLine, consts: LineConstants
) -> VertexCertificate:
    """Assign every path to a cluster or to infinity and count the vertex.

    A certificate is only issued when every path lands in exactly one region
    at the final stretch; the entry time is the earliest schedule point after
    which no path leaves its region again.
    """
    ratios = line.ratios()
    escape = 2.0 * consts.b_max / consts.a_min
    assignments: List[Tuple[str, Optional[int]]] = []
    for idx, path in enumerate(paths):
        _, s_end, _ = path.samples[-1]
        hits = [i for i in range(line.n) if abs(s_end - ratios[i]) <= consts.gamma[i]]
        if len(hits) > 1:
            raise AmbiguousClusterError(f"path {idx} lies in {len(hits)} cluster balls")
        if hits:
            assignments.append(("cluster", hits[0]))
        elif abs(s_end) > escape:
            assignments.append(("diverging", None))
        else:
            raise IndeterminateError(
                f"path {idx} ended at |s|={abs(s_end):.3g}, in no region"
            )

    def in_region(idx: int, s: complex) -> bool:
        kind, cluster = assignments[idx]
        if kind == "cluster":
            return abs(s - ratios[cluster]) <= consts.gamma[cluster]
        return abs(s) > escape

    length = len(paths[0].samples)
    if any(len(p.samples) != length for p in paths):
        raise AssertionError("paths were tracked on different schedules")
    entry_idx = length - 1
    for k in range(length - 1, -1, -1):
        if all(in_region(i, p.samples[k][1]) for i, p in enumerate(paths)):
            entry_idx = k
        else:
            break
    t_entry = paths[0].samples[entry_idx][0]

    beta = [0] * line.n
    diverging = 0
    for kind, cluster in assignments:
        if kind == "cluster":
            beta[cluster] += 1
        else:
            diverging += 1
    degree = len(paths)
    assert sum(beta) + diverging == degree
    return VertexCertificate(tuple(beta), (), degree, t_entry, tuple(assignments))


@dataclass(frozen=True)
class RateParams:
    """Exponents, constants, and expected log-log slopes for certification."""

    gap_conv: Optional[float]
    gap_div: Optional[float]
    C: float
    n_terms: int
    gamma: Tuple[float, ...]
    slope_conv: Optional[Dict[int, Optional[float]]] = None
    slope_div: Optional[float] = None
    fitted: bool = False


def rate_params_from_support(
    support: Sequence[Exponent],
    coeff_mags: Sequence[float],
    w: Sequence[float],
    consts: LineConstants,
    C: Optional[float] = None,
) -> RateParams:
    """Exact certification parameters from a known exponent set."""
    dots = [sum(float(wi) * a for wi, a in zip(w, alpha)) for alpha in support]
    h = max(dots)
    face = [k for k, d in enumerate(dots) if d >= h - 1e-12]
    if len(face) != 1:
        raise IndeterminateError("the direction exposes more than one support point")
    beta_idx = face[0]
    beta = support[beta_idx]
    off_face = [k for k in range(len(support)) if k != beta_idx]
    gap_conv = min((h - dots[k] for k in off_face), default=None)
    total_deg = max(sum(alpha) for alpha in support)
    top = [k for k in range(len(support)) if sum(support[k]) == total_deg]
    gap_div_agg = h - max(dots[k] for k in top) if top else None
    slope_conv: Dict[int, Optional[float]] = {}
    for i in range(len(beta)):
        if beta[i] == 0:
            continue
        relevant = [dots[k] for k in off_face if support[k][i] == 0]
        slope_conv[i] = (h - max(relevant)) if relevant else None
    if C is None:
        C = max(coeff_mags) / coeff_mags[beta_idx]
    return RateParams(
        gap_conv=gap_conv,
        gap_div=gap_conv,  # worst-case exponent is certified for divergence too
        C=C,
        n_terms=len(support),
        gamma=consts.gamma,
        slope_conv=slope_conv,
        slope_div=gap_div_agg,
    )


def rate_params_from_sparse(
    poly: SparsePolynomial,
    w: Sequence[float],
    consts: LineConstants,
    C: Optional[float] = None,
) -> RateParams:
    mags = [abs(_coeff_to_complex(coeff)) for coeff, _ in poly.terms]
    return rate_params_from_support(poly.support(), mags, w, consts, C=C)


def fitted_rate_params(
    paths: Sequence[TrackedPath],
    cert: VertexCertificate,
    line: WitnessLine,
    consts: LineConstants,
    C: Optional[float] = None,
) -> RateParams:
    """Certification parameters when nothing is known about the coefficients.

    The decay/growth exponents are fitted from the tracked samples (with a
    safety margin), so the subexponential behaviour itself is what gets
    certified; C defaults to 10, and the term count is that of a dense
    polynomial of the line's degree.
    """
    if C is None:
        warnings.warn("no coefficient-ratio bound supplied; defaulting to C = 10")
        C = 10.0
    n_terms = math.comb(line.n + cert.degree, cert.degree)
    slopes = _aggregate_slopes(paths, cert, line)
    conv_fits = [-s for key, s in slopes.items() if key != "diverging" and s is not None]
    div_fit = slopes.get("diverging")
    gap_conv = 0.9 * min(conv_fits) if conv_fits else None
    gap_div = 0.9 * div_fit if div_fit is not None else None
    return RateParams(
        gap_conv=gap_conv,
        gap_div=gap_div,
        C=C,
        n_terms=n_terms,
        gamma=consts.gamma,
        fitted=True,
    )


# below this distance (or beyond the escape freeze) a double-precision sample
# carries no rate information; bound checks and slope fits ignore it
MEASUREMENT_FLOOR = 1e-7


def _aggregate_slopes(paths, cert, line) -> Dict:
    """Log-log slopes of the per-cluster distance products and the divergence product.

    Only samples inside the trustworthy measurement band contribute: past the
    entry time, above the noise floor, and below the escape freeze.
    """
    ratios = line.ratios()
    groups: Dict = {}
    for path, (kind, cluster) in zip(paths, cert.assignments):
        key = "diverging" if kind == "diverging" else cluster
        groups.setdefault(key, []).append(path)
    out: Dict = {}
    for key, members in groups.items():
        ts = []
        ys = []
        for pos, (t, _, _) in enumerate(members[0].samples):
            if t <= cert.t_entry:
                continue
            acc = 0.0
            usable = True
            for path in members:
                s = path.samples[pos][1]
                if key == "diverging":
                    value = abs(s)
                    usable &= value < FREEZE_ESCAPE
                else:
                    value = abs(s - ratios[key])
                    usable &= value > MEASUREMENT_FLOOR
                if not usable:
                    break
                acc += math.log(value)
            if usable:
                ts.append(t)
                ys.append(acc)
        if len(ts) < 3:
            out[key] = None
            continue
        # prefer the asymptotic tail when enough of it is measurable
        if len(ts) > 6:
            ts, ys = ts[len(ts) // 2 :], ys[len(ys) // 2 :]
        out[key] = float(np.polyfit(np.log(ts), ys, 1)[0])
    return out


def convergence_bound(consts: LineConstants, rates: RateParams, degree: int, i: int, t: float) -> float:
    base = consts.a_max / consts.a_min * (1.0 + consts.Gamma[i] / rates.gamma[i])
    return t ** (-rates.gap_conv) * rates.C * rates.n_terms * base**degree


def divergence_bound(consts: LineConstants, rates: RateParams, degree: int, t: float) -> float:
    base = consts.a_min / (2.0 * (consts.a_max + consts.b_max))
    return t**rates.gap_div / (rates.C * rates.n_terms) * base**degree


def verify_rates(
    paths: Sequence[TrackedPath],
    cert: VertexCertificate,
    consts: LineConstants,
    line: WitnessLine,
    w: Sequence[float],
    rates: RateParams,
) -> VertexCertificate:
    """Check the subexponential bounds at every sample past entry, and that
    fitted log-log slopes match the expected decay/growth rates to 10%."""
    ratios = line.ratios()
    beta = cert.beta
    total = sum(beta)
    checks: List[bool] = []
    for path, (kind, cluster) in zip(paths, cert.assignments):
        ok = True
        for t, s, _ in path.samples:
            if t <= cert.t_entry:
                continue
            if kind == "cluster":
                if rates.gap_conv is None:
                    continue
                dist = abs(s - ratios[cluster])
                if dist <= MEASUREMENT_FLOOR:
                    continue  # saturated sample, no information
                if dist ** beta[cluster] > convergence_bound(consts, rates, cert.degree, cluster, t):
                    ok = False
                    break
            else:
                if rates.gap_div is None:
                    continue
                mag = abs(s)
                if mag >= FREEZE_ESCAPE:
                    continue  # frozen repetition of an escaped value
                if mag ** (cert.degree - total) < divergence_bound(consts, rates, cert.degree, t):
                    ok = False
                    break
        checks.append(ok)
    if not all(checks):
        bad = [i for i, ok in enumerate(checks) if not ok]
        raise RateViolationError(f"certified bounds failed on paths {bad}")

    slopes_ok = True
    if not rates.fitted:
        fitted = _aggregate_slopes(paths, cert, line)
        for key, slope in fitted.items():
            if slope is None:
                continue
            if key == "diverging":
                expected = rates.slope_div
            else:
                expected = (rates.slope_conv or {}).get(key)
                expected = -expected if expected is not None else None
            if expected is None or expected == 0:
                continue
            if abs(slope - expected) > 0.10 * abs(expected):
                slopes_ok = False
    if not slopes_ok:
        raise RateViolationError("observed slopes disagree with the expected rates")
    return replace(
        cert,
        w=tuple(float(x) for x in w),
        rate_checks=tuple(checks),
        slopes_ok=slopes_ok,
        paths=tuple(paths),
    )


# ---------------------------------------------------------------------------
# the composed query

@dataclass(kw_only=True)
class WitnessConfig:
    rng: random.Random  # the command line's `vertex` draws its retry tilts from it
    t_max: float = 1e8
    rate_source: Optional[Callable] = None  # w -> RateParams
    C: Optional[float] = None


def witness_vertex_query(
    backend,
    line: WitnessLine,
    consts: LineConstants,
    w: Sequence,
    config: WitnessConfig,
) -> VertexCertificate:
    """Track, classify, and certify one exact rational direction.

    A direction that is not general enough (ties, a rate violation, crossing
    paths) raises an ``OracleIndeterminate`` subclass; the caller retries it
    inside w's normal cone with ``reconstruct.facet_query_direction``.
    """
    if not all(isinstance(x, (int, Fraction)) for x in w):
        raise TypeError("witness queries need exact rational direction entries")
    paths = track_paths(backend, line, [float(x) for x in w], config.t_max)
    cert = classify_paths(paths, line, consts)
    if config.rate_source is not None:
        rates = config.rate_source(w)
    else:
        rates = fitted_rate_params(paths, cert, line, consts, C=config.C)
    return verify_rates(paths, cert, consts, line, w, rates)
