"""The exact integer cut filter shared by lattice_points, adaptive_superset and
the adaptive eval oracle, checked against the plain Python loops it replaced.

adaptive_superset cuts one fixed system: the box 0 <= x_i <= floor(h(e_i))
read off the axis values, filtered by every axis value and by the
total-degree values h(1, ..., 1) and h(-1, ..., -1)."""

import itertools
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newtonpoly import eval_oracle as ev
from newtonpoly.polytope import CutFilter, convex_hull, lattice_points
from newtonpoly.reconstruct import EvalVertexOracle, OracleIndeterminate
from newtonpoly.slp import sparse_to_slp
from conftest import random_sparse

SHIFTS = (0, 2**70, -(2**70))  # 2^70 forces the Python-integer path
DENOMINATORS = (1, 2, 3, 7, 2**70)


def reference_lattice_points(P):
    """Box scan with one Python dot product per facet and equality."""
    lo = [min(v[i] for v in P.vertices) for i in range(P.n)]
    hi = [max(v[i] for v in P.vertices) for i in range(P.n)]
    rows = [(f.normal, f.offset, False) for f in P.facets]
    rows += [(normal, offset, True) for normal, offset in P.equalities]
    result = []
    for candidate in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        ok = True
        for normal, offset, is_eq in rows:
            val = sum(a * b for a, b in zip(normal, candidate))
            if (is_eq and val != offset) or (not is_eq and val > offset):
                ok = False
                break
        if ok:
            result.append(candidate)
    return sorted(result)


def reference_candidates(n, cuts, top=4):
    """Scan of the fixed box [0, top]^n with one Fraction dot product per
    estimated cut; the box must contain the region the cuts leave."""
    points = []
    for candidate in itertools.product(range(top + 1), repeat=n):
        if all(sum(di * ci for di, ci in zip(d, candidate)) <= h for d, h in cuts):
            points.append(candidate)
    return points


@st.composite
def point_sets(draw):
    n = draw(st.integers(1, 3))
    shift = draw(st.sampled_from(SHIFTS))
    coords = st.integers(-3, 3)
    points = draw(st.lists(st.tuples(*[coords] * n), min_size=1, max_size=6))
    return [tuple(x + shift for x in p) for p in points]


rationals = st.builds(Fraction, st.integers(-13, 13), st.sampled_from(DENOMINATORS))
nonnegative = st.builds(Fraction, st.integers(0, 4), st.sampled_from(DENOMINATORS))


def fixed_rows(n):
    """The cut directions of adaptive_superset, in its order."""
    axes = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return axes + [d for d in ((1,) * n, (-1,) * n) if d not in axes]


@st.composite
def cut_values(draw):
    """Values for the fixed rows: axis values in [0, 4], so that [0, 4]^n
    holds the box, and total-degree values that may leave no point at all."""
    n = draw(st.integers(1, 3))
    values = [draw(nonnegative) for _ in range(n)]
    values += [draw(rationals) for _ in fixed_rows(n)[n:]]
    return n, values


@settings(max_examples=150, deadline=None)
@given(point_sets())
def test_lattice_points_match_reference(points):
    P = convex_hull(points)
    assert lattice_points(P) == reference_lattice_points(P)


def fake_estimates(values):
    """A support_estimate stand-in returning the given values in turn."""
    estimates = iter(values)
    return lambda f, w, rng: ev.SupportEstimate(tuple(w), Fraction(1), (), next(estimates))


@settings(max_examples=100, deadline=None)
@given(cut_values())
def test_adaptive_candidates_match_reference(system):
    n, values = system
    cuts = list(zip(fixed_rows(n), values))
    expected = reference_candidates(n, cuts)
    with mock.patch.object(ev, "support_estimate", fake_estimates(values)):
        if not expected:
            with pytest.raises(ev.UnboundedError):
                ev.adaptive_superset(None, n, random.Random(0))
            return
        assert ev.adaptive_superset(None, n, random.Random(0)) == (expected, cuts)


def test_negative_axis_bound_is_empty():
    # h(e_2) = -1: no exponent has a negative coordinate
    with mock.patch.object(ev, "support_estimate", fake_estimates([2, -1, 3, 0])):
        with pytest.raises(ev.UnboundedError):
            ev.adaptive_superset(None, 2, random.Random(0))


def test_axis_only_oracle_never_calls_linprog():
    # h(e_1), h(e_2), h(e_3), h(1, 1, 1), h(-1, -1, -1): the box
    # [0, 3] x [0, 2] x [0, 1] keeps its 16 points with 2 <= x1 + x2 + x3 <= 4
    values = [Fraction(3), Fraction(5, 2), Fraction(1), Fraction(4), Fraction(-2)]
    with mock.patch.object(ev, "support_estimate", fake_estimates(values)):
        oracle = EvalVertexOracle.adaptive(None, 3, random.Random(0))
        # the five values are used up: the cuts answer their own directions
        assert oracle.support((1, 1, 1)) == 4 and oracle.support((0, 1, 0)) == Fraction(5, 2)
    assert oracle.coord_bound == 3
    assert oracle._candidates.shape == (16,)


def reference_oracle_candidates(support):
    """Scan of the box 0 <= x_i <= h(e_i) for the points whose total degree
    lies between -h(-1, ..., -1) and h(1, ..., 1), with every support value
    taken exactly from the support."""
    n = len(support[0])
    tops = [max(a[i] for a in support) for i in range(n)]
    low, high = min(map(sum, support)), max(map(sum, support))
    return [p for p in itertools.product(*(range(t + 1) for t in tops)) if low <= sum(p) <= high]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_adaptive_candidates_hold_the_support_and_match_reference(seed):
    poly = random_sparse(random.Random(seed))
    oracle = EvalVertexOracle.adaptive(sparse_to_slp(poly), poly.n, random.Random(seed))
    candidates = list(zip(*(a.tolist() for a in oracle._candidates.axes)))
    assert set(poly.support()) <= set(candidates)
    assert candidates == reference_oracle_candidates(poly.support())


def test_large_lattice_points_need_python_integers():
    P = convex_hull([(2**70, 0), (2**70 + 2, 0), (2**70, 2)])
    assert lattice_points(P) == reference_lattice_points(P)
    assert len(lattice_points(P)) == 6


def test_oracle_hit_test_is_exact_for_negative_candidates():
    # 2^23 * -2^41 = -2^64 wraps to 0 in int64, which would tie the origin
    superset = [(-(2**41), 0), (0, 0)]
    oracle = EvalVertexOracle(None, 2, superset, random.Random(0))
    w = (2**23, 0)
    fake = lambda f, key, rng: ev.SupportEstimate(key, Fraction(1), (), Fraction(0))  # noqa: E731
    with mock.patch.object(ev, "support_estimate", fake):
        assert oracle.query(w) == (0, 0)


class MaskOracle:
    """The former adaptive hit test, kept as the reference: one mask over
    every candidate, narrowed by each support cut, and an equality scan of
    all candidates under that mask; certified vertices are cached."""

    def __init__(self, superset):
        self.candidates = CutFilter(np.asarray(superset).T)
        self.live = np.ones(len(superset), dtype=bool)
        self.values = {}
        self.vertices = {}

    def support(self, w, h):
        key = tuple(Fraction(x) for x in w)
        if key not in self.values:
            self.values[key] = h
            self.live &= self.candidates.keep([(key, h, False)])
        return self.values[key]

    def query(self, w, h):
        key = tuple(Fraction(x) for x in w)
        if key not in self.vertices:
            h = self.support(w, h)
            hits = np.nonzero(self.live & self.candidates.keep([(key, h, True)]))[0]
            if len(hits) != 1:
                return None
            self.vertices[key] = tuple(int(a[hits[0]]) for a in self.candidates.axes)
        return self.vertices[key]


@st.composite
def oracle_sessions(draw):
    """A superset (possibly shifted by 2^70) and a sequence of support and
    vertex calls, each with the value the faked estimate returns for it."""
    n = draw(st.integers(1, 3))
    shift = draw(st.sampled_from(SHIFTS))
    points = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), min_size=1, max_size=12, unique=True))
    superset = [tuple(x + shift for x in p) for p in points]
    entry = st.one_of(st.integers(-2, 2), st.builds(Fraction, st.integers(-3, 3), st.sampled_from((2, 3))))
    calls = []
    for _ in range(draw(st.integers(1, 12))):
        w = draw(st.tuples(*[entry] * n).filter(any))
        # mostly the value some candidate attains, so that ties, hits and
        # cuts that peel candidates away all occur
        base = sum(wi * xi for wi, xi in zip(w, draw(st.sampled_from(superset))))
        h = Fraction(base) + draw(st.sampled_from((0, 0, 0, -1, 1, Fraction(1, 2))))
        calls.append((draw(st.booleans()), w, h))
    return n, superset, calls


@settings(max_examples=300, deadline=None)
@given(oracle_sessions())
def test_live_only_scan_matches_mask_reference(session):
    n, superset, calls = session
    reference = MaskOracle(superset)
    values = {}
    fake = lambda f, key, rng: ev.SupportEstimate(key, Fraction(1), (), values[tuple(key)])  # noqa: E731
    oracle = EvalVertexOracle(None, n, superset, random.Random(0))
    assert oracle.coord_bound == max(1, max(max(p) for p in superset))
    with mock.patch.object(ev, "support_estimate", fake):
        for is_query, w, h in calls:
            values.setdefault(tuple(w), h)
            if not is_query:
                assert oracle.support(w) == reference.support(w, h)
                continue
            expected = reference.query(w, h)
            if expected is None:
                with pytest.raises(OracleIndeterminate):
                    oracle.query(w)
            else:
                assert oracle.query(w) == expected
