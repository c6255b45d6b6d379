"""The exact integer cut filter shared by lattice_points, adaptive_superset and
the adaptive eval oracle, checked against the plain Python loops it replaced."""

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


rationals = st.builds(Fraction, st.integers(-3, 3), st.sampled_from(DENOMINATORS))
nonnegative = st.builds(Fraction, st.integers(0, 4), st.sampled_from(DENOMINATORS))


@st.composite
def cut_systems(draw):
    """Coordinate cuts that bound the box plus non-axis rational cuts; every
    value is nonnegative, so the origin is always a candidate."""
    n = draw(st.integers(1, 3))
    directions = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    extra = st.one_of(
        st.just(tuple(Fraction(1) for _ in range(n))),
        st.tuples(*[rationals] * n).filter(any),
    )
    directions += draw(st.lists(extra, max_size=2))
    values = [draw(nonnegative) for _ in directions]
    return n, directions, values


@settings(max_examples=150, deadline=None)
@given(point_sets())
def test_lattice_points_match_reference(points):
    P = convex_hull(points)
    assert lattice_points(P) == reference_lattice_points(P)


def fake_estimates(values):
    """A support_estimate stand-in returning the given values in turn."""
    estimates = iter(values)
    return lambda f, w, rng: ev.SupportEstimate(tuple(w), Fraction(1), (), next(estimates))


def no_linprog(*args, **kwargs):
    raise AssertionError("linprog called although nonnegative cuts bound every coordinate")


@settings(max_examples=100, deadline=None)
@given(cut_systems())
def test_adaptive_candidates_match_reference(system):
    # every value is at most 4 and the axes are among the cuts, so [0, 4]^n
    # holds the region, and the axis rows bound every coordinate exactly
    n, directions, values = system
    with mock.patch.object(ev, "support_estimate", fake_estimates(values)), mock.patch.object(ev, "linprog", no_linprog):
        points, cuts = ev.adaptive_superset(None, n, directions, random.Random(0))
    assert points == reference_candidates(n, cuts)


@pytest.mark.parametrize("values", [(1, 3), (0, 0), (Fraction(5, 2), Fraction(7, 3)), (-1, 2)])
def test_coordinate_without_nonnegative_cut_reaches_linprog(values):
    # x0 - x1 <= h1 and x1 <= h2: no row with entries >= 0 bounds x0
    directions = [(1, -1), (0, 1)]
    with mock.patch.object(ev, "support_estimate", fake_estimates(values)), mock.patch.object(
        ev, "linprog", wraps=ev.linprog
    ) as lp:
        points, cuts = ev.adaptive_superset(None, 2, directions, random.Random(0))
    assert points == reference_candidates(2, cuts)
    assert lp.call_count == 1


def test_coordinate_no_cut_bounds_is_unbounded():
    with mock.patch.object(ev, "support_estimate", fake_estimates([1, 1])):
        with pytest.raises(ev.UnboundedError):
            ev.adaptive_superset(None, 2, [(1, -1), (-1, 0)], random.Random(0))


def test_negative_axis_bound_is_empty():
    with mock.patch.object(ev, "support_estimate", fake_estimates([2, -1])), mock.patch.object(ev, "linprog", no_linprog):
        with pytest.raises(ev.UnboundedError):
            ev.adaptive_superset(None, 2, [(1, 0), (0, 1)], random.Random(0))


def test_axis_only_oracle_never_calls_linprog():
    values = [Fraction(3), Fraction(5, 2), Fraction(1)]
    with mock.patch.object(ev, "support_estimate", fake_estimates(values)), mock.patch.object(ev, "linprog", no_linprog):
        oracle = EvalVertexOracle.adaptive(None, 3, random.Random(0))
    assert oracle.coord_bound == 3
    assert oracle._candidates.shape == (4 * 3 * 2,)


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
