"""The exact integer cut filter shared by lattice_points, adaptive_superset and
the adaptive eval oracle, checked against the plain Python loops it replaced."""

import itertools
import random
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from newtonpoly import eval_oracle as ev
from newtonpoly.polytope import convex_hull, lattice_points
from newtonpoly.reconstruct import EvalVertexOracle

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


def reference_candidates(his, cuts):
    """Box scan with one Fraction dot product per estimated cut."""
    points = []
    for candidate in itertools.product(*(range(h + 1) for h in his)):
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


@settings(max_examples=100, deadline=None)
@given(cut_systems())
def test_adaptive_candidates_match_reference(system):
    n, directions, values = system
    estimates = iter(values)

    def fake_estimate(f, w, rng):
        return ev.SupportEstimate(tuple(w), Fraction(1), (), next(estimates))

    with mock.patch.object(ev, "support_estimate", fake_estimate):
        points, cuts = ev.adaptive_superset(None, n, directions, random.Random(0))
    his = ev._box_bounds([d for d, _ in cuts], [h for _, h in cuts], n)
    assert points == reference_candidates(his, cuts)


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
