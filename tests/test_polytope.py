import itertools
import json
import random
from fractions import Fraction

import pytest

from newtonpoly.polytope import (
    LatticePolytope,
    PolytopeInputError,
    affinely_isomorphic,
    convex_hull,
    dilate,
    from_json,
    lattice_points,
    support_function,
    to_json,
)

BIPYRAMID_POINTS = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]


# ---------------------------------------------------------------------------
# independent brute-force oracle: enumerate all candidate hyperplanes through
# point subsets and keep the supporting ones


def frac_rank(rows):
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    pivot_rows = []
    for row in rows:
        for prow in pivot_rows:
            piv = next(i for i, x in enumerate(prow) if x)
            if row[piv]:
                factor = row[piv] / prow[piv]
                row = [a - factor * b for a, b in zip(row, prow)]
        if any(row):
            pivot_rows.append(row)
            rank += 1
    return rank


def brute_force_facets(points):
    """All supporting hyperplanes spanned by point subsets, in projected coordinates."""
    pts = sorted(set(tuple(p) for p in points))
    n = len(pts[0])
    origin = pts[0]
    diffs = [tuple(a - b for a, b in zip(p, origin)) for p in pts[1:]]
    dim = frac_rank(diffs)
    if dim == 0:
        return set(), 0, []
    cols = []
    for j in range(n):
        trial = cols + [j]
        sub = [[d[c] for c in trial] for d in diffs]
        if frac_rank(sub) == len(trial):
            cols.append(j)
        if len(cols) == dim:
            break
    proj = [tuple(p[c] for c in cols) for p in pts]

    def int_det(mat):
        size = len(mat)
        if size == 0:
            return 1
        if size == 1:
            return mat[0][0]
        total = 0
        for j in range(size):
            minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
            total += (-1) ** j * mat[0][j] * int_det(minor)
        return total

    facets = set()
    for subset in itertools.combinations(range(len(proj)), dim):
        base = proj[subset[0]]
        rows = [tuple(a - b for a, b in zip(proj[i], base)) for i in subset[1:]]
        normal = []
        for j in range(dim):
            minor = [[row[k] for k in range(dim) if k != j] for row in rows]
            normal.append((-1) ** j * int_det(minor))
        if all(x == 0 for x in normal):
            continue
        from math import gcd

        g = 0
        for x in normal:
            g = gcd(g, abs(x))
        normal = [x // g for x in normal]
        offset = sum(a * b for a, b in zip(normal, base))
        values = [sum(a * b for a, b in zip(normal, q)) for q in proj]
        if all(v <= offset for v in values):
            facets.add((tuple(normal), offset))
        if all(v >= offset for v in values):
            facets.add((tuple(-x for x in normal), -offset))
    return facets, dim, cols


def hull_facets_in_projection(points):
    P = convex_hull(points)
    _, dim, cols = brute_force_facets(points)
    return {(tuple(f.normal[c] for c in cols), f.offset) for f in P.facets}, P


class TestConvexHull:
    def test_bipyramid(self):
        P = convex_hull(BIPYRAMID_POINTS)
        assert P.dim == 3
        assert len(P.vertices) == 5
        assert len(P.facets) == 6
        for facet in P.facets:
            assert len(facet.vertices) == 3  # all facets triangular

    def test_segment_with_duplicates(self):
        P = convex_hull([(0, 2, 0), (1, 0, 1), (0, 2, 0)])
        assert P.dim == 1
        assert P.vertices == ((0, 2, 0), (1, 0, 1))
        assert len(P.equalities) == 2

    def test_f1_support_is_a_bipyramid(self, f1_poly):
        P = convex_hull(f1_poly.support())
        assert len(P.vertices) == 5 and len(P.facets) == 6 and P.dim == 3
        assert set(P.vertices) == set(f1_poly.support())

    def test_single_point(self):
        P = convex_hull([(3, 4)])
        assert P.dim == 0 and not P.facets and len(P.equalities) == 2

    def test_empty_rejected(self):
        with pytest.raises(PolytopeInputError):
            convex_hull([])

    def test_round_trip(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(1, 4)
            pts = [
                tuple(rng.randint(0, 8) for _ in range(n))
                for _ in range(rng.randint(1, 20))
            ]
            P = convex_hull(pts)
            Q = convex_hull(P.vertices)
            assert Q.vertices == P.vertices
            assert {(f.normal, f.offset) for f in Q.facets} == {
                (f.normal, f.offset) for f in P.facets
            }

    def test_matches_brute_force(self):
        rng = random.Random(9)
        for _ in range(60):
            n = rng.randint(1, 4)
            pts = [
                tuple(rng.randint(0, rng.choice([2, 3, 8])) for _ in range(n))
                for _ in range(rng.randint(1, 20))
            ]
            brute, dim, _ = brute_force_facets(pts)
            if dim == 0:
                assert len(convex_hull(pts).vertices) == 1
                continue
            mine, P = hull_facets_in_projection(pts)
            assert mine == brute, f"facet mismatch on {pts}"

    def test_facet_tightness_and_support(self):
        rng = random.Random(31)
        for _ in range(25):
            n = rng.randint(2, 4)
            pts = [
                tuple(rng.randint(0, 6) for _ in range(n))
                for _ in range(rng.randint(3, 15))
            ]
            P = convex_hull(pts)
            for facet in P.facets:
                values = [
                    sum(a * b for a, b in zip(facet.normal, v)) for v in P.vertices
                ]
                assert max(values) == facet.offset
                tight = [v for v, val in zip(P.vertices, values) if val == facet.offset]
                base = tight[0]
                diffs = [tuple(a - b for a, b in zip(q, base)) for q in tight[1:]]
                assert frac_rank(diffs) == P.dim - 1
            for p in pts:
                assert P.contains(p)


class TestSupportFunction:
    def test_vertex_direction(self):
        P = convex_hull(BIPYRAMID_POINTS)
        s = support_function(P, (1, 1, 1))
        assert s.value == 3 and s.exposed_dim == 0

    def test_origin_direction(self):
        P = convex_hull(BIPYRAMID_POINTS)
        s = support_function(P, (-1, -1, -1))
        assert s.value == 0 and s.exposed_dim == 0

    def test_edge_direction(self):
        P = convex_hull(BIPYRAMID_POINTS)
        s = support_function(P, (1, 0, 0))
        assert s.value == 1 and s.exposed_dim == 1

    def test_random_directions_match_vertex_maximum(self):
        rng = random.Random(41)
        P = convex_hull([(0, 0), (4, 1), (2, 5), (0, 3), (1, 1)])
        for _ in range(100):
            w = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                 Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            s = support_function(P, w)
            assert s.value == max(w[0] * v[0] + w[1] * v[1] for v in P.vertices)


class TestLatticePoints:
    def test_segment(self):
        P = convex_hull([(0,), (2,)])
        assert lattice_points(P) == [(0,), (1,), (2,)]

    def test_box(self):
        P = convex_hull(list(itertools.product((0, 1), (0, 2), (0, 1))))
        assert len(lattice_points(P)) == 12

    def test_delta_counts(self, f1_poly, f5_poly):
        delta = convex_hull(f1_poly.support())
        assert len(lattice_points(delta)) == 5
        d4 = dilate(delta, 4)
        pts = lattice_points(d4)
        assert len(pts) == 65
        assert set(pts) == set(f5_poly.support())


class TestDilate:
    def test_scales_vertices_and_offsets(self, f1_poly):
        delta = convex_hull(f1_poly.support())
        d4 = dilate(delta, 4)
        assert set(d4.vertices) == {tuple(4 * x for x in v) for v in delta.vertices}
        for f, g in zip(delta.facets, d4.facets):
            assert g.normal == f.normal and g.offset == 4 * f.offset

    def test_identity(self, f1_poly):
        delta = convex_hull(f1_poly.support())
        assert dilate(delta, 1) == delta

    def test_segment(self):
        P = dilate(convex_hull([(0, 0), (1, 0)]), 3)
        assert P.vertices == ((0, 0), (3, 0))

    def test_rejects_nonpositive(self, f1_poly):
        with pytest.raises(ValueError):
            dilate(convex_hull(f1_poly.support()), 0)


class TestAffinelyIsomorphic:
    def test_delta_vs_bipyramid(self, f1_poly):
        delta = convex_hull(f1_poly.support())
        bp = convex_hull(BIPYRAMID_POINTS)
        ok, witness = affinely_isomorphic(delta, bp)
        assert ok
        images = set()
        for v in delta.vertices:
            img = witness.apply(v)
            assert all(x.denominator == 1 for x in img)
            images.add(tuple(int(x) for x in img))
        assert images == set(bp.vertices)

    def test_translated_segments(self):
        ok, _ = affinely_isomorphic(convex_hull([(0,), (1,)]), convex_hull([(5,), (6,)]))
        assert ok

    def test_triangle_vs_square(self):
        ok, witness = affinely_isomorphic(
            convex_hull([(0, 0), (1, 0), (0, 1)]),
            convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)]),
        )
        assert not ok and witness is None

    def test_unimodularity_required(self):
        stretched = convex_hull([(0, 0), (2, 0), (0, 1)])
        plain = convex_hull([(0, 0), (1, 0), (0, 1)])
        ok, _ = affinely_isomorphic(stretched, plain)
        assert not ok


class TestHalfspaceRepresentation:
    def test_segment(self):
        P = convex_hull([(0, 2, 0), (1, 0, 1)])
        assert len(P.facets) == 2 and len(P.equalities) == 2

    def test_bipyramid(self):
        P = convex_hull(BIPYRAMID_POINTS)
        assert len(P.facets) == 6 and not P.equalities

    def test_point(self):
        P = convex_hull([(2, 3, 4)])
        assert not P.facets and len(P.equalities) == 3


class TestJson:
    def test_round_trip(self, f1_poly):
        delta = convex_hull(f1_poly.support())
        again = from_json(to_json(delta))
        assert again == delta

    def test_schema_fields(self):
        payload = json.loads(to_json(convex_hull(BIPYRAMID_POINTS)))
        assert set(payload) == {"n", "dim", "vertices", "facets", "equalities"}
        assert all(set(f) == {"normal", "offset"} for f in payload["facets"])

    def test_rejects_inconsistent_facets(self):
        payload = json.loads(to_json(convex_hull(BIPYRAMID_POINTS)))
        payload["facets"] = payload["facets"][:-1]
        with pytest.raises(PolytopeInputError):
            from_json(json.dumps(payload))

    def test_rejects_garbage(self):
        with pytest.raises(PolytopeInputError):
            from_json("{}")
