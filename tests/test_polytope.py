import itertools
import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from newtonpoly.polytope import (
    Facet,
    LatticePolytope,
    PolytopeInputError,
    _rank,
    _RowBasis,
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


def birkhoff(k):
    """Vertices of the Birkhoff polytope B_k: the k x k permutation matrices."""
    return [
        tuple(int(perm[i] == j) for i in range(k) for j in range(k))
        for perm in itertools.permutations(range(k))
    ]


# (points, vertices, facets, dim, equalities, vertices per facet).  B_k has k!
# vertices and k^2 facets x_ij >= 0, each holding the (k-1) (k-1)! permutations
# that avoid one entry; its row and column sums give 2k-1 independent
# equalities.  Both are far from simplicial.
DEGENERATE_CASES = {
    "B3": (birkhoff(3), 6, 9, 4, 5, 4),
    "B4": (birkhoff(4), 24, 16, 9, 7, 18),
    "B5": (birkhoff(5), 120, 25, 16, 9, 96),
    "cube-0..2^4": (list(itertools.product(range(3), repeat=4)), 16, 8, 4, 0, 8),
}


@pytest.mark.parametrize("case", DEGENERATE_CASES.values(), ids=DEGENERATE_CASES)
def test_degenerate_polytope_counts(case):
    points, n_vertices, n_facets, dim, n_equalities, facet_size = case
    start = time.perf_counter()
    P = convex_hull(points)
    assert time.perf_counter() - start < 1.0
    assert (len(P.vertices), len(P.facets), P.dim, len(P.equalities)) == (
        n_vertices,
        n_facets,
        dim,
        n_equalities,
    )
    assert all(len(f.vertices) == facet_size for f in P.facets)


@pytest.mark.parametrize("seed", range(24))
def test_general_position_hull_matches_qhull(seed):
    # larger than brute force reaches: 15-40 points in 4-6 dimensions
    rng = random.Random(seed)
    d = 4 + seed % 3
    pts = [tuple(rng.randint(-40, 40) for _ in range(d)) for _ in range(rng.randint(15, 40))]
    P = convex_hull(pts)
    assert P.dim == d
    for f in P.facets:
        values = [sum(a * b for a, b in zip(f.normal, p)) for p in pts]
        assert max(values) == f.offset
        assert sum(sum(a * b for a, b in zip(f.normal, v)) == f.offset for v in P.vertices) >= d
    arr = np.asarray(pts, dtype=float)
    assert set(P.vertices) == {pts[i] for i in ConvexHull(arr).vertices}


@st.composite
def small_point_sets(draw):
    """Degeneracy-heavy point sets in 1-6 dimensions, small enough for brute force."""
    d = draw(st.integers(1, 6))
    coords = st.integers(-3, 3)
    return draw(st.lists(st.tuples(*[coords] * d), min_size=1, max_size=10 if d >= 5 else 14))


@settings(max_examples=120, deadline=None)
@given(small_point_sets())
def test_hull_matches_brute_force_property(pts):
    # small coordinates: every dot product of the hull runs in int64
    brute, dim, cols = brute_force_facets(pts)
    P = convex_hull(pts)
    assert P.dim == dim
    if dim == 0:
        assert len(P.vertices) == 1
        return
    assert {(tuple(f.normal[c] for c in cols), f.offset) for f in P.facets} == brute
    # a point is a vertex iff the facets through it have normals of full rank
    proj = {p: tuple(p[c] for c in cols) for p in set(pts)}
    extreme = {
        p
        for p, q in proj.items()
        if frac_rank([normal for normal, offset in brute if sum(a * b for a, b in zip(normal, q)) == offset]) == dim
    }
    assert set(P.vertices) == extreme


def _mapped(P, scale, shift):
    """The image of P under x -> scale * x + shift."""

    def image(normal, offset):
        return scale * offset + sum(a * b for a, b in zip(normal, shift))

    return LatticePolytope(
        P.n,
        P.dim,
        tuple(tuple(scale * x + t for x, t in zip(v, shift)) for v in P.vertices),
        tuple(Facet(f.normal, image(f.normal, f.offset), f.vertices) for f in P.facets),
        tuple((normal, image(normal, offset)) for normal, offset in P.equalities),
    )


@settings(max_examples=120, deadline=None)
@given(small_point_sets(), st.data())
def test_hull_commutes_with_large_lattice_maps(pts, data):
    # coordinates near 2^70 leave int64, so the hull runs in Python integers
    signs = data.draw(st.lists(st.sampled_from((-1, 1)), min_size=len(pts[0]), max_size=len(pts[0])))
    scale = data.draw(st.sampled_from((1, 2**40)))
    shift = [s * 2**70 for s in signs]
    moved = [tuple(scale * x + t for x, t in zip(p, shift)) for p in pts]
    assert convex_hull(moved) == _mapped(convex_hull(pts), scale, shift)


def test_equalities_do_not_depend_on_non_vertex_points():
    # (1,1,0,1) is the midpoint of the first and last point
    pts = [(0, 0, 0, 0), (1, 1, 0, 1), (2, 0, 1, 0), (2, 2, 0, 2)]
    P = convex_hull(pts)
    assert P == convex_hull([(0, 0, 0, 0), (2, 0, 1, 0), (2, 2, 0, 2)])
    assert P.equalities == (((1, 0, -2, -1), 0), ((0, 1, 0, -1), 0))


@st.composite
def flat_point_sets(draw):
    """Point sets of dimension below their ambient one: small sets in 1-4
    dimensions, lifted by an integer x -> A x + t into up to 6 coordinates, so
    they span a random sublattice of a proper affine subspace."""
    base = draw(small_point_sets().filter(lambda pts: len(pts[0]) <= 4))
    d = len(base[0])
    n = draw(st.integers(d + 1, 6))
    entry = st.integers(-3, 3)
    lift = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=n, max_size=n))
    shift = draw(st.lists(entry, min_size=n, max_size=n))
    return [tuple(sum(a * x for a, x in zip(row, p)) + t for row, t in zip(lift, shift)) for p in base]


@settings(max_examples=120, deadline=None)
@given(flat_point_sets())
def test_flat_hull_equals_hull_of_its_vertices(pts):
    P = convex_hull(pts)
    assert P.dim < P.n and len(P.equalities) == P.n - P.dim
    assert convex_hull(P.vertices) == P
    # Hermite form: positive pivots in increasing columns, each entry above
    # a pivot in [0, pivot)
    normals = [normal for normal, _ in P.equalities]
    pivots = [next(j for j, x in enumerate(normal) if x) for normal in normals]
    assert pivots == sorted(set(pivots))
    for k, (normal, j) in enumerate(zip(normals, pivots)):
        assert normal[j] > 0
        assert all(0 <= above[j] < normal[j] for above in normals[:k])


@st.composite
def integer_rows(draw):
    """Integer rows with entries up to 2^100, some of them combinations of others."""
    width = draw(st.integers(1, 6))
    entry = st.one_of(st.integers(-3, 3), st.integers(-(2**100), 2**100))
    base = draw(st.lists(st.lists(entry, min_size=width, max_size=width), min_size=1, max_size=4))
    coefficients = st.lists(st.integers(-2, 2), min_size=len(base), max_size=len(base))
    combos = draw(st.lists(coefficients, max_size=3))
    rows = base + [[sum(c * row[j] for c, row in zip(combo, base)) for j in range(width)] for combo in combos]
    return draw(st.permutations(rows))


@settings(max_examples=200, deadline=None)
@given(integer_rows())
def test_row_basis_matches_rational_rank(rows):
    assert _rank(rows) == frac_rank(rows)
    basis = _RowBasis(len(rows[0]))
    for row in rows:
        basis.add(row)
    assert basis.rank == frac_rank(rows)
    # stored rows are primitive echelon rows: zero before their pivot and at
    # the pivots stored before them
    for k, (row, piv) in enumerate(zip(basis.rows, basis.pivots)):
        assert math.gcd(*row) == 1
        assert row[piv] and not any(row[:piv])
        assert not any(row[other] for other in basis.pivots[:k])


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

    @pytest.mark.parametrize("other", ["dilated", "0/1 polytope"])
    def test_birkhoff_is_told_apart_at_once(self, other):
        # 24 vertices in dimension 9: the search over images of an affine
        # basis alone would try 24!/14! (about 8.6e12) candidates.  2 B_4 has
        # even difference gcds; 24 random 0/1 points in dimension 9 span a
        # polytope whose gcds are all 1, like B_4's, but with 740 facets
        B4 = convex_hull(birkhoff(4))
        if other == "dilated":
            Q = dilate(B4, 2)
        else:
            Q = convex_hull(random.Random(1).sample(list(itertools.product((0, 1), repeat=9)), 24))
        assert Q.dim == 9 and len(Q.vertices) == 24
        start = time.perf_counter()
        assert affinely_isomorphic(B4, Q) == (False, None)
        assert time.perf_counter() - start < 1.0


def _unimodular(n, rng):
    """A random n x n integer matrix of determinant +-1: elementary row
    operations applied to the identity."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            m[i] = [-a for a in m[i]]
        elif rng.random() < 0.7:
            q = rng.choice((-2, -1, 1, 2))
            m[i] = [a + q * b for a, b in zip(m[i], m[j])]
        else:
            m[i], m[j] = m[j], m[i]
    return m


def _random_lattice_polytope(rng):
    """A lattice polytope of dimension at most 3 with at most 7 vertices; a
    flat one is lifted into up to 5 ambient coordinates."""
    d = rng.randint(0, 3)
    n = rng.randint(max(d, 1), 5)
    lift = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(n)]
    for i in range(d):  # keep the lift injective
        lift[i] = [int(i == j) for j in range(d)]
    rng.shuffle(lift)
    base = [tuple(rng.randint(0, 3) for _ in range(d)) for _ in range(rng.randint(d + 1, 7))]
    return convex_hull([tuple(sum(a * x for a, x in zip(row, p)) for row in lift) for p in base])


@pytest.mark.parametrize("seed", range(60))
def test_isomorphism_under_unimodular_maps(seed):
    rng = random.Random(seed)
    P = _random_lattice_polytope(rng)
    m = _unimodular(P.n, rng)
    shift = [rng.randint(-9, 9) for _ in range(P.n)]
    Q = convex_hull([tuple(sum(a * x for a, x in zip(row, v)) + t for row, t in zip(m, shift)) for v in P.vertices])
    ok, witness = affinely_isomorphic(P, Q)
    assert ok
    assert all(type(x) is int for row in witness.matrix for x in row)
    assert all(type(x) is int for x in witness.translation)
    assert {witness.apply(v) for v in P.vertices} == set(Q.vertices)
    if P.dim > 0:
        assert affinely_isomorphic(P, dilate(P, 2)) == (False, None)


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

    def test_rejects_empty_facet_list(self):
        # an empty list is a declaration too: a triangle has three facets
        payload = json.loads(to_json(convex_hull([(0, 0), (1, 0), (0, 1)])))
        payload["facets"] = []
        with pytest.raises(PolytopeInputError):
            from_json(json.dumps(payload))

    @pytest.mark.parametrize(
        "equalities",
        [
            [([1, 0, 0], 0), ([0, 1, 2], 2)],  # x_1 = 0 holds at (0, 2, 0) only
            [([1, 0, -1], 1), ([0, 1, 2], 2)],  # wrong offset
            [([1, 0, -1], 0)],  # one of two missing
        ],
    )
    def test_rejects_wrong_equality(self, equalities):
        payload = json.loads(to_json(convex_hull([(0, 2, 0), (1, 0, 1)])))
        assert [(e["normal"], e["offset"]) for e in payload["equalities"]] == [([1, 0, -1], 0), ([0, 1, 2], 2)]
        payload["equalities"] = [{"normal": normal, "offset": offset} for normal, offset in equalities]
        with pytest.raises(PolytopeInputError, match="equalities"):
            from_json(json.dumps(payload))

    def test_loads_any_basis_of_the_equalities(self):
        P = convex_hull([(0, 0, 0, 0), (2, 0, 1, 0), (2, 2, 0, 2)])
        payload = json.loads(to_json(P))
        payload["equalities"] = [
            {"normal": [1, -1, -2, 0], "offset": 0},
            {"normal": [1, 0, -2, -1], "offset": 0},
        ]
        assert from_json(json.dumps(payload)) == P

    @pytest.mark.parametrize("entry", [1.5, 1.0, True, "1"])
    @pytest.mark.parametrize("field", ["vertex", "facet normal", "facet offset", "equality normal", "equality offset"])
    def test_rejects_non_integer_entries(self, field, entry):
        payload = json.loads(to_json(convex_hull([(0, 2, 0), (1, 0, 1), (1, 1, 1)])))
        target = {
            "vertex": (payload["vertices"][1], 0),
            "facet normal": (payload["facets"][0]["normal"], 0),
            "facet offset": (payload["facets"][0], "offset"),
            "equality normal": (payload["equalities"][0]["normal"], 0),
            "equality offset": (payload["equalities"][0], "offset"),
        }
        container, key = target[field]
        container[key] = entry
        with pytest.raises(PolytopeInputError, match="not an integer"):
            from_json(json.dumps(payload))

    def test_point_has_no_facets(self):
        P = convex_hull([(2, 3)])
        assert from_json(to_json(P)) == P
