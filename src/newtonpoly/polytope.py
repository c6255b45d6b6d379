"""Exact lattice-polytope computations.

Everything here runs in exact arithmetic.  The hull and every rank step run
in integers (fraction-free elimination, int64 dot products where a magnitude
bound allows, Python integers otherwise), and so does the lattice algebra:
one unimodular column reduction (``_reduce``) gives kernels, the affine-hull
equalities in Hermite normal form, and the lattice coordinates and integer
witness of the isomorphism test.  Fractions appear only in the rational
directions that ``support_function`` and ``CutFilter.keep`` accept.

The hull is a double description: facets are the extreme rays of the cone
of valid inequalities, and each inserted point cuts that cone, combining
every adjacent pair of facets on either side of it into a facet through it.
Facets are never triangulated, so degenerate polytopes (many points per
facet) stay cheap.  Vertices are the points whose tight facet normals have
full rank.

Lower-dimensional hulls are computed by projecting the affine hull onto an
independent coordinate subset (a lattice-preserving bijection), hulling
there, and lifting facet normals back.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

import numpy as np

Point = Tuple[int, ...]


class HullError(RuntimeError):
    """Internal inconsistency while building a hull."""


class PolytopeInputError(ValueError):
    """Malformed polytope data."""


@dataclass(frozen=True)
class Facet:
    normal: Point
    offset: int
    vertices: Tuple[int, ...]


@dataclass(frozen=True)
class SupportSample:
    w: Tuple[Fraction, ...]
    value: Fraction
    exposed_dim: int


@dataclass(frozen=True)
class LatticePolytope:
    n: int
    dim: int
    vertices: Tuple[Point, ...]
    facets: Tuple[Facet, ...]
    equalities: Tuple[Tuple[Point, int], ...]

    def contains(self, point: Sequence[int]) -> bool:
        p = tuple(point)
        for normal, offset in self.equalities:
            if _dot(normal, p) != offset:
                return False
        return all(_dot(f.normal, p) <= f.offset for f in self.facets)


# ---------------------------------------------------------------------------
# exact linear algebra helpers

def _dot(u: Sequence, v: Sequence):
    return sum(a * b for a, b in zip(u, v))


def _sub(u: Point, v: Point) -> Point:
    return tuple(a - b for a, b in zip(u, v))


def _primitive(vec: Sequence[int]) -> Point:
    g = 0
    for x in vec:
        g = math.gcd(g, abs(x))
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in vec)


class _RowBasis:
    """Incremental row basis of integer rows (for rank bookkeeping).

    Fraction-free elimination: a new row is reduced by ``row * b - a *
    basis_row`` at each stored pivot and stored divided by its gcd, so every
    stored row is a nonzero multiple of the rational echelon row with the
    same pivot.
    """

    def __init__(self, width: int):
        self.width = width
        self.rows: List[Point] = []
        self.pivots: List[int] = []

    def _reduce(self, row):
        for basis_row, piv in zip(self.rows, self.pivots):
            a = row[piv]
            if a:
                b = basis_row[piv]
                row = [x * b - a * y for x, y in zip(row, basis_row)]
        return row

    def add(self, row) -> bool:
        reduced = self._reduce(row)
        for j, x in enumerate(reduced):
            if x:
                self.rows.append(_primitive(reduced))
                self.pivots.append(j)
                return True
        return False

    @property
    def rank(self) -> int:
        return len(self.rows)


def _rank(rows: Iterable[Sequence[int]]) -> int:
    rows = list(rows)
    if not rows:
        return 0
    basis = _RowBasis(len(rows[0]))
    for row in rows:
        basis.add(row)
        if basis.rank == basis.width:
            break
    return basis.rank


def _int_det(mat: Sequence[Sequence[int]]) -> int:
    """Fraction-free (Bareiss) determinant of a small integer matrix."""
    size = len(mat)
    if size == 0:
        return 1
    m = [list(row) for row in mat]
    sign = 1
    prev = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            for i in range(k + 1, size):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


def _reduce(rows: Sequence[Sequence[int]], n: int):
    """Column Hermite form of the integer matrix A with these rows (n columns).

    A unimodular U brings A to ``A @ U``, whose columns from the rank r on are
    zero and whose column j < r has a positive pivot (its first nonzero entry)
    below the pivots of the columns before it, every earlier column's entry in
    the pivot's row lying in [0, pivot).  Returns r, the columns of ``A @ U``,
    the columns of U and the rows of U^-1:
    - U's columns from r on are a basis of the saturated kernel {x in Z^n :
      row . x = 0 for all rows};
    - the rows of U^-1 before r are a basis of the saturated row lattice
      span_Q(rows) ∩ Z^n, and column j < r of ``A @ U`` holds every row's
      coordinate on basis row j (an integer x in that lattice has coordinates
      ``x . U[j]``).
    """
    m = len(rows)
    # column j of the stacked matrix [A; I] becomes column j of [A @ U; U]
    cols = [[row[j] for row in rows] + [int(i == j) for i in range(n)] for j in range(n)]
    v = [[int(i == j) for i in range(n)] for j in range(n)]  # rows of U^-1

    def subtract(j, k, q):  # column j -= q * column k
        cols[j] = [a - q * b for a, b in zip(cols[j], cols[k])]
        v[k] = [a + q * b for a, b in zip(v[k], v[j])]

    c = 0
    for r in range(m):
        while True:
            nz = [j for j in range(c, n) if cols[j][r] != 0]
            if not nz:
                break
            if len(nz) == 1:
                j = nz[0]
                cols[c], cols[j] = cols[j], cols[c]
                v[c], v[j] = v[j], v[c]
                if cols[c][r] < 0:
                    cols[c] = [-x for x in cols[c]]
                    v[c] = [-x for x in v[c]]
                for k in range(c):
                    q = cols[k][r] // cols[c][r]
                    if q:
                        subtract(k, c, q)
                c += 1
                break
            j0 = min(nz, key=lambda j: abs(cols[j][r]))
            for j in nz:
                if j == j0:
                    continue
                q = cols[j][r] // cols[j0][r]
                if q:
                    subtract(j, j0, q)
    return c, [col[:m] for col in cols], [col[m:] for col in cols], v


def _int_kernel(rows: Sequence[Sequence[int]], n: int) -> List[Point]:
    """Basis of the saturated integer kernel {x in Z^n : row . x = 0 for all rows}."""
    rank, _, u, _ = _reduce(rows, n)
    return [tuple(col) for col in u[rank:]]


def _hermite(basis: Sequence[Sequence[int]], n: int) -> List[Point]:
    """Row Hermite normal form of the lattice spanned by integer rows of width
    n: positive pivots, rows in pivot order, each entry above a pivot in
    [0, pivot).  Dependent input leaves zero rows at the end."""
    _, h, _, _ = _reduce([[b[j] for b in basis] for j in range(n)], len(basis))
    return [tuple(row) for row in h]


# ---------------------------------------------------------------------------
# full-dimensional double description

def _bits(mask: int):
    """Indices of the set bits of a nonnegative int, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _initial_simplex(pts: Sequence[Point], d: int) -> List[int]:
    basis = _RowBasis(d)
    chosen = [0]
    for i in range(1, len(pts)):
        if basis.add(_sub(pts[i], pts[0])):
            chosen.append(i)
            if len(chosen) == d + 1:
                return chosen
    raise HullError("points do not span the expected dimension")


def _hull_fulldim(pts: List[Point], d: int):
    """Facet planes and vertex indices of the hull of full-dimensional pts.

    Double description on the homogenized cone: a facet ``normal . x <=
    offset`` is an extreme ray of the cone of valid inequalities, and each
    facet keeps its exact slack ``offset - normal . p`` at every point.
    Inserting a point p splits the facets by the sign of their slack s at p;
    each adjacent pair (f+, f-) of opposite signs yields the facet
    ``s+ * f- - s- * f+`` through p, and the facets with p outside go.  Zero
    sets (over the points inserted so far) and the facets through each point
    are integer bitsets: f+ and f- are adjacent when their common zero set
    holds at least d-1 points and no third facet contains it.
    """
    simplex = _initial_simplex(pts, d)
    # object dtype keeps any entry exact; CutFilter stores int64 when they fit
    points = CutFilter(np.array(pts, dtype=object).T)
    done = np.zeros(len(pts), dtype=bool)
    done[simplex] = True
    facets: dict = {}  # id -> (normal, offset, slack at every point)
    zeros: dict = {}  # id -> bitset of the inserted points on the facet
    incident = [0] * len(pts)  # point -> bitset of the ids of facets through it
    free: List[int] = []  # ids of deleted facets, reused to keep the bitsets short

    def add_facet(normal: Point, offset: int, zero_set: int) -> None:
        # with no free id, the live ids are exactly 0 .. len(facets) - 1
        fid = free.pop() if free else len(facets)
        slack = offset - points.dots(normal)
        # exactness guard: the plane must support every inserted point
        if (slack[done] < 0).any():
            raise HullError("hull insertion produced an unsupported plane")
        facets[fid] = (normal, offset, slack.tolist())
        zeros[fid] = zero_set
        for i in _bits(zero_set):
            incident[i] |= 1 << fid

    for omit in simplex:
        corners = [i for i in simplex if i != omit]
        base = pts[corners[0]]
        (normal,) = _int_kernel([_sub(pts[i], base) for i in corners[1:]], d)
        offset = _dot(normal, base)
        if _dot(normal, pts[omit]) > offset:
            normal, offset = tuple(-x for x in normal), -offset
        add_facet(normal, offset, sum(1 << i for i in corners))

    for ip in range(len(pts)):
        if done[ip]:
            continue
        done[ip] = True
        sigma = {fid: f[2][ip] for fid, f in facets.items()}
        neg = [fid for fid, s in sigma.items() if s < 0]
        pos = 0  # bitset of the facets with positive slack at p
        for fid, s in sigma.items():
            if s > 0:
                pos |= 1 << fid
            elif s == 0:
                zeros[fid] |= 1 << ip
                incident[ip] |= 1 << fid
        fresh = []
        for g in neg:
            # reach[c]: the facets of pos through at least c points of g seen
            # so far; a facet adjacent to g shares at least d-1 of them
            reach = [pos] + [0] * (d - 1)
            for i in _bits(zeros[g]):
                for c in range(d - 1, 0, -1):
                    reach[c] |= reach[c - 1] & incident[i]
            for f in _bits(reach[d - 1]):
                common = zeros[f] & zeros[g]
                pair = (1 << f) | (1 << g)
                through = -1
                for i in _bits(common):
                    through &= incident[i]
                    if through == pair:
                        a, b = sigma[f], -sigma[g]
                        normal = _primitive([a * x + b * y for x, y in zip(facets[g][0], facets[f][0])])
                        fresh.append((normal, common | 1 << ip))
                        break
        for g in neg:
            del facets[g]
            free.append(g)
            for i in _bits(zeros.pop(g)):
                incident[i] &= ~(1 << g)
        for normal, zero_set in fresh:
            add_facet(normal, _dot(normal, pts[ip]), zero_set)

    vertex_ids = {
        i for i, through in enumerate(incident) if through and _rank(facets[f][0] for f in _bits(through)) == d
    }
    facet_list = [
        (normal, offset, tuple(i for i in _bits(zeros[fid]) if i in vertex_ids))
        for fid, (normal, offset, _) in facets.items()
    ]
    return facet_list, vertex_ids


def _peel_axis_midpoints(points: set) -> set:
    """Drop points that are axis-midpoints of two others; extremes survive.

    Safe pre-filter before hulling large lattice sets: a removed point is the
    midpoint of two retained-or-removed set points, hence never extreme.
    """
    if not points:
        return points
    n = len(next(iter(points)))
    current = set(points)
    while True:
        removable = []
        for p in current:
            for i in range(n):
                up = p[:i] + (p[i] + 1,) + p[i + 1 :]
                dn = p[:i] + (p[i] - 1,) + p[i + 1 :]
                if up in current and dn in current:
                    removable.append(p)
                    break
        if not removable:
            return current
        current.difference_update(removable)


# ---------------------------------------------------------------------------
# public operations

def convex_hull(points: Iterable[Sequence[int]]) -> LatticePolytope:
    """Exact convex hull; handles duplicates and lower-dimensional inputs."""
    seen = set()
    pts: List[Point] = []
    n = None
    for p in points:
        tp = tuple(int(x) for x in p)
        if n is None:
            n = len(tp)
        elif len(tp) != n:
            raise PolytopeInputError("points of mixed dimensions")
        if tp not in seen:
            seen.add(tp)
            pts.append(tp)
    if not pts:
        raise PolytopeInputError("empty point set")
    if len(pts) > 512:
        pts = sorted(_peel_axis_midpoints(set(pts)))
    else:
        pts.sort()

    origin = pts[0]
    basis = _RowBasis(n)
    for p in pts[1:]:
        basis.add(_sub(p, origin))
    dim = basis.rank
    # the saturated kernel of a row basis is that of every difference
    equalities = tuple((normal, _dot(normal, origin)) for normal in _hermite(_int_kernel(basis.rows, n), n))
    if dim == 0:
        return LatticePolytope(n, 0, (origin,), (), equalities)

    # choose an independent coordinate subset for a lattice-preserving projection
    col_basis = _RowBasis(basis.rank)
    proj_cols: List[int] = []
    for j in range(n):
        column = [row[j] for row in basis.rows]
        if col_basis.add(column):
            proj_cols.append(j)
            if len(proj_cols) == dim:
                break

    if dim == 1:
        projected = [(p[proj_cols[0]],) for p in pts]
        lo = min(range(len(pts)), key=lambda i: projected[i])
        hi = max(range(len(pts)), key=lambda i: projected[i])
        vertex_ids = {lo, hi}
        facet_list = [((1,), projected[hi][0], (hi,)), ((-1,), -projected[lo][0], (lo,))]
    else:
        projected = [tuple(p[j] for j in proj_cols) for p in pts]
        facet_list, vertex_ids = _hull_fulldim(projected, dim)

    ordered = sorted(vertex_ids, key=lambda i: pts[i])
    new_index = {old: new for new, old in enumerate(ordered)}
    vertices = tuple(pts[i] for i in ordered)

    facets = []
    for normal, offset, members in facet_list:
        ambient = [0] * n
        for k, j in enumerate(proj_cols):
            ambient[j] = normal[k]
        facets.append(
            Facet(tuple(ambient), offset, tuple(sorted(new_index[i] for i in members)))
        )
    facets.sort(key=lambda f: (f.normal, f.offset))
    return LatticePolytope(n, dim, vertices, tuple(facets), equalities)


def support_function(P: LatticePolytope, w: Sequence) -> SupportSample:
    """Exact maximum of w . x over P plus the dimension of the maximizing face."""
    if not P.vertices:
        raise PolytopeInputError("empty polytope")
    w_vec = tuple(Fraction(x) for x in w)
    if len(w_vec) != P.n:
        raise PolytopeInputError(f"direction has {len(w_vec)} entries, expected {P.n}")
    values = [_dot(w_vec, v) for v in P.vertices]
    best = max(values)
    argmax = [v for v, val in zip(P.vertices, values) if val == best]
    exposed_dim = _rank([_sub(v, argmax[0]) for v in argmax[1:]])
    return SupportSample(w_vec, best, exposed_dim)


def _integer_cut(w: Sequence, h) -> Tuple[List[int], int]:
    """The rational cut w . x <= h (or = h) scaled to integers by its lcd."""
    lcd = math.lcm(*(x.denominator for x in (*w, h)))
    return [x.numerator * (lcd // x.denominator) for x in w], h.numerator * (lcd // h.denominator)


class CutFilter:
    """A fixed set of integer points, tested against exact rational cuts.

    ``axes[j]`` holds coordinate j of the points, and the axes broadcast
    against each other: the ``np.ix_`` ranges of a box describe the box
    without building it, and the columns of a point matrix describe those
    points.  Dot products run in int64 when a magnitude bound built from each
    axis' largest absolute entry stays below 2^62, and in Python integers
    otherwise (``dots``).
    """

    def __init__(self, axes: Sequence):
        axes = [np.asarray(a) for a in axes]
        self._mags = [max(abs(int(a.min())), abs(int(a.max()))) if a.size else 0 for a in axes]
        small = max(self._mags, default=0) < 2**62
        # contiguous axes keep the per-axis products at memory speed
        self.axes = [np.ascontiguousarray(a, dtype=np.int64 if small else object) for a in axes]
        self.shape = np.broadcast(*self.axes).shape

    def dots(self, w: Sequence[int]) -> np.ndarray:
        """Exact dot products ``w . x`` of the points (broadcast shape), for
        an integer w: int64 when sum |w_j| * max(1, |x_j|) < 2^62, Python
        integers otherwise."""
        wide = sum(abs(s) * max(1, m) for s, m in zip(w, self._mags)) >= 2**62
        return sum((s * (a.astype(object) if wide else a) for s, a in zip(w, self.axes) if s), 0)

    def keep(self, cuts: Iterable[Tuple[Sequence, object, bool]]) -> np.ndarray:
        """Boolean mask (of the broadcast shape) of the points satisfying
        every cut ``(w, h, equal)``: ``w . x <= h``, or ``w . x == h`` when
        ``equal`` is set.  Entries of w and h are ints or Fractions."""
        mask = np.ones(self.shape, dtype=bool)
        for w, h, equal in cuts:
            ws, target = _integer_cut(w, h)
            dots = self.dots(ws)
            mask &= (dots == target) if equal else (dots <= target)
        return mask


def box_points(lo: Sequence[int], hi: Sequence[int], cuts) -> np.ndarray:
    """The integer points of the box lo <= x <= hi that satisfy every cut
    (as in ``CutFilter.keep``), as the rows of a (k, n) array in
    lexicographic order: int64, or Python integers where ``CutFilter`` needs
    them."""
    box = CutFilter(np.ix_(*(np.asarray(range(a, b + 1)) for a, b in zip(lo, hi))))
    keep = box.keep(cuts)
    return np.stack([np.broadcast_to(a, box.shape)[keep] for a in box.axes], axis=1)


def lattice_points(P: LatticePolytope) -> List[Point]:
    """All integer points of P, in lexicographic order, via a bounding-box scan."""
    if not P.vertices:
        raise PolytopeInputError("empty polytope")
    lo = [min(v[i] for v in P.vertices) for i in range(P.n)]
    hi = [max(v[i] for v in P.vertices) for i in range(P.n)]
    cuts = [(f.normal, f.offset, False) for f in P.facets]
    cuts += [(normal, offset, True) for normal, offset in P.equalities]
    return list(map(tuple, box_points(lo, hi, cuts).tolist()))


def dilate(P: LatticePolytope, k: int) -> LatticePolytope:
    """Scale by a positive integer: vertices and offsets scale, normals do not."""
    if k < 1:
        raise ValueError("dilation factor must be a positive integer")
    return LatticePolytope(
        P.n,
        P.dim,
        tuple(tuple(k * x for x in v) for v in P.vertices),
        tuple(Facet(f.normal, k * f.offset, f.vertices) for f in P.facets),
        tuple((normal, k * offset) for normal, offset in P.equalities),
    )


@dataclass(frozen=True)
class AffineIso:
    """Witness for a lattice-affine isomorphism: x -> matrix @ x + translation,
    all integer."""

    matrix: Tuple[Tuple[int, ...], ...]
    translation: Tuple[int, ...]

    def apply(self, point: Sequence[int]) -> Tuple[int, ...]:
        return tuple(
            _dot(row, point) + t for row, t in zip(self.matrix, self.translation)
        )


def _matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> List[Point]:
    return [tuple(_dot(row, col) for col in zip(*b)) for row in a]


def _lattice_coordinates(vertices: Sequence[Point], n: int):
    """The first vertex, a basis of the lattice of the affine hull (rows), the
    rows that read a lattice vector's coordinates on it, and the coordinates of
    every vertex's difference from the first."""
    origin = vertices[0]
    rank, cols, u, v = _reduce([_sub(p, origin) for p in vertices], n)
    coords = [tuple(col[i] for col in cols[:rank]) for i in range(len(vertices))]
    return origin, v[:rank], u[:rank], coords


def _difference_gcds(vertices: Sequence[Point]) -> List[int]:
    """Sorted gcds of all pairwise vertex differences.  Each difference lies in
    the saturated lattice of the affine hull, so its gcd is its divisibility
    there, which a lattice-affine bijection keeps."""
    return sorted(math.gcd(*_sub(p, q)) for p, q in itertools.combinations(vertices, 2))


def affinely_isomorphic(P: LatticePolytope, Q: LatticePolytope):
    """Search for a lattice-affine bijection of vertex sets; returns (bool, witness).

    The map must be unimodular on the lattice of the affine hull.  Pairs whose
    facet counts or difference gcds differ are rejected at once; otherwise
    images of an affine basis of P's vertices are enumerated exhaustively,
    which is fine at the vertex counts that occur here.  Everything runs in integers: the
    linear part M solves ``delta_p @ M^T = delta_q`` as ``adj(delta_p) @
    delta_q / det(delta_p)``, and is unimodular exactly when it is integral
    and ``|det delta_q| == |det delta_p|``.
    """
    if (
        P.dim != Q.dim
        or len(P.vertices) != len(Q.vertices)
        or len(P.facets) != len(Q.facets)
        or _difference_gcds(P.vertices) != _difference_gcds(Q.vertices)
    ):
        return False, None
    dim = P.dim
    if dim == 0:
        return True, AffineIso(tuple((0,) * P.n for _ in range(Q.n)), Q.vertices[0])

    p_origin, _, p_read, p_coords = _lattice_coordinates(P.vertices, P.n)
    q_origin, q_basis, _, q_coords = _lattice_coordinates(Q.vertices, Q.n)
    q_coord_set = set(q_coords)

    # p_coords[0] is zero: P's first vertex is the origin of its coordinates
    basis_rows = _RowBasis(dim)
    delta_p = []
    for y in p_coords[1:]:
        if basis_rows.add(y):
            delta_p.append(y)
            if len(delta_p) == dim:
                break
    det_p = _int_det(delta_p)
    # adj(delta_p)[i][j] is the signed minor without row j and column i
    adj_p = [
        [(-1) ** (i + j) * _int_det([row[:i] + row[i + 1 :] for k, row in enumerate(delta_p) if k != j])
         for j in range(dim)]
        for i in range(dim)
    ]

    for image in itertools.permutations(range(len(q_coords)), dim + 1):
        z0 = q_coords[image[0]]
        delta_q = [_sub(q_coords[i], z0) for i in image[1:]]
        if abs(_int_det(delta_q)) != abs(det_p):
            continue
        m_t = _matmul(adj_p, delta_q)
        if any(x % det_p for row in m_t for x in row):
            continue
        m = [tuple(x // det_p for x in col) for col in zip(*m_t)]
        mapped = {tuple(_dot(row, y) + z for row, z in zip(m, z0)) for y in p_coords}
        if mapped != q_coord_set:
            continue
        # ambient map x -> q_origin + B_Q^T (z0 + M read_P(x - p_origin))
        basis_t = list(zip(*q_basis))
        linear = _matmul(basis_t, _matmul(m, p_read))
        translation = tuple(
            o + _dot(b, z0) - _dot(row, p_origin) for o, b, row in zip(q_origin, basis_t, linear)
        )
        return True, AffineIso(tuple(linear), translation)
    return False, None


def to_json(P: LatticePolytope) -> str:
    payload = {
        "n": P.n,
        "dim": P.dim,
        "vertices": [list(v) for v in P.vertices],
        "facets": [{"normal": list(f.normal), "offset": f.offset} for f in P.facets],
        "equalities": [
            {"normal": list(normal), "offset": offset} for normal, offset in P.equalities
        ],
    }
    return json.dumps(payload, sort_keys=True)


def _json_int(x) -> int:
    """A JSON integer; a float, a string or a boolean is refused."""
    if type(x) is not int:
        raise ValueError(f"{x!r} is not an integer")
    return x


def from_json(text: str) -> LatticePolytope:
    """Load a polytope; the hull of the listed vertices is recomputed and
    cross-checked against any facets and equalities present in the payload."""
    try:
        payload = json.loads(text)
        vertices = [tuple(map(_json_int, v)) for v in payload["vertices"]]
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise PolytopeInputError(f"bad polytope JSON: {exc}") from exc
    P = convex_hull(vertices)
    declared = payload.get("facets")
    if declared is not None:
        got = {(tuple(f.normal), f.offset) for f in P.facets}
        want = set()
        try:
            for f in declared:
                want.add((_primitive(tuple(map(_json_int, f["normal"]))), _json_int(f["offset"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise PolytopeInputError(f"bad facet entry: {exc}") from exc
        if got != want:
            raise PolytopeInputError("declared facets do not match the hull of the vertices")
    declared = payload.get("equalities")
    if declared is not None:
        try:
            rows = [(tuple(map(_json_int, e["normal"])), _json_int(e["offset"])) for e in declared]
        except (KeyError, TypeError, ValueError) as exc:
            raise PolytopeInputError(f"bad equality entry: {exc}") from exc
        # any basis of the lattice of normals will do; its Hermite form must be the hull's
        if (
            any(len(normal) != P.n or _dot(normal, P.vertices[0]) != offset for normal, offset in rows)
            or _hermite([normal for normal, _ in rows], P.n) != [normal for normal, _ in P.equalities]
        ):
            raise PolytopeInputError("declared equalities do not match the hull of the vertices")
    return P
