import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newtonpoly import reconstruct as rc
from newtonpoly.eval_oracle import EvalBounds
from newtonpoly.numbers import GaussianRational
from newtonpoly.polytope import convex_hull, support_function
from newtonpoly.reconstruct import (
    EvalVertexOracle,
    OracleIndeterminate,
    ReconstructConfig,
    WitnessVertexOracle,
    facet_query_direction,
    random_direction,
    reconstruct,
    verify,
)
from newtonpoly.slp import SparsePolynomial, sparse_to_slp
from newtonpoly.witness_oracle import (
    SlpLineBackend,
    SparseLineBackend,
    WitnessConfig,
    line_constants,
    make_line,
    rate_params_from_sparse,
)
from conftest import random_sparse


class TestRandomDirection:
    def test_nonzero_integer_entries(self):
        rng = random.Random(0)
        for _ in range(20):
            w = random_direction(3, 5, rng)
            assert any(w) and all(abs(x) <= 5 * 2**8 for x in w)

    def test_rejects_tied_directions(self):
        rng = random.Random(1)
        box = [(0, 0), (1, 0), (0, 1), (1, 1)]
        for _ in range(50):
            w = random_direction(2, 5, rng, candidates=box)
            dots = sorted(w[0] * x + w[1] * y for x, y in box)
            assert all(a != b for a, b in zip(dots, dots[1:]))

    def test_large_candidate_sets_get_unique_extremes(self):
        rng = random.Random(2)
        big = [(i, j, k) for i in range(15) for j in range(15) for k in range(15)]
        w = random_direction(3, 5, rng, candidates=big)
        dots = sorted(sum(a * b for a, b in zip(w, p)) for p in big)
        assert dots[0] != dots[1] and dots[-1] != dots[-2]

    def test_high_dimensional_draw(self):
        w = random_direction(15, 5, random.Random(6))
        assert len(w) == 15 and any(w)


class TestFacetDirection:
    def test_normal_part_dominates(self):
        rng = random.Random(3)
        normal = (1, -2, 0)
        coord_bound = 6
        for _ in range(30):
            w = facet_query_direction(normal, coord_bound, 5, rng)
            # any maximizer of w over the coordinate box maximizes the normal
            box = [
                (a, b, c)
                for a in range(coord_bound + 1)
                for b in range(coord_bound + 1)
                for c in range(coord_bound + 1)
            ]
            best = max(box, key=lambda p: sum(x * y for x, y in zip(w, p)))
            top = max(sum(x * y for x, y in zip(normal, p)) for p in box)
            assert sum(x * y for x, y in zip(normal, best)) == top

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(-3, 3), min_size=1, max_size=3).filter(any),
        st.integers(1, 4),
        st.integers(1, 5),
        st.integers(0, 2**32 - 1),
    )
    def test_tilts_are_nonzero_and_every_maximizer_stays_on_the_face(self, normal, coord_bound, r_bound, seed):
        w = facet_query_direction(normal, coord_bound, r_bound, random.Random(seed))
        m = len(normal) * r_bound * coord_bound + 1
        assert all(0 < abs(wi - m * u) <= r_bound for wi, u in zip(w, normal))
        dot = lambda v, p: sum(x * y for x, y in zip(v, p))  # noqa: E731
        box = list(itertools.product(range(coord_bound + 1), repeat=len(normal)))
        top_w = max(dot(w, p) for p in box)
        top_u = max(dot(normal, p) for p in box)
        assert all(dot(normal, p) == top_u for p in box if dot(w, p) == top_w)


class TestEvalReconstruction:
    def test_discriminant_segment(self, disc_poly):
        oracle = EvalVertexOracle.adaptive(sparse_to_slp(disc_poly), 3, random.Random(0))
        report = reconstruct(oracle, 3)
        assert report.complete
        assert report.polytope.vertices == ((0, 2, 0), (1, 0, 1))
        assert report.polytope.dim == 1

    def test_f1_bipyramid(self, f1_poly):
        oracle = EvalVertexOracle.adaptive(sparse_to_slp(f1_poly), 6, random.Random(0))
        report = reconstruct(oracle, 6)
        assert report.complete
        assert set(report.polytope.vertices) == set(f1_poly.support())
        assert len(report.polytope.facets) == 6

    def test_monomial_gives_point(self):
        poly = SparsePolynomial.from_terms(2, [(3, (2, 1))])
        oracle = EvalVertexOracle.adaptive(sparse_to_slp(poly), 2, random.Random(0))
        report = reconstruct(oracle, 2)
        assert report.complete and report.polytope.vertices == ((2, 1),)

    def test_bounds_mode(self, disc_poly):
        superset = ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))
        bounds = EvalBounds(2.0, 2.0, superset)
        oracle = EvalVertexOracle.from_bounds(sparse_to_slp(disc_poly), bounds, random.Random(0))
        report = reconstruct(oracle, 3)
        assert report.complete
        assert report.polytope.vertices == ((0, 2, 0), (1, 0, 1))

    def test_hull_matches_direct_computation_on_corpus(self):
        rng = random.Random(47)
        for _ in range(8):
            poly = random_sparse(rng)
            oracle = EvalVertexOracle.adaptive(sparse_to_slp(poly), poly.n, random.Random(0))
            report = reconstruct(oracle, poly.n)
            assert report.complete
            assert report.polytope == convex_hull(poly.support())

    def test_unchanged_vertex_set_is_not_rehulled(self, monkeypatch):
        calls = []

        def recording_hull(points):
            calls.append(frozenset(points))
            return convex_hull(points)

        monkeypatch.setattr(rc, "convex_hull", recording_hull)
        rng = random.Random(47)
        for _ in range(8):
            poly = random_sparse(rng)
            calls.clear()
            oracle = EvalVertexOracle.adaptive(sparse_to_slp(poly), poly.n, random.Random(0))
            report = reconstruct(oracle, poly.n)
            assert report.complete
            assert report.polytope == convex_hull(poly.support())
            # the report holds the hull of the last call, made once per vertex set
            assert calls and report.polytope == convex_hull(calls[-1])
            assert all(a != b for a, b in zip(calls, calls[1:]))


class TestWitnessReconstruction:
    def test_quadratic_triangle(self, quad_poly):
        backend = SparseLineBackend(quad_poly)
        line = make_line(2, random.Random(7), backend)
        consts = line_constants(line, C=5.0)
        cfg = WitnessConfig(
            rng=random.Random(1),
            rate_source=lambda w: rate_params_from_sparse(quad_poly, [float(x) for x in w], consts)
        )
        oracle = WitnessVertexOracle(backend, line, consts, cfg)
        report = reconstruct(oracle, 2)
        assert report.complete
        assert report.polytope.vertices == ((0, 0), (0, 1), (2, 0))
        assert oracle.certificates  # certificates retained for auditing

    def test_discriminant_segment(self, disc_poly):
        backend = SparseLineBackend(disc_poly)
        line = make_line(3, random.Random(5), backend)
        consts = line_constants(line, C=4.0)
        cfg = WitnessConfig(
            rng=random.Random(1),
            rate_source=lambda w: rate_params_from_sparse(disc_poly, [float(x) for x in w], consts)
        )
        oracle = WitnessVertexOracle(backend, line, consts, cfg)
        report = reconstruct(oracle, 3)
        assert report.complete
        assert report.polytope.vertices == ((0, 2, 0), (1, 0, 1))

    def test_black_box_backend_matches_sparse_backend(self):
        import math

        rng = random.Random(777)
        done = 0
        attempt = 0
        while done < 3 and attempt < 15:
            attempt += 1
            poly = random_sparse(rng, n_max=3, deg_max=5)
            sparse_backend = SparseLineBackend(poly)
            try:
                line = make_line(poly.n, random.Random(9000 + attempt), sparse_backend)
            except Exception:
                continue
            consts = line_constants(line, C=float(math.exp(3)))
            expected = convex_hull(poly.support())
            polytopes = []
            for backend in (sparse_backend, SlpLineBackend(sparse_to_slp(poly))):
                cfg = WitnessConfig(
                    rng=random.Random(1),
                    rate_source=lambda w, p=poly, c=consts: rate_params_from_sparse(
                        p, [float(x) for x in w], c
                    )
                )
                report = reconstruct(WitnessVertexOracle(backend, line, consts, cfg), poly.n)
                assert report.complete
                polytopes.append(report.polytope)
            assert polytopes[0] == polytopes[1] == expected
            done += 1
        assert done == 3


# Two inputs of the witness benchmark's recipe (2 variables, 4 terms, total
# degree 2): the terms as ((re, im), exponent), the seed of the line's
# generator and the seed of reconstruct().
FITTED_RATE_CASES = [
    pytest.param(
        [
            ((Fraction(-63203, 65536), Fraction(-188851, 65536)), (0, 0)),
            ((Fraction(-10099, 8192), Fraction(-22141, 16384)), (0, 1)),
            ((Fraction(19623, 32768), Fraction(-2403, 1024)), (1, 1)),
            ((Fraction(-70705, 65536), Fraction(-22013, 65536)), (2, 0)),
        ],
        3781540672832418278,
        4823600569967245933,
        id="seed1-input0",
    ),
    pytest.param(
        [
            ((Fraction(-6969, 4096), Fraction(-71093, 32768)), (0, 0)),
            ((Fraction(-43057, 32768), Fraction(200881, 65536)), (0, 1)),
            ((Fraction(15329, 16384), Fraction(-189435, 65536)), (0, 2)),
            ((Fraction(-159635, 32768), Fraction(-2831, 65536)), (1, 0)),
        ],
        3663847880456398934,
        2668796735357448443,
        id="seed2-input128",
        marks=pytest.mark.xfail(
            strict=True,
            reason="random_direction in the seed phase draws (-1, 0), which ties (0, 0), (0, 1) "
            "and (0, 2), and the fitted rates certify the non-support point (1, 1) for it",
        ),
    ),
]


class TestFittedRates:
    """Witness reconstructions that fit their rates from the samples (no
    rate_source) through the black-box backend: a complete answer must be
    the hull of the support."""

    @pytest.mark.parametrize("terms, line_seed, reconstruct_seed", FITTED_RATE_CASES)
    def test_complete_answers_are_correct(self, terms, line_seed, reconstruct_seed):
        # seed1-input0 once certified the non-support point (1, 0) for the
        # seed-phase tilts (-17, 0) and (-26, 0): a zero tilt entry left both
        # directions on the edge from (0, 0) to (0, 1)
        poly = SparsePolynomial.from_terms(2, [(GaussianRational(re, im), a) for (re, im), a in terms])
        backend = SlpLineBackend(sparse_to_slp(poly))
        rng = random.Random(line_seed)
        line = make_line(2, rng, backend)
        consts = line_constants(line, C=10.0)
        oracle = WitnessVertexOracle(backend, line, consts, WitnessConfig(rng=rng, C=10.0))
        report = reconstruct(oracle, 2, ReconstructConfig(seed=reconstruct_seed, facet_retries=8))
        assert not report.complete or report.polytope == convex_hull(poly.support())


class TestVerify:
    def test_clean_polytope_passes(self, f1_poly):
        oracle = EvalVertexOracle.adaptive(sparse_to_slp(f1_poly), 6, random.Random(0))
        report = reconstruct(oracle, 6)
        outcome = verify(report.polytope, oracle, 25, random.Random(3))
        assert outcome.ok and outcome.checked == 25

    def test_truncated_polytope_is_caught(self, f1_poly):
        oracle = EvalVertexOracle.adaptive(sparse_to_slp(f1_poly), 6, random.Random(0))
        report = reconstruct(oracle, 6)
        # drop one vertex: many directions now expose the missing one
        truncated = convex_hull(report.polytope.vertices[:-1])
        outcome = verify(truncated, oracle, 50, random.Random(4))
        assert not outcome.ok

    def test_point_polytope(self):
        poly = SparsePolynomial.from_terms(2, [(3, (2, 1))])
        oracle = EvalVertexOracle.adaptive(sparse_to_slp(poly), 2, random.Random(0))
        report = reconstruct(oracle, 2)
        outcome = verify(report.polytope, oracle, 10, random.Random(5))
        assert outcome.ok


class TestDeterminism:
    def test_same_seed_same_report(self, disc_poly):
        def run():
            oracle = EvalVertexOracle.adaptive(
                sparse_to_slp(disc_poly), 3, rng=random.Random(9)
            )
            return reconstruct(oracle, 3, ReconstructConfig(seed=4))

        first, second = run(), run()
        assert first.polytope == second.polytope
        assert first.queries == second.queries
        assert first.query_log == second.query_log
