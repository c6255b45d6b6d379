import itertools
import math
import random
from fractions import Fraction

import pytest

from newtonpoly.eval_oracle import (
    EvalBounds,
    NoConvergenceError,
    NotGenericError,
    adaptive_superset,
    group_generator,
    min_gap,
    support_estimate,
    threshold_t,
    vertex_query,
)
from newtonpoly.polytope import lattice_points
from newtonpoly.slp import SparsePolynomial, parse_sparse, sparse_to_slp
from conftest import bounding_polytope, random_sparse

QUADRIC_SUPERSET = ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))
W_EXAMPLE = (Fraction(-6, 5), Fraction(2, 5), Fraction(37, 10))  # (-1.2, 0.4, 3.7)


class TestMinGap:
    def test_quadric_example_gap(self):
        gap = min_gap(QUADRIC_SUPERSET, W_EXAMPLE)
        assert gap.d_w == pytest.approx(1.6, abs=1e-12)

    def test_unit_direction(self):
        gap = min_gap([(0,), (1,)], (1,))
        assert gap.d_w == 1

    def test_tie_is_rejected(self):
        # the message prints exact entries as the command line reads them
        with pytest.raises(NotGenericError, match=r"^direction 1, 1/2 does not separate"):
            min_gap([(1, 0), (0, 2)], (Fraction(1), Fraction(1, 2)))

    def test_float_direction_guard(self):
        with pytest.raises(TypeError):
            min_gap([(1, 0), (0, 1)], (1.0, 1.0 + 1e-14))


class TestEvalBounds:
    @pytest.mark.parametrize(
        "superset, message",
        [
            ((), "nonempty"),
            (((1, 0, 1), (0, 2)), "differ in length"),
            (((1, 0, 1), (0, 2, 0), (1, 0, 1)), "duplicates"),
        ],
    )
    def test_rejects_bad_superset(self, superset, message):
        with pytest.raises(ValueError, match=message):
            EvalBounds(2.0, 2.0, superset)


class TestThreshold:
    def test_quadric_example(self):
        bounds = EvalBounds(2.0, 2.0, QUADRIC_SUPERSET)
        gap = min_gap(QUADRIC_SUPERSET, W_EXAMPLE)
        t_star = threshold_t(bounds, gap)
        expected = max(4.0, 2 * (2 + math.exp(-1)), 2 + math.log(6) + 1) / 1.6
        assert math.log(t_star) == pytest.approx(expected, rel=1e-12)
        assert math.log(t_star) == pytest.approx(2.995, abs=1e-3)
        assert 45.0 > t_star

    def test_small_superset(self):
        bounds = EvalBounds(1.0, 1.0, ((0,), (1,)))
        gap = min_gap(((0,), (1,)), (1,))
        expected = max(2.0, 2 * (1 + math.exp(-1)), 1 + math.log(2) + 1)
        assert math.log(threshold_t(bounds, gap)) == pytest.approx(expected, rel=1e-12)

    def test_homogeneity_in_gap(self):
        bounds = EvalBounds(2.0, 2.0, QUADRIC_SUPERSET)
        base = min_gap(QUADRIC_SUPERSET, W_EXAMPLE)
        scaled = min_gap(QUADRIC_SUPERSET, tuple(10 * x for x in W_EXAMPLE))
        assert math.log(threshold_t(bounds, scaled)) == pytest.approx(
            math.log(threshold_t(bounds, base)) / 10, rel=1e-9
        )


class TestVertexQuery:
    def test_discriminant_both_directions(self, disc_poly):
        program = sparse_to_slp(disc_poly)
        bounds = EvalBounds(2.0, 2.0, QUADRIC_SUPERSET)
        answer = vertex_query(program, bounds, W_EXAMPLE, random.Random(0), t=45.0)
        assert answer.beta == (1, 0, 1)
        assert answer.ratio == pytest.approx(2.864, abs=0.005)
        neg = vertex_query(program, bounds, tuple(-x for x in W_EXAMPLE), random.Random(0), t=45.0)
        assert neg.beta == (0, 2, 0)
        assert -neg.ratio == pytest.approx(0.8016, abs=0.005)

    def test_monomial_any_direction(self):
        poly = SparsePolynomial.from_terms(2, [(3, (2, 5))])
        program = sparse_to_slp(poly)
        bounds = EvalBounds(2.0, 2.0, ((2, 5), (0, 0), (1, 1)))
        answer = vertex_query(program, bounds, (Fraction(3), Fraction(-2)), random.Random(0))
        assert answer.beta == (2, 5)

    def test_default_t_uses_threshold(self, disc_poly):
        program = sparse_to_slp(disc_poly)
        bounds = EvalBounds(2.0, 2.0, QUADRIC_SUPERSET)
        answer = vertex_query(program, bounds, W_EXAMPLE, random.Random(0))
        gap = min_gap(QUADRIC_SUPERSET, W_EXAMPLE)
        assert answer.t == pytest.approx(2 * threshold_t(bounds, gap))
        assert answer.beta == (1, 0, 1)


class TestSupportEstimate:
    def test_discriminant(self, disc_poly):
        est = support_estimate(sparse_to_slp(disc_poly), (1, 0, 1), random.Random(0))
        assert est.h_value == 2 and est.group_gen == 1

    def test_single_term_converges_to_dot(self):
        poly = SparsePolynomial.from_terms(2, [(7, (3, 4))])
        est = support_estimate(sparse_to_slp(poly), (2, 1), random.Random(0))
        assert est.h_value == 10
        # estimates approach from the log|c| offset: h + log(7)/tau
        tau0, first = est.samples[0]
        assert first == pytest.approx(10 + math.log(7) / tau0, rel=1e-6)

    def test_quadratic(self, quad_poly):
        est = support_estimate(sparse_to_slp(quad_poly), (1, 1), random.Random(0))
        assert est.h_value == 2

    def test_rational_direction_group(self, quad_poly):
        est = support_estimate(sparse_to_slp(quad_poly), (Fraction(1, 2), Fraction(1, 3)), random.Random(0))
        assert est.group_gen == Fraction(1, 6)
        assert est.h_value == 1  # attained by x^2

    def test_rejects_float_direction(self, quad_poly):
        with pytest.raises(TypeError):
            support_estimate(sparse_to_slp(quad_poly), (1.5, 2.5), random.Random(0))

    def test_matches_brute_force_on_corpus(self):
        rng = random.Random(3)
        for _ in range(15):
            poly = random_sparse(rng)
            program = sparse_to_slp(poly)
            w = [rng.randint(-4, 4) for _ in range(poly.n)]
            if not any(w):
                w[0] = 1
            want = max(sum(wi * a for wi, a in zip(w, alpha)) for alpha in poly.support())
            est = support_estimate(program, tuple(w), rng=rng)
            assert est.h_value == want


class TestGroupGenerator:
    def test_integer_direction(self):
        assert group_generator((2, 4, 6)) == 2

    def test_rational_direction(self):
        assert group_generator((Fraction(1, 2), Fraction(1, 3))) == Fraction(1, 6)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            group_generator((0, 0))


class TestBoundingPolytope:
    # the expected values are the exact scan of the axis box for the points
    # whose total degree lies between the support's lowest and highest

    def test_discriminant_box(self, disc_poly):
        # the box [0, 1] x [0, 2] x [0, 1] keeps its 4 points of total degree 2
        P = bounding_polytope(sparse_to_slp(disc_poly), 3, random.Random(0))
        assert len(lattice_points(P)) == 4
        assert set(P.vertices) == {(0, 2, 0), (1, 0, 1), (1, 1, 0), (0, 1, 1)}

    def test_constant_polynomial(self):
        poly = SparsePolynomial.from_terms(2, [(5, (0, 0))])
        P = bounding_polytope(sparse_to_slp(poly), 2, random.Random(0))
        assert P.vertices == ((0, 0),)

    def test_quadratic_box(self, quad_poly):
        # the box [0, 2] x [0, 1] loses (2, 1), of total degree 3
        P = bounding_polytope(sparse_to_slp(quad_poly), 2, random.Random(0))
        assert len(lattice_points(P)) == 5
        assert set(P.vertices) == {(0, 0), (2, 0), (1, 1), (0, 1)}

    def test_more_directions_shrink(self, disc_poly):
        # the total-degree rows cut the box the axis rows give
        points, cuts = adaptive_superset(sparse_to_slp(disc_poly), 3, random.Random(0))
        assert [d for d, _ in cuts] == [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (-1, -1, -1)]
        box = set(itertools.product(*(range(int(h) + 1) for _, h in cuts[:3])))
        assert set(points) < box and len(box) == 12


class TestSoundness:
    def test_certified_queries_return_the_support_argmax(self):
        rng = random.Random(2024)
        trials = 0
        while trials < 25:
            poly = random_sparse(rng)
            program = sparse_to_slp(poly)
            support = poly.support()
            extras = set(support)
            for _ in range(50):
                if len(extras) >= len(support) + 3:
                    break
                extras.add(tuple(rng.randint(0, 8) for _ in range(poly.n)))
            superset = tuple(extras)
            w = tuple(rng.randint(-9, 9) for _ in range(poly.n))
            try:
                gap = min_gap(superset, w)
            except NotGenericError:
                continue
            bounds = EvalBounds(2.0, 3.0, superset)
            t = 2.0 * threshold_t(bounds, gap)
            answer = vertex_query(program, bounds, w, random.Random(0), t=t)
            dots = [sum(wi * a for wi, a in zip(w, alpha)) for alpha in support]
            argmax = support[dots.index(max(dots))]
            assert answer.beta == argmax
            w_beta = sum(wi * b for wi, b in zip(w, answer.beta))
            assert abs(answer.ratio - w_beta) < gap.d_w / 2
            trials += 1
