import cmath
import math
import random
from fractions import Fraction

import pytest

from newtonpoly.slp import (
    SlpParseError,
    SparseParseError,
    SparsePolynomial,
    evaluate,
    evaluate_dir,
    log_abs,
    parse_slp,
    parse_sparse,
    restrict_to_face,
    scaled_point,
    sparse_to_slp,
    to_complex,
)
from conftest import eval_complex, random_sparse, sparse_eval_complex


class TestParseSparse:
    def test_discriminant(self):
        p = parse_sparse("1 : 0 2 0\n-4 : 1 0 1")
        assert p.n == 3 and len(p.terms) == 2
        assert p.support() == ((0, 2, 0), (1, 0, 1))

    def test_cancellation_gives_zero(self):
        p = parse_sparse("3 : 0 0\n-3 : 0 0")
        assert p.is_zero()

    def test_duplicates_merge(self):
        p = parse_sparse("2 : 1 1\n5 : 1 1")
        assert len(p.terms) == 1
        coeff, alpha = p.terms[0]
        assert coeff.re == 7 and alpha == (1, 1)

    @pytest.mark.parametrize("coeff", [1.5, 2.0, 1 + 2j, complex(1.0, 0.0)])
    def test_float_and_complex_coefficients_refused(self, coeff):
        with pytest.raises(TypeError):
            SparsePolynomial.from_terms(1, [(1, (0,)), (coeff, (1,))])

    def test_comments_and_blanks(self):
        p = parse_sparse("# leading comment\n\n1 : 1 0  # x\n2 : 0 1\n")
        assert len(p.terms) == 2

    def test_errors_carry_line_numbers(self):
        with pytest.raises(SparseParseError, match="line 2"):
            parse_sparse("1 : 0 0\nnot a term")
        with pytest.raises(SparseParseError, match="negative"):
            parse_sparse("1 : -1 0")
        with pytest.raises(SparseParseError, match="expected 2"):
            parse_sparse("1 : 0 0\n1 : 0 0 0")


class TestParseSlp:
    DISC_PROGRAM = """\
in 1
in 2
in 3
mul r2 r2
const -4
mul r5 r1
mul r6 r3
add r4 r7
"""

    def test_discriminant_program_matches_sparse(self):
        program = parse_slp(self.DISC_PROGRAM)
        sparse = parse_sparse("1 : 0 2 0\n-4 : 1 0 1")
        rng = random.Random(3)
        for _ in range(10):
            x = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)]
            assert cmath.isclose(eval_complex(program, x), sparse_eval_complex(sparse, x), rel_tol=1e-12)

    def test_single_constant(self):
        program = parse_slp("const 5")
        assert eval_complex(program, []) == 5

    def test_product_of_inputs(self):
        program = parse_slp("in 1\nin 2\nmul r1 r2")
        assert eval_complex(program, [3, 4]) == 12

    def test_out_selects_register(self):
        program = parse_slp("in 1\nconst 2\nmul r1 r2\nout r2")
        assert eval_complex(program, [9]) == 2

    def test_forward_reference_rejected(self):
        with pytest.raises(SlpParseError, match="not defined"):
            parse_slp("add r1 r2")

    def test_unknown_opcode(self):
        with pytest.raises(SlpParseError, match="unknown opcode"):
            parse_slp("frob r1 r1")

    def test_bad_constant(self):
        with pytest.raises(SlpParseError):
            parse_slp("const 1//2")


class TestSparseToSlp:
    def test_discriminant_size_and_agreement(self):
        sparse = parse_sparse("1 : 0 2 0\n-4 : 1 0 1")
        program = sparse_to_slp(sparse)
        assert len(program) <= 8
        rng = random.Random(7)
        for _ in range(10):
            x = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)]
            got = eval_complex(program, x)
            want = sparse_eval_complex(sparse, x)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_zero_polynomial(self):
        program = sparse_to_slp(SparsePolynomial.from_terms(2, []))
        assert eval_complex(program, [5, 7]) == 0

    def test_f1_agreement(self, f1_poly):
        program = sparse_to_slp(f1_poly)
        rng = random.Random(11)
        for _ in range(10):
            x = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(6)]
            got = eval_complex(program, x)
            want = sparse_eval_complex(f1_poly, x)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_random_agreement_at_100_points(self):
        rng = random.Random(13)
        for _ in range(10):
            poly = random_sparse(rng)
            program = sparse_to_slp(poly)
            for _ in range(10):
                x = [
                    complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                    for _ in range(poly.n)
                ]
                got = eval_complex(program, x)
                want = sparse_eval_complex(poly, x)
                assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


class TestCompiledSize:
    def test_fixture_operation_counts_are_pinned(self, fixtures_dir):
        # a regression in sharing shows up here first.  Compiled one operation
        # per add/mul instruction, f5 read 745; the others were the same.
        pinned = {"f1": 18, "f2": 18, "f3": 18, "f4": 18, "f5": 367, "disc": 4, "quad": 6}
        for name, count in pinned.items():
            program = sparse_to_slp(parse_sparse((fixtures_dir / f"{name}.poly").read_text()))
            assert len(program.code[1]) == count, name


class TestEvaluate:
    def test_witness_point_nearly_vanishes(self):
        # a known point on the discriminant hypersurface
        program = sparse_to_slp(parse_sparse("1 : 0 2 0\n-4 : 1 0 1"))
        value = eval_complex(program, [0.3816, -0.1071, 0.00752])
        assert abs(value) < 5e-4

    def test_constant(self):
        program = parse_slp("const 5")
        assert to_complex(evaluate(program, [])) == 5

    def test_power_of_two_scaling(self):
        program = sparse_to_slp(SparsePolynomial.from_terms(1, [(1, (10,))]))
        mantissa, exponent = evaluate(program, [(1.0, 1000)])
        assert exponent == 10000 and mantissa == 1.0

    def test_no_overflow_at_huge_log_magnitude(self):
        program = sparse_to_slp(SparsePolynomial.from_terms(2, [(1, (3, 2))]))
        point = scaled_point(math.e, [1e6, 2e6], [1.0, 1.0])
        value = evaluate(program, point)
        assert log_abs(value) == pytest.approx(3e6 + 4e6, rel=1e-9)


class TestEvaluateDir:
    def test_product_rule(self):
        program = parse_slp("in 1\nin 2\nmul r1 r2")
        value, deriv = evaluate_dir(program, [(2, 0), (3, 0)], [(1, 0), (0, 0)])
        assert to_complex(value) == 6 and to_complex(deriv) == 3

    def test_discriminant_partial(self):
        program = sparse_to_slp(parse_sparse("1 : 0 2 0\n-4 : 1 0 1"))
        xs = [(v, 0) for v in (1, 2, 1)]
        vs = [(v, 0) for v in (0, 1, 0)]
        value, deriv = evaluate_dir(program, xs, vs)
        assert to_complex(value) == 0 and to_complex(deriv) == 4

    def test_matches_central_differences(self):
        rng = random.Random(17)
        for _ in range(10):
            poly = random_sparse(rng)
            program = sparse_to_slp(poly)
            if len(program) > 50:
                continue
            x = [complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5)) for _ in range(poly.n)]
            v = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(poly.n)]
            _, deriv = evaluate_dir(program, [(c, 0) for c in x], [(c, 0) for c in v])
            h = 1e-6
            plus = eval_complex(program, [c + h * d for c, d in zip(x, v)])
            minus = eval_complex(program, [c - h * d for c, d in zip(x, v)])
            fd = (plus - minus) / (2 * h)
            got = to_complex(deriv)
            assert abs(got - fd) <= 1e-5 * max(1.0, abs(fd))


class TestScaledPoint:
    def test_example_magnitudes(self):
        point = scaled_point(45.0, [-1.2, 0.4, 3.7], [1.0, 1.0, 1.0])
        logs = [log_abs(c) for c in point]
        assert logs[0] == pytest.approx(-1.2 * math.log(45), rel=1e-12)
        assert logs[1] == pytest.approx(0.4 * math.log(45), rel=1e-12)
        assert logs[2] == pytest.approx(3.7 * math.log(45), rel=1e-12)

    def test_zero_weights_preserve_point(self):
        xs = [0.5 + 0.25j, -2.0 + 1.0j]
        point = scaled_point(7.0, [0.0, 0.0], xs)
        assert [to_complex(c) for c in point] == xs

    def test_stress_log_magnitude(self):
        point = scaled_point(math.e, [1e6, 0.0], [1.0, 1.0])
        assert log_abs(point[0]) == pytest.approx(1e6, rel=1e-12)

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            scaled_point(0.0, [1.0], [1.0])


class TestRestrictToFace:
    def test_discriminant_vertex(self, disc_poly):
        face, h = restrict_to_face(disc_poly, (Fraction(-6, 5), Fraction(2, 5), Fraction(37, 10)))
        assert face.support() == ((1, 0, 1),)
        assert h == Fraction(5, 2)

    def test_float_weights_refused(self, disc_poly):
        with pytest.raises(TypeError):
            restrict_to_face(disc_poly, (-1.2, 0.4, 3.7))

    def test_zero_direction_returns_everything(self, disc_poly):
        face, h = restrict_to_face(disc_poly, (0, 0, 0))
        assert face == disc_poly and h == 0

    def test_quadratic_example(self, quad_poly):
        face, h = restrict_to_face(quad_poly, (1, 1))
        assert face.support() == ((2, 0),) and h == 2

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            restrict_to_face(SparsePolynomial.from_terms(1, []), (1,))


class TestAsymptoticMagnitude:
    def test_log_magnitude_tracks_support_maximum(self):
        # log|f(t^w . x)| = h log t + log|f_w(x)| + o(1)
        rng = random.Random(23)
        for _ in range(8):
            poly = random_sparse(rng)
            program = sparse_to_slp(poly)
            w = [rng.randint(-4, 4) for _ in range(poly.n)]
            x = [cmath.exp(2j * math.pi * rng.random()) for _ in range(poly.n)]
            face, h = restrict_to_face(poly, w)
            fw = sparse_eval_complex(face, x)
            if abs(fw) < 1e-6:
                continue
            t = 1e9
            value = evaluate(program, scaled_point(t, [float(e) for e in w], x))
            predicted = h * math.log(t) + math.log(abs(fw))
            assert log_abs(value) == pytest.approx(predicted, abs=1e-3)
