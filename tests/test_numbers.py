import cmath
import random
from fractions import Fraction

import pytest

from newtonpoly.numbers import GaussianRational, parse_coefficient
from newtonpoly.slp import evaluate, parse_slp, to_complex

ADD = parse_slp("in 1\nin 2\nadd r1 r2")
MUL = parse_slp("in 1\nin 2\nmul r1 r2")
SUB = parse_slp("in 1\nin 2\nconst -1\nmul r2 r3\nadd r1 r4")


class TestGaussianRational:
    def test_exact_arithmetic(self):
        a = GaussianRational(Fraction(1, 3), Fraction(2, 7))
        b = GaussianRational(Fraction(-5, 3), Fraction(1, 7))
        s = a + b
        assert (s.re, s.im) == (Fraction(-4, 3), Fraction(3, 7))
        p = a * b
        assert p.re == Fraction(1, 3) * Fraction(-5, 3) - Fraction(2, 7) * Fraction(1, 7)
        assert p.im == Fraction(1, 3) * Fraction(1, 7) + Fraction(2, 7) * Fraction(-5, 3)

    def test_to_complex(self):
        z = GaussianRational(Fraction(1, 2), Fraction(-3, 4)).to_complex()
        assert z == 0.5 - 0.75j

    @pytest.mark.parametrize(
        "text, re, im",
        [
            ("5", Fraction(5), Fraction(0)),
            ("-4", Fraction(-4), Fraction(0)),
            ("1/2", Fraction(1, 2), Fraction(0)),
            ("2.5", Fraction(5, 2), Fraction(0)),
            ("-1.5e-3", Fraction(-3, 2000), Fraction(0)),
            ("1/2+3/4i", Fraction(1, 2), Fraction(3, 4)),
            ("1/2-3/4i", Fraction(1, 2), Fraction(-3, 4)),
            ("3i", Fraction(0), Fraction(3)),
            ("-i", Fraction(0), Fraction(-1)),
            ("2+i", Fraction(2), Fraction(1)),
            ("3-2i", Fraction(3), Fraction(-2)),
        ],
    )
    def test_parse(self, text, re, im):
        c = parse_coefficient(text)
        assert (c.re, c.im) == (re, im)

    @pytest.mark.parametrize("text", ["", "x", "1/0", "1+2", "--3", "1//2"])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_coefficient(text)


class TestScaledComplex:
    """Scaled complex numbers are (complex mantissa, int exponent) pairs, the
    operands of the evaluation kernel in newtonpoly.slp."""

    def test_normalization_invariant(self):
        # a nonzero result keeps its mantissa in the lazy window [2**-300, 2**300]
        rng = random.Random(0)
        values = [
            (complex(rng.uniform(-5, 5), rng.uniform(-5, 5)) * 2.0 ** rng.randint(-290, 290), rng.randint(-400, 400))
            for _ in range(200)
        ]
        values = [v for v in values if v[0] != 0]
        for a, b in zip(values, values[1:]):
            for f in (ADD, MUL, SUB):
                m, _ = evaluate(f, [a, b])
                if m != 0:
                    assert 2.0**-300 <= abs(m) <= 2.0**300

    def test_matches_complex_arithmetic_in_range(self):
        rng = random.Random(1)
        for _ in range(100):
            x = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            y = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if x == 0 or y == 0:
                continue
            sx, sy = (x, 0), (y, 0)
            assert cmath.isclose(to_complex(evaluate(ADD, [sx, sy])), x + y, rel_tol=1e-14, abs_tol=1e-14)
            assert cmath.isclose(to_complex(evaluate(SUB, [sx, sy])), x - y, rel_tol=1e-14, abs_tol=1e-14)
            assert cmath.isclose(to_complex(evaluate(MUL, [sx, sy])), x * y, rel_tol=1e-14)
