import cmath
import math
import random
from fractions import Fraction

import pytest

from newtonpoly.numbers import (
    ABSORB_GAP,
    GaussianRational,
    ScaledComplex,
    parse_coefficient,
)


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
    def test_normalization_invariant(self):
        rng = random.Random(0)
        values = [
            ScaledComplex(complex(rng.uniform(-5, 5), rng.uniform(-5, 5)), rng.randint(-400, 400))
            for _ in range(200)
        ]
        values = [v for v in values if not v.is_zero()]
        for a, b in zip(values, values[1:]):
            for result in (a + b, a * b, a - b, a / b):
                if not result.is_zero():
                    assert 1.0 <= abs(result.mantissa) < 2.0

    def test_exponent_arithmetic_is_exact(self):
        a = ScaledComplex(1.5, 10**9)
        b = ScaledComplex(1.25, -(10**9) + 7)
        c = a * b
        assert c.exponent == 10**9 + (-(10**9) + 7) + (
            math.frexp(1.5 * 1.25)[1] - 1
        )
        # multiplication exponents associate exactly
        d = ScaledComplex(1.1, 12345)
        assert ((a * b) * d).exponent == (a * (b * d)).exponent

    def test_matches_complex_arithmetic_in_range(self):
        rng = random.Random(1)
        for _ in range(100):
            x = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            y = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if x == 0 or y == 0:
                continue
            sx, sy = ScaledComplex.from_complex(x), ScaledComplex.from_complex(y)
            assert cmath.isclose((sx + sy).to_complex(), x + y, rel_tol=1e-14, abs_tol=1e-14)
            assert cmath.isclose((sx * sy).to_complex(), x * y, rel_tol=1e-14)
            assert cmath.isclose((sx / sy).to_complex(), x / y, rel_tol=1e-14)

    def test_absorption_flags_large_gap_adds(self):
        big = ScaledComplex(1.0, 500)
        small = ScaledComplex(1.0, 500 - ABSORB_GAP - 1)
        result = big + small
        assert result.absorbed
        assert result.exponent == 500 and result.mantissa == 1.0
        near = ScaledComplex(1.0, 500 - 10)
        assert not (big + near).absorbed

    def test_zero_handling(self):
        zero = ScaledComplex(0)
        one = ScaledComplex(1.0)
        assert zero.is_zero() and (zero + one).to_complex() == 1.0
        assert (one * zero).is_zero()
        assert zero.log_abs() == float("-inf")
        with pytest.raises(ZeroDivisionError):
            one / zero

    def test_huge_log_magnitudes(self):
        v = ScaledComplex.from_log2(1.0, 1.4e9)
        assert v.log_abs() == pytest.approx(1.4e9 * math.log(2.0), rel=1e-12)
        w = v * v
        assert w.log_abs() == pytest.approx(2.8e9 * math.log(2.0), rel=1e-12)

    def test_to_complex_underflow_flushes_to_zero(self):
        tiny = ScaledComplex(1.3, -4148)
        assert tiny.to_complex() == 0j
        with pytest.raises(OverflowError):
            ScaledComplex(1.3, 4148).to_complex()

