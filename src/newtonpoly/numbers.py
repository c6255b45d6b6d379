"""Exact Gaussian-rational coefficients and overflow-safe scaled complex arithmetic.

Two number types live here:

* :class:`GaussianRational` -- a complex number with exact rational real and
  imaginary parts.  Addition and multiplication never round, so coefficient
  bookkeeping (parsing, term merging, program constants) is exact.

* :class:`ScaledComplex` -- a complex double mantissa paired with a separate
  integer power-of-two exponent.  Evaluating a polynomial at points whose
  coordinates have log-magnitudes in the hundreds of millions overflows any
  fixed-exponent float; keeping the exponent as a Python int makes the
  log-magnitude range effectively unlimited while the mantissa keeps ordinary
  double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

LN2 = math.log(2.0)

# An addend whose binary exponent trails the other operand by more than this
# cannot change a 53-bit mantissa; it is absorbed and the result is flagged.
ABSORB_GAP = 128


@dataclass(frozen=True)
class GaussianRational:
    """Complex number with exact rational components."""

    re: Fraction
    im: Fraction = Fraction(0)

    @classmethod
    def from_value(cls, value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(Fraction(value))
        raise TypeError(f"cannot build a GaussianRational from {type(value).__name__}")

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_complex(self) -> complex:
        return complex(self.re, self.im)

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


def parse_coefficient(text: str) -> GaussianRational:
    """Parse ``p/q``, a decimal, or a Gaussian rational like ``1/2-3/4i``.

    Decimals (including scientific notation) are converted exactly.
    Raises ValueError on malformed input.
    """
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty coefficient")
    if s.endswith(("i", "I")):
        body = s[:-1]
        split = _split_imaginary(body)
        if split is None:
            # purely imaginary: "i", "-i", "3/4i", "2.5i"
            if body in ("", "+"):
                return GaussianRational(Fraction(0), Fraction(1))
            if body == "-":
                return GaussianRational(Fraction(0), Fraction(-1))
            return GaussianRational(Fraction(0), _parse_rational(body))
        real_part, imag_part = split
        if imag_part in ("+", "-"):
            imag = Fraction(-1) if imag_part == "-" else Fraction(1)
        else:
            imag = _parse_rational(imag_part)
        return GaussianRational(_parse_rational(real_part), imag)
    return GaussianRational(_parse_rational(s))


def _split_imaginary(body: str):
    """Split "A+B" / "A-B" at the sign starting the imaginary part, if any."""
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "eE+-/.":
            return body[:k], body[k:]
    return None


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational number {text!r}") from exc


class ScaledComplex:
    """value = mantissa * 2**exponent with |mantissa| in [1,2) or mantissa == 0.

    ``absorbed`` records that somewhere in the history of this value an
    addition dropped an operand whose exponent trailed by more than
    ``ABSORB_GAP``; dominance arguments make this harmless for magnitude
    estimates, but the flag keeps it visible.
    """

    __slots__ = ("mantissa", "exponent", "absorbed")

    def __init__(self, mantissa: complex, exponent: int = 0, absorbed: bool = False):
        m = complex(mantissa)
        if m == 0:
            object.__setattr__(self, "mantissa", 0j)
            object.__setattr__(self, "exponent", 0)
        else:
            shift = math.frexp(abs(m))[1] - 1
            object.__setattr__(
                self,
                "mantissa",
                complex(math.ldexp(m.real, -shift), math.ldexp(m.imag, -shift)),
            )
            object.__setattr__(self, "exponent", exponent + shift)
        object.__setattr__(self, "absorbed", absorbed)

    def __setattr__(self, *_):
        raise AttributeError("ScaledComplex is immutable")

    @classmethod
    def from_complex(cls, z: complex) -> "ScaledComplex":
        return cls(z, 0)

    @classmethod
    def from_log2(cls, base: complex, log2_scale: float) -> "ScaledComplex":
        """base scaled by 2**log2_scale, splitting the scale into int + fractional parts."""
        if base == 0:
            return cls(0j, 0)
        whole = math.floor(log2_scale)
        return cls(base * 2.0 ** (log2_scale - whole), whole)

    def is_zero(self) -> bool:
        return self.mantissa == 0

    def __add__(self, other: "ScaledComplex") -> "ScaledComplex":
        flag = self.absorbed or other.absorbed
        if self.mantissa == 0:
            return other if not flag or other.absorbed else ScaledComplex(other.mantissa, other.exponent, True)
        if other.mantissa == 0:
            return self if not flag or self.absorbed else ScaledComplex(self.mantissa, self.exponent, True)
        gap = self.exponent - other.exponent
        if gap > ABSORB_GAP:
            return ScaledComplex(self.mantissa, self.exponent, True)
        if gap < -ABSORB_GAP:
            return ScaledComplex(other.mantissa, other.exponent, True)
        if gap >= 0:
            m = self.mantissa + complex(
                math.ldexp(other.mantissa.real, -gap), math.ldexp(other.mantissa.imag, -gap)
            )
            return ScaledComplex(m, self.exponent, flag)
        m = other.mantissa + complex(
            math.ldexp(self.mantissa.real, gap), math.ldexp(self.mantissa.imag, gap)
        )
        return ScaledComplex(m, other.exponent, flag)

    def __neg__(self) -> "ScaledComplex":
        return ScaledComplex(-self.mantissa, self.exponent, self.absorbed)

    def __sub__(self, other: "ScaledComplex") -> "ScaledComplex":
        return self + (-other)

    def __mul__(self, other: "ScaledComplex") -> "ScaledComplex":
        if self.mantissa == 0 or other.mantissa == 0:
            return ScaledComplex(0j, 0, self.absorbed or other.absorbed)
        return ScaledComplex(
            self.mantissa * other.mantissa,
            self.exponent + other.exponent,
            self.absorbed or other.absorbed,
        )

    def __truediv__(self, other: "ScaledComplex") -> "ScaledComplex":
        if other.mantissa == 0:
            raise ZeroDivisionError("division by scaled-complex zero")
        if self.mantissa == 0:
            return ScaledComplex(0j, 0, self.absorbed or other.absorbed)
        return ScaledComplex(
            self.mantissa / other.mantissa,
            self.exponent - other.exponent,
            self.absorbed or other.absorbed,
        )

    def log_abs(self) -> float:
        """Natural log of |value|; -inf for zero."""
        if self.mantissa == 0:
            return float("-inf")
        return math.log(abs(self.mantissa)) + self.exponent * LN2

    def to_complex(self) -> complex:
        """Collapse to an ordinary complex.

        Underflow flushes to zero (as double arithmetic would); overflow
        raises, since silently producing inf would corrupt downstream sums.
        """
        if self.mantissa == 0:
            return 0j
        if self.exponent < -1100:
            return 0j
        if self.exponent > 1000:
            raise OverflowError(f"scaled value 2**{self.exponent} does not fit a double")
        return complex(
            math.ldexp(self.mantissa.real, self.exponent),
            math.ldexp(self.mantissa.imag, self.exponent),
        )

    def __repr__(self) -> str:
        flag = ", absorbed" if self.absorbed else ""
        return f"ScaledComplex({self.mantissa!r}, 2**{self.exponent}{flag})"


SCALED_ZERO = ScaledComplex(0j, 0)
