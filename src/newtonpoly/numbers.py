"""Exact Gaussian-rational coefficients.

:class:`GaussianRational` is a complex number with exact rational real and
imaginary parts.  Addition and multiplication never round, so coefficient
bookkeeping (parsing, term merging, program constants) is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


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
