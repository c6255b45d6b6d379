"""Polynomial representations: sparse monomial form and straight-line programs.

A sparse polynomial is a list of (coefficient, exponent vector) terms; a
straight-line program (SLP) is a sequence of input / constant / add / mul
instructions that evaluates a polynomial without ever expanding it into
monomials.  Both evaluate over :class:`~newtonpoly.numbers.ScaledComplex`,
which is what makes the huge stretch factors used by the vertex oracles safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple, Union

from .numbers import SCALED_ZERO, GaussianRational, ScaledComplex, parse_coefficient

Exponent = Tuple[int, ...]
Coefficient = Union[GaussianRational, complex]


class SparseParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class SlpParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _coeff_to_complex(c: Coefficient) -> complex:
    return c.to_complex() if isinstance(c, GaussianRational) else complex(c)


def _coeff_is_zero(c: Coefficient) -> bool:
    return c.is_zero() if isinstance(c, GaussianRational) else c == 0


@dataclass(frozen=True)
class SparsePolynomial:
    """Polynomial as a sum of coefficient * monomial terms.

    Terms are stored deduplicated (exponents pairwise distinct), zero-free,
    and sorted by exponent, so equal polynomials compare equal.
    """

    n: int
    terms: Tuple[Tuple[Coefficient, Exponent], ...]

    @classmethod
    def from_terms(cls, n: int, terms) -> "SparsePolynomial":
        merged: dict = {}
        for coeff, alpha in terms:
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != n:
                raise ValueError(f"exponent {alpha} does not have {n} entries")
            if any(a < 0 for a in alpha):
                raise ValueError(f"negative exponent in {alpha}")
            if isinstance(coeff, (int, Fraction)):
                coeff = GaussianRational.from_value(coeff)
            if alpha in merged:
                old = merged[alpha]
                if isinstance(old, GaussianRational) and isinstance(coeff, GaussianRational):
                    merged[alpha] = old + coeff
                else:
                    merged[alpha] = _coeff_to_complex(old) + _coeff_to_complex(coeff)
            else:
                merged[alpha] = coeff
        kept = tuple(
            (c, a) for a, c in sorted(merged.items(), key=lambda kv: kv[0]) if not _coeff_is_zero(c)
        )
        return cls(n, kept)

    def support(self) -> Tuple[Exponent, ...]:
        return tuple(alpha for _, alpha in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(a) for _, a in self.terms), default=0)

    def eval_complex(self, xs: Sequence[complex]) -> complex:
        """Direct term-by-term evaluation in plain complex arithmetic."""
        if len(xs) != self.n:
            raise ValueError(f"expected {self.n} coordinates, got {len(xs)}")
        total = 0j
        for coeff, alpha in self.terms:
            mono = _coeff_to_complex(coeff)
            for x, a in zip(xs, alpha):
                if a:
                    mono *= x**a
            total += mono
        return total


def parse_sparse(text: str) -> SparsePolynomial:
    """Parse the one-term-per-line format ``COEFF : e1 e2 ... en``.

    ``#`` starts a comment, blank lines are skipped, duplicate exponents are
    merged, and exactly-cancelling terms are dropped.
    """
    terms = []
    n = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise SparseParseError(line_no, "expected 'COEFF : e1 e2 ... en'")
        coeff_text, exp_text = line.split(":", 1)
        try:
            coeff = parse_coefficient(coeff_text)
        except ValueError as exc:
            raise SparseParseError(line_no, str(exc)) from exc
        fields = exp_text.split()
        if not fields:
            raise SparseParseError(line_no, "missing exponent vector")
        try:
            alpha = tuple(int(f) for f in fields)
        except ValueError as exc:
            raise SparseParseError(line_no, f"bad exponent in {fields!r}") from exc
        if any(a < 0 for a in alpha):
            raise SparseParseError(line_no, f"negative exponent in {alpha}")
        if n is None:
            n = len(alpha)
        elif len(alpha) != n:
            raise SparseParseError(line_no, f"expected {n} exponents, got {len(alpha)}")
        terms.append((coeff, alpha))
    if n is None:
        raise SparseParseError(0, "no terms found")
    return SparsePolynomial.from_terms(n, terms)


# SLP instructions are tagged tuples:
#   ("in", i)      -- 0-based input slot
#   ("const", c)   -- GaussianRational constant
#   ("add", j, k)  -- registers j, k strictly earlier
#   ("mul", j, k)
Instruction = tuple


@dataclass(frozen=True)
class Slp:
    """Straight-line program; operands always reference earlier registers."""

    n: int
    instructions: Tuple[Instruction, ...]
    output: int

    def __post_init__(self):
        for idx, ins in enumerate(self.instructions):
            if ins[0] in ("add", "mul"):
                if not (0 <= ins[1] < idx and 0 <= ins[2] < idx):
                    raise ValueError(f"instruction {idx} references a later register")
            elif ins[0] == "in":
                if not 0 <= ins[1] < self.n:
                    raise ValueError(f"instruction {idx} reads input {ins[1]} of {self.n}")
            elif ins[0] != "const":
                raise ValueError(f"unknown opcode {ins[0]!r}")
        if not 0 <= self.output < len(self.instructions):
            raise ValueError("output register out of range")

    def __len__(self) -> int:
        return len(self.instructions)


def parse_slp(text: str) -> Slp:
    """Parse the line-per-register format (``in J``, ``const C``, ``add rJ rK``, ``mul rJ rK``).

    Registers are named r1, r2, ... in definition order; an optional final
    ``out rJ`` selects the output (default: the last register).
    """

    def register(token: str, line_no: int, limit: int) -> int:
        if not token.startswith("r"):
            raise SlpParseError(line_no, f"expected register name, got {token!r}")
        try:
            idx = int(token[1:]) - 1
        except ValueError as exc:
            raise SlpParseError(line_no, f"bad register {token!r}") from exc
        if not 0 <= idx < limit:
            raise SlpParseError(line_no, f"register {token} is not defined yet")
        return idx

    instructions = []
    output = None
    max_input = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        op = fields[0].lower()
        if op == "out":
            if len(fields) != 2:
                raise SlpParseError(line_no, "usage: out rJ")
            output = register(fields[1], line_no, len(instructions))
            continue
        if output is not None:
            raise SlpParseError(line_no, "instructions after 'out'")
        if op == "in":
            if len(fields) != 2:
                raise SlpParseError(line_no, "usage: in J")
            try:
                j = int(fields[1])
            except ValueError as exc:
                raise SlpParseError(line_no, f"bad input index {fields[1]!r}") from exc
            if j < 1:
                raise SlpParseError(line_no, "input indices are 1-based")
            max_input = max(max_input, j)
            instructions.append(("in", j - 1))
        elif op == "const":
            if len(fields) != 2:
                raise SlpParseError(line_no, "usage: const COEFF")
            try:
                instructions.append(("const", parse_coefficient(fields[1])))
            except ValueError as exc:
                raise SlpParseError(line_no, str(exc)) from exc
        elif op in ("add", "mul"):
            if len(fields) != 3:
                raise SlpParseError(line_no, f"usage: {op} rJ rK")
            j = register(fields[1], line_no, len(instructions))
            k = register(fields[2], line_no, len(instructions))
            instructions.append((op, j, k))
        else:
            raise SlpParseError(line_no, f"unknown opcode {fields[0]!r}")
    if not instructions:
        raise SlpParseError(0, "empty program")
    if output is None:
        output = len(instructions) - 1
    return Slp(max_input, tuple(instructions), output)


def sparse_to_slp(p: SparsePolynomial) -> Slp:
    """Compile a sparse polynomial into the obvious sum-of-products program.

    Variable powers use repeated squaring; the instruction count is not
    minimized, which keeps the translation auditable.
    """
    instructions: list = []

    def emit(ins) -> int:
        instructions.append(ins)
        return len(instructions) - 1

    if p.is_zero():
        out = emit(("const", GaussianRational(Fraction(0))))
        return Slp(p.n, tuple(instructions), out)

    used = [False] * p.n
    for _, alpha in p.terms:
        for i, a in enumerate(alpha):
            if a:
                used[i] = True
    var_reg = {}
    for i in range(p.n):
        if used[i]:
            var_reg[i] = emit(("in", i))

    def power(reg: int, k: int) -> int:
        # square-and-multiply chain; k >= 1
        bits = bin(k)[2:]
        acc = reg
        for bit in bits[1:]:
            acc = emit(("mul", acc, acc))
            if bit == "1":
                acc = emit(("mul", acc, reg))
        return acc

    total = None
    for coeff, alpha in p.terms:
        factors = [power(var_reg[i], a) for i, a in enumerate(alpha) if a]
        if isinstance(coeff, GaussianRational):
            is_one = coeff.re == 1 and coeff.im == 0
        else:
            is_one = coeff == 1
        if not is_one or not factors:
            if not isinstance(coeff, GaussianRational):
                raise ValueError("only exact coefficients can be compiled to a program")
            factors.append(emit(("const", coeff)))
        term = factors[0]
        for reg in factors[1:]:
            term = emit(("mul", term, reg))
        total = term if total is None else emit(("add", total, term))
    return Slp(p.n, tuple(instructions), total)


def evaluate(f: Slp, xs: Sequence[ScaledComplex]) -> ScaledComplex:
    """Run the program on scaled-complex inputs."""
    if len(xs) != f.n:
        raise ValueError(f"expected {f.n} inputs, got {len(xs)}")
    regs: list = [None] * len(f.instructions)
    for idx, ins in enumerate(f.instructions):
        op = ins[0]
        if op == "in":
            regs[idx] = xs[ins[1]]
        elif op == "const":
            regs[idx] = ScaledComplex.from_complex(ins[1].to_complex())
        elif op == "add":
            regs[idx] = regs[ins[1]] + regs[ins[2]]
        else:
            regs[idx] = regs[ins[1]] * regs[ins[2]]
    return regs[f.output]


def evaluate_dir(
    f: Slp, xs: Sequence[ScaledComplex], vs: Sequence[ScaledComplex]
) -> Tuple[ScaledComplex, ScaledComplex]:
    """Value and directional derivative along ``vs`` in one forward pass.

    Dual numbers (value, derivative) propagate through the program, so no
    derivative program is ever materialized.
    """
    if len(xs) != f.n or len(vs) != f.n:
        raise ValueError(f"expected {f.n} inputs and directions")
    regs: list = [None] * len(f.instructions)
    for idx, ins in enumerate(f.instructions):
        op = ins[0]
        if op == "in":
            regs[idx] = (xs[ins[1]], vs[ins[1]])
        elif op == "const":
            regs[idx] = (ScaledComplex.from_complex(ins[1].to_complex()), SCALED_ZERO)
        elif op == "add":
            a, da = regs[ins[1]]
            b, db = regs[ins[2]]
            regs[idx] = (a + b, da + db)
        else:
            a, da = regs[ins[1]]
            b, db = regs[ins[2]]
            regs[idx] = (a * b, a * db + b * da)
    return regs[f.output]


def eval_complex(f: Slp, xs: Sequence[complex]) -> complex:
    """Plain complex evaluation (no overflow protection; for small inputs)."""
    return evaluate(f, [ScaledComplex.from_complex(x) for x in xs]).to_complex()


def scaled_point(t: float, w: Sequence[float], x: Sequence[complex]) -> list:
    """The coordinatewise stretch (t**w1 * x1, ..., t**wn * xn) as scaled values."""
    if t <= 0:
        raise ValueError("stretch parameter t must be positive")
    if len(w) != len(x):
        raise ValueError("weight and point dimensions differ")
    log2t = math.log2(t)
    return [ScaledComplex.from_log2(complex(xi), float(wi) * log2t) for wi, xi in zip(w, x)]


def restrict_to_face(p: SparsePolynomial, w: Sequence[float]):
    """Terms of ``p`` whose exponents maximize ``w . alpha``; returns (poly, max).

    With rational ``w`` the comparison is exact; float weights use a relative
    tie tolerance of 1e-12.
    """
    if p.is_zero():
        raise ValueError("the zero polynomial has no Newton polytope")
    if len(w) != p.n:
        raise ValueError(f"expected a weight vector of length {p.n}")
    exact = all(isinstance(wi, (int, Fraction)) for wi in w)
    if exact:
        w_vec = [Fraction(wi) for wi in w]
        dots = [sum(wi * a for wi, a in zip(w_vec, alpha)) for _, alpha in p.terms]
        h = max(dots)
        kept = [term for term, d in zip(p.terms, dots) if d == h]
    else:
        w_vec = [float(wi) for wi in w]
        dots = [sum(wi * a for wi, a in zip(w_vec, alpha)) for _, alpha in p.terms]
        h = max(dots)
        tol = 1e-12 * max(1.0, abs(h))
        kept = [term for term, d in zip(p.terms, dots) if d >= h - tol]
    return SparsePolynomial.from_terms(p.n, kept), h
