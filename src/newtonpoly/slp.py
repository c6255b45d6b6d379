"""Polynomial representations and the one evaluation kernel.

A sparse polynomial is a list of (coefficient, exponent vector) terms; a
straight-line program (SLP) is a sequence of input / constant / add / mul
instructions that evaluates a polynomial without ever expanding it into
monomials.  Coefficients and constants are exact: both representations hold
only :class:`~newtonpoly.numbers.GaussianRational` values and refuse floats
and complex numbers, so only the kernel rounds.  Every evaluation of f in the
package runs one interpreter: each program is compiled once into a flat list
of add/mul operations over a register file whose constants are already
complex, computing only what the output reads and each repeated operation
once, and :func:`evaluate` (value) or :func:`evaluate_dir` (value and
directional derivative) runs it on (complex mantissa, int exponent) pairs,
which is what makes the huge stretch factors used by the vertex oracles safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence, Tuple

from .numbers import GaussianRational, parse_coefficient

Exponent = Tuple[int, ...]


class SparseParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class SlpParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class OracleIndeterminate(RuntimeError):
    """A vertex or support query could not be certified.  Every failure of
    either oracle that means "not certifiable" derives from this class."""


@dataclass(frozen=True)
class SparsePolynomial:
    """Polynomial as a sum of coefficient * monomial terms.

    Terms are stored deduplicated (exponents pairwise distinct), zero-free,
    and sorted by exponent, so equal polynomials compare equal.
    ``from_terms`` takes int, Fraction or GaussianRational coefficients and
    raises TypeError on a float or a complex.
    """

    n: int
    terms: Tuple[Tuple[GaussianRational, Exponent], ...]

    @classmethod
    def from_terms(cls, n: int, terms) -> "SparsePolynomial":
        merged: dict = {}
        for coeff, alpha in terms:
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != n:
                raise ValueError(f"exponent {alpha} does not have {n} entries")
            if any(a < 0 for a in alpha):
                raise ValueError(f"negative exponent in {alpha}")
            coeff = GaussianRational.from_value(coeff)
            merged[alpha] = merged[alpha] + coeff if alpha in merged else coeff
        return cls(n, tuple((c, a) for a, c in sorted(merged.items()) if not c.is_zero()))

    def support(self) -> Tuple[Exponent, ...]:
        return tuple(alpha for _, alpha in self.terms)

    def is_zero(self) -> bool:
        return not self.terms


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
            elif ins[0] == "const":
                if not isinstance(ins[1], GaussianRational):
                    raise ValueError(f"constant {idx} is a {type(ins[1]).__name__}, not a GaussianRational")
            else:
                raise ValueError(f"unknown opcode {ins[0]!r}")
        if not 0 <= self.output < len(self.instructions):
            raise ValueError("output register out of range")

    def __len__(self) -> int:
        return len(self.instructions)

    @cached_property
    def code(self):
        """The kernel's compiled form: (constants, operations, output slot).

        Slots 0..n-1 hold the inputs and the constants follow as pairs; each
        operation (is_mul, j, k) appends one slot.  Only what the output
        depends on is compiled, and an add or mul whose (is_mul, j, k) was
        already emitted reuses that slot (value numbering), so every value is
        computed once and rounded exactly as the program's own instruction
        would round it.  Operands are not reordered: with equal exponents
        ``_add`` can give ``a + b`` and ``b + a`` zero parts of opposite sign.
        """
        instructions = self.instructions
        live = [False] * len(instructions)
        live[self.output] = True
        for idx in reversed(range(len(instructions))):
            ins = instructions[idx]
            if live[idx] and ins[0] in ("add", "mul"):
                live[ins[1]] = live[ins[2]] = True
        n_const = sum(used and ins[0] == "const" for used, ins in zip(live, instructions))
        consts: list = []
        ops: dict = {}  # (is_mul, j, k) -> its slot, in emission order
        slot: dict = {}
        for idx, ins in enumerate(instructions):
            if not live[idx]:
                continue
            if ins[0] == "in":
                slot[idx] = ins[1]
            elif ins[0] == "const":
                slot[idx] = self.n + len(consts)
                consts.append(_pair(ins[1].to_complex()))
            else:
                op = (ins[0] == "mul", slot[ins[1]], slot[ins[2]])
                slot[idx] = ops.setdefault(op, self.n + n_const + len(ops))
        return tuple(consts), tuple(ops), slot[self.output]

    @cached_property
    def degree(self) -> int:
        """Formal degree of the program (the total degree for ``sparse_to_slp`` output)."""
        degs: list = []
        for ins in self.instructions:
            if ins[0] == "in":
                degs.append(1)
            elif ins[0] == "const":
                degs.append(0)
            elif ins[0] == "add":
                degs.append(max(degs[ins[1]], degs[ins[2]]))
            else:
                degs.append(degs[ins[1]] + degs[ins[2]])
        return degs[self.output]


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

    Variable powers use repeated squaring, and every term builds its powers
    and its monomial afresh, which keeps the translation auditable.
    ``Slp.code`` computes each repeated power and monomial prefix once (f5:
    813 instructions, 367 compiled operations).
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
        if coeff.re != 1 or coeff.im or not factors:
            factors.append(emit(("const", coeff)))
        term = factors[0]
        for reg in factors[1:]:
            term = emit(("mul", term, reg))
        total = term if total is None else emit(("add", total, term))
    return Slp(p.n, tuple(instructions), total)


# ---------------------------------------------------------------------------
# the evaluation kernel
#
# Values are pairs (m, e) standing for m * 2**e: a complex double mantissa and
# a Python int exponent, so log-magnitudes in the hundreds of millions stay
# exact in the exponent while m keeps double precision.  Renormalization is
# lazy: a result is rescaled only when |m| leaves [2**-300, 2**300].  Inside
# that window the product of two mantissas, and the sum of two such products
# in a derivative, stays within [2**-601, 2**601], far from both ends of the
# double range, so no operation needs a check before it runs; and a value can
# grow or shrink by 2**300 before it is rescaled at all.

LN2 = math.log(2.0)
_ZERO = (0j, 0)
_LO = 2.0**-300
_HI = 2.0**300
# _SHIFT[d] == 2**-d, every entry exact.  Past the table an addend (mantissa
# below 2**301) is under 2**-474 of the other operand (mantissa at least
# 2**-300), so _add drops it.  The two products in a derivative span
# [2**-601, 2**601] and are renormalized before they are dropped that way.
_SHIFT = tuple(2.0**-d for d in range(1075))
_SPAN = len(_SHIFT)


def _renorm(m: complex, e: int):
    """The same value with |m| in [1/2, 1); zero becomes (0j, 0)."""
    if not m:
        return _ZERO
    shift = math.frexp(abs(m))[1]
    return complex(math.ldexp(m.real, -shift), math.ldexp(m.imag, -shift)), e + shift


def _pair(m, e: int = 0):
    m = complex(m)
    return (m, e) if _LO <= abs(m) <= _HI else _renorm(m, e)


def _add(am: complex, ae: int, bm: complex, be: int):
    """The sum of two pairs, aligned to the larger exponent."""
    if not am:
        return bm, be
    if not bm:
        return am, ae
    d = ae - be
    if d >= 0:
        return (am + bm * _SHIFT[d] if d < _SPAN else am), ae
    return (bm + am * _SHIFT[-d] if -d < _SPAN else bm), be


def log_abs(z) -> float:
    """Natural log of |m * 2**e|; -inf for zero.

    Read off the mantissa rescaled to [1, 2), so the result does not depend on
    where the lazy exponent happens to sit.
    """
    m, e = z
    if not m:
        return -math.inf
    frac, shift = math.frexp(abs(m))
    return math.log(2.0 * frac) + (e + shift - 1) * LN2


def to_complex(z) -> complex:
    """Collapse a pair to an ordinary complex.

    Underflow flushes to zero (as double arithmetic would); overflow raises,
    since silently producing inf would corrupt downstream sums.
    """
    m, e = z
    if not m:
        return 0j
    exponent = e + math.frexp(abs(m))[1] - 1  # of the mantissa rescaled to [1, 2)
    if exponent < -1100:
        return 0j
    if exponent > 1000:
        raise OverflowError(f"scaled value 2**{exponent} does not fit a double")
    return complex(math.ldexp(m.real, e), math.ldexp(m.imag, e))


def evaluate(f: Slp, xs: Sequence[Tuple[complex, int]]) -> Tuple[complex, int]:
    """The program's value at pair inputs, as a pair."""
    if len(xs) != f.n:
        raise ValueError(f"expected {f.n} inputs, got {len(xs)}")
    consts, ops, out = f.code
    regs = [_pair(m, e) for m, e in xs]
    regs += consts
    push = regs.append
    for mul, j, k in ops:
        am, ae = regs[j]
        bm, be = regs[k]
        if mul:
            m = am * bm
            e = ae + be
        else:
            m, e = _add(am, ae, bm, be)
        push((m, e) if _LO <= abs(m) <= _HI else _renorm(m, e))
    return regs[out]


def evaluate_dir(f: Slp, xs: Sequence[Tuple[complex, int]], vs: Sequence[Tuple[complex, int]]):
    """Value and directional derivative along ``vs``, as two pairs, in one pass.

    Dual numbers (value, derivative) propagate through the program, so no
    derivative program is ever materialized.
    """
    if len(xs) != f.n or len(vs) != f.n:
        raise ValueError(f"expected {f.n} inputs and directions")
    consts, ops, out = f.code
    regs = [_pair(*x) + _pair(*v) for x, v in zip(xs, vs)]
    regs += [c + _ZERO for c in consts]
    push = regs.append
    for mul, j, k in ops:
        am, ae, adm, ade = regs[j]
        bm, be, bdm, bde = regs[k]
        if mul:
            m = am * bm
            e = ae + be
            # (ab)' = a b' + b a'
            p = am * bdm
            q = bm * adm
            if not q:
                dm = p
                de = ae + bde
            elif not p:
                dm = q
                de = be + ade
            else:
                pe = ae + bde
                qe = be + ade
                d = pe - qe
                if 0 <= d < _SPAN:
                    dm = p + q * _SHIFT[d]
                    de = pe
                elif -_SPAN < d < 0:
                    dm = q + p * _SHIFT[-d]
                    de = qe
                else:  # unnormalized products this far apart: align them from [1/2, 1)
                    dm, de = _add(*_renorm(p, pe), *_renorm(q, qe))
        else:
            m, e = _add(am, ae, bm, be)
            dm, de = _add(adm, ade, bdm, bde)
        if not _LO <= abs(m) <= _HI:
            m, e = _renorm(m, e)
        if not _LO <= abs(dm) <= _HI:
            dm, de = _renorm(dm, de)
        push((m, e, dm, de))
    m, e, dm, de = regs[out]
    return (m, e), (dm, de)


def scaled_point(t: float, w: Sequence[float], x: Sequence[complex]) -> list:
    """The coordinatewise stretch (t**w1 * x1, ..., t**wn * xn) as pairs."""
    if t <= 0:
        raise ValueError("stretch parameter t must be positive")
    if len(w) != len(x):
        raise ValueError("weight and point dimensions differ")
    log2t = math.log2(t)
    return [scaled(complex(xi), float(wi) * log2t) for wi, xi in zip(w, x)]


def scaled(base: complex, log2_scale: float) -> Tuple[complex, int]:
    """The pair for base * 2**log2_scale: whole part in the exponent, the rest in the mantissa."""
    whole = math.floor(log2_scale)
    return base * 2.0 ** (log2_scale - whole), whole


def restrict_to_face(p: SparsePolynomial, w: Sequence[Fraction]):
    """Terms of ``p`` whose exponents maximize ``w . alpha``; returns (poly, max).

    The weights are exact (int or Fraction), so the comparison is exact.
    """
    if p.is_zero():
        raise ValueError("the zero polynomial has no Newton polytope")
    if len(w) != p.n:
        raise ValueError(f"expected a weight vector of length {p.n}")
    if not all(isinstance(wi, (int, Fraction)) for wi in w):
        raise TypeError("face restrictions need exact rational weight entries")
    dots = [sum(Fraction(wi) * a for wi, a in zip(w, alpha)) for _, alpha in p.terms]
    h = max(dots)
    return SparsePolynomial.from_terms(p.n, [term for term, d in zip(p.terms, dots) if d == h]), h
