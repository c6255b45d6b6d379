"""The evaluation kernel on (complex mantissa, int exponent) pairs, checked
against exact references."""

import math
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newtonpoly.numbers import GaussianRational
from newtonpoly.slp import Slp, _pair, evaluate, evaluate_dir, log_abs, parse_slp, scaled, to_complex

ADD = parse_slp("in 1\nin 2\nadd r1 r2")
MUL = parse_slp("in 1\nin 2\nmul r1 r2")
SQUARE = parse_slp("in 1\nmul r1 r1")
EPS = 2.0**-53


class TestPairs:
    def test_exponent_arithmetic_is_exact(self):
        a, b, d = (1.5, 10**9), (1.25, -(10**9) + 7), (1.1, 12345)
        c = evaluate(MUL, [a, b])
        assert c == (1.5 * 1.25, 7)
        # multiplication exponents associate exactly
        assert evaluate(MUL, [c, d])[1] == evaluate(MUL, [a, evaluate(MUL, [b, d])])[1]

    def test_huge_log_magnitudes(self):
        v = scaled(1.0, 1.4e9)
        assert log_abs(v) == pytest.approx(1.4e9 * math.log(2.0), rel=1e-12)
        w = evaluate(SQUARE, [v])
        assert log_abs(w) == pytest.approx(2.8e9 * math.log(2.0), rel=1e-12)

    def test_to_complex_underflow_flushes_to_zero(self):
        assert to_complex((1.3, -4148)) == 0j
        with pytest.raises(OverflowError):
            to_complex((1.3, 4148))
        # the limits apply to the value, not to the exponent of a lazy mantissa
        assert to_complex((2.0**-200, 1100)) == 2.0**900

    def test_derivative_of_products_far_apart(self):
        # a b' = 2**-580 * 2**1100 and b a' = 2**580: the exponents of the two
        # unnormalized products differ by 1100, yet b a' is the larger term
        x, v = [(2.0**-290, 0), (2.0**290, 0)], [(2.0**290, 0), (2.0**-290, 1100)]
        _, deriv = evaluate_dir(MUL, x, v)
        assert log_abs(deriv) == pytest.approx(math.log(2.0**520 + 2.0**580), rel=1e-15)

    def test_zero_handling(self):
        zero, one = (0j, 0), (1.0, 0)
        assert to_complex(evaluate(ADD, [zero, one])) == 1.0
        assert evaluate(MUL, [one, zero])[0] == 0
        assert log_abs(zero) == -math.inf
        # a zero neither absorbs a tiny addend nor is absorbed into it
        tiny = (1.0, -5000)
        assert evaluate(ADD, [zero, tiny]) == tiny
        assert evaluate(ADD, [tiny, zero]) == tiny
        cancel = parse_slp("in 1\nconst -1\nmul r1 r2\nadd r1 r3")
        assert log_abs(evaluate(cancel, [(0.7 - 0.2j, 10**6)])) == -math.inf


# ---------------------------------------------------------------------------
# property: the kernel against mpmath at stretches up to 2**(+-10**6)

small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=8)
constants = st.builds(GaussianRational, small_rationals, small_rationals)
# mantissas anywhere in the lazy window [2**-300, 2**300]; exponents up to
# 10**6, and often close enough that sums must align rather than drop an operand
pairs = st.tuples(
    st.builds(
        lambda z, k: z * 2.0**k,
        st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False),
        st.integers(-296, 296),
    ),
    st.one_of(st.integers(-(10**6), 10**6), st.integers(-1200, 1200)),
)


@st.composite
def programs(draw):
    """Random programs over 1-3 inputs, some with exactly cancelling sums
    (r + (-1) r) whose zero registers later operations build on."""
    n = draw(st.integers(1, 3))
    instructions = [("in", i) for i in range(n)]
    instructions += [("const", c) for c in draw(st.lists(constants, min_size=1, max_size=3))]
    for _ in range(draw(st.integers(1, 12))):
        size = len(instructions)
        kind = draw(st.sampled_from(["add", "mul", "cancel"]))
        j = draw(st.integers(0, size - 1))
        if kind == "cancel":
            instructions += [("const", GaussianRational(Fraction(-1))), ("mul", j, size), ("add", j, size + 1)]
        else:
            instructions.append((kind, j, draw(st.integers(0, size - 1))))
    return Slp(n, tuple(instructions), len(instructions) - 1)


def _mp(z):
    m, e = z
    return mpmath.mpc(mpmath.ldexp(m.real, e), mpmath.ldexp(m.imag, e))


def _reference(f, xs, vs):
    """Value and derivative at 300 bits, and the same program run on magnitudes
    (sums of absolute values), which bounds the kernel's rounding error."""

    def exact(q: Fraction):
        return mpmath.mpf(q.numerator) / q.denominator

    regs = []
    for ins in f.instructions:
        if ins[0] == "in":
            x, v = _mp(xs[ins[1]]), _mp(vs[ins[1]])
            regs.append((x, v, abs(x), abs(v)))
        elif ins[0] == "const":
            c = mpmath.mpc(exact(ins[1].re), exact(ins[1].im))
            regs.append((c, mpmath.mpc(0), abs(c), mpmath.mpf(0)))
        else:
            (a, da, ma, dma), (b, db, mb, dmb) = regs[ins[1]], regs[ins[2]]
            if ins[0] == "add":
                regs.append((a + b, da + db, ma + mb, dma + dmb))
            else:
                regs.append((a * b, a * db + da * b, ma * mb, ma * dmb + dma * mb))
    return regs[f.output]


def _in_window(z) -> bool:
    m = z[0]
    return m == 0 or 2.0**-300 <= abs(m) <= 2.0**300


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_matches_mpmath(data):
    f = data.draw(programs())
    xs = data.draw(st.lists(pairs, min_size=f.n, max_size=f.n))
    vs = data.draw(st.lists(pairs, min_size=f.n, max_size=f.n))
    value = evaluate(f, xs)
    dual_value, deriv = evaluate_dir(f, xs, vs)
    assert dual_value == value
    assert _in_window(value) and _in_window(deriv)
    with mpmath.workprec(300):
        exact, exact_d, mag, dmag = _reference(f, xs, vs)
        # an operation (a dual multiply included) rounds by a few eps relative
        # to its magnitude bound, and the errors add along the program
        slack = 8 * len(f.instructions) * EPS
        assert abs(_mp(value) - exact) <= slack * mag
        assert abs(_mp(deriv) - exact_d) <= slack * dmag
        if abs(exact) > 2 * slack * mag:  # log|f| is well conditioned
            want = float(mpmath.log(abs(exact)))
            tol = 2 * float(slack * mag / abs(exact)) + 1e-15 * max(1.0, abs(want))
            assert log_abs(value) == pytest.approx(want, abs=tol)


# ---------------------------------------------------------------------------
# property: the value-numbered compile rounds exactly as the program does


def _compile_each_instruction(f):
    """The reference compile: one operation per add/mul instruction, dead
    ones included, as an object ``evaluate`` and ``evaluate_dir`` accept."""
    n_const = sum(ins[0] == "const" for ins in f.instructions)
    consts, ops, slot = [], [], []
    for ins in f.instructions:
        if ins[0] == "in":
            slot.append(ins[1])
        elif ins[0] == "const":
            slot.append(f.n + len(consts))
            consts.append(_pair(ins[1].to_complex()))
        else:
            slot.append(f.n + n_const + len(ops))
            ops.append((ins[0] == "mul", slot[ins[1]], slot[ins[2]]))
    return SimpleNamespace(n=f.n, code=(tuple(consts), tuple(ops), slot[f.output]))


def _with_repeats(f):
    """The same polynomial with every add/mul computed twice: later
    instructions read the first copy as left operand and the second as right
    one, so both stay live.  An operand-swapped copy and a tail that nothing
    reads are dead code."""
    instructions, first, second = [], [], []
    for ins in f.instructions:
        if ins[0] in ("add", "mul"):
            j, k = first[ins[1]], second[ins[2]]
            instructions += [(ins[0], j, k), (ins[0], k, j), (ins[0], j, k)]
            first.append(len(instructions) - 3)
            second.append(len(instructions) - 1)
        else:
            instructions.append(ins)
            first.append(len(instructions) - 1)
            second.append(len(instructions) - 1)
    out, size = second[f.output], len(instructions)
    instructions += [("const", GaussianRational(Fraction(2))), ("mul", out, size), ("add", size + 1, out)]
    return Slp(f.n, tuple(instructions), out)


def _bits(*pairs):
    # repr tells -0.0 from 0.0
    return repr([(m.real, m.imag, e) for m, e in pairs])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_value_numbering_is_bit_identical(data):
    f = data.draw(programs())
    variant = _with_repeats(f)
    # the repeats fold onto the first copy and the dead code is dropped, so
    # the variant runs the same operations as the program, no more
    assert variant.code == f.code
    reference = _compile_each_instruction(f)
    xs = data.draw(st.lists(pairs, min_size=f.n, max_size=f.n))
    vs = data.draw(st.lists(pairs, min_size=f.n, max_size=f.n))
    want_value = _bits(evaluate(reference, xs))
    want_dir = _bits(*evaluate_dir(reference, xs, vs))
    for program in (f, variant):
        assert _bits(evaluate(program, xs)) == want_value
        assert _bits(*evaluate_dir(program, xs, vs)) == want_dir


class TestCompile:
    def test_swapped_operands_are_not_shared(self):
        # with equal exponents a + b and b + a can differ in the sign of a
        # zero part, so the compile keeps both orders
        a, b = (complex(-0.0, 5.0), 0), (complex(-0.0, -3.0), 0)
        assert _bits(evaluate(ADD, [a, b])) != _bits(evaluate(ADD, [b, a]))
        both = parse_slp("in 1\nin 2\nadd r1 r2\nadd r2 r1\nmul r3 r4")
        assert len(both.code[1]) == 3

    @pytest.mark.parametrize("const", [complex(1.0, -0.0), 1.0, 1, Fraction(1)])
    def test_constants_must_be_exact(self, const):
        # only a GaussianRational constant is accepted, so no program carries a
        # rounded constant or a signed zero into the kernel
        with pytest.raises(ValueError, match="constant"):
            Slp(1, (("in", 0), ("const", const), ("mul", 0, 1)), 2)
        program = Slp(1, (("in", 0), ("const", GaussianRational(Fraction(1))), ("mul", 0, 1)), 2)
        assert program.code[0] == (_pair(1.0),)

    def test_only_live_instructions_compile(self):
        program = parse_slp("in 1\nin 2\nconst 3\nmul r1 r3\nadd r1 r2\nmul r4 r4\nout r6")
        consts, ops, out = program.code
        assert len(consts) == 1 and ops == ((True, 0, 2), (True, 3, 3)) and out == 4
