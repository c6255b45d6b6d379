import itertools
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import List, Sequence, Tuple

import pytest

from newtonpoly.eval_oracle import adaptive_superset
from newtonpoly.numbers import GaussianRational
from newtonpoly.polytope import LatticePolytope, Point, convex_hull, support_function
from newtonpoly.reconstruct import DIRECTION_BOUND, OracleIndeterminate, random_direction
from newtonpoly.slp import Slp, SparsePolynomial, evaluate, parse_sparse, to_complex
from newtonpoly.witness_oracle import rate_params_from_sparse

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "newtonpoly" / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def disc_poly() -> SparsePolynomial:
    return parse_sparse((FIXTURES / "disc.poly").read_text())


@pytest.fixture(scope="session")
def quad_poly() -> SparsePolynomial:
    return parse_sparse((FIXTURES / "quad.poly").read_text())


@pytest.fixture(scope="session")
def f1_poly() -> SparsePolynomial:
    return parse_sparse((FIXTURES / "f1.poly").read_text())


@pytest.fixture(scope="session")
def f5_poly() -> SparsePolynomial:
    return parse_sparse((FIXTURES / "f5.poly").read_text())


# line data used throughout the worked quadratic example
QUAD_LINE_A = (2 + 1j, 3 - 2j)
QUAD_LINE_B = (-1 - 1j, 2 - 3j)


def rational_coefficient(rng: random.Random, log_lo=-1.0, log_hi=2.0) -> GaussianRational:
    """Random exact coefficient with magnitude roughly in [e^log_lo, e^log_hi]."""
    mag = math.exp(rng.uniform(log_lo, log_hi))
    ang = rng.uniform(0.0, 2.0 * math.pi)
    re = Fraction(round(mag * math.cos(ang) * 2**16), 2**16)
    im = Fraction(round(mag * math.sin(ang) * 2**16), 2**16)
    if re == 0 and im == 0:
        re = Fraction(1)
    return GaussianRational(re, im)


def random_sparse(
    rng: random.Random,
    n_max: int = 4,
    deg_max: int = 6,
    terms_max: int = 10,
    normalize: bool = True,
) -> SparsePolynomial:
    """Random sparse polynomial with no common monomial factor."""
    while True:
        n = rng.randint(1, n_max)
        k = rng.randint(2, min(terms_max, 3 + 2 * n))
        support = set()
        attempts = 0
        while len(support) < k and attempts < 200:
            attempts += 1
            alpha = [0] * n
            for _ in range(rng.randint(0, deg_max)):
                alpha[rng.randrange(n)] += 1
            support.add(tuple(alpha))
        support = list(support)
        if normalize:
            mins = [min(a[i] for a in support) for i in range(n)]
            support = list({tuple(a[i] - mins[i] for i in range(n)) for a in support})
        if len(support) < 2 or max(sum(a) for a in support) < 1:
            continue
        poly = SparsePolynomial.from_terms(
            n, [(rational_coefficient(rng), a) for a in support]
        )
        if len(poly.terms) >= 2:
            return poly


def birkhoff_poly(k: int, rng: random.Random) -> SparsePolynomial:
    """The permutation expansion of det(c_ij x_ij) for a k x k matrix of
    distinct variables (x_ij is variable i*k + j) with random coefficients:
    one term per permutation, so the Newton polytope is the Birkhoff
    polytope B_k, of dimension (k-1)^2 in k^2 variables."""
    coeffs = [[rational_coefficient(rng) for _ in range(k)] for _ in range(k)]
    terms = []
    for perm in itertools.permutations(range(k)):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        coeff = GaussianRational(Fraction((-1) ** inversions))
        exponent = [0] * (k * k)
        for i, j in enumerate(perm):
            coeff = coeff * coeffs[i][j]
            exponent[i * k + j] = 1
        terms.append((coeff, exponent))
    return SparsePolynomial.from_terms(k * k, terms)


def bounding_polytope(f, n: int, rng: random.Random) -> LatticePolytope:
    """Hull of the integer points allowed by the estimated axis and
    total-degree support cuts.

    The result contains the Newton polytope of f, and its lattice points form
    a valid candidate superset for deterministic vertex queries.
    """
    points, _ = adaptive_superset(f, n, rng)
    return convex_hull(points)


def table_rates(poly, w, consts, C):
    """The rates behind the reference convergence tables: the upper cluster
    radii (Gamma), and the gap to the top-degree terms (the observed growth
    rate) as the divergence exponent instead of the worst-case gap."""
    rates = rate_params_from_sparse(poly, w, consts, C=C)
    return replace(rates, gamma=consts.Gamma, gap_div=rates.slope_div)


def eval_complex(f: Slp, xs: Sequence[complex]) -> complex:
    """Plain complex evaluation of a program (no overflow protection; for small inputs)."""
    return to_complex(evaluate(f, [(x, 0) for x in xs]))


def sparse_eval_complex(p: SparsePolynomial, xs: Sequence[complex]) -> complex:
    """Direct term-by-term evaluation in plain complex arithmetic."""
    if len(xs) != p.n:
        raise ValueError(f"expected {p.n} coordinates, got {len(xs)}")
    total = 0j
    for coeff, alpha in p.terms:
        mono = coeff.to_complex() if isinstance(coeff, GaussianRational) else complex(coeff)
        for x, a in zip(xs, alpha):
            if a:
                mono *= x**a
        total += mono
    return total


def total_degree(p: SparsePolynomial) -> int:
    return max((sum(a) for _, a in p.terms), default=0)


@dataclass
class VerificationReport:
    checked: int
    indeterminate: int
    discrepancies: List[Tuple[Tuple[int, ...], Point]]

    @property
    def ok(self) -> bool:
        return not self.discrepancies


def verify(P: LatticePolytope, oracle, k: int, rng: random.Random) -> VerificationReport:
    """Spot-check a reconstructed polytope with k extra random directions."""
    vertex_set = set(P.vertices)
    discrepancies = []
    indeterminate = 0
    for _ in range(k):
        w = random_direction(P.n, DIRECTION_BOUND, rng, candidates=P.vertices)
        try:
            beta = oracle.query(tuple(w))
        except OracleIndeterminate:
            indeterminate += 1
            continue
        best = support_function(P, w).value
        if beta not in vertex_set or sum(wi * b for wi, b in zip(w, beta)) != best:
            discrepancies.append((w, beta))
    return VerificationReport(k, indeterminate, discrepancies)
