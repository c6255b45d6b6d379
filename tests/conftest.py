import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from newtonpoly.eval_oracle import adaptive_superset
from newtonpoly.numbers import GaussianRational
from newtonpoly.polytope import LatticePolytope, convex_hull
from newtonpoly.slp import SparsePolynomial, parse_sparse

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


def bounding_polytope(f, n: int, directions, rng: random.Random) -> LatticePolytope:
    """Hull of the integer points allowed by the estimated support cuts.

    The result contains the Newton polytope of f, and its lattice points form
    a valid candidate superset for deterministic vertex queries.
    """
    points, _ = adaptive_superset(f, n, directions, rng)
    return convex_hull(points)
