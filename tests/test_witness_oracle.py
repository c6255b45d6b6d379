import cmath
import json
import math
import random
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from newtonpoly import witness_oracle as wo
from newtonpoly.cli import main
from newtonpoly.eval_oracle import EvalBounds, vertex_query
from newtonpoly.numbers import GaussianRational
from newtonpoly.polytope import convex_hull
from newtonpoly.reconstruct import ReconstructConfig, WitnessVertexOracle, reconstruct
from newtonpoly.slp import SparsePolynomial, parse_sparse, sparse_to_slp, to_complex
from newtonpoly.witness_oracle import (
    AmbiguousClusterError,
    DegreeMismatchError,
    GenericityFailure,
    IndeterminateError,
    RateViolationError,
    RateParams,
    SlpLineBackend,
    SparseLineBackend,
    TrackingFailureError,
    WitnessConfig,
    WitnessLine,
    classify_paths,
    convergence_bound,
    divergence_bound,
    fitted_rate_params,
    initial_roots,
    line_constants,
    make_line,
    rate_params_from_sparse,
    track_paths,
    verify_rates,
    witness_vertex_query,
)
from conftest import (
    FIXTURES,
    QUAD_LINE_A,
    QUAD_LINE_B,
    random_sparse,
    rational_coefficient,
    sparse_eval_complex,
    table_rates,
)

DECADES = (1e2, 1e4, 1e6, 1e8)


@pytest.fixture(scope="module")
def quad_setup(quad_poly):
    backend = SparseLineBackend(quad_poly)
    line = make_line(2, random.Random(0), backend, a=QUAD_LINE_A, b=QUAD_LINE_B)
    consts = line_constants(line, C=5.0)
    return quad_poly, backend, line, consts


def quad_roots_oracle(t: float, w: str):
    """Exact roots of the stretched quadratic restriction via the closed form."""
    a1, a2 = QUAD_LINE_A
    b1, b2 = QUAD_LINE_B
    if w == "up":  # direction (1, 1)
        coeffs = [
            t * t * a1 * a1,
            -2 * t * t * a1 * b1 + 3 * t * a1 + 2 * t * a2,
            t * t * b1 * b1 - 3 * t * b1 - 2 * t * b2 - 5,
        ]
    else:  # direction (-1, -1), cleared of the t^{-2} prefactor
        coeffs = [
            a1 * a1,
            -2 * a1 * b1 + 3 * t * a1 + 2 * t * a2,
            b1 * b1 - 3 * t * b1 - 2 * t * b2 - 5 * t * t,
        ]
    return list(np.roots(coeffs))


def sample_at(path, t):
    return next(s for tv, s, _ in path.samples if tv == t)


class TestMakeLine:
    def test_accepts_the_worked_example_line(self, quad_setup):
        _, _, line, _ = quad_setup
        assert line.degree == 2
        assert line.a == QUAD_LINE_A and line.b == QUAD_LINE_B

    def test_rejects_zero_direction_entry(self, quad_poly):
        backend = SparseLineBackend(quad_poly)
        with pytest.raises(GenericityFailure, match="zero"):
            make_line(2, random.Random(0), backend, a=(0, 1 + 1j), b=(1, 2))

    def test_rejects_proportional_anchor(self, quad_poly):
        backend = SparseLineBackend(quad_poly)
        a = (2 + 1j, 3 - 2j)
        b = (2 * (2 + 1j), 2 * (3 - 2j))
        with pytest.raises(GenericityFailure, match="ratios"):
            make_line(2, random.Random(0), backend, a=a, b=b)

    def test_random_lines_are_generic(self, disc_poly):
        backend = SparseLineBackend(disc_poly)
        line = make_line(3, random.Random(7), backend)
        assert line.degree == 2
        ratios = line.ratios()
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(ratios[i] - ratios[j]) > 1e-3


class TestLineConstants:
    def test_worked_example_values(self, quad_setup):
        _, _, _, consts = quad_setup
        assert consts.a_min == 1.0
        assert consts.a_max == pytest.approx(math.sqrt(13))
        assert consts.b_min == 1.0
        assert consts.b_max == pytest.approx(math.sqrt(13))
        # separation of the two anchor ratios
        sep = abs(QUAD_LINE_B[0] / QUAD_LINE_A[0] - QUAD_LINE_B[1] / QUAD_LINE_A[1])
        assert consts.Gamma[0] == pytest.approx(sep) == pytest.approx(1.5342, abs=1e-4)
        assert consts.gamma[0] == pytest.approx(sep / 2) == pytest.approx(0.7671, abs=1e-4)
        assert consts.C == 5.0

    def test_cluster_balls_are_disjoint(self, quad_setup):
        _, _, line, consts = quad_setup
        ratios = line.ratios()
        for i in range(line.n):
            for j in range(i + 1, line.n):
                assert consts.gamma[i] + consts.gamma[j] <= abs(ratios[i] - ratios[j]) + 1e-12


class TestInitialRoots:
    def test_quadratic_matches_closed_form(self, quad_setup):
        _, backend, line, _ = quad_setup
        roots = initial_roots(backend, line)
        want = quad_roots_oracle(1.0, "up")
        for r in roots:
            assert min(abs(r - z) for z in want) < 1e-9

    def test_linear_polynomial_single_root(self):
        poly = parse_sparse("1 : 1 0\n2 : 0 1\n-3 : 0 0")
        backend = SparseLineBackend(poly)
        line = make_line(2, random.Random(3), backend)
        assert line.degree == 1
        roots = initial_roots(backend, line)
        assert len(roots) == 1

    def test_discriminant_two_roots(self, disc_poly):
        backend = SparseLineBackend(disc_poly)
        line = make_line(3, random.Random(5), backend)
        roots = initial_roots(backend, line)
        assert len(roots) == 2
        assert abs(roots[0] - roots[1]) > 1e-8

    def test_degree_override_mismatch(self, quad_poly):
        backend = SparseLineBackend(quad_poly)
        with pytest.raises((DegreeMismatchError, GenericityFailure)):
            make_line(2, random.Random(0), backend, a=QUAD_LINE_A, b=QUAD_LINE_B, degree=3)

    def test_slp_backend_agrees(self, quad_setup):
        quad, _, line, _ = quad_setup
        backend = SlpLineBackend(sparse_to_slp(quad))
        roots = initial_roots(backend, line)
        want = quad_roots_oracle(1.0, "up")
        for r in roots:
            assert min(abs(r - z) for z in want) < 1e-9


def _term_sum_g_dg(poly, line, s, t, w):
    """f and df/ds at t^w . (s a - b) summed term by term, with the partial
    derivatives of each monomial written out by hand."""
    scale = [t**wi for wi in w]
    p = [c * (s * ai - bi) for c, ai, bi in zip(scale, line.a, line.b)]
    v = [c * ai for c, ai in zip(scale, line.a)]
    dg = 0j
    for coeff, alpha in poly.terms:
        c = coeff.to_complex()
        for i, a in enumerate(alpha):
            if a:
                partial = c * a * p[i] ** (a - 1)
                for j, aj in enumerate(alpha):
                    if j != i:
                        partial *= p[j] ** aj
                dg += partial * v[i]
    return sparse_eval_complex(poly, p), dg


class TestBackends:
    def test_newton_step_matches_term_sum(self):
        rng = random.Random(19)
        for _ in range(6):
            poly = random_sparse(rng)
            backend = SparseLineBackend(poly)
            line = make_line(poly.n, random.Random(rng.randint(0, 99)), backend)
            for _ in range(5):
                s = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                t = math.exp(rng.uniform(0, 8))
                w = [rng.uniform(-2, 2) for _ in range(poly.n)]
                g, dg = (to_complex(z) for z in backend.eval_ds(line, s, t, w))
                g_ref, dg_ref = _term_sum_g_dg(poly, line, s, t, w)
                if g_ref == 0 or dg_ref == 0:
                    continue
                assert cmath.isclose(g / dg, g_ref / dg_ref, rel_tol=1e-8, abs_tol=1e-12)


class TestTrackPaths:
    def test_constant_direction_keeps_paths_fixed(self, quad_setup):
        _, backend, line, _ = quad_setup
        paths = track_paths(backend, line, (0.0, 0.0), t_max=256.0)
        for path in paths:
            first = path.samples[0][1]
            for _, s, _ in path.samples:
                assert abs(s - first) < 1e-9

    def test_convergent_direction_matches_closed_form(self, quad_setup):
        _, backend, line, _ = quad_setup
        paths = track_paths(backend, line, (1.0, 1.0), t_max=1e8, record_at=DECADES)
        for t in DECADES:
            got = sorted(abs(sample_at(p, t)) for p in paths)
            want = sorted(abs(z) for z in quad_roots_oracle(t, "up"))
            assert got == pytest.approx(want, rel=1e-6)

    def test_divergent_direction_matches_closed_form(self, quad_setup):
        _, backend, line, _ = quad_setup
        paths = track_paths(backend, line, (-1.0, -1.0), t_max=1e8, record_at=DECADES)
        for t in DECADES:
            got = sorted(abs(sample_at(p, t)) for p in paths)
            want = sorted(abs(z) for z in quad_roots_oracle(t, "down"))
            assert got == pytest.approx(want, rel=1e-6)

    def test_residuals_are_small(self, quad_setup):
        _, backend, line, _ = quad_setup
        paths = track_paths(backend, line, (1.0, 1.0), t_max=1e8)
        for path in paths:
            for _, _, res in path.samples:
                assert res < 1e-8


class TestClassify:
    def test_convergent_certificate(self, quad_setup):
        _, backend, line, consts = quad_setup
        paths = track_paths(backend, line, (1.0, 1.0), t_max=1e8)
        cert = classify_paths(paths, line, consts)
        assert cert.beta == (2, 0)
        assert cert.t_entry <= 1e2

    def test_divergent_certificate(self, quad_setup):
        _, backend, line, consts = quad_setup
        paths = track_paths(backend, line, (-1.0, -1.0), t_max=1e8)
        cert = classify_paths(paths, line, consts)
        assert cert.beta == (0, 0)
        assert sum(1 for kind, _ in cert.assignments if kind == "diverging") == 2

    def test_mixed_certificate(self, quad_setup):
        _, backend, line, consts = quad_setup
        paths = track_paths(backend, line, (0.0, 1.0), t_max=1e8)
        cert = classify_paths(paths, line, consts)
        assert cert.beta == (0, 1)

    def test_conservation(self, quad_setup):
        _, backend, line, consts = quad_setup
        for w in ((1.0, 1.0), (-1.0, -1.0), (0.0, 1.0), (1.0, 0.0)):
            paths = track_paths(backend, line, w, t_max=1e8)
            try:
                cert = classify_paths(paths, line, consts)
            except IndeterminateError:
                continue
            diverging = sum(1 for kind, _ in cert.assignments if kind == "diverging")
            assert sum(cert.beta) + diverging == cert.degree == 2


class TestVerifyRates:
    def test_reference_convergence_bound_column(self, quad_setup):
        quad, backend, line, consts = quad_setup
        rates = table_rates(quad, (1.0, 1.0), consts, C=5.0)
        assert rates.gap_conv == 1.0
        for t in DECADES:
            assert convergence_bound(consts, rates, 2, 0, t) == pytest.approx(1040.0 / t, rel=1e-9)

    def test_reference_divergence_bound_column(self, quad_setup):
        quad, backend, line, consts = quad_setup
        rates = table_rates(quad, (-1.0, -1.0), consts, C=5.0)
        assert rates.gap_div == 2.0
        for t in DECADES:
            assert divergence_bound(consts, rates, 2, t) == pytest.approx(t * t / 4160.0, rel=1e-9)

    def test_certificates_hold_on_both_directions(self, quad_setup):
        quad, backend, line, consts = quad_setup
        for w, variant in (((1.0, 1.0), True), ((-1.0, -1.0), True), ((1.0, 1.0), False)):
            paths = track_paths(backend, line, w, t_max=1e8)
            cert = classify_paths(paths, line, consts)
            rates = (table_rates if variant else rate_params_from_sparse)(quad, w, consts, C=5.0)
            done = verify_rates(paths, cert, consts, line, w, rates)
            assert all(done.rate_checks) and done.slopes_ok

    def test_wrong_expected_slope_is_rejected(self, quad_setup):
        quad, backend, line, consts = quad_setup
        paths = track_paths(backend, line, (1.0, 1.0), t_max=1e8)
        cert = classify_paths(paths, line, consts)
        bogus = RateParams(
            gap_conv=1.0,
            gap_div=None,
            C=5.0,
            n_terms=4,
            gamma=consts.gamma,
            slope_conv={0: 7.0},
            slope_div=None,
        )
        with pytest.raises(RateViolationError):
            verify_rates(paths, cert, consts, line, (1.0, 1.0), bogus)

    def test_fitted_params_certify_without_support_knowledge(self, quad_setup):
        _, backend, line, consts = quad_setup
        paths = track_paths(backend, line, (1.0, 1.0), t_max=1e8)
        cert = classify_paths(paths, line, consts)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rates = fitted_rate_params(paths, cert, line, consts)
        assert rates.fitted and rates.C == 10.0
        done = verify_rates(paths, cert, consts, line, (1.0, 1.0), rates)
        assert all(done.rate_checks)


class TestWitnessVertexQuery:
    def test_worked_example_directions(self, quad_setup):
        quad, backend, line, consts = quad_setup
        cfg = WitnessConfig(
            rng=random.Random(1),
            rate_source=lambda w: rate_params_from_sparse(quad, [float(x) for x in w], consts, C=5.0)
        )
        up = witness_vertex_query(backend, line, consts, (1, 1), cfg)
        assert up.beta == (2, 0)
        down = witness_vertex_query(backend, line, consts, (-1, -1), cfg)
        assert down.beta == (0, 0)

    def test_agrees_with_evaluation_oracle(self, disc_poly):
        backend = SparseLineBackend(disc_poly)
        line = make_line(3, random.Random(11), backend)
        consts = line_constants(line, C=4.0)
        cfg = WitnessConfig(
            rng=random.Random(1),
            rate_source=lambda w: rate_params_from_sparse(disc_poly, [float(x) for x in w], consts)
        )
        w = (Fraction(-6, 5), Fraction(2, 5), Fraction(37, 10))
        cert = witness_vertex_query(backend, line, consts, list(w), cfg)
        superset = ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))
        answer = vertex_query(
            sparse_to_slp(disc_poly), EvalBounds(2.0, 2.0, superset), w, random.Random(0), t=45.0
        )
        assert cert.beta == answer.beta == (1, 0, 1)

    def test_pinned_intersection_point(self):
        # f = x^2 + xy - x = x (x + y - 1): one witness point sits exactly at
        # b1/a1 for every stretch; its distance is 0 and every bound holds
        poly = SparsePolynomial.from_terms(2, [(1, (2, 0)), (1, (1, 1)), (-1, (1, 0))])
        backend = SparseLineBackend(poly)
        line = make_line(2, random.Random(3), backend)
        consts = line_constants(line, C=3.0)
        roots = initial_roots(backend, line)
        r1 = line.ratios()[0]
        assert min(abs(z - r1) for z in roots) < 1e-9
        paths = track_paths(backend, line, (1.0, 0.0), t_max=1e8)
        cert = classify_paths(paths, line, consts)
        assert cert.beta == (2, 0)
        rates = rate_params_from_sparse(poly, (1.0, 0.0), consts)
        done = verify_rates(paths, cert, consts, line, (1.0, 0.0), rates)
        assert all(done.rate_checks)

    def test_indeterminate_direction_retries_and_certifies(self, quad_setup, tmp_path, capsys):
        quad, backend, line, consts = quad_setup
        # (1, 2) exposes the edge between x^2 and y: the query itself is
        # indeterminate, and the command's tilts inside the edge's cone certify
        cfg = WitnessConfig(
            rng=random.Random(5),
            rate_source=lambda w: rate_params_from_sparse(quad, [float(x) for x in w], consts),
        )
        with pytest.raises(IndeterminateError):
            witness_vertex_query(backend, line, consts, (1, 2), cfg)
        record = _quad_vertex_command(tmp_path, capsys, "1,2", seed=5)
        assert tuple(record["vertex"]) in {(2, 0), (0, 1)} and record["h"] == "2"

    def test_retries_stay_on_the_face_that_w_exposes(self, tmp_path, capsys):
        # (1/20, 1/10) ties x^2 and y at h = 1/10; tilts of size 1/8 once left
        # that edge's normal cone for the constant term (seed 36) or ended
        # indeterminate, on 7 of these 41 seeds
        for seed in range(41):
            record = _quad_vertex_command(tmp_path, capsys, "1/20,1/10", seed=seed)
            assert tuple(record["vertex"]) in {(2, 0), (0, 1)} and record["h"] == "1/10", seed

    def test_float_directions_are_rejected(self, quad_setup):
        _, backend, line, consts = quad_setup
        with pytest.raises(TypeError):
            witness_vertex_query(backend, line, consts, (1.0, 1.0), WitnessConfig(rng=random.Random(0)))


def _quad_vertex_command(tmp_path, capsys, w: str, seed: int) -> dict:
    """`vertex --backend witness` on the quad line with known rates (C = 5);
    the config seed draws the retry tilts."""
    config = json.loads((FIXTURES / "quad_witness.json").read_text())
    config.update(backend={"type": "sparse", "path": str(FIXTURES / "quad.poly")}, seed=seed)
    (tmp_path / "w.json").write_text(json.dumps(config))
    code = main(["vertex", "--backend", "witness", "--witness-config", str(tmp_path / "w.json"), "--w", w])
    assert code == 0
    return json.loads(capsys.readouterr().out)


# ---------------------------------------------------------------------------
# tracker soundness and invariants

def _seed_215_setup():
    """perfbench witness-sparse seed 2, input 215: a naive power-law anchor
    once tracked it to a complete and wrong answer at direction (25, 1)."""
    g = GaussianRational
    poly = SparsePolynomial.from_terms(
        2,
        [
            (g(Fraction(26731, 65536), Fraction(36787, 65536)), (0, 0)),
            (g(Fraction(-10201, 16384), Fraction(-63407, 32768)), (0, 1)),
            (g(Fraction(-1099, 16384), Fraction(-5883, 4096)), (1, 0)),
            (g(Fraction(-671, 2048), Fraction(20333, 65536)), (1, 1)),
        ],
    )
    backend = SparseLineBackend(poly)
    line = make_line(2, random.Random(5949340451180550152), backend)
    consts = line_constants(line, C=10.0)
    return poly, backend, line, consts


def _known_rates(poly, consts):
    return lambda w: rate_params_from_sparse(poly, [float(x) for x in w], consts)


def _naive_predict(history, step, ratios, far, near):
    """The power-law predictor without the rate check on the near anchor."""
    (x1, s1), (x2, s2) = history[-2:]
    anchor = None
    if abs(s2) > far:
        anchor = 0j
    else:
        r = min(ratios, key=lambda r: abs(s2 - r))
        if abs(s2 - r) < min(near, abs(s1 - r)):
            anchor = r
            _naive_predict.near_anchors += 1
    if anchor is None or s1 == anchor:
        return s2 + (s2 - s1) * (step / (x2 - x1))
    rate = cmath.log((s2 - anchor) / (s1 - anchor)) / (x2 - x1)
    return anchor + (s2 - anchor) * cmath.exp(rate * step)


def _quadratic_roots(poly, line, t, w):
    """Both roots of s -> f(t^w . (s a - b)) for f of total degree 2, from the
    coefficients expanded term by term at 60 digits: in doubles the
    expansion loses more than the tracker's accuracy once t^w is large."""
    mpmath.mp.dps = 60
    coeffs = [mpmath.mpc(0)] * 3  # constant, linear, quadratic
    for coeff, alpha in poly.terms:
        term = [mpmath.mpc(mpmath.mpf(coeff.re.numerator) / coeff.re.denominator,
                           mpmath.mpf(coeff.im.numerator) / coeff.im.denominator)]
        for ai, bi, wi, k in zip(line.a, line.b, w, alpha):
            scale = mpmath.mpf(t) ** wi
            lo, hi = -scale * mpmath.mpc(bi), scale * mpmath.mpc(ai)
            for _ in range(k):  # multiply by the factor lo + hi s
                term = [x * lo + y * hi for x, y in zip(term + [0], [0] + term)]
        for j, x in enumerate(term):
            coeffs[j] += x
    c, b, a = coeffs
    root = mpmath.sqrt(b * b - 4 * a * c)
    return complex((-b + root) / (2 * a)), complex((-b - root) / (2 * a))


def _scan_polynomial(rng):
    """2 variables, 4 terms, total degree 2, no common monomial factor."""
    monomials = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    while True:
        support = rng.sample(monomials, 4)
        if max(map(sum, support)) == 2 and all(min(a[i] for a in support) == 0 for i in range(2)):
            return SparsePolynomial.from_terms(2, [(rational_coefficient(rng), a) for a in support])


class CountingBackend(SparseLineBackend):
    calls = 0

    def eval_ds(self, line, s, t, w):
        self.calls += 1
        return super().eval_ds(line, s, t, w)


class TestTrackerSoundness:
    def test_steep_direction_certifies_the_true_vertex(self):
        poly, backend, line, consts = _seed_215_setup()
        cfg = WitnessConfig(rng=random.Random(3), rate_source=_known_rates(poly, consts))
        cert = witness_vertex_query(backend, line, consts, (25, 1), cfg)
        assert cert.beta == (1, 1)

    def test_frozen_path_guard_catches_a_naive_anchor(self, monkeypatch):
        poly, backend, line, consts = _seed_215_setup()
        _naive_predict.near_anchors = 0
        monkeypatch.setattr(wo, "_predict", _naive_predict)
        cfg = WitnessConfig(rng=random.Random(3), rate_source=_known_rates(poly, consts))
        try:
            beta = witness_vertex_query(backend, line, consts, (25, 1), cfg).beta
        except (IndeterminateError, TrackingFailureError):
            beta = None
        assert _naive_predict.near_anchors > 0
        assert beta != (2, 0)

    def test_known_rate_reconstructions_are_never_complete_and_wrong(self):
        rng = random.Random(20261018)
        checked = queries = indeterminate = 0
        for k in range(120):
            poly = _scan_polynomial(rng)
            backend = SparseLineBackend(poly)
            try:
                line = make_line(2, random.Random(k), backend)
            except GenericityFailure:
                continue
            consts = line_constants(line, C=10.0)
            cfg = WitnessConfig(rng=random.Random(k), rate_source=_known_rates(poly, consts))
            report = reconstruct(WitnessVertexOracle(backend, line, consts, cfg), 2, ReconstructConfig(seed=k))
            assert not report.complete or report.polytope == convex_hull(poly.support()), k
            checked += 1
            queries += report.queries
            indeterminate += report.indeterminate
        assert checked >= 100
        # a tracker change that moves any answer moves these sums; they were
        # read before the error-driven step control, which left them as they were
        assert (checked, queries, indeterminate) == (120, 1084, 39)


class TestTrackerInvariants:
    def test_samples_follow_the_closed_form_roots(self, quad_poly):
        rng = random.Random(41)
        cases = [(quad_poly, make_line(2, random.Random(0), SparseLineBackend(quad_poly), a=QUAD_LINE_A, b=QUAD_LINE_B))]
        while len(cases) < 8:
            poly = _scan_polynomial(rng)
            try:
                cases.append((poly, make_line(2, random.Random(rng.randrange(10**6)), SparseLineBackend(poly))))
            except GenericityFailure:
                continue
        compared = 0
        for poly, line in cases:
            backend = SparseLineBackend(poly)
            for w in ((1, 1), (-1, -1), (0, 1), (2, -1), (-3, 1), (25, 1)):
                paths = track_paths(backend, line, w, t_max=1e4)
                for k, (t, _, _) in enumerate(paths[0].samples):
                    roots = _quadratic_roots(poly, line, t, w)
                    matched = set()
                    for path in paths:
                        _, s, res = path.samples[k]
                        if res == 0.0 and t > 1.0:
                            continue  # frozen: the sample repeats an earlier value
                        j = min(range(2), key=lambda j: abs(s - roots[j]))
                        assert abs(s - roots[j]) <= 1e-9 * abs(roots[j]), (w, t)
                        assert j not in matched
                        matched.add(j)
                        compared += 1
        assert compared > 1000

    def test_eval_ds_per_track_is_pinned(self):
        # a change to the tracker's cost shows up here first.  With the secant
        # predictor, the confirming Newton step and the t = 1 roots solved
        # again per track (7 evaluations), these read 277 and 255; with the
        # power-law predictor under the speed cap 0.5(1 + |s|), 315 and 180.
        poly, _, line, _ = _seed_215_setup()
        for w, pinned in (((25.0, 1.0), 238), ((1.0, 1.0), 174)):
            backend = CountingBackend(poly)
            track_paths(backend, line, w)
            assert backend.calls == pinned, w


class TestStepControl:
    def test_zero_error_grows_the_step_fourfold(self):
        assert wo._next_step(0.1, 0.1, [(0.0, 1.0), (0.0, 2.0)]) == pytest.approx(0.4)
        assert wo._next_step(0.1, 0.1, []) == pytest.approx(0.4)

    def test_error_sets_the_factor_within_its_clamp(self):
        assert wo._next_step(0.1, 0.1, [(wo.TARGET, 1.0)]) == pytest.approx(0.1)
        assert wo._next_step(0.1, 0.1, [(wo.TARGET / 4, 1.0), (wo.TARGET, 0.5)]) == pytest.approx(0.1 / math.sqrt(2))
        assert wo._next_step(0.1, 0.1, [(1e-9 * wo.TARGET, 1.0)]) == pytest.approx(0.4)
        assert wo._next_step(0.1, 0.1, [(1e3 * wo.TARGET, 1.0)]) == pytest.approx(0.025)

    def test_zero_spacing_gives_a_finite_step(self):
        assert wo._next_step(0.1, 0.1, [(0.0, 0.0)]) == pytest.approx(0.4)
        assert wo._next_step(0.1, 0.1, [(1e-12, 0.0), (0.0, 1.0)]) == pytest.approx(0.025)

    def test_a_clipped_substep_keeps_the_carried_step(self):
        # a sliver that lands on a schedule point says little about the step
        assert wo._next_step(0.5, 0.01, [(0.0, 1.0)]) == 0.5
        assert wo._next_step(0.5, 0.01, [(1e3 * wo.TARGET, 1.0)]) == 0.5
        assert wo._next_step(0.5, 0.2, [(0.0, 1.0)]) == pytest.approx(0.8)
