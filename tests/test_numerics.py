"""Tests for the numerical substrate.

Special functions are checked against closed-form identities and against
independent quadrature oracles; quadrature against exactly integrable
cases; root finding against a plain bisection oracle.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq  # the oracle of the Brent port

from scipy import special

from expfam.distributions import GammaPosterior
from expfam.errors import DomainError, NonConvergenceError
from expfam.families import GammaFamily
from expfam.numerics import (
    _brent,
    _newton_bisection,
    find_root,
    integrate,
    integrate_trapezoid,
    inv_reg_gamma_lower,
    rng_stream,
    std_normal_quantile,
)


def gamma_normalizer(alpha):
    """ln Gamma(alpha): minus the Gamma carrier (alpha - 1) ln x - ln Gamma(alpha) at x = 1."""
    return -GammaFamily(alpha).log_carrier(1.0)


class TestLogGamma:
    def test_integer_values(self):
        assert gamma_normalizer(1.0) == 0.0
        assert gamma_normalizer(2.0) == 0.0

    def test_half_sqrt_pi_identity(self):
        # Gamma(1/2) = sqrt(pi)
        assert gamma_normalizer(0.5) == pytest.approx(
            math.log(math.sqrt(math.pi)), abs=1e-13
        )

    def test_relative_accuracy_against_recursion(self):
        # Gamma(x+1) = x Gamma(x) exercised across magnitudes
        for x in (0.1, 0.9, 3.7, 25.0, 140.5):
            lhs = gamma_normalizer(x + 1.0)
            rhs = gamma_normalizer(x) + math.log(x)
            assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            GammaFamily(0.0)
        with pytest.raises(DomainError):
            GammaFamily(-1.5)


class TestRegGammaLower:
    """P(a, x), the distribution function of Gamma(a, 1)."""

    def test_at_zero(self):
        assert GammaPosterior(1.0, 1.0).cdf(0.0) == 0.0

    def test_exponential_cdf_closed_form(self):
        # P(1, x) = 1 - exp(-x)
        assert GammaPosterior(1.0, 1.0).cdf(math.log(10.0)) == pytest.approx(0.9, abs=1e-14)

    def test_against_quadrature_oracle(self):
        a, x = 2.5, 2.5
        norm = math.exp(math.lgamma(a))
        oracle = integrate(
            lambda t: t ** (a - 1.0) * math.exp(-t) / norm, 0.0, x, tol=1e-12
        ).value
        value = GammaPosterior(a, 1.0).cdf(x)
        assert 0.0 < value < 1.0
        assert value == pytest.approx(oracle, abs=1e-10)

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 12.0, 60)
        values = [GammaPosterior(1.7, 1.0).cdf(x) for x in xs]
        assert np.all(np.diff(values) >= 0)


class TestInvRegGammaLower:
    def test_exponential_quantile(self):
        assert inv_reg_gamma_lower(1.0, 0.9) == pytest.approx(
            -math.log(0.1), abs=1e-12
        )

    def test_inverse_at_one(self):
        assert inv_reg_gamma_lower(1.0, 1.0 - math.exp(-1.0)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_round_trip_grid(self):
        # quantile o cdf = identity on a 100-point grid spanning p in
        # (~0.1, 0.999); beyond that the inversion is ill-conditioned in
        # doubles because the density underflows relative to ulp(1)
        for a in (0.5, 1.0, 3.5):
            xs = np.linspace(0.05, inv_reg_gamma_lower(a, 0.999), 100)
            for x in xs:
                p = special.gammainc(a, x)
                assert inv_reg_gamma_lower(a, p) == pytest.approx(x, abs=1e-9)

    @settings(deadline=None, max_examples=50)
    @given(
        a=st.floats(min_value=0.1, max_value=50.0),
        p=st.floats(min_value=0.01, max_value=0.99),
    )
    def test_round_trip_property(self, a, p):
        x = inv_reg_gamma_lower(a, p)
        assert special.gammainc(a, x) == pytest.approx(p, abs=1e-10)

    def test_domain_errors(self):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(DomainError):
                inv_reg_gamma_lower(1.0, p)


class TestStdNormal:
    def test_symmetry_point(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_upper_limit(self):
        # the largest p below 1 still has a finite quantile
        assert 8.0 < std_normal_quantile(1.0 - 2.0**-53) < 8.5

    def test_against_quadrature_oracle(self):
        z = std_normal_quantile(0.975)
        density = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
        oracle = 0.5 + integrate(density, 0.0, z, tol=1e-13).value
        assert oracle == pytest.approx(0.975, abs=1e-14)
        assert z == pytest.approx(1.959963985, abs=1e-9)

    def test_quantile_round_trip(self):
        for p in np.linspace(0.001, 0.999, 100):
            z = std_normal_quantile(p)
            assert special.ndtr(z) == pytest.approx(p, abs=1e-10)

    def test_quantile_domain(self):
        for p in (0.0, 1.0, 1.5):
            with pytest.raises(DomainError):
                std_normal_quantile(p)


class TestIntegrate:
    def test_exponential_tail(self):
        result = integrate(lambda x: math.exp(-x), 0.0, math.inf, tol=1e-11)
        assert result.value == pytest.approx(1.0, abs=1e-11)
        assert result.evaluations > 0
        assert result.error_estimate <= 1e-10

    def test_gamma_moment(self):
        result = integrate(lambda b: b * math.exp(-2.0 * b), 0.0, math.inf, tol=1e-11)
        assert result.value == pytest.approx(0.25, abs=1e-11)

    def test_endpoint_singularity(self):
        # integral of x^(-1/2) exp(-x) = Gamma(1/2)
        result = integrate(
            lambda x: x**-0.5 * math.exp(-x), 0.0, math.inf, tol=1e-10
        )
        assert result.value == pytest.approx(math.exp(math.lgamma(0.5)), abs=1e-9)

    def test_linearity(self):
        f = lambda x: math.exp(-x)
        g = lambda x: x * math.exp(-2.0 * x)
        combo = integrate(
            lambda x: 3.0 * f(x) + 5.0 * g(x), 0.0, math.inf, tol=1e-11
        )
        parts = 3.0 * integrate(f, 0.0, math.inf, tol=1e-11).value + 5.0 * integrate(
            g, 0.0, math.inf, tol=1e-11
        ).value
        assert combo.value == pytest.approx(parts, abs=1e-10)

    def test_interior_split_points(self):
        # a narrow bump far from the origin is found thanks to the split
        center = 50.0
        bump = lambda x: math.exp(-((x - center) ** 2) * 200.0)
        result = integrate(bump, 0.0, math.inf, tol=1e-11, points=[center])
        assert result.value == pytest.approx(
            math.sqrt(math.pi / 200.0), rel=1e-9
        )

    def test_purity(self):
        f = lambda x: math.exp(-x) * math.cos(x)
        first = integrate(f, 0.0, math.inf, tol=1e-11)
        second = integrate(f, 0.0, math.inf, tol=1e-11)
        assert first == second

    def test_non_convergence_on_divergent_integrand(self):
        with pytest.raises(NonConvergenceError):
            integrate(lambda x: 1.0 / x, 0.0, 1.0, tol=1e-10)

    def test_empty_domain(self):
        with pytest.raises(DomainError):
            integrate(math.exp, 1.0, 1.0)


class TestIntegrateTrapezoidProduct:
    """The trapezoid rule on the product grid of R^d, d > 1."""

    def test_separable_gaussian(self):
        # exp(-(x^2 + 2 y^2)) over the plane is pi / sqrt(2)
        f = lambda x: np.exp(-(x[:, 0] ** 2) - 2.0 * x[:, 1] ** 2)
        result = integrate_trapezoid(f, tol=1e-12, d=2)
        assert result.value == pytest.approx(math.pi / math.sqrt(2.0), rel=1e-13)
        assert result.error_estimate <= 1e-12 * result.value

    def test_evaluations_count_nodes(self):
        def counted(f, d):
            rows = []

            def g(x):
                assert x.shape[1:] == (d,)
                rows.append(x.shape[0])
                return f(x)

            return rows, g

        # d = 3 on the first grid, 97^3 nodes: slabs along the first axis bound the memory
        rows, f = counted(lambda x: np.exp(-4.0 * np.sum(x * x, axis=-1)), 3)
        result = integrate_trapezoid(f, tol=1e-12, d=3)
        assert result.value == pytest.approx((math.pi / 4.0) ** 1.5, rel=1e-13)
        assert result.evaluations == sum(rows) == 97**3
        assert len(rows) > 1 and max(rows) <= 1 << 16
        # sech^2 tails widen the window three times: at d > 1 each grid is
        # evaluated whole, so the count is the sum of the four grids
        rows, f = counted(lambda x: np.prod(1.0 / np.cosh(x) ** 2, axis=-1), 2)
        result = integrate_trapezoid(f, tol=1e-12, d=2)
        assert result.value == pytest.approx(4.0, rel=1e-13)
        assert result.evaluations == sum(rows) == 97**2 + 193**2 + 385**2 + 769**2

    def test_nan_and_budget_raise(self):
        nan_at_origin = lambda x: np.where(
            np.all(x == 0.0, axis=-1), np.nan, np.exp(-np.sum(x * x, axis=-1))
        )
        with pytest.raises(NonConvergenceError):
            integrate_trapezoid(nan_at_origin, d=2)
        # an algebraic tail never lets the window stop doubling
        with pytest.raises(NonConvergenceError):
            integrate_trapezoid(lambda x: 1.0 / (1.0 + np.sum(x * x, axis=-1)) ** 2, d=2)

    def test_first_grid_over_budget_raises_before_evaluating(self):
        # 97 nodes per axis: 97^3 fits the 2^23 budget, 97^4 does not
        def never(x):
            raise AssertionError("the integrand was evaluated")

        for d in (4, 5):
            with pytest.raises(NonConvergenceError):
                integrate_trapezoid(never, d=d)

    def test_stack_equals_rows(self):
        integrands = [
            lambda x: np.exp(-0.5 * (x[:, 0] - 0.3) ** 2 - x[:, 1] ** 2),
            lambda x: 1.0 / (np.cosh(x[:, 0]) * np.cosh(x[:, 1])) ** 2,
            lambda x: np.exp(-0.5 * (x[:, 0] ** 2 + x[:, 0] * x[:, 1] + x[:, 1] ** 2) / 9.0),
        ]
        stacked = integrate_trapezoid(
            lambda x: np.stack([f(x) for f in integrands]), tol=1e-12, d=2
        )
        assert stacked.value.shape == stacked.error_estimate.shape == (3,)
        for f, value, error in zip(integrands, stacked.value, stacked.error_estimate):
            alone = integrate_trapezoid(f, tol=1e-12, d=2)
            assert value == pytest.approx(alone.value, rel=1e-15)
            assert error <= 1e-12 * value

    def test_box_bounds_rejected(self):
        # integrate is one-dimensional: there is no box cubature
        with pytest.raises(DomainError):
            integrate(lambda x: 1.0, [0.0, 0.0], [1.0, 1.0])


class TestIntegrateTrapezoid:
    def test_gaussian_exact_to_rounding(self):
        # the trapezoid error on exp(-x^2/2) at step h is 2 sqrt(tau) exp(-2 pi^2/h^2)
        result = integrate_trapezoid(lambda x: np.exp(-0.5 * (x - 0.3) ** 2))
        assert abs(result.value - math.sqrt(2.0 * math.pi)) <= 4e-16 * result.value
        assert result.error_estimate <= 1e-10 * result.value

    def test_sech_squared(self):
        # integral of sech^2 = 2; poles at +-i pi/2, tails exp(-2|x|) widen the window
        result = integrate_trapezoid(lambda x: 1.0 / np.cosh(x) ** 2, tol=1e-12)
        assert result.value == pytest.approx(2.0, rel=1e-13)

    def test_evaluations_count_rows(self):
        grids = []

        def f(x):
            grids.append(x)
            return np.exp(-x * x)

        result = integrate_trapezoid(f, tol=1e-12)
        assert result.value == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        assert len(grids) > 1  # the window widened or the step halved
        # f sees each grid whole, the nodes j h for |j| <= k, and the count is
        # the sum of the grid sizes
        for x in grids:
            k, h = x.size // 2, x[1] - x[0]
            assert np.array_equal(x, np.arange(-k, k + 1) * h)
        assert [x.size for x in grids] == [97 * 2**i - (2**i - 1) for i in range(len(grids))]
        assert result.evaluations == sum(x.size for x in grids)

    def test_tails_that_underflow_to_zero(self):
        # exp(-256 x^4) is exactly 0 beyond |x| = 1.7; its integral is Gamma(1/4) / 8
        f = lambda x: np.exp(-256.0 * x**4)
        assert f(np.array([3.0]))[0] == 0.0
        result = integrate_trapezoid(f, tol=1e-12)
        assert result.value == pytest.approx(math.gamma(0.25) / 8.0, rel=1e-13)

    def test_algebraic_tail_raises(self):
        # 1/(1 + x^2) is still 1e-7 at |x| = 3e3: no window within the budget holds it
        with pytest.raises(NonConvergenceError):
            integrate_trapezoid(lambda x: 1.0 / (1.0 + x * x))

    def test_non_finite_raises(self):
        with pytest.raises(NonConvergenceError):
            integrate_trapezoid(lambda x: np.where(x == 0.0, np.nan, np.exp(-x * x)))

    def test_stack_equals_elementwise(self):
        integrands = [
            lambda x: np.exp(-0.5 * (x - 0.3) ** 2),
            lambda x: 1.0 / np.cosh(x) ** 2,
            lambda x: np.exp(-256.0 * x**4),
            lambda x: np.exp(-0.5 * x * x / 9.0),
        ]
        stacked = integrate_trapezoid(
            lambda x: np.stack([f(x) for f in integrands]), tol=1e-12
        )
        assert stacked.value.shape == stacked.error_estimate.shape == (4,)
        for f, value, error in zip(integrands, stacked.value, stacked.error_estimate):
            alone = integrate_trapezoid(f, tol=1e-12)
            assert value == pytest.approx(alone.value, rel=1e-15)
            assert error <= 1e-12 * value

    def test_bad_tol(self):
        with pytest.raises(DomainError):
            integrate_trapezoid(lambda x: np.exp(-x * x), tol=0.0)


def _bisect(f, lo, hi, iterations=80):
    flo = f(lo)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if (flo < 0) == (fmid < 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestFindRoot:
    def test_linear(self):
        root = find_root(lambda t: 2.0 * t - 1.0, 3.0, 0.0, tol=1e-12)
        assert root == pytest.approx(0.5, abs=1e-12)

    def test_gamma_mean_equation(self):
        # the Gamma mean alpha/beta = 2 at alpha = 1: -1/beta rises through -2 at 1/2
        root = find_root(lambda b: -1.0 / b, 1.0, -2.0, tol=1e-12)
        assert root == pytest.approx(0.5, abs=1e-12)

    def test_monotone_cubic_vs_bisection(self):
        f = lambda t: t**3 + 2.0 * t - 1.7
        root = find_root(f, 1.0, 0.0, tol=1e-13)
        oracle = _bisect(f, 0.0, 2.0)
        assert root == pytest.approx(oracle, abs=1e-12)

    def test_no_sign_change(self):
        with pytest.raises(NonConvergenceError, match="no value below"):
            find_root(lambda t: t * t + 1.0, 1.0, 0.0, tol=1e-12)

    def test_bad_start(self):
        # these used to run 200 halvings or doublings into a NonConvergenceError
        for start in (0.0, math.nan, math.inf, -1.0):
            with pytest.raises(DomainError, match="start"):
                find_root(lambda x: x, start, 0.5, tol=1e-12)
            with pytest.raises(DomainError, match="start"):
                find_root(lambda x: x, np.array([1.0, start]), 0.5, 1e-12, np.ones_like)

    def test_determinism(self):
        f = lambda t: math.tanh(t - 1.0)
        assert find_root(f, 2.0, 0.3, 1e-12) == find_root(f, 2.0, 0.3, 1e-12)


BRENTQ_RTOL = 4.0 * np.finfo(float).eps  # the rtol _brent takes


class TestBrentPort:
    """``_brent`` takes scipy's brentq's iterates, so its roots."""

    SHAPES = [
        lambda c, a: lambda x: math.copysign(abs(x - c) ** a, x - c),
        lambda c, a: lambda x: math.tanh(a * 10.0 * (x - c)),  # flat, then exactly +-1
        lambda c, a: lambda x: math.expm1(a * (x - c)),
        lambda c, a: lambda x: (x - c) ** 3 + a * (x - c),
    ]

    def test_matches_brentq_bit_for_bit(self):
        rng = np.random.default_rng(20)
        for _ in range(3000):
            shape = self.SHAPES[rng.integers(len(self.SHAPES))]
            f = shape(rng.uniform(-3.0, 3.0), rng.uniform(0.2, 5.0))
            lo, hi = sorted(rng.uniform(-20.0, 20.0, size=2))
            if f(lo) * f(hi) >= 0.0:
                continue
            tol = 10.0 ** rng.uniform(-15.0, -3.0)
            oracle = brentq(f, lo, hi, xtol=tol, rtol=BRENTQ_RTOL, maxiter=200)
            assert _brent(f, lo, hi, f(lo), f(hi), tol) == oracle

    def test_nan_at_an_end_raises(self):
        # scipy raised a raw ValueError here
        with pytest.raises(NonConvergenceError, match="not finite"):
            find_root(lambda x: math.nan if x > 0.6 else x, 0.5, 0.45, tol=1e-12)

    def test_nan_at_an_iterate_raises(self):
        # the ends 0.5 and 2 are finite, the first secant step 0.7 is not;
        # without the check, the loop walks to the edge of the nan and returns it
        f = lambda x: math.nan if 0.6 < x < 0.9 else x
        with pytest.raises(NonConvergenceError, match="not finite at 0.7"):
            find_root(f, 1.0, 0.7, tol=1e-12)

    def test_infinite_value_raises(self):
        with pytest.raises(NonConvergenceError, match="not finite"):
            find_root(lambda x: -math.inf if x < 0.3 else x, 0.4, 0.5, tol=1e-12)

    def test_each_point_evaluated_once(self):
        seen = []

        def f(x):
            seen.append(x)
            return -math.expm1(-x)

        root = find_root(f, 1e-3, 0.9, tol=1e-14)
        assert root == pytest.approx(math.log(10.0), rel=1e-13)
        assert len(seen) == len(set(seen))
        # one halving to the low end, twelve doublings to the high one
        assert seen[:13] == [5e-4] + [1e-3 * 2.0**k for k in range(1, 13)]

    def test_array_start_evaluates_its_ends_once(self):
        scales = np.geomspace(1e-2, 1e2, 5)
        calls = []

        def f(x):
            calls.append(x)
            return -np.expm1(-x / scales)

        fprime = lambda x: np.exp(-x / scales) / scales
        roots = find_root(f, scales, 0.9, TINY, fprime)
        np.testing.assert_allclose(roots, scales * math.log(10.0), rtol=1e-14)
        # the cdf crosses 0.9 at 2.3 scales: one halving, two doublings, then
        # Newton from the midpoint, which never returns to an end
        lo, hi = calls[0], calls[2]
        np.testing.assert_array_equal(lo, 0.5 * scales)
        np.testing.assert_array_equal(hi, 4.0 * scales)
        np.testing.assert_array_equal(calls[3], 0.5 * (lo + hi))
        assert not any(((x == lo) | (x == hi)).any() for x in calls[3:])


TINY = np.finfo(float).tiny  # a tol that leaves the relative floor in charge


class TestBracketByDoubling:
    """find_root halves, then doubles, from its start until f straddles the target."""

    def test_crossing_function(self):
        # the cdf of the unit exponential crosses 0.9 at ln 10
        seen = []

        def f(x):
            seen.append(x)
            return -math.expm1(-x)

        root = find_root(f, 1.0, 0.9, tol=1e-12)
        assert seen[:3] == [0.5, 2.0, 4.0]
        assert f(0.5) < 0.9 < f(4.0)
        assert root == pytest.approx(math.log(10.0), rel=1e-12)

    def test_function_that_never_crosses(self):
        with pytest.raises(NonConvergenceError, match="no value above"):
            find_root(lambda x: 0.5, 1.0, 0.9, tol=1e-12)
        with pytest.raises(NonConvergenceError, match="no value below"):
            find_root(lambda x: 0.95, 1.0, 0.9, tol=1e-12)
        with pytest.raises(NonConvergenceError, match="never crosses"):
            find_root(lambda x: np.full(x.shape, 0.5), np.ones(2), 0.9, 1e-12, np.ones_like)


class TestStackedRoots:
    """An array start gives the roots of the float starts element by element."""

    scales = np.geomspace(1e-3, 1e3, 13)

    @staticmethod
    def cdf(scale):
        return lambda x: -np.expm1(-x / scale)

    def test_matches_scalar_calls(self):
        # the exponential cdf with scale s crosses p at -s log(1 - p)
        for p in (1e-6, 0.05, 0.5, 0.9, 0.999):
            roots = find_root(
                self.cdf(self.scales),
                self.scales,
                p,
                TINY,
                fprime=lambda x: np.exp(-x / self.scales) / self.scales,
            )
            for i, scale in enumerate(self.scales):
                root = find_root(self.cdf(float(scale)), float(scale), p, TINY)
                assert roots[i] == pytest.approx(root, rel=1e-14, abs=0)
                assert roots[i] == pytest.approx(-scale * math.log1p(-p), rel=1e-13)

    def test_negative_brackets(self):
        shifts = np.array([-3.0, -0.5, 0.25, 2.0])
        roots = _newton_bisection(
            lambda t: np.tanh(t - shifts),
            lambda t: 1.0 / np.cosh(t - shifts) ** 2,
            shifts - 1.5,
            shifts + 1.0,
            1e-14,
        )
        np.testing.assert_allclose(roots, shifts, rtol=0, atol=1e-13)

    def test_needs_derivative_and_sign_change(self):
        with pytest.raises(DomainError, match="fprime"):
            find_root(lambda x: x, np.ones(2), 0.5, 1e-12)
        with pytest.raises(NonConvergenceError):  # above the target throughout
            find_root(lambda x: x + 1.0, np.ones(2), 0.0, 1e-12, np.ones_like)
        with pytest.raises(NonConvergenceError):  # an array start must rise through it
            find_root(lambda x: 0.5 - x, np.ones(2), 0.0, 1e-12, lambda x: -np.ones_like(x))


class TestRngStream:
    def test_reproducible(self):
        a = rng_stream(42, 0).random(8)
        b = rng_stream(42, 0).random(8)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = rng_stream(42, 0).random(8)
        b = rng_stream(42, 1).random(8)
        assert not np.allclose(a, b)

    def test_uniform_mean(self):
        draws = rng_stream(7, 0).random(100_000)
        assert abs(draws.mean() - 0.5) < 0.005

    def test_gamma_variates_moment(self):
        # Gamma(shape 2, rate 3): mean 2/3, sd sqrt(2)/3
        n = 100_000
        draws = rng_stream(11, 2).gamma(shape=2.0, scale=1.0 / 3.0, size=n)
        tolerance = 3.0 * (math.sqrt(2.0) / 3.0) / math.sqrt(n)
        assert abs(draws.mean() - 2.0 / 3.0) < tolerance

    def test_poisson_variates_moment(self):
        n = 100_000
        draws = rng_stream(13, 5).poisson(4.0, size=n)
        assert abs(draws.mean() - 4.0) < 3.0 * 2.0 / math.sqrt(n)

    @pytest.mark.parametrize("seed", [1.5, math.nan, None, "abc"])
    def test_rejects_a_seed_that_is_no_whole_number(self, seed):
        with pytest.raises(DomainError):
            rng_stream(seed)
        with pytest.raises(DomainError):
            rng_stream(7, seed)

    def test_whole_number_forms_give_one_stream(self):
        draws = [rng_stream(seed).random(4) for seed in (7, 7.0, np.int64(7))]
        for other in draws[1:]:
            np.testing.assert_array_equal(other, draws[0])
        # a negative seed is taken modulo 2^64
        np.testing.assert_array_equal(
            rng_stream(-1).random(4), rng_stream(2**64 - 1).random(4)
        )

    @pytest.mark.parametrize("stream_id", [-1, -1.0])
    def test_rejects_a_negative_stream_id(self, stream_id):
        with pytest.raises(DomainError, match="stream_id"):
            rng_stream(1, stream_id)

    @pytest.mark.parametrize("stream_id", [0, 7.0, np.int64(7)])
    def test_stream_id_forms_keep_their_streams(self, stream_id):
        seq = np.random.SeedSequence(entropy=42, spawn_key=(int(stream_id),))
        expected = np.random.Generator(np.random.PCG64(seq)).random(4)
        np.testing.assert_array_equal(rng_stream(42, stream_id).random(4), expected)
