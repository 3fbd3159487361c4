"""Tests for the generic exponential-family machinery.

The closed forms of each family are audited against finite differences,
quadrature of the densities, and the convex-duality identities
(Fenchel-Young, biconjugation, the KL/Bregman swap).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq  # the oracle root finder

from expfam import (
    GammaFamily,
    GaussianLocationFamily,
    InverseGaussianFamily,
    PoissonExponentialFamily,
    ObservationBatch,
    TAU,
)
from expfam.errors import DomainError, SupportError
from expfam.numerics import integrate
from support_quadrature import integrate_over_support


def one_dim_families():
    return [
        GammaFamily(1.0),
        GammaFamily(2.5),
        GaussianLocationFamily(1.0),
        InverseGaussianFamily(2.0),
        PoissonExponentialFamily(2.0),
    ]


def random_theta(family, rng):
    if isinstance(family, GaussianLocationFamily):
        return float(rng.normal(0.0, 1.5))
    return -float(rng.uniform(0.2, 4.0))


def test_tau_is_two_pi():
    assert TAU == 2.0 * math.pi


class TestCumulant:
    def test_gamma_at_unit_rate(self):
        assert GammaFamily(1.0).cumulant(-1.0) == 0.0

    def test_inverse_gaussian_sign_convention(self):
        # convex branch: A(theta) = -sqrt(-2 kappa theta)
        assert InverseGaussianFamily(2.0).cumulant(-2.0) == pytest.approx(
            -2.828427125, abs=1e-9
        )

    def test_gaussian_at_origin(self):
        assert GaussianLocationFamily(1.0).cumulant(0.0) == 0.0

    def test_poisson_exponential(self):
        assert PoissonExponentialFamily(2.0).cumulant(-1.0) == pytest.approx(1.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            GammaFamily(1.0).cumulant(0.5)
        with pytest.raises(DomainError):
            InverseGaussianFamily(1.0).cumulant(0.0)


class TestMeanMap:
    def test_gamma_closed_form(self):
        assert GammaFamily(1.0).mean_from_natural(-0.5) == pytest.approx(2.0)

    def test_gaussian_identity(self):
        assert GaussianLocationFamily(1.0).mean_from_natural(0.7) == pytest.approx(0.7)

    def test_poisson_exponential_finite_difference(self):
        # derivative of kappa/(2 beta) in theta = -beta
        family = PoissonExponentialFamily(2.0)
        theta, h = -1.0, 1e-6
        numeric = (family.cumulant(theta + h) - family.cumulant(theta - h)) / (2 * h)
        assert family.mean_from_natural(theta) == pytest.approx(1.0)
        assert family.mean_from_natural(theta) == pytest.approx(numeric, rel=1e-6)

    def test_gradient_check_all_families(self):
        rng = np.random.default_rng(31)
        for family in one_dim_families():
            for _ in range(50):
                theta = random_theta(family, rng)
                h = 1e-6 * max(1.0, abs(theta))
                numeric = (
                    family.cumulant(theta + h) - family.cumulant(theta - h)
                ) / (2 * h)
                assert family.mean_from_natural(theta) == pytest.approx(
                    numeric, rel=1e-6
                ), family


class TestCovariance:
    def test_gamma_variance(self):
        assert GammaFamily(2.0).covariance(-1.0) == pytest.approx(2.0)

    def test_gaussian_constant(self):
        B = np.array([[2.0, 0.3], [0.3, 0.5]])
        family = GaussianLocationFamily(B)
        np.testing.assert_allclose(family.covariance(np.array([0.1, -1.0])), B)

    def test_inverse_gaussian_variance_function(self):
        # V(mu) = mu^3 / kappa along the mean parametrization
        family = InverseGaussianFamily(2.0)
        for theta in (-0.3, -1.0, -2.7):
            mu = family.mean_from_natural(theta)
            assert family.covariance(theta) == pytest.approx(
                mu**3 / family.kappa, rel=1e-12
            )

    def test_hessian_check_all_families(self):
        rng = np.random.default_rng(32)
        for family in one_dim_families():
            for _ in range(20):
                theta = random_theta(family, rng)
                h = 1e-4 * max(1.0, abs(theta))
                numeric = (
                    family.mean_from_natural(theta + h)
                    - family.mean_from_natural(theta - h)
                ) / (2 * h)
                assert family.covariance(theta) == pytest.approx(
                    numeric, rel=1e-5
                ), family


class TestMle:
    def test_gamma_closed_form(self):
        assert GammaFamily(1.0).mle(2.0) == pytest.approx(-0.5)

    def test_gaussian_self_dual(self):
        assert GaussianLocationFamily(1.0).mle(1.3) == pytest.approx(1.3)

    def test_poisson_exponential_vs_root_finder(self):
        family = PoissonExponentialFamily(2.0)
        assert family.mle(1.0) == pytest.approx(-1.0)
        for xbar in (0.3, 1.0, 4.2):
            oracle = brentq(
                lambda t: family.mean_from_natural(t) - xbar, -50.0, -1e-4, xtol=1e-13
            )
            assert family.mle(xbar) == pytest.approx(oracle, rel=1e-10)

    def test_mle_inverts_mean_map(self):
        rng = np.random.default_rng(33)
        for family in one_dim_families():
            for _ in range(10):
                theta = random_theta(family, rng)
                mu = family.mean_from_natural(theta)
                assert family.mle(mu) == pytest.approx(theta, rel=1e-10)

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            GammaFamily(1.0).mle(0.0)
        with pytest.raises(DomainError):
            PoissonExponentialFamily(2.0).mle(-1.0)


class TestBregman:
    def test_zero_on_diagonal(self):
        for family in one_dim_families():
            theta = -1.3 if not isinstance(family, GaussianLocationFamily) else 0.4
            assert family.bregman(theta, theta) == 0.0

    def test_gamma_itakura_saito_value(self):
        # alpha (t2/t1 - 1 - ln(t2/t1)) at t2/t1 = 2
        assert GammaFamily(1.0).bregman(-2.0, -1.0) == pytest.approx(
            1.0 - math.log(2.0), abs=1e-12
        )

    def test_gaussian_quadratic(self):
        family = GaussianLocationFamily(1.0)
        assert family.bregman(1.7, 0.2) == pytest.approx(0.5 * 1.5**2)

    @settings(deadline=None, max_examples=60)
    @given(
        t2=st.floats(min_value=-6.0, max_value=-0.05),
        t1=st.floats(min_value=-6.0, max_value=-0.05),
    )
    def test_nonnegative_zero_iff_equal(self, t2, t1):
        family = GammaFamily(1.5)
        div = family.bregman(t2, t1)
        assert div >= 0.0
        if abs(t2 - t1) > 1e-6:
            assert div > 0.0
        if t2 == t1:
            assert div <= 1e-12


class TestKlDivergence:
    def test_exponential_pair_closed_form(self):
        # KL(Exp(1) || Exp(2)) = ln(1/2) + 2/1 - 1 = 1 - ln 2
        family = GammaFamily(1.0)
        assert family.kl_divergence(-1.0, -2.0) == pytest.approx(
            1.0 - math.log(2.0), abs=1e-12
        )

    def test_exponential_pair_quadrature(self):
        oracle = integrate(
            lambda x: math.exp(-x) * (x - math.log(2.0)), 0.0, math.inf, tol=1e-12
        ).value
        assert GammaFamily(1.0).kl_divergence(-1.0, -2.0) == pytest.approx(
            oracle, abs=1e-10
        )

    def test_equal_parameters(self):
        assert GaussianLocationFamily(1.0).kl_divergence(0.3, 0.3) == 0.0

    def test_gaussian_half_square(self):
        assert GaussianLocationFamily(1.0).kl_divergence(0.0, 1.0) == pytest.approx(0.5)

    def _quadrature_kl(self, family, theta1, theta2):
        total = 0.0
        if family.has_atom:
            p1 = family.density(theta1, family.atom_point)
            p2 = family.density(theta2, family.atom_point)
            total += p1 * math.log(p1 / p2)

        def integrand(x):
            log1 = family.log_density(theta1, x)
            log2 = family.log_density(theta2, x)
            return math.exp(log1) * (log1 - log2)

        split = family.mean_from_natural(theta1)
        total += integrate_over_support(
            family, integrand, tol=1e-11, split=split
        ).value
        return total

    def test_kl_bregman_identity_by_quadrature(self):
        rng = np.random.default_rng(34)
        for family in one_dim_families():
            for _ in range(3):
                theta1 = random_theta(family, rng)
                theta2 = random_theta(family, rng)
                oracle = self._quadrature_kl(family, theta1, theta2)
                assert family.kl_divergence(theta1, theta2) == pytest.approx(
                    oracle, abs=1e-8
                ), family


class TestConvexConjugate:
    def test_gamma_closed_form(self):
        assert GammaFamily(1.0).convex_conjugate(1.0) == pytest.approx(-1.0)

    def test_inverse_gaussian_closed_form(self):
        # A*(beta) = kappa / (2 beta)
        assert InverseGaussianFamily(2.0).convex_conjugate(1.0) == pytest.approx(1.0)

    def test_gaussian_self_conjugate(self):
        family = GaussianLocationFamily(1.0)
        for x in (-2.0, 0.3, 1.7):
            assert family.convex_conjugate(x) == pytest.approx(0.5 * x * x)

    def test_fenchel_equality_at_mean(self):
        rng = np.random.default_rng(35)
        for family in one_dim_families():
            for _ in range(20):
                theta = random_theta(family, rng)
                mu = family.mean_from_natural(theta)
                lhs = family.cumulant(theta) + family.convex_conjugate(mu)
                assert lhs == pytest.approx(theta * mu, abs=1e-10), family

    def test_fenchel_young_inequality(self):
        rng = np.random.default_rng(36)
        for family in one_dim_families():
            for _ in range(30):
                theta = random_theta(family, rng)
                if isinstance(family, GaussianLocationFamily):
                    x = float(rng.normal(0.0, 2.0))
                else:
                    x = float(rng.uniform(0.1, 5.0))
                gap = family.cumulant(theta) + family.convex_conjugate(x) - theta * x
                assert gap >= -1e-10, family

    def test_double_conjugation_recovers_cumulant(self):
        # A**(theta) computed through the mle machinery: solve grad A*(x) =
        # theta numerically, then theta x - A*(x) should reproduce A(theta)
        rng = np.random.default_rng(37)
        for family in one_dim_families():
            for _ in range(5):
                theta = random_theta(family, rng)
                if isinstance(family, GaussianLocationFamily):
                    lo, hi = -50.0, 50.0
                else:
                    lo, hi = 1e-6, 1e4
                x_star = brentq(lambda x: family.mle(x) - theta, lo, hi, xtol=1e-13)
                biconjugate = theta * x_star - family.convex_conjugate(x_star)
                assert biconjugate == pytest.approx(
                    family.cumulant(theta), abs=1e-8
                ), family


class TestJeffreysFactor:
    def test_gamma_closed_form(self):
        # sqrt(alpha)/beta
        family = GammaFamily(2.0)
        assert family.jeffreys_unnormalized(-0.5) == pytest.approx(
            math.sqrt(2.0) / 0.5
        )

    def test_poisson_exponential_closed_form(self):
        # sqrt(kappa / beta^3)
        family = PoissonExponentialFamily(2.0)
        assert family.jeffreys_unnormalized(-2.0) == pytest.approx(
            math.sqrt(2.0 / 8.0)
        )

    def test_gaussian_constant(self):
        family = GaussianLocationFamily(1.0)
        assert family.jeffreys_unnormalized(0.0) == 1.0
        assert family.jeffreys_unnormalized(3.0) == 1.0

    def test_log_matches_linear(self):
        for family in one_dim_families():
            theta = 0.4 if isinstance(family, GaussianLocationFamily) else -0.7
            assert family.log_jeffreys(theta) == pytest.approx(
                math.log(family.jeffreys_unnormalized(theta)), abs=1e-12
            )


class TestLogDensity:
    def test_gamma_near_boundary(self):
        # Exp(2) density tends to 2 as x -> 0+
        family = GammaFamily(1.0)
        assert family.density(-2.0, 1e-12) == pytest.approx(2.0, rel=1e-9)

    def test_gaussian_standard_at_zero(self):
        family = GaussianLocationFamily(1.0)
        assert family.log_density(0.0, 0.0) == pytest.approx(
            math.log(1.0 / math.sqrt(TAU)), abs=1e-12
        )

    def test_density_above_the_float_range(self):
        # det(cov)^(-1/2) is 1e450 here; exp raised a raw OverflowError
        family = GaussianLocationFamily(np.eye(3) * 1e-300)
        assert family.log_density(np.zeros(3), np.zeros(3)) > 709.0
        with pytest.raises(DomainError, match="density above the float range"):
            family.density(np.zeros(3), np.zeros(3))

    def test_support_errors(self):
        with pytest.raises(SupportError):
            GammaFamily(1.0).log_density(-1.0, 0.0)
        with pytest.raises(SupportError):
            InverseGaussianFamily(1.0).log_density(-1.0, -0.3)
        with pytest.raises(SupportError):
            PoissonExponentialFamily(1.0).log_density(-1.0, -0.1)

    @pytest.mark.parametrize(
        "family,thetas",
        [
            (GammaFamily(0.5), (-0.5, -2.0)),
            (GammaFamily(1.0), (-1.0,)),
            (GammaFamily(2.5), (-0.5, -3.0)),
            (GaussianLocationFamily(1.0), (-1.0, 0.8)),
            (InverseGaussianFamily(0.5), (-0.4, -2.0)),
            (InverseGaussianFamily(2.0), (-1.0,)),
            (PoissonExponentialFamily(0.5), (-0.5, -2.0)),
            (PoissonExponentialFamily(2.0), (-1.0,)),
        ],
    )
    def test_densities_integrate_to_one(self, family, thetas):
        for theta in thetas:
            mass = 0.0
            if family.has_atom:
                mass += family.density(theta, family.atom_point)
            split = family.mean_from_natural(theta)
            mass += integrate_over_support(
                family,
                lambda x: family.density(theta, x),
                tol=1e-11,
                split=split,
            ).value
            assert mass == pytest.approx(1.0, abs=1e-9)


class TestRobustnessRatio:
    def test_at_the_mle(self):
        for family in one_dim_families():
            x = 0.8 if not isinstance(family, GaussianLocationFamily) else -0.4
            theta_hat = family.mle(x)
            assert family.robustness_ratio(theta_hat, x) == pytest.approx(1.0)

    def test_gamma_value(self):
        # exp(-(2 - 1 - ln 2)) = 2/e
        assert GammaFamily(1.0).robustness_ratio(-2.0, 1.0) == pytest.approx(
            2.0 * math.exp(-1.0), abs=1e-12
        )

    def test_gaussian_closed_form(self):
        family = GaussianLocationFamily(1.0)
        for theta, x in ((0.0, 1.0), (-1.2, 0.4)):
            assert family.robustness_ratio(theta, x) == pytest.approx(
                math.exp(-0.5 * (theta - x) ** 2)
            )

    def test_equals_density_ratio(self):
        rng = np.random.default_rng(38)
        for family in one_dim_families():
            for _ in range(10):
                theta = random_theta(family, rng)
                if isinstance(family, GaussianLocationFamily):
                    x = float(rng.normal(0.0, 2.0))
                else:
                    x = float(rng.uniform(0.1, 5.0))
                theta_hat = family.mle(x)
                ratio = math.exp(
                    family.log_density(theta, x) - family.log_density(theta_hat, x)
                )
                assert family.robustness_ratio(theta, x) == pytest.approx(
                    ratio, abs=1e-10
                ), family


class TestObservationBatch:
    def test_from_observations(self):
        batch = ObservationBatch.from_observations([1.0, 2.0, 3.0])
        assert batch.n == 3
        assert batch.xbar == 2.0

    def test_size_validated(self):
        with pytest.raises(DomainError):
            ObservationBatch(n=0, xbar=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 2.7, np.float64(0.5)])
    def test_size_must_be_whole(self, bad):
        # int(nan) leaked a raw ValueError, int(inf) an OverflowError, and 2.7
        # was truncated to 2
        with pytest.raises(DomainError):
            ObservationBatch(n=bad, xbar=1.0)

    @pytest.mark.parametrize("n", [3, 3.0, np.int64(3), np.float64(3.0), 10**20])
    def test_integral_size_accepted(self, n):
        batch = ObservationBatch(n=n, xbar=1.0)
        assert batch.n == int(n) and type(batch.n) is int

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_mean_rejected(self, bad):
        # the batch is where a mean enters; constructions take its xbar unchecked
        with pytest.raises(DomainError):
            ObservationBatch(n=2, xbar=bad)
        with pytest.raises(DomainError):
            ObservationBatch(n=2, xbar=np.array([0.5, bad, 1.0]))
        with pytest.raises(DomainError):
            ObservationBatch(n=2, xbar=np.array([[0.5, 1.0], [bad, 1.0]]))


class TestEstimatorParams:
    def test_get_params(self):
        family = GammaFamily(2.0)
        assert family.get_params() == {"alpha": 2.0}

    def test_set_params_round_trip(self):
        family = GammaFamily(2.0)
        family.set_params(alpha=3.0)
        assert family.alpha == 3.0
        with pytest.raises(DomainError):
            family.set_params(beta=1.0)

    def test_repr_mentions_params(self):
        assert "kappa=2.0" in repr(PoissonExponentialFamily(2.0))


class TestGaussianMultivariate:
    def test_cumulant_and_mle(self):
        B = np.array([[2.0, 0.5], [0.5, 1.0]])
        family = GaussianLocationFamily(B)
        theta = np.array([0.3, -0.7])
        assert family.cumulant(theta) == pytest.approx(0.5 * theta @ B @ theta)
        mu = family.mean_from_natural(theta)
        np.testing.assert_allclose(family.mle(mu), theta, rtol=1e-12)

    def test_density_integrates_to_one(self):
        B = np.array([[1.5, 0.2], [0.2, 0.4]])
        family = GaussianLocationFamily(B)
        theta = np.array([0.1, 0.5])
        mu = family.mean_from_natural(theta)
        sds = np.sqrt(np.diag(B))
        inner = lambda y, x: family.density(theta, np.array([x, y]))
        from scipy.integrate import dblquad

        mass, _ = dblquad(
            inner,
            mu[0] - 10 * sds[0],
            mu[0] + 10 * sds[0],
            lambda x: mu[1] - 10 * sds[1],
            lambda x: mu[1] + 10 * sds[1],
            epsabs=1e-10,
        )
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_invalid_covariance_rejected(self):
        with pytest.raises(DomainError):
            GaussianLocationFamily(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(DomainError):
            GaussianLocationFamily(np.array([[1.0, 0.5], [0.2, 1.0]]))
