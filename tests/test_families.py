"""Tests for the concrete families: conjugation, posteriors, Tweedie form."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from expfam import (
    GammaFamily,
    GaussianLocationFamily,
    InverseGaussianFamily,
    PoissonExponentialFamily,
    ObservationBatch,
    conjugate_family,
    poisson_exponential_posterior,
)
from expfam.core import REAL_LINE, TAU
from expfam.distributions import _log_series_factor
from expfam.errors import DomainError, SupportError
from expfam.numerics import integrate
from expfam.saddlepoint import _log_profile, log_saddlepoint_unnormalized


class TestConjugateFamily:
    def test_gamma_self_conjugated(self):
        pair = conjugate_family(GammaFamily(2.0))
        assert isinstance(pair.dual, GammaFamily)
        assert pair.dual.alpha == 2.0
        assert pair.self_conjugate

    def test_inverse_gaussian_maps_to_poisson_exponential(self):
        pair = conjugate_family(InverseGaussianFamily(2.0))
        assert isinstance(pair.dual, PoissonExponentialFamily)
        assert pair.dual.kappa == 2.0
        assert not pair.self_conjugate

    def test_poisson_exponential_maps_back(self):
        pair = conjugate_family(PoissonExponentialFamily(3.0))
        assert isinstance(pair.dual, InverseGaussianFamily)

    def test_involution_on_kind(self):
        for family in (
            GammaFamily(1.0),
            GaussianLocationFamily(np.array([[2.0, 0.0], [0.0, 0.5]])),
            InverseGaussianFamily(1.5),
            PoissonExponentialFamily(0.7),
        ):
            twice = conjugate_family(conjugate_family(family).dual).dual
            assert type(twice) is type(family)

    def test_gaussian_dual_carries_inverse_covariance(self):
        B = np.array([[2.0, 0.0], [0.0, 0.5]])
        pair = conjugate_family(GaussianLocationFamily(B))
        assert pair.self_conjugate
        np.testing.assert_allclose(pair.dual._B, np.linalg.inv(B))

    def test_conjugate_cumulants_swap(self):
        # the dual's cumulant at x equals the primal's conjugate, up to the
        # sign flip of the natural parameter for the IG/compound pair
        family = PoissonExponentialFamily(2.0)
        dual = conjugate_family(family).dual
        for x in (0.4, 1.0, 2.5):
            assert family.convex_conjugate(x) == pytest.approx(
                dual.cumulant(-x), abs=1e-12
            )


class TestGammaDensity:
    """The family density at theta = -beta is the Gamma(alpha, beta) density."""

    def test_unit_exponential(self):
        assert GammaFamily(1.0).density(-1.0, 1.0) == pytest.approx(math.exp(-1.0))

    def test_mode_by_grid_search(self):
        xs = np.linspace(0.01, 2.0, 4000)
        values = [GammaFamily(2.0).density(-3.0, x) for x in xs]
        assert xs[int(np.argmax(values))] == pytest.approx(1.0 / 3.0, abs=1e-3)

    def test_integrates_to_one(self):
        for alpha, beta in ((0.7, 1.0), (2.0, 3.0), (5.0, 0.5)):
            mass = integrate(
                lambda x: GammaFamily(alpha).density(-beta, x),
                0.0,
                math.inf,
                tol=1e-11,
                points=[alpha / beta],
            )
            assert mass.value == pytest.approx(1.0, abs=1e-10)

    def test_support_error(self):
        with pytest.raises(SupportError):
            GammaFamily(1.0).density(-1.0, 0.0)


class TestTweedieVarianceFunction:
    """V(mu) = covariance(mle(mu)) = phi mu^(3/2), phi = 2^(3/2) kappa^(-1/2)."""

    @staticmethod
    def variance(kappa, mu):
        family = PoissonExponentialFamily(kappa)
        return family.covariance(family.mle(mu))

    def test_reference_value(self):
        # phi mu^(3/2) at kappa = 2 and mean 1
        assert self.variance(2.0, 1.0) == pytest.approx(2.0)

    def test_matches_covariance_route(self):
        for kappa in (0.5, 2.0, 7.0):
            for mu in (0.1, 1.0, 3.7):
                phi = 2.0**1.5 * kappa**-0.5
                assert self.variance(kappa, mu) == pytest.approx(phi * mu**1.5, rel=1e-12)

    def test_matches_finite_difference_hessian(self):
        family = PoissonExponentialFamily(2.0)
        theta, h = -1.3, 1e-4
        hessian = (
            family.cumulant(theta + h)
            - 2.0 * family.cumulant(theta)
            + family.cumulant(theta - h)
        ) / h**2
        mu = family.mean_from_natural(theta)
        assert self.variance(family.kappa, mu) == pytest.approx(hessian, rel=1e-6)

    def test_power_three_halves(self):
        kappa = 3.0
        v1 = self.variance(kappa, 1.0)
        v4 = self.variance(kappa, 4.0)
        assert v4 / v1 == pytest.approx(4.0**1.5, rel=1e-12)


class TestGammaPosterior:
    """The Jeffreys posterior of the Gamma rate is Gamma(m alpha, m xbar)."""

    def test_single_observation(self):
        post = GammaFamily(1.0).jeffreys_posterior(ObservationBatch(n=1, xbar=1.0)).rate
        assert post.shape == 1.0 and post.rate == 1.0

    def test_batch_formula(self):
        post = GammaFamily(2.0).jeffreys_posterior(ObservationBatch(n=3, xbar=0.5)).rate
        assert post.shape == 6.0 and post.rate == 1.5

    def test_matches_normalized_bayes_integrand(self):
        # posterior density == likelihood * jeffreys factor, normalized by
        # quadrature, pointwise on a rate grid
        alpha, m, xbar = 2.0, 3, 0.8
        family = GammaFamily(alpha)
        batch = ObservationBatch(n=m, xbar=xbar)
        post = family.jeffreys_posterior(batch).rate

        def unnormalized(theta):
            return math.exp(
                batch.n * (theta * batch.xbar - family.cumulant(theta))
                + family.log_jeffreys(theta)
            )

        # in the rate coordinate beta = -theta, split at the MLE
        norm = integrate(
            lambda b: unnormalized(-b), 0.0, math.inf, tol=1e-12,
            points=[-family.mle(xbar)],
        ).value
        for beta in np.geomspace(0.3, 8.0, 50):
            oracle = unnormalized(-beta) / norm
            assert math.exp(post.log_pdf(beta)) == pytest.approx(oracle, rel=1e-10)

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            GammaFamily(1.0).jeffreys_posterior(ObservationBatch(n=1, xbar=0.0))


class TestPoissonExponentialPosterior:
    def test_stated_parameters(self):
        post = poisson_exponential_posterior(2.0, ObservationBatch(n=1, xbar=2.0))
        assert post.mean == pytest.approx(math.sqrt(0.5), abs=1e-9)
        assert post.shape == 2.0

    def test_posterior_mean_by_quadrature(self):
        post = poisson_exponential_posterior(2.0, ObservationBatch(n=1, xbar=2.0))
        mean = integrate(
            lambda b: b * post.pdf(b), 0.0, math.inf, tol=1e-11, points=[post.mean]
        ).value
        assert mean == pytest.approx(post.mean, abs=1e-8)

    def test_matches_normalized_bayes_integrand(self):
        kappa, m, xbar = 2.0, 2, 1.3
        family = PoissonExponentialFamily(kappa)
        batch = ObservationBatch(n=m, xbar=xbar)
        post = poisson_exponential_posterior(kappa, batch)

        def unnormalized(theta):
            return math.exp(
                batch.n * (theta * batch.xbar - family.cumulant(theta))
                + family.log_jeffreys(theta)
            )

        # in the rate coordinate beta = -theta, split at the MLE
        norm = integrate(
            lambda b: unnormalized(-b), 0.0, math.inf, tol=1e-12,
            points=[-family.mle(xbar)],
        ).value
        for beta in np.geomspace(0.2, 5.0, 50):
            oracle = unnormalized(-beta) / norm
            assert post.pdf(beta) == pytest.approx(oracle, rel=1e-8)

    def test_concentrates_at_the_mle(self):
        # at m = 200 the posterior mode sits within 0.01 of beta_hat
        kappa, xbar = 2.0, 1.0
        beta_hat = math.sqrt(kappa / (2.0 * xbar))
        post = poisson_exponential_posterior(
            kappa, ObservationBatch(n=200, xbar=xbar)
        )
        grid = np.linspace(0.5 * beta_hat, 1.5 * beta_hat, 20001)
        mode = grid[int(np.argmax([post.log_pdf(b) for b in grid]))]
        assert abs(mode - beta_hat) < 0.01


class TestSelfConjugacyDefect:
    """A* = A o B^-1 characterizes the Gaussian location family of covariance B."""

    @staticmethod
    def defect(family, cov, grid):
        """The largest |A*(x) - A(B^-1 x)| over the grid points x."""
        B_inv = np.linalg.inv(np.atleast_2d(cov))
        worst = 0.0
        for x in grid:
            x = np.atleast_1d(x)
            mapped = B_inv @ x
            if family.d == 1:
                x, mapped = float(x[0]), float(mapped[0])
            worst = max(worst, abs(family.convex_conjugate(x) - family.cumulant(mapped)))
        return worst

    def test_identity_covariance(self):
        family = GaussianLocationFamily(1.0)
        grid = np.linspace(-3.0, 3.0, 25)
        assert self.defect(family, 1.0, grid) <= 1e-10

    def test_diagonal_covariance_two_dim(self):
        B = np.diag([2.0, 0.5])
        family = GaussianLocationFamily(B)
        grid = [np.array([x, y]) for x in (-2.0, 0.5, 1.5) for y in (-1.0, 0.3, 2.0)]
        assert self.defect(family, B, grid) <= 1e-9

    def test_gamma_negative_control(self):
        # the functional equation A* = A o B^-1 cannot hold for a half-line
        # cumulant domain and a positive map: B^-1 x > 0 leaves the natural
        # domain theta < 0 at every grid point
        family = GammaFamily(1.0)
        grid = np.linspace(0.5, 4.0, 9)
        for b in (0.5, 1.0, 2.0):
            with pytest.raises(DomainError):
                self.defect(family, b, grid)


# -- the validation contract: public methods check, kernels compute -----------

HALF_LINE = [GammaFamily(1.5), InverseGaussianFamily(2.0), PoissonExponentialFamily(2.0)]
WRAPPERS = [float, np.float64, np.array]
#: For each argument kind of a half-line family: its error, a value inside
#: and values of the right shape on the wrong side.
KINDS = {
    "natural": (DomainError, -1.0, (0.0, 1.0)),
    "mean": (DomainError, 1.5, (0.0, -1.0)),
    "support": (SupportError, 0.7, (-1.0,)),
}


def _good(family):
    """An in-domain (natural, mean, support) triple for ``family``."""
    if family.natural_domain != REAL_LINE:
        return tuple(KINDS[kind][1] for kind in ("natural", "mean", "support"))
    if family.d == 1:
        return 0.3, 0.4, -0.2
    return np.array([0.3, -0.2]), np.array([0.4, 0.1]), np.array([0.1, 0.2])


def _public_calls(family):
    """(label, kind, call of one value) for every argument of every closed form."""
    theta, _, x = _good(family)
    return [
        ("cumulant", "natural", family.cumulant),
        ("mean_from_natural", "natural", family.mean_from_natural),
        ("covariance", "natural", family.covariance),
        ("log_jeffreys", "natural", family.log_jeffreys),
        ("jeffreys_unnormalized", "natural", family.jeffreys_unnormalized),
        ("bregman/first", "natural", lambda v: family.bregman(v, theta)),
        ("bregman/second", "natural", lambda v: family.bregman(theta, v)),
        ("log_density/theta", "natural", lambda v: family.log_density(v, x)),
        ("mle", "mean", family.mle),
        ("convex_conjugate", "mean", family.convex_conjugate),
        ("log_carrier", "support", family.log_carrier),
        ("log_density/x", "support", lambda v: family.log_density(theta, v)),
    ]


def _assert_rejected(family, values):
    """Every public closed form raises its error for each of ``values(label, kind)``."""
    for label, kind, call in _public_calls(family):
        for bad in values(label, kind):
            with pytest.raises(KINDS[kind][0]):
                call(bad)
                pytest.fail(f"{label} of {family!r} accepted {bad!r}")


class TestValidationContract:
    @pytest.mark.parametrize("family", HALF_LINE + [GaussianLocationFamily(1.0)])
    def test_non_finite_rejected(self, family):
        _assert_rejected(
            family,
            lambda label, kind: [
                wrap(bad) for bad in (math.nan, math.inf, -math.inf) for wrap in WRAPPERS
            ],
        )

    @pytest.mark.parametrize("family", HALF_LINE)
    def test_wrong_sign_rejected(self, family):
        _assert_rejected(
            family,
            lambda label, kind: [wrap(bad) for bad in KINDS[kind][2] for wrap in WRAPPERS],
        )

    @pytest.mark.parametrize("family", HALF_LINE)
    def test_wrong_shape_rejected_at_d1(self, family):
        _assert_rejected(
            family,
            lambda label, kind: [
                np.full(shape, KINDS[kind][1]) for shape in ((2,), (1, 1), (2, 3))
            ],
        )

    def test_wrong_shape_rejected_at_d2(self):
        family = GaussianLocationFamily(np.diag([2.0, 0.5]))

        # one point has shape (2,); stacks, as (4, 2), are for the kernels only
        _assert_rejected(
            family,
            lambda label, kind: [1.0, np.ones(3), np.ones((2, 2)), np.ones((4, 3))],
        )

    @pytest.mark.parametrize(
        "cov",
        [
            math.inf,
            -math.inf,
            math.nan,
            [[1.0, math.inf], [math.inf, 1.0]],
            np.diag([1.0, math.nan]),
        ],
    )
    def test_non_finite_covariance_rejected(self, cov):
        # an infinite cov gave a ball centred at 0.0; nan was called asymmetric
        with pytest.raises(DomainError, match="cov must be finite"):
            GaussianLocationFamily(cov)

    def test_subnormal_covariance_rejected(self):
        # 1e-320 passed the eigenvalue check, with an infinite inverse and a
        # nan log carrier
        with pytest.raises(DomainError):
            GaussianLocationFamily(1e-320)

    @pytest.mark.parametrize("cov", ["abc", [[1.0, "x"], ["x", 1.0]], {}])
    def test_non_numeric_covariance_rejected(self, cov):
        # numpy's ValueError (or TypeError) reached the caller raw
        with pytest.raises(DomainError):
            GaussianLocationFamily(cov)

    @pytest.mark.parametrize("cov", [[[1.0, 2.0], [3.0, 4.0]], [[1.0, 0.0], [0.0, -1.0]]])
    def test_asymmetric_or_indefinite_covariance_rejected(self, cov):
        with pytest.raises(DomainError):
            GaussianLocationFamily(cov)

    def test_gamma_shape_past_lgamma_overflow_rejected(self):
        # lgamma(alpha) in the carrier raised a raw OverflowError above 2.56e305
        assert GammaFamily(2.5e305).alpha == 2.5e305
        with pytest.raises(DomainError):
            GammaFamily(2.6e305)

    def test_atom_and_length_one_vectors_are_points(self):
        assert PoissonExponentialFamily(2.0).log_carrier(np.array(0.0)) == 0.0
        for family in HALF_LINE + [GaussianLocationFamily(1.0)]:
            theta, _, x = _good(family)
            assert family.cumulant(np.array([theta])) == family.cumulant(theta)
            assert family.log_carrier([x]) == family.log_carrier(x)

    @settings(deadline=None, max_examples=80)
    @given(
        st.floats(1e-3, 1e3),
        st.floats(1e-3, 1e3),
        st.floats(1e-3, 1e3),
        st.sampled_from(WRAPPERS),
    )
    def test_kernels_equal_public_methods(self, a, b, c, wrap):
        """What an integrand computes equals the checked method, bit for bit."""
        families = HALF_LINE + [GaussianLocationFamily(1.0), GaussianLocationFamily(0.7)]
        for family in families:
            if family.natural_domain == REAL_LINE:
                theta, theta_hat, x = math.log(a), math.log(b), math.log(c)
            else:
                theta, theta_hat, x = -a, -b, c
            t, th, v = wrap(theta), wrap(theta_hat), wrap(x)
            assert family._cumulant(theta) == family.cumulant(t)
            assert family._mean_from_natural(theta) == family.mean_from_natural(t)
            assert family._log_jeffreys(theta) == family.log_jeffreys(t)
            assert family._bregman(theta, theta_hat) == family.bregman(t, th)
            assert family._mle(x) == family.mle(v)
            assert family._convex_conjugate(x) == family.convex_conjugate(v)
            assert family._log_carrier(x) == family.log_carrier(v)
            assert _log_profile(family, 3, theta_hat, theta) == (
                log_saddlepoint_unnormalized(family, 3, th, t)
            )
        assert _log_series_factor(a, c) == PoissonExponentialFamily(a).log_carrier(wrap(c))


def _decade(e):
    return 10.0**e


def _bits(f, *args):
    """f(*args) as its exact bits, or the type and message of what it raises."""
    try:
        return float(f(*args)).hex()
    except Exception as exc:  # both forms must raise alike
        return type(exc), str(exc)


class TestHoistedKernels:
    """Kernels that skip frames or take constants from __init__ keep their bits."""

    @staticmethod
    def _matrix_forms(family, x):
        # the Gaussian kernels' _mul/_dot forms, the carrier constants inline
        quad = family._dot(family._mul(family._inv_rows, x), x)
        return (
            0.5 * family._dot(family._mul(family._rows, x), x),
            family._mul(family._inv_rows, x),
            -0.5 * quad - 0.5 * family.d * math.log(TAU) - 0.5 * family._logdet,
        )

    @settings(deadline=None, max_examples=200)
    @given(shape=st.floats(1e-3, 1e4), x=st.floats(1e-300, 1e300))
    def test_hoisted_carrier_constants_equal_inline_forms(self, shape, x):
        gamma, ig = GammaFamily(shape), InverseGaussianFamily(shape)
        gaussian = GaussianLocationFamily(shape)
        assert gamma._log_carrier(x) == (shape - 1.0) * math.log(x) - math.lgamma(shape)
        assert ig._log_carrier(x) == 0.5 * (
            math.log(shape) - math.log(TAU) - 3.0 * math.log(x)
        ) - shape / (2.0 * x)
        assert gaussian._log_carrier(x) == (
            -0.5 * (gaussian._inv_rows[0][0] * x * x)
            - 0.5 * math.log(TAU)
            - 0.5 * gaussian._logdet
        )

    @pytest.mark.parametrize(
        "make", [GammaFamily, GaussianLocationFamily, InverseGaussianFamily,
                 PoissonExponentialFamily],
        ids=["gamma", "gaussian", "inverse-gaussian", "poisson-exp"],
    )
    @settings(deadline=None, max_examples=300)
    @given(
        shape=st.floats(1e-3, 1e4),
        n=st.integers(1, 10**9),
        k=st.integers(1, 3),
        x=st.one_of(st.sampled_from([0.0, 1e-300, 1e300]), st.floats(-300, 300).map(_decade)),
        s=st.one_of(
            st.sampled_from([0.0, 1e-300, 1e300, math.inf]), st.floats(-300, 300).map(_decade)
        ),
        negate=st.tuples(st.booleans(), st.booleans()),
    )
    # the Poisson-exponential carrier at y = 1.4e300, past 2 i1e(y)/y's underflow
    @example(shape=1e300, n=1, k=1, x=1e300, s=1e300, negate=(False, False))
    def test_conjugate_carrier_kernel_equals_the_call_chain(
        self, make, shape, n, k, x, s, negate
    ):
        # the one-frame kernel of the CNML normalizer gives the bits of
        # n A*(x) + ln h_k(s) through _convex_conjugate and the k-fold
        # _log_carrier, or raises what they raise, with the same message;
        # x runs over the mean domain, s over the support (s = 0 and s = inf
        # are QUADPACK's v = 0 and a v whose square overflows)
        family = make(shape)
        if family.mean_domain == REAL_LINE:
            x, s = (-x if negate[0] else x), (-s if negate[1] else s)
        assume(family.in_mean_domain(x))
        conv = family._convolution_family(k)
        kernel = family._conjugate_carrier_kernel(n, conv)

        def chain(x, s):
            return n * family._convex_conjugate(x) + conv._log_carrier(s)

        assert _bits(kernel, x, s) == _bits(chain, x, s)

    def test_gaussian_d2_kernels_keep_matrix_forms(self):
        family = GaussianLocationFamily([[2.0, 0.3], [0.3, 0.5]])
        for x in (np.array([0.7, -1.2]), np.array([[0.7, -1.2], [3.0, 1e-3]])):
            for got, want in zip(
                (family._cumulant(x), family._mle(x), family._log_carrier(x)),
                self._matrix_forms(family, x),
            ):
                assert np.array_equal(got, want)

    def test_set_params_rebuilds_the_constants(self):
        for family, name, value, fresh in (
            (GammaFamily(2.0), "alpha", 3.5, GammaFamily(3.5)),
            (InverseGaussianFamily(2.0), "kappa", 0.5, InverseGaussianFamily(0.5)),
            (GaussianLocationFamily(1.0), "cov", 4.0, GaussianLocationFamily(4.0)),
        ):
            family.set_params(**{name: value})
            assert family._log_carrier(1.3) == fresh._log_carrier(1.3)
            assert family._cumulant(-0.7) == fresh._cumulant(-0.7)
        with pytest.raises(DomainError):
            GammaFamily(2.0).set_params(alpha=-1.0)
