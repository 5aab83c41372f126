"""Tests for the Gamma/product/Fourier toolbox against independent oracles.

Oracles are scipy.special (loggamma, gamma, digamma) and closed-form
integrals with known antiderivatives; the module under test never calls
scipy.special for these quantities, so agreement is meaningful.
"""

import math

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from defectbethe import special_functions
from defectbethe.errors import NonConvergence, PoleError
from defectbethe.special_functions import (
    AmplitudeValue,
    GammaFactor,
    GammaProductSpec,
    fourier_log_integral,
    fourier_sine_integral,
    gamma_fn,
    gamma_product,
    gamma_products,
    inverse_fourier_even,
    log_gamma,
    verify_gamma_integral_identity,
)


# ---------------------------------------------------------------------------
# log_gamma / gamma_fn
# ---------------------------------------------------------------------------


def test_log_gamma_matches_scipy_on_grid():
    xs = np.linspace(-4.3, 6.2, 41)
    ys = np.linspace(-3.0, 3.0, 13)
    worst = 0.0
    for x in xs:
        for y in ys:
            z = complex(x, y)
            if min(abs(z + n) for n in range(8)) < 1e-2:
                continue  # skip pole neighborhoods
            ours = log_gamma(z)
            ref = sp.loggamma(z)
            worst = max(worst, abs(ours - ref))
    assert worst < 1e-11


def test_log_gamma_array_input():
    z = np.array([0.5 + 0.2j, 2.0 - 1.0j, -1.3 + 0.7j])
    out = log_gamma(z)
    assert out.shape == z.shape
    assert np.max(np.abs(out - sp.loggamma(z))) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    x=st.floats(min_value=0.1, max_value=8.0),
    y=st.floats(min_value=-4.0, max_value=4.0),
)
def test_gamma_recurrence(x, y):
    z = complex(x, y)
    lhs = gamma_fn(z + 1)
    rhs = z * gamma_fn(z)
    assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))


def test_gamma_fn_half_integer():
    assert abs(gamma_fn(0.5) - math.sqrt(math.pi)) < 1e-13
    assert abs(gamma_fn(5.0) - 24.0) < 1e-11


# ---------------------------------------------------------------------------
# AmplitudeValue / GammaProductSpec validation
# ---------------------------------------------------------------------------


def test_amplitude_value_rejects_nonfinite():
    with pytest.raises(ValueError):
        AmplitudeValue(value=complex(math.nan, 0.0), err=0.0, terms_used=1)
    with pytest.raises(ValueError):
        AmplitudeValue(value=1.0 + 0j, err=-1e-3, terms_used=1)
    with pytest.raises(ValueError):
        AmplitudeValue(value=1.0 + 0j, err=math.inf, terms_used=1)


def test_spec_rejects_unbalanced_signs():
    with pytest.raises(ValueError, match="unbalanced signs"):
        GammaProductSpec(factors=(
            GammaFactor(sign=+1, a=0.5, b=1.0),
            GammaFactor(sign=+1, a=1.5, b=1.0),
        ))


def test_spec_rejects_first_moment_mismatch():
    with pytest.raises(ValueError, match="first moment"):
        GammaProductSpec(factors=(
            GammaFactor(sign=+1, a=0.5, b=1.0),
            GammaFactor(sign=-1, a=0.9, b=1.0),
        ))


def test_spec_requires_renormalized_flag_for_second_moment():
    # m0 = m1 = 0 but m2 = 2 (a - s)^2 != 0
    factors = (
        GammaFactor(sign=+1, a=0.4, b=1.0),
        GammaFactor(sign=+1, a=1.4, b=1.0),
        GammaFactor(sign=-1, a=0.9, b=1.0),
        GammaFactor(sign=-1, a=0.9, b=1.0),
    )
    with pytest.raises(ValueError, match="renormalized"):
        GammaProductSpec(factors=factors)
    spec = GammaProductSpec(factors=factors, renormalized=True)
    assert abs(spec.renorm_coefficient() - 0.25) < 1e-12


def test_spec_rejects_bad_sign_and_step():
    with pytest.raises(ValueError, match="sign"):
        GammaProductSpec(factors=(GammaFactor(sign=2, a=0.5, b=1.0),))
    with pytest.raises(ValueError, match="step"):
        GammaProductSpec(factors=(GammaFactor(sign=1, a=0.5, b=-1.0),))
    with pytest.raises(ValueError, match="empty"):
        GammaProductSpec(factors=())


def test_gamma_product_pole_detection():
    # argument of the first factor hits -1 at k = 0 and 0 at k = 1
    factors = (
        GammaFactor(sign=+1, a=-1.0, b=1.0),
        GammaFactor(sign=+1, a=2.0, b=1.0),
        GammaFactor(sign=-1, a=0.5, b=1.0),
        GammaFactor(sign=-1, a=0.5, b=1.0),
    )
    spec = GammaProductSpec(factors=factors, renormalized=True)
    with pytest.raises(PoleError):
        gamma_product(spec)


def test_gamma_products_pole_in_grid():
    good = _ratio_spec(0.3, 1.1, 0.65, 0.75)
    pole = GammaProductSpec(factors=(
        GammaFactor(sign=+1, a=-1.0, b=1.0),
        GammaFactor(sign=+1, a=2.0, b=1.0),
        GammaFactor(sign=-1, a=0.5, b=1.0),
        GammaFactor(sign=-1, a=0.5, b=1.0),
    ), renormalized=True)
    with pytest.raises(PoleError):
        gamma_products([good, good, pole, good])


# ---------------------------------------------------------------------------
# gamma_product vs closed forms
# ---------------------------------------------------------------------------


def _ratio_spec(a, b, c, d):
    """prod_k (a+k)(b+k) / ((c+k)(d+k)) written through Gamma ratios."""
    return GammaProductSpec(factors=(
        GammaFactor(sign=+1, a=a, b=1.0, c=1.0),
        GammaFactor(sign=-1, a=a, b=1.0, c=0.0),
        GammaFactor(sign=+1, a=b, b=1.0, c=1.0),
        GammaFactor(sign=-1, a=b, b=1.0, c=0.0),
        GammaFactor(sign=+1, a=c, b=1.0, c=0.0),
        GammaFactor(sign=-1, a=c, b=1.0, c=1.0),
        GammaFactor(sign=+1, a=d, b=1.0, c=0.0),
        GammaFactor(sign=-1, a=d, b=1.0, c=1.0),
    ))


def test_gamma_product_rational_ratio_closed_form():
    # For a+b = c+d:  prod_k (a+k)(b+k)/((c+k)(d+k)) = Gamma(c)Gamma(d)/(Gamma(a)Gamma(b))
    a, b, c, d = 0.3, 1.1, 0.65, 0.75
    assert abs((a + b) - (c + d)) < 1e-15
    out = gamma_product(_ratio_spec(a, b, c, d), tol=1e-13)
    expected = sp.gamma(c) * sp.gamma(d) / (sp.gamma(a) * sp.gamma(b))
    assert abs(out.value - expected) < 1e-11
    assert abs(out.value - expected) < 20 * max(out.err, 1e-14)


def test_gamma_product_complex_arguments():
    # same telescoping identity, complex a
    a, b = 0.3 + 0.4j, 1.1 - 0.4j
    c, d = 0.65, 0.75
    spec = GammaProductSpec(factors=(
        GammaFactor(sign=+1, a=a, b=1.0, c=1.0),
        GammaFactor(sign=-1, a=a, b=1.0, c=0.0),
        GammaFactor(sign=+1, a=b, b=1.0, c=1.0),
        GammaFactor(sign=-1, a=b, b=1.0, c=0.0),
        GammaFactor(sign=+1, a=c, b=1.0, c=0.0),
        GammaFactor(sign=-1, a=c, b=1.0, c=1.0),
        GammaFactor(sign=+1, a=d, b=1.0, c=0.0),
        GammaFactor(sign=-1, a=d, b=1.0, c=1.0),
    ))
    out = gamma_product(spec, tol=1e-13)
    expected = sp.gamma(c) * sp.gamma(d) / (sp.gamma(a) * sp.gamma(b))
    assert abs(out.value - expected) < 1e-10


def test_gamma_product_renormalized_vs_brute_force():
    """Compensated product vs direct partial sums with digamma counterterm.

    The module grows K adaptively and closes the tail analytically; the
    oracle here just sums a lot of terms and Richardson-extrapolates the
    leftover 1/K drift.  Agreement to 1e-8 on independent routes.
    """
    a, s = 0.4, 0.9
    factors = (
        GammaFactor(sign=+1, a=a, b=1.0),
        GammaFactor(sign=+1, a=2 * s - a, b=1.0),
        GammaFactor(sign=-1, a=s, b=1.0),
        GammaFactor(sign=-1, a=s, b=1.0),
    )
    spec = GammaProductSpec(factors=factors, renormalized=True)
    c1 = spec.renorm_coefficient()
    assert abs(c1 - (a - s) ** 2) < 1e-12

    def brute_log(K):
        k = np.arange(K)
        total = (sp.loggamma(a + k) + sp.loggamma(2 * s - a + k)
                 - 2.0 * sp.loggamma(s + k))
        return np.sum(total) - c1 * sp.digamma(K)

    f1, f2 = brute_log(4000), brute_log(8000)
    oracle = math.exp(2.0 * f2 - f1)  # kills the O(1/K) remainder

    out = gamma_product(spec, tol=1e-12)
    assert abs(out.value - oracle) < 1e-8


# ---------------------------------------------------------------------------
# Fourier helpers vs closed-form integrals
# ---------------------------------------------------------------------------


def test_fourier_sine_integral_exponential_kernel():
    # int_0^inf e^{-a w} sin(b w)/w dw = atan(b/a)
    a = 0.7
    for b in (0.0, 0.3, 1.0, 2.5, 7.0):
        val, err, evals = fourier_sine_integral(
            lambda w: math.exp(-a * w), b, tol=1e-11)
        assert abs(val - math.atan2(b, a)) < 1e-9
        assert err < 1e-6
        assert evals > 0


def test_fourier_sine_integral_odd_in_lambda():
    kern = lambda w: 1.0 / (2.0 * math.cosh(0.5 * w))
    vp, _, _ = fourier_sine_integral(kern, 1.3)
    vm, _, _ = fourier_sine_integral(kern, -1.3)
    assert abs(vp + vm) < 1e-10


def test_fourier_log_integral_is_phase():
    kern = lambda w: math.exp(-0.9 * w)
    out = fourier_log_integral(kern, 1.7)
    assert isinstance(out, AmplitudeValue)
    assert abs(abs(out.value) - 1.0) < 1e-9
    expected = complex(np.exp(2j * math.atan2(1.7, 0.9)))
    assert abs(out.value - expected) < 1e-8


def test_inverse_fourier_even_sech_pair():
    # (1/pi) int_0^inf cos(w x) / (2 cosh(w/2)) dw = 1 / (2 cosh(pi x))
    kern = lambda w: 1.0 / (2.0 * math.cosh(0.5 * w))
    for x in (0.0, 0.4, 1.1, 2.6):
        val, err = inverse_fourier_even(kern, x, tol=1e-11)
        assert abs(val - 0.5 / math.cosh(math.pi * x)) < 1e-9


def test_fourier_routes_raise_on_quad_failure(monkeypatch):
    msg = "The maximum number of subdivisions (600) has been achieved."

    def failing_quad(*args, **kwargs):
        # quad's full_output form when ier != 0: the message is appended
        return 0.1, 1e-3, {"neval": 12600, "last": 600}, msg

    monkeypatch.setattr(special_functions, "quad", failing_quad)
    kern = lambda w: math.exp(-0.9 * w)
    with pytest.raises(NonConvergence, match="maximum number of subdivisions"):
        fourier_sine_integral(kern, 1.3)
    with pytest.raises(NonConvergence, match="maximum number of subdivisions"):
        inverse_fourier_even(kern, 0.4)
    with pytest.raises(NonConvergence, match="maximum number of subdivisions"):
        verify_gamma_integral_identity("use1", 1.0)
    with pytest.raises(NonConvergence, match="maximum number of subdivisions"):
        verify_gamma_integral_identity("use2", 1.3, 1.0)


def test_fourier_requires_decaying_kernel():
    with pytest.raises(NonConvergence):
        fourier_sine_integral(lambda w: 1.0, 1.0)


# ---------------------------------------------------------------------------
# cross-identities between integral and product representations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mu", [0.2, 1.0, 3.7, 8.4])
def test_exponential_integral_identity_one_variable(mu):
    assert verify_gamma_integral_identity("use1", mu) < 1e-9


@pytest.mark.parametrize("mu,beta", [(0.5, 0.8), (1.3, 1.0), (2.4, 2.1)])
def test_exponential_integral_identity_two_variable(mu, beta):
    assert verify_gamma_integral_identity("use2", mu, beta) < 1e-7


def test_identity_kind_validation():
    with pytest.raises(ValueError):
        verify_gamma_integral_identity("use3", 1.0)
    with pytest.raises(ValueError):
        verify_gamma_integral_identity("use1", -2.0)
    with pytest.raises(ValueError):
        verify_gamma_integral_identity("use2", 1.0)  # missing beta
