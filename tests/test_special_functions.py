"""Tests for the Gamma/product/Fourier toolbox against independent oracles.

Oracles are scipy.special (loggamma, gamma, zeta) and closed-form
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
from defectbethe.amplitudes import (
    corrigan_product_spec,
    kink_product_spec,
    transmission_product_spec_attractive,
    transmission_product_spec_repulsive,
)
from defectbethe.errors import NonConvergence, PoleError
from defectbethe.special_functions import (
    AmplitudeValue,
    GammaProductSpec,
    fourier_log_integral,
    fourier_sine_integral,
    gamma_product,
    gamma_products,
    identity_use1_residual,
    identity_use2_residual,
    log_gamma,
)


# ---------------------------------------------------------------------------
# log_gamma
# ---------------------------------------------------------------------------


def gamma_fn(z):
    return np.exp(log_gamma(z))


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
        GammaProductSpec(signs=(+1, +1), offsets=(0.5, 1.5), step=1.0)


def test_spec_rejects_first_moment_mismatch():
    with pytest.raises(ValueError, match="first moment"):
        GammaProductSpec(signs=(+1, -1), offsets=(0.5, 0.9), step=1.0)


def test_spec_rejects_second_moment_mismatch():
    # m0 = m1 = 0 but m2 = 2 (a - s)^2 != 0
    with pytest.raises(ValueError, match="second moment"):
        GammaProductSpec(signs=(+1, +1, -1, -1), offsets=(0.4, 1.4, 0.9, 0.9),
                         step=1.0)


def test_spec_rejects_bad_sign_and_step():
    with pytest.raises(ValueError, match="sign"):
        GammaProductSpec(signs=(2,), offsets=(0.5,), step=1.0)
    with pytest.raises(ValueError, match="step"):
        GammaProductSpec(signs=(1,), offsets=(0.5,), step=-1.0)
    with pytest.raises(ValueError, match="empty"):
        GammaProductSpec(signs=(), offsets=(), step=1.0)
    with pytest.raises(ValueError, match="shorter"):
        GammaProductSpec(signs=(+1, -1), offsets=(0.5,), step=1.0)


def _pole_spec(d):
    """prod_k (d+k)(1+k) / ((1/2+k)(1/2+d+k)) as a balanced ladder; its
    arguments d + k and d + 1 + k hit poles for integer d <= 0."""
    return _ratio_spec(d, 1.0, 0.5, 0.5 + d)


def test_gamma_product_pole_detection():
    # argument of the first factor hits -1 at k = 0 and 0 at k = 1
    with pytest.raises(PoleError):
        gamma_product(_pole_spec(-1.0))


def test_gamma_products_pole_in_grid():
    good = _ratio_spec(0.3, 1.1, 0.65, 0.75)
    with pytest.raises(PoleError):
        gamma_products([good, good, _pole_spec(-1.0), good])


@pytest.mark.parametrize("spec, K", [
    # a pole at k = 15; q = 400/K stays above 1/4 up to K = 1024, so
    # the tail settles on K = 2048
    (GammaProductSpec(signs=(+1, -1, +1, -1),
                      offsets=(-15.0, -15.0, 400.0, 400.0), step=1.0), 2048),
    # every moment vanishes, so the tail accepts K = 64 at q = 16/64 = 1/4,
    # the largest q it allows; the pole at k = 15 is still in the block
    (GammaProductSpec(signs=(+1, -1, +1, -1),
                      offsets=(-15.0, -15.0, 16.0, 16.0), step=1.0), 64),
])
def test_gamma_products_deep_pole(spec, K):
    assert special_functions._choose_terms(spec)[0] == K
    with pytest.raises(PoleError):
        gamma_product(spec)
    good = _ratio_spec(0.3, 1.1, 0.65, 0.75)
    with pytest.raises(PoleError):
        gamma_products([good, spec, good])


# ---------------------------------------------------------------------------
# Stirling tail vs the hand-expanded table it replaced
# ---------------------------------------------------------------------------


def _tail_table(spec, K):
    """The tail through k^-7 as six hand-expanded rows, and its trunc."""
    b, d = spec.step, spec.offsets
    m2, m3, m4, m5, m6, m7, m8 = (
        sum(s * x ** j for s, x in zip(spec.signs, d))
        for j in range(2, 9))
    s = {j: float(sp.zeta(j, K)) for j in range(2, 8)}
    tail = (m2 / 4.0 - m3 / 6.0) / b**2 * s[2]
    tail += (m2 / 12.0 + m4 / 12.0 - m3 / 6.0) / b**3 * s[3]
    tail += (-m5 / 20.0 + m4 / 8.0 - m3 / 12.0) / b**4 * s[4]
    tail += (m6 / 30.0 - m5 / 10.0 + m4 / 12.0 - m2 / 60.0) / b**5 * s[5]
    t6 = (-6 * m7 + 21 * m6 - 21 * m5 + 7 * m3) / 252.0 / b**6 * s[6]
    t7 = (3 * m8 - 12 * m7 + 14 * m6 - 7 * m4 + 2 * m2) / 168.0 / b**7 * s[7]
    q = max(abs(x) for x in d) / (b * K)
    return tail + t6 + t7, (abs(t6) + abs(t7)) * max(q, 0.05) / max(1.0 - q, 0.5)


@pytest.mark.parametrize("K", [64, 512, 4096])
def test_stirling_tail_matches_hand_expanded_table(K):
    g = 0.6
    specs = []
    for lam in (-2.3, -0.4, 0.7, 1.9):
        specs += [
            kink_product_spec(1j * lam, g),
            transmission_product_spec_repulsive(1j * 5.0 / 3.0 * lam,
                                                5.0 / 3.0, 1.25, 0),
            transmission_product_spec_attractive(1j * lam, g, 0.8, 0),
            corrigan_product_spec(1j * lam - 0.3, 1j * lam + 0.5, g),
        ]
    for spec in specs:
        tail, trunc, _ = special_functions._tail_correction(
            spec.tail_moments(), K)
        ref_tail, ref_trunc = _tail_table(spec, K)
        assert abs(tail - ref_tail) <= 1e-14 * abs(ref_tail)
        assert abs(trunc - ref_trunc) <= 1e-12 * ref_trunc


# ---------------------------------------------------------------------------
# gamma_product vs closed forms
# ---------------------------------------------------------------------------


def _ratio_spec(a, b, c, d):
    """prod_k (a+k)(b+k) / ((c+k)(d+k)) written through Gamma ratios."""
    return GammaProductSpec(
        signs=(+1, -1, +1, -1, +1, -1, +1, -1),
        offsets=(a + 1.0, a, b + 1.0, b, c, c + 1.0, d, d + 1.0), step=1.0)


def test_gamma_product_rational_ratio_closed_form():
    # For a+b = c+d:  prod_k (a+k)(b+k)/((c+k)(d+k)) = Gamma(c)Gamma(d)/(Gamma(a)Gamma(b))
    a, b, c, d = 0.3, 1.1, 0.65, 0.75
    assert abs((a + b) - (c + d)) < 1e-15
    out = gamma_product(_ratio_spec(a, b, c, d))
    expected = sp.gamma(c) * sp.gamma(d) / (sp.gamma(a) * sp.gamma(b))
    assert abs(out.value - expected) < 1e-11
    assert abs(out.value - expected) < 20 * max(out.err, 1e-14)


def test_gamma_product_complex_arguments():
    # same telescoping identity, complex a
    a, b = 0.3 + 0.4j, 1.1 - 0.4j
    c, d = 0.65, 0.75
    out = gamma_product(_ratio_spec(a, b, c, d))
    expected = sp.gamma(c) * sp.gamma(d) / (sp.gamma(a) * sp.gamma(b))
    assert abs(out.value - expected) < 1e-10


# ---------------------------------------------------------------------------
# Fourier helpers vs closed-form integrals
# ---------------------------------------------------------------------------


def test_fourier_sine_integral_exponential_kernel():
    # int_0^inf e^{-a w} sin(b w)/w dw = atan(b/a)
    a = 0.7
    for b in (0.0, 0.3, 1.0, 2.5, 7.0):
        val, err, evals = fourier_sine_integral(
            lambda w: math.exp(-a * w), b)
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


def test_fourier_routes_raise_on_quad_failure(monkeypatch):
    msg = "The maximum number of subdivisions (600) has been achieved."

    def failing_quad(*args, **kwargs):
        # quad's full_output form when ier != 0: the message is appended
        return 0.1, 1e-3, {"neval": 12600, "last": 600}, msg

    monkeypatch.setattr("scipy.integrate.quad", failing_quad)
    kern = lambda w: math.exp(-0.9 * w)
    with pytest.raises(NonConvergence, match="maximum number of subdivisions"):
        fourier_sine_integral(kern, 1.3)
    with pytest.raises(NonConvergence, match="maximum number of subdivisions"):
        identity_use1_residual(1.0)
    with pytest.raises(NonConvergence, match="maximum number of subdivisions"):
        identity_use2_residual(1.3, 1.0)


def test_fourier_requires_decaying_kernel():
    with pytest.raises(NonConvergence):
        fourier_sine_integral(lambda w: 1.0, 1.0)


# ---------------------------------------------------------------------------
# cross-identities between integral and product representations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mu", [0.2, 1.0, 3.7, 8.4])
def test_exponential_integral_identity_one_variable(mu):
    assert identity_use1_residual(mu) < 1e-9


@pytest.mark.parametrize("mu,beta", [(0.5, 0.8), (1.3, 1.0), (2.4, 2.1)])
def test_exponential_integral_identity_two_variable(mu, beta):
    assert identity_use2_residual(mu, beta) < 1e-7


def test_identity_kind_validation():
    with pytest.raises(ValueError):
        identity_use1_residual(-2.0)
    with pytest.raises(ValueError):
        identity_use2_residual(1.0, 0.0)
