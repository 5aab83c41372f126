"""Scattering and transmission amplitudes for the defect chain.

Every amplitude here exists in (at least) two independent forms: a closed
form built from Gamma-function ladders or hyperbolic ratios, and an
oscillatory log-integral over a Fourier kernel.  Both routes are exposed
so they can be played against each other; the four kernel builders
(r_s_hat, r_t_hat, r_b_hat, t_b_hat) and the closed forms share no code.

Conventions.  Kernel transforms follow f(x) = (1/2pi) Int dw e^{-iwx}
fhat(w).  Log-integral amplitudes are exp[-PV Int dw/w e^{-iwx} fhat(w)].
For the breather amplitudes the closed forms equal minus the log-integral
evaluated at reflected argument; see breather_S_by_integral.

Bulk amplitudes take the model's ModelParameters; a function of one defect
takes its DefectRegimeData alone, which carries the model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotRealizable, PoleError, RootOfUnityError
from .lax_operators import defect_lax
from .special_functions import (AmplitudeValue, GammaProductSpec,
                                fourier_log_integral, gamma_product,
                                gamma_products, log_gamma)
from .spin_algebra import ATTRACTIVE, REPULSIVE, ModelParameters, build_rep


# ---------------------------------------------------------------------------
# regime bookkeeping
# ---------------------------------------------------------------------------


def branch_index(params, spin):
    """Integer branch m locating 2*spin inside its periodicity window.

    Repulsive windows are 2m nu < 2S < 2(m+1) nu; attractive windows are
    m nu < 2S < (m+1) nu.  Values on a window edge are hard errors since
    the kernels degenerate there.
    """
    if params.is_rational:
        return 0
    width = 2.0 * params.nu if params.regime_name == REPULSIVE else params.nu
    return _window(2.0 * spin, width)


def _window(y, width):
    m = int(math.floor(y / width))
    if m < 0 or min(y - m * width, (m + 1) * width - y) < 1e-10:
        raise DomainError(
            f"2S = {y} sits on or outside windows of width {width}")
    return m


@dataclass(frozen=True)
class DefectRegimeData:
    """Derived constants attached to one defect in one coupling regime.

    params       -- the model they derive from, held once: gamma is
                    params.gamma, and regime ('rational' | 'repulsive' |
                    'attractive') reads params.regime
    spin         -- defect spin S
    branch_index -- periodicity window index m (0 in the rational case)
    shifted_spin -- spin seen by the scattering data after the Bethe
                    shift: S - 1/2 rational, S - m - 1/2 repulsive,
                    m attractive
    coupling     -- S + gamma/2, the combination steering the
                    attractive-regime transmission poles (None outside)

    A constant offset o added to i*lam_hat is the rapidity lam_hat - i*o.
    """

    params: ModelParameters
    spin: float
    branch_index: int
    shifted_spin: float
    coupling: float | None = None

    @property
    def regime(self):
        return self.params.regime or "rational"

    @classmethod
    def from_params(cls, params, spin):
        if not 0.0 < 2.0 * spin < math.inf:
            raise DomainError(
                f"defect spin must be positive with 2S finite, got {spin}")
        m = branch_index(params, spin)
        if params.is_rational or params.regime_name == REPULSIVE:
            return cls(params, spin, branch_index=m,
                       shifted_spin=spin - m - 0.5)
        return cls(params, spin, branch_index=m, shifted_spin=float(m),
                   coupling=spin + params.gamma / 2.0)


# ---------------------------------------------------------------------------
# Fourier kernels: each builder checks its inputs once, before any w, and
# returns the transform as a function of real w alone
# ---------------------------------------------------------------------------


def _sinh_ratio(a, b, w):
    # sinh(a w/2)/sinh(b w/2) with the removable w=0 limit
    if abs(w) < 1e-12:
        return a / b
    return math.sinh(a * w / 2.0) / math.sinh(b * w / 2.0)


def r_s_hat(params):
    """Fourier transform of the soliton-soliton kernel r_s, in every regime."""
    if params.is_rational:
        return lambda w: math.exp(-abs(w) / 2.0) / (2.0 * math.cosh(w / 2.0))
    nu = params.nu
    if params.regime_name == REPULSIVE:
        return lambda w: _sinh_ratio(nu - 2.0, nu - 1.0, w) \
            / (2.0 * math.cosh(w / 2.0))
    return lambda w: -_sinh_ratio(nu - 2.0, 1.0, w) \
        / (2.0 * math.cosh((nu - 1.0) * w / 2.0))


def r_t_hat(data):
    """Fourier transform of the soliton-defect kernel r_t, y = 2S, on the
    window data.branch_index; the attractive one decays on m <= 1 only."""
    params, y, m = data.params, 2.0 * data.spin, data.branch_index
    if params.is_rational:
        return lambda w: math.exp(-(y - 1.0) * abs(w) / 2.0) \
            / (2.0 * math.cosh(w / 2.0))
    nu = params.nu
    if params.regime_name == REPULSIVE:
        return lambda w: _sinh_ratio((2 * m + 1) * nu - y, nu - 1.0, w) \
            / (2.0 * math.cosh(w / 2.0))
    if m > 1:
        raise DomainError(
            "attractive r_t integrand does not decay for m >= 2; "
            "only the product form exists there")
    return lambda w: _sinh_ratio(y - 2 * m * nu, 1.0, w) \
        / (2.0 * math.cosh((nu - 1.0) * w / 2.0))


def _attractive_nu(params, name):
    # nu of a breather-sector kernel's params, which must be attractive
    if params.is_rational or params.regime_name != ATTRACTIVE:
        raise DomainError(f"kernel {name!r} lives in the attractive regime")
    return params.nu


def r_b_hat(params):
    """Fourier transform of the breather-breather kernel r_b (nu > 2)."""
    nu = _attractive_nu(params, "r_b")
    if nu <= 2.0:
        raise DomainError("r_b kernel does not decay for nu <= 2")
    return lambda w: -math.cosh((nu - 3.0) * w / 2.0) \
        / math.cosh((nu - 1.0) * w / 2.0)


def t_b_hat(data):
    """Fourier transform of the breather-defect kernel t_b, y = 2S
    (0 < y < nu and y < 2 nu - 2)."""
    nu, y = _attractive_nu(data.params, "t_b"), 2.0 * data.spin
    if not 0.0 < y < nu:
        raise DomainError(f"t_b needs 0 < 2S < nu, got 2S = {y}")
    if y >= 2.0 * nu - 2.0:
        raise DomainError(f"t_b kernel does not decay for "
                          f"2S >= 2 nu - 2, got 2S = {y}")
    return lambda w: math.cosh((nu - y - 1.0) * w / 2.0) \
        / math.cosh((nu - 1.0) * w / 2.0)


# ---------------------------------------------------------------------------
# Gamma-ladder builders, one per closed-form product
# ---------------------------------------------------------------------------


def _odd_ladder(z, gamma, p, q):
    """Ladder of Gamma(2g k + p_i + z) Gamma(2g k + q_i - z) over
    Gamma(2g k + q_i + z) Gamma(2g k + p_i - z), i = 1, 2, g = gamma.

    z -> -z inverts it.  The kink and both transmission ladders are this
    one with their own offsets p and q.
    """
    return GammaProductSpec(
        signs=(+1, +1, +1, +1, -1, -1, -1, -1),
        offsets=(z + p[0], z + p[1], -z + q[0], -z + q[1],
                 z + q[0], z + q[1], -z + p[0], -z + p[1]),
        step=2 * gamma)


def kink_product_spec(z, gamma):
    """Soliton-soliton amplitude ladder in the variable z."""
    g = gamma
    return _odd_ladder(z, g, (2 * g, 1.0), (g, g + 1.0))


def transmission_product_spec_repulsive(z_hat, gamma, shifted_spin, m):
    """Repulsive transmission ladder; m shifts the offset by -m per window."""
    g = gamma
    u = g * shifted_spin - m + g / 2.0
    return _odd_ladder(z_hat, g, (u + g, -u + g + 1.0),
                       (u, -u + 2 * g + 1.0))


def transmission_product_spec_attractive(z_hat, gamma, coupling, m):
    """Attractive transmission ladder; coupling = S + gamma/2."""
    g = gamma
    x = coupling - m * (g + 1.0)
    return _odd_ladder(z_hat, g, (-x + 2 * g + 0.5, x + 0.5),
                       (-x + g + 0.5, x + g + 0.5))


def corrigan_product_spec(z1, z2, gamma):
    """Physical-factor ladder of the defect-field form, balanced.

    The printed eight factors leave the second moment -4 gamma (z1 + z2).
    Four telescoping factors Gamma(bk+b+x) Gamma(bk+1) / (Gamma(bk+x)
    Gamma(bk+b+1)), b = 2 gamma, x = 1 + z1 + z2, cancel it; over k < K
    they multiply to Gamma(bK+x) / (Gamma(x) Gamma(bK+1)).
    """
    g = gamma
    h, w, b, x = g + 0.5, 2 * g + 0.5, 2 * g, 1.0 + z1 + z2
    return GammaProductSpec(
        signs=(+1, +1, +1, +1, -1, -1, -1, -1, +1, +1, -1, -1),
        offsets=(z1 + h, z2 + h, -z1 + w, -z2 + w,
                 z1 + w, z2 + w, -z1 + h, -z2 + h,
                 x + b, 1.0, x, b + 1.0),
        step=b)


# ---------------------------------------------------------------------------
# kink S-matrix
# ---------------------------------------------------------------------------


def kink_S_amplitude(params, lam):
    """First eigenvalue of the two-kink scattering matrix."""
    return kink_S_amplitudes(params, [lam])[0]


def kink_S_amplitudes(params, lams):
    """kink_S_amplitude over a rapidity grid, in one engine pass."""
    lams = np.asarray(lams, dtype=complex).ravel()
    if params.is_rational:
        return _gamma_ratios(-0.5j * lams + 0.5, 0.5j * lams + 1.0,
                             -0.5j * lams + 1.0, 0.5j * lams + 0.5)
    g = params.gamma
    scale = 1j * g if params.regime_name == REPULSIVE else 1j
    return gamma_products([kink_product_spec(scale * complex(lam), g)
                           for lam in lams])


def _gamma_ratios(num1, num2, den1, den2):
    """Gamma(num1) Gamma(num2) / (Gamma(den1) Gamma(den2)) per grid point,
    through one log_gamma call.  A huge spin overflows them quietly here;
    AmplitudeValue then refuses the non-finite value."""
    with np.errstate(over="ignore", invalid="ignore"):
        lg = log_gamma(np.stack([num1, num2, den1, den2]))
        vals = np.exp(lg[0] + lg[1] - lg[2] - lg[3])
    return [AmplitudeValue(complex(v), err=4e-16 * abs(v), terms_used=0)
            for v in vals]


def kink_S_by_integral(params, lam):
    """Same amplitude through the log-integral over r_s."""
    return fourier_log_integral(r_s_hat(params), _real_arg(lam))


def s_matrix(params, lam):
    """Full 4x4 two-kink scattering matrix."""
    lam = complex(lam)
    pref = kink_S_amplitude(params, lam).value
    if params.is_rational:
        a, b, c = 1j * lam + 1.0, 1j * lam, 1.0
    else:
        g = params.gamma
        if params.regime_name == REPULSIVE:
            a = np.sin(math.pi * g * (1j * lam + 1.0))
            b = np.sin(1j * math.pi * g * lam)
        else:
            a = np.sin(math.pi * (1j * lam + g))
            b = np.sin(1j * math.pi * lam)
        c = math.sin(math.pi * g)
    if abs(a) < 1e-13 * (1.0 + abs(b)):
        raise PoleError(f"s_matrix prefactor pole at lam={lam}")
    out = np.zeros((4, 4), dtype=complex)
    out[0, 0] = out[3, 3] = a
    out[1, 1] = out[2, 2] = b
    out[1, 2] = out[2, 1] = c
    return (pref / a) * out


# ---------------------------------------------------------------------------
# transmission amplitudes and matrices
# ---------------------------------------------------------------------------


def transmission_amplitude(data, lam_hat):
    """First transmission eigenvalue for a kink passing the defect."""
    return transmission_amplitudes(data, [lam_hat])[0]


def transmission_amplitudes(data, lam_hats):
    """transmission_amplitude over a rapidity grid, in one engine pass."""
    lam_hats = np.asarray(lam_hats, dtype=complex).ravel()
    if data.regime == "rational":
        st = data.shifted_spin
        return _gamma_ratios(0.5j * lam_hats + st / 2.0 + 0.75,
                             -0.5j * lam_hats + st / 2.0 + 0.25,
                             0.5j * lam_hats + st / 2.0 + 0.25,
                             -0.5j * lam_hats + st / 2.0 + 0.75)
    g = data.params.gamma
    if data.regime == REPULSIVE:
        specs = [transmission_product_spec_repulsive(
            1j * g * complex(lam_hat), g, data.shifted_spin,
            data.branch_index) for lam_hat in lam_hats]
    else:
        specs = [transmission_product_spec_attractive(
            1j * complex(lam_hat), g, data.coupling, data.branch_index)
            for lam_hat in lam_hats]
    return gamma_products(specs)


def transmission_by_integral(data, lam_hat):
    """Transmission eigenvalue through the log-integral over r_t."""
    return fourier_log_integral(r_t_hat(data), _real_arg(lam_hat))


def transmission_eigenvalue_ratio(data, lam_hat):
    """Second over first transmission eigenvalue (rational family)."""
    st = data.shifted_spin
    den = 1j * lam_hat + st + 0.5
    if abs(den) < 1e-13:
        raise PoleError("eigenvalue ratio pole")
    return (1j * lam_hat - st - 0.5) / den


def transmission_matrix(data, lam_hat):
    """2(2S~+1)-dimensional transmission matrix over shifted_spin_rep(data).

    Rational and repulsive regimes produce a concrete matrix, over spin S~
    and, in the repulsive case, the rescaled deformation pi*gamma.
    The attractive matrix needs an infinite-dimensional representation
    and raises NotRealizable.
    """
    if data.regime == ATTRACTIVE:
        raise NotRealizable(
            "attractive transmission matrix needs an infinite-"
            "dimensional representation")
    rep = shifted_spin_rep(data)
    lam_hat = complex(lam_hat)
    t_first = transmission_amplitude(data, lam_hat).value
    st = data.shifted_spin
    if data.regime == "rational":
        den = 1j * lam_hat + st + 0.5
    else:
        den = np.sin(rep.params.anisotropy * (1j * lam_hat + st + 0.5))
    if abs(den) < 1e-13:
        raise PoleError("transmission matrix prefactor pole")
    return (t_first / den) * transmission_blocks(rep, lam_hat)


def transmission_blocks(rep, lam):
    """The bare 2x2-block matrix [[A, B], [C, D]] on aux x rep.

    Rational rep: A, D = (i lam + 1/2) +- Sz, B = S-, C = S+.  Deformed
    by mu = rep.params.mu: A, D = sin(mu (i lam +- Sz + 1/2)),
    B = sin(mu) S-, C = sin(mu) S+.  That is -i times rep's own Lax
    matrix at -lam.
    """
    return -1j * defect_lax(rep, -complex(lam))


def shifted_spin_rep(data):
    """The rep transmission_matrix is built over, where one exists.

    Raises NotRealizable in the attractive regime, for a rescaled
    deformation pi*gamma outside (0, pi), and for a degenerate rep.
    """
    if data.regime == ATTRACTIVE:
        raise NotRealizable("no finite attractive representation")
    try:
        family = ModelParameters.xxx() if data.regime == "rational" \
            else ModelParameters.xxz(math.pi * data.params.gamma)
        return build_rep(data.shifted_spin, family)
    except (ValueError, RootOfUnityError) as exc:
        raise NotRealizable(
            f"shifted spin {data.shifted_spin} has no finite "
            f"representation: {exc}") from exc


# ---------------------------------------------------------------------------
# defect-field (corrigan_form) route for the attractive amplitude
# ---------------------------------------------------------------------------


def corrigan_variables(data, lam_hat):
    """Map (lam_hat, coupling) to the defect-field arguments.

    Returns (z1, z2) = (-z - xi, -z + xi) with z = i*lam_hat.
    Relative to the printed identification this flips the sign of the
    eta constants; the flipped reading is the one that reproduces the
    attractive transmission product numerically.
    """
    if data.regime != ATTRACTIVE:
        raise DomainError("defect-field variables are attractive-regime only")
    z = 1j * complex(lam_hat)
    return -z - data.coupling, -z + data.coupling


def corrigan_form(z1, z2, gamma):
    """Transmission amplitude in defect-field variables.

    Returns (T, rho_d), both with the ladder's relative error:
    T = sin(pi(z2 + 1/2))/pi * rho_d, rho_d = Gamma(1/2 - z1)
    Gamma(1/2 - z2) Gamma(1 + z1 + z2) * ladder; the last Gamma undoes the
    telescoping factors.  Their removable points, 1 + z1 + z2 + 2 gamma j
    in {0, -1, ...} for some j >= 0, raise PoleError; under
    corrigan_variables they sit at lam_hat = -i(n + 1 + 2 gamma j)/2.
    """
    z1, z2 = complex(z1), complex(z2)
    ladder = gamma_product(corrigan_product_spec(z1, z2, gamma))
    rel = ladder.err / max(abs(ladder.value), 1e-300)
    rho = ladder.value * np.exp(np.sum(log_gamma(
        np.array([0.5 - z1, 0.5 - z2, 1.0 + z1 + z2]))))
    t = np.sin(math.pi * (z2 + 0.5)) / math.pi * rho
    return tuple(AmplitudeValue(complex(v), err=rel * abs(v),
                                terms_used=ladder.terms_used)
                 for v in (t, rho))


# ---------------------------------------------------------------------------
# breather amplitudes
# ---------------------------------------------------------------------------


def _breather_S_11(lam, gamma):
    th = math.pi * complex(lam) / gamma
    half_shift = 0.5j * math.pi
    unit = 0.5j * math.pi / gamma
    num = np.sinh(th / 2.0 - unit) * np.sinh(th / 2.0 + unit + half_shift)
    den = np.sinh(th / 2.0 + unit) * np.sinh(th / 2.0 - unit - half_shift)
    if abs(den) < 1e-13 * (1.0 + abs(num)):
        raise PoleError(f"breather S pole at lam={lam}")
    return -num / den


def breather_S(params, n1, n2, lam):
    """Scattering amplitude of an n1- on an n2-breather (fusion product)."""
    if n1 < 1 or n2 < 1:
        raise DomainError("breather labels must be >= 1")
    lam, gamma = complex(lam), params.gamma
    out = 1.0 + 0.0j
    for l1 in range(1, n1 + 1):
        for l2 in range(1, n2 + 1):
            shift = 0.5j * (n1 - n2 - 2 * l1 + 2 * l2)
            out *= _breather_S_11(lam + shift, gamma)
    return complex(out)


def _breather_T_1(lam_hat, gamma, eta1, eta2):
    th = math.pi * complex(lam_hat) / gamma
    q = 0.25j * math.pi
    num = np.sinh((th - eta1) / 2.0 - q) * np.sinh((th - eta2) / 2.0 - q)
    den = np.sinh((th - eta1) / 2.0 + q) * np.sinh((th - eta2) / 2.0 + q)
    if abs(den) < 1e-13 * (1.0 + abs(num)):
        raise PoleError(f"breather T pole at lam_hat={lam_hat}")
    return -num / den


def breather_T(data, n, lam_hat):
    """Transmission amplitude of an n-breather through the defect."""
    if n < 1:
        raise DomainError("breather label must be >= 1")
    if data.branch_index >= 1:
        raise DomainError(
            f"breather T is confirmed on branch m = 0 only, got m = "
            f"{data.branch_index}: on the attractive branches m >= 1 the "
            f"kink-ladder bootstrap disagrees with this form, and which "
            f"holds is open")
    lam_hat, xi, gamma = complex(lam_hat), data.coupling, data.params.gamma
    eta1, eta2 = 1j * math.pi * xi / gamma, 1j * math.pi * -xi / gamma
    out = 1.0 + 0.0j
    for l in range(1, n + 1):
        out *= _breather_T_1(lam_hat + 0.5j * (n + 1 - 2 * l),
                             gamma, eta1, eta2)
    return complex(out)


def breather_S_by_integral(params, lam):
    """Lightest-breather scattering via the log-integral over r_b.

    The kernel has a nonzero omega -> 0 limit, so the principal-value
    integral picks up a half-residue phase; folding it in is equivalent
    to evaluating the integral at -lam and negating, which is the form
    used here.
    """
    val = fourier_log_integral(r_b_hat(params), -_real_arg(lam))
    return AmplitudeValue(-val.value, err=val.err, terms_used=val.terms_used)


def breather_T_by_integral(data, lam_hat):
    """Lightest-breather transmission via the log-integral over t_b."""
    val = fourier_log_integral(t_b_hat(data), -_real_arg(lam_hat))
    return AmplitudeValue(-val.value, err=val.err, terms_used=val.terms_used)


def _real_arg(lam):
    lam = complex(lam)
    if abs(lam.imag) > 1e-12:
        raise DomainError("the integral route needs a real rapidity")
    return lam.real
