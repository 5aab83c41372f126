"""Scattering and transmission amplitudes for the defect chain.

Every amplitude here exists in (at least) two independent forms: a closed
form built from Gamma-function ladders or hyperbolic ratios, and an
oscillatory log-integral over a Fourier kernel.  Both routes are exposed
so they can be played against each other; the kernel registry and the
closed forms share no code.

Conventions.  Kernel transforms follow f(x) = (1/2pi) Int dw e^{-iwx}
fhat(w).  Log-integral amplitudes are exp[-PV Int dw/w e^{-iwx} fhat(w)].
For the breather amplitudes the closed forms equal minus the log-integral
evaluated at reflected argument; see breather_S_by_integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotRealizable, PoleError, RepMismatch
from .lax_operators import two_site_operator
from .special_functions import (AmplitudeValue, GammaFactor, GammaProductSpec,
                                fourier_log_integral, gamma_product,
                                gamma_products, inverse_fourier_even,
                                log_gamma)
from .spin_algebra import (ATTRACTIVE, REPULSIVE, ModelParameters,
                           SpinRepresentation, build_rep)

_F = GammaFactor


# ---------------------------------------------------------------------------
# regime bookkeeping
# ---------------------------------------------------------------------------


def branch_index(params, spin):
    """Integer branch m locating 2*spin inside its periodicity window.

    Repulsive windows are 2m nu < 2S < 2(m+1) nu; attractive windows are
    m nu < 2S < (m+1) nu.  Values on a window edge are hard errors since
    the kernels degenerate there.
    """
    y = 2.0 * spin
    if params.is_rational:
        return 0
    nu = params.nu
    width = 2.0 * nu if params.regime_name == REPULSIVE else nu
    m = int(math.floor(y / width))
    if m < 0 or min(y - m * width, (m + 1) * width - y) < 1e-10:
        raise DomainError(
            f"2S = {y} sits on or outside the branch windows (width {width})")
    return m


@dataclass(frozen=True)
class DefectRegimeData:
    """Derived constants attached to one defect in one coupling regime.

    spin            -- defect spin S
    rapidity        -- defect rapidity
    regime          -- 'rational' | 'repulsive' | 'attractive'
    gamma           -- renormalized coupling of the regime
    branch_index    -- periodicity window index m (0 in the rational case)
    shifted_spin    -- spin seen by the scattering data after the Bethe
                       shift: S - 1/2 rational, S - m - 1/2 repulsive,
                       m attractive
    coupling        -- S + gamma/2, the combination steering the
                       attractive-regime transmission poles (None outside)
    breather_shifts -- (eta_1, eta_2) rapidity shifts of the breather
                       transmission amplitude (attractive only)
    rapidity_offset -- optional constant absorbed into i*lam_hat
    """

    spin: float
    rapidity: float
    regime: str
    gamma: float
    branch_index: int
    shifted_spin: float
    coupling: float | None = None
    breather_shifts: tuple | None = None
    rapidity_offset: float = 0.0

    @classmethod
    def from_params(cls, params, spin, rapidity=0.0, rapidity_offset=0.0):
        if spin <= 0:
            raise DomainError("defect spin must be positive")
        if params.is_rational:
            return cls(spin=spin, rapidity=rapidity, regime="rational",
                       gamma=0.0, branch_index=0, shifted_spin=spin - 0.5,
                       rapidity_offset=rapidity_offset)
        m = branch_index(params, spin)
        g = params.gamma
        if params.regime_name == REPULSIVE:
            return cls(spin=spin, rapidity=rapidity, regime=REPULSIVE,
                       gamma=g, branch_index=m, shifted_spin=spin - m - 0.5,
                       rapidity_offset=rapidity_offset)
        xi = spin + g / 2.0
        lam_off = rapidity_offset
        eta = (1j * math.pi * (lam_off + xi) / g,
               1j * math.pi * (lam_off - xi) / g)
        return cls(spin=spin, rapidity=rapidity, regime=ATTRACTIVE,
                   gamma=g, branch_index=m, shifted_spin=float(m),
                   coupling=xi, breather_shifts=eta,
                   rapidity_offset=rapidity_offset)


def one_hole_spin(params, data):
    """Bare vs physical spin of the one-hole state over the ground state.

    The Bethe-ansatz count produces the bare value; dividing out the
    regime's renormalization factor returns the shifted spin + 1/2.
    """
    if data.regime == REPULSIVE:
        factor = params.nu / (params.nu - 1.0)
        physical = data.shifted_spin + 0.5
    elif data.regime == ATTRACTIVE:
        factor = params.nu
        physical = 0.5
    else:
        factor = 1.0
        physical = data.shifted_spin + 0.5
    return {"bare": factor * physical, "physical": physical,
            "renormalization": factor}


# ---------------------------------------------------------------------------
# Fourier kernels
# ---------------------------------------------------------------------------


def _sinh_ratio(a, b, w):
    # sinh(a w/2)/sinh(b w/2) with the removable w=0 limit
    if abs(w) < 1e-12:
        return a / b
    return math.sinh(a * w / 2.0) / math.sinh(b * w / 2.0)


def kernel_hat(name, w, params, order=None, branch=None):
    """Fourier transform of a named convolution kernel at real w.

    Registry (rational family): a, sigma0, r_s, r_t.
    Registry (trig): a, b, sigma0, r_s, r_t plus the breather-sector
    kernels sigma0_b, r_b, t_b, R, B (attractive regime only).
    `order` carries n (for a, b) or y = 2S (for r_t, t_b, B); `branch`
    optionally overrides the window index, normally derived from order.
    Outside-window or non-decaying combinations raise DomainError.
    """
    w = float(w)
    if params.is_rational:
        if name == "a":
            _need(order, name)
            return math.exp(-order * abs(w) / 2.0)
        if name == "sigma0":
            return 1.0 / (2.0 * math.cosh(w / 2.0))
        if name == "r_s":
            return math.exp(-abs(w) / 2.0) / (2.0 * math.cosh(w / 2.0))
        if name == "r_t":
            _need(order, name)
            return math.exp(-(order - 1.0) * abs(w) / 2.0) \
                / (2.0 * math.cosh(w / 2.0))
        raise DomainError(f"unknown rational kernel {name!r}")

    nu = params.nu
    if name == "a":
        _need(order, name)
        m = branch if branch is not None else _window(order, 2.0 * nu)
        return _sinh_ratio((2 * m + 1) * nu - order, nu, w)
    if name == "b":
        _need(order, name)
        m = branch if branch is not None else _window(order, nu)
        if m > 1:
            raise DomainError("b-kernel does not decay for branch m >= 2")
        return -_sinh_ratio(order - 2 * m * nu, nu, w)

    regime = params.regime_name
    if name == "sigma0":
        scale = 1.0 if regime == REPULSIVE else nu - 1.0
        return 1.0 / (2.0 * math.cosh(scale * w / 2.0))
    if name == "r_s":
        if regime == REPULSIVE:
            return _sinh_ratio(nu - 2.0, nu - 1.0, w) \
                / (2.0 * math.cosh(w / 2.0))
        return -_sinh_ratio(nu - 2.0, 1.0, w) \
            / (2.0 * math.cosh((nu - 1.0) * w / 2.0))
    if name == "r_t":
        _need(order, name)
        if regime == REPULSIVE:
            m = branch if branch is not None else _window(order, 2.0 * nu)
            return _sinh_ratio((2 * m + 1) * nu - order, nu - 1.0, w) \
                / (2.0 * math.cosh(w / 2.0))
        m = branch if branch is not None else _window(order, nu)
        if m > 1:
            raise DomainError(
                "attractive r_t integrand does not decay for m >= 2; "
                "only the product form exists there")
        return _sinh_ratio(order - 2 * m * nu, 1.0, w) \
            / (2.0 * math.cosh((nu - 1.0) * w / 2.0))

    if regime != ATTRACTIVE:
        raise DomainError(f"kernel {name!r} lives in the attractive regime")
    if name in ("r_b", "R") and nu <= 2.0:
        raise DomainError(f"{name} kernel does not decay for nu <= 2")
    ch = math.cosh((nu - 1.0) * w / 2.0)
    if name == "sigma0_b":
        return math.cosh((nu - 2.0) * w / 2.0) / ch
    if name == "r_b":
        return -math.cosh((nu - 3.0) * w / 2.0) / ch
    if name == "t_b":
        _need(order, name)
        if not 0.0 < order < nu:
            raise DomainError(f"t_b needs 0 < 2S < nu, got 2S = {order}")
        if order >= 2.0 * nu - 2.0:
            raise DomainError(f"t_b kernel does not decay for "
                              f"2S >= 2 nu - 2, got 2S = {order}")
        return math.cosh((nu - order - 1.0) * w / 2.0) / ch
    if name == "R":
        return -math.cosh(w / 2.0) / ch
    if name == "B":
        _need(order, name)
        m = branch if branch is not None else _window(order, nu)
        if m > 1:
            raise DomainError("B-kernel does not decay for branch m >= 2")
        return _sinh_ratio(order - 2 * m * nu, 1.0, w) / (2.0 * ch)
    raise DomainError(f"unknown trig kernel {name!r}")


def _need(order, name):
    if order is None:
        raise DomainError(f"kernel {name!r} needs an order parameter")


def _window(order, width):
    m = int(math.floor(order / width))
    if m < 0 or min(order - m * width, (m + 1) * width - order) < 1e-10:
        raise DomainError(
            f"order {order} sits on or outside windows of width {width}")
    return m


# ---------------------------------------------------------------------------
# dispersion and state densities
# ---------------------------------------------------------------------------


def dispersion(kind, params, lam):
    """Energy and momentum (eps, p) of an elementary excitation.

    Hole/soliton: eps is the ground-state density sigma0 in closed form,
    p = 2 pi Int_0^lam eps, odd by convention.  Breather (attractive
    trig only): closed form derived from the cosh-ratio kernel.
    """
    lam = float(lam)
    if kind == "hole":
        if params.is_rational or params.regime_name == REPULSIVE:
            scale = 1.0
        else:
            scale = params.nu - 1.0
        eps = 1.0 / (2.0 * scale * math.cosh(math.pi * lam / scale))
        p = math.atan(math.sinh(math.pi * lam / scale))
        return eps, p
    if kind == "breather":
        if params.is_rational or params.regime_name != ATTRACTIVE:
            raise DomainError("breathers exist in the attractive regime only")
        nu = params.nu
        if nu <= 1.5:
            raise DomainError(
                "breather dispersion needs nu > 3/2 (kernel decay)")
        a, b = (nu - 2.0) / 2.0, (nu - 1.0) / 2.0
        c0 = math.cos(math.pi * a / (2.0 * b))
        eps = c0 * math.cosh(math.pi * lam / (2.0 * b)) \
            / (b * (math.cos(math.pi * a / b)
                    + math.cosh(math.pi * lam / b)))
        p = 2.0 * math.atan(math.sinh(math.pi * lam / (2.0 * b)) / c0)
        return eps, p
    raise DomainError(f"unknown dispersion kind {kind!r}")


def state_density(params, data, holes, lam, N):
    """Finite-size density sigma0 + (1/N)(sum r_s(lam-hole) + r_t(lam-Th)).

    The correction kernels are inverse-transformed by quadrature; only
    sigma0 uses its closed form.
    """
    eps, _ = dispersion("hole", params, lam)
    y = 2.0 * data.spin
    corr = 0.0
    for h in holes:
        corr += inverse_fourier_even(
            lambda w: kernel_hat("r_s", w, params), lam - h)[0]
    corr += inverse_fourier_even(
        lambda w: kernel_hat("r_t", w, params, order=y,
                             branch=data.branch_index),
        lam - data.rapidity)[0]
    return float(eps + corr / N)


# ---------------------------------------------------------------------------
# Gamma-ladder builders, one per closed-form product
# ---------------------------------------------------------------------------


def kink_product_spec(z, gamma):
    """Soliton-soliton amplitude ladder in the variable z."""
    g = gamma
    return GammaProductSpec(factors=(
        _F(+1, z, 2 * g, 2 * g), _F(+1, z, 2 * g, 1.0),
        _F(+1, -z, 2 * g, g), _F(+1, -z, 2 * g, g + 1.0),
        _F(-1, z, 2 * g, g), _F(-1, z, 2 * g, g + 1.0),
        _F(-1, -z, 2 * g, 2 * g), _F(-1, -z, 2 * g, 1.0),
    ))


def transmission_product_spec_repulsive(z_hat, gamma, shifted_spin, m):
    """Repulsive transmission ladder; m shifts the offset by -m per window."""
    g = gamma
    u = g * shifted_spin - m + g / 2.0
    return GammaProductSpec(factors=(
        _F(+1, z_hat, 2 * g, u + g), _F(+1, z_hat, 2 * g, -u + g + 1.0),
        _F(+1, -z_hat, 2 * g, u), _F(+1, -z_hat, 2 * g, -u + 2 * g + 1.0),
        _F(-1, z_hat, 2 * g, u), _F(-1, z_hat, 2 * g, -u + 2 * g + 1.0),
        _F(-1, -z_hat, 2 * g, u + g), _F(-1, -z_hat, 2 * g, -u + g + 1.0),
    ))


def transmission_product_spec_attractive(z_hat, gamma, coupling, m):
    """Attractive transmission ladder; coupling = S + gamma/2."""
    g = gamma
    x = coupling - m * (g + 1.0)
    return GammaProductSpec(factors=(
        _F(+1, z_hat, 2 * g, -x + 2 * g + 0.5), _F(+1, z_hat, 2 * g, x + 0.5),
        _F(+1, -z_hat, 2 * g, -x + g + 0.5), _F(+1, -z_hat, 2 * g, x + g + 0.5),
        _F(-1, z_hat, 2 * g, -x + g + 0.5), _F(-1, z_hat, 2 * g, x + g + 0.5),
        _F(-1, -z_hat, 2 * g, -x + 2 * g + 0.5), _F(-1, -z_hat, 2 * g, x + 0.5),
    ))


def corrigan_product_spec(z1, z2, gamma):
    """Physical-factor ladder of the defect-field form.

    As printed the product is only conditionally convergent (the offset
    moments leave a log K divergence when z1 + z2 != 0); it is read here
    in the renormalized sense, with the compensating digamma subtraction
    supplied by the evaluation engine.
    """
    g = gamma
    return GammaProductSpec(factors=(
        _F(+1, z1, 2 * g, g + 0.5), _F(+1, z2, 2 * g, g + 0.5),
        _F(+1, -z1, 2 * g, 2 * g + 0.5), _F(+1, -z2, 2 * g, 2 * g + 0.5),
        _F(-1, z1, 2 * g, 2 * g + 0.5), _F(-1, z2, 2 * g, 2 * g + 0.5),
        _F(-1, -z1, 2 * g, g + 0.5), _F(-1, -z2, 2 * g, g + 0.5),
    ), renormalized=True)


# ---------------------------------------------------------------------------
# kink S-matrix
# ---------------------------------------------------------------------------


def kink_S_amplitude(params, lam, tol=1e-12):
    """First eigenvalue of the two-kink scattering matrix."""
    return kink_S_amplitudes(params, [lam], tol=tol)[0]


def kink_S_amplitudes(params, lams, tol=1e-12):
    """kink_S_amplitude over a rapidity grid, in one engine pass."""
    lams = np.asarray(lams, dtype=complex).ravel()
    if params.is_rational:
        return _gamma_ratios(-0.5j * lams + 0.5, 0.5j * lams + 1.0,
                             -0.5j * lams + 1.0, 0.5j * lams + 0.5)
    g = params.gamma
    scale = 1j * g if params.regime_name == REPULSIVE else 1j
    return gamma_products([kink_product_spec(scale * complex(lam), g)
                           for lam in lams], tol=tol)


def _gamma_ratios(num1, num2, den1, den2):
    """Gamma(num1) Gamma(num2) / (Gamma(den1) Gamma(den2)) per grid point,
    through one log_gamma call."""
    lg = log_gamma(np.stack([num1, num2, den1, den2]))
    vals = np.exp(lg[0] + lg[1] - lg[2] - lg[3])
    return [AmplitudeValue(complex(v), err=4e-16 * abs(v), terms_used=0)
            for v in vals]


def kink_S_by_integral(params, lam, tol=1e-11):
    """Same amplitude through the log-integral over r_s."""
    return fourier_log_integral(
        lambda w: kernel_hat("r_s", w, params), lam, tol=tol)


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


def s_matrix_ybe_residual(params, lam1, lam2, lam3=0.0):
    """Yang-Baxter residual of s_matrix on three kink spaces."""
    dims = [2, 2, 2]
    s12 = two_site_operator(s_matrix(params, lam1 - lam2), dims, 0, 1)
    s13 = two_site_operator(s_matrix(params, lam1 - lam3), dims, 0, 2)
    s23 = two_site_operator(s_matrix(params, lam2 - lam3), dims, 1, 2)
    return float(np.max(np.abs(s12 @ s13 @ s23 - s23 @ s13 @ s12)))


# ---------------------------------------------------------------------------
# transmission amplitudes and matrices
# ---------------------------------------------------------------------------


def transmission_amplitude(params, data, lam_hat, tol=1e-12):
    """First transmission eigenvalue for a kink passing the defect."""
    return transmission_amplitudes(params, data, [lam_hat], tol=tol)[0]


def transmission_amplitudes(params, data, lam_hats, tol=1e-12):
    """transmission_amplitude over a rapidity grid, in one engine pass."""
    _check_regime(params, data)
    lam_hats = np.asarray(lam_hats, dtype=complex).ravel()
    if data.regime == "rational":
        st = data.shifted_spin
        return _gamma_ratios(0.5j * lam_hats + st / 2.0 + 0.75,
                             -0.5j * lam_hats + st / 2.0 + 0.25,
                             0.5j * lam_hats + st / 2.0 + 0.25,
                             -0.5j * lam_hats + st / 2.0 + 0.75)
    g = data.gamma
    if data.regime == REPULSIVE:
        specs = [transmission_product_spec_repulsive(
            1j * g * complex(lam_hat) + data.rapidity_offset, g,
            data.shifted_spin, data.branch_index) for lam_hat in lam_hats]
    else:
        specs = [transmission_product_spec_attractive(
            1j * complex(lam_hat) + data.rapidity_offset, g, data.coupling,
            data.branch_index) for lam_hat in lam_hats]
    return gamma_products(specs, tol=tol)


def transmission_by_integral(params, data, lam_hat, tol=1e-11):
    """Transmission eigenvalue through the log-integral over r_t."""
    _check_regime(params, data)
    y = 2.0 * data.spin
    return fourier_log_integral(
        lambda w: kernel_hat("r_t", w, params, order=y,
                             branch=data.branch_index),
        lam_hat, tol=tol)


def transmission_eigenvalue_ratio(data, lam_hat):
    """Second over first transmission eigenvalue (rational family)."""
    st = data.shifted_spin
    den = 1j * lam_hat + st + 0.5
    if abs(den) < 1e-13:
        raise PoleError("eigenvalue ratio pole")
    return (1j * lam_hat - st - 0.5) / den


def transmission_matrix(params, data, rep, lam_hat, symbolic=False):
    """2(2S~+1)-dimensional transmission matrix over the shifted-spin rep.

    Rational and repulsive regimes produce a concrete matrix; the rep
    must carry spin S~ and, in the repulsive case, the renormalized
    deformation pi*gamma.  The attractive matrix lives on an
    infinite-dimensional representation, so only a symbolic 2x2 template
    is available behind the `symbolic` opt-in.
    """
    _check_regime(params, data)
    if data.regime == ATTRACTIVE:
        if not symbolic:
            raise NotRealizable(
                "attractive transmission matrix needs the infinite-"
                "dimensional shifted-spin-0 representation; pass "
                "symbolic=True for the structural template")
        return _attractive_template(data)
    if rep is None or not isinstance(rep, SpinRepresentation):
        raise RepMismatch("a shifted-spin representation is required")
    if abs(rep.spin - data.shifted_spin) > 1e-12:
        raise RepMismatch(
            f"rep spin {rep.spin} != shifted spin {data.shifted_spin}")
    lam_hat = complex(lam_hat)
    t_first = transmission_amplitude(params, data, lam_hat).value
    st = data.shifted_spin
    if data.regime == "rational":
        if rep.deformation is not None:
            raise RepMismatch("rational matrix needs an undeformed rep")
        den = 1j * lam_hat + st + 0.5
    else:
        mu_r = math.pi * data.gamma
        if rep.deformation is None or abs(rep.deformation - mu_r) > 1e-12:
            raise RepMismatch(
                f"repulsive matrix needs deformation pi*gamma = {mu_r}")
        den = np.sin(mu_r * (1j * lam_hat + st + 0.5))
    if abs(den) < 1e-13:
        raise PoleError("transmission matrix prefactor pole")
    return (t_first / den) * transmission_blocks(rep, lam_hat)


def transmission_blocks(rep, lam):
    """The bare 2x2-block matrix [[A, B], [C, D]] on aux x rep.

    Undeformed rep (deformation None): A, D = (i lam + 1/2) +- Sz,
    B = S-, C = S+.  Deformed by mu: A, D = sin(mu (i lam +- Sz + 1/2)),
    B = sin(mu) S-, C = sin(mu) S+.
    """
    lam = complex(lam)
    mu = rep.deformation
    if mu is None:
        eye = np.eye(rep.dim)
        return np.block([[(1j * lam + 0.5) * eye + rep.Sz, rep.Sm],
                         [rep.Sp, (1j * lam + 0.5) * eye - rep.Sz]])
    sz = np.diag(rep.Sz)
    return np.block([
        [np.diag(np.sin(mu * (1j * lam + sz + 0.5))), math.sin(mu) * rep.Sm],
        [math.sin(mu) * rep.Sp, np.diag(np.sin(mu * (1j * lam - sz + 0.5)))]])


def _attractive_template(data):
    """Structural 2x2 template of the attractive transmission matrix.

    The diagonal entries involve sin(pi*gamma*(iu + 1/2 - (S+1/2)/gamma)),
    which collapses to +-sin or +-cos of pi*gamma*(iu + 1/2) according to
    whether S + 1/2 is an integer or a half-integer; the collapsed branch
    is recorded so downstream consumers need not redo the case split.
    """
    two_sp1 = data.spin + 0.5
    if abs(two_sp1 - round(two_sp1)) < 1e-12:
        p = int(round(two_sp1))
        branch = ("sin", (-1) ** p)
    else:
        p = int(round(two_sp1 - 0.5))
        branch = ("cos", (-1) ** (p + 1))
    return {
        "prefactor": "T(u)/sin(pi*gamma*(i*u + 1/2))",
        "entries": [["sin(pi*gamma*(i*u + Sz + 1/2))", "sin(pi*gamma)*Sminus"],
                    ["sin(pi*gamma)*Splus", "sin(pi*gamma*(i*u - Sz + 1/2))"]],
        "representation": "shifted spin 0, infinite dimensional",
        "reduction_branch": {"function": branch[0], "sign": branch[1]},
        "gamma": data.gamma,
    }


def shifted_spin_rep(params, data):
    """Convenience builder for the rep transmission_matrix expects."""
    if data.regime == "rational":
        return build_rep(data.shifted_spin, ModelParameters.xxx())
    if data.regime == REPULSIVE:
        renorm = ModelParameters.xxz(math.pi * data.gamma)
        return build_rep(data.shifted_spin, renorm)
    raise NotRealizable("no finite attractive representation")


def transmission_rtt_residual(params, data, rep, lam1_hat, lam2_hat):
    """Residual of S12(l1-l2) T1(l1) T2(l2) = T2(l2) T1(l1) S12(l1-l2)."""
    dims = [2, 2, rep.dim]
    t1 = two_site_operator(
        transmission_matrix(params, data, rep, lam1_hat), dims, 0, 2)
    t2 = two_site_operator(
        transmission_matrix(params, data, rep, lam2_hat), dims, 1, 2)
    s12 = two_site_operator(s_matrix(params, lam1_hat - lam2_hat), dims, 0, 1)
    lhs = s12 @ t1 @ t2
    rhs = t2 @ t1 @ s12
    scale = max(np.max(np.abs(lhs)), 1e-30)
    return float(np.max(np.abs(lhs - rhs)) / scale)


def _check_regime(params, data):
    if params.is_rational != (data.regime == "rational"):
        raise DomainError("regime data does not match the model family")
    if not params.is_rational and params.regime_name != data.regime:
        raise DomainError(
            f"regime data is {data.regime}, model is {params.regime_name}")


# ---------------------------------------------------------------------------
# defect-field (corrigan_form) route for the attractive amplitude
# ---------------------------------------------------------------------------


def corrigan_variables(data, lam_hat):
    """Map (lam_hat, offset, coupling) to the defect-field arguments.

    Returns (z1, z2) = (-z - xi, -z + xi) with z = i*lam_hat + offset.
    Relative to the printed identification this flips the sign of the
    eta constants; the flipped reading is the one that reproduces the
    attractive transmission product numerically.
    """
    if data.regime != ATTRACTIVE:
        raise DomainError("defect-field variables are attractive-regime only")
    z = 1j * complex(lam_hat) + data.rapidity_offset
    return -z - data.coupling, -z + data.coupling


def corrigan_form(z1, z2, gamma, tol=1e-12):
    """Transmission amplitude in defect-field variables.

    Returns (T, rho_d) with T = sin(pi(z2 + 1/2))/pi * rho_d.  The
    rho_d ladder is conditionally divergent as printed; the renormalized
    engine supplies K^{-c} and the residual step-scale factor
    (2 gamma)^{z1+z2} is attached here.
    """
    z1, z2 = complex(z1), complex(z2)
    spec = corrigan_product_spec(z1, z2, gamma)
    ladder = gamma_product(spec, tol=tol)
    scale = (2.0 * gamma) ** (-spec.renorm_coefficient())
    rho_val = ladder.value * scale \
        * np.exp(log_gamma(0.5 - z1) + log_gamma(0.5 - z2))
    rho = AmplitudeValue(complex(rho_val),
                         err=ladder.err * abs(scale) * abs(
                             rho_val / max(abs(ladder.value), 1e-300)),
                         terms_used=ladder.terms_used)
    t_val = np.sin(math.pi * (z2 + 0.5)) / math.pi * rho_val
    t = AmplitudeValue(complex(t_val),
                       err=rho.err * abs(np.sin(math.pi * (z2 + 0.5))) / math.pi,
                       terms_used=ladder.terms_used)
    return t, rho


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


def breather_S(n1, n2, lam, gamma):
    """Scattering amplitude of an n1- on an n2-breather (fusion product)."""
    if n1 < 1 or n2 < 1:
        raise DomainError("breather labels must be >= 1")
    lam = complex(lam)
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


def breather_T(n, lam_hat, gamma, eta1, eta2):
    """Transmission amplitude of an n-breather through the defect."""
    if n < 1:
        raise DomainError("breather label must be >= 1")
    lam_hat = complex(lam_hat)
    out = 1.0 + 0.0j
    for l in range(1, n + 1):
        out *= _breather_T_1(lam_hat + 0.5j * (n + 1 - 2 * l),
                             gamma, eta1, eta2)
    return complex(out)


def breather_S_by_integral(params, lam, tol=1e-11):
    """Lightest-breather scattering via the log-integral over r_b.

    The kernel has a nonzero omega -> 0 limit, so the principal-value
    integral picks up a half-residue phase; folding it in is equivalent
    to evaluating the integral at -lam and negating, which is the form
    used here.
    """
    val = fourier_log_integral(
        lambda w: kernel_hat("r_b", w, params), -_real_arg(lam), tol=tol)
    return AmplitudeValue(-val.value, err=val.err, terms_used=val.terms_used)


def breather_T_by_integral(params, data, lam_hat, tol=1e-11):
    """Lightest-breather transmission via the log-integral over t_b."""
    y = 2.0 * data.spin
    val = fourier_log_integral(
        lambda w: kernel_hat("t_b", w, params, order=y),
        -_real_arg(lam_hat), tol=tol)
    return AmplitudeValue(-val.value, err=val.err, terms_used=val.terms_used)


def _real_arg(lam):
    lam = complex(lam)
    if abs(lam.imag) > 1e-12:
        raise DomainError("the integral route needs a real rapidity")
    return lam.real
