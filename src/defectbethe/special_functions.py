"""Complex log-gamma, balanced infinite Gamma products, and log-Fourier integrals.

These three primitives carry all scalar amplitude evaluations in the package:

  * log_gamma        -- principal-branch log Gamma(z), rational (Lanczos-type)
                        approximation for Re z >= 1/2, reflection below.
  * gamma_products   -- prod_{k>=0} prod_i Gamma(d_i + b k)^{s_i} for
                        sign-balanced offsets d_i and one step b,
                        truncated with a Stirling-series tail; a whole
                        grid of such products shares batched log_gamma
                        calls (gamma_product is the one-product case).
  * fourier_log_integral -- exp[-int dw/w e^{-iwL} K(w)] for even kernels K,
                        reduced to a real half-line quadrature.

Two regularized Gamma/integral identities used as cross-checks of the whole
stack live here as identity_use1_residual and identity_use2_residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import zeta as sp_zeta

from .errors import NonConvergence, PoleError

# ---------------------------------------------------------------------------
# log Gamma
# ---------------------------------------------------------------------------

# Rational-approximation coefficients (g = 607/128, 15 terms).  This is the
# standard high-accuracy coefficient set for the shifted-argument form
#   Gamma(z) = sqrt(2 pi) t^(z-1/2) e^(-t) A(z),  t = z + g - 1/2,
# accurate to ~1e-15 relative for Re z >= 1/2.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = np.array([
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
])

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_POLE_RADIUS = 1e-12


def _near_nonpositive_integer(z, radius=_POLE_RADIUS):
    z = np.asarray(z)
    k = np.round(z.real)
    return (k <= 0.0) & (np.abs(z - k) <= radius)


def _log_gamma_core(z):
    """Shifted-argument rational approximation; valid for Re z >= 0.5."""
    zm1 = z - 1.0
    series = np.full_like(z, _LANCZOS_C[0])
    for i in range(1, len(_LANCZOS_C)):
        series = series + _LANCZOS_C[i] / (zm1 + i)
    t = zm1 + _LANCZOS_G + 0.5
    return _LOG_SQRT_2PI + np.log(series) + (z - 0.5) * np.log(t) - t


def _log_sin_pi_upper(z):
    """log sin(pi z) continued from the upper half plane (no 2 pi i wraps).

    Uses sin(pi z) = (i/2) e^{-i pi z} (1 - e^{2 i pi z}); for Im z >= 0 the
    last factor stays inside the unit disk so its principal log is smooth.
    """
    return (math.log(0.5) + 0.5j * math.pi) - 1j * math.pi * z \
        + np.log1p(-np.exp(2j * math.pi * z))


def log_gamma(z):
    """Principal-branch log Gamma(z) for complex scalar or ndarray input.

    Continuous limit from Im z > 0 on the negative real axis (the branch
    cut).  Raises PoleError if any entry sits within 1e-12 of a nonpositive
    integer.
    """
    z_in = np.asarray(z, dtype=complex)
    if np.any(_near_nonpositive_integer(z_in)):
        raise PoleError(f"log_gamma argument within {_POLE_RADIUS} of a pole")
    z_arr = np.atleast_1d(z_in).astype(complex)

    out = np.empty_like(z_arr)
    right = z_arr.real >= 0.5
    if np.any(right):
        out[right] = _log_gamma_core(z_arr[right])
    left = ~right
    if np.any(left):
        zl = z_arr[left]
        lower = zl.imag < 0.0
        zu = np.where(lower, np.conj(zl), zl)  # reflect into Im >= 0
        val = math.log(math.pi) - _log_sin_pi_upper(zu) - _log_gamma_core(1.0 - zu)
        out[left] = np.where(lower, np.conj(val), val)

    if np.isscalar(z) or np.ndim(z) == 0:
        return complex(out[0])
    return out.reshape(np.shape(z))


# ---------------------------------------------------------------------------
# Amplitude container
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AmplitudeValue:
    """A complex amplitude with an absolute error estimate.

    value       -- the amplitude
    err         -- estimated absolute error on value (>= 0, finite)
    terms_used  -- product terms or quadrature evaluations spent
    """

    value: complex
    err: float
    terms_used: int

    def __post_init__(self):
        if not (np.isfinite(self.value.real) and np.isfinite(self.value.imag)):
            raise ValueError("non-finite amplitude value")
        if not (np.isfinite(self.err) and self.err >= 0.0):
            raise ValueError("error estimate must be finite and >= 0")


# ---------------------------------------------------------------------------
# Balanced infinite Gamma products
# ---------------------------------------------------------------------------


# The Stirling tail is summed through k^-_TAIL_ORDER; it draws on the
# Bernoulli numbers B_0 .. B_{_TAIL_ORDER - 1} (B_1 = -1/2).
_TAIL_ORDER = 7
_BERNOULLI = (1.0, -1.0 / 2.0, 1.0 / 6.0, 0.0, -1.0 / 30.0, 0.0, 1.0 / 42.0)

# Most arguments one log_gamma call of the product engine receives.  It
# bounds the engine's working set (argument block, log-Gamma values and
# log_gamma's temporaries) to a few hundred kB whatever the grid size.
_CHUNK = 4096

# The explicit block starts at _START_TERMS terms and doubles until the tail
# is below _LADDER_TOL; a ladder that needs more than _MAX_TERMS does not
# converge.
_START_TERMS = 64
_MAX_TERMS = 65536

# Accuracy targets of the two routes: the Gamma-ladder tail estimate and the
# Fourier quadratures (their cutoff and quad's epsabs/epsrel).
_LADDER_TOL = 1e-12
_QUAD_TOL = 1e-11


@dataclass(frozen=True)
class GammaProductSpec:
    """prod_{k=0}^inf prod_i Gamma(d_i + b k)^{s_i}: signs s_i, offsets d_i
    and one step b.

    Balance requirements (checked at construction): the sum of signs
    vanishes, and the first and second moments of the offsets vanish.
    These kill the O(ln k), O(1) and O(1/k) parts of the log-summand,
    leaving an absolutely convergent O(1/k^2) tail.  A ladder whose second
    moment does not cancel diverges like a power of K; its caller balances
    it first, for instance with telescoping factors of known product.
    """

    signs: tuple
    offsets: tuple
    step: float

    def __post_init__(self):
        if not self.signs:
            raise ValueError("empty product")
        if any(s not in (+1, -1) for s in self.signs):
            raise ValueError(f"signs must be +/-1, got {self.signs}")
        if not self.step > 0.0:
            raise ValueError(f"step must be positive, got {self.step}")
        m0, m1, m2 = self._moments(3)
        if m0 != 0:
            raise ValueError("unbalanced signs")
        if abs(m1) > 1e-9:
            raise ValueError(
                f"offset first moment does not cancel (m1={m1:.3e}); "
                f"product would diverge")
        if abs(m2) > 1e-9:
            raise ValueError(
                f"offset second moment does not cancel (m2={m2:.3e}); "
                f"product would diverge")

    def _moments(self, n):
        """[M_0 .. M_{n-1}], M_j = sum_i s_i d_i^j; one offset per sign."""
        pairs = list(zip(self.signs, self.offsets, strict=True))
        return [sum(s * d ** j for s, d in pairs) for j in range(n)]

    def tail_moments(self):
        """(b, [M_0 .. M_{_TAIL_ORDER+1}], max |offset|), for the tail."""
        dmax = max(abs(d) for d in self.offsets)
        return float(self.step), self._moments(_TAIL_ORDER + 2), dmax


def _tail_correction(moments, K):
    """Asymptotic sum_{k>=K} t(k), with a truncation estimate.

    t(k) = sum_i s_i log Gamma(b k + d_i) is the log of the k-th term of
    the product, and `moments` is spec.tail_moments().  Summed over the
    factors, the Stirling series log Gamma(z + d) ~ (z + d - 1/2) ln z - z
    + ln sqrt(2 pi) + sum_{n>=1} (-1)^{n+1} B_{n+1}(d) / (n (n+1) z^n)
    loses its O(k ln k), O(ln k) and O(1) parts to M0 = M1 = 0, where
    M_j = sum_i s_i d_i^j, and its n = 1 term, M2/(2 b k), to M2 = 0.  For
    n >= 2 the Bernoulli polynomials sum to P_{n+1} = sum_{j<n} C(n+1, j)
    B_j M_{n+1-j}, and partial zeta sums close the tail exactly through
    k^-_TAIL_ORDER.

    Returns (tail, trunc, q): trunc bounds the dropped orders by the last
    two retained ones, and q is the expansion parameter max|d|/(bK); the
    bound is only trustworthy once q is well below 1.
    """
    b, m, dmax = moments
    orders = range(2, _TAIL_ORDER + 1)
    zetas = sp_zeta(np.array(orders, dtype=float), K)  # sum_{k>=K} k^-n
    terms = [
        (-1) ** (n + 1) * zeta / (n * (n + 1) * b**n)
        * sum(math.comb(n + 1, j) * _BERNOULLI[j] * m[n + 1 - j]
              for j in range(n))
        for n, zeta in zip(orders, zetas.tolist())]
    q = dmax / (b * K)
    trunc = (abs(terms[-2]) + abs(terms[-1])) * max(q, 0.05) / max(1.0 - q, 0.5)
    return sum(terms), trunc, q


def _choose_terms(spec):
    """(K, tail, trunc): the first doubling of _START_TERMS whose tail is
    below _LADDER_TOL."""
    moments = spec.tail_moments()
    K = _START_TERMS
    while True:
        tail, trunc, q = _tail_correction(moments, K)
        if q <= 0.25 and trunc <= 0.5 * _LADDER_TOL:
            return K, tail, trunc
        if 2 * K > _MAX_TERMS:
            raise NonConvergence(
                f"gamma_product tail not below tol={_LADDER_TOL} at K={K} "
                f"(estimate {trunc:.3e}, expansion parameter {q:.3f})")
        K = 2 * K


def _log_term_sums(specs, K):
    """sum_{k<K} t(k) for each spec; all share K and a factor count.

    The (spec, factor, k) arguments are built as d + b*k and their
    log-Gammas summed over factors in spec order, then over k, so each
    value is bit-identical to the same sum taken one spec at a time.
    log_gamma raises PoleError on any argument at a pole: _choose_terms
    keeps max|d| <= b K / 4, so every argument with real part <= 0 lies
    in this block.
    """
    n, F = len(specs), len(specs[0].signs)
    sign = np.array([spec.signs for spec in specs], dtype=int)[:, :, None]
    d = np.array([spec.offsets for spec in specs], dtype=complex)[:, :, None]
    b = np.array([spec.step for spec in specs], dtype=float)[:, None, None]
    k = np.arange(K, dtype=float)
    rows = max(1, _CHUNK // (F * K))   # whole specs per call ...
    width = min(K, max(1, _CHUNK // F))  # ... or a k-slice of one spec
    sums = np.empty(n, dtype=complex)
    for r0 in range(0, n, rows):
        rs = slice(r0, r0 + rows)
        terms = np.empty((len(sign[rs]), K), dtype=complex)
        for k0 in range(0, K, width):
            lg = log_gamma(d[rs] + b[rs] * k[k0:k0 + width])
            total = 0.0 + 0.0j
            for i in range(F):
                total = total + sign[rs, i] * lg[:, i, :]
            terms[:, k0:k0 + width] = total
        sums[rs] = np.sum(terms, axis=-1)
    return sums


def gamma_products(specs):
    """Evaluate balanced GammaProductSpecs; returns a list of AmplitudeValue.

    Per spec, sums K explicit log-terms plus the analytic high-order tail.
    K is grown only until the tail's own truncation estimate drops below
    _LADDER_TOL; summing further would add roundoff (each explicit term cancels
    log-Gamma values of size ~ b K log(b K)) without gaining accuracy.
    Specs that settle on the same K share log_gamma calls of at most
    _CHUNK arguments.  Raises NonConvergence if no admissible K exists up
    to _MAX_TERMS for some spec, and PoleError if some factor argument
    hits a Gamma pole.
    """
    specs = list(specs)
    chosen = [_choose_terms(spec) for spec in specs]

    groups = {}
    for i, (spec, (K, _, _)) in enumerate(zip(specs, chosen)):
        groups.setdefault((K, len(spec.signs)), []).append(i)
    log_sums = np.empty(len(specs), dtype=complex)
    for (K, _), idx in groups.items():
        log_sums[idx] = _log_term_sums([specs[i] for i in idx], K)

    out = []
    for spec, (K, tail, trunc), log_sum in zip(specs, chosen, log_sums):
        # roundoff in the explicit block: cancelling log-Gammas of size L
        bK = spec.step * K
        L = bK * max(1.0, math.log(bK))
        noise = 1e-16 * L * math.sqrt(K)
        value = complex(np.exp(complex(log_sum) + tail))
        err = abs(value) * (trunc + noise)
        out.append(AmplitudeValue(value=value, err=float(err), terms_used=K))
    return out


def gamma_product(spec):
    """Evaluate one balanced GammaProductSpec as an AmplitudeValue.

    The one-spec case of gamma_products.
    """
    return gamma_products([spec])[0]


# ---------------------------------------------------------------------------
# Fourier-type integrals
# ---------------------------------------------------------------------------

_OMEGA_LADDER = (40.0, 80.0, 160.0, 320.0, 640.0, 1280.0)


def _cutoff_for(kernel):
    """Pick an upper limit where the (decaying) kernel is negligible."""
    for omega in _OMEGA_LADDER:
        # the kernel's sinh and cosh factors grow with |omega|, so only a
        # probe can overflow: quad stays below the cutoff probed last
        try:
            value = kernel(omega)
        except OverflowError as exc:
            raise NonConvergence("kernel overflows double precision at "
                                 f"omega={omega}") from exc
        if abs(value) < 0.01 * _QUAD_TOL:
            return omega
    raise NonConvergence(
        f"kernel does not decay below {0.01 * _QUAD_TOL} by "
        f"omega={_OMEGA_LADDER[-1]}")


def _half_line_quad(integrand, freq, omega_max, tol):
    """quad of an integrand over [0, omega_max], oscillating at freq.

    Subdivides at the oscillation period 2 pi/|freq| so adaptive quad
    locks on (freq = 0: no subdivision).  Returns (value, abs_err, evals);
    raises NonConvergence carrying quad's own message when quad reports a
    failure.
    """
    # imported here, not at module level: scipy.integrate is most of the
    # package's import time and only the integral routes need it
    from scipy.integrate import quad

    pts = None
    if abs(freq) > 0.5:
        period = 2.0 * math.pi / abs(freq)
        if period < omega_max:
            pts = list(np.arange(period, omega_max, period))[:80]
    out = quad(integrand, 0.0, omega_max, limit=600, epsabs=0.1 * tol,
               epsrel=0.1 * tol, points=pts, full_output=True)
    if len(out) > 3:  # quad appends its message only when ier != 0
        raise NonConvergence(f"quad failed: {out[3]}")
    val, err, info = out
    return val, err, int(info["neval"])


def fourier_sine_integral(kernel, lam):
    """int_0^inf sin(w lam) kernel(w) / w dw for an even decaying kernel.

    Returns (value, abs_err, evals).  The integrand has a removable point
    at w = 0 (-> lam * kernel(0)).  Raises NonConvergence when quad fails.
    """
    lam = float(lam)
    omega_max = _cutoff_for(kernel)

    def integrand(w):
        if w < 1e-9:
            return lam * kernel(1e-9)
        return math.sin(w * lam) * kernel(w) / w

    val, err, evals = _half_line_quad(integrand, lam, omega_max, _QUAD_TOL)
    tail = abs(kernel(omega_max)) / omega_max  # crude bound on the rest
    return val, err + tail, evals


def fourier_log_integral(kernel, lam):
    """Amplitude exp[- int_-inf^inf dw/w e^{-i w lam} K(w)] for even K.

    Evenness reduces the principal-value integral to
        exp[ 2 i int_0^inf sin(w lam) K(w) / w dw ],
    a pure phase for real lam and real kernel.  Returns AmplitudeValue.
    """
    val, err, n = fourier_sine_integral(kernel, lam)
    amp = complex(np.exp(2j * val))
    return AmplitudeValue(value=amp, err=float(2.0 * abs(amp) * err), terms_used=n)


# ---------------------------------------------------------------------------
# Gamma/integral cross-identities
# ---------------------------------------------------------------------------


def identity_use1_residual(mu):
    """Residual of a regularized exponential-integral vs Gamma identity,
    for mu > -1:
        (1/2) int_0^inf dw/w [ e^{-mu w/2}/cosh(w/2) - e^{-2w} ]
            = ln Gamma((mu+1)/4) - ln Gamma((mu+3)/4).
    The e^{-2w} subtraction makes the integral absolutely convergent; it is
    exactly the counterterm of the classical Malmsten representation of
    log Gamma, so the identity is exact as written.

    Returns |LHS - RHS|.  Raises NonConvergence, with quad's message, when
    the quadrature fails.
    """
    mu = float(mu)
    if mu <= -1.0:
        raise ValueError("use1 requires mu > -1")

    def integrand(w):
        if w < 1e-8:
            # e^{-mu w/2}/cosh(w/2) - e^{-2w} = (2 - mu/2) w + O(w^2)
            return 0.5 * (2.0 - 0.5 * mu)
        return 0.5 * (math.exp(-0.5 * mu * w) / math.cosh(0.5 * w)
                      - math.exp(-2.0 * w)) / w

    upper = max(40.0, 80.0 / (1.0 + mu))
    lhs, _, _ = _half_line_quad(integrand, 0.0, upper, 1e-9)
    rhs = (log_gamma((mu + 1.0) / 4.0) - log_gamma((mu + 3.0) / 4.0)).real
    return abs(lhs - rhs)


def identity_use2_residual(mu, beta):
    """Residual of a regularized integral vs Gamma-product identity, for
    mu > 0 and beta > 0:
        (1/4) int_0^inf dx/x  D3[e^{-mu x}] / (sinh x sinh(beta x))
            = D3[ sum_{k>=0} ln Gamma(mu/2 + beta/2 + k beta + 1/2) ],
    where D3 is the third finite difference in mu with unit step,
    D3[f](mu) = f(mu) - 3 f(mu+1) + 3 f(mu+2) - f(mu+3).  The unregularized
    statement is formally divergent on both sides; the third difference
    cancels the x->0 divergence (and the matching divergence of the
    product) without touching the mu-dependence being tested.  The right
    side is evaluated through gamma_product, the left through quadrature:
    two independent code paths.  Returns and raises as
    identity_use1_residual does.
    """
    mu, beta = float(mu), float(beta)
    if mu <= 0.0 or beta <= 0.0:
        raise ValueError("use2 requires mu > 0 and beta > 0")
    coeff = (1.0, -3.0, 3.0, -1.0)

    def integrand(x):
        if x < 1e-6:
            # D3[e^{-mu x}] = -x^3 e^{-mu x} (1 + O(x));  1/(sinh x sinh bx) ~ 1/(b x^2)
            return -0.25 * math.exp(-mu * x) * x / beta if x > 0 else 0.0
        d3 = sum(c * math.exp(-(mu + j) * x) for j, c in enumerate(coeff))
        return 0.25 * d3 / (x * math.sinh(x) * math.sinh(beta * x))

    upper = max(40.0, 80.0 / (1.0 + mu))
    lhs, _, _ = _half_line_quad(integrand, 0.0, upper, 1e-9)

    # D3 of the log-product, as one balanced product of Gamma factors
    signs, offsets = zip(*[
        (int(math.copysign(1, c)), 0.5 * (mu + j) + (0.5 * beta + 0.5))
        for j, c in enumerate(coeff) for _ in range(int(abs(c)))])
    spec = GammaProductSpec(signs=signs, offsets=offsets, step=beta)
    rhs = math.log(abs(gamma_product(spec).value))
    return abs(lhs - rhs)
