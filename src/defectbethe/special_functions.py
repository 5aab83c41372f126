"""Complex log-gamma, balanced infinite Gamma products, and log-Fourier integrals.

These three primitives carry all scalar amplitude evaluations in the package:

  * log_gamma        -- principal-branch log Gamma(z), rational (Lanczos-type)
                        approximation for Re z >= 1/2, reflection below.
  * gamma_products   -- prod_{k>=0} prod_i Gamma(a_i + b_i k + c_i)^{s_i} for
                        sign-balanced factor families, truncated with an
                        asymptotic tail correction; a whole grid of such
                        products shares batched log_gamma calls
                        (gamma_product is the one-product case).
  * fourier_log_integral -- exp[-int dw/w e^{-iwL} K(w)] for even kernels K,
                        reduced to a real half-line quadrature.

Two regularized Gamma/integral identities used as cross-checks of the whole
stack live here as verify_gamma_integral_identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.special import digamma as sp_digamma, zeta as sp_zeta

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


def gamma_fn(z):
    """Gamma(z) = exp(log_gamma(z))."""
    return np.exp(log_gamma(z))


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


@dataclass(frozen=True)
class GammaFactor:
    """One factor family Gamma(a + b k + c)^sign, k = 0, 1, 2, ..."""

    sign: int
    a: complex
    b: float
    c: float = 0.0

    def argument(self, k):
        return self.a + self.b * np.asarray(k, dtype=float) + self.c


@dataclass(frozen=True)
class GammaProductSpec:
    """Specification of prod_{k=0}^inf of a balanced family of Gamma factors.

    Balance requirements (checked at construction, per step value b):
      sum of signs vanishes, and the first and second moments of the
      offsets d_i = a_i + c_i vanish.  These kill the O(ln k), O(1) and
      O(1/k) parts of the log-summand, leaving an absolutely convergent
      O(1/k^2) tail.

    With renormalized=True the second-moment condition is dropped and the
    product is read in the compensated sense

        lim_K  [ prod_{k<K} term(k) ] * K^{-c1},   c1 = sum_b M2_b / (2 b),

    which is the standard way such conditionally divergent Gamma products
    are meant; callers re-attach any scale factor (like b^c1) themselves.
    """

    factors: tuple = field(default_factory=tuple)
    renormalized: bool = False

    def __post_init__(self):
        if not self.factors:
            raise ValueError("empty product")
        for f in self.factors:
            if f.sign not in (+1, -1):
                raise ValueError(f"sign must be +/-1, got {f.sign}")
            if not f.b > 0.0:
                raise ValueError(f"step must be positive, got {f.b}")
        for b, fams in self._step_groups().items():
            m0 = sum(f.sign for f in fams)
            m1 = sum(f.sign * (f.a + f.c) for f in fams)
            m2 = sum(f.sign * (f.a + f.c) ** 2 for f in fams)
            if m0 != 0:
                raise ValueError(f"unbalanced signs in step-{b} group")
            if abs(m1) > 1e-9:
                raise ValueError(
                    f"offset first moment does not cancel in step-{b} group "
                    f"(m1={m1:.3e}); product would diverge")
            if abs(m2) > 1e-9 and not self.renormalized:
                raise ValueError(
                    f"offset second moment does not cancel in step-{b} group "
                    f"(m2={m2:.3e}); product only exists in the renormalized "
                    f"sense (pass renormalized=True)")

    def _step_groups(self):
        """Factors grouped by step b (rounded to 12 places), in order."""
        groups = {}
        for f in self.factors:
            groups.setdefault(round(f.b, 12), []).append(f)
        return groups

    def renorm_coefficient(self):
        """c1 = sum over step groups of M2/(2b); 0 for a balanced product."""
        return sum(
            sum(f.sign * (f.a + f.c) ** 2 for f in fams) / (2.0 * b)
            for b, fams in self._step_groups().items())

    def tail_moments(self):
        """Per-group offset moments M2..M8 plus max |offset|, for the tail."""
        out = []
        for b, fams in self._step_groups().items():
            m = [sum(f.sign * (f.a + f.c) ** j for f in fams) for j in range(2, 9)]
            dmax = max(abs(f.a + f.c) for f in fams)
            out.append((float(b), m, dmax))
        return out


def _tail_correction(moments, K):
    """Asymptotic sum_{k>=K} [t(k) - c1_b/k], with a truncation estimate.

    t(k) = sum_i s_i log Gamma(a_i + b_i k + c_i) is the log of the k-th
    term of the product, and `moments` is spec.tail_moments().
    Stirling-expanding sum_i s_i log Gamma(b k + d_i) in 1/k, the balance conditions
    M0 = M1 = 0 kill the O(k ln k), O(ln k) and O(1) parts, and the O(1/k)
    coefficient is c1_b = M2/(2b) (zero for a balanced product, subtracted
    explicitly for a renormalized one).  The surviving coefficients depend
    only on the offset moments M_j = sum_i s_i d_i^j.  Partial zeta sums
    close the tail exactly to the retained order (k^-7, residual O(k^-8)).

    Returns (tail, trunc, q): trunc bounds the dropped orders, and q is
    the expansion parameter max|d|/(bK); the bound is only trustworthy
    once q is well below 1.
    """
    s = {j: float(sp_zeta(j, K)) for j in range(2, 8)}  # sum_{k>=K} k^-j
    tail = 0.0 + 0.0j
    trunc = 0.0
    q = 0.0
    for b, (m2, m3, m4, m5, m6, m7, m8), dmax in moments:
        tail += (m2 / 4.0 - m3 / 6.0) / b**2 * s[2]
        tail += (m2 / 12.0 + m4 / 12.0 - m3 / 6.0) / b**3 * s[3]
        tail += (-m5 / 20.0 + m4 / 8.0 - m3 / 12.0) / b**4 * s[4]
        tail += (m6 / 30.0 - m5 / 10.0 + m4 / 12.0 - m2 / 60.0) / b**5 * s[5]
        t6 = (-6 * m7 + 21 * m6 - 21 * m5 + 7 * m3) / 252.0 / b**6 * s[6]
        t7 = (3 * m8 - 12 * m7 + 14 * m6 - 7 * m4 + 2 * m2) / 168.0 / b**7 * s[7]
        tail += t6 + t7
        qg = dmax / (b * K)
        trunc += (abs(t6) + abs(t7)) * max(qg, 0.05) / max(1.0 - qg, 0.5)
        q = max(q, qg)
    return tail, trunc, q


# Most arguments one log_gamma call of the product engine receives.  It
# bounds the engine's working set (argument block, log-Gamma values and
# log_gamma's temporaries) to a few hundred kB whatever the grid size.
_CHUNK = 4096


def _check_poles(spec):
    # poles can only occur while Re(argument) is still small
    for f in spec.factors:
        re0 = (f.a + f.c).real
        k_max_check = max(0, int(np.ceil((1.0 - re0) / f.b))) + 2
        args = f.argument(np.arange(k_max_check))
        if np.any(_near_nonpositive_integer(args)):
            raise PoleError("Gamma factor argument hits a pole of Gamma")


def _choose_terms(spec, tol, start_terms, max_terms):
    """(K, tail, trunc): the first doubling of start_terms whose tail is
    below tol."""
    moments = spec.tail_moments()
    K = int(start_terms)
    while True:
        tail, trunc, q = _tail_correction(moments, K)
        if q <= 0.25 and trunc <= 0.5 * tol:
            return K, tail, trunc
        if 2 * K > max_terms:
            raise NonConvergence(
                f"gamma_product tail not below tol={tol} at K={K} "
                f"(estimate {trunc:.3e}, expansion parameter {q:.3f})")
        K = 2 * K


def _log_term_sums(specs, K):
    """sum_{k<K} t(k) for each spec; all share K and a factor count.

    The (spec, factor, k) arguments are built as a + b*k + c and their
    log-Gammas summed over factors in spec order, then over k, so each
    value is bit-identical to the same sum taken one spec at a time.
    """
    n, F = len(specs), len(specs[0].factors)

    def column(attr, dtype):  # (spec, factor, 1) array of one attribute
        return np.array([[getattr(f, attr) for f in spec.factors]
                         for spec in specs], dtype=dtype)[:, :, None]

    sign, a = column("sign", int), column("a", complex)
    b, c = column("b", float), column("c", float)
    k = np.arange(K, dtype=float)
    rows = max(1, _CHUNK // (F * K))   # whole specs per call ...
    width = min(K, max(1, _CHUNK // F))  # ... or a k-slice of one spec
    sums = np.empty(n, dtype=complex)
    for r0 in range(0, n, rows):
        rs = slice(r0, r0 + rows)
        terms = np.empty((len(sign[rs]), K), dtype=complex)
        for k0 in range(0, K, width):
            lg = log_gamma(a[rs] + b[rs] * k[k0:k0 + width] + c[rs])
            total = 0.0 + 0.0j
            for i in range(F):
                total = total + sign[rs, i] * lg[:, i, :]
            terms[:, k0:k0 + width] = total
        sums[rs] = np.sum(terms, axis=-1)
    return sums


def gamma_products(specs, tol=1e-12, start_terms=64, max_terms=65536):
    """Evaluate balanced GammaProductSpecs; returns a list of AmplitudeValue.

    Per spec, sums K explicit log-terms plus the analytic high-order tail.
    K is grown only until the tail's own truncation estimate drops below
    tol; summing further would add roundoff (each explicit term cancels
    log-Gamma values of size ~ b K log(b K)) without gaining accuracy.
    Specs that settle on the same K share log_gamma calls of at most
    _CHUNK arguments.  Raises PoleError if some factor argument hits a
    Gamma pole, and NonConvergence if no admissible K exists below the
    ceiling, for the first spec where either happens.
    """
    specs = list(specs)
    chosen = []
    for spec in specs:
        _check_poles(spec)
        chosen.append(_choose_terms(spec, tol, start_terms, max_terms))

    groups = {}
    for i, (spec, (K, _, _)) in enumerate(zip(specs, chosen)):
        groups.setdefault((K, len(spec.factors)), []).append(i)
    log_sums = np.empty(len(specs), dtype=complex)
    for (K, _), idx in groups.items():
        log_sums[idx] = _log_term_sums([specs[i] for i in idx], K)

    out = []
    for spec, (K, tail, trunc), log_sum in zip(specs, chosen, log_sums):
        log_sum = complex(log_sum)
        if spec.renormalized:
            # sum_{k<K} t(k) - c1 psi(K) -> renormalized value as K
            # grows, since psi(K) = H_{K-1} - euler_gamma soaks up the c1/k
            # drift
            log_sum -= spec.renorm_coefficient() * float(sp_digamma(K))
        # roundoff in the explicit block: cancelling log-Gammas of size L
        b_max = max(f.b for f in spec.factors)
        L = b_max * K * max(1.0, math.log(b_max * K))
        noise = 1e-16 * L * math.sqrt(K)
        value = complex(np.exp(log_sum + tail))
        err = abs(value) * (trunc + noise)
        out.append(AmplitudeValue(value=value, err=float(err), terms_used=K))
    return out


def gamma_product(spec, tol=1e-12, start_terms=64, max_terms=65536):
    """Evaluate one balanced GammaProductSpec as an AmplitudeValue.

    The one-spec case of gamma_products.
    """
    return gamma_products([spec], tol=tol, start_terms=start_terms,
                          max_terms=max_terms)[0]


# ---------------------------------------------------------------------------
# Fourier-type integrals
# ---------------------------------------------------------------------------

_OMEGA_LADDER = (40.0, 80.0, 160.0, 320.0, 640.0, 1280.0)


def _cutoff_for(kernel, tol):
    """Pick an upper limit where the (decaying) kernel is negligible."""
    for omega in _OMEGA_LADDER:
        if abs(kernel(omega)) < 0.01 * tol:
            return omega
    raise NonConvergence(
        f"kernel does not decay below {0.01 * tol} by omega={_OMEGA_LADDER[-1]}")


def _half_line_quad(integrand, freq, omega_max, tol):
    """quad of an integrand over [0, omega_max], oscillating at freq.

    Subdivides at the oscillation period 2 pi/|freq| so adaptive quad
    locks on (freq = 0: no subdivision).  Returns (value, abs_err, evals);
    raises NonConvergence carrying quad's own message when quad reports a
    failure.
    """
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


def fourier_sine_integral(kernel, lam, tol=1e-10):
    """int_0^inf sin(w lam) kernel(w) / w dw for an even decaying kernel.

    Returns (value, abs_err, evals).  The integrand has a removable point
    at w = 0 (-> lam * kernel(0)).  Raises NonConvergence when quad fails.
    """
    lam = float(lam)
    omega_max = _cutoff_for(kernel, tol)

    def integrand(w):
        if w < 1e-9:
            return lam * kernel(1e-9)
        return math.sin(w * lam) * kernel(w) / w

    val, err, evals = _half_line_quad(integrand, lam, omega_max, tol)
    tail = abs(kernel(omega_max)) / omega_max  # crude bound on the rest
    return val, err + tail, evals


def fourier_log_integral(kernel, lam, tol=1e-10):
    """Amplitude exp[- int_-inf^inf dw/w e^{-i w lam} K(w)] for even K.

    Evenness reduces the principal-value integral to
        exp[ 2 i int_0^inf sin(w lam) K(w) / w dw ],
    a pure phase for real lam and real kernel.  Returns AmplitudeValue.
    """
    val, err, n = fourier_sine_integral(kernel, lam, tol=tol)
    amp = complex(np.exp(2j * val))
    return AmplitudeValue(value=amp, err=float(2.0 * abs(amp) * err), terms_used=n)


def inverse_fourier_even(kernel, x, tol=1e-10):
    """(1/2pi) int_-inf^inf e^{-i w x} K(w) dw = (1/pi) int_0^inf cos(w x) K(w) dw.

    Returns (value, abs_err); raises NonConvergence when quad fails.
    """
    x = float(x)
    omega_max = _cutoff_for(kernel, tol)
    val, err, _ = _half_line_quad(lambda w: math.cos(w * x) * kernel(w), x,
                                  omega_max, tol)
    return val / math.pi, err / math.pi


# ---------------------------------------------------------------------------
# Gamma/integral cross-identities
# ---------------------------------------------------------------------------


def verify_gamma_integral_identity(kind, mu_param, beta_param=None):
    """Residual of a regularized exponential-integral vs Gamma identity.

    kind='use1' (mu_param > -1):
        (1/2) int_0^inf dw/w [ e^{-mu w/2}/cosh(w/2) - e^{-2w} ]
            = ln Gamma((mu+1)/4) - ln Gamma((mu+3)/4).
    The e^{-2w} subtraction makes the integral absolutely convergent; it is
    exactly the counterterm of the classical Malmsten representation of
    log Gamma, so the identity is exact as written.

    kind='use2' (mu_param > 0, beta_param > 0):
        (1/4) int_0^inf dx/x  D3[e^{-mu x}] / (sinh x sinh(beta x))
            = D3[ sum_{k>=0} ln Gamma(mu/2 + beta/2 + k beta + 1/2) ],
    where D3 is the third finite difference in mu with unit step,
    D3[f](mu) = f(mu) - 3 f(mu+1) + 3 f(mu+2) - f(mu+3).  The unregularized
    statement is formally divergent on both sides; the third difference
    cancels the x->0 divergence (and the matching divergence of the
    product) without touching the mu-dependence being tested.  The right
    side is evaluated through gamma_product, the left through quadrature:
    two independent code paths.

    Returns |LHS - RHS|.  Raises NonConvergence, with quad's message, when
    the quadrature fails.
    """
    if kind == "use1":
        mu = float(mu_param)
        if mu <= -1.0:
            raise ValueError("use1 requires mu_param > -1")

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

    if kind == "use2":
        if beta_param is None:
            raise ValueError("use2 requires beta_param")
        mu, beta = float(mu_param), float(beta_param)
        if mu <= 0.0 or beta <= 0.0:
            raise ValueError("use2 requires mu_param > 0 and beta_param > 0")
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
        spec = GammaProductSpec(factors=tuple(
            GammaFactor(sign=int(math.copysign(1, c)), a=0.5 * (mu + j),
                        b=beta, c=0.5 * beta + 0.5)
            for j, c in enumerate(coeff) for _ in range(int(abs(c)))
        ))
        rhs = math.log(abs(gamma_product(spec).value))
        return abs(lhs - rhs)

    raise ValueError(f"unknown identity kind {kind!r}")
