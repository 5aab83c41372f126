"""Amplitude layer: closed forms vs log-integrals, regime bookkeeping.

The duality tests are the heart of this file: every amplitude is computed
once through a Gamma-ladder (or hyperbolic) closed form and once through
an oscillatory Fourier integral over an independently coded kernel, and
the two must agree. Grid sizes here are kept small; the full-size sweeps
live in test_acceptance.py.
"""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.special as sp

from defectbethe import special_functions
from defectbethe.amplitudes import (
    DefectRegimeData,
    branch_index,
    breather_S,
    breather_S_by_integral,
    breather_T,
    breather_T_by_integral,
    corrigan_form,
    corrigan_product_spec,
    corrigan_variables,
    kink_S_amplitude,
    kink_S_amplitudes,
    kink_S_by_integral,
    kink_product_spec,
    r_b_hat,
    r_s_hat,
    r_t_hat,
    s_matrix,
    shifted_spin_rep,
    t_b_hat,
    transmission_amplitude,
    transmission_amplitudes,
    transmission_blocks,
    transmission_by_integral,
    transmission_eigenvalue_ratio,
    transmission_matrix,
    transmission_product_spec_attractive,
    transmission_product_spec_repulsive,
)
from defectbethe.errors import (
    DomainError,
    NotRealizable,
    PoleError,
)
from defectbethe.lax_operators import exchange_sides
from defectbethe.physics_checks import rtt_residual
from defectbethe.spin_algebra import (
    ATTRACTIVE,
    REPULSIVE,
    ModelParameters,
    build_rep,
)
from defectbethe.spin_chain import elementary_ratio
from defectbethe.special_functions import (
    _tail_correction,
    gamma_product,
    gamma_products,
    log_gamma,
)

ATT16 = ModelParameters.xxz(math.pi / 1.6, ATTRACTIVE)   # nu = 1.6, gamma = 0.6
REP16 = ModelParameters.xxz(math.pi / 1.6, REPULSIVE)    # nu = 1.6, gamma = 5/3


# ---------------------------------------------------------------------------
# regime bookkeeping
# ---------------------------------------------------------------------------


def test_regime_data_rational(xxx):
    data = DefectRegimeData.from_params(xxx, 1.5)
    assert data.params is xxx
    assert data.regime == "rational"
    assert data.shifted_spin == 1.0
    assert data.branch_index == 0
    assert data.coupling is None
    with pytest.raises(DomainError):
        DefectRegimeData.from_params(xxx, 0.0)


def test_regime_data_repulsive(repulsive4):
    data = DefectRegimeData.from_params(repulsive4, 1.0)
    assert data.params is repulsive4
    assert data.regime == REPULSIVE
    assert data.branch_index == 0
    assert abs(data.shifted_spin - 0.5) < 1e-12
    data = DefectRegimeData.from_params(REP16, 2.0)
    assert data.branch_index == 1
    assert abs(data.shifted_spin - 0.5) < 1e-12


def test_regime_data_attractive(attractive4):
    data = DefectRegimeData.from_params(attractive4, 1.0)
    assert data.params is attractive4
    assert data.regime == ATTRACTIVE
    assert data.branch_index == 0
    assert data.shifted_spin == 0.0
    assert abs(data.coupling - (1.0 + 1.5)) < 1e-12

    data = DefectRegimeData.from_params(ATT16, 1.0)
    assert data.branch_index == 1
    assert data.shifted_spin == 1.0


@pytest.mark.parametrize("spin", [1e308, math.inf, math.nan])
@pytest.mark.parametrize("model", ["xxx", "repulsive4", "attractive4"])
def test_regime_data_refuses_non_finite_2s(request, model, spin):
    # 2S = 2e308 overflows to inf: refused as a domain error before the
    # branch window can raise OverflowError on it
    params = request.getfixturevalue(model)
    with pytest.raises(DomainError, match="2S finite"):
        DefectRegimeData.from_params(params, spin)


def test_branch_window_edges(repulsive4, attractive4):
    # 2S exactly on a window edge is rejected
    with pytest.raises(DomainError):
        branch_index(repulsive4, 4.0)   # 2S = 8 = 2 nu
    with pytest.raises(DomainError):
        branch_index(attractive4, 2.0)  # 2S = 4 = nu


# ---------------------------------------------------------------------------
# elementary ratios and kernels
# ---------------------------------------------------------------------------


def test_elementary_ratio(xxx, trig):
    assert abs(elementary_ratio(xxx, 1.0, 0.4)
               - (0.4 + 0.5j) / (0.4 - 0.5j)) < 1e-14
    e = elementary_ratio(trig, 1.0, 0.4)
    assert abs(abs(e) - 1.0) < 1e-12
    with pytest.raises(PoleError):
        elementary_ratio(xxx, 1.0, 0.5j)


def test_kernel_registry_guards(xxx, repulsive4, attractive4):
    # every guard fires when the kernel is built, before any w
    for params in (xxx, repulsive4):
        with pytest.raises(DomainError, match="'r_b' lives in the attractive"):
            r_b_hat(params)
    with pytest.raises(DomainError, match="'t_b' lives in the attractive"):
        t_b_hat(DefectRegimeData.from_params(xxx, 1.0))
    with pytest.raises(DomainError, match="regime not set"):
        r_s_hat(ModelParameters.xxz(math.pi / 4.0))
    # attractive transmission kernel only decays on branches m <= 1
    att12 = ModelParameters.xxz(math.pi / 1.2, ATTRACTIVE)
    with pytest.raises(DomainError, match="does not decay for m >= 2"):
        r_t_hat(DefectRegimeData.from_params(att12, 2.0))  # 2S = 4, m = 3
    with pytest.raises(DomainError, match="sits on or outside windows"):
        DefectRegimeData.from_params(repulsive4, 4.0)  # 2S = 2 nu
    with pytest.raises(DomainError, match="t_b needs 0 < 2S < nu"):
        t_b_hat(DefectRegimeData.from_params(attractive4, 2.5))  # 2S = 5


def test_breather_kernels_reject_non_decay(attractive4):
    # cosh-ratio breather kernels over cosh((nu - 1) w/2) grow or level off
    # for r_b when nu <= 2, and for t_b when 2S >= 2 nu - 2
    for nu in (1.6, 2.0):
        params = ModelParameters.xxz(math.pi / nu, ATTRACTIVE)
        with pytest.raises(DomainError, match="does not decay"):
            r_b_hat(params)
    att16 = ModelParameters.xxz(math.pi / 1.6, ATTRACTIVE)
    with pytest.raises(DomainError, match="does not decay"):
        t_b_hat(DefectRegimeData.from_params(att16, 0.7))  # 2S = 1.4
    t_b = t_b_hat(DefectRegimeData.from_params(att16, 0.5))
    assert abs(t_b(80.0)) < 1e-3
    assert abs(r_b_hat(attractive4)(40.0)) < 1e-12


def test_kernels_are_even(xxx, repulsive4, attractive4):
    def data(params, spin):
        return DefectRegimeData.from_params(params, spin)

    kernels = [r_s_hat(xxx), r_t_hat(data(xxx, 1.5)),
               r_s_hat(repulsive4), r_t_hat(data(repulsive4, 1.0)),
               r_b_hat(attractive4), t_b_hat(data(attractive4, 1.0))]
    for kernel in kernels:
        for w in (0.37, 1.9):
            assert abs(kernel(w) - kernel(-w)) < 1e-14


def test_sinh_ratio_kernels_at_removable_point(repulsive4, attractive4):
    # nu = 4: below |w| = 1e-12 the sinh ratios take their closed w -> 0
    # limit, and just above it they must already agree with it.  2S = 9
    # and 5 sit on branch m = 1 of either regime.
    rep9 = DefectRegimeData.from_params(repulsive4, 4.5)
    att5 = DefectRegimeData.from_params(attractive4, 2.5)
    cases = [(r_s_hat(repulsive4), 2.0 / 3.0 / 2.0),
             (r_t_hat(rep9), 3.0 / 3.0 / 2.0),
             (r_s_hat(attractive4), -2.0 / 2.0),
             (r_t_hat(att5), -3.0 / 2.0)]
    for kernel, limit in cases:
        assert kernel(0.0) == pytest.approx(limit, rel=1e-15)
        for w in (1e-9, 1e-10, 1e-11, 1e-12, -1e-12):
            assert kernel(w) == pytest.approx(limit, rel=1e-14)


# ---------------------------------------------------------------------------
# kink-kink scattering
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lam", [0.35, 1.2, 2.7])
def test_kink_S_duality_all_regimes(xxx, repulsive4, attractive4, lam):
    for params in (xxx, repulsive4, attractive4):
        closed = kink_S_amplitude(params, lam).value
        integral = kink_S_by_integral(params, lam).value
        assert abs(closed - integral) < 1e-9


def test_kink_S_unitarity_and_normalization(xxx, repulsive4):
    for params in (xxx, repulsive4):
        assert abs(kink_S_amplitude(params, 0.0).value - 1.0) < 1e-10
        v = kink_S_amplitude(params, 0.9).value
        w = kink_S_amplitude(params, -0.9).value
        assert abs(v * w - 1.0) < 1e-10
        assert abs(abs(v) - 1.0) < 1e-10  # pure phase at real rapidity


@pytest.mark.parametrize("pair", [(0.7, -0.4), (1.3, 0.5), (-0.8, 0.9)])
def test_s_matrix_ybe(xxx, repulsive4, attractive4, pair):
    for params in (xxx, repulsive4, attractive4):
        l1, l2 = pair
        lhs, rhs = exchange_sides(s_matrix(params, l1 - l2),
                                  s_matrix(params, l1), s_matrix(params, l2))
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_s_matrix_pole(xxx):
    with pytest.raises(PoleError):
        s_matrix(xxx, 1.0j)


# ---------------------------------------------------------------------------
# kink transmission
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("S", [0.5, 1.0, 1.5])
def test_transmission_duality_rational(xxx, S):
    data = DefectRegimeData.from_params(xxx, S)
    for lam_hat in (0.25, 0.9, 2.1):
        closed = transmission_amplitude(data, lam_hat).value
        integral = transmission_by_integral(data, lam_hat).value
        assert abs(closed - integral) < 1e-9


def test_transmission_duality_trig_branches(repulsive4, attractive4):
    cases = [(repulsive4, 1.0, 0), (REP16, 2.0, 1),
             (attractive4, 1.0, 0), (ATT16, 1.0, 1)]
    for params, S, m in cases:
        data = DefectRegimeData.from_params(params, S)
        assert data.branch_index == m
        for lam_hat in (0.3, 1.1, 2.4):
            closed = transmission_amplitude(data, lam_hat).value
            integral = transmission_by_integral(data, lam_hat).value
            assert abs(closed - integral) < 1e-9, (params.regime, S, lam_hat)


def test_transmission_matrix_rational(xxx):
    data = DefectRegimeData.from_params(xxx, 1.5)  # shifted spin 1
    rep = shifted_spin_rep(data)
    assert rep.spin == 1.0 and rep.params.is_rational
    lam_hat = 0.8
    tmat = transmission_matrix(data, lam_hat)
    # eigenvalues cluster on T (multiplicity 2S~+2) and T2 (multiplicity 2S~)
    vals = np.linalg.eigvals(tmat)
    t1 = transmission_amplitude(data, lam_hat).value
    t2 = t1 * transmission_eigenvalue_ratio(data, lam_hat)
    n1 = int(np.sum(np.abs(vals - t1) < 1e-10))
    n2 = int(np.sum(np.abs(vals - t2) < 1e-10))
    assert (n1, n2) == (rep.dim + 1, rep.dim - 1)


def test_transmission_matrix_large_rapidity_limit(xxx):
    data = DefectRegimeData.from_params(xxx, 1.0)
    rep = shifted_spin_rep(data)
    tmat = transmission_matrix(data, 50.0)
    assert np.max(np.abs(tmat - 1j * np.eye(2 * rep.dim))) < 0.05


def test_transmission_rtt(xxx, repulsive4):
    for params, S in ((xxx, 1.0), (xxx, 1.5), (repulsive4, 1.0)):
        data = DefectRegimeData.from_params(params, S)
        res = rtt_residual(data, 0.45, -0.65)
        assert res < 1e-11


def _two_branch_blocks(rep, lam):
    # reference copy of the explicit sin/linear block formula
    lam = complex(lam)
    mu = rep.params.mu
    if mu is None:
        eye = np.eye(rep.dim)
        return np.block([[(1j * lam + 0.5) * eye + rep.Sz, rep.Sm],
                         [rep.Sp, (1j * lam + 0.5) * eye - rep.Sz]])
    sz = np.diag(rep.Sz)
    return np.block([
        [np.diag(np.sin(mu * (1j * lam + sz + 0.5))), math.sin(mu) * rep.Sm],
        [math.sin(mu) * rep.Sp, np.diag(np.sin(mu * (1j * lam - sz + 0.5)))]])


def test_transmission_blocks_match_two_branch_formula(xxx):
    # the blocks are -i times the Lax matrix at -lam; check them against
    # the formula written out per branch
    for params in (xxx, ModelParameters.xxz(0.3), ModelParameters.xxz(1.0)):
        for S in (0.0, 0.5, 1.0, 1.5):
            rep = build_rep(S, params)
            for lam in (0.0, 0.7, -1.3 + 0.4j, 0.25 - 2.0j):
                ref = _two_branch_blocks(rep, lam)
                gap = np.max(np.abs(transmission_blocks(rep, lam) - ref))
                assert gap <= 1e-15 * np.max(np.abs(ref)), (S, lam)


def test_ladder_specs_match_explicit_factors():
    # reference copies of the three ladders as eight explicit factors
    signs = (+1, +1, +1, +1, -1, -1, -1, -1)

    def parts(spec):
        return spec.signs, spec.offsets, spec.step

    for z, g, st, m in ((0.4j, 1.0 / 3.0, 0.5, 0), (-1.2 + 0.3j, 3.0, 1.0, 1),
                        (2.5j, 5.0 / 3.0, 0.0, 0)):
        kink = (z + 2 * g, z + 1.0, -z + g, -z + (g + 1.0),
                z + g, z + (g + 1.0), -z + 2 * g, -z + 1.0)
        assert parts(kink_product_spec(z, g)) == (signs, kink, 2 * g)
        u = g * st - m + g / 2.0
        rep = (z + (u + g), z + (-u + g + 1.0),
               -z + u, -z + (-u + 2 * g + 1.0),
               z + u, z + (-u + 2 * g + 1.0),
               -z + (u + g), -z + (-u + g + 1.0))
        assert parts(transmission_product_spec_repulsive(z, g, st, m)) \
            == (signs, rep, 2 * g)
        xi = st + 0.5 + g / 2.0
        x = xi - m * (g + 1.0)
        att = (z + (-x + 2 * g + 0.5), z + (x + 0.5),
               -z + (-x + g + 0.5), -z + (x + g + 0.5),
               z + (-x + g + 0.5), z + (x + g + 0.5),
               -z + (-x + 2 * g + 0.5), -z + (x + 0.5))
        assert parts(transmission_product_spec_attractive(z, g, xi, m)) \
            == (signs, att, 2 * g)


def test_shifted_spin_rep_not_realizable_outside_window():
    # nu = pi/2: pi*gamma = 1.75 pi lies outside (0, pi)
    params = ModelParameters.xxz(2.0, REPULSIVE)
    with pytest.raises(NotRealizable):
        shifted_spin_rep(DefectRegimeData.from_params(params, 1.0))
    # nu = pi/1.1: the shifted spin-1 rep degenerates at pi*gamma
    params = ModelParameters.xxz(1.1, REPULSIVE)
    with pytest.raises(NotRealizable):
        shifted_spin_rep(DefectRegimeData.from_params(params, 1.5))


def test_attractive_matrix_not_realizable(attractive4):
    data = DefectRegimeData.from_params(attractive4, 1.0)
    with pytest.raises(NotRealizable, match="infinite-dimensional"):
        transmission_matrix(data, 0.4)
    with pytest.raises(NotRealizable):
        shifted_spin_rep(data)


# ---------------------------------------------------------------------------
# batched product engine
# ---------------------------------------------------------------------------


def _reference_product(spec, tol=1e-12):
    """Unbatched evaluation: per-factor log_gamma over np.arange(K)."""
    b, moments = spec.step, spec.tail_moments()
    K = 64
    while True:
        tail, trunc, q = _tail_correction(moments, K)
        if q <= 0.25 and trunc <= 0.5 * tol:
            break
        K *= 2
    k = np.arange(K)
    total = 0.0 + 0.0j
    for s, d in zip(spec.signs, spec.offsets):
        total = total + s * log_gamma(d + b * k)
    log_sum = complex(np.sum(total))
    L = b * K * max(1.0, math.log(b * K))
    value = complex(np.exp(log_sum + tail))
    err = abs(value) * (trunc + 1e-16 * L * math.sqrt(K))
    return value, float(err), K


def _engine_grid(repulsive4, attractive4):
    """Kink, both transmission ladders and defect-field ladders (at
    rapidities offset by -0.3i) over one grid; K runs from 64 to 512
    across it."""
    lams = np.linspace(-3.0, 3.0, 13)
    g16 = ATT16.gamma
    rep = DefectRegimeData.from_params(repulsive4, 1.0)
    att = DefectRegimeData.from_params(ATT16, 0.5)
    cor = DefectRegimeData.from_params(attractive4, 1.0)
    specs = []
    for lam in lams:
        specs.append(kink_product_spec(1j * lam, g16))
        specs.append(transmission_product_spec_repulsive(
            1j * rep.params.gamma * lam, rep.params.gamma,
            rep.shifted_spin, 0))
        specs.append(transmission_product_spec_attractive(
            1j * lam, g16, att.coupling, 0))
        specs.append(corrigan_product_spec(
            *corrigan_variables(cor, lam - 0.3j), cor.params.gamma))
    return specs


def test_gamma_products_match_unbatched_reference(repulsive4, attractive4):
    specs = _engine_grid(repulsive4, attractive4)
    got = gamma_products(specs)
    assert {av.terms_used for av in got} == {64, 128, 256, 512}
    for spec, av in zip(specs, got):
        assert (av.value, av.err, av.terms_used) == _reference_product(spec)


def test_gamma_products_respect_chunk_cap(repulsive4, attractive4,
                                             monkeypatch):
    specs = _engine_grid(repulsive4, attractive4)
    wide = gamma_products(specs)
    sizes = []

    def counting_log_gamma(z):
        sizes.append(np.size(z))
        return log_gamma(z)

    monkeypatch.setattr(special_functions, "log_gamma", counting_log_gamma)
    gamma_products(specs)
    assert max(sizes) <= 4096
    # 100 < 8 factors * 64 terms: every spec is split along k
    sizes.clear()
    monkeypatch.setattr(special_functions, "_CHUNK", 100)
    assert gamma_products(specs) == wide
    assert max(sizes) <= 100


def test_rational_grids_match_pointwise_closed_form(xxx):
    lams = np.linspace(-2.0, 2.0, 9)
    data = DefectRegimeData.from_params(xxx, 1.5)
    st = data.shifted_spin
    for lam, kink, trans in zip(lams, kink_S_amplitudes(xxx, lams),
                                transmission_amplitudes(data, lams)):
        x = complex(lam)
        k_ref = np.exp(log_gamma(-0.5j * x + 0.5) + log_gamma(0.5j * x + 1.0)
                       - log_gamma(-0.5j * x + 1.0)
                       - log_gamma(0.5j * x + 0.5))
        t_ref = np.exp(log_gamma(0.5j * x + st / 2.0 + 0.75)
                       + log_gamma(-0.5j * x + st / 2.0 + 0.25)
                       - log_gamma(0.5j * x + st / 2.0 + 0.25)
                       - log_gamma(-0.5j * x + st / 2.0 + 0.75))
        assert kink.value == complex(k_ref) and kink.terms_used == 0
        assert trans.value == complex(t_ref) and trans.terms_used == 0


def test_transmission_sweep_memory_is_bounded():
    # 400 points at K up to 512; with the log_gamma calls uncapped the
    # same sweep peaked at 47 MB under tracemalloc, with the cap at 1.7 MB
    data = DefectRegimeData.from_params(ATT16, 0.5)
    lams = np.linspace(-3.0, 3.0, 400)
    tracemalloc.start()
    try:
        out = transmission_amplitudes(data, lams)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert max(av.terms_used for av in out) == 512
    assert peak < 4e6


# ---------------------------------------------------------------------------
# defect-field (corrigan) route
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("offset", [0.0, 0.3])
def test_corrigan_matches_transmission(attractive4, offset):
    data = DefectRegimeData.from_params(attractive4, 1.0)
    for lam_hat in (0.4 - 1j * offset, 1.3 - 1j * offset):
        z1, z2 = corrigan_variables(data, lam_hat)
        t_corr, rho = corrigan_form(z1, z2, data.params.gamma)
        t_amp = transmission_amplitude(data, lam_hat).value
        assert abs(t_corr.value - t_amp) < 1e-9
        assert rho.err < 1e-6


def test_corrigan_errors_are_the_ladders_relative_error(attractive4):
    data = DefectRegimeData.from_params(attractive4, 1.0)
    z1, z2 = corrigan_variables(data, 0.4 - 0.3j)
    t, rho = corrigan_form(z1, z2, data.params.gamma)
    ladder = gamma_product(corrigan_product_spec(z1, z2, data.params.gamma))
    rel = ladder.err / abs(ladder.value)
    for av in (t, rho):
        assert abs(av.err / abs(av.value) / rel - 1.0) < 1e-9


@pytest.mark.parametrize("z1, z2, gamma", [
    (-0.3 + 0.2j, 0.45 - 0.1j, 0.7),
    (0.1 - 0.25j, -0.2 + 0.35j, 5.0 / 3.0),
], ids=["gamma=0.7", "gamma=1.667"])
def test_corrigan_form_vs_printed_ladder_brute_force(z1, z2, gamma):
    """The balanced form vs the printed eight-factor ladder, read as
    lim_K [prod_{k<K} term(k)] K^{z1+z2}.

    The oracle sums scipy log-Gammas with the -c1 psi(K) counterterm,
    c1 = -(z1 + z2), and Richardson-extrapolates the 1/K and 1/K^2
    drift over K = 250, 500, 1000; at larger K the roundoff of the
    summed log-Gammas passes 1e-8.
    """
    h, w, b = gamma + 0.5, 2 * gamma + 0.5, 2 * gamma
    up = (z1 + h, z2 + h, -z1 + w, -z2 + w)
    down = (z1 + w, z2 + w, -z1 + h, -z2 + h)

    def brute_log(K):
        k = b * np.arange(K)
        total = sum(sp.loggamma(d + k) for d in up) \
            - sum(sp.loggamma(d + k) for d in down)
        return np.sum(total) + (z1 + z2) * sp.digamma(K)

    f1, f2, f4 = brute_log(250), brute_log(500), brute_log(1000)
    ladder = np.exp((8.0 * f4 - 6.0 * f2 + f1) / 3.0)
    oracle = (ladder * b ** (z1 + z2) * sp.gamma(0.5 - z1)
              * sp.gamma(0.5 - z2) * np.sin(math.pi * (z2 + 0.5)) / math.pi)
    assert abs(corrigan_form(z1, z2, gamma)[0].value - oracle) < 1e-8


def test_corrigan_needs_attractive(xxx):
    data = DefectRegimeData.from_params(xxx, 1.0)
    with pytest.raises(DomainError):
        corrigan_variables(data, 0.5)


def test_corrigan_rho_symmetric(attractive4):
    data = DefectRegimeData.from_params(attractive4, 1.0)
    z1, z2 = corrigan_variables(data, 0.7)
    _, rho_a = corrigan_form(z1, z2, data.params.gamma)
    _, rho_b = corrigan_form(z2, z1, data.params.gamma)
    assert abs(rho_a.value - rho_b.value) < 1e-10 * abs(rho_a.value)


# ---------------------------------------------------------------------------
# breathers
# ---------------------------------------------------------------------------


def test_breather_S_duality(attractive4):
    for lam in (0.3, 0.9, 2.2):
        closed = breather_S(attractive4, 1, 1, lam)
        integral = breather_S_by_integral(attractive4, lam).value
        assert abs(closed - integral) < 1e-9


def test_breather_T_duality(attractive4):
    data = DefectRegimeData.from_params(attractive4, 1.0)
    for lam_hat in (0.35, 1.05, 2.0):
        closed = breather_T(data, 1, lam_hat)
        integral = breather_T_by_integral(data, lam_hat).value
        assert abs(closed - integral) < 1e-9


def test_breather_fusion(attractive4):
    lam = 0.85
    fused = breather_S(attractive4, 2, 1, lam)
    direct = (breather_S(attractive4, 1, 1, lam + 0.5j)
              * breather_S(attractive4, 1, 1, lam - 0.5j))
    assert abs(fused - direct) < 1e-11

    data = DefectRegimeData.from_params(attractive4, 1.0)
    fused = breather_T(data, 2, lam)
    direct = breather_T(data, 1, lam + 0.5j) * breather_T(data, 1, lam - 0.5j)
    assert abs(fused - direct) < 1e-11


def test_breather_unitarity(attractive4):
    v = breather_S(attractive4, 1, 1, 0.6)
    assert abs(v * breather_S(attractive4, 1, 1, -0.6) - 1.0) < 1e-11
    assert abs(abs(v) - 1.0) < 1e-11


@pytest.mark.parametrize("lam", [np.complex128(0.3 + 0.2j), 0.3 + 0.2j],
                         ids=["numpy", "python"])
@pytest.mark.parametrize("route", ["kink", "transmission", "breather-s",
                                   "breather-t"])
def test_integral_routes_refuse_complex_rapidity(xxx, attractive4, route,
                                                 lam):
    # the log-integrals are real-line Fourier integrals: a complex rapidity
    # is refused, not cut to its real part
    call = {
        "kink": lambda: kink_S_by_integral(xxx, lam),
        "transmission": lambda: transmission_by_integral(
            DefectRegimeData.from_params(xxx, 1.0), lam),
        "breather-s": lambda: breather_S_by_integral(attractive4, lam),
        "breather-t": lambda: breather_T_by_integral(
            DefectRegimeData.from_params(attractive4, 1.0), lam),
    }[route]
    with pytest.raises(DomainError, match="needs a real rapidity"):
        call()


def test_breather_label_validation(attractive4):
    data = DefectRegimeData.from_params(attractive4, 1.0)
    with pytest.raises(DomainError):
        breather_S(attractive4, 0, 1, 0.5)
    with pytest.raises(DomainError):
        breather_T(data, 0, 0.5)
    with pytest.raises(DomainError):
        breather_S_by_integral(attractive4, 0.5 + 0.2j)
