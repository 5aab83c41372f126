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
    dispersion,
    kernel_hat,
    kink_S_amplitude,
    kink_S_amplitudes,
    kink_S_by_integral,
    kink_product_spec,
    one_hole_spin,
    s_matrix,
    s_matrix_ybe_residual,
    shifted_spin_rep,
    state_density,
    transmission_amplitude,
    transmission_amplitudes,
    transmission_by_integral,
    transmission_eigenvalue_ratio,
    transmission_matrix,
    transmission_product_spec_attractive,
    transmission_product_spec_repulsive,
    transmission_rtt_residual,
)
from defectbethe.errors import (
    DomainError,
    NotRealizable,
    PoleError,
    RepMismatch,
)
from defectbethe.spin_algebra import (
    ATTRACTIVE,
    REPULSIVE,
    ModelParameters,
    build_rep,
)
from defectbethe.spin_chain import elementary_ratio
from defectbethe.special_functions import (
    _tail_correction,
    gamma_products,
    log_gamma,
)

ATT16 = ModelParameters.xxz(math.pi / 1.6, ATTRACTIVE)   # nu = 1.6, gamma = 0.6
REP16 = ModelParameters.xxz(math.pi / 1.6, REPULSIVE)    # nu = 1.6, gamma = 5/3


# ---------------------------------------------------------------------------
# regime bookkeeping
# ---------------------------------------------------------------------------


def test_regime_data_rational(xxx):
    data = DefectRegimeData.from_params(xxx, 1.5, rapidity=0.4)
    assert data.regime == "rational"
    assert data.shifted_spin == 1.0
    assert data.branch_index == 0
    assert data.coupling is None
    with pytest.raises(DomainError):
        DefectRegimeData.from_params(xxx, 0.0)


def test_regime_data_repulsive(repulsive4):
    data = DefectRegimeData.from_params(repulsive4, 1.0)
    assert data.regime == REPULSIVE
    assert data.branch_index == 0
    assert abs(data.shifted_spin - 0.5) < 1e-12
    data = DefectRegimeData.from_params(REP16, 2.0)
    assert data.branch_index == 1
    assert abs(data.shifted_spin - 0.5) < 1e-12


def test_regime_data_attractive(attractive4):
    data = DefectRegimeData.from_params(attractive4, 1.0, rapidity_offset=0.3)
    assert data.regime == ATTRACTIVE
    assert data.branch_index == 0
    assert data.shifted_spin == 0.0
    assert abs(data.coupling - (1.0 + 1.5)) < 1e-12
    eta1, eta2 = data.breather_shifts
    assert abs(eta1 - 1j * math.pi * (0.3 + 2.5) / 3.0) < 1e-12
    assert abs(eta2 - 1j * math.pi * (0.3 - 2.5) / 3.0) < 1e-12

    data = DefectRegimeData.from_params(ATT16, 1.0)
    assert data.branch_index == 1
    assert data.shifted_spin == 1.0


def test_branch_window_edges(repulsive4, attractive4):
    # 2S exactly on a window edge is rejected
    with pytest.raises(DomainError):
        branch_index(repulsive4, 4.0)   # 2S = 8 = 2 nu
    with pytest.raises(DomainError):
        branch_index(attractive4, 2.0)  # 2S = 4 = nu


def test_one_hole_spin(xxx, repulsive4, attractive4):
    d = DefectRegimeData.from_params(xxx, 1.0)
    out = one_hole_spin(xxx, d)
    assert out["physical"] == 1.0 and out["renormalization"] == 1.0
    d = DefectRegimeData.from_params(repulsive4, 1.0)
    out = one_hole_spin(repulsive4, d)
    assert abs(out["physical"] - 1.0) < 1e-12
    assert abs(out["bare"] - 4.0 / 3.0) < 1e-12
    d = DefectRegimeData.from_params(attractive4, 1.0)
    out = one_hole_spin(attractive4, d)
    assert out["physical"] == 0.5 and abs(out["bare"] - 2.0) < 1e-12


# ---------------------------------------------------------------------------
# elementary ratios and kernels
# ---------------------------------------------------------------------------


def test_elementary_ratio(xxx, trig):
    assert abs(elementary_ratio("e", xxx, 1.0, 0.4)
               - (0.4 + 0.5j) / (0.4 - 0.5j)) < 1e-14
    g = elementary_ratio("g", trig, 1.0, 0.4)
    assert abs(abs(g) - 1.0) < 1e-12
    with pytest.raises(DomainError):
        elementary_ratio("g", xxx, 1.0, 0.4)
    with pytest.raises(DomainError):
        elementary_ratio("h", xxx, 1.0, 0.4)
    with pytest.raises(PoleError):
        elementary_ratio("e", xxx, 1.0, 0.5j)


def test_kernel_registry_guards(xxx, repulsive4, attractive4):
    with pytest.raises(DomainError):
        kernel_hat("nope", 0.3, xxx)
    with pytest.raises(DomainError):
        kernel_hat("a", 0.3, xxx)  # needs an order
    with pytest.raises(DomainError):
        kernel_hat("sigma0_b", 0.3, repulsive4)  # attractive-only kernel
    # attractive transmission kernel only decays on branches m <= 1
    att12 = ModelParameters.xxz(math.pi / 1.2, ATTRACTIVE)
    with pytest.raises(DomainError):
        kernel_hat("r_t", 0.3, att12, order=4.0)  # m = 3
    with pytest.raises(DomainError):
        kernel_hat("t_b", 0.3, attractive4, order=5.0)  # 2S outside (0, nu)


def test_breather_kernels_reject_non_decay(attractive4):
    # cosh-ratio breather kernels over cosh((nu - 1) w/2) grow or level off
    # for r_b and R when nu <= 2, and for t_b when 2S >= 2 nu - 2
    for nu in (1.6, 2.0):
        params = ModelParameters.xxz(math.pi / nu, ATTRACTIVE)
        for name in ("r_b", "R"):
            with pytest.raises(DomainError, match="does not decay"):
                kernel_hat(name, 0.3, params)
    att16 = ModelParameters.xxz(math.pi / 1.6, ATTRACTIVE)
    with pytest.raises(DomainError, match="does not decay"):
        kernel_hat("t_b", 0.3, att16, order=1.4)
    assert abs(kernel_hat("t_b", 80.0, att16, order=1.0)) < 1e-3
    assert abs(kernel_hat("r_b", 40.0, attractive4)) < 1e-12


def test_kernels_are_even(xxx, repulsive4, attractive4):
    cases = [("a", xxx, 2.0), ("sigma0", xxx, None), ("r_s", xxx, None),
             ("r_t", xxx, 3.0), ("a", repulsive4, 2.0),
             ("r_s", repulsive4, None), ("r_t", repulsive4, 2.0),
             ("sigma0_b", attractive4, None), ("r_b", attractive4, None),
             ("t_b", attractive4, 2.0), ("R", attractive4, None),
             ("B", attractive4, 2.0)]
    for name, params, order in cases:
        for w in (0.37, 1.9):
            assert abs(kernel_hat(name, w, params, order=order)
                       - kernel_hat(name, -w, params, order=order)) < 1e-14


# ---------------------------------------------------------------------------
# dispersion / densities
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lam", [-1.3, 0.0, 0.8])
def test_hole_dispersion_density_relation(xxx, repulsive4, attractive4, lam):
    # dp/dlam = 2 pi eps for every regime
    h = 1e-6
    for params in (xxx, repulsive4, attractive4):
        eps, _ = dispersion("hole", params, lam)
        _, pp = dispersion("hole", params, lam + h)
        _, pm = dispersion("hole", params, lam - h)
        assert abs((pp - pm) / (2 * h) - 2.0 * math.pi * eps) < 1e-8
        assert eps > 0.0


def test_breather_dispersion(attractive4):
    h = 1e-6
    for lam in (-0.9, 0.2, 1.7):
        eps, _ = dispersion("breather", attractive4, lam)
        _, pp = dispersion("breather", attractive4, lam + h)
        _, pm = dispersion("breather", attractive4, lam - h)
        assert abs((pp - pm) / (2 * h) - 2.0 * math.pi * eps) < 1e-8
    with pytest.raises(DomainError):
        dispersion("breather", ModelParameters.xxz(math.pi / 1.4, ATTRACTIVE), 0.3)
    with pytest.raises(DomainError):
        dispersion("breather", ModelParameters.xxx(), 0.3)
    with pytest.raises(DomainError):
        dispersion("wave", attractive4, 0.3)


def test_state_density_finite_size_scaling(xxx):
    data = DefectRegimeData.from_params(xxx, 1.0, rapidity=0.3)
    lam = 0.7
    eps, _ = dispersion("hole", xxx, lam)
    d1 = state_density(xxx, data, holes=[0.1], lam=lam, N=64)
    d2 = state_density(xxx, data, holes=[0.1], lam=lam, N=128)
    assert abs(d2 - eps) < abs(d1 - eps)
    assert abs((d1 - eps) / (d2 - eps) - 2.0) < 1e-6  # strict 1/N correction


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
        assert s_matrix_ybe_residual(params, pair[0], pair[1]) < 1e-10


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
        closed = transmission_amplitude(xxx, data, lam_hat).value
        integral = transmission_by_integral(xxx, data, lam_hat).value
        assert abs(closed - integral) < 1e-9


def test_transmission_duality_trig_branches(repulsive4, attractive4):
    cases = [(repulsive4, 1.0, 0), (REP16, 2.0, 1),
             (attractive4, 1.0, 0), (ATT16, 1.0, 1)]
    for params, S, m in cases:
        data = DefectRegimeData.from_params(params, S)
        assert data.branch_index == m
        for lam_hat in (0.3, 1.1, 2.4):
            closed = transmission_amplitude(params, data, lam_hat).value
            integral = transmission_by_integral(params, data, lam_hat).value
            assert abs(closed - integral) < 1e-9, (params.regime, S, lam_hat)


def test_transmission_regime_mismatch(xxx, repulsive4):
    data = DefectRegimeData.from_params(xxx, 1.0)
    with pytest.raises(DomainError):
        transmission_amplitude(repulsive4, data, 0.5)


def test_transmission_matrix_rational(xxx):
    data = DefectRegimeData.from_params(xxx, 1.5)  # shifted spin 1
    rep = shifted_spin_rep(xxx, data)
    assert rep.spin == 1.0 and rep.deformation is None
    lam_hat = 0.8
    tmat = transmission_matrix(xxx, data, rep, lam_hat)
    # eigenvalues cluster on T (multiplicity 2S~+2) and T2 (multiplicity 2S~)
    vals = np.linalg.eigvals(tmat)
    t1 = transmission_amplitude(xxx, data, lam_hat).value
    t2 = t1 * transmission_eigenvalue_ratio(data, lam_hat)
    n1 = int(np.sum(np.abs(vals - t1) < 1e-10))
    n2 = int(np.sum(np.abs(vals - t2) < 1e-10))
    assert (n1, n2) == (rep.dim + 1, rep.dim - 1)


def test_transmission_matrix_large_rapidity_limit(xxx):
    data = DefectRegimeData.from_params(xxx, 1.0)
    rep = shifted_spin_rep(xxx, data)
    tmat = transmission_matrix(xxx, data, rep, 50.0)
    assert np.max(np.abs(tmat - 1j * np.eye(2 * rep.dim))) < 0.05


def test_transmission_matrix_rep_mismatch(xxx, repulsive4):
    data = DefectRegimeData.from_params(xxx, 1.5)
    with pytest.raises(RepMismatch):
        transmission_matrix(xxx, data, build_rep(0.5, xxx), 0.4)
    with pytest.raises(RepMismatch):
        transmission_matrix(xxx, data, None, 0.4)
    # repulsive matrix insists on the renormalized deformation pi*gamma
    data_r = DefectRegimeData.from_params(repulsive4, 1.0)
    with pytest.raises(RepMismatch):
        transmission_matrix(repulsive4, data_r,
                            build_rep(0.5, repulsive4), 0.4)


def test_transmission_rtt(xxx, repulsive4):
    for params, S in ((xxx, 1.0), (xxx, 1.5), (repulsive4, 1.0)):
        data = DefectRegimeData.from_params(params, S)
        rep = shifted_spin_rep(params, data)
        res = transmission_rtt_residual(params, data, rep, 0.45, -0.65)
        assert res < 1e-11


def test_attractive_matrix_not_realizable(attractive4):
    data = DefectRegimeData.from_params(attractive4, 1.0)
    with pytest.raises(NotRealizable):
        transmission_matrix(attractive4, data, None, 0.4)
    with pytest.raises(NotRealizable):
        shifted_spin_rep(attractive4, data)
    tpl = transmission_matrix(attractive4, data, None, 0.4, symbolic=True)
    # S + 1/2 = 3/2 half-odd: collapses onto the cos branch
    assert tpl["reduction_branch"]["function"] == "cos"
    half = DefectRegimeData.from_params(attractive4, 0.5)
    tpl = transmission_matrix(attractive4, half, None, 0.4, symbolic=True)
    assert tpl["reduction_branch"] == {"function": "sin", "sign": -1}


# ---------------------------------------------------------------------------
# batched product engine
# ---------------------------------------------------------------------------


def _reference_product(spec, tol=1e-12, start_terms=64):
    """Unbatched evaluation: per-factor log_gamma over np.arange(K)."""
    moments = spec.tail_moments()
    K = start_terms
    while True:
        tail, trunc, q = _tail_correction(moments, K)
        if q <= 0.25 and trunc <= 0.5 * tol:
            break
        K *= 2
    k = np.arange(K)
    total = 0.0 + 0.0j
    for f in spec.factors:
        total = total + f.sign * log_gamma(f.argument(k))
    log_sum = complex(np.sum(total))
    if spec.renormalized:
        log_sum -= spec.renorm_coefficient() * float(sp.digamma(K))
    b_max = max(f.b for f in spec.factors)
    L = b_max * K * max(1.0, math.log(b_max * K))
    value = complex(np.exp(log_sum + tail))
    err = abs(value) * (trunc + 1e-16 * L * math.sqrt(K))
    return value, float(err), K


def _engine_grid(repulsive4, attractive4):
    """Kink, both transmission ladders and renormalized defect-field
    ladders over one grid; K runs from 64 to 512 across it."""
    lams = np.linspace(-3.0, 3.0, 13)
    g16 = ATT16.gamma
    rep = DefectRegimeData.from_params(repulsive4, 1.0)
    att = DefectRegimeData.from_params(ATT16, 0.5)
    cor = DefectRegimeData.from_params(attractive4, 1.0, rapidity_offset=0.3)
    specs = []
    for lam in lams:
        specs.append(kink_product_spec(1j * lam, g16))
        specs.append(transmission_product_spec_repulsive(
            1j * rep.gamma * lam, rep.gamma, rep.shifted_spin, 0))
        specs.append(transmission_product_spec_attractive(
            1j * lam, g16, att.coupling, 0))
        specs.append(corrigan_product_spec(*corrigan_variables(cor, lam),
                                           cor.gamma))
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
                                transmission_amplitudes(xxx, data, lams)):
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
        out = transmission_amplitudes(ATT16, data, lams)
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
    data = DefectRegimeData.from_params(attractive4, 1.0,
                                        rapidity_offset=offset)
    for lam_hat in (0.4, 1.3):
        z1, z2 = corrigan_variables(data, lam_hat)
        t_corr, rho = corrigan_form(z1, z2, data.gamma)
        t_amp = transmission_amplitude(attractive4, data, lam_hat).value
        assert abs(t_corr.value - t_amp) < 1e-9
        assert rho.err < 1e-6


def test_corrigan_needs_attractive(xxx):
    data = DefectRegimeData.from_params(xxx, 1.0)
    with pytest.raises(DomainError):
        corrigan_variables(data, 0.5)


def test_corrigan_rho_symmetric(attractive4):
    data = DefectRegimeData.from_params(attractive4, 1.0)
    z1, z2 = corrigan_variables(data, 0.7)
    _, rho_a = corrigan_form(z1, z2, data.gamma)
    _, rho_b = corrigan_form(z2, z1, data.gamma)
    assert abs(rho_a.value - rho_b.value) < 1e-10 * abs(rho_a.value)


# ---------------------------------------------------------------------------
# breathers
# ---------------------------------------------------------------------------


def test_breather_S_duality(attractive4):
    g = attractive4.gamma
    for lam in (0.3, 0.9, 2.2):
        closed = breather_S(1, 1, lam, g)
        integral = breather_S_by_integral(attractive4, lam).value
        assert abs(closed - integral) < 1e-9


def test_breather_T_duality(attractive4):
    data = DefectRegimeData.from_params(attractive4, 1.0)
    eta1, eta2 = data.breather_shifts
    for lam_hat in (0.35, 1.05, 2.0):
        closed = breather_T(1, lam_hat, data.gamma, eta1, eta2)
        integral = breather_T_by_integral(attractive4, data, lam_hat).value
        assert abs(closed - integral) < 1e-9


def test_breather_fusion(attractive4):
    g = attractive4.gamma
    lam = 0.85
    fused = breather_S(2, 1, lam, g)
    direct = breather_S(1, 1, lam + 0.5j, g) * breather_S(1, 1, lam - 0.5j, g)
    assert abs(fused - direct) < 1e-11

    data = DefectRegimeData.from_params(attractive4, 1.0)
    eta1, eta2 = data.breather_shifts
    fused = breather_T(2, lam, g, eta1, eta2)
    direct = breather_T(1, lam + 0.5j, g, eta1, eta2) \
        * breather_T(1, lam - 0.5j, g, eta1, eta2)
    assert abs(fused - direct) < 1e-11


def test_breather_unitarity(attractive4):
    g = attractive4.gamma
    v = breather_S(1, 1, 0.6, g)
    assert abs(v * breather_S(1, 1, -0.6, g) - 1.0) < 1e-11
    assert abs(abs(v) - 1.0) < 1e-11


def test_breather_label_validation(attractive4):
    data = DefectRegimeData.from_params(attractive4, 1.0)
    with pytest.raises(DomainError):
        breather_S(0, 1, 0.5, attractive4.gamma)
    with pytest.raises(DomainError):
        breather_T(0, 0.5, attractive4.gamma, *data.breather_shifts)
    with pytest.raises(DomainError):
        breather_S_by_integral(attractive4, 0.5 + 0.2j)
