"""Consistency-check layer: spectra, unitarity/crossing, quadratic algebra."""

import functools
import math

import numpy as np
import pytest

from defectbethe import amplitudes as amp
from defectbethe import physics_checks as pc
from defectbethe.errors import DomainError, NotRealizable
from defectbethe.lax_operators import defect_lax
from defectbethe.spin_algebra import ModelParameters, build_rep

GRID = np.linspace(0.15, 2.0, 8)


def _tfn(params, spin):
    data = amp.DefectRegimeData.from_params(params, spin)
    return functools.partial(amp.transmission_matrix, data), data


# ---------------------------------------------------------------------------
# defect Lax spectra
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("S", [0.5, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("lam", [1.0, 0.3 + 0.2j])
def test_rational_defect_spectrum(xxx, S, lam):
    rep = build_rep(S, xxx)
    n = rep.dim
    residual, _, _ = pc.defect_spectrum_report(rep, lam)
    assert residual <= 1e-12
    vals = pc.closed_form_defect_eigenvalues(rep, lam)
    up, dn = complex(lam) + 0.5j * n, complex(lam) - 0.5j * n
    n_up = sum(1 for v in vals if abs(v - up) < 1e-12)
    n_dn = sum(1 for v in vals if abs(v - dn) < 1e-12)
    # the two levels split (n+1, n-1), consistent with trace = 2n lam + i n
    assert (n_up, n_dn) == (n + 1, n - 1)
    tr = np.trace(defect_lax(rep, lam))
    assert abs(tr - (2 * n * complex(lam) + 1j * n)) < 1e-12
    assert abs(sum(vals) - tr) < 1e-12


@pytest.mark.parametrize("S,mu", [(0.5, 0.3), (1.0, 0.3), (1.5, 0.77),
                                  (2.0, 0.41)])
@pytest.mark.parametrize("lam", [0.7, 0.25 - 0.4j])
def test_trig_defect_spectrum(S, mu, lam):
    params = ModelParameters.xxz(mu)
    rep = build_rep(S, params)
    residual, _, _ = pc.defect_spectrum_report(rep, lam)
    assert residual <= 1e-12


def test_spectrum_reports(xxx, trig):
    residual, tol, details = pc.defect_spectrum_report(
        build_rep(1.0, xxx), 0.73)
    assert residual <= tol == 1e-12
    assert "discrepancy" not in details

    residual, tol, details = pc.defect_spectrum_report(
        build_rep(0.5, trig), 0.7)
    assert residual <= tol == 1e-8
    assert "closed_form" in details and "diagonalized" in details


# ---------------------------------------------------------------------------
# matrix unitarity / crossing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("S", [1.0, 1.5])
def test_matrix_unitarity_crossing_rational(xxx, S):
    tfn, _ = _tfn(xxx, S)
    assert max(pc.matrix_unitarity_residual(tfn, x) for x in GRID) <= 1e-9
    assert max(pc.matrix_crossing_residual(tfn, x) for x in GRID) <= 1e-9
    assert pc.matrix_unitarity_residual(tfn, 0.0) < 1e-12


def test_matrix_unitarity_crossing_repulsive(repulsive4):
    tfn, data = _tfn(repulsive4, 1.0)
    assert data.shifted_spin == 0.5
    assert max(pc.matrix_unitarity_residual(tfn, x) for x in GRID) <= 1e-9
    assert max(pc.matrix_crossing_residual(tfn, x) for x in GRID) <= 1e-9


def test_matrix_residuals_detect_perturbation(xxx):
    tfn, _ = _tfn(xxx, 1.0)
    scaled = lambda u: 1.001 * tfn(u)
    assert pc.matrix_unitarity_residual(scaled, 0.4) >= 1e-3
    assert pc.matrix_crossing_residual(scaled, 0.4) >= 1e-3


# ---------------------------------------------------------------------------
# scalar unitarity / crossing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("S", [0.5, 1.0, 1.5])
def test_scalar_identities_rational_and_repulsive(xxx, repulsive4, S):
    for params in (xxx, repulsive4):
        data = amp.DefectRegimeData.from_params(params, S)
        assert max(pc.scalar_unitarity_residual(data, x)
                   for x in GRID) <= 1e-9
        assert max(pc.scalar_crossing_residual(data, x)
                   for x in GRID) <= 1e-9


def test_scalar_identities_attractive(attractive4):
    data = amp.DefectRegimeData.from_params(attractive4, 0.5)
    assert max(pc.scalar_unitarity_residual(data, x)
               for x in GRID) <= 1e-9
    # no crossing companion is established in this regime
    with pytest.raises(DomainError):
        pc.scalar_crossing_residual(data, 0.5)


# ---------------------------------------------------------------------------
# exchange relation and M-matrix identity
# ---------------------------------------------------------------------------


def test_rtt_wrapper(xxx, repulsive4, attractive4, rng):
    for params, S in ((xxx, 1.0), (xxx, 1.5), (repulsive4, 1.0)):
        data = amp.DefectRegimeData.from_params(params, S)
        worst = 0.0
        for _ in range(4):
            l1, l2 = rng.uniform(-1.2, 1.2, size=2)
            worst = max(worst, pc.rtt_residual(data, l1, l2))
        assert worst <= 1e-10
    data_a = amp.DefectRegimeData.from_params(attractive4, 0.5)
    with pytest.raises(NotRealizable):
        pc.rtt_residual(data_a, 0.3, 0.7)


@pytest.mark.parametrize("S", [0.5, 1.0, 1.5, 2.0])
def test_m_matrix_casimir_rational(xxx, S):
    rep = build_rep(S, xxx)
    worst = max(pc.m_matrix_casimir_identity(rep, x)
                for x in (0.0, 0.4, 1.3, 0.3 + 0.7j))
    assert worst <= 1e-12


@pytest.mark.parametrize("S", [0.5, 1.0, 1.5])
def test_m_matrix_casimir_trig(trig, S):
    rep = build_rep(S, trig)
    worst = max(pc.m_matrix_casimir_identity(rep, x)
                for x in (0.0, 0.4, 1.3))
    assert worst <= 1e-12


def test_m_matrix_casimir_renormalized_rep(repulsive4):
    # the repulsive transmission rep carries deformation pi*gamma, not mu
    data = amp.DefectRegimeData.from_params(repulsive4, 1.0)
    rep = amp.shifted_spin_rep(data)
    assert abs(rep.params.mu - math.pi / 3.0) < 1e-12
    worst = max(pc.m_matrix_casimir_identity(rep, x)
                for x in (0.4, 1.1))
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# eigenvalue ratio off the diagonalized transmission matrix
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("S", [1.0, 1.5])
def test_transmission_eigenvalue_ratio_check(xxx, S):
    data = amp.DefectRegimeData.from_params(xxx, S)
    for lam in (0.3, 0.7, 1.4, -0.9):
        ratio_mat, ratio_closed, res = pc.transmission_eigenvalue_check(
            data, lam)
        assert res <= 1e-10
        assert abs(ratio_mat - ratio_closed) <= 1e-10


def test_eigenvalue_ratio_needs_two_clusters(xxx):
    # shifted spin 0 has a single eigenvalue; there is no second cluster
    data = amp.DefectRegimeData.from_params(xxx, 0.5)
    with pytest.raises(DomainError):
        pc.transmission_eigenvalue_check(data, 0.5)
