"""Lax/R-matrix algebra: exchange relations, regularity, embeddings."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defectbethe import lax_operators
from defectbethe.lax_operators import (
    d_defect_lax,
    d_r_matrix,
    defect_lax,
    permutation_matrix,
    r_matrix,
    regularity_scale,
    rll_residual,
    two_site_operator,
    ybe_residual,
)
from defectbethe.spin_algebra import ModelParameters, build_rep

spectral = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=2.0,
    allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------


def test_two_site_operator_matches_einsum(rng):
    for dims in ([2, 3, 2], [2, 2, 5], [2, 5, 2]):
        d0, d1, d2 = dims
        n = d0 * d1
        mat = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        got = two_site_operator(mat, dims, 0, 1)
        m4 = mat.reshape(d0, d1, d0, d1)  # (row0, row1, col0, col1)
        ref = np.einsum("abcd,ef->abecdf", m4, np.eye(d2)).reshape(
            n * d2, n * d2)
        assert np.max(np.abs(got - ref)) < 1e-14, dims


def test_two_site_operator_kron_special_cases(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    mat = np.kron(a, b)
    # acting on first two of three slots: kron(a, b, I)
    got = two_site_operator(mat, [2, 3, 4], 0, 1)
    assert np.max(np.abs(got - np.kron(np.kron(a, b), np.eye(4)))) < 1e-13
    # acting on outer slots: kron(a, I, b)
    got = two_site_operator(mat, [2, 4, 3], 0, 2)
    assert np.max(np.abs(got - np.kron(np.kron(a, np.eye(4)), b))) < 1e-13
    # swapped slot order transposes the factor roles
    got = two_site_operator(mat, [3, 2], 1, 0)
    assert np.max(np.abs(got - np.kron(b, a))) < 1e-13


def test_two_site_operator_rejects_equal_slots():
    with pytest.raises(ValueError):
        two_site_operator(np.eye(4), [2, 2], 1, 1)


def test_permutation_matrix():
    p = permutation_matrix()
    assert np.max(np.abs(p @ p - np.eye(4))) == 0.0
    x = np.array([1.0, 2.0, 3.0, 4.0])
    # swap on basis (a, b) -> (b, a): components 2 and 3 exchange
    assert np.allclose(p @ x, [1.0, 3.0, 2.0, 4.0])


# ---------------------------------------------------------------------------
# regularity and derivatives
# ---------------------------------------------------------------------------


def test_regularity_both_families(xxx, trig):
    for params in (xxx, trig):
        r0 = r_matrix(params, 0.0)
        s = regularity_scale(params)
        assert np.max(np.abs(r0 - s * permutation_matrix())) < 1e-14


def test_regularity_scale_values(xxx, trig):
    assert regularity_scale(xxx) == 1j
    assert abs(regularity_scale(trig) - 1j * math.sin(0.3)) < 1e-15


@pytest.mark.parametrize("S", [0.5, 1.0, 1.5])
def test_lax_derivative_finite_difference(xxx, trig, S):
    h = 1e-6
    for params in (xxx, trig):
        rep = build_rep(S, params)
        for lam in (0.2, 1.1 - 0.4j):
            fd = (defect_lax(rep, lam + h)
                  - defect_lax(rep, lam - h)) / (2 * h)
            an = d_defect_lax(rep, lam)
            assert np.max(np.abs(fd - an)) < 1e-8


def test_r_matrix_derivative_consistency(trig):
    h = 1e-6
    fd = (r_matrix(trig, 0.5 + h) - r_matrix(trig, 0.5 - h)) / (2 * h)
    assert np.max(np.abs(fd - d_r_matrix(trig, 0.5))) < 1e-8


def test_spin_half_lax_is_r_matrix(xxx, trig):
    for params in (xxx, trig):
        rep = build_rep(0.5, params)
        assert np.max(np.abs(defect_lax(rep, 0.7)
                             - r_matrix(params, 0.7))) == 0.0


def test_rational_lax_linear_in_lambda(xxx):
    rep = build_rep(1.5, xxx)
    l0 = defect_lax(rep, 0.0)
    l1 = defect_lax(rep, 1.0)
    l_half = defect_lax(rep, 0.5)
    assert np.max(np.abs(0.5 * (l0 + l1) - l_half)) < 1e-14


# ---------------------------------------------------------------------------
# exchange relations
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(lam1=spectral, lam2=spectral)
def test_ybe_rational(lam1, lam2):
    params = ModelParameters.xxx()
    assert ybe_residual(params, lam1, lam2) < 1e-11


@settings(max_examples=40, deadline=None)
@given(lam1=spectral, lam2=spectral)
def test_ybe_trig(lam1, lam2):
    params = ModelParameters.xxz(0.3)
    assert ybe_residual(params, lam1, lam2) < 1e-11


def test_ybe_residual_is_the_explicit_triple_product(xxx, trig, rng):
    # R12 R13 R23 - R23 R13 R12 embedded slot by slot on three spin-1/2
    # spaces; ybe_residual reaches the same max-norm through rll_residual
    dims = [2, 2, 2]
    for params in (xxx, trig):
        for lam1, lam2 in rng.uniform(-2.0, 2.0, size=(20, 2)):
            r12 = two_site_operator(r_matrix(params, lam1 - lam2), dims, 0, 1)
            r13 = two_site_operator(r_matrix(params, lam1), dims, 0, 2)
            r23 = two_site_operator(r_matrix(params, lam2), dims, 1, 2)
            explicit = float(np.max(np.abs(r12 @ r13 @ r23
                                           - r23 @ r13 @ r12)))
            assert ybe_residual(params, lam1, lam2) == explicit


@pytest.mark.parametrize("S", [0.5, 1.0, 1.5, 2.0])
def test_rll_both_families(xxx, trig, S, rng):
    for params in (xxx, trig):
        rep = build_rep(S, params)
        for _ in range(5):
            l1 = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
            l2 = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
            assert rll_residual(rep, l1, l2) < 1e-11


def test_rll_residual_detects_perturbation(xxx, trig, monkeypatch):
    # the residual must not be trivially zero: poke one entry of L1(l1)
    for params in (xxx, trig):
        rep = build_rep(1.0, params)
        clean = rll_residual(rep, 0.6, -0.4)
        with monkeypatch.context() as m:
            m.setattr(lax_operators, "defect_lax",
                      _poked_lax(lax_operators.defect_lax, rep, 0.6))
            poked = rll_residual(rep, 0.6, -0.4)
        assert clean < 1e-12
        assert poked > 1e-4


def _poked_lax(defect_lax, rep, lam):
    """defect_lax with 1e-3 added to entry (0, 1) of rep's matrix at lam."""
    def poked(rep_, lam_):
        mat = defect_lax(rep_, lam_)
        if rep_ is rep and lam_ == lam:
            mat = mat.copy()
            mat[0, 1] += 1e-3
        return mat
    return poked
