"""Representation-theory checks: commutators, Casimirs, validation paths."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defectbethe.errors import (DimensionCapExceeded, DomainError,
                                NotScalarError, RootOfUnityError)
from defectbethe.spin_algebra import (
    ATTRACTIVE,
    REPULSIVE,
    ModelParameters,
    SpinRepresentation,
    build_rep,
    casimir,
    q_number,
)


def comm(a, b):
    return a @ b - b @ a


# ---------------------------------------------------------------------------
# ModelParameters
# ---------------------------------------------------------------------------


def test_rational_parameters_reject_mu_and_regime():
    with pytest.raises(ValueError):
        ModelParameters(family="rational", mu=0.5)
    with pytest.raises(ValueError):
        ModelParameters(family="rational", regime=REPULSIVE)
    with pytest.raises(ValueError):
        ModelParameters(family="nope")


def test_trig_parameters_validate_mu_and_regime():
    with pytest.raises(ValueError):
        ModelParameters.xxz(0.0)
    with pytest.raises(ValueError):
        ModelParameters.xxz(math.pi)
    with pytest.raises(ValueError):
        ModelParameters.xxz(0.5, regime="sideways")


def test_anisotropy_guards(xxx, trig):
    with pytest.raises(DomainError):
        _ = xxx.anisotropy
    with pytest.raises(DomainError):
        _ = xxx.regime_name
    assert trig.anisotropy == 0.3
    with pytest.raises(DomainError):
        _ = trig.regime_name  # regime left unset on the plain trig fixture


def test_gamma_by_regime(repulsive4, attractive4):
    # nu = 4 in both fixtures
    assert abs(repulsive4.nu - 4.0) < 1e-12
    assert abs(repulsive4.gamma - 1.0 / 3.0) < 1e-12
    assert abs(attractive4.gamma - 3.0) < 1e-12


# ---------------------------------------------------------------------------
# q-numbers
# ---------------------------------------------------------------------------


def test_q_number_basics():
    assert abs(q_number(1.0, 0.7) - 1.0) < 1e-15
    assert abs(q_number(2.0, 0.7) - 2.0 * math.cos(0.7)) < 1e-15
    with pytest.raises(ValueError):
        q_number(1.0, 0.0)
    with pytest.raises(ValueError):
        q_number(1.0, 3.5)


@settings(max_examples=80, deadline=None)
@given(
    x=st.floats(min_value=-6.0, max_value=6.0),
    mu=st.floats(min_value=0.05, max_value=3.0),
)
def test_q_number_recurrence(x, mu):
    # [x+1] + [x-1] = 2 cos(mu) [x]
    lhs = q_number(x + 1.0, mu) + q_number(x - 1.0, mu)
    rhs = 2.0 * math.cos(mu) * q_number(x, mu)
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("S", [0.5, 1.0, 1.5, 2.0])
def test_rational_commutators(xxx, S):
    rep = build_rep(S, xxx)
    assert rep.dim == int(2 * S + 1)
    assert np.max(np.abs(comm(rep.Sz, rep.Sp) - rep.Sp)) < 1e-13
    assert np.max(np.abs(comm(rep.Sz, rep.Sm) + rep.Sm)) < 1e-13
    assert np.max(np.abs(comm(rep.Sp, rep.Sm) - 2.0 * rep.Sz)) < 1e-13


@pytest.mark.parametrize("S", [0.5, 1.0, 1.5, 2.0])
def test_trig_commutators(trig, S):
    rep = build_rep(S, trig)
    mu = trig.anisotropy
    assert np.max(np.abs(comm(rep.Sz, rep.Sp) - rep.Sp)) < 1e-13
    assert np.max(np.abs(comm(rep.Sz, rep.Sm) + rep.Sm)) < 1e-13
    # deformed relation [S+, S-] = [2 Sz]_q, diagonal entrywise
    target = np.diag([q_number(2.0 * m, mu)
                      for m in np.real(np.diag(rep.Sz))]).astype(complex)
    assert np.max(np.abs(comm(rep.Sp, rep.Sm) - target)) < 1e-12


def test_ladder_adjointness(xxx, trig):
    for params in (xxx, trig):
        rep = build_rep(1.5, params)
        assert np.max(np.abs(rep.Sp.conj().T - rep.Sm)) < 1e-15
        assert np.max(np.abs(rep.Sz - rep.Sz.conj().T)) < 1e-15


def test_highest_weight_ordering(xxx):
    rep = build_rep(1.0, xxx)
    assert np.allclose(np.real(np.diag(rep.Sz)), [1.0, 0.0, -1.0])
    # Sp annihilates the highest-weight (first) basis vector
    e0 = np.zeros(3)
    e0[0] = 1.0
    assert np.max(np.abs(rep.Sp @ e0)) == 0.0


def test_spin_zero_rep(xxx, trig):
    for params in (xxx, trig):
        rep = build_rep(0.0, params)
        assert rep.dim == 1
        assert np.max(np.abs(rep.Sz)) == 0.0
        assert np.max(np.abs(rep.Sp)) == 0.0


def test_build_rep_rejects_bad_spin(xxx):
    with pytest.raises(ValueError):
        build_rep(0.3, xxx)
    with pytest.raises(ValueError):
        build_rep(-1.0, xxx)


def test_build_rep_respects_dimension_cap(monkeypatch, xxx, trig):
    monkeypatch.setenv("DEFECTBETHE_MAX_DIM", "8")
    assert build_rep(3.5, xxx).dim == 8
    for params in (xxx, trig):
        with pytest.raises(DimensionCapExceeded,
                           match="dimension 9 exceeds cap 8"):
            build_rep(4.0, params)


def test_root_of_unity_degeneration():
    params = ModelParameters.xxz(math.pi / 2.0)
    with pytest.raises(RootOfUnityError):
        build_rep(1.5, params)


def test_spin_representation_dim_consistency(xxx):
    # dim is derived from the spin, so it cannot disagree with it
    for S in (0.0, 0.5, 1.0, 2.5):
        rep = build_rep(S, xxx)
        assert rep.dim == int(2 * S) + 1 == rep.Sz.shape[0]
    with pytest.raises(TypeError):
        SpinRepresentation(spin=0.5, dim=3, params=xxx,
                           Sz=rep.Sz, Sp=rep.Sp, Sm=rep.Sm)


# ---------------------------------------------------------------------------
# Casimir
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("S", [0.5, 1.0, 1.5, 2.0])
def test_rational_casimir_scalar(xxx, S):
    rep = build_rep(S, xxx)
    mat, scalar = casimir(rep)
    assert abs(scalar - (2 * S + 1) ** 2 / 4.0) < 1e-13
    assert np.max(np.abs(mat - scalar * np.eye(rep.dim))) < 1e-12


@pytest.mark.parametrize("S", [0.5, 1.0, 1.5])
def test_trig_casimir_scalar(trig, S):
    rep = build_rep(S, trig)
    mat, scalar = casimir(rep)
    assert abs(scalar - 2.0 * math.cos(0.3 * (2 * S + 1))) < 1e-13
    assert np.max(np.abs(mat - scalar * np.eye(rep.dim))) < 1e-12


@pytest.mark.parametrize("params", [ModelParameters.xxx(),
                                    ModelParameters.xxz(0.3)])
def test_casimir_refuses_broken_rep(params):
    # one ladder entry scaled: the Casimir diagonal is no longer constant
    rep = build_rep(1.0, params)
    sp = rep.Sp.copy()
    sp[0, 1] *= 1.1
    broken = SpinRepresentation(spin=1.0, params=params,
                                Sz=rep.Sz, Sp=sp, Sm=rep.Sm)
    with pytest.raises(NotScalarError):
        casimir(broken)
