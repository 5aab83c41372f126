"""Finite-dimensional spin representations and model parameters.

Provides the spin-S matrices for the isotropic (sl2) and anisotropic
(U_q(sl2) with q on the unit circle) families, q-numbers and Casimir
operators.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (DimensionCapExceeded, DomainError, NotScalarError,
                     RootOfUnityError)

RATIONAL = "rational"
TRIGONOMETRIC = "trigonometric"

REPULSIVE = "repulsive"
ATTRACTIVE = "attractive"

_DEFAULT_MAX_DIM = 2 ** 14


def dimension_cap():
    """Largest chain Hilbert space or spin representation allowed; override
    with env var DEFECTBETHE_MAX_DIM."""
    raw = os.environ.get("DEFECTBETHE_MAX_DIM")
    if raw is None:
        return _DEFAULT_MAX_DIM
    cap = int(raw)
    if cap < 2:
        raise ValueError("DEFECTBETHE_MAX_DIM must be >= 2")
    return cap


@dataclass(frozen=True)
class ModelParameters:
    """Which integrable family we are in, plus the anisotropy bookkeeping.

    family  -- "rational" (isotropic) or "trigonometric" (anisotropic)
    mu      -- anisotropy in (0, pi); None for the rational family
    regime  -- "repulsive" | "attractive" | None; only meaningful for the
               trigonometric family, and only needed by amplitude code
    """

    family: str
    mu: float | None = None
    regime: str | None = None

    def __post_init__(self):
        if self.family not in (RATIONAL, TRIGONOMETRIC):
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == RATIONAL:
            if self.mu is not None or self.regime is not None:
                raise ValueError("rational family takes no mu or regime")
        else:
            if self.mu is None or not (0.0 < self.mu < math.pi):
                raise ValueError("trigonometric family needs mu in (0, pi)")
            if self.regime not in (None, REPULSIVE, ATTRACTIVE):
                raise ValueError(f"unknown regime {self.regime!r}")

    @classmethod
    def xxx(cls):
        return cls(family=RATIONAL)

    @classmethod
    def xxz(cls, mu, regime=None):
        return cls(family=TRIGONOMETRIC, mu=float(mu), regime=regime)

    @property
    def is_rational(self):
        return self.family == RATIONAL

    @property
    def anisotropy(self):
        """mu; guarded so rational-family code cannot use it by accident."""
        if self.family == RATIONAL:
            raise DomainError("rational family has no anisotropy mu")
        return self.mu

    @property
    def nu(self):
        return math.pi / self.anisotropy

    @property
    def regime_name(self):
        if self.family == RATIONAL:
            raise DomainError("rational family has no regime")
        if self.regime is None:
            raise DomainError("regime not set on these parameters")
        return self.regime

    @property
    def gamma(self):
        """Renormalized coupling: 1/(nu-1) repulsive, nu-1 attractive."""
        nu = self.nu
        if self.regime_name == REPULSIVE:
            return 1.0 / (nu - 1.0)
        return nu - 1.0


@dataclass(frozen=True)
class SpinRepresentation:
    """Spin-S matrices: diagonal Sz and ladder operators Sp, Sm.

    params is the model the rep was built from: sl2 for the rational
    family, U_q(sl2) with q = e^{i mu} for the trigonometric one.  A rep
    carries its model, so nothing built on it takes the model again.
    Matrices are dense complex, basis ordered by decreasing Sz eigenvalue.
    """

    spin: float
    params: ModelParameters
    Sz: np.ndarray = field(repr=False)
    Sp: np.ndarray = field(repr=False)
    Sm: np.ndarray = field(repr=False)

    @property
    def dim(self):
        return int(round(2 * self.spin + 1))


def q_number(x, mu):
    """[x]_q = sin(mu x)/sin(mu) for q = e^{i mu} on the unit circle."""
    if not (0.0 < mu < math.pi):
        raise ValueError("mu must lie in (0, pi)")
    return math.sin(mu * x) / math.sin(mu)


def _check_half_integer(S):
    # S = 0 is allowed: the one-dimensional rep shows up as the shifted
    # spin of a repulsive spin-1/2 defect.  A 2S that overflows to inf
    # (or nan) is refused before round() can raise on it.
    two_s = 2.0 * S
    if not 0.0 <= two_s < math.inf or abs(two_s - round(two_s)) > 1e-12:
        raise ValueError(
            f"S must be a non-negative half-integer with 2S finite, got {S}")


def build_rep(S, params):
    """Spin-S representation matching the family of params.

    Rational ladder norms C_k = sqrt(k (n-k)); deformed ones replace each
    integer by its q-number.  Near a root of unity some q-number product
    turns nonpositive and the square root is ill-defined; that raises
    RootOfUnityError rather than producing a broken representation.
    Raises DimensionCapExceeded, before allocating, when 2S+1 exceeds
    dimension_cap().
    """
    _check_half_integer(S)
    n = int(round(2 * S + 1))
    cap = dimension_cap()
    if n > cap:
        raise DimensionCapExceeded(
            f"spin-{S} representation dimension {n} exceeds cap {cap}")
    alphas = np.array([(n + 1 - 2 * k) / 2.0 for k in range(1, n + 1)])
    Sz = np.diag(alphas).astype(complex)

    if params.is_rational:
        c = [math.sqrt(k * (n - k)) for k in range(1, n)]
    else:
        mu = params.anisotropy
        c = []
        for k in range(1, n):
            prod = q_number(k, mu) * q_number(n - k, mu)
            if prod <= 1e-12:
                raise RootOfUnityError(
                    f"[{k}]_q [{n - k}]_q = {prod:.3e} <= 0 at mu={mu}; "
                    f"spin-{S} representation degenerates")
            c.append(math.sqrt(prod))

    Sp = np.zeros((n, n), dtype=complex)
    for k in range(1, n):
        Sp[k - 1, k] = c[k - 1]
    Sm = Sp.T.copy()
    return SpinRepresentation(spin=float(S), params=params,
                              Sz=Sz, Sp=Sp, Sm=Sm)


def casimir(rep):
    """Casimir matrix and the scalar read off it (its mean diagonal).

    Isotropic: Sz^2 + (Sm Sp + Sp Sm)/2 + 1/4.  Deformed:
    2 (cos(mu (2 Sz + 1)) - 2 sin^2(mu) Sm Sp).  Raises NotScalarError if
    the matrix fails to be that scalar times the identity, which signals a
    broken representation.
    """
    eye = np.eye(rep.dim, dtype=complex)
    if rep.params.is_rational:
        mat = rep.Sz @ rep.Sz + 0.5 * (rep.Sm @ rep.Sp + rep.Sp @ rep.Sm) \
            + 0.25 * eye
    else:
        mu = rep.params.anisotropy
        # cos of the diagonal operator mu (2 Sz + 1), entrywise on the diagonal
        cos_diag = np.diag(np.cos(mu * (2 * np.real(np.diag(rep.Sz)) + 1.0)))
        mat = 2.0 * (cos_diag - 2.0 * math.sin(mu) ** 2 * rep.Sm @ rep.Sp)
    scalar = complex(np.trace(mat)) / rep.dim
    residual = float(np.max(np.abs(mat - scalar * eye)))
    if residual > 1e-12:
        raise NotScalarError(
            f"Casimir deviates from scalar*I by {residual:.3e}")
    return mat, scalar

