"""Cross-cutting consistency checks.

Everything here re-derives a quantity along two independent routes and
reports the gap: closed-form defect spectra against direct
diagonalization, unitarity and crossing of the transmission matrix,
Casimir scalars behind those identities, and the quadratic exchange
relation tying transmission to the bulk two-body matrix.
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import amplitudes
from .errors import (DegenerateSpectrum, DomainError, NotRealizable,
                     RepMismatch)
from .lax_operators import defect_lax
from .spin_algebra import ATTRACTIVE, REPULSIVE, casimir, total_spin_operator


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one named check, in a shape the CLI can serialize."""

    name: str
    passed: bool
    residual: float
    tolerance: float
    details: dict = field(default_factory=dict)

    def to_record(self):
        rec = {"check": self.name, "passed": bool(self.passed),
               "residual": float(self.residual),
               "tolerance": float(self.tolerance)}
        rec.update(self.details)
        return rec


def closed_form_defect_eigenvalues(params, rep, lam):
    """Closed-form spectrum of the one-site defect matrix, with multiplicity.

    The eigenvector ansatz pairs the two extremal weight vectors with the
    upper eigenvalue and gives one up/down pair per interior weight, so
    for n = 2S+1 the isotropic spectrum is lam + in/2 with multiplicity
    n+1 and lam - in/2 with multiplicity n-1.  (The even n/n split
    sometimes quoted for it fails the trace identity tr = 2n*lam + i*n.)
    The anisotropic interior pair comes from the quadratic that the
    component ratio of each ansatz vector satisfies.
    """
    lam = complex(lam)
    n = rep.dim
    if params.is_rational:
        up = lam + 0.5j * n
        dn = lam - 0.5j * n
        return [up] * (n + 1) + [dn] * (n - 1)
    mu = params.anisotropy
    extremal = cmath.sinh(mu * (lam + 0.5j * n))
    vals = [extremal, extremal]
    for k in range(1, n):
        base = math.cos(0.5 * mu * (n - 2 * k)) * cmath.sinh(mu * lam)
        inner = (-1.0 - math.cos(mu * (2 * k - n)) + 2.0 * math.cos(n * mu)
                 + cmath.cosh(2.0 * mu * lam)
                 * (-1.0 + math.cos(mu * (n - 2 * k))))
        root = 0.5 * cmath.sqrt(inner)
        vals.append(base + root)
        vals.append(base - root)
    return vals


def _multiset_match_residual(closed, diag):
    """Best-case max pairing distance between two eigenvalue multisets."""
    closed = np.asarray(closed, dtype=complex)
    diag = np.asarray(diag, dtype=complex)
    cost = np.abs(closed[:, None] - diag[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(np.max(cost[rows, cols]))


def _check_generic(closed):
    # Distinct closed-form values that nearly collide make the multiset
    # pairing ambiguous; identical copies of one value are fine.
    vals = list(closed)
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            d = abs(vals[i] - vals[j])
            if 1e-13 < d <= 1e-10:
                raise DegenerateSpectrum(
                    f"closed-form eigenvalues {vals[i]} and {vals[j]} are "
                    "separated by less than 1e-10; pick a generic rapidity")


def defect_spectrum_closed_form(params, rep, lam):
    """Closed-form defect eigenvalues and their distance to diagonalization.

    Returns (eigenvalues, residual) where eigenvalues is the closed-form
    multiset (length 2 * rep.dim) and residual the max distance under an
    optimal multiset pairing with numpy's spectrum of the same matrix.
    """
    closed, diag = _spectra(params, rep, lam)
    return closed, _multiset_match_residual(closed, diag)


def _spectra(params, rep, lam):
    """(closed-form multiset, numpy spectrum) of the defect matrix."""
    closed = closed_form_defect_eigenvalues(params, rep, lam)
    _check_generic(closed)
    return closed, np.linalg.eigvals(defect_lax(params, rep, complex(lam)))


def defect_spectrum_report(params, rep, lam, tol=None):
    """CheckReport for the closed-form-vs-diagonalization spectrum test.

    Diagonalization is authoritative.  The isotropic closed form is exact
    arithmetic, so the bar sits at 1e-12; the anisotropic closed form is
    held to 1e-8 and a failure beyond that is documented with both
    multisets rather than hidden.
    """
    if tol is None:
        tol = 1e-12 if params.is_rational else 1e-8
    closed, diag = _spectra(params, rep, lam)
    residual = _multiset_match_residual(closed, diag)
    diag = sorted(diag, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    details = {
        "family": params.family,
        "spin": rep.spin,
        "lambda": [complex(lam).real, complex(lam).imag],
        "closed_form": [[z.real, z.imag] for z in sorted(
            closed, key=lambda z: (round(z.real, 9), round(z.imag, 9)))],
        "diagonalized": [[complex(z).real, complex(z).imag] for z in diag],
    }
    passed = residual <= tol
    if not passed:
        details["discrepancy"] = (
            "closed form and diagonalization disagree beyond tolerance; "
            "treat the diagonalized multiset as ground truth")
    return CheckReport(name="defect-spectrum", passed=passed,
                       residual=residual, tolerance=tol, details=details)


def defect_spin_spectrum(rep):
    """Closed-form multiset of total z-spin values on aux x rep.

    Extremal values +-(S + 1/2) once each, every interior value
    S + 1/2 - k twice.  Sorted descending.
    """
    s = rep.spin
    vals = [s + 0.5]
    for k in range(1, rep.dim):
        vals.extend([s + 0.5 - k] * 2)
    vals.append(-s - 0.5)
    return sorted(vals, reverse=True)


def defect_spin_spectrum_residual(rep):
    """Gap between the closed spin multiset and the diagonalized one."""
    closed = np.array(sorted(defect_spin_spectrum(rep)))
    diag = np.sort(np.linalg.eigvalsh(total_spin_operator(rep)))
    return float(np.max(np.abs(closed - diag)))


def matrix_unitarity_residual(T_fn, lam):
    """Max-norm deviation of T(lam) T(-lam) from the identity."""
    lam = complex(lam)
    left = np.asarray(T_fn(lam))
    right = np.asarray(T_fn(-lam))
    eye = np.eye(left.shape[0])
    return float(np.max(np.abs(left @ right - eye)))


def _aux_partial_transpose(mat):
    """Transpose on the two-dimensional auxiliary factor only."""
    d = mat.shape[0] // 2
    blocks = mat.reshape(2, d, 2, d)
    return np.ascontiguousarray(blocks.transpose(2, 1, 0, 3)).reshape(
        2 * d, 2 * d)


def matrix_crossing_residual(T_fn, lam):
    """Crossing residual with trivial gradation matrix.

    Checks T^{t1}(-lam + i) T^{t1}(lam + i) = I, where t1 transposes the
    auxiliary space.  The shift by i sits in the same rapidity variable
    the matrix is parametrized by.
    """
    lam = complex(lam)
    left = _aux_partial_transpose(np.asarray(T_fn(-lam + 1j)))
    right = _aux_partial_transpose(np.asarray(T_fn(lam + 1j)))
    eye = np.eye(left.shape[0])
    return float(np.max(np.abs(left @ right - eye)))


def scalar_unitarity_residual(params, data, lam):
    """|T(lam) T(-lam) - 1| for the scalar transmission eigenvalue."""
    lam = complex(lam)
    left = amplitudes.transmission_amplitude(params, data, lam).value
    right = amplitudes.transmission_amplitude(params, data, -lam).value
    return abs(left * right - 1.0)


def _crossing_ratio(params, data, lam):
    st = data.shifted_spin
    if data.regime == "rational":
        num = (1j * lam + st + 0.5) * (-1j * lam + st + 0.5)
        den = (1j * lam + st - 0.5) * (-1j * lam + st - 0.5)
    elif data.regime == REPULSIVE:
        mu = math.pi * data.gamma
        num = (cmath.sin(mu * (1j * lam + st + 0.5))
               * cmath.sin(mu * (-1j * lam + st + 0.5)))
        den = (cmath.sin(mu * (1j * lam + st - 0.5))
               * cmath.sin(mu * (-1j * lam + st - 0.5)))
    else:
        raise DomainError(
            "scalar crossing companion is established for the rational and "
            "repulsive forms only")
    if abs(den) < 1e-13:
        raise DomainError(f"crossing ratio pole at lam = {lam}")
    return num / den


def scalar_crossing_residual(params, data, lam):
    """Residual of T(lam+i) T(-lam+i) * (Casimir ratio) = 1."""
    lam = complex(lam)
    left = amplitudes.transmission_amplitude(params, data, lam + 1j).value
    right = amplitudes.transmission_amplitude(params, data, -lam + 1j).value
    return abs(left * right * _crossing_ratio(params, data, lam) - 1.0)


def rtt_residual(params, data, lam1, lam2):
    """Exchange-algebra residual S12 T1 T2 = T2 T1 S12.

    Only regimes with a finite shifted-spin representation can realize
    the matrices: rational always, repulsive when the shifted spin is a
    half-integer.  The attractive matrix would need an
    infinite-dimensional module, so it raises NotRealizable.
    """
    try:
        rep = amplitudes.shifted_spin_rep(params, data)
    except ValueError as exc:
        raise NotRealizable(
            f"shifted spin {data.shifted_spin} has no finite "
            f"representation: {exc}") from exc
    return amplitudes.transmission_rtt_residual(params, data, rep,
                                                lam1, lam2)


def m_matrix_casimir_identity(params, rep, lam):
    """Scalar collapse of the block defect matrix times its reflection.

    The block matrix M is amplitudes.transmission_blocks on rep.

    Verifies M(lam) M(-lam) = scalar * I and the partially transposed
    companion M^{t1}(lam+i) M^{t1}(-lam+i) = scalar * I, with
    scalar = (i lam + S + 1/2)(-i lam + S + 1/2) in the isotropic case
    and sin(mu(i lam + S + 1/2)) sin(mu(-i lam + S + 1/2)) in the
    deformed one.  Both scalars are fixed by the Casimir: lam^2 + C and
    cos(2 i mu lam)/2 - C_q/4 respectively.  Returns the worst residual.
    """
    lam = complex(lam)
    s = rep.spin
    _, cas = casimir(rep)
    if params.is_rational:
        scalar = (1j * lam + s + 0.5) * (-1j * lam + s + 0.5)
        via_casimir = lam * lam + cas
    else:
        mu = rep.deformation if rep.deformation is not None \
            else params.anisotropy
        scalar = (cmath.sin(mu * (1j * lam + s + 0.5))
                  * cmath.sin(mu * (-1j * lam + s + 0.5)))
        via_casimir = 0.5 * cmath.cos(2j * mu * lam) - 0.25 * cas
    eye = np.eye(2 * rep.dim, dtype=complex)
    blocks = amplitudes.transmission_blocks
    plain = blocks(rep, lam) @ blocks(rep, -lam)
    crossed = _aux_partial_transpose(blocks(rep, lam + 1j)) \
        @ _aux_partial_transpose(blocks(rep, -lam + 1j))
    r1 = float(np.max(np.abs(plain - scalar * eye)))
    r2 = float(np.max(np.abs(crossed - scalar * eye)))
    r3 = abs(scalar - via_casimir)
    return max(r1, r2, r3)


def transmission_eigenvalue_check(params, data, rep, lam_hat):
    """Ratio of the two transmission eigenvalues read off the matrix.

    Diagonalizes the transmission matrix, clusters its eigenvalues (the
    aux (x) rep product splits into two irreducible blocks, of sizes
    2S~+2 and 2S~), and compares minor/major with the closed ratio
    (i lam - S~ - 1/2)/(i lam + S~ + 1/2).  Returns
    (ratio_from_matrix, ratio_closed, residual).
    """
    if data.shifted_spin < 0.25:
        raise DomainError(
            "shifted spin 0 carries a single eigenvalue; no ratio to check")
    tmat = amplitudes.transmission_matrix(params, data, rep, lam_hat)
    evals = np.linalg.eigvals(tmat)
    scale = float(np.max(np.abs(evals)))
    clusters = []
    for ev in evals:
        for cl in clusters:
            if abs(ev - cl[0]) < 1e-6 * scale:
                cl.append(ev)
                break
        else:
            clusters.append([ev])
    if len(clusters) != 2:
        raise DegenerateSpectrum(
            f"expected two eigenvalue clusters, found {len(clusters)}; "
            "the rapidity is too close to a degeneracy")
    clusters.sort(key=len, reverse=True)
    n_major, n_minor = len(clusters[0]), len(clusters[1])
    if (n_major, n_minor) != (rep.dim + 1, rep.dim - 1):
        raise DegenerateSpectrum(
            f"cluster sizes {(n_major, n_minor)} do not match the "
            f"expected split {(rep.dim + 1, rep.dim - 1)}")
    major = complex(np.mean(clusters[0]))
    minor = complex(np.mean(clusters[1]))
    ratio_matrix = minor / major
    ratio_closed = amplitudes.transmission_eigenvalue_ratio(data, lam_hat)
    return ratio_matrix, ratio_closed, abs(ratio_matrix - ratio_closed)
