"""Cross-cutting consistency checks.

Everything here re-derives a quantity along two independent routes and
reports the gap: closed-form defect spectra against direct
diagonalization, unitarity and crossing of the transmission matrix,
Casimir scalars behind those identities, and the quadratic exchange
relation tying transmission to the bulk two-body matrix.

The transmission checks take one defect's DefectRegimeData alone.
"""

import cmath
import math

import numpy as np

from . import amplitudes
from .errors import DegenerateSpectrum, DomainError
from .lax_operators import defect_lax, exchange_sides
from .spin_algebra import REPULSIVE, casimir


def closed_form_defect_eigenvalues(rep, lam):
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
    if rep.params.is_rational:
        up = lam + 0.5j * n
        dn = lam - 0.5j * n
        return [up] * (n + 1) + [dn] * (n - 1)
    mu = rep.params.anisotropy
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
    # imported here so that only verify defect-spectrum pays for scipy.optimize
    from scipy.optimize import linear_sum_assignment

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


def defect_spectrum_report(rep, lam, tol=None):
    """(residual, tol, details) of the closed-form-vs-diagonalization test.

    The residual is the max distance under an optimal multiset pairing of
    the closed form with numpy's spectrum of the same matrix, and
    diagonalization is authoritative.  tol=None takes the built-in bar:
    the isotropic closed form is exact arithmetic, so 1e-12; the
    anisotropic closed form is held to 1e-8.  A failure beyond tol is
    documented with both multisets rather than hidden.
    """
    if tol is None:
        tol = 1e-12 if rep.params.is_rational else 1e-8
    closed = closed_form_defect_eigenvalues(rep, lam)
    _check_generic(closed)
    diag = np.linalg.eigvals(defect_lax(rep, complex(lam)))
    residual = _multiset_match_residual(closed, diag)
    details = {"family": rep.params.family, "spin": rep.spin,
               "lambda": [complex(lam).real, complex(lam).imag]}
    for name, vals in (("closed_form", closed), ("diagonalized", diag)):
        details[name] = [[complex(z).real, complex(z).imag] for z in sorted(
            vals, key=lambda z: (round(z.real, 9), round(z.imag, 9)))]
    if residual > tol:
        details["discrepancy"] = (
            "closed form and diagonalization disagree beyond tolerance; "
            "treat the diagonalized multiset as ground truth")
    return residual, tol, details


def _product_residual(left, right, scalar=1.0):
    """max|left @ right - scalar * I|: how far a product of two square
    matrices is from a multiple of the identity."""
    eye = np.eye(left.shape[0])
    return float(np.max(np.abs(left @ right - scalar * eye)))


def matrix_unitarity_residual(T_fn, lam):
    """Max-norm deviation of T(lam) T(-lam) from the identity."""
    lam = complex(lam)
    return _product_residual(np.asarray(T_fn(lam)), np.asarray(T_fn(-lam)))


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
    return _product_residual(
        _aux_partial_transpose(np.asarray(T_fn(-lam + 1j))),
        _aux_partial_transpose(np.asarray(T_fn(lam + 1j))))


def scalar_unitarity_residual(data, lam):
    """|T(lam) T(-lam) - 1| for the scalar transmission eigenvalue."""
    lam = complex(lam)
    left = amplitudes.transmission_amplitude(data, lam).value
    right = amplitudes.transmission_amplitude(data, -lam).value
    return abs(left * right - 1.0)


def _crossing_ratio(data, lam):
    st = data.shifted_spin
    if data.regime == "rational":
        num = (1j * lam + st + 0.5) * (-1j * lam + st + 0.5)
        den = (1j * lam + st - 0.5) * (-1j * lam + st - 0.5)
    elif data.regime == REPULSIVE:
        mu = math.pi * data.params.gamma
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


def scalar_crossing_residual(data, lam):
    """Residual of T(lam+i) T(-lam+i) * (Casimir ratio) = 1."""
    lam = complex(lam)
    left = amplitudes.transmission_amplitude(data, lam + 1j).value
    right = amplitudes.transmission_amplitude(data, -lam + 1j).value
    return abs(left * right * _crossing_ratio(data, lam) - 1.0)


def rtt_residual(data, lam1, lam2):
    """Residual of S12(l1-l2) T1(l1) T2(l2) = T2(l2) T1(l1) S12(l1-l2).

    Only regimes with a finite shifted-spin representation can realize
    the matrices; amplitudes.transmission_matrix raises NotRealizable for
    the others, the attractive regime among them.
    """
    lhs, rhs = exchange_sides(
        amplitudes.s_matrix(data.params, lam1 - lam2),
        amplitudes.transmission_matrix(data, lam1),
        amplitudes.transmission_matrix(data, lam2))
    scale = max(np.max(np.abs(lhs)), 1e-30)
    return float(np.max(np.abs(lhs - rhs)) / scale)


def m_matrix_casimir_identity(rep, lam):
    """Scalar collapse of the block defect matrix times its reflection.

    The block matrix M is amplitudes.transmission_blocks on rep.

    Verifies M(lam) M(-lam) = scalar * I and the partially transposed
    companion M^{t1}(lam+i) M^{t1}(-lam+i) = scalar * I, with
    scalar = (i lam + S + 1/2)(-i lam + S + 1/2) in the isotropic case
    and sin(mu(i lam + S + 1/2)) sin(mu(-i lam + S + 1/2)) in the
    deformed one, mu = rep.params.mu.  The third residual compares it
    with lam^2 + C, or cos(2 i mu lam)/2 - C_q/4, with C read off rep's
    Casimir matrix.  Returns the worst residual.
    """
    lam = complex(lam)
    s = rep.spin
    _, cas = casimir(rep)
    mu = rep.params.mu
    if rep.params.is_rational:
        scalar = (1j * lam + s + 0.5) * (-1j * lam + s + 0.5)
        via_casimir = lam * lam + cas
    else:
        scalar = (cmath.sin(mu * (1j * lam + s + 0.5))
                  * cmath.sin(mu * (-1j * lam + s + 0.5)))
        via_casimir = 0.5 * cmath.cos(2j * mu * lam) - 0.25 * cas
    blocks = amplitudes.transmission_blocks
    r1 = _product_residual(blocks(rep, lam), blocks(rep, -lam), scalar)
    r2 = _product_residual(_aux_partial_transpose(blocks(rep, lam + 1j)),
                           _aux_partial_transpose(blocks(rep, -lam + 1j)),
                           scalar)
    r3 = abs(scalar - via_casimir)
    return max(r1, r2, r3)


def transmission_eigenvalue_check(data, lam_hat):
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
    tmat = amplitudes.transmission_matrix(data, lam_hat)
    dim = tmat.shape[0] // 2  # 2S~+1
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
    if (n_major, n_minor) != (dim + 1, dim - 1):
        raise DegenerateSpectrum(
            f"cluster sizes {(n_major, n_minor)} do not match the "
            f"expected split {(dim + 1, dim - 1)}")
    major = complex(np.mean(clusters[0]))
    minor = complex(np.mean(clusters[1]))
    ratio_matrix = minor / major
    ratio_closed = amplitudes.transmission_eigenvalue_ratio(data, lam_hat)
    return ratio_matrix, ratio_closed, abs(ratio_matrix - ratio_closed)
