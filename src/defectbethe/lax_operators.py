"""R-matrices, defect Lax matrices, and the algebra residuals behind them.

Convention used throughout: Kronecker products put the 2-dimensional
auxiliary space FIRST, so a Lax matrix is a 2x2 array of blocks acting on
the quantum space.  Dense multi-space embeddings go through
two_site_operator; the chain layer applies local factors in the same leg
order without embedding them.
"""

from __future__ import annotations

import numpy as np

from .spin_algebra import SpinRepresentation, build_rep


def two_site_operator(mat, dims, i, j):
    """Embed mat, acting on spaces (i, j) of a tensor product, as a full matrix.

    dims is the list of factor dimensions; mat has shape (d_i*d_j, d_i*d_j)
    with the i-space as its first Kronecker factor.  i and j must differ.
    """
    if i == j:
        raise ValueError("two_site_operator needs distinct slots")
    n = len(dims)
    di, dj = dims[i], dims[j]
    m = np.asarray(mat, dtype=complex).reshape(di, dj, di, dj)
    other = [k for k in range(n) if k not in (i, j)]
    other_dims = [dims[k] for k in other]
    eye = np.eye(int(np.prod(other_dims)), dtype=complex)
    # axes: (row i, row j, col i, col j, rows of others, cols of others)
    full = np.multiply.outer(m, eye.reshape(other_dims * 2))
    row_axis = {i: 0, j: 1}
    row_axis.update({k: 4 + t for t, k in enumerate(other)})
    rows = [row_axis[k] for k in range(n)]
    cols = [a + 2 if a < 2 else a + len(other) for a in rows]
    total = int(np.prod(dims))
    return full.transpose(rows + cols).reshape(total, total)


def permutation_matrix():
    """The 4x4 swap operator on two spin-1/2 spaces."""
    p = np.zeros((4, 4), dtype=complex)
    for a in range(2):
        for b in range(2):
            p[2 * a + b, 2 * b + a] = 1.0
    return p


def _lax_blocks(params, rep, lam):
    """The four blocks [[A, B], [C, D]] of the Lax matrix on aux x rep."""
    n = rep.dim
    eye = np.eye(n, dtype=complex)
    if params.is_rational:
        a = lam * eye + 1j * rep.Sz + 0.5j * eye
        d = lam * eye - 1j * rep.Sz + 0.5j * eye
        b = 1j * rep.Sm
        c = 1j * rep.Sp
    else:
        mu = params.anisotropy
        sz_diag = np.real(np.diag(rep.Sz))
        a = np.diag(np.sinh(mu * (lam + 1j * sz_diag + 0.5j))).astype(complex)
        d = np.diag(np.sinh(mu * (lam - 1j * sz_diag + 0.5j))).astype(complex)
        s = np.sinh(1j * mu)
        b = s * rep.Sm
        c = s * rep.Sp
    return a, b, c, d


def defect_lax(params, rep, lam):
    """Lax matrix of a spin-S site on (aux 2) x (rep dim), aux first."""
    a, b, c, d = _lax_blocks(params, rep, lam)
    return np.block([[a, b], [c, d]])


def d_defect_lax(params, rep, lam):
    """Derivative of defect_lax in the spectral parameter."""
    n = rep.dim
    if params.is_rational:
        return np.kron(np.eye(2, dtype=complex), np.eye(n, dtype=complex))
    mu = params.anisotropy
    sz_diag = np.real(np.diag(rep.Sz))
    a = np.diag(mu * np.cosh(mu * (lam + 1j * sz_diag + 0.5j)))
    d = np.diag(mu * np.cosh(mu * (lam - 1j * sz_diag + 0.5j)))
    z = np.zeros((n, n), dtype=complex)
    return np.block([[a.astype(complex), z], [z, d.astype(complex)]])


def r_matrix(params, lam):
    """Bulk 4x4 R-matrix: the spin-1/2 case of the defect Lax matrix."""
    return defect_lax(params, _spin_half(params), lam)


def d_r_matrix(params, lam):
    return d_defect_lax(params, _spin_half(params), lam)


_half_cache = {}


def _spin_half(params):
    key = (params.family, params.mu)
    if key not in _half_cache:
        _half_cache[key] = build_rep(0.5, params)
    return _half_cache[key]


def regularity_scale(params):
    """Scalar s with R(0) = s P: i rationally, sinh(i mu) otherwise."""
    if params.is_rational:
        return 1j
    return complex(np.sinh(1j * params.anisotropy))


def regularity_check(params):
    """Least-squares distance of R(0) from the scalar multiple of the swap."""
    r0 = r_matrix(params, 0.0)
    p = permutation_matrix()
    s = np.vdot(p, r0) / np.vdot(p, p)
    return float(np.max(np.abs(r0 - s * p)))


def ybe_residual(params, lam1, lam2):
    """Yang-Baxter defect-free residual on three spin-1/2 spaces.

    max-norm of R12(l1-l2) R13(l1) R23(l2) - R23(l2) R13(l1) R12(l1-l2).
    """
    dims = [2, 2, 2]
    r12 = two_site_operator(r_matrix(params, lam1 - lam2), dims, 0, 1)
    r13 = two_site_operator(r_matrix(params, lam1), dims, 0, 2)
    r23 = two_site_operator(r_matrix(params, lam2), dims, 1, 2)
    lhs = r12 @ r13 @ r23
    rhs = r23 @ r13 @ r12
    return float(np.max(np.abs(lhs - rhs)))


def rll_residual(params, rep, lam1, lam2, perturb=None):
    """Quadratic-algebra residual of the defect Lax matrix.

    max-norm of R12(l1-l2) L1(l1) L2(l2) - L2(l2) L1(l1) R12(l1-l2) on
    aux1 x aux2 x rep.  perturb, if given, is (row, col, amount) added to
    the Lax matrix entry; used to confirm the residual actually reacts.
    """
    dims = [2, 2, rep.dim]
    lmat = defect_lax(params, rep, lam1)
    if perturb is not None:
        lmat = lmat.copy()
        lmat[perturb[0], perturb[1]] += perturb[2]
    l1 = two_site_operator(lmat, dims, 0, 2)
    l2 = two_site_operator(defect_lax(params, rep, lam2), dims, 1, 2)
    r12 = two_site_operator(r_matrix(params, lam1 - lam2), dims, 0, 1)
    lhs = r12 @ l1 @ l2
    rhs = l2 @ l1 @ r12
    return float(np.max(np.abs(lhs - rhs)))
