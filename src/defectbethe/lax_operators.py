"""R-matrices, defect Lax matrices, and the algebra residuals behind them.

Convention used throughout: Kronecker products put the 2-dimensional
auxiliary space FIRST, so a Lax matrix is a 2x2 array of blocks acting on
the quantum space.  apply_local is the one placement routine: it
applies a local factor to a block of vectors in that leg order, and
two_site_operator is apply_local acting on the identity.
"""

from __future__ import annotations

import numpy as np

from .spin_algebra import build_rep


def apply_local(mat, dims, slots, x):
    """Apply mat, acting on the factors `slots` of dims, to the rows of x.

    mat's Kronecker factors follow the order of slots; x has prod(dims)
    rows and is never embedded as a full operator.
    """
    k = len(slots)
    local = [dims[s] for s in slots]
    t = x.reshape(*dims, -1)
    out = np.tensordot(mat.reshape(local * 2), t,
                       axes=(list(range(k, 2 * k)), list(slots)))
    return np.moveaxis(out, list(range(k)), list(slots)).reshape(x.shape)


def two_site_operator(mat, dims, i, j):
    """Embed mat, acting on spaces (i, j) of a tensor product, as a full matrix.

    dims is the list of factor dimensions; mat has shape (d_i*d_j, d_i*d_j)
    with the i-space as its first Kronecker factor.  i and j must differ.
    """
    if i == j:
        raise ValueError("two_site_operator needs distinct slots")
    total = int(np.prod(dims))
    return apply_local(np.asarray(mat, dtype=complex), dims, (i, j),
                       np.eye(total, dtype=complex))


def permutation_matrix():
    """The 4x4 swap operator on two spin-1/2 spaces."""
    p = np.zeros((4, 4), dtype=complex)
    for a in range(2):
        for b in range(2):
            p[2 * a + b, 2 * b + a] = 1.0
    return p


def defect_lax(rep, lam):
    """Lax matrix of a spin-S site on (aux 2) x (rep dim), aux first; the
    rep's model picks the sl2 or the U_q(sl2) form."""
    n = rep.dim
    eye = np.eye(n, dtype=complex)
    if rep.params.is_rational:
        a = lam * eye + 1j * rep.Sz + 0.5j * eye
        d = lam * eye - 1j * rep.Sz + 0.5j * eye
        b = 1j * rep.Sm
        c = 1j * rep.Sp
    else:
        mu = rep.params.anisotropy
        sz_diag = np.real(np.diag(rep.Sz))
        a = np.diag(np.sinh(mu * (lam + 1j * sz_diag + 0.5j))).astype(complex)
        d = np.diag(np.sinh(mu * (lam - 1j * sz_diag + 0.5j))).astype(complex)
        s = np.sinh(1j * mu)
        b = s * rep.Sm
        c = s * rep.Sp
    return np.block([[a, b], [c, d]])


def d_defect_lax(rep, lam):
    """Derivative of defect_lax in the spectral parameter."""
    n = rep.dim
    if rep.params.is_rational:
        return np.kron(np.eye(2, dtype=complex), np.eye(n, dtype=complex))
    mu = rep.params.anisotropy
    sz_diag = np.real(np.diag(rep.Sz))
    a = np.diag(mu * np.cosh(mu * (lam + 1j * sz_diag + 0.5j)))
    d = np.diag(mu * np.cosh(mu * (lam - 1j * sz_diag + 0.5j)))
    z = np.zeros((n, n), dtype=complex)
    return np.block([[a.astype(complex), z], [z, d.astype(complex)]])


def r_matrix(params, lam):
    """Bulk 4x4 R-matrix: the spin-1/2 case of the defect Lax matrix."""
    return defect_lax(build_rep(0.5, params), lam)


def d_r_matrix(params, lam):
    return d_defect_lax(build_rep(0.5, params), lam)


def regularity_scale(params):
    """Scalar s with R(0) = s P: i rationally, sinh(i mu) otherwise."""
    if params.is_rational:
        return 1j
    return complex(np.sinh(1j * params.anisotropy))


def exchange_sides(r12, l1, l2):
    """Both sides (R12 L1 L2, L2 L1 R12) of a quadratic exchange relation.

    r12 acts on aux1 x aux2; l1 and l2 act on (aux 2) x (quantum d), aux
    first, and are placed on (aux1, quantum) and (aux2, quantum).
    """
    dims = [2, 2, l1.shape[0] // 2]
    r = two_site_operator(r12, dims, 0, 1)
    a = two_site_operator(l1, dims, 0, 2)
    b = two_site_operator(l2, dims, 1, 2)
    return r @ a @ b, b @ a @ r


def rll_residual(rep, lam1, lam2):
    """Quadratic-algebra residual of the defect Lax matrix.

    max-norm of R12(l1-l2) L1(l1) L2(l2) - L2(l2) L1(l1) R12(l1-l2) on
    aux1 x aux2 x rep, with R of rep's model.
    """
    lhs, rhs = exchange_sides(r_matrix(rep.params, lam1 - lam2),
                              defect_lax(rep, lam1), defect_lax(rep, lam2))
    return float(np.max(np.abs(lhs - rhs)))


def ybe_residual(params, lam1, lam2):
    """Yang-Baxter residual on three spin-1/2 spaces: max-norm of
    R12(l1-l2) R13(l1) R23(l2) - R23(l2) R13(l1) R12(l1-l2).

    The spin-1/2 Lax matrix is the R-matrix, so this is rll_residual at
    spin 1/2.
    """
    return rll_residual(build_rep(0.5, params), lam1, lam2)
