"""Defect spin chains: monodromy/transfer matrices, Hamiltonians, Bethe roots.

A chain has N bulk spin-1/2 sites plus one spin-S defect site carrying its
own rapidity, N+1 sites in total.  Site 1 is the first quantum Kronecker
factor; the 2-dimensional auxiliary space used by the monodromy goes in
front of everything (slot 0).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (DimensionCapExceeded, DomainError, NonConvergence,
                     PoleError, SectorLeakage, SingularJacobian)
from .lax_operators import (d_defect_lax, d_r_matrix, defect_lax,
                            permutation_matrix, r_matrix, regularity_scale,
                            two_site_operator)
from .spin_algebra import build_rep

_DEFAULT_MAX_DIM = 2 ** 14


def dimension_cap():
    """Hilbert-space size limit; override with env var DEFECTBETHE_MAX_DIM."""
    raw = os.environ.get("DEFECTBETHE_MAX_DIM")
    if raw is None:
        return _DEFAULT_MAX_DIM
    cap = int(raw)
    if cap < 2:
        raise ValueError("DEFECTBETHE_MAX_DIM must be >= 2")
    return cap


@dataclass(frozen=True)
class ChainSpec:
    """Geometry and couplings of one defect chain.

    N            -- number of bulk spin-1/2 sites
    defect_site  -- position n of the defect within 1..N+1
    defect_spin  -- S of the defect site
    theta        -- defect rapidity
    params       -- ModelParameters (family, anisotropy)
    """

    N: int
    defect_spin: float
    params: object
    theta: float = 0.0
    defect_site: int | None = None

    def __post_init__(self):
        if self.N < 0:
            raise ValueError("N must be >= 0")
        n = self.defect_site if self.defect_site is not None else self.N + 1
        if not (1 <= n <= self.N + 1):
            raise ValueError("defect_site must lie in 1..N+1")
        object.__setattr__(self, "defect_site", n)

    @property
    def site_dims(self):
        d = int(round(2 * self.defect_spin + 1))
        return [d if k == self.defect_site else 2
                for k in range(1, self.N + 2)]

    @property
    def hilbert_dim(self):
        return int(np.prod(self.site_dims))

    def check_cap(self, dim=None):
        """Raise unless dim (default: the Hilbert dimension) fits the cap."""
        dim = self.hilbert_dim if dim is None else dim
        cap = dimension_cap()
        if dim > cap:
            raise DimensionCapExceeded(
                f"dimension {dim} (Hilbert dimension {self.hilbert_dim}) "
                f"exceeds cap {cap}")

    def defect_rep(self):
        return build_rep(self.defect_spin, self.params)


@dataclass(frozen=True)
class BetheState:
    """Root content of one Bethe state.

    roots   -- magnon rapidities
    holes   -- real hole rapidities (thermodynamic bookkeeping)
    strings -- (length, parity, center) templates the roots came from
    """

    M: int
    roots: tuple = ()
    holes: tuple = ()
    strings: tuple = ()

    def __post_init__(self):
        if len(self.roots) != self.M:
            raise ValueError("M must equal the number of roots")
        object.__setattr__(self, "roots", tuple(complex(r) for r in self.roots))

    def conjugation_defect(self):
        """Distance of the root multiset from its complex conjugate.

        Physical states are self-conjugate; a large value flags an
        unphysical or drifted configuration.
        """
        if not self.roots:
            return 0.0
        rem = list(self.roots)
        worst = 0.0
        for r in self.roots:
            best = min(rem, key=lambda x: abs(x - np.conj(r)))
            worst = max(worst, abs(best - np.conj(r)))
            rem.remove(best)
        return float(worst)


def string_seed(center, length, params=None, negative_parity=False):
    """String-template seed: center + (i/2)(length+1-2j), j = 1..length."""
    seed = [center + 0.5j * (length + 1 - 2 * j) for j in range(1, length + 1)]
    if negative_parity:
        if params is None or params.is_rational:
            raise DomainError("negative-parity strings need a trig model")
        seed = [s + 1j * math.pi / (2 * params.anisotropy) for s in seed]
    return seed


# ---------------------------------------------------------------------------
# transfer matrix machinery
# ---------------------------------------------------------------------------


def _apply_local(mat, dims, slots, x):
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


def monodromy(chain, lam):
    """Ordered product of site Lax matrices on aux x (site 1 .. site N+1).

    Site N+1 acts leftmost; the defect factor is evaluated at lam - theta.
    Each factor is contracted into the (2D) x (2D) accumulator on its two
    slots, so the cap is checked against 2D.
    """
    dims = [2] + chain.site_dims
    total = 2 * chain.hilbert_dim
    chain.check_cap(total)
    rep = chain.defect_rep()
    out = np.eye(total, dtype=complex)
    for k in range(1, chain.N + 2):
        if k == chain.defect_site:
            site = defect_lax(chain.params, rep, lam - chain.theta)
        else:
            site = r_matrix(chain.params, lam)
        out = _apply_local(site, dims, (0, k), out)
    return out


def transfer(chain, lam):
    """Trace of the monodromy over the auxiliary slot."""
    t_full = monodromy(chain, lam)
    d = chain.hilbert_dim
    m = t_full.reshape(2, d, 2, d)
    return m[0, :, 0, :] + m[1, :, 1, :]


def pseudovacuum(chain):
    """All spins up, defect on its highest-weight state."""
    v = np.zeros(chain.hilbert_dim, dtype=complex)
    v[0] = 1.0
    return v


def _local_terms(chain):
    """Minus the Hamiltonian as a list of (slots, matrix) local terms.

    Built from the transfer matrix's logarithmic derivative at the regular
    point: the two bonds touching the defect are replaced by a term in the
    derivative of the defect Lax matrix, on (next, n), and a conjugated
    bond that couples the defect's neighbours directly, on (next, n, prev).
    Needs N >= 2 so those neighbours are distinct sites.
    """
    if chain.N < 2:
        raise DomainError("hamiltonian needs N >= 2 bulk sites")
    params = chain.params
    n_sites = chain.N + 1
    n = chain.defect_site
    rep = chain.defect_rep()

    rdot = permutation_matrix() @ d_r_matrix(params, 0.0)  # braided R' at 0

    def idx(site):
        # periodic 1..N+1 labels to 0-based tensor slots
        return (site - 1) % n_sites

    prev_site = n - 1 if n > 1 else n_sites
    next_site = n + 1 if n < n_sites else 1

    # bonds (n-1, n) and (n, n+1) are replaced by the two defect terms
    terms = [((idx(j), idx(j + 1)), rdot) for j in range(1, n_sites + 1)
             if j not in (prev_site, n)]

    m_loc = defect_lax(params, rep, -chain.theta)
    m_inv = np.linalg.inv(m_loc)
    mdot = d_defect_lax(params, rep, -chain.theta)
    terms.append(((idx(next_site), idx(n)),
                  regularity_scale(params) * (mdot @ m_inv)))

    dims3 = [2, rep.dim, 2]  # (next, n, prev)
    bridged = (two_site_operator(m_loc, dims3, 0, 1)
               @ two_site_operator(rdot, dims3, 2, 0)
               @ two_site_operator(m_inv, dims3, 0, 1))
    terms.append(((idx(next_site), idx(n), idx(prev_site)), bridged))
    return terms


def _basis_offsets(dims, slots):
    """Flat-index offsets of every basis state of the factors `slots`,
    first slot most significant."""
    strides = [int(np.prod(dims[k + 1:])) for k in range(len(dims))]
    out = np.zeros(1, dtype=np.int64)
    for k in slots:
        out = np.add.outer(out, strides[k] * np.arange(dims[k])).ravel()
    return out


def _hamiltonian_coo(chain):
    """H as COO arrays (rows, cols, vals) over the product basis.

    Each local term is scattered with the identity on the other sites;
    exact zeros are dropped, duplicates are left for the caller to sum.
    The cap is checked against D.
    """
    terms = _local_terms(chain)
    chain.check_cap()
    dims = chain.site_dims
    rows, cols, vals = [], [], []
    for slots, mat in terms:
        others = _basis_offsets(
            dims, [k for k in range(len(dims)) if k not in slots])
        local = _basis_offsets(dims, slots)
        r, c = np.nonzero(mat)
        rows.append((others[:, None] + local[r]).ravel())
        cols.append((others[:, None] + local[c]).ravel())
        vals.append(np.tile(-mat[r, c], others.size))
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def hamiltonian(chain):
    """Nearest-neighbour Hamiltonian with the defect spliced in, dense D x D.

    The sum of the local terms of _local_terms, with a minus sign.
    """
    rows, cols, vals = _hamiltonian_coo(chain)
    d = chain.hilbert_dim
    h = np.zeros(d * d, dtype=complex)
    np.add.at(h, rows * d + cols, vals)
    return h.reshape(d, d)


def total_sz(chain):
    """Diagonal of total S^z on the product basis, as a length-D vector."""
    out = np.zeros(1)
    for d in chain.site_dims:
        out = np.add.outer(out, (d - 1) / 2.0 - np.arange(d)).ravel()
    return out


def sector_blocks(chain):
    """The Hamiltonian split by total S^z: an iterator of (sz, block).

    Sectors come highest S^z first; a block's rows and columns are the
    sector's basis states in product-basis order.  The local terms are
    scattered and checked here; each dense block is only built when the
    iterator reaches it, so one block is held at a time.  Raises
    SectorLeakage if any term entry couples two different sectors.
    """
    rows, cols, vals = _hamiltonian_coo(chain)
    key = np.rint(2.0 * total_sz(chain)).astype(np.int64)
    row_key = key[rows]
    leak = np.flatnonzero(row_key != key[cols])
    if leak.size:
        e = leak[0]
        raise SectorLeakage(
            f"{leak.size} Hamiltonian entries couple different S^z "
            f"sectors, first ({rows[e]}, {cols[e]}) from "
            f"{key[cols[e]] / 2} to {row_key[e] / 2}")
    sectors, sizes = np.unique(key, return_counts=True)
    # each basis state's position inside its own sector
    pos = np.empty(key.size, dtype=np.int64)
    for k, size in zip(sectors, sizes):
        pos[key == k] = np.arange(size)

    def block(k, size):
        mask = row_key == k
        out = np.zeros((size, size), dtype=complex)
        np.add.at(out, (pos[rows[mask]], pos[cols[mask]]), vals[mask])
        return k / 2.0, out

    return map(block, sectors[::-1], sizes[::-1])


def hermiticity_residual(mat):
    return float(np.max(np.abs(mat - mat.conj().T)))


# ---------------------------------------------------------------------------
# Bethe equations
# ---------------------------------------------------------------------------


def elementary_ratio(kind, params, order, lam):
    """Ratio functions e_n (sinh/linear) and g_n (cosh, trig only)."""
    lam = complex(lam)
    if kind == "e":
        if params.is_rational:
            num, den = lam + 0.5j * order, lam - 0.5j * order
        else:
            mu = params.anisotropy
            num = np.sinh(mu * (lam + 0.5j * order))
            den = np.sinh(mu * (lam - 0.5j * order))
    elif kind == "g":
        if params.is_rational:
            raise DomainError("g-type ratios exist only for the trig model")
        mu = params.anisotropy
        num = np.cosh(mu * (lam + 0.5j * order))
        den = np.cosh(mu * (lam - 0.5j * order))
    else:
        raise DomainError(f"unknown ratio kind {kind!r}")
    if abs(den) < 1e-13 * (1.0 + abs(num)):
        raise PoleError(f"{kind}_{order} pole at lam={lam}")
    return complex(num / den)


def _ratio_logderiv(params, order, lam):
    """d/dlam log e_n(lam), e_n = elementary_ratio("e", ...)."""
    if params.is_rational:
        return 1.0 / (lam + 0.5j * order) - 1.0 / (lam - 0.5j * order)
    mu = params.anisotropy
    return mu * (1.0 / np.tanh(mu * (lam + 0.5j * order))
                 - 1.0 / np.tanh(mu * (lam - 0.5j * order)))


def _bae_terms(chain, roots):
    """Per-root product P_i = defect * bulk^N / pair products; F_i = P_i - 1.

    The pair product runs over j != i only: the diagonal factor is the
    constant -1 and cancels against the conventional sign in front of the
    right-hand side, leaving P_i = 1 as the root condition.
    """
    params = chain.params
    y = 2.0 * chain.defect_spin
    m = len(roots)
    p = np.zeros(m, dtype=complex)
    for i, lam in enumerate(roots):
        val = elementary_ratio("e", params, y, lam - chain.theta) \
            * elementary_ratio("e", params, 1.0, lam) ** chain.N
        for j in range(m):
            if j == i:
                continue
            val = val / elementary_ratio("e", params, 2.0, lam - roots[j])
        p[i] = val
    return p


def bae_residual(chain, state):
    """Worst relative violation |LHS/RHS - 1| over the state's roots."""
    if state.M == 0:
        return 0.0
    p = _bae_terms(chain, list(state.roots))
    return float(np.max(np.abs(p - 1.0)))


def solve_bae(chain, M, seeds=None, tol=1e-12, max_iter=100,
              allow_coincident=False):
    """Newton iteration on the product form of the Bethe equations.

    Works directly with F_i = P_i - 1 = 0 where P_i is the full phase
    product, so no logarithm branch bookkeeping is needed; the Jacobian
    uses the analytic logarithmic derivatives of the ratio functions.
    Raises NonConvergence (carrying the best residual seen) when the
    iteration stalls.  Coincident roots solve the product form exactly
    but make the Bethe vector vanish, so they are rejected as
    SingularJacobian unless allow_coincident is set.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    params = chain.params
    y = 2.0 * chain.defect_spin
    if seeds is None:
        seeds = string_seed(0.2, M)
    roots = np.array(seeds, dtype=complex)
    if len(roots) != M:
        raise ValueError("need exactly M seeds")

    best = math.inf
    best_roots = roots.copy()
    for _ in range(max_iter):
        p = _bae_terms(chain, roots)
        f = p - 1.0
        res = float(np.max(np.abs(f)))
        if res < best:
            best, best_roots = res, roots.copy()
        if res <= tol:
            if M > 1 and not allow_coincident:
                sep = min(abs(roots[i] - roots[j])
                          for i in range(M) for j in range(i + 1, M))
                if sep < 1e-8:
                    raise SingularJacobian(
                        "roots coalesced; the configuration solves the "
                        "product form but the Bethe vector vanishes")
            return BetheState(M=M, roots=tuple(np.sort_complex(roots)))
        jac = np.zeros((M, M), dtype=complex)
        for i in range(M):
            diag = _ratio_logderiv(params, y, roots[i] - chain.theta) \
                + chain.N * _ratio_logderiv(params, 1.0, roots[i])
            for j in range(M):
                if j == i:
                    continue
                ld = _ratio_logderiv(params, 2.0, roots[i] - roots[j])
                diag -= ld
                jac[i, j] = p[i] * ld
            jac[i, i] = p[i] * diag
        try:
            cond_check = np.linalg.svd(jac, compute_uv=False)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(str(exc)) from exc
        if cond_check[-1] < 1e-14 * max(1.0, cond_check[0]):
            raise SingularJacobian(
                f"Jacobian near-singular at roots {roots.tolist()}")
        step = np.linalg.solve(jac, -f)
        # cap the step to keep Newton from vaulting over a pole
        biggest = float(np.max(np.abs(step)))
        if biggest > 0.5:
            step = step * (0.5 / biggest)
        roots = roots + step

    raise NonConvergence(
        f"Bethe solver stalled at residual {best:.3e} after {max_iter} steps",
        best_residual=best, last_iterate=best_roots.tolist())


def magnon_sector_sz(chain, M):
    """Total z-spin of an M-magnon state: N/2 + S - M."""
    return chain.N / 2.0 + chain.defect_spin - M
