"""Chain-level machinery: transfer commutativity, Hamiltonians, Bethe roots.

The frozen root values below were derived from phase-counting oracles that
are rebuilt inside the tests (arctangent phase balance, brentq), so solver
and oracle share no code.
"""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq, linear_sum_assignment

from defectbethe import spin_chain
from defectbethe.errors import (
    DimensionCapExceeded,
    DomainError,
    NonConvergence,
    PoleError,
    SectorLeakage,
    SingularJacobian,
)
from defectbethe.lax_operators import (
    d_defect_lax,
    d_r_matrix,
    defect_lax,
    permutation_matrix,
    regularity_scale,
)
from defectbethe.spin_algebra import build_rep
from defectbethe.spin_chain import (
    BetheState,
    ChainSpec,
    bae_residual,
    bethe_number_seeds,
    elementary_ratio,
    hamiltonian,
    hermiticity_residual,
    solve_bae,
    sector_blocks,
    string_seed,
    total_sz,
    transfer,
)

ROOT_3SITE = 1.0 / (2.0 * math.sqrt(3.0))  # = 0.28867513459481287


def comm_norm(a, b):
    return float(np.max(np.abs(a @ b - b @ a)))


def conjugation_defect(state):
    """Distance of the root multiset from its complex conjugate.

    Physical states are self-conjugate; a large value flags an
    unphysical or drifted configuration.
    """
    if not state.roots:
        return 0.0
    rem = list(state.roots)
    worst = 0.0
    for r in state.roots:
        best = min(rem, key=lambda x: abs(x - np.conj(r)))
        worst = max(worst, abs(best - np.conj(r)))
        rem.remove(best)
    return float(worst)


# ---------------------------------------------------------------------------
# specs and states
# ---------------------------------------------------------------------------


def test_chain_spec_validation(xxx):
    with pytest.raises(ValueError):
        ChainSpec(N=-1, defect_spin=0.5, params=xxx)
    with pytest.raises(ValueError):
        ChainSpec(N=2, defect_spin=0.5, params=xxx, defect_site=4)
    with pytest.raises(ValueError):
        ChainSpec(N=2, defect_spin=0.5, params=xxx, defect_site=0)
    for spin in (0.7, -0.5, 1e308, math.nan):
        with pytest.raises(ValueError, match="half-integer"):
            ChainSpec(N=2, defect_spin=spin, params=xxx)


def test_chain_spec_defaults(xxx):
    chain = ChainSpec(N=2, defect_spin=1.0, params=xxx)
    assert chain.defect_site == 3
    assert chain.site_dims == [2, 2, 3]
    assert chain.hilbert_dim == 12


def test_dimension_cap(monkeypatch, xxx):
    monkeypatch.setenv("DEFECTBETHE_MAX_DIM", "8")
    chain = ChainSpec(N=2, defect_spin=1.0, params=xxx)
    with pytest.raises(DimensionCapExceeded):
        chain.check_cap()
    with pytest.raises(DimensionCapExceeded):
        transfer(chain, 0.3)
    monkeypatch.setenv("DEFECTBETHE_MAX_DIM", "1")
    with pytest.raises(ValueError):
        chain.check_cap()


def test_dimension_cap_holds_beyond_int64(xxx):
    # 2^64 wraps to 0 in int64; the cap must still see the true dimension
    chain = ChainSpec(N=63, defect_spin=0.5, params=xxx)
    assert chain.hilbert_dim == 2 ** 64
    with pytest.raises(DimensionCapExceeded):
        chain.check_cap()


@pytest.mark.parametrize("build", ["hamiltonian", "sector_blocks",
                                   "transfer"])
def test_dimension_cap_checked_before_defect_rep(monkeypatch, xxx, build):
    # spin 40 is an 81-dimensional representation; the cap must refuse
    # the chain before any of it is built
    calls = []
    monkeypatch.setattr(spin_chain, "build_rep",
                        lambda *args: calls.append(args) or build_rep(*args))
    monkeypatch.setenv("DEFECTBETHE_MAX_DIM", "8")
    chain = ChainSpec(N=2, defect_spin=40.0, params=xxx)
    args = (0.3,) if build == "transfer" else ()
    with pytest.raises(DimensionCapExceeded):
        getattr(spin_chain, build)(chain, *args)
    assert calls == []


def test_dimension_cap_counts_transfer_auxiliary_space(monkeypatch, xxx):
    # H is D x D; transfer carries the auxiliary space, in 2D x D blocks
    chain = ChainSpec(N=2, defect_spin=1.0, params=xxx, theta=0.3)
    monkeypatch.setenv("DEFECTBETHE_MAX_DIM", str(chain.hilbert_dim))
    assert hamiltonian(chain).shape == (12, 12)
    with pytest.raises(DimensionCapExceeded):
        transfer(chain, 0.3)
    monkeypatch.setenv("DEFECTBETHE_MAX_DIM", str(2 * chain.hilbert_dim))
    assert transfer(chain, 0.3).shape == (12, 12)


def test_bethe_state_validation():
    # M is the number of roots, so it cannot disagree with them
    with pytest.raises(TypeError):
        BetheState(M=2, roots=(0.1,))
    st = BetheState(roots=(0.3 + 0.5j, 0.3 - 0.5j))
    assert st.M == 2
    assert conjugation_defect(st) < 1e-15
    st = BetheState(roots=[0.3 + 0.5j])
    assert (st.M, st.roots) == (1, (0.3 + 0.5j,))
    assert conjugation_defect(st) > 0.9
    assert BetheState().M == 0


def test_string_seed():
    seed = string_seed(0.4, 3)
    assert np.allclose(seed, [0.4 + 1j, 0.4, 0.4 - 1j])


@pytest.mark.parametrize("spin,theta,trigonometric", [
    (0.5, 0.0, False), (1.0, 0.3, False), (1.5, 0.2, True)])
def test_bethe_number_seeds_solve_one_magnon_phase(xxx, trig, spin, theta,
                                                   trigonometric):
    # one magnon has no magnon-magnon phase, so each seed solves the
    # product form up to a sign: P = 1 for one kind of Bethe number and
    # P = -1 for the other.  The P = 1 seeds are all N finite one-magnon
    # roots: the sector has N+1 states, one of them the vacuum's descendant
    params = trig if trigonometric else xxx
    chain = ChainSpec(N=5, defect_spin=spin, params=params, theta=theta)
    prods = [elementary_ratio(params, 2 * spin, x - theta)
             * elementary_ratio(params, 1.0, x) ** 5
             for (x,) in bethe_number_seeds(chain, 1)]
    plus = sum(abs(p - 1.0) < 1e-12 for p in prods)
    minus = sum(abs(p + 1.0) < 1e-12 for p in prods)
    assert (plus, minus) == (5, len(prods) - 5)


def test_bethe_number_seeds_are_runs_of_one_kind(xxx):
    # each seed is M consecutive roots, ascending, with Bethe numbers of
    # one kind; the two kinds alternate along the real line
    chain = ChainSpec(N=4, defect_spin=0.5, params=xxx)
    ones = sorted(x for (x,) in bethe_number_seeds(chain, 1))
    threes = bethe_number_seeds(chain, 3)
    assert len(threes) == len(ones) - 4
    for seed in threes:
        i = ones.index(seed[0])
        assert seed == ones[i:i + 5:2]


# ---------------------------------------------------------------------------
# transfer
# ---------------------------------------------------------------------------


def test_transfer_bulkless_chain_is_defect_lax_trace(xxx, trig):
    # N = 0: t(lam) = A + D, the aux-diagonal blocks of L(lam - theta)
    for params in (xxx, trig):
        chain = ChainSpec(N=0, defect_spin=1.0, params=params, theta=0.3)
        lax = defect_lax(build_rep(1.0, params), 0.9 - 0.3)
        want = lax[:3, :3] + lax[3:, 3:]
        assert np.max(np.abs(transfer(chain, 0.9) - want)) < 1e-14


def test_transfer_peak_memory_below_two_aux_squares(xxx):
    # one (2D) x (2D) complex array is what the full aux x chain product
    # would take; the column blocks keep the peak below twice that
    chain = ChainSpec(N=6, defect_spin=1.0, params=xxx, theta=0.3)
    d = chain.hilbert_dim
    tracemalloc.start()
    try:
        t = transfer(chain, 0.41)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert t.shape == (d, d)
    assert peak < 2 * (2 * d) ** 2 * 16


@pytest.mark.parametrize("S", [0.5, 1.0])
def test_transfer_matrices_commute(xxx, trig, S):
    for params in (xxx, trig):
        chain = ChainSpec(N=2, defect_spin=S, params=params, theta=0.35)
        t1 = transfer(chain, 0.41)
        t2 = transfer(chain, -0.87 + 0.3j)
        assert comm_norm(t1, t2) < 1e-11


def test_pseudovacuum_is_transfer_eigenvector(xxx, trig):
    for params in (xxx, trig):
        chain = ChainSpec(N=3, defect_spin=1.0, params=params, theta=0.2)
        v = np.eye(chain.hilbert_dim)[0]  # all spins up
        tv = transfer(chain, 0.63) @ v
        lam = np.vdot(v, tv)
        assert np.linalg.norm(tv - lam * v) < 1e-12


# ---------------------------------------------------------------------------
# Hamiltonian
# ---------------------------------------------------------------------------


def test_hamiltonian_needs_bulk(xxx):
    with pytest.raises(DomainError):
        hamiltonian(ChainSpec(N=1, defect_spin=0.5, params=xxx))


def test_hamiltonian_commutes_with_transfer(xxx, trig):
    for params in (xxx, trig):
        for S in (0.5, 1.0):
            chain = ChainSpec(N=2, defect_spin=S, params=params, theta=0.3)
            h = hamiltonian(chain)
            t = transfer(chain, 0.52)
            assert comm_norm(h, t) < 1e-10


def test_hamiltonian_conserves_total_sz(xxx, trig):
    for params in (xxx, trig):
        chain = ChainSpec(N=2, defect_spin=1.0, params=params, theta=0.6)
        h = hamiltonian(chain)
        assert comm_norm(h, np.diag(total_sz(chain))) < 1e-12


def test_hamiltonian_hermitian_at_zero_rapidity(xxx):
    for S in (0.5, 1.0):
        chain = ChainSpec(N=2, defect_spin=S, params=xxx, theta=0.0)
        assert hermiticity_residual(hamiltonian(chain)) < 1e-13


def test_homogeneous_three_site_spectrum(xxx):
    """Spin-1/2 defect at zero rapidity makes a plain periodic 3-site chain.

    In this normalization H = -(P12 + P23 + P31), whose spectrum follows
    from total-spin algebra: -3 on the quadruplet, 0 on the two doublets.
    """
    chain = ChainSpec(N=2, defect_spin=0.5, params=xxx, theta=0.0)
    h = hamiltonian(chain)
    assert hermiticity_residual(h) < 1e-13

    # independent oracle: build -(sum of swaps) from scratch
    def swap(i, j, n=3):
        mat = np.zeros((2 ** n, 2 ** n))
        for idx in range(2 ** n):
            bits = [(idx >> (n - 1 - k)) & 1 for k in range(n)]
            bits[i], bits[j] = bits[j], bits[i]
            out = 0
            for b in bits:
                out = 2 * out + b
            mat[out, idx] = 1.0
        return mat

    oracle = -(swap(0, 1) + swap(1, 2) + swap(2, 0))
    assert np.max(np.abs(h - oracle)) < 1e-12
    vals = np.sort(np.linalg.eigvalsh(h))
    assert np.allclose(vals, [-3.0] * 4 + [0.0] * 4, atol=1e-12)


def test_one_magnon_energy_four_site_chain(xxx):
    """Root lam = 1/2 of the homogeneous 4-site chain carries energy
    E_vac + 1/(lam^2 + 1/4) in the H = -(sum of swaps) normalization."""
    chain = ChainSpec(N=3, defect_spin=0.5, params=xxx, theta=0.0)
    state = solve_bae(chain, 1, seeds=[0.45])
    lam = state.roots[0]
    assert abs(lam - 0.5) < 1e-12

    h = hamiltonian(chain)
    e_vac = float(np.real(h[0, 0]))  # all spins up
    assert abs(e_vac + 4.0) < 1e-12
    target = e_vac + 1.0 / (abs(lam) ** 2 + 0.25)

    vals, vecs = np.linalg.eigh(h)
    sz = np.diag(total_sz(chain))
    sz_exp = np.real(np.einsum("ij,jk,ki->i", vecs.conj().T, sz, vecs))
    sector = vals[np.abs(sz_exp - 1.0) < 1e-8]  # one magnon: Sz = 2 - 1
    assert np.min(np.abs(sector - target)) < 1e-10


# ---------------------------------------------------------------------------
# S^z sectors
# ---------------------------------------------------------------------------


def _sector_spectrum(chain, h):
    """Concatenated sector eigenvalues; each block must be h restricted
    to its sector's states, in product-basis order."""
    sz_diag = total_sz(chain)
    szs, evals = [], []
    for sz, block in sector_blocks(chain):
        states = np.flatnonzero(sz_diag == sz)
        assert np.max(np.abs(block - h[np.ix_(states, states)])) < 1e-14
        szs.append(sz)
        evals.append(np.linalg.eigvals(block))
    assert szs == sorted(set(szs), reverse=True)
    return np.concatenate(evals)


@pytest.mark.parametrize("S", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("theta", [0.0, 0.3])
@pytest.mark.parametrize("interior", [False, True])
def test_sector_spectrum_matches_dense(xxx, trig, S, theta, interior):
    for params in (xxx, trig):
        for N in (3, 4, 5):
            site = 2 if interior else None
            chain = ChainSpec(N=N, defect_spin=S, params=params,
                              theta=theta, defect_site=site)
            h = hamiltonian(chain)
            dense = np.linalg.eigvals(h)
            sectors = _sector_spectrum(chain, h)
            assert sectors.size == dense.size == chain.hilbert_dim
            # multiset match: the pairing with the least total distance
            dist = np.abs(dense[:, None] - sectors[None, :])
            rows, cols = linear_sum_assignment(dist)
            scale = np.max(np.abs(dense))
            assert np.max(dist[rows, cols]) <= 1e-10 * scale


def _kron_embed(mat, dims, i, j):
    """mat on factors (i, j), written out as a sum of Kronecker products."""
    di, dj = dims[i], dims[j]
    m = mat.reshape(di, dj, di, dj)
    out = np.zeros((int(np.prod(dims)),) * 2, dtype=complex)
    for a, b, ap, bp in np.ndindex(di, dj, di, dj):
        if m[a, b, ap, bp] == 0:
            continue
        factors = [np.eye(d) for d in dims]
        factors[i] = np.outer(np.eye(di)[a], np.eye(di)[ap])
        factors[j] = np.outer(np.eye(dj)[b], np.eye(dj)[bp])
        out += m[a, b, ap, bp] * functools.reduce(np.kron, factors)
    return out


def _kron_hamiltonian(chain):
    """The defect Hamiltonian from full-size operators and a full-size
    inverse of the embedded defect Lax matrix."""
    params, dims = chain.params, chain.site_dims
    n_sites, n = chain.N + 1, chain.defect_site
    rep = build_rep(chain.defect_spin, params)
    prev_site = n - 1 if n > 1 else n_sites
    next_site = n + 1 if n < n_sites else 1
    rdot = permutation_matrix() @ d_r_matrix(params, 0.0)
    h = np.zeros((chain.hilbert_dim,) * 2, dtype=complex)
    for j in range(1, n_sites + 1):
        if j not in (prev_site, n):
            h += _kron_embed(rdot, dims, j - 1, j % n_sites)
    m = _kron_embed(defect_lax(rep, -chain.theta), dims,
                    next_site - 1, n - 1)
    mdot = _kron_embed(d_defect_lax(rep, -chain.theta), dims,
                       next_site - 1, n - 1)
    m_inv = np.linalg.inv(m)
    h += regularity_scale(params) * (mdot @ m_inv)
    h += m @ _kron_embed(rdot, dims, prev_site - 1, next_site - 1) @ m_inv
    return -h


@pytest.mark.parametrize("N", [2, 3, 4])
def test_local_term_hamiltonian_matches_kron_build(xxx, trig, N):
    for params in (xxx, trig):
        for S, site in ((0.5, None), (1.0, 1), (1.5, 2)):
            chain = ChainSpec(N=N, defect_spin=S, params=params, theta=0.3,
                              defect_site=site)
            gap = np.max(np.abs(hamiltonian(chain) - _kron_hamiltonian(chain)))
            assert gap < 1e-13


def test_sector_leakage_raises(monkeypatch, trig):
    def leaky(params, lam):
        out = d_r_matrix(params, lam).copy()
        out[0, 1] += 0.1  # spin flip: |up down> -> |up up>
        return out

    chain = ChainSpec(N=3, defect_spin=1.0, params=trig, theta=0.3)
    monkeypatch.setattr(spin_chain, "d_r_matrix", leaky)
    sz = np.diag(total_sz(chain))
    assert comm_norm(hamiltonian(chain), sz) > 0.05  # the patch took effect
    with pytest.raises(SectorLeakage):
        list(sector_blocks(chain))


def test_sector_build_memory(xxx):
    """N=11, S=1: D = 6144, where a dense complex H alone is 604 MB."""
    chain = ChainSpec(N=11, defect_spin=1.0, params=xxx, theta=0.3)
    sizes = []
    tracemalloc.start()
    try:
        for _, block in sector_blocks(chain):
            sizes.append(len(block))
            del block
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(sizes) == chain.hilbert_dim == 6144
    assert peak < 64 * 2 ** 20


# ---------------------------------------------------------------------------
# Bethe roots
# ---------------------------------------------------------------------------


def test_three_site_one_magnon_roots(xxx):
    """Phase balance e_1(lam)^3 = 1 puts the roots at +-1/(2 sqrt 3)."""
    chain = ChainSpec(N=2, defect_spin=0.5, params=xxx, theta=0.0)
    for seed, sign in ((0.3, +1), (-0.3, -1)):
        state = solve_bae(chain, 1, seeds=[seed])
        assert abs(state.roots[0] - sign * ROOT_3SITE) < 1e-12
        assert bae_residual(chain, state) < 1e-12
    # oracle: 2 atan(1/(2 lam)) = 2 pi / 3
    lam_oracle = 0.5 / math.tan(math.pi / 3.0)
    assert abs(lam_oracle - ROOT_3SITE) < 1e-16


def test_three_site_trig_root_closed_form(trig):
    """Deformed analogue: tanh(mu lam) = tan(mu/2) / tan(pi/3)."""
    chain = ChainSpec(N=2, defect_spin=0.5, params=trig, theta=0.0)
    state = solve_bae(chain, 1, seeds=[0.3])
    mu = 0.3
    lam_oracle = math.atanh(math.tan(0.5 * mu) / math.tan(math.pi / 3.0)) / mu
    assert abs(lam_oracle - 0.29160145119484643) < 1e-15
    assert abs(state.roots[0] - lam_oracle) < 1e-12
    assert bae_residual(chain, state) < 1e-12


def test_spin_one_defect_root_vs_phase_oracle(xxx):
    """Defect spin 1 at rapidity 0.6: root from Newton vs scalar brentq.

    Phase balance for one magnon:
        2 atan2(1, lam - theta) + 4 atan2(1/2, lam) = 2 pi.
    """
    theta = 0.6
    chain = ChainSpec(N=2, defect_spin=1.0, params=xxx, theta=theta)
    state = solve_bae(chain, 1, seeds=[0.5])
    lam = state.roots[0]
    assert abs(lam.imag) < 1e-12
    assert abs(lam - 0.5340572873934304) < 1e-12

    def phase(x):
        return (2.0 * math.atan2(1.0, x - theta)
                + 4.0 * math.atan2(0.5, x) - 2.0 * math.pi)

    lam_oracle = brentq(phase, 0.1, 2.0, xtol=1e-14)
    assert abs(lam - lam_oracle) < 1e-11
    assert bae_residual(chain, state) < 1e-12


def test_two_magnon_state_self_conjugate(xxx):
    chain = ChainSpec(N=4, defect_spin=0.5, params=xxx, theta=0.0)
    state = solve_bae(chain, 2, seeds=[0.4, -0.4])
    assert bae_residual(chain, state) < 1e-11
    assert conjugation_defect(state) < 1e-8
    assert np.allclose(sorted(r.real for r in state.roots), [-0.5, 0.5],
                       atol=1e-10)


def test_coincident_roots_rejected(xxx):
    chain = ChainSpec(N=2, defect_spin=0.5, params=xxx, theta=0.0)
    # Newton converges onto the coalesced pair; the solver then refuses it
    with pytest.raises(SingularJacobian, match="roots coalesced"):
        solve_bae(chain, 2, seeds=[0.28, 0.29])


def test_solver_failure_carries_diagnostics(xxx, monkeypatch):
    monkeypatch.setattr(spin_chain, "_MAX_NEWTON", 2)
    chain = ChainSpec(N=2, defect_spin=0.5, params=xxx, theta=0.0)
    with pytest.raises(NonConvergence) as excinfo:
        solve_bae(chain, 1, seeds=[40.0 + 3.0j])
    assert excinfo.value.best_residual is not None
    assert len(excinfo.value.last_iterate) == 1


def test_solver_input_validation(xxx):
    chain = ChainSpec(N=2, defect_spin=0.5, params=xxx)
    with pytest.raises(ValueError):
        solve_bae(chain, 0, seeds=[])
    with pytest.raises(ValueError):
        solve_bae(chain, 2, seeds=[0.1])


def test_bae_residual_empty_state(xxx):
    chain = ChainSpec(N=2, defect_spin=0.5, params=xxx)
    assert bae_residual(chain, BetheState()) == 0.0


def test_bae_pole_guard(xxx):
    chain = ChainSpec(N=2, defect_spin=0.5, params=xxx, theta=0.0)
    state = BetheState(roots=(0.5j,))  # right on the e_1 pole
    with pytest.raises(PoleError):
        bae_residual(chain, state)
