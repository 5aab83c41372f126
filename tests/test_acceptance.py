"""Acceptance gate: ten criteria, one test (one pass/fail line) each.

Every test computes its residuals first, appends a summary line to
acceptance_report.txt, and only then asserts, so the artifact is complete
even when a criterion fails.  Tolerances and case lists are fixed here on
purpose; loosening them is a red flag, not a fix.
"""

import functools
import math
from pathlib import Path

import numpy as np
import pytest

from defectbethe import amplitudes as amp
from defectbethe import physics_checks as pc
from defectbethe.lax_operators import rll_residual, ybe_residual
from defectbethe.spin_algebra import (ATTRACTIVE, REPULSIVE, ModelParameters,
                                      build_rep)
from defectbethe.spin_chain import (ChainSpec, hamiltonian, solve_bae,
                                    transfer)
from defectbethe.special_functions import (identity_use1_residual,
                                           identity_use2_residual)

XXX = ModelParameters.xxx()
TRIG = ModelParameters.xxz(0.3)
REP4 = ModelParameters.xxz(math.pi / 4.0, REPULSIVE)    # nu = 4, gamma = 1/3
ATT4 = ModelParameters.xxz(math.pi / 4.0, ATTRACTIVE)   # nu = 4, gamma = 3
REP16 = ModelParameters.xxz(math.pi / 1.6, REPULSIVE)   # nu = 1.6
ATT16 = ModelParameters.xxz(math.pi / 1.6, ATTRACTIVE)  # nu = 1.6

LAM_GRID_20 = np.linspace(0.1, 2.5, 20)

_REPORT_LINES = []


def note(line):
    _REPORT_LINES.append(line)


@pytest.fixture(scope="module", autouse=True)
def _write_report():
    yield
    path = Path(__file__).resolve().parents[1] / "acceptance_report.txt"
    path.write_text("\n".join(_REPORT_LINES) + "\n", encoding="utf-8")


def comm_norm(a, b):
    return float(np.max(np.abs(a @ b - b @ a)))


def test_criterion_01_exchange_relations():
    """YBE <= 1e-12 over 100 random pairs and RLL <= 1e-12 for
    S in {1/2, 1, 3/2, 2}, both families."""
    rng = np.random.default_rng(11)
    worst_ybe = 0.0
    for params in (XXX, TRIG):
        pairs = rng.uniform(-2.0, 2.0, size=(100, 2))
        worst_ybe = max(worst_ybe,
                        max(ybe_residual(params, l1, l2) for l1, l2 in pairs))
    worst_rll = 0.0
    for params in (XXX, TRIG):
        for S in (0.5, 1.0, 1.5, 2.0):
            rep = build_rep(S, params)
            pairs = rng.uniform(-2.0, 2.0, size=(20, 2))
            worst_rll = max(worst_rll,
                            max(rll_residual(rep, l1, l2)
                                for l1, l2 in pairs))
    note(f"criterion 1: ybe worst {worst_ybe:.3e} (tol 1e-12), "
         f"rll worst {worst_rll:.3e} (tol 1e-12)")
    assert worst_ybe <= 1e-12
    assert worst_rll <= 1e-12


def test_criterion_02_chain_integrability():
    """[t(l1), t(l2)] <= 1e-10 and [H, t(l)] <= 1e-9 at N = 2,
    defect spins {1/2, 1}, both families."""
    worst_tt = worst_ht = 0.0
    for params in (XXX, TRIG):
        for S in (0.5, 1.0):
            for theta in (0.0, 0.3):
                chain = ChainSpec(N=2, defect_spin=S, params=params,
                                  theta=theta)
                t1 = transfer(chain, 0.41)
                t2 = transfer(chain, -0.87 + 0.3j)
                h = hamiltonian(chain)
                worst_tt = max(worst_tt, comm_norm(t1, t2))
                worst_ht = max(worst_ht, comm_norm(h, t1))
    note(f"criterion 2: [t,t] worst {worst_tt:.3e} (tol 1e-10), "
         f"[H,t] worst {worst_ht:.3e} (tol 1e-9)")
    assert worst_tt <= 1e-10
    assert worst_ht <= 1e-9


def test_criterion_03_bae_and_spectrum_oracle():
    """N=2, S=1/2, Theta=0 one-magnon roots are +-1/(2 sqrt 3) to 1e-10;
    the Hamiltonian equals the 3-site Heisenberg oracle to 1e-10."""
    chain = ChainSpec(N=2, defect_spin=0.5, params=XXX, theta=0.0)
    target = 1.0 / (2.0 * math.sqrt(3.0))
    plus = solve_bae(chain, 1, seeds=[0.35]).roots[0]
    minus = solve_bae(chain, 1, seeds=[-0.35]).roots[0]
    root_err = max(abs(plus - target), abs(minus + target))

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
    ham_err = float(np.max(np.abs(hamiltonian(chain) - oracle)))
    spec_err = float(np.max(np.abs(
        np.sort(np.linalg.eigvalsh(hamiltonian(chain)))
        - np.array([-3.0] * 4 + [0.0] * 4))))
    note(f"criterion 3: root error {root_err:.3e}, oracle spectrum error "
         f"{max(ham_err, spec_err):.3e} (tol 1e-10)")
    assert root_err <= 1e-10
    assert ham_err <= 1e-10
    assert spec_err <= 1e-10


def test_criterion_04_gamma_integral_identities():
    """use1 <= 1e-8 at 20 points of mu in (0, 10); use2 <= 1e-6 at 10
    (mu, beta) pairs."""
    rng = np.random.default_rng(23)
    worst1 = max(identity_use1_residual(mu)
                 for mu in rng.uniform(0.05, 9.95, 20))
    worst2 = 0.0
    for _ in range(10):
        mu = float(rng.uniform(0.3, 4.5))
        beta = float(rng.uniform(0.3, 2.5))
        worst2 = max(worst2, identity_use2_residual(mu, beta))
    note(f"criterion 4: use1 worst {worst1:.3e} (tol 1e-8), "
         f"use2 worst {worst2:.3e} (tol 1e-6)")
    assert worst1 <= 1e-8
    assert worst2 <= 1e-6


def test_criterion_05_product_integral_duality():
    """|product - integral| <= 1e-8 on 20-point grids: kink S (rational,
    both trig regimes), transmission (rational S in {1/2,1,3/2}; trig
    branches m in {0,1} both regimes), lightest breather S and T."""
    worst = {}

    def gap_over_grid(label, f_closed, f_integral):
        g = max(abs(f_closed(lam) - f_integral(lam)) for lam in LAM_GRID_20)
        worst[label] = g

    for label, params in (("S_s rational", XXX), ("S_s repulsive", REP4),
                          ("S_s attractive", ATT4)):
        gap_over_grid(label,
                      lambda lam, p=params: amp.kink_S_amplitude(p, lam).value,
                      lambda lam, p=params: amp.kink_S_by_integral(p, lam).value)

    trans_cases = [("T rational S=1/2", XXX, 0.5, 0),
                   ("T rational S=1", XXX, 1.0, 0),
                   ("T rational S=3/2", XXX, 1.5, 0),
                   ("T repulsive m=0", REP4, 1.0, 0),
                   ("T repulsive m=1", REP16, 2.0, 1),
                   ("T attractive m=0", ATT4, 1.0, 0),
                   ("T attractive m=1", ATT16, 1.0, 1)]
    for label, params, S, m in trans_cases:
        data = amp.DefectRegimeData.from_params(params, S)
        assert data.branch_index == m
        gap_over_grid(
            label,
            lambda lam, d=data: amp.transmission_amplitude(d, lam).value,
            lambda lam, d=data: amp.transmission_by_integral(d, lam).value)

    data_b = amp.DefectRegimeData.from_params(ATT4, 1.0)
    gap_over_grid("S_b(1,1)",
                  lambda lam: amp.breather_S(ATT4, 1, 1, lam),
                  lambda lam: amp.breather_S_by_integral(ATT4, lam).value)
    gap_over_grid("T_b(1)",
                  lambda lam: amp.breather_T(data_b, 1, lam),
                  lambda lam: amp.breather_T_by_integral(data_b, lam).value)

    summary = ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
    note(f"criterion 5: duality gaps (tol 1e-8): {summary}")
    for label, g in worst.items():
        assert g <= 1e-8, label


def test_criterion_06_scalar_unitarity_crossing():
    """Scalar unitarity and crossing companions <= 1e-9 on lambda grids
    for S in {1/2, 1, 3/2}; crossing where established (rational and
    repulsive; the attractive companion has no closed form here)."""
    grid = np.linspace(0.15, 2.0, 20)
    worst_u = worst_c = 0.0
    for params in (XXX, REP4):
        for S in (0.5, 1.0, 1.5):
            data = amp.DefectRegimeData.from_params(params, S)
            worst_u = max(worst_u,
                          max(pc.scalar_unitarity_residual(data, x)
                              for x in grid))
            worst_c = max(worst_c,
                          max(pc.scalar_crossing_residual(data, x)
                              for x in grid))
    for S in (0.5, 1.0, 1.5):
        data = amp.DefectRegimeData.from_params(ATT4, S)
        worst_u = max(worst_u,
                      max(pc.scalar_unitarity_residual(data, x)
                          for x in grid))
    note(f"criterion 6: unitarity worst {worst_u:.3e}, crossing worst "
         f"{worst_c:.3e} (tol 1e-9; attractive crossing companion "
         f"not established, unitarity only)")
    assert worst_u <= 1e-9
    assert worst_c <= 1e-9


def test_criterion_07_matrix_checks():
    """rtt <= 1e-10 (rational shifted spins 1/2 and 1; repulsive shifted
    spin 1/2 at gamma = 1/3); matrix unitarity/crossing <= 1e-9;
    M-matrix Casimir identity <= 1e-12."""
    rng = np.random.default_rng(31)
    worst_rtt = 0.0
    cases = [(XXX, 1.0), (XXX, 1.5), (REP4, 1.0)]
    assert abs(REP4.gamma - 1.0 / 3.0) < 1e-12
    for params, S in cases:
        data = amp.DefectRegimeData.from_params(params, S)
        for _ in range(6):
            l1, l2 = rng.uniform(-1.5, 1.5, size=2)
            worst_rtt = max(worst_rtt,
                            pc.rtt_residual(data, l1, l2))

    grid = np.linspace(0.15, 2.0, 12)
    worst_mat = 0.0
    for params, S in cases:
        data = amp.DefectRegimeData.from_params(params, S)
        tfn = functools.partial(amp.transmission_matrix, data)
        worst_mat = max(worst_mat,
                        max(pc.matrix_unitarity_residual(tfn, x)
                            for x in grid),
                        max(pc.matrix_crossing_residual(tfn, x)
                            for x in grid))

    worst_cas = 0.0
    for S in (0.5, 1.0, 1.5, 2.0):
        rep = build_rep(S, XXX)
        worst_cas = max(worst_cas,
                        max(pc.m_matrix_casimir_identity(rep, x)
                            for x in (0.0, 0.45, 1.3)))
    for S in (0.5, 1.0, 1.5):
        rep = build_rep(S, TRIG)
        worst_cas = max(worst_cas,
                        max(pc.m_matrix_casimir_identity(rep, x)
                            for x in (0.0, 0.45, 1.3)))
    note(f"criterion 7: rtt worst {worst_rtt:.3e} (tol 1e-10), matrix "
         f"unitarity/crossing worst {worst_mat:.3e} (tol 1e-9), Casimir "
         f"identity worst {worst_cas:.3e} (tol 1e-12)")
    assert worst_rtt <= 1e-10
    assert worst_mat <= 1e-9
    assert worst_cas <= 1e-12


def test_criterion_08_defect_lax_spectra():
    """Rational closed-form spectrum vs diagonalization <= 1e-12 for
    S in {1/2, 1, 3/2, 2}; trig report generated (pass, or a documented
    discrepancy -- never silent)."""
    worst_rat = 0.0
    for S in (0.5, 1.0, 1.5, 2.0):
        rep = build_rep(S, XXX)
        for lam in (0.73, 0.3 + 0.2j):
            res, _, _ = pc.defect_spectrum_report(rep, lam)
            worst_rat = max(worst_rat, res)

    trig_reports = []
    for S in (0.5, 1.0, 1.5):
        rep = build_rep(S, TRIG)
        trig_reports.append(pc.defect_spectrum_report(rep, 0.73))
    trig_passed = [res <= tol for res, tol, _ in trig_reports]
    trig_ok = all(ok or "discrepancy" in details
                  for ok, (_, _, details) in zip(trig_passed, trig_reports))
    trig_worst = max(res for res, _, _ in trig_reports)
    trig_note = "all pass" if all(trig_passed) \
        else "DOCUMENTED DISCREPANCY (see report details)"
    note(f"criterion 8: rational spectrum worst {worst_rat:.3e} "
         f"(tol 1e-12), trig report worst {trig_worst:.3e}: {trig_note}")
    assert worst_rat <= 1e-12
    assert trig_ok


def test_criterion_09_transmission_eigenvalue_ratio():
    """Rational second/first transmission eigenvalue read off the
    diagonalized matrix matches the closed ratio to 1e-10."""
    worst = 0.0
    for S in (1.0, 1.5):
        data = amp.DefectRegimeData.from_params(XXX, S)
        for lam_hat in (-1.2, 0.3, 0.7, 1.6):
            _, _, res = pc.transmission_eigenvalue_check(data, lam_hat)
            worst = max(worst, res)
    note(f"criterion 9: eigenvalue ratio worst {worst:.3e} (tol 1e-10)")
    assert worst <= 1e-10


def test_criterion_10_fusion_and_defect_field_form():
    """Fused breather amplitudes match their shifted-product definitions
    to 1e-10; the defect-field closed form matches the transmission
    amplitude under the variable map to 1e-9."""
    data = amp.DefectRegimeData.from_params(ATT4, 1.0)
    worst_fusion = 0.0
    for lam in (0.3, 0.85, 1.6):
        worst_fusion = max(
            worst_fusion,
            abs(amp.breather_S(ATT4, 2, 1, lam)
                - amp.breather_S(ATT4, 1, 1, lam + 0.5j)
                * amp.breather_S(ATT4, 1, 1, lam - 0.5j)),
            abs(amp.breather_T(data, 2, lam)
                - amp.breather_T(data, 1, lam + 0.5j)
                * amp.breather_T(data, 1, lam - 0.5j)))

    worst_corr = 0.0
    for offset in (0.0, 0.3):
        d = amp.DefectRegimeData.from_params(ATT4, 1.0)
        for lam_hat in (0.4 - 1j * offset, 1.3 - 1j * offset):
            z1, z2 = amp.corrigan_variables(d, lam_hat)
            t_corr, _ = amp.corrigan_form(z1, z2, d.params.gamma)
            t_amp = amp.transmission_amplitude(d, lam_hat).value
            worst_corr = max(worst_corr, abs(t_corr.value - t_amp))
    note(f"criterion 10: fusion worst {worst_fusion:.3e} (tol 1e-10), "
         f"defect-field vs transmission worst {worst_corr:.3e} (tol 1e-9)")
    assert worst_fusion <= 1e-10
    assert worst_corr <= 1e-9
