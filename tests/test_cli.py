"""End-to-end CLI coverage through main(argv), parsing emitted records."""

import argparse
import json
import math
import re
import shlex
import warnings
from pathlib import Path

import pytest

from defectbethe import spin_chain
from defectbethe.amplitudes import DefectRegimeData
from defectbethe.cli import _model, build_parser, main

ROOT_3SITE = 1.0 / (2.0 * math.sqrt(3.0))


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.strip().splitlines() if line]


def usage_error(capsys, argv):
    """stderr of an argv that argparse refuses with exit code 2."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_ybe_passes(capsys):
    code, out, _ = run_cli(capsys, ["verify", "ybe", "--samples", "25"])
    assert code == 0
    (rec,) = json_lines(out)
    assert rec["command"] == "verify ybe"
    assert rec["params"]["passed"] is True
    assert rec["residual"] <= 1e-12


def test_verify_rll_custom_spins(capsys):
    code, out, _ = run_cli(capsys, [
        "verify", "rll", "--model", "xxz", "--mu", "0.3",
        "--spin", "0.5", "--spin", "1.5", "--samples", "6"])
    assert code == 0
    recs = json_lines(out)
    assert [r["params"]["spin"] for r in recs] == [0.5, 1.5]


def test_verify_rtt_reports_shifted_spin(capsys):
    code, out, _ = run_cli(capsys, ["verify", "rtt", "--samples", "4"])
    assert code == 0
    recs = json_lines(out)
    assert [r["params"]["spin"] for r in recs] == [1.0, 1.5]
    assert [r["params"]["shifted_spin"] for r in recs] == [0.5, 1.0]


def test_verify_unitarity_and_crossing(capsys):
    for what in ("unitarity", "crossing"):
        code, out, _ = run_cli(capsys, [
            "verify", what, "--samples", "6", "--spin", "1.0"])
        assert code == 0
        (rec,) = json_lines(out)
        assert rec["params"]["matrix_checked"] is True
        assert rec["residual"] <= 1e-9


def test_verify_crossing_attractive_scalar_only(capsys):
    code, out, _ = run_cli(capsys, [
        "verify", "unitarity", "--model", "xxz", "--mu", str(math.pi / 4),
        "--regime", "attractive", "--samples", "5", "--spin", "0.5"])
    assert code == 0
    (rec,) = json_lines(out)
    assert rec["params"]["matrix_checked"] is False


@pytest.mark.parametrize("mu, checked", [
    ("1.1", [False, True, False]),   # shifted spin-1 rep degenerates
    ("2.0", [False, False, False]),  # pi*gamma outside (0, pi)
])
@pytest.mark.parametrize("what", ["unitarity", "crossing"])
def test_verify_repulsive_unrealizable_matrix_is_scalar_only(
        capsys, what, mu, checked):
    code, out, _ = run_cli(capsys, [
        "verify", what, "--model", "xxz", "--mu", mu,
        "--regime", "repulsive", "--samples", "5"])
    assert code == 0
    recs = json_lines(out)
    assert [r["params"]["spin"] for r in recs] == [0.5, 1.0, 1.5]
    assert [r["params"]["matrix_checked"] for r in recs] == checked
    assert all(r["params"]["passed"] for r in recs)


@pytest.mark.parametrize("what, code", [
    ("unitarity", 0), ("crossing", 0), ("rtt", 2)])
def test_verify_rep_above_cap_is_scalar_only(capsys, monkeypatch, what,
                                             code):
    # the shifted spin-99999.5 rep exceeds the cap: unitarity and crossing
    # keep their scalar check, rtt needs the matrix and is refused
    monkeypatch.delenv("DEFECTBETHE_MAX_DIM", raising=False)
    got, out, err = run_cli(capsys, [
        "verify", what, "--spin", "1e5", "--samples", "2"])
    assert got == code
    if code == 0:
        (rec,) = json_lines(out)
        assert rec["params"]["matrix_checked"] is False
        assert rec["params"]["passed"] and err == ""
    else:
        assert "exceeds cap 16384" in json.loads(err)["error"]


def test_verify_rtt_unrealizable_is_domain_error(capsys):
    code, out, err = run_cli(capsys, [
        "verify", "rtt", "--model", "xxz", "--mu", "2.0",
        "--regime", "repulsive", "--samples", "3"])
    assert code == 2
    assert out == ""
    assert "no finite representation" in json.loads(err)["error"]


def test_verify_casimir(capsys):
    code, out, _ = run_cli(capsys, [
        "verify", "casimir", "--samples", "5", "--spin", "1.0"])
    assert code == 0
    (rec,) = json_lines(out)
    assert rec["residual"] <= 1e-12


def test_verify_defect_spectrum_emits_multiset(capsys):
    # one record per spin, carrying both eigenvalue multisets of the
    # 2(2S+1)-dimensional defect matrix
    code, out, _ = run_cli(capsys, [
        "verify", "defect-spectrum", "--spin", "0.5", "--spin", "1"])
    assert code == 0
    recs = json_lines(out)
    assert [r["params"]["spin"] for r in recs] == [0.5, 1.0]
    for rec, dim in zip(recs, (4, 6)):
        assert "part" not in rec["params"]
        assert len(rec["params"]["closed_form"]) == dim
        assert len(rec["params"]["diagonalized"]) == dim
        assert rec["residual"] <= rec["params"]["tol"] == 1e-12


def test_verify_tolerance_override_fails(capsys):
    code, out, _ = run_cli(capsys, [
        "verify", "ybe", "--samples", "5", "--tol", "1e-20"])
    assert code == 1
    (rec,) = json_lines(out)
    assert rec["params"]["passed"] is False
    assert rec["params"]["tol"] == 1e-20


def test_verify_defect_spectrum_tolerance_override(capsys):
    # --tol reaches the one spectrum record of each spin
    code, out, _ = run_cli(capsys, [
        "verify", "defect-spectrum", "--spin", "1", "--spin", "1.5",
        "--tol", "1e-20"])
    recs = json_lines(out)
    assert [r["params"]["spin"] for r in recs] == [1.0, 1.5]
    assert [r["params"]["tol"] for r in recs] == [1e-20, 1e-20]
    assert code == (0 if all(r["params"]["passed"] for r in recs) else 1)


def test_verify_defect_spectrum_failure_is_explained(capsys):
    # a spectrum record that fails --tol says why, although the residual
    # is inside the check's built-in tolerance
    code, out, _ = run_cli(capsys, [
        "verify", "defect-spectrum", "--model", "xxz", "--mu", "0.3",
        "--spin", "1", "--tol", "1e-30"])
    rec = json_lines(out)[0]
    assert code == 1
    assert 0.0 < rec["residual"] <= 1e-8
    assert rec["params"]["tol"] == 1e-30
    assert rec["params"]["passed"] is False
    assert "discrepancy" in rec["params"]


def test_verify_seed_determinism(capsys):
    _, out1, _ = run_cli(capsys, ["verify", "ybe", "--seed", "5"])
    _, out2, _ = run_cli(capsys, ["verify", "ybe", "--seed", "5"])
    _, out3, _ = run_cli(capsys, ["verify", "ybe", "--seed", "6"])
    assert out1 == out2
    assert json_lines(out1)[0]["residual"] != json_lines(out3)[0]["residual"]


NU4 = ["--model", "xxz", "--mu", "0.7853981633974483"]  # q^8 = 1
ATT4 = [*NU4, "--regime", "attractive"]


@pytest.mark.parametrize("regime", ["repulsive", "attractive"])
@pytest.mark.parametrize("check", ["rll", "casimir", "defect-spectrum"])
def test_verify_default_spins_skip_root_of_unity(capsys, check, regime):
    # at nu = 4 the spin-2 representation degenerates ([4]_q = 0)
    code, out, err = run_cli(capsys, [
        "verify", check, *NU4, "--regime", regime, "--samples", "4"])
    assert code == 0, err
    recs = json_lines(out)
    assert sorted({r["params"]["spin"] for r in recs}) == [0.5, 1.0, 1.5]
    assert all(r["params"]["skipped_spins"] == [2.0] for r in recs)
    assert all(r["params"]["passed"] is True for r in recs)


@pytest.mark.parametrize("check", ["rll", "casimir", "defect-spectrum"])
def test_verify_explicit_degenerate_spin_still_fails(capsys, check):
    code, out, err = run_cli(capsys, [
        "verify", check, *NU4, "--regime", "repulsive", "--spin", "2",
        "--samples", "4"])
    assert code == 2
    assert out == ""
    assert "degenerates" in json.loads(err)["error"]


def test_verify_default_spins_none_skipped(capsys):
    code, out, _ = run_cli(capsys, [
        "verify", "rll", "--model", "xxz", "--mu", "0.3", "--samples", "3"])
    assert code == 0
    recs = json_lines(out)
    assert [r["params"]["spin"] for r in recs] == [0.5, 1.0, 1.5, 2.0]
    assert all("skipped_spins" not in r["params"] for r in recs)


# ---------------------------------------------------------------------------
# amp
# ---------------------------------------------------------------------------


def test_amp_transmission_both_methods(capsys):
    code, out, _ = run_cli(capsys, [
        "amp", "transmission", "--spin", "1", "--lambda", "0",
        "--method", "both"])
    assert code == 0
    recs = json_lines(out)
    assert len(recs) == 2
    for rec in recs:
        assert abs(rec["re"] - 1.0) < 1e-9 and abs(rec["im"]) < 1e-9
    assert recs[0]["product_integral_gap"] <= 1e-10


def test_amp_sweep_and_gap(capsys):
    code, out, _ = run_cli(capsys, [
        "amp", "kink", "--sweep", "0.2:1.4:4", "--method", "both"])
    assert code == 0
    recs = json_lines(out)
    assert len(recs) == 8  # product + integral per grid point
    gaps = {r["product_integral_gap"] for r in recs}
    assert all(g <= 1e-8 for g in gaps)


def test_amp_records_carry_terms_used(capsys):
    code, out, _ = run_cli(capsys, [
        "amp", "transmission", "--model", "xxz", "--mu", repr(math.pi / 4),
        "--regime", "repulsive", "--spin", "1", "--sweep=-1:1:3",
        "--method", "both"])
    assert code == 0
    recs = json_lines(out)
    product = [r["terms_used"] for r in recs
               if r["params"]["method"] == "product"]
    integral = [r["terms_used"] for r in recs
                if r["params"]["method"] == "integral"]
    assert len(product) == len(integral) == 3
    # ladder K is a doubling of the engine's 64 start terms; quad's neval
    # counts its 21-point Gauss-Kronrod panels
    assert all(k >= 64 and k & (k - 1) == 0 for k in product)
    assert all(n > 0 and n % 21 == 0 for n in integral)


def test_amp_breather_requires_attractive(capsys):
    code, _, err = run_cli(capsys, [
        "amp", "breather-s", "--lambda", "0.5"])
    assert code == 2
    assert "attractive" in err


def test_amp_breather_s_non_decaying_kernel(capsys):
    # nu = 1.6: the r_b kernel grows, so the integral route is refused
    code, _, err = run_cli(capsys, [
        "amp", "breather-s", "--model", "xxz", "--mu", str(math.pi / 1.6),
        "--regime", "attractive", "--method", "both", "--lambda", "0.4"])
    assert code == 2
    assert "does not decay" in json.loads(err)["error"]


def test_amp_breather_t_runs(capsys):
    code, out, _ = run_cli(capsys, [
        "amp", "breather-t", "--model", "xxz", "--mu", str(math.pi / 4),
        "--regime", "attractive", "--spin", "1", "--lambda", "0.6",
        "--method", "both"])
    assert code == 0
    recs = json_lines(out)
    assert recs[0]["product_integral_gap"] <= 1e-8


def test_amp_breather_t_refuses_branch_m_above_zero(capsys):
    # nu = 2.5, 2S = 3: branch m = 1, where the closed form is unconfirmed
    code, out, err = run_cli(capsys, [
        "amp", "breather-t", "--model", "xxz", "--mu", repr(math.pi / 2.5),
        "--regime", "attractive", "--spin", "1.5", "--lambda", "0.4"])
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    assert "confirmed on branch m = 0 only, got m = 1" \
        in json.loads(line)["error"]


@pytest.mark.parametrize("argv", [
    ["transmission", "--model", "xxz", "--mu", repr(math.pi / 1.6),
     "--regime", "repulsive", "--spin", "2"],
    ["transmission", "--model", "xxz", "--mu", repr(math.pi / 4),
     "--regime", "attractive", "--spin", "1"],
    ["breather-t", "--model", "xxz", "--mu", repr(math.pi / 4),
     "--regime", "attractive", "--spin", "1"]])
def test_amp_defect_records_carry_branch_index(capsys, argv):
    code, out, _ = run_cli(capsys, ["amp", *argv, "--lambda", "0.4",
                                    "--method", "both"])
    assert code == 0
    args = build_parser().parse_args(["amp", *argv, "--lambda", "0.4"])
    data = DefectRegimeData.from_params(_model(args), args.spin)
    assert {r["params"]["branch_index"] for r in json_lines(out)} \
        == {data.branch_index}


@pytest.mark.parametrize("argv", [
    ["kink"],
    ["breather-s", "--model", "xxz", "--mu", repr(math.pi / 4),
     "--regime", "attractive"]])
def test_amp_defectless_records_have_no_branch_index(capsys, argv):
    code, out, _ = run_cli(capsys, ["amp", *argv, "--lambda", "0.3"])
    assert code == 0
    assert all("branch_index" not in r["params"] for r in json_lines(out))


def test_amp_breather_s_rejects_spin(capsys):
    # breather-breather scattering involves no defect, so there is no
    # --spin to give (2S = 4 would sit on the edge of the nu = 4 windows)
    err = usage_error(capsys, [
        "amp", "breather-s", *ATT4, "--lambda", "0.3", "--spin", "2"])
    assert "unrecognized arguments: --spin 2" in err


# per command, the options it does not read: each is a usage error
UNREAD_OPTIONS = [
    (["verify", "ybe", "--samples", "2"], ["--format"]),
    (["amp", "kink", "--lambda", "0.3"],
     ["--spin", "--theta", "--n1", "--n2", "--seed", "--format"]),
    (["amp", "transmission", "--lambda", "0.3"],
     ["--n1", "--n2", "--seed", "--format"]),
    (["amp", "breather-s", *ATT4, "--lambda", "0.3"],
     ["--spin", "--theta", "--seed", "--format"]),
    (["amp", "breather-t", *ATT4, "--spin", "1", "--lambda", "0.3"],
     ["--n2", "--seed", "--format"]),
    (["chain", "diagonalize", "--N", "2"],
     ["--magnons", "--tol", "--seed", "--regime", "--format"]),
    (["chain", "bae", "--N", "2"], ["--tol", "--regime", "--format"]),
    (["identity", "use1", "--samples", "2"],
     ["--model", "--mu", "--regime", "--format"]),
]
OPTION_VALUES = {"--spin": "1", "--theta": "0.3", "--n1": "1", "--n2": "1",
                 "--seed": "3", "--magnons": "1", "--tol": "1e-8",
                 "--regime": "attractive", "--model": "xxz", "--mu": "0.7",
                 "--format": "csv"}


@pytest.mark.parametrize("argv, option", [
    (argv, option) for argv, options in UNREAD_OPTIONS for option in options],
    ids=lambda x: " ".join(x[:2]) if isinstance(x, list) else x)
def test_unread_option_is_usage_error(capsys, argv, option):
    with pytest.raises(SystemExit) as exc:
        main([*argv, option, OPTION_VALUES[option]])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert f"unrecognized arguments: {option}" in err
    # the usage line is the refusing command's own, listing what it takes
    leaf = argv[:2] if argv[0] in ("amp", "chain") else argv[:1]
    assert err.startswith(f"usage: defectbethe {' '.join(leaf)} [-h]")


# record fields that are no option: the route, the chain's eigenvalue index
# and sector, its summary record, the Bethe solution, and the defect's
# branch index, which --spin and the anisotropy fix
RECORD_FIELDS = {"method", "index", "sz", "part", "sectors", "largest_sector",
                 "solution", "branch_index"}


@pytest.mark.parametrize("argv, read", [
    (["amp", "kink", "--lambda", "0.3"], {"kind", "model", "mu", "regime"}),
    (["amp", "transmission", "--lambda", "0.3"],
     {"kind", "model", "mu", "regime", "spin", "theta"}),
    (["amp", "breather-s", *ATT4, "--lambda", "0.3"],
     {"kind", "model", "mu", "regime", "n1", "n2"}),
    (["amp", "breather-t", *ATT4, "--spin", "1", "--lambda", "0.3"],
     {"kind", "model", "mu", "regime", "spin", "theta", "n1"}),
    (["chain", "diagonalize", "--N", "2"],
     {"N", "defect_site", "spin", "theta", "model", "mu"}),
    (["chain", "bae", "--N", "2"],
     {"N", "defect_site", "spin", "theta", "model", "mu", "magnons"}),
], ids=lambda x: " ".join(x[:2]) if isinstance(x, list) else None)
def test_record_params_are_the_options_read(capsys, argv, read):
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    parsed = set(vars(build_parser().parse_args(argv)))
    assert read <= parsed
    for rec in json_lines(out):
        assert set(rec["params"]) - RECORD_FIELDS == read


@pytest.mark.parametrize("argv", [
    ["verify", "ybe", "--regime", "repulsive"],
    ["amp", "kink", "--lambda", "0.3", "--regime", "attractive"],
    ["verify", "ybe", "--mu", "0.3"],
    ["chain", "diagonalize", "--N", "2", "--mu", "0.3"],
], ids=" ".join)
def test_isotropic_model_refuses_anisotropy_options(capsys, argv):
    # --regime and --mu belong to xxz; xxx refuses them rather than echo an
    # option it never reads
    code, out, err = run_cli(capsys, [*argv, "--model", "xxx"])
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    assert argv[-2].lstrip("-") in json.loads(line)["error"]


def test_branch_m_flag_rejected(capsys):
    err = usage_error(capsys, ["amp", "transmission", "--lambda", "0.4",
                               "--branch-m", "0"])
    assert "--branch-m" in err


def test_amp_needs_lambda_or_sweep(capsys):
    err = usage_error(capsys, ["amp", "kink"])
    assert "--lambda" in err or "--sweep" in err


def test_amp_rejects_lambda_with_sweep(capsys):
    err = usage_error(capsys, [
        "amp", "kink", "--lambda", "0.3", "--sweep", "0:1:3"])
    assert "not allowed with" in err


# ---------------------------------------------------------------------------
# chain
# ---------------------------------------------------------------------------


def test_chain_bae_finds_symmetric_pair(capsys):
    code, out, _ = run_cli(capsys, [
        "chain", "bae", "--N", "2", "--spin", "0.5", "--magnons", "1"])
    assert code == 0
    roots = sorted(r["re"] for r in json_lines(out))
    assert any(abs(r - ROOT_3SITE) < 1e-10 for r in roots)
    assert any(abs(r + ROOT_3SITE) < 1e-10 for r in roots)
    for rec in json_lines(out):
        assert rec["residual"] <= 1e-10


def test_chain_bae_reports_solver_failures(capsys):
    # 3 sites hold no 2-magnon root set, so no seed converges to one
    code, out, err = run_cli(capsys, [
        "chain", "bae", "--N", "2", "--spin", "0.5", "--magnons", "2",
        "--seed", "359753"])
    assert code == 1
    assert out == ""
    (line,) = err.strip().splitlines()
    diag = json.loads(line)
    assert diag["command"] == "chain"
    assert diag["params"]["seed"] == 359753
    assert diag["seeds_tried"] == 23
    assert sum(diag["failures"].values()) == 23
    assert diag["failures"]["NonConvergence"] >= 1
    assert 0.0 < diag["best_residual"] < math.inf


@pytest.mark.parametrize("seed", ["0", "10", "359753"])
def test_chain_bae_finds_eight_site_four_magnon_roots(capsys, seed):
    # the Bethe-number seeds reach the symmetric root set at every --seed;
    # the fixed and random seeds alone reach none at most seeds
    code, out, err = run_cli(capsys, [
        "chain", "bae", "--N", "8", "--spin", "0.5", "--magnons", "4",
        "--seed", seed])
    assert (code, err) == (0, "")
    roots = sorted(r["re"] for r in json_lines(out)
                   if r["params"]["solution"] == 0)
    assert max(abs(r - t) for r, t in zip(
        roots, [-0.6683, -0.2310, 0.2310, 0.6683])) < 1e-4


@pytest.mark.parametrize("magnons", ["0", "-1"])
def test_magnons_below_one_rejected(capsys, magnons):
    err = usage_error(capsys, ["chain", "bae", "--N", "4",
                               "--magnons", magnons])
    assert f"--magnons: must be at least 1, got {magnons}" in err


def test_chain_bae_success_writes_no_diagnostics(capsys):
    code, _, err = run_cli(capsys, [
        "chain", "bae", "--N", "2", "--spin", "0.5", "--magnons", "1"])
    assert code == 0
    assert err == ""


def test_chain_diagonalize_three_site(capsys):
    code, out, _ = run_cli(capsys, [
        "chain", "diagonalize", "--N", "2", "--spin", "0.5"])
    assert code == 0
    recs = json_lines(out)
    herm = [r for r in recs if r["params"].get("part") == "hermiticity"]
    assert len(herm) == 1 and herm[0]["residual"] < 1e-12
    evals = sorted(r["re"] for r in recs if "index" in r["params"])
    assert len(evals) == 8
    assert max(abs(e - t) for e, t in
               zip(evals, [-3.0] * 4 + [0.0] * 4)) < 1e-10


def test_chain_diagonalize_reports_sectors(capsys):
    # spin-1 defect at theta 0.3: S^z runs over 2, 1, ..., -2
    code, out, _ = run_cli(capsys, [
        "chain", "diagonalize", "--N", "2", "--spin", "1", "--theta", "0.3"])
    assert code == 0
    recs = json_lines(out)
    herm = [r for r in recs if r["params"].get("part") == "hermiticity"]
    assert len(herm) == 1
    assert herm[0]["params"]["sectors"] == 5
    assert herm[0]["params"]["largest_sector"] == 4
    eig = [r for r in recs if "index" in r["params"]]
    assert [r["params"]["index"] for r in eig] == list(range(12))
    counts = {}
    for r in eig:
        counts[r["params"]["sz"]] = counts.get(r["params"]["sz"], 0) + 1
    assert counts == {2.0: 1, 1.0: 3, 0.0: 4, -1.0: 3, -2.0: 1}
    re = [r["re"] for r in eig]
    assert re == sorted(re)


def test_chain_respects_dimension_cap(capsys, monkeypatch):
    monkeypatch.setenv("DEFECTBETHE_MAX_DIM", "4")
    code, _, err = run_cli(capsys, [
        "chain", "diagonalize", "--N", "2", "--spin", "0.5"])
    assert code == 2
    assert "cap" in err


def test_chain_bae_ignores_dimension_cap(capsys):
    # D = 2^21 is far above the default cap, but the Bethe equations
    # allocate nothing of size D
    code, out, err = run_cli(capsys, [
        "chain", "bae", "--N", "20", "--spin", "0.5", "--magnons", "1"])
    assert code == 0
    assert err == ""
    assert json_lines(out)


@pytest.mark.parametrize("check", ["rll", "casimir", "defect-spectrum"])
def test_verify_respects_dimension_cap(capsys, monkeypatch, check):
    # spin 50 is a 101-dimensional representation, refused before it is built
    monkeypatch.setenv("DEFECTBETHE_MAX_DIM", "8")
    code, out, err = run_cli(capsys, [
        "verify", check, "--spin", "50", "--samples", "1"])
    assert (code, out) == (2, "")
    assert "exceeds cap 8" in json.loads(err)["error"]


def test_verify_huge_spin_refused_before_allocating(capsys, monkeypatch):
    # 2S+1 = 2e300 is finite and half-integral; only the cap stops it
    monkeypatch.delenv("DEFECTBETHE_MAX_DIM", raising=False)
    code, out, err = run_cli(capsys, [
        "verify", "rll", "--spin", "1e300", "--samples", "1"])
    assert (code, out) == (2, "")
    assert "exceeds cap 16384" in json.loads(err)["error"]


@pytest.mark.parametrize("argv", [
    ["verify", "rll", "--spin", "1e308", "--samples", "1"],
    ["chain", "diagonalize", "--N", "2", "--spin", "1e308"],
    ["chain", "bae", "--N", "3", "--spin", "0.7"],
    ["chain", "diagonalize", "--N", "3", "--spin", "0.7"]])
def test_bad_spin_refused_before_any_rep(capsys, monkeypatch, argv):
    # 2S = 2e308 overflows to inf and 0.7 is no half-integer; the chain
    # refuses its defect spin when it is specified, so bae refuses it too
    calls = []
    monkeypatch.setattr(spin_chain, "build_rep", lambda *a: calls.append(a))
    code, out, err = run_cli(capsys, argv)
    assert (code, out, calls) == (2, "", [])
    assert "half-integer" in json.loads(err)["error"]


@pytest.mark.parametrize("argv", [
    ["verify", "unitarity", *NU4, "--regime", "repulsive", "--spin", "1e308",
     "--samples", "2"],
    ["amp", "transmission", *ATT4, "--spin", "1e308", "--lambda", "0.3"],
    ["verify", "unitarity", "--spin", "1e308", "--samples", "2"],
    ["verify", "unitarity", "--spin", "1e307", "--samples", "2"]])
def test_huge_defect_spin_is_one_error_line(capsys, argv):
    # 2S = 2e308 overflows to inf and is refused; at 2S = 2e307 the Gamma
    # ratios overflow, quietly, and the non-finite amplitude is refused
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    assert json.loads(line)["error"]


@pytest.mark.parametrize("options", [
    "transmission --mu 1.0 --regime attractive --spin 1.5",
    "kink --mu 0.08 --regime repulsive",
    "kink --mu 0.08 --regime attractive",
    "transmission --mu 0.08 --regime repulsive",
    "transmission --mu 0.08 --regime attractive",
    "breather-s --mu 0.08 --regime attractive",
    "breather-t --mu 0.15 --regime attractive --spin 0.5"])
def test_overflowing_kernel_is_one_error_line(capsys, options):
    # the integral route's kernel overflows double precision at a cutoff
    # probe; that ends in NonConvergence, not an OverflowError
    code, out, err = run_cli(capsys, [
        "amp", *options.split(), "--model", "xxz", "--lambda", "0.3",
        "--method", "integral"])
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    assert "kernel overflows double precision" in json.loads(line)["error"]


# ---------------------------------------------------------------------------
# identity
# ---------------------------------------------------------------------------


def test_identity_use1(capsys):
    code, out, _ = run_cli(capsys, ["identity", "use1", "--samples", "4"])
    assert code == 0
    recs = json_lines(out)
    assert len(recs) == 4
    assert all(r["residual"] <= 1e-8 for r in recs)


def test_identity_use1_default_samples(capsys):
    code, out, _ = run_cli(capsys, ["identity", "use1"])
    assert code == 0
    assert len(json_lines(out)) == 20


def test_identity_use2(capsys):
    code, out, _ = run_cli(capsys, ["identity", "use2", "--samples", "3"])
    assert code == 0
    recs = json_lines(out)
    assert len(recs) == 3
    assert all(r["residual"] <= 1e-6 for r in recs)


@pytest.mark.parametrize("argv", [["verify", "ybe"], ["identity", "use1"],
                                  ["identity", "use2"]])
@pytest.mark.parametrize("samples", ["0", "-2"])
def test_samples_below_one_rejected(capsys, argv, samples):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--samples", samples])
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert "--samples" in err


@pytest.mark.parametrize("argv", [["verify", "ybe"],
                                  ["amp", "kink", "--lambda", "0.3",
                                   "--method", "both"]])
@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_tol_must_be_finite_and_nonnegative(capsys, argv, tol):
    err = usage_error(capsys, [*argv, "--tol", tol])
    assert "--tol" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv, option", [
    (["verify", "rll"], "--spin"),
    (["verify", "ybe", "--model", "xxz"], "--mu"),
    (["amp", "kink"], "--lambda"),
    (["amp", "kink", "--lambda", "0.3", "--model", "xxz"], "--mu"),
    (["amp", "transmission", "--lambda", "0.3"], "--spin"),
    (["amp", "transmission", "--lambda", "0.3"], "--theta"),
    (["chain", "diagonalize", "--N", "2"], "--spin"),
    (["chain", "diagonalize", "--N", "2"], "--theta"),
    (["chain", "bae", "--N", "2", "--model", "xxz"], "--mu"),
])
def test_float_options_must_be_finite(capsys, argv, option, value):
    err = usage_error(capsys, [*argv, f"{option}={value}"])
    assert f"{option}: must be finite" in err


@pytest.mark.parametrize("argv, kind", [
    (["amp", "kink", "--lambda", "abc"], "float"),
    (["verify", "ybe", "--tol", "abc"], "float"),
    (["verify", "ybe", "--samples", "abc"], "int"),
])
def test_non_numeric_option_names_its_type(capsys, argv, kind):
    # plain argparse's message, not the name of the parsing function
    err = usage_error(capsys, argv)
    assert f"invalid {kind} value: 'abc'" in err
    assert "_finite" not in err and "_positive" not in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("sweep", ["{}:1:3", "0:{}:3"])
def test_sweep_endpoints_must_be_finite(capsys, sweep, value):
    code, out, err = run_cli(capsys, [
        "amp", "kink", f"--sweep={sweep.format(value)}"])
    assert (code, out) == (2, "")
    assert "finite endpoints" in json.loads(err)["error"]


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


def test_xxz_requires_mu(capsys):
    code, _, err = run_cli(capsys, [
        "verify", "ybe", "--model", "xxz"])
    assert code == 2
    assert "--mu" in err


def test_xxx_rejects_regime(capsys):
    code, _, err = run_cli(capsys, [
        "verify", "ybe", "--regime", "repulsive"])
    assert code == 2
    assert "regime" in err


def test_config_flag_rejected(capsys):
    err = usage_error(capsys, ["verify", "ybe", "--config", "tols.cfg"])
    assert "--config" in err


def _readme_command_line_section():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    return text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]


def _readme_commands():
    block = _readme_command_line_section().split("```sh\n", 1)[1]
    return [shlex.split(line) for line in block.split("```", 1)[0].splitlines()
            if line.strip()]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_runs(capsys, argv):
    assert argv[0] == "defectbethe"
    code, out, err = run_cli(capsys, argv[1:])
    assert code == 0, err
    assert out


def _accepted_flags(parser):
    """The flags of parser and of every subcommand parser below it."""
    flags = set(parser._option_string_actions)
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= _accepted_flags(sub)
    return flags


def test_readme_flags_exist():
    accepted = _accepted_flags(build_parser())
    named = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*",
                           _readme_command_line_section()))
    assert named and named <= accepted, named - accepted


def test_bad_sweep_spec(capsys):
    code, _, err = run_cli(capsys, ["amp", "kink", "--sweep", "0.2-1.4-4"])
    assert code == 2
    assert "sweep" in err


def test_closed_output_pipe_exits_quietly(capsys, monkeypatch):
    # downstream `head` closing stdout must not produce an error record
    import defectbethe.cli as cli_mod

    def boom(args, emitter):
        raise BrokenPipeError

    monkeypatch.setattr(cli_mod, "_cmd_identity", boom)
    code, _, err = run_cli(capsys, ["identity", "use1"])
    assert code == 141
    assert err == ""
