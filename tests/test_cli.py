"""End-to-end CLI coverage through main(argv), parsing emitted records."""

import csv
import io
import json
import math

import pytest

from defectbethe.cli import main

ROOT_3SITE = 1.0 / (2.0 * math.sqrt(3.0))


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.strip().splitlines() if line]


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


def test_verify_casimir(capsys):
    code, out, _ = run_cli(capsys, [
        "verify", "casimir", "--samples", "5", "--spin", "1.0"])
    assert code == 0
    (rec,) = json_lines(out)
    assert rec["residual"] <= 1e-12


def test_verify_defect_spectrum_emits_multiset(capsys):
    code, out, _ = run_cli(capsys, [
        "verify", "defect-spectrum", "--spin", "0.5"])
    assert code == 0
    recs = json_lines(out)
    assert len(recs) == 2
    assert recs[1]["params"]["part"] == "spin-multiset"
    assert recs[1]["params"]["multiset"] == [1.0, 0.0, 0.0, -1.0]


def test_verify_tolerance_override_fails(capsys, tmp_path):
    cfg = tmp_path / "tols.cfg"
    cfg.write_text("# impossible demand\ntol_ybe = 1e-20\n")
    code, out, _ = run_cli(capsys, [
        "verify", "ybe", "--samples", "5", "--config", str(cfg)])
    assert code == 1
    (rec,) = json_lines(out)
    assert rec["params"]["passed"] is False
    assert rec["params"]["tol"] == 1e-20


def test_verify_seed_determinism(capsys):
    _, out1, _ = run_cli(capsys, ["verify", "ybe", "--seed", "5"])
    _, out2, _ = run_cli(capsys, ["verify", "ybe", "--seed", "5"])
    _, out3, _ = run_cli(capsys, ["verify", "ybe", "--seed", "6"])
    assert out1 == out2
    assert json_lines(out1)[0]["residual"] != json_lines(out3)[0]["residual"]


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


def test_amp_branch_m_mismatch(capsys):
    code, _, err = run_cli(capsys, [
        "amp", "transmission", "--model", "xxz", "--mu", str(math.pi / 4),
        "--regime", "repulsive", "--spin", "1", "--lambda", "0.4",
        "--branch-m", "1"])
    assert code == 2
    assert "branch" in err


def test_amp_needs_lambda_or_sweep(capsys):
    code, _, err = run_cli(capsys, ["amp", "kink"])
    assert code == 2
    assert "--lambda" in err or "--sweep" in err


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
        assert rec["params"]["passed"] is True


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


# ---------------------------------------------------------------------------
# identity
# ---------------------------------------------------------------------------


def test_identity_use1(capsys):
    code, out, _ = run_cli(capsys, ["identity", "use1", "--samples", "4"])
    assert code == 0
    recs = json_lines(out)
    assert len(recs) == 4
    assert all(r["residual"] <= 1e-8 for r in recs)


def test_identity_use2(capsys):
    code, out, _ = run_cli(capsys, ["identity", "use2", "--samples", "3"])
    assert code == 0
    recs = json_lines(out)
    assert len(recs) == 3
    assert all(r["residual"] <= 1e-6 for r in recs)


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


def test_csv_output(capsys):
    code, out, _ = run_cli(capsys, [
        "amp", "kink", "--lambda", "0.7", "--method", "both",
        "--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2
    assert set(rows[0]) == {"command", "params", "lambda", "re", "im",
                            "err", "residual", "product_integral_gap"}
    blob = json.loads(rows[0]["params"])
    assert blob["method"] == "product"
    assert abs(float(rows[0]["re"]) - float(rows[1]["re"])) < 1e-8


def test_bad_config_line(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("tol_ybe 1e-10\n")
    code, _, err = run_cli(capsys, [
        "verify", "ybe", "--config", str(cfg)])
    assert code == 2
    assert "key=value" in err


def test_bad_sweep_spec(capsys):
    code, _, err = run_cli(capsys, ["amp", "kink", "--sweep", "0.2-1.4-4"])
    assert code == 2
    assert "sweep" in err


def test_closed_output_pipe_exits_quietly(capsys, monkeypatch):
    # downstream `head` closing stdout must not produce an error record
    import defectbethe.cli as cli_mod

    def boom(args, cfg, emitter):
        raise BrokenPipeError

    monkeypatch.setattr(cli_mod, "_cmd_identity", boom)
    code, _, err = run_cli(capsys, ["identity", "use1"])
    assert code == 141
    assert err == ""
