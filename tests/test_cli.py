import json

import numpy as np
import pytest

import bimult.io as bio
from bimult.cli import main
from bimult.norms import GAMMA2_MIN_TOL, gamma2
from bimult.symbols import SchurSymbol, Symbol3, complex_normal, embed_schur, make_rng


@pytest.fixture
def workdir(tmp_path):
    rng = make_rng(601)
    s = SchurSymbol(np.ones((2, 2, 2), dtype=complex))
    rand = SchurSymbol(complex_normal(rng, (2, 2, 2)))
    x = complex_normal(rng, (2, 2))
    y = complex_normal(rng, (2, 2))
    paths = {}
    items = {
        "ones.json": bio.schur_to_json(s),
        "rand.json": bio.schur_to_json(rand),
        "rand_general.json": bio.symbol3_to_json(embed_schur(rand)),
        "x.json": bio.matrix_to_json(x),
        "y.json": bio.matrix_to_json(y),
        "h2.json": bio.matrix_to_json(np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)),
    }
    for name, obj in items.items():
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        paths[name] = str(p)
    paths["dir"] = tmp_path
    paths["x_arr"] = x
    paths["y_arr"] = y
    return paths


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_apply_constant_symbol(workdir, capsys):
    code, out = run_cli(capsys, "apply", "--input", workdir["ones.json"],
                        "--x", workdir["x.json"], "--y", workdir["y.json"])
    assert code == 0
    payload = json.loads(out)
    result = bio.matrix_from_json(payload["result"])
    want = workdir["y_arr"] @ workdir["x_arr"]
    assert np.abs(result - want).max() <= 1e-12
    assert set(payload["schatten"]) == {"s1", "s2", "sinf"}


def test_apply_embedded_matches_schur(workdir, capsys):
    code1, out1 = run_cli(capsys, "apply", "--input", workdir["rand.json"],
                          "--x", workdir["x.json"], "--y", workdir["y.json"])
    code2, out2 = run_cli(capsys, "apply", "--input", workdir["rand_general.json"],
                          "--x", workdir["x.json"], "--y", workdir["y.json"])
    assert code1 == code2 == 0
    r1 = bio.matrix_from_json(json.loads(out1)["result"])
    r2 = bio.matrix_from_json(json.loads(out2)["result"])
    assert np.abs(r1 - r2).max() <= 1e-12


def test_apply_malformed_json_exits_2(workdir, capsys):
    bad = workdir["dir"] / "bad.json"
    bad.write_text("{ not json")
    code, _ = run_cli(capsys, "apply", "--input", str(bad),
                      "--x", workdir["x.json"], "--y", workdir["y.json"])
    assert code == 2


def test_apply_shape_error_exits_3(workdir, capsys):
    wrong = workdir["dir"] / "wrong.json"
    wrong.write_text(json.dumps(bio.matrix_to_json(np.zeros((3, 2), dtype=complex))))
    code, _ = run_cli(capsys, "apply", "--input", workdir["ones.json"],
                      "--x", str(wrong), "--y", workdir["y.json"])
    assert code == 3


def test_norm_s2_reports_exact_value(workdir, capsys):
    code, out = run_cli(capsys, "norm", "--input", workdir["rand.json"],
                        "--target", "s2", "--restarts", "10", "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["lower_bound"]["value"] == payload["exact_value"]
    assert payload["lower_bound"]["kind"] == "lower_bound"


def test_norm_s1_upper_and_lower(workdir, capsys):
    code, out = run_cli(capsys, "norm", "--input", workdir["rand.json"],
                        "--target", "s1", "--restarts", "8", "--seed", "1",
                        "--tol", "1e-3")
    assert code == 0
    payload = json.loads(out)
    assert payload["lower_bound"]["value"] <= payload["upper_bound"] * (1 + 1e-6)


def test_norm_s1_single_middle_matches_gamma2(workdir, capsys):
    rng = make_rng(611)
    s = SchurSymbol(complex_normal(rng, (3, 1, 3)))
    path = workdir["dir"] / "single.json"
    path.write_text(json.dumps(bio.schur_to_json(s)))
    code, out = run_cli(capsys, "norm", "--input", str(path), "--target", "s1",
                        "--restarts", "8", "--seed", "4", "--tol", "1e-4")
    assert code == 0
    payload = json.loads(out)
    direct = gamma2(s.slice_at(0), tol=1e-4).value
    assert abs(payload["upper_bound"] - direct) <= 1e-12 * (1 + direct)


def test_norm_zero_symbol(workdir, capsys):
    zero = workdir["dir"] / "zero.json"
    zero.write_text(json.dumps(bio.schur_to_json(SchurSymbol(np.zeros((2, 2, 2))))))
    code, out = run_cli(capsys, "norm", "--input", str(zero), "--target", "s2",
                        "--restarts", "2")
    assert code == 0
    assert json.loads(out)["exact_value"] == 0.0


def test_norm_general_symbol_s2_rejected(workdir, capsys):
    code, _ = run_cli(capsys, "norm", "--input", workdir["rand_general.json"],
                      "--target", "s2", "--restarts", "2")
    assert code == 3


def test_gamma2_cli(workdir, capsys):
    code, out = run_cli(capsys, "gamma2", "--input", workdir["h2.json"], "--tol", "1e-6")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"] - np.sqrt(2.0)) <= 1e-5


@pytest.mark.parametrize("scale, tol", [(1.0, 1e-6), (1e6, GAMMA2_MIN_TOL)],
                         ids=["closes", "cannot-close"])
def test_gamma2_cli_reports_the_bracket(workdir, capsys, scale, tol):
    # tol=1e-10 on a value near 1e6 asks for 1e-16 relative, so that bracket stays open
    m = scale * complex_normal(make_rng(63), (3, 3))
    path = workdir["dir"] / "m.json"
    path.write_text(json.dumps(bio.matrix_to_json(m)))
    code, out = run_cli(capsys, "gamma2", "--input", str(path), "--tol", repr(tol))
    assert code == 0
    payload = json.loads(out)
    res = gamma2(m, tol=tol)
    assert (payload["lower"], payload["converged"], payload["iterations"]) == (
        res.lower, res.converged, res.iterations)
    assert payload["lower"] <= payload["value"]
    assert payload["converged"] == (payload["value"] - payload["lower"] <= tol)
    assert payload["converged"] == (scale == 1.0)
    for fmt, sep in (("text", None), ("csv", ",")):
        code, out = run_cli(capsys, "gamma2", "--input", str(path), "--tol", repr(tol),
                            "--format", fmt)
        rows = dict(line.split(sep, 1) for line in out.splitlines()[fmt == "csv":])
        assert code == 0
        assert {k: rows[k].strip() for k in ("lower", "converged", "iterations")} == {
            "lower": str(res.lower), "converged": str(res.converged),
            "iterations": str(res.iterations)}


def test_cli_determinism(workdir, capsys):
    args = ("norm", "--input", workdir["rand.json"], "--target", "s1",
            "--restarts", "5", "--seed", "42", "--tol", "1e-3")
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_schur_commands_ignore_seed_and_restarts(workdir, capsys):
    # every Schur number is certified or in closed form, so nothing is drawn
    kernel = workdir["rand.json"]
    code, out = run_cli(capsys, "factorize", "--input", kernel, "--tol", "1e-4")
    assert code == 0
    fam_path = workdir["dir"] / "family.json"
    fam_path.write_text(json.dumps(json.loads(out)["family"]))
    commands = [("factorize", "--input", kernel, "--tol", "1e-4", "--witnesses"),
                ("verify-factorization", "--input", kernel, "--family", str(fam_path),
                 "--algebras", "full,full,full", "--tol", "1e-4")]
    commands += [("norm", "--input", kernel, "--target", t, "--witnesses") for t in ("s1", "s2", "b")]
    for argv in commands:
        outs = [run_cli(capsys, *argv, "--seed", seed, "--restarts", restarts)
                for seed, restarts in (("0", "20"), ("7", "3"))]
        assert outs[0][0] == 0 and outs[0] == outs[1], argv


def test_factorize_cli_and_truncation(workdir, capsys):
    code, out = run_cli(capsys, "factorize", "--input", workdir["ones.json"],
                        "--tol", "1e-4", "--restarts", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["passed"] is True
    assert abs(payload["report"]["row_wnorm"] * payload["report"]["col_wnorm"] - 1.0) <= 1e-3
    code, out = run_cli(capsys, "factorize", "--input", workdir["rand.json"],
                        "--tol", "1e-4", "--restarts", "5", "--truncate", "1")
    assert code == 0  # reports do not fail the process
    payload = json.loads(out)
    assert payload["report"]["synthesis_residual"] > 1e-6
    # truncating every member leaves the zero family, which is reported, not rejected
    count = payload["family"]["count"] + 1
    for truncate in (str(count), str(count + 5)):
        code, out = run_cli(capsys, "factorize", "--input", workdir["rand.json"],
                            "--tol", "1e-4", "--truncate", truncate)
        assert code == 0
        report = json.loads(out)["report"]
        assert report["row_wnorm"] == report["col_wnorm"] == 0.0
        assert report["square_slack_x"] == report["square_slack_y"] == 0.0
        assert report["membership_ok"] is True and report["synthesis_ok"] is False
        assert json.loads(out)["family"]["count"] == 0


def test_factorize_rejects_negative_truncate(workdir, capsys):
    code = main(["factorize", "--input", workdir["rand.json"], "--truncate", "-3"])
    assert code == 3
    assert "--truncate must be >= 0" in capsys.readouterr().err
    code, out = run_cli(capsys, "factorize", "--input", workdir["rand.json"],
                        "--tol", "1e-4", "--truncate", "0")
    assert code == 0 and json.loads(out)["report"]["passed"] is True


def test_amplify_level_checked_before_input(workdir, capsys):
    missing = str(workdir["dir"] / "missing.json")
    for n in ("0", "-1"):
        code = main(["amplify", "--input", missing, "--n", n])
        assert code == 3
        assert "--n must be >= 1" in capsys.readouterr().err
    assert main(["amplify", "--input", missing, "--n", "1"]) == 2  # then the input is read


def test_negative_seed_checked_before_input(workdir, capsys, monkeypatch):
    missing = str(workdir["dir"] / "missing.json")
    for argv in (["norm", "--input", workdir["rand.json"], "--target", "s1"],
                 ["amplify", "--input", missing]):
        assert main([*argv, "--seed", "-1"]) == 3
        assert "seed -1 must be >= 0" in capsys.readouterr().err
        monkeypatch.setenv("BIMULT_SEED", "-1")
        assert main(argv) == 3
        assert "seed -1 must be >= 0" in capsys.readouterr().err
        monkeypatch.delenv("BIMULT_SEED")
    assert main(["amplify", "--input", missing, "--seed", "0"]) == 2  # then the input is read


def test_verify_modular_cli(workdir, capsys):
    code, out = run_cli(capsys, "verify-modular", "--input", workdir["rand.json"],
                        "--algebras", "diagonal,diagonal,diagonal")
    assert code == 0
    payload = json.loads(out)
    assert payload["member"] is True and payload["modular"] is True
    assert payload["equivalent"] is True
    code, out = run_cli(capsys, "verify-modular", "--input", workdir["rand.json"],
                        "--algebras", "scalar,diagonal,diagonal")
    payload = json.loads(out)
    assert payload["member"] is False and payload["modular"] is False


def test_verify_modular_general_symbol_and_file_algebra(workdir, capsys):
    alg_file = workdir["dir"] / "alg.json"
    eye = np.eye(2, dtype=complex)
    e11 = np.zeros((2, 2), dtype=complex)
    e11[0, 0] = 1.0
    alg_file.write_text(json.dumps({
        "dim": 2,
        "generators": [bio.matrix_to_json(eye), bio.matrix_to_json(e11)],
    }))
    # the generated algebra is the diagonal algebra, so the embedded random
    # kernel is modular for (diagonal, diagonal, diagonal)
    code, out = run_cli(capsys, "verify-modular", "--input", workdir["rand_general.json"],
                        "--algebras", f"@{alg_file},diagonal,diagonal")
    assert code == 0
    payload = json.loads(out)
    assert payload["member"] is True and payload["modular"] is True
    bad = workdir["dir"] / "alg_bad.json"
    bad.write_text(json.dumps({"dim": 3, "generators": []}))
    code, _ = run_cli(capsys, "verify-modular", "--input", workdir["rand_general.json"],
                      "--algebras", f"@{bad},diagonal,diagonal")
    assert code == 3  # dimension mismatch with the symbol leg


def test_verify_modular_central_file_algebra(workdir, capsys):
    # a generator that is central up to rounding generates the scalars; their
    # commutant is all of M_2, so both modularity checks see a non-member
    rng = make_rng(602)
    g = (0.3 + 0.4j) * np.eye(2) + 1e-17 * complex_normal(rng, (2, 2))
    alg_file = workdir["dir"] / "alg.json"
    alg_file.write_text(json.dumps({"dim": 2, "generators": [bio.matrix_to_json(g)]}))
    sym_file = workdir["dir"] / "general.json"
    sym_file.write_text(json.dumps(bio.symbol3_to_json(Symbol3(complex_normal(rng, (2,) * 6)))))
    code, out = run_cli(capsys, "verify-modular", "--input", str(sym_file),
                        "--algebras", f"@{alg_file},full,full")
    assert code == 0
    payload = json.loads(out)
    assert payload["member"] is False and payload["modular"] is False
    assert payload["equivalent"] is True


def test_algebra_file_dim_checked_before_generation(workdir, capsys, monkeypatch):
    def no_generation(*args):
        raise AssertionError("generate_algebra called before the dimension check")

    monkeypatch.setattr("bimult.cli.generate_algebra", no_generation)
    bad = workdir["dir"] / "alg_dim3.json"
    bad.write_text(json.dumps({"dim": 3, "generators": []}))
    code = main(["verify-modular", "--input", workdir["rand_general.json"],
                 "--algebras", f"@{bad},diagonal,diagonal"])
    assert code == 3
    assert "algebra dimension 3 vs symbol leg 2" in capsys.readouterr().err


def test_verify_factorization_cli(workdir, capsys):
    code, out = run_cli(capsys, "factorize", "--input", workdir["rand.json"],
                        "--tol", "1e-4", "--restarts", "5")
    fam = json.loads(out)["family"]
    fam_path = workdir["dir"] / "family.json"
    fam_path.write_text(json.dumps(fam))
    code, out = run_cli(capsys, "verify-factorization", "--input", workdir["rand.json"],
                        "--family", str(fam_path), "--algebras", "full,full,full",
                        "--restarts", "5", "--tol", "1e-4")
    assert code == 0
    assert json.loads(out)["report"]["passed"] is True


def test_amplify_cli(workdir, capsys):
    code, out = run_cli(capsys, "amplify", "--input", workdir["rand.json"],
                        "--n", "2", "--restarts", "4", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    v1 = payload["levels"]["1"]["value"]
    v2 = payload["levels"]["2"]["value"]
    assert v2 <= v1 * (1 + 1e-3)


def test_selftest_cli(capsys):
    code, out = run_cli(capsys, "selftest", "--seed", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    code, out = run_cli(capsys, "selftest", "--seed", "0", "--inject-fault")
    assert code == 1
    assert json.loads(out)["all_passed"] is False


def test_selftest_reproducible(capsys):
    code1, out1 = run_cli(capsys, "selftest", "--seed", "7")
    code2, out2 = run_cli(capsys, "selftest", "--seed", "7")
    assert out1 == out2


def test_env_seed_override(workdir, capsys, monkeypatch):
    # the general-symbol S1 norm runs seeded restarts, so both settings show in stdout
    argv = ("norm", "--input", workdir["rand_general.json"], "--target", "s1")
    _, out_99 = run_cli(capsys, *argv, "--seed", "99", "--restarts", "3")
    _, out_1 = run_cli(capsys, *argv, "--seed", "1", "--restarts", "3")
    _, out_r1 = run_cli(capsys, *argv, "--seed", "99", "--restarts", "1")
    assert out_99 != out_1 and out_99 != out_r1
    monkeypatch.setenv("BIMULT_SEED", "99")
    assert run_cli(capsys, *argv, "--restarts", "3")[1] == out_99
    monkeypatch.setenv("BIMULT_SEED", "1")
    assert run_cli(capsys, *argv, "--seed", "99", "--restarts", "3")[1] == out_99
    monkeypatch.delenv("BIMULT_SEED")
    monkeypatch.setenv("BIMULT_RESTARTS", "3")
    assert run_cli(capsys, *argv, "--seed", "99")[1] == out_99
    monkeypatch.setenv("BIMULT_RESTARTS", "1")
    assert run_cli(capsys, *argv, "--seed", "99", "--restarts", "3")[1] == out_99


def test_bad_tolerance_exits_3(workdir, capsys):
    code, _ = run_cli(capsys, "norm", "--input", workdir["rand.json"],
                      "--target", "s2", "--tol", "0.5")
    assert code == 3


def test_tolerance_range_is_the_gamma2_range(workdir, capsys):
    # below the smallest tol gamma2 accepts: rejected with the configuration,
    # before the (missing) input file is read, for every command
    missing = str(workdir["dir"] / "missing.json")
    for argv in (["gamma2", "--input", missing], ["norm", "--input", missing, "--target", "s2"]):
        code = main([*argv, "--tol", "1e-11"])
        assert code == 3
        assert "tolerance 1e-11 outside [1e-10, 0.01]" in capsys.readouterr().err
    code, out = run_cli(capsys, "gamma2", "--input", workdir["h2.json"],
                        "--tol", repr(GAMMA2_MIN_TOL))
    assert code == 0
    assert abs(json.loads(out)["value"] - np.sqrt(2.0)) <= 1e-10


def test_norm_witness_emission(workdir, capsys):
    code, out = run_cli(capsys, "norm", "--input", workdir["rand.json"],
                        "--target", "s2", "--restarts", "4", "--seed", "2",
                        "--witnesses")
    assert code == 0
    payload = json.loads(out)
    x = bio.matrix_from_json(payload["lower_bound"]["witness_x"][0])
    y = bio.matrix_from_json(payload["lower_bound"]["witness_y"][0])
    from bimult.norms import evaluate_bilinear
    s = bio.symbol_from_json(json.loads(open(workdir["rand.json"]).read()))
    redo = evaluate_bilinear(s, "s2", x, y)
    assert abs(redo - payload["lower_bound"]["value"]) <= 1e-9 * (1 + redo)


def test_csv_skips_bulk_entries(workdir, capsys):
    code, out = run_cli(capsys, "apply", "--input", workdir["ones.json"],
                        "--x", workdir["x.json"], "--y", workdir["y.json"],
                        "--format", "csv")
    assert code == 0
    assert ".entries." not in out  # scalar rows only
    assert "schatten.s1" in out


def test_csv_and_text_formats(workdir, capsys):
    code, out = run_cli(capsys, "gamma2", "--input", workdir["h2.json"],
                        "--tol", "1e-6", "--format", "csv")
    assert code == 0 and out.startswith("key,value")
    code, out = run_cli(capsys, "gamma2", "--input", workdir["h2.json"],
                        "--tol", "1e-6", "--format", "text")
    assert code == 0 and "value" in out
