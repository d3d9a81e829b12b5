"""End-to-end tests of the command-line interface."""

import json
import math

import numpy as np
import pytest

from mixedsums.cli import main, parse_exponent, parse_vector
from mixedsums import INF, MultilinearForm, form_to_obj, ksz_random_form


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_exponent_tokens():
    assert parse_exponent("2") == 2.0
    assert parse_exponent("4/3") == pytest.approx(4.0 / 3.0, abs=0)
    assert parse_exponent("inf") == INF
    assert parse_exponent("1.5") == 1.5
    with pytest.raises(ValueError):
        parse_exponent("zero")
    with pytest.raises(ValueError):
        parse_exponent("-2")
    assert parse_vector("1,4/3,inf") == (1.0, 4.0 / 3.0, INF)


def test_exponent_table(capsys):
    code, out, _ = run(capsys, "exponent", "--m", "2", "--p", "4,4", "--r", "1,2")
    assert code == 0
    assert "s_case1 = 0.5" in out
    assert "s_case2 = 0.5" in out
    assert "flags.case1_applies = true" in out
    assert "s_linear" not in out  # None fields are omitted from the table


def test_exponent_json(capsys):
    code, out, _ = run(
        capsys, "exponent", "--m", "2", "--p", "inf,2", "--r", "4/3,1",
        "--format", "json",
    )
    assert code == 0
    d = json.loads(out)
    assert d["harmonic_sum"] == 0.5
    assert d["rho_hl"] == 2.0
    assert d["flags"]["case2_applies"] is True


def test_exponent_arity_mismatch(capsys):
    code, _, err = run(capsys, "exponent", "--m", "3", "--p", "4,4", "--r", "1,2")
    assert code == 2
    assert "usage error" in err


def test_bad_exponent_token_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["exponent", "--m", "2", "--p", "4,banana", "--r", "1,1"])
    assert exc.value.code == 2


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_mixed_norm_file(tmp_path, capsys):
    path = tmp_path / "tensor.json"
    path.write_text(json.dumps({"shape": [2, 2], "data": [1.0, 1.0, 1.0, 1.0]}))
    code, out, _ = run(capsys, "mixed-norm", "--input", str(path), "--r", "1,2")
    assert code == 0
    assert float(out.strip()) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-15)


def test_mixed_norm_missing_file(capsys):
    code, _, err = run(capsys, "mixed-norm", "--input", "no-such.json", "--r", "1")
    assert code == 1
    assert "error" in err


def test_generate_and_norm_methods(tmp_path, capsys):
    form_path = tmp_path / "form.json"
    code, out, _ = run(
        capsys, "generate", "--family", "ksz", "--m", "2", "--n", "6",
        "--p", "inf,inf", "--seed", "7", "--out", str(form_path),
    )
    assert code == 0
    assert "kind=ksz" in out

    code, out, _ = run(
        capsys, "norm", "--input", str(form_path), "--method", "brute",
    )
    assert code == 0
    est = json.loads(out)
    assert est["kind"] == "exact"
    assert est["value"] == 20.0

    code, out, _ = run(
        capsys, "norm", "--input", str(form_path), "--method", "ascent",
        "--restarts", "8", "--seed", "0", "--threads", "2",
    )
    assert code == 0
    est = json.loads(out)
    assert est["kind"] == "lower_bound"
    assert est["value"] <= 20.0 * (1.0 + 1e-9)
    assert est["restarts_used"] == 10

    code, _, err = run(
        capsys, "norm", "--input", str(form_path), "--method", "analytic",
    )
    assert code == 1
    assert "analytic" in err


def test_generate_row_and_product_extension(tmp_path, capsys):
    row_path = tmp_path / "row.json"
    code, _, _ = run(
        capsys, "generate", "--family", "row", "--m", "2", "--n", "2",
        "--n2", "5", "--p", "inf,2", "--out", str(row_path),
    )
    assert code == 0
    assert json.loads(row_path.read_text())["shape"] == [2, 5]

    pe_path = tmp_path / "pe.json"
    code, _, _ = run(
        capsys, "generate", "--family", "product_extension", "--m", "3",
        "--k", "2", "--n", "2", "--p", "inf,inf,2", "--out", str(pe_path),
    )
    assert code == 0
    obj = json.loads(pe_path.read_text())
    assert obj["shape"] == [2, 2, 2]
    assert obj["kind"] == "product_extension"

    code, _, err = run(
        capsys, "generate", "--family", "product_extension", "--m", "3",
        "--n", "2", "--p", "inf,inf,2", "--out", str(tmp_path / "x.json"),
    )
    assert code == 2
    assert "--k" in err

    code, _, _ = run(
        capsys, "generate", "--family", "row", "--m", "3", "--n", "2",
        "--p", "inf,2,2", "--out", str(tmp_path / "y.json"),
    )
    assert code == 2


def test_generate_complex(tmp_path, capsys):
    path = tmp_path / "cform.json"
    code, _, _ = run(
        capsys, "generate", "--family", "ksz", "--m", "2", "--n", "3",
        "--p", "2,2", "--complex", "--out", str(path),
    )
    assert code == 0
    assert json.loads(path.read_text())["dtype"] == "complex"


def test_experiment_inline(tmp_path, capsys):
    out_csv = tmp_path / "exp.csv"
    code, out, _ = run(
        capsys, "experiment", "--family", "diagonal", "--m", "2",
        "--p", "inf,inf", "--r", "1,1", "--n-values", "2,4,8",
        "--norm-method", "analytic", "--mode", "upper_bound",
        "--out", str(out_csv),
    )
    assert code == 0
    assert "verdict: consistent" in out
    text = out_csv.read_text()
    assert text.startswith("n,lhs,norm,norm_kind,ratio,draws_used\n")
    assert len(text.strip().split("\n")) == 4
    report = json.loads((tmp_path / "exp.json").read_text())
    assert report["fit"]["verdict"] == "consistent"
    assert report["fit"]["mode"] == "upper_bound"


def test_experiment_config_file_matches_inline(tmp_path, capsys):
    cfg = {
        "family": "diagonal",
        "m": 2,
        "p": ["inf", "inf"],
        "r": [1, 1],
        "n_values": [2, 4, 8],
        "norm_method": "analytic",
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    a_csv = tmp_path / "a.csv"
    b_csv = tmp_path / "b.csv"
    code, _, _ = run(
        capsys, "experiment", "--config", str(cfg_path), "--mode", "upper_bound",
        "--out", str(a_csv),
    )
    assert code == 0
    code, _, _ = run(
        capsys, "experiment", "--family", "diagonal", "--m", "2",
        "--p", "inf,inf", "--r", "1,1", "--n-values", "2,4,8",
        "--norm-method", "analytic", "--mode", "upper_bound",
        "--out", str(b_csv),
    )
    assert code == 0
    assert a_csv.read_text() == b_csv.read_text()


def test_experiment_missing_flags(tmp_path, capsys):
    code, _, err = run(
        capsys, "experiment", "--family", "diagonal", "--out",
        str(tmp_path / "z.csv"),
    )
    assert code == 2
    assert "--m" in err and "--p" in err and "--r" in err


def test_experiment_missing_config_file(tmp_path, capsys):
    code, _, err = run(
        capsys, "experiment", "--config", "no-such-config.json",
        "--out", str(tmp_path / "z.csv"),
    )
    assert code == 1
    assert "error" in err


def test_experiment_zero_form_is_an_error(tmp_path, capsys):
    form, _ = ksz_random_form(2, 2, (INF, INF), seed=3)
    zero = MultilinearForm(np.zeros((3, 3)), (INF, INF))
    path = tmp_path / "forms.json"
    path.write_text(json.dumps([form_to_obj(form), form_to_obj(zero)]))
    code, _, err = run(
        capsys, "experiment", "--family", "custom-file", "--m", "2",
        "--p", "inf,inf", "--r", "1,1", "--form-file", str(path),
        "--norm-method", "brute", "--out", str(tmp_path / "z.csv"),
    )
    assert code == 1
    assert err.startswith("error:") and "n=3" in err


def test_experiment_bound_relative_prefix(tmp_path, capsys):
    code, out, _ = run(
        capsys, "experiment", "--family", "diagonal", "--m", "2",
        "--p", "4,4", "--r", "1,1", "--n-values", "2,4,8",
        "--norm-method", "paper_bound", "--mode", "upper_bound",
        "--out", str(tmp_path / "pb.csv"),
    )
    assert code == 0
    assert out.startswith("bound-relative verdict:")


def test_experiment_deterministic_across_threads(tmp_path, capsys):
    argv = [
        "experiment", "--family", "ksz", "--m", "2", "--p", "inf,inf",
        "--r", "1,1", "--n-values", "2,3,4", "--norm-method", "ascent",
        "--restarts", "4", "--draws", "2", "--seed", "5",
    ]
    a_csv, b_csv = tmp_path / "t1.csv", tmp_path / "t3.csv"
    code, _, _ = run(capsys, *argv, "--threads", "1", "--out", str(a_csv))
    assert code == 0
    code, _, _ = run(capsys, *argv, "--threads", "3", "--out", str(b_csv))
    assert code == 0
    assert a_csv.read_bytes() == b_csv.read_bytes()
    a_rep = json.loads((tmp_path / "t1.json").read_text())
    b_rep = json.loads((tmp_path / "t3.json").read_text())
    assert a_rep == b_rep


def test_verify_holder_random(capsys):
    code, out, _ = run(
        capsys, "verify-holder", "--m", "3", "--n", "4", "--N", "3",
        "--trials", "25", "--seed", "1",
    )
    assert code == 0
    assert out.startswith("25/25 pass")


def test_verify_holder_fixed_splitting(capsys):
    code, out, _ = run(
        capsys, "verify-holder", "--r", "1,1", "--q", "2,2;2,2",
        "--trials", "5", "--seed", "2", "--n", "3",
    )
    assert code == 0
    assert out.startswith("5/5 pass")


def test_verify_holder_fixed_splitting_invalid(capsys):
    # q does not sum to 1/r on axis 0
    code, _, err = run(
        capsys, "verify-holder", "--r", "1,1", "--q", "2,3;2,2", "--trials", "2",
    )
    assert code == 2
    assert "splitting identity" in err
    # --r without --q
    code, _, err = run(capsys, "verify-holder", "--r", "1,1", "--trials", "2")
    assert code == 2
    # wrong group arity
    code, _, err = run(
        capsys, "verify-holder", "--r", "1,1", "--q", "2;2", "--trials", "2",
    )
    assert code == 2


def test_verify_holder_zero_trials(capsys):
    code, out, _ = run(capsys, "verify-holder", "--trials", "0")
    assert code == 0
    assert out.startswith("0/0 pass")
    assert "n/a" in out


def test_color_gating(monkeypatch):
    from mixedsums import cli

    monkeypatch.setattr(cli.sys.stdout, "isatty", lambda: True, raising=False)
    monkeypatch.delenv("NO_COLOR", raising=False)
    assert "\x1b[32m" in cli._color("ok", "32")
    monkeypatch.setenv("NO_COLOR", "1")
    assert cli._color("ok", "32") == "ok"

@pytest.mark.parametrize(
    "obj",
    [
        {"shape": [2], "data": [1.0, None], "p": [2.0]},
        {"shape": [2], "dtype": "complex", "data": [1.0, 2.0], "p": [2.0]},
        {"shape": [2], "data": [1.0, 2.0], "p": [None]},
        {"shape": [2], "data": "12", "p": [2.0]},
    ],
    ids=["null-entry", "complex-not-pairs", "null-exponent", "string-data"],
)
def test_malformed_input_files_are_errors(tmp_path, capsys, obj):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    commands = [("norm", "--input", str(path), "--method", "ascent")]
    if obj["p"] != [None]:
        # mixed-norm reads only the tensor fields
        commands.append(("mixed-norm", "--input", str(path), "--r", "1"))
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")


def test_verify_holder_splitting_message_matches_library(capsys):
    from mixedsums import holder_verify

    a = np.ones((3, 3))
    with pytest.raises(ValueError) as exc:
        holder_verify([a, a], (1.0, 1.0), [(2.0, 2.0), (3.0, 2.0)])
    assert "splitting identity" in str(exc.value)
    code, _, err = run(
        capsys, "verify-holder", "--r", "1,1", "--q", "2,3;2,2", "--trials", "1",
    )
    assert code == 2
    assert err == f"usage error: {exc.value}\n"
