"""End-to-end tests of the command-line interface."""

import errno
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import mixedsums
from mixedsums.cli import main, parse_exponent, parse_vector
from mixedsums import INF, MultilinearForm, form_to_obj, ksz_random_form


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_importing_the_cli_loads_no_numpy_random():
    # numpy loads numpy.random lazily; a command that draws nothing should
    # not pay for its import
    src = os.path.dirname(os.path.dirname(os.path.abspath(mixedsums.__file__)))
    code = "import sys, mixedsums.cli; print('numpy.random' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


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


def _overflow_run(capsys, *argv):
    # numpy warnings are errors here, so one that escapes the CLI fails the
    # test: the error line must be all that stderr holds
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


@pytest.mark.parametrize("method, message", [("brute", "not finite"), ("ascent", "overflowed")])
def test_norm_overflow_is_an_error_not_a_traceback(tmp_path, capsys, method, message):
    # the norm of these forms overflows float64: neither a NaN printed as
    # "exact" nor a traceback
    cases = [("inf", 2), ("inf", 3)] + ([("4", 3)] if method == "ascent" else [])
    for p, n in cases:
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"shape": [n, n], "data": [1e308] * n**2, "p": [p, p]}))
        err = _overflow_run(capsys, "norm", "--input", str(path), "--method", method)
        assert message in err


def test_mixed_norm_overflow_is_an_error(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"shape": [3, 3], "data": [1e308] * 9}))
    for r in ("1,1", "2,3"):
        err = _overflow_run(capsys, "mixed-norm", "--input", str(path), "--r", r)
        assert "not finite" in err


@pytest.mark.parametrize("method, message", [("brute", "not finite"), ("ascent", "overflowed")])
def test_experiment_overflow_is_an_error(tmp_path, capsys, method, message):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"shape": [3, 3], "data": [1e308] * 9, "p": ["inf", "inf"]}))
    err = _overflow_run(
        capsys, "experiment", "--family", "custom-file", "--m", "2", "--p", "inf,inf",
        "--r", "1,1", "--norm-method", method, "--form-file", str(path),
        "--out", str(tmp_path / "e.csv"),
    )
    assert message in err


@pytest.mark.parametrize("fault", [ZeroDivisionError, ArithmeticError])
def test_other_arithmetic_errors_are_not_domain_errors(tmp_path, monkeypatch, fault):
    # a fault of the code keeps its traceback; only NumericalError means
    # that float64 has no value for this input
    import mixedsums.cli as cli

    def broken(a, r):
        raise fault("a fault of the code")

    monkeypatch.setattr(cli, "mixed_norm", broken)
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"shape": [2], "data": [1.0, 2.0]}))
    with pytest.raises(fault):
        main(["mixed-norm", "--input", str(path), "--r", "1"])


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


@pytest.mark.parametrize(
    "flags, message",
    [
        ("--family product_extension --m 3 --k 2 --p inf,inf,inf --complex",
         "--complex applies to the ksz family only"),
        ("--family diagonal --m 2 --p 2,2 --complex", "--complex applies"),
        ("--family ksz --m 2 --p 2,2 --n2 5", "--n2 applies to the row family only"),
        ("--family diagonal --m 2 --p 2,2 --n2 5", "--n2 applies"),
        ("--family ksz --m 2 --p inf,inf --k 5",
         "--k applies to the product_extension family only"),
        ("--family diagonal --m 2 --p 2,2 --k 1", "--k applies"),
    ],
)
def test_generate_rejects_flags_it_would_ignore(tmp_path, capsys, flags, message):
    path = tmp_path / "form.json"
    code, _, err = run(capsys, "generate", *flags.split(), "--n", "3", "--out", str(path))
    assert code == 2
    assert message in err
    assert not path.exists()


def test_generate_rejects_p_of_the_wrong_arity(tmp_path, capsys):
    path = tmp_path / "form.json"
    code, _, err = run(
        capsys, "generate", "--family", "ksz", "--m", "3", "--n", "3", "--p", "inf,inf",
        "--out", str(path),
    )
    assert code == 2
    assert "--p must have 3 entries" in err
    assert not path.exists()


def test_experiment_rejects_k_outside_product_extension(tmp_path, capsys):
    out_csv = tmp_path / "k.csv"
    code, out, err = run(
        capsys, "experiment", "--family", "ksz", "--m", "2", "--p", "inf,inf",
        "--r", "1,1", "--n-values", "2,3,4", "--norm-method", "brute", "--k", "7",
        "--out", str(out_csv),
    )
    assert code == 1
    assert out == ""
    assert err == "error: k applies to the product_extension family only\n"
    assert not out_csv.exists() and not (tmp_path / "k.json").exists()


def test_experiment_rejects_form_file_outside_custom_file(tmp_path, capsys):
    out_csv = tmp_path / "f.csv"
    code, out, err = run(
        capsys, "experiment", "--family", "diagonal", "--m", "2", "--p", "4,4",
        "--r", "1,1", "--n-values", "2,4,8", "--norm-method", "analytic",
        "--form-file", str(tmp_path / "absent.json"), "--out", str(out_csv),
    )
    assert code == 1
    assert out == ""
    assert err == "error: form_file applies to the custom-file family only\n"
    assert not out_csv.exists() and not (tmp_path / "f.json").exists()


def test_generate_refuses_a_row_form_with_no_columns(tmp_path, capsys):
    # --n2 0 asks for no columns; it does not fall back to --n
    path = tmp_path / "form.json"
    code, out, err = run(
        capsys, "generate", "--family", "row", "--m", "2", "--n", "3", "--n2", "0",
        "--p", "inf,2", "--out", str(path),
    )
    assert code == 1
    assert out == ""
    assert err == "error: n1 and n2 must be >= 1\n"
    assert not path.exists()


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


@pytest.mark.parametrize("p", ["2,2", "3,3"])
def test_experiment_diagonal_at_r_2_matches_case1(tmp_path, capsys, p):
    # the diagonal's norm is closed form, and with no r_j < 2 its slope is
    # case 1's max(|1/p| - 1/2, 0): 1/2 at p = (2, 2), 1/6 at p = (3, 3)
    code, out, _ = run(
        capsys, "experiment", "--family", "diagonal", "--m", "2",
        "--p", p, "--r", "2,2", "--n-values", "2,4,8,16,32,64",
        "--norm-method", "analytic", "--mode", "upper_bound",
        "--out", str(tmp_path / "exp.csv"),
    )
    assert code == 0
    assert "verdict: consistent" in out
    fit = json.loads((tmp_path / "exp.json").read_text())["fit"]
    assert fit["predicted_exponent"] == pytest.approx(fit["slope"], abs=1e-12)


def test_experiment_outside_every_regime_predicts_nothing(tmp_path, capsys):
    # at m = 2 and p = (1, 1) no case applies, so the fit has no exponent
    code, out, _ = run(
        capsys, "experiment", "--family", "diagonal", "--m", "2",
        "--p", "1,1", "--r", "1,1", "--n-values", "2,4,8",
        "--norm-method", "analytic", "--out", str(tmp_path / "exp.csv"),
    )
    assert code == 0
    assert "verdict: inconclusive" in out
    assert "predicted=-," in out


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--tolerance", "nan"), "tolerance must be finite and >= 0, got nan"),
        (("--tolerance", "inf"), "tolerance must be finite and >= 0, got inf"),
        (("--tolerance", "-1"), "tolerance must be finite and >= 0, got -1.0"),
        (("--tol", "nan"), "tol must be positive and finite, got nan"),
        (("--tol", "inf"), "tol must be positive and finite, got inf"),
    ],
)
def test_experiment_rejects_a_tolerance_json_cannot_hold(
    tmp_path, capsys, monkeypatch, flags, message
):
    # NaN and inf have no JSON form, and inf or a negative tolerance
    # decides every verdict whatever the fit; either is refused before any
    # row runs
    from mixedsums import cli

    calls = []
    monkeypatch.setattr(cli, "run_growth", lambda config: calls.append(config))
    out_csv = tmp_path / "exp.csv"
    code, _, err = run(
        capsys, "experiment", "--family", "ksz", "--m", "2", "--p", "4,4", "--r", "1,2",
        "--n-values", "2,3,4", "--restarts", "2", *flags, "--out", str(out_csv),
    )
    assert code == 1
    assert err == f"error: {message}\n"
    assert calls == []
    assert not (tmp_path / "exp.json").exists()


def test_experiment_bad_n_values_token_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--family", "diagonal", "--m", "2", "--p", "4,4", "--r", "1,1",
              "--n-values", "2,x", "--out", str(tmp_path / "exp.csv")])
    assert exc.value.code == 2
    assert "bad integer list '2,x'" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_norm_ascent_rejects_a_tol_that_is_not_finite(tmp_path, capsys, tol):
    form, _ = ksz_random_form(2, 6, (INF, INF), seed=3)
    path = tmp_path / "form.json"
    path.write_text(json.dumps(form_to_obj(form)))
    code, out, err = run(
        capsys, "norm", "--input", str(path), "--method", "ascent", "--tol", tol,
    )
    assert (code, out) == (1, "")
    assert err == f"error: tol must be positive and finite, got {tol}\n"


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


@pytest.mark.parametrize("payload", ["5", "true", "null", "1.5", '"abc"'])
def test_experiment_form_file_of_a_scalar_is_an_error(tmp_path, capsys, payload):
    path = tmp_path / "scalar.json"
    path.write_text(payload)
    code, out, err = run(
        capsys, "experiment", "--family", "custom-file", "--m", "2",
        "--p", "inf,inf", "--r", "1,1", "--form-file", str(path),
        "--norm-method", "brute", "--out", str(tmp_path / "s.csv"),
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "a form object or a list of them" in err


def test_experiment_empty_form_file_is_an_error(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text("[]")
    csv = tmp_path / "e.csv"
    code, out, err = run(
        capsys, "experiment", "--family", "custom-file", "--m", "2",
        "--p", "inf,inf", "--r", "1,1", "--form-file", str(path),
        "--norm-method", "brute", "--out", str(csv),
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "holds no forms" in err
    assert not csv.exists()


def _write_form_file(path):
    form, _ = ksz_random_form(2, 3, (INF, INF), seed=3)
    path.write_text(json.dumps([form_to_obj(form)]))
    return path.read_bytes()


@pytest.mark.parametrize("out_name", ["e.csv", "e.json"])
def test_experiment_refuses_to_overwrite_its_form_file(tmp_path, capsys, out_name):
    # --out e.csv writes its report to e.json; --out e.json is the CSV itself
    path = tmp_path / "e.json"
    before = _write_form_file(path)
    code, out, err = run(
        capsys, "experiment", "--family", "custom-file", "--m", "2",
        "--p", "inf,inf", "--r", "1,1", "--form-file", str(path),
        "--norm-method", "brute", "--out", str(tmp_path / out_name),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: ") and "would overwrite" in err
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["e.json"]


def test_experiment_refuses_to_overwrite_its_config(tmp_path, capsys, monkeypatch):
    # relative and absolute spellings of one file are the same input
    monkeypatch.chdir(tmp_path)
    forms = tmp_path / "forms.json"
    _write_form_file(forms)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "family": "custom-file", "m": 2, "p": ["inf", "inf"], "r": [1, 1],
        "norm_method": "brute", "form_file": str(forms),
    }))
    before = config.read_bytes()
    code, _, err = run(
        capsys, "experiment", "--config", "c.json",
        "--out", str(tmp_path / "out.csv"), "--report", str(config),
    )
    assert code == 2
    assert "would overwrite the input c.json" in err
    assert config.read_bytes() == before
    assert not (tmp_path / "out.csv").exists()


_EXPERIMENT = (
    "experiment", "--family", "diagonal", "--m", "2", "--p", "inf,inf", "--r", "1,1",
    "--n-values", "2,4,8", "--norm-method", "analytic", "--mode", "upper_bound",
)
_GENERATE = ("generate", "--family", "ksz", "--m", "2", "--n", "16", "--p", "4,4", "--seed", "3")


def _fresh(capsys, tmp_path, argv, names):
    """Bytes of the named files that argv writes into a new directory."""
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    code, _, err = run(capsys, *argv, "--out", str(fresh / names[0]))
    assert code == 0, err
    return [(fresh / name).read_bytes() for name in names]


@pytest.mark.parametrize("junk_size", [3, 65536])
@pytest.mark.parametrize("argv, names", [
    (_EXPERIMENT, ("e.csv", "e.json")),
    (_GENERATE, ("f.json",)),
])
def test_rerun_over_old_outputs_writes_the_fresh_bytes(tmp_path, capsys, argv, names, junk_size):
    # outputs are rewritten in place: no stale tail past a shorter text
    want = _fresh(capsys, tmp_path, argv, names)
    paths = [tmp_path / name for name in names]
    for path in paths:
        path.write_bytes(b"junk\n" * (junk_size // 5) + b"x" * (junk_size % 5))
    inodes = [path.stat().st_ino for path in paths]
    code, _, err = run(capsys, *argv, "--out", str(paths[0]))
    assert code == 0, err
    assert [path.read_bytes() for path in paths] == want
    assert [path.stat().st_ino for path in paths] == inodes


def test_new_outputs_get_the_mode_open_gives(tmp_path, capsys):
    with open(tmp_path / "reference", "w"):
        pass
    want = (tmp_path / "reference").stat().st_mode
    code, _, _ = run(capsys, *_EXPERIMENT, "--out", str(tmp_path / "e.csv"))
    assert code == 0
    assert [(tmp_path / name).stat().st_mode for name in ("e.csv", "e.json")] == [want] * 2


def test_a_symlinked_out_writes_through_the_link(tmp_path, capsys):
    want = _fresh(capsys, tmp_path, _GENERATE, ("f.json",))
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("junk\n" * 1000)
    link.symlink_to(target)
    code, _, _ = run(capsys, *_GENERATE, "--out", str(link))
    assert code == 0
    assert link.is_symlink()
    assert [target.read_bytes()] == want


def test_csv_and_report_on_one_path_end_with_the_report(tmp_path, capsys):
    # --out r.json puts the report where the CSV was just written
    _, want = _fresh(capsys, tmp_path, _EXPERIMENT, ("e.csv", "e.json"))
    path = tmp_path / "r.json"
    path.write_text("junk\n" * 1000)
    code, _, _ = run(capsys, *_EXPERIMENT, "--out", str(path))
    assert code == 0
    assert path.read_bytes() == want


def test_report_to_a_device_is_written_without_the_cut(tmp_path, capsys):
    code, out, err = run(capsys, *_EXPERIMENT, "--out", str(tmp_path / "e.csv"),
                         "--report", os.devnull)
    assert (code, err) == (0, "")
    assert "verdict: consistent" in out
    assert (tmp_path / "e.csv").read_text().startswith("n,lhs,")


@pytest.mark.parametrize("argv", [_EXPERIMENT, _GENERATE], ids=["experiment", "generate"])
@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_an_unwritable_out_gives_the_error_open_gives(tmp_path, capsys, argv, where):
    path = tmp_path if where == "directory" else tmp_path / "no-such-dir" / "o.csv"
    with pytest.raises(OSError) as opened:
        open(path, "w")
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == 1
    assert out == ""
    assert err == f"error: {opened.value}\n"
    assert opened.value.errno in (errno.EISDIR, errno.ENOENT)


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


def test_verify_holder_worst_slack_skips_equalities(capsys):
    # the trials with one factor or one entry have slack 0 by construction
    code, out, _ = run(
        capsys, "verify-holder", "--m", "3", "--N", "4", "--trials", "40", "--seed", "9",
    )
    assert code == 0
    worst, _, _, counted = out.split("worst slack ")[1].split()[:4]
    assert float(worst) > 0.0  # the minimum over all trials is 0.0 here
    assert 0 < int(counted) < 40
    code, out, _ = run(
        capsys, "verify-holder", "--r", "1,1", "--q", "2,2;2,2", "--n", "3", "--trials", "3",
    )
    assert float(out.split("worst slack ")[1].split()[0]) > 0.0
    for flags in ("--N 1", "--n 1", "--r 2,2 --q 2,2"):
        code, out, _ = run(capsys, "verify-holder", *flags.split(), "--trials", "5")
        assert code == 0
        assert "worst slack n/a over the 0 trials" in out


@pytest.mark.parametrize("q", ["abc,2;2,2", "0,2;2,2"])
def test_verify_holder_bad_q_token_is_a_usage_error(capsys, q):
    with pytest.raises(SystemExit) as exc:
        main(["verify-holder", "--r", "1,1", "--q", q, "--trials", "2"])
    assert exc.value.code == 2
    assert "argument --q:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        ("--m 0", "--m must be >= 1, got 0"),
        ("--N 0", "--N must be >= 1, got 0"),
        ("--n 0", "--n must be >= 1, got 0"),
        ("--n 0 --r 1,1 --q 2,2;2,2", "--n must be >= 1, got 0"),
        ("--trials -3", "--trials must be >= 0, got -3"),
    ],
)
def test_verify_holder_rejects_sizes_below_their_least(capsys, flags, message):
    code, out, err = run(capsys, "verify-holder", *flags.split())
    assert code == 2
    assert out == ""
    assert err == f"usage error: {message}\n"


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


@pytest.mark.parametrize(
    "key, value",
    [
        ("shape", "22"), ("shape", [2.9]), ("shape", [True, 2]),
        ("p", "44"), ("seed", 2.9), ("seed", "7"),
    ],
)
def test_misread_form_fields_are_errors(tmp_path, capsys, key, value):
    # a lenient reader takes each for another value: "22" for (2, 2), [2.9]
    # for (2,), [true, 2] for (1, 2), "44" for (4.0, 4.0), 2.9 for 2, "7" for 7
    from mixedsums import form_from_obj, tensor_from_obj

    obj = {"shape": [2, 2], "data": [1.0, 2.0, 3.0, 4.0], "p": [4, 4], "seed": 3, key: value}
    owner = "tensor" if key == "shape" else "form"
    with pytest.raises(ValueError, match=f"^{owner} field '{key}'"):
        form_from_obj(obj)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    commands = [("norm", "--input", str(path), "--method", "ascent")]
    if key == "shape":
        with pytest.raises(ValueError, match="^tensor field 'shape'"):
            tensor_from_obj(obj)
        commands.append(("mixed-norm", "--input", str(path), "--r", "1,1"))
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {owner} field '{key}'")


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


def test_verify_holder_many_factors(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "verify-holder", "--N", "60", "--trials", "30")
    assert (code, err) == (0, "")
    assert out.startswith("30/30 pass")


@pytest.mark.parametrize(
    "field, value",
    [("p", "44"), ("n_values", "2345"), ("m", 2.9), ("restarts", 3.7)],
)
def test_experiment_config_misread_fields_are_errors(tmp_path, capsys, field, value):
    obj = {"family": "diagonal", "m": 2, "p": [4, 4], "r": [1, 1],
           "n_values": [2, 4, 8], "norm_method": "ascent", "restarts": 2}
    obj[field] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(
        capsys, "experiment", "--config", str(path), "--out", str(tmp_path / "o.csv")
    )
    assert (code, out) == (1, "")
    assert err.startswith(f"error: config field '{field}'")


def test_experiment_inline_defaults_are_the_config_defaults(tmp_path, capsys):
    from mixedsums import ExperimentConfig, config_to_obj

    csv = tmp_path / "d.csv"
    code, _, _ = run(
        capsys, "experiment", "--family", "row", "--m", "2", "--p", "inf,2",
        "--r", "1,1", "--n-values", "2,4,8", "--out", str(csv),
    )
    assert code == 0
    want = ExperimentConfig(
        family="row", m=2, p=(INF, 2.0), r=(1.0, 1.0), n_values=(2, 4, 8)
    )
    assert json.loads(csv.with_suffix(".json").read_text())["config"] == config_to_obj(want)


@pytest.mark.parametrize("kind", ["row", "diagonal"])
def test_analytic_norm_of_a_mislabelled_form_exits_1(tmp_path, capsys, kind):
    # the coefficients are neither family's: brute gives 18, the row rule 2
    path = tmp_path / "form.json"
    path.write_text(json.dumps(
        {"shape": [2, 2], "data": [5, -7, 3, 9], "p": ["inf", "inf"], "kind": kind}
    ))
    code, out, err = run(capsys, "norm", "--input", str(path), "--method", "analytic")
    assert (code, out) == (1, "")
    assert err == (
        f"error: no analytic norm for form kind {kind!r}, whose coefficients are not "
        "that family's\n"
    )
    code, out, _ = run(capsys, "norm", "--input", str(path), "--method", "brute")
    assert code == 0 and json.loads(out)["value"] == 18.0
