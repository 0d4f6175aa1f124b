import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nullstate import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_exponents_table(capsys):
    code, out = run(capsys, "exponents", "--kappa", "6", "--smax", "3")
    assert code == 0
    row = [line for line in out.splitlines() if line.strip().startswith("6.0000   1")][0]
    fields = row.split()
    assert float(fields[2]) == 0.0  # theta_1
    assert float(fields[3]) == pytest.approx(1.0 / 3.0, abs=1e-8)  # delta_plus


def test_exponents_bad_kappa(capsys):
    assert cli.main(["exponents", "--kappa", "9"]) == 2


def test_exponents_json_roundtrip(capsys):
    code, out = run(capsys, "exponents", "--kappa", "4", "--smax", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    row = payload["rows"][0]
    assert row["delta_plus"] == pytest.approx(0.5, abs=1e-15)
    # reports round-trip bit-exactly through json
    assert json.loads(json.dumps(payload)) == payload


def test_exponents_csv(capsys):
    code, out = run(capsys, "exponents", "--kappa", "4", "--smax", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 2
    assert float(rows[0]["theta_s"]) == pytest.approx(0.25)


@pytest.mark.parametrize("fmt", ("text", "json", "csv"))
def test_exponents_output_writes_json_for_every_format(fmt, tmp_path, capsys):
    out_file = tmp_path / "exponents.json"
    code, _ = run(capsys, "exponents", "--kappa", "4", "--smax", "2",
                  "--format", fmt, "--output", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["command"] == "exponents"
    assert payload["passed"] is True
    assert [row["s"] for row in payload["rows"]] == [1, 2]
    assert payload["rows"][0]["theta_s"] == pytest.approx(0.25)


def test_verify_suite_passes(capsys):
    code, out = run(capsys, "verify", "pde", "--kappa", "3.3333", "--candidate", "n1")
    assert code == 0
    assert "FAIL" not in out


def test_verify_kernel_with_explicit_params(capsys):
    code, out = run(capsys, "verify", "kernel", "--kappa", "6",
                    "--alpha", "0.333", "--beta", "0.333", "--t-min", "1e-3")
    assert code == 0
    assert "mass_conservation" in out


def test_verify_corruption_fails_named_check(capsys):
    code, out = run(capsys, "verify", "green", "--kappa", "6", "--corrupt", "lambda0=1e-6")
    assert code == 1
    assert any("FAIL" in line and "greenfunc_vs_greenfuncalt" in line
               for line in out.splitlines())


def test_verify_unknown_corruption_is_usage_error(capsys):
    assert cli.main(["verify", "green", "--kappa", "6", "--corrupt", "nope=1"]) == 2


@pytest.mark.parametrize(
    "suite, key",
    (("pde", "foo"), ("kernel", "lambda0"), ("green", "alpha"), ("exponents", "beta"),
     ("all", "foo")),
)
def test_verify_corruption_the_suite_does_not_read_is_usage_error(suite, key, capsys):
    # every suite but kernel, green and all reads no key, so any key would be a no-op
    assert cli.main(["verify", suite, "--kappa", "6", "--corrupt", f"{key}=1e-6"]) == 2
    err = capsys.readouterr().err
    assert f"error: suite {suite!r} reads no corruption keys [{key!r}]" in err


@pytest.mark.parametrize("fmt", ("json", "text"))
def test_verify_json_report(fmt, tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, out = run(capsys, "verify", "exponents", "--kappa", "6",
                    "--format", fmt, "--output", str(out_file))
    assert code == 0
    # --output holds the json the json format prints, whatever the format
    written = out_file.read_text()
    assert written.endswith("}\n")
    if fmt == "json":
        assert written == out
    payload = json.loads(written)
    assert payload["passed"] is True
    assert payload["schema"] == 2
    assert json.loads(json.dumps(payload)) == payload


def test_verify_deterministic(capsys):
    def strip_timing(text):
        return [line for line in text.splitlines() if "checks," not in line]

    _, first = run(capsys, "verify", "pde", "--kappa", "4", "--seed", "7")
    _, second = run(capsys, "verify", "pde", "--kappa", "4", "--seed", "7")
    assert strip_timing(first) == strip_timing(second)


def test_scan_kernel_bounds(tmp_path, capsys):
    out_file = tmp_path / "kb.csv"
    code, out = run(capsys, "scan", "kernel-bounds", "--kappa", "6", "--h", "theta2",
                    "--T", "1", "--output", str(out_file))
    assert code == 0
    rows = list(csv.reader(out_file.read_text().splitlines()))
    assert rows[0] == ["theta", "phi", "t", "K", "envelope", "ratio"]
    assert len(rows) > 100


def test_scan_adjacent_normalized(tmp_path, capsys):
    out_file = tmp_path / "ap.csv"
    code, out = run(capsys, "scan", "adjacent-pair", "--kappa", "6",
                    "--candidate", "manufactured:normalized", "--output", str(out_file))
    assert code == 0
    rows = list(csv.DictReader(out_file.read_text().splitlines()))
    assert all(abs(float(r["ratio"]) - 1.0) <= 1e-10 for r in rows)


def test_scan_far_pair_violating_flagged(tmp_path, capsys):
    out_file = tmp_path / "fp.csv"
    code, out = run(capsys, "scan", "far-pair", "--kappa", "6",
                    "--candidate", "manufactured:violating", "--output", str(out_file))
    assert code == 1
    assert "FAIL" in out


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scan, candidate, rows, reason", (
    # every ratio NaN: the sup of no number is NaN, and no slope is measured
    ("far-pair", "power:1,2=nan", 25, "(sup ratio nan, eps slope nan, delta slope nan)"),
    # every ratio infinite
    ("adjacent-pair", "power:3,4=-1e6", 63, "(sup ratio inf, eps slope nan, delta slope 0.0)"),
))
def test_pair_scan_non_finite_ratios_are_not_bounded(scan, candidate, rows, reason, tmp_path,
                                                     capsys):
    out_file = tmp_path / "pair.csv"
    code, out = run(capsys, "scan", scan, "--kappa", "6", "--candidate", candidate,
                    "--output", str(out_file))
    assert code == 1
    [line] = [line for line in out.splitlines() if "normalized_ratio_bounded" in line]
    assert line.startswith("FAIL") and line.endswith(reason)
    assert len(out_file.read_text().splitlines()) == 1 + rows


def test_overflowing_candidate_fails_by_name_without_a_warning(tmp_path):
    # every sample of the product overflows to inf: the named FAIL is the only
    # report, with no numpy RuntimeWarning on stderr before it
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "nullstate.cli", "scan", "adjacent-pair",
         "--kappa", "6", "--candidate", "power:3,4=-1e6", "--output", str(tmp_path / "adj.csv")],
        capture_output=True, text=True, timeout=600, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 1
    assert "RuntimeWarning" not in proc.stderr
    [line] = [line for line in proc.stdout.splitlines() if "normalized_ratio_bounded" in line]
    assert line.startswith("FAIL")
    assert line.endswith("(sup ratio inf, eps slope nan, delta slope 0.0)")


@pytest.mark.parametrize("scan, field", (("far-pair", "bounded"), ("adjacent-pair", "weak-eps")))
def test_pair_scan_refuses_other_manufactured_names(scan, field, tmp_path, capsys):
    out_file = tmp_path / "pair.csv"
    assert cli.main(["scan", scan, "--kappa", "6", "--candidate", f"manufactured:{field}",
                     "--output", str(out_file)]) == 2
    err = capsys.readouterr().err
    assert f"unknown manufactured field 'manufactured:{field}'" in err
    assert "('manufactured:normalized', 'manufactured:violating')" in err
    assert not out_file.exists()


def test_scan_output_io_failure(capsys):
    code = cli.main(["scan", "green-adjoint", "--kappa", "6",
                     "--output", "/nonexistent-dir/x.csv"])
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    (
        ("verify", "pde", "--kappa", "6", "--configs", "0"),
        ("scan", "kernel-bounds", "--kappa", "6", "--n-angle", "0"),
        ("scan", "kernel-bounds", "--kappa", "6", "--n-time", "-1"),
        ("scan", "green-adjoint", "--kappa", "6", "--n-sigma", "0"),
        ("scan", "green-adjoint", "--kappa", "6", "--n-eta", "0"),
        ("exponents", "--kappa", "6", "--smax", "0"),
    ),
)
def test_grid_sizes_must_be_positive(argv, tmp_path, capsys):
    if argv[0] == "scan":
        argv += ("--output", str(tmp_path / "out.csv"))
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("spec", ("theta", "thetaX", "abc"))
@pytest.mark.parametrize("command", ("verify", "scan"))
def test_malformed_weight_is_usage_error(command, spec, tmp_path, capsys):
    out_file = tmp_path / "out.csv"
    if command == "verify":
        argv = ["verify", "exponents"]
    else:
        argv = ["scan", "kernel-bounds", "--output", str(out_file)]
    code = cli.main(argv + ["--kappa", "6", "--h", spec])
    assert code == 2
    assert f"bad weight spec {spec!r}" in capsys.readouterr().err
    assert not out_file.exists()


@pytest.mark.parametrize(
    "argv, message",
    (
        (("verify", "kernel", "--kappa", "6", "--t", "nan"), "kernel time"),
        (("verify", "kernel", "--kappa", "6", "--t", "0.1", "inf"), "kernel time"),
        (("scan", "kernel-bounds", "--kappa", "6", "--t-min", "0"), "t_min"),
        (("scan", "kernel-bounds", "--kappa", "6", "--c1", "0"), "c1"),
        (("scan", "kernel-bounds", "--kappa", "6", "--c1", "-1"), "c1"),
        (("scan", "kernel-bounds", "--kappa", "6", "--c2", "nan"), "c2"),
        (("scan", "green-adjoint", "--kappa", "6", "--epsilon", "1e200"), "eta**2"),
        (("scan", "green-adjoint", "--kappa", "6", "--epsilon", "1e-300"), "eta**2"),
        (("scan", "green-adjoint", "--kappa", "6", "--tol", "nan"), "tol"),
        (("scan", "green-adjoint", "--kappa", "6", "--tol", "-1"), "tol"),
    ),
)
def test_non_finite_or_non_positive_kernel_input_is_usage_error(argv, message, tmp_path, capsys):
    out_file = tmp_path / "out.csv"
    if argv[0] == "scan":
        argv += ("--output", str(out_file))
    assert cli.main(list(argv)) == 2
    assert f"error: {message} must be finite and positive" in capsys.readouterr().err
    assert not out_file.exists()


def test_scan_green_adjoint_names_its_worst_row(tmp_path, capsys):
    out_file = tmp_path / "adjoint.csv"
    code, out = run(capsys, "scan", "green-adjoint", "--kappa", "6", "--n-sigma", "3",
                    "--n-eta", "2", "--format", "json", "--output", str(out_file))
    assert code == 0
    check = json.loads(out)["checks"][0]
    rows = [{k: float(v) for k, v in r.items()}
            for r in csv.DictReader(out_file.read_text().splitlines())]
    assert len(rows) == 6
    worst = max(rows, key=lambda r: abs(r["residual"]) / r["scale"])
    assert check["name"] == "adjoint_residual_homogeneous"
    assert check["value"] == abs(worst["residual"]) / worst["scale"]
    assert check["detail"] == f"worst at (sigma, eta) = ({worst['sigma']!r}, {worst['eta']!r})"
