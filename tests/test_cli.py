import csv
import json

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


def test_verify_json_report(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, out = run(capsys, "verify", "exponents", "--kappa", "6",
                    "--format", "json", "--output", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())
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


def test_scan_output_io_failure(capsys):
    code = cli.main(["scan", "green-adjoint", "--kappa", "6",
                     "--output", "/nonexistent-dir/x.csv"])
    assert code == 1
