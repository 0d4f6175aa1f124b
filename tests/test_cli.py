import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nullstate import HeatKernel, checks, cli, jacobi


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


@pytest.mark.parametrize("offset", ("1e-6", "1e-9"))
def test_verify_corruption_fails_named_check(offset, capsys):
    code, out = run(capsys, "verify", "green", "--kappa", "6", "--corrupt", f"lambda0={offset}")
    assert code == 1
    assert any("FAIL" in line and "greenfunc_vs_greenfuncalt" in line
               for line in out.splitlines())


def test_verify_unknown_corruption_is_usage_error(capsys):
    assert cli.main(["verify", "green", "--kappa", "6", "--corrupt", "nope=1"]) == 2


@pytest.mark.parametrize(
    "suite, key", (("kernel", "lambda0"), ("green", "alpha"), ("all", "foo")),
)
def test_verify_corruption_the_suite_does_not_read_is_usage_error(suite, key, capsys):
    # only kernel, green and all take --corrupt (test_verify_reads_and_reports_only_its_
    # own_options); a key such a suite does not read would be a no-op
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
        argv = ["verify", "green"]
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


@pytest.mark.parametrize(
    "argv, message",
    (
        (("verify", "green", "--kappa", "6", "--h", "nan"), "conformal weight d must be finite, got nan"),
        (("verify", "asymptotics", "--kappa", "6", "--h", "nan"),
         "conformal weight d must be finite, got nan"),
        (("verify", "all", "--kappa", "6", "--h", "inf"), "conformal weight d must be finite, got inf"),
        (("scan", "green-adjoint", "--kappa", "6", "--h", "inf"),
         "conformal weight d must be finite, got inf"),
        (("verify", "kernel", "--kappa", "6", "--alpha", "nan"),
         "jacobi parameter alpha must lie in (-1, inf), got nan"),
        (("verify", "jacobi", "--kappa", "6", "--alpha", "inf"),
         "jacobi parameter alpha must lie in (-1, inf), got inf"),
        (("scan", "kernel-bounds", "--kappa", "6", "--beta", "inf"),
         "jacobi parameter beta must lie in (-1, inf), got inf"),
        (("verify", "pde", "--kappa", "6", "--candidate", "power:1,2=1;1,2=2"),
         "exponent spec '1,2=1;1,2=2' names the pair (1, 2) twice"),
        (("scan", "far-pair", "--kappa", "6", "--candidate", "power:1,2=1;1,2=2"),
         "exponent spec '1,2=1;1,2=2' names the pair (1, 2) twice"),
    ),
)
def test_non_finite_weight_or_parameter_and_a_pair_named_twice_are_usage_errors(
        argv, message, tmp_path):
    # refused by name before any arithmetic: stderr holds the one error line,
    # with no Traceback and no numpy RuntimeWarning
    out_file = tmp_path / "out.csv"
    if argv[0] == "scan":
        argv += ("--output", str(out_file))
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "nullstate.cli", *argv],
        capture_output=True, text=True, timeout=600, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 2
    assert proc.stderr == f"error: {message}\n"
    assert not out_file.exists()


@pytest.mark.parametrize(
    "argv, message",
    (
        (("verify", "green", "--kappa", "6", "--h", "-inf"),
         "conformal weight d must be finite, got -inf"),
        (("verify", "kernel", "--kappa", "6", "--alpha", "-inf"),
         "endpoint-maximum tail bounds require alpha, beta >= -1/2, "
         "got (-inf, 0.3333333333333333)"),
        (("verify", "kernel", "--kappa", "6", "--alpha", "-1e3"),
         "endpoint-maximum tail bounds require alpha, beta >= -1/2, "
         "got (-1000.0, 0.3333333333333333)"),
        (("verify", "all", "--kappa", "-1e-3"), "kappa must lie in (0, 8), got -0.001"),
        (("verify", "kernel", "--kappa", "6", "--t", "1e-3", "-1e-2"),
         "kernel time must be finite and positive, got -0.01"),
    ),
)
def test_a_negative_number_is_a_value_as_a_separate_word(argv, message, capsys):
    # argparse alone reads -inf, -1e3 and -1e-3 as unknown options ("expected one
    # argument"); each reaches the same named refusal as its --option=value form
    assert cli.main(list(argv)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    if argv[-2].startswith("--"):
        assert cli.main([*argv[:-2], f"{argv[-2]}={argv[-1]}"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


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


# -- the worst-case reduction every check uses -----------------------------------


@pytest.mark.parametrize("errors, worst, label", (
    ([1.0, math.nan, 3.0, math.nan], math.nan, "b"),
    ([math.nan, 5.0, 1.0, 2.0], math.nan, "a"),
    ([1.0, 2.0, 3.0, math.nan], math.nan, "d"),
    ([1.0, 3.0, 2.0, 3.0], 3.0, "b"),
    ([0.0, 0.0, 0.0, 0.0], 0.0, "a"),
    ([1.0, math.inf, math.inf, 2.0], math.inf, "b"),
))
def test_worst_is_nan_if_any_error_is_and_else_the_first_maximum(errors, worst, label):
    # a running max(worst, err) from 0.0 would read 3.0, 5.0 and 3.0 on the first three
    got, at = checks._worst(iter(errors), at="abcd")
    assert got == worst or (math.isnan(got) and math.isnan(worst))
    assert at == label
    got_alone = checks._worst(errors)
    assert got_alone == worst or (math.isnan(got_alone) and math.isnan(worst))


def test_worst_of_no_errors_is_zero():
    assert checks._worst([]) == 0.0
    assert checks._worst(iter(()), at=[]) == (0.0, None)


# the worst point each check's detail names at the defaults of `verify` at three kappa
WORST_POINTS = {
    "1": {
        "symmetry": "worst at (rho, sigma, t) = (0.7842681987093789, 0.052464650153133285, 0.01)",
        "adjoint_residual_homogeneous": "worst at (sigma, eta) = (0.5, 1.25)",
        "system_residuals_sweep": "n1 over 100 configurations, worst null_state[2] at "
                                  "x = (-3.5123598776750207, -2.0452053010874747)",
    },
    "6": {
        "symmetry": "worst at (rho, sigma, t) = (0.7842681987093789, 0.052464650153133285, 0.01)",
        "adjoint_residual_homogeneous": "worst at (sigma, eta) = (0.35000000000000003, 1.25)",
        "system_residuals_sweep": "n1 over 100 configurations, worst null_state[1] at "
                                  "x = (1.369616873214543, 1.9933609297311874)",
    },
    "5.333333333333333": {
        "symmetry": "worst at (rho, sigma, t) = (0.5959721981904619, 0.7065469048855986, 0.01)",
        "adjoint_residual_homogeneous": "worst at (sigma, eta) = (0.5, 0.75)",
        "system_residuals_sweep": "n1 over 100 configurations, worst null_state[2] at "
                                  "x = (0.23434727394919896, 0.6410700422447253)",
    },
}


@pytest.mark.parametrize("kappa", WORST_POINTS)
def test_worst_point_details_are_unchanged(kappa, capsys):
    details = {}
    for suite in ("kernel", "green", "pde"):
        _, out = run(capsys, "verify", suite, "--kappa", kappa, "--format", "json")
        details.update((c["name"], c["detail"]) for c in json.loads(out)["checks"])
    assert {name: details[name] for name in WORST_POINTS[kappa]} == WORST_POINTS[kappa]


def test_check_result_dict_keeps_its_field_order():
    result = checks.CheckResult("x", 1.5, 2.0, True, "d")
    assert list(result._asdict().items()) == [
        ("name", "x"), ("value", 1.5), ("tolerance", 2.0), ("passed", True), ("detail", "d")]


# -- dispatch: one table of suites, one table of scan options ----------------------


def _verify_defaults(kappa: float, suite: str = "all") -> dict:
    """run_suite's arguments for `nullstate verify <suite> --kappa K` with no other options."""
    return cli.suite_arguments(
        cli.build_parser().parse_args(["verify", suite, "--kappa", repr(kappa)]))


@pytest.mark.parametrize("kappa", (6.0, 2.0))
def test_check_result_dict_is_asdict_for_every_check(kappa):
    # a report's check dict holds every field under its name, value for value and key for key
    for c in checks.run_suite("all", kappa, **_verify_defaults(kappa)):
        assert list(c._asdict().items()) == [("name", c.name), ("value", c.value),
                                             ("tolerance", c.tolerance), ("passed", c.passed),
                                             ("detail", c.detail)]


def _records(results, prefix: str = "") -> list:
    return [(prefix + c.name, c.value.hex(), c.tolerance.hex(), c.passed, c.detail)
            for c in results]


def test_run_suite_all_is_every_suite_in_order():
    # jacobi and kernel read (1/3, 1) here, green the pair of h = 2/3
    args = dict(h=2.0 / 3.0, alpha=1.0 / 3.0, beta=1.0, candidate="n1", n_configs=20, seed=0,
                corrupt={}, t_list=(1e-2, 1.0))
    got = _records(checks.run_suite("all", 6.0, **args))
    want = [record for sub in checks.SUITES[:-1]
            for record in _records(checks.run_suite(sub, 6.0, **args), prefix=f"{sub}.")]
    assert got == want
    assert checks.SUITES[-1] == "all"


@pytest.mark.parametrize("suite", checks.SUITES)
def test_every_suite_returns_a_check(suite):
    # Report.passed is all([]), so a suite with no check would pass having checked nothing
    assert checks.run_suite(suite, 6.0, **_verify_defaults(6.0, suite))


def test_reproducing_error_monotone_prints_three_decimals():
    # as bound_two_sided_on_grid prints its ratios: round-off in the last bits of
    # an error does not change the text
    results = checks.run_suite("kernel", 6.0, **_verify_defaults(6.0, "kernel"))
    detail = {c.name: c.detail for c in results}["reproducing_error_monotone"]
    number = r"\d\.\d{3}e[+-]\d{2}"
    assert re.fullmatch(rf"errors \[{number}, {number}, {number}\]", detail), detail


def test_a_pair_no_kernel_takes_still_has_its_jacobi_checks(capsys):
    # alpha in (-1, -1/2) is a Jacobi basis but no heat kernel: the jacobi suite
    # runs on a basis of its own, and `all` stops at the kernel's refusal
    argv = ("--kappa", "6", "--alpha", "-0.7", "--beta", "0.2")
    assert run(capsys, "verify", "jacobi", *argv)[0] == 0
    assert cli.main(["verify", "all", *argv]) == 2
    assert "require alpha, beta >= -1/2, got (-0.7, 0.2)" in capsys.readouterr().err


@pytest.mark.parametrize("kappa", (0.5, 2.0, 6.0, 7.99))
@pytest.mark.parametrize("corrupt", ({}, {"alpha": 1e-6}, {"lambda0": 1e-6}),
                         ids=("clean", "alpha", "lambda0"))
def test_run_suite_all_is_its_suites_bit_for_bit(kappa, corrupt):
    # the suites of `all` share one kernel per (alpha, beta); each suite alone builds its own
    args = _verify_defaults(kappa)
    got = _records(checks.run_suite("all", kappa, **{**args, "corrupt": corrupt}))
    want = [record for sub in checks.SUITES[:-1] for record in _records(checks.run_suite(
        sub, kappa, **{**args, "corrupt": {key: value for key, value in corrupt.items()
                                           if key in checks.SUITE_CORRUPTIONS.get(sub, ())}}),
        prefix=f"{sub}.")]
    assert got == want


@pytest.mark.parametrize("argv, built", (
    (("all",), 1),
    (("all", "--alpha", "1.5", "--beta", "0.5"), 2),
    (("all", "--corrupt", "alpha=1e-6"), 2),
    (("all", "--corrupt", "lambda0=1e-6"), 1),
    (("kernel", "--corrupt", "beta=1e-6"), 2),
    (("green",), 1),
))
def test_verify_builds_one_heat_kernel_per_pair(argv, built, capsys, monkeypatch):
    # a corrupted pair is a key of its own, so the green suite never reads its kernel
    pairs = []
    init = HeatKernel.__init__
    monkeypatch.setattr(HeatKernel, "__init__",
                        lambda self, *a, **k: pairs.append(a) or init(self, *a, **k))
    code, _ = run(capsys, "verify", argv[0], "--kappa", "6", *argv[1:])
    assert code in (0, 1)
    assert len(pairs) == built


def test_no_state_outlives_a_run_suite_call(monkeypatch):
    # clean, faulty, clean: a kernel kept past its call would make the faulty
    # run match the clean one before it, or the clean run after it match neither
    kappa = 5.9
    args = _verify_defaults(kappa)
    clean = _records(checks.run_suite("all", kappa, **args))
    recurrence = jacobi._recurrence_coefficients
    monkeypatch.setattr(jacobi, "_recurrence_coefficients",  # b1 x (1 + 1e-4)
                        lambda *a: [col * (1.0 + 1e-4) if i == 2 else col
                                    for i, col in enumerate(recurrence(*a))])
    faulty = _records(checks.run_suite("all", kappa, **args))
    monkeypatch.undo()
    assert faulty != clean
    assert _records(checks.run_suite("all", kappa, **args)) == clean


VERIFY_OPTIONS = {  # per suite, the options it reads and a value for each
    "exponents": {},
    "jacobi": {"h": "theta2", "alpha": "1", "beta": "0.5", "seed": "3"},
    "kernel": {"h": "theta2", "alpha": "1", "beta": "0.5", "seed": "3", "t": "0.1",
               "t-min": "1e-3", "corrupt": "alpha=0"},
    "green": {"h": "theta3", "corrupt": "lambda0=0"},
    "pde": {"candidate": "n1", "configs": "5", "seed": "3"},
    "asymptotics": {"h": "theta2"},
}
# the params key each option is reported under
VERIFY_PARAMS = {"t": "t_list", "t-min": "t_list", "seed": None}


@pytest.mark.parametrize("suite", VERIFY_OPTIONS)
def test_verify_reads_and_reports_only_its_own_options(suite, capsys):
    own = [a for k, v in VERIFY_OPTIONS[suite].items() for a in (f"--{k}", v)]
    code, out = run(capsys, "verify", suite, "--kappa", "6", *own, "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert set(report["params"]) == {"suite", "kappa"} | {
        VERIFY_PARAMS.get(k, k) for k in VERIFY_OPTIONS[suite]} - {None}
    assert report["seed"] == (3 if "seed" in VERIFY_OPTIONS[suite] else 0)
    others = {k: v for opts in VERIFY_OPTIONS.values() for k, v in opts.items()
              if k not in VERIFY_OPTIONS[suite]}
    for key, value in others.items():
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", suite, "--kappa", "6", f"--{key}", value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --{key}" in capsys.readouterr().err


def test_verify_exponents_refuses_options_it_does_not_read(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "exponents", "--kappa", "6", "--candidate", "nonsense",
                  "--alpha", "3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --candidate nonsense --alpha 3" in err
    assert "Traceback" not in err


SCAN_OPTIONS = {
    "kernel-bounds": {"alpha": "1", "beta": "1", "T": "1", "t-min": "0.05", "c1": "3.8",
                      "c2": "4.25", "n-angle": "3", "n-time": "2"},
    "green-adjoint": {"n-sigma": "2", "n-eta": "2", "rho": "0.4", "epsilon": "0.5", "tol": "1e-4"},
    "far-pair": {"candidate": "manufactured:normalized"},
    "adjacent-pair": {"candidate": "manufactured:normalized"},
}


@pytest.mark.parametrize("scan", SCAN_OPTIONS)
def test_scan_reads_and_reports_only_its_own_options(scan, tmp_path, capsys):
    out_file = str(tmp_path / "scan.csv")
    own = [a for k, v in SCAN_OPTIONS[scan].items() for a in (f"--{k}", v)]
    code, out = run(capsys, "scan", scan, "--kappa", "6", *own, "--format", "json",
                    "--output", out_file)
    assert code == 0
    params = json.loads(out)["params"]
    assert set(params) == {"command", "name", "kappa", "h", "format", "output"} | {
        k.replace("-", "_") for k in SCAN_OPTIONS[scan]}
    others = {k: v for name, opts in SCAN_OPTIONS.items() for k, v in opts.items()
              if k not in SCAN_OPTIONS[scan]}
    for key, value in others.items():
        with pytest.raises(SystemExit) as exc:
            cli.main(["scan", scan, "--kappa", "6", f"--{key}", value, "--output", out_file])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --{key}" in capsys.readouterr().err


@pytest.mark.parametrize("suite, kappa, message", (
    ("asymptotics", "0.05", "candidate vanished or diverged on the collapse grid"),
    # a unit-domain Gauss-Jacobi rule is built before any shifted norm is read
    ("kernel", "0.01", "the 120-point unit-domain rule for (alpha, beta) = (1199.0, 799.0) "
                       "has 120 weights that underflow"),
    ("all", "0.01", "the 120-point unit-domain rule for (alpha, beta) = (1199.0, 799.0) "
                    "has 120 weights that underflow"),
    ("kernel", "0.02", "the 120-point unit-domain rule for (alpha, beta) = (599.0, 399.0) "
                       "has 62 weights that underflow"),
    ("kernel", "1e-9", "the weight mass of the 120-point rule for (alpha, beta) = "
                       "(11999999999.0, 7999999998.999999) overflows"),
    # before any rule is built: the analytic Euler residual of J(., eta), at a gap near 8e9
    ("green", "1e-9", "the analytic Euler residual of J(., eta) needs eta**(1 - gap) = "
                      "0.7**-7999999997.999999, which overflows at kappa=1e-09"),
    # theta_1 + theta_3 near 1.8e10: the two-point Ward witness's ansatz is 0, and so is its scale
    ("pde", "1e-9", "the two-point ansatz (x2 - x1)**-17999999998.0 underflows to 0 "
                    "at x = (0.3, 1.9), kappa=1e-09"),
    ("kernel", "0.05", "|P_1622| at the endpoint of parameter 239.0 overflows"),
    ("green", "0.05", "|P_1622| at the endpoint of parameter 239.0 overflows"),
    ("all", "0.05", "|P_1622| at the endpoint of parameter 239.0 overflows"),
    ("all", "0.02", "the 120-point unit-domain rule for (alpha, beta) = (599.0, 399.0) "
                    "has 62 weights that underflow"),
    # three samples survive the collapse grid; their abscissae delta^99 differ,
    # but the squares of their deviations underflow
    ("asymptotics", "0.08", "the fit abscissae span [0.0, 6.472257176679572e-163], but the "
                            "squares of their deviations from the mean underflow to 0"),
))
def test_small_kappa_is_refused_by_name(suite, kappa, message, capsys):
    assert cli.main(["verify", suite, "--kappa", kappa]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err


@pytest.mark.parametrize("kappa", ("0.15", "0.12"))
def test_verify_jacobi_passes_at_small_kappa(kappa, capsys):
    # the jacobi suite at (alpha, beta) = (79, 52.3) and (99, 65.7)
    code, out = run(capsys, "verify", "jacobi", "--kappa", kappa)
    assert code == 0
    assert "FAIL" not in out


@pytest.mark.parametrize("argv", (
    ("verify", "kernel", "--alpha", "-0.5", "--beta", "-0.5"),
    ("verify", "jacobi", "--alpha", "-0.5", "--beta", "-0.5"),
    ("verify", "jacobi", "--alpha", "-0.3", "--beta", "-0.7"),
    ("verify", "all", "--alpha", "-0.5", "--beta", "-0.5"),
    ("scan", "kernel-bounds", "--alpha", "-0.5", "--beta", "-0.5"),
))
def test_alpha_plus_beta_minus_one_is_verified(argv, tmp_path, capsys):
    # h_0 at alpha + beta = -1 took log and lgamma at their poles (a traceback)
    extra = ["--output", str(tmp_path / "kb.csv")] if argv[0] == "scan" else []
    code, out = run(capsys, *argv, "--kappa", "6", *extra)
    assert code == 0
    assert "FAIL" not in out


def test_truncation_refusal_names_its_best_bound(capsys):
    assert cli.main(["verify", "kernel", "--kappa", "6", "--t", "1e-5"]) == 1
    err = capsys.readouterr().err
    assert "within 2000 terms (best bound 1.7191924451291187e-06)" in err
    assert "Traceback" not in err


def test_no_command_calls_an_eigensolver(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an eigensolver was called")

    for name in ("eigh", "eigvalsh", "eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, refuse)
    jacobi._gauss_jacobi.cache_clear()  # so that every rule is built under the patch
    out_file = str(tmp_path / "scan.csv")
    commands = [["verify", "all", "--kappa", kappa] for kappa in ("0.5", "2", "6")]
    commands += [["scan", scan, "--kappa", "6", "--output", out_file]
                 for scan in ("kernel-bounds", "green-adjoint", "far-pair", "adjacent-pair")]
    for argv in commands:
        assert cli.main(argv) == 0, argv
    capsys.readouterr()


def _run_masked(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    # the wall time is masked in both formats: json's field and the text footer's seconds
    out = re.sub(r'"wall_time": [^,\n]*', '"wall_time": 0', capsys.readouterr().out)
    return code, re.sub(r"(failures), [0-9.]+s\n", r"\1, 0s\n", out)


def test_commands_in_one_process_print_what_each_prints_alone(tmp_path, capsys):
    out_file = str(tmp_path / "kb.csv")
    commands = (["scan", "kernel-bounds", "--kappa", "6", "--output", out_file],
                ["scan", "far-pair", "--kappa", "6", "--tol", "1e-9", "--output", out_file],
                ["verify", "exponents", "--kappa", "6", "--format", "json"],
                ["verify", "all", "--kappa", "2", "--format", "json"])
    alone = []
    for argv in commands:
        cli.build_parser.cache_clear()  # a parser that has parsed nothing yet
        alone.append(_run_masked(argv, capsys))
    assert [code for code, _ in alone] == [0, 2, 0, 0]
    assert [_run_masked(argv, capsys) for argv in commands] == alone
    assert set(json.loads(alone[2][1])["params"]) == {"suite", "kappa"}
    assert set(json.loads(alone[3][1])["params"]) == {
        "suite", "kappa", "h", "alpha", "beta", "candidate", "configs", "t_list", "corrupt"}


def test_write_csv_is_the_csv_writer_byte_for_byte(tmp_path):
    values = (0.0, -0.0, math.nan, math.inf, -math.inf, 1e16, 1e-5, 5e-324, 0.1, 1.0)
    rows = [(a, b, -b, 0.0) for a in values for b in values] + [(-0.0, 0.0, -0.0, -0.0)]
    header = ("theta", "phi", "t", "K")
    ours, reference = tmp_path / "ours.csv", tmp_path / "reference.csv"
    cli._write_csv(str(ours), header, rows)
    with open(reference, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    assert ours.read_bytes() == reference.read_bytes()
