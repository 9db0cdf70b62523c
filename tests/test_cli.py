import csv
import itertools
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import liecheck
from input_sweep import REDUCED_GRID, run_point
from liecheck import hilbert
from liecheck.checks import doubling_note, stat_row
from liecheck.cli import RunConfig, emit_constants_table, main, run_verification_suite
from liecheck.fourier import character_series, load_series, save_series


def run(args):
    return main(args)


def test_lemma33_a1_all_pass(tmp_path):
    out = tmp_path / "report.json"
    code = run(["verify", "--suite", "lemma33", "--group", "A1", "--t", "1.0",
                "--max-level", "4", "--seed", "42", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["summary"]["failed"] == 0
    assert len(report["checks"]) == 5
    assert all(c["rel_err"] <= 1e-8 for c in report["checks"])


def test_report_is_sorted_and_deterministic(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["verify", "--suite", "kirillov", "--group", "A1", "--seed", "7"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    ids = [c["check_id"] for c in report["checks"]]
    assert ids == sorted(ids)


def test_a2_fourier_rejected(capsys):
    assert run(["verify", "--suite", "fourier", "--group", "A2"]) == 2
    assert "irrep matrices unavailable for A2" in capsys.readouterr().err


def test_a2_all_reports_skips(tmp_path):
    out = tmp_path / "report.json"
    code = run(["verify", "--suite", "all", "--group", "A2", "--mc-samples", "20000",
                "--max-level", "2", "--out", str(out)])
    report = json.loads(out.read_text())
    skipped = [c for c in report["checks"] if c["kind"] == "skip"]
    assert report["summary"]["skipped"] == len(skipped) >= 4
    assert code in (0, 1)  # statistical rows at reduced samples may sit near the gate
    assert any("irrep matrices unavailable" in c["note"] for c in skipped)


def test_invalid_config(capsys):
    assert run(["verify", "--suite", "eta", "--group", "A9"]) == 2
    assert run(["verify", "--suite", "eta", "--group", "A1", "--t", "-1"]) == 2
    assert run(["verify", "--suite", "eta", "--group", "A1", "--quad-order", "4"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("group", ["T\u00b2", "T\u0661", "T1\n", "T100"])
def test_a_malformed_or_too_large_torus_name_is_a_usage_error(capsys, group):
    # T followed by a superscript two once raised from int() in the
    # validation, and T followed by an Arabic-Indic one ran as T1
    assert run(["verify", "--group", group, "--suite", "eta"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown group") and "Traceback" not in err


def test_csv_report(tmp_path):
    out = tmp_path / "report.csv"
    assert run(["verify", "--suite", "unitarity", "--group", "T1",
                "--format", "csv", "--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0][0] == "check_id"
    assert len(rows) > 2


def test_constants_table_a1(tmp_path):
    out = tmp_path / "constants.csv"
    assert run(["constants", "--group", "A1", "--t", "1.0", "--max-level", "2",
                "--format", "csv", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 3
    first = rows[0]
    assert first["dynkin"] == "[0]"
    assert abs(float(first["C"]) - 9.180620810611474) < 1e-9
    assert abs(float(first["D"]) - 20.222899473225628) < 1e-9
    assert float(first["ratio_check"]) < 1e-12
    assert abs(float(rows[1]["C"]) - np.pi**1.5 * np.e**2) < 1e-9


def test_constants_table_torus_degenerate(tmp_path):
    out = tmp_path / "constants.json"
    assert run(["constants", "--group", "T1", "--max-level", "3",
                "--format", "json", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 4
    for row in rows:
        assert abs(row["C_tilde"] - row["C"]) <= 1e-12 * row["C"]


def test_torus_constants_at_t2_end_without_overflow(tmp_path):
    # each axis factor e^{-mu_i x - x^2/t} is one exponential, so a torus
    # row overflows only where C itself does (t |lam|^2 > 709; here <= 576)
    out = tmp_path / "constants.json"
    assert run(["constants", "--group", "T2", "--t", "2", "--max-level", "12",
                "--out", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 13**2
    for row in rows:
        assert abs(row["C_tilde"] - row["C"]) <= 1e-12 * row["C"]


def test_constants_json_roundtrip():
    cfg = RunConfig(group="A1", max_level=1)
    rows = emit_constants_table(cfg)
    assert [r.dynkin for r in rows] == [(0,), (1,)]
    assert all(r.ratio_check < 1e-12 for r in rows)


def test_transform_cli(tmp_path):
    src = tmp_path / "series.json"
    save_series(src, character_series("A1", (1,), "HL2", 1.0))
    out_h = tmp_path / "h.json"
    assert run(["transform", "--which", "h", "--in", str(src), "--out", str(out_h)]) == 0
    mapped = load_series(out_h)
    assert mapped.space == "L2K"
    expected = np.sqrt(np.pi**1.5 * np.exp(2.0)) / 2.0
    assert abs(mapped.terms[(1,)][0, 0] - expected) < 1e-12
    back = tmp_path / "back.json"
    assert run(["transform", "--which", "theta-star", "--in", str(out_h), "--out", str(back)]) == 0
    assert load_series(back).space == "HL2"
    # domain mismatch is a usage error
    assert run(["transform", "--which", "h", "--in", str(out_h), "--out", str(back)]) == 2
    assert run(["transform", "--which", "h", "--in", str(tmp_path / "nope.json"),
                "--out", str(back)]) == 2


def test_run_verification_suite_api():
    cfg = RunConfig(group="T1", mc_samples=5000, max_level=2)
    report = run_verification_suite(cfg, "lemma64")
    assert report["summary"]["failed"] == 0
    assert report["config"]["quad_order"] == 64


def test_exit_code_one_on_failure(tmp_path):
    # an impossibly tight tolerance forces deterministic rows to fail
    out = tmp_path / "r.json"
    code = run(["verify", "--suite", "weylint", "--group", "T1",
                "--tolerance", "1e-300", "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["summary"]["failed"] >= 1


def _strict_json(text: str):
    """json.loads that refuses NaN and the infinities."""
    def reject(name):
        raise ValueError(f"non-finite constant {name} in the report")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("args, error_id, min_rows", [
    # at t = 2.5 the closed form C exceeds the largest float, of the A2
    # weights up to level 11, only at (11, 11), which gets its own row
    (["--suite", "lemma33", "--group", "A2", "--t", "2.5", "--max-level", "11"],
     "lemma33/C-11-11", 78),
    # at t = 4 the first A1 weight whose C exceeds it is (18,)
    (["--suite", "lemma33", "--group", "A1", "--t", "4", "--max-level", "18"],
     "lemma33/C-18", 19),
    # C is inf from label 18 on, so its ratio defect is NaN there
    (["--suite", "unitarity", "--group", "A1", "--t", "4", "--max-level", "20"],
     "unitarity/error", 1),
])
def test_a_suite_that_raises_ends_in_a_failed_error_row(tmp_path, args, error_id, min_rows):
    out = tmp_path / "r.json"
    assert run(["verify", *args, "--out", str(out)]) == 1
    report = _strict_json(out.read_text())
    failed = [c for c in report["checks"] if not c["pass"]]
    assert report["summary"]["failed"] == len(failed) >= 1
    assert report["summary"]["total"] == len(report["checks"]) >= min_rows
    errors = [c for c in report["checks"] if c["kind"] == "error"]
    assert [c["check_id"] for c in errors] == [error_id]
    assert errors[0] in failed and errors[0]["note"]


def test_lemma33_gives_each_overflowing_weight_its_own_error_row(tmp_path):
    # C exceeds the largest float from (18,) on at t = 4
    out = tmp_path / "r.json"
    assert run(["verify", "--suite", "lemma33", "--group", "A1", "--t", "4",
                "--max-level", "20", "--out", str(out)]) == 1
    report = _strict_json(out.read_text())
    assert report["summary"]["total"] == len(report["checks"]) == 21
    assert report["summary"]["failed"] == 3
    errors = [c for c in report["checks"] if c["kind"] == "error"]
    assert [c["check_id"] for c in errors] == ["lemma33/C-18", "lemma33/C-19", "lemma33/C-20"]
    assert all(not c["pass"] and "exceeds the largest float" in c["note"] for c in errors)
    assert sum(c["pass"] for c in report["checks"]) == 18


def test_former_overflow_runs_pass_in_full(tmp_path):
    # the chamber integrands of these runs once formed inf * 0 at far nodes
    # although C is finite: six lemma33 weights failed, and constants
    # stopped at (4, 10) and (10,)
    out = tmp_path / "r.json"
    assert run(["verify", "--suite", "lemma33", "--group", "A2", "--max-level", "8",
                "--out", str(out)]) == 0
    report = _strict_json(out.read_text())
    assert report["summary"]["total"] == sum(c["pass"] for c in report["checks"]) == 81
    for args, rows in ((["--group", "A2", "--max-level", "10"], 121),
                       (["--group", "A1", "--t", "4", "--max-level", "12"], 13)):
        out = tmp_path / "constants.json"
        assert run(["constants", *args, "--out", str(out)]) == 0
        assert len(_strict_json(out.read_text())) == rows


@pytest.mark.parametrize("args, dynkin", [
    (["--group", "A1", "--t", "4", "--max-level", "20"], "(18,)"),
    (["--group", "A2", "--t", "2.5", "--max-level", "11"], "(11, 11)"),
], ids=["A1-t4-level20", "A2-t2.5-level11"])
def test_constants_that_overflow_end_in_a_usage_error(tmp_path, capsys, args, dynkin):
    out = tmp_path / "constants.json"
    assert run(["constants", *args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"weight {dynkin}, t = " in err and "exceeds the largest float" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_closed_form_overflow_raises_no_runtime_warning(tmp_path):
    # the overflow ends in a usage error or error rows, not in numpy's
    # RuntimeWarnings on stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["constants", "--group", "A1", "--t", "4", "--max-level", "20",
                    "--out", str(tmp_path / "c.json")]) == 2
        assert run(["verify", "--suite", "lemma33", "--group", "A1", "--t", "4",
                    "--max-level", "20", "--out", str(tmp_path / "r.json")]) == 1


def test_pairing_transform_at_large_t_ends_in_values_or_error_rows_without_a_warning(tmp_path):
    # at t = 500 the pairing moment of label 2 has weights past the largest
    # float; T_n is summed at e^{-rho} exp(iY), so no cosh or sinh overflows.
    # At t = 1e-300 D underflows to 0, and no relative deviation from it is
    # taken.  Either way the pointwise row fails alone, and the D rows that
    # are finite stay in the report
    pkg = str(Path(liecheck.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([pkg, os.environ.get("PYTHONPATH", "")]))
    for t, note in (("500", "exceeds the largest float"),
                    ("1e-300", "below the smallest normal float")):
        out = tmp_path / f"r-{t}.json"
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "liecheck.cli",
                               "verify", "--suite", "lemma64", "--group", "A1", "--t", t,
                               "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.stderr == "", t
        report = _strict_json(out.read_text())
        failed = [c for c in report["checks"] if not c["pass"]]
        assert proc.returncode == 1 and report["summary"]["failed"] == len(failed)
        assert all(c["kind"] == "error" and c["note"] for c in failed)
        rows = {c["check_id"]: c for c in report["checks"]}
        assert "lemma64/error" not in rows
        assert note in rows["lemma64/pointwise-transform"]["note"]
        for label in (0, 1):
            assert rows[f"lemma64/D-{label}"]["pass"]
            assert rows[f"lemma64/D-{label}"]["kind"] == "deterministic"
        # D of label 1: e^500 (1000 pi)^(3/2) at t = 500, 0 at t = 1e-300
        d1 = rows["lemma64/D-1"]["rhs"]
        assert d1 > 1e200 if t == "500" else d1 == 0.0


def test_transform_whose_constant_overflows_is_a_usage_error(tmp_path, capsys):
    # C at label 30 and t = 4 is e^1926: once a file of NaN with exit 0
    src = tmp_path / "series.json"
    save_series(src, character_series("A1", (30,), "HL2", 4.0))
    out = tmp_path / "h.json"
    assert run(["transform", "--which", "h", "--in", str(src), "--out", str(out)]) == 2
    assert "exceeds the largest float" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("group, dynkin, t, tail", [
    ("T1", (19,), 2.0, "the axis sums of the integral e^722.919 pass the largest float"),
    ("A1", (30,), 4.0, "the integrand reaches e^1799.9, past the largest float"),
], ids=["T1", "A1"])
def test_htilde_overflow_names_weight_t_and_log_without_a_warning(tmp_path, group, dynkin,
                                                                   t, tail):
    # on T1 the density-free constant is e^722.9 (C, as on every torus);
    # numpy's exp once overflowed there with a RuntimeWarning on stderr
    src = tmp_path / "series.json"
    save_series(src, character_series(group, dynkin, "HL2", t))
    out = tmp_path / "htilde.json"
    pkg = str(Path(liecheck.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([pkg, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "liecheck.cli",
                           "transform", "--which", "htilde", "--in", str(src), "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2
    assert proc.stderr == (f"error: Htilde at weight {dynkin}, t = {t}: integrand produced "
                           f"non-finite values at quadrature nodes: {tail}\n")
    assert not out.exists()


_CHAMBER_SUM = "integrand produced non-finite values at quadrature nodes: the weighted sum "


@pytest.mark.parametrize("args, notes", [
    (["--group", "A1", "--t", "8.32664", "--max-level", "12"],
     {"lemma33/C-12": _CHAMBER_SUM + "e^711.062 passes the largest float"}),
    (["--group", "A2", "--t", "146.72092", "--max-level", "1"],
     {"lemma33/C-0-1": _CHAMBER_SUM + "e^710.329 passes the largest float",
      "lemma33/C-1-0": _CHAMBER_SUM + "e^710.329 passes the largest float",
      "lemma33/C-1-1": "the closed form e^1198.3 exceeds the largest float"}),
], ids=["A1", "A2"])
def test_chamber_sum_past_the_largest_float_names_its_log_without_a_warning(tmp_path, args,
                                                                            notes):
    # C is finite at these weights but d C is not: the weighted chamber sum
    # once overflowed in numpy's multiply and sum, with RuntimeWarnings on
    # stderr, and the row read "non-finite value among (inf, 4.97e+307)"
    out = tmp_path / "r.json"
    pkg = str(Path(liecheck.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([pkg, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "liecheck.cli",
                           "verify", "--suite", "lemma33", *args, "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stderr) == (1, "")
    report = _strict_json(out.read_text())
    failed = {c["check_id"]: c["note"] for c in report["checks"] if not c["pass"]}
    assert failed == notes
    assert report["summary"]["failed"] == len(notes)
    assert all(c["kind"] == "error" for c in report["checks"] if not c["pass"])


@pytest.mark.parametrize("group", REDUCED_GRID[0])
def test_reduced_input_sweep_ends_in_a_value_a_failed_row_or_a_usage_error(tmp_path, group):
    # verify --suite all and constants over t and max-level (input_sweep
    # states what each point must end in; CI runs the full grid)
    _, ts, levels = REDUCED_GRID
    problems = [problem for t, level in itertools.product(ts, levels)
                for problem in run_point(group, t, level, tmp_path)]
    assert problems == []


@pytest.mark.parametrize("group", ["A1", "A2"])
@pytest.mark.parametrize("samples", [2, 16_386])
def test_monte_carlo_sample_count_edges_end_in_exit_0_or_1(tmp_path, group, samples):
    # 2 is the smallest accepted count, whose standard errors have 1 degree
    # of freedom, so a statistical row may fail; at 16 386 the last block of
    # models._evaluate_blocks holds 2 points.  Either way: exit 0 or 1,
    # strict JSON, no exception and no failed deterministic row
    out = tmp_path / "report.json"
    code = run(["verify", "--suite", "all", "--group", group, "--mc-samples", str(samples),
                "--out", str(out)])
    report = json.loads(out.read_text(), parse_constant=lambda c: pytest.fail(f"non-finite {c}"))
    failed = [c for c in report["checks"] if not c["pass"]]
    assert code == (1 if failed else 0) and report["summary"]["failed"] == len(failed)
    assert all(c["kind"] == "statistical" for c in failed)
    assert report["config"]["mc_samples"] == samples


def test_a_constants_row_with_a_non_finite_field_is_a_usage_error(tmp_path, capsys,
                                                                   monkeypatch):
    real = hilbert.constants_row

    def inf_c(rs, lam, t, order):
        return replace(real(rs, lam, t, order), C=float("inf"))

    monkeypatch.setattr(hilbert, "constants_row", inf_c)
    out = tmp_path / "constants.json"
    assert run(["constants", "--group", "A1", "--max-level", "1", "--out", str(out)]) == 2
    assert "weight (0,), t = 1.0: non-finite value" in capsys.readouterr().err
    assert not out.exists()


def test_heat_commutes_with_dictionary_is_relative_at_large_t():
    # the coefficients reach 7.7e3 at t = 20, where the absolute deviation
    # read 9.1e-13 against the gate 1e-13
    report = run_verification_suite(RunConfig(group="A1", t=20.0), "heat")
    row = next(c for c in report["checks"] if c["check_id"] == "heat/commutes-with-dictionary")
    assert row["pass"] and row["lhs"] <= 1e-15


def test_statistical_summary_and_deterministic_second_routes():
    t2 = run_verification_suite(RunConfig(group="T2"), "all")["summary"]["statistical"]
    assert t2 == {"k": 0, "beyond_2sigma": 0, "expected_beyond_2sigma": 0.0,
                  "false_alarm_prob": 0.0}
    a2 = run_verification_suite(RunConfig(group="A2"), "all")
    stat = a2["summary"]["statistical"]
    assert stat["k"] == 2 and stat["false_alarm_prob"] == 0.0054
    assert stat["beyond_2sigma"] == sum(
        1 for c in a2["checks"] if c["kind"] == "statistical" and c["sigma_distance"] > 2.0)
    rule = [c for c in a2["checks"] if c["check_id"].startswith(
        ("kirillov/gt-a2-", "weylint/chamber-vs-tridiagonal-"))]
    assert [c["check_id"] for c in a2["checks"] if c["kind"] == "statistical"] == [
        "kirillov/mc-crosscheck-a2", "weylint/mc-crosscheck-a2"]
    a1 = run_verification_suite(RunConfig(group="A1"), "weylint")
    assert a1["summary"]["statistical"]["k"] == 1
    rule += [c for c in a1["checks"]
             if c["check_id"].startswith("weylint/chamber-vs-tridiagonal-")]
    assert len(rule) == 12 + 20 + 20
    for c in rule:
        assert c["kind"] == "deterministic" and c["pass"]
        assert c["rel_err"] <= (1e-13 if c["check_id"].startswith("kirillov/") else 1e-12)
        assert "rel delta" in c["note"]
    # both Monte-Carlo cross-checks take the same case of their group's list
    for report, group in ((a1, "a1"), (a2, "a2")):
        mc = next(c for c in report["checks"] if c["check_id"] == f"weylint/mc-crosscheck-{group}")
        assert mc["note"].endswith("Monte-Carlo route of chamber-vs-tridiagonal-05")


def test_weylint_tridiagonal_rows_across_t():
    for group, order in (("A1", 20), ("A2", 16)):
        for t in (0.1, 0.5, 1.0, 2.0):
            report = run_verification_suite(RunConfig(group=group, t=t), "weylint")
            rows = [c for c in report["checks"]
                    if c["check_id"].startswith("weylint/chamber-vs-tridiagonal-")]
            assert rows, (group, t)
            for c in rows:
                assert c["kind"] == "deterministic" and c["pass"]
                assert c["rel_err"] <= 1e-12, (group, t, c)
                assert f"order {order} vs {order // 2}: rel delta" in c["note"]


def test_weylint_cross_checks_the_last_case_when_the_tilt_cap_keeps_few(tmp_path):
    # at A1 t = 10 the tilt cap keeps 4 of the 20 test integrands, so the
    # Monte-Carlo cross-check takes the last of them, case 03
    out = tmp_path / "a1-weylint-t10.json"
    assert run(["verify", "--suite", "weylint", "--group", "A1", "--t", "10",
                "--out", str(out)]) == 0
    checks = json.loads(out.read_text())["checks"]
    mc = [c for c in checks if c["check_id"] == "weylint/mc-crosscheck-a1"]
    assert len(mc) == 1 and mc[0]["kind"] == "statistical"
    assert mc[0]["note"].endswith("Monte-Carlo route of chamber-vs-tridiagonal-03")
    assert [c["check_id"] for c in checks if c["check_id"].startswith(
        "weylint/chamber-vs-tridiagonal-")][-1] == "weylint/chamber-vs-tridiagonal-03"


def test_weylint_reports_a_skip_row_when_no_case_is_within_the_tilt_cap(tmp_path):
    # at these t every test integrand exceeds the tilt cap; the T1 row is
    # the torus skip row of the same id
    for group, t in (("A2", "10"), ("A1", "100"), ("T1", "1")):
        out = tmp_path / f"{group}.json"
        assert run(["verify", "--suite", "weylint", "--group", group, "--t", t,
                    "--out", str(out)]) == 0
        checks = json.loads(out.read_text())["checks"]
        skip = [c for c in checks if c["kind"] == "skip"]
        assert [c["check_id"] for c in skip] == ["weylint/chamber-vs-tridiagonal"]
        if group != "T1":
            assert f"tilt cap |mu_eff|^2 t_gauss <= 28 at t={t}" in skip[0]["note"]
            assert not any("tridiagonal-" in c["check_id"] for c in checks)


def test_a1_statistical_rows_and_haar_su2_rule_rows():
    report = run_verification_suite(RunConfig(group="A1"), "all")
    assert report["summary"]["failed"] == 0
    checks = {c["check_id"]: c for c in report["checks"]}
    assert [c["check_id"] for c in report["checks"] if c["kind"] == "statistical"] == [
        "bks/spectral-vs-integral-random",
        "convolution/mc-crosscheck",
        "fourier/coeff-diagonal",
        "kirillov/mc-crosscheck-a1",
        "plancherel/l2k-chi-norm",
        "weylint/mc-crosscheck-a1",
    ]
    assert report["summary"]["statistical"]["k"] == 6
    assert report["summary"]["statistical"]["false_alarm_prob"] == 0.0161
    # the kernel's integral and its convolution on the polar rule, exact in
    # cos theta for the 11 kernel terms kept at t = 1 (and the series' band 2)
    norm = checks["heat/kernel-normalization"]
    assert norm["kind"] == "deterministic" and norm["pass"] and norm["rel_err"] <= 1e-15
    assert "exact to degree 10 in cos theta (6 nodes); order 12 vs 6: rel delta" in norm["note"]
    for cfg in (RunConfig(group="A1"), RunConfig(group="A1", mc_samples=2000)):
        heat_rows = run_verification_suite(cfg, "heat")["checks"]
        conv = next(c for c in heat_rows if c["check_id"] == "heat/convolution")
        assert conv["kind"] == "deterministic" and conv["pass"] and conv["abs_err"] <= 1e-12
        assert "exact to degree 12 in cos theta (7 nodes); order 14 vs 7: abs delta" in conv["note"]
    rule = ["fourier/coeff-cross", "fourier/roundtrip", "convolution/integral-oracle",
            "plancherel/l2k-bandlimited", "bks/spectral-vs-integral-0",
            "bks/spectral-vs-integral-1", "bks/spectral-vs-integral-2"]
    for cid in rule:
        c = checks[cid]
        assert c["kind"] == "deterministic" and c["pass"] and c["sigma_distance"] is None
        assert c["rel_err"] <= 1e-12
        assert "SU(2) Haar rule exact to degree" in c["note"]
        assert "rel delta" in c["note"] or "abs delta" in c["note"]
    # degrees from the series bands
    assert "degree 3 (16 nodes)" in checks["fourier/coeff-cross"]["note"]
    assert "degree 4 (45 nodes)" in checks["fourier/roundtrip"]["note"]
    # the orbit-method cross-check compares the two signed sides
    kir = checks["kirillov/mc-crosscheck-a1"]
    assert kir["lhs"] > 1.0 and kir["rhs"] > 1.0
    assert abs(kir["abs_err"] - abs(kir["lhs"] - kir["rhs"])) <= 1e-15


def test_stat_row_gates_complex_sides_on_their_distance():
    # equal moduli, phases a quarter turn apart: 1.41 away at stderr 0.1
    row = stat_row("phase", 1.0 + 0.0j, 1.0j, 0.1)
    assert not row.passed and row.lhs == row.rhs == 1.0
    assert abs(row.sigma_distance - np.sqrt(2.0) / 0.1) <= 1e-12
    assert stat_row("close", 1.0 + 0.0j, 1.0 + 0.2j, 0.1).passed
    real = stat_row("real", -1.0, -1.25, 0.1)
    assert real.lhs == -1.0 and real.abs_err == 0.25 and real.sigma_distance == 2.5


def test_doubling_note_at_zero_and_for_arrays():
    assert doubling_note(0.0, 3e-17, 8) == "order 8 vs 4: abs delta 3.0e-17"
    assert doubling_note(2.0, 2.5, 8) == "order 8 vs 4: rel delta 2.5e-01"
    assert doubling_note(np.array([1j, 4.0]), np.array([1j, 3.0]), 6) == (
        "order 6 vs 3: rel delta 2.5e-01")
    assert doubling_note(1e-16, 2e-16, 6, residual=True) == "order 6 vs 3: abs delta 1.0e-16"


def test_heat_unavailable_where_its_kernel_needs_too_many_terms(tmp_path, capsys):
    # at t = 1e-6 the truncated heat kernel would need over 10^4 terms
    assert run(["verify", "--suite", "heat", "--group", "A1", "--t", "1e-6"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: heat kernel unavailable at t=1e-06")
    assert "Traceback" not in err
    out = tmp_path / "report.json"
    code = run(["verify", "--suite", "all", "--group", "A1", "--t", "1e-6", "--out", str(out)])
    report = json.loads(out.read_text())
    assert code in (0, 1)
    rows = {c["check_id"]: c for c in report["checks"]}
    assert rows["heat/unavailable"]["kind"] == "skip"
    assert "over 10000 terms" in rows["heat/unavailable"]["note"]
    assert not any(cid.startswith("heat/") and cid != "heat/unavailable" for cid in rows)
    # the suites after heat still run
    assert any(cid.startswith("unitarity/") for cid in rows)


def test_outputs_do_not_depend_on_the_blas_thread_count():
    # every weighted sum over a rule's points is numpy's own, in one order;
    # a BLAS dot would split the point axis across its threads
    src = str(Path(liecheck.__file__).resolve().parents[1])
    runs = (["verify", "--suite", "lemma33", "--group", "A2"],
            ["constants", "--group", "A2", "--format", "csv"],
            ["constants", "--group", "T2", "--format", "csv"])
    for args in runs:
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            proc = subprocess.run([sys.executable, "-m", "liecheck.cli", *args], env=env,
                                  capture_output=True, check=True, timeout=300)
            outs.append(proc.stdout)
        assert outs[0] == outs[1], args
