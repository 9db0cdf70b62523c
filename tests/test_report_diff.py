import importlib.util
import json
from pathlib import Path

import pytest

from liecheck.cli import main

_SPEC = importlib.util.spec_from_file_location(
    "report_diff", Path(__file__).resolve().parents[1] / "tools" / "report_diff.py")
report_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_diff)


REFERENCE = Path(__file__).resolve().parent / "reference"
# A deterministic value may move by this much of its row's magnitude
# max(1, |lhs|, |rhs|) (in a constants table, of max(1, |value|)): the
# references were written with one numpy, and CI installs whichever numpy
# is current, whose exp, log and sums may round differently.  A tenth of
# the default gate, 1e-8.
ROUNDING = 1e-9


def _check(check_id, lhs, rhs, passed=True, note="", kind="deterministic"):
    err = abs(lhs - rhs)
    return {"abs_err": err, "check_id": check_id, "kind": kind, "lhs": lhs, "note": note,
            "pass": passed, "rel_err": err / abs(rhs), "rhs": rhs, "sigma_distance": None}


def _verify(tmp_path, name, checks):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"checks": checks, "config": {"group": "A1"}, "suite": "all",
                                "summary": {"failed": sum(not c["pass"] for c in checks)}}))
    return str(path)


def _diff(capsys, old, new):
    code = report_diff.main([old, new])
    return code, capsys.readouterr().out.splitlines()


def test_verify_reports_moved_values_notes_flips_and_row_sets(tmp_path, capsys):
    base = [_check("lemma33/C-0", 2.0, 2.0), _check("lemma33/C-1", 4.0, 4.0, note="n")]
    old = _verify(tmp_path, "old", base)
    code, out = _diff(capsys, old, _verify(tmp_path, "same", base))
    assert code == 0 and out == ["A1: 2 rows -> 2 rows, 0 added, 0 removed, 0 pass flips, "
                                 "0 values moved, 0 notes changed"]
    # lhs 4 -> 5 moves lhs by 0.25, abs_err and rel_err from 0 (inf)
    moved = [base[0], _check("lemma33/C-1", 5.0, 4.0, note="m")]
    code, out = _diff(capsys, old, _verify(tmp_path, "moved", moved))
    assert code == 0
    assert out[0].endswith("0 pass flips, 3 values moved, 1 notes changed")
    assert "  moved lhs: 1 values, largest relative move 0.25 at lemma33/C-1" in out
    assert "  moved rel_err: 1 values, largest relative move inf at lemma33/C-1" in out
    assert "  note: lemma33/C-1: 'n' -> 'm'" in out
    flipped = [base[0], _check("lemma33/C-1", 4.0, 4.0, passed=False, note="n")]
    code, out = _diff(capsys, old, _verify(tmp_path, "flipped", flipped))
    assert code == 1 and "  pass flip: lemma33/C-1: True -> False" in out
    renamed = [base[0], _check("lemma33/C-2", 4.0, 4.0, note="n")]
    code, out = _diff(capsys, old, _verify(tmp_path, "renamed", renamed))
    assert code == 1 and "  added: lemma33/C-2" in out and "  removed: lemma33/C-1" in out


def test_constants_tables_in_json_and_csv_match_by_weight_and_t(tmp_path, capsys):
    rows = [{"C": 9.5, "C_tilde": 5.5, "C_tilde_err": 1e-15, "D": 20.5, "d": 1, "dynkin": [0, 1],
             "group": "A2", "norm2_shift": 0.5, "ratio_check": 0.0, "t": 1.0}]
    old = tmp_path / "old.json"
    old.write_text(json.dumps(rows))
    header = "group,t,dynkin,d,norm2_shift,C,D,C_tilde,C_tilde_err,ratio_check"
    csv = tmp_path / "new.csv"
    csv.write_text(f'{header}\nA2,1.0,"[0, 1]",1,0.5,9.5,20.5,5.5,1e-15,0.0\n')
    code, out = _diff(capsys, str(old), str(csv))
    assert code == 0 and out[0] == ("A2: 1 rows -> 1 rows, 0 added, 0 removed, 0 pass flips, "
                                    "0 values moved, 0 notes changed")
    csv.write_text(f'{header}\nA2,1.0,"[0, 1]",1,0.5,9.5,20.5,5.75,1e-15,0.0\n'
                   f'A2,2.0,"[0, 1]",1,0.5,9.5,20.5,5.5,1e-15,0.0\n')
    code, out = _diff(capsys, str(old), str(csv))
    assert code == 1
    assert "  moved C_tilde: 1 values, largest relative move 0.0455 at t=1 (0, 1)" in out
    assert "  added: t=2 (0, 1)" in out


def test_reports_of_different_kinds_or_unreadable_are_usage_errors(tmp_path, capsys):
    table = tmp_path / "table.json"
    table.write_text("[]")
    report = _verify(tmp_path, "report", [_check("eta/x", 1.0, 1.0)])
    assert report_diff.main([str(table), report]) == 2
    assert "is a constants report" in capsys.readouterr().err
    assert report_diff.main([str(table), str(tmp_path / "missing.json")]) == 2
    assert report_diff.main([str(table)]) == 2


@pytest.mark.parametrize("name, argv", [
    *[(f"verify-{g}.json", ["verify", "--suite", "all", "--group", g])
      for g in ("A1", "A2", "T1", "T2")],
    *[(f"constants-{g}.json", ["constants", "--group", g]) for g in ("A1", "A2", "T2")],
])
def test_default_outputs_match_the_references(tmp_path, capsys, name, argv):
    # the committed default outputs (tests/reference/README.md says how to
    # write them again): the same rows and pass flags by report_diff; every
    # deterministic value within ROUNDING; a statistical row by its pass
    # flag alone, as its draws may differ between numpy versions
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 0
    code, lines = _diff(capsys, str(REFERENCE / name), str(out))
    assert code == 0, lines
    kind, old = report_diff.load(REFERENCE / name)
    _, new = report_diff.load(out)
    columns = report_diff.VERIFY_VALUES if kind == "verify" else report_diff.CONSTANTS_VALUES
    for group, rows in old.items():
        for key, row in rows.items():
            if row.get("kind") == "statistical":
                continue
            for col in columns:
                a, b = row.get(col), new[group][key].get(col)
                if a is None or b is None:
                    assert a == b, (key, col)
                    continue
                scale = (max(1.0, abs(row["lhs"] or 0.0), abs(row["rhs"] or 0.0))
                         if kind == "verify" else max(1.0, abs(a)))
                assert abs(b - a) <= ROUNDING * scale, (key, col, a, b)
