"""``repro verify`` front-end: exit codes, formats, artifacts."""

import json

from repro.verify.cli import main


def test_list_scenarios(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "pcp-2x2" in out
    assert "dist-global-2x2" in out


def test_clean_scenario_exits_zero(capsys):
    code = main(["--scenario", "pcp-2x2", "--reduction", "hash",
                 "--schedules", "100"])
    out = capsys.readouterr().out
    assert code == 0
    assert "clean" in out
    assert "OK" in out


def test_unknown_scenario_exits_two(capsys):
    assert main(["--scenario", "no-such"]) == 2
    assert "unknown scenario" in capsys.readouterr().out


def test_bad_budget_exits_two(capsys):
    assert main(["--scenario", "pcp-2x2", "--schedules", "0"]) == 2


def test_json_format(capsys):
    code = main(["--scenario", "pcp-2x2", "--reduction", "sleep",
                 "--schedules", "100", "--format", "json"])
    assert code == 0
    reports = json.loads(capsys.readouterr().out)
    assert len(reports) == 1
    assert reports[0]["scenario"] == "pcp-2x2"
    assert reports[0]["clean"] is True


def test_violations_exit_one_and_export(tmp_path, capsys, lost_wakeup):
    code = main(["--scenario", "pcp-3x2", "--reduction", "hash",
                 "--schedules", "500",
                 "--artifacts", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out
    schedule = tmp_path / "pcp-3x2.schedule.json"
    trace = tmp_path / "pcp-3x2.trace.jsonl"
    assert schedule.exists() and trace.exists()
    manifest = json.loads(schedule.read_text())
    assert "VFY-MISS" in manifest["codes"]


def test_stale_wakeup_index_exits_one(capsys, stale_index):
    code = main(["--scenario", "pcp-3x2", "--reduction", "hash",
                 "--schedules", "500", "--format", "json"])
    assert code == 1
    (report,) = json.loads(capsys.readouterr().out)
    assert not report["clean"]
    assert any(violation["code"].startswith("VFY-")
               for violation in report["violations"])


def test_stale_dirty_set_exits_one(capsys, stale_dirty):
    code = main(["--scenario", "twopl-3x1", "--reduction", "hash",
                 "--schedules", "500", "--format", "json"])
    assert code == 1
    (report,) = json.loads(capsys.readouterr().out)
    assert not report["clean"]
    assert any(violation["code"] == "VFY-MISS"
               for violation in report["violations"])
