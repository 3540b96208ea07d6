"""The lint front-end contract: exit statuses, output formats, and the
acceptance property that the shipped package itself lints clean while a
seeded-violation fixture does not."""

import json
import re
import subprocess
import sys
from pathlib import Path

import repro
from repro.analyze.cli import main as lint_main
from repro.analyze.rules import RULE_INDEX
from repro.cli import main as repro_main

FIXTURE = str(Path(__file__).parent / "fixtures"
              / "seeded_violations.py")
PACKAGE_DIR = str(Path(repro.__file__).parent)
README = Path(__file__).resolve().parents[2] / "README.md"


def reported(out):
    """(line, code) of every finding in text output."""
    return [(int(line), code) for line, code in
            re.findall(r"^\S+:(\d+):\d+: (RPL\d+) ", out, re.MULTILINE)]


def test_seeded_fixture_exits_nonzero_and_reports_every_rule(capsys):
    assert lint_main([FIXTURE]) == 1
    assert reported(capsys.readouterr().out) == [
        (16, "RPL001"), (20, "RPL001"), (20, "RPL001"), (24, "RPL003"),
        (29, "RPL004"), (34, "RPL005"), (38, "RPL001")]


def test_shipped_package_lints_clean(capsys):
    assert lint_main([PACKAGE_DIR]) == 0
    assert "no findings" in capsys.readouterr().out


def test_json_format_is_machine_readable(capsys):
    assert lint_main([FIXTURE, "--format", "json"]) == 1
    findings = json.loads(capsys.readouterr().out)
    assert {f["code"] for f in findings} >= {"RPL001", "RPL005"}
    sample = findings[0]
    assert set(sample) == {"code", "path", "line", "col", "message"}


def test_select_narrows_to_requested_codes(capsys):
    assert lint_main([FIXTURE, "--select", "RPL005"]) == 1
    out = capsys.readouterr().out
    assert "RPL005" in out
    assert "RPL001" not in out


def test_select_reports_exactly_the_selected_code_of_a_shared_rule(capsys):
    # RPL003 and RPL004 come from one rule: selecting either keeps the
    # rule and reports only the selected code.
    assert lint_main([FIXTURE, "--select", "RPL004"]) == 1
    assert reported(capsys.readouterr().out) == [(29, "RPL004")]
    assert lint_main([FIXTURE, "--select", "RPL003"]) == 1
    assert reported(capsys.readouterr().out) == [(24, "RPL003")]


def test_unknown_rule_code_is_a_usage_error(capsys):
    assert lint_main([FIXTURE, "--select", "RPL999"]) == 2
    assert "unknown rule" in capsys.readouterr().out


def test_missing_path_is_a_usage_error(capsys):
    assert lint_main(["does/not/exist.py"]) == 2
    assert "no such path" in capsys.readouterr().out


def test_list_rules_prints_the_index(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code, description in RULE_INDEX.items():
        assert code in out
        assert description in out


def test_readme_rule_table_is_the_index():
    rows = re.findall(r"^\| (RPL\d+) \| (.+) \|$",
                      README.read_text(encoding="utf-8"), re.MULTILINE)
    assert dict(rows) == RULE_INDEX
    assert len(rows) == len(RULE_INDEX)


def test_repro_cli_delegates_lint_subcommand(capsys):
    assert repro_main(["lint", FIXTURE, "--select", "RPL001"]) == 1
    assert "RPL001" in capsys.readouterr().out


def test_python_dash_m_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "repro.analyze", FIXTURE],
        capture_output=True, text=True)
    assert result.returncode == 1
    assert "RPL001" in result.stdout
