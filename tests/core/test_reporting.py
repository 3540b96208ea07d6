"""Reporting: table formatting."""

import pytest

from repro.bench import Table
from repro.core.reporting import format_table


def test_format_table_aligns_columns():
    text = format_table(["name", "value"],
                        [["short", 1.0], ["a-much-longer-name", 2.5]])
    lines = text.splitlines()
    assert len(lines) == 4  # header, rule, two rows
    assert lines[0].startswith("name")
    assert all(len(line) <= len(max(lines, key=len)) for line in lines)


def test_format_table_title():
    text = format_table(["a"], [[1]], title="Figure 2")
    assert text.splitlines()[0] == "Figure 2"


def test_format_table_float_precision():
    text = format_table(["v"], [[1.23456]], precision=2)
    assert "1.23" in text
    assert "1.235" not in text


def test_format_table_row_width_mismatch_rejected():
    with pytest.raises(ValueError):
        format_table(["a", "b"], [[1]])


def test_format_table_renders_none_and_bool():
    text = format_table(["a", "b"], [[None, True]])
    assert "None" in text and "True" in text


def test_series_table_maps_columns():
    series = [{"x": 2.0, "throughput": 0.5, "percent_missed": 10.0},
              {"x": 4.0, "throughput": 0.4, "percent_missed": 30.0}]
    text = Table("a title", (("size", "x"),
                             ("objects/sec", "throughput"),
                             ("% missed", "percent_missed")))(series)
    assert text.splitlines()[0] == "a title"
    assert "objects/sec" in text
    assert "% missed" in text
    assert "2.000" in text and "30.000" in text
