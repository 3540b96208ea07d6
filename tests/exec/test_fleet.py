"""The one reporter: the progress panel and its finish frame, drawn
from the run's stats record — the fleet facts included."""

import io

from repro.exec import (ExecutionStats, ResultCache, TextProgress,
                        plan_replications, run_units)

from .conftest import tiny_config


def settled_stats():
    """What a finished run leaves behind: two computed units (one of
    them batched), one cache hit, one failure."""
    return ExecutionStats(total=4, computed=2, cache_hits=1, failures=1,
                          jobs=2, elapsed=2.0, busy_time=3.0,
                          unit_walls=[0.4, 0.2], batched_units=1,
                          latest_row={"seed": 101, "processed": 20,
                                      "missed": 2.0})


def finish_frame(stats):
    """The last line a TextProgress writes off a TTY for ``stats``."""
    stream = io.StringIO()
    progress = TextProgress(stream=stream, min_interval=0.0)
    progress.start(stats)
    progress.update(stats)
    progress.finish(stats)
    return stream.getvalue().splitlines()[-1]


class Terminal(io.StringIO):
    def isatty(self):
        return True


def test_report_counts_and_wall_shape():
    frame = finish_frame(settled_stats())
    assert "[exec] 4/4 units · 1 cached · 1 failed" in frame
    assert "unit mean 0.30s · unit max 0.40s" in frame
    assert "1 batched" in frame
    assert "unit wall total 0.60s · p50 0.40s" in frame
    assert " MB" in frame                      # the parent's peak RSS


def test_report_includes_engine_stats():
    frame = finish_frame(settled_stats())
    assert "wall 2.0s" in frame
    assert "1.0 u/s" in frame                  # computed / elapsed
    assert "utilization 75%" in frame          # 3.0 s busy / (2.0 s x 2)
    assert "/2 workers" in frame


def test_format_fleet_report_order_and_values():
    # Progress, host, latest row, then the run's summary line.
    parts = finish_frame(settled_stats()).split(" | ")
    assert [part.split()[0] for part in parts] == [
        "[exec]", "host", "latest", "run"]
    assert parts[2] == "latest seed=101 processed=20 missed=2"


def test_dashboard_renders_plain_lines_off_tty():
    stream = io.StringIO()
    progress = TextProgress(stream=stream, min_interval=0.0)
    stats = ExecutionStats(total=10, computed=3, cache_hits=1, jobs=2,
                           in_flight=2, unit_walls=[0.3, 0.3, 0.3],
                           latest_row={"seed": 101, "processed": 20})
    progress.start(stats)
    progress.update(stats)
    progress.update(stats)
    out = stream.getvalue()
    assert "\x1b[" not in out                  # no cursor control off-TTY
    assert len(out.splitlines()) == 2          # one line per frame
    assert "4/10 units" in out
    assert "1 cached" in out
    assert "2/2 workers" in out
    assert "seed=101" in out


def test_panel_is_redrawn_in_place_on_a_tty():
    stream = Terminal()
    progress = TextProgress(stream=stream, min_interval=0.0)
    stats = settled_stats()
    progress.start(stats)
    progress.update(stats)
    first = stream.getvalue()
    assert first.count("\n") == 3 and "\x1b[" in first
    progress.finish(stats)
    # Back over the three lines drawn, then four (the summary added).
    repaint = stream.getvalue()[len(first):]
    assert repaint.startswith("\x1b[3F")
    assert repaint.count("\x1b[2K") == 4


def test_dashboard_skips_cached_and_failed_walls(failing_units, tmp_path):
    units = plan_replications(tiny_config(), replications=3)
    failing_units([2001])
    cache = ResultCache(tmp_path / "cache")
    cold = run_units(units, jobs=1, cache=cache)
    assert cold.stats.failures == 1
    assert len(cold.stats.unit_walls) == 2
    warm = run_units(units, jobs=1, cache=cache)
    assert warm.stats.cache_hits == 2 and warm.stats.failures == 1
    assert warm.stats.unit_walls == []


def test_dashboard_finish_is_quiet_when_never_drawn():
    stream = io.StringIO()
    progress = TextProgress(stream=stream, min_interval=0.0)
    progress.start(ExecutionStats())
    progress.finish(ExecutionStats())
    assert stream.getvalue() == ""


def test_run_units_feeds_fleet():
    # End-to-end: a tiny serial run fills the stats record the panel
    # reads, and the reporter ends on the finish frame.
    units = plan_replications(tiny_config(), replications=2)
    stream = io.StringIO()
    result = run_units(units, jobs=1, cache=False,
                       progress=TextProgress(stream=stream))
    result.require_success()
    assert len(result.stats.unit_walls) == 2
    assert all(wall > 0.0 for wall in result.stats.unit_walls)
    assert result.stats.latest_row == result.rows[-1]
    assert result.stats.batched_units == 0
    assert stream.getvalue().splitlines()[-1].split(" | ")[-1].startswith(
        "run    utilization ")
