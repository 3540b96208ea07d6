"""What ``import repro`` and a serial run do not pay for."""

import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def loaded_after(code):
    """Module names a fresh interpreter holds after running ``code``."""
    done = subprocess.run(
        [sys.executable, "-c",
         code + "\nimport sys\nprint('\\n'.join(sorted(sys.modules)))"],
        check=True, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC))
    return set(done.stdout.split())


def test_import_skips_the_lint_engine_and_the_pool_machinery():
    loaded = loaded_after("import repro")
    # The simulation layers know the instrumentation slot, not the
    # observers behind it.
    for module in ("repro.analyze", "repro.trace", "repro.exec.pool",
                   "concurrent.futures.process", "multiprocessing"):
        assert module not in loaded, module


def test_serial_cached_run_never_loads_the_pool(tmp_path):
    loaded = loaded_after(
        "import repro\n"
        "from repro import SingleSiteConfig, WorkloadConfig, replicate\n"
        "config = SingleSiteConfig(workload=WorkloadConfig("
        "n_transactions=3))\n"
        f"replicate(config, replications=2, cache={str(tmp_path)!r})\n"
        f"replicate(config, replications=2, cache={str(tmp_path)!r})")
    assert "repro.exec.pool" not in loaded
    assert "multiprocessing" not in loaded


def test_lint_names_still_resolve_from_the_package():
    import repro.analyze as analyze
    from repro.analyze import DEFAULT_RULES, LintEngine, RULE_INDEX
    from repro.analyze.engine import LintEngine as direct

    assert LintEngine is direct is analyze.LintEngine
    assert sorted(code for rule in DEFAULT_RULES
                  for code in rule.codes) == sorted(RULE_INDEX)
    for name in analyze.__all__:
        assert getattr(analyze, name) is not None
    with pytest.raises(AttributeError, match="no_such_name"):
        analyze.no_such_name
