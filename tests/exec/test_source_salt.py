"""The salt carries a hash of the sources that compute a summary row."""

import os
import shutil
import subprocess
import sys

import pytest

import repro
from repro.exec import fingerprint
from repro.exec.fingerprint import (CODE_VERSION, EXEMPT_SOURCES,
                                    HASHED_SOURCES, cache_salt,
                                    config_fingerprint, source_digest)

from .conftest import tiny_config

PACKAGE = os.path.dirname(os.path.abspath(repro.__file__))


def package_entries():
    """Top-level entries of ``src/repro``, with ``core`` — the one
    package split between the two tables — listed file by file."""
    entries = []
    for name in sorted(os.listdir(PACKAGE)):
        path = os.path.join(PACKAGE, name)
        if name == "core":
            entries += [f"core/{module}"
                        for module in sorted(os.listdir(path))
                        if module.endswith(".py")]
        elif name.endswith(".py") or os.path.isfile(
                os.path.join(path, "__init__.py")):
            entries.append(name)
    return entries


def test_every_package_is_classified_exactly_once():
    hashed, exempt = set(HASHED_SOURCES), set(EXEMPT_SOURCES)
    assert not hashed & exempt
    assert len(hashed) == len(HASHED_SOURCES)
    assert len(exempt) == len(EXEMPT_SOURCES)
    # A new package or core module must be put in one of the tables.
    assert sorted(hashed | exempt) == package_entries()


@pytest.fixture
def package_copy(tmp_path, monkeypatch):
    """A scratch copy of the package that fingerprints are salted from."""
    root = tmp_path / "repro"
    shutil.copytree(PACKAGE, root,
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(fingerprint, "_PACKAGE_ROOT", str(root))
    fingerprint._code_version_token.cache_clear()
    yield root
    fingerprint._code_version_token.cache_clear()


def edit_one_byte(path):
    data = path.read_bytes()
    path.write_bytes(data[:-1] + (b"\t" if data[-1:] != b"\t" else b" "))


def test_copy_fingerprints_like_the_package(package_copy):
    assert source_digest(str(package_copy)) == source_digest(PACKAGE)


@pytest.mark.parametrize("relative", [
    "kernel/events.py", "cc/base.py", "core/monitor.py", "constants.py",
    "kernel/turbo/__init__.py", "faults/plan.py"])
def test_editing_a_hashed_source_moves_the_fingerprint(package_copy,
                                                       relative):
    before = config_fingerprint(tiny_config())
    edit_one_byte(package_copy / relative)
    fingerprint._code_version_token.cache_clear()
    assert config_fingerprint(tiny_config()) != before


@pytest.mark.parametrize("relative", [
    "exec/cache.py", "core/metrics.py", "analyze/rules.py", "cli.py",
    "trace/tracer.py"])
def test_editing_an_exempt_source_keeps_the_fingerprint(package_copy,
                                                        relative):
    before = config_fingerprint(tiny_config())
    edit_one_byte(package_copy / relative)
    (package_copy / "kernel" / "notes.txt").write_text("not a source")
    fingerprint._code_version_token.cache_clear()
    assert config_fingerprint(tiny_config()) == before


def test_token_is_kept_for_the_process(package_copy):
    before = cache_salt()
    edit_one_byte(package_copy / "kernel" / "events.py")
    assert cache_salt() == before      # hashed once, not per call


def test_salt_keeps_the_manual_version_and_the_user_partition(
        monkeypatch):
    salt = cache_salt()
    assert salt.startswith(CODE_VERSION + "@")
    assert len(salt) == len(CODE_VERSION) + 1 + 16
    assert cache_salt("branch-x") == salt + "+branch-x"
    monkeypatch.setenv("REPRO_CACHE_SALT", "branch-y")
    assert cache_salt() == salt + "+branch-y"


def test_unreadable_sources_fall_back_to_the_manual_version(
        package_copy):
    shutil.rmtree(package_copy / "txn")
    fingerprint._code_version_token.cache_clear()
    assert cache_salt() == CODE_VERSION
    # A package with bytecode but no source is as unreadable.
    (package_copy / "txn").mkdir()
    (package_copy / "txn" / "manager.pyc").write_bytes(b"\0")
    fingerprint._code_version_token.cache_clear()
    assert cache_salt("x") == CODE_VERSION + "+x"


def test_nothing_is_hashed_at_import():
    code = (
        "import repro\n"
        "from repro.exec import fingerprint, ResultCache\n"
        "assert fingerprint._code_version_token.cache_info()"
        ".currsize == 0\n"
        "fingerprint.config_fingerprint(repro.SingleSiteConfig())\n"
        "assert fingerprint._code_version_token.cache_info()"
        ".currsize == 1\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
