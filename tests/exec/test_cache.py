"""Result cache: roundtrips, the memory tier, corruption tolerance,
resolution."""

import json
import os
import tempfile
import threading

import pytest

from repro.exec import ResultCache, config_fingerprint, resolve_cache
from repro.exec.fingerprint import config_payload

from .conftest import tiny_config

ROW = {"throughput": 1.5, "processed": 15, "missed": 0,
       "label": "caf\u00e9", "nested": {"b": [1, 2.0], "a": None}}


def parent_put(cache, fingerprint, row, config):
    """``ResultCache.put`` as it was before the C-encoder write path:
    the writer of every entry already on disk."""
    path = cache.path_for(fingerprint)
    payload = {"fingerprint": fingerprint, "row": row,
               "config": json.loads(config_payload(config))}
    os.makedirs(os.path.dirname(path), exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        "w", dir=os.path.dirname(path), suffix=".tmp", delete=False,
        encoding="utf-8")
    json.dump(payload, handle)
    handle.close()
    os.replace(handle.name, path)


def entries(directory):
    return sorted(os.path.join(folder, name)
                  for folder, _, names in os.walk(directory)
                  for name in names)


def test_roundtrip(tmp_path):
    cache = ResultCache(tmp_path)
    config = tiny_config()
    fp = config_fingerprint(config)
    assert cache.get(fp) is None
    cache.put(fp, {"throughput": 1.5}, config=config)
    assert cache.get(fp) == {"throughput": 1.5}
    assert cache.hits == 1 and cache.misses == 1 and cache.writes == 1


def test_entries_are_self_describing(tmp_path):
    cache = ResultCache(tmp_path)
    config = tiny_config()
    fp = config_fingerprint(config)
    cache.put(fp, {"throughput": 1.5}, config=config)
    with open(cache.path_for(fp), encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["fingerprint"] == fp
    assert payload["config"]["config"]["__type__"] == "SingleSiteConfig"


def test_corrupt_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    fp = config_fingerprint(tiny_config())
    path = cache.path_for(fp)
    os.makedirs(os.path.dirname(path))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{torn")
    assert cache.get(fp) is None


def test_foreign_entry_is_a_miss(tmp_path):
    """A file whose recorded fingerprint disagrees is not trusted."""
    cache = ResultCache(tmp_path)
    fp = config_fingerprint(tiny_config())
    path = cache.path_for(fp)
    os.makedirs(os.path.dirname(path))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"fingerprint": "f" * 64, "row": {"x": 1}}, handle)
    assert cache.get(fp) is None


@pytest.mark.parametrize("content", [
    b"", b"\xff\xfe\x00garbage", b"[1, 2]", b'"text"', b"null",
    b'{"fingerprint": "FP"}', b'{"fingerprint": "FP", "row": [1]}',
    b'{"fingerprint": "FP", "row": {"x": 1}} trailing'])
def test_torn_or_misshapen_entries_are_misses(tmp_path, content):
    cache = ResultCache(tmp_path)
    fp = config_fingerprint(tiny_config())
    path = cache.path_for(fp)
    os.makedirs(os.path.dirname(path))
    with open(path, "wb") as handle:
        handle.write(content.replace(b"FP", fp.encode()))
    assert cache.get(fp) is None
    assert cache.misses == 1 and cache.hits == 0


def test_parent_written_entry_is_read_and_byte_equal(tmp_path):
    config = tiny_config()
    fp = config_fingerprint(config)
    old, new = ResultCache(tmp_path / "old"), ResultCache(tmp_path / "new")
    parent_put(old, fp, ROW, config)
    new.put(fp, ROW, config=config)
    assert old.get(fp) == ROW == new.get(fp)
    with open(old.path_for(fp), "rb") as handle:
        parent_bytes = handle.read()
    with open(new.path_for(fp), "rb") as handle:
        assert handle.read() == parent_bytes
    assert entries(new.directory) == [new.path_for(fp)]   # no temp left


def test_two_writers_on_one_fingerprint(tmp_path):
    """Concurrent writers of one entry never tear it: each replace
    installs a whole file, and the entry is the same whoever wins."""
    config = tiny_config()
    fp = config_fingerprint(config)
    caches = [ResultCache(tmp_path) for _ in range(4)]
    barrier = threading.Barrier(len(caches))
    torn = []

    def write(cache):
        barrier.wait(timeout=30)
        for _ in range(50):
            cache.put(fp, ROW, config=config)
            if cache.get(fp) != ROW:
                torn.append(cache)

    threads = [threading.Thread(target=write, args=(cache,))
               for cache in caches]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert not torn
    assert sum(cache.writes for cache in caches) == 200
    assert entries(tmp_path) == [caches[0].path_for(fp)]


def test_failed_replace_leaves_no_temp_file(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    fp = config_fingerprint(tiny_config())

    def refuse(src, dst):
        assert os.path.exists(src)       # the temp file was written
        raise PermissionError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    cache.put(fp, ROW, config=tiny_config())     # swallowed
    assert cache.writes == 0
    assert entries(tmp_path) == []
    monkeypatch.undo()
    assert cache.get(fp) is None


def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)

    def full(fd, data):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "write", full)
    cache.put("ab" + "0" * 62, ROW)
    assert cache.writes == 0
    assert entries(tmp_path) == []


def test_non_os_errors_still_clean_up_and_propagate(tmp_path):
    cache = ResultCache(tmp_path)
    with pytest.raises(TypeError):
        cache.put("ab" + "0" * 62, {"x": object()})
    assert entries(tmp_path) == []


@pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() == 0,
                    reason="permission bits do not bind root")
def test_read_only_directory_is_tolerated(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    os.makedirs(cache.directory)
    os.chmod(cache.directory, 0o500)
    try:
        cache.put("ab" + "0" * 62, ROW)      # must not raise
    finally:
        os.chmod(cache.directory, 0o700)
    assert cache.writes == 0
    assert entries(cache.directory) == []


def test_unwritable_target_is_tolerated(tmp_path):
    """Cache writes are best-effort: a broken cache path never raises.

    (A plain file where the cache directory should be defeats even
    root, unlike permission bits.)
    """
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    cache = ResultCache(blocker)
    cache.put("ab" + "0" * 62, {"x": 1.0})   # must not raise
    assert cache.writes == 0


def test_resolve_cache_explicit_forms(tmp_path):
    store = ResultCache(tmp_path)
    assert resolve_cache(store) is store
    assert resolve_cache(False) is None
    assert resolve_cache(str(tmp_path)).directory == str(tmp_path)
    assert resolve_cache(True) is not None


def test_resolve_cache_environment(tmp_path, monkeypatch):
    assert resolve_cache(None) is None    # library default: off
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert resolve_cache(None).directory == str(tmp_path)
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    assert resolve_cache(None) is None


def test_a_hit_is_served_after_its_entry_is_deleted(tmp_path):
    """Rows a cache wrote or read are remembered by that instance."""
    config = tiny_config()
    fp = config_fingerprint(config)
    writer, reader = ResultCache(tmp_path), ResultCache(tmp_path)
    writer.put(fp, ROW, config=config)
    assert reader.get(fp) == ROW                 # read from disk
    os.unlink(writer.path_for(fp))
    assert writer.get(fp) == ROW == reader.get(fp)
    assert ResultCache(tmp_path).get(fp) is None


@pytest.mark.parametrize("on_disk", [True, False])
def test_rows_go_in_and_come_out_as_copies(tmp_path, on_disk):
    cache = ResultCache(tmp_path if on_disk else None)
    fp = config_fingerprint(tiny_config())
    row = {"throughput": 1.5, "processed": 15}
    cache.put(fp, row)
    row["throughput"] = -1.0
    hit = cache.get(fp)
    assert hit == {"throughput": 1.5, "processed": 15}
    hit["processed"] = -1
    del hit["throughput"]
    assert cache.get(fp) == {"throughput": 1.5, "processed": 15}


def test_memory_only_cache_touches_no_disk(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cache = ResultCache(None)
    fp = config_fingerprint(tiny_config())
    assert cache.get(fp) is None
    cache.put(fp, ROW, config=tiny_config())
    assert cache.get(fp) == ROW
    assert cache.directory is None
    assert (cache.hits, cache.misses, cache.writes) == (1, 1, 0)
    assert entries(tmp_path) == []
    with pytest.raises(ValueError):
        cache.path_for(fp)


def test_counters_keep_their_meaning(tmp_path):
    """A memory hit is a hit; ``writes`` counts disk entries only."""
    cache = ResultCache(tmp_path)
    fps = [config_fingerprint(tiny_config(seed=seed))
           for seed in (1, 2)]
    assert cache.get(fps[0]) is None
    cache.put(fps[0], ROW)
    for __ in range(3):
        assert cache.get(fps[0]) == ROW
    assert cache.get(fps[1]) is None
    assert (cache.hits, cache.misses, cache.writes) == (3, 2, 1)
    assert len(entries(tmp_path)) == 1
