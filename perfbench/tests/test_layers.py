"""Layer map and profile attribution."""

import os

import pytest

from perfbench.layers import (LAYERS, REPRO_DIR, Attribution,
                              check_source_tree, layer_of_path, probe)


def test_every_repro_module_maps_to_exactly_one_layer():
    mapping = check_source_tree()
    assert set(mapping.values()) <= set(LAYERS)
    on_disk = {entry for entry in os.listdir(REPRO_DIR)
               if entry != "__pycache__"}
    assert set(mapping) == on_disk
    for layer in ("kernel", "resources", "db", "cc", "txn", "dist",
                  "core", "exec", "protocols"):
        assert mapping[layer] == layer


def test_unmapped_package_fails_loudly(tmp_path):
    (tmp_path / "kernel").mkdir()
    (tmp_path / "brand_new_layer").mkdir()
    with pytest.raises(KeyError, match="brand_new_layer"):
        check_source_tree(str(tmp_path))


def test_paths_outside_repro_have_no_layer():
    assert layer_of_path("~") is None
    assert layer_of_path("/usr/lib/python3/heapq.py") is None
    assert layer_of_path(os.path.join(REPRO_DIR, "cc", "base.py")) == "cc"
    assert layer_of_path(os.path.join(REPRO_DIR, "cli.py")) == "tools"


def _func(package, name):
    return (os.path.join(REPRO_DIR, package, "mod.py"), 1, name)


def test_builtin_time_and_calls_go_to_the_calling_layer():
    harness = ("/bench/harness.py", 1, "run_round")
    kernel, cc = _func("kernel", "step"), _func("cc", "acquire")
    heappush = ("~", 0, "<built-in heappush>")
    dumps = ("/usr/lib/python3/json/__init__.py", 1, "dumps")
    encode = ("/usr/lib/python3/json/encoder.py", 1, "encode")
    stats = {
        # func: (cc, nc, tt, ct, callers{caller: (cc, nc, tt, ct)})
        harness: (1, 1, 1.0, 20.0, {}),
        kernel: (10, 10, 4.0, 12.0, {harness: (10, 10, 4.0, 12.0)}),
        cc: (5, 5, 2.0, 6.0, {kernel: (5, 5, 2.0, 6.0)}),
        heappush: (40, 40, 4.0, 4.0, {kernel: (30, 30, 3.0, 3.0),
                                      cc: (10, 10, 1.0, 1.0)}),
        dumps: (2, 2, 1.0, 3.0, {cc: (2, 2, 1.0, 3.0)}),
        # stdlib called from stdlib: follows dumps up to cc
        encode: (2, 2, 2.0, 2.0, {dumps: (2, 2, 2.0, 2.0)}),
    }
    attribution = Attribution(stats)
    assert attribution.calls["kernel"] == 10 + 30
    assert attribution.calls["cc"] == 5 + 10 + 2 + 2
    assert attribution.calls["py"] == 1
    assert attribution.total_calls == sum(e[1] for e in stats.values())
    assert attribution.self_s["kernel"] == pytest.approx(7.0)
    assert attribution.self_s["cc"] == pytest.approx(2.0 + 1 + 1 + 2)
    assert sum(attribution.self_share().values()) == pytest.approx(1.0)
    assert probe(stats, "cc/mod.py", ("acquire",)) == (5, 6.0)


def test_recursive_stdlib_functions_do_not_loop():
    cc = _func("cc", "acquire")
    deepcopy = ("/usr/lib/python3/copy.py", 1, "deepcopy")
    helper = ("/usr/lib/python3/copy.py", 2, "_deepcopy_list")
    stats = {
        cc: (1, 1, 1.0, 9.0, {}),
        deepcopy: (5, 9, 4.0, 8.0, {cc: (1, 1, 1.0, 8.0),
                                    helper: (4, 8, 3.0, 6.0)}),
        helper: (4, 8, 4.0, 7.0, {deepcopy: (4, 8, 4.0, 7.0)}),
    }
    attribution = Attribution(stats)
    assert attribution.total_calls == pytest.approx(18)
    assert attribution.calls["cc"] == pytest.approx(18)
