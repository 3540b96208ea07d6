"""CLI wiring of the model subsystem: model and sweep."""

import pytest

from repro.cli import FIGURES, build_parser, main


def test_parser_lists_new_commands():
    parser = build_parser()
    for command in ("model", "sweep"):
        assert parser.parse_args([command]).command == command


def test_model_figure_is_registered():
    assert "model" in FIGURES


# ----------------------------------------------------------------------
# repro sweep argument contract
# ----------------------------------------------------------------------
def test_sweep_rejects_bad_replications(capsys):
    assert main(["sweep", "--replications", "0"]) == 2
    assert "replications" in capsys.readouterr().err


def test_sweep_rejects_non_integer_sizes(capsys):
    assert main(["sweep", "--sizes", "2,x"]) == 2
    assert "sizes" in capsys.readouterr().err


def test_sweep_rejects_empty_grid(capsys):
    assert main(["sweep", "--protocols", ""]) == 2
    assert "protocol" in capsys.readouterr().err


def test_sweep_rejects_unknown_protocol(capsys):
    assert main(["sweep", "--protocols", "Z"]) == 2
    assert "error" in capsys.readouterr().err


def test_sweep_help_documents_pruning(capsys):
    with pytest.raises(SystemExit):
        main(["sweep", "--help"])
    out = capsys.readouterr().out
    assert "--prune-model" in out
    assert "40%" in out


def test_validate_model_help_reaches_subparser(capsys):
    with pytest.raises(SystemExit):
        main(["model", "--help"])
    assert "--replications" in capsys.readouterr().out


# ----------------------------------------------------------------------
# end-to-end on a tiny grid (1 replication, isolated cache)
# ----------------------------------------------------------------------
def test_sweep_prune_model_end_to_end(tmp_path, capsys):
    code = main(["sweep", "--prune-model", "--protocols", "C,L",
                 "--sizes", "2,14",
                 "--replications", "1",
                 "--cache-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    # Two light-load points simulated, two thrash points pruned.
    lines = out.splitlines()
    assert sum(line.endswith(" sim") for line in lines) == 2
    assert sum(line.endswith(" model") for line in lines) == 2
    assert all(line.startswith("~") for line in lines
               if line.endswith(" model"))
    assert "pruned 2/4" in out
    assert "50%" in out


def test_sweep_prune_model_reports_unprunable_protocols(tmp_path,
                                                        capsys):
    code = main(["sweep", "--prune-model", "--protocols", "mpcp,C",
                 "--sizes", "2,14",
                 "--replications", "1",
                 "--cache-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert [line.split()[-1] for line in out.splitlines()
            if "mpcp" in line] == ["sim", "sim"]
    assert "pruned 1/4" in out
    assert "kept top 1 by model percent_missed (min), 2 unprunable]" \
        in out


def test_sweep_unpruned_end_to_end(tmp_path, capsys):
    code = main(["sweep", "--protocols", "C", "--sizes", "2",
                 "--replications", "1", "--cache-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "percent_missed" in out
    assert "~" not in out
