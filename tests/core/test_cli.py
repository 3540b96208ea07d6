"""CLI: argument handling and a smoke run of a small command."""

import ast
import dataclasses
import os
import re

import pytest

import repro
from repro.cli import FIGURES, TOOLS, _run_figures, build_parser, main
from tests.conftest import observers

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def test_parser_accepts_every_command():
    parser = build_parser()
    assert len(FIGURES) + len(TOOLS) == 25
    for command in [*FIGURES, *TOOLS]:
        args = parser.parse_args([command])
        assert args.command == command
        assert args.replications == 5


def test_parser_rejects_unknown_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["fig99"])


def test_replications_flag():
    parser = build_parser()
    args = parser.parse_args(["fig2", "--replications", "2"])
    assert args.replications == 2


def test_exec_flags():
    parser = build_parser()
    args = parser.parse_args(["fig2", "--jobs", "4", "--no-cache",
                              "--cache-dir", "/tmp/x", "--progress"])
    assert args.jobs == 4
    assert args.no_cache
    assert args.cache_dir == "/tmp/x"
    assert args.progress
    defaults = parser.parse_args(["fig2"])
    assert defaults.jobs is None and not defaults.no_cache


def test_invalid_replications_returns_error_code(capsys):
    code = main(["fig2", "--replications", "0"])
    assert code == 2
    assert "replications" in capsys.readouterr().err


def test_invalid_jobs_returns_error_code(capsys):
    code = main(["fig2", "--jobs", "0"])
    assert code == 2
    assert "jobs" in capsys.readouterr().err


def test_a3_command_runs_and_prints_table(capsys, tmp_path):
    # A3 is the cheapest sweep; run it end-to-end at 1 replication.
    code = main(["a3", "--replications", "1",
                 "--cache-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "Ablation A3" in out
    assert "db size" in out
    assert "[a3:" in out
    assert "cache hits" in out


def test_warm_cache_run_recomputes_nothing(capsys, tmp_path):
    main(["a3", "--replications", "1", "--cache-dir", str(tmp_path)])
    capsys.readouterr()
    code = main(["a3", "--replications", "1",
                 "--cache-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "0 computed" in out
    assert "8 cache hits" in out


def test_no_cache_flag_skips_the_cache(capsys, tmp_path):
    main(["a3", "--replications", "1", "--cache-dir", str(tmp_path),
          "--no-cache"])
    out = capsys.readouterr().out
    assert "0 cache hits" in out
    assert not list(tmp_path.iterdir())


def test_no_cache_flag_beats_the_environment(capsys, tmp_path,
                                             monkeypatch):
    # ``cache=None`` means "ask the environment" to ``resolve_cache``,
    # so ``--no-cache`` has to say False or REPRO_CACHE_DIR wins.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    for __ in range(2):
        assert main(["a3", "--replications", "1", "--no-cache"]) == 0
        assert "8 computed, 0 cache hits" in capsys.readouterr().out
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("value", ["1", "yes"])
def test_no_cache_environment_variable_is_the_flag(capsys, tmp_path,
                                                   monkeypatch, value):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_NO_CACHE", value)
    assert main(["a3", "--replications", "1"]) == 0
    assert "8 computed, 0 cache hits" in capsys.readouterr().out
    assert not list(tmp_path.iterdir())


def test_no_cache_computes_a_shared_unit_once(capsys):
    """fig6 is fig4's grid: under ``--no-cache`` one invocation serves
    it from memory, and prints what a run of its own prints."""
    def printed(text):
        """The tables and verdicts, without the ``[name: ...]``
        trailers (they carry wall time)."""
        return [line for line in text.splitlines()
                if not re.match(r"\[(fig4|fig6): ", line)]

    args = build_parser().parse_args(
        ["fig4", "--replications", "1", "--no-cache"])
    _run_figures(["fig4", "fig6"], args)
    both = capsys.readouterr().out
    assert "16 units, 0 computed, 16 cache hits]" in both
    main(["fig4", "--replications", "1", "--no-cache"])
    main(["fig6", "--replications", "1", "--no-cache"])
    alone = capsys.readouterr().out
    assert "0 cache hits]" in alone.splitlines()[-2]
    assert printed(both) == printed(alone)


def test_a5_runs_on_the_engine(capsys):
    assert main(["a5", "--replications", "1", "--no-cache"]) == 0
    assert "4 units, 4 computed" in capsys.readouterr().out


def test_trailer_reports_the_replications_that_ran(capsys,
                                                   monkeypatch):
    # a4 halves the request; the trailer names the count it used.
    a4 = FIGURES["a4"]
    # The claims name delays the cut grid lacks.
    monkeypatch.setitem(FIGURES, "a4", dataclasses.replace(
        a4, spec=dataclasses.replace(a4.spec, values=a4.spec.values[:1],
                                     claims=())))
    assert main(["a4", "--replications", "3", "--no-cache"]) == 0
    assert "s, 1 replications]" in capsys.readouterr().out


def test_a_failed_claim_is_exit_status_1(capsys):
    # One replication leaves the local approach no misses at delays 0
    # and 2, so the capped ratio reads 100 at both: no rapid rise.
    assert main(["fig5", "--replications", "1", "--no-cache"]) == 1
    out = capsys.readouterr().out
    assert any(line.startswith("[FAIL] rapid rise: ")
               for line in out.splitlines())


def test_claims_print_between_the_tables_and_the_trailer(capsys):
    assert main(["fig2", "--replications", "1", "--no-cache"]) == 0
    lines = capsys.readouterr().out.splitlines()
    verdicts = [index for index, line in enumerate(lines)
                if line.startswith("[PASS] ")]
    assert len(verdicts) == len(FIGURES["fig2"].spec.claims)
    assert lines[verdicts[0] - 1].startswith("20 ")
    assert lines[verdicts[-1] + 1].startswith("[fig2: ")


def test_every_command_has_a_description():
    assert not set(FIGURES) & set(TOOLS)
    for figure in FIGURES.values():
        assert figure.spec.tables
        assert figure.help
    for module, function, description in TOOLS.values():
        assert module.startswith(".") and function
        assert description


def test_every_tool_reaches_its_own_parser(capsys):
    for name in TOOLS:
        with pytest.raises(SystemExit) as excinfo:
            main([name, "-h"])
        assert excinfo.value.code == 0
        assert "usage: repro" in capsys.readouterr().out


def test_options_before_a_tool_name_are_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--jobs", "2", "lint"])
    assert excinfo.value.code == 2
    assert "repro lint -h" in capsys.readouterr().err


def test_help_lists_each_command_once(capsys):
    with pytest.raises(SystemExit):
        main(["-h"])
    lines = capsys.readouterr().out.splitlines()
    for name in [*FIGURES, *TOOLS]:
        assert sum(line.startswith(f"  {name} ")
                   for line in lines) == 1, name


def test_all_runs_what_no_other_figure_covers():
    skipped = [name for name, figure in FIGURES.items()
               if not figure.in_all]
    assert skipped == ["fig2", "fig3"]


@pytest.mark.parametrize("command", [
    ["run"], ["sweep"], ["model"]])
@pytest.mark.parametrize("flag", ["--jobs", "--replications"])
def test_option_block_is_validated_for_every_simulating_command(
        capsys, command, flag):
    assert main(command + [flag, "0"]) == 2
    assert capsys.readouterr().err == f"error: {flag} must be >= 1\n"


def test_sweep_checks_the_metric_before_printing_the_header(
        capsys, tmp_path):
    code = main(["sweep", "--metric", "nope", "--sizes", "2",
                 "--protocols", "C", "--replications", "1",
                 "--cache-dir", str(tmp_path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "nope" in captured.err


def test_a_failed_unit_is_an_error_line_not_a_traceback(capsys,
                                                       monkeypatch):
    from repro.exec import worker
    real = worker.execute_config

    def execute_config(config, batch=1):
        if config.seed == 1001:
            raise RuntimeError("seed 1001 is broken")
        return real(config, batch=batch)

    monkeypatch.setattr(worker, "execute_config", execute_config)
    assert main(["sweep", "--sizes", "2", "--protocols", "C",
                 "--replications", "2", "--no-cache"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: 1 unit(s) failed: unit #1 ")
    assert "seed=1001" in err.splitlines()[0]
    assert "RuntimeError('seed 1001 is broken')" in err.splitlines()[0]
    # The worker's traceback follows the one error line.
    assert "Traceback (most recent call last)" in err
    assert err.rstrip().endswith("RuntimeError: seed 1001 is broken")


def test_an_observed_run_leaves_the_process_as_it_found_it(
        capsys, tmp_path, monkeypatch, unobserved):
    names = ("REPRO_METRICS_DIR", "REPRO_TRACE_DIR", "REPRO_SANITIZE")
    for name in names:
        # Set first, so teardown removes it even if ``main`` leaks it.
        monkeypatch.setenv(name, "")
        monkeypatch.delenv(name)
    metrics, trace = tmp_path / "metrics", tmp_path / "trace"
    run = ["run", "--transactions", "10", "--replications", "1",
           "--no-cache"]
    assert main(run + ["--mode", "local", "--metrics", str(metrics),
                       "--trace", str(trace), "--sanitize"]) == 0
    written = sorted(os.listdir(metrics)), sorted(os.listdir(trace))
    assert written[0] and written[1]
    assert [name for name in names if name in os.environ] == []
    assert observers() == []
    assert main(run + ["--mode", "global"]) == 0
    assert (sorted(os.listdir(metrics)),
            sorted(os.listdir(trace))) == written
    # Unobserved, a kernel itself would keep the environment's
    # sanitizer in the activation.
    assert main(run + ["--mode", "global", "--sanitize"]) == 0
    assert observers() == []
    capsys.readouterr()


def test_exec_option_block_is_declared_once():
    package = os.path.dirname(os.path.abspath(repro.__file__))
    declared = []
    for directory, __, names in os.walk(package):
        for name in names:
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                with open(path, encoding="utf-8") as handle:
                    declared += [path] * handle.read().count(
                        '"--no-cache"')
    assert declared == [os.path.join(package, "cli.py")]


def test_ci_runs_known_commands_and_each_test_once():
    yaml = pytest.importorskip("yaml")
    with open(os.path.join(ROOT, ".github", "workflows", "ci.yml"),
              encoding="utf-8") as handle:
        jobs = yaml.safe_load(handle)["jobs"]
    commands, pytest_jobs = set(), set()
    for job, body in jobs.items():
        for step in body["steps"]:
            script = step.get("run", "").replace("\\\n", " ")
            commands.update(re.findall(r"python -m repro ([\w-]+)",
                                       script))
            if any("perfbench/tests" not in arguments for arguments
                   in re.findall(r"-m pytest\b(.*)", script)):
                pytest_jobs.add(job)
    assert commands and commands <= {*FIGURES, *TOOLS}
    # tests/ is collected whole by `tests` and, on the other engine,
    # by `engine`; a `pytest tests/<subset>` elsewhere is a re-run.
    assert pytest_jobs == {"tests", "engine"}


@pytest.mark.parametrize("module", ("global_ceiling", "local_ceiling"))
def test_transaction_managers_do_not_know_the_transport(module):
    # The system builds the transport and the TMs receive it: whether
    # the network can lose a message is not a name in their source.
    banned = ("recovery", "policy", "RecoveryPolicy", "courier",
              "DirectComms", "ReliableComms")
    path = os.path.join(os.path.dirname(os.path.abspath(repro.__file__)),
                        "dist", module + ".py")
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    names = set()
    for node in ast.walk(tree):
        for field in ("id", "attr", "arg", "name", "asname"):
            value = getattr(node, field, None)
            if isinstance(value, str):
                names.add(value)
    assert names
    assert not sorted(name for name in names
                      if any(word in name for word in banned))
