"""Unit tests for each lint rule: every rule must fire on a minimal
violation and stay silent on the sanctioned alternative."""

import textwrap

import pytest

from repro.analyze.engine import LintEngine
from repro.analyze.rules import DEFAULT_RULES, RULE_INDEX


def lint(source, path="src/repro/example.py", select=None):
    engine = LintEngine(DEFAULT_RULES, select=select)
    return engine.check_source(textwrap.dedent(source), path)


def codes(findings):
    return [finding.code for finding in findings]


# ----------------------------------------------------------------------
# RPL001 — determinism: one row per (path, snippet, finding lines)
# ----------------------------------------------------------------------
WALL_CLOCK = """
    import time

    def f():
        return time.time()
"""
HOST_CLOCK = """
    import time

    def measure():
        return time.perf_counter()
"""
ALIASES = """
    import random
    import time

    stamp = time.time
    stamp()

    def f():
        draw = random.random
        return draw()
"""
EXAMPLE = "src/repro/example.py"
TELEMETRY = "src/repro/telemetry/example.py"

DETERMINISM_CASES = [
    # wall clocks, everywhere
    (EXAMPLE, WALL_CLOCK, [5], "flags_time_time"),
    (EXAMPLE, """
        import time as clock

        def f():
            return clock.time()
    """, [5], "flags_aliased_import"),
    (EXAMPLE, """
        from time import time

        def f():
            return time()
    """, [2, 5], "flags_from_import"),
    (EXAMPLE, """
        import datetime

        def f():
            return datetime.datetime.now()
    """, [5], "flags_datetime_now"),
    (EXAMPLE, """
        import time

        def f():
            return time.perf_counter() + time.monotonic()
    """, [], "allows_perf_counter_and_monotonic"),
    ("src/repro/exec/progress.py", WALL_CLOCK, [5],
     "exec_harness_is_not_exempt"),
    # global randomness, everywhere
    (EXAMPLE, """
        import random

        def f():
            return random.random() + random.randint(0, 9)
    """, [5, 5], "flags_global_random_calls"),
    (EXAMPLE, """
        from random import choice

        def f(items):
            return choice(items)
    """, [2, 5], "flags_from_random_import"),
    (EXAMPLE, """
        import os
        from secrets import token_bytes

        def f():
            return os.urandom(8)
    """, [3, 6], "flags_os_urandom_and_secrets"),
    (EXAMPLE, """
        from random import Random

        def f(seed):
            rng = Random(seed)
            return rng.random()
    """, [], "allows_seeded_random_streams"),
    # host clocks, in telemetry outside its gateway
    (TELEMETRY, HOST_CLOCK, [5], "flags_perf_counter_call"),
    (TELEMETRY, """
        import time

        def stamp():
            return time.time()
    """, [5], "flags_wall_clock_call"),
    (TELEMETRY, """
        import time as t

        def measure():
            return t.monotonic()
    """, [5], "flags_aliased_module"),
    (TELEMETRY, """
        from time import perf_counter

        def measure():
            return perf_counter()
    """, [2, 5], "flags_host_clock_from_import"),
    ("src/repro/telemetry/hostclock.py", HOST_CLOCK, [],
     "silent_in_gateway_module"),
    (TELEMETRY, """
        import time

        def name():
            return time.__name__
    """, [], "silent_on_harmless_time_attributes"),
    (TELEMETRY, """
        import time

        def measure():
            return time.perf_counter()  # noqa: RPL001
    """, [], "honours_noqa"),
    # the whole modules, in kernel / cc / dist
    ("src/repro/cc/base.py", HOST_CLOCK, [2, 5], "host_clock_in_cc"),
    ("src/repro/dist/network.py", HOST_CLOCK, [2, 5], "host_clock_in_dist"),
    ("src/repro/kernel/kernel.py", HOST_CLOCK, [2, 5],
     "host_clock_in_kernel"),
    ("src/repro/telemetry/registry.py", HOST_CLOCK, [5],
     "host_clock_in_telemetry"),
    ("src/repro/exec/executor.py", HOST_CLOCK, [], "host_clock_in_exec"),
    ("src/repro/bench/micro.py", HOST_CLOCK, [], "host_clock_in_bench"),
    ("src/repro/cli.py", HOST_CLOCK, [], "host_clock_in_cli"),
    ("tests/telemetry/test_registry.py", HOST_CLOCK, [],
     "host_clock_in_tests"),
    ("src/repro/kernel/widget.py", """
        import time

        def f():
            return 0
    """, [2], "flags_import_in_kernel_layer"),
    ("src/repro/cc/widget.py", """
        import time

        def f():
            clock = time.monotonic
            return clock()
    """, [2, 6], "flags_aliased_call_through_reaching_def"),
    ("src/repro/kernel/widget.py", """
        from random import Random
    """, [], "allows_random_Random_import"),
    ("src/repro/trace/widget.py", """
        import time
    """, [], "ignores_layers_outside_scope"),
    ("src/repro/kernel/rng.py", """
        import random
    """, [], "ignores_rng_module_itself"),
    # one alias pass and one report per location, in every layer
    ("src/repro/model/widget.py", ALIASES, [6, 10], "aliases_in_model"),
    (TELEMETRY, ALIASES, [6, 10], "aliases_in_telemetry"),
    ("src/repro/kernel/widget.py", WALL_CLOCK, [2, 5],
     "time_time_in_kernel_once"),
]


@pytest.mark.parametrize(
    "path, source, lines",
    [pytest.param(*case[:3], id=case[3]) for case in DETERMINISM_CASES])
def test_determinism(path, source, lines):
    findings = lint(source, path=path)
    assert [(f.line, f.code) for f in findings] == [
        (line, "RPL001") for line in lines]


def test_determinism_messages_name_the_source_and_the_way_out():
    call, = lint(WALL_CLOCK)
    assert "time.time()" in call.message
    assert "kernel.now" in call.message
    gateway, = lint(HOST_CLOCK, path=TELEMETRY)
    assert "host_clock" in gateway.message
    assert all("alias" in f.message
               for f in lint(ALIASES, path=TELEMETRY))


# ----------------------------------------------------------------------
# RPL003 / RPL004 — discarded syscalls
# ----------------------------------------------------------------------
def test_rpl003_flags_unyielded_syscall_in_generator():
    findings = lint("""
        def body(port, cpu):
            port.receive()
            yield cpu.use(1.0)
    """)
    assert codes(findings) == ["RPL003"]
    assert "never yielded" in findings[0].message


def test_rpl003_flags_bare_delay_constructor():
    findings = lint("""
        def body(kernel):
            Delay(5.0)
            yield Delay(1.0)
    """)
    assert codes(findings) == ["RPL003"]


def test_rpl004_flags_blocking_syscall_in_plain_function():
    findings = lint("""
        def helper(cpu):
            cpu.use(1.0)
    """)
    assert codes(findings) == ["RPL004"]


def test_rpl003_silent_when_syscalls_are_yielded():
    findings = lint("""
        def body(port, cpu):
            message = yield port.receive()
            yield cpu.use(1.0)
            return message
    """)
    assert findings == []


def test_rpl003_nested_function_scoping():
    # The inner non-generator discards a syscall: RPL004, not RPL003,
    # even though the outer function is a generator.
    findings = lint("""
        def outer(cpu):
            def inner():
                cpu.use(1.0)
            yield cpu.use(2.0)
            inner()
    """)
    assert codes(findings) == ["RPL004"]


# ----------------------------------------------------------------------
# RPL005 — fingerprint-unsafe config fields
# ----------------------------------------------------------------------
def test_rpl005_flags_set_typed_field():
    findings = lint("""
        import dataclasses
        from typing import Set

        @dataclasses.dataclass(frozen=True)
        class SweepConfig:
            names: Set[str] = dataclasses.field(default_factory=set)
    """)
    assert codes(findings) == ["RPL005"]
    assert "names" in findings[0].message


def test_rpl005_flags_callable_and_any():
    findings = lint("""
        import dataclasses
        from typing import Any, Callable

        @dataclasses.dataclass
        class HookConfig:
            hook: Callable = print
            blob: Any = None
    """)
    assert codes(findings) == ["RPL005", "RPL005"]


def test_rpl005_flags_unsafe_nested_container():
    findings = lint("""
        import dataclasses
        from typing import Dict, Set

        @dataclasses.dataclass
        class IndexConfig:
            index: Dict[str, Set[int]] = dataclasses.field(
                default_factory=dict)
    """)
    assert codes(findings) == ["RPL005"]


def test_rpl005_accepts_primitives_and_nested_configs():
    findings = lint("""
        import dataclasses
        from typing import Optional

        @dataclasses.dataclass(frozen=True)
        class InnerConfig:
            count: int = 0

        @dataclasses.dataclass(frozen=True)
        class OuterConfig:
            name: str = "x"
            scale: float = 1.0
            limit: Optional[int] = None
            inner: InnerConfig = dataclasses.field(
                default_factory=InnerConfig)
    """)
    assert findings == []


def test_rpl005_ignores_non_config_classes():
    findings = lint("""
        import dataclasses
        from typing import Set

        @dataclasses.dataclass
        class ScratchState:
            seen: Set[int] = dataclasses.field(default_factory=set)
    """)
    assert findings == []


def test_rpl005_real_config_module_is_clean():
    from pathlib import Path
    import repro.core.config as config_module
    engine = LintEngine(DEFAULT_RULES, select=["RPL005"])
    assert engine.check_file(Path(config_module.__file__)) == []


# ----------------------------------------------------------------------
# RPL007 — ad-hoc output in protocol/dist modules
# ----------------------------------------------------------------------
def test_rpl007_flags_print_in_cc_module():
    findings = lint("""
        def grant(request):
            print("granted", request)
    """, path="src/repro/cc/priority_ceiling.py")
    assert codes(findings) == ["RPL007"]
    assert "Tracer" in findings[0].message


def test_rpl007_flags_logging_in_dist_module():
    findings = lint("""
        import logging

        from logging import getLogger
    """, path="src/repro/dist/network.py")
    assert codes(findings) == ["RPL007", "RPL007"]


def test_rpl007_flags_logging_submodule_import():
    findings = lint("""
        import logging.handlers
    """, path="src/repro/dist/comms.py")
    assert codes(findings) == ["RPL007"]


def test_rpl007_silent_on_tracer_usage():
    findings = lint("""
        def deliver(kernel, dst, message, lag):
            hooks = kernel.hooks
            if hooks is not None:
                hooks.msg_deliver(kernel.now, dst, message, lag)
    """, path="src/repro/dist/network.py")
    assert findings == []


def test_rpl007_scoped_to_cc_and_dist_only():
    source = """
        def report(row):
            print(row)
    """
    assert codes(lint(source, path="src/repro/cli.py")) == []
    assert codes(lint(source, path="tests/dist/test_network.py")) == []


def test_rpl007_real_cc_and_dist_packages_are_clean():
    from pathlib import Path
    import repro.cc as cc_pkg
    import repro.dist as dist_pkg
    engine = LintEngine(DEFAULT_RULES, select=["RPL007"])
    for pkg in (cc_pkg, dist_pkg):
        for module_path in sorted(
                Path(pkg.__file__).parent.glob("*.py")):
            assert engine.check_file(module_path) == [], module_path


# ----------------------------------------------------------------------
# RPL008 — calls on the instrumentation slot outside its guard
# ----------------------------------------------------------------------
def test_rpl008_flags_unguarded_tracer_call():
    findings = lint("""
        def grant(self, request):
            self.kernel.hooks.lock_grant(self.kernel.now, self,
                                         request.txn, request.oid)
    """, path="src/repro/cc/base.py")
    assert codes(findings) == ["RPL008"]
    assert "self.kernel.hooks" in findings[0].message


def test_rpl008_silent_inside_is_not_none_guard():
    findings = lint("""
        def grant(self, request):
            if self.kernel.hooks is not None:
                self.kernel.hooks.lock_grant(self.kernel.now, self)
            hooks = self.kernel.hooks
            if hooks is not None:
                hooks.lock_release(self.kernel.now, self, request.txn, [])
    """, path="src/repro/cc/base.py")
    assert findings == []


def test_rpl008_guard_does_not_leak_past_its_branch():
    findings = lint("""
        def spawn(self, process):
            if self.hooks is not None:
                pass
            self.hooks.txn_start(self.now, process.payload)
    """, path="src/repro/kernel/kernel.py")
    assert codes(findings) == ["RPL008"]


def test_rpl008_accepts_early_return_guard():
    findings = lint("""
        def emit(self, event):
            if self.hooks is None:
                return
            self.hooks.txn_start(0.0, event)
    """, path="src/repro/kernel/kernel.py")
    assert findings == []


def test_rpl008_accepts_and_chain_and_ternary():
    findings = lint("""
        def emit(self, now, on):
            hooks = self.kernel.hooks
            due = hooks.sample_due() if hooks is not None else None
            ok = on and hooks is not None and hooks.rpc_stale(now)
            return due, ok
    """, path="src/repro/dist/network.py")
    assert findings == []


def test_rpl008_guard_does_not_cover_nested_function():
    findings = lint("""
        def arm(self):
            if self.hooks is not None:
                def later():
                    self.hooks.rpc_timeout(0.0)
                return later
    """, path="src/repro/kernel/kernel.py")
    assert codes(findings) == ["RPL008"]


def test_rpl008_scoped_to_hot_layers_only():
    source = """
        def report(self, row):
            self.kernel.hooks.txn_commit(0.0, row)
    """
    assert codes(lint(source, path="src/repro/trace/export.py")) == []
    assert codes(lint(source, path="tests/kernel/test_kernel.py")) == []
    # Probe and sanitizer hook sites are the slot's too: every
    # instrumented layer is patrolled, not just the tracer's three.
    for layer in ("kernel", "cc", "db", "dist", "txn", "resources"):
        assert codes(lint(
            source, path=f"src/repro/{layer}/module.py")) == ["RPL008"]


def test_rpl008_real_hot_packages_are_clean():
    from pathlib import Path
    import repro
    engine = LintEngine(DEFAULT_RULES, select=["RPL008"])
    for layer in ("kernel", "cc", "db", "dist", "txn", "resources"):
        for module_path in sorted(
                (Path(repro.__file__).parent / layer).rglob("*.py")):
            assert engine.check_file(module_path) == [], module_path


# ----------------------------------------------------------------------
# RPL009 — blocking-category literals outside repro.constants
# ----------------------------------------------------------------------
def test_rpl009_flags_category_literal_in_scoped_layer():
    source = """
        def classify():
            return "ceiling"
    """
    for path in ("src/repro/model/blocking.py",
                 "src/repro/trace/timeline.py",
                 "src/repro/cc/base.py"):
        findings = lint(source, path=path, select=["RPL009"])
        assert codes(findings) == ["RPL009"], path
        assert "BLOCKING_CEILING" in findings[0].message


def test_rpl009_silent_on_constant_use():
    findings = lint("""
        from repro.constants import BLOCKING_DIRECT

        def classify():
            return BLOCKING_DIRECT
    """, path="src/repro/cc/base.py", select=["RPL009"])
    assert findings == []


def test_rpl009_silent_outside_scoped_layers():
    source = """
        CAUSE = "direct"
    """
    assert lint(source, path="src/repro/kernel/kernel.py",
                select=["RPL009"]) == []
    assert lint(source, path="tests/trace/test_timeline.py",
                select=["RPL009"]) == []


def test_rpl009_ignores_unrelated_strings():
    findings = lint("""
        LABEL = "directory"  # not a category name
        MODE = "networking"
    """, path="src/repro/model/blocking.py", select=["RPL009"])
    assert findings == []


def test_rpl009_shipped_layers_are_clean():
    from pathlib import Path

    import repro.cc as cc_pkg
    import repro.model as model_pkg
    import repro.trace as trace_pkg
    engine = LintEngine(DEFAULT_RULES, select=["RPL009"])
    for pkg in (cc_pkg, trace_pkg, model_pkg):
        for module_path in sorted(
                Path(pkg.__file__).parent.glob("*.py")):
            assert engine.check_file(module_path) == [], module_path


# ----------------------------------------------------------------------
# engine behaviour
# ----------------------------------------------------------------------
def test_noqa_with_code_suppresses_only_that_code():
    findings = lint("""
        import time

        def f():
            return time.time()  # noqa: RPL001
    """)
    assert findings == []


def test_noqa_with_other_code_does_not_suppress():
    findings = lint("""
        import time

        def f():
            return time.time()  # noqa: RPL003
    """)
    assert codes(findings) == ["RPL001"]


BUSY_LINE = """
    import time

    def f(cpu):
        cpu.use(time.time())
"""


def test_bare_noqa_suppresses_everything_on_the_line():
    assert sorted(codes(lint(BUSY_LINE))) == ["RPL001", "RPL004"]
    assert lint(BUSY_LINE.replace("time())", "time())  # noqa")) == []


def test_select_restricts_the_rule_set():
    assert codes(lint(BUSY_LINE, select=["RPL004"])) == ["RPL004"]
    assert codes(lint(BUSY_LINE, select=["RPL001"])) == ["RPL001"]


def test_select_keeps_each_code_of_a_two_code_rule_apart():
    source = """
        def body(port, cpu):
            port.receive()
            yield cpu.use(1.0)

        def helper(cpu):
            cpu.use(1.0)
    """
    assert codes(lint(source)) == ["RPL003", "RPL004"]
    assert codes(lint(source, select=["RPL004"])) == ["RPL004"]
    assert codes(lint(source, select=["RPL003"])) == ["RPL003"]


def test_syntax_error_reports_rpl000():
    findings = lint("def broken(:\n    pass\n")
    assert codes(findings) == ["RPL000"]


def test_rule_index_covers_every_shipped_rule():
    shipped = [code for rule in DEFAULT_RULES for code in rule.codes]
    assert sorted(shipped) == sorted(RULE_INDEX)
