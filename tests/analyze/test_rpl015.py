"""RPL015: event-queue internals must stay behind the queue API.

Two interchangeable event cores (the reference tuple heap in
``kernel/events.py`` and the turbo calendar in ``kernel/turbo/``)
promise bitwise-identical results.  Code that reaches into either
representation (``events._heap``, ``events._drain``, dead counters)
would silently break on the other engine, so the rule bans those
attribute reads everywhere except the two engine homes.
"""
import textwrap
from pathlib import Path

from repro.analyze.engine import LintEngine, iter_python_files
from repro.analyze.rules import DEFAULT_RULES, RULE_INDEX


def lint(source, path="src/repro/cc/base.py"):
    engine = LintEngine(DEFAULT_RULES, select=["RPL015"])
    return engine.check_source(textwrap.dedent(source), path)


def codes(source, path="src/repro/cc/base.py"):
    return [finding.code for finding in lint(source, path)]


def test_rule_is_registered():
    assert "RPL015" in RULE_INDEX


def test_fires_on_heap_access_through_events_name():
    source = """
    def drain(events):
        while events._heap:
            events._heap.pop()
    """
    assert codes(source) == ["RPL015", "RPL015"]


def test_fires_on_attribute_chained_queue_base():
    source = """
    class Probe:
        def snapshot(self, kernel):
            return len(kernel.events._heap) + kernel.events._dead
    """
    assert codes(source) == ["RPL015", "RPL015"]


def test_fires_on_private_events_attribute_base():
    source = """
    class Harness:
        def peek(self):
            return self._events._buckets
    """
    assert codes(source) == ["RPL015"]


def test_fires_on_turbo_internals_from_outside():
    source = """
    def inspect(queue):
        return queue._drain, queue._spill, queue._freelist
    """
    assert codes(source) == ["RPL015", "RPL015", "RPL015"]


def test_silent_on_unrelated_seq_counter():
    # Wait queues and transaction managers keep their own ``_seq``
    # arrival counters on ``self`` — not a queue-shaped base.
    source = """
    class WaitQueue:
        def push(self, item):
            self._seq += 1
            return (self._seq, item)
    """
    assert codes(source) == []


def test_silent_on_sanctioned_queue_api():
    source = """
    def pump(events):
        entry = events.prepare_dispatch()
        events.note_dead(1)
        return events.queue_stats(), list(events.live_entries())
    """
    assert codes(source) == []


def test_silent_inside_reference_engine_module():
    source = """
    def compact(events):
        events._heap.sort()
    """
    assert codes(source, path="src/repro/kernel/events.py") == []


def test_silent_inside_turbo_package():
    source = """
    def advance(events):
        events._drain.extend(events._spill)
    """
    assert codes(source, path="src/repro/kernel/turbo/engine.py") == []


def test_silent_in_tests():
    source = """
    def test_heap_shape(events):
        assert events._heap == []
    """
    assert codes(source, path="tests/kernel/test_events.py") == []


def test_fires_on_kernel_clock_write_outside_the_kernel_package():
    # ``Kernel.now`` is a plain attribute so that reads cost no frame;
    # the price is that only lint stops model code from moving time.
    source = """
    class Harness:
        def skip_ahead(self, kernel, site):
            kernel.now = 10.0
            self.kernel.now += 1.0
            site._kernel.now = 0.0
    """
    assert codes(source) == ["RPL015", "RPL015", "RPL015"]
    assert "kernel.now" in lint(source)[0].message


def test_silent_on_kernel_clock_reads_and_unrelated_now_fields():
    source = """
    class Probe:
        def sample(self, kernel):
            self.now = kernel.now
            started = self.kernel.now
            self.clock.now = started
            return kernel.now - started
    """
    assert codes(source) == []


def test_silent_on_clock_write_inside_the_kernel_package():
    source = """
    def run(kernel, time):
        kernel.now = time
    """
    assert codes(source, path="src/repro/kernel/controlled.py") == []
    assert codes(source, path="src/repro/kernel/turbo/engine.py") == []


def test_honours_noqa():
    source = """
    def snapshot(events):
        return list(events._heap)  # noqa: RPL015
    """
    assert codes(source) == []


def test_shipped_package_is_clean():
    import repro

    engine = LintEngine(DEFAULT_RULES, select=["RPL015"])
    package_root = Path(repro.__file__).parent
    for module_path in iter_python_files([package_root]):
        assert engine.check_file(module_path) == []
