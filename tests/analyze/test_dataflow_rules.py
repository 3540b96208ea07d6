"""Flow-aware lint rules (RPL010, RPL012): each must fire on a minimal
violation resolved *through* the dataflow layer (reaching definitions,
module constants, reference-graph reachability) and stay silent on the
sanctioned alternative."""

import textwrap

import pytest

from repro.analyze.engine import LintEngine
from repro.analyze.rules import DEFAULT_RULES, RULE_INDEX


def lint(source, path="src/repro/example.py", select=None):
    engine = LintEngine(DEFAULT_RULES, select=select)
    return engine.check_source(textwrap.dedent(source), path)


def codes(findings):
    return [finding.code for finding in findings]


def test_flow_rules_are_registered():
    for code in ("RPL010", "RPL012"):
        assert code in RULE_INDEX


# ----------------------------------------------------------------------
# RPL010 — dynamic RNG stream name
# ----------------------------------------------------------------------
def test_rpl010_flags_runtime_computed_stream_name():
    findings = lint("""
        def f(rng, txn):
            return rng.stream("txn-" + str(txn.tid))
    """, select=["RPL010"])
    assert codes(findings) == ["RPL010"]
    assert "statically derivable" in findings[0].message


def test_rpl010_flags_fstring_over_local_variable():
    findings = lint("""
        def f(rng, site):
            label = site.pick()
            return rng.stream(f"io-{label}")
    """, select=["RPL010"])
    assert codes(findings) == ["RPL010"]


def test_rpl010_flags_helper_call_with_dynamic_fstring():
    findings = lint("""
        def f(rng, txn):
            return rng.stream(f"arrival-{txn.label()}")
    """, select=["RPL010"])
    assert codes(findings) == ["RPL010"]
    assert findings[0].line == 3


def test_rpl010_allows_string_literal():
    findings = lint("""
        def f(rng):
            return rng.stream("arrivals")
    """, select=["RPL010"])
    assert findings == []


def test_rpl010_allows_module_constant_reached_by_name():
    findings = lint("""
        STREAM = "service"

        def f(rng):
            name = STREAM
            return rng.stream(name)
    """, select=["RPL010"])
    assert findings == []


def test_rpl010_allows_fstring_over_constants_and_attributes():
    findings = lint("""
        PREFIX = "disk"

        def f(rng, site):
            return rng.stream(f"{PREFIX}-{site.name}")
    """, select=["RPL010"])
    assert findings == []


def test_rpl010_flags_reassigned_name():
    # A name with one constant def and one runtime def is not
    # provably constant: the rule must stay sound and flag it.
    findings = lint("""
        def f(rng, txn):
            name = "arrivals"
            if txn.hot:
                name = txn.label()
            return rng.stream(name)
    """, select=["RPL010"])
    assert codes(findings) == ["RPL010"]


# ----------------------------------------------------------------------
# RPL012 — orphaned mutation of shared protocol state
# ----------------------------------------------------------------------
def test_rpl012_flags_unreachable_mutating_helper():
    findings = lint("""
        class Manager:
            def acquire(self, txn, oid):
                self.waiting.append(txn)

            def _sneaky_flush(self):
                self.waiting.clear()
    """, path="src/repro/cc/widget.py", select=["RPL012"])
    assert codes(findings) == ["RPL012"]
    assert "_sneaky_flush" in findings[0].message


def test_rpl012_allows_helper_reached_from_public_method():
    findings = lint("""
        class Manager:
            def acquire(self, txn, oid):
                self._enqueue(txn)

            def _enqueue(self, txn):
                self.waiting.append(txn)
    """, path="src/repro/cc/widget.py", select=["RPL012"])
    assert findings == []


def test_rpl012_allows_helper_reached_through_callback_reference():
    # The kernel idiom: a method passed as a value, never called by
    # name in this module.  The reference graph must count it.
    findings = lint("""
        class Manager:
            def acquire(self, txn):
                txn.process.resume(self._wake)

            def _wake(self, txn):
                self.waiting.remove(txn)
    """, path="src/repro/cc/widget.py", select=["RPL012"])
    assert findings == []


def test_rpl012_allows_hook_of_externally_based_class():
    # The base class lives in another module and may call _after_change
    # as a protocol hook: assume reachable.
    findings = lint("""
        from repro.cc.base import ConcurrencyControl

        class Variant(ConcurrencyControl):
            def _after_change(self):
                self.waiting.sort(key=lambda r: r.txn.priority)
    """, path="src/repro/cc/widget.py", select=["RPL012"])
    assert findings == []


@pytest.mark.parametrize("mutation", [
    "self.active[txn.tid] = txn",
    "del self.active[txn.tid]",
    "self._shared.pop(txn.tid)",
    "self._inheriting.discard(txn.tid)",
    "self._inheriting_txn.pop(txn.tid)",
])
def test_rpl012_patrols_the_tid_keyed_tables(mutation):
    findings = lint(f"""
        class Manager:
            def acquire(self, txn, oid):
                self.waiting.append(txn)

            def _forget(self, txn):
                {mutation}
    """, path="src/repro/cc/widget.py", select=["RPL012"])
    assert codes(findings) == ["RPL012"]
    assert "_forget" in findings[0].message


def test_rpl012_allows_tid_keyed_tables_mutated_from_the_api():
    findings = lint("""
        class Manager:
            def register(self, txn):
                self.active[txn.tid] = txn

            def release_all(self, txn):
                self._settle(txn)

            def _settle(self, txn):
                self._inheriting.discard(txn.tid)
                self._inheriting_txn.pop(txn.tid, None)
                del self._shared[txn.tid]
    """, path="src/repro/cc/widget.py", select=["RPL012"])
    assert findings == []


def test_rpl012_ignores_layers_outside_scope():
    findings = lint("""
        class Helper:
            def _stash(self):
                self.waiting.clear()
    """, path="src/repro/kernel/widget.py", select=["RPL012"])
    assert findings == []


# ----------------------------------------------------------------------
# noqa interplay (satellite: trailing prose after the code)
# ----------------------------------------------------------------------
def test_noqa_with_trailing_prose_suppresses():
    findings = lint("""
        import time

        def f():
            return time.time()  # noqa: RPL001 because the harness needs it
    """)
    assert findings == []


def test_noqa_prose_without_code_token_is_bare():
    findings = lint("""
        import time

        def f():
            return time.time()  # noqa: see discussion in DESIGN.md
    """)
    # No valid code token: treated as bare noqa, everything suppressed.
    assert findings == []


def test_noqa_prose_with_wrong_code_does_not_suppress():
    findings = lint("""
        import time

        def f():
            return time.time()  # noqa: RPL003 justified elsewhere
    """)
    assert codes(findings) == ["RPL001"]


def test_flow_rules_are_clean_on_their_own_layers():
    # The repo itself must lint clean under the new rules (the
    # whole-tree check lives in test_lint_rules; this is the quick
    # flow-rules-only gate).
    import repro.cc as cc_pkg
    from pathlib import Path
    engine = LintEngine(DEFAULT_RULES, select=["RPL010", "RPL012"])
    for module_path in sorted(Path(cc_pkg.__file__).parent.glob("*.py")):
        assert engine.check_file(module_path) == [], module_path
