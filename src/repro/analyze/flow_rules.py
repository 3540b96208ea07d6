"""Flow-aware lint rules (RPL010, RPL012), built on
:mod:`repro.analyze.dataflow`.

Each rule needs a fact that spans more than one AST node:

- **RPL010 — dynamic RNG stream name.**  The common-random-numbers
  discipline (see :mod:`repro.kernel.rng`) only works if stream names
  are *lexically evident*: a name computed at runtime can differ
  between two runs of one seed, silently splitting a stream and
  breaking run-to-run reproducibility.  The rule resolves the name
  argument through reaching definitions and module constants; string
  literals, f-strings over constants/attributes, and ``STREAM``-style
  constants all pass.
- **RPL012 — orphaned mutation of shared protocol state.**  Every
  mutation of a lock manager's shared state (``waiting``,
  ``_waiting_by_oid``, ``_waiting_by_tid``, ``locks``, and the
  tid-keyed tables ``active``, ``_shared``, ``_inheriting``,
  ``_inheriting_txn``) must be reachable from its public API — the
  entry points the kernel and transaction managers call.  A mutating
  helper with no path from any entry point is dead code at best and a
  protocol bypass at worst (the classic refactor residue: the caller
  moved, the helper stayed).
  Reachability runs over the module-local reference graph,
  over-approximated so only genuine orphans are flagged.
"""

from __future__ import annotations

import ast
from typing import Any, Iterator, Optional, Set

from . import dataflow
from .engine import Finding
from .rules import Rule

#: Shared lock-manager state attributes patrolled by RPL012.
_PROTOCOL_STATE = {"waiting", "_waiting_by_oid", "_waiting_by_tid",
                   "locks", "active", "_shared", "_inheriting",
                   "_inheriting_txn"}

#: Method names that mutate their receiver in place.
_MUTATORS = {"append", "remove", "pop", "clear", "insert", "extend",
             "setdefault", "update", "add", "discard", "grant",
             "release", "release_all"}


class DynamicStreamNameRule(Rule):
    """RPL010: RNG stream name not statically derivable."""

    code = "RPL010"
    name = "dynamic-rng-stream-name"
    exempt = ("tests", "kernel/rng.py")

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        facts = dataflow.analyze(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (not isinstance(func, ast.Attribute)
                    or func.attr != "stream" or not node.args):
                continue
            name_arg = node.args[0]
            scope = facts.scope_at(node)
            if not facts.is_static_string(name_arg, scope):
                yield self.finding(
                    path, node,
                    f"RNG stream name {ast.unparse(name_arg)!r} is not "
                    f"statically derivable (constants, f-strings over "
                    f"constants/attributes, or module-level CONSTANTS); "
                    f"a runtime-computed name can split a stream "
                    f"between runs and break seed reproducibility")


class OrphanStateMutationRule(Rule):
    """RPL012: shared protocol state mutated by a method unreachable
    from the lock-manager entry points."""

    code = "RPL012"
    name = "orphan-protocol-state-mutation"
    #: The lock managers.
    layers = ("cc",)

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        facts = dataflow.analyze(tree)
        roots = self._roots(facts)
        reachable = facts.reachable(roots)
        for scope in facts.functions:
            if scope.class_name is None:
                continue
            short = scope.qualname.rsplit(".", 1)[-1]
            if (scope.qualname in roots or scope.qualname in reachable
                    or short in reachable):
                continue
            for node, label in self._mutations(scope):
                yield self.finding(
                    path, node,
                    f"{scope.qualname} mutates shared protocol state "
                    f"({label}) but is unreachable from any public "
                    f"lock-manager entry point in this module — dead "
                    f"code or a concurrency-control bypass")

    def _roots(self, facts) -> Set[str]:
        roots: Set[str] = set()
        for scope in facts.functions:
            short = scope.qualname.rsplit(".", 1)[-1]
            if not short.startswith("_") or (short.startswith("__")
                                             and short.endswith("__")):
                roots.add(scope.qualname)
                continue
            if scope.class_name is not None:
                bases = facts.class_bases.get(scope.class_name, [])
                if any(base not in facts.class_bases
                       for base in bases):
                    # The base class lives in another module and may
                    # invoke this as a protocol hook: assume callable.
                    roots.add(scope.qualname)
        return roots

    def _mutations(self, scope):
        for node in dataflow.own_nodes(scope.node):
            if isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Attribute)
                        and func.attr in _MUTATORS):
                    attr = self._state_attr(func.value)
                    if attr is not None:
                        yield node, f"self.{attr}.{func.attr}(...)"
            elif isinstance(node, (ast.Assign, ast.AugAssign,
                                   ast.Delete)):
                targets = (node.targets
                           if isinstance(node, ast.Assign)
                           else [node.target]
                           if isinstance(node, ast.AugAssign)
                           else node.targets)
                for target in targets:
                    base = target
                    if isinstance(base, ast.Subscript):
                        base = base.value
                    attr = self._state_attr(base)
                    if attr is not None:
                        yield node, f"self.{attr}"

    @staticmethod
    def _state_attr(node: Any) -> Optional[str]:
        # self.<state> or self.<state>[...] receivers only.
        if isinstance(node, ast.Subscript):
            node = node.value
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in _PROTOCOL_STATE):
            return node.attr
        return None


FLOW_RULES = (
    DynamicStreamNameRule(),
    OrphanStateMutationRule(),
)

FLOW_RULE_INDEX = {
    "RPL010": "RNG stream name not statically derivable",
    "RPL012": "orphaned mutation of shared lock-manager state",
}
