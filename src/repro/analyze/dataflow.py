"""Lightweight dataflow facts for the flow-aware lint rules.

Most lint rules inspect one AST node at a time; the determinism rule
and the rules in :mod:`repro.analyze.flow_rules` need three facts a
single node cannot provide:

- **reaching definitions** (per function and for the module body,
  flow-insensitive): every value ever assigned to a local name.  Good
  enough to decide "is this name always a string constant?" or "can
  this name be ``time.time``?" — the questions the stream-name and
  determinism rules ask — without a full CFG fixpoint, because a name
  with *any* non-constant definition is simply not provably constant.
- **module constants**: module-level ``NAME = <literal>`` bindings
  (single assignment), so ``rng.stream(STREAM)`` resolves.
- **a module-local call graph** (name-based): edges from each function
  or method to the local callables it invokes, with attribute calls
  ``<anything>.foo(...)`` resolved to every same-named method in the
  module.  Deliberately over-approximate — reachability built on it
  only ever *excuses* code, never condemns it, so over-approximation
  keeps the rules sound (no false positives from missed edges).

Everything here is derived from one parsed tree with no imports
resolved; a small keyed cache lets several rules share the analysis of
one file.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

#: Sentinel for "assigned something we cannot evaluate".
UNKNOWN = object()


class FunctionScope:
    """One function or method — or the module body — with its local
    definitions."""

    def __init__(self, qualname: str, node: Any,
                 class_name: Optional[str]):
        self.qualname = qualname
        self.node = node
        self.class_name = class_name
        #: local name -> list of assigned value nodes (UNKNOWN for
        #: targets of loops, withs, parameters, augmented assignments…)
        self.definitions: Dict[str, List[object]] = {}
        self._collect()

    def _collect(self) -> None:
        args = getattr(self.node, "args", None)  # None: the module
        if args is not None:
            for arg in (list(args.posonlyargs) + list(args.args)
                        + list(args.kwonlyargs)
                        + [a for a in (args.vararg, args.kwarg) if a]):
                self.definitions.setdefault(arg.arg, []).append(UNKNOWN)
        for node in own_nodes(self.node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    self._define(target, node.value)
            elif isinstance(node, ast.AnnAssign) and node.value:
                self._define(node.target, node.value)
            elif isinstance(node, (ast.AugAssign, ast.NamedExpr)):
                self._define(node.target,
                             node.value if isinstance(node, ast.NamedExpr)
                             else None)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                self._define(node.target, None)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if item.optional_vars is not None:
                        self._define(item.optional_vars, None)
            elif isinstance(node, ast.comprehension):
                self._define(node.target, None)

    def _define(self, target: ast.AST, value) -> None:
        if isinstance(target, ast.Name):
            self.definitions.setdefault(target.id, []).append(
                value if value is not None else UNKNOWN)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._define(element, None)
        elif isinstance(target, ast.Starred):
            self._define(target.value, None)


def own_nodes(func: Any) -> Iterator[ast.AST]:
    """Descendants of ``func`` that are not inside a nested function."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


class ModuleDataflow:
    """Per-module facts shared by the flow rules."""

    def __init__(self, tree: ast.Module):
        self.tree = tree
        self.module_constants: Dict[str, object] = {}
        self.imported_names: Set[str] = set()
        #: local name -> imported module (``import time as t``; ``os``
        #: for ``import os.path``).
        self.module_aliases: Dict[str, str] = {}
        #: local name -> (module, original) for ``from m import x``.
        self.from_imports: Dict[str, Tuple[str, str]] = {}
        self.functions: List[FunctionScope] = []
        #: caller qualname -> set of callee names (bare and method).
        self.call_edges: Dict[str, Set[str]] = {}
        #: class name -> list of its base-name strings.
        self.class_bases: Dict[str, List[str]] = {}
        #: class name -> its method qualnames.
        self.class_methods: Dict[str, List[str]] = {}
        self._collect()

    # ------------------------------------------------------------------
    def _collect(self) -> None:
        assigned_twice: Set[str] = set()
        for node in self.tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if not isinstance(target, ast.Name):
                        continue
                    name = target.id
                    if name in self.module_constants or \
                            name in assigned_twice:
                        self.module_constants.pop(name, None)
                        assigned_twice.add(name)
                    elif isinstance(node.value, ast.Constant):
                        self.module_constants[name] = node.value.value
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    local = item.asname or item.name.split(".")[0]
                    self.imported_names.add(local)
                    self.module_aliases[local] = (item.name if item.asname
                                                  else local)
            elif isinstance(node, ast.ImportFrom):
                for item in node.names:
                    local = item.asname or item.name
                    self.imported_names.add(local)
                    self.from_imports[local] = (node.module or "",
                                                item.name)
        self.module_scope = FunctionScope("<module>", self.tree, None)
        self._collect_functions(self.tree, prefix="", class_name=None)

    def _collect_functions(self, node: ast.AST, prefix: str,
                           class_name: Optional[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                bases = []
                for base in child.bases:
                    if isinstance(base, ast.Name):
                        bases.append(base.id)
                    elif isinstance(base, ast.Attribute):
                        bases.append(base.attr)
                self.class_bases[child.name] = bases
                self.class_methods.setdefault(child.name, [])
                self._collect_functions(child, f"{child.name}.",
                                        class_name=child.name)
            elif isinstance(child, (ast.FunctionDef,
                                    ast.AsyncFunctionDef)):
                scope = FunctionScope(f"{prefix}{child.name}", child,
                                      class_name)
                self.functions.append(scope)
                if class_name is not None:
                    self.class_methods[class_name].append(
                        scope.qualname)
                self.call_edges[scope.qualname] = {
                    callee for callee in self._called_names(child)}
                # Nested defs still get their own scopes.
                self._collect_functions(child, f"{prefix}{child.name}.",
                                        class_name)

    @staticmethod
    def _called_names(func: Any) -> Set[str]:
        """Names this function may invoke — calls plus bare references
        (a function passed as a callback is 'called' for reachability
        purposes)."""
        names: Set[str] = set()
        for node in own_nodes(func):
            if isinstance(node, ast.Name) and isinstance(
                    node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        return names

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def walk(self) -> Iterator[Tuple[ast.AST, FunctionScope]]:
        """Every node in source order, with the scope it runs in (the
        innermost function, else the module body)."""
        scopes = {id(scope.node): scope for scope in self.functions}
        stack = [(child, self.module_scope)
                 for child in reversed(list(ast.iter_child_nodes(
                     self.tree)))]
        while stack:
            node, scope = stack.pop()
            yield node, scope
            inner = scopes.get(id(node), scope)
            stack.extend((child, inner) for child in reversed(list(
                ast.iter_child_nodes(node))))

    def scope_at(self, node: ast.AST) -> Optional[FunctionScope]:
        """The innermost collected scope whose body contains ``node``."""
        best: Optional[FunctionScope] = None
        for scope in self.functions:
            func = scope.node
            if (func.lineno <= node.lineno
                    and node.lineno <= max(
                        getattr(func, "end_lineno", func.lineno),
                        func.lineno)):
                if best is None or func.lineno >= best.node.lineno:
                    best = scope
        return best

    def is_static_string(self, node: ast.AST,
                         scope: Optional[FunctionScope]) -> bool:
        """Is this expression derived only from constants, attributes
        and module-level constants (the named-stream discipline)?"""
        if isinstance(node, ast.Constant):
            return True
        if isinstance(node, ast.Attribute):
            # Attribute reads (e.g. ``self._prefix``) are part of the
            # discipline: set once at construction, lexically evident.
            return True
        if isinstance(node, ast.JoinedStr):
            return all(
                self.is_static_string(part.value, scope)
                if isinstance(part, ast.FormattedValue)
                else isinstance(part, ast.Constant)
                for part in node.values)
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Mod)):
            return (self.is_static_string(node.left, scope)
                    and self.is_static_string(node.right, scope))
        if isinstance(node, ast.Name):
            if node.id in self.module_constants:
                return True
            if node.id in self.from_imports and node.id.isupper():
                # Imported ALL_CAPS binding: constant by convention.
                return True
            if scope is not None:
                definitions = scope.definitions.get(node.id)
                if definitions:
                    return all(
                        definition is not UNKNOWN
                        and isinstance(definition, ast.AST)
                        and self.is_static_string(definition, scope)
                        for definition in definitions)
        return False

    def reachable(self, roots: Set[str]) -> Set[str]:
        """Names transitively callable from ``roots`` (by last path
        segment, matching how the edges were recorded)."""
        short = {qualname.rsplit(".", 1)[-1]: set()
                 for qualname in self.call_edges}
        for qualname in self.call_edges:
            short.setdefault(qualname.rsplit(".", 1)[-1],
                             set()).add(qualname)
        seen: Set[str] = set()
        frontier = [qualname for qualname in self.call_edges
                    if qualname in roots
                    or qualname.rsplit(".", 1)[-1] in roots]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            for callee in self.call_edges.get(current, ()):
                for candidate in short.get(callee, ()):
                    if candidate not in seen:
                        frontier.append(candidate)
                seen.add(callee)
        return seen


#: Small keyed cache so the rules share one analysis per file.  Strong
#: references to the trees keep ids stable.
_CACHE: Dict[int, Tuple[ast.Module, ModuleDataflow]] = {}


def analyze(tree: ast.Module) -> ModuleDataflow:
    cached = _CACHE.get(id(tree))
    if cached is not None and cached[0] is tree:
        return cached[1]
    if len(_CACHE) > 64:
        _CACHE.clear()
    dataflow = ModuleDataflow(tree)
    _CACHE[id(tree)] = (tree, dataflow)
    return dataflow
