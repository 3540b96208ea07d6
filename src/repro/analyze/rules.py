"""The lint rules this codebase actually needs.

Every rule exists because the violation it detects has a concrete
failure mode in this repository:

- **RPL001 — determinism.**  A point of the paper's curves is the mean
  of seeded replications, and the exec cache serves a row by its config
  fingerprint alone, so no simulation layer may read host time or
  process-global randomness.  One table, :data:`DETERMINISM_TABLE`,
  says which sources each layer bans: wall clocks and global randomness
  everywhere (tests included), host clocks as well in ``telemetry``,
  and the whole ``time``/``datetime``/``random``/``secrets`` modules in
  ``kernel``, ``cc`` and ``dist``.  Imports, calls and calls through
  aliases (``stamp = time.time; stamp()``) are resolved on the
  :mod:`repro.analyze.dataflow` facts, and each row names the one
  gateway module allowed to wrap its sources.
- **RPL003 — syscall constructed but not yielded.**  Kernel blocking
  operations (``port.receive()``, ``cpu.use(t)``, ``sem.wait()``,
  ``cc.acquire(...)``, ``Delay(t)``) *construct* a SysCall that only
  does something when yielded to the kernel.  A bare expression
  statement discards the syscall — the classic forgotten-``yield`` bug,
  which silently skips the block/delay.
- **RPL004 — blocking syscall outside a kernel process.**  The same
  constructors called (and discarded) in a non-generator function can
  never be yielded at all: blocking kernel operations only make sense
  inside process bodies.
- **RPL005 — fingerprint-unsafe config field.**  The exec cache keys on
  a canonical JSON encoding of config dataclasses
  (:mod:`repro.exec.fingerprint`).  Fields typed as ``Any``,
  ``Callable``, ``set``/``frozenset`` (iteration order varies with the
  hash seed) or other unencodable objects fall back to ``repr`` — which
  can embed memory addresses or unstable ordering, so equal configs
  stop hashing equally and the cache silently fragments or, worse,
  collides.
- **RPL007 — ad-hoc output in protocol/dist modules.**  ``print`` and
  the ``logging`` module are banned from the concurrency-control and
  distributed layers: those layers report through the kernel's
  instrumentation hooks (typed events, deterministic,
  zero-perturbation), and ad-hoc output either corrupts the CLI's
  table contract or depends on process-global logging configuration.
- **RPL008 — hook call outside its guard.**  ``kernel.hooks`` is None
  when nothing observes; every call on it in the instrumented layers
  sits behind one ``is not None`` test, so an unobserved run pays no
  call and builds no argument.
- **RPL009 — re-declared blocking-category literal.**  The blocking
  taxonomy (``direct``/``ceiling``/``network``/``other``) is a
  cross-layer contract shared by the protocols (classification), the
  trace layer (measured decomposition) and the analytic model
  (predicted decomposition); :mod:`repro.constants` is its single
  source of truth.  A re-declared string literal in those layers is a
  drift waiting to happen — one typo and a measured category silently
  stops matching its prediction.
- **RPL013 — hard-coded protocol-name literal.**  The protocol cast is
  a plugin registry (:mod:`repro.protocols`); every spec declares its
  family, model family, sanitizer checker and aliases there.  Code in
  the consuming layers (``cc``, ``dist``, ``model``, ``bench``) that
  compares against protocol-name literals or re-declares a tuple of
  them will silently miss protocols registered later — exactly the bug
  the registry exists to prevent.  Dispatch on the resolved spec's
  fields or derive sets from registry queries instead.
- **RPL015 — event-queue internals.**  Two event engines promise
  bitwise-identical results, so only they may touch a queue's
  representation or move ``kernel.now``.

The flow-aware RPL010 and RPL012 live in :mod:`repro.analyze.flow_rules`.
Mutable default arguments are left to ruff's ``B006``.

Each rule reports ``(code, line, col, message)`` findings through the
engine; suppress a deliberate occurrence with ``# noqa: <code>``.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, NamedTuple, Optional, Set, Tuple

from ..constants import BLOCKING_CATEGORIES
from . import dataflow
from .engine import Finding

#: Methods that construct blocking kernel syscalls.
_SYSCALL_METHODS = {"receive", "wait", "use", "acquire"}
#: Bare-name syscall constructors from repro.kernel.syscalls.
_SYSCALL_NAMES = {"Delay", "Join", "Spawn", "Now"}
#: Annotation heads that make a config field fingerprint-unsafe.
_UNSAFE_ANNOTATIONS = {"Any", "Callable", "object", "set", "Set",
                       "frozenset", "FrozenSet", "MutableSet",
                       "AbstractSet", "Process", "Kernel"}
#: Annotation heads that are always fingerprint-safe.
_SAFE_ANNOTATIONS = {"int", "float", "str", "bool", "bytes", "None",
                     "Optional", "List", "Tuple", "Dict", "Sequence",
                     "Mapping", "list", "tuple", "dict", "Union",
                     "Literal"}


def _on_path(path: str, part: str) -> bool:
    """Is ``part`` — a directory (``cc``), a package path
    (``kernel/turbo``) or a module path (``kernel/rng.py``) — on
    ``path``?"""
    normalized = "/" + path.replace("\\", "/")
    if part.endswith(".py"):
        return normalized.endswith("/" + part)
    return f"/{part}/" in normalized


class Rule:
    """Base: a rule lints the files of its ``layers`` (every file when
    empty) except its ``exempt`` paths."""

    code = "RPL000"
    name = "base"
    #: Directory names the rule patrols; empty patrols every file.
    layers: Tuple[str, ...] = ()
    #: Paths the rule never lints, spelled as :func:`_on_path` parts.
    exempt: Tuple[str, ...] = ("tests",)

    @property
    def codes(self) -> Tuple[str, ...]:
        """Every code the rule reports (``--select`` keeps the rule
        when any of them is selected)."""
        return (self.code,)

    def applies_to(self, path: str) -> bool:
        if any(_on_path(path, part) for part in self.exempt):
            return False
        return not self.layers or any(_on_path(path, layer)
                                      for layer in self.layers)

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, path: str, node: ast.AST,
                message: str) -> Finding:
        return Finding(self.code, path, node.lineno, node.col_offset,
                       message)


class Ban(NamedTuple):
    """One row of the determinism table."""

    #: Directory names the row patrols, tests excepted; empty is every
    #: file, tests included.
    layers: Tuple[str, ...]
    #: Dotted sources: a name (``time.time``), a module (``time``: its
    #: import and everything on it) or a module's members (``random.*``:
    #: everything on it, but not the import).
    sources: Tuple[str, ...]
    #: The one module of the row's layers allowed to wrap its sources.
    gateway: str
    #: What to use instead.
    advice: str


_WALL_CLOCKS = tuple(
    [f"time.{name}" for name in ("time", "time_ns", "sleep", "localtime",
                                 "gmtime", "ctime", "asctime", "strftime")]
    + [f"datetime.{cls}.{name}" for cls in ("datetime", "date")
       for name in ("now", "utcnow", "today")])
_GLOBAL_RANDOMNESS = ("random.*", "os.urandom", "secrets")
_HOST_CLOCKS = tuple(f"time.{name}{suffix}"
                     for name in ("perf_counter", "monotonic",
                                  "process_time")
                     for suffix in ("", "_ns"))

#: layer -> banned sources: the determinism invariant, patrolled by
#: RPL001.
DETERMINISM_TABLE = (
    Ban((), _WALL_CLOCKS + _GLOBAL_RANDOMNESS, "",
        "use virtual time (kernel.now) and seeded streams (kernel.rng)"),
    Ban(("telemetry",), _HOST_CLOCKS, "telemetry/hostclock.py",
        "read host time through repro.telemetry.hostclock.host_clock()"),
    Ban(("kernel", "cc", "dist"), ("time", "datetime", "random",
                                   "secrets"), "kernel/rng.py",
        "this layer runs on virtual time and seeded streams "
        "(kernel.now, kernel.rng)"),
)
#: The seeded generator every stream is made of is never banned.
_ALLOWED = ("random.Random",)


def _bans(source: str, name: str) -> bool:
    if source.endswith(".*"):
        return name.startswith(source[:-1])
    return name == source or name.startswith(source + ".")


def _resolve(node: ast.AST, facts: dataflow.ModuleDataflow,
             scope: dataflow.FunctionScope,
             depth: int = 0) -> Optional[str]:
    """The dotted name an expression reaches through module aliases,
    from-imports and reaching definitions, or None."""
    if isinstance(node, ast.Attribute):
        base = _resolve(node.value, facts, scope, depth)
        return None if base is None else f"{base}.{node.attr}"
    if not isinstance(node, ast.Name) or depth > 8:  # a = b; b = a
        return None
    for frame in (scope, facts.module_scope):
        definitions = frame.definitions.get(node.id)
        if definitions:
            for definition in definitions:
                if isinstance(definition, ast.AST):
                    name = _resolve(definition, facts, frame, depth + 1)
                    if name is not None:
                        return name
            return None
    if node.id in facts.module_aliases:
        return facts.module_aliases[node.id]
    if node.id in facts.from_imports:
        module, original = facts.from_imports[node.id]
        return f"{module}.{original}"
    return None


class DeterminismRule(Rule):
    """RPL001: host time or process-global randomness reached from a
    layer whose row of :data:`DETERMINISM_TABLE` bans it."""

    code = "RPL001"
    name = "determinism"
    #: Tests too: only the table's layered rows skip them.
    exempt = ()

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        in_tests = _on_path(path, "tests")
        bans = [ban for ban in DETERMINISM_TABLE
                if not ban.layers
                or (not in_tests and not _on_path(path, ban.gateway)
                    and any(_on_path(path, layer)
                            for layer in ban.layers))]

        def advice(name: str) -> str:
            """The advice of the first row banning ``name``; "" when
            none does."""
            if name not in _ALLOWED:
                for ban in bans:
                    if any(_bans(source, name) for source in ban.sources):
                        return ban.advice
            return ""

        facts = dataflow.analyze(tree)
        for node, scope in facts.walk():
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.Import):
                    names = [item.name for item in node.names]
                elif node.level == 0 and node.module:
                    names = [f"{node.module}.{item.name}"
                             for item in node.names]
                else:
                    continue
                hits = [name for name in names if advice(name)]
                if hits:
                    yield self.finding(
                        path, node,
                        f"'{ast.unparse(node)}': {', '.join(hits)} is "
                        f"not reproducible from the seed; "
                        f"{advice(hits[0])}")
            elif isinstance(node, ast.Call):
                name = _resolve(node.func, facts, scope)
                tip = "" if name is None else advice(name)
                if tip:
                    shown = ast.unparse(node.func)
                    label = (f"{name}()" if shown == name
                             else f"{shown}() (an alias of {name})")
                    yield self.finding(
                        path, node,
                        f"{label} is not reproducible from the seed; "
                        f"{tip}")


def _is_generator(func: ast.AST) -> bool:
    """Does this function contain a yield of its own?"""
    return any(isinstance(node, (ast.Yield, ast.YieldFrom))
               for node in dataflow.own_nodes(func))


class DiscardedSyscallRule(Rule):
    """RPL003/RPL004: a blocking syscall constructed then thrown away
    (RPL003 in a process body, RPL004 in a plain function)."""

    code = "RPL003"
    codes = ("RPL003", "RPL004")
    name = "discarded-syscall"
    exempt = ()  # tests too

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            is_gen = _is_generator(func)
            for stmt in dataflow.own_nodes(func):
                if not isinstance(stmt, ast.Expr):
                    continue
                call = stmt.value
                if not isinstance(call, ast.Call):
                    continue
                label = self._syscall_label(call)
                if label is None:
                    continue
                if is_gen:
                    yield Finding(
                        "RPL003", path, stmt.lineno, stmt.col_offset,
                        f"syscall {label} constructed but never yielded "
                        f"(forgotten 'yield'? the block/delay silently "
                        f"does not happen)")
                else:
                    yield Finding(
                        "RPL004", path, stmt.lineno, stmt.col_offset,
                        f"blocking syscall {label} in a non-generator "
                        f"function; kernel blocking operations belong "
                        f"in process bodies (generators)")

    @staticmethod
    def _syscall_label(call: ast.Call):
        func = call.func
        if isinstance(func, ast.Attribute):
            if func.attr in _SYSCALL_METHODS:
                return f".{func.attr}(...)"
        elif isinstance(func, ast.Name):
            if func.id in _SYSCALL_NAMES:
                return f"{func.id}(...)"
        return None


class FingerprintSafetyRule(Rule):
    """RPL005: config-dataclass fields the fingerprint cannot encode
    stably."""

    code = "RPL005"
    name = "fingerprint-unsafe-config-field"
    exempt = ()  # tests too

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        local_dataclasses = {
            node.name for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            and self._is_dataclass(node)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not node.name.endswith("Config"):
                continue
            if not self._is_dataclass(node):
                continue
            for stmt in node.body:
                if not isinstance(stmt, ast.AnnAssign):
                    continue
                if not isinstance(stmt.target, ast.Name):
                    continue
                reason = self._unsafe_reason(stmt.annotation,
                                             local_dataclasses)
                if reason is not None:
                    yield self.finding(
                        path, stmt,
                        f"field '{stmt.target.id}' of {node.name} is "
                        f"{reason}; the exec-cache fingerprint falls "
                        f"back to repr() for it, so equal configs may "
                        f"stop hashing equally "
                        f"(see repro.exec.fingerprint)")

    @staticmethod
    def _is_dataclass(node: ast.ClassDef) -> bool:
        for decorator in node.decorator_list:
            target = decorator
            if isinstance(target, ast.Call):
                target = target.func
            name = None
            if isinstance(target, ast.Attribute):
                name = target.attr
            elif isinstance(target, ast.Name):
                name = target.id
            if name == "dataclass":
                return True
        return False

    def _unsafe_reason(self, annotation: ast.AST,
                       local_dataclasses: Set[str]):
        head = self._head_name(annotation)
        if head is None:
            return None  # unrecognizable: give the benefit of the doubt
        if head in _UNSAFE_ANNOTATIONS:
            return (f"typed '{head}' (unordered or unencodable)")
        if head in _SAFE_ANNOTATIONS:
            if isinstance(annotation, ast.Subscript):
                for inner in self._subscript_args(annotation):
                    reason = self._unsafe_reason(inner, local_dataclasses)
                    if reason is not None:
                        return reason
            return None
        if head in local_dataclasses or head.endswith(("Config",
                                                       "Model",
                                                       "Plan")):
            return None  # nested config dataclass: encoded recursively
        return (f"typed '{head}', which the canonical encoder does not "
                f"know (not a primitive, container, or config "
                f"dataclass)")

    @staticmethod
    def _head_name(annotation: ast.AST):
        node = annotation
        if isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Attribute):
            return node.attr
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Constant):
            if node.value is None:
                return "None"
            if isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    return None
                return FingerprintSafetyRule._head_name(parsed.body)
        return None

    @staticmethod
    def _subscript_args(node: ast.Subscript) -> List[ast.AST]:
        inner = node.slice
        if isinstance(inner, ast.Tuple):
            return list(inner.elts)
        return [inner]


class AdHocTraceOutputRule(Rule):
    """RPL007: print()/logging in protocol or distributed modules.

    Those layers have a structured observability channel — the
    :class:`repro.trace.tracer.Tracer` — and ad-hoc output breaks it
    twice over: ``print`` corrupts the CLI's machine-readable tables,
    and the ``logging`` module consults process-global mutable
    configuration (handlers, levels), so two runs of one fingerprint
    can behave differently.  Emit typed Tracer events instead.
    """

    code = "RPL007"
    name = "ad-hoc-trace-output"
    #: The protocol and dist layers.
    layers = ("cc", "dist")

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    if (item.name == "logging"
                            or item.name.startswith("logging.")):
                        yield self.finding(
                            path, node,
                            "protocol/dist modules must not use the "
                            "logging module (process-global mutable "
                            "state); emit structured Tracer events "
                            "(repro.trace)")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "logging" or (
                        node.module is not None
                        and node.module.startswith("logging.")):
                    yield self.finding(
                        path, node,
                        "protocol/dist modules must not import from "
                        "logging; emit structured Tracer events "
                        "(repro.trace)")
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and func.id == "print":
                    yield self.finding(
                        path, node,
                        "print() in a protocol/dist module corrupts "
                        "the CLI's output contract; emit structured "
                        "Tracer events (repro.trace)")


def _not_none_guards(test: ast.AST) -> Set[str]:
    """Expressions proven non-None when ``test`` is true."""
    guards: Set[str] = set()
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        for value in test.values:
            guards |= _not_none_guards(value)
    elif (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.ops[0], ast.IsNot)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None):
        guards.add(ast.unparse(test.left))
    return guards


def _none_guards(test: ast.AST) -> Set[str]:
    """Expressions proven non-None when ``test`` is FALSE (``X is
    None`` tests: the else branch / fallthrough has X non-None)."""
    guards: Set[str] = set()
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or):
        for value in test.values:
            guards |= _none_guards(value)
    elif (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Is)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None):
        guards.add(ast.unparse(test.left))
    return guards


class UnguardedHookRule(Rule):
    """RPL008: a call on the instrumentation slot outside its ``is not
    None`` guard.

    The observability contract of the simulation layers is *zero cost
    when nothing observes*: ``kernel.hooks`` is None then
    (:mod:`repro.kernel.hooks`), and every hook site must be a single
    ``is not None`` test before any argument construction.  An
    unguarded ``hooks.<hook>(...)`` / ``<x>.hooks.<hook>(...)`` either
    crashes on None or — worse — forces an observer to exist, making
    every run pay for it.  The rule tracks guard scopes lexically:
    ``if h is not None:`` bodies, ``and``-chains, ternaries, and
    early-return ``if h is None:`` blocks all count.
    """

    code = "RPL008"
    name = "unguarded-hook-call"
    #: The instrumented layers.
    layers = ("kernel", "cc", "db", "dist", "txn", "resources")

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        findings: List[Finding] = []
        self._scan_block(tree.body, set(), path, findings)
        return iter(findings)

    # -- statement walk, threading the guarded-expression set ----------
    def _scan_block(self, stmts, guarded: Set[str], path: str,
                    findings: List[Finding]) -> None:
        guarded = set(guarded)
        for stmt in stmts:
            self._scan_stmt(stmt, guarded, path, findings)
            if (isinstance(stmt, ast.If) and not stmt.orelse
                    and stmt.body
                    and isinstance(stmt.body[-1],
                                   (ast.Return, ast.Raise,
                                    ast.Continue, ast.Break))):
                # `if x is None: return` — x is non-None below.
                guarded |= _none_guards(stmt.test)

    def _scan_stmt(self, stmt, guarded: Set[str], path: str,
                   findings: List[Finding]) -> None:
        if isinstance(stmt, ast.If):
            self._scan_expr(stmt.test, guarded, path, findings)
            self._scan_block(stmt.body,
                             guarded | _not_none_guards(stmt.test),
                             path, findings)
            self._scan_block(stmt.orelse,
                             guarded | _none_guards(stmt.test),
                             path, findings)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            # Deferred (or new) scope: outer guards do not hold inside.
            self._scan_block(stmt.body, set(), path, findings)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_expr(stmt.iter, guarded, path, findings)
            self._scan_block(stmt.body, guarded, path, findings)
            self._scan_block(stmt.orelse, guarded, path, findings)
        elif isinstance(stmt, ast.While):
            self._scan_expr(stmt.test, guarded, path, findings)
            self._scan_block(stmt.body,
                             guarded | _not_none_guards(stmt.test),
                             path, findings)
            self._scan_block(stmt.orelse, guarded, path, findings)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._scan_expr(item.context_expr, guarded, path,
                                findings)
            self._scan_block(stmt.body, guarded, path, findings)
        elif isinstance(stmt, ast.Try):
            self._scan_block(stmt.body, guarded, path, findings)
            for handler in stmt.handlers:
                self._scan_block(handler.body, guarded, path, findings)
            self._scan_block(stmt.orelse, guarded, path, findings)
            self._scan_block(stmt.finalbody, guarded, path, findings)
        else:
            self._scan_expr(stmt, guarded, path, findings)

    # -- expression walk (guard-aware for `and` chains and ternaries) --
    def _scan_expr(self, node, guarded: Set[str], path: str,
                   findings: List[Finding]) -> None:
        if node is None:
            return
        if isinstance(node, ast.IfExp):
            self._scan_expr(node.test, guarded, path, findings)
            self._scan_expr(node.body,
                            guarded | _not_none_guards(node.test),
                            path, findings)
            self._scan_expr(node.orelse,
                            guarded | _none_guards(node.test),
                            path, findings)
            return
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
            accumulated = set(guarded)
            for value in node.values:
                self._scan_expr(value, accumulated, path, findings)
                accumulated |= _not_none_guards(value)
            return
        if isinstance(node, ast.Call) and isinstance(node.func,
                                                     ast.Attribute):
            key = self._slot_key(node.func.value)
            if key is not None and key not in guarded:
                findings.append(self.finding(
                    path, node,
                    f"hook call {key}.{node.func.attr}(...) outside an "
                    f"'if {key} is not None:' guard; a hook site must "
                    f"cost one test when nothing observes"))
        for child in ast.iter_child_nodes(node):
            self._scan_expr(child, guarded, path, findings)

    @staticmethod
    def _slot_key(base: ast.AST):
        """Canonical key if ``base`` reads the instrumentation slot."""
        if isinstance(base, ast.Name) and base.id == "hooks":
            return base.id
        if isinstance(base, ast.Attribute) and base.attr == "hooks":
            return ast.unparse(base)
        return None


class BlockingTaxonomyRule(Rule):
    """RPL009: blocking-category string literal re-declared in a layer
    that must source the taxonomy from :mod:`repro.constants`.

    Flags any string constant spelled exactly like one of the
    :data:`repro.constants.BLOCKING_CATEGORIES` names inside the
    protocol, trace or model layers.  Those layers classify, measure
    and predict the *same* categories; the only way the three stay
    interchangeable is if every occurrence references the shared
    constant instead of respelling it.
    """

    code = "RPL009"
    name = "blocking-category-literal"
    #: The layers sharing the blocking taxonomy.
    layers = ("model", "trace", "cc")

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Constant):
                continue
            if not isinstance(node.value, str):
                continue
            if node.value not in BLOCKING_CATEGORIES:
                continue
            yield self.finding(
                path, node,
                f"blocking-category literal {node.value!r} re-declared; "
                f"use the shared constant BLOCKING_"
                f"{node.value.upper()} from repro.constants so the "
                f"protocol, trace and model layers cannot drift")


class ProtocolLiteralRule(Rule):
    """RPL013: hard-coded protocol-name literal outside the registry.

    The protocol set lives in :mod:`repro.protocols`; each plugin spec
    declares its family, model family, checker and aliases, so any
    module that branches on — or re-declares a set of — protocol name
    literals will silently miss protocols registered later.  Two
    shapes are flagged, the ones drift historically came from:

    - a comparison or membership test against protocol-name literals
      (``if protocol == "C"``, ``protocol in ("L", "P")``) — dispatch
      belongs on the registered spec's fields;
    - a module-level tuple/list made entirely of protocol names
      (``MY_PROTOCOLS = ("C", "Cx")``) — protocol sets must be
      registry queries (``REGISTRY.model_family_names(...)`` etc.).

    Only canonical registry names are matched (aliases like
    ``ceiling`` double as ordinary words).  A class-level ``name``
    attribute (a protocol implementation identifying itself) and
    per-figure cast defaults in function signatures are deliberate
    and not flagged.
    """

    code = "RPL013"
    name = "protocol-name-literal"
    #: Every layer that consumes protocols; their home package,
    #: repro/protocols, is the one place allowed to spell the names.
    layers = ("cc", "dist", "model", "bench")
    exempt = ("tests", "protocols")

    @staticmethod
    def _protocol_names() -> set:
        # Imported lazily: the registry pulls in the cc package, which
        # this module must not need just to be importable.
        from ..protocols import REGISTRY
        return set(REGISTRY.names())

    @staticmethod
    def _name_literals(node: ast.AST, names: set) -> list:
        """Protocol-name constants in ``node``: the node itself, or
        every element of a homogeneous tuple/list/set of them (a
        mixed container is not a protocol set)."""
        if isinstance(node, ast.Constant):
            if isinstance(node.value, str) and node.value in names:
                return [node]
            return []
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            elements = node.elts
            if not elements:
                return []
            for element in elements:
                if not (isinstance(element, ast.Constant)
                        and isinstance(element.value, str)
                        and element.value in names):
                    return []
            return list(elements)
        return []

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        names = self._protocol_names()
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            for side in [node.left] + list(node.comparators):
                for literal in self._name_literals(side, names):
                    yield self.finding(
                        path, literal,
                        f"protocol name {literal.value!r} tested "
                        f"against a literal; dispatch on the "
                        f"registered spec's fields "
                        f"(repro.protocols.REGISTRY) instead")
        for statement in tree.body:
            value = None
            if isinstance(statement, ast.Assign):
                value = statement.value
            elif isinstance(statement, ast.AnnAssign):
                value = statement.value
            if not isinstance(value, (ast.Tuple, ast.List, ast.Set)):
                continue
            literals = self._name_literals(value, names)
            if literals:
                yield self.finding(
                    path, value,
                    "protocol set re-declared as literals; derive it "
                    "from a repro.protocols.REGISTRY query so newly "
                    "registered protocols are never missed")


class EventQueueInternalsRule(Rule):
    """RPL015: event-queue internals reached outside the queue engines.

    The repository ships two event cores behind one queue API — the
    reference tuple heap (``kernel/events.py``) and the turbo calendar
    (``kernel/turbo/``) — and promises bitwise-identical results
    across them.  That promise dies the moment model or harness code
    reaches into one engine's representation (``events._heap``,
    ``events._drain``, dead-entry counters): such code silently breaks
    on — or worse, silently diverges under — the other engine.  Every
    consumer must go through the sanctioned surface (``schedule``,
    ``pop``, ``prepare_dispatch``, ``note_dead``, ``live_entries``,
    ``queue_stats``, ``pop_tied_entries``/``push_entry``).

    Flagged: an attribute read of a queue-internal name whose base
    expression looks like an event queue — a name or attribute spelled
    ``events``/``_events``/``queue`` (``events._heap``,
    ``self._events._dead``, ``kernel.events._buckets``).  Unrelated
    objects with fields like ``_seq`` (the wait-queue's arrival
    counter, transaction ids) are not flagged because their base is
    not queue-shaped.  The two engine homes are exempt, as are tests.

    The virtual clock is the other value only the dispatch loops own:
    ``Kernel.now`` is a plain attribute (a frame-free read for model
    code), so a *store* to ``kernel.now`` / ``self.kernel.now``
    outside ``kernel/`` is flagged too — moving time is dispatching.
    """

    code = "RPL015"
    name = "event-queue-internals"
    #: Internal attributes of either engine's event structure.
    banned = frozenset({
        # reference tuple-heap internals
        "_heap",
        # turbo calendar internals
        "_buckets", "_bucket_heap", "_drain", "_spill", "_far",
        "_current_id", "_width", "_resize_at", "_freelist",
        # shared bookkeeping counters
        "_dead", "_seq", "_cancelled_total", "_count",
    })
    #: Base-expression spellings that identify an event queue.
    queue_names = frozenset({"events", "_events", "queue"})
    #: Base-expression spellings that identify a kernel.
    kernel_names = frozenset({"kernel", "_kernel"})
    #: The two engine homes.
    exempt = ("tests", "kernel/turbo", "kernel/events.py")

    @staticmethod
    def _spelled(node: ast.AST, names: frozenset) -> bool:
        if isinstance(node, ast.Name):
            return node.id in names
        if isinstance(node, ast.Attribute):
            return node.attr in names
        return False

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        owns_clock = _on_path(path, "kernel")
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            if (node.attr == "now" and not owns_clock
                    and not isinstance(node.ctx, ast.Load)
                    and self._spelled(node.value, self.kernel_names)):
                yield self.finding(
                    path, node,
                    "virtual clock 'kernel.now' written outside "
                    "kernel/; only the dispatch loops move time — "
                    "schedule an event (kernel.at/after) instead")
            elif (node.attr in self.banned
                    and self._spelled(node.value, self.queue_names)):
                yield self.finding(
                    path, node,
                    f"event-queue internal '.{node.attr}' accessed "
                    f"outside kernel/events.py and kernel/turbo/; use "
                    f"the queue API (prepare_dispatch/note_dead/"
                    f"live_entries/queue_stats/...) so both engines "
                    f"stay interchangeable")


#: This module's rules, in code order.  The flow-aware RPL010 and
#: RPL012 live in :mod:`repro.analyze.flow_rules`; they are appended
#: below so the shipped registry stays one tuple.
_SYNTACTIC_RULES = (
    DeterminismRule(),
    DiscardedSyscallRule(),
    FingerprintSafetyRule(),
    AdHocTraceOutputRule(),
    UnguardedHookRule(),
    BlockingTaxonomyRule(),
    ProtocolLiteralRule(),
    EventQueueInternalsRule(),
)

#: code -> one-line description, for ``repro lint --list-rules``.
RULE_INDEX = {
    "RPL001": "host time or global randomness where the determinism "
              "table bans it",
    "RPL003": "kernel syscall constructed but never yielded",
    "RPL004": "blocking kernel syscall outside a process body",
    "RPL005": "fingerprint-unsafe config dataclass field",
    "RPL007": "print()/logging in protocol or dist modules",
    "RPL008": "instrumentation-hook call outside its 'is not None' "
              "guard",
    "RPL009": "re-declared blocking-category string literal",
    "RPL013": "hard-coded protocol-name literal outside the registry",
    "RPL015": "event-queue internals or the kernel clock touched "
              "outside the engines",
}

# Imported at the bottom on purpose: flow_rules subclasses Rule from
# this module, so the import must run after the class definitions.
from .flow_rules import FLOW_RULES, FLOW_RULE_INDEX  # noqa: E402

DEFAULT_RULES = _SYNTACTIC_RULES + FLOW_RULES
RULE_INDEX.update(FLOW_RULE_INDEX)
