"""Shared call-graph / dataflow helper for the static analyzers.

The concurrency rules (JCD014-JCD018) need to answer one question the
per-class servant analyzers never had to: *can this line run while the
multi-tenant server is dispatching?*  This module builds the pieces of
that answer from nothing but parsed source:

* a **module index** -- every ``.py`` file in a sweep, with its dotted
  module name recovered by walking the ``__init__.py`` chain upwards
  (so ``src/repro/rmi/protocol.py`` is ``repro.rmi.protocol``);
* a **counter census** -- every module-level ``itertools.count``
  assignment and every module-level integer a function increments
  through a ``global`` declaration;
* a **call graph** over every function and method, with edges for
  direct calls *and* for deferred callables (``executor.submit(fn)``,
  ``run_in_executor(None, fn)``, ``Thread(target=fn)``,
  ``ProcessPoolExecutor(initializer=fn)``) -- the way server work
  actually travels;
* **reachability** from the server's dispatch surface: every method of
  ``AsyncRMIServer``, the ``JavaCADServer.dispatch*`` family, and
  every method a servant class names in ``REMOTE_METHODS``.

Resolution is deliberately *name-based and over-approximate*: a call
``self.reset()`` edges to every known function named ``reset``.  An
over-approximation can only err towards "reachable", which for a race
analyzer is the safe direction -- a spurious edge costs a reviewed
waiver, a missing edge would hide a real race.  Nothing here imports
or executes the analyzed code.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import (Dict, FrozenSet, Iterable, List, Mapping, Optional,
                    Sequence, Set, Tuple)

DISPATCH_CLASSES: FrozenSet[str] = frozenset({"AsyncRMIServer"})
"""Classes whose every method is a dispatch-surface entry point."""

DISPATCH_METHOD_PREFIXES: Mapping[str, str] = {"JavaCADServer": "dispatch"}
"""Classes contributing only methods with a given name prefix."""

DEFERRED_CALL_NAMES: FrozenSet[str] = frozenset({
    "submit", "run_in_executor", "map", "apply", "apply_async",
    "ensure_future", "create_task", "call_soon",
    "call_soon_threadsafe", "to_thread", "start_soon",
})
"""Calls whose positional arguments may be *deferred* callables."""

DEFERRED_KEYWORDS: FrozenSet[str] = frozenset({
    "target", "initializer", "session_factory", "factory", "fn",
})
"""Keywords that carry a callable executed later (threads, forks)."""


@dataclass(frozen=True)
class CounterDef:
    """One module-level id counter discovered in a sweep."""

    module: str
    """Dotted module name, e.g. ``repro.rmi.protocol``."""

    attr: str
    """The global's name, e.g. ``_token_ids``."""

    lineno: int
    """Line of the module-level assignment."""

    kind: str
    """``count`` (``itertools.count``) or ``int`` (incremented int)."""

    path: str
    """Source file the counter lives in (finding target)."""


@dataclass
class FunctionInfo:
    """One function or method, with its outgoing call names."""

    qualname: str
    """``module:Class.method`` or ``module:function``."""

    module: str
    name: str
    cls: Optional[str]
    node: "ast.FunctionDef | ast.AsyncFunctionDef"
    path: str
    calls: Set[str] = field(default_factory=set)
    """Simple names this function calls (directly or deferred)."""

    consumed: Set[str] = field(default_factory=set)
    """Names consumed via ``next(...)`` or ``global``-incremented."""


@dataclass
class ModuleInfo:
    """One parsed source file of a sweep."""

    path: str
    name: str
    tree: ast.Module
    source: str


def module_name_for(path: str) -> str:
    """Recover a file's dotted module name from the package layout.

    Walks parent directories for as long as they contain an
    ``__init__.py``; the joined chain is the dotted name
    (``.../src/repro/rmi/protocol.py`` -> ``repro.rmi.protocol``).  A
    file outside any package keeps its bare stem.
    """
    path = os.path.abspath(path)
    stem = os.path.splitext(os.path.basename(path))[0]
    parts: List[str] = [] if stem == "__init__" else [stem]
    parent = os.path.dirname(path)
    while os.path.isfile(os.path.join(parent, "__init__.py")):
        parts.insert(0, os.path.basename(parent))
        parent = os.path.dirname(parent)
    return ".".join(parts) if parts else stem


def _called_names(function: "ast.FunctionDef | ast.AsyncFunctionDef"
                  ) -> Set[str]:
    """Every simple name a function may transfer control to.

    Direct calls contribute the called name (``foo()`` -> ``foo``,
    ``obj.meth()`` -> ``meth``); calls known to defer work
    (:data:`DEFERRED_CALL_NAMES`) and callable-carrying keywords
    (:data:`DEFERRED_KEYWORDS`) contribute their argument names too,
    so a frame shipped through ``pool.submit(_worker_dispatch, ...)``
    still produces the ``_worker_dispatch`` edge.
    """
    names: Set[str] = set()

    def reference_name(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        return None

    for node in ast.walk(function):
        if not isinstance(node, ast.Call):
            continue
        called = reference_name(node.func)
        if called is not None:
            names.add(called)
        deferred = called in DEFERRED_CALL_NAMES
        for argument in node.args:
            if deferred:
                name = reference_name(argument)
                if name is not None:
                    names.add(name)
        for keyword in node.keywords:
            if keyword.arg in DEFERRED_KEYWORDS:
                name = reference_name(keyword.value)
                if name is not None:
                    names.add(name)
    return names


def _consumed_names(function: "ast.FunctionDef | ast.AsyncFunctionDef"
                    ) -> Set[str]:
    """Counter names this function draws from.

    ``next(X)`` and ``next(mod.X)`` consume ``X``; a ``global X``
    declaration combined with an augmented assignment consumes ``X``
    the incremented-int way.
    """
    consumed: Set[str] = set()
    declared_global: Set[str] = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "next" and node.args:
            argument = node.args[0]
            if isinstance(argument, ast.Name):
                consumed.add(argument.id)
            elif isinstance(argument, ast.Attribute):
                consumed.add(argument.attr)
        elif isinstance(node, ast.Global):
            declared_global.update(node.names)
    for node in ast.walk(function):
        if isinstance(node, ast.AugAssign) \
                and isinstance(node.target, ast.Name) \
                and node.target.id in declared_global:
            consumed.add(node.target.id)
    return consumed


def _string_tuple(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """A literal tuple/list/set of strings, or None."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id == "frozenset" and node.args:
        node = node.args[0]
    if not isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return None
    names: List[str] = []
    for element in node.elts:
        if not (isinstance(element, ast.Constant)
                and isinstance(element.value, str)):
            return None
        names.append(element.value)
    return tuple(names)


class CallGraph:
    """The sweep-wide index the concurrency analyzers share."""

    def __init__(self, modules: Sequence[ModuleInfo]) -> None:
        self.modules: Dict[str, ModuleInfo] = {
            module.name: module for module in modules}
        self.functions: Dict[str, FunctionInfo] = {}
        self._by_name: Dict[str, List[FunctionInfo]] = {}
        self._class_methods: Dict[str, List[str]] = {}
        self._counters: List[CounterDef] = []
        self._entry_points: List[str] = []
        self._reachable: Optional[FrozenSet[str]] = None
        for module in modules:
            self._index_module(module)
        self._discover_entry_points()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_sources(cls, sources: Mapping[str, str]) -> "CallGraph":
        """Build from ``{dotted_module: source}`` (tests, tooling)."""
        modules = []
        for name, source in sources.items():
            modules.append(ModuleInfo(path=f"<{name}>", name=name,
                                      tree=ast.parse(source),
                                      source=source))
        return cls(modules)

    @classmethod
    def from_files(cls, paths: Iterable[str]) -> "CallGraph":
        """Build from source file paths (the CLI sweep)."""
        modules = []
        for path in paths:
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
            try:
                tree = ast.parse(source)
            except SyntaxError:
                continue  # reported by the servant analyzers already
            modules.append(ModuleInfo(path=path,
                                      name=module_name_for(path),
                                      tree=tree, source=source))
        return cls(modules)

    def _index_module(self, module: ModuleInfo) -> None:
        int_globals: Dict[str, int] = {}
        for node in module.tree.body:
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign) \
                    and node.value is not None:
                target, value = node.target, node.value
            if isinstance(target, ast.Name) and value is not None:
                name = target.id
                if self._is_count_call(value):
                    self._counters.append(CounterDef(
                        module.name, name, node.lineno, "count",
                        module.path))
                elif isinstance(value, ast.Constant) \
                        and type(value.value) is int:
                    int_globals[name] = node.lineno
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_function(module, node, cls_name=None)
            elif isinstance(node, ast.ClassDef):
                for statement in node.body:
                    if isinstance(statement,
                                  (ast.FunctionDef,
                                   ast.AsyncFunctionDef)):
                        self._index_function(module, statement,
                                             cls_name=node.name)
        # An int global is a counter only when some function in the
        # module increments it under a ``global`` declaration.
        incremented: Set[str] = set()
        for info in self.functions.values():
            if info.module == module.name:
                incremented.update(info.consumed)
        for name, lineno in int_globals.items():
            if name in incremented:
                self._counters.append(CounterDef(
                    module.name, name, lineno, "int", module.path))

    @staticmethod
    def _is_count_call(node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        function = node.func
        if isinstance(function, ast.Attribute):
            return function.attr == "count" \
                and isinstance(function.value, ast.Name) \
                and function.value.id == "itertools"
        return isinstance(function, ast.Name) and function.id == "count"

    def _index_function(self, module: ModuleInfo,
                        node: "ast.FunctionDef | ast.AsyncFunctionDef",
                        cls_name: Optional[str]) -> None:
        local = f"{cls_name}.{node.name}" if cls_name else node.name
        qualname = f"{module.name}:{local}"
        info = FunctionInfo(qualname=qualname, module=module.name,
                            name=node.name, cls=cls_name, node=node,
                            path=module.path,
                            calls=_called_names(node),
                            consumed=_consumed_names(node))
        self.functions[qualname] = info
        self._by_name.setdefault(node.name, []).append(info)
        if cls_name is not None:
            self._class_methods.setdefault(cls_name, []).append(qualname)

    def _discover_entry_points(self) -> None:
        entries: List[str] = []
        for module in self.modules.values():
            for node in module.tree.body:
                if not isinstance(node, ast.ClassDef):
                    continue
                if node.name in DISPATCH_CLASSES:
                    entries.extend(
                        self._class_methods.get(node.name, ()))
                prefix = DISPATCH_METHOD_PREFIXES.get(node.name)
                if prefix is not None:
                    entries.extend(
                        qualname for qualname
                        in self._class_methods.get(node.name, ())
                        if qualname.rsplit(".", 1)[-1]
                        .startswith(prefix))
                remote = self._remote_methods(node)
                for method in remote:
                    qualname = f"{module.name}:{node.name}.{method}"
                    if qualname in self.functions:
                        entries.append(qualname)
        seen: Set[str] = set()
        self._entry_points = [entry for entry in entries
                              if not (entry in seen or seen.add(entry))]

    @staticmethod
    def _remote_methods(node: ast.ClassDef) -> Tuple[str, ...]:
        for statement in node.body:
            if isinstance(statement, ast.Assign):
                for target in statement.targets:
                    if isinstance(target, ast.Name) \
                            and target.id == "REMOTE_METHODS":
                        names = _string_tuple(statement.value)
                        if names is not None:
                            return names
        return ()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def counters(self) -> Tuple[CounterDef, ...]:
        """Every module-level counter discovered, in sweep order."""
        return tuple(self._counters)

    def entry_points(self) -> Tuple[str, ...]:
        """Dispatch-surface entry points (qualnames), in sweep order."""
        return tuple(self._entry_points)

    def resolve_call(self, name: str) -> List[FunctionInfo]:
        """Every function a called name may resolve to.

        A name matching a known class resolves to the class's
        ``__init__`` plus nothing else (attribute access on the
        instance produces its own edges at the access site).
        """
        if name in self._class_methods:
            return [self.functions[qualname]
                    for qualname in self._class_methods[name]
                    if qualname.endswith(".__init__")]
        return self._by_name.get(name, [])

    def reachable(self) -> FrozenSet[str]:
        """Qualnames reachable from the dispatch surface (cached)."""
        if self._reachable is None:
            seen: Set[str] = set(self._entry_points)
            queue: List[str] = list(self._entry_points)
            while queue:
                info = self.functions.get(queue.pop())
                if info is None:
                    continue
                for called in info.calls:
                    for target in self.resolve_call(called):
                        if target.qualname not in seen:
                            seen.add(target.qualname)
                            queue.append(target.qualname)
            self._reachable = frozenset(seen)
        return self._reachable

    def consumers_of(self, counter: CounterDef) -> List[FunctionInfo]:
        """Functions that draw from a counter (name-based, sweep-wide).

        Same-module consumption matches on the bare name; cross-module
        consumption matches ``next(mod.attr)`` by attribute name --
        over-approximate on purpose (see the module docstring).
        """
        return [info for info in self.functions.values()
                if counter.attr in info.consumed]

    def dispatch_consumers(self, counter: CounterDef
                           ) -> List[FunctionInfo]:
        """Consumers of a counter that the dispatch surface reaches."""
        reachable = self.reachable()
        return [info for info in self.consumers_of(counter)
                if info.qualname in reachable]

    def is_dispatch_reachable(self, counter: CounterDef) -> bool:
        """Whether server dispatch can draw from this counter."""
        return bool(self.dispatch_consumers(counter))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CallGraph({len(self.modules)} modules, "
                f"{len(self.functions)} functions, "
                f"{len(self._counters)} counters)")
