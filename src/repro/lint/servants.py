"""Static code analysis of RMI servant classes (Python ``ast``).

Nothing here executes user code: the analyzers parse servant sources
and check three contracts the wire layer otherwise has to *trust*:

* **Purity** (JCD010) -- every method a caching policy declares pure
  (the class's own ``PURE_METHODS`` literal, or the stock whitelist
  from :mod:`repro.rmi.caching`) must be side-effect-free: no writes
  to servant attributes, no ``global``/``nonlocal`` rebinding, no
  calls to known-mutating APIs on servant state.  One impure "pure"
  method silently poisons every cached reply.
* **Marshallability** (JCD011) -- a remote method whose return
  annotation names a type the restricted marshaller rejects can never
  answer successfully over the wire.
* **Privacy** (JCD012) -- servant methods must return port-local
  values; returning the netlist, its gates/nets, or any attribute
  chain over protected structures leaks the provider's IP, which the
  paper's marshalling restriction exists to prevent.

A servant class is any class whose body assigns ``REMOTE_METHODS``.
Waivers live next to the code: a ``# lint: allow(JCD010)`` comment on
the offending line (or on the method's ``def`` line) suppresses that
code there.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .findings import Finding, Severity
from .registry import finding

MUTATING_CALLS: FrozenSet[str] = frozenset({
    # list / deque
    "append", "extend", "insert", "remove", "sort", "reverse",
    "appendleft", "popleft",
    # dict / set (setdefault *writes* on a miss)
    "update", "setdefault", "pop", "popitem", "clear", "add", "discard",
    # file-ish
    "write", "writelines", "flush",
})
"""Method names that mutate their receiver; calling one on servant
state from a pure method is a JCD010 violation."""

STRUCTURE_METHODS: FrozenSet[str] = frozenset({
    "gates", "nets", "internal_nets", "driver_of", "fanout_of",
    "event_table", "levelize", "items",
})
"""Accessors that enumerate protected structure.  Scalar summaries
(``area``, ``depth``, ``critical_path_delay``, ``gate_count``) are
deliberately absent: data sheets already publish them."""

STRUCTURE_ATTRIBUTES: FrozenSet[str] = frozenset({
    "gates", "nets", "cells", "connectors", "modules", "netlist",
    "circuit", "design", "faults",
})
"""Attribute names that hold structure; ``self.netlist.gates`` leaks,
while ``self.netlist.name`` is a public data-sheet scalar."""

PROTECTED_TYPE_NAMES: FrozenSet[str] = frozenset({
    "Netlist", "Gate", "Circuit", "Design", "ModuleSkeleton",
    "CompositeModule", "Connector", "Port", "FaultList",
    "TransitionFaultList", "StuckAtFault",
})
"""Type names the restricted marshaller rejects on IP-protection
grounds; returning (or annotating a return with) one is an error."""

PROTECTED_PARAM_NAMES: FrozenSet[str] = frozenset({
    "netlist", "circuit", "design", "module", "modules", "gates",
})
"""Constructor parameter names presumed to carry protected structure."""

_ALLOW_RE = re.compile(r"#\s*lint:\s*allow\(([^)]*)\)")


def default_pure_methods() -> FrozenSet[str]:
    """The stock purity whitelist (the caching policy's introspection
    hook), imported lazily so ``ast``-only callers stay light."""
    from ..rmi.caching import CachePolicy
    return CachePolicy().cacheable_methods()


def marshallable_type_names() -> FrozenSet[str]:
    """Names a return annotation may use: builtins, typing aliases and
    every value type registered with the restricted marshaller."""
    # Value types register themselves at import time; pull in the
    # modules that do so, or the registry would depend on what the
    # calling process happened to import first.
    from .. import behav, estimation, faults  # noqa: F401
    from ..rmi.marshal import registered_value_types
    names = {
        "None", "bool", "int", "float", "str", "bytes", "object", "Any",
        "dict", "list", "tuple", "set", "frozenset",
        "Dict", "List", "Tuple", "Set", "FrozenSet", "Mapping",
        "MutableMapping", "Sequence", "Iterable", "Optional", "Union",
        "Logic", "Word",
    }
    names.update(cls.__name__ for cls in registered_value_types().values())
    return frozenset(names)


@dataclass
class ServantInfo:
    """One servant class discovered in a source file."""

    name: str
    node: ast.ClassDef
    remote_methods: Tuple[str, ...]
    declared_pure: Optional[Tuple[str, ...]]
    methods: Dict[str, ast.FunctionDef] = field(default_factory=dict)

    def pure_methods(self, stock: FrozenSet[str]) -> Set[str]:
        """The methods this servant must keep side-effect-free."""
        if self.declared_pure is not None:
            return set(self.declared_pure)
        return set(self.remote_methods) & stock


# ---------------------------------------------------------------------------
# Source scanning
# ---------------------------------------------------------------------------

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


def find_servants(tree: ast.Module) -> List[ServantInfo]:
    """Every class in a parsed module that declares ``REMOTE_METHODS``."""
    servants: List[ServantInfo] = []
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        remote: Optional[Tuple[str, ...]] = None
        declared_pure: Optional[Tuple[str, ...]] = None
        methods: Dict[str, ast.FunctionDef] = {}
        for statement in node.body:
            if isinstance(statement, ast.Assign):
                for target in statement.targets:
                    if not isinstance(target, ast.Name):
                        continue
                    if target.id == "REMOTE_METHODS":
                        remote = _string_tuple(statement.value)
                    elif target.id == "PURE_METHODS":
                        declared_pure = _string_tuple(statement.value)
            elif isinstance(statement, ast.FunctionDef):
                methods[statement.name] = statement
        if remote is not None:
            servants.append(ServantInfo(node.name, node, remote,
                                        declared_pure, methods))
    return servants


def _allowed_codes(source: str) -> Dict[int, Set[str]]:
    """Per-line ``# lint: allow(...)`` waivers."""
    allowed: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _ALLOW_RE.search(line)
        if match:
            codes = {code.strip() for code in match.group(1).split(",")
                     if code.strip()}
            allowed[lineno] = codes
    return allowed


# ---------------------------------------------------------------------------
# Purity (JCD010)
# ---------------------------------------------------------------------------

def _chain_root(node: ast.AST) -> Optional[str]:
    """The name at the root of an attribute/subscript/call chain."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Call)):
        node = node.func if isinstance(node, ast.Call) else node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _self_name(function: ast.FunctionDef) -> Optional[str]:
    """The receiver argument's name (``None`` for staticmethods)."""
    for decorator in function.decorator_list:
        if isinstance(decorator, ast.Name) \
                and decorator.id == "staticmethod":
            return None
    if function.args.args:
        return function.args.args[0].arg
    return None


def _purity_violations(function: ast.FunctionDef
                       ) -> List[Tuple[int, str]]:
    """(line, description) pairs for every side effect in a method."""
    self_name = _self_name(function)
    violations: List[Tuple[int, str]] = []

    def targets_self(node: ast.AST) -> bool:
        if isinstance(node, (ast.Tuple, ast.List)):
            return any(targets_self(element) for element in node.elts)
        return isinstance(node, (ast.Attribute, ast.Subscript)) \
            and _chain_root(node) == self_name

    for node in ast.walk(function):
        if isinstance(node, ast.Assign):
            if any(targets_self(target) for target in node.targets):
                violations.append(
                    (node.lineno, "assigns to servant state"))
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            if getattr(node, "value", None) is None:
                continue
            if targets_self(node.target):
                violations.append(
                    (node.lineno, "assigns to servant state"))
        elif isinstance(node, ast.Delete):
            if any(targets_self(target) for target in node.targets):
                violations.append(
                    (node.lineno, "deletes servant state"))
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            violations.append(
                (node.lineno,
                 f"declares {type(node).__name__.lower()} names"))
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in MUTATING_CALLS \
                and _chain_root(node.func.value) == self_name:
            violations.append(
                (node.lineno,
                 f"calls mutating {node.func.attr}() on servant state"))
    return violations


# ---------------------------------------------------------------------------
# Privacy (JCD012) and marshallability (JCD011)
# ---------------------------------------------------------------------------

def _protected_attributes(servant: ServantInfo) -> Set[str]:
    """Attribute names presumed to hold protected structure.

    An attribute is protected when ``__init__`` assigns it from an
    expression that mentions a protected-looking parameter (by name or
    by annotation) or constructs a protected type directly.
    """
    init = servant.methods.get("__init__")
    if init is None:
        return set()
    tainted_params: Set[str] = set()
    arguments = init.args.posonlyargs + init.args.args \
        + init.args.kwonlyargs
    for argument in arguments:
        if argument.arg in PROTECTED_PARAM_NAMES:
            tainted_params.add(argument.arg)
        elif argument.annotation is not None and \
                _annotation_names(argument.annotation) \
                & PROTECTED_TYPE_NAMES:
            tainted_params.add(argument.arg)

    def mentions_taint(expression: ast.AST) -> bool:
        for sub in ast.walk(expression):
            if isinstance(sub, ast.Name) and (
                    sub.id in tainted_params
                    or sub.id in PROTECTED_TYPE_NAMES):
                return True
        return False

    protected: Set[str] = set()
    self_name = _self_name(init)
    for node in ast.walk(init):
        if not isinstance(node, ast.Assign) or node.value is None:
            continue
        for target in node.targets:
            if isinstance(target, ast.Attribute) \
                    and isinstance(target.value, ast.Name) \
                    and target.value.id == self_name \
                    and mentions_taint(node.value):
                protected.add(target.attr)
    return protected


def _annotation_names(annotation: ast.AST) -> Set[str]:
    """Base type names mentioned by an annotation (quoted included)."""
    names: Set[str] = set()
    stack: List[ast.AST] = [annotation]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                stack.append(ast.parse(node.value, mode="eval").body)
            except SyntaxError:
                continue
        elif isinstance(node, ast.Constant) and node.value is None:
            names.add("None")
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        else:
            stack.extend(ast.iter_child_nodes(node))
    return names


def _leaky_expression(expression: ast.AST, protected: Set[str],
                      self_name: Optional[str]) -> Optional[str]:
    """Why a returned expression leaks protected structure, if it does."""
    if self_name is None or not protected:
        return None

    def self_chain(node: ast.AST) -> Optional[List[str]]:
        # For a pure attribute/subscript chain (no calls) rooted at
        # self, the attribute names leaf-first: self.a.b -> [b, a].
        chain: List[str] = []
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            if isinstance(node, ast.Attribute):
                chain.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id == self_name and chain:
            return chain
        return None

    def first_self_attribute(node: ast.AST) -> Optional[str]:
        chain = self_chain(node)
        return chain[-1] if chain else None

    def classify(node: ast.AST) -> Optional[str]:
        chain = self_chain(node)
        if chain is not None and chain[-1] in protected:
            # The object itself always leaks; a deeper chain leaks
            # only when its leaf names structure (self.netlist.gates),
            # not a data-sheet scalar (self.netlist.name).
            if len(chain) == 1:
                return (f"returns protected structure "
                        f"'self.{chain[-1]}'")
            if chain[0] in STRUCTURE_ATTRIBUTES:
                return (f"returns 'self.{chain[-1]}.{chain[0]}', a "
                        f"field of protected structure")
        if isinstance(node, ast.Call):
            function = node.func
            if isinstance(function, ast.Attribute) \
                    and function.attr in STRUCTURE_METHODS:
                owner = first_self_attribute(function.value)
                if owner is not None and owner in protected:
                    return (f"returns 'self.{owner}.{function.attr}"
                            f"(...)', which enumerates protected "
                            f"structure")
            if isinstance(function, ast.Name) and function.id in (
                    "tuple", "list", "set", "frozenset", "sorted",
                    "dict"):
                for argument in node.args:
                    why = classify(argument)
                    if why is not None:
                        return why
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for element in node.elts:
                why = classify(element)
                if why is not None:
                    return why
        if isinstance(node, ast.Dict):
            for value in list(node.keys) + list(node.values):
                if value is None:
                    continue
                why = classify(value)
                if why is not None:
                    return why
        if isinstance(node, ast.Starred):
            return classify(node.value)
        return None

    return classify(expression)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def lint_servant_source(source: str, path: str = "<string>",
                        pure_methods: Optional[FrozenSet[str]] = None
                        ) -> List[Finding]:
    """Run every static analyzer over one source file's servants."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [finding("JCD011", f"cannot parse source: {exc}", path,
                        line=exc.lineno)]
    stock = pure_methods if pure_methods is not None \
        else default_pure_methods()
    marshallable = marshallable_type_names()
    allowed = _allowed_codes(source)
    findings: List[Finding] = []

    def emit(code: str, message: str, line: int,
             def_line: Optional[int] = None,
             severity: Optional[Severity] = None) -> None:
        for waiver_line in (line, def_line):
            if waiver_line is not None \
                    and code in allowed.get(waiver_line, ()):
                return
        findings.append(finding(code, message, path, line=line,
                                severity=severity))

    for servant in find_servants(tree):
        pure = servant.pure_methods(stock)

        # JCD013 -- stale whitelists.
        if servant.declared_pure is not None:
            for name in servant.declared_pure:
                if name not in servant.methods:
                    emit("JCD013",
                         f"{servant.name}.PURE_METHODS names "
                         f"{name!r}, which the servant does not "
                         f"define", servant.node.lineno)
                elif name not in servant.remote_methods:
                    emit("JCD013",
                         f"{servant.name}.PURE_METHODS names "
                         f"{name!r}, which is not in REMOTE_METHODS",
                         servant.methods[name].lineno)

        # JCD010 -- purity of declared-pure methods.
        for name in sorted(pure):
            method = servant.methods.get(name)
            if method is None:
                continue
            for line, description in _purity_violations(method):
                emit("JCD010",
                     f"{servant.name}.{name} is declared pure but "
                     f"{description}; a cached reply would go stale",
                     line, def_line=method.lineno)

        # JCD011 / JCD012 -- remote method returns.
        protected = _protected_attributes(servant)
        for name in servant.remote_methods:
            method = servant.methods.get(name)
            if method is None:
                continue
            if method.returns is not None:
                names = _annotation_names(method.returns)
                for bad in sorted(names & PROTECTED_TYPE_NAMES):
                    emit("JCD011",
                         f"{servant.name}.{name} is annotated to "
                         f"return {bad}, which the restricted "
                         f"marshaller rejects",
                         method.lineno, def_line=method.lineno)
                unknown = names - marshallable - PROTECTED_TYPE_NAMES
                for odd in sorted(unknown):
                    emit("JCD011",
                         f"{servant.name}.{name} is annotated to "
                         f"return {odd}, which is not a registered "
                         f"marshallable type",
                         method.lineno, def_line=method.lineno,
                         severity=Severity.WARNING)
            for node in ast.walk(method):
                if isinstance(node, ast.Return) and node.value is not None:
                    why = _leaky_expression(node.value, protected,
                                            _self_name(method))
                    if why is not None:
                        emit("JCD012",
                             f"{servant.name}.{name} {why}; servants "
                             f"must return port-local values",
                             node.lineno, def_line=method.lineno)
    return findings


def iter_source_files(spec: str) -> List[str]:
    """Expand a file or directory spec into ``.py`` file paths."""
    if os.path.isfile(spec):
        return [spec]
    if os.path.isdir(spec):
        found: List[str] = []
        for root, _dirs, files in os.walk(spec):
            for name in sorted(files):
                if name.endswith(".py"):
                    found.append(os.path.join(root, name))
        return sorted(found)
    raise FileNotFoundError(f"no such file or directory: {spec!r}")


def lint_sources(specs: Sequence[str],
                 pure_methods: Optional[FrozenSet[str]] = None
                 ) -> List[Finding]:
    """Run the servant analyzers over files and directories."""
    stock = pure_methods if pure_methods is not None \
        else default_pure_methods()
    findings: List[Finding] = []
    for spec in specs:
        for path in iter_source_files(spec):
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
            findings.extend(lint_servant_source(source, path=path,
                                                pure_methods=stock))
    return findings
