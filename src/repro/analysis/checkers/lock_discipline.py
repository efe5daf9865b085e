"""RC001: static lock-discipline (race) checker for ``repro.serve``.

The model is intentionally syntactic, mirroring how the serving stack is
written rather than attempting whole-program alias analysis:

* A *lock attribute* is any ``self._x`` assigned ``threading.Lock()`` /
  ``RLock()`` / ``Condition()`` in a method body.  ``threading.Condition(
  self._y)`` makes ``_x`` an alias of ``_y`` — acquiring either protects
  state guarded by the underlying lock.
* An attribute unit is the first-level ``self.<attr>`` of a dotted chain, so
  ``self.stats.requests += 1`` touches unit ``stats``.
* A unit becomes *guarded* by a lock when any method writes it inside a
  syntactic ``with self.<lock>:`` block, or when its ``__init__`` assignment
  carries a ``# guarded-by: _<lock>`` comment.
* Entry points are thread targets (``threading.Thread(target=self.m)``),
  public methods (callers on arbitrary threads), context-manager /
  container dunders, and any method the same file calls on a receiver
  other than ``self`` (``self.front._count()`` from a request handler
  that a standard-library server runs on its own threads).  Methods
  reachable from an entry point through ``self.m()`` calls are checked;
  any access to a guarded unit outside every one of its guarding locks is
  flagged.
* Methods named ``*_locked`` follow the repo convention "caller holds the
  lock" and are exempt (and cannot establish guards); ``__init__`` /
  ``__post_init__`` / ``__del__`` / ``__repr__`` run before publication or
  are best-effort debugging and are exempt too.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.analysis.engine import FileContext, Finding, register_checker

_GUARDED_BY_RE = re.compile(r"self\.(\w+)\s*(?::[^=#]+)?=.*#\s*guarded-by:\s*(\w+)")
_LOCK_FACTORIES = {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}
_EXEMPT_METHODS = {"__init__", "__post_init__", "__del__", "__repr__"}
_ENTRY_DUNDERS = {
    "__enter__",
    "__exit__",
    "__call__",
    "__iter__",
    "__next__",
    "__len__",
    "__contains__",
}


def _root_self_attr(node: ast.AST) -> Optional[str]:
    """First-level attribute of a self-rooted chain, else None.

    ``self.stats.requests`` -> ``stats``; ``self._workers[i].pipe`` ->
    ``_workers``; ``other.stats`` -> None.
    """
    last_attr: Optional[str] = None
    while True:
        if isinstance(node, ast.Attribute):
            last_attr = node.attr
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        elif isinstance(node, ast.Name):
            return last_attr if node.id == "self" else None
        else:
            return None


def _is_lock_factory(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr in _LOCK_FACTORIES
    if isinstance(func, ast.Name):
        return func.id in _LOCK_FACTORIES
    return False


def _condition_wrapped_lock(call: ast.Call) -> Optional[str]:
    """For ``threading.Condition(self._lock)`` returns ``_lock``."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
    if name != "Condition" or not call.args:
        return None
    return _root_self_attr(call.args[0])


@dataclass
class _Access:
    attr: str
    line: int
    is_write: bool
    held: FrozenSet[str]


@dataclass
class _MethodFacts:
    name: str
    accesses: List[_Access] = field(default_factory=list)
    calls: Set[str] = field(default_factory=set)


class _ClassModel:
    """Everything RC001 needs to know about one class."""

    def __init__(
        self,
        class_node: ast.ClassDef,
        context: FileContext,
        foreign_calls: FrozenSet[str],
    ):
        self.node = class_node
        self.context = context
        self.methods: Dict[str, ast.FunctionDef] = {}
        self.locks: Set[str] = set()
        self.aliases: Dict[str, Set[str]] = {}
        self.thread_roots: Set[str] = set()
        #: Method names the file calls on a receiver other than ``self``.
        self.foreign_calls = foreign_calls
        self.facts: Dict[str, _MethodFacts] = {}
        self.guards: Dict[str, Set[str]] = {}

        for statement in class_node.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.methods[statement.name] = statement

        self._find_locks()
        self._find_thread_roots()
        for name, method in self.methods.items():
            self.facts[name] = self._walk_method(name, method)
        self._infer_guards()
        self._apply_guard_comments()

    # -- model construction ----------------------------------------------

    def _find_locks(self) -> None:
        pending_aliases: List[Tuple[str, str]] = []
        for method in self.methods.values():
            for node in ast.walk(method):
                if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
                    continue
                if not _is_lock_factory(node.value):
                    continue
                for target in node.targets:
                    attr = _root_self_attr(target)
                    if attr is None or not isinstance(target, ast.Attribute):
                        continue
                    self.locks.add(attr)
                    wrapped = _condition_wrapped_lock(node.value)
                    if wrapped is not None:
                        pending_aliases.append((attr, wrapped))
        for condition_attr, lock_attr in pending_aliases:
            if lock_attr in self.locks:
                # Acquiring the condition acquires its underlying lock and
                # vice versa — they protect the same state.
                self.aliases.setdefault(condition_attr, set()).add(lock_attr)
                self.aliases.setdefault(lock_attr, set()).add(condition_attr)

    def _held_closure(self, lock_attrs: Iterable[str]) -> FrozenSet[str]:
        held = set(lock_attrs)
        for attr in list(held):
            held.update(self.aliases.get(attr, ()))
        return frozenset(held)

    def _find_thread_roots(self) -> None:
        for node in ast.walk(self.node):
            if not isinstance(node, ast.Call):
                continue
            func_name = (
                node.func.attr
                if isinstance(node.func, ast.Attribute)
                else getattr(node.func, "id", "")
            )
            if func_name != "Thread":
                continue
            for keyword in node.keywords:
                if keyword.arg == "target":
                    target_attr = _root_self_attr(keyword.value)
                    if target_attr is not None:
                        self.thread_roots.add(target_attr)

    def _walk_method(self, name: str, method: ast.AST) -> _MethodFacts:
        facts = _MethodFacts(name=name)
        skip_attrs = self.locks | set(self.aliases)

        def record(attr: Optional[str], line: int, is_write: bool, held: FrozenSet[str]):
            if attr is None or attr in skip_attrs or attr in self.methods:
                return
            facts.accesses.append(_Access(attr, line, is_write, held))

        def visit(node: ast.AST, held: FrozenSet[str]) -> None:
            if isinstance(node, ast.With):
                acquired: Set[str] = set()
                for item in node.items:
                    lock_attr = _root_self_attr(item.context_expr)
                    if lock_attr in self.locks or lock_attr in self.aliases:
                        acquired.add(lock_attr)
                inner = self._held_closure(set(held) | acquired) if acquired else held
                for item in node.items:
                    visit(item.context_expr, held)
                for child in node.body:
                    visit(child, inner)
                return
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    # An AugAssign target's paired read is covered by the
                    # (stricter) write record.
                    record(_root_self_attr(target), target.lineno, True, held)
                if node.value is not None:
                    visit(node.value, held)
                for target in targets:
                    # Subscript indices etc. inside the target are reads.
                    for child in ast.iter_child_nodes(target):
                        visit(child, held)
                return
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id == "self":
                    record(node.attr, node.lineno, False, held)
                return
            if isinstance(node, ast.Call):
                callee = node.func
                if (
                    isinstance(callee, ast.Attribute)
                    and isinstance(callee.value, ast.Name)
                    and callee.value.id == "self"
                    and callee.attr in self.methods
                ):
                    facts.calls.add(callee.attr)
                else:
                    visit(callee, held)
                for argument in node.args:
                    visit(argument, held)
                for keyword in node.keywords:
                    visit(keyword.value, held)
                return
            for child in ast.iter_child_nodes(node):
                visit(child, held)

        for statement in getattr(method, "body", []):
            visit(statement, frozenset())
        return facts

    def _infer_guards(self) -> None:
        for name, facts in self.facts.items():
            if name in _EXEMPT_METHODS or name.endswith("_locked"):
                continue
            for access in facts.accesses:
                if access.is_write and access.held:
                    self.guards.setdefault(access.attr, set()).update(access.held)

    def _apply_guard_comments(self) -> None:
        init = self.methods.get("__init__")
        if init is None:
            return
        start = init.lineno
        end = getattr(init, "end_lineno", start) or start
        for line in self.context.lines[start - 1 : end]:
            match = _GUARDED_BY_RE.search(line)
            if match:
                attr, lock = match.group(1), match.group(2)
                self.guards.setdefault(attr, set()).add(lock)

    # -- reachability and reporting --------------------------------------

    def checked_methods(self) -> Set[str]:
        roots = self.thread_roots | self.foreign_calls
        for name in self.methods:
            if not name.startswith("_") or name in _ENTRY_DUNDERS:
                roots.add(name)
        reachable: Set[str] = set()
        frontier = [name for name in roots if name in self.methods]
        while frontier:
            current = frontier.pop()
            if current in reachable:
                continue
            reachable.add(current)
            frontier.extend(
                callee for callee in self.facts[current].calls if callee in self.methods
            )
        return {
            name
            for name in reachable
            if name not in _EXEMPT_METHODS and not name.endswith("_locked")
        }

    def findings(self) -> Iterable[Finding]:
        if not self.guards:
            return
        seen: Set[Tuple[str, int]] = set()
        for name in sorted(self.checked_methods()):
            for access in self.facts[name].accesses:
                required = self.guards.get(access.attr)
                if not required or access.held & required:
                    continue
                if (access.attr, access.line) in seen:
                    continue
                seen.add((access.attr, access.line))
                locks = " or ".join(f"self.{lock}" for lock in sorted(required))
                action = "written" if access.is_write else "read"
                yield self.context.finding(
                    "RC001",
                    access.line,
                    f"self.{access.attr} is guarded by {locks} but {action} in "
                    f"{self.node.name}.{name} without holding it",
                )


@register_checker
class LockDisciplineChecker:
    rule = "RC001"
    title = "lock discipline in repro.serve"

    def applies_to(self, path: str) -> bool:
        return "repro/serve/" in path

    def check(self, context: FileContext) -> Iterable[Finding]:
        foreign_calls = frozenset(
            node.func.attr
            for node in ast.walk(context.tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and not (isinstance(node.func.value, ast.Name) and node.func.value.id == "self")
        )
        for node in ast.walk(context.tree):
            if isinstance(node, ast.ClassDef):
                yield from _ClassModel(node, context, foreign_calls).findings()
