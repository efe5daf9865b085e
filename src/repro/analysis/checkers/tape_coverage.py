"""TP001: every tape op must have gradcheck coverage.

An op "adds a backward" when its body calls ``Tensor._make`` (the only way
onto the tape) — in ``repro/nn/tensor.py`` that is the enclosing def; in
``repro/nn/fused.py`` every public module-level function is a fused op.
Each such op must be *referenced* from ``tests/test_nn_gradcheck.py``:
either its name appears (as a call, attribute, or bare name), or — for
operator dunders — the test file uses the operator itself (``a + b`` covers
``__add__``, ``t[key]`` covers ``__getitem__``, and so on).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Optional, Set

from repro.analysis.engine import FileContext, Finding, register_checker

_TEST_RELPATH = Path("tests") / "test_nn_gradcheck.py"

_OPERATOR_DUNDERS = {
    ast.Add: ("__add__", "__radd__"),
    ast.Sub: ("__sub__",),
    ast.Mult: ("__mul__", "__rmul__"),
    ast.Div: ("__truediv__",),
    ast.MatMult: ("__matmul__",),
    ast.USub: ("__neg__",),
}


def _referenced_names(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.BinOp, ast.AugAssign)):
            names.update(_OPERATOR_DUNDERS.get(type(node.op), ()))
        elif isinstance(node, ast.UnaryOp):
            names.update(_OPERATOR_DUNDERS.get(type(node.op), ()))
        elif isinstance(node, ast.Subscript):
            names.add("__getitem__")
    return names


def _calls_tensor_make(function: ast.AST) -> bool:
    for node in ast.walk(function):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "_make"
        ):
            return True
    return False


def _find_test_file(source_path: Path) -> Optional[Path]:
    for parent in [source_path.parent, *source_path.parents]:
        candidate = parent / _TEST_RELPATH
        if candidate.exists():
            return candidate
    return None


@register_checker
class TapeCoverageChecker:
    rule = "TP001"
    title = "gradcheck coverage for tape ops"

    def applies_to(self, path: str) -> bool:
        return path.endswith(("repro/nn/fused.py", "repro/nn/tensor.py"))

    def check(self, context: FileContext) -> Iterable[Finding]:
        test_file = _find_test_file(context.path.resolve())
        if test_file is None:
            yield context.finding(
                "TP001",
                1,
                f"cannot locate {_TEST_RELPATH.as_posix()} above "
                f"{context.path.name}; tape ops are unverifiable",
            )
            return
        referenced = _referenced_names(
            ast.parse(test_file.read_text(encoding="utf-8"), filename=str(test_file))
        )
        is_fused_module = context.path.as_posix().endswith("repro/nn/fused.py")
        for owner, function in self._ops(context.tree, is_fused_module):
            if function.name in referenced:
                continue
            where = f"{owner}.{function.name}" if owner else function.name
            yield context.finding(
                "TP001",
                function.lineno,
                f"tape op {where} has a hand-written backward but is never "
                f"referenced from {_TEST_RELPATH.as_posix()}",
            )

    @staticmethod
    def _ops(tree: ast.Module, is_fused_module: bool):
        if is_fused_module:
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    yield "", node
            return
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and _calls_tensor_make(node):
                yield "", node
            elif isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef) and _calls_tensor_make(method):
                        yield node.name, method
