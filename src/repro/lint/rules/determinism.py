"""Determinism rules: the simulator must replay bit-identically per seed.

Wall-clock reads and unordered-set iteration both smuggle
nondeterminism into model state and results.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Set

from ..core import Finding, LintContext, Rule, register, root_name

#: ``time`` module functions that read the wall clock / epoch.
_WALL_CLOCK_TIME_FUNCS = frozenset({"time", "time_ns"})
#: ``time`` module functions that are fine (monotonic, for elapsed spans).
_ALLOWED_TIME_FUNCS = frozenset(
    {"perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns",
     "process_time", "process_time_ns", "sleep"}
)
#: ``datetime``/``date`` constructors that read the current time.
_DATETIME_NOW_FUNCS = frozenset({"now", "utcnow", "today"})


def _import_aliases(tree: ast.Module, module: str):
    """Aliases under which ``module`` and its members are visible.

    Returns ``(module_aliases, member_aliases)`` where ``member_aliases``
    maps local name -> original member name for ``from module import ...``.
    """
    module_aliases: Set[str] = set()
    member_aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == module:
                    module_aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module == module:
            for alias in node.names:
                member_aliases[alias.asname or alias.name] = alias.name
    return module_aliases, member_aliases


@register
class WallClockRule(Rule):
    """Flag wall-clock reads (``time.time``, ``datetime.now``) in model code."""

    name = "wall-clock"
    category = "determinism"
    description = (
        "wall-clock reads (time.time, datetime.now) leak host time into the "
        "simulation; use time.perf_counter for elapsed spans"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        time_aliases, time_members = _import_aliases(ctx.tree, "time")
        dt_module_aliases, dt_members = _import_aliases(ctx.tree, "datetime")
        # Classes imported from datetime whose .now()/.today() read the clock.
        dt_class_aliases = {
            local
            for local, original in dt_members.items()
            if original in ("datetime", "date")
        }
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                value = func.value
                if (
                    isinstance(value, ast.Name)
                    and value.id in time_aliases
                    and func.attr in _WALL_CLOCK_TIME_FUNCS
                ):
                    yield ctx.finding(
                        node,
                        self,
                        f"time.{func.attr}() reads the wall clock; use "
                        "time.perf_counter() for elapsed-time measurement",
                    )
                elif func.attr in _DATETIME_NOW_FUNCS and (
                    (isinstance(value, ast.Name) and value.id in dt_class_aliases)
                    or (
                        isinstance(value, ast.Attribute)
                        and value.attr in ("datetime", "date")
                        and root_name(value) in dt_module_aliases
                    )
                ):
                    yield ctx.finding(
                        node,
                        self,
                        f"datetime .{func.attr}() reads the wall clock; "
                        "model code must not depend on the current date",
                    )
            elif isinstance(func, ast.Name):
                original = time_members.get(func.id)
                if original in _WALL_CLOCK_TIME_FUNCS:
                    yield ctx.finding(
                        node,
                        self,
                        f"time.{original}() reads the wall clock; use "
                        "time.perf_counter() for elapsed-time measurement",
                    )


#: Binary operators whose result is a set when either operand is one.
_SET_ALGEBRA = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_ALGEBRA):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


_SET_ANNOTATIONS = frozenset({"set", "frozenset", "Set", "FrozenSet"})


def _annotation_is_set(annotation: ast.AST) -> bool:
    """True for ``x: Set[int]`` / ``x: set`` style annotations."""
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    name = None
    if isinstance(annotation, ast.Name):
        name = annotation.id
    elif isinstance(annotation, ast.Attribute):
        name = annotation.attr
    return name in _SET_ANNOTATIONS


def _scope_statements(scope: ast.AST) -> Iterator[ast.stmt]:
    """Statements belonging to ``scope``, not descending into functions."""
    pending = list(
        scope.body if isinstance(scope, (ast.Module, ast.FunctionDef,
                                         ast.AsyncFunctionDef)) else []
    )
    while pending:
        stmt = pending.pop()
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield stmt
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                pending.append(child)


def _set_bindings(scope: ast.AST) -> Dict[str, bool]:
    """Name -> "every binding in this scope is a set expression".

    Names rebound to anything that is not provably a set (including
    loop targets and ``with ... as`` aliases) are mapped to ``False``
    so they never produce findings.
    """
    bindings: Dict[str, bool] = {}

    def bind(name: str, is_set: bool) -> None:
        bindings[name] = bindings.get(name, True) and is_set

    for stmt in _scope_statements(scope):
        if isinstance(stmt, ast.Assign):
            is_set = _is_set_expr(stmt.value)
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    bind(target.id, is_set)
                elif isinstance(target, (ast.Tuple, ast.List)):
                    for element in target.elts:
                        if isinstance(element, ast.Name):
                            bind(element.id, False)
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name):
                if _annotation_is_set(stmt.annotation):
                    bind(stmt.target.id, True)
                elif stmt.value is not None:
                    bind(stmt.target.id, _is_set_expr(stmt.value))
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            for node in ast.walk(stmt.target):
                if isinstance(node, ast.Name):
                    bind(node.id, False)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                if isinstance(item.optional_vars, ast.Name):
                    bind(item.optional_vars.id, False)
    return bindings


@register
class SetOrderRule(Rule):
    """Flag result-ordering derived from unordered set iteration."""

    name = "set-order"
    category = "determinism"
    description = (
        "iterating a set (literal or a variable every binding of which "
        "is a set) produces hash-dependent order; sort before any "
        "iteration whose order can reach results"
    )

    _MATERIALIZERS = frozenset({"list", "tuple", "enumerate"})

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        module_bindings = _set_bindings(ctx.tree)
        yield from self._check_scope(ctx, ctx.tree, module_bindings)
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bindings = dict(module_bindings)
                # Parameters and local rebinds shadow module names.
                args = node.args
                params = (
                    list(args.posonlyargs)
                    + list(args.args)
                    + list(args.kwonlyargs)
                )
                for param in params:
                    bindings[param.arg] = False
                bindings.update(_set_bindings(node))
                yield from self._check_scope(ctx, node, bindings)

    def _check_scope(
        self, ctx: LintContext, scope: ast.AST, bindings: Dict[str, bool]
    ) -> Iterator[Finding]:
        # _scope_statements already yields every nested statement of the
        # scope (and only this scope), so per statement only its direct
        # expression children need walking: expressions cannot contain
        # further statements.
        for stmt in _scope_statements(scope):
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                yield from self._check_iterable(ctx, stmt.iter, bindings)
            for child in ast.iter_child_nodes(stmt):
                if not isinstance(child, ast.expr):
                    continue
                for node in ast.walk(child):
                    if isinstance(
                        node,
                        (ast.ListComp, ast.SetComp, ast.DictComp,
                         ast.GeneratorExp),
                    ):
                        for gen in node.generators:
                            yield from self._check_iterable(
                                ctx, gen.iter, bindings
                            )
                    elif (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id in self._MATERIALIZERS
                        and node.args
                    ):
                        yield from self._check_iterable(
                            ctx, node.args[0], bindings
                        )

    def _check_iterable(
        self, ctx: LintContext, iterable: ast.expr, bindings: Dict[str, bool]
    ) -> Iterator[Finding]:
        if _is_set_expr(iterable):
            yield ctx.finding(
                iterable,
                self,
                "iteration over an unordered set; wrap in "
                "sorted(...) so replay order is deterministic",
            )
        elif (
            isinstance(iterable, ast.Name)
            and bindings.get(iterable.id, False)
        ):
            yield ctx.finding(
                iterable,
                self,
                f"iteration over set variable '{iterable.id}'; wrap "
                "in sorted(...) so replay order is deterministic",
            )
