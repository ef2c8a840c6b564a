"""Per-file fact extraction: the picklable unit of whole-program analysis.

One pass over a parsed file produces a :class:`ModuleFacts` -- plain
dataclasses, no AST nodes -- recording everything the interprocedural
layer needs: function definitions with naming-derived parameter spaces,
class attribute types, import bindings, call sites (with per-argument
descriptors), dict/set iteration sites, and module-global mutations.

Facts are deliberately self-contained and picklable so the ``--jobs N``
per-file phase can extract them in spawn workers and ship them back to
the single-process whole-program pass.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePath
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..core import name_tokens, root_name, terminal_name
from ..flow import Space, infer_return_space, param_spaces, quick_space

#: Method names that mutate their receiver in place. Used by the
#: spawn-safety rule to spot mutations of module-level state.
MUTATING_METHODS = frozenset(
    {
        "add", "append", "extend", "insert", "update", "setdefault",
        "pop", "popitem", "clear", "remove", "discard", "record",
        "register", "observe",
    }
)


@dataclass(frozen=True)
class ArgFact:
    """One positional argument at a call site."""

    #: Index of the caller's own parameter this argument forwards
    #: verbatim (a bare ``Name`` matching a parameter), else ``None``.
    param_index: Optional[int]
    #: Naming-derived address-space of the expression (Space value name).
    space: str
    #: Lower-case identifier tokens of the expression (for receiver-like
    #: matching: ``process.page_table`` -> {"process", "page", "table"}).
    tokens: FrozenSet[str]
    #: True for a name/attribute chain (something that denotes an object
    #: rather than a computed value).
    is_chain: bool


@dataclass(frozen=True)
class CallFact:
    """One call site inside a function body."""

    line: int
    col: int
    #: "name" (bare name), "self" (``self.m(...)``), "attr"
    #: (``obj.attr.m(...)``), "registry" (``TABLE[key](...)``),
    #: "opaque" (anything else).
    kind: str
    #: Terminal callee name ("" when opaque).
    name: str
    #: Leftmost identifier of the callee expression ("" when none).
    root: str
    #: Full dotted path of the callee expression, terminal included
    #: (``("process", "page_table", "unmap")``); empty when not a chain.
    path: Tuple[str, ...]
    #: Identifier tokens of the receiver expression (path minus terminal).
    receiver_tokens: FrozenSet[str]
    args: Tuple[ArgFact, ...]
    #: Number of keyword arguments (signature matching stays positional).
    keyword_count: int


@dataclass(frozen=True)
class IterationFact:
    """One dict/set iteration site (loop or comprehension generator)."""

    line: int
    col: int
    #: "dict-items" | "dict-keys" | "dict-values" | "set".
    kind: str
    #: True when the iterable is wrapped in ``sorted(...)``.
    sorted_: bool
    #: Human-readable description of the iterable.
    desc: str


@dataclass(frozen=True)
class GlobalMutationFact:
    """A candidate mutation of module-level state inside a function."""

    line: int
    col: int
    #: Root identifier being mutated (resolved against module globals and
    #: imports by the spawn-safety rule).
    root: str
    #: "assign" (``global X; X = ...``), "subscript" (``X[k] = ...`` /
    #: ``del X[k]``), or "method:<name>" (``X.append(...)``).
    how: str


@dataclass(frozen=True)
class FunctionFacts:
    """Summary-ready facts of one function, method, or named lambda."""

    #: Module-local qualified name (``GuestKernel._free_page``,
    #: ``run_cell``, ``outer.<locals>.inner``).
    qualname: str
    name: str
    #: Enclosing class name ("" for free functions).
    cls: str
    #: Enclosing function qualname ("" at module/class level).
    parent: str
    line: int
    col: int
    params: Tuple[str, ...]
    #: Naming-derived Space value name per parameter.
    param_spaces: Tuple[str, ...]
    #: Terminal annotation type name per parameter ("" when absent).
    param_annotations: Tuple[str, ...]
    return_space: str
    #: Indices into :attr:`calls` of calls in ``return`` position.
    return_calls: Tuple[int, ...]
    decorators: Tuple[str, ...]
    is_lambda: bool
    calls: Tuple[CallFact, ...]
    iterations: Tuple[IterationFact, ...]
    global_mutations: Tuple[GlobalMutationFact, ...]


@dataclass(frozen=True)
class ClassFacts:
    """One class: bases, methods, and inferred attribute types."""

    name: str
    line: int
    bases: Tuple[str, ...]
    methods: Tuple[str, ...]
    #: Attribute name -> terminal type name, inferred from ``self.x =
    #: Type(...)``, ``self.x = param`` (annotated), and annotations.
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class ModuleFacts:
    """Everything the whole-program pass knows about one file."""

    path: str
    #: Dotted module name (``repro.os.kernel``) or the bare stem for
    #: files outside a ``repro`` package.
    module: str
    is_test: bool
    #: Local name -> dotted target ("repro.os.kernel" for a module
    #: import, "repro.os.kernel.GuestKernel" for a member import).
    imports: Dict[str, str]
    functions: Tuple[FunctionFacts, ...]
    classes: Tuple[ClassFacts, ...]
    #: Module-level dict registries mapping to local function names
    #: (``EXPERIMENTS = {"figure6": _run_figure6, ...}``).
    registries: Dict[str, Tuple[str, ...]]
    #: Module-level mutable bindings: name -> (line, kind) where kind is
    #: "dict" | "list" | "set" | "instance".
    module_mutables: Dict[str, Tuple[int, str]]
    #: Suppression pragmas of the file: (file-disabled names,
    #: {line: disabled names}), so program-rule findings respect them.
    file_disabled: FrozenSet[str] = frozenset()
    line_disabled: Dict[int, FrozenSet[str]] = field(default_factory=dict)


def module_name_for_path(path: str) -> str:
    """Dotted module name of ``path``, anchored at a ``repro`` package.

    ``src/repro/os/kernel.py`` -> ``repro.os.kernel``; package
    ``__init__.py`` files name the package itself; files outside any
    ``repro`` directory fall back to their stem, each one its own
    stand-alone module (how snippet fixtures are modelled).
    """
    parts = list(PurePath(path).parts)
    stem = PurePath(path).stem
    if "repro" in parts:
        index = parts.index("repro")
        dotted = parts[index:-1] + ([] if stem == "__init__" else [stem])
        return ".".join(dotted)
    return stem


def _is_test_path(path: str) -> bool:
    pure = PurePath(path)
    return pure.name.startswith("test_") or "tests" in pure.parts


def extract_facts(
    path: str,
    tree: ast.Module,
    file_disabled: FrozenSet[str] = frozenset(),
    line_disabled: Optional[Dict[int, FrozenSet[str]]] = None,
) -> ModuleFacts:
    """Extract :class:`ModuleFacts` from one parsed file."""
    extractor = _Extractor(path, tree)
    extractor.run()
    return ModuleFacts(
        path=path,
        module=module_name_for_path(path),
        is_test=_is_test_path(path),
        imports=extractor.imports,
        functions=tuple(extractor.functions),
        classes=tuple(extractor.classes),
        registries=extractor.registries,
        module_mutables=extractor.module_mutables,
        file_disabled=file_disabled,
        line_disabled=dict(line_disabled or {}),
    )


class _Extractor:
    """Single-pass scope walker populating the fact tables."""

    def __init__(self, path: str, tree: ast.Module) -> None:
        self.path = path
        self.tree = tree
        self.module = module_name_for_path(path)
        self.imports: Dict[str, str] = {}
        self.functions: List[FunctionFacts] = []
        self.classes: List[ClassFacts] = []
        self.registries: Dict[str, Tuple[str, ...]] = {}
        self.module_mutables: Dict[str, Tuple[int, str]] = {}

    # -- entry point --------------------------------------------------- #

    def run(self) -> None:
        self._collect_imports()
        self._scan_module_body()

    def _collect_imports(self) -> None:
        package = self.module.rsplit(".", 1)[0] if "." in self.module else ""
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.imports[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                    )
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    anchor = self.module.split(".")
                    # level 1 = current package, 2 = its parent, ...
                    anchor = anchor[: len(anchor) - node.level]
                    if not anchor and package:
                        anchor = package.split(".")
                    base = ".".join(anchor + ([base] if base else []))
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    target = f"{base}.{alias.name}" if base else alias.name
                    self.imports[alias.asname or alias.name] = target

    def _scan_module_body(self) -> None:
        for stmt in self.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._scan_function(stmt, cls="", parent="")
            elif isinstance(stmt, ast.ClassDef):
                self._scan_class(stmt)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                self._scan_module_assign(stmt)

    # -- module-level assignments -------------------------------------- #

    def _scan_module_assign(self, stmt) -> None:
        targets = (
            stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        )
        value = stmt.value
        if value is None:
            return
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if not names:
            return
        if isinstance(value, ast.Lambda):
            for name in names:
                self.functions.append(
                    self._lambda_facts(value, name, cls="", parent="")
                )
            return
        kind = _mutable_kind(value)
        if kind is not None:
            for name in names:
                self.module_mutables[name] = (stmt.lineno, kind)
        if isinstance(value, ast.Dict):
            referenced = _registry_values(value)
            if referenced is not None:
                for name in names:
                    self.registries[name] = referenced

    # -- classes -------------------------------------------------------- #

    def _scan_class(self, node: ast.ClassDef) -> None:
        attr_types: Dict[str, str] = {}
        methods: List[str] = []
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods.append(stmt.name)
                self._scan_function(stmt, cls=node.name, parent="")
                _infer_attr_types(stmt, attr_types)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                annotation = terminal_name(stmt.annotation)
                if annotation:
                    attr_types.setdefault(stmt.target.id, annotation)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and isinstance(
                        stmt.value, ast.Lambda
                    ):
                        self.functions.append(
                            self._lambda_facts(
                                stmt.value, target.id, cls=node.name, parent=""
                            )
                        )
        self.classes.append(
            ClassFacts(
                name=node.name,
                line=node.lineno,
                bases=tuple(
                    base_name
                    for base in node.bases
                    if (base_name := terminal_name(base)) is not None
                ),
                methods=tuple(methods),
                attr_types=attr_types,
            )
        )

    # -- functions ------------------------------------------------------ #

    def _scan_function(self, node, cls: str, parent: str) -> None:
        qualname = _qualname(node.name, cls, parent)
        body = _BodyScanner(node)
        body.run()
        params, spaces, annotations = _param_facts(node)
        self.functions.append(
            FunctionFacts(
                qualname=qualname,
                name=node.name,
                cls=cls,
                parent=parent,
                line=node.lineno,
                col=node.col_offset,
                params=params,
                param_spaces=spaces,
                param_annotations=annotations,
                return_space=infer_return_space(node).value,
                return_calls=tuple(body.return_calls),
                decorators=tuple(
                    decorator_name
                    for decorator in node.decorator_list
                    if (decorator_name := terminal_name(decorator))
                    is not None
                ),
                is_lambda=False,
                calls=tuple(body.calls),
                iterations=tuple(body.iterations),
                global_mutations=tuple(body.global_mutations),
            )
        )
        for nested in body.nested:
            self._scan_function(nested, cls="", parent=qualname)

    def _lambda_facts(
        self, node: ast.Lambda, name: str, cls: str, parent: str
    ) -> FunctionFacts:
        body = _BodyScanner(node)
        body.run()
        params, spaces, annotations = _param_facts(node)
        return FunctionFacts(
            qualname=_qualname(name, cls, parent),
            name=name,
            cls=cls,
            parent=parent,
            line=node.lineno,
            col=node.col_offset,
            params=params,
            param_spaces=spaces,
            param_annotations=annotations,
            return_space=quick_space(node.body).value,
            return_calls=(),
            decorators=(),
            is_lambda=True,
            calls=tuple(body.calls),
            iterations=tuple(body.iterations),
            global_mutations=tuple(body.global_mutations),
        )


def _qualname(name: str, cls: str, parent: str) -> str:
    if parent:
        return f"{parent}.<locals>.{name}"
    if cls:
        return f"{cls}.{name}"
    return name


def _param_facts(node) -> Tuple[Tuple[str, ...], Tuple[str, ...], Tuple[str, ...]]:
    named = param_spaces(node)
    params = tuple(name for name, _ in named)
    spaces = tuple(space.value for _, space in named)
    args = node.args
    all_args = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    annotations: List[str] = []
    for arg in all_args:
        if arg.arg in ("self", "cls") and not annotations and arg is all_args[0]:
            continue
        annotation = (
            terminal_name(arg.annotation) if arg.annotation is not None else None
        )
        annotations.append(annotation or "")
    # Pad in case of mismatch (defensive; lengths normally agree).
    while len(annotations) < len(params):
        annotations.append("")
    return params, spaces, tuple(annotations[: len(params)])


def _mutable_kind(value: ast.expr) -> Optional[str]:
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(value, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(value, ast.Call):
        callee = terminal_name(value.func)
        if callee in ("dict", "list", "set", "defaultdict", "deque", "Counter"):
            return {"dict": "dict", "defaultdict": "dict", "Counter": "dict",
                    "list": "list", "deque": "list", "set": "set"}[callee]
        if callee and callee[0].isupper():
            return "instance"
    return None


def _registry_values(value: ast.Dict) -> Optional[Tuple[str, ...]]:
    """Local function names referenced by a dict-literal registry."""
    names: List[str] = []
    for entry in value.values:
        name = terminal_name(entry)
        if name is None:
            return None
        names.append(name)
    return tuple(names) if names else None


def _infer_attr_types(method, attr_types: Dict[str, str]) -> None:
    """``self.x = Type(...)`` / annotated-param propagation, in place."""
    annotations: Dict[str, str] = {}
    args = method.args
    for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
        if arg.annotation is not None:
            annotation = terminal_name(arg.annotation)
            if annotation:
                annotations[arg.arg] = annotation
    for node in ast.walk(method):
        target = None
        value = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target, value = node.target, node.value
            annotation = terminal_name(node.annotation)
            if (
                annotation
                and isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                attr_types.setdefault(target.attr, annotation)
        if not (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            continue
        if isinstance(value, ast.Call):
            callee = terminal_name(value.func)
            if callee and callee[0].isupper():
                attr_types.setdefault(target.attr, callee)
        elif isinstance(value, ast.Name) and value.id in annotations:
            attr_types.setdefault(target.attr, annotations[value.id])


class _BodyScanner:
    """Collect call/iteration/mutation facts of one function body.

    Stops at nested function definitions (their bodies are scanned as
    separate scopes) and records them for the caller to recurse into.
    """

    def __init__(self, func) -> None:
        self.func = func
        params = [name for name, _ in param_spaces(func)]
        self.param_index = {name: i for i, name in enumerate(params)}
        self.calls: List[CallFact] = []
        self.iterations: List[IterationFact] = []
        self.global_mutations: List[GlobalMutationFact] = []
        self.return_calls: List[int] = []
        self.nested: List[ast.AST] = []
        self._globals: set = set()

    def run(self) -> None:
        body = (
            [self.func.body]
            if isinstance(self.func, ast.Lambda)
            else list(self.func.body)
        )
        for stmt in body:
            self._scan(stmt)

    def _scan(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.nested.append(node)
            return
        if isinstance(node, ast.Lambda):
            # Anonymous inline lambdas: scan their body in this scope so
            # calls inside e.g. ``sorted(key=lambda ...)`` are not lost.
            self._scan(node.body)
            return
        if isinstance(node, ast.Global):
            self._globals.update(node.names)
        elif isinstance(node, ast.Return) and node.value is not None:
            if isinstance(node.value, ast.Call):
                self.return_calls.append(len(self.calls))
        elif isinstance(node, ast.Call):
            self._record_call(node)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            self._record_iteration(node.iter)
        elif isinstance(node, ast.comprehension):
            self._record_iteration(node.iter)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
            self._record_mutation(node)
        for child in ast.iter_child_nodes(node):
            self._scan(child)

    # -- calls ---------------------------------------------------------- #

    def _record_call(self, node: ast.Call) -> None:
        func = node.func
        kind = "opaque"
        name = terminal_name(func) or ""
        root = root_name(func) or ""
        path = _dotted_path(func)
        receiver_tokens: FrozenSet[str] = frozenset()
        if isinstance(func, ast.Name):
            kind = "name"
        elif isinstance(func, ast.Attribute):
            receiver_tokens = frozenset(name_tokens(func.value))
            if isinstance(func.value, ast.Name) and func.value.id == "self":
                kind = "self"
            elif path:
                kind = "attr"
            else:
                kind = "opaque"
        elif isinstance(func, ast.Subscript) and isinstance(
            func.value, ast.Name
        ):
            kind = "registry"
            root = func.value.id
            name = ""
        args = tuple(self._arg_fact(arg) for arg in node.args)
        self.calls.append(
            CallFact(
                line=node.lineno,
                col=node.col_offset,
                kind=kind,
                name=name,
                root=root,
                path=path,
                receiver_tokens=receiver_tokens,
                args=args,
                keyword_count=len(node.keywords),
            )
        )
        if kind in ("self", "attr") and name in MUTATING_METHODS:
            # ``X.append(...)`` on a bare name: candidate global mutation.
            if (
                isinstance(func.value, ast.Name)
                and func.value.id not in self.param_index
            ):
                self.global_mutations.append(
                    GlobalMutationFact(
                        line=node.lineno,
                        col=node.col_offset,
                        root=func.value.id,
                        how=f"method:{name}",
                    )
                )

    def _arg_fact(self, arg: ast.expr) -> ArgFact:
        if isinstance(arg, ast.Starred):
            arg = arg.value
        param_index = None
        if isinstance(arg, ast.Name):
            param_index = self.param_index.get(arg.id)
        return ArgFact(
            param_index=param_index,
            space=quick_space(arg).value,
            tokens=frozenset(name_tokens(arg)),
            is_chain=isinstance(arg, (ast.Name, ast.Attribute)),
        )

    # -- iterations ----------------------------------------------------- #

    def _record_iteration(self, iterable: ast.expr) -> None:
        sorted_ = False
        inner = iterable
        while (
            isinstance(inner, ast.Call)
            and isinstance(inner.func, ast.Name)
            and inner.func.id in ("sorted", "list", "tuple", "reversed")
            and inner.args
        ):
            if inner.func.id == "sorted":
                sorted_ = True
            inner = inner.args[0]
        kind = None
        desc = ""
        if isinstance(inner, ast.Call) and isinstance(
            inner.func, ast.Attribute
        ):
            method = inner.func.attr
            if method in ("items", "keys", "values") and not inner.args:
                kind = f"dict-{method}"
                chain = _dotted_path(inner.func)
                desc = ".".join(chain) + "()" if chain else f"<expr>.{method}()"
        elif isinstance(inner, (ast.Set, ast.SetComp)):
            kind = "set"
            desc = "set literal"
        elif (
            isinstance(inner, ast.Call)
            and isinstance(inner.func, ast.Name)
            and inner.func.id in ("set", "frozenset")
        ):
            kind = "set"
            desc = f"{inner.func.id}(...)"
        if kind is not None:
            self.iterations.append(
                IterationFact(
                    line=iterable.lineno,
                    col=iterable.col_offset,
                    kind=kind,
                    sorted_=sorted_,
                    desc=desc,
                )
            )

    # -- global mutations ----------------------------------------------- #

    def _record_mutation(self, node: ast.AST) -> None:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        else:  # ast.Delete
            targets = node.targets
        for target in targets:
            if isinstance(target, ast.Name) and target.id in self._globals:
                self.global_mutations.append(
                    GlobalMutationFact(
                        line=node.lineno,
                        col=node.col_offset,
                        root=target.id,
                        how="assign",
                    )
                )
            elif isinstance(target, ast.Subscript) and isinstance(
                target.value, ast.Name
            ):
                root = target.value.id
                if root not in self.param_index:
                    self.global_mutations.append(
                        GlobalMutationFact(
                            line=node.lineno,
                            col=node.col_offset,
                            root=root,
                            how="subscript",
                        )
                    )


def _dotted_path(node: ast.AST) -> Tuple[str, ...]:
    """``a.b.c`` -> ("a", "b", "c"); empty for non-chains."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()
