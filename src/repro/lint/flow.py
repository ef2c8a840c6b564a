"""Address-space flow analysis: the engine behind the ``address-flow`` rule.

The simulator juggles three address spaces -- guest-virtual,
guest-physical (= host-virtual: the gPA==hVA identity of nested paging)
and host-physical -- plus their derived page/frame numbers, yet every
value is a bare Python ``int``. A swapped ``vpn``/``gfn``/``hfn``
argument therefore produces plausible-but-wrong figures instead of a
crash. This module infers an address-space *lattice* value for every
expression of a function from three sources:

* identifier naming (``vpn`` -> VPN, ``hfn`` -> HFN, ``gpa`` -> GPA...),
* the ``repro.units`` conversion functions (``page_number`` shifts an
  address down to its page number, ``pte_address`` lifts a frame back
  into a physical address, ...),
* a curated signature table for the memory-stack APIs
  (``PageTable.map``, ``BuddyAllocator.free``, ``PageWalker.walk``...),
  with host-side variants selected by receiver naming so nested paging's
  legitimate ``vm.host_pt.map(gfn, hfn)`` is typed as the *host* page
  table mapping gPA onto hPA rather than flagged.

It then reports cross-space assignments, mixed-space arithmetic, calls
passing a value of one space into a parameter of another, and loop
variables binding values from a different space. The analysis is
intra-procedural and deliberately conservative: UNKNOWN is compatible
with everything, the generic FRAME/PAGE/PA/ADDR supertypes absorb their
specific subspaces, and only provably-contradictory pairings are
reported.

The lattice (specific spaces at the bottom, UNKNOWN compatible with
everything)::

            ADDR                     PAGE
           /    \\                   /    \\
        GVA      PA              VPN      FRAME
                /  \\                     /     \\
             GPA    HPA               GFN       HFN

    scalars: BYTES, CYCLES        >> PAGE_SHIFT maps the left column
                                  onto the right one, << back.
"""

from __future__ import annotations

import ast
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from .core import Finding, LintContext, Rule, name_tokens, terminal_name


class Space(Enum):
    """One point of the address-space lattice."""

    GVA = "GVA"  # guest-virtual address
    GPA = "GPA"  # guest-physical address (= host-virtual)
    HPA = "HPA"  # host-physical address
    PA = "PA"  # some physical address (GPA or HPA)
    ADDR = "ADDR"  # some address (any of the above)
    VPN = "VPN"  # guest-virtual page number
    GFN = "GFN"  # guest frame number (GPA >> PAGE_SHIFT)
    HFN = "HFN"  # host frame number (HPA >> PAGE_SHIFT)
    FRAME = "FRAME"  # some physical frame number (GFN or HFN)
    PAGE = "PAGE"  # some page number (any of the above)
    BYTES = "BYTES"  # byte count / byte offset
    CYCLES = "CYCLES"  # modelled time
    UNKNOWN = "UNKNOWN"  # not an address-space value / not inferable


#: Immediate supertype of each space in the subsumption order.
_PARENT: Dict[Space, Space] = {
    Space.GVA: Space.ADDR,
    Space.GPA: Space.PA,
    Space.HPA: Space.PA,
    Space.PA: Space.ADDR,
    Space.VPN: Space.PAGE,
    Space.GFN: Space.FRAME,
    Space.HFN: Space.FRAME,
    Space.FRAME: Space.PAGE,
}

#: ``addr >> PAGE_SHIFT``: address family -> page-number family.
_SHIFT_DOWN: Dict[Space, Space] = {
    Space.GVA: Space.VPN,
    Space.GPA: Space.GFN,
    Space.HPA: Space.HFN,
    Space.PA: Space.FRAME,
    Space.ADDR: Space.PAGE,
}

#: ``page << PAGE_SHIFT``: page-number family -> address family.
_SHIFT_UP: Dict[Space, Space] = {
    page: addr for addr, page in _SHIFT_DOWN.items()
}

#: The address (byte-granular) column of the lattice.
_ADDR_FAMILY = frozenset(
    {Space.GVA, Space.GPA, Space.HPA, Space.PA, Space.ADDR}
)


def ancestors(space: Space) -> Set[Space]:
    """Every strict supertype of ``space`` in the subsumption order."""
    out: Set[Space] = set()
    while space in _PARENT:
        space = _PARENT[space]
        out.add(space)
    return out


def compatible(a: Space, b: Space) -> bool:
    """True unless ``a`` and ``b`` are provably different spaces."""
    if a is Space.UNKNOWN or b is Space.UNKNOWN or a is b:
        return True
    return a in ancestors(b) or b in ancestors(a)


def join(a: Space, b: Space) -> Space:
    """The more specific of two compatible spaces (UNKNOWN otherwise)."""
    if a is Space.UNKNOWN:
        return b
    if b is Space.UNKNOWN or a is b:
        return a
    if a in ancestors(b):
        return b
    if b in ancestors(a):
        return a
    return Space.UNKNOWN


# ---------------------------------------------------------------------- #
# Space inference from identifier naming
# ---------------------------------------------------------------------- #

#: Tokens that mark a value as *about* addresses without being one
#: (shift amounts, radix-tree indices, PTE words, identifiers...).
_NEUTRAL_TOKENS = frozenset(
    {
        "space", "spaces", "shift", "bits", "bit", "order", "orders",
        "level", "levels", "index", "indexes", "indices", "idx", "slot",
        "slots", "count", "counts", "num", "len", "mask", "pte", "ptes",
        "entry", "entries", "id", "ids", "pid", "group", "groups",
        "flags", "flag", "node", "nodes", "depth", "stride",
    }
)

#: Plural space tokens denote *how many* pages/frames, not which one.
_COUNT_TOKENS = frozenset(
    {"frames", "pages", "vpns", "gfns", "hfns", "pfns", "addrs",
     "addresses"}
)

#: Scalar quantities (these win over space tokens: PAGE_SIZE is bytes).
_SCALAR_TOKENS: Dict[str, Space] = {
    "cycles": Space.CYCLES,
    "latency": Space.CYCLES,
    "bytes": Space.BYTES,
    "nbytes": Space.BYTES,
    "size": Space.BYTES,
}

#: Tokens naming a specific (or generic) address space.
_SPACE_TOKENS: Dict[str, Space] = {
    "vpn": Space.VPN,
    "gvpn": Space.VPN,
    "gfn": Space.GFN,
    "hfn": Space.HFN,
    "pfn": Space.FRAME,
    "frame": Space.FRAME,
    "page": Space.PAGE,
    "gva": Space.GVA,
    "vaddr": Space.GVA,
    "gpa": Space.GPA,
    "hpa": Space.HPA,
    "paddr": Space.PA,
    "addr": Space.ADDR,
    "address": Space.ADDR,
}

#: Receiver-name tokens that select the host-side variant of a
#: signature (the host page table maps GFN -> HFN, not VPN -> FRAME).
HOST_RECEIVER_TOKENS = frozenset(
    {"host", "hpt", "ept", "npt", "hypervisor"}
)


def space_of_name(name: str) -> Space:
    """Infer the address space an identifier's naming promises."""
    tokens = [part for part in name.lower().split("_") if part]
    if not tokens:
        return Space.UNKNOWN
    for token in tokens:
        if token in _NEUTRAL_TOKENS or token in _COUNT_TOKENS:
            return Space.UNKNOWN
    for token in tokens:
        if token in _SCALAR_TOKENS:
            return _SCALAR_TOKENS[token]
    spaces = sorted(
        {_SPACE_TOKENS[token] for token in tokens if token in _SPACE_TOKENS},
        key=lambda space: space.value,
    )
    if not spaces:
        return Space.UNKNOWN
    for candidate in spaces:
        if all(
            other in ancestors(candidate)
            for other in spaces
            if other is not candidate
        ):
            return _refine(candidate, tokens)
    return Space.UNKNOWN


def _refine(space: Space, tokens: Sequence[str]) -> Space:
    """``host_frame`` is an HFN, ``guest_frame`` a GFN."""
    if space is Space.FRAME:
        if "host" in tokens:
            return Space.HFN
        if "guest" in tokens:
            return Space.GFN
    return space


# ---------------------------------------------------------------------- #
# Curated signatures of the memory-stack APIs
# ---------------------------------------------------------------------- #

#: Return-space computation: a fixed space or a function of arg spaces.
ReturnSpace = Union[Space, Callable[[Sequence[Space]], Space]]


class Sig:
    """Positional parameter spaces + return space of one callee variant.

    ``when`` restricts the variant to receivers whose naming contains
    one of the given tokens; the first matching variant wins and a
    ``when=None`` variant is the default.
    """

    def __init__(
        self,
        params: Tuple[Space, ...],
        returns: ReturnSpace = Space.UNKNOWN,
        when: Optional[frozenset] = None,
    ) -> None:
        self.params = params
        self.returns = returns
        self.when = when

    def return_space(self, arg_spaces: Sequence[Space]) -> Space:
        if callable(self.returns):
            return self.returns(arg_spaces)
        return self.returns


def _shift_down_of(arg_spaces: Sequence[Space]) -> Space:
    if arg_spaces:
        return _SHIFT_DOWN.get(arg_spaces[0], Space.PAGE)
    return Space.PAGE


def _shift_up_of(arg_spaces: Sequence[Space]) -> Space:
    if arg_spaces:
        return _SHIFT_UP.get(arg_spaces[0], Space.ADDR)
    return Space.ADDR


def _pa_of_frame(arg_spaces: Sequence[Space]) -> Space:
    if arg_spaces:
        return _SHIFT_UP.get(arg_spaces[0], Space.PA)
    return Space.PA


def _arg0_space(arg_spaces: Sequence[Space]) -> Space:
    return arg_spaces[0] if arg_spaces else Space.UNKNOWN


_UNK = Space.UNKNOWN

#: Callee terminal name -> ordered signature variants. Methods are keyed
#: by name alone: the analysis is intra-procedural and cannot resolve
#: receiver types, so receiver *naming* picks host-side variants.
SIGNATURES: Dict[str, List[Sig]] = {
    # repro.units conversions
    "page_number": [Sig((Space.ADDR,), returns=_shift_down_of)],
    "page_base": [Sig((Space.PAGE,), returns=_shift_up_of)],
    "page_offset": [Sig((Space.ADDR,), returns=Space.BYTES)],
    "block_number": [Sig((Space.ADDR,))],
    "reservation_group": [Sig((Space.VPN,))],
    "reservation_base_vpn": [Sig((_UNK,), returns=Space.VPN)],
    "reservation_slot": [Sig((Space.VPN,))],
    "pt_indices": [Sig((Space.VPN,))],
    "pt_indices_for": [Sig((Space.VPN, _UNK))],
    "pte_address": [Sig((Space.FRAME, _UNK), returns=_pa_of_frame)],
    "pages_for_bytes": [Sig((Space.BYTES,))],
    "align_up": [Sig((_UNK, _UNK), returns=_arg0_space)],
    "align_down": [Sig((_UNK, _UNK), returns=_arg0_space)],
    # page tables (guest PT maps VPN->frame; host PT maps GFN->HFN)
    "map": [
        Sig((Space.GFN, Space.HFN), when=HOST_RECEIVER_TOKENS),
        Sig((Space.VPN, Space.FRAME)),
    ],
    "map_huge": [
        Sig((Space.GFN, Space.HFN), when=HOST_RECEIVER_TOKENS),
        Sig((Space.VPN, Space.FRAME)),
    ],
    "unmap": [
        Sig((Space.GFN,), returns=Space.HFN, when=HOST_RECEIVER_TOKENS),
        Sig((Space.VPN,), returns=Space.FRAME),
    ],
    "unmap_huge": [
        Sig((Space.GFN,), returns=Space.HFN, when=HOST_RECEIVER_TOKENS),
        Sig((Space.VPN,), returns=Space.FRAME),
    ],
    "update": [
        Sig((Space.GFN, Space.HFN, _UNK), when=HOST_RECEIVER_TOKENS),
        Sig((Space.VPN, Space.FRAME, _UNK)),
    ],
    "translate": [
        Sig((Space.GFN,), returns=Space.HFN, when=HOST_RECEIVER_TOKENS),
        Sig((Space.VPN,), returns=Space.FRAME),
    ],
    "is_mapped": [
        Sig((Space.GFN,), when=HOST_RECEIVER_TOKENS),
        Sig((Space.VPN,)),
    ],
    "walk": [
        Sig((Space.GFN,), when=HOST_RECEIVER_TOKENS),
        Sig((Space.VPN,)),
    ],
    "walk_path": [
        Sig((Space.GFN,), when=HOST_RECEIVER_TOKENS),
        Sig((Space.VPN,)),
    ],
    "walk_path_and_pte": [
        Sig((Space.GFN,), when=HOST_RECEIVER_TOKENS),
        Sig((Space.VPN,)),
    ],
    "fill": [
        Sig((Space.GFN, _UNK, Space.HFN), when=HOST_RECEIVER_TOKENS),
        Sig((Space.VPN, _UNK, Space.FRAME)),
    ],
    "make_pte": [Sig((Space.FRAME, _UNK))],
    "pte_frame": [Sig((_UNK,), returns=Space.FRAME)],
    # buddy allocator / physical memory / per-CPU cache
    "alloc": [Sig((_UNK,), returns=Space.FRAME)],
    "alloc_frame": [Sig((), returns=Space.FRAME)],
    "alloc_frame_at": [Sig((Space.FRAME,))],
    "free": [Sig((Space.FRAME,))],
    "split_allocation": [Sig((Space.FRAME,))],
    "default_alloc": [Sig((_UNK, _UNK), returns=Space.FRAME)],
    "set_state": [Sig((Space.FRAME, _UNK, _UNK))],
    "set_range_state": [Sig((Space.FRAME, _UNK, _UNK, _UNK))],
    "state_of": [Sig((Space.FRAME,))],
    "owner_of": [Sig((Space.FRAME,))],
    "check_frame": [Sig((Space.FRAME,))],
    # PaRT reservations
    "map_slot": [Sig((_UNK,), returns=Space.FRAME)],
    "unmap_slot": [Sig((_UNK,))],
    "slot_mapped": [Sig((_UNK,))],
    "frame_for_slot": [Sig((_UNK,), returns=Space.FRAME)],
    # hypervisor backing of guest-physical memory
    "ensure_backed": [Sig((_UNK, Space.GFN), returns=Space.HFN)],
    "unback": [Sig((_UNK, Space.GFN))],
    # fault and free paths
    "handle_fault": [Sig((_UNK, Space.VPN))],
    "fault": [Sig((_UNK, Space.VPN, _UNK, _UNK))],
    "free_page": [Sig((_UNK, Space.VPN, Space.FRAME))],
    "_free_page": [Sig((_UNK, Space.VPN))],
    "split_huge": [Sig((_UNK, Space.VPN))],
    # shootdown fan-out: TLBs and the guest PWC are keyed by guest VPN
    "_notify_unmap": [Sig((_UNK, Space.VPN))],
    "invalidate_translation": [Sig((Space.VPN,))],
    "invalidate_vpn": [Sig((Space.VPN,))],
    # memory hierarchy timing
    "memory_access": [Sig((Space.ADDR, _UNK), returns=Space.CYCLES)],
}

#: Names whose calls pass their argument's space through unchanged.
_PASSTHROUGH_CALLS = frozenset({"abs", "int", "min", "max"})


def _select_sig(name: str, receiver_tokens: Set[str]) -> Optional[Sig]:
    variants = SIGNATURES.get(name)
    if not variants:
        return None
    for sig in variants:
        if sig.when is None or (sig.when & receiver_tokens):
            return sig
    return None


# ---------------------------------------------------------------------- #
# The analysis proper
# ---------------------------------------------------------------------- #

def _is_page_shift(node: ast.AST) -> bool:
    """True for the ``PAGE_SHIFT`` shift amount (or its literal 12)."""
    if terminal_name(node) == "PAGE_SHIFT":
        return True
    return isinstance(node, ast.Constant) and node.value == 12


def _param_spaces(func: ast.AST) -> List[Tuple[str, Space]]:
    """(name, space) of every positional/keyword parameter, sans self."""
    args = func.args
    params = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    out = []
    for index, arg in enumerate(params):
        if index == 0 and arg.arg in ("self", "cls"):
            continue
        out.append((arg.arg, space_of_name(arg.arg)))
    return out


def _collect_local_sigs(tree: ast.Module) -> Dict[str, Sig]:
    """Signatures inferred from function definitions in the same file.

    Curated names are excluded (the table is authoritative); colliding
    local definitions with different inferred parameter spaces are
    dropped rather than guessed between.
    """
    local: Dict[str, Optional[Sig]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name in SIGNATURES:
            continue
        params = tuple(space for _, space in _param_spaces(node))
        if all(space is Space.UNKNOWN for space in params):
            continue
        sig = Sig(params)
        if node.name in local:
            existing = local[node.name]
            if existing is not None and existing.params != params:
                local[node.name] = None
        else:
            local[node.name] = sig
    return {name: sig for name, sig in local.items() if sig is not None}


class FlowAnalyzer:
    """Analyze one file; findings accumulate in :attr:`findings`."""

    def __init__(self, ctx: LintContext, rule: Rule) -> None:
        self.ctx = ctx
        self.rule = rule
        self.findings: List[Finding] = []
        self.local_sigs = _collect_local_sigs(ctx.tree)
        #: id(node) -> inferred space, for tuple-unpacking lookups.
        self._space_cache: Dict[int, Space] = {}

    # -- entry point -------------------------------------------------- #

    def analyze(self) -> List[Finding]:
        self._scan_body(self.ctx.tree.body, {})
        for node in ast.walk(self.ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                env = {name: space for name, space in _param_spaces(node)}
                self._scan_body(node.body, env)
        return self.findings

    def _flag(self, node: ast.AST, message: str) -> None:
        self.findings.append(self.ctx.finding(node, self.rule, message))

    # -- statements --------------------------------------------------- #

    def _scan_body(self, stmts, env: Dict[str, Space]) -> None:
        for stmt in stmts:
            self._scan_stmt(stmt, env)

    def _scan_stmt(self, stmt: ast.stmt, env: Dict[str, Space]) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # analyzed as its own scope
        if isinstance(stmt, ast.ClassDef):
            self._scan_body(stmt.body, env)
        elif isinstance(stmt, ast.Assign):
            value_space = self._eval(stmt.value, env)
            for target in stmt.targets:
                self._bind(target, stmt.value, value_space, env)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                value_space = self._eval(stmt.value, env)
                self._bind(stmt.target, stmt.value, value_space, env)
        elif isinstance(stmt, ast.AugAssign):
            self._check_aug_assign(stmt, env)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._check_for(stmt, env)
            self._scan_body(stmt.body, env)
            self._scan_body(stmt.orelse, env)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test, env)
            self._scan_body(stmt.body, env)
            self._scan_body(stmt.orelse, env)
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test, env)
            self._scan_body(stmt.body, env)
            self._scan_body(stmt.orelse, env)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self._eval(item.context_expr, env)
            self._scan_body(stmt.body, env)
        elif isinstance(stmt, ast.Try):
            self._scan_body(stmt.body, env)
            for handler in stmt.handlers:
                self._scan_body(handler.body, env)
            self._scan_body(stmt.orelse, env)
            self._scan_body(stmt.finalbody, env)
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._eval(child, env)

    def _bind(
        self,
        target: ast.expr,
        value: ast.expr,
        value_space: Space,
        env: Dict[str, Space],
    ) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            elements = None
            if isinstance(value, (ast.Tuple, ast.List)) and len(
                value.elts
            ) == len(target.elts):
                elements = value.elts
            for index, sub in enumerate(target.elts):
                if elements is not None:
                    # _eval already cached per-element spaces when it
                    # visited the right-hand tuple.
                    element_space = self._space_cache.get(
                        id(elements[index]), Space.UNKNOWN
                    )
                    self._bind(sub, elements[index], element_space, env)
                else:
                    self._bind(sub, value, Space.UNKNOWN, env)
            return
        name = terminal_name(target)
        if name is None:
            self._eval(target, env)
            return
        target_space = env_space = space_of_name(name)
        if not compatible(target_space, value_space):
            self._flag(
                target,
                f"'{name}' looks like {target_space.value} but is "
                f"assigned a {value_space.value} value",
            )
        elif value_space is not Space.UNKNOWN:
            env_space = join(target_space, value_space)
        if isinstance(target, ast.Name):
            env[target.id] = env_space

    def _check_aug_assign(
        self, stmt: ast.AugAssign, env: Dict[str, Space]
    ) -> None:
        name = terminal_name(stmt.target)
        target_space = Space.UNKNOWN
        if name is not None:
            if isinstance(stmt.target, ast.Name) and stmt.target.id in env:
                target_space = env[stmt.target.id]
            else:
                target_space = space_of_name(name)
        value_space = self._eval(stmt.value, env)
        if isinstance(stmt.op, (ast.Add, ast.Sub)):
            if not self._addable(target_space, value_space):
                self._flag(
                    stmt,
                    f"'{'+=' if isinstance(stmt.op, ast.Add) else '-='}' "
                    f"mixes {target_space.value} and {value_space.value} "
                    "operands",
                )

    def _check_for(self, stmt, env: Dict[str, Space]) -> None:
        element_space = self._element_space(stmt.iter, env)
        self._eval(stmt.iter, env)
        target = stmt.target
        if isinstance(target, ast.Name):
            target_space = space_of_name(target.id)
            if not compatible(target_space, element_space):
                self._flag(
                    target,
                    f"loop variable '{target.id}' looks like "
                    f"{target_space.value} but iterates over "
                    f"{element_space.value} values",
                )
                env[target.id] = target_space
            else:
                env[target.id] = join(target_space, element_space)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for sub in target.elts:
                if isinstance(sub, ast.Name):
                    env[sub.id] = space_of_name(sub.id)

    def _element_space(self, node: ast.expr, env: Dict[str, Space]) -> Space:
        """Space of the values an iterable yields, where inferable."""
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            name = node.func.id
            if name == "range" and node.args:
                bounds = [
                    self._eval(arg, env) for arg in node.args[:2]
                ]
                out = Space.UNKNOWN
                for space in bounds:
                    if compatible(out, space):
                        out = join(out, space)
                return out
            if name in ("sorted", "list", "tuple", "reversed", "set"):
                if node.args:
                    return self._element_space(node.args[0], env)
        return Space.UNKNOWN

    # -- expressions --------------------------------------------------- #

    def _eval(self, node: ast.expr, env: Dict[str, Space]) -> Space:
        space = self._eval_inner(node, env)
        self._space_cache[id(node)] = space
        return space

    def _eval_inner(self, node: ast.expr, env: Dict[str, Space]) -> Space:
        if isinstance(node, ast.Name):
            return env.get(node.id, space_of_name(node.id))
        if isinstance(node, ast.Attribute):
            self._eval(node.value, env)
            return space_of_name(node.attr)
        if isinstance(node, ast.Constant):
            return Space.UNKNOWN
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node, env)
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand, env)
        if isinstance(node, ast.BoolOp):
            spaces = [self._eval(value, env) for value in node.values]
            out = Space.UNKNOWN
            for space in spaces:
                if not compatible(out, space):
                    return Space.UNKNOWN
                out = join(out, space)
            return out
        if isinstance(node, ast.Call):
            return self._eval_call(node, env)
        if isinstance(node, ast.Compare):
            self._eval(node.left, env)
            for comparator in node.comparators:
                self._eval(comparator, env)
            return Space.UNKNOWN
        if isinstance(node, ast.IfExp):
            self._eval(node.test, env)
            body = self._eval(node.body, env)
            orelse = self._eval(node.orelse, env)
            return join(body, orelse) if compatible(body, orelse) else _UNK
        if isinstance(node, ast.Subscript):
            self._eval(node.value, env)
            if isinstance(node.slice, ast.expr):
                self._eval(node.slice, env)
            return Space.UNKNOWN
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for element in node.elts:
                self._eval(element, env)
            return Space.UNKNOWN
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None:
                    self._eval(key, env)
            for value in node.values:
                self._eval(value, env)
            return Space.UNKNOWN
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            return self._eval_comprehension(node, env)
        if isinstance(node, ast.Starred):
            return self._eval(node.value, env)
        if isinstance(node, ast.FormattedValue):
            return self._eval(node.value, env)
        if isinstance(node, ast.JoinedStr):
            for value in node.values:
                self._eval(value, env)
            return Space.UNKNOWN
        return Space.UNKNOWN

    def _eval_comprehension(self, node, env: Dict[str, Space]) -> Space:
        inner = dict(env)
        for gen in node.generators:
            element_space = self._element_space(gen.iter, inner)
            self._eval(gen.iter, inner)
            if isinstance(gen.target, ast.Name):
                target_space = space_of_name(gen.target.id)
                inner[gen.target.id] = (
                    join(target_space, element_space)
                    if compatible(target_space, element_space)
                    else target_space
                )
            elif isinstance(gen.target, (ast.Tuple, ast.List)):
                for sub in gen.target.elts:
                    if isinstance(sub, ast.Name):
                        inner[sub.id] = space_of_name(sub.id)
            for condition in gen.ifs:
                self._eval(condition, inner)
        if isinstance(node, ast.DictComp):
            self._eval(node.key, inner)
            self._eval(node.value, inner)
        else:
            self._eval(node.elt, inner)
        return Space.UNKNOWN

    def _addable(self, left: Space, right: Space) -> bool:
        """May ``left + right`` / ``left - right`` be well-formed?"""
        if compatible(left, right):
            return True
        # address + byte offset (pte_address-style arithmetic) is the
        # one legitimate cross-space sum.
        if left in _ADDR_FAMILY and right is Space.BYTES:
            return True
        if right in _ADDR_FAMILY and left is Space.BYTES:
            return True
        return False

    def _eval_binop(self, node: ast.BinOp, env: Dict[str, Space]) -> Space:
        left = self._eval(node.left, env)
        right = self._eval(node.right, env)
        op = node.op
        if isinstance(op, (ast.Add, ast.Sub)):
            if not self._addable(left, right):
                symbol = "+" if isinstance(op, ast.Add) else "-"
                self._flag(
                    node,
                    f"'{symbol}' mixes {left.value} and {right.value} "
                    "operands",
                )
                return Space.UNKNOWN
            if isinstance(op, ast.Sub) and left is right:
                return Space.UNKNOWN  # same-space difference is a delta
            if right is Space.BYTES and left in _ADDR_FAMILY:
                return left
            if left is Space.BYTES and right in _ADDR_FAMILY:
                return right
            return join(left, right)
        if isinstance(op, ast.RShift):
            if _is_page_shift(node.right):
                return _SHIFT_DOWN.get(left, Space.UNKNOWN)
            return Space.UNKNOWN
        if isinstance(op, ast.LShift):
            if _is_page_shift(node.right):
                return _SHIFT_UP.get(left, Space.UNKNOWN)
            return Space.UNKNOWN
        if isinstance(op, ast.Mult):
            scalars = {Space.BYTES, Space.CYCLES}
            if left in scalars and right is Space.UNKNOWN:
                return left
            if right in scalars and left is Space.UNKNOWN:
                return right
            return Space.UNKNOWN
        if isinstance(op, ast.BitOr):
            # make_pte-style flag folding keeps the left operand's space.
            return left if right is Space.UNKNOWN else Space.UNKNOWN
        return Space.UNKNOWN

    def _eval_call(self, node: ast.Call, env: Dict[str, Space]) -> Space:
        arg_spaces = [self._eval(arg, env) for arg in node.args]
        for keyword in node.keywords:
            value_space = self._eval(keyword.value, env)
            if keyword.arg is None:
                continue
            keyword_space = space_of_name(keyword.arg)
            if not compatible(keyword_space, value_space):
                self._flag(
                    keyword.value,
                    f"keyword argument '{keyword.arg}=' implies "
                    f"{keyword_space.value}, got {value_space.value}",
                )
        func = node.func
        name = terminal_name(func)
        if name is None:
            self._eval(func, env)
            return Space.UNKNOWN
        if isinstance(func, ast.Name) and name in _PASSTHROUGH_CALLS:
            out = Space.UNKNOWN
            for space in arg_spaces:
                if not compatible(out, space):
                    return Space.UNKNOWN
                out = join(out, space)
            return out
        receiver_tokens: Set[str] = set()
        if isinstance(func, ast.Attribute):
            receiver_tokens = name_tokens(func.value)
            self._eval(func.value, env)
        sig = _select_sig(name, receiver_tokens)
        if sig is None:
            sig = self._local_sig_for(func, name)
        if sig is None:
            return Space.UNKNOWN
        if not any(isinstance(arg, ast.Starred) for arg in node.args):
            pairs = zip(sig.params, arg_spaces)
            for position, (expected, got) in enumerate(pairs, start=1):
                if not compatible(expected, got):
                    self._flag(
                        node.args[position - 1],
                        f"argument {position} of {name}() expects "
                        f"{expected.value}, got {got.value}",
                    )
        return sig.return_space(arg_spaces)

    def _local_sig_for(self, func: ast.expr, name: str) -> Optional[Sig]:
        """Same-file definitions back calls to bare names and self.X()."""
        if isinstance(func, ast.Name):
            return self.local_sigs.get(name)
        if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            if func.value.id == "self":
                return self.local_sigs.get(name)
        return None


def analyze_module(ctx: LintContext, rule: Rule) -> List[Finding]:
    """Run the flow analysis over one parsed file."""
    return FlowAnalyzer(ctx, rule).analyze()

