"""The concrete interpreter: runs the statements before a site, and the
helper methods it calls, when every input is a compile-time constant.

This is what untangles XOR loops and index-juggling builders. Each
statement or expression is compiled once per unit, the first time a site
runs it, into a closure ``fn(interp, env, fields)``: its kind, operator,
names, receiver-text tests and the closures of its children are fixed
then, so a decoder loop that runs ten thousand steps dispatches on node
kind once per node instead of once per step, and the sites of a file share
the closures of their decoding helper. The closures live in the unit's
index, keyed by node identity, and hold nothing of one site: each reads
the site's step count and budget from the `_Interp` it runs with.

Compilation walks a subtree with an explicit stack, and a left-deep
operator chain, an ``else if`` chain or a receiver chain ``x.f().g()…``
runs as one loop, so neither the compiler nor such a chain takes a Python
frame per link. Steps count where a tree walk would: once per statement,
once per expression evaluated and once per loop iteration, so a budget
runs out on the same step. One rule counts them, `_Ctx.tick`; past the
budget it stops the count on the step one at a time would have stopped on
and gives up. Parentheses, an expression statement and a cast count their
own tick in the first tick of their child and take no call of their own,
and a loop runs its block's statements itself.

A ``for`` or ``while`` loop whose condition, updates and body statements
are straight-line work over int, char, String and StringBuilder locals runs
whole iterations in one generated function, its kernel (`_kernel`), and
counts each iteration's steps at once: the only count besides
`_Ctx.tick`'s. The closures measure those steps on an iteration of their
own, and take every iteration the kernel hands back.

The values it computes, and the operators, library calls and string
built-ins it applies, are the one model of Java in `javamodel`. The
set-valued resolver in `resolve` runs the same closures over candidate
sets, once per combination (`_Interp.lifted`).
"""

from __future__ import annotations

from functools import partial

from .javamodel import (Builder, Char, EnumConst, JArray, UNARY,
                        _BUILTINS, _FEWEST_ARGS, _INT_ARITH, _MAX_LENGTH,
                        _MISSING, _NotConcrete, _arith, _as_int, _binary_op,
                        _cast, _elem_of, _length, _load, _object_parts,
                        _preview, library_call, library_new)
from .syntax import (MemberFacts, Record, SourceUnit, SyntaxNode,
                     child_of_kind, decl_name, method_body, method_params,
                     modifier_words, type_body, unit_index)

# Trace-step rule name the interpreter notes (classification reads it).
ENUM_CONSTANT = "enum-constant"


class TraceStep(Record, hashable=True):
    _fields = ("rule", "span", "intermediate")

    def __init__(self, rule: str, span: tuple[int, int],
                 intermediate: str = "") -> None:
        self.rule = rule
        self.span = span
        self.intermediate = intermediate


class _BudgetExhausted(Exception):
    pass


class _Return(Exception):
    def __init__(self, value):
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _JavaThrow(Exception):
    pass


# -- enum models -----------------------------------------------------------

def _enum_model(enum_decl: SyntaxNode) -> dict[str, EnumConst]:
    """Map constant name → EnumConst with constructor-bound fields."""
    name = decl_name(enum_decl) or "?"
    body = child_of_kind(enum_decl, "enum_body")
    if body is None:
        return {}
    ctor = child_of_kind(body, "constructor_declaration")
    param_names = method_params(ctor) if ctor is not None else []
    # this.field = param assignments in the constructor body.
    field_of_param: dict[str, str] = {}
    if ctor is not None:
        cbody = method_body(ctor)
        if cbody is not None:
            for stmt in cbody.find_all("assignment_expression"):
                lhs, rhs = stmt.children[0], stmt.children[1]
                if lhs.kind == "field_access" and lhs.children[0].kind == "this" \
                        and rhs.kind == "identifier" \
                        and str(rhs.value) in param_names:
                    field_of_param[str(rhs.value)] = str(lhs.children[1].value)
    out: dict[str, EnumConst] = {}
    for const in body.children:
        if const.kind != "enum_constant":
            continue
        cname = str(const.children[0].value)
        args = next((c for c in const.children
                     if c.kind == "argument_list"), None)
        bound: list[tuple[str, object]] = []
        if args is not None:
            for pname, arg in zip(param_names, args.children):
                fname = field_of_param.get(pname)
                if fname is not None and arg.kind in (
                        "string_literal", "character_literal",
                        "decimal_integer_literal", "hex_integer_literal"):
                    bound.append((fname, _literal(arg)))
        out[cname] = EnumConst(name, cname, tuple(bound))
    return out


# -- shared resolution context -------------------------------------------

class _Ctx:
    """One site's step count, trace and touched literals, shared by the
    abstract resolver and the interpreter."""

    def __init__(self, budget):
        self.budget = budget
        self.limit = budget.max_steps
        self.steps = 0
        self.trace: list[TraceStep] = []
        self.visible: set[str] = set()

    def tick(self, n: int = 1) -> None:
        """Count ``n`` steps. Past the budget, stop the count on the step
        one at a time would have stopped on, and give up."""
        self.steps += n
        if self.steps > self.limit:
            self.steps = max(self.steps - n + 1, self.limit + 1)
            raise _BudgetExhausted

    def note(self, rule: str, node: SyntaxNode, intermediate: str = "") -> None:
        if len(self.trace) < 200:
            self.trace.append(TraceStep(rule, (node.start, node.end),
                                        intermediate))

    def touch(self, unit: SourceUnit, node: SyntaxNode) -> None:
        """Count the string literals of ``node``, in ``unit``, as visible."""
        self.visible.update(unit_index(unit).literals_in(node))


# -- the interpreter -------------------------------------------------------

class _Interp:
    """Executes concrete Java statements for one site under its step
    budget, from closures compiled once per node of the unit."""

    def __init__(self, ctx: _Ctx, unit: SourceUnit,
                 class_body: SyntaxNode | None):
        self.ctx = ctx
        self.unit = unit
        self.class_body = class_body
        self.call_depth = 0
        self.index = unit_index(unit)
        # The unit's closures, shared by all its sites: id(node) →
        # closure; (id(initializer), elem) → array builder; (id(block),)
        # → the block's statements without its own tick; (id(decl),
        # "params") → `_parameters`.
        self.compiled: dict = self.index.compiled
        # The ids of the nodes `lifted` reads from ``env``.
        self.operands: frozenset = frozenset()

    # --- entry points ---

    def code(self, node: SyntaxNode):
        """The closure of ``node``, compiled with its subtree on first use."""
        fn = self.compiled.get(id(node))
        if fn is not None:
            return fn
        compiled = self.compiled
        stack = [(node, False)]
        while stack:
            item, ready = stack.pop()
            if id(item) in compiled:
                continue
            if ready:
                compile_fn = _COMPILERS.get(item.kind, _c_unsupported)
                compiled[id(item)] = compile_fn(self, item)
                continue
            stack.append((item, True))
            if item.kind in _COMPILERS:
                stack += [(part, False) for part
                          in _PARTS.get(item.kind, _children)(item)
                          if id(part) not in compiled]
        return compiled[id(node)]

    def eval(self, node: SyntaxNode, env: dict, fields: dict):
        return self.code(node)(self, env, fields)

    def lifted(self, node: SyntaxNode, operands: list[SyntaxNode]):
        """``node``'s value in a scope that gives each of ``operands`` as
        ``env[id(operand)]`` (`_c_operand`), with steps counted apart and
        without limit: the resolver counted them when it reached them."""
        ctx = _Ctx(self.ctx.budget)
        ctx.limit, ctx.trace, ctx.visible = \
            float("inf"), self.ctx.trace, self.ctx.visible
        overlay = _Interp(ctx, self.unit, self.class_body)
        overlay.operands = frozenset(map(id, operands))
        overlay.compiled = {id(operand): _c_operand(overlay, operand)
                            for operand in operands}
        return partial(_COMPILERS[node.kind](overlay, node), overlay)

    def body(self, block: SyntaxNode):
        """A block's statements, run without the block statement's tick."""
        key = (id(block),)
        fn = self.compiled.get(key)
        if fn is None:
            self.code(block)
            fn = self.compiled[key] = _sequence(self.compiled, block)
        return fn

    def call_method(self, decl: SyntaxNode, args: list,
                    this_fields: dict[str, object] | None = None):
        if self.call_depth >= self.ctx.budget.max_call_depth:
            raise _NotConcrete
        body = method_body(decl)
        if body is None:
            raise _NotConcrete
        key = (id(decl), "params")
        params = self.compiled.get(key)
        if params is None:
            params = self.compiled[key] = _parameters(decl)
        if len(params) != len(args):
            raise _NotConcrete
        env = {}
        for (name, convert, elem), value in zip(params, args):
            env[name] = _cast(elem, value) if type(value) is convert \
                else value
        run = self.body(body)
        self.call_depth += 1
        try:
            run(self, env, this_fields or {})
        except _Return as ret:
            return ret.value
        finally:
            self.call_depth -= 1
        return None

    def run_region(self, method: SyntaxNode, stop_before: SyntaxNode,
                   env: dict, fields: dict) -> None:
        """Execute the top-level statements of ``method``'s body preceding
        the one that contains ``stop_before``. A statement that cannot be
        executed concretely, or that throws, poisons (unbinds) every
        variable it might write (`WriteFacts.written_in`) instead of
        aborting the region; later reads of one fail on their own."""
        for stmt in method_body(method).children:
            if stmt.start <= stop_before.start <= stmt.end:
                return
            try:
                self.code(stmt)(self, env, fields)
            except (_NotConcrete, _JavaThrow):
                for name in unit_index(self.unit).write_facts(method) \
                        .written_in(stmt):
                    env.pop(name, None)
            except (_Return, _Break, _Continue):
                raise _NotConcrete from None

    # --- class members ---

    def members(self, cls: SyntaxNode | None = None) -> MemberFacts:
        """The member table of ``cls``, or of the site's class when ``cls``
        is None or has no body."""
        body = type_body(cls) if cls is not None else None
        return self.index.member_facts(body if body is not None
                                       else self.class_body)

    def enum_model(self, enum_decl: SyntaxNode) -> dict[str, EnumConst]:
        """Constant name → EnumConst of an enum of the unit, built once per
        unit."""
        models = self.index.enum_models
        model = models.get(id(enum_decl))
        if model is None:
            model = models[id(enum_decl)] = _enum_model(enum_decl)
        return model

    def own_field(self, name: str, fields: dict):
        """The this-bound field ``name``, else the value of the site's
        class's static field ``name``."""
        if name in fields:
            return fields[name]
        found = self.static_field(name)
        if found is _MISSING:
            raise _NotConcrete
        return found

    def static_field(self, name: str, cls: SyntaxNode | None = None):
        """Value of field ``name``'s initializer in ``cls`` (default: the
        site's class), evaluated afresh; _MISSING if there is none."""
        found = self.members(cls).initializer(name)
        if found is None:
            return _MISSING
        member, init = found
        self.ctx.touch(self.unit, member)
        if init.kind != "array_initializer":
            return self.code(init)(self, {}, {})
        type_node = child_of_kind(member, "type_identifier")
        elem = _elem_of(str(type_node.value or "")) \
            if type_node is not None else "int"
        key = (id(init), elem)
        build = self.compiled.get(key)
        if build is None:
            self.code(init)
            build = self.compiled[key] = _array_builder(
                self.compiled, init, elem)
        return build(self, {}, {})

    def call_user(self, cls: SyntaxNode | None, name: str, arg_fns: list,
                  env: dict, fields: dict,
                  this_fields: dict[str, object] | None = None,
                  evaluated: list | None = None):
        """Runs the first method ``name`` of ``cls`` (default: the site's
        class) taking as many parameters as there are arguments."""
        decl = self.members(cls).methods.get((name, len(arg_fns)))
        if decl is None:
            raise _NotConcrete
        if "native" in modifier_words(decl) or method_body(decl) is None:
            raise _NotConcrete
        self.ctx.touch(self.unit, decl)
        if evaluated is None:
            evaluated = []
            for fn in arg_fns:
                evaluated.append(fn(self, env, fields))
        return self.call_method(decl, evaluated,
                                this_fields if this_fields is not None
                                else fields)


def _sequence(compiled: dict, block: SyntaxNode):
    codes = [compiled[id(stmt)] for stmt in block.children]
    if len(codes) == 1:
        return codes[0]

    def run(interp, env, fields):
        for fn in codes:
            fn(interp, env, fields)
    return run


def _array_builder(compiled: dict, init: SyntaxNode, elem: str):
    """Builds a JArray from an initializer's elements. The initializer
    itself takes no step; each element expression takes its own."""
    parts = [_array_builder(compiled, c, elem)
             if c.kind == "array_initializer" else compiled[id(c)]
             for c in init.children]
    kind = elem if elem != "object" else "int"

    def build(interp, env, fields):
        items = []
        for fn in parts:
            items.append(fn(interp, env, fields))
        return JArray(items, kind)
    return build


# -- the compiler ----------------------------------------------------------
#
# `_COMPILERS[kind](interp, node)` returns the closure of a node whose parts
# (`_parts`) are already compiled. A kind with no compiler ticks and gives
# up, as does an unsupported shape of a known kind. The closures serve
# every site of the unit, so they keep nothing of one site: each reads the
# site's `_Ctx` from the interpreter it runs with.
#
# Every closure counts its own step first, with `_Ctx.tick`. An
# expression's compiler also takes ``pre``, the steps of parents that tick
# just before it (an expression statement, parentheses, a cast), and counts
# them in that first tick, so those parents take no call of their own.

_LITERALS = frozenset({
    "string_literal", "character_literal", "decimal_integer_literal",
    "hex_integer_literal", "decimal_floating_point_literal", "true",
    "false", "null_literal"})


def _children(node: SyntaxNode) -> list[SyntaxNode]:
    return node.children


def _parts(node: SyntaxNode) -> list[SyntaxNode]:
    """The nodes whose closures the compiler of ``node`` reads."""
    if node.kind not in _COMPILERS:
        return []
    return _PARTS.get(node.kind, _children)(node)


def _folded(interp, node: SyntaxNode, pre: int):
    """The closure of ``node``, an expression whose parts are compiled,
    counting ``pre`` steps of its parents in its first tick."""
    compile_fn = _c_operand if id(node) in interp.operands \
        else _COMPILERS.get(node.kind, _c_unsupported)
    return compile_fn(interp, node, pre)


def _literal(node: SyntaxNode):
    kind = node.kind
    return Char(ord(str(node.value))) if kind == "character_literal" \
        else None if kind == "null_literal" else node.value


def _c_unsupported(interp, node, pre=0):
    n = 1 + pre

    def unsupported(interp, env, fields):
        interp.ctx.tick(n)
        raise _NotConcrete
    return unsupported


def _c_operand(interp, node, pre=0):
    """An operand of `_Interp.lifted`: the value bound to ``env[id(node)]``."""
    key = id(node)

    def operand(interp, env, fields):
        return env[key]
    return operand


def _c_constant(interp, node, pre=0):
    n = 1 + pre
    value = _literal(node)

    def constant(interp, env, fields):
        interp.ctx.tick(n)
        return value
    return constant


def _c_identifier(interp, node, pre=0):
    n = 1 + pre
    name = str(node.value)

    def identifier(interp, env, fields):
        interp.ctx.tick(n)
        if name in env:
            return env[name]
        return interp.own_field(name, fields)
    return identifier


def _innermost(node: SyntaxNode) -> SyntaxNode:
    while node.kind == "parenthesized_expression":
        node = node.children[0]
    return node


def _c_parenthesized(interp, node, pre=0):
    levels = 0
    while node.kind == "parenthesized_expression":
        node = node.children[0]
        levels += 1
    return _folded(interp, node, pre + levels)


def _chain(node: SyntaxNode, operands: frozenset = frozenset()):
    """Leftmost operand and (operator, right operand) links of a left-deep
    chain of binary expressions, read in a loop down to ``operands``."""
    links = []
    while node.kind == "binary_expression" and id(node) not in operands:
        links.append((str(node.value), node.children[1]))
        node = node.children[0]
    links.reverse()
    return node, links


def _binary_parts(node: SyntaxNode) -> list[SyntaxNode]:
    first, links = _chain(node)
    return [first] + [right for _, right in links]


def _c_binary(interp, node, pre=0):
    """A chain of n binary expressions takes its n steps first, as nested
    evaluation does on its way down the left spine, then folds."""
    compiled = interp.compiled
    first, links = _chain(node, interp.operands)
    first = compiled[id(first)]
    # (short-circuit value, operator on values, operator on ints, right
    # operand): && stops on false and || on true; arithmetic and
    # comparisons never stop.
    steps = [(False, None, None, compiled[id(right)]) if op == "&&" else
             (True, None, None, compiled[id(right)]) if op == "||" else
             (None, *_binary_op(op), compiled[id(right)])
             for op, right in links]
    n = len(steps) + pre

    def chain(interp, env, fields):
        interp.ctx.tick(n)
        value = first(interp, env, fields)
        for stop, apply, on_ints, right in steps:
            if stop is None:
                b = right(interp, env, fields)
                value = on_ints(value, b) \
                    if type(value) is int and type(b) is int \
                    else apply(value, b)
                continue
            if not isinstance(value, bool):
                raise _NotConcrete
            if value is not stop:
                value = right(interp, env, fields)
                if not isinstance(value, bool):
                    raise _NotConcrete
        return value
    return chain


def _c_unary(interp, node, pre=0):
    n = 1 + pre
    operand = interp.compiled[id(node.children[0])]
    apply = UNARY.get(str(node.value))

    def unary(interp, env, fields):
        interp.ctx.tick(n)
        value = operand(interp, env, fields)
        if apply is None:
            raise _NotConcrete
        return apply(value)
    return unary


def _c_update(interp, node, pre=0):
    """``++i`` yields the updated value and ``i++`` the one before; the
    parser starts a postfix update where its operand starts."""
    n = 1 + pre
    target = node.children[0]
    delta = 1 if str(node.value) == "++" else -1
    postfix = node.start == target.start
    if target.kind == "identifier":
        name = str(target.value)
        char = _declared_char(interp, node, name)

        def update_local(interp, env, fields):
            interp.ctx.tick(n)
            if name not in env:
                raise _NotConcrete
            old = env[name]
            value = (old if type(old) is int else _as_int(old)) + delta
            if char:
                value = _cast("char", value)
            env[name] = value
            return old if postfix else value
        return update_local
    if target.kind == "array_access":
        array, index = (interp.compiled[id(c)] for c in target.children)

        def update_element(interp, env, fields):
            interp.ctx.tick(n)
            arr, idx = _element(array, index, interp, env, fields)
            old = arr.items[idx]
            value = _as_int(old) + delta
            if arr.elem == "char":
                value = Char(value & 0xFFFF)
            arr.items[idx] = value
            return old if postfix else value
        return update_element
    return _c_unsupported(interp, node, pre)


def _declared_char(interp, node: SyntaxNode, name: str) -> bool:
    """Whether the local ``name`` that ``node`` updates is declared
    ``char`` (`WriteFacts.declared_type`)."""
    method = interp.index.enclosing_method(node)
    return method is not None and interp.index.write_facts(method) \
        .declared_type(name, node.start) == "char"


def _element(array, index, interp, env, fields) -> tuple[JArray, int]:
    """The array and index of the element an update or a store writes,
    from the closures of its array and index."""
    arr = array(interp, env, fields)
    idx = _as_int(index(interp, env, fields))
    if not isinstance(arr, JArray):
        raise _NotConcrete
    if not 0 <= idx < len(arr.items):
        raise _JavaThrow
    return arr, idx


def _c_assignment(interp, node, pre=0):
    """An assignment stores its right-hand side's value after running it.
    The links of a chain ``a = b = … = v`` run in one frame, in the order
    nested assignments would take: each link ticks top-down, then the
    innermost right-hand side runs, then each link stores, innermost first.
    A link is ``(store, the link below or None, innermost right-hand
    side)``, cached under ``(id(node), "assign")`` apart from call links."""
    n = 1 + pre
    compiled = interp.compiled
    lhs, rhs = node.children
    below = compiled.get((id(rhs), "assign"))
    value_fn = compiled[id(rhs)] if below is None else below[2]
    store = _store(interp, node)
    link = compiled[(id(node), "assign")] = (store, below, value_fn)
    if below is None:
        if lhs.kind == "identifier" and str(node.value) == "=":
            name = str(lhs.value)

            def assign_local(interp, env, fields):
                interp.ctx.tick(n)
                env[name] = value = value_fn(interp, env, fields)
                return value
            return assign_local

        def assign(interp, env, fields):
            interp.ctx.tick(n)
            return store(interp, env, fields, value_fn(interp, env, fields))
        return assign

    def assign_chain(interp, env, fields):
        ctx = interp.ctx
        ctx.tick(n)
        links = [link]
        inner = below
        while inner is not None:
            ctx.tick()
            links.append(inner)
            inner = inner[1]
        value = value_fn(interp, env, fields)
        for store, _, _ in reversed(links):
            value = store(interp, env, fields, value)
        return value
    return assign_chain


def _store(interp, node: SyntaxNode):
    """The function that stores assignment ``node``'s evaluated right-hand
    side into its left-hand side and gives the assignment's value."""
    lhs = node.children[0]
    op = str(node.value)
    combine = None if op == "=" else partial(_arith, op[:-1])
    if lhs.kind == "identifier":
        name = str(lhs.value)
        if combine is None:
            def store_local(interp, env, fields, value):
                env[name] = value
                return value
            return store_local
        char = _declared_char(interp, node, name)

        def combine_local(interp, env, fields, value):
            if name not in env:
                raise _NotConcrete
            value = combine(env[name], value)
            if char and type(value) is int:
                value = _cast("char", value)
            env[name] = value
            return value
        return combine_local
    if lhs.kind == "array_access":
        array, index = (interp.compiled[id(c)] for c in lhs.children)

        def store_element(interp, env, fields, value):
            arr, idx = _element(array, index, interp, env, fields)
            if combine is not None:
                value = combine(arr.items[idx], value)
            if arr.elem == "char" and isinstance(value, int):
                value = Char(value & 0xFFFF)
            arr.items[idx] = value
            return value
        return store_element
    if lhs.kind == "field_access" and lhs.children[0].kind == "this":
        fname = str(lhs.children[1].value)

        def store_field(interp, env, fields, value):
            if combine is not None:
                value = combine(fields.get(fname), value)
            fields[fname] = value
            return value
        return store_field

    def store_other(interp, env, fields, value):
        raise _NotConcrete
    return store_other


def _c_cast(interp, node, pre=0):
    """The cast's step counts in the first tick of its operand."""
    target = str(node.value or "")
    operand = _folded(interp, node.children[1], pre + 1)
    if target == "char":
        def to_char(interp, env, fields):
            value = operand(interp, env, fields)
            if type(value) is int:
                return Char(value & 0xFFFF)
            return _cast(target, value)
        return to_char

    def cast(interp, env, fields):
        return _cast(target, operand(interp, env, fields))
    return cast


def _c_array_access(interp, node, pre=0):
    n = 1 + pre
    array, index = (interp.compiled[id(c)] for c in node.children)

    def array_access(interp, env, fields):
        interp.ctx.tick(n)
        arr = array(interp, env, fields)
        return _load(arr, _as_int(index(interp, env, fields)))
    return array_access


def _c_array_creation(interp, node, pre=0):
    n = 1 + pre
    elem = _elem_of(str(node.children[0].value or ""))
    init = child_of_kind(node, "array_initializer")
    if init is not None:
        return _new_initialized(interp.compiled, init, elem, n)
    dims = [c for c in node.children[1:] if c.kind != "array_initializer"]
    if len(dims) != 1:
        return _c_unsupported(interp, node, pre)
    size = interp.compiled[id(dims[0])]
    fill = Char(0) if elem == "char" else 0

    def new_array(interp, env, fields):
        interp.ctx.tick(n)
        length = _as_int(size(interp, env, fields))
        if length < 0 or length > _MAX_LENGTH:
            raise _NotConcrete
        return JArray([fill] * length, elem)
    return new_array


def _c_array_initializer(interp, node, pre=0):
    return _new_initialized(interp.compiled, node, "int", 1 + pre)


def _new_initialized(compiled: dict, init: SyntaxNode, elem: str, n: int):
    """Builds the array of ``init`` after the ``n`` steps of the node."""
    build = _array_builder(compiled, init, elem)

    def new_initialized(interp, env, fields):
        interp.ctx.tick(n)
        return build(interp, env, fields)
    return new_initialized


def _new_unsupported(args: list):
    raise _NotConcrete


def _c_object_creation(interp, node, pre=0):
    n = 1 + pre
    arg_fns = [interp.compiled[id(a)] for a in _object_parts(node)]
    library = library_new(node)
    create = library[0] if library is not None else _new_unsupported

    def new_object(interp, env, fields):
        interp.ctx.tick(n)
        args = []
        for fn in arg_fns:
            args.append(fn(interp, env, fields))
        return create(args)
    return new_object


def _c_field_access(interp, node, pre=0):
    n = 1 + pre
    obj, name_node = node.children
    name = str(name_node.value)
    if obj.kind == "this":
        def this_field(interp, env, fields):
            interp.ctx.tick(n)
            return interp.own_field(name, fields)
        return this_field
    base_fn = interp.compiled[id(obj)]
    if obj.kind != "identifier":
        def member(interp, env, fields):
            interp.ctx.tick(n)
            base = base_fn(interp, env, fields)
            if name == "length":
                length = _length(base)
                if length is not None:
                    return length
            return _enum_field(base, name)
        return member
    cname = str(obj.value)
    cls = interp.index.first_type.get(cname)

    def named_member(interp, env, fields):
        ctx = interp.ctx
        ctx.tick(n)
        if name == "length":
            length = _length(base_fn(interp, env, fields)) \
                if cname in env else None
            if length is not None:
                return length
        if cls is not None:
            if cls.kind == "enum_declaration":
                model = interp.enum_model(cls)
                if name in model:
                    ctx.note(ENUM_CONSTANT, node, name)
                    return model[name]
            found = interp.static_field(name, cls)
            if found is not _MISSING:
                return found
        return _enum_field(base_fn(interp, env, fields), name)
    return named_member


def _enum_field(base, name: str):
    """Field ``name`` that ``base``, an enum constant, binds."""
    if isinstance(base, EnumConst):
        value = base.field_value(name)
        if value is not None:
            return value
    raise _NotConcrete


def _call_parts(node: SyntaxNode) -> list[SyntaxNode]:
    receiver = [node.children[0]] if len(node.children) == 3 else []
    return receiver + node.children[-1].children


def _c_call(interp, node, pre=0):
    """A library call runs the function `library_call` finds for it; the
    rest, a library call with too few arguments among them, are built-ins
    of the receiver's value or user methods."""
    n = 1 + pre
    name = str(node.value)
    arg_nodes = node.children[-1].children
    arg_fns = [interp.compiled[id(a)] for a in arg_nodes]
    receiver = node.children[0] if len(node.children) == 3 else None

    library = library_call(node)
    if library is not None:
        apply, _, rule = library
        noted = rule is not None

        def library_fn(interp, env, fields):
            ctx = interp.ctx
            ctx.tick(n)
            args = []
            for fn in arg_fns:
                args.append(fn(interp, env, fields))
            value = apply(args)
            if noted:
                ctx.note(rule, node, _preview(value))
            return value
        return library_fn

    if receiver is None:
        # Unqualified call: same-class (or superclass) method, or a
        # this-bound callable.
        def call_own(interp, env, fields):
            interp.ctx.tick(n)
            return interp.call_user(None, name, arg_fns, env, fields)
        return call_own

    base_fn = interp.compiled[id(receiver)]
    ops = {kind: table[name] for kind, table in _BUILTINS.items()
           if name in table
           and len(arg_fns) >= _FEWEST_ARGS.get((kind, name), 0)}
    named = str(receiver.value) if receiver.kind == "identifier" else None
    named_cls = interp.index.first_type.get(named) \
        if named is not None else None

    def finish(interp, env, fields, base, args):
        """The call's value on its evaluated receiver and arguments."""
        op = ops.get(type(base))
        if op is not None:
            result = op(base, args)
            if result is not _MISSING:
                return result
        if isinstance(base, EnumConst):
            if name in ("name", "toString"):
                return base.const_name
            cls = interp.index.first_type.get(base.enum_name)
            if cls is not None:
                return interp.call_user(cls, name, arg_fns, env, fields,
                                        this_fields=dict(base.fields),
                                        evaluated=args)
        raise _NotConcrete

    def call_on(interp, env, fields):
        interp.ctx.tick(n)
        if named is not None and named not in env and named not in fields:
            if named_cls is not None:
                return interp.call_user(named_cls, name, arg_fns, env,
                                        fields)
            raise _NotConcrete
        base = base_fn(interp, env, fields)
        args = []
        for fn in arg_fns:
            args.append(fn(interp, env, fields))
        return finish(interp, env, fields, base, args)
    if receiver.kind != "identifier" and receiver.kind not in _LITERALS:
        return _chained_call(interp, node, receiver, arg_fns, finish, n)
    return call_on


def _chained_call(interp, node, receiver, arg_fns: list, finish, n: int):
    """A call on a receiver it does not read inline. The links of a
    receiver chain ``x.f().g()…`` run in one frame, in the order nested
    calls would take: each link ticks top-down, then the innermost receiver
    runs, then each link's arguments and call, innermost first. A link is
    ``(arg_fns, finish, the link below or None, innermost receiver)``,
    cached under ``(id(node), "call")`` apart from assignment links."""
    compiled = interp.compiled
    below = compiled.get((id(receiver), "call"))
    base_fn = compiled[id(receiver)] if below is None else below[3]
    link = compiled[(id(node), "call")] = (arg_fns, finish, below, base_fn)

    def call_chain(interp, env, fields):
        ctx = interp.ctx
        ctx.tick(n)
        links = [link]
        inner = below
        while inner is not None:
            ctx.tick()
            links.append(inner)
            inner = inner[2]
        base = base_fn(interp, env, fields)
        for arg_fns, finish, _, _ in reversed(links):
            args = []
            for fn in arg_fns:
                args.append(fn(interp, env, fields))
            base = finish(interp, env, fields, base, args)
        return base
    return call_chain


# --- statements ---

def _c_local_declaration(interp, node):
    compiled = interp.compiled
    convert, elem = _converts(str(node.children[0].value or ""))
    declared = []
    for decl in node.children[1:]:
        if decl.kind != "variable_declarator":
            continue
        init = decl.children[1] if len(decl.children) > 1 else None
        declared.append((
            str(decl.children[0].value),
            None if init is None else _array_builder(compiled, init, elem)
            if init.kind == "array_initializer" else compiled[id(init)]))

    def declare(interp, env, fields):
        interp.ctx.tick()
        for name, init in declared:
            value = None if init is None else init(interp, env, fields)
            if type(value) is convert:
                value = _cast(elem, value)
            env[name] = value
    return declare


def _converts(type_text: str) -> tuple[type | None, str]:
    """(the type of value a local, parameter or loop variable declared
    ``type_text`` converts, the type it converts to): a primitive one
    converts a value of the other kind, a char to an int, short, byte or
    long, an int to a char, with `_cast`. Java takes no other primitive
    value without a cast."""
    elem = _elem_of(type_text)
    return (None if elem != type_text else int if elem == "char" else Char,
            elem)


def _parameters(decl: SyntaxNode) -> list[tuple[str, type | None, str]]:
    """(name, *`_converts` of its type) of each parameter of ``decl``."""
    params = child_of_kind(decl, "formal_parameters")
    return [] if params is None else [
        (str(p.children[1].value), *_converts(str(p.children[0].value or "")))
        for p in params.children
        if p.kind == "formal_parameter" and len(p.children) >= 2]


def _declaration_parts(node: SyntaxNode) -> list[SyntaxNode]:
    return [d.children[1] for d in node.children[1:]
            if d.kind == "variable_declarator" and len(d.children) > 1]


def _c_expression_statement(interp, node):
    """The statement's step counts in the first tick of its expression."""
    return _folded(interp, node.children[0], 1)


def _c_block(interp, node):
    codes = [interp.compiled[id(stmt)] for stmt in node.children]

    def block(interp, env, fields):
        interp.ctx.tick()
        for fn in codes:
            fn(interp, env, fields)
    return block


def _if_links(node: SyntaxNode):
    """(condition, then-branch or None) per link of an ``else if`` chain,
    read in a loop, and the final else-branch or None. Like the
    statement's own children, an empty then-branch leaves the else-branch
    second."""
    links = []
    while True:
        branches = node.children[1:]
        links.append((node.children[0], branches[0] if branches else None))
        other = branches[1] if len(branches) > 1 else None
        if other is None or other.kind != "if_statement":
            return links, other
        node = other


def _if_parts(node: SyntaxNode) -> list[SyntaxNode]:
    links, other = _if_links(node)
    parts = [n for link in links for n in link if n is not None]
    return parts + ([other] if other is not None else [])


def _c_if(interp, node):
    """Each link of an ``else if`` chain takes its step when reached, as
    nested statements do, but the chain runs in one frame."""
    compiled = interp.compiled
    links, other = _if_links(node)
    links = [(compiled[id(cond)], None if then is None else compiled[id(then)])
             for cond, then in links]
    other = None if other is None else compiled[id(other)]

    def if_statement(interp, env, fields):
        ctx = interp.ctx
        for cond, then in links:
            ctx.tick()
            test = cond(interp, env, fields)
            if not isinstance(test, bool):
                raise _NotConcrete
            if test:
                if then is not None:
                    then(interp, env, fields)
                return
        if other is not None:
            other(interp, env, fields)
    return if_statement


def _body_parts(body: list[SyntaxNode]) -> list[SyntaxNode]:
    """The parts of a loop whose body is ``body`` (empty or one node): a
    block's statements, which the loop runs itself."""
    return [stmt for node in body for stmt in
            (node.children if node.kind == "block" else [node])]


def _loop_body(compiled: dict, body: list[SyntaxNode]):
    """(steps, statement closures) of one run of a loop body: a block
    counts its step and the loop runs its statements without a call."""
    ticks = 1 if body and body[0].kind == "block" else 0
    return ticks, [compiled[id(stmt)] for stmt in _body_parts(body)]


def _loop(node: SyntaxNode):
    """(inits, condition or None, updates, body: empty or one node, whether
    the body runs once before the first test) of a ``for``, ``while`` or
    ``do`` loop."""
    children = node.children
    if node.kind == "while_statement":
        return [], children[0], [], children[1:2], False
    if node.kind == "do_statement":
        return [], children[-1], [], children[:-1], True
    n_init, has_cond, n_upd, has_body = node.value
    upd = n_init + has_cond
    return (children[:n_init], children[n_init] if has_cond else None,
            children[upd:upd + n_upd], children[-1:] if has_body else [],
            False)


def _loop_parts(node: SyntaxNode) -> list[SyntaxNode]:
    inits, cond, updates, body, _ = _loop(node)
    return inits + ([cond] if cond is not None else []) + updates \
        + _body_parts(body)


def _c_loop(interp, node):
    """A ``for``, ``while`` or ``do`` loop. Each tested iteration runs the
    loop's kernel (`_kernel`) if it has one, and otherwise, or where the
    kernel hands it back, its closures; a ``do`` loop's first iteration
    runs untested, through its closures."""
    compiled = interp.compiled
    inits, cond, updates, body, do = _loop(node)
    inits = [compiled[id(c)] for c in inits]
    cond = compiled[id(cond)] if cond is not None else None
    updates = [compiled[id(c)] for c in updates]
    ticks, body = _loop_body(compiled, body)
    kernel = _kernel(interp, node)

    def loop(interp, env, fields):
        ctx = interp.ctx
        ctx.tick()
        for init in inits:
            init(interp, env, fields)
        test = None if do else cond
        while True:
            start = None
            if kernel is not None and test is not None \
                    and kernel.run is not None:
                done = kernel.run(env, ctx)
                if done:
                    return
                if done is None:
                    start = ctx.steps
            ctx.tick()
            if test is not None:
                value = test(interp, env, fields)
                if not isinstance(value, bool):
                    raise _NotConcrete
                if not value:
                    return
            head = ctx.steps
            ctx.tick(ticks)
            try:
                for stmt in body:
                    stmt(interp, env, fields)
            except _Break:
                return
            except _Continue:
                pass
            for update in updates:
                update(interp, env, fields)
            if start is not None:
                kernel.measured(head - start, ctx.steps - start)
            test = cond
    return loop


def _c_enhanced_for(interp, node):
    """Reads the elements as ``.length`` and ``a[i]`` do."""
    compiled = interp.compiled
    convert, elem = _converts(str(node.children[0].value or ""))
    name = str(node.children[1].value)
    iterable = compiled[id(node.children[2])]
    ticks, body = _loop_body(compiled, node.children[3:4])

    def enhanced_for(interp, env, fields):
        ctx = interp.ctx
        ctx.tick()
        seq = iterable(interp, env, fields)
        length = _length(seq)
        if length is None:
            raise _NotConcrete
        for i in range(length):
            ctx.tick()
            item = _load(seq, i)
            env[name] = _cast(elem, item) if type(item) is convert else item
            ctx.tick(ticks)
            try:
                for stmt in body:
                    stmt(interp, env, fields)
            except _Break:
                return
            except _Continue:
                continue
    return enhanced_for


def _c_return(interp, node):
    value = interp.compiled[id(node.children[0])] if node.children else None

    def return_statement(interp, env, fields):
        interp.ctx.tick()
        raise _Return(value(interp, env, fields)
                      if value is not None else None)
    return return_statement


def _c_raise(exc: type[Exception]):
    def compile_raise(interp, node):
        def jump(interp, env, fields):
            interp.ctx.tick()
            raise exc
        return jump
    return compile_raise


def _try(node: SyntaxNode):
    """(resource declarations, try block, first catch's block, finally
    block) of a ``try`` statement, each block None when absent."""
    catch = child_of_kind(node, "catch_clause")
    final = child_of_kind(node, "finally_clause")
    return ([c for c in node.children
             if c.kind == "local_variable_declaration"],
            child_of_kind(node, "block"),
            catch and child_of_kind(catch, "block"),
            final and final.children[0])


def _try_parts(node: SyntaxNode) -> list[SyntaxNode]:
    decls, *blocks = _try(node)
    return decls + [b for b in blocks if b is not None]


def _c_try(interp, node):
    """Runs the try block, the first catch block on a Java throw, and the
    finally block however they complete but by giving up (JLS 14.20.2):
    normally, by a throw, or by a ``break``, ``continue`` or ``return``."""
    compiled = interp.compiled
    decls, block, catch, final = _try(node)
    decls = [compiled[id(c)] for c in decls]
    block, catch, final = (None if b is None else _sequence(compiled, b)
                           for b in (block, catch, final))

    def try_statement(interp, env, fields):
        interp.ctx.tick()
        try:
            try:
                for decl in decls:
                    decl(interp, env, fields)
                if block is not None:
                    block(interp, env, fields)
            except _JavaThrow:
                if catch is None:
                    raise
                catch(interp, env, fields)
        except (_JavaThrow, _Break, _Continue, _Return):
            if final is not None:
                final(interp, env, fields)
            raise
        if final is not None:
            final(interp, env, fields)
    return try_statement


def _c_synchronized(interp, node):
    """One step, then the block's statements, as a block runs them."""
    return _c_block(interp, node.children[-1])


def _c_assert(interp, node):
    def assert_statement(interp, env, fields):
        interp.ctx.tick()
    return assert_statement


# -- loop kernels ----------------------------------------------------------
#
# A ``for`` or ``while`` loop (or a ``do`` loop past its first iteration)
# whose condition, updates and body statements are straight-line work over
# int, char, String and StringBuilder locals runs its tested iterations in
# one generated Python function, its kernel, and not in its closures.
# `_kernel` reads the loop's shape when the loop is compiled. The kernel's
# source is written from fixed templates (`_KernelSource`) on the loop's
# first entry whose locals all hold values of a kind a kernel takes:
# each local is a positional name (``v0``, ``v1``, …) and each literal an
# argument (``c0``, …), so nothing of the scanned file reaches `compile()`,
# and loops of one shape share one code object. The kernel reads its locals
# from the scope once, runs whole iterations while their guards hold (an
# index within its string, a nonzero divisor) and the budget has room for
# a whole one, then writes the locals and builder texts back and counts
# the iterations' steps at once. An iteration writes new names and commits
# them at its end, so one that fails a guard is handed, from its start, to
# the closures, which take it step by step. The kernel does not restate a
# closure's steps: the closures count them on the first iteration they run
# with the kernel's locals bound (`_Kernel.measured`), and every later one
# takes the same path, as nothing in such a loop branches.

# The kind of value a kernel local holds, by its type: I an int, C a char
# (its code point inside the kernel), S a String, B a StringBuilder (its
# text inside the kernel).
_KINDS = {int: "I", Char: "C", str: "S", Builder: "B"}
_KIND_TYPES = {kind: t.__name__ for t, kind in _KINDS.items()}
# Literal node kind → the kind of its value.
_KERNEL_LITERALS = {"decimal_integer_literal": "I", "hex_integer_literal": "I",
                    "character_literal": "C", "string_literal": "S"}
# Operator → the template of its value on two ints or chars, as
# `javamodel._INT_ARITH` and `_INT_COMPARE` give it; `/` and `%` guard
# their divisor first.
_KERNEL_ARITH = {
    "+": "({} + {})", "-": "({} - {})", "*": "({} * {})",
    "&": "({} & {})", "|": "({} | {})", "^": "({} ^ {})",
    "<<": "({} << ({} & 31))", ">>": "({} >> ({} & 31))",
    ">>>": "(({} % 4294967296) >> ({} & 31))",
    "/": "_div({}, {})", "%": "_mod({}, {})"}
_KERNEL_COMPARE = {op: "({} " + op + " {})"
                   for op in ("<", "<=", ">", ">=", "==", "!=")}
_KERNEL_UNARY = {"-": "(-{})", "+": "{}", "~": "(~{})"}
# Cast target → (template, kind of its value), as `javamodel._cast` gives
# it for an int or a char.
_KERNEL_CASTS = {"char": ("({} & 65535)", "C"), "int": ("{}", "I"),
                 "long": ("{}", "I"), "short": ("{}", "I"),
                 "byte": ("((({} + 128) % 256) - 128)", "I")}
# (name, argument count) of the built-ins a kernel calls.
_KERNEL_CALLS = frozenset({("length", 0), ("charAt", 1), ("append", 1)})
# Node kinds a kernel loop's parts may hold beside the ones checked in
# `_kernel`, and the most nodes they may hold: `_KernelSource` recurses.
_KERNEL_PLAIN = frozenset({"identifier", "parenthesized_expression",
                           "argument_list", "type_identifier"})
_KERNEL_NODES = 200
# The code name of every kernel, and the kernels compiled, by shape and
# kinds (`_kernel_function`).
_KERNEL_FILE = "<jcascan loop kernel>"
_KERNELS: dict = {}
_KERNEL_SCOPE = {
    "__builtins__": {"len": len, "ord": ord, "chr": chr, "type": type,
                     "int": int, "str": str},
    "Char": Char, "Builder": Builder, "_INF": float("inf"),
    "_div": _INT_ARITH["/"], "_mod": _INT_ARITH["%"]}


def _kernel(interp, node: SyntaxNode):
    """The `_Kernel` of loop ``node`` (`_loop`), or None when a part of the
    loop is not straight-line work over locals and literals: a condition,
    updates and body expression statements of identifiers, int, char and
    string literals, the operators and casts above, ``r.length()``,
    ``r.charAt(i)``, ``b.append(x)``, ``x = …``, compound assignments and
    ``++``/``--`` of a local. `_c_loop` reaches kernels through this
    function alone."""
    _, cond, updates, body, _ = _loop(node)
    statements = _body_parts(body)
    if cond is None or any(stmt.kind != "expression_statement"
                           for stmt in statements):
        return None
    parts = [cond] + [stmt.children[0] for stmt in statements] + updates
    nodes = [item for part in parts for item in part.walk()]
    if len(nodes) > _KERNEL_NODES \
            or any(id(item) in interp.operands for item in nodes):
        return None
    kernel = _Kernel(parts)
    names = set()   # ids of the called methods' name nodes
    # Each node's kind, child count, and slot, operator or name, in order.
    shape = []
    for item in nodes:
        kind, op = item.kind, str(item.value)
        shape += (kind, len(item.children),
                  kernel.slots.setdefault(op, len(kernel.slots))
                  if kind == "identifier" and id(item) not in names
                  else None if kind in _KERNEL_LITERALS else op)
        if kind in _KERNEL_LITERALS:
            value = _literal(item)
            value = value.cp if type(value) is Char else value
            if type(value) is not (str if kind == "string_literal" else int):
                return None
            kernel.consts[id(item)] = len(kernel.values)
            kernel.values.append(value)
        elif kind == "binary_expression":
            if op not in _KERNEL_ARITH and op not in _KERNEL_COMPARE:
                return None
        elif kind == "unary_expression":
            if op not in _KERNEL_UNARY:
                return None
        elif kind == "cast_expression":
            if op not in _KERNEL_CASTS:
                return None
        elif kind == "method_invocation":
            if len(item.children) != 3 \
                    or (op, len(item.children[2].children)) \
                    not in _KERNEL_CALLS \
                    or item.children[0].kind not in ("identifier",
                                                     "string_literal") \
                    or library_call(item) is not None:
                return None
            names.add(id(item.children[1]))
        elif kind in ("update_expression", "assignment_expression"):
            target = item.children[0]
            if target.kind != "identifier" or kind == "assignment_expression" \
                    and op != "=" and op[:-1] not in _KERNEL_ARITH:
                return None
            if op != "=":
                kernel.chars[id(item)] = char = _declared_char(
                    interp, item, str(target.value))
                shape += (char, item.start == target.start)
        elif kind not in _KERNEL_PLAIN:
            return None
    kernel.shape = tuple(shape)
    return kernel


class _Kernel:
    """A loop's kernel: its parts (condition, statement expressions,
    updates), its locals (``slots``: name → slot), its literals
    (``consts``: id(node) → slot, ``values`` by slot), which of
    its updates and compound assignments keep a char (``chars``), its
    ``shape``, which holds the rest of what its source is written from,
    and ``run(env, ctx)``, which `_c_loop` calls before each iteration:
    True when the kernel ran the loop to its end, False when the next
    iteration is the closures', None when it is theirs and they are to
    measure its steps (`measured`). ``run`` is None once no kernel can be
    written for the loop."""

    __slots__ = ("parts", "slots", "consts", "values", "chars", "shape",
                 "kinds", "fn", "run")

    def __init__(self, parts: list[SyntaxNode]):
        self.parts = parts
        self.slots: dict[str, int] = {}
        self.consts: dict[int, int] = {}
        self.values: list = []
        self.chars: dict[int, bool] = {}
        self.shape: tuple = ()
        self.kinds = self.fn = None
        self.run = self.enter

    def enter(self, env: dict, ctx: _Ctx):
        """Until the steps are measured: on an entry whose locals all hold
        a kind a kernel takes, write and compile the kernel for those kinds
        if it is not yet, and ask for the iteration to be measured if they
        are its kinds."""
        kinds = tuple(_KINDS.get(type(env.get(name))) for name in self.slots)
        if None in kinds:
            return False
        if self.fn is None:
            self.kinds, self.fn = kinds, _kernel_function(self, kinds)
            if self.fn is None:
                self.run = None
                return False
        return None if kinds == self.kinds else False

    def measured(self, head: int, whole: int) -> None:
        """Run the kernel from now on: an iteration takes ``whole`` steps,
        and the last test of the condition, with its iteration's own step,
        ``head``."""
        self.run = partial(self.fn, tuple(self.slots), tuple(self.values),
                           head, whole)


def _kernel_function(kernel: _Kernel, kinds: tuple[str, ...]):
    """The function of ``kernel`` for locals of ``kinds``, or None when
    none can be written; compiled once per shape and kinds per process."""
    key = (kernel.shape, kinds)
    if key not in _KERNELS:
        if len(_KERNELS) >= 1024:
            _KERNELS.clear()
        source = _KernelSource(kernel, kinds).source()
        scope = dict(_KERNEL_SCOPE)
        if source is not None:
            exec(compile(source, _KERNEL_FILE, "exec"), scope)
        _KERNELS[key] = scope.get("kernel")
    return _KERNELS[key]


class _NoKernel(Exception):
    pass


class _KernelSource:
    """The source of ``kernel``'s function for locals of ``kinds``, one per
    slot. Inside an iteration, ``current[slot]`` names a local's value:
    ``v<slot>`` at its start, and a new ``t<n>`` after each write."""

    def __init__(self, kernel: _Kernel, kinds: tuple[str, ...]):
        self.kernel, self.kinds = kernel, kinds
        self.current = [f"v{slot}" for slot in range(len(kinds))]
        self.written: set[int] = set()
        self.lines: list[str] = []
        self.lengths: dict[str, str] = {}

    def source(self) -> str | None:
        """The function's text, or None when a value has a kind the kernel
        does not take where it is used."""
        kernel, kinds = self.kernel, self.kinds
        cond, *rest = kernel.parts
        try:
            test, kind = self.value(cond)
            if kind != "Z":
                return None
            self.lines += [f"if not {test}:",
                           *("    " + line for line in self.commit()),
                           "    done = True", "    break"]
            for part in rest:
                self.value(part)
        except _NoKernel:
            return None
        slots = range(len(kinds))
        builders = [i for i in slots if kinds[i] == "B"]
        text = ["".join(f"n{i}, " for i in slots) + "= N" if kinds else "",
                "".join(f"c{i}, " for i in range(len(kernel.values)))
                + "= K" if kernel.values else ""]
        text += [f"v{i} = env.get(n{i})" for i in slots]
        if kinds:
            text += ["if " + " or ".join(
                f"type(v{i}) is not {_KIND_TYPES[kinds[i]]}" for i in slots)
                + ":", "    return False"]
        for i in builders:
            text += [line for j in builders if i < j
                     for line in (f"if v{i} is v{j}:", "    return False")]
        text += [f"v{i} = v{i}.cp" for i in slots if kinds[i] == "C"]
        text += [line for i in builders
                 for line in (f"b{i} = v{i}", f"v{i} = b{i}.text")]
        text += [f"{name} = {length}" for name, length in self.lengths.items()]
        text += ["room = ctx.limit - ctx.steps",
                 "cap = room if room == _INF else room // W",
                 "n = 0", "done = False", "while n < cap:"]
        text += ["    " + line
                 for line in self.lines + self.commit() + ["n += 1"]]
        text += ["if n or done:",
                 "    ctx.steps += n * W + H if done else n * W"]
        text += ["    " + ("b{0}.text = v{0}" if kinds[i] == "B" else
                           "env[n{0}] = Char(v{0})" if kinds[i] == "C" else
                           "env[n{0}] = v{0}").format(i)
                 for i in sorted(self.written)]
        text.append("return done")
        return "def kernel(N, K, H, W, env, ctx):\n" + "".join(
            f"    {line}\n" for line in text if line)

    def commit(self) -> list[str]:
        """The lines that make each local's current value its value."""
        return [f"v{slot} = {self.current[slot]}"
                for slot in sorted(self.written)]

    def temp(self, text: str) -> str:
        """A new name, set to ``text``."""
        name = f"t{len(self.lines)}"
        self.lines.append(f"{name} = {text}")
        return name

    def guard(self, test: str) -> None:
        self.lines += [f"if not {test}:", "    break"]

    def store(self, slot: int, text: str) -> str:
        self.current[slot] = name = self.temp(text)
        self.written.add(slot)
        return name

    def number(self, node: SyntaxNode) -> str:
        """The text of ``node``'s value, an int or a char."""
        text, kind = self.value(node)
        if kind not in ("I", "C"):
            raise _NoKernel
        return text

    def value(self, node: SyntaxNode) -> tuple[str, str]:
        """The text and kind of ``node``'s value (Z a bool, V none); the
        lines before it compute its parts and guard them."""
        kind, op = node.kind, str(node.value)
        if kind == "parenthesized_expression":
            return self.value(node.children[0])
        if kind == "identifier":
            slot = self.kernel.slots[op]
            return self.current[slot], self.kinds[slot]
        if kind in _KERNEL_LITERALS:
            return f"c{self.kernel.consts[id(node)]}", _KERNEL_LITERALS[kind]
        if kind == "binary_expression":
            a, b = self.number(node.children[0]), self.number(node.children[1])
            if op in _KERNEL_COMPARE:
                return _KERNEL_COMPARE[op].format(a, b), "Z"
            return self.arith(op, a, b), "I"
        if kind == "unary_expression":
            return _KERNEL_UNARY[op].format(self.number(node.children[0])), "I"
        if kind == "cast_expression":
            template, cast = _KERNEL_CASTS[op]
            return template.format(self.number(node.children[1])), cast
        if kind == "method_invocation":
            return self.call(node, op)
        slot = self.kernel.slots[str(node.children[0].value)]
        held = self.kinds[slot]
        if op == "=":
            text, kind = self.value(node.children[1])
            if kind != held or kind not in ("I", "C"):
                raise _NoKernel
            return self.store(slot, text), held
        # ++, -- and compound assignment give an int, or a char where the
        # local is declared char (`_c_update`, `_store`).
        char = self.kernel.chars[id(node)]
        if held != ("C" if char else "I"):
            raise _NoKernel
        if kind == "update_expression":
            old = self.current[slot]
            text = self.arith("+" if op == "++" else "-", old, "1")
        else:
            b = self.number(node.children[1])
            old = self.current[slot]    # read after the right-hand side
            text = self.arith(op[:-1], old, b)
        new = self.store(slot, f"({text} & 65535)" if char else text)
        postfix = kind == "update_expression" \
            and node.start == node.children[0].start
        return (old if postfix else new), held

    def arith(self, op: str, a: str, b: str) -> str:
        """The text of int operator ``op`` on ``a`` and ``b``, after a
        guard on a divisor."""
        if op in ("/", "%"):
            b = self.named(b)
            self.guard(b)
        return _KERNEL_ARITH[op].format(a, b)

    def named(self, text: str) -> str:
        """``text``, or a new name set to it when it is not a name."""
        return text if text.isidentifier() else self.temp(text)

    def call(self, node: SyntaxNode, name: str) -> tuple[str, str]:
        receiver, _, args = node.children
        if name == "append":
            text, kind = self.value(args.children[0])
            slot = self.kernel.slots.get(str(receiver.value)) \
                if receiver.kind == "identifier" else None
            if slot is None or self.kinds[slot] != "B" \
                    or kind not in ("C", "S"):
                raise _NoKernel
            self.store(slot, f"{self.current[slot]} + "
                       + (f"chr({text})" if kind == "C" else text))
            return "", "V"
        base, kind = self.value(receiver)
        if kind not in ("S", "B"):
            raise _NoKernel
        # No kernel writes a String: its length is read once, on entry.
        length = f"len({base})"
        if kind == "S":
            self.lengths[f"l{base}"] = length
            length = f"l{base}"
        if name == "length":
            return length, "I"
        index = self.named(self.number(args.children[0]))
        self.guard(f"0 <= {index} < {length}")
        return f"ord({base}[{index}])", "C"


_COMPILERS = {
    **dict.fromkeys(_LITERALS, _c_constant),
    "identifier": _c_identifier,
    "parenthesized_expression": _c_parenthesized,
    "binary_expression": _c_binary,
    "unary_expression": _c_unary,
    "update_expression": _c_update,
    "assignment_expression": _c_assignment,
    "cast_expression": _c_cast,
    "array_access": _c_array_access,
    "array_creation_expression": _c_array_creation,
    "array_initializer": _c_array_initializer,
    "object_creation_expression": _c_object_creation,
    "method_invocation": _c_call,
    "field_access": _c_field_access,
    "local_variable_declaration": _c_local_declaration,
    "expression_statement": _c_expression_statement,
    "block": _c_block,
    "if_statement": _c_if,
    **dict.fromkeys(("for_statement", "while_statement", "do_statement"),
                    _c_loop),
    "enhanced_for_statement": _c_enhanced_for,
    "return_statement": _c_return,
    "break_statement": _c_raise(_Break),
    "continue_statement": _c_raise(_Continue),
    "throw_statement": _c_raise(_JavaThrow),
    "try_statement": _c_try,
    "synchronized_statement": _c_synchronized,
    "assert_statement": _c_assert,
}

# The nodes each kind's compiler reads the closures of, when not all of
# its children: chains read every link's operands but not the inner links
# themselves, a throw, assert or ternary evaluates nothing, and a node
# whose step counts in its child's first tick, or a loop body block, reads
# that child's parts.
_PARTS = {
    "parenthesized_expression": lambda node: _parts(_innermost(node)),
    "binary_expression": _binary_parts,
    "cast_expression": lambda node: _parts(node.children[1]),
    "object_creation_expression": _object_parts,
    "method_invocation": _call_parts,
    "field_access": lambda node: node.children[:1],
    "local_variable_declaration": _declaration_parts,
    "expression_statement": lambda node: _parts(node.children[0]),
    "if_statement": _if_parts,
    **dict.fromkeys(("for_statement", "while_statement", "do_statement"),
                    _loop_parts),
    "enhanced_for_statement":
        lambda node: node.children[2:3] + _body_parts(node.children[3:4]),
    "try_statement": _try_parts,
    "synchronized_statement": lambda node: node.children[-1:],
    "throw_statement": lambda node: [],
    "assert_statement": lambda node: [],
}
