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
and gives up. Only two counts are written inline, both on the
``string-encryption`` decoder's path: each iteration of a ``for`` loop
(its condition, its block and its inline ``i++``) and a decoder-loop
group's all-at-once count. Fewer calls carry the ticks:
- folded ticks: parentheses, an expression statement and a cast count
  their own tick in the first tick of their child and take no call of
  their own, and a loop runs its block's statements itself;
- decoder-loop groups, each the shape of a statement of the
  ``string-encryption`` workload's decoder: a ``for`` loop runs its one
  ``i++``/``i--`` of a local inline; an ``=`` to a local stores inline and
  folds a right-hand side that is a chain of int operators over
  identifiers and int literals; ``leaf OP r.length()`` reads the length
  of a string leaf inline; a builder's ``append`` of ``(char)
  (r.charAt(i) OP b)`` over leaves appends its code point in one group.
  A group reads identifiers bound in the local scope and literals
  inline and counts its ticks at once, as nothing can fail between them;
  a group that would pass the budget, or whose leaves do not hold the
  values it folds, runs the node's generic closure, one tick at a time.

The values it computes, and the operators, library calls and string
built-ins it applies, are the one model of Java in `javamodel`. The
set-valued resolver in `resolve` runs the same closures over candidate
sets, once per combination (`_Interp.lifted`).
"""

from __future__ import annotations

from functools import partial

from .javamodel import (Builder, Char, CharArray, EnumConst, JArray, UNARY,
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
        # → the block's statements without its own tick.
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
            stack.extend((part, False) for part in _parts(item)
                         if id(part) not in compiled)
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
        params = method_params(decl)
        if len(params) != len(args):
            raise _NotConcrete
        env = dict(zip(params, args))
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
# them in that first tick, so those parents take no call of their own. A
# parent reads an identifier bound in ``env`` or a literal operand inline
# (`_leaf`), and counts a group of ticks at once only where nothing can fail
# between them; a group that would pass the budget runs the node's generic
# closure instead, which ticks one node at a time.

_LITERALS = frozenset({
    "string_literal", "character_literal", "decimal_integer_literal",
    "hex_integer_literal", "decimal_floating_point_literal", "true",
    "false", "null_literal"})
# Operators whose fold of two ints cannot fail.
_INT_SAFE = frozenset({"+", "-", "*", "&", "|", "^", "<<", ">>", ">>>"})


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


def _leaf(node: SyntaxNode):
    """``(name, None)`` of an identifier, ``(None, value)`` of a literal,
    else None: the operands a parent reads inline."""
    if node.kind == "identifier":
        return str(node.value), None
    if node.kind in _LITERALS:
        return None, _literal(node)
    return None


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
    if len(steps) == 1 and steps[0][0] is None:
        return _fused_length(chain, steps[0][2], _leaf(node.children[0]),
                             node.children[1], n)
    return chain


def _int_spine(node: SyntaxNode, pre: int, generic, store: str):
    """``generic``, the closure of an ``=`` to the local ``store`` whose
    right-hand side is ``node``, or, when the left spine of ``node``,
    parentheses included, is two or more `_INT_SAFE` operators over
    identifiers and int literals, a fold of it at once while every
    identifier holds an int, stored into ``store``: no fold can fail, so
    its ticks, the ``pre`` of the assignment and one per operator,
    parenthesis and leaf, count together."""
    ops, rights, levels = [], [], 0
    while node.kind in ("binary_expression", "parenthesized_expression"):
        if node.kind == "parenthesized_expression":
            levels += 1
        elif str(node.value) in _INT_SAFE:
            ops.append(_INT_ARITH[str(node.value)])
            rights.append(node.children[1])
        else:
            return generic
        node = node.children[0]
    leaves = [_leaf(node)] + [_leaf(right) for right in reversed(rights)]
    if len(ops) + levels < 2 or not all(
            leaf is not None and (leaf[0] is not None or type(leaf[1]) is int)
            for leaf in leaves):
        return generic
    ticks = pre + len(ops) + levels + len(leaves)
    first_name, first_value = leaves[0]
    links = [(apply, name, value)
             for apply, (name, value) in zip(reversed(ops), leaves[1:])]

    def int_spine(interp, env, fields):
        ctx = interp.ctx
        steps = ctx.steps + ticks
        if steps <= ctx.limit:
            value = first_value if first_name is None \
                else env.get(first_name)
            if type(value) is int:
                for apply, name, b in links:
                    if name is not None:
                        b = env.get(name)
                        if type(b) is not int:
                            break
                    value = apply(value, b)
                else:
                    ctx.steps = steps
                    env[store] = value
                    return value
        return generic(interp, env, fields)
    return int_spine


def _leaf_call(node: SyntaxNode, name: str, count: int):
    """The leaves of the receiver and the ``count`` arguments of ``node``,
    a call ``name`` on a receiver that is not a library call, when each is
    a `_leaf`; else None."""
    if node.kind != "method_invocation" or str(node.value) != name \
            or len(node.children) != 3 \
            or len(node.children[-1].children) != count \
            or library_call(node) is not None:
        return None
    leaves = [_leaf(part) for part in _call_parts(node)]
    return None if None in leaves else leaves


def _fused_length(generic, on_ints, left, right: SyntaxNode, n: int):
    """``leaf OP r.length()``: the length of a string leaf read inline, the
    steps of the expression, its leaf and the call counted at once."""
    call = _leaf_call(right, "length", 0)
    if left is None or call is None:
        return generic
    (an, av), ((rn, rv),) = left, call
    total = n + 3

    def length_leaves(interp, env, fields):
        a = av if an is None else env.get(an)
        r = rv if rn is None else env.get(rn)
        ctx = interp.ctx
        if type(a) is int and type(r) is str \
                and ctx.steps + total <= ctx.limit:
            ctx.steps += total
            return on_ints(a, len(r))
        return generic(interp, env, fields)
    return length_leaves


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
            arr.items[idx] = value = _as_int(old) + delta
            return old if postfix else value
        return update_element
    return _c_unsupported(interp, node, pre)


def _declared_char(interp, node: SyntaxNode, name: str) -> bool:
    """Whether the local ``name`` that ``node`` updates is declared
    ``char``. Java lets no local hide another of its method, so the one in
    scope is the last declaration of ``name`` before ``node`` in the
    method, a parameter or loop variable included and a nested class body
    that does not hold ``node`` left out."""
    method = interp.index.enclosing_method(node)
    declared = None
    stack = [] if method is None else [method]
    while stack:
        item = stack.pop()
        if item.start >= node.start:
            break
        kind = item.kind
        if kind == "class_body" and item.end <= node.start:
            continue
        if kind == "local_variable_declaration":
            if any(d.kind == "variable_declarator"
                   and d.children[0].value == name
                   for d in item.children[1:]):
                declared = item.children[0].value
        elif kind in ("formal_parameter", "enhanced_for_statement"):
            if item.children[1].value == name:
                declared = item.children[0].value
        elif kind == "lambda_expression":
            if any(p.value == name for p in item.children[:-1]):
                declared = None
        stack += reversed(item.children)
    return declared == "char"


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
        def assign(interp, env, fields):
            interp.ctx.tick(n)
            return store(interp, env, fields, value_fn(interp, env, fields))
        return _fused_assign(assign, node, value_fn, n)

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


def _fused_assign(generic, node: SyntaxNode, value_fn, n: int):
    """``x = …`` to a local stores inline, and an int-spine right-hand side
    (`_int_spine`) folds and stores in one group with the assignment."""
    lhs, rhs = node.children
    if lhs.kind != "identifier" or str(node.value) != "=":
        return generic
    name = str(lhs.value)

    def assign_local(interp, env, fields):
        interp.ctx.tick(n)
        env[name] = value = value_fn(interp, env, fields)
        return value
    return _int_spine(rhs, n, assign_local, name)


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
        return _fused_char(to_char, interp.compiled, node)

    def cast(interp, env, fields):
        return _cast(target, operand(interp, env, fields))
    return cast


def _fused_char(generic, compiled: dict, cast: SyntaxNode):
    """``generic``, the closure of ``cast``; and, when ``cast`` is
    ``(char) (r.charAt(i) OP b)`` over leaves, OP `_INT_SAFE`, the group a
    builder's ``append`` of it runs (`_fused_append`). The group's
    ``code_point(interp, env, fields, pending)``, kept under ``(id(cast),
    "char")``, counts ``pending`` steps of its caller with the group's and
    gives the code point, or None where it cannot run at once."""
    inner, ticks = cast.children[1], 6
    while inner.kind == "parenthesized_expression":
        inner, ticks = inner.children[0], ticks + 1
    if inner.kind != "binary_expression" or str(inner.value) not in _INT_SAFE:
        return generic
    call = _leaf_call(inner.children[0], "charAt", 1)
    right = _leaf(inner.children[1])
    if call is None or right is None:
        return generic
    ((rn, rv), (i_name, iv)), (bn, bv) = call, right
    apply = _INT_ARITH[str(inner.value)]

    def code_point(interp, env, fields, pending):
        r = rv if rn is None else env.get(rn)
        i = iv if i_name is None else env.get(i_name)
        b = bv if bn is None else env.get(bn)
        ctx = interp.ctx
        steps = ctx.steps + pending + ticks
        if type(r) is str and type(i) is int and type(b) is int \
                and 0 <= i < len(r) and steps <= ctx.limit:
            ctx.steps = steps
            return apply(ord(r[i]), b) & 0xFFFF
        return None
    compiled[(id(cast), "char")] = code_point
    return generic


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
    if _leaf(receiver) is None:
        return _chained_call(interp, node, receiver, arg_fns, finish, n)
    return _fused_append(call_on, interp.compiled, node, n)


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


def _fused_append(generic, compiled: dict, call: SyntaxNode, n: int):
    """``b.append(<a char group>)`` on a builder local appends the group's
    code point, the call's steps counted with the group's, and builds no
    Char."""
    receiver, args = call.children[0], call.children[-1].children
    code_point = compiled.get((id(args[0]), "char")) if args else None
    if str(call.value) != "append" or len(args) != 1 or code_point is None \
            or receiver.kind != "identifier":
        return generic
    name, total = str(receiver.value), n + 1

    def append_char(interp, env, fields):
        base = env.get(name)
        cp = code_point(interp, env, fields, total) \
            if type(base) is Builder else None
        if cp is None:
            return generic(interp, env, fields)
        base.text += chr(cp)
        return base
    return append_char


# --- statements ---

def _c_local_declaration(interp, node):
    compiled = interp.compiled
    type_text = str(node.children[0].value or "")
    elem = _elem_of(type_text)
    # A local of a primitive type converts an initializer of the other
    # kind: a char to an int, short, byte or long, an int to a char. Java
    # takes no other primitive initializer without a cast.
    convert = None if elem != type_text else int if elem == "char" else Char
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


def _for_parts(node: SyntaxNode) -> list[SyntaxNode]:
    has_body = node.value[3]
    head = node.children[:-1] if has_body else node.children
    return head + _body_parts(node.children[-1:] if has_body else [])


def _inline_update(updates: list[SyntaxNode]):
    """``(name, ±1)`` of a for loop's one update, ``i++`` or ``i--`` of a
    local, which runs inline while it holds an int; else ``(None, 0)``."""
    if len(updates) != 1 or updates[0].kind != "update_expression" \
            or updates[0].children[0].kind != "identifier":
        return None, 0
    return (str(updates[0].children[0].value),
            1 if str(updates[0].value) == "++" else -1)


def _c_for(interp, node):
    compiled = interp.compiled
    n_init, has_cond, n_upd, has_body = node.value
    children = node.children
    inits = [compiled[id(c)] for c in children[:n_init]]
    cond = compiled[id(children[n_init])] if has_cond else None
    upd_start = n_init + (1 if has_cond else 0)
    upd_nodes = children[upd_start:upd_start + n_upd]
    updates = [compiled[id(c)] for c in upd_nodes]
    name, delta = _inline_update(upd_nodes)
    ticks, body = _loop_body(compiled, children[-1:] if has_body else [])

    def for_statement(interp, env, fields):
        ctx = interp.ctx
        ctx.tick()
        for init in inits:
            init(interp, env, fields)
        while True:
            # Inline, as `_Ctx.tick` counts: a decoder loop's iterations
            # take no call for their ticks.
            ctx.steps += 1
            if ctx.steps > ctx.limit:
                raise _BudgetExhausted
            if cond is not None:
                test = cond(interp, env, fields)
                if not isinstance(test, bool):
                    raise _NotConcrete
                if not test:
                    return
            ctx.steps += ticks
            if ctx.steps > ctx.limit:
                raise _BudgetExhausted
            try:
                for stmt in body:
                    stmt(interp, env, fields)
            except _Break:
                return
            except _Continue:
                pass
            if name is not None and type(env.get(name)) is int \
                    and ctx.steps < ctx.limit:
                ctx.steps += 1
                env[name] += delta
                continue
            for update in updates:
                update(interp, env, fields)
            if cond is None and not updates:
                raise _NotConcrete
    return for_statement


def _c_enhanced_for(interp, node):
    compiled = interp.compiled
    name = str(node.children[1].value)
    iterable = compiled[id(node.children[2])]
    ticks, body = _loop_body(compiled, node.children[3:4])

    def enhanced_for(interp, env, fields):
        ctx = interp.ctx
        ctx.tick()
        seq = iterable(interp, env, fields)
        if isinstance(seq, JArray):
            items = list(seq.items)
        elif isinstance(seq, (tuple, bytes)):
            items = list(seq)
        elif isinstance(seq, CharArray):
            items = [Char(ord(c)) for c in seq.text]
        elif isinstance(seq, str):
            items = [Char(ord(c)) for c in seq]
        else:
            raise _NotConcrete
        for item in items:
            ctx.tick()
            env[name] = item
            ctx.tick(ticks)
            try:
                for stmt in body:
                    stmt(interp, env, fields)
            except _Break:
                return
            except _Continue:
                continue
    return enhanced_for


def _while_parts(node: SyntaxNode) -> list[SyntaxNode]:
    children = node.children
    if node.kind == "do_statement":
        return children[-1:] + _body_parts(children[:-1][:1])
    return children[:1] + _body_parts(children[1:2])


def _c_while(interp, node):
    compiled = interp.compiled
    do = node.kind == "do_statement"
    children = node.children
    cond = compiled[id(children[-1] if do else children[0])]
    ticks, body = _loop_body(compiled, children[:-1][:1] if do
                             else children[1:2])

    def test(interp, env, fields) -> bool:
        value = cond(interp, env, fields)
        if not isinstance(value, bool):
            raise _NotConcrete
        return value

    def loop(interp, env, fields):
        ctx = interp.ctx
        ctx.tick()
        # A do loop runs its body once before the first test.
        tested = not do
        while True:
            ctx.tick()
            if tested and not test(interp, env, fields):
                return
            tested = True
            ctx.tick(ticks)
            try:
                for stmt in body:
                    stmt(interp, env, fields)
            except _Break:
                return
            except _Continue:
                pass
    return loop


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


def _try_parts(node: SyntaxNode) -> list[SyntaxNode]:
    decls = [c for c in node.children
             if c.kind == "local_variable_declaration"]
    block = child_of_kind(node, "block")
    catch = child_of_kind(node, "catch_clause")
    final = child_of_kind(node, "finally_clause")
    return decls + [b for b in (block,
                                catch and child_of_kind(catch, "block"),
                                final and final.children[0]) if b]


def _c_try(interp, node):
    """Runs the try block, the first catch block on a Java throw, and the
    finally block on normal completion or an uncaught throw."""
    compiled = interp.compiled
    decls = [compiled[id(c)] for c in node.children
             if c.kind == "local_variable_declaration"]
    block = child_of_kind(node, "block")
    catch = child_of_kind(node, "catch_clause")
    final = child_of_kind(node, "finally_clause")
    block = _sequence(compiled, block) if block is not None else None
    catch = _sequence(compiled, child_of_kind(catch, "block")) \
        if catch is not None else None
    final = _sequence(compiled, final.children[0]) \
        if final is not None else None

    def try_statement(interp, env, fields):
        interp.ctx.tick()
        try:
            for decl in decls:
                decl(interp, env, fields)
            if block is not None:
                block(interp, env, fields)
        except _JavaThrow:
            if catch is None:
                if final is not None:
                    final(interp, env, fields)
                raise
            catch(interp, env, fields)
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
    "for_statement": _c_for,
    "enhanced_for_statement": _c_enhanced_for,
    "while_statement": _c_while,
    "do_statement": _c_while,
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
    "for_statement": _for_parts,
    "enhanced_for_statement":
        lambda node: node.children[2:3] + _body_parts(node.children[3:4]),
    "while_statement": _while_parts,
    "do_statement": _while_parts,
    "try_statement": _try_parts,
    "synchronized_statement": lambda node: node.children[-1:],
    "throw_statement": lambda node: [],
    "assert_statement": lambda node: [],
}
